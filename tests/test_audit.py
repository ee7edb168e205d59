import pytest

import finwell.audit as audit
import finwell.cli as cli
from finwell import PAPER_FIT, critical_width, hydrogen_well, well_strength


def test_cli_binds_the_library_report():
    # `finwell verify` renders the library's report, looked up on the cli module.
    assert cli.build_verify_report is audit.build_verify_report


def test_hydrogen_report_order_and_verdict():
    values = audit.hydrogen_report()
    assert list(values) == [
        "V0_eV", "K_m", "K_reference_m", "K_rel_dev", "a0_m", "a0_reference_m",
        "a0_rel_dev", "half_width_m", "classification", "reproduced",
    ]
    assert values["reproduced"] is True
    assert values["classification"] == "Ionizes"
    K = well_strength(hydrogen_well()).characteristic_length
    assert values["K_m"] == K
    assert values["a0_m"] == critical_width(K, PAPER_FIT, method="paper").a0_paper
    assert values["K_rel_dev"] == pytest.approx(abs(K - 5.2918e-11) / 5.2918e-11, rel=1e-12)


def test_hydrogen_report_reads_the_reference_at_call_time(monkeypatch):
    monkeypatch.setattr(audit, "HYDROGEN_A0_REF", 2e-10)
    assert audit.hydrogen_report()["reproduced"] is False
