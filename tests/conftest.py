import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Per-example deadlines fail at random on a loaded machine; each test keeps
# its own max_examples.
settings.register_profile("finwell", deadline=None)
settings.load_profile("finwell")

from finwell import WellConfig, hydrogen_well, well_strength


@pytest.fixture
def hydrogen_cfg() -> WellConfig:
    return hydrogen_well()


@pytest.fixture
def hydrogen_scale(hydrogen_cfg):
    """(K, V0, m) of the hydrogen preset, handy for building scaled wells."""
    strength = well_strength(hydrogen_cfg)
    return strength.characteristic_length, hydrogen_cfg.depth, hydrogen_cfg.mass
