"""Pressure response of a particle in a 1D finite potential well.

Bound-state energies from the even-parity quantization condition, the
inverse-power fit of E/V0 against well strength, the 1D pressure calculus
(P = -dE/da, dE/dP, expansions, critical width, ionization classification),
and in-well interval probabilities with their pressure derivative.
"""

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    DomainError,
    FinwellError,
    FitOutOfRange,
    MalformedNumber,
    NoRoot,
    NoSuchBranch,
    NumericalError,
    PoleSingularity,
    SingularSystem,
    UnknownUnit,
)
from .fitseries import (
    DEFAULT_GRID,
    FitCoefficients,
    FitGrid,
    PAPER_FIT,
    dump_coefficients,
    eval_fit,
    fit_inverse_poly,
    load_coefficients,
    refit,
    sample_energies,
)
from .pressure import (
    CriticalWidthReport,
    PressureProfile,
    Response,
    ResponseReport,
    classify_response,
    critical_width,
    denergy_dpressure,
    expansion_small_k,
    expansion_small_width,
    pressure_1d,
    pressure_columns,
    pressure_profile,
)
from .probability import (
    ProbabilityMethod,
    ProbabilityResult,
    WavefunctionNorm,
    beta_from_energy,
    beta_from_fit,
    normalization_constant,
    probability_columns,
    probability_interval,
    probability_pressure_derivative,
    probability_small_beta,
    wavefunction,
)
from .spectrum import (
    BoundState,
    GroundStates,
    WellConfig,
    WellStrength,
    energy_exact,
    energy_ratio,
    ground_states,
    hydrogen_well,
    solve_even_root,
    solve_ground_roots,
    well_strength,
)
from .units import (
    CONSTANTS,
    Dimension,
    PhysicalConstants,
    Quantity,
    format_quantity,
    parse_quantity,
    quantity,
)

__version__ = "0.1.0"
