"""Closed-form simulator for dissipative three-mode collective atomic
recoil lasing: Gaussian covariance evolution, physical observables, and
continuous-variable entanglement classification."""

from .covariance import (
    CovarianceState,
    NoiseMatrix,
    covariance,
    diffusion_matrix,
    ode_oracle,
    q_closed_form,
    q_quadrature,
    steady_state,
)
from .dynamics import (
    Spectrum,
    cubic_coefficients,
    cubic_roots,
    drift_generator,
    gain,
    solve_cubic,
    spectrum,
    unstable_root,
)
from .entanglement import (
    SeparabilityReport,
    asymptotic_eta,
    physicality,
    separability_report,
)
from .errors import (
    InvalidSpec,
    NegativeOccupation,
    NonFinite,
    NotHermitian,
    NotStable,
    RegimeMismatch,
    TricarlError,
)
from .model import DerivedParams, LabParams, ModelParams, carl_parameter, derive, from_lab
from .observables import (
    ModeObservables,
    mode_observables,
)
from .regimes import (
    SaturationEstimates,
    classify_regime,
    lossless_highgain_populations,
    saturation_estimates,
    sr_quantum_populations,
    sr_semiclassical_populations,
    superradiant_roots,
)
from .sweep import (
    AXES,
    OUTPUTS,
    FigurePreset,
    SweepSpec,
    as_rows,
    evolve_point,
    figure_preset,
    run_preset,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "AXES",
    "CovarianceState",
    "DerivedParams",
    "FigurePreset",
    "InvalidSpec",
    "LabParams",
    "ModeObservables",
    "ModelParams",
    "NegativeOccupation",
    "NoiseMatrix",
    "NonFinite",
    "NotHermitian",
    "NotStable",
    "OUTPUTS",
    "RegimeMismatch",
    "SaturationEstimates",
    "SeparabilityReport",
    "Spectrum",
    "SweepSpec",
    "TricarlError",
    "as_rows",
    "asymptotic_eta",
    "carl_parameter",
    "classify_regime",
    "covariance",
    "cubic_coefficients",
    "cubic_roots",
    "derive",
    "diffusion_matrix",
    "drift_generator",
    "evolve_point",
    "figure_preset",
    "from_lab",
    "gain",
    "lossless_highgain_populations",
    "mode_observables",
    "ode_oracle",
    "physicality",
    "q_closed_form",
    "q_quadrature",
    "run_preset",
    "run_sweep",
    "saturation_estimates",
    "separability_report",
    "solve_cubic",
    "spectrum",
    "sr_quantum_populations",
    "sr_semiclassical_populations",
    "steady_state",
    "superradiant_roots",
    "unstable_root",
]
