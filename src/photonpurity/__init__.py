"""Frequency-filtered photon statistics of pulsed quantum emitters.

Simulation of the driven two-level emitter and the biexciton-exciton cascade
(Lindblad dynamics, quantum regression), sensor-method filtered correlations
g2[0; Gamma], Monte Carlo Hanbury Brown-Twiss detection with the peak-sum
estimator, and lifetime fitting with instrument-response convolution.

Importing the package loads numpy only, and photonpurity.cli adds yaml.
scipy loads where it is called: scipy.linalg.expm for the propagators of
two_time_g2_map; scipy.special and scipy.optimize for the cascade model and
the lifetime fit.  The filtered g2 (sampled past the drive cutoff or not, at
any sensor truncation) and the emission spectra of the two-level emitter and
of the cascade's exciton line, and the HBT simulation, need none of them.
"""

__version__ = "0.1.0"

from .model import (
    BiexcitonConfig,
    EXCITON_V_ONLY,
    GaussianPulse,
    HORIZONTAL,
    ObservationVector,
    PolarizationState,
    SensorConfig,
    SystemModel,
    TwoLevelConfig,
    attach_sensor,
    build_biexciton,
    build_two_level,
    ground_state,
    observation_operator,
    project_polarization,
)
from .dynamics import (
    CorrelationGrid,
    IntegratorConfig,
    Trajectory,
    expectation,
    physicality_report,
    propagate,
    two_time_g2_map,
)
from .correlations import (
    FilteredStats,
    NotConverged,
    SweepResult,
    ZeroEmission,
    filtered_g2_batch,
    filtered_g2_zero,
    spectrum,
    sweep_grid,
    unfiltered_g2_zero,
)
from .photostream import (
    BlinkingConfig,
    CoincidenceHistogram,
    G2Estimate,
    StreamConfig,
    correlate,
    estimate_g2,
    peak_sums,
    synthesize_stream,
)
from .analysis import (
    CascadeParams,
    SuperGaussianFilter,
    cascade_populations,
    fit_lifetimes,
    super_gaussian,
)
