"""Frequency-filtered photon statistics of pulsed quantum emitters.

The driven two-level emitter and the biexciton-exciton cascade (model)
evolve under a Lindblad master equation from their ground state (dynamics:
the emission integrals over all times, from one pass that samples no state,
and the two-time correlation map by quantum regression).  The sensor-method
filtered g2[0; Gamma] and the filtered emission spectra build on them
(correlations), each filter width or center at each pulse length one system
of a single pass.  Monte Carlo Hanbury Brown-Twiss detection with the
peak-sum estimator (photostream) and lifetime fitting with instrument-response
convolution (analysis) serve the supplement.  The commands of photonpurity.cli
run them all.

Importing the package loads numpy only, and photonpurity.cli adds yaml.
scipy loads only in analysis, where it is called: scipy.special and
scipy.optimize for the cascade model and the lifetime fit.  The two-time
map, the filtered g2 (with the sensor cut at 2 photons or more) and the
emission spectra of the two-level emitter and of the cascade's exciton
line, and the HBT simulation, need none of them.
"""

__version__ = "0.1.0"

from .model import (
    BiexcitonConfig,
    EXCITON_V_ONLY,
    GaussianPulse,
    SensorConfig,
    SystemModel,
    TwoLevelConfig,
    attach_sensor,
    build_biexciton,
    build_two_level,
)
from .dynamics import (
    IntegratorConfig,
    two_time_g2_map,
)
from .correlations import (
    FilteredStats,
    NotConverged,
    ZeroEmission,
    filtered_g2_batch,
    filtered_g2_zero,
    spectrum,
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
    fit_lifetimes,
    super_gaussian,
)
