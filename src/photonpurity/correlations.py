"""Time-integrated filtered photon statistics.

Headline quantity: g2[0; Gamma], the degree of second-order coherence at zero
delay of the emission seen through a Lorentzian filter of bandwidth Gamma,
computed with a weakly coupled sensor mode s (del Valle et al., PRL 109,
183601 (2012)):

    n(t)       = (Gamma / 2 eps)^2 <s^dag(t) s(t)>
    G2(t1, t2) = (Gamma / 2 eps)^4 <T-[s^dag(t1) s^dag(t2)] T+[s(t2) s(t1)]>
    g2         = (double integral of G2) / (integral of n)^2

Both integrals run over all times, with no grid and no horizon
(dynamics.emission_integrals): one forward pass of the state, the
single collapsed row X(t2) = int_0^t2 U(t2, t1) J rho(t1) dt1 and their time
integrals covers the pulse window [0, t0 + 8 tau]; after it the generator is
constant and every tail is a resolvent solve.  Error budget of g2:

- integrator tolerance: rel_tol 1e-9 against 1e-11 moves it by < 1e-7;
- drive cut-off: the drive past t0 + 8 tau (below e^-32 of its peak) is
  dropped; t0 + 10 tau moves g2 by < 1e-9;
- sensor coupling: the eps-halving check below (measured < 1e-4);
- sensor truncation: 2 against 3 photons, < 1e-3.

Every reported g2 can be cross-checked by halving the sensor coupling; the
two systems are integrated in one batch so the check costs little.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import dynamics
from .dynamics import IntegratorConfig, PhysicalityReport, Trajectory
from .model import GaussianPulse, SensorConfig, SystemModel, attach_sensor

ZERO_EMISSION_FLOOR = 1e-12
EPSILON_CONVERGENCE = 5e-3
GRID_MIN_POINTS = 300
GRID_MAX_POINTS = 2400
HORIZON_DECADES = 12.0


class NotConverged(RuntimeError):
    """Halving the sensor coupling moved g2 by more than the allowed 0.5%."""

    def __init__(self, g2, g2_check):
        self.g2 = g2
        self.g2_check = g2_check
        rel = abs(g2_check - g2) / max(abs(g2), 1e-300)
        super().__init__(
            f"g2 not converged in sensor coupling: {g2:.6g} vs {g2_check:.6g} "
            f"at eps/2 (relative change {rel:.2e})"
        )


class ZeroEmission(RuntimeError):
    """No emission reaches the detector; g2 is undefined (0/0)."""


@dataclass
class FilteredStats:
    """Filtered population series and time-integrated two-photon statistics."""

    times: np.ndarray
    n_of_t: np.ndarray
    n_integral: float
    g2_numerator: float
    g2: float
    epsilon_used: float
    converged: bool
    g2_epsilon_check: float | None = None
    base_report: PhysicalityReport | None = None


@dataclass
class SweepResult:
    """One swept curve: `axis` strictly increasing, one value per point."""

    axis: np.ndarray
    values: np.ndarray
    metadata: dict
    epsilon_used: np.ndarray | None = None
    converged: np.ndarray | None = None


def _slowest_rate(system: SystemModel) -> float:
    return min(rate for _, rate in system.channels if rate > 0)


def horizon(system: SystemModel) -> float:
    """End of the g2map plot: pulse offset plus HORIZON_DECADES lifetimes of
    the slowest emitter decay."""
    t0 = system.pulse.offset if system.pulse is not None else 0.0
    return t0 + HORIZON_DECADES / _slowest_rate(system)


def map_grid(system: SystemModel) -> np.ndarray:
    """Uniform time grid of the g2map plot of the two-time correlation map.

    The spacing resolves the narrower of the pulse length and the emitter
    lifetime; the point count is clamped to keep maps affordable.
    """
    t_end = horizon(system)
    tau = system.pulse.length if system.pulse is not None else 1.0
    spacing = min(tau, 1.0 / _slowest_rate(system)) / 2.5
    points = int(np.clip(math.ceil(t_end / spacing) + 1, GRID_MIN_POINTS, GRID_MAX_POINTS))
    return np.linspace(0.0, t_end, points)


def filtered_g2_zero(
    system: SystemModel,
    sensor: SensorConfig,
    cfg: IntegratorConfig | None = None,
    observed=None,
    grid=None,
    check_convergence: bool = True,
) -> FilteredStats:
    """Time-integrated g2[0; Gamma] of `observed` emission from `system`.

    `system` is the bare emitter; the sensor is attached here (twice when
    `check_convergence`, at eps and eps/2, integrated as one batch).  Raises
    NotConverged if the two disagree by more than 0.5% and ZeroEmission if
    the integrated filtered population is below 1e-12.  `grid` only sets the
    times at which `n_of_t` and the physicality report are sampled (default:
    across the pulse window); g2 and `n_integral` depend on it only through
    the integrator stopping at its points in the window (< 1e-9 relative).
    """
    if observed is None:
        if "sigma" not in system.output_ops:
            raise ValueError("observed operator must be given for multilevel systems")
        observed = "sigma"
    eps = sensor.resolved_coupling(system.decay_scale)
    couplings = [eps, eps / 2.0] if check_convergence else [eps]
    extended = [
        attach_sensor(system, observed, replace(sensor, coupling=c)) for c in couplings
    ]
    # scaled so that the first system reads out n(t) and G2 themselves
    emit = sensor.bandwidth / (2.0 * eps) * extended[0].output_ops["sensor"]
    res = dynamics.emission_integrals(extended, emit, grid, cfg)

    n_integral = float(res.n_integral[0])
    if n_integral < ZERO_EMISSION_FLOOR:
        raise ZeroEmission(f"integrated filtered population {n_integral:.3e} below floor")

    g2 = res.pair_integral / res.n_integral**2
    converged = False
    g2_check = None
    if check_convergence:
        g2_check = float(g2[1])
        converged = abs(g2_check - g2[0]) <= EPSILON_CONVERGENCE * abs(g2[0])
        if not converged:
            raise NotConverged(float(g2[0]), g2_check)

    return FilteredStats(
        times=res.times,
        n_of_t=res.n_series[0],
        n_integral=n_integral,
        g2_numerator=float(res.pair_integral[0]),
        g2=float(g2[0]),
        epsilon_used=eps,
        converged=converged,
        g2_epsilon_check=g2_check,
        base_report=dynamics.physicality_report(Trajectory(res.times, res.states[0])),
    )


def unfiltered_g2_zero(
    system: SystemModel,
    emit="sigma",
    cfg: IntegratorConfig | None = None,
) -> float:
    """Unfiltered g2[0]: the bare-emitter pair integral normalized by the
    squared integrated population, both over all times."""
    if isinstance(emit, str):
        emit = system.output_ops[emit]
    res = dynamics.emission_integrals([system], emit, times=(), cfg=cfg)
    den = float(res.n_integral[0])
    if den < ZERO_EMISSION_FLOOR:
        raise ZeroEmission(f"integrated population {den:.3e} below floor")
    return float(res.pair_integral[0]) / den**2


def spectrum(
    system: SystemModel,
    observed,
    detunings,
    spec_bandwidth: float = 0.2,
    cfg: IntegratorConfig | None = None,
) -> SweepResult:
    """Peak-normalized emission spectrum: integrated sensor population versus
    filter center, probed with a narrow filter of width `spec_bandwidth`.

    The reported lineshape is the physical spectrum convolved with the
    Lorentzian sensor response of that width.
    """
    detunings = np.asarray(detunings, dtype=float)
    eps = 1e-3 * max(spec_bandwidth, system.decay_scale)
    extended = [
        attach_sensor(system, observed, SensorConfig(d, spec_bandwidth, eps, 2))
        for d in detunings
    ]
    intensities = dynamics.emission_integrals(
        extended, extended[0].output_ops["sensor"], times=(), cfg=cfg, pairs=False
    ).n_integral
    peak = float(np.max(intensities))
    if peak <= 0:
        raise ZeroEmission("no emission anywhere on the detuning grid")
    return SweepResult(
        axis=detunings,
        values=intensities / peak,
        metadata={
            "kind": "spectrum",
            "spec_bandwidth": spec_bandwidth,
            "epsilon": eps,
        },
    )


class SweepPointError(RuntimeError):
    """An inner computation failed; identifies the sweep point responsible."""

    def __init__(self, err, **context):
        self.context = context
        note = ", ".join(f"{k}={v:g}" for k, v in context.items())
        super().__init__(f"sweep point ({note}) failed: {err}")


def sweep_pulse_length(
    builder,
    tau_grid,
    filter_widths,
    theta: float = math.pi,
    cfg: IntegratorConfig | None = None,
    observed=None,
    sensor_detuning: float = 0.0,
    check_convergence: bool = True,
) -> dict[float, SweepResult]:
    """g2[0; Gamma] versus pulse length, one curve per filter width.

    `builder` maps a GaussianPulse to the bare SystemModel.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    results: dict[float, SweepResult] = {}
    for width in filter_widths:
        values, eps_used, conv = [], [], []
        for tau in tau_grid:
            system = builder(GaussianPulse(theta, float(tau)))
            sensor = SensorConfig(sensor_detuning, float(width))
            try:
                stats = filtered_g2_zero(
                    system, sensor, cfg, observed=observed,
                    check_convergence=check_convergence,
                )
            except Exception as err:  # identify the failing point
                raise SweepPointError(err, bandwidth=width, tau=tau) from err
            values.append(stats.g2)
            eps_used.append(stats.epsilon_used)
            conv.append(stats.converged)
        results[float(width)] = SweepResult(
            axis=tau_grid,
            values=np.array(values),
            metadata={"kind": "pulse_length_sweep", "bandwidth": float(width),
                      "theta": theta, "sensor_detuning": sensor_detuning},
            epsilon_used=np.array(eps_used),
            converged=np.array(conv),
        )
    return results


def sweep_filter_width(
    builder,
    gamma_grid,
    pulse_lengths,
    theta: float = math.pi,
    cfg: IntegratorConfig | None = None,
    observed=None,
    sensor_detuning: float = 0.0,
    check_convergence: bool = True,
) -> dict[float, SweepResult]:
    """g2[0; Gamma] versus filter width, one curve per pulse length."""
    gamma_grid = np.asarray(gamma_grid, dtype=float)
    results: dict[float, SweepResult] = {}
    for tau in pulse_lengths:
        system = builder(GaussianPulse(theta, float(tau)))
        values, eps_used, conv = [], [], []
        for width in gamma_grid:
            sensor = SensorConfig(sensor_detuning, float(width))
            try:
                stats = filtered_g2_zero(
                    system, sensor, cfg, observed=observed,
                    check_convergence=check_convergence,
                )
            except Exception as err:  # identify the failing point
                raise SweepPointError(err, bandwidth=width, tau=tau) from err
            values.append(stats.g2)
            eps_used.append(stats.epsilon_used)
            conv.append(stats.converged)
        results[float(tau)] = SweepResult(
            axis=gamma_grid,
            values=np.array(values),
            metadata={"kind": "filter_width_sweep", "pulse_length": float(tau),
                      "theta": theta, "sensor_detuning": sensor_detuning},
            epsilon_used=np.array(eps_used),
            converged=np.array(conv),
        )
    return results


def write_sweep_csv(path, result: SweepResult):
    eps = result.epsilon_used
    conv = result.converged
    with open(path, "w") as fh:
        fh.write("axis_value,g2,epsilon_used,converged\n")
        for i, (x, v) in enumerate(zip(result.axis, result.values)):
            e = "" if eps is None else f"{eps[i]:.9g}"
            c = "" if conv is None else str(bool(conv[i])).lower()
            fh.write(f"{x:.9g},{v:.12g},{e},{c}\n")


def write_spectrum_csv(path, result: SweepResult):
    with open(path, "w") as fh:
        fh.write("detuning_over_gamma,normalized_intensity\n")
        for x, v in zip(result.axis, result.values):
            fh.write(f"{x:.9g},{v:.12g}\n")


def write_metadata(path, metadata: dict):
    """JSON sidecar recording everything needed to reproduce a run."""
    with open(path, "w") as fh:
        json.dump(metadata, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")
