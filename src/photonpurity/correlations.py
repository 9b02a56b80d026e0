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

- integrator tolerance: rel_tol 1e-9 against 1e-11 moves it by < 1e-9 on
  the two-level emitter (at most 8.6e-11 measured for tau 0.02-0.2 and
  Gamma 0.05-20), and against rel_tol 1e-12, abs_tol 1e-16 by < 1e-9 on
  the figure sweeps (1.7e-11 measured on sweep-filter, 3.1e-11 on
  sweep-pulse and 8.9e-11 on the exciton line's);
- drive cut-off: the drive past t0 + 8 tau (below e^-32 of its peak) is
  dropped; t0 + 10 tau moves the figure sweeps by < 1e-12 (1.6e-14
  measured; a point sampled across the window also moves with its sample
  times, filtered_g2_batch);
- sensor coupling: the eps-halving check below; halving eps moves the
  figure-default sweeps by < 3e-4 relative (2.94e-4 measured on
  sweep-filter at tau 0.02, Gamma = 100; 5.9e-5 on sweep-pulse and 6.0e-5
  on sweep-fourlevel);
- sensor truncation: 2 against 3 photons, < 1e-8 at Gamma = 1 (6.5e-10
  and 7.7e-9 measured at tau 0.05 and 0.2) and < 3e-8 over Gamma
  0.05-100 (2.2e-8 at tau 0.2); 3e-12 on the exciton line.

A spectrum reads only the sensor population, a one-photon quantity, so its
sensor is cut at one photon: against two, the peak-normalized figure
spectra move by < 1e-8 (2.1e-9 at most, two-level tau 0.02-0.2 and the
exciton line).  Under a resonant drive the spectrum is mirror symmetric
about the laser, n(-Delta) = n(Delta) at any sensor coupling: a diagonal
sign matrix S with S conj(H) S = -H and S conj(L) S = +-L takes the
conjugated state at center Delta onto that at -Delta.  Where the model has
such an S, each +-Delta pair of filter centers is stepped once.

Every reported g2 can be cross-checked by halving the sensor coupling; the
two systems are integrated in one batch so the check costs little.

All the points that share a pulse (every filter width of a sweep curve, each
at eps and eps/2) are one batch too (filtered_g2_batch): one pass over the
pulse window serves them all.  The batch shares its adaptive steps, and the
step control measures the error of the whole batch, so a point's value
depends on its batch-mates within the error budget (measured < 1e-8
relative against the point alone).
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import dynamics
from .dynamics import IntegratorConfig, PhysicalityReport
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

    def __reduce__(self):
        return NotConverged, (self.g2, self.g2_check)


class ZeroEmission(RuntimeError):
    """No emission reaches the detector; g2 is undefined (0/0)."""


class SweepPointError(RuntimeError):
    """An inner computation failed; identifies the sweep point responsible."""

    def __init__(self, err, **context):
        self.context = context
        self.reason = str(err)
        note = ", ".join(f"{k}={v:g}" for k, v in context.items())
        super().__init__(f"sweep point ({note}) failed: {err}")

    def __reduce__(self):  # a worker process sends it back without its cause
        return partial(SweepPointError, **self.context), (self.reason,)


@dataclass
class FilteredStats:
    """Time-integrated filtered population and two-photon statistics of one
    point, with the physicality report of the states the pass sampled."""

    n_integral: float
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


def filtered_g2_batch(
    system: SystemModel,
    sensors,
    cfg: IntegratorConfig | None = None,
    observed=None,
    check_convergence: bool = True,
    grid=None,
) -> list[FilteredStats]:
    """g2[0; Gamma] of `observed` emission from `system` for each sensor of
    `sensors`, all integrated as one batch over the pulse window.

    `system` is the bare emitter; each sensor is attached here (twice when
    `check_convergence`, at its eps and eps/2).  Each point reads out its
    own n(t) and G2 with its own Gamma / (2 eps) scale.  A point whose two
    couplings disagree by more than 0.5% (NotConverged) or whose integrated
    filtered population is below 1e-12 (ZeroEmission) raises SweepPointError
    naming its bandwidth and pulse length, with the bare error as its cause.
    `grid` only sets where the physicality report (`base_report`) is
    sampled (default: across the pulse window; an empty grid samples
    nothing and leaves it None); g2 and `n_integral` depend on it only
    through the integrator stopping at its points in the window (< 1e-9
    relative).  Raises ValueError for a sensor truncated
    below 2 photons, which cannot hold a photon pair.
    """
    for sensor in sensors:
        if sensor.truncation < 2:
            raise ValueError(f"sensor truncation {sensor.truncation} (bandwidth "
                             f"{sensor.bandwidth:g}): two-photon statistics need >= 2")
    if observed is None:
        if "sigma" not in system.output_ops:
            raise ValueError("observed operator must be given for multilevel systems")
        observed = "sigma"
    halvings = (1.0, 2.0) if check_convergence else (1.0,)
    couplings = [sensor.resolved_coupling(system.decay_scale) for sensor in sensors]
    extended, emit = [], []
    for sensor, eps in zip(sensors, couplings):
        for k in halvings:
            extended.append(attach_sensor(system, observed, replace(sensor, coupling=eps / k)))
            # scaled so that the eps system reads out n(t) and G2 themselves
            emit.append(sensor.bandwidth / (2.0 * eps) * extended[-1].output_ops["sensor"])
    res = dynamics.emission_integrals(extended, np.array(emit), grid, cfg)

    stats = []
    for i, (sensor, eps) in enumerate(zip(sensors, couplings)):
        b = i * len(halvings)
        try:
            stats.append(_point_stats(res, b, eps, check_convergence))
        except (NotConverged, ZeroEmission) as err:
            context = {"bandwidth": sensor.bandwidth}
            if system.pulse is not None:
                context["tau"] = system.pulse.length
            raise SweepPointError(err, **context) from err
    return stats


def _point_stats(res: dynamics.EmissionIntegrals, b: int, eps: float,
                 check_convergence: bool) -> FilteredStats:
    """FilteredStats of the point whose eps system is entry b of `res` (and
    whose eps/2 system, with `check_convergence`, is entry b + 1)."""
    n_integral = float(res.n_integral[b])
    if n_integral < ZERO_EMISSION_FLOOR:
        raise ZeroEmission(f"integrated filtered population {n_integral:.3e} below floor")

    g2 = res.pair_integral / res.n_integral**2
    converged = False
    g2_check = None
    if check_convergence:
        g2_check = float(g2[b + 1])
        converged = abs(g2_check - g2[b]) <= EPSILON_CONVERGENCE * abs(g2[b])
        if not converged:
            raise NotConverged(float(g2[b]), g2_check)

    return FilteredStats(
        n_integral=n_integral,
        g2=float(g2[b]),
        epsilon_used=eps,
        converged=converged,
        g2_epsilon_check=g2_check,
        base_report=dynamics.physicality_report(res.states[b]) if len(res.times) else None,
    )


def filtered_g2_zero(
    system: SystemModel,
    sensor: SensorConfig,
    cfg: IntegratorConfig | None = None,
    observed=None,
    grid=None,
    check_convergence: bool = True,
) -> FilteredStats:
    """Time-integrated g2[0; Gamma] of `observed` emission from `system`:
    filtered_g2_batch with the one sensor, raising its NotConverged or
    ZeroEmission bare."""
    try:
        (stats,) = filtered_g2_batch(system, [sensor], cfg, observed, check_convergence, grid)
    except SweepPointError as err:
        raise err.__cause__ from None
    return stats


def _mirror_symmetric(model: SystemModel) -> bool:
    """Whether a diagonal sign matrix S (entries +-1) gives S conj(H) S = -H
    for h_static and h_drive, and S conj(L) S = +-L for every channel
    operator L and the read-out "sensor" of `model` (spectrum says why that
    makes its spectrum mirror symmetric).  The signs come from a walk over
    the non-zeros of h_static + h_drive, a real entry giving its two states
    opposite signs, any other the same; every condition is then checked
    exactly, so a model without such an S reads False."""
    hams = [model.h_static] + ([] if model.h_drive is None else [model.h_drive])
    h = sum(hams)
    signs = np.zeros(model.dimension)
    for root in range(model.dimension):
        if signs[root]:
            continue
        signs[root] = 1.0
        stack = [root]
        while stack:
            i = stack.pop()
            for j in np.flatnonzero(h[i]):
                if not signs[j]:
                    signs[j] = -signs[i] if h[i, j].imag == 0 else signs[i]
                    stack.append(j)

    def mirror(op):
        return signs[:, None] * op.conj() * signs

    ops = [op for op, _ in model.channels] + [model.output_ops["sensor"]]
    return (all(np.array_equal(mirror(ham), -ham) for ham in hams)
            and all(np.array_equal(mirror(op), op) or np.array_equal(mirror(op), -op)
                    for op in ops))


def _spectrum_batch(system: SystemModel, observed, detunings,
                    spec_bandwidth: float) -> tuple[list[SystemModel], np.ndarray]:
    """The sensor-extended models a spectrum steps, one per filter center it
    steps, and for each center of `detunings` the index of the model whose
    intensity it reads.

    The spectrum reads only the sensor population, so the sensor is cut at
    one photon, and it is attached once, at detuning 0; center Delta adds
    Delta I kron a^dag a to its h_static, which is what attach_sensor at
    Delta builds.  A real diagonal shift keeps h_static Hermitian, so the
    shifted models are copies of the attached one that skip its checks and
    share its drive and channel arrays.  Where the attached model is mirror
    symmetric (_mirror_symmetric), a center -Delta < 0 whose mirror Delta is
    on the grid (an exact match) reads the intensity of Delta and is not
    stepped."""
    base = attach_sensor(system, observed, SensorConfig(0.0, spec_bandwidth, truncation=1))
    mirrors = detunings[:, None] == -detunings  # [i, j]: center j mirrors center i
    mirrored = np.zeros(len(detunings), dtype=bool)
    if _mirror_symmetric(base):
        mirrored = (detunings < 0) & mirrors.any(axis=1)
    source = np.cumsum(~mirrored) - 1
    source[mirrored] = source[mirrors[mirrored].argmax(axis=1)]
    a = base.output_ops["sensor"]
    number = a.conj().T @ a
    batch = []
    for d in detunings[~mirrored]:
        shifted = copy.copy(base)
        object.__setattr__(shifted, "h_static", base.h_static + d * number)
        object.__setattr__(shifted, "sensor", replace(base.sensor, detuning=float(d)))
        batch.append(shifted)
    return batch, source


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
    Lorentzian sensor response of that width.  Every filter center it steps
    is one system of a single emission_integrals batch without pairs; the
    batch is one sensor attach, at the default coupling and cut at one
    photon, shifted per center (_spectrum_batch).  Against rel_tol 1e-12,
    abs_tol 1e-16 the figure spectra move by < 1e-12 of the peak (1.0e-13
    measured, the last digit the CSV prints).

    Under a resonant drive each +-Delta pair of the grid is stepped once.
    With a real drive amplitude, the sign matrix S of _mirror_symmetric and
    a real diagonal N = a^dag a, S conj(rho(t)) S solves the dynamics of
    h_static - Delta N from the ground state when rho(t) solves those of
    h_static + Delta N, and <a^dag a> is the same for both: n(-Delta) =
    n(Delta) at any sensor coupling.  A detuned emitter or the biexciton
    ladder has no such S and steps every center.  Raises ValueError for an
    empty `detunings`.
    """
    detunings = np.asarray(detunings, dtype=float)
    if len(detunings) == 0:
        raise ValueError("detunings: a spectrum needs at least one filter center")
    extended, source = _spectrum_batch(system, observed, detunings, spec_bandwidth)
    intensities = dynamics.emission_integrals(
        extended, extended[0].output_ops["sensor"], times=(), cfg=cfg, pairs=False
    ).n_integral[source]
    peak = float(np.max(intensities))
    if peak <= 0:
        raise ZeroEmission("no emission anywhere on the detuning grid")
    return SweepResult(axis=detunings, values=intensities / peak)


def _sweep_group(task):
    """filtered_g2_batch over the sensors of one pulse (a process-pool task),
    sampled only at the drive cutoff t_c: a point's `base_report` is that
    of the state there.  A failure of the whole batch names the pulse
    length."""
    system, sensors, cfg, observed, check_convergence = task
    try:
        return filtered_g2_batch(system, sensors, cfg, observed, check_convergence,
                                 grid=(dynamics.drive_cutoff(system.pulse),))
    except SweepPointError:
        raise
    except RuntimeError as err:  # e.g. StepSizeUnderflow
        raise SweepPointError(err, tau=system.pulse.length) from err


def sweep_grid(
    builder,
    tau_grid,
    filter_widths,
    theta: float = math.pi,
    cfg: IntegratorConfig | None = None,
    observed=None,
    sensor: SensorConfig = SensorConfig(),
    check_convergence: bool = True,
    jobs: int = 1,
) -> list[list[FilteredStats]]:
    """Filtered g2 at every (pulse length, filter width): stats[i][j] for
    tau_grid[i] and filter_widths[j].

    `builder` maps a GaussianPulse to the bare SystemModel; `sensor` gives the
    detuning, coupling and truncation, and its bandwidth is swept.  The
    points of one pulse length are one filtered_g2_batch, so a point's value
    depends on its batch-mates within the error budget.  With `jobs` > 1 the
    pulse lengths are spread over that many worker processes.
    """
    sensors = [replace(sensor, bandwidth=float(w)) for w in filter_widths]
    tasks = [(builder(GaussianPulse(theta, float(tau))), sensors, cfg, observed, check_convergence)
             for tau in tau_grid]
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            return list(pool.map(_sweep_group, tasks))
    return [_sweep_group(task) for task in tasks]


def write_sweep_csv(path, axis, stats):
    """One swept curve: the axis value, g2, coupling and convergence flag of
    each point's FilteredStats."""
    with open(path, "w") as fh:
        fh.write("axis_value,g2,epsilon_used,converged\n")
        for x, st in zip(axis, stats):
            converged = str(bool(st.converged)).lower()
            fh.write(f"{x:.9g},{st.g2:.12g},{st.epsilon_used:.9g},{converged}\n")


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
