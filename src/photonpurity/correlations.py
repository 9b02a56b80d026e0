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

All the points of a command (every filter width at every pulse length, each
at eps and at eps/2 for the eps-halving check; or every center of a
spectrum at every pulse length) are the systems of one pass, which
_filter_batch builds: one attach_sensor per distinct filter shape
(bandwidth, coupling, truncation), a shift Delta a^dag a of its h_static per
filter center, and a copy per pulse, stepped on that pulse's own clock.  So
the eps-halving check costs little.  The batch shares its adaptive steps,
and the step control measures the error of the whole batch, so a point's
value depends on its batch-mates within the error budget (< 1e-9 relative
against the point alone; 1.2e-10, 1.4e-10 and 2.2e-12 at most on the
figure sweep-filter, sweep-pulse and sweep-fourlevel).
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from . import dynamics
from .dynamics import IntegratorConfig, PhysicalityReport
from .model import SensorConfig, SystemModel, _resolve_observed, attach_sensor

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


class SweepPointError(RuntimeError):
    """An inner computation failed; names the sweep point responsible, or
    the pulse lengths of a pass that failed as a whole."""

    def __init__(self, err, **context):  # a value is a number or a list of numbers
        self.context = context
        note = ", ".join(f"{k}={v:g}" if np.ndim(v) == 0 else
                         f"{k}=[{', '.join(f'{x:g}' for x in v)}]" for k, v in context.items())
        super().__init__(f"sweep point ({note}) failed: {err}")


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
    pulses,
    cfg: IntegratorConfig | None = None,
    observed=None,
    check_convergence: bool = True,
    grid=None,
) -> list[list[FilteredStats]]:
    """g2[0; Gamma] of `observed` emission from the bare emitter `system`
    for each sensor of `sensors` at each pulse of `pulses` in place of its
    own: stats[i][j] for pulses[i] and sensors[j], all one pass.

    Each sensor is a system at its eps and, with `check_convergence`, at
    eps/2 (_filter_batch); each point reads out its own n(t) and G2 with its
    own Gamma / (2 eps) scale.  A point whose two couplings disagree by more
    than 0.5% (NotConverged) or whose integrated filtered population is
    below 1e-12 (ZeroEmission) raises SweepPointError naming its bandwidth
    and pulse length, a failed pass (StepSizeUnderflow) one naming every
    pulse length, with the bare error as its cause.  `grid` only sets where
    the physicality report (`base_report`) is sampled, on the first pulse's
    time (default: across the pulse window; an empty grid leaves it None);
    g2 and `n_integral` depend on it only through the integrator stopping at
    its points in the window (< 1e-9 relative).  Raises ValueError for a
    sensor truncated below 2 photons, which cannot hold a photon pair.
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
    # each twin scaled so that the eps one reads out n(t) and G2 themselves
    twins = [(replace(s, coupling=eps / k), s.bandwidth / (2.0 * eps))
             for s, eps in zip(sensors, couplings) for k in halvings]
    models = _filter_batch(system, observed, [twin for twin, _ in twins], pulses)
    emit = [scale * model.output_ops["sensor"] for (_, scale), model in zip(twins, models)]
    try:
        res = dynamics.emission_integrals(models, np.array(emit * len(pulses)), grid, cfg)
    except dynamics.StepSizeUnderflow as err:
        raise SweepPointError(err, tau=[pulse.length for pulse in pulses]) from err

    stats = [[] for _ in pulses]
    for i, (pulse, (sensor, eps)) in enumerate(product(pulses, zip(sensors, couplings))):
        try:
            stats[i // len(sensors)].append(
                _point_stats(res, i * len(halvings), eps, check_convergence))
        except (NotConverged, ZeroEmission) as err:
            tau = {} if pulse is None else {"tau": pulse.length}
            raise SweepPointError(err, bandwidth=sensor.bandwidth, **tau) from err
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
    filtered_g2_batch with the one sensor at the system's own pulse, raising
    its NotConverged, ZeroEmission or StepSizeUnderflow bare."""
    try:
        ((stats,),) = filtered_g2_batch(system, [sensor], [system.pulse], cfg, observed,
                                        check_convergence, grid)
    except SweepPointError as err:
        raise err.__cause__ from None
    return stats


def _mirror_symmetric(system: SystemModel, observed) -> bool:
    """Whether a diagonal sign matrix S (entries +-1) gives S conj(H) S = -H
    for h_static and h_drive of the bare emitter `system`, and S conj(L) S =
    +-L for every channel L and the resolved `observed` O (spectrum says why
    that makes its spectrum mirror symmetric).  S (x) (+-1)^n then does the
    same for the sensor attached at detuning 0, the sign per photon chosen
    so that the coupling O a^dag + h.c. turns sign.  The signs come from a
    walk over the non-zeros of h_static + h_drive, a real entry giving its
    two states opposite signs, any other the same; every condition is then
    checked exactly, so a model without such an S reads False."""
    hams = [system.h_static] + ([] if system.h_drive is None else [system.h_drive])
    h = sum(hams)
    signs = np.zeros(system.dimension)
    for root in range(system.dimension):
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

    ops = [op for op, _ in system.channels] + [_resolve_observed(system, observed)]
    return (all(np.array_equal(mirror(ham), -ham) for ham in hams)
            and all(np.array_equal(mirror(op), op) or np.array_equal(mirror(op), -op)
                    for op in ops))


def _copy_with(model: SystemModel, **fields) -> SystemModel:
    """A copy of `model` with `fields` set, unchecked, sharing its arrays."""
    out = copy.copy(model)
    for name, value in fields.items():
        object.__setattr__(out, name, value)
    return out


def _filter_batch(system: SystemModel, observed, sensors, pulses):
    """The systems of one pass, each pulse of `pulses` with each sensor of
    `sensors` (pulse-major), copied from one attach_sensor at detuning 0 per
    distinct (bandwidth, resolved coupling, truncation).

    A sensor at Delta adds Delta a^dag a to h_static, bit for bit what
    attach_sensor at Delta builds (a^dag a is diagonal, the coupling off
    it).  That keeps h_static Hermitian, so each system is an unchecked copy
    sharing its model's other arrays, with the pulse in place of its own."""
    attached, shifted = {}, []
    for sensor in sensors:
        shape = (sensor.bandwidth, sensor.resolved_coupling(system.decay_scale), sensor.truncation)
        if shape not in attached:
            base = attach_sensor(system, observed, SensorConfig(0.0, *shape))
            a = base.output_ops["sensor"]
            attached[shape] = base, a.conj().T @ a
        base, number = attached[shape]
        shifted.append((base, base.h_static + sensor.detuning * number))
    return [_copy_with(base, h_static=h, pulse=pulse) for pulse in pulses for base, h in shifted]


def spectrum(
    system: SystemModel,
    observed,
    detunings,
    pulses,
    spec_bandwidth: float = 0.2,
    cfg: IntegratorConfig | None = None,
) -> list[SweepResult]:
    """Peak-normalized emission spectra, one per pulse of `pulses` in place
    of the system's own: integrated sensor population versus filter center,
    probed with a narrow filter of width `spec_bandwidth`.

    The reported lineshape is the physical spectrum convolved with the
    Lorentzian sensor response of that width.  The stepped centers at all
    pulses are the systems of one pass without pairs, each sensor at the
    default coupling and cut at one photon (_filter_batch: one attach).
    Against rel_tol 1e-12, abs_tol 1e-16 the figure spectra move by < 1e-12
    of the peak (1.0e-13 measured, the last digit the CSV prints).

    Under a resonant drive each +-Delta pair of the grid is stepped once.
    With a real drive amplitude, the sign matrix S of _mirror_symmetric
    (carried over to the attached sensor) and a real diagonal N = a^dag a,
    S conj(rho(t)) S solves the dynamics of h_static - Delta N from the
    ground state when rho(t) solves those of h_static + Delta N, and
    <a^dag a> is the same for both: n(-Delta) = n(Delta) at any sensor
    coupling.  So where the emitter and its observed operator are mirror
    symmetric, a center -Delta < 0 whose exact mirror Delta is on the grid
    reads the intensity of Delta, and no system is built for it.  A detuned
    emitter or the biexciton ladder has no such S.  Raises ValueError for an
    empty `detunings` or `pulses`.
    """
    detunings = np.asarray(detunings, dtype=float)
    if len(detunings) == 0 or len(pulses) == 0:
        raise ValueError("detunings, pulses: a spectrum needs a filter center and a pulse")
    mirrors = detunings[:, None] == -detunings  # [i, j]: center j mirrors center i
    mirrored = (detunings < 0) & mirrors.any(axis=1) & _mirror_symmetric(system, observed)
    source = np.cumsum(~mirrored) - 1
    source[mirrored] = source[mirrors[mirrored].argmax(axis=1)]
    sensors = [SensorConfig(d, spec_bandwidth, truncation=1) for d in detunings[~mirrored]]
    models = _filter_batch(system, observed, sensors, pulses)
    intensities = dynamics.emission_integrals(
        models, models[0].output_ops["sensor"], times=(), cfg=cfg, pairs=False
    ).n_integral.reshape(len(pulses), -1)[:, source]
    peaks = np.max(intensities, axis=1, keepdims=True)
    if np.any(peaks <= 0):
        raise ZeroEmission("no emission anywhere on the detuning grid")
    return [SweepResult(axis=detunings, values=row) for row in intensities / peaks]


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
