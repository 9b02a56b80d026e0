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
integrals covers the drive window [0, t0 + 8 tau], t0 = 4 tau the pulse
peak; after it the generator is constant and every tail is a resolvent
solve.  Error budget of g2:

- integrator tolerance: the commands' dynamics.DEFAULT_INTEGRATOR, rel_tol
  1e-9, against 1e-11 moves it by < 1e-9 on the two-level emitter (at most
  8.6e-11 measured for tau 0.02-0.2 and Gamma 0.05-20), and against
  rel_tol 1e-12, abs_tol 1e-16 by < 1e-9 on the figure sweeps (1.7e-11
  measured on sweep-filter, 3.1e-11 on sweep-pulse and 8.9e-11 on the
  exciton line's);
- drive cut-off: the drive past t0 + 8 tau (below e^-32 of its peak) is
  dropped; t0 + 10 tau moves the figure sweeps by < 1e-12 (1.6e-14
  measured; integrator stops that a `grid` adds inside the window move it
  too, filtered_g2_batch);
- sensor coupling: the eps-halving check below; halving eps moves the
  figure-default sweeps by < 3e-4 relative (2.94e-4 measured on
  sweep-filter at tau 0.02, Gamma = 100; 5.9e-5 on sweep-pulse and 6.0e-5
  on sweep-fourlevel);
- sensor truncation: the sweeps cut the sensor at 2 photons, the fewest a
  pair needs; a cut at 3 moves g2 by < 1e-8 at Gamma = 1 (6.5e-10 and
  7.7e-9 measured at tau 0.05 and 0.2) and < 3e-8 over Gamma 0.05-100
  (2.2e-8 at tau 0.2); 3e-12 on the exciton line.

A spectrum reads only the sensor population, a one-photon quantity, so its
sensor is cut at one photon: against two, the peak-normalized figure
spectra move by < 1e-8 (2.1e-9 at most, two-level tau 0.02-0.2 and the
exciton line).  Under a resonant drive the spectrum is mirror symmetric
about the laser, n(-Delta) = n(Delta) at any sensor coupling: a diagonal
sign matrix S with S conj(H) S = -H and S conj(L) S = +-L takes the
conjugated state at center Delta onto that at -Delta.  Where the model has
such an S, each +-Delta pair of filter centers is stepped once.  The same S
(dynamics.mirror_signs) fixes the state of a pass whose filter centers are
all at 0, as in the resonant sweeps: each coherence is then real or
imaginary, and the pass steps only that entry of each (Re, Im) pair.

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
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from . import dynamics
from .dynamics import IntegratorConfig
from .model import SensorConfig, SystemModel, attach_sensor

ZERO_EMISSION_FLOOR = 1e-12
EPSILON_CONVERGENCE = 5e-3
MAP_POINTS = 300
WINDOW_INTERVALS = 30
HORIZON_DECADES = 12.0
_CSV_CHUNK = 1 << 16  # map rows per formatted write


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
    point; `g2_epsilon_check` is g2 at eps/2, None when that check was not
    run (a failed check raises)."""

    n_integral: float
    g2: float
    epsilon_used: float
    g2_epsilon_check: float | None = None


def map_grid(system: SystemModel) -> np.ndarray:
    """Time grid of the g2map plot of the two-time correlation map, along
    both axes.

    The map ends at the horizon, the later of the pulse peak plus
    HORIZON_DECADES lifetimes (every emitter channel decays at rate 1, the
    time unit) and the drive cutoff t_c = drive_cutoff(pulse) = 12 tau (t_c
    for tau > 1.5, so the map holds the whole drive), and holds MAP_POINTS
    evenly spaced nodes.  The drive window [0, t_c] is where the
    multi-photon emission happens: where its WINDOW_INTERVALS even intervals
    (tau / 2.5 each) are finer than the map's (tau below about 0.104), they
    replace the map's nodes inside it.
    So the window is spaced at <= max(0.4 tau, horizon / 299), and a map has
    at most 330 nodes for any pulse length.
    """
    t_w = dynamics.drive_cutoff(system.pulse)
    t_end = max(system.pulse.offset + HORIZON_DECADES, t_w)
    grid = np.linspace(0.0, t_end, MAP_POINTS)
    window = np.linspace(0.0, t_w, WINDOW_INTERVALS + 1)
    if window[1] < grid[1]:
        grid = np.concatenate([window, grid[grid > t_w]])
    return grid


def filtered_g2_batch(
    system: SystemModel,
    sensors,
    pulses,
    cfg: IntegratorConfig | None = None,
    observed=None,
    check_convergence: bool = True,
    grid=(),
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
    pulse length, with the bare error as its cause.  `grid` (default none)
    only adds stops of the integrator, on the first pulse's time; g2 and
    `n_integral` depend on it only through the stops in the pulse window
    (< 1e-9 relative).  Raises ValueError for a sensor truncated below 2
    photons, which cannot hold a photon pair.
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
            raise SweepPointError(err, bandwidth=sensor.bandwidth, tau=pulse.length) from err
    return stats


def _point_stats(res: dynamics.EmissionIntegrals, b: int, eps: float,
                 check_convergence: bool) -> FilteredStats:
    """FilteredStats of the point whose eps system is entry b of `res` (and
    whose eps/2 system, with `check_convergence`, is entry b + 1)."""
    n_integral = float(res.n_integral[b])
    if n_integral < ZERO_EMISSION_FLOOR:
        raise ZeroEmission(f"integrated filtered population {n_integral:.3e} below floor")

    g2 = res.pair_integral / res.n_integral**2
    g2_check = None
    if check_convergence:
        g2_check = float(g2[b + 1])
        if abs(g2_check - g2[b]) > EPSILON_CONVERGENCE * abs(g2[b]):
            raise NotConverged(float(g2[b]), g2_check)

    return FilteredStats(n_integral=n_integral, g2=float(g2[b]), epsilon_used=eps,
                         g2_epsilon_check=g2_check)


def filtered_g2_zero(
    system: SystemModel,
    sensor: SensorConfig,
    cfg: IntegratorConfig | None = None,
    observed=None,
    grid=(),
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


def _mirror_symmetric(system: SystemModel, observed):
    """The signs of a diagonal sign matrix S with S conj(H) S = -H for
    h_static and h_drive of the bare emitter `system`, and S conj(L) S = +-L
    for every channel L and the output op `observed` O, or None
    (dynamics.mirror_signs; spectrum says why that makes its spectrum mirror
    symmetric).  S (x) (+-1)^n then does the same for the sensor attached
    at detuning 0, the sign per photon chosen so that the coupling
    O a^dag + h.c. turns sign."""
    return dynamics.mirror_signs([system.h_static, system.h_drive],
                                 [op for op, _ in system.channels] + [system.output_ops[observed]])


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
) -> np.ndarray:
    """Peak-normalized emission spectra, one row per pulse of `pulses` in
    place of the system's own and one column per center of `detunings`:
    integrated sensor population versus filter center, probed with a narrow
    filter of width `spec_bandwidth`.

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
    symmetric = _mirror_symmetric(system, observed) is not None
    mirrored = (detunings < 0) & mirrors.any(axis=1) & symmetric
    source = np.cumsum(~mirrored) - 1
    source[mirrored] = source[mirrors[mirrored].argmax(axis=1)]
    sensors = [SensorConfig(d, spec_bandwidth, truncation=1) for d in detunings[~mirrored]]
    models = _filter_batch(system, observed, sensors, pulses)
    intensities = dynamics.emission_integrals(
        models, models[0].output_ops["sensor"], cfg=cfg, pairs=False
    ).n_integral.reshape(len(pulses), -1)[:, source]
    peaks = np.max(intensities, axis=1, keepdims=True)
    if np.any(peaks <= 0):
        raise ZeroEmission("no emission anywhere on the detuning grid")
    return intensities / peaks


def write_sweep_csv(path, axis, stats):
    """One swept curve: the axis value, g2 and coupling of each point's
    FilteredStats."""
    with open(path, "w") as fh:
        fh.write("axis_value,g2,epsilon_used\n")
        for x, st in zip(axis, stats):
            fh.write(f"{x:.9g},{st.g2:.12g},{st.epsilon_used:.9g}\n")


def write_g2map_csv(path, times, values):
    """The (n, n) map `values` on `times` along both axes as a row-major
    (t1, t2, value) CSV; first line names the time unit.  Each time is
    formatted once, into the template of its lines; one formatted write of
    the values per chunk of t1 rows."""
    # joined by a row's "t1," this list puts that t1 in front of every line
    tails = ["", *("%.9g," % t + "%.12g\n" for t in times)]
    n = len(times)
    values = np.reshape(values, (n, n))
    step = max(1, _CSV_CHUNK // len(tails))
    with open(path, "w") as fh:
        fh.write("# time_unit=1/gamma_sigma\n")
        fh.write("t1,t2,value\n")
        for start in range(0, n, step):
            chunk = times[start:start + step]
            template = "".join(("%.9g," % t).join(tails) for t in chunk)
            fh.write(template % tuple(values[start:start + step].ravel().tolist()))


def write_spectrum_csv(path, detunings, values):
    """One spectrum: each filter center of `detunings` and its value."""
    with open(path, "w") as fh:
        fh.write("detuning_over_gamma,normalized_intensity\n")
        for x, v in zip(detunings, values):
            fh.write(f"{x:.9g},{v:.12g}\n")
