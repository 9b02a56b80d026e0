"""Master-equation propagation, emission integrals and two-time correlation maps.

Density matrices are plain complex ndarrays.  The integrator works in the
co-rotating frame of the diagonal of the static Hamiltonian, which removes
fast detuning/sensor phase rotation from the state; all stored states and
readouts are transformed back to the laser rotating frame, so expectation
values of arbitrary operators remain correct.

One stepper, an embedded Dormand-Prince 4(5) pair, integrates the driven
stretch.  Its right-hand side is a few batched matmuls, so many systems (a
detuning sweep, or every filter width of a pulse with its eps-halving pair)
and several rows per system step in lockstep.  Every row it carries is
Hermitian, so the Hamiltonian part -i (H rho - rho H^dag) is A + A^dag with
A = -i H rho, one matmul instead of two.

One sampler, `_walk`, drives the stepper through a sorted list of stop
times: it caps the step inside the pulse window, carries the step size and
the first-same-as-last derivative from stop to stop, and yields the state at
each stop.  propagate, emission_series and the window pass of
emission_integrals iterate it.  Past the drive cutoff t_c the generator is
constant and the lab-frame Liouvillian L0 gives closed forms:
emission_integrals carries one or two rows per system and the scalar time
integrals its tails read over the pulse window, and closes the tails with a
resolvent, one batched numpy.linalg.solve over the stack of deflated
generators of each group of systems (groups of at most _TAIL_GROUP_BYTES of
stack); two_time_g2_map chains per-interval propagators, DP45 on a
Hermitian basis inside the window and expm(L0 h) after it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import HERMITICITY_TOL, SystemModel


class StepSizeUnderflow(RuntimeError):
    """Adaptive step control could not meet the tolerance."""


class NonPhysicalState(RuntimeError):
    """A propagated density matrix developed a significantly negative eigenvalue."""


class DimensionMismatch(ValueError):
    pass


class BatchMismatch(ValueError):
    """Systems integrated as one batch differ in drive or channel operators."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Settings of the adaptive Dormand-Prince 4(5) integrator.

    Steps are accepted when the RMS of the embedded error estimate, scaled
    by abs_tol + rel_tol |y|, is at most 1.  At least MIN_STEPS_PER_PULSE
    steps are forced across the pulse window [t0 - 4 tau, t0 + 4 tau] so
    narrow pulses are never stepped over.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-13
    max_step: float = np.inf

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be > 0")


DEFAULT_INTEGRATOR = IntegratorConfig()
MIN_STEPS_PER_PULSE = 50

_CSV_CHUNK = 1 << 16    # map rows per formatted write
_TAIL_GROUP_BYTES = 1 << 20    # generator stack per batched tail solve


@dataclass
class Trajectory:
    """Times (strictly increasing) and the density matrix at each time."""

    times: np.ndarray
    states: np.ndarray  # (n_times, dim, dim) complex

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("trajectory times must be strictly increasing")


@dataclass
class PhysicalityReport:
    max_trace_drift: float
    max_hermiticity_violation: float
    min_eigenvalue: float


@dataclass
class CorrelationGrid:
    """Two-time second-order correlation values on a (t1, t2) grid."""

    t1: np.ndarray
    t2: np.ndarray
    values: np.ndarray  # (len(t1), len(t2)) real

    def to_csv(self, path):
        """Row-major (t1, t2, value) CSV; first line names the time unit.
        One formatted write per chunk of rows."""
        t1, t2 = np.meshgrid(self.t1, self.t2, indexing="ij")
        rows = np.column_stack((t1.ravel(), t2.ravel(), np.ravel(self.values)))
        with open(path, "w") as fh:
            fh.write("# time_unit=1/gamma_sigma\n")
            fh.write("t1,t2,value\n")
            for start in range(0, len(rows), _CSV_CHUNK):
                chunk = rows[start:start + _CSV_CHUNK]
                fh.write("%.9g,%.9g,%.12g\n" * len(chunk) % tuple(chunk.ravel().tolist()))


# Dormand-Prince 4(5) tableau (FSAL).
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
_DP_E = _DP_B5 - _DP_B4

_MIN_REL_STEP = 1e-14
_MAX_REJECTS = 60
# Largest d^2 whose shared jump superoperator is applied dense.  At d^2 = 36
# (two-level emitter plus sensor, 25 non-zeros of 1296) the dense product is
# the faster one in context, the 161-detuning spectrum batch.  At d^2 = 144
# (biexciton plus sensor, 100 non-zeros of 20736) the sparse product is 4x
# faster than the dense one on 4-36 rows.
DENSE_JUMP_MAX_DIM2 = 64


class _Generator:
    """Batched Lindblad generator for B systems sharing drive and channel
    operators; rates and h_static may differ per system.  Each system is
    integrated in the co-rotating frame of the diagonal of its h_static.

    States have shape (B, R, d, d), and every row is Hermitian (a density
    matrix, a collapsed row, or a Hermitian basis matrix).  The right-hand
    side -i (H_eff rho - rho H_eff^dag) + sum_k L_k rho L_k^dag, with the
    non-Hermitian H_eff = H - (i/2) sum_k L_k^dag L_k and L_k = sqrt(rate) C_k,
    is then A + A^dag + J rho with A = -i H_eff rho: one batched d x d matmul
    and the jump term, whose superoperator J = sum_k L_k kron conj(L_k) has
    O(d^2) non-zeros out of d^4.  A batch that shares one small J
    (d^2 <= DENSE_JUMP_MAX_DIM2) applies it as one dense
    (B R, d^2) @ (d^2, d^2) matmul; any other batch applies the
    block-diagonal sparse matrix of its per-system J.
    """

    def __init__(self, systems):
        if len(systems) == 0:
            raise ValueError("a batch needs at least one system")
        first = systems[0]
        self.dim = first.dimension
        self.nbatch = len(systems)
        d = self.dim

        self.pulse = first.pulse
        self.h_drive = None
        if first.h_drive is not None and self.pulse is not None and self.pulse.area > 0:
            self.h_drive = np.asarray(first.h_drive, dtype=complex)

        hs = np.empty((self.nbatch, d, d), dtype=complex)
        for b, sys_b in enumerate(systems):
            if sys_b.dimension != d:
                raise DimensionMismatch("batched systems must share the Hilbert-space dimension")
            if not _same_drive_and_channels(first, sys_b):
                raise BatchMismatch("batched systems must share the drive and the channel operators")
            hs[b] = sys_b.h_static
        frame = np.real(np.diagonal(hs, axis1=1, axis2=2))
        self.h_static = hs
        self.h_resid = hs - frame[:, :, None] * np.eye(d)[None, :, :]
        self.frame = frame
        self.rotating = bool(np.any(frame != frame[:, :1]))
        self._phase_t, self._phase = None, None

        self.jumps = np.array(
            [[np.sqrt(rate) * np.asarray(op, dtype=complex) for op, rate in sys_b.channels]
             for sys_b in systems], dtype=complex,
        ).reshape(self.nbatch, len(first.channels), d, d)
        self.decay = np.array(
            [-0.5j * sum((j.conj().T @ j for j in js), np.zeros((d, d))) for js in self.jumps]
        )
        rates = [[rate for _, rate in sys_b.channels] for sys_b in systems]
        self.jump_super_t = self.jump_blocks = None
        if d * d <= DENSE_JUMP_MAX_DIM2 and all(r == rates[0] for r in rates):
            self.jump_super_t = np.ascontiguousarray(self.jump_supers(slice(0, 1))[0].T)
        else:
            from scipy import sparse

            self.jump_blocks = sparse.block_diag(
                [sparse.csr_matrix(self.jump_supers(slice(b, b + 1))[0])
                 for b in range(self.nbatch)],
                format="csr",
            )

    def jump_supers(self, group=slice(None)):
        """Jump superoperators sum_k L_k kron conj(L_k) of the systems that the
        slice `group` selects, as a new (g, d^2, d^2) array."""
        d2 = self.dim * self.dim
        size = len(range(self.nbatch)[group])
        if self.jump_super_t is not None:
            return np.repeat(self.jump_super_t.T[None], size, axis=0)
        out = np.zeros((size, self.dim, self.dim, self.dim, self.dim), dtype=complex)
        for j in self.jumps[group].swapaxes(0, 1):  # one channel of every system
            conj = j.conj()[:, :, None, :]
            for i in range(self.dim):  # block row i: no temporary of the stack's size
                out[:, i] += j[:, i, None, :, None] * conj
        return out.reshape(size, d2, d2)

    def phases(self, t):
        """Elementwise frame phases exp(i t (D_m - D_n)) per batch entry.  The
        last time's phases are kept: one right-hand side evaluation, and the
        frame changes around it, ask for the same t."""
        if t != self._phase_t:
            v = np.exp(1j * t * self.frame)
            self._phase_t, self._phase = t, v[:, :, None] * v.conj()[:, None, :]
        return self._phase

    def to_frame(self, t, rho):
        if not self.rotating:
            return rho
        return self.phases(t)[:, None, :, :] * rho

    def to_lab(self, t, rho):
        if not self.rotating:
            return rho
        return np.conj(self.phases(t))[:, None, :, :] * rho

    def op_in_frame(self, t, op):
        """Operator `op`, (d, d) or one per system (B, d, d), transformed into
        the frame at time t, per batch."""
        if not self.rotating:
            return np.broadcast_to(op, self.h_static.shape)
        return self.phases(t) * op

    def _hamiltonian_frame(self, t):
        h = self.h_resid
        if self.h_drive is not None:
            h = h + float(self.pulse.amplitude(t)) * self.h_drive
        if self.rotating:
            h = self.phases(t) * h
        return h

    def rhs(self, t, y):
        """d rho / dt for Hermitian rows y of shape (B, R, d, d), in the
        rotating frame."""
        minus_i_heff = -1j * (self._hamiltonian_frame(t) + self.decay)[:, None]
        b, r, d2 = y.shape[0], y.shape[1], self.dim * self.dim
        if self.jump_blocks is None:
            out = (y.reshape(b * r, d2) @ self.jump_super_t).reshape(y.shape)
        else:  # columns (system, vec index) x rows
            cols = y.reshape(b, r, d2).transpose(0, 2, 1).reshape(b * d2, r)
            out = (self.jump_blocks @ cols).reshape(b, d2, r).transpose(0, 2, 1).reshape(y.shape)
        a = minus_i_heff @ y
        out += a
        out += a.conj().swapaxes(2, 3)
        return out

    def lab_liouvillian(self, group=slice(None)):
        """Drive-free lab-frame generators of the systems that the slice
        `group` selects, a (g, d^2, d^2) stack on row-major vec(rho):
        vec(A rho B) = (A kron B^T) vec(rho).  The Hamiltonian terms are added
        in place, so the stack is the one array of its size."""
        d = self.dim
        heff = self.h_static[group] + self.decay[group]
        l0 = self.jump_supers(group)
        blocks = l0.reshape(len(heff), d, d, d, d)
        for j in range(d):
            blocks[:, :, j, :, j] += -1j * heff  # -i heff kron I
            blocks[:, j, :, j, :] += 1j * heff.conj()  # i I kron heff^*
        return l0


def _same_drive_and_channels(a: SystemModel, b: SystemModel) -> bool:
    """Do two systems share the pulse, the drive operator and the channel
    operators (their rates may differ)?"""
    if a.pulse != b.pulse or (a.h_drive is None) != (b.h_drive is None):
        return False
    if a.h_drive is not None and not np.array_equal(a.h_drive, b.h_drive):
        return False
    return len(a.channels) == len(b.channels) and all(
        np.array_equal(p, q) for (p, _), (q, _) in zip(a.channels, b.channels)
    )


def _make_step_cap(pulse, cfg):
    """Largest allowed step when standing at time t (pulse-window aware)."""
    if pulse is None or pulse.area == 0:
        return lambda t: cfg.max_step
    lo = pulse.offset - 4.0 * pulse.length
    hi = pulse.offset + 4.0 * pulse.length
    inside = (hi - lo) / MIN_STEPS_PER_PULSE

    def cap(t):
        if t < lo - 1e-12:
            return min(cfg.max_step, lo - t)
        if t < hi:
            return min(cfg.max_step, inside)
        return cfg.max_step

    return cap


def _error_norm(err, y_old, y_new, cfg):
    scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y_old), np.abs(y_new))
    return float(np.sqrt(np.mean(np.abs(err / scale) ** 2)))


def _initial_step(gen, t0, y0, f0, cap, cfg):
    scale = cfg.abs_tol + cfg.rel_tol * np.abs(y0)
    d0 = np.sqrt(np.mean(np.abs(y0 / scale) ** 2))
    d1 = np.sqrt(np.mean(np.abs(f0 / scale) ** 2))
    h = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    return min(h, cap)


def _advance(gen, t, y, t_target, cfg, cap_fn, h=None, k1=None):
    """Step y from t to t_target with the embedded 4(5) pair.  `h`, the
    proposed step size, and `k1`, the derivative at (t, y), carry over from
    a previous interval when given.  Returns (y, h, k1) at t_target."""
    if k1 is None:
        k1 = gen.rhs(t, y)
    if h is None:
        h = _initial_step(gen, t, y, k1, min(cap_fn(t), t_target - t), cfg)

    k = [None] * 7
    while t < t_target - _MIN_REL_STEP * max(1.0, abs(t_target)):
        step = min(h, cap_fn(t), t_target - t)
        rejects = 0
        while True:
            if step < _MIN_REL_STEP * max(1.0, abs(t)):
                raise StepSizeUnderflow(f"step size underflow at t={t:.6g}")
            k[0] = k1
            for i in range(1, 7):
                acc = _DP_A[i][0] * k[0]
                for j in range(1, i):
                    if _DP_A[i][j] != 0.0:
                        acc = acc + _DP_A[i][j] * k[j]
                k[i] = gen.rhs(t + _DP_C[i] * step, y + step * acc)
            y_new = y + step * (
                _DP_B5[0] * k[0] + _DP_B5[2] * k[2] + _DP_B5[3] * k[3]
                + _DP_B5[4] * k[4] + _DP_B5[5] * k[5]
            )
            err = step * (
                _DP_E[0] * k[0] + _DP_E[2] * k[2] + _DP_E[3] * k[3]
                + _DP_E[4] * k[4] + _DP_E[5] * k[5] + _DP_E[6] * k[6]
            )
            enorm = _error_norm(err, y, y_new, cfg)
            if enorm <= 1.0:
                break
            rejects += 1
            if rejects > _MAX_REJECTS:
                raise StepSizeUnderflow(f"too many rejected steps at t={t:.6g}")
            step *= max(0.1, 0.9 * enorm ** -0.2)

        t = t + step
        y = y_new
        k1 = k[6]  # FSAL
        factor = 5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm ** -0.2))
        h = step * factor
    return y, h, k1


def _walk(gen, y, t, stops, cfg):
    """Step the state y of `gen` from time t through the times `stops`,
    yielding the state at each.  The step size and the FSAL derivative carry
    over from stop to stop; a stop at the current time yields the state
    unchanged.  Raises ValueError for a stop before the one preceding it
    (or before t)."""
    cap_fn = _make_step_cap(gen.pulse, cfg)
    h = k1 = None
    for stop in stops:
        if stop < t:
            raise ValueError(f"sample times must not decrease: {stop:g} after {t:g}")
        if stop > t:
            y, h, k1 = _advance(gen, t, y, stop, cfg, cap_fn, h, k1)
            t = stop
        yield y


def _check_hermitian(rho0):
    """The right-hand side takes its rows to be Hermitian."""
    rho0 = np.asarray(rho0)
    if np.max(np.abs(rho0 - rho0.conj().T)) > HERMITICITY_TOL * max(1.0, np.max(np.abs(rho0))):
        raise ValueError("rho0 must be Hermitian")


def propagate(system: SystemModel, rho0: np.ndarray, times, cfg: IntegratorConfig | None = None) -> Trajectory:
    """Propagate rho0 under the system's master equation, sampled at `times`.

    Returns laser-rotating-frame states.  rho0 must be Hermitian (ValueError
    otherwise).  Raises NonPhysicalState if an eigenvalue below -1e-6 shows
    up at an output time.
    """
    cfg = cfg or DEFAULT_INTEGRATOR
    times = np.asarray(times, dtype=float)
    if len(times) == 0:
        raise ValueError("times: propagate needs at least one sample time")
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (system.dimension, system.dimension):
        raise DimensionMismatch(
            f"rho0 has shape {rho0.shape}, system dimension is {system.dimension}"
        )
    _check_hermitian(rho0)
    gen = _Generator([system])
    out = np.empty((len(times), system.dimension, system.dimension), dtype=complex)
    y0 = gen.to_frame(times[0], rho0[None, None])
    for i, y in enumerate(_walk(gen, y0, times[0], times, cfg)):
        out[i] = gen.to_lab(times[i], y)[0, 0]

    min_eig = float(np.min(np.linalg.eigvalsh(out)))
    if min_eig < -1e-6:
        raise NonPhysicalState(f"minimum eigenvalue {min_eig:.3e} below -1e-6")
    return Trajectory(times, out)


def expectation(traj: Trajectory, op: np.ndarray) -> np.ndarray:
    """tr(op rho(t)) for each stored time."""
    op = np.asarray(op, dtype=complex)
    if op.shape != traj.states.shape[1:]:
        raise DimensionMismatch(f"operator shape {op.shape} does not match trajectory")
    return np.einsum("mn,tnm->t", op, traj.states)


def physicality_report(traj: Trajectory) -> PhysicalityReport:
    """Trace drift, Hermiticity violation and minimum eigenvalue over a trajectory."""
    traces = np.einsum("tnn->t", traj.states)
    herm = np.max(np.abs(traj.states - traj.states.conj().transpose(0, 2, 1)))
    eigs = np.linalg.eigvalsh(traj.states)
    return PhysicalityReport(
        max_trace_drift=float(np.max(np.abs(traces - 1.0))),
        max_hermiticity_violation=float(herm),
        min_eigenvalue=float(np.min(eigs)),
    )


def emission_series(systems, emit: np.ndarray, grid, cfg: IntegratorConfig | None = None,
                    rho0: np.ndarray | None = None) -> np.ndarray:
    """<emit^dag emit>(t) on `grid` for a batch of systems propagated in
    lockstep from the Hermitian `rho0` (ground state when omitted).

    `rho0` is the state at t = 0, whatever the grid: the grid must not
    decrease, and a first point after 0 reads the state propagated to it
    (ValueError for a point before 0 or below its predecessor).
    """
    cfg = cfg or DEFAULT_INTEGRATOR
    grid = np.asarray(grid, dtype=float)
    gen = _Generator(systems)
    nb, d = gen.nbatch, gen.dim
    emit = np.asarray(emit, dtype=complex)
    nop = emit.conj().T @ emit

    y = np.zeros((nb, 1, d, d), dtype=complex)  # the frame is the laser frame at t = 0
    if rho0 is None:
        y[:, 0, 0, 0] = 1.0
    else:
        _check_hermitian(rho0)
        y[:, 0] = rho0
    out = np.empty((nb, len(grid)))
    for k, y in enumerate(_walk(gen, y, 0.0, grid, cfg)):
        out[:, k] = np.einsum("bmn,bnm->b", gen.op_in_frame(grid[k], nop), y[:, 0]).real
    return out


DRIVE_CUTOFF = 8.0
WINDOW_SAMPLES = 13


class TailPremiseError(ValueError):
    """The closed-form tails need, for every system, a steady ground state
    that `emit` leaves dark."""


@dataclass
class EmissionIntegrals:
    """Emission integrals from t = 0 to infinity per system of a batch, and
    <emit^dag emit> and the laser-frame state at the sample times."""

    n_integral: np.ndarray  # (B,)
    pair_integral: np.ndarray | None  # (B,), None without pairs
    times: np.ndarray
    n_series: np.ndarray  # (B, len(times))
    states: np.ndarray  # (B, len(times), d, d)


def drive_cutoff(pulse) -> float:
    """t_c: DRIVE_CUTOFF pulse lengths past the pulse peak, where the Gaussian
    amplitude has fallen below e^-32 of its peak; 0 without a pulse."""
    if pulse is None:
        return 0.0
    return pulse.offset + DRIVE_CUTOFF * pulse.length


class _WindowGenerator(_Generator):
    """Generator of the window pass: m Hermitian rows per system, (rho, X) or
    rho alone, in the rotating frame, and m scalar accumulators, (q, p) or q:

        d rho/dt = L(t) rho,   dX/dt = L(t) X + e rho e^dag,
        dq/dt = <N|rho>,       dp/dt = <N|X>,        N = e^dag e,

    with <N|x> = tr(N x), the same in either frame.  The state is flat, the
    (B, m, d, d) rows and then the (B, m) scalars, and `split` views both.
    """

    def __init__(self, systems, emit, rows):
        super().__init__(systems)
        nb, d = self.nbatch, self.dim
        self.emit = np.broadcast_to(np.asarray(emit, dtype=complex), (nb, d, d))
        self.nop = self.emit.conj().transpose(0, 2, 1) @ self.emit
        self.row_shape = (nb, rows, d, d)
        self.row_size = nb * rows * d * d

    def split(self, y):
        """Views of the rows (B, m, d, d) and the scalars (B, m) of y."""
        return y[:self.row_size].reshape(self.row_shape), y[self.row_size:].reshape(self.row_shape[:2])

    def rhs(self, t, y):
        rows, _ = self.split(y)
        drows = super().rhs(t, rows)
        if rows.shape[1] == 2:
            ef = self.op_in_frame(t, self.emit)
            drows[:, 1] += ef @ rows[:, 0] @ ef.conj().transpose(0, 2, 1)
        dscalars = np.einsum("bmn,brnm->br", self.op_in_frame(t, self.nop), rows)
        return np.concatenate((drows.ravel(), dscalars.ravel()))


def emission_integrals(systems, emit: np.ndarray, times=None, cfg: IntegratorConfig | None = None,
                       pairs: bool = True) -> EmissionIntegrals:
    """n = int <e^dag e>(t) dt and, with `pairs`, the time-ordered pair
    integral G = int int <T-[e^dag(t1) e^dag(t2)] T+[e(t2) e(t1)]> dt1 dt2
    over [0, inf)^2, for a batch of systems started in the ground state.
    `emit` is one operator for the whole batch, (d, d), or one per system,
    (B, d, d).

    One forward pass over the pulse window [0, t_c], t_c = drive_cutoff(pulse),
    carries the rows rho and X and the scalars q = int <N|rho> dt and
    p = int <N|X> dt (see _WindowGenerator); X(t2) is the single row
    int_0^t2 U(t2, t1) J rho(t1) dt1 with J x = e x e^dag.  Past t_c the
    generator is the constant lab-frame L0 of h_static, and the tails are
    closed forms of R x = int_0^inf e^(L0 s) (x - tr(x) rho_ss) ds
    = -(L0 + |rho_ss><1|)^-1 (x - tr(x) rho_ss), one batched solve over
    the stacked deflated generators of a group of systems (a second one for
    R J R rho_c with `pairs`); each group holds at most _TAIL_GROUP_BYTES of
    stack, so the memory does not grow with the batch:

        n = q_c + <N|R rho_c>
        G = 2 (p_c + <N|R X_c> + <N|R J R rho_c>),   N = e^dag e.

    Raises TailPremiseError unless L0 rho_ss = 0 and e rho_ss = 0 for the
    ground state rho_ss (the latter gives J rho_ss = 0 and <N|rho_ss> = 0).
    `times` (default WINDOW_SAMPLES points across the window, empty for none)
    only sets where <N> and the state are sampled: the integrator stops at
    those inside the window, which must not decrease or precede 0
    (ValueError), and past t_c they are e^(L0 (t - t_c)) rho_c.
    """
    cfg = cfg or DEFAULT_INTEGRATOR
    m = 2 if pairs else 1
    gen = _WindowGenerator(systems, emit, m)
    nb, d = gen.nbatch, gen.dim
    emit, nop = gen.emit, gen.nop
    t_c = drive_cutoff(gen.pulse)
    times = np.linspace(0.0, t_c, WINDOW_SAMPLES) if times is None else np.asarray(times, float)

    scale = np.maximum(1.0, np.max(np.abs(emit), axis=(1, 2)))
    if np.any(np.max(np.abs(emit[:, :, 0]), axis=1) > 1e-12 * scale):
        raise TailPremiseError("`emit` must leave the ground state dark")

    y = np.zeros(gen.row_size + nb * m, dtype=complex)
    gen.split(y)[0][:, 0, 0, 0] = 1.0
    states = np.empty((nb, len(times), d, d), dtype=complex)
    inside = np.flatnonzero(times <= t_c)
    walk = _walk(gen, y, 0.0, [*times[inside], t_c], cfg)
    for k, y in zip(inside, walk):
        states[:, k] = gen.to_lab(times[k], gen.split(y)[0][:, :1])[:, 0]
    rows, integrals = gen.split(next(walk))  # (rho_c, X_c), (q_c, p_c)
    lab = gen.to_lab(t_c, rows).reshape(nb, m, d * d)
    ground = np.zeros(d * d, dtype=complex)
    ground[0] = 1.0
    trace = np.eye(d).ravel()
    deflate = np.outer(ground, trace)  # |rho_ss><1|
    nvec = nop.transpose(0, 2, 1).reshape(nb, 1, d * d)  # <N|x> = tr(N x) = nvec . vec(x)
    past = np.flatnonzero(times > t_c)
    n_int = np.empty(nb)
    g_int = np.empty(nb) if pairs else None
    size = max(1, _TAIL_GROUP_BYTES // (16 * d**4))
    for lo in range(0, nb, size):
        group = slice(lo, lo + size)
        l0 = gen.lab_liouvillian(group)
        if np.any(np.max(np.abs(l0[:, :, 0]), axis=1)
                  > 1e-12 * np.maximum(1.0, np.max(np.abs(l0), axis=(1, 2)))):
            raise TailPremiseError("the ground state must be steady")
        if len(past):
            from scipy.linalg import expm

            for b, l0_b in enumerate(l0, lo):
                for k in past:
                    states[b, k] = (expm(l0_b * (times[k] - t_c)) @ lab[b, 0]).reshape(d, d)
        l0 += deflate

        def resolvent(x):
            """R of the rows x, (g, r, d^2)."""
            x = x - (x @ trace)[:, :, None] * ground
            return -np.linalg.solve(l0, x.swapaxes(1, 2)).swapaxes(1, 2)

        r = resolvent(lab[group])
        n_int[group] = (integrals[group, 0] + (nvec[group] @ r[:, 0, :, None])[:, 0, 0]).real
        if pairs:
            e = emit[group]
            jr = (e @ r[:, 0].reshape(-1, d, d) @ e.conj().swapaxes(1, 2)).reshape(-1, 1, d * d)
            tails = nvec[group] @ (r[:, 1] + resolvent(jr)[:, 0])[:, :, None]
            g_int[group] = 2.0 * (integrals[group, 1] + tails[:, 0, 0]).real
    n_series = np.einsum("bmn,btnm->bt", nop, states).real
    return EmissionIntegrals(n_int, g_int, times, n_series, states)


def _hermitian_basis(d):
    """d^2 Hermitian matrices spanning all d x d ones: A_ij = (E_ij + E_ji) / 2
    for i <= j and B_ij = (E_ij - E_ji) / 2i for i < j, so that
    E_ij = A_ij + i B_ij and E_ji = A_ij - i B_ij."""
    units = np.eye(d * d, dtype=complex).reshape(d, d, d, d)
    swapped = units.transpose(1, 0, 2, 3)
    upper = np.triu(np.ones((d, d), dtype=bool))[:, :, None, None]
    return np.where(upper, (units + swapped) / 2, (swapped - units) / 2j).reshape(d * d, d, d)


def _step_propagators(gen, times, cfg):
    """Lab-frame propagators of the intervals of `times` for the one system
    of `gen`: vec(rho(t_k+1)) = P_k vec(rho(t_k)) on row-major vec, shape
    (len(times) - 1, d^2, d^2).

    An interval that starts inside the drive window [0, t_c],
    t_c = drive_cutoff(pulse), steps the d^2 Hermitian matrices of
    `_hermitian_basis` as the rows of one DP45 pass (FSAL restarts per
    interval) and recombines their images into those of the matrix units.
    Later intervals see the constant generator L0 and take expm(L0 h), once
    per distinct h.
    """
    from scipy.linalg import expm

    d2 = gen.dim * gen.dim
    t_c = drive_cutoff(gen.pulse)
    steps = np.diff(times)
    driven = times[:-1] < t_c
    props = np.empty((len(steps), d2, d2), dtype=complex)
    basis = _hermitian_basis(gen.dim)
    to_units = np.linalg.inv(basis.reshape(d2, d2))  # entries 0, 1 and +-i, exact
    cap_fn = _make_step_cap(gen.pulse, cfg)
    h = None
    for k in np.flatnonzero(driven):
        y, h, _ = _advance(gen, times[k], gen.to_frame(times[k], basis[None]), times[k + 1],
                           cfg, cap_fn, h)
        props[k] = (to_units @ gen.to_lab(times[k + 1], y)[0].reshape(d2, d2)).T
    distinct, which = np.unique(steps[~driven], return_inverse=True)
    l0 = gen.lab_liouvillian()[0]
    props[~driven] = np.array([expm(l0 * h) for h in distinct]).reshape(-1, d2, d2)[which]
    return props


def two_time_g2_map(
    system: SystemModel,
    emit,
    t1_grid,
    t2_grid=None,
    cfg: IntegratorConfig | None = None,
) -> CorrelationGrid:
    """Unnormalized two-time second-order correlation map of `emit`,
    W(t1, t2) = <T-[e^dag(t1) e^dag(t2)] T+[e(t2) e(t1)]>, for a system
    started in the ground state at t = 0.

    `emit` is an output-op name or an operator matrix.  On the union of the
    two grids (with t = 0 put in front when it starts later) the state is
    stepped node to node by the interval propagators P_k of
    `_step_propagators`; at node k the row J rho(t_k), J x = e x e^dag,
    joins the rows of earlier nodes, all rows step by P_k, and W(t_i, t_j)
    for t_i <= t_j is <N|row i> at node j with N = e^dag e.  Values for
    t2 < t1 follow from the symmetry of the time-ordered correlator.

    Error budget: the intervals that start inside the drive window [0, t_c]
    carry the DP45 tolerance of `cfg` on O(1) basis entries; past t_c the
    propagators are exact up to expm's rounding.  No grid bias enters: the
    grid only sets where W is read out.
    """
    if isinstance(emit, str):
        emit = system.output_ops[emit]
    emit = np.asarray(emit, dtype=complex)
    t1_grid = np.asarray(t1_grid, dtype=float)
    t2_grid = t1_grid if t2_grid is None else np.asarray(t2_grid, dtype=float)
    union = np.union1d(t1_grid, t2_grid)
    lead = int(union[0] > 0.0)
    nodes = np.concatenate([[0.0], union]) if lead else union
    gen = _Generator([system])
    d = gen.dim
    props = _step_propagators(gen, nodes, cfg or DEFAULT_INTEGRATOR)

    n = len(nodes)
    rho = np.zeros((n, d * d), dtype=complex)
    rho[0, 0] = 1.0
    for k in range(n - 1):
        rho[k + 1] = props[k] @ rho[k]
    rows = (emit @ rho.reshape(n, d, d) @ emit.conj().T).reshape(n, d * d)
    nvec = (emit.conj().T @ emit).T.ravel()  # <N|x> = tr(N x) = nvec . vec(x)
    w_map = np.zeros((n, n))
    np.fill_diagonal(w_map, (rows @ nvec).real)
    for k in range(n - 1):
        rows[:k + 1] = rows[:k + 1] @ props[k].T
        w_map[:k + 1, k + 1] = (rows[:k + 1] @ nvec).real
    iu = np.triu_indices(n, k=1)
    w_map[iu[1], iu[0]] = w_map[iu]

    i1 = np.searchsorted(union, t1_grid) + lead
    i2 = np.searchsorted(union, t2_grid) + lead
    return CorrelationGrid(t1=t1_grid, t2=t2_grid, values=w_map[np.ix_(i1, i2)])
