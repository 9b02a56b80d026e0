"""Master-equation propagation, emission integrals and two-time correlation maps.

Density matrices are plain complex ndarrays.  The integrator works in the
co-rotating frame defined by the diagonal of the static Hamiltonian (see
model.SystemModel.frame_diag), which removes fast detuning/sensor phase
rotation from the state; all stored states and readouts are transformed back
to the laser rotating frame, so expectation values of arbitrary operators
remain correct.

The right-hand side is a few batched matmuls, so many systems (a detuning
sweep, or the eps-halving pair) and several rows per system step in
lockstep.  emission_integrals carries a few rows over the
pulse window and closes the tails with a resolvent; the wavefront of the
two-time map (g2_map_raw, one collapsed row per grid node) serves the g2map
plot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, lu_factor, lu_solve

from .model import SystemModel


class StepSizeUnderflow(RuntimeError):
    """Adaptive step control could not meet the tolerance."""


class NonPhysicalState(RuntimeError):
    """A propagated density matrix developed a significantly negative eigenvalue."""


class DimensionMismatch(ValueError):
    pass


@dataclass(frozen=True)
class IntegratorConfig:
    """Settings for the master-equation integrator.

    method "adaptive" is an embedded Dormand-Prince 4(5) pair; "rk4" is the
    classic fixed-step scheme (kept for convergence-order checks).  At least
    `min_steps_per_pulse` steps are forced across the pulse window
    [t0 - 4 tau, t0 + 4 tau] so narrow pulses are never stepped over.
    """

    method: str = "adaptive"
    rel_tol: float = 1e-9
    abs_tol: float = 1e-13
    max_step: float = np.inf
    min_steps_per_pulse: int = 50
    fixed_step: float = 0.01

    def __post_init__(self):
        if self.method not in ("adaptive", "rk4"):
            raise ValueError(f"unknown integrator method {self.method!r}")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be > 0")
        if self.min_steps_per_pulse < 20:
            raise ValueError("min_steps_per_pulse must be >= 20")
        if self.fixed_step <= 0:
            raise ValueError("fixed_step must be > 0")


DEFAULT_INTEGRATOR = IntegratorConfig()


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
        """Row-major (t1, t2, value) CSV; first line names the time unit."""
        with open(path, "w") as fh:
            fh.write("# time_unit=1/gamma_sigma\n")
            fh.write("t1,t2,value\n")
            for i, a in enumerate(self.t1):
                for j, b in enumerate(self.t2):
                    fh.write(f"{a:.9g},{b:.9g},{self.values[i, j]:.12g}\n")


def read_correlation_csv(path) -> CorrelationGrid:
    data = np.loadtxt(path, delimiter=",", skiprows=2)
    t1 = np.unique(data[:, 0])
    t2 = np.unique(data[:, 1])
    values = data[:, 2].reshape(len(t1), len(t2))
    return CorrelationGrid(t1, t2, values)


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


class _Generator:
    """Batched Lindblad generator for B systems sharing drive and channels.

    States have shape (B, R, d, d).  The right-hand side is
    -i (H_eff rho - rho H_eff^dag) + sum_k L_k rho L_k^dag with the
    non-Hermitian H_eff = H - (i/2) sum_k L_k^dag L_k, L_k = sqrt(rate) C_k:
    two batched d x d matmuls, and one (B R, d^2) @ (d^2, d^2) matmul with
    the shared jump superoperator sum_k L_k kron conj(L_k).
    """

    def __init__(self, systems):
        first = systems[0]
        self.dim = first.dimension
        self.nbatch = len(systems)
        d = self.dim

        self.pulse = first.pulse
        self.h_drive = None
        if first.h_drive is not None and self.pulse is not None and self.pulse.area > 0:
            self.h_drive = np.asarray(first.h_drive, dtype=complex)

        frame = np.zeros((self.nbatch, d))
        hs = np.empty((self.nbatch, d, d), dtype=complex)
        for b, sys_b in enumerate(systems):
            if sys_b.dimension != d:
                raise DimensionMismatch("batched systems must share the Hilbert-space dimension")
            hs[b] = sys_b.h_static
            if sys_b.frame_diag is not None:
                frame[b] = sys_b.frame_diag
        self.h_static = hs
        self.h_resid = hs - frame[:, :, None] * np.eye(d)[None, :, :]
        self.frame = frame
        self.rotating = bool(np.any(frame != frame[:, :1]))

        jumps = [np.sqrt(rate) * np.asarray(op, dtype=complex) for op, rate in first.channels]
        self.decay = -0.5j * sum((j.conj().T @ j for j in jumps), np.zeros((d, d)))
        self.jump_super = sum((np.kron(j, j.conj()) for j in jumps), np.zeros((d * d, d * d)))

    def phases(self, t):
        """Elementwise frame phases exp(i t (D_m - D_n)) per batch entry."""
        v = np.exp(1j * t * self.frame)
        return v[:, :, None] * v.conj()[:, None, :]

    def to_frame(self, t, rho):
        if not self.rotating:
            return rho
        return self.phases(t)[:, None, :, :] * rho

    def to_lab(self, t, rho):
        if not self.rotating:
            return rho
        return np.conj(self.phases(t))[:, None, :, :] * rho

    def op_in_frame(self, t, op):
        """Operator `op` (d,d) transformed into the frame at time t, per batch."""
        if not self.rotating:
            return np.broadcast_to(op, (self.nbatch,) + op.shape)
        return self.phases(t) * op

    def _hamiltonian_frame(self, t):
        h = self.h_resid
        if self.h_drive is not None:
            h = h + float(self.pulse.amplitude(t)) * self.h_drive
        if self.rotating:
            h = self.phases(t) * h
        return h

    def rhs(self, t, y):
        """d rho / dt for y of shape (B, R, d, d), in the rotating frame."""
        heff = (self._hamiltonian_frame(t) + self.decay)[:, None]
        b, r, d = y.shape[0], y.shape[1], self.dim
        out = (y.reshape(b * r, d * d) @ self.jump_super.T).reshape(y.shape)
        out += -1j * (heff @ y) + 1j * (y @ heff.conj().transpose(0, 1, 3, 2))
        return out

    def lab_liouvillian(self, b):
        """Drive-free lab-frame generator of system b as a (d^2, d^2) matrix
        on row-major vec(rho): vec(A rho B) = (A kron B^T) vec(rho)."""
        eye = np.eye(self.dim)
        heff = self.h_static[b] + self.decay
        return -1j * np.kron(heff, eye) + 1j * np.kron(eye, heff.conj()) + self.jump_super


def _make_step_cap(pulse, cfg):
    """Largest allowed step when standing at time t (pulse-window aware)."""
    if pulse is None or pulse.area == 0:
        return lambda t: cfg.max_step
    lo = pulse.offset - 4.0 * pulse.length
    hi = pulse.offset + 4.0 * pulse.length
    inside = (hi - lo) / cfg.min_steps_per_pulse

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


class _AdaptiveState:
    """Carries step size and the FSAL derivative between node intervals."""

    def __init__(self):
        self.h = None
        self.k1 = None


def _initial_step(gen, t0, y0, f0, cap, cfg):
    scale = cfg.abs_tol + cfg.rel_tol * np.abs(y0)
    d0 = np.sqrt(np.mean(np.abs(y0 / scale) ** 2))
    d1 = np.sqrt(np.mean(np.abs(f0 / scale) ** 2))
    h = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    return min(h, cap)


def _advance_adaptive(gen, t, y, t_target, cfg, cap_fn, state):
    """Step y from t to t_target with the embedded 4(5) pair."""
    if state.k1 is None:
        state.k1 = gen.rhs(t, y)
    if state.h is None:
        state.h = _initial_step(gen, t, y, state.k1, min(cap_fn(t), t_target - t), cfg)

    k = [None] * 7
    while t < t_target - _MIN_REL_STEP * max(1.0, abs(t_target)):
        cap = min(cap_fn(t), t_target - t)
        h = min(state.h, cap)
        rejects = 0
        while True:
            if h < _MIN_REL_STEP * max(1.0, abs(t)):
                raise StepSizeUnderflow(f"step size underflow at t={t:.6g}")
            k[0] = state.k1
            for i in range(1, 7):
                acc = _DP_A[i][0] * k[0]
                for j in range(1, i):
                    if _DP_A[i][j] != 0.0:
                        acc = acc + _DP_A[i][j] * k[j]
                k[i] = gen.rhs(t + _DP_C[i] * h, y + h * acc)
            y_new = y + h * (
                _DP_B5[0] * k[0] + _DP_B5[2] * k[2] + _DP_B5[3] * k[3]
                + _DP_B5[4] * k[4] + _DP_B5[5] * k[5]
            )
            err = h * (
                _DP_E[0] * k[0] + _DP_E[2] * k[2] + _DP_E[3] * k[3]
                + _DP_E[4] * k[4] + _DP_E[5] * k[5] + _DP_E[6] * k[6]
            )
            enorm = _error_norm(err, y, y_new, cfg)
            if enorm <= 1.0:
                break
            rejects += 1
            if rejects > _MAX_REJECTS:
                raise StepSizeUnderflow(f"too many rejected steps at t={t:.6g}")
            h *= max(0.1, 0.9 * enorm ** -0.2)

        t = t + h
        y = y_new
        state.k1 = k[6]  # FSAL
        factor = 5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm ** -0.2))
        state.h = h * factor
    return y


def _advance_rk4(gen, t, y, t_target, cfg, cap_fn, state):
    span = t_target - t
    cap = min(cfg.fixed_step, cap_fn(t))
    n = max(1, int(np.ceil(span / cap)))
    h = span / n
    for _ in range(n):
        k1 = gen.rhs(t, y)
        k2 = gen.rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = gen.rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = gen.rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    state.k1 = None
    return y


def _advance(gen, t, y, t_target, cfg, cap_fn, state):
    if cfg.method == "rk4":
        return _advance_rk4(gen, t, y, t_target, cfg, cap_fn, state)
    return _advance_adaptive(gen, t, y, t_target, cfg, cap_fn, state)


def propagate(system: SystemModel, rho0: np.ndarray, times, cfg: IntegratorConfig | None = None) -> Trajectory:
    """Propagate rho0 under the system's master equation, sampled at `times`.

    Returns laser-rotating-frame states.  Raises NonPhysicalState if an
    eigenvalue below -1e-6 shows up at an output time.
    """
    cfg = cfg or DEFAULT_INTEGRATOR
    times = np.asarray(times, dtype=float)
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (system.dimension, system.dimension):
        raise DimensionMismatch(
            f"rho0 has shape {rho0.shape}, system dimension is {system.dimension}"
        )
    gen = _Generator([system])
    cap_fn = _make_step_cap(system.pulse, cfg)
    state = _AdaptiveState()

    y = gen.to_frame(times[0], rho0[None, None])
    out = np.empty((len(times), system.dimension, system.dimension), dtype=complex)
    out[0] = gen.to_lab(times[0], y)[0, 0]
    t = times[0]
    for i, t_next in enumerate(times[1:], start=1):
        y = _advance(gen, t, y, t_next, cfg, cap_fn, state)
        t = t_next
        out[i] = gen.to_lab(t, y)[0, 0]

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
    lockstep from `rho0` (ground state when omitted)."""
    cfg = cfg or DEFAULT_INTEGRATOR
    grid = np.asarray(grid, dtype=float)
    gen = _Generator(systems)
    nb, d = gen.nbatch, gen.dim
    emit = np.asarray(emit, dtype=complex)
    nop = emit.conj().T @ emit
    cap_fn = _make_step_cap(gen.pulse, cfg)
    state = _AdaptiveState()

    y = np.zeros((nb, 1, d, d), dtype=complex)
    if rho0 is None:
        y[:, 0, 0, 0] = 1.0
    else:
        y[:, 0] = gen.to_frame(grid[0], np.broadcast_to(rho0, (nb, 1, d, d)))[:, 0]
    out = np.empty((nb, len(grid)))
    t = 0.0
    for k, tk in enumerate(grid):
        if tk > t:
            y = _advance(gen, t, y, tk, cfg, cap_fn, state)
            t = tk
        nf = gen.op_in_frame(tk, nop)
        out[:, k] = np.einsum("bmn,bnm->b", nf, y[:, 0]).real
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
    """Generator of the augmented rows (rho, X, Q, P), or (rho, Q):

        d rho/dt = L(t) rho,   dX/dt = L(t) X + e rho e^dag,
        dQ/dt = rho,           dP/dt = X,

    with rho and X in the rotating frame and Q and P in the laser frame.
    """

    def __init__(self, systems, emit):
        super().__init__(systems)
        self.emit = emit

    def rhs(self, t, y):
        m = y.shape[1] // 2
        out = np.empty_like(y)
        out[:, :m] = super().rhs(t, y[:, :m])
        if m == 2:
            ef = self.op_in_frame(t, self.emit)
            out[:, 1] += ef @ y[:, 0] @ ef.conj().transpose(0, 2, 1)
        out[:, m:] = self.to_lab(t, y[:, :m])
        return out


def emission_integrals(systems, emit: np.ndarray, times=None, cfg: IntegratorConfig | None = None,
                       pairs: bool = True) -> EmissionIntegrals:
    """n = int <e^dag e>(t) dt and, with `pairs`, the time-ordered pair
    integral G = int int <T-[e^dag(t1) e^dag(t2)] T+[e(t2) e(t1)]> dt1 dt2
    over [0, inf)^2, for a batch of systems started in the ground state.

    One forward pass of the augmented state (rho, X, Q, P) runs over the
    pulse window [0, t_c] only, t_c = drive_cutoff(pulse); X(t2) is the single
    row int_0^t2 U(t2, t1) J rho(t1) dt1 with J x = e x e^dag.  Past t_c the
    generator is the constant lab-frame L0 of h_static, and the tails are
    closed forms of R x = int_0^inf e^(L0 s) (x - tr(x) rho_ss) ds
    = -(L0 + |rho_ss><1|)^-1 (x - tr(x) rho_ss), one LU per system:

        n = <N|Q_c> + <N|R rho_c>
        G = 2 (<N|P_c> + <N|R X_c> + <N|R J R rho_c>),   N = e^dag e.

    Raises TailPremiseError unless L0 rho_ss = 0 and e rho_ss = 0 for the
    ground state rho_ss (the latter gives J rho_ss = 0 and <N|rho_ss> = 0).
    `times` (default WINDOW_SAMPLES points across the window, empty for none)
    only sets where <N> and the state are sampled: the integrator stops at
    those inside the window, and past t_c they are e^(L0 (t - t_c)) rho_c.
    """
    cfg = cfg or DEFAULT_INTEGRATOR
    emit = np.asarray(emit, dtype=complex)
    gen = _WindowGenerator(systems, emit)
    nb, d = gen.nbatch, gen.dim
    t_c = drive_cutoff(gen.pulse)
    times = np.linspace(0.0, t_c, WINDOW_SAMPLES) if times is None else np.asarray(times, float)

    if np.max(np.abs(emit[:, 0])) > 1e-12 * max(1.0, np.max(np.abs(emit))):
        raise TailPremiseError("`emit` must leave the ground state dark")

    m = 2 if pairs else 1
    y = np.zeros((nb, 2 * m, d, d), dtype=complex)
    y[:, 0, 0, 0] = 1.0
    cap_fn = _make_step_cap(gen.pulse, cfg)
    state = _AdaptiveState()
    states = np.empty((nb, len(times), d, d), dtype=complex)
    t = 0.0
    for k in np.flatnonzero(times <= t_c):
        if times[k] > t:
            y = _advance(gen, t, y, times[k], cfg, cap_fn, state)
            t = times[k]
        states[:, k] = gen.to_lab(t, y[:, :1])[:, 0]
    if t_c > t:
        y = _advance(gen, t, y, t_c, cfg, cap_fn, state)
    lab = gen.to_lab(t_c, y[:, :m]).reshape(nb, m, d * d)  # rho_c, X_c
    ground = np.zeros(d * d, dtype=complex)
    ground[0] = 1.0
    trace = np.eye(d).ravel()
    nop = emit.conj().T @ emit
    nvec = nop.T.ravel()  # <N|x> = tr(N x) = nvec . vec(x)
    integrals = y[:, m:].reshape(nb, m, d * d)  # Q_c, P_c
    n_int = np.empty(nb)
    g_int = np.empty(nb) if pairs else None
    for b in range(nb):
        l0 = gen.lab_liouvillian(b)
        if np.max(np.abs(l0[:, 0])) > 1e-12 * max(1.0, np.max(np.abs(l0))):
            raise TailPremiseError("the ground state must be steady")
        for k in np.flatnonzero(times > t_c):
            states[b, k] = (expm(l0 * (times[k] - t_c)) @ lab[b, 0]).reshape(d, d)
        lu = lu_factor(l0 + np.outer(ground, trace))

        def resolvent(x):
            x = x - np.outer(x @ trace, ground)
            return -lu_solve(lu, x.T).T

        r = resolvent(lab[b])
        n_int[b] = (nvec @ (integrals[b, 0] + r[0])).real
        if pairs:
            jr = (emit @ r[0].reshape(d, d) @ emit.conj().T).reshape(1, d * d)
            g_int[b] = 2.0 * (nvec @ (integrals[b, 1] + r[1] + resolvent(jr)[0])).real
    n_series = np.einsum("mn,btnm->bt", nop, states).real
    return EmissionIntegrals(n_int, g_int, times, n_series, states)


_WEIGHT_FLOOR = 1e-30


def g2_map_raw(systems, emit: np.ndarray, grid, cfg: IntegratorConfig | None = None) -> np.ndarray:
    """Wavefront evaluation of W[b, i, j] = <T-[e^dag(t1) e^dag(t2)] T+[e(t2) e(t1)]>
    on grid x grid, for each system b of the batch.

    All systems are propagated in lockstep (shared adaptive steps); at each
    grid node the state collapsed by `emit` is appended as a new row and every
    active row is read out at all later nodes.  Collapsed rows are normalized
    to unit trace and their weight multiplied back into the readout, so the
    error control sees O(1) entries regardless of how weak the probed output
    is (the master equation is linear, the rescaling is exact).
    """
    cfg = cfg or DEFAULT_INTEGRATOR
    grid = np.asarray(grid, dtype=float)
    n = len(grid)
    gen = _Generator(systems)
    nb, d = gen.nbatch, gen.dim
    emit = np.asarray(emit, dtype=complex)
    nop = emit.conj().T @ emit
    cap_fn = _make_step_cap(gen.pulse, cfg)
    state = _AdaptiveState()

    # y_all[:, 0] is the uncollapsed state, y_all[:, 1:] the active collapsed
    # rows (unit trace); everything advances in lockstep.
    y_all = np.zeros((nb, 1, d, d), dtype=complex)
    y_all[:, 0, 0, 0] = 1.0
    if grid[0] > 0.0:
        y_all = _advance(gen, 0.0, y_all, grid[0], cfg, cap_fn, state)

    weights = np.zeros((nb, n))
    w_map = np.zeros((nb, n, n))

    for k in range(n):
        tk = grid[k]
        if k > 0:
            state.k1 = None  # batch grew at the previous node
            y_all = _advance(gen, grid[k - 1], y_all, tk, cfg, cap_fn, state)

        base = y_all[:, 0]
        nf = gen.op_in_frame(tk, nop)  # (B, d, d)
        if k > 0:
            w_map[:, :k, k] = weights[:, :k] * np.einsum(
                "bmn,brnm->br", nf, y_all[:, 1:]
            ).real

        ef = gen.op_in_frame(tk, emit)
        collapsed = ef @ base @ ef.conj().transpose(0, 2, 1)
        wk = np.einsum("bnn->b", collapsed).real
        weights[:, k] = wk
        safe = np.maximum(wk, _WEIGHT_FLOOR)
        w_map[:, k, k] = np.einsum("bmn,bnm->b", nf, collapsed).real
        if k < n - 1:
            y_all = np.concatenate(
                [y_all, (collapsed / safe[:, None, None])[:, None]], axis=1
            )

    # rows seeded with zero weight carry no coincidences at all
    w_map[weights <= _WEIGHT_FLOOR, :] = 0.0
    iu = np.triu_indices(n, k=1)
    for b in range(nb):
        w_map[b][iu[1], iu[0]] = w_map[b][iu]
    return w_map


def two_time_g2_map(
    system: SystemModel,
    emit,
    t1_grid,
    t2_grid=None,
    cfg: IntegratorConfig | None = None,
) -> CorrelationGrid:
    """Unnormalized two-time second-order correlation map of `emit`.

    `emit` is an output-op name or an operator matrix.  Values for t2 < t1
    are filled by the symmetry of the time-ordered correlator.
    """
    if isinstance(emit, str):
        emit = system.output_ops[emit]
    t1_grid = np.asarray(t1_grid, dtype=float)
    t2_grid = t1_grid if t2_grid is None else np.asarray(t2_grid, dtype=float)
    union = np.union1d(t1_grid, t2_grid)
    raw = g2_map_raw([system], emit, union, cfg)
    i1 = np.searchsorted(union, t1_grid)
    i2 = np.searchsorted(union, t2_grid)
    values = raw[0][np.ix_(i1, i2)]
    return CorrelationGrid(t1=t1_grid, t2=t2_grid, values=values)
