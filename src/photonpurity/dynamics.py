"""Master-equation propagation, emission integrals and two-time correlation maps.

Density matrices are plain complex ndarrays; all stored states and readouts
are in the laser rotating frame (the lab frame here).

The driven stretch is integrated by one stepper, Dormand & Prince's
embedded 8(5,3) pair DOP853, on real rows: the coordinates of rho in an
orthonormal Hermitian operator basis (rho_mm, sqrt2 Re rho_mn and sqrt2 Im
rho_mn for m < n), optionally followed by those of a collapsed row X and
real scalar emission accumulators.  The Lindblad generator preserves
Hermiticity, so it is a real matrix on these coordinates, at a quarter of
the flops of the complex one on vec(rho).  Its right-hand side, _Generator,
is the lab-frame window superoperator of a whole batch of systems (a
detuning sweep, or every filter width of a pulse with its eps-halving
pair): one dense real matmul of all rows with a shared operator, plus what
each system adds on its own non-zeros.  The rows hold only the coordinates
that the initial rows can reach; the others stay exactly 0.  Every pass
steps its rows in the lab frame: a detuned line, such as the cascade's
exciton line 150 gamma from the laser, turns the phase of its coherences
there, and a filter detuning only adds to that turn, a complex multiply on
the (Re, Im) pairs viewed as complex.  The step control reads the modulus
of each coherence, so the turn does not move the steps' tolerance.  Rows
become complex vec(rho) only where values leave a pass.

One sampler, `_walk`, drives the stepper through a sorted list of stop
times: it caps the step inside the pulse window, carries the step size and
the derivative at the current point (the next step's first stage) from stop
to stop, and yields the state at each stop.  emission_series and
emission_integrals iterate it, the latter also for its samples past the
drive cutoff t_c.  Past t_c the generator is constant and the lab-frame
Liouvillian L0 gives closed forms: emission_integrals carries one or two
rows per system and the scalar time integrals its tails read over the pulse
window, and closes the tails with a resolvent, one batched
numpy.linalg.solve over the stack of deflated generators of each group of
systems (groups of at most _TAIL_GROUP_BYTES of stack); two_time_g2_map
chains per-interval propagators, DOP853 on the d^2 real unit vectors inside
the window and expm(L0 h) after it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import HERMITICITY_TOL, SystemModel


class StepSizeUnderflow(RuntimeError):
    """Adaptive step control could not meet the tolerance."""


class DimensionMismatch(ValueError):
    pass


class BatchMismatch(ValueError):
    """Systems integrated as one batch differ in drive or channel operators."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Settings of the adaptive DOP853 integrator.

    Steps are accepted when DOP853's combined error estimate, from the RMS
    of its fifth- and third-order estimates scaled by abs_tol + rel_tol |y|
    (`_error_norm`), is at most 1.  At least MIN_STEPS_PER_PULSE steps are
    forced across the pulse window [t0 - 4 tau, t0 + 4 tau] so narrow
    pulses are never stepped over.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-13

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be > 0")


DEFAULT_INTEGRATOR = IntegratorConfig()
# This cap, not the error control, sets the window's steps: it takes 622 of
# the 709-841 right-hand sides of a figure spectrum batch.  It also holds the
# exciton line's tolerance budget: with a cap of 8-32 steps, or none, the
# figure-default sweep-fourlevel lands up to 9.4e-10 from a rel_tol 1e-12
# run (the budget allows 1e-9), at 50 steps 8.9e-11.
MIN_STEPS_PER_PULSE = 50

_CSV_CHUNK = 1 << 16    # map rows per formatted write
_TAIL_GROUP_BYTES = 1 << 20    # generator stack per batched tail solve


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
        Each time is formatted once, into the template of its lines; one
        formatted write of the values per chunk of t1 rows."""
        # joined by a row's "t1," this list puts that t1 in front of every line
        tails = ["", *("%.9g," % t + "%.12g\n" for t in self.t2)]
        values = np.reshape(self.values, (len(self.t1), len(self.t2)))
        step = max(1, _CSV_CHUNK // len(tails))
        with open(path, "w") as fh:
            fh.write("# time_unit=1/gamma_sigma\n")
            fh.write("t1,t2,value\n")
            for start in range(0, len(self.t1), step):
                chunk = self.t1[start:start + step]
                template = "".join(("%.9g," % t).join(tails) for t in chunk)
                fh.write(template % tuple(values[start:start + step].ravel().tolist()))


# DOP853 tableau, the 12 stages of Dormand & Prince's eighth-order solution
# with its fifth- and third-order error estimates (Hairer, Norsett & Wanner,
# Solving Ordinary Differential Equations I, 2nd ed., sec. II.10).  Row i of
# _DOP_A weighs the stages before stage i (its strictly lower triangle, row
# by row below); the rows of _DOP_B are the solution weights, E5 and E3.
# The tables are parsed from strings: as float literals they raised the
# parser's peak memory when the module is imported from source by 0.5 MB.
_DOP_C = np.array("""
    0 5.26001519587677318785587544488e-2 7.89002279381515978178381316732e-2
    1.18350341907227396726757197510e-1 2.81649658092772603273242802490e-1
    3.33333333333333333333333333333e-1 0.25 3.07692307692307692307692307692e-1
    6.51282051282051282051282051282e-1 0.6 8.57142857142857142857142857142e-1 1
""".split(), dtype=float)
_DOP_A = np.zeros((12, 12))
_DOP_A[np.tril_indices(12, -1)] = np.array("""
    5.26001519587677318785587544488e-2
    1.97250569845378994544595329183e-2 5.91751709536136983633785987549e-2
    2.95875854768068491816892993775e-2 0 8.87627564304205475450678981324e-2
    2.41365134159266685502369798665e-1 0 -8.84549479328286085344864962717e-1
    9.24834003261792003115737966543e-1
    3.7037037037037037037037037037e-2 0 0 1.70828608729473871279604482173e-1
    1.25467687566822425016691814123e-1
    3.7109375e-2 0 0 1.70252211019544039314978060272e-1 6.02165389804559606850219397283e-2
    -1.7578125e-2
    3.70920001185047927108779319836e-2 0 0 1.70383925712239993810214054705e-1
    1.07262030446373284651809199168e-1 -1.53194377486244017527936158236e-2
    8.27378916381402288758473766002e-3
    6.24110958716075717114429577812e-1 0 0 -3.36089262944694129406857109825
    -8.68219346841726006818189891453e-1 2.75920996994467083049415600797e1
    2.01540675504778934086186788979e1 -4.34898841810699588477366255144e1
    4.77662536438264365890433908527e-1 0 0 -2.48811461997166764192642586468
    -5.90290826836842996371446475743e-1 2.12300514481811942347288949897e1
    1.52792336328824235832596922938e1 -3.32882109689848629194453265587e1
    -2.03312017085086261358222928593e-2
    -9.3714243008598732571704021658e-1 0 0 5.18637242884406370830023853209
    1.09143734899672957818500254654 -8.14978701074692612513997267357
    -1.85200656599969598641566180701e1 2.27394870993505042818970056734e1
    2.49360555267965238987089396762 -3.0467644718982195003823669022
    2.27331014751653820792359768449 0 0 -1.05344954667372501984066689879e1
    -2.00087205822486249909675718444 -1.79589318631187989172765950534e1
    2.79488845294199600508499808837e1 -2.85899827713502369474065508674
    -8.87285693353062954433549289258 1.23605671757943030647266201528e1
    6.43392746015763530355970484046e-1
""".split(), dtype=float)
# the solution weights, E5 and the third-order weights, 12 each
_DOP_B = np.array("""
    5.42937341165687622380535766363e-2 0 0 0 0 4.45031289275240888144113950566
    1.89151789931450038304281599044 -5.8012039600105847814672114227
    3.1116436695781989440891606237e-1 -1.52160949662516078556178806805e-1
    2.01365400804030348374776537501e-1 4.47106157277725905176885569043e-2
    1.312004499419488073250102996e-2 0 0 0 0 -1.225156446376204440720569753
    -4.957589496572501915214079952e-1 1.664377182454986536961530415
    -3.503288487499736816886487290e-1 3.341791187130174790297318841e-1
    8.192320648511571246570742613e-2 -2.235530786388629525884427845e-2
    2.44094488188976377952755905512e-1 0 0 0 0 0 0 0
    7.33846688281611857341361741547e-1 0 0 2.20588235294117647058823529412e-2
""".split(), dtype=float).reshape(3, 12)
_DOP_B[2] = _DOP_B[0] - _DOP_B[2]  # E3: the solution less the third-order weights

_MIN_REL_STEP = 1e-14
_MAX_REJECTS = 60


def _nonzeros(stack):
    """Row and column indices of the entries that are non-zero in any matrix
    of the (B, d, d) stack."""
    return np.nonzero(np.any(stack != 0, axis=0))


def _kron(a, b):
    """COO (rows, cols, (B, n) values) of x -> A x B for the matrices of the
    stacks a and b, (B, d, d) or (1, d, d), on row-major vec:
    vec(A x B) = (A kron B^T) vec(x)."""
    d = a.shape[-1]
    m, i = _nonzeros(a)
    k, n = _nonzeros(b)
    va, vb = a[:, m, i], b[:, k, n]
    return ((m[:, None] * d + n).ravel(), (i[:, None] * d + k).ravel(),
            (va[:, :, None] * vb[:, None, :]).reshape(max(len(va), len(vb)), -1))


def _shift(part, row, col):
    rows, cols, vals = part
    return rows + row, cols + col, vals


def _split(part):
    """A part whose values are (B, n), one row per system, as the first
    system's part and the part of each system's difference from it, on the
    entries where some system differs."""
    rows, cols, vals = part
    differ = np.any(vals != vals[0], axis=0)
    return (rows, cols, vals[0]), (rows[differ], cols[differ], vals[:, differ] - vals[0, differ])


def _coalesce(size, nb, parts):
    """Sum the duplicate entries of COO parts (rows, cols, values) of a
    size x size matrix, whose values are (nb, n) or, shared, (n,).  Returns
    the unique rows and cols, sorted row-major, and the (nb, nu) sums, with
    the entries that sum to zero in every row dropped."""
    keys, inverse = np.unique(np.concatenate([p[0] * size + p[1] for p in parts]),
                              return_inverse=True)
    vals = np.zeros((len(keys), nb), dtype=np.result_type(*(p[2] for p in parts)))
    np.add.at(vals, inverse, np.concatenate(
        [np.broadcast_to(p[2], (nb, len(p[0]))).T for p in parts]))
    keep = np.any(vals != 0, axis=1)
    return keys[keep] // size, keys[keep] % size, vals[keep].T


_SQRT2 = np.sqrt(2.0)


class _Coordinates:
    """Real coordinates of rows that hold `blocks` Hermitian d x d matrices,
    each as row-major vec, followed by `scalars` real numbers.

    The coordinates are those of an orthonormal Hermitian operator basis:
    x_mm, and sqrt2 Re x_mn, sqrt2 Im x_mn for m < n.  The coherences of all
    blocks come first, each pair (Re, Im) adjacent, so the first `pairs`
    entries of a row viewed as complex hold sqrt2 x_mn; the diagonals of all
    blocks and the scalars follow.  `encode` and `decode` convert between
    complex vec rows, (..., length) with length = blocks d^2 + scalars, and
    real rows, (..., size), where size = length unless `kept` dropped some
    coordinates.  A Hermiticity-preserving linear map M on vec rows is the
    real matrix T^H M T on the coordinates, with T = decode as a matrix
    (unitary).
    """

    def __init__(self, d, blocks=1, scalars=0):
        m, n = np.triu_indices(d, 1)
        start = np.arange(blocks)[:, None] * d * d
        self.upper = (start + m * d + n).ravel()
        self.lower = (start + n * d + m).ravel()
        self.real = np.concatenate([(start + np.arange(d) * (d + 1)).ravel(),
                                    blocks * d * d + np.arange(scalars)])
        self.pairs = 2 * len(self.upper)
        self.size = self.pairs + len(self.real)
        # vec entry a is sum_j T[a, j] c_j over the coordinates j in _cols[a]:
        # T[a, j] = _unit[a, j] / sqrt2 for a coherence and _unit[a, j] else; the
        # scale is kept apart so that a product of two is exactly 1/2
        pair = np.arange(0, self.pairs, 2)[:, None] + [0, 1]
        self._cols = np.empty((self.size, 2), dtype=int)
        self._cols[self.upper] = self._cols[self.lower] = pair
        self._cols[self.real] = (self.pairs + np.arange(len(self.real)))[:, None]
        self._unit = np.zeros((self.size, 2), dtype=complex)
        self._unit[self.upper] = (1.0, 1j)
        self._unit[self.lower] = (1.0, -1j)
        self._unit[self.real, 0] = 1.0
        self.length = self.size

    def kept(self, keep):
        """These coordinates restricted to the sorted indices `keep`, which
        hold both entries of every pair they touch: `encode` then gives only
        the kept coordinates of a row, and `decode` puts 0 at the others.
        The kept coherence pairs still come first; `realify` stays with the
        full coordinates."""
        out = object.__new__(_Coordinates)
        pairs = keep[keep < self.pairs][::2] // 2
        out.upper, out.lower = self.upper[pairs], self.lower[pairs]
        out.real = self.real[keep[keep >= self.pairs] - self.pairs]
        out.pairs, out.size, out.length = 2 * len(pairs), len(keep), self.length
        return out

    def encode(self, rows):
        """Real rows of the complex vec rows (..., length) of Hermitian blocks."""
        rows = np.asarray(rows)
        out = np.empty(rows.shape[:-1] + (self.size,))
        upper = _SQRT2 * rows[..., self.upper]
        out[..., 0:self.pairs:2] = upper.real
        out[..., 1:self.pairs:2] = upper.imag
        out[..., self.pairs:] = rows[..., self.real].real
        return out

    def decode(self, rows):
        """Complex vec rows (..., length) of the real rows (..., size)."""
        out = np.zeros(rows.shape[:-1] + (self.length,), dtype=complex)
        upper = (rows[..., 0:self.pairs:2] + 1j * rows[..., 1:self.pairs:2]) / _SQRT2
        out[..., self.upper] = upper
        out[..., self.lower] = upper.conj()
        out[..., self.real] = rows[..., self.pairs:]
        return out

    def magnitudes(self, y):
        """|x| of the complex vec entry behind each coordinate of the flat
        state y (its rows of size `size`, C-contiguous): a coherence pair's
        modulus |x_mn| on both its entries, |y| on the others.  The
        stepper's error norm is thus the one of complex vec rows, and it
        does not depend on the phase to which a coherence has turned."""
        z = y.reshape(-1, self.size)
        out = np.abs(z)
        pairs = np.abs(z[:, :self.pairs].view(complex)) / _SQRT2
        out[:, 0:self.pairs:2] = out[:, 1:self.pairs:2] = pairs
        return out.reshape(y.shape)

    def realify(self, part):
        """The COO part (rows, cols, values) of a map on vec rows as the COO
        part of T^H M T on the coordinates: each entry v at (a, b) becomes
        the entries Re(conj(T[a, j]) v T[b, k]), at most four.  Summed over
        the entries of a Hermiticity-preserving map (which come in pairs
        (a, b), (a', b') of conjugate values, x' the entry of x^dag) this is
        exact, because the imaginary parts cancel pairwise."""
        rows, cols, vals = part
        coef = self._unit[rows].conj()[:, :, None] * self._unit[cols][:, None, :]
        coherences = (self._unit[rows, 1] != 0).astype(int) + (self._unit[cols, 1] != 0)
        coef *= np.array([1.0, 1.0 / _SQRT2, 0.5])[coherences][:, None, None]
        keep = coef != 0
        shape = coef.shape
        return (np.broadcast_to(self._cols[rows][:, :, None], shape)[keep],
                np.broadcast_to(self._cols[cols][:, None, :], shape)[keep],
                (np.asarray(vals)[..., None, None] * coef).real[..., keep])


class _Generator:
    """Lab-frame window superoperator of a batch of B systems that share the
    pulse, the drive operator and the channel operators (rates and h_static
    may differ per system), acting on real rows of the D coordinates that
    the initial rows can reach.

    The Lindblad generator preserves Hermiticity, so it is a real matrix in
    an orthonormal Hermitian operator basis (Gorini, Kossakowski & Sudarshan,
    J. Math. Phys. 17, 821 (1976)).  A row holds the real coordinates
    (`_Coordinates`) of Hermitian blocks and real scalars.  Without `emit` a
    row is rho (d^2 coordinates); with `emit` e (one (d, d) operator, or one
    per system) it is [rho, q] (d^2 + 1) or, with `pairs`, [rho, X, q, p]
    (2 d^2 + 2):

        d rho/dt = L(t) rho,   dX/dt = L(t) X + J rho,   J x = e x e^dag,
        dq/dt = <N|rho>,       dp/dt = <N|X>,            N = e^dag e,

    with <N|x> = tr(N x).  `coords.encode` and `coords.decode` convert
    complex row-major vec rows [vec rho, vec X, q, p] of the same layout.  A
    state holds one row per system, or any number of rows for a batch of one
    system.

    `initial` lists the vec entries of rho that the initial rows may hold
    (X and the scalars start at 0; None or none: all).  The rows keep, in
    order, the closure of their coordinates under the pattern of all parts,
    with both coordinates of each coherence pair; the others stay exactly 0
    (cf. Albert & Jiang, PRA 89, 022118 (2014)), and the error norms divide
    by the full row size (`_rms`), so the steps are those of full rows.
    From the ground state a pair row of the cascade's exciton line keeps 86
    of 290 coordinates, one of a two-level sensor batch all 74, and a
    spectrum row (one-photon sensor) 17 on the two-level line and 27 on the
    exciton line.

    Each operator is built on vec from COO parts and turned into a real one
    by `_Coordinates.realify` before its entries are summed.  The shared
    part, from the first system's static generator, J and readout rows plus
    amp(t) times the drive commutator, is applied to all rows in one dense
    (rows, D) @ (D, D) matmul.  What the other systems add is applied on its
    own non-zeros.  Its diagonal on vec (filter detuning, and the damping of
    a width or a rate) acts inside one coherence pair, a complex multiply on
    the coherences viewed as complex (`rem_phase`), and on the diagonal
    coordinates (`rem_real`).  The rest (couplings, rates and readout
    scales) is one block-diagonal product (`rem_blocks`), a gather, multiply
    and bincount on flat indices.  No (B, D, D) stack is formed.

    The rows are those of the lab frame: the coherences of a line detuned
    from the laser turn at its static plus its filter detuning.
    """

    def __init__(self, systems, emit=None, pairs=False, initial=None):
        if len(systems) == 0:
            raise ValueError("a batch needs at least one system")
        first = systems[0]
        d = self.dim = first.dimension
        nb = self.nbatch = len(systems)
        for sys_b in systems:
            if sys_b.dimension != d:
                raise DimensionMismatch("batched systems must share the Hilbert-space dimension")
            if not _same_drive_and_channels(first, sys_b):
                raise BatchMismatch("batched systems must share the drive and the channel operators")
        self.pulse = first.pulse
        d2 = d * d

        h_static = np.array([s.h_static for s in systems], dtype=complex)
        heff = h_static.copy()
        eye = np.eye(d)[None]
        lab = []  # L0 x = -i heff x + i x heff^dag + sum_k L_k x L_k^dag
        for k, (op, _) in enumerate(first.channels):
            root = np.sqrt([s.channels[k][1] for s in systems])[:, None, None]
            jump = root * np.asarray(op, dtype=complex)
            jump_dag = jump.conj().swapaxes(1, 2)
            heff -= 0.5j * jump_dag @ jump
            lab.append(_kron(jump, jump_dag))
        lab += [_kron(-1j * heff, eye), _kron(eye, 1j * heff.conj().swapaxes(1, 2))]
        lab, lab_rem = zip(*map(_split, lab))
        self._lab = _coalesce(d2, 1, lab), _coalesce(d2, nb, lab_rem)

        shared = [self._lab[0]]
        remainder = [self._lab[1]]
        drive = []
        if first.h_drive is not None and self.pulse is not None and self.pulse.area > 0:
            h_drive = np.asarray(first.h_drive, dtype=complex)[None]
            drive = [_kron(-1j * h_drive, eye), _kron(eye, 1j * h_drive)]

        m = 1
        self.emit = self.nop = None
        if emit is not None:
            self.emit = np.broadcast_to(np.asarray(emit, dtype=complex), (nb, d, d))
            self.nop = self.emit.conj().swapaxes(1, 2) @ self.emit
            nvec = self.nop.swapaxes(1, 2).reshape(nb, d2)  # <N|x> = nvec . vec(x)
            cols = np.flatnonzero(np.any(nvec != 0, axis=0))
            readout = _split((np.zeros_like(cols), cols, nvec[:, cols]))
            m = 2 if pairs else 1
            if pairs:  # X: L0 on its own block, fed by J rho; p reads X
                source = _split(_kron(self.emit, self.emit.conj().swapaxes(1, 2)))
                for parts, k in ((shared, 0), (remainder, 1)):
                    parts += [_shift(p, d2, d2) for p in parts]
                    parts += [_shift(source[k], d2, 0), _shift(readout[k], 2 * d2 + 1, d2)]
                drive += [_shift(p, d2, d2) for p in drive]
            shared.append(_shift(readout[0], m * d2, 0))
            remainder.append(_shift(readout[1], m * d2, 0))
        full = _Coordinates(d, m, m if emit is not None else 0)
        size = full.size

        # the static and the drive part on the pattern of both
        self.driven = bool(drive)
        parts = [(r, c, np.stack([np.ravel(v), 0 * np.ravel(v)]))
                 for r, c, v in map(full.realify, shared)]
        parts += [(r, c, np.stack([0 * np.ravel(v), np.ravel(v)]))
                  for r, c, v in map(full.realify, drive)]
        rows, cols, both = _coalesce(size, 2, parts)
        rem_rows, rem_cols, rem = _coalesce(size, nb, remainder)
        on_diag = rem_rows == rem_cols
        rem_diag = np.zeros((nb, size), dtype=complex)
        rem_diag[:, rem_rows[on_diag]] = rem[:, on_diag]
        off_diag = ~on_diag
        blocks = _coalesce(size, nb, [full.realify(
            (rem_rows[off_diag], rem_cols[off_diag], rem[:, off_diag]))])

        if initial is None or len(initial) == 0:
            start = np.ones(size, dtype=bool)
        else:
            start = np.zeros(size, dtype=bool)
            start[full._cols[initial]] = True
        keep = np.flatnonzero(_closure(start, full.pairs, np.concatenate([rows, blocks[0]]),
                                       np.concatenate([cols, blocks[1]])))
        index = np.full(size, -1)
        index[keep] = np.arange(len(keep))
        coords = self.coords = full.kept(keep)
        size = self.size = coords.size
        self.pairs = coords.pairs

        reached = index[cols] >= 0
        rows, cols = index[rows[reached]], index[cols[reached]]
        self.static, self.drive = np.zeros((2, size, size))  # transposed, for rows @ op
        self.static[cols, rows], self.drive[cols, rows] = both[:, reached]

        self.rem_phase = self.rem_real = self.rem_blocks = None
        if np.any(rem_diag[:, coords.upper] != 0):
            self.rem_phase = rem_diag[:, coords.upper]
        if np.any(rem_diag[:, coords.real] != 0):
            self.rem_real = rem_diag[:, coords.real].real.copy()
        rows, cols, rem = blocks
        reached = index[cols] >= 0
        if np.any(reached):  # row b's entries, flat: out[b, r] += v z[b, c]
            shift = np.arange(nb)[:, None] * size
            self.rem_blocks = ((index[rows[reached]] + shift).ravel(),
                               (index[cols[reached]] + shift).ravel(), rem[:, reached].ravel())

    def rhs(self, t, y):
        """dy/dt for the flat real state y (its rows of size D)."""
        z = y.reshape(-1, self.size)
        out = z @ (self.static + float(self.pulse.amplitude(t)) * self.drive
                   if self.driven else self.static)
        if self.rem_phase is not None:
            coherences = out[:, :self.pairs].view(complex)
            coherences += self.rem_phase * z[:, :self.pairs].view(complex)
        if self.rem_real is not None:
            out[:, self.pairs:] += self.rem_real * z[:, self.pairs:]
        if self.rem_blocks is not None:
            scatter, gather, values = self.rem_blocks
            out += np.bincount(scatter, z.reshape(-1).take(gather) * values,
                               minlength=z.size).reshape(z.shape)
        return out.reshape(y.shape)

    def lab_liouvillian(self, group=slice(None)):
        """Drive-free lab-frame generators of the systems that the slice
        `group` selects, a new (g, d^2, d^2) stack on row-major vec(rho)."""
        (rows, cols, vals), (rem_rows, rem_cols, rem) = self._lab
        rem = rem[group]
        d2 = self.dim * self.dim
        out = np.zeros((len(rem), d2, d2), dtype=complex)
        out[:, rows, cols] = vals[0]
        out[:, rem_rows, rem_cols] += rem
        return out


def _closure(start, pairs, rows, cols):
    """The mask of the coordinates that a generator with non-zeros at
    (rows, cols) reaches from the mask `start`, with both entries of each
    pair among the first `pairs` coordinates."""
    reach = start
    while True:
        grown = reach.copy()
        grown[rows[reach[cols]]] = True
        grown[:pairs] = np.repeat(grown[:pairs].reshape(-1, 2).any(axis=1), 2)
        if np.array_equal(grown, reach):
            return reach
        reach = grown


def _same_drive_and_channels(a: SystemModel, b: SystemModel) -> bool:
    """Do two systems share the pulse, the drive operator and the channel
    operators (their rates may differ)?  A None drive matches only None."""
    ops = [(a.h_drive, b.h_drive), *((p, q) for (p, _), (q, _) in zip(a.channels, b.channels))]
    return a.pulse == b.pulse and len(a.channels) == len(b.channels) and all(
        p is q or np.array_equal(p, q) for p, q in ops)


def _make_step_cap(pulse):
    """Largest allowed step when standing at time t (pulse-window aware)."""
    if pulse is None or pulse.area == 0:
        return lambda t: np.inf
    lo = pulse.offset - 4.0 * pulse.length
    hi = pulse.offset + 4.0 * pulse.length
    inside = (hi - lo) / MIN_STEPS_PER_PULSE

    def cap(t):
        if t < lo - 1e-12:
            return lo - t
        if t < hi:
            return inside
        return np.inf

    return cap


def _rms(coords, x):
    """RMS of the flat x, whose rows hold the kept coordinates of `coords`,
    over all `coords.length` coordinates of each row: those a batch cannot
    reach are 0 and count too, so the step control is that of full rows."""
    return np.sqrt(np.sum(x ** 2) / (x.size // coords.size * coords.length))


def _error_norm(coords, e5, e3, abs_old, abs_new, cfg):
    """DOP853's combined error estimate r5^2 / sqrt(r5^2 + 0.01 r3^2), r5 and
    r3 the RMS (`_rms`) of the fifth- and third-order estimates scaled by
    abs_tol + rel_tol max(|y_old|, |y_new|), given the two states'
    magnitudes (`_Coordinates.magnitudes`)."""
    scale = cfg.abs_tol + cfg.rel_tol * np.maximum(abs_old, abs_new)
    r5 = _rms(coords, e5 / scale)
    return 0.0 if r5 == 0.0 else float(r5 * r5 / np.hypot(r5, 0.1 * _rms(coords, e3 / scale)))


def _initial_step(gen, t0, y0, f0, cap, cfg):
    scale = cfg.abs_tol + cfg.rel_tol * gen.coords.magnitudes(y0)
    d0 = _rms(gen.coords, y0 / scale)
    d1 = _rms(gen.coords, f0 / scale)
    h = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    return min(h, cap)


def _step_factor(enorm):
    """The next step over this one for the error estimate `enorm`."""
    return 10.0 if enorm == 0.0 else min(10.0, max(0.2, 0.9 * enorm ** -0.125))


def _advance(gen, t, y, t_target, cfg, cap_fn, h=None, k1=None):
    """Step the flat real state y from t to t_target with DOP853.  The twelve
    stages sit in one (12, n) array, so each stage's input and the step's
    solution and two error estimates are each one matmul with the tableau;
    the derivative at an accepted point is the next step's first stage, and
    the magnitudes of the accepted state serve the next step's error norm.
    `h`, the proposed step size, and `k1`, the derivative at (t, y), carry
    over from a previous interval when given.  Returns (y, h, k1) at
    t_target."""
    k = np.empty((12, y.size))
    k[0] = gen.rhs(t, y) if k1 is None else k1
    if h is None:
        h = _initial_step(gen, t, y, k[0], min(cap_fn(t), t_target - t), cfg)
    abs_y = gen.coords.magnitudes(y)

    while t < t_target - _MIN_REL_STEP * max(1.0, abs(t_target)):
        step = min(h, cap_fn(t), t_target - t)
        rejects = 0
        while True:
            if step < _MIN_REL_STEP * max(1.0, abs(t)):
                raise StepSizeUnderflow(f"step size underflow at t={t:.6g}")
            for i in range(1, 12):
                k[i] = gen.rhs(t + _DOP_C[i] * step, y + (step * _DOP_A[i, :i]) @ k[:i])
            y_new, e5, e3 = (step * _DOP_B) @ k
            y_new += y
            abs_new = gen.coords.magnitudes(y_new)
            enorm = _error_norm(gen.coords, e5, e3, abs_y, abs_new, cfg)
            if enorm <= 1.0:
                break
            rejects += 1
            if rejects > _MAX_REJECTS:
                raise StepSizeUnderflow(f"too many rejected steps at t={t:.6g}")
            step *= _step_factor(enorm)

        t = t + step
        y, abs_y = y_new, abs_new
        k[0] = gen.rhs(t, y)
        h = step * _step_factor(enorm)
    return y, h, k[0].copy()


def _walk(gen, y, t, stops, cfg):
    """Step the state y of `gen` from time t through the times `stops`,
    yielding the state at each.  The step size and the first stage carry
    over from stop to stop; a stop at the current time yields the state
    unchanged.  Raises ValueError for a stop before the one preceding it
    (or before t)."""
    cap_fn = _make_step_cap(gen.pulse)
    h = k1 = None
    for stop in stops:
        if stop < t:
            raise ValueError(f"sample times must not decrease: {stop:g} after {t:g}")
        if stop > t:
            y, h, k1 = _advance(gen, t, y, stop, cfg, cap_fn, h, k1)
            t = stop
        yield y


def physicality_report(states: np.ndarray) -> PhysicalityReport:
    """Trace drift, Hermiticity violation and minimum eigenvalue over the
    (n_times, d, d) density matrices `states`."""
    traces = np.einsum("tnn->t", states)
    herm = np.max(np.abs(states - states.conj().transpose(0, 2, 1)))
    eigs = np.linalg.eigvalsh(states)
    return PhysicalityReport(
        max_trace_drift=float(np.max(np.abs(traces - 1.0))),
        max_hermiticity_violation=float(herm),
        min_eigenvalue=float(np.min(eigs)),
    )


def emission_series(systems, emit: np.ndarray, grid, cfg: IntegratorConfig | None = None,
                    rho0: np.ndarray | None = None) -> np.ndarray:
    """<emit^dag emit>(t) on `grid` for a batch of systems propagated in
    lockstep from the Hermitian `rho0` (ground state when omitted).

    It is the one entry that starts from any state (emission_integrals
    starts from the ground state): the line of an undriven, excited emitter
    is read through it, and so are perfbench's spectrum warm-up and
    make_references.py.  `rho0` is the state at t = 0, whatever the grid:
    the grid must not decrease, and a first point after 0 reads the state
    propagated to it (ValueError for a point before 0 or below its
    predecessor).
    """
    cfg = cfg or DEFAULT_INTEGRATOR
    grid = np.asarray(grid, dtype=float)
    if rho0 is not None and len(systems) and np.shape(rho0) != (systems[0].dimension,) * 2:
        raise DimensionMismatch(f"rho0 has shape {np.shape(rho0)}, system dimension is "
                                f"{systems[0].dimension}")
    gen = _Generator(systems, initial=[0] if rho0 is None else np.flatnonzero(rho0))
    emit = np.asarray(emit, dtype=complex)
    # <N|x> = tr(N x) is the dot product of the coordinates of N and x
    weights = gen.coords.encode((emit.conj().T @ emit).ravel())

    y = np.zeros((gen.nbatch, gen.coords.length), dtype=complex)
    if rho0 is None:
        y[:, 0] = 1.0
    else:  # the rows are stepped as Hermitian blocks
        rho0 = np.asarray(rho0)
        if np.max(np.abs(rho0 - rho0.conj().T)) > HERMITICITY_TOL * max(1.0, np.max(np.abs(rho0))):
            raise ValueError("rho0 must be Hermitian")
        y[:] = np.ravel(rho0)
    out = np.empty((gen.nbatch, len(grid)))
    for k, y in enumerate(_walk(gen, gen.coords.encode(y).ravel(), 0.0, grid, cfg)):
        out[:, k] = y.reshape(gen.nbatch, -1) @ weights
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


def emission_integrals(systems, emit: np.ndarray, times=None, cfg: IntegratorConfig | None = None,
                       pairs: bool = True) -> EmissionIntegrals:
    """n = int <e^dag e>(t) dt and, with `pairs`, the time-ordered pair
    integral G = int int <T-[e^dag(t1) e^dag(t2)] T+[e(t2) e(t1)]> dt1 dt2
    over [0, inf)^2, for a batch of systems started in the ground state.
    `emit` is one operator for the whole batch, (d, d), or one per system,
    (B, d, d).

    One forward pass over the pulse window [0, t_c], t_c = drive_cutoff(pulse),
    carries the rows rho and X and the scalars q = int <N|rho> dt and
    p = int <N|X> dt (see _Generator); X(t2) is the single row
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
    each, which must not decrease or precede 0 (ValueError).  It reaches
    those past t_c by stepping on after reading the stop at t_c, so n and G
    do not depend on them.  Their error budget is the DOP853 tolerance of
    `cfg`, with the drive below e^-32 of its peak that the tails drop; they
    agree with e^(L0 (t - t_c)) rho_c to < 1e-10 (up to t_c + 6, sensor
    batches of the two-level emitter and of the exciton line).
    """
    cfg = cfg or DEFAULT_INTEGRATOR
    m = 2 if pairs else 1
    gen = _Generator(systems, emit, pairs, initial=[0])
    nb, d = gen.nbatch, gen.dim
    emit, nop = gen.emit, gen.nop
    t_c = drive_cutoff(gen.pulse)
    times = np.linspace(0.0, t_c, WINDOW_SAMPLES) if times is None else np.asarray(times, float)

    scale = np.maximum(1.0, np.max(np.abs(emit), axis=(1, 2)))
    if np.any(np.max(np.abs(emit[:, :, 0]), axis=1) > 1e-12 * scale):
        raise TailPremiseError("`emit` must leave the ground state dark")

    y = np.zeros((nb, gen.coords.length), dtype=complex)
    y[:, 0] = 1.0
    states = np.empty((nb, len(times), d * d), dtype=complex)
    # the stop at t_c follows the sample times up to it (a sample time that
    # decreases, across t_c too, makes _walk raise)
    inside = int(np.count_nonzero(times <= t_c))
    stops = [*times[:inside], t_c, *times[inside:]]
    for k, y in enumerate(_walk(gen, gen.coords.encode(y).ravel(), 0.0, stops, cfg)):
        y = gen.coords.decode(y.reshape(nb, -1))
        if k == inside:
            rows = y
        else:
            states[:, k - (k > inside)] = y[:, :d * d]
    lab = rows[:, :m * d * d].reshape(nb, m, d * d)  # rho_c, X_c
    integrals = rows[:, m * d * d:]  # q_c, p_c
    ground = np.zeros(d * d, dtype=complex)
    ground[0] = 1.0
    trace = np.eye(d).ravel()
    deflate = np.outer(ground, trace)  # |rho_ss><1|
    nvec = nop.transpose(0, 2, 1).reshape(nb, 1, d * d)  # <N|x> = tr(N x) = nvec . vec(x)
    n_int = np.empty(nb)
    g_int = np.empty(nb) if pairs else None
    size = max(1, _TAIL_GROUP_BYTES // (16 * d**4))
    for lo in range(0, nb, size):
        group = slice(lo, lo + size)
        l0 = gen.lab_liouvillian(group)
        if np.any(np.max(np.abs(l0[:, :, 0]), axis=1)
                  > 1e-12 * np.maximum(1.0, np.max(np.abs(l0), axis=(1, 2)))):
            raise TailPremiseError("the ground state must be steady")
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
    n_series = (states @ nvec.swapaxes(1, 2))[:, :, 0].real
    return EmissionIntegrals(n_int, g_int, times, n_series, states.reshape(nb, len(times), d, d))


def _step_propagators(gen, times, cfg):
    """Lab-frame propagators of the intervals of `times` for the one system
    of `gen`: vec(rho(t_k+1)) = P_k vec(rho(t_k)) on row-major vec, shape
    (len(times) - 1, d^2, d^2).

    An interval that starts inside the drive window [0, t_c],
    t_c = drive_cutoff(pulse), steps the d^2 real unit vectors as the rows
    of one DOP853 pass (the first stage restarts per interval); their
    images are the columns of the real propagator P_r, and P_k = T P_r T^H
    with T the unitary `decode` of the coordinates.  Later intervals see the constant
    generator L0 and take expm(L0 h), once per distinct h.
    """
    from scipy.linalg import expm

    d2 = gen.dim * gen.dim
    t_c = drive_cutoff(gen.pulse)
    steps = np.diff(times)
    driven = times[:-1] < t_c
    props = np.empty((len(steps), d2, d2), dtype=complex)
    units = np.eye(d2)
    basis = gen.coords.decode(units)  # T^T: row j is vec of basis operator j
    cap_fn = _make_step_cap(gen.pulse)
    h = None
    for k in np.flatnonzero(driven):
        y, h, _ = _advance(gen, times[k], units.ravel(), times[k + 1], cfg, cap_fn, h)
        props[k] = basis.T @ y.reshape(d2, d2).T @ basis.conj()
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
    carry the DOP853 tolerance of `cfg` on O(1) basis entries; past t_c the
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
