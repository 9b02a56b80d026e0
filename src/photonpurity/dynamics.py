"""Master-equation propagation, emission integrals and two-time correlation maps.

Density matrices are plain complex ndarrays; all stored states and readouts
are in the laser rotating frame (the lab frame here).

The driven stretch, and every interval of a two-time map, is integrated by
one stepper, Dormand & Prince's embedded 8(5,3) pair DOP853 (`_walk`), on
real rows: the coordinates of rho in an orthonormal Hermitian operator
basis, optionally followed by those of a collapsed row X and real scalar
emission accumulators.  The Lindblad generator preserves Hermiticity, so it
is a real matrix on these coordinates, at a quarter of the flops of the
complex one on vec(rho).  Its right-hand side, _Generator, is the lab-frame
window superoperator of a whole batch of systems (all the filter centers or
sweep points of a command, at every pulse length): one dense real matmul of
the rows of each pulse length with a shared operator, plus what each system
adds on its own non-zeros.  Each system runs on its pulse clock, so pulses
of one area share one drive envelope, window and cutoff.  The rows hold
only the coordinates that can be non-zero: those the initial rows can
reach, in the lab frame (a detuned line, such as the cascade's exciton line
150 gamma from the laser, turns the phase of its coherences there, and a
filter detuning only adds to that turn), and under a resonant drive only
the live entry of each coherence pair, the one that the sign matrix S of
mirror_signs leaves free (a resonant two-level sensor batch keeps 44 of its
74).  Rows become complex vec(rho) only where values leave a pass, and
where a two-time map applies the collapse J x = e x e^dag.

emission_integrals is the one pass entry, and it samples nothing: it walks
the ground-state rows over the pulse window [0, t_c] in one stop, past which
the generator is the constant lab-frame Liouvillian L0, and closes the tails
of the emission integrals with a resolvent on the same real coordinates, one
batched real solve per block (_Generator.settle).  emission_series walks its
own stops through a grid and reads <N|rho> at each; only the benchmark
(perfbench/) calls it.  two_time_g2_map chains per-interval propagators on
the real coordinates: one walk of the d^2 real unit rows through every node
of its grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SystemModel


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
    forced across the pulse window [0, 8 tau] so narrow pulses are never
    stepped over.

    The commands run at DEFAULT_INTEGRATOR, where the error budgets are
    stated; a tighter config is for the references they are measured against.
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
_DOP_STAGES = tuple((float(_DOP_C[i]), _DOP_A[i, :i]) for i in range(1, 12))

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


def _joined(parts):
    """The COO parts as one, their entries in order; values (n,) count as
    (1, n)."""
    rows, cols, vals = zip(*parts)
    return (np.concatenate(rows), np.concatenate(cols),
            np.concatenate([np.atleast_2d(v) for v in vals], axis=1))


def _coalesce(size, parts):
    """Sum the duplicate entries of COO parts (rows, cols, values) of a
    size x size matrix, whose values are (nb, n).  Returns the unique rows
    and cols, sorted row-major, and the (nb, nu) sums, with the entries
    that sum to zero in every row dropped."""
    keys = np.concatenate([p[0] * size + p[1] for p in parts])
    order = np.argsort(keys, kind="stable")  # each key's entries in their order
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    vals = np.concatenate([p[2].T for p in parts])
    vals, keys = np.add.reduceat(vals[order], starts, axis=0), keys[starts]
    keep = np.any(vals != 0, axis=1)
    return keys[keep] // size, keys[keep] % size, vals[keep].T


def mirror_signs(hams, ops):
    """The diagonal s of a sign matrix S (entries +-1) with S conj(H) S = -H
    for every H of `hams` and S conj(O) S = +-O for every O of `ops` (each a
    (d, d) matrix or a stack of them, the sign per matrix), or None.  The
    signs come from a walk over the non-zeros of all `hams`, a real entry
    giving its two states opposite signs, any other the same; every
    condition is then checked exactly, so None also where an S the walk
    does not find might exist.

    Such an S maps a solution rho(t) of the Lindblad equation of these
    Hamiltonians (with a real drive amplitude) and jump operators onto
    another, S conj(rho(t)) S, so it fixes a state that starts fixed: each
    coherence rho_mn is then real when s_m s_n = 1 and imaginary when it is
    -1, as is each collapsed row J x = O x O^dag of one that is."""
    d = np.shape(hams[0])[-1]
    hams = np.concatenate([np.reshape(h, (-1, d, d)) for h in hams])
    if np.any(np.diagonal(hams, axis1=1, axis2=2)):
        return None  # S conj(H) S = -H needs a zero diagonal
    nonzero, imag = np.any(hams != 0, axis=0), np.any(hams.imag != 0, axis=0)
    signs = np.zeros(d)
    for root in range(d):
        if signs[root]:
            continue
        signs[root] = 1.0
        stack = [root]
        while stack:
            i = stack.pop()
            for j in np.flatnonzero(nonzero[i] & (signs == 0)):
                signs[j] = signs[i] if imag[i, j] else -signs[i]
                stack.append(j)

    def mirror(op):
        return signs[:, None] * np.conj(op) * signs

    if not np.array_equal(mirror(hams), -hams):
        return None
    for op in map(np.asarray, ops):
        image = mirror(op)
        if not np.all(np.all(image == op, axis=(-2, -1)) | np.all(image == -op, axis=(-2, -1))):
            return None
    return signs


_SQRT2 = np.sqrt(2.0)


class _Coordinates:
    """Real coordinates of rows that hold `blocks` Hermitian d x d matrices,
    each as row-major vec, followed by `scalars` real numbers.

    The coordinates are those of an orthonormal Hermitian operator basis:
    x_mm, and sqrt2 Re x_mn, sqrt2 Im x_mn for m < n.  The coherences of all
    blocks come first, each pair (Re, Im) adjacent, so the first `pairs`
    entries of a row viewed as complex hold sqrt2 x_mn (or, after `kept`,
    one entry per pair); the diagonals of all blocks and the scalars
    follow.  `encode` and `decode` convert between
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
        self.imag = None

    def kept(self, keep):
        """These coordinates restricted to the sorted indices `keep`, which
        hold both entries of every pair they touch or one entry of each:
        `encode` then gives only the kept coordinates of a row, and `decode`
        puts 0 at the others.  The kept coherence entries still come first;
        with one entry per pair, `imag` marks those that hold sqrt2 Im x_mn
        (the others sqrt2 Re x_mn).  `realify` stays with the full
        coordinates."""
        out = object.__new__(_Coordinates)
        entries = keep[keep < self.pairs]
        pairs, out.imag = entries // 2, entries % 2 == 1
        if np.any(np.diff(pairs) == 0):  # both entries of each pair
            pairs, out.imag = pairs[::2], None
        out.upper, out.lower = self.upper[pairs], self.lower[pairs]
        out.real = self.real[keep[keep >= self.pairs] - self.pairs]
        out.pairs, out.size, out.length = len(entries), len(keep), self.length
        return out

    def behind(self):
        """The vec entry behind each coordinate: x_mn of its coherence, or
        its diagonal entry or scalar."""
        upper = self.upper if self.imag is not None else np.repeat(self.upper, 2)
        return np.concatenate([upper, self.real])

    def encode(self, rows):
        """Real rows of the complex vec rows (..., length) of Hermitian blocks."""
        rows = np.asarray(rows)
        out = np.empty(rows.shape[:-1] + (self.size,))
        upper = _SQRT2 * rows[..., self.upper]
        if self.imag is None:
            out[..., 0:self.pairs:2] = upper.real
            out[..., 1:self.pairs:2] = upper.imag
        else:
            out[..., :self.pairs] = np.where(self.imag, upper.imag, upper.real)
        out[..., self.pairs:] = rows[..., self.real].real
        return out

    def decode(self, rows):
        """Complex vec rows (..., length) of the real rows (..., size)."""
        out = np.zeros(rows.shape[:-1] + (self.length,), dtype=complex)
        if self.imag is None:
            re, im = rows[..., 0:self.pairs:2], rows[..., 1:self.pairs:2]
        else:
            entries = rows[..., :self.pairs]
            re, im = np.where(self.imag, 0.0, entries), np.where(self.imag, entries, 0.0)
        upper = (re + 1j * im) / _SQRT2
        out[..., self.upper] = upper
        out[..., self.lower] = upper.conj()
        out[..., self.real] = rows[..., self.pairs:]
        return out

    def magnitudes(self, y):
        """|x| of the complex vec entry behind each coordinate of the flat
        state y (its rows of size `size`, C-contiguous): a coherence's
        modulus |x_mn| on each of its entries, |y| on the others.  The
        stepper's error norm is thus the one of complex vec rows, and it
        does not depend on the phase to which a coherence has turned."""
        z = y.reshape(-1, self.size)
        out = np.abs(z)
        if self.imag is None:
            pairs = np.abs(z[:, :self.pairs].view(complex)) / _SQRT2
            out[:, 0:self.pairs:2] = out[:, 1:self.pairs:2] = pairs
        else:  # the other entry of each pair is 0
            out[:, :self.pairs] /= _SQRT2
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
    pulse area, the drive operator and the channel operators (rates,
    h_static and the pulse length may differ per system), acting on real
    rows of the D coordinates that can be non-zero.

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

    `rho0` is the rho of every initial row (X and the scalars start at 0),
    or None for rows that may start anywhere: those keep every coordinate.
    Otherwise the rows keep, in order, the closure of the coordinates of
    rho0 and of the ground state (where `settle` deflates) under the
    pattern of all parts, with both coordinates of each coherence pair.
    Where the sign matrix S of mirror_signs fixes every system's
    Hamiltonians, channels and `emit` (a resonant drive with every filter
    center at 0) and rho0 = S conj(rho0) S, S fixes every row at all times,
    so each coherence x_mn is real when s_m s_n = 1 and imaginary when it
    is -1, and the rows keep only that entry of each pair.  The others stay
    exactly 0 (cf. Albert & Jiang, PRA 89, 022118 (2014)), and the error
    norms divide by the full row size (`_rms`) while a pair's one entry
    carries its modulus (`_Coordinates.magnitudes`), so the steps are those
    of full rows.  From the ground state a pair row of the cascade's
    exciton line keeps 86 of 290 coordinates, one of a resonant two-level
    sensor batch 44 of 74, and a spectrum row (one-photon sensor) 17 on the
    two-level line and 27 on the exciton line.

    The batch steps the time t of the first system.  System b, whose pulse
    is r_b = tau_b / tau_1 times as long (`stretch`), runs on its pulse
    clock: dy/dt = r_b L_b(r_b t) y, so its rows hold its state at r_b t,
    its drive term r_b amp_b(r_b t) is amp_1(t), and its window and cutoff
    are the first pulse's.  One pulse length (r_b = 1) steps dy/dt = L y.

    Each operator is built on vec from COO parts and turned into a real one
    by `_Coordinates.realify` before its entries are summed.  The shared
    part, from the first system's static generator, J and readout rows, is
    scaled by the stretch of each chunk of the batch (the runs of systems of
    one pulse length, cut into chunks of one size): a (G, D, D) stack, whose
    copy `_ops` takes static + amp_1(t) drive on the drive's non-zeros at
    each call; the rows of each chunk take its operator in one batched
    (G, rows, D) @ (G, D, D) matmul.  What the other systems add, scaled by
    their stretch, is one block-diagonal product on the entries where it
    differs from the first system (`rem_blocks`: a gather, multiply and
    bincount on flat indices, unscaled in `remainder`): the couplings, rates
    and readout scales, and the diagonal entries on vec (filter detuning,
    the damping of a width or a rate), each a 2 x 2 rotation on a coherence
    pair.  A step forms no (B, D, D) stack; `settle` forms one for the
    tails.

    The rows are those of the lab frame: the coherences of a line detuned
    from the laser turn at its static plus its filter detuning.
    """

    def __init__(self, systems, emit=None, pairs=False, rho0=None):
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
        self.pulse = first.pulse  # the drive envelope and window of every system
        lengths = np.array([s.pulse.length for s in systems])
        self.stretch = lengths / lengths[0]
        # the runs of systems of one pulse length, cut into chunks of one size
        starts = np.flatnonzero(np.r_[True, self.stretch[1:] != self.stretch[:-1]])
        chunks = np.arange(0, nb, np.gcd.reduce(np.diff([*starts, nb])))
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
        shared, remainder = map(list, zip(*map(_split, lab)))
        drive = []
        if self.pulse.area > 0:
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
        size, self.blocks = full.size, m

        # the static and the drive part on the pattern of both
        self.driven = bool(drive)
        r, c, v = full.realify(_joined(shared))
        parts = [(r, c, np.concatenate([v, 0 * v]))]
        if drive:
            r, c, v = full.realify(_joined(drive))
            parts.append((r, c, np.concatenate([0 * v, v])))
        rows, cols, both = _coalesce(size, parts)
        rem_rows, rem_cols, rem = _coalesce(size, [full.realify(_joined(remainder))])

        live = np.ones(size, dtype=bool)
        if rho0 is None:
            start = np.ones(size, dtype=bool)
        else:
            start = np.zeros(size, dtype=bool)
            start[full._cols[np.flatnonzero(rho0)]] = True
            start[full._cols[0]] = True  # the ground state, where the tails settle
            ops = [op for op, _ in first.channels] + ([self.emit] if emit is not None else [])
            signs = mirror_signs([h_static, first.h_drive], ops)
            if signs is not None and np.array_equal(signs[:, None] * np.conj(rho0) * signs, rho0):
                i, j = divmod(full.upper % d2, d)  # drop Im x_ij where s_i s_j = 1, else Re
                live[2 * np.arange(len(i)) + (signs[i] == signs[j])] = False
        keep = np.flatnonzero(live & _closure(start, full.pairs, np.concatenate([rows, rem_rows]),
                                              np.concatenate([cols, rem_cols])))
        index = np.full(size, -1)
        index[keep] = np.arange(len(keep))
        coords = self.coords = full.kept(keep)
        size = self.size = coords.size

        reached = (index[rows] >= 0) & (index[cols] >= 0)
        rows, cols = index[rows[reached]], index[cols[reached]]
        static, drive = np.zeros((2, size, size))  # transposed, for rows @ op
        static[cols, rows], drive[cols, rows] = both[:, reached]
        # one per chunk; the first chunk's stretch is 1, so static[0] is the first system's
        self.static = self.stretch[chunks, None, None] * static  # (G, D, D)
        self._ops = self.static.copy()  # static + amp(t) drive, on the drive's non-zeros
        at = np.flatnonzero(np.broadcast_to(drive != 0, self._ops.shape))
        self._drive = at, self.static.ravel()[at], np.tile(drive[drive != 0], len(chunks))

        # system b's own entries, those of its remainder row that are not 0
        reached = (index[rem_rows] >= 0) & (index[rem_cols] >= 0)
        rem = rem[:, reached]
        batch, entry = np.nonzero(rem)
        self.remainder = (batch, index[rem_rows[reached]][entry],
                          index[rem_cols[reached]][entry], rem[batch, entry])
        self.rem_blocks = None
        if len(batch):  # flat: out[b, r] += v z[b, c]
            _, r, c, v = self.remainder
            self.rem_blocks = r + batch * size, c + batch * size, self.stretch[batch] * v

    def rhs(self, t, y):
        """dy/dt on the batch's clock for the flat real state y (its rows of size D)."""
        z = y.reshape(-1, self.size)
        ops = self._ops  # the static stack itself when undriven
        if self.driven:
            at, base, drive = self._drive
            ops.put(at, base + self.pulse.amplitude(t) * drive)
        out = np.matmul(z.reshape(len(ops), -1, self.size), ops).reshape(z.shape)
        if self.rem_blocks is not None:
            scatter, gather, values = self.rem_blocks
            out += np.bincount(scatter, z.reshape(-1).take(gather) * values,
                               minlength=z.size).reshape(z.shape)
        return out.reshape(y.shape)

    def settle(self, rows):
        """The scalars that the rows (B, D) reach as t -> inf under each
        system's drive-free generator W on its own clock, (B, scalars), for
        blocks that settle to a multiple of the ground state rho_ss.

        W, the static part and the system's remainder, holds the operator
        L0 of each block, the source J of the next block and the readouts.
        Block by block, u = R (x + J u_prev) with the resolvent
        R x = int_0^inf e^(L0 s) (x - tr(x) rho_ss) ds
        = -(L0 + |rho_ss><1|)^-1 (x - tr(x) rho_ss), one batched real solve
        on the block's kept coordinates; each scalar then adds its readout
        of u.  Raises TailPremiseError unless L0 rho_ss = 0."""
        d2 = self.dim ** 2
        behind = self.coords.behind()
        w = np.empty((self.nbatch, self.size, self.size))
        w[:] = self.static[0].T
        batch, r, c, v = self.remainder
        w[batch, r, c] += v
        diagonal = np.arange(self.size) >= self.coords.pairs
        u = np.zeros_like(rows)
        for k in range(self.blocks):
            on = np.flatnonzero(behind // d2 == k)
            a = w[:, on[:, None], on]  # L0 on the block
            x = rows[:, on]
            if k:  # plus the source J u of the block before
                x = x + (w[:, on] @ u[:, :, None])[:, :, 0]
            trace = diagonal[on]
            for g in np.flatnonzero(behind[on] == k * d2):  # the block's ground state, if kept
                scale = np.maximum(a.max(axis=(1, 2)), -a.min(axis=(1, 2)))  # max |a|
                if np.any(np.max(np.abs(a[:, :, g]), axis=1) > 1e-12 * np.maximum(1.0, scale)):
                    raise TailPremiseError("the ground state must be steady")
                a[:, g, trace] += 1.0
                x[:, g] -= np.sum(x[:, trace], axis=1)
            u[:, on] = -np.linalg.solve(a, x[:, :, None])[:, :, 0]
        scalars = np.flatnonzero(behind >= self.blocks * d2)
        out = np.zeros((self.nbatch, self.coords.length - self.blocks * d2))
        out[:, behind[scalars] - self.blocks * d2] = (
            rows[:, scalars] + (w[:, scalars] @ u[:, :, None])[:, :, 0])
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
    """Do two systems share the pulse area, the drive operator and the
    channel operators (their rates and pulse lengths may differ)?"""
    if a.pulse.area != b.pulse.area or len(a.channels) != len(b.channels):
        return False
    if a.h_drive is b.h_drive and a.channels is b.channels:  # copies of one model
        return True
    ops = [(a.h_drive, b.h_drive), *((p, q) for (p, _), (q, _) in zip(a.channels, b.channels))]
    return all(p is q or np.array_equal(p, q) for p, q in ops)


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


def _step_factor(enorm):
    """The next step over this one for the error estimate `enorm`."""
    return 10.0 if enorm == 0.0 else min(10.0, max(0.2, 0.9 * enorm ** -0.125))


def _walk(gen, y, t, stops, cfg):
    """Step the flat real state y of `gen` with DOP853 from time t through
    the times `stops` (of its first system), yielding the state at each; a
    stop at the current time yields the state unchanged.  Raises ValueError
    for a stop before the one preceding it (or before t), and
    StepSizeUnderflow for a driven batch whose pulse window is too short for
    MIN_STEPS_PER_PULSE steps above the smallest step, which would step over
    the drive.

    The twelve stages sit in one (12, n) array, so each stage's input and
    the step's solution and two error estimates are each one matmul with
    the tableau.  The step size, the first stage (the derivative at the
    accepted point) and the state's magnitudes (for the next error norm)
    carry from step to step and from stop to stop.  A state sent back at a
    stop replaces the state there: the walk goes on from it with a new
    first stage and the same step size.  Inside the pulse window [0, 8 tau]
    of a driven batch a step spans at most 1 / MIN_STEPS_PER_PULSE of it."""
    hi = inside = np.inf  # no cap without a drive
    if gen.pulse.area != 0:
        hi = 8.0 * gen.pulse.length
        inside = hi / MIN_STEPS_PER_PULSE
        if inside < _MIN_REL_STEP * max(1.0, hi):  # the drive would be stepped over
            raise StepSizeUnderflow(f"pulse window {hi:.3g} / {MIN_STEPS_PER_PULSE} steps is "
                                    f"below the smallest step {_MIN_REL_STEP:g}")

    def cap(t):
        return inside if t < hi else np.inf

    k = np.empty((12, y.size))
    h = None
    fresh = False  # are k[0] and abs_y those of (t, y)?
    for stop in stops:
        if stop < t:
            raise ValueError(f"sample times must not decrease: {stop:g} after {t:g}")
        if stop > t:
            if not fresh:
                k[0] = gen.rhs(t, y)
                abs_y = gen.coords.magnitudes(y)
                fresh = True
            if h is None:  # the starting step, under the cap and the first stop
                scale = cfg.abs_tol + cfg.rel_tol * abs_y
                d0, d1 = _rms(gen.coords, y / scale), _rms(gen.coords, k[0] / scale)
                h = min(1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1,
                        cap(t), stop - t)
            while t < stop - _MIN_REL_STEP * max(1.0, abs(stop)):
                step = min(h, cap(t), stop - t)
                rejects = 0
                while True:
                    if step < _MIN_REL_STEP * max(1.0, abs(t)):
                        raise StepSizeUnderflow(f"step size underflow at t={t:.6g}")
                    for i, (c, a) in enumerate(_DOP_STAGES, 1):
                        k[i] = gen.rhs(t + c * step, y + (step * a) @ k[:i])
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
            t = stop
        sent = yield y
        if sent is not None:
            y, fresh = sent, False


DRIVE_CUTOFF = 8.0


class TailPremiseError(ValueError):
    """The closed-form tails need, for every system, a steady ground state
    that `emit` leaves dark."""


@dataclass
class EmissionIntegrals:
    """Emission integrals from t = 0 to infinity per system of a batch."""

    n_integral: np.ndarray  # (B,)
    pair_integral: np.ndarray | None  # (B,), None without pairs


def drive_cutoff(pulse) -> float:
    """t_c: DRIVE_CUTOFF pulse lengths past the pulse peak, where the Gaussian
    amplitude has fallen below e^-32 of its peak."""
    return pulse.offset + DRIVE_CUTOFF * pulse.length


def _from_ground(systems, emit, pairs):
    """The _Generator of a batch started in the ground state |0><0| at t = 0,
    and its flat real state there."""
    d = systems[0].dimension if len(systems) else 0
    gen = _Generator(systems, emit, pairs, np.eye(1, d * d).reshape(d, d))
    return gen, gen.coords.encode(np.eye(1, gen.coords.length).repeat(gen.nbatch, 0)).ravel()


def emission_integrals(systems, emit: np.ndarray, cfg: IntegratorConfig | None = None,
                       pairs: bool = True) -> EmissionIntegrals:
    """n = int <e^dag e>(t) dt and, with `pairs`, the time-ordered pair
    integral G = int int <T-[e^dag(t1) e^dag(t2)] T+[e(t2) e(t1)]> dt1 dt2
    over [0, inf)^2, for a batch of systems started at t = 0 in the ground
    state.  `emit` is one operator for the whole batch, (d, d), or one per
    system, (B, d, d).

    One forward pass over the pulse window [0, t_c], t_c = drive_cutoff(pulse),
    carries the rows rho and X and the scalars q = int <N|rho> dt and
    p = int <N|X> dt (see _Generator); X(t2) is the single row
    int_0^t2 U(t2, t1) J rho(t1) dt1 with J x = e x e^dag.  Past t_c the
    generator is the constant lab-frame L0 of h_static, and the tails are
    closed forms of R x = int_0^inf e^(L0 s) (x - tr(x) rho_ss) ds
    = -(L0 + |rho_ss><1|)^-1 (x - tr(x) rho_ss), solved on the real
    coordinates that the pass keeps, from the generator's own drive-free
    parts: one batched real solve for R rho_c and, with `pairs`, one for
    R (X_c + J R rho_c) (_Generator.settle):

        n = q_c + <N|R rho_c>
        G = 2 (p_c + <N|R X_c> + <N|R J R rho_c>),   N = e^dag e.

    Raises TailPremiseError unless L0 rho_ss = 0 and e rho_ss = 0 for the
    ground state rho_ss (the latter gives J rho_ss = 0 and <N|rho_ss> = 0),
    and StepSizeUnderflow for a pulse too short to step (_walk).  Their
    error budget is the DOP853 tolerance of `cfg`, with the drive below
    e^-32 of its peak that the tails drop.
    """
    gen, y = _from_ground(systems, emit, pairs)
    emit = gen.emit
    scale = np.maximum(1.0, np.max(np.abs(emit), axis=(1, 2)))
    if np.any(np.max(np.abs(emit[:, :, 0]), axis=1) > 1e-12 * scale):
        raise TailPremiseError("`emit` must leave the ground state dark")
    (rows,) = _walk(gen, y, 0.0, [drive_cutoff(gen.pulse)], cfg or DEFAULT_INTEGRATOR)
    ends = gen.settle(rows.reshape(gen.nbatch, -1))  # q and p at t = inf
    return EmissionIntegrals(ends[:, 0], 2.0 * ends[:, 1] if pairs else None)


def emission_series(systems, emit: np.ndarray, grid, cfg: IntegratorConfig | None = None):
    """<emit^dag emit>(t) at the times of `grid` for a batch of systems
    started in the ground state, (B, len(grid)): one walk that stops at each
    time, of the first system (_Generator), which must not decrease or
    precede 0 (ValueError).  Carried on past t_c, the walk agrees with
    e^(L0 (t - t_c)) rho_c to < 1e-10 (up to t_c + 6, sensor batches of the
    two-level emitter and of the exciton line)."""
    gen, y = _from_ground(systems, emit, False)
    nvec = gen.nop.swapaxes(1, 2).reshape(gen.nbatch, -1)  # <N|x> = tr(N x) = nvec . vec(x)
    series = np.empty((gen.nbatch, len(grid)))
    for k, y in enumerate(_walk(gen, y, 0.0, grid, cfg or DEFAULT_INTEGRATOR)):
        rho = gen.coords.decode(y.reshape(gen.nbatch, -1))[:, :nvec.shape[1]]
        series[:, k] = np.sum(nvec * rho, axis=1).real
    return series


def _step_propagators(gen, times, cfg):
    """Propagators of the intervals of `times` for the one system of `gen`,
    on its real coordinates and as rows: row @ P[k] steps the real row of
    rho(t_k) to that of rho(t_k+1), shape (len(times) - 1, D, D).

    One `_walk` steps the D real unit rows as one state through every node,
    and at each the unit rows are sent back as the state the next interval
    starts from (the step size carries over, the first stage is that of the
    units); the stepped unit rows are the rows of P[k].
    """
    props = np.empty((len(times) - 1, gen.size, gen.size))
    units = np.eye(gen.size).ravel()
    walk = _walk(gen, units, times[0], times[1:], cfg)
    for k in range(len(props)):
        props[k] = walk.send(None if k == 0 else units).reshape(gen.size, gen.size)
    return props


def two_time_g2_map(system: SystemModel, emit: str, grid,
                    cfg: IntegratorConfig | None = None) -> np.ndarray:
    """Unnormalized two-time second-order correlation map of the output op
    e named `emit`, W(t1, t2) = <T-[e^dag(t1) e^dag(t2)] T+[e(t2) e(t1)]>,
    for a system started in the ground state at t = 0, on `grid` along both
    axes: the (n, n) real array with W(grid[i], grid[j]) at [i, j].

    The grid starts at t = 0 and does not decrease (ValueError otherwise).
    The state is stepped node to node by the interval propagators P_k of
    `_step_propagators`, on the real coordinates of `_Generator`; at node k
    the row J rho(t_k), J x = e x e^dag, joins the rows of earlier nodes,
    all rows step by P_k, and W(t_i, t_j) for t_i <= t_j is <N|row i> at
    node j with N = e^dag e, the dot product of the two rows' coordinates.
    Values for t2 < t1 follow from the symmetry of the time-ordered
    correlator.

    Error budget: every interval carries the DOP853 tolerance of `cfg` on
    O(1) basis entries, and past t_c = drive_cutoff(pulse) the drive is
    below e^-32 of its peak.  The maps on map_grid at tau 0.001, 0.05 and
    0.2 lie within 1e-12 of their maximum of one whose intervals past t_c
    are the exact exponentials e^(L0 h) (3.3e-15, 2.3e-15 and 1.6e-15
    measured).  No grid bias enters: the grid only sets where W is read out
    (at tau 0.05 the map_grid map lies within 5.6e-15 of its maximum of a
    map on its union with 611 even nodes).  At the default tolerance the
    maps on map_grid at tau 0.001, 0.02, 0.05, 0.2 and 1.5 lie within 2e-11
    of their maximum of a rel_tol 1e-12, abs_tol 1e-16 run (7.0e-12,
    7.2e-12, 7.5e-12, 8.3e-12 and 9.7e-16 measured).
    """
    emit = system.output_ops[emit]
    grid = np.asarray(grid, dtype=float)
    if len(grid) == 0 or grid[0] != 0.0 or np.any(np.diff(grid) < 0.0):
        raise ValueError("the grid must start at t = 0 and not decrease")
    gen = _Generator([system])
    d, coords = gen.dim, gen.coords
    props = _step_propagators(gen, grid, cfg or DEFAULT_INTEGRATOR)

    n = len(grid)
    rho = np.zeros((n, gen.size))
    rho[0] = coords.encode(np.eye(1, d * d))[0]  # the ground state
    for k in range(n - 1):
        rho[k + 1] = rho[k] @ props[k]
    states = coords.decode(rho).reshape(n, d, d)
    rows = coords.encode((emit @ states @ emit.conj().T).reshape(n, d * d))
    nvec = coords.encode((emit.conj().T @ emit).ravel())  # <N|x> = tr(N x) = nvec . x
    w_map = np.diag(rows @ nvec)
    for k in range(n - 1):
        rows[:k + 1] = rows[:k + 1] @ props[k]
        w_map[:k + 1, k + 1] = rows[:k + 1] @ nvec
    return w_map + np.triu(w_map, 1).T
