"""Monte Carlo model of the detection chain.

Synthesizes detector click streams from a pulsed source (with optional
two-photon error events, Poissonian background and slow periodic blinking),
correlates them HBT-style into a coincidence histogram, and estimates g2(0)
with the peak-sum estimator: center-peak counts over the mean of the two
neighboring side peaks, each summed over a fixed window, with Poissonian
error propagation.

Synthesis samples the exact per-pulse law in O(photons), not O(pulses):
binomial pair and single counts per block of pulses, then per-photon draws.

The histogram is built by a sweep over the pair offset (Laurence, Fore &
Huser, Opt. Lett. 31, 829 (2006)): each click keeps the range of its
partners in the other list, the clicks with a partner are ordered by
partner count, descending, and pass j bins the j-th partner of the clicks
that still have one, a prefix of that order.  That is O(pairs) time, and
the memory is the histogram plus O(clicks), whatever the pair density.
Each peak window's bin range follows from integer delays, and only the
bins inside the windows are summed.

Of the output files, only the integer CSVs are written here (the histogram,
beside its reader, and the peak sums: write_int_csv).  numpy encodes their
rows a chunk at a time into the exact bytes of "%d,%d\\n": each |x| splits
into base-10^4 limbs, each limb one 4-byte word from a table of digit words,
and NUL bytes fill the slots a row does not use (a sign, a leading limb's
missing digits) until `bytes.translate` deletes them.  That is a few
array passes per column and one translate per chunk: the 1.32 M-row
histogram of a 3300 ns span takes about 0.07 s on one core of a 2-core
x86-64 Xeon, in O(chunk) memory.

Timestamps are int64 picoseconds; configuration times are in ns and rates in
counts per second.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

NS_TO_PS = 1000
_PULSE_BLOCK = 1 << 19  # pulses per RNG substream; the stream a seed gives depends on it
# Rows per encoded write.  Writing a CSV peaks at about 110 bytes per row of
# one chunk, 7 MB at 2^16 rows of 7-digit delays, whatever the row count.
_CSV_CHUNK = 1 << 16
_LIMB = 10_000          # one base-10^4 limb is one 4-byte word of digits


class UnsortedInput(ValueError):
    pass


class WindowOverlap(ValueError):
    pass


class HistogramTooLarge(ValueError):
    """The bins that a span and a bin width ask for cannot be allocated."""


class TimestampOverflow(ValueError):
    """A click time reaches 2^63 ps, past the int64 timestamps."""


class BackgroundTooLarge(ValueError):
    """The background clicks that a noise rate asks for cannot be drawn or
    allocated."""


class MalformedHistogram(ValueError):
    """A histogram CSV whose rows are not centred, evenly spaced delays with
    counts >= 0 in an odd number of bins."""


@dataclass(frozen=True)
class BlinkingConfig:
    """Slow periodic intensity modulation of the emitter (spectral diffusion
    signature): acceptance m(t) = 1 - depth * (1 + mean_f cos(2 pi f t)) / 2."""

    frequencies: tuple[float, ...]  # MHz
    depth: float = 0.5

    def __post_init__(self):
        if not self.frequencies:
            raise ValueError("need at least one blinking frequency")
        if not all(math.isfinite(f) for f in self.frequencies):
            raise ValueError(f"blinking frequencies {self.frequencies} must be finite")
        if not 0.0 <= self.depth <= 1.0:
            raise ValueError("blinking depth must be in [0, 1]")

    def acceptance(self, t_ns):
        # summed one frequency at a time, then divided by the count: the
        # same operations, in the same order, as a mean over axis 0 of the
        # (n_freq, n) cosines, so the stream a seed gives is unchanged
        c = 2e-3 * np.pi
        total = np.zeros(np.shape(t_ns))
        for f in self.frequencies:
            total += np.cos(c * (f * t_ns))
        total /= len(self.frequencies)
        return 1.0 - 0.5 * self.depth * (1.0 + total)


@dataclass(frozen=True)
class StreamConfig:
    """Pulsed-source photon stream parameters.

    Per pulse: with probability p_double emit an instantaneous+reexcited pair
    (first photon Gaussian within the pulse, second exponentially delayed
    after it); otherwise with probability p_single emit one exponentially
    delayed photon.  Poissonian background at noise_rate is superimposed,
    photons route 50:50 onto two detectors and are thinned by
    detection_efficiency.  Blinking modulates emitter photons only.
    `synthesize_stream` samples this law exactly, in O(photons).
    """

    n_pulses: int
    rep_period: float = 13.1        # ns
    p_single: float = 0.1
    p_double: float = 0.0
    emitter_lifetime: float = 0.294  # ns
    pulse_sigma: float = 0.005       # ns
    noise_rate: float = 0.0          # counts / s
    detection_efficiency: float = 1.0
    blinking: BlinkingConfig | None = None

    def __post_init__(self):
        for name in ("n_pulses", "rep_period", "p_single", "p_double", "emitter_lifetime",
                     "pulse_sigma", "noise_rate", "detection_efficiency"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (0.0 <= self.p_double <= self.p_single <= 1.0):
            raise ValueError("need 0 <= p_double <= p_single <= 1")
        if self.rep_period <= 0:
            raise ValueError("rep_period must be > 0")
        if min(self.n_pulses, self.emitter_lifetime, self.pulse_sigma) < 0 or self.noise_rate < 0:
            raise ValueError("rates and counts must be >= 0")
        if not 0.0 < self.detection_efficiency <= 1.0:
            raise ValueError("detection_efficiency must be in (0, 1]")
        if self.duration * NS_TO_PS >= 2.0**63:  # the clicks are int64 ps
            raise ValueError(f"n_pulses * rep_period = {self.duration:g} ns reaches 2^63 ps, "
                             "past the int64 timestamps")

    @property
    def duration(self):
        """Total stream duration in ns."""
        return self.n_pulses * self.rep_period


def _emit_block(cfg: StreamConfig, seed_seq, first_pulse, n_block):
    """Emitter clicks of pulses [first_pulse, first_pulse + n_block).

    The exact per-pulse law, drawn in O(photons): n_pair ~ Binomial(n_block,
    p_double), n_single ~ Binomial(n_block - n_pair, p_single), the emitting
    pulses without replacement in random order (pairs first), then per
    photon a Gaussian offset (pair firsts) or exponential delay (the rest)
    and one uniform u: detector 1 below eta / 2, detector 2 in
    [eta / 2, eta), lost above.  Blinking adds an acceptance uniform.
    """
    rng = np.random.default_rng(seed_seq)
    n_pair = rng.binomial(n_block, cfg.p_double)
    n_single = rng.binomial(n_block - n_pair, cfg.p_single)
    pulses = first_pulse + rng.choice(n_block, n_pair + n_single, replace=False)
    pulse_t = pulses * cfg.rep_period
    # pair firsts (inside the pulse), then the delayed photons: pair
    # partners after their firsts, lone singles after their pulses
    t_first = pulse_t[:n_pair] + rng.normal(0.0, cfg.pulse_sigma, n_pair)
    t_late = np.concatenate((t_first, pulse_t[n_pair:]))
    t = np.concatenate((t_first, t_late + rng.exponential(cfg.emitter_lifetime, len(t_late))))
    u = rng.random(len(t))
    if cfg.blinking is not None:
        u[rng.random(len(t)) >= cfg.blinking.acceptance(t)] = np.inf  # blinked off: lost
    eta = cfg.detection_efficiency
    det1 = u < eta / 2
    return t[det1], t[~det1 & (u < eta)]


def synthesize_stream(cfg: StreamConfig, seed: int):
    """Simulate the two detector click lists (sorted int64 ps timestamps).

    Deterministic for a given (cfg, seed): pulses are processed in fixed
    blocks of 2^19, block k drawing from SeedSequence(seed).spawn()[k]; the
    background uses the independent stream SeedSequence((seed, 1)).  Each
    block draws per photon, not per pulse (`_emit_block`).  A click at or
    past 2^63 ps (a delay of that order: StreamConfig bounds the duration,
    not the exponential draws) is TimestampOverflow, and a background that
    cannot be drawn or allocated is BackgroundTooLarge.
    """
    n_blocks = int(np.ceil(cfg.n_pulses / _PULSE_BLOCK)) if cfg.n_pulses else 0
    children = np.random.SeedSequence(seed).spawn(n_blocks)
    parts1, parts2 = [], []
    for k in range(n_blocks):
        first = k * _PULSE_BLOCK
        n_block = min(_PULSE_BLOCK, cfg.n_pulses - first)
        d1, d2 = _emit_block(cfg, children[k], first, n_block)
        parts1.append(d1)
        parts2.append(d2)

    if cfg.noise_rate > 0:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
        expected = cfg.noise_rate * cfg.duration * 1e-9
        try:
            n_noise = rng.poisson(expected)
            t_noise = rng.random(n_noise) * cfg.duration
            route = rng.random(n_noise) < 0.5
            keep = rng.random(n_noise) < cfg.detection_efficiency
        except (MemoryError, ValueError) as err:  # ValueError: lam past numpy's Poisson limit
            raise BackgroundTooLarge(f"{cfg.noise_rate:g} counts/s over {cfg.duration:g} ns "
                                     f"expect {expected:g} background clicks, which cannot "
                                     "be drawn") from err
        parts1.append(t_noise[keep & route])
        parts2.append(t_noise[keep & ~route])

    def finish(parts):
        # in place on the concatenated copy: ps = rint(t * 1000) as int64, sorted
        t = np.concatenate(parts) if parts else np.empty(0)
        if len(t) and t.min() < 0.0:
            t = t[t >= 0.0]
        # the product that t *= NS_TO_PS forms, as a Python float (inf, not a warning, on overflow)
        if len(t) and float(t.max()) * NS_TO_PS >= 2.0**63:
            raise TimestampOverflow(f"a click at {t.max():g} ns reaches 2^63 ps, past the "
                                    "int64 timestamps")
        t *= NS_TO_PS
        ps = t.view(np.int64)
        np.rint(t, out=ps, casting="unsafe")
        ps.sort()
        return ps

    return finish(parts1), finish(parts2)


@dataclass
class CoincidenceHistogram:
    """Coincidence counts versus delay; odd bin count, center bin at zero."""

    bin_width: int              # ps
    counts: np.ndarray          # int64, length 2 * half_bins + 1

    def __post_init__(self):
        if len(self.counts) % 2 == 0:
            raise ValueError("bin count must be odd (center bin at zero delay)")
        if self.counts.min() < 0:  # no bin-sized temporary
            raise ValueError("counts must be >= 0")

    @property
    def half_bins(self):
        return (len(self.counts) - 1) // 2

    @property
    def span(self):
        """Maximum |delay| covered, ns."""
        return (self.half_bins + 0.5) * self.bin_width / NS_TO_PS

    def to_csv(self, path):
        """Write `delay_ps,counts` rows, byte for byte what "%d,%d\\n" gives.

        `write_int_csv` encodes a chunk of rows at a time; the delays are
        made one chunk at a time too, so the memory is O(chunk), not O(bins).
        """
        half, width = self.half_bins, int(self.bin_width)
        write_int_csv(path, "delay_ps,counts",
                      range(-half * width, (half + 1) * width, width), self.counts)


@functools.cache
def _limb_words():
    """The digit words of the limbs 0..9999, as two uint32 tables indexed by
    limb + 10^4 * padded: entries below 10^4 hold the digits without leading
    zeros, NUL-filled on the left, and the rest the 4 zero-padded digits.
    `first` serves a value's lowest limb and writes 0 as "0"; `higher`
    writes an unpadded 0 as four NULs, the limb above a value's top digit."""
    limbs = np.arange(_LIMB)
    padded = np.stack([limbs // 1000, limbs // 100 % 10, limbs // 10 % 10, limbs % 10],
                      axis=1) + ord("0")
    digits = 1 + (limbs >= 10) + (limbs >= 100) + (limbs >= 1000)
    unpadded = np.where(np.arange(4) >= 4 - digits[:, None], padded, 0)
    first = np.concatenate((unpadded, padded)).astype(np.uint8).view("<u4").ravel()
    higher = first.copy()
    higher[0] = 0
    return first, higher


def _int_rows(columns):
    """The bytes of "%d,%d,...\\n" % row for every row of the int64 columns.

    Each column takes a sign byte ('-' or NUL, only if the column has a
    negative) and as many 4-byte limb words as its largest |x| needs, then
    a separator byte; one structured array holds the rows, and translate
    drops the NULs.  The limbs are taken from |x| as uint64, so -2^63 too.
    """
    first, higher = _limb_words()
    limb = np.uint64(_LIMB)
    fields = []
    for j, x in enumerate(columns):
        lo, hi = int(x.min()), int(x.max())
        if lo < 0:
            fields.append((np.uint8, (x < 0).view(np.uint8) * np.uint8(ord("-"))))
            mag = np.abs(x).view(np.uint64)
        else:
            mag = x.view(np.uint64)
        n_limbs = (len(str(max(hi, -lo))) + 3) // 4
        words = []
        for i in range(n_limbs - 1):
            above = mag // limb
            index = above * limb
            padded = np.minimum(index, limb)  # 10^4 where a higher limb is nonzero
            np.subtract(mag, index, out=index)
            index += padded
            words.append((higher if i else first).take(index.view(np.int64)))
            mag = above
        # the top limb: nothing above it, so never padded
        words.append((higher if n_limbs > 1 else first).take(mag.view(np.int64)))
        fields += [("<u4", w) for w in reversed(words)]
        fields.append((np.uint8, np.uint8(ord("," if j < len(columns) - 1 else "\n"))))
    names = [f"f{k}" for k in range(len(fields))]  # packed, no padding between fields
    rows = np.empty(len(columns[0]), dtype=np.dtype(
        {"names": names, "formats": [kind for kind, _ in fields]}))
    for name, (_, value) in zip(names, fields):
        rows[name] = value
    return rows.tobytes().translate(None, b"\0")


def write_int_csv(path, header, *columns):
    """Write a header line and the rows of int64 columns (arrays, or ranges
    made into arrays a chunk at a time) as "%d,%d\\n" would, _CSV_CHUNK rows
    per encoded write."""
    with open(path, "wb") as fh:
        fh.write(f"{header}\n".encode())
        for start in range(0, len(columns[0]), _CSV_CHUNK):
            chunk = []
            for column in columns:
                part = column[start:start + _CSV_CHUNK]
                if isinstance(part, range):
                    part = np.arange(part.start, part.stop, part.step, dtype=np.int64)
                chunk.append(np.asarray(part, dtype=np.int64))
            fh.write(_int_rows(chunk))


def read_histogram_csv(path) -> CoincidenceHistogram:
    """Read a `to_csv` file; raise MalformedHistogram unless its delays are
    (k - half) * bin_width for k = 0 .. 2 * half, with half >= 1."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on a header-only file
        try:
            data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
        except ValueError as err:
            raise MalformedHistogram(f"{path}: {err}") from err
    if data.shape[1:] != (2,) or len(data) < 3 or len(data) % 2 == 0:
        raise MalformedHistogram(f"{path}: need an odd number >= 3 of delay_ps,counts rows "
                                 f"(one bin leaves the bin width unknown), got {len(data)}")
    delays, counts = data[:, 0], data[:, 1]
    bin_width = int(delays[1] - delays[0])
    half = len(data) // 2
    if bin_width < 1 or np.any(delays != (np.arange(len(data)) - half) * bin_width):
        raise MalformedHistogram(
            f"{path}: delays must run from -{half} to {half} bin widths in steps of one "
            f"bin width, centred on 0; got {delays[0]} .. {delays[-1]} ps")
    if np.any(counts < 0):
        raise MalformedHistogram(f"{path}: counts must be >= 0")
    return CoincidenceHistogram(bin_width=bin_width, counts=counts.copy())


def correlate(clicks1, clicks2, bin_width: int = 5, span: float = 30.0) -> CoincidenceHistogram:
    """Histogram of all pairwise delays t2 - t1 within the span (ns).

    Inputs are sorted ps timestamps.  The histogram has 2 * half_bins + 1
    bins of `bin_width` ps, half_bins = round(span / bin_width), centred on
    zero delay; a delay d lands in bin (d + edge) // bin_width with
    edge = half_bins * bin_width + bin_width // 2, and pairs outside the
    bins are dropped.  `bin_width` must be an integer >= 1 and `span`
    finite and > 0; HistogramTooLarge names both and the bin count when
    the histogram cannot be allocated.

    Two `searchsorted` calls give each click in `clicks1` the range
    [lo, hi) of its partners in `clicks2`.  The clicks with no partner are
    dropped and the rest ordered by partner count, descending, so the
    clicks that have a partner at offset j are a prefix of that order, of
    a length m_j that one `searchsorted` on the sorted counts gives.  Pass j
    gathers the partners lo + j of the first m_j clicks into a scratch
    array, turns them into bins in place and adds them to the histogram
    with `np.add.at`.  Time is O(pairs + clicks log clicks); the histogram
    is the only array of its size, and the rest is O(clicks) for the
    partner ranges and O(clicks with partners + passes) for the sweep.
    """
    if isinstance(bin_width, bool) or not isinstance(bin_width, numbers.Integral) \
            or bin_width < 1:
        raise ValueError(f"bin_width {bin_width!r} ps must be an integer >= 1")
    if not (isinstance(span, numbers.Real) and math.isfinite(span) and span > 0):
        raise ValueError(f"span {span!r} ns must be finite and > 0")
    clicks1 = np.asarray(clicks1, dtype=np.int64)
    clicks2 = np.asarray(clicks2, dtype=np.int64)
    for c in (clicks1, clicks2):
        if np.any(c[1:] < c[:-1]):
            raise UnsortedInput("click timestamps must be sorted")
    half_bins = int(round(span * NS_TO_PS / bin_width))
    n_bins = 2 * half_bins + 1
    edge = half_bins * bin_width + bin_width // 2
    top = n_bins * bin_width - edge  # the first delay past the last bin
    try:
        counts = np.zeros(n_bins, dtype=np.int64)
    except (MemoryError, ValueError) as err:  # ValueError: more bins than an array holds
        raise HistogramTooLarge(f"span {span:g} ns at bin_width {bin_width} ps needs "
                                f"{n_bins} histogram bins, which cannot be allocated") from err

    lo = np.searchsorted(clicks2, clicks1 - edge, side="left")
    partners = np.searchsorted(clicks2, clicks1 + top, side="left")
    partners -= lo
    live = np.flatnonzero(partners)
    partners = partners[live]
    order = np.argsort(-partners, kind="stable")
    live, partners = live[order], partners[order]
    idx, shift = lo[live], edge - clicks1[live]
    del lo, live, order
    # m_j = the number of clicks with more than j partners
    n_passes = int(partners[0]) if len(partners) else 0
    prefix = len(partners) - np.searchsorted(partners[::-1], np.arange(n_passes), side="right")
    scratch = np.empty(len(idx), dtype=np.int64)
    for m in prefix:
        bins = scratch[:m]
        np.take(clicks2, idx[:m], out=bins, mode="clip")  # in range: lo + j < hi
        bins += shift[:m]
        np.floor_divide(bins, bin_width, out=bins)
        np.add.at(counts, bins, 1)
        idx[:m] += 1
    return CoincidenceHistogram(bin_width=bin_width, counts=counts)


@dataclass
class G2Estimate:
    """Peak-sum g2 estimate with 1-sigma Poisson-propagated uncertainty."""

    value: float
    sigma: float
    center_sum: int
    side_sums: tuple[int, int]


def _window_bounds(hist: CoincidenceHistogram, centers_ps, win_ps):
    """Index ranges [lo, hi) of the bins with |delay - center| <= win_ps / 2,
    ends included, one per center: the window rule of every peak sum.

    Bin half + k sits at the integer delay k * bin_width, so lo and hi are
    the ceil and floor of the window edges over the bin width.  These are
    exact: a float edge divided by an integer width rounds to an integer k
    only when the edge is k * bin_width itself (below 2^53).  No array of
    the histogram's size is made."""
    width, half = int(hist.bin_width), hist.half_bins
    centers_ps = np.asarray(centers_ps, dtype=float)
    lo = np.ceil((centers_ps - win_ps / 2) / width).astype(np.int64)
    hi = np.floor((centers_ps + win_ps / 2) / width).astype(np.int64)
    n = len(hist.counts)
    return np.clip(lo + half, 0, n), np.clip(hi + half + 1, 0, n)


def _check_peak_window(rep_period, window):
    """A peak-sum window must be > 0 and fit in one repetition period."""
    if not window > 0:
        raise ValueError(f"window {window} ns must be > 0")
    if window > rep_period:
        raise WindowOverlap(f"window {window} ns exceeds the repetition period {rep_period} ns")


def _window_sums(counts, lo, hi):
    """Sums of counts[lo:hi] for each range, each over its own bins."""
    return np.array([counts[a:b].sum() for a, b in zip(lo.tolist(), hi.tolist())],
                    dtype=np.int64)


def estimate_g2(
    hist: CoincidenceHistogram,
    rep_period: float = 13.1,
    window: float = 6.5,
    excluded_peaks=(),
) -> G2Estimate:
    """Center-peak counts divided by the mean of the two neighboring side
    peaks, each summed over `window` (ns); `excluded_peaks` positions (ns,
    e.g. setup-reflection artifacts) are masked out of every window."""
    _check_peak_window(rep_period, window)
    rep_ps = rep_period * NS_TO_PS
    win_ps = window * NS_TO_PS
    if hist.span * NS_TO_PS < rep_ps + win_ps / 2:
        raise ValueError("histogram span must cover rep_period + window / 2")

    kept = hist.counts
    excluded_ps = np.asarray(excluded_peaks, dtype=float) * NS_TO_PS
    if excluded_ps.size:
        kept = kept.copy()
        for lo, hi in zip(*_window_bounds(hist, excluded_ps, win_ps)):
            kept[lo:hi] = 0
    bounds = _window_bounds(hist, [0.0, -rep_ps, rep_ps], win_ps)
    center, side_m, side_p = (int(s) for s in _window_sums(kept, *bounds))
    side_total = side_m + side_p
    if side_total == 0:
        raise ValueError("empty side peaks; cannot normalize")

    side_mean = 0.5 * side_total
    value = center / side_mean
    sigma = np.sqrt(max(center, 1) + center**2 / side_total) / side_mean
    return G2Estimate(
        value=float(value),
        sigma=float(sigma),
        center_sum=center,
        side_sums=(side_m, side_p),
    )


def peak_sums(hist: CoincidenceHistogram, rep_period: float = 13.1, window: float = 6.5):
    """Summed counts of every coincidence peak whose window fits in the span.

    Returns (peak indices, sums); peak k sits at delay k * rep_period and
    sums the bins within window / 2 of it, ends included.  Only the bins
    inside the windows are read.
    """
    _check_peak_window(rep_period, window)
    rep_ps = rep_period * NS_TO_PS
    win_ps = window * NS_TO_PS
    k_max = int((hist.span * NS_TO_PS - win_ps / 2) // rep_ps)
    ks = np.arange(-k_max, k_max + 1)
    return ks, _window_sums(hist.counts, *_window_bounds(hist, ks * rep_ps, win_ps))


def peak_sum_spectrum(ks, sums, rep_period: float = 13.1):
    """Discrete spectrum of the side-peak sums (center peak dropped), for
    spotting periodic blinking.  Returns (frequencies in MHz, |amplitude|)."""
    ks = np.asarray(ks)
    sums = np.asarray(sums, dtype=float)
    side = sums[ks > 0]  # positive delays only: uniform spacing, no center gap
    side = side - side.mean()
    amp = np.abs(np.fft.rfft(side))
    freqs = np.fft.rfftfreq(len(side), d=rep_period * 1e-3)  # rep_period ns -> MHz
    return freqs, amp
