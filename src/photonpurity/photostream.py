"""Monte Carlo model of the detection chain.

Synthesizes detector click streams from a pulsed source (with optional
two-photon error events, Poissonian background and slow periodic blinking),
correlates them HBT-style into a coincidence histogram, and estimates g2(0)
with the peak-sum estimator: center-peak counts over the mean of the two
neighboring side peaks, each summed over a fixed window, with Poissonian
error propagation.

Synthesis samples the exact per-pulse law in O(photons), not O(pulses):
binomial pair and single counts per block of pulses, then per-photon draws.

The histogram is built by a sweep over the pair offset: each click keeps
the range of its partners in the other list, and pass j bins the j-th
partner of every click that still has one.  That is O(pairs) time and
O(clicks + bins) memory, whatever the pair density.  Peak windows are
summed from one cumulative sum of the histogram, O(bins + peaks).

Timestamps are int64 picoseconds; configuration times are in ns and rates in
counts per second.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

NS_TO_PS = 1000
_PULSE_BLOCK = 1 << 19  # pulses per RNG substream; the stream a seed gives depends on it
_CSV_CHUNK = 1 << 16    # histogram rows per formatted write


class UnsortedInput(ValueError):
    pass


class WindowOverlap(ValueError):
    pass


@dataclass(frozen=True)
class BlinkingConfig:
    """Slow periodic intensity modulation of the emitter (spectral diffusion
    signature): acceptance m(t) = 1 - depth * (1 + mean_f cos(2 pi f t)) / 2."""

    frequencies: tuple[float, ...]  # MHz
    depth: float = 0.5

    def __post_init__(self):
        if not self.frequencies:
            raise ValueError("need at least one blinking frequency")
        if not 0.0 <= self.depth <= 1.0:
            raise ValueError("blinking depth must be in [0, 1]")

    def acceptance(self, t_ns):
        phases = 2e-3 * np.pi * np.multiply.outer(np.asarray(self.frequencies), t_ns)
        return 1.0 - 0.5 * self.depth * (1.0 + np.mean(np.cos(phases), axis=0))


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
        if not (0.0 <= self.p_double <= self.p_single <= 1.0):
            raise ValueError("need 0 <= p_double <= p_single <= 1")
        if self.rep_period <= 0:
            raise ValueError("rep_period must be > 0")
        if min(self.n_pulses, self.emitter_lifetime, self.pulse_sigma) < 0 or self.noise_rate < 0:
            raise ValueError("rates and counts must be >= 0")
        if not 0.0 < self.detection_efficiency <= 1.0:
            raise ValueError("detection_efficiency must be in (0, 1]")

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
    block draws per photon, not per pulse (`_emit_block`).
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
        n_noise = rng.poisson(expected)
        t_noise = rng.random(n_noise) * cfg.duration
        route = rng.random(n_noise) < 0.5
        keep = rng.random(n_noise) < cfg.detection_efficiency
        parts1.append(t_noise[keep & route])
        parts2.append(t_noise[keep & ~route])

    def finish(parts):
        t = np.concatenate(parts) if parts else np.empty(0)
        t = t[t >= 0.0]
        return np.sort(np.rint(t * NS_TO_PS).astype(np.int64))

    return finish(parts1), finish(parts2)


@dataclass
class CoincidenceHistogram:
    """Coincidence counts versus delay; odd bin count, center bin at zero."""

    bin_width: int              # ps
    counts: np.ndarray          # int64, length 2 * half_bins + 1

    def __post_init__(self):
        if len(self.counts) % 2 == 0:
            raise ValueError("bin count must be odd (center bin at zero delay)")
        if np.any(self.counts < 0):
            raise ValueError("counts must be >= 0")

    @property
    def half_bins(self):
        return (len(self.counts) - 1) // 2

    @property
    def span(self):
        """Maximum |delay| covered, ns."""
        return (self.half_bins + 0.5) * self.bin_width / NS_TO_PS

    def delays_ps(self):
        return (np.arange(len(self.counts)) - self.half_bins) * self.bin_width

    def to_csv(self, path):
        """Write `delay_ps,counts` rows, one formatted write per chunk of rows."""
        rows = np.column_stack((self.delays_ps(), self.counts))
        with open(path, "w") as fh:
            fh.write("delay_ps,counts\n")
            for start in range(0, len(rows), _CSV_CHUNK):
                chunk = rows[start:start + _CSV_CHUNK]
                fh.write("%d,%d\n" * len(chunk) % tuple(chunk.ravel().tolist()))


def read_histogram_csv(path) -> CoincidenceHistogram:
    data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64)
    bin_width = int(data[1, 0] - data[0, 0])
    return CoincidenceHistogram(bin_width=bin_width, counts=data[:, 1].copy())


def correlate(clicks1, clicks2, bin_width: int = 5, span: float = 30.0) -> CoincidenceHistogram:
    """Histogram of all pairwise delays t2 - t1 within the span (ns).

    Inputs are sorted ps timestamps.  The histogram has 2 * half_bins + 1
    bins of `bin_width` ps, half_bins = round(span / bin_width), centred on
    zero delay; a delay d lands in bin (d + edge) // bin_width with
    edge = half_bins * bin_width + bin_width // 2, and pairs outside the
    bins are dropped.

    Two `searchsorted` calls give each click in `clicks1` the range
    [lo, hi) of its partners in `clicks2`.  The sweep then runs over the
    partner offset: pass j bins the partner lo + j of every click that still
    has one and drops the clicks whose range is exhausted.  Time is
    O(pairs + clicks log clicks) and memory O(clicks + bins): the bins of
    successive passes collect in one buffer and are counted when it fills.
    """
    clicks1 = np.asarray(clicks1, dtype=np.int64)
    clicks2 = np.asarray(clicks2, dtype=np.int64)
    for c in (clicks1, clicks2):
        if len(c) > 1 and np.any(np.diff(c) < 0):
            raise UnsortedInput("click timestamps must be sorted")
    half_bins = int(round(span * NS_TO_PS / bin_width))
    n_bins = 2 * half_bins + 1
    edge = half_bins * bin_width + bin_width // 2
    top = n_bins * bin_width - edge  # the first delay past the last bin
    counts = np.zeros(n_bins, dtype=np.int64)

    lo = np.searchsorted(clicks2, clicks1 - edge, side="left")
    hi = np.searchsorted(clicks2, clicks1 + top, side="left")
    live = hi > lo
    idx, stop, shift = lo[live], hi[live], edge - clicks1[live]
    buffer = np.empty(max(len(idx), n_bins), dtype=np.int64)
    filled = 0
    while len(idx):
        if filled + len(idx) > len(buffer):
            counts += np.bincount(buffer[:filled], minlength=n_bins)
            filled = 0
        np.floor_divide(clicks2[idx] + shift, bin_width, out=buffer[filled:filled + len(idx)])
        filled += len(idx)
        idx += 1
        live = idx < stop
        if not live.all():
            idx, stop, shift = idx[live], stop[live], shift[live]
    counts += np.bincount(buffer[:filled], minlength=n_bins)
    return CoincidenceHistogram(bin_width=bin_width, counts=counts)


@dataclass
class G2Estimate:
    """Peak-sum g2 estimate with 1-sigma Poisson-propagated uncertainty."""

    value: float
    sigma: float
    center_sum: int
    side_sums: tuple[int, int]
    window: float                      # ns
    excluded_peaks: tuple[float, ...] = ()

    def to_json(self, path):
        payload = {
            "value": self.value,
            "sigma": self.sigma,
            "center_sum": int(self.center_sum),
            "side_sums": [int(s) for s in self.side_sums],
            "window_ns": self.window,
            "excluded": list(self.excluded_peaks),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def _window_bounds(hist: CoincidenceHistogram, centers_ps, win_ps):
    """Index ranges [lo, hi) of the bins with |delay - center| <= win_ps / 2,
    ends included, one per center: the window rule of every peak sum."""
    delays = hist.delays_ps()
    centers_ps = np.asarray(centers_ps, dtype=float)
    return (np.searchsorted(delays, centers_ps - win_ps / 2, side="left"),
            np.searchsorted(delays, centers_ps + win_ps / 2, side="right"))


def _window_sums(counts, lo, hi):
    """Sums of counts[lo:hi] for each range, from one cumulative sum."""
    cumulative = np.concatenate(([0], np.cumsum(counts)))
    return cumulative[hi] - cumulative[lo]


def estimate_g2(
    hist: CoincidenceHistogram,
    rep_period: float = 13.1,
    window: float = 6.5,
    excluded_peaks=(),
) -> G2Estimate:
    """Center-peak counts divided by the mean of the two neighboring side
    peaks, each summed over `window` (ns); `excluded_peaks` positions (ns,
    e.g. setup-reflection artifacts) are masked out of every window."""
    if window > rep_period:
        raise WindowOverlap(f"window {window} ns exceeds the repetition period {rep_period} ns")
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
        window=window,
        excluded_peaks=tuple(excluded_peaks),
    )


def peak_sums(hist: CoincidenceHistogram, rep_period: float = 13.1, window: float = 6.5):
    """Summed counts of every coincidence peak whose window fits in the span.

    Returns (peak indices, sums); peak k sits at delay k * rep_period and
    sums the bins within window / 2 of it, ends included.  One cumulative
    sum serves every peak: O(bins + peaks).
    """
    if window > rep_period:
        raise WindowOverlap(f"window {window} ns exceeds the repetition period {rep_period} ns")
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
