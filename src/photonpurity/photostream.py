"""Monte Carlo model of the detection chain.

Synthesizes detector click streams from a pulsed source (with optional
two-photon error events, Poissonian background and slow periodic blinking),
correlates them HBT-style into a coincidence histogram, and estimates g2(0)
with the peak-sum estimator: center-peak counts over the mean of the two
neighboring side peaks, each summed over a fixed window, with Poissonian
error propagation.

Timestamps are int64 picoseconds; configuration times are in ns and rates in
counts per second.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

NS_TO_PS = 1000
_PULSE_BLOCK = 1 << 19  # pulses per RNG substream; the stream a seed gives depends on it


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
    """Emitter photons for pulses [first_pulse, first_pulse + n_block).

    Each block draws from its own substream in a fixed layout.
    """
    rng = np.random.default_rng(seed_seq)
    u_pair = rng.random(n_block)
    u_single = rng.random(n_block)
    t_gauss = rng.normal(0.0, cfg.pulse_sigma, n_block)
    dt_pair = rng.exponential(cfg.emitter_lifetime, n_block)
    dt_single = rng.exponential(cfg.emitter_lifetime, n_block)
    route_a = rng.random(n_block)
    route_b = rng.random(n_block)
    eff_a = rng.random(n_block)
    eff_b = rng.random(n_block)
    blink_a = rng.random(n_block)
    blink_b = rng.random(n_block)

    pulse_t = (first_pulse + np.arange(n_block)) * cfg.rep_period
    is_pair = u_pair < cfg.p_double
    is_single = ~is_pair & (u_single < cfg.p_single)

    # photon "a": first of a pair (inside the pulse); photon "b": either the
    # reexcited partner or the lone single photon
    t_a = pulse_t + t_gauss
    t_b = np.where(is_pair, t_a + dt_pair, pulse_t + dt_single)
    keep_a = is_pair & (eff_a < cfg.detection_efficiency)
    keep_b = (is_pair | is_single) & (eff_b < cfg.detection_efficiency)
    if cfg.blinking is not None:
        keep_a &= blink_a < cfg.blinking.acceptance(t_a)
        keep_b &= blink_b < cfg.blinking.acceptance(t_b)

    det1 = np.concatenate([t_a[keep_a & (route_a < 0.5)], t_b[keep_b & (route_b < 0.5)]])
    det2 = np.concatenate([t_a[keep_a & (route_a >= 0.5)], t_b[keep_b & (route_b >= 0.5)]])
    return det1, det2


def synthesize_stream(cfg: StreamConfig, seed: int):
    """Simulate the two detector click lists (sorted int64 ps timestamps).

    Deterministic for a given (cfg, seed): pulses are processed in fixed
    blocks of 2^19, block k drawing from SeedSequence(seed).spawn()[k]; the
    background uses the independent stream SeedSequence((seed, 1)).
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
        with open(path, "w") as fh:
            fh.write("delay_ps,counts\n")
            for d, c in zip(self.delays_ps(), self.counts):
                fh.write(f"{d},{c}\n")


def read_histogram_csv(path) -> CoincidenceHistogram:
    data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64)
    bin_width = int(data[1, 0] - data[0, 0])
    return CoincidenceHistogram(bin_width=bin_width, counts=data[:, 1].copy())


def correlate(clicks1, clicks2, bin_width: int = 5, span: float = 30.0) -> CoincidenceHistogram:
    """Histogram of all pairwise delays t2 - t1 with |delay| <= span (ns).

    Inputs are sorted ps timestamps; the sweep is linear in the number of
    qualifying pairs and processed in blocks to bound memory.
    """
    clicks1 = np.asarray(clicks1, dtype=np.int64)
    clicks2 = np.asarray(clicks2, dtype=np.int64)
    for c in (clicks1, clicks2):
        if len(c) > 1 and np.any(np.diff(c) < 0):
            raise UnsortedInput("click timestamps must be sorted")
    half_bins = int(round(span * NS_TO_PS / bin_width))
    edge = half_bins * bin_width + bin_width // 2
    counts = np.zeros(2 * half_bins + 1, dtype=np.int64)

    block = 200_000
    for start in range(0, len(clicks1), block):
        left = clicks1[start:start + block]
        lo = np.searchsorted(clicks2, left - edge, side="left")
        hi = np.searchsorted(clicks2, left + edge, side="right")
        n_per = hi - lo
        total = int(n_per.sum())
        if total == 0:
            continue
        offsets = np.repeat(np.cumsum(n_per) - n_per, n_per)
        idx = np.repeat(lo, n_per) + (np.arange(total) - offsets)
        delays = clicks2[idx] - np.repeat(left, n_per)
        bins = np.floor_divide(delays + edge, bin_width)
        valid = (bins >= 0) & (bins < len(counts))
        counts += np.bincount(bins[valid], minlength=len(counts))
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

    @property
    def side_mean(self):
        return 0.5 * (self.side_sums[0] + self.side_sums[1])

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


def _window_mask(delays, center_ps, win_ps):
    return np.abs(delays - center_ps) <= win_ps / 2


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

    delays = hist.delays_ps()
    keep = np.ones(len(delays), dtype=bool)
    for pos in excluded_peaks:
        keep &= ~_window_mask(delays, pos * NS_TO_PS, win_ps)

    center = int(hist.counts[_window_mask(delays, 0.0, win_ps) & keep].sum())
    side_m = int(hist.counts[_window_mask(delays, -rep_ps, win_ps) & keep].sum())
    side_p = int(hist.counts[_window_mask(delays, rep_ps, win_ps) & keep].sum())
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

    Returns (peak indices, sums); peak k sits at delay k * rep_period.
    """
    if window > rep_period:
        raise WindowOverlap(f"window {window} ns exceeds the repetition period {rep_period} ns")
    delays = hist.delays_ps()
    rep_ps = rep_period * NS_TO_PS
    win_ps = window * NS_TO_PS
    k_max = int((hist.span * NS_TO_PS - win_ps / 2) // rep_ps)
    ks = np.arange(-k_max, k_max + 1)
    sums = np.array([
        int(hist.counts[_window_mask(delays, k * rep_ps, win_ps)].sum()) for k in ks
    ])
    return ks, sums


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


def save_clicks(path, clicks):
    """Click list -> .npy (binary) or .csv of ps timestamps."""
    path = str(path)
    if path.endswith(".npy"):
        np.save(path, np.asarray(clicks, dtype=np.int64))
    else:
        np.savetxt(path, np.asarray(clicks, dtype=np.int64), fmt="%d", header="timestamp_ps")


def load_clicks(path):
    path = str(path)
    if path.endswith(".npy"):
        return np.load(path)
    return np.loadtxt(path, dtype=np.int64)
