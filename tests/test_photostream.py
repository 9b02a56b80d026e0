import hashlib
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from photonpurity.photostream import (
    _CSV_CHUNK,
    _PULSE_BLOCK,
    BlinkingConfig,
    CoincidenceHistogram,
    G2Estimate,
    HistogramTooLarge,
    MalformedHistogram,
    StreamConfig,
    TimestampOverflow,
    UnsortedInput,
    WindowOverlap,
    _int_rows,
    _window_bounds,
    correlate,
    estimate_g2,
    peak_sum_spectrum,
    peak_sums,
    read_histogram_csv,
    synthesize_stream,
    write_int_csv,
)

from conftest import delays_ps


class TestSynthesize:
    def test_deterministic(self):
        cfg = StreamConfig(n_pulses=100_000, p_single=0.2, p_double=0.05, noise_rate=2e4)
        a = synthesize_stream(cfg, seed=5)
        b = synthesize_stream(cfg, seed=5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = synthesize_stream(cfg, seed=6)
        assert len(c[0]) != len(a[0]) or not np.array_equal(c[0], a[0])

    def test_perfect_source_one_photon_per_pulse(self):
        cfg = StreamConfig(n_pulses=200_000, p_single=1.0)
        c1, c2 = synthesize_stream(cfg, seed=1)
        rep_ps = int(cfg.rep_period * 1000)
        pulses = np.concatenate([c1, c2]) // rep_ps
        assert len(np.unique(pulses)) == len(pulses)

    def test_noise_only_poisson_totals(self):
        cfg = StreamConfig(n_pulses=1_000_000, p_single=0.0, noise_rate=5e4,
                           detection_efficiency=0.8)
        c1, c2 = synthesize_stream(cfg, seed=3)
        expected = cfg.noise_rate * cfg.duration * 1e-9 * cfg.detection_efficiency
        total = len(c1) + len(c2)
        assert abs(total - expected) < 3 * np.sqrt(expected)

    def test_sorted_outputs(self):
        cfg = StreamConfig(n_pulses=50_000, p_single=0.3, p_double=0.1)
        c1, c2 = synthesize_stream(cfg, seed=9)
        assert np.all(np.diff(c1) >= 0) and np.all(np.diff(c2) >= 0)

    def test_memory_scales_with_photons(self):
        # one full block at about 500 photons: per-pulse arrays would trace
        # tens of MB
        cfg = StreamConfig(n_pulses=_PULSE_BLOCK, p_single=1e-3)
        tracemalloc.start()
        try:
            c1, c2 = synthesize_stream(cfg, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(c1) + len(c2) > 0
        assert peak < 1_000_000

    def test_pair_stream_matches_the_per_pulse_law(self):
        cfg = StreamConfig(n_pulses=400_000, p_single=0.3, p_double=0.05,
                           detection_efficiency=0.5)
        c1, c2 = synthesize_stream(cfg, seed=13)
        p_d, p_s, q = cfg.p_double, (1 - cfg.p_double) * cfg.p_single, cfg.detection_efficiency / 2
        # clicks of one detector per pulse: Binomial(2, q) after a pair,
        # Bernoulli(q) after a single
        mean = p_d * 2 * q + p_s * q
        var = p_d * (2 * q * (1 - q) + 4 * q**2) + p_s * q - mean**2
        for clicks in (c1, c2):
            assert abs(len(clicks) - cfg.n_pulses * mean) < 4 * np.sqrt(cfg.n_pulses * var)
        # arrival after the pulse: pair firsts at 0, every other photon one
        # exponential lifetime later
        rep_ps = cfg.rep_period * 1000
        clicks = np.concatenate([c1, c2])
        offset = ((clicks + rep_ps / 2) % rep_ps - rep_ps / 2) / 1000
        delayed = (p_d + p_s) / (2 * p_d + p_s)
        lifetime = offset.mean() / delayed
        sigma = offset.std() / np.sqrt(len(offset)) / delayed
        assert abs(lifetime - cfg.emitter_lifetime) < 4 * sigma

    def test_partial_last_block(self):
        cfg = StreamConfig(n_pulses=2 * _PULSE_BLOCK + _PULSE_BLOCK // 2, p_single=0.01,
                           p_double=0.001)
        a = synthesize_stream(cfg, seed=31)
        b = synthesize_stream(cfg, seed=31)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        last_block = 2 * _PULSE_BLOCK * cfg.rep_period * 1000
        for clicks in a:
            # the last half block holds a fifth of the stream
            assert 0.15 < np.mean(clicks >= last_block) < 0.25
            assert clicks[-1] < cfg.duration * 1000 + 50_000

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            StreamConfig(n_pulses=10, p_single=0.1, p_double=0.2)
        with pytest.raises(ValueError):
            StreamConfig(n_pulses=10, rep_period=0.0)
        # 2e19 ps, past the 2^63 ps of an int64 click; 9e18 ps fits
        with pytest.raises(ValueError, match="2\\^63 ps"):
            StreamConfig(n_pulses=2_000_000_000, rep_period=1.0e7, p_single=1e-4)
        assert StreamConfig(n_pulses=9_000_000, rep_period=1.0e9).duration == 9.0e15

    def test_click_past_int64_timestamps_is_refused(self):
        # a short stream, but delays of 1e17 ns put most clicks past 2^63 ps
        cfg = StreamConfig(n_pulses=1000, p_single=1.0, emitter_lifetime=1.0e17)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no cast to INT64_MIN on the way
            with pytest.raises(TimestampOverflow, match="2\\^63 ps"):
                synthesize_stream(cfg, 1)

    @pytest.mark.parametrize("field", ["rep_period", "emitter_lifetime", "pulse_sigma",
                                       "noise_rate"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_config_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            StreamConfig(n_pulses=10, **{field: value})

    @pytest.mark.parametrize("frequencies", [(np.nan,), (1.0, np.inf), (-np.inf,)])
    def test_non_finite_blinking_frequency_rejected(self, frequencies):
        with pytest.raises(ValueError, match="finite"):
            BlinkingConfig(frequencies=frequencies)

    # sha256 of c1.tobytes() + c2.tobytes() at seed 11, one config per branch of
    # the law; a change to the stream a seed gives must change these on purpose
    STREAM_PINS = {
        "pairs": (StreamConfig(n_pulses=50_000, p_single=0.3, p_double=0.05,
                               detection_efficiency=0.8),
                  "1700a0a98d0394787a1be7d0113facfe4b35bac249a9beb1c061f28f5a343b4b"),
        "blinking": (StreamConfig(n_pulses=50_000, p_single=0.3,
                                  blinking=BlinkingConfig((1.0, 2.5), 0.6)),
                     "4212174cc335c64e0d7f72602e3f46a3c0eaae9ff5a3f50d369f92fe3ebf30e1"),
        "noise": (StreamConfig(n_pulses=50_000, p_single=0.0, noise_rate=2e6),
                  "3bf8b5d74353214b58ad5dec069fb057a11179d7bfb4c5ace01b22b6dbd52a52"),
    }

    @pytest.mark.parametrize("branch", STREAM_PINS)
    def test_stream_of_a_seed_is_pinned(self, branch):
        cfg, digest = self.STREAM_PINS[branch]
        c1, c2 = synthesize_stream(cfg, seed=11)
        assert c1.dtype == c2.dtype == np.int64
        assert hashlib.sha256(c1.tobytes() + c2.tobytes()).hexdigest() == digest


class TestCorrelate:
    def test_single_pair_lands_in_right_bin(self):
        hist = correlate(np.array([1000]), np.array([1012]), bin_width=5, span=1.0)
        delays = delays_ps(hist)
        assert hist.counts.sum() == 1
        assert delays[np.argmax(hist.counts)] == 10  # 12 ps -> bin centered at 10

    def test_unsorted_rejected(self):
        with pytest.raises(UnsortedInput):
            correlate(np.array([5, 1]), np.array([0]), 5, 1.0)
        with pytest.raises(UnsortedInput):
            correlate(np.array([0]), np.array([0, 7, 3]), 5, 1.0)

    @pytest.mark.parametrize("bin_width", [0, -5, 2.5, 5.0, True, "5"])
    def test_bin_width_must_be_a_positive_integer(self, bin_width):
        with pytest.raises(ValueError, match="bin_width"):
            correlate(np.array([0]), np.array([0]), bin_width, 1.0)

    @pytest.mark.parametrize("span", [0.0, -1.0, np.nan, np.inf, -np.inf, "1.0"])
    def test_span_must_be_finite_and_positive(self, span):
        with pytest.raises(ValueError, match="span"):
            correlate(np.array([0]), np.array([0]), 5, span)

    # 4e14 and 4e302 bins: numpy refuses both before touching any memory
    @pytest.mark.parametrize("span, bins", [(1.0e12, "400000000000001"), (1.0e300, "4000")])
    def test_unallocatable_histogram_names_its_size(self, span, bins):
        with pytest.raises(HistogramTooLarge, match=re.escape(
                f"span {span:g} ns at bin_width 5 ps needs {bins}")):
            correlate(np.array([0]), np.array([0]), 5, span)

    @settings(max_examples=60, deadline=None)
    @given(
        c1=st.lists(st.integers(0, 600), min_size=0, max_size=40),
        c2=st.lists(st.integers(0, 600), min_size=0, max_size=40),
        bin_width=st.sampled_from([1, 2, 6, 7, 10, 25]),
        span=st.sampled_from([0.05, 0.2, 0.5]),
    )
    # edge = 255 ps at both widths: delays of exactly -edge and +edge, and
    # duplicate timestamps in both lists
    @example(c1=[100, 100, 355], c2=[100, 100, 354, 355, 355], bin_width=6, span=0.25)
    @example(c1=[100, 100, 355], c2=[100, 100, 354, 355, 355], bin_width=7, span=0.25)
    # no click with a partner; every click with the same partner count; one
    # click with many partners among many with none
    @example(c1=[0, 10, 600], c2=[300], bin_width=6, span=0.05)
    @example(c1=[100, 101, 102, 500, 501], c2=[100, 102, 500, 502], bin_width=2, span=0.02)
    @example(c1=[0, 1, 2, 3, 300, 597, 598, 599, 600],
             c2=[290, 292, 295, 299, 300, 300, 301, 305, 309], bin_width=1, span=0.05)
    def test_counts_match_brute_force(self, c1, c2, bin_width, span):
        # the O(n1 n2) loop over the documented binning rule, bin by bin; at
        # even widths the last bin ends one picosecond short of +edge
        c1 = np.sort(np.array(c1, dtype=np.int64))
        c2 = np.sort(np.array(c2, dtype=np.int64))
        hist = correlate(c1, c2, bin_width=bin_width, span=span)
        edge = hist.half_bins * bin_width + bin_width // 2
        brute = np.zeros(len(hist.counts), dtype=np.int64)
        for a in c1:
            for b in c2:
                k = (b - a + edge) // bin_width
                if 0 <= k < len(brute):
                    brute[k] += 1
        assert np.array_equal(hist.counts, brute)

    def test_peak_memory_is_linear_in_clicks(self):
        # about 80 partners per click: expanding every pair at once would
        # trace some 100 times the inputs' bytes
        multiple = 8
        rng = np.random.default_rng(4)
        c1 = np.sort(rng.integers(0, 1_000_000, 20_000))
        c2 = np.sort(rng.integers(0, 1_000_000, 20_000))
        input_bytes = c1.nbytes + c2.nbytes
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            hist = correlate(c1, c2, bin_width=5, span=2.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert hist.counts.sum() >= 50 * len(c1)
        assert peak < multiple * input_bytes

    def test_memory_beyond_the_histogram_is_linear_in_clicks(self):
        # 1.32 M bins for 4000 clicks, all 4 M pairs inside the span: a
        # bin-sized buffer or a bincount per flush would each add the
        # histogram's bytes again
        rng = np.random.default_rng(5)
        c1 = np.sort(rng.integers(0, 3_000_000, 2_000))
        c2 = np.sort(rng.integers(0, 3_000_000, 2_000))
        input_bytes = c1.nbytes + c2.nbytes
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            hist = correlate(c1, c2, bin_width=5, span=3300.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(hist.counts) > 300 * (len(c1) + len(c2))
        assert hist.counts.sum() == len(c1) * len(c2)
        assert peak <= hist.counts.nbytes + 8 * input_bytes

    def test_flat_for_independent_poisson(self):
        cfg = StreamConfig(n_pulses=2_000_000, p_single=0.0, noise_rate=4e5)
        c1, c2 = synthesize_stream(cfg, seed=21)
        hist = correlate(c1, c2, bin_width=100, span=20.0)
        rate1 = len(c1) / cfg.duration
        rate2 = len(c2) / cfg.duration
        expected = rate1 * rate2 * cfg.duration * 0.1  # bin width 100 ps = 0.1 ns
        z = (hist.counts - expected) / np.sqrt(expected)
        assert abs(z.mean()) < 5.0 / np.sqrt(len(z))
        assert np.max(np.abs(z)) < 6.0

    def test_pulsed_comb(self):
        cfg = StreamConfig(n_pulses=300_000, p_single=0.5)
        c1, c2 = synthesize_stream(cfg, seed=2)
        hist = correlate(c1, c2, bin_width=5, span=30.0)
        ks, sums = peak_sums(hist, cfg.rep_period, 6.5)
        center = sums[ks == 0][0]
        sides = sums[ks != 0]
        assert center == 0
        assert np.all(sides > 0)


def synthetic_histogram(center_counts, side_counts, rep_period=13.1, bin_width=5):
    half = int(round(20.0 * 1000 / bin_width))
    counts = np.zeros(2 * half + 1, dtype=np.int64)
    delays = (np.arange(len(counts)) - half) * bin_width
    counts[np.abs(delays) <= 100] = 0
    counts[half] = center_counts
    for sign in (-1, 1):
        idx = np.argmin(np.abs(delays - sign * rep_period * 1000))
        counts[idx] = side_counts
    return CoincidenceHistogram(bin_width=bin_width, counts=counts)


def _window_mask(delays, center_ps, win_ps):
    return np.abs(delays - center_ps) <= win_ps / 2


def mask_peak_sums(hist, rep_period, window):
    """Reference peak sums: one boolean mask over every bin per peak."""
    delays = delays_ps(hist)
    rep_ps, win_ps = rep_period * 1000, window * 1000
    k_max = int((hist.span * 1000 - win_ps / 2) // rep_ps)
    ks = np.arange(-k_max, k_max + 1)
    return ks, np.array([int(hist.counts[_window_mask(delays, k * rep_ps, win_ps)].sum())
                         for k in ks])


def mask_estimate_sums(hist, rep_period, window, excluded_peaks=()):
    """Reference (center, side-, side+) sums with excluded windows masked."""
    delays = delays_ps(hist)
    rep_ps, win_ps = rep_period * 1000, window * 1000
    keep = np.ones(len(delays), dtype=bool)
    for pos in excluded_peaks:
        keep &= ~_window_mask(delays, pos * 1000, win_ps)
    return tuple(int(hist.counts[_window_mask(delays, c, win_ps) & keep].sum())
                 for c in (0.0, -rep_ps, rep_ps))


# bin widths, periods and windows whose window edges fall exactly on bins:
# at 5 ps, 13.1 ns and 6.5 ns the first side window is [9850, 16350] ps
EDGE_CASES = [(5, 13.1, 6.5), (5, 13.1, 13.1), (50, 13.1, 6.5), (10, 12.5, 5.0)]


@pytest.mark.parametrize("bin_width,rep_period,window", EDGE_CASES)
def test_window_sums_match_mask_reference(bin_width, rep_period, window):
    rng = np.random.default_rng(bin_width)
    half = int(round(200.0 * 1000 / bin_width))
    hist = CoincidenceHistogram(bin_width=bin_width,
                                counts=rng.integers(0, 1000, 2 * half + 1))
    ks, sums = peak_sums(hist, rep_period, window)
    ref_ks, ref_sums = mask_peak_sums(hist, rep_period, window)
    assert np.array_equal(ks, ref_ks) and np.array_equal(sums, ref_sums)
    for excluded in ((), (8.0,), (-rep_period / 2, 0.0, rep_period + window / 2)):
        est = estimate_g2(hist, rep_period, window, excluded)
        center, side_m, side_p = mask_estimate_sums(hist, rep_period, window, excluded)
        assert (est.center_sum, est.side_sums) == (center, (side_m, side_p))


def searchsorted_bounds(hist, centers_ps, win_ps):
    """The window rule as a search over the delay of every bin."""
    delays = delays_ps(hist)
    centers_ps = np.asarray(centers_ps, dtype=float)
    return (np.searchsorted(delays, centers_ps - win_ps / 2, side="left"),
            np.searchsorted(delays, centers_ps + win_ps / 2, side="right"))


@settings(max_examples=300, deadline=None)
@given(bin_width=st.integers(1, 1000), half=st.integers(0, 40),
       win_bins=st.integers(1, 30), win_extra=st.sampled_from([0.0, 0.5, 1e-9, 0.999999]),
       edges=st.lists(st.tuples(st.integers(-60, 60),
                                st.sampled_from([0.0, 0.5, -0.5, 1e-9, -1e-9, 0.25])),
                      min_size=1, max_size=6),
       loose=st.lists(st.floats(-1e5, 1e5), max_size=3))
@example(bin_width=5, half=2640, win_bins=1300, win_extra=0.0, edges=[(1970, 0.0), (-3270, 0.0)],
         loose=[13100.0, -13100.0, 0.0])
def test_window_bounds_match_searchsorted(bin_width, half, win_bins, win_extra, edges, loose):
    # centers whose left window edge lands on a bin delay (offset 0) or just beside
    # one, windows of a whole number of bins (both edges on bins) or not
    hist = CoincidenceHistogram(bin_width=bin_width, counts=np.zeros(2 * half + 1, np.int64))
    win_ps = (win_bins + win_extra) * bin_width
    centers = [(k + off) * bin_width + win_ps / 2 for k, off in edges] + loose
    lo, hi = _window_bounds(hist, centers, win_ps)
    ref_lo, ref_hi = searchsorted_bounds(hist, centers, win_ps)
    assert np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi)


def test_window_sums_allocate_no_histogram_sized_array():
    rng = np.random.default_rng(3)
    hist = CoincidenceHistogram(bin_width=5, counts=rng.integers(0, 50, 1_320_001))
    peak_sums(hist)
    tracemalloc.start()
    try:
        peak_sums(hist)
        estimate_g2(hist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * hist.counts.nbytes


class TestEstimator:
    def test_exact_ratio_and_sigma(self):
        hist = synthetic_histogram(50, 100_000)
        est = estimate_g2(hist)
        assert est.value == 5.0e-4
        assert est.sigma == pytest.approx(7.0719551e-05, rel=1e-6)
        assert est.center_sum == 50 and est.side_sums == (100_000, 100_000)

    def test_zero_center(self):
        hist = synthetic_histogram(0, 10_000)
        est = estimate_g2(hist)
        assert est.value == 0.0
        assert est.sigma == pytest.approx(1e-4, rel=1e-9)

    def test_window_overlap_rejected(self):
        hist = synthetic_histogram(1, 10)
        with pytest.raises(WindowOverlap):
            estimate_g2(hist, rep_period=13.1, window=14.0)

    @pytest.mark.parametrize("window", [0.0, -1.0])
    def test_window_must_be_positive(self, window):
        hist = synthetic_histogram(1, 10)
        with pytest.raises(ValueError, match="must be > 0"):
            estimate_g2(hist, window=window)
        with pytest.raises(ValueError, match="must be > 0"):
            peak_sums(hist, window=window)

    def test_span_requirement(self):
        hist = correlate(np.array([0]), np.array([0]), 5, span=5.0)
        with pytest.raises(ValueError):
            estimate_g2(hist, rep_period=13.1, window=6.5)

    def test_excluded_peaks_masked_everywhere(self):
        # reflection artifact at +10.5 ns lands inside the +13.1 ns side
        # window; masking a window-wide region around 8.0 ns removes it
        # without touching the side peak itself
        hist = synthetic_histogram(50, 100_000)
        artifact = np.argmin(np.abs(delays_ps(hist) - 10_500))
        hist.counts[artifact] += 777
        plain = estimate_g2(hist, window=6.5)
        masked = estimate_g2(hist, window=6.5, excluded_peaks=(8.0,))
        assert plain.side_sums == (100_000, 100_777)
        assert masked.side_sums == (100_000, 100_000)
        assert masked.value == 5.0e-4

    def test_perfect_source_consistent_with_zero(self):
        cfg = StreamConfig(n_pulses=1_000_000, p_single=0.1)
        hist = correlate(*synthesize_stream(cfg, seed=17), bin_width=5, span=30.0)
        est = estimate_g2(hist, cfg.rep_period, 6.5)
        assert est.value <= 2 * est.sigma

    def test_converges_to_injected_pair_fraction(self):
        # closed-form oracle for the pair/side coincidence ratio
        cfg = StreamConfig(n_pulses=2_000_000, p_single=0.1, p_double=0.005,
                           detection_efficiency=0.9)
        window = 6.5
        hist = correlate(*synthesize_stream(cfg, seed=23), bin_width=5, span=30.0)
        est = estimate_g2(hist, cfg.rep_period, window)
        eta = cfg.detection_efficiency
        pair_capture = 1.0 - np.exp(-window / (2 * cfg.emitter_lifetime))
        center = cfg.n_pulses * cfg.p_double * eta**2 * 0.5 * pair_capture
        mean_photons = 2 * cfg.p_double + (1 - cfg.p_double) * cfg.p_single
        q = mean_photons * eta / 2  # detected clicks per pulse per detector
        side = cfg.n_pulses * q**2
        oracle = center / side
        assert abs(est.value - oracle) <= 3 * est.sigma


class TestPeakSums:
    def test_zero_stream(self):
        cfg = StreamConfig(n_pulses=1000, p_single=0.0)
        c1, c2 = synthesize_stream(cfg, seed=1)
        hist = correlate(c1, c2, 5, span=30.0)
        ks, sums = peak_sums(hist)
        assert np.all(sums == 0)

    def test_flat_without_blinking(self):
        cfg = StreamConfig(n_pulses=500_000, p_single=0.4)
        hist = correlate(*synthesize_stream(cfg, seed=8), bin_width=50, span=800.0)
        ks, sums = peak_sums(hist)
        side = sums[ks != 0].astype(float)
        z2 = ((side - side.mean()) ** 2 / side.mean()).sum()
        k = len(side)
        assert abs(z2 - k) < 4 * np.sqrt(2 * k)

    def test_blinking_tone_detected(self):
        cfg = StreamConfig(
            n_pulses=400_000, p_single=0.4,
            blinking=BlinkingConfig(frequencies=(1.0,), depth=0.6),
        )
        hist = correlate(*synthesize_stream(cfg, seed=8), bin_width=50, span=800.0)
        ks, sums = peak_sums(hist)
        freqs, amp = peak_sum_spectrum(ks, sums, cfg.rep_period)
        peak_idx = np.argmax(amp[1:]) + 1
        assert freqs[peak_idx] == pytest.approx(1.0, abs=2 * (freqs[1] - freqs[0]))
        assert amp[peak_idx] > 5 * np.median(amp[1:])


class TestIO:
    def test_histogram_csv_matches_row_writer(self, tmp_path):
        # longer than one chunk of rows, with negative delays and large counts
        rng = np.random.default_rng(3)
        hist = CoincidenceHistogram(bin_width=7, counts=rng.integers(0, 10**12, 150_001))
        path = tmp_path / "hist.csv"
        hist.to_csv(path)
        expected = "delay_ps,counts\n" + "".join(
            f"{d},{c}\n" for d, c in zip(delays_ps(hist), hist.counts))
        assert path.read_bytes() == expected.encode()

    def test_histogram_round_trip(self, tmp_path):
        hist = synthetic_histogram(50, 1000)
        path = tmp_path / "hist.csv"
        hist.to_csv(path)
        back = read_histogram_csv(path)
        assert back.bin_width == hist.bin_width
        assert np.array_equal(back.counts, hist.counts)


def printf_rows(x, y):
    """The reference bytes: "%d,%d\\n" % row for every row."""
    return "".join("%d,%d\n" % row for row in zip(x.tolist(), y.tolist())).encode()


INT64_MAX = 2**63 - 1
EDGE_VALUES = [0, 1, -1, 9, -9, 10, -10, 9999, -9999, 10**4, -10**4, 10**8, -10**8,
               100010001, -100010001, INT64_MAX, -INT64_MAX, -INT64_MAX - 1]


class TestIntCsv:
    def test_edge_values(self):
        x = np.array(EDGE_VALUES, dtype=np.int64)
        assert _int_rows([x, x[::-1]]) == printf_rows(x, x[::-1])
        for value in EDGE_VALUES:  # each value alone sets the limbs of its column
            one = np.array([value], dtype=np.int64)
            assert _int_rows([one, one]) == printf_rows(one, one)

    @pytest.mark.parametrize("rows", [1, _CSV_CHUNK - 1, _CSV_CHUNK, _CSV_CHUNK + 1])
    def test_chunk_boundaries(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        # magnitudes from 0 to 19 digits, so that chunks differ in limb counts
        x = rng.integers(-INT64_MAX, INT64_MAX, rows) >> rng.integers(0, 64, rows)
        y = rng.integers(0, 10**6, rows)
        path = tmp_path / "rows.csv"
        write_int_csv(path, "x,y", x, y)
        assert path.read_bytes() == b"x,y\n" + printf_rows(x, y)
        write_int_csv(path, "k,y", range(-3 * rows, 3 * rows, 6), y)
        assert path.read_bytes() == b"k,y\n" + printf_rows(np.arange(-3 * rows, 3 * rows, 6), y)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-INT64_MAX - 1, INT64_MAX),
                              st.integers(-INT64_MAX - 1, INT64_MAX)), min_size=1, max_size=40))
    def test_matches_printf_on_random_int64(self, rows):
        x, y = (np.array(column, dtype=np.int64) for column in zip(*rows))
        assert _int_rows([x, y]) == printf_rows(x, y)

    def test_histogram_memory_does_not_grow_with_rows(self, tmp_path):
        # a chunk's buffers bound the peak: the 1,320,001-row histogram of a
        # 3300 ns span peaks no higher than a four-chunk one, and below the
        # bytes of its own counts
        peaks = []
        for rows in (3 * _CSV_CHUNK + 1, 1_320_001):
            hist = CoincidenceHistogram(bin_width=5, counts=np.random.default_rng(rows).integers(
                0, 10**6, rows))
            _int_rows([hist.counts[:1], hist.counts[:1]])  # the digit tables, built once
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                hist.to_csv(tmp_path / "hist.csv")
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0]
        assert peaks[1] < hist.counts.nbytes


def write_rows(path, text):
    path.write_text("delay_ps,counts\n" + text)
    return path


BAD_HISTOGRAMS = {
    "header_only": "",
    "one_row": "0,5\n",
    "even_rows": "-5,1\n0,2\n5,3\n10,4\n",
    "off_centre": "0,1\n5,2\n10,3\n",
    "uneven_delays": "-10,1\n-5,2\n0,3\n6,4\n10,5\n",
    "zero_bin_width": "0,1\n0,2\n0,3\n",
    "negative_count": "-5,1\n0,-2\n5,3\n",
    "three_columns": "-5,1,0\n0,2,0\n5,3,0\n",
    "not_integers": "-5,1\n0,two\n5,3\n",
}


@pytest.mark.parametrize("text", BAD_HISTOGRAMS.values(), ids=BAD_HISTOGRAMS.keys())
def test_malformed_histogram_is_named(tmp_path, text):
    with pytest.raises(MalformedHistogram):
        read_histogram_csv(write_rows(tmp_path / "hist.csv", text))


def test_three_bin_histogram_reads(tmp_path):
    hist = read_histogram_csv(write_rows(tmp_path / "hist.csv", "-7,1\n0,2\n7,3\n"))
    assert hist.bin_width == 7 and hist.counts.tolist() == [1, 2, 3]
