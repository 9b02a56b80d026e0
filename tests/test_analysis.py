import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from photonpurity.analysis import (
    CascadeParams,
    IllConditioned,
    SuperGaussianFilter,
    cascade_model,
    fit_lifetimes,
    initial_cascade_guess,
    read_decay_csv,
    super_gaussian,
    write_decay_csv,
)

TRUE = CascadeParams(gamma_2x=1 / 0.158, gamma_x=1 / 0.294, irf_sigma=0.040,
                     amplitude=1e4, offset=0.8)


class TestCascadeModel:
    @pytest.mark.parametrize("which", ["biexciton", "exciton"])
    def test_matches_quadrature(self, which):
        # independent check of the closed form: adaptive quadrature of the
        # decay (times the onset step) against the unit Gaussian IRF, over
        # the +-12 sigma where the Gaussian is above 1e-31 of its peak
        g2x, gx, sigma, t0 = TRUE.gamma_2x, TRUE.gamma_x, TRUE.irf_sigma, TRUE.offset
        if which == "biexciton":
            def decay(s):
                return math.exp(-g2x * s)
        else:
            def decay(s):
                return g2x / (gx - g2x) * (math.exp(-g2x * s) - math.exp(-gx * s))

        def blurred(t):
            u = t - t0
            lo, hi = max(0.0, u - 12.0 * sigma), u + 12.0 * sigma
            if hi <= 0.0:
                return 0.0
            gauss = lambda s: math.exp(-0.5 * ((u - s) / sigma) ** 2) / (
                math.sqrt(2.0 * math.pi) * sigma)
            return quad(lambda s: decay(s) * gauss(s), lo, hi, epsabs=0.0, epsrel=1e-13,
                        limit=200)[0]

        t = np.linspace(0.0, 5.0, 101)
        model = cascade_model(t, TRUE, which)
        expected = TRUE.amplitude * np.array([blurred(x) for x in t])
        assert np.max(np.abs(model - expected)) <= 1e-10 * np.max(expected)


class TestFit:
    t = np.arange(0.0, 5.0, 0.005)

    def test_noiseless_self_consistency(self):
        y = cascade_model(self.t, TRUE, "exciton")
        init = CascadeParams(5.0, 3.0, 0.05, 9e3, 0.75)
        fit = fit_lifetimes(self.t, y, init, "exciton")
        residual = cascade_model(self.t, fit.params, "exciton") - y
        assert np.abs(residual).sum() < 1e-10 * y.sum()

    def test_exciton_round_trip(self):
        rng = np.random.default_rng(42)
        y = rng.poisson(np.maximum(cascade_model(self.t, TRUE, "exciton"), 0.0))
        init = CascadeParams(5.0, 3.0, 0.05, 9e3, 0.75)
        fit = fit_lifetimes(self.t, y.astype(float), init, "exciton")
        assert 1e3 / fit.params.gamma_2x == pytest.approx(158.0, rel=0.02)
        assert 1e3 / fit.params.gamma_x == pytest.approx(294.0, rel=0.02)
        assert fit.chi2_reduced == pytest.approx(1.0, abs=0.15)

    def test_biexciton_round_trip(self):
        rng = np.random.default_rng(7)
        y = rng.poisson(np.maximum(cascade_model(self.t, TRUE, "biexciton"), 0.0))
        init = CascadeParams(5.0, TRUE.gamma_x, 0.05, 9e3, 0.75)
        fit = fit_lifetimes(self.t, y.astype(float), init, "biexciton")
        assert 1e3 / fit.params.gamma_2x == pytest.approx(158.0, rel=0.02)
        assert fit.chi2_reduced == pytest.approx(1.0, abs=0.15)

    def test_canonical_rate_ordering(self):
        rng = np.random.default_rng(1)
        y = rng.poisson(np.maximum(cascade_model(self.t, TRUE, "exciton"), 0.0))
        # init on the swapped side of the degenerate ridge
        init = CascadeParams(2.5, 7.0, 0.05, 9e3, 0.75)
        fit = fit_lifetimes(self.t, y.astype(float), init, "exciton")
        assert fit.params.gamma_2x >= fit.params.gamma_x

    def test_uncertainties_do_not_depend_on_the_start(self):
        # the same curve from either side of the degenerate ridge: the
        # Fisher sigmas are taken at the one canonical answer
        rng = np.random.default_rng(1)
        y = rng.poisson(np.maximum(cascade_model(self.t, TRUE, "exciton"), 0.0)).astype(float)
        fits = [fit_lifetimes(self.t, y, CascadeParams(g2x, gx, 0.05, 9e3, 0.75), "exciton")
                for g2x, gx in ((5.0, 3.0), (2.5, 7.0))]
        assert fits[0].uncertainties.keys() == fits[1].uncertainties.keys()
        for name, sigma in fits[0].uncertainties.items():
            other = fits[1].uncertainties[name]
            assert type(sigma) is float and type(other) is float, name
            assert other == pytest.approx(sigma, rel=1e-6), name

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_lifetimes(self.t[:20], np.ones(20), TRUE, "exciton")

    def test_initial_guess_is_usable(self):
        rng = np.random.default_rng(12)
        y = rng.poisson(np.maximum(cascade_model(self.t, TRUE, "exciton"), 0.0))
        init = initial_cascade_guess(self.t, y.astype(float), "exciton")
        fit = fit_lifetimes(self.t, y.astype(float), init, "exciton")
        assert 1e3 / fit.params.gamma_x == pytest.approx(294.0, rel=0.02)
        assert fit.chi2_reduced == pytest.approx(1.0, abs=0.15)

    def test_uncertainties_weighted_by_returned_model(self):
        # same draw as above, from a start (onset 0.51 ns, IRF 0.25 ns) far from
        # the answer: the covariance is the inverse Fisher information of the
        # returned model, here checked against a central-difference Jacobian
        # built from scratch
        rng = np.random.default_rng(12)
        y = rng.poisson(np.maximum(cascade_model(self.t, TRUE, "exciton"), 0.0)).astype(float)
        init = CascadeParams(6.301058380221, 3.1505291901105, 0.25375, 4899.0, 0.5075)
        fit = fit_lifetimes(self.t, y, init, "exciton")
        fields = ("gamma_2x", "gamma_x", "irf_sigma", "amplitude", "offset")
        x = np.array([getattr(fit.params, f) for f in fields])
        weights = np.sqrt(np.maximum(cascade_model(self.t, fit.params, "exciton"), 1.0))
        cols = []
        for i in range(len(x)):
            step = np.zeros_like(x)
            step[i] = 1e-6 * abs(x[i])
            up = cascade_model(self.t, CascadeParams(*(x + step)), "exciton")
            down = cascade_model(self.t, CascadeParams(*(x - step)), "exciton")
            cols.append((up - down) / (2.0 * step[i]))
        jac = np.array(cols).T / weights[:, None]
        expected = np.sqrt(np.diag(np.linalg.inv(jac.T @ jac)))
        got = np.array([fit.uncertainties[f] for f in fields])
        assert np.allclose(got, expected, rtol=1e-4)
        assert fit.uncertainties["gamma_x"] == pytest.approx(1.365e-2, rel=0.02)

    def test_reported_sigma_matches_the_scatter(self):
        # 100 Poisson draws of the exciton curve, each fitted from its own
        # initial_cascade_guess: the spread of the fitted rates is what the
        # mean reported sigma says, and their mean is the true rate.  At 100
        # draws the ratio scatter / sigma has a standard deviation of about 7 %:
        # over 20 sets of 100 draws it ran 0.92-1.15 for both rates, and over 10
        # sets the mean sat within 1.8 standard errors of the truth
        rng = np.random.default_rng(0)
        curve = cascade_model(self.t, TRUE, "exciton")
        fits = []
        for _ in range(100):
            y = rng.poisson(curve).astype(float)
            fits.append(fit_lifetimes(self.t, y, initial_cascade_guess(self.t, y), "exciton"))
        for f in ("gamma_2x", "gamma_x"):
            rates = np.array([getattr(fit.params, f) for fit in fits])
            sigma = np.mean([fit.uncertainties[f] for fit in fits])
            assert np.std(rates, ddof=1) / sigma == pytest.approx(1.0, abs=0.25)
            assert abs(rates.mean() - getattr(TRUE, f)) < 4.0 * sigma / np.sqrt(len(rates))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_answer_does_not_depend_on_the_start(self):
        # four draws, each fitted from eight starts: the other tests' starts,
        # the truth, equal rates, a far onset and IRF (with its 17-digit twin)
        # and initial_cascade_guess.  The maximum-likelihood pass reaches the
        # same answer from every start, without a floating-point warning
        starts = [
            CascadeParams(5.0, 3.0, 0.05, 9e3, 0.75), TRUE,
            CascadeParams(2.5, 7.0, 0.05, 9e3, 0.75), CascadeParams(5.0, 3.0, 0.05, 10.0, 0.75),
            CascadeParams(6.3, 6.3, 0.25375, 4899.0, 0.5075),
            CascadeParams(6.301058380221, 3.1505291901105, 0.25375, 4899.0, 0.5075),
            CascadeParams(6.301058380221, 3.1505291901105, 0.25375000000000003, 4899.0,
                          0.5075000000000001),
        ]
        for seed in (12, 42, 1, 7):
            rng = np.random.default_rng(seed)
            y = rng.poisson(np.maximum(cascade_model(self.t, TRUE, "exciton"), 0.0)).astype(float)
            ref, *others = (fit_lifetimes(self.t, y, init, "exciton")
                            for init in [initial_cascade_guess(self.t, y), *starts])
            for fit in others:
                for f in ("gamma_2x", "gamma_x", "irf_sigma", "amplitude", "offset"):
                    gap = abs(getattr(fit.params, f) - getattr(ref.params, f))
                    assert gap < 1e-3 * min(fit.uncertainties[f], ref.uncertainties[f])

    @pytest.mark.parametrize("seed", [12, 42, 1, 7])
    def test_zero_jacobian_is_ill_conditioned(self, seed):
        # a decay without a count has no lifetimes: the fit drives the amplitude
        # to 0, where the model no longer depends on the other parameters; from
        # the other tests' start, equal rates and a start the seed draws
        rng = np.random.default_rng(seed)
        drawn = CascadeParams(*rng.uniform([1.0, 1.0, 0.01, 1.0, 0.1], [20.0, 20.0, 0.5, 2e4, 2.0]))
        for init in (CascadeParams(5.0, 3.0, 0.05, 9e3, 0.75),
                     CascadeParams(6.3, 6.3, 0.25375, 4899.0, 0.5075), drawn):
            for which in ("exciton", "biexciton"):
                with pytest.raises(IllConditioned, match="rank-deficient"):
                    fit_lifetimes(self.t, np.zeros_like(self.t), init, which)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_billion_counts_from_a_late_onset(self):
        # the model floor scales with the counts, so c / mu stays finite in the
        # bins before a late start's onset, where the model underflows
        bright = CascadeParams(TRUE.gamma_2x, TRUE.gamma_x, TRUE.irf_sigma, 1e9, TRUE.offset)
        y = np.random.default_rng(0).poisson(cascade_model(self.t, bright, "exciton"))
        init = CascadeParams(5.0, 3.0, 0.05, 9e8, 3.0)
        fit = fit_lifetimes(self.t, y.astype(float), init, "exciton")
        assert 1e3 / fit.params.gamma_x == pytest.approx(294.0, rel=1e-3)

    def test_negative_count_is_a_value_error(self):
        y = cascade_model(self.t, TRUE, "exciton")
        y[100] = -3.0
        with pytest.raises(ValueError, match=">= 0"):
            fit_lifetimes(self.t, y, CascadeParams(5.0, 3.0, 0.05, 9e3, 0.75), "exciton")

    def test_csv_round_trip(self, tmp_path):
        y = cascade_model(self.t, TRUE, "exciton")
        path = tmp_path / "decay.csv"
        write_decay_csv(path, self.t, y)
        t_back, y_back = read_decay_csv(path)
        assert np.allclose(t_back, self.t, atol=1e-9)
        assert np.allclose(y_back, y, rtol=1e-6)

    def test_json_export(self, tmp_path):
        import json

        y = cascade_model(self.t, TRUE, "exciton")
        init = CascadeParams(5.0, 3.0, 0.05, 9e3, 0.75)
        fit = fit_lifetimes(self.t, y, init, "exciton")
        path = tmp_path / "fit.json"
        fit.to_json(path)
        data = json.loads(path.read_text())
        assert data["tau_2x_ps"] == pytest.approx(158.0, rel=1e-6)
        assert data["tau_x_ps"] == pytest.approx(294.0, rel=1e-6)
        assert "uncertainties" in data and data["chi2_reduced"] < 1e-10


class TestSuperGaussian:
    def test_center_and_half_maximum(self):
        filt = SuperGaussianFilter(center=320.0, bandwidth=0.159, order=3.0)
        assert super_gaussian(320.0, filt) == 1.0
        assert super_gaussian(320.0 + 0.159 / 2, filt) == pytest.approx(0.5, rel=1e-12)
        assert super_gaussian(320.0 - 0.159 / 2, filt) == pytest.approx(0.5, rel=1e-12)

    def test_flat_top_limit(self):
        filt = SuperGaussianFilter(center=0.0, bandwidth=1.0, order=12.0)
        assert super_gaussian(0.4, filt) > 0.999

    def test_order_one_is_gaussian(self):
        filt = SuperGaussianFilter(center=0.0, bandwidth=2.0, order=1.0)
        nu = np.linspace(-3, 3, 61)
        expected = np.exp(-math.log(2) * (2 * np.abs(nu) / 2.0) ** 2)
        assert np.allclose(super_gaussian(nu, filt), expected)

    @settings(max_examples=40, deadline=None)
    @given(x=st.floats(0.0, 5.0), dx=st.floats(0.001, 2.0),
           order=st.floats(1.0, 8.0))
    def test_even_and_monotone(self, x, dx, order):
        filt = SuperGaussianFilter(center=1.5, bandwidth=0.8, order=order)
        assert super_gaussian(1.5 + x, filt) == pytest.approx(
            float(super_gaussian(1.5 - x, filt)), rel=1e-12)
        assert super_gaussian(1.5 + x + dx, filt) <= super_gaussian(1.5 + x, filt) + 1e-15

    def test_invalid(self):
        with pytest.raises(ValueError):
            SuperGaussianFilter(center=0.0, bandwidth=-1.0)
        with pytest.raises(ValueError):
            SuperGaussianFilter(center=0.0, bandwidth=1.0, order=0.5)
