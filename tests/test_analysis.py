import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erfc

from photonpurity.analysis import (
    CascadeParams,
    GridTooCoarse,
    IllConditioned,
    SuperGaussianFilter,
    cascade_model,
    cascade_populations,
    convolve_irf,
    fit_lifetimes,
    initial_cascade_guess,
    read_decay_csv,
    super_gaussian,
    write_decay_csv,
)

TRUE = CascadeParams(gamma_2x=1 / 0.158, gamma_x=1 / 0.294, irf_sigma=0.040,
                     amplitude=1e4, offset=0.8)


class TestCascadePopulations:
    def test_initial_condition(self):
        n_2x, n_x = cascade_populations(2.0, 1.0, 0.0)
        assert n_2x == 1.0 and n_x == 0.0

    def test_exciton_maximum_position(self):
        g2x, gx = 2.0, 1.0
        t = np.linspace(0.0, 6.0, 200001)
        _, n_x = cascade_populations(g2x, gx, t)
        t_star = math.log(g2x / gx) / (g2x - gx)
        assert t[np.argmax(n_x)] == pytest.approx(t_star, abs=1e-4)

    def test_degenerate_limit(self):
        t = np.linspace(0.0, 5.0, 101)
        _, n_x = cascade_populations(1.0, 1.0 + 1e-12, t)
        assert np.max(np.abs(n_x - t * np.exp(-t))) < 1e-9

    def test_rate_equations_satisfied(self):
        # five-point stencil derivatives against the rate equations
        g2x, gx = 1.0, 2.0
        h = 1e-3
        t = np.linspace(0.1, 4.0, 40)
        stencil = np.array([-2, -1, 1, 2]) * h
        w = np.array([1, -8, 8, -1]) / (12 * h)
        for name, idx in (("2x", 0), ("x", 1)):
            vals = [cascade_populations(g2x, gx, t + s)[idx] for s in stencil]
            deriv = sum(wi * v for wi, v in zip(w, vals))
            n_2x, n_x = cascade_populations(g2x, gx, t)
            rhs = -g2x * n_2x if name == "2x" else g2x * n_2x - gx * n_x
            assert np.max(np.abs(deriv - rhs)) < 1e-10


class TestConvolveIrf:
    def test_identity_below_grid_step(self):
        t = np.arange(0.0, 5.0, 0.01)
        curve = np.exp(-t)
        out = convolve_irf(t, curve, 0.001)
        assert np.array_equal(out, curve)

    def test_too_coarse_rejected(self):
        t = np.arange(0.0, 5.0, 0.01)
        with pytest.raises(GridTooCoarse):
            convolve_irf(t, np.exp(-t), 0.02)

    def test_delta_becomes_gaussian(self):
        t = np.arange(-2.0, 2.0, 0.002)
        curve = np.zeros_like(t)
        center = len(t) // 2
        curve[center] = 1.0
        sigma = 0.05
        out = convolve_irf(t, curve, sigma)
        expected = np.exp(-0.5 * ((t - t[center]) / sigma) ** 2)
        expected /= expected.sum()
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_matches_closed_form_exp_gaussian(self):
        # The output is pinned to the unit-sum sampled kernel (delta and
        # linearity tests), so a step whose onset sample is 1 would be off by
        # half the kernel's peak weight, dt / (2 sqrt(2 pi) sigma), at t = 0.
        # Sampled as the mean of its one-sided limits, the onset leaves a
        # second-order error: it must fall fourfold when dt halves.
        rate, sigma = 1 / 0.294, 0.04

        def max_error(dt):
            t = dt * np.arange(round(-3.0 / dt), round(12.0 / dt))
            curve = np.where(t > 0, np.exp(-rate * np.maximum(t, 0.0)), 0.0)
            curve[t == 0] = 0.5
            out = convolve_irf(t, curve, sigma)
            exact = 0.5 * np.exp(0.5 * rate**2 * sigma**2 - rate * t) * erfc(
                (rate * sigma**2 - t) / (math.sqrt(2) * sigma)
            )
            return np.max(np.abs(out - exact))

        coarse, fine = max_error(sigma / 10), max_error(sigma / 20)
        assert fine < 1e-4
        assert coarse / fine == pytest.approx(4.0, abs=0.5)

    def test_curve_shorter_than_kernel(self):
        t = 0.01 * np.arange(50)
        sigma = 0.1
        curve = np.zeros_like(t)
        curve[25] = 1.0
        out = convolve_irf(t, curve, sigma)
        assert out.shape == t.shape
        # at dt = sigma / 10 the kernel's sum is sqrt(2 pi) sigma / dt to
        # machine precision, so each weight is the Gaussian density times dt
        weight = 0.01 / (math.sqrt(2 * math.pi) * sigma)
        expected = weight * np.exp(-0.5 * ((t - t[25]) / sigma) ** 2)
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_preserves_integral(self):
        t = np.arange(0.0, 20.0, 0.005)
        curve = np.exp(-((t - 8) / 1.5) ** 2)
        out = convolve_irf(t, curve, 0.2)
        assert np.trapezoid(out, t) == pytest.approx(np.trapezoid(curve, t), rel=1e-6)

    def test_linear(self):
        t = np.arange(0.0, 10.0, 0.01)
        f = np.exp(-t)
        g = np.exp(-0.5 * (t - 5) ** 2)
        lhs = convolve_irf(t, 2.0 * f + 3.0 * g, 0.1)
        rhs = 2.0 * convolve_irf(t, f, 0.1) + 3.0 * convolve_irf(t, g, 0.1)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


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
        # same draw as above, where the first pass lands far from the answer:
        # the covariance must use the returned model's weights, here checked
        # against a central-difference Jacobian built from scratch
        rng = np.random.default_rng(12)
        y = rng.poisson(np.maximum(cascade_model(self.t, TRUE, "exciton"), 0.0)).astype(float)
        fit = fit_lifetimes(self.t, y, initial_cascade_guess(self.t, y, "exciton"), "exciton")
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
        assert fit.uncertainties["gamma_x"] == pytest.approx(1.27e-2, rel=0.02)

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
