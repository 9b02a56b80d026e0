"""Lifetime analysis of the cascaded decay and filter calibration helpers.

Rate-equation populations for the biexciton-exciton cascade, Gaussian
instrument-response convolution, Poisson-weighted least-squares lifetime
fitting, and the super-Gaussian transmission model used to calibrate
grating-based spectral filters.

Times are in ns and rates in 1/ns throughout; the CLI converts ps data at
the boundary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares
from scipy.special import erfc

DEGENERATE_RATE_GAP = 1e-9


class GridTooCoarse(ValueError):
    pass


class NonConvergence(RuntimeError):
    pass


class IllConditioned(RuntimeError):
    pass


@dataclass
class CascadeParams:
    """Cascade fit parameters: biexciton and exciton decay rates (1/ns),
    Gaussian IRF width (ns), peak amplitude (counts) and time offset (ns)."""

    gamma_2x: float
    gamma_x: float
    irf_sigma: float
    amplitude: float
    offset: float = 0.0

    def __post_init__(self):
        if min(self.gamma_2x, self.gamma_x, self.irf_sigma) <= 0:
            raise ValueError("rates and irf_sigma must be > 0")


@dataclass(frozen=True)
class SuperGaussianFilter:
    """Flat-top transmission profile; `bandwidth` is the FWHM, `order` 1 gives
    a plain Gaussian and large orders approach a box."""

    center: float
    bandwidth: float
    order: float = 1.0

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be > 0")
        if self.order < 1:
            raise ValueError("order must be >= 1")


def super_gaussian(nu, filt: SuperGaussianFilter):
    """Transmission exp(-ln 2 * (2 |nu - center| / bandwidth)^(2 * order)).

    The exponent is 2 * order, so order 1 is a Gaussian of FWHM `bandwidth`;
    the value lies in [0, 1] and is exactly 1/2 at center +- bandwidth/2.
    """
    x = 2.0 * np.abs(np.asarray(nu, dtype=float) - filt.center) / filt.bandwidth
    return np.exp(-np.log(2.0) * x ** (2.0 * filt.order))


def cascade_populations(gamma_2x, gamma_x, t):
    """Populations (n_2X, n_X) of the cascade prepared in the biexciton.

    n_2X = exp(-g2x t), n_X = g2x/(gx - g2x) (exp(-g2x t) - exp(-gx t)); for
    near-degenerate rates the analytic limit g t exp(-g t) is used so fits
    can pass smoothly through gamma_2x = gamma_x.
    """
    t = np.asarray(t, dtype=float)
    n_2x = np.exp(-gamma_2x * t)
    if abs(gamma_2x - gamma_x) < DEGENERATE_RATE_GAP * abs(gamma_x):
        n_x = gamma_2x * t * np.exp(-gamma_2x * t)
    else:
        n_x = gamma_2x / (gamma_x - gamma_2x) * (np.exp(-gamma_2x * t) - np.exp(-gamma_x * t))
    return n_2x, n_x


def convolve_irf(times, curve, irf_sigma):
    """Convolve a curve sampled on a uniform grid with a normalized Gaussian.

    irf_sigma below the grid step returns the curve unchanged (the kernel is
    a delta at this resolution); otherwise the grid must be finer than
    irf_sigma / 5.  The kernel is sampled out to where exp(-x^2 / 2 sigma^2)
    falls below machine epsilon (about 8.5 sigma) and normalized to unit
    sum, so the integral is preserved up to edge truncation.  The result has
    the curve's length, whatever the kernel's.

    A jump that falls on a grid node should be sampled as the mean of its
    one-sided limits; the error against the continuous convolution is then
    second order in dt / irf_sigma there.
    """
    times = np.asarray(times, dtype=float)
    curve = np.asarray(curve, dtype=float)
    steps = np.diff(times)
    dt = float(steps[0])
    if not np.allclose(steps, dt, rtol=1e-8):
        raise GridTooCoarse("time grid must be uniform")
    if irf_sigma < dt:
        return curve.copy()
    if dt > irf_sigma / 5.0:
        raise GridTooCoarse(f"grid step {dt:.4g} coarser than irf_sigma/5 = {irf_sigma / 5:.4g}")
    reach = np.sqrt(-2.0 * np.log(np.finfo(float).eps))
    half = int(np.ceil(reach * irf_sigma / dt))
    x = np.arange(-half, half + 1) * dt
    kernel = np.exp(-0.5 * (x / irf_sigma) ** 2)
    kernel /= kernel.sum()
    return np.convolve(curve, kernel)[half:half + len(curve)]


def _exp_gauss(t, rate, sigma, t0):
    """Closed-form convolution of exp(-rate t) theta(t) with a unit Gaussian
    of width sigma, shifted to start at t0."""
    u = t - t0
    arg = 0.5 * rate**2 * sigma**2 - rate * u
    arg = np.clip(arg, -700.0, 700.0)
    return 0.5 * np.exp(arg) * erfc((rate * sigma**2 - u) / (np.sqrt(2.0) * sigma))


def cascade_model(times, params: CascadeParams, which: str):
    """IRF-blurred decay curve for the chosen transition.

    biexciton: amplitude * EMG(gamma_2x); exciton: amplitude-normalized
    buildup-and-decay from the cascade populations.
    """
    g2x, gx, s = abs(params.gamma_2x), abs(params.gamma_x), abs(params.irf_sigma)
    if which == "biexciton":
        return params.amplitude * _exp_gauss(times, g2x, s, params.offset)
    if which != "exciton":
        raise ValueError(f"unknown transition {which!r}")
    if abs(g2x - gx) < DEGENERATE_RATE_GAP * gx:
        gx = g2x * (1.0 + 2.0 * DEGENERATE_RATE_GAP)
    shape = g2x / (gx - g2x) * (
        _exp_gauss(times, g2x, s, params.offset) - _exp_gauss(times, gx, s, params.offset)
    )
    return params.amplitude * shape


@dataclass
class FitResult:
    """Fitted parameters, their 1-sigma uncertainties and covariance, and the
    reduced Pearson chi-square of the returned model mu:
    sum((counts - mu)^2 / mu) over the bins with mu > 1 (the count floor of
    the fit weights), divided by the number of those bins minus the number
    of fitted parameters; nan when that is not positive."""

    params: CascadeParams
    uncertainties: dict
    covariance: np.ndarray
    chi2_reduced: float
    which: str

    def to_json(self, path):
        payload = {
            "tau_2x_ps": 1e3 / self.params.gamma_2x,
            "tau_x_ps": (1e3 / self.params.gamma_x) if self.which == "exciton" else None,
            "irf_sigma_ps": 1e3 * self.params.irf_sigma,
            "amplitude": self.params.amplitude,
            "offset_ps": 1e3 * self.params.offset,
            "uncertainties": self.uncertainties,
            "chi2_reduced": self.chi2_reduced,
            "which": self.which,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


_FIT_FIELDS = {
    "biexciton": ("gamma_2x", "irf_sigma", "amplitude", "offset"),
    "exciton": ("gamma_2x", "gamma_x", "irf_sigma", "amplitude", "offset"),
}


def fit_lifetimes(times, counts, init: CascadeParams, which: str = "exciton") -> FitResult:
    """Poisson-weighted Levenberg-Marquardt fit of the decay curve.

    `times` in ns, `counts` raw counts.  Weights start from the observed
    counts and are re-derived once from the fitted model (Pearson-style),
    which removes the few-percent rate bias that observed-count weights
    produce in low-count tail bins.  1-sigma uncertainties come from
    (J^T J)^-1, J the Jacobian at the solution weighted by sqrt(max(mu, 1))
    of the returned model mu (absolute weights, no chi-square rescaling).

    The exciton buildup-and-decay shape is invariant under swapping the two
    rates (up to amplitude), so the result is canonicalized to
    gamma_2x >= gamma_x: the biexciton feeds the exciton and decays faster.
    """
    times = np.asarray(times, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if len(times) < 50:
        raise ValueError("need at least 50 data points spanning buildup and decay")
    fields = _FIT_FIELDS[which]
    x0 = np.array([getattr(init, f) for f in fields])

    def pack(x):
        kw = {f: v for f, v in zip(fields, x)}
        kw.setdefault("gamma_x", init.gamma_x)
        return CascadeParams(
            gamma_2x=abs(kw["gamma_2x"]), gamma_x=abs(kw["gamma_x"]),
            irf_sigma=abs(kw["irf_sigma"]), amplitude=kw["amplitude"],
            offset=kw["offset"],
        )

    weights = np.sqrt(np.maximum(counts, 1.0))
    result = None
    for _ in range(2):
        def residuals(x, w=weights):
            return (cascade_model(times, pack(x), which) - counts) / w

        result = least_squares(residuals, x0, method="lm", xtol=1e-12, ftol=1e-12,
                               max_nfev=20000)
        if not result.success:
            raise NonConvergence(f"fit did not converge: {result.message}")
        x0 = result.x
        pass_weights = weights
        weights = np.sqrt(np.maximum(cascade_model(times, pack(result.x), which), 1.0))

    # the last pass's Jacobian at result.x, reweighted by the returned model
    jac = result.jac * (pass_weights / weights)[:, None]
    _, sv, _ = np.linalg.svd(jac, full_matrices=False)
    if sv[-1] < 1e-12 * sv[0]:
        raise IllConditioned("rank-deficient Jacobian; parameters not identifiable")
    cov = np.linalg.inv(jac.T @ jac)
    sigmas = {f: float(s) for f, s in zip(fields, np.sqrt(np.diag(cov)))}
    params = pack(result.x)
    if which == "exciton" and params.gamma_2x < params.gamma_x:
        params, sigmas, cov = _swap_exciton_rates(params, sigmas, cov, fields)
    mu = cascade_model(times, params, which)
    above = mu > 1.0
    ndof = int(above.sum()) - len(fields)
    pearson = float(np.sum((counts[above] - mu[above]) ** 2 / mu[above]))
    chi2 = pearson / ndof if ndof > 0 else float("nan")
    return FitResult(
        params=params,
        uncertainties=sigmas,
        covariance=cov,
        chi2_reduced=chi2,
        which=which,
    )


def _swap_exciton_rates(params, sigmas, cov, fields):
    """Map the rate-swapped exciton solution onto the canonical labeling
    (identical curve: amplitude rescales by gamma_2x / gamma_x)."""
    scale = params.gamma_2x / params.gamma_x
    swapped = CascadeParams(
        gamma_2x=params.gamma_x, gamma_x=params.gamma_2x,
        irf_sigma=params.irf_sigma, amplitude=params.amplitude * scale,
        offset=params.offset,
    )
    sig = dict(sigmas)
    sig["gamma_2x"], sig["gamma_x"] = sigmas["gamma_x"], sigmas["gamma_2x"]
    sig["amplitude"] = sigmas["amplitude"] * abs(scale)
    i, j = fields.index("gamma_2x"), fields.index("gamma_x")
    perm = list(range(len(fields)))
    perm[i], perm[j] = j, i
    cov = cov[np.ix_(perm, perm)]
    return swapped, sig, cov


def initial_cascade_guess(times, counts, which: str = "exciton") -> CascadeParams:
    """Heuristic starting point: amplitude from the peak, slow rate from the
    tail slope, fast rate twice that, IRF from the rise."""
    times = np.asarray(times, dtype=float)
    counts = np.asarray(counts, dtype=float)
    i_peak = int(np.argmax(counts))
    tail = counts[i_peak:] > max(counts.max() * 1e-3, 1.0)
    t_tail = times[i_peak:][tail]
    y_tail = np.log(counts[i_peak:][tail])
    slope = np.polyfit(t_tail, y_tail, 1)[0] if len(t_tail) > 2 else -1.0
    gamma_slow = max(-slope, 1e-3)
    rise = times[i_peak] - times[0]
    return CascadeParams(
        gamma_2x=2.0 * gamma_slow if which == "exciton" else gamma_slow,
        gamma_x=gamma_slow,
        irf_sigma=max(rise / 4.0, (times[1] - times[0])),
        amplitude=float(counts.max()),
        offset=float(times[0] + rise / 2.0),
    )


def read_decay_csv(path):
    """CSV (time_ps, counts) -> (times in ns, counts)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return data[:, 0] * 1e-3, data[:, 1]


def write_decay_csv(path, times_ns, counts):
    with open(path, "w") as fh:
        fh.write("time_ps,counts\n")
        for t, c in zip(times_ns, counts):
            fh.write(f"{t * 1e3:.6g},{c:.10g}\n")
