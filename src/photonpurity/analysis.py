"""Lifetime analysis of the cascaded decay and filter calibration helpers.

The decay curves of the biexciton-exciton cascade (its rate-equation
populations convolved in closed form with a Gaussian instrument response),
Poisson maximum-likelihood lifetime fitting, and the super-Gaussian
transmission model used to calibrate grating-based spectral filters.

Times are in ns and rates in 1/ns throughout; the CLI converts ps data at
the boundary.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

DEGENERATE_RATE_GAP = 1e-9
MIN_FIT_POINTS = 50    # data points fit_lifetimes needs across buildup and decay


class NonConvergence(RuntimeError):
    pass


class IllConditioned(RuntimeError):
    pass


class MalformedDecay(ValueError):
    """Decay data that is not at least MIN_FIT_POINTS rows of finite time,
    counts with increasing times and counts >= 0."""


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


def _exp_gauss(t, rate, sigma, t0):
    """Closed-form convolution of exp(-rate t) theta(t) with a unit Gaussian
    of width sigma, shifted to start at t0."""
    from scipy.special import erfc

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
    """Fitted parameters, their 1-sigma uncertainties, and the
    reduced Pearson chi-square of the returned model mu:
    sum((counts - mu)^2 / mu) over the bins with mu > 1 (the floor of the
    Fisher weights), divided by the number of those bins minus the number
    of fitted parameters; nan when that is not positive."""

    params: CascadeParams
    uncertainties: dict
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
    """Poisson maximum-likelihood fit of the decay curve: `times` in ns,
    `counts` raw counts (ValueError unless each is finite and >= 0).

    One Levenberg-Marquardt pass on the deviance residuals sign(mu - c)
    sqrt(2 (mu - c + c ln(c / mu))) of the model mu (>= 1e-300 max(c, 1))
    minimizes the Poisson deviance, so it is the maximum-likelihood fit
    (Bajzer et al., Eur. Biophys. J. 20, 247 (1991)).  The rates, IRF width
    and amplitude enter as their absolute values, and the answer does not
    depend on the start; a curve without signal is IllConditioned.  1-sigma
    uncertainties are the inverse Fisher information (J^T diag(1 / max(mu,
    1)) J)^-1, J = d mu / d params at the answer by central differences.

    The exciton buildup-and-decay shape is invariant under swapping the two
    rates (up to amplitude), so the answer is canonicalized to
    gamma_2x >= gamma_x, the biexciton feeding the exciton and decaying
    faster, before J is taken: the uncertainties do not depend on the start
    either.
    """
    from scipy.optimize import least_squares
    from scipy.special import xlog1py

    times = np.asarray(times, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if len(times) < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} data points spanning buildup and decay")
    if not np.all(counts >= 0):  # NaN too: the deviance needs counts >= 0
        raise ValueError("counts must be finite and >= 0")
    fields = _FIT_FIELDS[which]
    x0 = np.array([getattr(init, f) for f in fields])

    def pack(x):  # every parameter but the offset enters as its absolute value
        kw = {f: v if f == "offset" else abs(v) for f, v in zip(fields, x)}
        return CascadeParams(**{"gamma_x": init.gamma_x, **kw})

    def curve(x):
        return cascade_model(times, pack(x), which)

    floor = 1e-300 * np.maximum(counts, 1.0)  # keeps c / mu finite

    def deviance_residuals(x):
        mu = np.maximum(curve(x), floor)
        rel = counts / mu - 1.0  # mu - c + c ln(c / mu) = mu ((1 + rel) ln(1 + rel) - rel)
        dev = mu * (xlog1py(1.0 + rel, rel) - rel)
        return np.sign(mu - counts) * np.sqrt(2.0 * dev)

    result = least_squares(deviance_residuals, x0, method="lm", xtol=1e-12, ftol=1e-12,
                           max_nfev=20000)
    if not result.success:
        raise NonConvergence(f"fit did not converge: {result.message}")

    params = pack(result.x)
    if which == "exciton" and params.gamma_2x < params.gamma_x:  # the same curve, relabeled
        params = CascadeParams(params.gamma_x, params.gamma_2x, params.irf_sigma,
                               params.amplitude * params.gamma_2x / params.gamma_x,
                               params.offset)
    x = np.array([getattr(params, f) for f in fields])
    mu = curve(x)
    steps = 1e-6 * np.where(x != 0.0, np.abs(x), 1.0)
    jac = np.array([curve(x + h) - curve(x - h) for h in np.diag(steps)]).T / (2.0 * steps)
    _, sv, vt = np.linalg.svd(jac / np.sqrt(np.maximum(mu, 1.0))[:, None], full_matrices=False)
    if sv[-1] <= 1e-12 * sv[0]:  # an all-zero Jacobian too
        raise IllConditioned("rank-deficient Jacobian; parameters not identifiable")
    cov = (vt.T / sv**2) @ vt  # (J^T W J)^-1 = V S^-2 V^T
    sigmas = {f: float(s) for f, s in zip(fields, np.sqrt(np.diag(cov)))}
    above = mu > 1.0
    ndof = int(above.sum()) - len(fields)
    pearson = float(np.sum((counts[above] - mu[above]) ** 2 / mu[above]))
    chi2 = pearson / ndof if ndof > 0 else float("nan")
    return FitResult(
        params=params,
        uncertainties=sigmas,
        chi2_reduced=chi2,
        which=which,
    )


def initial_cascade_guess(times, counts, which: str = "exciton") -> CascadeParams:
    """Heuristic starting point read off the curve's leading edge and tail.

    The baseline is the median of the bins before the counts first exceed a
    tenth of the peak; the onset is where the leading edge crosses half the
    peak height above that baseline (linearly interpolated), and the IRF
    width is half the edge's rise from 16 % to 84 % of that height.  The
    slow rate comes from the tail slope after the peak, the fast rate is
    twice that, and the amplitude is the peak height above the baseline.
    """
    times = np.asarray(times, dtype=float)
    counts = np.asarray(counts, dtype=float)
    i_peak = int(np.argmax(counts))
    peak = counts[i_peak]
    i_rise = int(np.argmax(counts > 0.1 * peak))
    baseline = float(np.median(counts[:i_rise])) if i_rise else 0.0
    height = peak - baseline

    def crossing(level):
        """First time the leading edge reaches baseline + level * height."""
        y = counts[:i_peak + 1] - baseline - level * height
        i = int(np.argmax(y >= 0))
        if i == 0:
            return times[0]
        return times[i - 1] + (times[i] - times[i - 1]) * -y[i - 1] / (y[i] - y[i - 1])

    tail = counts[i_peak:] - baseline > max(height * 1e-3, 1.0)
    t_tail = times[i_peak:][tail]
    y_tail = np.log(counts[i_peak:][tail] - baseline)
    slope = np.polyfit(t_tail, y_tail, 1)[0] if len(t_tail) > 2 else -1.0
    gamma_slow = max(-slope, 1e-3)
    return CascadeParams(
        gamma_2x=2.0 * gamma_slow if which == "exciton" else gamma_slow,
        gamma_x=gamma_slow,
        irf_sigma=max((crossing(0.84) - crossing(0.16)) / 2.0, times[1] - times[0]),
        amplitude=float(height),
        offset=float(crossing(0.5)),
    )


def read_decay_csv(path):
    """CSV (time_ps, counts) -> (times in ns, counts); raise MalformedDecay
    unless it holds at least MIN_FIT_POINTS rows of two finite numbers, with
    increasing times and counts >= 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on a header-only file
        try:
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as err:
            raise MalformedDecay(f"{path}: {err}") from err
    if len(data) < MIN_FIT_POINTS:
        raise MalformedDecay(f"{path}: need at least {MIN_FIT_POINTS} rows spanning buildup "
                             f"and decay, got {len(data)}")
    if data.shape[1] != 2:
        raise MalformedDecay(f"{path}: need two columns time_ps,counts, got {data.shape[1]}")
    if not (np.all(np.isfinite(data)) and np.all(data[:, 1] >= 0)):
        raise MalformedDecay(f"{path}: times and counts must be finite, counts >= 0")
    if np.any(np.diff(data[:, 0]) <= 0):
        raise MalformedDecay(f"{path}: times must increase")
    return data[:, 0] * 1e-3, data[:, 1]


def write_decay_csv(path, times_ns, counts):
    with open(path, "w") as fh:
        fh.write("time_ps,counts\n")
        for t, c in zip(times_ns, counts):
            fh.write(f"{t * 1e3:.6g},{c:.10g}\n")
