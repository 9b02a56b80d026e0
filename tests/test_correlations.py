import json
import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from photonpurity import cli
from photonpurity import correlations as corr
from photonpurity import dynamics
from photonpurity.correlations import (
    NotConverged,
    ZeroEmission,
    filtered_g2_batch,
    filtered_g2_zero,
    spectrum,
    write_spectrum_csv,
    write_sweep_csv,
)
from photonpurity.model import (
    BiexcitonConfig,
    EXCITON_V_ONLY,
    GaussianPulse,
    SensorConfig,
    TwoLevelConfig,
    attach_sensor,
    build_biexciton,
    build_two_level,
)

from conftest import (FOURLEVEL_BINDING, basis_projector, fourlevel_system, two_level_system,
                      unfiltered_g2)

REFERENCES_SPECTRUM = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                                   "references_spectrum.json")
with open(REFERENCES_SPECTRUM) as _fh:
    SPECTRUM_REFERENCES = json.load(_fh)["spectrum"]


@pytest.fixture
def rhs_evals(monkeypatch):
    """evals(run): the number of right-hand sides that run() evaluates."""
    rhs = dynamics._Generator.rhs
    calls = []

    def counted(gen, t, y):
        calls.append(t)
        return rhs(gen, t, y)

    monkeypatch.setattr(dynamics._Generator, "rhs", counted)

    def evals(run):
        calls.clear()
        run()
        return len(calls)

    return evals


class TestFilteredG2:
    def test_zero_drive_raises(self):
        system = two_level_system(0.05, theta=0.0)
        with pytest.raises(ZeroEmission):
            filtered_g2_zero(system, SensorConfig(0.0, 1.0), check_convergence=False)

    def test_epsilon_convergence_flag(self, tls_g2):
        stats = tls_g2(0.05, 1.0)
        assert stats.g2_epsilon_check is not None
        assert abs(stats.g2_epsilon_check - stats.g2) <= 5e-3 * stats.g2

    def test_not_converged_for_strong_coupling(self):
        system = two_level_system(0.1)
        with pytest.raises(NotConverged):
            filtered_g2_zero(system, SensorConfig(0.0, 1.0, coupling=0.3))

    def test_stats_fields(self, tls_g2):
        stats = tls_g2(0.05, 1.0)
        assert stats.n_integral > 0
        assert stats.g2 >= 0
        # the states of the point's pass, at 13 stops across the window, stay positive
        system = two_level_system(0.05)
        (model,) = corr._filter_batch(system, "sigma", [SensorConfig(0.0, 1.0)], [system.pulse])
        window = np.linspace(0.0, dynamics.drive_cutoff(system.pulse), 13)
        states = dynamics.emission_integrals([model], model.output_ops["sensor"], window).states
        assert np.min(np.linalg.eigvalsh(states[0])) > -1e-9

    def test_empty_grid_samples_nothing(self):
        # the integrals need no sample: the default pass stops at t_c alone, and 13
        # stops across the window move g2 by < 1e-9
        system, sensor = two_level_system(0.05), SensorConfig(0.0, 1.0)
        stats = filtered_g2_zero(system, sensor, check_convergence=False)
        window = np.linspace(0.0, dynamics.drive_cutoff(system.pulse), 13)
        sampled = filtered_g2_zero(system, sensor, grid=window, check_convergence=False)
        assert stats.g2 == pytest.approx(sampled.g2, rel=1e-9)

    def test_truncation_insensitive(self):
        system = two_level_system(0.05)
        g2 = {}
        for trunc in (2, 3):
            st = filtered_g2_zero(system, SensorConfig(0.0, 1.0, truncation=trunc),
                                  check_convergence=False)
            g2[trunc] = st.g2
        assert abs(g2[3] - g2[2]) < 1e-8 * g2[2]

    def test_one_photon_sensor_rejected(self):
        with pytest.raises(ValueError, match="truncation 1 .*need >= 2"):
            filtered_g2_zero(two_level_system(0.05), SensorConfig(0.0, 1.0, truncation=1))

    def test_error_budget(self, monkeypatch):
        system = two_level_system(0.05)
        sensor = SensorConfig(0.0, 1.0)

        def g2(**kw):
            return filtered_g2_zero(system, sensor, check_convergence=False, **kw).g2

        base = g2()
        tight = g2(cfg=dynamics.IntegratorConfig(rel_tol=1e-11, abs_tol=1e-15))
        assert abs(base - tight) < 1e-9 * tight
        # a grid moves only where the integrator stops in the pulse window
        assert g2(grid=np.linspace(0.0, 20.0, 57)) == pytest.approx(base, rel=1e-9)
        monkeypatch.setattr(dynamics, "DRIVE_CUTOFF", 10.0)
        assert abs(g2() - base) < 1e-9 * base


# Converged references (perfbench/references_g2.json: two-time trapezoid on
# nested graded grids out to 30 lifetimes, Richardson-extrapolated).
REFERENCE_G2 = [
    (two_level_system, 0.05, 1.0, 0.0037410961),
    (two_level_system, 0.02, 0.05, 0.00044125021),
    (fourlevel_system, 0.01, 1.0, 4.1964831e-08),
]


@pytest.mark.parametrize("build, tau, gamma, expected", REFERENCE_G2)
def test_matches_converged_reference(build, tau, gamma, expected):
    system = build(tau)
    if build is fourlevel_system:
        sensor, observed = SensorConfig(FOURLEVEL_BINDING / 2.0, gamma), EXCITON_V_ONLY
    else:
        sensor, observed = SensorConfig(0.0, gamma), "sigma"
    stats = filtered_g2_zero(system, sensor, observed=observed)
    assert stats.g2 == pytest.approx(expected, rel=1e-6)


def _superoperator(h, channels):
    """Lindblad generator on row-major vec(rho): vec(A X B) = (A kron B^T) vec(X)."""
    eye = np.eye(h.shape[0])
    out = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op, rate in channels:
        opdop = op.conj().T @ op
        out = out + rate * (np.kron(op, op.conj()) - 0.5 * np.kron(opdop, eye)
                            - 0.5 * np.kron(eye, opdop.T))
    return out


def _oracle_g2(system, emit, grid, t_static):
    """Two-time trapezoid of G2 over grid x grid with exponential-midpoint
    propagators expm(L(t_mid) dt).  From `t_static` on, where the drive is
    dropped, a step is expm(L_static dt), exact and computed once per
    distinct (rounded) dt.  The sum sum_ij w_i w_j W(t_i, t_j),
    W(t_i, t_j) = <N|U(t_j, t_i) J rho_i> for i <= j, is accumulated
    row-free: acc_j = sum_{i<j} w_i U(t_j, t_i) J rho_i."""
    l_static = _superoperator(system.h_static, system.channels)
    l_drive = _superoperator(system.h_drive, ())
    nvec = (emit.conj().T @ emit).T.ravel()
    jump = np.kron(emit, emit.conj())
    dt = np.diff(grid)
    w = np.zeros(len(grid))
    w[:-1] += dt / 2.0
    w[1:] += dt / 2.0
    rho = np.zeros(system.dimension**2, dtype=complex)
    rho[0] = 1.0
    acc = np.zeros_like(rho)
    n = pairs = 0.0
    static = {}
    for k in range(len(grid)):
        if k:
            if grid[k - 1] >= t_static:
                h = round(dt[k - 1], 12)
                if h not in static:
                    static[h] = expm(l_static * h)
                prop = static[h]
            else:
                mid = 0.5 * (grid[k - 1] + grid[k])
                prop = expm((l_static + system.pulse.amplitude(mid) * l_drive) * dt[k - 1])
            rho, acc = prop @ rho, prop @ acc
        jr = jump @ rho
        n += w[k] * (nvec @ rho).real
        pairs += w[k] * (2.0 * (nvec @ acc) + w[k] * (nvec @ jr)).real
        acc = acc + w[k] * jr
    return pairs / n**2


@pytest.mark.slow
@pytest.mark.parametrize("build, tau, observed, center, expected, bias", [
    (two_level_system, 0.05, "sigma", 0.0, 0.0037410961, 1e-4),
    (fourlevel_system, 0.01, EXCITON_V_ONLY, FOURLEVEL_BINDING / 2.0, 4.196482858e-8, 2e-4),
], ids=["two_level", "exciton_line"])
def test_exact_propagator_oracle(build, tau, observed, center, expected, bias):
    # Grid budget: 240 intervals over the pulse window [0, 12 tau] and step
    # 0.01 from there to the horizon 30 (the cut t^2 e^-t tail is < 1e-10),
    # then both halved.  Past 12 tau the drive, below e^-32 of its peak, is
    # dropped.  Trapezoid and midpoint errors are O(h^2): 2.0e-4 and 5.0e-5
    # relative on the two grids of the two-level point, 4.8e-4 and 1.2e-4 on
    # the exciton line's, and Richardson extrapolation removes them.  An
    # unextrapolated grid reads 2.0e-4 (h / 0.01)^2 high on the two-level
    # point: the 0.0037416 once quoted for it, 1.4e-4 high, is that bias.
    gamma = 1.0
    sensor = SensorConfig(center, gamma)
    system = attach_sensor(build(tau), observed, sensor)
    eps = sensor.resolved_coupling(system.decay_scale)
    emit = gamma / (2.0 * eps) * system.output_ops["sensor"]
    t_w, horizon = 12.0 * tau, 30.0
    values = []
    for window_steps, step in ((240, 0.01), (480, 0.005)):
        window = np.linspace(0.0, t_w, window_steps + 1)
        after = np.linspace(t_w, horizon, int(round((horizon - t_w) / step)) + 1)
        values.append(_oracle_g2(system, emit, np.concatenate([window, after[1:]]), t_w))
    oracle = values[1] + (values[1] - values[0]) / 3.0
    assert values[1] == pytest.approx(oracle, rel=bias)  # what the extrapolation removes
    assert oracle == pytest.approx(expected, rel=1e-7)
    stats = filtered_g2_zero(build(tau), SensorConfig(center, gamma), observed=observed,
                             check_convergence=False)
    assert stats.g2 == pytest.approx(oracle, rel=1e-7)


@pytest.mark.parametrize("command, bound", [
    ("sweep-filter", 1e-9), ("sweep-pulse", 1e-9), ("sweep-fourlevel", 1e-9), ("spectrum", 1e-12),
], ids=["sweep-filter", "sweep-pulse", "sweep-fourlevel", "spectrum"])
def test_figure_tolerance_budget(tmp_path, monkeypatch, command, bound):
    # the figure-default curves of `command` at the default tolerance, the one
    # the commands run at, against the same command at rel_tol 1e-12,
    # abs_tol 1e-16, within the tolerance line of the error budget: relative
    # for a sweep's g2, of the peak for a spectrum
    jobs = [] if command == "spectrum" else ["--jobs", "1"]
    assert cli.main([command, "--out", str(tmp_path / "default"), *jobs]) == 0
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "DEFAULT_INTEGRATOR", dynamics.IntegratorConfig(1e-12, 1e-16))
        assert cli.main([command, "--out", str(tmp_path / "tight"), *jobs]) == 0
    names = sorted(p.name for p in (tmp_path / "default").glob("*.csv"))
    assert len(names) >= 2
    moved = False
    for name in names:
        base, tight = (np.loadtxt(tmp_path / side / name, delimiter=",", skiprows=1, usecols=1)
                       for side in ("default", "tight"))
        scale = np.max(tight) if command == "spectrum" else np.abs(tight)
        assert np.max(np.abs(base - tight) / scale) < bound, name
        moved |= not np.array_equal(base, tight)
    assert moved  # the tight run did run at the tight tolerance


def test_tail_premise_checked():
    system = two_level_system(0.05)
    sigma = system.output_ops["sigma"]
    # sigma^dag does not leave the ground state dark
    with pytest.raises(dynamics.TailPremiseError):
        dynamics.emission_integrals([system], sigma.conj().T, times=())
    # an incoherent pump leaves the ground state not steady
    pumped = replace(system, channels=system.channels + ((sigma.conj().T, 0.1),))
    with pytest.raises(dynamics.TailPremiseError):
        dynamics.emission_integrals([pumped], sigma, times=())


class TestUnfiltered:
    def test_large_bandwidth_recovers_unfiltered(self, tls_g2, tls_unfiltered):
        # at tau = 0.2 the emission is narrow against a 100 gamma filter
        filtered = tls_g2(0.2, 100.0).g2
        assert filtered == pytest.approx(tls_unfiltered(0.2), rel=0.05)

    def test_monotone_in_pulse_length(self, tls_unfiltered):
        values = [tls_unfiltered(tau) for tau in (0.02, 0.05, 0.2)]
        assert values[0] < values[1] < values[2]

    def test_short_pulse_closed_form(self):
        """To first order in gamma tau, g2 = (c / 2) gamma tau for a pi pulse, with
        c = int sin^2(pi Phi(x)) dx over the pulse's normal CDF Phi (Fischer et al.,
        Nat. Phys. 13, 649 (2017)): the emitter decays during the pulse and is
        re-excited by what is left of it.  r = g2 / ((c / 2) tau) is 1 - O(tau)
        (0.998183 at tau 0.001, 0.996516 at 0.002), and the Richardson value
        2 r(0.001) - r(0.002) = 1 - O(tau^2) (0.999850).  Budget: 3e-4, for the
        O(tau^2) remainder and the rel_tol 1e-11 integration."""
        x = np.linspace(-12.0, 12.0, 4801)
        cdf = 0.5 * (1.0 + np.array([math.erf(v / math.sqrt(2.0)) for v in x]))
        c = np.trapezoid(np.sin(np.pi * cdf) ** 2, x)
        assert c == pytest.approx(1.457217, abs=1e-6)
        cfg = dynamics.IntegratorConfig(rel_tol=1e-11, abs_tol=1e-15)
        r = {}
        for tau in (0.001, 0.002):
            system = two_level_system(tau)
            res = dynamics.emission_integrals([system], system.output_ops["sigma"], (), cfg)
            r[tau] = res.pair_integral[0] / res.n_integral[0] ** 2 / (0.5 * c * tau)
        assert abs(2.0 * r[0.001] - r[0.002] - 1.0) <= 3e-4

    def test_two_pi_pulse_worse_than_pi(self):
        tau = 0.3
        g2_pi = unfiltered_g2(two_level_system(tau, theta=math.pi))
        g2_2pi = unfiltered_g2(two_level_system(tau, theta=2 * math.pi))
        assert g2_2pi > g2_pi


class TestSpectrum:
    def test_symmetric_for_resonant_drive(self):
        system = two_level_system(0.05)
        dets = np.linspace(-6.0, 6.0, 21)
        (res,) = spectrum(system, "sigma", dets, [system.pulse], spec_bandwidth=0.2)
        assert np.max(np.abs(res - res[::-1])) < 1e-6
        assert dets[np.argmax(res)] == pytest.approx(0.0)

    def test_short_pulse_grows_shoulders(self):
        # near the line all pulse lengths share the natural Lorentzian tail;
        # beyond ~10 gamma the instantaneous-photon shoulder of the short
        # pulse rises well above the long-pulse spectrum
        dets = np.array([0.0, 2.0, 15.0, 30.0])
        curves = {}
        for tau in (0.02, 0.2):
            system = two_level_system(tau)
            (res,) = spectrum(system, "sigma", dets, [system.pulse], spec_bandwidth=0.2)
            curves[tau] = res
        assert curves[0.02][1] == pytest.approx(curves[0.2][1], rel=0.02)
        assert curves[0.02][2] > 3.0 * curves[0.2][2]
        assert curves[0.02][3] > 5.0 * curves[0.2][3]

    def test_pulse_lengths_share_one_pass(self, rhs_evals):
        # the spectrum workload's pulse lengths and centers: one pass over both pulses
        # gives each curve within 1e-12 of its peak of a pass per pulse, at most 0.6 of
        # their right-hand sides
        pulses = [GaussianPulse(math.pi, tau) for tau in (0.02, 0.2)]
        dets = np.linspace(-40.0, 40.0, 161)
        system = two_level_system(0.05)
        curves = []
        merged = rhs_evals(lambda: curves.extend(spectrum(system, "sigma", dets, pulses)))
        per_pulse = 0
        for pulse, curve in zip(pulses, curves):
            alone = []
            per_pulse += rhs_evals(lambda: alone.extend(spectrum(system, "sigma", dets, [pulse])))
            assert np.max(np.abs(curve - alone[0])) <= 1e-12
        assert merged <= 0.6 * per_pulse

    def test_empty_detunings_rejected(self):
        with pytest.raises(ValueError, match="detunings"):
            spectrum(two_level_system(0.05), "sigma", [], [GaussianPulse(math.pi, 0.05)])
        with pytest.raises(ValueError, match="pulses"):
            spectrum(two_level_system(0.05), "sigma", [0.0], [])

    def test_exciton_line_sits_at_half_binding(self):
        system = build_biexciton(BiexcitonConfig(binding_energy=300.0),
                                 GaussianPulse(math.pi, 0.01))
        dets = np.array([140.0, 145.0, 148.0, 150.0, 152.0, 155.0, 160.0])
        (res,) = spectrum(system, EXCITON_V_ONLY, dets, [system.pulse], spec_bandwidth=1.0)
        assert dets[np.argmax(res)] == pytest.approx(150.0)

    @pytest.mark.parametrize("ref", SPECTRUM_REFERENCES, ids=lambda ref: f"tau{ref['tau']:g}")
    def test_matches_converged_reference(self, ref):
        # the figure-default two-level spectra at pi pulse area against the
        # grid-extrapolated references, within their stated uncertainty
        system = two_level_system(ref["tau"])
        (res,) = spectrum(system, "sigma", ref["detunings"], [system.pulse],
                          spec_bandwidth=ref["spec_bandwidth"])
        assert np.max(np.abs(res - ref["values"])) <= ref["abs_uncertainty"]

    @pytest.mark.parametrize("system, observed, center, width, truncation", [
        (two_level_system(0.05), "sigma", 0.0, 0.2, 1),
        (fourlevel_system(), EXCITON_V_ONLY, FOURLEVEL_BINDING / 2.0, 1.0, 1),
        (two_level_system(0.05), "sigma", 0.0, 0.2, 2),
        (fourlevel_system(), EXCITON_V_ONLY, FOURLEVEL_BINDING / 2.0, 1.0, 2),
    ], ids=["two_level", "exciton_line", "two_level_pairs", "exciton_line_pairs"])
    def test_one_attach_matches_attach_per_detuning(self, system, observed, center, width,
                                                    truncation):
        # the shift by Delta a^dag a is bit for bit the attach at Delta, at the filter
        # center of each line itself too; each system has the pulse it is given
        dets = center + np.linspace(-8.0, 8.0, 5)
        pulse = GaussianPulse(math.pi, 0.02)
        eps = SensorConfig(0.0, width).resolved_coupling(system.decay_scale)
        assert eps == 1e-3 * max(width, system.decay_scale)
        shifted = corr._filter_batch(
            system, observed, [SensorConfig(d, width, truncation=truncation) for d in dets],
            [pulse])
        for d, one in zip(dets, shifted):
            each = attach_sensor(system, observed, SensorConfig(d, width, eps, truncation))
            assert np.array_equal(one.h_static, each.h_static)
            assert one.pulse is pulse and one.channels is shifted[0].channels

    @pytest.mark.parametrize("system, observed, center, width", [
        (two_level_system(0.05), "sigma", 0.0, 0.2),
        (fourlevel_system(), EXCITON_V_ONLY, FOURLEVEL_BINDING / 2.0, 1.0),
    ], ids=["two_level", "exciton_line"])
    def test_batch_matches_one_center_runs(self, system, observed, center, width):
        # the step control of a batch sees all its centers at once, that of one
        # center alone only its own
        sensors = [SensorConfig(d, width, truncation=1)
                   for d in center + np.linspace(-8.0, 8.0, 9)]
        extended = corr._filter_batch(system, observed, sensors, [system.pulse])
        emit = extended[0].output_ops["sensor"]
        batch = dynamics.emission_integrals(extended, emit, times=(), pairs=False).n_integral
        alone = [dynamics.emission_integrals([one], emit, times=(), pairs=False).n_integral[0]
                 for one in extended]
        assert np.max(np.abs(batch - alone)) <= 1e-9 * np.max(alone)

    @pytest.mark.parametrize("system, observed, center", [
        (two_level_system(0.02), "sigma", 0.0),
        (two_level_system(0.05), "sigma", 0.0),
        (two_level_system(0.2), "sigma", 0.0),
        (fourlevel_system(0.01), EXCITON_V_ONLY, FOURLEVEL_BINDING / 2.0),
    ], ids=["tau0.02", "tau0.05", "tau0.2", "exciton_line"])
    def test_one_photon_sensor_budget(self, system, observed, center):
        # the spectrum reads a one-photon quantity: at the figure defaults, cutting the
        # sensor at one photon instead of two moves the peak-normalized spectrum by < 1e-8
        centers = center + np.linspace(-40.0, 40.0, 161)
        one, two = (corr._filter_batch(system, observed, [SensorConfig(d, 0.2, truncation=n)
                                                          for d in centers], [system.pulse])
                    for n in (1, 2))
        assert one[0].dimension * 3 == two[0].dimension * 2
        n_one, n_two = (dynamics.emission_integrals(b, b[0].output_ops["sensor"], times=(),
                                                    pairs=False).n_integral for b in (one, two))
        assert np.max(np.abs(n_one / np.max(n_one) - n_two / np.max(n_two))) <= 1e-8

    def test_figure_centers_differ_only_in_phase(self):
        # the centers of a figure spectrum differ only in the filter detuning, which
        # turns the sensor's coherences: every remainder entry joins the two
        # coordinates of one coherence pair
        extended = corr._filter_batch(
            two_level_system(0.02), "sigma",
            [SensorConfig(d, 0.2, truncation=1) for d in np.linspace(-40.0, 40.0, 161)],
            [GaussianPulse(math.pi, 0.02)])
        gen = dynamics._Generator(extended, extended[0].output_ops["sensor"])
        scatter, gather, _ = gen.rem_blocks
        rows, cols = scatter % gen.size, gather % gen.size
        assert len(rows) > 0 and np.all(scatter // gen.size == gather // gen.size)
        assert np.all((rows < gen.coords.pairs) & (cols < gen.coords.pairs))
        assert np.array_equal(rows // 2, cols // 2) and np.all(rows != cols)

    @pytest.mark.parametrize("system, observed, symmetric", [
        (two_level_system(0.05), "sigma", True),
        (build_two_level(TwoLevelConfig(detuning=5.0), GaussianPulse(math.pi, 0.05)),
         "sigma", False),
        (fourlevel_system(), EXCITON_V_ONLY, False),
    ], ids=["resonant", "detuned", "biexciton_ladder"])
    def test_mirror_check(self, system, observed, symmetric):
        # a resonant drive maps the dynamics at -Delta onto those at Delta; a
        # detuned level, or the ladder's biexciton and exciton levels, breaks it
        signs = corr._mirror_symmetric(system, observed)
        assert (signs is not None) is symmetric
        if symmetric:  # the drive's real entry gives ground and exciton opposite signs
            assert signs.tolist() == [1.0, -1.0]

    @pytest.mark.parametrize("system, dets, stepped", [
        (two_level_system(0.05), np.linspace(-40.0, 40.0, 161), np.linspace(0.0, 40.0, 81)),
        (two_level_system(0.05), np.linspace(-3.0, 5.0, 17), np.linspace(0.0, 5.0, 11)),
        (two_level_system(0.05), np.linspace(-5.0, 3.0, 17),
         np.r_[np.linspace(-5.0, -3.5, 4), np.linspace(0.0, 3.0, 7)]),
        (two_level_system(0.05), np.array([-1.0, 0.3, 1.0 + 1e-12]),
         np.array([-1.0, 0.3, 1.0 + 1e-12])),
        (build_two_level(TwoLevelConfig(detuning=5.0), GaussianPulse(math.pi, 0.05)),
         np.linspace(-6.0, 6.0, 13), np.linspace(-6.0, 6.0, 13)),
    ], ids=["figure_grid", "wider_right", "wider_left", "inexact_mirror", "detuned"])
    def test_mirrored_centers_are_not_stepped(self, monkeypatch, system, dets, stepped):
        # each center steps unless the model is mirror symmetric and the exact
        # mirror of the negative center is on the grid; the curve is that of
        # the batch of every center to 1e-14 of its peak
        batches = []
        integrals = dynamics.emission_integrals

        def spy(systems, *args, **kwargs):
            # the filter center: the energy of |ground, one sensor photon>
            batches.append([one.h_static[1, 1].real for one in systems])
            return integrals(systems, *args, **kwargs)

        monkeypatch.setattr(dynamics, "emission_integrals", spy)
        (res,) = spectrum(system, "sigma", dets, [system.pulse])
        monkeypatch.setattr(corr, "_mirror_symmetric", lambda system, observed: None)
        (full,) = spectrum(system, "sigma", dets, [system.pulse])
        assert batches[0] == list(stepped) and batches[1] == list(dets)
        assert np.max(np.abs(res - full)) <= 1e-14
        if system.h_static[1, 1] != 0:  # the detuned line is not symmetric
            assert np.max(np.abs(full - full[::-1])) > 0.1

    def test_free_decay_line_convolves_with_filter(self):
        # spontaneous emission has a Lorentzian line of FWHM gamma; probed
        # with a Lorentzian filter of FWHM G the half width becomes
        # (gamma + G) / 2 (coherent pulse scattering would mask this, so the
        # oracle uses an initially excited, undriven emitter)
        system = two_level_system(0.05, theta=0.0)
        vacuum = np.zeros((3, 3))
        vacuum[0, 0] = 1.0
        rho0 = np.kron(basis_projector(system, "exciton"), vacuum)
        for width, expected in ((0.2, 0.6), (1.0, 1.0)):
            dets = np.linspace(0.0, 2.0, 41)
            eps = 1e-3
            extended = [
                attach_sensor(system, "sigma", SensorConfig(d, width, eps, 2))
                for d in dets
            ]
            intensity = dynamics.emission_integrals(extended, extended[0].output_ops["sensor"],
                                                    (), pairs=False, rho0=rho0).n_integral
            intensity /= intensity[0]
            j = np.searchsorted(-intensity, -0.5)
            hwhm = dets[j - 1] + (0.5 - intensity[j - 1]) * (dets[j] - dets[j - 1]) / (
                intensity[j] - intensity[j - 1]
            )
            assert hwhm == pytest.approx(expected, rel=1e-3)


def _pulses(taus, theta=math.pi):
    return [GaussianPulse(theta, tau) for tau in taus]


# The figure-default sweeps of the commands: the system, its observed output
# op, the filter center, the pulse lengths and the filter widths.
FIGURE_SWEEPS = {
    "sweep-filter": (two_level_system(0.02), "sigma", 0.0, (0.02, 0.05, 0.2),
                     np.geomspace(0.05, 100.0, 13)),
    "sweep-pulse": (two_level_system(0.02), "sigma", 0.0, np.geomspace(0.02, 1.5, 10),
                    (0.1, 1.0, 20.0)),
    "sweep-fourlevel": (fourlevel_system(0.01), EXCITON_V_ONLY, FOURLEVEL_BINDING / 2.0,
                        (0.01, 0.02), np.geomspace(0.5, 20.0, 9)),
}


class TestSweeps:
    # stats[i][j] of a sweep is pulse length i at filter width j: a row is a
    # filter-width curve, a column a pulse-length curve

    def test_filter_width_sweep_structure(self):
        system = two_level_system(0.1)
        grid = filtered_g2_batch(system, [SensorConfig(0.0, w) for w in (0.1, 1.0, 3.0)],
                                 [system.pulse])
        assert [len(row) for row in grid] == [3]
        row = grid[0]
        assert all(st.g2_epsilon_check is not None and st.epsilon_used > 0 for st in row)
        alone = filtered_g2_zero(system, SensorConfig(0.0, 3.0))
        assert row[2].g2 == pytest.approx(alone.g2, rel=1e-8)

    def test_pulse_length_sweep_structure(self):
        grid = filtered_g2_batch(two_level_system(0.05), [SensorConfig(0.0, 1.0)],
                                 _pulses([0.05, 0.1]))
        assert [len(row) for row in grid] == [1, 1]
        column = [row[0] for row in grid]
        assert all(st.g2_epsilon_check is not None and st.epsilon_used > 0 for st in column)
        assert column[0].g2 < column[1].g2  # longer pulse, more re-excitation

    def test_rhs_forms_no_operator_stack(self, monkeypatch):
        # 4 pulse lengths at 1 width: 8 rows in 4 chunks of 44 coordinates, where
        # the (G, D, D) operator stack outweighs every other temporary of a call;
        # static + amp(t) drive goes into a buffer that the generator owns
        caught = []

        class Caught(Exception):
            pass

        def first(gen, t, y):
            caught.append((gen, y))
            raise Caught

        monkeypatch.setattr(dynamics._Generator, "rhs", first)
        with pytest.raises(Caught):
            filtered_g2_batch(two_level_system(0.02), [SensorConfig()],
                              _pulses([0.02, 0.05, 0.1, 0.2]))
        monkeypatch.undo()
        (gen, y), = caught
        assert (gen.nbatch, len(gen.static), gen.size) == (8, 4, 44)
        t = gen.pulse.offset  # the pulse peak
        gen.rhs(t, y)
        tracemalloc.start()
        try:
            gen.rhs(t, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < gen.static.nbytes / 2

    @pytest.mark.parametrize("command", FIGURE_SWEEPS)
    def test_remainder_holds_no_zero_entry(self, monkeypatch, command):
        # each system's own remainder entries are those that differ from the first
        # system's; none is 0, and the first system has none
        caught = []

        class Caught(Exception):
            pass

        def first(gen, t, y):
            caught.append(gen)
            raise Caught

        system, observed, center, taus, widths = FIGURE_SWEEPS[command]
        monkeypatch.setattr(dynamics._Generator, "rhs", first)
        with pytest.raises(Caught):
            filtered_g2_batch(system, [SensorConfig(center, float(w)) for w in widths],
                              _pulses(taus), observed=observed)
        (gen,) = caught
        batch, _, _, values = gen.remainder
        assert len(values) > 0 and np.all(values != 0) and np.all(batch > 0)
        assert np.array_equal(gen.rem_blocks[2], gen.stretch[batch] * values)

    @pytest.mark.parametrize("system, observed, center, taus, widths", [
        (two_level_system(0.02), "sigma", 0.0, (0.02, 0.2), (0.1, 1.0, 20.0)),
        (fourlevel_system(0.01), EXCITON_V_ONLY, FOURLEVEL_BINDING / 2.0, (0.01, 0.02),
         (0.5, 2.0)),
    ], ids=["two_level", "exciton_line"])
    def test_pulse_lengths_share_one_pass(self, system, observed, center, taus, widths):
        # every pulse length of the sweep in one pass, against a pass per pulse length
        sensors = [SensorConfig(center, w) for w in widths]
        grid = filtered_g2_batch(system, sensors, _pulses(taus), observed=observed)
        for pulse, row in zip(_pulses(taus), grid):
            (alone,) = filtered_g2_batch(system, sensors, [pulse], observed=observed)
            for st, one in zip(row, alone):
                assert st.g2 == pytest.approx(one.g2, rel=1e-9)
                assert st.g2_epsilon_check == pytest.approx(one.g2_epsilon_check, rel=1e-9)

    @pytest.mark.parametrize("command", FIGURE_SWEEPS)
    def test_epsilon_budget(self, command):
        """The sensor-coupling line of the error budget: halving eps moves every
        point of the figure-default sweeps by < 3e-4 relative.  Measured maxima:
        2.94e-4 on sweep-filter (tau 0.02, Gamma = 100), 5.94e-5 on sweep-pulse
        (tau 0.02, Gamma = 20) and 6.00e-5 on sweep-fourlevel (tau 0.01,
        Gamma = 20)."""
        system, observed, center, taus, widths = FIGURE_SWEEPS[command]
        stats = filtered_g2_batch(system, [SensorConfig(center, float(w)) for w in widths],
                                  _pulses(taus), observed=observed)
        moves = [abs(st.g2_epsilon_check - st.g2) / st.g2 for row in stats for st in row]
        assert len(moves) == len(taus) * len(widths)
        assert max(moves) < 3e-4

    def test_drive_cutoff_budget(self, monkeypatch):
        # the cut-off line of the error budget on the figure curves, sampled at
        # t_c as a sweep is: t0 + 10 tau against t0 + 8 tau (1.6e-14 measured)
        def curves():
            g2 = []
            for command in ("sweep-filter", "sweep-fourlevel"):
                system, observed, center, taus, widths = FIGURE_SWEEPS[command]
                stats = filtered_g2_batch(system, [SensorConfig(center, w) for w in widths],
                                          _pulses(taus), observed=observed,
                                          check_convergence=False)
                g2 += [st.g2 for row in stats for st in row]
            return np.array(g2)

        base = curves()
        monkeypatch.setattr(dynamics, "DRIVE_CUTOFF", 10.0)
        assert np.max(np.abs(curves() - base) / base) < 1e-12

    def test_points_sampled_at_drive_cutoff_only(self, tmp_path):
        # a sweep command's pass samples no state and stops at t_c alone: its curve
        # is that of the batch at its default grid, to the 12 digits the CSV prints,
        # and moves by < 1e-9 against 13 stops across the window
        (tmp_path / "run.yaml").write_text(
            "pulse_lengths: [0.05]\nsweep: {min: 0.1, max: 20.0, points: 3}\n")
        assert cli.main(["sweep-filter", "--config", str(tmp_path / "run.yaml"),
                         "--out", str(tmp_path)]) == 0
        curve = (tmp_path / "sweep_filter_tau0.05.csv").read_text().splitlines()[1:]
        system = two_level_system(0.05)
        sensors = [SensorConfig(0.0, w) for w in np.geomspace(0.1, 20.0, 3)]
        window = np.linspace(0.0, dynamics.drive_cutoff(system.pulse), 13)
        (sampled,) = filtered_g2_batch(system, sensors, [system.pulse], grid=window)
        (at_t_c,) = filtered_g2_batch(system, sensors, [system.pulse])
        for line, one, ref in zip(curve, at_t_c, sampled, strict=True):
            assert line.split(",")[1] == f"{one.g2:.12g}"
            assert one.g2 == pytest.approx(ref.g2, rel=1e-9)

    def test_sweep_point_identified_on_error(self):
        with pytest.raises(corr.SweepPointError) as err:
            filtered_g2_batch(two_level_system(0.1), [SensorConfig(0.0, 1.0)],
                              _pulses([0.1], theta=0.0))
        assert "bandwidth=1" in str(err.value)
        assert isinstance(err.value.__cause__, ZeroEmission)

    def test_attaches_once_per_filter_shape(self, monkeypatch):
        # the pass builds its systems from one attach_sensor per distinct filter
        # shape: a spectrum attaches once for all its centers and pulse lengths, and
        # copies it only for the 81 centers it steps at each pulse length; a sweep
        # attaches once per width and coupling (eps and eps/2), at any pulse length
        calls, copies = [], []
        attach, copy_with = corr.attach_sensor, corr._copy_with
        monkeypatch.setattr(corr, "attach_sensor",
                            lambda *args: calls.append(args[2]) or attach(*args))
        monkeypatch.setattr(corr, "_copy_with",
                            lambda *args, **kw: copies.append(kw) or copy_with(*args, **kw))
        system = two_level_system(0.02)
        spectrum(system, "sigma", np.linspace(-40.0, 40.0, 161), _pulses((0.02, 0.2)))
        assert len(calls) == 1 and len(copies) == 2 * 81
        widths = (0.1, 1.0, 20.0)
        for check, attaches in ((True, 2 * len(widths)), (False, len(widths))):
            calls.clear()
            filtered_g2_batch(system, [SensorConfig(0.0, w) for w in widths],
                              _pulses((0.02, 0.05)), check_convergence=check)
            assert len(calls) == attaches
            assert all(sensor.detuning == 0.0 for sensor in calls)


BATCH_CASES = [
    (two_level_system(0.05), "sigma", 0.0, tuple(np.geomspace(0.05, 20.0, 5))),
    (fourlevel_system(0.01), EXCITON_V_ONLY, FOURLEVEL_BINDING / 2.0, (0.5, 1.0)),
]


class TestBatch:
    @pytest.mark.parametrize("system, observed, detuning, widths", BATCH_CASES,
                             ids=["two_level", "exciton_line"])
    def test_matches_single_points(self, system, observed, detuning, widths):
        sensors = [SensorConfig(detuning, w) for w in widths]
        (batch,) = filtered_g2_batch(system, sensors, [system.pulse], observed=observed)
        assert len(batch) == len(sensors)
        for sensor, stats in zip(sensors, batch):
            alone = filtered_g2_zero(system, sensor, observed=observed)
            assert stats.g2 == pytest.approx(alone.g2, rel=1e-8)
            assert stats.n_integral == pytest.approx(alone.n_integral, rel=1e-8)
            assert stats.g2_epsilon_check == pytest.approx(alone.g2_epsilon_check, rel=1e-8)
            assert stats.epsilon_used == alone.epsilon_used

    def test_costs_little_more_than_one_point(self, rhs_evals):
        system, _, _, widths = BATCH_CASES[0]
        sensors = [SensorConfig(0.0, w) for w in widths]
        singles = [rhs_evals(lambda: filtered_g2_zero(system, sensor)) for sensor in sensors]
        batch = rhs_evals(lambda: filtered_g2_batch(system, sensors, [system.pulse]))
        assert batch < 1.5 * max(singles)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one system"):
            filtered_g2_batch(two_level_system(0.05), [], _pulses([0.05]))

    @pytest.mark.parametrize("run", [
        lambda: spectrum(two_level_system(0.05), "sigma", np.linspace(-4.0, 4.0, 9),
                         _pulses([0.05])),
        lambda: filtered_g2_batch(two_level_system(0.05), [SensorConfig(0.0, 1.0)],
                                  _pulses([0.05])),
        lambda: filtered_g2_batch(fourlevel_system(0.01), [SensorConfig(150.0, 1.0)],
                                  _pulses([0.01]), observed=EXCITON_V_ONLY),
    ], ids=["spectrum", "g2_dense", "g2_exciton_line"])
    def test_window_pass_steps_real_rows(self, monkeypatch, run):
        # the DOP853 state and every stage are float64 coordinates, never complex vec
        rhs = dynamics._Generator.rhs
        dtypes = set()

        def recorded(gen, t, y):
            out = rhs(gen, t, y)
            dtypes.update((y.dtype, out.dtype))
            return out

        monkeypatch.setattr(dynamics._Generator, "rhs", recorded)
        run()
        assert dtypes == {np.dtype(np.float64)}

    def test_tail_memory_is_bounded(self):
        # 16 exciton-line systems (d^2 = 144) stack 5.3 MB of generators at once; the
        # tails close them in groups, so the batch peaks near a single point's memory
        system = fourlevel_system(0.01)
        sensors = [SensorConfig(FOURLEVEL_BINDING / 2, float(w)) for w in np.geomspace(0.5, 1, 16)]
        filtered_g2_batch(system, sensors[:1], [system.pulse], observed=EXCITON_V_ONLY,
                          check_convergence=False)
        tracemalloc.start()
        try:
            filtered_g2_batch(system, sensors, [system.pulse], observed=EXCITON_V_ONLY,
                              check_convergence=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6e6

    def test_failing_point_is_named(self):
        system = two_level_system(0.1)
        sensors = [SensorConfig(0.0, 1.0), SensorConfig(0.0, 2.0, coupling=0.3)]
        with pytest.raises(corr.SweepPointError) as err:
            filtered_g2_batch(system, sensors, [system.pulse])
        assert err.value.context == {"bandwidth": 2.0, "tau": 0.1}
        assert isinstance(err.value.__cause__, NotConverged)


class TestExports:
    def test_sweep_csv(self, tmp_path, tls_g2):
        stats = tls_g2(0.05, 1.0)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, np.array([1.0]), [stats])
        lines = path.read_text().splitlines()
        assert lines[0] == "axis_value,g2,epsilon_used"
        assert lines[1] == f"1,{stats.g2:.12g},{stats.epsilon_used:.9g}"

    def test_spectrum_csv(self, tmp_path):
        path = tmp_path / "spec.csv"
        write_spectrum_csv(path, np.array([-1.0, 0.0, 1.0]), np.array([0.5, 1.0, 0.5]))
        lines = path.read_text().splitlines()
        assert lines[0] == "detuning_over_gamma,normalized_intensity"
        assert len(lines) == 4
