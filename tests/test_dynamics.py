import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm, lu_factor, lu_solve

from photonpurity import dynamics
from photonpurity.dynamics import (
    BatchMismatch,
    CorrelationGrid,
    DimensionMismatch,
    StepSizeUnderflow,
    emission_integrals,
    emission_series,
    physicality_report,
    two_time_g2_map,
)
from photonpurity.model import (
    EXCITON_V_ONLY,
    BiexcitonConfig,
    GaussianPulse,
    SensorConfig,
    TwoLevelConfig,
    attach_sensor,
    build_biexciton,
    build_two_level,
)

from conftest import basis_projector, ground_state, hamiltonian

EXCITED = np.diag([0.0, 1.0]).astype(complex)


def free_decay_system():
    return build_two_level(TwoLevelConfig(), GaussianPulse(0.0, 0.05))


def reference_master_equation(system, rho0, t_eval):
    """Independent high-accuracy propagation (scipy DOP853, laser frame)."""
    d = system.dimension
    chans = [(np.asarray(c), r) for c, r in system.channels]

    def rhs(t, y):
        rho = y.reshape(d, d)
        h = hamiltonian(system, t)
        out = -1j * (h @ rho - rho @ h)
        for c, rate in chans:
            cd = c.conj().T
            out += rate * (c @ rho @ cd - 0.5 * (cd @ c @ rho + rho @ cd @ c))
        return out.ravel()

    sol = solve_ivp(rhs, (t_eval[0], t_eval[-1]), np.asarray(rho0, complex).ravel(),
                    t_eval=t_eval, rtol=1e-11, atol=1e-13, method="DOP853",
                    max_step=0.02)
    return sol.y.T.reshape(len(t_eval), d, d)


class TestTableau:
    def test_dop853_order_conditions(self):
        # the hand-typed coefficients: each row of A sums to its node, the
        # solution weights integrate c^(k-1) exactly up to k = 8, and the
        # error rows annihilate constants
        a, c, (b, e5, e3) = dynamics._DOP_A, dynamics._DOP_C, dynamics._DOP_B
        np.testing.assert_allclose(a.sum(axis=1), c, rtol=0, atol=1e-15)
        k = np.arange(1, 9)
        np.testing.assert_allclose(c[None, :] ** (k[:, None] - 1) @ b, 1.0 / k, rtol=0, atol=1e-15)
        np.testing.assert_allclose([e5.sum(), e3.sum()], 0.0, rtol=0, atol=1e-15)


def window_states(system, times):
    """The states of `system`, started in its ground state, at `times`."""
    sigma = system.output_ops["sigma"]
    return emission_integrals([system], sigma, times=times, pairs=False).states[0]


class TestPropagate:
    def test_free_decay(self):
        system = free_decay_system()
        times = np.linspace(0.0, 10.0, 101)
        (pop,) = emission_series([system], system.output_ops["sigma"], times,
                                 rho0=basis_projector(system, "exciton"))
        assert np.max(np.abs(pop - np.exp(-times))) < 1e-7

    def test_pi_pulse_against_reference(self):
        # detuned from the laser, the coherence the pulse leaves turns in the lab
        # frame, where both solvers step it
        p = GaussianPulse(math.pi, 0.02)
        system = build_two_level(TwoLevelConfig(detuning=5.0), p)
        times = np.linspace(0.0, 0.5, 26)
        states = window_states(system, times)
        ref = reference_master_equation(system, ground_state(system), times)
        assert np.max(np.abs(states - ref)) < 1e-7
        # the pi pulse inverts up to the radiative loss accumulated during it
        final = states[np.searchsorted(times, 0.16)][1, 1].real
        assert final > 0.9

    def test_pi_pulse_inverts_without_dissipation(self):
        # Schroedinger-only oracle: stepping exp(-i H dt) across the pulse
        p = GaussianPulse(math.pi, 0.02)
        system = build_two_level(TwoLevelConfig(), p)
        rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        dt = 1e-5
        for t in np.arange(0.0, 0.16, dt):
            u = expm(-1j * hamiltonian(system, t + dt / 2) * dt)
            rho = u @ rho @ u.conj().T
        assert rho[1, 1].real > 0.99

    def test_cascade_populations(self):
        # n_2X = <e^dag e> with e = |X_H><2X|, n_XV with e = |cgs><X_V|
        system = build_biexciton(BiexcitonConfig(), GaussianPulse(0.0, 0.05))
        times = np.linspace(0.0, 8.0, 81)
        rho0 = basis_projector(system, "biexciton")
        (n_2x,), (n_xv,) = (emission_series([system], system.output_ops[name], times, rho0=rho0)
                            for name in ("biexciton_h", "exciton_v"))
        assert np.max(np.abs(n_2x - np.exp(-2 * times))) < 1e-6
        assert np.max(np.abs(n_xv - (np.exp(-times) - np.exp(-2 * times)))) < 1e-6

    def test_non_hermitian_start_rejected(self):
        # the right-hand side takes its rows to be Hermitian
        rho0 = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        system = free_decay_system()
        with pytest.raises(ValueError, match="Hermitian"):
            emission_series([system], system.output_ops["sigma"], [0.0, 1.0], rho0=rho0)

    def test_step_size_underflow(self):
        system = build_two_level(TwoLevelConfig(decay_rate=1e16), GaussianPulse(0.0, 0.05))
        with pytest.raises(StepSizeUnderflow):
            emission_series([system], system.output_ops["sigma"], [0.0, 1.0],
                            rho0=basis_projector(system, "exciton"))


class TestExpectation:
    def test_identity_trace(self):
        system = free_decay_system()
        (trace,) = emission_series([system], np.eye(2), np.linspace(0, 5, 21),
                                   rho0=basis_projector(system, "exciton"))
        assert np.max(np.abs(trace - 1.0)) < 1e-8

    def test_weak_sensor_stays_empty(self):
        system = build_two_level(TwoLevelConfig(), GaussianPulse(math.pi, 0.05))
        extended = attach_sensor(system, "sigma", SensorConfig(0.0, 1.0, coupling=1e-8))
        (n_s,) = emission_series([extended], extended.output_ops["sensor"], np.linspace(0, 6, 31))
        assert np.max(n_s) < 1e-12


class TestPhysicalityReport:
    def test_free_decay_clean(self):
        # a pi pulse, then free decay to t = 10
        system = build_two_level(TwoLevelConfig(), GaussianPulse(math.pi, 0.05))
        rep = physicality_report(window_states(system, np.linspace(0, 10, 51)))
        assert rep.max_trace_drift < 1e-8
        assert rep.max_hermiticity_violation < 1e-10
        assert rep.min_eigenvalue >= -1e-8


class TestTwoTimeMap:
    def test_two_level_diagonal_exactly_zero(self):
        system = build_two_level(TwoLevelConfig(), GaussianPulse(math.pi, 0.05))
        grid = np.linspace(0.0, 3.0, 61)
        cg = two_time_g2_map(system, "sigma", grid)
        assert np.all(np.diag(cg.values) == 0.0)

    def test_symmetric(self):
        system = build_two_level(TwoLevelConfig(), GaussianPulse(math.pi, 0.05))
        grid = np.linspace(0.0, 3.0, 41)
        cg = two_time_g2_map(system, "sigma", grid)
        assert np.max(np.abs(cg.values - cg.values.T)) < 1e-9

    def test_against_direct_regression(self):
        # oracle: collapse at t1 with scipy, propagate to t2, read the
        # population of the emission operator
        p = GaussianPulse(math.pi, 0.1)
        system = build_two_level(TwoLevelConfig(), p)
        grid = np.linspace(0.0, 3.0, 31)
        cg = two_time_g2_map(system, "sigma", grid)
        sigma = system.output_ops["sigma"]
        nop = sigma.conj().T @ sigma
        rho0 = ground_state(system)
        for i, j in ((5, 10), (3, 28), (8, 25)):
            t1, t2 = grid[i], grid[j]
            rho_t1 = reference_master_equation(system, rho0, np.array([0.0, t1]))[-1]
            collapsed = sigma @ rho_t1 @ sigma.conj().T
            rho_t2 = reference_master_equation(system, collapsed, np.array([t1, t2]))[-1]
            oracle = np.trace(nop @ rho_t2).real
            assert cg.values[i, j] == pytest.approx(oracle, rel=1e-6, abs=1e-12)

    def test_coincidence_mass_in_pulse_strips(self):
        p = GaussianPulse(math.pi, 0.05)
        system = build_two_level(TwoLevelConfig(), p)
        grid = np.linspace(0.0, 6.0, 301)
        cg = two_time_g2_map(system, "sigma", grid)
        near_pulse = np.abs(grid - p.offset) < 3 * p.length
        strip = near_pulse[:, None] | near_pulse[None, :]
        assert cg.values[strip].sum() / cg.values.sum() > 0.9

    def test_csv_matches_row_writer(self, tmp_path):
        # longer than one chunk of rows, with negative zeros, tiny and huge values
        rng = np.random.default_rng(5)
        t1, t2 = np.linspace(0.0, 12.2, 311), np.sort(rng.uniform(0.0, 5.0, 257))
        values = rng.normal(size=(311, 257)) * 10.0 ** rng.integers(-40, 40, (311, 257))
        values[0, :3] = (0.0, -0.0, 1.0)
        cg = CorrelationGrid(t1, t2, values)
        path = tmp_path / "map.csv"
        cg.to_csv(path)
        expected = "# time_unit=1/gamma_sigma\nt1,t2,value\n" + "".join(
            f"{a:.9g},{b:.9g},{values[i, j]:.12g}\n"
            for i, a in enumerate(t1) for j, b in enumerate(t2))
        assert path.read_bytes() == expected.encode()

    def test_csv_times_formatted_like_values(self, tmp_path):
        # negative, tiny, large and integer-valued times and values
        t1 = np.array([-2.5, 0.0, 1e-300, 3.0, 123456789012.0])
        t2 = np.array([-1e-12, 1.0, 7.25e20])
        values = np.array([[-1.0, 2.0, 1e-310], [0.0, -0.0, 3.0], [1e300, -7e-5, 42.0],
                           [1.0 / 3.0, -2.0 ** 60, 5.0], [6.0, 1e-20, -8.5e12]])
        path = tmp_path / "map.csv"
        CorrelationGrid(t1, t2, values).to_csv(path)
        expected = "# time_unit=1/gamma_sigma\nt1,t2,value\n" + "".join(
            "%.9g,%.9g,%.12g\n" % (a, b, values[i, j])
            for i, a in enumerate(t1) for j, b in enumerate(t2))
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("rows, cols", [(slice(10, None), slice(None, None, 2)),
                                            (slice(10, None), slice(5, None, 3))],
                             ids=["union_from_zero", "union_after_zero"])
    def test_sub_grids_match_the_full_map(self, rows, cols):
        # separate t1 and t2 grids, and a union that starts after t = 0 (the
        # chain then starts from the ground state at 0), read the same map
        system = build_two_level(TwoLevelConfig(), GaussianPulse(math.pi, 0.1))
        grid = np.linspace(0.0, 3.0, 61)
        full = two_time_g2_map(system, "sigma", grid).values
        sub = two_time_g2_map(system, "sigma", grid[rows], grid[cols])
        assert sub.values.shape == (len(grid[rows]), len(grid[cols]))
        assert np.max(np.abs(sub.values - full[rows, cols])) < 1e-9 * np.max(full)


class TestEmissionSeries:
    # a detuned emitter started in a coherent superposition: its coherence
    # turns, so reading rho0 at the wrong time shows
    SYSTEM = build_two_level(TwoLevelConfig(detuning=5.0), GaussianPulse(math.pi / 2, 0.05))
    RHO0 = np.full((2, 2), 0.5, dtype=complex)

    def series(self, grid):
        sigma = self.SYSTEM.output_ops["sigma"]
        return emission_series([self.SYSTEM], sigma, grid, rho0=self.RHO0)[0]

    def test_rho0_is_the_state_at_time_zero(self):
        # a grid that starts after 0 reads the state propagated from t = 0
        with_zero = self.series([0.0, 0.1, 0.5])
        assert with_zero[0] == pytest.approx(0.5)
        assert np.max(np.abs(self.series([0.1, 0.5]) - with_zero[1:])) < 1e-12

    @pytest.mark.parametrize("grid", [[0.0, 1.0, 0.5], [-0.1, 0.5]],
                             ids=["decreasing", "before_start"])
    def test_unsorted_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="must not decrease"):
            self.series(grid)

    def test_rho0_of_another_dimension_rejected(self):
        sigma = self.SYSTEM.output_ops["sigma"]
        with pytest.raises(DimensionMismatch, match=r"rho0 has shape \(3, 3\)"):
            emission_series([self.SYSTEM], sigma, [0.0, 0.1], rho0=np.eye(3) / 3)


def _sensor_batch(system, observed, detuning, widths):
    """The sensor-extended systems at each width, each with its own
    Gamma / (2 eps) readout."""
    systems = [attach_sensor(system, observed, SensorConfig(detuning, w)) for w in widths]
    emit = np.array([w / (2.0 * s.sensor.coupling) * s.output_ops["sensor"]
                     for w, s in zip(widths, systems)])
    return systems, emit


def _differing_batch(system, observed, center):
    """Three sensor-extended systems that differ in filter detuning, width
    and coupling, the last also in its first emitter rate, each with its own
    Gamma / (2 eps) readout."""
    sensors = [SensorConfig(center - 2.0, 0.5, 1e-3), SensorConfig(center, 1.0, 2e-3),
               SensorConfig(center + 3.0, 20.0, 5e-3)]
    systems = [attach_sensor(system, observed, s) for s in sensors]
    (op, rate), *rest = systems[2].channels
    systems[2] = replace(systems[2], channels=((op, 0.7 * rate), *rest))
    emit = np.array([s.bandwidth / (2.0 * s.coupling) * x.output_ops["sensor"]
                     for s, x in zip(sensors, systems)])
    return systems, emit


def _kron_window(system, emit, t):
    """Window superoperator of one system at time t, built from krons on
    row-major vec: [vec rho, vec X, q, p] -> d/dt of the same."""
    d = system.dimension
    eye = np.eye(d)
    h = hamiltonian(system, t)
    lind = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for c, rate in system.channels:
        cdc = c.conj().T @ c
        lind += rate * (np.kron(c, c.conj()) - 0.5 * np.kron(cdc, eye) - 0.5 * np.kron(eye, cdc.T))
    nvec = (emit.conj().T @ emit).T.ravel()
    d2 = d * d
    out = np.zeros((2 * d2 + 2, 2 * d2 + 2), dtype=complex)
    out[:d2, :d2] = out[d2:2 * d2, d2:2 * d2] = lind
    out[d2:2 * d2, :d2] = np.kron(emit, emit.conj())
    out[2 * d2, :d2] = out[2 * d2 + 1, d2:2 * d2] = nvec
    return out


class TestCoordinates:
    @settings(max_examples=60, deadline=None)
    @given(d=st.sampled_from([2, 6, 12]), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(1e-6, 1.0))
    def test_hermitian_round_trip(self, d, seed, scale):
        # a Hermitian matrix goes to real coordinates and back, and the coordinates are
        # orthonormal: their squared sum is the squared Frobenius norm
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = scale * (a + a.conj().T)
        coords = dynamics._Coordinates(d)
        real = coords.encode(rho.ravel())
        assert real.dtype == np.float64 and real.shape == (d * d,)
        back = coords.decode(real).reshape(d, d)
        assert np.max(np.abs(back - rho)) <= 1e-15 * max(1.0, np.max(np.abs(rho)))
        assert np.array_equal(back, back.conj().T)
        assert np.sum(real ** 2) == pytest.approx(np.sum(np.abs(rho) ** 2), rel=1e-13)
        # the step control sees |rho_mn| behind each coordinate, whatever the phase
        behind = np.concatenate([np.repeat(coords.upper, 2), coords.real])
        np.testing.assert_allclose(coords.magnitudes(real), np.abs(rho.ravel())[behind],
                                   rtol=1e-15, atol=0)


class TestGenerator:
    @pytest.mark.parametrize("system, observed, center", [
        (build_two_level(TwoLevelConfig(), GaussianPulse(math.pi, 0.05)), "sigma", 0.0),
        (build_biexciton(BiexcitonConfig(), GaussianPulse(math.pi, 0.01)), EXCITON_V_ONLY, 150.0),
    ], ids=["two_level", "exciton_line"])
    def test_rhs_matches_kron_superoperator(self, system, observed, center):
        # random real rows: the coordinates T^H z of complex vec rows z, with T the
        # unitary that `decode` applies, map to those of S z, S the kron window
        systems, emit = _differing_batch(system, observed, center)
        gen = dynamics._Generator(systems, emit, pairs=True)
        assert gen.rem_phase is not None and gen.rem_real is not None
        assert gen.rem_blocks is not None
        d2 = gen.dim ** 2
        size = 2 * d2 + 2
        basis = gen.coords.decode(np.eye(size))  # row j: the vec row of real coordinate j
        np.testing.assert_allclose(basis @ basis.conj().T, np.eye(size), atol=1e-15)
        blocks = basis[:, :2 * d2].reshape(size, 2, gen.dim, gen.dim)
        assert np.array_equal(blocks, blocks.conj().swapaxes(2, 3))
        t = system.pulse.offset + 0.3 * system.pulse.length  # drive on
        rng = np.random.default_rng(5)
        z = rng.standard_normal((3, size)) @ basis  # Hermitian blocks, real scalars
        expected = np.array([_kron_window(s, e, t) @ z_b
                             for s, e, z_b in zip(systems, emit, z)]) @ basis.conj().T
        assert np.max(np.abs(expected.imag)) <= 1e-13 * np.max(np.abs(expected))
        y = (z @ basis.conj().T).real
        got = gen.rhs(t, y.ravel())
        assert got.dtype == np.float64
        got = got.reshape(3, -1)
        assert np.max(np.abs(got - expected.real)) <= 1e-13 * np.max(np.abs(expected))


MIXED_BATCHES = [
    (build_two_level(TwoLevelConfig(), GaussianPulse(math.pi, 0.05)), "sigma", 0.0,
     (0.05, 1.0, 20.0)),
    (build_biexciton(BiexcitonConfig(), GaussianPulse(math.pi, 0.01)), EXCITON_V_ONLY,
     150.0, (0.5, 1.0)),
]


def _lab_liouvillian(system):
    """Drive-free lab-frame L0 of one system, built from krons on row-major vec."""
    d = system.dimension
    eye = np.eye(d)
    heff = system.h_static - 0.5j * sum(rate * c.conj().T @ c for c, rate in system.channels)
    l0 = -1j * np.kron(heff, eye) + 1j * np.kron(eye, heff.conj())
    for c, rate in system.channels:
        l0 += rate * np.kron(c, c.conj())
    return l0


def _tails_by_lu(systems, emit):
    """n and G of emission_integrals(systems, emit, times=()), with the tails
    closed by one scipy LU per system of a kron-built L0 + |rho_ss><1|."""
    gen = dynamics._Generator(systems, emit, pairs=True)
    d, nb = gen.dim, gen.nbatch
    t_c = dynamics.drive_cutoff(gen.pulse)
    y = np.zeros((nb, gen.size), dtype=complex)
    y[:, 0] = 1.0
    y = gen.coords.encode(y).ravel()
    (y,) = dynamics._walk(gen, y, 0.0, [t_c], dynamics.DEFAULT_INTEGRATOR)
    y = gen.coords.decode(y.reshape(nb, -1))
    rows = y[:, :2 * d * d].reshape(nb, 2, d, d)
    integrals = y[:, 2 * d * d:]
    eye = np.eye(d)
    ground = np.zeros((d, d), dtype=complex)
    ground[0, 0] = 1.0
    n_int, g_int = [], []
    for b, system in enumerate(systems):
        lu = lu_factor(_lab_liouvillian(system) + np.outer(ground.ravel(), eye.ravel()))

        def resolvent(x):
            return -lu_solve(lu, (x - np.trace(x) * ground).ravel()).reshape(d, d)

        e = emit[b]
        nop = e.conj().T @ e
        r_rho = resolvent(rows[b, 0])
        n_int.append((integrals[b, 0] + np.trace(nop @ r_rho)).real)
        r_pair = resolvent(rows[b, 1]) + resolvent(e @ r_rho @ e.conj().T)
        g_int.append(2.0 * (integrals[b, 1] + np.trace(nop @ r_pair)).real)
    return np.array(n_int), np.array(g_int)


class TestReachable:
    """A batch steps only the coordinates its initial rows can reach."""

    @pytest.mark.parametrize("batch, pairs, full, kept", [
        (1, True, 290, 86), (1, False, 145, 43), (0, True, 74, 74)],
        ids=["exciton_line", "exciton_line_spectrum", "two_level_first_uncoupled"])
    def test_dropped_coordinates_stay_exactly_zero(self, batch, pairs, full, kept):
        # the full generator, walked from the ground state, leaves every coordinate
        # outside the closure at exactly 0.0, at every stop (past t_c too)
        system, observed, detuning, widths = MIXED_BATCHES[batch]
        systems, emit = _sensor_batch(system, observed, detuning, widths)
        if batch == 0:  # the sensor coupling is then no part of the shared pattern
            systems[0] = replace(systems[0], h_static=np.diag(np.diag(systems[0].h_static)))
        whole = dynamics._Generator(systems, emit, pairs)
        reduced = dynamics._Generator(systems, emit, pairs, initial=[0])
        assert (whole.size, reduced.size) == (full, kept)
        reached = whole.coords.encode(reduced.coords.decode(np.ones(kept))) != 0
        assert np.count_nonzero(reached) == kept
        rows = np.zeros((len(systems), whole.coords.length), dtype=complex)
        rows[:, 0] = 1.0
        t_c = dynamics.drive_cutoff(system.pulse)
        stops = [*np.linspace(0.0, t_c, 7), t_c + 0.5, t_c + 3.0]
        for y in dynamics._walk(whole, whole.coords.encode(rows).ravel(), 0.0, stops,
                                dynamics.DEFAULT_INTEGRATOR):
            y = y.reshape(len(systems), -1)
            assert np.all(y[:, ~reached] == 0.0)
            assert np.any(y[:, reached] != 0.0)

    @pytest.mark.parametrize("system, observed, detuning, widths", MIXED_BATCHES,
                             ids=["two_level", "exciton_line"])
    def test_samples_past_cutoff_match_expm(self, system, observed, detuning, widths):
        # the stepper carries on past t_c; e^(L0 (t - t_c)) rho_c is the oracle, and the
        # later samples leave n and G bit for bit as the window samples give them
        systems, emit = _sensor_batch(system, observed, detuning, widths)
        t_c = dynamics.drive_cutoff(system.pulse)
        window = np.linspace(0.0, t_c, dynamics.WINDOW_SAMPLES)
        later = t_c + np.array([0.0, 0.05, 0.5, 2.0, 6.0])
        res = emission_integrals(systems, emit, times=np.concatenate([window, later]))
        alone = emission_integrals(systems, emit, times=window)
        assert np.array_equal(res.n_integral, alone.n_integral)
        assert np.array_equal(res.pair_integral, alone.pair_integral)
        k = len(window)
        for b, sys_b in enumerate(systems):
            l0 = _lab_liouvillian(sys_b)
            rho_c = res.states[b, k - 1].ravel()
            for j, t in enumerate(later, k):
                oracle = (expm(l0 * (t - t_c)) @ rho_c).reshape(sys_b.dimension, -1)
                np.testing.assert_allclose(res.states[b, j], oracle, rtol=0, atol=1e-8)
            nop = emit[b].conj().T @ emit[b]
            assert np.max(np.abs(res.n_series[b, k:] - np.einsum(
                "mn,tnm->t", nop, res.states[b, k:]).real)) <= 1e-12 * np.max(res.n_series[b])


class TestBatch:
    @pytest.mark.parametrize("system, observed, detuning, widths", MIXED_BATCHES,
                             ids=["two_level", "exciton_line"])
    def test_grouped_tails_match_per_system_lu(self, monkeypatch, system, observed, detuning,
                                              widths):
        # every point at eps and eps/2, as filtered_g2_batch runs it: a mixed-rate batch on
        # the sparse jump path, with a budget that splits it into groups of two systems
        # and a remainder
        systems = []
        for w in widths:
            eps = SensorConfig(detuning, w).resolved_coupling(system.decay_scale)
            systems += [attach_sensor(system, observed, SensorConfig(detuning, w, eps / k))
                        for k in (1.0, 2.0)]
        emit = np.array([s.output_ops["sensor"] for s in systems])
        # the points differ in sensor rate and coupling: an off-diagonal remainder
        assert dynamics._Generator(systems, emit, pairs=True).rem_blocks is not None
        d2 = systems[0].dimension ** 2
        monkeypatch.setattr(dynamics, "_TAIL_GROUP_BYTES", 2 * 16 * d2 * d2)
        batch = emission_integrals(systems, emit, times=())
        n_int, g_int = _tails_by_lu(systems, emit)
        np.testing.assert_allclose(batch.n_integral, n_int, rtol=1e-12, atol=0)
        np.testing.assert_allclose(batch.pair_integral, g_int, rtol=1e-12, atol=0)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one system"):
            dynamics._Generator([])
        with pytest.raises(ValueError, match="at least one system"):
            emission_integrals([], np.zeros((2, 2)))

    @pytest.mark.parametrize("system, observed, detuning, widths", MIXED_BATCHES,
                             ids=["two_level", "exciton_line"])
    def test_mixed_rates_match_single_runs(self, system, observed, detuning, widths):
        # each system keeps its own sensor rate and readout inside the batch
        systems, emit = _sensor_batch(system, observed, detuning, widths)
        batch = emission_integrals(systems, emit, times=())
        for b in range(len(systems)):
            alone = emission_integrals([systems[b]], emit[b], times=())
            assert batch.n_integral[b] == pytest.approx(alone.n_integral[0], rel=1e-8)
            assert batch.pair_integral[b] == pytest.approx(alone.pair_integral[0], rel=1e-8)

    def test_different_channel_operators_raise(self):
        system = build_two_level(TwoLevelConfig(), GaussianPulse(math.pi, 0.05))
        (sigma, rate), = system.channels
        others = [
            replace(system, channels=((2.0 * sigma, rate),)),
            replace(system, channels=((sigma, rate), (EXCITED, 0.1))),
            replace(system, pulse=GaussianPulse(math.pi, 0.1)),
            replace(system, h_drive=2.0 * system.h_drive),
            replace(system, h_drive=None),
        ]
        for other in others:
            with pytest.raises(BatchMismatch):
                emission_integrals([system, other], sigma, times=())
        # rates may differ
        slower = replace(system, channels=((sigma, 0.5 * rate),))
        assert emission_integrals([system, slower], sigma, times=()).n_integral[1] > 0
