import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm, lu_factor, lu_solve

from photonpurity import dynamics
from photonpurity.correlations import map_grid
from photonpurity.dynamics import (
    BatchMismatch,
    StepSizeUnderflow,
    emission_integrals,
    emission_series,
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

from conftest import basis_projector, ground_state, hamiltonian, walk_rows, walk_states

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
    return walk_states([system], system.output_ops["sigma"], times)[0]


def series(system, emit, times, rho0=None):
    """<emit^dag emit> of `system` at `times`, started in rho0 at t = 0."""
    states = walk_states([system], emit, times, rho0)[0]
    return np.einsum("mn,tnm->t", emit.conj().T @ emit, states).real


class TestPropagate:
    def test_free_decay(self):
        system = free_decay_system()
        times = np.linspace(0.0, 10.0, 101)
        pop = series(system, system.output_ops["sigma"], times, basis_projector(system, "exciton"))
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
        n_2x, n_xv = (series(system, system.output_ops[name], times, rho0)
                      for name in ("biexciton_h", "exciton_v"))
        assert np.max(np.abs(n_2x - np.exp(-2 * times))) < 1e-6
        assert np.max(np.abs(n_xv - (np.exp(-times) - np.exp(-2 * times)))) < 1e-6

    def test_step_size_underflow(self):
        system = build_two_level(TwoLevelConfig(), GaussianPulse(0.0, 0.05))
        (sigma, _), = system.channels
        system = replace(system, channels=((sigma, 1e16),))
        with pytest.raises(StepSizeUnderflow):
            series(system, system.output_ops["sigma"], [0.0, 1.0],
                   basis_projector(system, "exciton"))

    @pytest.mark.parametrize("tau", [1e-15, 1e-20])
    def test_pulse_too_short_to_step_raises(self, tau):
        # MIN_STEPS_PER_PULSE steps across 8 tau fall below the smallest step: the
        # walk would take each stop as reached and never apply the drive
        system = build_two_level(TwoLevelConfig(), GaussianPulse(math.pi, tau))
        with pytest.raises(StepSizeUnderflow, match="pulse window .* below the smallest step"):
            emission_integrals([system], system.output_ops["sigma"])
        # a pi pulse long enough to step emits one photon
        longer = replace(system, pulse=GaussianPulse(math.pi, 1e-11))
        assert emission_integrals([longer], system.output_ops["sigma"]).n_integral[0] > 0.99


class TestExpectation:
    def test_identity_trace(self):
        system = free_decay_system()
        # the trace of the sampled states (emit = I would break the tail premise)
        states = walk_states([system], system.output_ops["sigma"], np.linspace(0, 5, 21),
                             basis_projector(system, "exciton"))
        trace = np.einsum("tnn->t", states[0])
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
        states = window_states(system, np.linspace(0, 10, 51))
        assert np.max(np.abs(np.einsum("tnn->t", states) - 1.0)) < 1e-8
        assert np.max(np.abs(states - states.conj().transpose(0, 2, 1))) < 1e-10
        assert np.min(np.linalg.eigvalsh(states)) >= -1e-8


class TestTwoTimeMap:
    def test_two_level_diagonal_exactly_zero(self):
        system = build_two_level(TwoLevelConfig(), GaussianPulse(math.pi, 0.05))
        grid = np.linspace(0.0, 3.0, 61)
        w = two_time_g2_map(system, "sigma", grid)
        assert np.all(np.diag(w) == 0.0)

    def test_symmetric(self):
        system = build_two_level(TwoLevelConfig(), GaussianPulse(math.pi, 0.05))
        grid = np.linspace(0.0, 3.0, 41)
        w = two_time_g2_map(system, "sigma", grid)
        assert np.max(np.abs(w - w.T)) < 1e-9

    def test_against_direct_regression(self):
        # oracle: collapse at t1 with scipy, propagate to t2, read the
        # population of the emission operator
        p = GaussianPulse(math.pi, 0.1)
        system = build_two_level(TwoLevelConfig(), p)
        grid = np.linspace(0.0, 3.0, 31)
        w = two_time_g2_map(system, "sigma", grid)
        sigma = system.output_ops["sigma"]
        nop = sigma.conj().T @ sigma
        rho0 = ground_state(system)
        for i, j in ((5, 10), (3, 28), (8, 25)):
            t1, t2 = grid[i], grid[j]
            rho_t1 = reference_master_equation(system, rho0, np.array([0.0, t1]))[-1]
            collapsed = sigma @ rho_t1 @ sigma.conj().T
            rho_t2 = reference_master_equation(system, collapsed, np.array([t1, t2]))[-1]
            oracle = np.trace(nop @ rho_t2).real
            assert w[i, j] == pytest.approx(oracle, rel=1e-6, abs=1e-12)

    @pytest.mark.parametrize("tau", [1e-5, 0.001, 0.02, 0.05, 0.2, 1.5, 3.0, 27.0, 100.0])
    def test_map_grid_resolves_the_drive_window(self, tau):
        # 300 even nodes to the horizon (pulse peak + 12 lifetimes, or the
        # drive cutoff t_c = 12 tau if later: the map holds the whole drive),
        # and spacing tau / 2.5 inside the drive window where that is finer
        system = build_two_level(TwoLevelConfig(), GaussianPulse(math.pi, tau))
        grid = map_grid(system)
        t_w = dynamics.drive_cutoff(system.pulse)
        t_end = max(system.pulse.offset + 12.0, t_w)
        assert grid[0] == 0.0 and grid[-1] == t_end and grid[-1] >= t_w
        assert np.all(np.diff(grid) > 0.0) and len(grid) <= 330
        window = grid[:np.count_nonzero(grid <= t_w) + 1]  # and the interval across t_w
        assert np.max(np.diff(window)) <= max(0.4 * tau, t_end / 299) * (1.0 + 1e-12)
        if tau in (0.2, 1.5):  # the pulse is resolved by the even nodes alone
            assert np.array_equal(grid, np.linspace(0.0, t_end, 300))

    @pytest.mark.parametrize("tau", [0.001, 0.02, 0.05, 0.2, 1.5])
    def test_figure_map_tolerance_budget(self, tau):
        # the docstring's tolerance line: the g2map figure grid at the default
        # tolerance against a tight run
        system = build_two_level(TwoLevelConfig(), GaussianPulse(math.pi, tau))
        grid = map_grid(system)
        tight = dynamics.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-16)
        ref = two_time_g2_map(system, "sigma", grid, cfg=tight)
        got = two_time_g2_map(system, "sigma", grid)
        assert np.max(np.abs(got - ref)) <= 2e-11 * np.max(ref)

    @pytest.mark.parametrize("tau", [0.001, 0.05, 0.2])
    def test_walked_tail_matches_exact_propagators(self, tau):
        # the docstring's tail line: the figure map against one whose
        # intervals past t_c are exact
        system = build_two_level(TwoLevelConfig(), GaussianPulse(math.pi, tau))
        grid = map_grid(system)
        got = two_time_g2_map(system, "sigma", grid)
        ref = _map_with_exact_tail(system, grid)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(ref)

    def test_grid_only_sets_where_the_map_is_read(self):
        # the docstring's "no grid bias": the figure map at its nodes against
        # a map on the union of them and the even 611 nodes map_grid used to
        # take at the default pulse length
        system = build_two_level(TwoLevelConfig(), GaussianPulse(math.pi, 0.05))
        grid = map_grid(system)
        union = np.union1d(np.linspace(0.0, grid[-1], 611), grid)
        got = two_time_g2_map(system, "sigma", grid)
        at = np.searchsorted(union, grid)
        ref = two_time_g2_map(system, "sigma", union)[np.ix_(at, at)]
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(ref)

    def test_coincidence_mass_in_pulse_strips(self):
        p = GaussianPulse(math.pi, 0.05)
        system = build_two_level(TwoLevelConfig(), p)
        grid = np.linspace(0.0, 6.0, 301)
        w = two_time_g2_map(system, "sigma", grid)
        near_pulse = np.abs(grid - p.offset) < 3 * p.length
        strip = near_pulse[:, None] | near_pulse[None, :]
        assert w[strip].sum() / w.sum() > 0.9

    @pytest.mark.parametrize("grid", [[0.5, 1.0, 2.0], [0.0, 1.0, 0.5], []],
                             ids=["after_zero", "decreasing", "empty"])
    def test_grid_must_start_at_zero_and_not_decrease(self, grid):
        # the map's chain starts from the ground state at t = 0, its first node
        system = build_two_level(TwoLevelConfig(), GaussianPulse(math.pi, 0.1))
        with pytest.raises(ValueError, match="must start at t = 0 and not decrease"):
            two_time_g2_map(system, "sigma", grid)


class TestEmissionSeries:
    @pytest.mark.parametrize("grid", [[0.0, 1.0, 0.5], [-0.1, 0.5]],
                             ids=["decreasing", "before_start"])
    def test_unsorted_grid_rejected(self, grid):
        system = build_two_level(TwoLevelConfig(detuning=5.0), GaussianPulse(math.pi / 2, 0.05))
        with pytest.raises(ValueError, match="must not decrease"):
            emission_series([system], system.output_ops["sigma"], grid)


def _sensor_batch(system, observed, detuning, widths):
    """The sensor-extended systems at each width, each with its own
    Gamma / (2 eps) readout."""
    sensors = [SensorConfig(detuning, w) for w in widths]
    systems = [attach_sensor(system, observed, s) for s in sensors]
    emit = np.array([s.bandwidth / (2.0 * s.resolved_coupling(system.decay_scale))
                     * x.output_ops["sensor"] for s, x in zip(sensors, systems)])
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
        np.testing.assert_allclose(coords.magnitudes(real), np.abs(rho.ravel())[coords.behind()],
                                   rtol=1e-15, atol=0)


class TestGenerator:
    @pytest.mark.parametrize("system, observed, center, stretch, chunks", [
        (build_two_level(TwoLevelConfig(), GaussianPulse(math.pi, 0.05)), "sigma", 0.0,
         (1.0, 1.0, 1.0), 1),
        (build_biexciton(BiexcitonConfig(), GaussianPulse(math.pi, 0.01)), EXCITON_V_ONLY, 150.0,
         (1.0, 1.0, 1.0), 1),
        (build_two_level(TwoLevelConfig(), GaussianPulse(math.pi, 0.05)), "sigma", 0.0,
         (1.0, 4.0, 1.0), 3),
        (build_biexciton(BiexcitonConfig(), GaussianPulse(math.pi, 0.01)), EXCITON_V_ONLY, 150.0,
         (1.0, 4.0, 1.0), 3),
    ], ids=["two_level", "exciton_line", "two_level_pulse_lengths",
            "exciton_line_pulse_lengths"])
    def test_rhs_matches_kron_superoperator(self, system, observed, center, stretch, chunks):
        # random real rows: the coordinates T^H z of complex vec rows z, with T the
        # unitary that `decode` applies, map to those of r S(r t) z, S the kron window:
        # each system runs on the first one's clock t at the ratio r of their pulse lengths
        systems, emit = _differing_batch(system, observed, center)
        systems = [replace(s, pulse=GaussianPulse(math.pi, k * s.pulse.length))
                   for s, k in zip(systems, stretch)]
        gen = dynamics._Generator(systems, emit, pairs=True)
        assert len(gen.static) == chunks  # one static operator per chunk of one pulse length
        # one remainder product holds the per-system diagonal and the rest
        scatter, gather, _ = gen.rem_blocks
        assert np.any(scatter == gather) and np.any(scatter != gather)
        d2 = gen.dim ** 2
        size = 2 * d2 + 2
        basis = gen.coords.decode(np.eye(size))  # row j: the vec row of real coordinate j
        np.testing.assert_allclose(basis @ basis.conj().T, np.eye(size), atol=1e-15)
        blocks = basis[:, :2 * d2].reshape(size, 2, gen.dim, gen.dim)
        assert np.array_equal(blocks, blocks.conj().swapaxes(2, 3))
        t = system.pulse.offset + 0.3 * system.pulse.length  # drive on
        rng = np.random.default_rng(5)
        z = rng.standard_normal((3, size)) @ basis  # Hermitian blocks, real scalars
        expected = np.array([r * _kron_window(s, e, r * t) @ z_b
                             for r, s, e, z_b in zip(stretch, systems, emit, z)]) @ basis.conj().T
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


def _map_with_exact_tail(system, grid):
    """two_time_g2_map of "sigma" on complex row-major vec, with the walked
    propagators of the intervals that start inside [0, t_c] and
    expm(L0 h) of a kron-built L0 for those after it."""
    gen = dynamics._Generator([system])
    d, n = gen.dim, len(grid)
    steps = np.diff(grid)
    driven = grid[:-1] < dynamics.drive_cutoff(system.pulse)
    window = dynamics._step_propagators(gen, grid[:np.count_nonzero(driven) + 1],
                                        dynamics.DEFAULT_INTEGRATOR)
    basis = gen.coords.decode(np.eye(d * d))  # row j: vec of basis operator j
    props = np.empty((n - 1, d * d, d * d), dtype=complex)
    props[driven] = basis.T @ window.swapaxes(1, 2) @ basis.conj()
    for k in np.flatnonzero(~driven):
        props[k] = expm(_lab_liouvillian(system) * steps[k])
    sigma = system.output_ops["sigma"]
    rho = np.zeros((n, d * d), dtype=complex)
    rho[0, 0] = 1.0
    for k in range(n - 1):
        rho[k + 1] = props[k] @ rho[k]
    rows = (sigma @ rho.reshape(n, d, d) @ sigma.conj().T).reshape(n, d * d)
    nvec = (sigma.conj().T @ sigma).T.ravel()  # <N|x> = tr(N x) = nvec . vec(x)
    w_map = np.diag((rows @ nvec).real)
    for k in range(n - 1):
        rows[:k + 1] = rows[:k + 1] @ props[k].T
        w_map[:k + 1, k + 1] = (rows[:k + 1] @ nvec).real
    return w_map + np.triu(w_map, 1).T


def _tails_by_lu(systems, emit):
    """n and G of emission_integrals(systems, emit), with the tails
    closed by one scipy LU per system of a kron-built L0 + |rho_ss><1|."""
    gen = dynamics._Generator(systems, emit, pairs=True)
    d, nb = gen.dim, gen.nbatch
    t_c = dynamics.drive_cutoff(gen.pulse)
    y = np.zeros((nb, gen.coords.length), dtype=complex)
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

    @pytest.mark.parametrize("batch, pairs, uncouple, full, kept", [
        (1, True, False, 290, 86), (1, False, False, 145, 43), (0, True, True, 74, 44),
        (0, True, False, 74, 44), (0, False, False, 37, 22)],
        ids=["exciton_line", "exciton_line_spectrum", "two_level_first_uncoupled",
             "two_level", "two_level_spectrum"])
    def test_dropped_coordinates_stay_exactly_zero(self, batch, pairs, uncouple, full, kept):
        # the full generator, walked from the ground state, leaves every coordinate
        # outside the closure at exactly 0.0, at every stop (past t_c too); on the
        # resonant two-level line that is also one entry of every coherence pair, the
        # one that the sign matrix S of mirror_signs fixes at 0
        system, observed, detuning, widths = MIXED_BATCHES[batch]
        systems, emit = _sensor_batch(system, observed, detuning, widths)
        if uncouple:  # the sensor coupling is then no part of the shared pattern
            systems[0] = replace(systems[0], h_static=np.diag(np.diag(systems[0].h_static)))
        whole = dynamics._Generator(systems, emit, pairs)
        reduced = dynamics._Generator(systems, emit, pairs, rho0=ground_state(systems[0]))
        assert (whole.size, reduced.size) == (full, kept)
        assert (reduced.coords.imag is None) == (batch == 1)  # no S on the exciton line
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

    @pytest.mark.parametrize("case, kept, cut", [
        ("resonant", 44, True), ("center_off_resonance", 74, False), ("exciton_line", 86, False),
        ("rho0_imaginary_coherence", 44, True), ("rho0_real_coherence", 74, False)])
    def test_mirror_cut_needs_every_system_and_the_start(self, monkeypatch, case, kept, cut):
        # the rows keep one entry of each coherence pair only where the sign matrix S
        # fixes every system of the batch and the start: a center at Delta != 0 or the
        # exciton line has no S, and S fixes a ground-exciton coherence only when it
        # is imaginary (s_g s_e = -1); a cut walk gives the rows of an uncut one across
        # the pulse window, and a cut pass the integrals of an uncut one
        batch = 1 if case == "exciton_line" else 0
        system, observed, detuning, widths = MIXED_BATCHES[batch]
        systems, emit = _sensor_batch(system, observed, detuning, widths)
        if case == "center_off_resonance":
            extra, extra_emit = _sensor_batch(system, observed, 1.0, widths[:1])
            systems, emit = systems + extra, np.concatenate([emit, extra_emit])
        rho0 = ground_state(systems[0])
        if case.startswith("rho0"):
            phase = 1j if case == "rho0_imaginary_coherence" else 1.0
            ket = np.zeros(systems[0].dimension, dtype=complex)
            ket[0], ket[3] = 1.0, phase  # |g, 0> and |e, 0>
            rho0 = np.outer(ket, ket.conj()) / 2.0
        gen = dynamics._Generator(systems, emit, pairs=True, rho0=rho0)
        assert gen.size == kept and (gen.coords.imag is not None) == cut
        window = np.linspace(0.0, dynamics.drive_cutoff(system.pulse), 7)
        rows = walk_rows(systems, emit, window, rho0, pairs=True)
        res = emission_integrals(systems, emit)
        assert np.all(res.n_integral > 0) and np.all(res.pair_integral > 0)
        monkeypatch.setattr(dynamics, "mirror_signs", lambda hams, ops: None)
        assert dynamics._Generator(systems, emit, pairs=True, rho0=rho0).coords.imag is None
        uncut = walk_rows(systems, emit, window, rho0, pairs=True)
        for k in range(len(window)):
            assert np.max(np.abs(rows[:, k] - uncut[:, k])) <= 1e-12 * np.max(np.abs(uncut[:, k]))
        uncut = emission_integrals(systems, emit)
        np.testing.assert_allclose(res.n_integral, uncut.n_integral, rtol=1e-12, atol=0)
        np.testing.assert_allclose(res.pair_integral, uncut.pair_integral, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("system, observed, detuning, widths", MIXED_BATCHES,
                             ids=["two_level", "exciton_line"])
    def test_samples_past_cutoff_match_expm(self, system, observed, detuning, widths):
        # emission_series' walk carries on past t_c: e^(L0 (t - t_c)) rho_c is the oracle
        # of its states, and n(t) is read from them
        systems, emit = _sensor_batch(system, observed, detuning, widths)
        t_c = dynamics.drive_cutoff(system.pulse)
        window = np.linspace(0.0, t_c, 13)
        later = t_c + np.array([0.0, 0.05, 0.5, 2.0, 6.0])
        times = np.concatenate([window, later])
        states = walk_states(systems, emit, times)
        n_series = emission_series(systems, emit, times)
        k = len(window)
        for b, sys_b in enumerate(systems):
            l0 = _lab_liouvillian(sys_b)
            rho_c = states[b, k - 1].ravel()
            for j, t in enumerate(later, k):
                oracle = (expm(l0 * (t - t_c)) @ rho_c).reshape(sys_b.dimension, -1)
                np.testing.assert_allclose(states[b, j], oracle, rtol=0, atol=1e-8)
            nop = emit[b].conj().T @ emit[b]
            assert np.max(np.abs(n_series[b, k:] - np.einsum(
                "mn,tnm->t", nop, states[b, k:]).real)) <= 1e-12 * np.max(n_series[b])


class TestBatch:
    @pytest.mark.parametrize("system, observed, detuning, widths", MIXED_BATCHES,
                             ids=["two_level", "exciton_line"])
    def test_grouped_tails_match_per_system_lu(self, system, observed, detuning, widths):
        # every point at eps and eps/2, as filtered_g2_batch runs it: a mixed-rate batch on
        # the sparse jump path, its tails one batched real solve per block on the kept
        # coordinates (on the two-level line, the half that S leaves live) against a
        # complex LU per system on the full vec of the uncut walk
        systems = []
        for w in widths:
            eps = SensorConfig(detuning, w).resolved_coupling(system.decay_scale)
            systems += [attach_sensor(system, observed, SensorConfig(detuning, w, eps / k))
                        for k in (1.0, 2.0)]
        emit = np.array([s.output_ops["sensor"] for s in systems])
        # the points differ in sensor rate and coupling: an off-diagonal remainder
        assert dynamics._Generator(systems, emit, pairs=True).rem_blocks is not None
        batch = emission_integrals(systems, emit)
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
        batch = emission_integrals(systems, emit)
        for b in range(len(systems)):
            alone = emission_integrals([systems[b]], emit[b])
            assert batch.n_integral[b] == pytest.approx(alone.n_integral[0], rel=1e-8)
            assert batch.pair_integral[b] == pytest.approx(alone.pair_integral[0], rel=1e-8)

    def test_pulse_lengths_run_on_their_own_clock(self):
        # a batch of two pulse lengths, in runs of two sizes, samples each system at the
        # same point of its own pulse, on the first one's time, and integrates each as a
        # pass of its own does
        short = build_two_level(TwoLevelConfig(), GaussianPulse(math.pi, 0.05))
        long = replace(short, pulse=GaussianPulse(math.pi, 0.2))
        sigma = short.output_ops["sigma"]
        times = np.linspace(0.0, 2.0 * dynamics.drive_cutoff(short.pulse), 9)
        both = emission_integrals([short, long, long], sigma)
        states = walk_states([short, long, long], sigma, times, pairs=True)
        for b, (system, r) in enumerate(((short, 1.0), (long, 4.0), (long, 4.0))):
            alone = emission_integrals([system], sigma)
            np.testing.assert_allclose(
                states[b], walk_states([system], sigma, r * times, pairs=True)[0], rtol=0, atol=1e-9)
            assert both.n_integral[b] == pytest.approx(alone.n_integral[0], rel=1e-9)
            assert both.pair_integral[b] == pytest.approx(alone.pair_integral[0], rel=1e-9)

    def test_different_channel_operators_raise(self):
        system = build_two_level(TwoLevelConfig(), GaussianPulse(math.pi, 0.05))
        (sigma, rate), = system.channels
        others = [
            replace(system, channels=((2.0 * sigma, rate),)),
            replace(system, channels=((sigma, rate), (EXCITED, 0.1))),
            replace(system, pulse=GaussianPulse(0.5 * math.pi, 0.05)),
            replace(system, h_drive=2.0 * system.h_drive),
        ]
        for other in others:
            with pytest.raises(BatchMismatch):
                emission_integrals([system, other], sigma)
        # rates may differ, and so may the pulse length at the same area
        slower = replace(system, channels=((sigma, 0.5 * rate),))
        assert emission_integrals([system, slower], sigma).n_integral[1] > 0
        longer = replace(system, pulse=GaussianPulse(math.pi, 0.1))
        assert emission_integrals([system, longer], sigma).n_integral[1] > 0
