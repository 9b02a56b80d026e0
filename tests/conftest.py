import numpy as np
import pytest

from photonpurity import dynamics
from photonpurity.correlations import filtered_g2_zero
from photonpurity.dynamics import emission_integrals
from photonpurity.model import (
    BiexcitonConfig,
    EXCITON_V_ONLY,
    GaussianPulse,
    SensorConfig,
    TwoLevelConfig,
    build_biexciton,
    build_two_level,
)

FOURLEVEL_BINDING = 300.0


def two_level_system(tau, theta=np.pi):
    return build_two_level(TwoLevelConfig(), GaussianPulse(theta, tau))


def fourlevel_system(tau=0.01, theta=np.pi):
    return build_biexciton(BiexcitonConfig(binding_energy=FOURLEVEL_BINDING),
                           GaussianPulse(theta, tau))


def hamiltonian(system, t):
    """Lab-frame Hamiltonian h_static + amplitude(t) h_drive of a model at time t."""
    h = np.array(system.h_static, dtype=complex)
    return h + float(system.pulse.amplitude(t)) * system.h_drive


# The basis state of each name, in the builders' basis orders: (ground, exciton)
# of the two-level emitter, (cgs, X_H, X_V, 2X) of the cascade.
BASIS = {"ground": 0, "exciton": 1, "cgs": 0, "exciton_h": 1, "exciton_v": 2, "biexciton": 3}


def basis_projector(system, label):
    """|label><label| for one of the model's basis states."""
    rho = np.zeros((system.dimension, system.dimension), dtype=complex)
    rho[BASIS[label], BASIS[label]] = 1.0
    return rho


def ground_state(system):
    """The density matrix of basis state 0, where the dynamics start."""
    return basis_projector(system, "ground")


def _walk_from(systems, emit, rho0, pairs, stops):
    """The pass's own generator and stepper, started in rho0 (the ground
    state when None) at t = 0: the generator, and its real rows (B, D) at
    each time of `stops`."""
    rho0 = ground_state(systems[0]) if rho0 is None else np.asarray(rho0)
    gen = dynamics._Generator(systems, emit, pairs, rho0)
    rows = np.zeros((gen.nbatch, gen.coords.length), dtype=complex)
    rows[:, :rho0.size] = rho0.ravel()
    walk = dynamics._walk(gen, gen.coords.encode(rows).ravel(), 0.0, stops,
                          dynamics.DEFAULT_INTEGRATOR)
    return gen, [y.reshape(gen.nbatch, -1) for y in walk]


def walk_rows(systems, emit, times, rho0=None, pairs=False):
    """The rows of a batch started in rho0 (the ground state when None) at
    t = 0, at `times` of its first system, as complex vec rows
    (B, len(times), length): those of emission_integrals' generator for
    `emit` and `pairs`, walked by its stepper through every time."""
    gen, rows = _walk_from(systems, emit, rho0, pairs, times)
    return np.stack([gen.coords.decode(y) for y in rows], axis=1)


def walk_states(systems, emit, times, rho0=None, pairs=False):
    """The states rho(t), (B, len(times), d, d), of walk_rows."""
    d = systems[0].dimension
    rows = walk_rows(systems, emit, times, rho0, pairs)
    return rows[:, :, :d * d].reshape(len(rows), len(times), d, d)


def n_integral_from(systems, emit, rho0):
    """n of a batch started in rho0 at t = 0: the walk to t_c and the tail
    of emission_integrals without pairs, from another start."""
    gen, (rows,) = _walk_from(systems, emit, rho0, False,
                              [dynamics.drive_cutoff(systems[0].pulse)])
    return gen.settle(rows)[:, 0]


def delays_ps(hist):
    """The delay of each bin of a CoincidenceHistogram, ps."""
    return (np.arange(len(hist.counts)) - hist.half_bins) * hist.bin_width


def unfiltered_g2(system):
    """Unfiltered g2[0] of sigma: the pair integral over the squared
    integrated population, both over all times."""
    res = emission_integrals([system], system.output_ops["sigma"])
    return float(res.pair_integral[0] / res.n_integral[0] ** 2)


@pytest.fixture(scope="session")
def tls_g2():
    """Cached filtered g2[0; Gamma] of the resonantly driven two-level system
    at pulse area pi; epsilon-halving check enabled on every point."""
    cache = {}

    def get(tau, gamma):
        key = (round(tau, 6), round(gamma, 6))
        if key not in cache:
            cache[key] = filtered_g2_zero(
                two_level_system(tau), SensorConfig(0.0, gamma), check_convergence=True
            )
        return cache[key]

    get.cache = cache
    return get


@pytest.fixture(scope="session")
def tls_unfiltered():
    cache = {}

    def get(tau):
        key = round(tau, 6)
        if key not in cache:
            cache[key] = unfiltered_g2(two_level_system(tau))
        return cache[key]

    get.cache = cache
    return get


@pytest.fixture(scope="session")
def fourlevel_g2():
    """Cached exciton-line filtered g2 of the cascade at the two-photon
    resonance (sensor on the exciton-to-ground line)."""
    cache = {}
    system = fourlevel_system()

    def get(gamma):
        key = round(gamma, 6)
        if key not in cache:
            cache[key] = filtered_g2_zero(
                system,
                SensorConfig(FOURLEVEL_BINDING / 2.0, gamma),
                observed=EXCITON_V_ONLY,
                check_convergence=True,
            )
        return cache[key]

    get.cache = cache
    return get

