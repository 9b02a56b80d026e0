import numpy as np
import pytest

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
    if system.h_drive is not None and system.pulse is not None:
        h = h + float(system.pulse.amplitude(t)) * system.h_drive
    return h


def basis_projector(system, label):
    """|label><label| for one of the model's basis states."""
    i = system.labels.index(label)
    rho = np.zeros((system.dimension, system.dimension), dtype=complex)
    rho[i, i] = 1.0
    return rho


def ground_state(system):
    """The density matrix of basis state 0, where the dynamics start."""
    return basis_projector(system, system.labels[0])


def unfiltered_g2(system):
    """Unfiltered g2[0] of sigma: the pair integral over the squared
    integrated population, both over all times."""
    res = emission_integrals([system], system.output_ops["sigma"], times=())
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

