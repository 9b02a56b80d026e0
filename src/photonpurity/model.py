"""Quantum emitter models: driven two-level system, biexciton-exciton ladder,
and their sensor-extended versions.

All rates and angular frequencies are expressed in units of the exciton decay
rate gamma_sigma, all times in units of 1/gamma_sigma.  Models are immutable
after construction and safe to share between workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

HERMITICITY_TOL = 1e-12

# Ladder transitions in the order used by observation vectors:
# (X_H -> cgs, 2X -> X_H, X_V -> cgs, 2X -> X_V)
LADDER_TRANSITIONS = ("exciton_h", "biexciton_h", "exciton_v", "biexciton_v")


@dataclass(frozen=True)
class GaussianPulse:
    """Gaussian drive envelope with pulse area `area` (radians) and length
    `length` (units of 1/gamma_sigma).  `offset` defaults to 4*length so the
    pulse arrives well after initialization."""

    area: float
    length: float
    offset: float | None = None

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError(f"pulse length must be > 0, got {self.length}")
        if self.area < 0:
            raise ValueError(f"pulse area must be >= 0, got {self.area}")
        if self.offset is None:
            object.__setattr__(self, "offset", 4.0 * self.length)

    def amplitude(self, t):
        """Drive amplitude at time t; integrates to `area`."""
        x = (t - self.offset) / self.length
        return self.area / (math.sqrt(2.0 * math.pi) * self.length) * math.exp(-0.5 * x * x)


@dataclass(frozen=True)
class TwoLevelConfig:
    """Two-level emitter: `decay_rate` fixes the time unit, `detuning` is the
    exciton-laser detuning (0 = resonant drive)."""

    decay_rate: float = 1.0
    detuning: float = 0.0

    def __post_init__(self):
        if self.decay_rate <= 0:
            raise ValueError("decay_rate must be > 0")


@dataclass(frozen=True)
class BiexcitonConfig:
    """Biexciton-exciton ladder.  All four transitions share `decay_rate`.

    `exciton_detuning` is the exciton-laser detuning; None selects two-photon
    resonant excitation of the biexciton, i.e. exciton_detuning =
    binding_energy / 2, which puts the biexciton level at zero in the rotating
    frame and the exciton-to-ground lines at +binding_energy/2.
    """

    decay_rate: float = 1.0
    binding_energy: float = 300.0
    exciton_detuning: float | None = None

    def __post_init__(self):
        if self.decay_rate <= 0:
            raise ValueError("decay_rate must be > 0")
        if self.exciton_detuning is None:
            object.__setattr__(self, "exciton_detuning", self.binding_energy / 2.0)


@dataclass(frozen=True)
class PolarizationState:
    """Fully polarized input field, u_in = (cos(theta), sin(theta) e^{i phi})."""

    theta: float = 0.0
    phi: float = 0.0


HORIZONTAL = PolarizationState(0.0, 0.0)


def project_polarization(pol: PolarizationState) -> tuple[complex, complex]:
    """Project the input polarization onto the horizontal/vertical basis.

    Returns (h_factor, v_factor) = (u_in* . v_H, u_in* . v_V); the squared
    moduli always sum to one.
    """
    h = complex(math.cos(pol.theta))
    v = complex(math.sin(pol.theta)) * np.exp(-1j * pol.phi)
    return h, complex(v)


@dataclass(frozen=True)
class ObservationVector:
    """Complex weights selecting which ladder transitions feed the observed
    output field, ordered like LADDER_TRANSITIONS."""

    eta: tuple[complex, complex, complex, complex]

    def __post_init__(self):
        if len(self.eta) != 4:
            raise ValueError("observation vector needs exactly 4 components")
        if not any(abs(c) > 0 for c in self.eta):
            raise ValueError("observation vector must have a nonzero component")


EXCITON_V_ONLY = ObservationVector((0.0, 0.0, 1.0, 0.0))


@dataclass(frozen=True)
class SensorConfig:
    """Weakly coupled decaying mode used to read out frequency-filtered light.

    `detuning` is the filter center relative to the laser, `bandwidth` the
    Lorentzian filter width, `coupling` the probe strength (None picks
    1e-3 * max(bandwidth, gamma_sigma), which keeps the sensor occupation at a
    bandwidth-independent, numerically safe scale).  `truncation` is the
    photon-number cutoff, at least 1: an N-photon correlation needs N (del
    Valle et al., PRL 109, 183601 (2012)), so a spectrum needs 1 and the
    two-photon statistics 2 (filtered_g2_batch raises ValueError below).
    """

    detuning: float = 0.0
    bandwidth: float = 1.0
    coupling: float | None = None
    truncation: int = 2

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError("sensor bandwidth must be > 0")
        if self.coupling is not None and self.coupling <= 0:
            raise ValueError("sensor coupling must be > 0")
        if self.truncation < 1:
            raise ValueError("sensor truncation must be >= 1")

    def resolved_coupling(self, decay_scale: float) -> float:
        if self.coupling is not None:
            return self.coupling
        return 1e-3 * max(self.bandwidth, decay_scale)


@dataclass(frozen=True)
class SystemModel:
    """Time-dependent Hamiltonian plus dissipation channels on a finite
    Hilbert space.

    H(t) = h_static + pulse.amplitude(t) * h_drive.  `channels` is a tuple of
    (jump operator, rate).  `output_ops` exposes the named emission
    operators.  Basis state 0 is the ground state (sensor empty), where the
    dynamics start.
    """

    dimension: int
    labels: tuple[str, ...]
    h_static: np.ndarray
    h_drive: np.ndarray | None
    pulse: GaussianPulse | None
    channels: tuple[tuple[np.ndarray, float], ...]
    output_ops: Mapping[str, np.ndarray]
    decay_scale: float

    def __post_init__(self):
        h = self.h_static
        if h.shape != (self.dimension, self.dimension):
            raise ValueError("h_static shape does not match dimension")
        if np.max(np.abs(h - h.conj().T)) > HERMITICITY_TOL:
            raise ValueError("h_static is not Hermitian")
        if self.h_drive is not None and np.max(np.abs(self.h_drive - self.h_drive.conj().T)) > HERMITICITY_TOL:
            raise ValueError("h_drive is not Hermitian")
        for op, rate in self.channels:
            if rate < 0:
                raise ValueError("channel rates must be >= 0")
            if op.shape != (self.dimension, self.dimension):
                raise ValueError("channel operator shape does not match dimension")


def _transition(dim: int, dst: int, src: int) -> np.ndarray:
    op = np.zeros((dim, dim), dtype=complex)
    op[dst, src] = 1.0
    return op


def build_two_level(config: TwoLevelConfig, pulse: GaussianPulse) -> SystemModel:
    """Resonantly driven two-level emitter.

    H(t) = detuning * |x><x| + (amplitude(t) / 2) * (sigma^dag + sigma).  The
    half keeps the pulse area equal to the Bloch rotation angle, so area pi
    inverts the emitter.  Single radiative channel (sigma, decay_rate).
    """
    sigma = _transition(2, 0, 1)
    h_static = np.diag([0.0, config.detuning]).astype(complex)
    h_drive = 0.5 * (sigma + sigma.conj().T)
    return SystemModel(
        dimension=2,
        labels=("ground", "exciton"),
        h_static=h_static,
        h_drive=h_drive,
        pulse=pulse,
        channels=((sigma, config.decay_rate),),
        output_ops={"sigma": sigma},
        decay_scale=config.decay_rate,
    )


def build_biexciton(
    config: BiexcitonConfig,
    pulse: GaussianPulse,
    pol: PolarizationState = HORIZONTAL,
) -> SystemModel:
    """Biexciton-exciton ladder driven through the two-photon resonance.

    Basis order (cgs, X_H, X_V, 2X).  The drive couples each linear
    polarization branch with the projected amplitude (again with the half
    that makes area pi a Bloch pi rotation per branch); the four radiative
    transitions share the decay rate.  Output operators include the four
    individual transitions plus the polarization sums.
    """
    dx = config.exciton_detuning
    eb = config.binding_energy
    h_static = np.diag([0.0, dx, dx, 2.0 * dx - eb]).astype(complex)

    s_xh_g = _transition(4, 0, 1)   # X_H -> cgs
    s_2x_xh = _transition(4, 1, 3)  # 2X  -> X_H
    s_xv_g = _transition(4, 0, 2)   # X_V -> cgs
    s_2x_xv = _transition(4, 2, 3)  # 2X  -> X_V

    h_factor, v_factor = project_polarization(pol)
    raise_h = s_xh_g.conj().T + s_2x_xh.conj().T
    raise_v = s_xv_g.conj().T + s_2x_xv.conj().T
    drive = 0.5 * (h_factor * raise_h + v_factor * raise_v)
    h_drive = drive + drive.conj().T

    gamma = config.decay_rate
    output_ops = {
        "exciton_h": s_xh_g,
        "biexciton_h": s_2x_xh,
        "exciton_v": s_xv_g,
        "biexciton_v": s_2x_xv,
        "h": s_xh_g + s_2x_xh,
        "v": s_xv_g + s_2x_xv,
    }
    return SystemModel(
        dimension=4,
        labels=("cgs", "exciton_h", "exciton_v", "biexciton"),
        h_static=h_static,
        h_drive=h_drive,
        pulse=pulse,
        channels=(
            (s_xh_g, gamma),
            (s_2x_xh, gamma),
            (s_xv_g, gamma),
            (s_2x_xv, gamma),
        ),
        output_ops=output_ops,
        decay_scale=gamma,
    )


def observation_operator(system: SystemModel, eta: ObservationVector) -> np.ndarray:
    """Weighted sum of the four ladder transitions selected by `eta`."""
    op = np.zeros((system.dimension, system.dimension), dtype=complex)
    for weight, name in zip(eta.eta, LADDER_TRANSITIONS):
        if weight != 0:
            op = op + weight * np.asarray(system.output_ops[name])
    return op


def _resolve_observed(system: SystemModel, observed) -> np.ndarray:
    if isinstance(observed, str):
        return np.asarray(system.output_ops[observed], dtype=complex)
    if isinstance(observed, ObservationVector):
        return observation_operator(system, observed)
    return np.asarray(observed, dtype=complex)


def attach_sensor(system: SystemModel, observed, sensor: SensorConfig) -> SystemModel:
    """Tensor a truncated bosonic sensor mode onto `system`.

    `observed` is an output-op name, an ObservationVector, or an explicit
    operator matrix.  Adds detuning * n_sensor and the weak exchange coupling
    to the Hamiltonian and one decay channel (annihilator, bandwidth).  The
    sensor annihilator is exposed as output op "sensor".
    """
    obs_op = _resolve_observed(system, observed)
    eps = sensor.resolved_coupling(system.decay_scale)

    ns = sensor.truncation + 1
    a = np.diag(np.sqrt(np.arange(1, ns)), k=1).astype(complex)
    number = a.conj().T @ a
    eye_s = np.eye(ns, dtype=complex)
    eye_sys = np.eye(system.dimension, dtype=complex)

    def kron(x, y):  # np.kron of two matrices, as one broadcast product
        return (x[:, None, :, None] * y[None, :, None, :]).reshape(len(x) * len(y), -1)

    h_static = (
        kron(system.h_static, eye_s)
        + sensor.detuning * kron(eye_sys, number)
        + eps * (kron(obs_op, a.conj().T) + kron(obs_op.conj().T, a))
    )
    h_drive = None if system.h_drive is None else kron(system.h_drive, eye_s)

    channels = tuple((kron(op, eye_s), rate) for op, rate in system.channels)
    channels = channels + ((kron(eye_sys, a), sensor.bandwidth),)

    output_ops = {name: kron(op, eye_s) for name, op in system.output_ops.items()}
    output_ops["sensor"] = kron(eye_sys, a)

    labels = tuple(f"{lab}|{n}" for lab in system.labels for n in range(ns))
    return SystemModel(
        dimension=system.dimension * ns,
        labels=labels,
        h_static=h_static,
        h_drive=h_drive,
        pulse=system.pulse,
        channels=channels,
        output_ops=output_ops,
        decay_scale=system.decay_scale,
    )
