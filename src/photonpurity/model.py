"""Quantum emitter models: driven two-level system, biexciton-exciton ladder,
and their sensor-extended versions.

All rates and angular frequencies are expressed in units of the exciton decay
rate gamma_sigma, all times in units of 1/gamma_sigma.  Models are immutable
after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

HERMITICITY_TOL = 1e-12

# The output op of the cascade's exciton line, X_V -> cgs
EXCITON_V_ONLY = "exciton_v"


@dataclass(frozen=True)
class GaussianPulse:
    """Gaussian drive envelope with pulse area `area` (radians) and length
    `length` (units of 1/gamma_sigma), peaking at `offset` = 4 * length so
    that the pulse arrives well after initialization at t = 0."""

    area: float
    length: float

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError(f"pulse length must be > 0, got {self.length}")
        if self.area < 0:
            raise ValueError(f"pulse area must be >= 0, got {self.area}")

    @property
    def offset(self) -> float:
        return 4.0 * self.length

    def amplitude(self, t):
        """Drive amplitude at time t; integrates to `area`."""
        x = (t - self.offset) / self.length
        return self.area / (math.sqrt(2.0 * math.pi) * self.length) * math.exp(-0.5 * x * x)


@dataclass(frozen=True)
class TwoLevelConfig:
    """Two-level emitter decaying at rate 1, the time unit: `detuning` is the
    exciton-laser detuning (0 = resonant drive)."""

    detuning: float = 0.0


@dataclass(frozen=True)
class BiexcitonConfig:
    """Biexciton-exciton ladder.  All four transitions decay at rate 1, the
    time unit.

    The laser drives the two-photon resonance of the biexciton: the exciton
    sits binding_energy / 2 from the laser, which puts the biexciton level at
    zero in the rotating frame and the exciton-to-ground lines at
    +binding_energy/2.
    """

    binding_energy: float = 300.0


@dataclass(frozen=True)
class SensorConfig:
    """Weakly coupled decaying mode used to read out frequency-filtered light.

    `detuning` is the filter center relative to the laser, `bandwidth` the
    Lorentzian filter width, `coupling` the probe strength (None picks
    1e-3 * max(bandwidth, decay_scale), which keeps the sensor occupation at
    a bandwidth-independent, numerically safe scale).  `truncation` is the
    photon-number cutoff, at least 1: an N-photon correlation needs N (del
    Valle et al., PRL 109, 183601 (2012)), so a spectrum is cut at 1 and the
    two-photon statistics at 2 (filtered_g2_batch raises ValueError below);
    a higher cutoff serves the truncation line of the error budget.
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

    H(t) = h_static + pulse.amplitude(t) * h_drive; an area-0 pulse leaves
    the system undriven.  `channels` is a tuple of (jump operator, rate).
    `output_ops` exposes the named emission operators.  Basis state 0 is the
    ground state (sensor empty), where the dynamics start.
    """

    dimension: int
    h_static: np.ndarray
    h_drive: np.ndarray
    pulse: GaussianPulse
    channels: tuple[tuple[np.ndarray, float], ...]
    output_ops: Mapping[str, np.ndarray]
    decay_scale: float

    def __post_init__(self):
        for name in ("h_static", "h_drive"):
            h = getattr(self, name)
            if h.shape != (self.dimension, self.dimension):
                raise ValueError(f"{name} shape does not match dimension")
            if np.max(np.abs(h - h.conj().T)) > HERMITICITY_TOL:
                raise ValueError(f"{name} is not Hermitian")
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
    """Resonantly driven two-level emitter, basis order (ground, exciton).

    H(t) = detuning * |x><x| + (amplitude(t) / 2) * (sigma^dag + sigma).  The
    half keeps the pulse area equal to the Bloch rotation angle, so area pi
    inverts the emitter.  Single radiative channel (sigma, 1).
    """
    sigma = _transition(2, 0, 1)
    h_static = np.diag([0.0, config.detuning]).astype(complex)
    h_drive = 0.5 * (sigma + sigma.conj().T)
    return SystemModel(
        dimension=2,
        h_static=h_static,
        h_drive=h_drive,
        pulse=pulse,
        channels=((sigma, 1.0),),
        output_ops={"sigma": sigma},
        decay_scale=1.0,
    )


def build_biexciton(config: BiexcitonConfig, pulse: GaussianPulse) -> SystemModel:
    """Biexciton-exciton ladder driven through the two-photon resonance.

    Basis order (cgs, X_H, X_V, 2X).  The laser is polarized along H: it
    drives cgs <-> X_H <-> 2X (again with the half that makes area pi a Bloch
    pi rotation) and leaves the V branch dark.  The four radiative
    transitions decay at rate 1, and each is an output operator.
    """
    dx = config.binding_energy / 2.0
    h_static = np.diag([0.0, dx, dx, 0.0]).astype(complex)

    s_xh_g = _transition(4, 0, 1)   # X_H -> cgs
    s_2x_xh = _transition(4, 1, 3)  # 2X  -> X_H
    s_xv_g = _transition(4, 0, 2)   # X_V -> cgs
    s_2x_xv = _transition(4, 2, 3)  # 2X  -> X_V

    drive = 0.5 * (s_xh_g.conj().T + s_2x_xh.conj().T)
    h_drive = drive + drive.conj().T

    output_ops = {
        "exciton_h": s_xh_g,
        "biexciton_h": s_2x_xh,
        "exciton_v": s_xv_g,
        "biexciton_v": s_2x_xv,
    }
    return SystemModel(
        dimension=4,
        h_static=h_static,
        h_drive=h_drive,
        pulse=pulse,
        channels=tuple((op, 1.0) for op in output_ops.values()),
        output_ops=output_ops,
        decay_scale=1.0,
    )


def attach_sensor(system: SystemModel, observed: str, sensor: SensorConfig) -> SystemModel:
    """Tensor a truncated bosonic sensor mode onto `system`, basis order
    (emitter state, sensor photons) with the photon number fastest.

    The sensor couples to the output op named `observed`.  Adds
    detuning * n_sensor and the weak exchange coupling to the Hamiltonian and
    one decay channel (annihilator, bandwidth).  The sensor annihilator is
    exposed as output op "sensor".
    """
    obs_op = system.output_ops[observed]
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

    channels = tuple((kron(op, eye_s), rate) for op, rate in system.channels)
    channels = channels + ((kron(eye_sys, a), sensor.bandwidth),)

    output_ops = {name: kron(op, eye_s) for name, op in system.output_ops.items()}
    output_ops["sensor"] = kron(eye_sys, a)

    return SystemModel(
        dimension=system.dimension * ns,
        h_static=h_static,
        h_drive=kron(system.h_drive, eye_s),
        pulse=system.pulse,
        channels=channels,
        output_ops=output_ops,
        decay_scale=system.decay_scale,
    )
