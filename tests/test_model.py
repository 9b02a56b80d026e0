import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

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

from conftest import hamiltonian


class TestGaussianPulse:
    def test_peak_value(self):
        p = GaussianPulse(area=math.pi, length=1.0)
        assert p.amplitude(4.0) == pytest.approx(1.2533141373155003, abs=1e-12)

    def test_wing_over_peak(self):
        # exp(-(9-4)^2 / 2) = exp(-12.5)
        p = GaussianPulse(area=math.pi, length=1.0)
        ratio = p.amplitude(9.0) / p.amplitude(4.0)
        assert ratio == pytest.approx(3.7266531720786709e-06, rel=1e-12)

    def test_offset_defaults_to_four_lengths(self):
        assert GaussianPulse(area=1.0, length=0.05).offset == pytest.approx(0.2)

    def test_invalid(self):
        with pytest.raises(ValueError):
            GaussianPulse(area=1.0, length=0.0)
        with pytest.raises(ValueError):
            GaussianPulse(area=-0.1, length=1.0)

    @settings(max_examples=25, deadline=None)
    @given(area=st.floats(0.1, 20.0), length=st.floats(0.01, 2.0))
    def test_integrates_to_area(self, area, length):
        p = GaussianPulse(area=area, length=length)
        val, _ = quad(p.amplitude,
                      p.offset - 8 * length, p.offset + 8 * length, limit=200)
        assert val == pytest.approx(area, abs=1e-9 * max(1.0, area))


class TestTwoLevel:
    def test_drive_structure(self):
        # pulse area equals the Bloch rotation angle, so the off-diagonal
        # coupling is half the envelope amplitude
        p = GaussianPulse(area=math.pi, length=0.05)
        system = build_two_level(TwoLevelConfig(), p)
        h = hamiltonian(system, p.offset)
        assert h[0, 1] == pytest.approx(0.5 * p.amplitude(p.offset))
        assert h[0, 0] == 0.0

    def test_zero_drive_hamiltonian(self):
        system = build_two_level(TwoLevelConfig(), GaussianPulse(0.0, 0.05))
        for t in (0.0, 0.2, 3.0):
            assert np.all(hamiltonian(system, t) == 0.0)

    def test_detuning_on_diagonal(self):
        system = build_two_level(TwoLevelConfig(detuning=2.5), GaussianPulse(0.0, 0.05))
        assert hamiltonian(system, 0.0)[1, 1] == pytest.approx(2.5)

    def test_single_channel(self):
        # the decay rate is the time unit
        system = build_two_level(TwoLevelConfig(), GaussianPulse(1.0, 0.1))
        assert len(system.channels) == 1
        op, rate = system.channels[0]
        assert rate == 1.0
        assert np.array_equal(op, system.output_ops["sigma"])

    @settings(max_examples=30, deadline=None)
    @given(t=st.floats(0.0, 10.0), area=st.floats(0.0, 10.0),
           det=st.floats(-5.0, 5.0))
    def test_hamiltonian_hermitian(self, t, area, det):
        system = build_two_level(TwoLevelConfig(detuning=det), GaussianPulse(area, 0.1))
        h = hamiltonian(system, t)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12


class TestBiexciton:
    def test_two_photon_resonance_diagonal(self):
        # at the two-photon resonance the biexciton sits at zero in the
        # rotating frame and both excitons at +E_b/2
        config = BiexcitonConfig(binding_energy=300.0)
        system = build_biexciton(config, GaussianPulse(0.0, 0.05))
        assert np.allclose(np.diag(system.h_static), [0.0, 150.0, 150.0, 0.0])

    def test_horizontal_drive_leaves_v_branch_dark(self):
        system = build_biexciton(BiexcitonConfig(), GaussianPulse(math.pi, 0.05))
        hd = system.h_drive
        # V-branch couplings (cgs<->X_V and X_V<->2X) vanish
        assert hd[0, 2] == 0.0 and hd[2, 3] == 0.0
        assert hd[0, 1] != 0.0 and hd[1, 3] != 0.0

    def test_four_equal_channels(self):
        system = build_biexciton(BiexcitonConfig(), GaussianPulse(1.0, 0.05))
        assert len(system.channels) == 4
        assert all(rate == 1.0 for _, rate in system.channels)

    @settings(max_examples=30, deadline=None)
    @given(t=st.floats(0.0, 2.0))
    def test_hamiltonian_hermitian_any_polarization(self, t):
        system = build_biexciton(BiexcitonConfig(), GaussianPulse(math.pi, 0.05))
        h = hamiltonian(system, t)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12


class TestObservationVector:
    def test_selects_single_transition(self):
        # EXCITON_V_ONLY names the one transition X_V -> cgs, basis (cgs, X_H, X_V, 2X)
        system = build_biexciton(BiexcitonConfig(), GaussianPulse(1.0, 0.05))
        op = system.output_ops[EXCITON_V_ONLY]
        assert np.argwhere(op).tolist() == [[0, 2]] and op[0, 2] == 1.0


class TestAttachSensor:
    def test_dimension(self):
        system = build_two_level(TwoLevelConfig(), GaussianPulse(1.0, 0.05))
        extended = attach_sensor(system, "sigma", SensorConfig(0.0, 1.0, 1e-3, 2))
        assert extended.dimension == 6

    def test_truncation_rejected(self):
        # a one-photon sensor serves spectra; filtered_g2_batch rejects it for pairs
        assert SensorConfig(0.0, 1.0, 1e-3, truncation=1).truncation == 1
        with pytest.raises(ValueError, match=">= 1"):
            SensorConfig(0.0, 1.0, 1e-3, truncation=0)

    def test_channels_preserved_plus_filter(self):
        system = build_biexciton(BiexcitonConfig(), GaussianPulse(1.0, 0.05))
        extended = attach_sensor(system, EXCITON_V_ONLY, SensorConfig(150.0, 2.5, 1e-3, 2))
        assert len(extended.channels) == len(system.channels) + 1
        rates = [rate for _, rate in extended.channels]
        assert rates[:-1] == [rate for _, rate in system.channels]
        assert rates[-1] == 2.5

    def test_default_coupling_scales_with_bandwidth(self):
        system = build_two_level(TwoLevelConfig(), GaussianPulse(1.0, 0.05))
        for width, eps in ((0.1, 1e-3), (50.0, 5e-2)):
            sensor = SensorConfig(0.0, width)
            assert sensor.resolved_coupling(system.decay_scale) == pytest.approx(eps)
            # <ground, 1 photon| H |exciton, 0 photons>: the exchange coupling
            assert attach_sensor(system, "sigma", sensor).h_static[1, 3] == pytest.approx(eps)

    def test_hamiltonian_hermitian(self):
        system = build_biexciton(BiexcitonConfig(), GaussianPulse(math.pi, 0.02))
        extended = attach_sensor(system, EXCITON_V_ONLY, SensorConfig(150.0, 1.0, 1e-3, 3))
        for t in (0.0, 0.08, 1.0):
            h = hamiltonian(extended, t)
            assert np.max(np.abs(h - h.conj().T)) < 1e-12

    def test_ground_state(self):
        system = build_two_level(TwoLevelConfig(), GaussianPulse(1.0, 0.05))
        # the dynamics start in basis state 0: the emitter's ground state, sensor empty
        extended = attach_sensor(system, "sigma", SensorConfig(0.0, 1.0, 1e-3, 2))
        # no emission operator, the sensor's included, lowers it
        assert not any(np.any(op[:, 0]) for op in extended.output_ops.values())
