import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from photonpurity.model import (
    BiexcitonConfig,
    EXCITON_V_ONLY,
    GaussianPulse,
    HORIZONTAL,
    LADDER_TRANSITIONS,
    ObservationVector,
    PolarizationState,
    SensorConfig,
    TwoLevelConfig,
    attach_sensor,
    build_biexciton,
    build_two_level,
    observation_operator,
    project_polarization,
)

from conftest import hamiltonian


class TestGaussianPulse:
    def test_peak_value(self):
        p = GaussianPulse(area=math.pi, length=1.0, offset=4.0)
        assert p.amplitude(4.0) == pytest.approx(1.2533141373155003, abs=1e-12)

    def test_wing_over_peak(self):
        # exp(-(9-4)^2 / 2) = exp(-12.5)
        p = GaussianPulse(area=math.pi, length=1.0, offset=4.0)
        ratio = p.amplitude(9.0) / p.amplitude(4.0)
        assert ratio == pytest.approx(3.7266531720786709e-06, rel=1e-12)

    def test_offset_defaults_to_four_lengths(self):
        assert GaussianPulse(area=1.0, length=0.05).offset == pytest.approx(0.2)
        assert GaussianPulse(area=1.0, length=0.05, offset=1.0).offset == 1.0

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


class TestPolarization:
    def test_horizontal(self):
        assert project_polarization(PolarizationState(0.0, 0.0)) == (1.0, 0.0)

    def test_vertical(self):
        h, v = project_polarization(PolarizationState(math.pi / 2, 0.0))
        assert abs(h) < 1e-15 and v == pytest.approx(1.0)

    def test_circular(self):
        h, v = project_polarization(PolarizationState(math.pi / 4, math.pi / 2))
        assert h == pytest.approx(1 / math.sqrt(2))
        assert v == pytest.approx(-1j / math.sqrt(2))

    @settings(max_examples=50, deadline=None)
    @given(theta=st.floats(0.0, math.pi, exclude_max=True),
           phi=st.floats(0.0, 2 * math.pi))
    def test_unit_norm(self, theta, phi):
        h, v = project_polarization(PolarizationState(theta, phi))
        assert abs(h) ** 2 + abs(v) ** 2 == pytest.approx(1.0, abs=1e-12)


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
        system = build_two_level(TwoLevelConfig(decay_rate=1.3), GaussianPulse(1.0, 0.1))
        assert len(system.channels) == 1
        op, rate = system.channels[0]
        assert rate == 1.3
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

    def test_explicit_detuning(self):
        config = BiexcitonConfig(binding_energy=100.0, exciton_detuning=10.0)
        system = build_biexciton(config, GaussianPulse(0.0, 0.05))
        assert np.allclose(np.diag(system.h_static), [0.0, 10.0, 10.0, -80.0])

    def test_horizontal_drive_leaves_v_branch_dark(self):
        system = build_biexciton(BiexcitonConfig(), GaussianPulse(math.pi, 0.05), HORIZONTAL)
        hd = system.h_drive
        # V-branch couplings (cgs<->X_V and X_V<->2X) vanish
        assert hd[0, 2] == 0.0 and hd[2, 3] == 0.0
        assert hd[0, 1] != 0.0 and hd[1, 3] != 0.0

    def test_four_equal_channels(self):
        system = build_biexciton(BiexcitonConfig(decay_rate=2.0), GaussianPulse(1.0, 0.05))
        assert len(system.channels) == 4
        assert all(rate == 2.0 for _, rate in system.channels)

    def test_polarization_sums(self):
        system = build_biexciton(BiexcitonConfig(), GaussianPulse(1.0, 0.05))
        assert np.array_equal(
            system.output_ops["h"],
            system.output_ops["exciton_h"] + system.output_ops["biexciton_h"],
        )
        assert np.array_equal(
            system.output_ops["v"],
            system.output_ops["exciton_v"] + system.output_ops["biexciton_v"],
        )

    @settings(max_examples=30, deadline=None)
    @given(t=st.floats(0.0, 2.0), theta=st.floats(0.0, math.pi, exclude_max=True),
           phi=st.floats(0.0, 2 * math.pi))
    def test_hamiltonian_hermitian_any_polarization(self, t, theta, phi):
        system = build_biexciton(
            BiexcitonConfig(), GaussianPulse(math.pi, 0.05), PolarizationState(theta, phi)
        )
        h = hamiltonian(system, t)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12


class TestObservationVector:
    def test_selects_single_transition(self):
        system = build_biexciton(BiexcitonConfig(), GaussianPulse(1.0, 0.05))
        op = observation_operator(system, EXCITON_V_ONLY)
        assert np.array_equal(op, system.output_ops["exciton_v"])

    def test_weighted_sum(self):
        system = build_biexciton(BiexcitonConfig(), GaussianPulse(1.0, 0.05))
        eta = ObservationVector((0.5, 0.0, 0.5j, 0.0))
        op = observation_operator(system, eta)
        expected = (0.5 * system.output_ops[LADDER_TRANSITIONS[0]]
                    + 0.5j * system.output_ops[LADDER_TRANSITIONS[2]])
        assert np.allclose(op, expected)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            ObservationVector((0.0, 0.0, 0.0, 0.0))


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
        narrow = attach_sensor(system, "sigma", SensorConfig(0.0, 0.1))
        wide = attach_sensor(system, "sigma", SensorConfig(0.0, 50.0))
        assert narrow.sensor.coupling == pytest.approx(1e-3)
        assert wide.sensor.coupling == pytest.approx(5e-2)

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
        assert extended.labels[0] == "ground|0"
