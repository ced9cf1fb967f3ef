import math

import numpy as np
import pytest

import helpers
from backaction import states
from backaction.cascade import (
    CascadeScenario,
    first_readout,
    is_alpha_repeatable,
    repeatability_deviation,
    repeatability_sweep,
    second_readout,
)
from backaction.measurement import noiseless_model, von_neumann_model
from backaction.states import GaussianSpec, from_gaussian


def _scenario(model, rng):
    obj = helpers.random_state(rng, labels=("object",))
    probe = helpers.random_state(rng, labels=("probe",))
    return CascadeScenario(model, obj, probe)


class TestReadoutObservables:
    # Coefficient order on the composite: (x, px, y, py, z, pz).

    def test_noiseless_first_readout_is_object_position(self):
        rng = np.random.default_rng(0)
        scenario = _scenario(noiseless_model(), rng)
        obs = first_readout(scenario)
        np.testing.assert_allclose(obs.coeffs, [1, 0, 0, 0, 0, 0], atol=1e-12)

    def test_noiseless_second_readout(self):
        # Window 1 swaps x into -y territory, so probe 2 reads x - y.
        rng = np.random.default_rng(1)
        scenario = _scenario(noiseless_model(), rng)
        obs = second_readout(scenario)
        np.testing.assert_allclose(obs.coeffs, [1, 0, -1, 0, 0, 0], atol=1e-12)

    def test_von_neumann_readouts(self):
        rng = np.random.default_rng(2)
        scenario = _scenario(von_neumann_model(), rng)
        np.testing.assert_allclose(
            first_readout(scenario).coeffs, [1, 0, 1, 0, 0, 0], atol=1e-12)
        np.testing.assert_allclose(
            second_readout(scenario).coeffs, [1, 0, 0, 0, 1, 0], atol=1e-12)


class TestDeviation:
    def test_noiseless_deviation_is_probe_spread(self):
        rng = np.random.default_rng(10)
        model = noiseless_model()
        for _ in range(200):
            full = helpers.random_admissible_spec(rng)
            spec = GaussianSpec(
                full.sigma_x, full.sigma_p, correlation=full.correlation)
            probe = from_gaussian(spec, labels=("probe",))
            obj = helpers.random_state(rng, labels=("object",))
            scenario = CascadeScenario(model, obj, probe)
            assert repeatability_deviation(scenario) == pytest.approx(
                spec.sigma_x, abs=1e-12)

    def test_biased_probe_adds_its_mean(self):
        # gap = y for the noiseless cascade, so a pointer offset b gives
        # deviation sqrt(sigma_y^2 + b^2).
        rng = np.random.default_rng(11)
        model = noiseless_model()
        for _ in range(100):
            spec = helpers.random_admissible_spec(rng)
            probe = from_gaussian(spec, labels=("probe",))
            obj = helpers.random_state(rng, labels=("object",))
            scenario = CascadeScenario(model, obj, probe)
            assert repeatability_deviation(scenario) == pytest.approx(
                math.hypot(spec.sigma_x, spec.mean_x), abs=1e-12)

    def test_second_probe_never_enters_the_noiseless_gap(self):
        # The noiseless gap observable is -y(t): probe 2 drops out entirely.
        rng = np.random.default_rng(12)
        scenario = _scenario(noiseless_model(), rng)
        gap = second_readout(scenario) - first_readout(scenario)
        np.testing.assert_allclose(gap.coeffs, [0, 0, -1, 0, 0, 0], atol=1e-12)

    def test_object_independence(self):
        # The gap observable has no object support, so wildly different
        # object preparations give the same deviation.
        rng = np.random.default_rng(13)
        for model in (noiseless_model(), von_neumann_model()):
            probe = helpers.random_state(rng, labels=("probe",))
            values = {
                repeatability_deviation(
                    CascadeScenario(
                        model, helpers.random_state(rng, labels=("object",)),
                        probe))
                for _ in range(50)}
            assert max(values) - min(values) <= 1e-12

    def test_von_neumann_pays_root_two(self):
        # Window 1 kicks p_x by -p_y, window 2 inherits the kick: the gap is
        # z + y(t) - y(t + dt) = z - ... ; with identical zero-mean probes the
        # deviation is sqrt(2) sigma_y, strictly worse than the noiseless one.
        sy = 0.3
        probe = from_gaussian(GaussianSpec(sy, 0.5 / sy), labels=("probe",))
        obj = from_gaussian(GaussianSpec(1.0, 0.5), labels=("object",))
        scenario = CascadeScenario(von_neumann_model(), obj, probe)
        assert repeatability_deviation(scenario) == pytest.approx(
            math.sqrt(2.0) * sy, abs=1e-12)


class TestAlphaRepeatable:
    def test_threshold_is_sharp(self):
        sy = 0.125
        probe = from_gaussian(GaussianSpec(sy, 0.5 / sy), labels=("probe",))
        obj = from_gaussian(GaussianSpec(1.0, 0.5), labels=("object",))
        scenario = CascadeScenario(noiseless_model(), obj, probe)
        assert is_alpha_repeatable(scenario, sy)
        assert not is_alpha_repeatable(scenario, sy * (1.0 - 1e-6))

    def test_alpha_validation(self):
        rng = np.random.default_rng(20)
        scenario = _scenario(noiseless_model(), rng)
        with pytest.raises(ValueError, match="alpha"):
            is_alpha_repeatable(scenario, -0.1)
        with pytest.raises(ValueError, match="alpha"):
            is_alpha_repeatable(scenario, math.inf)


class TestScenarioValidation:
    def test_multimode_states_rejected(self):
        rng = np.random.default_rng(30)
        obj = helpers.random_state(rng, labels=("object",))
        pair = states.product(obj, obj)
        with pytest.raises(ValueError, match="single-mode"):
            CascadeScenario(noiseless_model(), pair, obj)

    def test_hbar_mismatch_rejected(self):
        obj = from_gaussian(GaussianSpec(1.0, 1.0), hbar=2.0)
        probe = from_gaussian(GaussianSpec(1.0, 1.0), hbar=2.0)
        with pytest.raises(ValueError, match="hbar"):
            CascadeScenario(noiseless_model(), obj, probe)

    def test_second_probe_defaults_to_first(self):
        rng = np.random.default_rng(31)
        scenario = _scenario(noiseless_model(), rng)
        joint = scenario.joint_state()
        probe = scenario.probe_state
        np.testing.assert_array_equal(joint.mean[4:], probe.mean)
        np.testing.assert_array_equal(joint.cov[4:, 4:], probe.cov)
        np.testing.assert_array_equal(joint.cov[2:4, 2:4], probe.cov)


class TestSweep:
    def test_noiseless_sweep_values(self):
        sigma_ys = [2.0 ** -k for k in range(8)]
        points = repeatability_sweep(noiseless_model(), sigma_ys)
        for sy, point in zip(sigma_ys, points):
            assert point.sigma_y == sy
            assert point.deviation == pytest.approx(sy, abs=1e-12)
            assert point.report.epsilon <= 1e-12

    def test_sweep_rejects_bad_sigma(self):
        with pytest.raises(ValueError, match="positive"):
            repeatability_sweep(noiseless_model(), [0.5, 0.0])
