import math

import numpy as np
import pytest

import helpers
from backaction import canonical, grid, measurement, states
from backaction.canonical import ModeSystem, position
from backaction.measurement import (
    NOISELESS_REFERENCE,
    VON_NEUMANN_REFERENCE,
    MeasurementModel,
    disturbance,
    heisenberg_verdict,
    limit_sweep,
    noise,
    noiseless_model,
    realization_residual,
    von_neumann_model,
)
from backaction.states import GaussianSpec, from_gaussian

# Endpoint maps in (x, p_x, y, p_y) coordinates, r(t+dt) = S r(t).
VN_ENDPOINT = np.array([
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, -1.0],
    [1.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
])

NOISELESS_ENDPOINT = np.array([
    [1.0, 0.0, -1.0, 0.0],
    [0.0, 0.0, 0.0, -1.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 1.0],
])


def _object_state(rng):
    return helpers.random_state(rng, labels=("object",))


def _probe_state(rng):
    return helpers.random_state(rng, labels=("probe",))


class TestEndpointMaps:
    def test_von_neumann(self):
        s = von_neumann_model().endpoint.matrix
        assert np.max(np.abs(s - VN_ENDPOINT)) <= 1e-12

    def test_noiseless(self):
        s = noiseless_model().endpoint.matrix
        assert np.max(np.abs(s - NOISELESS_ENDPOINT)) <= 1e-12

    def test_hbar_does_not_enter_the_map(self):
        s = noiseless_model(hbar=3.0).endpoint.matrix
        assert np.max(np.abs(s - NOISELESS_ENDPOINT)) <= 1e-12


class TestIntermediateTimes:
    @staticmethod
    def _noiseless_expected(u):
        """Closed sine forms of the rotated window at fraction u = K tau."""
        c = 2.0 / math.sqrt(3.0)
        s_plus = math.sin((1.0 + u) * math.pi / 3.0)
        s_u = math.sin(u * math.pi / 3.0)
        s_minus = math.sin((1.0 - u) * math.pi / 3.0)
        out = np.zeros((4, 4))
        out[0, 0], out[0, 2] = c * s_plus, -c * s_u
        out[2, 0], out[2, 2] = c * s_u, c * s_minus
        out[1, 1], out[1, 3] = c * s_minus, -c * s_u
        out[3, 1], out[3, 3] = c * s_u, c * s_plus
        return out

    @pytest.mark.parametrize("u", [0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0])
    def test_noiseless_sine_forms(self, u):
        model = noiseless_model()
        s = model.propagation(u * model.dt).matrix
        assert np.max(np.abs(s - self._noiseless_expected(u))) <= 1e-12
        assert abs(np.linalg.det(s) - 1.0) <= 1e-12

    @pytest.mark.parametrize("u", [0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0])
    def test_von_neumann_linear_forms(self, u):
        model = von_neumann_model()
        s = model.propagation(u * model.dt).matrix
        expected = np.eye(4)
        expected[2, 0] = u
        expected[1, 3] = -u
        assert np.max(np.abs(s - expected)) <= 1e-12

    def test_sine_forms_recover_endpoints(self):
        assert np.max(np.abs(
            self._noiseless_expected(1.0) - NOISELESS_ENDPOINT)) <= 1e-12
        assert np.max(np.abs(self._noiseless_expected(0.0) - np.eye(4))) <= 1e-12


class TestModelType:
    def test_window_normalization_enforced(self):
        # The Hamiltonian is the window's; neither its length, a coupling
        # strength nor the mode system it acts on can be set apart.
        good = von_neumann_model()
        assert good.dt == 1.0
        assert good.system is good.hamiltonian.system
        np.testing.assert_array_equal(
            good.endpoint.matrix,
            canonical.propagate(good.hamiltonian, 1.0).matrix)
        for key in ("dt", "coupling", "system"):
            with pytest.raises(TypeError, match=key):
                MeasurementModel(
                    name="bad", hamiltonian=good.hamiltonian, **{key: 1.0})

    def test_measured_must_sit_on_object_mode(self):
        template = von_neumann_model()
        custom = MeasurementModel(
            name="custom", hamiltonian=template.hamiltonian)
        for model in (template, noiseless_model(), custom):
            np.testing.assert_array_equal(model.measured.coeffs, [1, 0, 0, 0])
            # The readout is the pointer position y pushed through the window.
            np.testing.assert_array_equal(
                model.readout.coeffs, model.endpoint.matrix.T @ [0, 0, 1, 0])

    def test_built_in_models_carry_their_shears(self):
        assert von_neumann_model().steps == grid.VON_NEUMANN_STEPS
        assert noiseless_model(hbar=3.0).steps == grid.NOISELESS_STEPS
        assert von_neumann_model().reference is VON_NEUMANN_REFERENCE
        assert noiseless_model(hbar=3.0).reference is NOISELESS_REFERENCE

    def test_custom_model_has_no_shears(self):
        template = von_neumann_model()
        model = MeasurementModel(
            name="custom", hamiltonian=template.hamiltonian)
        assert model.steps == ()
        assert model.reference is None
        with pytest.raises(ValueError, match="no shear factorization"):
            realization_residual(model)

    def test_endpoint_is_built_with_the_model(self):
        # Squeezing 400 x^2 - 400 p_x^2 overflows the exponential: the
        # constructor refuses it instead of a later endpoint lookup.
        system = ModeSystem(2)
        hamiltonian = canonical.build_quadratic(
            system, [(400.0, 0, 0), (-400.0, 1, 1)])
        with pytest.raises(ValueError, match="non-finite"):
            MeasurementModel(name="custom", hamiltonian=hamiltonian)


class TestOperators:
    def test_von_neumann_noise_is_pointer_position(self):
        model = von_neumann_model()
        np.testing.assert_allclose(
            model.noise_operator.coeffs, [0.0, 0.0, 1.0, 0.0], atol=1e-15)
        assert not model.exact_readout

    def test_noiseless_noise_vanishes_identically(self):
        # The window is free of hbar, so the noise coefficients are the
        # same rounding, 9.9e-17, at every hbar: the readout is exact.
        for hbar in (0.37, 1.0, 2.5, 1e8):
            model = noiseless_model(hbar=hbar)
            assert np.max(np.abs(model.noise_operator.coeffs)) <= 1e-15
            assert model.exact_readout

    def test_disturbance_operators(self):
        d_vn = von_neumann_model().disturbance_operator
        np.testing.assert_allclose(d_vn.coeffs, [0, 0, 0, -1.0], atol=1e-15)
        d_nl = noiseless_model().disturbance_operator
        np.testing.assert_allclose(d_nl.coeffs, [0, -1.0, 0, -1.0], atol=1e-15)

    def test_readout_is_the_pointer_after_the_window(self):
        # M(t + dt) = x + y for the stretch and x for the rotated window.
        np.testing.assert_allclose(
            von_neumann_model().readout.coeffs, [1, 0, 1, 0], atol=1e-15)
        np.testing.assert_allclose(
            noiseless_model().readout.coeffs, [1, 0, 0, 0], atol=1e-15)

    def test_von_neumann_leaves_position_undisturbed(self):
        model = von_neumann_model()
        x = position(model.system, 0)
        d = canonical.heisenberg_apply(model.endpoint, x) - x
        assert np.max(np.abs(d.coeffs)) <= 1e-15

    def test_disturbance_fails_to_commute_with_position(self):
        # [x, D(p_x)] = -i hbar for the rotated coupling: the constant that
        # makes sigma(x) * eta >= hbar/2 unavoidable.
        for hbar in (1.0, 2.5):
            model = noiseless_model(hbar=hbar)
            d = model.disturbance_operator
            value = canonical.commutator_constant(
                position(model.system, 0), d)
            assert value == pytest.approx(-hbar, abs=1e-12 * hbar)


class TestNoiseDisturbanceValues:
    def test_von_neumann_closed_forms(self):
        rng = np.random.default_rng(101)
        model = von_neumann_model()
        for _ in range(300):
            ospec = helpers.random_admissible_spec(rng)
            pspec = helpers.random_admissible_spec(rng)
            obj = from_gaussian(ospec, labels=("object",))
            probe = from_gaussian(pspec, labels=("probe",))
            eps = noise(model, obj, probe)
            eta = disturbance(model, obj, probe)
            assert eps == pytest.approx(
                math.hypot(pspec.sigma_x, pspec.mean_x), abs=1e-12)
            assert eta == pytest.approx(
                math.hypot(pspec.sigma_p, pspec.mean_p), abs=1e-12)

    def test_noiseless_closed_forms(self):
        rng = np.random.default_rng(102)
        model = noiseless_model()
        for _ in range(300):
            ospec = helpers.random_admissible_spec(rng)
            pspec = helpers.random_admissible_spec(rng)
            obj = from_gaussian(ospec, labels=("object",))
            probe = from_gaussian(pspec, labels=("probe",))
            assert noise(model, obj, probe) <= 1e-12
            eta_sq = (ospec.sigma_p ** 2 + pspec.sigma_p ** 2
                      + (ospec.mean_p + pspec.mean_p) ** 2)
            assert disturbance(model, obj, probe) ** 2 == pytest.approx(
                eta_sq, abs=1e-12)

    def test_verdict_flags(self):
        rng = np.random.default_rng(103)
        obj, probe = _object_state(rng), _probe_state(rng)
        vn = heisenberg_verdict(von_neumann_model(), obj, probe)
        assert vn.product_meets_bound and vn.product >= 0.5 - 1e-12
        nl = heisenberg_verdict(noiseless_model(), obj, probe)
        assert not nl.product_meets_bound
        assert nl.product <= 1e-12
        assert nl.tradeoff_meets_bound
        assert nl.product == nl.epsilon * nl.eta

    def test_hbar_scales_the_bound(self):
        obj = from_gaussian(GaussianSpec(1.0, 1.5), hbar=3.0, labels=("object",))
        probe = from_gaussian(GaussianSpec(1.0, 1.5), hbar=3.0, labels=("probe",))
        report = heisenberg_verdict(von_neumann_model(hbar=3.0), obj, probe)
        assert report.bound == pytest.approx(1.5)
        assert report.product_meets_bound

    def test_state_system_guards(self):
        model = von_neumann_model()
        rng = np.random.default_rng(5)
        obj = _object_state(rng)
        with pytest.raises(ValueError, match="single-mode"):
            noise(model, states.product(obj, obj), obj)
        other = from_gaussian(GaussianSpec(1.0, 1.0), hbar=2.0)
        with pytest.raises(ValueError, match="hbar"):
            noise(model, obj, other)


class TestPrecisionEquivalence:
    """A measurement reads exactly iff its noise operator vanishes.

    Tested as an equivalence over linear observables and the moment-state
    family: zero operator forces epsilon = 0 on every state, and a
    non-zero operator admits states with epsilon bounded away from zero.
    The same statement holds for disturbance.
    """

    def test_zero_noise_operator_means_zero_epsilon_everywhere(self):
        rng = np.random.default_rng(201)
        model = noiseless_model()
        assert np.max(np.abs(model.noise_operator.coeffs)) <= 1e-15
        for _ in range(1000):
            assert noise(model, _object_state(rng), _probe_state(rng)) <= 1e-12

    def test_nonzero_noise_operator_is_seen_by_some_state(self):
        rng = np.random.default_rng(202)
        model = von_neumann_model()
        assert np.max(np.abs(model.noise_operator.coeffs)) > 0.5
        found = max(
            noise(model, _object_state(rng), _probe_state(rng))
            for _ in range(1000))
        assert found > 0.1

    def test_zero_disturbance_operator_means_zero_eta_everywhere(self):
        rng = np.random.default_rng(203)
        model = von_neumann_model()
        x = position(model.system, 0)
        d = canonical.heisenberg_apply(model.endpoint, x) - x
        assert np.max(np.abs(d.coeffs)) <= 1e-15
        for _ in range(1000):
            joint = states.product(_object_state(rng), _probe_state(rng))
            assert math.sqrt(states.second_moment(joint, d)) <= 1e-12

    def test_nonzero_disturbance_operator_is_seen_by_some_state(self):
        rng = np.random.default_rng(204)
        model = noiseless_model()
        found = max(
            disturbance(model, _object_state(rng), _probe_state(rng))
            for _ in range(1000))
        assert found > 0.1


class TestRealization:
    def test_factoring_is_exact(self):
        assert realization_residual() <= 1e-12

    def test_swapped_order_misses(self):
        assert realization_residual(swapped=True) > 0.5

    def test_independent_of_scale(self):
        assert realization_residual(noiseless_model(hbar=2.0)) <= 1e-12

    def test_von_neumann_single_step_has_no_order(self):
        model = von_neumann_model()
        residual = realization_residual(model)
        assert residual <= 1e-12
        assert realization_residual(model, swapped=True) == residual

    def test_shear_maps_match_the_grid_convention(self):
        # x_py theta: y -> y + theta x, p_x -> p_x - theta p_y.
        # px_y theta: x -> x - theta y, p_y -> p_y + theta p_x.
        system = ModeSystem(2)
        theta = 0.37
        stretch = measurement.shear_propagation(
            system, grid.ShearStep("x_py", theta)).matrix
        evading = measurement.shear_propagation(
            system, grid.ShearStep("px_y", theta)).matrix
        expected_stretch = np.eye(4)
        expected_stretch[2, 0] = theta
        expected_stretch[1, 3] = -theta
        expected_evading = np.eye(4)
        expected_evading[0, 2] = -theta
        expected_evading[3, 1] = theta
        assert np.max(np.abs(stretch - expected_stretch)) <= 1e-15
        assert np.max(np.abs(evading - expected_evading)) <= 1e-15
        with pytest.raises(ValueError, match="unknown shear"):
            measurement.shear_propagation(system, grid.ShearStep("y_px", 1.0))


class TestLimitSweep:
    def test_noiseless_closed_forms(self):
        model = noiseless_model()
        sigma_ps = [2.0 ** -k for k in range(6)]
        points = limit_sweep(model, sigma_ps)
        for sp, point in zip(sigma_ps, points):
            assert point.report.epsilon <= 1e-12
            assert point.report.eta == pytest.approx(
                math.sqrt(2.0) * sp, abs=1e-12)
            assert point.sigma_x_post == pytest.approx(
                math.sqrt(2.0) / (2.0 * sp), rel=1e-12)

    def test_von_neumann_sits_at_the_bound(self):
        points = limit_sweep(von_neumann_model(), [2.0 ** -k for k in range(6)])
        for point in points:
            assert point.report.product == pytest.approx(0.5, abs=1e-12)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError, match="positive"):
            limit_sweep(von_neumann_model(), [0.5, -1.0])
