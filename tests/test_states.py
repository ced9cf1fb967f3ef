import math

import numpy as np
import pytest
import scipy.special

import helpers
from backaction import cascade, measurement, states
from backaction.canonical import LinearObservable, ModeSystem, momentum, position
from backaction.states import (
    GaussianSpec,
    MomentState,
    PhysicalityError,
    ScalarDistribution,
    born_check,
    expectation,
    from_gaussian,
    observable_distribution,
    product,
    robertson_check,
    sample_outcomes,
    second_moment,
    std_dev,
    variance,
)


class TestGaussianSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianSpec(sigma_x=-1.0, sigma_p=1.0)
        with pytest.raises(ValueError):
            GaussianSpec(sigma_x=1.0, sigma_p=0.0)
        with pytest.raises(ValueError):
            GaussianSpec(sigma_x=1.0, sigma_p=1.0, correlation=1.0)
        with pytest.raises(ValueError):
            GaussianSpec(sigma_x=float("nan"), sigma_p=1.0)

    def test_uncertainty_product(self):
        spec = GaussianSpec(sigma_x=2.0, sigma_p=0.5, correlation=0.6)
        assert spec.uncertainty_product() == pytest.approx(0.8)

    def test_admissibility_depends_on_hbar(self):
        spec = GaussianSpec(sigma_x=1.0, sigma_p=0.5)
        assert spec.admissible(hbar=1.0)
        assert not spec.admissible(hbar=2.0)


class TestFromGaussian:
    def test_blocks(self):
        spec0 = GaussianSpec(sigma_x=1.0, sigma_p=2.0, mean_x=0.5,
                             mean_p=-1.0, correlation=0.3)
        spec1 = GaussianSpec(sigma_x=0.5, sigma_p=1.0)
        state = from_gaussian((spec0, spec1))
        np.testing.assert_array_equal(state.mean, [0.5, -1.0, 0.0, 0.0])
        np.testing.assert_allclose(
            state.cov[:2, :2], [[1.0, 0.6], [0.6, 4.0]], atol=1e-15)
        np.testing.assert_allclose(
            state.cov[2:, 2:], [[0.25, 0.0], [0.0, 1.0]], atol=1e-15)
        assert np.all(state.cov[:2, 2:] == 0)
        assert state.gaussian

    def test_rejects_inadmissible(self):
        with pytest.raises(PhysicalityError):
            from_gaussian(GaussianSpec(sigma_x=0.5, sigma_p=0.5))

    def test_names_the_mode_only_among_several(self):
        bad = GaussianSpec(sigma_x=0.5, sigma_p=0.5)
        with pytest.raises(PhysicalityError, match=r"^sigma_x\*sigma_p"):
            from_gaussian(bad)
        with pytest.raises(PhysicalityError, match=r"^mode 1: sigma_x\*"):
            from_gaussian((GaussianSpec(1.0, 0.5), bad))

    def test_hbar_threads_through(self):
        spec = GaussianSpec(sigma_x=1.0, sigma_p=0.6)
        with pytest.raises(PhysicalityError):
            from_gaussian(spec, hbar=2.0)
        state = from_gaussian(spec, hbar=1.2)
        assert state.system.hbar == 1.2

    def test_spec_count_must_match_system(self):
        with pytest.raises(ValueError, match="labels"):
            from_gaussian(GaussianSpec(1.0, 1.0), labels=("object", "probe"))


class TestMomentState:
    def test_asymmetric_cov_rejected(self):
        cov = np.array([[1.0, 0.5], [0.1, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            MomentState(ModeSystem(1), np.zeros(2), cov)

    def test_symmetry_slack_scales_with_cov(self):
        for scale in (1.0, 1e4):
            slack = 1e-10 * scale
            for gap, ok in ((0.5 * slack, True), (5.0 * slack, False)):
                cov = np.array([[scale, 0.0], [gap, scale]])
                if ok:
                    state = MomentState(ModeSystem(1), np.zeros(2), cov)
                    assert state.cov[0, 1] == state.cov[1, 0] == gap / 2.0
                else:
                    with pytest.raises(ValueError, match="symmetric"):
                        MomentState(ModeSystem(1), np.zeros(2), cov)

    @pytest.mark.parametrize("cov", [
        # (cov + cov.T) / 2 would overflow 2 * 1.44e308 to inf.
        np.diag([1.44e308, 1.0]),
        # cov / 2 + cov.T / 2 would round a subnormal entry.
        np.array([[1.0, 1.1125369292536e-311], [1.1125369292536e-311, 1.0]]),
    ], ids=["huge", "subnormal"])
    def test_symmetric_cov_is_stored_as_given(self, cov):
        state = MomentState(ModeSystem(1), np.zeros(2), cov)
        assert state.cov.tobytes() == cov.tobytes()

    def test_non_finite_cov_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            MomentState(ModeSystem(1), np.zeros(2), np.diag([np.inf, 1.0]))

    def test_physicality_enforced(self):
        with pytest.raises(PhysicalityError):
            MomentState(ModeSystem(1), np.zeros(2), np.diag([0.04, 0.04]))

    def test_physicality_slack_is_relative_at_small_hbar(self):
        # An absolute slack of 1e-10 would exceed hbar/2 = 5e-14 and pass
        # spreads of 1e-20; relative to max(hbar/2, max|cov|) it does not.
        system = ModeSystem(1, hbar=1e-13)
        with pytest.raises(PhysicalityError, match="eigenvalue -5.000e-14"):
            MomentState(system, np.zeros(2), np.diag([1e-40, 1e-40]))
        state = MomentState(system, np.zeros(2), np.diag([5e-14, 5e-14]))
        assert state.cov[0, 0] == 5e-14

    def test_boundary_state_accepted(self):
        state = MomentState(ModeSystem(1), np.zeros(2), np.diag([0.5, 0.5]))
        assert not state.gaussian

    def test_random_admissible_covariances_accepted(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            helpers.random_state(rng)


class TestProduct:
    def test_block_structure_and_labels(self):
        rng = np.random.default_rng(4)
        a = helpers.random_state(rng, labels=("object",))
        b = helpers.random_state(rng, labels=("probe",))
        joint = product(a, b)
        assert joint.system.labels == ("object", "probe")
        np.testing.assert_array_equal(joint.mean[:2], a.mean)
        np.testing.assert_array_equal(joint.mean[2:], b.mean)
        np.testing.assert_array_equal(joint.cov[:2, :2], a.cov)
        np.testing.assert_array_equal(joint.cov[2:, 2:], b.cov)
        assert np.all(joint.cov[:2, 2:] == 0)
        assert joint.gaussian

    def test_hbar_mismatch(self):
        a = from_gaussian(GaussianSpec(1.0, 1.0), hbar=1.0)
        b = from_gaussian(GaussianSpec(1.0, 1.0), hbar=2.0)
        with pytest.raises(ValueError, match="hbar"):
            product(a, b)


class TestMomentQueries:
    def test_closed_forms_with_correlation(self):
        spec = GaussianSpec(sigma_x=1.5, sigma_p=0.8, mean_x=0.7,
                            mean_p=-0.2, correlation=0.4)
        state = from_gaussian(spec)
        system = state.system
        x, p = position(system), momentum(system)
        assert expectation(state, x) == pytest.approx(0.7)
        assert std_dev(state, p) == pytest.approx(0.8)
        combo = LinearObservable(system, [1.0, 1.0])
        expected_var = 1.5 ** 2 + 0.8 ** 2 + 2 * 0.4 * 1.5 * 0.8
        assert variance(state, combo) == pytest.approx(expected_var, rel=1e-14)
        assert second_moment(state, combo) == pytest.approx(
            expected_var + 0.5 ** 2, rel=1e-14)

    def test_offset_enters_second_moment_only(self):
        # Shifting the state's mean moves <A> and <A^2>, never Var(A).
        x = position(ModeSystem(1))
        centred = from_gaussian(GaussianSpec(1.0, 0.5, mean_x=1.0))
        shifted = from_gaussian(GaussianSpec(1.0, 0.5, mean_x=3.0))
        assert expectation(shifted, x) == pytest.approx(3.0)
        assert variance(shifted, x) == variance(centred, x) == pytest.approx(1.0)
        assert second_moment(centred, x) == pytest.approx(2.0)
        assert second_moment(shifted, x) == pytest.approx(10.0)

    def test_overflowing_moments_raise(self):
        state = from_gaussian(GaussianSpec(1.0, 0.5, mean_x=1e308))
        tenfold = LinearObservable(state.system, [10.0, 0.0])
        with np.errstate(over="ignore"):
            with pytest.raises(OverflowError, match="expectation is inf"):
                expectation(state, tenfold)
        # Both terms are finite; their float sum is not.
        state = from_gaussian(GaussianSpec(1.3e154, 0.5, mean_x=1.2e154))
        with pytest.raises(OverflowError, match="second moment is inf"):
            second_moment(state, position(state.system))

    def test_negative_variance_slack_is_relative_at_small_hbar(self):
        # Var(x) = -1e-31 at hbar = 1e-30 is a tenth of the covariance's
        # scale below zero, not rounding debris; an absolute floor of 1,
        # times the 1e-10 slack, would clamp it to 0.  The constructor
        # refuses this covariance, so it is assembled without it.
        system = ModeSystem(1, hbar=1e-30)
        cov = np.array([[-1e-31, 0.0], [0.0, 1e-30]])
        state = states._block_diagonal(system, [(np.zeros(2), cov)], False)
        with pytest.raises(ValueError, match="variance -1.000e-31 < 0"):
            variance(state, position(system))
        debris = np.array([[-1e-41, 0.0], [0.0, 1e-30]])
        state = states._block_diagonal(system, [(np.zeros(2), debris)], False)
        assert variance(state, position(system)) == 0.0


@pytest.mark.parametrize("run", [
    lambda: measurement.heisenberg_verdict(
        measurement.noiseless_model(),
        from_gaussian(GaussianSpec(1e154, 1e154)),
        from_gaussian(GaussianSpec(1.0, 1e154))),
    lambda: cascade.repeatability_deviation(cascade.CascadeScenario(
        measurement.von_neumann_model(), from_gaussian(GaussianSpec(1.0, 1.0)),
        from_gaussian(GaussianSpec(1e154, 1.0)))),
], ids=["noiseless-verdict", "von-neumann-repeatability"])
def test_library_overflow_names_the_variance(run):
    # Outside the CLI's np.errstate numpy only warns; the inf it leaves
    # must stop at the variance, not surface as eta or a deviation.
    with pytest.raises(OverflowError, match="variance is inf"):
        with pytest.warns(RuntimeWarning, match="overflow"):
            run()


class TestRobertson:
    def test_bound_is_hbar_over_two_for_x_p(self):
        state = from_gaussian(GaussianSpec(1.0, 0.5))
        result = robertson_check(
            state, position(state.system), momentum(state.system))
        assert result.bound == pytest.approx(0.5)
        assert result.lhs == pytest.approx(0.5)
        assert result.passed

    def test_holds_on_random_states_and_observables(self):
        rng = np.random.default_rng(77)
        for _ in range(2000):
            state = helpers.random_state(rng)
            a = helpers.random_observable(state.system, rng)
            b = helpers.random_observable(state.system, rng)
            result = robertson_check(state, a, b)
            assert result.passed, (result, state.cov)

    def test_tiny_coefficients_do_not_underflow(self):
        # 1e-200 squares to zero: the variance alone would read 0.
        state = from_gaussian(GaussianSpec(1.0, 0.5))
        tiny = LinearObservable(state.system, [0.0, 1e-200])
        result = robertson_check(state, position(state.system), tiny)
        assert result.passed
        assert result.lhs == pytest.approx(0.5e-200)
        assert result.bound == pytest.approx(0.5e-200)

    def test_slack_is_relative_to_the_bound_at_small_hbar(self):
        # Spreads of 1e-20 at hbar = 1e-13, assembled without the
        # constructor's check; an absolute 1e-12 here would pass them.
        system = ModeSystem(1, hbar=1e-13)
        state = states._block_diagonal(
            system, [(np.zeros(2), np.diag([1e-40, 1e-40]))], gaussian=False)
        result = robertson_check(
            state, position(system), momentum(system))
        assert result.bound == pytest.approx(5e-14)
        assert not result.passed


class TestDistributionAndSampling:
    def test_cdf_reference_points(self):
        dist = ScalarDistribution(mean=1.0, variance=4.0)
        assert dist.cdf(1.0) == pytest.approx(0.5)
        assert dist.cdf(1.0 + 2.0 * 1.959963984540054) == pytest.approx(
            0.975, abs=1e-9)

    def test_cdf_keeps_the_input_shape(self):
        dist = ScalarDistribution(mean=1.0, variance=4.0)
        scalar = dist.cdf(1.0)
        assert type(scalar) is np.float64 and scalar == 0.5
        assert dist.cdf(np.ones((2, 3))).shape == (2, 3)

    @pytest.mark.parametrize("mean, std", [(0.0, 1.0), (-3.7, 0.3), (1e14, 5.0)])
    def test_cdf_matches_ndtr_to_eight_sigma(self, mean, std):
        x = mean + std * np.linspace(-8.0, 8.0, 20001)
        cdf = ScalarDistribution(mean=mean, variance=std ** 2).cdf(x)
        ndtr = scipy.special.ndtr((x - mean) / std)
        assert np.max(np.abs(cdf - ndtr)) <= 4.4e-16
        np.testing.assert_allclose(cdf, ndtr, rtol=2e-14, atol=0.0)

    @pytest.mark.parametrize("alpha", [0.001, 0.01, 0.05, 0.2, 0.9, 0.99,
                                       0.999999])
    def test_kolmogi_matches_scipy(self, alpha):
        assert states._kolmogi(alpha) == pytest.approx(
            scipy.special.kolmogi(alpha), rel=4.4e-16, abs=0.0)

    def test_zero_variance_step(self):
        dist = ScalarDistribution(mean=2.0, variance=0.0)
        assert dist.cdf(1.99) == 0.0
        assert dist.cdf(2.0) == 1.0

    def test_distribution_requires_gaussian_flag(self):
        state = MomentState(ModeSystem(1), np.zeros(2), np.diag([0.5, 0.5]))
        with pytest.raises(ValueError, match="Gaussian"):
            observable_distribution(state, position(state.system))

    def test_sampling_is_deterministic(self):
        dist = ScalarDistribution(mean=0.3, variance=2.0)
        a = sample_outcomes(dist, 1000, seed=42)
        b = sample_outcomes(dist, 1000, seed=42)
        np.testing.assert_array_equal(a, b)
        c = sample_outcomes(dist, 1000, seed=43)
        assert not np.array_equal(a, c)

    def test_sample_moments_converge(self):
        dist = ScalarDistribution(mean=-1.0, variance=0.25)
        samples = sample_outcomes(dist, 200000, seed=9)
        assert np.mean(samples) == pytest.approx(-1.0, abs=0.01)
        assert np.std(samples) == pytest.approx(0.5, abs=0.01)

    def test_born_check_accepts_matching_distribution(self):
        dist = ScalarDistribution(mean=0.0, variance=1.0)
        samples = sample_outcomes(dist, 50000, seed=4)
        result = born_check(samples, dist)
        assert result.passed
        assert result.critical_value == pytest.approx(
            1.6276 / math.sqrt(50000), rel=1e-3)

    def test_born_check_rejects_shifted_distribution(self):
        dist = ScalarDistribution(mean=0.0, variance=1.0)
        samples = sample_outcomes(dist, 50000, seed=4)
        shifted = ScalarDistribution(mean=0.05, variance=1.0)
        assert not born_check(samples, shifted).passed


@pytest.mark.parametrize("model", [measurement.noiseless_model(),
                                   measurement.von_neumann_model()],
                         ids=["noiseless", "von_neumann"])
def test_scalar_path_runs_no_eigenvalue_check(monkeypatch, model):
    # States built from checked blocks are not checked again; the public
    # constructor still checks what it is given.
    obj = from_gaussian(GaussianSpec(1.0, 0.5), labels=("object",))
    probe = from_gaussian(GaussianSpec(0.7, 1.0), labels=("probe",))
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(*args):
        calls.append(args)
        return eigvalsh(*args)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    measurement.heisenberg_verdict(model, obj, probe)
    cascade.repeatability_deviation(cascade.CascadeScenario(model, obj, probe))
    measurement.limit_sweep(model, [2.0 ** -k for k in range(4)])
    cascade.repeatability_sweep(model, [2.0 ** -k for k in range(4)])
    assert len(calls) == 0
    MomentState(ModeSystem(1), np.zeros(2), np.diag([0.5, 0.5]))
    assert len(calls) == 1
