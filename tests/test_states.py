import math

import numpy as np
import pytest

import helpers
from backaction import canonical, states
from backaction.canonical import LinearObservable, ModeSystem, momentum, position
from backaction.states import (
    GaussianSpec,
    MomentState,
    PhysicalityError,
    ScalarDistribution,
    born_check,
    evolve,
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

    def test_physicality_enforced(self):
        with pytest.raises(PhysicalityError):
            MomentState(ModeSystem(1), np.zeros(2), np.diag([0.04, 0.04]))

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


class TestEvolve:
    def test_moment_transform(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            spec0 = helpers.random_admissible_spec(rng)
            spec1 = helpers.random_admissible_spec(rng)
            state = from_gaussian((spec0, spec1))
            h = canonical.QuadraticHamiltonian(
                state.system, helpers.random_symmetric(rng, 4))
            prop = canonical.propagate(h, rng.uniform(-1, 1))
            out = evolve(state, prop)
            s = prop.matrix
            np.testing.assert_allclose(out.mean, s @ state.mean, atol=1e-12)
            np.testing.assert_allclose(out.cov, s @ state.cov @ s.T, atol=1e-12)
            assert out.gaussian

    def test_second_moment_invariant_under_pullback(self):
        # <A^2> on the evolved state equals <(S^T A)^2> on the input state:
        # the Schrodinger and Heisenberg accounts must agree.
        rng = np.random.default_rng(22)
        state = from_gaussian(
            (helpers.random_admissible_spec(rng),
             helpers.random_admissible_spec(rng)))
        system = state.system
        h = canonical.QuadraticHamiltonian(
            system, helpers.random_symmetric(rng, 4))
        prop = canonical.propagate(h, 0.8)
        for _ in range(50):
            obs = helpers.random_observable(system, rng)
            forward = second_moment(evolve(state, prop), obs)
            pulled = second_moment(state, canonical.heisenberg_apply(prop, obs))
            assert forward == pytest.approx(pulled, rel=1e-11, abs=1e-11)


class TestDistributionAndSampling:
    def test_cdf_reference_points(self):
        dist = ScalarDistribution(mean=1.0, variance=4.0)
        assert dist.cdf(1.0) == pytest.approx(0.5)
        assert dist.cdf(1.0 + 2.0 * 1.959963984540054) == pytest.approx(
            0.975, abs=1e-9)
        assert dist.interval_probability(-np.inf, np.inf) == pytest.approx(1.0)

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
