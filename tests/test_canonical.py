import numpy as np
import pytest

import helpers
from backaction import cascade, measurement, states
from backaction.canonical import (
    LinearObservable,
    ModeSystem,
    QuadraticHamiltonian,
    SymplecticPropagation,
    build_quadratic,
    commutator_constant,
    heisenberg_apply,
    momentum,
    position,
    propagate,
)


class TestModeSystem:
    def test_indices_follow_interleaved_order(self):
        system = ModeSystem(3)
        assert [system.position_index(m) for m in range(3)] == [0, 2, 4]
        assert [system.momentum_index(m) for m in range(3)] == [1, 3, 5]

    def test_default_labels(self):
        assert ModeSystem(2).labels == ("mode0", "mode1")

    def test_omega_squares_to_minus_identity(self):
        for n in (1, 2, 3):
            omega = ModeSystem(n).omega()
            np.testing.assert_array_equal(omega @ omega, -np.eye(2 * n))

    def test_omega_blocks(self):
        omega = ModeSystem(2).omega()
        block = np.array([[0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_array_equal(omega[:2, :2], block)
        np.testing.assert_array_equal(omega[2:, 2:], block)
        assert np.all(omega[:2, 2:] == 0) and np.all(omega[2:, :2] == 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ModeSystem(0)
        with pytest.raises(ValueError):
            ModeSystem(2, hbar=-1.0)
        with pytest.raises(ValueError):
            ModeSystem(2, labels=("only-one",))
        with pytest.raises(ValueError):
            ModeSystem(1).position_index(1)

    def test_compatibility_ignores_labels(self):
        a = ModeSystem(2, labels=("object", "probe"))
        b = ModeSystem(2, labels=("s", "t"))
        assert a.compatible(b)
        assert not a.compatible(ModeSystem(2, hbar=2.0))
        assert not a.compatible(ModeSystem(3))


class TestLinearObservable:
    def test_constructors(self):
        system = ModeSystem(2)
        np.testing.assert_array_equal(position(system, 1).coeffs, [0, 0, 1, 0])
        np.testing.assert_array_equal(momentum(system, 0).coeffs, [0, 1, 0, 0])

    def test_arithmetic(self):
        system = ModeSystem(1)
        diff = position(system) - momentum(system)
        np.testing.assert_array_equal(diff.coeffs, [1.0, -1.0])
        with pytest.raises(ValueError, match="systems differ"):
            position(system) - position(ModeSystem(1, hbar=2.0))

    def test_coeffs_are_read_only(self):
        obs = position(ModeSystem(1))
        with pytest.raises(ValueError):
            obs.coeffs[0] = 5.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            LinearObservable(ModeSystem(2), np.ones(2))


class TestCommutator:
    def test_canonical_pairs(self):
        system = ModeSystem(2, hbar=1.0)
        assert commutator_constant(position(system, 0), momentum(system, 0)) == 1.0
        assert commutator_constant(momentum(system, 0), position(system, 0)) == -1.0
        assert commutator_constant(position(system, 0), momentum(system, 1)) == 0.0
        assert commutator_constant(position(system, 0), position(system, 1)) == 0.0

    def test_hbar_scaling(self):
        system = ModeSystem(1, hbar=7.0)
        assert commutator_constant(position(system), momentum(system)) == 7.0

    def test_linearity(self):
        rng = np.random.default_rng(5)
        system = ModeSystem(2)
        omega = system.omega()
        for _ in range(50):
            a = helpers.random_observable(system, rng)
            b = helpers.random_observable(system, rng)
            expected = float(a.coeffs @ omega @ b.coeffs)
            assert commutator_constant(a, b) == pytest.approx(expected, abs=1e-14)


class TestBuildQuadratic:
    def test_off_diagonal_accumulation(self):
        system = ModeSystem(2)
        h = build_quadratic(system, [(1.5, 0, 3)])
        assert h.form[0, 3] == 1.5 and h.form[3, 0] == 1.5
        assert np.count_nonzero(h.form) == 2

    def test_diagonal_doubles(self):
        h = build_quadratic(ModeSystem(1), [(0.5, 1, 1)])
        assert h.form[1, 1] == 1.0

    def test_repeated_terms_add(self):
        h = build_quadratic(ModeSystem(2), [(1.0, 0, 3), (2.0, 3, 0)])
        assert h.form[0, 3] == 3.0 and h.form[3, 0] == 3.0

    def test_unbalanced_ordering_constant_rejected(self):
        # A lone x p term of one mode leaves an i hbar / 2 constant behind.
        with pytest.raises(ValueError, match="ordering constant"):
            build_quadratic(ModeSystem(2), [(1.0, 0, 1)])

    def test_balanced_pair_accepted(self):
        h = build_quadratic(ModeSystem(2), [(1.0, 0, 1), (-1.0, 2, 3)])
        assert h.form[0, 1] == 1.0 and h.form[2, 3] == -1.0

    def test_index_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            build_quadratic(ModeSystem(1), [(1.0, 0, 2)])
        with pytest.raises(ValueError, match="term 0"):
            build_quadratic(ModeSystem(1), [(1.0, 0)])

    def test_exact_symmetry_enforced_on_direct_construction(self):
        form = np.zeros((2, 2))
        form[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticHamiltonian(ModeSystem(1), form)

    def test_one_ulp_asymmetry_rejected(self):
        form = np.array([[1.0, 2.0], [2.0, 3.0]])
        QuadraticHamiltonian(ModeSystem(1), form)
        form[0, 1] += 5e-16  # one ulp at this magnitude
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticHamiltonian(ModeSystem(1), form)


class TestPropagate:
    def test_nilpotent_generator_closed_form(self):
        # The stretch coupling's generator squares to zero, so the
        # exponential truncates: S = I + Omega H exactly.
        system = ModeSystem(2)
        h = build_quadratic(system, [(1.0, 0, 3)])
        generator = h.generator()
        np.testing.assert_array_equal(generator @ generator, np.zeros((4, 4)))
        s = propagate(h, 1.0)
        np.testing.assert_allclose(s.matrix, np.eye(4) + generator, atol=1e-15)

    def test_zero_duration_is_identity(self):
        system = ModeSystem(2)
        h = QuadraticHamiltonian(system, helpers.random_symmetric(
            np.random.default_rng(2), 4))
        np.testing.assert_array_equal(propagate(h, 0.0).matrix, np.eye(4))

    def test_outputs_are_symplectic(self):
        rng = np.random.default_rng(31)
        system = ModeSystem(2)
        omega = system.omega()
        for _ in range(200):
            h = QuadraticHamiltonian(system, helpers.random_symmetric(rng, 4))
            s = propagate(h, rng.uniform(-2.0, 2.0)).matrix
            assert np.linalg.norm(s @ omega @ s.T - omega) <= 1e-12
            assert abs(np.linalg.det(s) - 1.0) <= 1e-12

    def test_duration_additivity(self):
        rng = np.random.default_rng(8)
        system = ModeSystem(1)
        h = QuadraticHamiltonian(system, helpers.random_symmetric(rng, 2))
        s_sum = propagate(h, 0.7).then(propagate(h, 0.5))
        np.testing.assert_allclose(
            s_sum.matrix, propagate(h, 1.2).matrix, atol=1e-13)


class TestHeisenbergApply:
    def test_transpose_rule(self):
        rng = np.random.default_rng(12)
        system = ModeSystem(2)
        for _ in range(50):
            h = QuadraticHamiltonian(system, helpers.random_symmetric(rng, 4))
            s = propagate(h, 0.3)
            obs = helpers.random_observable(system, rng)
            out = heisenberg_apply(s, obs)
            np.testing.assert_allclose(out.coeffs, s.matrix.T @ obs.coeffs,
                                       atol=1e-14)

    def test_commutator_preserved(self):
        # Symplectic maps are canonical: commutators survive evolution.
        rng = np.random.default_rng(13)
        system = ModeSystem(2, hbar=2.0)
        for _ in range(50):
            h = QuadraticHamiltonian(system, helpers.random_symmetric(rng, 4))
            s = propagate(h, rng.uniform(-1, 1))
            a = helpers.random_observable(system, rng)
            b = helpers.random_observable(system, rng)
            before = commutator_constant(a, b)
            after = commutator_constant(
                heisenberg_apply(s, a), heisenberg_apply(s, b))
            assert after == pytest.approx(before, abs=1e-12 * max(1, abs(before)))


class TestComposeAndEmbed:
    def test_then_applies_left_factor_first(self):
        system = ModeSystem(1)
        # stretch x then rotate by 90 degrees differs from the reverse.
        stretch = SymplecticPropagation(system, np.diag([2.0, 0.5]))
        rot = SymplecticPropagation(system, np.array([[0.0, 1.0], [-1.0, 0.0]]))
        np.testing.assert_array_equal(
            stretch.then(rot).matrix, rot.matrix @ stretch.matrix)

    def test_embed_identity_elsewhere(self):
        # On (object, probe1, probe2), the cascade's second window is the
        # two-mode window on object + probe2 and leaves probe1 untouched.
        model = measurement.noiseless_model()
        spec = states.GaussianSpec(1.0, 0.5)
        scenario = cascade.CascadeScenario(
            model, states.from_gaussian(spec), states.from_gaussian(spec))
        _, lifted = cascade._windows(scenario)
        s = model.endpoint.matrix
        np.testing.assert_array_equal(lifted.matrix[2:4, 2:4], np.eye(2))
        assert np.all(lifted.matrix[2:4, [0, 1, 4, 5]] == 0)
        assert np.all(lifted.matrix[[0, 1, 4, 5], 2:4] == 0)
        # the mapped blocks carry the two-mode matrix
        np.testing.assert_array_equal(lifted.matrix[0:2, 0:2], s[0:2, 0:2])
        np.testing.assert_array_equal(lifted.matrix[0:2, 4:6], s[0:2, 2:4])
        np.testing.assert_array_equal(lifted.matrix[4:6, 0:2], s[2:4, 0:2])
        np.testing.assert_array_equal(lifted.matrix[4:6, 4:6], s[2:4, 2:4])

    def test_non_symplectic_rejected(self):
        with pytest.raises(ValueError, match="symplectic"):
            SymplecticPropagation(ModeSystem(1), np.diag([2.0, 2.0]))

    def test_symplectic_guard_scales_with_the_matrix(self):
        # Squeezing 6 x^2 - 6 p_x^2 gives entries near e^12/2; the defect
        # of S Omega S^T is then ~1e-6 of pure rounding.
        s = propagate(build_quadratic(ModeSystem(2), [(6.0, 0, 0),
                                                      (-6.0, 1, 1)]), 1.0)
        assert np.max(np.abs(s.matrix)) > 8e4
        omega = s.system.omega()
        assert np.linalg.norm(s.matrix @ omega @ s.matrix.T - omega) > 1e-9
