import math

import numpy as np
import pytest

import helpers
from backaction import canonical, grid, measurement, states
from backaction.grid import (
    BoundaryMassError,
    GridState,
    NOISELESS_STEPS,
    VON_NEUMANN_STEPS,
    ShearStep,
    apply_steps,
    auto_half_width,
    boundary_mass,
    grid_moments,
    grid_noise_disturbance,
    init_gaussian_grid,
    init_grid,
    output_histogram,
    position_marginal,
    total_variation,
    unit_hbar_spec,
)
from backaction.states import GaussianSpec

N = 256


def _packet(rng):
    return helpers.random_pure_spec(rng)


def _default_grid(rng, **kwargs):
    kwargs.setdefault("nx", N)
    kwargs.setdefault("ny", N)
    return init_gaussian_grid(_packet(rng), _packet(rng), **kwargs)


class TestGridStateValidation:
    def test_sizes_must_be_large_powers_of_two(self):
        amp = np.full((20, 16), 1.0, dtype=complex)
        with pytest.raises(ValueError, match="power of two"):
            GridState(20, 16, 1.0, 1.0, amp)
        with pytest.raises(ValueError, match="power of two"):
            GridState(8, 8, 1.0, 1.0, np.ones((8, 8), dtype=complex))

    def test_box_must_be_positive(self):
        amp = np.full((16, 16), 0.5, dtype=complex)
        with pytest.raises(ValueError, match="lx"):
            GridState(16, 16, -1.0, 1.0, amp)

    def test_shape_must_match(self):
        with pytest.raises(ValueError, match="shape"):
            GridState(16, 32, 1.0, 1.0, np.ones((16, 16), dtype=complex))

    def test_non_finite_rejected(self):
        amp = np.full((16, 16), 0.5, dtype=complex)
        amp[3, 3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            GridState(16, 16, 1.0, 1.0, amp)

    def test_norm_enforced(self):
        amp = np.full((16, 16), 0.3, dtype=complex)
        with pytest.raises(ValueError, match="normalized"):
            GridState(16, 16, 1.0, 1.0, amp)

    def test_amplitudes_read_only(self):
        rng = np.random.default_rng(0)
        state = _default_grid(rng)
        with pytest.raises(ValueError):
            state.amplitudes[0, 0] = 1.0

    def test_axes_span_the_box(self):
        rng = np.random.default_rng(1)
        state = _default_grid(rng)
        assert state.x[0] == -state.lx
        assert state.x[-1] == pytest.approx(state.lx - state.dx)
        assert state.cell_area == pytest.approx(state.dx * state.dy)


class TestInitGrid:
    def test_moments_reproduce_the_specs(self):
        rng = np.random.default_rng(10)
        for _ in range(15):
            ospec, pspec = _packet(rng), _packet(rng)
            state = init_gaussian_grid(ospec, pspec, nx=N, ny=N)
            mean, cov = grid_moments(state)
            for spec, base in ((ospec, 0), (pspec, 2)):
                assert mean[base] == pytest.approx(spec.mean_x, abs=1e-8)
                assert mean[base + 1] == pytest.approx(spec.mean_p, abs=1e-8)
                assert cov[base, base] == pytest.approx(
                    spec.sigma_x ** 2, abs=1e-8)
                assert cov[base + 1, base + 1] == pytest.approx(
                    spec.sigma_p ** 2, abs=1e-8)
                assert cov[base, base + 1] == pytest.approx(
                    spec.correlation * spec.sigma_x * spec.sigma_p, abs=1e-8)
            # No cross-mode correlations in a product state.
            assert np.max(np.abs(cov[:2, 2:])) <= 1e-8

    def test_mixed_spec_rejected(self):
        # sigma_x sigma_p = 1 is a legal moment state but not a single
        # wavefunction packet.
        mixed = GaussianSpec(1.0, 1.0)
        with pytest.raises(ValueError, match="pure"):
            init_gaussian_grid(mixed, GaussianSpec(1.0, 0.5), nx=N, ny=N)

    def test_component_weights_validated(self):
        pure = GaussianSpec(1.0, 0.5)
        with pytest.raises(ValueError, match="at least one"):
            init_grid([], pure, nx=N, ny=N)
        with pytest.raises(ValueError, match="positive"):
            init_grid([(-1.0, pure)], pure, nx=N, ny=N)

    def test_tight_box_trips_the_guard(self):
        pure = GaussianSpec(1.0, 0.5)
        with pytest.raises(BoundaryMassError, match="guard shell"):
            init_gaussian_grid(pure, pure, nx=N, ny=N, half_width=3.0)

    def test_auto_half_width_floor(self):
        # Narrow packets: 1.25 * 8 * (0.4 + 0.4) = 8 < the floor of 10.
        narrow = GaussianSpec(0.4, 1.25)
        assert auto_half_width([narrow], narrow, N) == 10.0

    def test_auto_half_width_tracks_reach(self):
        wide = GaussianSpec(4.0, 0.125, mean_x=6.0)
        pure = GaussianSpec(1.0, 0.5)
        expected = 1.25 * (6.0 + 8.0 * 5.0)
        assert auto_half_width([wide], pure, 4096) == pytest.approx(expected)

    def test_auto_half_width_guards_momentum_content(self):
        # A fast packet inside a wide box needs more points than this.
        fast = GaussianSpec(4.0, 0.125, mean_p=40.0)
        pure = GaussianSpec(1.0, 0.5)
        with pytest.raises(ValueError, match="resolution"):
            auto_half_width([fast], pure, 64)

    def test_superposition_normalizes(self):
        pure = GaussianSpec(0.8, 0.625)
        left = GaussianSpec(0.8, 0.625, mean_x=-3.0)
        right = GaussianSpec(0.8, 0.625, mean_x=3.0)
        state = init_grid([(1.0, left), (1.0, right)], pure, nx=N, ny=N)
        _, masses = position_marginal(state, axis=0)
        assert float(np.sum(masses)) == pytest.approx(1.0, abs=1e-12)
        coords, _ = position_marginal(state, axis=0)
        # Two symmetric humps: mean at zero despite displaced components.
        assert float(np.sum(coords * masses)) == pytest.approx(0.0, abs=1e-8)


class TestUnitConversion:
    def test_unit_hbar_spec_rescales_momenta_only(self):
        spec = GaussianSpec(1.2, 2.5, mean_x=0.4, mean_p=-1.0, correlation=0.3)
        unit = unit_hbar_spec(spec, 2.0)
        assert unit.sigma_x == spec.sigma_x
        assert unit.mean_x == spec.mean_x
        assert unit.correlation == spec.correlation
        assert unit.sigma_p == pytest.approx(1.25)
        assert unit.mean_p == pytest.approx(-0.5)

    def test_identity_at_unit_hbar(self):
        spec = GaussianSpec(1.2, 2.5, correlation=0.3)
        assert unit_hbar_spec(spec, 1.0) == spec


class TestShears:
    def test_norm_preserved(self):
        rng = np.random.default_rng(20)
        state = _default_grid(rng)
        for steps in (VON_NEUMANN_STEPS, NOISELESS_STEPS):
            out = apply_steps(state, steps)
            total = float(np.sum(np.abs(out.amplitudes) ** 2)) * out.cell_area
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_shear_round_trip(self):
        rng = np.random.default_rng(21)
        state = _default_grid(rng)
        for kind in ("x_py", "px_y"):
            back = apply_steps(
                state, (ShearStep(kind, 0.7), ShearStep(kind, -0.7)))
            assert np.max(np.abs(back.amplitudes - state.amplitudes)) <= 1e-12

    def test_moment_transport_matches_symplectic_map(self):
        rng = np.random.default_rng(22)
        cases = (
            (VON_NEUMANN_STEPS, measurement.von_neumann_model()),
            (NOISELESS_STEPS, measurement.noiseless_model()),
        )
        for steps, model in cases:
            s = model.endpoint.matrix
            for _ in range(5):
                state = _default_grid(rng)
                mean0, cov0 = grid_moments(state)
                mean1, cov1 = grid_moments(apply_steps(state, steps))
                assert np.max(np.abs(mean1 - s @ mean0)) <= 1e-8
                assert np.max(np.abs(cov1 - s @ cov0 @ s.T)) <= 1e-8

    def test_wrap_guard_refuses_huge_shears(self):
        rng = np.random.default_rng(23)
        state = _default_grid(rng)
        with pytest.raises(BoundaryMassError, match="translate"):
            apply_steps(state, (ShearStep("x_py", 50.0),))

    def test_unknown_kind_rejected(self):
        rng = np.random.default_rng(24)
        state = _default_grid(rng)
        with pytest.raises(ValueError, match="unknown shear"):
            apply_steps(state, (ShearStep("y_px", 1.0),))

    def test_boundary_mass_small_for_contained_packet(self):
        rng = np.random.default_rng(25)
        state = _default_grid(rng)
        assert boundary_mass(state) <= 1e-10


def _flat_grid(nx, ny, lx, ly):
    amp = np.full((nx, ny), 1.0 / math.sqrt(4.0 * lx * ly), dtype=complex)
    return GridState(nx, ny, lx, ly, amp)


def _product_grid(ospec, pspec, nx, ny, lx, ly):
    """Product packet on a box whose axes differ in size and extent."""
    box = _flat_grid(nx, ny, lx, ly)
    amp = np.outer(grid._pure_packet(box.x, ospec),
                   grid._pure_packet(box.y, pspec))
    amp /= math.sqrt(float(np.sum(np.abs(amp) ** 2)) * box.cell_area)
    return GridState(nx, ny, lx, ly, amp)


class TestStackedEngine:
    @pytest.mark.parametrize("shape", [
        (64, 64, 5.0, 5.0), (64, 128, 7.5, 3.0), (128, 32, 2.0, 9.0),
        (256, 512, 12.0, 20.0)])
    @pytest.mark.parametrize("theta", [1.0, 0.37, -2.5])
    def test_factored_ramp_matches_direct_exp(self, shape, theta):
        box = _flat_grid(*shape)
        axis, ramp = grid._shear_ramp(box, ShearStep("x_py", theta))
        direct = np.exp(-1j * theta * np.outer(box.x, box.ky))
        assert axis == -1
        assert np.max(np.abs(ramp - direct)) <= 1e-12
        axis, ramp = grid._shear_ramp(box, ShearStep("px_y", theta))
        direct = np.exp(1j * theta * np.outer(box.kx, box.y))
        assert axis == -2
        assert np.max(np.abs(ramp - direct)) <= 1e-12

    def test_input_amplitudes_untouched(self):
        rng = np.random.default_rng(50)
        state = _default_grid(rng)
        before = state.amplitudes.tobytes()
        edges = np.linspace(-state.lx, state.lx, 65)
        for steps in (VON_NEUMANN_STEPS, NOISELESS_STEPS):
            grid_noise_disturbance(state, steps)
            output_histogram(state, steps, edges)
            apply_steps(state, steps)
        grid_moments(state)
        assert state.amplitudes.tobytes() == before
        assert not state.amplitudes.flags.writeable

    @pytest.mark.parametrize("steps, message", [
        ((ShearStep("px_y", 1.0), ShearStep("x_py", 50.0)),
         "shear x_py theta=50.0 would translate"),
        ((ShearStep("x_py", 2.0), ShearStep("px_y", 1.0)),
         "after shear x_py theta=2.0: boundary mass"),
        ((ShearStep("px_y", 1.0), ShearStep("x_py", 2.0)),
         "after shear x_py theta=2.0: boundary mass"),
    ])
    def test_guards_trip_at_the_same_step_with_the_stack(self, steps,
                                                          message):
        # A box of half-width 10 holds the packets but not a shear that
        # pushes the pointer by twice the object's position.
        state = init_gaussian_grid(GaussianSpec(1.0, 0.5),
                                   GaussianSpec(0.5, 1.0),
                                   nx=N, ny=N, half_width=10.0)
        with pytest.raises(BoundaryMassError) as alone:
            apply_steps(state, steps)
        with pytest.raises(BoundaryMassError) as stacked:
            grid_noise_disturbance(state, steps)
        assert str(stacked.value) == str(alone.value)
        assert message in str(stacked.value)

    def test_unknown_kind_rejected_with_the_stack(self):
        rng = np.random.default_rng(51)
        state = _default_grid(rng)
        with pytest.raises(ValueError, match="unknown shear"):
            grid_noise_disturbance(state, (ShearStep("y_px", 1.0),))

    def test_non_square_grid_matches_moment_route(self):
        ospec = GaussianSpec(0.9, 0.5 / 0.9, mean_x=0.4, mean_p=-0.3)
        pspec = GaussianSpec(0.7, 0.5 / (0.7 * math.sqrt(1.0 - 0.09)),
                             mean_x=-0.2, mean_p=0.5, correlation=0.3)
        state = _product_grid(ospec, pspec, 256, 128, 12.0, 9.0)
        mean, cov = grid_moments(state)
        for spec, base in ((ospec, 0), (pspec, 2)):
            assert mean[base] == pytest.approx(spec.mean_x, abs=1e-10)
            assert mean[base + 1] == pytest.approx(spec.mean_p, abs=1e-10)
            assert cov[base, base] == pytest.approx(spec.sigma_x ** 2,
                                                    abs=1e-10)
            assert cov[base + 1, base + 1] == pytest.approx(
                spec.sigma_p ** 2, abs=1e-10)
        for steps, model in ((VON_NEUMANN_STEPS,
                              measurement.von_neumann_model()),
                             (NOISELESS_STEPS, measurement.noiseless_model())):
            eps_g, eta_g = grid_noise_disturbance(state, steps)
            eps_m, eta_m = TestNoiseDisturbanceRoutes._moment_route(
                model, ospec, pspec)
            assert eps_g == pytest.approx(eps_m, abs=1e-9)
            assert eta_g == pytest.approx(eta_m, abs=1e-9)


class TestNoiseDisturbanceRoutes:
    @staticmethod
    def _moment_route(model, ospec, pspec):
        joint = states.product(
            states.from_gaussian(ospec, labels=("object",)),
            states.from_gaussian(pspec, labels=("probe",)))
        return (measurement.joint_noise(model, joint),
                measurement.joint_disturbance(model, joint))

    def test_von_neumann_agreement(self):
        rng = np.random.default_rng(30)
        model = measurement.von_neumann_model()
        for _ in range(8):
            ospec, pspec = _packet(rng), _packet(rng)
            state = init_gaussian_grid(ospec, pspec, nx=N, ny=N)
            eps_g, eta_g = grid_noise_disturbance(state, VON_NEUMANN_STEPS)
            eps_m, eta_m = self._moment_route(model, ospec, pspec)
            assert eps_g == pytest.approx(eps_m, abs=1e-8)
            assert eta_g == pytest.approx(eta_m, abs=1e-8)

    def test_noiseless_agreement(self):
        rng = np.random.default_rng(31)
        model = measurement.noiseless_model()
        for _ in range(8):
            ospec, pspec = _packet(rng), _packet(rng)
            state = init_gaussian_grid(ospec, pspec, nx=N, ny=N)
            eps_g, eta_g = grid_noise_disturbance(state, NOISELESS_STEPS)
            eps_m, eta_m = self._moment_route(model, ospec, pspec)
            assert eps_g <= 1e-10
            assert eps_m <= 1e-12
            assert eta_g == pytest.approx(eta_m, abs=1e-8)

    def test_noiseless_epsilon_vanishes_for_superpositions(self):
        # The zero-noise statement is operator-level: it survives states the
        # moment engine cannot even represent as a single Gaussian.
        pure = GaussianSpec(0.8, 0.625)
        left = GaussianSpec(0.8, 0.625, mean_x=-2.5)
        right = GaussianSpec(0.8, 0.625, mean_x=2.5, mean_p=0.5)
        state = init_grid([(0.8, left), (0.6, right)], pure, nx=N, ny=N)
        eps, _ = grid_noise_disturbance(state, NOISELESS_STEPS)
        assert eps <= 1e-8

    def test_superposition_moments_are_physical(self):
        pure = GaussianSpec(0.8, 0.625)
        left = GaussianSpec(0.8, 0.625, mean_x=-2.5)
        right = GaussianSpec(0.8, 0.625, mean_x=2.5)
        state = init_grid([(1.0, left), (1.0, right)], pure, nx=N, ny=N)
        mean, cov = grid_moments(state)
        system = canonical.ModeSystem(2, labels=("object", "probe"))
        moment = states.MomentState(system, mean, cov)
        # Bimodal x: variance far above the single-packet value.
        assert moment.cov[0, 0] > 2.5 ** 2

    def test_eta_rescales_with_hbar(self):
        # Moment engine at hbar = 2 against the unit-hbar grid: epsilon is a
        # position and passes through, eta picks up one factor of hbar.
        hbar = 2.0
        ospec = GaussianSpec(1.0, 1.0, mean_x=0.3, mean_p=0.7)
        pspec = GaussianSpec(0.9, hbar / 1.8, mean_x=-0.2)
        model = measurement.noiseless_model(hbar=hbar)
        joint = states.product(
            states.from_gaussian(ospec, hbar=hbar, labels=("object",)),
            states.from_gaussian(pspec, hbar=hbar, labels=("probe",)))
        eta_m = measurement.joint_disturbance(model, joint)
        state = init_gaussian_grid(
            unit_hbar_spec(ospec, hbar), unit_hbar_spec(pspec, hbar),
            nx=N, ny=N)
        eps_g, eta_g = grid_noise_disturbance(state, NOISELESS_STEPS)
        assert eps_g <= 1e-10
        assert hbar * eta_g == pytest.approx(eta_m, abs=1e-8)


class TestHistogram:
    def test_noiseless_readout_reproduces_position_marginal(self):
        pure = GaussianSpec(0.8, 0.625)
        left = GaussianSpec(0.8, 0.625, mean_x=-2.5)
        right = GaussianSpec(0.8, 0.625, mean_x=2.5)
        state = init_grid([(1.0, left), (0.7, right)], pure, nx=N, ny=N)
        edges = np.linspace(-state.lx, state.lx, 129)
        hist_out = output_histogram(state, NOISELESS_STEPS, edges)
        coords, masses = position_marginal(state, axis=0)
        hist_ref, _ = np.histogram(coords, bins=edges, weights=masses)
        assert total_variation(hist_out, hist_ref) <= 1e-3

    def test_von_neumann_readout_is_blurred_instead(self):
        # A pointer wider than the bin spacing smears the readout: the same
        # comparison now fails by a visible margin.
        sharp = GaussianSpec(0.6, 0.5 / 0.6)
        wide_pointer = GaussianSpec(1.5, 0.5 / 1.5)
        state = init_gaussian_grid(sharp, wide_pointer, nx=N, ny=N)
        edges = np.linspace(-state.lx, state.lx, 129)
        hist_out = output_histogram(state, VON_NEUMANN_STEPS, edges)
        coords, masses = position_marginal(state, axis=0)
        hist_ref, _ = np.histogram(coords, bins=edges, weights=masses)
        assert total_variation(hist_out, hist_ref) > 0.1

    def test_marginal_masses_sum_to_one(self):
        rng = np.random.default_rng(40)
        state = _default_grid(rng)
        for axis in (0, 1):
            _, masses = position_marginal(state, axis=axis)
            assert float(np.sum(masses)) == pytest.approx(1.0, abs=1e-12)

    def test_marginal_axis_validated(self):
        rng = np.random.default_rng(41)
        state = _default_grid(rng)
        with pytest.raises(ValueError, match="axis"):
            position_marginal(state, axis=2)

    def test_total_variation_basics(self):
        p = np.array([0.5, 0.5, 0.0])
        q = np.array([0.0, 0.5, 0.5])
        assert total_variation(p, p) == 0.0
        assert total_variation(p, q) == pytest.approx(0.5)
        with pytest.raises(ValueError, match="shapes"):
            total_variation(p, np.array([1.0, 0.0]))
