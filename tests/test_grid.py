import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

import helpers
from backaction import canonical, cli, grid, measurement, scenarios, states
from backaction.grid import (
    BoundaryMassError,
    GridState,
    NOISELESS_STEPS,
    VON_NEUMANN_STEPS,
    ShearStep,
    apply_steps,
    auto_half_width,
    grid_moments,
    grid_noise_disturbance,
    init_gaussian_grid,
    init_grid,
    output_histogram,
    position_marginal,
    total_variation,
    unit_hbar_spec,
    window_pass,
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
        with pytest.raises(ValueError, match="power of two"):
            GridState(1.0, np.full((20, 16), 1.0, dtype=complex))
        with pytest.raises(ValueError, match="power of two"):
            GridState(1.0, np.ones((8, 8), dtype=complex))
        # The size is the array's shape, which must be 2-D.
        with pytest.raises(ValueError, match="2-D"):
            GridState(1.0, np.full(256, 0.5, dtype=complex))

    def test_box_must_be_positive(self):
        amp = np.full((16, 16), 0.5, dtype=complex)
        with pytest.raises(ValueError, match="lx"):
            GridState(-1.0, amp)

    def test_non_finite_rejected(self):
        amp = np.full((16, 16), 0.5, dtype=complex)
        amp[3, 3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            GridState(1.0, amp)

    def test_norm_enforced(self):
        amp = np.full((16, 16), 0.3, dtype=complex)
        with pytest.raises(ValueError, match="normalized"):
            GridState(1.0, amp)

    def test_amplitudes_kept_without_a_copy(self):
        amp = np.full((16, 16), 0.5, dtype=complex)
        state = GridState(1.0, amp)
        assert np.shares_memory(state.amplitudes, amp)
        assert not amp.flags.writeable
        state = GridState(1.0, np.full((16, 16), 0.5))
        assert state.amplitudes.dtype == complex

    def test_rows_are_made_contiguous(self):
        # Row sums read each row as floats, so a transposed array is copied.
        amp = np.full((16, 32), 0.5, dtype=complex)
        state = GridState(1.0, amp.T)
        assert state.amplitudes.strides[1] == state.amplitudes.itemsize
        assert state.amplitudes.tobytes() == amp.T.tobytes()

    def test_amplitudes_read_only(self):
        rng = np.random.default_rng(0)
        state = _default_grid(rng)
        state = GridState(state.lx, helpers.amplitudes(state))
        with pytest.raises(ValueError):
            state.amplitudes[0, 0] = 1.0

    @pytest.mark.parametrize("shape", [(N, N), (N, 2 * N)])
    @pytest.mark.parametrize("steps", [(), NOISELESS_STEPS, VON_NEUMANN_STEPS],
                             ids=["init_grid", "noiseless", "von-neumann"])
    def test_kept_density_figures_are_a_fresh_density_read_only(self, shape,
                                                                steps):
        # A sheared state keeps the figures of the density its norm check
        # built, to the bit.  init_grid's product state takes them from its
        # 1-D factors, within helpers.PRODUCT_FIGURES of each figure.
        rng = np.random.default_rng(2)
        state = _default_grid(rng, nx=shape[0], ny=shape[1])
        if steps:
            state = apply_steps(state, steps)
        density = grid._density(state.amplitudes if steps else
                                helpers.amplitudes(state), state.cell_area)
        kept = (*state.marginals, state.shell_mass)
        fresh = (density.sum(axis=1), density.sum(axis=0),
                 grid._shell_mass(density))
        for got, want in zip(kept, fresh):
            if steps:
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            else:
                assert np.all(np.abs(got - want)
                              <= helpers.PRODUCT_FIGURES * want)
        for axis, masses in enumerate(state.marginals):
            assert position_marginal(state, axis)[1] is masses
            with pytest.raises(ValueError, match="read-only"):
                masses[0] = 1.0
        with pytest.raises(AttributeError):
            state.shell_mass = 0.0

    def test_axes_span_the_box(self):
        # Both axes span [-lx, lx); each one's size is the array's.
        rng = np.random.default_rng(1)
        state = _default_grid(rng, ny=2 * N)
        assert ((state.nx, state.ny) == helpers.amplitudes(state).shape
                == (N, 2 * N))
        assert state.x[0] == state.y[0] == -state.lx
        assert state.x[-1] == pytest.approx(state.lx - state.dx)
        assert state.y[-1] == pytest.approx(state.lx - state.dy)
        assert state.dx == 2.0 * state.dy
        assert state.cell_area == pytest.approx(state.dx * state.dy)
        # Computed once: every read returns the same read-only array.
        for name in ("x", "y", "kx", "ky"):
            array = getattr(state, name)
            assert getattr(state, name) is array
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
            with pytest.raises(AttributeError):
                setattr(state, name, array.copy())

    @pytest.mark.parametrize("shape", [(16, 16), (128, 256), (512, 512)])
    @pytest.mark.parametrize("lx", [3.0, 10.0, 14.75])
    def test_axes_are_the_box_formulas_to_the_bit(self, shape, lx):
        state = GridState(lx, np.full(shape, 0.5 / lx, dtype=complex))
        for n, d, coords, k in zip(shape, (state.dx, state.dy),
                                   (state.x, state.y), (state.kx, state.ky)):
            assert d == 2.0 * lx / n
            assert coords.tobytes() == (-lx + d * np.arange(n)).tobytes()
            assert k.tobytes() == (
                2.0 * math.pi * np.fft.fftfreq(n, d)).tobytes()
        assert state.cell_area == state.dx * state.dy


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
        with pytest.raises(ValueError, match="pure states: the object has"):
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

    def test_explicit_box_guards_momentum_content(self):
        # A given box meets the ceiling auto_half_width applies to the box
        # it picks: 64 points over half-width 10 resolve k up to 10.05,
        # and the packets need 40 + 8 (0.5 + 0.5) = 48.
        fast = GaussianSpec(1.0, 0.5, mean_p=40.0)
        pure = GaussianSpec(1.0, 0.5)
        with pytest.raises(ValueError, match="64 points cannot hold"):
            init_gaussian_grid(fast, pure, nx=64, ny=64, half_width=10.0)

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

    @pytest.mark.parametrize("hbar", [1e-30, 2.0, 1e30])
    def test_every_field_rescaled_or_kept(self, hbar):
        spec = GaussianSpec(1.2, 2.5, mean_x=0.4, mean_p=-1.0, correlation=0.3)
        unit = unit_hbar_spec(spec, hbar)
        assert astuple(unit) == (1.2, 2.5 / hbar, 0.4, -1.0 / hbar, 0.3)


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
            assert np.max(np.abs(back.amplitudes - helpers.amplitudes(state))
                          ) <= 1e-12

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
        assert state.shell_mass <= 1e-10


def _flat_grid(nx, ny, lx):
    amp = np.full((nx, ny), 1.0 / (2.0 * lx), dtype=complex)
    return GridState(lx, amp)


def _product_grid(ospec, pspec, nx, ny, lx):
    """Product packet on a square box whose axes differ in size."""
    box = _flat_grid(nx, ny, lx)
    amp = np.outer(grid._pure_packet(box.x, ospec, "object"),
                   grid._pure_packet(box.y, pspec, "probe"))
    amp /= math.sqrt(float(np.sum(np.abs(amp) ** 2)) * box.cell_area)
    return GridState(lx, amp)


class TestStackedEngine:
    @pytest.mark.parametrize("shape", [
        (64, 64, 5.0), (64, 128, 7.5), (128, 32, 2.0), (256, 512, 20.0),
        # nx = 16: each half of k_x holds two blocks of rows.
        (16, 16, 3.0), (16, 64, 3.0)])
    @pytest.mark.parametrize("theta", [1.0, 0.37, -2.5])
    def test_factored_ramp_matches_direct_exp(self, shape, theta):
        box = _flat_grid(*shape)
        axis, ramp = self._assembled(box, ShearStep("x_py", theta))
        direct = np.exp(-1j * theta * np.outer(box.x, box.ky))
        assert axis == -1
        assert np.max(np.abs(ramp - direct)) <= 1e-12
        axis, ramp = self._assembled(box, ShearStep("px_y", theta))
        direct = np.exp(1j * theta * np.outer(box.kx, box.y))
        assert axis == -2
        assert np.max(np.abs(ramp - direct)) <= 1e-12

    @staticmethod
    def _assembled(box, step):
        """(FFT axis, the ramp joined from the row blocks the shear
        multiplies)."""
        axis, coarse, fine = grid._shear_ramp(box, step)
        return axis, np.concatenate([part * fine for part in coarse])

    def test_input_amplitudes_untouched(self):
        rng = np.random.default_rng(50)
        state = _default_grid(rng)
        before = helpers.amplitudes(state).tobytes()
        edges = np.linspace(-state.lx, state.lx, 65)
        for steps in (VON_NEUMANN_STEPS, NOISELESS_STEPS):
            grid_noise_disturbance(state, steps)
            output_histogram(state, steps, edges)
            apply_steps(state, steps)
        grid_moments(state)
        assert helpers.amplitudes(state).tobytes() == before
        assert not any(factor.flags.writeable for factor in state.factors)

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
        state = _product_grid(ospec, pspec, 256, 128, 12.0)
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


_PURE = GaussianSpec(0.8, 0.625)
_NARROW = [(1.0, GaussianSpec(0.65, 0.5 / 0.65, mean_x=0.25, mean_p=-0.3))]
_OBJECTS = {
    "one-packet": [(1.0, GaussianSpec(0.8, 0.625, mean_x=0.5, mean_p=-0.3))],
    "two-packets": [(1.0, GaussianSpec(0.8, 0.625, mean_x=-2.5)),
                    (0.7, GaussianSpec(0.8, 0.625, mean_x=2.5))],
}


class TestWindowPass:
    @pytest.mark.parametrize("steps", [NOISELESS_STEPS, VON_NEUMANN_STEPS],
                             ids=["noiseless", "von-neumann"])
    @pytest.mark.parametrize("obj", sorted(_OBJECTS))
    def test_readout_and_figures_match_the_references(self, steps, obj):
        state = init_grid(_OBJECTS[obj], _PURE, nx=N, ny=N)
        edges = np.linspace(-state.lx, state.lx, 129)
        epsilon, eta, readout = window_pass(state, steps)[:3]
        hist, _ = np.histogram(state.y, bins=edges, weights=readout)
        reference = output_histogram(state, steps, edges)
        assert hist.tobytes() == reference.tobytes()
        assert grid_noise_disturbance(state, steps) == (epsilon, eta)

    @pytest.mark.parametrize("steps, n, obj, probe", [
        (NOISELESS_STEPS, N, _OBJECTS["two-packets"], _PURE),
        (VON_NEUMANN_STEPS, N, _OBJECTS["two-packets"], _PURE),
        (NOISELESS_STEPS[::-1], N, _OBJECTS["two-packets"], _PURE),
        (NOISELESS_STEPS, 512, _NARROW,
         GaussianSpec(1.25, 0.4, mean_x=-0.75, mean_p=0.2)),
        (NOISELESS_STEPS[::-1], 512, _NARROW,
         GaussianSpec(0.6, 0.5 / 0.6, mean_x=0.5, mean_p=0.2)),
    ], ids=["noiseless", "von-neumann", "reversed-noiseless", "noiseless-512",
            "reversed-noiseless-512"])
    def test_diagnostics_match_the_sheared_states(self, steps, n, obj, probe):
        # The largest shell mass over the steps is the boundary mass of
        # some prefix of the shears, and the norm drift is U psi's, summed
        # as GridState sums it.  The two shell sums run over densities in
        # different memory layouts: on the 512^2 cases they differ by
        # 1.4e-16 and 1.8e-16 of the mass.  Over 360 seeded draws of one-
        # and two-packet objects at 256^2 and 512^2, on these three step
        # lists, 16 differed, by at most 2.1e-16.
        state = init_grid(obj, probe, nx=n, ny=n)
        passed = window_pass(state, steps)
        sheared = [apply_steps(state, steps[:k])
                   for k in range(1, len(steps) + 1)]
        worst = max(s.shell_mass for s in sheared)
        assert abs(passed.boundary_mass_max - worst) <= (
            4 * np.finfo(float).eps * worst)
        assert passed.boundary_mass_max <= grid.BOUNDARY_THRESHOLD
        out = sheared[-1].amplitudes
        norm = math.sqrt(grid._sq_norm(out) * state.cell_area)
        assert passed.norm_drift == abs(norm - 1.0) <= 1e-12


class TestFactoredStates:
    @pytest.mark.parametrize("shape", [(N, N), (N // 2, N)])
    @pytest.mark.parametrize("obj", sorted(_OBJECTS))
    def test_amplitudes_are_the_outer_product_of_read_only_factors(
            self, shape, obj):
        state = init_grid(_OBJECTS[obj], _PURE, nx=shape[0], ny=shape[1])
        phi, xi = state.factors
        assert (phi.shape, xi.shape) == ((shape[0],), (shape[1],))
        # A product state keeps its factors and no amplitudes.
        assert state.amplitudes is None
        for factor in (phi, xi):
            with pytest.raises(ValueError, match="read-only"):
                factor[0] = 1.0
        # Only init_grid's own state is a product it can vouch for.
        plain = GridState(state.lx, np.outer(phi, xi))
        assert plain.factors is None
        assert plain.amplitudes.tobytes() == np.outer(phi, xi).tobytes()
        assert apply_steps(state, NOISELESS_STEPS).factors is None
        with pytest.raises(AttributeError):
            state.factors = None

    @pytest.mark.parametrize("factored", [True, False],
                             ids=["factored", "plain"])
    def test_empty_window_is_refused(self, factored):
        state = init_grid(_OBJECTS["two-packets"], _PURE, nx=N, ny=N // 2)
        if not factored:
            state = GridState(state.lx, helpers.amplitudes(state))
        edges = np.linspace(-state.lx, state.lx, 65)
        messages = []
        for call in (window_pass, grid_noise_disturbance, apply_steps,
                     lambda s, steps: output_histogram(s, steps, edges)):
            with pytest.raises(ValueError) as refused:
                call(state, ())
            messages.append(str(refused.value))
        assert messages == ["a window needs at least one shear step"] * 4


def _gram_moments(state):
    """``grid_moments`` from one whole (5, nx, ny) stack: its reference."""
    raw = helpers.amplitudes(state)
    fields = np.stack([raw, state.x[:, None] * raw,
                       grid._spectral_p(raw, state.kx[:, None], axis=0),
                       state.y * raw, grid._spectral_p(raw, state.ky, axis=1)])
    flat = fields.view(float).reshape(5, -1)
    gram = flat @ flat.T
    gram = 0.5 * (gram + gram.T) * state.cell_area
    mean = gram[0, 1:]
    return mean, gram[1:, 1:] - (2.0 - gram[0, 0]) * np.outer(mean, mean)


class TestGridMoments:
    @pytest.mark.parametrize("name", ["pure", "correlated", "bimodal",
                                      "256x512"])
    def test_row_blocks_match_the_whole_stack(self, name):
        correlated = GaussianSpec(0.9, 0.5 / (0.9 * math.sqrt(1.0 - 0.16)),
                                  mean_x=0.4, mean_p=-0.3, correlation=0.4)
        state = {
            "pure": lambda: init_grid([(1.0, _PURE)], _PURE, nx=N, ny=N),
            "correlated": lambda: init_grid([(1.0, correlated)], _PURE,
                                            nx=N, ny=N),
            "bimodal": lambda: init_grid(_OBJECTS["two-packets"], _PURE,
                                         nx=N, ny=N),
            "256x512": lambda: init_grid(_OBJECTS["one-packet"], correlated,
                                         nx=256, ny=512),
        }[name]()
        # The product state's moments come from its 1-D factors, its plain
        # twin's from row blocks of its amplitudes.
        ref_mean, ref_cov = _gram_moments(state)
        scale = max(1.0, np.max(np.abs(ref_mean)), np.max(np.abs(ref_cov)))
        for route in (state, GridState(state.lx, helpers.amplitudes(state))):
            mean, cov = grid_moments(route)
            assert np.max(np.abs(mean - ref_mean)) <= 1e-14 * scale
            assert np.max(np.abs(cov - ref_cov)) <= 1e-14 * scale


def _explicit_eta(state, steps):
    """eta with p_x psi formed in position space and then sheared whole:
    the path ``window_pass`` shortens when the first shear runs along x."""
    raw, kx = helpers.amplitudes(state), state.kx[:, None]
    shears = [grid._shear_ramp(state, step) for step in steps]
    u_psi = grid._shear_field(raw.copy(), shears)
    u_px_psi = grid._shear_field(grid._spectral_p(raw, kx, axis=0), shears)
    spectrum = np.fft.fft(u_psi, axis=0) * kx - np.fft.fft(u_px_psi, axis=0)
    return math.sqrt(grid._sq_norm(spectrum) / state.nx * state.cell_area)


def _marginal_histogram(state, steps, edges):
    """``output_histogram`` as the y marginal of ``apply_steps``: its
    reference, and its definition before the readout was shared."""
    coords, masses = position_marginal(apply_steps(state, steps), axis=1)
    return np.histogram(coords, bins=edges, weights=masses)[0]


_STEPS = {"noiseless": NOISELESS_STEPS, "von-neumann": VON_NEUMANN_STEPS,
          "reversed": NOISELESS_STEPS[::-1]}


class TestPaddedLayout:
    @pytest.mark.parametrize("shape", [(N, N), (N, 2 * N), (2 * N, N)])
    @pytest.mark.parametrize("obj", sorted(_OBJECTS))
    def test_compact_and_padded_states_agree_to_the_bit(self, shape, obj):
        nx, ny = shape
        padded = apply_steps(init_grid(_OBJECTS[obj], _PURE, nx=nx, ny=ny),
                             NOISELESS_STEPS)
        compact = GridState(padded.lx, padded.amplitudes.copy())
        assert padded.amplitudes.strides[0] == 16 * (ny + 1)
        assert compact.amplitudes.strides[0] == 16 * ny
        for steps in (NOISELESS_STEPS, VON_NEUMANN_STEPS):
            got = window_pass(padded, steps)
            want = window_pass(compact, steps)
            for name, a, b in zip(want._fields, want, got):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name
            assert (apply_steps(padded, steps).amplitudes.tobytes()
                    == apply_steps(compact, steps).amplitudes.tobytes())
        for a, b in zip(grid_moments(compact), grid_moments(padded)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("theta", [1.0, 0.37, -1.3])
    @pytest.mark.parametrize("x_first", [True, False],
                             ids=["px_y-first", "x_py-first"])
    def test_reused_spectrum_matches_the_explicit_path(self, theta, x_first):
        steps = (ShearStep("px_y", theta), ShearStep("x_py", theta))
        steps = steps if x_first else steps[::-1]
        state = init_grid(_OBJECTS["one-packet"], _PURE, nx=N, ny=N)
        eta, reference = window_pass(state, steps).eta, _explicit_eta(
            state, steps)
        assert abs(eta - reference) <= 1e-14 * max(1.0, reference)

    def test_sheared_rows_are_not_a_power_of_two_apart(self):
        state = init_grid(_OBJECTS["two-packets"], _PURE, nx=N, ny=N)
        out = apply_steps(state, NOISELESS_STEPS).amplitudes
        stride = out.strides[0] // out.itemsize
        assert stride > out.shape[1] and stride & (stride - 1)

    @pytest.mark.parametrize("shape", [(N, N), (N, 2 * N), (2 * N, N)])
    @pytest.mark.parametrize("obj", sorted(_OBJECTS))
    def test_histogram_is_the_marginal_of_the_sheared_state(self, shape, obj):
        nx, ny = shape
        state = init_grid(_OBJECTS[obj], _PURE, nx=nx, ny=ny)
        edges = np.linspace(-state.lx, state.lx, 129)
        for steps in _STEPS.values():
            assert (output_histogram(state, steps, edges).tobytes()
                    == _marginal_histogram(state, steps, edges).tobytes())
            whole = apply_steps(state, steps).amplitudes.base
            assert whole.shape == (nx, ny + 1)
            assert np.all(whole[:, ny] == 0)

    @pytest.mark.parametrize("kind", sorted(grid.SHEARS))
    @pytest.mark.parametrize("shape", [(N, 2 * N), (2 * N, N)])
    def test_row_slabs_multiply_the_assembled_ramp(self, kind, shape):
        state = init_grid(_OBJECTS["two-packets"], _PURE, nx=shape[0],
                          ny=shape[1])
        step = ShearStep(kind, 0.37)
        axis, ramp = TestStackedEngine._assembled(state, step)
        raw = helpers.amplitudes(state)
        want = np.fft.ifft(np.fft.fft(raw, axis=axis) * ramp, axis=axis)
        got = grid._shear_field(grid._field(raw),
                                [grid._shear_ramp(state, step)])
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("steps, message", [
        ((ShearStep("px_y", 1.0), ShearStep("x_py", 50.0)),
         "would translate"),
        ((ShearStep("x_py", 2.0), ShearStep("px_y", 1.0)), "boundary mass"),
    ], ids=["wrap", "boundary-mass"])
    def test_histogram_guards_raise_as_the_window_pass(self, steps, message):
        state = init_gaussian_grid(GaussianSpec(1.0, 0.5),
                                   GaussianSpec(0.5, 1.0),
                                   nx=N, ny=N, half_width=10.0)
        edges = np.linspace(-state.lx, state.lx, 65)
        with pytest.raises(BoundaryMassError, match=message) as histogram:
            output_histogram(state, steps, edges)
        with pytest.raises(BoundaryMassError) as window:
            window_pass(state, steps)
        assert str(histogram.value) == str(window.value)

    def test_histogram_shears_psi_once(self, monkeypatch):
        calls, guarded = [], grid._guarded_shear

        def counted(*args):
            calls.append(args)
            return guarded(*args)

        monkeypatch.setattr(grid, "_guarded_shear", counted)
        state = init_grid(_OBJECTS["two-packets"], _PURE, nx=N, ny=N)
        output_histogram(state, NOISELESS_STEPS,
                         np.linspace(-state.lx, state.lx, 129))
        assert len(calls) == 1

    @pytest.mark.parametrize("shape", [(16, 64), (64, 16), (N, 2 * N)])
    def test_shell_mass_matches_the_mask(self, shape):
        def edge(n):
            shell = max(1, round(grid.BOUNDARY_SHELL * n))
            return (np.arange(n) < shell) | (np.arange(n) >= n - shell)

        density = np.random.default_rng(shape[0]).random(shape)
        mask = np.logical_or.outer(edge(shape[0]), edge(shape[1]))
        assert grid._shell_mass(density) == pytest.approx(
            float(np.sum(density[mask])), rel=1e-14)


class TestMemoryBudget:
    # One complex field at 512^2 is 4 MiB.  No call may hold more than 2.5
    # of them beyond its input state; init_grid's count includes the state
    # it returns.  A product state's 1-D routes hold less, to the budget
    # its row names.  tracemalloc sees numpy's array buffers, not the FFT's
    # per-line scratch.
    FIELD = 16 * 512 * 512

    @pytest.mark.parametrize("call", [
        "init_grid", "grid_moments", "window_pass", "apply_steps",
        "output_histogram", "position_marginal"])
    def test_peak_stays_within_two_and_a_half_fields(self, call):
        state = self._build()
        if call == "grid_moments":  # a general state: row blocks
            state = apply_steps(state, NOISELESS_STEPS)
        peak = self._peak_fields(self._calls(state)[call])
        assert peak <= 2.5, f"{peak:.3f} fields"

    @pytest.mark.parametrize("call, fields", [
        ("init_grid", 0.05), ("grid_moments", 0.05), ("run_scenario", 2.5)])
    def test_product_state_keeps_no_field(self, call, fields):
        # init_grid's state holds its 1-D factors and no n^2 array, so a
        # gallery grid scenario's load adds nothing to its run's peak.
        peak = self._peak_fields(self._calls(self._build())[call])
        assert peak <= fields, f"{peak:.3f} fields"

    @staticmethod
    def _build():
        return init_grid(_OBJECTS["two-packets"], _PURE, nx=512, ny=512)

    @classmethod
    def _calls(cls, state):
        edges = np.linspace(-state.lx, state.lx, 129)
        return {
            "init_grid": cls._build,
            "grid_moments": lambda: grid_moments(state),
            "window_pass": lambda: window_pass(state, NOISELESS_STEPS),
            "apply_steps": lambda: apply_steps(state, NOISELESS_STEPS),
            "output_histogram": lambda: output_histogram(
                state, NOISELESS_STEPS, edges),
            "position_marginal": lambda: position_marginal(state, axis=1),
            "run_scenario": lambda: cli.run_scenario(
                scenarios.load_bundled("grid-crosscheck-gaussian")),
        }

    @classmethod
    def _peak_fields(cls, run):
        """The largest traced allocation while run() runs, in fields."""
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1] / cls.FIELD
        finally:
            tracemalloc.stop()


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
