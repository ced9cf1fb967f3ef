"""Property tests: shear maps against the grid, the shear factorization,
the cascade gap against two composed windows, the uncertainty
relations that hold for every measurement, propagation under random
quadratic Hamiltonians, minimum-uncertainty scenarios at every hbar,
states assembled from checked blocks against the public constructor, and
the closed-form moments of superpositions against the grid and under
translation, the noiseless grid epsilon of superpositions against the one
grid_epsilon bound, the marginals and shell mass of product grid states
against the density of their amplitudes, born's pruned KS scan against the
full one, epsilon of y-only windows against x psi sheared whole, grid
states that keep their 1-D factors against the same amplitudes without
them, and sheared amplitudes against the packets at the substituted
coordinates.

Hypothesis draws the inputs; every identity is checked at the tolerance
its fixed-seed counterpart uses, every inequality at 1e-12 of its scale.
"""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import helpers
from backaction import (canonical, cascade, cli, grid, measurement, scenarios,
                        states)
from backaction.canonical import ModeSystem
from backaction.states import GaussianSpec

N = 128

# Reach of every packet, in standard deviations, that the box must hold
# inside its guard shell and the grid must resolve in momentum.
_SIGMAS = 8.0

steps_strategy = st.lists(
    st.builds(grid.ShearStep,
              st.sampled_from(sorted(grid.SHEARS)),
              st.floats(-1.0, 1.0)),
    min_size=1, max_size=3).map(tuple)


@st.composite
def pure_packets(draw):
    sigma_x = draw(st.floats(0.6, 0.85))
    rho = draw(st.floats(-0.3, 0.3))
    return GaussianSpec(
        sigma_x=sigma_x,
        sigma_p=1.0 / (2.0 * sigma_x * math.sqrt(1.0 - rho ** 2)),
        mean_x=draw(st.floats(-0.5, 0.5)),
        mean_p=draw(st.floats(-0.5, 0.5)),
        correlation=rho)


def _composed(steps):
    """Maps after each step, first step first, on (x, p_x, y, p_y)."""
    system = ModeSystem(2)
    s = np.eye(4)
    partial = []
    for step in steps:
        s = measurement.shear_propagation(system, step).matrix @ s
        partial.append(s)
    return partial


def _half_width(mean, cov, partial, sigmas=_SIGMAS):
    """Box half-width holding every intermediate state to ``sigmas``
    standard deviations, or None.

    None when no box of N points holds the positions inside the guard
    shell and resolves the momenta at the same time.
    """
    reach_x = reach_k = 0.0
    for s in [np.eye(4)] + partial:
        m, c = s @ mean, s @ cov @ s.T
        sigma = np.sqrt(np.diag(c))
        reach_x = max(reach_x, *(abs(m[i]) + sigmas * sigma[i]
                                 for i in (0, 2)))
        reach_k = max(reach_k, *(abs(m[i]) + sigmas * sigma[i]
                                 for i in (1, 3)))
    half_width = reach_x / (1.0 - grid.BOUNDARY_SHELL)
    if math.pi * N / (2.0 * half_width) < reach_k:
        return None
    return half_width


def _object_half_width(obj, probe, steps, sigmas=_SIGMAS):
    """``_half_width`` holding each (weight, spec) packet of obj times the
    probe, or None, also when the box misses init_grid's own momentum
    budget."""
    half_widths = []
    for _, spec in obj:
        cov = np.zeros((4, 4))
        cov[:2, :2] = spec.cov_block()
        cov[2:, 2:] = probe.cov_block()
        half_widths.append(_half_width(np.concatenate(
            [spec.mean_block(), probe.mean_block()]), cov, _composed(steps),
            sigmas))
    if None in half_widths:
        return None
    try:
        grid.check_momentum_ceiling([spec for _, spec in obj], probe, N,
                                    max(half_widths))
    except ValueError:
        return None
    return max(half_widths)


@settings(max_examples=40, deadline=None)
@given(obj=pure_packets(), probe=pure_packets(), steps=steps_strategy)
def test_grid_shears_transport_moments_by_the_step_maps(obj, probe, steps):
    mean = np.concatenate([obj.mean_block(), probe.mean_block()])
    cov = np.zeros((4, 4))
    cov[:2, :2] = obj.cov_block()
    cov[2:, 2:] = probe.cov_block()
    partial = _composed(steps)
    half_width = _half_width(mean, cov, partial)
    assume(half_width is not None)
    state = grid.init_grid([(1.0, obj)], probe, nx=N, ny=N,
                           half_width=half_width)
    mean0, cov0 = grid.grid_moments(state)
    mean1, cov1 = grid.grid_moments(grid.apply_steps(state, steps))
    s = partial[-1]
    assert np.max(np.abs(mean1 - s @ mean0)) <= 1e-8
    assert np.max(np.abs(cov1 - s @ cov0 @ s.T)) <= 1e-8


@settings(max_examples=50, deadline=None)
@given(hbar=st.floats(0.1, 10.0))
def test_noiseless_window_factors_at_every_scale(hbar):
    model = measurement.noiseless_model(hbar)
    assert measurement.realization_residual(model) <= 1e-12


@st.composite
def admissible_specs(draw, hbar):
    """Any physical single-mode Gaussian, mixed states included."""
    sigma_x = draw(st.floats(0.3, 2.5))
    rho = draw(st.floats(-0.8, 0.8))
    floor = hbar / (2.0 * sigma_x * math.sqrt(1.0 - rho ** 2))
    return GaussianSpec(
        sigma_x=sigma_x,
        sigma_p=floor * draw(st.floats(1.0, 3.0)),
        mean_x=draw(st.floats(-2.0, 2.0)),
        mean_p=draw(st.floats(-2.0, 2.0)),
        correlation=rho)


@st.composite
def symmetric_forms(draw, dim):
    """Symmetric dim x dim form with entries in [-1, 1]."""
    form = np.zeros((dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            form[i, j] = form[j, i] = draw(st.floats(-1.0, 1.0))
    return form


@st.composite
def models(draw, kinds=("von_neumann", "noiseless", "custom")):
    """A built-in model, or a custom one from a random quadratic form."""
    hbar = draw(st.floats(0.3, 3.0))
    kind = draw(st.sampled_from(kinds))
    if kind == "von_neumann":
        return measurement.von_neumann_model(hbar)
    if kind == "noiseless":
        return measurement.noiseless_model(hbar)
    system = ModeSystem(2, hbar=hbar)
    hamiltonian = canonical.QuadraticHamiltonian(
        system, draw(symmetric_forms(4)))
    return measurement.MeasurementModel(name="custom", hamiltonian=hamiltonian)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), model=models())
def test_ozawa_relation_holds_for_every_model(data, model):
    # eps(x) eta(p) + eps(x) sigma(p) + sigma(x) eta(p) >= hbar/2 for every
    # measurement, where the naive eps * eta >= hbar/2 need not hold.
    hbar = model.system.hbar
    obj = states.from_gaussian(data.draw(admissible_specs(hbar)), hbar=hbar)
    probe = states.from_gaussian(data.draw(admissible_specs(hbar)), hbar=hbar)
    epsilon = measurement.noise(model, obj, probe)
    eta = measurement.disturbance(model, obj, probe)
    sigma_x = states.std_dev(obj, canonical.position(obj.system))
    sigma_p = states.std_dev(obj, canonical.momentum(obj.system))
    lhs = epsilon * eta + epsilon * sigma_p + sigma_x * eta
    assert lhs >= hbar / 2.0 - 1e-12 * max(hbar, lhs)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), model=models(kinds=("custom",)))
def test_cascade_gap_matches_two_composed_windows(data, model):
    # Reference: each window as a 6 x 6 map on (object, probe1, probe2),
    # the endpoint scattered onto its two modes and the identity elsewhere.
    hbar = model.system.hbar
    obj = states.from_gaussian(data.draw(admissible_specs(hbar)), hbar=hbar)
    probe = states.from_gaussian(data.draw(admissible_specs(hbar)), hbar=hbar)
    scenario = cascade.CascadeScenario(model, obj, probe)
    s = model.endpoint.matrix
    first, second = np.eye(6), np.eye(6)
    first[np.ix_((0, 1, 2, 3), (0, 1, 2, 3))] = s
    second[np.ix_((0, 1, 4, 5), (0, 1, 4, 5))] = s
    e_y, e_z = np.eye(6)[2], np.eye(6)[4]
    reference = (second @ first).T @ e_z - first.T @ e_y
    gap = cascade.gap_observable(scenario).coeffs
    scale = max(1.0, float(np.sum(s * s)))
    assert np.max(np.abs(gap - reference)) <= 1e-12 * scale
    mean = np.concatenate([obj.mean, probe.mean, probe.mean])
    cov = np.zeros((6, 6))
    for k, block in enumerate((obj.cov, probe.cov, probe.cov)):
        cov[2 * k:2 * k + 2, 2 * k:2 * k + 2] = block
    moment = reference @ cov @ reference + (reference @ mean) ** 2
    size = float(reference @ reference) * max(
        1.0, np.max(np.abs(cov)) + np.max(np.abs(mean)) ** 2)
    deviation = cascade.repeatability_deviation(scenario)
    assert abs(deviation ** 2 - moment) <= 1e-12 * max(1.0, size)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), hbar=st.floats(0.3, 3.0),
       form=symmetric_forms(4), duration=st.floats(-2.0, 2.0),
       u=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
       v=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
def test_robertson_relation_holds_on_evolved_states(data, hbar, form,
                                                    duration, u, v):
    state = states.from_gaussian(
        (data.draw(admissible_specs(hbar)), data.draw(admissible_specs(hbar))),
        hbar=hbar)
    propagation = canonical.propagate(
        canonical.QuadraticHamiltonian(state.system, form), duration)
    s = propagation.matrix
    cov = s @ state.cov @ s.T
    evolved = states.MomentState(state.system, s @ state.mean, (cov + cov.T) / 2)
    a = canonical.LinearObservable(evolved.system, u)
    b = canonical.LinearObservable(evolved.system, v)
    scale = max(hbar, float(np.linalg.norm(u) * np.linalg.norm(v)
                            * np.max(np.abs(evolved.cov))))
    assert states.robertson_check(evolved, a, b, tol=1e-12 * scale).passed


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 3), scale=st.floats(0.0, 2.0),
       hbar=st.floats(0.1, 10.0), a=st.floats(-1.5, 1.5),
       b=st.floats(-1.5, 1.5))
def test_propagation_is_symplectic_and_composes(data, n, scale, hbar, a, b):
    # Both gaps carry rounding of size |S|_F^2; the construction guard
    # allows 1e-9 of it, and exact propagations land far below.
    system = ModeSystem(n, hbar=hbar)
    hamiltonian = canonical.QuadraticHamiltonian(
        system, scale * data.draw(symmetric_forms(2 * n)))
    s = canonical.propagate(hamiltonian, a + b).matrix
    size = max(1.0, float(np.sum(s * s)))
    omega = system.omega()
    assert np.linalg.norm(s @ omega @ s.T - omega) <= 1e-12 * size
    split = canonical.propagate(hamiltonian, a).then(
        canonical.propagate(hamiltonian, b))
    assert np.linalg.norm(s - split.matrix) <= 1e-11 * size


@st.composite
def saturating_specs(draw, hbar):
    """Minimum-uncertainty preparation as a scenario section."""
    sigma_x = 10.0 ** draw(st.floats(-2.0, 2.0))
    rho = draw(st.floats(-0.9, 0.9))
    return {"sigma_x": sigma_x,
            "sigma_p": hbar / (2.0 * sigma_x * math.sqrt(1.0 - rho ** 2)),
            "correlation": rho}


@settings(max_examples=100, deadline=None)
@given(data=st.data(), hbar=st.floats(1e-3, 1e8),
       model=st.sampled_from(["von_neumann", "noiseless"]))
def test_saturating_preparations_load_and_pass_at_every_hbar(data, hbar,
                                                             model):
    # The product rounds to either side of hbar/2; the slack on every
    # >= hbar/2 comparison scales with the bound.
    scenario = scenarios.parse_scenario({
        "name": "saturating", "model": model, "hbar": hbar,
        "checks": ["verdict", "robertson", "repeatability"],
        "object": data.draw(saturating_specs(hbar)),
        "probe": data.draw(saturating_specs(hbar))})
    report, _ = cli.run_scenario(scenario)
    assert report["passed"]


@st.composite
def any_specs(draw, hbar):
    """One-mode Gaussian at, above or below hbar/2, of size sqrt(hbar)."""
    sigma_x = math.sqrt(hbar) * 10.0 ** draw(st.floats(-2.0, 2.0))
    rho = draw(st.floats(-0.9, 0.9))
    factor = draw(st.one_of(st.just(1.0), st.floats(0.5, 2.0),
                            st.floats(1.0 - 1e-11, 1.0 + 1e-11)))
    return GaussianSpec(
        sigma_x=sigma_x,
        sigma_p=factor * hbar / (2.0 * sigma_x * math.sqrt(1.0 - rho ** 2)),
        mean_x=sigma_x * draw(st.floats(-10.0, 10.0)),
        mean_p=hbar / sigma_x * draw(st.floats(-10.0, 10.0)),
        correlation=rho)


def _same_state(state, reference):
    assert state.system == reference.system
    assert state.gaussian is reference.gaussian
    assert state.mean.tobytes() == reference.mean.tobytes()
    assert state.cov.tobytes() == reference.cov.tobytes()
    assert not (state.mean.flags.writeable or state.cov.flags.writeable)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), hbar=st.floats(-3.0, 8.0).map(lambda e: 10.0 ** e),
       count=st.integers(1, 3))
def test_states_from_checked_blocks_match_the_public_constructor(data, hbar,
                                                                 count):
    specs = [data.draw(any_specs(hbar)) for _ in range(count)]
    refused = [k for k, spec in enumerate(specs) if not spec.admissible(hbar)]
    if refused:
        k, spec = refused[0], specs[refused[0]]
        message = ((f"mode {k}: " if count > 1 else "")
                   + "sigma_x*sigma_p*sqrt(1-rho^2) = "
                   f"{spec.uncertainty_product():.6g} < hbar/2 = {hbar / 2:.6g}")
        with pytest.raises(states.PhysicalityError) as info:
            states.from_gaussian(specs, hbar=hbar)
        assert str(info.value) == message
        return
    state = states.from_gaussian(specs, hbar=hbar)
    _same_state(state, states.MomentState(
        state.system, state.mean, state.cov, gaussian=True))
    # A second register, Gaussian or not: the first one with its
    # coordinates reversed, which leaves the spectrum of
    # cov + i(hbar/2)Omega as it was.
    other = states.MomentState(
        ModeSystem(count, hbar=hbar, labels=("probe",) * count),
        state.mean[::-1], state.cov[::-1, ::-1],
        gaussian=data.draw(st.booleans()))
    # The pair, and one to three registers drawn from the two, each joined
    # by one product call.
    drawn = data.draw(st.lists(st.sampled_from([state, other]),
                               min_size=1, max_size=3))
    for parts in ([state, other], drawn):
        _same_state(states.product(*parts), states.MomentState(
            ModeSystem(len(parts) * count, hbar=hbar,
                       labels=sum((part.system.labels for part in parts), ())),
            np.concatenate([part.mean for part in parts]),
            scipy.linalg.block_diag(*(part.cov for part in parts)),
            gaussian=all(part.gaussian for part in parts)))


@st.composite
def superpositions(draw, hbar):
    """Two or three pure packets close enough that they interfere."""
    components = []
    for _ in range(draw(st.integers(2, 3))):
        sigma_x = draw(st.floats(0.6, 1.4))
        rho = draw(st.floats(-0.5, 0.5))
        components.append((draw(st.floats(0.3, 1.5)), GaussianSpec(
            sigma_x=sigma_x,
            sigma_p=hbar / (2.0 * sigma_x * math.sqrt(1.0 - rho ** 2)),
            mean_x=draw(st.floats(-1.5, 1.5)),
            mean_p=hbar * draw(st.floats(-1.0, 1.0)),
            correlation=rho)))
    return components


@settings(max_examples=30, deadline=None)
@given(data=st.data(), hbar=st.sampled_from((0.5, 1.0, 2.0)))
def test_superposition_moments_match_the_grid(data, hbar):
    # Over 150 seeded draws at 256^2 the two routes met within 1.4e-15 of
    # max(1, max|cov|).  Dropping the cross terms (j != k) moves these
    # overlapping packets' moments by far more than the bound.
    components = data.draw(superpositions(hbar))
    state = states.from_superposition(components, hbar)
    mean, cov = grid.grid_moments(grid.init_grid(
        [(w, grid.unit_hbar_spec(s, hbar)) for w, s in components],
        GaussianSpec(1.0, 0.5), nx=256, ny=256))
    scale = np.array([1.0, hbar])
    bound = 1e-13 * max(1.0, np.max(np.abs(state.cov)))
    assert np.max(np.abs(state.mean - scale * mean[:2])) <= bound
    assert np.max(np.abs(state.cov - np.outer(scale, scale) * cov[:2, :2])) <= bound


@settings(max_examples=60, deadline=None)
@given(data=st.data(), hbar=st.floats(0.1, 10.0),
       offset=st.sampled_from((1e3, 1e6, 1e9)))
def test_superposition_moments_translate_with_the_packets(data, hbar, offset):
    # Moments about the first packet, variances as central sums: a common
    # offset leaves cov as it was to the rounding of the moved means.
    components = data.draw(superpositions(hbar))
    moved = [(w, dataclasses.replace(s, mean_x=s.mean_x + offset))
             for w, s in components]
    state, shifted = (states.from_superposition(c, hbar)
                      for c in (components, moved))
    size = max(max(abs(s.mean_x), abs(s.mean_p), s.sigma_x, s.sigma_p)
               for _, s in moved)
    exact = scenarios.DEFAULT_TOLERANCES["exact"] * size
    assert abs(shifted.mean[0] - state.mean[0] - offset) <= exact
    assert abs(shifted.mean[1] - state.mean[1]) <= exact
    assert np.max(np.abs(shifted.cov - state.cov)) <= exact


@settings(max_examples=30, deadline=None)
@given(data=st.data(), hbar=st.sampled_from((0.5, 1.0, 2.0)),
       probe=pure_packets())
def test_noiseless_superposition_epsilon_grid_meets_grid_epsilon(data, hbar,
                                                                 probe):
    # One grid epsilon bound holds every object: interference does not
    # raise the rounding floor.  Over 398 seeded noiseless passes of 2-3
    # packet objects at 128^2-1024^2 (this strategy, and the bench's grid
    # ranges with packets overlapping or apart) epsilon_grid was at most
    # 5.8e-14, 1.7e5 times below grid_epsilon.
    components = data.draw(superpositions(hbar))
    try:
        state = grid.init_grid(
            [(w, grid.unit_hbar_spec(s, hbar)) for w, s in components],
            probe, nx=256, ny=256)
    except ValueError:  # the box cannot resolve the packets' momenta
        assume(False)
    epsilon = grid.window_pass(state, grid.NOISELESS_STEPS).epsilon
    assert epsilon <= scenarios.DEFAULT_TOLERANCES["grid_epsilon"]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), hbar=st.sampled_from((0.5, 1.0, 2.0)),
       probe=pure_packets(),
       shape=st.sampled_from([(256, 256), (256, 512), (512, 256)]))
def test_product_figures_match_the_density_of_the_amplitudes(data, hbar,
                                                             probe, shape):
    # init_grid's state takes its marginals and shell mass from its 1-D
    # factors; each stays within helpers.PRODUCT_FIGURES of the figure
    # summed over the 2-D density of its amplitudes, zeros included.
    components = data.draw(superpositions(hbar))
    try:
        state = grid.init_grid(
            [(w, grid.unit_hbar_spec(s, hbar)) for w, s in components],
            probe, nx=shape[0], ny=shape[1])
    except ValueError:  # the box cannot resolve the packets' momenta
        assume(False)
    density = grid._density(helpers.amplitudes(state), state.cell_area)
    fresh = (density.sum(axis=1), density.sum(axis=0),
             grid._shell_mass(density))
    for got, want in zip((*state.marginals, state.shell_mass), fresh):
        assert np.all(np.abs(got - want) <= helpers.PRODUCT_FIGURES * want)


def _full_ks(samples, reference):
    """The KS statistic from every sorted sample's CDF: born_check's
    reference."""
    xs = np.sort(np.asarray(samples, dtype=float))
    cdf = reference.cdf(xs)
    steps = np.arange(xs.size + 1) / xs.size
    return float(max(np.max(steps[1:] - cdf), np.max(cdf - steps[:-1])))


class _Tabulated:
    """A reference whose CDF at each of its points is read from a table."""

    def __init__(self, points, values):
        self.points, self.values = points, values

    def cdf(self, x):
        return self.values[np.searchsorted(self.points, x)]


def _stepped_back():
    """64 samples whose CDF steps back by 1 ulp of 1 after the first, as
    math.erfc may round, with the largest term inside the first block:
    (i+1)/n - F_i at i = 30 exceeds that block's bound by 2^-52 and the
    largest term at any block end by 2^-53.  Only the slack brings that
    block into the scan."""
    points = np.arange(64.0)
    values = np.empty(64)
    values[0], values[1:31], values[31] = 0.125, 0.125 - 2.0 ** -52, 0.15625
    values[32:] = np.linspace(0.859375 + 2.0 ** -53, 0.9, 32)
    return points, _Tabulated(points, values)


@st.composite
def ks_cases(draw):
    """Normal samples against a matched, shifted or scaled normal CDF, or
    rounded onto ties against the zero-variance step CDF."""
    n = draw(st.integers(10, 3000))
    samples = np.random.default_rng(
        draw(st.integers(0, 2 ** 32 - 1))).standard_normal(n)
    kind = draw(st.sampled_from(("matched", "shifted", "scaled", "step")))
    if kind == "step":
        return np.round(samples, 1), states.ScalarDistribution(
            draw(st.sampled_from((-0.5, 0.0, 0.3))), 0.0)
    mean = draw(st.floats(-0.5, 0.5)) if kind == "shifted" else 0.0
    variance = draw(st.floats(0.25, 4.0)) if kind == "scaled" else 1.0
    return samples, states.ScalarDistribution(mean, variance)


@settings(max_examples=150, deadline=None)
@given(case=ks_cases())
@example(case=_stepped_back())
@example(case=(np.linspace(-2.0, 2.0, 65),
               states.ScalarDistribution(0.2, 1.0)))
def test_pruned_ks_statistic_is_the_full_scan(case):
    # Dropping either block bound, or the slack (the stepped-back example),
    # changes the statistic.
    samples, reference = case
    assert states.born_check(samples, reference).statistic == _full_ks(
        samples, reference)


def _sheared_epsilon(state, steps):
    """epsilon with x psi sheared whole, unguarded, by ``_shear_field``: the
    route ``window_pass`` skips when every step moves y."""
    raw = helpers.amplitudes(state)
    shears = [grid._shear_ramp(state, step) for step in steps]
    u_psi = grid._shear_field(grid._field(raw), shears)
    noise = grid._shear_field(grid._field(raw, state.x[:, None]), shears)
    noise -= state.y * u_psi
    return math.sqrt(grid._sq_norm(noise) * state.cell_area)


@settings(max_examples=40, deadline=None)
@given(obj=pure_packets(), probe=pure_packets(), steps=st.lists(
    st.builds(grid.ShearStep, st.just("x_py"), st.floats(-1.0, 1.0)),
    min_size=1, max_size=3).map(tuple))
def test_y_only_epsilon_from_the_density_matches_the_sheared_field(
        obj, probe, steps):
    # Over 1,493 seeded draws of up to three x_py steps at N^2, one- and
    # two-packet objects, the two routes met within 4.4e-16.
    mean = np.concatenate([obj.mean_block(), probe.mean_block()])
    cov = np.zeros((4, 4))
    cov[:2, :2] = obj.cov_block()
    cov[2:, 2:] = probe.cov_block()
    half_width = _half_width(mean, cov, _composed(steps))
    assume(half_width is not None)
    state = grid.init_grid([(1.0, obj)], probe, nx=N, ny=N,
                           half_width=half_width)
    epsilon = grid.window_pass(state, steps).epsilon
    assert abs(epsilon - _sheared_epsilon(state, steps)) <= 2e-15


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from([(N, N), (N, 2 * N), (2 * N, N)]),
       obj=st.lists(st.tuples(st.floats(0.5, 1.5), pure_packets()),
                    min_size=1, max_size=2),
       probe=pure_packets(),
       steps=st.one_of(st.sampled_from([grid.NOISELESS_STEPS,
                                        grid.VON_NEUMANN_STEPS]),
                       steps_strategy))
@example(shape=(N, 2 * N), obj=[(1.0, GaussianSpec(0.8, 0.625))],
         probe=GaussianSpec(0.7, 0.5 / 0.7), steps=grid.NOISELESS_STEPS)
@example(shape=(2 * N, N), obj=[(1.0, GaussianSpec(0.8, 0.625))],
         probe=GaussianSpec(0.7, 0.5 / 0.7), steps=grid.VON_NEUMANN_STEPS)
def test_factored_states_match_the_plain_route(shape, obj, probe, steps):
    # init_grid's state takes its first transforms from its 1-D factors;
    # GridState(lx, amplitudes) of the same amplitudes has none, and its
    # moments come from row blocks, not from the factors.  Over 3,000 draws
    # of these inputs the two met within 1.2e-15 (eta), 6.7e-16 (moments
    # over max(1, max|cov|)), 4.4e-16 (epsilon), 2.2e-16 (norm drift,
    # histogram), 6.9e-17 (readout) and 1.8e-23 (boundary mass).
    half_width = _object_half_width(obj, probe, steps)
    assume(half_width is not None)
    factored = grid.init_grid(obj, probe, nx=shape[0], ny=shape[1],
                              half_width=half_width)
    plain = grid.GridState(factored.lx, helpers.amplitudes(factored))
    assert factored.factors is not None and plain.factors is None
    bound = 4e-15
    got, want = grid.window_pass(factored, steps), grid.window_pass(plain, steps)
    for name, a, b in zip(want._fields, got, want):
        assert np.max(np.abs(np.asarray(a) - b)) <= bound, name
    (mean, cov), (ref_mean, ref_cov) = (grid.grid_moments(s)
                                        for s in (factored, plain))
    scale = max(1.0, np.max(np.abs(ref_cov)))
    assert np.max(np.abs(mean - ref_mean)) <= bound * scale
    assert np.max(np.abs(cov - ref_cov)) <= bound * scale
    edges = np.linspace(-factored.lx, factored.lx, 65)
    hist, ref_hist = (grid.output_histogram(s, steps, edges)
                      for s in (factored, plain))
    assert np.max(np.abs(hist - ref_hist)) <= bound


def _sheared_packets(state, obj, probe, steps):
    """U psi at every cell, in closed form: each step is a change of
    coordinates, substituted last step first into the packets of obj times
    the probe, each factor normalized on the grid as init_grid does."""
    x, y = np.meshgrid(state.x, state.y, indexing="ij")
    for step in reversed(steps):
        if step.kind == "x_py":  # psi(x, y) -> psi(x, y - theta x)
            y = y - step.theta * x
        else:  # px_y: psi(x, y) -> psi(x + theta y, y)
            x = x + step.theta * y
    waves = []
    for coords, axis, d, packets in ((x, state.x, state.dx, obj),
                                     (y, state.y, state.dy, [(1.0, probe)])):
        def wave(q):
            return sum(w * grid._pure_packet(q, spec, "packet")
                       for w, spec in packets)
        norm = math.sqrt(float(np.sum(np.abs(wave(axis)) ** 2)) * d)
        waves.append(wave(coords) / norm)
    return waves[0] * waves[1]


@settings(max_examples=40, deadline=None)
@given(obj=st.lists(st.tuples(st.floats(0.5, 1.5), pure_packets()),
                    min_size=1, max_size=2),
       probe=pure_packets(), steps=steps_strategy)
def test_sheared_amplitudes_match_the_substituted_packets(obj, probe, steps):
    # The box holds every packet to 12 standard deviations in position and
    # momentum, where its tails are below rounding.  Over 2,000 draws of
    # these inputs at N^2, the product state and its plain twin met the
    # closed form within 1.1e-15 after one step (1,016 draws), 1.4e-15
    # after two (454) and 1.3e-15 after three (530), at a peak |psi| of
    # about 0.5.
    half_width = _object_half_width(obj, probe, steps, sigmas=12.0)
    assume(half_width is not None)
    state = grid.init_grid(obj, probe, nx=N, ny=N, half_width=half_width)
    want = _sheared_packets(state, obj, probe, steps)
    for start in (state, grid.GridState(state.lx, helpers.amplitudes(state))):
        got = grid.apply_steps(start, steps).amplitudes
        assert np.max(np.abs(got - want)) <= 4e-15
