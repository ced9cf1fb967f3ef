"""Property tests: shear maps against the grid, the shear factorization,
and the uncertainty relations that hold for every measurement.

Hypothesis draws the inputs; every identity is checked at the tolerance
its fixed-seed counterpart uses, every inequality at 1e-12 of its scale.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from backaction import canonical, grid, measurement, states
from backaction.canonical import ModeSystem
from backaction.states import GaussianSpec

N = 128

# Reach of every packet, in standard deviations, that the box must hold
# inside its guard shell and the grid must resolve in momentum.
_SIGMAS = 8.0

steps_strategy = st.lists(
    st.builds(grid.ShearStep,
              st.sampled_from(["x_py", "px_y"]),
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


def _half_width(mean, cov, partial):
    """Box half-width holding every intermediate state, or None.

    None when no box of N points holds the positions inside the guard
    shell and resolves the momenta at the same time.
    """
    reach_x = reach_k = 0.0
    for s in [np.eye(4)] + partial:
        m, c = s @ mean, s @ cov @ s.T
        sigma = np.sqrt(np.diag(c))
        reach_x = max(reach_x, *(abs(m[i]) + _SIGMAS * sigma[i]
                                 for i in (0, 2)))
        reach_k = max(reach_k, *(abs(m[i]) + _SIGMAS * sigma[i]
                                 for i in (1, 3)))
    half_width = reach_x / (1.0 - grid.BOUNDARY_SHELL)
    if math.pi * N / (2.0 * half_width) < reach_k:
        return None
    return half_width


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
@given(coupling=st.floats(0.1, 10.0), hbar=st.floats(0.1, 10.0))
def test_noiseless_window_factors_at_every_scale(coupling, hbar):
    model = measurement.noiseless_model(coupling, hbar)
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
def models(draw):
    """A built-in model, or a custom one from a random quadratic form."""
    hbar = draw(st.floats(0.3, 3.0))
    coupling = draw(st.floats(0.5, 2.0))
    kind = draw(st.sampled_from(["von_neumann", "noiseless", "custom"]))
    if kind == "von_neumann":
        return measurement.von_neumann_model(coupling, hbar)
    if kind == "noiseless":
        return measurement.noiseless_model(coupling, hbar)
    system = ModeSystem(2, hbar=hbar)
    hamiltonian = canonical.QuadraticHamiltonian(
        system, draw(symmetric_forms(4)))
    return measurement.MeasurementModel(
        name="custom", system=system, hamiltonian=hamiltonian,
        coupling=coupling)


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
    evolved = states.evolve(state, propagation)
    a = canonical.LinearObservable(evolved.system, u)
    b = canonical.LinearObservable(evolved.system, v)
    scale = max(hbar, float(np.linalg.norm(u) * np.linalg.norm(v)
                            * np.max(np.abs(evolved.cov))))
    assert states.robertson_check(evolved, a, b, tol=1e-12 * scale).passed
