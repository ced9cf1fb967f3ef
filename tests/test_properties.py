"""Property tests: shear maps against the grid, and the shear factorization.

Hypothesis draws the inputs; every property is an exact identity checked at
the tolerance its fixed-seed counterpart uses.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from backaction import grid, measurement
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
