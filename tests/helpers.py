"""Shared random generators for the property-style tests.

Everything takes an explicit numpy Generator so each test pins its own
seed; nothing here touches global RNG state.
"""

import numpy as np

from backaction import canonical, states
from backaction.states import GaussianSpec


def random_admissible_spec(rng, hbar=1.0):
    """Gaussian spec anywhere in the physical region, mixed states included."""
    sigma_x = rng.uniform(0.3, 2.5)
    rho = rng.uniform(-0.8, 0.8)
    floor = hbar / (2.0 * sigma_x * np.sqrt(1.0 - rho ** 2))
    return GaussianSpec(
        sigma_x=sigma_x,
        sigma_p=floor * rng.uniform(1.0, 3.0),
        mean_x=rng.uniform(-2.0, 2.0),
        mean_p=rng.uniform(-2.0, 2.0),
        correlation=rho)


def random_pure_spec(rng, hbar=1.0):
    """Spec saturating the uncertainty product exactly (grid-representable).

    Ranges are sized so a 512-point grid resolves the packet and its
    sheared image: see grid.auto_half_width for the budget.
    """
    sigma_x = rng.uniform(0.6, 1.6)
    rho = rng.uniform(-0.5, 0.5)
    return GaussianSpec(
        sigma_x=sigma_x,
        sigma_p=hbar / (2.0 * sigma_x * np.sqrt(1.0 - rho ** 2)),
        mean_x=rng.uniform(-1.5, 1.5),
        mean_p=rng.uniform(-1.5, 1.5),
        correlation=rho)


def random_state(rng, hbar=1.0, labels=("mode0",)):
    """Single-mode moment state drawn from the admissible region."""
    return states.from_gaussian(
        random_admissible_spec(rng, hbar), hbar=hbar, labels=labels)


def random_observable(system, rng):
    return canonical.LinearObservable(system, rng.standard_normal(system.dim))


def random_symmetric(rng, dim, scale=1.0):
    a = scale * rng.standard_normal((dim, dim))
    return (a + a.T) / 2.0
