"""Exact noise-disturbance bookkeeping for indirect position measurements.

The moment engine computes the root-mean-square readout error (epsilon)
and momentum back-action (eta) of bilinear measurement couplings in closed
form, including the rotated coupling whose readout is exact: its
epsilon * eta product sits at zero, below the hbar/2 figure naive
error-disturbance reasoning would demand, while the valid trade-off
sigma(x) * eta >= hbar/2 survives.  A periodic-grid wavefunction oracle
recomputes the same figures with FFT shears for cross-checking, and a CLI
runs scenario files end to end.
"""

from .canonical import (
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
from .cascade import (
    CascadeScenario,
    is_alpha_repeatable,
    repeatability_deviation,
    repeatability_sweep,
)
from .grid import (
    BoundaryMassError,
    GridState,
    grid_moments,
    grid_noise_disturbance,
    init_gaussian_grid,
    init_grid,
)
from .measurement import (
    MeasurementModel,
    NoiseReport,
    disturbance,
    heisenberg_verdict,
    limit_sweep,
    noise,
    noiseless_model,
    realization_residual,
    von_neumann_model,
)
from .scenarios import ConfigError, Scenario, bundled_names, load_bundled, load_scenario
from .states import (
    GaussianSpec,
    MomentState,
    PhysicalityError,
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
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
