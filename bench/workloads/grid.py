"""``grid``: the FFT wavefunction cross-check on fresh seeded preparations.

Each op builds a pure preparation on an n x n grid, takes its moments,
pushes it through the model's shears (the sequence ``grid.MODEL_STEPS``
holds, which the CLI uses) and compares epsilon and eta with the moment
route.  Noiseless ops also compare the readout histogram with the object's
position marginal.

One cycle of 12 ops holds each size four times and puts a two-packet
superposition at every fourth op.  At 256^2 three ops are von Neumann and
one is noiseless; at 512^2 and 1024^2 three are noiseless and one is von
Neumann.  The noiseless ops cost about twice the von Neumann ones (they
also build the readout histogram), so the median op falls inside one cost
cluster (noiseless 512^2) rather than on the boundary between two, and the
tail, the 11th slowest op, falls inside the noiseless 1024^2 cluster from
four cycles on, rather than on its edge.
"""

import itertools
import math
from typing import NamedTuple

import numpy as np

HBAR = 1.0

# (n, model, superposition object)
CYCLE = (
    (256, "von_neumann", False),
    (512, "noiseless", False),
    (1024, "noiseless", False),
    (256, "noiseless", True),
    (512, "von_neumann", False),
    (1024, "von_neumann", False),
    (256, "von_neumann", False),
    (512, "noiseless", True),
    (1024, "noiseless", False),
    (512, "noiseless", False),
    (256, "von_neumann", False),
    (1024, "noiseless", True),
)


class Ranges(NamedTuple):
    """Uniform draw ranges of one packet at one grid size."""

    sigma_x: tuple
    correlation: float   # |rho| bound
    mean: float          # |mean_x|, |mean_p| bound
    separation: tuple    # superposition packets sit at -d and +d


# Chosen in advance so that grid.auto_half_width accepts every draw at its
# size.  Its momentum ceiling over the 8-sigma momentum budget is smallest
# at a corner of these ranges; at the worst corner it is 1.44 (256), 2.10
# (512) and 2.28 (1024).  512 uses the ranges of
# tests/helpers.random_pure_spec.
RANGES = {
    256: Ranges((0.6, 1.2), 0.3, 1.0, (1.5, 2.5)),
    512: Ranges((0.6, 1.6), 0.5, 1.5, (2.0, 3.5)),
    1024: Ranges((0.5, 2.4), 0.6, 3.0, (3.0, 5.0)),
}

HISTOGRAM_BINS = 128

# Tolerances of scenarios.DEFAULT_TOLERANCES and of the acceptance gate,
# fixed here so a later change to the defaults cannot loosen them.
GRID_MATCH = 1e-4
GRID_EPSILON = 1e-8
GRID_EPSILON_MULTI = 1e-6
TV = 1e-3
MOMENTS_MATCH = 1e-6


class GridOp(NamedTuple):
    n: int
    model: str
    components: tuple   # of (weight, GaussianSpec)
    probe: object


def _pure_spec(make_spec, rng, ranges, mean_x=None):
    sigma_x = rng.uniform(*ranges.sigma_x)
    rho = rng.uniform(-ranges.correlation, ranges.correlation)
    if mean_x is None:
        mean_x = rng.uniform(-ranges.mean, ranges.mean)
    return make_spec(
        sigma_x=sigma_x,
        sigma_p=HBAR / (2.0 * sigma_x * math.sqrt(1.0 - rho ** 2)),
        mean_x=mean_x,
        mean_p=rng.uniform(-ranges.mean, ranges.mean),
        correlation=rho)


def _moments_of(obj, probe):
    """Mean and covariance of a product of two pure packets over (x, px, y, py)."""
    mean = np.array([obj.mean_x, obj.mean_p, probe.mean_x, probe.mean_p])
    cov = np.zeros((4, 4))
    for k, spec in enumerate((obj, probe)):
        off = spec.correlation * spec.sigma_x * spec.sigma_p
        cov[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [
            [spec.sigma_x ** 2, off], [off, spec.sigma_p ** 2]]
    return mean, cov


class Grid:
    cycle = len(CYCLE)

    def __init__(self, api, seed):
        self.api = api
        self.seed = seed
        self.models = {
            "von_neumann": api["measurement.von_neumann_model"](),
            "noiseless": api["measurement.noiseless_model"](),
        }
        self.steps = api["grid.MODEL_STEPS"]
        self.system = api["canonical.ModeSystem"](
            2, hbar=HBAR, labels=("object", "probe"))

    def inputs(self):
        rng = np.random.default_rng(self.seed)
        make_spec = self.api["states.GaussianSpec"]
        for n, model, superposition in itertools.cycle(CYCLE):
            ranges = RANGES[n]
            if superposition:
                d = rng.uniform(*ranges.separation)
                components = tuple(
                    (rng.uniform(0.5, 1.5),
                     _pure_spec(make_spec, rng, ranges, mean_x=side * d))
                    for side in (-1.0, 1.0))
            else:
                components = ((1.0, _pure_spec(make_spec, rng, ranges)),)
            yield GridOp(n, model, components,
                         _pure_spec(make_spec, rng, ranges))

    def run(self, call, op):
        n = op.n
        steps = self.steps[op.model]
        model = self.models[op.model]
        state = call("grid.init_grid", op.components, op.probe, nx=n, ny=n,
                     tag=n)
        mean, cov = call("grid.grid_moments", state, tag=n)
        eps_grid, eta_grid = call("grid.grid_noise_disturbance", state, steps,
                                  tag=n)
        if len(op.components) == 1:
            joint = call(
                "states.product",
                call("states.from_gaussian", op.components[0][1],
                     labels=("object",)),
                call("states.from_gaussian", op.probe, labels=("probe",)))
        else:
            joint = call("states.MomentState", self.system, mean, cov)
        out = {
            "half_width": state.lx,
            "mean": mean,
            "cov": cov,
            "eps_grid": eps_grid,
            "eta_grid": eta_grid,
            "eps_moment": call("measurement.joint_noise", model, joint),
            "eta_moment": call("measurement.joint_disturbance", model, joint),
        }
        if op.model == "noiseless":
            edges = np.linspace(-state.lx, state.lx, HISTOGRAM_BINS + 1)
            out["edges"] = edges
            out["histogram"] = call("grid.output_histogram", state, steps,
                                    edges, tag=n)
            out["marginal"] = call("grid.position_marginal", state, axis=0)
        return out

    def check(self, op, out):
        """Names of the conditions the op's outputs fail."""
        single = len(op.components) == 1
        conditions = {
            "epsilon_routes_agree":
                abs(out["eps_grid"] - out["eps_moment"]) <= GRID_MATCH,
            "eta_routes_agree":
                abs(out["eta_grid"] - out["eta_moment"]) <= GRID_MATCH,
        }
        if op.model == "noiseless":
            conditions["epsilon_grid_vanishes"] = out["eps_grid"] <= (
                GRID_EPSILON if single else GRID_EPSILON_MULTI)
            coords, masses = out["marginal"]
            reference, _ = np.histogram(coords, bins=out["edges"],
                                        weights=masses)
            tv = 0.5 * float(np.sum(np.abs(out["histogram"] - reference)))
            conditions["readout_matches_position_marginal"] = tv <= TV
        if single:
            mean, cov = _moments_of(op.components[0][1], op.probe)
            conditions["grid_moments_match_preparation"] = max(
                float(np.max(np.abs(out["mean"] - mean))),
                float(np.max(np.abs(out["cov"] - cov)))) <= MOMENTS_MATCH
        return [name for name, ok in conditions.items() if not ok]

    def geometry(self, op, out):
        return (op.n, out["half_width"])
