"""``moments``: the exact moment engine on random preparations, no grid code.

Most ops build one random admissible (object, probe) pair, score both
built-in models on it (verdict and cascade deviation) and propagate the
noiseless Hamiltonian over a random fraction of its window.  Every 16th op
is a sweep op instead: ``limit_sweep`` and ``repeatability_sweep`` over 16
seeded sharpening values, alternating between the two models.  The scalar
ops set ``op_p50_ms``; the sweep ops set ``op_tail_ms``.
"""

import itertools
import math
from typing import NamedTuple

import numpy as np

HBAR = 1.0
HALF = HBAR / 2.0

# The "exact" and "bound" tolerances of scenarios.DEFAULT_TOLERANCES and of
# the acceptance gate.  Fixed here so that a later change to the program's
# defaults cannot loosen the benchmark's checks.
TOL = 1e-12

MODELS = ("von_neumann", "noiseless")
SWEEP_EVERY = 16
SWEEP_POINTS = 16
# Sharpening values are 2**-u with u uniform in [0, SWEEP_DEPTH], the range
# of the bundled sweeps (k = 0..10).
SWEEP_DEPTH = 10.0


class Prep(NamedTuple):
    obj: object
    probe: object
    fraction: float


class Sweep(NamedTuple):
    model: str
    values: tuple


def admissible_spec(make_spec, rng):
    """A Gaussian spec anywhere in the physical region, mixed states included.

    The ranges and draw order of ``tests/helpers.random_admissible_spec``.
    """
    sigma_x = rng.uniform(0.3, 2.5)
    rho = rng.uniform(-0.8, 0.8)
    floor = HBAR / (2.0 * sigma_x * math.sqrt(1.0 - rho ** 2))
    return make_spec(
        sigma_x=sigma_x,
        sigma_p=floor * rng.uniform(1.0, 3.0),
        mean_x=rng.uniform(-2.0, 2.0),
        mean_p=rng.uniform(-2.0, 2.0),
        correlation=rho)


def sine_map(u):
    """Criterion 2's closed form of the noiseless map at window fraction u."""
    c = 2.0 / math.sqrt(3.0)
    s_plus = c * math.sin((1.0 + u) * math.pi / 3.0)
    s_u = c * math.sin(u * math.pi / 3.0)
    s_minus = c * math.sin((1.0 - u) * math.pi / 3.0)
    expected = np.zeros((4, 4))
    expected[0, 0], expected[0, 2] = s_plus, -s_u
    expected[2, 0], expected[2, 2] = s_u, s_minus
    expected[1, 1], expected[1, 3] = s_minus, -s_u
    expected[3, 1], expected[3, 3] = s_u, s_plus
    return expected


def _strictly(values, decreasing):
    pairs = zip(values, values[1:])
    return all(b < a for a, b in pairs) if decreasing else all(b > a for a, b in pairs)


class Moments:
    # Sweep ops alternate between the two models, so whole runs of this
    # many ops hold the same mix of op kinds.
    cycle = 2 * SWEEP_EVERY

    def __init__(self, api, seed):
        self.api = api
        self.seed = seed
        self.models = {
            "von_neumann": api["measurement.von_neumann_model"](),
            "noiseless": api["measurement.noiseless_model"](),
        }

    def inputs(self):
        rng = np.random.default_rng(self.seed)
        make_spec = self.api["states.GaussianSpec"]
        for i in itertools.count():
            if i % SWEEP_EVERY == SWEEP_EVERY - 1:
                depths = np.sort(rng.uniform(0.0, SWEEP_DEPTH, SWEEP_POINTS))
                yield Sweep(MODELS[(i // SWEEP_EVERY) % 2],
                            tuple(float(2.0 ** -d) for d in depths))
            else:
                yield Prep(admissible_spec(make_spec, rng),
                           admissible_spec(make_spec, rng),
                           float(rng.uniform(0.0, 1.0)))

    def run(self, call, op):
        if isinstance(op, Sweep):
            model = self.models[op.model]
            return (call("measurement.limit_sweep", model, op.values),
                    call("cascade.repeatability_sweep", model, op.values))
        obj = call("states.from_gaussian", op.obj, labels=("object",))
        probe = call("states.from_gaussian", op.probe, labels=("probe",))
        out = {}
        for name in MODELS:
            model = self.models[name]
            verdict = call("measurement.heisenberg_verdict", model, obj, probe)
            cascade = call("cascade.CascadeScenario", model, obj, probe)
            out[name] = (verdict,
                         call("cascade.repeatability_deviation", cascade))
        noiseless = self.models["noiseless"]
        out["map"] = call("canonical.propagate", noiseless.hamiltonian,
                          op.fraction * noiseless.dt).matrix
        return out

    def check(self, op, out):
        """Names of the conditions the op's outputs fail."""
        if isinstance(op, Sweep):
            return self._check_sweep(op, *out)
        o, p = op.obj, op.probe
        nl, nl_deviation = out["noiseless"]
        vn, vn_deviation = out["von_neumann"]
        eta_squared = (o.sigma_p ** 2 + p.sigma_p ** 2
                       + (o.mean_p + p.mean_p) ** 2)
        map_error = float(np.max(np.abs(out["map"] - sine_map(op.fraction))))
        conditions = {
            "noiseless_epsilon_zero": nl.epsilon <= TOL,
            "noiseless_product_zero": nl.product <= TOL,
            "noiseless_tradeoff": nl.tradeoff >= HALF - TOL,
            "noiseless_eta_closed_form": abs(nl.eta ** 2 - eta_squared) <= TOL,
            "von_neumann_bound": vn.product >= HALF - TOL,
            "noiseless_cascade": abs(
                nl_deviation - math.hypot(p.sigma_x, p.mean_x)) <= TOL,
            "von_neumann_cascade": abs(
                vn_deviation - math.sqrt(2.0) * p.sigma_x) <= TOL,
            "intermediate_sine_map": map_error <= TOL,
        }
        return [name for name, ok in conditions.items() if not ok]

    def _check_sweep(self, op, limit_points, cascade_points):
        """The closed forms of the CLI's sweep checks, per model."""
        sigmas = op.values
        etas = [point.report.eta for point in limit_points]
        posts = [point.sigma_x_post for point in limit_points]
        deviations = [point.deviation for point in cascade_points]
        conditions = {
            "point_counts": (len(limit_points) == len(cascade_points)
                             == len(sigmas)),
            "deviation_decreases": _strictly(deviations, decreasing=True),
        }
        limit = list(zip(sigmas, limit_points))
        cascade = list(zip(sigmas, cascade_points))
        if op.model == "noiseless":
            conditions.update({
                "epsilon_zero": all(
                    point.report.epsilon <= TOL
                    for point in limit_points + cascade_points),
                "eta_matches_sqrt2_sigma_p": all(
                    abs(point.report.eta - math.sqrt(2.0) * sp) <= TOL
                    for sp, point in limit),
                "eta_decreases": _strictly(etas, decreasing=True),
                "sigma_x_post_increases": _strictly(posts, decreasing=False),
                "sigma_x_post_matches_closed_form": all(
                    abs(point.sigma_x_post - math.sqrt(2.0) * HBAR / (2.0 * sp))
                    <= TOL * max(1.0, point.sigma_x_post)
                    for sp, point in limit),
                "deviation_matches_sigma_y": all(
                    abs(point.deviation - sy) <= TOL for sy, point in cascade),
            })
        else:
            conditions.update({
                "product_at_bound": all(
                    abs(point.report.product - HALF) <= TOL
                    for point in limit_points),
                "deviation_matches_sqrt2_sigma_y": all(
                    abs(point.deviation - math.sqrt(2.0) * sy) <= TOL
                    for sy, point in cascade),
            })
        return [name for name, ok in conditions.items() if not ok]

    def geometry(self, op, out):
        return None
