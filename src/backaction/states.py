"""States carried as first and second moments of the canonical coordinates.

A MomentState stores a mean vector and covariance matrix over the
(x1, p1, x2, p2, ...) ordering.  That is all the information any quantity
in this package needs: noise and disturbance figures are second moments of
linear observables, and those are exact functionals of (mean, cov) no
matter what the underlying state looks like.  A ``gaussian`` flag records
when the moments are known to come from a Gaussian state, which is what
licenses treating a linear observable's outcome distribution as normal.

Physicality is enforced at construction: cov + i (hbar/2) Omega must be
positive semidefinite, the moment-level statement of the uncertainty
relations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.special
import scipy.stats

from . import canonical
from .canonical import ModeSystem, _check_compatible, _frozen_vector

# Slack allowed on the least eigenvalue of cov + i (hbar/2) Omega.
PHYSICALITY_TOL = 1e-10

# Variances this far below zero (relative to scale) are rounding debris and
# get clamped; anything worse is a real error.
_VARIANCE_TOL = 1e-10


class PhysicalityError(ValueError):
    """Moments violate the uncertainty relations."""


@dataclass(frozen=True)
class GaussianSpec:
    """Per-mode Gaussian data: centers, spreads, and x-p correlation."""

    sigma_x: float
    sigma_p: float
    mean_x: float = 0.0
    mean_p: float = 0.0
    correlation: float = 0.0

    def __post_init__(self):
        for name in ("sigma_x", "sigma_p", "mean_x", "mean_p", "correlation"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        if self.sigma_x <= 0 or self.sigma_p <= 0:
            raise ValueError("spreads must be positive")
        if abs(self.correlation) >= 1:
            raise ValueError(f"|correlation| must be < 1, got {self.correlation}")

    def uncertainty_product(self):
        """sigma_x * sigma_p * sqrt(1 - correlation^2)."""
        return self.sigma_x * self.sigma_p * math.sqrt(1.0 - self.correlation ** 2)

    def admissible(self, hbar=1.0, tol=1e-12):
        """Whether the spec satisfies the uncertainty bound for this hbar."""
        return self.uncertainty_product() >= hbar / 2.0 - tol

    def mean_block(self):
        return np.array([self.mean_x, self.mean_p])

    def cov_block(self):
        off = self.correlation * self.sigma_x * self.sigma_p
        return np.array([[self.sigma_x ** 2, off], [off, self.sigma_p ** 2]])


@dataclass(frozen=True, eq=False)
class MomentState:
    """First and second moments of a state over a mode system."""

    system: ModeSystem
    mean: np.ndarray
    cov: np.ndarray
    gaussian: bool = False

    def __post_init__(self):
        dim = self.system.dim
        object.__setattr__(self, "mean", _frozen_vector(self.mean, dim, "mean"))
        cov = np.array(self.cov, dtype=float)
        if cov.shape != (dim, dim):
            raise ValueError(f"cov must have shape ({dim}, {dim}), got {cov.shape}")
        if not np.all(np.isfinite(cov)):
            raise ValueError("cov contains non-finite entries")
        scale = max(1.0, float(np.max(np.abs(cov))))
        if np.max(np.abs(cov - cov.T)) > PHYSICALITY_TOL * scale:
            raise ValueError("cov must be symmetric")
        cov = (cov + cov.T) / 2.0
        lowest = float(np.linalg.eigvalsh(
            cov + 0.5j * self.system.hbar * self.system.omega())[0])
        if lowest < -PHYSICALITY_TOL * scale:
            raise PhysicalityError(
                f"cov + i(hbar/2)Omega has eigenvalue {lowest:.3e} < 0; "
                "the moments violate the uncertainty relations")
        cov.setflags(write=False)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "gaussian", bool(self.gaussian))


def from_gaussian(specs, hbar=1.0, labels=()):
    """Build the moment state of a product of per-mode Gaussians.

    Parameters
    ----------
    specs : GaussianSpec or sequence of GaussianSpec
        One entry per mode.
    hbar, labels
        Passed to the ``ModeSystem`` the state lives on.
    """
    if isinstance(specs, GaussianSpec):
        specs = (specs,)
    specs = tuple(specs)
    if not specs:
        raise ValueError("need at least one mode spec")
    system = ModeSystem(len(specs), hbar=hbar, labels=labels)
    for k, spec in enumerate(specs):
        if not spec.admissible(system.hbar):
            raise PhysicalityError(
                f"mode {k}: sigma_x*sigma_p*sqrt(1-rho^2) = "
                f"{spec.uncertainty_product():.6g} < hbar/2 = {system.hbar / 2:.6g}")
    mean = np.concatenate([spec.mean_block() for spec in specs])
    cov = np.zeros((system.dim, system.dim))
    for k, spec in enumerate(specs):
        cov[2 * k:2 * k + 2, 2 * k:2 * k + 2] = spec.cov_block()
    return MomentState(system, mean, cov, gaussian=True)


def product(a, b):
    """Uncorrelated joint state of two registers (a's modes first)."""
    if a.system.hbar != b.system.hbar:
        raise ValueError(f"hbar mismatch: {a.system.hbar} vs {b.system.hbar}")
    system = ModeSystem(
        a.system.n + b.system.n,
        hbar=a.system.hbar,
        labels=a.system.labels + b.system.labels)
    mean = np.concatenate([a.mean, b.mean])
    cov = np.zeros((system.dim, system.dim))
    cov[:a.system.dim, :a.system.dim] = a.cov
    cov[a.system.dim:, a.system.dim:] = b.cov
    return MomentState(system, mean, cov, gaussian=a.gaussian and b.gaussian)


def expectation(state, observable):
    """<A> for a linear observable A."""
    _check_compatible(state.system, observable.system, "expectation")
    return float(observable.coeffs @ state.mean)


def variance(state, observable):
    """Var(A) = u^T cov u for A with coefficient vector u."""
    _check_compatible(state.system, observable.system, "variance")
    value = float(observable.coeffs @ state.cov @ observable.coeffs)
    scale = max(1.0, float(np.max(np.abs(state.cov))))
    if value < -_VARIANCE_TOL * scale:
        raise ValueError(f"covariance produced variance {value:.3e} < 0")
    return max(value, 0.0)


def std_dev(state, observable):
    """sigma(A), the square root of the variance."""
    return math.sqrt(variance(state, observable))


def second_moment(state, observable):
    """<A^2> = Var(A) + <A>^2 for a linear observable A."""
    return variance(state, observable) + expectation(state, observable) ** 2


class RobertsonResult(NamedTuple):
    lhs: float
    bound: float
    passed: bool


def robertson_check(state, a, b, tol=1e-12):
    """Test sigma(A) sigma(B) >= |<[A, B]>| / 2 on this state.

    For linear observables the commutator is a constant, so the bound is
    state-independent; the check must hold for every physical state and a
    failure beyond ``tol`` indicates broken moments, not broken physics.
    """
    lhs = std_dev(state, a) * std_dev(state, b)
    bound = abs(canonical.commutator_constant(a, b)) / 2.0
    return RobertsonResult(lhs, bound, lhs >= bound - tol)


def evolve(state, propagation):
    """Push moments through a symplectic propagation.

    mean -> S mean and cov -> S cov S^T; Gaussianity survives because the
    map is linear.
    """
    _check_compatible(state.system, propagation.system, "evolve")
    s = propagation.matrix
    cov = s @ state.cov @ s.T
    return MomentState(
        state.system, s @ state.mean, (cov + cov.T) / 2.0, gaussian=state.gaussian)


@dataclass(frozen=True)
class ScalarDistribution:
    """Normal outcome distribution of a linear observable."""

    mean: float
    variance: float

    def __post_init__(self):
        object.__setattr__(self, "mean", float(self.mean))
        object.__setattr__(self, "variance", float(self.variance))
        if not (math.isfinite(self.mean) and math.isfinite(self.variance)):
            raise ValueError("distribution moments must be finite")
        if self.variance < 0:
            raise ValueError("variance must be non-negative")

    @property
    def std(self):
        return math.sqrt(self.variance)

    def cdf(self, x):
        """Cumulative distribution, elementwise over array input."""
        x = np.asarray(x, dtype=float)
        if self.variance == 0.0:
            return (x >= self.mean).astype(float)
        return scipy.special.ndtr((x - self.mean) / self.std)

    def interval_probability(self, lo, hi):
        if not lo <= hi:
            raise ValueError(f"need lo <= hi, got [{lo}, {hi}]")
        return float(self.cdf(hi) - self.cdf(lo))


def observable_distribution(state, observable):
    """Outcome distribution of a linear observable on a Gaussian state.

    Restricted to states flagged Gaussian: for anything else two moments do
    not determine the distribution and pretending otherwise would corrupt
    the statistical checks downstream.
    """
    if not state.gaussian:
        raise ValueError("outcome distribution requires a Gaussian state")
    return ScalarDistribution(
        expectation(state, observable), variance(state, observable))


def sample_outcomes(distribution, count, seed):
    """Draw measurement outcomes reproducibly.

    Counter-based Philox generator keyed by ``seed``: the same (seed,
    count) always yields the identical array, independent of whatever else
    has been sampled in the process.
    """
    if not isinstance(count, int) or count < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")
    rng = np.random.Generator(np.random.Philox(seed))
    return distribution.mean + distribution.std * rng.standard_normal(count)


class KsResult(NamedTuple):
    statistic: float
    critical_value: float
    passed: bool


def born_check(samples, reference, alpha=0.01):
    """Kolmogorov-Smirnov test of samples against a reference distribution.

    Passes when the KS statistic stays below the asymptotic critical value
    at significance ``alpha``.  Used to confirm that simulated readout
    statistics reproduce the distribution the moments predict.
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    if n < 10:
        raise ValueError("need at least 10 samples for a meaningful test")
    cdf = reference.cdf(xs)
    grid = np.arange(n + 1) / n
    statistic = float(max(np.max(grid[1:] - cdf), np.max(cdf - grid[:-1])))
    critical = float(scipy.stats.kstwobign.isf(alpha) / math.sqrt(n))
    return KsResult(statistic, critical, statistic < critical)
