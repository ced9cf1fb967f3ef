"""States carried as first and second moments of the canonical coordinates.

A MomentState stores a mean vector and covariance matrix over the
(x1, p1, x2, p2, ...) ordering.  That is all the information any quantity
in this package needs: noise and disturbance figures are second moments of
linear observables, and those are exact functionals of (mean, cov) no
matter what the underlying state looks like.  A ``gaussian`` flag records
when the moments are known to come from a Gaussian state, which is what
licenses treating a linear observable's outcome distribution as normal.

The public constructor enforces physicality: cov + i (hbar/2) Omega must
be positive semidefinite, the moment-level statement of the uncertainty
relations.  ``from_gaussian`` and ``product`` (of any number of registers;
the cascade's joint state is one) join checked blocks and skip the re-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import canonical
from .canonical import (ROUNDING_SLACK, ModeSystem, _check_compatible,
                        _frozen_vector)

# Slack allowed on the least eigenvalue of cov + i (hbar/2) Omega, on
# cov's asymmetry, and on a variance below zero (rounding debris, clamped),
# relative to max(hbar/2, max|cov|): an absolute floor would exceed hbar/2
# itself at small hbar.
PHYSICALITY_TOL = 1e-10

# Pure packets force sigma_x sigma_p sqrt(1 - rho^2) = hbar/2 exactly.
PURITY_TOL = 1e-9

# born_check's block of sorted samples; its slack covers math.erfc rounding.
_KS_BLOCK = 32
_KS_SLACK = 4.0 * np.finfo(float).eps


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
        for name in (f.name for f in fields(self)):
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

    def admissible(self, hbar=1.0):
        """Whether the spec meets hbar/2 within a relative ROUNDING_SLACK."""
        return self.uncertainty_product() >= hbar / 2.0 * (1.0 - ROUNDING_SLACK)

    def mean_block(self):
        return np.array([self.mean_x, self.mean_p])

    def cov_block(self):
        try:
            var_x, var_p = self.sigma_x ** 2, self.sigma_p ** 2
        except OverflowError:  # the larger spread's square overflows
            name = "sigma_x" if self.sigma_x >= self.sigma_p else "sigma_p"
            raise OverflowError(f"{name} = {getattr(self, name):.4g} is too "
                                "large: its square overflows") from None
        off = self.correlation * self.sigma_x * self.sigma_p
        return np.array([[var_x, off], [off, var_p]])


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
        scale = max(0.5 * self.system.hbar, float(np.max(np.abs(cov))))
        if np.max(np.abs(cov - cov.T)) > PHYSICALITY_TOL * scale:
            raise ValueError("cov must be symmetric")
        # Halving first keeps huge entries finite; halving a subnormal rounds.
        cov = np.where(cov == cov.T, cov, cov / 2.0 + cov.T / 2.0)
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
    specs = (specs,) if isinstance(specs, GaussianSpec) else tuple(specs)
    if not specs:
        raise ValueError("need at least one mode spec")
    system = ModeSystem(len(specs), hbar=hbar, labels=labels)
    for k, spec in enumerate(specs):
        if not spec.admissible(system.hbar):
            raise PhysicalityError(
                (f"mode {k}: " if len(specs) > 1 else "")
                + "sigma_x*sigma_p*sqrt(1-rho^2) = "
                f"{spec.uncertainty_product():.6g} < hbar/2 = {system.hbar / 2:.6g}")
    # admissible is the one-mode eigenvalue check with a tighter slack.
    return _block_diagonal(
        system, [(spec.mean_block(), spec.cov_block()) for spec in specs],
        gaussian=True)


def pure_packet(spec, hbar, name):
    """(a, q) of exp(-a (x - m)^2 + i q (x - m)), the pure packet of spec,
    which must meet sigma_x sigma_p sqrt(1 - rho^2) = hbar/2."""
    product = spec.uncertainty_product() / hbar
    if abs(product - 0.5) > PURITY_TOL:
        raise ValueError(
            f"grid packets are pure states: the {name} has sigma_x * sigma_p "
            f"* sqrt(1 - rho^2) = {product:.6g} hbar, not hbar/2")
    try:
        a = 1.0 / (4.0 * spec.sigma_x ** 2)
    except (OverflowError, ZeroDivisionError):
        a = 0.0
    if not 0.0 < a < math.inf:
        raise OverflowError(f"the {name}'s sigma_x = {spec.sigma_x:.4g} is out of range")
    return (a - 0.5j * spec.correlation * (spec.sigma_p / hbar)
            / spec.sigma_x), spec.mean_p / hbar


def from_superposition(components, hbar=1.0, labels=()):
    """Moment state, not Gaussian, of sum_k w_k phi_k over (w_k, spec_k).

    In u = x - m_j, conj(phi_j) phi_k = exp(-A u^2 + B u + C) integrates to
    sqrt(pi/A) exp(B^2/4A + C), of mean B/2A and variance 1/2A; p phi_k is
    (c + c1 u) phi_k.  Each moment sums pairs (j, k) about packet 0's (x, p),
    its momentum in the weights, and variances are central: no offset squared.
    """
    a, q = np.array([pure_packet(spec, hbar, f"object component {k}")
                     for k, (_, spec) in enumerate(components)]).T
    ref = components[0][1]
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        m = np.array([spec.mean_x for _, spec in components]) - ref.mean_x
        w = np.array([w for w, _ in components]) * np.exp(-1j * q[0].real * m)
        q, d = q.real - q[0].real, m - m[:, None]  # d = m_k - m_j, k a column
        big_a, big_b = a.conj()[:, None] + a, 2.0 * a * d + 1j * (q - q[:, None])
        mu, var = big_b / (2.0 * big_a), 0.5 / big_a
        refusal = "the superposition's weights ({})".format(
            ", ".join(f"{v:.4g}" for v, _ in components))
        try:
            pairs = w.conj()[:, None] * w * np.sqrt(np.pi / big_a)
        except FloatingPointError:
            raise ValueError(f"{refusal} overflow its norm") from None
        weight = pairs * np.exp(big_b * mu / 2.0 - a * d * d - 1j * q * d)
        if not 0.0 < (norm := weight.sum().real) < math.inf:
            raise ValueError(f"{refusal} make it vanish: norm {norm:.4g}")
        weight /= norm
        c1 = 2j * hbar * a  # ket side; the bra's is its conjugate
        x, ket = m[:, None] + mu, hbar * q - c1 * d + c1 * mu  # pair means
        x_mean, p_mean = (weight * x).sum().real, (weight * ket).sum().real
        dx, dp = x - x_mean, ket - p_mean
        dbra = hbar * q[:, None] + c1.conj()[:, None] * mu - p_mean
        var_x, cov_xp, var_p = ((weight * terms).sum().real for terms in (
            dx * dx + var, dx * dp + c1 * var,
            dbra * dp + c1.conj()[:, None] * c1 * var))
    return MomentState(ModeSystem(1, hbar=hbar, labels=labels),
                       [ref.mean_x + x_mean, ref.mean_p + p_mean],
                       [[var_x, cov_xp], [cov_xp, var_p]])


def product(*parts):
    """Uncorrelated joint state of any number of registers, in order."""
    hbar = parts[0].system.hbar
    labels, blocks, gaussian = (), [], True
    for part in parts:
        if part.system.hbar != hbar:
            raise ValueError(f"hbar mismatch: {hbar} vs {part.system.hbar}")
        labels += part.system.labels
        blocks.append((part.mean, part.cov))
        gaussian = gaussian and part.gaussian
    return _block_diagonal(
        ModeSystem(len(labels), hbar=hbar, labels=labels), blocks, gaussian)


def _block_diagonal(system, blocks, gaussian):
    """MomentState of uncorrelated (mean, cov) blocks, each already physical.

    cov + i(hbar/2)Omega is then block-diagonal, so it is PSD exactly when
    every block is, and max(hbar/2, max|cov|) is at least each block's scale:
    the constructor would accept the state, so its checks are skipped.
    """
    mean = np.concatenate([m for m, _ in blocks])
    cov = np.zeros((system.dim, system.dim))
    k = 0
    for _, block in blocks:
        cov[k:k + len(block), k:k + len(block)] = block
        k += len(block)
    mean.setflags(write=False)
    cov.setflags(write=False)
    state = object.__new__(MomentState)
    state.__dict__.update(system=system, mean=mean, cov=cov, gaussian=gaussian)
    return state


def _finite(value, quantity):
    """value, or OverflowError naming the quantity if it is inf or nan."""
    if not math.isfinite(value):
        raise OverflowError(f"{quantity} is {value}, not finite")
    return value


def expectation(state, observable):
    """<A> for a linear observable A."""
    _check_compatible(state.system, observable.system, "expectation")
    return _finite(float(observable.coeffs @ state.mean), "expectation")


def variance(state, observable):
    """Var(A) = u^T cov u for A with coefficient vector u."""
    _check_compatible(state.system, observable.system, "variance")
    value = _finite(
        float(observable.coeffs @ state.cov @ observable.coeffs), "variance")
    scale = max(0.5 * state.system.hbar, float(np.max(np.abs(state.cov))))
    if value < -PHYSICALITY_TOL * scale:
        raise ValueError(f"covariance produced variance {value:.3e} < 0")
    return max(value, 0.0)


def std_dev(state, observable):
    """sigma(A), the square root of the variance."""
    return math.sqrt(variance(state, observable))


def second_moment(state, observable):
    """<A^2> = Var(A) + <A>^2 for a linear observable A."""
    var, mean = variance(state, observable), expectation(state, observable)
    # Not mean ** 2: float ** raises OverflowError before _finite names it.
    return _finite(var + mean * mean, "second moment")


class RobertsonResult(NamedTuple):
    lhs: float
    bound: float
    passed: bool


def robertson_check(state, a, b, tol=ROUNDING_SLACK):
    """Test sigma(A) sigma(B) >= |<[A, B]>| / 2 on this state.

    For linear observables the commutator is a constant, so the bound is
    state-independent; the check must hold for every physical state and a
    failure below bound * (1 - ``tol``), a slack relative to the bound at
    any hbar, means broken moments, not physics.  Both sides are linear in
    each coefficient scale, so each vector is divided by its largest |entry|
    first: tiny coefficients would square to zero.
    """
    scales = [float(np.max(np.abs(o.coeffs))) or 1.0 for o in (a, b)]
    a, b = (canonical.LinearObservable(o.system, o.coeffs / n)
            for o, n in zip((a, b), scales))
    lhs = std_dev(state, a) * std_dev(state, b)
    bound = abs(canonical.commutator_constant(a, b)) / 2.0
    size = scales[0] * scales[1]
    return RobertsonResult(lhs * size, bound * size, lhs >= bound * (1.0 - tol))


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
        z = (self.mean - x) / (self.std * math.sqrt(2.0))
        erfc = np.fromiter(map(math.erfc, z.ravel()), float, z.size)
        return 0.5 * erfc.reshape(z.shape)


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

    The statistic is the largest (i+1)/n - F_i or F_i - i/n over the sorted
    samples.  F is nondecreasing along them, so inside a block [a, b] each
    term is at most b/n - F_a or F_b - (a+1)/n.  Only blocks whose bound
    reaches the largest term at block ends, less ``_KS_SLACK``, are scanned.
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    if n < 10:
        raise ValueError("need at least 10 samples for a meaningful test")
    grid = np.arange(n + 1) / n
    a = np.arange(0, n, _KS_BLOCK)
    b = np.minimum(a + _KS_BLOCK, n) - 1
    f_a, f_b = reference.cdf(xs[a]), reference.cdf(xs[b])
    lower = np.max(np.maximum(_ks_terms(grid, a, f_a), _ks_terms(grid, b, f_b)))
    bound = np.maximum(grid[b] - f_a, f_b - grid[a + 1])
    inside = np.flatnonzero(np.repeat(bound >= lower - _KS_SLACK, _KS_BLOCK)[:n])
    statistic = float(np.max(_ks_terms(
        grid, inside, reference.cdf(xs[inside])), initial=lower))
    critical = _kolmogi(alpha) / math.sqrt(n)
    return KsResult(statistic, critical, statistic < critical)


def _ks_terms(grid, index, cdf):
    """max((i+1)/n - F_i, F_i - i/n) at each sample index i."""
    return np.maximum(grid[index + 1] - cdf, cdf - grid[index])


def _kolmogi(alpha):
    """Upper ``alpha`` quantile of the Kolmogorov distribution, 0 < alpha < 1.

    Bisects to adjacent floats on Q(x) = 2 sum_k (-1)^(k-1) exp(-2 k^2 x^2)
    = alpha.  Above alpha = 1/2, where Q rounds away the 1 - Q it nears, it
    bisects 1 - Q(x) = sqrt(2 pi)/x sum_k exp(-(2k-1)^2 pi^2/(8 x^2)) against
    the exact 1 - alpha instead.  100 terms converge for every root.
    """
    k = np.arange(1, 101)
    lo, hi = 0.0, 20.0  # Q(20) underflows to zero
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if alpha <= 0.5:
            root_above = 2.0 * np.sum(
                (-1.0) ** (k - 1) * np.exp(-2.0 * (k * mid) ** 2)) > alpha
        else:
            root_above = math.sqrt(2.0 * math.pi) / mid * np.sum(
                np.exp(-((2 * k - 1) * math.pi / mid) ** 2 / 8.0)) < 1.0 - alpha
        lo, hi = (mid, hi) if root_above else (lo, mid)
    return hi
