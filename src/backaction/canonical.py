"""Canonical phase-space bookkeeping for small mode systems.

A system of n modes carries coordinates ordered (x1, p1, x2, p2, ...).
Linear observables are coefficient vectors over those coordinates;
quadratic Hamiltonians are symmetric forms.  Heisenberg evolution under a
quadratic Hamiltonian is linear, so a propagation is a symplectic matrix S
acting as r(t + tau) = S r(t); the same matrix pushes observables forward
via the transpose.

Sign conventions are pinned by the tests: evolving under the stretch
coupling K x p_y for unit K dt must send y -> x + y and p_x -> p_x - p_y,
leaving x and p_y alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import numerics

# Construction-time guard for user-supplied symplectic matrices, relative
# to max(1, |S|_F^2): the defect S Omega S^T - Omega carries rounding of
# that size.  Matrices produced by propagate() land many orders below it;
# tests pin those at 1e-12.
SYMPLECTIC_TOL = 1e-9

# The one rounding slack, relative to each figure's size or bound, for zero
# assertions, closed-form matches and >= bounds: exact quantities computed
# in floating point reappear at the 1e-16 level.
ROUNDING_SLACK = 1e-12


@dataclass(frozen=True)
class ModeSystem:
    """A register of canonical modes with a shared value of hbar.

    Labels are cosmetic: they name the modes in a system's repr, and
    nothing in the package reads them.  Two systems are interchangeable
    whenever mode count and hbar agree.
    """

    n: int
    hbar: float = 1.0
    labels: tuple = ()

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"mode count must be a positive integer, got {self.n!r}")
        if not (np.isfinite(self.hbar) and self.hbar > 0):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar!r}")
        labels = tuple(self.labels) or tuple(f"mode{i}" for i in range(self.n))
        if len(labels) != self.n:
            raise ValueError(f"expected {self.n} labels, got {len(labels)}")
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self):
        """Phase-space dimension, 2n."""
        return 2 * self.n

    def position_index(self, mode=0):
        self._check_mode(mode)
        return 2 * mode

    def momentum_index(self, mode=0):
        self._check_mode(mode)
        return 2 * mode + 1

    def omega(self):
        """Symplectic form: block diagonal [[0, 1], [-1, 0]] per mode, one
        read-only array shared by every system of n modes."""
        return _omega(self.n)

    def compatible(self, other):
        return self.n == other.n and self.hbar == other.hbar

    def _check_mode(self, mode):
        if not isinstance(mode, int) or not 0 <= mode < self.n:
            raise ValueError(f"mode index {mode!r} out of range for {self.n} modes")


@functools.cache
def _omega(n):
    out = np.kron(np.eye(n), [[0.0, 1.0], [-1.0, 0.0]])
    out.setflags(write=False)
    return out


def _check_compatible(a, b, context):
    if not a.compatible(b):
        raise ValueError(
            f"{context}: systems differ "
            f"({a.n} modes, hbar={a.hbar} vs {b.n} modes, hbar={b.hbar})")


def _frozen_vector(values, dim, name):
    arr = np.array(values, dtype=float)
    if arr.shape != (dim,):
        raise ValueError(f"{name} must have shape ({dim},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class LinearObservable:
    """Linear combination of the canonical coordinates.

    ``coeffs[i]`` multiplies coordinate i in the (x1, p1, x2, p2, ...)
    ordering.
    """

    system: ModeSystem
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", _frozen_vector(self.coeffs, self.system.dim, "coeffs"))

    def __sub__(self, other):
        _check_compatible(self.system, other.system, "subtract")
        return LinearObservable(self.system, self.coeffs - other.coeffs)


def position(system, mode=0):
    """Position observable of one mode."""
    coeffs = np.zeros(system.dim)
    coeffs[system.position_index(mode)] = 1.0
    return LinearObservable(system, coeffs)


def momentum(system, mode=0):
    """Momentum observable of one mode."""
    coeffs = np.zeros(system.dim)
    coeffs[system.momentum_index(mode)] = 1.0
    return LinearObservable(system, coeffs)


def commutator_constant(a, b):
    """Value c such that [A, B] = i c, for linear observables A and B.

    For coefficient vectors u, v the commutator is i * hbar * u^T Omega v
    times the identity; the function returns that real constant.
    """
    _check_compatible(a.system, b.system, "commutator")
    omega = a.system.omega()
    return float(a.system.hbar * (a.coeffs @ omega @ b.coeffs))


@dataclass(frozen=True, eq=False)
class QuadraticHamiltonian:
    """Homogeneous quadratic Hamiltonian H = (1/2) r^T form r.

    The form is stored exactly symmetric; asymmetric input is rejected
    rather than symmetrized, since a silent (form + form^T)/2 would hide
    sign mistakes in hand-assembled couplings.
    """

    system: ModeSystem
    form: np.ndarray

    def __post_init__(self):
        arr = np.array(self.form, dtype=float)
        if arr.shape != (self.system.dim, self.system.dim):
            raise ValueError(
                f"form must have shape ({self.system.dim}, {self.system.dim}), "
                f"got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("form contains non-finite entries")
        if not np.array_equal(arr, arr.T):
            raise ValueError("form must be exactly symmetric")
        arr.setflags(write=False)
        object.__setattr__(self, "form", arr)

    def generator(self):
        """Equation-of-motion matrix Omega @ form (dr/dt = generator @ r)."""
        return self.system.omega() @ self.form


def build_quadratic(system, terms):
    """Assemble a Hamiltonian from coefficient * r_i * r_j terms.

    Parameters
    ----------
    system : ModeSystem
    terms : iterable of (coefficient, i, j)
        Each term contributes ``coefficient * r_i * r_j`` with r the
        coordinate vector.  Products of non-commuting coordinates are
        interpreted in the symmetrized (Weyl) order; the constant that
        ordering discards must cancel across the whole list, within
        ROUNDING_SLACK of the largest coefficient at any hbar, or the term
        list does not describe a Hermitian combination and is rejected.

    Returns
    -------
    QuadraticHamiltonian
    """
    dim = system.dim
    form = np.zeros((dim, dim))
    omega = system.omega()
    residual = 0.0
    scale = 0.0
    for k, term in enumerate(terms):
        try:
            coefficient, i, j = term
        except (TypeError, ValueError):
            raise ValueError(f"term {k} must be (coefficient, i, j), got {term!r}")
        c = float(coefficient)
        if not np.isfinite(c):
            raise ValueError(f"term {k} has non-finite coefficient")
        for idx in (i, j):
            if not isinstance(idx, (int, np.integer)) or not 0 <= idx < dim:
                raise ValueError(
                    f"term {k} index {idx!r} out of range for dimension {dim}")
        form[i, j] += c
        form[j, i] += c
        residual += c * omega[i, j]
        scale = max(scale, abs(c))
    if abs(residual) > ROUNDING_SLACK * scale:
        raise ValueError(
            "term list leaves a non-zero ordering constant "
            f"({residual * system.hbar / 2.0:.3e}); pair each x_k p_k term "
            "with a cancelling partner")
    return QuadraticHamiltonian(system, form)


@dataclass(frozen=True, eq=False)
class SymplecticPropagation:
    """Linear Heisenberg-picture map r(t + tau) = matrix @ r(t)."""

    system: ModeSystem
    matrix: np.ndarray

    def __post_init__(self):
        dim = self.system.dim
        arr = np.array(self.matrix, dtype=float)
        if arr.shape != (dim, dim):
            raise ValueError(f"matrix must have shape ({dim}, {dim}), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix contains non-finite entries")
        omega = self.system.omega()
        # Past about 1e154 the size overflows and would pass any defect.
        with np.errstate(over="ignore", invalid="ignore"):
            size = float(np.sum(arr * arr))
            defect = float(np.linalg.norm(arr @ omega @ arr.T - omega))
        if not math.isfinite(size):
            raise ValueError(f"matrix entries up to {np.abs(arr).max():.3e} "
                             "are too large to check symplecticity")
        if not defect <= SYMPLECTIC_TOL * max(1.0, size):  # NaN fails too
            raise ValueError(f"matrix is not symplectic (defect {defect:.3e})")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    def then(self, later):
        """Composition: ``self`` acts first, ``later`` acts second."""
        _check_compatible(self.system, later.system, "compose")
        return SymplecticPropagation(self.system, later.matrix @ self.matrix)


def propagate(hamiltonian, duration):
    """Exact propagation under a quadratic Hamiltonian for a finite time."""
    tau = float(duration)
    if not np.isfinite(tau):
        raise ValueError("duration must be finite")
    # An exponential that overflows comes back non-finite, and
    # SymplecticPropagation refuses it with a ValueError, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = numerics.mat_exp(hamiltonian.generator() * tau)
    return SymplecticPropagation(hamiltonian.system, matrix)


def heisenberg_apply(propagation, observable):
    """Push a linear observable through a propagation.

    With r(t + tau) = S r(t), the observable u . r(t + tau) equals
    (S^T u) . r(t), so coefficient vectors transform by S^T.
    """
    _check_compatible(propagation.system, observable.system, "heisenberg_apply")
    return LinearObservable(
        observable.system, propagation.matrix.T @ observable.coeffs)

