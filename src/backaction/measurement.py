"""Indirect position measurements from bilinear object-probe couplings.

An indirect measurement couples the object (mode 0) to a probe (mode 1)
for a window dt, then reads a probe observable M.  Precision and
back-action are second moments of two operators taken in the Heisenberg
picture across the window:

    noise operator       N = M(t + dt) - A(t)      epsilon = <N^2>^(1/2)
    disturbance operator D = B(t + dt) - B(t)      eta     = <D^2>^(1/2)

with M the pointer position, A the object position it measures and B the
object momentum it disturbs.  The window is one transcription, K dt = 1.
Both operators are linear in the canonical coordinates, so the figures
come out of moment states exactly, with no discretization anywhere.

Two couplings are built in.  The stretch coupling K x p_y is the textbook
von Neumann interaction: it transcribes x onto the pointer but kicks
momentum by the pointer's own momentum, and epsilon * eta respects the
hbar/2 bound.  The rotated coupling composes two mutually conjugate
back-action-evading interactions so that the pointer ends up carrying x
exactly (epsilon = 0) while the momentum kick stays finite: the product
epsilon * eta vanishes, below any state-independent bound.  What survives
is the trade-off sigma(x) * eta >= hbar/2, because the disturbance
operator fails to commute with position by i*hbar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import NamedTuple

import numpy as np

from . import canonical, grid, states
from .canonical import ModeSystem, build_quadratic

# One-sided slack for assertions that an exact quantity vanished; the
# endpoint map comes from a floating-point exponential, so identically-zero
# coefficients reappear at the 1e-16 level.
ONE_SIDED_TOL = 1e-12

OBJECT_MODE = 0
PROBE_MODE = 1


@dataclass(frozen=True, eq=False)
class MeasurementModel:
    """A bilinear coupling window with its readout bookkeeping.

    The window lasts dt = 1 / coupling, one transcription: every closed
    form downstream assumes it.  The pointer position ``probe_obs`` reads
    the object position ``measured``.  ``steps`` is the window's
    factorization into grid shears, which the grid cross-check and the
    realization check read; it is empty for custom models.  The endpoint
    map is built with the model, so a window that is not symplectic fails
    construction.
    """

    name: str
    system: ModeSystem
    hamiltonian: canonical.QuadraticHamiltonian
    coupling: float
    steps: tuple = ()
    dt: float = field(init=False)
    measured: canonical.LinearObservable = field(init=False, repr=False)
    probe_obs: canonical.LinearObservable = field(init=False, repr=False)
    endpoint: canonical.SymplecticPropagation = field(init=False, repr=False)

    def __post_init__(self):
        if self.system.n != 2:
            raise ValueError("measurement models live on object + probe (2 modes)")
        if not (math.isfinite(self.coupling) and self.coupling > 0):
            raise ValueError(f"coupling must be positive, got {self.coupling!r}")
        if not self.system.compatible(self.hamiltonian.system):
            raise ValueError("hamiltonian built on an incompatible system")
        object.__setattr__(self, "dt", 1.0 / self.coupling)
        object.__setattr__(
            self, "measured", canonical.position(self.system, OBJECT_MODE))
        object.__setattr__(
            self, "probe_obs", canonical.position(self.system, PROBE_MODE))
        # Symplectic map across the full window (t, t + dt).
        object.__setattr__(
            self, "endpoint", canonical.propagate(self.hamiltonian, self.dt))

    def propagation(self, tau):
        """Symplectic map across (t, t + tau) for any finite tau."""
        return canonical.propagate(self.hamiltonian, tau)


def von_neumann_model(coupling=1.0, hbar=1.0):
    """Stretch coupling K x p_y reading the pointer position."""
    system = ModeSystem(2, hbar=hbar, labels=("object", "probe"))
    x = system.position_index(0)
    py = system.momentum_index(1)
    hamiltonian = build_quadratic(system, [(coupling, x, py)])
    return MeasurementModel(
        name="von_neumann",
        system=system,
        hamiltonian=hamiltonian,
        coupling=coupling,
        steps=grid.VON_NEUMANN_STEPS,
    )


def noiseless_model(coupling=1.0, hbar=1.0):
    """Rotated coupling whose pointer reads object position exactly.

    The Hamiltonian (K pi / 3 sqrt(3)) (2 x p_y - 2 p_x y + x p_x - y p_y)
    generates, over one window, the map

        x -> x - y,   y -> x,   p_x -> -p_y,   p_y -> p_x + p_y,

    so the pointer output y(t + dt) = x(t): the noise operator vanishes
    identically and epsilon = 0 for every input state.  The x p_x and
    y p_y terms carry equal and opposite ordering constants, which is what
    lets build_quadratic accept the list.
    """
    system = ModeSystem(2, hbar=hbar, labels=("object", "probe"))
    x, px = system.position_index(0), system.momentum_index(0)
    y, py = system.position_index(1), system.momentum_index(1)
    g = coupling * math.pi / (3.0 * math.sqrt(3.0))
    hamiltonian = build_quadratic(system, [
        (2.0 * g, x, py),
        (-2.0 * g, px, y),
        (g, x, px),
        (-g, y, py),
    ])
    return MeasurementModel(
        name="noiseless",
        system=system,
        hamiltonian=hamiltonian,
        coupling=coupling,
        steps=grid.NOISELESS_STEPS,
    )


def shear_propagation(system, step):
    """Symplectic map of one grid shear on object + probe.

    A 'x_py' step of strength theta is the window of theta x p_y, a 'px_y'
    step that of -theta p_x y, each over unit time: the maps the grid
    shears apply to the wavefunction.
    """
    x, px = system.position_index(0), system.momentum_index(0)
    y, py = system.position_index(1), system.momentum_index(1)
    if step.kind == "x_py":
        term = (step.theta, x, py)
    elif step.kind == "px_y":
        term = (-step.theta, px, y)
    else:
        raise ValueError(f"unknown shear kind {step.kind!r}")
    return canonical.propagate(build_quadratic(system, [term]), 1.0)


def noise_operator(model):
    """N = M(t + dt) - A(t) as a linear observable at time t."""
    readout = canonical.heisenberg_apply(model.endpoint, model.probe_obs)
    return readout - model.measured


def disturbance_operator(model):
    """D = p_x(t + dt) - p_x(t) as a linear observable at time t."""
    px = canonical.momentum(model.system, OBJECT_MODE)
    return canonical.heisenberg_apply(model.endpoint, px) - px


def joint_noise(model, joint_state):
    """epsilon on an already-assembled object + probe state."""
    return math.sqrt(states.second_moment(joint_state, noise_operator(model)))


def joint_disturbance(model, joint_state):
    """eta on an already-assembled object + probe state."""
    return math.sqrt(states.second_moment(joint_state, disturbance_operator(model)))


def _joint(model, object_state, probe_state):
    for state, name in ((object_state, "object"), (probe_state, "probe")):
        if state.system.n != 1:
            raise ValueError(f"{name} state must be single-mode")
        if state.system.hbar != model.system.hbar:
            raise ValueError(f"{name} state hbar differs from the model's")
    return states.product(object_state, probe_state)


def noise(model, object_state, probe_state):
    """Root-mean-square error epsilon of the readout against A(t)."""
    return joint_noise(model, _joint(model, object_state, probe_state))


def disturbance(model, object_state, probe_state):
    """Root-mean-square change eta of the object momentum over the window."""
    return joint_disturbance(model, _joint(model, object_state, probe_state))


@dataclass(frozen=True)
class NoiseReport:
    """Noise-disturbance figures for one model on one preparation."""

    model: str
    epsilon: float
    eta: float
    product: float
    bound: float
    satisfied: bool
    sigma_x: float
    tradeoff: float
    tradeoff_satisfied: bool

    def __post_init__(self):
        for name in ("epsilon", "eta", "product", "bound", "sigma_x", "tradeoff"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative")


def heisenberg_verdict(model, object_state, probe_state, tol=ONE_SIDED_TOL):
    """Score epsilon * eta against hbar/2, and the trade-off that replaces it.

    ``satisfied`` reports epsilon * eta >= hbar/2 - tol.  A False verdict
    on a physical preparation is the point, not an error: the rotated
    coupling drives the product to zero.  ``tradeoff`` carries
    sigma(x, t) * eta, which stays above hbar/2 whenever the disturbance
    operator has the canonical commutator with position.
    """
    joint = _joint(model, object_state, probe_state)
    epsilon = joint_noise(model, joint)
    eta = joint_disturbance(model, joint)
    bound = model.system.hbar / 2.0
    sigma_x = states.std_dev(
        object_state, canonical.position(object_state.system, 0))
    tradeoff = sigma_x * eta
    return NoiseReport(
        model=model.name,
        epsilon=epsilon,
        eta=eta,
        product=epsilon * eta,
        bound=bound,
        satisfied=epsilon * eta >= bound - tol,
        sigma_x=sigma_x,
        tradeoff=tradeoff,
        tradeoff_satisfied=tradeoff >= bound - tol,
    )


def realization_residual(model=None, swapped=False):
    """Frobenius gap between a model's window and its shear factorization.

    The window should equal the composition of ``model.steps``, first step
    first; the default is the rotated coupling, which factors into the
    back-action-evading shear and then the stretch shear.  With
    ``swapped=True`` the steps are composed in reverse order, which should
    miss by an O(1) amount whenever the order is load-bearing.
    """
    if model is None:
        model = noiseless_model()
    if not model.steps:
        raise ValueError(f"model {model.name!r} has no shear factorization")
    steps = model.steps[::-1] if swapped else model.steps
    composed = reduce(lambda first, second: first.then(second),
                      (shear_propagation(model.system, step) for step in steps))
    return float(np.linalg.norm(composed.matrix - model.endpoint.matrix))


class SweepPoint(NamedTuple):
    sigma_p: float
    report: NoiseReport
    sigma_x_post: float


def limit_sweep(model, sigma_ps):
    """Drive identical minimum-uncertainty preparations to the sharp limit.

    Object and probe both get zero-mean packets with momentum spread
    sigma_p and the saturating position spread hbar / (2 sigma_p).  Each
    point carries the full noise report plus the post-window object
    position spread, the quantity that blows up as the momentum kick
    grows.
    """
    hbar = model.system.hbar
    points = []
    for sigma_p in sigma_ps:
        sp = float(sigma_p)
        if not (math.isfinite(sp) and sp > 0):
            raise ValueError(f"sigma_p values must be positive, got {sigma_p!r}")
        spec = states.GaussianSpec(sigma_x=hbar / (2.0 * sp), sigma_p=sp)
        obj = states.from_gaussian(spec, hbar=hbar, labels=("object",))
        probe = states.from_gaussian(spec, hbar=hbar, labels=("probe",))
        report = heisenberg_verdict(model, obj, probe)
        out = states.evolve(states.product(obj, probe), model.endpoint)
        sigma_x_post = states.std_dev(
            out, canonical.position(out.system, OBJECT_MODE))
        points.append(SweepPoint(sigma_p=sp, report=report,
                                 sigma_x_post=sigma_x_post))
    return points
