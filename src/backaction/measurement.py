"""Indirect position measurements from bilinear object-probe couplings.

An indirect measurement couples the object (mode 0) to a probe (mode 1)
for a window dt, then reads a probe observable M.  Precision and
back-action are second moments of two operators taken in the Heisenberg
picture across the window:

    noise operator       N = M(t + dt) - A(t)      epsilon = <N^2>^(1/2)
    disturbance operator D = B(t + dt) - B(t)      eta     = <D^2>^(1/2)

with M the pointer position, A the object position it measures and B the
object momentum it disturbs.  The window is one transcription, K dt = 1,
so it lasts unit time and the coupling strength K is no parameter.  Both
operators are linear in the canonical coordinates and are built with the
model, so the figures come out of moment states exactly, with no
discretization anywhere.

Two couplings are built in.  The stretch coupling x p_y is the textbook
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
from typing import Callable, NamedTuple

import numpy as np

from . import canonical, grid, states
from .canonical import LinearObservable, ModeSystem, build_quadratic

# One-sided slack for assertions that an exact quantity vanished; the
# endpoint map comes from a floating-point exponential, so identically-zero
# coefficients reappear at the 1e-16 level.
ONE_SIDED_TOL = 1e-12

OBJECT_MODE = 0
PROBE_MODE = 1

# Coordinate names of the object + probe vector (x, p_x, y, p_y).
COORDS = {"x": 0, "px": 1, "y": 2, "py": 3}


class Reference(NamedTuple):
    """A built-in model's notes and closed forms, kept beside its terms.

    A sweep's closed form maps (row, hbar) to (value, form, scale), met
    within exact * scale at every row.  Each form halves or doubles from
    one row to the next, so rows that meet their forms are in order too.
    """

    notes: dict  # check -> the note its report prints
    deviation: Callable  # cascade deviation of the probe's (sigma_y, mean_y)
    sweeps: dict  # kind -> (note, {condition: closed form})


@dataclass(frozen=True, eq=False)
class MeasurementModel:
    """A bilinear coupling window with the observables read off it.

    ``hamiltonian`` generates the window over unit time, dt = 1: every
    closed form downstream assumes it; ``system`` is the hamiltonian's.  The
    pointer reads the object position ``measured``.  ``steps`` is the window's
    factorization into grid shears, which the grid cross-check and the
    realization check read; it and ``reference``, a built-in model's notes
    and closed forms, are empty for custom models.  The endpoint map, the
    ``readout`` M(t + dt) and the noise and disturbance operators are built
    with the model, so a window that is not symplectic fails construction.
    ``exact_readout``: every noise coefficient is at most ``ONE_SIDED_TOL``,
    so epsilon = 0 on every preparation.
    """

    name: str
    hamiltonian: canonical.QuadraticHamiltonian
    steps: tuple = ()
    reference: Reference | None = None
    system: ModeSystem = field(init=False, repr=False)
    measured: LinearObservable = field(init=False, repr=False)
    endpoint: canonical.SymplecticPropagation = field(init=False, repr=False)
    readout: LinearObservable = field(init=False, repr=False)
    noise_operator: LinearObservable = field(init=False, repr=False)
    disturbance_operator: LinearObservable = field(init=False, repr=False)
    exact_readout: bool = field(init=False, repr=False)

    dt = 1.0  # the window's length, fixed: not a field

    def __post_init__(self):
        system = self.hamiltonian.system
        if system.n != 2:
            raise ValueError("measurement models live on object + probe (2 modes)")
        measured = canonical.position(system, OBJECT_MODE)
        probe_obs = canonical.position(system, PROBE_MODE)
        px = canonical.momentum(system, OBJECT_MODE)
        # Symplectic map across the full window (t, t + dt).
        endpoint = canonical.propagate(self.hamiltonian, self.dt)
        readout = canonical.heisenberg_apply(endpoint, probe_obs)
        # N = M(t + dt) - A(t) and D = p_x(t + dt) - p_x(t).
        noise = readout - measured
        for name, value in (
                ("system", system), ("measured", measured),
                ("endpoint", endpoint), ("readout", readout),
                ("noise_operator", noise),
                ("disturbance_operator",
                 canonical.heisenberg_apply(endpoint, px) - px),
                ("exact_readout",
                 bool(np.max(np.abs(noise.coeffs)) <= ONE_SIDED_TOL))):
            object.__setattr__(self, name, value)

    def propagation(self, tau):
        """Symplectic map across (t, t + tau) for any finite tau."""
        return canonical.propagate(self.hamiltonian, tau)


def coupling_model(name, terms, hbar=1.0, steps=(), reference=None):
    """Object + probe model of the window sum c * first * second, from
    (c, first, second) ``terms`` whose coordinates ``COORDS`` names."""
    system = ModeSystem(2, hbar=hbar, labels=("object", "probe"))
    hamiltonian = build_quadratic(
        system, [(c, COORDS[first], COORDS[second]) for c, first, second in terms])
    return MeasurementModel(name=name, hamiltonian=hamiltonian, steps=steps,
                            reference=reference)


VON_NEUMANN_REFERENCE = Reference(
    notes={
        "verdict": "stretch coupling obeys the hbar/2 noise-disturbance bound",
        "repeatability": ("deviation carries both pointer spreads; no better "
                          "than sqrt(2) sigma(y)")},
    # Both pointers' spreads; the sharpen_pointer match reads it too.
    deviation=lambda sigma_y, mean_y: math.sqrt(2.0) * sigma_y,
    sweeps={
        "sharpen_momentum": (
            "minimum-uncertainty preparations pin the stretch coupling "
            "exactly at the hbar/2 bound at every sharpness",
            {"product_at_bound": lambda row, hbar: (
                row["product"], hbar / 2.0, hbar / 2.0)}),
        "sharpen_pointer": (
            "deviation tracks sqrt(2) sigma(y) for the stretch coupling",
            {"deviation_matches_sqrt2_sigma_y": lambda row, hbar: (
                row["deviation"],
                VON_NEUMANN_REFERENCE.deviation(row["sigma_y"], 0.0),
                row["sigma_y"])}),
    })


def von_neumann_model(hbar=1.0):
    """Stretch coupling x p_y reading the pointer position."""
    return coupling_model("von_neumann", [(1.0, "x", "py")], hbar,
                          grid.VON_NEUMANN_STEPS, VON_NEUMANN_REFERENCE)


NOISELESS_REFERENCE = Reference(
    notes={"repeatability": ("second readout reproduces the first within the "
                             "pointer spread: sigma(y)-approximate "
                             "repeatability"),
           "realization": ("window factors into the back-action-evading shear "
                           "followed by the stretch shear; the swapped order "
                           "must miss")},
    # The second pointer reads the first, spread and offset: the deviation
    # is hypot(sigma_y, mean_y), which the sharpen_pointer match shares.
    deviation=math.hypot,
    sweeps={
        "sharpen_momentum": (
            "precision is free of the momentum spread: epsilon stays zero "
            "while the kick is paid by the object position spread afterwards",
            # epsilon is rounding at the size of either packet: sigma_p, or
            # sigma_x = hbar / (2 sigma_p).
            {"epsilon_zero": lambda row, hbar: (
                row["epsilon"], 0.0,
                max(hbar / (2.0 * row["sigma_p"]), row["sigma_p"])),
             "eta_matches_sqrt2_sigma_p": lambda row, hbar: (
                row["eta"], math.sqrt(2.0) * row["sigma_p"], row["sigma_p"]),
             "sigma_x_post_matches_closed_form": lambda row, hbar: (
                row["sigma_x_post"],
                math.sqrt(2.0) * hbar / (2.0 * row["sigma_p"]),
                math.sqrt(2.0) * hbar / (2.0 * row["sigma_p"]))}),
        "sharpen_pointer": (
            "repeatability sharpens without limit while the readout stays "
            "exact; there is no residual floor",
            # Scale 1.0: the deviation's rounding is absolute, set by the
            # sweep object's fixed sigma_x = 1 (cascade.repeatability_sweep).
            {"epsilon_zero": lambda row, hbar: (row["epsilon"], 0.0, 1.0),
             "deviation_matches_sigma_y": lambda row, hbar: (
                row["deviation"],
                NOISELESS_REFERENCE.deviation(row["sigma_y"], 0.0), 1.0)}),
    })


def noiseless_model(hbar=1.0):
    """Rotated coupling whose pointer reads object position exactly.

    The Hamiltonian (pi / 3 sqrt(3)) (2 x p_y - 2 p_x y + x p_x - y p_y)
    generates, over one window, the map

        x -> x - y,   y -> x,   p_x -> -p_y,   p_y -> p_x + p_y,

    so the pointer output y(t + dt) = x(t): the noise operator vanishes
    identically and epsilon = 0 for every input state.  The x p_x and
    y p_y terms carry equal and opposite ordering constants, which is what
    lets build_quadratic accept the list.
    """
    g = math.pi / (3.0 * math.sqrt(3.0))
    return coupling_model("noiseless", [
        (2.0 * g, "x", "py"),
        (-2.0 * g, "px", "y"),
        (g, "x", "px"),
        (-g, "y", "py"),
    ], hbar, grid.NOISELESS_STEPS, NOISELESS_REFERENCE)


def shear_propagation(system, step):
    """Symplectic map of one grid shear on object + probe: the window
    s theta q_other p_moved over unit time, as ``grid.SHEARS`` declares."""
    moved, sign = step.axes
    term = (sign * step.theta, system.position_index(1 - moved),
            system.momentum_index(moved))
    return canonical.propagate(build_quadratic(system, [term]), 1.0)


def joint_noise(model, joint_state):
    """epsilon on an already-assembled object + probe state."""
    return math.sqrt(states.second_moment(joint_state, model.noise_operator))


def joint_disturbance(model, joint_state):
    """eta on an already-assembled object + probe state."""
    return math.sqrt(
        states.second_moment(joint_state, model.disturbance_operator))


def _joint(model, object_state, *probe_states):
    """Object x probes product state, each register single-mode at model hbar."""
    names = ("object",) + ("probe",) * len(probe_states)
    for state, name in zip((object_state, *probe_states), names):
        if state.system.n != 1:
            raise ValueError(f"{name} state must be single-mode")
        if state.system.hbar != model.system.hbar:
            raise ValueError(f"{name} state hbar differs from the model's")
    return states.product(object_state, *probe_states)


def noise(model, object_state, probe_state):
    """Root-mean-square error epsilon of the readout against A(t)."""
    return joint_noise(model, _joint(model, object_state, probe_state))


def disturbance(model, object_state, probe_state):
    """Root-mean-square change eta of the object momentum over the window."""
    return joint_disturbance(model, _joint(model, object_state, probe_state))


@dataclass(frozen=True)
class NoiseReport:
    """Noise-disturbance figures for one model on one preparation."""

    epsilon: float
    eta: float
    product: float
    bound: float
    product_meets_bound: bool
    sigma_x: float
    tradeoff: float
    tradeoff_meets_bound: bool

    def __post_init__(self):
        for name in ("epsilon", "eta", "product", "bound", "sigma_x", "tradeoff"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative")


def heisenberg_verdict(model, object_state, probe_state, tol=ONE_SIDED_TOL):
    """Score epsilon * eta against hbar/2, and the trade-off that replaces it.

    ``product_meets_bound`` reports epsilon * eta >= (hbar/2)(1 - tol), a
    slack relative to the bound at any hbar.  A False verdict on a physical
    preparation is the point: the rotated coupling drives the product to
    zero.  ``tradeoff`` carries sigma(x, t) * eta, which stays above hbar/2
    whenever the disturbance operator has the canonical commutator with
    position; ``tradeoff_meets_bound`` scores it the same way.
    """
    return _joint_verdict(model, _joint(model, object_state, probe_state), tol)


def _joint_verdict(model, joint, tol):
    """heisenberg_verdict on an already-assembled object + probe state."""
    epsilon = joint_noise(model, joint)
    eta = joint_disturbance(model, joint)
    bound = model.system.hbar / 2.0
    floor = bound * (1.0 - tol)
    sigma_x = states.std_dev(joint, model.measured)
    tradeoff = sigma_x * eta
    return NoiseReport(
        epsilon=epsilon,
        eta=eta,
        product=epsilon * eta,
        bound=bound,
        product_meets_bound=epsilon * eta >= floor,
        sigma_x=sigma_x,
        tradeoff=tradeoff,
        tradeoff_meets_bound=tradeoff >= floor,
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
    x_post = canonical.heisenberg_apply(model.endpoint, model.measured)
    points = []
    for sigma_p in sigma_ps:
        sp = float(sigma_p)
        if not (math.isfinite(sp) and sp > 0):
            raise ValueError(f"sigma_p values must be positive, got {sigma_p!r}")
        spec = states.GaussianSpec(sigma_x=hbar / (2.0 * sp), sigma_p=sp)
        joint = states.from_gaussian(
            (spec, spec), hbar=hbar, labels=("object", "probe"))
        points.append(SweepPoint(
            sigma_p=sp, report=_joint_verdict(model, joint, ONE_SIDED_TOL),
            sigma_x_post=states.std_dev(joint, x_post)))
    return points
