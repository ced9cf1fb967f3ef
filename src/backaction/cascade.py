"""Two back-to-back measurement windows on one object.

Repeatability asks whether an immediately repeated measurement returns the
first outcome.  Operationally: run the window on probe 1, run a fresh copy
of the window on probe 2, and compare the two pointer outputs as
Heisenberg-picture observables,

    deviation^2 = < (z(t + 2 dt) - y(t + dt))^2 >

over the object x probe1 x probe2 product state.  A model is
alpha-repeatable on a preparation when the deviation is at most alpha.

Each window acts on the three-mode system as the single-window endpoint
map on object + probe1 (then object + probe2) and as the identity on the
probe it leaves alone; the cascade composes the two.  So the same
endpoint map that defines noise and disturbance also drives the cascade;
there is no second implementation to drift out of sync.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import canonical, measurement, states
from .canonical import ModeSystem

OBJECT_MODE = 0
FIRST_PROBE_MODE = 1
SECOND_PROBE_MODE = 2


@dataclass(frozen=True, eq=False)
class CascadeScenario:
    """One object, two identically-coupled probes, consumed in order.

    Both probes start in ``probe_state``.
    """

    model: measurement.MeasurementModel
    object_state: states.MomentState
    probe_state: states.MomentState

    def __post_init__(self):
        hbar = self.model.system.hbar
        for name in ("object_state", "probe_state"):
            state = getattr(self, name)
            if state.system.n != 1:
                raise ValueError(f"{name} must be single-mode")
            if state.system.hbar != hbar:
                raise ValueError(f"{name} hbar differs from the model's")

    def composite_system(self):
        return ModeSystem(
            3, hbar=self.model.system.hbar,
            labels=("object", "probe1", "probe2"))

    def joint_state(self):
        return states.product(
            states.product(self.object_state, self.probe_state),
            self.probe_state)


def _windows(scenario):
    """Propagations of window 1 and window 2 on object + probe1 + probe2."""
    system = scenario.composite_system()
    endpoint = scenario.model.endpoint.matrix
    windows = []
    for probe in (FIRST_PROBE_MODE, SECOND_PROBE_MODE):
        coords = [2 * OBJECT_MODE, 2 * OBJECT_MODE + 1, 2 * probe, 2 * probe + 1]
        matrix = np.eye(system.dim)
        matrix[np.ix_(coords, coords)] = endpoint
        windows.append(canonical.SymplecticPropagation(system, matrix))
    return windows


def first_readout(scenario):
    """Pointer 1 output y(t + dt), written as an observable at time t."""
    first, _ = _windows(scenario)
    pointer = canonical.position(scenario.composite_system(), FIRST_PROBE_MODE)
    return canonical.heisenberg_apply(first, pointer)


def second_readout(scenario):
    """Pointer 2 output z(t + 2 dt), written as an observable at time t."""
    first, second = _windows(scenario)
    pointer = canonical.position(scenario.composite_system(), SECOND_PROBE_MODE)
    return canonical.heisenberg_apply(first.then(second), pointer)


def repeatability_deviation(scenario):
    """Root mean square gap between the two pointer outputs."""
    gap = second_readout(scenario) - first_readout(scenario)
    return math.sqrt(states.second_moment(scenario.joint_state(), gap))


def is_alpha_repeatable(scenario, alpha):
    """Whether the repeated readout agrees to within alpha."""
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"alpha must be finite and non-negative, got {alpha!r}")
    return repeatability_deviation(scenario) <= alpha


class RepeatabilityPoint(NamedTuple):
    sigma_y: float
    deviation: float
    report: measurement.NoiseReport


def repeatability_sweep(model, sigma_ys):
    """Sharpen the probe pointer and track the cascade deviation.

    The object is a zero-mean packet with sigma_x = 1 and sigma_p = hbar/2.
    Probes are zero-mean minimum-uncertainty packets with position spread
    sigma_y (both windows use the same preparation).  Each point also
    carries the single-window noise report, so a sweep shows deviation and
    epsilon shrinking together while eta pays for it.
    """
    hbar = model.system.hbar
    obj = states.from_gaussian(
        states.GaussianSpec(sigma_x=1.0, sigma_p=hbar / 2.0),
        hbar=hbar, labels=("object",))
    points = []
    for sigma_y in sigma_ys:
        sy = float(sigma_y)
        if not (math.isfinite(sy) and sy > 0):
            raise ValueError(f"sigma_y values must be positive, got {sigma_y!r}")
        probe_spec = states.GaussianSpec(sigma_x=sy, sigma_p=hbar / (2.0 * sy))
        probe = states.from_gaussian(probe_spec, hbar=hbar, labels=("probe",))
        scenario = CascadeScenario(model, obj, probe)
        points.append(RepeatabilityPoint(
            sigma_y=sy,
            deviation=repeatability_deviation(scenario),
            report=measurement.heisenberg_verdict(model, obj, probe)))
    return points
