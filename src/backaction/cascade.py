"""Two back-to-back measurement windows on one object.

Repeatability asks whether an immediately repeated measurement returns the
first outcome.  Operationally: run the window on probe 1, run a fresh copy
of the window on probe 2, and compare the two pointer outputs as
Heisenberg-picture observables,

    deviation^2 = < (z(t + 2 dt) - y(t + dt))^2 >

over the object x probe1 x probe2 product state.  A model is
alpha-repeatable on a preparation when the deviation is at most alpha.

Both outputs are read off the single-window endpoint map S on
(x, p_x, y, p_y).  With row = S[2], the pointer row, window 1 gives
y(t + dt) = row . (x, p_x, y, p_y).  Window 2 meets the object as window 1
left it, (x, p_x)(t + dt) = S[:2] (x, p_x, y, p_y), and a fresh probe, so
z(t + 2 dt) = row[:2] . S[:2] (x, p_x, y, p_y) + row[2:] . (z, p_z).  The
same endpoint map that defines noise and disturbance thus fixes the gap;
there is no second implementation to drift out of sync.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import canonical, measurement, states


@dataclass(frozen=True, eq=False)
class CascadeScenario:
    """One object, two identically-coupled probes, consumed in order.

    Both probes start in ``probe_state``.  The object x probe1 x probe2
    product state ``joint`` is built with the scenario.
    """

    model: measurement.MeasurementModel
    object_state: states.MomentState
    probe_state: states.MomentState
    joint: states.MomentState = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "joint", measurement._joint(
            self.model, self.object_state, self.probe_state, self.probe_state))


def gap_observable(scenario):
    """z(t + 2 dt) - y(t + dt) as a linear observable at time t.

    Coefficients over (x, p_x, y, p_y, z, p_z): S[:2]^T row[:2] - row over
    object + probe1 and row[2:] over probe2, with row = S[2].
    """
    s = scenario.model.endpoint.matrix
    row = s[2]
    coeffs = np.concatenate([s[:2].T @ row[:2] - row, row[2:]])
    return canonical.LinearObservable(scenario.joint.system, coeffs)


def repeatability_deviation(scenario):
    """Root mean square gap between the two pointer outputs."""
    return math.sqrt(states.second_moment(scenario.joint, gap_observable(scenario)))


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
