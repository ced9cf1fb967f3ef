"""Wavefunction-level cross-check on a periodic grid.

The moment engine computes epsilon and eta from closed-form symplectic
maps.  This module recomputes them with none of that machinery: the joint
wavefunction psi(x, y) lives on a periodic grid, the coupling
window is applied as a sequence of shear unitaries (each one exact up to
rounding, implemented as an FFT phase ramp), and the error fields

    noise field        y * (U psi) - U (x * psi)
    disturbance field  p_x (U psi) - U (p_x psi)

are integrated directly.  Agreement between the two routes is the
acceptance evidence that the symplectic bookkeeping means what it claims.

psi, x psi and p_x psi go through the window together, as one (3, nx, ny)
stack sheared in place: one ramp and one FFT pair along the shear axis per
step.  Each ramp exp(-i theta q k) is factored over a split of the q index
into ~sqrt(n) coarse and fine parts, so it costs O(n^1.5) complex exps
instead of n^2.  The disturbance field is integrated in k_x space
(Parseval), where p_x is a multiplication, and ``grid_moments`` reads every
first and second moment off one real Gram matrix of a (5, nx, ny) stack.

Everything here works in hbar = 1 units; rescale momenta on the way in
(``unit_hbar_spec``) and multiply eta by hbar on the way out.

Axis convention: ``amplitudes[i, j]`` is psi(x[i], y[j]); x is the object
coordinate, y the pointer.  Periodicity makes large shears wrap around, so
every public shear guards the box: mass in the outer 5 percent shell above
``boundary_threshold`` aborts the run rather than silently aliasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.fft

from .states import GaussianSpec

DEFAULT_POINTS = 512

DEFAULT_BOUNDARY_THRESHOLD = 1e-8

# Fraction of each axis, per side, treated as the guard shell.
BOUNDARY_SHELL = 0.05

# A shear displacing mass across this fraction of the box height has
# wrapped no matter what the shell says afterwards; refuse up front.
_WRAP_FRACTION = 0.9

_NORM_TOL = 1e-9

# Pure single packets force sigma_x sigma_p sqrt(1 - rho^2) = 1/2 exactly.
PURITY_TOL = 1e-9

# Smallest box half-width ``auto_half_width`` returns.
MIN_HALF_WIDTH = 10.0


class BoundaryMassError(RuntimeError):
    """Wavefunction mass reached the periodic boundary guard shell."""


class ShearStep(NamedTuple):
    """One elementary shear: kind is 'x_py' or 'px_y', theta its strength.

    'x_py' with strength theta maps psi(x, y) -> psi(x, y - theta x), the
    unit-window stretch coupling when theta = 1.  'px_y' maps
    psi(x, y) -> psi(x + theta y, y), the back-action-evading partner.
    """

    kind: str
    theta: float


VON_NEUMANN_STEPS = (ShearStep("x_py", 1.0),)

# Back-action-evading shear first, stretch shear second: the order the
# factoring identity demands.
NOISELESS_STEPS = (ShearStep("px_y", 1.0), ShearStep("x_py", 1.0))

# Read by the benchmark only; models carry their own ``steps``.
MODEL_STEPS = {
    "von_neumann": VON_NEUMANN_STEPS,
    "noiseless": NOISELESS_STEPS,
}


@dataclass(frozen=True, eq=False)
class GridState:
    """Normalized two-mode wavefunction on a periodic box."""

    nx: int
    ny: int
    lx: float
    ly: float
    amplitudes: np.ndarray

    def __post_init__(self):
        for n, name in ((self.nx, "nx"), (self.ny, "ny")):
            if not isinstance(n, int) or n < 16 or n & (n - 1):
                raise ValueError(f"{name} must be a power of two >= 16, got {n!r}")
        for l, name in ((self.lx, "lx"), (self.ly, "ly")):
            if not (math.isfinite(l) and l > 0):
                raise ValueError(f"{name} must be positive, got {l!r}")
        arr = np.array(self.amplitudes, dtype=complex)
        if arr.shape != (self.nx, self.ny):
            raise ValueError(
                f"amplitudes must have shape ({self.nx}, {self.ny}), got {arr.shape}")
        _check_amplitudes(arr, self.cell_area)
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dx(self):
        return 2.0 * self.lx / self.nx

    @property
    def dy(self):
        return 2.0 * self.ly / self.ny

    @property
    def cell_area(self):
        return self.dx * self.dy

    @property
    def x(self):
        return -self.lx + self.dx * np.arange(self.nx)

    @property
    def y(self):
        return -self.ly + self.dy * np.arange(self.ny)

    @property
    def kx(self):
        return 2.0 * math.pi * scipy.fft.fftfreq(self.nx, d=self.dx)

    @property
    def ky(self):
        return 2.0 * math.pi * scipy.fft.fftfreq(self.ny, d=self.dy)


def _check_amplitudes(raw, cell_area):
    """Refuse non-finite or unnormalized amplitudes without copying them."""
    norm_sq = float(np.vdot(raw, raw).real)
    if not math.isfinite(norm_sq) and not np.all(np.isfinite(raw)):
        raise ValueError("amplitudes contain non-finite entries")
    norm = math.sqrt(norm_sq * cell_area)
    if not abs(norm - 1.0) <= _NORM_TOL:
        raise ValueError(f"amplitudes must be normalized, got norm {norm!r}")


def unit_hbar_spec(spec, hbar):
    """Rescale a Gaussian spec into the grid's hbar = 1 units (p -> p/hbar)."""
    return GaussianSpec(
        sigma_x=spec.sigma_x,
        sigma_p=spec.sigma_p / hbar,
        mean_x=spec.mean_x,
        mean_p=spec.mean_p / hbar,
        correlation=spec.correlation)


def _pure_packet(coords, spec):
    """Minimum-uncertainty 1-D packet with x-p correlation, hbar = 1."""
    if abs(spec.uncertainty_product() - 0.5) > PURITY_TOL:
        raise ValueError(
            "grid packets are pure states: need sigma_x * sigma_p * "
            f"sqrt(1 - rho^2) = 1/2, got {spec.uncertainty_product():.6g}")
    alpha = (1.0 / (4.0 * spec.sigma_x ** 2)
             - 0.5j * spec.correlation * spec.sigma_p / spec.sigma_x)
    shifted = coords - spec.mean_x
    return np.exp(-alpha * shifted ** 2 + 1j * spec.mean_p * shifted)


def _boundary_mask(n):
    shell = max(1, int(round(BOUNDARY_SHELL * n)))
    mask = np.zeros(n, dtype=bool)
    mask[:shell] = True
    mask[-shell:] = True
    return mask


def _density(raw, grid):
    """Probability mass per grid cell, |raw|^2 dA, in one buffer."""
    density = np.abs(raw)
    density *= density
    density *= grid.cell_area
    return density


def boundary_mass(state):
    """Probability mass inside the guard shell along either axis."""
    return _shell_mass(_density(state.amplitudes, state), state)


def _shell_mass(density, grid):
    in_x = _boundary_mask(grid.nx)
    in_y = _boundary_mask(grid.ny)
    shell = in_x[:, None] | in_y[None, :]
    return float(np.sum(density[shell]))


def auto_half_width(object_specs, probe_spec, n):
    """Box half-width covering both packets and their sheared images.

    The window maps each coordinate into a sum of the two input
    coordinates, so the needed position extent is bounded by the summed
    centers plus summed 8-sigma tails, padded by a quarter, and never less
    than ``MIN_HALF_WIDTH``.  The same budget applies in momentum: n grid
    points over a box of half-width L resolve wavenumbers up to
    pi n / (2 L), and that ceiling must clear the summed momentum content
    or the shears alias.  When no L satisfies
    both, the grid is too coarse and this raises rather than silently
    degrading.
    """
    reach_x = max(abs(s.mean_x) for s in object_specs) + abs(probe_spec.mean_x)
    spread_x = max(s.sigma_x for s in object_specs) + probe_spec.sigma_x
    half_width = max(MIN_HALF_WIDTH, 1.25 * (reach_x + 8.0 * spread_x))
    reach_k = max(abs(s.mean_p) for s in object_specs) + abs(probe_spec.mean_p)
    spread_k = max(s.sigma_p for s in object_specs) + probe_spec.sigma_p
    k_ceiling = math.pi * n / (2.0 * half_width)
    k_needed = reach_k + 8.0 * spread_k
    if k_needed > k_ceiling:
        raise ValueError(
            f"grid of {n} points cannot hold both a box of half-width "
            f"{half_width:.3g} and momentum content up to {k_needed:.3g} "
            f"(ceiling {k_ceiling:.3g}); increase the resolution")
    return half_width


def init_grid(object_components, probe_spec, nx=DEFAULT_POINTS,
              ny=DEFAULT_POINTS, half_width=None,
              boundary_threshold=DEFAULT_BOUNDARY_THRESHOLD):
    """Build psi(x, y) = object(x) * probe(y) on a square periodic box.

    Parameters
    ----------
    object_components : sequence of (weight, GaussianSpec)
        Superposition of pure packets along x.  A single entry is the
        plain Gaussian case; several entries give multi-peaked states.
    probe_spec : GaussianSpec
        Pure packet along y.
    half_width : float, optional
        Box half-width (shared by both axes); computed from the specs when
        omitted.

    All specs are interpreted in hbar = 1 units; see ``unit_hbar_spec``.
    """
    components = [(float(w), spec) for w, spec in object_components]
    if not components:
        raise ValueError("need at least one object component")
    if any(w <= 0 for w, _ in components):
        raise ValueError("component weights must be positive")
    if half_width is None:
        half_width = auto_half_width(
            [s for _, s in components], probe_spec, min(nx, ny))
    half_width = float(half_width)
    xs = -half_width + (2.0 * half_width / nx) * np.arange(nx)
    ys = -half_width + (2.0 * half_width / ny) * np.arange(ny)

    object_wave = np.zeros(nx, dtype=complex)
    for weight, spec in components:
        object_wave += weight * _pure_packet(xs, spec)
    probe_wave = _pure_packet(ys, probe_spec)
    amplitudes = np.outer(object_wave, probe_wave)
    norm = math.sqrt(float(np.sum(np.abs(amplitudes) ** 2))
                     * (2.0 * half_width / nx) * (2.0 * half_width / ny))
    if norm == 0.0:
        raise ValueError("wavefunction vanished on the grid")
    state = GridState(nx, ny, half_width, half_width, amplitudes / norm)
    mass = boundary_mass(state)
    if mass > boundary_threshold:
        raise BoundaryMassError(
            f"initial state already puts mass {mass:.3e} in the guard shell; "
            "enlarge half_width")
    return state


def init_gaussian_grid(object_spec, probe_spec, **kwargs):
    """Single-packet convenience wrapper around ``init_grid``."""
    return init_grid([(1.0, object_spec)], probe_spec, **kwargs)


def _phase_ramp(scale, start, spacing, n, k, q_axis):
    """Phase ramp exp(1j * scale * q k) on q = start + spacing * arange(n).

    n must be a power of two, as GridState guarantees.  q runs along ``q_axis`` of the C-ordered result, k along the other.
    Writing the index of q as a * block + b with block ~ sqrt(n) factors
    the ramp into coarse[a] * fine[b] for each k: 2 sqrt(n) complex exps
    per wavenumber instead of n, plus one multiply over the whole ramp.
    """
    block = 1 << (n.bit_length() // 2)
    sk = scale * k
    coarse_q = start + spacing * np.arange(0, n, block)
    fine_q = spacing * np.arange(block)
    if q_axis == 0:
        ramp = (np.exp(1j * np.multiply.outer(coarse_q, sk))[:, None, :]
                * np.exp(1j * np.multiply.outer(fine_q, sk))[None, :, :])
        return ramp.reshape(n, -1)
    ramp = (np.exp(1j * np.multiply.outer(sk, coarse_q))[:, :, None]
            * np.exp(1j * np.multiply.outer(sk, fine_q))[:, None, :])
    return ramp.reshape(-1, n)


def _shear_ramp(grid, step):
    """(FFT axis, phase ramp of shape (nx, ny)) of one shear."""
    if step.kind == "x_py":
        # psi(x, y) -> psi(x, y - theta x): translate along y by theta * x.
        return -1, _phase_ramp(-step.theta, -grid.lx, grid.dx, grid.nx,
                               grid.ky, q_axis=0)
    if step.kind == "px_y":
        # psi(x, y) -> psi(x + theta y, y): translate along x by -theta * y.
        return -2, _phase_ramp(step.theta, -grid.ly, grid.dy, grid.ny,
                               grid.kx, q_axis=1)
    raise ValueError(f"unknown shear kind {step.kind!r}")


def _wrap_guard(density, grid, step):
    """Refuse shears that translate occupied columns across the box."""
    if step.kind == "x_py":
        occupied = density.sum(axis=1) > 1e-14
        reach = float(np.max(np.abs(grid.x[occupied]), initial=0.0))
        span = 2.0 * grid.ly
    else:
        occupied = density.sum(axis=0) > 1e-14
        reach = float(np.max(np.abs(grid.y[occupied]), initial=0.0))
        span = 2.0 * grid.lx
    if abs(step.theta) * reach >= _WRAP_FRACTION * span:
        raise BoundaryMassError(
            f"shear {step.kind} theta={step.theta} would translate mass "
            f"{abs(step.theta) * reach:.3g} across a box of span {span:.3g}")


def _shear_stack(fields, grid, steps, boundary_threshold):
    """Shear a writable (m, nx, ny) stack in place, step by step.

    Every field goes through the same ramp and one FFT pair per step.  The
    guards read fields[0] alone, which must be psi: the wrap guard before
    each step, the boundary-mass guard after it.  scipy.fft transforms a
    complex stack in place, so only the ramp and psi's density are
    allocated per step; use the returned stack, not the argument.
    """
    density = _density(fields[0], grid)
    for step in steps:
        axis, ramp = _shear_ramp(grid, step)
        _wrap_guard(density, grid, step)
        fields = scipy.fft.fft(fields, axis=axis, overwrite_x=True)
        fields *= ramp
        del ramp  # free it before the next step builds its own
        fields = scipy.fft.ifft(fields, axis=axis, overwrite_x=True)
        density = _density(fields[0], grid)
        mass = _shell_mass(density, grid)
        if mass > boundary_threshold:
            raise BoundaryMassError(
                f"after shear {step.kind} theta={step.theta}: boundary mass "
                f"{mass:.3e} exceeds {boundary_threshold:.3e}")
    return fields


def apply_steps(state, steps, boundary_threshold=DEFAULT_BOUNDARY_THRESHOLD):
    """Apply a shear sequence with wrap and boundary guards at every step."""
    fields = _shear_stack(state.amplitudes[None].copy(), state, steps,
                          boundary_threshold)
    return GridState(state.nx, state.ny, state.lx, state.ly, fields[0])


def _spectral_p(raw, k, axis):
    """Momentum operator -i d/dq along ``axis``; k broadcasts against raw."""
    spec = scipy.fft.fft(raw, axis=axis)
    spec *= k
    return scipy.fft.ifft(spec, axis=axis, overwrite_x=True)


def _sq_norm(raw):
    """Sum of |raw|^2 over a 2-D field without an n^2 temporary.

    Rows are summed first and the row sums pairwise, which keeps the
    rounding at the level of np.sum(np.abs(raw) ** 2).
    """
    flat = raw.view(float)
    return float(np.sum(np.einsum("ij,ij->i", flat, flat)))


def grid_noise_disturbance(state, steps,
                           boundary_threshold=DEFAULT_BOUNDARY_THRESHOLD):
    """(epsilon, eta) straight from wavefunctions, hbar = 1.

    epsilon^2 integrates |y U psi - U x psi|^2: the pointer readout after
    the window against the position it was meant to record.  eta^2
    integrates |p_x U psi - U p_x psi|^2, evaluated along k_x by Parseval.
    The auxiliary fields x psi and p_x psi ride through the same shears as
    psi itself, as one stack.
    """
    raw = state.amplitudes
    # p_x psi sits next to psi so that fields[:2] is one block for the
    # final transform along x.
    fields = np.empty((3, state.nx, state.ny), dtype=complex)
    fields[0] = raw
    fields[1] = _spectral_p(raw, state.kx[:, None], axis=0)
    np.multiply(state.x[:, None], raw, out=fields[2])
    fields = _shear_stack(fields, state, steps, boundary_threshold)
    u_psi = fields[0]
    _check_amplitudes(u_psi, state.cell_area)

    noise_field = fields[2]
    noise_field -= state.y[None, :] * u_psi
    epsilon = math.sqrt(_sq_norm(noise_field) * state.cell_area)

    spectra = scipy.fft.fft(fields[:2], axis=1, overwrite_x=True)
    dist_spectrum = spectra[0]
    dist_spectrum *= state.kx[:, None]
    dist_spectrum -= spectra[1]
    eta = math.sqrt(_sq_norm(dist_spectrum) / state.nx * state.cell_area)
    return epsilon, eta


def grid_moments(state):
    """Mean vector and covariance over (x, p_x, y, p_y), hbar = 1.

    psi, x psi, p_x psi, y psi and p_y psi share one stack; the real Gram
    matrix of its float view is Re <f_i, f_j> exactly.  Row 0 gives the means, and
    centering is algebraic: Re <f_i - m_i psi, f_j - m_j psi>
    = G_ij - m_i m_j (2 - G_00) once G is scaled by the cell area.
    """
    raw = state.amplitudes
    fields = np.empty((5, state.nx, state.ny), dtype=complex)
    fields[0] = raw
    np.multiply(state.x[:, None], raw, out=fields[1])
    fields[2] = _spectral_p(raw, state.kx[:, None], axis=0)
    np.multiply(state.y[None, :], raw, out=fields[3])
    fields[4] = _spectral_p(raw, state.ky[None, :], axis=1)
    flat = fields.view(float).reshape(5, -1)
    gram = flat @ flat.T
    gram = 0.5 * (gram + gram.T) * state.cell_area
    mean = gram[0, 1:]
    cov = gram[1:, 1:] - (2.0 - gram[0, 0]) * np.outer(mean, mean)
    return mean, cov


def position_marginal(state, axis=0):
    """(coordinates, probability masses) along x (axis 0) or y (axis 1)."""
    if axis not in (0, 1):
        raise ValueError("axis must be 0 (x) or 1 (y)")
    masses = _density(state.amplitudes, state).sum(axis=1 - axis)
    coords = state.x if axis == 0 else state.y
    return coords, masses


def output_histogram(state, steps, edges,
                     boundary_threshold=DEFAULT_BOUNDARY_THRESHOLD):
    """Pointer-readout histogram after the window, on given bin edges."""
    fields = _shear_stack(state.amplitudes[None].copy(), state, steps,
                          boundary_threshold)
    _check_amplitudes(fields[0], state.cell_area)
    masses = _density(fields[0], state).sum(axis=0)
    hist, _ = np.histogram(state.y, bins=edges, weights=masses)
    return hist


def total_variation(p, q):
    """Total variation distance between two histograms on shared bins."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"histogram shapes differ: {p.shape} vs {q.shape}")
    return 0.5 * float(np.sum(np.abs(p - q)))
