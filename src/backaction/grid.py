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

``window_pass`` shears psi under the box guards, then x psi and p_x psi in
turn in one second buffer, so no call holds over 2.5 complex fields beyond
its input.  A y shear acts row by row, so when every step moves y,
U x psi = x U psi and x psi is not sheared: epsilon^2 is the sum of
(y - x)^2 over the last density.  For either shear kind, each ramp factors
over ~sqrt(n) coarse and fine parts of its row coordinate, x or k_x
(O(n^1.5) complex exps, not n^2), and is applied one slab of ~sqrt(n) rows
at a time.  The disturbance field is integrated along k_x by Parseval.

Every window has at least one step; ``_guarded_shear`` refuses an empty
one.  Each kind of state has one route.  ``init_grid``'s product
phi(x) xi(y) stores only those 1-D factors, with ``amplitudes`` None: its
x and y marginals and shell mass come from the factors in O(n), the first
FFT of psi, x psi or p_x psi is taken on one factor and multiplied out
against the other, and ``grid_moments`` takes its Gram matrix from the
factors' 1-D inner products, also in O(n).  At 512^2 ``init_grid`` peaks
at 0.013 complex fields, and a gallery cross-check, load included, at
2.33.  Any other ``GridState`` (``apply_steps``' output, a user's array)
keeps its amplitudes and builds its density once, in its norm check;
``grid_moments`` sums each entry of its Gram matrix from the row dot
products of two fields, one row block at a time.  The guards build one
density after each step, whose sum over x is the pointer readout.  So a
noiseless cross-check builds two n^2 densities, none of them at load.

Every field that takes an FFT along x is made by ``_field``: a view of the
first ny columns of an (nx, ny + 1) buffer whose pad column is zero.  With
rows a power of two apart, every element of a column falls in the same few
cache sets, and an FFT along x costs about twice one along y.  numpy's
elementwise passes run slower on padded rows than on contiguous ones, so
those on a padded field (densities, ramps, the k_x and y multiplies and
the differences they feed) run over its whole buffer, where the pad stays
zero.  FFTs along y run over the view, since the pad would enter each
row's transform, and sums run over the view.  The padding changes no
value.

Everything here works in hbar = 1 units; rescale momenta on the way in
(``unit_hbar_spec``) and multiply eta by hbar on the way out.

Axis convention: ``amplitudes[i, j]`` is psi(x[i], y[j]); x is the object
coordinate, y the pointer.  Periodicity makes large shears wrap around, so
every public shear guards the box: mass in the outer 5 percent shell above
``BOUNDARY_THRESHOLD`` aborts the run rather than silently aliasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .states import pure_packet

DEFAULT_POINTS = 512

BOUNDARY_THRESHOLD = 1e-8

# Fraction of each axis, per side, treated as the guard shell.
BOUNDARY_SHELL = 0.05

# A shear displacing mass across this fraction of the box height has
# wrapped no matter what the shell says afterwards; refuse up front.
_WRAP_FRACTION = 0.9

_NORM_TOL = 1e-9

# Smallest box half-width ``auto_half_width`` returns.
MIN_HALF_WIDTH = 10.0


class BoundaryMassError(RuntimeError):
    """Wavefunction mass reached the periodic boundary guard shell."""


class ShearStep(NamedTuple):
    """One elementary shear: kind is a key of ``SHEARS``, theta its strength.

    'x_py' with strength theta maps psi(x, y) -> psi(x, y - theta x), the
    unit-window stretch coupling when theta = 1.  'px_y' maps
    psi(x, y) -> psi(x + theta y, y), the back-action-evading partner.
    """

    kind: str
    theta: float

    @property
    def axes(self):
        """(moved axis, sign s) of this step's kind, from ``SHEARS``."""
        if self.kind not in SHEARS:
            raise ValueError(f"unknown shear kind {self.kind!r}")
        return SHEARS[self.kind]


# kind -> (moved axis, sign s), axis 0 being x and 1 y: the shear maps
# psi -> psi(q_moved - s theta q_other), the window of s theta q_other p_moved.
SHEARS = {"x_py": (1, 1.0), "px_y": (0, -1.0)}


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
    """Normalized two-mode wavefunction on the periodic box [-lx, lx)^2,
    with (nx, ny) the shape of its grid.  The spacings ``dx``, ``dy`` and
    ``cell_area``, the coordinates ``x``, ``y`` and wavenumbers ``kx``,
    ``ky`` (from ``_grid_axis``), and the ``marginals`` (along x, y) and
    ``shell_mass`` (inside the guard shell along either axis) of its
    density are computed once and read-only.

    ``init_grid``'s product state phi(x) xi(y) has ``amplitudes`` None and
    keeps its read-only 1-D ``factors``; every other state keeps its
    read-only ``amplitudes`` and no factors."""

    lx: float
    amplitudes: np.ndarray | None
    factors = None  # a product state's 1-D (object, probe) waves

    def __post_init__(self):
        arr = np.asarray(self.amplitudes, dtype=complex)
        self._box(self.lx, arr.shape)
        if arr.strides[1] != arr.itemsize:  # rows must have float views
            arr = arr.copy()
        density = _density(arr, self.cell_area)
        self._keep((density.sum(axis=1), density.sum(axis=0),
                    _shell_mass(density)), amplitudes=arr)

    @classmethod
    def _on_box(cls, lx, shape):
        """A state on a checked box, for ``_keep`` to fill."""
        return object.__new__(cls)._box(lx, shape)

    def _box(self, lx, shape):
        """Check the box, then keep its geometry."""
        if not (math.isfinite(lx) and lx > 0):
            raise ValueError(f"lx must be positive, got {lx!r}")
        if len(shape) != 2 or any(n < 16 or n & (n - 1) for n in shape):
            raise ValueError("amplitudes must be 2-D with each side a power "
                             f"of two >= 16, got shape {shape}")
        (dx, x, kx), (dy, y, ky) = (_grid_axis(n, lx) for n in shape)
        for array in (x, y, kx, ky):
            array.setflags(write=False)
        self.__dict__.update(lx=lx, nx=shape[0], ny=shape[1], dx=dx, dy=dy,
                             cell_area=dx * dy, x=x, y=y, kx=kx, ky=ky)
        return self

    def _keep(self, figures, amplitudes=None, factors=None):
        """Check the norm of the density ``figures`` (x marginal, y marginal,
        shell mass) describe, then keep them and the state's ``amplitudes``
        or its ``factors``, read-only."""
        x_masses, y_masses, shell_mass = figures
        arrays = factors or (amplitudes,)
        _check_norm(float(np.sum(x_masses)), *arrays)
        for array in (*arrays, x_masses, y_masses):
            array.setflags(write=False)
        self.__dict__.update(amplitudes=amplitudes, factors=factors,
                             marginals=(x_masses, y_masses),
                             shell_mass=shell_mass)


def _grid_axis(n, half_width):
    """(spacing, coordinates, wavenumbers) of n points on [-half_width,
    half_width)."""
    d = 2.0 * half_width / n
    return (d, -half_width + d * np.arange(n),
            2.0 * math.pi * np.fft.fftfreq(n, d=d))


def _check_norm(norm_sq, *raws):
    """Return |norm - 1| from norm_sq, refusing non-finite or unnormalized
    raws."""
    if not math.isfinite(norm_sq) and not all(
            np.all(np.isfinite(raw)) for raw in raws):
        raise ValueError("amplitudes contain non-finite entries")
    norm = math.sqrt(norm_sq)
    if not abs(norm - 1.0) <= _NORM_TOL:
        raise ValueError(f"amplitudes must be normalized, got norm {norm!r}")
    return abs(norm - 1.0)


def unit_hbar_spec(spec, hbar):
    """Rescale a Gaussian spec into the grid's hbar = 1 units (p -> p/hbar)."""
    return replace(spec, sigma_p=spec.sigma_p / hbar, mean_p=spec.mean_p / hbar)


def _pure_packet(coords, spec, name):
    """Minimum-uncertainty 1-D packet with x-p correlation, hbar = 1."""
    alpha, q = pure_packet(spec, 1.0, name)
    shifted = coords - spec.mean_x
    return np.exp(-alpha * shifted ** 2 + 1j * q * shifted)


def _density(raw, cell_area):
    """Probability mass per grid cell, |raw|^2 dA, in one buffer."""
    density = np.abs(raw)
    density *= density
    density *= cell_area
    return density


def _shell_widths(shape):
    """Rows and columns of the guard shell on each side."""
    return (max(1, int(round(BOUNDARY_SHELL * n))) for n in shape)


def _shell_mass(density):
    """Mass in the shell rows, plus the shell columns of the other rows."""
    sx, sy = _shell_widths(density.shape)
    inner = density[sx:-sx]
    return float(density[:sx].sum() + density[-sx:].sum()
                 + inner[:, :sy].sum() + inner[:, -sy:].sum())


def _product_figures(x_masses, y_masses):
    """(x marginal, y marginal, shell mass) of the density
    x_masses[i] * y_masses[j], in O(n).  The shell mass is summed as
    ``_shell_mass`` sums it, not as 1 - inner mass, which would cancel."""
    sx, sy = _shell_widths((x_masses.size, y_masses.size))
    x_total, y_total = x_masses.sum(), y_masses.sum()
    shell = ((x_masses[:sx].sum() + x_masses[-sx:].sum()) * y_total
             + x_masses[sx:-sx].sum() * (y_masses[:sy].sum()
                                         + y_masses[-sy:].sum()))
    return x_masses * y_total, y_masses * x_total, float(shell)


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
    check_momentum_ceiling(object_specs, probe_spec, n, half_width)
    return half_width


def check_momentum_ceiling(object_specs, probe_spec, n, half_width):
    """Refuse a box whose ceiling pi n / (2 L) misses the momentum budget."""
    reach_k = max(abs(s.mean_p) for s in object_specs) + abs(probe_spec.mean_p)
    spread_k = max(s.sigma_p for s in object_specs) + probe_spec.sigma_p
    k_ceiling = math.pi * n / (2.0 * half_width)
    k_needed = reach_k + 8.0 * spread_k
    if k_needed > k_ceiling:
        raise ValueError(
            f"grid of {n} points cannot hold both a box of half-width "
            f"{half_width:.3g} and momentum content up to {k_needed:.3g} "
            f"(ceiling {k_ceiling:.3g}); increase the resolution")


def init_grid(object_components, probe_spec, nx=DEFAULT_POINTS,
              ny=DEFAULT_POINTS, half_width=None):
    """Build psi(x, y) = object(x) * probe(y) on a square periodic box,
    kept as its two 1-D factors.

    Parameters
    ----------
    object_components : sequence of (weight, GaussianSpec)
        Superposition of pure packets along x.  A single entry is the
        plain Gaussian case; several entries give multi-peaked states.
    probe_spec : GaussianSpec
        Pure packet along y.
    half_width : float, optional
        Box half-width (shared by both axes); computed from the specs when
        omitted.  Either way the box must meet ``check_momentum_ceiling``.

    All specs are interpreted in hbar = 1 units; see ``unit_hbar_spec``.
    """
    components = [(float(w), spec) for w, spec in object_components]
    if not components:
        raise ValueError("need at least one object component")
    if any(w <= 0 for w, _ in components):
        raise ValueError("component weights must be positive")
    object_specs = [s for _, s in components]
    if half_width is None:
        half_width = auto_half_width(object_specs, probe_spec, min(nx, ny))
    else:
        check_momentum_ceiling(
            object_specs, probe_spec, min(nx, ny), half_width)
    state = GridState._on_box(float(half_width), (nx, ny))

    object_wave = np.zeros(nx, dtype=complex)
    for k, (weight, spec) in enumerate(components):
        name = f"object component {k}" if len(components) > 1 else "object"
        object_wave += weight * _pure_packet(state.x, spec, name)
    factors = object_wave, _pure_packet(state.y, probe_spec, "probe")
    masses = []  # an outer product's norm is the product of its factors'
    for wave, d in zip(factors, (state.dx, state.dy)):
        norm = math.sqrt(_density(wave, d).sum())
        if norm == 0.0:
            raise ValueError("wavefunction vanished on the grid")
        wave /= norm
        masses.append(_density(wave, d))
    state._keep(_product_figures(*masses), factors=factors)
    if (mass := state.shell_mass) > BOUNDARY_THRESHOLD:
        raise BoundaryMassError(
            f"initial state already puts mass {mass:.3e} in the guard shell; "
            "enlarge half_width")
    return state


def init_gaussian_grid(object_spec, probe_spec, **kwargs):
    """Single-packet convenience wrapper around ``init_grid``."""
    return init_grid([(1.0, object_spec)], probe_spec, **kwargs)


def _block(n):
    """The ~sqrt(n) power of two that ramps factor over and slabs span."""
    return 1 << (n.bit_length() // 2)


def _shear_ramp(grid, step):
    """(FFT axis, coarse, fine) of the ramp exp(i c r v), c = -s theta.

    After the FFT along the moved axis, r is the row coordinate (x for
    'x_py', k_x for 'px_y') and v the column one (k_y or y).  Writing the
    row index as a * block + b with block = ``_block(nx)`` factors the ramp
    into coarse[a] * fine[b], the rows of block a: 2 sqrt(nx) complex exps
    per column instead of nx.  k_x is evenly spaced within each half of its
    fftfreq range, and block divides nx / 2, so no block straddles the wrap.
    """
    moved, sign = step.axes
    r, v = (grid.x, grid.ky) if moved else (grid.kx, grid.y)
    dr = grid.dx if moved else r[1]  # x[1] - x[0] may differ from dx
    cv, block = -sign * step.theta * v, _block(grid.nx)
    coarse = np.exp(1j * np.multiply.outer(r[::block], cv))
    fine = np.exp(1j * np.multiply.outer(dr * np.arange(block), cv))
    return moved - 2, coarse, fine


def _field(raw, scale=None, out=None):
    """raw, or scale * raw (broadcast), in a field: the first ny columns of
    an (nx, ny + 1) buffer whose pad column is zero, new or ``out``'s."""
    nx, ny = np.broadcast_shapes(raw.shape, np.shape(scale))
    whole = (np.empty((nx, ny + 1), dtype=complex) if out is None
             else _whole(out))
    whole[:, ny] = 0.0
    field = whole[:, :ny]
    if scale is None:
        field[...] = raw
        return field
    return np.multiply(scale, raw, out=field)


def _whole(field):
    """The contiguous buffer a ``_field`` views; a field that owns its data
    is its own buffer."""
    return field if field.base is None else field.base


def _shear_field(field, shears, transformed=False):
    """Shear field in place with no guards; a ``transformed`` field holds its
    FFT along the first shear's axis.  Each ramp multiplies the buffer one
    row slab at a time: slab a holds coarse[a] * fine, then ones against
    the pad column.  FFTs run over the field: along y, over the buffer, the
    pad would enter each row's transform.
    """
    whole, block = _whole(field), _block(field.shape[0])
    slab = np.ones((block, whole.shape[1]), dtype=complex)
    for k, (axis, coarse, fine) in enumerate(shears):
        if k or not transformed:
            np.fft.fft(field, axis=axis, out=field)
        for a, part in enumerate(coarse):
            np.multiply(part, fine, out=slab[:, :field.shape[1]])
            whole[a * block:(a + 1) * block] *= slab
        np.fft.ifft(field, axis=axis, out=field)
    return field


def _first_transform(state, axis, weight=None, out=None):
    """A field (new, or ``out``'s) holding the FFT along ``axis`` (-2: x,
    -1: y) of psi, x psi (weight "x") or p_x psi (weight "p").  A product
    state's is taken on one 1-D factor and multiplied out against the
    other; any other state's is formed whole, p_x psi as k_x F_x psi."""
    if state.factors is not None:
        a, b = state.factors
        a = state.x * a if weight == "x" else a
        a = _spectral_p(a, state.kx, axis=0) if weight == "p" else a
        a, b = (np.fft.fft(a), b) if axis == -2 else (a, np.fft.fft(b))
        return _field(b, a[:, None], out)
    field = _field(state.amplitudes,
                   state.x[:, None] if weight == "x" else None, out)
    if weight == "p":
        whole = _whole(field)
        np.fft.fft(whole, axis=0, out=whole)
        whole *= state.kx[:, None]
        if axis == -2:
            return field
        np.fft.ifft(whole, axis=0, out=whole)
    return np.fft.fft(field, axis=axis, out=field)


def _wrap_guard(marginal, grid, step):
    """Refuse shears that translate the marginal's occupied cells across the box."""
    moved, _ = step.axes
    coords = grid.x if moved else grid.y
    reach = float(np.max(np.abs(coords[marginal > 1e-14]), initial=0.0))
    span = 2.0 * grid.lx
    if abs(step.theta) * reach >= _WRAP_FRACTION * span:
        raise BoundaryMassError(
            f"shear {step.kind} theta={step.theta} would translate mass "
            f"{abs(step.theta) * reach:.3g} across a box of span {span:.3g}")


def _guarded_shear(grid, steps):
    """Shear grid's psi from ``_first_transform``, guarding the box each step.

    The wrap guard reads psi's marginal before each step (grid's, first),
    the boundary-mass guard psi's density after it.  Returns psi, each
    step's ``_shear_ramp``, for ``_shear_field`` to replay on auxiliary
    fields, the largest shell mass after any step, and psi's last density.
    """
    if not steps:
        raise ValueError("a window needs at least one shear step")
    psi = _first_transform(grid, steps[0].axes[0] - 2)
    shears, peak_mass, density = [], 0.0, None
    for step in steps:
        shears.append(_shear_ramp(grid, step))
        moved, _ = step.axes
        _wrap_guard(grid.marginals[1 - moved] if density is None
                    else density.sum(axis=moved), grid, step)
        del density  # free it before the step's own is built
        _shear_field(psi, shears[-1:], transformed=len(shears) == 1)
        density = _density(_whole(psi), grid.cell_area)[:, :grid.ny]
        mass = _shell_mass(density)
        if mass > BOUNDARY_THRESHOLD:
            raise BoundaryMassError(
                f"after shear {step.kind} theta={step.theta}: boundary mass "
                f"{mass:.3e} exceeds {BOUNDARY_THRESHOLD:.3e}")
        peak_mass = max(peak_mass, mass)
    return psi, shears, peak_mass, density


def apply_steps(state, steps):
    """Apply a shear sequence with wrap and boundary guards at every step."""
    return GridState(state.lx, _guarded_shear(state, steps)[0])


def _spectral_p(raw, k, axis):
    """Momentum operator -i d/dq along ``axis``; k broadcasts against raw."""
    spec = np.fft.fft(raw, axis=axis)
    spec *= k
    return np.fft.ifft(spec, axis=axis, out=spec)


def _sq_norm(raw):
    """Sum of |raw|^2 over a 2-D field without an n^2 temporary.

    Rows are summed first and the row sums pairwise, which keeps the
    rounding at the level of np.sum(np.abs(raw) ** 2).
    """
    flat = raw.view(float)
    return float(np.sum(np.einsum("ij,ij->i", flat, flat)))


class WindowPass(NamedTuple):
    """Figures of one pass through the window, hbar = 1."""

    epsilon: float
    eta: float
    readout: np.ndarray       # |U psi|^2 dA summed over x, along y
    boundary_mass_max: float  # largest guard-shell mass after any step
    norm_drift: float         # | ||U psi|| - 1 |


def window_pass(state, steps):
    """``WindowPass`` of one pass through the window, hbar = 1.

    epsilon^2 integrates |y U psi - U x psi|^2: the pointer readout after
    the window against the position it was meant to record.  eta^2
    integrates |p_x U psi - U p_x psi|^2, evaluated along k_x by Parseval.
    x psi (unless every step moves y) and then p_x psi replay psi's ramps,
    unguarded, in one second buffer; each starts from ``_first_transform``.
    """
    u_psi, shears, peak_mass, density = _guarded_shear(state, steps)
    drift = _check_norm(_sq_norm(u_psi) * state.cell_area, u_psi)
    readout, block = density.sum(axis=0), _block(state.nx)
    first, noise_field = shears[0][0], None
    if all(axis == -1 for axis, _, _ in shears):  # U x psi = x U psi
        gaps = np.concatenate([np.einsum(
            "ij,ij->i", np.square(state.y - state.x[a:a + block, None]),
            density[a:a + block]) for a in range(0, state.nx, block)])
        del density
        epsilon = math.sqrt(float(np.sum(gaps)))
    else:
        del density
        noise_field = _shear_field(_first_transform(state, first, "x"),
                                   shears, transformed=True)
        y = np.append(state.y, 0.0)  # zero against the pad column
        for a in range(0, state.nx, block):
            _whole(noise_field)[a:a + block] -= y * _whole(u_psi)[a:a + block]
        epsilon = math.sqrt(_sq_norm(noise_field) * state.cell_area)
    u_px_psi = _shear_field(_first_transform(state, first, "p", noise_field),
                            shears, transformed=True)
    whole_u, whole_n = _whole(u_psi), _whole(u_px_psi)
    np.fft.fft(whole_u, axis=0, out=whole_u)  # u_psi is now the spectrum
    whole_u *= state.kx[:, None]
    whole_u -= np.fft.fft(whole_n, axis=0, out=whole_n)
    eta = math.sqrt(_sq_norm(u_psi) / state.nx * state.cell_area)
    return WindowPass(epsilon, eta, readout, peak_mass, drift)


def grid_noise_disturbance(state, steps):
    """(epsilon, eta) of ``window_pass``."""
    return window_pass(state, steps)[:2]


def grid_moments(state):
    """Mean vector and covariance over (x, p_x, y, p_y), hbar = 1.

    Entry G_ij of the real Gram matrix Re <f_i, f_j> of psi, x psi,
    p_x psi, y psi and p_y psi, scaled by the cell area, is for a product
    state Re(<a_i, a_j> <b_i, b_j>) over the 1-D triples (phi, x phi,
    p_x phi) and (xi, y xi, p_y xi), in O(n).  For any other state it sums
    the row dot products of f_i and f_j, formed one row block at a time.
    Centering is algebraic, row 0 giving the means: Re <f_i - m_i psi,
    f_j - m_j psi> = G_ij - m_i m_j (2 - G_00).
    """
    x, y, ky = state.x, state.y, state.ky
    if state.factors is not None:
        gram = np.ones((5, 5), dtype=complex)
        for wave, q, k, pick in zip(state.factors, (x, y), (state.kx, ky),
                                    ([0, 1, 2, 0, 0], [0, 0, 0, 1, 2])):
            triple = wave, q * wave, _spectral_p(wave, k, 0)
            # Summed pairwise, as np.sum does; a matmul rounds coarser.
            gram *= np.array([[np.sum(u.conj() * v) for v in triple]
                              for u in triple])[np.ix_(pick, pick)]
        gram = gram.real
    else:
        dots, block = np.zeros((5, 5, state.nx)), _block(state.nx)
        p_x = _spectral_p(state.amplitudes, state.kx[:, None], 0)
        for rows in (slice(a, a + block) for a in range(0, state.nx, block)):
            psi = state.amplitudes[rows]
            flat = [f.view(float) for f in (
                psi, x[rows, None] * psi, p_x[rows], y * psi,
                _spectral_p(psi, ky, 1))]
            for i, j in zip(*np.triu_indices(5)):
                np.einsum("ij,ij->i", flat[i], flat[j], out=dots[i, j, rows])
        gram = dots.sum(axis=-1)
        gram = gram + np.triu(gram, 1).T
    gram = gram * state.cell_area
    mean = gram[0, 1:]
    cov = gram[1:, 1:] - (2.0 - gram[0, 0]) * np.outer(mean, mean)
    return mean, cov


def position_marginal(state, axis=0):
    """(coordinates, probability masses) along x (axis 0) or y (axis 1)."""
    if axis not in (0, 1):
        raise ValueError("axis must be 0 (x) or 1 (y)")
    return (state.x if axis == 0 else state.y), state.marginals[axis]


def output_histogram(state, steps, edges):
    """Histogram of psi alone sheared; only tests and the bench call it."""
    density = _guarded_shear(state, steps)[-1]
    return np.histogram(state.y, bins=edges, weights=density.sum(axis=0))[0]


def total_variation(p, q):
    """Total variation distance between two mass arrays on shared points."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"histogram shapes differ: {p.shape} vs {q.shape}")
    return 0.5 * float(np.sum(np.abs(p - q)))
