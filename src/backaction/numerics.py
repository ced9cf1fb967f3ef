"""Matrix exponential sized for small canonical systems.

It operates on plain ndarrays a few rows across (the largest matrix in the
package is 6x6).  The method is scaling and squaring with diagonal Pade
approximants; its degree table and theta bounds follow the standard
double-precision backward-error analysis.
"""

from __future__ import annotations

import math

import numpy as np

# Pade numerator coefficients b_0..b_m for the diagonal [m/m] approximant
# of exp(x).  Denominator coefficients are the same with alternating signs,
# which is why only one table is needed.
_PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
         960960.0, 16380.0, 182.0, 1.0),
}

# Largest 1-norm for which the [m/m] approximant meets double precision.
_PADE_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068,
    13: 5.371920351148152,
}


def _square(matrix):
    """Coerce to a square 2-D float array, rejecting NaN/Inf entries."""
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"matrix must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix contains non-finite entries")
    return arr


def _pade_ratio(a, degree):
    """Evaluate the [m/m] Pade approximant of exp at ``a``."""
    coeffs = _PADE_COEFFS[degree]
    n = a.shape[0]
    ident = np.eye(n)
    if degree < 13:
        # Even powers a^0, a^2, ... shared by numerator and denominator.
        powers = [ident]
        a2 = a @ a
        for _ in range(degree // 2):
            powers.append(powers[-1] @ a2)
        u_poly = sum(coeffs[j] * powers[j // 2] for j in range(1, degree + 1, 2))
        v = sum(coeffs[j] * powers[j // 2] for j in range(0, degree + 1, 2))
        u = a @ u_poly
    else:
        # Degree 13 in the factored form that needs only a^2, a^4, a^6.
        b = coeffs
        a2 = a @ a
        a4 = a2 @ a2
        a6 = a2 @ a4
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    return np.linalg.solve(v - u, v + u)


def mat_exp(matrix):
    """Matrix exponential by scaling and squaring.

    Parameters
    ----------
    matrix : array_like
        Real square matrix.

    Returns
    -------
    ndarray
        ``exp(matrix)`` to double precision.  The zero matrix maps to the
        identity exactly.
    """
    a = _square(matrix)
    norm = float(np.linalg.norm(a, 1))
    for degree in (3, 5, 7, 9):
        if norm <= _PADE_THETA[degree]:
            return _pade_ratio(a, degree)
    theta = _PADE_THETA[13]
    squarings = max(0, math.ceil(math.log2(norm / theta)))
    result = _pade_ratio(a / 2.0 ** squarings, 13)
    for _ in range(squarings):
        result = result @ result
    return result
