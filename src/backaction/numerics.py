"""Matrix exponential for the windows of small canonical systems.

Scaling and squaring with diagonal Pade approximants (Higham, SIAM J. Matrix
Anal. Appl. 26, 1179 (2005)), keeping degrees 9 and 13 only: [9/9] meets
double precision for every 1-norm up to theta_9 = 2.098, which covers every
unit-time window the gallery builds (1-norms 1.0 and 1.81), and scaled
[13/13] covers the rest.  Lower degrees would only save a few products.
"""

from __future__ import annotations

import math

import numpy as np

# Pade numerator coefficients b_0..b_m for the diagonal [m/m] approximant
# of exp(x).  Denominator coefficients are the same with alternating signs,
# which is why only one table is needed.
_PADE_COEFFS = {
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
         960960.0, 16380.0, 182.0, 1.0),
}

# Largest 1-norm for which the [m/m] approximant meets double precision.
_PADE_THETA = {9: 2.097847961257068, 13: 5.371920351148152}


def mat_exp(matrix):
    """``exp(matrix)`` to double precision by scaling and squaring.

    [9/9] Pade serves 1-norms (largest absolute column sums) up to theta_9,
    scaled [13/13] the rest, and the zero matrix maps to the identity
    exactly.  A matrix that is not square, or whose 1-norm is not finite,
    raises ValueError.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    norm = float(np.abs(a).sum(axis=0).max(initial=0.0))
    if not math.isfinite(norm):
        raise ValueError("matrix contains non-finite entries")
    degree = 9 if norm <= _PADE_THETA[9] else 13
    b = _PADE_COEFFS[degree]
    ident = np.eye(a.shape[0])
    if degree == 9:
        # Even powers a^0, a^2, ... shared by numerator and denominator.
        powers = [ident]
        a2 = a @ a
        for _ in range(degree // 2):
            powers.append(powers[-1] @ a2)
        u = a @ sum(b[j] * powers[j // 2] for j in range(1, degree + 1, 2))
        v = sum(b[j] * powers[j // 2] for j in range(0, degree + 1, 2))
        return np.linalg.solve(v - u, v + u)
    # Degree 13 in the factored form that needs only a^2, a^4, a^6, on a
    # scaled under theta_13 and squared back.
    squarings = max(0, math.ceil(math.log2(norm / _PADE_THETA[13])))
    a = a / 2.0 ** squarings
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    result = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        result = result @ result
    return result
