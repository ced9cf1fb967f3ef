"""Matrix exponential for the windows of small canonical systems.

Scaling and squaring with the diagonal [9/9] Pade approximant (Higham, SIAM
J. Matrix Anal. Appl. 26, 1179 (2005)).  [9/9] meets double precision for
every 1-norm up to theta_9 = 2.098, which covers every unit-time window the
gallery builds (1-norms 1.0 and 1.81) unscaled; a larger matrix is halved
until it is under theta_9 and the result squared back.
"""

from __future__ import annotations

import math

import numpy as np

# Numerator coefficients b_0..b_9 of the [9/9] Pade approximant of exp(x);
# the denominator's are the same with alternating signs.
_PADE_9 = (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0,
           30270240.0, 2162160.0, 110880.0, 3960.0, 90.0, 1.0)

# Largest 1-norm for which [9/9] meets double precision.
_THETA_9 = 2.097847961257068


def mat_exp(matrix):
    """``exp(matrix)`` to double precision by scaling and squaring.

    A 1-norm (largest absolute column sum) above theta_9 is halved
    ceil(log2(norm / theta_9)) times before [9/9] Pade and squared back
    after; the zero matrix maps to the identity exactly.  A matrix that is
    not square, or whose 1-norm is not finite, raises ValueError.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    norm = float(np.abs(a).sum(axis=0).max(initial=0.0))
    if not math.isfinite(norm):
        raise ValueError("matrix contains non-finite entries")
    squarings = math.ceil(math.log2(norm / _THETA_9)) if norm > _THETA_9 else 0
    a = a / 2.0 ** squarings  # dividing by 2^0 = 1 changes no bit
    b0, b1, b2, b3, b4, b5, b6, b7, b8, b9 = _PADE_9
    ident = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    a8 = a6 @ a2
    u = a @ (b1 * ident + b3 * a2 + b5 * a4 + b7 * a6 + b9 * a8)
    v = b0 * ident + b2 * a2 + b4 * a4 + b6 * a6 + b8 * a8
    result = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        result = result @ result
    return result
