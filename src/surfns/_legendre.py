"""Orthonormalized associated Legendre tables.

The functions tabulated here are the 4pi-orthonormal associated Legendre
functions p_lm(x) = sqrt((2l+1)/(4pi) (l-m)!/(l+m)!) P_l^m(x), without the
Condon-Shortley phase, evaluated at abscissas strictly inside (-1, 1).
With these, the real spherical harmonics

    Y_l0      = p_l0,
    Y_lm^cos  = sqrt(2) p_lm cos(m phi),
    Y_lm^sin  = sqrt(2) p_lm sin(m phi),

are orthonormal over the unit-sphere measure.  The modified forward-column
recursion used below is condition-stable well past degree 200 away from the
poles, which Gauss-Legendre abscissas guarantee.
"""

import numpy as np


def plm_tables(lmax, x):
    """Tabulate p_lm and its first two colatitude derivatives.

    Parameters
    ----------
    lmax : int
        Highest degree tabulated.
    x : array
        Abscissas cos(theta), all strictly inside (-1, 1).

    Returns
    -------
    array, shape (3, lmax + 1, lmax + 1, len(x))
        Entry [t, m, l] holds p_lm (t = 0), dp_lm/dtheta (t = 1) and
        d^2p_lm/dtheta^2 (t = 2) of order m and degree l; zero for l < m.
        Unpacks as ``P, dP, d2P``.
    """
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) >= 1.0):
        raise ValueError("abscissas must lie strictly inside (-1, 1)")
    s = np.sqrt(1.0 - x * x)
    out = np.zeros((3, lmax + 1, lmax + 1, x.size))
    P, dP, d2P = out

    pmm = np.full(x.size, np.sqrt(1.0 / (4.0 * np.pi)))
    for m in range(lmax + 1):
        if m > 0:
            pmm = pmm * s * np.sqrt((2.0 * m + 1.0) / (2.0 * m))
        P[m, m] = pmm
        if m + 1 <= lmax:
            P[m, m + 1] = np.sqrt(2.0 * m + 3.0) * x * pmm
    # degree l from l - 1 and l - 2, at every order m <= l - 2 at once
    for l in range(2, lmax + 1):
        ll, mm = float(l), np.arange(l - 1.0)[:, None]
        a = np.sqrt((4.0 * ll * ll - 1.0) / (ll * ll - mm * mm))
        b = np.sqrt((2.0 * ll + 1.0) * (ll - 1.0 + mm) * (ll - 1.0 - mm)
                    / ((2.0 * ll - 3.0) * (ll * ll - mm * mm)))
        P[:l - 1, l] = a * x * P[:l - 1, l - 1] - b * P[:l - 1, l - 2]

    m = np.arange(lmax + 1.0)[:, None, None]
    l = np.arange(lmax + 1.0)[:, None]
    # sin(theta) dp_lm/dtheta = l x p_lm - eps_lm p_{l-1,m}, eps_lm = 0 for l <= m
    eps = np.sqrt(np.where(l > m, (l * l - m * m) * (2.0 * l + 1.0) / (2.0 * l - 1.0), 0.0))
    np.multiply(l * x, P, out=dP)
    dP[:, 1:] -= eps[:, 1:] * P[:, :-1]
    dP /= s

    # Legendre ODE: p'' = -cot(theta) p' - (l(l+1) - m^2/sin^2) p
    np.subtract(-(x / s) * dP, (l * (l + 1.0) - m * m / (s * s)) * P, out=d2P)
    return out
