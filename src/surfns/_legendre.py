"""Gauss-Legendre rules and orthonormalized associated Legendre tables.

The functions tabulated here are the 4pi-orthonormal associated Legendre
functions p_lm(x) = sqrt((2l+1)/(4pi) (l-m)!/(l+m)!) P_l^m(x), without the
Condon-Shortley phase, evaluated at abscissas strictly inside (-1, 1).
With these, the real spherical harmonics

    Y_l0      = p_l0,
    Y_lm^cos  = sqrt(2) p_lm cos(m phi),
    Y_lm^sin  = sqrt(2) p_lm sin(m phi),

are orthonormal over the unit-sphere measure.  The modified forward-column
recursion used below is condition-stable well past degree 200 away from the
poles, which Gauss-Legendre abscissas guarantee.  ``gauss_legendre`` gives
those abscissas and their weights.
"""

import numpy as np


def plm_tables(lmax, x, mmax=None):
    """Tabulate p_lm and its first two colatitude derivatives.

    Parameters
    ----------
    lmax : int
        Highest degree tabulated.
    x : array
        Abscissas cos(theta), all strictly inside (-1, 1).
    mmax : int, optional
        Highest order tabulated (default ``lmax``).  Each order's entries
        are the same bits whatever ``mmax`` is.

    Returns
    -------
    array, shape (3, mmax + 1, lmax + 1, len(x))
        Entry [t, m, l] holds p_lm (t = 0), dp_lm/dtheta (t = 1) and
        d^2p_lm/dtheta^2 (t = 2) of order m and degree l; zero for l < m.
        Unpacks as ``P, dP, d2P``.
    """
    mmax = lmax if mmax is None else mmax
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) >= 1.0):
        raise ValueError("abscissas must lie strictly inside (-1, 1)")
    s = np.sqrt(1.0 - x * x)
    out = np.zeros((3, mmax + 1, lmax + 1, x.size))
    P, dP, d2P = out

    pmm = np.full(x.size, np.sqrt(1.0 / (4.0 * np.pi)))
    for m in range(mmax + 1):
        if m > 0:
            pmm = pmm * s * np.sqrt((2.0 * m + 1.0) / (2.0 * m))
        P[m, m] = pmm
        if m + 1 <= lmax:
            P[m, m + 1] = np.sqrt(2.0 * m + 3.0) * x * pmm
    # degree l from l - 1 and l - 2, at every order m <= min(l - 2, mmax) at
    # once, with the coefficients of every degree made first (an order past
    # l - 2 gets those of l - 2, and is never read)
    ll = np.arange(2.0, lmax + 1.0)
    mm = np.minimum(np.arange(mmax + 1.0)[:, None], ll - 2.0)
    a = np.sqrt((4.0 * ll * ll - 1.0) / (ll * ll - mm * mm)).T[:, :, None]
    b = np.sqrt((2.0 * ll + 1.0) * (ll - 1.0 + mm) * (ll - 1.0 - mm)
                / ((2.0 * ll - 3.0) * (ll * ll - mm * mm))).T[:, :, None]
    for l in range(2, lmax + 1):
        k = min(l - 1, mmax + 1)
        P[:k, l] = a[l - 2, :k] * x * P[:k, l - 1] - b[l - 2, :k] * P[:k, l - 2]

    m = np.arange(mmax + 1.0)[:, None, None]
    l = np.arange(lmax + 1.0)[:, None]
    # sin(theta) dp_lm/dtheta = l x p_lm - eps_lm p_{l-1,m}, eps_lm = 0 for l <= m
    eps = np.sqrt(np.where(l > m, (l * l - m * m) * (2.0 * l + 1.0) / (2.0 * l - 1.0), 0.0))
    np.multiply(l * x, P, out=dP)
    dP[:, 1:] -= eps[:, 1:] * P[:, :-1]
    dP /= s

    # Legendre ODE: p'' = -cot(theta) p' - (l(l+1) - m^2/sin^2) p
    np.subtract(-(x / s) * dP, (l * (l + 1.0) - m * m / (s * s)) * P, out=d2P)
    return out


def _legval(x, c):
    """Legendre series c (at least two terms) at x by Clenshaw's recurrence,
    grouped as numpy 2.4's ``legval`` groups it."""
    nd, c0, c1 = len(c), c[-2], c[-1]
    for i in range(3, len(c) + 1):
        nd -= 1
        c0, c1 = c[-i] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def gauss_legendre(n):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], n >= 2.

    The algorithm of numpy 2.4's ``numpy.polynomial.legendre.leggauss``,
    written out so that no grid imports ``numpy.polynomial``, and the same
    bits: the eigenvalues of the symmetric tridiagonal companion matrix of
    P_n, one Newton step on P_n, weights 1 / (P_{n-1} P_n') from their
    max-scaled values, symmetrized and scaled to sum to 2.
    """
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scl[:n - 1] * scl[1:n]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    c = np.zeros(n + 1)
    c[-1] = 1.0                                     # P_n
    k = np.arange(n)
    dc = np.where((n - 1 - k) % 2 == 0, 2.0 * k + 1.0, 0.0)    # P_n' = sum (2k + 1) P_k
    dy = _legval(x, c)
    df = _legval(x, dc)
    x -= dy / df
    fm = _legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w
