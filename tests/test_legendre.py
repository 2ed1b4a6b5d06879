"""Associated Legendre tables against an independent library oracle and at
high degree (recursion stability)."""

from math import factorial

import numpy as np
from scipy.special import lpmv

from surfns._legendre import gauss_legendre, plm_tables
from surfns.geometry import L_MAX, dealias_rule


def _norm_const(l, m):
    return np.sqrt((2 * l + 1) / (4 * np.pi) * factorial(l - m) / factorial(l + m))


def test_tables_match_scipy():
    # scipy's lpmv carries the Condon-Shortley phase; ours does not
    x = np.linspace(-0.95, 0.95, 9)
    P, _, _ = plm_tables(12, x)
    for l in range(0, 13):
        for m in range(0, l + 1):
            oracle = (-1) ** m * _norm_const(l, m) * lpmv(m, l, x)
            assert np.abs(P[m, l] - oracle).max() <= 1e-13


def test_theta_derivative_matches_finite_differences():
    x = np.linspace(-0.9, 0.9, 7)
    th = np.arccos(x)
    _, dP, _ = plm_tables(12, x)
    h = 1e-6
    for l in (3, 7, 12):
        for m in (0, 1, l):
            def f(t):
                return (-1) ** m * _norm_const(l, m) * lpmv(m, l, np.cos(t))
            fd = (f(th + h) - f(th - h)) / (2 * h)
            assert np.abs(dP[m, l] - fd).max() <= 1e-7


def test_second_derivative_satisfies_ode():
    # independent check: central differences of the tabulated first
    # derivative on a fine grid
    th = np.linspace(0.3, np.pi - 0.3, 2001)
    x = np.cos(th)
    P, dP, d2P = plm_tables(8, x)
    h = th[1] - th[0]
    for l, m in ((2, 0), (5, 3), (8, 8)):
        fd2 = (dP[m, l][2:] - dP[m, l][:-2]) / (2 * h)
        assert np.abs(d2P[m, l][1:-1] - fd2).max() <= 1e-4


def test_high_degree_orthonormality():
    # the modified forward-column recursion stays conditioned well past the
    # desk-scale truncation
    glx, glw = np.polynomial.legendre.leggauss(130)
    P, _, _ = plm_tables(128, glx)
    for l, m in ((128, 64), (128, 0), (100, 100), (120, 37)):
        nrm = 2 * np.pi * float(np.dot(glw, P[m, l] ** 2))
        assert abs(nrm - 1.0) <= 1e-12
    # cross terms of distinct degrees vanish
    for l, l2, m in ((128, 126, 0), (120, 100, 37)):
        ip = 2 * np.pi * float(np.dot(glw, P[m, l] * P[m, l2]))
        assert abs(ip) <= 1e-12


def test_tables_vanish_below_the_order():
    x = np.linspace(-0.9, 0.9, 5)
    l = np.arange(10)
    for table in plm_tables(9, x):
        assert not table[l[None, :] < l[:, None]].any()


def test_pole_rejection():
    import pytest
    with pytest.raises(ValueError):
        plm_tables(4, np.array([0.0, 1.0]))


def test_gauss_legendre_is_numpys_rule_bit_for_bit():
    # the rule of every sphere grid, against numpy.polynomial's leggauss (a
    # test-only import: the package itself never loads numpy.polynomial)
    for L in range(2, L_MAX + 1):
        n = dealias_rule(L).n_lat
        x, w = gauss_legendre(n)
        want_x, want_w = np.polynomial.legendre.leggauss(n)
        assert x.tobytes() == want_x.tobytes() and w.tobytes() == want_w.tobytes(), n


def _p_per_degree(lmax, x):
    """Oracle: p_lm by the modified forward-column recursion with the
    coefficients of each degree made in its own step."""
    s = np.sqrt(1.0 - x * x)
    P = np.zeros((lmax + 1, lmax + 1, x.size))
    pmm = np.full(x.size, np.sqrt(1.0 / (4.0 * np.pi)))
    for m in range(lmax + 1):
        if m > 0:
            pmm = pmm * s * np.sqrt((2.0 * m + 1.0) / (2.0 * m))
        P[m, m] = pmm
        if m + 1 <= lmax:
            P[m, m + 1] = np.sqrt(2.0 * m + 3.0) * x * pmm
    for l in range(2, lmax + 1):
        ll, mm = float(l), np.arange(l - 1.0)[:, None]
        a = np.sqrt((4.0 * ll * ll - 1.0) / (ll * ll - mm * mm))
        b = np.sqrt((2.0 * ll + 1.0) * (ll - 1.0 + mm) * (ll - 1.0 - mm)
                    / ((2.0 * ll - 3.0) * (ll * ll - mm * mm)))
        P[:l - 1, l] = a * x * P[:l - 1, l - 1] - b * P[:l - 1, l - 2]
    return P


def test_tables_are_the_per_degree_recursion_bit_for_bit():
    # and every order limit gives the same bits, so also the zonal column
    # the Korn pass reads
    for lmax in (0, 1, 2, 5, 33, 96):
        x = gauss_legendre(lmax + 3)[0]
        full = plm_tables(lmax, x)
        assert full[0].tobytes() == _p_per_degree(lmax, x).tobytes()
        for mmax in {0, min(1, lmax), lmax // 2}:
            assert plm_tables(lmax, x, mmax).tobytes() == full[:, :mmax + 1].tobytes()
