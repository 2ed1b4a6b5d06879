"""Associated Legendre tables against an independent library oracle and at
high degree (recursion stability)."""

from math import factorial

import numpy as np
from scipy.special import lpmv

from surfns._legendre import plm_tables


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
