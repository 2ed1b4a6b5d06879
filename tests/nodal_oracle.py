"""The sphere's nodal covariant derivative: a test oracle for the toroidal
transform's closed-form GRAD tables.

Each nodal scalar is analyzed onto the real scalar harmonics up to the
grid's degree ceil(3L/2), and its gradient along (e_theta, e_phi) is
synthesized, on a ``geometry.SphereEngine`` of its own.  A tangential field
is differentiated through its ambient components, rebuilt from the frame,
so no connection coefficients appear.  The route shares only the Legendre
tables with ``harmonics._profiles``, which makes it an independent check.

Its limit is polar noise: at L = 32 it differentiates the rounding noise of
even a correctly rounded nodal field up to degree 48, and is off by about
1.3e-11 at the polar nodes, where the closed form stays within 2e-13.

On the torus, ``covariant_derivatives`` and the functions built on it defer
to the geometry module's FFT route.
"""

import weakref

import numpy as np

from surfns import geometry as geo

SCALAR_SHIFTED = (False, False, True)

# one scalar engine per sphere grid, kept out of the grid's own caches
_ENGINES = weakref.WeakKeyDictionary()


def scalar_profiles(grid):
    """The scalar harmonics and their gradient along (e_theta, e_phi) on the
    radius-R sphere, as ``SphereEngine`` profiles."""
    s = np.sin(grid.lat)

    def profiles(m, l, P, dP, d2P):
        fac = np.where(m > 0, np.sqrt(2.0), 1.0)
        return fac * P, fac * dP / grid.R, -m * fac * P / (grid.R * s)
    return profiles


def scalar_engine(grid):
    """Engine of real scalar harmonics up to the grid's degree.

    Components: the harmonic itself (analysis over the unit-sphere
    measure), then its gradient along e_theta and e_phi.
    """
    if grid not in _ENGINES:
        _ENGINES[grid] = geo.SphereEngine(grid, 0, grid.max_degree, scalar_profiles(grid),
                                          SCALAR_SHIFTED, grid.weights / grid.R ** 2)
    return _ENGINES[grid]


def directional_derivatives(grid, f):
    """Derivatives of nodal scalars (..., n_nodes) along the frame directions
    (e1, e2) of a sphere grid: (..., 2, n_nodes)."""
    eng = scalar_engine(grid)
    c = eng.analyze(f.reshape(1, -1, grid.n_nodes), slice(0, 1))
    g = eng.synthesize(c, slice(1, 3)).transpose(1, 0, 2)     # (k, 2, n)
    return g.reshape(f.shape[:-1] + (2, grid.n_nodes))


def covariant_derivatives(grid, comps):
    """Covariant derivatives of a stack of nodal fields (k, 2, n_nodes), shape
    (k, 2, 2, n_nodes): entry (i, j) is the derivative along e_j of the
    field's ambient components, projected on e_i."""
    if grid.kind != geo.SPHERE:
        return geo.covariant_derivatives(grid, comps)
    frame = np.ascontiguousarray(np.stack([grid.e1, grid.e2]).transpose(0, 2, 1))  # (2, 3, n)
    amb = np.einsum("kan,acn->kcn", comps, frame)      # ambient components
    D = directional_derivatives(grid, amb)             # (k, 3, 2, n): comp x frame dir
    return np.einsum("icn,kcjn->kijn", frame, D)


def covariant_derivative(grid, u):
    """Covariant derivative of one tangential field, shape (n_nodes, 2, 2)."""
    return covariant_derivatives(grid, u.comps.T[None])[0].transpose(2, 0, 1)


def rate_of_strain(grid, u):
    """Symmetric part of the covariant derivative, shape (n_nodes, 2, 2)."""
    T = covariant_derivative(grid, u)
    return 0.5 * (T + T.swapaxes(1, 2))


def h1_norm(grid, u):
    """H1 norm: ||u||^2 + ||grad u||^2 (Frobenius) under quadrature."""
    T = covariant_derivative(grid, u)
    return float(np.sqrt(geo.l2_inner(grid, u, u) + geo._quadrature(grid, T * T)))


def strain_norm(grid, u):
    """L2 norm of the surface rate-of-strain tensor."""
    E = rate_of_strain(grid, u)
    return float(np.sqrt(geo._quadrature(grid, E * E)))
