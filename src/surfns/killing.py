"""Killing-field basis, the orthogonal projector onto it, and Korn constants.

On the sphere the Killing fields are the rigid rotations P_G(omega x x)
(dimension 3); on the torus of revolution the azimuthal rotation about the
x3-axis is the only one (dimension 1, asserted by construction).  The basis
is deterministic: fixed axis order e1, e2, e3, L2 normalization, then one
Gram-Schmidt sweep to pin orthonormality to rounding.
"""

import numpy as np
import scipy.linalg

from .errors import ConsistencyError, GridMismatchError, ParameterError
from . import geometry as geo
from .geometry import SPHERE, TORUS, TangentialField
from .harmonics import block_slice, get_transform


class KillingBasis:
    """Orthonormal L2 basis of the Killing space of a grid."""

    def __init__(self, grid, fields):
        self.grid = grid
        self.fields = fields
        self.n = len(fields)
        # coefficient rows of each basis field in the degree-1 toroidal block
        if grid.kind == SPHERE:
            tr = get_transform(grid, 2 if grid.max_degree >= 3 else 1)
            self.l1_map = np.stack([tr.analyze(v).coeffs[:3] for v in fields])
        else:
            self.l1_map = None

    def alpha_from_state(self, state):
        """Killing coordinates of a spectral state (degree-1 block rotation)."""
        if self.l1_map is None:
            raise ParameterError("spectral Killing coordinates are sphere-only")
        return self.l1_map @ state.coeffs[:3]


def killing_basis(grid):
    """Construct the orthonormal Killing basis of the supported geometries."""
    if grid.kind == SPHERE:
        axes = np.eye(3)
        raw = [geo.tangential_project(grid, np.cross(ax, grid.nodes)) for ax in axes]
    elif grid.kind == TORUS:
        raw = [geo.tangential_project(grid, np.cross([0.0, 0.0, 1.0], grid.nodes))]
    else:
        raise ParameterError(f"unsupported geometry {grid.kind!r}")
    fields = []
    for k, v in enumerate(raw):
        c = v.comps.copy()
        for w in fields:
            c -= geo.l2_inner(grid, TangentialField(grid, c), w) * w.comps
        nrm = geo.l2_norm(grid, TangentialField(grid, c))
        if nrm <= 1e-12:
            raise ConsistencyError("degenerate rotation field in Killing construction")
        fields.append(TangentialField(grid, c / nrm))
    return KillingBasis(grid, fields)


def killing_coefficients(basis, u):
    """Coordinates alpha_j = (u, v_j) of the Killing component."""
    if u.grid is not basis.grid:
        raise GridMismatchError("field lives on a different grid")
    return np.array([geo.l2_inner(basis.grid, u, v) for v in basis.fields])


def pk_project(basis, u):
    """Split u = u_K + u_NK by the orthogonal projector onto the Killing space."""
    alpha = killing_coefficients(basis, u)
    uk = np.zeros_like(u.comps)
    for a, v in zip(alpha, basis.fields):
        uk += a * v.comps
    u_k = TangentialField(basis.grid, uk)
    u_nk = TangentialField(basis.grid, u.comps - uk)
    return u_k, u_nk


class KornResult:
    """Truncated Korn constant with its convergence diagnostics.

    ``c_p`` is the square root of the largest generalized eigenvalue of the
    H1 form against the strain form on the non-Killing block; ``per_degree``
    maps degree l to the Rayleigh quotient ||v||_H1^2 / ||eps(v)||^2 of its
    modes (sphere only).
    """

    def __init__(self, c_p, per_degree, eigenvalues):
        self.c_p = c_p
        self.per_degree = per_degree
        self.eigenvalues = eigenvalues


def korn_constant(grid, L=None, fourier_cap=8):
    """Estimate C_P with ||v||_H1 <= C_P ||eps(v)|| on non-Killing fields.

    Assembles the H1 and strain quadratic forms on the truncated
    divergence-free space (toroidal modes with 2 <= l <= L on the sphere; a
    stream-function Fourier family plus the harmonic circulation generators
    on the torus) and solves the generalized symmetric eigenproblem.
    """
    if grid.kind == SPHERE:
        if L is None or not (2 <= L <= geo.L_MAX):
            raise ParameterError(f"sphere Korn constant needs 2 <= L <= {geo.L_MAX}")
        return _korn_sphere(grid, L)
    if grid.kind == TORUS:
        return _korn_torus(grid, fourier_cap)
    raise ParameterError(f"unsupported geometry {grid.kind!r}")


def _korn_sphere(grid, L):
    tr = get_transform(grid, L)
    S = tr.gradient_form(grid.weights)
    H = tr.gradient_form(grid.weights, strain=False)
    # strain form on the excluded Killing block must vanish
    kill_eps = np.abs(S[:3, :3]).max()
    S = S[3:, 3:]
    H = H[3:, 3:] + np.eye(tr.n_modes - 3)
    smin = scipy.linalg.eigh(S, eigvals_only=True, subset_by_index=[0, 0])[0]
    if smin <= 1e-10 * np.abs(S).max() or kill_eps > 1e-8:
        raise ConsistencyError(
            "singular strain form: a Killing mode leaked into the l >= 2 block")
    mu = scipy.linalg.eigh(H, S, eigvals_only=True)
    per_degree = {}
    for l in range(2, L + 1):
        sl = block_slice(l)
        idx = sl.start - 3
        per_degree[l] = float(H[idx, idx] / S[idx, idx])
    return KornResult(float(np.sqrt(mu[-1])), per_degree, mu)


def _korn_torus(grid, cap):
    """Torus Korn constant on a truncated divergence-free family.

    The family is n x grad(chi) for Fourier stream functions chi up to
    ``cap`` in each angle, plus the two harmonic circulation generators
    (the toroidal unit field and the poloidal field scaled by
    1/(R + r cos phi); both are divergence-free but not stream-function
    images).  The Killing direction is projected out before the H1 and
    strain forms are assembled and the generalized eigenproblem is solved
    on the L2-regularized span.
    """
    npol, ntor = grid.n_lat, grid.n_lon
    cap_p = min(cap, npol // 2 - 1)
    cap_t = min(cap, ntor // 2 - 1)
    pol = grid.lat[:, None]
    tor = grid.lon[None, :]
    h2 = grid.R + grid.r * np.cos(pol)

    fields = []
    for jp in range(0, cap_p + 1):
        for jt in range(0, cap_t + 1):
            if jp == 0 and jt == 0:
                continue
            phases = [jp * pol + jt * tor]
            if jp > 0 and jt > 0:
                phases.append(jp * pol - jt * tor)
            for ph in phases:
                for trig in (np.cos, np.sin):
                    chi = np.broadcast_to(trig(ph), (npol, ntor)).reshape(-1).copy()
                    g = geo.surface_gradient(grid, chi)
                    # n x grad(chi) has frame components (-g2, g1)
                    fields.append(TangentialField(
                        grid, np.stack([-g.comps[:, 1], g.comps[:, 0]], axis=1)))
    shape = (npol, ntor)
    fields.append(TangentialField(grid, np.stack(
        [np.ones(shape), np.zeros(shape)], axis=-1).reshape(-1, 2)))
    fields.append(TangentialField(grid, np.stack(
        [np.zeros(shape), np.broadcast_to(1.0 / h2, shape).copy()],
        axis=-1).reshape(-1, 2)))

    basis = killing_basis(grid)
    vk = basis.fields[0]
    l2_rows, grad_rows, eps_rows = [], [], []
    for f in fields:
        c = f.comps - geo.l2_inner(grid, f, vk) * vk.comps
        fld = TangentialField(grid, c)
        T = geo.covariant_derivative(grid, fld)
        l2_rows.append(c.reshape(-1))
        grad_rows.append(T.comps.reshape(-1))
        eps_rows.append(T.sym().comps.reshape(-1))
    w2 = np.repeat(grid.weights, 2)
    w4 = np.repeat(grid.weights, 4)
    V = np.array(l2_rows)
    G = np.array(grad_rows)
    E = np.array(eps_rows)
    M = (V * w2[None, :]) @ V.T
    S = (E * w4[None, :]) @ E.T
    H = (G * w4[None, :]) @ G.T + M
    M = 0.5 * (M + M.T)
    S = 0.5 * (S + S.T)
    H = 0.5 * (H + H.T)
    # restrict to the well-conditioned part of the (possibly dependent) span
    mval, mvec = np.linalg.eigh(M)
    keep = mval > 1e-10 * mval.max()
    Q = mvec[:, keep]
    S = Q.T @ S @ Q
    H = Q.T @ H @ Q
    smin = scipy.linalg.eigh(S, eigvals_only=True, subset_by_index=[0, 0])[0]
    if smin <= 1e-10 * np.abs(S).max():
        raise ConsistencyError("singular strain form on the torus family")
    mu = scipy.linalg.eigh(H, S, eigvals_only=True)
    return KornResult(float(np.sqrt(mu[-1])), {}, mu)
