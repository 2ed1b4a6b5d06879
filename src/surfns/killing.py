"""Killing-field basis, its spectral coordinates, and the Korn constant.

On the sphere the Killing fields are the rigid rotations P_G(omega x x)
(dimension 3), which span exactly the degree-1 toroidal block: the unit
rotation about e_j is the degree-1 combination in row j of
``SPHERE_L1_MAP``, axes in the order e1, e2, e3.  On the torus of revolution
the azimuthal rotation about the x3-axis is the only one (dimension 1,
asserted by construction).  ``killing_basis`` builds both surfaces' fields
in closed form, e_j x x in frame components, L2-normalized by quadrature;
no transform is involved.

``korn_constant`` returns C_P alone, as a float.  The per-degree quotients
and the torus blocks' full spectra, which only the tests read, come from
``harmonics.degree_norms`` and from ``_torus_family``, ``_gram`` and
``_korn_eigvals``.
"""

import numpy as np

from .errors import ConsistencyError, ParameterError
from .geometry import L_MAX, SPHERE, TORUS, TangentialField
from .harmonics import degree_norms

# Row j holds the coefficients on [(1,0), (1,1,cos), (1,1,sin)] of the unit
# rotation about e_j: -Phi(1,1,cos), -Phi(1,1,sin) and -Phi(1,0).
SPHERE_L1_MAP = -np.eye(3)[[1, 2, 0]]
SPHERE_L1_MAP.setflags(write=False)

# the torus Korn family's Fourier cap in each angle (``_korn_torus``)
TORUS_FOURIER_CAP = 8


class KillingBasis:
    """Orthonormal L2 basis of the Killing space of a grid."""

    def __init__(self, grid, fields):
        self.grid = grid
        self.fields = fields
        self.n = len(fields)
        # coefficient rows of each basis field in the degree-1 toroidal block
        self.l1_map = SPHERE_L1_MAP if grid.kind == SPHERE else None

    def alpha(self, c):
        """Killing coordinates of coefficient arrays ``c`` of shape
        (..., n_modes): the degree-1 block rotated onto the basis fields."""
        if self.l1_map is None:
            raise ParameterError("spectral Killing coordinates are sphere-only")
        return c[..., :3] @ self.l1_map.T


def killing_basis(grid):
    """Construct the orthonormal Killing basis of the supported geometries:
    the unit rotations e_j x x about the symmetry axes (e1, e2, e3 on the
    sphere, e3 on the torus) in frame components, L2-normalized by quadrature."""
    if grid.kind not in (SPHERE, TORUS):
        raise ParameterError(f"unsupported geometry {grid.kind!r}")
    # the frame component e . (e_j x x) is (x x e)_j: all three axes at once
    u = np.stack([np.cross(grid.nodes, grid.e1).T, np.cross(grid.nodes, grid.e2).T], -1)
    u = u if grid.kind == SPHERE else u[2:]
    # one 1-d (pairwise) sum per axis: a 2-d reduction or a matrix product
    # here leaves the L = 64 basis orthonormal to only 7e-14, this to 9e-16
    u /= np.sqrt([np.sum(a) for a in (u * u).sum(-1) * grid.weights])[:, None, None]
    return KillingBasis(grid, [TangentialField(grid, c) for c in u])


def korn_constant(grid, L=None):
    """The truncated Korn constant C_P, with ||v||_H1 <= C_P ||eps(v)|| on
    non-Killing fields: the square root of the largest generalized
    eigenvalue of the H1 form against the strain form.

    On the sphere the space is the toroidal modes with 2 <= l <= L; the
    modes of one degree span a rotation-invariant space, so both forms are
    diagonal and the eigenvalues are the quotients
    (1 + ||grad Phi_l||^2) / ||eps(Phi_l)||^2, each shared by the 2l + 1
    modes of degree l and read off the zonal mode by ``degree_norms``,
    with no transform.  On the torus it is a
    stream-function Fourier family plus the harmonic circulation
    generators, solved by a Cholesky-reduced generalized eigenproblem
    (``_korn_eigvals``) per toroidal wavenumber |jt| <= ``TORUS_FOURIER_CAP``;
    the split is exact because the grid and its weights are uniform in the
    toroidal angle, so no form couples two blocks.
    """
    if grid.kind == SPHERE:
        if L is None or not (2 <= L <= L_MAX):
            raise ParameterError(f"sphere Korn constant needs 2 <= L <= {L_MAX}")
        return _korn_sphere(grid, L)
    if grid.kind == TORUS:
        return _korn_torus(grid, TORUS_FOURIER_CAP)
    raise ParameterError(f"unsupported geometry {grid.kind!r}")


def _korn_sphere(grid, L):
    strain, grad = degree_norms(grid, L)
    if abs(strain[0]) > 1e-8:
        raise ConsistencyError(
            "singular strain form: a Killing mode leaked into the l >= 2 block")
    # the non-Killing degrees l >= 2; each quotient is shared by 2l + 1 modes
    return float(np.sqrt(((1.0 + grad[1:]) / strain[1:]).max()))


def _korn_torus(grid, cap):
    """Torus Korn constant on a truncated divergence-free family.

    The family is n x grad(chi) for Fourier stream functions chi up to
    ``cap`` in each angle, plus the poloidal circulation generator e2 / h,
    h = R + r cos(phi) (divergence-free but not a stream-function image),
    with the Killing direction projected out; it is a basis (see
    ``_torus_family``).  The grid is uniform in the toroidal angle, its
    weights depend on the poloidal angle only and its frame turns with the
    toroidal angle, so the L2, H1 and strain forms couple no two fields
    whose toroidal wavenumbers differ in |jt|; the generator and the
    Killing field have jt = 0.  Each |jt| block is built as poloidal
    profiles and solved by one small generalized eigenproblem: at cap 8,
    17 fields for jt = 0 and 34 for each other jt.
    """
    mu = 0.0
    for V, T in _torus_family(grid, cap):
        S = _gram(grid, 0.5 * (T + T.swapaxes(1, 2)))
        mu = np.maximum(mu, _korn_eigvals(_gram(grid, T) + _gram(grid, V), S)[-1])
    return float(np.sqrt(mu))


def _korn_eigvals(H, S):
    """Ascending eigenvalues mu of H v = mu S v for symmetric H and S.

    S must be positive definite: a strain form whose smallest eigenvalue is
    not above 1e-10 of its largest entry means a Killing field entered the
    space, and raises ConsistencyError.  The problem is reduced as LAPACK's
    sygv does: S = C C^T by Cholesky, then the symmetric eigenvalues of
    C^-1 H C^-T.
    """
    if np.linalg.eigvalsh(S)[0] <= 1e-10 * np.abs(S).max():
        raise ConsistencyError("singular strain form: a Killing field is in the Korn space")
    C = np.linalg.cholesky(S)
    A = np.linalg.solve(C, np.linalg.solve(C, H).T)
    return np.linalg.eigvalsh(0.5 * (A + A.T))


def _torus_family(grid, cap):
    """The torus Korn family, one block per toroidal wavenumber jt = 0..cap.

    Every field of block jt is a(phi) cos(jt theta) + b(phi) sin(jt theta)
    in the frame (e1 toroidal, e2 poloidal), so a block is its profiles
    (a, b) at the poloidal nodes: fields V of shape (k, 2, p, n_pol) and
    covariant derivatives T of shape (k, 2, 2, p, n_pol), with p = 2, or
    p = 1 at jt = 0, where the sine part vanishes.  Both are closed forms
    in the stream functions' derivatives: u = n x grad(chi) = (-chi_phi / r,
    chi_theta / h) with h = R + r cos(phi), d_theta maps (a, b) to
    (jt b, -jt a), and the frame's connection gives
    T11 = (d_theta u1 - sin(phi) u2) / h, T21 = (d_theta u2 + sin(phi) u1) / h,
    T12 = d_phi u1 / r and T22 = d_phi u2 / r.  At jt = 0 the poloidal
    circulation generator e2 / h joins the block and the Killing field
    (h, 0) is projected out; every other block is orthogonal to it.  The
    toroidal generator e1 = (h e1 - r cos(phi) e1) / R stays out: it is the
    Killing field plus the stream function jp = 1, beta = pi / 2.
    """
    cap_p = min(cap, grid.n_lat // 2 - 1)
    cap_t = min(cap, grid.n_lon // 2 - 1)
    r, sin, z = grid.r, np.sin(grid.lat), np.zeros(grid.n_lat)
    h = grid.R + r * np.cos(grid.lat)
    # the circulation generator e2 / h, then the Killing field h e1, with
    # their poloidal derivatives
    G = np.array([[[z], [1.0 / h]], [[h], [z]]])
    G_phi = np.array([[[z], [r * sin / h ** 2]], [[-r * sin], [z]]])
    for jt in range(cap_t + 1):
        p = 2 if jt else 1
        D = jt * np.array([[0.0, 1.0], [-1.0, 0.0]])[:p, :p]      # d_theta on (a, b)
        # stream functions cos(jp phi - beta + sg jt theta), beta = 0 or pi/2
        jp, sg, beta = np.array([(jp, sign, beta) for jp in range(cap_p + 1)
                                 for sign in ((1, -1) if jp and jt else (1,)) if jp or jt
                                 for beta in (0.0, np.pi / 2)]).T
        # their profiles and first two phi derivatives, (3, k, p, n_pol)
        n = np.arange(3)[:, None, None]
        ang = jp[:, None] * grid.lat - beta[:, None] + n * np.pi / 2
        chi, chi_p, chi_pp = (jp[:, None] ** n)[:, :, None] * np.stack(
            [np.cos(ang), -sg[:, None] * np.sin(ang)], 2)[:, :, :p]
        U = np.stack([-chi_p / r, D @ chi / h], 1)
        U_phi = np.stack([-chi_pp / r, D @ chi_p / h + D @ chi * r * sin / h ** 2], 1)
        if jt == 0:
            U, U_phi = np.concatenate([U, G[:1]]), np.concatenate([U_phi, G_phi[:1]])
            g = _gram(grid, np.concatenate([U, G[1:]]))[-1]
            a = (g[:-1] / g[-1])[:, None, None, None]
            U, U_phi = U - a * G[1], U_phi - a * G_phi[1]
        rot = np.stack([-U[:, 1], U[:, 0]], 1)               # (-u2, u1)
        yield U, np.stack([(D @ U + sin * rot) / h, U_phi / r], 2)


def _gram(grid, X):
    """Weighted L2 Gram matrix of one block's profiles (k, ..., p, n_pol):
    the poloidal node weight times the theta-trapezoid sum of cos^2 or sin^2
    (jt theta), n_tor at jt = 0 (p = 1) and n_tor / 2 above (p = 2), exact
    for jt <= n_tor / 2 - 1, where the cross terms sum to zero."""
    w = grid.weights[::grid.n_lon] * (grid.n_lon / X.shape[-2])
    Xw = (X * np.sqrt(w)).reshape(X.shape[0], -1)
    return Xw @ Xw.T
