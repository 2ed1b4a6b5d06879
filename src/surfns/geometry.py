"""Closed-surface grids and tangential calculus.

Two geometries are supported: the sphere of radius R (Gauss-Legendre in
cos(theta) times uniform longitudes) and the embedded torus with major/minor
radii (R, r) (uniform periodic grid in both angles).  All differential
operators act on the spectral/Fourier interpolant of the nodal data, so they
are exact on band-limited fields; quadrature is exact for the polynomial
degrees the grids are sized for.

Tangential vector fields are stored as two components per node in the local
orthonormal frame (e1, e2); tangential 2x2 tensors as four.  The frame is a
representation choice only: every operator here reconstructs ambient
quantities from (e1, e2, n), so frame-contracted results (inner products,
norms, divergence, strain magnitude) do not depend on the frame rotation.
"""

from collections import namedtuple

import numpy as np

from .errors import GeometryError, GridMismatchError, ParameterError
from ._legendre import plm_tables

SPHERE = "sphere"
TORUS = "torus"

# Largest sphere truncation degree accepted: L = 64 is the largest measured
# (210 MB peak RSS through one IMEX step); a viscosity that varies along a
# latitude row needs a dense Stokes block of (L(L+2))^2 entries, 13 GB at L = 200.
L_MAX = 64

# Largest torus grid size along either angle: `surfns korn` on the 352 x 352
# torus takes 0.07 s and peaks at 55 MB RSS (2-core VM); nodal arrays grow
# with n_pol * n_tor.
TORUS_N_MAX = 352


class SurfaceGrid:
    """Quadrature nodes, weights, normals and tangent frames of a surface.

    Attributes
    ----------
    kind : str
        ``"sphere"`` or ``"torus"``.
    R, r : float
        Sphere radius, or torus major/minor radii (r = 0 on the sphere).
    n_lat, n_lon : int
        Grid shape: colatitude x longitude (sphere), poloidal x toroidal
        angle (torus).  Nodes are stored row-major in that order.
    lat, lon : arrays
        The two coordinate 1-d arrays (theta colatitudes / phi longitudes on
        the sphere; poloidal phi / toroidal theta on the torus).
    nodes, weights, normals, e1, e2 : arrays
        Flattened per-node data; weights carry the full area measure.
    canonical : tuple of arrays
        The builder's (e1, e2), along which derivatives are taken;
        ``canonical_frame`` is true exactly when none was passed in.
    """

    def __init__(self, kind, R, r, lat, lon, nodes, weights, normals, e1, e2,
                 glx=None, max_degree=None, canonical=None):
        self.kind = kind
        self.R = float(R)
        self.r = float(r)
        self.lat = lat
        self.lon = lon
        self.n_lat = lat.size
        self.n_lon = lon.size
        self.nodes = nodes
        self.weights = weights
        self.normals = normals
        self.e1 = e1
        self.e2 = e2
        self.glx = glx
        self.max_degree = max_degree
        self.canonical = (e1, e2) if canonical is None else canonical
        self.canonical_frame = canonical is None
        self.area = float(weights.sum())
        self._caches = {}

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    def with_rotated_frame(self, angles):
        """Copy of this grid with (e1, e2) rotated nodewise by ``angles``.

        Used to assert frame independence of geometric quantities; the copy
        keeps the builder's frame as ``canonical`` and is flagged
        non-canonical, so spectral vector transforms refuse it.
        """
        a = np.broadcast_to(np.asarray(angles, dtype=float), (self.n_nodes,))
        c, s = np.cos(a)[:, None], np.sin(a)[:, None]
        e1 = c * self.e1 + s * self.e2
        e2 = -s * self.e1 + c * self.e2
        return SurfaceGrid(self.kind, self.R, self.r, self.lat, self.lon,
                           self.nodes, self.weights, self.normals, e1, e2,
                           glx=self.glx, max_degree=self.max_degree,
                           canonical=self.canonical)


class TangentialField:
    """Tangential vector field: two frame components per node."""

    def __init__(self, grid, comps):
        comps = np.asarray(comps, dtype=float)
        if comps.shape != (grid.n_nodes, 2):
            raise GridMismatchError(
                f"field shape {comps.shape} does not match grid with {grid.n_nodes} nodes")
        self.grid = grid
        self.comps = comps

    def ambient(self):
        """Reconstruct the ambient R^3 vectors c1 e1 + c2 e2 (exactly tangent)."""
        return self.comps[:, :1] * self.grid.e1 + self.comps[:, 1:] * self.grid.e2

    def copy(self):
        return TangentialField(self.grid, self.comps.copy())


class TangentialTensor:
    """Tangential 2x2 tensor field in the frame, shape (n_nodes, 2, 2)."""

    def __init__(self, grid, comps):
        comps = np.asarray(comps, dtype=float)
        if comps.shape != (grid.n_nodes, 2, 2):
            raise GridMismatchError("tensor shape does not match grid")
        self.grid = grid
        self.comps = comps

    def trace(self):
        return self.comps[:, 0, 0] + self.comps[:, 1, 1]

    def sym(self):
        half = 0.5 * (self.comps + np.swapaxes(self.comps, 1, 2))
        return TangentialTensor(self.grid, half)


class ViscosityField:
    """Strictly positive, finite nodal viscosity with its lower bound ``nu_min``."""

    def __init__(self, grid, values):
        values = np.broadcast_to(np.asarray(values, dtype=float), (grid.n_nodes,)).copy()
        if not np.all(np.isfinite(values)):
            raise ParameterError("viscosity must be finite")
        nu_min = float(values.min())
        if nu_min <= 0.0:
            raise ParameterError(f"viscosity must be strictly positive, min = {nu_min}")
        self.grid = grid
        self.values = values
        self.nu_min = nu_min


DealiasRule = namedtuple("DealiasRule", ["degree", "n_lat", "n_lon"])


def dealias_rule(L):
    """Grid resolution needed to integrate quadratic nonlinearities exactly.

    Follows the 3/2 rule: resolve degree ceil(3L/2), which takes
    n_lat = degree + 1 Gauss-Legendre colatitudes and n_lon = 2 degree + 2
    uniform longitudes.
    """
    if L < 1:
        raise ParameterError("truncation degree must be >= 1")
    M = int(np.ceil(3 * L / 2))
    return DealiasRule(M, M + 1, 2 * M + 2)


def grid_truncation(grid):
    """The truncation L a sphere grid was built for: the inverse of ``dealias_rule``."""
    return 2 * grid.max_degree // 3


def build_sphere_grid(L, R):
    """Sphere grid sized for truncation degree L.

    Latitudes are Gauss-Legendre points in cos(theta) (poles excluded),
    longitudes uniform.  The resolution is ``dealias_rule(L)``, so
    quadratic nonlinearities of degree-L fields are integrated exactly;
    weights sum to 4 pi R^2 to rounding.
    """
    if int(L) != L or not 2 <= L <= L_MAX:
        raise ParameterError(
            f"truncation degree must be an integer in 2..{L_MAX}, got {L}")
    if not 0 < R < np.inf:
        raise ParameterError(f"radius must be positive and finite, got {R}")
    M, n_lat, n_lon = dealias_rule(int(L))

    glx, glw = np.polynomial.legendre.leggauss(n_lat)
    theta = np.arccos(glx)
    phi = 2.0 * np.pi * np.arange(n_lon) / n_lon

    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    # row-major (lat, lon) layout
    stg, ctg = st[:, None], ct[:, None]
    spg, cpg = sp[None, :], cp[None, :]
    n = np.stack([(stg * cpg), (stg * spg), np.broadcast_to(ctg, (n_lat, n_lon))],
                 axis=-1).reshape(-1, 3)
    e_theta = np.stack([(ctg * cpg), (ctg * spg), np.broadcast_to(-stg, (n_lat, n_lon))],
                       axis=-1).reshape(-1, 3)
    e_phi = np.stack([np.broadcast_to(-spg, (n_lat, n_lon)),
                      np.broadcast_to(cpg, (n_lat, n_lon)),
                      np.zeros((n_lat, n_lon))], axis=-1).reshape(-1, 3)
    nodes = R * n
    weights = (R * R * 2.0 * np.pi / n_lon) * np.repeat(glw, n_lon)
    return SurfaceGrid(SPHERE, R, 0.0, theta, phi, nodes, weights, n,
                       e_theta, e_phi, glx=glx, max_degree=M)


def build_torus_grid(n_pol, n_tor, R, r):
    """Torus of revolution about the x3-axis, uniform periodic grid.

    The area element r (R + r cos phi) dphi dtheta is baked into the
    weights; trapezoid quadrature of periodic smooth integrands is
    spectrally accurate, and exact for trigonometric polynomials resolved
    by the grid.
    """
    if not 0 < r < R < np.inf:
        raise GeometryError(f"torus needs 0 < r < R < inf, got r={r}, R={R}")
    if not all(int(n) == n and 8 <= n <= TORUS_N_MAX and n % 2 == 0 for n in (n_pol, n_tor)):
        raise ParameterError(f"torus grid sizes must be even integers in "
                             f"8..{TORUS_N_MAX}, got {n_pol} x {n_tor}")
    phi = 2.0 * np.pi * np.arange(n_pol) / n_pol      # poloidal
    theta = 2.0 * np.pi * np.arange(n_tor) / n_tor    # toroidal (about x3)

    cf, sf = np.cos(phi)[:, None], np.sin(phi)[:, None]
    ct, st = np.cos(theta)[None, :], np.sin(theta)[None, :]
    ring = R + r * cf
    nodes = np.stack([ring * ct, ring * st, np.broadcast_to(r * sf, (n_pol, n_tor))],
                     axis=-1).reshape(-1, 3)
    # right-handed frame: e1 (toroidal) x e2 (poloidal) = outward normal
    e1 = np.stack([np.broadcast_to(-st, (n_pol, n_tor)),
                   np.broadcast_to(ct, (n_pol, n_tor)),
                   np.zeros((n_pol, n_tor))], axis=-1).reshape(-1, 3)
    e2 = np.stack([-sf * ct, -sf * st, np.broadcast_to(cf, (n_pol, n_tor))],
                  axis=-1).reshape(-1, 3)
    normals = np.stack([cf * ct, cf * st, np.broadcast_to(sf, (n_pol, n_tor))],
                       axis=-1).reshape(-1, 3)
    weights = (r * ring * (2.0 * np.pi / n_pol) * (2.0 * np.pi / n_tor))
    weights = np.broadcast_to(weights, (n_pol, n_tor)).reshape(-1).copy()
    return SurfaceGrid(TORUS, R, r, phi, theta, nodes, weights, normals, e1, e2)


def tangential_project(grid, v):
    """Frame components of (I - n x n) v for ambient per-node vectors v."""
    v = np.asarray(v, dtype=float)
    if v.shape != (grid.n_nodes, 3):
        raise GridMismatchError("ambient field must have shape (n_nodes, 3)")
    c1 = np.einsum("ij,ij->i", v, grid.e1)
    c2 = np.einsum("ij,ij->i", v, grid.e2)
    return TangentialField(grid, np.stack([c1, c2], axis=1))


# ---------------------------------------------------------------------------
# per-order spectral engine on the sphere (Legendre x longitude)

class SphereEngine:
    """Separable per-order transform between coefficient stacks and nodes.

    Component c of the nodal output of a coefficient vector is

        f_c(theta_i, phi_j) = sum_(l,m) X_c[m, l, i] (a_lm T0_c(m phi_j) + b_lm T1_c(m phi_j))

    where (a_lm, b_lm) are the cos/sin coefficients of (l, m), X_c are the
    latitude profiles, and (T0, T1) = (cos, sin) for in-phase components,
    (sin, -cos) for shifted ones (those carrying one azimuthal derivative).

    Order m holds only the degrees l >= m, so the table ``X`` (pair, row,
    comp, n_lat) stores the orders in pairs of lmax + 1 rows: order 0 alone
    in pair 0, orders m <= lmax + 1 - m and lmax + 1 - m in pair m, m's
    degrees first (a middle order pairs with itself).  ``placement =
    (pair, which, offset)`` puts degree l of order m at row l - offset[m] of
    block pair[m], as its first (which = 0) or second order, and ``trig``
    holds cos/sin(m phi) at rows 4 pair + 2 which + part, zero where a pair
    has no second order.  Synthesis contracts each pair's coefficients with
    its block (a matmul batched over lmax // 2 + 1 pairs), then runs one
    longitude stage against ``trig`` (batched over components): O(L^3)
    memory and O(L^3) work per field.  The adjoint runs both stages
    transposed; analysis is the adjoint applied to the field times the
    quadrature weights.

    ``profiles(m, l, P, dP, d2P)`` returns each component's profiles as a
    (pair, row, n_lat) array, from the order and degree of each row (shape
    (pair, row, 1)) and the Legendre tables of ``plm_tables`` on the rows,
    which are zero on rows that hold no degree; so must the profiles be.
    ``shifted`` flags the shifted components and ``weights`` holds the
    quadrature weight of each node.  Flat coefficients (the last axis of a
    (k, n) stack) follow the degree-major layout [(l,0), (l,1,cos),
    (l,1,sin), ..., (l,l,sin)] for lmin <= l <= lmax.
    """

    def __init__(self, grid, lmin, lmax, profiles, shifted, weights):
        n_orders = lmax + 1
        self.n_lat, self.n_lon = grid.n_lat, grid.n_lon
        self.weights = weights
        m = np.arange(n_orders)
        pair = np.minimum(m, n_orders - m)
        which = (m > pair).astype(int)
        offset = np.where(which, 0, m)
        self.placement = (pair, which, offset)
        n_pairs = n_orders // 2 + 1
        # (order, degree) of every held degree, l >= max(m, lmin)
        held_m, held_l = np.nonzero(m[None, :] >= np.maximum(m, lmin)[:, None])
        rows = (pair[held_m], held_l - offset[held_m])
        tables = np.zeros((3, n_pairs, n_orders, grid.n_lat))
        tables[:, rows[0], rows[1]] = plm_tables(lmax, grid.glx)[:, held_m, held_l]
        row_m, row_l = np.zeros((2, n_pairs, n_orders, 1), dtype=int)
        row_m[rows], row_l[rows] = held_m[:, None], held_l[:, None]
        self.X = np.stack(profiles(row_m, row_l, *tables), axis=2)     # (pair, row, c, i)
        mphi = np.outer(m, grid.lon)
        cos, sin = np.cos(mphi), np.sin(mphi)
        in_phase = np.stack([cos, sin], axis=1)                          # (m, 2, n_lon)
        quarter = np.stack([sin, -cos], axis=1)
        trig = np.zeros((len(shifted), 2 * n_pairs, 2, grid.n_lon))
        trig[:, 2 * pair + which] = np.where(np.reshape(shifted, (-1, 1, 1, 1)), quarter, in_phase)
        self.trig = trig.reshape(len(shifted), -1, grid.n_lon)
        # contiguous, so the adjoint's longitude stage stays on BLAS
        self.trig_t = np.ascontiguousarray(self.trig.transpose(0, 2, 1))
        degrees = np.arange(lmin, n_orders)
        degree = np.repeat(degrees, 2 * degrees + 1)
        j = np.arange(degree.size) - (degree * degree - lmin * lmin)   # place in the block
        order, part = (j + 1) // 2, ((j > 0) & (j % 2 == 0)).astype(int)
        self.layout = (order, part, degree)
        # (pair, which and part, row) of each flat coefficient
        self._index = (pair[order], 2 * which[order] + part, degree - offset[order])
        self._flat = {}                 # per stack height: the flat indices below

    def _flat_index(self, k):
        """Flat indices of a k-row stack in the (pair, 4, k, row) and (pair, row, 4, k) arrays."""
        if k not in self._flat:
            pair, sub, row = self._index
            n_rows, r = self.X.shape[1], np.arange(k)[:, None]
            self._flat[k] = (((4 * pair + sub) * k + r) * n_rows + row,
                             ((pair * n_rows + row) * 4 + sub) * k + r)
        return self._flat[k]

    def synthesize(self, c, comps=slice(None)):
        """Nodal values (n_comps, k, n_nodes) of a coefficient stack (k, n)."""
        X = self.X[:, :, comps]
        n_pairs, n_rows, n_comp, n_lat = X.shape
        k = c.shape[0]
        Z = np.zeros(n_pairs * 4 * k * n_rows)
        Z[self._flat_index(k)[0]] = c
        F = Z.reshape(n_pairs, 4 * k, n_rows) @ X.reshape(n_pairs, n_rows, -1)
        F = F.reshape(n_pairs, 4, k, n_comp, n_lat).transpose(3, 2, 4, 0, 1)
        f = F.reshape(n_comp, k * n_lat, 4 * n_pairs) @ self.trig[comps]
        return f.reshape(n_comp, k, n_lat * self.n_lon)

    def adjoint(self, f, comps=slice(None)):
        """Transpose of ``synthesize``: coefficient stack (k, n) of f (n_comps, k, n_nodes)."""
        X = self.X[:, :, comps]
        n_pairs, n_rows, n_comp, n_lat = X.shape
        k = f.shape[1]
        G = f.reshape(n_comp, k * n_lat, self.n_lon) @ self.trig_t[comps]
        G = G.reshape(n_comp, k, n_lat, n_pairs, 4).transpose(3, 0, 2, 4, 1)
        Z = X.reshape(n_pairs, n_rows, -1) @ G.reshape(n_pairs, n_comp * n_lat, 4 * k)
        return Z.take(self._flat_index(k)[1])

    def analyze(self, f, comps=slice(None)):
        """Coefficient stack (k, n) of nodal f (n_comps, k, n_nodes) by quadrature."""
        return self.adjoint(f * self.weights, comps)

    def sq_norms(self, comps=slice(None)):
        """Quadrature of sum_c f_c^2 over the nodes, per unit coefficient."""
        X2 = self.X[:, :, comps] ** 2
        T2 = self.trig[comps].reshape(X2.shape[2], -1, 4, self.n_lon) ** 2
        W = self.weights.reshape(self.n_lat, self.n_lon)
        norms = np.einsum("prci,ij,cpsj->psr", X2, W, T2, optimize=True)
        pair, sub, row = self._index
        return norms[pair, sub, row]


def _scalar_engine(grid):
    """Engine of real scalar harmonics up to the grid's degree.

    Components: the harmonic itself (analysis over the unit-sphere
    measure), then its gradient along e_theta and e_phi on the radius-R
    sphere.
    """
    key = "scalar_engine"
    if key not in grid._caches:
        s = np.sin(grid.lat)

        def profiles(m, l, P, dP, d2P):
            fac = np.where(m > 0, np.sqrt(2.0), 1.0)
            return fac * P, fac * dP / grid.R, -m * fac * P / (grid.R * s)
        grid._caches[key] = SphereEngine(grid, 0, grid.max_degree, profiles,
                                         (False, False, True), grid.weights / grid.R ** 2)
    return grid._caches[key]


# ---------------------------------------------------------------------------
# torus Fourier derivatives (internal)

def _fft_deriv(f2, axis):
    """Derivative of the trigonometric interpolant along a 2*pi-periodic axis.

    The Nyquist mode of an even-length axis has no real derivative and is
    dropped.
    """
    n = f2.shape[axis]
    kvec = 1j * np.arange(n // 2 + 1)
    if n % 2 == 0:
        kvec[-1] = 0.0
    shape = [1] * f2.ndim
    shape[axis] = kvec.size
    return np.fft.irfft(np.fft.rfft(f2, axis=axis) * kvec.reshape(shape), n, axis=axis)


def _torus_directional(grid, f):
    """Derivatives of nodal scalars (..., n_nodes) along (e1, e2): (..., 2, n_nodes)."""
    f2 = f.reshape(f.shape[:-1] + (grid.n_lat, grid.n_lon))
    h2 = (grid.R + grid.r * np.cos(grid.lat))[:, None]
    d_tor = _fft_deriv(f2, axis=-1) / h2          # along e1
    d_pol = _fft_deriv(f2, axis=-2) / grid.r      # along e2
    return np.stack([d_tor, d_pol], axis=-3).reshape(f.shape[:-1] + (2, grid.n_nodes))


# ---------------------------------------------------------------------------
# differential operators

def _directional_derivatives(grid, f):
    """Derivatives of nodal scalars (..., n_nodes) along the canonical frame
    directions: (..., 2, n_nodes)."""
    if grid.kind != SPHERE:
        return _torus_directional(grid, f)
    eng = _scalar_engine(grid)
    c = eng.analyze(f.reshape(1, -1, grid.n_nodes), slice(0, 1))
    g = eng.synthesize(c, slice(1, 3)).transpose(1, 0, 2)     # (k, 2, n)
    return g.reshape(f.shape[:-1] + (2, grid.n_nodes))


def surface_gradient(grid, p):
    """Tangential gradient of a nodal scalar via the spectral interpolant."""
    p = np.asarray(p, dtype=float)
    if p.shape != (grid.n_nodes,):
        raise GridMismatchError("scalar field must have one value per node")
    g = _directional_derivatives(grid, p)
    if not grid.canonical_frame:
        c1, c2 = grid.canonical
        return tangential_project(grid, g[0][:, None] * c1 + g[1][:, None] * c2)
    return TangentialField(grid, g.T)


def covariant_derivatives(grid, comps):
    """Covariant derivatives P (grad u_hat) P of a stack of nodal fields.

    ``comps`` holds the frame components of k fields stack-first, shape
    (k, 2, n_nodes); the result holds their tensors, shape (k, 2, 2, n_nodes).
    Computed from the ambient components of the tangentially extended
    interpolant: entry (i, j) is the derivative along e_j of the field,
    projected on e_i.  Exact for band-limited fields.
    """
    frame = np.ascontiguousarray(np.stack([grid.e1, grid.e2]).transpose(0, 2, 1))  # (2, 3, n)
    amb = np.einsum("kan,acn->kcn", comps, frame)      # ambient, frame independent
    D = _directional_derivatives(grid, amb)            # (k, 3, 2, n): comp x canonical dir
    if not grid.canonical_frame:
        c1, c2 = grid.canonical
        # rotate the direction index into this grid's frame
        rot = np.einsum("anc,bnc->abn", frame.transpose(0, 2, 1), np.stack([c1, c2]))
        D = np.einsum("jan,kcan->kcjn", rot, D)
    # T_ij = sum_c (e_i)_c d_{e_j} u_c
    return np.einsum("icn,kcjn->kijn", frame, D)


def covariant_derivative(grid, u):
    """Covariant derivative of one tangential field (see ``covariant_derivatives``)."""
    if u.grid is not grid:
        raise GridMismatchError("field is defined on a different grid")
    T = covariant_derivatives(grid, u.comps.T[None])[0]
    return TangentialTensor(grid, T.transpose(2, 0, 1))


def surface_divergence(grid, u):
    """Trace of the covariant derivative, one scalar per node."""
    return covariant_derivative(grid, u).trace()


def rate_of_strain(grid, u):
    """Symmetric part of the covariant derivative."""
    return covariant_derivative(grid, u).sym()


# ---------------------------------------------------------------------------
# inner products and norms

def l2_inner(grid, u, v):
    """L2 inner product of two tangential fields (or tensors) by quadrature."""
    if u.grid is not grid or v.grid is not grid:
        raise GridMismatchError("fields live on different grids")
    a, b = u.comps, v.comps
    if a.shape != b.shape:
        raise GridMismatchError("field/tensor rank mismatch")
    prod = (a * b).reshape(grid.n_nodes, -1).sum(axis=1)
    return float(np.dot(grid.weights, prod))


def l2_norm(grid, u):
    return float(np.sqrt(max(l2_inner(grid, u, u), 0.0)))


def h1_norm(grid, u):
    """H1 norm: ||u||^2 + ||grad u||^2 (Frobenius) under quadrature."""
    T = covariant_derivative(grid, u)
    return float(np.sqrt(max(l2_inner(grid, u, u) + l2_inner(grid, T, T), 0.0)))


def strain_norm(grid, u):
    """L2 norm of the surface rate-of-strain tensor."""
    E = rate_of_strain(grid, u)
    return float(np.sqrt(max(l2_inner(grid, E, E), 0.0)))
