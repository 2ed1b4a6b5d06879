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

import numpy as np

from .errors import GeometryError, GridMismatchError, ParameterError
from ._legendre import plm_tables

SPHERE = "sphere"
TORUS = "torus"

# Largest sphere truncation degree accepted: L = 64 is the largest measured
# (210 MB peak RSS through one IMEX step); a viscosity that varies along a
# latitude row needs a dense Stokes block of (L(L+2))^2 entries, 13 GB at L = 200.
L_MAX = 64


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
    """

    def __init__(self, kind, R, r, lat, lon, nodes, weights, normals, e1, e2,
                 glx=None, glw=None, max_degree=None, canonical_frame=True):
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
        self.glw = glw
        self.max_degree = max_degree
        self.canonical_frame = canonical_frame
        self.area = float(weights.sum())
        self._caches = {}

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    def as_2d(self, values):
        """View per-node values as (n_lat, n_lon, ...)."""
        values = np.asarray(values)
        return values.reshape((self.n_lat, self.n_lon) + values.shape[1:])

    def with_rotated_frame(self, angles):
        """Copy of this grid with (e1, e2) rotated nodewise by ``angles``.

        Used to assert frame independence of geometric quantities; the copy
        is flagged non-canonical so spectral vector transforms refuse it.
        """
        a = np.broadcast_to(np.asarray(angles, dtype=float), (self.n_nodes,))
        c, s = np.cos(a)[:, None], np.sin(a)[:, None]
        e1 = c * self.e1 + s * self.e2
        e2 = -s * self.e1 + c * self.e2
        g = SurfaceGrid(self.kind, self.R, self.r, self.lat, self.lon,
                        self.nodes, self.weights, self.normals, e1, e2,
                        glx=self.glx, glw=self.glw, max_degree=self.max_degree,
                        canonical_frame=False)
        return g


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

    def __init__(self, grid, comps, symmetric=False):
        comps = np.asarray(comps, dtype=float)
        if comps.shape != (grid.n_nodes, 2, 2):
            raise GridMismatchError("tensor shape does not match grid")
        self.grid = grid
        self.comps = comps
        self.symmetric = symmetric

    def trace(self):
        return self.comps[:, 0, 0] + self.comps[:, 1, 1]

    def sym(self):
        half = 0.5 * (self.comps + np.swapaxes(self.comps, 1, 2))
        return TangentialTensor(self.grid, half, symmetric=True)


class ViscosityField:
    """Strictly positive nodal viscosity with its declared lower bound.

    The discrete gradient sup-norm (a W^{1,inf} proxy) is computed at
    construction and reported, not enforced.
    """

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
        if np.ptp(values) == 0.0:
            self.grad_inf = 0.0
        else:
            g = surface_gradient(grid, values)
            self.grad_inf = float(np.abs(g.comps).max())


def build_sphere_grid(L, R, dealias=True):
    """Sphere grid sized for truncation degree L.

    Latitudes are Gauss-Legendre points in cos(theta) (poles excluded),
    longitudes uniform.  With ``dealias`` the resolved degree follows the
    3L/2 rule so quadratic nonlinearities of degree-L fields are integrated
    exactly; weights sum to 4 pi R^2 to rounding.
    """
    if int(L) != L or not 2 <= L <= L_MAX:
        raise ParameterError(
            f"truncation degree must be an integer in 2..{L_MAX}, got {L}")
    if R <= 0:
        raise ParameterError(f"radius must be positive, got {R}")
    L = int(L)
    M = int(np.ceil(3 * L / 2)) if dealias else L
    n_lat = M + 1
    n_lon = 2 * M + 2

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
                       e_theta, e_phi, glx=glx, glw=glw, max_degree=M)


def build_torus_grid(n_pol, n_tor, R, r):
    """Torus of revolution about the x3-axis, uniform periodic grid.

    The area element r (R + r cos phi) dphi dtheta is baked into the
    weights; trapezoid quadrature of periodic smooth integrands is
    spectrally accurate, and exact for trigonometric polynomials resolved
    by the grid.
    """
    if not (0 < r < R):
        raise GeometryError(f"torus needs 0 < r < R, got r={r}, R={R}")
    if n_pol < 8 or n_tor < 8 or n_pol % 2 or n_tor % 2:
        raise ParameterError("torus grid sizes must be even and >= 8")
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

def legendre_tables(grid):
    """p_lm, dp_lm/dtheta and d^2p_lm/dtheta^2 up to the grid's degree.

    Zero-padded array of shape (3, order, degree, n_lat): entry [t, m, l]
    holds table t of degree l and order m, and is zero for l < m.  Cached
    on the grid; slices [:, :L+1, :L+1] serve any truncation L.
    """
    key = "legendre"
    if key not in grid._caches:
        M = grid.max_degree
        out = np.zeros((3, M + 1, M + 1, grid.n_lat))
        for t, table in enumerate(plm_tables(M, grid.glx, nderiv=2)):
            for m in range(M + 1):
                out[t, m, m:] = table[m]
        grid._caches[key] = out
    return grid._caches[key]


class SphereEngine:
    """Separable per-order transform between coefficient stacks and nodes.

    Component c of the nodal output of a coefficient vector is

        f_c(theta_i, phi_j) = sum_(l,m) X_c[m, l, i] (a_lm T0_c(m phi_j) + b_lm T1_c(m phi_j))

    where (a_lm, b_lm) are the cos/sin coefficients of (l, m), X_c are
    zero-padded latitude profiles of shape (order, degree, n_lat), and
    (T0, T1) = (cos, sin) for in-phase components, (sin, -cos) for shifted
    ones (those carrying one azimuthal derivative).  Synthesis contracts each
    order's coefficients with its profiles (a matmul batched over m), then
    runs one longitude stage against cached cos/sin(m phi) matrices (batched
    over components): O(L^3) memory and O(L^3) work per field.  The adjoint
    runs both stages transposed; analysis is the adjoint applied to the
    field times the quadrature weights.

    ``profiles`` has shape (n_comps, order, degree, n_lat), ``shifted``
    flags the shifted components and ``weights`` holds the quadrature
    weight of each node.  Flat coefficients (the last axis of a (k, n)
    stack) follow the degree-major layout [(l,0), (l,1,cos), (l,1,sin), ...,
    (l,l,sin)] for lmin <= l <= lmax, with lmax + 1 = profiles.shape[1].
    """

    def __init__(self, grid, lmin, profiles, shifted, weights):
        n_comp, n_orders = profiles.shape[:2]
        self.n_lat, self.n_lon = grid.n_lat, grid.n_lon
        self.X = np.ascontiguousarray(profiles.transpose(1, 2, 0, 3))   # (m, l, c, i)
        mphi = np.outer(np.arange(n_orders), grid.lon)
        in_phase = np.stack([np.cos(mphi), np.sin(mphi)], axis=1)       # (m, 2, n_lon)
        quarter = np.stack([np.sin(mphi), -np.cos(mphi)], axis=1)
        self.trig = np.stack([quarter if s else in_phase for s in shifted]).reshape(
            n_comp, 2 * n_orders, grid.n_lon)
        # contiguous, so the adjoint's longitude stage stays on BLAS
        self.trig_t = np.ascontiguousarray(self.trig.transpose(0, 2, 1))
        self.weights = weights
        order, part, degree = [], [], []
        for l in range(lmin, n_orders):
            order += [0] + [m for m in range(1, l + 1) for _ in (0, 1)]
            part += [0] + [0, 1] * l
            degree += [l] * (2 * l + 1)
        self.layout = (np.array(order), np.array(part), np.array(degree))

    def synthesize(self, c, comps=slice(None)):
        """Nodal values (n_comps, k, n_nodes) of a coefficient stack (k, n)."""
        X = self.X[:, :, comps]
        n_orders, _, n_comp, n_lat = X.shape
        k = c.shape[0]
        Z = np.zeros((n_orders, 2, k, n_orders))
        order, part, degree = self.layout
        Z[order, part, :, degree] = c.T
        F = Z.reshape(n_orders, 2 * k, n_orders) @ X.reshape(n_orders, n_orders, -1)
        F = F.reshape(n_orders, 2, k, n_comp, n_lat).transpose(3, 2, 4, 0, 1)
        f = F.reshape(n_comp, k * n_lat, 2 * n_orders) @ self.trig[comps]
        return f.reshape(n_comp, k, n_lat * self.n_lon)

    def adjoint(self, f, comps=slice(None)):
        """Transpose of ``synthesize``: coefficient stack (k, n) of f (n_comps, k, n_nodes)."""
        X = self.X[:, :, comps]
        n_orders, _, n_comp, n_lat = X.shape
        k = f.shape[1]
        G = f.reshape(n_comp, k * n_lat, self.n_lon) @ self.trig_t[comps]
        G = G.reshape(n_comp, k, n_lat, n_orders, 2).transpose(3, 0, 2, 4, 1)
        Z = X.reshape(n_orders, n_orders, -1) @ G.reshape(n_orders, n_comp * n_lat, 2 * k)
        order, part, degree = self.layout
        return Z.reshape(n_orders, n_orders, 2, k)[order, degree, part].T

    def analyze(self, f, comps=slice(None)):
        """Coefficient stack (k, n) of nodal f (n_comps, k, n_nodes) by quadrature."""
        return self.adjoint(f * self.weights, comps)

    def sq_norms(self, comps=slice(None)):
        """Quadrature of sum_c f_c^2 over the nodes, per unit coefficient."""
        X2 = self.X[:, :, comps] ** 2
        T2 = self.trig[comps].reshape(X2.shape[2], -1, 2, self.n_lon) ** 2
        W = self.weights.reshape(self.n_lat, self.n_lon)
        norms = np.einsum("mlci,ij,cmsj->msl", X2, W, T2, optimize=True)
        order, part, degree = self.layout
        return norms[order, part, degree]


def _scalar_engine(grid):
    """Engine of real scalar harmonics up to the grid's degree.

    Components: the harmonic itself (analysis over the unit-sphere
    measure), then its gradient along e_theta and e_phi on the radius-R
    sphere.
    """
    key = "scalar_engine"
    if key not in grid._caches:
        P, dP, _ = legendre_tables(grid)
        m = np.arange(grid.max_degree + 1)[:, None, None]
        fac = np.where(m > 0, np.sqrt(2.0), 1.0)
        s = np.sin(grid.lat)
        profiles = np.stack([fac * P, fac * dP / grid.R, -m * fac * P / (grid.R * s)])
        grid._caches[key] = SphereEngine(grid, 0, profiles, (False, False, True),
                                         grid.weights / grid.R ** 2)
    return grid._caches[key]


# ---------------------------------------------------------------------------
# torus Fourier derivatives (internal)

def _fft_deriv(f2, axis):
    n = f2.shape[axis]
    kvec = np.fft.fftfreq(n, d=1.0 / n) * 1j
    shape = [1] * f2.ndim
    shape[axis] = n
    return np.real(np.fft.ifft(np.fft.fft(f2, axis=axis) * kvec.reshape(shape), axis=axis))


def _torus_directional(grid, f):
    """Derivatives of nodal scalars along (e1, e2); shape (n_nodes, 2) or (n, 2, k)."""
    f = np.asarray(f, dtype=float)
    squeeze = f.ndim == 1
    f2 = f.reshape(grid.n_lat, grid.n_lon, -1)
    h2 = (grid.R + grid.r * np.cos(grid.lat))[:, None, None]
    d_tor = _fft_deriv(f2, axis=1) / h2          # along e1
    d_pol = _fft_deriv(f2, axis=0) / grid.r      # along e2
    out = np.stack([d_tor, d_pol], axis=2).reshape(grid.n_nodes, 2, -1)
    return out[:, :, 0] if squeeze else out


# ---------------------------------------------------------------------------
# differential operators

def _canonical_frame(grid):
    """The coordinate frame the spectral tables differentiate along.

    Recomputed from (lat, lon) so it is available even on grids whose
    stored frame has been rotated.
    """
    key = "canon_frame"
    if key not in grid._caches:
        if grid.kind == SPHERE:
            st, ct = np.sin(grid.lat)[:, None], np.cos(grid.lat)[:, None]
            sp, cp = np.sin(grid.lon)[None, :], np.cos(grid.lon)[None, :]
            shape = (grid.n_lat, grid.n_lon)
            c1 = np.stack([ct * cp, ct * sp, np.broadcast_to(-st, shape)],
                          axis=-1).reshape(-1, 3)
            c2 = np.stack([np.broadcast_to(-sp, shape), np.broadcast_to(cp, shape),
                           np.zeros(shape)], axis=-1).reshape(-1, 3)
        else:
            cf, sf = np.cos(grid.lat)[:, None], np.sin(grid.lat)[:, None]
            ct, st = np.cos(grid.lon)[None, :], np.sin(grid.lon)[None, :]
            shape = (grid.n_lat, grid.n_lon)
            c1 = np.stack([np.broadcast_to(-st, shape), np.broadcast_to(ct, shape),
                           np.zeros(shape)], axis=-1).reshape(-1, 3)
            c2 = np.stack([-sf * ct, -sf * st, np.broadcast_to(cf, shape)],
                          axis=-1).reshape(-1, 3)
        grid._caches[key] = (c1, c2)
    return grid._caches[key]


def _directional_derivatives(grid, f):
    """Derivatives of nodal scalars along the canonical frame directions."""
    if grid.kind != SPHERE:
        return _torus_directional(grid, f)
    eng = _scalar_engine(grid)
    c = eng.analyze(f.reshape(grid.n_nodes, -1).T[None], slice(0, 1))
    g = eng.synthesize(c, slice(1, 3)).transpose(2, 0, 1)      # (n, 2, k)
    return g[:, :, 0] if f.ndim == 1 else g


def surface_gradient(grid, p):
    """Tangential gradient of a nodal scalar via the spectral interpolant."""
    p = np.asarray(p, dtype=float)
    if p.shape != (grid.n_nodes,):
        raise GridMismatchError("scalar field must have one value per node")
    g = _directional_derivatives(grid, p)
    if not grid.canonical_frame:
        c1, c2 = _canonical_frame(grid)
        amb = g[:, :1] * c1 + g[:, 1:] * c2
        return tangential_project(grid, amb)
    return TangentialField(grid, g)


def covariant_derivative(grid, u):
    """Tangential covariant derivative P (grad u_hat) P of a nodal field.

    Computed from the ambient components of the tangentially extended
    interpolant: entry (i, j) is the derivative along e_j of the field,
    projected on e_i.  Exact for band-limited fields.
    """
    if u.grid is not grid:
        raise GridMismatchError("field is defined on a different grid")
    amb = u.ambient()                          # (n, 3), frame independent
    D = _directional_derivatives(grid, amb)    # (n, 2, 3): canonical dir x comp
    if not grid.canonical_frame:
        c1, c2 = _canonical_frame(grid)
        # rotate the direction index into this grid's frame
        M1 = np.stack([np.einsum("nk,nk->n", grid.e1, c1),
                       np.einsum("nk,nk->n", grid.e1, c2)], axis=1)
        M2 = np.stack([np.einsum("nk,nk->n", grid.e2, c1),
                       np.einsum("nk,nk->n", grid.e2, c2)], axis=1)
        D = np.stack([np.einsum("na,nak->nk", M1, D),
                      np.einsum("na,nak->nk", M2, D)], axis=1)
    # T_ij = sum_k (e_i)_k d_{e_j} u_k
    T = np.empty((grid.n_nodes, 2, 2))
    T[:, 0, 0] = np.einsum("nk,nk->n", grid.e1, D[:, 0, :])
    T[:, 0, 1] = np.einsum("nk,nk->n", grid.e1, D[:, 1, :])
    T[:, 1, 0] = np.einsum("nk,nk->n", grid.e2, D[:, 0, :])
    T[:, 1, 1] = np.einsum("nk,nk->n", grid.e2, D[:, 1, :])
    return TangentialTensor(grid, T)


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
