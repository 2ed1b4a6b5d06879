"""Closed-surface grids, quadrature and the torus's tangential calculus.

Two geometries are supported: the sphere of radius R (Gauss-Legendre in
cos(theta) times uniform longitudes) and the embedded torus with major/minor
radii (R, r) (uniform periodic grid in both angles).  Quadrature is exact for
the polynomial degrees the grids are sized for.

Tangential vector fields are stored as two components per node in the local
orthonormal frame (e1, e2).  Each grid carries its builder's frame,
(e_theta, e_phi) on the sphere and (toroidal, poloidal) on the torus.

The nodal calculus here is the torus's alone: its covariant derivative acts
on the Fourier interpolant of the nodal data, so it is exact on band-limited
fields, and reconstructs ambient components from (e1, e2) before
differentiating, so no connection coefficients appear.  The sphere's
derivatives come only from the closed-form GRAD profiles of the toroidal
transform (``harmonics.SphereTransform``), which runs on the per-order
``SphereEngine`` defined here; the nodal functions refuse a sphere grid.
"""

from collections import namedtuple

import numpy as np

from .errors import GeometryError, GridMismatchError, ParameterError
from ._legendre import gauss_legendre, plm_tables

SPHERE = "sphere"
TORUS = "torus"

# Largest sphere truncation degree accepted: L = 64 is the largest measured
# (210 MB peak RSS through one IMEX step).  Every table a run holds, the
# transform's profiles and the Stokes form's blocks alike, grows as L^3.
L_MAX = 64

# Radii accepted by both builders.  At 1e-8 and 1e8, `surfns run` with random
# data at L = 4, 16 and 64 (dt = 1e-3, t_end = 0.01) exits 0 unforced and
# under f5 (exit 3 at 1e8, where f5 grows at rate R - 1), and `surfns korn`
# gives a finite C_P; at 1e-9 the L = 16 and 64 runs diverge at that dt, and
# to t_end = 1 unforced runs exit 3 at R <= 1e-2 (step 24 at 1e-8).  Far
# outside, the squared L2 norms of the rigid rotations, about 8.4 R^4 on the
# sphere, over- or underflow near 1e+-77.
R_MIN, R_MAX = 1e-8, 1e8

# Largest torus grid size along either angle: `surfns korn` on the 352 x 352
# torus takes 0.045 s and peaks at 51 MB RSS (2-core VM); nodal arrays grow
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
        (e1, e2) is the builder's frame, along which derivatives are taken.
    """

    def __init__(self, kind, R, r, lat, lon, nodes, weights, normals, e1, e2,
                 glx=None, max_degree=None):
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
        self.area = float(weights.sum())

    @property
    def n_nodes(self):
        return self.nodes.shape[0]


class TangentialField:
    """Tangential vector field: two frame components per node."""

    def __init__(self, grid, comps):
        comps = np.asarray(comps, dtype=float)
        if comps.shape != (grid.n_nodes, 2):
            raise GridMismatchError(
                f"field shape {comps.shape} does not match grid with {grid.n_nodes} nodes")
        self.grid = grid
        self.comps = comps


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


def check_degree(L):
    """Raise ParameterError unless the truncation degree L is an integer in 2..L_MAX."""
    if int(L) != L or not 2 <= L <= L_MAX:
        raise ParameterError(f"truncation degree must be an integer in 2..{L_MAX}, got {L}")


def check_radius(R):
    """Raise ParameterError unless the radius R lies in [R_MIN, R_MAX]."""
    if not R_MIN <= R <= R_MAX:
        raise ParameterError(f"radius must lie in [{R_MIN:g}, {R_MAX:g}], got {R}")


def check_torus_radii(R, r):
    """Raise GeometryError unless the torus radii satisfy R_MIN <= r < R <= R_MAX."""
    if not R_MIN <= r < R <= R_MAX:
        raise GeometryError(f"torus needs {R_MIN:g} <= r < R <= {R_MAX:g}, got r={r}, R={R}")


def check_torus_size(n):
    """Raise ParameterError unless a torus grid size n is an even integer in 8..TORUS_N_MAX."""
    if not (int(n) == n and 8 <= n <= TORUS_N_MAX and n % 2 == 0):
        raise ParameterError(f"torus grid sizes must be even integers in 8..{TORUS_N_MAX}, "
                             f"got {n}")


def build_sphere_grid(L, R):
    """Sphere grid sized for truncation degree L.

    Latitudes are Gauss-Legendre points in cos(theta) (poles excluded,
    the rule of ``_legendre.gauss_legendre``), longitudes uniform.  The
    resolution is ``dealias_rule(L)``, so quadratic nonlinearities of
    degree-L fields are integrated exactly; weights sum to 4 pi R^2 to
    rounding.
    """
    check_degree(L)
    check_radius(R)
    M, n_lat, n_lon = dealias_rule(int(L))

    glx, glw = gauss_legendre(n_lat)
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
    check_torus_radii(R, r)
    check_torus_size(n_pol)
    check_torus_size(n_tor)
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


# ---------------------------------------------------------------------------
# per-order spectral engine on the sphere (Legendre x longitude)

def _merged(a, shape, copies):
    """``a.reshape(shape)``, a view unless numpy's reshape ``copies``: then a buffer
    and the copy (to, from) that fills it at each call."""
    b = np.empty(shape) if copies else a.reshape(shape)
    return b, ((b.reshape(a.shape), a) if copies else None)


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

    def plan(self, k, comps=slice(None), adjoint=False, factors=None):
        """The ``out`` of one ``synthesize`` (or ``adjoint``) of k rows on ``comps``:
        its flat index into the (pair, 4, k, row) scatter (or from the (pair, row,
        4, k) product), table views and buffers, result last, so a kept plan needs
        no lookup, reshape or allocation.  The zeroed scatter buffer gets the same
        entries at every call; where reshape copies a stage's input, so does the call.
        ``factors`` (n_comps, n_lat), if given, scale each component's profiles at each
        latitude: the plan then holds its own scaled copy of the table."""
        X = self.X[:, :, comps] if factors is None else self.X[:, :, comps] * factors
        n_pairs, n_rows, n_comp, n_lat = X.shape
        X = X.reshape(n_pairs, n_rows, -1)
        (pair, sub, row), r = self._index, np.arange(k)[:, None]
        if adjoint:
            G = np.empty((n_comp, k * n_lat, 4 * n_pairs))
            H, copy = _merged(G.reshape(n_comp, k, n_lat, n_pairs, 4).transpose(3, 0, 2, 4, 1),
                              (n_pairs, n_comp * n_lat, 4 * k), k > 1)
            return ((n_comp, k * n_lat, self.n_lon), self.trig_t[comps], G, copy, X, H,
                    np.empty((n_pairs, n_rows, 4 * k)), ((pair * n_rows + row) * 4 + sub) * k + r,
                    np.empty((k, self.layout[0].size)))
        Z, F = np.zeros((n_pairs, 4 * k, n_rows)), np.empty((n_pairs, 4 * k, n_comp * n_lat))
        T, copy = _merged(F.reshape(n_pairs, 4, k, n_comp, n_lat).transpose(3, 2, 4, 0, 1),
                          (n_comp, k * n_lat, 4 * n_pairs), k > 1 and n_comp > 1)
        f = np.empty((n_comp, k, n_lat * self.n_lon))
        return (Z.reshape(-1), ((4 * pair + sub) * k + r) * n_rows + row, Z, X, F, copy, T,
                self.trig[comps], f.reshape(n_comp, k * n_lat, self.n_lon), f)

    def synthesize(self, c, comps=slice(None), out=None):
        """Nodal values (n_comps, k, n_nodes) of a coefficient stack (k, n),
        by the ``plan`` ``out`` when given."""
        flat, index, Z, X, F, copy, T, trig, f, nodal = out or self.plan(c.shape[0], comps)
        flat[index] = c
        np.matmul(Z, X, out=F)
        if copy:
            np.copyto(*copy)
        np.matmul(T, trig, out=f)
        return nodal

    def adjoint(self, f, comps=slice(None), out=None):
        """Transpose of ``synthesize``: coefficient stack (k, n) of f (n_comps,
        k, n_nodes), by the ``plan`` ``out`` (made with ``adjoint=True``) when given."""
        shape, trig, G, copy, X, H, Z, index, c = out or self.plan(f.shape[1], comps, True)
        np.matmul(f.reshape(shape), trig, out=G)
        if copy:
            np.copyto(*copy)
        np.matmul(X, H, out=Z)
        return Z.take(index, out=c, mode="clip")

    def analyze(self, f, comps=slice(None)):
        """Coefficient stack (k, n) of nodal f (n_comps, k, n_nodes) by quadrature."""
        return self.adjoint(f * self.weights, comps)


# ---------------------------------------------------------------------------
# torus calculus: Fourier derivatives of the ambient components

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


def covariant_derivatives(grid, comps):
    """Covariant derivatives P (grad u_hat) P of a stack of nodal fields on the torus.

    ``comps`` holds the frame components of k fields stack-first, shape
    (k, 2, n_nodes); the result holds their tensors, shape (k, 2, 2, n_nodes).
    Computed from the ambient components of the tangentially extended
    interpolant: entry (i, j) is the derivative along e_j of the field,
    projected on e_i.  Exact for band-limited fields.  A sphere grid raises
    ParameterError: the sphere's derivatives are the transform's GRAD tables.
    """
    if grid.kind == SPHERE:
        raise ParameterError("no nodal covariant derivative on the sphere: synthesize "
                             "the transform's closed-form GRAD tables (SphereTransform.GRAD)")
    frame = np.ascontiguousarray(np.stack([grid.e1, grid.e2]).transpose(0, 2, 1))  # (2, 3, n)
    amb = np.einsum("kan,acn->kcn", comps, frame)      # ambient components
    D = _torus_directional(grid, amb)                  # (k, 3, 2, n): comp x frame dir
    # T_ij = sum_c (e_i)_c d_{e_j} u_c
    return np.einsum("icn,kcjn->kijn", frame, D)


def covariant_derivative(grid, u):
    """Covariant derivative of one tangential field on the torus, shape
    (n_nodes, 2, 2) (see ``covariant_derivatives``)."""
    if u.grid is not grid:
        raise GridMismatchError("field is defined on a different grid")
    return covariant_derivatives(grid, u.comps.T[None])[0].transpose(2, 0, 1)


# ---------------------------------------------------------------------------
# inner products and norms

def _quadrature(grid, a):
    """Quadrature of per-node data a (n_nodes, ...), summed over its entries."""
    return float(np.dot(grid.weights, a.reshape(grid.n_nodes, -1).sum(axis=1)))


def l2_inner(grid, u, v):
    """L2 inner product of two tangential fields by quadrature."""
    if u.grid is not grid or v.grid is not grid:
        raise GridMismatchError("fields live on different grids")
    return _quadrature(grid, u.comps * v.comps)


def h1_norm(grid, u):
    """H1 norm on the torus: ||u||^2 + ||grad u||^2 (Frobenius) under quadrature."""
    T = covariant_derivative(grid, u)
    return float(np.sqrt(l2_inner(grid, u, u) + _quadrature(grid, T * T)))


def strain_norm(grid, u):
    """L2 norm of the surface rate-of-strain tensor on the torus."""
    T = covariant_derivative(grid, u)
    E = 0.5 * (T + T.swapaxes(1, 2))
    return float(np.sqrt(_quadrature(grid, E * E)))
