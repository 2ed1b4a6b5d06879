"""Divergence-free vector spherical-harmonic transforms on the sphere.

The solver state lives in the real toroidal basis

    Phi_lm = (n x grad_G Y_lm) / sqrt(l(l+1)),   1 <= l <= L,  -l <= m <= l,

which is L2-orthonormal on the radius-R sphere for any R.  Every tangential
divergence-free field on the sphere is toroidal, so truncating to this basis
realizes the Helmholtz-Leray projection exactly and the divergence constraint
holds by construction.  The degree-1 block spans precisely the rigid
rotations, i.e. the Killing fields.

Coefficients are stored as reals: for each degree l the layout is
[(l,0), (l,1,cos), (l,1,sin), ..., (l,l,cos), (l,l,sin)], with block l
occupying the slice [l^2 - 1, (l+1)^2 - 1).  A negative m in the public API
addresses the sine partner of |m|.

Transforms run on the per-order engine of the geometry module: per order m
the coefficients contract with latitude profiles, stored by order pairs so
that no block holds the zero degrees l < m, then one longitude stage
applies cos/sin(m phi).  Tables take O(L^3) memory and each transform
O(L^3) work; no per-mode nodal table is stored.  The profiles are, in
order, the field (A, B), its scalar vorticity omega and its covariant
derivative (dA, mixTF, dB, mixFF): ``FIELD``, ``VORT`` (the field and
omega, all the convective term needs) and ``GRAD`` select them.

A weight constant along latitude rows couples no two signed orders, so its
forms are stored per order, on its engine pair's rows (``order_forms``).
"""

from functools import partial

import numpy as np

from ._legendre import plm_tables
from .errors import GridMismatchError, ParameterError
from .geometry import SPHERE, SphereEngine, TangentialField


def n_modes(L):
    """Dimension of the toroidal span up to degree L."""
    return L * (L + 2)


def mode_index(L, l, m):
    """Flat index of mode (l, m); m < 0 addresses the sine partner of |m|."""
    if not (1 <= l <= L) or abs(m) > l:
        raise ParameterError(f"mode (l={l}, m={m}) outside truncation L={L}")
    base = l * l - 1
    if m == 0:
        return base
    return base + 2 * abs(m) - (1 if m > 0 else 0)


class SpectralState:
    """Real toroidal coefficients up to degree L at time t."""

    def __init__(self, L, coeffs=None, t=0.0):
        self.L = int(L)
        if coeffs is None:
            coeffs = np.zeros(n_modes(self.L))
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (n_modes(self.L),):
            raise ParameterError(
                f"coefficient vector must have length {n_modes(self.L)}")
        self.coeffs = coeffs
        self.t = float(t)

    def killing_norm(self):
        return float(np.linalg.norm(self.coeffs[:3]))

    def nonkilling_norm(self):
        return float(np.linalg.norm(self.coeffs[3:]))

    def set(self, l, m, value):
        self.coeffs[mode_index(self.L, l, m)] = value


class SphereTransform:
    """Toroidal transforms for (grid, L) on the per-order engine.

    Holds only the latitude profiles of the toroidal field, (A, B), of its
    scalar vorticity omega and of its closed-form covariant derivative,
    (dA, mixTF, dB, mixFF), for every order and degree up to L: O(L^3)
    memory, and O(L^3) work per transform (see ``geometry.SphereEngine``).
    ``mode_l`` gives the degree of each flat index, read off the engine's
    layout.
    ``strain_norm2`` holds ||eps(Phi)||_{L2}^2 per degree l = 1..L and
    ``grad_norm2`` ||grad Phi||_{L2}^2 per mode: the tables of
    ``degree_norms``, read off the engine's order-0 profiles.  A run holds
    one, built by ``operators.assemble_stokes`` and read as
    ``form.transform``; nothing caches transforms per grid.  Immutable
    after construction; transforms are pure functions of their inputs and
    safe to call concurrently.
    """

    FIELD = slice(0, 2)     # u_theta, u_phi
    VORT = slice(0, 3)      # u_theta, u_phi, omega
    GRAD = slice(3, 7)      # T_00, T_01, T_10, T_11 of the covariant derivative

    def __init__(self, grid, L):
        _check_degree(grid, L)
        self.grid = grid
        self.L = int(L)
        self.n_modes = n_modes(self.L)
        self.engine = SphereEngine(grid, 1, self.L, partial(_profiles, grid),
                                   (True, False, False, True, False, False, True), grid.weights)
        self.mode_l = self.engine.layout[2]
        # order 0 is pair 0 of the engine's table, its row l degree l
        _, mixTF, dB, _ = self.engine.X[0, :, self.GRAD].swapaxes(0, 1)
        self.strain_norm2, grad = _zonal_norms(grid, mixTF, dB)
        self.grad_norm2 = grad[self.mode_l - 1]

    # -- transforms ----------------------------------------------------------

    def analyze(self, u):
        """Toroidal coefficients of a nodal tangential field by quadrature.

        On the sphere the toroidal expansion discards exactly the gradient
        (spheroidal) part, so this is also the Helmholtz-Leray projection.
        """
        if u.grid is not self.grid:
            raise GridMismatchError("field lives on a different grid")
        return SpectralState(self.L, self.engine.analyze(u.comps.T[:, None], self.FIELD)[0])

    def synthesize(self, state):
        """Nodal field of a coefficient state."""
        if state.L != self.L:
            raise ParameterError("state truncation does not match transform")
        u = self.engine.synthesize(state.coeffs[None], self.FIELD)[:, 0]
        return TangentialField(self.grid, u.T)

    def order_forms(self, weight):
        """F of a weight constant along every latitude row, per signed order on
        the rows of its engine pair: shape (order, sin part, row, row), degree l
        of order m at row l - offset[m] of ``engine.placement``, symmetrized.

        Such a weight pairs cos/sin(m phi) only with itself, so F is one
        Gauss-Legendre sum per signed order over the strain profiles
        E = (dA, (mixTF + dB) / 2, mixFF):
        F[(l, m), (l', m)] = sum_i w_i sum_c tau_c E_c[m, l, i] E_c[m, l', i],
        where tau_c = sum_j trig_c(m phi_j)^2, doubled for the off-diagonal
        strain entry, which appears twice in eps:eps.  One Gram product per
        engine pair, then one sum over c per order: O(L^4) work, and no
        transform.  The sine part of m = 0 is zero: its trig sums meet a factor m.
        A weight varying along a row would couple every order into one dense
        form, which ``operators.assemble_stokes`` refuses.
        """
        pair, which, _ = self.engine.placement
        X = self.engine.X[:, :, self.GRAD]                      # (pair, row, c, i)
        E = np.stack([X[:, :, 0], 0.5 * (X[:, :, 1] + X[:, :, 2]), X[:, :, 3]], 1)
        w = np.reshape(weight, (self.grid.n_lat, -1))[:, 0]
        G = (E * w) @ E.swapaxes(-1, -2)                        # (pair, c, row, row')
        trig = self.engine.trig[self.GRAD][[0, 1, 3]].reshape(3, -1, 2, 2, self.grid.n_lon)
        tau = (trig[:, pair, which] ** 2).sum(-1) * np.array([1.0, 2.0, 1.0])[:, None, None]
        F = (tau.transpose(1, 2, 0) @ G[pair].reshape(pair.size, 3, -1)).reshape(
            pair.size, 2, self.L + 1, self.L + 1)
        return 0.5 * (F + F.swapaxes(-1, -2))


def _check_degree(grid, L):
    if grid.kind != SPHERE:
        raise ParameterError("spectral vector transforms are sphere-only")
    if L < 1 or grid.max_degree < L:
        raise ParameterError(
            f"grid resolves degree {grid.max_degree} < requested L={L}")


def _profiles(g, m, l, P, dP, d2P):
    """Latitude profiles (A, B, omega, dA, mixTF, dB, mixFF) on the grid g of
    the modes of order m and degree l, from their Legendre tables.

    u = (A trig', B trig) per mode, with trig' the quarter-shifted
    longitude factor.  Phi_lm is n x grad of Y_lm / sqrt(l(l+1)), so its
    vorticity is -l(l+1)/R^2 times that stream function, in phase.  The
    covariant derivative follows in closed form in spherical
    coordinates, cross-validated against the ambient-interpolant route of
    the test suite's nodal oracle (``tests/nodal_oracle.py``); it is the
    sphere's only derivative route.
    """
    # degree 0 is outside the layout, so its profiles are never read
    q = np.where(m > 0, np.sqrt(2.0), 1.0) / np.sqrt(np.maximum(l * (l + 1), 1))
    s = np.sin(g.lat)
    x = np.cos(g.lat)
    A = q * m * P / (g.R * s)
    B = q * dP / g.R
    omega = -l * (l + 1) * q * P / g.R ** 2
    dA = q * m * (dP * s - P * x) / (g.R * s) ** 2
    dB = q * d2P / g.R ** 2
    mixTF = (m * A - x * B) / (g.R * s)
    mixFF = (x * A - m * B) / (g.R * s)
    return A, B, omega, dA, mixTF, dB, mixFF


def degree_norms(grid, L):
    """(||eps(Phi_l)||^2, ||grad Phi_l||^2), each per degree l = 1..L.

    The sphere is rotation-invariant, so every order of degree l has the
    norms of the zonal mode (l, 0), and those need only the order-0 column
    of the Legendre tables: no transform.
    """
    _check_degree(grid, L)
    l = np.arange(L + 1)[:, None]
    P, dP, d2P = plm_tables(L, grid.glx, 0)[:, 0]
    _, _, _, _, mixTF, dB, _ = _profiles(grid, np.zeros_like(l), l, P, dP, d2P)
    return _zonal_norms(grid, mixTF, dB)


def _zonal_norms(grid, mixTF, dB):
    """``degree_norms`` from the zonal profiles mixTF and dB of degrees 0..L.

    At m = 0 the shifted components (dA, mixFF) carry sin(0 phi) = 0 and the
    in-phase ones cos(0 phi) = 1 at each of the n_lon longitudes, so the
    strain is the off-diagonal entry e = (mixTF + dB) / 2, counted twice in
    eps:eps.  The strain norms are the diagonal of the Gram product
    (e w) e^T over the latitudes, the product ``SphereTransform.order_forms``
    runs on pair 0, and so the same bits.
    """
    w = np.reshape(grid.weights, (grid.n_lat, -1))[:, 0]
    e = 0.5 * (mixTF + dB)
    strain = 2.0 * grid.n_lon * np.diagonal((e * w) @ e.T)
    grad = grid.n_lon * ((mixTF * mixTF + dB * dB) @ w)
    return strain[1:], grad[1:]


def random_band_limited(transform, seed, l_max=None,
                        norm_killing=None, norm_nonkilling=None):
    """Seeded random state with prescribed Killing/non-Killing norms.

    Degree l has standard deviation 1/l^2 (a smooth profile); modes above
    ``l_max`` stay zero.  When a block norm is given the corresponding block
    is rescaled exactly; a negative seed or block norm, or a requested
    nonzero norm on an all-zero block, is a parameter error.
    """
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    for name, norm in (("norm_killing", norm_killing), ("norm_nonkilling", norm_nonkilling)):
        if norm is not None and norm < 0:
            raise ParameterError(f"{name} must be non-negative, got {norm}")
    L = transform.L
    l_max = L if l_max is None else min(l_max, L)
    rng = np.random.default_rng(seed)
    c = np.zeros(n_modes(L))
    n = n_modes(max(l_max, 0))
    c[:n] = rng.normal(0.0, 1.0 / transform.mode_l[:n] ** 2)
    state = SpectralState(L, c)
    if norm_killing is not None:
        cur = state.killing_norm()
        if cur == 0.0 and norm_killing != 0.0:
            raise ParameterError("cannot rescale an all-zero Killing block")
        state.coeffs[:3] *= (norm_killing / cur) if cur > 0 else 0.0
    if norm_nonkilling is not None:
        cur = state.nonkilling_norm()
        if cur == 0.0 and norm_nonkilling != 0.0:
            raise ParameterError("cannot rescale an all-zero non-Killing block")
        state.coeffs[3:] *= (norm_nonkilling / cur) if cur > 0 else 0.0
    return state
