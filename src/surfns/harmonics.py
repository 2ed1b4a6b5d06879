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
addresses the sine partner of |m|.  The complex view is derived and satisfies
the usual reality condition.

Transforms run on the per-order engine of the geometry module: per order m
the coefficients contract with zero-padded latitude profiles, then one
longitude stage applies cos/sin(m phi).  Tables take O(L^3) memory and each
transform O(L^3) work; no per-mode nodal table is stored.
"""

import math
from collections import namedtuple

import numpy as np

from .errors import GridMismatchError, ParameterError
from .geometry import (SPHERE, SphereEngine, TangentialField, TangentialTensor,
                       legendre_tables)

DealiasRule = namedtuple("DealiasRule", ["degree", "n_lat", "n_lon"])

_FORM_CHUNK = 32        # probes per matrix-free weak-form pass


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


def n_modes(L):
    """Dimension of the toroidal span up to degree L."""
    return L * (L + 2)


def block_slice(l):
    """Coefficient slice of degree l."""
    return slice(l * l - 1, (l + 1) * (l + 1) - 1)


def mode_index(L, l, m):
    """Flat index of mode (l, m); m < 0 addresses the sine partner of |m|."""
    if not (1 <= l <= L) or abs(m) > l:
        raise ParameterError(f"mode (l={l}, m={m}) outside truncation L={L}")
    base = l * l - 1
    if m == 0:
        return base
    return base + 2 * abs(m) - (1 if m > 0 else 0)


def pad_parts(parts):
    """(gather, valid), both (n_parts, largest part): gather[p, j] is the j-th
    mode of part p where valid[p, j], else mode 0."""
    valid = np.arange(max(map(len, parts))) < np.array([len(p) for p in parts])[:, None]
    gather = np.zeros(valid.shape, dtype=int)
    gather[valid] = np.concatenate(parts)
    return gather, valid


def as_stack(state):
    """(coefficient stack of shape (k, n_modes), L) of a SpectralState, which
    is one row, or of a stack itself."""
    if isinstance(state, SpectralState):
        return state.coeffs[None], state.L
    L = math.isqrt(state.shape[-1] + 1) - 1
    if state.ndim != 2 or n_modes(L) != state.shape[-1]:
        raise ParameterError(f"not a coefficient stack: shape {state.shape}")
    return state, L


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

    def copy(self):
        return SpectralState(self.L, self.coeffs.copy(), self.t)

    def norm(self):
        """L2 norm of the represented field (Parseval)."""
        return float(np.linalg.norm(self.coeffs))

    def killing_norm(self):
        return float(np.linalg.norm(self.coeffs[:3]))

    def nonkilling_norm(self):
        return float(np.linalg.norm(self.coeffs[3:]))

    def get(self, l, m):
        return float(self.coeffs[mode_index(self.L, l, m)])

    def set(self, l, m, value):
        self.coeffs[mode_index(self.L, l, m)] = value

    def to_complex(self):
        """Derived complex coefficients c[l][m], m = -l..l.

        Built from the real storage via c_{l0} = a_{l0},
        c_{lm} = (a_cos - i a_sin)/sqrt(2) and the reality condition
        c_{l,-m} = (-1)^m conj(c_{lm}).
        """
        out = {}
        for l in range(1, self.L + 1):
            row = np.zeros(2 * l + 1, dtype=complex)
            row[l] = self.coeffs[mode_index(self.L, l, 0)]
            for m in range(1, l + 1):
                ac = self.coeffs[mode_index(self.L, l, m)]
                as_ = self.coeffs[mode_index(self.L, l, -m)]
                c = (ac - 1j * as_) / np.sqrt(2.0)
                row[l + m] = c
                row[l - m] = (-1) ** m * np.conj(c)
            out[l] = row
        return out


class SphereTransform:
    """Toroidal transforms for (grid, L) on the per-order engine.

    Holds only the latitude profiles of the toroidal field, (A, B), and of
    its closed-form covariant derivative, (dA, mixTF, dB, mixFF), for every
    order and degree up to L: O(L^3) memory, and O(L^3) work per transform
    (see ``geometry.SphereEngine``).  Immutable after construction;
    transforms are pure functions of their inputs and safe to call
    concurrently.
    """

    FIELD = slice(0, 2)     # u_theta, u_phi
    GRAD = slice(2, 6)      # T_00, T_01, T_10, T_11 of the covariant derivative

    def __init__(self, grid, L):
        if grid.kind != SPHERE:
            raise ParameterError("spectral vector transforms are sphere-only")
        if not grid.canonical_frame:
            raise ParameterError("transforms require the canonical (e_theta, e_phi) frame")
        if L < 1 or grid.max_degree < L:
            raise ParameterError(
                f"grid resolves degree {grid.max_degree} < requested L={L}")
        self.grid = grid
        self.L = int(L)
        self.n_modes = n_modes(self.L)
        self.dealiased = grid.max_degree >= dealias_rule(self.L).degree

        self.mode_l = np.zeros(self.n_modes, dtype=int)
        self.mode_m = np.zeros(self.n_modes, dtype=int)   # signed: <0 means sine
        for l in range(1, self.L + 1):
            for m in range(-l, l + 1):
                k = mode_index(self.L, l, m)
                self.mode_l[k] = l
                self.mode_m[k] = m

        self.engine = SphereEngine(grid, 1, self._profiles(),
                                   (True, False, True, False, False, True), grid.weights)
        self._grad_norm2 = None

    def _profiles(self):
        """Latitude profiles, shape (6, order, degree, n_lat).

        u = (A trig', B trig) per mode, with trig' the quarter-shifted
        longitude factor; the covariant derivative follows in closed form in
        spherical coordinates, cross-validated against the ambient-interpolant
        route of the geometry module.
        """
        g = self.grid
        P, dP, d2P = legendre_tables(g)[:, :self.L + 1, :self.L + 1]
        m = np.arange(self.L + 1)[:, None, None]
        l = np.arange(self.L + 1)[None, :, None]
        # degree 0 is outside the layout, so its profiles are never read
        q = np.where(m > 0, np.sqrt(2.0), 1.0) / np.sqrt(np.maximum(l * (l + 1), 1))
        s = np.sin(g.lat)
        x = np.cos(g.lat)
        A = q * m * P / (g.R * s)
        B = q * dP / g.R
        dA = q * m * (dP * s - P * x) / (g.R * s) ** 2
        dB = q * d2P / g.R ** 2
        mixTF = (m * A - x * B) / (g.R * s)
        mixFF = (x * A - m * B) / (g.R * s)
        return np.stack([A, B, dA, mixTF, dB, mixFF])

    @property
    def grad_norm2(self):
        """||grad Phi_k||_{L2}^2 per mode (used for H1 norms of states)."""
        if self._grad_norm2 is None:
            self._grad_norm2 = self.engine.sq_norms(self.GRAD)
        return self._grad_norm2

    # -- transforms ----------------------------------------------------------

    def _nodal(self, state, comps):
        if state.L != self.L:
            raise ParameterError("state truncation does not match transform")
        return self.engine.synthesize(state.coeffs[None], comps)[:, 0].T

    def toroidal_basis_field(self, l, m):
        """The real orthonormal toroidal mode (l, m) as a nodal field."""
        if l == 0:
            raise ParameterError("no toroidal field of degree 0")
        unit = SpectralState(self.L)
        unit.set(l, m, 1.0)
        return self.synthesize(unit)

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
        return TangentialField(self.grid, self._nodal(state, self.FIELD))

    def grad_synthesize(self, state):
        """Covariant derivative of the state's field, as a nodal tensor."""
        T = self._nodal(state, self.GRAD)
        return TangentialTensor(self.grid, T.reshape(-1, 2, 2))

    def partition(self, weight):
        """Mode parts over which forms weighted by ``weight`` are block-diagonal:
        one per signed order m, degrees ascending, when the weight is constant
        along every latitude row (cos/sin(m phi) then pair only with
        themselves), otherwise one part holding every mode."""
        if np.ptp(np.reshape(weight, (self.grid.n_lat, -1)), axis=1).any():
            return [np.arange(self.n_modes)]
        return [np.flatnonzero(self.mode_m == m) for m in range(-self.L, self.L + 1)]

    def gradient_form(self, weight, parts, strain=True):
        """Blocks of F[j, k] = sum_n weight_n X(Phi_j):X(Phi_k) over a partition.

        X is the rate of strain, or the covariant derivative when ``strain``
        is false.  Returns (n_parts, size, size): F on each part of ``parts``
        (see ``partition``), symmetrized and zero-padded to the largest.
        Matrix-free, F[:, K] = G^T(weight * X(G e_K)) with G the gradient
        synthesis, over chunks of probes: probe j sums the j-th unit state of
        every part, which is exact when F couples no two parts.
        """
        gather, valid = pad_parts(parts)
        F = np.empty((self.n_modes, gather.shape[1]))
        for start in range(0, gather.shape[1], _FORM_CHUNK):
            g, v = gather[:, start:start + _FORM_CHUNK].T, valid[:, start:start + _FORM_CHUNK].T
            probe = np.zeros((g.shape[0], self.n_modes))
            probe[np.nonzero(v)[0], g[v]] = 1.0
            T = self.engine.synthesize(probe, self.GRAD)
            if strain:
                T[1] = T[2] = 0.5 * (T[1] + T[2])
            F[:, start:start + g.shape[0]] = self.engine.adjoint(T * weight, self.GRAD).T
        blocks = F[gather] * (valid[:, :, None] & valid[:, None, :])
        return 0.5 * (blocks + blocks.transpose(0, 2, 1))

    def h1_norm2(self, state):
        """||u||_{H1}^2 via Parseval plus per-mode gradient energies."""
        return float(np.dot(1.0 + self.grad_norm2, state.coeffs ** 2))


def get_transform(grid, L):
    """Per-grid cache of transforms (grids are immutable)."""
    key = ("transform", L)
    if key not in grid._caches:
        grid._caches[key] = SphereTransform(grid, L)
    return grid._caches[key]


def random_band_limited(transform, seed, l_max=None, spectrum=None,
                        norm_killing=None, norm_nonkilling=None):
    """Seeded random state with prescribed Killing/non-Killing norms.

    ``spectrum`` maps degree to a standard deviation (default 1/l^2, a smooth
    profile); modes above ``l_max`` stay zero.  When a block norm is given the
    corresponding block is rescaled exactly; a requested nonzero norm on an
    all-zero block is a parameter error.
    """
    L = transform.L
    l_max = L if l_max is None else min(l_max, L)
    rng = np.random.default_rng(seed)
    c = np.zeros(n_modes(L))
    for l in range(1, l_max + 1):
        sd = spectrum(l) if spectrum is not None else 1.0 / l ** 2
        sl = block_slice(l)
        c[sl] = rng.normal(0.0, sd, 2 * l + 1)
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
