"""Right-hand-side operators in the toroidal Galerkin basis.

The variable-viscosity Stokes operator is assembled in weak form,
A[j,k] = int 2 nu eps(Phi_j) : eps(Phi_k) dS, which keeps exact symmetry and
positive semidefiniteness without differentiating nu.  A is stored as its
diagonal blocks, one of size <= L per signed order m when nu is constant
along latitude rows, else one dense block.  Per-order blocks are
Gauss-Legendre sums over the transform's latitude strain profiles, O(L^4)
work in all; the dense block is found by probing the O(L^3) per-order
transforms.  Apply and eigenvalues go block by block.
The convective term is pseudospectral on the dealiased grid, one fused
synthesis of u and grad u and one analysis, each O(L^3) per row.  Every
operator takes a (k, n_modes) coefficient stack and returns one.
"""

import numpy as np

from .errors import ParameterError
from .harmonics import dealias_rule, get_transform, pad_parts


class StokesForm:
    """Weak-form Stokes operator with its implicit/explicit split.

    ``blocks[p]`` is A on the modes ``parts[p]``, zero-padded to the largest
    part; A couples no two parts.  ``A = nu_min * diag(D) + A'`` where D
    carries the constant-viscosity per-degree eigenvalues (Rayleigh quotients)
    and A' is positive semidefinite because nu - nu_min >= 0.  The dense
    ``A`` is built on demand.
    """

    def __init__(self, grid, transform, nu, L, blocks, parts, lam_by_degree):
        self.grid = grid
        self.transform = transform
        self.nu = nu
        self.L = L
        self.blocks = blocks
        self.parts = parts
        self.lam_by_degree = lam_by_degree          # (L+1,) with entry l = lambda_l
        self.D = lam_by_degree[transform.mode_l]    # per-mode diagonal
        self.nu_min = nu.nu_min
        self._gather, valid = pad_parts(parts)
        # position of each mode in the flattened (part, slot) layout
        self._scatter = np.flatnonzero(valid)[np.argsort(self._gather[valid])]
        self._rho_explicit = None
        self._rho_full = None

    @property
    def A(self):
        """Dense n_modes x n_modes matrix of the blocks."""
        A = np.zeros((self.transform.n_modes,) * 2)
        for idx, b in zip(self.parts, self.blocks):
            A[np.ix_(idx, idx)] = b[:idx.size, :idx.size]
        return A

    def apply(self, c):
        """A c for every row of a (k, n_modes) coefficient stack."""
        # symmetric blocks, zero at the padding slots (which read mode 0)
        y = c[:, self._gather].transpose(1, 0, 2) @ self.blocks
        return y.transpose(1, 0, 2).reshape(c.shape[0], self._gather.size)[:, self._scatter]

    def _eigvalsh(self, shift):
        """Ascending eigenvalues of A - diag(shift), block by block."""
        return np.sort(np.concatenate([
            np.linalg.eigvalsh(b[:idx.size, :idx.size] - np.diag(shift[idx]))
            for idx, b in zip(self.parts, self.blocks)]))

    def eigenvalues(self):
        """Ascending eigenvalues of A."""
        return self._eigvalsh(0.0 * self.D)

    def rho_explicit(self):
        """Spectral radius of the explicit remainder A' (cached)."""
        if self._rho_explicit is None:
            self._rho_explicit = float(self._eigvalsh(self.nu_min * self.D)[-1])
        return self._rho_explicit

    def rho_full(self):
        """Largest eigenvalue of the full operator A (cached)."""
        if self._rho_full is None:
            self._rho_full = float(self.eigenvalues()[-1])
        return self._rho_full


def assemble_stokes(grid, nu, L):
    """Assemble the variable-viscosity Stokes form up to degree L.

    Requires a dealiased grid so every product eps_j : eps_k nu is
    integrated exactly (band-limited nu assumed).
    """
    if nu.grid is not grid:
        raise ParameterError("viscosity lives on a different grid")
    if nu.nu_min <= 0:
        raise ParameterError("viscosity lower bound must be positive")
    if grid.max_degree < dealias_rule(L).degree:
        raise ParameterError(
            f"grid resolves degree {grid.max_degree}, need {dealias_rule(L).degree} "
            f"for exact degree-{L} assembly")
    tr = get_transform(grid, L)
    # lambda_l is the same for every order: the unit-viscosity zonal diagonal
    zonal = np.flatnonzero(tr.mode_m == 0)
    lam = np.zeros(L + 1)
    lam[1:] = np.diagonal(tr.axisymmetric_form(2.0 * grid.weights, [zonal])[0])
    lam[1] = max(lam[1], 0.0)
    weight = 2.0 * grid.weights * nu.values
    parts = tr.partition(weight)
    form = tr.gradient_form if len(parts) == 1 else tr.axisymmetric_form
    return StokesForm(grid, tr, nu, L, form(weight, parts), parts, lam)


def convective_term(tr, c):
    """Coefficients of P_0 [(u . grad_G) u] for every row of the (k, n_modes)
    coefficient stack ``c``, computed pseudospectrally with the transform
    ``tr`` (the form's ``transform`` on the dynamics path).

    Synthesize u and its covariant derivative on the dealiased grid in one
    fused pass, form the transport vector nodally, and project back onto the
    toroidal basis.  Discrete energy orthogonality and the vanishing Killing
    projection hold to quadrature exactness.
    """
    f = tr.engine.synthesize(c, slice(0, 6))    # u, then T_ij = grad u
    u, T = f[tr.FIELD], f[tr.GRAD].reshape(2, 2, *f.shape[1:])
    return tr.engine.analyze(T[:, 0] * u[0] + T[:, 1] * u[1], tr.FIELD)
