"""Right-hand-side operators in the toroidal Galerkin basis.

The variable-viscosity Stokes operator is assembled in weak form,
A[j,k] = int 2 nu eps(Phi_j) : eps(Phi_k) dS, which keeps exact symmetry and
positive semidefiniteness without differentiating nu.  The matrix is dense,
(L(L+2))^2 entries, but is built without per-mode nodal tables: columns come
from the O(L^3) per-order transforms applied to chunks of unit states.  The
convective term is pseudospectral on the dealiased grid, one fused synthesis
of u and grad u and one analysis, each O(L^3) per row of a coefficient
stack.  All operations return coefficients.
"""

import numpy as np

from .errors import ParameterError
from .harmonics import (SpectralState, as_stack, dealias_rule, get_transform,
                        mode_index)


class StokesForm:
    """Assembled weak-form Stokes matrix with its implicit/explicit split.

    ``A = nu_min * diag(D) + A_prime`` where D carries the constant-viscosity
    per-degree eigenvalues (Rayleigh quotients) and A_prime is positive
    semidefinite because nu - nu_min >= 0.
    """

    def __init__(self, grid, transform, nu, L, A, lam_by_degree):
        self.grid = grid
        self.transform = transform
        self.nu = nu
        self.L = L
        self.A = A
        self.lam_by_degree = lam_by_degree          # (L+1,) with entry l = lambda_l
        self.D = lam_by_degree[transform.mode_l]    # per-mode diagonal
        self.nu_min = nu.nu_min
        self._rho_explicit = None
        self._rho_full = None

    @property
    def A_prime(self):
        return self.A - self.nu_min * np.diag(self.D)

    def rho_explicit(self):
        """Spectral radius of the explicit remainder A' (cached)."""
        if self._rho_explicit is None:
            ap = self.A_prime
            self._rho_explicit = float(np.linalg.eigvalsh(0.5 * (ap + ap.T)).max())
        return self._rho_explicit

    def rho_full(self):
        """Largest eigenvalue of the full operator A (cached)."""
        if self._rho_full is None:
            self._rho_full = float(np.linalg.eigvalsh(self.A).max())
        return self._rho_full

    def quad_form(self, coeffs):
        """c . A c = int 2 nu |eps(u)|^2 dS for the represented field."""
        return float(coeffs @ (self.A @ coeffs))


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
    # lambda_l is the same for every order on the sphere: one mode per degree
    zonal = [mode_index(L, l, 0) for l in range(1, L + 1)]
    unit = tr.gradient_form(2.0 * grid.weights, modes=zonal)
    lam = np.zeros(L + 1)
    lam[1:] = unit[zonal, np.arange(L)]
    lam[1] = max(lam[1], 0.0)
    A = tr.gradient_form(2.0 * grid.weights * nu.values)
    return StokesForm(grid, tr, nu, L, A, lam)


def stokes_apply(form, state):
    """Matrix-vector product of the assembled form; Killing block stays null."""
    if state.L != form.L:
        raise ParameterError("state truncation does not match form")
    return SpectralState(form.L, form.A @ state.coeffs, state.t)


def convective_term(grid, state):
    """Coefficients of P_0 [(u . grad_G) u], computed pseudospectrally.

    Synthesize u and its covariant derivative on the dealiased grid in one
    fused pass, form the transport vector nodally, and project back onto the
    toroidal basis.  Discrete energy orthogonality and the vanishing Killing
    projection hold to quadrature exactness.  ``state`` is a SpectralState,
    answered with one, or a (k, n_modes) coefficient stack, answered with a
    stack.
    """
    c, L = as_stack(state)
    tr = get_transform(grid, L)
    f = tr.engine.synthesize(c, slice(0, 6))    # u, then T_ij = grad u
    u, T = f[tr.FIELD], f[tr.GRAD].reshape(2, 2, *f.shape[1:])
    out = tr.engine.analyze(T[:, 0] * u[0] + T[:, 1] * u[1], tr.FIELD)
    return SpectralState(L, out[0], state.t) if isinstance(state, SpectralState) else out
