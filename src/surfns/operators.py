"""Right-hand-side operators in the toroidal Galerkin basis.

The variable-viscosity Stokes operator is assembled in weak form,
A[j,k] = int 2 nu eps(Phi_j) : eps(Phi_k) dS, which keeps exact symmetry and
positive semidefiniteness without differentiating nu.  A is stored in one of
three ways.  For constant nu it is exactly nu D, with D the per-degree
eigenvalues (l(l+1) - 2)/R^2 of 2 Def*Def: no blocks, and apply is one
multiply.  For nu constant along latitude rows it is one L x L block per
slot row of the transform (signed order m), Gauss-Legendre sums over the
transform's latitude strain profiles, O(L^4) work in all.  Otherwise it is
one dense block, found by probing the O(L^3) per-order transforms.  Apply
and eigenvalues go block by block.  The convective term is pseudospectral
on the dealiased grid, in rotation form: one synthesis of u and its
vorticity and one analysis, each O(L^3) per row.  Every operator takes a
(k, n_modes) coefficient stack and returns one.
"""

import numpy as np

from .errors import ParameterError
from .geometry import dealias_rule
from .harmonics import get_transform


class StokesForm:
    """Weak-form Stokes operator with its implicit/explicit split.

    ``A = nu_min * diag(D) + A'`` where D carries the constant-viscosity
    per-degree eigenvalues (Rayleigh quotients) and A' is positive
    semidefinite because nu - nu_min >= 0.  For constant nu, ``blocks`` and
    ``layout`` are None: A is exactly nu_min D and A' is zero.  Otherwise
    ``blocks[p]`` is A on the modes ``gather[p][valid[p]]`` of
    ``layout = (gather, valid)``; every block holds a mode, its valid slots
    trail its invalid ones, on which it is zero, and A couples no two blocks.
    """

    def __init__(self, grid, transform, nu, L, lam_by_degree, blocks=None, layout=None):
        self.grid = grid
        self.transform = transform
        self.nu = nu
        self.L = L
        self.blocks = blocks
        self.layout = layout
        self.lam_by_degree = lam_by_degree          # (L+1,) with entry l = lambda_l
        self.D = lam_by_degree[transform.mode_l]    # per-mode diagonal
        self.nu_min = nu.nu_min
        self.step_cache = {}            # per dt: the time stepper's constants
        self._rho_full = None
        if blocks is None:
            self._diag = self.nu_min * self.D       # A itself
            self._rho_explicit = 0.0
            return
        gather, valid = layout
        self._flat = {}                 # per stack height: the flat indices of ``apply``
        # each block on its valid slots, which trail, with their modes
        self._valid_blocks = [(b[j:, j:], g[j:]) for b, g, j in zip(
            blocks, gather, valid.shape[1] - valid.sum(1))]
        self._rho_explicit = None

    def apply(self, c):
        """A c for every row of a (k, n_modes) coefficient stack."""
        if self.blocks is None:
            return c * self._diag
        k = c.shape[0]
        if k not in self._flat:
            # flat stack places of the (block, row, slot) entries; product places of the modes
            (gather, valid), r = self.layout, np.arange(k)[:, None]
            n_slots = valid.shape[1]
            block, slot = np.divmod(np.flatnonzero(valid)[np.argsort(gather[valid])], n_slots)
            self._flat[k] = (gather[:, None] + self.D.size * r, (block * k + r) * n_slots + slot)
        gather, scatter = self._flat[k]
        # symmetric blocks, zero at the padding slots (which read mode 0)
        return (c.take(gather) @ self.blocks).take(scatter)

    def _eigvalsh(self, shift):
        """Ascending eigenvalues of A - diag(shift), block by block."""
        return np.sort(np.concatenate([np.linalg.eigvalsh(b - np.diag(shift[idx]))
                                       for b, idx in self._valid_blocks]))

    def eigenvalues(self):
        """Ascending eigenvalues of A."""
        if self.blocks is None:
            return np.sort(self._diag)
        return self._eigvalsh(0.0 * self.D)

    def rho_explicit(self):
        """Spectral radius of the explicit remainder A' (cached; 0 for constant nu)."""
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
    # lambda_l is the same for every order: twice the unit-weight strain norm
    lam = np.zeros(L + 1)
    lam[1:] = 2.0 * tr.strain_norm2
    lam[1] = max(lam[1], 0.0)
    if not np.ptp(nu.values):
        # 2 nu Def*Def is nu lambda_l on degree l: the form is its diagonal
        return StokesForm(grid, tr, nu, L, lam)
    weight = 2.0 * grid.weights * nu.values
    if np.ptp(np.reshape(weight, (grid.n_lat, -1)), axis=1).any():
        # cos/sin(m phi) of different orders couple: one dense block
        blocks = tr.gradient_form(weight)[None]
        layout = (np.arange(tr.n_modes)[None], np.ones((1, tr.n_modes), dtype=bool))
    else:
        keep = tr.slot_valid.any(1)     # the sine row of m = 0 holds no mode
        blocks = tr.axisymmetric_form(weight)[keep]
        layout = (tr.slot_mode[keep], tr.slot_valid[keep])
    return StokesForm(grid, tr, nu, L, lam, blocks, layout)


def convective_term(tr, c):
    """Coefficients of P_0 [(u . grad_G) u] for every row of the (k, n_modes)
    coefficient stack ``c``, computed pseudospectrally with the transform
    ``tr`` (the form's ``transform`` on the dynamics path).

    In two dimensions (u . grad_G) u = grad_G(|u|^2 / 2) + omega n x u, and
    the gradient has no toroidal part.  So synthesize u and its scalar
    vorticity omega on the dealiased grid in one pass, form omega n x u =
    omega (-u_phi, u_theta) nodally, and project back onto the toroidal
    basis.  Since (omega n x u) . u = 0 at every node, discrete energy
    orthogonality holds to rounding on any grid; the vanishing Killing
    projection holds to quadrature exactness.
    """
    f = tr.engine.synthesize(c, tr.VORT)         # u_theta, u_phi, omega
    w = f[2] * tr.engine.weights                  # omega, weighted for the quadrature
    f[0] *= w
    f[1] *= -w
    return tr.engine.adjoint(f[1::-1], tr.FIELD)    # the analysis of omega (-u_phi, u_theta)
