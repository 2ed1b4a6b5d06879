"""Right-hand-side operators in the toroidal Galerkin basis.

The variable-viscosity Stokes operator is assembled in weak form,
A[j,k] = int 2 nu eps(Phi_j) : eps(Phi_k) dS, which keeps exact symmetry and
positive semidefiniteness without differentiating nu.  A is stored as its
diagonal blocks: one L x L block per slot row of the transform (signed
order m) when nu is constant along latitude rows, else one dense block.
Per-order blocks are Gauss-Legendre sums over the transform's latitude
strain profiles, O(L^4) work in all; the dense block is found by probing
the O(L^3) per-order transforms.  Apply and eigenvalues go block by block.
The convective term is pseudospectral on the dealiased grid, in rotation
form: one synthesis of u and its vorticity and one analysis, each O(L^3)
per row.  Every operator takes a (k, n_modes) coefficient stack and
returns one.
"""

import numpy as np

from .errors import ParameterError
from .geometry import dealias_rule
from .harmonics import get_transform


class StokesForm:
    """Weak-form Stokes operator with its implicit/explicit split.

    ``blocks[p]`` is A on the modes ``gather[p][valid[p]]`` of
    ``layout = (gather, valid)``; every block holds a mode, its valid slots
    trail its invalid ones, on which it is zero, and A couples no two blocks.
    ``A = nu_min * diag(D) + A'`` where D carries the constant-viscosity
    per-degree eigenvalues (Rayleigh quotients) and A' is positive
    semidefinite because nu - nu_min >= 0.
    """

    def __init__(self, grid, transform, nu, L, blocks, layout, lam_by_degree):
        self.grid = grid
        self.transform = transform
        self.nu = nu
        self.L = L
        self.blocks = blocks
        self.layout = layout
        self.lam_by_degree = lam_by_degree          # (L+1,) with entry l = lambda_l
        self.D = lam_by_degree[transform.mode_l]    # per-mode diagonal
        self.nu_min = nu.nu_min
        self._gather, valid = layout
        # position of each mode in the flattened (block, slot) layout
        self._scatter = np.flatnonzero(valid)[np.argsort(self._gather[valid])]
        # each block on its valid slots, which trail, with their modes
        self._valid_blocks = [(b[j:, j:], g[j:]) for b, g, j in zip(
            blocks, self._gather, valid.shape[1] - valid.sum(1))]
        self._rho_explicit = None
        self._rho_full = None

    def apply(self, c):
        """A c for every row of a (k, n_modes) coefficient stack."""
        # symmetric blocks, zero at the padding slots (which read mode 0)
        y = c[:, self._gather].transpose(1, 0, 2) @ self.blocks
        return y.transpose(1, 0, 2).reshape(c.shape[0], self._gather.size)[:, self._scatter]

    def _eigvalsh(self, shift):
        """Ascending eigenvalues of A - diag(shift), block by block."""
        return np.sort(np.concatenate([np.linalg.eigvalsh(b - np.diag(shift[idx]))
                                       for b, idx in self._valid_blocks]))

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
    # lambda_l is the same for every order: twice the unit-weight strain norm
    lam = np.zeros(L + 1)
    lam[1:] = 2.0 * tr.strain_norm2
    lam[1] = max(lam[1], 0.0)
    weight = 2.0 * grid.weights * nu.values
    if np.ptp(np.reshape(weight, (grid.n_lat, -1)), axis=1).any():
        # cos/sin(m phi) of different orders couple: one dense block
        blocks = tr.gradient_form(weight)[None]
        layout = (np.arange(tr.n_modes)[None], np.ones((1, tr.n_modes), dtype=bool))
    else:
        keep = tr.slot_valid.any(1)     # the sine row of m = 0 holds no mode
        blocks = tr.axisymmetric_form(weight)[keep]
        layout = (tr.slot_mode[keep], tr.slot_valid[keep])
    return StokesForm(grid, tr, nu, L, blocks, layout, lam)


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
