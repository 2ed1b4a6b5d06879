"""Right-hand-side operators in the toroidal Galerkin basis.

The variable-viscosity Stokes operator is assembled in weak form,
A[j,k] = int 2 nu eps(Phi_j) : eps(Phi_k) dS, which keeps exact symmetry and
positive semidefiniteness without differentiating nu.  nu must be constant
along latitude rows, as both config kinds are: assembly refuses a nu that
varies in longitude, which couples every order into one O(L^4) dense block.
For constant nu, A is exactly nu D, with D the per-degree eigenvalues
(l(l+1) - 2)/R^2 of 2 Def*Def: no blocks, and apply is one multiply.
Otherwise it is L + 2 blocks of L x L, each holding one or two signed orders
(m with L + 2 - m), from Gauss-Legendre sums over the transform's latitude
strain profiles, O(L^4) work in all.  Apply, eigenvalues and the time
stepper's solve with I + dt A / 2 go block by block.  The convective term is
pseudospectral on the dealiased grid, in rotation form: one synthesis of u
and its vorticity and one analysis, each O(L^3) per row.
Every operator takes a (k, n_modes) coefficient stack and returns one.
"""

import numpy as np

from .errors import ParameterError
from .geometry import dealias_rule
from .harmonics import SphereTransform


class StokesForm:
    """Weak-form Stokes operator A, positive semidefinite with the degree-1
    (Killing) modes as its kernel.

    D carries the constant-viscosity per-degree eigenvalues (Rayleigh
    quotients); A >= nu_min diag(D) since nu - nu_min >= 0.  For constant
    nu, ``blocks`` and ``gather`` are None: A is exactly nu_min D.
    Otherwise ``blocks[p]`` is A on the modes ``gather[p]``; every mode sits
    in one block, and A couples no two blocks.  The form holds nothing
    sized by a stack height or a dt: ``plan`` and ``cn_operator`` build it
    for the caller to keep (the time stepper's workspace) or for one call.
    ``cn_solve`` applies 2 (I + a A)^-1 alone, through ``apply``'s plan.
    """

    def __init__(self, grid, transform, nu, L, lam_by_degree, blocks=None, gather=None):
        self.grid = grid
        self.transform = transform
        self.nu = nu
        self.L = L
        self.blocks = blocks
        self.gather = gather
        self.lam_by_degree = lam_by_degree          # (L+1,) with entry l = lambda_l
        self.D = lam_by_degree[transform.mode_l]    # per-mode diagonal
        self.nu_min = nu.nu_min
        self._spectrum = None
        if blocks is None:
            self._diag = self.nu_min * self.D       # A itself
        else:
            # per mode: block and slot, a plan's scatter at every height
            # (gather holds each mode once and no padding slot)
            self._slots = np.divmod(np.argsort(gather, axis=None), gather.shape[1])

    def plan(self, k):
        """The ``plan`` of ``apply`` and ``cn_solve`` for k rows: A tiled to k rows
        on the diagonal form (numpy buffers, so allocates for, a small broadcast);
        else the flat gather of the blocks' (block, row, slot) entries, its buffer,
        the product's buffer and the scatter of the modes from the product."""
        if self.blocks is None:
            return np.repeat(self._diag[None], k, axis=0)
        (n_blocks, n_slots), (block, slot) = self.gather.shape, self._slots
        r = np.arange(k)[:, None]
        return (self.gather[:, None] + self.D.size * r, np.empty((n_blocks, k, n_slots)),
                np.empty((n_blocks, k, n_slots)), (block * k + r) * n_slots + slot)

    def cn_operator(self, dt, k):
        """The operator of ``cn_solve`` for ``dt`` and k rows: 2 R, R = (I + a A)^-1,
        a = dt / 2, as a diagonal tiled to k rows or per block as 2 R^T."""
        a = 0.5 * dt
        if self.blocks is None:
            return np.repeat(2.0 / (1.0 + a * self._diag)[None], k, axis=0)
        eye = np.eye(self.blocks.shape[1])
        return 2.0 * np.linalg.inv(eye + a * self.blocks).transpose(0, 2, 1)

    def apply(self, c, out=None, plan=None):
        """A c for every row of a (k, n_modes) coefficient stack (into ``out``),
        by the ``plan`` of k rows (on a blocked form made for the call when not
        given; the diagonal form then broadcasts its A)."""
        if self.blocks is None:
            return np.multiply(c, self._diag if plan is None else plan, out=out)
        return self._by_blocks(c, self.blocks, out, plan)     # symmetric blocks

    def cn_solve(self, y, dt, out=None, plan=None, op=None):
        """(2 m, a A m), a = dt / 2, stacked (2, k, n_modes) into ``out`` if given,
        for m = R y, R = (I + a A)^-1, and every row of a (k, n_modes) stack y:
        c+ = 2 m - c, and the dot of the two is dt (A m, m).  2 m is the one
        product, by ``op`` (the ``cn_operator`` of dt for k rows) and ``plan``,
        made for the call when not given; a A m is y - m, the solve's own
        identity, with m = 2 m / 2 exact."""
        op = self.cn_operator(dt, y.shape[0]) if op is None else op
        out = np.empty((2,) + y.shape) if out is None else out
        if self.blocks is None:
            np.multiply(op, y, out=out[0])
        else:
            self._by_blocks(y, op, out[0], plan)
        np.subtract(y, np.multiply(out[0], 0.5, out=out[1]), out=out[1])
        return out

    def _by_blocks(self, c, mats, out, plan):
        """Block p's modes of every row of ``c`` times ``mats[p]``, into ``out``, by ``plan``."""
        gather, g, p, scatter = self.plan(c.shape[0]) if plan is None else plan
        np.matmul(c.take(gather, out=g, mode="clip"), mats, out=p)
        return p.take(scatter, out=out, mode="clip")

    def eigenvalues(self):
        """Ascending eigenvalues of A, solved block by block once, read-only."""
        if self._spectrum is None:
            self._spectrum = (np.sort(self._diag) if self.blocks is None
                              else np.sort(np.linalg.eigvalsh(self.blocks), axis=None))
            self._spectrum.setflags(write=False)
        return self._spectrum

    def rho_explicit(self):
        """Spectral radius of the IMEX step's explicit part of A: 0, since the
        step takes all of A implicitly.  Its only callers are the benchmark's
        set-up probes, ``Suite.setup`` and ``HighresL32.setup`` in
        ``perfbench/workloads.py``.  Item 7 of ROADMAP.md (benchmark blind
        spots) rewires them to build the step's operator; then this goes."""
        return 0.0

    def rho_full(self):
        """Largest eigenvalue of the full operator A."""
        return float(self.eigenvalues()[-1])


def _order_pair_blocks(tr, weight):
    """A's per-order blocks for a weight constant along latitude rows, two
    signed orders to an L x L block: (blocks, gather), ``gather[p]`` the
    modes of ``blocks[p]``.  Signed order (m, s), s = 1 for the sine, holds
    the L + 1 - max(m, 1) degrees l >= max(m, 1), and the sine of m = 0
    none.  So (0, 0), (1, 0) and (1, 1) fill a block each, and (m, s) with
    m >= 2 pairs with (L + 2 - m, 1 - s), m's degrees first: no slot is
    padding."""
    L, i = tr.L, np.arange(tr.L - 1)
    # 2m + s of each block's first and second order, the first's m falling from L
    a = np.concatenate(([0, 2, 3], 2 * (L - i // 2) + i % 2))
    b = np.concatenate(([0, 2, 3], 5 + 2 * (i // 2) - i % 2))
    j, n_a = np.arange(L), L + 1 - np.maximum(a // 2, 1)[:, None]
    first = j < n_a
    m, s = np.divmod(np.where(first, a[:, None], b[:, None]), 2)
    l = np.where(first, j + L + 1 - n_a, j + 1)
    row = (l - tr.engine.placement[2][m])[:, :, None]     # of degree l in m's pair
    F = tr.order_forms(weight)[m[:, :, None], s[:, :, None], row, row.swapaxes(1, 2)]
    blocks = np.where(first[:, :, None] == first[:, None, :], F, 0.0)
    return blocks, l * l - 1 + np.maximum(2 * m - 1 + s, 0)


def assemble_stokes(grid, nu, L):
    """Assemble the variable-viscosity Stokes form up to degree L, with the
    run's one transform, ``form.transform``, built here.

    Requires a dealiased grid so every product eps_j : eps_k nu is
    integrated exactly (band-limited nu assumed), and nu row-constant.
    """
    if nu.grid is not grid:
        raise ParameterError("viscosity lives on a different grid")
    if nu.nu_min <= 0:
        raise ParameterError("viscosity lower bound must be positive")
    if grid.max_degree < dealias_rule(L).degree:
        raise ParameterError(
            f"grid resolves degree {grid.max_degree}, need {dealias_rule(L).degree} "
            f"for exact degree-{L} assembly")
    constant = not np.ptp(nu.values)
    if not constant and np.ptp(np.reshape(nu.values, (grid.n_lat, -1)), axis=1).any():
        raise ParameterError(
            "viscosity must be constant along each latitude row, as the constant and "
            "linear_x3 kinds are: one that varies in longitude couples every order")
    tr = SphereTransform(grid, L)
    # lambda_l is the same for every order: twice the unit-weight strain norm
    lam = np.zeros(L + 1)
    lam[1:] = 2.0 * tr.strain_norm2
    if constant:
        # 2 nu Def*Def is nu lambda_l on degree l: the form is its diagonal
        return StokesForm(grid, tr, nu, L, lam)
    blocks, gather = _order_pair_blocks(tr, 2.0 * grid.weights * nu.values)
    return StokesForm(grid, tr, nu, L, lam, blocks, gather)


def convective_plans(tr, k):
    """The ``out`` of ``convective_term`` for k rows: the ``VORT`` synthesis
    plan, whose table copy carries (1, -1, w) on (u_theta, u_phi, omega), w
    the quadrature weight of each latitude row, and the ``FIELD`` adjoint plan
    on that copy's (X_theta, -X_phi), its u_phi longitude table negated."""
    w = np.reshape(tr.engine.weights, (tr.engine.n_lat, -1))[:, 0]
    syn = tr.engine.plan(k, tr.VORT, factors=np.stack((np.ones_like(w), -np.ones_like(w), w)))
    shape, trig, G, copy, _, *rest = tr.engine.plan(k, tr.FIELD, True)
    return syn, (shape, trig * [[[1.0]], [[-1.0]]], G, copy, syn[3][..., :2 * w.size], *rest)


def convective_term(tr, c, out=None):
    """Coefficients of P_0 [(u . grad_G) u] for every row of the (k, n_modes)
    coefficient stack ``c``, computed pseudospectrally with the transform
    ``tr`` (the form's ``transform`` on the dynamics path), through ``out``,
    the ``convective_plans`` of k rows (made afresh when not given).

    In two dimensions (u . grad_G) u = grad_G(|u|^2 / 2) + omega n x u, and
    the gradient has no toroidal part.  So synthesize u and its scalar
    vorticity omega on the dealiased grid in one pass, form omega n x u =
    omega (-u_phi, u_theta) nodally, and project back onto the toroidal
    basis.  The synthesis table carries the sign of u_phi and the weight of
    the quadrature, so the nodal product is all that is left.  Since
    (omega n x u) . u = 0 at every node, discrete energy orthogonality holds
    to rounding on any grid; the vanishing Killing projection holds to
    quadrature exactness.
    """
    syn, adj = out or convective_plans(tr, c.shape[0])
    f = tr.engine.synthesize(c, tr.VORT, syn)     # u_theta, -u_phi, w omega
    f[0] *= f[2]                    # unbroadcast: numpy allocates for a small broadcast
    f[1] *= f[2]                    # f[1::-1] is w omega (-u_phi, u_theta)
    return tr.engine.adjoint(f[1::-1], tr.FIELD, adj)
