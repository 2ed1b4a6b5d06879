"""Forcing catalog with declared hypothesis flags and empirical checks.

Catalog tags (u_K = P_K u, u_NK = u - u_K, all fields tangential,
divergence-free after projection):

    zero              f = 0
    constant_field    f = g(x), a fixed divergence-free field
    f2_plus/f2_minus  f = v +/- u_K, v a fixed non-Killing field
    f3_plus/f3_minus  f = +/- u
    f4_plus/f4_minus  f = u_NK +/- P_K(|x - p| u_K), p a point on the surface
    f5                f = (I - P_K)(|x| u) - u
    constant_killing  f = c v_j, one Killing basis field

Every entry is affine in u, so on the coefficients of the sphere's
truncated space it is stored as one map: a fixed vector f = F(0), plus a
3x3 map K on the degree-1 (Killing) rows, plus a scalar s times the other
rows.  K is +/-I for f2 and f3, +/- the weighted Killing Gram matrix for f4,
-I for f5 and 0 otherwise; s is +/-1 for f3, 1 for f4, R - 1 for f5 and 0
otherwise.  ``apply_forcing`` evaluates that map and nothing else.

Each catalog entry carries the declared constants of its standing
hypotheses: the L2 bound on f(.,0), the Lipschitz constant in u, whether
the Killing part of the power integral has a sign (nega/pos), the growth
bound on the Killing power, and the non-Killing power envelope
coefficients (c5, c6).
``hypothesis_check`` estimates all of them by seeded Monte Carlo and
reports any sample violating a declared flag.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from . import geometry as geo
from .geometry import SPHERE, TangentialField, grid_truncation
from .harmonics import get_transform, n_modes, random_band_limited
from .killing import pk_project

TAGS = ("zero", "constant_field", "f2_plus", "f2_minus", "f3_plus", "f3_minus",
        "f4_plus", "f4_minus", "f5", "constant_killing")


@dataclass
class FlagSet:
    """Declared hypothesis constants of a catalog forcing."""
    c1: float
    c2: float
    uk1: bool
    nega: bool
    pos: bool
    c5: float
    c6: float
    extra2: bool
    independent_of_u: bool


@dataclass
class ForcingSpec:
    """A catalog forcing as its affine map on a coefficient stack c:

        F(c)[:, :3] = c[:, :3] @ K.T + f[:3]    (degree-1 Killing rows)
        F(c)[:, 3:] = s c[:, 3:] + f[3:n]       (all other rows, n = c.shape[1])

    ``f`` is F(0), analyzed once at the grid's truncation; the flat layout
    is degree-major, so a lower truncation reads its prefix.  ``K`` is the
    3x3 map on the Killing rows and ``s`` the scalar on the others.
    """
    tag: str
    basis: object
    flags: FlagSet
    f: np.ndarray
    K: np.ndarray
    s: float


def make_catalog_forcing(tag, params, basis):
    """Build a tagged forcing as its affine map with its hypothesis flags set.

    Sphere-only: K addresses the degree-1 coefficient rows, which hold the
    Killing space on the sphere alone.
    """
    grid = basis.grid
    params = dict(params or {})
    if tag not in TAGS:
        raise ParameterError(f"unknown forcing tag {tag!r}")
    if grid.kind != SPHERE:
        raise ParameterError("catalog forcing is sphere-only: its Killing map "
                             "acts on the degree-1 coefficient rows")
    sign = -1.0 if tag.endswith("minus") else 1.0
    pos = sign > 0
    nodal, killing, K, s = None, None, np.zeros((3, 3)), 0.0

    if tag == "zero":
        flags = FlagSet(0.0, 0.0, True, True, True, 0.0, 0.0, True, True)
    elif tag == "constant_field":
        nodal = params["g"]
        gk, gnk = pk_project(basis, nodal)
        norm_g = geo.l2_norm(grid, nodal)
        kill_free = geo.l2_norm(grid, gk) <= 1e-10 * max(norm_g, 1.0)
        flags = FlagSet(norm_g, 0.0, True, kill_free, kill_free,
                        0.0, geo.l2_norm(grid, gnk), True, True)
    elif tag in ("f2_plus", "f2_minus"):
        nodal = params["v"]
        vk, _ = pk_project(basis, nodal)
        nv = geo.l2_norm(grid, nodal)
        if geo.l2_norm(grid, vk) > 1e-10 * max(nv, 1.0):
            raise ParameterError("f2 requires v orthogonal to the Killing space")
        flags = FlagSet(nv, 1.0, True, not pos, pos, 0.0, nv, True, False)
        K = sign * np.eye(3)
    elif tag in ("f3_plus", "f3_minus"):
        flags = FlagSet(0.0, 1.0, True, not pos, pos, float(pos), 0.0, True, False)
        K, s = sign * np.eye(3), sign
    elif tag in ("f4_plus", "f4_minus"):
        p = np.asarray(params["p"], dtype=float)
        if p.shape != (3,):
            raise ParameterError("f4 point must be an ambient 3-vector")
        if abs(np.linalg.norm(p) - grid.R) > 1e-10 * grid.R:
            raise ParameterError("f4 point must lie on the sphere")
        dist_max = float(np.linalg.norm(grid.nodes - p[None, :], axis=1).max())
        flags = FlagSet(0.0, max(1.0, dist_max), True, not pos, pos,
                        1.0, 0.0, True, False)
        K, s = sign * _killing_gram(basis, p), 1.0
    elif tag == "f5":
        # |x| = R at every node of the sphere
        R = grid.R
        flags = FlagSet(0.0, max(abs(R - 1.0), 1.0), True, True, False,
                        max(R - 1.0, 0.0), 0.0, True, False)
        K, s = -np.eye(3), R - 1.0
    else:  # constant_killing
        c = float(params.get("c", 1.0))
        j = int(params.get("axis", 0))
        if not (0 <= j < basis.n):
            raise ParameterError(f"Killing axis {j} outside 0..{basis.n - 1}")
        flags = FlagSet(abs(c), 0.0, True, False, False, 0.0, 0.0, True, True)
        killing = c * basis.l1_map[j]
    L = grid_truncation(grid)
    f = np.zeros(n_modes(L)) if nodal is None else get_transform(grid, L).analyze(nodal).coeffs
    if killing is not None:
        f[:3] += killing
    return ForcingSpec(tag, basis, flags, f, K, s)


def _killing_gram(basis, point):
    """The f4 Killing-block map c[:3] -> P_K(|x - p| u_K) as a 3x3 matrix,
    l1_map^T G l1_map with G_ij = (|x - p| v_i, v_j)."""
    grid = basis.grid
    w = np.linalg.norm(grid.nodes - point[None, :], axis=1)[:, None]
    G = np.array([[geo.l2_inner(grid, TangentialField(grid, w * vi.comps), vj)
                   for vj in basis.fields] for vi in basis.fields])
    return basis.l1_map.T @ G @ basis.l1_map


def apply_forcing(spec, c, out=None):
    """Coefficients of P_0 f(., u) for every row u of the (k, n_modes)
    coefficient stack ``c``, as a stack of the same shape (``out`` when given)."""
    n = c.shape[1]
    if n > spec.f.size:
        raise ParameterError(f"a stack of {n} modes is wider than the {spec.f.size} "
                             "of the forcing's grid truncation")
    out = np.multiply(spec.s, c, out=out)
    np.matmul(c[:, :3], spec.K.T, out=out[:, :3])
    out += spec.f[:n]
    return out


def _rowdot(X, Y):
    """Dot product of each row pair of two (k, n) stacks, summed as np.dot."""
    return (X[:, None, :] @ Y[:, :, None])[:, 0, 0]


@dataclass
class HypothesisReport:
    tag: str
    n_samples: int
    c1_hat: float
    sup_f0_nodal: float
    c2_hat: float
    c5_hat: float
    c6_hat: float
    killing_power_min: float
    killing_power_max: float
    violations: list

    @property
    def ok(self):
        return not self.violations


def hypothesis_check(spec, n_samples, seed):
    """Monte-Carlo estimates of the hypothesis constants and flag audit on
    the grid of ``spec.basis``.

    Violations of declared flags become report entries, never exceptions.
    """
    if n_samples < 10:
        raise ParameterError("need at least 10 samples")
    grid = spec.basis.grid
    L = min(8, grid_truncation(grid))
    tr = get_transform(grid, L)
    tol = 1e-8
    violations = []

    f0 = apply_forcing(spec, np.zeros((1, n_modes(L))))[0]
    c1_hat = float(np.linalg.norm(f0))
    sup_f0 = float(np.abs(tr.engine.synthesize(f0[None], tr.FIELD)).max())
    if c1_hat > spec.flags.c1 + tol:
        violations.append(f"c1: measured {c1_hat:.6g} > declared {spec.flags.c1:.6g}")

    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, 2 ** 63 - 1, size=2 * n_samples)
    U = np.array([random_band_limited(tr, int(s)).coeffs for s in seeds])
    U1, U2 = U[:n_samples], U[n_samples:]
    F1 = apply_forcing(spec, U1)
    df = np.linalg.norm(F1 - apply_forcing(spec, U2), axis=1)
    du = np.linalg.norm(U1 - U2, axis=1)
    c2_hat = float(np.max(df[du > 0] / du[du > 0], initial=0.0))
    if c2_hat > spec.flags.c2 + tol:
        violations.append(f"c2: measured {c2_hat:.6g} > declared {spec.flags.c2:.6g}")

    # per sample: Killing and non-Killing power, ||u_NK||, the audit scale
    power_k = _rowdot(F1[:, :3], U1[:, :3])
    power_nk = _rowdot(F1[:, 3:], U1[:, 3:])
    b = np.sqrt(_rowdot(U1[:, 3:], U1[:, 3:]))
    scale = np.maximum(1.0, _rowdot(U1, U1))
    declared = spec.flags.c5 * b ** 2 + spec.flags.c6 * b
    if spec.flags.extra2:
        declared += spec.flags.c6 * _rowdot(U1[:, :3], U1[:, :3])
    audits = np.stack([spec.flags.nega & (power_k > tol * scale),
                       spec.flags.pos & (power_k < -tol * scale),
                       power_nk > declared + tol * scale], axis=1)
    texts = ("nega: sample {i} has Killing power {k:.3e}",
             "pos: sample {i} has Killing power {k:.3e}",
             "extra: sample {i} non-Killing power {n:.3e} exceeds envelope {d:.3e}")
    violations += [texts[j].format(i=i, k=power_k[i], n=power_nk[i], d=declared[i])
                   for i, j in zip(*np.nonzero(audits))]

    coef, *_ = np.linalg.lstsq(np.stack([b ** 2, b], axis=1), power_nk, rcond=None)
    c5_hat, c6_hat = (float(max(v, 0.0)) for v in coef)

    return HypothesisReport(spec.tag, n_samples, c1_hat, sup_f0, c2_hat,
                            c5_hat, c6_hat, float(power_k.min()), float(power_k.max()),
                            violations)
