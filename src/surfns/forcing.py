"""Forcing catalog as affine maps.

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

The paper's hypothesis constants (c1-c6, the signs of the Killing power) are
read off (f, K, s) where a check needs them; their table and its Monte-Carlo
audit live in ``tests/test_forcing.py``.  f_K = f[:3] counts as zero, as f2
requires, when ||f_K|| <= 1e-10 max(||f||, 1).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .geometry import SPHERE, grid_truncation
from .harmonics import n_modes

TAGS = ("zero", "constant_field", "f2_plus", "f2_minus", "f3_plus", "f3_minus",
        "f4_plus", "f4_minus", "f5", "constant_killing")


@dataclass
class ForcingSpec:
    """A catalog forcing as its affine map on a coefficient stack c:

        F(c)[:, :3] = c[:, :3] @ K.T + f[:3]    (degree-1 Killing rows)
        F(c)[:, 3:] = s c[:, 3:] + f[3:n]       (all other rows, n = c.shape[1])

    ``f`` is F(0), its coefficients at the grid's truncation; the flat layout
    is degree-major, so a lower truncation reads its prefix.  ``K`` is the
    3x3 map on the Killing rows and ``s`` the scalar on the others.
    """
    basis: object
    f: np.ndarray
    K: np.ndarray
    s: float


def make_catalog_forcing(tag, params, basis):
    """Build a tagged forcing as its affine map.

    The fixed fields ``g`` (constant_field) and ``v`` (f2) are given as their
    (n_modes,) coefficient rows at the grid's truncation.  Sphere-only: K
    addresses the degree-1 coefficient rows, which hold the Killing space on
    the sphere alone.
    """
    grid = basis.grid
    params = dict(params or {})
    if tag not in TAGS:
        raise ParameterError(f"unknown forcing tag {tag!r}")
    if grid.kind != SPHERE:
        raise ParameterError("catalog forcing is sphere-only: its Killing map "
                             "acts on the degree-1 coefficient rows")
    sign = -1.0 if tag.endswith("minus") else 1.0
    L = grid_truncation(grid)
    f, K, s = np.zeros(n_modes(L)), np.zeros((3, 3)), 0.0

    if tag == "constant_field":
        f = np.array(params["g"], dtype=float)
    elif tag in ("f2_plus", "f2_minus"):
        f, K = np.array(params["v"], dtype=float), sign * np.eye(3)
    elif tag in ("f3_plus", "f3_minus"):
        K, s = sign * np.eye(3), sign
    elif tag in ("f4_plus", "f4_minus"):
        p = np.asarray(params["p"], dtype=float)
        if p.shape != (3,):
            raise ParameterError("f4 point must be an ambient 3-vector")
        if abs(np.linalg.norm(p) - grid.R) > 1e-10 * grid.R:
            raise ParameterError("f4 point must lie on the sphere")
        K, s = sign * _killing_gram(basis, p), 1.0
    elif tag == "f5":
        # |x| = R at every node of the sphere
        K, s = -np.eye(3), grid.R - 1.0
    elif tag == "constant_killing":
        c = float(params.get("c", 1.0))
        j = int(params.get("axis", 0))
        if not (0 <= j < basis.n):
            raise ParameterError(f"Killing axis {j} outside 0..{basis.n - 1}")
        f[:3] = c * basis.l1_map[j]
    if f.shape != (n_modes(L),):
        raise ParameterError(f"a fixed forcing field needs {n_modes(L)} coefficients "
                             f"at the grid's truncation L={L}, got shape {f.shape}")
    kill_free = np.linalg.norm(f[:3]) <= 1e-10 * max(np.linalg.norm(f), 1.0)
    if tag.startswith("f2") and not kill_free:
        # K = +/-I signs the Killing power exactly when f_K = 0
        raise ParameterError("f2 requires v orthogonal to the Killing space")
    return ForcingSpec(basis, f, K, s)


def _killing_gram(basis, point):
    """The f4 Killing-block map c[:3] -> P_K(|x - p| u_K) as a 3x3 matrix,
    l1_map^T G l1_map with G_ij = (|x - p| v_i, v_j), by one weighted
    contraction of the stacked basis fields."""
    grid = basis.grid
    w = grid.weights * np.linalg.norm(grid.nodes - point, axis=1)
    V = np.stack([v.comps for v in basis.fields])           # (3, n_nodes, 2)
    G = (V * w[:, None]).reshape(len(V), -1) @ V.reshape(len(V), -1).T
    return basis.l1_map.T @ G @ basis.l1_map


def apply_forcing(spec, c, out=None, f_rows=None):
    """Coefficients of P_0 f(., u) for every row u of the (k, n_modes)
    coefficient stack ``c``, as a stack of the same shape (``out`` when given).
    ``f_rows`` is f's prefix tiled to c's shape, or None to broadcast it."""
    n = c.shape[1]
    if n > spec.f.size:
        raise ParameterError(f"a stack of {n} modes is wider than the {spec.f.size} "
                             "of the forcing's grid truncation")
    out = np.multiply(spec.s, c, out=out)
    np.matmul(c[:, :3], spec.K.T, out=out[:, :3])
    out += spec.f[:n] if f_rows is None else f_rows
    return out
