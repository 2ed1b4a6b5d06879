import json
import os
import subprocess
import sys

import numpy as np
import pytest

import surfns
from surfns import geometry as geo
from surfns.harmonics import SpectralState, SphereTransform, mode_index, n_modes
from surfns.operators import StokesForm

_ACCEPTANCE_LINES = []
_FORM_CHUNK = 32        # probes per matrix-free weak-form pass


def acceptance_line(text):
    _ACCEPTANCE_LINES.append(text)


def tangential_project(grid, v):
    """Frame components of (I - n x n) v for ambient per-node vectors v."""
    return geo.TangentialField(grid, np.stack([np.einsum("ij,ij->i", v, grid.e1),
                                               np.einsum("ij,ij->i", v, grid.e2)], axis=1))


def l2_norm(grid, u):
    return float(np.sqrt(geo.l2_inner(grid, u, u)))


def mode_row(L, l, m):
    """The coefficient row of the toroidal mode (l, m) at truncation L."""
    row = np.zeros(n_modes(L))
    row[mode_index(L, l, m)] = 1.0
    return row


def toroidal_basis_field(tr, l, m):
    """The real orthonormal toroidal mode (l, m) as a nodal field of ``tr``."""
    return tr.synthesize(SpectralState(tr.L, mode_row(tr.L, l, m)))


def dense_form(tr, weight):
    """Oracle: F[j, k] = sum_n weight_n eps(Phi_j):eps(Phi_k), dense and symmetrized.

    Matrix-free, F[:, K] = G^T(weight * eps(G e_K)) with G the gradient
    synthesis of the transform ``tr``, over chunks of unit probes.  It serves
    any weight, one that varies along latitude rows too, at O(L^4) memory;
    ``SphereTransform.order_forms`` computes the per-order blocks without
    transforms when the weight is constant along latitude rows.
    """
    n = tr.n_modes
    F = np.empty((n, n))
    for start in range(0, n, _FORM_CHUNK):
        probe = np.eye(min(_FORM_CHUNK, n - start), n, start)
        T = tr.engine.synthesize(probe, tr.GRAD)
        T[1] = T[2] = 0.5 * (T[1] + T[2])      # the rate of strain
        F[:, start:start + probe.shape[0]] = tr.engine.adjoint(T * weight, tr.GRAD).T
    return 0.5 * (F + F.T)


def dense_stokes_form(grid, nu, L):
    """The Stokes form of any viscosity field ``nu`` as one dense block of
    ``dense_form``, the form ``assemble_stokes`` refuses for a nu that varies
    along latitude rows: it keeps the storage-generic paths of ``StokesForm``
    (apply, cn_solve, eigenvalues, the batched time stepper) under test."""
    tr = SphereTransform(grid, L)
    lam = np.zeros(L + 1)
    lam[1:] = 2.0 * tr.strain_norm2
    F = dense_form(tr, 2.0 * grid.weights * nu.values)
    return StokesForm(grid, tr, nu, L, lam, F[None], np.arange(tr.n_modes)[None])


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def fresh_modules():
    """Run a Python snippet in a fresh interpreter that imports the package
    from this checkout, and return the names of the modules loaded when the
    snippet ends.  A snippet that raises fails the calling test."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(surfns.__file__)))

    def run(code):
        code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return set(json.loads(proc.stdout.strip().splitlines()[-1]))
    return run


@pytest.fixture(scope="session")
def sphere8():
    return geo.build_sphere_grid(8, 1.0)


@pytest.fixture(scope="session")
def sphere8_r2():
    return geo.build_sphere_grid(8, 2.0)


@pytest.fixture(scope="session")
def sphere16():
    return geo.build_sphere_grid(16, 1.0)


@pytest.fixture(scope="session")
def sphere64():
    """L = 64 sphere grids by radius, for the closed-form oracles."""
    return {R: geo.build_sphere_grid(64, R) for R in (1.0, 2.0)}


@pytest.fixture(scope="session")
def torus64():
    return geo.build_torus_grid(64, 64, 2.0, 0.5)


@pytest.fixture(scope="session")
def tr8(sphere8):
    return SphereTransform(sphere8, 8)


@pytest.fixture(scope="session")
def rotation_field():
    def make(grid, axis):
        ax = np.zeros(3)
        ax[axis] = 1.0
        return tangential_project(grid, np.cross(ax, grid.nodes))
    return make


@pytest.fixture(scope="session")
def complex_view():
    def make(L, coeffs):
        """Complex coefficients c[l][m], m = -l..l, of a real coefficient vector.

        Built from the real storage via c_{l0} = a_{l0},
        c_{lm} = (a_cos - i a_sin)/sqrt(2) and the reality condition
        c_{l,-m} = (-1)^m conj(c_{lm}).
        """
        out = {}
        for l in range(1, L + 1):
            row = np.zeros(2 * l + 1, dtype=complex)
            row[l] = coeffs[mode_index(L, l, 0)]
            for m in range(1, l + 1):
                ac = coeffs[mode_index(L, l, m)]
                as_ = coeffs[mode_index(L, l, -m)]
                c = (ac - 1j * as_) / np.sqrt(2.0)
                row[l + m] = c
                row[l - m] = (-1) ** m * np.conj(c)
            out[l] = row
        return out
    return make
