"""Mutants each check must kill.

Each entry patches one physical ingredient of the solver and names the
cheapest scenario check or tier-1 oracle that must fail under it; the same
check must pass on the unmutated code.  Only killed mutants are listed.
"""

import sys

import numpy as np
import pytest

from surfns import forcing, geometry as geo, operators, timestepper
from surfns.harmonics import SphereTransform
from surfns.scenarios import run_scenario
from test_operators import dissipation_defect, enstrophy_defect
from test_timestepper import (forced_fixed_point_error, imex_self_convergence_ratios,
                              rossby_haurwitz_error)


def _flip_forcing_k(mp):
    """Every catalog forcing acts on the Killing rows with -K."""
    real = forcing.ForcingSpec
    mp.setattr(forcing, "ForcingSpec",
               lambda basis, f, K, s: real(basis, f, -K, s))


def _damp_degree_one(mp):
    """Every Stokes form damps the degree-1 (Killing) rows at lambda_2."""
    real = operators.StokesForm

    def damped(grid, transform, nu, L, lam, *blocks):
        lam = lam.copy()
        lam[1] = lam[2]
        return real(grid, transform, nu, L, lam, *blocks)
    mp.setattr(operators, "StokesForm", damped)


def _mean_nu(mp):
    """Every row-constant Stokes form is assembled from nu's area mean."""
    real = SphereTransform.order_forms

    def mean(self, weight):
        w = self.grid.weights
        return real(self, w * (weight.sum() / w.sum()))
    mp.setattr(SphereTransform, "order_forms", mean)


def _patch_everywhere(mp, real, mutant):
    """Every binding of the function ``real`` in the package (its module's,
    the package's and each importer's own) becomes ``mutant``."""
    name = real.__name__
    for mod_name, module in list(sys.modules.items()):
        if mod_name.split(".")[0] == "surfns" and getattr(module, name, None) is real:
            mp.setattr(module, name, mutant)


def _patch_convective(mp, mutate):
    """Every binding of ``convective_term`` returns its N after ``mutate(N)``
    in place."""
    real = operators.convective_term

    def mutant(tr, c, out=None):
        n = real(tr, c, out)
        mutate(n)
        return n
    _patch_everywhere(mp, real, mutant)


def _alias_convection(mp):
    """Every binding of ``convective_term`` evaluates N through a transform on
    a grid of degree L + 1, not the 3/2 rule's; the form keeps its own grid."""
    real, aliased = operators.convective_term, {}

    def mutant(tr, c, out=None):
        key = tr.L, tr.grid.R
        if key not in aliased:
            with pytest.MonkeyPatch.context() as rule:
                rule.setattr(geo, "dealias_rule",
                             lambda L: geo.DealiasRule(L + 1, L + 2, 2 * L + 4))
                aliased[key] = SphereTransform(geo.build_sphere_grid(tr.L, tr.grid.R), tr.L)
        n = real(aliased[key], c)
        if out is None:
            return n
        out[1][-1][:] = n
        return out[1][-1]
    _patch_everywhere(mp, real, mutant)


def _negate_n(mp):
    """The convective term enters with the opposite sign: N -> -N."""
    _patch_convective(mp, lambda n: np.negative(n, out=n))


def _drop_n(mp):
    """The convective term is dropped: N = 0."""
    _patch_convective(mp, lambda n: n.fill(0.0))


def _drop_s(mp):
    """Every binding of ``apply_forcing`` returns F(c) - s c on the
    non-Killing rows; the spec keeps its s, so the checks' s does not move."""
    real = forcing.apply_forcing

    def mutant(spec, c, out=None, f_rows=None):
        out = real(spec, c, out, f_rows)
        out[:, 3:] -= spec.s * c[:, 3:]
        return out
    _patch_everywhere(mp, real, mutant)


def _first_order_explicit(mp):
    """The IMEX Adams-Bashforth stage rows are the predictor's: every step
    after the first takes F and N at its current state only."""
    real = timestepper._stage_rows

    def first_order(dt):
        rows = real(dt)
        rows[:, 2] = rows[:, 0]
        return rows
    mp.setattr(timestepper, "_stage_rows", first_order)


def _passes(name, *checks):
    """The killer: whether every named check of the scenario ``name`` passes."""
    def check():
        passed = {c.name: c.passed for c in run_scenario(name, quiet=True).checks}
        return all(passed[c] for c in checks)
    return check


def _fixed_point_error():
    """The forced fixed point's error under IMEX at l = 3."""
    return forced_fixed_point_error(3, 2, 1.0, "imex_cnab2", 1e-2)


MUTANTS = [
    pytest.param(_flip_forcing_k,
                 _passes("f3_minus_decay", "killing_exponential_law", "killing_monotonicity"),
                 id="flipped_forcing_K"),
    pytest.param(_damp_degree_one, _passes("killing_equilibrium", "trajectory_constant"),
                 id="damped_degree_one"),
    pytest.param(_alias_convection,
                 lambda: enstrophy_defect(geo.build_sphere_grid(8, 1.0), 8) <= 1e-14,
                 id="aliased_convection"),
    pytest.param(_mean_nu, lambda: dissipation_defect(8, 1.0, 0.5) <= 1e-12, id="mean_nu"),
    pytest.param(_negate_n, lambda: rossby_haurwitz_error() <= 1e-9, id="negated_N"),
    pytest.param(_drop_n, lambda: rossby_haurwitz_error() <= 1e-9, id="dropped_N"),
    pytest.param(_negate_n, lambda: _fixed_point_error() <= 1e-12, id="negated_N_fixed_point"),
    pytest.param(_drop_n, lambda: _fixed_point_error() <= 1e-12, id="dropped_N_fixed_point"),
    pytest.param(_drop_s, _passes("f3_minus_decay", "nk_envelope"), id="dropped_s"),
    pytest.param(_first_order_explicit,
                 lambda: all(3.4 <= r <= 4.6 for r in imex_self_convergence_ratios()),
                 id="first_order_explicit"),
    pytest.param(_negate_n, _passes("rossby_haurwitz", "rh_transport"), id="negated_N_suite"),
    pytest.param(_drop_n, _passes("rossby_haurwitz", "rh_transport"), id="dropped_N_suite"),
    pytest.param(_mean_nu, _passes("varnu_energy_balance", "dissipation_dual"),
                 id="mean_nu_suite"),
    pytest.param(_alias_convection, _passes("insta_regularity", "enstrophy_orthogonal"),
                 id="aliased_convection_suite"),
    pytest.param(_first_order_explicit, _passes("rossby_haurwitz", "rh_transport"),
                 id="first_order_explicit_suite"),
]


@pytest.mark.parametrize("mutate,check", MUTANTS)
def test_mutant_is_killed(monkeypatch, mutate, check):
    assert check()
    mutate(monkeypatch)
    assert not check()
