"""Every built-in scenario executes and passes its declared checks."""

import pytest

import nodal_oracle as nodal
from surfns import geometry as geo, scenarios
from surfns.harmonics import random_band_limited
from surfns.harness import build_context
from surfns.killing import korn_constant
from surfns.scenarios import (chk_korn_convergence, chk_nk_envelope, get_scenario,
                              list_scenarios, run_scenario)

ALL_NAMES = [name for name, _ in list_scenarios()]


def test_registry_size_and_claims():
    assert len(ALL_NAMES) >= 10
    claims = [get_scenario(n).claims for n in ALL_NAMES]
    assert len(set(claims)) == len(claims)


def test_every_check_is_registered():
    # a factory's checks are its inner functions, named after it
    used = {fn.__qualname__.split(".")[0]
            for name in ALL_NAMES for fn in get_scenario(name).checks}
    defined = {name for name in vars(scenarios) if name.startswith("chk_")}
    assert defined <= used, defined - used


@pytest.mark.parametrize("name", ALL_NAMES)
def test_scenario_passes(name, tmp_path):
    rep = run_scenario(name, out_dir=str(tmp_path), seed=None, quiet=True)
    assert rep.passed, rep.render()
    names = [c.name for c in rep.checks]
    assert len(set(names)) == len(names), names
    assert (tmp_path / f"{name}_report.json").exists()


def test_nk_envelope_fails_when_void():
    # f5 on the radius-2 sphere has s = R - 1 = 1 > sigma = nu lambda_2 / R^2 = 0.5
    cfg = dict(get_scenario("f5_absorbing").config, **{"nu.value": 0.5})
    res = chk_nk_envelope(build_context(cfg))
    assert not res.passed
    assert "void" in res.detail


def _korn_context(L):
    return build_context(dict(get_scenario("korn_sphere").config, **{"geometry.L": L}))


@pytest.mark.parametrize("L", [8, 16, 32])
def test_korn_samples_match_the_nodal_oracle(L):
    # the check's GRAD-table route against the nodal oracle's quadrature of
    # ||v||_H1 / (C_P ||eps(v)||) on the same 30 samples
    ctx = _korn_context(L)
    measured = {c.name: c.measured for c in chk_korn_convergence(ctx)}
    c_p, tr = korn_constant(ctx.grid, L), ctx.form.transform
    samples = (tr.synthesize(random_band_limited(tr, 9000 + i, norm_killing=0.0))
               for i in range(30))
    oracle = max(nodal.h1_norm(ctx.grid, v) / (c_p * nodal.strain_norm(ctx.grid, v))
                 for v in samples)
    assert abs(measured["korn_inequality_samples"] - oracle) <= 1e-14


def test_korn_sphere_builds_one_engine(monkeypatch):
    # the context's one engine is its form's transform's: the check adds no
    # scalar engine and no second transform
    built, init = [], geo.SphereEngine.__init__

    def counted(self, grid, lmin, lmax, *args):
        built.append(lmax)
        init(self, grid, lmin, lmax, *args)
    monkeypatch.setattr(geo.SphereEngine, "__init__", counted)
    L = get_scenario("korn_sphere").config["geometry.L"]
    chk_korn_convergence(_korn_context(L))
    assert built == [L]


def test_seed_override_changes_random_runs(tmp_path):
    a = run_scenario("varnu_energy_balance", seed=1, quiet=True)
    b = run_scenario("varnu_energy_balance", seed=2, quiet=True)
    assert a.passed and b.passed
    assert a.config_hash != b.config_hash


def test_determinism_same_seed(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    run_scenario("f3_minus_decay", out_dir=str(out1), quiet=True)
    run_scenario("f3_minus_decay", out_dir=str(out2), quiet=True)
    c1 = (out1 / "f3_minus_decay.csv").read_bytes()
    c2 = (out2 / "f3_minus_decay.csv").read_bytes()
    assert c1 == c2
