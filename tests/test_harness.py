"""Config schema, checkpoint format, CSV determinism, scenarios, CLI."""

import json
import os
import re
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from surfns import cli, harness
from surfns import geometry as geo
from surfns.diagnostics import record
from surfns.errors import CheckpointError, ConfigError, ParameterError
from surfns.forcing import make_catalog_forcing
from surfns.harmonics import (SpectralState, mode_index, n_modes,
                              random_band_limited)
from surfns.harness import (_run_offsets, build_context, config_hash,
                            config_text, default_config, load_checkpoint,
                            member_seed, parse_config_text, records_to_csv,
                            run_ensemble, save_checkpoint, stepper_config,
                            write_ensemble)
from surfns.killing import killing_basis
from surfns.operators import assemble_stokes
from surfns.scenarios import get_scenario, list_scenarios, run_scenario
from surfns.timestepper import SimState, run as run_simulation


# --- configuration ----------------------------------------------------------

def test_config_defaults_round_trip():
    cfg = default_config()
    again = parse_config_text(config_text(cfg))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


def test_config_parses_values():
    cfg = parse_config_text("""
# a comment
geometry.kind = sphere
geometry.L = 12
nu.kind = linear_x3
nu.a = 0.25
init.modes = 2,0,1.0; 3,1,-0.5
forcing.point = 0, 0, 1
pair.gaps = 1e-2, 1e-3
""")
    assert cfg["geometry.L"] == 12
    assert cfg["nu.a"] == 0.25
    assert cfg["init.modes"] == ((2, 0, 1.0), (3, 1, -0.5))
    assert cfg["pair.gaps"] == (1e-2, 1e-3)


def test_config_unknown_key_has_path():
    with pytest.raises(ConfigError, match="unknown config key 'nu.b'"):
        parse_config_text("nu.b = 3")


def test_config_type_error_has_path():
    with pytest.raises(ConfigError, match="config error at 'nu.a'"):
        parse_config_text("nu.a = banana")


def test_config_choice_error():
    with pytest.raises(ConfigError, match="geometry.kind"):
        parse_config_text("geometry.kind = cube")


def test_config_semantic_validation():
    with pytest.raises(ConfigError, match="nu.a"):
        parse_config_text("nu.kind = linear_x3\nnu.a = 2.0")


# every float-valued key, with a well-formed setting around its value slot
_FLOAT_SETTINGS = {
    "geometry.radius": "{}", "geometry.major": "{}", "geometry.minor": "{}",
    "nu.value": "{}", "nu.a": "{}", "forcing.amplitude": "{}", "forcing.c": "{}",
    "forcing.point": "0, {}, 1", "init.modes": "2, 0, 1.0; 3, 1, {}",
    "init.norm_killing": "{}", "init.norm_nonkilling": "{}",
    "run.dt": "{}", "run.t_end": "{}", "pair.gaps": "1e-2, {}",
}


@settings(max_examples=60, deadline=None, database=None)
@given(st.sampled_from(sorted(_FLOAT_SETTINGS)),
       st.sampled_from(["nan", "NaN", "inf", "+inf", "-inf", "Infinity", "-Infinity"]))
def test_config_rejects_non_finite_floats(key, value):
    assert {k for k, v in default_config().items()
            if isinstance(v, float)} <= set(_FLOAT_SETTINGS)
    with pytest.raises(ConfigError, match=re.escape(f"config error at '{key}'")):
        parse_config_text(f"{key} = {_FLOAT_SETTINGS[key].format(value)}")


# --- checkpoints ------------------------------------------------------------

def test_checkpoint_round_trip_bit_exact(sphere8, tr8, tmp_path):
    path = tmp_path / "state.snsk"
    for seed in (1, 2, 3):
        s = random_band_limited(tr8, seed)
        s.t = 0.725
        save_checkpoint(s, sphere8, str(path))
        meta, back = load_checkpoint(str(path))
        assert meta.kind == "sphere" and meta.L == 8 and meta.R == 1.0
        assert back.t == 0.725
        assert np.array_equal(back.coeffs, s.coeffs)


def test_checkpoint_truncation_detected(sphere8, tr8, tmp_path):
    path = tmp_path / "state.snsk"
    save_checkpoint(random_band_limited(tr8, 5), sphere8, str(path))
    blob = path.read_bytes()
    path.write_bytes(blob[:-9])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(str(path))


def test_checkpoint_crc_detected(sphere8, tr8, tmp_path):
    path = tmp_path / "state.snsk"
    save_checkpoint(random_band_limited(tr8, 6), sphere8, str(path))
    blob = bytearray(path.read_bytes())
    blob[60] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(str(path))


def test_checkpoint_version_detected(sphere8, tr8, tmp_path):
    path = tmp_path / "state.snsk"
    save_checkpoint(random_band_limited(tr8, 7), sphere8, str(path))
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", 99)
    body = bytes(blob[:-4])
    import zlib
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(str(path))


def test_checkpoint_payload_follows_the_documented_pair_order(sphere8, tmp_path):
    # one (cos, sin) pair per (l, m), l = 1..L, m = 0..l, sin = 0 for m = 0;
    # a round trip alone cannot see a save/load pair that agree on another order
    L = 3
    s = SpectralState(L, np.arange(1.0, n_modes(L) + 1))
    path = tmp_path / "state.snsk"
    save_checkpoint(s, sphere8, str(path))
    expected = []
    for l in range(1, L + 1):
        for m in range(l + 1):
            expected += [s.coeffs[mode_index(L, l, m)],
                         s.coeffs[mode_index(L, l, -m)] if m > 0 else 0.0]
    blob = path.read_bytes()
    head = struct.calcsize("<4sIBIdddI")
    assert struct.unpack(f"<{len(expected)}d", blob[head:-4]) == tuple(expected)
    assert np.array_equal(load_checkpoint(str(path))[1].coeffs, s.coeffs)


def test_checkpoint_resume_determinism(sphere8, tr8, tmp_path):
    # save at t = 0, resume, integrate 10 steps: bit-identical to the
    # uninterrupted integration (both paths share the bootstrap)
    kb = killing_basis(sphere8)
    form = assemble_stokes(sphere8, geo.ViscosityField(sphere8, 1.0), 8)
    spec = make_catalog_forcing("f3_minus", {}, kb)
    u0 = random_band_limited(tr8, 17, norm_killing=0.4, norm_nonkilling=0.8)

    path = tmp_path / "t0.snsk"
    save_checkpoint(u0, sphere8, str(path))
    _, resumed = load_checkpoint(str(path))

    from surfns.timestepper import step_imex
    a = SimState([u0.copy()])
    b = SimState([resumed])
    for _ in range(10):
        a = step_imex(a, form, spec, 1e-3)
        b = step_imex(b, form, spec, 1e-3)
    assert np.array_equal(a.c[0], b.c[0])


# --- CSV --------------------------------------------------------------------

def _run_scenario_csv(tmp_path, label, threads):
    out = tmp_path / label
    assert cli.main(["--out", str(out), "--threads", str(threads), "--quiet",
                     "scenario", "free_decay_ensemble"]) == 0
    return {p: (out / p).read_bytes() for p in sorted(os.listdir(out))
            if p.endswith(".csv")}



def test_csv_byte_identical_across_threads(tmp_path):
    one = _run_scenario_csv(tmp_path, "one", threads=1)
    four = _run_scenario_csv(tmp_path, "four", threads=4)
    assert one.keys() == four.keys() and len(one) > 1
    for name in one:
        assert one[name] == four[name], name


def test_batched_csv_identical_with_warm_caches(tmp_path):
    # the same context run twice: the second run finds the form's step
    # constants and the flat transform and apply indices already cached
    cfg = dict(get_scenario("free_decay_ensemble").config)
    cfg["run.t_end"] = 0.2
    ctx = build_context(cfg)
    texts = []
    for label in ("cold", "warm"):
        out = tmp_path / label
        out.mkdir()
        write_ensemble(str(out), "ens", run_ensemble(cfg, ctx=ctx), ctx.basis.n)
        texts.append({p: (out / p).read_bytes() for p in sorted(os.listdir(out))})
    assert len(texts[0]) > 2 and texts[0] == texts[1]


def test_csv_format(sphere8, tr8):
    kb = killing_basis(sphere8)
    form = assemble_stokes(sphere8, geo.ViscosityField(sphere8, 1.0), 8)
    spec = make_catalog_forcing("zero", {}, kb)
    cfg = stepper_config(default_config())
    _, records = run_simulation(cfg, sphere8, form, spec,
                                random_band_limited(tr8, 4))
    # the zero state's quotient is undefined, so its lambda is nan
    nan_row = record(form, spec, SimState([SpectralState(8)]))
    records = np.concatenate([records, nan_row]).view(np.recarray)
    assert np.isnan(records.lam[-1]) and not np.isnan(records.lam[:-1]).any()
    text = records_to_csv(records, kb.n)
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    assert header[:9] == ["t", "norm_u", "norm_uK", "norm_uNK", "energy",
                          "dissipation", "work", "energy_residual", "lambda"]
    assert header[9:] == ["alpha_1", "alpha_2", "alpha_3"]
    # 17 significant digits round-trip binary64 losslessly: every value of
    # every row, read back by column name, matches its record bit for bit
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    fields = ("t", "norm_u", "norm_uK", "norm_uNK", "energy", "dissipation",
              "work", "energy_residual", "lam")
    expected = np.column_stack([records[name] for name in fields] + [records.alpha])
    assert table.shape == expected.shape == (len(records), 12)
    np.testing.assert_array_equal(table.view(np.int64), expected.view(np.int64))
    with pytest.raises(ParameterError, match="3 Killing coordinates, not 2"):
        records_to_csv(records, 2)


def test_ensemble_csv_aggregates_the_member_csvs(tmp_path):
    cfg = default_config()
    cfg.update({"geometry.L": 8, "init.kind": "random",
                "init.norm_killing": 0.5, "init.norm_nonkilling": 1.0,
                "run.t_end": 0.5, "run.stride": 25, "ensemble.members": 3})
    ctx = build_context(cfg)
    write_ensemble(str(tmp_path), "ens", run_ensemble(cfg, ctx=ctx), ctx.basis.n)

    def read(name):
        with open(tmp_path / name, encoding="utf-8") as fh:
            columns = fh.readline().strip().split(",")
        table = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1, ndmin=2)
        return dict(zip(columns, table.T))

    members = [read(f"ens_member{k:02d}.csv") for k in range(3)]
    ensemble = read("ens_ensemble.csv")
    stats = {"max": np.max, "min": np.min, "mean": np.mean}
    assert len(ensemble) == 1 + 6 * len(stats)
    np.testing.assert_array_equal(ensemble.pop("t"), members[0]["t"])
    for column, values in ensemble.items():
        name, stat = column.rsplit("_", 1)
        over_members = stats[stat](np.stack([m[name] for m in members]), axis=0)
        np.testing.assert_array_equal(values, over_members, err_msg=column)


# --- scenarios and ensemble --------------------------------------------------

def test_registry_has_ten_plus_scenarios():
    names = list_scenarios()
    assert len(names) >= 10
    for name, claims in names:
        assert claims.strip()


def test_unknown_scenario():
    from surfns.errors import ParameterError
    with pytest.raises(ParameterError, match="unknown scenario"):
        get_scenario("does_not_exist")


def test_ensemble_aggregates(sphere8):
    cfg = default_config()
    cfg.update({"geometry.L": 8, "init.kind": "random",
                "init.norm_killing": 0.5, "init.norm_nonkilling": 1.0,
                "run.t_end": 0.5, "run.stride": 25, "ensemble.members": 3})
    ens = run_ensemble(cfg)
    nk = ens.aggregates["norm_uNK"]
    assert len(ens.member_records) == 3
    assert np.all(nk["max"] >= nk["mean"]) and np.all(nk["mean"] >= nk["min"])
    assert np.all(np.diff(nk["max"]) < 0)
    assert np.isfinite(ens.entry_time)


def test_ensemble_members_keep_their_index_after_a_divergence(tmp_path, monkeypatch):
    cfg = default_config()
    cfg.update({"geometry.L": 8, "init.kind": "random", "run.t_end": 0.5,
                "run.stride": 25, "ensemble.members": 3})
    build = harness.build_initial_state

    def member_one_diverges(cfg, grid, seed=None):
        s = build(cfg, grid, seed=seed)
        if seed == member_seed(cfg["seed"], 1):
            s.coeffs *= 1e100
        return s

    monkeypatch.setattr(harness, "build_initial_state", member_one_diverges)
    ctx = build_context(cfg)
    ens = run_ensemble(cfg, ctx=ctx)
    assert ens.diverged == [1] and ens.members == [0, 2]
    write_ensemble(str(tmp_path), "ens", ens, ctx.basis.n)
    assert not (tmp_path / "ens_member01.csv").exists()
    _, solo = run_simulation(stepper_config(cfg), ctx.grid, ctx.form, ctx.fspec,
                             build(cfg, ctx.grid, seed=member_seed(cfg["seed"], 2)))
    written = np.loadtxt(tmp_path / "ens_member02.csv", delimiter=",", skiprows=1)
    expected = np.loadtxt(records_to_csv(solo, ctx.basis.n).splitlines()[1:],
                          delimiter=",")
    np.testing.assert_allclose(written, expected, rtol=1e-12, atol=1e-12)


def test_ensemble_seeds_are_member_specific():
    seeds = [member_seed(1234, k) for k in range(8)]
    assert len(set(seeds)) == 8


# --- CLI ----------------------------------------------------------------------

def test_cli_scenarios_lists(capsys):
    assert cli.main(["scenarios"]) == 0
    out = capsys.readouterr().out
    assert "free_decay_l2" in out and out.count(":") >= 10


def test_cli_unknown_scenario_exit_code():
    assert cli.main(["--quiet", "scenario", "nope"]) == 2


def test_cli_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nu.a = banana\n")
    assert cli.main(["--quiet", "run", str(bad)]) == 2


def test_cli_run_and_spectrum(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("""
scenario.name = smoke
geometry.L = 8
init.kind = modes
init.modes = 2,0,1.0
run.t_end = 0.1
run.stride = 20
""")
    assert cli.main(["--out", str(tmp_path / "out"), "--quiet",
                     "run", str(cfgfile)]) == 0
    assert (tmp_path / "out" / "smoke.csv").exists()

    assert cli.main(["--quiet", "spectrum", str(cfgfile)]) == 0
    out = capsys.readouterr().out
    first = out.strip().split("\n")[0].split()
    assert first[0] == "1" and abs(float(first[1])) <= 1e-10


def test_cli_korn(tmp_path, capsys):
    cfgfile = tmp_path / "korn.cfg"
    cfgfile.write_text("geometry.L = 8\n")
    assert cli.main(["--quiet", "korn", str(cfgfile)]) == 0
    out = capsys.readouterr().out
    assert "C_P" in out


def test_cli_korn_torus(tmp_path, capsys):
    cfgfile = tmp_path / "korn_torus.cfg"
    cfgfile.write_text("geometry.kind = torus\ngeometry.major = 2.0\ngeometry.minor = 0.5\n"
                       "geometry.n_pol = 64\ngeometry.n_tor = 64\n")
    assert cli.main(["--quiet", "korn", str(cfgfile)]) == 0
    assert capsys.readouterr().out.strip() == "torus C_P=2.17944947177"


def test_cli_korn_loads_no_scipy(tmp_path):
    # numpy is the only runtime dependency: a fresh process that imports the
    # package and solves a Korn constant must never load scipy
    cfgfile = tmp_path / "korn.cfg"
    cfgfile.write_text("geometry.L = 8\n")
    code = ("import json, sys, surfns\n"
            "from surfns import cli\n"
            f"status = cli.main(['--quiet', 'korn', {str(cfgfile)!r}])\n"
            "print(json.dumps([status, sorted(m for m in sys.modules\n"
            "                  if m == 'scipy' or m.startswith('scipy.'))]))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert json.loads(out.strip().splitlines()[-1]) == [0, []]


def test_cli_decompose_pure_killing(tmp_path, sphere8, capsys):
    s = SpectralState(8)
    s.coeffs[:3] = [0.2, -0.1, 0.5]
    path = tmp_path / "kill.snsk"
    save_checkpoint(s, sphere8, str(path))
    assert cli.main(["decompose", str(path)]) == 0
    out = capsys.readouterr().out
    nk = [l for l in out.splitlines() if l.startswith("norm_uNK")][0]
    assert float(nk.split("=")[1]) <= 1e-12


def _forge_header(path, drop_pairs=0, **fields):
    """Rewrite header fields of a checkpoint, keeping its length and CRC valid."""
    head = struct.Struct("<4sIBIdddI")
    names = ("magic", "version", "kind", "L", "R", "r", "t", "n_pairs")
    blob = path.read_bytes()
    vals = dict(zip(names, head.unpack(blob[:head.size])))
    vals.update(fields)
    body = head.pack(*(vals[n] for n in names)) + blob[head.size:-4 - 16 * drop_pairs]
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


def test_cli_decompose_rejects_pair_count_mismatch(tmp_path, sphere8, tr8, capsys):
    path = tmp_path / "state.snsk"
    save_checkpoint(random_band_limited(tr8, 8), sphere8, str(path))
    _forge_header(path, drop_pairs=1, n_pairs=43)     # L = 8 needs 44 pairs
    assert cli.main(["decompose", str(path)]) == 2
    assert "43 coefficient pairs" in capsys.readouterr().err


def test_cli_decompose_rejects_nan_radius(tmp_path, sphere8, tr8, capsys):
    path = tmp_path / "state.snsk"
    save_checkpoint(random_band_limited(tr8, 9), sphere8, str(path))
    _forge_header(path, R=float("nan"))
    assert cli.main(["decompose", str(path)]) == 2
    assert "R=nan" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["missing.snsk", "."])
def test_cli_decompose_unreadable_path_is_a_usage_error(tmp_path, capsys, name):
    assert cli.main(["decompose", str(tmp_path / name)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_cli_out_naming_a_file_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert cli.main(["--out", str(out), "--quiet",
                     "scenario", "killing_equilibrium"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["scenario", "ensemble"])
def test_cli_out_naming_a_file_fails_before_any_work(tmp_path, capsys, monkeypatch,
                                                      command):
    def no_work(cfg):
        raise AssertionError("the run started before --out was created")

    monkeypatch.setattr(harness, "build_context", no_work)
    monkeypatch.setattr(cli, "build_context", no_work)
    out = tmp_path / "taken"
    out.write_text("")
    cfgfile = tmp_path / "ens.cfg"
    cfgfile.write_text("geometry.L = 8\n")
    target = "killing_equilibrium" if command == "scenario" else str(cfgfile)
    assert cli.main(["--out", str(out), "--quiet", command, target]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_scenario_pass(tmp_path):
    assert cli.main(["--out", str(tmp_path), "--quiet",
                     "scenario", "killing_equilibrium"]) == 0
    assert (tmp_path / "killing_equilibrium_report.json").exists()


def test_cli_ensemble(tmp_path, capsys):
    cfgfile = tmp_path / "ens.cfg"
    cfgfile.write_text("""
scenario.name = mini
geometry.L = 8
init.kind = random
init.norm_killing = 0.3
init.norm_nonkilling = 1.0
run.t_end = 0.5
run.stride = 25
""")
    code = cli.main(["--out", str(tmp_path / "out"), "--threads", "2",
                     "ensemble", str(cfgfile), "--members", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "entry_time" in out
    files = sorted(os.listdir(tmp_path / "out"))
    assert "mini_ensemble.csv" in files
    assert sum(f.startswith("mini_member") for f in files) == 3


def test_torus_config_cannot_integrate(tmp_path):
    cfgfile = tmp_path / "torus.cfg"
    cfgfile.write_text("geometry.kind = torus\n")
    for command in ("run", "spectrum"):
        assert cli.main(["--quiet", command, str(cfgfile)]) == 2


def _assert_usage_error(tmp_path, capsys, command, text, key):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(text + "\n")
    assert cli.main(["--quiet", command, str(cfgfile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"'{key}'" in err and "Traceback" not in err


@pytest.mark.parametrize("command,text,key", [
    ("run", "run.dt = nan", "run.dt"),
    ("run", "run.t_end = inf", "run.t_end"),
    *((command, f"geometry.radius = {v}", "geometry.radius")
      for command in ("run", "spectrum", "korn") for v in ("nan", "inf")),
    ("korn", "geometry.kind = torus\ngeometry.major = inf", "geometry.major"),
    ("run", "forcing.tag = f2_minus\nforcing.amplitude = nan", "forcing.amplitude"),
    ("run", "forcing.tag = constant_killing\nforcing.c = nan", "forcing.c"),
    ("run", "init.kind = random\ninit.norm_killing = inf", "init.norm_killing"),
])
def test_cli_rejects_non_finite_floats(tmp_path, capsys, command, text, key):
    _assert_usage_error(tmp_path, capsys, command, text, key)


def test_cli_rejects_f4_at_the_origin(tmp_path, capsys):
    for tag in ("f4_plus", "f4_minus"):
        _assert_usage_error(tmp_path, capsys, "run",
                            f"forcing.tag = {tag}\nforcing.point = 0, 0, 0",
                            "forcing.point")


def test_ensemble_killing_only_members_are_constant():
    cfg = default_config()
    cfg.update({"geometry.L": 8, "init.kind": "random",
                "init.norm_killing": 0.5, "init.norm_nonkilling": 0.0,
                "run.t_end": 0.5, "run.stride": 25, "ensemble.members": 3})
    ens = run_ensemble(cfg)
    for recs in ens.member_records:
        for key in ("norm_u", "norm_uK", "norm_uNK", "energy", "dissipation"):
            vals = [getattr(r, key) for r in recs]
            assert max(vals) - min(vals) <= 1e-12


def test_pair_and_gap_rows_match_solo_runs():
    for name, labels in (("backward_uniqueness_probe", ["a", "b"]),
                         ("contdep_gaps", ["base", "gap0", "gap1", "gap2"])):
        cfg = dict(get_scenario(name).config)
        cfg["run.t_end"] = 0.5
        ctx = build_context(cfg)
        _run_offsets(cfg, ctx, get_scenario(name).kind)
        assert sorted(ctx.pair) == labels
        scfg = stepper_config(cfg)
        for samples, _ in ctx.pair.values():
            solo, _ = run_simulation(scfg, ctx.grid, ctx.form, ctx.fspec,
                                     SpectralState(ctx.form.L, samples[0]))
            assert len(samples) == len(solo)
            for a, b in zip(samples, solo):
                assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)


def test_cli_rejects_oversized_truncation(tmp_path, capsys):
    cfgfile = tmp_path / "huge.cfg"
    cfgfile.write_text("geometry.L = 100000\n")
    for command in ("run", "spectrum", "korn"):
        assert cli.main(["--quiet", command, str(cfgfile)]) == 2
    assert "2..64" in capsys.readouterr().err


def test_cli_rejects_oversized_torus_grid(tmp_path, capsys):
    cfgfile = tmp_path / "huge_torus.cfg"
    cfgfile.write_text("geometry.kind = torus\ngeometry.n_pol = 100000\n")
    assert cli.main(["--quiet", "korn", str(cfgfile)]) == 2
    assert f"8..{geo.TORUS_N_MAX}" in capsys.readouterr().err


def test_cli_decompose_rejects_oversized_truncation(tmp_path, sphere8, capsys):
    path = tmp_path / "l65.snsk"
    save_checkpoint(SpectralState(65), sphere8, str(path))
    assert load_checkpoint(str(path))[0].L == 65       # valid CRC and header
    assert cli.main(["decompose", str(path)]) == 2
    assert "2..64" in capsys.readouterr().err


def test_malformed_threads_env_has_no_effect(tmp_path, monkeypatch):
    def csvs(label):
        out = tmp_path / label
        assert cli.main(["--out", str(out), "--quiet",
                         "scenario", "f3_plus_ensemble"]) == 0
        return {p: (out / p).read_bytes() for p in sorted(os.listdir(out))
                if p.endswith(".csv")}

    monkeypatch.delenv("SURFNS_THREADS", raising=False)
    plain = csvs("plain")
    monkeypatch.setenv("SURFNS_THREADS", "abc")
    assert csvs("abc") == plain and len(plain) > 1
