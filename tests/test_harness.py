"""Config schema, checkpoint format, CSV determinism, scenarios, CLI."""

import dataclasses
import gc
import json
import os
import re
import struct
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from surfns import cli, harmonics, harness, timestepper
from surfns import geometry as geo
from surfns.diagnostics import record
from surfns.errors import CheckpointError, ConfigError, ParameterError
from surfns.forcing import make_catalog_forcing
from surfns.harmonics import (SpectralState, SphereTransform, mode_index, n_modes,
                              random_band_limited)
from surfns.harness import (_run_offsets, build_context, build_initial_state,
                            config_hash, config_text, default_config, load_checkpoint,
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


@pytest.mark.parametrize("text,key", [
    ("forcing.tag = constant_field\nforcing.mode_l = 0", "forcing.mode_l"),
    ("forcing.tag = f2_plus\nforcing.mode_l = 9", "forcing.mode_l"),
    ("forcing.tag = f2_minus\nforcing.mode_m = 3", "forcing.mode_m"),
    ("init.kind = modes\ninit.modes = 2,0,1.0; 9,0,1.0", "init.modes"),
    ("init.kind = modes\ninit.modes = 3,-4,1.0", "init.modes"),
])
def test_config_mode_outside_truncation_has_path(text, key):
    # at the default L = 8; a tag or init kind that reads no mode reads none
    with pytest.raises(ConfigError, match=re.escape(f"config error at '{key}'")):
        parse_config_text(text)
    parse_config_text(text.replace("constant_field", "zero").replace("f2_", "f3_")
                      .replace("init.kind = modes", "init.kind = zero"))


@pytest.mark.parametrize("text,key", [
    ("geometry.radius = 1e9\ngeometry.L = 100", "geometry.radius"),
    ("geometry.L = 100", "geometry.L"),
    ("geometry.L = 1\nforcing.tag = constant_field", "geometry.L"),
    ("geometry.kind = torus\ngeometry.major = 1\ngeometry.minor = 2", "geometry.minor"),
    ("geometry.kind = torus\ngeometry.n_pol = 7", "geometry.n_pol"),
    ("geometry.kind = torus\ngeometry.n_tor = 400", "geometry.n_tor"),
    ("forcing.tag = constant_killing\nforcing.axis = 5", "forcing.axis"),
    ("init.kind = random\ninit.l_max = -3", "init.l_max"),      # draws no mode
    ("init.kind = random\ninit.norm_killing = -1", "init.norm_killing"),
    ("init.kind = random\ninit.norm_nonkilling = -1", "init.norm_nonkilling"),
    ("run.dt = 3e-3\nrun.t_end = 0.01", "run.t_end"),
    ("run.dt = 1e-300\nrun.t_end = 1e10", "run.t_end"),     # a step count past the float range
    ("run.stride = 0", "run.stride"),
    ("init.kind = random\nseed = -1", "seed"),
])
def test_cli_run_config_errors_name_their_field(tmp_path, capsys, text, key):
    # geometry first and then schema order, each bound from the module that
    # enforces it, on one line with the field path
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(text + "\n")
    assert cli.main(["--quiet", "run", str(cfgfile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config error at '{key}': ") and err.count("\n") == 1


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


def test_checkpoint_refuses_non_finite_states(sphere8, tr8, tmp_path):
    path = tmp_path / "state.snsk"
    for t, bad in ((float("inf"), None), (0.0, 7), (float("nan"), 0)):
        s = random_band_limited(tr8, 8)
        s.t = t
        if bad is not None:
            s.coeffs[bad] = np.inf
        with pytest.raises(ParameterError, match="non-finite"):
            save_checkpoint(s, sphere8, str(path))
    assert not path.exists()


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


@pytest.fixture(scope="module")
def checkpoint_blob(tmp_path_factory):
    """The bytes of an L = 2 checkpoint on the radius-2 sphere (125 bytes), and a
    path to write to."""
    path = tmp_path_factory.mktemp("fuzz") / "state.snsk"
    s = SpectralState(2, np.random.default_rng(3).standard_normal(n_modes(2)), t=0.5)
    save_checkpoint(s, geo.build_sphere_grid(2, 2.0), str(path))
    return path.read_bytes(), path


def _with_header(blob, **fields):
    """``blob`` with header ``fields`` rewritten and its CRC made valid again."""
    names = ("magic", "version", "kind", "L", "R", "r", "t", "n_pairs")
    head = dict(zip(names, harness._HEADER.unpack(blob[:harness._HEADER.size])), **fields)
    body = harness._HEADER.pack(*(head[n] for n in names)) + blob[harness._HEADER.size:-4]
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


_BAD_HEADER = st.one_of(
    st.builds(dict, kind=st.integers(2, 255)),
    st.builds(dict, L=st.integers(0, 2 ** 32 - 1).filter(lambda L: L != 2)),
    st.builds(dict, n_pairs=st.integers(0, 2 ** 32 - 1).filter(lambda n: n != 5)),
    st.integers(0, 2 ** 16).filter(lambda L: L != 2).map(
        lambda L: {"L": L, "n_pairs": L * (L + 3) // 2}),
    st.builds(dict, R=st.one_of(st.floats(max_value=0.0), st.sampled_from([np.nan, np.inf]))),
    st.builds(dict, r=st.one_of(st.floats(max_value=-0.0, exclude_max=True),
                                st.sampled_from([np.nan, np.inf]))),
    st.builds(dict, t=st.sampled_from([np.nan, np.inf, -np.inf])))


def test_checkpoint_truncation_or_bit_flip_is_a_checkpoint_error(checkpoint_blob):
    # every truncation and every single bit flip: a CheckpointError, never
    # another exception
    blob, path = checkpoint_blob
    flips = (blob[:i // 8] + bytes([blob[i // 8] ^ 1 << i % 8]) + blob[i // 8 + 1:]
             for i in range(8 * len(blob)))
    for corrupt in [blob[:n] for n in range(len(blob))] + list(flips):
        path.write_bytes(corrupt)
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))


@settings(max_examples=60, deadline=None, database=None)
@given(_BAD_HEADER)
def test_checkpoint_header_rewritten_under_a_valid_crc_is_a_checkpoint_error(
        checkpoint_blob, fields):
    blob, path = checkpoint_blob
    path.write_bytes(_with_header(blob, **fields))
    with pytest.raises(CheckpointError):
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
    a = SimState([u0])
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
    # the same context run twice: the second run starts from the problem
    # data the first left behind (the form, its transform and the forcing),
    # which keep no run state
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


def test_build_context_builds_one_transform(monkeypatch):
    # the form's transform is the context's only one: the forcing and the
    # Killing basis need none, the initial state reads it; the torus has none
    built, init = [], harmonics.SphereTransform.__init__

    def counted(self, grid, L):
        built.append(L)
        init(self, grid, L)
    monkeypatch.setattr(harmonics.SphereTransform, "__init__", counted)
    cfg = dict(default_config(), **{"forcing.tag": "f2_plus", "init.kind": "random"})
    ctx = build_context(cfg)
    assert built == [8] and ctx.form.transform.L == 8
    build_context(dict(cfg, **{"geometry.kind": "torus"}))
    assert built == [8]


def test_dropped_context_frees_its_transform():
    # no reference cycle holds a grid or its tables: reference counting alone
    # frees them
    gc.disable()
    try:
        ctx = build_context(default_config())
        ref = weakref.ref(ctx.form.transform)
        del ctx
        assert ref() is None
    finally:
        gc.enable()


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

    def member_one_diverges(cfg, form, seed=None):
        s = build(cfg, form, seed=seed)
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
                             build(cfg, ctx.form, seed=member_seed(cfg["seed"], 2)))
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


def _cli_snippet(command, path):
    return ("from surfns import cli\n"
            f"assert cli.main(['--quiet', {command!r}, {str(path)!r}]) == 0\n")


def test_cli_korn_loads_no_scipy(tmp_path, fresh_modules):
    # numpy is the only runtime dependency: a fresh process that imports the
    # package and solves a Korn constant must never load scipy
    cfgfile = tmp_path / "korn.cfg"
    cfgfile.write_text("geometry.L = 8\n")
    loaded = fresh_modules(_cli_snippet("korn", cfgfile))
    assert not [m for m in loaded if m == "scipy" or m.startswith("scipy.")]


@pytest.mark.parametrize("command, config", [
    ("korn", "geometry.L = 8\n"),
    ("korn", "geometry.kind = torus\ngeometry.major = 2.0\ngeometry.minor = 0.5\n"
             "geometry.n_pol = 16\ngeometry.n_tor = 16\n"),
    ("spectrum", "geometry.L = 8\nnu.kind = linear_x3\nnu.value = 1.0\nnu.a = 0.5\n"),
])
def test_static_commands_load_no_optional_modules(tmp_path, fresh_modules, command, config):
    # the sphere grid takes its Gauss-Legendre rule from _legendre, not from
    # numpy.polynomial (six modules), and only a scenario's report hashes its
    # config, so these commands never load hashlib and its OpenSSL
    cfgfile = tmp_path / "static.cfg"
    cfgfile.write_text(config)
    loaded = fresh_modules(_cli_snippet(command, cfgfile))
    for name in ("scipy", "numpy.polynomial", "hashlib"):
        assert not [m for m in loaded if m == name or m.startswith(name + ".")], name


def test_cli_decompose_pure_killing(tmp_path, sphere8, capsys):
    s = SpectralState(8)
    s.coeffs[:3] = [0.2, -0.1, 0.5]
    path = tmp_path / "kill.snsk"
    save_checkpoint(s, sphere8, str(path))
    assert cli.main(["decompose", str(path)]) == 0
    out = capsys.readouterr().out
    nk = [l for l in out.splitlines() if l.startswith("norm_uNK")][0]
    assert float(nk.split("=")[1]) <= 1e-12


def test_cli_decompose_prints_the_exact_map(tmp_path, sphere8, capsys):
    # alpha = (-c(1,1,cos), -c(1,1,sin), -c(1,0)) exactly; a degree-2 mode
    # does not enter
    s = SpectralState(8)
    for (l, m), value in {(1, 0): 0.7, (1, 1): 0.3, (1, -1): -0.2, (2, 1): 0.4}.items():
        s.set(l, m, value)
    path = tmp_path / "state.snsk"
    save_checkpoint(s, sphere8, str(path))
    assert cli.main(["decompose", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1:4] == ["alpha_%d = %.17g" % (j + 1, a) for j, a in enumerate((-0.3, 0.2, -0.7))]


def test_cli_calls_share_no_flags(tmp_path):
    # the parser is built once per process: a flag given to one call must
    # not reach the next
    scenario = get_scenario("killing_equilibrium")
    assert cli.main(["--seed", "5", "scenario", scenario.name, "--out", str(tmp_path / "d1")]) == 0
    assert cli.main(["scenario", scenario.name, "--out", str(tmp_path / "d2")]) == 0
    hashes = [json.loads((tmp_path / d / f"{scenario.name}_report.json").read_text())["config_hash"]
              for d in ("d1", "d2")]
    assert hashes[1] == config_hash(scenario.config) != hashes[0]


def _forge_header(path, drop_pairs=0, nan_at=None, **fields):
    """Rewrite header fields of a checkpoint (and set payload value ``nan_at``
    to NaN), keeping its length and CRC valid."""
    head = struct.Struct("<4sIBIdddI")
    names = ("magic", "version", "kind", "L", "R", "r", "t", "n_pairs")
    blob = path.read_bytes()
    vals = dict(zip(names, head.unpack(blob[:head.size])))
    vals.update(fields)
    payload = np.frombuffer(blob[head.size:-4 - 16 * drop_pairs], dtype="<f8").copy()
    if nan_at is not None:
        payload[nan_at] = np.nan
    body = head.pack(*(vals[n] for n in names)) + payload.tobytes()
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


@pytest.mark.parametrize("case,argv,expected", [
    ("config_seed", ["run", "{cfg}"], "seed must be non-negative, got -5"),
    ("cli_seed", ["scenario", "f3_plus_growth", "--seed", "-3"],
     "seed must be non-negative, got -3"),
    ("offset_sum", ["scenario", "backward_uniqueness_probe"],
     "seed must be non-negative, got -1"),
    ("init_norm", ["run", "{cfg}"], "norm_killing must be non-negative"),
    ("checkpoint_t", ["decompose", "{ckpt}"], "t=inf, 0 non-finite"),
    ("checkpoint_coeffs", ["decompose", "{ckpt}"], "1 non-finite coefficients"),
])
def test_cli_bad_input_is_a_usage_error(tmp_path, sphere8, tr8, capsys, monkeypatch,
                                        case, argv, expected):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("geometry.L = 8\ninit.kind = random\n"
                       + {"config_seed": "seed = -5\n",
                          "init_norm": "init.norm_killing = -0.5\n"}.get(case, ""))
    path = tmp_path / "state.snsk"
    save_checkpoint(random_band_limited(tr8, 4), sphere8, str(path))
    _forge_header(path, **{"checkpoint_t": {"t": float("inf")},
                           "checkpoint_coeffs": {"nan_at": 5}}.get(case, {}))
    if case == "offset_sum":        # seed + pair.seed_offset = -1
        probe = get_scenario("backward_uniqueness_probe")
        cfg = {**probe.config, "pair.seed_offset": -probe.config["seed"] - 1}
        monkeypatch.setattr(cli, "get_scenario",
                            lambda name: dataclasses.replace(probe, config=cfg))
    argv = [a.format(cfg=cfgfile, ckpt=path) for a in argv]
    assert cli.main(["--quiet"] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    assert expected in err


@settings(max_examples=20, deadline=None, database=None)
@given(st.integers(max_value=-1))
def test_negative_config_seed_is_a_parameter_error(seed):
    # refused at its field when parsed, and by the random draw when set
    # afterwards, as a scenario's --seed override sets it
    with pytest.raises(ConfigError, match="config error at 'seed'"):
        parse_config_text(f"geometry.L = 2\ninit.kind = random\nseed = {seed}\n")
    cfg = parse_config_text("geometry.L = 2\ninit.kind = random\n")
    cfg["seed"] = seed
    grid = geo.build_sphere_grid(2, 1.0)
    with pytest.raises(ParameterError, match="seed"):
        build_initial_state(cfg, assemble_stokes(grid, geo.ViscosityField(grid, 1.0), 2))


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
    for command in ("run", "spectrum", "ensemble"):
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


def test_cli_decompose_rejects_degree_one(tmp_path, sphere8, capsys):
    path = tmp_path / "l1.snsk"
    save_checkpoint(SpectralState(1, [0.1, 0.2, 0.3]), sphere8, str(path))
    assert load_checkpoint(str(path))[0].L == 1        # valid CRC and header
    assert cli.main(["decompose", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"2..{geo.L_MAX}" in err


@pytest.mark.parametrize("L,expected", [
    (8, ["t = 0.625", "alpha_1 = 1.3366427931811324", "alpha_2 = 1.3611067085649871",
         "alpha_3 = 1.738266398496882", "norm_uK = 2.5808517006614298",
         "norm_uNK = 9.5918622406254954"]),
    (64, ["t = 0.625", "alpha_1 = 0.1796337624994572", "alpha_2 = 1.4365385331312464",
          "alpha_3 = 0.52252417275460039", "norm_uK = 1.5391370169395133",
          "norm_uNK = 64.45371427016677"]),
])
def test_cli_decompose_builds_no_grid_or_transform(tmp_path, sphere8_r2, capsys, monkeypatch,
                                                   L, expected):
    # alpha is the exact map of the stored degree-1 block; the expected lines
    # are what decompose printed through a grid and its Killing basis
    path = tmp_path / "state.snsk"
    coeffs = np.random.default_rng(L).standard_normal(n_modes(L))
    save_checkpoint(SpectralState(L, coeffs, t=0.625), sphere8_r2, str(path))

    def refuse(*args):
        raise AssertionError("decompose built a grid or a transform")
    monkeypatch.setattr(geo, "build_sphere_grid", refuse)
    monkeypatch.setattr(harmonics.SphereTransform, "__init__", refuse)
    assert cli.main(["decompose", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == expected


@pytest.mark.parametrize("radius,f5_exit", [(5e-7, 0), (geo.R_MIN, 0), (geo.R_MAX, 3)])
def test_cli_runs_at_the_radius_range_ends(tmp_path, capsys, radius, f5_exit):
    # f5 grows at rate R - 1, so at R_MAX it diverges by design
    for tag, code in (("zero", 0), ("f5", f5_exit)):
        cfgfile = tmp_path / f"{tag}.cfg"
        cfgfile.write_text(f"geometry.L = 4\ngeometry.radius = {radius!r}\n"
                           f"forcing.tag = {tag}\ninit.kind = random\nrun.t_end = 0.01\n")
        assert cli.main(["--out", str(tmp_path / "out"), "--quiet",
                         "run", str(cfgfile)]) == code
    assert cli.main(["--quiet", "korn", str(cfgfile)]) == 0
    c_p = float(capsys.readouterr().out.split("C_P=")[-1])
    assert 1.0 < c_p < np.inf


_BELOW, _ABOVE = float(np.nextafter(geo.R_MIN, 0)), float(np.nextafter(geo.R_MAX, np.inf))


@pytest.mark.parametrize("text,commands", [
    (f"geometry.radius = {_BELOW!r}", ("run", "spectrum", "korn")),
    (f"geometry.radius = {_ABOVE!r}", ("run", "spectrum", "korn")),
    (f"geometry.kind = torus\ngeometry.minor = {_BELOW!r}", ("korn",)),
    (f"geometry.kind = torus\ngeometry.major = {_ABOVE!r}", ("korn",)),
])
def test_cli_rejects_radii_outside_the_range(tmp_path, capsys, text, commands):
    cfgfile = tmp_path / "radius.cfg"
    cfgfile.write_text(text + "\n")
    for command in commands:
        assert cli.main(["--quiet", command, str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
        assert f"{geo.R_MIN:g}" in err and f"{geo.R_MAX:g}" in err


@pytest.mark.parametrize("R", [_BELOW, _ABOVE])
def test_cli_decompose_rejects_radius_outside_the_range(tmp_path, sphere8, tr8, capsys, R):
    path = tmp_path / "state.snsk"
    save_checkpoint(random_band_limited(tr8, 9), sphere8, str(path))
    _forge_header(path, R=R)
    assert cli.main(["decompose", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "radius must lie in" in err


@pytest.mark.parametrize("cap,t_end", [(None, "1e7"), (1 << 20, "4")])
def test_cli_oversized_run_fails_before_allocating(tmp_path, capsys, monkeypatch, cap, t_end):
    # 1e10 samples of an L = 4 run would take 1.75 TiB of coefficients; with
    # a 1 MiB cap, 4001 samples (1.1 MiB) would allocate and run unguarded
    if cap is not None:
        monkeypatch.setattr(timestepper, "MAX_SAMPLE_BYTES", cap)
    cfgfile = tmp_path / "long.cfg"
    cfgfile.write_text(f"geometry.L = 4\ninit.kind = random\nrun.t_end = {t_end}\n"
                       "run.stride = 1\n")
    tracemalloc.start()
    try:
        code = cli.main(["--out", str(tmp_path / "out"), "--quiet", "run", str(cfgfile)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < (cap or timestepper.MAX_SAMPLE_BYTES)
    err = capsys.readouterr().err
    assert err.startswith("error:") and "GiB cap" in err and "Traceback" not in err


def test_cli_oversized_ensemble_fails_before_any_member_state(tmp_path, capsys, monkeypatch):
    # a million L = 8 members at one stride: 1.4 GiB of samples and, at about
    # 45 kB a row, 42 GiB of states and workspace; no member state and no
    # batch may be built before the run exits 2
    real, built = harness.build_initial_state, []

    def counted(*args, **kwargs):
        built.append(kwargs.get("seed"))
        if len(built) > 100:
            raise AssertionError("member states were built before the size check")
        return real(*args, **kwargs)

    def no_batch(*args, **kwargs):
        raise AssertionError("a batch state was built before the size check")
    monkeypatch.setattr(harness, "build_initial_state", counted)
    monkeypatch.setattr(timestepper.SimState, "__init__", no_batch)
    cfgfile = tmp_path / "wide.cfg"
    cfgfile.write_text("geometry.L = 8\ninit.kind = random\nrun.stride = 1000\n")
    assert cli.main(["--quiet", "ensemble", str(cfgfile), "--members", "1000000"]) == 2
    assert built == [None]          # the context's own u0 only
    err = capsys.readouterr().err
    assert err.startswith("error:") and "GiB cap" in err and "Traceback" not in err


def test_batch_size_check_counts_the_row_workspace():
    # the bytes each row adds to a run, as tracemalloc sees them: under IMEX
    # and RK4, on the diagonal form and the blocked one, at L = 2 to 16, the
    # size check passes as many rows as fit the cap by that measure and counts
    # 1 / 0.98 and 1.25 times as many over it
    for L in (2, 4, 8, 16):
        grid = geo.build_sphere_grid(L, 1.0)
        kb = killing_basis(grid)
        spec = make_catalog_forcing("f3_minus", {}, kb)
        states = [random_band_limited(SphereTransform(grid, L), i) for i in range(200)]
        for a in (0.0, 0.5):
            form = assemble_stokes(grid, geo.ViscosityField(grid, 1.0 + a * grid.nodes[:, 2]), L)
            for scheme in ("imex_cnab2", "rk4"):
                cfg = timestepper.StepperConfig(scheme=scheme, dt=1e-3, t_end=2e-3, stride=2)
                peaks = []
                for k in (100, 200):
                    tracemalloc.start()
                    try:
                        timestepper.run_batch(cfg, grid, form, spec, states[:k])
                        peaks.append(tracemalloc.get_traced_memory()[1])
                    finally:
                        tracemalloc.stop()
                n_rows = int(timestepper.MAX_SAMPLE_BYTES / ((peaks[1] - peaks[0]) / 100))
                assert timestepper.check_batch(cfg, form, n_rows, kb.n) == (2, 2), (L, a, scheme)
                for over in (1 / 0.98, 1.25):
                    with pytest.raises(ParameterError, match="GiB cap"):
                        timestepper.check_batch(cfg, form, int(over * n_rows), kb.n)


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
