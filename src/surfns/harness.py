"""Run configuration, scenario execution, ensembles, and file formats.

Configuration is a flat typed key-value text format with dotted sections
(``geometry.kind = sphere``), schema-validated with the offending field path
in every error.  Diagnostics series serialize to CSV with a fixed column
order and 17 significant digits, so binary64 values round-trip losslessly.
Checkpoints are a small binary format with a trailing CRC32.

Ensembles, pairs and gap families integrate as one batched trajectory in a
single thread.  Determinism contract: identical config and seed produce
byte-identical CSV output; the CLI's --threads setting has no effect on it.
"""

import io
import json
import math
import os
import struct
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import CheckpointError, ConfigError, DivergenceError, GeometryError, ParameterError
from . import geometry as geo
from .diagnostics import SCALAR_FIELDS, fit_decay_rate
from .forcing import TAGS, make_catalog_forcing
from .harmonics import SpectralState, mode_index, n_modes, random_band_limited
from .killing import SPHERE_L1_MAP, killing_basis
from .operators import assemble_stokes
from .timestepper import StepperConfig, check_batch, run, run_batch, step_count

# ---------------------------------------------------------------------------
# configuration schema

def _cast_bool(s):
    if s.lower() in ("true", "1", "yes"):
        return True
    if s.lower() in ("false", "0", "no"):
        return False
    raise ValueError("expected a boolean")


def _cast_choice(*options):
    def cast(s):
        if s not in options:
            raise ValueError(f"expected one of {options}")
        return s
    return cast


def _cast_float(s):
    v = float(s)
    if not math.isfinite(v):
        raise ValueError("expected a finite float")
    return v


def _cast_vec3(s):
    parts = s.split(",")
    if len(parts) != 3:
        raise ValueError("expected three comma-separated floats")
    return tuple(_cast_float(p) for p in parts)


def _cast_modes(s):
    """Mode list: 'l,m,amp; l,m,amp; ...'"""
    out = []
    if not s.strip():
        return tuple(out)
    for chunk in s.split(";"):
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 3:
            raise ValueError("expected 'l,m,amplitude' triples separated by ';'")
        out.append((int(parts[0]), int(parts[1]), _cast_float(parts[2])))
    return tuple(out)


def _cast_floats(s):
    if not s.strip():
        return ()
    return tuple(_cast_float(p) for p in s.split(","))


def _cast_opt_float(s):
    if s.strip().lower() == "none":
        return None
    return _cast_float(s)


_SCHEMA = {
    "scenario.name": (str, ""),
    "geometry.kind": (_cast_choice("sphere", "torus"), "sphere"),
    "geometry.radius": (_cast_float, 1.0),
    "geometry.L": (int, 8),
    "geometry.major": (_cast_float, 2.0),
    "geometry.minor": (_cast_float, 0.5),
    "geometry.n_pol": (int, 64),
    "geometry.n_tor": (int, 64),
    "nu.kind": (_cast_choice("constant", "linear_x3"), "constant"),
    "nu.value": (_cast_float, 1.0),
    "nu.a": (_cast_float, 0.0),
    "forcing.tag": (_cast_choice(*TAGS), "zero"),
    "forcing.mode_l": (int, 2),
    "forcing.mode_m": (int, 0),
    "forcing.amplitude": (_cast_float, 1.0),
    "forcing.c": (_cast_float, 1.0),
    "forcing.axis": (int, 0),
    "forcing.point": (_cast_vec3, (0.0, 0.0, 1.0)),
    "init.kind": (_cast_choice("zero", "modes", "random"), "zero"),
    "init.modes": (_cast_modes, ()),
    "init.l_max": (int, 0),
    "init.norm_killing": (_cast_opt_float, None),
    "init.norm_nonkilling": (_cast_opt_float, None),
    "run.scheme": (_cast_choice("imex_cnab2", "rk4"), "imex_cnab2"),
    "run.dt": (_cast_float, 1e-3),
    "run.t_end": (_cast_float, 1.0),
    "run.stride": (int, 10),
    "ensemble.members": (int, 8),
    "pair.gaps": (_cast_floats, ()),
    "pair.seed_offset": (int, 77),
    "pair.killing_free": (_cast_bool, False),
    "seed": (int, 1234),
}


def default_config():
    return {k: v for k, (_, v) in _SCHEMA.items()}


def parse_config_text(text):
    """Parse 'key = value' lines into a typed config dict."""
    cfg = default_config()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = (p.strip() for p in line.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key '{key}' (line {lineno})")
        caster, _ = _SCHEMA[key]
        try:
            cfg[key] = caster(val)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"config error at '{key}': {exc} (got {val!r})") from None
    _validate_config(cfg)
    return cfg


def _validate_config(cfg):
    """Check the fields in schema order, geometry first (the configured surface's
    only), each error at its field; forcing, init modes and the random band
    limit only where read."""
    sphere = cfg["geometry.kind"] == "sphere"
    if sphere:
        _at("geometry.radius", geo.check_radius, cfg["geometry.radius"])
        _at("geometry.L", geo.check_degree, cfg["geometry.L"])
    else:
        _at("geometry.major", geo.check_radius, cfg["geometry.major"])
        _at("geometry.minor", geo.check_torus_radii, cfg["geometry.major"], cfg["geometry.minor"])
        for key in ("geometry.n_pol", "geometry.n_tor"):
            _at(key, geo.check_torus_size, cfg[key])
    if cfg["nu.value"] <= 0:
        raise ConfigError(f"config error at 'nu.value': must be positive, got {cfg['nu.value']}")
    if cfg["nu.kind"] == "linear_x3" and cfg["nu.value"] - abs(cfg["nu.a"]) <= 0:
        raise ConfigError("config error at 'nu.a': viscosity floor must stay positive")
    if sphere:
        L, tag = cfg["geometry.L"], cfg["forcing.tag"]
        if tag in ("constant_field", "f2_plus", "f2_minus"):
            _check_mode(cfg["forcing.mode_l"], cfg["forcing.mode_m"], L,
                        "forcing.mode_l", "forcing.mode_m")
        if tag == "constant_killing" and not 0 <= cfg["forcing.axis"] < len(SPHERE_L1_MAP):
            raise ConfigError(f"config error at 'forcing.axis': Killing axis "
                              f"{cfg['forcing.axis']} outside 0..{len(SPHERE_L1_MAP) - 1}")
        if tag.startswith("f4") and not 0 < np.linalg.norm(cfg["forcing.point"]) < np.inf:
            raise ConfigError("config error at 'forcing.point': f4 needs a nonzero "
                              "direction to place its point on the sphere")
        if cfg["init.kind"] == "modes":
            for l, m, _ in cfg["init.modes"]:
                _check_mode(l, m, L, "init.modes", "init.modes")
        if cfg["init.kind"] == "random" and cfg["init.l_max"] > L:
            raise ConfigError(f"config error at 'init.l_max': band limit {cfg['init.l_max']} "
                              f"above geometry.L = {L}")
    for key in ("init.l_max", "init.norm_killing", "init.norm_nonkilling"):
        if (cfg[key] or 0) < 0:
            raise ConfigError(f"config error at '{key}': {key[5:]} must be non-negative, "
                              f"got {cfg[key]}")
    for key in ("run.dt", "run.t_end", "run.stride"):
        if cfg[key] <= 0:
            raise ConfigError(f"config error at '{key}': must be positive")
    _at("run.t_end", step_count, cfg["run.dt"], cfg["run.t_end"])
    if cfg["ensemble.members"] < 2:
        raise ConfigError("config error at 'ensemble.members': need at least 2")
    if cfg["init.kind"] == "random" and cfg["seed"] < 0:
        raise ConfigError(f"config error at 'seed': seed must be non-negative, got "
                          f"{cfg['seed']}, with init.kind = random")


def _at(key, check, *args):
    """Run a bound check of another module, its error at the config field ``key``."""
    try:
        check(*args)
    except (ParameterError, GeometryError) as exc:
        raise ConfigError(f"config error at '{key}': {exc}") from None


def _check_mode(l, m, L, key_l, key_m):
    """Raise ConfigError, at the field that sets it, unless (l, m) is a mode of truncation L."""
    if not 1 <= l <= L:
        raise ConfigError(f"config error at '{key_l}': degree {l} outside 1..{L} (geometry.L)")
    if abs(m) > l:
        raise ConfigError(f"config error at '{key_m}': order {m} outside -{l}..{l} "
                          f"for degree {l}")


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None


def config_text(cfg):
    """Canonical 'key = value' rendering (sorted keys, defaults included)."""
    lines = []
    for key in sorted(cfg):
        val = cfg[key]
        if isinstance(val, tuple):
            if val and isinstance(val[0], tuple):
                rendered = "; ".join(",".join(_fmt(x) for x in t) for t in val)
            else:
                rendered = ",".join(_fmt(x) for x in val)
        elif val is None:
            rendered = "none"
        else:
            rendered = _fmt(val)
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"


def _fmt(v):
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def config_hash(cfg):
    # imported here: only a scenario's report hashes its config, and hashlib
    # loads OpenSSL, which the static commands (spectrum, korn) need not
    import hashlib
    return hashlib.sha256(config_text(cfg).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# context construction

@dataclass
class RunContext:
    cfg: dict
    grid: object
    basis: object
    form: object = None
    fspec: object = None
    u0: object = None
    samples: np.ndarray = None
    records: np.recarray = None
    pair: dict = field(default_factory=dict)
    ensemble: object = None


def build_grid(cfg):
    if cfg["geometry.kind"] == "sphere":
        return geo.build_sphere_grid(cfg["geometry.L"], cfg["geometry.radius"])
    return geo.build_torus_grid(cfg["geometry.n_pol"], cfg["geometry.n_tor"],
                                cfg["geometry.major"], cfg["geometry.minor"])


def build_viscosity(cfg, grid):
    if cfg["nu.kind"] == "constant":
        return geo.ViscosityField(grid, cfg["nu.value"])
    x3 = grid.nodes[:, 2]
    scale = grid.R if grid.kind == "sphere" else 1.0
    return geo.ViscosityField(grid, cfg["nu.value"] + cfg["nu.a"] * x3 / scale)


def build_forcing(cfg, grid, basis):
    tag = cfg["forcing.tag"]
    params = {}
    if tag in ("constant_field", "f2_plus", "f2_minus"):
        L = cfg["geometry.L"]
        f = np.zeros(n_modes(L))
        f[mode_index(L, cfg["forcing.mode_l"], cfg["forcing.mode_m"])] = cfg["forcing.amplitude"]
        params["g" if tag == "constant_field" else "v"] = f
    elif tag in ("f4_plus", "f4_minus"):
        p = np.asarray(cfg["forcing.point"], dtype=float)
        if grid.kind == "sphere":
            p = p / np.linalg.norm(p) * grid.R
        params["p"] = p
    elif tag == "constant_killing":
        params["c"] = cfg["forcing.c"]
        params["axis"] = cfg["forcing.axis"]
    return make_catalog_forcing(tag, params, basis)


def build_initial_state(cfg, form, seed=None):
    L = cfg["geometry.L"]
    kind = cfg["init.kind"]
    if kind == "zero":
        return SpectralState(L)
    if kind == "modes":
        s = SpectralState(L)
        for l, m, amp in cfg["init.modes"]:
            s.set(l, m, amp)
        return s
    l_max = cfg["init.l_max"] or None
    return random_band_limited(
        form.transform, cfg["seed"] if seed is None else seed, l_max=l_max,
        norm_killing=cfg["init.norm_killing"],
        norm_nonkilling=cfg["init.norm_nonkilling"])


def build_context(cfg):
    grid = build_grid(cfg)
    basis = killing_basis(grid)
    ctx = RunContext(cfg, grid, basis)
    if grid.kind == "sphere":
        ctx.form = assemble_stokes(grid, build_viscosity(cfg, grid), cfg["geometry.L"])
        ctx.fspec = build_forcing(cfg, grid, basis)
        ctx.u0 = build_initial_state(cfg, ctx.form)
    return ctx


def stepper_config(cfg):
    return StepperConfig(scheme=cfg["run.scheme"], dt=cfg["run.dt"],
                         t_end=cfg["run.t_end"], stride=cfg["run.stride"])


# ---------------------------------------------------------------------------
# CSV and report output

# the record's scalar fields in their order; the CSV spells ``lam`` out
CSV_COLUMNS = tuple("lambda" if name == "lam" else name for name in SCALAR_FIELDS)


def format_table(columns, table, footer=""):
    """CSV text of the 2-d float ``table`` under the header ``columns``, each
    value in "%.17g", then the ``footer`` line if one is given."""
    out = io.StringIO()
    np.savetxt(out, table, fmt="%.17g", delimiter=",", header=",".join(columns),
               footer=footer, comments="")
    return out.getvalue()


def records_to_csv(records, n_alpha):
    """One CSV row per record: its scalar fields, then its n_alpha Killing coordinates."""
    if records["alpha"].shape[1] != n_alpha:
        raise ParameterError(f"records carry {records['alpha'].shape[1]} Killing "
                             f"coordinates, not {n_alpha}")
    columns = CSV_COLUMNS + tuple(f"alpha_{j + 1}" for j in range(n_alpha))
    table = np.column_stack([records[name] for name in SCALAR_FIELDS] + [records["alpha"]])
    return format_table(columns, table)


def write_csv(path, records, n_alpha):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(records_to_csv(records, n_alpha))


# ---------------------------------------------------------------------------
# checkpoint format

_MAGIC = b"SNSK"
_VERSION = 1
_KIND_CODE = {"sphere": 0, "torus": 1}
_KIND_NAME = {v: k for k, v in _KIND_CODE.items()}
_HEADER = struct.Struct("<4sIBIdddI")


@dataclass
class CheckpointMeta:
    kind: str
    L: int
    R: float
    r: float
    time: float


def save_checkpoint(state, grid, path):
    """Serialize a SpectralState on ``grid`` with header and trailing CRC32.

    The payload is one (cos, sin) pair per (l, m), m = 0..l: the flat
    coefficient layout with a zero sine after each (l, 0).
    """
    if not (np.isfinite(state.t) and np.isfinite(state.coeffs).all()):
        raise ParameterError(f"cannot checkpoint a non-finite state (t = {state.t})")
    L = state.L
    pairs = np.insert(state.coeffs, np.arange(1, L + 1) ** 2, 0.0)
    head = _HEADER.pack(_MAGIC, _VERSION, _KIND_CODE[grid.kind], L,
                        grid.R, grid.r, state.t, pairs.size // 2)
    payload = pairs.astype("<f8").tobytes()
    crc = zlib.crc32(head + payload) & 0xFFFFFFFF
    with open(path, "wb") as fh:
        fh.write(head + payload + struct.pack("<I", crc))


def load_checkpoint(path):
    """Read a checkpoint; returns (CheckpointMeta, SpectralState).

    Only the coefficients and the time are stored: a run resumed from the
    state starts a new energy ledger and re-runs its bootstrap step.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from None
    if len(blob) < _HEADER.size + 4:
        raise CheckpointError("truncated checkpoint: missing header")
    head = blob[:_HEADER.size]
    magic, version, kind_code, L, R, r, t, n_pairs = _HEADER.unpack(head)
    if magic != _MAGIC:
        raise CheckpointError("bad magic: not a checkpoint file")
    if version != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    want = _HEADER.size + 16 * n_pairs + 4
    if len(blob) != want:
        raise CheckpointError(
            f"truncated checkpoint: {len(blob)} bytes, expected {want}")
    stored_crc = struct.unpack("<I", blob[-4:])[0]
    crc = zlib.crc32(blob[:-4]) & 0xFFFFFFFF
    if crc != stored_crc:
        raise CheckpointError("checksum mismatch: corrupt checkpoint")
    if kind_code not in _KIND_NAME:
        raise CheckpointError(f"unknown geometry code {kind_code}")
    if L < 1 or n_pairs != L * (L + 3) // 2:
        raise CheckpointError(
            f"inconsistent header: {n_pairs} coefficient pairs for L={L}")
    if not (np.isfinite(R) and R > 0 and np.isfinite(r) and r >= 0):
        raise CheckpointError(f"invalid radii in header: R={R}, r={r}")
    vals = np.frombuffer(blob[_HEADER.size:-4], dtype="<f8")
    if not (np.isfinite(t) and np.isfinite(vals).all()):
        raise CheckpointError(f"non-finite checkpoint: t={t}, "
                              f"{np.count_nonzero(~np.isfinite(vals))} non-finite coefficients")
    l = np.arange(1, L + 1)
    state = SpectralState(L, np.delete(vals, l * (l + 1) - 1), t=t)
    meta = CheckpointMeta(_KIND_NAME[kind_code], L, R, r, t)
    return meta, state


# ---------------------------------------------------------------------------
# checks, reports, scenarios

@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    expected: str
    tol: float
    detail: str = ""


@dataclass
class RunReport:
    scenario: str
    checks: list
    wall_time: float
    config_hash: str
    version: str = __version__

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {
            "scenario": self.scenario,
            "passed": self.passed,
            "wall_time_s": self.wall_time,
            "config_hash": self.config_hash,
            "version": self.version,
            "checks": [{
                "name": c.name, "passed": bool(c.passed),
                "measured": float(c.measured), "expected": c.expected,
                "tol": float(c.tol), "detail": c.detail,
            } for c in self.checks],
        }

    def render(self):
        lines = [f"scenario {self.scenario}: "
                 f"{'PASS' if self.passed else 'FAIL'} "
                 f"({self.wall_time:.2f}s, config {self.config_hash})"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"  [{status}] {c.name}: measured {c.measured:.6g} "
                         f"(expected {c.expected}, tol {c.tol:g})"
                         + (f" -- {c.detail}" if c.detail else ""))
        return "\n".join(lines)


@dataclass
class Scenario:
    """A reproducible run with claims and pinned checks.

    ``claims`` states the quantitative law the scenario probes; ``kind`` is
    one of static, single, pair, gaps, ensemble.
    """
    name: str
    claims: str
    kind: str
    config: dict
    checks: list          # callables ctx -> CheckResult (or list thereof)


# ---------------------------------------------------------------------------
# ensembles

AGGREGATE_FIELDS = ("norm_u", "norm_uK", "norm_uNK", "energy",
                    "dissipation", "work")


@dataclass
class EnsembleResult:
    """Per-member diagnostics plus max/min/mean of each scalar per sample.

    ``members`` holds the index of each completed member, in the order of
    ``member_records``; the diverged indices are in ``diverged``.
    """
    members: list
    member_records: list
    times: np.ndarray
    aggregates: dict            # field -> {"max": ..., "min": ..., "mean": ...}
    omega_hat: float
    entry_time: float
    entry_radius: float
    entry_time_r: float
    entry_radius_r: float
    diverged: list


def member_seed(base_seed, k):
    """Deterministic per-member seed derivation."""
    return int(base_seed) + 1000003 * (k + 1)


def run_ensemble(cfg, ctx=None):
    """Integrate ``ensemble.members`` independent members as one batch and aggregate diagnostics.

    A diverged member is frozen and reported by index while the others
    continue; aggregation covers the completed members.
    """
    ctx = ctx if ctx is not None else build_context(cfg)
    n = cfg["ensemble.members"]
    if n < 2:
        raise ParameterError("an ensemble needs at least 2 members")
    if ctx.form is None:
        raise ConfigError("config error at 'geometry.kind': time evolution is sphere-only")
    check_batch(stepper_config(cfg), ctx.form, n, ctx.basis.n)     # before any member state
    states = [build_initial_state(cfg, ctx.form, seed=member_seed(cfg["seed"], k))
              for k in range(n)]
    trajectories, diverged = run_batch(stepper_config(cfg), ctx.grid, ctx.form,
                                       ctx.fspec, states)
    members = [k for k in range(n) if k not in diverged]
    member_records = [trajectories[k][1] for k in members]
    if not member_records:
        raise DivergenceError("all ensemble members diverged")
    times = member_records[0].t
    stack = np.stack(member_records)
    aggregates = {}
    for name in AGGREGATE_FIELDS:
        vals = stack[name]
        aggregates[name] = {"max": vals.max(axis=0), "min": vals.min(axis=0),
                            "mean": vals.mean(axis=0)}
    nk_max = aggregates["norm_uNK"]["max"]
    omega_hat = fit_decay_rate(times, nk_max ** 2)[1] if times.size >= 10 else 0.0

    r_max = float(aggregates["norm_uK"]["max"][0])
    radius = float(np.sqrt(0.5 + omega_hat))
    radius_r = float(np.sqrt(0.5 + omega_hat * (1.0 + r_max ** 2)))

    def first_entry(radius_val):
        hit = np.where(nk_max <= radius_val)[0]
        return float(times[hit[0]]) if hit.size else float("inf")

    return EnsembleResult(members, member_records, times, aggregates,
                          float(omega_hat), first_entry(radius), radius,
                          first_entry(radius_r), radius_r, sorted(diverged))


def write_ensemble(out_dir, name, ens, n_alpha):
    """Write each member's ``<name>_memberKK.csv`` and the aggregate
    ``<name>_ensemble.csv`` into the existing directory ``out_dir``."""
    for k, recs in zip(ens.members, ens.member_records):
        write_csv(os.path.join(out_dir, f"{name}_member{k:02d}.csv"), recs, n_alpha)
    stats = [(f, s) for f in AGGREGATE_FIELDS for s in ("max", "min", "mean")]
    table = np.column_stack([ens.times] + [ens.aggregates[f][s] for f, s in stats])
    meta = (f"# omega_hat = {ens.omega_hat:.17g}, "
            f"entry_time = {ens.entry_time:.17g} at radius {ens.entry_radius:.17g}, "
            f"entry_time_r = {ens.entry_time_r:.17g} at radius {ens.entry_radius_r:.17g}")
    with open(os.path.join(out_dir, f"{name}_ensemble.csv"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(format_table(["t"] + [f"{f}_{s}" for f, s in stats], table, meta))


# ---------------------------------------------------------------------------
# scenario execution

def execute_scenario(scenario, out_dir=None, seed=None, quiet=False):
    """Run a scenario end to end: integrate, check, write CSV and report."""
    cfg = dict(scenario.config)
    if seed is not None:
        cfg["seed"] = int(seed)
    if out_dir is not None:     # before any work, so a bad --out fails at once
        os.makedirs(out_dir, exist_ok=True)
    t0 = time.time()
    ctx = build_context(cfg)

    if scenario.kind != "static" and ctx.form is None:
        raise ConfigError(
            "config error at 'geometry.kind': time evolution is sphere-only")
    if scenario.kind == "single":
        scfg = stepper_config(cfg)
        ctx.samples, ctx.records = run(
            scfg, ctx.grid, ctx.form, ctx.fspec, ctx.u0)
    elif scenario.kind in ("pair", "gaps"):
        _run_offsets(cfg, ctx, scenario.kind)
    elif scenario.kind == "ensemble":
        ctx.ensemble = run_ensemble(cfg, ctx=ctx)
    elif scenario.kind != "static":
        raise ParameterError(f"unknown scenario kind {scenario.kind!r}")

    checks = []
    for fn in scenario.checks:
        out = fn(ctx)
        checks.extend(out if isinstance(out, list) else [out])
    report = RunReport(scenario.name, checks, time.time() - t0, config_hash(cfg))

    if out_dir is not None:
        n_alpha = ctx.basis.n
        if ctx.records is not None:
            write_csv(os.path.join(out_dir, f"{scenario.name}.csv"),
                      ctx.records, n_alpha)
        for label, (samples, records) in ctx.pair.items():
            write_csv(os.path.join(out_dir, f"{scenario.name}_{label}.csv"),
                      records, n_alpha)
        if ctx.ensemble is not None:
            write_ensemble(out_dir, scenario.name, ctx.ensemble, n_alpha)
        with open(os.path.join(out_dir, f"{scenario.name}_report.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if not quiet:
        print(report.render())
    return report


def _run_offsets(cfg, ctx, kind):
    """Integrate u0 and u0 + gap_i * pert, pert a seeded unit-norm random
    state, as one batch.

    A pair takes the first gap (default 1e-3) and labels its rows a and b;
    a gap family needs at least two gaps and labels its rows base and
    gap{i}.  Divergence of any row raises.
    """
    gaps = cfg["pair.gaps"]
    if kind == "pair":
        gaps, labels = (gaps or (1e-3,))[:1], ("a", "b")
    else:
        if len(gaps) < 2:
            raise ConfigError("config error at 'pair.gaps': need at least two gaps")
        labels = ("base",) + tuple(f"gap{i}" for i in range(len(gaps)))
    pert = random_band_limited(
        ctx.form.transform, cfg["seed"] + cfg["pair.seed_offset"],
        l_max=cfg["init.l_max"] or None,
        norm_killing=0.0 if cfg["pair.killing_free"] else None).coeffs
    pert /= np.linalg.norm(pert)
    u0 = ctx.u0
    states = [u0] + [SpectralState(u0.L, u0.coeffs + gap * pert, u0.t) for gap in gaps]
    trajectories, diverged = run_batch(stepper_config(cfg), ctx.grid, ctx.form,
                                       ctx.fspec, states)
    if diverged:
        raise diverged[min(diverged)]
    ctx.pair.update(zip(labels, trajectories))
