"""Per-layer tracing of surfns from outside the package.

``install`` wraps the public functions of each surfns module (one module is
one layer) at every binding of the wrapped object: the package imports with
``from .x import y``, so e.g. ``convective_term`` is bound in operators,
timestepper and the package namespace, and each binding gets the wrapper.
Every wrapped call records one span (name, start, end, parent, run id, L)
in compact in-memory arrays; ``summarize`` turns the spans into the per-layer
metrics once the workload has finished.

A layer's calls and time count only spans at the layer boundary: a span of
a group whose nearest traced ancestor is not in the same group.  Self time
is a span's duration minus the durations of its direct child spans.
"""

import importlib
import inspect
import sys
import time
import weakref
from array import array

import numpy as np

# (span name, module, attribute) for module-level functions
FUNCTIONS = [
    ("geometry.build_sphere_grid", "geometry", "build_sphere_grid"),
    ("geometry.l2_inner", "geometry", "l2_inner"),
    ("geometry.h1_norm", "geometry", "h1_norm"),
    ("geometry.strain_norm", "geometry", "strain_norm"),
    ("geometry.covariant_derivative", "geometry", "covariant_derivative"),
    ("operators.assemble_stokes", "operators", "assemble_stokes"),
    ("operators.convective_term", "operators", "convective_term"),
    ("forcing.apply_forcing", "forcing", "apply_forcing"),
    ("timestepper.step_imex", "timestepper", "step_imex"),
    ("timestepper.step_rk4", "timestepper", "step_rk4"),
    ("timestepper.run", "timestepper", "run"),
    ("diagnostics.record", "diagnostics", "record"),
    ("diagnostics.fit_decay_rate", "diagnostics", "fit_decay_rate"),
    ("diagnostics.check_killing_identity", "diagnostics", "check_killing_identity"),
    ("diagnostics.check_monotonicity", "diagnostics", "check_monotonicity"),
    ("diagnostics.continuous_dependence_ratio", "diagnostics",
     "continuous_dependence_ratio"),
    ("diagnostics.lambda_series", "diagnostics", "lambda_series"),
    ("killing.korn_constant", "killing", "korn_constant"),
    ("killing.killing_basis", "killing", "killing_basis"),
    ("harness.build_context", "harness", "build_context"),
    ("harness.run_ensemble", "harness", "run_ensemble"),
    ("harness.write_csv", "harness", "write_csv"),
    ("cli.main", "cli", "main"),
]

# (span name, module, class, method)
METHODS = [
    ("harmonics.SphereTransform.__init__", "harmonics", "SphereTransform", "__init__"),
    ("harmonics.synthesize", "harmonics", "SphereTransform", "synthesize"),
    ("harmonics.analyze", "harmonics", "SphereTransform", "analyze"),
    ("operators.rho_explicit", "operators", "StokesForm", "rho_explicit"),
    ("operators.rho_full", "operators", "StokesForm", "rho_full"),
]

CHECK_SPAN = "scenarios.check"

# per-layer metric -> span names it aggregates
GROUPS = {
    "geometry.build_sphere_grid": ["geometry.build_sphere_grid"],
    "geometry.quadrature": ["geometry.l2_inner", "geometry.h1_norm",
                            "geometry.strain_norm", "geometry.covariant_derivative"],
    "harmonics.get_transform": ["harmonics.SphereTransform.__init__"],
    "harmonics.synthesize": ["harmonics.synthesize"],
    "harmonics.analyze": ["harmonics.analyze"],
    "operators.assemble_stokes": ["operators.assemble_stokes"],
    "operators.spectral_radius": ["operators.rho_explicit", "operators.rho_full"],
    "operators.convective_term": ["operators.convective_term"],
    "forcing.apply": ["forcing.apply_forcing"],
    "timestepper.step": ["timestepper.step_imex", "timestepper.step_rk4"],
    "timestepper.run": ["timestepper.run"],
    "diagnostics.record": ["diagnostics.record"],
    "diagnostics.analysis": ["diagnostics.fit_decay_rate",
                             "diagnostics.check_killing_identity",
                             "diagnostics.check_monotonicity",
                             "diagnostics.continuous_dependence_ratio",
                             "diagnostics.lambda_series"],
    "killing.korn_constant": ["killing.korn_constant"],
    "killing.killing_basis": ["killing.killing_basis"],
    "harness.build_context": ["harness.build_context"],
    "harness.run_ensemble": ["harness.run_ensemble"],
    "harness.write_csv": ["harness.write_csv"],
    "scenarios.checks": [CHECK_SPAN],
    "cli.main": ["cli.main"],
}

# spans broken down by truncation degree L
BY_L = {
    "operators.convective_term": ["operators.convective_term"],
    "harmonics.synthesize": ["harmonics.synthesize"],
    "harmonics.analyze": ["harmonics.analyze"],
    "timestepper.step_imex": ["timestepper.step_imex"],
    "timestepper.step_rk4": ["timestepper.step_rk4"],
}


def _L_getter(fn):
    """How to read a call's truncation degree: the parameter named ``L``,
    else the first argument with an int ``L`` attribute, else a sphere
    config dict's geometry.L; -1 when there is none."""
    params = list(inspect.signature(fn).parameters)
    pos = params.index("L") if "L" in params else None

    def get(args, kwargs):
        if pos is not None:
            L = kwargs.get("L", args[pos] if pos < len(args) else None)
            return L if isinstance(L, int) else -1
        for a in args:
            L = getattr(a, "L", None)
            if isinstance(L, int):
                return L
            if isinstance(a, dict) and a.get("geometry.kind") == "sphere":
                return int(a.get("geometry.L", -1))
        return -1
    return get


def table_bytes(transform):
    """(label, nbytes of every ndarray attribute) of a transform.  The label
    is its L, with the grid's degree appended when the grid is sized for
    another truncation (Korn solves lower L on the caller's grid)."""
    nbytes = sum(v.nbytes for v in vars(transform).values()
                 if isinstance(v, np.ndarray))
    L, grid_deg = transform.L, transform.grid.max_degree
    own = grid_deg == -(-3 * L // 2)
    return (str(L) if own else f"{L}@grid{grid_deg}"), nbytes


class Tracer:
    """In-memory span store; one instance per traced process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("h")
        self.L = array("h")
        self._stack = []
        self.run_id = 0
        self.spectral_states = 0
        self.transforms = []        # (L label, table bytes) per transform
        self._live = weakref.WeakSet()
        self._unaccounted = set()   # ids of live transforms
        self.bindings = {}          # span name -> bindings wrapped

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        nid = self._id(name)
        stack = self._stack
        clock = time.perf_counter
        tr = self
        span_L = _L_getter(fn)

        def traced(*args, **kwargs):
            idx = len(tr.start)
            tr.name_id.append(nid)
            tr.parent.append(stack[-1] if stack else -1)
            tr.run.append(tr.run_id)
            tr.L.append(span_L(args, kwargs))
            tr.end.append(0.0)
            stack.append(idx)
            tr.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tr.end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every traced name at every binding in the loaded package."""
        from surfns import harmonics, scenarios
        for mod in {m for _, m, *_ in FUNCTIONS + METHODS}:
            importlib.import_module(f"surfns.{mod}")
        mods = [m for n, m in list(sys.modules.items())
                if n == "surfns" or n.startswith("surfns.")]
        for name, mod, attr in FUNCTIONS:
            orig = getattr(sys.modules[f"surfns.{mod}"], attr)
            wrapped = self.wrap(name, orig)
            n = 0
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
                        n += 1
            self.bindings[name] = n
        for name, mod, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"surfns.{mod}"], cls_name)
            setattr(cls, meth, self.wrap(name, cls.__dict__[meth]))
            self.bindings[name] = 1

        tracer = self
        state_init = harmonics.SpectralState.__init__

        def counted_init(obj, *args, **kwargs):
            tracer.spectral_states += 1
            state_init(obj, *args, **kwargs)
        harmonics.SpectralState.__init__ = counted_init

        tf_init = harmonics.SphereTransform.__init__

        def registered_init(obj, *args, **kwargs):
            tf_init(obj, *args, **kwargs)
            tracer._live.add(obj)
            tracer._unaccounted.add(id(obj))

        def on_del(obj):
            # a transform's tables are complete when it dies (the gradient
            # table is built lazily); cyclic garbage loses its weak
            # references before this runs, hence the id set
            if id(obj) in tracer._unaccounted:
                tracer._unaccounted.discard(id(obj))
                tracer.transforms.append(table_bytes(obj))
        harmonics.SphereTransform.__init__ = registered_init
        harmonics.SphereTransform.__del__ = on_del

        # scenario checks live in the registry's lists, not in module names
        for sc_name, _ in scenarios.list_scenarios():
            sc = scenarios.get_scenario(sc_name)
            sc.checks[:] = [self.wrap(CHECK_SPAN, fn) for fn in sc.checks]
        self.bindings[CHECK_SPAN] = sum(
            len(scenarios.get_scenario(n).checks)
            for n, _ in scenarios.list_scenarios())

    def finish(self):
        """Account the table bytes of transforms that are still alive and
        stop accounting later deletions."""
        from surfns import harmonics
        for obj in list(self._live):
            if id(obj) in self._unaccounted:
                self.transforms.append(table_bytes(obj))
        self._unaccounted.clear()
        del harmonics.SphereTransform.__del__

    # -- analysis -----------------------------------------------------------

    def arrays(self):
        return {
            "names": list(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int16).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run_id": np.frombuffer(self.run, dtype=np.int16).copy(),
            "L": np.frombuffer(self.L, dtype=np.int16).copy(),
        }


def summarize(sp, spectral_states, transforms):
    """Per-layer metrics, per-L breakdown and raw counts from span arrays."""
    names = sp["names"]
    nid = sp["name_id"].astype(np.int64)
    parent = sp["parent"]
    dur = sp["end"] - sp["start"]
    n = nid.size
    bit = np.left_shift(np.int64(1), nid)
    # mask[i]: bits of the names of span i and all its ancestors
    mk, bl = [0] * n, bit.tolist()
    for i, p in enumerate(parent.tolist()):
        mk[i] = bl[i] | (mk[p] if p >= 0 else 0)
    mask = np.array(mk, dtype=np.int64)
    anc = np.where(parent >= 0, mask[np.maximum(parent, 0)], 0)
    child_sum = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child_sum, parent[has_parent], dur[has_parent])
    self_t = dur - child_sum

    def bits(span_names):
        b = 0
        for s in span_names:
            if s in names:
                b |= 1 << names.index(s)
        return np.int64(b)

    def boundary(group_bits):
        return ((bit & group_bits) != 0) & ((anc & group_bits) == 0)

    m = {}
    for group, span_names in GROUPS.items():
        sel = boundary(bits(span_names))
        m[f"{group}.calls"] = int(sel.sum())
        m[f"{group}.s"] = float(dur[sel].sum())
        m[f"{group}.self_s"] = float(self_t[(bit & bits(span_names)) != 0].sum())

    step_bits = bits(GROUPS["timestepper.step"])
    conv = (bit & bits(["operators.convective_term"])) != 0
    rhs = int((conv & ((anc & step_bits) != 0)).sum())
    m["timestepper.rhs_evals"] = rhs
    m["timestepper.steps"] = m["timestepper.step.calls"]
    m["forcing.calls_per_rhs"] = (m["forcing.apply.calls"] / rhs) if rhs else 0.0
    m["harmonics.spectral_states"] = int(spectral_states)
    m["harmonics.get_transform.builds"] = m.pop("harmonics.get_transform.calls")
    m["harmonics.transforms_accounted"] = len(transforms)
    m["harmonics.table_bytes"] = int(sum(b for _, b in transforms))
    run_s = m["timestepper.run.s"]
    m["timestepper.steps_per_s"] = m["timestepper.steps"] / run_s if run_s else 0.0

    by_L = {}
    for label, span_names in BY_L.items():
        sel = (bit & bits(span_names)) != 0
        rows = {}
        for L in sorted(set(sp["L"][sel].tolist())):
            d = dur[sel & (sp["L"] == L)]
            rows[str(L)] = {"calls": int(d.size),
                            "median_ms": float(np.median(d) * 1e3),
                            "mean_ms": float(d.mean() * 1e3)}
        by_L[label] = rows
    tb = {}
    for label, b in transforms:
        tb[label] = max(tb.get(label, 0), int(b))
    by_L["harmonics.table_bytes"] = tb
    return m, by_L


def fit_exponent(by_L_list, label, key="median_ms", min_L=8):
    """Least-squares exponent p of value ~ L^p over degrees L >= min_L.

    ``by_L_list`` holds breakdowns from one or more traced runs; for each L
    the value of the run with the most calls at that L is used.
    """
    best = {}
    for by_L in by_L_list:
        for L, row in by_L.get(label, {}).items():
            if not L.isdigit() or int(L) < min_L:
                continue
            L = int(L)
            calls = row.get("calls", 1) if isinstance(row, dict) else 1
            val = row[key] if isinstance(row, dict) else row
            if L not in best or calls > best[L][0]:
                best[L] = (calls, float(val))
    if len(best) < 2:
        return None, sorted(best)
    Ls = np.array(sorted(best), dtype=float)
    vals = np.array([best[int(L)][1] for L in Ls])
    p = np.polyfit(np.log(Ls), np.log(vals), 1)[0]
    return float(p), [int(L) for L in Ls]
