"""Per-layer tracing installed from outside the package.

Every public function listed in TARGETS is replaced by a wrapper: on
its class, or in its module and in every other knotss module namespace
that bound the same object with `from .x import name`, so calls made
inside the package are caught too.

Coarse functions record one span each (name, start, end, parent span,
run id), kept in memory and written out at the end.  Hot functions,
called up to millions of times, record no span: their call count and
time are added to the nearest enclosing span instead.  Self time is a
call's duration minus the time its traced children cover.
"""

import importlib
import json
import statistics
import time
from fractions import Fraction

# (module, qualified name, hot).  A bare class name means its constructor.
TARGETS = [
    ("fields", "Field.of", True),
    ("confcoh", "straighten", True),
    ("confcoh", "coface_pullback", False),
    ("confcoh", "normal_form", False),
    ("hochschild", "conf_delta_matrix", False),
    ("hochschild", "normalized_slot", False),
    ("hochschild", "build_sinha_complex", False),
    ("linalg", "Matrix", False),
    ("linalg", "Matrix.mul_vector", True),
    ("linalg", "Matrix.mul_matrix", False),
    ("linalg", "kernel_basis", False),
    ("linalg", "rank", False),
    ("linalg", "solve", False),
    ("linalg", "Eliminator.add", True),
    ("linalg", "Subspace", False),
    ("linalg", "subquotient", False),
    ("linalg", "induced_map", False),
    ("spectral", "ss_pages", False),
    ("spectral", "total_homology_graded", False),
    ("spectral", "einf_dims", False),
    ("geometry", "attack_term", False),
    ("geometry", "tube_dist2", True),
    ("geometry", "project_mean", False),
    ("geometry", "e_embed", False),
    ("geometry", "anchor_centers", False),
    ("geometry", "in_E", False),
    ("geometry", "check_lemma", False),
    ("chainledger", "MapExpr.evaluate", False),
    ("chainledger", "Poly.evaluate", True),
    ("chainledger", "boundary_D", False),
    ("chainledger", "apply_facts", False),
    ("chainledger", "apply_delta", False),
    ("chainledger", "ZeroFacts.match", False),
    ("cases", "run_case", False),
    ("partgraph", "Partition.pieces", True),
    ("partgraph", "delta_graph", False),
    ("partgraph", "verify_commutation", False),
    ("operads", "d_squared_report", False),
    ("cli", "main", False),
]

MODULES = ("fields", "confcoh", "hochschild", "linalg", "spectral",
           "geometry", "chainledger", "cases", "partgraph", "operads", "cli")

# Derived counts: (name, unit, better).
EXTRA_METRICS = [
    ("linalg.Matrix.mul_vector.entries_scanned", "count", "lower"),
    ("linalg.Matrix.mul_vector.useful_ratio", "ratio", "higher"),
    ("linalg.Matrix.entries_coerced", "count", "lower"),
    ("hochschild.D.dim", "count", "lower"),
    ("hochschild.D.nonzero_ratio", "ratio", "higher"),
    ("geometry.restarts", "count", "higher"),
    ("geometry.witnesses", "count", "lower"),
    ("geometry.min_best_over_eps2", "ratio", "higher"),
    ("geometry.attack_term.p50_s", "s", "lower"),
    ("geometry.attack_term.p80_s", "s", "lower"),
    ("chainledger.ZeroFacts.match.hit_ratio", "ratio", "higher"),
]

# Counted by run.py: source lines of each module, as `wc -l` does.
SRC_LINE_MODULES = ("__init__",) + MODULES
RUN_METRICS = [("src_lines.%s" % m, "lines", "lower") for m in SRC_LINE_MODULES]
RUN_METRICS += [("src_lines.total", "lines", "lower"),
                ("trace.overhead_ratio", "ratio", "lower"),
                ("trace.coverage_ratio", "ratio", "higher")]

SPAN_CAP = 250_000


def metric_specs():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for module, qual, _ in TARGETS:
        out.append(("%s.%s.calls" % (module, qual), "count", "lower"))
        out.append(("%s.%s.self_s" % (module, qual), "s", "lower"))
    return out + EXTRA_METRICS + RUN_METRICS


class Tracer:
    """Owns the wrappers, the span list and the counters of one run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.stats = {}   # name -> [calls, self seconds]
        self.spans = []   # (name index, start, end, parent index, hot aggregates)
        self.dropped = 0
        self.hook_s = 0.0
        # A frame is [child seconds, hot aggregates, span index].
        self.root = [0.0, {}, -1]
        self.stack = [self.root]
        self.counts = {"entries_scanned": 0, "useful": 0, "entries_coerced": 0,
                       "match_hits": 0, "restarts": 0, "witnesses": 0}
        self.d_shape = (0, 0)   # (dim, nonzero ratio) of the last Sinha D
        self.attack_s = []
        self.best_over_eps2 = []
        self._restore = []

    # -- wrappers ---------------------------------------------------------

    def _hot(self, name, fn, hook):
        stat = self.stats[name] = [0, 0.0]
        stack, clock = self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1], -1]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt - frame[0]
                parent[0] += dt
                agg = parent[1].get(name)
                if agg is None:
                    parent[1][name] = [1, dt]
                else:
                    agg[0] += 1
                    agg[1] += dt
            if hook is not None:
                self._run_hook(parent, hook, args, kwargs, result, dt)
            return result

        return wrapper

    def _coarse(self, name, fn, hook):
        stat = self.stats[name] = [0, 0.0]
        index = self.names.index(name)
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if len(spans) < SPAN_CAP:
                idx = len(spans)
                spans.append(None)
            else:
                idx = -1
            frame = [0.0, {}, idx]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                stat[0] += 1
                stat[1] += dt - frame[0]
                parent[0] += dt
                if idx >= 0:
                    spans[idx] = (index, t0, t1, parent[2], frame[1] or None)
                else:
                    self.dropped += 1
            if hook is not None:
                self._run_hook(parent, hook, args, kwargs, result, dt)
            return result

        return wrapper

    def _run_hook(self, parent, hook, args, kwargs, result, dt):
        # Counting is tracer work: keep it out of every layer's self time.
        t0 = time.perf_counter()
        hook(args, kwargs, result, dt)
        spent = time.perf_counter() - t0
        parent[0] += spent
        self.hook_s += spent

    # -- counters computed at the layer boundary ----------------------------

    def _hooks(self):
        c = self.counts

        def mul_vector(args, kwargs, result, dt):
            M, v = args[0], args[1]
            c["entries_scanned"] += M.nrows * M.ncols
            nz = [j for j, x in enumerate(v) if x]
            c["useful"] += sum(1 for row in M.rows for j in nz if row[j])

        def matrix_init(args, kwargs, result, dt):
            coerce = args[3] if len(args) > 3 else kwargs.get("coerce", True)
            if coerce:
                c["entries_coerced"] += args[0].nrows * args[0].ncols

        def sinha(args, kwargs, result, dt):
            D = result.D
            nonzero = sum(1 for row in D.rows for x in row if x)
            self.d_shape = (D.nrows, nonzero / (D.nrows * D.ncols or 1))

        def attack(args, kwargs, result, dt):
            c["restarts"] += result["restarts"]
            c["witnesses"] += result["witness"] is not None
            self.attack_s.append(dt)
            if result["best_dist2"] != "None":
                self.best_over_eps2.append(Fraction(result["best_dist2"])
                                           / Fraction(result["eps2"]))

        def match(args, kwargs, result, dt):
            c["match_hits"] += result is not None

        return {"linalg.Matrix.mul_vector": mul_vector,
                "linalg.Matrix": matrix_init,
                "hochschild.build_sinha_complex": sinha,
                "geometry.attack_term": attack,
                "chainledger.ZeroFacts.match": match}

    # -- installation -----------------------------------------------------

    def install(self):
        modules = {m: importlib.import_module("knotss." + m) for m in MODULES}
        hooks = self._hooks()
        for module, qual, hot in TARGETS:
            name = "%s.%s" % (module, qual)
            mod = modules[module]
            owner, attr = mod, qual
            if "." in qual:
                cls, attr = qual.split(".")
                owner = getattr(mod, cls)
            elif qual[0].isupper():
                owner, attr = getattr(mod, qual), "__init__"
            original = vars(owner)[attr]
            self.names.append(name)
            make = self._hot if hot else self._coarse
            wrapped = make(name, original, hooks.get(name))
            bindings = [owner] if owner is not mod else [
                m for m in modules.values() if vars(m).get(attr) is original]
            for target in bindings:
                setattr(target, attr, wrapped)
                self._restore.append((target, attr, original))

    def uninstall(self):
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore = []

    # -- results ------------------------------------------------------------

    def metrics(self, wall_s):
        """Per-layer values measured in this process."""
        out = {}
        for name in self.names:
            calls, self_s = self.stats[name]
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_s
        c = self.counts
        scanned = c["entries_scanned"]
        out["linalg.Matrix.mul_vector.entries_scanned"] = scanned
        out["linalg.Matrix.mul_vector.useful_ratio"] = (
            c["useful"] / scanned if scanned else 0)
        out["linalg.Matrix.entries_coerced"] = c["entries_coerced"]
        out["hochschild.D.dim"], out["hochschild.D.nonzero_ratio"] = self.d_shape
        out["geometry.restarts"] = c["restarts"]
        out["geometry.witnesses"] = c["witnesses"]
        out["geometry.min_best_over_eps2"] = (
            float(min(self.best_over_eps2)) if self.best_over_eps2 else 0)
        durations = self.attack_s
        out["geometry.attack_term.p50_s"] = (
            statistics.median(durations) if durations else 0)
        out["geometry.attack_term.p80_s"] = (
            statistics.quantiles(durations, n=5, method="inclusive")[3]
            if len(durations) > 1 else sum(durations))
        matches = self.stats["chainledger.ZeroFacts.match"][0]
        out["chainledger.ZeroFacts.match.hit_ratio"] = (
            c["match_hits"] / matches if matches else 0)
        covered = self.root[0] - self.hook_s
        out["trace.coverage_ratio"] = covered / (wall_s - self.hook_s)
        return out

    def write_spans(self, path):
        """Write the spans as JSON: a name table and one row per span."""
        doc = {"run_id": self.run_id, "names": self.names,
               "columns": ["name", "start", "end", "parent", "hot"],
               "dropped": self.dropped, "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
