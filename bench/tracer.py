"""Per-layer tracing from outside the program.

`Tracer.install(dc)` replaces each public function of a layer module with a
timing wrapper at every place a caller looks it up: module globals (so
`comparison.build_tower` and `towers.build_tower` get separate wrappers, each
tagged with the calling module) and class attributes (methods are looked up
on the class).  `ExactScalar` gets counting wrappers instead of spans,
because its methods run millions of times per op.  `uninstall` puts every
original back, so traced and untraced ops can alternate in one process.

Spans live in memory as (name, start, end, parent, op) plus self time, and
`write` dumps them when the run ends.
"""

import gzip
import inspect
import os
import time
from collections import defaultdict

# Spanned modules.  systems and errors have no layer: their cost counts
# toward whichever layer called them.  scalars is counted, not spanned.
SPANNED = ("regions", "plfun", "towers", "smallness", "comparison", "specfile",
           "certfile", "cli")
LAYER = {"specfile": "io", "certfile": "io"}  # other modules are their own layer
# Modules whose globals hold the references callers use.
SITES = ("dyncomp", "dyncomp.cli", "dyncomp.comparison", "dyncomp.smallness",
         "dyncomp.towers", "dyncomp.plfun", "dyncomp.regions", "dyncomp.specfile",
         "dyncomp.certfile")

SCALAR_KINDS = {
    "__init__": "new",
    "__lt__": "cmp",
    "__add__": "arith", "__radd__": "arith", "__sub__": "arith", "__rsub__": "arith",
    "__mul__": "arith", "__rmul__": "arith", "__truediv__": "arith", "__rtruediv__": "arith",
}

# Spans whose time re-checks work already done inside a compare.
RECHECK = ("comparison.verify_witness", "towers.RokhlinTower.verify",
           "smallness.verify_leftover_cover", "plfun.birkhoff_sum@comparison")


def _module(fn):
    """Short name of the spanned module defining fn, or None."""
    mod = getattr(fn, "__module__", "") or ""
    short = mod.rsplit(".", 1)[-1]
    return short if mod.startswith("dyncomp.") and short in SPANNED else None


def base_name(name):
    return name.split("@", 1)[0]


def layer_of(name):
    mod = name.split(".", 1)[0]
    return LAYER.get(mod, mod)


def unit(metric):
    last = metric.rsplit(".", 1)[-1]
    if last.endswith("_s"):
        return "s"
    if last.endswith("_share") or last == "coverage":
        return "share"
    return "bytes" if last == "bytes" else "count"


def is_recheck(name):
    return name in RECHECK or base_name(name) in RECHECK[:3]


class Tracer:
    def __init__(self):
        self.names = []  # span name id -> name
        self._name_id = {}
        self.spans = []  # [name id, start, end, parent index, op, self seconds]
        self._stack = []
        self.op = -1
        self.scalar = {"new": 0, "cmp": 0, "arith": 0}
        self.observed = defaultdict(float)  # counter -> total or peak over the run
        self._undo = []

    # -- recording

    def _intern(self, name):
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _span(self, name, fn, observe=None):
        nid = self._intern(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0.0]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = end = clock()
                stack.pop()
                dur = end - rec[1]
                rec[5] += dur
                if rec[3] >= 0:
                    spans[rec[3]][5] -= dur
            if observe is not None:
                observe(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def count(self, key, value):
        self.observed[key] += value

    def peak(self, key, value):
        self.observed[key] = max(self.observed[key], value)

    # -- installing and removing wrappers

    def _set(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, dc):
        """Wrap every layer entry point of the loaded package `dc`."""
        modules = dc.modules
        for site_name in SITES:
            site = modules[site_name]
            site_tag = site_name.rsplit(".", 1)[-1]
            for attr, value in list(vars(site).items()):
                mod = _module(value)
                if (attr.startswith("_") or mod is None or not inspect.isfunction(value)
                        or inspect.isgeneratorfunction(value)):
                    continue
                if mod == "cli":
                    if attr == "run":
                        self._set(site, attr, self._cli_run(value))
                    continue  # cli internals are the cli span's own time
                name = "%s.%s" % (mod, attr)
                if site_name != value.__module__:
                    name += "@" + site_tag
                self._set(site, attr, self._span(name, value, OBSERVERS.get(attr)))
        for mod in SPANNED[:-1]:
            mod_name = "dyncomp." + mod
            for cls in list(vars(modules[mod_name]).values()):
                if inspect.isclass(cls) and cls.__module__ == mod_name:
                    self._wrap_class(cls, mod)
        scalar_cls = modules["dyncomp.scalars"].ExactScalar
        for attr, kind in SCALAR_KINDS.items():
            self._set(scalar_cls, attr, self._counter(kind, scalar_cls.__dict__[attr]))

    def _cli_run(self, fn):
        """One span per command, named after the subcommand."""
        per_command = {}

        def run(argv):
            command = argv[0] if argv else "?"
            if command not in per_command:
                per_command[command] = self._span("cli.run:" + command, fn)
            return per_command[command](argv)

        return run

    def _wrap_class(self, cls, mod):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = "%s.%s.%s" % (mod, cls.__name__, attr)
            if isinstance(value, (classmethod, staticmethod)):
                inner = value.__func__
                self._set(cls, attr, type(value)(self._span(name, inner)))
            elif inspect.isfunction(value) and not inspect.isgeneratorfunction(value):
                self._set(cls, attr, self._span(name, value, OBSERVERS.get(attr)))

    def _counter(self, kind, fn):
        counts = self.scalar

        def wrapper(*args, **kwargs):
            counts[kind] += 1
            return fn(*args, **kwargs)

        return wrapper

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- output

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\tself\n")
            for nid, t0, t1, parent, op, own in self.spans:
                fh.write("%s\t%.9f\t%.9f\t%d\t%d\t%.9f\n"
                         % (self.names[nid], t0, t1, parent, op, own))


def _bp_observer(tracer, args, result):
    for f in result if isinstance(result, (list, tuple)) else (result,):
        bps = getattr(f, "breakpoints", None)
        if bps is not None:
            tracer.count("plfun.bp_out", len(bps))
            tracer.peak("plfun.bp_max", len(bps))


def _tower_observer(tracer, args, result):
    tracer.count("towers.columns", len(result.columns))
    tracer.peak("towers.max_height", max(n for _, n in result.columns))


def _leftover_observer(tracer, args, result):
    tracer.count("smallness.leftover_points", len(args[1]))


def _cert_observer(tracer, args, result):
    tracer.count("certfile.bytes", os.path.getsize(args[0]))


_PL_RETURNING = ("sum_of", "pl_combine", "translate_fn", "birkhoff_sum", "bump",
                 "min_cascade", "partition_of_unity")
OBSERVERS = dict.fromkeys(_PL_RETURNING, _bp_observer)
OBSERVERS.update(build_tower=_tower_observer, refine_tower=_tower_observer,
                 leftover_cover=_leftover_observer, write_certfile=_cert_observer)


def layer_metrics(tr, walls):
    """Per-op layer numbers from the spans of the traced ops.

    `walls` maps each traced op id to its wall time as the harness measured
    it.  Times and counts are per op; `*_max` and `max_height` are maxima
    over the run; shares state their base alongside.
    """
    n_ops = max(len(walls), 1)
    names = tr.names
    layers = [layer_of(name) for name in names]
    bases = [base_name(name) for name in names]
    spans = tr.spans

    calls = defaultdict(int)  # layer -> spans
    self_s = defaultdict(float)  # layer -> self seconds
    base_calls = defaultdict(int)  # base name -> spans
    covered = defaultdict(float)  # op -> seconds under top-level library spans
    for nid, t0, t1, parent, op, own in spans:
        layer = layers[nid]
        calls[layer] += 1
        self_s[layer] += own
        base_calls[bases[nid]] += 1
        if layer != "cli" and (parent < 0 or layers[spans[parent][0]] == "cli"):
            covered[op] += t1 - t0

    def ancestors(idx):
        parent = spans[idx][3]
        while parent >= 0:
            yield parent
            parent = spans[parent][3]

    def outer_time(base):
        """Seconds in spans of `base`, not counting those nested in another."""
        chosen = {nid for nid, b in enumerate(bases) if b == base}
        total = 0.0
        for idx, rec in enumerate(spans):
            if rec[0] in chosen and not any(spans[a][0] in chosen for a in ancestors(idx)):
                total += rec[2] - rec[1]
        return total

    def command(name):
        """(count, seconds) of the cli spans for one subcommand."""
        durations = [rec[2] - rec[1] for rec in spans if names[rec[0]] == "cli.run:" + name]
        return len(durations), sum(durations)

    compares, compare_s = command("compare")
    recheck_s = 0.0
    for idx, rec in enumerate(spans):
        if not is_recheck(names[rec[0]]):
            continue
        up = [names[spans[a][0]] for a in ancestors(idx)]
        if "cli.run:compare" in up and not any(is_recheck(u) for u in up):
            recheck_s += rec[2] - rec[1]
    attempts = sum(1 for rec in spans if names[rec[0]] == "towers.build_tower@comparison")

    def per_op(x):
        return x / n_ops

    shares = sorted(covered[op] / wall for op, wall in walls.items() if wall > 0)
    out = {
        "scalars.new": per_op(tr.scalar["new"]),
        "scalars.cmp": per_op(tr.scalar["cmp"]),
        "scalars.arith": per_op(tr.scalar["arith"]),
        "regions.calls": per_op(calls["regions"]),
        "regions.self_s": per_op(self_s["regions"]),
        "plfun.calls": per_op(calls["plfun"]),
        "plfun.self_s": per_op(self_s["plfun"]),
        "plfun.bp_out": per_op(tr.observed["plfun.bp_out"]),
        "plfun.bp_max": tr.observed["plfun.bp_max"],
        "towers.calls": per_op(calls["towers"]),
        "towers.builds": per_op(base_calls["towers.build_tower"]),
        "towers.verifies": per_op(base_calls["towers.RokhlinTower.verify"]),
        "towers.verify_s": per_op(outer_time("towers.RokhlinTower.verify")),
        "towers.refine_s": per_op(outer_time("towers.refine_tower")),
        "towers.columns": per_op(tr.observed["towers.columns"]),
        "towers.max_height": tr.observed["towers.max_height"],
        "towers.self_s": per_op(self_s["towers"]),
        "smallness.calls": per_op(calls["smallness"]),
        "smallness.cover_s": per_op(outer_time("smallness.leftover_cover")),
        "smallness.recheck_s": per_op(outer_time("smallness.verify_leftover_cover")),
        "smallness.leftover_points": per_op(tr.observed["smallness.leftover_points"]),
        "smallness.self_s": per_op(self_s["smallness"]),
        "comparison.calls": per_op(calls["comparison"]),
        "comparison.attempts": attempts / compares if compares else 0.0,
        "comparison.witness_checks": per_op(base_calls["comparison.verify_witness"]),
        "comparison.witness_check_s": per_op(outer_time("comparison.verify_witness")),
        "comparison.recheck_share": recheck_s / compare_s if compare_s else 0.0,
        "comparison.recheck_base_s": compare_s / compares if compares else 0.0,
        "comparison.self_s": per_op(self_s["comparison"]),
        "certfile.emit_s": per_op(outer_time("certfile.write_certfile")),
        "certfile.bytes": per_op(tr.observed["certfile.bytes"]),
        "certfile.parse_s": per_op(outer_time("certfile.load_certfile")),
        "specfile.parse_s": per_op(outer_time("specfile.load_specfile")),
        "io.self_s": per_op(self_s["io"]),
        "cli.busy_s": per_op(sum(rec[2] - rec[1] for rec in spans if layers[rec[0]] == "cli")),
        "cli.self_s": per_op(self_s["cli"]),
        "cli.compare_s": per_op(compare_s),
        "cli.verify_s": per_op(command("verify")[1]),
        "cli.birkhoff_check_s": per_op(command("birkhoff")[1]),
        "trace.coverage": shares[len(shares) // 2] if shares else 0.0,
        "trace.spans": per_op(len(spans)),
    }
    return out
