"""Per-layer tracing for the wittsen benchmark, installed from outside the library.

A traced pass wraps the public entry points of each layer of ``src/wittsen``.
Every wrapped call opens a span (name, start, parent = the span open below it)
and closes it with its end time. A closed span is folded at once into per-name
totals: call count, total time and self time (its duration minus the
durations of its direct child spans). Folding at close keeps memory flat,
which matters because hot entry points such as ``Eisenstein.is_zero`` close
about a million spans per pass.

Entry points are looked up by name. One that no longer exists is skipped,
and every metric that depends only on missing entry points is reported as
absent with the reason, so a refactor that deletes or renames an entry point
cannot crash the traced run. Wrappers replace each original function wherever
a wittsen module binds it (``from .exactalg import local_snf`` makes
``senhom.local_snf`` a second binding), so calls are counted where callers
look them up. The alias ``senhom.snf_local`` is a separate function that
calls ``local_snf``; it is deliberately not wrapped, so an SNF is counted
once. An untraced pass installs nothing.
"""

from __future__ import annotations

import inspect
import time
from fractions import Fraction

# TruncPoly attribute -> operation key. Accessors such as ``coeff`` and
# ``is_zero`` are left out: they are dictionary lookups whose cost stays in
# the caller.
SERIES_METHODS = {
    "__init__": "init", "__add__": "add", "__radd__": "add",
    "__sub__": "sub", "__rsub__": "sub", "__neg__": "neg",
    "__mul__": "mul", "__rmul__": "mul", "__pow__": "pow", "__eq__": "eq",
    "map_coeffs": "map", "exact_div_int": "div", "substitute": "substitute",
    "derivative": "derivative", "evaluate": "evaluate",
    "series_exp": "explog", "series_log": "explog",
    "series_inverse": "explog", "min_p_valuation": "valuation",
}
EXPLOG_FUNCTIONS = ("truncated_exp_log",)
SNF_FUNCTIONS = ("smith_normal_form", "local_snf")
ENGINE_FUNCTIONS = ("homology_of_pair", "two_term_homology", "cube_total_fiber")
# An alias that only calls local_snf; it gets no span, so an SNF counts once.
SNF_ALIAS = "snf_local"
NVARS_BUCKETS = ("nvars1", "nvars2", "nvars3plus")
REPORT_CHECKS = (
    "witt.gabber", "witt.pn-vanishing", "witt.solve-frobenius",
    "witt.frobenius-of-p", "witt.cartier", "witt.dwork", "fgl.q-identity",
    "fgl.honda", "fgl.right-unit", "fgl.b4", "fgl.fderham",
    "sen.bokstedt.T1", "sen.bokstedt.Jp", "sen.cmn", "sen.perfectoid",
    "sen.zpn", "sen.omega2yn", "sen.dvr", "cartier.psi",
    "cartier.psi-tensor", "cartier.weyl", "cartier.delta",
)


def entry_bits(x) -> int:
    """Bit length of an exact scalar: int, Fraction or an Eisenstein tuple."""
    if isinstance(x, int):
        return abs(x).bit_length()
    if isinstance(x, tuple):
        return max((entry_bits(c) for c in x), default=0)
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _max_bits(rows) -> int:
    return max((entry_bits(x) for row in rows for x in row), default=0)


def _public_functions(module):
    """Public callables defined in ``module`` itself, by name."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            out[name] = obj
    return out


class Tracer:
    """Wraps wittsen entry points for one pass and folds their spans."""

    def __init__(self):
        self.stats = {}  # span name -> [calls, total_s, self_s]
        self.extra = {}  # counter name -> value (sums and maxima)
        self.missing = set()  # dotted names of entry points not found
        self.broken = {}  # entry point -> error of its counter hook
        self._stack = [[0.0]]  # open spans; each holds its child time
        self._patches = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def _fixed(self, name):
        """A ``pick`` that puts every call in the span row ``name``."""
        row = self.stat(name)
        return lambda args: row

    def _bump(self, name, value):
        self.extra[name] = self.extra.get(name, 0) + value

    def _raise_to(self, name, value):
        if value > self.extra.get(name, 0):
            self.extra[name] = value

    def _hook(self, label, hook, *args):
        """Run a counter hook; an error (say, after a signature change) marks
        the counters of ``label`` absent instead of failing the call."""
        try:
            hook(*args)
        except Exception as exc:  # noqa: BLE001 - reported as absent metrics
            self.broken.setdefault(label, f"{type(exc).__name__}: {exc}")

    def span(self, fn, pick, label=None, before=None, after=None):
        """Wrap ``fn``; ``pick(args)`` gives the stats row of the span.
        ``before(args)`` and ``after(args, result)`` record the counters of
        entry point ``label``; their cost is charged to no span."""
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            stats = pick(args)
            if before is not None:
                h0 = clock()
                self._hook(label, before, args)
                stack[-1][0] += clock() - h0
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stack[-1][0] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
            if after is not None:
                h0 = clock()
                self._hook(label, after, args, result)
                stack[-1][0] += clock() - h0
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, mods, original, wrapper):
        """Replace ``original`` by ``wrapper`` in every module binding it."""
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    self._set(mod, attr, wrapper)

    def _function(self, mods, modname, fname, pick, **hooks):
        fn = getattr(mods.get(modname), fname, None)
        if fn is None:
            self.missing.add(f"{modname}.{fname}")
            return
        self._rebind(mods, fn, self.span(fn, pick, f"{modname}.{fname}", **hooks))

    def _method(self, mods, modname, cls, attr, pick, **hooks):
        owner = getattr(mods.get(modname), cls, None)
        fn = None if owner is None else owner.__dict__.get(attr)
        if fn is None:
            self.missing.add(f"{modname}.{cls}.{attr}")
            return
        self._set(owner, attr, self.span(fn, pick, f"{modname}.{cls}.{attr}", **hooks))

    def install(self, mods):
        """Wrap the entry points of the loaded modules (name -> module)."""
        self._series(mods)
        self._elimination(mods)
        for layer in ("fgl", "witt", "dpops"):
            self._module(mods, layer, layer)
        self._cli(mods)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _series(self, mods):
        explog_depth = [0]

        def bucketed(op):
            rows = [self.stat(f"exactalg.series.{op}.{b}") for b in NVARS_BUCKETS]

            def pick(args):
                # __init__(self, ring, terms); every other entry point takes a
                # TruncPoly first. A representation without ``vars`` counts
                # as one variable.
                ring = args[1] if op == "init" and len(args) > 1 else (
                    getattr(args[0], "ring", None) if args else None)
                n = len(getattr(ring, "vars", "x"))
                return rows[0 if n == 1 else 1 if n == 2 else 2]
            return pick

        def explog(fn, pick):
            inner = self.span(fn, pick)

            def traced(*args, **kwargs):
                # count only outermost exp/log/inverse requests, so a wrapper
                # such as truncated_exp_log -> series_exp counts once
                if explog_depth[0] == 0:
                    self._bump("exactalg.series.explog.calls", 1)
                explog_depth[0] += 1
                try:
                    return inner(*args, **kwargs)
                finally:
                    explog_depth[0] -= 1
            traced.__wrapped__ = fn
            return traced

        cls = getattr(mods.get("exactalg"), "TruncPoly", None)
        for attr, op in SERIES_METHODS.items():
            fn = None if cls is None else cls.__dict__.get(attr)
            if fn is None:
                self.missing.add(f"exactalg.TruncPoly.{attr}")
                continue
            pick = bucketed(op)
            if op == "explog":
                self._set(cls, attr, explog(fn, pick))
            elif op == "mul":
                self._set(cls, attr, self.span(
                    fn, pick, "exactalg.TruncPoly.__mul__",
                    after=lambda a, r: self._bump(
                        "exactalg.series.mul.terms_out", len(r.terms))))
            else:
                self._set(cls, attr, self.span(fn, pick))
        for fname in EXPLOG_FUNCTIONS:
            fn = getattr(mods.get("exactalg"), fname, None)
            if fn is None:
                self.missing.add(f"exactalg.{fname}")
                continue
            self._rebind(mods, fn, explog(fn, bucketed("explog")))

    def _snf_shape(self, rows, cols, bits):
        self._raise_to("exactalg.snf.max_rows", rows)
        self._raise_to("exactalg.snf.max_cols", cols)
        self._raise_to("exactalg.snf.max_entry_bits", bits)

    def _elimination(self, mods):
        fixed = self._fixed

        def smith_shape(args):
            A = args[0]
            self._snf_shape(A.rows, A.cols, _max_bits(A.entries))

        def local_shape(args):
            rows = args[1]
            ncols = args[2] if len(args) > 2 and args[2] is not None else (
                len(rows[0]) if rows else 0)
            self._snf_shape(len(rows), ncols, _max_bits(rows))

        self._function(mods, "exactalg", "smith_normal_form",
                       fixed("exactalg.snf.smith_normal_form"), before=smith_shape)
        self._function(mods, "exactalg", "local_snf",
                       fixed("exactalg.snf.local_snf"), before=local_shape)

        def lattice_in(args):
            vectors = args[3]
            if not isinstance(vectors, (list, tuple)):
                raise TypeError("generators are not a list; counting would consume them")
            self._bump("dpops.lattice.generators", len(vectors))
            den = max((x.denominator.bit_length() for v in vectors for x in v
                       if isinstance(x, Fraction)), default=1)
            self._raise_to("dpops.lattice.max_den_bits", den)

        self._method(mods, "dpops", "ZpLattice", "__init__",
                     fixed("dpops.lattice.build"), before=lattice_in,
                     after=lambda a, r: self._bump("dpops.lattice.rank",
                                                   len(a[0].basis)))
        self._method(mods, "dpops", "ZpLattice", "contains",
                     fixed("dpops.lattice.contains"))

        for fname in ENGINE_FUNCTIONS:
            self._function(mods, "senhom", fname, fixed(f"senhom.{fname}"))
        eis = getattr(mods.get("senhom"), "Eisenstein", None)
        if eis is None:
            self.missing.add("senhom.Eisenstein")
        else:
            for attr, fn in list(vars(eis).items()):
                if inspect.isfunction(fn) and not attr.startswith("_"):
                    self._set(eis, attr, self.span(
                        fn, fixed(f"senhom.eisenstein.{attr}")))
        self._module(mods, "senhom", "senhom.builders", skip={SNF_ALIAS})

    def _module(self, mods, modname, prefix, skip=()):
        mod = mods.get(modname)
        if mod is None:
            self.missing.add(modname)
            return
        for fname, fn in _public_functions(mod).items():
            if fname not in skip:
                self._rebind(mods, fn, self.span(fn, self._fixed(f"{prefix}.{fname}")))

    def _cli(self, mods):
        cli = mods.get("cli")
        in_check = [False]
        stack, clock = self._stack, time.perf_counter

        def check_span(fn):
            # a check row names itself; nested check functions (the report's
            # bokstedt lambdas call check_bokstedt) stay inside the outer span
            def traced(*args, **kwargs):
                if in_check[0]:
                    return fn(*args, **kwargs)
                in_check[0] = True
                frame = [0.0]
                stack.append(frame)
                t0 = clock()
                row = None
                try:
                    row = fn(*args, **kwargs)
                    return row
                finally:
                    dur = clock() - t0
                    stack.pop()
                    stack[-1][0] += dur
                    in_check[0] = False
                    name = row.get("name") if isinstance(row, dict) else "?"
                    stats = self.stat(f"cli.check.{name}")
                    stats[0] += 1
                    stats[1] += dur
                    stats[2] += dur - frame[0]
            traced.__wrapped__ = fn
            return traced

        checks = getattr(cli, "ALL_CHECKS", None)
        if checks is None:
            self.missing.add("cli.ALL_CHECKS")
        else:
            self._set(cli, "ALL_CHECKS", [check_span(fn) for fn in checks])
        if cli is not None:
            for fname, fn in _public_functions(cli).items():
                if fname.startswith("check_"):
                    self._set(cli, fname, check_span(fn))
        self._function(mods, "cli", "_emit", self._fixed("cli.emit"))


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass


def _sum(stats, prefix, col):
    return sum(row[col] for name, row in stats.items() if name.startswith(prefix))


def layer_metrics(tracer: Tracer, workload: str):
    """(values, absent): metric name -> value for one traced pass, and metric
    name -> reason for the metrics whose entry points are all gone or whose
    counter hook failed."""
    s, x, missing = tracer.stats, tracer.extra, tracer.missing
    values, absent = {}, {}

    def put(name, needs, value, hooked=False):
        gone = [n for n in needs if n in missing]
        broken = [f"{n} ({tracer.broken[n]})" for n in needs if n in tracer.broken]
        if len(gone) == len(needs):
            absent[name] = "entry points not found: " + ", ".join(gone)
        elif hooked and broken:
            absent[name] = "counter hook failed on " + ", ".join(broken)
        else:
            values[name] = value

    series = [f"exactalg.TruncPoly.{a}" for a in SERIES_METHODS] + \
        [f"exactalg.{f}" for f in EXPLOG_FUNCTIONS]
    put("exactalg.series.mul.calls", ["exactalg.TruncPoly.__mul__"],
        _sum(s, "exactalg.series.mul.", 0))
    put("exactalg.series.mul.terms_out", ["exactalg.TruncPoly.__mul__"],
        x.get("exactalg.series.mul.terms_out", 0), hooked=True)
    put("exactalg.series.substitute.calls", ["exactalg.TruncPoly.substitute"],
        _sum(s, "exactalg.series.substitute.", 0))
    put("exactalg.series.explog.calls",
        [f"exactalg.TruncPoly.{a}" for a, op in SERIES_METHODS.items()
         if op == "explog"] + [f"exactalg.{f}" for f in EXPLOG_FUNCTIONS],
        x.get("exactalg.series.explog.calls", 0))
    put("exactalg.series.self_s", series, _sum(s, "exactalg.series.", 2))
    for b in NVARS_BUCKETS:
        put(f"exactalg.series.self_s.{b}", series,
            sum(row[2] for name, row in s.items()
                if name.startswith("exactalg.series.") and name.endswith("." + b)))

    snf = [f"exactalg.{f}" for f in SNF_FUNCTIONS]
    put("exactalg.snf.calls", snf, _sum(s, "exactalg.snf.", 0))
    put("exactalg.snf.self_s", snf, _sum(s, "exactalg.snf.", 2))
    for m in ("max_rows", "max_cols", "max_entry_bits"):
        put(f"exactalg.snf.{m}", snf, x.get(f"exactalg.snf.{m}", 0), hooked=True)

    build, contains = ["dpops.ZpLattice.__init__"], ["dpops.ZpLattice.contains"]
    put("dpops.lattice.build.calls", build, _sum(s, "dpops.lattice.build", 0))
    for m in ("generators", "rank", "max_den_bits"):
        put(f"dpops.lattice.{m}", build, x.get(f"dpops.lattice.{m}", 0), hooked=True)
    put("dpops.lattice.build.self_s", build, _sum(s, "dpops.lattice.build", 2))
    put("dpops.lattice.contains.calls", contains,
        _sum(s, "dpops.lattice.contains", 0))
    put("dpops.lattice.contains.self_s", contains,
        _sum(s, "dpops.lattice.contains", 2))

    for fname in ENGINE_FUNCTIONS:
        need = [f"senhom.{fname}"]
        put(f"senhom.{fname}.calls", need, _sum(s, f"senhom.{fname}", 0))
        put(f"senhom.{fname}.self_s", need, _sum(s, f"senhom.{fname}", 2))
    put("senhom.eisenstein.calls", ["senhom.Eisenstein"],
        _sum(s, "senhom.eisenstein.", 0))
    put("senhom.eisenstein.self_s", ["senhom.Eisenstein"],
        _sum(s, "senhom.eisenstein.", 2))
    put("senhom.builders.self_s", ["senhom"], _sum(s, "senhom.builders.", 2))

    put("fgl.honda_p_series.calls", ["fgl.honda_p_series"],
        _sum(s, "fgl.honda_p_series", 0))
    put("fgl.self_s", ["fgl"], _sum(s, "fgl.", 2))
    put("witt.cartier_character.calls", ["witt.cartier_character"],
        _sum(s, "witt.cartier_character", 0))
    put("witt.self_s", ["witt"], _sum(s, "witt.", 2))
    put("dpops.self_s", ["dpops"],
        _sum(s, "dpops.", 2) - _sum(s, "dpops.lattice.", 2))

    ran = {name[len("cli.check."):]: row[1] for name, row in s.items()
           if name.startswith("cli.check.") and row[0]}
    for check in REPORT_CHECKS:
        name = f"cli.check.{check}_s"
        if "cli.ALL_CHECKS" in missing:
            absent[name] = "entry point not found: cli.ALL_CHECKS"
        elif workload == "report" and check not in ran:
            absent[name] = f"the report ran no check named {check}"
        else:
            values[name] = ran.get(check, 0.0)
    put("cli.emit_s", ["cli._emit"], _sum(s, "cli.emit", 1))
    return values, absent


def shares(values: dict, pass_seconds: float) -> dict:
    """Series-kernel and elimination self time as shares of a traced pass."""
    elim = sum(values.get(k, 0.0) for k in (
        "exactalg.snf.self_s", "dpops.lattice.build.self_s",
        "dpops.lattice.contains.self_s", "senhom.homology_of_pair.self_s",
        "senhom.two_term_homology.self_s", "senhom.cube_total_fiber.self_s",
        "senhom.eisenstein.self_s", "senhom.builders.self_s"))
    return {"series_kernel": values.get("exactalg.series.self_s", 0.0) / pass_seconds,
            "elimination": elim / pass_seconds}
