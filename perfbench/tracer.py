"""In-memory span recorder for the traced benchmark run.

`install` wraps the public functions of each zetataylor module at every
place the package binds them: the defining module (which covers
``module.name`` call sites and calls inside the module) and each module that
imported the name.  The program's own files are not edited.  A public name
that no longer exists is simply not wrapped: the layer metrics that need it
read 0, and `missing_layers` names it.

A span is ``[name, start, end, parent, op]``: the wrapped function's
``layer.name``, perf_counter timestamps, the index of the enclosing span
(-1 at top level) and the operation id set by the runner.  Spans stay in
memory until `write_spans` is called at the end of the run.
"""

from __future__ import annotations

import importlib
import inspect
from collections import Counter
from fractions import Fraction
from time import perf_counter

LAYERS = ("exact", "summation", "coefficients", "reference", "verification", "cli")

TERMGEN = "coefficients.termgen"
SUM = "summation.sum_semiconvergent"
TO_MPF = "summation.to_mpf"
COMPUTE = "coefficients.compute_coefficient"
CONTOUR = "reference.taylor_coefficient_contour"
HURWITZ_ZETA = "reference.hurwitz_zeta"
LERCH_PHI = "reference.lerch_phi"
CHECK = "verification.check"
MAIN = "cli.main"

# Per-term helpers: wrapping them would count every term as a call into the
# coefficients layer and add a span per term for no layer boundary.
HELPERS = {"coefficients.hurwitz_term_sign", "coefficients.lerch_term_sign",
           "coefficients.fraction_from_mpf"}

EXACT_GROUPS = {
    "bernoulli": ("bernoulli_number", "bernoulli_polynomial", "bernoulli_polynomial_coeffs"),
    "stirling": ("stirling1", "stirling2", "exp_polynomial_coeffs"),
    "apostol": ("apostol_bernoulli", "apostol_bernoulli_coeffs"),
}


def _exact_table_index(name: str, args: tuple):
    """(table, index) an exact call needs, or None when unknown.  Calls on
    the same table share its cache, so growth is judged per table."""
    if not args:
        return None
    if name == "stirling1":
        return ("stirling1",), args[0]
    if name in ("stirling2", "exp_polynomial_coeffs"):
        return ("stirling2",), args[0]
    if name in EXACT_GROUPS["bernoulli"]:
        return ("bernoulli",), args[0]
    if name == "harmonic_number":
        return ("harmonic",), args[0]
    if name == "apostol_bernoulli" and len(args) >= 3:
        return ("apostol", Fraction(args[2])), args[0]
    if name == "apostol_bernoulli_coeffs" and len(args) >= 2:
        return ("apostol", Fraction(args[1])), args[0]
    return None


class _TimedTerms:
    """Iterator proxy: each `next` on the term generator is one span."""

    def __init__(self, tracer: "Tracer", terms):
        self._tracer = tracer
        self._it = iter(terms)
        self.generated = 0

    def __iter__(self):
        return self

    def __next__(self):
        idx = self._tracer.open(TERMGEN)
        try:
            value = next(self._it)
        finally:
            self._tracer.close(idx)
        self.generated += 1
        return value


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.growth: set[int] = set()
        self.counts: Counter = Counter()
        self.captures: dict[str, list] = {COMPUTE: [], CONTOUR: []}
        self.child_rows: dict[str, list] = {COMPUTE: [], CONTOUR: []}
        self.installed: set[str] = set()
        self.recording = False
        self.op = -1
        self._stack: list[int] = []
        self._high: dict[tuple, int] = {}

    # ---- span bookkeeping -------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        if not self.recording:
            return fn(*args, **kwargs)
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    # ---- wrappers ----------------------------------------------------------

    def wrapper(self, layer: str, name: str, fn):
        span = f"{layer}.{name}"
        if layer == "exact":
            return self._exact_wrapper(span, name, fn)
        if span == SUM:
            return self._sum_wrapper(fn)
        if span in self.captures:
            return self._capture_wrapper(span, fn)
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(span, fn, *args, **kwargs)

        return traced

    def _exact_wrapper(self, span, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            try:
                need = _exact_table_index(name, args)
            except (TypeError, ValueError):
                need = None
            grows = False
            if need is not None:
                table, index = need
                high = tracer._high.get(table)
                if high is None or index > high:
                    tracer._high[table] = index
                    grows = True
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = tracer.open(span)
            if grows:
                tracer.growth.add(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    def _sum_wrapper(self, fn):
        tracer = self

        def traced(terms, *args, **kwargs):
            if not tracer.recording:
                return fn(terms, *args, **kwargs)
            proxy = _TimedTerms(tracer, terms)
            result = tracer.call(SUM, fn, proxy, *args, **kwargs)
            c = tracer.counts
            c["terms_generated"] += proxy.generated
            c["terms_used"] += result.truncation_index - kwargs.get("start", 0) + 1
            c[f"stop.{result.terminated_by}"] += 1
            if result.terminated_by == "max_terms" and result.error_estimate == 0:
                c["max_terms_zero_bar"] += 1
            return result

        return traced

    def _capture_wrapper(self, span, fn):
        tracer = self
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            result = tracer.call(span, fn, *args, **kwargs)
            if tracer.recording:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.captures[span].append((bound.arguments, result))
            return result

        return traced

    def _check_wrapper(self, fn):
        tracer = self

        def traced(*args, **kwargs):
            ok, detail = tracer.call(CHECK, fn, *args, **kwargs)
            if tracer.recording:
                tracer.counts["checks_failed"] += not ok
            return ok, detail

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every public function of each layer wherever zetataylor binds
    it, plus each check in the verification registry."""
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"zetataylor.{layer}")
        except ImportError:
            continue
    originals = {}
    for layer, mod in modules.items():
        for name in getattr(mod, "__all__", ()):
            fn = getattr(mod, name, None)
            if inspect.isfunction(fn):
                originals[id(fn)] = (layer, name, fn)
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            entry = originals.get(id(value))
            if entry is None or entry[2] is not value:
                continue
            layer, name, fn = entry
            if f"{layer}.{name}" in HELPERS:
                continue
            setattr(mod, attr, tracer.wrapper(layer, name, fn))
            tracer.installed.add(f"{layer}.{name}")
    suites = getattr(modules.get("verification"), "SUITES", None)
    if isinstance(suites, dict):
        for checks in suites.values():
            for i, (label, fn) in enumerate(checks):
                checks[i] = (label, tracer._check_wrapper(fn))
                tracer.installed.add(CHECK)
    if SUM in tracer.installed:
        tracer.installed.add(TERMGEN)


def mpf_json(x):
    """Exact [mantissa, exponent] of a finite mpf (value = mantissa *
    2**exponent), or None for inf and nan."""
    sign, man, exp, _ = x._mpf_
    if not man and x != 0:
        return None
    return [-int(man) if sign else int(man), int(exp)]


def num_json(x):
    if x is None:
        return None
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    return {"mpf": mpf_json(x)}


# ---- captured results -------------------------------------------------------


def capture_rows(tr: Tracer) -> dict:
    """Reduce the captured (arguments, result) pairs of compute_coefficient
    and taylor_coefficient_contour to JSON rows for the truth check, after
    the rows already reduced in child processes.  A pair whose shape is not
    understood is dropped and counted."""
    rows = {}
    for key, items in tr.captures.items():
        out, dropped = list(tr.child_rows[key]), tr.counts[f"dropped.{key}"]
        for args, result in items:
            try:
                if key == COMPUTE:
                    q = args["query"]
                    row = {"family": q.family, "n": q.n, "a": num_json(q.a),
                           "lam": num_json(q.lam), "digits": q.digits}
                else:
                    row = {"family": args["family"], "n": args["n"], "a": num_json(args["a"]),
                           "lam": num_json(args["lam"]), "digits": args["digits"]}
                row["value"] = mpf_json(result.value)
                row["error_estimate"] = mpf_json(result.error_estimate)
            except (AttributeError, KeyError, TypeError):
                dropped += 1
                continue
            out.append(row)
        rows[key] = {"rows": out, "dropped": dropped}
    return rows


# ---- span arithmetic --------------------------------------------------------


def self_times(spans: list) -> list[float]:
    """Duration of each span minus the time its direct children cover.
    Spans of one thread nest properly, so children never overlap."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _below(spans: list, member) -> list[bool]:
    """For each span, whether some ancestor satisfies `member`.  Parents
    precede children in the list, so one forward pass suffices."""
    out = [False] * len(spans)
    for i, s in enumerate(spans):
        p = s[3]
        if p >= 0:
            out[i] = out[p] or member(p)
    return out


def busy(spans: list, member) -> tuple[int, float]:
    """(calls, seconds) of the spans selected by `member`, counting a span
    only when no ancestor is selected: the calls into that group from
    outside it, and the wall time of their union."""
    below = _below(spans, member)
    calls, total = 0, 0.0
    for i, s in enumerate(spans):
        if member(i) and not below[i]:
            calls += 1
            total += s[2] - s[1]
    return calls, total


def ratio(num: float, den: float, empty: float) -> float:
    """num / den, or `empty` when the base is zero (no calls recorded)."""
    return num / den if den else empty


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and times (seconds) from the recorded spans.  A
    wrapped function that was not found records no spans, so its counts and
    times read 0; `missing_layers` names them."""
    spans = tracer.spans
    names = [s[0] for s in spans]
    own = self_times(spans)
    c = tracer.counts

    def named(*wanted):
        wanted = set(wanted)
        return lambda i: names[i] in wanted

    def prefixed(prefix):
        return lambda i: names[i].startswith(prefix)

    def self_sum(member):
        return sum((own[i] for i in range(len(spans)) if member(i)), 0.0)

    m: dict = {}
    m["exact.calls"], m["exact.busy_s"] = busy(spans, prefixed("exact."))
    for group, fns in EXACT_GROUPS.items():
        m[f"exact.{group}.busy_s"] = busy(spans, named(*(f"exact.{f}" for f in fns)))[1]
    m["exact.growth_s"] = busy(spans, tracer.growth.__contains__)[1]

    m["summation.calls"] = names.count(SUM)
    m["summation.self_s"] = self_sum(named(SUM))
    m["summation.termgen_s"] = busy(spans, named(TERMGEN))[1]
    m["summation.to_mpf.calls"], m["summation.to_mpf.busy_s"] = busy(spans, named(TO_MPF))
    m["summation.terms_generated"] = c["terms_generated"]
    m["summation.terms_used_ratio"] = ratio(c["terms_used"], c["terms_generated"], 0.0)
    for reason in ("minimal_term", "converged", "max_terms"):
        m[f"summation.stop.{reason}"] = c[f"stop.{reason}"]
    m["summation.max_terms_zero_bar"] = c["max_terms_zero_bar"]

    m["coefficients.calls"], m["coefficients.busy_s"] = busy(spans, prefixed("coefficients."))
    m["coefficients.self_s"] = self_sum(prefixed("coefficients."))

    is_contour = named(CONTOUR)
    m["reference.contour.calls"], m["reference.contour.busy_s"] = busy(spans, is_contour)
    m["reference.contour.self_s"] = self_sum(is_contour)
    missed = set()
    for i, s in enumerate(spans):
        if names[i] in (HURWITZ_ZETA, LERCH_PHI):
            p = s[3]
            while p >= 0 and names[p] != CONTOUR:
                p = spans[p][3]
            if p >= 0:
                missed.add(p)
    m["reference.node_miss_ratio"] = ratio(len(missed), m["reference.contour.calls"], 0.0)
    for span, key in ((HURWITZ_ZETA, "hurwitz_zeta"), (LERCH_PHI, "lerch_phi")):
        m[f"reference.{key}.calls"], m[f"reference.{key}.busy_s"] = busy(spans, named(span))

    m["verification.checks"] = names.count(CHECK)
    m["verification.busy_s"] = busy(spans, prefixed("verification."))[1]
    m["verification.failed"] = c["checks_failed"]

    m["cli.calls"] = names.count(MAIN)
    m["cli.self_s"] = self_sum(named(MAIN))
    return m


def missing_layers(tracer: Tracer) -> list[str]:
    """The wrapped functions the metrics rely on that install() did not find."""
    want = [SUM, TO_MPF, COMPUTE, CONTOUR, HURWITZ_ZETA, LERCH_PHI, CHECK, MAIN]
    want += [f"exact.{f}" for fns in EXACT_GROUPS.values() for f in fns]
    return [name for name in want if name not in tracer.installed]


def write_spans(path, spans: list, growth: set) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("index,name,start,end,parent,op,growth\n")
        for i, (name, start, end, parent, op) in enumerate(spans):
            fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent},{op},{int(i in growth)}\n")
