"""Spans around decreal's public functions, recorded from outside the package.

``instrument`` replaces each traced function at every module attribute that
holds it (``weak`` imports ``truncate`` by name, so patching ``decimals``
alone would miss its calls), and each traced method on its class.  Only
public names are used; a name a later version no longer has is skipped and
its metrics read zero.

A span has a name, a start, an end, a parent and the request it belongs to.
Self time is a span's duration minus the time its child spans cover, worked
out from the nesting as spans close.  Aggregates cover every span; the span
records themselves are kept in memory up to ``span_cap`` and written out
when the run ends.
"""

import importlib
import sys
import time
from collections import Counter, defaultdict

perf = time.perf_counter

# (span name, module, function) for module-level functions
FUNCTIONS = (
    ("cli.parse", "decreal.cli", "parse_expression"),
    ("cli.eval", "decreal.cli", "eval_expression"),
    ("weak.hint", "decreal.weak", "compute_hint"),
    ("weak.add_digit", "decreal.weak", "add_digit_rule"),
    ("weak.mul_digit", "decreal.weak", "mul_certified_digit"),
    ("weak.mul_bracket", "decreal.weak", "mul_truncation"),
    ("decimals.truncate", "decreal.decimals", "truncate"),
    ("decimals.r_inv", "decreal.decimals", "r_inv"),
    ("decimals.interval_digit", "decreal.decimals", "interval_digit"),
    ("decimals.digit_of_fraction", "decreal.decimals", "digit_of_fraction"),
    ("decimals.render", "decreal.decimals", "render_digits"),
    ("rational.ten_valuation", "decreal.rational", "ten_valuation"),
)
# (span name, module, class, method) for digit reads
METHODS = (
    ("decimals.digit", "decreal.decimals", "Decimal", "digit"),
    ("padic.digit", "decreal.padic", "PAdic", "digit"),
)
READS = tuple(m[0] for m in METHODS)


class Tracer:
    def __init__(self, span_cap=20_000):
        self.span_cap = span_cap
        self.spans = []
        self.stack = []  # open spans: [name, start, child seconds, id, parent id]
        self.next_id = 0
        self.request = None
        self.stats = defaultdict(lambda: [0, 0.0])  # name -> [calls, self seconds]
        self.child_calls = Counter()  # (parent span name, child span name)
        self.truncate_digits = 0
        self.distinct = Counter()  # distinct (object, position) pairs per read name
        self._seen = {name: set() for name in READS}
        self._alive = {}  # keeps every id() seen in a request unique within it

    def begin_request(self, request_id):
        """Spans from here on belong to ``request_id``; read sets restart."""
        self.request = request_id
        for seen in self._seen.values():
            seen.clear()
        self._alive.clear()

    def enter(self, name):
        stack = self.stack
        self.next_id += 1
        stack.append([name, perf(), 0.0, self.next_id, stack[-1][3] if stack else 0])

    def exit(self):
        end = perf()
        stack = self.stack
        name, start, child, span_id, parent_id = stack.pop()
        dur = end - start
        stat = self.stats[name]
        stat[0] += 1
        stat[1] += dur - child
        if stack:
            parent = stack[-1]
            parent[2] += dur
            self.child_calls[parent[0], name] += 1
        if len(self.spans) < self.span_cap:
            self.spans.append((span_id, parent_id, self.request, name, start, end))

    def note_truncate(self, d, m, *args):
        self.truncate_digits += max(0, d.order + m + 1)

    def read_span(self, name, fn):
        """``fn(obj, n)`` wrapped in a span that also records the distinct
        ``(object, position)`` pairs read.  Digit reads are by far the most
        frequent spans, so this wrapper opens its span inline."""
        seen, alive, distinct = self._seen[name], self._alive, self.distinct
        stack, exit_, tracer = self.stack, self.exit, self

        def traced(obj, n):
            key = (id(obj), n)
            if key not in seen:
                seen.add(key)
                distinct[name] += 1
                alive[key[0]] = obj
            tracer.next_id += 1
            stack.append([name, perf(), 0.0, tracer.next_id, stack[-1][3] if stack else 0])
            try:
                return fn(obj, n)
            finally:
                exit_()

        return traced

    def span(self, name, fn, before=None):
        """``fn`` wrapped in a span; ``before`` sees the arguments first."""
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            if before is not None:
                before(*args)
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return traced


def instrument(tracer):
    """Install the tracer's wrappers; returns a callable that removes them."""
    undo = []
    loaded = [m for k, m in list(sys.modules.items())
              if k == "decreal" or k.startswith("decreal.")]
    for name, modname, attr in FUNCTIONS:
        orig = getattr(importlib.import_module(modname), attr, None)
        if orig is None:
            continue
        before = tracer.note_truncate if name == "decimals.truncate" else None
        wrapper = tracer.span(name, orig, before)
        for mod in loaded:
            for key in [k for k, v in vars(mod).items() if v is orig]:
                undo.append((mod, key, orig))
                setattr(mod, key, wrapper)
    for name, modname, clsname, meth in METHODS:
        cls = getattr(importlib.import_module(modname), clsname, None)
        orig = getattr(cls, meth, None)
        if orig is None:
            continue
        undo.append((cls, meth, orig))
        setattr(cls, meth, tracer.read_span(name, orig))

    def remove():
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)

    return remove


# per-layer metrics: (name, unit)
PER_LAYER = (
    ("weak.mul_digit.calls", "count"),
    ("weak.mul_digit.self_s", "s"),
    ("weak.mul_bracket.calls", "count"),
    ("weak.mul_bracket.self_s", "s"),
    ("weak.mul_bracket.per_digit", "rounds/digit"),
    ("decimals.truncate.calls", "count"),
    ("decimals.truncate.self_s", "s"),
    ("decimals.truncate.digits", "digits"),
    ("decimals.r_inv.calls", "count"),
    ("decimals.r_inv.self_s", "s"),
    ("decimals.interval_digit.calls", "count"),
    ("decimals.interval_digit.self_s", "s"),
    ("rational.ten_valuation.calls", "count"),
    ("rational.ten_valuation.self_s", "s"),
    ("decimals.digit_of_fraction.calls", "count"),
    ("decimals.digit_of_fraction.self_s", "s"),
    ("weak.add_digit.calls", "count"),
    ("weak.add_digit.self_s", "s"),
    ("weak.add_digit.reads_per_digit", "reads/digit"),
    ("decimals.digit.calls", "count"),
    ("decimals.digit.self_s", "s"),
    ("decimals.digit.repeat_share", "ratio"),
    ("weak.hint.calls", "count"),
    ("weak.hint.self_s", "s"),
    ("cli.parse.self_s", "s"),
    ("padic.digit.calls", "count"),
    ("padic.digit.self_s", "s"),
    ("padic.digit.repeat_share", "ratio"),
    ("words.read_total", "digits"),
    ("words.read_depth", "digits"),
    ("trace.overhead", "ratio"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, passes):
    """Per-layer values for one pass over the pool: counts are totals over
    ``passes`` identical passes divided by ``passes``, times are means."""
    out = {}
    for name, unit in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat in ("calls", "self_s"):
            out[name] = tracer.stats[layer][stat == "self_s"] / passes
    calls = {layer: stat[0] for layer, stat in tracer.stats.items()}
    out["weak.mul_bracket.per_digit"] = _ratio(
        tracer.child_calls["weak.mul_digit", "weak.mul_bracket"], calls.get("weak.mul_digit", 0))
    out["decimals.truncate.digits"] = tracer.truncate_digits / passes
    out["weak.add_digit.reads_per_digit"] = _ratio(
        tracer.child_calls["weak.add_digit", "decimals.digit"], calls.get("weak.add_digit", 0))
    for name in READS:
        if calls.get(name):
            out[f"{name}.repeat_share"] = 1.0 - tracer.distinct[name] / calls[name]
        else:
            out[f"{name}.repeat_share"] = 0.0
    return out
