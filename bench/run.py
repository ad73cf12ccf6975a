#!/usr/bin/env python3
"""Digit-stream benchmark for decreal.

    python3 bench/run.py --workload stream-mul --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: decreal is imported from ``src/`` next to
this directory, never from an installed copy.  One client, one process, no
threads: a closed loop that sends the next request when the previous one
has returned.  The loop runs whole seeded rounds of the workload's requests
for about ``--seconds`` seconds, and after each round checks every output
of that round against an exact oracle, outside the timed region.  Times are scaled to a nominal host speed
(see ``hostspeed.py``); the unscaled figures are printed next to them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is the
separate traced run: it alternates untraced and traced passes over a fixed
part of the first round and reports the per-layer metrics of one pass, plus
the tracing overhead.  Every metric is printed by name with its unit; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 if any
output was wrong or any request raised.
See ``bench/README.md`` for the workloads and what each metric should move.
"""

import argparse
import importlib
import inspect
import json
import resource
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

perf = time.perf_counter

END_TO_END = (
    ("digits_per_s", "digits/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ttfd_p50_ms", "ms"),
    ("success_rate", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_REPEATS = 5
# Requests of round 0 that the traced run uses; the rest use all of it.  A
# traced padic round pays a span for each of its ~20 million digit reads.
TRACED_REQUESTS = {"padic": 5}


def use_checkout_sources():
    """Make ``import decreal`` load this checkout's ``src/`` and nothing else."""
    src = ROOT / "src"
    if not (src / "decreal" / "__init__.py").is_file():
        raise SystemExit(f"bench: no decreal sources under {src}")
    sys.path.insert(0, str(src))


class Outcome:
    __slots__ = ("output", "start", "ttfd", "latency", "digits", "traces")

    def __init__(self, output, start, ttfd, latency, digits, traces):
        self.output, self.start, self.ttfd, self.latency = output, start, ttfd, latency
        self.digits, self.traces = digits, traces


class Client:
    """Sends one request through decreal's public functions.

    Functions are looked up on their modules at call time, so the traced
    run sees the tracer's wrappers.
    """

    def __init__(self):
        self.cli = importlib.import_module("decreal.cli")
        self.decimals = importlib.import_module("decreal.decimals")
        self.padic = importlib.import_module("decreal.padic")
        src = ROOT / "src"
        if not Path(self.cli.__file__).resolve().is_relative_to(src):
            raise SystemExit(f"bench: imported decreal from {self.cli.__file__}, not {src}")
        weak_add = importlib.import_module("decreal.weak").weak_add
        self.sign_budget = inspect.signature(weak_add).parameters["sign_budget"].default

    def execute(self, req, words=False):
        """Run ``req``; with ``words`` the top-level operands are read through
        ``ReadTrace`` views and their traces come back too."""
        t0 = perf()
        node = self.cli.parse_expression(req.expr)
        if req.kind == "padic":
            x, traces = self._padic(node, req.p, words)
            first = x.digit(x.order)
            t1 = perf()
            digits = (first,) + tuple(x.digit(x.order + i) for i in range(1, req.digits))
            t2 = perf()
            return Outcome(digits, t0, t1 - t0, t2 - t0, req.digits, traces)
        d, value, traces = self.cli.eval_expression(node, trace=words)
        if req.kind == "digit":
            out = d.digit(req.position)
            t2 = t1 = perf()
            count = 1
        else:
            d.digit(d.order)
            t1 = perf()
            out = self.decimals.render_digits(d, req.digits)
            t2 = perf()
            count = len(out) - out.count("-") - out.count(".")
        return Outcome((out, value), t0, t1 - t0, t2 - t0, count, traces)

    def _padic(self, node, p, words):
        padic = self.padic

        def build(n):
            if n[0] == "lit":
                return padic.padic_from_rational(p, n[1].value())
            lhs, rhs = build(n[1]), build(n[2])
            return padic.padic_add(lhs, rhs) if n[0] == "add" else padic.padic_mul(lhs, rhs)

        if not words or node[0] == "lit":
            return build(node), None
        (lhs, tl), (rhs, tr) = padic.traced_padic(build(node[1])), padic.traced_padic(build(node[2]))
        op = padic.padic_add if node[0] == "add" else padic.padic_mul
        return op(lhs, rhs), (tl, tr)


def expected_output(req):
    out = workloads.expected(req)
    return out if req.kind == "padic" else (out, req.value)


class Rounds:
    """The workload's rounds of requests.  Round n is generated fresh for
    every n, so no request repeats within a run.  Round 0 is kept for the
    warm-up, the traced run and the input description."""

    def __init__(self, workload, seed, budget):
        self.workload, self.seed, self.budget = workload, seed, budget
        self.first = workloads.generate(workload, seed, budget, 0)

    def get(self, n):
        return self.first if n == 0 else workloads.generate(
            self.workload, self.seed, self.budget, n)


class Checker:
    """Counts attempts and failures.  Outputs wait until ``settle``, which
    checks them against the oracle outside the timed region."""

    def __init__(self):
        self.pending = []
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, client, req, words=False):
        self.attempted += 1
        try:
            outcome = client.execute(req, words)
        except Exception:  # a failed request is counted, and the loop goes on
            self.failed += 1
            if len(self.errors) < 3:
                self.errors.append(f"{req.expr}: {traceback.format_exc(limit=3)}")
            return None
        self.pending.append((req, outcome.output))
        return outcome

    def settle(self):
        """Check the outputs gathered since the last call; True if no request
        of the run has failed so far."""
        for req, output in self.pending:
            if output != expected_output(req):
                self.failed += 1
                if len(self.errors) < 6:
                    self.errors.append(f"{req.expr}: wrong output")
        self.pending.clear()
        return self.failed == 0


def setup(workload, seed, host):
    """Import decreal, generate the first round and warm up, ``SETUP_REPEATS``
    times from a fresh import.  Returns the last client and its rounds, and
    the median time of one set-up, unscaled and scaled to nominal host speed."""
    took, first = [], None
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "decreal" or m.startswith("decreal.")]:
            del sys.modules[name]
        host.sample(hostspeed.WINDOW)
        t0 = perf()
        client = Client()
        rounds = Rounds(workload, seed, client.sign_budget)
        pool = rounds.first
        client.execute(min(pool, key=lambda r: (r.digits, -r.position)))
        took.append((t0, perf() - t0))
        if first is not None and pool != first:
            raise SystemExit("bench: the same seed gave different inputs")
        first = pool
    host.sample(hostspeed.WINDOW)
    raw = statistics.median(t for _, t in took)
    return client, rounds, raw, statistics.median(t * host.scale(t0) for t0, t in took)


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Samples:
    """Per-request timings of a run, in flat arrays, so the harness's own
    memory barely grows with the number of requests."""

    def __init__(self):
        self.start, self.ttfd, self.latency = array("d"), array("d"), array("d")
        self.digits = 0

    def add(self, outcome):
        self.start.append(outcome.start)
        self.ttfd.append(outcome.ttfd)
        self.latency.append(outcome.latency)
        self.digits += outcome.digits


def run_untraced(client, checker, rounds, seconds, host):
    """Whole rounds while another round fits in ``seconds``."""
    samples = Samples()
    start, done = perf(), 0
    host.sample()
    while True:
        for req in rounds.get(done):
            outcome = checker.run(client, req)
            if outcome is not None:
                samples.add(outcome)
            host.tick()
        checker.settle()
        done += 1
        elapsed = perf() - start
        if elapsed * (done + 1) / done > seconds:
            host.sample(hostspeed.WINDOW)
            return samples, done


def end_to_end(samples, checker, setup_s, peak_rss_mb, scale):
    """The end-to-end metrics, with every time multiplied by ``scale(start)``
    of its request."""
    factors = [scale(t) for t in samples.start]
    lat = [t * f for t, f in zip(samples.latency, factors)]
    return {
        "digits_per_s": samples.digits / sum(lat),
        "latency_p50_ms": 1e3 * quantile(lat, 50),
        "latency_p90_ms": 1e3 * quantile(lat, 90),
        "ttfd_p50_ms": 1e3 * quantile([t * f for t, f in zip(samples.ttfd, factors)], 50),
        "success_rate": 1 - checker.failed / checker.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def traced_pool(workload, rounds):
    return rounds.first[:TRACED_REQUESTS.get(workload)]


def run_traced(client, checker, pool, seconds):
    """One pass that reads the top-level operands through ``ReadTrace``; then
    untraced and traced passes in turn while another pair fits in
    ``seconds``.  Repeating one pool keeps every count of a pass exactly the
    same."""
    start = perf()
    read_total = read_depth = 0
    for req in pool:
        outcome = checker.run(client, req, words=True)
        for t in (outcome.traces or ()) if outcome else ():
            if t.total:
                read_total += t.total
                read_depth += t.max_index - t.min_index + 1
    checker.settle()
    tracer = tracing.Tracer()
    plain = traced = 0.0
    passes = 0
    while True:
        t0 = perf()
        for req in pool:
            checker.run(client, req)
        plain += perf() - t0
        remove = tracing.instrument(tracer)
        try:
            t0 = perf()
            for i, req in enumerate(pool):
                tracer.begin_request(passes * len(pool) + i)
                tracer.enter("request")
                try:
                    checker.run(client, req)
                finally:
                    tracer.exit()
            traced += perf() - t0
        finally:
            remove()
        checker.settle()
        passes += 1
        if perf() - start + (plain + traced) / passes > seconds:
            break
    metrics = tracing.layer_metrics(tracer, passes)
    metrics["words.read_total"] = read_total
    metrics["words.read_depth"] = read_depth
    metrics["trace.overhead"] = traced / plain
    return metrics, tracer, passes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    use_checkout_sources()
    host = hostspeed.HostSpeed()
    client, rounds, setup_raw, setup_s = setup(args.workload, args.seed, host)
    checker = Checker()

    if args.trace:
        pool = traced_pool(args.workload, rounds)
        metrics, tracer, passes = run_traced(client, checker, pool, args.seconds)
        units = dict(tracing.PER_LAYER)
    else:
        samples, passes = run_untraced(client, checker, rounds, args.seconds, host)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = dict(END_TO_END)
    correct = checker.settle()
    if not args.trace:
        metrics = end_to_end(samples, checker, setup_s, peak_rss_mb, host.scale)
        unscaled = end_to_end(samples, checker, setup_raw, peak_rss_mb, lambda t: 1.0)

    described = pool if args.trace else rounds.first
    inputs = workloads.describe(described)
    loop = (f"{passes} passes over {len(pool)} requests of round 0" if args.trace
            else f"{passes} rounds of {len(described)} requests")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {loop}, "
          f"{checker.attempted} requests checked, one closed-loop client")
    print("inputs " + json.dumps(inputs, sort_keys=True))
    print(f"error_rate = {checker.failed / checker.attempted} "
          f"({checker.failed} failed of {checker.attempted})")
    for err in checker.errors:
        print("failure: " + err, file=sys.stderr)
    for name, value in metrics.items():
        raw = "" if args.trace else f" (unscaled {unscaled[name]:.6g})"
        print(f"{name} = {value:.6g} {units[name]}{raw}")
    if args.trace:
        out = BENCH / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "passes": passes,
            "inputs": inputs, "metrics": metrics,
            "span_fields": ["id", "parent", "request", "name", "start", "end"],
            "spans": tracer.spans,
        }))
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
