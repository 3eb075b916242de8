"""Layer tracer for the benchmark: spans and counters recorded from outside the program.

Run as a script, it wraps the public functions of every ``faadibruno`` module,
runs one CLI command through ``faadibruno.cli.main`` and writes the raw
per-layer sums as JSON:

    PYTHONPATH=src python bench/tracer.py --out FILE --cmd ID -- coeff --n 4 --s 1

A span is recorded at each call that crosses from one layer (module) into
another; a call into the layer already on top of the span stack is counted
but gets no span.  An enumeration generator gets one span per call, and each
``next()`` on it is one more busy interval of that span.  Self time is
computed online: each interval, when it closes, adds its duration to the
child time of the interval below it on the stack, so a span's self time is
its busy time minus the time its nested intervals covered.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "partitions",
    "symfunc",
    "coefficients",
    "diffalg",
    "polynomials",
    "bell",
    "verification",
    "cli",
)

# functions returning an iterator whose next() calls are busy intervals
GENERATORS = {"partitions.enumerate_partitions", "partitions.enumerate_constrained"}
# inclusive wall timers, kept per verify suite as well
TIMED = {
    "diffalg.derive",
    "diffalg.formula_expansion",
    "polynomials.RationalPolynomial.__mul__",
}
ORACLE_SUITE = "derivative_oracle_matches_formula"


class Span:
    __slots__ = ("id", "layer", "name", "parent", "cmd", "start", "end", "busy", "self_s")

    def __init__(self, span_id: int, layer: str, name: str, parent: int | None, cmd: int):
        self.id = span_id
        self.layer = layer
        self.name = name
        self.parent = parent
        self.cmd = cmd
        self.start: float | None = None
        self.end: float | None = None
        self.busy = 0.0
        self.self_s = 0.0


class Tracer:
    """In-memory spans, call counts, counters and timers of one traced command."""

    def __init__(self, cmd: int = 0, clock=time.perf_counter):
        self.cmd = cmd
        self.clock = clock
        self.spans: list[Span] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.timers: defaultdict = defaultdict(float)
        self.suite: str | None = None
        self.recurrence_keys: set = set()
        # open intervals: [span, interval start, time covered by nested intervals]
        self._stack: list[list] = []

    def open(self, layer: str, name: str) -> Span | None:
        """A new span for a call into *layer*, or None for a same-layer call."""
        parent = self._stack[-1][0] if self._stack else None
        if parent is not None and parent.layer == layer:
            return None
        span = Span(len(self.spans), layer, name, parent.id if parent else None, self.cmd)
        self.spans.append(span)
        return span

    def enter(self, span: Span) -> None:
        """Start one busy interval of *span*."""
        self._stack.append([span, self.clock(), 0.0])

    def exit(self) -> None:
        """Close the innermost busy interval."""
        span, start, covered = self._stack.pop()
        end = self.clock()
        duration = end - start
        if span.start is None:
            span.start = start
        span.end = end
        span.busy += duration
        span.self_s += duration - covered
        if self._stack:
            self._stack[-1][2] += duration

    def add_time(self, key: str, seconds: float) -> None:
        self.timers[key] += seconds
        if self.suite is not None:
            self.timers[f"{key}@{self.suite}"] += seconds

    def layer_sums(self) -> tuple[dict, dict]:
        """(self seconds, busy seconds) summed over each layer's spans."""
        self_s: defaultdict = defaultdict(float)
        busy_s: defaultdict = defaultdict(float)
        for span in self.spans:
            self_s[span.layer] += span.self_s
            busy_s[span.layer] += span.busy
        return dict(self_s), dict(busy_s)


class _TracedIter:
    """Counts the items of an enumeration; each next() is a busy interval of its span."""

    __slots__ = ("_it", "_tracer", "_span", "_keys")

    def __init__(self, it, tracer: Tracer, span: Span | None, keys: tuple[str, ...]):
        self._it = iter(it)
        self._tracer = tracer
        self._span = span
        self._keys = keys

    def __iter__(self):
        return self

    def __next__(self):
        span = self._span
        if span is not None:
            self._tracer.enter(span)
        try:
            item = next(self._it)
        finally:
            if span is not None:
                self._tracer.exit()
        counts = self._tracer.counts
        for key in self._keys:
            counts[key] += 1
        return item


def wrap(tracer: Tracer, layer: str, name: str, fn, observe=None):
    """Wrap *fn* so each call is counted and, when it enters a new layer, spanned."""
    key = f"{layer}.{name}"
    timed = key in TIMED
    generator = key in GENERATORS
    # every partition produced, including those enumerate_constrained discards
    produced = ("partitions.enumerated",) if key == "partitions.enumerate_partitions" else ()
    calls = tracer.calls
    clock = tracer.clock

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[key] += 1
        span = tracer.open(layer, name)
        if span is not None:
            tracer.enter(span)
        start = clock() if timed else 0.0
        try:
            result = fn(*args, **kwargs)
        finally:
            if timed:
                tracer.add_time(key, clock() - start)
            if span is not None:
                tracer.exit()
        if observe is not None:
            observe(args, result)
        if generator:
            # yielded: items an enumeration hands to another layer
            delivered = ("partitions.yielded",) if span is not None else ()
            result = _TracedIter(result, tracer, span, delivered + produced)
        return result

    return wrapper


def _public_functions(module) -> dict:
    # functions (plain or lru-cached) defined in the module itself
    out = {}
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            out[attr] = obj
    return out


def install(tracer: Tracer) -> dict:
    """Patch the imported ``faadibruno`` package; returns the original cached callables.

    A name imported with ``from .x import f`` is a second binding of ``f``, so
    each wrapper is rebound in every module that holds the original object.
    """
    import faadibruno
    from faadibruno import bell, coefficients, polynomials, verification

    caches = {"partial_bell": bell.partial_bell, "stirling2": bell.stirling2}

    def observe_value(args, result):
        evaluator, lam, r = args
        tracer.recurrence_keys.add((evaluator.s, lam, r))

    def observe_mul(args, result):
        if result is NotImplemented:
            return
        a, b = args
        tracer.counts["polynomials.mul_ops"] += len(a.coeffs) * len(b.coeffs)
        tracer.counts["polynomials.mul_out_bits"] += sum(
            c.numerator.bit_length() + c.denominator.bit_length() for c in result.coeffs
        )

    def observe_derive(args, result):
        tracer.counts["diffalg.derive_terms_out"] += len(result)

    observers = {"diffalg.derive": observe_derive}
    modules = [faadibruno] + [sys.modules[f"faadibruno.{layer}"] for layer in LAYERS]
    for layer in LAYERS:
        for attr, fn in _public_functions(sys.modules[f"faadibruno.{layer}"]).items():
            wrapped = wrap(tracer, layer, attr, fn, observers.get(f"{layer}.{attr}"))
            for module in modules:
                for name, obj in list(vars(module).items()):
                    if obj is fn:
                        setattr(module, name, wrapped)

    evaluator = coefficients.RecurrenceEvaluator
    evaluator.value = wrap(
        tracer, "coefficients", "RecurrenceEvaluator.value", evaluator.value, observe_value
    )
    poly = polynomials.RationalPolynomial
    poly.__mul__ = wrap(
        tracer, "polynomials", "RationalPolynomial.__mul__", poly.__mul__, observe_mul
    )
    poly.compose = wrap(tracer, "polynomials", "RationalPolynomial.compose", poly.compose)

    def suite(key, runner):
        @functools.wraps(runner)
        def timed_runner(*args, **kwargs):
            tracer.suite = key
            start = tracer.clock()
            try:
                result = runner(*args, **kwargs)
            finally:
                tracer.timers[f"verification.suite_s.{key}"] += tracer.clock() - start
                tracer.suite = None
            tracer.counts["verification.instances"] += result[0]
            return result

        return timed_runner

    verification.SUITES = tuple(
        (key, statement, suite(key, runner), informational)
        for key, statement, runner, informational in verification.SUITES
    )
    return caches


def raw_sums(tracer: Tracer, caches: dict) -> dict:
    """The JSON-ready sums of one traced command; the benchmark adds them up per pass."""
    self_s, busy_s = tracer.layer_sums()
    return {
        "calls": dict(tracer.calls),
        "counts": dict(tracer.counts),
        "timers": dict(tracer.timers),
        "self_s": self_s,
        "busy_s": busy_s,
        "recurrence_keys": len(tracer.recurrence_keys),
        "caches": {
            name: {"hits": fn.cache_info().hits, "misses": fn.cache_info().misses}
            for name, fn in caches.items()
        },
    }


def merge(raws: list[dict]) -> dict:
    """Add up the raw sums of several commands, key by key."""
    total: dict = {}
    for raw in raws:
        _add_into(total, raw)
    return total


def _add_into(total: dict, raw: dict) -> None:
    for key, value in raw.items():
        if isinstance(value, dict):
            _add_into(total.setdefault(key, {}), value)
        else:
            total[key] = total.get(key, 0) + value


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: dict) -> dict:
    """Per-layer metrics from merged raw sums; a layer never entered reads 0."""
    calls, counts, timers = raw.get("calls", {}), raw.get("counts", {}), raw.get("timers", {})
    self_s, busy_s = raw.get("self_s", {}), raw.get("busy_s", {})

    def layer_calls(layer: str) -> int:
        return sum(n for key, n in calls.items() if key.startswith(layer + "."))

    def hit_ratio(name: str) -> float:
        cache = raw.get("caches", {}).get(name, {})
        hits = cache.get("hits", 0)
        return _ratio(hits, hits + cache.get("misses", 0))

    recurrence_calls = calls.get("coefficients.RecurrenceEvaluator.value", 0)
    recurrence_keys = raw.get("recurrence_keys", 0)
    metrics = {
        "partitions.calls": layer_calls("partitions"),
        "partitions.yielded": counts.get("partitions.yielded", 0),
        "partitions.busy_s": busy_s.get("partitions", 0.0),
        "partitions.keep_ratio": _ratio(
            counts.get("partitions.yielded", 0), counts.get("partitions.enumerated", 0)
        ),
        "symfunc.calls": layer_calls("symfunc"),
        "symfunc.self_s": self_s.get("symfunc", 0.0),
        "coefficients.c_coeff_calls": calls.get("coefficients.c_coeff", 0),
        "coefficients.recurrence_calls": recurrence_calls,
        "coefficients.recurrence_hit_ratio": (
            1.0 - recurrence_keys / recurrence_calls if recurrence_calls else 0.0
        ),
        "coefficients.self_s": self_s.get("coefficients", 0.0),
        "diffalg.derive_calls": calls.get("diffalg.derive", 0),
        "diffalg.derive_terms_out": counts.get("diffalg.derive_terms_out", 0),
        "diffalg.derive_s": timers.get("diffalg.derive", 0.0),
        "diffalg.formula_s": timers.get("diffalg.formula_expansion", 0.0),
        "diffalg.formula_over_oracle": _ratio(
            timers.get(f"diffalg.formula_expansion@{ORACLE_SUITE}", 0.0),
            timers.get(f"diffalg.derive@{ORACLE_SUITE}", 0.0),
        ),
        "polynomials.mul_calls": calls.get("polynomials.RationalPolynomial.__mul__", 0),
        "polynomials.mul_ops": counts.get("polynomials.mul_ops", 0),
        "polynomials.mul_out_bits": counts.get("polynomials.mul_out_bits", 0),
        "polynomials.mul_s": timers.get("polynomials.RationalPolynomial.__mul__", 0.0),
        "polynomials.compose_calls": calls.get("polynomials.RationalPolynomial.compose", 0),
        "polynomials.self_s": self_s.get("polynomials", 0.0),
        "bell.modified_partial_calls": calls.get("bell.modified_partial_bell", 0),
        "bell.self_s": self_s.get("bell", 0.0),
        "bell.partial_bell_hit_ratio": hit_ratio("partial_bell"),
        "bell.stirling2_hit_ratio": hit_ratio("stirling2"),
        "verification.instances": counts.get("verification.instances", 0),
        "cli.self_s": self_s.get("cli", 0.0),
        "cli.output_bytes": raw.get("output_bytes", 0),
    }
    metrics.update(
        (key, value) for key, value in timers.items() if key.startswith("verification.suite_s.")
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="file the raw sums are written to")
    parser.add_argument("--cmd", type=int, default=0, help="command id stored in each span")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the CLI arguments")
    args = parser.parse_args(argv)
    cli_argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    import faadibruno.cli

    tracer = Tracer(cmd=args.cmd)
    caches = install(tracer)
    try:
        status = faadibruno.cli.main(cli_argv)
    except SystemExit as exc:  # argparse usage errors
        status = exc.code if isinstance(exc.code, int) else 2
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(raw_sums(tracer, caches), handle)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
