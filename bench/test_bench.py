"""Tests of the benchmark's own code: self time, enumeration spans, output checks.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

import run
import tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


def by_layer(t: tracer.Tracer) -> dict:
    return {span.layer: span for span in t.spans}


def test_nested_spans_subtract_only_their_children(clock):
    t = tracer.Tracer(cmd=3, clock=clock)

    def inner():
        clock.advance(2.0)

    def middle():
        clock.advance(1.0)
        wrapped_inner()
        clock.advance(1.0)
        wrapped_inner()

    def outer():
        clock.advance(0.5)
        wrapped_middle()
        clock.advance(0.5)

    wrapped_inner = tracer.wrap(t, "symfunc", "inner", inner)
    wrapped_middle = tracer.wrap(t, "coefficients", "middle", middle)
    tracer.wrap(t, "cli", "outer", outer)()

    spans = t.spans
    assert [s.layer for s in spans] == ["cli", "coefficients", "symfunc", "symfunc"]
    assert [s.parent for s in spans] == [None, 0, 1, 1]
    assert all(s.cmd == 3 for s in spans)
    assert [s.busy for s in spans] == [7.0, 6.0, 2.0, 2.0]
    assert [s.self_s for s in spans] == [1.0, 2.0, 2.0, 2.0]
    assert (spans[1].start, spans[1].end) == (0.5, 6.5)
    self_s, busy_s = t.layer_sums()
    assert self_s == {"cli": 1.0, "coefficients": 2.0, "symfunc": 4.0}
    assert sum(self_s.values()) == spans[0].busy


def test_generator_next_intervals_interleave_with_consumer_spans(clock):
    t = tracer.Tracer(clock=clock)

    def enumerate_partitions(n):
        for item in range(n):
            clock.advance(1.0)  # work done inside next()
            yield item

    def elementary_moments(item):
        clock.advance(0.25)

    enum = tracer.wrap(t, "partitions", "enumerate_partitions", enumerate_partitions)
    moments = tracer.wrap(t, "symfunc", "elementary_moments", elementary_moments)

    def table():
        for item in enum(3):
            clock.advance(0.5)  # consumer's own work between next() calls
            moments(item)

    tracer.wrap(t, "coefficients", "table", table)()

    spans = by_layer(t)
    gen, consumer = spans["partitions"], spans["coefficients"]
    assert gen.parent == consumer.id and spans["symfunc"].parent == consumer.id
    # three yielding next() calls plus the one that raises StopIteration
    assert gen.busy == pytest.approx(3.0)
    assert gen.self_s == pytest.approx(3.0)
    assert (gen.start, gen.end) == (0.0, pytest.approx(5.25))
    assert consumer.busy == pytest.approx(5.25)
    assert consumer.self_s == pytest.approx(1.5)
    symfunc = [s for s in t.spans if s.layer == "symfunc"]
    assert len(symfunc) == 3 and sum(s.self_s for s in symfunc) == pytest.approx(0.75)
    assert t.counts["partitions.yielded"] == 3
    assert t.counts["partitions.enumerated"] == 3


def test_same_layer_recursion_is_counted_but_not_spanned(clock):
    t = tracer.Tracer(clock=clock)

    def stirling2(n):
        clock.advance(1.0)
        return 1 if n == 0 else wrapped(n - 1)

    wrapped = tracer.wrap(t, "bell", "stirling2", stirling2)
    tracer.wrap(t, "verification", "suite", lambda: wrapped(4))()

    assert t.calls["bell.stirling2"] == 5
    bell = [s for s in t.spans if s.layer == "bell"]
    assert len(bell) == 1
    assert bell[0].busy == bell[0].self_s == 5.0
    assert by_layer(t)["verification"].self_s == 0.0


def test_unspanned_inner_enumeration_counts_toward_keep_ratio(clock):
    t = tracer.Tracer(clock=clock)
    enum = tracer.wrap(t, "partitions", "enumerate_partitions", lambda n: iter(range(n)))
    constrained = tracer.wrap(
        t, "partitions", "enumerate_constrained", lambda n: (x for x in enum(n) if x % 4 == 0)
    )
    assert list(constrained(8)) == [0, 4]
    assert len(t.spans) == 1
    metrics = tracer.layer_metrics({"counts": dict(t.counts), "calls": dict(t.calls)})
    assert metrics["partitions.keep_ratio"] == 2 / 8
    assert metrics["partitions.calls"] == 2
    assert metrics["polynomials.mul_calls"] == 0


def test_merge_adds_nested_sums():
    merged = tracer.merge(
        [{"calls": {"a": 1}, "output_bytes": 2}, {"calls": {"a": 2, "b": 1}, "output_bytes": 3}]
    )
    assert merged == {"calls": {"a": 3, "b": 1}, "output_bytes": 5}


def _golden_verify_report(golden: dict, seed: int) -> dict:
    return {
        "config": {"seed": seed},
        "identities": [
            {"key": key, "instances": instances, "failures": failures}
            for key, instances, failures in golden["verify_counts"]
        ],
        "passed": True,
    }


def test_corrupted_output_counts_as_a_failure(monkeypatch):
    golden = {"digests": {"partitions --n 2 --format csv": hashlib.sha256(b"2\n1 1\n").hexdigest()}}
    replies = iter([(0, b"2\n1 1\n", 10.0), (0, b"2\n1 2\n", 12.0), (1, b"2\n1 1\n", 11.0)])
    monkeypatch.setattr(run, "run_command", lambda argv, env, timeout: next(replies))
    runner = run.Runner(golden, deadline=float("inf"))
    argv = ["partitions", "--n", "2", "--format", "csv"]
    record = runner.run_pass([argv, argv, argv], traced=False)
    assert record["failed"] == 2 and record["peak_rss_mb"] == 12.0
    assert (runner.attempted, runner.failed) == (3, 2)


def test_unrecorded_verify_seed_is_checked_by_suite_counts():
    golden = json.loads((run.BENCH / "golden.json").read_text(encoding="utf-8"))
    argv = run.VERIFY + ["123456"]
    report = _golden_verify_report(golden, 123456)
    assert run.output_ok(argv, 0, json.dumps(report).encode(), golden)
    assert not run.output_ok(argv, 1, json.dumps(report).encode(), golden)
    assert not run.output_ok(run.VERIFY + ["7"], 0, json.dumps(report).encode(), golden)
    report["identities"][0]["failures"] += 1
    assert not run.output_ok(argv, 0, json.dumps(report).encode(), golden)
    assert not run.output_ok(argv, 0, b"not json", golden)


def test_traced_command_reports_every_layer(tmp_path):
    out = tmp_path / "raw.json"
    argv = ["coeff", "--n", "4", "--s", "1", "--verify", "--format", "csv"]
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    traced = [sys.executable, str(run.BENCH / "tracer.py"), "--out", str(out), "--", *argv]
    done = subprocess.run(traced, cwd=run.ROOT, env=env, capture_output=True, check=True)
    plain = subprocess.run(
        [sys.executable, "-m", "faadibruno", *argv],
        cwd=run.ROOT,
        env=env,
        capture_output=True,
        check=True,
    )
    assert done.stdout == plain.stdout
    metrics = tracer.layer_metrics(json.loads(out.read_text(encoding="utf-8")))
    lines = plain.stdout.decode().splitlines()
    assert metrics["coefficients.c_coeff_calls"] == len(lines)
    assert metrics["partitions.yielded"] == len(lines)
    assert 0 < metrics["partitions.keep_ratio"] < 1
    assert metrics["symfunc.calls"] == len(lines)  # one elementary vector per c_coeff
    assert metrics["coefficients.recurrence_calls"] > len(lines)
    assert metrics["polynomials.mul_calls"] == 0 and metrics["diffalg.derive_calls"] == 0
    assert metrics["cli.self_s"] > 0 and metrics["coefficients.self_s"] > 0
