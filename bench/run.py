"""End-to-end benchmark of the ``faadibruno`` command line.

    python3 bench/run.py --workload verify-suite --seed 0 --seconds 40 --trace 0

Each command of a workload runs in a fresh ``python -m faadibruno`` process,
one at a time (a closed loop with one client), so a pass pays what a user
pays per command: interpreter start plus cold caches.  Passes repeat until
the next one would end after ``--seconds``.  Every command's stdout is
checked against the digests and counts in ``bench/golden.json``.

With ``--trace 0`` the last line reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` each pass is replayed under
``bench/tracer.py`` and the last line reports the per-layer metrics.  The line
before it records the environment and every pass.  See ``bench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer  # bench/ is on sys.path when run as a script

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TRACE_DIR = ROOT / ".bench_build"

VERIFY = ["verify", "--max-n", "7", "--max-s", "3", "--trials", "50", "--seed"]
COEFF = ["--verify", "--format", "csv"]
# name -> (items one pass handles, commands of one pass for a verify seed)
WORKLOADS = {
    # identity instances checked
    "verify-suite": (36933, lambda seed: [VERIFY + [str(seed)]]),
    # coefficients emitted: 461 + 8901
    "coeff-tables": (
        9362,
        lambda seed: [
            ["coeff", "--n", "10", "--s", "4", *COEFF],
            ["coeff", "--n", "22", "--s", "0", *COEFF],
        ],
    ),
    # partitions listed
    "partitions-listing": (204226, lambda seed: [["partitions", "--n", "50", "--format", "csv"]]),
}
SETUP_SAMPLES = 3  # `import faadibruno` timings taken before each pass
# Pass i of a run uses verify seed (seed + i) % VERIFY_PANEL.  One verify
# takes 4.5-7.3 s depending on its seed, so every run weighs the same fixed
# panel of inputs equally; golden.json has a digest for each.
VERIFY_PANEL = 4
RUN_LIMIT_S = 170.0  # every command is killed once a run has lasted this long


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def run_command(argv: list[str], env: dict, timeout: float) -> tuple[int, bytes, float]:
    """(exit status, stdout, peak RSS in MB) of one child, reaped with wait4.

    ``getrusage(RUSAGE_CHILDREN)`` would give the high-water mark of every
    child reaped so far; ``wait4`` gives this child's own peak.
    """
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        _, wait_status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
        proc.stdout.close()
    return proc.returncode, out, usage.ru_maxrss / 1024.0


def output_ok(argv: list[str], status: int, out: bytes, golden: dict) -> bool:
    """Exit 0 and the stdout recorded at the seed commit.

    A verify seed without a recorded digest must pass with the recorded
    per-suite instance and failure counts, which do not depend on the seed.
    """
    if status != 0:
        return False
    digest = golden["digests"].get(" ".join(argv))
    if digest is not None:
        return hashlib.sha256(out).hexdigest() == digest
    if argv[: len(VERIFY)] != VERIFY:
        return False
    try:
        report = json.loads(out)
        counts = [[s["key"], s["instances"], s["failures"]] for s in report["identities"]]
        return (
            report["passed"] is True
            and report["config"]["seed"] == int(argv[-1])
            and counts == golden["verify_counts"]
        )
    except (ValueError, KeyError, TypeError):
        return False


def loadavg() -> list[float]:
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return [float(x) for x in handle.read().split()[:3]]
    except OSError:
        return []


def git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=False,
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


class Runner:
    def __init__(self, golden: dict, deadline: float):
        self.golden = golden
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.attempted = 0
        self.failed = 0

    def _timeout(self) -> float:
        return self.deadline - time.perf_counter()

    def preflight(self) -> None:
        """Fail unless the checkout's own ``src/`` provides the package."""
        init = ROOT / "src" / "faadibruno" / "__init__.py"
        if not init.is_file():
            raise BenchError(f"{init.relative_to(ROOT)} is missing")
        probe = "import faadibruno; print(faadibruno.__file__)"
        status, out, _ = run_command([sys.executable, "-c", probe], self.env, self._timeout())
        if status != 0 or Path(out.decode().strip()).resolve() != init.resolve():
            raise BenchError("faadibruno does not import from this checkout's src/")

    def setup_time(self) -> float:
        start = time.perf_counter()
        status, _, _ = run_command(
            [sys.executable, "-c", "import faadibruno"], self.env, self._timeout()
        )
        elapsed = time.perf_counter() - start
        if status != 0:
            raise BenchError("import faadibruno failed")
        return elapsed

    def run_pass(self, commands: list[list[str]], traced: bool) -> dict:
        load_before = loadavg()
        rss = 0.0
        failed = 0
        output_bytes = 0
        trace_files = []
        command_s = []
        start = time.perf_counter()
        for cmd_id, argv in enumerate(commands):
            if traced:
                trace_file = TRACE_DIR / f"trace-{os.getpid()}-{cmd_id}.json"
                trace_files.append(trace_file)
                child = [sys.executable, str(BENCH / "tracer.py"), "--out", str(trace_file)]
                child += ["--cmd", str(cmd_id), "--", *argv]
            else:
                child = [sys.executable, "-m", "faadibruno", *argv]
            command_start = time.perf_counter()
            status, out, child_rss = run_command(child, self.env, self._timeout())
            command_s.append(time.perf_counter() - command_start)
            rss = max(rss, child_rss)
            output_bytes += len(out)
            if not output_ok(argv, status, out, self.golden):
                failed += 1
                print(f"output check failed: {' '.join(argv)} (exit {status})", file=sys.stderr)
        wall = time.perf_counter() - start
        self.attempted += len(commands)
        self.failed += failed
        record = {
            "input": " ; ".join(" ".join(argv) for argv in commands),
            "traced": traced,
            "wall_s": wall,
            "command_s": command_s,
            "peak_rss_mb": rss,
            "failed": failed,
            "loadavg_before": load_before,
            "loadavg_after": loadavg(),
        }
        if traced:
            raws = []
            for trace_file in trace_files:
                if trace_file.is_file():  # absent when the command crashed
                    raws.append(json.loads(trace_file.read_text(encoding="utf-8")))
                    trace_file.unlink()
            record["raw"] = tracer.merge(raws + [{"output_bytes": output_bytes}])
        return record


def measure(runner: Runner, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat passes until the next one would end after *seconds*.

    Untraced passes step through the verify panel, so a run of at least
    VERIFY_PANEL passes covers all of it; a traced run replays one seed in
    every pass so its traced and untraced passes see the same input.
    """
    items, commands = WORKLOADS[workload]
    setup, plain, traced = [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        pass_seed = (seed + (0 if trace else index)) % VERIFY_PANEL
        setup += [runner.setup_time() for _ in range(SETUP_SAMPLES)]
        plain.append(runner.run_pass(commands(pass_seed), traced=False))
        if trace:
            traced.append(runner.run_pass(commands(pass_seed), traced=True))
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed * (index + 1) / index > seconds or runner.failed:
            break
    return {"items": items, "setup": setup, "plain": plain, "traced": traced}


def end_to_end(run: dict) -> dict:
    # each distinct input (verify seed) weighs the same, however many passes
    # it got, so runs of different lengths measure the same mix
    by_input: dict[str, list[float]] = {}
    for p in run["plain"]:
        by_input.setdefault(p["input"], []).append(p["wall_s"])
    wall = statistics.mean(statistics.mean(walls) for walls in by_input.values())
    return {
        "wall_s": wall,
        "items_per_s": run["items"] / wall,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in run["plain"]),
        "setup_s": statistics.median(run["setup"]),
    }


def per_layer(run: dict) -> dict:
    per_pass = [tracer.layer_metrics(p["raw"]) for p in run["traced"]]
    names = set().union(*per_pass)
    metrics = {name: statistics.median(m.get(name, 0) for m in per_pass) for name in names}
    metrics["trace.overhead_s"] = statistics.median(
        p["wall_s"] for p in run["traced"]
    ) - statistics.median(p["wall_s"] for p in run["plain"])
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="faadibruno end-to-end benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
    runner = Runner(golden, deadline=time.perf_counter() + RUN_LIMIT_S)
    try:
        runner.preflight()
        TRACE_DIR.mkdir(exist_ok=True)
        run = measure(runner, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    values = per_layer(run) if args.trace else end_to_end(run)
    section = spec["per_layer" if args.trace else "end_to_end"]
    # a layer that is never entered reads 0, not missing
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in section}
    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
    }
    passes = [{k: v for k, v in p.items() if k != "raw"} for p in run["plain"] + run["traced"]]
    fail_frac = runner.failed / max(runner.attempted, 1)
    record = {"env": env, "fail_frac": fail_frac, "setup_s": run["setup"], "passes": passes}
    print(json.dumps(record))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
