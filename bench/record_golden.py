"""Write ``bench/golden.json``: stdout digests of every benchmark command.

Run once, from the root of a checkout of the commit whose output is the
reference (the seed commit ``d081a56``).  Outputs are meant to stay
byte-identical, so a later commit must not re-record them:

    python3 bench/record_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import run

def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    commands = [argv for _, make in run.WORKLOADS.values() for argv in make(0)]
    commands += [run.VERIFY + [str(seed)] for seed in range(1, run.VERIFY_PANEL)]
    digests = {}
    verify_counts = None
    for argv in commands:
        status, out, _ = run.run_command([sys.executable, "-m", "faadibruno", *argv], env, 600)
        if status != 0:
            print(f"exit {status}: {' '.join(argv)}", file=sys.stderr)
            return 1
        digests[" ".join(argv)] = hashlib.sha256(out).hexdigest()
        if argv[: len(run.VERIFY)] == run.VERIFY:
            report = json.loads(out)
            counts = [[s["key"], s["instances"], s["failures"]] for s in report["identities"]]
            if verify_counts not in (None, counts):
                print(f"per-suite counts depend on the seed: {argv[-1]}", file=sys.stderr)
                return 1
            verify_counts = counts
    golden = {"commit": "d081a56", "digests": digests, "verify_counts": verify_counts}
    (run.BENCH / "golden.json").write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
