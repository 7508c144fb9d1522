"""Self-test of the benchmark's layer timers.

    python3 perfbench/selftest.py

Runs every workload once with ``--trace 1`` for ``BENCHMARK.json``'s
``run_seconds`` and asserts, per ``metrics.PER_LAYER``:

* every per-layer metric is non-zero on the workloads its layer runs on --
  a timer wrapped where the caller does not look the name up reads 0;
* the layers that must not run read exactly 0: ``graph.decompose_calls``
  and ``core.trainer_predict_calls`` (and the rest of graph construction
  and the GNN forwards) on warm-dse.

Exits 1 on any violation.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import metrics

ROOT = Path(__file__).resolve().parents[1]


def layer_problems(workload: str) -> list[str]:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", str(metrics.spec()["run_seconds"]), "--trace", "1"]
    process = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = process.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return [f"{workload}: no result line (exit {process.returncode}): "
                f"{process.stderr.strip()[-2000:]}"]
    problems = []
    if process.returncode or not result["correct"]:
        problems.append(f"{workload}: run failed its output checks (exit {process.returncode})")
    values = result["metrics"]
    for name, entry in metrics.PER_LAYER.items():
        if name not in values:
            problems.append(f"{workload}: {name} missing")
            continue
        value = values[name]["value"]
        if workload in entry.active and not value:
            problems.append(f"{workload}: {name} is 0 but its layer runs here")
        if workload in entry.zero and value != 0:
            problems.append(f"{workload}: {name} is {value}, expected exactly 0")
    return problems


def main() -> int:
    problems = []
    for workload in metrics.WORKLOADS:
        found = layer_problems(workload)
        print(f"{workload}: {'ok' if not found else f'{len(found)} problems'}", flush=True)
        problems.extend(found)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "passed" if not problems else f"failed ({len(problems)})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
