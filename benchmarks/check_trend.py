"""CI perf-trend gate: compare BENCH_*.json headline metrics to baselines.

Every perf benchmark writes a ``BENCH_*.json`` into ``benchmarks/results/``;
this script compares the *headline* metric of each one (declared in
``benchmarks/results/BASELINE.json``) against its committed baseline value
and exits non-zero when any metric regresses by more than the allowed
fraction (default 20%).  The tracked metrics are deliberately machine-mostly
speedup *ratios* (production vs reference predictor, replay vs naive
construction, concurrent vs single-client serving), not absolute
configs/s, so the same baselines hold on a laptop and on a CI runner; the
``max_regression`` margin absorbs the residual timing noise.

Memory is tracked alongside speed: each benchmark stamps its process's peak
RSS into the JSON, and the manifest's ``memory`` section compares it to a
committed baseline.  Growth beyond ``max_memory_growth`` (default 30%)
prints a **warning only** — absolute RSS varies with allocator and Python
version, so the memory trend informs rather than gates.

Usage (from the repository root)::

    python benchmarks/check_trend.py                 # gate (exit 1 on regression)
    python benchmarks/check_trend.py --summary       # + markdown step summary
    python benchmarks/check_trend.py --rebaseline    # intentional rebaseline

``--summary`` renders the verdict and the headline metrics (speedups, dedup
ratios, peak RSS) as GitHub-flavored markdown, appended to the file named by
``$GITHUB_STEP_SUMMARY`` when that variable is set (the CI job summary) and
printed to stdout otherwise.

Rebaselining after an intentional perf change is one line: re-run the perf
benchmarks, then ``python benchmarks/check_trend.py --rebaseline`` and commit
the updated ``BASELINE.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
BASELINE_PATH = RESULTS_DIR / "BASELINE.json"


def metric_value(payload: dict, dotted_path: str):
    """Navigate ``payload`` along a dotted key path (e.g. ``kernels.gemm.x``)."""
    node = payload
    for part in dotted_path.split("."):
        if not isinstance(node, dict) or part not in node:
            raise KeyError(
                f"metric path {dotted_path!r} broke at {part!r} "
                f"(available: {sorted(node) if isinstance(node, dict) else type(node).__name__})"
            )
        node = node[part]
    return float(node)


def check_memory(
    baseline: dict, results_dir: Path, rows: list[dict] | None = None
) -> list[str]:
    """Warning messages for peak-RSS growth past the allowed fraction.

    Non-fatal by design: the returned messages are printed, not turned into
    a gate failure (see the module docstring).  ``rows``, when given,
    collects one record per tracked metric for the markdown summary.
    """
    max_growth = float(baseline.get("max_memory_growth", 0.30))
    warnings: list[str] = []
    for bench_file, metrics in baseline.get("memory", {}).items():
        path = results_dir / bench_file
        if not path.exists():
            continue
        payload = json.loads(path.read_text())
        for dotted_path, spec in metrics.items():
            reference = float(spec["baseline"])
            try:
                current = metric_value(payload, dotted_path)
            except KeyError as error:
                warnings.append(
                    f"{bench_file}: memory metric {dotted_path!r} "
                    f"(baseline {reference:.4g} MiB) is missing from the "
                    f"current results — {error}; if the benchmark layout "
                    f"changed intentionally, update BASELINE.json (re-run "
                    f"the perf benchmarks, then `python "
                    f"benchmarks/check_trend.py --rebaseline`)"
                )
                continue
            ceiling = reference * (1.0 + max_growth)
            grown = current > ceiling
            status = "MEM-GROWN" if grown else "ok"
            if rows is not None:
                rows.append({
                    "bench": bench_file, "metric": dotted_path,
                    "current": current, "baseline": reference,
                    "bound": f"<= {ceiling:.4g}", "flagged": grown,
                })
            print(
                f"{status:>9}  {bench_file}::{dotted_path} = {current:.4g} MiB "
                f"(baseline {reference:.4g}, warn above {ceiling:.4g})"
            )
            if grown:
                warnings.append(
                    f"{bench_file}::{dotted_path} grew to {current:.4g} MiB "
                    f"(> {ceiling:.4g} allowed vs baseline {reference:.4g}); "
                    f"if intentional, rebaseline with `python "
                    f"benchmarks/check_trend.py --rebaseline`"
                )
    return warnings


def check(
    baseline: dict, results_dir: Path, rows: list[dict] | None = None
) -> list[str]:
    """All regression messages (empty when every headline metric holds up).

    ``rows``, when given, collects one record per tracked metric for the
    markdown summary.
    """
    max_regression = float(baseline.get("max_regression", 0.20))
    failures: list[str] = []
    for bench_file, metrics in baseline.get("metrics", {}).items():
        path = results_dir / bench_file
        if not path.exists():
            failures.append(f"{bench_file}: missing from {results_dir}")
            continue
        payload = json.loads(path.read_text())
        for dotted_path, spec in metrics.items():
            reference = float(spec["baseline"])
            direction = spec.get("direction", "higher")
            try:
                current = metric_value(payload, dotted_path)
            except KeyError as error:
                failures.append(
                    f"{bench_file}: headline metric {dotted_path!r} "
                    f"(baseline {reference:.4g}, direction {direction!r}) is "
                    f"missing from the current results — {error}; if the "
                    f"benchmark layout changed intentionally, update "
                    f"BASELINE.json (re-run the perf benchmarks, then "
                    f"`python benchmarks/check_trend.py --rebaseline`)"
                )
                continue
            if direction == "higher":
                floor = reference * (1.0 - max_regression)
                regressed = current < floor
                bound = f">= {floor:.4g}"
            else:
                ceiling = reference * (1.0 + max_regression)
                regressed = current > ceiling
                bound = f"<= {ceiling:.4g}"
            status = "REGRESSED" if regressed else "ok"
            if rows is not None:
                rows.append({
                    "bench": bench_file, "metric": dotted_path,
                    "current": current, "baseline": reference,
                    "bound": bound, "flagged": regressed,
                })
            print(
                f"{status:>9}  {bench_file}::{dotted_path} = {current:.4g} "
                f"(baseline {reference:.4g}, allowed {bound})"
            )
            if regressed:
                failures.append(
                    f"{bench_file}::{dotted_path} regressed to {current:.4g} "
                    f"({bound} required vs baseline {reference:.4g}); if this "
                    f"change is intentional, re-run the perf benchmarks and "
                    f"rebaseline with `python benchmarks/check_trend.py "
                    f"--rebaseline`"
                )
    return failures


def _dedup_summary_lines(results_dir: Path) -> list[str]:
    """Markdown block describing the design-space dedup algebra, if present."""
    path = results_dir / "BENCH_dse_sharded.json"
    if not path.exists():
        return []
    payload = json.loads(path.read_text())
    section = payload.get("deduped_space")
    if not section:
        return []
    lines = ["", "### Design-space dedup (effective-directive classes)", ""]
    per_kernel = section.get("classes_per_kernel", {})
    if per_kernel:
        lines += [
            "| kernel | raw configs | classes | dedup ratio |",
            "|---|---:|---:|---:|",
        ]
        for kernel, stats in sorted(per_kernel.items()):
            lines.append(
                f"| {kernel} | {stats['raw_configs']} | {stats['classes']} "
                f"| {stats['dedup_ratio']:.2f}x |"
            )
    sweep = section.get("cold_sweep")
    if sweep:
        lines += [
            "",
            f"Cold sweep on `{sweep['kernel']}`: "
            f"{sweep['raw_configs']} raw configurations scored as "
            f"{sweep['classes']} class representatives — "
            f"**{sweep['effective_configs_per_second_gain']:.2f}x** "
            f"effective configs/s "
            f"({sweep['raw_configs_per_second']:.0f} → "
            f"{sweep['dedup_effective_configs_per_second']:.0f}).",
        ]
    return lines


def build_summary(
    passed: bool,
    metric_rows: list[dict],
    memory_rows: list[dict],
    results_dir: Path,
) -> str:
    """The markdown step summary: verdict + headline metrics tables."""
    verdict = "✅ passed" if passed else "❌ FAILED"
    lines = [f"## Perf-trend gate: {verdict}", ""]
    if metric_rows:
        lines += [
            "| benchmark | metric | current | baseline | allowed | status |",
            "|---|---|---:|---:|---|---|",
        ]
        for row in metric_rows:
            status = "❌ regressed" if row["flagged"] else "✅ ok"
            lines.append(
                f"| {row['bench']} | `{row['metric']}` "
                f"| {row['current']:.4g} | {row['baseline']:.4g} "
                f"| {row['bound']} | {status} |"
            )
    lines += _dedup_summary_lines(results_dir)
    if memory_rows:
        lines += [
            "",
            "### Memory (peak RSS, MiB — warns only)",
            "",
            "| benchmark | current | baseline | warn above | status |",
            "|---|---:|---:|---|---|",
        ]
        for row in memory_rows:
            status = "⚠️ grown" if row["flagged"] else "✅ ok"
            lines.append(
                f"| {row['bench']} | {row['current']:.4g} "
                f"| {row['baseline']:.4g} | {row['bound']} | {status} |"
            )
    return "\n".join(lines) + "\n"


def write_summary(text: str) -> None:
    """Append markdown to ``$GITHUB_STEP_SUMMARY``, or print it."""
    target = os.environ.get("GITHUB_STEP_SUMMARY")
    if target:
        with open(target, "a", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text)


def rebaseline(baseline: dict, results_dir: Path, baseline_path: Path) -> None:
    """Overwrite every tracked baseline with the currently-measured value."""
    for section in ("metrics", "memory"):
        for bench_file, metrics in baseline.get(section, {}).items():
            path = results_dir / bench_file
            if not path.exists():
                print(f"skipping {bench_file}: not present in {results_dir}")
                continue
            payload = json.loads(path.read_text())
            for dotted_path, spec in metrics.items():
                previous = spec["baseline"]
                spec["baseline"] = round(metric_value(payload, dotted_path), 4)
                print(
                    f"rebaselined {bench_file}::{dotted_path}: "
                    f"{previous} -> {spec['baseline']}"
                )
    baseline_path.write_text(json.dumps(baseline, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results-dir", type=Path, default=RESULTS_DIR,
        help="directory holding the freshly-generated BENCH_*.json files",
    )
    parser.add_argument(
        "--baseline", type=Path, default=BASELINE_PATH,
        help="committed baseline manifest (BASELINE.json)",
    )
    parser.add_argument(
        "--max-regression", type=float, default=None,
        help="override the manifest's allowed fractional regression",
    )
    parser.add_argument(
        "--rebaseline", action="store_true",
        help="rewrite the manifest's baselines from the current results",
    )
    parser.add_argument(
        "--summary", action="store_true",
        help="emit a markdown verdict + headline-metrics report, appended "
             "to $GITHUB_STEP_SUMMARY when set (stdout otherwise)",
    )
    args = parser.parse_args(argv)
    baseline = json.loads(args.baseline.read_text())
    if args.max_regression is not None:
        baseline["max_regression"] = args.max_regression
    if args.rebaseline:
        rebaseline(baseline, args.results_dir, args.baseline)
        return 0
    metric_rows: list[dict] = []
    memory_rows: list[dict] = []
    failures = check(baseline, args.results_dir, metric_rows)
    memory_warnings = check_memory(baseline, args.results_dir, memory_rows)
    if args.summary:
        write_summary(
            build_summary(not failures, metric_rows, memory_rows, args.results_dir)
        )
    if memory_warnings:
        # informative, never fatal: see the module docstring
        print("\nperf-trend memory WARNINGS:", file=sys.stderr)
        for warning in memory_warnings:
            print(f"  - {warning}", file=sys.stderr)
    if failures:
        print("\nperf-trend gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nperf-trend gate passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
