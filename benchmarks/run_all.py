#!/usr/bin/env python
"""Run the whole benchmark suite and write ``BENCH_results.json``.

The suite is four files: ``bench_paper.py`` (one test per paper
experiment, E1-E15, each timing its ``repro.experiments`` procedures),
``bench_kernel.py``, ``bench_telemetry_overhead.py`` and
``bench_trace_analysis.py``.  Each ``bench_*.py`` file is executed in
its own pytest subprocess (one crashing file cannot take down the rest)
with ``--benchmark-json`` so pytest-benchmark's per-test statistics are
captured, then everything is merged into a single machine-readable
report.

Usage::

    python benchmarks/run_all.py                      # quick preset
    python benchmarks/run_all.py --preset full
    python benchmarks/run_all.py --files paper,kernel # substring filter
    python benchmarks/run_all.py --output out.json
    python benchmarks/run_all.py --history            # append to registry

``--history`` appends the suite as one ``multinoc-run/1`` record to the
cross-run registry (``--runs-dir``, default ``.multinoc/runs`` or
``$MULTINOC_RUNS_DIR``) instead of clobbering ``BENCH_results.json``:
the full report is embedded under ``bench`` and every per-test mean and
numeric ``extra_info`` value is flattened into trendable metrics, so
``multinoc runs trend`` can gate regressions against the whole
trajectory.  The report always carries a machine fingerprint (python
version, platform, CPU count) so records gathered on different machines
are never trend-compared silently.

Presets:

* ``quick`` — one round per benchmark, no warmup, tiny calibration
  budget.  Timing numbers are rough; model metrics (``extra_info``) are
  exact.  This is what CI runs.
* ``full``  — pytest-benchmark defaults (calibrated rounds, warmup);
  timing numbers are stable enough to compare across commits.

Report schema ``multinoc-bench/1``::

    {
      "schema": "multinoc-bench/1",
      "preset": "quick" | "full",
      "python": "3.11.7",
      "platform": "linux",
      "started_unix": 1754400000,        # epoch seconds at suite start
      "total_wall_seconds": 12.34,       # whole-suite wall clock
      "benchmarks": [                    # one entry per bench file
        {
          "file": "bench_paper.py",
          "status": "ok" | "failed",     # pytest exit status
          "wall_seconds": 1.23,          # subprocess wall clock
          "tests": [                     # one entry per benchmark test
            {
              "name": "test_paper[E1]",
              "mean_seconds": 0.0012,    # per-round mean
              "stddev_seconds": 0.0001,
              "rounds": 5,
              "extra_info": {...}        # paper-vs-measured metrics
            }
          ]
        }
      ]
    }
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SCHEMA = "multinoc-bench/1"
BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

# the registry lives in the package; make it importable when this file
# runs as a plain script (``python benchmarks/run_all.py``)
sys.path.insert(0, str(REPO_ROOT / "src"))

PRESETS = {
    "quick": [
        "--benchmark-min-rounds=1",
        "--benchmark-warmup=off",
        "--benchmark-max-time=0.1",
        "--benchmark-calibration-precision=1",
    ],
    "full": [],
}


def discover(filters) -> list:
    files = sorted(BENCH_DIR.glob("bench_*.py"))
    if filters:
        files = [f for f in files if any(s in f.name for s in filters)]
    return files


def run_one(path: Path, preset: str) -> dict:
    """Run one bench file under pytest, return its report entry."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep * bool(env.get("PYTHONPATH")) + env.get(
        "PYTHONPATH", ""
    )
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        json_path = tmp.name
    try:
        start = time.perf_counter()
        proc = subprocess.run(
            [
                sys.executable, "-m", "pytest", str(path), "-q",
                f"--benchmark-json={json_path}", *PRESETS[preset],
            ],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        wall = time.perf_counter() - start
        tests = []
        try:
            data = json.loads(Path(json_path).read_text())
        except (OSError, ValueError):
            data = {"benchmarks": []}
        for bench in data.get("benchmarks", []):
            stats = bench.get("stats", {})
            tests.append(
                {
                    "name": bench.get("name", "?"),
                    "mean_seconds": stats.get("mean"),
                    "stddev_seconds": stats.get("stddev"),
                    "rounds": stats.get("rounds"),
                    "extra_info": bench.get("extra_info", {}),
                }
            )
        entry = {
            "file": path.name,
            "status": "ok" if proc.returncode == 0 else "failed",
            "wall_seconds": round(wall, 3),
            "tests": tests,
        }
        if proc.returncode != 0:
            entry["output_tail"] = proc.stdout[-2000:] + proc.stderr[-2000:]
        return entry
    finally:
        Path(json_path).unlink(missing_ok=True)


def trend_metrics(entries: list) -> dict:
    """Flatten per-test means and numeric extra_info into metric names
    ``<stem>.<test>.<key>`` (``bench_paper.py`` -> ``paper``)."""
    from repro.telemetry.registry import flatten_metrics

    nested = {}
    for entry in entries:
        stem = entry["file"].removeprefix("bench_").removesuffix(".py")
        for test in entry["tests"]:
            nested.setdefault(stem, {})[test["name"]] = {
                "mean_seconds": test.get("mean_seconds"),
                **(test.get("extra_info") or {}),
            }
    return flatten_metrics(nested)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--preset", choices=sorted(PRESETS), default="quick",
        help="quick: 1 round/bench (CI); full: calibrated timing",
    )
    parser.add_argument(
        "--output", default=None,
        metavar="FILE", help="where to write the JSON report "
        "(default BENCH_results.json; with --history: registry only)",
    )
    parser.add_argument(
        "--files", metavar="SUBSTR[,SUBSTR...]",
        help="only run bench files whose name contains a substring",
    )
    parser.add_argument(
        "--history", action="store_true",
        help="append the suite to the cross-run registry instead of "
        "clobbering BENCH_results.json",
    )
    parser.add_argument(
        "--runs-dir", metavar="DIR",
        help="registry root for --history "
        "(default: $MULTINOC_RUNS_DIR or .multinoc/runs)",
    )
    args = parser.parse_args(argv)

    filters = [s for s in (args.files or "").split(",") if s]
    files = discover(filters)
    if not files:
        print("no benchmark files matched", file=sys.stderr)
        return 2

    started = int(time.time())
    suite_start = time.perf_counter()
    entries = []
    for path in files:
        print(f"running {path.name} ...", flush=True)
        entry = run_one(path, args.preset)
        mark = "ok" if entry["status"] == "ok" else "FAILED"
        print(
            f"  {mark} in {entry['wall_seconds']:.1f}s "
            f"({len(entry['tests'])} benchmark(s))",
            flush=True,
        )
        entries.append(entry)

    from repro.telemetry.registry import machine_fingerprint

    machine = machine_fingerprint()
    report = {
        "schema": SCHEMA,
        "preset": args.preset,
        "python": machine["python"],
        "platform": machine["platform"],
        "machine": machine,
        "started_unix": started,
        "total_wall_seconds": round(time.perf_counter() - suite_start, 3),
        "benchmarks": entries,
    }
    failed = [e["file"] for e in entries if e["status"] != "ok"]

    destination = args.output
    if destination is None and not args.history:
        destination = str(REPO_ROOT / "BENCH_results.json")
    if destination is not None:
        Path(destination).write_text(json.dumps(report, indent=2))

    if args.history:
        from repro.telemetry.registry import AUTO, RunRegistry

        metrics = trend_metrics(entries)
        metrics["total_wall_seconds"] = report["total_wall_seconds"]
        record = RunRegistry(args.runs_dir).record(
            kind="bench",
            status="failed" if failed else "ok",
            exit_code=1 if failed else 0,
            timestamp=started,
            preset=args.preset,
            metrics=metrics,
            bench=report,
            machine=machine,
            artifacts={"report": destination} if destination else None,
            meta={"files": [e["file"] for e in entries]},
            git_rev=AUTO,
        )
        destination = (
            f"{record['run_id']} (+{destination})"
            if destination
            else record["run_id"]
        )

    total_tests = sum(len(e["tests"]) for e in entries)
    print(
        f"\n{len(files)} file(s), {total_tests} benchmark(s), "
        f"{len(failed)} failed, {report['total_wall_seconds']:.1f}s "
        f"-> {destination}"
    )
    for name in failed:
        print(f"  FAILED: {name}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
