#!/usr/bin/env python3
"""Ledger benchmark: end-to-end simulator speed and per-layer host time.

Full invocation, three passes (untraced, traced, microbenchmarks)::

    python benchmarks/ledger/run.py [--seed S] [--reps R] [--out FILE]

One workload for a fixed time; the last stdout line is one JSON result
(``--trace 0``: end-to-end metrics, ``--trace 1``: per-layer metrics)::

    python benchmarks/ledger/run.py --workload sea_16x16 --seed 3 --seconds 25 --trace 0

Compare two full-invocation reports against the ``BENCHMARK.json``
bounds (exit 1 on a regression)::

    python benchmarks/ledger/run.py compare PARENT.json CHANGE.json

Every repetition runs in a fresh child process, one at a time.  Exit
codes: 0 ok, 1 failed operations, a regression or a crashed child,
2 input drift at the default seed, 3 no program source next to the
benchmark.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

import calibration
import probes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: set-ups per repetition; the repetition reports their median
SETUP_REPEATS = 5
#: fewest untraced repetitions a fixed-time run makes
MIN_REPS = 3
#: a child that takes longer than this is killed and counts as a crash
CHILD_TIMEOUT_S = 150
#: the traced pass's sampling interval
TRACE_INTERVAL_S = 0.002
MICRO_SAMPLES = 100


def load_json(path: Path):
    return json.loads(path.read_text())


def spec():
    return load_json(ROOT / "BENCHMARK.json")


def workload_names():
    return [w["name"] for w in spec()["workloads"]]


def ledger():
    return load_json(HERE / "ledger.json")


# -- statistics ----------------------------------------------------------------


def summary(values) -> dict:
    values = list(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "samples": values,
    }


def percentile(sorted_values, p: float):
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


# -- one repetition (runs in a child process) ------------------------------


def measure(name: str, seed: int, traced: bool = False, tiny: bool = False) -> dict:
    """Set up *name* ``SETUP_REPEATS`` times, then run and check the last.

    Reports raw host times and the calibration windows around the timed
    phase; the traced pass's per-layer host times are already at the
    reference speed (``calibration``).
    """
    import workloads

    setups, phases = [], []
    for _ in range(SETUP_REPEATS):
        workload = None  # free the previous set-up before timing the next
        gc.collect()
        t0 = perf_counter()
        workload = workloads.build(name, seed, tiny=tiny)
        setups.append(perf_counter() - t0)
        phases.append(workload.phases)
    loop_before = calibration.loop_seconds()
    if traced:
        from repro.telemetry.hostperf import HostPerfProfiler

        spans = probes.SpanRecorder(workload.sim, rep=f"{name}/seed{seed}/traced")
        spans.install(workload)
        profiler = HostPerfProfiler(interval=TRACE_INTERVAL_S, history=10**7)
        profiler.attach(workload.sim)
        # the sampler thread needs the GIL once per interval; the default
        # 5 ms switch interval would cap it at about 200 samples/s
        switch = sys.getswitchinterval()
        sys.setswitchinterval(TRACE_INTERVAL_S / 2)
        profiler.start()
    t0 = perf_counter()
    workload.run()
    wall = perf_counter() - t0
    if traced:
        profiler.stop()
        sys.setswitchinterval(switch)
    loops = [loop_before, calibration.loop_seconds()]
    attempted, failed = workload.check()
    stats = workload.sim_stats()
    latencies = sorted(stats["latencies"])
    doc = {
        "workload": name,
        "seed": seed,
        "setup_raw_s": statistics.median(setups),
        "wall_raw_s": wall,
        "loop_s": loops,
        "sim_cycles": workload.sim_cycles,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "latency_p50": percentile(latencies, 0.50),
        "latency_p90": percentile(latencies, 0.90),
        "latency_n": len(latencies),
        "attempted": attempted,
        "failed": failed,
        "input_digest": workloads.digest(workload.inputs()),
        "sim_digest": workloads.digest(stats),
    }
    if traced:
        scale = calibration.scale(loops)
        doc["phases_ms"] = {
            key: 1e3 * scale * statistics.median(p[key] for p in phases) for key in phases[0]
        }
        doc["trace"] = {
            "samples": profiler.samples,
            "coverage": profiler.attributed_seconds / profiler.wall_seconds,
            "wall_s": scale * wall,
        }
        doc["attribution"] = probes.attribution(profiler, scale)
        doc["counters"] = probes.counters(stats, profiler.ff_spans, profiler.ff_cycles)
        doc["spans"] = spans.finished()
        doc["span_metrics"] = probes.span_metrics(doc["spans"], scale)
    return doc


def measure_micro(samples: int = MICRO_SAMPLES) -> dict:
    import micro

    loop_before = calibration.loop_seconds()
    results = micro.run_all(samples)
    scale = calibration.scale([loop_before, calibration.loop_seconds()])
    out = {}
    for name, (unit, values) in results.items():
        if unit in ("us", "ms"):
            values = [scale * v for v in values]
        row = summary(sorted(values))
        out[name] = {
            "unit": unit,
            "median": row["median"],
            "q1": row["q1"],
            "q3": row["q3"],
            "p90": percentile(row["samples"], 0.90),
            "n": row["n"],
        }
    return out


class ChildFailed(RuntimeError):
    pass


def spawn(*args: str) -> dict:
    """Run one repetition in a fresh interpreter and wait for it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "child", *args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{' '.join(args)}: no result within {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(args)}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spawn_rep(name: str, seed: int, traced: bool = False) -> dict:
    return spawn("--workload", name, "--seed", str(seed), *(["--traced"] if traced else []))


# -- metrics -----------------------------------------------------------------------


def end_to_end(reps) -> dict:
    """End-to-end metric -> per-repetition values (``fail_frac`` too).

    Host times are at the reference speed of the whole run: one factor
    from every calibration window of *reps* (``calibration.scale``).
    """
    scale = calibration.scale([loop for r in reps for loop in r["loop_s"]])
    return {
        "setup_s": [scale * r["setup_raw_s"] for r in reps],
        "wall_s": [scale * r["wall_raw_s"] for r in reps],
        "sim_cycles_per_s": [r["sim_cycles"] / (scale * r["wall_raw_s"]) for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "sim_cycles": [r["sim_cycles"] for r in reps],
        "pkt_latency_p50_cyc": [r["latency_p50"] for r in reps],
        "pkt_latency_p90_cyc": [r["latency_p90"] for r in reps],
        "ok_frac": [(r["attempted"] - r["failed"]) / r["attempted"] for r in reps],
        "fail_frac": [r["failed"] / r["attempted"] for r in reps],
    }


def best(values, better: str):
    """A run's value of a metric: its best repetition.  Host noise only
    ever adds time, so the fastest repetition is the least disturbed;
    simulated metrics repeat exactly and are unaffected.  On the 2-vCPU
    baseline host this value spread 2-4 % from run to run where the
    median of the repetitions spread 12-14 % (README, "Host-speed
    calibration")."""
    return max(values) if better == "higher" else min(values)


def best_spread(values, better: str) -> float:
    """Distance from the best repetition to the next best, as a share of
    the best: how far one lucky repetition moves the run's value."""
    ordered = sorted(values, reverse=better == "higher")
    first, second = ordered[0], ordered[min(1, len(ordered) - 1)]
    return abs(second - first) / (abs(first) or 1.0)


def end_to_end_values(reps) -> dict:
    """A run's end-to-end values.  Failures count over every repetition."""
    better = {m["name"]: m["better"] for m in spec()["end_to_end"]}
    values = {k: best(v, better[k]) for k, v in end_to_end(reps).items() if k in better}
    fail_frac = sum(r["failed"] for r in reps) / sum(r["attempted"] for r in reps)
    values.update(ok_frac=1 - fail_frac, fail_frac=fail_frac)
    return values


def per_layer(traced: dict, reps, micro_results: dict) -> dict:
    """Per-layer metric -> value, from one traced repetition, the
    untraced repetitions (for the tracing overhead) and the micro pass."""
    values = {f"{prefix}.ms_per_kcyc": row["ms_per_kcyc"] for prefix, row in traced["attribution"].items()}
    untraced_wall = end_to_end_values(reps)["wall_s"]
    values.update(
        {
            "trace.samples": traced["trace"]["samples"],
            "trace.coverage": traced["trace"]["coverage"],
            "trace.overhead_frac": traced["trace"]["wall_s"] / untraced_wall - 1,
        }
    )
    values.update(traced["span_metrics"])
    values.update({f"{key}_ms": ms for key, ms in traced["phases_ms"].items()})
    values.update(traced["counters"])
    values.update({name: row["median"] for name, row in micro_results.items()})
    return values


def check_pins(rep: dict, seed: int) -> bool:
    """False when the default seed no longer generates the pinned inputs."""
    doc = ledger()
    pin = doc["pins"].get(rep["workload"])
    if seed != doc["default_seed"] or pin is None:
        return True
    if rep["input_digest"] != pin["inputs"]:
        print(
            f"input drift: {rep['workload']} seed {seed} generates inputs "
            f"{rep['input_digest']}, pinned {pin['inputs']}",
            file=sys.stderr,
        )
        return False
    return True


def sim_digest_match(rep: dict, seed: int):
    doc = ledger()
    pin = doc["pins"].get(rep["workload"])
    if seed != doc["default_seed"] or pin is None:
        return None
    return rep["sim_digest"] == pin["sim"]


def write_spans(traced: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{traced['workload']}-seed{traced['seed']}.jsonl"
    path.write_text("".join(json.dumps(s) + "\n" for s in traced["spans"]))
    return path


# -- fixed-time run of one workload (the BENCHMARK.json command) ------------


def run_fixed(name: str, seed: int, seconds: float, trace: bool) -> int:
    start = time.monotonic()
    reps = [spawn_rep(name, seed)]
    if not check_pins(reps[0], seed):
        return 2
    # with --trace 1 the untraced repetitions only give the denominator
    # of trace.overhead_frac, so the fewest will do
    while len(reps) < MIN_REPS or (not trace and time.monotonic() - start < seconds):
        reps.append(spawn_rep(name, seed))
    bench = spec()
    if trace:
        traced = spawn_rep(name, seed, traced=True)
        write_spans(traced)
        values = per_layer(traced, reps, spawn("--micro"))
        wanted = bench["per_layer"]
    else:
        values = end_to_end_values(reps)
        wanted = bench["end_to_end"]
    print(json.dumps(result_line(reps, values, wanted)))
    return 0


def result_line(reps, values: dict, wanted) -> dict:
    """The fixed-time run's result: the *wanted* metrics, and the
    operations of every untraced repetition."""
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


# -- full invocation -----------------------------------------------------------


def build_report(seed: int, reps: dict, traced: dict, micro_results: dict) -> dict:
    import workloads  # noqa: F401  (puts the checkout's src/ on sys.path)
    from repro.telemetry.registry import machine_fingerprint

    bench = spec()
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units["fail_frac"] = "ratio"
    rows = {}
    for name, runs in reps.items():
        layer_values = per_layer(traced[name], runs, micro_results)
        values = end_to_end_values(runs)
        rows[name] = {
            "end_to_end": {
                metric: dict(summary(samples), unit=units[metric], value=values[metric])
                for metric, samples in end_to_end(runs).items()
            },
            "per_layer": {
                m["name"]: {"unit": m["unit"], "value": layer_values[m["name"]]}
                for m in bench["per_layer"]
            },
            "attribution": traced[name]["attribution"],
            "wall_raw_s": summary(r["wall_raw_s"] for r in runs),
            "scale": calibration.scale([loop for r in runs for loop in r["loop_s"]]),
            "latency_n": runs[0]["latency_n"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "input_digest": runs[0]["input_digest"],
            "sim_digest": runs[0]["sim_digest"],
            "sim_digest_match": sim_digest_match(runs[0], seed),
            "sim_repeats_exactly": len({r["sim_digest"] for r in runs + [traced[name]]}) == 1,
        }
    return {
        "schema": "multinoc-ledger/1",
        "fingerprint": machine_fingerprint(),
        "seed": seed,
        "reps": len(next(iter(reps.values()))),
        "workloads": rows,
        "micro": micro_results,
    }


def _num(x) -> str:
    if isinstance(x, int) or (float(x).is_integer() and abs(x) >= 1):
        return f"{x:,.0f}"
    return f"{x:.4g}"


def format_report(report: dict) -> str:
    lines = ["== end-to-end (untraced pass; value = best repetition, failures over all) =="]
    head = (
        f"{'metric':<24} {'workload':<20} {'unit':<9} {'value':>12} {'median':>12} "
        f"{'q1':>12} {'q3':>12} {'n':>4}"
    )
    lines.append(head)
    for name, w in report["workloads"].items():
        for metric, row in w["end_to_end"].items():
            cells = "".join(f" {_num(row[k]):>12}" for k in ("value", "median", "q1", "q3"))
            lines.append(f"{metric:<24} {name:<20} {row['unit']:<9}{cells} {row['n']:>4}")
        lines.append(
            f"  {name}: latency n={w['latency_n']}, {w['failed']}/{w['attempted']} ops failed, "
            f"sim repeats exactly: {w['sim_repeats_exactly']}, sim_digest_match: {w['sim_digest_match']}, "
            f"raw wall median {w['wall_raw_s']['median']:.3f} s, reference-speed factor {w['scale']:.3f}"
        )
    lines.append("")
    lines.append("== per-layer (traced pass: one repetition, so median = q1 = q3, n = 1) ==")
    names = list(report["workloads"])
    lines.append(f"{'metric':<36} {'unit':<9}" + "".join(f" {n[:18]:>18}" for n in names))
    first = report["workloads"][names[0]]["per_layer"]
    for metric, row in first.items():
        if metric in report["micro"]:
            continue
        cells = "".join(f" {_num(report['workloads'][n]['per_layer'][metric]['value']):>18}" for n in names)
        lines.append(f"{metric:<36} {row['unit']:<9}{cells}")
    lines.append("")
    lines.append("== host-time attribution: share [95% Wilson] samples (* = unresolved) ==")
    for n in names:
        lines.append(f"-- {n}")
        rows = sorted(report["workloads"][n]["attribution"].items(), key=lambda kv: -kv[1]["share"])
        for prefix, row in rows:
            if not row["samples"]:
                continue
            low, high = row["ci95"]
            flag = " *" if row["unresolved"] else ""
            lines.append(
                f"   {prefix:<22} {row['ms_per_kcyc']:>10.3f} ms/kcyc {row['share']:>7.1%} "
                f"[{low:.1%}, {high:.1%}] n={row['samples']}{flag}"
            )
    lines.append("")
    lines.append("== microbenchmarks ==")
    lines.append(f"{'metric':<28} {'unit':<7} {'median':>10} {'q1':>10} {'q3':>10} {'p90':>10} {'n':>5}")
    for name, row in report["micro"].items():
        cells = "".join(f" {_num(row[k]):>10}" for k in ("median", "q1", "q3", "p90"))
        lines.append(f"{name:<28} {row['unit']:<7}{cells} {row['n']:>5}")
    return "\n".join(lines)


def run_full(seed: int, n_reps: int, out: Path) -> int:
    names = workload_names()
    reps = {name: [] for name in names}
    for i in range(n_reps):
        for name in names:
            rep = spawn_rep(name, seed)
            if i == 0 and not check_pins(rep, seed):
                return 2
            reps[name].append(rep)
            print(f"pass 1, rep {i + 1}/{n_reps}: {name} {rep['wall_raw_s']:.3f} s", file=sys.stderr)
    traced = {}
    for name in names:
        traced[name] = spawn_rep(name, seed, traced=True)
        write_spans(traced[name])
        print(f"pass 2: {name} traced", file=sys.stderr)
    micro_results = spawn("--micro")
    report = build_report(seed, reps, traced, micro_results)
    print(format_report(report))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"report: {out}")
    failed = sum(w["failed"] for w in report["workloads"].values())
    return 1 if failed else 0


# -- compare -------------------------------------------------------------------------


def judge(parent, change, better: str, bound: float) -> str:
    """One (metric, workload) verdict on the best repetitions: same,
    better, REGRESSION or unresolved.

    The spread that gates the verdict is that of the same statistic,
    :func:`best_spread`: when either side's best repetition stands
    further than the bound from its next best, one repetition would
    decide the verdict, so it is unresolved, unless every change
    repetition beats, or loses to, every parent repetition.
    """
    sign = 1 if better == "lower" else -1
    vp, vc = best(parent, better), best(change, better)
    worse = sign * (vc - vp) / (abs(vp) or 1.0)
    all_better = all(sign * c < sign * p for c in change for p in parent)
    all_worse = all(sign * c > sign * p for c in change for p in parent)
    spread = max(best_spread(parent, better), best_spread(change, better))
    if spread > bound and not (all_better or all_worse):
        return "unresolved"
    if worse > bound:
        return "REGRESSION"
    if -worse > bound:
        return "better"
    return "same"


def compare(parent_path: Path, change_path: Path) -> int:
    parent, change = load_json(parent_path), load_json(change_path)
    bounds = {m["name"]: m for m in spec()["end_to_end"]}
    regressed = False
    print(
        f"{'metric':<24} {'workload':<20} {'parent':>12} {'change':>12} {'delta':>8}  "
        f"{'verdict':<10}  median [q1, q3] parent -> change"
    )
    for name, pw in parent["workloads"].items():
        cw = change["workloads"].get(name)
        if cw is None:
            print(f"{name}: missing from {change_path}")
            regressed = True
            continue
        for metric, meta in bounds.items():
            ps = pw["end_to_end"][metric]["samples"]
            cs = cw["end_to_end"][metric]["samples"]
            verdict = judge(ps, cs, meta["better"], meta["bound"])
            vp, vc = best(ps, meta["better"]), best(cs, meta["better"])
            delta = (vc - vp) / abs(vp) if vp else 0.0
            quartiles = " -> ".join(
                f"{_num(row['median'])} [{_num(row['q1'])}, {_num(row['q3'])}]"
                for row in (pw["end_to_end"][metric], cw["end_to_end"][metric])
            )
            print(
                f"{metric:<24} {name:<20} {_num(vp):>12} {_num(vc):>12} {delta:>+8.1%}  "
                f"{verdict:<10}  {quartiles}"
            )
            regressed |= verdict == "REGRESSION"
        pf = pw["failed"] / pw["attempted"]
        cf = cw["failed"] / cw["attempted"]
        if cf > pf:
            print(f"{'fail_frac':<24} {name:<20} {pf:>12.4g} {cf:>12.4g}  FAILURES ROSE")
            regressed = True
    return 1 if regressed else 0


# -- command line ----------------------------------------------------------------------


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        ap = argparse.ArgumentParser(prog="run.py compare")
        ap.add_argument("parent", type=Path)
        ap.add_argument("change", type=Path)
        args = ap.parse_args(argv[1:])
        return compare(args.parent, args.change)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 3
    if argv[:1] == ["child"]:
        ap = argparse.ArgumentParser(prog="run.py child")
        ap.add_argument("--workload", choices=workload_names())
        ap.add_argument("--seed", type=int)
        ap.add_argument("--traced", action="store_true")
        ap.add_argument("--micro", action="store_true")
        args = ap.parse_args(argv[1:])
        doc = measure_micro() if args.micro else measure(args.workload, args.seed, args.traced)
        print(json.dumps(doc))
        return 0
    ap = argparse.ArgumentParser(description="MultiNoC ledger benchmark")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--reps", type=int, default=5, help="untraced repetitions per workload")
    ap.add_argument("--out", type=Path, default=OUT / "report.json")
    ap.add_argument("--workload", choices=workload_names(), help="run one workload for --seconds")
    ap.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    seed = ledger()["default_seed"] if args.seed is None else args.seed
    try:
        if args.workload:
            return run_fixed(args.workload, seed, args.seconds, bool(args.trace))
        return run_full(seed, args.reps, args.out)
    except ChildFailed as exc:
        print(f"child failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
