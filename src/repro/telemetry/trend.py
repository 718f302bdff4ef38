"""Perf-trajectory trends over the run registry.

``diff_traces`` compares a run against *one* pinned baseline; this
module compares a run against its *history*.  For every numeric metric
in the registry's records it builds the chronological series, takes a
**rolling median of the preceding window** as the baseline at each
point, and classifies the point with the one dual-threshold rule
:func:`~repro.telemetry.analysis.diff_traces` uses
(:func:`~repro.telemetry.analysis.classify_change`): a point regresses
only when it grew by more than ``threshold_abs`` **and** by more than
``threshold_pct`` percent of its baseline (both must trip, so absolute
wobbles on tiny baselines and relative wobbles on large ones stay
quiet); improvements mirror the same margins, also against the
baseline.

A metric is **flagged** — ``multinoc runs trend`` exits nonzero — only
when the regression is *sustained*: the latest ``sustain`` consecutive
records all regress against their own rolling baselines.  The first
record of that trailing streak is reported as the change point, which
is usually the commit that introduced the slowdown.  One noisy record
never gates; a real step change gates one record later and stays
flagged until the history's median absorbs it or the regression is
fixed.

Comparability guards: records are partitioned by machine fingerprint
and configuration digest (latest record wins) before any comparison —
cross-machine or cross-config records are *excluded and reported*,
never trended silently.  Pass ``allow_cross_machine=True`` (CLI
``--allow-cross-machine``) to opt into mixing them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .analysis import classify_change

TREND_SCHEMA = "multinoc-trend/1"

#: metrics needing fewer points than this are reported, never flagged
MIN_HISTORY = 4


@dataclass
class TrendEntry:
    """One metric's verdict against its rolling-median baseline."""

    metric: str
    baseline: float
    current: float
    points: int
    regressed: bool
    improved: bool
    sustained: int
    flagged: bool
    change_point: Optional[str] = None  # run_id where the streak began

    @property
    def delta(self) -> float:
        return self.current - self.baseline

    @property
    def pct(self) -> float:
        if self.baseline == 0:
            return float("inf") if self.current else 0.0
        return self.delta / self.baseline * 100.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "metric": self.metric,
            "baseline": self.baseline,
            "current": self.current,
            "delta": self.delta,
            "points": self.points,
            "regressed": self.regressed,
            "improved": self.improved,
            "sustained": self.sustained,
            "flagged": self.flagged,
            "change_point": self.change_point,
        }

    def render(self) -> str:
        pct = self.pct
        pct_text = "new" if pct == float("inf") else f"{pct:+.1f}%"
        text = (
            f"{self.metric}: median {self.baseline:g} -> {self.current:g} "
            f"({pct_text}, n={self.points})"
        )
        if self.flagged:
            text += (
                f"  REGRESSED x{self.sustained}"
                + (f" since {self.change_point}" if self.change_point else "")
            )
        elif self.regressed:
            text += "  regressed (not yet sustained)"
        elif self.improved:
            text += "  improved"
        return text


@dataclass
class TrendReport:
    """Every metric's trend verdict plus the comparability notes."""

    window: int
    threshold_pct: float
    threshold_abs: float
    sustain: int
    runs: int = 0
    fingerprint: Optional[str] = None
    config_digest: Optional[str] = None
    entries: List[TrendEntry] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def flagged(self) -> List[TrendEntry]:
        return [e for e in self.entries if e.flagged]

    @property
    def ok(self) -> bool:
        return not self.flagged

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": TREND_SCHEMA,
            "window": self.window,
            "threshold_pct": self.threshold_pct,
            "threshold_abs": self.threshold_abs,
            "sustain": self.sustain,
            "runs": self.runs,
            "fingerprint": self.fingerprint,
            "config_digest": self.config_digest,
            "ok": self.ok,
            "entries": [e.as_dict() for e in self.entries],
            "notes": list(self.notes),
        }

    def report(self) -> str:
        lines = [
            f"trend over {self.runs} run(s), window {self.window}, "
            f"thresholds {self.threshold_pct:g}% / {self.threshold_abs:g} abs, "
            f"sustain {self.sustain}"
        ]
        lines += [f"note: {note}" for note in self.notes]
        flagged = self.flagged
        if flagged:
            lines.append(f"{len(flagged)} sustained regression(s):")
            lines += [f"  REGRESSED {e.render()}" for e in flagged]
        else:
            lines.append("no sustained regressions")
        for entry in self.entries:
            if not entry.flagged:
                lines.append(f"  {entry.render()}")
        return "\n".join(lines)


def metric_series(
    records: Iterable[Dict[str, Any]], metric: str
) -> List[Tuple[str, float]]:
    """``(run_id, value)`` pairs for one metric, record order preserved."""
    series = []
    for record in records:
        value = (record.get("metrics") or {}).get(metric)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            series.append((record.get("run_id", "?"), float(value)))
    return series


def select_comparable(
    records: List[Dict[str, Any]],
    *,
    allow_cross_machine: bool = False,
    notes: Optional[List[str]] = None,
) -> Tuple[List[Dict[str, Any]], Optional[str], Optional[str]]:
    """Partition *records* to the latest record's comparability class.

    Returns ``(records, fingerprint, config_digest)``.  Exclusions are
    explained in *notes* — this is the "never compared silently" guard.
    """
    if notes is None:
        notes = []
    if not records or allow_cross_machine:
        if allow_cross_machine and records:
            prints = {
                (r.get("machine") or {}).get("fingerprint") for r in records
            }
            if len(prints) > 1:
                notes.append(
                    f"cross-machine comparison forced across "
                    f"{len(prints)} fingerprints"
                )
        return list(records), None, None

    latest = records[-1]
    fingerprint = (latest.get("machine") or {}).get("fingerprint")
    digest = latest.get("config_digest")

    kept = []
    dropped_machine = dropped_config = 0
    for record in records:
        if (record.get("machine") or {}).get("fingerprint") != fingerprint:
            dropped_machine += 1
            continue
        if digest is not None and record.get("config_digest") != digest:
            dropped_config += 1
            continue
        kept.append(record)
    if dropped_machine:
        notes.append(
            f"excluded {dropped_machine} record(s) from other machines "
            f"(fingerprint != {fingerprint}); pass --allow-cross-machine "
            "to compare anyway"
        )
    if dropped_config:
        notes.append(
            f"excluded {dropped_config} record(s) with a different "
            f"config digest (!= {digest})"
        )
    return kept, fingerprint, digest


def compute_trend(
    records: List[Dict[str, Any]],
    *,
    metrics: Optional[Iterable[str]] = None,
    window: int = 5,
    threshold_pct: float = 10.0,
    threshold_abs: float = 0.0,
    sustain: int = 2,
    min_history: int = MIN_HISTORY,
    allow_cross_machine: bool = False,
) -> TrendReport:
    """Trend every (or the named) metrics over *records* (oldest first)."""
    if window < 1:
        raise ValueError("trend window must be at least 1 record")
    if sustain < 1:
        raise ValueError("sustain must be at least 1 record")
    notes: List[str] = []
    comparable, fingerprint, digest = select_comparable(
        records, allow_cross_machine=allow_cross_machine, notes=notes
    )
    report = TrendReport(
        window=window,
        threshold_pct=threshold_pct,
        threshold_abs=threshold_abs,
        sustain=sustain,
        runs=len(comparable),
        fingerprint=fingerprint,
        config_digest=digest,
        notes=notes,
    )
    if not comparable:
        notes.append("no comparable records; nothing to trend")
        return report

    if metrics is None:
        names = sorted((comparable[-1].get("metrics") or {}).keys())
    else:
        names = list(metrics)

    for name in names:
        series = metric_series(comparable, name)
        if len(series) < 2:
            continue
        values = [v for _, v in series]
        last = len(values) - 1
        baseline = median(values[max(0, last - window): last])

        def verdict(i: int) -> int:
            base = median(values[max(0, i - window): i])
            return classify_change(
                values[i], base, threshold_pct, threshold_abs
            )

        sustained = 0
        change_point = None
        for i in range(last, 0, -1):
            if verdict(i) <= 0:
                break
            sustained += 1
            change_point = series[i][0]

        regressed = sustained > 0
        improved = not regressed and classify_change(
            values[last], baseline, threshold_pct, threshold_abs
        ) < 0
        enough = len(values) >= min_history
        if not enough:
            notes.append(
                f"{name}: only {len(values)} point(s), below min history "
                f"{min_history}; reported but never flagged"
            )
        report.entries.append(
            TrendEntry(
                metric=name,
                baseline=baseline,
                current=values[last],
                points=len(values),
                regressed=regressed,
                improved=improved,
                sustained=sustained,
                flagged=enough and sustained >= sustain,
                change_point=change_point if sustained else None,
            )
        )
    return report


def metric_arrow(
    values: List[float],
    *,
    window: int = 5,
    threshold_pct: float = 5.0,
) -> str:
    """One trend glyph for a metric series: ``↑`` ``↓`` or ``→``.

    The last value is compared to the rolling median of the preceding
    ``window`` values; moves within ``threshold_pct`` percent are flat.
    This is the at-a-glance column ``multinoc runs list --metric``
    renders — ``↑`` only says "grew", whether that is a regression
    (latency) or an improvement (throughput) depends on the metric.
    """
    if len(values) < 2:
        return "→"
    baseline = median(values[max(0, len(values) - 1 - window): -1])
    current = values[-1]
    if baseline == 0:
        return "↑" if current > 0 else ("↓" if current < 0 else "→")
    pct = (current - baseline) / abs(baseline) * 100.0
    if pct > threshold_pct:
        return "↑"
    if pct < -threshold_pct:
        return "↓"
    return "→"


# -- two-record diff ---------------------------------------------------------


@dataclass
class RunDiff:
    """``multinoc runs diff``: record-vs-record metric comparison."""

    baseline_id: str
    current_id: str
    threshold_pct: float
    threshold_abs: float
    regressions: List[Tuple[str, float, float]] = field(default_factory=list)
    improvements: List[Tuple[str, float, float]] = field(default_factory=list)
    unchanged: int = 0
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> Dict[str, Any]:
        def rows(entries):
            return [
                {"metric": m, "baseline": b, "current": c}
                for m, b, c in entries
            ]

        return {
            "schema": TREND_SCHEMA,
            "baseline": self.baseline_id,
            "current": self.current_id,
            "threshold_pct": self.threshold_pct,
            "threshold_abs": self.threshold_abs,
            "ok": self.ok,
            "regressions": rows(self.regressions),
            "improvements": rows(self.improvements),
            "unchanged": self.unchanged,
            "notes": list(self.notes),
        }

    def report(self) -> str:
        lines = [f"diff {self.baseline_id} -> {self.current_id}:"]
        lines += [f"note: {n}" for n in self.notes]

        def render(metric, base, cur):
            pct = (
                (cur - base) / base * 100.0 if base else float("inf")
            )
            pct_text = "new" if pct == float("inf") else f"{pct:+.1f}%"
            return f"{metric}: {base:g} -> {cur:g} ({pct_text})"

        if self.regressions:
            lines.append(f"{len(self.regressions)} regression(s):")
            lines += [
                f"  REGRESSED {render(*row)}" for row in self.regressions
            ]
        else:
            lines.append("no regressions")
        if self.improvements:
            lines.append(f"{len(self.improvements)} improvement(s):")
            lines += [
                f"  improved  {render(*row)}" for row in self.improvements
            ]
        lines.append(f"{self.unchanged} metric(s) within thresholds")
        return "\n".join(lines)


def diff_records(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    *,
    threshold_pct: float = 10.0,
    threshold_abs: float = 0.0,
) -> RunDiff:
    """Compare two run records metric-by-metric (dual thresholds)."""
    diff = RunDiff(
        baseline_id=baseline.get("run_id", "?"),
        current_id=current.get("run_id", "?"),
        threshold_pct=threshold_pct,
        threshold_abs=threshold_abs,
    )
    cur_fp = (current.get("machine") or {}).get("fingerprint")
    base_fp = (baseline.get("machine") or {}).get("fingerprint")
    if cur_fp != base_fp:
        diff.notes.append(
            f"records come from different machines "
            f"({base_fp} vs {cur_fp}); timing comparisons are unreliable"
        )
    if current.get("config_digest") != baseline.get("config_digest"):
        diff.notes.append("records have different config digests")

    cur_metrics = current.get("metrics") or {}
    base_metrics = baseline.get("metrics") or {}
    for name in sorted(set(cur_metrics) & set(base_metrics)):
        cur, base = cur_metrics[name], base_metrics[name]
        if not all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in (cur, base)
        ):
            continue
        verdict = classify_change(cur, base, threshold_pct, threshold_abs)
        if verdict > 0:
            diff.regressions.append((name, float(base), float(cur)))
        elif verdict < 0:
            diff.improvements.append((name, float(base), float(cur)))
        else:
            diff.unchanged += 1
    only_cur = set(cur_metrics) - set(base_metrics)
    only_base = set(base_metrics) - set(cur_metrics)
    if only_cur:
        diff.notes.append(f"{len(only_cur)} metric(s) only in current")
    if only_base:
        diff.notes.append(f"{len(only_base)} metric(s) only in baseline")
    return diff
