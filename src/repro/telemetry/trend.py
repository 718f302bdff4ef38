"""Run comparison: the one dual-threshold rule, two-run diffs and trends.

Every "what changed?" question in the platform is answered by
:func:`classify_change`: a value regresses only when it grew by more
than ``threshold_abs`` **and** by more than ``threshold_pct`` percent of
its baseline (both must trip, so absolute wobbles on tiny baselines and
relative wobbles on large ones stay quiet); improvements mirror the same
margins, also against the baseline.

**Two runs.**  :func:`diff_metrics` applies the rule to two flat
``{name: number}`` maps and returns one :class:`MetricDiff`.  Its
callers only build the maps: :func:`diff_records` (``multinoc runs
diff``) compares two registry records' ``metrics`` and notes machine or
config mismatches, and :func:`~repro.telemetry.analysis.diff_traces`
(``multinoc analyze --baseline``) compares two trace analyses'
:meth:`~repro.telemetry.analysis.TraceAnalysis.metrics`.

**A history.**  :func:`compute_trend` compares a run against its
*history*.  For every numeric metric in the registry's records it
builds the chronological series, takes a **rolling median of the
preceding window** as the baseline at each point, and classifies the
point with :func:`classify_change`.  :func:`metric_arrow` is the same
comparison for the last point only, as one glyph.

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

TREND_SCHEMA = "multinoc-trend/1"

#: metrics needing fewer points than this are reported, never flagged
MIN_HISTORY = 4


def classify_change(
    current: float, baseline: float, threshold_pct: float, threshold_abs: float
) -> int:
    """The dual-threshold rule behind every run comparison.

    ``1`` (regressed) when *current* exceeds *baseline* by more than
    *threshold_abs* **and** by more than *threshold_pct* percent of the
    baseline; ``-1`` (improved) when it falls short by both margins;
    ``0`` otherwise.  Both directions measure against the baseline, and
    a zero baseline trips the percent margin on any change.
    """
    delta = current - baseline
    for sign in (1, -1):
        margin = sign * delta
        if margin > threshold_abs and (
            baseline == 0 or margin / baseline * 100.0 > threshold_pct
        ):
            return sign
    return 0


def _pct_text(baseline: float, current: float) -> str:
    """The change as ``+x.y%`` of the baseline; ``new`` from zero."""
    if baseline:
        return f"{(current - baseline) / baseline * 100.0:+.1f}%"
    return "new" if current else "+0.0%"


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _rolling_median(values: List[float], i: int, window: int) -> float:
    """Median of the up to *window* values before index *i*."""
    return median(values[max(0, i - window): i])


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

    def as_dict(self) -> Dict[str, Any]:
        return {
            "metric": self.metric,
            "baseline": self.baseline,
            "current": self.current,
            "delta": self.current - self.baseline,
            "points": self.points,
            "regressed": self.regressed,
            "improved": self.improved,
            "sustained": self.sustained,
            "flagged": self.flagged,
            "change_point": self.change_point,
        }

    def render(self) -> str:
        text = (
            f"{self.metric}: median {self.baseline:g} -> {self.current:g} "
            f"({_pct_text(self.baseline, self.current)}, n={self.points})"
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
        if _is_number(value):
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
        baseline = _rolling_median(values, last, window)

        def verdict(i: int) -> int:
            return classify_change(
                values[i],
                _rolling_median(values, i, window),
                threshold_pct,
                threshold_abs,
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

    :func:`classify_change` of the last value against the rolling
    median of the preceding ``window`` values, with no absolute margin.
    This is the at-a-glance column ``multinoc runs list --metric``
    renders — ``↑`` only says "grew", whether that is a regression
    (latency) or an improvement (throughput) depends on the metric.
    """
    if len(values) < 2:
        return "→"
    last = len(values) - 1
    verdict = classify_change(
        values[last], _rolling_median(values, last, window), threshold_pct, 0
    )
    return {1: "↑", -1: "↓", 0: "→"}[verdict]


# -- two-run diff ------------------------------------------------------------


@dataclass
class MetricDiff:
    """Two flat metric maps compared name by name (:func:`diff_metrics`).

    Rows are ``(name, baseline, current)`` tuples sorted by name.
    """

    threshold_pct: float
    threshold_abs: float
    baseline_id: str = "baseline"
    current_id: str = "current"
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
                {"metric": m, "baseline": b, "current": c, "delta": c - b}
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
        def render(metric, base, cur):
            return f"{metric}: {base:g} -> {cur:g} ({_pct_text(base, cur)})"

        lines = [f"diff {self.baseline_id} -> {self.current_id}:"]
        lines += [f"note: {n}" for n in self.notes]
        if self.regressions:
            lines.append(f"{len(self.regressions)} regression(s):")
            lines += [f"  REGRESSED {render(*r)}" for r in self.regressions]
        else:
            lines.append("no regressions")
        if self.improvements:
            lines.append(f"{len(self.improvements)} improvement(s):")
            lines += [f"  improved  {render(*r)}" for r in self.improvements]
        lines.append(f"{self.unchanged} metric(s) within thresholds")
        return "\n".join(lines)


def diff_metrics(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    *,
    threshold_pct: float,
    threshold_abs: float,
) -> MetricDiff:
    """Classify every numeric metric both maps carry.

    Non-numeric values and booleans are skipped; names found on one
    side only are counted in the notes, never compared.
    """
    diff = MetricDiff(threshold_pct, threshold_abs)
    for name in sorted(current.keys() & baseline.keys()):
        cur, base = current[name], baseline[name]
        if not (_is_number(cur) and _is_number(base)):
            continue
        verdict = classify_change(cur, base, threshold_pct, threshold_abs)
        if verdict > 0:
            diff.regressions.append((name, float(base), float(cur)))
        elif verdict < 0:
            diff.improvements.append((name, float(base), float(cur)))
        else:
            diff.unchanged += 1
    only_cur = len(current.keys() - baseline.keys())
    only_base = len(baseline.keys() - current.keys())
    if only_cur:
        diff.notes.append(f"{only_cur} metric(s) only in current")
    if only_base:
        diff.notes.append(f"{only_base} metric(s) only in baseline")
    return diff


def diff_records(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    *,
    threshold_pct: float = 10.0,
    threshold_abs: float = 0.0,
) -> MetricDiff:
    """``multinoc runs diff``: two run records' metrics, plus notes on
    machine and config mismatches."""
    diff = diff_metrics(
        current.get("metrics") or {},
        baseline.get("metrics") or {},
        threshold_pct=threshold_pct,
        threshold_abs=threshold_abs,
    )
    diff.baseline_id = baseline.get("run_id", "?")
    diff.current_id = current.get("run_id", "?")
    cur_fp = (current.get("machine") or {}).get("fingerprint")
    base_fp = (baseline.get("machine") or {}).get("fingerprint")
    if cur_fp != base_fp:
        diff.notes.append(
            f"records come from different machines "
            f"({base_fp} vs {cur_fp}); timing comparisons are unreliable"
        )
    if current.get("config_digest") != baseline.get("config_digest"):
        diff.notes.append("records have different config digests")
    return diff
