"""Alerting & SLO engine: declarative rules over live telemetry.

The live plane (:mod:`repro.telemetry.live`) makes a running mesh
*watchable*; this module makes it *actionable*.  An
:class:`AlertEngine` evaluates a declarative :class:`RuleSet` against
every ``multinoc-live/1`` frame and drives each rule instance through
the Prometheus-style lifecycle::

    inactive -> pending -> firing -> resolved -> inactive
               (condition   (held for   (condition
                true)        `for`       cleared)
                             cycles)

``for``-durations are measured in **simulated cycles** (frame ``cycle``
deltas), so verdicts are a function of the frame stream alone — the
same rules replayed over a stored trace of the same run produce the
same verdicts (``multinoc alerts check``), and alerting a run changes
none of its simulation bits (the engine only reads frames).

Rule files are plain text: a header line opens a block, indented
``key: value`` lines configure it, ``#`` starts a comment::

    alert link_hot
        expr: link_util{link=~"router0.*"} > 0.9
        for: 500
        severity: page
        annotation: link {{link}} utilisation {{value}}

    slo delivery_latency
        expr: latency_p99 <= 120
        target: 0.99
        window: 50000
        burn: 2.0

Expressions are single comparisons ``field[{label=~"regex"}] OP value``
(OP one of ``> >= < <= == !=``; the value a number or a string).
**Vector fields** (``link_util``, ``router_occupancy``, ``cpu_ipc``,
...) carry one instance per label value and may be narrowed with a
label matcher (``=`` exact, ``=~`` anchored regex); **scalar fields**
(``latency_p99``, ``in_flight``, ``health``, ...) have exactly one
instance.  Both come from one table next to the frame writer,
:data:`~repro.telemetry.live.FRAME_FIELDS` (``multinoc alerts lint -v``
lists it).

An ``slo`` block layers an objective on top of the same expression
language: ``expr`` defines the *good* condition, ``target`` the
required fraction of good cycles over a trailing ``window`` of
simulated cycles.  The engine tracks the error budget
(``1 - target``), how much of it is burnt, and the **burn rate**
(bad fraction / budget; 1.0 exactly exhausts the budget over the
window).  A burn rate above ``burn`` drives a synthetic
``slo:<name>`` alert through the normal lifecycle.

Alert state fans out to every configured sink: an append-only JSONL
alert log (one ``multinoc-alert/1`` line per transition), stderr
notices, structured telemetry events (track ``alerts``), an ``ALERTS``
gauge plus transition counter in the metrics registry, the
``/alerts`` endpoint of :class:`~repro.telemetry.server.
TelemetryServer`, and the banner of the in-process dashboard
(``multinoc system --top``).

Post-hoc, the same rules replay over stored artifacts:

* :func:`frames_from_trace` extracts the live frames a run mirrored
  into its JSONL event trace (``multinoc system --alerts/--serve
  --trace-jsonl``) so ``multinoc alerts check RULES --trace`` can
  re-evaluate them offline — one rule syntax across live and
  post-mortem, and CI can gate on the verdicts;
* :func:`check_records` evaluates rules over
  :class:`~repro.telemetry.registry.RunRegistry` records (fields are
  the record's flat metrics plus ``status``; one record advances the
  clock by one, so ``for: N`` means N consecutive records).
"""

from __future__ import annotations

import json
import re
import sys
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from .live import FRAME_FIELDS, frame_fields

ALERT_SCHEMA = "multinoc-alert/1"
ALERTS_DOC_SCHEMA = "multinoc-alerts/1"

#: track (and process) alert telemetry events are emitted on
ALERT_TRACK = "alerts"

#: track/name the live stream mirrors frames into the telemetry sink on
FRAME_TRACK = "live"
FRAME_EVENT = "frame"

#: ring bound on an engine's kept transition history (the JSONL log is
#: never truncated)
MAX_TRANSITIONS = 1024

#: comparison operators, longest first so ``>=`` wins over ``>``
_OPS: Tuple[Tuple[str, Callable[[Any, Any], bool]], ...] = (
    (">=", lambda a, b: a >= b),
    ("<=", lambda a, b: a <= b),
    ("==", lambda a, b: a == b),
    ("!=", lambda a, b: a != b),
    (">", lambda a, b: a > b),
    ("<", lambda a, b: a < b),
)

class RuleError(Exception):
    """A rule file (or expression) could not be parsed or validated."""


# -- expressions -------------------------------------------------------------

_EXPR_RE = re.compile(
    r"""^\s*
    (?P<field>[A-Za-z_][\w.]*)                      # field name (dots: registry metrics)
    (?:\{\s*(?P<label>[A-Za-z_]\w*)\s*(?P<match>=~|=)\s*
       "(?P<pattern>[^"]*)"\s*\})?                  # optional label matcher
    \s*(?P<op>>=|<=|==|!=|>|<)\s*
    (?P<value>"[^"]*"|\S+)
    \s*$""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class Condition:
    """One parsed comparison: ``field{label=~"re"} OP value``."""

    field: str
    op: str
    value: Union[float, str]
    label: Optional[str] = None
    exact: Optional[str] = None
    pattern: Optional[str] = None

    @property
    def source(self) -> str:
        matcher = ""
        if self.exact is not None:
            matcher = f'{{{self.label}="{self.exact}"}}'
        elif self.pattern is not None:
            matcher = f'{{{self.label}=~"{self.pattern}"}}'
        value = (
            f'"{self.value}"' if isinstance(self.value, str) else f"{self.value:g}"
        )
        return f"{self.field}{matcher} {self.op} {value}"

    def _selects(self, label_value: str) -> bool:
        if self.exact is not None:
            return label_value == self.exact
        if self.pattern is not None:
            return re.fullmatch(self.pattern, label_value) is not None
        return True

    def instances(
        self, fields: Dict[str, Any]
    ) -> List[Tuple[Dict[str, str], Any]]:
        """``(labels, value)`` pairs this condition ranges over.

        *fields* is a sample produced by :func:`frame_fields` or
        :func:`record_fields`.  Vector fields yield one instance per
        selected label value; a scalar yields one unlabelled instance
        (or none when the sample has no data for it).
        """
        value = fields.get(self.field)
        if isinstance(value, dict):
            dimension = value.get("__label__", "instance")
            return [
                ({dimension: k}, v)
                for k, v in sorted(value.items())
                if k != "__label__" and self._selects(str(k))
            ]
        if value is None:
            return []
        return [({}, value)]

    def holds(self, value: Any) -> bool:
        """Apply the comparison; mismatched types never hold."""
        expect_str = isinstance(self.value, str)
        if expect_str != isinstance(value, str):
            return False
        for op, fn in _OPS:
            if op == self.op:
                try:
                    return bool(fn(value, self.value))
                except TypeError:
                    return False
        raise AssertionError(f"unknown operator {self.op!r}")


def parse_condition(text: str) -> Condition:
    """Parse ``field{label=~"regex"} OP value`` into a :class:`Condition`."""
    m = _EXPR_RE.match(text)
    if m is None:
        raise RuleError(
            f"cannot parse expression {text!r} "
            '(expected: field{label=~"regex"} OP value)'
        )
    raw = m.group("value")
    value: Union[float, str]
    if raw.startswith('"') and raw.endswith('"'):
        value = raw[1:-1]
    else:
        try:
            value = float(raw)
        except ValueError:
            value = raw  # bare word: a string comparison (health != ok)
    pattern = exact = None
    if m.group("label") is not None:
        if m.group("match") == "=~":
            pattern = m.group("pattern")
            try:
                re.compile(pattern)
            except re.error as exc:
                raise RuleError(f"bad label regex {pattern!r}: {exc}") from exc
        else:
            exact = m.group("pattern")
        known = FRAME_FIELDS.get(m.group("field"))
        if known is not None and known.label is None:
            raise RuleError(
                f"field {m.group('field')!r} is scalar; label matchers "
                "only apply to vector fields"
            )
    return Condition(
        field=m.group("field"),
        op=m.group("op"),
        value=value,
        label=m.group("label"),
        exact=exact,
        pattern=pattern,
    )


# -- rules and objectives ----------------------------------------------------


@dataclass
class AlertRule:
    """One threshold/ratio rule with a ``for``-duration and labels."""

    name: str
    condition: Condition
    for_cycles: int = 0
    severity: str = "warning"
    annotation: Optional[str] = None
    labels: Dict[str, str] = field(default_factory=dict)

    def render_annotation(
        self, labels: Dict[str, str], value: Any, cycle: int
    ) -> Optional[str]:
        if self.annotation is None:
            return None
        context = {
            "name": self.name,
            "value": value if isinstance(value, str) else f"{value:g}",
            "cycle": str(cycle),
            "field": self.condition.field,
            **self.labels,
            **labels,
        }
        return re.sub(
            r"\{\{\s*(\w+)\s*\}\}",
            lambda m: str(context.get(m.group(1), m.group(0))),
            self.annotation,
        )


@dataclass
class SloObjective:
    """A service-level objective: target fraction of good cycles.

    ``condition`` defines *good*; a window with no data for the
    condition's field counts as good (no packets delivered means no
    latency violation).  The derived burn-rate alert fires as
    ``slo:<name>`` when ``burn_rate > burn`` holds for ``for_cycles``.
    """

    name: str
    condition: Condition
    target: float
    window: int
    burn: float = 1.0
    for_cycles: int = 0
    severity: str = "page"

    def __post_init__(self):
        if not 0.0 < self.target < 1.0:
            raise RuleError(
                f"slo {self.name!r}: target must be in (0, 1), "
                f"got {self.target}"
            )
        if self.window < 1:
            raise RuleError(f"slo {self.name!r}: window must be >= 1 cycle")
        if self.burn <= 0:
            raise RuleError(f"slo {self.name!r}: burn must be > 0")

    @property
    def budget(self) -> float:
        """The error budget: the allowed fraction of bad cycles."""
        return 1.0 - self.target


@dataclass
class RuleSet:
    """Parsed rules + objectives, with the source they came from."""

    alerts: List[AlertRule] = field(default_factory=list)
    slos: List[SloObjective] = field(default_factory=list)
    source: Optional[str] = None

    def __len__(self) -> int:
        return len(self.alerts) + len(self.slos)

    def names(self) -> List[str]:
        return [r.name for r in self.alerts] + [
            f"slo:{s.name}" for s in self.slos
        ]


_HEADER_RE = re.compile(r"^(alert|slo)\s+([A-Za-z_][\w.-]*)\s*$")
_CLAUSE_RE = re.compile(r"^(\w+)\s*:\s*(.*\S)\s*$")

_ALERT_KEYS = {"expr", "for", "severity", "annotation", "labels"}
_SLO_KEYS = {"expr", "target", "window", "burn", "for", "severity"}


def parse_rules(text: str, *, source: Optional[str] = None) -> RuleSet:
    """Parse a rule file (see module docstring for the format)."""
    rules = RuleSet(source=source)
    block_kind: Optional[str] = None
    block_name: Optional[str] = None
    clauses: Dict[str, str] = {}
    line_of: Dict[str, int] = {}

    def close_block(line_no: int) -> None:
        nonlocal block_kind, block_name, clauses
        if block_kind is None:
            return
        where = f"{source or '<rules>'}:{line_of.get('_header', line_no)}"
        if "expr" not in clauses:
            raise RuleError(f"{where}: {block_kind} {block_name!r} has no expr")
        condition = parse_condition(clauses["expr"])
        try:
            for_cycles = int(clauses.get("for", "0"))
        except ValueError as exc:
            raise RuleError(
                f"{where}: for must be an integer cycle count"
            ) from exc
        if for_cycles < 0:
            raise RuleError(f"{where}: for must be >= 0 cycles")
        if block_kind == "alert":
            labels: Dict[str, str] = {}
            for part in filter(None, clauses.get("labels", "").split(",")):
                if "=" not in part:
                    raise RuleError(
                        f"{where}: labels must be comma-separated k=v pairs"
                    )
                k, _, v = part.partition("=")
                labels[k.strip()] = v.strip()
            rules.alerts.append(
                AlertRule(
                    name=block_name,
                    condition=condition,
                    for_cycles=for_cycles,
                    severity=clauses.get("severity", "warning"),
                    annotation=clauses.get("annotation"),
                    labels=labels,
                )
            )
        else:
            try:
                rules.slos.append(
                    SloObjective(
                        name=block_name,
                        condition=condition,
                        target=float(clauses["target"]),
                        window=int(clauses["window"]),
                        burn=float(clauses.get("burn", "1.0")),
                        for_cycles=for_cycles,
                        severity=clauses.get("severity", "page"),
                    )
                )
            except KeyError as exc:
                raise RuleError(
                    f"{where}: slo {block_name!r} needs a {exc.args[0]} clause"
                ) from exc
            except ValueError as exc:
                raise RuleError(f"{where}: {exc}") from exc
        block_kind = block_name = None
        clauses = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        indented = line[0] in " \t"
        line = line.strip()
        if not indented:
            close_block(line_no)
            header = _HEADER_RE.match(line)
            if header is None:
                raise RuleError(
                    f"{source or '<rules>'}:{line_no}: expected "
                    f"'alert NAME' or 'slo NAME', got {line!r}"
                )
            block_kind, block_name = header.group(1), header.group(2)
            line_of["_header"] = line_no
            continue
        if block_kind is None:
            raise RuleError(
                f"{source or '<rules>'}:{line_no}: clause outside a block"
            )
        clause = _CLAUSE_RE.match(line)
        if clause is None:
            raise RuleError(
                f"{source or '<rules>'}:{line_no}: expected 'key: value', "
                f"got {line!r}"
            )
        key = clause.group(1)
        allowed = _ALERT_KEYS if block_kind == "alert" else _SLO_KEYS
        if key not in allowed:
            raise RuleError(
                f"{source or '<rules>'}:{line_no}: unknown {block_kind} "
                f"clause {key!r} (choose from {sorted(allowed)})"
            )
        if key in clauses:
            raise RuleError(
                f"{source or '<rules>'}:{line_no}: duplicate clause {key!r}"
            )
        clauses[key] = clause.group(2)
    close_block(len(text.splitlines()) + 1)

    seen = set()
    for name in rules.names():
        if name in seen:
            raise RuleError(f"duplicate rule name {name!r}")
        seen.add(name)
    return rules


def load_rules(path) -> RuleSet:
    """Parse a rule file from disk."""
    from pathlib import Path

    p = Path(path)
    return parse_rules(p.read_text(), source=str(p))


# -- samples -----------------------------------------------------------------


def record_fields(record: Dict[str, Any]) -> Dict[str, Any]:
    """Flatten one ``multinoc-run/1`` record into a rule sample."""
    fields: Dict[str, Any] = dict(record.get("metrics") or {})
    fields["status"] = record.get("status") or "?"
    fields["exit_code"] = record.get("exit_code", 0)
    return fields


# -- the engine --------------------------------------------------------------


@dataclass
class _Instance:
    """Lifecycle state of one (rule, label-set) series."""

    state: str = "inactive"  # inactive | pending | firing
    since: int = 0  # cycle the condition started holding
    fired_at: Optional[int] = None
    value: Any = None
    peak: Any = None


def _series_key(rule_name: str, labels: Dict[str, str]) -> str:
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{rule_name}{{{inner}}}" if inner else rule_name


class AlertEngine:
    """Evaluate a :class:`RuleSet` over a frame/sample stream.

    Parameters
    ----------
    rules:
        A :class:`RuleSet` (or anything with ``alerts``/``slos``).
    log:
        Path of a JSONL alert log; every transition appends one
        ``multinoc-alert/1`` line.
    notify:
        Stream for human-readable notices (``sys.stderr`` for the CLI)
        or a callable receiving each transition dict.
    sink:
        A :class:`~repro.telemetry.events.TelemetrySink`; transitions
        are emitted as instant events on the ``alerts`` track.
    registry:
        A :class:`~repro.telemetry.metrics.MetricsRegistry`; the engine
        registers the ``ALERTS`` gauge (currently-firing count), an
        ``alerts_pending`` gauge and an ``alerts_transitions`` counter
        labelled ``(rule, state)``.
    """

    def __init__(
        self,
        rules: RuleSet,
        *,
        log=None,
        notify=None,
        sink=None,
        registry=None,
    ):
        self.rules = rules
        self.sink = sink
        self.notify = notify
        self._log_path = None
        self._log_fh = None
        if log is not None:
            from pathlib import Path

            self._log_path = Path(log)
            self._log_path.parent.mkdir(parents=True, exist_ok=True)
            self._log_fh = open(self._log_path, "a")
        self.transitions: deque = deque(maxlen=MAX_TRANSITIONS)
        self.transitions_total = 0
        self.frames_seen = 0
        self.last_cycle = 0
        self._instances: Dict[str, Dict[str, _Instance]] = {
            rule.name: {} for rule in rules.alerts
        }
        self._slo_state: Dict[str, deque] = {
            slo.name: deque() for slo in rules.slos
        }
        self._slo_instances: Dict[str, _Instance] = {
            slo.name: _Instance() for slo in rules.slos
        }
        self._live = None
        self._metric_counter = None
        if registry is not None:
            self.register_metrics(registry)

    # -- wiring --------------------------------------------------------------

    def attach(self, live) -> "AlertEngine":
        """Subscribe to a :class:`~repro.telemetry.live.LiveStream`."""
        self._live = live
        live.subscribe(self.observe_frame)
        return self

    def detach(self) -> None:
        if self._live is not None:
            self._live.unsubscribe(self.observe_frame)
            self._live = None

    def register_metrics(self, registry) -> None:
        """Expose alert state in a metrics registry (Prometheus scrape)."""
        registry.gauge(
            "ALERTS", "alert rule instances currently firing"
        ).set_function(lambda: len(self.firing()))
        registry.gauge(
            "alerts_pending", "alert rule instances currently pending"
        ).set_function(lambda: len(self.pending()))
        self._metric_counter = registry.counter(
            "alerts_transitions", "alert lifecycle transitions by (rule, state)"
        )

    def close(self) -> None:
        """Close the JSONL alert log (transitions stay queryable)."""
        if self._log_fh is not None:
            self._log_fh.close()
            self._log_fh = None

    # -- evaluation ----------------------------------------------------------

    def observe_frame(self, frame: Dict[str, Any]) -> None:
        """LiveStream subscriber: evaluate one ``multinoc-live/1`` frame."""
        self.observe_sample(
            frame_fields(frame),
            cycle=frame.get("cycle", 0),
            window=max(frame.get("window", 1), 1),
        )

    def observe_sample(
        self, fields: Dict[str, Any], *, cycle: int, window: int = 1
    ) -> List[Dict[str, Any]]:
        """Evaluate one flat sample; returns the emitted transitions."""
        self.frames_seen += 1
        self.last_cycle = cycle
        emitted: List[Dict[str, Any]] = []
        for rule in self.rules.alerts:
            emitted.extend(self._eval_rule(rule, fields, cycle))
        for slo in self.rules.slos:
            emitted.extend(self._eval_slo(slo, fields, cycle, window))
        return emitted

    def _eval_rule(
        self, rule: AlertRule, fields: Dict[str, Any], cycle: int
    ) -> List[Dict[str, Any]]:
        instances = self._instances[rule.name]
        emitted: List[Dict[str, Any]] = []
        active_keys = set()
        for labels, value in rule.condition.instances(fields):
            key = _series_key(rule.name, labels)
            holds = rule.condition.holds(value)
            if holds:
                active_keys.add(key)
            inst = instances.get(key)
            if inst is None:
                if not holds:
                    continue
                inst = instances[key] = _Instance()
            emitted.extend(
                self._step(rule, inst, labels, value, holds, cycle)
            )
        # series that vanished from the sample (an idle link drops out of
        # the frame entirely) resolve exactly like an explicit false
        for key, inst in list(instances.items()):
            if key in active_keys or inst.state == "inactive":
                continue
            if not any(
                _series_key(rule.name, labels) == key
                for labels, _ in rule.condition.instances(fields)
            ):
                emitted.extend(
                    self._step(rule, inst, _labels_of(key), None, False, cycle)
                )
        return emitted

    def _step(
        self,
        rule,
        inst: _Instance,
        labels: Dict[str, str],
        value: Any,
        holds: bool,
        cycle: int,
        *,
        rule_name: Optional[str] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> List[Dict[str, Any]]:
        """Advance one instance's lifecycle; returns emitted transitions."""
        name = rule_name if rule_name is not None else rule.name
        out: List[Dict[str, Any]] = []
        if holds:
            inst.value = value
            if inst.peak is None or (
                isinstance(value, (int, float))
                and isinstance(inst.peak, (int, float))
                and value > inst.peak
            ):
                inst.peak = value
            if inst.state == "inactive":
                inst.since = cycle
                inst.fired_at = None
                inst.peak = value
                if rule.for_cycles == 0:
                    inst.state = "firing"
                    inst.fired_at = cycle
                    out.append(
                        self._transition(rule, name, inst, labels, "firing", cycle, extra)
                    )
                else:
                    inst.state = "pending"
                    out.append(
                        self._transition(rule, name, inst, labels, "pending", cycle, extra)
                    )
            elif (
                inst.state == "pending"
                and cycle - inst.since >= rule.for_cycles
            ):
                inst.state = "firing"
                inst.fired_at = cycle
                out.append(
                    self._transition(rule, name, inst, labels, "firing", cycle, extra)
                )
        else:
            if inst.state == "firing":
                out.append(
                    self._transition(rule, name, inst, labels, "resolved", cycle, extra)
                )
            inst.state = "inactive"
            inst.value = value
        return out

    def _eval_slo(
        self, slo: SloObjective, fields: Dict[str, Any], cycle: int, window: int
    ) -> List[Dict[str, Any]]:
        instances = slo.condition.instances(fields)
        # no data for the window counts as good: nothing violated
        good = all(slo.condition.holds(v) for _, v in instances)
        history = self._slo_state[slo.name]
        history.append((window, good))
        total = sum(w for w, _ in history)
        while history and total - history[0][0] >= slo.window:
            total -= history.popleft()[0]
        bad = sum(w for w, g in history if not g)
        bad_fraction = bad / total if total else 0.0
        burn_rate = bad_fraction / slo.budget
        inst = self._slo_instances[slo.name]
        extra = {
            "slo": slo.name,
            "burn_rate": round(burn_rate, 4),
            "budget_used": round(min(burn_rate, 10.0), 4),
            "compliance": round(1.0 - bad_fraction, 6),
        }
        return self._step(
            slo,
            inst,
            {},
            round(burn_rate, 4),
            burn_rate > slo.burn,
            cycle,
            rule_name=f"slo:{slo.name}",
            extra=extra,
        )

    # -- fan-out -------------------------------------------------------------

    def _transition(
        self,
        rule,
        name: str,
        inst: _Instance,
        labels: Dict[str, str],
        state: str,
        cycle: int,
        extra: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        static = getattr(rule, "labels", None) or {}
        transition: Dict[str, Any] = {
            "schema": ALERT_SCHEMA,
            "rule": name,
            "labels": {**static, **labels},
            "state": state,
            "severity": rule.severity,
            "cycle": cycle,
            "since_cycle": inst.since,
            "value": inst.value,
            "expr": rule.condition.source,
        }
        if inst.fired_at is not None:
            transition["fired_cycle"] = inst.fired_at
        annotation = None
        if hasattr(rule, "render_annotation"):
            annotation = rule.render_annotation(
                labels, inst.value if inst.value is not None else "", cycle
            )
        if annotation:
            transition["annotation"] = annotation
        if extra:
            transition.update(extra)
        self.transitions.append(transition)
        self.transitions_total += 1
        if self._log_fh is not None:
            self._log_fh.write(
                json.dumps(transition, separators=(",", ":")) + "\n"
            )
            self._log_fh.flush()
        if self._metric_counter is not None:
            self._metric_counter.inc(label=(name, state))
        if self.sink is not None:
            self.sink.track(ALERT_TRACK, process="sim")
            self.sink.instant(
                ALERT_TRACK,
                f"alert_{state}",
                cycle,
                rule=name,
                labels=transition["labels"],
                value=inst.value,
                severity=rule.severity,
            )
        if self.notify is not None:
            if callable(self.notify):
                self.notify(transition)
            else:
                print(self.render_notice(transition), file=self.notify)
        return transition

    @staticmethod
    def render_notice(transition: Dict[str, Any]) -> str:
        """One human-readable line for a transition (stderr notices)."""
        series = _series_key(transition["rule"], transition.get("labels") or {})
        value = transition.get("value")
        value_text = (
            f" value={value:g}"
            if isinstance(value, (int, float))
            else (f" value={value}" if value is not None else "")
        )
        text = (
            f"ALERT {transition['state'].upper():<8} {series} "
            f"@cycle {transition['cycle']}{value_text} "
            f"[{transition.get('severity', '?')}]"
        )
        annotation = transition.get("annotation")
        return f"{text}  {annotation}" if annotation else text

    # -- state queries -------------------------------------------------------

    def _alerts_in(self, state: str) -> List[Dict[str, Any]]:
        out = []
        for rule in self.rules.alerts:
            for key, inst in sorted(self._instances[rule.name].items()):
                if inst.state == state:
                    out.append(
                        {
                            "rule": rule.name,
                            "series": key,
                            "state": inst.state,
                            "severity": rule.severity,
                            "since_cycle": inst.since,
                            "fired_cycle": inst.fired_at,
                            "value": inst.value,
                        }
                    )
        for slo in self.rules.slos:
            inst = self._slo_instances[slo.name]
            if inst.state == state:
                out.append(
                    {
                        "rule": f"slo:{slo.name}",
                        "series": f"slo:{slo.name}",
                        "state": inst.state,
                        "severity": slo.severity,
                        "since_cycle": inst.since,
                        "fired_cycle": inst.fired_at,
                        "value": inst.value,
                    }
                )
        return out

    def firing(self) -> List[Dict[str, Any]]:
        return self._alerts_in("firing")

    def pending(self) -> List[Dict[str, Any]]:
        return self._alerts_in("pending")

    def fired_ever(self) -> List[str]:
        """Series that reached firing at any point (the check verdict)."""
        seen: List[str] = []
        for t in self.transitions:
            if t["state"] == "firing":
                key = _series_key(t["rule"], t.get("labels") or {})
                if key not in seen:
                    seen.append(key)
        return seen

    def slo_status(self) -> List[Dict[str, Any]]:
        """Per-objective budget accounting for the trailing window."""
        out = []
        for slo in self.rules.slos:
            history = self._slo_state[slo.name]
            total = sum(w for w, _ in history)
            bad = sum(w for w, g in history if not g)
            bad_fraction = bad / total if total else 0.0
            burn_rate = bad_fraction / slo.budget
            out.append(
                {
                    "slo": slo.name,
                    "expr": slo.condition.source,
                    "target": slo.target,
                    "window": slo.window,
                    "window_cycles_seen": total,
                    "compliance": round(1.0 - bad_fraction, 6),
                    "error_budget": slo.budget,
                    "budget_used": round(burn_rate, 4),
                    "burn_rate": round(burn_rate, 4),
                    "burn_threshold": slo.burn,
                    "healthy": burn_rate <= slo.burn,
                }
            )
        return out

    def document(self) -> Dict[str, Any]:
        """The ``/alerts`` endpoint document (``multinoc-alerts/1``)."""
        return {
            "schema": ALERTS_DOC_SCHEMA,
            "rules": self.rules.names(),
            "frames_seen": self.frames_seen,
            "last_cycle": self.last_cycle,
            "firing": self.firing(),
            "pending": self.pending(),
            "slos": self.slo_status(),
            "transitions": list(self.transitions),
            "transitions_total": self.transitions_total,
        }

    def report(self) -> str:
        """Multi-line verdict report (``multinoc alerts check``)."""
        lines = [
            f"{len(self.rules)} rule(s) over {self.frames_seen} sample(s), "
            f"last cycle {self.last_cycle}"
        ]
        fired = self.fired_ever()
        lifecycles: Dict[str, List[str]] = {}
        for t in self.transitions:
            key = _series_key(t["rule"], t.get("labels") or {})
            lifecycles.setdefault(key, []).append(
                f"{t['state']}@{t['cycle']}"
            )
        for rule_name in self.rules.names():
            series = {
                k: v for k, v in lifecycles.items()
                if k == rule_name or k.startswith(rule_name + "{")
            }
            if not series:
                lines.append(f"  ok      {rule_name} (never pending)")
                continue
            for key, steps in sorted(series.items()):
                verdict = "FIRED" if key in fired else "pending"
                lines.append(f"  {verdict:<7} {key}: {' -> '.join(steps)}")
        for status in self.slo_status():
            state = "ok" if status["healthy"] else "BURNING"
            lines.append(
                f"  slo {status['slo']}: compliance "
                f"{status['compliance'] * 100:.2f}% "
                f"(target {status['target'] * 100:g}%), "
                f"burn rate {status['burn_rate']:g} "
                f"(threshold {status['burn_threshold']:g}) — {state}"
            )
        return "\n".join(lines)


def _labels_of(series_key: str) -> Dict[str, str]:
    """Recover the label dict from a series key (``name{k=v,...}``)."""
    if "{" not in series_key:
        return {}
    inner = series_key[series_key.index("{") + 1 : -1]
    out = {}
    for part in filter(None, inner.split(",")):
        k, _, v = part.partition("=")
        out[k] = v
    return out


# -- post-hoc replay ---------------------------------------------------------


def frames_from_trace(sink) -> List[Dict[str, Any]]:
    """Extract mirrored live frames from a telemetry sink/event iterable.

    Runs served or alerted through the CLI mirror every live frame into
    the event stream (track ``live``, name ``frame``); replaying those
    frames through an :class:`AlertEngine` reproduces the live verdicts
    exactly.  Returns frames in emission order.
    """
    events = getattr(sink, "events", sink)
    frames = []
    for event in events:
        if event.track == FRAME_TRACK and event.name == FRAME_EVENT:
            frame = (event.args or {}).get("frame")
            if isinstance(frame, dict):
                frames.append(frame)
    return frames


def check_frames(
    rules: RuleSet, frames: Iterable[Dict[str, Any]], **engine_kwargs
) -> AlertEngine:
    """Replay *frames* through a fresh engine; returns it for verdicts."""
    engine = AlertEngine(rules, **engine_kwargs)
    for frame in frames:
        engine.observe_frame(frame)
    return engine


def check_records(
    rules: RuleSet, records: Iterable[Dict[str, Any]], **engine_kwargs
) -> AlertEngine:
    """Evaluate rules over registry records (one record = one step).

    The sample for each record is its flat ``metrics`` dict plus
    ``status``/``exit_code``; the clock advances by one per record, so
    a ``for: N`` clause means "N consecutive records".
    """
    engine = AlertEngine(rules, **engine_kwargs)
    for i, record in enumerate(records):
        engine.observe_sample(record_fields(record), cycle=i, window=1)
    return engine
