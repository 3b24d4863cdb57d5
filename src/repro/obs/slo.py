"""Service-level objectives over the metric history, with burn-rate
alerting.

An :class:`SloObjective` is a declarative, machine-checkable health
contract against one metric series:

* ``latency`` — a quantile ceiling over a latency histogram (e.g. "p99
  of ``query.latency_ms{kind=SELECT}`` stays under 50 ms"), computed
  over sliding windows by diffing bucket counts between two time-series
  samples (:meth:`~repro.obs.timeseries.TimeSeriesRecorder.windowed_quantile`);
* ``error_rate`` — an error budget in the Google-SRE mold: with
  objective 99.9 %, the budget is 0.1 % of statements, and the **burn
  rate** is ``observed_error_rate / budget`` — burn 1.0 exhausts the
  budget exactly at the window's end, burn 14.4 in a 5-minute window is
  a page;
* ``gauge`` — an absolute ceiling on a gauge (replication lag batches,
  server queue depth), aggregated ``max`` over the window.

**Multi-window evaluation**: every objective carries one or more
windows (default a long and a short one).  The breach condition must
hold in *all* windows simultaneously — the long window supplies
significance (a real trend, not one slow statement), the short window
supplies recency (the problem is still happening), exactly the
multi-window multi-burn-rate recipe of the Google SRE workbook.

**Alert state machine** (per objective)::

    OK ──breach──▶ PENDING ──breach for ≥ for_ms──▶ FIRING
     ▲                │                                │
     └──recovered─────┘                     recovered  ▼
     └──────────────(next evaluation)────────── RESOLVED

Transitions are recorded as :class:`AlertEvent` rows in a bounded ring —
``SYS.ALERTS`` — and the current contract state is one ``SYS.SLOS`` row
per objective with a nested per-window ``WINDOWS`` subtable.  Every
evaluation also publishes ``slo.*`` / ``alert.*`` metrics, so alert
state reaches the Prometheus scrape and, recursively, the time-series
history itself.

Evaluation is driven by the time-series recorder's clock
(:meth:`~repro.obs.timeseries.TimeSeriesRecorder.sample_once` calls
:meth:`SloEngine.evaluate` when objectives exist), or manually/
deterministically by tests and the ``HEALTH`` probe.

Environment knobs (read by :meth:`SloEngine.install_default_objectives`):

* ``REPRO_SLO_P99_MS`` — p99 statement-latency ceiling (ms)
* ``REPRO_SLO_ERROR_RATE`` — statement error-budget objective
  (default 0.999 = at most 0.1 % failing)
* ``REPRO_SLO_REPLICA_LAG`` — replication lag ceiling (batches)
* ``REPRO_SLO_QUEUE_DEPTH`` — server admission-queue depth ceiling
* ``REPRO_SLO_WINDOW_S`` / ``REPRO_SLO_SHORT_WINDOW_S`` /
  ``REPRO_SLO_FOR_MS`` — default windows and FIRING debounce
* ``REPRO_ALERTS_KEEP`` — alert-event ring capacity (default 1024)
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Iterator, Optional

from repro.obs.metrics import METRICS, env_number

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.database import Database

#: the alert states, in escalation order
OK = "OK"
PENDING = "PENDING"
FIRING = "FIRING"
RESOLVED = "RESOLVED"

_KINDS = ("latency", "error_rate", "gauge")


class SloObjective:
    """One declarative objective.  See the module docstring for kinds."""

    def __init__(
        self,
        name: str,
        kind: str,
        metric: str,
        labels: Optional[dict] = None,
        quantile: Optional[float] = None,
        ceiling: Optional[float] = None,
        objective: Optional[float] = None,
        total_metric: Optional[str] = None,
        burn_factor: float = 1.0,
        windows: Optional[tuple] = None,
        for_ms: float = 0.0,
        description: str = "",
    ):
        if kind not in _KINDS:
            raise ValueError(f"unknown SLO kind {kind!r}; one of {_KINDS}")
        if kind == "latency" and (quantile is None or ceiling is None):
            raise ValueError("latency SLOs need quantile= and ceiling=")
        if kind == "error_rate" and (objective is None or total_metric is None):
            raise ValueError("error_rate SLOs need objective= and total_metric=")
        if kind == "gauge" and ceiling is None:
            raise ValueError("gauge SLOs need ceiling=")
        self.name = name
        self.kind = kind
        self.metric = metric
        self.labels = dict(labels or {})
        self.quantile = quantile
        self.ceiling = ceiling
        self.objective = objective          # e.g. 0.999 success target
        self.total_metric = total_metric    # denominator counter
        self.burn_factor = burn_factor      # burn rate that counts as breach
        self.windows = tuple(
            windows
            if windows is not None
            else (env_number("REPRO_SLO_WINDOW_S", 300.0),
                  env_number("REPRO_SLO_SHORT_WINDOW_S", 60.0))
        )
        self.for_ms = for_ms
        self.description = description

    @property
    def budget(self) -> Optional[float]:
        """The error budget (1 - objective) for error-rate SLOs."""
        return None if self.objective is None else 1.0 - self.objective

    @property
    def threshold(self) -> Optional[float]:
        """What the measured value is compared against: the ceiling for
        latency/gauge SLOs, the budget × burn_factor for error rates."""
        if self.kind == "error_rate":
            return (self.budget or 0.0) * self.burn_factor
        return self.ceiling


class WindowMeasure:
    """One window's measurement during one evaluation."""

    __slots__ = ("window_s", "value", "burn_rate", "breached")

    def __init__(self, window_s, value, burn_rate, breached):
        self.window_s = window_s
        self.value = value
        self.burn_rate = burn_rate
        self.breached = breached


class AlertEvent:
    """One state-machine transition (a ``SYS.ALERTS`` row)."""

    __slots__ = ("seq", "ts", "slo", "from_state", "to_state", "value",
                 "threshold", "burn_rate", "message")

    def __init__(self, seq, ts, slo, from_state, to_state, value, threshold,
                 burn_rate, message):
        self.seq = seq
        self.ts = ts
        self.slo = slo
        self.from_state = from_state
        self.to_state = to_state
        self.value = value
        self.threshold = threshold
        self.burn_rate = burn_rate
        self.message = message


class _AlertState:
    """Mutable per-objective alert bookkeeping."""

    __slots__ = ("state", "since", "pending_since", "last_value",
                 "last_burn", "last_windows", "fired_count")

    def __init__(self):
        self.state = OK
        self.since: Optional[float] = None
        self.pending_since: Optional[float] = None
        self.last_value: Optional[float] = None
        self.last_burn: Optional[float] = None
        self.last_windows: list[WindowMeasure] = []
        self.fired_count = 0


class SloEngine:
    """All objectives + alert state of one database."""

    def __init__(self, db: "Database"):
        self._db = db
        self.objectives: dict[str, SloObjective] = {}
        self._alerts: dict[str, _AlertState] = {}
        self.events: deque[AlertEvent] = deque(
            maxlen=env_number("REPRO_ALERTS_KEEP", 1024, int)
        )
        self._seq = 0
        self._latch = threading.Lock()

    # -- definition --------------------------------------------------------

    def define(self, slo: Optional[SloObjective] = None, **kwargs) -> SloObjective:
        """Register (or replace) one objective; keyword form builds the
        :class:`SloObjective` in place."""
        if slo is None:
            slo = SloObjective(**kwargs)
        with self._latch:
            self.objectives[slo.name] = slo
            self._alerts.setdefault(slo.name, _AlertState())
        return slo

    def remove(self, name: str) -> None:
        with self._latch:
            self.objectives.pop(name, None)
            self._alerts.pop(name, None)

    def install_default_objectives(self) -> list[SloObjective]:
        """The standard contract, parameterized by environment: statement
        p99 latency, statement error budget, replication lag, and server
        queue depth.  Used by ``--monitor`` serving and the SLO gate."""
        for_ms = env_number("REPRO_SLO_FOR_MS", 0.0)
        installed = [
            self.define(
                name="statement-p99",
                kind="latency",
                metric="query.latency_ms",
                quantile=0.99,
                ceiling=env_number("REPRO_SLO_P99_MS", 100.0),
                for_ms=for_ms,
                description="p99 statement latency (all kinds)",
            ),
            self.define(
                name="statement-errors",
                kind="error_rate",
                metric="query.errors",
                total_metric="query.statements",
                objective=env_number("REPRO_SLO_ERROR_RATE", 0.999),
                for_ms=for_ms,
                description="statement error budget",
            ),
            self.define(
                name="replica-lag",
                kind="gauge",
                metric="replication.lag",
                ceiling=env_number("REPRO_SLO_REPLICA_LAG", 8.0),
                for_ms=for_ms,
                description="replication lag (shipped-but-unapplied batches)",
            ),
            self.define(
                name="server-queue",
                kind="gauge",
                metric="server.queue_depth",
                ceiling=env_number("REPRO_SLO_QUEUE_DEPTH", 64.0),
                for_ms=for_ms,
                description="admission-control backlog",
            ),
        ]
        return installed

    # -- measurement -------------------------------------------------------

    def _measure_window(
        self, slo: SloObjective, window_s: float, now: float
    ) -> WindowMeasure:
        ts = self._db.ts
        value: Optional[float] = None
        burn: Optional[float] = None
        if slo.kind == "latency":
            value = ts.windowed_quantile(
                slo.metric, slo.labels, window_s, slo.quantile, now=now
            )
            if value is not None and slo.ceiling:
                burn = value / slo.ceiling
            breached = value is not None and value > slo.ceiling
        elif slo.kind == "error_rate":
            errors = ts.windowed_delta(
                slo.metric, slo.labels, window_s, now=now
            )
            total = ts.windowed_delta(
                slo.total_metric, slo.labels, window_s, now=now
            )
            if total:
                value = (errors or 0.0) / total
                budget = slo.budget or 0.0
                burn = value / budget if budget > 0 else float(value > 0)
            breached = burn is not None and burn >= slo.burn_factor
        else:  # gauge
            value = ts.windowed_gauge(
                slo.metric, slo.labels, window_s, agg="max", now=now
            )
            if value is None:
                # no history yet: fall back to the live gauge so HEALTH
                # works before (or without) the recorder
                gauge = METRICS._gauges.get(slo.metric)
                if gauge is not None:
                    raw = gauge.value(**slo.labels)
                    value = float(raw) if raw else None
            if value is not None and slo.ceiling:
                burn = value / slo.ceiling
            breached = value is not None and value > slo.ceiling
        return WindowMeasure(window_s, value, burn, breached)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, now: Optional[float] = None) -> list[AlertEvent]:
        """Measure every objective over its windows and step the alert
        state machines; returns the transitions this evaluation caused."""
        now = time.time() if now is None else now
        new_events: list[AlertEvent] = []
        with self._latch:
            objectives = list(self.objectives.values())
        firing = 0
        for slo in objectives:
            measures = [
                self._measure_window(slo, w, now) for w in slo.windows
            ]
            measured = [m for m in measures if m.value is not None]
            # all windows must breach — and at least one must have data
            breached = bool(measured) and all(m.breached for m in measures
                                              if m.value is not None)
            primary = measured[0] if measured else measures[0]
            state = self._alerts.setdefault(slo.name, _AlertState())
            state.last_value = primary.value
            state.last_burn = primary.burn_rate
            state.last_windows = measures
            new_events.extend(
                self._step(slo, state, breached, primary, now)
            )
            if state.state == FIRING:
                firing += 1
            if METRICS.enabled:
                if primary.value is not None:
                    METRICS.set_gauge("slo.value", primary.value, slo=slo.name)
                for m in measures:
                    if m.burn_rate is not None:
                        METRICS.set_gauge(
                            "slo.burn_rate",
                            m.burn_rate,
                            slo=slo.name,
                            window=f"{m.window_s:g}s",
                        )
                METRICS.set_gauge(
                    "slo.breached", 1.0 if breached else 0.0, slo=slo.name
                )
        if METRICS.enabled:
            METRICS.set_gauge("alert.firing", float(firing))
            if new_events:
                for event in new_events:
                    METRICS.inc(
                        "alert.transitions", slo=event.slo, to=event.to_state
                    )
        with self._latch:
            self.events.extend(new_events)
        return new_events

    def _step(
        self,
        slo: SloObjective,
        state: _AlertState,
        breached: bool,
        primary: WindowMeasure,
        now: float,
    ) -> list[AlertEvent]:
        """One state-machine step; may emit several chained transitions
        (OK → PENDING → FIRING in the same tick when ``for_ms`` is 0)."""
        events: list[AlertEvent] = []

        def shift(to_state: str, message: str) -> None:
            self._seq += 1
            events.append(
                AlertEvent(
                    seq=self._seq,
                    ts=now,
                    slo=slo.name,
                    from_state=state.state,
                    to_state=to_state,
                    value=primary.value,
                    threshold=slo.threshold,
                    burn_rate=primary.burn_rate,
                    message=message,
                )
            )
            state.state = to_state
            state.since = now

        if state.state in (OK, RESOLVED):
            if breached:
                state.pending_since = now
                shift(PENDING, self._describe(slo, primary, "breached"))
            elif state.state == RESOLVED:
                # RESOLVED is transient: one clean evaluation returns to OK
                state.state = OK
                state.since = now
        elif state.state == PENDING:
            if not breached:
                state.pending_since = None
                shift(OK, self._describe(slo, primary, "recovered"))
            elif (now - (state.pending_since or now)) * 1000.0 >= slo.for_ms:
                state.fired_count += 1
                shift(FIRING, self._describe(slo, primary, "still breached"))
        elif state.state == FIRING:
            if not breached:
                state.pending_since = None
                shift(RESOLVED, self._describe(slo, primary, "recovered"))
        # a PENDING alert with for_ms=0 escalates within the same tick
        if (
            state.state == PENDING
            and breached
            and slo.for_ms <= 0
            and not any(e.to_state == FIRING for e in events)
        ):
            state.fired_count += 1
            shift(FIRING, self._describe(slo, primary, "still breached"))
        return events

    @staticmethod
    def _describe(slo: SloObjective, m: WindowMeasure, what: str) -> str:
        value = "n/a" if m.value is None else f"{m.value:g}"
        if slo.kind == "latency":
            return (
                f"p{slo.quantile * 100:g} {slo.metric} = {value} ms over "
                f"{m.window_s:g}s (ceiling {slo.ceiling:g} ms): {what}"
            )
        if slo.kind == "error_rate":
            burn = "n/a" if m.burn_rate is None else f"{m.burn_rate:g}"
            return (
                f"error rate {value} over {m.window_s:g}s burns "
                f"{burn}x the {1.0 - (slo.objective or 0):g} budget: {what}"
            )
        return (
            f"{slo.metric} = {value} over {m.window_s:g}s "
            f"(ceiling {slo.ceiling:g}): {what}"
        )

    # -- reading -----------------------------------------------------------

    def alert_state(self, name: str) -> str:
        state = self._alerts.get(name)
        return state.state if state is not None else OK

    def firing(self) -> list[str]:
        return sorted(
            name for name, s in self._alerts.items() if s.state == FIRING
        )

    def slo_rows(self) -> Iterator[dict]:
        """``SYS.SLOS`` producer rows."""
        with self._latch:
            objectives = sorted(self.objectives.items())
        for name, slo in objectives:
            state = self._alerts.get(name) or _AlertState()
            yield {
                "NAME": name,
                "KIND": slo.kind,
                "METRIC": slo.metric,
                "LABELS": [
                    {"NAME": k, "VALUE": str(v)}
                    for k, v in sorted(slo.labels.items())
                ],
                "QUANTILE": slo.quantile,
                "CEILING": slo.ceiling,
                "OBJECTIVE": slo.objective,
                "BUDGET": slo.budget,
                "FOR_MS": slo.for_ms,
                "VALUE": state.last_value,
                "BURN_RATE": state.last_burn,
                "STATE": state.state,
                "SINCE": state.since,
                "FIRED": state.fired_count,
                "DESCRIPTION": slo.description or None,
                "WINDOWS": [
                    {
                        "WINDOW_S": m.window_s,
                        "VALUE": m.value,
                        "BURN_RATE": m.burn_rate,
                        "BREACHED": m.breached,
                    }
                    for m in state.last_windows
                ],
            }

    def alert_rows(self) -> Iterator[dict]:
        """``SYS.ALERTS`` producer rows (transition history, oldest
        first)."""
        for event in list(self.events):
            yield {
                "SEQ": event.seq,
                "TS": event.ts,
                "SLO": event.slo,
                "FROM_STATE": event.from_state,
                "TO_STATE": event.to_state,
                "VALUE": event.value,
                "THRESHOLD": event.threshold,
                "BURN_RATE": event.burn_rate,
                "MESSAGE": event.message,
            }
