"""Tests for PR 10's self-monitoring subsystem: the metric time-series
recorder (SYS.METRICS_HISTORY), the SLO engine with burn-rate alerting
(SYS.SLOS / SYS.ALERTS, shell .health/.alerts, server HEALTH verb), and
background-thread hygiene on Database.close()."""

import io
import threading
import time

import pytest

from repro import obs
from repro.database import Database
from repro.datasets import paper
from repro.obs import METRICS, TRACER
from repro.obs.metrics import MetricsRegistry, interpolated_quantile
from repro.obs.slo import FIRING, OK, PENDING, RESOLVED, SloObjective
from repro.obs.timeseries import TIER_FACTORS


@pytest.fixture(autouse=True)
def _clean_observability():
    obs.disable()
    METRICS.clear()
    TRACER.traces.clear()
    TRACER.last_trace = None
    yield
    obs.disable()
    METRICS.clear()
    TRACER.traces.clear()
    TRACER.last_trace = None


def make_paper_db():
    db = Database()
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS)
    return db


# ---------------------------------------------------------------------------
# satellite: interpolated histogram quantiles
# ---------------------------------------------------------------------------


def test_interpolated_quantile_mid_bucket():
    # observations 1,2,2,100 in buckets (1,2,5): counts [1,2,0,1]
    assert interpolated_quantile((1, 2, 5), [1, 2, 0, 1], 4, 1, 100, 0.5) == 1.5
    # overflow bucket interpolates toward the observed max, never inf
    assert interpolated_quantile(
        (1, 2, 5), [1, 2, 0, 1], 4, 1, 100, 0.95
    ) == pytest.approx(81.0)
    assert interpolated_quantile((1, 2, 5), [0, 0, 0, 0], 0, None, None, 0.5) is None


def test_quantile_clamped_to_observed_envelope():
    registry = MetricsRegistry(enabled=True)
    histogram = registry.histogram("h", buckets=(10, 100))
    histogram.observe(7)
    # one observation in the (0, 10] bucket: every quantile is 7, not
    # an interpolated point of the bucket span
    assert histogram.quantile(0.01) == 7
    assert histogram.quantile(0.99) == 7


def test_quantile_for_targets_one_labeled_series():
    registry = MetricsRegistry(enabled=True)
    histogram = registry.histogram("h", buckets=(10, 100, 1000))
    for v in (5, 5, 5, 5):
        histogram.observe(v, kind="fast")
    for v in (500, 500, 500, 500):
        histogram.observe(v, kind="slow")
    assert histogram.quantile_for({"kind": "fast"}, 0.5) == 5
    assert histogram.quantile_for({"kind": "slow"}, 0.5) == 500
    # combined view straddles both populations
    combined = histogram.quantile(0.5)
    assert 5 <= combined <= 500
    assert histogram.quantile_for({"kind": "absent"}, 0.5) is None


# ---------------------------------------------------------------------------
# tentpole 1: the time-series recorder
# ---------------------------------------------------------------------------


def test_recorder_samples_deltas_and_rates():
    db = Database()
    METRICS.enable()
    METRICS.inc("work.done", 10)
    db.ts.sample_once(now=100.0)
    METRICS.inc("work.done", 30)
    db.ts.sample_once(now=110.0)
    rows = list(db.ts.series_rows())
    row = next(r for r in rows if r["NAME"] == "work.done" and r["TIER"] == "1s")
    assert row["POINTS"] == 2
    assert row["LAST_VALUE"] == 40.0
    samples = row["SAMPLES"]
    assert samples[0]["DELTA"] is None  # first sample has no predecessor
    assert samples[1]["DELTA"] == 30.0
    assert samples[1]["RATE"] == pytest.approx(3.0)  # 30 over 10 s
    db.close()


def test_recorder_downsamples_into_tiers():
    db = Database()
    METRICS.enable()
    for tick in range(61):
        METRICS.inc("work.done")
        db.ts.sample_once(now=1000.0 + tick)
    rows = [r for r in db.ts.series_rows() if r["NAME"] == "work.done"]
    by_tier = {r["TIER"]: r for r in rows}
    assert set(by_tier) == {"1s", "10s", "60s"}
    assert by_tier["1s"]["POINTS"] == 61
    assert by_tier["10s"]["POINTS"] == 6   # ticks 10, 20, ..., 60
    assert by_tier["60s"]["POINTS"] == 1   # tick 60
    # a 10s-tier delta covers ten raw increments
    assert by_tier["10s"]["SAMPLES"][-1]["DELTA"] == 10.0
    assert TIER_FACTORS == (1, 10, 60)
    db.close()


def test_recorder_ring_is_bounded():
    db = Database()
    db.ts.keep = 5
    db.ts._series.clear()
    METRICS.enable()
    for tick in range(20):
        METRICS.inc("work.done")
        db.ts.sample_once(now=float(tick))
    row = next(
        r for r in db.ts.series_rows()
        if r["NAME"] == "work.done" and r["TIER"] == "1s"
    )
    assert row["POINTS"] == 5
    assert row["SAMPLES"][0]["TS"] == 15.0
    db.close()


def test_metrics_history_view_full_pipeline():
    db = make_paper_db()
    METRICS.enable()
    db.query("SELECT x.DNO FROM x IN DEPARTMENTS")
    db.ts.sample_once(now=100.0)
    db.query("SELECT x.DNO FROM x IN DEPARTMENTS")
    db.ts.sample_once(now=101.0)
    result = db.query(
        "SELECT h.NAME, h.TIER, h.POINTS, "
        "S = (SELECT s.TS, s.VALUE, s.DELTA FROM s IN h.SAMPLES) "
        "FROM h IN SYS.METRICS_HISTORY "
        "WHERE h.NAME = 'query.latency_ms' ORDER BY h.TIER"
    )
    assert len(result.rows) >= 1
    nested = result.rows[0]["S"]
    assert len(nested.rows) == 2
    assert nested.rows[1]["DELTA"] is not None
    plan = db.execute("EXPLAIN SELECT h.NAME FROM h IN SYS.METRICS_HISTORY")
    assert "access: system view" in plan
    db.close()


def test_recorder_background_thread_lifecycle():
    db = Database()
    db.ts.period_ms = 5
    METRICS.enable()
    db.ts.start()
    assert db.ts.running
    assert any(t.name == "repro-ts" for t in threading.enumerate())
    deadline = time.monotonic() + 5
    while db.ts.ticks < 3 and time.monotonic() < deadline:
        METRICS.inc("work.done")
        time.sleep(0.005)
    assert db.ts.ticks >= 3
    db.ts.stop()
    assert not db.ts.running
    db.close()


def test_windowed_delta_rate_and_gauge():
    db = Database()
    METRICS.enable()
    METRICS.inc("c", 5, kind="a")
    METRICS.inc("c", 5, kind="b")
    METRICS.set_gauge("g", 3.0)
    db.ts.sample_once(now=100.0)
    METRICS.inc("c", 10, kind="a")
    METRICS.set_gauge("g", 9.0)
    db.ts.sample_once(now=110.0)
    METRICS.set_gauge("g", 4.0)
    db.ts.sample_once(now=120.0)
    # empty labels aggregate every label combination of the counter
    assert db.ts.windowed_delta("c", {}, 15.0, now=120.0) == 10.0
    assert db.ts.windowed_delta("c", {"kind": "b"}, 15.0, now=120.0) == 0.0
    assert db.ts.windowed_delta("c", {}, 1000.0, now=120.0) == 20.0
    assert db.ts.windowed_gauge("g", {}, 15.0, agg="max", now=120.0) == 9.0
    assert db.ts.windowed_gauge("g", {}, 15.0, agg="last", now=120.0) == 4.0
    assert db.ts.windowed_delta("missing", {}, 15.0, now=120.0) is None
    db.close()


def test_windowed_quantile_sees_only_window_observations():
    db = Database()
    METRICS.enable()
    histogram = METRICS.histogram("lat", buckets=(1, 10, 100))
    for _ in range(100):
        histogram.observe(0.5, kind="x")  # old, fast population
    db.ts.sample_once(now=100.0)
    for _ in range(10):
        histogram.observe(50, kind="x")   # recent, slow population
    db.ts.sample_once(now=110.0)
    # lifetime p50 is fast; the window (whose baseline is the sample at
    # t=100) only saw the slow observations
    lifetime = db.ts.windowed_quantile("lat", {}, 1000.0, 0.5, now=110.0)
    windowed = db.ts.windowed_quantile("lat", {}, 10.0, 0.5, now=110.0)
    assert lifetime < 1.0
    assert windowed > 10.0
    db.close()


# ---------------------------------------------------------------------------
# tentpole 2: the SLO engine + alert state machine
# ---------------------------------------------------------------------------


def _breach_latency_db():
    """A database whose p99 latency SLO is deliberately breached."""
    db = make_paper_db()
    METRICS.enable()
    db.ts.sample_once(now=100.0)
    db.query("SELECT x.DNO FROM x IN DEPARTMENTS")
    db.ts.sample_once(now=110.0)
    return db


def test_alert_pending_then_firing_after_for_ms():
    db = _breach_latency_db()
    db.slo.define(
        name="p99", kind="latency", metric="query.latency_ms",
        quantile=0.99, ceiling=1e-9, windows=(60.0,), for_ms=5000.0,
    )
    events = db.slo.evaluate(now=110.0)
    assert [e.to_state for e in events] == [PENDING]
    assert db.slo.alert_state("p99") == PENDING
    # still inside the debounce window: no escalation
    events = db.slo.evaluate(now=112.0)
    assert events == []
    # past for_ms: FIRING
    events = db.slo.evaluate(now=116.0)
    assert [e.to_state for e in events] == [FIRING]
    assert db.slo.alert_state("p99") == FIRING
    assert db.slo.firing() == ["p99"]
    db.close()


def test_alert_resolves_then_returns_to_ok():
    db = _breach_latency_db()
    db.slo.define(
        name="p99", kind="latency", metric="query.latency_ms",
        quantile=0.99, ceiling=1e-9, windows=(60.0,), for_ms=0.0,
    )
    events = db.slo.evaluate(now=110.0)
    # for_ms=0 escalates within one evaluation
    assert [e.to_state for e in events] == [PENDING, FIRING]
    db.slo.objectives["p99"].ceiling = 1e9  # recovery
    events = db.slo.evaluate(now=111.0)
    assert [e.to_state for e in events] == [RESOLVED]
    events = db.slo.evaluate(now=112.0)
    assert events == []  # RESOLVED decays to OK silently
    assert db.slo.alert_state("p99") == OK
    db.close()


def test_pending_recovery_returns_to_ok_without_firing():
    db = _breach_latency_db()
    db.slo.define(
        name="p99", kind="latency", metric="query.latency_ms",
        quantile=0.99, ceiling=1e-9, windows=(60.0,), for_ms=60000.0,
    )
    db.slo.evaluate(now=110.0)
    assert db.slo.alert_state("p99") == PENDING
    db.slo.objectives["p99"].ceiling = 1e9
    events = db.slo.evaluate(now=111.0)
    assert [e.to_state for e in events] == [OK]
    assert db.slo._alerts["p99"].fired_count == 0
    db.close()


def test_error_rate_slo_burns_budget():
    db = make_paper_db()
    METRICS.enable()
    db.ts.sample_once(now=100.0)
    db.slo.define(
        name="errs", kind="error_rate", metric="query.errors",
        total_metric="query.statements", objective=0.5,
        windows=(60.0,), for_ms=0.0,
    )
    for _ in range(3):
        with pytest.raises(Exception):
            db.execute("SELECT nope FROM x IN NO_SUCH_TABLE")
    db.query("SELECT x.DNO FROM x IN DEPARTMENTS")
    db.ts.sample_once(now=110.0)  # evaluates the SLO on the sampling clock
    assert db.slo.alert_state("errs") == FIRING
    state = db.slo._alerts["errs"]
    assert state.last_value == pytest.approx(0.75)  # 3 of 4 failed
    assert state.last_burn == pytest.approx(1.5)    # 0.75 / 0.5 budget
    db.close()


def test_multi_window_requires_all_windows_breached():
    db = make_paper_db()
    METRICS.enable()
    db.ts.sample_once(now=0.0)
    for _ in range(4):
        with pytest.raises(Exception):
            db.execute("SELECT nope FROM x IN NO_SUCH_TABLE")
    db.ts.sample_once(now=100.0)
    # a long clean stretch afterwards: the short window recovers
    for _ in range(500):
        METRICS.inc("query.statements", kind="SELECT")
    db.ts.sample_once(now=280.0)
    db.slo.define(
        name="errs", kind="error_rate", metric="query.errors",
        total_metric="query.statements", objective=0.99,
        windows=(300.0, 60.0), for_ms=0.0,
    )
    db.slo.evaluate(now=280.0)
    # long window still over budget, short window clean → no alert
    assert db.slo.alert_state("errs") == OK
    db.close()


def test_gauge_slo_falls_back_to_live_gauge():
    db = Database()
    METRICS.enable()
    METRICS.set_gauge("server.queue_depth", 99.0)
    db.slo.define(
        name="queue", kind="gauge", metric="server.queue_depth",
        ceiling=10.0, windows=(60.0,), for_ms=0.0,
    )
    # no recorder samples at all: the live gauge still drives the probe
    db.slo.evaluate(now=100.0)
    assert db.slo.alert_state("queue") == FIRING
    db.close()


def test_default_objectives_cover_the_standard_contract(monkeypatch):
    monkeypatch.setenv("REPRO_SLO_P99_MS", "123.0")
    db = Database()
    installed = db.slo.install_default_objectives()
    names = {o.name for o in installed}
    assert names == {
        "statement-p99", "statement-errors", "replica-lag", "server-queue"
    }
    assert db.slo.objectives["statement-p99"].ceiling == 123.0
    assert db.slo.objectives["statement-errors"].budget == pytest.approx(0.001)
    db.close()


def test_invalid_objectives_rejected():
    with pytest.raises(ValueError):
        SloObjective("x", "nonsense", "m")
    with pytest.raises(ValueError):
        SloObjective("x", "latency", "m")  # no quantile/ceiling
    with pytest.raises(ValueError):
        SloObjective("x", "error_rate", "m")  # no objective/total
    with pytest.raises(ValueError):
        SloObjective("x", "gauge", "m")  # no ceiling


# ---------------------------------------------------------------------------
# the four alert surfaces: SQL, shell, HEALTH verb, Prometheus
# ---------------------------------------------------------------------------


def _fired_db():
    db = _breach_latency_db()
    db.slo.define(
        name="p99", kind="latency", metric="query.latency_ms",
        quantile=0.99, ceiling=1e-9, windows=(60.0,), for_ms=0.0,
    )
    db.slo.evaluate(now=110.0)
    assert db.slo.alert_state("p99") == FIRING
    return db


def test_firing_alert_visible_via_sql():
    db = _fired_db()
    result = db.query(
        "SELECT s.NAME, s.STATE, s.VALUE, "
        "W = (SELECT w.WINDOW_S, w.BREACHED FROM w IN s.WINDOWS) "
        "FROM s IN SYS.SLOS WHERE s.STATE = 'FIRING'"
    )
    assert len(result.rows) == 1
    assert result.rows[0]["NAME"] == "p99"
    assert result.rows[0]["W"].rows[0]["BREACHED"] is True
    transitions = db.query(
        "SELECT a.SLO, a.FROM_STATE, a.TO_STATE "
        "FROM a IN SYS.ALERTS ORDER BY a.SEQ"
    )
    states = [(r["FROM_STATE"], r["TO_STATE"]) for r in transitions.rows]
    assert states == [("OK", "PENDING"), ("PENDING", "FIRING")]
    plan = db.execute("EXPLAIN SELECT s.NAME FROM s IN SYS.SLOS")
    assert "access: system view" in plan
    db.close()


def test_firing_alert_visible_via_shell_dot_commands():
    from repro.shell import dot_command

    db = _fired_db()
    out = io.StringIO()
    dot_command(db, ".health", out=out)
    text = out.getvalue()
    assert text.startswith("health: alerting\n")
    assert _row_with(text, "p99", "latency", "FIRING")
    out = io.StringIO()
    dot_command(db, ".alerts", out=out)
    text = out.getvalue()
    assert _row_with(text, "p99", "latency", "FIRING")  # SYS.SLOS
    assert _row_with(text, "p99", "PENDING", "FIRING")  # SYS.ALERTS
    db.close()


def _row_with(text: str, *cells: str) -> bool:
    """True when one rendered table row has all *cells*."""
    return any(
        all(f" {cell} " in line for cell in cells)
        for line in text.splitlines()
        if line.startswith("|")
    )


def test_firing_alert_visible_via_prometheus_scrape():
    db = _fired_db()
    prom = METRICS.to_prometheus()
    assert 'repro_slo_breached{slo="p99"} 1' in prom
    assert "repro_alert_firing 1" in prom
    assert 'repro_alert_transitions_total{slo="p99",to="FIRING"} 1' in prom
    assert 'repro_slo_value{slo="p99"}' in prom
    db.close()


def test_health_ok_on_fresh_database():
    from repro.shell import dot_command

    db = Database()
    out = io.StringIO()
    dot_command(db, ".health", out=out)
    assert out.getvalue().startswith("health: ok\n")
    db.close()


def test_health_pending_while_breach_debounces():
    from repro.shell import health_probe

    db = _breach_latency_db()
    db.slo.define(
        name="p99", kind="latency", metric="query.latency_ms",
        quantile=0.99, ceiling=1e-9, windows=(60.0,), for_ms=60_000.0,
    )
    db.slo.evaluate(now=110.0)
    assert db.slo.alert_state("p99") == PENDING
    out = io.StringIO()
    health_probe(db, out)
    assert out.getvalue().startswith("health: pending\n")
    db.close()


def test_health_verb_and_alerts_over_tcp_while_workload_runs():
    """HEALTH + SYS.ALERTS answer over TCP while other clients churn."""
    from repro.server import AsyncDatabaseServer, LineClient

    db = _fired_db()
    server = AsyncDatabaseServer(db, port=0)
    server.serve_background()
    host, port = server.address
    stop = threading.Event()
    worker_errors = []

    def churn():
        try:
            with LineClient(host, port) as client:
                while not stop.is_set():
                    out = client.send("SELECT x.DNO FROM x IN DEPARTMENTS")
                    if out.startswith("error"):
                        worker_errors.append(out)
                        return
        except Exception as exc:  # pragma: no cover - failure reporting
            worker_errors.append(repr(exc))

    workers = [threading.Thread(target=churn) for _ in range(2)]
    for w in workers:
        w.start()
    try:
        with LineClient(host, port) as client:
            health = client.send("HEALTH")
            assert health.splitlines()[0] == "health: alerting"
            assert _row_with(health, "p99", "latency", "FIRING")
            alerts = client.send(
                "SELECT a.SLO, a.TO_STATE FROM a IN SYS.ALERTS "
                "WHERE a.TO_STATE = 'FIRING'"
            )
            assert "p99" in alerts
            prom = client.send("METRICS")
            assert "repro_alert_firing 1" in prom
    finally:
        stop.set()
        for w in workers:
            w.join(timeout=10)
        server.shutdown()
        db.close()
    assert not worker_errors


# ---------------------------------------------------------------------------
# satellite: background-thread hygiene on close
# ---------------------------------------------------------------------------


def test_no_repro_threads_survive_close():
    db = Database()
    db.ts.period_ms = 5
    db.ash.period_ms = 5
    METRICS.enable()
    db.ts.start()
    db.ash.start()
    names = {t.name for t in threading.enumerate()}
    assert "repro-ts" in names and "repro-ash" in names
    db.close()
    leaked = [
        t.name for t in threading.enumerate()
        if t.name.startswith("repro-") and t.is_alive()
    ]
    assert leaked == []
    assert not db.ts.running and not db.ash.running


def test_close_is_idempotent_with_idle_samplers():
    db = Database()
    db.close()  # never-started samplers must not block close
    leaked = [
        t.name for t in threading.enumerate() if t.name.startswith("repro-")
    ]
    assert leaked == []
