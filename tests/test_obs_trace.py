"""Distributed tracing (repro.obs.trace): wire, chaos, store, render."""

import asyncio

import pytest

from repro import api
from repro.cluster import ClusterWorker
from repro.fleet.scenarios import ScenarioMatrix
from repro.obs.trace import (
    ABANDONED,
    TraceContext,
    TraceSpan,
    assemble_traces,
    orphan_spans,
    render_trace_timeline,
)
from repro.store import RcaStore, StoreQuery

#: Two 8 s scenarios on one cell: enough for two workers to each see
#: work, and for a killed worker to leave a scenario behind.
_MATRIX = ScenarioMatrix(
    name="trace",
    profiles=("tmobile_fdd",),
    durations_s=(8.0,),
    repetitions=2,
)


@pytest.fixture(scope="module")
def scenarios():
    return _MATRIX.expand()


@pytest.fixture(scope="module")
def local_outcomes(scenarios):
    return api.campaign(scenarios)


# -- context and span primitives ----------------------------------------------


def test_trace_context_wire_round_trip():
    ctx = TraceContext.new(campaign_id="c1", scenario="s1")
    decoded = TraceContext.from_wire(ctx.to_wire())
    assert decoded == ctx
    child = ctx.child("feedbeef")
    assert child.trace_id == ctx.trace_id
    assert child.span_id == "feedbeef"
    assert child.scenario == "s1"


def test_trace_context_rejects_garbage():
    assert TraceContext.from_wire(None) is None
    assert TraceContext.from_wire("nope") is None
    assert TraceContext.from_wire({"trace_id": "t"}) is None
    assert TraceContext.from_wire({"trace_id": "", "span_id": "s"}) is None


def test_trace_span_codec_round_trip():
    original = TraceSpan(
        trace_id="t" * 32,
        span_id="a" * 16,
        parent_span_id="b" * 16,
        name="cluster.dispatch",
        service="coordinator",
        ts_s=12.5,
        duration_s=0.25,
        campaign_id="c1",
        scenario="s1",
        status=ABANDONED,
        attrs={"worker": "w0"},
    )
    assert TraceSpan.from_json(original.to_json()) == original


def test_orphans_and_abandoned_render():
    root = "f" * 16
    spans = [
        TraceSpan("t1", "a1", "cluster.queue", 0.0, 0.1,
                  parent_span_id=root, service="coordinator"),
        TraceSpan("t1", "a2", "cluster.dispatch", 0.1, 0.2,
                  parent_span_id=root, status=ABANDONED),
        TraceSpan("t1", "a3", "net.dispatch", 0.15, 0.01,
                  parent_span_id="unknown-id"),
    ]
    orphans = orphan_spans(spans)
    assert [o.span_id for o in orphans] == ["a3"]
    rendered = render_trace_timeline(spans)
    assert "(abandoned)" in rendered
    assert "!" in rendered
    assert "1 orphan span(s)" in rendered
    assert render_trace_timeline([]) == "no trace spans"


# -- cluster propagation -------------------------------------------------------


def test_cluster_campaign_one_stitched_trace_per_scenario(
    scenarios, tmp_path, with_cluster, two_workers
):
    """The tentpole bar: a loopback campaign yields one connected trace
    per scenario — coordinator queue/dispatch/settle spans, worker-side
    network and scenario spans, and the pool-child pipeline spans all
    share the scenario's trace id — and the store serves them back."""
    store_dir = str(tmp_path / "store")

    async def run(coordinator):
        cid = await coordinator.submit_campaign(scenarios)
        outcomes = await coordinator.wait_campaign(cid)
        return cid, outcomes, coordinator.trace_spans_for(cid)

    cid, outcomes, spans = asyncio.run(
        with_cluster(two_workers, run, store_dir=store_dir)
    )
    assert len(outcomes) == len(scenarios)
    traces = assemble_traces(spans)
    assert len(traces) == len(scenarios)
    # One trace per scenario, each labelled with its scenario alone.
    labels = sorted(
        tuple({s.scenario for s in members}) for members in traces.values()
    )
    assert labels == sorted((s.name,) for s in scenarios)
    for members in traces.values():
        assert orphan_spans(members) == []
        # Both process hops left spans in the trace.
        assert {"coordinator", "worker"} <= {s.service for s in members}
        names = {s.name for s in members}
        assert {
            "cluster.queue",
            "cluster.dispatch",
            "net.dispatch",
            "cluster.scenario",
            "fleet.scenario",
            "net.outcome",
            "cluster.settle",
        } <= names
        # Exactly one queue wait and one settle per scenario.
        by_name = [s.name for s in members]
        assert by_name.count("cluster.queue") == 1
        assert by_name.count("cluster.settle") == 1
    # Every span is labelled for store queries by campaign.
    assert all(s.campaign_id == cid for s in spans)
    # The coordinator ingested the same spans into the store.
    query = StoreQuery(RcaStore.open(store_dir, create=False))
    stored = query.trace_spans(campaign_id=cid)
    assert sorted(s.span_id for s in stored) == sorted(
        s.span_id for s in spans
    )
    assert query.trace_spans(campaign_id="no-such-*") == []
    rendered = api.store_trace(store_dir, cid, render=True)
    assert all(f"trace {trace_id[:16]}" in rendered for trace_id in traces)


def test_worker_death_abandons_span_and_requeues_under_same_trace(
    scenarios, local_outcomes, with_cluster, outcome_bytes
):
    """Chaos + tracing: a worker that dies holding a scenario leaves an
    ABANDONED dispatch span behind, the requeued attempt gets a fresh
    dispatch span under the *same* per-scenario trace, and outcomes stay
    byte-identical to a single-host run."""

    class DyingWorker(ClusterWorker):
        async def _handle_dispatch(self, payload):
            self._writer.transport.abort()

    def workers(port):
        return [
            ClusterWorker("127.0.0.1", port, slots=1, name="survivor"),
            DyingWorker("127.0.0.1", port, slots=1, name="victim"),
        ]

    async def run(coordinator):
        cid = await coordinator.submit_campaign(scenarios)
        outcomes = await coordinator.wait_campaign(cid)
        return (
            outcomes,
            coordinator.requeues,
            coordinator.trace_spans_for(cid),
        )

    outcomes, requeues, spans = asyncio.run(with_cluster(workers, run))
    assert requeues >= 1
    assert outcome_bytes(outcomes) == outcome_bytes(local_outcomes)

    abandoned = [s for s in spans if s.status == ABANDONED]
    assert abandoned, "dead worker left no abandoned span"
    assert all(s.name == "cluster.dispatch" for s in abandoned)
    traces = assemble_traces(spans)
    assert len(traces) == len(scenarios)
    for item in abandoned:
        members = traces[item.trace_id]
        # The retried attempt is a *fresh* span in the *same* trace.
        completed = [
            s
            for s in members
            if s.name == "cluster.dispatch" and s.status == "ok"
        ]
        assert completed
        assert all(s.span_id != item.span_id for s in completed)
        # The abandoned attempt is visible in the render, not dropped.
        assert [s.name for s in members].count("cluster.queue") == 1
    for members in traces.values():
        assert orphan_spans(members) == []
    assert "(abandoned)" in render_trace_timeline(spans)
