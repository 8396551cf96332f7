//! Determinism contracts of the tracing subsystem.
//!
//! Five claims, each an end-to-end loop:
//!
//! 1. **Worker-count independence**: the counterexample `explore_parallel`
//!    reports is the same for `--workers 1` and `--workers 4`, and its
//!    traced replay serializes *byte-identically* — tracing adds
//!    observability without adding nondeterminism.
//! 2. **Cross-executor agreement**: the same workload run under the
//!    threaded and the sharded real-time executors yields the same
//!    canonical delivery projection (per `(receiver, sender)` CAST digest
//!    sequences) — the executor-independent part of a trace really is
//!    executor-independent.
//! 3. **The trace→schedule bridge round-trips**: the committed soak-wedge
//!    fault plan, replayed as the `soakwedge` scenario with tracing on,
//!    bridges back into exactly the committed `.check` fixture and the
//!    same verdict.
//! 4. **Latency stats are format- and run-independent**: the per-layer
//!    histograms computed from the v1 text and from its v2 binary
//!    re-encoding are equal, and the rendered quantile table is
//!    byte-identical across repeated traced replays.
//! 5. **Live equals offline**: a [`MetricsSink`] installed as the tracer
//!    of a replay snapshots to exactly the histograms the offline
//!    [`latency_stats`] pass extracts from a captured trace of the same
//!    replay.

use horus::layers::registry::build_stack;
use horus::prelude::*;
use horus_check::schedule::verdict_line;
use horus_check::{
    explore_parallel, replay_choices, replay_choices_traced, schedule_from_trace, trace_meta,
    CheckConfig, Scenario,
};
use horus_core::trace::TraceSink;
use horus_net::LoopbackNet;
use horus_sim::shard::{ShardConfig, ShardExecutor};
use horus_sim::threaded::ThreadedEndpoint;
use horus_trace::{
    delivery_projection, kind_counts, latency_stats, parse_trace, parse_trace_v2, serialize_trace,
    trace_to_v2, LatencyStats, MetricsSink, TraceBuf, TraceRing,
};
use std::sync::Arc;
use std::time::Duration;

fn ep(i: u64) -> EndpointAddr {
    EndpointAddr::new(i)
}

/// Serializes the traced replay of `choices` (meta included, so the result
/// is exactly what `horus-check replay --trace` writes).
fn traced_replay_text(scenario: &Scenario, choices: &[u16], cfg: &CheckConfig) -> String {
    let buf = Arc::new(TraceBuf::new());
    let _ = replay_choices_traced(scenario, choices, cfg, buf.clone() as Arc<dyn TraceSink>);
    serialize_trace(&trace_meta(scenario, cfg), &buf.take())
}

#[test]
fn traced_replay_is_byte_deterministic() {
    let scenario = Scenario::by_name("fifo2").unwrap();
    let cfg = CheckConfig::default();
    let first = traced_replay_text(scenario, &[1], &cfg);
    assert!(first.lines().count() > 10, "a replay must actually record events");
    for _ in 0..2 {
        assert_eq!(traced_replay_text(scenario, &[1], &cfg), first);
    }
}

#[test]
fn worker_counts_agree_down_to_trace_bytes() {
    // The parallel explorer's determinism contract, extended through the
    // tracer: both worker counts find the same counterexample, and tracing
    // its replay produces the same bytes.
    let scenario = Scenario::by_name("fifo2").unwrap();
    let cfg = CheckConfig { max_depth: 3, max_states: 5_000, max_runs: 500, ..Default::default() };
    let one = explore_parallel(scenario, &cfg, 1).violation.expect("planted bug");
    let four = explore_parallel(scenario, &cfg, 4).violation.expect("planted bug");
    assert_eq!(one.choices, four.choices, "counterexample must be worker-count independent");
    let trace_one = traced_replay_text(scenario, &one.choices, &cfg);
    let trace_four = traced_replay_text(scenario, &four.choices, &cfg);
    assert_eq!(trace_one, trace_four, "traces must be byte-identical across worker counts");
}

/// Runs `casts` casts from each of two members over bare COM under the
/// threaded executor, tracing into a ring; returns the canonical
/// projection of the captured trace.
fn threaded_projection(casts: usize) -> std::collections::BTreeMap<(u64, u64), Vec<u64>> {
    let ring = Arc::new(TraceRing::with_capacity(1 << 14));
    let net = LoopbackNet::new();
    let g = GroupAddr::new(1);
    let mut endpoints: Vec<ThreadedEndpoint> = (1..=2)
        .map(|i| {
            let mut s =
                build_stack(ep(i), "COM(promiscuous=true)", StackConfig::default()).unwrap();
            s.set_tracer(ring.clone());
            ThreadedEndpoint::spawn(s, net.clone(), 1)
        })
        .collect();
    for e in &endpoints {
        e.down(Down::Join { group: g });
    }
    std::thread::sleep(Duration::from_millis(20));
    for k in 0..casts {
        endpoints[0].cast_bytes(format!("1:{k}"));
        endpoints[1].cast_bytes(format!("2:{k}"));
    }
    // Loopback delivers to the whole group, senders included.
    let ok = endpoints[0].wait_until(Duration::from_secs(20), |_| {
        endpoints.iter().all(|e| e.cast_count() >= 2 * casts)
    });
    assert!(ok, "threaded flood incomplete");
    for e in &mut endpoints {
        e.stop();
    }
    projection_of(&ring)
}

/// The same workload under the sharded executor.
fn sharded_projection(casts: usize) -> std::collections::BTreeMap<(u64, u64), Vec<u64>> {
    let ring = Arc::new(TraceRing::with_capacity(1 << 14));
    let mut ex = ShardExecutor::new(LoopbackNet::new(), ShardConfig::with_shards(2));
    let g = GroupAddr::new(1);
    for i in 1..=2 {
        let mut s = build_stack(ep(i), "COM(promiscuous=true)", StackConfig::default()).unwrap();
        s.set_tracer(ring.clone());
        ex.add_stack(s);
        ex.down(ep(i), Down::Join { group: g });
    }
    std::thread::sleep(Duration::from_millis(20));
    for k in 0..casts {
        ex.cast_bytes(ep(1), format!("1:{k}"));
        ex.cast_bytes(ep(2), format!("2:{k}"));
    }
    let ok = ex.wait_until(Duration::from_secs(20), |ex| {
        (1..=2).all(|i| ex.cast_count(ep(i)) >= 2 * casts)
    });
    assert!(ok, "sharded flood incomplete");
    ex.stop();
    projection_of(&ring)
}

fn projection_of(ring: &TraceRing) -> std::collections::BTreeMap<(u64, u64), Vec<u64>> {
    assert_eq!(ring.dropped(), 0, "ring must be sized for the workload");
    let text = serialize_trace(&[], &ring.drain());
    delivery_projection(&parse_trace(&text).unwrap().records)
}

#[test]
fn threaded_and_sharded_executors_project_identically() {
    // Cross-sender interleaving is scheduling noise; what must agree is the
    // per-(receiver, sender) digest sequence — per-sender FIFO holds on the
    // loopback channels and the shard queues alike.
    const CASTS: usize = 40;
    let threaded = threaded_projection(CASTS);
    let sharded = sharded_projection(CASTS);
    assert_eq!(threaded, sharded, "canonical projections must agree across executors");
    // And the projection is not vacuous: both senders reached both members.
    assert_eq!(threaded.len(), 4, "two senders times two receivers");
    for ((rx, tx), digests) in &threaded {
        assert_eq!(digests.len(), CASTS, "stream ep:{tx} -> ep:{rx} lost casts");
    }
}

/// Renders the stats the way `horus-trace stats --latency` does — one
/// `count p50 p90 p99 max` row per `(endpoint, layer)`. Integer-only, so
/// equal histograms render to equal bytes.
fn latency_table(stats: &LatencyStats) -> String {
    let mut out = String::new();
    for (title, map) in [("dwell", &stats.dwell), ("timer", &stats.timer)] {
        for ((ep, layer), h) in map {
            out.push_str(&format!(
                "{title} ep:{ep} {layer} {} {} {} {} {}\n",
                h.count(),
                h.quantile(50, 100),
                h.quantile(90, 100),
                h.quantile(99, 100),
                h.max()
            ));
        }
    }
    out
}

#[test]
fn latency_stats_agree_across_formats_and_runs() {
    // The `stats --latency` acceptance loop: the same capture must yield
    // the same histograms whether it is read as v1 text or as its v2
    // binary re-encoding, and re-capturing must reproduce the table.
    let scenario = Scenario::by_name("flush3").unwrap();
    let cfg = CheckConfig::default();
    let text = traced_replay_text(scenario, &[], &cfg);
    let v1 = parse_trace(&text).unwrap();
    let from_v1 = latency_stats(&v1.records);
    assert!(!from_v1.dwell.is_empty(), "a flush3 replay must cross layers");
    let v2 = parse_trace_v2(&trace_to_v2(&v1)).unwrap();
    assert_eq!(latency_stats(&v2.records), from_v1, "v1 and v2 must agree on latency");
    let table = latency_table(&from_v1);
    assert!(table.lines().count() >= 2, "per-layer rows must be non-empty");
    for _ in 0..2 {
        let rerun = parse_trace(&traced_replay_text(scenario, &[], &cfg)).unwrap();
        assert_eq!(
            latency_table(&latency_stats(&rerun.records)),
            table,
            "latency table must be byte-identical across runs"
        );
    }
}

#[test]
fn metrics_sink_matches_the_offline_pass() {
    // The live collector's contract: installing a MetricsSink during a
    // replay yields exactly what parsing a captured trace of the same
    // replay and running `latency_stats` over it yields.
    let scenario = Scenario::by_name("flush3").unwrap();
    let cfg = CheckConfig::default();
    let live = Arc::new(MetricsSink::new());
    let _ = replay_choices_traced(scenario, &[], &cfg, live.clone() as Arc<dyn TraceSink>);
    let snap = live.snapshot();
    let offline = parse_trace(&traced_replay_text(scenario, &[], &cfg)).unwrap();
    assert_eq!(snap.records as usize, offline.records.len(), "record counts must agree");
    assert_eq!(snap.kinds, kind_counts(&offline.records), "kind counts must agree");
    assert_eq!(snap.latency, latency_stats(&offline.records), "histograms must agree");
    assert!(!snap.latency.is_empty(), "the comparison must not be vacuous");
}

#[test]
fn soak_wedge_plan_bridges_to_the_committed_fixture() {
    // The loop the subsystem exists for: the soak-minimized wedge plan
    // (tests/fixtures/soak_wedge_regression.soak) re-enacted as the
    // `soakwedge` scenario, traced, bridged — must equal the committed
    // schedule fixture byte for byte and replay to its verdict.
    let scenario = Scenario::by_name("soakwedge").unwrap();
    let cfg = CheckConfig::default();
    let text = traced_replay_text(scenario, &[], &cfg);
    let trace = parse_trace(&text).unwrap();
    assert!(
        trace.records.iter().any(|r| r.kind == "partition")
            && trace.records.iter().any(|r| r.kind == "crash"),
        "the fault plan's partition and crash must appear in the trace"
    );
    let schedule = schedule_from_trace(&trace).expect("trace bridges");
    let fixture_path =
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/soakwedge_bridge.check");
    let committed = std::fs::read_to_string(fixture_path).expect("committed fixture exists");
    assert_eq!(schedule.serialize(), committed, "bridged schedule drifted from the fixture");
    let rec = replay_choices(scenario, &schedule.choices, &cfg);
    assert_eq!(verdict_line(&rec), schedule.verdict);
    assert_eq!(schedule.verdict, "clean", "the healed wedge plan must stay clean");
}
