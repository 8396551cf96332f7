//! Tracing overhead smoke benchmark — the headline numbers for the
//! observability subsystem, recorded in `BENCH_trace.json` (style of
//! `BENCH_dispatch.json`).
//!
//! Four claims, measured over real threads on the loopback transport with
//! 64-byte casts through `NAK:COM` under the sharded batched executor:
//!
//! 1. **Disabled tracing is free**: a stack with a `NullSink` tracer
//!    installed moves the flood at ≥ 97% of an untraced stack's rate.
//!    Every event site branches on one cached flag, and `set_tracer`
//!    caches the sink's `interested()` answer — `false` for `NullSink` —
//!    so neither arm constructs a single event.
//! 2. **Sampled tracing is close to free**: a 1-in-64 `SamplingSink` in
//!    front of a ring (the soak-campaign default) sustains ≥ 95% of the
//!    untraced rate — the per-event cost is one relaxed fetch-add plus
//!    the occasional forwarded record.
//! 3. **Enabled tracing is cheap enough to leave on**: the lock-free
//!    `TraceRing` arm records every layer crossing, frame send and
//!    delivery of the flood and still completes; its events/sec and the
//!    rate ratio against the untraced arm are recorded in the JSON (no
//!    assertion — ring cost is workload-dependent; the number is the
//!    deliverable).
//! 4. **The v2 binary format earns its bytes**: the same capture encodes
//!    ≥ 3× smaller than the v1 text form (varints, string interning,
//!    delta timestamps).
//!
//! Ignored by default: it is a timing test and only means anything in
//! release mode.  Run with
//! `cargo test --release --test trace_smoke -- --ignored`.

mod common;

use horus::layers::registry::build_stack;
use horus::prelude::*;
use horus_core::trace::{NullSink, SamplingSink, TraceSink};
use horus_net::LoopbackNet;
use horus_sim::shard::{ShardConfig, ShardExecutor};
use horus_trace::{serialize_trace, serialize_trace_v2, TraceRing};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn ep(i: u64) -> EndpointAddr {
    EndpointAddr::new(i)
}

const BODY: usize = 64;
const FLOOD: usize = 15_000;

/// Shard count matched to the hardware, as in `dispatch_smoke`.
fn hw_shards() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(2)
}

/// Floods a 2-member `NAK:COM` group through the sharded batched executor
/// with `tracer` installed on both stacks (or none); returns msgs/sec.
fn flood(tracer: Option<Arc<dyn TraceSink>>) -> f64 {
    let cfg = ShardConfig::with_shards(hw_shards()).batch_max(64).record_upcalls(false);
    let mut ex = ShardExecutor::new(LoopbackNet::new(), cfg);
    let g = GroupAddr::new(1);
    for i in 1..=2 {
        let mut s = build_stack(ep(i), "NAK:COM", StackConfig::default()).unwrap();
        if let Some(t) = &tracer {
            s.set_tracer(t.clone());
        }
        ex.add_stack(s);
        ex.down(ep(i), Down::Join { group: g });
    }
    std::thread::sleep(Duration::from_millis(10));
    let start = Instant::now();
    for k in 0..FLOOD {
        ex.cast_bytes(ep(1), vec![(k % 251) as u8; BODY]);
    }
    let ok = ex.wait_until(Duration::from_secs(60), |ex| ex.cast_count(ep(2)) >= FLOOD);
    let rate = FLOOD as f64 / start.elapsed().as_secs_f64();
    assert!(ok, "receiver saw {}/{FLOOD}", ex.cast_count(ep(2)));
    ex.stop();
    rate
}

/// One flood with a fresh ring; returns (msgs/sec, records the ring absorbed).
fn flood_ring() -> (f64, usize) {
    let ring = Arc::new(TraceRing::with_capacity(1 << 17));
    let rate = flood(Some(ring.clone()));
    (rate, ring.drain().len() + ring.dropped() as usize)
}

/// One flood through a 1-in-64 [`SamplingSink`] in front of a fresh ring —
/// the configuration soak campaigns leave on.
fn flood_sampled() -> f64 {
    let ring = Arc::new(TraceRing::with_capacity(1 << 17));
    flood(Some(Arc::new(SamplingSink::new(ring, 64))))
}

#[test]
#[ignore = "timing smoke: run in release mode with -- --ignored"]
fn trace_smoke() {
    // Warm-up, then best-of-5 per arm with the arms *interleaved*: the
    // gate compares two arms that should be identical, so what must not
    // leak into the ratio is scheduler drift between measurement blocks.
    let _ = flood(None);
    let _ = flood_ring();
    let mut off_rate = f64::MIN;
    let mut null_rate = f64::MIN;
    let mut samp_rate = f64::MIN;
    let (mut ring_rate, mut ring_records) = (f64::MIN, 0);
    for _ in 0..5 {
        off_rate = off_rate.max(flood(None));
        null_rate = null_rate.max(flood(Some(Arc::new(NullSink))));
        samp_rate = samp_rate.max(flood_sampled());
        let (r, n) = flood_ring();
        if r > ring_rate {
            (ring_rate, ring_records) = (r, n);
        }
    }
    // Escalate under noise: the gated arms run (nearly) identical code when
    // the hook is free, so their peaks converge given enough trials — extra
    // rounds absorb a lucky scheduler tail on one arm, while a real hook
    // cost keeps the gated arm permanently short.
    for _ in 0..5 {
        if null_rate >= 0.97 * off_rate && samp_rate >= 0.95 * off_rate {
            break;
        }
        off_rate = off_rate.max(flood(None));
        null_rate = null_rate.max(flood(Some(Arc::new(NullSink))));
        samp_rate = samp_rate.max(flood_sampled());
    }

    // Format sizing: one more capture, serialized both ways.  The v2 gate
    // is structural (varints + interning + delta timestamps vs text), so a
    // single capture suffices — size is deterministic given the records.
    let ring = Arc::new(TraceRing::with_capacity(1 << 17));
    let _ = flood(Some(ring.clone()));
    let records = ring.drain();
    assert!(!records.is_empty(), "format-sizing capture came back empty");
    let v1_bytes = serialize_trace(&[], &records).len();
    let v2_bytes = serialize_trace_v2(&[], &records).len();
    let v1_bpr = v1_bytes as f64 / records.len() as f64;
    let v2_bpr = v2_bytes as f64 / records.len() as f64;
    let v2_size_ratio = v1_bytes as f64 / v2_bytes as f64;
    // Records per second while the flood was in flight: the flood moved at
    // `ring_rate` msgs/sec and generated `ring_records / FLOOD` records each.
    let events_per_sec = ring_records as f64 * ring_rate / FLOOD as f64;

    let disabled_ratio = null_rate / off_rate;
    let sampled_ratio = samp_rate / off_rate;
    let enabled_ratio = ring_rate / off_rate;

    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"trace_smoke\",\n",
            "  \"payload_bytes\": {},\n",
            "  \"msgs\": {},\n",
            "  \"untraced\": {{ \"msgs_per_sec\": {:.0} }},\n",
            "  \"null_sink\": {{ \"msgs_per_sec\": {:.0}, \"ratio_vs_untraced\": {:.3} }},\n",
            "  \"sampling_sink\": {{ \"msgs_per_sec\": {:.0}, \"ratio_vs_untraced\": {:.3}, ",
            "\"sample_every\": 64 }},\n",
            "  \"trace_ring\": {{ \"msgs_per_sec\": {:.0}, \"ratio_vs_untraced\": {:.3}, ",
            "\"records_per_flood\": {}, \"events_per_sec\": {:.0} }},\n",
            "  \"format\": {{ \"records\": {}, \"v1_bytes_per_record\": {:.1}, ",
            "\"v2_bytes_per_record\": {:.1}, \"v2_size_ratio\": {:.2} }},\n",
            "  \"note\": \"gates: null_sink >= 0.97, sampling_sink (1-in-64) >= 0.95, \
             v2_size_ratio >= 3.0; the ring arm is recorded, not gated — its cost scales \
             with records per message\"\n",
            "}}\n"
        ),
        BODY,
        FLOOD,
        off_rate,
        null_rate,
        disabled_ratio,
        samp_rate,
        sampled_ratio,
        ring_rate,
        enabled_ratio,
        ring_records,
        events_per_sec,
        records.len(),
        v1_bpr,
        v2_bpr,
        v2_size_ratio,
    );
    common::write_bench("BENCH_trace.json", &json);
    println!("{json}");

    assert!(
        disabled_ratio >= 0.97,
        "disabled-tracing overhead gate: NullSink arm ran at {:.1}% of untraced ({:.0} vs {:.0} msgs/sec)",
        disabled_ratio * 100.0,
        null_rate,
        off_rate,
    );
    assert!(
        sampled_ratio >= 0.95,
        "sampled-tracing overhead gate: 1-in-64 arm ran at {:.1}% of untraced ({:.0} vs {:.0} msgs/sec)",
        sampled_ratio * 100.0,
        samp_rate,
        off_rate,
    );
    assert!(
        v2_size_ratio >= 3.0,
        "v2 size gate: {v1_bytes} v1 bytes vs {v2_bytes} v2 bytes over {} records is only {v2_size_ratio:.2}x",
        records.len(),
    );
    assert!(ring_records > 0, "the ring arm must actually capture events");
}
