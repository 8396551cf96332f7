//! PACK — the message-packing accelerator, end to end.
//!
//! Four angles on §10's "combining of several small messages into a
//! single large one":
//!
//! 1. **Differential correctness**: a packed stack must be observationally
//!    identical to the plain stack under 10% loss — same bodies, same
//!    order, nothing dropped, nothing duplicated (property test).
//! 2. **Latency bound**: a queued message leaves within the configured
//!    flush delay, measured in virtual time.
//! 3. **Zero-copy discipline**: the payload `Bytes` handed to the
//!    application downcall is the very storage the transport sees, with
//!    `payload_copies == 0` on the plain hot path.
//! 4. **Throughput smoke test**: the packed hot path moves small messages
//!    at a multiple of the unpacked rate (full run: `packing_throughput`
//!    bench); results land in `BENCH_packing.json`.

mod common;

use bytes::Bytes;
use common::*;
use horus::layers::registry::build_stack;
use horus::prelude::*;
use horus::sim::SimWorld;
use horus_net::NetConfig;
use proptest::prelude::*;
use std::time::Duration;

const PACKED: &str = "PACK:NAK:COM";
const PLAIN: &str = "NAK:COM";

/// Deterministic per-message body: message `k` of size `n`.
fn pattern(k: usize, n: usize) -> Vec<u8> {
    (0..n).map(|i| (k as u8).wrapping_mul(31).wrapping_add(i as u8)).collect()
}

/// Runs a 2-member world of `desc` stacks over `net`, casts one message
/// per entry of `sizes` from ep(1), and returns the bodies ep(2) saw.
fn deliveries(desc: &str, seed: u64, net: NetConfig, sizes: &[usize]) -> Vec<Vec<u8>> {
    let mut w = SimWorld::new(seed, net);
    for i in 1..=2 {
        let s = build_stack(ep(i), desc, StackConfig::default()).expect("stack builds");
        w.add_endpoint(s);
        w.join(ep(i), group());
    }
    for (k, &n) in sizes.iter().enumerate() {
        w.cast_bytes(ep(1), pattern(k, n));
    }
    w.run_for(Duration::from_secs(3));
    w.delivered_casts(ep(2)).iter().map(|(_, b, _)| b.to_vec()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Packing is invisible: under 10% loss, the packed stack delivers
    /// exactly what the plain stack delivers — every message, in FIFO
    /// order, bit-for-bit.
    #[test]
    fn packed_stack_is_observationally_plain_under_loss(
        seed in 1u64..500,
        sizes in proptest::collection::vec(1usize..180, 1..25),
    ) {
        let packed = deliveries(PACKED, seed, NetConfig::lossy(0.1), &sizes);
        let plain = deliveries(PLAIN, seed, NetConfig::lossy(0.1), &sizes);
        let expected: Vec<Vec<u8>> =
            sizes.iter().enumerate().map(|(k, &n)| pattern(k, n)).collect();
        prop_assert_eq!(&packed, &expected, "packed stack must deliver all, in order");
        prop_assert_eq!(&packed, &plain, "packing must be observationally invisible");
    }
}

#[test]
fn flush_timer_bounds_latency_in_virtual_time() {
    let mut w = SimWorld::new(7, NetConfig::reliable());
    for i in 1..=2 {
        let s = build_stack(ep(i), "PACK(delay=5):NAK:COM", StackConfig::default()).unwrap();
        w.add_endpoint(s);
        w.join(ep(i), group());
    }
    w.cast_bytes(ep(1), b"pending".to_vec());
    // Before the 5 ms flush delay the message sits in PACK's queue...
    w.run_for(Duration::from_millis(4));
    assert!(w.delivered_casts(ep(2)).is_empty(), "must still be queued at 4 ms");
    // ...and must be out within the delay plus transit.
    w.run_for(Duration::from_millis(6));
    let got = w.delivered_casts(ep(2));
    assert_eq!(got.len(), 1);
    assert_eq!(&got[0].1[..], b"pending");
    let at = got[0].2;
    assert!(at >= SimTime::from_millis(5), "cannot beat the flush timer: {at:?}");
    assert!(at <= SimTime::from_millis(8), "flush delay must bound latency: {at:?}");
}

/// Builds a lone stack, initialised and joined, for direct pumping.
fn pump_stack(i: u64, desc: &str) -> Stack {
    let mut s = build_stack(ep(i), desc, StackConfig::default()).unwrap();
    s.init(&mut EffectSink::new());
    let _ = handle(&mut s, StackInput::FromApp(Down::Join { group: group() }));
    s
}

#[test]
fn payload_reaches_transport_and_peer_without_copying() {
    let mut tx = pump_stack(1, "FRAG:NAK:COM");
    let mut rx = pump_stack(2, "FRAG:NAK:COM");
    let payload = Bytes::from(vec![0x5A; 512]);
    let msg = tx.new_message(payload.clone());
    let fx = handle(&mut tx, StackInput::FromApp(Down::Cast(msg)));
    let wire = fx
        .iter()
        .find_map(|e| match e {
            Effect::NetCast { wire } => Some(wire.clone()),
            _ => None,
        })
        .expect("cast reaches the wire");
    assert_eq!(
        wire.body().as_ptr(),
        payload.as_ptr(),
        "transport body must share the app payload's storage"
    );
    assert_eq!(tx.stats().payload_copies, 0, "no copies on the send path");
    let fx = handle(&mut rx, StackInput::FromNet { from: ep(1), cast: true, wire });
    let delivered = fx
        .iter()
        .find_map(|e| match e {
            Effect::Deliver(Up::Cast { msg, .. }) => Some(msg.body().clone()),
            _ => None,
        })
        .expect("cast delivered");
    assert_eq!(
        delivered.as_ptr(),
        payload.as_ptr(),
        "delivered body must share the app payload's storage"
    );
    assert_eq!(rx.stats().payload_copies, 0, "no copies on the receive path");
}

/// Pumps `iters` bursts of `burst` casts of `body_len` bytes through a
/// tx/rx stack pair, returning (msgs_per_sec, wire_frames).
fn pump_throughput(desc: &str, body_len: usize, burst: usize, iters: usize) -> (f64, u64) {
    let mut tx = pump_stack(1, desc);
    let mut rx = pump_stack(2, desc);
    let body = vec![0x42u8; body_len];
    let mut frames = 0u64;
    let mut delivered = 0usize;
    let start = std::time::Instant::now();
    for _ in 0..iters {
        for _ in 0..burst {
            let msg = tx.new_message(body.clone());
            for e in handle(&mut tx, StackInput::FromApp(Down::Cast(msg))) {
                if let Effect::NetCast { wire } = e {
                    frames += 1;
                    delivered +=
                        handle(&mut rx, StackInput::FromNet { from: ep(1), cast: true, wire })
                            .iter()
                            .filter(|e| matches!(e, Effect::Deliver(Up::Cast { .. })))
                            .count();
                }
            }
        }
    }
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(delivered, iters * burst, "{desc}: every cast must be delivered");
    ((iters * burst) as f64 / secs, frames)
}

#[test]
fn packing_throughput_smoke() {
    const BODY: usize = 64;
    const BURST: usize = 32;
    const ITERS: usize = 500;
    // Thresholds chosen so only the count threshold fires: the flush is
    // synchronous on the last cast of each burst, no timer needed.
    let packed_desc = "PACK(msgs=32,bytes=1000000,delay=1000):NAK:COM";
    // Warm-up (allocator, lazy init), then take the best of three trials
    // per configuration — peak rates are what the scheduler can't steal.
    let _ = pump_throughput(PLAIN, BODY, BURST, 50);
    let _ = pump_throughput(packed_desc, BODY, BURST, 50);
    let best = |desc: &str| -> (f64, u64) {
        (0..3)
            .map(|_| pump_throughput(desc, BODY, BURST, ITERS))
            .max_by(|a, b| a.0.total_cmp(&b.0))
            .expect("three trials")
    };
    let (plain_rate, plain_frames) = best(PLAIN);
    let (packed_rate, packed_frames) = best(packed_desc);
    let speedup = packed_rate / plain_rate;
    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"packing_throughput_smoke\",\n",
            "  \"payload_bytes\": {},\n",
            "  \"burst\": {},\n",
            "  \"msgs\": {},\n",
            "  \"unpacked\": {{ \"msgs_per_sec\": {:.0}, \"wire_frames\": {} }},\n",
            "  \"packed\": {{ \"msgs_per_sec\": {:.0}, \"wire_frames\": {} }},\n",
            "  \"speedup\": {:.2}\n",
            "}}\n"
        ),
        BODY,
        BURST,
        BURST * ITERS,
        plain_rate,
        plain_frames,
        packed_rate,
        packed_frames,
        speedup
    );
    // Debug-build rates are not benchmark numbers: only a release run
    // records them.
    if !cfg!(debug_assertions) {
        write_bench("BENCH_packing.json", &json);
    }
    eprintln!("{json}");
    assert_eq!(plain_frames as usize, BURST * ITERS, "plain: one frame per message");
    assert_eq!(packed_frames as usize, ITERS, "packed: one frame per burst");
    assert!(
        speedup >= 2.0,
        "packing must at least double small-message throughput, got {speedup:.2}x \
         ({packed_rate:.0} vs {plain_rate:.0} msgs/s)"
    );
}
