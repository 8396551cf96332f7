//! E18 — message packing throughput (§10).
//!
//! "Another important optimization is message packing: the combining of
//! several small messages into a single large one."  This bench sweeps
//! payload size × pack threshold over the send+deliver hot path of
//! `PACK:NAK:COM` against the unpacked `NAK:COM` baseline, and prints the
//! wire-frame amplification (frames per message) to stderr — the
//! protocol-level quantity the paper's argument turns on.
//!
//! The PACK thresholds are chosen so the count threshold flushes
//! synchronously on the last cast of each burst (no timers in the lone
//! stack pump), making every iteration a complete, delivered burst.

use bench::{ep, handle, lone_stack_at};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use horus_core::prelude::*;

/// Pumps one burst of `burst` casts through tx→rx; returns
/// (wire frames produced, casts delivered).
fn pump_burst(tx: &mut Stack, rx: &mut Stack, body: &[u8], burst: usize) -> (usize, usize) {
    let mut frames = 0;
    let mut delivered = 0;
    for _ in 0..burst {
        let msg = tx.new_message(body.to_vec());
        for e in handle(tx, StackInput::FromApp(Down::Cast(msg))) {
            if let Effect::NetCast { wire } = e {
                frames += 1;
                delivered += handle(rx, StackInput::FromNet { from: ep(1), cast: true, wire })
                    .iter()
                    .filter(|e| matches!(e, Effect::Deliver(Up::Cast { .. })))
                    .count();
            }
        }
    }
    (frames, delivered)
}

fn bench_packing(c: &mut Criterion) {
    let mut g = c.benchmark_group("packing_throughput");
    g.sample_size(40);

    for &size in &[16usize, 64, 256, 1024] {
        for &pack in &[0usize, 8, 32] {
            let burst = if pack == 0 { 32 } else { pack };
            let desc = if pack == 0 {
                "NAK:COM".to_string()
            } else {
                // Byte threshold high enough that only the count fires.
                format!("PACK(msgs={pack},bytes=1000000,delay=1000):NAK:COM")
            };
            let label = if pack == 0 { "unpacked".to_string() } else { format!("pack{pack}") };
            g.throughput(Throughput::Elements(burst as u64));
            g.bench_function(BenchmarkId::new(label.clone(), format!("{size}B")), |b| {
                let mut tx = lone_stack_at(1, &desc, StackConfig::default());
                let mut rx = lone_stack_at(2, &desc, StackConfig::default());
                let body = vec![0x42u8; size];
                b.iter(|| {
                    let (_, delivered) = pump_burst(&mut tx, &mut rx, &body, burst);
                    assert_eq!(delivered, burst, "{desc}: burst fully delivered");
                });
                // Protocol-level metric once per config, outside the
                // timed loop.
                let (frames, delivered) = pump_burst(&mut tx, &mut rx, &body, burst);
                eprintln!(
                    "packing_throughput: {label} size={size}B \
                     frames/msg={:.3} ({frames} frames / {delivered} msgs)",
                    frames as f64 / delivered as f64
                );
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_packing);
criterion_main!(benches);
