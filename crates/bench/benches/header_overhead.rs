//! E12 — header layout ablation (§10 problem 3).
//!
//! "Layers push their own header onto the message.  For convenience, this
//! header is aligned to a word boundary.  This leads to a considerable
//! overhead of unused bits ... Also, each pop and push operation has an
//! associated overhead."  The proposed fix pre-computes "a single header
//! in which the necessary fields are compacted".
//!
//! Series: the §7 stack in `aligned` (1995 layout) vs `compact` (proposed
//! layout), across payload sizes.  Wire-size numbers print to stderr.

use bench::{handle, lone_stack, lone_stack_at, pump_one};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use horus_core::prelude::*;

const STACK: &str = "TOTAL:MBRSHIP:FRAG:NAK:COM";

fn stack_pair(mode: HeaderMode) -> (Stack, Stack) {
    let cfg = StackConfig { mode, ..StackConfig::default() };
    let tx = lone_stack(STACK, cfg.clone());
    // Second endpoint for the receive side.
    let rx = lone_stack_at(2, STACK, cfg);
    (tx, rx)
}

fn bench_header_modes(c: &mut Criterion) {
    let mut g = c.benchmark_group("header_overhead");
    g.sample_size(40);
    for &payload in &[0usize, 64, 1024] {
        let body = vec![0xA5u8; payload];
        g.throughput(Throughput::Bytes(payload as u64));
        for (label, mode) in [("aligned", HeaderMode::Aligned), ("compact", HeaderMode::Compact)] {
            g.bench_with_input(BenchmarkId::new(label, payload), &payload, |b, _| {
                let (mut tx, mut rx) = stack_pair(mode);
                b.iter(|| {
                    // The raw send path cost: header push/stamp +
                    // encode (+ the receive-side pop on delivery).
                    let n = pump_one(&mut tx, &mut rx, &body);
                    std::hint::black_box(n);
                });
            });
        }
    }
    g.finish();

    // Wire sizes for EXPERIMENTS.md: bytes on the wire per cast.
    eprintln!("\n[E12] wire bytes per cast of the {STACK} stack:");
    for (label, mode) in [("aligned", HeaderMode::Aligned), ("compact", HeaderMode::Compact)] {
        for &payload in &[0usize, 64, 1024] {
            let (mut tx, _) = stack_pair(mode);
            let msg = tx.new_message(vec![0u8; payload]);
            let fx = handle(&mut tx, StackInput::FromApp(Down::Cast(msg)));
            let wire = fx
                .iter()
                .find_map(|e| match e {
                    Effect::NetCast { wire } => Some(wire.len()),
                    _ => None,
                })
                .expect("cast produced");
            eprintln!(
                "  {label:<8} payload {payload:>5} B -> wire {wire:>5} B (overhead {:>3} B)",
                wire - payload
            );
        }
    }
}

criterion_group!(benches, bench_header_modes);
criterion_main!(benches);
