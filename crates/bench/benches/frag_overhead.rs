//! E9 — the FRAG layer's one-way latency overhead (§10).
//!
//! "On a Sparc 10 the overhead of the fragmentation/reassembly layer FRAG
//! (which only needs one bit of header space) adds about 50 µsecs to the
//! one-way latency, which is considerable."
//!
//! We measure the same quantity on this implementation: the send+deliver
//! hot path of `NAK:COM` with and without FRAG in between, for bodies on
//! the fast path (no chunking) and far beyond the fragment size.  The
//! paper's point — the *existence* of measurable per-layer cost and its
//! smallness relative to protocol work — is what should reproduce; the
//! absolute number is hardware-bound.

use bench::{lone_stack, lone_stack_at, pump_one};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use horus_core::prelude::*;

fn pair(desc: &str) -> (Stack, Stack) {
    let tx = lone_stack(desc, StackConfig::default());
    let rx = lone_stack_at(2, desc, StackConfig::default());
    (tx, rx)
}

fn bench_frag(c: &mut Criterion) {
    let mut g = c.benchmark_group("frag_overhead");
    g.sample_size(40);

    // The paper's measurement: small message, FRAG present but inactive
    // (fast path) vs absent.  The delta is "the overhead of FRAG".
    for (label, desc) in [("without_frag", "NAK:COM"), ("with_frag", "FRAG:NAK:COM")] {
        g.bench_function(BenchmarkId::new(label, "1KiB"), |b| {
            let (mut tx, mut rx) = pair(desc);
            let body = vec![7u8; 1024];
            b.iter(|| {
                let n = pump_one(&mut tx, &mut rx, &body);
                std::hint::black_box(n);
            });
        });
    }

    // Fragmentation actually working: a 64 KiB body in 1 KiB fragments.
    g.throughput(Throughput::Bytes(64 * 1024));
    g.bench_function(BenchmarkId::new("with_frag", "64KiB_fragmenting"), |b| {
        let (mut tx, mut rx) = pair("FRAG(size=1024):NAK:COM");
        let body = vec![7u8; 64 * 1024];
        b.iter(|| {
            let n = pump_one(&mut tx, &mut rx, &body);
            assert_eq!(n, 1, "reassembled exactly once");
        });
    });
    g.finish();
}

criterion_group!(benches, bench_frag);
criterion_main!(benches);
