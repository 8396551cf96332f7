//! E11 — dispatch-model ablation (§10 problem 2).
//!
//! "Since Horus is thread-safe, multiple procedure calls into the same
//! layer often have to be synchronized by a lock ... we are eliminating
//! intra-stack threading, having discovered that concurrency within a
//! stack does not lead to significant gains."
//!
//! Real threads, real time, in-process loopback transport: a 2-member
//! group floods N casts through the `NAK:COM` stack under
//! * `event_queue` — one worker thread per stack, dispatching one event at
//!   a time (the model the paper adopts, unbatched),
//! * `locked_threads` — four workers contending on a stack lock (the
//!   model it abandons), and
//! * `sharded` — the sharded run-to-completion executor with batched
//!   dispatch and direct shard delivery (PR 3).
//!
//! E23 rides along: the `batch_size` sweep holds the sharded executor
//! fixed and varies only `batch_max`, isolating what batching at the
//! dispatch boundary is worth.

use bench::ep;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use horus_core::prelude::*;
use horus_layers::registry::build_stack;
use horus_net::LoopbackNet;
use horus_sim::shard::{ShardConfig, ShardExecutor};
use horus_sim::threaded::ThreadedEndpoint;
use std::time::Duration;

const FLOOD: usize = 500;

/// Floods through [`ThreadedEndpoint`]s with `workers` dispatch threads each.
fn flood(workers: usize) {
    let net = LoopbackNet::new();
    let g = GroupAddr::new(1);
    let mut endpoints: Vec<ThreadedEndpoint> = (1..=2)
        .map(|i| {
            let s = build_stack(ep(i), "NAK:COM", StackConfig::default()).unwrap();
            ThreadedEndpoint::spawn(s, net.clone(), workers)
        })
        .collect();
    for e in &endpoints {
        e.down(Down::Join { group: g });
    }
    std::thread::sleep(Duration::from_millis(5));
    for k in 0..FLOOD {
        endpoints[0].cast_bytes(vec![(k % 251) as u8; 32]);
    }
    let ok = endpoints[1].wait_until(Duration::from_secs(30), |e| e.cast_count() >= FLOOD);
    assert!(ok, "receiver saw {}/{FLOOD}", endpoints[1].cast_count());
    for e in &mut endpoints {
        e.stop();
    }
}

fn flood_sharded(shards: usize, batch_max: usize) {
    let cfg = ShardConfig::with_shards(shards).batch_max(batch_max).record_upcalls(false);
    let mut ex = ShardExecutor::new(LoopbackNet::new(), cfg);
    let g = GroupAddr::new(1);
    for i in 1..=2 {
        let s = build_stack(ep(i), "NAK:COM", StackConfig::default()).unwrap();
        ex.add_stack(s);
        ex.down(ep(i), Down::Join { group: g });
    }
    std::thread::sleep(Duration::from_millis(5));
    for k in 0..FLOOD {
        ex.cast_bytes(ep(1), vec![(k % 251) as u8; 32]);
    }
    let ok = ex.wait_until(Duration::from_secs(30), |ex| ex.cast_count(ep(2)) >= FLOOD);
    assert!(ok, "receiver saw {}/{FLOOD}", ex.cast_count(ep(2)));
    ex.stop();
}

fn bench_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("dispatch_model");
    // Whole-scenario benches with threads: keep samples small.
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(20));
    g.throughput(Throughput::Elements(FLOOD as u64));
    g.bench_function(BenchmarkId::new("event_queue", FLOOD), |b| {
        b.iter(|| flood(1));
    });
    g.bench_function(BenchmarkId::new("locked_threads", FLOOD), |b| {
        b.iter(|| flood(4));
    });
    g.bench_function(BenchmarkId::new("sharded", FLOOD), |b| {
        b.iter(|| flood_sharded(2, 64));
    });
    g.finish();
}

/// E23 — batch-size sweep: same executor, same workload, only the
/// dispatch burst limit varies.
fn bench_batch_size(c: &mut Criterion) {
    let mut g = c.benchmark_group("batch_size");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(20));
    g.throughput(Throughput::Elements(FLOOD as u64));
    for batch_max in [1usize, 16, 64] {
        g.bench_function(BenchmarkId::new("sharded", batch_max), |b| {
            b.iter(|| flood_sharded(2, batch_max));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_dispatch, bench_batch_size);
criterion_main!(benches);
