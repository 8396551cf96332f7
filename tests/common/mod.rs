//! Shared helpers for the integration tests.
#![allow(dead_code)]

use horus::layers::registry::build_stack;
use horus::prelude::*;
use horus::sim::SimWorld;
use horus_net::NetConfig;
use horus_sim::DeliveryLog;
use std::time::Duration;

pub fn ep(i: u64) -> EndpointAddr {
    EndpointAddr::new(i)
}

pub fn group() -> GroupAddr {
    GroupAddr::new(1)
}

/// Feeds one input through `stack`, returning its effects (a fresh sink
/// per call).
pub fn handle(stack: &mut Stack, input: StackInput) -> Vec<Effect> {
    let mut sink = EffectSink::new();
    stack.handle_into(input, &mut sink);
    sink.into_effects()
}

/// Builds a world of `n` members all running `stack_desc`, merges them
/// toward ep(1), and runs until the full view forms.
///
/// # Panics
///
/// Panics if the group does not assemble.
pub fn joined_world(n: u64, seed: u64, net: NetConfig, stack_desc: &str) -> SimWorld {
    let mut w = SimWorld::new(seed, net);
    for i in 1..=n {
        let s = build_stack(ep(i), stack_desc, StackConfig::default()).expect("stack builds");
        w.add_endpoint(s);
        w.join(ep(i), GroupAddr::new(1));
    }
    for i in 2..=n {
        w.down_at(SimTime::from_millis(5 * (i - 1)), ep(i), Down::Merge { contact: ep(1) });
    }
    w.run_for(Duration::from_secs(3));
    for i in 1..=n {
        let views = w.installed_views(ep(i));
        let last = views.last().unwrap_or_else(|| panic!("ep{i} has no view"));
        assert_eq!(last.len(), n as usize, "ep{i} must see the full {n}-member view");
    }
    w
}

/// Writes a smoke test's `BENCH_*.json` into the package root named by
/// `CARGO_MANIFEST_DIR` at run time (cargo sets it for test processes), so
/// a test binary copied out of this tree never writes back into it.
pub fn write_bench(name: &str, json: &str) {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => {
            let path = std::path::Path::new(&dir).join(name);
            std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        }
        None => eprintln!("CARGO_MANIFEST_DIR is unset: {name} not written"),
    }
}

/// Delivery logs of all still-alive members.
pub fn logs(w: &SimWorld, n: u64) -> Vec<DeliveryLog> {
    (1..=n)
        .filter(|&i| w.is_alive(ep(i)))
        .map(|i| DeliveryLog::from_upcalls(ep(i), w.upcalls(ep(i))))
        .collect()
}

/// The canonical §7 stack, promiscuous COM for merge traffic.
pub const CANONICAL: &str = "TOTAL:MBRSHIP:FRAG:NAK:COM(promiscuous=true)";
/// Virtual synchrony without ordering above it.
pub const VSYNC: &str = "MBRSHIP:FRAG:NAK:COM(promiscuous=true)";
