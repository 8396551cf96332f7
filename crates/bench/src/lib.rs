//! Shared scaffolding for the benchmark harness.
//!
//! Each Criterion bench regenerates one experiment from EXPERIMENTS.md
//! (the §10 overhead discussion and the design-choice ablations).  Wall
//! time is measured by Criterion; protocol-level metrics that the paper
//! talks about — bytes of header per message, messages on the wire per
//! payload delivered, virtual-time latencies — are printed to stderr by
//! the benches as they run, and copied into EXPERIMENTS.md.

use horus_core::prelude::*;
use horus_layers::registry::build_stack;
use horus_net::NetConfig;
use horus_sim::SimWorld;
use std::time::Duration;

pub use horus_core;
pub use horus_layers;
pub use horus_net;
pub use horus_props;
pub use horus_sim;

/// Endpoint helper.
pub fn ep(i: u64) -> EndpointAddr {
    EndpointAddr::new(i)
}

/// The shared test group.
pub fn group() -> GroupAddr {
    GroupAddr::new(1)
}

/// Builds a world of `n` members running `desc`, merged into one view.
///
/// # Panics
///
/// Panics if the stack fails to build or the group does not form.
pub fn joined_world(
    n: u64,
    seed: u64,
    net: NetConfig,
    desc: &str,
    config: StackConfig,
) -> SimWorld {
    let mut w = SimWorld::new(seed, net);
    for i in 1..=n {
        let s = build_stack(ep(i), desc, config.clone()).expect("stack builds");
        w.add_endpoint(s);
        w.join(ep(i), group());
    }
    for i in 2..=n {
        w.down_at(SimTime::from_millis(5 * (i - 1)), ep(i), Down::Merge { contact: ep(1) });
    }
    w.run_for(Duration::from_secs(3));
    for i in 1..=n {
        assert_eq!(
            w.installed_views(ep(i)).last().expect("view").len(),
            n as usize,
            "group must form for {desc}"
        );
    }
    w
}

/// A single stack fed directly (no world): returns the stack ready for
/// hot-path measurements.
///
/// # Panics
///
/// Panics if the stack fails to build.
pub fn lone_stack(desc: &str, config: StackConfig) -> Stack {
    lone_stack_at(1, desc, config)
}

/// [`lone_stack`] for endpoint `i`.
///
/// # Panics
///
/// Panics if the stack fails to build.
pub fn lone_stack_at(i: u64, desc: &str, config: StackConfig) -> Stack {
    let mut s = build_stack(ep(i), desc, config).expect("stack builds");
    s.init(&mut EffectSink::new());
    let _ = handle(&mut s, StackInput::FromApp(Down::Join { group: group() }));
    s
}

/// Feeds one input through `stack`, returning its effects (a fresh sink
/// per call).
pub fn handle(stack: &mut Stack, input: StackInput) -> Vec<Effect> {
    let mut sink = EffectSink::new();
    stack.handle_into(input, &mut sink);
    sink.into_effects()
}

/// Sends one cast through `tx` and feeds every produced frame into `rx`,
/// returning the number of CAST deliveries at `rx`.  The core send+receive
/// hot path with no simulator in between.
pub fn pump_one(tx: &mut Stack, rx: &mut Stack, body: &[u8]) -> usize {
    let msg = tx.new_message(body.to_vec());
    let mut delivered = 0;
    for e in handle(tx, StackInput::FromApp(Down::Cast(msg))) {
        if let Effect::NetCast { wire } = e {
            let fx = handle(rx, StackInput::FromNet { from: ep(1), cast: true, wire });
            delivered +=
                fx.iter().filter(|e| matches!(e, Effect::Deliver(Up::Cast { .. }))).count();
        }
    }
    delivered
}

/// Description string for a stack of `n` pass-through layers over COM.
pub fn nop_stack_desc(n: usize, opaque: bool) -> String {
    let layer = if opaque { "NOP_OPAQUE" } else { "NOP" };
    let mut parts = vec![layer; n];
    parts.push("COM");
    parts.join(":")
}
