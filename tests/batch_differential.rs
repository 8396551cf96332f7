//! Batched dispatch is an optimization, not a semantics change: for every
//! registered layer, feeding an input sequence through
//! [`Stack::handle_batch`] over *any* partition must produce effects
//! byte-identical to feeding the same sequence through `handle_into` one
//! input at a time, into a fresh sink each.
//!
//! The input sequences mix app casts, real wire frames (stamped by a twin
//! sender stack), and timer expiries harvested from the stack's own
//! `SetTimer` emissions, so every layer's receive, send, and timer paths
//! are crossed.  `Effect` has no `PartialEq`; equality is judged on the
//! `Debug` rendering of the full effect sequence, which covers every field.

mod common;

use bytes::Bytes;
use common::handle;
use horus::layers::registry::{build_stack, layer_names};
use horus::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

const SEEDS: [u64; 3] = [7, 101, 9001];
const OPS: usize = 40;

fn rx_stack(name: &str, seed: u64) -> Stack {
    let cfg = StackConfig { seed: Some(seed), ..StackConfig::default() };
    let mut s = build_stack(EndpointAddr::new(2), name, cfg)
        .unwrap_or_else(|e| panic!("{name}: stack builds: {e}"));
    s.init(&mut EffectSink::new());
    s
}

/// Builds one deterministic input sequence for `name`, using a driver twin
/// to harvest timer tokens as they are set.
fn input_sequence(name: &str, seed: u64) -> Vec<StackInput> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB47C);
    let mut driver = rx_stack(name, seed);
    let mut tx = {
        let cfg = StackConfig { seed: Some(seed), ..StackConfig::default() };
        let mut s = build_stack(EndpointAddr::new(1), name, cfg).unwrap();
        s.init(&mut EffectSink::new());
        s
    };
    let mut pending_timers: VecDeque<(usize, u64)> = VecDeque::new();
    let mut inputs: Vec<StackInput> = Vec::with_capacity(OPS + 1);
    inputs.push(StackInput::FromApp(Down::Join { group: GroupAddr::new(1) }));
    for i in 0..OPS {
        let kind = rng.gen_range(0u8..4);
        let input = match kind {
            // A timer the stack actually set, when one is pending.
            0 if !pending_timers.is_empty() => {
                let (layer, token) = pending_timers.pop_front().unwrap();
                StackInput::Timer { layer, token, now: SimTime::from_nanos(i as u64 * 1_000_000) }
            }
            // A real frame off the twin sender's wire.
            1 => {
                let body: Vec<u8> =
                    (0..rng.gen_range(0usize..48)).map(|_| rng.gen_range(0u8..=255)).collect();
                let msg = tx.new_message(Bytes::from(body));
                let fx = handle(&mut tx, StackInput::FromApp(Down::Cast(msg)));
                let wire = fx.iter().find_map(|e| match e {
                    Effect::NetCast { wire } => Some(wire.clone()),
                    Effect::NetSend { wire, .. } => Some(wire.clone()),
                    _ => None,
                });
                match wire {
                    Some(wire) => {
                        StackInput::FromNet { from: EndpointAddr::new(1), cast: true, wire }
                    }
                    // Layer held the cast back — fall through to an app cast.
                    None => {
                        let msg = driver.new_message(Bytes::from(vec![i as u8; 4]));
                        StackInput::FromApp(Down::Cast(msg))
                    }
                }
            }
            // An application cast.
            _ => {
                let body: Vec<u8> =
                    (0..rng.gen_range(0usize..32)).map(|_| rng.gen_range(0u8..=255)).collect();
                let msg = driver.new_message(Bytes::from(body));
                StackInput::FromApp(Down::Cast(msg))
            }
        };
        let fx = handle(&mut driver, input.clone());
        for e in &fx {
            if let Effect::SetTimer { layer, token, .. } = e {
                pending_timers.push_back((*layer, *token));
            }
        }
        inputs.push(input);
    }
    inputs
}

/// Seeded random partition of `0..len` into contiguous chunks of 1..=max.
fn partition(len: usize, max: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut left = len;
    while left > 0 {
        let take = rng.gen_range(1usize..=max.min(left));
        sizes.push(take);
        left -= take;
    }
    sizes
}

#[test]
fn handle_batch_matches_one_at_a_time_for_every_layer() {
    for name in layer_names() {
        for seed in SEEDS {
            let inputs = input_sequence(name, seed);

            // Reference: one input at a time, a fresh sink each.
            let mut one = rx_stack(name, seed);
            let mut fx_one: Vec<Effect> = Vec::new();
            for input in &inputs {
                fx_one.extend(handle(&mut one, input.clone()));
            }

            // Candidate: the same inputs, batched over a random partition.
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31) ^ 0xD15B);
            let mut batched = rx_stack(name, seed);
            let mut sink = EffectSink::new();
            let mut fx_batched: Vec<Effect> = Vec::new();
            let mut it = inputs.iter();
            for size in partition(inputs.len(), 7, &mut rng) {
                let chunk: Vec<StackInput> = it.by_ref().take(size).cloned().collect();
                batched.handle_batch(chunk, &mut sink);
                fx_batched.extend(sink.drain());
            }

            assert_eq!(
                format!("{fx_one:?}"),
                format!("{fx_batched:?}"),
                "{name} seed {seed}: batched effects diverge from one-at-a-time"
            );
            assert_eq!(
                batched.stats().batched_inputs,
                inputs.len() as u64,
                "{name} seed {seed}: every input accounted to a batch"
            );
            assert_eq!(
                format!("{:?}", one.stats()),
                {
                    // Batch bookkeeping differs by construction; mask it out.
                    let mut s = batched.stats().clone();
                    s.batches = 0;
                    s.batched_inputs = 0;
                    format!("{s:?}")
                },
                "{name} seed {seed}: stack counters diverge"
            );
        }
    }
}

/// The degenerate partitions: everything in one batch, and every batch a
/// singleton, both equal the one-at-a-time reference.
#[test]
fn extreme_partitions_agree() {
    for name in ["NAK", "FRAG:NAK:COM", "TOTAL:MBRSHIP:NAK:FLOW:COM"] {
        let inputs = input_sequence(name, 42);
        let mut one = rx_stack(name, 42);
        let mut fx_one: Vec<Effect> = Vec::new();
        for input in &inputs {
            fx_one.extend(handle(&mut one, input.clone()));
        }

        let mut whole = rx_stack(name, 42);
        let mut sink = EffectSink::new();
        whole.handle_batch(inputs.iter().cloned(), &mut sink);
        let fx_whole: Vec<Effect> = sink.drain().collect();

        let mut singles = rx_stack(name, 42);
        let mut fx_singles: Vec<Effect> = Vec::new();
        for input in &inputs {
            singles.handle_batch(std::iter::once(input.clone()), &mut sink);
            fx_singles.extend(sink.drain());
        }

        assert_eq!(format!("{fx_one:?}"), format!("{fx_whole:?}"), "{name}: whole-batch");
        assert_eq!(format!("{fx_one:?}"), format!("{fx_singles:?}"), "{name}: singleton batches");
    }
}
