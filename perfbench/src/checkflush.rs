//! `check_flush`: `horus_check::explore` on the `flush4` scenario (depth 6,
//! one induced drop, reduction on, one worker), run to exhaustion.
//!
//! The exploration itself is deterministic; the seed drives the
//! benchmark's own random walk of the `flush4` world, which times the
//! simulator calls the explorer is built from (`fire`, `snapshot`,
//! `fingerprint`) and, in the traced run, gives the layers' self times.

use crate::report::Report;
use crate::spans::{SpanSink, APP_CAST, FIRED, FRAME_DELIVER, TIMER_FIRE};
use crate::util::{self, CpuTime, Rng, Setups};
use crate::{NetCounts, Traced};
use horus_check::{explore, CheckConfig, CheckReport, Scenario};
use horus_core::prelude::*;
use horus_core::stack::StackStats;
use horus_layers::registry::build_stack;
use horus_sim::{EventId, ReadyEvent, SimWorld};
use std::sync::Arc;
use std::time::Instant;

const SCENARIO: &str = "flush4";
const MIN_REPEATS: usize = 3;
/// Seeded walks per pass; about half a second untraced.
const WALKS: u64 = 30;
const WALK_MAX_STEPS: usize = 20_000;
/// Stack builds timed for `props.build_stack_us`.
const BUILDS: usize = 21;

fn config() -> CheckConfig {
    // Budgets far above the space's size, so the run ends by exhaustion.
    CheckConfig {
        max_depth: 6,
        max_drops: 1,
        reduction: true,
        max_states: 10_000_000,
        max_runs: 10_000_000,
        ..CheckConfig::default()
    }
}

/// What a set of walks measured, summed over the walks.
#[derive(Default)]
struct Walks {
    steps: usize,
    fire_ns: Vec<f64>,
    snapshot_ns: Vec<f64>,
    fingerprint_ns: Vec<f64>,
    wall_s: f64,
    cpu: CpuTime,
    stats_before: StackStats,
    stats_after: StackStats,
    naks: f64,
    retrans: f64,
    net: NetCounts,
}

/// A seeded random member of the world's ready set, as the walks fire them.
fn pick(
    world: &SimWorld,
    rng: &mut Rng,
    ready: &mut Vec<ReadyEvent>,
    window: std::time::Duration,
) -> Option<EventId> {
    world.ready_events_into(window, ready);
    (!ready.is_empty()).then(|| ready[rng.below(ready.len() as u64) as usize].id)
}

/// Walks the scenario world `WALKS` times (seeds `seed..`) to its deadline,
/// firing a seeded random member of each ready set.  With `probe` set, each
/// step also takes and drops a `snapshot` and a `fingerprint`, as the
/// explorer does, and times all three calls.  Only the walks themselves are
/// measured and traced, not the world builds between them.
fn walks(scenario: &Scenario, seed: u64, probe: bool, tracer: Option<&Arc<SpanSink>>) -> Walks {
    let cfg = config();
    let mut w = Walks::default();
    let mut ready = Vec::new();
    for i in 0..WALKS {
        let mut world = scenario.build();
        let mut rng = Rng::new(seed.wrapping_add(i));
        w.stats_before.merge(&crate::world_stats(&world));
        let (naks0, retrans0) = crate::nak_counts(&world);
        let net0 = NetCounts::of_sim(world.net_stats());
        if let Some(t) = tracer {
            world.set_tracer(t.clone());
            t.set_on(true);
        }
        let cpu0 = CpuTime::current().unwrap_or_default();
        let start = Instant::now();
        let mut steps = 0;
        while steps < WALK_MAX_STEPS && world.now() <= scenario.deadline() {
            let Some(id) = pick(&world, &mut rng, &mut ready, cfg.window) else { break };
            if probe {
                let t = Instant::now();
                let snap = world.snapshot();
                w.snapshot_ns.push(t.elapsed().as_nanos() as f64);
                drop(snap);
                let t = Instant::now();
                std::hint::black_box(world.fingerprint());
                w.fingerprint_ns.push(t.elapsed().as_nanos() as f64);
                let t = Instant::now();
                world.fire(id);
                w.fire_ns.push(t.elapsed().as_nanos() as f64);
            } else {
                world.fire(id);
            }
            steps += 1;
        }
        w.wall_s += start.elapsed().as_secs_f64();
        let cpu = CpuTime::current().unwrap_or_default().since(cpu0);
        w.cpu.on_cpu_ns += cpu.on_cpu_ns;
        w.cpu.runqueue_ns += cpu.runqueue_ns;
        if let Some(t) = tracer {
            t.set_on(false);
            world.clear_tracer();
        }
        w.steps += steps;
        w.stats_after.merge(&crate::world_stats(&world));
        let (naks, retrans) = crate::nak_counts(&world);
        w.naks += naks - naks0;
        w.retrans += retrans - retrans0;
        w.net.add(NetCounts::of_sim(world.net_stats()).since(net0));
    }
    w
}

pub fn run(seed: u64, seconds: f64, traced: bool, r: &mut Report) -> Result<(), String> {
    let scenario = Scenario::by_name(SCENARIO).ok_or("flush4 scenario missing")?;
    let cfg = config();

    // Set-ups (`Scenario::build`: stacks, merge, settle) are sampled before
    // each exploration, spread over the run.
    let mut setups = Setups::default();
    let budget = if traced { seconds / 2.0 } else { seconds };
    let start = Instant::now();
    let mut reports: Vec<(CheckReport, f64, u64)> = Vec::new();
    while reports.len() < MIN_REPEATS || start.elapsed().as_secs_f64() < budget {
        setups.sample(|| {
            let t = Instant::now();
            std::hint::black_box(scenario.build());
            Ok(t.elapsed().as_secs_f64())
        })?;
        horus_core::stack::reset_layer_clones();
        let t = Instant::now();
        let rep = explore(scenario, &cfg);
        let wall = t.elapsed().as_secs_f64();
        let clones = horus_core::stack::layer_clones();
        r.attempted += 1;
        let ok = rep.exhausted && rep.violation.is_none();
        if !ok {
            r.failed += 1;
            r.fail(format!(
                "explore({SCENARIO}) did not exhaust cleanly: exhausted={} violation={:?}",
                rep.exhausted,
                rep.violation.as_ref().map(|v| (v.oracle, v.message.clone()))
            ));
        }
        if let Some((first, _, first_clones)) = reports.first() {
            let same = (rep.states, rep.runs, rep.steps, rep.pruned, clones)
                == (first.states, first.runs, first.steps, first.pruned, *first_clones);
            r.check(same, || {
                format!(
                    "exploration counts changed between repeats: {} states vs {}",
                    rep.states, first.states
                )
            });
        }
        reports.push((rep, wall, clones));
    }
    let (first, _, clones) = &reports[0];
    let walls: Vec<f64> = reports.iter().map(|(_, w, _)| *w).collect();
    let rates: Vec<f64> = reports.iter().map(|(rep, w, _)| rep.states as f64 / w).collect();
    r.e2e("setup_s", setups.median());
    r.e2e_as("ops_per_s", "explore_states_s", util::median(&rates));
    r.e2e_as("latency_p50_us", "explore_wall_us", util::median(&walls) * 1e6);
    r.named("explore_states_s_spread", util::spread(&rates), "frac");
    r.named("repeats", reports.len() as f64, "count");
    r.named("check.states", first.states as f64, "count");
    r.named("check.runs", first.runs as f64, "count");
    r.named("check.steps", first.steps as f64, "count");
    r.named("check.pruned", first.pruned as f64, "count");
    r.named("check.layer_clones", *clones as f64, "count");
    r.named("setup_samples", setups.0.len() as f64, "count");
    r.named("setup_spread", setups.spread(), "frac");
    if !traced {
        return Ok(());
    }

    r.layer("check.states", first.states as f64);
    r.layer("check.runs", first.runs as f64);
    r.layer("check.steps", first.steps as f64);
    r.layer("check.pruned", first.pruned as f64);
    r.layer("check.layer_clones", *clones as f64);
    let steps_s: Vec<f64> = reports.iter().map(|(rep, w, _)| rep.steps as f64 / w).collect();
    r.layer("check.steps_s", util::median(&steps_s));

    let probed = walks(scenario, seed, true, None);
    r.layer("sim.fire_ns", util::median(&probed.fire_ns));
    r.layer("sim.snapshot_ns", util::median(&probed.snapshot_ns));
    r.layer("sim.fingerprint_ns", util::median(&probed.fingerprint_ns));
    r.named("walk_steps", probed.steps as f64, "count");

    // The traced walks fire only, so no span covers the probes; they repeat
    // the seeds of an untraced fire-only pass, so their steps match.
    let plain = walks(scenario, seed, false, None);
    let sink = Arc::new(SpanSink::new(plain.steps * 8));
    let tw = walks(scenario, seed, false, Some(&sink));
    r.check(tw.steps == plain.steps, || {
        format!("traced walks took {} steps, untraced {}", tw.steps, plain.steps)
    });
    let probe = build_stack(EndpointAddr::new(1), scenario.stack, StackConfig::default())
        .map_err(|e| e.to_string())?;
    let msgs = tw.steps as f64;
    let a = crate::layer_metrics(
        r,
        Traced {
            recs: sink.take(),
            // Every fired calendar event leaves exactly one of these.
            is_msg: |rec| matches!(rec.tag, FRAME_DELIVER | TIMER_FIRE | APP_CAST | FIRED),
            before: &tw.stats_before,
            after: &tw.stats_after,
            msgs,
            busy_ns: (tw.cpu.on_cpu_ns + tw.cpu.runqueue_ns) as f64,
            stack_layers: &probe.layer_names(),
        },
    );
    r.check(a.msgs == msgs, || format!("{} traced events for {} walk steps", a.msgs, msgs));
    r.layer("trace.overhead_frac", tw.wall_s / plain.wall_s - 1.0);
    r.layer("trace.window_s", tw.wall_s);
    r.layer("trace.worker_cpu_frac", tw.cpu.on_cpu_ns as f64 / (tw.wall_s * 1e9));
    r.layer("layers.NAK.naks_sent", tw.naks);
    r.layer("layers.NAK.retransmissions", tw.retrans);
    r.layer("net.frames_per_msg", tw.net.frames as f64 / msgs);
    r.layer("net.deliveries_per_msg", tw.net.deliveries as f64 / msgs);
    r.layer("net.p2p_frames", a.p2p_frames as f64);
    r.layer("net.dropped", tw.net.dropped as f64);
    let mut builds = Vec::new();
    for _ in 0..BUILDS {
        let t = Instant::now();
        std::hint::black_box(
            build_stack(EndpointAddr::new(1), scenario.stack, StackConfig::default())
                .map_err(|e| e.to_string())?,
        );
        builds.push(t.elapsed().as_secs_f64() * 1e6);
    }
    r.layer("props.build_stack_us", util::median(&builds));
    r.layer("sim.group_form_ms", setups.median() * 1e3);
    r.not_exercised(&[
        "shard.frame_wait_us_p50",
        "live.view_changes",
        "live.latency_p99_us",
        "live.latency_samples",
        "live.flood_delivered",
        "live.flood_view_changes",
        "gen.lag_max_us",
        "sim.view_changes",
        "sim.vlatency_p99_us",
        "sim.vlatency_samples",
        "sim.steps_per_msg",
    ]);
    Ok(())
}
