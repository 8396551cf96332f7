//! `sim_bulk`: four members of the §7 stack in a `SimWorld`, all casting
//! 8 KiB payloads round-robin under 5% loss, in virtual time.
//!
//! The seed is the world's seed, so one seed fixes the loss pattern and
//! every virtual-time latency; repeats within a run must reproduce them
//! exactly.  Wall time is only spent on the simulation itself.

use crate::report::Report;
use crate::spans::{SpanSink, APP_CAST, LAYERS};
use crate::util::{self, CpuTime, Setups};
use crate::{NetCounts, Traced};
use horus_core::prelude::*;
use horus_core::stack::StackStats;
use horus_core::time::SimTime;
use horus_layers::registry::build_stack;
use horus_net::NetConfig;
use horus_sim::SimWorld;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MEMBERS: u64 = 4;
const BODY: usize = 8 * 1024;
const LOSS: f64 = 0.05;
/// Casts per repeat, and the virtual gap between consecutive casts.
const CASTS: u64 = 1_500;
const INTERVAL: Duration = Duration::from_millis(1);
/// Virtual time after the last cast for retransmissions to finish.
const DRAIN: Duration = Duration::from_secs(3);
/// At least this many repeats, whatever `--seconds` says.
const MIN_REPEATS: usize = 3;

fn ep(i: u64) -> EndpointAddr {
    EndpointAddr::new(i)
}

fn members() -> impl Iterator<Item = EndpointAddr> {
    (1..=MEMBERS).map(ep)
}

struct Formed {
    world: SimWorld,
    setup_s: f64,
    form_ms: f64,
    build_us: Vec<f64>,
    views_at_start: usize,
}

/// Builds the world and settles it until every member has installed the
/// four-member view.  The group forms on a lossless network with a fixed
/// latency, so set-up is the same work for every seed; loss and jitter
/// start with the casting.
fn form(seed: u64) -> Result<Formed, String> {
    let t0 = Instant::now();
    let fixed = Duration::from_micros(100);
    let settle_net = NetConfig { latency_min: fixed, latency_max: fixed, ..NetConfig::default() };
    let mut world = SimWorld::new(seed, settle_net);
    let mut build_us = Vec::new();
    for e in members() {
        let tb = Instant::now();
        let s = build_stack(e, crate::live::STACK, StackConfig::default())
            .map_err(|e| e.to_string())?;
        build_us.push(tb.elapsed().as_secs_f64() * 1e6);
        world.add_endpoint(s);
        world.join(e, GroupAddr::new(1));
    }
    let tf = Instant::now();
    for (i, e) in members().enumerate().skip(1) {
        world.down_at(SimTime::from_millis(5 * i as u64), e, Down::Merge { contact: ep(1) });
    }
    let formed = |w: &SimWorld| {
        members().all(|e| w.installed_views(e).last().is_some_and(|v| v.len() == MEMBERS as usize))
    };
    while !formed(&world) {
        if world.now() > SimTime::from_millis(20_000) {
            return Err(format!("sim group did not form in 20 s virtual (seed {seed})"));
        }
        world.run_for(Duration::from_millis(50));
    }
    // Let the formation's flush traffic finish before casting.
    world.run_for(Duration::from_millis(200));
    let views_at_start = members().map(|e| world.installed_view_count(e)).sum();
    Ok(Formed {
        world,
        setup_s: t0.elapsed().as_secs_f64(),
        form_ms: tf.elapsed().as_secs_f64() * 1e3,
        build_us,
        views_at_start,
    })
}

/// One repeat's observable outcome; two repeats with one seed must agree
/// on all of it.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    steps: u64,
    /// Virtual cast→deliver latencies in microseconds, one per (cast,
    /// member), sorted.
    vlat_us: Vec<f64>,
    delivered_min: usize,
    view_changes: usize,
}

struct Repeat {
    outcome: Outcome,
    wall_s: f64,
    stats_before: StackStats,
    stats: StackStats,
    /// Network counters during the casting.
    net: NetCounts,
    naks: f64,
    retrans: f64,
    cpu: CpuTime,
}

fn sender_of(k: u64) -> u64 {
    k % MEMBERS + 1
}

/// Forms a world, schedules the casts, and runs it to the end of the drain.
fn repeat(
    seed: u64,
    tracer: Option<&Arc<SpanSink>>,
    check_bodies: bool,
    r: &mut Report,
) -> Result<Repeat, String> {
    let Formed { mut world, views_at_start, .. } = form(seed)?;
    *world.net_mut().config_mut() = NetConfig::lossy(LOSS);
    let stats_before = crate::world_stats(&world);
    let net0 = NetCounts::of_sim(world.net_stats());
    let (naks0, retrans0) = crate::nak_counts(&world);
    let base = world.now() + Duration::from_millis(1);
    let cast_at = |k: u64| base + INTERVAL * k as u32;
    for k in 0..CASTS {
        world.cast_bytes_at(
            cast_at(k),
            ep(sender_of(k)),
            util::payload(seed, sender_of(k), k, BODY),
        );
    }
    if let Some(t) = tracer {
        world.set_tracer(t.clone());
        t.set_on(true);
    }
    let cpu0 = CpuTime::current().ok_or("no CPU clock for this thread")?;
    let t0 = Instant::now();
    let steps = world.run_until(cast_at(CASTS) + DRAIN);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu = CpuTime::current().unwrap_or_default().since(cpu0);
    if let Some(t) = tracer {
        t.set_on(false);
        world.clear_tracer();
    }

    let mut vlat_us = Vec::with_capacity((CASTS * MEMBERS) as usize);
    let mut order: Option<Vec<u64>> = None;
    let mut delivered_min = usize::MAX;
    for e in members() {
        let casts = world.delivered_casts(e);
        delivered_min = delivered_min.min(casts.len());
        let mut seqs = Vec::with_capacity(casts.len());
        for (src, body, at) in &casts {
            let Some((sender, k)) = util::payload_id(body) else {
                r.fail(format!("{e} delivered a {}-byte body without an id", body.len()));
                continue;
            };
            if src.raw() != sender || k >= CASTS || sender != sender_of(k) {
                r.fail(format!("{e} delivered cast ({sender}, {k}) from {src}"));
                continue;
            }
            if check_bodies && body.as_ref() != util::payload(seed, sender, k, BODY).as_slice() {
                r.fail(format!("{e} delivered a corrupted body for cast {k}"));
            }
            vlat_us.push(at.saturating_since(cast_at(k)).as_nanos() as f64 / 1e3);
            seqs.push(k);
        }
        match &order {
            None => order = Some(seqs),
            Some(first) => r.check(*first == seqs, || {
                format!("{e} delivered the casts in another order than {}", ep(1))
            }),
        }
    }
    let mut sorted_seqs = order.unwrap_or_default();
    sorted_seqs.sort_unstable();
    sorted_seqs.dedup();
    r.check(sorted_seqs.len() == CASTS as usize && delivered_min == CASTS as usize, || {
        format!("only {delivered_min} of {CASTS} casts reached every member")
    });
    let view_changes =
        members().map(|e| world.installed_view_count(e)).sum::<usize>() - views_at_start;
    let (naks, retrans) = crate::nak_counts(&world);
    Ok(Repeat {
        outcome: Outcome { steps, vlat_us: util::sorted(vlat_us), delivered_min, view_changes },
        wall_s,
        stats_before,
        stats: crate::world_stats(&world),
        net: NetCounts::of_sim(world.net_stats()).since(net0),
        naks: naks - naks0,
        retrans: retrans - retrans0,
        cpu,
    })
}

pub fn run(seed: u64, seconds: f64, traced: bool, r: &mut Report) -> Result<(), String> {
    // Set-ups are sampled before each repeat, spread over the run.
    let (mut setups, mut forms, mut builds) = (Setups::default(), Vec::new(), Vec::new());
    let budget = if traced { seconds / 2.0 } else { seconds };
    let start = Instant::now();
    let mut reps: Vec<Repeat> = Vec::new();
    while reps.len() < MIN_REPEATS || start.elapsed().as_secs_f64() < budget {
        setups.sample(|| {
            let f = form(seed)?;
            forms.push(f.form_ms);
            builds.extend_from_slice(&f.build_us);
            Ok(f.setup_s)
        })?;
        let rep = repeat(seed, None, reps.is_empty(), r)?;
        if let Some(first) = reps.first() {
            r.check(rep.outcome == first.outcome, || {
                format!(
                    "repeat {} with seed {seed} diverged: {} steps vs {}",
                    reps.len(),
                    rep.outcome.steps,
                    first.outcome.steps
                )
            });
        }
        reps.push(rep);
    }
    let first = &reps[0];
    let o = &first.outcome;
    let walls: Vec<f64> = reps.iter().map(|p| p.wall_s).collect();
    let rates: Vec<f64> = walls.iter().map(|w| CASTS as f64 / w).collect();
    let p50 = util::quantile_sorted(&o.vlat_us, 0.5);
    let p99 = util::quantile_sorted(&o.vlat_us, 0.99);
    r.attempted += CASTS;
    r.failed += CASTS - o.delivered_min.min(CASTS as usize) as u64;

    r.e2e("setup_s", setups.median());
    r.e2e_as("ops_per_s", "sim_casts_s", util::median(&rates));
    r.e2e_as("latency_p50_us", "vlatency_p50_us", p50);
    r.named("sim_casts_s_spread", util::spread(&rates), "frac");
    r.named("repeats", reps.len() as f64, "count");
    r.named("vlatency_p99_us", p99, "us");
    r.named("vlatency_samples", o.vlat_us.len() as f64, "count");
    r.named("failed_frac", r.failed as f64 / r.attempted as f64, "frac");
    r.named("sim.steps", o.steps as f64, "count");
    r.named("sim.view_changes", o.view_changes as f64, "count");
    r.named("setup_samples", setups.0.len() as f64, "count");
    r.named("setup_spread", setups.spread(), "frac");
    if !traced {
        return Ok(());
    }

    let msgs = CASTS as f64;
    let sink = Arc::new(SpanSink::new((o.steps * 12) as usize));
    let traced_rep = repeat(seed, Some(&sink), false, r)?;
    r.check(traced_rep.outcome == first.outcome, || "the traced repeat diverged".to_string());
    let cpu = traced_rep.cpu;
    let a = crate::layer_metrics(
        r,
        Traced {
            recs: sink.take(),
            is_msg: |rec| rec.tag == APP_CAST,
            before: &first.stats_before,
            after: &first.stats,
            msgs,
            busy_ns: (cpu.on_cpu_ns + cpu.runqueue_ns) as f64,
            stack_layers: &LAYERS,
        },
    );
    r.layer("trace.overhead_frac", traced_rep.wall_s / util::median(&walls) - 1.0);
    r.layer("trace.window_s", traced_rep.wall_s);
    r.layer("trace.worker_cpu_frac", cpu.on_cpu_ns as f64 / (traced_rep.wall_s * 1e9));
    r.layer("layers.NAK.naks_sent", first.naks);
    r.layer("layers.NAK.retransmissions", first.retrans);
    r.layer("net.frames_per_msg", first.net.frames as f64 / msgs);
    r.layer("net.deliveries_per_msg", first.net.deliveries as f64 / msgs);
    r.layer("net.p2p_frames", a.p2p_frames as f64);
    r.layer("net.dropped", first.net.dropped as f64);
    r.layer("sim.view_changes", o.view_changes as f64);
    r.layer("sim.vlatency_p99_us", p99);
    r.layer("sim.vlatency_samples", o.vlat_us.len() as f64);
    r.layer("sim.steps_per_msg", o.steps as f64 / msgs);
    r.layer("props.build_stack_us", util::median(&builds));
    r.layer("sim.group_form_ms", util::median(&forms));
    r.not_exercised(&[
        "shard.frame_wait_us_p50",
        "live.view_changes",
        "live.latency_p99_us",
        "live.latency_samples",
        "live.flood_delivered",
        "live.flood_view_changes",
        "gen.lag_max_us",
        "sim.fire_ns",
        "sim.snapshot_ns",
        "sim.fingerprint_ns",
        "check.states",
        "check.runs",
        "check.steps",
        "check.pruned",
        "check.layer_clones",
        "check.steps_s",
    ]);
    Ok(())
}
