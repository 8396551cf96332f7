//! `live_small`: three members of the §7 stack on one `ShardExecutor` shard
//! over `LoopbackNet`, one sender casting 64-byte payloads.
//!
//! Two kinds of phase, interleaved, each on a freshly formed group:
//!
//! * an **open loop** at a fixed rate, latency timed from each cast's due
//!   time to its delivery at each member, with upcalls recorded so the
//!   delivered order can be checked;
//! * a **closed loop** with a fixed number of casts outstanding, for
//!   throughput, in one long-lived view that carries 30,000 casts.  Both
//!   cap the backlog (casts sent minus the slowest member's deliveries) and
//!   end at a deadline or when delivery stops, so a stalled or split group
//!   shows up as failed casts and view changes instead of a hung run.
//!
//! The traced run adds a flood probe: one view flooded with 60,000 casts,
//! which reports how many reach every member before delivery stops.
//!
//! Deliveries are observed from outside through `cast_count`, polled by the
//! generator thread between casts; the stamp is when the executor published
//! the upcall, which is when an application would see it.

use crate::report::Report;
use crate::spans::{self, SpanSink};
use crate::util::{self, CpuTime, Setups};
use crate::{NetCounts, Traced};
use horus_core::prelude::*;
use horus_core::stack::StackStats;
use horus_layers::registry::build_stack;
use horus_net::LoopbackNet;
use horus_sim::shard::{ShardConfig, ShardExecutor};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const STACK: &str = "TOTAL:MBRSHIP:FRAG:NAK:COM(promiscuous=true)";
const MEMBERS: u64 = 3;
const SENDER: u64 = 1;
const BODY: usize = 64;
/// Open-loop rate.  The stack sustains it in one view for a whole phase; below
/// about 2,000 casts/s the worker parks between casts and the wake-up
/// dominates (and scatters) the latency.
const OPEN_RATE: f64 = 4_000.0;
/// Length of one open-loop phase.
const OPEN_PHASE_S: f64 = 1.0;
/// Casts per closed-loop phase: one long-lived view carrying a fixed
/// amount of traffic, so a faster stack finishes the view sooner instead of
/// piling more history into it.  Over 30,000 casts the history a view keeps
/// dominates the cost of its later casts, short of the 40,000 to 54,000
/// casts after which one view's delivery was seen to stop; the traced
/// run's flood probe records that stall.  The run reports the rate of all
/// its closed-loop views together.
const CLOSED_CASTS: usize = 30_000;
/// Casts outstanding in the closed loop.
const WINDOW: usize = 128;
/// Open-loop backlog cap: casts due while this many are undelivered are
/// skipped and counted as failed.
const BACKLOG_CAP: usize = 2_000;
/// How long after its last cast an open-loop phase waits for stragglers.
const GRACE: Duration = Duration::from_secs(2);
/// Deadline of one closed-loop phase.
const CLOSED_DEADLINE: Duration = Duration::from_secs(30);
/// A closed loop whose slowest member delivers nothing for this long has
/// stalled, and ends.
const STALL: Duration = Duration::from_secs(3);
/// How long the closed-loop generator sleeps while its window is full.
const CLOSED_POLL: Duration = Duration::from_micros(50);
/// At least this many rounds per untraced run (one per traced run).
const MIN_ROUNDS: usize = 2;
/// Casts in the traced run's flood probe: one view, past the point where
/// delivery was seen to stop (see the README's known defects).
const FLOOD_CASTS: usize = 60_000;
const FLOOD_DEADLINE: Duration = Duration::from_secs(60);

fn ep(i: u64) -> EndpointAddr {
    EndpointAddr::new(i)
}

fn members() -> impl Iterator<Item = EndpointAddr> {
    (1..=MEMBERS).map(ep)
}

/// A formed three-member group and the counters at formation.
struct Group {
    ex: ShardExecutor,
    net: LoopbackNet,
    base_casts: Vec<usize>,
    base_other: Vec<usize>,
}

impl Group {
    fn delivered(&self, m: usize) -> usize {
        self.ex.cast_count(ep(m as u64 + 1)).saturating_sub(self.base_casts[m])
    }

    fn min_delivered(&self) -> usize {
        (0..MEMBERS as usize).map(|m| self.delivered(m)).min().unwrap_or(0)
    }

    /// Non-cast upcalls since formation: view changes and the flush traffic
    /// around them.  Zero while the group stays in its first view.
    fn other_upcalls(&self) -> usize {
        (0..MEMBERS as usize)
            .map(|m| {
                let e = ep(m as u64 + 1);
                (self.ex.upcall_count(e) - self.ex.cast_count(e)).saturating_sub(self.base_other[m])
            })
            .sum()
    }

    fn stats(&self) -> StackStats {
        let mut total = StackStats::default();
        for s in self.ex.stats_by_endpoint().values() {
            total.merge(s);
        }
        total
    }

    fn cast(&self, seed: u64, seq: u64) {
        self.ex.cast_bytes(ep(SENDER), util::payload(seed, SENDER, seq, BODY));
    }
}

struct Formed {
    group: Group,
    setup_s: f64,
    form_ms: f64,
    build_us: Vec<f64>,
}

/// Builds the stacks, forms the group by merging toward member 1, and
/// waits until a probe cast reaches every member and the counters settle.
fn form(record: bool, tracer: Option<Arc<SpanSink>>) -> Result<Formed, String> {
    let t0 = Instant::now();
    let net = LoopbackNet::new();
    let cfg = ShardConfig::with_shards(1).record_upcalls(record);
    let mut ex = ShardExecutor::new(net.clone(), cfg);
    let g = GroupAddr::new(1);
    let mut build_us = Vec::new();
    for e in members() {
        let tb = Instant::now();
        let mut s = build_stack(e, STACK, StackConfig::default()).map_err(|e| e.to_string())?;
        build_us.push(tb.elapsed().as_secs_f64() * 1e6);
        if let Some(t) = &tracer {
            s.set_tracer(t.clone());
        }
        ex.add_stack(s);
        ex.down(e, Down::Join { group: g });
    }
    let tf = Instant::now();
    for e in members().skip(1) {
        ex.down(e, Down::Merge { contact: ep(1) });
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut probe = u64::MAX;
    loop {
        if Instant::now() > deadline {
            return Err("live group did not form within 10 s".into());
        }
        ex.cast_bytes(ep(SENDER), util::payload(0, SENDER, probe, BODY));
        probe -= 1;
        if ex.wait_until(Duration::from_millis(5), |ex| members().all(|e| ex.cast_count(e) >= 1)) {
            break;
        }
    }
    let form_ms = tf.elapsed().as_secs_f64() * 1e3;
    let setup_s = t0.elapsed().as_secs_f64();
    // Let in-flight probes land: counters must hold still for 20 ms.
    let snap = |ex: &ShardExecutor| -> Vec<(usize, usize)> {
        members().map(|e| (ex.cast_count(e), ex.upcall_count(e))).collect()
    };
    let mut last = snap(&ex);
    let mut still_since = Instant::now();
    while still_since.elapsed() < Duration::from_millis(20) {
        std::thread::sleep(Duration::from_millis(1));
        let now = snap(&ex);
        if now != last {
            last = now;
            still_since = Instant::now();
        }
    }
    if record {
        for e in members() {
            let views = ex.take_upcalls(e).into_iter().filter_map(|u| match u {
                Up::View(v) => Some(v),
                _ => None,
            });
            let size = views.last().map(|v| v.len()).unwrap_or(0);
            if size != MEMBERS as usize {
                return Err(format!("{e} formed a view of {size} members, expected {MEMBERS}"));
            }
        }
    }
    let group = Group {
        base_casts: last.iter().map(|&(c, _)| c).collect(),
        base_other: last.iter().map(|&(c, u)| u - c).collect(),
        ex,
        net,
    };
    Ok(Formed { group, setup_s, form_ms, build_us })
}

struct OpenLoop {
    /// Latency samples, one per (cast, member), in microseconds.
    samples: Vec<f64>,
    attempted: usize,
    sent: usize,
    /// Casts not delivered to every member by the deadline (skipped ones
    /// included).
    failed: usize,
    lag_max_us: f64,
}

/// Casts at `rate` for `secs`, spinning to each due time, and stamps each
/// member's deliveries as its counter moves.
fn open_loop(g: &Group, seed: u64, rate: f64, secs: f64) -> OpenLoop {
    let period_ns = 1e9 / rate;
    let due_total = (rate * secs).round() as usize;
    let mut due_ns: Vec<f64> = Vec::with_capacity(due_total);
    let mut stamps: Vec<Vec<f64>> = vec![Vec::with_capacity(due_total); MEMBERS as usize];
    let mut next_due = 0usize;
    let mut lag_max_ns = 0.0f64;
    let start = Instant::now();
    let mut end: Option<Instant> = None;
    loop {
        let now_ns = start.elapsed().as_nanos() as f64;
        let sent = due_ns.len();
        for (m, st) in stamps.iter_mut().enumerate() {
            let c = g.delivered(m).min(sent);
            while st.len() < c {
                st.push(now_ns);
            }
        }
        if next_due < due_total {
            let due = next_due as f64 * period_ns;
            if now_ns >= due {
                let slowest = stamps.iter().map(|s| s.len()).min().unwrap_or(0);
                if sent - slowest < BACKLOG_CAP {
                    g.cast(seed, sent as u64);
                    due_ns.push(due);
                    lag_max_ns = lag_max_ns.max(start.elapsed().as_nanos() as f64 - due);
                }
                next_due += 1;
                if next_due == due_total {
                    end = Some(Instant::now() + GRACE);
                }
            }
        } else if stamps.iter().all(|s| s.len() == sent) || end.is_some_and(|e| Instant::now() > e)
        {
            break;
        }
        std::hint::spin_loop();
    }
    let sent = due_ns.len();
    let mut samples = Vec::with_capacity(sent * MEMBERS as usize);
    for st in &stamps {
        samples.extend(st.iter().zip(&due_ns).map(|(t, d)| (t - d) / 1e3));
    }
    let slowest = stamps.iter().map(|s| s.len()).min().unwrap_or(0);
    OpenLoop {
        samples,
        attempted: due_total,
        sent,
        failed: due_total - slowest,
        lag_max_us: lag_max_ns / 1e3,
    }
}

struct ClosedLoop {
    /// Casts delivered to every member by the end.
    delivered: usize,
    /// Seconds until the loop ended.
    elapsed_s: f64,
}

/// Keeps `WINDOW` casts outstanding until `n` are delivered everywhere, the
/// deadline passes, or delivery stalls for [`STALL`].
fn closed_loop(g: &Group, seed: u64, n: usize, deadline: Duration) -> ClosedLoop {
    let start = Instant::now();
    let mut sent = 0usize;
    let (mut last_min, mut last_progress) = (0usize, start);
    loop {
        let min = g.min_delivered();
        if min > last_min {
            (last_min, last_progress) = (min, Instant::now());
        }
        if min >= n || start.elapsed() > deadline || last_progress.elapsed() > STALL {
            return ClosedLoop { delivered: min.min(n), elapsed_s: start.elapsed().as_secs_f64() };
        }
        if sent < n && sent - min < WINDOW {
            g.cast(seed, sent as u64);
            sent += 1;
        } else {
            // A full window holds milliseconds of work: sleep rather than
            // spin, so the generator leaves the worker's core (or its
            // hyperthread sibling) alone.
            std::thread::sleep(CLOSED_POLL);
        }
    }
}

/// Checks the recorded upcalls of a phase: every member delivered casts
/// `0..sent` from the sender, in that order, with the bodies that were cast.
fn check_order(g: &Group, seed: u64, sent: usize, phase: &str, r: &mut Report) {
    for e in members() {
        let mut next = 0u64;
        for up in g.ex.take_upcalls(e) {
            if let Up::Cast { src, msg } = up {
                let body = msg.body();
                let expect = util::payload(seed, SENDER, next, BODY);
                if src != ep(SENDER) || body.as_ref() != expect.as_slice() {
                    r.fail(format!(
                        "{phase}: {e} delivered {:?} from {src} where cast {next} from {} was due",
                        util::payload_id(body),
                        ep(SENDER)
                    ));
                    return;
                }
                next += 1;
            }
        }
        r.check(next as usize == sent, || {
            format!("{phase}: {e} delivered {next} of {sent} casts in order")
        });
    }
}

/// Times a sample of back-to-back group formations (upcalls not
/// recorded), keeping the formation and stack-build times too.
fn sample_setups(
    setups: &mut Setups,
    forms: &mut Vec<f64>,
    builds: &mut Vec<f64>,
) -> Result<(), String> {
    setups.sample(|| {
        let mut f = form(false, None)?;
        f.group.ex.stop();
        forms.push(f.form_ms);
        builds.extend_from_slice(&f.build_us);
        Ok(f.setup_s)
    })
}

pub fn run(seed: u64, seconds: f64, traced: bool, r: &mut Report) -> Result<(), String> {
    // Rounds of one open-loop phase (latency from due time, recorded upcalls
    // checked) and one closed-loop phase (throughput over one long-lived
    // view), each on a fresh group, with set-ups sampled before each phase.
    // Interleaving spreads every metric's samples over the whole run, so a
    // slow stretch of the host does not land on one metric only.
    let (mut setups, mut forms, mut builds) = (Setups::default(), Vec::new(), Vec::new());
    // A round starts only if one as long as the mean so far still ends
    // within the run's share of `seconds`.
    let (share, min_rounds) = if traced { (seconds / 2.0, 1) } else { (seconds, MIN_ROUNDS) };
    let start = Instant::now();
    let (mut samples, mut rates) = (Vec::new(), Vec::new());
    let (mut lag_max_us, mut view_changes, mut rounds) = (0.0f64, 0, 0);
    let (mut stalled, mut closed_casts, mut closed_s) = (false, 0usize, 0.0f64);
    let round_s = |rounds: usize| start.elapsed().as_secs_f64() / rounds.max(1) as f64;
    while !stalled
        && (rounds < min_rounds || start.elapsed().as_secs_f64() + round_s(rounds) <= share)
    {
        rounds += 1;
        sample_setups(&mut setups, &mut forms, &mut builds)?;
        let mut f = form(true, None)?;
        let open = open_loop(&f.group, seed, OPEN_RATE, OPEN_PHASE_S);
        check_order(&f.group, seed, open.sent, "open loop", r);
        view_changes += f.group.other_upcalls();
        f.group.ex.stop();
        samples.extend_from_slice(&open.samples);
        lag_max_us = lag_max_us.max(open.lag_max_us);
        r.attempted += open.attempted as u64;
        r.failed += open.failed as u64;

        sample_setups(&mut setups, &mut forms, &mut builds)?;
        let mut f = form(false, None)?;
        let closed = closed_loop(&f.group, seed, CLOSED_CASTS, CLOSED_DEADLINE);
        view_changes += f.group.other_upcalls();
        f.group.ex.stop();
        r.attempted += CLOSED_CASTS as u64;
        r.failed += (CLOSED_CASTS - closed.delivered) as u64;
        rates.push(closed.delivered as f64 / closed.elapsed_s);
        closed_casts += closed.delivered;
        closed_s += closed.elapsed_s;
        stalled = closed.delivered < CLOSED_CASTS;
    }
    let lat = util::sorted(samples);
    let p50 = util::quantile_sorted(&lat, 0.5);
    let p99 = util::quantile_sorted(&lat, 0.99);

    r.e2e("setup_s", setups.median());
    // All closed-loop views together: casts delivered over the time taken.
    r.e2e_as("ops_per_s", "live_msgs_s", closed_casts as f64 / closed_s);
    r.e2e("latency_p50_us", p50);
    r.named("live_msgs_s_spread", util::spread(&rates), "frac");
    r.named("closed_phases", rates.len() as f64, "count");
    r.named("closed_casts_per_phase", CLOSED_CASTS as f64, "count");
    r.named("closed_window", WINDOW as f64, "count");
    r.named("latency_p99_us", p99, "us");
    r.named("latency_samples", lat.len() as f64, "count");
    r.named("open_rate", OPEN_RATE, "1/s");
    r.named("open_phases", rounds as f64, "count");
    r.named("failed_frac", r.failed as f64 / r.attempted.max(1) as f64, "frac");
    r.named("setup_samples", setups.0.len() as f64, "count");
    r.named("setup_spread", setups.spread(), "frac");
    r.named("gen.lag_max_us", lag_max_us, "us");
    r.named("live.view_changes", view_changes as f64, "count");
    if !traced {
        return Ok(());
    }

    r.layer("live.latency_p99_us", p99);
    r.layer("live.latency_samples", lat.len() as f64);
    r.layer("gen.lag_max_us", lag_max_us);
    r.layer("props.build_stack_us", util::median(&builds));
    r.layer("sim.group_form_ms", util::median(&forms));
    r.layer("live.view_changes", view_changes as f64);

    // One untraced and one traced closed-loop view, both with upcall
    // recording on, so the difference is the tracer's cost.
    let mut f = form(true, None)?;
    let base = closed_loop(&f.group, seed, CLOSED_CASTS, CLOSED_DEADLINE);
    check_order(&f.group, seed, base.delivered, "baseline closed loop", r);
    f.group.ex.stop();

    let sink = Arc::new(SpanSink::new(CLOSED_CASTS * 64));
    let mut f = form(true, Some(sink.clone()))?;
    let worker = util::tid_named("horus-shard-0").ok_or("shard worker thread not found")?;
    let before = f.group.stats();
    let net0 = NetCounts::of_loopback(&f.group.net.stats());
    let cpu0 = CpuTime::of(worker).ok_or("no schedstat for the shard worker")?;
    let t0 = Instant::now();
    sink.set_on(true);
    let traced_loop = closed_loop(&f.group, seed, CLOSED_CASTS, CLOSED_DEADLINE);
    sink.set_on(false);
    let window_s = t0.elapsed().as_secs_f64();
    let cpu = CpuTime::of(worker).ok_or("no schedstat for the shard worker")?.since(cpu0);
    let after = f.group.stats();
    let net = NetCounts::of_loopback(&f.group.net.stats()).since(net0);
    r.named("traced_view_changes", f.group.other_upcalls() as f64, "count");
    check_order(&f.group, seed, traced_loop.delivered, "traced closed loop", r);
    r.check(traced_loop.delivered == CLOSED_CASTS, || {
        format!("traced closed loop delivered {} of {CLOSED_CASTS} casts", traced_loop.delivered)
    });
    for e in members() {
        f.group.ex.down(e, Down::Dump);
    }
    f.group.ex.wait_until(Duration::from_secs(5), |ex| {
        members().all(|e| ex.upcall_count(e) > ex.cast_count(e))
    });
    let (mut naks, mut retrans) = (0.0, 0.0);
    for e in members() {
        for up in f.group.ex.take_upcalls(e) {
            if let Up::DumpInfo { layer: "NAK", info } = up {
                naks += crate::nak_field(&info, "naks");
                retrans += crate::nak_field(&info, "retrans");
            }
        }
    }
    f.group.ex.stop();

    let recs = sink.take();
    let eps: Vec<u16> = (1..=MEMBERS as u16).collect();
    r.layer("shard.frame_wait_us_p50", spans::frame_wait_p50_us(&recs, &eps));
    let msgs = CLOSED_CASTS as f64;
    crate::layer_metrics(
        r,
        Traced {
            recs,
            // A message starts where the sender's TOTAL takes the cast.
            is_msg: |rec| rec.tag == 0 && rec.dir == 1 && rec.ep == SENDER as u16,
            before: &before,
            after: &after,
            msgs,
            busy_ns: (cpu.on_cpu_ns + cpu.runqueue_ns) as f64,
            stack_layers: &spans::LAYERS,
        },
    );
    r.layer("trace.overhead_frac", traced_loop.elapsed_s / base.elapsed_s - 1.0);
    r.named("traced_phase_s", traced_loop.elapsed_s, "s");
    r.named("untraced_phase_s", base.elapsed_s, "s");
    r.layer("trace.window_s", window_s);
    r.layer("trace.worker_cpu_frac", cpu.on_cpu_ns as f64 / (window_s * 1e9));
    r.layer("layers.NAK.naks_sent", naks);
    r.layer("layers.NAK.retransmissions", retrans);
    r.layer("net.frames_per_msg", net.frames as f64 / msgs);
    r.layer("net.deliveries_per_msg", net.deliveries as f64 / msgs);
    r.layer("net.p2p_frames", net.p2p as f64);
    r.layer("net.dropped", net.dropped as f64);

    // The flood probe: how far one view carries a closed-loop flood before
    // delivery stops.  It records a known defect, so its undelivered casts
    // are reported here and not counted as the workload's failures.
    let mut f = form(false, None)?;
    let flood = closed_loop(&f.group, seed, FLOOD_CASTS, FLOOD_DEADLINE);
    r.layer("live.flood_delivered", flood.delivered as f64);
    r.layer("live.flood_view_changes", f.group.other_upcalls() as f64);
    r.named("flood_s", flood.elapsed_s, "s");
    f.group.ex.stop();

    r.not_exercised(&[
        "sim.view_changes",
        "sim.vlatency_p99_us",
        "sim.vlatency_samples",
        "sim.steps_per_msg",
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
