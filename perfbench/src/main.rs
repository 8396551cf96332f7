//! Release benchmark of the §7 stack (`TOTAL:MBRSHIP:FRAG:NAK:COM`).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload live_small|sim_bulk|check_flush --seed N --seconds S --trace 0|1
//! ```
//!
//! One run is one workload.  `--trace 0` measures the end-to-end metrics with
//! no tracer installed; `--trace 1` repeats the untraced work at a smaller
//! size and adds a traced pass for the per-layer metrics.  Every figure is
//! printed by name with its unit; the last line of standard output is the
//! JSON result.  A failed correctness check is named on that output and
//! makes the exit code non-zero.  `perfbench/README.md` explains the
//! workloads and metrics.

mod checkflush;
mod live;
mod report;
mod simbulk;
mod spans;
mod util;

use horus_core::stack::StackStats;
use horus_net::{LoopbackStatsSnapshot, NetStats};
use report::{json_str, Report};
use spans::{Attribution, Rec, LAYERS};
use std::path::PathBuf;
use std::process::ExitCode;

/// The attribution check's tolerance: per-layer self times plus the
/// executor remainder must match the busy thread's on-CPU plus run-queue
/// time per message within this share.
const ATTRIBUTION_TOLERANCE: f64 = 0.10;

const WORKLOADS: [&str; 3] = ["live_small", "sim_bulk", "check_flush"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected all or one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// A `key=value` counter from a NAK `dump()` line.
pub(crate) fn nak_field(info: &str, key: &str) -> f64 {
    info.split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(f64::NAN)
}

/// Header bytes each layer adds to the compact header: differences of
/// `layout().compact_bytes()` between the §7 stack's bottom-up prefixes.
fn header_bytes(r: &mut Report) -> Result<(), String> {
    let mut below = 0usize;
    let mut sum = 0usize;
    let mut full = 0usize;
    for top in (0..LAYERS.len()).rev() {
        let desc = LAYERS[top..]
            .iter()
            .map(|l| if *l == "COM" { "COM(promiscuous=true)" } else { *l })
            .collect::<Vec<_>>()
            .join(":");
        let s = horus_layers::registry::build_stack(
            horus_core::addr::EndpointAddr::new(1),
            &desc,
            Default::default(),
        )
        .map_err(|e| format!("{desc}: {e}"))?;
        let bytes = s.layout().compact_bytes();
        r.layer(&format!("layers.{}.header_bytes", LAYERS[top]), (bytes - below) as f64);
        sum += bytes - below;
        below = bytes;
        full = bytes;
    }
    r.check(sum == full, || format!("per-layer header bytes sum to {sum}, full stack has {full}"));
    Ok(())
}

/// NAK's `naks_sent` and `retransmissions`, summed over a world's members.
pub(crate) fn nak_counts(world: &horus_sim::SimWorld) -> (f64, f64) {
    let mut out = (0.0, 0.0);
    for e in world.endpoint_addrs() {
        if let Some(info) = world.stack(e).and_then(|s| s.focus("NAK")) {
            out.0 += nak_field(&info, "naks");
            out.1 += nak_field(&info, "retrans");
        }
    }
    out
}

/// Network counters of either transport, taken between two readings or
/// summed over several.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NetCounts {
    /// Frames sent: multicasts and point-to-point sends.
    pub frames: u64,
    /// Point-to-point frames among them (loopback only; the simulator's
    /// come from the spans).
    pub p2p: u64,
    pub deliveries: u64,
    /// Deliveries dropped for any reason.
    pub dropped: u64,
}

impl NetCounts {
    pub fn of_sim(n: &NetStats) -> NetCounts {
        NetCounts {
            frames: n.frames_sent,
            p2p: 0,
            deliveries: n.deliveries,
            dropped: n.dropped_loss
                + n.dropped_partition
                + n.dropped_directed
                + n.dropped_fault_partition
                + n.dropped_cut
                + n.dropped_burst
                + n.dropped_mtu
                + n.dropped_induced,
        }
    }

    pub fn of_loopback(n: &LoopbackStatsSnapshot) -> NetCounts {
        NetCounts {
            frames: n.frames_cast + n.frames_sent,
            p2p: n.frames_sent,
            deliveries: n.deliveries,
            dropped: n.dropped_closed + n.dropped_unregistered,
        }
    }

    pub fn since(self, earlier: NetCounts) -> NetCounts {
        NetCounts {
            frames: self.frames - earlier.frames,
            p2p: self.p2p - earlier.p2p,
            deliveries: self.deliveries - earlier.deliveries,
            dropped: self.dropped - earlier.dropped,
        }
    }

    pub fn add(&mut self, o: NetCounts) {
        self.frames += o.frames;
        self.p2p += o.p2p;
        self.deliveries += o.deliveries;
        self.dropped += o.dropped;
    }
}

/// Every endpoint's `StackStats` in a simulated world, merged.
pub(crate) fn world_stats(w: &horus_sim::SimWorld) -> StackStats {
    let mut s = StackStats::default();
    for e in w.endpoint_addrs() {
        if let Some(st) = w.stack_stats(e) {
            s.merge(st);
        }
    }
    s
}

fn delta(before: &StackStats, after: &StackStats, f: fn(&StackStats) -> u64) -> f64 {
    f(after).saturating_sub(f(before)) as f64
}

/// What a traced pass hands to [`layer_metrics`].
pub(crate) struct Traced<'a> {
    /// The pass's span records, in order.
    pub recs: Vec<Rec>,
    /// Marks the record that starts each message.
    pub is_msg: fn(&Rec) -> bool,
    /// Merged `StackStats` before and after the pass.
    pub before: &'a StackStats,
    pub after: &'a StackStats,
    /// Messages the pass carried, for the `StackStats` ratios.
    pub msgs: f64,
    /// The traced thread's on-CPU plus run-queue nanoseconds in the pass.
    pub busy_ns: f64,
    /// Layer names of the measured stack, top first.
    pub stack_layers: &'a [&'a str],
}

/// The per-layer metrics every traced workload derives the same way: self
/// times from the spans, crossing counts from `StackStats`, and the
/// attribution check.  Returns the attribution for workload-specific
/// figures.
pub(crate) fn layer_metrics(r: &mut Report, t: Traced) -> Attribution {
    let Traced { recs, is_msg, before, after, msgs, busy_ns, stack_layers } = t;
    let a = Attribution::of(&recs, is_msg);
    for (l, name) in LAYERS.iter().enumerate() {
        r.layer(&format!("layers.{name}.self_ns_per_msg"), a.self_ns_per_msg(l));
        r.layer(&format!("layers.{name}.self_ns_growth"), a.growth(l));
        // `per_layer` is indexed by position in the measured stack.
        let pos = stack_layers.iter().position(|n| n == name);
        let items = |s: &StackStats| {
            pos.and_then(|p| s.per_layer.get(p)).map(|t| t.downs + t.ups + t.timers).unwrap_or(0)
                as f64
        };
        r.layer(&format!("layers.{name}.items_per_msg"), (items(after) - items(before)) / msgs);
    }
    r.layer("core.executor_ns_per_msg", a.exec_ns_per_msg());
    r.layer("core.dispatches_per_msg", delta(before, after, |s| s.dispatches) / msgs);
    r.layer("core.skipped_per_msg", delta(before, after, |s| s.skipped) / msgs);
    r.layer("core.header_bytes_per_msg", delta(before, after, |s| s.header_bytes_sent) / msgs);
    let batches = delta(before, after, |s| s.batches);
    let batched = delta(before, after, |s| s.batched_inputs);
    r.layer("core.batch_mean", if batches > 0.0 { batched / batches } else { 0.0 });
    r.layer("core.payload_copies_per_msg", delta(before, after, |s| s.payload_copies) / msgs);
    r.layer("core.dispatch_buf_grows", delta(before, after, |s| s.dispatch_buf_grows));
    r.layer("core.scratch_peak", after.scratch_peak as f64);
    r.layer("core.rejected_frames", delta(before, after, |s| s.fingerprint_drops + s.decode_drops));
    let busy = busy_ns / a.msgs.max(1.0);
    let attributed = a.attributed_ns_per_msg();
    let error = (attributed - busy) / busy;
    r.layer("trace.busy_ns_per_msg", busy);
    r.layer("trace.attributed_ns_per_msg", attributed);
    r.layer("trace.attribution_error", error);
    r.layer("trace.records", recs.len() as f64);
    r.layer("trace.msgs", a.msgs);
    r.spans = recs;
    r.check(error.abs() <= ATTRIBUTION_TOLERANCE, || {
        format!(
            "attribution check: layers plus executor give {attributed:.0} ns/msg, the busy \
             thread {busy:.0} ns/msg (error {error:.3}, tolerance {ATTRIBUTION_TOLERANCE})"
        )
    });
    a
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

/// Where results and spans are written: `perfbench/results` under the
/// directory the benchmark is run from (the repository root).
fn results_dir() -> PathBuf {
    PathBuf::from("perfbench").join("results")
}

/// `--workload all`: runs every workload in turn, each in a child process of
/// its own (so each reports its own peak RSS), and fails if any failed.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = Vec::new();
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        if !status.is_ok_and(|s| s.success()) {
            failed.push(w);
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: workloads failed: {failed:?}");
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let rev = git_rev();
    let mut r = Report::default();
    let run = match args.workload.as_str() {
        "live_small" => live::run(args.seed, args.seconds, args.trace, &mut r),
        "sim_bulk" => simbulk::run(args.seed, args.seconds, args.trace, &mut r),
        _ => checkflush::run(args.seed, args.seconds, args.trace, &mut r),
    };
    if let Err(e) = run {
        r.fail(e);
    }
    if args.trace {
        if let Err(e) = header_bytes(&mut r) {
            r.fail(e);
        }
    }
    r.e2e("peak_rss_mb", util::peak_rss_mb());

    let w = args.workload.as_str();
    println!("{w:<12} provenance profile=release git_rev={rev} nproc={nproc} seed={} seconds={} trace={}", args.seed, args.seconds, args.trace as u8);
    let json = r.render(w, args.trace);
    let named = r
        .named
        .iter()
        .map(|(n, v, u)| {
            format!("{}: [{}, {}]", json_str(n), if v.is_finite() { *v } else { 0.0 }, json_str(u))
        })
        .collect::<Vec<_>>()
        .join(", ");
    let failures = r.failures.iter().map(|f| json_str(f)).collect::<Vec<_>>().join(", ");
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"profile\": \"release\", \
         \"git_rev\": {}, \"nproc\": {nproc}, \"named\": {{{named}}}, \"failures\": [{failures}], \
         \"result\": {}}}\n",
        json_str(w),
        args.seed,
        args.seconds,
        args.trace as u8,
        json_str(&rev),
        json.as_deref().unwrap_or("null")
    );
    let dir = results_dir();
    let tag = format!("{w}-seed{}-trace{}", args.seed, args.trace as u8);
    let written = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(dir.join(format!("{tag}.json")), record))
        .and_then(|_| {
            if r.spans.is_empty() {
                Ok(())
            } else {
                spans::write_records(&dir.join(format!("spans-{w}.tsv")), &r.spans)
            }
        });
    if let Err(e) = written {
        eprintln!("perfbench: could not write results under {}: {e}", dir.display());
    }
    if let Some(json) = json {
        println!("{json}");
    }
    if r.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {} correctness check(s) failed", r.failures.len());
        ExitCode::from(1)
    }
}
