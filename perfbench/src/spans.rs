//! The traced run's span recorder and its per-layer attribution.
//!
//! [`SpanSink`] is installed through the public `Stack::set_tracer` (or
//! `SimWorld::set_tracer`).  `TraceEvent.at` is the stack's `now`, which is
//! fixed for a whole dispatch, so the sink stamps every record with its own
//! monotonic clock instead.  Records stay in memory until the run ends.
//!
//! Attribution: a record opens a span that the next record closes.  The
//! span after a `LayerDown`/`LayerUp`/`LayerTimer` record is that layer's
//! self time (its handler plus the routing of what it emitted).  Every other
//! span — after a frame send or arrival, a delivery, a timer fire, or any
//! other record — is charged to the executor: queues, wake-ups, frame
//! decode, upcall recording and, in the simulator, the calendar.

use horus_core::trace::{TraceEvent, TraceKind, TraceSink};
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The §7 stack, top first; the layer tags of a [`Rec`].
pub const LAYERS: [&str; 5] = ["TOTAL", "MBRSHIP", "FRAG", "NAK", "COM"];

/// Record tags that are not layers.
pub const EXEC: u8 = 5;
pub const FRAME_SEND: u8 = 6;
pub const FRAME_DELIVER: u8 = 7;
pub const DELIVER_CAST: u8 = 8;
pub const APP_CAST: u8 = 9;
pub const TIMER_FIRE: u8 = 10;
/// Written when recording resumes: no span crosses it.
pub const BREAK: u8 = 11;
/// Any other event the simulator fired from its calendar: a non-cast
/// downcall, crash, suspicion, partition, heal or fault rule.
pub const FIRED: u8 = 12;

#[derive(Debug, Clone, Copy)]
pub struct Rec {
    /// Nanoseconds since the sink's epoch.
    pub t_ns: u64,
    /// Raw endpoint address (truncated; the benchmark's groups are small).
    pub ep: u16,
    /// Transport sender of a `FrameDeliver`, 0 otherwise.
    pub peer: u16,
    /// A layer index into [`LAYERS`] or one of the non-layer tags.
    pub tag: u8,
    /// `LayerDown` (1), `LayerUp` (2), `LayerTimer` (3), or 0.
    pub dir: u8,
    /// Wire bytes for frame records, 0 otherwise.
    pub bytes: u32,
    /// Point-to-point frame (send or arrival).
    pub p2p: bool,
}

#[derive(Debug)]
pub struct SpanSink {
    epoch: Instant,
    on: AtomicBool,
    recs: Mutex<Vec<Rec>>,
}

impl SpanSink {
    pub fn new(capacity: usize) -> Self {
        SpanSink {
            epoch: Instant::now(),
            on: AtomicBool::new(false),
            recs: Mutex::new(Vec::with_capacity(capacity)),
        }
    }

    /// Starts or stops keeping records.  Stacks keep calling the sink while
    /// it is off; only the traced windows are kept, separated by a
    /// [`BREAK`] record.
    pub fn set_on(&self, on: bool) {
        if on {
            let mut recs = self.recs.lock().expect("span sink poisoned");
            if !recs.is_empty() {
                let t_ns = self.epoch.elapsed().as_nanos() as u64;
                recs.push(Rec { t_ns, ep: 0, peer: 0, tag: BREAK, dir: 0, bytes: 0, p2p: false });
            }
        }
        self.on.store(on, Ordering::SeqCst);
    }

    pub fn take(&self) -> Vec<Rec> {
        std::mem::take(&mut *self.recs.lock().expect("span sink poisoned"))
    }
}

fn layer_tag(name: &str) -> u8 {
    LAYERS.iter().position(|&l| l == name).map(|i| i as u8).unwrap_or(EXEC)
}

impl TraceSink for SpanSink {
    fn record(&self, ev: TraceEvent) {
        if !self.on.load(Ordering::Relaxed) {
            return;
        }
        let t_ns = self.epoch.elapsed().as_nanos() as u64;
        let (tag, dir, bytes, p2p, peer) = match &ev.kind {
            TraceKind::LayerDown { layer } => (layer_tag(layer), 1, 0, false, 0),
            TraceKind::LayerUp { layer } => (layer_tag(layer), 2, 0, false, 0),
            TraceKind::LayerTimer { layer, .. } => (layer_tag(layer), 3, 0, false, 0),
            TraceKind::FrameSend { cast, bytes } => (FRAME_SEND, 0, *bytes as u32, !cast, 0),
            TraceKind::FrameDeliver { from, cast, bytes, .. } => {
                (FRAME_DELIVER, 0, *bytes as u32, !cast, from.raw() as u16)
            }
            TraceKind::Deliver { kind: "CAST", .. } => (DELIVER_CAST, 0, 0, false, 0),
            TraceKind::AppDown { kind: "cast", .. } => (APP_CAST, 0, 0, false, 0),
            TraceKind::TimerFire { .. } => (TIMER_FIRE, 0, 0, false, 0),
            TraceKind::AppDown { .. }
            | TraceKind::Crash { .. }
            | TraceKind::Suspect { .. }
            | TraceKind::Partition { .. }
            | TraceKind::Heal { .. }
            | TraceKind::Fault { .. } => (FIRED, 0, 0, false, 0),
            _ => (EXEC, 0, 0, false, 0),
        };
        let rec = Rec { t_ns, ep: ev.ep.raw() as u16, peer, tag, dir, bytes, p2p };
        self.recs.lock().expect("span sink poisoned").push(rec);
    }
}

/// Per-layer self time over a traced window.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Self nanoseconds per layer, in [`LAYERS`] order.
    pub layer_ns: [f64; 5],
    /// Nanoseconds charged to the executor.
    pub exec_ns: f64,
    /// Layer self nanoseconds in the first and the last quarter of the
    /// window's messages, and the message counts of those quarters.
    pub first_q_ns: [f64; 5],
    pub last_q_ns: [f64; 5],
    pub first_q_msgs: f64,
    pub last_q_msgs: f64,
    /// Messages in the window (marker records seen).
    pub msgs: f64,
    /// Point-to-point frames sent.
    pub p2p_frames: u64,
}

impl Attribution {
    /// Charges every span of `recs`: one thread's records, in order, in one
    /// or more traced windows separated by [`BREAK`].  `is_msg` marks the
    /// record that starts each message; each window's quarters are cut at
    /// its message markers, and the windows' sums are added.
    pub fn of(recs: &[Rec], is_msg: impl Fn(&Rec) -> bool) -> Attribution {
        let mut total = Attribution::default();
        for window in recs.split(|r| r.tag == BREAK) {
            total.add(&Attribution::of_window(window, &is_msg));
        }
        total
    }

    fn of_window(recs: &[Rec], is_msg: &impl Fn(&Rec) -> bool) -> Attribution {
        let marks: Vec<usize> =
            recs.iter().enumerate().filter(|(_, r)| is_msg(r)).map(|(i, _)| i).collect();
        let n = marks.len();
        let mut a = Attribution { msgs: n as f64, ..Default::default() };
        let (q1, q4) = if n >= 4 {
            a.first_q_msgs = (n / 4) as f64;
            a.last_q_msgs = (n / 4) as f64;
            (marks[0]..marks[n / 4], marks[n - n / 4]..recs.len())
        } else {
            (0..0, 0..0)
        };
        for (i, w) in recs.windows(2).enumerate() {
            let (r, next) = (w[0], w[1]);
            if r.tag == FRAME_SEND && r.p2p {
                a.p2p_frames += 1;
            }
            let gap = next.t_ns.saturating_sub(r.t_ns) as f64;
            if (r.tag as usize) < LAYERS.len() {
                let l = r.tag as usize;
                a.layer_ns[l] += gap;
                if q1.contains(&i) {
                    a.first_q_ns[l] += gap;
                } else if q4.contains(&i) {
                    a.last_q_ns[l] += gap;
                }
            } else {
                a.exec_ns += gap;
            }
        }
        a
    }

    fn add(&mut self, o: &Attribution) {
        for l in 0..LAYERS.len() {
            self.layer_ns[l] += o.layer_ns[l];
            self.first_q_ns[l] += o.first_q_ns[l];
            self.last_q_ns[l] += o.last_q_ns[l];
        }
        self.exec_ns += o.exec_ns;
        self.first_q_msgs += o.first_q_msgs;
        self.last_q_msgs += o.last_q_msgs;
        self.msgs += o.msgs;
        self.p2p_frames += o.p2p_frames;
    }

    pub fn self_ns_per_msg(&self, l: usize) -> f64 {
        self.layer_ns[l] / self.msgs.max(1.0)
    }

    /// Self time per message in the last quarter over the first quarter.
    pub fn growth(&self, l: usize) -> f64 {
        let first = self.first_q_ns[l] / self.first_q_msgs.max(1.0);
        let last = self.last_q_ns[l] / self.last_q_msgs.max(1.0);
        if first > 0.0 {
            last / first
        } else {
            0.0
        }
    }

    pub fn exec_ns_per_msg(&self) -> f64 {
        self.exec_ns / self.msgs.max(1.0)
    }

    pub fn attributed_ns_per_msg(&self) -> f64 {
        (self.layer_ns.iter().sum::<f64>() + self.exec_ns) / self.msgs.max(1.0)
    }
}

/// Median gap from each multicast `FrameSend` to the `FrameDeliver` records
/// of the same frame at every member, matched first-in first-out per
/// (sender, receiver, wire length).  Only meaningful on a lossless transport
/// that keeps per-sender order, which the loopback net does.
pub fn frame_wait_p50_us(recs: &[Rec], members: &[u16]) -> f64 {
    use std::collections::{BTreeMap, VecDeque};
    let mut inflight: BTreeMap<(u16, u16, u32), VecDeque<u64>> = BTreeMap::new();
    let mut waits = Vec::new();
    for r in recs.iter().filter(|r| !r.p2p) {
        match r.tag {
            // Frames still in flight when a window closed are not matched.
            BREAK => inflight.clear(),
            FRAME_SEND => {
                for &m in members {
                    inflight.entry((r.ep, m, r.bytes)).or_default().push_back(r.t_ns);
                }
            }
            FRAME_DELIVER => {
                if let Some(sent) =
                    inflight.get_mut(&(r.peer, r.ep, r.bytes)).and_then(|q| q.pop_front())
                {
                    waits.push(r.t_ns.saturating_sub(sent) as f64 / 1000.0);
                }
            }
            _ => {}
        }
    }
    crate::util::median(&waits)
}

/// Writes the records as tab-separated `t_ns ep peer tag dir bytes` lines.
pub fn write_records(path: &std::path::Path, recs: &[Rec]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "# t_ns\tep\tpeer\ttag\tdir\tbytes  (tags 0-4: {LAYERS:?}; 5 exec, 6 frame-send, 7 frame-deliver, 8 deliver-cast, 9 app-cast, 10 timer-fire, 11 window break)")?;
    for r in recs {
        writeln!(out, "{}\t{}\t{}\t{}\t{}\t{}", r.t_ns, r.ep, r.peer, r.tag, r.dir, r.bytes)?;
    }
    out.flush()
}
