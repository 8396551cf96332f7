//! The tracing hook: a cheap, structured record of everything a stack does.
//!
//! [`TraceSink`] is the single seam through which the whole runtime —
//! [`Stack`](crate::stack::Stack) dispatch in this crate, the simulated and
//! loopback transports in `horus-net`, and all three executors in
//! `horus-sim` — reports structured events: layer crossings, frame
//! send/deliver/drop, timer arm/fire, view installs, crashes, suspicions.
//! Sink implementations live in `horus-trace` (a lock-free ring for the
//! real-time executors, an ordered vector-clock-stamped log for the
//! virtual-time world); this module defines only the trait and the event
//! vocabulary so every crate below `horus-trace` can *emit* without
//! depending on any collector.
//!
//! The cost contract: with no sink installed the hooks compile to one
//! `Option` branch per event site — no allocation, no formatting, no
//! atomic.  Event payloads are built from values already at hand
//! (`&'static str` layer names, copy-size integers); anything that would
//! cost an allocation (view strings, payload digests) is computed *inside*
//! the `Some` arm only.

use crate::addr::EndpointAddr;
use crate::time::SimTime;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One `(actor, count)` component of a vector clock, as threaded through
/// the deterministic simulator's per-event causality tracking.
pub type ClockEntry = (u64, u64);

/// A consumer of trace events.
///
/// `record` must be cheap and non-blocking from the caller's point of view
/// (the hot paths call it with locks held); sinks that need ordering or
/// aggregation buffer internally.  `Debug` is a supertrait so structures
/// that carry a sink (`SimNetwork`, `Stack`) keep their derived `Debug`.
pub trait TraceSink: Send + Sync + fmt::Debug {
    /// Records one event.
    fn record(&self, ev: TraceEvent);

    /// Announces the vector clock of the causal context the *next* records
    /// belong to.  Only the virtual-time simulator calls this (it is where
    /// the per-event clocks live); sinks that don't stamp clocks — the
    /// real-time rings — keep the default no-op.
    fn set_clock(&self, _clock: &[ClockEntry]) {}

    /// Whether this sink will ever keep a record.  [`Stack::set_tracer`]
    /// caches the answer and a `false` routes dispatch down the untraced
    /// path — no event construction, no digesting, no virtual call — so a
    /// [`NullSink`] costs the same as no sink at all.
    ///
    /// [`Stack::set_tracer`]: crate::stack::Stack::set_tracer
    fn interested(&self) -> bool {
        true
    }

    /// Cheap per-event pre-flight: producers with an *expensive* event to
    /// build (state digests, rendered views) call this first and skip
    /// construction — and the `record` call — on `false`.
    ///
    /// The protocol is optional per event: a producer may call `record`
    /// directly (cheap events do), and a sink must stay correct under any
    /// mix of the two.  [`SamplingSink`] implements this by advancing its
    /// record counter either here (when it answers `false`) or in `record`
    /// (for kept or un-pre-flighted events), so each event is counted
    /// exactly once; pass-through wrappers forward to their inner sink.
    fn admit(&self) -> bool {
        true
    }
}

/// A structured trace event: where, when, what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event time: virtual time under the simulator, executor-epoch elapsed
    /// time under the threaded/sharded executors.
    pub at: SimTime,
    /// The endpoint the event concerns (`ep:0` for world-global events —
    /// partitions, heals, fault rules).
    pub ep: EndpointAddr,
    /// What happened.
    pub kind: TraceKind,
}

/// Why a frame was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Decode failure (malformed header, truncation).
    Decode,
    /// Stack-layout fingerprint mismatch.
    Fingerprint,
    /// Induced by a controlled scheduler (`SimWorld::drop_pending`).
    Induced,
    /// Network physics: the loss dice.
    Loss,
    /// Network physics: a partition (region or fault-rule cut).
    Partition,
    /// Network physics: frame over the configured MTU.
    Mtu,
    /// Transport: the receiver was never registered, or its channel closed.
    Unroutable,
}

impl DropReason {
    /// Stable lower-case name used by the trace file format.
    pub fn name(self) -> &'static str {
        match self {
            DropReason::Decode => "decode",
            DropReason::Fingerprint => "fingerprint",
            DropReason::Induced => "induced",
            DropReason::Loss => "loss",
            DropReason::Partition => "partition",
            DropReason::Mtu => "mtu",
            DropReason::Unroutable => "unroutable",
        }
    }
}

/// The event vocabulary.
///
/// Calendar-fire kinds (`FrameDeliver`, `TimerFire`, `AppDown`, `Crash`,
/// `Suspect`, `Partition`, `Heal`, `Fault`) carry the pending event's
/// run-independent payload `digest` and its calendar sequence number `seq`
/// when recorded by the virtual-time simulator — the identity the
/// trace→schedule bridge matches ready-set options against.  The real-time
/// executors record the same kinds with `digest`/`seq` zero (they have no
/// calendar).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceKind {
    /// A layer handled a downward item.
    LayerDown {
        /// The layer's registry name.
        layer: &'static str,
    },
    /// A layer handled an upward item.
    LayerUp {
        /// The layer's registry name.
        layer: &'static str,
    },
    /// A layer handled its own timer.
    LayerTimer {
        /// The layer's registry name.
        layer: &'static str,
        /// The layer-chosen timer token.
        token: u64,
    },
    /// A frame left the bottom of a stack toward the network.
    FrameSend {
        /// Multicast (`true`) or point-to-point.
        cast: bool,
        /// Encoded wire length.
        bytes: usize,
    },
    /// A frame arrived at a stack from the network.
    FrameDeliver {
        /// Transport-level sender.
        from: EndpointAddr,
        /// Multicast (`true`) or point-to-point.
        cast: bool,
        /// Encoded wire length.
        bytes: usize,
        /// Pending-event payload digest (simulator only; 0 otherwise).
        digest: u64,
        /// Calendar sequence number (simulator only; 0 otherwise).
        seq: u64,
    },
    /// A frame was dropped (physics, decode, or induced).
    FrameDrop {
        /// Pending-event payload digest when known (0 otherwise).
        digest: u64,
        /// Calendar sequence number when known (0 otherwise).
        seq: u64,
        /// Why.
        reason: DropReason,
    },
    /// A layer armed a timer.
    TimerArm {
        /// Index of the arming layer within its stack.
        layer: usize,
        /// The layer-chosen timer token.
        token: u64,
        /// Delay until it fires, in microseconds.
        delay_us: u64,
    },
    /// A timer fired into a stack.
    TimerFire {
        /// Index of the owning layer within its stack.
        layer: usize,
        /// The layer-chosen timer token.
        token: u64,
        /// Pending-event payload digest (simulator only; 0 otherwise).
        digest: u64,
        /// Calendar sequence number (simulator only; 0 otherwise).
        seq: u64,
    },
    /// A scripted application downcall fired into a stack.
    AppDown {
        /// The downcall's kind name (`Down::kind`).
        kind: &'static str,
        /// Pending-event payload digest (simulator only; 0 otherwise).
        digest: u64,
        /// Calendar sequence number (simulator only; 0 otherwise).
        seq: u64,
    },
    /// A stack delivered an upcall to the application.
    Deliver {
        /// The upcall's kind name (`Up::kind`).
        kind: &'static str,
        /// Sender for `CAST`/`SEND` upcalls (0 otherwise).
        src: u64,
        /// Content digest for `CAST`/`SEND` upcalls (0 otherwise) — the
        /// executor-independent delivery identity the cross-executor
        /// determinism projection compares.
        digest: u64,
    },
    /// A stack installed a view.
    ViewInstall {
        /// The view, rendered (`group[vN@coord m1 m2 ...]`).
        view: String,
    },
    /// A scripted crash fired from the calendar.
    Crash {
        /// Pending-event payload digest (0 outside the simulator).
        digest: u64,
        /// Calendar sequence number (0 outside the simulator).
        seq: u64,
    },
    /// A scripted suspicion fired from the calendar.
    Suspect {
        /// The endpoint being suspected.
        target: EndpointAddr,
        /// Pending-event payload digest (0 outside the simulator).
        digest: u64,
        /// Calendar sequence number (0 outside the simulator).
        seq: u64,
    },
    /// A scheduler-injected crash (`Step::Crash`), outside the calendar.
    InjectCrash,
    /// A scheduler-injected suspicion (`Step::Suspect`).
    InjectSuspect {
        /// The endpoint being told.
        observer: EndpointAddr,
        /// The endpoint it will suspect.
        target: EndpointAddr,
    },
    /// A scripted partition fired (world-global; `ep` is `ep:0`).
    Partition {
        /// Pending-event payload digest.
        digest: u64,
        /// Calendar sequence number.
        seq: u64,
    },
    /// A scripted heal fired (world-global).
    Heal {
        /// Pending-event payload digest.
        digest: u64,
        /// Calendar sequence number.
        seq: u64,
    },
    /// A fault-plan rule installation fired (world-global).
    Fault {
        /// Pending-event payload digest.
        digest: u64,
        /// Calendar sequence number.
        seq: u64,
    },
    /// A free-text note: a layer's [`LayerCtx::note`] or rejected input,
    /// or a downcall that fell off the bottom of the stack.
    ///
    /// [`LayerCtx::note`]: crate::layer::LayerCtx::note
    Note(String),
}

impl TraceKind {
    /// Stable kind name used by the trace file format.
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::LayerDown { .. } => "layer-down",
            TraceKind::LayerUp { .. } => "layer-up",
            TraceKind::LayerTimer { .. } => "layer-timer",
            TraceKind::FrameSend { .. } => "frame-send",
            TraceKind::FrameDeliver { .. } => "frame-deliver",
            TraceKind::FrameDrop { .. } => "frame-drop",
            TraceKind::TimerArm { .. } => "timer-arm",
            TraceKind::TimerFire { .. } => "timer-fire",
            TraceKind::AppDown { .. } => "app-down",
            TraceKind::Deliver { .. } => "deliver",
            TraceKind::ViewInstall { .. } => "view-install",
            TraceKind::Crash { .. } => "crash",
            TraceKind::Suspect { .. } => "suspect",
            TraceKind::InjectCrash => "inject-crash",
            TraceKind::InjectSuspect { .. } => "inject-suspect",
            TraceKind::Partition { .. } => "partition",
            TraceKind::Heal { .. } => "heal",
            TraceKind::Fault { .. } => "fault",
            TraceKind::Note(_) => "note",
        }
    }

    /// Stable small-integer id for this kind: the bit position in a
    /// [`KindMask`] and the record tag of the v2 binary trace format in
    /// `horus-trace`.  Appending new kinds is fine; renumbering existing
    /// ones would break committed v2 traces.
    pub fn id(&self) -> u8 {
        match self {
            TraceKind::LayerDown { .. } => 0,
            TraceKind::LayerUp { .. } => 1,
            TraceKind::LayerTimer { .. } => 2,
            TraceKind::FrameSend { .. } => 3,
            TraceKind::FrameDeliver { .. } => 4,
            TraceKind::FrameDrop { .. } => 5,
            TraceKind::TimerArm { .. } => 6,
            TraceKind::TimerFire { .. } => 7,
            TraceKind::AppDown { .. } => 8,
            TraceKind::Deliver { .. } => 9,
            TraceKind::ViewInstall { .. } => 10,
            TraceKind::Crash { .. } => 11,
            TraceKind::Suspect { .. } => 12,
            TraceKind::InjectCrash => 13,
            TraceKind::InjectSuspect { .. } => 14,
            TraceKind::Partition { .. } => 15,
            TraceKind::Heal { .. } => 16,
            TraceKind::Fault { .. } => 17,
            TraceKind::Note(_) => 18,
        }
    }
}

/// Every kind name, indexed by [`TraceKind::id`].
pub const KIND_NAMES: [&str; 19] = [
    "layer-down",
    "layer-up",
    "layer-timer",
    "frame-send",
    "frame-deliver",
    "frame-drop",
    "timer-arm",
    "timer-fire",
    "app-down",
    "deliver",
    "view-install",
    "crash",
    "suspect",
    "inject-crash",
    "inject-suspect",
    "partition",
    "heal",
    "fault",
    "note",
];

/// The [`TraceKind::id`] for a kind name, when it is one of the vocabulary.
pub fn kind_id_by_name(name: &str) -> Option<u8> {
    KIND_NAMES.iter().position(|&n| n == name).map(|i| i as u8)
}

/// A set of [`TraceKind`]s as a bitset over [`TraceKind::id`] — the filter
/// a [`FilterSink`] applies at the hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindMask(u32);

impl KindMask {
    /// Every kind.
    pub const ALL: KindMask = KindMask((1 << KIND_NAMES.len()) - 1);
    /// No kind.
    pub const NONE: KindMask = KindMask(0);

    /// Builds a mask from kind names (as in the file format / CLI).
    ///
    /// # Errors
    ///
    /// Returns the offending name when one is not in the vocabulary.
    pub fn from_names<'a>(names: impl IntoIterator<Item = &'a str>) -> Result<KindMask, String> {
        let mut mask = KindMask::NONE;
        for name in names {
            let id = kind_id_by_name(name).ok_or_else(|| format!("unknown kind {name:?}"))?;
            mask.0 |= 1 << id;
        }
        Ok(mask)
    }

    /// This mask plus one kind.
    #[must_use]
    pub fn with(self, kind: &TraceKind) -> KindMask {
        KindMask(self.0 | 1 << kind.id())
    }

    /// Whether `kind` is in the mask.
    pub fn contains(self, kind: &TraceKind) -> bool {
        self.0 & (1 << kind.id()) != 0
    }

    /// Whether the mask admits nothing.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// A sink that discards everything.  It declares itself un-[`interested`],
/// so installing it is indistinguishable from installing no sink: the
/// stack caches the answer and never constructs an event — which is what
/// the disabled-overhead gate in `trace_smoke` measures.
///
/// [`interested`]: TraceSink::interested
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _ev: TraceEvent) {}

    fn interested(&self) -> bool {
        false
    }
}

/// A sink wrapper that keeps 1-in-`every` records and discards the rest —
/// the knob that lets a multi-hour chaos soak stay traced: the hook still
/// fires on every event, but only the sampled records pay the inner sink's
/// cost (ring CAS, clock clone, allocation).
///
/// Sampling is by global record count, not per kind or per endpoint, so a
/// sampled trace is an unbiased 1/N thinning of the full stream.  The
/// records that were *not* kept are counted ([`sampled_out`]) so file
/// writers can report the thinning factor honestly — a sampled trace must
/// never masquerade as a complete one (the trace→schedule bridge refuses
/// them).
///
/// [`sampled_out`]: SamplingSink::sampled_out
#[derive(Debug)]
pub struct SamplingSink {
    inner: Arc<dyn TraceSink>,
    every: u64,
    seen: AtomicU64,
}

impl SamplingSink {
    /// Wraps `inner`, keeping one record in `every` (clamped to ≥ 1).
    pub fn new(inner: Arc<dyn TraceSink>, every: u64) -> Self {
        SamplingSink { inner, every: every.max(1), seen: AtomicU64::new(0) }
    }

    /// The sampling rate `N` of this 1-in-N sink.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Records seen so far (kept + sampled out).
    pub fn seen(&self) -> u64 {
        self.seen.load(Ordering::Relaxed)
    }

    /// Records forwarded to the inner sink so far.
    pub fn kept(&self) -> u64 {
        self.seen().div_ceil(self.every)
    }

    /// Records discarded by sampling so far.
    pub fn sampled_out(&self) -> u64 {
        self.seen() - self.kept()
    }
}

impl TraceSink for SamplingSink {
    fn record(&self, ev: TraceEvent) {
        let n = self.seen.fetch_add(1, Ordering::Relaxed);
        if n.is_multiple_of(self.every) {
            self.inner.record(ev);
        }
    }

    // Clocks are causal context, not records: forward them all so the
    // records that *are* kept carry the right clock.
    fn set_clock(&self, clock: &[ClockEntry]) {
        self.inner.set_clock(clock);
    }

    fn interested(&self) -> bool {
        self.inner.interested()
    }

    // Counter discipline: a to-be-kept event is NOT counted here — the
    // producer's follow-up `record` advances the counter and forwards.  A
    // to-be-dropped event is counted here and `record` never runs for it.
    // Either way each event advances `seen` exactly once, so the protocol
    // composes with producers that skip `admit` entirely.  (A concurrent
    // interleaving between `admit` and `record` can shift which slot an
    // event lands on; sampling is statistical, counts stay exact.)
    fn admit(&self) -> bool {
        loop {
            let n = self.seen.load(Ordering::Relaxed);
            if n.is_multiple_of(self.every) {
                return true;
            }
            if self
                .seen
                .compare_exchange_weak(n, n + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return false;
            }
        }
    }
}

/// A sink wrapper that forwards only the kinds in a [`KindMask`] — e.g.
/// layer crossings and timers for latency work, without paying for the
/// frame-level firehose.
#[derive(Debug)]
pub struct FilterSink {
    inner: Arc<dyn TraceSink>,
    mask: KindMask,
}

impl FilterSink {
    /// Wraps `inner`, forwarding only kinds in `mask`.
    pub fn new(inner: Arc<dyn TraceSink>, mask: KindMask) -> Self {
        FilterSink { inner, mask }
    }

    /// The mask this sink applies.
    pub fn mask(&self) -> KindMask {
        self.mask
    }
}

impl TraceSink for FilterSink {
    fn record(&self, ev: TraceEvent) {
        if self.mask.contains(&ev.kind) {
            self.inner.record(ev);
        }
    }

    fn set_clock(&self, clock: &[ClockEntry]) {
        self.inner.set_clock(clock);
    }

    fn interested(&self) -> bool {
        !self.mask.is_empty() && self.inner.interested()
    }

    // The kind is unknown before construction, so the filter itself cannot
    // pre-flight; forward so an inner sampler still can.
    fn admit(&self) -> bool {
        self.inner.admit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(TraceKind::LayerDown { layer: "COM" }.name(), "layer-down");
        assert_eq!(TraceKind::Note("x".into()).name(), "note");
        assert_eq!(DropReason::Fingerprint.name(), "fingerprint");
    }

    #[test]
    fn null_sink_is_a_trace_sink() {
        let s: &dyn TraceSink = &NullSink;
        s.record(TraceEvent {
            at: SimTime::ZERO,
            ep: EndpointAddr::new(1),
            kind: TraceKind::InjectCrash,
        });
        s.set_clock(&[(1, 2)]);
    }

    #[test]
    fn kind_ids_and_names_agree() {
        // Every name maps back to the id that indexes it.
        for (i, name) in KIND_NAMES.iter().enumerate() {
            assert_eq!(kind_id_by_name(name), Some(i as u8), "{name}");
        }
        assert_eq!(kind_id_by_name("no-such-kind"), None);
        // Spot-check id() against the table through name().
        let samples = [
            TraceKind::LayerDown { layer: "COM" },
            TraceKind::FrameSend { cast: true, bytes: 1 },
            TraceKind::InjectCrash,
            TraceKind::Note("x".into()),
        ];
        for k in &samples {
            assert_eq!(KIND_NAMES[k.id() as usize], k.name());
        }
    }

    /// A counting sink for the wrapper tests.
    #[derive(Debug, Default)]
    struct Counter {
        records: AtomicU64,
        clocks: AtomicU64,
    }

    impl TraceSink for Counter {
        fn record(&self, _ev: TraceEvent) {
            self.records.fetch_add(1, Ordering::Relaxed);
        }

        fn set_clock(&self, _clock: &[ClockEntry]) {
            self.clocks.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn ev(kind: TraceKind) -> TraceEvent {
        TraceEvent { at: SimTime::ZERO, ep: EndpointAddr::new(1), kind }
    }

    #[test]
    fn sampling_sink_keeps_one_in_n() {
        let inner = Arc::new(Counter::default());
        let s = SamplingSink::new(inner.clone(), 4);
        for _ in 0..10 {
            s.record(ev(TraceKind::InjectCrash));
        }
        s.set_clock(&[(1, 1)]);
        // Records 0, 4, 8 kept: ceil(10/4) = 3.
        assert_eq!(inner.records.load(Ordering::Relaxed), 3);
        assert_eq!(inner.clocks.load(Ordering::Relaxed), 1);
        assert_eq!((s.seen(), s.kept(), s.sampled_out()), (10, 3, 7));
        assert!(s.interested());
    }

    #[test]
    fn sampling_sink_admit_protocol_counts_each_event_once() {
        let inner = Arc::new(Counter::default());
        let s = SamplingSink::new(inner.clone(), 4);
        let mut admitted = 0;
        for _ in 0..12 {
            // Full pre-flight protocol: construct + record only on admit.
            if s.admit() {
                admitted += 1;
                s.record(ev(TraceKind::InjectCrash));
            }
        }
        // Identical outcome to the record-only path: slots 0, 4, 8.
        assert_eq!(admitted, 3);
        assert_eq!(inner.records.load(Ordering::Relaxed), 3);
        assert_eq!((s.seen(), s.kept(), s.sampled_out()), (12, 3, 9));

        // A mixed producer (some events pre-flighted, some not) still
        // advances the counter exactly once per event.
        let inner = Arc::new(Counter::default());
        let s = SamplingSink::new(inner.clone(), 2);
        for i in 0..10 {
            if i % 3 == 0 || s.admit() {
                s.record(ev(TraceKind::InjectCrash));
            }
        }
        assert_eq!(s.seen(), 10);
        assert_eq!(inner.records.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn filter_sink_forwards_admit_to_the_sampler() {
        let inner = Arc::new(Counter::default());
        let sampler = Arc::new(SamplingSink::new(inner, 3));
        let f = FilterSink::new(sampler.clone(), KindMask::ALL);
        let mut kept = 0;
        for _ in 0..9 {
            if f.admit() {
                f.record(ev(TraceKind::InjectCrash));
                kept += 1;
            }
        }
        assert_eq!(kept, 3);
        assert_eq!(sampler.seen(), 9);
    }

    #[test]
    fn sampling_sink_clamps_every_to_one() {
        let inner = Arc::new(Counter::default());
        let s = SamplingSink::new(inner.clone(), 0);
        assert_eq!(s.every(), 1);
        for _ in 0..5 {
            s.record(ev(TraceKind::InjectCrash));
        }
        assert_eq!(inner.records.load(Ordering::Relaxed), 5);
        assert_eq!(s.sampled_out(), 0);
    }

    #[test]
    fn filter_sink_applies_the_mask() {
        let inner = Arc::new(Counter::default());
        let mask = KindMask::from_names(["layer-down", "note"]).unwrap();
        let s = FilterSink::new(inner.clone(), mask);
        s.record(ev(TraceKind::LayerDown { layer: "COM" }));
        s.record(ev(TraceKind::InjectCrash));
        s.record(ev(TraceKind::Note("x".into())));
        assert_eq!(inner.records.load(Ordering::Relaxed), 2);
        assert!(s.interested());
        assert!(!FilterSink::new(inner, KindMask::NONE).interested());
        assert!(KindMask::ALL.contains(&TraceKind::InjectCrash));
        assert!(KindMask::from_names(["bogus"]).is_err());
        assert!(KindMask::NONE.with(&TraceKind::InjectCrash).contains(&TraceKind::InjectCrash));
    }
}
