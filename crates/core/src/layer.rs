//! The protocol-layer abstraction: protocols as abstract data types (§1).
//!
//! Every Horus protocol module implements [`Layer`].  A layer reacts to
//! downcalls arriving from above, upcalls arriving from below, and timer
//! expirations; it responds by emitting further events through its
//! [`LayerCtx`].  Default implementations pass events straight through, so a
//! minimal layer only overrides what it modifies — the paper's observation
//! that "the cost of a layer can be as low as just a few instructions".
//!
//! Layers own their state but perform no I/O and read no clocks: everything
//! reaches them as events, which is what makes stacks executable both under
//! the deterministic simulator and under the threaded runtime.

use crate::addr::EndpointAddr;
use crate::event::{Down, Up};
use crate::message::{FieldSpec, HeaderLayout, Message};
use crate::stack::StackStats;
use crate::time::SimTime;
use crate::trace::{TraceEvent, TraceKind, TraceSink};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::RngCore;
use std::any::Any;
use std::sync::Arc;
use std::time::Duration;

/// What a layer emitted during one dispatch; translated by the stack runtime
/// into queue entries or executor effects.
#[derive(Debug)]
pub(crate) enum Emit {
    Down(Down),
    Up(Up),
    Timer { token: u64, delay: Duration },
}

/// The execution context handed to a layer for the duration of one event
/// dispatch.
///
/// All interaction with the rest of the stack goes through this object:
/// emitting events up or down, arming timers, creating control messages, and
/// reading/writing this layer's own header fields on a message.
pub struct LayerCtx<'a> {
    pub(crate) layer: usize,
    pub(crate) now: SimTime,
    pub(crate) local: EndpointAddr,
    pub(crate) layout: &'a Arc<HeaderLayout>,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) emitted: &'a mut Vec<Emit>,
    pub(crate) stats: &'a mut StackStats,
    /// The stack's trace sink while it wants events; `None` otherwise.
    pub(crate) tracer: Option<&'a dyn TraceSink>,
}

impl<'a> LayerCtx<'a> {
    /// Passes an event toward the network (to the layer below, or off the
    /// bottom of the stack).
    pub fn down(&mut self, ev: Down) {
        self.emitted.push(Emit::Down(ev));
    }

    /// Passes an event toward the application (to the layer above, or out of
    /// the top of the stack).
    pub fn up(&mut self, ev: Up) {
        self.emitted.push(Emit::Up(ev));
    }

    /// Arms a timer; [`Layer::on_timer`] fires with the same token after
    /// `delay`.  Timers are one-shot; periodic layers re-arm themselves.
    pub fn set_timer(&mut self, delay: Duration, token: u64) {
        self.emitted.push(Emit::Timer { token, delay });
    }

    /// Records a free-form [`TraceKind::Note`].  The text is built only
    /// when a trace sink admits the event, so an untraced stack pays one
    /// branch.
    pub fn note(&self, text: impl FnOnce() -> String) {
        if let Some(t) = self.tracer {
            if t.admit() {
                t.record(TraceEvent {
                    at: self.now,
                    ep: self.local,
                    kind: TraceKind::Note(text()),
                });
            }
        }
    }

    /// Drops malformed input: counts it in this layer's
    /// [`LayerTraffic::rejected`](crate::stack::LayerTraffic::rejected) and
    /// records `why` as a lazy [`note`](Self::note).
    pub fn reject(&mut self, why: impl FnOnce() -> String) {
        if let Some(t) = self.stats.per_layer.get_mut(self.layer) {
            t.rejected += 1;
        }
        self.note(why);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The address of the endpoint owning this stack.
    pub fn local_addr(&self) -> EndpointAddr {
        self.local
    }

    /// This layer's index in the stack (0 = top). Useful in dumps.
    pub fn layer_index(&self) -> usize {
        self.layer
    }

    /// Deterministic per-stack randomness (timer jitter, probe selection).
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// A deterministic random `u64` (shorthand over [`LayerCtx::rng`]).
    pub fn random_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Creates a fresh message (for protocol control traffic) against this
    /// stack's header layout.
    pub fn new_message(&self, body: impl Into<Bytes>) -> Message {
        Message::new(self.layout.clone(), body)
    }

    /// Begins this layer's header on a message travelling down.
    pub fn stamp(&self, msg: &mut Message) {
        msg.push_header(self.layer);
    }

    /// Opens (pops) this layer's header on a message travelling up.
    ///
    /// # Errors
    ///
    /// Fails when the message's top header record belongs to another layer —
    /// i.e. the message was not stamped by this layer's peer.
    pub fn open(&self, msg: &mut Message) -> Result<(), crate::error::HorusError> {
        msg.pop_header(self.layer)
    }

    /// Whether the message's current top header belongs to this layer.
    pub fn is_mine(&self, msg: &Message) -> bool {
        msg.has_header(self.layer)
    }

    /// Writes field `field` of this layer's header.
    pub fn set(&self, msg: &mut Message, field: usize, val: u64) {
        msg.set_field(self.layer, field, val);
    }

    /// Reads field `field` of this layer's header.
    pub fn get(&self, msg: &Message, field: usize) -> u64 {
        msg.field(self.layer, field)
    }

    /// Records that a packing layer coalesced `msgs` messages into one wire
    /// frame, saving `bytes_saved` bytes of per-frame envelope overhead.
    pub fn note_packed(&mut self, msgs: u64, bytes_saved: u64) {
        self.stats.frames_packed += 1;
        self.stats.msgs_packed += msgs;
        self.stats.bytes_saved_packing += bytes_saved;
    }

    /// Records `n` payload copies.  Layers that must materialize a new body
    /// (fragment reassembly, packing, transforms) report here so the
    /// zero-copy discipline of the hot path stays observable.
    pub fn note_payload_copy(&mut self, n: u64) {
        self.stats.payload_copies += n;
    }
}

/// Duplicates a boxed layer's full state.  Implemented for every
/// `Layer + Clone`, so snapshot support is a type guarantee rather than a
/// per-layer opt-in.
pub trait LayerClone {
    /// A deep copy of this layer's state.  The model checker resumes
    /// exploration from worlds built of these copies, so `Clone` must copy
    /// everything that affects future behaviour.
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl<T: Layer + Clone + 'static> LayerClone for T {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// A protocol layer: the abstract data type of the paper's §1.
///
/// Implementations must be `Send + Sync` so stacks can run under the
/// threaded executor and so snapshotted layer state can be shared
/// copy-on-write between explorer workers (layers hold no interior
/// mutability: all mutation flows through `&mut self` dispatch), and
/// `Clone` so stacks can be snapshotted ([`LayerClone`]).  The default
/// method bodies make a new layer a pure pass-through; override only the
/// events the protocol participates in.
///
/// ```
/// use horus_core::prelude::*;
///
/// /// Counts messages travelling down the stack.
/// #[derive(Debug, Default, Clone)]
/// struct Counter { down: u64 }
///
/// impl Layer for Counter {
///     fn name(&self) -> &'static str { "COUNTER" }
///     fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
///         if matches!(ev, Down::Cast(_)) { self.down += 1; }
///         ctx.down(ev);
///     }
///     fn dump(&self) -> String { format!("down={}", self.down) }
/// }
/// ```
pub trait Layer: LayerClone + Send + Sync {
    /// The layer's name, e.g. `"NAK"`. Used in stack descriptions, dumps,
    /// and the stack fingerprint.
    fn name(&self) -> &'static str;

    /// The fixed-size header fields this layer stamps on messages, used to
    /// pre-compute the stack's header layout (§10 problem 3).
    fn header_fields(&self) -> &'static [FieldSpec] {
        &[]
    }

    /// Called once when the stack starts, before any other event.  Layers
    /// arm their periodic timers here.
    fn on_init(&mut self, _ctx: &mut LayerCtx<'_>) {}

    /// A downcall arrived from the layer above (or the application).
    fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
        ctx.down(ev);
    }

    /// An upcall arrived from the layer below (or the network).
    fn on_up(&mut self, ev: Up, ctx: &mut LayerCtx<'_>) {
        ctx.up(ev);
    }

    /// A timer armed by this layer expired.
    fn on_timer(&mut self, _token: u64, _ctx: &mut LayerCtx<'_>) {}

    /// A *passive* layer passes every event through unmodified and sets no
    /// timers; the stack runtime may then skip it entirely (§10 problem 1's
    /// "skipping layers that take no action on the way down or up").
    fn is_passive(&self) -> bool {
        false
    }

    /// One-line state report for the `dump`/`focus` debugging interface.
    fn dump(&self) -> String {
        String::new()
    }

    /// Feeds this layer's delivery-relevant state into a model-checking
    /// state digest (visited-state pruning in `horus-check`).
    ///
    /// The default digests the [`Layer::dump`] report, which every stateful
    /// layer in this repository already keeps current.  Override when the
    /// dump omits state that changes future behaviour — an
    /// under-discriminating digest makes the explorer merge states it
    /// should distinguish and skip schedules it should search.
    fn digest_state(&self, d: &mut crate::digest::StateDigest) {
        d.write_str(&self.dump());
    }

    /// Optional downcast hook so tests and tools can reach layer-specific
    /// state through [`crate::stack::Stack::focus_as`].
    fn as_any(&self) -> Option<&dyn Any> {
        None
    }

    /// How many units of *pending work* this layer is still holding: state
    /// that obliges it to act again before the protocol can be considered
    /// quiescent — unacknowledged retransmit-queue entries, buffered
    /// out-of-order gaps, an unflushed view change, a parked total-order
    /// token.  `0` means "nothing owed".
    ///
    /// Liveness monitors (`horus-sim`'s progress watchdog, `horus-check`'s
    /// quiescence oracle) sample this after faults heal: pending work that
    /// never drains is a wedge.  The unit is deliberately coarse — monitors
    /// only compare against zero and watch the trend — so layers just count
    /// queue entries.  Passive layers owe nothing by construction.
    fn pending_work(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::HeaderMode;
    use rand::SeedableRng;

    #[derive(Debug, Default, Clone)]
    struct Nop;
    impl Layer for Nop {
        fn name(&self) -> &'static str {
            "NOP"
        }
        fn is_passive(&self) -> bool {
            true
        }
    }

    #[test]
    fn default_layer_passes_through() {
        let layout = Arc::new(HeaderLayout::build(&[("NOP", &[])], HeaderMode::Compact).unwrap());
        let mut rng = StdRng::seed_from_u64(1);
        let mut emitted = Vec::new();
        let mut stats = StackStats::default();
        let mut ctx = LayerCtx {
            layer: 0,
            now: SimTime::ZERO,
            local: EndpointAddr::new(1),
            layout: &layout,
            rng: &mut rng,
            emitted: &mut emitted,
            stats: &mut stats,
            tracer: None,
        };
        let mut l = Nop;
        l.on_down(Down::Leave, &mut ctx);
        l.on_up(Up::Exit, &mut ctx);
        assert!(matches!(emitted[0], Emit::Down(Down::Leave)));
        assert!(matches!(emitted[1], Emit::Up(Up::Exit)));
        assert!(l.is_passive());
        assert!(l.as_any().is_none());
    }

    #[test]
    fn ctx_creates_messages_against_layout() {
        let layout = Arc::new(HeaderLayout::build(&[("NOP", &[])], HeaderMode::Compact).unwrap());
        let mut rng = StdRng::seed_from_u64(1);
        let mut emitted = Vec::new();
        let mut stats = StackStats::default();
        let ctx = LayerCtx {
            layer: 0,
            now: SimTime::ZERO,
            local: EndpointAddr::new(1),
            layout: &layout,
            rng: &mut rng,
            emitted: &mut emitted,
            stats: &mut stats,
            tracer: None,
        };
        let m = ctx.new_message(&b"x"[..]);
        assert_eq!(m.body(), &b"x"[..]);
    }
}
