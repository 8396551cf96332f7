//! The stack runtime: run-time protocol composition plus the event-queue
//! execution model (§3, §10).
//!
//! A [`Stack`] is an ordered sequence of [`Layer`]s (index 0 on top) driven
//! by a single scheduler — the paper's non-threaded model, where "each layer
//! is implemented with a single scheduling thread per endpoint".  The stack
//! is a pure state machine: [`Stack::handle_into`] consumes one
//! [`StackInput`] and appends the [`Effect`]s the surrounding executor must
//! perform (deliver upcalls, transmit wire messages, arm timers) to a
//! reusable [`EffectSink`].  Determinism follows, and with it replayable
//! failure scenarios.
//!
//! Two §10 optimizations are implemented and benchmarkable:
//!
//! * **layer skipping** ([`StackConfig::skip_passive`]): events bypass
//!   layers that declare themselves passive, avoiding the indirect call per
//!   boundary crossing (§10 problem 1);
//! * **header compaction** ([`StackConfig::mode`]): the pre-computed
//!   bit-compacted single header replaces per-layer aligned push/pop (§10
//!   problem 3).

use crate::addr::{EndpointAddr, GroupAddr};
use crate::digest::StateDigest;
use crate::error::HorusError;
use crate::event::{Down, Effect, StackInput, Up};
use crate::frame::{FrameChecksum, WireFrame, ENVELOPE_BYTES};
use crate::layer::{Emit, Layer, LayerCtx};
use crate::message::{HeaderLayout, HeaderMode, Message};
use crate::time::SimTime;
use crate::trace::{DropReason, TraceEvent, TraceKind, TraceSink};
use crate::view::View;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Configuration of a stack's runtime behaviour.
#[derive(Debug, Clone)]
pub struct StackConfig {
    /// Header layout (§10 problem 3 ablation). Default: [`HeaderMode::Compact`].
    pub mode: HeaderMode,
    /// Skip dispatching events through passive layers (§10 problem 1
    /// optimization). Default: `true`.
    pub skip_passive: bool,
    /// Seed for the stack's deterministic RNG. Defaults to the endpoint
    /// address so distinct endpoints jitter differently but reproducibly.
    pub seed: Option<u64>,
}

impl Default for StackConfig {
    fn default() -> Self {
        StackConfig { mode: HeaderMode::Compact, skip_passive: true, seed: None }
    }
}

/// Counters accumulated by a stack; the raw material for the paper's
/// overhead discussion (§10).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StackStats {
    /// Wire messages transmitted (casts + sends).
    pub msgs_sent: u64,
    /// Wire messages received and decoded.
    pub msgs_received: u64,
    /// Total bytes handed to the transport.
    pub bytes_sent: u64,
    /// Total bytes received from the transport.
    pub bytes_received: u64,
    /// Header bytes (excluding frame and body) transmitted.
    pub header_bytes_sent: u64,
    /// Individual layer dispatches performed.
    pub dispatches: u64,
    /// Dispatches avoided by the passive-layer skip optimization.
    pub skipped: u64,
    /// Incoming wire messages dropped for a stack-fingerprint mismatch.
    pub fingerprint_drops: u64,
    /// Incoming wire messages dropped as undecodable.
    pub decode_drops: u64,
    /// Wire frames that carried more than one coalesced message (PACK).
    pub frames_packed: u64,
    /// Messages that travelled inside a packed carrier frame.
    pub msgs_packed: u64,
    /// Envelope bytes saved by packing versus one frame per message.
    pub bytes_saved_packing: u64,
    /// Payload (body) copies performed between the application boundary and
    /// the transport.  Zero on the plain cast/send hot path: the scatter-
    /// gather framing ships the application's `Bytes` by reference.
    pub payload_copies: u64,
    /// Inputs processed through [`Stack::handle_batch`].
    pub batched_inputs: u64,
    /// Calls to [`Stack::handle_batch`] (so `batched_inputs / batches` is the
    /// achieved batch size).
    pub batches: u64,
    /// Times a reused dispatch buffer (scratch queue or emission buffer) had
    /// to grow during an input's processing.  Zero in steady state: the
    /// buffers warm up and every further event dispatches allocation-free.
    pub dispatch_buf_grows: u64,
    /// Per-layer crossing counters, indexed top-first like the stack's
    /// layers (sized at build; empty only for a default value that was
    /// never attached to a stack).  Together with the trace timestamps
    /// these are the per-layer occupancy/latency decomposition of §10.
    pub per_layer: Vec<LayerTraffic>,
    /// High-water mark of the intra-stack scratch queue (events queued
    /// between layers during one input's processing) — the stack's
    /// occupancy measure.  Merged by maximum, not sum.
    pub scratch_peak: u64,
}

/// Per-layer dispatch counters: how many items of each direction a layer
/// handled.  The trace's layer-crossing events carry the same information
/// with timestamps; these are the always-on aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTraffic {
    /// Downward items dispatched into the layer.
    pub downs: u64,
    /// Upward items dispatched into the layer.
    pub ups: u64,
    /// Timer items dispatched into the layer.
    pub timers: u64,
    /// Malformed inputs the layer dropped (truncated carriers, undecodable
    /// reassemblies), counted in every executor.
    pub rejected: u64,
}

impl StackStats {
    /// Adds `other`'s counters into `self` — per-shard and per-worker
    /// aggregation for the sharded executor.
    pub fn merge(&mut self, other: &StackStats) {
        let StackStats {
            msgs_sent,
            msgs_received,
            bytes_sent,
            bytes_received,
            header_bytes_sent,
            dispatches,
            skipped,
            fingerprint_drops,
            decode_drops,
            frames_packed,
            msgs_packed,
            bytes_saved_packing,
            payload_copies,
            batched_inputs,
            batches,
            dispatch_buf_grows,
            per_layer,
            scratch_peak,
        } = other;
        self.msgs_sent += msgs_sent;
        self.msgs_received += msgs_received;
        self.bytes_sent += bytes_sent;
        self.bytes_received += bytes_received;
        self.header_bytes_sent += header_bytes_sent;
        self.dispatches += dispatches;
        self.skipped += skipped;
        self.fingerprint_drops += fingerprint_drops;
        self.decode_drops += decode_drops;
        self.frames_packed += frames_packed;
        self.msgs_packed += msgs_packed;
        self.bytes_saved_packing += bytes_saved_packing;
        self.payload_copies += payload_copies;
        self.batched_inputs += batched_inputs;
        self.batches += batches;
        self.dispatch_buf_grows += dispatch_buf_grows;
        if self.per_layer.len() < per_layer.len() {
            self.per_layer.resize(per_layer.len(), LayerTraffic::default());
        }
        for (mine, theirs) in self.per_layer.iter_mut().zip(per_layer) {
            mine.downs += theirs.downs;
            mine.ups += theirs.ups;
            mine.timers += theirs.timers;
            mine.rejected += theirs.rejected;
        }
        self.scratch_peak = self.scratch_peak.max(*scratch_peak);
    }
}

/// A reusable effect emission buffer.
///
/// Executors keep one `EffectSink` per worker, pass it to
/// [`Stack::handle_into`] / [`Stack::handle_batch`], drain it, and pass it
/// again: once warm, no allocation happens per dispatched event.
#[derive(Debug, Default)]
pub struct EffectSink {
    effects: Vec<Effect>,
}

impl EffectSink {
    /// An empty sink.
    pub fn new() -> Self {
        EffectSink::default()
    }

    /// An empty sink with room for `cap` effects before any growth.
    pub fn with_capacity(cap: usize) -> Self {
        EffectSink { effects: Vec::with_capacity(cap) }
    }

    /// Number of effects currently buffered.
    pub fn len(&self) -> usize {
        self.effects.len()
    }

    /// Whether the sink holds no effects.
    pub fn is_empty(&self) -> bool {
        self.effects.is_empty()
    }

    /// The buffered effects, oldest first.
    pub fn as_slice(&self) -> &[Effect] {
        &self.effects
    }

    /// Removes and yields the buffered effects, keeping the allocation.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Effect> {
        self.effects.drain(..)
    }

    /// Drops the buffered effects, keeping the allocation.
    pub fn clear(&mut self) {
        self.effects.clear();
    }

    /// Consumes the sink, returning the buffered effects.
    pub fn into_effects(self) -> Vec<Effect> {
        self.effects
    }

    pub(crate) fn buf(&mut self) -> &mut Vec<Effect> {
        &mut self.effects
    }
}

/// Builds a [`Stack`] from layers given top-first — the run-time `endpoint`
/// downcall of Table 1.
///
/// ```
/// use horus_core::prelude::*;
/// #[derive(Debug, Default, Clone)]
/// struct Nop;
/// impl Layer for Nop { fn name(&self) -> &'static str { "NOP" } }
///
/// let stack = StackBuilder::new(EndpointAddr::new(7))
///     .push(Box::new(Nop))
///     .build()?;
/// assert_eq!(stack.layer_names(), vec!["NOP"]);
/// # Ok::<(), HorusError>(())
/// ```
pub struct StackBuilder {
    local: EndpointAddr,
    layers: Vec<Box<dyn Layer>>,
    config: StackConfig,
}

impl StackBuilder {
    /// Starts a builder for an endpoint with the given address.
    pub fn new(local: EndpointAddr) -> Self {
        StackBuilder { local, layers: Vec::new(), config: StackConfig::default() }
    }

    /// Appends the next layer (top first: the first `push` is the layer the
    /// application talks to).
    pub fn push(mut self, layer: Box<dyn Layer>) -> Self {
        self.layers.push(layer);
        self
    }

    /// Appends many layers, top first.
    pub fn extend(mut self, layers: impl IntoIterator<Item = Box<dyn Layer>>) -> Self {
        self.layers.extend(layers);
        self
    }

    /// Overrides the runtime configuration.
    pub fn config(mut self, config: StackConfig) -> Self {
        self.config = config;
        self
    }

    /// Selects the header layout.
    pub fn mode(mut self, mode: HeaderMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Enables or disables the passive-layer skip optimization.
    pub fn skip_passive(mut self, on: bool) -> Self {
        self.config.skip_passive = on;
        self
    }

    /// Finishes composition, pre-computing the header layout and skip
    /// tables.
    ///
    /// # Errors
    ///
    /// Fails on an empty stack, on more than 250 layers, or on invalid
    /// header field declarations.
    pub fn build(self) -> Result<Stack, HorusError> {
        if self.layers.is_empty() {
            return Err(HorusError::BadStack("a stack needs at least one layer".into()));
        }
        if self.layers.len() > 250 {
            return Err(HorusError::BadStack(format!(
                "{} layers exceed the maximum stack depth of 250",
                self.layers.len()
            )));
        }
        let specs: Vec<(&'static str, &[crate::message::FieldSpec])> =
            self.layers.iter().map(|l| (l.name(), l.header_fields())).collect();
        let layout = Arc::new(HeaderLayout::build(&specs, self.config.mode)?);
        let fingerprint = fingerprint(&specs, self.config.mode);
        let seed = self.config.seed.unwrap_or(self.local.raw());
        let n = self.layers.len();
        Ok(Stack {
            local: self.local,
            layers: self.layers.into_iter().map(LayerCell::new).collect(),
            layout,
            fingerprint,
            config: self.config,
            now: SimTime::ZERO,
            rng: StdRng::seed_from_u64(seed),
            group: None,
            view: None,
            stats: StackStats {
                per_layer: vec![LayerTraffic::default(); n],
                ..StackStats::default()
            },
            destroyed: false,
            scratch: VecDeque::with_capacity(n * 2),
            emit_buf: Vec::with_capacity(4),
            layer_digests: (0..n).map(|_| Cell::new(0)).collect(),
            layer_dirty: (0..n).map(|_| Cell::new(true)).collect(),
            view_digest: Cell::new(0),
            view_dirty: Cell::new(true),
            tracer: None,
            traced: false,
        })
    }
}

/// A 16-bit fingerprint of a stack composition (layer names, field specs,
/// header mode).  Carried on every wire message so endpoints with mismatched
/// stacks discard each other's traffic instead of misparsing it.
fn fingerprint(specs: &[(&'static str, &[crate::message::FieldSpec])], mode: HeaderMode) -> u16 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    eat(match mode {
        HeaderMode::Aligned => 0,
        HeaderMode::Compact => 1,
    });
    for (name, fields) in specs {
        for b in name.bytes() {
            eat(b);
        }
        eat(0xff);
        for f in *fields {
            for b in f.name.bytes() {
                eat(b);
            }
            eat(f.bits as u8);
        }
    }
    (h ^ (h >> 16) ^ (h >> 32) ^ (h >> 48)) as u16
}

enum Item {
    Down(Down),
    Up(Up),
    Timer(u64),
}

/// Process-global count of layer states duplicated through
/// [`LayerClone::clone_box`](crate::layer::LayerClone::clone_box) — by deep
/// stack clones ([`Stack::deep_clone`]) and by copy-on-write
/// materializations (first mutation of a shared layer after
/// [`Stack::clone_cow`]).  The model checker's benchmarks read this as the
/// "bytes cloned" proxy when comparing snapshot strategies.
static LAYER_CLONES: AtomicU64 = AtomicU64::new(0);

/// Total layer-state duplications since process start (or the last
/// [`reset_layer_clones`]).
pub fn layer_clones() -> u64 {
    LAYER_CLONES.load(Ordering::Relaxed)
}

/// Resets the [`layer_clones`] counter to zero.  Benchmark harnesses call
/// this between arms; the counter is process-global, so concurrent stacks in
/// the same process all contribute.
pub fn reset_layer_clones() {
    LAYER_CLONES.store(0, Ordering::Relaxed);
}

/// One layer's state behind a copy-on-write cell.
///
/// A freshly built stack owns each layer exclusively (`Arc` strong count 1)
/// and mutates it in place.  [`Stack::clone_cow`] shares the `Arc`s instead
/// of cloning layer state; the first dispatch into a shared layer — on
/// either side — materializes a private copy via
/// [`LayerClone::clone_box`](crate::layer::LayerClone::clone_box).
/// Layers a parked exploration sibling never touches are therefore never
/// cloned, which is what makes world snapshots O(touched) instead of
/// O(world).
struct LayerCell(Arc<Box<dyn Layer>>);

impl LayerCell {
    fn new(layer: Box<dyn Layer>) -> Self {
        LayerCell(Arc::new(layer))
    }

    /// Read access; never clones.
    fn get(&self) -> &dyn Layer {
        &**self.0
    }

    /// Write access; materializes a private copy first if the cell is
    /// shared with a snapshot.
    fn make_mut(&mut self) -> &mut dyn Layer {
        if Arc::get_mut(&mut self.0).is_none() {
            LAYER_CLONES.fetch_add(1, Ordering::Relaxed);
            self.0 = Arc::new(self.0.clone_box());
        }
        &mut **Arc::get_mut(&mut self.0).expect("uniquely owned after materialization")
    }

    /// Shares the cell; no state is copied.
    fn share(&self) -> LayerCell {
        LayerCell(Arc::clone(&self.0))
    }
}

/// A composed protocol stack for one endpoint: the Horus "endpoint object"
/// together with its layers and the per-stack event scheduler.
pub struct Stack {
    local: EndpointAddr,
    /// Per-layer copy-on-write cells; see [`LayerCell`].
    layers: Vec<LayerCell>,
    layout: Arc<HeaderLayout>,
    fingerprint: u16,
    config: StackConfig,
    now: SimTime,
    rng: StdRng,
    group: Option<GroupAddr>,
    view: Option<View>,
    stats: StackStats,
    destroyed: bool,
    scratch: VecDeque<(usize, Item)>,
    /// Reusable per-dispatch emission buffer: one allocation per stack, not
    /// one per layer dispatch.
    emit_buf: Vec<Emit>,
    /// Cached per-layer state digests, parallel to `layers`.  The dirty bit
    /// is the caching invariant: **every dispatch into a layer marks it
    /// dirty** (in [`Stack::drain`] and [`Stack::init`]) before the layer
    /// runs, so a stale cache entry can only describe a layer no event has
    /// touched since the digest was taken.  Marking is conservative — a
    /// dispatch that mutates nothing still invalidates — which is what makes
    /// the scheme sound without trusting each of the 37 layer
    /// implementations to track its own mutations.
    layer_digests: Vec<Cell<u64>>,
    layer_dirty: Vec<Cell<bool>>,
    /// Cached digest of the current view string (the one `format!` in the
    /// stack's digest path), refreshed only when a view installs.
    view_digest: Cell<u64>,
    view_dirty: Cell<bool>,
    /// Structured-event hook ([`crate::trace`]).  `None` — the default —
    /// costs one branch per event site; executors mirror the installed sink
    /// for the events only they can see (frame arrival, timer firing).
    tracer: Option<Arc<dyn TraceSink>>,
    /// Cached [`TraceSink::interested`] answer — the one flag every event
    /// site branches on, so a sink that will never record (a [`NullSink`])
    /// skips event construction exactly like no sink at all.
    ///
    /// [`NullSink`]: crate::trace::NullSink
    traced: bool,
}

impl Stack {
    /// The owning endpoint's address.
    pub fn local_addr(&self) -> EndpointAddr {
        self.local
    }

    /// The group joined through this stack, if any.
    pub fn group(&self) -> Option<GroupAddr> {
        self.group
    }

    /// The most recent view delivered to the application, if any.
    pub fn view(&self) -> Option<&View> {
        self.view.as_ref()
    }

    /// The stack's pre-computed header layout.
    pub fn layout(&self) -> &Arc<HeaderLayout> {
        &self.layout
    }

    /// The stack composition fingerprint carried on wire messages.
    pub fn fingerprint(&self) -> u16 {
        self.fingerprint
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &StackStats {
        &self.stats
    }

    /// Whether `destroy` has completed; a destroyed stack ignores inputs.
    pub fn is_destroyed(&self) -> bool {
        self.destroyed
    }

    /// Installs a trace sink; every subsequent dispatch reports its layer
    /// crossings, frame traffic, timer arms, and deliveries through it.
    /// The sink's [`TraceSink::interested`] answer is cached here: an
    /// uninterested sink leaves dispatch on the untraced path.
    pub fn set_tracer(&mut self, tracer: Arc<dyn TraceSink>) {
        self.traced = tracer.interested();
        self.tracer = Some(tracer);
    }

    /// Removes the trace sink, returning dispatch to the untraced path.
    pub fn clear_tracer(&mut self) {
        self.tracer = None;
        self.traced = false;
    }

    /// The installed trace sink, if it wants events.  Executors clone this
    /// to report the events only they observe (frame arrival, timer
    /// firing) into the same collector; an uninterested sink reads as
    /// `None` so executors skip their event sites too.
    pub fn tracer(&self) -> Option<&Arc<dyn TraceSink>> {
        if self.traced {
            self.tracer.as_ref()
        } else {
            None
        }
    }

    /// Records one trace event, stamped with the stack's own clock.  One
    /// branch when disabled; kind construction happens at the call site,
    /// so call this only with cheap (copy/`&'static str`) payloads outside
    /// a `traced`-checked block.
    #[inline]
    fn trace(&self, kind: TraceKind) {
        if self.traced {
            if let Some(t) = &self.tracer {
                t.record(TraceEvent { at: self.now, ep: self.local, kind });
            }
        }
    }

    /// [`trace`](Self::trace) for event payloads that are expensive to
    /// build (digests, rendered strings): the construction closure runs
    /// only after the sink [`admit`](TraceSink::admit)s the event, so a
    /// sampling sink skips the build cost of the records it discards.
    #[inline]
    fn trace_lazy(&self, kind: impl FnOnce() -> TraceKind) {
        if self.traced {
            if let Some(t) = &self.tracer {
                if t.admit() {
                    t.record(TraceEvent { at: self.now, ep: self.local, kind: kind() });
                }
            }
        }
    }

    /// Duplicates the stack's full runtime state, every layer deep-cloned
    /// through [`LayerClone::clone_box`](crate::layer::LayerClone::clone_box).
    ///
    /// The clone is *behaviourally exact*: layers, RNG stream position,
    /// armed-timer bookkeeping, view, stats, and the digest caches all come
    /// along, so a cloned stack fed the same events produces the same
    /// effects — which is what lets the model checker resume exploration
    /// from snapshotted worlds instead of re-executing prefixes.
    pub fn deep_clone(&self) -> Stack {
        LAYER_CLONES.fetch_add(self.layers.len() as u64, Ordering::Relaxed);
        self.clone_rest(self.layers.iter().map(|l| LayerCell::new(l.get().clone_box())).collect())
    }

    /// Copy-on-write counterpart of [`Stack::deep_clone`]: shares every
    /// layer's state with the original instead of duplicating it, deferring
    /// each layer's clone to the first dispatch into it — on either stack.
    ///
    /// Behaviourally indistinguishable from a deep clone (the checker's
    /// fingerprint `debug_assert` polices this); the difference is purely
    /// when (and whether) layer state gets copied.
    pub fn clone_cow(&self) -> Stack {
        self.clone_rest(self.layers.iter().map(LayerCell::share).collect())
    }

    /// The non-layer half of stack duplication, shared by the deep and CoW
    /// paths.
    fn clone_rest(&self, layers: Vec<LayerCell>) -> Stack {
        Stack {
            local: self.local,
            layers,
            layout: Arc::clone(&self.layout),
            fingerprint: self.fingerprint,
            config: self.config.clone(),
            now: self.now,
            rng: self.rng.clone(),
            group: self.group,
            view: self.view.clone(),
            stats: self.stats.clone(),
            destroyed: self.destroyed,
            // Dispatch scratch space is drained to empty before any public
            // entry point returns, so the clone starts with fresh buffers.
            scratch: VecDeque::new(),
            emit_buf: Vec::new(),
            layer_digests: self.layer_digests.clone(),
            layer_dirty: self.layer_dirty.clone(),
            view_digest: self.view_digest.clone(),
            view_dirty: self.view_dirty.clone(),
            tracer: self.tracer.clone(),
            traced: self.traced,
        }
    }

    /// Layer names, top first.
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.get().name()).collect()
    }

    /// Creates an application message against this stack's layout.
    pub fn new_message(&self, body: impl Into<Bytes>) -> Message {
        Message::new(self.layout.clone(), body)
    }

    /// Sets the stack's notion of "now".  Executors call this before
    /// [`Stack::handle_into`] whenever virtual or real time has advanced.
    /// Monotone: an older timestamp (possible under the threaded executor,
    /// where inputs are timestamped at enqueue time) is ignored.
    pub fn set_now(&mut self, now: SimTime) {
        self.now = self.now.max(now);
    }

    /// Current virtual time as last told by the executor.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The `focus` downcall of Table 1: a state report from the named layer.
    pub fn focus(&self, name: &str) -> Option<String> {
        self.layers.iter().find(|l| l.get().name() == name).map(|l| l.get().dump())
    }

    /// Typed `focus`: borrow a layer's concrete type (layers opt in through
    /// [`Layer::as_any`]).
    pub fn focus_as<T: 'static>(&self, name: &str) -> Option<&T> {
        self.layers
            .iter()
            .find(|l| l.get().name() == name)
            .and_then(|l| l.get().as_any())
            .and_then(|a| a.downcast_ref::<T>())
    }

    /// The `dump` downcall: every layer's state report, top first.
    pub fn dump(&self) -> Vec<(&'static str, String)> {
        self.layers.iter().map(|l| (l.get().name(), l.get().dump())).collect()
    }

    /// Total [`Layer::pending_work`] across the stack: how much state still
    /// obliges some layer to act.  `0` means the stack is fully drained —
    /// the condition liveness monitors demand once the network is quiet.
    pub fn pending_work(&self) -> u64 {
        self.layers.iter().map(|l| l.get().pending_work()).sum()
    }

    /// Feeds this stack's protocol state into a model-checking digest: the
    /// endpoint identity, lifecycle flags, current view, and one 64-bit
    /// digest per layer (the layer's name plus its [`Layer::digest_state`]
    /// contribution), top first.  This is the **from-scratch** path; it must
    /// stay bit-identical to [`Stack::state_digest_cached`], which the
    /// differential test in `tests/check_fingerprint.rs` enforces.
    ///
    /// Two caveats the checker documents: the per-stack jitter RNG is not
    /// part of the digest (two merged states may diverge in future jitter
    /// draws), and layers that rely on the default `dump`-based digest are
    /// only as discriminating as their dump string.
    pub fn state_digest_into(&self, d: &mut crate::digest::StateDigest) {
        self.digest_meta(d, self.view_digest_fresh());
        for i in 0..self.layers.len() {
            d.write_u64(self.layer_digest_fresh(i));
        }
    }

    /// The 64-bit state digest ([`Stack::state_digest_into`] finished).
    pub fn state_digest(&self) -> u64 {
        let mut d = crate::digest::StateDigest::new();
        self.state_digest_into(&mut d);
        d.finish()
    }

    /// The incremental counterpart of [`Stack::state_digest`]: per-layer
    /// digests are served from the cache and only layers dispatched into
    /// since the last call are re-digested.  Bit-identical to the
    /// from-scratch path by construction — both combine the same per-layer
    /// digests in the same order — provided the dirty-marking invariant
    /// holds (see the `layer_digests` field).
    pub fn state_digest_cached(&self) -> u64 {
        if self.view_dirty.get() {
            self.view_digest.set(self.view_digest_fresh());
            self.view_dirty.set(false);
        }
        let mut d = crate::digest::StateDigest::new();
        self.digest_meta(&mut d, self.view_digest.get());
        for i in 0..self.layers.len() {
            if self.layer_dirty[i].get() {
                self.layer_digests[i].set(self.layer_digest_fresh(i));
                self.layer_dirty[i].set(false);
            }
            d.write_u64(self.layer_digests[i].get());
        }
        d.finish()
    }

    /// The scalar stack fields every digest starts with.  `group` and
    /// `destroyed` are plain integers, so they are digested fresh each time;
    /// only the view (a `format!`) is worth caching.
    fn digest_meta(&self, d: &mut crate::digest::StateDigest, view_digest: u64) {
        d.write_u64(self.local.raw());
        d.write_u64(self.fingerprint as u64);
        d.write_u64(self.destroyed as u64);
        d.write_u64(self.group.map(|g| g.raw()).unwrap_or(0));
        d.write_u64(view_digest);
    }

    fn view_digest_fresh(&self) -> u64 {
        let mut vd = crate::digest::StateDigest::new();
        match &self.view {
            Some(v) => vd.write_str(&v.to_string()),
            None => vd.write_str("-"),
        }
        vd.finish()
    }

    fn layer_digest_fresh(&self, i: usize) -> u64 {
        let mut ld = crate::digest::StateDigest::new();
        ld.write_str(self.layers[i].get().name());
        self.layers[i].get().digest_state(&mut ld);
        ld.finish()
    }

    /// Runs every layer's [`Layer::on_init`], appending the effects to
    /// `sink`.  Executors must call this exactly once, before any input, and
    /// perform the effects (layers arm their periodic timers here).
    pub fn init(&mut self, sink: &mut EffectSink) {
        let effects = sink.buf();
        for i in 0..self.layers.len() {
            self.layer_dirty[i].set(true);
            let mut emitted = std::mem::take(&mut self.emit_buf);
            let mut ctx = LayerCtx {
                layer: i,
                now: self.now,
                local: self.local,
                layout: &self.layout,
                rng: &mut self.rng,
                emitted: &mut emitted,
                stats: &mut self.stats,
                tracer: if self.traced { self.tracer.as_deref() } else { None },
            };
            self.layers[i].make_mut().on_init(&mut ctx);
            self.absorb(i, &mut emitted, effects);
            self.emit_buf = emitted;
            self.drain(effects);
        }
    }

    /// Drains a burst of inputs through the stack in one pass, appending all
    /// effects to `sink` in order.
    ///
    /// Exactly equivalent to calling [`Stack::handle_into`] once per input in
    /// sequence — each input still runs to completion before the next starts,
    /// so batching is observationally invisible (the batch differential test
    /// holds this to byte-identical effects).  What the batch buys is
    /// amortization: one warm effect sink, warm scratch and emission buffers,
    /// and one executor round-trip for the whole burst instead of one per
    /// event.
    pub fn handle_batch(
        &mut self,
        inputs: impl IntoIterator<Item = StackInput>,
        sink: &mut EffectSink,
    ) {
        self.stats.batches += 1;
        for input in inputs {
            self.stats.batched_inputs += 1;
            self.handle_into(input, sink);
        }
    }

    /// Feeds one input through the stack, appending the effects to perform
    /// to `sink` (which is *not* cleared first — executors drain it).
    ///
    /// This is the single scheduler of the event-queue execution model: the
    /// internal work queue drains completely before `handle_into` returns, so
    /// one input's processing is never interleaved with another's.
    pub fn handle_into(&mut self, input: StackInput, sink: &mut EffectSink) {
        let scratch_cap = self.scratch.capacity();
        let emit_cap = self.emit_buf.capacity();
        let effects = sink.buf();
        if self.destroyed {
            return;
        }
        match input {
            StackInput::FromApp(Down::Dump) => {
                // The dump downcall is answered by the runtime on behalf of
                // every layer, so even passive layers appear.
                for l in &self.layers {
                    let l = l.get();
                    effects.push(Effect::Deliver(Up::DumpInfo { layer: l.name(), info: l.dump() }));
                }
                return;
            }
            StackInput::FromApp(down) => {
                if let Down::Join { group } = &down {
                    self.group = Some(*group);
                }
                match self.first_active_down(0) {
                    Some(i) => self.scratch.push_back((i, Item::Down(down))),
                    None => self.bottom_out(down, effects),
                }
            }
            StackInput::FromNet { from, cast, wire } => {
                self.stats.bytes_received += wire.len() as u64;
                match self.decode_frame(&wire) {
                    Ok(mut msg) => {
                        self.stats.msgs_received += 1;
                        msg.meta.src = Some(from);
                        let up = if cast {
                            Up::Cast { src: from, msg }
                        } else {
                            Up::Send { src: from, msg }
                        };
                        let n = self.layers.len();
                        match self.first_active_up(n - 1) {
                            Some(i) => self.scratch.push_back((i, Item::Up(up))),
                            None => self.top_out(up, effects),
                        }
                    }
                    Err(reason) => {
                        match reason {
                            DropReason::Fingerprint => self.stats.fingerprint_drops += 1,
                            _ => self.stats.decode_drops += 1,
                        }
                        self.trace(TraceKind::FrameDrop { digest: 0, seq: 0, reason });
                    }
                }
            }
            StackInput::Timer { layer, token, now } => {
                self.set_now(now);
                if layer < self.layers.len() {
                    self.scratch.push_back((layer, Item::Timer(token)));
                }
            }
            StackInput::Tick { now } => {
                self.set_now(now);
            }
        }
        self.drain(effects);
        if self.scratch.capacity() > scratch_cap || self.emit_buf.capacity() > emit_cap {
            self.stats.dispatch_buf_grows += 1;
        }
    }

    /// Index of the first non-skipped layer at or below `i` (toward the
    /// network).
    fn first_active_down(&self, i: usize) -> Option<usize> {
        if !self.config.skip_passive {
            return (i < self.layers.len()).then_some(i);
        }
        (i..self.layers.len()).find(|&j| !self.layers[j].get().is_passive())
    }

    /// Index of the first non-skipped layer at or above `i` (toward the
    /// application).
    fn first_active_up(&self, i: usize) -> Option<usize> {
        if !self.config.skip_passive {
            return Some(i);
        }
        (0..=i).rev().find(|&j| !self.layers[j].get().is_passive())
    }

    fn drain(&mut self, effects: &mut Vec<Effect>) {
        while let Some((idx, item)) = self.scratch.pop_front() {
            self.stats.dispatches += 1;
            self.layer_dirty[idx].set(true);
            // Occupancy: the popped item plus whatever is still queued.
            self.stats.scratch_peak = self.stats.scratch_peak.max(self.scratch.len() as u64 + 1);
            {
                let traffic = &mut self.stats.per_layer[idx];
                match &item {
                    Item::Down(_) => traffic.downs += 1,
                    Item::Up(_) => traffic.ups += 1,
                    Item::Timer(_) => traffic.timers += 1,
                }
            }
            if self.traced {
                let layer = self.layers[idx].get().name();
                self.trace(match &item {
                    Item::Down(_) => TraceKind::LayerDown { layer },
                    Item::Up(_) => TraceKind::LayerUp { layer },
                    Item::Timer(token) => TraceKind::LayerTimer { layer, token: *token },
                });
            }
            let mut emitted = std::mem::take(&mut self.emit_buf);
            let mut ctx = LayerCtx {
                layer: idx,
                now: self.now,
                local: self.local,
                layout: &self.layout,
                rng: &mut self.rng,
                emitted: &mut emitted,
                stats: &mut self.stats,
                tracer: if self.traced { self.tracer.as_deref() } else { None },
            };
            match item {
                Item::Down(ev) => self.layers[idx].make_mut().on_down(ev, &mut ctx),
                Item::Up(ev) => self.layers[idx].make_mut().on_up(ev, &mut ctx),
                Item::Timer(token) => self.layers[idx].make_mut().on_timer(token, &mut ctx),
            }
            self.absorb(idx, &mut emitted, effects);
            self.emit_buf = emitted;
        }
    }

    /// Routes what layer `idx` emitted: to neighbouring layers' queues or to
    /// executor effects.
    fn absorb(&mut self, idx: usize, emitted: &mut Vec<Emit>, effects: &mut Vec<Effect>) {
        if self.config.skip_passive {
            // Count what the skip optimization saved: each emitted event
            // would otherwise visit every passive neighbour it bypasses.
            for e in emitted.iter() {
                match e {
                    Emit::Down(_) => {
                        let next = self.first_active_down(idx + 1).unwrap_or(self.layers.len());
                        self.stats.skipped += (next - (idx + 1)) as u64;
                    }
                    Emit::Up(_) if idx > 0 => {
                        let next = self.first_active_up(idx - 1).map(|j| j + 1).unwrap_or(0);
                        self.stats.skipped += (idx - next) as u64;
                    }
                    _ => {}
                }
            }
        }
        for e in emitted.drain(..) {
            match e {
                Emit::Down(ev) => match self.first_active_down(idx + 1) {
                    Some(j) => self.scratch.push_back((j, Item::Down(ev))),
                    None => self.bottom_out(ev, effects),
                },
                Emit::Up(ev) => {
                    let dest = if idx == 0 { None } else { self.first_active_up(idx - 1) };
                    match dest {
                        Some(j) => self.scratch.push_back((j, Item::Up(ev))),
                        None => self.top_out(ev, effects),
                    }
                }
                Emit::Timer { token, delay } => {
                    self.trace(TraceKind::TimerArm {
                        layer: idx,
                        token,
                        delay_us: delay.as_micros() as u64,
                    });
                    effects.push(Effect::SetTimer { layer: idx, token, delay });
                }
            }
        }
    }

    /// A downcall fell off the bottom of the stack: convert to transport
    /// effects.
    fn bottom_out(&mut self, ev: Down, effects: &mut Vec<Effect>) {
        match ev {
            Down::Cast(msg) => {
                let wire = self.encode_frame(&msg);
                self.stats.msgs_sent += 1;
                self.stats.bytes_sent += wire.len() as u64;
                self.stats.header_bytes_sent += msg.header_wire_len() as u64;
                self.trace(TraceKind::FrameSend { cast: true, bytes: wire.len() });
                effects.push(Effect::NetCast { wire });
            }
            Down::Send { dests, msg } => {
                let wire = self.encode_frame(&msg);
                self.stats.msgs_sent += 1;
                self.stats.bytes_sent += wire.len() as u64;
                self.stats.header_bytes_sent += msg.header_wire_len() as u64;
                self.trace(TraceKind::FrameSend { cast: false, bytes: wire.len() });
                effects.push(Effect::NetSend { dests, wire });
            }
            Down::Join { group } => effects.push(Effect::NetJoin { group }),
            Down::Leave => effects.push(Effect::NetLeave),
            Down::Destroy => {
                self.destroyed = true;
                self.scratch.clear();
                effects.push(Effect::NetLeave);
                effects.push(Effect::Deliver(Up::Destroy));
            }
            // Control downcalls consumed by protocol layers; reaching the
            // bottom means no layer in this composition implements them.
            other => self.trace_lazy(|| {
                TraceKind::Note(format!(
                    "downcall `{}` fell off the bottom of the stack unconsumed",
                    other.kind()
                ))
            }),
        }
    }

    /// An upcall crossed the top of the stack: deliver to the application.
    fn top_out(&mut self, ev: Up, effects: &mut Vec<Effect>) {
        if let Up::View(v) = &ev {
            self.view = Some(v.clone());
            self.view_dirty.set(true);
            self.trace_lazy(|| TraceKind::ViewInstall { view: v.to_string() });
        }
        // Delivery identity: `(src, content digest)` is executor- and
        // timestamp-independent, so cross-executor determinism checks
        // compare it directly.
        self.trace_lazy(|| {
            let (src, digest) = match &ev {
                Up::Cast { src, msg } | Up::Send { src, msg } => {
                    let mut d = StateDigest::new();
                    d.write_u64(src.raw());
                    d.write_bytes(msg.body());
                    (src.raw(), d.finish())
                }
                _ => (0, 0),
            };
            TraceKind::Deliver { kind: ev.kind(), src, digest }
        });
        effects.push(Effect::Deliver(ev));
    }

    /// Frame: `[u16 fingerprint][u32 checksum][u16 hdr_len][hdr][body]`,
    /// carried as a scatter-gather [`WireFrame`] whose head (envelope +
    /// header area) is built here in a single exact-capacity allocation and
    /// whose body *is* the message body — the application's payload `Bytes`
    /// reaches the transport by reference, never by copy.
    ///
    /// The checksum covers `hdr_len|hdr|body` (computed streaming over the
    /// two segments) — the link-level CRC every real datagram network
    /// provides, and what makes the COM/frame level's byte re-ordering
    /// detection (P10) actually true over the garbling simulated network.
    fn encode_frame(&self, msg: &Message) -> WireFrame {
        WireFrame::build(self.fingerprint, msg.header_area(), msg.body().clone())
    }

    /// Decodes a received frame; the error is why it was dropped (a short
    /// or garbled frame, or one from a differently composed stack).
    fn decode_frame(&self, frame: &WireFrame) -> Result<Message, DropReason> {
        let (head, body) = frame.canonical_parts().ok_or(DropReason::Decode)?;
        let fp = u16::from_le_bytes([head[0], head[1]]);
        if fp != self.fingerprint {
            return Err(DropReason::Fingerprint);
        }
        let sum = u32::from_le_bytes([head[2], head[3], head[4], head[5]]);
        let mut ck = FrameChecksum::new();
        ck.update(&head[6..]);
        ck.update(&body);
        if sum != ck.finish() {
            return Err(DropReason::Decode);
        }
        // Zero-copy receive: the body segment is attached to the decoded
        // message as-is.
        Message::decode_parts(self.layout.clone(), &head[ENVELOPE_BYTES..], body)
            .map_err(|_| DropReason::Decode)
    }
}

impl fmt::Debug for Stack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stack")
            .field("local", &self.local)
            .field("layers", &self.layer_names())
            .field("mode", &self.config.mode)
            .field("fingerprint", &self.fingerprint)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::FieldSpec;

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

    /// A layer that stamps a sequence number on casts.
    #[derive(Debug, Default, Clone)]
    struct Seq {
        next: u64,
        seen: Vec<u64>,
    }
    const SEQ_FIELDS: &[FieldSpec] = &[FieldSpec::new("seq", 32)];
    impl Layer for Seq {
        fn name(&self) -> &'static str {
            "SEQ"
        }
        fn header_fields(&self) -> &'static [FieldSpec] {
            SEQ_FIELDS
        }
        fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
            match ev {
                Down::Cast(mut msg) => {
                    ctx.stamp(&mut msg);
                    ctx.set(&mut msg, 0, self.next);
                    self.next += 1;
                    ctx.down(Down::Cast(msg));
                }
                other => ctx.down(other),
            }
        }
        fn on_up(&mut self, ev: Up, ctx: &mut LayerCtx<'_>) {
            match ev {
                Up::Cast { src, mut msg } => {
                    ctx.open(&mut msg).unwrap();
                    self.seen.push(ctx.get(&msg, 0));
                    ctx.up(Up::Cast { src, msg });
                }
                other => ctx.up(other),
            }
        }
        fn dump(&self) -> String {
            format!("next={} seen={}", self.next, self.seen.len())
        }
        fn as_any(&self) -> Option<&dyn std::any::Any> {
            Some(self)
        }
    }

    fn ep(i: u64) -> EndpointAddr {
        EndpointAddr::new(i)
    }

    /// One input through `s`, its effects collected in a fresh sink.
    fn handle(s: &mut Stack, input: StackInput) -> Vec<Effect> {
        let mut sink = EffectSink::new();
        s.handle_into(input, &mut sink);
        sink.into_effects()
    }

    fn two_layer_stack(mode: HeaderMode) -> Stack {
        StackBuilder::new(ep(1))
            .push(Box::new(Seq::default()))
            .push(Box::new(Nop))
            .mode(mode)
            .build()
            .unwrap()
    }

    #[test]
    fn cast_falls_out_the_bottom_as_netcast() {
        let mut s = two_layer_stack(HeaderMode::Compact);
        let m = s.new_message(&b"hi"[..]);
        let fx = handle(&mut s, StackInput::FromApp(Down::Cast(m)));
        assert_eq!(fx.len(), 1);
        assert!(matches!(fx[0], Effect::NetCast { .. }));
        assert_eq!(s.stats().msgs_sent, 1);
    }

    #[test]
    fn loopback_roundtrip_preserves_body_and_fields() {
        for mode in [HeaderMode::Compact, HeaderMode::Aligned] {
            let mut a = two_layer_stack(mode);
            let mut b = StackBuilder::new(ep(2))
                .push(Box::new(Seq::default()))
                .push(Box::new(Nop))
                .mode(mode)
                .build()
                .unwrap();
            let m = a.new_message(&b"payload"[..]);
            let fx = handle(&mut a, StackInput::FromApp(Down::Cast(m)));
            let wire = match &fx[0] {
                Effect::NetCast { wire } => wire.clone(),
                other => panic!("unexpected {other:?}"),
            };
            let fx = handle(&mut b, StackInput::FromNet { from: ep(1), cast: true, wire });
            let delivered = fx
                .iter()
                .find_map(|e| match e {
                    Effect::Deliver(Up::Cast { src, msg }) => Some((*src, msg.clone())),
                    _ => None,
                })
                .expect("delivery");
            assert_eq!(delivered.0, ep(1));
            assert_eq!(delivered.1.body(), &b"payload"[..]);
            let seq: &Seq = b.focus_as("SEQ").unwrap();
            assert_eq!(seq.seen, vec![0]);
        }
    }

    #[test]
    fn transmitted_body_shares_storage_with_app_payload() {
        // The scatter-gather frame ships the application's Bytes by
        // reference: same backing storage at the transport boundary, and
        // again on the receiving stack's delivered message.
        let mut a = two_layer_stack(HeaderMode::Compact);
        let mut b = StackBuilder::new(ep(2))
            .push(Box::new(Seq::default()))
            .push(Box::new(Nop))
            .build()
            .unwrap();
        let payload = Bytes::from(vec![0xAB; 256]);
        let m = a.new_message(payload.clone());
        let fx = handle(&mut a, StackInput::FromApp(Down::Cast(m)));
        let wire = match &fx[0] {
            Effect::NetCast { wire } => wire.clone(),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(wire.body().as_ptr(), payload.as_ptr());
        assert_eq!(a.stats().payload_copies, 0);
        let fx = handle(&mut b, StackInput::FromNet { from: ep(1), cast: true, wire });
        let delivered = fx
            .iter()
            .find_map(|e| match e {
                Effect::Deliver(Up::Cast { msg, .. }) => Some(msg.clone()),
                _ => None,
            })
            .expect("delivery");
        assert_eq!(delivered.body().as_ptr(), payload.as_ptr());
        assert_eq!(b.stats().payload_copies, 0);
    }

    #[test]
    fn fingerprint_mismatch_drops() {
        let mut a = two_layer_stack(HeaderMode::Compact);
        // A stack with different composition.
        let mut b = StackBuilder::new(ep(2)).push(Box::new(Nop)).build().unwrap();
        let m = a.new_message(&b"x"[..]);
        let fx = handle(&mut a, StackInput::FromApp(Down::Cast(m)));
        let wire = match &fx[0] {
            Effect::NetCast { wire } => wire.clone(),
            _ => unreachable!(),
        };
        let fx = handle(&mut b, StackInput::FromNet { from: ep(1), cast: true, wire });
        assert!(fx.is_empty());
        assert_eq!(b.stats().fingerprint_drops, 1);
        assert_eq!(b.stats().decode_drops, 0);
    }

    #[test]
    fn skip_passive_counts_saved_dispatches() {
        let build = |skip| {
            StackBuilder::new(ep(1))
                .push(Box::new(Seq::default()))
                .push(Box::new(Nop))
                .push(Box::new(Nop))
                .push(Box::new(Nop))
                .skip_passive(skip)
                .build()
                .unwrap()
        };
        let mut skipping = build(true);
        let mut plain = build(false);
        for s in [&mut skipping, &mut plain] {
            let m = s.new_message(&b"x"[..]);
            let _ = handle(s, StackInput::FromApp(Down::Cast(m)));
        }
        assert!(skipping.stats().dispatches < plain.stats().dispatches);
        assert_eq!(skipping.stats().skipped, 3);
    }

    #[test]
    fn dump_reports_every_layer() {
        let mut s = two_layer_stack(HeaderMode::Compact);
        let fx = handle(&mut s, StackInput::FromApp(Down::Dump));
        let names: Vec<_> = fx
            .iter()
            .filter_map(|e| match e {
                Effect::Deliver(Up::DumpInfo { layer, .. }) => Some(*layer),
                _ => None,
            })
            .collect();
        assert_eq!(names, vec!["SEQ", "NOP"]);
        assert_eq!(s.focus("SEQ").unwrap(), "next=0 seen=0");
        assert!(s.focus("MISSING").is_none());
    }

    #[test]
    fn destroy_is_terminal() {
        let mut s = two_layer_stack(HeaderMode::Compact);
        let fx = handle(&mut s, StackInput::FromApp(Down::Destroy));
        assert!(fx.iter().any(|e| matches!(e, Effect::Deliver(Up::Destroy))));
        assert!(fx.iter().any(|e| matches!(e, Effect::NetLeave)));
        assert!(s.is_destroyed());
        let m = s.new_message(&b"x"[..]);
        assert!(handle(&mut s, StackInput::FromApp(Down::Cast(m))).is_empty());
    }

    #[test]
    fn join_records_group_and_reaches_transport() {
        let mut s = two_layer_stack(HeaderMode::Compact);
        let fx = handle(&mut s, StackInput::FromApp(Down::Join { group: GroupAddr::new(5) }));
        assert!(matches!(fx[0], Effect::NetJoin { group } if group == GroupAddr::new(5)));
        assert_eq!(s.group(), Some(GroupAddr::new(5)));
    }

    #[test]
    fn unconsumed_control_downcall_traced() {
        #[derive(Debug, Default)]
        struct Notes(std::sync::Mutex<Vec<String>>);
        impl TraceSink for Notes {
            fn record(&self, ev: TraceEvent) {
                if let TraceKind::Note(text) = ev.kind {
                    self.0.lock().unwrap().push(text);
                }
            }
        }
        let notes = Arc::new(Notes::default());
        let mut s = two_layer_stack(HeaderMode::Compact);
        s.set_tracer(notes.clone());
        let fx = handle(&mut s, StackInput::FromApp(Down::FlushOk));
        assert!(fx.is_empty());
        let notes = notes.0.lock().unwrap();
        assert!(matches!(&notes[..], [t] if t.contains("flush_ok") && t.contains("fell off")));
    }

    #[test]
    fn empty_stack_rejected() {
        assert!(StackBuilder::new(ep(1)).build().is_err());
    }

    #[test]
    fn fingerprints_differ_across_modes_and_compositions() {
        let a = two_layer_stack(HeaderMode::Compact).fingerprint();
        let b = two_layer_stack(HeaderMode::Aligned).fingerprint();
        let c = StackBuilder::new(ep(1)).push(Box::new(Nop)).build().unwrap().fingerprint();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn cached_digest_matches_fresh_across_mutations() {
        let mut a = two_layer_stack(HeaderMode::Compact);
        let mut b = StackBuilder::new(ep(2))
            .push(Box::new(Seq::default()))
            .push(Box::new(Nop))
            .build()
            .unwrap();
        assert_eq!(a.state_digest_cached(), a.state_digest(), "fresh build");
        let before = a.state_digest_cached();
        let m = a.new_message(&b"hi"[..]);
        let fx = handle(&mut a, StackInput::FromApp(Down::Cast(m)));
        assert_eq!(a.state_digest_cached(), a.state_digest(), "after a cast");
        assert_ne!(a.state_digest_cached(), before, "SEQ state advanced");
        let wire = match &fx[0] {
            Effect::NetCast { wire } => wire.clone(),
            other => panic!("unexpected {other:?}"),
        };
        let _ = handle(&mut b, StackInput::FromNet { from: ep(1), cast: true, wire });
        assert_eq!(b.state_digest_cached(), b.state_digest(), "after a receive");
        let _ = handle(&mut b, StackInput::FromApp(Down::Destroy));
        assert_eq!(b.state_digest_cached(), b.state_digest(), "after destroy");
    }

    #[test]
    fn timer_roundtrip() {
        /// Arms a timer on init and counts expirations.
        #[derive(Debug, Default, Clone)]
        struct Ticker {
            fired: u64,
        }
        impl Layer for Ticker {
            fn name(&self) -> &'static str {
                "TICK"
            }
            fn on_init(&mut self, ctx: &mut LayerCtx<'_>) {
                ctx.set_timer(std::time::Duration::from_millis(10), 7);
            }
            fn on_timer(&mut self, token: u64, _ctx: &mut LayerCtx<'_>) {
                assert_eq!(token, 7);
                self.fired += 1;
            }
            fn dump(&self) -> String {
                format!("fired={}", self.fired)
            }
        }
        let mut s = StackBuilder::new(ep(1)).push(Box::new(Ticker::default())).build().unwrap();
        let mut sink = EffectSink::new();
        s.init(&mut sink);
        let (layer, token) = sink
            .as_slice()
            .iter()
            .find_map(|e| match e {
                Effect::SetTimer { layer, token, .. } => Some((*layer, *token)),
                _ => None,
            })
            .expect("timer armed at init");
        let _ = handle(&mut s, StackInput::Timer { layer, token, now: SimTime::from_millis(10) });
        assert_eq!(s.focus("TICK").unwrap(), "fired=1");
        assert_eq!(s.now(), SimTime::from_millis(10));
    }
}
