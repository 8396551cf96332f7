//! The deterministic discrete-event executor.
//!
//! A [`SimWorld`] owns a set of endpoints (each a [`Stack`]), the simulated
//! network, and an event calendar ordered by virtual time.  Stacks are pure
//! state machines, the network is a pure function of its RNG, and the
//! calendar breaks ties by insertion order — so a `(seed, script)` pair
//! identifies exactly one execution.  This is what lets the repository
//! replay Figure 2 of the paper byte-for-byte, and lets the property tests
//! shrink failing schedules.

use bytes::Bytes;
use horus_core::digest::StateDigest;
use horus_core::prelude::*;
use horus_net::{FaultRule, FixedScheduler, NetConfig, NetScheduler, RandomScheduler, SimNetwork};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Safety valve: a single `run_until` may not process more events than this
/// (catches accidental message storms in protocol code).
const MAX_STEPS_PER_RUN: u64 = 50_000_000;

// Net deliveries dominate the calendar; boxing them would cost an
// allocation per simulated packet.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum Ev {
    /// A wire frame arrives at `to`.
    Net { to: EndpointAddr, from: EndpointAddr, cast: bool, wire: WireFrame },
    /// A stack timer expires.
    Timer { ep: EndpointAddr, layer: usize, token: u64 },
    /// The application issues a downcall.
    App { ep: EndpointAddr, down: Down },
    /// The endpoint crashes (fail-stop).
    Crash { ep: EndpointAddr },
    /// The network splits into the given regions.
    Partition { regions: Vec<Vec<EndpointAddr>> },
    /// All partitions heal.
    Heal,
    /// The scripted failure detector (§5) tells `observer` that `target`
    /// failed — possibly inaccurately.
    Suspect { observer: EndpointAddr, target: EndpointAddr },
    /// A targeted fault rule is installed in the network.
    Fault { rule: FaultRule },
}

/// One calendar entry: the event plus its time-independent payload digest,
/// computed once at insertion when pending tracking is on (see
/// [`SimWorld::fingerprint`]) so the pending-set combine never has to
/// re-digest wire frames on removal.
#[derive(Debug, Clone)]
struct Pending {
    ev: Ev,
    digest: u64,
    /// Vector clock of the dispatch that scheduled this entry (empty for
    /// scripted/root schedules, and always empty when pending tracking is
    /// off).  This is the happens-before side of the explorer's DPOR: two
    /// pending events whose creation clocks are strictly ordered are never
    /// treated as an exchangeable race.
    clock: VClock,
}

/// Identifies one pending calendar entry: `(scheduled time, insertion
/// sequence)`.  The pair is the calendar's total order, so iterating the
/// calendar *is* the legacy earliest-first, insertion-order-tie-break
/// dispatch order.
pub type EventId = (SimTime, u64);

/// What a pending calendar entry will do when fired — the read-only view a
/// [`crate::sched::Scheduler`] picks from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadyKind {
    /// A wire frame delivery into `to`'s stack.
    Deliver {
        /// Receiving endpoint.
        to: EndpointAddr,
        /// Transport-level sender.
        from: EndpointAddr,
        /// Multicast or point-to-point.
        cast: bool,
    },
    /// A stack timer expiry at `ep`.
    Timer {
        /// The endpoint whose stack armed the timer.
        ep: EndpointAddr,
        /// Arming layer index.
        layer: usize,
        /// Timer token.
        token: u64,
    },
    /// A scripted application downcall at `ep`.
    App {
        /// The endpoint receiving the downcall.
        ep: EndpointAddr,
    },
    /// A scripted fail-stop crash of `ep`.
    Crash {
        /// The crashing endpoint.
        ep: EndpointAddr,
    },
    /// A scripted (possibly inaccurate) suspicion.
    Suspect {
        /// The endpoint being told.
        observer: EndpointAddr,
        /// The endpoint it will suspect.
        target: EndpointAddr,
    },
    /// A scripted partition change.
    Partition,
    /// A scripted heal of all partitions.
    Heal,
    /// A scripted fault-rule installation.
    Fault,
}

impl ReadyKind {
    /// The endpoint whose stack this event dispatches into, if any.
    /// Events touching only world/network state return `None`.
    pub fn target(&self) -> Option<EndpointAddr> {
        match *self {
            ReadyKind::Deliver { to, .. } => Some(to),
            ReadyKind::Timer { ep, .. } | ReadyKind::App { ep } | ReadyKind::Crash { ep } => {
                Some(ep)
            }
            ReadyKind::Suspect { observer, .. } => Some(observer),
            ReadyKind::Partition | ReadyKind::Heal | ReadyKind::Fault => None,
        }
    }

    /// Whether this is a remote frame delivery (the only event class the
    /// explorer may convert into an induced drop — loopback is reliable).
    pub fn droppable(&self) -> bool {
        matches!(self, ReadyKind::Deliver { to, from, .. } if to != from)
    }
}

/// One entry of the ready set handed to a scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadyEvent {
    /// Calendar key; pass back to [`SimWorld::fire`] / [`SimWorld::drop_pending`].
    pub id: EventId,
    /// Scheduled firing time.
    pub at: SimTime,
    /// What firing it will do.
    pub kind: ReadyKind,
}

struct Slot {
    stack: Stack,
    upcalls: Vec<(SimTime, Up)>,
    alive: bool,
    /// Incremental digest of the delivery-relevant upcall history, so the
    /// world fingerprint distinguishes states whose stacks converged but
    /// whose observable histories diverged.
    log_digest: StateDigest,
    /// Cached endpoint contribution to [`SimWorld::fingerprint`].  Valid —
    /// and summed into [`SimWorld::slots_sum`] — exactly when `dirty` is
    /// false.
    digest: Cell<u64>,
    /// Set (and the endpoint queued on [`SimWorld::dirty_eps`]) whenever an
    /// event dispatches into this endpoint (stack input, crash), so a
    /// fingerprint only re-digests the slots actually touched since the
    /// last one — no per-slot scan.
    dirty: Cell<bool>,
}

/// A vector clock: sorted `(endpoint raw address, counter)` pairs; absent
/// components are zero.  Groups are small, so a sorted vec beats a map.
type VClock = Vec<(u64, u64)>;

/// Componentwise `join` (pointwise max) of `b` into `a`.
fn vc_join(a: &mut VClock, b: &[(u64, u64)]) {
    for &(r, n) in b {
        match a.binary_search_by_key(&r, |&(ar, _)| ar) {
            Ok(i) => a[i].1 = a[i].1.max(n),
            Err(i) => a.insert(i, (r, n)),
        }
    }
}

/// Strict happens-before on clocks: `a ≤ b` componentwise and `a ≠ b`.
fn vc_lt(a: &[(u64, u64)], b: &[(u64, u64)]) -> bool {
    let le = |x: &[(u64, u64)], y: &[(u64, u64)]| {
        x.iter().all(|&(r, n)| {
            n <= y.binary_search_by_key(&r, |&(yr, _)| yr).map(|i| y[i].1).unwrap_or(0)
        })
    };
    le(a, b) && !le(b, a)
}

/// The discrete-event world: endpoints, network, calendar, virtual clock.
///
/// ```
/// use horus_sim::SimWorld;
/// use horus_net::NetConfig;
/// use horus_core::prelude::*;
/// use std::time::Duration;
///
/// #[derive(Debug, Default, Clone)]
/// struct Nop;
/// impl Layer for Nop { fn name(&self) -> &'static str { "NOP" } }
///
/// let mut w = SimWorld::new(1, NetConfig::reliable());
/// let a = EndpointAddr::new(1);
/// let b = EndpointAddr::new(2);
/// for ep in [a, b] {
///     let stack = StackBuilder::new(ep).push(Box::new(Nop)).build()?;
///     w.add_endpoint(stack);
///     w.join(ep, GroupAddr::new(1));
/// }
/// w.cast_bytes(a, &b"hi"[..]);
/// w.run_for(Duration::from_millis(10));
/// let got = w.delivered_casts(b);
/// assert_eq!(got.len(), 1);
/// assert_eq!(&got[0].1[..], b"hi");
/// # Ok::<(), HorusError>(())
/// ```
pub struct SimWorld {
    time: SimTime,
    seq: u64,
    steps: u64,
    step_limit: u64,
    calendar: BTreeMap<EventId, Pending>,
    net: SimNetwork,
    endpoints: BTreeMap<EndpointAddr, Slot>,
    sched: Box<dyn NetScheduler + Send>,
    /// Reusable effect buffer for every stack dispatch; empty between
    /// dispatches.
    sink: EffectSink,
    /// The dirty *queue*: endpoints dispatched into since the last
    /// fingerprint, each queued at most once (policed by [`Slot::dirty`]).
    /// [`SimWorld::fingerprint`] drains this instead of scanning every slot.
    dirty_eps: RefCell<Vec<EndpointAddr>>,
    /// Wrapping sum of [`Slot::digest`] over *clean* slots.  Touching a slot
    /// subtracts its stale contribution; the fingerprint adds the fresh one
    /// back while draining the queue, keeping the sum exact without a walk.
    slots_sum: Cell<u64>,
    /// Per-endpoint vector clocks (maintained only when `track_pending`):
    /// joined with the fired event's creation clock and bumped at every
    /// dispatch, then stamped onto whatever the dispatch schedules.
    clocks: BTreeMap<EndpointAddr, VClock>,
    /// The clock new calendar entries are stamped with: the dispatching
    /// endpoint's clock during a dispatch, empty (root) for scripted
    /// schedules.
    ctx_clock: VClock,
    /// When set, per-entry payload digests are computed at insertion and the
    /// pending-set sums below are maintained at every insert/remove, making
    /// the pending part of [`SimWorld::fingerprint`] O(1).  Enabled by
    /// [`SimWorld::deterministic`] (the model checker fingerprints at every
    /// branch point); plain simulations skip the digest-at-insert cost.
    track_pending: bool,
    /// `Σ h_e` over pending entries (wrapping), where `h_e` is the entry's
    /// time-independent payload digest.
    pending_s1: u64,
    /// `Σ h_e · t_e` (wrapping), `t_e` the entry's absolute firing time in
    /// nanoseconds.  Because this is *linear* in absolute time, the
    /// relative-to-now combine the fingerprint needs is just
    /// `S2 - now·S1` — no walk required when the clock advances.
    pending_s2: u64,
    /// Trace sink observing every fired calendar event (with its payload
    /// digest, sequence number and — under pending tracking — vector
    /// clock), plus everything the stacks and network report.  `None` by
    /// default: one branch per fire.
    tracer: Option<Arc<dyn TraceSink>>,
}

impl SimWorld {
    /// Creates a world with a deterministic seed and network physics.  The
    /// network's probabilistic choice points are resolved by a
    /// [`RandomScheduler`] over that seed — exactly the RNG stream earlier
    /// revisions drew from directly, so `(seed, script)` replays are
    /// byte-identical across the scheduler extraction.
    pub fn new(seed: u64, config: NetConfig) -> Self {
        Self::with_net_scheduler(config, Box::new(RandomScheduler::new(seed)))
    }

    /// Creates a fully deterministic world for bounded model checking: a
    /// [`FixedScheduler`] pins latency to `latency_min` and never fires a
    /// probabilistic fault, so the only nondeterminism left is the schedule
    /// itself — which the explorer controls through [`SimWorld::fire`].
    pub fn deterministic(config: NetConfig) -> Self {
        let mut w = Self::with_net_scheduler(config, Box::new(FixedScheduler));
        w.set_pending_tracking(true);
        w
    }

    /// Creates a world with an explicit network-choice scheduler.
    pub fn with_net_scheduler(config: NetConfig, sched: Box<dyn NetScheduler + Send>) -> Self {
        SimWorld {
            time: SimTime::ZERO,
            seq: 0,
            steps: 0,
            step_limit: MAX_STEPS_PER_RUN,
            calendar: BTreeMap::new(),
            net: SimNetwork::new(config),
            endpoints: BTreeMap::new(),
            sched,
            sink: EffectSink::new(),
            dirty_eps: RefCell::new(Vec::new()),
            slots_sum: Cell::new(0),
            clocks: BTreeMap::new(),
            ctx_clock: Vec::new(),
            track_pending: false,
            pending_s1: 0,
            pending_s2: 0,
            tracer: None,
        }
    }

    /// Installs a trace sink into the world, its network, and every current
    /// and future endpoint stack.  Virtual-time worlds stamp each fired
    /// event with its causal vector clock (when pending tracking is on), so
    /// the resulting trace is causally ordered, not just time-ordered.
    pub fn set_tracer(&mut self, tracer: Arc<dyn TraceSink>) {
        self.net.set_tracer(tracer.clone());
        for slot in self.endpoints.values_mut() {
            slot.stack.set_tracer(tracer.clone());
        }
        self.tracer = Some(tracer);
    }

    /// Removes the trace sink everywhere.
    pub fn clear_tracer(&mut self) {
        self.net.clear_tracer();
        for slot in self.endpoints.values_mut() {
            slot.stack.clear_tracer();
        }
        self.tracer = None;
    }

    /// Records the firing of one calendar entry: the event's kind-specific
    /// record carrying its run-independent payload digest and calendar
    /// sequence number — the identity the trace→schedule bridge matches
    /// ready-set options against.  World-global events are recorded against
    /// the `ep:0` sentinel.
    fn trace_fire(&self, seq: u64, digest: u64, ev: &Ev) {
        let Some(t) = &self.tracer else { return };
        let digest = if digest != 0 { digest } else { ev_digest(ev) };
        let (ep, kind) = match ev {
            Ev::Net { to, from, cast, wire } => (
                *to,
                TraceKind::FrameDeliver {
                    from: *from,
                    cast: *cast,
                    bytes: wire.len(),
                    digest,
                    seq,
                },
            ),
            Ev::Timer { ep, layer, token } => {
                (*ep, TraceKind::TimerFire { layer: *layer, token: *token, digest, seq })
            }
            Ev::App { ep, down } => (*ep, TraceKind::AppDown { kind: down.kind(), digest, seq }),
            Ev::Crash { ep } => (*ep, TraceKind::Crash { digest, seq }),
            Ev::Suspect { observer, target } => {
                (*observer, TraceKind::Suspect { target: *target, digest, seq })
            }
            Ev::Partition { .. } => (EndpointAddr::NULL, TraceKind::Partition { digest, seq }),
            Ev::Heal => (EndpointAddr::NULL, TraceKind::Heal { digest, seq }),
            Ev::Fault { .. } => (EndpointAddr::NULL, TraceKind::Fault { digest, seq }),
        };
        t.set_clock(&self.ctx_clock);
        t.record(TraceEvent { at: self.time, ep, kind });
    }

    /// Turns incremental pending-set digesting on or off.  Entries already
    /// in the calendar are (re)digested so the maintained sums stay exact;
    /// turning tracking off zeroes them.
    pub fn set_pending_tracking(&mut self, on: bool) {
        self.track_pending = on;
        self.pending_s1 = 0;
        self.pending_s2 = 0;
        for (&(at, _), p) in self.calendar.iter_mut() {
            p.digest = if on { ev_digest(&p.ev) } else { 0 };
            if on {
                self.pending_s1 = self.pending_s1.wrapping_add(p.digest);
                self.pending_s2 =
                    self.pending_s2.wrapping_add(p.digest.wrapping_mul(at.as_nanos()));
            }
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// The simulated network (for physics tweaks mid-run).
    pub fn net_mut(&mut self) -> &mut SimNetwork {
        &mut self.net
    }

    /// Network counters.
    pub fn net_stats(&self) -> &horus_net::NetStats {
        self.net.stats()
    }

    /// Registers an endpoint's stack and runs its layer initialisation.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint with the same address already exists.
    pub fn add_endpoint(&mut self, mut stack: Stack) -> EndpointAddr {
        let ep = stack.local_addr();
        assert!(!self.endpoints.contains_key(&ep), "endpoint {ep} already exists in this world");
        stack.set_now(self.time);
        if let Some(t) = &self.tracer {
            stack.set_tracer(t.clone());
        }
        stack.init(&mut self.sink);
        self.endpoints.insert(
            ep,
            Slot {
                stack,
                upcalls: Vec::new(),
                alive: true,
                log_digest: StateDigest::new(),
                digest: Cell::new(0),
                dirty: Cell::new(true),
            },
        );
        // A new slot starts dirty (contributing nothing to the clean-slot
        // sum) and queued, so the next fingerprint digests it.
        self.dirty_eps.borrow_mut().push(ep);
        self.apply_effects(ep);
        ep
    }

    /// Schedules a downcall at the current time.
    pub fn down(&mut self, ep: EndpointAddr, down: Down) {
        self.down_at(self.time, ep, down);
    }

    /// Schedules a downcall at an absolute virtual time.
    pub fn down_at(&mut self, at: SimTime, ep: EndpointAddr, down: Down) {
        self.schedule(at, Ev::App { ep, down });
    }

    /// Shorthand: `join` downcall now.
    pub fn join(&mut self, ep: EndpointAddr, group: GroupAddr) {
        self.down(ep, Down::Join { group });
    }

    /// Shorthand: casts an application payload now.
    pub fn cast_bytes(&mut self, ep: EndpointAddr, body: impl Into<Bytes>) {
        self.cast_bytes_at(self.time, ep, body);
    }

    /// Shorthand: casts an application payload at an absolute time.
    pub fn cast_bytes_at(&mut self, at: SimTime, ep: EndpointAddr, body: impl Into<Bytes>) {
        let msg = self
            .endpoints
            .get(&ep)
            .unwrap_or_else(|| panic!("unknown endpoint {ep}"))
            .stack
            .new_message(body.into());
        self.down_at(at, ep, Down::Cast(msg));
    }

    /// Schedules a fail-stop crash.
    pub fn crash_at(&mut self, at: SimTime, ep: EndpointAddr) {
        self.schedule(at, Ev::Crash { ep });
    }

    /// Schedules a network partition (each slice becomes one region).
    pub fn partition_at(&mut self, at: SimTime, regions: &[&[EndpointAddr]]) {
        let regions = regions.iter().map(|r| r.to_vec()).collect();
        self.schedule(at, Ev::Partition { regions });
    }

    /// Schedules the healing of all partitions.
    pub fn heal_at(&mut self, at: SimTime) {
        self.schedule(at, Ev::Heal);
    }

    /// Schedules a scripted failure-detector suspicion (§5): at `at`,
    /// `observer`'s stack receives `Down::Suspect { member: target }`.  The
    /// suspicion may be **inaccurate** — `target` need not have failed —
    /// which is exactly the detector class MBRSHIP must tolerate (a falsely
    /// suspected live member is excluded but re-merges; it is never
    /// permanently ejected).
    pub fn suspect_at(&mut self, at: SimTime, observer: EndpointAddr, target: EndpointAddr) {
        self.schedule(at, Ev::Suspect { observer, target });
    }

    /// Schedules the installation of a targeted network fault rule at an
    /// absolute virtual time (rules added before the run can also go in
    /// directly via [`SimNetwork::add_fault`]).
    pub fn fault_at(&mut self, at: SimTime, rule: FaultRule) {
        self.schedule(at, Ev::Fault { rule });
    }

    fn schedule(&mut self, at: SimTime, ev: Ev) {
        debug_assert!(at >= self.time, "cannot schedule into the past");
        self.seq += 1;
        let digest = if self.track_pending { ev_digest(&ev) } else { 0 };
        let clock = if self.track_pending { self.ctx_clock.clone() } else { Vec::new() };
        if self.track_pending {
            self.pending_s1 = self.pending_s1.wrapping_add(digest);
            self.pending_s2 = self.pending_s2.wrapping_add(digest.wrapping_mul(at.as_nanos()));
        }
        self.calendar.insert((at, self.seq), Pending { ev, digest, clock });
    }

    /// Reverses the [`SimWorld::schedule`] bookkeeping for a removed entry.
    fn untrack_pending(&mut self, at: SimTime, p: &Pending) {
        if self.track_pending {
            self.pending_s1 = self.pending_s1.wrapping_sub(p.digest);
            self.pending_s2 = self.pending_s2.wrapping_sub(p.digest.wrapping_mul(at.as_nanos()));
        }
    }

    /// Lowers (or raises) the event-count safety valve.  The default is 50
    /// million events per world; tests that deliberately provoke storms
    /// shrink it so the diagnostic fires quickly.
    pub fn set_step_limit(&mut self, limit: u64) {
        self.step_limit = limit;
    }

    /// Runs the calendar until `deadline` (inclusive); events after it stay
    /// queued.  Returns the number of events processed.
    ///
    /// # Panics
    ///
    /// Panics if more than the step limit (default 50 million) events fire
    /// — almost certainly a protocol message storm.  The panic message
    /// names the busiest endpoint and event kind in the calendar backlog so
    /// the offending protocol loop can be identified from the failure alone.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut processed = 0;
        while let Some((&(at, _), _)) = self.calendar.first_key_value() {
            if at > deadline {
                break;
            }
            let ((at, seq), p) = self.calendar.pop_first().expect("peeked entry");
            self.untrack_pending(at, &p);
            self.time = at;
            let Pending { ev, digest, clock } = p;
            self.begin_causal(Self::ready_kind(&ev).target(), clock);
            if self.tracer.is_some() {
                self.trace_fire(seq, digest, &ev);
            }
            self.dispatch(ev);
            self.ctx_clock.clear();
            processed += 1;
            self.steps += 1;
            if self.steps >= self.step_limit {
                panic!("{}", self.storm_report());
            }
        }
        self.time = self.time.max(deadline);
        processed
    }

    /// Builds the safety-valve diagnostic from the calendar backlog: during
    /// a message storm the backlog is dominated by the runaway loop, so the
    /// busiest `(endpoint, event kind)` pair names the culprit.
    fn storm_report(&self) -> String {
        let mut by_source: BTreeMap<(String, &'static str), u64> = BTreeMap::new();
        for p in self.calendar.values() {
            let (ep, kind) = match &p.ev {
                Ev::Net { to, .. } => (to.to_string(), "net delivery"),
                Ev::Timer { ep, .. } => (ep.to_string(), "timer"),
                Ev::App { ep, .. } => (ep.to_string(), "app downcall"),
                Ev::Crash { ep } => (ep.to_string(), "crash"),
                Ev::Suspect { observer, .. } => (observer.to_string(), "scripted suspicion"),
                Ev::Fault { .. } => ("<network>".to_string(), "fault rule"),
                Ev::Partition { .. } => ("<network>".to_string(), "partition"),
                Ev::Heal => ("<network>".to_string(), "heal"),
            };
            *by_source.entry((ep, kind)).or_insert(0) += 1;
        }
        let header = format!(
            "event-count safety valve tripped at {} after {} events: protocol message storm?",
            self.time, self.steps
        );
        match by_source.iter().max_by_key(|&(_, n)| n) {
            Some(((ep, kind), n)) => format!(
                "{header} busiest source in the {}-entry backlog is endpoint {ep} \
                 with {n} pending '{kind}' events",
                self.calendar.len()
            ),
            None => format!("{header} (calendar backlog is empty — limit set too low?)"),
        }
    }

    /// Runs the calendar for a further `d` of virtual time.
    pub fn run_for(&mut self, d: Duration) -> u64 {
        self.run_until(self.time + d)
    }

    /// Marks a slot dirty ahead of a mutation: pulls its stale contribution
    /// out of the clean-slot sum and queues the endpoint for re-digest at
    /// the next fingerprint.  Idempotent between fingerprints.
    fn touch(
        dirty_eps: &RefCell<Vec<EndpointAddr>>,
        slots_sum: &Cell<u64>,
        ep: EndpointAddr,
        slot: &Slot,
    ) {
        if !slot.dirty.get() {
            slot.dirty.set(true);
            slots_sum.set(slots_sum.get().wrapping_sub(slot.digest.get()));
            dirty_eps.borrow_mut().push(ep);
        }
    }

    /// Feeds one input into a live endpoint's stack and performs the
    /// effects.
    fn feed(&mut self, ep: EndpointAddr, input: StackInput) {
        let Some(slot) = self.endpoints.get_mut(&ep) else { return };
        if !slot.alive {
            return;
        }
        Self::touch(&self.dirty_eps, &self.slots_sum, ep, slot);
        slot.stack.set_now(self.time);
        slot.stack.handle_into(input, &mut self.sink);
        self.apply_effects(ep);
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::Net { to, from, cast, wire } => {
                self.feed(to, StackInput::FromNet { from, cast, wire });
            }
            Ev::Timer { ep, layer, token } => {
                self.feed(ep, StackInput::Timer { layer, token, now: self.time });
            }
            Ev::App { ep, down } => self.feed(ep, StackInput::FromApp(down)),
            Ev::Crash { ep } => {
                if let Some(slot) = self.endpoints.get_mut(&ep) {
                    Self::touch(&self.dirty_eps, &self.slots_sum, ep, slot);
                    slot.alive = false;
                    self.net.leave(ep);
                }
            }
            Ev::Partition { regions } => {
                let slices: Vec<&[EndpointAddr]> = regions.iter().map(|r| r.as_slice()).collect();
                self.net.partition(&slices);
            }
            Ev::Heal => self.net.heal(),
            Ev::Suspect { observer, target } => {
                self.feed(observer, StackInput::FromApp(Down::Suspect { member: target }));
            }
            Ev::Fault { rule } => {
                if let FaultRule::SuspicionStorm { ref observers, target } = rule {
                    // The network cannot evaluate a suspicion storm — it is
                    // executed here, as one scripted suspicion per observer,
                    // and the injections are credited to the rule's hit
                    // counter so chaos tests can assert the storm fired.
                    let observers = observers.clone();
                    let idx = self.net.add_fault(rule);
                    let mut fired = 0;
                    for observer in observers {
                        if self.endpoints.get(&observer).is_some_and(|s| s.alive) {
                            self.dispatch(Ev::Suspect { observer, target });
                            fired += 1;
                        }
                    }
                    self.net.fault_plan_mut().record_hits(idx, fired);
                    return;
                }
                self.net.add_fault(rule);
            }
        }
    }

    /// Performs (and drains) the effects `ep`'s stack left in the sink.
    fn apply_effects(&mut self, ep: EndpointAddr) {
        // Move the sink out so its drain doesn't pin `self`; it (and its
        // capacity) goes straight back afterwards.
        let mut sink = std::mem::take(&mut self.sink);
        for fx in sink.drain() {
            match fx {
                Effect::Deliver(up) => {
                    if let Some(slot) = self.endpoints.get_mut(&ep) {
                        match &up {
                            Up::View(v) => slot.log_digest.write_str(&v.to_string()),
                            Up::Cast { src, msg } => {
                                slot.log_digest.write_u64(src.raw());
                                slot.log_digest.write_bytes(msg.body());
                                slot.log_digest.write_bytes(&[0xfe]);
                            }
                            _ => {}
                        }
                        slot.upcalls.push((self.time, up));
                    }
                }
                Effect::NetCast { wire } => {
                    let deliveries = self.net.cast(ep, wire, self.time, self.sched.as_mut());
                    for d in deliveries {
                        self.schedule(
                            d.at,
                            Ev::Net { to: d.to, from: d.from, cast: d.cast, wire: d.wire },
                        );
                    }
                }
                Effect::NetSend { dests, wire } => {
                    let deliveries =
                        self.net.send(ep, &dests, wire, self.time, self.sched.as_mut());
                    for d in deliveries {
                        self.schedule(
                            d.at,
                            Ev::Net { to: d.to, from: d.from, cast: d.cast, wire: d.wire },
                        );
                    }
                }
                Effect::NetJoin { group } => self.net.join(group, ep),
                Effect::NetLeave => self.net.leave(ep),
                Effect::SetTimer { layer, token, delay } => {
                    self.schedule(self.time + delay, Ev::Timer { ep, layer, token });
                }
            }
        }
        self.sink = sink;
    }

    /// Whether an endpoint is still alive (has not crashed or been
    /// destroyed).
    pub fn is_alive(&self, ep: EndpointAddr) -> bool {
        self.endpoints.get(&ep).map(|s| s.alive && !s.stack.is_destroyed()).unwrap_or(false)
    }

    /// All endpoint addresses, in address order.
    pub fn endpoint_addrs(&self) -> Vec<EndpointAddr> {
        self.endpoints.keys().copied().collect()
    }

    /// The recorded upcalls of an endpoint, in delivery order.
    pub fn upcalls(&self, ep: EndpointAddr) -> &[(SimTime, Up)] {
        self.endpoints.get(&ep).map(|s| s.upcalls.as_slice()).unwrap_or(&[])
    }

    /// How many views an endpoint has installed — a count-only variant of
    /// [`installed_views`](Self::installed_views) that clones nothing, for
    /// callers (like the model checker's per-step oracle trigger) that only
    /// need to notice *that* a view landed, not which.
    pub fn installed_view_count(&self, ep: EndpointAddr) -> usize {
        self.upcalls(ep).iter().filter(|(_, up)| matches!(up, Up::View(_))).count()
    }

    /// Removes and returns an endpoint's recorded upcalls.
    pub fn take_upcalls(&mut self, ep: EndpointAddr) -> Vec<(SimTime, Up)> {
        self.endpoints.get_mut(&ep).map(|s| std::mem::take(&mut s.upcalls)).unwrap_or_default()
    }

    /// CAST deliveries observed by an endpoint: `(source, body, time)`.
    pub fn delivered_casts(&self, ep: EndpointAddr) -> Vec<(EndpointAddr, Bytes, SimTime)> {
        self.upcalls(ep)
            .iter()
            .filter_map(|(t, up)| match up {
                Up::Cast { src, msg } => Some((*src, msg.body().clone(), *t)),
                _ => None,
            })
            .collect()
    }

    /// Views installed at an endpoint, in installation order.
    pub fn installed_views(&self, ep: EndpointAddr) -> Vec<View> {
        self.upcalls(ep)
            .iter()
            .filter_map(|(_, up)| match up {
                Up::View(v) => Some(v.clone()),
                _ => None,
            })
            .collect()
    }

    /// Stack counters for an endpoint.
    pub fn stack_stats(&self, ep: EndpointAddr) -> Option<&horus_core::stack::StackStats> {
        self.endpoints.get(&ep).map(|s| s.stack.stats())
    }

    /// Borrow an endpoint's stack (for `focus`/`dump` inspection).
    pub fn stack(&self, ep: EndpointAddr) -> Option<&Stack> {
        self.endpoints.get(&ep).map(|s| &s.stack)
    }

    /// Pending calendar entries (diagnostics).
    pub fn pending_events(&self) -> usize {
        self.calendar.len()
    }

    /// Advances the clock to `deadline` without dispatching anything (used
    /// by scheduled drives once the calendar drains).
    pub fn advance_to(&mut self, deadline: SimTime) {
        self.time = self.time.max(deadline);
    }

    // ------------------------------------------------------------------
    // Controlled stepping (the bounded model checker's interface)
    // ------------------------------------------------------------------

    fn ready_kind(ev: &Ev) -> ReadyKind {
        match ev {
            Ev::Net { to, from, cast, .. } => {
                ReadyKind::Deliver { to: *to, from: *from, cast: *cast }
            }
            Ev::Timer { ep, layer, token } => {
                ReadyKind::Timer { ep: *ep, layer: *layer, token: *token }
            }
            Ev::App { ep, .. } => ReadyKind::App { ep: *ep },
            Ev::Crash { ep } => ReadyKind::Crash { ep: *ep },
            Ev::Partition { .. } => ReadyKind::Partition,
            Ev::Heal => ReadyKind::Heal,
            Ev::Suspect { observer, target } => {
                ReadyKind::Suspect { observer: *observer, target: *target }
            }
            Ev::Fault { .. } => ReadyKind::Fault,
        }
    }

    /// The earliest pending calendar time, if any.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.calendar.first_key_value().map(|(&(at, _), _)| at)
    }

    /// The *ready set*: every pending event scheduled within `window` of the
    /// earliest pending event, in calendar order (so index 0 is what
    /// [`SimWorld::run_until`] would fire next).
    ///
    /// Events inside one window are concurrent for exploration purposes: an
    /// asynchronous network may legally deliver them in any relative order,
    /// which the explorer realizes by firing a later-scheduled event first
    /// (delaying the others — legal, since delivery delays are unbounded).
    /// A zero window degenerates to exact-tie concurrency only.
    pub fn ready_events(&self, window: Duration) -> Vec<ReadyEvent> {
        let mut out = Vec::new();
        self.ready_events_into(window, &mut out);
        out
    }

    /// [`ready_events`](Self::ready_events) into a caller-owned buffer.  The
    /// schedule executor asks for the ready set before every step, so it must
    /// not cost a fresh allocation each time.
    pub fn ready_events_into(&self, window: Duration, out: &mut Vec<ReadyEvent>) {
        out.clear();
        let Some((&(first_at, _), _)) = self.calendar.first_key_value() else {
            return;
        };
        let horizon = first_at + window;
        out.extend(
            self.calendar
                .iter()
                .take_while(|(&(at, _), _)| at <= horizon)
                .map(|(&id, p)| ReadyEvent { id, at: id.0, kind: Self::ready_kind(&p.ev) }),
        );
    }

    /// Fires one pending event out of calendar order, advancing virtual time
    /// to `max(now, scheduled)` — time never runs backwards; an event pulled
    /// ahead of an earlier one simply means the earlier one is *delayed*.
    /// Returns `false` if the id is no longer pending.
    pub fn fire(&mut self, id: EventId) -> bool {
        let Some(p) = self.calendar.remove(&id) else {
            return false;
        };
        self.untrack_pending(id.0, &p);
        self.time = self.time.max(id.0);
        let Pending { ev, digest, clock } = p;
        self.begin_causal(Self::ready_kind(&ev).target(), clock);
        if self.tracer.is_some() {
            self.trace_fire(id.1, digest, &ev);
        }
        self.dispatch(ev);
        self.ctx_clock.clear();
        self.steps += 1;
        if self.steps >= self.step_limit {
            panic!("{}", self.storm_report());
        }
        true
    }

    /// Removes a pending *remote frame delivery* without firing it — the
    /// explorer's controlled message drop (choice point for lossy-network
    /// exploration).  Refuses anything that is not a remote `Deliver`:
    /// timers, scripted events and loopback deliveries always happen.
    pub fn drop_pending(&mut self, id: EventId) -> bool {
        let droppable = matches!(
            self.calendar.get(&id).map(|p| &p.ev),
            Some(Ev::Net { to, from, .. }) if to != from
        );
        if droppable {
            let p = self.calendar.remove(&id).expect("checked entry");
            self.untrack_pending(id.0, &p);
            self.net.stats_mut().dropped_induced += 1;
            if let Some(t) = &self.tracer {
                let to = match &p.ev {
                    Ev::Net { to, .. } => *to,
                    _ => unreachable!("droppable entries are remote net deliveries"),
                };
                let digest = if p.digest != 0 { p.digest } else { ev_digest(&p.ev) };
                t.record(TraceEvent {
                    at: self.time,
                    ep: to,
                    kind: TraceKind::FrameDrop { digest, seq: id.1, reason: DropReason::Induced },
                });
            }
            true
        } else {
            false
        }
    }

    /// Crashes `ep` at the current instant (explorer-injected fail-stop, the
    /// same transition a scripted [`SimWorld::crash_at`] performs).
    pub fn inject_crash(&mut self, ep: EndpointAddr) {
        self.begin_causal(Some(ep), Vec::new());
        if let Some(t) = &self.tracer {
            t.set_clock(&self.ctx_clock);
            t.record(TraceEvent { at: self.time, ep, kind: TraceKind::InjectCrash });
        }
        self.dispatch(Ev::Crash { ep });
        self.ctx_clock.clear();
    }

    /// Tells `observer`'s stack to suspect `target` at the current instant
    /// (explorer-injected, possibly inaccurate, failure suspicion).
    pub fn inject_suspect(&mut self, observer: EndpointAddr, target: EndpointAddr) {
        self.begin_causal(Some(observer), Vec::new());
        if let Some(t) = &self.tracer {
            t.set_clock(&self.ctx_clock);
            t.record(TraceEvent {
                at: self.time,
                ep: observer,
                kind: TraceKind::InjectSuspect { observer, target },
            });
        }
        self.dispatch(Ev::Suspect { observer, target });
        self.ctx_clock.clear();
    }

    /// Enters a dispatch's causal context: joins the fired event's creation
    /// clock into the target endpoint's clock, bumps the target's own
    /// component, and makes the result the clock every entry scheduled by
    /// the dispatch is stamped with.  No-op when pending tracking is off.
    fn begin_causal(&mut self, target: Option<EndpointAddr>, ev_clock: VClock) {
        if !self.track_pending {
            return;
        }
        match target {
            Some(ep) => {
                let c = self.clocks.entry(ep).or_default();
                vc_join(c, &ev_clock);
                let raw = ep.raw();
                match c.binary_search_by_key(&raw, |&(r, _)| r) {
                    Ok(i) => c[i].1 += 1,
                    Err(i) => c.insert(i, (raw, 1)),
                }
                self.ctx_clock = c.clone();
            }
            // World-global events (partition, heal, fault rules) have no
            // endpoint clock to bump; their consequences inherit the fired
            // event's own creation clock.
            None => self.ctx_clock = ev_clock,
        }
    }

    /// Whether the creation contexts of two pending calendar entries are
    /// strictly ordered by happens-before (either direction).  The DPOR in
    /// `horus-check` refuses to treat causally ordered events as an
    /// exchangeable race.  Returns `false` for unknown ids and for worlds
    /// without pending tracking (no clocks maintained).
    pub fn causally_ordered(&self, a: EventId, b: EventId) -> bool {
        let (Some(pa), Some(pb)) = (self.calendar.get(&a), self.calendar.get(&b)) else {
            return false;
        };
        vc_lt(&pa.clock, &pb.clock) || vc_lt(&pb.clock, &pa.clock)
    }

    /// The time-independent payload digest of a pending entry (tracked
    /// worlds compute these at insertion).  The explorer uses this as a
    /// run-independent event identity: insertion sequence numbers differ
    /// between converging runs, payload digests do not.
    pub fn pending_digest(&self, id: EventId) -> Option<u64> {
        self.calendar.get(&id).map(|p| if p.digest != 0 { p.digest } else { ev_digest(&p.ev) })
    }

    /// Duplicates the entire world — clock, calendar, network, endpoint
    /// stacks, logs, pending-digest sums.
    ///
    /// Layer state is shared **copy-on-write** with the original
    /// ([`Stack::clone_cow`]): nothing per-layer is copied here, and a layer
    /// is duplicated only when a later dispatch — on either world — first
    /// mutates it.  Snapshots therefore cost O(touched), not O(world),
    /// which is what lets the model checker park a sibling per untaken
    /// branch at depths a deep clone per branch point would forbid.  Use
    /// [`SimWorld::snapshot_deep`] to pay the full copy up front instead.
    ///
    /// Either way the clone is behaviourally exact: firing the same
    /// schedule against the original and the snapshot produces identical
    /// effects, upcalls, and fingerprints.  The model checker leans on this
    /// to resume exploration from a branch point instead of re-executing
    /// the settle phase and the choice prefix.
    pub fn snapshot(&self) -> SimWorld {
        self.snapshot_impl(true)
    }

    /// [`SimWorld::snapshot`] with every layer deep-cloned up front (the
    /// pre-CoW behaviour).  Kept as the honest baseline for the checker's
    /// `cow_off` benchmark arm.
    pub fn snapshot_deep(&self) -> SimWorld {
        self.snapshot_impl(false)
    }

    fn snapshot_impl(&self, cow: bool) -> SimWorld {
        let mut endpoints = BTreeMap::new();
        for (ep, slot) in &self.endpoints {
            endpoints.insert(
                *ep,
                Slot {
                    stack: if cow { slot.stack.clone_cow() } else { slot.stack.deep_clone() },
                    upcalls: slot.upcalls.clone(),
                    alive: slot.alive,
                    log_digest: slot.log_digest.clone(),
                    digest: slot.digest.clone(),
                    dirty: slot.dirty.clone(),
                },
            );
        }
        SimWorld {
            time: self.time,
            seq: self.seq,
            steps: self.steps,
            step_limit: self.step_limit,
            calendar: self.calendar.clone(),
            net: self.net.clone(),
            endpoints,
            sched: self.sched.clone_box(),
            sink: EffectSink::new(),
            dirty_eps: RefCell::new(self.dirty_eps.borrow().clone()),
            slots_sum: self.slots_sum.clone(),
            clocks: self.clocks.clone(),
            ctx_clock: self.ctx_clock.clone(),
            track_pending: self.track_pending,
            pending_s1: self.pending_s1,
            pending_s2: self.pending_s2,
            tracer: self.tracer.clone(),
        }
    }

    /// A 64-bit fingerprint of the world's explorable state: per-endpoint
    /// stack digests and liveness, observable delivery histories, network
    /// membership/partition state, and the pending-event multiset with times
    /// taken *relative to now* (so two runs reaching the same configuration
    /// at different absolute instants merge).
    ///
    /// Insertion sequence numbers are deliberately excluded — they encode
    /// arrival order history, not future behaviour.  Collisions make the
    /// explorer skip states it should visit (missed coverage), never report
    /// phantom violations.
    pub fn fingerprint(&self) -> u64 {
        let mut d = StateDigest::new();
        d.write_u64(self.endpoints.len() as u64);
        d.write_u64(self.slots_sum_cached());
        self.net.digest_cached_into(&mut d);
        let (n, s1, s2) = if self.track_pending {
            (self.calendar.len() as u64, self.pending_s1, self.pending_s2)
        } else {
            self.pending_sums_fresh()
        };
        Self::write_pending_combine(&mut d, self.time, n, s1, s2);
        d.finish()
    }

    /// Drains the dirty queue — re-digesting only the slots touched since
    /// the last fingerprint — and returns the up-to-date clean-slot sum.
    /// Slot digests combine as a wrapping sum (order-independent; each
    /// digest already covers the endpoint address), which is what lets the
    /// warm path skip even the one-`Cell`-read-per-slot scan the previous
    /// scheme paid.
    fn slots_sum_cached(&self) -> u64 {
        let mut sum = self.slots_sum.get();
        let mut dirty = self.dirty_eps.borrow_mut();
        for ep in dirty.drain(..) {
            let slot = &self.endpoints[&ep];
            let v = Self::slot_digest(ep, slot, slot.stack.state_digest_cached());
            slot.digest.set(v);
            slot.dirty.set(false);
            sum = sum.wrapping_add(v);
        }
        self.slots_sum.set(sum);
        sum
    }

    /// [`SimWorld::fingerprint`] with every cache bypassed: stacks, network
    /// and calendar are all re-digested from scratch.  Bit-identical to the
    /// cached path by construction — the differential tests call both at
    /// every step to police the dirty-marking invariant, and the explorer's
    /// incremental-off benchmark arm uses it as the honest baseline.
    pub fn fingerprint_fresh(&self) -> u64 {
        let mut d = StateDigest::new();
        d.write_u64(self.endpoints.len() as u64);
        let mut sum: u64 = 0;
        for (ep, slot) in &self.endpoints {
            sum = sum.wrapping_add(Self::slot_digest(*ep, slot, slot.stack.state_digest()));
        }
        d.write_u64(sum);
        self.net.digest_into(&mut d);
        let (n, s1, s2) = self.pending_sums_fresh();
        Self::write_pending_combine(&mut d, self.time, n, s1, s2);
        d.finish()
    }

    fn slot_digest(ep: EndpointAddr, slot: &Slot, stack_digest: u64) -> u64 {
        let mut e = StateDigest::new();
        e.write_u64(ep.raw());
        e.write_u64(slot.alive as u64);
        e.write_u64(slot.log_digest.finish());
        e.write_u64(stack_digest);
        e.finish()
    }

    /// Pending events enter the fingerprint as an order-independent combine
    /// — `(count, Σ h_e, Σ h_e·(t_e − now))` over the pending multiset —
    /// because two interleavings that converge on the same pending set are
    /// the same state regardless of how the calendar was populated, and two
    /// runs reaching the same configuration at different absolute instants
    /// should merge (times are taken relative to now; the shift falls out
    /// of the maintained absolute-time sums as `S2 − now·S1` since the
    /// combine is linear in time).
    fn write_pending_combine(d: &mut StateDigest, now: SimTime, n: u64, s1: u64, s2: u64) {
        d.write_u64(n);
        d.write_u64(s1);
        d.write_u64(s2.wrapping_sub(now.as_nanos().wrapping_mul(s1)));
    }

    /// Walks the calendar computing the pending combine from scratch
    /// (untracked worlds, and the fresh fingerprint path).
    fn pending_sums_fresh(&self) -> (u64, u64, u64) {
        let mut s1: u64 = 0;
        let mut s2: u64 = 0;
        for (&(at, _), p) in &self.calendar {
            let h = ev_digest(&p.ev);
            s1 = s1.wrapping_add(h);
            s2 = s2.wrapping_add(h.wrapping_mul(at.as_nanos()));
        }
        (self.calendar.len() as u64, s1, s2)
    }
}

/// The time-independent payload digest of one calendar entry, with every
/// variant's fields digested directly — no `format!` in the per-event path.
fn ev_digest(ev: &Ev) -> u64 {
    let mut e = StateDigest::new();
    match ev {
        Ev::Net { to, from, cast, wire } => {
            e.write_u64(1);
            e.write_u64(to.raw());
            e.write_u64(from.raw());
            e.write_u64(*cast as u64);
            e.write_bytes(wire.head());
            e.write_bytes(wire.body());
        }
        Ev::Timer { ep, layer, token } => {
            e.write_u64(2);
            e.write_u64(ep.raw());
            e.write_u64(*layer as u64);
            e.write_u64(*token);
        }
        Ev::App { ep, down } => {
            e.write_u64(3);
            e.write_u64(ep.raw());
            down_digest(&mut e, down);
        }
        Ev::Crash { ep } => {
            e.write_u64(4);
            e.write_u64(ep.raw());
        }
        Ev::Partition { regions } => {
            e.write_u64(5);
            for r in regions {
                e.write_u64(r.len() as u64);
                for m in r {
                    e.write_u64(m.raw());
                }
            }
        }
        Ev::Heal => e.write_u64(6),
        Ev::Suspect { observer, target } => {
            e.write_u64(7);
            e.write_u64(observer.raw());
            e.write_u64(target.raw());
        }
        Ev::Fault { rule } => {
            e.write_u64(8);
            rule.digest_into(&mut e);
        }
    }
    e.finish()
}

fn down_digest(e: &mut StateDigest, down: &Down) {
    match down {
        Down::Join { group } => {
            e.write_u64(1);
            e.write_u64(group.raw());
        }
        Down::Cast(msg) => {
            e.write_u64(2);
            msg_digest(e, msg);
        }
        Down::Send { dests, msg } => {
            e.write_u64(3);
            e.write_u64(dests.len() as u64);
            for dst in dests {
                e.write_u64(dst.raw());
            }
            msg_digest(e, msg);
        }
        Down::Ack(id) => {
            e.write_u64(4);
            e.write_u64(id.origin.raw());
            e.write_u64(id.seq);
        }
        Down::Stable(id) => {
            e.write_u64(5);
            e.write_u64(id.origin.raw());
            e.write_u64(id.seq);
        }
        Down::InstallView(v) => {
            e.write_u64(6);
            e.write_str(&v.to_string());
        }
        Down::Flush { failed } => {
            e.write_u64(7);
            for m in failed {
                e.write_u64(m.raw());
            }
        }
        Down::FlushOk => e.write_u64(8),
        Down::Merge { contact } => {
            e.write_u64(9);
            e.write_u64(contact.raw());
        }
        Down::MergeGranted(id) => {
            e.write_u64(10);
            e.write_u64(id.0);
        }
        Down::MergeDenied(id) => {
            e.write_u64(11);
            e.write_u64(id.0);
        }
        Down::Leave => e.write_u64(12),
        Down::Destroy => e.write_u64(13),
        Down::Suspect { member } => {
            e.write_u64(14);
            e.write_u64(member.raw());
        }
        Down::Dump => e.write_u64(15),
        // `Down` is non_exhaustive; future variants at least digest their
        // kind until a field-direct arm is added.
        other => {
            e.write_u64(99);
            e.write_str(other.kind());
        }
    }
}

fn msg_digest(e: &mut StateDigest, m: &Message) {
    e.write_bytes(m.header_area());
    e.write_bytes(m.body());
}

#[cfg(test)]
mod tests {
    use super::*;
    use horus_trace::TraceBuf;

    #[derive(Debug, Default, Clone)]
    struct Nop;
    impl Layer for Nop {
        fn name(&self) -> &'static str {
            "NOP"
        }
    }

    fn ep(i: u64) -> EndpointAddr {
        EndpointAddr::new(i)
    }

    fn world_of(n: u64) -> SimWorld {
        let mut w = SimWorld::new(7, NetConfig::reliable());
        for i in 1..=n {
            let s = StackBuilder::new(ep(i)).push(Box::new(Nop)).build().unwrap();
            w.add_endpoint(s);
            w.join(ep(i), GroupAddr::new(1));
        }
        w
    }

    #[test]
    fn cast_delivered_to_all_members() {
        let mut w = world_of(3);
        w.cast_bytes(ep(1), &b"m1"[..]);
        w.run_for(Duration::from_millis(5));
        for i in 1..=3 {
            let got = w.delivered_casts(ep(i));
            assert_eq!(got.len(), 1, "endpoint {i}");
            assert_eq!(got[0].0, ep(1));
        }
    }

    #[test]
    fn crashed_endpoints_receive_nothing() {
        let mut w = world_of(3);
        w.crash_at(SimTime::from_millis(1), ep(3));
        w.cast_bytes_at(SimTime::from_millis(2), ep(1), &b"late"[..]);
        w.run_for(Duration::from_millis(10));
        assert!(w.delivered_casts(ep(3)).is_empty());
        assert!(!w.is_alive(ep(3)));
        assert_eq!(w.delivered_casts(ep(2)).len(), 1);
    }

    #[test]
    fn partitions_and_heal_are_scripted() {
        let mut w = world_of(2);
        w.partition_at(SimTime::from_millis(1), &[&[ep(1)], &[ep(2)]]);
        w.cast_bytes_at(SimTime::from_millis(2), ep(1), &b"blocked"[..]);
        w.heal_at(SimTime::from_millis(5));
        w.cast_bytes_at(SimTime::from_millis(6), ep(1), &b"flows"[..]);
        w.run_for(Duration::from_millis(20));
        let got = w.delivered_casts(ep(2));
        assert_eq!(got.len(), 1);
        assert_eq!(&got[0].1[..], b"flows");
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = || {
            let mut w = world_of(3);
            for k in 0..20 {
                w.cast_bytes_at(SimTime::from_micros(100 * k), ep(1 + k % 3), vec![k as u8]);
            }
            w.run_for(Duration::from_millis(50));
            (1..=3)
                .map(|i| {
                    w.delivered_casts(ep(i))
                        .iter()
                        .map(|(s, b, t)| (s.raw(), b.to_vec(), t.as_nanos()))
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut w = world_of(2);
        w.cast_bytes_at(SimTime::from_millis(10), ep(1), &b"later"[..]);
        w.run_until(SimTime::from_millis(5));
        assert!(w.delivered_casts(ep(2)).is_empty());
        assert_eq!(w.now(), SimTime::from_millis(5));
        w.run_until(SimTime::from_millis(20));
        assert_eq!(w.delivered_casts(ep(2)).len(), 1);
    }

    #[test]
    fn physics_can_change_mid_run() {
        let mut w = world_of(2);
        // From t=0 the network loses everything remote...
        w.net_mut().config_mut().loss = 1.0;
        w.cast_bytes(ep(1), &b"lost"[..]);
        w.run_for(Duration::from_millis(5));
        assert!(w.delivered_casts(ep(2)).is_empty());
        // ...then it heals.
        w.net_mut().config_mut().loss = 0.0;
        w.cast_bytes(ep(1), &b"arrives"[..]);
        w.run_for(Duration::from_millis(5));
        assert_eq!(w.delivered_casts(ep(2)).len(), 1);
    }

    #[test]
    fn take_upcalls_drains() {
        let mut w = world_of(2);
        w.cast_bytes(ep(1), &b"x"[..]);
        w.run_for(Duration::from_millis(5));
        assert_eq!(w.take_upcalls(ep(2)).len(), 1);
        assert!(w.upcalls(ep(2)).is_empty());
        assert!(w.take_upcalls(ep(9)).is_empty(), "unknown endpoints yield nothing");
    }

    #[test]
    fn traces_record_world_events() {
        let buf = Arc::new(TraceBuf::new());
        let mut w = world_of(2);
        w.set_tracer(buf.clone());
        w.crash_at(SimTime::from_millis(1), ep(2));
        w.partition_at(SimTime::from_millis(2), &[&[ep(1)]]);
        w.heal_at(SimTime::from_millis(3));
        let cut = FaultRule::OneWayCut { from: ep(1), to: ep(2), start: SimTime::ZERO, end: None };
        w.fault_at(SimTime::from_millis(4), cut);
        w.run_for(Duration::from_millis(10));
        let recs = buf.take();
        assert!(recs.iter().any(|r| r.ep == ep(2) && matches!(r.kind, TraceKind::Crash { .. })));
        assert!(recs.iter().any(|r| matches!(r.kind, TraceKind::Partition { .. })));
        assert!(recs.iter().any(|r| matches!(r.kind, TraceKind::Heal { .. })));
        assert!(recs.iter().any(|r| matches!(r.kind, TraceKind::Fault { .. })));
    }

    #[test]
    fn pending_events_visible() {
        let mut w = world_of(1);
        w.cast_bytes_at(SimTime::from_millis(50), ep(1), &b"later"[..]);
        assert!(w.pending_events() >= 1);
        w.run_until(SimTime::from_millis(100));
        assert_eq!(w.pending_events(), 0);
    }

    #[test]
    fn cached_fingerprint_matches_fresh_through_a_run() {
        let mut w = world_of(3);
        assert_eq!(w.fingerprint(), w.fingerprint_fresh());
        w.cast_bytes(ep(1), &b"a"[..]);
        w.crash_at(SimTime::from_millis(2), ep(3));
        w.suspect_at(SimTime::from_millis(3), ep(1), ep(3));
        w.partition_at(SimTime::from_millis(4), &[&[ep(1)], &[ep(2)]]);
        w.heal_at(SimTime::from_millis(5));
        assert_eq!(w.fingerprint(), w.fingerprint_fresh(), "with a populated calendar");
        for step in 1..=8u64 {
            w.run_until(SimTime::from_millis(step));
            assert_eq!(w.fingerprint(), w.fingerprint_fresh(), "after step {step}");
        }
    }

    #[test]
    fn tracked_pending_sums_match_a_fresh_walk() {
        // A deterministic world maintains the pending combine incrementally;
        // the fingerprint must not depend on which path computed it.
        let mut w = SimWorld::deterministic(NetConfig::reliable());
        for i in 1..=2 {
            let s = StackBuilder::new(ep(i)).push(Box::new(Nop)).build().unwrap();
            w.add_endpoint(s);
            w.join(ep(i), GroupAddr::new(1));
        }
        w.cast_bytes_at(SimTime::from_millis(1), ep(1), &b"x"[..]);
        w.run_until(SimTime::from_micros(1500));
        let tracked = w.fingerprint();
        assert_eq!(tracked, w.fingerprint_fresh());
        w.set_pending_tracking(false);
        assert_eq!(w.fingerprint(), tracked, "untracked walk agrees");
        w.set_pending_tracking(true);
        assert_eq!(w.fingerprint(), tracked, "re-enabling rebuilds exact sums");
    }

    #[test]
    fn fingerprint_merges_time_shifted_equal_states() {
        // Two runs that reach the same configuration at different absolute
        // instants must fingerprint identically: pending times are relative.
        let build = |offset_ms: u64| {
            let mut w = SimWorld::deterministic(NetConfig::reliable());
            let s = StackBuilder::new(ep(1)).push(Box::new(Nop)).build().unwrap();
            w.add_endpoint(s);
            w.join(ep(1), GroupAddr::new(1));
            w.run_until(SimTime::from_millis(offset_ms));
            w.cast_bytes_at(SimTime::from_millis(offset_ms + 7), ep(1), &b"p"[..]);
            w
        };
        let a = build(10);
        let b = build(25);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint_fresh(), b.fingerprint_fresh());
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_endpoint_rejected() {
        let mut w = world_of(1);
        let s = StackBuilder::new(ep(1)).push(Box::new(Nop)).build().unwrap();
        w.add_endpoint(s);
    }

    #[test]
    fn scripted_suspicion_is_dispatched_and_traced() {
        let buf = Arc::new(TraceBuf::new());
        let mut w = world_of(2);
        w.set_tracer(buf.clone());
        w.suspect_at(SimTime::from_millis(3), ep(1), ep(2));
        w.run_for(Duration::from_millis(10));
        // The Nop stack consumes nothing, so the downcall falls out the
        // bottom; what matters here is the scheduling and the audit trail.
        let recs = buf.take();
        assert!(recs.iter().any(|r| {
            r.ep == ep(1) && matches!(r.kind, TraceKind::Suspect { target, .. } if target == ep(2))
        }));
        assert!(recs.iter().any(|r| {
            r.ep == ep(1)
                && matches!(&r.kind, TraceKind::Note(t) if t.contains("suspect") && t.contains("fell off"))
        }));
    }

    #[test]
    fn scripted_fault_rule_takes_effect_at_its_time() {
        let mut w = world_of(2);
        w.fault_at(
            SimTime::from_millis(5),
            FaultRule::OneWayCut { from: ep(1), to: ep(2), start: SimTime::ZERO, end: None },
        );
        w.cast_bytes_at(SimTime::from_millis(2), ep(1), &b"before"[..]);
        w.cast_bytes_at(SimTime::from_millis(8), ep(1), &b"after"[..]);
        w.run_for(Duration::from_millis(20));
        let got = w.delivered_casts(ep(2));
        assert_eq!(got.len(), 1);
        assert_eq!(&got[0].1[..], b"before");
        assert_eq!(w.net_stats().dropped_cut, 1);
    }

    #[test]
    fn storm_diagnostic_names_busiest_endpoint_and_kind() {
        let mut w = world_of(2);
        w.set_step_limit(5);
        for k in 0..50 {
            w.cast_bytes_at(SimTime::from_micros(10 * k), ep(1), vec![k as u8]);
        }
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.run_for(Duration::from_millis(10));
        }))
        .expect_err("valve must trip");
        let msg = err.downcast_ref::<String>().expect("string panic payload");
        assert!(msg.contains("safety valve"), "got: {msg}");
        assert!(msg.contains("busiest source"), "got: {msg}");
        assert!(msg.contains("ep"), "names an endpoint: {msg}");
        assert!(
            msg.contains("app downcall") || msg.contains("net delivery"),
            "names an event kind: {msg}"
        );
    }
}
