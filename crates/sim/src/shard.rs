//! The sharded run-to-completion executor (§10 problem 2, scaled out).
//!
//! The paper's answer to intra-stack threading costs is one scheduling
//! thread per stack; Babel's event executors and Ring Paxos's dispatch-
//! boundary batching show how that design scales to many stacks and high
//! rates.  This module combines the three ideas:
//!
//! * **Sharding** — N worker threads, each *owning* a disjoint set of
//!   stacks (assigned by endpoint address).  A stack is only ever touched
//!   by its owning worker, so there are no per-stack locks, no contended
//!   dispatch path, and — because each worker is a single-threaded
//!   run-to-completion loop over one input queue — each shard's execution
//!   is a deterministic function of its queue arrival order.
//! * **Batched dispatch** — workers drain their queue in bursts of up to
//!   [`ShardConfig::batch_max`] inputs and push them through
//!   [`Stack::handle_batch`] with one reusable [`EffectSink`]: one queue
//!   wake-up, one effect walk, and zero per-event allocations for a whole
//!   burst.  Consecutive casts from one endpoint leave through
//!   [`LoopbackNet::cast_batch`] under a single registry snapshot.
//! * **Direct shard delivery** — endpoints are registered on the loopback
//!   transport with a sink that pushes frames straight into the owning
//!   shard's queue, eliminating the per-endpoint pump thread (and its
//!   extra wake-up per frame) of [`crate::threaded::ThreadedEndpoint`].
//!
//! Timekeeping maps the monotonic OS clock onto [`SimTime`], exactly as in
//! the threaded executor, so protocol timers behave identically.

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use horus_core::prelude::*;
use horus_core::stack::StackStats;
use horus_net::threaded::{Frame, FrameSink};
use horus_net::LoopbackNet;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning of the sharded executor.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of worker threads (and stack shards).  Stacks are assigned by
    /// `endpoint address % shards`.
    pub shards: usize,
    /// Maximum inputs drained from a shard's queue per dispatch burst.  `1`
    /// degenerates to per-event dispatch (the ablation baseline).
    pub batch_max: usize,
    /// Whether delivered upcalls are recorded (retrievable through
    /// [`ShardExecutor::take_upcalls`]).  Flood benchmarks switch this off
    /// and rely on the monotone counters alone.
    pub record_upcalls: bool,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig { shards: 1, batch_max: 64, record_upcalls: true }
    }
}

impl ShardConfig {
    /// `shards` workers, defaults otherwise.
    pub fn with_shards(shards: usize) -> Self {
        ShardConfig { shards: shards.max(1), ..ShardConfig::default() }
    }

    /// Overrides the dispatch burst limit.
    pub fn batch_max(mut self, batch_max: usize) -> Self {
        self.batch_max = batch_max.max(1);
        self
    }

    /// Enables or disables upcall recording.
    pub fn record_upcalls(mut self, record: bool) -> Self {
        self.record_upcalls = record;
        self
    }
}

/// Per-endpoint observation shared between the owning worker and the
/// executor facade: monotone counters plus (optionally) the upcall log.
#[derive(Debug, Default)]
struct EpLog {
    /// Monotone count of CAST upcalls delivered.
    casts: AtomicUsize,
    /// Monotone count of all upcalls delivered.
    upcalls: AtomicUsize,
    /// The recorded upcalls (empty when recording is off).
    log: Mutex<Vec<Up>>,
}

enum ShardIn {
    /// A wire frame for `to`, pushed by the transport sink.
    Frame { to: EndpointAddr, frame: Frame },
    /// An application downcall.
    App { ep: EndpointAddr, down: Down },
    /// Adopt a stack (run its init) — sent once per endpoint at add time.
    AddStack { stack: Box<Stack>, log: Arc<EpLog> },
    /// Report every owned stack's counters.
    Stats { reply: Sender<Vec<(EndpointAddr, StackStats)>> },
    /// Drain and exit.
    Stop,
}

/// A wall-clock timer armed by `ep`'s stack; heaps of these pop the
/// earliest `due` first.  Shared with [`crate::threaded`].
pub(crate) struct TimerEntry {
    pub(crate) due: Instant,
    pub(crate) ep: EndpointAddr,
    pub(crate) layer: usize,
    pub(crate) token: u64,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.due.cmp(&self.due) // min-heap
    }
}

struct Owned {
    stack: Stack,
    log: Arc<EpLog>,
}

/// One shard: a single-threaded run-to-completion loop over the stacks it
/// owns.  All state here is thread-local to the worker.
struct Worker {
    rx: Receiver<ShardIn>,
    net: LoopbackNet,
    epoch: Instant,
    batch_max: usize,
    record_upcalls: bool,
    stacks: BTreeMap<EndpointAddr, Owned>,
    timers: BinaryHeap<TimerEntry>,
    /// Reusable effect buffer: zero allocations per event once warm.
    sink: EffectSink,
    /// Reusable input burst buffer.
    burst: Vec<ShardIn>,
    /// Reusable run buffer: consecutive same-endpoint inputs of a burst,
    /// fed to [`Stack::handle_batch`] in one call.
    run: Vec<StackInput>,
    /// Casts pending transmission for `pending_from`, flushed in one
    /// registry snapshot.
    pending_casts: Vec<WireFrame>,
    pending_from: Option<EndpointAddr>,
    /// Mirror of the owned stacks' trace sink (cached at adoption so the
    /// frame hot path never does a per-event map lookup): the worker
    /// records frame/timer *arrivals*; dispatch internals are recorded by
    /// the stacks themselves.
    tracer: Option<Arc<dyn TraceSink>>,
}

/// How long an idle worker sleeps when it has neither inputs nor timers.
const IDLE_WAIT: Duration = Duration::from_millis(5);

impl Worker {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    fn run(mut self) {
        loop {
            self.fire_due_timers();
            // Block for the first input of the burst (bounded by the next
            // timer), then drain greedily up to batch_max.
            let wait = match self.timers.peek() {
                Some(t) => t.due.saturating_duration_since(Instant::now()).min(IDLE_WAIT),
                None => IDLE_WAIT,
            };
            match self.rx.recv_timeout(wait) {
                Ok(first) => {
                    let mut burst = std::mem::take(&mut self.burst);
                    burst.push(first);
                    while burst.len() < self.batch_max {
                        match self.rx.try_recv() {
                            Ok(input) => burst.push(input),
                            Err(TryRecvError::Empty | TryRecvError::Disconnected) => break,
                        }
                    }
                    let stop = self.process_burst(&mut burst);
                    self.burst = burst;
                    if stop {
                        return;
                    }
                }
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }

    /// Processes one drained burst; returns `true` on `Stop`.
    ///
    /// Consecutive inputs for the same endpoint are grouped into a run and
    /// dispatched through [`Stack::handle_batch`]: one `set_now`, one
    /// reusable sink, one effect walk per run instead of per event.
    fn process_burst(&mut self, burst: &mut Vec<ShardIn>) -> bool {
        let now = self.now();
        let mut stop = false;
        let mut run = std::mem::take(&mut self.run);
        let mut run_ep: Option<EndpointAddr> = None;
        for input in burst.drain(..) {
            let (ep, stack_input) = match input {
                ShardIn::Frame { to, frame } => {
                    if let Some(t) = &self.tracer {
                        t.record(TraceEvent {
                            at: now,
                            ep: to,
                            kind: TraceKind::FrameDeliver {
                                from: frame.from,
                                cast: frame.cast,
                                bytes: frame.wire.len(),
                                digest: 0,
                                seq: 0,
                            },
                        });
                    }
                    (
                        to,
                        StackInput::FromNet {
                            from: frame.from,
                            cast: frame.cast,
                            wire: frame.wire,
                        },
                    )
                }
                ShardIn::App { ep, down } => (ep, StackInput::FromApp(down)),
                ShardIn::AddStack { stack, log } => {
                    self.flush_run(run_ep.take(), &mut run, now);
                    self.adopt(*stack, log);
                    continue;
                }
                ShardIn::Stats { reply } => {
                    self.flush_run(run_ep.take(), &mut run, now);
                    self.flush_casts();
                    let stats: Vec<(EndpointAddr, StackStats)> =
                        self.stacks.iter().map(|(&ep, o)| (ep, o.stack.stats().clone())).collect();
                    let _ = reply.send(stats);
                    continue;
                }
                ShardIn::Stop => {
                    stop = true;
                    break;
                }
            };
            if run_ep != Some(ep) {
                self.flush_run(run_ep, &mut run, now);
                run_ep = Some(ep);
            }
            run.push(stack_input);
        }
        self.flush_run(run_ep, &mut run, now);
        self.run = run;
        self.flush_casts();
        stop
    }

    /// Dispatches a buffered same-endpoint run through `handle_batch`.
    fn flush_run(&mut self, ep: Option<EndpointAddr>, run: &mut Vec<StackInput>, now: SimTime) {
        if run.is_empty() {
            return;
        }
        let Some(ep) = ep else {
            run.clear();
            return;
        };
        match self.stacks.get_mut(&ep) {
            Some(owned) => {
                owned.stack.set_now(now);
                owned.stack.handle_batch(run.drain(..), &mut self.sink);
            }
            None => run.clear(),
        }
        self.apply_effects(ep);
    }

    fn adopt(&mut self, mut stack: Stack, log: Arc<EpLog>) {
        let ep = stack.local_addr();
        if let Some(t) = stack.tracer() {
            self.tracer = Some(t.clone());
        }
        stack.set_now(self.now());
        stack.init(&mut self.sink);
        self.stacks.insert(ep, Owned { stack, log });
        self.apply_effects(ep);
    }

    /// Run-to-completion dispatch of one input into its owning stack.
    fn dispatch(&mut self, ep: EndpointAddr, input: StackInput, now: SimTime) {
        let Some(owned) = self.stacks.get_mut(&ep) else { return };
        owned.stack.set_now(now);
        owned.stack.handle_into(input, &mut self.sink);
        self.apply_effects(ep);
    }

    fn fire_due_timers(&mut self) {
        while self.timers.peek().is_some_and(|t| t.due <= Instant::now()) {
            let Some(t) = self.timers.pop() else { break };
            let now = self.now();
            if let Some(sink) = &self.tracer {
                sink.record(TraceEvent {
                    at: now,
                    ep: t.ep,
                    kind: TraceKind::TimerFire {
                        layer: t.layer,
                        token: t.token,
                        digest: 0,
                        seq: 0,
                    },
                });
            }
            self.dispatch(t.ep, StackInput::Timer { layer: t.layer, token: t.token, now }, now);
        }
        self.flush_casts();
    }

    /// Drains the sink, performing `ep`'s effects.  Casts are accumulated
    /// and flushed in one [`LoopbackNet::cast_batch`] snapshot; any effect
    /// whose transport ordering could interleave with them flushes first.
    fn apply_effects(&mut self, ep: EndpointAddr) {
        if self.pending_from != Some(ep) {
            self.flush_casts();
            self.pending_from = Some(ep);
        }
        let log = self.stacks.get(&ep).map(|o| Arc::clone(&o.log));
        // Move the sink out so its drain doesn't pin `self`; it (and its
        // capacity) goes straight back afterwards.
        let mut sink = std::mem::take(&mut self.sink);
        for fx in sink.drain() {
            match fx {
                Effect::Deliver(up) => {
                    if let Some(log) = &log {
                        if matches!(up, Up::Cast { .. }) {
                            log.casts.fetch_add(1, Ordering::Relaxed);
                        }
                        log.upcalls.fetch_add(1, Ordering::Relaxed);
                        if self.record_upcalls {
                            log.log.lock().push(up);
                        }
                    }
                }
                Effect::NetCast { wire } => self.pending_casts.push(wire),
                Effect::NetSend { dests, wire } => {
                    self.flush_casts_to(ep);
                    self.net.send(ep, &dests, wire);
                }
                Effect::NetJoin { group } => {
                    self.flush_casts_to(ep);
                    self.net.join(group, ep);
                }
                Effect::NetLeave => {
                    self.flush_casts_to(ep);
                    self.net.leave(ep);
                }
                Effect::SetTimer { layer, token, delay } => {
                    self.timers.push(TimerEntry { due: Instant::now() + delay, ep, layer, token });
                }
            }
        }
        self.sink = sink;
    }

    fn flush_casts(&mut self) {
        if let Some(from) = self.pending_from.take() {
            self.flush_casts_to(from);
        }
    }

    fn flush_casts_to(&mut self, from: EndpointAddr) {
        if !self.pending_casts.is_empty() {
            self.net.cast_batch(from, self.pending_casts.drain(..));
        }
    }
}

struct EpEntry {
    shard: usize,
    log: Arc<EpLog>,
    layout: Arc<HeaderLayout>,
}

/// The transport sink for one endpoint: frames go straight into the owning
/// shard's queue.  Bursts are published through `send_iter` — one lock and
/// one worker wake-up per burst, which is where the dispatch-boundary
/// batching pays on the receive side.
struct ShardSink {
    ep: EndpointAddr,
    tx: Sender<ShardIn>,
}

impl FrameSink for ShardSink {
    fn deliver(&self, frame: Frame) -> bool {
        self.tx.send(ShardIn::Frame { to: self.ep, frame }).is_ok()
    }

    fn deliver_many(&self, frames: &mut Vec<Frame>) -> usize {
        let ep = self.ep;
        self.tx
            .send_iter(frames.drain(..).map(|frame| ShardIn::Frame { to: ep, frame }))
            .unwrap_or(0)
    }
}

/// The sharded executor: `shards` worker threads over one loopback
/// transport, each owning a disjoint set of stacks.
///
/// ```no_run
/// use horus_sim::shard::{ShardConfig, ShardExecutor};
/// use horus_net::LoopbackNet;
/// use horus_core::prelude::*;
/// use std::time::Duration;
///
/// #[derive(Debug, Default, Clone)]
/// struct Nop;
/// impl Layer for Nop { fn name(&self) -> &'static str { "NOP" } }
///
/// let mut ex = ShardExecutor::new(LoopbackNet::new(), ShardConfig::with_shards(2));
/// for i in 1..=2 {
///     let s = StackBuilder::new(EndpointAddr::new(i)).push(Box::new(Nop)).build()?;
///     ex.add_stack(s);
///     ex.down(EndpointAddr::new(i), Down::Join { group: GroupAddr::new(1) });
/// }
/// std::thread::sleep(Duration::from_millis(10));
/// ex.cast_bytes(EndpointAddr::new(1), &b"hi"[..]);
/// assert!(ex.wait_until(Duration::from_secs(1), |ex| {
///     ex.cast_count(EndpointAddr::new(2)) >= 1
/// }));
/// ex.stop();
/// # Ok::<(), HorusError>(())
/// ```
pub struct ShardExecutor {
    txs: Vec<Sender<ShardIn>>,
    workers: Vec<JoinHandle<()>>,
    net: LoopbackNet,
    eps: BTreeMap<EndpointAddr, EpEntry>,
    stopped: bool,
}

impl ShardExecutor {
    /// Spawns the shard workers over `net`.
    pub fn new(net: LoopbackNet, config: ShardConfig) -> Self {
        let n = config.shards.max(1);
        let mut txs = Vec::with_capacity(n);
        let mut workers = Vec::with_capacity(n);
        for i in 0..n {
            let (tx, rx) = unbounded::<ShardIn>();
            let worker = Worker {
                rx,
                net: net.clone(),
                epoch: Instant::now(),
                batch_max: config.batch_max.max(1),
                record_upcalls: config.record_upcalls,
                stacks: BTreeMap::new(),
                timers: BinaryHeap::new(),
                sink: EffectSink::with_capacity(64),
                burst: Vec::with_capacity(config.batch_max.max(1)),
                run: Vec::with_capacity(config.batch_max.max(1)),
                pending_casts: Vec::with_capacity(config.batch_max.max(1)),
                pending_from: None,
                tracer: None,
            };
            txs.push(tx);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("horus-shard-{i}"))
                    .spawn(move || worker.run())
                    .expect("spawn shard worker"),
            );
        }
        ShardExecutor { txs, workers, net, eps: BTreeMap::new(), stopped: false }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.txs.len()
    }

    /// The transport this executor runs over.
    pub fn net(&self) -> &LoopbackNet {
        &self.net
    }

    /// The shard index that owns (or would own) `ep`.
    pub fn shard_of(&self, ep: EndpointAddr) -> usize {
        (ep.raw() % self.txs.len() as u64) as usize
    }

    /// Hands a stack to its owning shard and registers it on the transport
    /// with a sink that delivers frames straight into that shard's queue.
    pub fn add_stack(&mut self, stack: Stack) -> EndpointAddr {
        let ep = stack.local_addr();
        assert!(!self.eps.contains_key(&ep), "endpoint {ep} already added");
        let shard = self.shard_of(ep);
        let layout = stack.layout().clone();
        let log = Arc::new(EpLog::default());
        let tx = self.txs[shard].clone();
        self.net.register_sink(ep, Arc::new(ShardSink { ep, tx }));
        let _ = self.txs[shard]
            .send(ShardIn::AddStack { stack: Box::new(stack), log: Arc::clone(&log) });
        self.eps.insert(ep, EpEntry { shard, log, layout });
        ep
    }

    fn entry(&self, ep: EndpointAddr) -> &EpEntry {
        self.eps.get(&ep).unwrap_or_else(|| panic!("unknown endpoint {ep}"))
    }

    /// Issues a downcall to `ep`'s stack.
    pub fn down(&self, ep: EndpointAddr, down: Down) {
        let entry = self.entry(ep);
        let _ = self.txs[entry.shard].send(ShardIn::App { ep, down });
    }

    /// Creates a message against `ep`'s stack layout.
    pub fn new_message(&self, ep: EndpointAddr, body: impl Into<Bytes>) -> Message {
        Message::new(self.entry(ep).layout.clone(), body)
    }

    /// Convenience: cast an application payload from `ep`.
    pub fn cast_bytes(&self, ep: EndpointAddr, body: impl Into<Bytes>) {
        let msg = self.new_message(ep, body);
        self.down(ep, Down::Cast(msg));
    }

    /// Monotone count of CAST upcalls delivered to `ep`.
    pub fn cast_count(&self, ep: EndpointAddr) -> usize {
        self.entry(ep).log.casts.load(Ordering::Relaxed)
    }

    /// Monotone count of all upcalls delivered to `ep`.
    pub fn upcall_count(&self, ep: EndpointAddr) -> usize {
        self.entry(ep).log.upcalls.load(Ordering::Relaxed)
    }

    /// Drains `ep`'s recorded upcalls (empty when recording is disabled).
    pub fn take_upcalls(&self, ep: EndpointAddr) -> Vec<Up> {
        std::mem::take(&mut *self.entry(ep).log.log.lock())
    }

    /// Busy-waits (politely) until `pred` holds or `timeout` elapses;
    /// returns whether the predicate held.
    pub fn wait_until(&self, timeout: Duration, mut pred: impl FnMut(&Self) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if pred(self) {
                return true;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        pred(self)
    }

    /// Every stack's counters, by endpoint (a synchronous round-trip to each
    /// shard worker).
    pub fn stats_by_endpoint(&self) -> BTreeMap<EndpointAddr, StackStats> {
        let mut out = BTreeMap::new();
        for tx in &self.txs {
            let (reply_tx, reply_rx) = unbounded();
            if tx.send(ShardIn::Stats { reply: reply_tx }).is_err() {
                continue;
            }
            if let Ok(stats) = reply_rx.recv_timeout(Duration::from_secs(5)) {
                out.extend(stats);
            }
        }
        out
    }

    /// Per-shard aggregated counters (index = shard).
    pub fn shard_stats(&self) -> Vec<StackStats> {
        let mut per_shard = vec![StackStats::default(); self.txs.len()];
        for (ep, stats) in self.stats_by_endpoint() {
            per_shard[self.shard_of(ep)].merge(&stats);
        }
        per_shard
    }

    /// All shards' counters merged into one.
    pub fn aggregate_stats(&self) -> StackStats {
        let mut total = StackStats::default();
        for s in self.shard_stats() {
            total.merge(&s);
        }
        total
    }

    /// Stops the workers and deregisters every endpoint.
    pub fn stop(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        for ep in self.eps.keys() {
            self.net.deregister(*ep);
        }
        for tx in &self.txs {
            let _ = tx.send(ShardIn::Stop);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ShardExecutor {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn nop_stack(i: u64) -> Stack {
        StackBuilder::new(ep(i)).push(Box::new(Nop)).build().unwrap()
    }

    fn flood(shards: usize, batch_max: usize) {
        let cfg = ShardConfig::with_shards(shards).batch_max(batch_max);
        let mut ex = ShardExecutor::new(LoopbackNet::new(), cfg);
        let g = GroupAddr::new(1);
        for i in 1..=4 {
            ex.add_stack(nop_stack(i));
            ex.down(ep(i), Down::Join { group: g });
        }
        std::thread::sleep(Duration::from_millis(20));
        for k in 0..50u8 {
            ex.cast_bytes(ep(1), vec![k]);
        }
        for i in 1..=4 {
            assert!(
                ex.wait_until(Duration::from_secs(5), |ex| ex.cast_count(ep(i)) >= 50),
                "ep {i} saw {}/50 casts under {shards} shards batch {batch_max}",
                ex.cast_count(ep(i))
            );
        }
        ex.stop();
    }

    #[test]
    fn delivers_across_shards() {
        flood(3, 64);
    }

    #[test]
    fn delivers_with_single_shard() {
        flood(1, 64);
    }

    #[test]
    fn delivers_unbatched() {
        flood(2, 1);
    }

    #[test]
    fn stacks_are_sharded_disjointly() {
        let mut ex = ShardExecutor::new(LoopbackNet::new(), ShardConfig::with_shards(3));
        for i in 1..=9 {
            ex.add_stack(nop_stack(i));
        }
        for i in 1..=9u64 {
            assert_eq!(ex.shard_of(ep(i)), (i % 3) as usize);
        }
        ex.stop();
    }

    #[test]
    fn timers_fire_under_real_time() {
        #[derive(Debug, Default, Clone)]
        struct Tick {
            count: u64,
        }
        impl Layer for Tick {
            fn name(&self) -> &'static str {
                "TICK"
            }
            fn on_init(&mut self, ctx: &mut LayerCtx<'_>) {
                ctx.set_timer(Duration::from_millis(5), 0);
            }
            fn on_timer(&mut self, _t: u64, ctx: &mut LayerCtx<'_>) {
                self.count += 1;
                if self.count < 3 {
                    ctx.set_timer(Duration::from_millis(5), 0);
                } else {
                    ctx.up(Up::Exit);
                }
            }
        }
        let mut ex = ShardExecutor::new(LoopbackNet::new(), ShardConfig::default());
        let s = StackBuilder::new(ep(9)).push(Box::new(Tick::default())).build().unwrap();
        ex.add_stack(s);
        assert!(ex.wait_until(Duration::from_secs(5), |ex| {
            ex.take_upcalls(ep(9)).iter().any(|u| matches!(u, Up::Exit))
        }));
        ex.stop();
    }

    #[test]
    fn stats_aggregate_per_shard_and_overall() {
        let mut ex =
            ShardExecutor::new(LoopbackNet::new(), ShardConfig::with_shards(2).batch_max(8));
        let g = GroupAddr::new(1);
        for i in 1..=2 {
            ex.add_stack(nop_stack(i));
            ex.down(ep(i), Down::Join { group: g });
        }
        std::thread::sleep(Duration::from_millis(20));
        for _ in 0..10 {
            ex.cast_bytes(ep(1), &b"x"[..]);
        }
        assert!(ex.wait_until(Duration::from_secs(5), |ex| ex.cast_count(ep(2)) >= 10));
        let by_ep = ex.stats_by_endpoint();
        assert_eq!(by_ep[&ep(1)].msgs_sent, 10);
        assert_eq!(by_ep[&ep(2)].msgs_received, 10);
        let total = ex.aggregate_stats();
        assert_eq!(total.msgs_sent, 10);
        assert_eq!(total.msgs_received, 20, "loopback + remote delivery");
        // ep(1) is on shard 1, ep(2) on shard 0: per-shard split holds.
        let per_shard = ex.shard_stats();
        assert_eq!(per_shard[1].msgs_sent, 10);
        assert_eq!(per_shard[0].msgs_sent, 0);
        assert!(total.batches > 0, "batched dispatch must be exercised");
        ex.stop();
    }

    #[test]
    fn upcall_recording_can_be_disabled() {
        let mut ex =
            ShardExecutor::new(LoopbackNet::new(), ShardConfig::default().record_upcalls(false));
        let g = GroupAddr::new(1);
        ex.add_stack(nop_stack(1));
        ex.down(ep(1), Down::Join { group: g });
        std::thread::sleep(Duration::from_millis(10));
        ex.cast_bytes(ep(1), &b"x"[..]);
        assert!(ex.wait_until(Duration::from_secs(5), |ex| ex.cast_count(ep(1)) >= 1));
        assert!(ex.take_upcalls(ep(1)).is_empty(), "recording disabled");
        ex.stop();
    }
}
