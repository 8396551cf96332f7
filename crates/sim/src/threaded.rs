//! A real-time, really-threaded executor — the locked-threads side of the
//! §10 dispatch-model ablation.
//!
//! The paper reports that Horus was moving *away* from intra-stack threading
//! ("concurrency within a stack does not lead to significant gains") toward
//! one scheduling thread per stack.  [`ThreadedEndpoint`] runs a stack the
//! 1995 way: a frame pump and a timer thread feed one input channel, and
//! `n` worker threads share it, taking a mutex around every stack dispatch
//! (the thread-per-upcall, lock-per-group model).  With one worker this is
//! the per-event event-queue baseline; the batched one-thread-per-stack
//! design is [`crate::shard::ShardExecutor`].
//!
//! Timekeeping maps the monotonic OS clock onto [`SimTime`], so protocol
//! timers behave identically to the simulated world.

use crate::shard::TimerEntry;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use horus_core::prelude::*;
use horus_net::threaded::Frame;
use horus_net::LoopbackNet;
use parking_lot::Mutex;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

enum In {
    Frame(Frame),
    Timer { layer: usize, token: u64 },
    App(Down),
    Stop,
}

struct Shared {
    stack: Mutex<Stack>,
    upcalls: Mutex<Vec<Up>>,
    timers: Mutex<BinaryHeap<TimerEntry>>,
    net: LoopbackNet,
    epoch: Instant,
    /// Mirror of the stack's sink, readable without the stack lock: the
    /// executor records frame/timer *arrivals* (the calendar-fire analogue);
    /// everything inside the dispatch is recorded by the stack itself.
    tracer: Option<Arc<dyn TraceSink>>,
}

impl Shared {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    /// Performs (and drains) the effects in `sink`.
    fn apply(&self, ep: EndpointAddr, sink: &mut EffectSink) {
        for fx in sink.drain() {
            match fx {
                Effect::Deliver(up) => self.upcalls.lock().push(up),
                Effect::NetCast { wire } => {
                    self.net.cast(ep, wire);
                }
                Effect::NetSend { dests, wire } => {
                    self.net.send(ep, &dests, wire);
                }
                Effect::NetJoin { group } => self.net.join(group, ep),
                Effect::NetLeave => self.net.leave(ep),
                Effect::SetTimer { layer, token, delay } => {
                    self.timers.lock().push(TimerEntry {
                        due: Instant::now() + delay,
                        ep,
                        layer,
                        token,
                    });
                }
            }
        }
    }
}

/// A running endpoint under the threaded executor.
pub struct ThreadedEndpoint {
    addr: EndpointAddr,
    shared: Arc<Shared>,
    input_tx: Sender<In>,
    workers: Vec<JoinHandle<()>>,
    timer_thread: Option<JoinHandle<()>>,
    stopped: bool,
}

impl ThreadedEndpoint {
    /// Spawns an endpoint running `stack` on `net` with `workers` dispatch
    /// threads (at least one), each locking the stack per event.
    pub fn spawn(stack: Stack, net: LoopbackNet, workers: usize) -> Self {
        let addr = stack.local_addr();
        let tracer = stack.tracer().cloned();
        let rx_frames = net.register(addr);
        let (input_tx, input_rx) = unbounded::<In>();
        let shared = Arc::new(Shared {
            stack: Mutex::new(stack),
            upcalls: Mutex::new(Vec::new()),
            timers: Mutex::new(BinaryHeap::new()),
            net,
            epoch: Instant::now(),
            tracer,
        });

        // Init layers (arms initial timers).
        {
            let mut sink = EffectSink::new();
            let mut stack = shared.stack.lock();
            stack.set_now(shared.now());
            stack.init(&mut sink);
            drop(stack);
            shared.apply(addr, &mut sink);
        }

        // Frame pump: moves transport frames into the input channel.
        {
            let tx = input_tx.clone();
            std::thread::spawn(move || {
                for f in rx_frames.iter() {
                    if tx.send(In::Frame(f)).is_err() {
                        break;
                    }
                }
            });
        }

        // Timer thread: fires due timers into the input channel.
        let timer_thread = {
            let shared = Arc::clone(&shared);
            let tx = input_tx.clone();
            Some(std::thread::spawn(move || loop {
                // Pop a due timer (or learn the next deadline) under a single
                // lock acquisition — never peek under one lock and pop under
                // another, which would panic if a second popper ever appeared.
                // The channel send happens outside the lock.
                let (fire, next_due) = {
                    let mut timers = shared.timers.lock();
                    match timers.peek().map(|t| t.due) {
                        Some(due) if due <= Instant::now() => (timers.pop(), None),
                        other => (None, other),
                    }
                };
                if let Some(entry) = fire {
                    if tx.send(In::Timer { layer: entry.layer, token: entry.token }).is_err() {
                        return;
                    }
                    continue;
                }
                match next_due {
                    Some(due) => {
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep((due - now).min(Duration::from_millis(1)));
                        }
                    }
                    None => {
                        std::thread::sleep(Duration::from_millis(1));
                        // Exit when the endpoint itself is gone (only this
                        // thread still holds the shared state).
                        if Arc::strong_count(&shared) == 1 {
                            return;
                        }
                    }
                }
            }))
        };

        let n_workers = workers.max(1);
        let mut workers = Vec::with_capacity(n_workers);
        for _ in 0..n_workers {
            let shared = Arc::clone(&shared);
            let rx: Receiver<In> = input_rx.clone();
            workers.push(std::thread::spawn(move || {
                // One reusable effect buffer per worker.
                let mut sink = EffectSink::with_capacity(16);
                for input in rx.iter() {
                    let stack_input = match input {
                        In::Stop => break,
                        In::Frame(f) => {
                            if let Some(t) = &shared.tracer {
                                t.record(TraceEvent {
                                    at: shared.now(),
                                    ep: addr,
                                    kind: TraceKind::FrameDeliver {
                                        from: f.from,
                                        cast: f.cast,
                                        bytes: f.wire.len(),
                                        digest: 0,
                                        seq: 0,
                                    },
                                });
                            }
                            StackInput::FromNet { from: f.from, cast: f.cast, wire: f.wire }
                        }
                        In::Timer { layer, token } => {
                            if let Some(t) = &shared.tracer {
                                t.record(TraceEvent {
                                    at: shared.now(),
                                    ep: addr,
                                    kind: TraceKind::TimerFire { layer, token, digest: 0, seq: 0 },
                                });
                            }
                            StackInput::Timer { layer, token, now: shared.now() }
                        }
                        In::App(down) => StackInput::FromApp(down),
                    };
                    {
                        let mut stack = shared.stack.lock();
                        stack.set_now(shared.now());
                        stack.handle_into(stack_input, &mut sink);
                    }
                    shared.apply(addr, &mut sink);
                }
            }));
        }

        ThreadedEndpoint { addr, shared, input_tx, workers, timer_thread, stopped: false }
    }

    /// The endpoint's address.
    pub fn addr(&self) -> EndpointAddr {
        self.addr
    }

    /// Issues a downcall.
    pub fn down(&self, down: Down) {
        let _ = self.input_tx.send(In::App(down));
    }

    /// Creates a message against the endpoint's stack layout.
    pub fn new_message(&self, body: impl Into<Bytes>) -> Message {
        self.shared.stack.lock().new_message(body)
    }

    /// Convenience: cast an application payload.
    pub fn cast_bytes(&self, body: impl Into<Bytes>) {
        let msg = self.new_message(body);
        self.down(Down::Cast(msg));
    }

    /// Number of upcalls delivered so far.
    pub fn upcall_count(&self) -> usize {
        self.shared.upcalls.lock().len()
    }

    /// Number of CAST upcalls delivered so far.
    pub fn cast_count(&self) -> usize {
        self.shared.upcalls.lock().iter().filter(|u| matches!(u, Up::Cast { .. })).count()
    }

    /// Drains the delivered upcalls.
    pub fn take_upcalls(&self) -> Vec<Up> {
        std::mem::take(&mut *self.shared.upcalls.lock())
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

    /// Stops the workers and deregisters from the transport.
    pub fn stop(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        for _ in 0..self.workers.len() {
            let _ = self.input_tx.send(In::Stop);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.shared.net.deregister(self.addr);
        // The frame pump ends when its channel closes (deregister), and the
        // timer thread ends when the Arc count drops; detach both.
        let _ = self.timer_thread.take();
    }
}

impl Drop for ThreadedEndpoint {
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

    fn run_workers(workers: usize) {
        let net = LoopbackNet::new();
        let g = GroupAddr::new(1);
        let mut eps: Vec<ThreadedEndpoint> = (1..=2)
            .map(|i| {
                let stack = StackBuilder::new(ep(i)).push(Box::new(Nop)).build().unwrap();
                ThreadedEndpoint::spawn(stack, net.clone(), workers)
            })
            .collect();
        for e in &eps {
            e.down(Down::Join { group: g });
        }
        // Let the joins land.
        std::thread::sleep(Duration::from_millis(20));
        for k in 0..50u8 {
            eps[0].cast_bytes(vec![k]);
        }
        assert!(
            eps[1].wait_until(Duration::from_secs(5), |e| e.cast_count() >= 50),
            "receiver saw {} of 50 casts",
            eps[1].cast_count()
        );
        // Loopback delivery to the sender itself also happens.
        assert!(eps[0].wait_until(Duration::from_secs(5), |e| e.cast_count() >= 50));
        for e in &mut eps {
            e.stop();
        }
    }

    #[test]
    fn one_worker_delivers() {
        run_workers(1);
    }

    #[test]
    fn locked_threads_model_delivers() {
        run_workers(4);
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
        let net = LoopbackNet::new();
        let stack = StackBuilder::new(ep(9)).push(Box::new(Tick::default())).build().unwrap();
        let mut e = ThreadedEndpoint::spawn(stack, net, 1);
        assert!(e.wait_until(Duration::from_secs(5), |e| {
            e.take_upcalls().iter().any(|u| matches!(u, Up::Exit))
        }));
        e.stop();
    }
}
