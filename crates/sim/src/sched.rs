//! The schedule-level choice point, extracted behind a trait.
//!
//! [`crate::world::SimWorld`] resolves *two* kinds of nondeterminism.  The
//! network's probabilistic physics (loss dice, latency jitter) go through
//! `horus_net::NetScheduler`; *which ready event fires next* — the ordering
//! freedom an asynchronous network grants — goes through this module's
//! [`Scheduler`].  The calendar order (earliest time, insertion-order
//! tie-break) is what every pre-existing test executes; that policy is
//! [`CalendarScheduler`], and [`SimWorld::run_scheduled`] driven by it is
//! step-for-step identical to [`SimWorld::run_until`].
//!
//! The bounded model checker (`horus-check`) implements [`Scheduler`] with a
//! choice list: at each branch point it consults the next recorded choice,
//! which is how a counterexample schedule replays byte-identically.

use crate::world::{ReadyEvent, SimWorld};
use horus_core::prelude::*;
use std::time::Duration;

/// One scheduling decision over a ready set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Fire `ready[i]` now (delaying everything else in the window).
    Fire(usize),
    /// Drop `ready[i]` — legal only for remote frame deliveries; the world
    /// refuses (and the executor halts) otherwise.
    Drop(usize),
    /// Crash an endpoint at the current instant, then re-offer the ready set.
    Crash(EndpointAddr),
    /// Inject a (possibly false) suspicion, then re-offer the ready set.
    Suspect {
        /// The endpoint being told.
        observer: EndpointAddr,
        /// The endpoint it will suspect.
        target: EndpointAddr,
    },
    /// Stop executing (bound exhausted / exploration cut).
    Halt,
}

/// Chooses the next [`Step`] given the world and its ready set.
///
/// `ready` is never empty, and index 0 is always the event
/// [`SimWorld::run_until`] would fire — so `Step::Fire(0)` forever *is* the
/// legacy executor.
pub trait Scheduler {
    /// Picks the next step.
    fn next_step(&mut self, world: &SimWorld, ready: &[ReadyEvent]) -> Step;
}

/// The production policy: strict calendar order, no induced faults.
#[derive(Debug, Clone, Copy, Default)]
pub struct CalendarScheduler;

impl Scheduler for CalendarScheduler {
    fn next_step(&mut self, _world: &SimWorld, _ready: &[ReadyEvent]) -> Step {
        Step::Fire(0)
    }
}

/// Outcome of a [`SimWorld::run_scheduled`] drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// No pending events remain at or before the deadline.
    Quiescent,
    /// The scheduler returned [`Step::Halt`].
    Halted,
    /// The scheduler returned an ill-formed step (index out of range, or a
    /// drop of an undroppable event).  The world is left as-is.
    Rejected,
}

impl SimWorld {
    /// Runs the world under an explicit [`Scheduler`] until `deadline`.
    ///
    /// Events within `window` of the earliest pending event form the ready
    /// set offered at each step; `window == 0` offers exact ties only, which
    /// makes `CalendarScheduler` reproduce [`SimWorld::run_until`] exactly.
    /// Like `run_until`, the clock ends at `deadline` even if the calendar
    /// drains early.
    pub fn run_scheduled(
        &mut self,
        sched: &mut dyn Scheduler,
        window: Duration,
        deadline: SimTime,
    ) -> RunOutcome {
        let mut ready: Vec<ReadyEvent> = Vec::new();
        let outcome = loop {
            match self.next_event_at() {
                Some(at) if at <= deadline => {}
                _ => break RunOutcome::Quiescent,
            }
            self.ready_events_into(window, &mut ready);
            match sched.next_step(self, &ready) {
                Step::Fire(i) => {
                    let Some(ev) = ready.get(i) else { break RunOutcome::Rejected };
                    self.fire(ev.id);
                }
                Step::Drop(i) => {
                    let ok = ready.get(i).is_some_and(|ev| self.drop_pending(ev.id));
                    if !ok {
                        break RunOutcome::Rejected;
                    }
                }
                Step::Crash(ep) => self.inject_crash(ep),
                Step::Suspect { observer, target } => self.inject_suspect(observer, target),
                Step::Halt => break RunOutcome::Halted,
            }
        };
        if outcome == RunOutcome::Quiescent {
            self.advance_to(deadline);
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use horus_net::NetConfig;

    #[derive(Debug, Default, Clone)]
    struct Echo;
    impl Layer for Echo {
        fn name(&self) -> &'static str {
            "ECHO"
        }
    }

    fn world_pair() -> (SimWorld, EndpointAddr, EndpointAddr) {
        let mut w = SimWorld::new(7, NetConfig::reliable());
        let a = EndpointAddr::new(1);
        let b = EndpointAddr::new(2);
        for ep in [a, b] {
            let stack = StackBuilder::new(ep).push(Box::new(Echo)).build().unwrap();
            w.add_endpoint(stack);
            w.join(ep, GroupAddr::new(1));
        }
        (w, a, b)
    }

    #[test]
    fn calendar_scheduler_matches_run_until() {
        let script = |w: &mut SimWorld, a: EndpointAddr| {
            for i in 0..20u8 {
                w.cast_bytes_at(SimTime::from_micros(u64::from(i) * 10), a, vec![i]);
            }
        };
        let (mut w1, a1, b1) = world_pair();
        script(&mut w1, a1);
        w1.run_until(SimTime::from_millis(5));

        let (mut w2, a2, b2) = world_pair();
        script(&mut w2, a2);
        let out = w2.run_scheduled(&mut CalendarScheduler, Duration::ZERO, SimTime::from_millis(5));
        assert_eq!(out, RunOutcome::Quiescent);
        assert_eq!(w1.now(), w2.now());
        assert_eq!(w1.delivered_casts(b1), w2.delivered_casts(b2));
        assert_eq!(w1.fingerprint(), w2.fingerprint());
        let _ = (a1, a2);
    }

    struct ReverseInWindow;
    impl Scheduler for ReverseInWindow {
        fn next_step(&mut self, _w: &SimWorld, ready: &[ReadyEvent]) -> Step {
            Step::Fire(ready.len() - 1)
        }
    }

    #[test]
    fn firing_out_of_order_reorders_delivery() {
        let (mut w, a, b) = world_pair();
        // Settle the t=0 join downcalls in calendar order first, so the
        // reversing scheduler only reorders the casts themselves.
        w.run_until(SimTime::from_micros(1));
        // Two casts scheduled a hair apart: both land in a 1ms ready window.
        w.cast_bytes_at(SimTime::from_micros(10), a, &b"first"[..]);
        w.cast_bytes_at(SimTime::from_micros(20), a, &b"second"[..]);
        let out = w.run_scheduled(
            &mut ReverseInWindow,
            Duration::from_millis(1),
            SimTime::from_millis(5),
        );
        assert_eq!(out, RunOutcome::Quiescent);
        let got: Vec<_> = w.delivered_casts(b).into_iter().map(|(_, m, _)| m).collect();
        assert_eq!(
            got,
            vec![bytes::Bytes::from_static(b"second"), bytes::Bytes::from_static(b"first")]
        );
    }

    #[test]
    fn drop_pending_suppresses_delivery_and_counts() {
        let (mut w, a, b) = world_pair();
        w.run_until(SimTime::from_micros(1));
        w.cast_bytes_at(SimTime::from_micros(10), a, &b"gone"[..]);
        struct DropAll;
        impl Scheduler for DropAll {
            fn next_step(&mut self, _w: &SimWorld, ready: &[ReadyEvent]) -> Step {
                for (i, ev) in ready.iter().enumerate() {
                    if ev.kind.droppable() {
                        return Step::Drop(i);
                    }
                }
                Step::Fire(0)
            }
        }
        w.run_scheduled(&mut DropAll, Duration::ZERO, SimTime::from_millis(5));
        assert!(w.delivered_casts(b).is_empty());
        assert_eq!(w.net_stats().dropped_induced, 1);
    }

    #[test]
    fn halt_leaves_pending_events() {
        let (mut w, a, _b) = world_pair();
        w.cast_bytes_at(SimTime::from_micros(10), a, &b"x"[..]);
        struct HaltNow;
        impl Scheduler for HaltNow {
            fn next_step(&mut self, _w: &SimWorld, _ready: &[ReadyEvent]) -> Step {
                Step::Halt
            }
        }
        let out = w.run_scheduled(&mut HaltNow, Duration::ZERO, SimTime::from_millis(5));
        assert_eq!(out, RunOutcome::Halted);
        assert!(w.pending_events() > 0);
    }
}
