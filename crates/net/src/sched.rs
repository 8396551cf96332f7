//! The network-nondeterminism choice points, extracted behind a trait.
//!
//! Everything random the simulated network does — loss dice, duplication,
//! garbling, latency jitter, directed-loss coins — flows through a
//! [`NetScheduler`].  The production implementation, [`RandomScheduler`],
//! wraps the same seeded `StdRng` the network always consumed, drawing in
//! exactly the same order, so every pre-existing `(seed, script)` replay is
//! byte-identical.  The bounded model checker (`horus-check`) substitutes
//! [`FixedScheduler`], which collapses the physics to a deterministic
//! no-fault network and moves drop/reorder decisions up to the explorer's
//! own choice list.
//!
//! `StdRng` itself implements the trait, so call sites that historically
//! passed `&mut StdRng` keep compiling (and keep their byte streams).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which probabilistic choice point is being resolved (diagnostic only —
/// implementations may ignore it, but a controlled scheduler can use it to
/// budget fault classes separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChanceKind {
    /// Uniform random frame loss (`NetConfig::loss`).
    Loss,
    /// Frame duplication (`NetConfig::duplicate`).
    Duplicate,
    /// Random in-flight corruption (`NetConfig::garble`).
    Garble,
    /// A `FaultRule::DirectedLoss` coin.
    DirectedLoss,
}

/// Duplicates a boxed scheduler's full state (RNG position included), so
/// world snapshots resume the same choice stream.  Implemented for every
/// `NetScheduler + Clone + Send`.
pub trait NetSchedulerClone {
    /// A copy of this scheduler.
    fn clone_box(&self) -> Box<dyn NetScheduler + Send>;
}

impl<T: NetScheduler + Clone + Send + 'static> NetSchedulerClone for T {
    fn clone_box(&self) -> Box<dyn NetScheduler + Send> {
        Box::new(self.clone())
    }
}

/// Resolver for the network's probabilistic choice points.
///
/// Implementations must be deterministic functions of their own state: the
/// same construction plus the same call sequence must yield the same
/// answers, or `(seed, script)` replay breaks.
pub trait NetScheduler: NetSchedulerClone {
    /// Resolves a probabilistic event with probability `p`.
    fn chance(&mut self, kind: ChanceKind, p: f64) -> bool;

    /// Samples a one-way latency in `[lo, hi]` nanoseconds (inclusive).
    fn latency_nanos(&mut self, lo: u64, hi: u64) -> u64;

    /// Picks an index in `[0, n)` (garble positions / bit choices).
    fn pick(&mut self, n: usize) -> usize;
}

impl NetScheduler for StdRng {
    fn chance(&mut self, _kind: ChanceKind, p: f64) -> bool {
        self.gen_bool(p)
    }

    fn latency_nanos(&mut self, lo: u64, hi: u64) -> u64 {
        self.gen_range(lo..=hi)
    }

    fn pick(&mut self, n: usize) -> usize {
        self.gen_range(0..n)
    }
}

/// The production scheduler: the world's seeded RNG, drawn in the exact
/// order the network historically consumed it.
#[derive(Debug, Clone)]
pub struct RandomScheduler {
    rng: StdRng,
}

impl RandomScheduler {
    /// Seeds the scheduler (same stream as `StdRng::seed_from_u64`).
    pub fn new(seed: u64) -> Self {
        RandomScheduler { rng: StdRng::seed_from_u64(seed) }
    }
}

impl NetScheduler for RandomScheduler {
    fn chance(&mut self, kind: ChanceKind, p: f64) -> bool {
        self.rng.chance(kind, p)
    }

    fn latency_nanos(&mut self, lo: u64, hi: u64) -> u64 {
        self.rng.latency_nanos(lo, hi)
    }

    fn pick(&mut self, n: usize) -> usize {
        self.rng.pick(n)
    }
}

/// The model checker's scheduler: no randomness at all.  Probabilistic
/// faults never fire, latency pins to the lower bound, and index choices
/// take the first option — the explorer injects drops and reorderings
/// explicitly, as recorded choices, instead of via dice.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedScheduler;

impl NetScheduler for FixedScheduler {
    fn chance(&mut self, _kind: ChanceKind, _p: f64) -> bool {
        false
    }

    fn latency_nanos(&mut self, lo: u64, _hi: u64) -> u64 {
        lo
    }

    fn pick(&mut self, _n: usize) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stdrng_and_random_scheduler_share_one_stream() {
        let mut raw = StdRng::seed_from_u64(42);
        let mut wrapped = RandomScheduler::new(42);
        for i in 0..100u64 {
            let p = (i % 10) as f64 / 10.0;
            assert_eq!(raw.gen_bool(p), wrapped.chance(ChanceKind::Loss, p));
            assert_eq!(raw.gen_range(50u64..=200), wrapped.latency_nanos(50, 200));
            assert_eq!(raw.gen_range(0..7usize), wrapped.pick(7));
        }
    }

    #[test]
    fn fixed_scheduler_is_inert() {
        let mut s = FixedScheduler;
        assert!(!s.chance(ChanceKind::Loss, 0.99));
        assert_eq!(s.latency_nanos(50, 200), 50);
        assert_eq!(s.pick(8), 0);
    }
}
