//! TOTAL — token-based totally ordered multicast (§7).
//!
//! "The TOTAL layer, in turn, relies on virtually synchronous
//! communication.  During normal operation, it utilizes a token.  A special
//! 'oracle' at each member decides who should get the token next. [...] In
//! case of a failure, the token may be lost.  This, however, is not a
//! problem.  During the flush, all members that did not get the token in
//! time send their messages.  These messages are not delivered, but
//! buffered.  When the new view is installed, each member that remains
//! connected to the system is guaranteed to have all messages from the
//! previous view, and a deterministic order can easily be constructed
//! (e.g., messages are delivered in the order of the rank of the source).
//! Another deterministic rule decides who the first token holder in this
//! view is (e.g., the lowest ranked member)."
//!
//! The implementation follows the paper exactly:
//!
//! * Senders multicast data immediately, tagged `(sender, tseq)`; receivers
//!   buffer it *unordered*.
//! * Only the current **token holder** issues ORDER messages, assigning
//!   contiguous global sequence numbers to buffered messages; everyone
//!   delivers in global order.  The ORDER message also names the next
//!   holder, so the token grant is totally ordered by construction and two
//!   holders can never coexist.
//! * The **oracle** picks the next holder: the sender of the newest message
//!   just ordered (an active sender orders its own traffic cheaply), which
//!   "cannot always make the optimal decision ... but comes close".
//! * On a VIEW upcall from MBRSHIP the token is reconstructed for free:
//!   leftover unordered messages (all members hold the same set, thanks to
//!   virtual synchrony) are delivered in `(source rank, tseq)` order, and
//!   the lowest-ranked member of the new view becomes the first holder.
//!
//! As §7 notes, TOTAL needs no failure detector of its own — its liveness
//! rests entirely on the view changes MBRSHIP supplies, which is how it
//! sidesteps the FLP impossibility argument.
//!
//! Requires P3, P8, P9, P15 beneath; provides P6 (totally ordered
//! delivery).

use horus_core::prelude::*;
use horus_core::wire::{WireReader, WireWriter};
use std::collections::BTreeMap;

const FIELDS: &[FieldSpec] = &[FieldSpec::new("kind", 2), FieldSpec::new("tseq", 32)];

const KIND_DATA: u64 = 0;
const KIND_ORDER: u64 = 1;

/// The token-based total ordering layer.
#[derive(Clone)]
pub struct Total {
    me: Option<EndpointAddr>,
    view: Option<View>,
    /// Per-sender sequence of our own casts within the view.
    my_tseq: u32,
    /// Buffered data not yet delivered: keyed by `(sender, tseq)`.
    unordered: BTreeMap<(EndpointAddr, u32), Message>,
    /// Keys already assigned a global sequence (delivery may still wait for
    /// the data or for earlier global numbers).
    ordered: BTreeMap<u64, (EndpointAddr, u32)>,
    /// Keys that have been ordered (reverse index of `ordered`).
    assigned: BTreeMap<(EndpointAddr, u32), u64>,
    /// Next global sequence number to deliver.
    gnext: u64,
    /// Disjoint [base, end) ranges of global sequence numbers covered by
    /// applied ORDER messages.
    covered: BTreeMap<u64, u64>,
    /// If the token was granted to us: the base our first assignment must
    /// start at.  We may only issue once `frontier() == grant` — i.e. we
    /// have applied every ORDER before our grant — otherwise we could
    /// re-assign keys ordered by a message still in flight (ORDERs from
    /// different senders are only FIFO per sender).
    grant: Option<u64>,
    /// Last known holder (the most recent grant applied), for diagnostics
    /// and the oracle.
    holder: Option<EndpointAddr>,
    holder_gen: u64,
    /// A flush is in progress below (§7: "these messages are not
    /// delivered, but buffered"): no ordering decisions, and application
    /// casts are held back so their sequence stamps belong to the view
    /// they will actually be sent in.
    flushing: bool,
    held: std::collections::VecDeque<Message>,
    // Statistics.
    delivered: u64,
    orders_issued: u64,
    token_passes: u64,
    view_drains: u64,
}

impl Default for Total {
    fn default() -> Self {
        Total::new()
    }
}

impl Total {
    /// Creates a TOTAL layer.
    pub fn new() -> Self {
        Total {
            me: None,
            view: None,
            my_tseq: 0,
            unordered: BTreeMap::new(),
            ordered: BTreeMap::new(),
            assigned: BTreeMap::new(),
            gnext: 1,
            covered: BTreeMap::new(),
            grant: None,
            holder: None,
            holder_gen: 0,
            flushing: false,
            held: std::collections::VecDeque::new(),
            delivered: 0,
            orders_issued: 0,
            token_passes: 0,
            view_drains: 0,
        }
    }

    /// The contiguous coverage frontier: every global sequence in
    /// `[1, frontier)` has been assigned by an applied (or self-issued)
    /// ORDER.
    fn frontier(&self) -> u64 {
        let mut f = 1;
        for (&base, &end) in &self.covered {
            if base > f {
                break;
            }
            f = f.max(end);
        }
        f
    }

    fn add_coverage(&mut self, base: u64, len: u64) {
        let e = self.covered.entry(base).or_insert(base);
        *e = (*e).max(base + len);
    }

    /// The oracle (§7): pick the next holder after a batch — the sender of
    /// the newest message ordered, so active senders self-order cheaply.
    fn oracle(&self, batch: &[(EndpointAddr, u32)]) -> EndpointAddr {
        batch.last().map(|&(src, _)| src).unwrap_or_else(|| self.me.expect("init"))
    }

    /// Token holder: assign global sequence numbers to everything buffered
    /// and not yet ordered, then hand the token onward.  Only runs when we
    /// hold a grant *and* have applied every order before it, which makes
    /// double assignment impossible.
    fn issue_order(&mut self, ctx: &mut LayerCtx<'_>) {
        if self.flushing {
            return; // the view change will rebuild the token deterministically
        }
        let Some(g_base) = self.grant else { return };
        if self.frontier() != g_base {
            return; // not caught up with the order chain yet
        }
        let batch: Vec<(EndpointAddr, u32)> =
            self.unordered.keys().filter(|k| !self.assigned.contains_key(*k)).copied().collect();
        if batch.is_empty() {
            return;
        }
        let n = batch.len() as u64;
        let next_holder = self.oracle(&batch);
        let mut w = WireWriter::with_capacity(20 + 12 * batch.len());
        w.put_u64(g_base);
        w.put_addr(next_holder);
        w.put_u32(batch.len() as u32);
        for &(src, tseq) in &batch {
            w.put_addr(src);
            w.put_u32(tseq);
        }
        self.orders_issued += 1;
        // Our own assignments take effect immediately (the loopback copy
        // is then a no-op duplicate): apply entries and coverage now so a
        // kept token can chain issues without waiting.
        for (i, &key) in batch.iter().enumerate() {
            self.ordered.insert(g_base + i as u64, key);
            self.assigned.insert(key, g_base + i as u64);
        }
        self.add_coverage(g_base, n);
        let mut m = ctx.new_message(w.finish());
        ctx.stamp(&mut m);
        ctx.set(&mut m, 0, KIND_ORDER);
        ctx.set(&mut m, 1, 0);
        ctx.down(Down::Cast(m));
        if next_holder == self.me.expect("init") {
            self.grant = Some(g_base + n);
        } else {
            self.token_passes += 1;
            self.grant = None;
            self.holder = Some(next_holder);
        }
        self.try_deliver(ctx);
    }

    fn handle_order(&mut self, src: EndpointAddr, body: &[u8], ctx: &mut LayerCtx<'_>) {
        if Some(src) == self.me {
            // Our own ORDER already took effect at issue time; re-applying
            // the loopback copy could resurrect a stale self-grant.
            return;
        }
        let mut r = WireReader::new(body);
        let Ok(g_base) = r.get_u64() else { return };
        let Ok(next_holder) = r.get_addr() else { return };
        let Ok(n) = r.get_u32() else { return };
        for i in 0..n as u64 {
            let (Ok(src), Ok(tseq)) = (r.get_addr(), r.get_u32()) else { return };
            // Our own issues were applied at issue time; duplicates no-op.
            self.ordered.entry(g_base + i).or_insert((src, tseq));
            self.assigned.entry((src, tseq)).or_insert(g_base + i);
        }
        self.add_coverage(g_base, n as u64);
        if g_base >= self.holder_gen {
            self.holder = Some(next_holder);
            self.holder_gen = g_base;
        }
        if next_holder == self.me.expect("init") && self.grant.is_none() {
            self.grant = Some(g_base + n as u64);
        }
        // Coverage may have advanced enough to act on a pending grant.
        self.issue_order(ctx);
        self.try_deliver(ctx);
    }

    fn try_deliver(&mut self, ctx: &mut LayerCtx<'_>) {
        while let Some(&key) = self.ordered.get(&self.gnext) {
            let Some(mut msg) = self.unordered.remove(&key) else { break };
            self.ordered.remove(&self.gnext);
            self.assigned.remove(&key);
            msg.meta.total_seq = Some(self.gnext);
            self.gnext += 1;
            self.delivered += 1;
            ctx.up(Up::Cast { src: key.0, msg });
        }
    }

    /// View change: drain deterministically and reset the token (§7).
    fn handle_view(&mut self, view: View, ctx: &mut LayerCtx<'_>) {
        // First deliver everything that was ordered and is present.
        self.try_deliver(ctx);
        // Then the leftover unordered messages, by (source rank, tseq) in
        // the OLD view — every survivor holds the same set, so this order
        // is identical everywhere.
        let leftovers: Vec<(EndpointAddr, u32)> = match &self.view {
            Some(old) => {
                let mut keys: Vec<_> = self.unordered.keys().copied().collect();
                keys.sort_by_key(|&(src, tseq)| {
                    (old.rank_of(src).map(|r| r.0).unwrap_or(usize::MAX), src, tseq)
                });
                keys
            }
            None => self.unordered.keys().copied().collect(),
        };
        for key in leftovers {
            let mut msg = self.unordered.remove(&key).expect("key from buffer");
            msg.meta.total_seq = Some(self.gnext);
            self.gnext += 1;
            self.delivered += 1;
            self.view_drains += 1;
            ctx.up(Up::Cast { src: key.0, msg });
        }
        // Reset for the new view: lowest-ranked member holds the token.
        self.unordered.clear();
        self.ordered.clear();
        self.assigned.clear();
        self.my_tseq = 0;
        self.gnext = 1;
        self.covered.clear();
        self.holder_gen = 0;
        self.holder = view.members().first().copied();
        self.grant = (self.holder == self.me).then_some(1);
        self.view = Some(view.clone());
        self.flushing = false;
        ctx.up(Up::View(view));
        // Casts held during the flush go out now, stamped for this view.
        let held: Vec<Message> = self.held.drain(..).collect();
        for msg in held {
            self.stamp_and_send(msg, ctx);
        }
        self.issue_order(ctx);
    }

    fn stamp_and_send(&mut self, mut msg: Message, ctx: &mut LayerCtx<'_>) {
        self.my_tseq += 1;
        ctx.stamp(&mut msg);
        ctx.set(&mut msg, 0, KIND_DATA);
        ctx.set(&mut msg, 1, self.my_tseq as u64);
        ctx.down(Down::Cast(msg));
    }
}

impl Layer for Total {
    fn name(&self) -> &'static str {
        "TOTAL"
    }

    fn header_fields(&self) -> &'static [FieldSpec] {
        FIELDS
    }

    fn on_init(&mut self, ctx: &mut LayerCtx<'_>) {
        self.me = Some(ctx.local_addr());
    }

    fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
        match ev {
            Down::Cast(msg) => {
                if self.flushing {
                    self.held.push_back(msg);
                } else {
                    self.stamp_and_send(msg, ctx);
                }
            }
            other => ctx.down(other),
        }
    }

    fn on_up(&mut self, ev: Up, ctx: &mut LayerCtx<'_>) {
        match ev {
            Up::Cast { src, mut msg } => {
                if ctx.open(&mut msg).is_err() {
                    return;
                }
                match ctx.get(&msg, 0) {
                    KIND_DATA => {
                        let tseq = ctx.get(&msg, 1) as u32;
                        self.unordered.insert((src, tseq), msg);
                        self.issue_order(ctx);
                        self.try_deliver(ctx);
                    }
                    KIND_ORDER => self.handle_order(src, &msg.body().clone(), ctx),
                    _ => {}
                }
            }
            Up::View(view) => self.handle_view(view, ctx),
            Up::Flush { failed } => {
                self.flushing = true;
                ctx.up(Up::Flush { failed });
            }
            other => ctx.up(other),
        }
    }

    fn dump(&self) -> String {
        format!(
            "holder={:?} grant={:?} gnext={} frontier={} delivered={} buffered={} ordered={} assigned={} orders={} passes={} drains={} pend={:?}",
            self.holder,
            self.grant,
            self.gnext,
            self.frontier(),
            self.delivered,
            self.unordered.len(),
            self.ordered.len(),
            self.assigned.len(),
            self.orders_issued,
            self.token_passes,
            self.view_drains,
            self.ordered.iter().take(3).collect::<Vec<_>>()
        )
    }

    fn pending_work(&self) -> u64 {
        // Buffered data awaiting a global sequence number (a parked token
        // keeps this non-empty) plus casts held back during a flush.
        (self.unordered.len() + self.held.len()) as u64
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::com::Com;
    use crate::frag::Frag;
    use crate::mbrship::{Mbrship, MbrshipConfig};
    use crate::nak::{Nak, NakConfig};
    use horus_net::NetConfig;
    use horus_sim::{check_total_order, check_virtual_synchrony, DeliveryLog, SimWorld, Workload};
    use std::time::Duration;

    fn ep(i: u64) -> EndpointAddr {
        EndpointAddr::new(i)
    }

    fn total_stack(i: u64) -> Stack {
        StackBuilder::new(ep(i))
            .push(Box::new(Total::new()))
            .push(Box::new(Mbrship::new(MbrshipConfig::default())))
            .push(Box::new(Frag::default()))
            .push(Box::new(Nak::new(NakConfig {
                fail_timeout: Duration::from_millis(120),
                ..NakConfig::default()
            })))
            .push(Box::new(Com::promiscuous()))
            .build()
            .unwrap()
    }

    fn joined_world(n: u64, seed: u64, net: NetConfig) -> SimWorld {
        let mut w = SimWorld::new(seed, net);
        for i in 1..=n {
            w.add_endpoint(total_stack(i));
            w.join(ep(i), GroupAddr::new(1));
        }
        for i in 2..=n {
            w.down_at(SimTime::from_millis(5 * (i - 1)), ep(i), Down::Merge { contact: ep(1) });
        }
        w.run_for(Duration::from_secs(2));
        for i in 1..=n {
            assert_eq!(
                w.installed_views(ep(i)).last().expect("view").len(),
                n as usize,
                "endpoint {i} joined"
            );
        }
        w
    }

    fn logs(w: &SimWorld, n: u64) -> Vec<DeliveryLog> {
        (1..=n)
            .filter(|&i| w.is_alive(ep(i)))
            .map(|i| DeliveryLog::from_upcalls(ep(i), w.upcalls(ep(i))))
            .collect()
    }

    #[test]
    fn concurrent_senders_identical_order() {
        let mut w = joined_world(3, 1, NetConfig::reliable());
        let t = w.now();
        let wl = horus_sim::Workload {
            kind: horus_sim::WorkloadKind::AllToAll,
            senders: vec![ep(1), ep(2), ep(3)],
            slots: 20,
            interval: Duration::from_micros(300),
            payload: 24,
        };
        wl.schedule(&mut w, t + Duration::from_millis(1));
        w.run_for(Duration::from_secs(2));
        for i in 1..=3 {
            assert_eq!(w.delivered_casts(ep(i)).len(), 60, "endpoint {i}");
        }
        let logs = logs(&w, 3);
        assert!(check_total_order(&logs).is_empty());
        assert!(check_virtual_synchrony(&logs).is_empty());
        // All three endpoints see exactly the same global sequence.
        let seq1: Vec<_> =
            w.delivered_casts(ep(1)).iter().map(|(s, b, _)| (*s, b.clone())).collect();
        for i in 2..=3 {
            let seq: Vec<_> =
                w.delivered_casts(ep(i)).iter().map(|(s, b, _)| (*s, b.clone())).collect();
            assert_eq!(seq1, seq, "endpoint {i} sequence identical");
        }
    }

    #[test]
    fn total_order_survives_loss() {
        for seed in 1..=3 {
            let mut w = joined_world(3, 50 + seed, NetConfig::lossy(0.15));
            let t = w.now();
            let wl = Workload::round_robin(vec![ep(1), ep(2), ep(3)], 30);
            wl.schedule(&mut w, t + Duration::from_millis(1));
            w.run_for(Duration::from_secs(4));
            for i in 1..=3 {
                assert_eq!(w.delivered_casts(ep(i)).len(), 30, "seed {seed} endpoint {i}");
            }
            assert!(check_total_order(&logs(&w, 3)).is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn token_holder_crash_recovers_deterministically() {
        for seed in 1..=4 {
            let mut w = joined_world(4, 80 + seed, NetConfig::reliable());
            let t = w.now();
            let wl = Workload::round_robin(vec![ep(1), ep(2), ep(3), ep(4)], 40);
            wl.schedule(&mut w, t + Duration::from_millis(1));
            // The initial token holder is the lowest-ranked member (ep1,
            // the oldest): crash it mid-stream.
            w.crash_at(t + Duration::from_millis(15), ep(1));
            w.run_for(Duration::from_secs(4));
            let logs = logs(&w, 4);
            let violations = check_total_order(&logs);
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
            assert!(check_virtual_synchrony(&logs).is_empty(), "seed {seed}");
            // Survivors continue: the remaining members' casts all arrive.
            for i in 2..=4 {
                let n = w.delivered_casts(ep(i)).len();
                assert!(n >= 30, "seed {seed} endpoint {i} delivered {n}");
            }
        }
    }

    #[test]
    fn token_moves_to_active_senders() {
        let mut w = joined_world(3, 5, NetConfig::reliable());
        let t = w.now();
        // Only ep3 casts: the oracle should hand it the token, after which
        // it orders its own messages without extra hops.
        for k in 1..=20u64 {
            w.cast_bytes_at(t + Duration::from_millis(k), ep(3), Workload::body(ep(3), k, 24));
        }
        w.run_for(Duration::from_secs(1));
        let total: &Total = w.stack(ep(3)).unwrap().focus_as("TOTAL").unwrap();
        assert_eq!(total.holder, Some(ep(3)), "token settled on the active sender");
        assert!(total.orders_issued > 0, "the active sender issued orders itself");
    }

    #[test]
    fn global_sequence_is_exposed_in_meta() {
        let mut w = joined_world(2, 6, NetConfig::reliable());
        let t = w.now();
        for k in 1..=5u64 {
            w.cast_bytes_at(t + Duration::from_millis(k), ep(1), Workload::body(ep(1), k, 24));
        }
        w.run_for(Duration::from_secs(1));
        let seqs: Vec<u64> = w
            .upcalls(ep(2))
            .iter()
            .filter_map(|(_, up)| match up {
                Up::Cast { msg, .. } => msg.meta.total_seq,
                _ => None,
            })
            .collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
    }
}
