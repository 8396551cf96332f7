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
//! The implementation follows the paper:
//!
//! * Only the current **token holder** assigns contiguous global sequence
//!   numbers; everyone delivers in global order.
//! * The holder's **own casts carry their order**: while it holds a grant
//!   it is caught up on, each of its casts goes out as `DATA_ORDERED` with
//!   the next global sequence in its header — one multicast per cast.
//!   Receivers treat it as an ORDER of one key that names its sender as the
//!   next holder.
//! * **Other senders' casts** go out as DATA tagged `(sender, tseq)`;
//!   receivers buffer them *unordered* until the holder multicasts an ORDER
//!   assigning them global sequence numbers.  The ORDER also names the next
//!   holder, so the token grant is totally ordered by construction and two
//!   holders can never coexist.  A holder's DATA_ORDERED and its ORDERs
//!   share one per-sender FIFO stream, so a later grant is applied only
//!   after every self-ordered cast before it.
//! * The **oracle** picks the next holder after an ORDER: the
//!   highest-addressed sender among the keys it orders (keys sort by
//!   `(sender, tseq)`), so an active sender soon holds the token and
//!   orders its own traffic cheaply.  Like the paper's oracle it "cannot
//!   always make the optimal decision ... but comes close".
//! * On a VIEW upcall from MBRSHIP the token is reconstructed for free:
//!   every message left behind a gap (all members hold the same set,
//!   thanks to virtual synchrony) is delivered by source rank, and each
//!   source's messages in the order it sent them, and the lowest-ranked
//!   member of the new view becomes the first holder.
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

/// `seq` is a DATA's per-sender `tseq`, or a DATA_ORDERED's global sequence.
const FIELDS: &[FieldSpec] = &[FieldSpec::new("kind", 2), FieldSpec::new("seq", 32)];

const KIND_DATA: u64 = 0;
const KIND_ORDER: u64 = 1;
const KIND_DATA_ORDERED: u64 = 2;

/// What a global sequence number was assigned to.
#[derive(Clone)]
#[allow(clippy::large_enum_variant)] // held only until delivery; boxing would allocate per cast
enum Slot {
    /// A `(sender, tseq)` key named by an ORDER; its data waits in
    /// `unordered`.
    Key((EndpointAddr, u32)),
    /// A holder's self-ordered cast, which carried its sequence itself,
    /// with its index in its sender's stream (see `Total::arrivals`).
    Data(EndpointAddr, u32, Message),
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Slot::Key(key) => key.fmt(f),
            Slot::Data(src, _, _) => write!(f, "self({src:?})"),
        }
    }
}

/// The token-based total ordering layer.
#[derive(Clone)]
pub struct Total {
    me: Option<EndpointAddr>,
    view: Option<View>,
    /// Per-sender sequence of our own DATA casts within the view.
    my_tseq: u32,
    /// Highest of our own `tseq`s known to hold a global sequence.  Our
    /// DATA is ordered as a prefix of our stream, so while this is below
    /// `my_tseq` a cast of ours still waits for an ORDER and a new cast
    /// may not order itself ahead of it.
    my_tseq_ordered: u32,
    /// Buffered data not yet delivered: keyed by `(sender, tseq)`, with
    /// each message's index in its sender's stream.
    unordered: BTreeMap<(EndpointAddr, u32), (u32, Message)>,
    /// Per sender, the DATA and DATA_ORDERED received from it in this view.
    /// Each sender's stream arrives in FIFO order and every survivor holds
    /// the same messages, so a message's index is the same at every
    /// member; the view-change drain sorts by it to keep each sender's
    /// sending order.
    arrivals: BTreeMap<EndpointAddr, u32>,
    /// Global sequences already assigned (delivery may still wait for the
    /// data or for earlier global numbers).
    ordered: BTreeMap<u64, Slot>,
    /// Keys that have been ordered (reverse index of `ordered`'s keys).
    assigned: BTreeMap<(EndpointAddr, u32), u64>,
    /// Next global sequence number to deliver.
    gnext: u64,
    /// The coverage frontier: every global sequence in `[1, front)` has
    /// been assigned by an applied (or self-issued) ORDER or DATA_ORDERED.
    front: u64,
    /// `[base, end)` ranges covered by applied ORDERs that start above
    /// `front` (ORDERs applied out of order); empty in the common case.
    covered: BTreeMap<u64, u64>,
    /// If the token was granted to us: the base our first assignment must
    /// start at.  We may only assign once `front == grant` — i.e. we
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
    self_ordered: u64,
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
            my_tseq_ordered: 0,
            unordered: BTreeMap::new(),
            arrivals: BTreeMap::new(),
            ordered: BTreeMap::new(),
            assigned: BTreeMap::new(),
            gnext: 1,
            front: 1,
            covered: BTreeMap::new(),
            grant: None,
            holder: None,
            holder_gen: 0,
            flushing: false,
            held: std::collections::VecDeque::new(),
            delivered: 0,
            orders_issued: 0,
            self_ordered: 0,
            token_passes: 0,
            view_drains: 0,
        }
    }

    /// Records `[base, base + len)` as covered, then folds every range
    /// that now touches the frontier into it, so the cost per ORDER does
    /// not grow with the view's history.
    fn add_coverage(&mut self, base: u64, len: u64) {
        let e = self.covered.entry(base).or_insert(base);
        *e = (*e).max(base + len);
        while let Some(entry) = self.covered.first_entry() {
            if *entry.key() > self.front {
                break;
            }
            self.front = self.front.max(entry.remove());
        }
    }

    /// The index of the next message received from `src` in its stream.
    fn arrive(&mut self, src: EndpointAddr) -> u32 {
        let n = self.arrivals.entry(src).or_insert(0);
        *n += 1;
        *n
    }

    /// Records that `key` holds global sequence `g`.
    fn assign(&mut self, g: u64, key: (EndpointAddr, u32)) {
        self.ordered.entry(g).or_insert(Slot::Key(key));
        self.assigned.entry(key).or_insert(g);
        if Some(key.0) == self.me {
            self.my_tseq_ordered = self.my_tseq_ordered.max(key.1);
        }
    }

    /// The oracle (§7): pick the next holder after a batch.  The batch is
    /// in key order, so this is the highest-addressed sender in it.
    fn oracle(&self, batch: &[(EndpointAddr, u32)]) -> EndpointAddr {
        batch.last().map(|&(src, _)| src).unwrap_or_else(|| self.me.expect("init"))
    }

    /// The global sequence our next cast may carry itself: we hold a grant
    /// we are caught up on, none of our DATA still waits for an ORDER, and
    /// the sequence fits the 32-bit header field.
    fn self_order_slot(&self) -> Option<u64> {
        let g = self.grant?;
        (self.front == g && self.my_tseq_ordered == self.my_tseq && g <= u32::MAX as u64)
            .then_some(g)
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
        if self.front != g_base {
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
            self.assign(g_base + i as u64, key);
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
            self.assign(g_base + i, (src, tseq));
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

    /// A self-ordered cast: an ORDER of one key that names its sender as
    /// the next holder, with the data attached.
    fn handle_data_ordered(
        &mut self,
        src: EndpointAddr,
        g: u64,
        msg: Message,
        ctx: &mut LayerCtx<'_>,
    ) {
        let index = self.arrive(src);
        self.ordered.insert(g, Slot::Data(src, index, msg));
        // Our own coverage and grant advanced at send time.
        if Some(src) != self.me {
            self.add_coverage(g, 1);
            if g >= self.holder_gen {
                self.holder = Some(src);
                self.holder_gen = g;
            }
            // Coverage may have advanced enough to act on a pending grant.
            self.issue_order(ctx);
        }
        self.try_deliver(ctx);
    }

    fn deliver(&mut self, src: EndpointAddr, mut msg: Message, ctx: &mut LayerCtx<'_>) {
        msg.meta.total_seq = Some(self.gnext);
        self.gnext += 1;
        self.delivered += 1;
        ctx.up(Up::Cast { src, msg });
    }

    fn try_deliver(&mut self, ctx: &mut LayerCtx<'_>) {
        while let Some(slot) = self.ordered.get(&self.gnext) {
            if let Slot::Key(key) = slot {
                if !self.unordered.contains_key(key) {
                    break; // the data has not arrived yet
                }
            }
            let (src, msg) = match self.ordered.remove(&self.gnext).expect("slot just read") {
                Slot::Key(key) => {
                    self.assigned.remove(&key);
                    (key.0, self.unordered.remove(&key).expect("data just checked").1)
                }
                Slot::Data(src, _, msg) => (src, msg),
            };
            self.deliver(src, msg, ctx);
        }
    }

    /// View change: drain deterministically and reset the token (§7).
    fn handle_view(&mut self, view: View, ctx: &mut LayerCtx<'_>) {
        // First deliver everything that was ordered and is present.
        self.try_deliver(ctx);
        // Then everything left behind a gap — buffered DATA, ordered or
        // not, and self-ordered casts — by (source rank in the OLD view,
        // index in the source's stream).  Every survivor holds the same
        // set, so this order is identical everywhere, and each sender's
        // casts keep their sending order (a self-ordered cast may follow
        // one of the sender's DATA whose ORDER never reached us).
        let mut leftovers: Vec<(EndpointAddr, u32, Message)> = std::mem::take(&mut self.unordered)
            .into_iter()
            .map(|((src, _), (index, msg))| (src, index, msg))
            .collect();
        for slot in std::mem::take(&mut self.ordered).into_values() {
            if let Slot::Data(src, index, msg) = slot {
                leftovers.push((src, index, msg));
            }
        }
        let rank = |src| {
            let old = self.view.as_ref().and_then(|v| v.rank_of(src));
            old.map(|r| r.0).unwrap_or(usize::MAX)
        };
        leftovers.sort_by_key(|&(src, index, _)| (rank(src), src, index));
        for (src, _, msg) in leftovers {
            self.view_drains += 1;
            self.deliver(src, msg, ctx);
        }
        // Reset for the new view: lowest-ranked member holds the token.
        self.arrivals.clear();
        self.assigned.clear();
        self.my_tseq = 0;
        self.my_tseq_ordered = 0;
        self.gnext = 1;
        self.front = 1;
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

    /// Sends one of our casts: self-ordered when we may assign its global
    /// sequence right now (no ORDER needed), otherwise as DATA for the
    /// holder to order.
    fn stamp_and_send(&mut self, mut msg: Message, ctx: &mut LayerCtx<'_>) {
        ctx.stamp(&mut msg);
        if let Some(g) = self.self_order_slot() {
            // Our loopback copy only supplies the data: coverage and the
            // grant advance here, so the next cast can chain at once.
            self.add_coverage(g, 1);
            self.grant = Some(g + 1);
            self.self_ordered += 1;
            ctx.set(&mut msg, 0, KIND_DATA_ORDERED);
            ctx.set(&mut msg, 1, g);
        } else {
            self.my_tseq += 1;
            ctx.set(&mut msg, 0, KIND_DATA);
            ctx.set(&mut msg, 1, self.my_tseq as u64);
        }
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
                        let index = self.arrive(src);
                        self.unordered.insert((src, tseq), (index, msg));
                        self.issue_order(ctx);
                        self.try_deliver(ctx);
                    }
                    KIND_ORDER => self.handle_order(src, &msg.body().clone(), ctx),
                    KIND_DATA_ORDERED => {
                        let g = ctx.get(&msg, 1);
                        self.handle_data_ordered(src, g, msg, ctx);
                    }
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
            "holder={:?} grant={:?} gnext={} frontier={} delivered={} buffered={} ordered={} assigned={} orders={} selford={} passes={} drains={} pend={:?}",
            self.holder,
            self.grant,
            self.gnext,
            self.front,
            self.delivered,
            self.unordered.len(),
            self.ordered.len(),
            self.assigned.len(),
            self.orders_issued,
            self.self_ordered,
            self.token_passes,
            self.view_drains,
            self.ordered.iter().take(3).collect::<Vec<_>>()
        )
    }

    fn pending_work(&self) -> u64 {
        // Buffered data awaiting a global sequence number (a parked token
        // keeps this non-empty), self-ordered casts not yet delivered, and
        // casts held back during a flush.
        let self_ordered = self.ordered.values().filter(|s| matches!(s, Slot::Data(..))).count();
        (self.unordered.len() + self_ordered + self.held.len()) as u64
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
    use bytes::Bytes;
    use horus_net::{FaultRule, NetConfig};
    use horus_sim::{
        check_fifo, check_total_order, check_virtual_synchrony, DeliveryLog, SimWorld, Workload,
    };
    use proptest::collection::vec;
    use proptest::prelude::*;
    use proptest::sample::Index;
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
        let total = total_at(&w, 3);
        assert_eq!(total.holder, Some(ep(3)), "token settled on the active sender");
        assert!(total.self_ordered > 0, "the active sender ordered its own casts");
    }

    fn total_at(w: &SimWorld, i: u64) -> &Total {
        w.stack(ep(i)).unwrap().focus_as("TOTAL").unwrap()
    }

    /// ORDER multicasts issued so far, summed over the live members.
    fn orders_issued(w: &SimWorld, n: u64) -> u64 {
        (1..=n).filter(|&i| w.is_alive(ep(i))).map(|i| total_at(w, i).orders_issued).sum()
    }

    /// `(global sequence, sender, body)` of every cast an endpoint delivered.
    fn sequence(w: &SimWorld, i: u64) -> Vec<(Option<u64>, EndpointAddr, Vec<u8>)> {
        w.upcalls(ep(i))
            .iter()
            .filter_map(|(_, up)| match up {
                Up::Cast { src, msg } => Some((msg.meta.total_seq, *src, msg.body().to_vec())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn holder_casts_carry_their_own_order() {
        const N: u64 = 30;
        let mut w = joined_world(3, 8, NetConfig::reliable());
        // ep3's first cast is ordered by the initial holder ep1, whose oracle
        // hands ep3 the token.
        let t = w.now();
        w.cast_bytes_at(t + Duration::from_millis(1), ep(3), Workload::body(ep(3), 0, 24));
        w.run_for(Duration::from_millis(200));
        assert_eq!(total_at(&w, 3).holder, Some(ep(3)), "the token settled on ep3");
        let orders_before = orders_issued(&w, 3);
        let t = w.now();
        for k in 1..=N {
            w.cast_bytes_at(
                t + Duration::from_micros(300 * k),
                ep(3),
                Workload::body(ep(3), k, 24),
            );
        }
        w.run_for(Duration::from_millis(200));
        assert_eq!(orders_issued(&w, 3), orders_before, "the holder's casts needed no ORDER");
        assert_eq!(total_at(&w, 3).self_ordered, N, "every cast after the token settled");
        // ep1 takes the token over, and may order only once it has applied
        // every self-ordered cast before its grant.
        let t = w.now();
        for k in 1..=5 {
            w.cast_bytes_at(
                t + Duration::from_micros(300 * k),
                ep(1),
                Workload::body(ep(1), k, 24),
            );
        }
        w.run_for(Duration::from_millis(200));
        let expected: Vec<Option<u64>> = (1..=N + 6).map(Some).collect();
        let reference = sequence(&w, 1);
        for i in 1..=3 {
            let seq = sequence(&w, i);
            let seqs: Vec<Option<u64>> = seq.iter().map(|d| d.0).collect();
            assert_eq!(seqs, expected, "endpoint {i}: total_seq is contiguous");
            assert_eq!(seq, reference, "endpoint {i} delivered the same sequence");
        }
    }

    #[test]
    fn holder_crash_mid_self_ordered_burst() {
        const BURST: u64 = 200;
        let crash = Duration::from_millis(120);
        for seed in 1..=4 {
            let mut w = joined_world(3, 90 + seed, NetConfig::lossy(0.10));
            let t = w.now();
            // ep1, the initial holder, self-orders a burst.  ep2 casts into
            // it once, so the token passes to ep2 and back to ep1; then ep1
            // crashes with casts of its burst still in flight.
            for k in 1..=BURST {
                w.cast_bytes_at(t + Duration::from_millis(k), ep(1), Workload::body(ep(1), k, 24));
            }
            w.cast_bytes_at(t + Duration::from_millis(20), ep(2), Workload::body(ep(2), 1, 24));
            w.crash_at(t + crash, ep(1));
            w.run_for(Duration::from_secs(4));
            let logs = logs(&w, 3);
            let violations = check_total_order(&logs);
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
            assert!(check_virtual_synchrony(&logs).is_empty(), "seed {seed}");
            let survivor = sequence(&w, 2);
            assert_eq!(sequence(&w, 3), survivor, "seed {seed}: survivors deliver one sequence");
            // While ep1 lives, ordering keeps pace with its burst: every
            // cast sent 50 ms before the crash is delivered before it.  The
            // rest carried their order too, so the view change has nothing
            // to drain by rank.
            let settled = crash - Duration::from_millis(50);
            let mut early: Vec<Bytes> =
                (1..=settled.as_millis() as u64).map(|k| Workload::body(ep(1), k, 24)).collect();
            early.push(Workload::body(ep(2), 1, 24));
            for i in 2..=3 {
                let before: Vec<Bytes> = w
                    .delivered_casts(ep(i))
                    .into_iter()
                    .filter(|&(_, _, at)| at < t + crash)
                    .map(|(_, body, _)| body)
                    .collect();
                for body in &early {
                    assert!(before.contains(body), "seed {seed} endpoint {i}: {body:?} stalled");
                }
                assert_eq!(total_at(&w, i).view_drains, 0, "seed {seed} endpoint {i} drained");
            }
        }
    }

    /// Cuts every link from `from` to the members in `to`, from `at` on.
    fn cut_at(w: &mut SimWorld, at: SimTime, from: u64, to: &[u64]) {
        for &i in to {
            let rule = FaultRule::OneWayCut { from: ep(from), to: ep(i), start: at, end: None };
            w.fault_at(at, rule);
        }
    }

    /// The survivors' delivery logs are clean: one total order, virtual
    /// synchrony, and every sender's casts in its sending order.
    fn assert_clean_survivors(w: &SimWorld, n: u64, seed: u64) {
        let logs = logs(w, n);
        let violations = check_fifo(&logs, Workload::parse);
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        let violations = check_total_order(&logs);
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        let violations = check_virtual_synchrony(&logs);
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
    }

    #[test]
    fn view_drain_keeps_fifo_behind_a_lost_cast() {
        // ep2 takes the token from ep1 but learns so late (ep1's ORDER to it
        // is lost and resent), so its first ORDER covers ep3's cast x and
        // ep4's d1 and names ep4, which then self-orders d2.  x reached
        // only ep2 (ep3 is cut off from the others), and ep2 and ep3 crash:
        // the survivors ep1 and ep4 hold a gap where x was ordered, then
        // d1's key, then the self-ordered d2.  They must drain d1 before d2.
        for seed in 1..=4 {
            let mut w = joined_world(4, 100 + seed, NetConfig::reliable());
            let t = w.now();
            let ms = |k: u64| t + Duration::from_millis(k);
            w.cast_bytes_at(ms(1), ep(2), Workload::body(ep(2), 1, 24));
            w.fault_at(
                ms(1),
                FaultRule::BurstLoss { from: ep(1), to: ep(2), start: ms(1), end: ms(2) },
            );
            cut_at(&mut w, ms(3), 3, &[1, 4]);
            w.cast_bytes_at(ms(4), ep(3), Workload::body(ep(3), 1, 24));
            w.cast_bytes_at(ms(4), ep(4), Workload::body(ep(4), 1, 24));
            w.run_until(ms(80));
            assert_eq!(total_at(&w, 4).holder, Some(ep(4)), "seed {seed}: ep4 holds the token");
            w.cast_bytes_at(ms(81), ep(4), Workload::body(ep(4), 2, 24));
            w.crash_at(ms(90), ep(2));
            w.crash_at(ms(90), ep(3));
            w.run_for(Duration::from_secs(2));
            assert_eq!(total_at(&w, 4).self_ordered, 1, "seed {seed}: d2 carried its order");
            for i in [1, 4] {
                assert!(total_at(&w, i).view_drains >= 2, "seed {seed} endpoint {i} drained");
                assert_eq!(w.delivered_casts(ep(i)).len(), 3, "seed {seed}: all but x");
            }
            assert_clean_survivors(&w, 4, seed);
        }
    }

    #[test]
    fn view_drain_keeps_fifo_behind_a_lost_order() {
        // ep1, the holder, orders ep2's DATA d1 and names ep2, but the ORDER
        // reaches only ep2 (ep1 is cut off from ep3 and ep4); ep2 then
        // self-orders d2.  ep1 and ep2 crash: the survivors hold d1 with no
        // global sequence and d2 with one, and must drain d1 first.
        for seed in 1..=4 {
            let mut w = joined_world(4, 110 + seed, NetConfig::reliable());
            let t = w.now();
            let ms = |k: u64| t + Duration::from_millis(k);
            cut_at(&mut w, ms(1), 1, &[3, 4]);
            w.cast_bytes_at(ms(2), ep(2), Workload::body(ep(2), 1, 24));
            w.cast_bytes_at(ms(6), ep(2), Workload::body(ep(2), 2, 24));
            w.crash_at(ms(10), ep(1));
            w.crash_at(ms(10), ep(2));
            w.run_for(Duration::from_secs(2));
            assert_eq!(total_at(&w, 2).self_ordered, 1, "seed {seed}: d2 carried its order");
            for i in [3, 4] {
                assert_eq!(total_at(&w, i).view_drains, 2, "seed {seed} endpoint {i} drained");
            }
            assert_clean_survivors(&w, 4, seed);
        }
    }

    #[test]
    fn self_order_needs_a_caught_up_grant_in_32_bits() {
        let mut total = Total::new();
        let last = u32::MAX as u64;
        (total.front, total.grant) = (last, Some(last));
        assert_eq!(total.self_order_slot(), Some(last));
        // A DATA of ours still waiting for an ORDER keeps later casts behind it.
        total.my_tseq = 1;
        assert_eq!(total.self_order_slot(), None);
        total.my_tseq_ordered = 1;
        assert_eq!(total.self_order_slot(), Some(last));
        // Not caught up with the order chain.
        total.front = last - 1;
        assert_eq!(total.self_order_slot(), None);
        // The sequence no longer fits the header field: fall back to ORDER.
        (total.front, total.grant) = (last + 1, Some(last + 1));
        assert_eq!(total.self_order_slot(), None);
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

    /// The frontier as a walk over every range ever applied: the
    /// definition the incremental `front` must match.
    fn walk_frontier(covered: &BTreeMap<u64, u64>) -> u64 {
        let mut f = 1;
        for (&base, &end) in covered {
            if base > f {
                break;
            }
            f = f.max(end);
        }
        f
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// A contiguous run of ORDER ranges plus a few stray ones, each
        /// applied at least once, with duplicates (loopback
        /// re-application), all in a random order.
        #[test]
        fn incremental_frontier_matches_range_walk(
            lens in vec(1u64..6, 1..24),
            strays in vec((1u64..80, 0u64..6), 0..8),
            dups in vec(any::<Index>(), 0..8),
            swaps in vec(any::<Index>(), 40),
        ) {
            let mut base = 1;
            let mut apps: Vec<(u64, u64)> = Vec::new();
            for len in lens {
                apps.push((base, len));
                base += len;
            }
            apps.extend(strays);
            let dup_ranges: Vec<_> = dups.iter().map(|d| *d.get(&apps)).collect();
            apps.extend(dup_ranges);
            // Fisher-Yates, one draw per position (`apps` holds at most 37).
            for i in (1..apps.len()).rev() {
                apps.swap(i, swaps[i].index(i + 1));
            }
            let mut total = Total::new();
            let mut all = BTreeMap::new();
            for (base, len) in apps {
                total.add_coverage(base, len);
                let e = all.entry(base).or_insert(base);
                *e = (*e).max(base + len);
                prop_assert_eq!(total.front, walk_frontier(&all));
                prop_assert!(total.covered.keys().all(|&b| b > total.front));
            }
        }
    }

    #[test]
    fn coverage_stays_short_over_a_long_view() {
        const CASTS: u64 = 5_000;
        let mut w = joined_world(3, 7, NetConfig::reliable());
        let views_before: Vec<usize> = (1..=3).map(|i| w.installed_views(ep(i)).len()).collect();
        let t = w.now();
        for k in 1..=CASTS {
            w.cast_bytes_at(
                t + Duration::from_micros(100 * k),
                ep(2),
                Workload::body(ep(2), k, 24),
            );
        }
        w.run_for(Duration::from_secs(3));
        let expected: Vec<_> = (1..=CASTS).map(|k| (ep(2), Workload::body(ep(2), k, 24))).collect();
        for i in 1..=3 {
            assert_eq!(w.installed_views(ep(i)).len(), views_before[i as usize - 1], "one view");
            let got: Vec<_> =
                w.delivered_casts(ep(i)).into_iter().map(|(s, b, _)| (s, b)).collect();
            assert!(got == expected, "endpoint {i} delivered every cast in order");
        }
        let total: &Total = w.stack(ep(2)).unwrap().focus_as("TOTAL").unwrap();
        assert!(total.covered.len() <= 1, "covered holds {} ranges", total.covered.len());
    }
}
