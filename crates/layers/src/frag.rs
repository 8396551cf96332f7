//! FRAG and NFRAG — fragmentation and reassembly of large messages (§7).
//!
//! "Typical networks have a limit on the size of messages they can
//! transmit.  When a user of the FRAG layer attempts to send a message that
//! is larger than that maximum size, the FRAG layer splits the message into
//! multiple fragments.  On each fragment the FRAG layer pushes a boolean
//! value that indicates whether it is the last one or not.  The FRAG layer
//! depends on FIFO ordering for reassembly."
//!
//! [`Frag`] is that layer: its header is two bits — the paper's *last* flag
//! plus a *wrapped* flag that keeps small messages on a zero-copy fast path
//! (the paper measures FRAG's overhead at ~50 µs on a Sparc 10 precisely
//! because it is so thin; experiment E9 re-measures ours).  Fragments of a
//! message larger than the threshold carry chunks of the serialized
//! message, and the FIFO guarantee of the layer below makes per-source
//! reassembly a simple accumulation.
//!
//! [`NFrag`] is the Table 3 variant that sits *below* FIFO (directly on
//! COM): it tags fragments with a message id and index so reassembly
//! tolerates reordering, at the price of a bigger header and a reassembly
//! timeout.  Both provide property P12 (large messages).

use bytes::Bytes;
use horus_core::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

const FRAG_FIELDS: &[FieldSpec] = &[FieldSpec::new("last", 1), FieldSpec::new("wrapped", 1)];

/// Stream key: per-source, casts and sends reassemble independently.
type StreamKey = (EndpointAddr, bool);

/// The FIFO-dependent fragmentation layer of §7.
#[derive(Debug, Clone)]
pub struct Frag {
    /// Fragment payload size.
    frag_size: usize,
    /// Per-stream partial reassembly buffers.
    partial: BTreeMap<StreamKey, Vec<u8>>,
    fragmented_msgs: u64,
    fragments_sent: u64,
    reassembled: u64,
}

impl Default for Frag {
    fn default() -> Self {
        Frag::new(1024)
    }
}

impl Frag {
    /// Creates a FRAG layer splitting at `frag_size`-byte fragments.
    ///
    /// # Panics
    ///
    /// Panics if `frag_size` is zero.
    pub fn new(frag_size: usize) -> Self {
        assert!(frag_size > 0, "fragment size must be positive");
        Frag {
            frag_size,
            partial: BTreeMap::new(),
            fragmented_msgs: 0,
            fragments_sent: 0,
            reassembled: 0,
        }
    }

    fn send_down(
        &mut self,
        msg: Message,
        dests: Option<Vec<EndpointAddr>>,
        ctx: &mut LayerCtx<'_>,
    ) {
        // Fast path: the whole message (headers so far + body) fits.
        if msg.body().len() <= self.frag_size {
            let mut m = msg;
            ctx.stamp(&mut m);
            ctx.set(&mut m, 0, 1); // last
            ctx.set(&mut m, 1, 0); // not wrapped
            self.pass_down(m, dests, ctx);
            return;
        }
        // Slow path: serialize the message and chunk it.  The chunks are
        // zero-copy slices of one `Bytes` buffer — the paper's "no copying
        // of the data that the message will actually transport".
        self.fragmented_msgs += 1;
        let inner = msg.encode_inner();
        let n = inner.len().div_ceil(self.frag_size);
        for i in 0..n {
            let chunk =
                inner.slice(i * self.frag_size..((i + 1) * self.frag_size).min(inner.len()));
            let mut frag = ctx.new_message(chunk);
            ctx.stamp(&mut frag);
            ctx.set(&mut frag, 0, (i + 1 == n) as u64);
            ctx.set(&mut frag, 1, 1); // wrapped
            self.fragments_sent += 1;
            self.pass_down(frag, dests.clone(), ctx);
        }
    }

    fn pass_down(&self, msg: Message, dests: Option<Vec<EndpointAddr>>, ctx: &mut LayerCtx<'_>) {
        match dests {
            Some(dests) => ctx.down(Down::Send { dests, msg }),
            None => ctx.down(Down::Cast(msg)),
        }
    }

    fn receive(&mut self, src: EndpointAddr, cast: bool, mut msg: Message, ctx: &mut LayerCtx<'_>) {
        if ctx.open(&mut msg).is_err() {
            return;
        }
        let last = ctx.get(&msg, 0) == 1;
        let wrapped = ctx.get(&msg, 1) == 1;
        if !wrapped {
            // Fast path: deliver directly.
            self.pass_up(src, cast, msg, ctx);
            return;
        }
        let key = (src, cast);
        let buf = self.partial.entry(key).or_default();
        buf.extend_from_slice(msg.body());
        if !last {
            return;
        }
        let assembled = self.partial.remove(&key).expect("just inserted");
        match Message::decode_inner(msg.layout().clone(), &assembled) {
            Ok(mut original) => {
                self.reassembled += 1;
                original.meta.src = Some(src);
                self.pass_up(src, cast, original, ctx);
            }
            Err(e) => ctx.reject(|| format!("FRAG: reassembly decode failed: {e}")),
        }
    }

    fn pass_up(&self, src: EndpointAddr, cast: bool, msg: Message, ctx: &mut LayerCtx<'_>) {
        if cast {
            ctx.up(Up::Cast { src, msg });
        } else {
            ctx.up(Up::Send { src, msg });
        }
    }
}

impl Layer for Frag {
    fn name(&self) -> &'static str {
        "FRAG"
    }

    fn header_fields(&self) -> &'static [FieldSpec] {
        FRAG_FIELDS
    }

    fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
        match ev {
            Down::Cast(msg) => self.send_down(msg, None, ctx),
            Down::Send { dests, msg } => self.send_down(msg, Some(dests), ctx),
            other => ctx.down(other),
        }
    }

    fn on_up(&mut self, ev: Up, ctx: &mut LayerCtx<'_>) {
        match ev {
            Up::Cast { src, msg } => self.receive(src, true, msg, ctx),
            Up::Send { src, msg } => self.receive(src, false, msg, ctx),
            other => ctx.up(other),
        }
    }

    fn dump(&self) -> String {
        format!(
            "frag_size={} fragmented={} fragments={} reassembled={} partial={}",
            self.frag_size,
            self.fragmented_msgs,
            self.fragments_sent,
            self.reassembled,
            self.partial.len()
        )
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

const NFRAG_FIELDS: &[FieldSpec] = &[
    FieldSpec::new("wrapped", 1),
    FieldSpec::new("msg_id", 16),
    FieldSpec::new("idx", 12),
    FieldSpec::new("count", 12),
];

const NFRAG_GC: u64 = 0;

/// Reorder-tolerant fragmentation (sits below the FIFO layer).
#[derive(Debug, Clone)]
pub struct NFrag {
    frag_size: usize,
    /// Incomplete-reassembly garbage-collection timeout.
    reassembly_timeout: Duration,
    next_id: u16,
    partial: BTreeMap<(StreamKey, u16), PartialMsg>,
    expired: u64,
    reassembled: u64,
}

#[derive(Debug, Clone)]
struct PartialMsg {
    chunks: BTreeMap<u16, Bytes>,
    count: u16,
    started: SimTime,
}

impl Default for NFrag {
    fn default() -> Self {
        NFrag::new(1024, Duration::from_secs(2))
    }
}

impl NFrag {
    /// Creates an NFRAG layer with the given fragment size and reassembly
    /// timeout.
    ///
    /// # Panics
    ///
    /// Panics if `frag_size` is zero.
    pub fn new(frag_size: usize, reassembly_timeout: Duration) -> Self {
        assert!(frag_size > 0, "fragment size must be positive");
        NFrag {
            frag_size,
            reassembly_timeout,
            next_id: 1,
            partial: BTreeMap::new(),
            expired: 0,
            reassembled: 0,
        }
    }

    fn send_down(
        &mut self,
        msg: Message,
        dests: Option<Vec<EndpointAddr>>,
        ctx: &mut LayerCtx<'_>,
    ) {
        if msg.body().len() <= self.frag_size {
            let mut m = msg;
            ctx.stamp(&mut m);
            ctx.set(&mut m, 0, 0);
            self.pass_down(m, dests, ctx);
            return;
        }
        let inner = msg.encode_inner();
        let n = inner.len().div_ceil(self.frag_size);
        assert!(n < 4096, "message too large for NFRAG's 12-bit fragment index");
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        for i in 0..n {
            let chunk =
                inner.slice(i * self.frag_size..((i + 1) * self.frag_size).min(inner.len()));
            let mut frag = ctx.new_message(chunk);
            ctx.stamp(&mut frag);
            ctx.set(&mut frag, 0, 1);
            ctx.set(&mut frag, 1, id as u64);
            ctx.set(&mut frag, 2, i as u64);
            ctx.set(&mut frag, 3, n as u64);
            self.pass_down(frag, dests.clone(), ctx);
        }
    }

    fn pass_down(&self, msg: Message, dests: Option<Vec<EndpointAddr>>, ctx: &mut LayerCtx<'_>) {
        match dests {
            Some(dests) => ctx.down(Down::Send { dests, msg }),
            None => ctx.down(Down::Cast(msg)),
        }
    }

    fn receive(&mut self, src: EndpointAddr, cast: bool, mut msg: Message, ctx: &mut LayerCtx<'_>) {
        if ctx.open(&mut msg).is_err() {
            return;
        }
        if ctx.get(&msg, 0) == 0 {
            if cast {
                ctx.up(Up::Cast { src, msg });
            } else {
                ctx.up(Up::Send { src, msg });
            }
            return;
        }
        let id = ctx.get(&msg, 1) as u16;
        let idx = ctx.get(&msg, 2) as u16;
        let count = ctx.get(&msg, 3) as u16;
        if count == 0 || idx >= count {
            return; // malformed
        }
        let key = ((src, cast), id);
        let now = ctx.now();
        let entry = self.partial.entry(key).or_insert_with(|| PartialMsg {
            chunks: BTreeMap::new(),
            count,
            started: now,
        });
        if entry.count != count {
            return; // inconsistent fragments: drop
        }
        entry.chunks.insert(idx, msg.body().clone());
        if entry.chunks.len() == count as usize {
            let entry = self.partial.remove(&key).expect("just completed");
            let mut assembled = Vec::new();
            for (_, c) in entry.chunks {
                assembled.extend_from_slice(&c);
            }
            match Message::decode_inner(msg.layout().clone(), &assembled) {
                Ok(mut original) => {
                    self.reassembled += 1;
                    original.meta.src = Some(src);
                    if cast {
                        ctx.up(Up::Cast { src, msg: original });
                    } else {
                        ctx.up(Up::Send { src, msg: original });
                    }
                }
                Err(e) => ctx.reject(|| format!("NFRAG: reassembly decode failed: {e}")),
            }
        }
    }
}

impl Layer for NFrag {
    fn name(&self) -> &'static str {
        "NFRAG"
    }

    fn header_fields(&self) -> &'static [FieldSpec] {
        NFRAG_FIELDS
    }

    fn on_init(&mut self, ctx: &mut LayerCtx<'_>) {
        ctx.set_timer(self.reassembly_timeout, NFRAG_GC);
    }

    fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
        match ev {
            Down::Cast(msg) => self.send_down(msg, None, ctx),
            Down::Send { dests, msg } => self.send_down(msg, Some(dests), ctx),
            other => ctx.down(other),
        }
    }

    fn on_up(&mut self, ev: Up, ctx: &mut LayerCtx<'_>) {
        match ev {
            Up::Cast { src, msg } => self.receive(src, true, msg, ctx),
            Up::Send { src, msg } => self.receive(src, false, msg, ctx),
            other => ctx.up(other),
        }
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut LayerCtx<'_>) {
        let now = ctx.now();
        let timeout = self.reassembly_timeout;
        let before = self.partial.len();
        self.partial.retain(|_, p| now.saturating_since(p.started) < timeout);
        self.expired += (before - self.partial.len()) as u64;
        ctx.set_timer(self.reassembly_timeout, NFRAG_GC);
    }

    fn dump(&self) -> String {
        format!(
            "frag_size={} reassembled={} partial={} expired={}",
            self.frag_size,
            self.reassembled,
            self.partial.len(),
            self.expired
        )
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::com::Com;
    use crate::nak::Nak;
    use horus_net::NetConfig;
    use horus_sim::SimWorld;

    fn ep(i: u64) -> EndpointAddr {
        EndpointAddr::new(i)
    }

    fn frag_world(n: u64, frag_size: usize, mtu: usize, seed: u64) -> SimWorld {
        let mut cfg = NetConfig::reliable();
        cfg.mtu = mtu;
        let mut w = SimWorld::new(seed, cfg);
        for i in 1..=n {
            let s = StackBuilder::new(ep(i))
                .push(Box::new(Frag::new(frag_size)))
                .push(Box::new(Nak::default()))
                .push(Box::new(Com::new()))
                .build()
                .unwrap();
            w.add_endpoint(s);
            w.join(ep(i), GroupAddr::new(1));
        }
        w
    }

    #[test]
    fn small_messages_take_fast_path() {
        let mut w = frag_world(2, 256, 1500, 1);
        w.cast_bytes(ep(1), vec![7u8; 100]);
        w.run_for(Duration::from_millis(50));
        assert_eq!(w.delivered_casts(ep(2)).len(), 1);
        let frag: &Frag = w.stack(ep(1)).unwrap().focus_as("FRAG").unwrap();
        assert_eq!(frag.fragmented_msgs, 0);
    }

    #[test]
    fn large_message_crosses_small_mtu() {
        // 16 KiB body over a 1500-byte MTU: impossible without FRAG.
        let mut w = frag_world(3, 1024, 1500, 2);
        let body: Vec<u8> = (0..16384u32).map(|i| (i % 251) as u8).collect();
        w.cast_bytes(ep(1), body.clone());
        w.run_for(Duration::from_millis(200));
        for i in 1..=3 {
            let got = w.delivered_casts(ep(i));
            assert_eq!(got.len(), 1, "endpoint {i}");
            assert_eq!(&got[0].1[..], &body[..], "endpoint {i} body intact");
        }
        let frag: &Frag = w.stack(ep(1)).unwrap().focus_as("FRAG").unwrap();
        assert!(frag.fragments_sent >= 16);
    }

    #[test]
    fn without_frag_large_messages_die_at_the_mtu() {
        let mut cfg = NetConfig::reliable();
        cfg.mtu = 1500;
        let mut w = SimWorld::new(3, cfg);
        for i in 1..=2 {
            let s = StackBuilder::new(ep(i))
                .push(Box::new(Nak::default()))
                .push(Box::new(Com::new()))
                .build()
                .unwrap();
            w.add_endpoint(s);
            w.join(ep(i), GroupAddr::new(1));
        }
        w.cast_bytes(ep(1), vec![0u8; 4096]);
        w.run_for(Duration::from_millis(100));
        assert!(w.delivered_casts(ep(2)).is_empty());
        assert!(w.net_stats().dropped_mtu >= 1);
    }

    #[test]
    fn fragmentation_survives_loss_via_nak_below() {
        for seed in 1..=3 {
            let mut cfg = NetConfig::lossy(0.2);
            cfg.mtu = 1500;
            let mut w = SimWorld::new(seed, cfg);
            for i in 1..=2 {
                let s = StackBuilder::new(ep(i))
                    .push(Box::new(Frag::new(1024)))
                    .push(Box::new(Nak::default()))
                    .push(Box::new(Com::new()))
                    .build()
                    .unwrap();
                w.add_endpoint(s);
                w.join(ep(i), GroupAddr::new(1));
            }
            let body: Vec<u8> = (0..8000u32).map(|i| (i % 199) as u8).collect();
            w.cast_bytes(ep(1), body.clone());
            w.run_for(Duration::from_secs(3));
            let got = w.delivered_casts(ep(2));
            assert_eq!(got.len(), 1, "seed {seed}");
            assert_eq!(&got[0].1[..], &body[..]);
        }
    }

    #[test]
    fn interleaved_senders_reassemble_independently() {
        let mut w = frag_world(3, 512, 1500, 5);
        let body1: Vec<u8> = vec![1u8; 3000];
        let body2: Vec<u8> = vec![2u8; 3000];
        w.cast_bytes(ep(1), body1.clone());
        w.cast_bytes(ep(2), body2.clone());
        w.run_for(Duration::from_millis(200));
        let got = w.delivered_casts(ep(3));
        assert_eq!(got.len(), 2);
        let mut bodies: Vec<Vec<u8>> = got.iter().map(|(_, b, _)| b.to_vec()).collect();
        bodies.sort();
        assert_eq!(bodies, vec![body1, body2]);
    }

    #[test]
    fn unicast_sends_fragment_too() {
        let mut w = frag_world(2, 512, 1500, 6);
        let body = vec![9u8; 2500];
        let msg = w.stack(ep(1)).unwrap().new_message(body.clone());
        w.down(ep(1), Down::Send { dests: vec![ep(2)], msg });
        w.run_for(Duration::from_millis(100));
        let sends: Vec<Vec<u8>> = w
            .upcalls(ep(2))
            .iter()
            .filter_map(|(_, up)| match up {
                Up::Send { msg, .. } => Some(msg.body().to_vec()),
                _ => None,
            })
            .collect();
        assert_eq!(sends, vec![body]);
    }

    #[test]
    fn nfrag_reassembles_out_of_order() {
        // NFRAG directly over COM: network jitter reorders fragments.
        let mut cfg = NetConfig::reliable();
        cfg.latency_min = Duration::from_micros(10);
        cfg.latency_max = Duration::from_millis(5); // heavy jitter
        let mut w = SimWorld::new(7, cfg);
        for i in 1..=2 {
            let s = StackBuilder::new(ep(i))
                .push(Box::new(NFrag::default()))
                .push(Box::new(Com::new()))
                .build()
                .unwrap();
            w.add_endpoint(s);
            w.join(ep(i), GroupAddr::new(1));
        }
        let body: Vec<u8> = (0..10_000u32).map(|i| (i % 233) as u8).collect();
        w.cast_bytes(ep(1), body.clone());
        w.run_for(Duration::from_millis(500));
        let got = w.delivered_casts(ep(2));
        assert_eq!(got.len(), 1);
        assert_eq!(&got[0].1[..], &body[..]);
    }

    #[test]
    fn nfrag_times_out_incomplete_reassembly() {
        let mut cfg = NetConfig::reliable();
        cfg.loss = 0.9; // most fragments die; NFRAG has no retransmission
        let mut w = SimWorld::new(8, cfg);
        for i in 1..=2 {
            let s = StackBuilder::new(ep(i))
                .push(Box::new(NFrag::new(512, Duration::from_millis(100))))
                .push(Box::new(Com::new()))
                .build()
                .unwrap();
            w.add_endpoint(s);
            w.join(ep(i), GroupAddr::new(1));
        }
        w.cast_bytes(ep(1), vec![1u8; 5000]);
        w.run_for(Duration::from_secs(2));
        assert!(w.delivered_casts(ep(2)).is_empty());
        let nfrag: &NFrag = w.stack(ep(2)).unwrap().focus_as("NFRAG").unwrap();
        assert_eq!(nfrag.partial.len(), 0, "partial buffers must be GCed");
    }
}
