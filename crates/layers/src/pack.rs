//! PACK — message packing: coalescing small messages into one frame (§10).
//!
//! "Another important optimization is *message packing*: the combining of
//! several small messages into a single large one."  Per-frame costs
//! (envelope, checksum, syscall, interrupt) dominate when applications
//! emit bursts of small casts; PACK amortizes them by queueing outbound
//! casts and sends briefly and flushing a whole run of same-destination
//! messages as one carrier frame.
//!
//! A carrier's body is a concatenation of length-prefixed
//! `Message::encode_inner` images, so every sub-message keeps its own
//! header stack intact; the peer PACK layer re-splits the carrier with
//! zero-copy slices of the carrier body and delivers the sub-messages in
//! their original order.  Because runs only group *consecutive* messages
//! with the same destination key, FIFO order is preserved exactly — both
//! between packed and unpacked messages and within a carrier.
//!
//! Flushing is triggered three ways, whichever comes first:
//!
//! * **count** — the queue reached `max_msgs` messages;
//! * **size** — adding the next message would push the carrier body past
//!   `max_bytes` (keeping carriers under a typical MTU);
//! * **delay** — a one-shot timer armed when the queue becomes non-empty
//!   expires, bounding the latency a queued message can suffer.
//!
//! Any other downcall (views, flush markers, leaves) forces a flush first,
//! so PACK never reorders control traffic around queued data.  PACK is
//! transparent to properties: it requires FIFO below (like FRAG, its
//! carrier-in-carrier dual) and provides nothing new.

use horus_core::frame::ENVELOPE_BYTES;
use horus_core::prelude::*;
use horus_core::wire::WireWriter;
use std::collections::VecDeque;
use std::time::Duration;

const PACK_FIELDS: &[FieldSpec] = &[FieldSpec::new("npack", 16)];

/// Destination key: only consecutive messages with the same key share a
/// carrier, so packing can never reorder traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PackKey {
    Cast,
    Send(Vec<EndpointAddr>),
}

/// The message-packing layer.
#[derive(Debug, Clone)]
pub struct Pack {
    /// Flush when this many messages are queued.
    max_msgs: usize,
    /// Flush before a carrier body would exceed this many bytes.
    max_bytes: usize,
    /// Maximum time a queued message waits before a timer flush.
    delay: Duration,
    /// Outbound messages awaiting a flush, in application order.
    queue: VecDeque<(PackKey, Message)>,
    /// Carrier-body bytes the queue would occupy if flushed now.
    pending_bytes: usize,
    /// Flush generation; pending delay timers carry the epoch they were
    /// armed in and are ignored if a threshold flush beat them to it.
    epoch: u64,
    carriers: u64,
    singles: u64,
    packed_msgs: u64,
    flushes_count: u64,
    flushes_size: u64,
    flushes_timer: u64,
    unpacked: u64,
    malformed: u64,
}

impl Default for Pack {
    fn default() -> Self {
        Pack::new(16, 1200, Duration::from_millis(1))
    }
}

impl Pack {
    /// Creates a PACK layer flushing at `max_msgs` queued messages, at
    /// `max_bytes` of carrier body, or after `delay`, whichever is first.
    ///
    /// # Panics
    ///
    /// Panics if `max_msgs` or `max_bytes` is zero.
    pub fn new(max_msgs: usize, max_bytes: usize, delay: Duration) -> Self {
        assert!(max_msgs > 0, "packing count threshold must be positive");
        assert!(max_bytes > 0, "packing byte threshold must be positive");
        Pack {
            max_msgs,
            max_bytes,
            delay,
            queue: VecDeque::new(),
            pending_bytes: 0,
            epoch: 0,
            carriers: 0,
            singles: 0,
            packed_msgs: 0,
            flushes_count: 0,
            flushes_size: 0,
            flushes_timer: 0,
            unpacked: 0,
            malformed: 0,
        }
    }

    fn enqueue(&mut self, key: PackKey, msg: Message, ctx: &mut LayerCtx<'_>) {
        // 4 bytes of length prefix per sub-message in the carrier body.
        let cost = 4 + msg.encoded_inner_len();
        if !self.queue.is_empty() && self.pending_bytes + cost > self.max_bytes {
            self.flushes_size += 1;
            self.flush(ctx);
        }
        self.queue.push_back((key, msg));
        self.pending_bytes += cost;
        if self.queue.len() == 1 {
            // Queue just became non-empty: bound its latency.
            ctx.set_timer(self.delay, self.epoch);
        }
        if self.queue.len() >= self.max_msgs || self.pending_bytes >= self.max_bytes {
            if self.pending_bytes >= self.max_bytes {
                self.flushes_size += 1;
            } else {
                self.flushes_count += 1;
            }
            self.flush(ctx);
        }
    }

    /// Drains the queue, emitting one frame per run of consecutive
    /// same-destination messages.
    fn flush(&mut self, ctx: &mut LayerCtx<'_>) {
        if self.queue.is_empty() {
            return;
        }
        self.epoch += 1; // invalidate any armed delay timer
        self.pending_bytes = 0;
        let mut queue = std::mem::take(&mut self.queue);
        while let Some((key, first)) = queue.pop_front() {
            let mut run = vec![first];
            while queue.front().is_some_and(|(k, _)| *k == key) {
                run.push(queue.pop_front().expect("peeked").1);
            }
            self.emit_run(key, run, ctx);
        }
    }

    fn emit_run(&mut self, key: PackKey, mut run: Vec<Message>, ctx: &mut LayerCtx<'_>) {
        if run.len() == 1 {
            // A lone message travels unpacked; npack=0 marks passthrough.
            let mut m = run.pop().expect("len checked");
            ctx.stamp(&mut m);
            ctx.set(&mut m, 0, 0);
            self.singles += 1;
            self.pass_down(key, m, ctx);
            return;
        }
        let n = run.len();
        let mut cap = 0usize;
        let mut unpacked_wire = 0usize;
        for m in &run {
            let inner = m.encoded_inner_len();
            cap += 4 + inner;
            unpacked_wire += ENVELOPE_BYTES + inner;
        }
        // Sub-messages are serialized straight into the carrier body —
        // `[u32 len][u16 hdr_len][hdr][body]` each — skipping the
        // intermediate `encode_inner` allocation.
        let mut w = WireWriter::with_capacity(cap);
        for m in &run {
            let hdr = m.header_area();
            w.put_u32((2 + hdr.len() + m.body().len()) as u32);
            w.put_u16(hdr.len() as u16);
            w.put_raw(hdr);
            w.put_raw(m.body());
        }
        let mut carrier = ctx.new_message(w.finish());
        ctx.stamp(&mut carrier);
        ctx.set(&mut carrier, 0, n as u64);
        let packed_wire = ENVELOPE_BYTES + carrier.encoded_inner_len();
        ctx.note_packed(n as u64, unpacked_wire.saturating_sub(packed_wire) as u64);
        // Packing is the one place the send path materializes sub-message
        // bodies into a new buffer; keep the copy discipline observable.
        ctx.note_payload_copy(n as u64);
        self.carriers += 1;
        self.packed_msgs += n as u64;
        self.pass_down(key, carrier, ctx);
    }

    fn pass_down(&self, key: PackKey, msg: Message, ctx: &mut LayerCtx<'_>) {
        match key {
            PackKey::Cast => ctx.down(Down::Cast(msg)),
            PackKey::Send(dests) => ctx.down(Down::Send { dests, msg }),
        }
    }

    fn receive(&mut self, src: EndpointAddr, cast: bool, mut msg: Message, ctx: &mut LayerCtx<'_>) {
        if ctx.open(&mut msg).is_err() {
            return;
        }
        let n = ctx.get(&msg, 0);
        if n == 0 {
            self.pass_up(src, cast, msg, ctx);
            return;
        }
        // Unpack: each sub-message is `[u32 len][u16 hdr_len][hdr][body]`;
        // bodies are zero-copy slices of the carrier body.
        let body = msg.body().clone();
        let mut pos = 0usize;
        for _ in 0..n {
            if body.len() - pos < 4 {
                self.malformed += 1;
                ctx.reject(|| "PACK: carrier truncated at length prefix".to_string());
                return;
            }
            let len = u32::from_le_bytes([body[pos], body[pos + 1], body[pos + 2], body[pos + 3]])
                as usize;
            pos += 4;
            if len < 2 || body.len() - pos < len {
                self.malformed += 1;
                ctx.reject(|| "PACK: carrier sub-message overruns body".to_string());
                return;
            }
            let hdr_len = u16::from_le_bytes([body[pos], body[pos + 1]]) as usize;
            if len - 2 < hdr_len {
                self.malformed += 1;
                ctx.reject(|| "PACK: sub-message header overruns record".to_string());
                return;
            }
            let hdr = &body[pos + 2..pos + 2 + hdr_len];
            let sub_body = body.slice(pos + 2 + hdr_len..pos + len);
            pos += len;
            match Message::decode_parts(msg.layout().clone(), hdr, sub_body) {
                Ok(mut m) => {
                    self.unpacked += 1;
                    m.meta.src = Some(src);
                    self.pass_up(src, cast, m, ctx);
                }
                Err(e) => {
                    self.malformed += 1;
                    ctx.reject(|| format!("PACK: sub-message decode failed: {e}"));
                }
            }
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

impl Layer for Pack {
    fn name(&self) -> &'static str {
        "PACK"
    }

    fn header_fields(&self) -> &'static [FieldSpec] {
        PACK_FIELDS
    }

    fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
        match ev {
            Down::Cast(msg) => self.enqueue(PackKey::Cast, msg, ctx),
            Down::Send { dests, msg } => self.enqueue(PackKey::Send(dests), msg, ctx),
            other => {
                // Control traffic never overtakes queued data.
                self.flush(ctx);
                ctx.down(other);
            }
        }
    }

    fn on_up(&mut self, ev: Up, ctx: &mut LayerCtx<'_>) {
        match ev {
            Up::Cast { src, msg } => self.receive(src, true, msg, ctx),
            Up::Send { src, msg } => self.receive(src, false, msg, ctx),
            other => ctx.up(other),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut LayerCtx<'_>) {
        if token == self.epoch && !self.queue.is_empty() {
            self.flushes_timer += 1;
            self.flush(ctx);
        }
    }

    fn dump(&self) -> String {
        format!(
            "max_msgs={} max_bytes={} carriers={} singles={} packed={} \
             flushes(count/size/timer)={}/{}/{} unpacked={} malformed={} queued={}",
            self.max_msgs,
            self.max_bytes,
            self.carriers,
            self.singles,
            self.packed_msgs,
            self.flushes_count,
            self.flushes_size,
            self.flushes_timer,
            self.unpacked,
            self.malformed,
            self.queue.len()
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

    fn pack_world(n: u64, pack: impl Fn() -> Pack, cfg: NetConfig, seed: u64) -> SimWorld {
        let mut w = SimWorld::new(seed, cfg);
        for i in 1..=n {
            let s = StackBuilder::new(ep(i))
                .push(Box::new(pack()))
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
    fn burst_of_casts_shares_carrier_frames() {
        let mut w = pack_world(2, Pack::default, NetConfig::reliable(), 1);
        for i in 0..12u8 {
            w.cast_bytes(ep(1), vec![i; 32]);
        }
        w.run_for(Duration::from_millis(50));
        let got = w.delivered_casts(ep(2));
        assert_eq!(got.len(), 12);
        for (i, (_, body, _)) in got.iter().enumerate() {
            assert_eq!(&body[..], &vec![i as u8; 32][..], "FIFO order preserved");
        }
        let pack: &Pack = w.stack(ep(1)).unwrap().focus_as("PACK").unwrap();
        assert!(pack.carriers >= 1, "burst must produce at least one carrier");
        assert!(pack.packed_msgs >= 8, "most of the burst should pack");
        let stats = w.stack(ep(1)).unwrap().stats();
        assert!(stats.frames_packed >= 1);
        assert!(stats.msgs_packed >= 8);
        assert!(stats.bytes_saved_packing > 0);
    }

    #[test]
    fn flush_timer_bounds_latency_of_a_lone_cast() {
        let delay = Duration::from_millis(2);
        let mut w = pack_world(2, move || Pack::new(64, 1200, delay), NetConfig::reliable(), 2);
        w.cast_bytes(ep(1), b"solo".to_vec());
        // Nothing else arrives; only the delay timer can flush.  The
        // message must be out within the configured bound plus transit.
        w.run_for(delay + Duration::from_millis(2));
        let got = w.delivered_casts(ep(2));
        assert_eq!(got.len(), 1);
        assert_eq!(&got[0].1[..], b"solo");
        let pack: &Pack = w.stack(ep(1)).unwrap().focus_as("PACK").unwrap();
        assert_eq!(pack.flushes_timer, 1);
        assert_eq!(pack.singles, 1);
    }

    #[test]
    fn oversized_message_passes_through_unpacked() {
        let mut w = pack_world(2, Pack::default, NetConfig::reliable(), 3);
        // Bigger than max_bytes (so it can never share a carrier) but
        // still under the network MTU — PACK leaves the MTU to FRAG.
        w.cast_bytes(ep(1), vec![0xEE; 1400]);
        w.run_for(Duration::from_millis(50));
        let got = w.delivered_casts(ep(2));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1.len(), 1400);
        let pack: &Pack = w.stack(ep(1)).unwrap().focus_as("PACK").unwrap();
        assert_eq!(pack.carriers, 0);
        assert_eq!(pack.singles, 1);
    }

    #[test]
    fn interleaved_casts_and_sends_keep_order_within_streams() {
        let mut w = pack_world(3, Pack::default, NetConfig::reliable(), 4);
        for round in 0..4u8 {
            w.cast_bytes(ep(1), vec![round; 16]);
            let msg = w.stack(ep(1)).unwrap().new_message(vec![0x40 | round; 16]);
            w.down(ep(1), Down::Send { dests: vec![ep(2)], msg });
        }
        w.run_for(Duration::from_millis(50));
        for i in 2..=3 {
            let casts = w.delivered_casts(ep(i));
            assert_eq!(casts.len(), 4, "endpoint {i}");
            for (r, (_, body, _)) in casts.iter().enumerate() {
                assert_eq!(body[0], r as u8, "endpoint {i} cast order");
            }
        }
        let sends: Vec<u8> = w
            .upcalls(ep(2))
            .iter()
            .filter_map(|(_, up)| match up {
                Up::Send { msg, .. } => Some(msg.body()[0]),
                _ => None,
            })
            .collect();
        assert_eq!(sends, vec![0x40, 0x41, 0x42, 0x43], "send order");
        assert!(w.upcalls(ep(3)).iter().all(|(_, up)| !matches!(up, Up::Send { .. })));
    }

    #[test]
    fn count_threshold_flushes_without_waiting_for_timer() {
        // Huge delay: only the count threshold can flush.
        let mut w = pack_world(
            2,
            || Pack::new(4, 100_000, Duration::from_secs(60)),
            NetConfig::reliable(),
            5,
        );
        for i in 0..8u8 {
            w.cast_bytes(ep(1), vec![i; 8]);
        }
        w.run_for(Duration::from_millis(50));
        assert_eq!(w.delivered_casts(ep(2)).len(), 8);
        let pack: &Pack = w.stack(ep(1)).unwrap().focus_as("PACK").unwrap();
        assert_eq!(pack.flushes_count, 2);
        assert_eq!(pack.carriers, 2);
        assert_eq!(pack.packed_msgs, 8);
    }

    #[test]
    fn packing_survives_loss_with_nak_below() {
        for seed in 1..=3 {
            let mut w = pack_world(2, Pack::default, NetConfig::lossy(0.1), seed);
            for i in 0..20u8 {
                w.cast_bytes(ep(1), vec![i; 24]);
            }
            w.run_for(Duration::from_secs(3));
            let got = w.delivered_casts(ep(2));
            assert_eq!(got.len(), 20, "seed {seed}");
            for (i, (_, body, _)) in got.iter().enumerate() {
                assert_eq!(body[0], i as u8, "seed {seed}: FIFO under loss");
            }
        }
    }

    #[test]
    fn other_downcalls_flush_queued_messages_first() {
        let mut w = pack_world(
            2,
            || Pack::new(64, 100_000, Duration::from_secs(60)),
            NetConfig::reliable(),
            6,
        );
        w.cast_bytes(ep(1), b"queued".to_vec());
        // A Leave would race past the queue if PACK did not flush first.
        w.down(ep(1), Down::Leave);
        w.run_for(Duration::from_millis(50));
        let got = w.delivered_casts(ep(2));
        assert_eq!(got.len(), 1);
        assert_eq!(&got[0].1[..], b"queued");
    }
}
