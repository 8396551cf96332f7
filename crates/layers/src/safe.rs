//! ORDER(safe) — stability-gated ("safe") delivery (Table 3).
//!
//! A message is delivered *safely* when the receiver knows every surviving
//! group member already has it: nothing a safe delivery triggers can be
//! lost by a minority of crashes.  SAFE sits above a stability layer
//! (STABLE or PINWHEEL, property P14) and simply holds CAST deliveries
//! back until the stability matrix covers them; per-origin order is
//! preserved (stability horizons are cumulative), and a view change
//! releases everything buffered — virtual synchrony below guarantees that
//! every survivor of the transition holds the same messages, which *is*
//! safety with respect to the new view.
//!
//! Requires P3, P8, P9, P14, P15 below; provides P7 (safe delivery), and
//! preserves causal order when stacked over CAUSAL (P5).

use horus_core::prelude::*;
use std::collections::VecDeque;

/// The safe-delivery layer.  No header fields: it reacts to the metadata
/// and STABLE upcalls of the stability layer beneath it — a zero-byte
/// layer, the paper's "cost ... as low as a few instructions".
#[derive(Debug, Default, Clone)]
pub struct Safe {
    /// Deliveries waiting for their stability horizon.
    held: VecDeque<(EndpointAddr, Message)>,
    delivered: u64,
    max_held: usize,
}

impl Safe {
    /// Creates a SAFE layer.
    pub fn new() -> Self {
        Safe::default()
    }

    fn release(&mut self, matrix: Option<&StabilityMatrix>, ctx: &mut LayerCtx<'_>) {
        // Release the longest stable prefix per queue order; holding back
        // out-of-order releases keeps per-origin FIFO intact.
        while let Some((_, msg)) = self.held.front() {
            let stable = match (matrix, msg.meta.msg_id) {
                (Some(m), Some(id)) => m.is_stable(id.origin, id.seq),
                // Without an id or matrix we cannot prove stability.
                _ => false,
            };
            if !stable {
                break;
            }
            let (src, msg) = self.held.pop_front().expect("front checked");
            self.delivered += 1;
            ctx.up(Up::Cast { src, msg });
        }
    }
}

impl Layer for Safe {
    fn name(&self) -> &'static str {
        "SAFE"
    }

    fn on_up(&mut self, ev: Up, ctx: &mut LayerCtx<'_>) {
        match ev {
            Up::Cast { src, msg } => {
                self.held.push_back((src, msg));
                self.max_held = self.max_held.max(self.held.len());
            }
            Up::Stable(matrix) => {
                self.release(Some(&matrix), ctx);
                ctx.up(Up::Stable(matrix));
            }
            Up::View(view) => {
                // Everything sent in the old view is at every survivor:
                // safe by the virtual-synchrony argument.  Release all.
                for (src, msg) in std::mem::take(&mut self.held) {
                    self.delivered += 1;
                    ctx.up(Up::Cast { src, msg });
                }
                ctx.up(Up::View(view));
            }
            other => ctx.up(other),
        }
    }

    fn dump(&self) -> String {
        format!("held={} max_held={} delivered={}", self.held.len(), self.max_held, self.delivered)
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
    use crate::nak::Nak;
    use crate::stable::Stable;
    use horus_net::NetConfig;
    use horus_sim::SimWorld;
    use std::time::Duration;

    fn ep(i: u64) -> EndpointAddr {
        EndpointAddr::new(i)
    }

    fn safe_stack(i: u64, app_driven: bool) -> Stack {
        let stable = if app_driven { Stable::app_driven() } else { Stable::default() };
        StackBuilder::new(ep(i))
            .push(Box::new(Safe::new()))
            .push(Box::new(stable))
            .push(Box::new(Mbrship::new(MbrshipConfig::default())))
            .push(Box::new(Frag::default()))
            .push(Box::new(Nak::default()))
            .push(Box::new(Com::promiscuous()))
            .build()
            .unwrap()
    }

    fn joined(n: u64, seed: u64, app_driven: bool) -> SimWorld {
        let mut w = SimWorld::new(seed, NetConfig::reliable());
        for i in 1..=n {
            w.add_endpoint(safe_stack(i, app_driven));
            w.join(ep(i), GroupAddr::new(1));
        }
        for i in 2..=n {
            w.down_at(SimTime::from_millis(5 * (i - 1)), ep(i), Down::Merge { contact: ep(1) });
        }
        w.run_for(Duration::from_secs(1));
        w
    }

    #[test]
    fn delivery_waits_for_receipt_stability() {
        let mut w = joined(3, 1, false);
        w.cast_bytes(ep(1), &b"m"[..]);
        // Shortly after the cast the message has arrived but cannot be
        // proven stable yet (gossip pending): nothing delivered.
        w.run_for(Duration::from_millis(2));
        assert!(w.delivered_casts(ep(2)).is_empty());
        // After gossip rounds it is stable everywhere and gets released.
        w.run_for(Duration::from_secs(1));
        for i in 1..=3 {
            assert_eq!(w.delivered_casts(ep(i)).len(), 1, "endpoint {i}");
        }
    }

    #[test]
    fn app_driven_safety_blocks_until_everyone_acks() {
        let mut w = joined(2, 2, true);
        w.cast_bytes(ep(1), &b"m"[..]);
        w.run_for(Duration::from_millis(500));
        // Nobody acked: SAFE holds the delivery everywhere.
        assert!(w.delivered_casts(ep(1)).is_empty());
        assert!(w.delivered_casts(ep(2)).is_empty());
        // Acks must come from the application — but the app never saw the
        // message (SAFE holds it)!  This is exactly why receipt stability
        // (auto-ack) is the right mode under SAFE; the app-driven mode is
        // for end-to-end uses like §9's display example.  Emulate an
        // out-of-band ack:
        for i in 1..=2 {
            w.down(ep(i), Down::Ack(MsgId { origin: ep(1), seq: 1 }));
        }
        w.run_for(Duration::from_secs(1));
        for i in 1..=2 {
            assert_eq!(w.delivered_casts(ep(i)).len(), 1, "endpoint {i}");
        }
    }

    #[test]
    fn view_change_releases_held_messages() {
        let mut w = joined(3, 3, true); // app-driven: nothing stabilizes
        w.cast_bytes(ep(1), &b"stuck"[..]);
        w.run_for(Duration::from_millis(300));
        assert!(w.delivered_casts(ep(2)).is_empty());
        let t = w.now();
        w.crash_at(t, ep(3));
        w.run_for(Duration::from_secs(2));
        // The flush-induced view change released the held message.
        for i in 1..=2 {
            assert_eq!(w.delivered_casts(ep(i)).len(), 1, "endpoint {i}");
        }
    }

    #[test]
    fn per_origin_fifo_preserved() {
        let mut w = joined(3, 4, false);
        for k in 0..10u8 {
            w.cast_bytes(ep(1), vec![k]);
        }
        w.run_for(Duration::from_secs(2));
        let got: Vec<u8> = w.delivered_casts(ep(2)).iter().map(|(_, b, _)| b[0]).collect();
        assert_eq!(got, (0..10).collect::<Vec<u8>>());
    }
}
