//! COM — the bottom adapter layer (§7).
//!
//! "The COM layer translates the low-level network interface into the
//! Common Protocol Interface.  If necessary, COM keeps track of the source
//! of messages (by pushing the address of the source endpoint on each
//! outgoing message), and filters out spurious messages from endpoints not
//! in its view."
//!
//! In this reproduction the transport already reports the frame source, so
//! pushing the source address is optional ([`Com::with_pushed_src`]) — when
//! enabled it overrides the transport-reported source, which is exactly the
//! behaviour needed on source-less networks like raw ATM.  View filtering
//! starts after the first `view` downcall installs a member set; before
//! that, COM is promiscuous (plain stacks without a membership layer never
//! install views).

use horus_core::prelude::*;

const FIELDS_SRC: &[FieldSpec] = &[FieldSpec::new("src", 64)];
const FIELDS_NONE: &[FieldSpec] = &[];

/// The COM layer.  Providing properties P10 (byte re-ordering detection is
/// delegated to the frame decoder and fingerprint) and P11 (source
/// address).
#[derive(Debug, Default, Clone)]
pub struct Com {
    push_src: bool,
    /// Filter casts whose source is outside the installed member set.
    filter: bool,
    members: Option<Vec<EndpointAddr>>,
    filtered: u64,
    casts: u64,
    delivered: u64,
}

impl Com {
    /// A COM layer relying on transport-reported sources, with view
    /// filtering enabled once a view is installed.
    pub fn new() -> Self {
        Com { filter: true, ..Com::default() }
    }

    /// A COM layer that pushes the source endpoint address onto every
    /// outgoing message (for source-less transports).
    pub fn with_pushed_src() -> Self {
        Com { push_src: true, filter: true, ..Com::default() }
    }

    /// Disables spurious-source filtering (promiscuous mode, used by merge
    /// tests and the MERGE layer's probing).
    pub fn promiscuous() -> Self {
        Com { filter: false, ..Com::default() }
    }

    fn spurious(&self, src: EndpointAddr) -> bool {
        match (&self.members, self.filter) {
            (Some(members), true) => !members.contains(&src),
            _ => false,
        }
    }
}

impl Layer for Com {
    fn name(&self) -> &'static str {
        "COM"
    }

    fn header_fields(&self) -> &'static [FieldSpec] {
        if self.push_src {
            FIELDS_SRC
        } else {
            FIELDS_NONE
        }
    }

    fn on_down(&mut self, ev: Down, ctx: &mut LayerCtx<'_>) {
        match ev {
            Down::Cast(mut msg) => {
                self.casts += 1;
                if self.push_src {
                    ctx.stamp(&mut msg);
                    ctx.set(&mut msg, 0, ctx.local_addr().raw());
                }
                ctx.down(Down::Cast(msg));
            }
            Down::Send { dests, mut msg } => {
                if self.push_src {
                    ctx.stamp(&mut msg);
                    ctx.set(&mut msg, 0, ctx.local_addr().raw());
                }
                ctx.down(Down::Send { dests, msg });
            }
            Down::InstallView(view) => {
                // COM is the designated consumer of view installations: it
                // keeps the transport-level destination set.
                self.members = Some(view.members().to_vec());
            }
            other => ctx.down(other),
        }
    }

    fn on_up(&mut self, ev: Up, ctx: &mut LayerCtx<'_>) {
        match ev {
            Up::Cast { src, mut msg } => {
                let src = if self.push_src {
                    match ctx.open(&mut msg) {
                        Ok(()) => {
                            let raw = ctx.get(&msg, 0);
                            if raw == 0 {
                                return; // malformed: drop silently
                            }
                            EndpointAddr::new(raw)
                        }
                        Err(_) => return, // header mismatch: drop
                    }
                } else {
                    src
                };
                if self.spurious(src) {
                    self.filtered += 1;
                    return;
                }
                self.delivered += 1;
                msg.meta.src = Some(src);
                ctx.up(Up::Cast { src, msg });
            }
            Up::Send { src, mut msg } => {
                let src = if self.push_src {
                    match ctx.open(&mut msg) {
                        Ok(()) => {
                            let raw = ctx.get(&msg, 0);
                            if raw == 0 {
                                return;
                            }
                            EndpointAddr::new(raw)
                        }
                        Err(_) => return,
                    }
                } else {
                    src
                };
                // Point-to-point sends are never view-filtered: merge
                // requests arrive from outside the view by design (§5).
                msg.meta.src = Some(src);
                ctx.up(Up::Send { src, msg });
            }
            other => ctx.up(other),
        }
    }

    fn dump(&self) -> String {
        format!(
            "casts={} delivered={} filtered={} members={:?}",
            self.casts,
            self.delivered,
            self.filtered,
            self.members.as_ref().map(|m| m.len())
        )
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use horus_core::view::View;
    use horus_trace::TraceBuf;
    use std::sync::Arc;

    fn ep(i: u64) -> EndpointAddr {
        EndpointAddr::new(i)
    }

    /// One input through `s`, its effects collected in a fresh sink.
    fn handle(s: &mut Stack, input: StackInput) -> Vec<Effect> {
        let mut sink = EffectSink::new();
        s.handle_into(input, &mut sink);
        sink.into_effects()
    }

    fn stack(com: Com) -> Stack {
        StackBuilder::new(ep(1)).push(Box::new(com)).build().unwrap()
    }

    fn cast_wire(s: &mut Stack, body: &[u8]) -> WireFrame {
        let m = s.new_message(body.to_vec());
        let fx = handle(s, StackInput::FromApp(Down::Cast(m)));
        match &fx[0] {
            Effect::NetCast { wire } => wire.clone(),
            other => panic!("expected NetCast, got {other:?}"),
        }
    }

    #[test]
    fn promiscuous_before_view_installed() {
        let mut a = stack(Com::new());
        let mut b = stack(Com::new());
        // b is a different endpoint; rebuild with addr 2 for clarity.
        let wire = cast_wire(&mut a, b"hello");
        let fx = handle(&mut b, StackInput::FromNet { from: ep(9), cast: true, wire });
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::Deliver(Up::Cast { src, .. }) if *src == ep(9))));
    }

    #[test]
    fn filters_spurious_casts_after_view() {
        let mut a = stack(Com::new());
        let mut b = stack(Com::new());
        let view = View::initial(GroupAddr::new(1), ep(1)).with_joined(&[ep(2)]);
        let _ = handle(&mut b, StackInput::FromApp(Down::InstallView(view)));
        let wire = cast_wire(&mut a, b"ok");
        // From a member: delivered.
        let fx =
            handle(&mut b, StackInput::FromNet { from: ep(2), cast: true, wire: wire.clone() });
        assert!(fx.iter().any(|e| matches!(e, Effect::Deliver(Up::Cast { .. }))));
        // From an outsider: dropped.
        let fx = handle(&mut b, StackInput::FromNet { from: ep(9), cast: true, wire });
        assert!(!fx.iter().any(|e| matches!(e, Effect::Deliver(Up::Cast { .. }))));
        let com: &Com = b.focus_as("COM").unwrap();
        assert_eq!(com.filtered, 1);
    }

    #[test]
    fn sends_bypass_view_filter() {
        let mut a = stack(Com::new());
        let mut b = stack(Com::new());
        let view = View::initial(GroupAddr::new(1), ep(1));
        let _ = handle(&mut b, StackInput::FromApp(Down::InstallView(view)));
        let m = a.new_message(&b"merge?"[..]);
        let fx = handle(&mut a, StackInput::FromApp(Down::Send { dests: vec![ep(1)], msg: m }));
        let wire = match &fx[0] {
            Effect::NetSend { wire, .. } => wire.clone(),
            other => panic!("{other:?}"),
        };
        let fx = handle(&mut b, StackInput::FromNet { from: ep(9), cast: false, wire });
        assert!(fx.iter().any(|e| matches!(e, Effect::Deliver(Up::Send { .. }))));
    }

    #[test]
    fn pushed_src_overrides_transport_source() {
        let mut a =
            StackBuilder::new(ep(7)).push(Box::new(Com::with_pushed_src())).build().unwrap();
        let mut b =
            StackBuilder::new(ep(2)).push(Box::new(Com::with_pushed_src())).build().unwrap();
        let wire = cast_wire(&mut a, b"x");
        // Transport claims ep(9), header says ep(7): header wins.
        let fx = handle(&mut b, StackInput::FromNet { from: ep(9), cast: true, wire });
        let src = fx
            .iter()
            .find_map(|e| match e {
                Effect::Deliver(Up::Cast { src, .. }) => Some(*src),
                _ => None,
            })
            .unwrap();
        assert_eq!(src, ep(7));
    }

    #[test]
    fn install_view_is_consumed_not_traced() {
        let buf = Arc::new(TraceBuf::new());
        let mut s = stack(Com::new());
        s.set_tracer(buf.clone());
        let view = View::initial(GroupAddr::new(1), ep(1));
        let fx = handle(&mut s, StackInput::FromApp(Down::InstallView(view)));
        assert!(fx.is_empty(), "{fx:?}");
        let notes: Vec<_> =
            buf.take().into_iter().filter(|r| matches!(r.kind, TraceKind::Note(_))).collect();
        assert!(notes.is_empty(), "InstallView must not fall off the bottom: {notes:?}");
    }
}
