//! # horus-core
//!
//! The object model and protocol-stack runtime of the Horus protocol
//! composition framework, after *"A Framework for Protocol Composition in
//! Horus"* (van Renesse, Birman, Friedman, Hayden, Karr — PODC 1995).
//!
//! Horus treats a protocol as an abstract data type: a module with a
//! standardized top and bottom interface (the *Horus Common Protocol
//! Interface*, HCPI) that can be stacked on other such modules at run time,
//! "like LEGO blocks".  This crate provides:
//!
//! * the four Horus object classes of §3 — **endpoints** ([`addr`]),
//!   **groups**/**views** ([`view`]), **messages** with push/pop header
//!   stacks ([`message`]), and the event machinery that replaces explicit
//!   threads in the event-queue execution model ([`event`], [`stack`]);
//! * the HCPI itself — the downcalls of Table 1 ([`event::Down`]) and the
//!   upcalls of Table 2 ([`event::Up`]);
//! * the [`layer::Layer`] trait every protocol module implements, and
//!   [`stack::Stack`], the single-scheduler-per-stack runtime of §3/§10;
//! * both message-header layouts discussed in §10: the word-aligned
//!   per-layer push/pop format used by the 1995 production system, and the
//!   pre-computed bit-compacted single header the paper proposes as its
//!   replacement ([`message::HeaderMode`]).
//!
//! Protocol layers themselves live in the `horus-layers` crate; network
//! substrates in `horus-net`; the property algebra of Tables 3–4 in
//! `horus-props`; and the deterministic scenario harness in `horus-sim`.
//!
//! ## Example
//!
//! ```
//! use horus_core::prelude::*;
//!
//! // A stack of two pass-through layers; see `horus-layers` for real ones.
//! #[derive(Debug, Default, Clone)]
//! struct Nop;
//! impl Layer for Nop {
//!     fn name(&self) -> &'static str { "NOP" }
//! }
//!
//! let mut stack = StackBuilder::new(EndpointAddr::new(1))
//!     .push(Box::new(Nop))
//!     .push(Box::new(Nop))
//!     .build()?;
//! let mut effects = EffectSink::new();
//! stack.init(&mut effects);
//! let msg = stack.new_message(&b"hello"[..]);
//! stack.handle_into(StackInput::FromApp(Down::Cast(msg)), &mut effects);
//! // With only pass-through layers the cast falls off the bottom of the
//! // stack and becomes a network multicast effect.
//! assert!(matches!(effects.as_slice()[0], Effect::NetCast { .. }));
//! # Ok::<(), horus_core::HorusError>(())
//! ```

pub mod addr;
pub mod digest;
pub mod error;
pub mod event;
pub mod frame;
pub mod layer;
pub mod message;
pub mod stack;
pub mod time;
pub mod trace;
pub mod view;
pub mod wire;

pub use addr::{EndpointAddr, GroupAddr, Rank};
pub use digest::StateDigest;
pub use error::HorusError;
pub use event::{Down, Effect, MergeId, MsgId, StabilityMatrix, StackInput, Up};
pub use frame::WireFrame;
pub use layer::{Layer, LayerClone, LayerCtx};
pub use message::{FieldSpec, HeaderLayout, HeaderMode, Message};
pub use stack::{EffectSink, LayerTraffic, Stack, StackBuilder, StackConfig, StackStats};
pub use time::SimTime;
pub use trace::{
    DropReason, FilterSink, KindMask, NullSink, SamplingSink, TraceEvent, TraceKind, TraceSink,
};
pub use view::{View, ViewId};

/// Convenient glob-import surface for applications and layer authors.
pub mod prelude {
    pub use crate::addr::{EndpointAddr, GroupAddr, Rank};
    pub use crate::error::HorusError;
    pub use crate::event::{Down, Effect, MergeId, MsgId, StabilityMatrix, StackInput, Up};
    pub use crate::frame::WireFrame;
    pub use crate::layer::{Layer, LayerClone, LayerCtx};
    pub use crate::message::{FieldSpec, HeaderLayout, HeaderMode, Message};
    pub use crate::stack::{
        EffectSink, LayerTraffic, Stack, StackBuilder, StackConfig, StackStats,
    };
    pub use crate::time::SimTime;
    pub use crate::trace::{
        DropReason, FilterSink, KindMask, NullSink, SamplingSink, TraceEvent, TraceKind, TraceSink,
    };
    pub use crate::view::{View, ViewId};
}
