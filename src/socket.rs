//! The UNIX-socket embedding of §1/§11.
//!
//! "When Horus is used through its socket interface, the top-most module
//! converts socket `sendto` and `recvfrom` operations into the Horus
//! paradigm" — "a UNIX sendto operation will be mapped to a multicast, and
//! a recvfrom will receive the next incoming message".
//!
//! [`GroupSocket`] is that top-most module: it runs a full protocol stack
//! on a one-shard [`ShardExecutor`] (real time, in-process transport) and
//! offers a blocking datagram-socket API.  The application never sees the HCPI —
//! the point of the embedding is exactly that Horus "can be hidden behind
//! standard abstractions".

use bytes::Bytes;
use horus_core::prelude::*;
use horus_layers::registry::build_stack;
use horus_net::LoopbackNet;
use horus_sim::shard::{ShardConfig, ShardExecutor};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// A datagram-socket-flavoured facade over a Horus protocol stack.
///
/// ```
/// use horus::socket::GroupSocket;
/// use horus_core::{EndpointAddr, GroupAddr};
/// use horus_net::LoopbackNet;
/// use std::time::Duration;
///
/// let net = LoopbackNet::new();
/// let g = GroupAddr::new(1);
/// let mut a = GroupSocket::bind(&net, EndpointAddr::new(1), "NAK:COM")?;
/// let mut b = GroupSocket::bind(&net, EndpointAddr::new(2), "NAK:COM")?;
/// a.join(g);
/// b.join(g);
/// std::thread::sleep(Duration::from_millis(20));
/// a.sendto(&b"hello"[..]);
/// let (from, body) = b.recvfrom(Duration::from_secs(5)).expect("delivery");
/// assert_eq!(from, EndpointAddr::new(1));
/// assert_eq!(&body[..], b"hello");
/// # Ok::<(), horus_core::HorusError>(())
/// ```
pub struct GroupSocket {
    addr: EndpointAddr,
    ex: ShardExecutor,
    inbox: VecDeque<(EndpointAddr, Bytes)>,
    /// Non-CAST upcalls observed (views, problems, ...), for curious
    /// applications; capped to the most recent 1024.
    events: VecDeque<Up>,
}

impl GroupSocket {
    /// Creates an endpoint with the given stack description and binds it
    /// to the transport.
    ///
    /// # Errors
    ///
    /// Fails when the stack description does not parse or build.
    pub fn bind(net: &LoopbackNet, addr: EndpointAddr, stack: &str) -> Result<Self, HorusError> {
        let stack = build_stack(addr, stack, StackConfig::default())?;
        let mut ex = ShardExecutor::new(net.clone(), ShardConfig::with_shards(1));
        ex.add_stack(stack);
        Ok(GroupSocket { addr, ex, inbox: VecDeque::new(), events: VecDeque::new() })
    }

    /// The socket's own address.
    pub fn local_addr(&self) -> EndpointAddr {
        self.addr
    }

    /// Joins a process group (the `bind`/`connect` analogue).
    pub fn join(&self, group: GroupAddr) {
        self.ex.down(self.addr, Down::Join { group });
    }

    /// `sendto`: multicasts a payload to the group.
    pub fn sendto(&self, body: impl Into<Bytes>) {
        self.ex.cast_bytes(self.addr, body.into());
    }

    /// Asks the view containing `contact` to merge with ours (only
    /// meaningful when the stack contains a membership layer).
    pub fn merge(&self, contact: EndpointAddr) {
        self.ex.down(self.addr, Down::Merge { contact });
    }

    /// The most recent view observed, if the stack runs membership.
    pub fn current_view(&mut self) -> Option<View> {
        self.drain();
        self.events.iter().rev().find_map(|up| match up {
            Up::View(v) => Some(v.clone()),
            _ => None,
        })
    }

    /// Blocks until the view reaches `n` members or `timeout` elapses.
    pub fn wait_for_view(&mut self, n: usize, timeout: Duration) -> Option<View> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(v) = self.current_view() {
                if v.len() >= n {
                    return Some(v);
                }
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// `recvfrom`: blocks (up to `timeout`) for the next incoming
    /// multicast, returning the sender and payload.
    pub fn recvfrom(&mut self, timeout: Duration) -> Option<(EndpointAddr, Bytes)> {
        let deadline = Instant::now() + timeout;
        loop {
            self.drain();
            if let Some(item) = self.inbox.pop_front() {
                return Some(item);
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Non-blocking `recvfrom`.
    pub fn try_recvfrom(&mut self) -> Option<(EndpointAddr, Bytes)> {
        self.drain();
        self.inbox.pop_front()
    }

    /// Drains non-data events (view changes etc.) observed so far.
    pub fn take_events(&mut self) -> Vec<Up> {
        self.drain();
        self.events.drain(..).collect()
    }

    /// Issues a raw HCPI downcall (for callers that outgrow the datagram
    /// metaphor without wanting to leave it entirely).
    pub fn downcall(&self, down: Down) {
        self.ex.down(self.addr, down);
    }

    /// Leaves the group and shuts the stack down.
    pub fn close(mut self) {
        self.ex.down(self.addr, Down::Leave);
        std::thread::sleep(Duration::from_millis(10));
        self.ex.stop();
    }

    fn drain(&mut self) {
        for up in self.ex.take_upcalls(self.addr) {
            match up {
                Up::Cast { src, msg } => self.inbox.push_back((src, msg.body().clone())),
                other => {
                    self.events.push_back(other);
                    while self.events.len() > 1024 {
                        self.events.pop_front();
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(i: u64) -> EndpointAddr {
        EndpointAddr::new(i)
    }

    #[test]
    fn sendto_recvfrom_roundtrip() {
        let net = LoopbackNet::new();
        let g = GroupAddr::new(7);
        let mut socks: Vec<GroupSocket> =
            (1..=3).map(|i| GroupSocket::bind(&net, ep(i), "CHKSUM:NAK:COM").unwrap()).collect();
        for s in &socks {
            s.join(g);
        }
        std::thread::sleep(Duration::from_millis(30));
        socks[0].sendto(&b"dgram"[..]);
        for (i, s) in socks.iter_mut().enumerate() {
            let (from, body) =
                s.recvfrom(Duration::from_secs(5)).unwrap_or_else(|| panic!("socket {i}"));
            assert_eq!(from, ep(1));
            assert_eq!(&body[..], b"dgram");
        }
        for s in socks {
            s.close();
        }
    }

    #[test]
    fn bad_stack_description_errors() {
        let net = LoopbackNet::new();
        assert!(GroupSocket::bind(&net, ep(1), "NOT_A_LAYER").is_err());
    }

    #[test]
    fn try_recvfrom_is_nonblocking() {
        let net = LoopbackNet::new();
        let mut s = GroupSocket::bind(&net, ep(9), "NAK:COM").unwrap();
        s.join(GroupAddr::new(1));
        assert!(s.try_recvfrom().is_none());
        s.close();
    }
}
