//! MERGE — automatic view merging (Table 3, property P16).
//!
//! §5 notes that "when communication is restored, views may be merged
//! using the *merge* downcall"; the MERGE layer automates the downcall.
//! It is configured with a set of *rendezvous contacts* (the moral
//! equivalent of gossip seeds).  Whenever this endpoint coordinates its
//! own view and a contact is missing from it, MERGE periodically issues
//! `merge(contact)` to the membership layer below, which runs the §5 merge
//! flush.  Once every contact is a fellow member the layer goes quiet.
//!
//! Requires P1, P3, P4, P8–P12, P15 beneath (i.e. a full membership
//! stack); provides P16.

use horus_core::prelude::*;
use std::time::Duration;

const TIMER_PROBE: u64 = 0;

/// The automatic-merge layer.
#[derive(Debug, Clone)]
pub struct Merge {
    /// Endpoints this group should coalesce around.
    contacts: Vec<EndpointAddr>,
    period: Duration,
    view: Option<View>,
    me: Option<EndpointAddr>,
    /// Merge attempts issued.
    pub probes: u64,
}

impl Merge {
    /// Creates a MERGE layer that pulls the given contacts into the view.
    pub fn new(contacts: Vec<EndpointAddr>, period: Duration) -> Self {
        Merge { contacts, period, view: None, me: None, probes: 0 }
    }

    fn missing_contact(&self) -> Option<EndpointAddr> {
        let view = self.view.as_ref()?;
        let me = self.me?;
        // Only the coordinator initiates merges (MBRSHIP's rule), and it
        // defers to senior contacts: the junior side merges into the
        // senior side so two probing groups do not chase each other.
        if view.coordinator_among(view.members()) != Some(me) {
            return None;
        }
        // Merge strictly toward smaller addresses: if both sides probed
        // each other simultaneously, two Merging coordinators could chase
        // one another forever.
        self.contacts.iter().copied().find(|c| !view.contains(*c) && *c < me)
    }
}

impl Layer for Merge {
    fn name(&self) -> &'static str {
        "MERGE"
    }

    fn on_init(&mut self, ctx: &mut LayerCtx<'_>) {
        self.me = Some(ctx.local_addr());
        ctx.set_timer(self.period, TIMER_PROBE);
    }

    fn on_up(&mut self, ev: Up, ctx: &mut LayerCtx<'_>) {
        if let Up::View(v) = &ev {
            self.view = Some(v.clone());
        }
        ctx.up(ev);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut LayerCtx<'_>) {
        if token == TIMER_PROBE {
            if let Some(contact) = self.missing_contact() {
                self.probes += 1;
                ctx.down(Down::Merge { contact });
            }
            ctx.set_timer(self.period, TIMER_PROBE);
        }
    }

    fn dump(&self) -> String {
        format!("contacts={:?} probes={}", self.contacts, self.probes)
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
    use horus_sim::SimWorld;

    fn ep(i: u64) -> EndpointAddr {
        EndpointAddr::new(i)
    }

    fn stack(i: u64, contacts: Vec<EndpointAddr>) -> Stack {
        StackBuilder::new(ep(i))
            .push(Box::new(Merge::new(contacts, Duration::from_millis(50))))
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

    #[test]
    fn group_forms_automatically_without_manual_merges() {
        let mut w = SimWorld::new(1, NetConfig::reliable());
        let contacts = vec![ep(1)];
        for i in 1..=4 {
            w.add_endpoint(stack(i, contacts.clone()));
            w.join(ep(i), GroupAddr::new(1));
        }
        w.run_for(Duration::from_secs(3));
        for i in 1..=4 {
            assert_eq!(
                w.installed_views(ep(i)).last().unwrap().len(),
                4,
                "endpoint {i} auto-joined the group"
            );
        }
    }

    #[test]
    fn partitions_heal_automatically() {
        let mut w = SimWorld::new(2, NetConfig::reliable());
        for i in 1..=4 {
            w.add_endpoint(stack(i, vec![ep(1)]));
            w.join(ep(i), GroupAddr::new(1));
        }
        w.run_for(Duration::from_secs(3));
        let t = w.now();
        w.partition_at(t, &[&[ep(1), ep(2)], &[ep(3), ep(4)]]);
        w.run_for(Duration::from_secs(2));
        assert_eq!(w.installed_views(ep(3)).last().unwrap().len(), 2);
        // Heal: MERGE re-probes ep(1) and the group coalesces by itself.
        let t = w.now();
        w.heal_at(t);
        w.run_for(Duration::from_secs(4));
        for i in 1..=4 {
            assert_eq!(
                w.installed_views(ep(i)).last().unwrap().len(),
                4,
                "endpoint {i} re-merged automatically"
            );
        }
    }
}
