//! The AODV routing table.

use sim_core::{DetMap, SimDuration, SimTime};
use wire::NodeId;

/// One routing table entry.
#[derive(Clone, Debug)]
pub struct Route {
    /// Next hop toward the destination.
    pub next_hop: NodeId,
    /// Hops to the destination.
    pub hop_count: u8,
    /// Last known destination sequence number.
    pub dst_seq: u32,
    /// Whether the route is currently usable.
    pub valid: bool,
    /// Instant after which the route is considered stale.
    pub expires: SimTime,
}

/// The per-node routing table.
///
/// # Example
///
/// ```
/// use aodv::RouteTable;
/// use sim_core::{SimDuration, SimTime};
/// use wire::NodeId;
///
/// let mut t = RouteTable::new();
/// let now = SimTime::ZERO;
/// t.update(NodeId::new(5), NodeId::new(1), 2, 7, now + SimDuration::from_secs(10));
/// assert_eq!(t.lookup(NodeId::new(5), now).unwrap().next_hop, NodeId::new(1));
/// ```
#[derive(Clone, Debug, Default)]
pub struct RouteTable {
    routes: DetMap<NodeId, Route>,
}

impl RouteTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// A valid, unexpired route to `dst`, if any.
    pub fn lookup(&self, dst: NodeId, now: SimTime) -> Option<&Route> {
        self.routes.get(&dst).filter(|r| r.valid && r.expires > now)
    }

    /// The entry for `dst` regardless of validity (e.g. to compare sequence
    /// numbers).
    pub fn entry(&self, dst: NodeId) -> Option<&Route> {
        self.routes.get(&dst)
    }

    /// Installs or refreshes a route if it is newer (higher `dst_seq`) or
    /// equally new but shorter. Returns whether the table changed.
    pub fn update(
        &mut self,
        dst: NodeId,
        next_hop: NodeId,
        hop_count: u8,
        dst_seq: u32,
        expires: SimTime,
    ) -> bool {
        match self.routes.get_mut(&dst) {
            Some(r) => {
                let newer = dst_seq > r.dst_seq
                    || (dst_seq == r.dst_seq && hop_count < r.hop_count)
                    || !r.valid;
                if newer {
                    r.next_hop = next_hop;
                    r.hop_count = hop_count;
                    r.dst_seq = r.dst_seq.max(dst_seq);
                    r.valid = true;
                    r.expires = r.expires.max(expires);
                    true
                } else {
                    // Same route: refresh lifetime.
                    if r.next_hop == next_hop && r.hop_count == hop_count {
                        r.expires = r.expires.max(expires);
                    }
                    false
                }
            }
            None => {
                self.routes
                    .insert(dst, Route { next_hop, hop_count, dst_seq, valid: true, expires });
                true
            }
        }
    }

    /// Installs or refreshes the one-hop route to a neighbour we just heard
    /// from, preserving any known sequence number.
    pub fn update_neighbor(&mut self, neighbor: NodeId, expires: SimTime) {
        match self.routes.get_mut(&neighbor) {
            Some(r) => {
                r.next_hop = neighbor;
                r.hop_count = 1;
                r.valid = true;
                r.expires = r.expires.max(expires);
            }
            None => {
                self.routes.insert(
                    neighbor,
                    Route { next_hop: neighbor, hop_count: 1, dst_seq: 0, valid: true, expires },
                );
            }
        }
    }

    /// Extends the lifetime of the route to `dst` (called on every use).
    pub fn refresh(&mut self, dst: NodeId, now: SimTime, lifetime: SimDuration) {
        if let Some(r) = self.routes.get_mut(&dst) {
            r.expires = r.expires.max(now + lifetime);
        }
    }

    /// Invalidates every valid route whose next hop is `hop`; returns the
    /// affected `(dst, incremented_seq)` list for RERR generation.
    pub fn invalidate_via(&mut self, hop: NodeId) -> Vec<(NodeId, u32)> {
        let mut broken = Vec::new();
        for (&dst, r) in &mut self.routes {
            if r.valid && r.next_hop == hop {
                r.valid = false;
                r.dst_seq = r.dst_seq.saturating_add(1); // per RFC 3561 §6.11
                broken.push((dst, r.dst_seq));
            }
        }
        broken
    }

    /// Invalidates the route to `dst` if it goes through `via` and the
    /// reported sequence number is at least as new. Returns whether a valid
    /// route was torn down.
    pub fn invalidate_route(&mut self, dst: NodeId, via: NodeId, dst_seq: u32) -> bool {
        if let Some(r) = self.routes.get_mut(&dst) {
            if r.valid && r.next_hop == via && dst_seq >= r.dst_seq {
                r.valid = false;
                r.dst_seq = dst_seq;
                return true;
            }
        }
        false
    }

    /// Number of entries (valid or not).
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }
}

sim_core::snap_record! { Route { next_hop, hop_count, dst_seq, valid, expires } }

sim_core::snap_record! { RouteTable { routes } }

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    fn exp(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn install_and_lookup() {
        let mut t = RouteTable::new();
        assert!(t.update(n(5), n(1), 3, 10, exp(10)));
        let r = t.lookup(n(5), SimTime::ZERO).unwrap();
        assert_eq!(r.next_hop, n(1));
        assert_eq!(r.hop_count, 3);
    }

    #[test]
    fn expired_route_not_returned() {
        let mut t = RouteTable::new();
        t.update(n(5), n(1), 3, 10, exp(10));
        assert!(t.lookup(n(5), exp(11)).is_none());
        assert!(t.entry(n(5)).is_some());
    }

    #[test]
    fn newer_seq_wins() {
        let mut t = RouteTable::new();
        t.update(n(5), n(1), 3, 10, exp(10));
        assert!(t.update(n(5), n(2), 5, 11, exp(10)));
        assert_eq!(t.lookup(n(5), SimTime::ZERO).unwrap().next_hop, n(2));
    }

    #[test]
    fn same_seq_shorter_wins() {
        let mut t = RouteTable::new();
        t.update(n(5), n(1), 3, 10, exp(10));
        assert!(t.update(n(5), n(2), 2, 10, exp(10)));
        assert_eq!(t.lookup(n(5), SimTime::ZERO).unwrap().hop_count, 2);
        // Longer path with same seq is rejected.
        assert!(!t.update(n(5), n(3), 4, 10, exp(10)));
    }

    #[test]
    fn stale_seq_rejected() {
        let mut t = RouteTable::new();
        t.update(n(5), n(1), 3, 10, exp(10));
        assert!(!t.update(n(5), n(2), 1, 9, exp(10)));
        assert_eq!(t.lookup(n(5), SimTime::ZERO).unwrap().next_hop, n(1));
    }

    #[test]
    fn invalidate_via_reports_bumped_seqs() {
        let mut t = RouteTable::new();
        t.update(n(5), n(1), 3, 10, exp(10));
        t.update(n(6), n(1), 4, 2, exp(10));
        t.update(n(7), n(2), 1, 5, exp(10));
        let mut broken = t.invalidate_via(n(1));
        broken.sort_by_key(|b| b.0);
        assert_eq!(broken.len(), 2);
        assert_eq!(broken[0].0, n(5));
        assert_eq!(broken[0].1, 11); // seq incremented
        assert!(t.lookup(n(5), SimTime::ZERO).is_none());
        assert!(t.lookup(n(7), SimTime::ZERO).is_some());
    }

    #[test]
    fn reinstall_after_invalidation() {
        let mut t = RouteTable::new();
        t.update(n(5), n(1), 3, 10, exp(10));
        t.invalidate_via(n(1));
        // Even an equal-seq update revalidates a broken route.
        assert!(t.update(n(5), n(2), 4, 11, exp(20)));
        assert!(t.lookup(n(5), SimTime::ZERO).is_some());
    }

    #[test]
    fn invalidate_route_respects_seq_and_hop() {
        let mut t = RouteTable::new();
        t.update(n(5), n(1), 3, 10, exp(10));
        assert!(!t.invalidate_route(n(5), n(2), 12)); // different next hop
        assert!(!t.invalidate_route(n(5), n(1), 9)); // stale seq
        assert!(t.invalidate_route(n(5), n(1), 11));
        assert!(t.lookup(n(5), SimTime::ZERO).is_none());
    }

    #[test]
    fn refresh_extends_lifetime() {
        let mut t = RouteTable::new();
        t.update(n(5), n(1), 3, 10, exp(10));
        t.refresh(n(5), exp(9), SimDuration::from_secs(10));
        assert!(t.lookup(n(5), exp(15)).is_some());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn nid(i: u16) -> NodeId {
        NodeId::new(i % 8)
    }

    proptest! {
        /// After any sequence of updates, the stored sequence number for a
        /// destination never decreases, and a valid route's data is always
        /// one that was actually offered.
        #[test]
        fn seq_numbers_never_regress(
            ops in proptest::collection::vec((0u16..8, 0u16..8, 1u8..10, 0u32..20), 1..64)
        ) {
            let mut table = RouteTable::new();
            let mut best_seq = std::collections::BTreeMap::new();
            let expires = SimTime::from_nanos(1_000_000_000);
            for (dst, hop, hops, seq) in ops {
                let dst = nid(dst);
                table.update(dst, nid(hop), hops, seq, expires);
                let prev = best_seq.entry(dst).or_insert(0u32);
                *prev = (*prev).max(seq);
                let entry = table.entry(dst).unwrap();
                prop_assert!(entry.dst_seq >= *prev,
                    "stored seq {} regressed below {}", entry.dst_seq, *prev);
            }
        }

        /// Invalidation via a hop only ever *removes* usable routes; it
        /// never manufactures one, and surviving routes avoid the dead hop.
        #[test]
        fn invalidate_via_is_sound(
            ops in proptest::collection::vec((0u16..8, 0u16..8, 1u8..10, 0u32..20), 1..32),
            dead in 0u16..8
        ) {
            let mut table = RouteTable::new();
            let expires = SimTime::from_nanos(1_000_000_000);
            for (dst, hop, hops, seq) in ops {
                table.update(nid(dst), nid(hop), hops, seq, expires);
            }
            let dead = nid(dead);
            table.invalidate_via(dead);
            for i in 0..8u16 {
                if let Some(r) = table.lookup(nid(i), SimTime::ZERO) {
                    prop_assert!(r.next_hop != dead, "route survived via dead hop");
                }
            }
        }
    }
}
