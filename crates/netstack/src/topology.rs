//! The paper's network topologies.
//!
//! The placements are [`topo::generators`]' own — the chain of Fig. 5.1 and
//! the cross of Fig. 5.15 — re-exported so code that places nodes by hand
//! keeps a single import path; the flow-endpoint helpers live here.

use wire::NodeId;

pub use topo::generators::{chain, cross, random_disc as random_connected};

/// Endpoints of the single flow on a [`chain`].
pub fn chain_flow(hops: usize) -> (NodeId, NodeId) {
    (NodeId::new(0), NodeId::from_index(hops))
}

/// Endpoints of the horizontal flow on a [`cross`] (west → east).
pub fn cross_horizontal_flow(hops: usize) -> (NodeId, NodeId) {
    (NodeId::new(0), NodeId::from_index(hops))
}

/// Endpoints of the vertical flow on a [`cross`] (north → south).
pub fn cross_vertical_flow(hops: usize) -> (NodeId, NodeId) {
    (NodeId::from_index(hops + 1), NodeId::from_index(2 * hops))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_flow_spans_the_chain() {
        assert_eq!(chain(8).len(), 9);
        let (s, d) = chain_flow(8);
        assert_eq!((s.index(), d.index()), (0, 8));
    }

    #[test]
    fn cross_flows_are_node_disjoint_except_centre() {
        let (hs, hd) = cross_horizontal_flow(4);
        let (vs, vd) = cross_vertical_flow(4);
        assert_eq!((hs.index(), hd.index()), (0, 4));
        assert_eq!((vs.index(), vd.index()), (5, 8));
    }
}
