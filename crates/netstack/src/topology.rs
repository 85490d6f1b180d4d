//! The paper's network topologies.
//!
//! The generic placements are [`topo::generators`]' own, re-exported so
//! harness code keeps a single import path; the paper-specific cross and
//! parallel-chain layouts and the flow-endpoint helpers live here.

use phy::Position;
use wire::NodeId;

pub use topo::generators::{chain, grid, is_connected, random_disc as random_connected, SPACING_M};

/// Endpoints of the single flow on a [`chain`].
pub fn chain_flow(hops: usize) -> (NodeId, NodeId) {
    (NodeId::new(0), NodeId::new(hops as u16))
}

/// An `hops`-hop cross: a horizontal and a vertical chain sharing their
/// centre node (paper Fig. 5.15 — 4 hops, 9 nodes, 2 flows). `hops` must
/// be even so the centre lands on a node.
///
/// Node layout: indices `0..=hops` form the horizontal chain (west→east);
/// indices `hops+1 ..= 2*hops` form the vertical chain (north→south),
/// with the centre shared with horizontal node `hops/2`.
///
/// # Example
///
/// ```
/// use netstack::topology;
/// let positions = topology::cross(4);
/// assert_eq!(positions.len(), 9); // 2*(4+1) - 1 shared centre
/// ```
///
/// # Panics
///
/// Panics if `hops` is zero or odd.
pub fn cross(hops: usize) -> Vec<Position> {
    assert!(hops > 0 && hops.is_multiple_of(2), "cross topology needs an even, positive hop count");
    let mut positions = chain(hops);
    let centre_x = (hops / 2) as f64 * SPACING_M;
    for j in 0..=hops {
        if j == hops / 2 {
            continue; // shared centre node
        }
        let y = (hops / 2) as f64 * SPACING_M - j as f64 * SPACING_M;
        positions.push(Position::new(centre_x, y));
    }
    positions
}

/// Endpoints of the horizontal flow on a [`cross`] (west → east).
pub fn cross_horizontal_flow(hops: usize) -> (NodeId, NodeId) {
    (NodeId::new(0), NodeId::new(hops as u16))
}

/// Endpoints of the vertical flow on a [`cross`] (north → south).
pub fn cross_vertical_flow(hops: usize) -> (NodeId, NodeId) {
    let first_vertical = hops as u16 + 1;
    let last_vertical = 2 * hops as u16;
    (NodeId::new(first_vertical), NodeId::new(last_vertical))
}

/// The node at grid coordinate `(row, col)` of a [`grid`] with `cols`
/// columns.
pub fn grid_node(row: usize, col: usize, cols: usize) -> NodeId {
    NodeId::new((row * cols + col) as u16)
}

/// `count` parallel `hops`-hop chains stacked 500 m apart (outside
/// receive range but inside carrier-sense/interference range of their
/// neighbours) — the classic inter-flow interference scenario.
///
/// Chain `k`'s nodes are indices `k*(hops+1) ..= k*(hops+1)+hops`.
///
/// # Panics
///
/// Panics if `count` or `hops` is zero.
pub fn parallel_chains(count: usize, hops: usize) -> Vec<Position> {
    assert!(count > 0, "need at least one chain");
    assert!(hops > 0, "a chain needs at least one hop");
    let mut positions = Vec::new();
    for k in 0..count {
        let y = k as f64 * 2.0 * SPACING_M;
        for i in 0..=hops {
            positions.push(Position::new(i as f64 * SPACING_M, y));
        }
    }
    positions
}

/// Endpoints of chain `k`'s flow on [`parallel_chains`].
pub fn parallel_chain_flow(k: usize, hops: usize) -> (NodeId, NodeId) {
    let base = (k * (hops + 1)) as u16;
    (NodeId::new(base), NodeId::new(base + hops as u16))
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
    fn cross_geometry_4_hops() {
        let p = cross(4);
        assert_eq!(p.len(), 9, "paper Fig. 5.15: 9 nodes");
        // Horizontal chain on y = 0.
        for pos in &p[0..=4] {
            assert_eq!(pos.y, 0.0);
        }
        // Vertical nodes share x with the centre (node 2 at x = 500).
        for pos in &p[5..9] {
            assert_eq!(pos.x, 500.0);
        }
        // Vertical chain spans ±500 m, skipping the shared centre.
        let ys: Vec<f64> = p[5..9].iter().map(|q| q.y).collect();
        assert_eq!(ys, vec![500.0, 250.0, -250.0, -500.0]);
    }

    #[test]
    fn cross_flows_are_node_disjoint_except_centre() {
        let (hs, hd) = cross_horizontal_flow(4);
        let (vs, vd) = cross_vertical_flow(4);
        assert_eq!((hs.index(), hd.index()), (0, 4));
        assert_eq!((vs.index(), vd.index()), (5, 8));
    }

    #[test]
    fn cross_vertical_adjacency() {
        // Nodes 5(y=500) and 6(y=250) are 250 m apart; node 6 and the
        // centre (2, y=0) likewise; the flow path is 5-6-2-7-8.
        let p = cross(4);
        assert_eq!(p[5].distance_to(p[6]), 250.0);
        assert_eq!(p[6].distance_to(p[2]), 250.0);
        assert_eq!(p[2].distance_to(p[7]), 250.0);
        assert_eq!(p[7].distance_to(p[8]), 250.0);
    }

    #[test]
    fn grid_geometry() {
        let p = grid(3, 4);
        assert_eq!(p.len(), 12);
        assert_eq!(p[grid_node(2, 3, 4).index()], Position::new(750.0, 500.0));
        assert_eq!(p[0], Position::new(0.0, 0.0));
        assert!(is_connected(&p, 250.0));
    }

    #[test]
    fn parallel_chains_geometry() {
        let p = parallel_chains(3, 4);
        assert_eq!(p.len(), 15);
        let (s, d) = parallel_chain_flow(1, 4);
        assert_eq!(p[s.index()], Position::new(0.0, 500.0));
        assert_eq!(p[d.index()], Position::new(1000.0, 500.0));
        // Chains are out of receive range of each other...
        assert!(p[0].distance_to(p[5]) > 250.0);
        // ...but within carrier-sense range (550 m).
        assert!(p[0].distance_to(p[5]) <= 550.0);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_cross_rejected() {
        let _ = cross(3);
    }
}
