//! The shared radio channel: who hears whom.

use std::mem;

use sim_core::{DetSet, SimDuration};
use topo::SpatialGrid;
use wire::NodeId;

use crate::{Position, RadioParams};

/// The radio channel connecting all nodes.
///
/// Precomputes, for every node, the set of nodes inside its transmission
/// range (potential receivers) and inside its carrier-sense range (nodes
/// whose medium it occupies). Positions can be updated (mobility hook), which
/// updates the adjacency.
///
/// Adjacency is maintained incrementally through a spatial grid: a mutation
/// visits only the moved node's candidate cells and patches the affected
/// peers' rows. Construction and snapshot decode instead rebuild every row
/// from scratch over all pairs; both filter through the *same*
/// squared-distance predicate in the same ascending node order, so the
/// incremental rows always equal a rebuild (the property test below and
/// the snapshot twins pin that).
///
/// Beside each sender's carrier-sense row it keeps a row of [`Link`]s: what
/// a transmission from that sender means to each peer that senses it, as far
/// as that depends on geometry and fault state alone. A third derived cache,
/// built on the sender's first transmission after a mutation touched it
/// ([`Self::take_links`]).
///
/// # Example
///
/// ```
/// use phy::{Channel, Position, RadioParams};
/// use wire::NodeId;
///
/// // A 3-node chain at 250 m spacing: 0 and 2 can't hear each other.
/// let positions = vec![
///     Position::new(0.0, 0.0),
///     Position::new(250.0, 0.0),
///     Position::new(500.0, 0.0),
/// ];
/// let ch = Channel::new(positions, RadioParams::default());
/// assert!(ch.in_rx_range(NodeId::new(0), NodeId::new(1)));
/// assert!(!ch.in_rx_range(NodeId::new(0), NodeId::new(2)));
/// // ...but node 0's transmissions are *sensed* at node 2 (inside 550 m).
/// assert!(ch.in_cs_range(NodeId::new(0), NodeId::new(2)));
/// ```
#[derive(Clone, Debug)]
pub struct Channel {
    params: RadioParams,
    positions: Vec<Position>,
    rx_neighbors: Vec<Vec<NodeId>>,
    cs_neighbors: Vec<Vec<NodeId>>,
    /// Fault-injection: radios administratively switched off (killed nodes).
    disabled: Vec<bool>,
    /// Fault-injection: individual links forced down, stored as normalised
    /// `(min, max)` pairs so `a—b` and `b—a` are the same link.
    blocked: DetSet<(NodeId, NodeId)>,
    /// Cell index over `positions`, cell side = carrier-sense range (the
    /// largest query radius).
    grid: SpatialGrid,
    /// Scratch buffer for grid candidate collection.
    scratch: Vec<usize>,
    /// Scratch rows [`Self::refresh`] fills and swaps with the node's own,
    /// so a position write allocates nothing.
    scratch_rx: Vec<NodeId>,
    scratch_cs: Vec<NodeId>,
    /// One row per sender, parallel to its `cs_neighbors` row while
    /// `links_fresh` says so.
    links: Vec<Vec<Link>>,
    links_fresh: Vec<bool>,
}

/// What a transmission from one node means to one peer inside its
/// carrier-sense range, for as long as neither moves and no fault touches
/// either: everything the per-listener loop of a transmission would
/// otherwise derive from two positions, per frame.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Link {
    /// Relative received power ([`RadioParams::rx_power`] of the distance).
    pub power: f64,
    /// [`RadioParams::propagation_delay`] of the distance, in nanoseconds.
    prop_nanos: u32,
    /// The listener.
    pub peer: NodeId,
    /// Whether the peer can decode the sender ([`Channel::in_rx_range`]);
    /// otherwise it only senses it.
    pub in_rx_range: bool,
}

impl Link {
    /// How long the signal takes to reach the peer.
    #[inline]
    pub fn prop(&self) -> SimDuration {
        SimDuration::from_nanos(u64::from(self.prop_nanos))
    }
}

#[cfg(test)]
thread_local! {
    /// How many link rows this thread's channels have built.
    static LINK_ROWS_BUILT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn link_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Removes `node` from `peer`'s sorted row if present.
fn peer_remove(rows: &mut [Vec<NodeId>], peer: NodeId, node: NodeId) {
    let row = &mut rows[peer.index()];
    if let Ok(at) = row.binary_search(&node) {
        row.remove(at);
    }
}

/// Inserts `node` into `peer`'s sorted row if absent.
fn peer_insert(rows: &mut [Vec<NodeId>], peer: NodeId, node: NodeId) {
    let row = &mut rows[peer.index()];
    if let Err(at) = row.binary_search(&node) {
        row.insert(at, node);
    }
}

/// After `node`'s row changed from `old` to `new`, mirrors the delta onto
/// the affected peers' rows (adjacency is symmetric, so exactly the
/// added/removed peers need `node` inserted/removed). Returns the delta
/// size `|removed| + |added|`.
fn patch_peers(rows: &mut [Vec<NodeId>], node: NodeId, old: &[NodeId], new: &[NodeId]) -> usize {
    let mut churn = 0;
    let (mut oi, mut ni) = (0, 0);
    while oi < old.len() && ni < new.len() {
        if old[oi] == new[ni] {
            oi += 1;
            ni += 1;
        } else if old[oi] < new[ni] {
            peer_remove(rows, old[oi], node);
            churn += 1;
            oi += 1;
        } else {
            peer_insert(rows, new[ni], node);
            churn += 1;
            ni += 1;
        }
    }
    for &gone in &old[oi..] {
        peer_remove(rows, gone, node);
        churn += 1;
    }
    for &fresh in &new[ni..] {
        peer_insert(rows, fresh, node);
        churn += 1;
    }
    churn
}

impl Channel {
    /// Creates a channel for nodes at the given positions.
    ///
    /// # Panics
    ///
    /// Panics if `params` are inconsistent (see [`RadioParams::validate`]).
    pub fn new(positions: Vec<Position>, params: RadioParams) -> Self {
        params.validate();
        let disabled = vec![false; positions.len()];
        Self::assemble(params, positions, disabled, DetSet::new())
    }

    /// A channel in the given state, every derived cache built from it.
    fn assemble(
        params: RadioParams,
        positions: Vec<Position>,
        disabled: Vec<bool>,
        blocked: DetSet<(NodeId, NodeId)>,
    ) -> Self {
        let grid = SpatialGrid::new(params.cs_range_m, &positions);
        let mut ch = Channel {
            params,
            positions,
            rx_neighbors: Vec::new(),
            cs_neighbors: Vec::new(),
            disabled,
            blocked,
            grid,
            scratch: Vec::new(),
            scratch_rx: Vec::new(),
            scratch_cs: Vec::new(),
            links: Vec::new(),
            links_fresh: Vec::new(),
        };
        ch.recompute();
        ch
    }

    /// Number of nodes attached to the channel.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// The radio parameters.
    pub fn params(&self) -> &RadioParams {
        &self.params
    }

    /// A node's position.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn position(&self, node: NodeId) -> Position {
        self.positions[node.index()]
    }

    /// Moves a node and updates adjacency (mobility hook). Returns the
    /// link churn: how many rx/cs entries of the moved node's own rows
    /// changed (peer rows mirror these symmetrically).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_position(&mut self, node: NodeId, position: Position) -> usize {
        self.positions[node.index()] = position;
        self.grid.set(node.index(), position);
        self.refresh(node)
    }

    /// Nodes that can *decode* transmissions from `node` (inside tx range),
    /// excluding the node itself.
    pub fn rx_neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.rx_neighbors[node.index()]
    }

    /// Nodes that *sense* transmissions from `node` (inside carrier-sense
    /// range — a superset of [`Self::rx_neighbors`]), excluding the node
    /// itself.
    pub fn cs_neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.cs_neighbors[node.index()]
    }

    /// Whether `b` can decode `a`'s transmissions.
    pub fn in_rx_range(&self, a: NodeId, b: NodeId) -> bool {
        a != b && self.link_usable(a, b) && self.distance_sq(a, b) <= sq(self.params.tx_range_m)
    }

    /// Whether `b` senses `a`'s transmissions.
    pub fn in_cs_range(&self, a: NodeId, b: NodeId) -> bool {
        a != b && self.link_usable(a, b) && self.distance_sq(a, b) <= sq(self.params.cs_range_m)
    }

    /// Administratively enables or disables a node's radio (fault hook: a
    /// disabled node neither transmits into, nor receives or senses from,
    /// the channel). Updates adjacency; returns the link churn as
    /// [`Self::set_position`] does.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_node_enabled(&mut self, node: NodeId, enabled: bool) -> usize {
        self.disabled[node.index()] = !enabled;
        self.refresh(node)
    }

    /// Whether a node's radio is administratively enabled.
    pub fn is_node_enabled(&self, node: NodeId) -> bool {
        !self.disabled[node.index()]
    }

    /// Forces the (bidirectional) link between `a` and `b` down or back up,
    /// independent of geometry (fault hook: scripted link flaps). Updates
    /// adjacency; returns the link churn as [`Self::set_position`] does.
    pub fn set_link_blocked(&mut self, a: NodeId, b: NodeId, blocked: bool) -> usize {
        if blocked {
            self.blocked.insert(link_key(a, b));
        } else {
            self.blocked.remove(&link_key(a, b));
        }
        self.refresh(a)
    }

    /// Whether the `a`—`b` link is currently forced down.
    pub fn is_link_blocked(&self, a: NodeId, b: NodeId) -> bool {
        self.blocked.contains(&link_key(a, b))
    }

    fn link_usable(&self, a: NodeId, b: NodeId) -> bool {
        !self.disabled[a.index()]
            && !self.disabled[b.index()]
            && !self.blocked.contains(&link_key(a, b))
    }

    /// Distance between two nodes in metres.
    pub fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        self.positions[a.index()].distance_to(self.positions[b.index()])
    }

    fn distance_sq(&self, a: NodeId, b: NodeId) -> f64 {
        self.positions[a.index()].distance_sq_to(self.positions[b.index()])
    }

    /// Takes `sender`'s link row out of the channel — one [`Link`] per member
    /// of [`Self::cs_neighbors`], in that order — building it first if a
    /// mutation touched the sender or one of its peers since it was last
    /// built. The caller hands it back through [`Self::put_links`] before it
    /// mutates the channel; a row never handed back is built again.
    #[inline]
    pub fn take_links(&mut self, sender: NodeId) -> Vec<Link> {
        let i = sender.index();
        let mut row = mem::take(&mut self.links[i]);
        if !mem::take(&mut self.links_fresh[i]) {
            self.build_links(sender, &mut row);
        }
        row
    }

    /// Returns a row [`Self::take_links`] handed out for `sender`.
    #[inline]
    pub fn put_links(&mut self, sender: NodeId, row: Vec<Link>) {
        let i = sender.index();
        self.links[i] = row;
        self.links_fresh[i] = true;
    }

    fn build_links(&self, sender: NodeId, row: &mut Vec<Link>) {
        #[cfg(test)]
        LINK_ROWS_BUILT.with(|built| built.set(built.get() + 1));
        row.clear();
        row.extend(self.cs_neighbors[sender.index()].iter().map(|&peer| {
            let distance = self.distance(sender, peer);
            let prop = RadioParams::propagation_delay(distance).as_nanos();
            Link {
                power: self.params.rx_power(distance),
                // 2³² ns of light is 1.3 million km: no carrier-sense range
                // reaches that far, and one that did would read as that.
                prop_nanos: u32::try_from(prop).unwrap_or(u32::MAX),
                peer,
                in_rx_range: self.in_rx_range(sender, peer),
            }
        }));
    }

    /// Fills `rx` and `cs` with node `i`'s rows by filtering `candidates`
    /// (ascending node indices) through the one squared-distance predicate
    /// every code path shares — this is what makes incremental maintenance
    /// and a full rebuild agree bit-for-bit.
    fn rows_for(&self, i: usize, candidates: &[usize], rx: &mut Vec<NodeId>, cs: &mut Vec<NodeId>) {
        rx.clear();
        cs.clear();
        if self.disabled[i] {
            return;
        }
        let a = NodeId::from_index(i);
        let tx_sq = sq(self.params.tx_range_m);
        let cs_sq = sq(self.params.cs_range_m);
        for &j in candidates {
            if j == i || self.disabled[j] {
                continue;
            }
            let b = NodeId::from_index(j);
            if self.blocked.contains(&link_key(a, b)) {
                continue;
            }
            let d_sq = self.positions[i].distance_sq_to(self.positions[j]);
            if d_sq <= tx_sq {
                rx.push(b);
            }
            if d_sq <= cs_sq {
                cs.push(b);
            }
        }
    }

    /// Full O(N²) adjacency rebuild (construction and decode) — also the
    /// reference the property test checks [`Self::refresh`] against.
    fn recompute(&mut self) {
        let n = self.positions.len();
        let everyone: Vec<usize> = (0..n).collect();
        let mut rx_rows = Vec::with_capacity(n);
        let mut cs_rows = Vec::with_capacity(n);
        for i in 0..n {
            let (mut rx, mut cs) = (Vec::new(), Vec::new());
            self.rows_for(i, &everyone, &mut rx, &mut cs);
            rx_rows.push(rx);
            cs_rows.push(cs);
        }
        self.rx_neighbors = rx_rows;
        self.cs_neighbors = cs_rows;
        self.links.resize_with(n, Vec::new);
        self.links_fresh.clear();
        self.links_fresh.resize(n, false);
    }

    /// Re-derives adjacency after a mutation that only affects pairs
    /// containing `node` (a move, enable/disable, or link block/unblock —
    /// all three predicates are symmetric and localised to such pairs).
    /// Returns the churn of `node`'s own rows.
    ///
    /// This is the one place a position, a `disabled` flag or a `blocked`
    /// pair takes effect, so it is where link rows go stale: `node`'s own,
    /// and — adjacency being symmetric — the row of every peer that sensed
    /// it before (it must leave that row, or sits in it at a new distance)
    /// or senses it now (it must enter).
    fn refresh(&mut self, node: NodeId) -> usize {
        let i = node.index();
        let mut candidates = mem::take(&mut self.scratch);
        let mut new_rx = mem::take(&mut self.scratch_rx);
        let mut new_cs = mem::take(&mut self.scratch_cs);
        self.grid.candidates(self.positions[i], &mut candidates);
        self.rows_for(i, &candidates, &mut new_rx, &mut new_cs);
        self.scratch = candidates;
        // Split borrows: clone nothing, patch peers with the node's own
        // rows out of the table.
        let old_rx = mem::take(&mut self.rx_neighbors[i]);
        let old_cs = mem::take(&mut self.cs_neighbors[i]);
        let churn = patch_peers(&mut self.rx_neighbors, node, &old_rx, &new_rx)
            + patch_peers(&mut self.cs_neighbors, node, &old_cs, &new_cs);
        self.links_fresh[i] = false;
        for peer in old_cs.iter().chain(&new_cs) {
            self.links_fresh[peer.index()] = false;
        }
        self.rx_neighbors[i] = new_rx;
        self.cs_neighbors[i] = new_cs;
        self.scratch_rx = old_rx;
        self.scratch_cs = old_cs;
        churn
    }
}

fn sq(r: f64) -> f64 {
    r * r
}

/// Hand-written: the adjacency rows, the link rows and the grid are derived
/// caches, rebuilt from positions, the radio parameters the decoder is given
/// and the fault state.
impl Channel {
    /// Appends the channel's state — positions, disabled radios, blocked
    /// links — to `w`. The radio parameters are configuration and are not
    /// written.
    pub fn encode_state(&self, w: &mut sim_core::SnapshotWriter) {
        w.put(&self.positions);
        w.put(&self.disabled);
        w.put(&self.blocked);
    }

    /// Rebuilds a channel under `params` from bytes written by
    /// [`Self::encode_state`].
    ///
    /// # Errors
    ///
    /// Any [`sim_core::SnapError`] on truncated or out-of-domain input.
    pub fn decode_state(
        r: &mut sim_core::SnapshotReader<'_>,
        params: RadioParams,
    ) -> Result<Self, sim_core::SnapError> {
        let positions: Vec<Position> = r.get()?;
        let disabled: Vec<bool> = r.get()?;
        let blocked: DetSet<(NodeId, NodeId)> = r.get()?;
        if disabled.len() != positions.len() {
            return Err(sim_core::SnapError::Invalid("channel disabled-flag count"));
        }
        if positions.len() >= usize::from(u16::MAX) {
            return Err(sim_core::SnapError::Invalid("channel node count"));
        }
        Ok(Self::assemble(params, positions, disabled, blocked))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    fn chain(count: usize, spacing: f64) -> Channel {
        let positions = (0..count).map(|i| Position::new(i as f64 * spacing, 0.0)).collect();
        Channel::new(positions, RadioParams::default())
    }

    #[test]
    fn chain_adjacency() {
        let ch = chain(5, 250.0);
        assert_eq!(ch.node_count(), 5);
        // Node 2 decodes only 1 and 3.
        assert_eq!(ch.rx_neighbors(n(2)), &[n(1), n(3)]);
        // ...but senses 0, 1, 3, 4 (500 m <= 550 m).
        assert_eq!(ch.cs_neighbors(n(2)), &[n(0), n(1), n(3), n(4)]);
    }

    #[test]
    fn endpoints_have_fewer_neighbors() {
        let ch = chain(5, 250.0);
        assert_eq!(ch.rx_neighbors(n(0)), &[n(1)]);
        assert_eq!(ch.cs_neighbors(n(0)), &[n(1), n(2)]);
    }

    #[test]
    fn symmetry() {
        let ch = chain(6, 250.0);
        for i in 0..6u16 {
            for j in 0..6u16 {
                if i != j {
                    assert_eq!(ch.in_rx_range(n(i), n(j)), ch.in_rx_range(n(j), n(i)));
                    assert_eq!(ch.in_cs_range(n(i), n(j)), ch.in_cs_range(n(j), n(i)));
                }
            }
        }
    }

    #[test]
    fn rx_implies_cs() {
        let ch = chain(8, 200.0);
        for i in 0..8u16 {
            for &j in ch.rx_neighbors(n(i)) {
                assert!(ch.in_cs_range(n(i), j));
            }
        }
    }

    #[test]
    fn mobility_recomputes() {
        let mut ch = chain(3, 250.0);
        assert!(!ch.in_rx_range(n(0), n(2)));
        ch.set_position(n(2), Position::new(200.0, 0.0));
        assert!(ch.in_rx_range(n(0), n(2)));
        assert_eq!(ch.position(n(2)), Position::new(200.0, 0.0));
    }

    #[test]
    fn move_churn_counts_both_radii() {
        let mut ch = chain(3, 250.0);
        // Moving node 2 next to node 0 gains rx 0 (it already sensed 0) —
        // and keeps 1 in both rows: churn = 1.
        assert_eq!(ch.set_position(n(2), Position::new(200.0, 0.0)), 1);
        // Moving it far away drops rx {0, 1} and cs {0, 1}: churn = 4.
        assert_eq!(ch.set_position(n(2), Position::new(10_000.0, 0.0)), 4);
        // A tiny in-place wiggle changes nothing.
        assert_eq!(ch.set_position(n(2), Position::new(10_000.0, 1.0)), 0);
    }

    #[test]
    fn disabling_a_node_removes_it_from_the_air() {
        let mut ch = chain(3, 250.0);
        ch.set_node_enabled(n(1), false);
        assert!(!ch.is_node_enabled(n(1)));
        assert!(!ch.in_rx_range(n(0), n(1)));
        assert!(!ch.in_cs_range(n(1), n(2)));
        assert!(ch.rx_neighbors(n(0)).is_empty());
        assert!(ch.rx_neighbors(n(1)).is_empty());
        ch.set_node_enabled(n(1), true);
        assert!(ch.in_rx_range(n(0), n(1)));
        assert_eq!(ch.rx_neighbors(n(0)), &[n(1)]);
    }

    #[test]
    fn blocking_a_link_is_bidirectional_and_reversible() {
        let mut ch = chain(3, 250.0);
        ch.set_link_blocked(n(2), n(1), true);
        assert!(ch.is_link_blocked(n(1), n(2)));
        assert!(!ch.in_rx_range(n(1), n(2)));
        assert!(!ch.in_rx_range(n(2), n(1)));
        // The other link is untouched.
        assert!(ch.in_rx_range(n(0), n(1)));
        assert_eq!(ch.rx_neighbors(n(1)), &[n(0)]);
        ch.set_link_blocked(n(1), n(2), false);
        assert_eq!(ch.rx_neighbors(n(1)), &[n(0), n(2)]);
    }

    #[test]
    fn faults_survive_mobility_recompute() {
        let mut ch = chain(3, 250.0);
        ch.set_link_blocked(n(0), n(1), true);
        ch.set_position(n(2), Position::new(400.0, 0.0));
        assert!(!ch.in_rx_range(n(0), n(1)), "block must survive recompute");
    }

    /// `sender`'s link row, taken and handed back.
    pub(super) fn links(ch: &mut Channel, sender: NodeId) -> Vec<Link> {
        let row = ch.take_links(sender);
        let copy = row.clone();
        ch.put_links(sender, row);
        copy
    }

    #[test]
    fn a_link_row_says_what_each_sensing_peer_gets() {
        let mut ch = chain(4, 250.0);
        let row = links(&mut ch, n(1));
        assert_eq!(row.iter().map(|l| l.peer).collect::<Vec<_>>(), ch.cs_neighbors(n(1)));
        let [near, _, far] = row[..] else { panic!("three peers sense node 1, not {row:?}") };
        // 250 m: the edge of the decode range, unit power, 834 ns of light.
        assert!(near.in_rx_range);
        assert_eq!(near.power, 1.0);
        assert_eq!(near.prop(), RadioParams::propagation_delay(250.0));
        assert_eq!(near.prop().as_nanos(), 834);
        // 500 m: sensed only, 1/d⁴ down by sixteen.
        assert!(!far.in_rx_range);
        assert_eq!((far.peer, far.power), (n(3), 1.0 / 16.0));
        assert_eq!(far.prop().as_nanos(), 1_668);
        // A switched-off radio reaches nobody.
        ch.set_node_enabled(n(1), false);
        assert!(links(&mut ch, n(1)).is_empty());
    }

    #[test]
    fn a_link_row_is_built_once_per_mutation_that_touches_it() {
        let built = || LINK_ROWS_BUILT.with(std::cell::Cell::get);
        let mut ch = chain(6, 250.0);
        let start = built();
        let first = links(&mut ch, n(2));
        assert_eq!(built(), start + 1);
        // Asked again with nothing changed: the same row, not a new one.
        assert_eq!(links(&mut ch, n(2)), first);
        assert_eq!(built(), start + 1);
        // Node 5 is 750 m away, beyond carrier sense: its wiggle is not
        // node 2's business.
        ch.set_position(n(5), Position::new(1_250.0, 3.0));
        assert_eq!(links(&mut ch, n(2)), first);
        assert_eq!(built(), start + 1);
        // A peer moves, the link to a peer is cut from either end, a peer
        // dies: each makes the row stale once.
        ch.set_position(n(1), Position::new(251.0, 0.0));
        assert_ne!(links(&mut ch, n(2)), first);
        assert_eq!(built(), start + 2);
        ch.set_link_blocked(n(2), n(3), true);
        assert_eq!(links(&mut ch, n(2)).len(), 3);
        ch.set_link_blocked(n(3), n(2), false);
        assert_eq!(links(&mut ch, n(2)).len(), 4);
        ch.set_node_enabled(n(4), false);
        assert_eq!(links(&mut ch, n(2)).len(), 3);
        assert_eq!(built(), start + 5);
        // A row never handed back is not mistaken for a fresh empty one.
        drop(ch.take_links(n(2)));
        assert_eq!(links(&mut ch, n(2)).len(), 3);
        assert_eq!(built(), start + 6);
    }

    #[test]
    fn node_never_its_own_neighbor() {
        let ch = chain(4, 100.0);
        for i in 0..4u16 {
            assert!(!ch.rx_neighbors(n(i)).contains(&n(i)));
            assert!(!ch.in_rx_range(n(i), n(i)));
        }
    }

    #[test]
    fn snapshot_rebuilds_adjacency_and_rejects_the_old_index_byte() {
        use sim_core::{SnapError, SnapshotReader, SnapshotWriter};
        let positions = (0..6).map(|i| Position::new(i as f64 * 250.0, 0.0)).collect();
        let mut ch = Channel::new(positions, RadioParams::default());
        ch.set_link_blocked(n(0), n(1), true);
        ch.set_node_enabled(n(3), false);
        let mut w = SnapshotWriter::new();
        ch.encode_state(&mut w);
        let mut bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes);
        let back = Channel::decode_state(&mut r, RadioParams::default()).expect("decode");
        assert_eq!(r.finish(), Ok(()));
        for i in 0..6u16 {
            assert_eq!(back.rx_neighbors(n(i)), ch.rx_neighbors(n(i)));
            assert_eq!(back.cs_neighbors(n(i)), ch.cs_neighbors(n(i)));
        }
        assert!(back.is_link_blocked(n(0), n(1)));
        assert!(!back.is_node_enabled(n(3)));
        // Format v3 ended the blob with an index-kind byte; v4 has no field
        // for it, so it is left over rather than silently swallowed.
        bytes.push(1);
        let mut r = SnapshotReader::new(&bytes);
        Channel::decode_state(&mut r, RadioParams::default()).expect("the fields still decode");
        assert_eq!(r.finish(), Err(SnapError::TrailingBytes(1)));
    }
}

#[cfg(test)]
mod grid_differential {
    use super::*;
    use proptest::prelude::*;

    /// Size of the symmetric difference between two ascending-sorted rows.
    fn row_diff(old: &[NodeId], new: &[NodeId]) -> usize {
        let mut churn = 0;
        let (mut oi, mut ni) = (0, 0);
        while oi < old.len() && ni < new.len() {
            if old[oi] == new[ni] {
                oi += 1;
                ni += 1;
            } else if old[oi] < new[ni] {
                churn += 1;
                oi += 1;
            } else {
                churn += 1;
                ni += 1;
            }
        }
        churn + (old.len() - oi) + (new.len() - ni)
    }

    /// What `transmit` worked out per listener per frame before link rows
    /// existed, by the four public calls it made: the oracle the rows are
    /// held to, floats by their bits.
    fn links_from_scratch(ch: &Channel, sender: NodeId) -> Vec<(NodeId, u64, SimDuration, bool)> {
        let listeners = ch.cs_neighbors(sender).iter();
        listeners
            .map(|&peer| {
                let distance = ch.distance(sender, peer);
                let prop = RadioParams::propagation_delay(distance);
                let power = ch.params().rx_power(distance);
                (peer, power.to_bits(), prop, ch.in_rx_range(sender, peer))
            })
            .collect()
    }

    fn links_kept(ch: &mut Channel, sender: NodeId) -> Vec<(NodeId, u64, SimDuration, bool)> {
        let row = super::tests::links(ch, sender);
        row.iter().map(|l| (l.peer, l.power.to_bits(), l.prop(), l.in_rx_range)).collect()
    }

    /// One randomly generated mutation against the channel.
    fn apply(ch: &mut Channel, node_count: usize, op: (u8, usize, usize, f64, f64, u32)) -> usize {
        let (kind, a, b, x, y, _) = op;
        let a = NodeId::from_index(a % node_count);
        let b = NodeId::from_index(b % node_count);
        match kind % 5 {
            0 | 1 => ch.set_position(a, Position::new(x, y)),
            2 => ch.set_node_enabled(a, false),
            3 => ch.set_node_enabled(a, true),
            _ => {
                if a == b {
                    0
                } else {
                    let was = ch.is_link_blocked(a, b);
                    ch.set_link_blocked(a, b, !was)
                }
            }
        }
    }

    proptest! {
        /// Incremental maintenance is a pure accelerator: after any sequence
        /// of moves, node disables/enables and link blocks/unblocks, the
        /// neighbor rows — and the churn reported for every mutation —
        /// equal those of a from-scratch all-pairs rebuild, entry for entry.
        ///
        /// So do the link rows. Each step asks for the rows of a random
        /// subset of senders (the op's last field, a bit per node), so a row
        /// is asked for fresh, one mutation stale and many mutations stale,
        /// after mutations of its own node, of a peer from either end of a
        /// link, and of strangers; the end asks for every sender's.
        #[test]
        fn grid_matches_brute_force(
            starts in proptest::collection::vec((0.0f64..2200.0, 0.0f64..2200.0), 2..24),
            ops in proptest::collection::vec(
                (0u8..5, 0usize..24, 0usize..24, 0.0f64..2200.0, 0.0f64..2200.0, any::<u32>()),
                1..40,
            )
        ) {
            let positions: Vec<Position> =
                starts.iter().map(|&(x, y)| Position::new(x, y)).collect();
            let node_count = positions.len();
            let mut fast = Channel::new(positions, RadioParams::default());
            let mut slow = fast.clone();
            for &op in &ops {
                let fast_churn = apply(&mut fast, node_count, op);
                let before = slow;
                slow = fast.clone();
                slow.recompute();
                // Every mutation reports the churn of its first operand's rows.
                let moved = NodeId::from_index(op.1 % node_count);
                let slow_churn = row_diff(before.rx_neighbors(moved), slow.rx_neighbors(moved))
                    + row_diff(before.cs_neighbors(moved), slow.cs_neighbors(moved));
                prop_assert_eq!(fast_churn, slow_churn, "churn diverged on {:?}", op);
                for i in 0..node_count {
                    let node = NodeId::from_index(i);
                    prop_assert_eq!(
                        fast.rx_neighbors(node),
                        slow.rx_neighbors(node),
                        "rx rows diverged at {} after {:?}",
                        node,
                        op
                    );
                    prop_assert_eq!(
                        fast.cs_neighbors(node),
                        slow.cs_neighbors(node),
                        "cs rows diverged at {} after {:?}",
                        node,
                        op
                    );
                    if op.5 >> i & 1 == 1 {
                        prop_assert_eq!(
                            links_kept(&mut fast, node),
                            links_from_scratch(&slow, node),
                            "link row diverged at {} after {:?}",
                            node,
                            op
                        );
                    }
                }
            }
            for i in 0..node_count {
                let node = NodeId::from_index(i);
                prop_assert_eq!(
                    links_kept(&mut fast, node),
                    links_from_scratch(&slow, node),
                    "link row diverged at {} at the end",
                    node
                );
            }
        }
    }
}
