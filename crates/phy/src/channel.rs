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
/// peers' rows. Construction and snapshot decode instead build every row
/// from scratch, testing each unordered pair in one grid block once. Both
/// paths ask the one pair predicate (`link_between`) and produce ascending
/// rows, so the incremental rows always equal a rebuild (the property tests
/// below, held to an all-pairs scan, and the snapshot twins pin that).
///
/// Beside each sender's carrier-sense row it keeps a [`LinkRow`]: what a
/// transmission from that sender means to each peer that senses it, as far
/// as that depends on geometry and fault state alone, and the order in which
/// its signal reaches them. A third derived cache, built on the sender's
/// first transmission after a mutation touched it ([`Self::take_links`]).
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
    /// One row per sender, parallel to its `cs_neighbors` row while the
    /// row says it is fresh.
    links: Vec<LinkRow>,
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

/// A sender's [`Link`]s and the order in which its signal reaches them.
///
/// Built and staled as one: the order is a function of the links, so it is
/// sorted once per rebuild and read once per frame, where the trailing edges
/// of one frame are filed in the order they arrive.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LinkRow {
    links: Vec<Link>,
    /// Positions in `links` sorted by `(prop, position)`. A carrier-sense
    /// row holds at most 65,535 peers: a [`NodeId`] is 16 bits and the
    /// sender is not its own peer.
    by_delay: Vec<u16>,
    /// Whether the row was built since a mutation last touched the sender
    /// or a peer; a row taken out leaves a stale default in its place.
    fresh: bool,
}

impl LinkRow {
    /// One [`Link`] per member of the sender's carrier-sense row, in that
    /// order.
    #[inline]
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The links with their positions in [`Self::links`], by propagation
    /// delay and, between equal delays, by position: for one frame, the order
    /// of its edges' `(time, seq)` keys when each peer's seqs follow its
    /// position.
    #[inline]
    pub fn in_delay_order(&self) -> impl Iterator<Item = (usize, &Link)> + '_ {
        self.by_delay.iter().map(|&at| {
            let at = usize::from(at);
            (at, &self.links[at])
        })
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

/// Pushes `j` onto the row of each peer in `rows[j]`, all of which lie
/// below `j`.
fn mirror_below(rows: &mut [Vec<NodeId>], j: usize) {
    let (below, from) = rows.split_at_mut(j);
    let node = NodeId::from_index(j);
    for peer in &from[0] {
        below[peer.index()].push(node);
    }
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
    /// of [`Self::cs_neighbors`], in that order, and their delay order —
    /// building it first if a mutation touched the sender or one of its peers
    /// since it was last built. The caller hands it back through
    /// [`Self::put_links`] before it mutates the channel; a row never handed
    /// back is built again.
    #[inline]
    pub fn take_links(&mut self, sender: NodeId) -> LinkRow {
        let i = sender.index();
        let mut row = mem::take(&mut self.links[i]);
        if !row.fresh {
            self.build_links(sender, &mut row);
        }
        row
    }

    /// Returns a row [`Self::take_links`] handed out for `sender`.
    #[inline]
    pub fn put_links(&mut self, sender: NodeId, row: LinkRow) {
        self.links[sender.index()] = LinkRow { fresh: true, ..row };
    }

    fn build_links(&self, sender: NodeId, row: &mut LinkRow) {
        #[cfg(test)]
        LINK_ROWS_BUILT.with(|built| built.set(built.get() + 1));
        let LinkRow { links, by_delay, .. } = row;
        links.clear();
        links.extend(self.cs_neighbors[sender.index()].iter().map(|&peer| {
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
        by_delay.clear();
        by_delay.extend((0..=u16::MAX).take(links.len()));
        by_delay.sort_unstable_by_key(|&at| (links[usize::from(at)].prop_nanos, at));
    }

    /// The one pair predicate both row builders share: `None` if `i` and `j`
    /// do not sense each other, else whether they also decode each other.
    /// Distance goes first: it is the cheapest test and rejects most pairs.
    /// Symmetric in `i` and `j`, bit for bit (IEEE subtraction negates
    /// exactly), which is what lets [`Self::recompute`] test a pair once.
    ///
    /// Forced inline: with the `blocked` lookup inside it is too large for
    /// the inliner, and a call per pair cost a tenth of the city's set-up.
    #[inline(always)]
    fn link_between(&self, i: usize, j: usize) -> Option<bool> {
        let d_sq = self.positions[i].distance_sq_to(self.positions[j]);
        let sensed = d_sq <= sq(self.params.cs_range_m)
            && self.link_usable(NodeId::from_index(i), NodeId::from_index(j));
        sensed.then(|| d_sq <= sq(self.params.tx_range_m))
    }

    /// Fills `rx` and `cs` with node `i`'s rows by filtering `candidates`
    /// (node indices in any order, each once) through
    /// [`Self::link_between`], then sorting what passed: the incremental
    /// half of the maintenance, which [`Self::recompute`]'s rows are the
    /// reference for. Sorting after the filter sorts a row, not the larger
    /// candidate block.
    ///
    /// First `candidates` is narrowed, in place and without a branch, to
    /// those within carrier-sense range of `i`: the predicate's own first
    /// test, on the same operands, which about two thirds of a city
    /// node's candidates fail and no branch predictor guesses.
    fn rows_for(
        &self,
        i: usize,
        candidates: &mut Vec<usize>,
        rx: &mut Vec<NodeId>,
        cs: &mut Vec<NodeId>,
    ) {
        let (here, cs_sq) = (self.positions[i], sq(self.params.cs_range_m));
        let mut kept = 0;
        for at in 0..candidates.len() {
            let j = candidates[at];
            candidates[kept] = j;
            kept += usize::from(here.distance_sq_to(self.positions[j]) <= cs_sq);
        }
        candidates.truncate(kept);
        rx.clear();
        cs.clear();
        for &j in candidates.iter() {
            if j == i {
                continue;
            }
            if let Some(decodes) = self.link_between(i, j) {
                let b = NodeId::from_index(j);
                if decodes {
                    rx.push(b);
                }
                cs.push(b);
            }
        }
        rx.sort_unstable();
        cs.sort_unstable();
    }

    /// Full adjacency rebuild (construction and decode). Each row is
    /// allocated once, with room for every other node of its grid block,
    /// and each pair that shares a block is tested once, from its lower
    /// end, with no sort:
    ///
    /// - The nodes are taken in runs of consecutive indices binned in one
    ///   cell, runs ascending. A run's block is walked once, and each
    ///   member `c` is tested against the run's nodes `j < c`, ascending;
    ///   a link pushes `j` onto `c`'s rows.
    /// - Then each `j` of the run, ascending, is pushed onto the rows of
    ///   its peers below it — which `j`'s row now holds, and nothing else.
    ///
    /// Every push onto a row pushes a larger index than the one before,
    /// so every row comes out ascending: [`Self::rows_for`] over `0..n`.
    fn recompute(&mut self) {
        let n = self.positions.len();
        let (mut rx_rows, mut cs_rows) = (vec![Vec::new(); n], vec![Vec::new(); n]);
        self.grid.for_each_cell_with_block_len(|members, block| {
            for &m in members {
                rx_rows[m] = Vec::with_capacity(block - 1);
                cs_rows[m] = Vec::with_capacity(block - 1);
            }
        });
        let mut start = 0;
        while start < n {
            let mut end = start + 1;
            while end < n && self.grid.same_cell(start, end) {
                end += 1;
            }
            self.grid.for_each_cell_of_block(start, |members| {
                for &c in members {
                    for j in start..end.min(c) {
                        if let Some(decodes) = self.link_between(j, c) {
                            let node = NodeId::from_index(j);
                            if decodes {
                                rx_rows[c].push(node);
                            }
                            cs_rows[c].push(node);
                        }
                    }
                }
            });
            for j in start..end {
                mirror_below(&mut rx_rows, j);
                mirror_below(&mut cs_rows, j);
            }
            start = end;
        }
        self.rx_neighbors = rx_rows;
        self.cs_neighbors = cs_rows;
        self.links.clear();
        self.links.resize_with(n, LinkRow::default);
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
        self.grid.candidates(i, &mut candidates);
        self.rows_for(i, &mut candidates, &mut new_rx, &mut new_cs);
        self.scratch = candidates;
        // Split borrows: clone nothing, patch peers with the node's own
        // rows out of the table.
        let old_rx = mem::take(&mut self.rx_neighbors[i]);
        let old_cs = mem::take(&mut self.cs_neighbors[i]);
        let churn = patch_peers(&mut self.rx_neighbors, node, &old_rx, &new_rx)
            + patch_peers(&mut self.cs_neighbors, node, &old_cs, &new_cs);
        self.links[i].fresh = false;
        for peer in old_cs.iter().chain(&new_cs) {
            self.links[peer.index()].fresh = false;
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
    fn both_ranges_include_their_edge() {
        // 275 m spacing: 0 and 2 are exactly 550 m apart, 0 and 1 beyond 250.
        let ch = chain(3, 275.0);
        assert_eq!(ch.cs_neighbors(n(0)), &[n(1), n(2)]);
        assert!(ch.rx_neighbors(n(0)).is_empty());
        assert_eq!(chain(2, 250.0).rx_neighbors(n(0)), &[n(1)]);
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
    pub(super) fn link_row(ch: &mut Channel, sender: NodeId) -> LinkRow {
        let row = ch.take_links(sender);
        let copy = row.clone();
        ch.put_links(sender, row);
        copy
    }

    /// `sender`'s links, taken and handed back.
    fn links(ch: &mut Channel, sender: NodeId) -> Vec<Link> {
        link_row(ch, sender).links
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

    /// Every node's rx and cs rows as an all-pairs scan over the public
    /// state finds them, peers ascending: the reference both row builders
    /// are held to, sharing no code with either.
    pub(super) fn all_pairs_rows(ch: &Channel) -> (Vec<Vec<NodeId>>, Vec<Vec<NodeId>>) {
        let count = ch.node_count();
        let (mut rx, mut cs) = (vec![Vec::new(); count], vec![Vec::new(); count]);
        let (tx_sq, cs_sq) = (sq(ch.params().tx_range_m), sq(ch.params().cs_range_m));
        for i in 0..count {
            for j in (0..count).filter(|&j| j != i) {
                let (a, b) = (NodeId::from_index(i), NodeId::from_index(j));
                let up =
                    ch.is_node_enabled(a) && ch.is_node_enabled(b) && !ch.is_link_blocked(a, b);
                let d_sq = ch.position(a).distance_sq_to(ch.position(b));
                if up && d_sq <= tx_sq {
                    rx[i].push(b);
                }
                if up && d_sq <= cs_sq {
                    cs[i].push(b);
                }
            }
        }
        (rx, cs)
    }

    /// Every row equals the all-pairs scan's.
    fn assert_rows_rebuild(ch: &Channel) {
        let (rx, cs) = all_pairs_rows(ch);
        for i in 0..ch.node_count() {
            let node = NodeId::from_index(i);
            assert_eq!(ch.rx_neighbors(node), &rx[i][..]);
            assert_eq!(ch.cs_neighbors(node), &cs[i][..]);
        }
    }

    #[test]
    fn extreme_positions_neither_panic_nor_lose_a_link() {
        // A decoded `Position` is any `f64`: moves to the edge of the grid's
        // cell range must not overflow its arithmetic, and a pair 100 m
        // apart out there is still a link (infinite coordinates have no
        // distance, so theirs is not).
        let mut ch = chain(3, 250.0);
        for e in [1e300, -1e300, f64::MAX, -f64::MAX, f64::INFINITY, f64::NEG_INFINITY] {
            for (p1, p2) in [
                (Position::new(0.0, e), Position::new(100.0, e)),
                (Position::new(e, 0.0), Position::new(e, 100.0)),
            ] {
                ch.set_position(n(1), p1);
                ch.set_position(n(2), p2);
                let linked: &[NodeId] = if e.is_finite() { &[n(2)] } else { &[] };
                assert_eq!(ch.rx_neighbors(n(1)), linked, "at {p1:?}");
                assert!(ch.cs_neighbors(n(0)).is_empty(), "at {p1:?}");
                assert_rows_rebuild(&ch);
            }
        }
    }

    #[test]
    fn a_nan_node_is_in_no_row() {
        // Placed at NaN, moved to a number, another moved to NaN: while a
        // coordinate is NaN the node senses nobody and nobody senses it
        // (rx rows are subsets of cs rows).
        let isolated = |ch: &Channel, k: u16| {
            ch.cs_neighbors(n(k)).is_empty()
                && (0..4).all(|i| !ch.cs_neighbors(n(i)).contains(&n(k)))
        };
        let mut positions: Vec<Position> =
            (0..4).map(|i| Position::new(f64::from(i) * 100.0, 0.0)).collect();
        positions[1] = Position::new(f64::NAN, 0.0);
        let mut ch = Channel::new(positions, RadioParams::default());
        assert!(isolated(&ch, 1));
        assert_eq!(ch.cs_neighbors(n(0)), &[n(2), n(3)]);
        ch.set_position(n(1), Position::new(100.0, 0.0));
        assert_eq!(ch.cs_neighbors(n(1)), &[n(0), n(2), n(3)]);
        ch.set_position(n(2), Position::new(200.0, f64::NAN));
        assert!(isolated(&ch, 2));
        assert_rows_rebuild(&ch);
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

    /// Links as the oracle spells them: peer, power's bits, delay, decodes.
    type Spelled = Vec<(NodeId, u64, SimDuration, bool)>;

    /// What `transmit` worked out per listener per frame before link rows
    /// existed, by the four public calls it made, for the listeners in
    /// `row`: the oracle the rows are held to, floats by their bits.
    fn links_from_scratch(ch: &Channel, sender: NodeId, row: &[NodeId]) -> Spelled {
        row.iter()
            .map(|&peer| {
                let distance = ch.distance(sender, peer);
                let prop = RadioParams::propagation_delay(distance);
                let power = ch.params().rx_power(distance);
                (peer, power.to_bits(), prop, ch.in_rx_range(sender, peer))
            })
            .collect()
    }

    /// `sender`'s kept row as [`links_from_scratch`] spells it, in row
    /// order, then in the row's own delay order.
    fn links_kept(ch: &mut Channel, sender: NodeId) -> (Spelled, Spelled) {
        let row = super::tests::link_row(ch, sender);
        let spell = |l: &Link| (l.peer, l.power.to_bits(), l.prop(), l.in_rx_range);
        (
            row.links().iter().map(spell).collect(),
            row.in_delay_order().map(|(_, l)| spell(l)).collect(),
        )
    }

    /// [`links_from_scratch`], and the same links sorted afresh by
    /// `(prop, row position)`: the delay order a kept row must carry.
    fn links_and_order_from_scratch(
        ch: &Channel,
        sender: NodeId,
        row: &[NodeId],
    ) -> (Spelled, Spelled) {
        let row = links_from_scratch(ch, sender, row);
        let mut by_delay: Vec<usize> = (0..row.len()).collect();
        by_delay.sort_by_key(|&at| (row[at].2, at));
        let order = by_delay.iter().map(|&at| row[at]).collect();
        (row, order)
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

    /// A placement biased to where `<=` and the grid's cell edges decide:
    /// each node is uniform, coincident with an earlier node, exactly 250 m
    /// or 550 m from one (along an axis or a 3-4-5 diagonal), on a cell
    /// boundary on one or both axes, or on a 250 m lattice (where many
    /// pairs tie at 250 m and 500 m, and lattice points coincide).
    /// Coordinates are whole metres, so every one of those distances is
    /// exact.
    fn placement(specs: &[(u8, usize, u32, u32)]) -> Vec<Position> {
        let boundary = |v: f64| (v / 550.0).floor() * 550.0;
        let mut out: Vec<Position> = Vec::with_capacity(specs.len());
        for &(kind, of, x, y) in specs {
            let (x, y) = (f64::from(x), f64::from(y));
            let base = out.get(of % out.len().max(1)).copied().unwrap_or(Position::new(x, y));
            out.push(match kind % 9 {
                0 => Position::new(x, y),
                1 => base,
                2 => Position::new(base.x + 250.0, base.y),
                3 => Position::new(base.x - 150.0, base.y + 200.0),
                4 => Position::new(base.x, base.y - 550.0),
                5 => Position::new(base.x + 330.0, base.y + 440.0),
                6 => Position::new(boundary(x), y),
                7 => Position::new(boundary(x), boundary(y)),
                _ => Position::new((x / 250.0).floor() * 250.0, (y / 250.0).floor() * 250.0),
            });
        }
        out
    }

    /// Every row equals the all-pairs scan's.
    fn rows_are_the_full_scan(ch: &Channel) {
        let (rx, cs) = super::tests::all_pairs_rows(ch);
        for i in 0..ch.node_count() {
            let node = NodeId::from_index(i);
            prop_assert_eq!(ch.rx_neighbors(node), &rx[i][..], "rx row of {}", node);
            prop_assert_eq!(ch.cs_neighbors(node), &cs[i][..], "cs row of {}", node);
        }
    }

    /// Switches off the radios `off` picks (two bits a node, a quarter of
    /// them) and cuts the links `cuts` names, most of them links that exist;
    /// returns the channel decoded from the state that leaves, after
    /// checking it holds the same rows and radios.
    fn cut_and_decode(ch: &mut Channel, off: u64, cuts: &[(usize, usize)]) -> Channel {
        use sim_core::{SnapshotReader, SnapshotWriter};
        let count = ch.node_count();
        let quarter = |i: usize| (off >> (2 * i % 64)) & 3 == 0;
        for i in (0..count).filter(|&i| quarter(i)) {
            ch.set_node_enabled(NodeId::from_index(i), false);
        }
        for &(a, k) in cuts {
            let a = NodeId::from_index(a % count);
            let peers = ch.cs_neighbors(a);
            let b = match peers.len() {
                0 => NodeId::from_index(k % count),
                len => peers[k % len],
            };
            if a != b {
                ch.set_link_blocked(a, b, true);
            }
        }
        let mut w = SnapshotWriter::new();
        ch.encode_state(&mut w);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes);
        let decoded =
            Channel::decode_state(&mut r, RadioParams::default()).expect("own bytes decode");
        for i in 0..count {
            let node = NodeId::from_index(i);
            prop_assert_eq!(decoded.rx_neighbors(node), ch.rx_neighbors(node));
            prop_assert_eq!(decoded.cs_neighbors(node), ch.cs_neighbors(node));
            prop_assert_eq!(decoded.is_node_enabled(node), ch.is_node_enabled(node));
        }
        decoded
    }

    proptest! {
        /// The pair-once build is the all-pairs scan, entry for entry: on a
        /// fresh channel, and on one decoded from the state a channel was
        /// mutated into (a random quarter of the radios off, random links
        /// cut, most of them links that exist), whose patched rows it must
        /// also equal.
        #[test]
        fn recompute_equals_the_full_scan_and_the_patched_rows(
            specs in proptest::collection::vec(
                (any::<u8>(), any::<usize>(), 0u32..2200, 0u32..2200),
                2..32,
            ),
            off in any::<u64>(),
            cuts in proptest::collection::vec((any::<usize>(), any::<usize>()), 0..12),
        ) {
            let mut ch = Channel::new(placement(&specs), RadioParams::default());
            rows_are_the_full_scan(&ch);
            rows_are_the_full_scan(&cut_and_decode(&mut ch, off, &cuts));
        }

        /// The same at a few hundred nodes over many cells, with one to
        /// three outliers at least 200 km out on one axis or both: the
        /// cells the placement spans are more than `CELLS_PER_NODE` (4) a
        /// node, so the grid trims its box and clamps the rest onto its
        /// edge, and blocks hold nodes far out of range.
        #[test]
        fn recompute_at_scale_equals_the_full_scan(
            specs in proptest::collection::vec(
                (any::<u8>(), any::<usize>(), 0u32..8800, 0u32..8800),
                200..400,
            ),
            far in proptest::collection::vec((any::<u8>(), 0u32..200_000, 0u32..200_000), 1..4),
            off in any::<u64>(),
            cuts in proptest::collection::vec((any::<usize>(), any::<usize>()), 0..40),
        ) {
            let mut positions = placement(&specs);
            for &(kind, x, y) in &far {
                let out = |v: u32, sign: u8| {
                    let v = 200_000.0 + f64::from(v);
                    if sign & 1 == 0 { v } else { -v }
                };
                positions.push(match kind % 3 {
                    0 => Position::new(out(x, kind >> 2), f64::from(y % 8800)),
                    1 => Position::new(f64::from(x % 8800), out(y, kind >> 3)),
                    _ => Position::new(out(x, kind >> 2), out(y, kind >> 3)),
                });
            }
            let span = |v: fn(&Position) -> f64| {
                let (lo, hi) = positions.iter().map(v).fold((f64::MAX, f64::MIN), |(lo, hi), v| {
                    (lo.min(v), hi.max(v))
                });
                ((hi - lo) / 550.0).floor() + 1.0
            };
            let cells = span(|p| p.x) * span(|p| p.y);
            prop_assert!(cells > 4.0 * positions.len() as f64, "{} cells untrimmed", cells);
            let mut ch = Channel::new(positions, RadioParams::default());
            rows_are_the_full_scan(&ch);
            rows_are_the_full_scan(&cut_and_decode(&mut ch, off, &cuts));
        }

        /// Incremental maintenance is a pure accelerator: after any sequence
        /// of moves, node disables/enables and link blocks/unblocks, the
        /// neighbor rows — and the churn reported for every mutation —
        /// equal those of an all-pairs scan of the state, entry for entry
        /// (and so do the rows the channel is built with).
        /// Moves reach kilometres past the box the starts span, so the grid
        /// bins nodes in clamped edge cells. A twin that is now and then
        /// replaced by a channel decoded from the run's bytes (whose grid is
        /// built over the positions of that moment) takes the same
        /// mutations and must report the same churn and rows.
        ///
        /// So do the link rows, and each row's delay order equals a fresh
        /// sort of the scanned row by `(prop, row position)`. Each step asks
        /// for the rows of a random subset of senders (the op's last field, a
        /// bit per node), so a row is asked for fresh, one mutation stale and
        /// many mutations stale, after mutations of its own node, of a peer
        /// from either end of a link, and of strangers; the end asks for
        /// every sender's.
        #[test]
        fn grid_matches_brute_force(
            starts in proptest::collection::vec((0.0f64..2200.0, 0.0f64..2200.0), 2..24),
            ops in proptest::collection::vec(
                (
                    0u8..5,
                    0usize..24,
                    0usize..24,
                    -3000.0f64..6000.0,
                    -3000.0f64..6000.0,
                    any::<u32>(),
                ),
                1..40,
            )
        ) {
            use sim_core::{SnapshotReader, SnapshotWriter};
            let decoded = |ch: &Channel| {
                let mut w = SnapshotWriter::new();
                ch.encode_state(&mut w);
                let bytes = w.finish();
                Channel::decode_state(&mut SnapshotReader::new(&bytes), RadioParams::default())
                    .expect("own bytes decode")
            };
            let positions: Vec<Position> =
                starts.iter().map(|&(x, y)| Position::new(x, y)).collect();
            let node_count = positions.len();
            let mut fast = Channel::new(positions, RadioParams::default());
            rows_are_the_full_scan(&fast);
            let (mut rx, mut cs) = super::tests::all_pairs_rows(&fast);
            let mut twin = fast.clone();
            for &op in &ops {
                let fast_churn = apply(&mut fast, node_count, op);
                let twin_churn = apply(&mut twin, node_count, op);
                prop_assert_eq!(twin_churn, fast_churn, "twin churn on {:?}", op);
                let (rx_before, cs_before) = (rx, cs);
                (rx, cs) = super::tests::all_pairs_rows(&fast);
                // Every mutation reports the churn of its first operand's rows.
                let moved = op.1 % node_count;
                let slow_churn = row_diff(&rx_before[moved], &rx[moved])
                    + row_diff(&cs_before[moved], &cs[moved]);
                prop_assert_eq!(fast_churn, slow_churn, "churn diverged on {:?}", op);
                for i in 0..node_count {
                    let node = NodeId::from_index(i);
                    prop_assert_eq!(
                        fast.rx_neighbors(node),
                        &rx[i][..],
                        "rx rows diverged at {} after {:?}",
                        node,
                        op
                    );
                    prop_assert_eq!(
                        fast.cs_neighbors(node),
                        &cs[i][..],
                        "cs rows diverged at {} after {:?}",
                        node,
                        op
                    );
                    prop_assert_eq!(twin.rx_neighbors(node), fast.rx_neighbors(node));
                    prop_assert_eq!(twin.cs_neighbors(node), fast.cs_neighbors(node));
                    if op.5 >> i & 1 == 1 {
                        prop_assert_eq!(
                            links_kept(&mut fast, node),
                            links_and_order_from_scratch(&fast, node, &cs[i]),
                            "link row diverged at {} after {:?}",
                            node,
                            op
                        );
                    }
                }
                if op.5 >> 31 == 1 {
                    twin = decoded(&fast);
                }
            }
            for (i, row) in cs.iter().enumerate() {
                let node = NodeId::from_index(i);
                prop_assert_eq!(
                    links_kept(&mut fast, node),
                    links_and_order_from_scratch(&fast, node, row),
                    "link row diverged at {} at the end",
                    node
                );
            }
        }
    }
}
