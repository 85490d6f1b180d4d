//! A deterministic spatial grid over node positions.
//!
//! The PHY's neighbor queries are range queries: "which nodes lie within
//! 250 m (tx) / 550 m (carrier sense) of this point?". The grid bins nodes
//! into square cells whose side equals the largest query radius, so any
//! node within range of a point is guaranteed to sit in the 3×3 block of
//! cells around it — a candidate set of O(density) instead of O(N).
//!
//! Determinism: candidate collection sorts the merged cell members into
//! ascending node order before returning, so the result is a pure function
//! of the positions — independent of cell iteration order, insertion
//! history, or rebinning history. The cells themselves live in a
//! [`DetMap`] (BTree-backed) so even debug iteration is stable.

use sim_core::DetMap;

use crate::Position;

/// Spatial hash of node indices into square cells of side `cell_m`.
///
/// # Example
///
/// ```
/// use topo::{Position, SpatialGrid};
/// let positions = vec![
///     Position::new(0.0, 0.0),
///     Position::new(100.0, 0.0),
///     Position::new(5000.0, 5000.0),
/// ];
/// let grid = SpatialGrid::new(550.0, &positions);
/// let mut out = Vec::new();
/// grid.candidates(positions[0], &mut out);
/// assert_eq!(out, vec![0, 1]); // the far node is not a candidate
/// ```
#[derive(Clone, Debug)]
pub struct SpatialGrid {
    cell_m: f64,
    /// Cell coordinate → members, each kept sorted ascending.
    cells: DetMap<(i64, i64), Vec<usize>>,
    /// Per-node current cell (the node's index keys this vector).
    bins: Vec<(i64, i64)>,
}

impl SpatialGrid {
    /// Builds a grid with cells of side `cell_m` over the given positions.
    ///
    /// `cell_m` must be at least the largest radius later queried through
    /// [`Self::candidates`] for the 3×3 candidate block to be a superset
    /// of every in-range node.
    ///
    /// # Panics
    ///
    /// Panics if `cell_m` is not strictly positive and finite.
    pub fn new(cell_m: f64, positions: &[Position]) -> Self {
        assert!(cell_m > 0.0 && cell_m.is_finite(), "grid cell size must be positive and finite");
        let mut grid =
            SpatialGrid { cell_m, cells: DetMap::new(), bins: Vec::with_capacity(positions.len()) };
        for (i, &p) in positions.iter().enumerate() {
            let cell = grid.cell_of(p);
            grid.bins.push(cell);
            // Nodes are inserted in ascending index order, so each cell's
            // member list is born sorted.
            grid.cells.entry(cell).or_default().push(i);
        }
        grid
    }

    /// The cell side length in metres.
    pub fn cell_m(&self) -> f64 {
        self.cell_m
    }

    /// Number of nodes tracked.
    pub fn node_count(&self) -> usize {
        self.bins.len()
    }

    /// The cell coordinate containing `p`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "float-to-int `as` saturates: a far-off position lands in an edge cell"
    )]
    pub fn cell_of(&self, p: Position) -> (i64, i64) {
        ((p.x / self.cell_m).floor() as i64, (p.y / self.cell_m).floor() as i64)
    }

    /// Rebins `node` to its new position. O(log cells + cell size); a
    /// move within the same cell is O(1).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set(&mut self, node: usize, p: Position) {
        let cell = self.cell_of(p);
        let old = self.bins[node];
        if cell == old {
            return;
        }
        let emptied = match self.cells.get_mut(&old) {
            Some(members) => {
                if let Ok(at) = members.binary_search(&node) {
                    members.remove(at);
                }
                members.is_empty()
            }
            None => false,
        };
        if emptied {
            self.cells.remove(&old);
        }
        self.bins[node] = cell;
        let members = self.cells.entry(cell).or_default();
        if let Err(at) = members.binary_search(&node) {
            members.insert(at, node);
        }
    }

    /// Collects into `out` every node binned in the 3×3 block of cells
    /// around `p`, sorted ascending — a superset of all nodes within
    /// `cell_m` metres of `p` (including any node at `p` itself).
    ///
    /// At the saturated edge cells the block is clipped to the cells that
    /// exist, so no cell is visited twice and no offset overflows.
    pub fn candidates(&self, p: Position, out: &mut Vec<usize>) {
        out.clear();
        let (cx, cy) = self.cell_of(p);
        for x in cx.saturating_sub(1)..=cx.saturating_add(1) {
            for y in cy.saturating_sub(1)..=cy.saturating_add(1) {
                if let Some(members) = self.cells.get(&(x, y)) {
                    out.extend_from_slice(members);
                }
            }
        }
        // A node appears in exactly one cell, so this is a disjoint merge:
        // sorting yields ascending node order regardless of which cells
        // contributed, matching the brute-force scan's iteration order.
        out.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[expect(
        clippy::cast_possible_truncation,
        reason = "the same saturating cell arithmetic as `cell_of`"
    )]
    fn brute_candidates(positions: &[Position], p: Position, cell_m: f64) -> Vec<usize> {
        // Reference: every node within the 3×3 cell block, computed per
        // node without the index.
        let cell = |q: Position| ((q.x / cell_m).floor() as i64, (q.y / cell_m).floor() as i64);
        let (cx, cy) = cell(p);
        (0..positions.len())
            .filter(|&i| {
                let (x, y) = cell(positions[i]);
                x.abs_diff(cx) <= 1 && y.abs_diff(cy) <= 1
            })
            .collect()
    }

    #[test]
    fn candidates_cover_all_in_range_nodes() {
        let positions: Vec<Position> = (0..50)
            .map(|i| Position::new((i % 10) as f64 * 200.0, (i / 10) as f64 * 200.0))
            .collect();
        let grid = SpatialGrid::new(550.0, &positions);
        let mut out = Vec::new();
        for &p in &positions {
            grid.candidates(p, &mut out);
            for (i, &q) in positions.iter().enumerate() {
                if p.distance_to(q) <= 550.0 {
                    assert!(out.contains(&i), "in-range node {i} missing from candidates");
                }
            }
            assert_eq!(out, brute_candidates(&positions, p, 550.0));
            assert!(out.windows(2).all(|w| w[0] < w[1]), "candidates sorted and unique");
        }
    }

    #[test]
    fn rebinning_moves_membership() {
        let positions = vec![Position::new(0.0, 0.0), Position::new(10_000.0, 0.0)];
        let mut grid = SpatialGrid::new(550.0, &positions);
        let mut out = Vec::new();
        grid.candidates(positions[0], &mut out);
        assert_eq!(out, vec![0]);
        grid.set(1, Position::new(100.0, 100.0));
        grid.candidates(positions[0], &mut out);
        assert_eq!(out, vec![0, 1]);
        grid.set(1, Position::new(10_000.0, 0.0));
        grid.candidates(positions[0], &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn move_within_cell_is_stable() {
        let positions = vec![Position::new(0.0, 0.0), Position::new(100.0, 0.0)];
        let mut grid = SpatialGrid::new(550.0, &positions);
        grid.set(0, Position::new(50.0, 50.0));
        let mut out = Vec::new();
        grid.candidates(Position::new(0.0, 0.0), &mut out);
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn negative_coordinates_bin_correctly() {
        let positions = vec![Position::new(-10.0, -10.0), Position::new(10.0, 10.0)];
        let grid = SpatialGrid::new(550.0, &positions);
        assert_eq!(grid.cell_of(positions[0]), (-1, -1));
        let mut out = Vec::new();
        grid.candidates(positions[1], &mut out);
        assert_eq!(out, vec![0, 1], "3×3 block spans the origin");
    }

    #[test]
    fn extreme_coordinates_clip_the_block_instead_of_overflowing() {
        // `cell_of` saturates far-off and infinite coordinates to the edge
        // cells and sends NaN to cell 0; the block around an edge cell must
        // neither overflow nor visit that cell twice.
        let extremes =
            [1e300, -1e300, f64::MAX, -f64::MAX, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let mut out = Vec::new();
        for e in extremes {
            for (x, y) in [(0.0, e), (e, 0.0), (e, e)] {
                let positions = vec![
                    Position::new(x, y),
                    Position::new(if x == 0.0 { 100.0 } else { x }, y),
                    Position::new(0.0, 0.0),
                ];
                let mut grid = SpatialGrid::new(550.0, &positions);
                for &p in &positions {
                    grid.candidates(p, &mut out);
                    assert_eq!(out, brute_candidates(&positions, p, 550.0), "at ({x}, {y})");
                    for (i, &q) in positions.iter().enumerate() {
                        if p.distance_to(q) <= 550.0 {
                            assert!(out.contains(&i), "in-range node {i} missing at ({x}, {y})");
                        }
                    }
                }
                grid.set(2, Position::new(x, y));
                grid.candidates(positions[0], &mut out);
                assert_eq!(out, vec![0, 1, 2], "moved next to the extreme pair at ({x}, {y})");
                grid.set(2, Position::new(0.0, 0.0));
                grid.candidates(positions[2], &mut out);
                assert!(out.windows(2).all(|w| w[0] < w[1]), "candidates sorted and unique");
            }
        }
    }
}
