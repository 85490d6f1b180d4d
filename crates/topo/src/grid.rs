//! A deterministic spatial grid over node positions.
//!
//! The PHY's neighbor queries are range queries: "which nodes lie within
//! 250 m (tx) / 550 m (carrier sense) of this point?". The grid bins nodes
//! into square cells whose side equals the largest query radius, so any
//! node within range of a point is guaranteed to sit in the 3×3 block of
//! cells around it — a candidate set of O(density) instead of O(N).
//!
//! The cells are one row-major vector over the box of the cells the initial
//! placement occupies, trimmed to at most [`CELLS_PER_NODE`] cells per node.
//! A position outside the box is binned in the box cell nearest to it, by
//! clamping each cell coordinate onto the box. Clamping is monotone and
//! never widens the gap between two coordinates, so two nodes whose cells
//! are neighbours stay in neighbouring (or the same) cells: the 3×3 block
//! around a clamped cell still holds every node within `cell_m`, and
//! far-off, infinite or NaN coordinates need no case of their own.
//!
//! Determinism: a cell's members are kept in no order (a node is pushed on
//! entry and swap-removed on exit), so [`SpatialGrid::candidates`] returns a
//! set whose order depends on the move history. Callers filter it with a
//! predicate of the two positions alone and sort what survives, which makes
//! their result a pure function of the positions.

use crate::Position;

/// The most cells a grid allocates per node it was built over.
const CELLS_PER_NODE: usize = 4;

/// `v.floor() as i64`, bit for bit, without the call into the C library
/// that `floor` is on a target without SSE4.1: `as` truncates toward zero
/// (and saturates, sending NaN to 0), and a negative value with a
/// fraction is one below its truncation. Below `i64::MIN` the truncation
/// saturates to `i64::MIN` and stays there.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_precision_loss,
    reason = "float-to-int `as` saturates: a far-off position lands in an edge cell; \
              a truncated double converts back exactly"
)]
fn floor_to_i64(v: f64) -> i64 {
    let t = v as i64;
    t.saturating_sub(i64::from(t as f64 > v))
}

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
/// grid.candidates(0, &mut out);
/// out.sort_unstable();
/// assert_eq!(out, vec![0, 1]); // the far node is not a candidate
/// ```
#[derive(Clone, Debug)]
pub struct SpatialGrid {
    cell_m: f64,
    /// The box's lowest and highest cell coordinates on each axis.
    lo: (i64, i64),
    hi: (i64, i64),
    /// The box's width and height in cells, each at least 1.
    cols: usize,
    rows: usize,
    /// Row-major over the box: cell `(lo.0 + c, lo.1 + r)` is
    /// `cells[r * cols + c]`. Members in no order.
    cells: Vec<Vec<usize>>,
    /// Per node, the column and row of its cell.
    bins: Vec<(usize, usize)>,
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
        let mut grid = SpatialGrid {
            cell_m,
            lo: (0, 0),
            hi: (0, 0),
            cols: 1,
            rows: 1,
            cells: Vec::new(),
            bins: Vec::new(),
        };
        let coords: Vec<(i64, i64)> = positions.iter().map(|&p| grid.cell_of(p)).collect();
        if let Some(&first) = coords.first() {
            let (lo, hi) = coords.iter().fold((first, first), |(lo, hi), &(x, y)| {
                ((lo.0.min(x), lo.1.min(y)), (hi.0.max(x), hi.1.max(y)))
            });
            let span = |lo: i64, hi: i64| {
                usize::try_from(hi.abs_diff(lo)).unwrap_or(usize::MAX).saturating_add(1)
            };
            let cap = CELLS_PER_NODE * positions.len();
            grid.cols = span(lo.0, hi.0).min(cap);
            grid.rows = span(lo.1, hi.1).min(cap / grid.cols);
            // A side is at most its span, so the far edge lies in `lo..=hi`.
            let last = |len: usize| i64::try_from(len - 1).unwrap_or(i64::MAX);
            grid.lo = lo;
            grid.hi = (lo.0 + last(grid.cols), lo.1 + last(grid.rows));
        }
        grid.cells = vec![Vec::new(); grid.cols * grid.rows];
        // Same-sized elements: the collect reuses the coordinates' buffer.
        let bins: Vec<(usize, usize)> = coords.into_iter().map(|(x, y)| grid.clamp(x, y)).collect();
        for (i, &(c, r)) in bins.iter().enumerate() {
            grid.cells[r * grid.cols + c].push(i);
        }
        grid.bins = bins;
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

    /// The cell coordinate containing `p`, before clamping onto the box.
    pub fn cell_of(&self, p: Position) -> (i64, i64) {
        (floor_to_i64(p.x / self.cell_m), floor_to_i64(p.y / self.cell_m))
    }

    /// Cell coordinate `(x, y)` clamped onto the box, as a column and a row.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "each offset is clamped into 0..cols or 0..rows, which are usize"
    )]
    fn clamp(&self, x: i64, y: i64) -> (usize, usize) {
        let x = x.clamp(self.lo.0, self.hi.0);
        let y = y.clamp(self.lo.1, self.hi.1);
        ((x - self.lo.0) as usize, (y - self.lo.1) as usize)
    }

    /// Rebins `node` to its new position: O(1) when it stays in its cell,
    /// else O(size of the cell it leaves).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set(&mut self, node: usize, p: Position) {
        let (x, y) = self.cell_of(p);
        let (c, r) = self.clamp(x, y);
        let (oc, or) = self.bins[node];
        if (c, r) == (oc, or) {
            return;
        }
        let members = &mut self.cells[or * self.cols + oc];
        if let Some(at) = members.iter().position(|&m| m == node) {
            members.swap_remove(at);
        }
        self.cells[r * self.cols + c].push(node);
        self.bins[node] = (c, r);
    }

    /// Collects into `out`, in no particular order, every node binned in the
    /// 3×3 block of cells around `node`'s — a superset of all nodes within
    /// `cell_m` metres of the position it was last binned at (`node`
    /// included), each once.
    ///
    /// The block is clipped to the box, so no cell is visited twice.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn candidates(&self, node: usize, out: &mut Vec<usize>) {
        out.clear();
        self.for_each_cell_of_block(node, |members| out.extend_from_slice(members));
    }

    /// Whether nodes `a` and `b` are binned in the same cell.
    ///
    /// # Panics
    ///
    /// Panics if either is out of range.
    pub fn same_cell(&self, a: usize, b: usize) -> bool {
        self.bins[a] == self.bins[b]
    }

    /// Calls `f` with the members of each cell of the 3×3 block around
    /// `node`'s, clipped to the box, row by row: what [`Self::candidates`]
    /// collects, without the copy.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn for_each_cell_of_block<'a>(&'a self, node: usize, f: impl FnMut(&'a [usize])) {
        let (c, r) = self.bins[node];
        self.block_of(c, r, f);
    }

    /// Calls `f` with the members of each occupied cell, and how many
    /// nodes the 3×3 block around that cell holds: the number of
    /// [`Self::candidates`] of each of those members.
    pub fn for_each_cell_with_block_len(&self, mut f: impl FnMut(&[usize], usize)) {
        for (r, row) in self.cells.chunks_exact(self.cols).enumerate() {
            for (c, members) in row.iter().enumerate() {
                if !members.is_empty() {
                    let mut len = 0;
                    self.block_of(c, r, |cell| len += cell.len());
                    f(members, len);
                }
            }
        }
    }

    /// Calls `f` with the members of each cell of the 3×3 block around
    /// column `c`, row `r`, clipped to the box.
    fn block_of<'a>(&'a self, c: usize, r: usize, mut f: impl FnMut(&'a [usize])) {
        let cols = c.saturating_sub(1)..(c + 2).min(self.cols);
        for row in r.saturating_sub(1)..(r + 2).min(self.rows) {
            let base = row * self.cols;
            for members in &self.cells[base + cols.start..base + cols.end] {
                f(members);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `out` from [`SpatialGrid::candidates`], sorted.
    fn sorted_candidates(grid: &SpatialGrid, node: usize) -> Vec<usize> {
        let mut out = Vec::new();
        grid.candidates(node, &mut out);
        out.sort_unstable();
        out
    }

    /// Asserts the grid's contract at `node`, binned at `positions[node]`:
    /// every node within `cell_m` of it is a candidate, and none is one
    /// twice.
    fn assert_covers(grid: &SpatialGrid, positions: &[Position], node: usize) {
        let (p, out) = (positions[node], sorted_candidates(grid, node));
        assert!(out.windows(2).all(|w| w[0] < w[1]), "a candidate twice at {p:?}: {out:?}");
        for (i, &q) in positions.iter().enumerate() {
            if p.distance_to(q) <= grid.cell_m() {
                assert!(out.binary_search(&i).is_ok(), "in-range node {i} missing at {p:?}");
            }
        }
    }

    #[test]
    fn candidates_cover_all_in_range_nodes() {
        let positions: Vec<Position> = (0..50)
            .map(|i| Position::new((i % 10) as f64 * 200.0, (i / 10) as f64 * 200.0))
            .collect();
        let grid = SpatialGrid::new(550.0, &positions);
        for node in 0..positions.len() {
            assert_covers(&grid, &positions, node);
        }
        // 1800 m × 800 m in 550 m cells: a 4×2 box. The corner's block is
        // its 2×2 cells, x and y below 1100 m.
        assert_eq!((grid.cols, grid.rows), (4, 2));
        let corner: Vec<usize> = (0..50).filter(|i| i % 10 <= 5).collect();
        assert_eq!(sorted_candidates(&grid, 0), corner);
    }

    #[test]
    fn floor_to_i64_is_floor_as_i64() {
        let mut values = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0,
            -1.0,
            -1.5,
            2.5e15 + 0.5,
            -2.5e15 - 0.5,
            9.007_199_254_740_993e15,
            -9.007_199_254_740_993e15,
            9.223_372_036_854_775e18,
            -9.223_372_036_854_775e18,
            9.3e18,
            -9.3e18,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut rng = sim_core::SimRng::new(3);
        for _ in 0..10_000 {
            let scale = f64::from(rng.below(64)).exp2();
            values.push((rng.unit_f64() - 0.5) * scale);
            values.push(f64::from_bits(rng.next_u64()));
        }
        for v in values {
            #[expect(clippy::cast_possible_truncation, reason = "the reference being matched")]
            let want = v.floor() as i64;
            assert_eq!(floor_to_i64(v), want, "{v:e}");
        }
    }

    #[test]
    fn rebinning_moves_membership() {
        let positions = vec![Position::new(0.0, 0.0), Position::new(10_000.0, 0.0)];
        let mut grid = SpatialGrid::new(550.0, &positions);
        assert_eq!(sorted_candidates(&grid, 0), [0]);
        grid.set(1, Position::new(100.0, 100.0));
        assert_eq!(sorted_candidates(&grid, 0), [0, 1]);
        grid.set(1, Position::new(10_000.0, 0.0));
        assert_eq!(sorted_candidates(&grid, 0), [0]);
    }

    #[test]
    fn move_within_cell_is_stable() {
        let positions = vec![Position::new(0.0, 0.0), Position::new(100.0, 0.0)];
        let mut grid = SpatialGrid::new(550.0, &positions);
        grid.set(0, Position::new(50.0, 50.0));
        assert_eq!(sorted_candidates(&grid, 0), [0, 1]);
    }

    #[test]
    fn negative_coordinates_bin_correctly() {
        let positions = vec![Position::new(-10.0, -10.0), Position::new(10.0, 10.0)];
        let grid = SpatialGrid::new(550.0, &positions);
        assert_eq!(grid.cell_of(positions[0]), (-1, -1));
        assert_eq!(sorted_candidates(&grid, 1), [0, 1], "3×3 block spans the origin");
    }

    #[test]
    fn no_placement_allocates_more_than_its_share_of_cells() {
        // A diagonal line 550 m a step spans 40×40 cells, two nodes 1e300 m
        // apart about 10^297 on a side: the width is cut first.
        let diagonal: Vec<Position> =
            (0..40).map(|i| Position::new(f64::from(i) * 550.0, f64::from(i) * 550.0)).collect();
        let apart = [Position::new(0.0, 0.0), Position::new(1e300, -1e300)];
        for (positions, shape) in [(&diagonal[..], (40, 4)), (&apart[..], (8, 1))] {
            let grid = SpatialGrid::new(550.0, positions);
            assert_eq!((grid.cols, grid.rows), shape);
            assert_eq!(grid.cells.len(), CELLS_PER_NODE * positions.len());
            for node in 0..positions.len() {
                assert_covers(&grid, positions, node);
            }
        }
        assert_eq!(SpatialGrid::new(550.0, &[]).cells.len(), 1);
    }

    #[test]
    fn extreme_coordinates_clamp_onto_the_box() {
        // `cell_of` saturates far-off and infinite coordinates to the edge
        // cells and sends NaN to cell 0; clamping puts each in a box cell.
        let extremes =
            [1e300, -1e300, f64::MAX, -f64::MAX, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        for e in extremes {
            for (x, y) in [(0.0, e), (e, 0.0), (e, e)] {
                let mut positions = vec![
                    Position::new(x, y),
                    Position::new(if x == 0.0 { 100.0 } else { x }, y),
                    Position::new(0.0, 0.0),
                ];
                let mut grid = SpatialGrid::new(550.0, &positions);
                for node in 0..3 {
                    assert_covers(&grid, &positions, node);
                }
                positions[2] = Position::new(x, y);
                grid.set(2, positions[2]);
                assert_eq!(sorted_candidates(&grid, 0), [0, 1, 2], "at ({x}, {y})");
                positions[2] = Position::new(0.0, 0.0);
                grid.set(2, positions[2]);
                assert_covers(&grid, &positions, 2);
            }
        }
    }

    /// A coordinate for the property test: mostly inside a 2.2 km square,
    /// sometimes up to 3.3 km past either edge, 1e300 m outside it,
    /// infinite or NaN.
    fn coordinate(kind: u8, v: f64) -> f64 {
        match kind % 16 {
            0 | 6 => v * 4.0 - 3300.0,
            1 => v * 1e297,
            2 => -v * 1e297,
            3 => f64::INFINITY,
            4 => f64::NEG_INFINITY,
            5 => f64::NAN,
            _ => v,
        }
    }

    proptest! {
        /// On any placement, after any sequence of moves — out of the box,
        /// to ±1e300, to ±∞ and to NaN — every node within `cell_m` of a
        /// node's position is a candidate of that node, and no candidate
        /// comes twice. The starts lie in the square, so the box has rows
        /// and columns to leave, and in half the cases one more node starts
        /// anywhere `coordinate` reaches.
        #[test]
        fn candidates_cover_every_node_in_range_once(
            starts in proptest::collection::vec((0.0f64..2200.0, 0.0f64..2200.0), 1..24),
            stray in (any::<u8>(), 0.0f64..2200.0, any::<u8>(), 0.0f64..2200.0, any::<bool>()),
            moves in proptest::collection::vec(
                (0usize..25, any::<u8>(), 0.0f64..2200.0, any::<u8>(), 0.0f64..2200.0),
                0..40,
            ),
        ) {
            let point = |kx, x, ky, y| Position::new(coordinate(kx, x), coordinate(ky, y));
            let mut positions: Vec<Position> =
                starts.iter().map(|&(x, y)| Position::new(x, y)).collect();
            let (kx, x, ky, y, strays) = stray;
            if strays {
                positions.push(point(kx, x, ky, y));
            }
            let mut grid = SpatialGrid::new(550.0, &positions);
            prop_assert!(grid.cells.len() <= CELLS_PER_NODE * positions.len());
            for node in 0..positions.len() {
                assert_covers(&grid, &positions, node);
            }
            for &(node, kx, x, ky, y) in &moves {
                let node = node % positions.len();
                positions[node] = point(kx, x, ky, y);
                grid.set(node, positions[node]);
                for node in 0..positions.len() {
                    assert_covers(&grid, &positions, node);
                }
            }
        }
    }
}
