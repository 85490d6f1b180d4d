//! Topology generators: regular placements and seeded random placements.
//!
//! Everything here is a pure function of its arguments (random placements
//! take an explicit seed), so a topology can be regenerated bit-identically
//! from a `SimConfig` — positions never need to be serialised into
//! scenario scripts.

use sim_core::SimRng;

use crate::Position;

/// Node spacing used throughout the paper: exactly the 250 m transmission
/// range, so each node connects only to its immediate neighbours.
pub const SPACING_M: f64 = 250.0;

/// Mean node degree targeted by [`dense_side_m`]: comfortably above the
/// ~ln N connectivity threshold of a random geometric graph for the node
/// counts we simulate, so [`random_disc`]'s bounded retry succeeds.
const TARGET_MEAN_DEGREE: f64 = 12.0;

/// An `hops`-hop chain: `hops + 1` nodes in a straight line, 250 m apart
/// (paper Fig. 5.1).
///
/// # Example
///
/// ```
/// use topo::generators;
/// let positions = generators::chain(4);
/// assert_eq!(positions.len(), 5);
/// assert_eq!(positions[4].x, 1000.0);
/// ```
///
/// # Panics
///
/// Panics if `hops` is zero.
pub fn chain(hops: usize) -> Vec<Position> {
    assert!(hops > 0, "a chain needs at least one hop");
    (0..=hops).map(|i| Position::new(i as f64 * SPACING_M, 0.0)).collect()
}

/// An `hops`-hop cross: a horizontal and a vertical chain sharing their
/// centre node (paper Fig. 5.15 — 4 hops, 9 nodes, 2 flows). `hops` must
/// be even so the centre lands on a node.
///
/// Node layout: indices `0..=hops` form the horizontal chain (west→east);
/// indices `hops+1 ..= 2*hops` form the vertical chain (north→south),
/// with the centre shared with horizontal node `hops/2`. The vertical arm
/// spans `±hops/2` spacings around y = 0.
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

/// An `rows × cols` grid with 250 m spacing. Node `(r, c)` has index
/// `r * cols + c`.
///
/// # Example
///
/// ```
/// use topo::generators;
/// assert_eq!(generators::grid(3, 4).len(), 12);
/// ```
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn grid(rows: usize, cols: usize) -> Vec<Position> {
    assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
    let mut positions = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            positions.push(Position::new(c as f64 * SPACING_M, r as f64 * SPACING_M));
        }
    }
    positions
}

/// `count` nodes placed uniformly at random in a `width × height` area,
/// re-sampled (up to a bounded number of attempts) until the topology is
/// connected under the given transmission range. Deterministic in `seed`.
///
/// # Panics
///
/// Panics if no connected placement is found within 1000 attempts —
/// choose a denser configuration (see [`dense_side_m`]).
pub fn random_disc(
    count: usize,
    width_m: f64,
    height_m: f64,
    range_m: f64,
    seed: u64,
) -> Vec<Position> {
    assert!(count > 0, "need at least one node");
    let mut rng = SimRng::new(seed);
    for _ in 0..1000 {
        let positions: Vec<Position> = (0..count)
            .map(|_| Position::new(rng.unit_f64() * width_m, rng.unit_f64() * height_m))
            .collect();
        if is_connected(&positions, range_m) {
            return positions;
        }
    }
    panic!("no connected placement found in 1000 attempts; increase density");
}

/// The side of a square area in which `count` uniformly placed nodes with
/// transmission radius `range_m` have a mean degree of ~12 — dense enough
/// that [`random_disc`]'s connectivity retry converges quickly at every
/// node count in the scaling benchmarks, sparse enough to be multi-hop.
pub fn dense_side_m(count: usize, range_m: f64) -> f64 {
    assert!(count > 0 && range_m > 0.0, "need nodes and a positive range");
    let area = count as f64 * std::f64::consts::PI * range_m * range_m / TARGET_MEAN_DEGREE;
    area.sqrt().round()
}

/// A Manhattan street grid of `blocks_x × blocks_y` city blocks with
/// `block_m`-long block sides: one node at every street intersection
/// (the connected backbone) plus `extra` nodes dropped uniformly along
/// randomly chosen streets. Deterministic in `seed`.
///
/// With `block_m` no larger than the transmission range the topology is
/// connected by construction: intersections form a connected lattice and
/// every mid-street node is within half a block of an intersection.
///
/// Intersection `(ix, iy)` has index `iy * (blocks_x + 1) + ix`; the
/// `extra` street nodes follow.
///
/// # Panics
///
/// Panics if either block count is zero or `block_m` is not positive.
#[expect(
    clippy::cast_possible_truncation,
    reason = "block counts come from a u16 spec, so `blocks + 1` fits a u32"
)]
pub fn city_blocks(
    blocks_x: usize,
    blocks_y: usize,
    block_m: f64,
    extra: usize,
    seed: u64,
) -> Vec<Position> {
    assert!(blocks_x > 0 && blocks_y > 0, "need at least one city block per axis");
    assert!(block_m > 0.0 && block_m.is_finite(), "block side must be positive");
    let mut positions = Vec::with_capacity((blocks_x + 1) * (blocks_y + 1) + extra);
    for iy in 0..=blocks_y {
        for ix in 0..=blocks_x {
            positions.push(Position::new(ix as f64 * block_m, iy as f64 * block_m));
        }
    }
    let mut rng = SimRng::new(seed);
    let width = blocks_x as f64 * block_m;
    let height = blocks_y as f64 * block_m;
    for _ in 0..extra {
        let horizontal = rng.below(2) == 0;
        if horizontal {
            let street = rng.below(blocks_y as u32 + 1);
            positions.push(Position::new(rng.unit_f64() * width, street as f64 * block_m));
        } else {
            let street = rng.below(blocks_x as u32 + 1);
            positions.push(Position::new(street as f64 * block_m, rng.unit_f64() * height));
        }
    }
    positions
}

/// Whether the unit-disc graph over `positions` with radius `range_m` is
/// connected.
pub fn is_connected(positions: &[Position], range_m: f64) -> bool {
    if positions.is_empty() {
        return true;
    }
    let n = positions.len();
    let range_sq = range_m * range_m;
    let mut seen = vec![false; n];
    let mut stack = vec![0usize];
    if let Some(first) = seen.first_mut() {
        *first = true;
    }
    let mut visited = 1;
    while let Some(i) = stack.pop() {
        for j in 0..n {
            if !seen[j] && positions[i].distance_sq_to(positions[j]) <= range_sq {
                seen[j] = true;
                visited += 1;
                stack.push(j);
            }
        }
    }
    visited == n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_geometry() {
        let p = chain(8);
        assert_eq!(p.len(), 9);
        for (i, pos) in p.iter().enumerate() {
            assert_eq!(pos.x, i as f64 * 250.0);
            assert_eq!(pos.y, 0.0);
        }
    }

    #[test]
    fn cross_geometry_4_hops() {
        let p = cross(4);
        assert_eq!(p.len(), 9, "paper Fig. 5.15: 9 nodes");
        // Horizontal chain on y = 0.
        for pos in &p[0..=4] {
            assert_eq!(pos.y, 0.0);
        }
        // Vertical nodes share x with the centre (node 2 at x = 500) and
        // span ±500 m, skipping the shared centre.
        for pos in &p[5..9] {
            assert_eq!(pos.x, 500.0);
        }
        let ys: Vec<f64> = p[5..9].iter().map(|q| q.y).collect();
        assert_eq!(ys, vec![500.0, 250.0, -250.0, -500.0]);
        // The vertical flow's path is 5-6-2-7-8, one spacing per hop.
        for (a, b) in [(5, 6), (6, 2), (2, 7), (7, 8)] {
            assert_eq!(p[a].distance_to(p[b]), 250.0);
        }
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_cross_rejected() {
        let _ = cross(3);
    }

    #[test]
    fn grid_geometry() {
        let p = grid(3, 4);
        assert_eq!(p.len(), 12);
        assert_eq!(p[11], Position::new(750.0, 500.0));
        assert!(is_connected(&p, 250.0));
    }

    #[test]
    fn random_disc_is_deterministic_and_connected() {
        let a = random_disc(12, 800.0, 800.0, 250.0, 7);
        let b = random_disc(12, 800.0, 800.0, 250.0, 7);
        assert_eq!(a, b, "same seed, same placement");
        assert!(is_connected(&a, 250.0));
        let c = random_disc(12, 800.0, 800.0, 250.0, 8);
        assert!(a.iter().zip(&c).any(|(x, y)| x != y), "different seeds differ");
    }

    #[test]
    fn dense_side_supports_large_counts() {
        // The density heuristic must let random_disc converge at every
        // node count the scaling benchmark uses.
        for count in [25usize, 100, 400] {
            let side = dense_side_m(count, 250.0);
            let p = random_disc(count, side, side, 250.0, 42);
            assert_eq!(p.len(), count);
            assert!(is_connected(&p, 250.0));
        }
    }

    #[test]
    fn city_blocks_backbone_is_connected() {
        let p = city_blocks(4, 3, 250.0, 25, 9);
        assert_eq!(p.len(), 5 * 4 + 25);
        assert!(is_connected(&p, 250.0), "street grid with 250 m blocks is connected");
        // Every node sits on a street line.
        for pos in &p {
            let on_h_street = (pos.y / 250.0).fract().abs() < 1e-9;
            let on_v_street = (pos.x / 250.0).fract().abs() < 1e-9;
            assert!(on_h_street || on_v_street, "node off the street grid: {pos}");
        }
        let q = city_blocks(4, 3, 250.0, 25, 9);
        assert_eq!(p, q, "deterministic in seed");
    }

    #[test]
    fn connectivity_check() {
        assert!(is_connected(&[], 100.0));
        let split = vec![Position::new(0.0, 0.0), Position::new(1000.0, 0.0)];
        assert!(!is_connected(&split, 250.0));
        let joined =
            vec![Position::new(0.0, 0.0), Position::new(200.0, 0.0), Position::new(400.0, 0.0)];
        assert!(is_connected(&joined, 250.0));
    }

    #[test]
    #[should_panic(expected = "at least one hop")]
    fn zero_chain_rejected() {
        let _ = chain(0);
    }
}
