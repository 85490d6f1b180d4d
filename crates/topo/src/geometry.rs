//! Node placement geometry.

use std::fmt;

/// A node's position on the plane, in metres.
///
/// # Example
///
/// ```
/// use topo::Position;
/// let a = Position::new(0.0, 0.0);
/// let b = Position::new(3.0, 4.0);
/// assert_eq!(a.distance_to(b), 5.0);
/// assert_eq!(a.distance_sq_to(b), 25.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Position {
    /// X coordinate in metres.
    pub x: f64,
    /// Y coordinate in metres.
    pub y: f64,
}

impl Position {
    /// Creates a position.
    pub const fn new(x: f64, y: f64) -> Self {
        Position { x, y }
    }

    /// Euclidean distance to `other` in metres.
    pub fn distance_to(self, other: Position) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx.hypot(dy)
    }

    /// Squared Euclidean distance to `other`, in metres².
    ///
    /// Range checks compare this against a squared radius, skipping the
    /// square root on the hot path. All range predicates in the workspace
    /// must use this one form so that every code path (brute-force or
    /// grid-indexed) agrees bit-for-bit on adjacency.
    pub fn distance_sq_to(self, other: Position) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }
}

sim_core::snap_record! { Position { x, y } }

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}, {:.1})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric_and_zero_to_self() {
        let a = Position::new(1.0, 2.0);
        let b = Position::new(4.0, 6.0);
        assert_eq!(a.distance_to(b), b.distance_to(a));
        assert_eq!(a.distance_to(a), 0.0);
        assert_eq!(a.distance_to(b), 5.0);
    }

    #[test]
    fn squared_distance_matches_on_exact_grid_multiples() {
        // Paper topologies sit on exact 250 m multiples whose squares are
        // exactly representable, so `d <= r` and `d² <= r²` agree.
        for spacing in [100.0, 200.0, 250.0, 500.0] {
            let a = Position::new(0.0, 0.0);
            let b = Position::new(spacing, 0.0);
            for range in [250.0, 550.0] {
                assert_eq!(
                    a.distance_to(b) <= range,
                    a.distance_sq_to(b) <= range * range,
                    "spacing {spacing} range {range}"
                );
            }
        }
    }

    #[test]
    fn display() {
        assert_eq!(Position::new(250.0, 0.0).to_string(), "(250.0, 0.0)");
    }
}
