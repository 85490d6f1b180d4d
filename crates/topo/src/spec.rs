//! Declarative topology / mobility specifications.
//!
//! These are the run-level descriptions of *where nodes start*
//! ([`TopologySpec`]) and *how they move* ([`MobilitySpec`]). Both parse
//! from the compact CLI syntax the harness bins accept
//! (`--topology random-disc:100`, `--mobility waypoint:1-20@2`) and render
//! back to it via `Display`.

use std::fmt;

use sim_core::SimDuration;

use crate::{generators, Position};

/// The most nodes a topology may have: `wire::NodeId` is a `u16` whose top
/// value is the broadcast address.
const MAX_NODES: usize = u16::MAX as usize;

/// A generated initial node placement.
///
/// Every variant regenerates bit-identically from `(spec, seed)`, so a
/// topology is fully described by the spec and the run's seed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TopologySpec {
    /// `hops + 1` nodes in a line at 250 m spacing (paper Fig. 5.1).
    Chain {
        /// Number of hops (nodes minus one).
        hops: u16,
    },
    /// Two `hops`-hop chains crossing at their shared centre node, so
    /// `2·hops + 1` nodes at 250 m spacing (paper Fig. 5.15); `hops` is even.
    Cross {
        /// Hops along each arm (nodes per arm minus one).
        hops: u16,
    },
    /// `rows × cols` lattice at 250 m spacing.
    Grid {
        /// Rows.
        rows: u16,
        /// Columns.
        cols: u16,
    },
    /// Uniform random placement in `width_m × height_m`, re-sampled until
    /// connected at the radio's transmission range.
    RandomDisc {
        /// Node count.
        count: u16,
        /// Area width in metres.
        width_m: f64,
        /// Area height in metres.
        height_m: f64,
    },
    /// Manhattan street grid: a node at every intersection plus `extra`
    /// nodes along random streets, blocks 250 m on a side.
    CityBlocks {
        /// City blocks along x.
        blocks_x: u16,
        /// City blocks along y.
        blocks_y: u16,
        /// Extra mid-street nodes beyond the intersections.
        extra: u16,
    },
}

impl Default for TopologySpec {
    fn default() -> Self {
        TopologySpec::Chain { hops: 4 }
    }
}

impl TopologySpec {
    /// A random-disc spec sized by [`generators::dense_side_m`] for the
    /// given count: dense enough for the connectivity retry to converge.
    pub fn random_disc_dense(count: u16, range_m: f64) -> Self {
        let side = generators::dense_side_m(count as usize, range_m);
        TopologySpec::RandomDisc { count, width_m: side, height_m: side }
    }

    /// The number of nodes this spec generates.
    pub fn node_count(&self) -> usize {
        match *self {
            TopologySpec::Chain { hops } => hops as usize + 1,
            TopologySpec::Cross { hops } => 2 * hops as usize + 1,
            TopologySpec::Grid { rows, cols } => rows as usize * cols as usize,
            TopologySpec::RandomDisc { count, .. } => count as usize,
            TopologySpec::CityBlocks { blocks_x, blocks_y, extra } => {
                (blocks_x as usize + 1) * (blocks_y as usize + 1) + extra as usize
            }
        }
    }

    /// The roamable area `(width_m, height_m)`: the placement's bounding
    /// box, floored at one 250 m spacing per axis so degenerate (line)
    /// topologies still give mobility room to move.
    pub fn extent(&self) -> (f64, f64) {
        let s = generators::SPACING_M;
        match *self {
            TopologySpec::Chain { hops } => ((hops as f64 * s).max(s), s),
            // The vertical arm reaches below y = 0; a waypoint walk only
            // needs the box's size.
            TopologySpec::Cross { hops } => (hops as f64 * s, hops as f64 * s),
            TopologySpec::Grid { rows, cols } => {
                (((cols as f64 - 1.0) * s).max(s), ((rows as f64 - 1.0) * s).max(s))
            }
            TopologySpec::RandomDisc { width_m, height_m, .. } => (width_m, height_m),
            TopologySpec::CityBlocks { blocks_x, blocks_y, .. } => {
                (blocks_x as f64 * s, blocks_y as f64 * s)
            }
        }
    }

    /// Generates the placement. `range_m` is the radio transmission range
    /// (used by the random-disc connectivity retry); `seed` drives all
    /// randomness.
    ///
    /// # Errors
    ///
    /// A message naming the spec and the seed when a random placement cannot
    /// be made connected. Every other spec [`Self::parse`] returns places.
    pub fn try_build(&self, range_m: f64, seed: u64) -> Result<Vec<Position>, String> {
        Ok(match *self {
            TopologySpec::Chain { hops } => generators::chain(hops as usize),
            TopologySpec::Cross { hops } => generators::cross(hops as usize),
            TopologySpec::Grid { rows, cols } => generators::grid(rows as usize, cols as usize),
            TopologySpec::RandomDisc { count, width_m, height_m } => {
                let sparse = || {
                    format!("{self} has no connected placement at seed {seed} ({range_m} m range)")
                };
                let placed =
                    generators::random_disc(count as usize, width_m, height_m, range_m, seed);
                placed.ok_or_else(sparse)?
            }
            TopologySpec::CityBlocks { blocks_x, blocks_y, extra } => generators::city_blocks(
                blocks_x as usize,
                blocks_y as usize,
                generators::SPACING_M,
                extra as usize,
                seed,
            ),
        })
    }

    /// [`Self::try_build`] for a spec stated in code, known to place.
    ///
    /// # Panics
    ///
    /// Panics if the spec is degenerate (zero hops/rows/cols/count) or if
    /// a random placement cannot be made connected.
    pub fn build(&self, range_m: f64, seed: u64) -> Vec<Position> {
        self.try_build(range_m, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Parses the CLI syntax:
    ///
    /// * `chain` / `chain:8`
    /// * `cross` / `cross:6` (hops per arm, even)
    /// * `grid` / `grid:4x8` (rows×cols)
    /// * `random-disc` / `random-disc:100` / `random-disc:100@2500x2500`
    /// * `city-blocks` / `city-blocks:4x4@20` (blocks, extra nodes)
    ///
    /// Counts without an explicit area get a density that keeps the
    /// connectivity retry fast (mean degree ~12 at 250 m range).
    ///
    /// # Errors
    ///
    /// A message naming the bad part: unknown family, malformed or zero
    /// count, an odd cross, an area that is not positive and finite, or more nodes than
    /// a `NodeId` can address (65,535).
    pub fn parse(text: &str) -> Result<Self, String> {
        let spec = Self::parse_grammar(text)?;
        if let TopologySpec::RandomDisc { width_m, height_m, .. } = spec {
            let positive = |m: f64| m > 0.0 && m.is_finite();
            if !(positive(width_m) && positive(height_m)) {
                return Err(format!("random-disc area in '{text}' must be positive and finite"));
            }
        }
        if spec.node_count() > MAX_NODES {
            return Err(format!(
                "'{text}' is {} nodes; node ids address at most {MAX_NODES}",
                spec.node_count()
            ));
        }
        Ok(spec)
    }

    fn parse_grammar(text: &str) -> Result<Self, String> {
        let (name, arg) = match text.split_once(':') {
            Some((n, a)) => (n, Some(a)),
            None => (text, None),
        };
        match name {
            "chain" | "cross" => {
                let hops = match arg {
                    Some(a) => parse_u16(a, &format!("{name} hop count"))?,
                    None => 4,
                };
                match name {
                    "chain" => Ok(TopologySpec::Chain { hops }),
                    _ if hops.is_multiple_of(2) => Ok(TopologySpec::Cross { hops }),
                    _ => Err(format!("cross hop count '{hops}' must be even")),
                }
            }
            "grid" => {
                let (rows, cols) = match arg {
                    Some(a) => parse_pair_u16(a, 'x', "grid dimensions")?,
                    None => (5, 5),
                };
                Ok(TopologySpec::Grid { rows, cols })
            }
            "random-disc" => match arg {
                None => Ok(TopologySpec::random_disc_dense(50, generators::SPACING_M)),
                Some(a) => {
                    let (count_text, area) = match a.split_once('@') {
                        Some((c, dims)) => (c, Some(dims)),
                        None => (a, None),
                    };
                    let count = parse_u16(count_text, "random-disc node count")?;
                    match area {
                        None => Ok(TopologySpec::random_disc_dense(count, generators::SPACING_M)),
                        Some(dims) => {
                            let (w, h) = parse_pair_f64(dims, 'x', "random-disc area")?;
                            Ok(TopologySpec::RandomDisc { count, width_m: w, height_m: h })
                        }
                    }
                }
            },
            "city-blocks" => {
                let (blocks, extra) = match arg {
                    None => (("4", "4"), 16),
                    Some(a) => {
                        let (blocks_text, extra_text) = match a.split_once('@') {
                            Some((b, e)) => (b, Some(e)),
                            None => (a, None),
                        };
                        let (bx, by) = match blocks_text.split_once('x') {
                            Some(p) => p,
                            None => return Err("city-blocks wants BXxBY[@EXTRA]".to_string()),
                        };
                        let extra = match extra_text {
                            Some(e) => parse_u16(e, "city-blocks extra node count")?,
                            None => 16,
                        };
                        ((bx, by), extra)
                    }
                };
                Ok(TopologySpec::CityBlocks {
                    blocks_x: parse_u16(blocks.0, "city blocks along x")?,
                    blocks_y: parse_u16(blocks.1, "city blocks along y")?,
                    extra,
                })
            }
            other => Err(format!(
                "unknown topology '{other}' (chain, cross, grid, random-disc, city-blocks)"
            )),
        }
    }
}

impl fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TopologySpec::Chain { hops } => write!(f, "chain:{hops}"),
            TopologySpec::Cross { hops } => write!(f, "cross:{hops}"),
            TopologySpec::Grid { rows, cols } => write!(f, "grid:{rows}x{cols}"),
            TopologySpec::RandomDisc { count, width_m, height_m } => {
                write!(f, "random-disc:{count}@{width_m:.0}x{height_m:.0}")
            }
            TopologySpec::CityBlocks { blocks_x, blocks_y, extra } => {
                write!(f, "city-blocks:{blocks_x}x{blocks_y}@{extra}")
            }
        }
    }
}

/// How nodes move once placed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum MobilitySpec {
    /// Nodes stay where the topology generator put them.
    #[default]
    Static,
    /// Random waypoint over the topology's [`TopologySpec::extent`]:
    /// pick a uniform destination, travel at a uniform speed from
    /// `[min, max]`, pause, repeat.
    Waypoint {
        /// Slowest leg speed, m/s (must be positive).
        min_speed_mps: f64,
        /// Fastest leg speed, m/s.
        max_speed_mps: f64,
        /// Pause at each waypoint before the next leg.
        pause: SimDuration,
    },
}

impl MobilitySpec {
    /// The literature-standard default waypoint model: 1–20 m/s, no pause.
    pub const DEFAULT_WAYPOINT: MobilitySpec = MobilitySpec::Waypoint {
        min_speed_mps: 1.0,
        max_speed_mps: 20.0,
        pause: SimDuration::ZERO,
    };

    /// Parses the CLI syntax:
    ///
    /// * `static`
    /// * `waypoint` (1–20 m/s, no pause)
    /// * `waypoint:5-15` (speed range in m/s)
    /// * `waypoint:5-15@2` (…with a 2 s pause at each waypoint)
    pub fn parse(text: &str) -> Result<Self, String> {
        let (name, arg) = match text.split_once(':') {
            Some((n, a)) => (n, Some(a)),
            None => (text, None),
        };
        match name {
            "static" => Ok(MobilitySpec::Static),
            "waypoint" => {
                let mut spec = (1.0, 20.0, SimDuration::ZERO);
                if let Some(a) = arg {
                    let (speeds, pause_text) = match a.split_once('@') {
                        Some((s, p)) => (s, Some(p)),
                        None => (a, None),
                    };
                    let (lo, hi) = parse_pair_f64(speeds, '-', "waypoint speed range")?;
                    if !(lo > 0.0 && hi >= lo && hi.is_finite()) {
                        return Err(format!("bad waypoint speed range '{speeds}'"));
                    }
                    spec.0 = lo;
                    spec.1 = hi;
                    if let Some(p) = pause_text {
                        spec.2 = SimDuration::parse_secs(p)
                            .map_err(|e| format!("bad waypoint pause '{p}': {e}"))?;
                    }
                }
                Ok(MobilitySpec::Waypoint {
                    min_speed_mps: spec.0,
                    max_speed_mps: spec.1,
                    pause: spec.2,
                })
            }
            other => Err(format!("unknown mobility model '{other}' (static, waypoint)")),
        }
    }
}

impl fmt::Display for MobilitySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MobilitySpec::Static => f.write_str("static"),
            MobilitySpec::Waypoint { min_speed_mps, max_speed_mps, pause } => {
                write!(f, "waypoint:{min_speed_mps}-{max_speed_mps}@{}", pause.as_secs_f64())
            }
        }
    }
}

/// One leg of a scripted waypoint trace: travel to `target` at
/// `speed_mps`, then hold for `pause` before the next leg starts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WaypointLeg {
    /// Where this leg ends.
    pub target: Position,
    /// Travel speed in m/s (must be positive).
    pub speed_mps: f64,
    /// Dwell time at `target` before the next leg.
    pub pause: SimDuration,
}

impl WaypointLeg {
    /// A leg with no pause at its end.
    pub fn to(target: Position, speed_mps: f64) -> Self {
        WaypointLeg { target, speed_mps, pause: SimDuration::ZERO }
    }

    /// Sets the dwell time at the leg's end.
    #[must_use]
    pub fn pausing(mut self, pause: SimDuration) -> Self {
        self.pause = pause;
        self
    }
}

sim_core::snap_record! {
    WaypointLeg { target, speed_mps, pause }
    check |leg| leg.speed_mps > 0.0 && leg.speed_mps.is_finite() => "waypoint leg speed";
}

fn parse_u16(text: &str, what: &str) -> Result<u16, String> {
    match text.parse::<u16>() {
        Ok(v) if v > 0 => Ok(v),
        _ => Err(format!("bad {what} '{text}'")),
    }
}

fn parse_f64(text: &str, what: &str) -> Result<f64, String> {
    text.parse::<f64>().map_err(|_| format!("bad {what} '{text}'"))
}

fn parse_pair_u16(text: &str, sep: char, what: &str) -> Result<(u16, u16), String> {
    match text.split_once(sep) {
        Some((a, b)) => Ok((parse_u16(a, what)?, parse_u16(b, what)?)),
        None => Err(format!("bad {what} '{text}' (want A{sep}B)")),
    }
}

fn parse_pair_f64(text: &str, sep: char, what: &str) -> Result<(f64, f64), String> {
    match text.split_once(sep) {
        Some((a, b)) => Ok((parse_f64(a, what)?, parse_f64(b, what)?)),
        None => Err(format!("bad {what} '{text}' (want A{sep}B)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_parse_round_trips() {
        for text in [
            "chain:8",
            "cross:4",
            "cross:32766",
            "grid:3x4",
            "random-disc:100@2500x2500",
            "city-blocks:4x4@20",
        ] {
            let spec = TopologySpec::parse(text).expect(text);
            assert_eq!(spec.to_string(), text, "round trip {text}");
        }
    }

    #[test]
    fn topology_parse_defaults() {
        assert_eq!(TopologySpec::parse("chain"), Ok(TopologySpec::Chain { hops: 4 }));
        assert_eq!(TopologySpec::parse("grid"), Ok(TopologySpec::Grid { rows: 5, cols: 5 }));
        let disc = TopologySpec::parse("random-disc:100").expect("dense disc");
        match disc {
            TopologySpec::RandomDisc { count, width_m, height_m } => {
                assert_eq!(count, 100);
                assert_eq!(width_m, height_m);
                assert!(width_m > 1000.0, "100 nodes need room: {width_m}");
            }
            other => panic!("wrong spec {other:?}"),
        }
        assert!(TopologySpec::parse("torus").is_err());
        assert!(TopologySpec::parse("chain:0").is_err());
        assert_eq!(TopologySpec::parse("cross"), Ok(TopologySpec::Cross { hops: 4 }));
    }

    #[test]
    fn a_cross_is_even_nonzero_and_addressable() {
        for (text, needle) in [
            ("cross:0", "bad cross hop count"),
            ("cross:3", "must be even"),
            ("cross:65534", "at most 65535"),
            ("cross:-2", "bad cross hop count"),
        ] {
            let err = TopologySpec::parse(text).expect_err(text);
            assert!(err.contains(needle), "{text}: {err}");
        }
        // The largest cross whose nodes a `NodeId` can name.
        assert_eq!(TopologySpec::parse("cross:32766").map(|s| s.node_count()), Ok(65_533));
        let spec = TopologySpec::Cross { hops: 6 };
        assert_eq!(spec.build(250.0, 1), generators::cross(6), "a cross places what it names");
        assert_eq!(spec.extent(), (1500.0, 1500.0));
    }

    #[test]
    fn topology_parse_rejects_what_build_would_panic_on() {
        for area in ["0x0", "-5x10", "NaNxNaN", "infx100", "100x0"] {
            let text = format!("random-disc:50@{area}");
            let err = TopologySpec::parse(&text).expect_err(&text);
            assert!(err.contains("positive and finite"), "{text}: {err}");
        }
        // 90,000 and 65,536 nodes: past what a NodeId can name.
        for text in ["grid:300x300", "city-blocks:300x300", "chain:65535"] {
            let err = TopologySpec::parse(text).expect_err(text);
            assert!(err.contains("at most 65535"), "{text}: {err}");
        }
        assert_eq!(TopologySpec::parse("chain:65534").map(|s| s.node_count()), Ok(MAX_NODES));
    }

    #[test]
    fn topology_specs_build_and_count() {
        for text in ["chain:6", "cross:6", "grid:3x4", "random-disc:30", "city-blocks:3x3@10"] {
            let spec = TopologySpec::parse(text).expect(text);
            let positions = spec.build(250.0, 11);
            assert_eq!(positions.len(), spec.node_count(), "{text}");
            let (w, h) = spec.extent();
            assert!(w >= 250.0 && h >= 250.0, "{text} extent ({w}, {h})");
        }
    }

    #[test]
    fn a_disc_too_sparse_to_connect_is_an_error_naming_spec_and_seed() {
        let spec = TopologySpec::parse("random-disc:40@5000x5000").expect("parses");
        let err = spec.try_build(250.0, 3).expect_err("no connected placement");
        assert!(err.starts_with("random-disc:40@5000x5000 has no connected placement"), "{err}");
        assert!(err.contains("at seed 3 "), "{err}");
    }

    #[test]
    fn mobility_parse() {
        assert_eq!(MobilitySpec::parse("static"), Ok(MobilitySpec::Static));
        assert_eq!(MobilitySpec::parse("waypoint"), Ok(MobilitySpec::DEFAULT_WAYPOINT));
        assert_eq!(
            MobilitySpec::parse("waypoint:5-15@2"),
            Ok(MobilitySpec::Waypoint {
                min_speed_mps: 5.0,
                max_speed_mps: 15.0,
                pause: SimDuration::from_secs(2),
            })
        );
        assert!(MobilitySpec::parse("waypoint:15-5").is_err(), "inverted range");
        assert!(MobilitySpec::parse("waypoint:0-5").is_err(), "zero speed");
        assert!(MobilitySpec::parse("brownian").is_err());
        // A pause past `SimDuration` used to panic inside the parser.
        for pause in ["1e30", "1.9e10", "-1", "NaN", "inf"] {
            assert!(MobilitySpec::parse(&format!("waypoint:1-2@{pause}")).is_err(), "{pause}");
        }
    }

    #[test]
    fn waypoint_leg_codec_rejects_bad_speed() {
        use sim_core::{SnapshotReader, SnapshotWriter, Snapshotable};
        let leg =
            WaypointLeg::to(Position::new(100.0, 200.0), 12.5).pausing(SimDuration::from_secs(3));
        let mut w = SnapshotWriter::new();
        leg.encode(&mut w);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(WaypointLeg::decode(&mut r).expect("decode"), leg);

        let bad = WaypointLeg { speed_mps: 0.0, ..leg };
        let mut w = SnapshotWriter::new();
        bad.encode(&mut w);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes);
        assert!(WaypointLeg::decode(&mut r).is_err());
    }
}
