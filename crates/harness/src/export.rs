//! CSV export of experiment results, for external plotting.
//!
//! Everything is plain `String`-building — no serialisation dependency —
//! and round-trips through standard CSV readers (no quoting is needed
//! because all emitted fields are numeric or simple identifiers).

use crate::experiments::{ChainSweep, CoexistResult, CwndTrace, DynamicsResult};

/// One `(x, y)` series as two-column CSV with a header.
///
/// # Example
///
/// ```
/// use harness::export::series_csv;
/// let csv = series_csv("time_s", "cwnd", &[(0.0, 1.0), (0.5, 2.0)]);
/// assert_eq!(csv.lines().count(), 3);
/// assert!(csv.starts_with("time_s,cwnd\n"));
/// ```
pub fn series_csv(x_name: &str, y_name: &str, points: &[(f64, f64)]) -> String {
    let mut out = format!("{x_name},{y_name}\n");
    for (x, y) in points {
        out.push_str(&format!("{x},{y}\n"));
    }
    out
}

/// The chain sweep (Figs. 5.8–5.13) as long-format CSV:
/// `window,hops,variant,throughput_kbps,throughput_sd,retransmissions,timeouts`.
pub fn sweep_csv(sweep: &ChainSweep) -> String {
    let mut out = String::from(
        "window,hops,variant,throughput_kbps,throughput_sd,retransmissions,timeouts\n",
    );
    for p in &sweep.points {
        out.push_str(&format!(
            "{},{},{},{:.3},{:.3},{:.2},{:.2}\n",
            p.window,
            p.hops,
            p.variant.name(),
            p.throughput_kbps.mean,
            p.throughput_kbps.std_dev,
            p.retransmissions.mean,
            p.timeouts.mean,
        ));
    }
    out
}

/// The coexistence results (Figs. 5.15–5.18) as CSV:
/// `hops,horizontal,vertical,horiz_kbps,vert_kbps,aggregate_kbps,jain`.
pub fn coexist_csv(result: &CoexistResult) -> String {
    let mut out =
        String::from("hops,horizontal,vertical,horiz_kbps,vert_kbps,aggregate_kbps,jain\n");
    for r in &result.runs {
        out.push_str(&format!(
            "{},{},{},{:.3},{:.3},{:.3},{:.4}\n",
            r.hops,
            r.kind.horizontal.name(),
            r.kind.vertical.name(),
            r.horizontal_kbps.mean,
            r.vertical_kbps.mean,
            r.aggregate_kbps.mean,
            r.fairness.mean,
        ));
    }
    out
}

/// A congestion-window trace (Figs. 5.2–5.7) as CSV, resampled on `step_s`
/// over `[0, until_s)`.
pub fn cwnd_csv(trace: &CwndTrace, step_s: f64, until_s: f64) -> String {
    let pts = trace.resampled(
        sim_core::SimDuration::from_secs_f64(step_s),
        sim_core::SimTime::from_secs_f64(until_s),
    );
    series_csv("time_s", "cwnd", &pts)
}

/// The three-flow dynamics (Figs. 5.19–5.22) as long-format CSV:
/// `flow,time_s,kbps`.
pub fn dynamics_csv(result: &DynamicsResult) -> String {
    let mut out = String::from("flow,time_s,kbps\n");
    for (i, series) in result.series.iter().enumerate() {
        for (t, y) in series {
            out.push_str(&format!("{},{t},{y:.3}\n", i + 1));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::throughput_vs_hops;
    use crate::ExperimentConfig;
    use netstack::{SimConfig, TcpVariant};
    use sim_core::SimDuration;

    #[test]
    fn sweep_csv_has_one_row_per_point() {
        let cfg = ExperimentConfig {
            seeds: vec![11],
            duration: SimDuration::from_secs(3),
            base: SimConfig::default(),
            jobs: 1,
        };
        let sweep = throughput_vs_hops(&[2], &[4, 8], &[TcpVariant::NewReno], &cfg);
        let csv = sweep_csv(&sweep);
        assert_eq!(csv.lines().count(), 1 + sweep.points.len());
        assert!(csv.contains("NewReno"));
        // No quoting needed anywhere.
        assert!(!csv.contains('"'));
    }

    #[test]
    fn series_csv_shape() {
        let csv = series_csv("a", "b", &[(1.0, 2.0)]);
        assert_eq!(csv, "a,b\n1,2\n");
    }
}
