//! Shared rendering plumbing for the trace sinks.
//!
//! Renders the entries a traced run captured ([`crate::run::Run::capture`])
//! in one of the supported formats (ns-2 trace lines or structured CSV).
//! Everything here returns in-memory strings — file I/O stays in the
//! binaries, on the wall-clock side of the determinism boundary.

use std::fmt::Write as _;

use tracelog::{ns2, TraceEntry};

/// Output format of a rendered capture.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFormat {
    /// ns-2-style wireless trace lines (see [`tracelog::ns2`]).
    Ns2,
    /// Structured CSV: one row per record, common columns only.
    Csv,
}

impl TraceFormat {
    /// Parses a format name as given on a command line.
    pub fn parse(name: &str) -> Result<TraceFormat, String> {
        match name {
            "ns2" => Ok(TraceFormat::Ns2),
            "csv" => Ok(TraceFormat::Csv),
            other => Err(format!("unknown format '{other}' (ns2, csv)")),
        }
    }
}

/// Renders entries as CSV with the common per-record columns:
/// `time_s,op,node,layer,uid,flow`. Uids and flows absent from a record
/// render as `-`; no field ever needs quoting.
pub fn csv(entries: impl IntoIterator<Item = TraceEntry>) -> String {
    let mut out = String::from("time_s,op,node,layer,uid,flow\n");
    for entry in entries {
        let rec = &entry.record;
        let nanos = entry.at.as_nanos();
        let _ = write!(
            out,
            "{}.{:09},{},{},{},",
            nanos / 1_000_000_000,
            nanos % 1_000_000_000,
            rec.direction().ns2_op(),
            rec.node(),
            rec.layer().ns2_tag(),
        );
        match rec.uid() {
            Some(uid) => {
                let _ = write!(out, "{uid},");
            }
            None => out.push_str("-,"),
        }
        match rec.flow() {
            Some(flow) => {
                let _ = writeln!(out, "{flow}");
            }
            None => out.push_str("-\n"),
        }
    }
    out
}

/// Renders entries in the requested format.
pub fn render(entries: impl IntoIterator<Item = TraceEntry>, format: TraceFormat) -> String {
    match format {
        TraceFormat::Ns2 => ns2::render(entries),
        TraceFormat::Csv => csv(entries),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Run;
    use tracelog::{Layer, TraceFilter, TraceLog};

    fn short_log() -> TraceLog {
        let text = "duration 1\ntopology chain:2\nflow 0 2 NewReno\n";
        let run = Run::parse(text).expect("run file parses and names nodes of chain:2");
        run.capture(TraceFilter::all())
    }

    fn short_capture() -> Vec<TraceEntry> {
        short_log().snapshot()
    }

    #[test]
    fn capture_reaches_every_layer() {
        let entries = short_capture();
        for layer in [Layer::Phy, Layer::Mac, Layer::Rtr, Layer::Ifq, Layer::Agt] {
            assert!(
                entries.iter().any(|e| e.record.layer() == layer),
                "no {layer:?} records in a 1 s chain run"
            );
        }
    }

    #[test]
    fn csv_is_rectangular_and_unquoted() {
        let entries = short_capture();
        let text = csv(entries.iter().copied());
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("time_s,op,node,layer,uid,flow"));
        for line in lines {
            assert_eq!(line.split(',').count(), 6, "bad row: {line}");
            assert!(!line.contains('"'));
        }
        assert_eq!(text.lines().count(), entries.len() + 1);
    }

    /// `harness trace --last N` renders `log.iter().skip(len − N)`: the
    /// decoder, resumed past the skipped entries, yields the stored tail.
    #[test]
    fn skipping_the_log_yields_its_last_n() {
        let log = short_log();
        let entries = log.snapshot();
        assert!(entries.len() > 10);
        let kept: Vec<TraceEntry> = log.iter().skip(log.len() - 10).collect();
        assert_eq!(kept, entries[entries.len() - 10..]);
        assert_eq!(log.iter().skip(log.len()).count(), 0);
    }

    #[test]
    fn format_parsing() {
        assert_eq!(TraceFormat::parse("ns2"), Ok(TraceFormat::Ns2));
        assert_eq!(TraceFormat::parse("csv"), Ok(TraceFormat::Csv));
        assert_eq!(TraceFormat::parse("json"), Err("unknown format 'json' (ns2, csv)".into()));
    }
}
