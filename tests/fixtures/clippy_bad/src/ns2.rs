//! A by-name sink that drops `TraceRecord::Orphan` behind a wildcard.

#![deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]

use crate::record::TraceRecord;

pub fn line(record: &TraceRecord) -> String {
    match record {
        TraceRecord::PhyPing { node } => format!("ping {node}"),
        TraceRecord::AgtPong { node } => format!("pong {node}"),
        _ => String::new(),
    }
}
