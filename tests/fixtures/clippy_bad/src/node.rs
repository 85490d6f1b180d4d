//! The choke point: it constructs the two wired-up records, so
//! `TraceRecord::Orphan` is the only variant nothing produces.

use crate::record::TraceRecord;

pub fn deliver(out: &mut Vec<TraceRecord>) {
    out.push(TraceRecord::PhyPing { node: 0 });
    out.push(TraceRecord::AgtPong { node: 0 });
}
