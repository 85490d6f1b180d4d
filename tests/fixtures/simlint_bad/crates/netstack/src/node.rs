//! Fixture: the choke points that produce the two wired-up records, so
//! `TraceRecord::Orphan` is the only variant nothing constructs.

fn deliver(sim: &mut Sim, at: u64) {
    sim.trace(at, TraceRecord::PhyPing { node: 0 });
    sim.trace(at, TraceRecord::AgtPong { node: 0 });
}
