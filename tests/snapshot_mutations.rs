//! A snapshot is untrusted input (ROADMAP item 5): whatever bytes `restore`
//! accepts must run without panicking. The probe is a three-hop chain under
//! seed 7 carrying a Muzha flow one way and a SACK flow the other, cut at
//! 2.1 s; every byte of its snapshot is changed by +1, +0x80 and +0xff in
//! turn, restored into a freshly built twin and, if accepted, run on. The
//! cut is an instant at which the one class below is reached (at 2 s no
//! mutant of this run reaches it), so the ratchet counts what it names.
//!
//! The tier-1 form takes every byte of the flow table — each flow's spec and
//! its two endpoint records, where a copy that could disagree with the spec
//! used to live — and every 16th byte of the rest, and runs 0.1 s. The
//! exhaustive form (`--ignored`, run by CI in release) takes every byte and
//! runs 1.5 s; what still panics there is the ratchet: one class, a PHY whose
//! last transmission end the bytes push past the cut with no `TxDone` queued
//! for its node, so its idle MAC transmits over it — an agreement between the
//! PHY record and the event queue, `validate`'s to check, not one record's.

#![allow(clippy::expect_used, reason = "a test helper reports a failure by panicking")]

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use tcp_muzha::net::{topology, FlowSpec, SimConfig, Simulator, TcpVariant};
use tcp_muzha::sim::{SimDuration, SimTime, SnapshotReader, SnapshotWriter};
use tcp_muzha::transport::{Sender, TcpReceiver};
use tcp_muzha::wire::{FlowId, NodeId};

/// The one panic a restored snapshot may still raise.
const PHY_CLASS: &str = "PHY asked to transmit while already transmitting";

/// The probe's two flows, in registration order.
fn flows() -> [FlowSpec; 2] {
    let (a, b) = (NodeId::new(0), NodeId::new(3));
    [FlowSpec::new(a, b, TcpVariant::Muzha), FlowSpec::new(b, a, TcpVariant::Sack)]
}

fn build() -> Simulator {
    let mut sim = Simulator::new(topology::chain(3), SimConfig { seed: 7, ..SimConfig::default() });
    for spec in flows() {
        sim.add_flow(spec);
    }
    sim
}

/// The instant the probe is cut at, and every mutant's run starts from,
/// whatever `now` its bytes say.
const CUT: SimTime = SimTime::from_nanos(2_100_000_000);

fn cut() -> Vec<u8> {
    let mut sim = build();
    sim.run_until(CUT);
    sim.snapshot()
}

/// Where the flow table lies in `bytes`: found by its encoding — the flow
/// count, then the first spec — and measured by the decoders `restore` reads
/// it with, each flow's spec handing its endpoints what they were built with.
fn flow_table(bytes: &[u8]) -> Range<usize> {
    let mut head = SnapshotWriter::new();
    head.put_usize(flows().len());
    head.put(&flows()[0]);
    let head = head.finish();
    let start = (0..bytes.len())
        .find(|&i| bytes[i..].starts_with(&head))
        .expect("the flow table is in the snapshot");
    let mut r = SnapshotReader::new(&bytes[start..]);
    for i in 0..r.take_usize().expect("the count") {
        let id = FlowId::from_index(i);
        let spec: FlowSpec = r.get().expect("a spec");
        let (variant, sack) = (spec.variant, spec.variant == TcpVariant::Sack);
        Sender::decode_state(&mut r, id, variant, spec.tcp, spec.vegas, spec.muzha_cadence)
            .expect("a sender");
        TcpReceiver::decode_state(&mut r, id, sack).expect("a receiver");
    }
    start..bytes.len() - r.remaining()
}

/// What the mutations at `offsets` came to: how many `restore` refused, how
/// many ran on, and the message of each that panicked, with its offset.
#[derive(Debug, Default)]
struct Tally {
    refused: usize,
    ran: usize,
    panicked: Vec<(usize, u8, String)>,
}

fn sweep(bytes: &[u8], offsets: impl Iterator<Item = usize>, resume: SimDuration) -> Tally {
    let (mut tally, end) = (Tally::default(), CUT + resume);
    for at in offsets {
        for delta in [1u8, 0x80, 0xff] {
            let mut mutated = bytes.to_vec();
            mutated[at] = mutated[at].wrapping_add(delta);
            let mut sim = build();
            if sim.restore(&mutated).is_err() {
                tally.refused += 1;
                continue;
            }
            match catch_unwind(AssertUnwindSafe(|| sim.run_until(end))) {
                Ok(()) => tally.ran += 1,
                Err(payload) => {
                    let message = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_default();
                    tally.panicked.push((at, delta, message));
                }
            }
        }
    }
    tally
}

/// The panics of `tally` that are not of the one class still allowed.
fn other_panics(tally: &Tally) -> Vec<&(usize, u8, String)> {
    tally.panicked.iter().filter(|(.., message)| message != PHY_CLASS).collect()
}

#[test]
fn every_flow_table_byte_and_a_sample_of_the_rest_restores_or_runs() {
    let bytes = cut();
    let table = flow_table(&bytes);
    assert!(table.len() > 200, "two specs and four endpoint records: {table:?}");
    let offsets = (0..bytes.len()).filter(|at| table.contains(at) || at % 16 == 0);
    let tally = sweep(&bytes, offsets, SimDuration::from_millis(100));
    assert!(other_panics(&tally).is_empty(), "{:#?}", other_panics(&tally));
    assert!(
        tally.refused > 300 && tally.ran > 1_000,
        "{} refused, {} ran",
        tally.refused,
        tally.ran
    );
}

#[test]
#[ignore = "exhaustive: every byte, 1.5 s each; CI runs it in release"]
fn every_byte_restores_or_runs_but_for_the_phy_class() {
    let bytes = cut();
    let tally = sweep(&bytes, 0..bytes.len(), SimDuration::from_millis(1_500));
    assert!(other_panics(&tally).is_empty(), "{:#?}", other_panics(&tally));
    assert!(tally.panicked.len() <= 14, "the ratchet rose: {:#?}", tally.panicked);
    println!("{} refused, {} ran, {} panicked", tally.refused, tally.ran, tally.panicked.len());
}
