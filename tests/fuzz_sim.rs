//! Randomised end-to-end robustness: arbitrary connected topologies, flow
//! mixes, loss rates and mobility must never panic the simulator or violate
//! its structural invariants — and every scenario must replay bit-for-bit:
//! each case is run twice and the event-trace digests compared (the
//! twin-run check, see `sim_core::twin_run` and `tests/determinism.rs`).

#![allow(clippy::cast_possible_truncation, reason = "test inputs are small generated values")]

use proptest::prelude::*;
use tcp_muzha::faultline::InvariantChecker;
use tcp_muzha::net::{topology, FlowSpec, SimConfig, Simulator, TcpVariant};
use tcp_muzha::phy::{Position, RadioParams};
use tcp_muzha::sim::SimTime;
use tcp_muzha::tracelog::{Layer, TraceFilter, TraceLog, TraceRecord};
use tcp_muzha::wire::NodeId;

fn variant_from(idx: u8) -> TcpVariant {
    TcpVariant::ALL[idx as usize % TcpVariant::ALL.len()]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case simulates ~2 virtual seconds (twice)
        ..ProptestConfig::default()
    })]

    /// Random connected topology, random flows, random loss: the simulator
    /// completes, stays deterministic, and every flow satisfies
    /// delivered ≤ sent and retransmissions ≤ segments sent.
    #[test]
    fn random_scenarios_uphold_invariants(
        node_count in 3usize..10,
        topo_seed in 0u64..50,
        sim_seed in 0u64..50,
        loss_milli in 0u64..40, // up to 4% frame loss
        flow_picks in proptest::collection::vec((0u8..8, any::<bool>()), 1..4),
        wander in any::<bool>(),
    ) {
        let run_once = || {
            let positions = topology::random_connected(
                node_count,
                700.0,
                700.0,
                250.0,
                topo_seed,
            );
            let radio = RadioParams {
                per_frame_loss: loss_milli as f64 / 1000.0,
                ..RadioParams::default()
            };
            let cfg = SimConfig { seed: sim_seed, ..SimConfig::default() }.with_radio(radio);
            let mut sim = Simulator::new(positions, cfg);
            let mut flows = Vec::new();
            for (i, (vidx, elfn)) in flow_picks.iter().enumerate() {
                let src = NodeId::from_index(i % node_count);
                let dst = NodeId::from_index((i + 1 + node_count / 2) % node_count);
                if src == dst {
                    continue;
                }
                let mut spec = FlowSpec::new(src, dst, variant_from(*vidx));
                if *elfn {
                    spec = spec.with_elfn();
                }
                flows.push(sim.add_flow(spec));
            }
            if wander {
                sim.move_node(NodeId::new(0), Position::new(350.0, 350.0), 40.0);
            }
            sim.install_trace_log(TraceLog::with_filter(TraceFilter::all().layer(Layer::Agt)));
            // Beside a log that keeps one layer in six: the checker is fed
            // every record all the same.
            sim.install_checker(InvariantChecker::new());
            sim.run_until(SimTime::from_secs_f64(2.0));
            (sim, flows)
        };

        // Twin run: the same scenario executed twice must produce the same
        // event trace and the same per-flow counters. Any hash-ordered
        // iteration or unseeded randomness fails the case here even when
        // the structural invariants below still hold.
        let (mut sim, flows) = run_once();
        let (twin, twin_flows) = run_once();
        let log = sim.take_trace_log().expect("log was installed");
        let checker = sim.take_checker().expect("checker was installed");
        prop_assert!(checker.is_clean(), "{:?}", checker.violations());
        let ledger = checker.ledger();
        prop_assert_eq!(
            ledger.injected,
            ledger.delivered + ledger.dropped + ledger.fault_dropped + ledger.in_flight
        );
        prop_assert_eq!(
            sim.trace_hash(),
            twin.trace_hash(),
            "twin runs diverged: same scenario produced different event traces"
        );
        prop_assert_eq!(&flows, &twin_flows);
        for (&flow, &twin_flow) in flows.iter().zip(twin_flows.iter()) {
            let (a, b) = (sim.flow_report(flow), twin.flow_report(twin_flow));
            prop_assert_eq!(a.delivered_segments, b.delivered_segments);
            prop_assert_eq!(a.sender.segments_sent, b.sender.segments_sent);
            prop_assert_eq!(a.sender.retransmissions, b.sender.retransmissions);
        }

        for &flow in &flows {
            let r = sim.flow_report(flow);
            prop_assert!(
                r.delivered_segments <= r.sender.segments_sent,
                "delivered {} > sent {}",
                r.delivered_segments,
                r.sender.segments_sent
            );
            prop_assert!(r.sender.retransmissions <= r.sender.segments_sent);
            // Delivery is a nondecreasing step function: the receiver's
            // successive cumulative ACKs never go back, and end at the count.
            let acks: Vec<u64> = log
                .iter()
                .filter_map(|e| match e.record {
                    TraceRecord::TcpAckTx { flow: f, ack, .. } if f == flow => Some(ack),
                    _ => None,
                })
                .collect();
            prop_assert!(acks.windows(2).all(|pair| pair[0] <= pair[1]), "{:?}", acks);
            prop_assert_eq!(acks.last().copied().unwrap_or(0), r.delivered_segments);
        }
        // Virtual time never exceeds the requested horizon... it equals it.
        prop_assert_eq!(sim.now(), SimTime::from_secs_f64(2.0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10, // each case simulates ~2 virtual seconds across two legs
        ..ProptestConfig::default()
    })]

    /// Whole-simulator snapshot fuzz: random topologies, *all nine* TCP
    /// variants (the twin-run fuzz above stops at 8), both queue
    /// disciplines and delayed ACKs. Mid-run, `restore(snapshot())` into a
    /// fresh simulator must re-encode to byte-identical bytes (pinning
    /// decode(encode(x)) == x for every layer struct a real run reaches),
    /// the resumed run must match the straight run hash for hash, and
    /// truncations of the real snapshot must fail cleanly, never panic.
    #[test]
    fn snapshot_round_trips_random_simulations(
        node_count in 3usize..8,
        topo_seed in 50u64..90,
        sim_seed in 0u64..50,
        use_red in any::<bool>(),
        flow_picks in proptest::collection::vec((0u8..9, any::<bool>()), 1..4),
        cut_seed in any::<u64>(),
    ) {
        use tcp_muzha::net::QueueDiscipline;
        use tcp_muzha::sim::{SnapshotReader, SnapError};

        let build = || {
            let positions = topology::random_connected(
                node_count,
                700.0,
                700.0,
                250.0,
                topo_seed,
            );
            let queue = if use_red {
                QueueDiscipline::Red(tcp_muzha::net::RedConfig::default())
            } else {
                QueueDiscipline::DropTail
            };
            let cfg = SimConfig { seed: sim_seed, queue, ..SimConfig::default() };
            let mut sim = Simulator::new(positions, cfg);
            for (i, (vidx, dack)) in flow_picks.iter().enumerate() {
                let src = NodeId::from_index(i % node_count);
                let dst = NodeId::from_index((i + 1 + node_count / 2) % node_count);
                if src == dst {
                    continue;
                }
                let mut spec = FlowSpec::new(src, dst, variant_from(*vidx));
                if *dack {
                    spec = spec.with_delayed_ack();
                }
                sim.add_flow(spec);
            }
            sim
        };

        let mut straight = build();
        straight.run_until(SimTime::from_secs_f64(1.0));
        let bytes = straight.snapshot();

        // Restore into a fresh twin and re-encode: byte identity pins the
        // round trip of every layer struct this run instantiated.
        let mut resumed = build();
        resumed.restore(&bytes).expect("own snapshot restores");
        prop_assert_eq!(
            resumed.snapshot(),
            bytes.clone(),
            "snapshot → restore → snapshot changed the bytes"
        );

        // The resumed simulator continues bit-identically.
        straight.run_until(SimTime::from_secs_f64(2.0));
        resumed.run_until(SimTime::from_secs_f64(2.0));
        prop_assert_eq!(straight.trace_hash(), resumed.trace_hash());
        prop_assert_eq!(straight.perf(), resumed.perf());

        // Any proper prefix of a real snapshot errors cleanly.
        let cut = (cut_seed % bytes.len() as u64) as usize;
        let mut target = build();
        let err = target.restore(&bytes[..cut]).expect_err("truncated snapshot must not restore");
        prop_assert!(
            matches!(
                err,
                SnapError::Truncated | SnapError::BadMagic | SnapError::Invalid(_)
            ),
            "unexpected truncation error: {err}"
        );

        // A version-bumped header is rejected before any field is read.
        let mut bumped = bytes.clone();
        let version_at = tcp_muzha::sim::SNAPSHOT_MAGIC.len();
        bumped[version_at] = bumped[version_at].wrapping_add(1);
        prop_assert!(matches!(
            target.restore(&bumped),
            Err(SnapError::UnsupportedVersion(_))
        ));
        // Sanity: the reader agrees byte-for-byte with the restore path.
        prop_assert!(SnapshotReader::with_header(&bumped).is_err());

        // And the failed restores left `target` untouched: it still runs
        // from t = 0 to the same straight-run hash.
        target.run_until(SimTime::from_secs_f64(1.0));
        let mut fresh = build();
        fresh.run_until(SimTime::from_secs_f64(1.0));
        prop_assert_eq!(target.trace_hash(), fresh.trace_hash());
    }
}
