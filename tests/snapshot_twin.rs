//! The snapshot/restore honesty gate: for every script in the scenario
//! corpus, a run snapshotted at a pseudo-random mid-run instant T and
//! resumed in a *fresh* simulator must be indistinguishable from the
//! straight run — equal `trace_hash`, equal `RunPerf`, and a byte-identical
//! ns-2 trace stream for the resumed suffix. Any layer state the snapshot
//! forgot to carry (a stale timer slot, an un-reset RTO backoff, a dangling
//! DOOR recovery point) shows up here as a hash divergence.
//!
//! The twin is also the end-to-end differential for the two derived
//! structures a snapshot does *not* carry: `restore` lays the calendar
//! queue out afresh from the canonical `(time, seq)` entries and rebuilds
//! the PHY adjacency from scratch over all pairs, while the straight leg
//! keeps the bucket layout and the incrementally patched rows it has
//! accumulated since t = 0. Equal hashes mean neither history leaks into
//! behaviour.

#![allow(clippy::expect_used, reason = "a test helper reports a failure by panicking")]

use tcp_muzha::faultline::InvariantChecker;
use tcp_muzha::net::{
    topology, FlowSpec, MobilitySpec, SimConfig, Simulator, TcpVariant, TopologySpec,
};
use tcp_muzha::run::{farthest_pair, Run};
use tcp_muzha::sim::{SimTime, SnapError, TraceHash, SNAPSHOT_MAGIC};
use tracelog::{ns2, TraceEntry, TraceLog};

/// The corpus, embedded like `tests/scenario_corpus.rs` embeds it.
const CORPUS: [(&str, &str); 8] = [
    ("chain-break", include_str!("scenarios/chain-break.scn")),
    ("relay-crash", include_str!("scenarios/relay-crash.scn")),
    ("bursty-channel", include_str!("scenarios/bursty-channel.scn")),
    ("blackhole-window", include_str!("scenarios/blackhole-window.scn")),
    ("partition-heal", include_str!("scenarios/partition-heal.scn")),
    ("pause-resume", include_str!("scenarios/pause-resume.scn")),
    ("queue-squeeze", include_str!("scenarios/queue-squeeze.scn")),
    ("storm", include_str!("scenarios/storm.scn")),
];

/// The run a corpus script states. Its simulator has the faults scheduled:
/// the straight leg runs it, the resumed leg overwrites it — faults and all —
/// via `restore`.
fn run_of(text: &str) -> Run {
    Run::parse(text).expect("corpus scripts parse and name nodes of their topology")
}

/// A deterministic pseudo-random snapshot instant in the middle 80% of the
/// run, derived from the scenario name so every corpus entry gets a
/// different T and reruns are reproducible.
fn snapshot_instant(name: &str, duration_ns: u64) -> SimTime {
    let mut h = TraceHash::new();
    h.write_str(name);
    let lo = duration_ns / 10;
    let span = duration_ns - 2 * lo;
    SimTime::from_nanos(lo + h.digest() % span.max(1))
}

/// ns-2 rendering of the log entries strictly after `t` (the straight
/// run's resumable suffix).
fn suffix_stream(log: &TraceLog, t: SimTime) -> String {
    ns2::render(log.iter().filter(|e| e.at > t))
}

#[test]
fn snapshot_then_resume_is_bit_identical_across_the_corpus() {
    for (name, text) in CORPUS {
        let run =
            Run::parse(text).unwrap_or_else(|e| panic!("scenario {name} failed to parse: {e}"));
        let end = run.end();
        let t = snapshot_instant(name, run.duration.as_nanos());

        // Straight leg: run to T, snapshot (a pure observation), then
        // run on to the end of the scripted duration.
        let mut straight = run.build();
        straight.install_trace_log(TraceLog::new());
        straight.run_until(t);
        let bytes = straight.snapshot();
        straight.run_until(end);
        let straight_log = straight.take_trace_log().expect("log was installed");

        // Resumed leg: a fresh simulator restored from T (the snapshot
        // carries the scripted faults and replaces the freshly loaded ones).
        let mut resumed = run.build();
        resumed.restore(&bytes).unwrap_or_else(|e| panic!("{name}: restore at {t} failed: {e}"));
        resumed.install_trace_log(TraceLog::new());
        resumed.run_until(end);
        let resumed_log = resumed.take_trace_log().expect("log was installed");

        assert_eq!(
            straight.trace_hash(),
            resumed.trace_hash(),
            "{name}: trace hash diverged after resume at {t}"
        );
        assert_eq!(straight.perf(), resumed.perf(), "{name}: RunPerf diverged after resume at {t}");
        let straight_suffix = suffix_stream(&straight_log, t);
        let resumed_stream = ns2::render(resumed_log.iter());
        assert!(
            !resumed_stream.is_empty(),
            "{name}: the resumed suffix traced nothing — T {t} too late?"
        );
        assert_eq!(
            straight_suffix, resumed_stream,
            "{name}: ns-2 trace streams diverged after resume at {t}"
        );
    }
}

/// "Absent = convention" as a test, not a comment: each corpus script with
/// the three header lines it leaves out spelled — `topology chain:4`,
/// `mobility static`, `flow 0 4 NewReno` — is the same run: same snapshot
/// bytes at the twin's cut, same trace hash and event count at the end.
#[test]
fn spelling_out_the_convention_changes_nothing_across_the_corpus() {
    for (name, text) in CORPUS {
        let spelled = format!("topology chain:4\nmobility static\nflow 0 4 NewReno\n{text}");
        let [bare, spelled] = [text, &spelled].map(run_of);
        let shape = |run: &Run| format!("{:?}", (run.cfg, &run.flows, run.duration));
        assert_eq!(shape(&bare), shape(&spelled), "{name}");
        let (t, end) = (snapshot_instant(name, bare.duration.as_nanos()), bare.end());
        let [mut bare, mut spelled] = [&bare, &spelled].map(Run::build);
        bare.run_until(t);
        spelled.run_until(t);
        assert!(bare.snapshot() == spelled.snapshot(), "{name}: snapshot bytes differ at {t}");
        bare.run_until(end);
        spelled.run_until(end);
        assert_eq!(bare.trace_hash(), spelled.trace_hash(), "{name}");
        assert_eq!(bare.perf().events_processed, spelled.perf().events_processed, "{name}");
    }
}

/// Taking a snapshot must not perturb the run: the straight leg above
/// calls `snapshot()` mid-run, so pin that a run *without* the mid-run
/// snapshot produces the same hash.
#[test]
fn taking_a_snapshot_is_a_pure_observation() {
    let (name, text) = CORPUS[0];
    let run = run_of(text);
    let end = run.end();
    let t = snapshot_instant(name, run.duration.as_nanos());

    let mut plain = run.build();
    plain.run_until(end);

    let mut observed = run.build();
    observed.run_until(t);
    let _bytes = observed.snapshot();
    observed.run_until(end);

    assert_eq!(plain.trace_hash(), observed.trace_hash(), "snapshot() perturbed the run");
    assert_eq!(plain.perf(), observed.perf());
}

/// Observers are not state, so they leave no mark in the bytes: a run
/// watched by a trace log and a checker snapshots to the same bytes as the
/// same run unwatched.
#[test]
fn snapshot_bytes_do_not_depend_on_installed_observers() {
    let run = run_of(CORPUS[0].1);
    let t = SimTime::from_secs_f64(5.0);
    let mut plain = run.build();
    plain.run_until(t);
    let mut watched = run.build();
    watched.install_trace_log(TraceLog::new());
    watched.install_checker(InvariantChecker::new());
    watched.run_until(t);
    assert!(watched.trace_log().is_some_and(|log| !log.is_empty()), "the log saw the run");
    assert!(plain.snapshot() == watched.snapshot(), "an observer left a mark in the snapshot");
}

/// A snapshot holds state, not history: twelve times the run does not make
/// it half as large again. (With a window sample per move and a delivery
/// sample per segment in the bytes, 60 s was 4.8 times 5 s.)
#[test]
fn snapshot_size_is_bounded_by_state_not_by_run_length() {
    let mut sim = Simulator::new(topology::chain(4), SimConfig::default());
    let (src, dst) = topology::chain_flow(4);
    sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno));
    sim.run_until(SimTime::from_secs_f64(5.0));
    let early = sim.snapshot().len();
    sim.run_until(SimTime::from_secs_f64(60.0));
    let late = sim.snapshot().len();
    assert!(2 * late <= 3 * early, "{early} B at 5 s grew to {late} B at 60 s");
}

/// Mobility state rides the snapshot too: every generator family
/// (`Run::build`, every node roaming under random waypoint)
/// snapshotted mid-flight — motion plans in progress, pause timers pending,
/// adjacency rows patched move by move since t = 0 — and resumed in a fresh
/// simulator, whose adjacency is an all-pairs rebuild, must replay
/// bit-identically to the straight run. The straight leg runs under the
/// invariant checker and must itself stay clean.
#[test]
fn mobile_run_resumes_bit_identically() {
    let end = SimTime::from_secs_f64(5.0);
    let t = SimTime::from_secs_f64(2.0);
    let cases = [
        ("random-disc", TopologySpec::random_disc_dense(24, 250.0)),
        ("grid", TopologySpec::Grid { rows: 4, cols: 4 }),
        ("city-blocks", TopologySpec::CityBlocks { blocks_x: 3, blocks_y: 3, extra: 4 }),
    ];
    for (name, topology) in cases {
        let cfg = SimConfig { seed: 0x0B11_E77E, ..SimConfig::default() };
        let (src, dst) = farthest_pair(&topology.build(cfg.radio.tx_range_m, cfg.seed));
        let flows = vec![FlowSpec::new(src, dst, TcpVariant::Muzha)];
        let waypoint = MobilitySpec::DEFAULT_WAYPOINT;
        let run = Run::new(cfg, topology, waypoint, flows, end - SimTime::ZERO);
        let build = || run.build();

        let mut straight = build();
        straight.install_checker(InvariantChecker::new());
        straight.run_until(t);
        let moved_before = straight.perf().position_updates;
        assert!(moved_before > 0, "{name}: no motion before the snapshot instant — T too early?");
        let bytes = straight.snapshot();
        straight.run_until(end);
        assert!(
            straight.perf().position_updates > moved_before,
            "{name}: no motion after the snapshot instant — the resumed rows are never patched"
        );

        let mut resumed = build();
        resumed.restore(&bytes).unwrap_or_else(|e| panic!("{name}: restore at {t} failed: {e}"));
        resumed.run_until(end);

        assert_eq!(
            straight.trace_hash(),
            resumed.trace_hash(),
            "{name}: mobile trace hash diverged after resume at {t}"
        );
        assert_eq!(
            straight.perf(),
            resumed.perf(),
            "{name}: mobile RunPerf diverged after resume at {t}"
        );

        let checker = straight.take_checker().expect("checker installed above");
        let violations: Vec<String> = checker.violations().iter().map(|v| v.to_string()).collect();
        assert!(
            violations.is_empty(),
            "{name}: invariant violations under mobility:\n{}",
            violations.join("\n")
        );
        let l = checker.ledger();
        assert_eq!(
            l.injected,
            l.delivered + l.dropped + l.fault_dropped + l.in_flight,
            "{name}: conservation ledger does not balance under mobility: {l:?}"
        );
    }
}

/// One row of `tests/fixtures/snapshot_layout.txt`: where the run was cut,
/// how long its snapshot is and the digest of its bytes.
fn layout_row(name: &str, t: SimTime, bytes: &[u8]) -> String {
    let mut h = TraceHash::new();
    h.write_bytes(bytes);
    format!("{name} {} {} {:016x}", t.as_nanos(), bytes.len(), h.digest())
}

/// "Any layout change bumps `SNAPSHOT_VERSION`" as a gate: the snapshot of
/// every corpus script at its twin's cut instant, and of one run that puts
/// what the corpus never holds into the bytes — all nine sender records,
/// waypoint plans in progress — pinned beside the version that wrote them. Behaviour changes move these rows too,
/// but they move `corpus_digests.txt` first; when that fixture holds and this
/// one fails, the bytes changed under an unchanged run.
#[test]
fn snapshot_layout_matches_the_committed_fixture() {
    use tcp_muzha::sim::SNAPSHOT_VERSION;

    let mut rows = vec![format!("version {SNAPSHOT_VERSION}")];
    for (name, text) in CORPUS {
        let run = run_of(text);
        let t = snapshot_instant(name, run.duration.as_nanos());
        let mut sim = run.build();
        sim.run_until(t);
        rows.push(layout_row(name, t, &sim.snapshot()));
    }
    let cfg = SimConfig { seed: 0x1A_7007, ..SimConfig::default() };
    let topology = TopologySpec::random_disc_dense(24, 250.0);
    let (src, dst) = farthest_pair(&topology.build(cfg.radio.tx_range_m, cfg.seed));
    let flows = TcpVariant::ALL.map(|v| FlowSpec::new(src, dst, v)).to_vec();
    let t = SimTime::from_secs_f64(2.0);
    let run = Run::new(cfg, topology, MobilitySpec::DEFAULT_WAYPOINT, flows, t - SimTime::ZERO);
    let mut sim = run.build();
    sim.run_until(t);
    rows.push(layout_row("disc24-every-variant", t, &sim.snapshot()));

    let committed: Vec<&str> = include_str!("fixtures/snapshot_layout.txt")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    assert!(
        rows == committed,
        "layout changed: bump `SNAPSHOT_VERSION`, regenerate \
         tests/fixtures/snapshot_layout.txt; this build produces:\n{}\n",
        rows.join("\n")
    );
}

/// The little-endian `u64` at byte `at` of a snapshot — how the tests below
/// find fields by their encoding instead of by offset.
fn u64_at(bytes: &[u8], at: usize) -> u64 {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(raw)
}

/// A snapshot refuses to restore into a simulator built under a different
/// configuration or node count — the fingerprint gate. It covers exactly
/// what the bytes do not carry.
#[test]
fn restore_rejects_a_config_mismatch() {
    let run = run_of(CORPUS[0].1);
    assert_eq!(run.topology, TopologySpec::Chain { hops: 4 });
    let mut sim = run.build();
    sim.run_until(SimTime::from_secs_f64(0.5));
    let bytes = sim.snapshot();

    let mut reseeded = run.clone();
    reseeded.cfg.seed = 4242;
    let mut longer = run.clone();
    longer.topology = TopologySpec::Chain { hops: 5 };
    let mut lossy = run.clone();
    lossy.cfg.radio.per_frame_loss = 0.02;
    for (what, twin) in [("a reseeded", reseeded), ("a chain:5", longer), ("a lossy", lossy)] {
        let mut other = twin.build();
        let err = other.restore(&bytes).expect_err(what);
        assert!(matches!(err, SnapError::Mismatch(_)), "{what} twin: {err}");

        // A failed restore leaves the target untouched: it still runs from 0.
        other.run_until(SimTime::from_secs_f64(0.5));
        assert!(other.perf().events_processed > 0, "{what} twin");
    }
}

/// Where the nodes stand and how they move travel in the bytes — every
/// position, every node's movement and its waypoint plan — so a snapshot
/// resumes into a run whose `topology` and `mobility` lines say anything of
/// the same node count, and ends where the straight run does.
#[test]
fn placement_travels_in_a_snapshot() {
    const GRID_ROAM: &str = include_str!("fixtures/grid-roam.scn");
    const DISC_DENSE: &str = include_str!("fixtures/disc-dense.scn");
    let restated = |text: &str, topology: &str, mobility: &str| {
        let lines = text.lines().map(|line| match line.split_whitespace().next() {
            Some("topology") => format!("topology {topology}"),
            Some("mobility") => format!("mobility {mobility}"),
            _ => line.to_string(),
        });
        run_of(&lines.collect::<Vec<_>>().join("\n"))
    };
    for (text, cut, topology, mobility) in [
        (GRID_ROAM, 1.2, "chain:8", "static"),
        (GRID_ROAM, 3.5, "random-disc:9", "waypoint:2-3@0"),
        (DISC_DENSE, 2.0, "chain:99", "waypoint"),
    ] {
        let run = run_of(text);
        let mut straight = run.build();
        straight.run_until(SimTime::from_secs_f64(cut));
        let bytes = straight.snapshot();
        straight.run_until(run.end());

        let elsewhere = restated(text, topology, mobility);
        assert_ne!((elsewhere.topology, elsewhere.mobility), (run.topology, run.mobility));
        let mut resumed = elsewhere.build();
        resumed.restore(&bytes).unwrap_or_else(|e| panic!("{} into {topology}: {e}", run.name));
        resumed.run_until(run.end());
        assert_eq!(resumed.trace_hash(), straight.trace_hash(), "{} into {topology}", run.name);
        assert_eq!(resumed.perf(), straight.perf(), "{} into {topology}", run.name);
    }
}

/// Formats v3 (scheduler- and index-kind bytes in the queue and channel
/// blobs), v4 (fault state as eight parallel fields, a third mobility plan
/// tag), v5 (signal start edges as queued events under tag 1, no pending
/// arrivals in the PHY state), v6 (one sender record layout per variant,
/// seven in all), v7 (every layer's configuration inside its record), v8
/// (a window series in every sender, a delivery series in every receiver, a
/// trace cursor in every sender endpoint), v9 (every signal's end edge a
/// queued event with an `in_rx_range` byte, no parked key in an arrival or
/// a reception, no `edges_settled` counter), v10 (a MAC record's fields each
/// an option beside a phase byte) and v11 (TCP endpoints in per-node maps,
/// receiver flags, RTO bounds and EWMA weights in the bytes) have no reader:
/// the header is refused before any field is read.
#[test]
fn restore_rejects_the_previous_format_version() {
    let run = run_of(CORPUS[0].1);
    let mut sim = run.build();
    sim.run_until(SimTime::from_secs_f64(0.5));
    let mut bytes = sim.snapshot();
    for version in [3u16, 4, 5, 6, 7, 8, 9, 10, 11] {
        bytes[SNAPSHOT_MAGIC.len()..SNAPSHOT_MAGIC.len() + 2]
            .copy_from_slice(&version.to_le_bytes());
        assert_eq!(run.build().restore(&bytes), Err(SnapError::UnsupportedVersion(version)));
    }
}

/// A snapshot is untrusted input. A flipped bit in a queued cumulative ACK
/// still decodes, so the sender later receives an acknowledgement for data
/// it never sent; it must drop it (RFC 793), not empty its flight and push
/// segments until `nxt` catches up with the bogus number — which, before the
/// guard in `SendState::advance_una`, was a multi-GiB `Vec<TcpOutput>`.
///
/// The ACKs are found by their encoding rather than by offset, so a layout
/// change cannot quietly turn this into a test of nothing.
#[test]
fn ack_for_unsent_data_in_a_snapshot_cannot_run_the_sender_away() {
    use tcp_muzha::sim::SnapshotWriter;
    use tcp_muzha::wire::FlowId;

    let build = || {
        let mut sim = Simulator::new(topology::chain(3), SimConfig::default());
        let (src, dst) = topology::chain_flow(3);
        let flow = sim.add_flow(FlowSpec::new(src, dst, TcpVariant::Muzha));
        (sim, flow)
    };
    let (mut sim, flow) = build();
    let t = SimTime::from_nanos(1_003_710_000);
    sim.run_until(t);
    let bytes = sim.snapshot();
    let sent = sim.flow_report(flow).sender.segments_sent;

    // `Payload::Tcp`, the flow id, `TcpSegmentKind::Ack`, then the number.
    let mut prefix = SnapshotWriter::new();
    prefix.put_u8(0);
    prefix.put(&FlowId::from_index(flow.index()));
    prefix.put_u8(1);
    let prefix = prefix.finish();
    let acks: Vec<usize> = (0..bytes.len().saturating_sub(prefix.len() + 8))
        .filter(|&i| bytes[i..].starts_with(&prefix))
        .map(|i| i + prefix.len())
        .filter(|&at| {
            let mut ack = [0u8; 8];
            ack.copy_from_slice(&bytes[at..at + 8]);
            (1..=sent).contains(&u64::from_le_bytes(ack))
        })
        .collect();
    assert!(!acks.is_empty(), "no cumulative ACK queued at {t}: pick another instant");

    let mut resumed_with_a_bogus_ack = 0;
    for at in acks {
        let mut mutated = bytes.clone();
        mutated[at + 3] += 0x80; // ack + 0x8000_0000, far past anything sent
        let (mut twin, flow) = build();
        if twin.restore(&mutated).is_err() {
            continue; // the pattern sat in a field with a domain check
        }
        resumed_with_a_bogus_ack += 1;
        twin.run_until(t + tcp_muzha::sim::SimDuration::from_millis(300));
        let after = twin.flow_report(flow).sender.segments_sent;
        assert!(after < sent + 1_000, "byte {at}: {sent} segments became {after} in 0.3 s");
    }
    assert!(resumed_with_a_bogus_ack > 0, "every mutation was refused at restore");
}

/// A three-hop NewReno chain cut mid-transfer, its queues a few segments
/// deep, and what it takes to build its twin: the untrusted-input tests
/// below mutate these bytes.
fn newreno_chain_cut() -> (Vec<u8>, SimTime, u64, impl Fn() -> Simulator) {
    let build = || {
        let mut sim = Simulator::new(topology::chain(3), SimConfig::default());
        let (src, dst) = topology::chain_flow(3);
        sim.add_flow(FlowSpec::new(src, dst, TcpVariant::NewReno));
        sim
    };
    let mut sim = build();
    let t = SimTime::from_secs_f64(1.0);
    sim.run_until(t);
    let sent = sim.run_report().flows[0].sender.segments_sent;
    (sim.snapshot(), t, sent, build)
}

/// A TCP segment waits in interface queues and MAC custody as well as in
/// events, and `restore` vets only the events: a data segment parked in an
/// IFQ may name a flow the simulator does not have. It travels on like any
/// other packet, and the node it is addressed to, which has no receiver for
/// that flow, must drop it — not index the flow table with it.
///
/// The segments are found by their encoding: `Payload::Tcp`, the flow id,
/// `TcpSegmentKind::Data`, a sequence number the sender has used, the
/// payload size, then what a NewReno data segment carries after it (no
/// AVBW-S option, no mark, a retransmit flag).
#[test]
fn a_parked_segment_naming_a_missing_flow_is_dropped_not_indexed() {
    use tcp_muzha::wire::TCP_PAYLOAD_BYTES;

    let (bytes, t, sent, build) = newreno_chain_cut();
    let parked: Vec<usize> = (0..bytes.len().saturating_sub(21))
        .filter(|&i| {
            bytes[i..i + 6] == [0, 0, 0, 0, 0, 0]
                && u64_at(&bytes, i + 6) < sent
                && bytes[i + 14..i + 18] == TCP_PAYLOAD_BYTES.to_le_bytes()
                && bytes[i + 18..i + 20] == [0, 0]
                && bytes[i + 20] <= 1
        })
        .map(|i| i + 1)
        .collect();
    let mut resumed = 0;
    for at in parked {
        let mut mutated = bytes.clone();
        mutated[at] = 9; // flow 9 of 1
        let mut twin = build();
        match twin.restore(&mutated) {
            // The segment sat in a queued event, which `restore` does vet.
            Err(e) => assert_eq!(e, SnapError::Invalid("queued event index out of range")),
            Ok(()) => {
                resumed += 1;
                let before = twin.run_report().flows[0].delivered_segments;
                // Long enough for a retransmission timeout to repair the loss.
                twin.run_until(t + tcp_muzha::sim::SimDuration::from_secs(3));
                let after = twin.run_report().flows[0].delivered_segments;
                assert!(after > before, "byte {at}: the flow never recovered the lost segment");
            }
        }
    }
    assert!(resumed > 0, "no data segment parked outside the event queue at {t}");
}

/// `dispatch` indexes `nodes`, `flows` and the fault script with what a
/// queued event carries, and ids decode unranged: a snapshot whose queue
/// names a node, flow or fault the simulator does not have must be refused
/// whole, before any state is touched.
///
/// Queue entries are found by their encoding — a time inside the run, a
/// sequence number, the kind's tag — never by offset.
#[test]
fn queued_events_naming_missing_nodes_flows_or_faults_are_refused() {
    let build = || {
        let mut sim = Simulator::new(topology::chain(3), SimConfig::default());
        let (src, dst) = topology::chain_flow(3);
        sim.add_flow(FlowSpec::new(src, dst, TcpVariant::Muzha));
        sim.load_faults(&run_of("at 5 link-down 1 2\n").faults);
        sim
    };
    let mut sim = build();
    let t = SimTime::from_nanos(297_370_000);
    sim.run_until(t);
    let bytes = sim.snapshot();
    let pushed = sim.perf().events_processed * 8;

    let u64_at = |at: usize| u64_at(&bytes, at);
    // Offsets just past `time, seq, tag` of every queued event of kind `tag`.
    let queued = |tag: u8| -> Vec<usize> {
        (0..bytes.len().saturating_sub(32))
            .filter(|&i| {
                (t.as_nanos()..=6_000_000_000).contains(&u64_at(i))
                    && u64_at(i + 8) < pushed
                    && bytes[i + 16] == tag
            })
            .map(|i| i + 17)
            .collect()
    };
    // (what, tag, field offset past the tag, width, how many the simulator has)
    let cases = [
        ("MacTimer node", 4u8, 0usize, 2usize, 4u8),
        ("TcpTimer flow", 6, 2, 4, 1),
        ("Fault index", 12, 0, 8, 1),
        ("CsEnd node", 13, 0, 2, 4),
    ];
    for (what, tag, field, width, count) in cases {
        let hits: Vec<usize> = queued(tag)
            .into_iter()
            .map(|at| at + field)
            .filter(|&at| bytes[at] < count && bytes[at + 1..at + width].iter().all(|&b| b == 0))
            .collect();
        assert!(!hits.is_empty(), "no {what} queued at {t}: pick another instant");
        for at in hits {
            let mut mutated = bytes.clone();
            mutated[at] = 0x7f; // past four nodes, one flow, one fault
            let mut twin = build();
            twin.run_until(SimTime::from_nanos(100_000_000));
            let before = twin.trace_hash();
            assert_eq!(
                twin.restore(&mutated),
                Err(SnapError::Invalid("queued event index out of range")),
                "{what} at byte {at}"
            );
            assert_eq!(twin.trace_hash(), before, "{what}: a refused restore must change nothing");
            twin.run_until(t);
            assert_eq!(twin.trace_hash(), sim.trace_hash(), "{what}: and the twin runs on");
        }
    }
}

/// Signal start edges are not queue entries: between a frame going on the
/// air and its leading edge reaching a listener (at most 1.8 µs) they are
/// parked in the listener's PHY state. A snapshot at an arbitrary instant
/// holds none, so this one is cut at a `PhyTx` record's own timestamp: the
/// edges of that transmission are in flight, the snapshot carries them —
/// they are found in the bytes by their encoding — and the resumed run must
/// equal the uninterrupted one in `trace_hash`, `RunPerf` and trace records.
///
/// The same bytes then serve as untrusted input: an arrival that is due, ends
/// before it starts, has no finite power or carries a sequence number the
/// queue never issued, and a queued event under the retired start-edge tag,
/// are each refused with a typed error.
#[test]
fn a_cut_at_a_transmission_carries_its_start_edges_across() {
    use tcp_muzha::tracelog::TraceRecord;

    let build = || {
        let mut sim = Simulator::new(topology::chain(3), SimConfig::default());
        let (src, dst) = topology::chain_flow(3);
        sim.add_flow(FlowSpec::new(src, dst, TcpVariant::Muzha));
        sim
    };
    let end = SimTime::from_secs_f64(2.0);
    let mut traced = build();
    traced.install_trace_log(TraceLog::new());
    traced.run_until(end);
    let traced_log = traced.take_trace_log().expect("log was installed");
    let t = traced_log
        .iter()
        .find(|e| e.at.as_nanos() > 1_000_000_000 && matches!(e.record, TraceRecord::PhyTx { .. }))
        .map(|e| e.at)
        .expect("a busy chain transmits after t = 1 s");

    let mut straight = build();
    straight.install_trace_log(TraceLog::new());
    straight.run_until(t);
    let bytes = straight.snapshot();
    straight.run_until(end);
    let straight_log = straight.take_trace_log().expect("log was installed");

    let mut resumed = build();
    resumed.restore(&bytes).expect("the cut restores");
    resumed.install_trace_log(TraceLog::new());
    resumed.run_until(end);
    let resumed_log = resumed.take_trace_log().expect("log was installed");
    assert_eq!(straight.trace_hash(), resumed.trace_hash());
    assert_eq!(straight.trace_hash(), traced.trace_hash(), "and snapshotting changed nothing");
    assert_eq!(straight.perf(), resumed.perf());
    let suffix: Vec<TraceEntry> = straight_log.iter().filter(|e| e.at > t).collect();
    assert!(!suffix.is_empty());
    assert_eq!(suffix, resumed_log.snapshot());

    // A pending arrival: a start within the longest flight after `t`, a
    // sequence number the run can have issued, a small transmission id, an
    // end after the start, a bool, a power in (0, 1e6].
    let u64_at = |at: usize| u64_at(&bytes, at);
    let issued = straight.perf().events_processed * 8;
    let arrivals: Vec<usize> = (0..bytes.len().saturating_sub(41))
        .filter(|&i| {
            let (start, power) = (u64_at(i), f64::from_bits(u64_at(i + 33)));
            (t.as_nanos() + 1..=t.as_nanos() + 1_800).contains(&start)
                && u64_at(i + 8) < issued
                && u64_at(i + 16) < issued
                && u64_at(i + 24) > start
                && bytes[i + 32] <= 1
                && power > 0.0
                && power <= 1e6
        })
        .collect();
    assert!(!arrivals.is_empty(), "the snapshot at {t} carries no start edge in flight");

    let refused = |mutated: &[u8]| {
        let mut twin = build();
        let err = twin.restore(mutated).expect_err("malformed bytes must not restore");
        twin.run_until(end);
        assert_eq!(twin.trace_hash(), traced.trace_hash(), "a refused restore changes nothing");
        err
    };
    let put = |at: usize, value: u64| {
        let mut mutated = bytes.clone();
        mutated[at..at + 8].copy_from_slice(&value.to_le_bytes());
        mutated
    };
    for &at in &arrivals {
        assert_eq!(
            refused(&put(at, t.as_nanos())),
            SnapError::Invalid("pending arrival not after now")
        );
        assert_eq!(
            refused(&put(at + 24, u64_at(at) - 1)),
            SnapError::Invalid("pending arrival ends before it starts")
        );
        assert_eq!(
            refused(&put(at + 33, f64::NAN.to_bits())),
            SnapError::Invalid("pending arrival power")
        );
        assert_eq!(
            refused(&put(at + 8, u64::MAX)),
            SnapError::Invalid("pending arrival seq from the future")
        );
    }
    // Some of them are sensed, not decoded, at a MAC with no packet, and
    // carry their end edge with them: an option tag and the seq reserved for
    // it. Such an edge comes after its start, at the end of a signal nobody
    // decodes, under a number the queue has issued.
    let parked: Vec<usize> =
        arrivals.iter().copied().filter(|&at| bytes[at + 32] == 0 && bytes[at + 41] == 1).collect();
    assert!(!parked.is_empty(), "no arrival at {t} has its end edge parked with it");
    for &at in &parked {
        assert_eq!(u64_at(at + 42), u64_at(at + 8) + 1, "reserved right after the start edge's");
        let mut instant = put(at + 24, u64_at(at));
        instant[at + 42..at + 50].copy_from_slice(&u64_at(at + 8).to_le_bytes());
        assert_eq!(refused(&instant), SnapError::Invalid("parked end not after its start"));
        let mut decodable = bytes.clone();
        decodable[at + 32] = 1;
        assert_eq!(refused(&decodable), SnapError::Invalid("parked end of a decodable signal"));
        assert_eq!(
            refused(&put(at + 42, u64::MAX)),
            SnapError::Invalid("parked end seq from the future")
        );
    }

    // The transmission's end edges are queued (tag 2) well after `t`; under
    // tag 1 they would be the start-edge events v5 queued.
    let retagged = (0..bytes.len().saturating_sub(17))
        .filter(|&i| {
            (t.as_nanos() + 1..=t.as_nanos() + 10_000_000).contains(&u64_at(i))
                && u64_at(i + 8) < issued
                && bytes[i + 16] == 2
        })
        .any(|i| {
            let mut mutated = bytes.clone();
            mutated[i + 16] = 1;
            build().restore(&mutated) == Err(SnapError::Invalid("event tag"))
        });
    assert!(retagged, "no end edge queued at {t} to retag as a start edge");
}

/// The end edge of a signal a listener can sense and not decode is not a
/// queue entry while that listener's MAC holds no packet: it is parked with
/// the signal, in the pending arrival until the signal starts and in the
/// reception from then on. This cut falls a millisecond into a data frame's
/// airtime, where the listener two hops from the sender holds such a
/// reception — found in the bytes by its encoding — and the resumed run must
/// equal the uninterrupted one in `trace_hash`, `RunPerf` and trace records.
///
/// The same bytes then serve as untrusted input. A parked end that is due,
/// carries a sequence number the queue never issued, belongs to a signal
/// marked decodable, or is also in the queue as an event, is refused with a
/// typed error; and so is one grafted onto a signal whose listener's MAC
/// holds a packet (there the edge is a queued `CsEnd`, tag 13, and must stay
/// one).
#[test]
fn a_cut_between_a_parked_start_and_its_end_carries_both_across() {
    use tcp_muzha::sim::SimDuration;
    use tcp_muzha::tracelog::TraceRecord;
    use tcp_muzha::wire::FrameKind;

    let build = || {
        let mut sim = Simulator::new(topology::chain(3), SimConfig::default());
        let (src, dst) = topology::chain_flow(3);
        sim.add_flow(FlowSpec::new(src, dst, TcpVariant::Muzha));
        sim
    };
    let end = SimTime::from_secs_f64(2.0);
    let mut traced = build();
    traced.install_trace_log(TraceLog::new());
    traced.run_until(end);
    let traced_log = traced.take_trace_log().expect("log was installed");
    let issued = traced.perf().events_processed * 8;
    // A millisecond into every data frame sent after t = 1 s.
    let cuts: Vec<SimTime> = traced_log
        .iter()
        .filter(|e| e.at.as_nanos() > 1_000_000_000)
        .filter(|e| matches!(e.record, TraceRecord::PhyTx { frame: FrameKind::Data, .. }))
        .map(|e| e.at + SimDuration::from_millis(1))
        .collect();
    let cut_at = |t: SimTime| {
        let mut sim = build();
        sim.run_until(t);
        sim.snapshot()
    };
    let soon =
        |t: SimTime, nanos: u64| (t.as_nanos() + 1..=t.as_nanos() + 10_000_000).contains(&nanos);
    // Offsets of receptions of a signal nobody here decodes — a small
    // transmission id, `decodable` false, a bool, a power in [1e-3, 1e6] — whose
    // end edge is parked (`true`: option tag 1, then a time soon after `t` and
    // an issued seq) or not (`false`: tag 0).
    let sensed = |bytes: &[u8], t: SimTime, parked: bool| -> Vec<usize> {
        (0..bytes.len().saturating_sub(35))
            .filter(|&i| {
                let power = f64::from_bits(u64_at(bytes, i + 10));
                u64_at(bytes, i) < issued
                    && bytes[i + 8] == 0
                    && bytes[i + 9] <= 1
                    && (1e-3..=1e6).contains(&power)
                    && bytes[i + 18] == u8::from(parked)
                    && (!parked || soon(t, u64_at(bytes, i + 19)) && u64_at(bytes, i + 27) < issued)
            })
            .collect()
    };
    // Offsets of queued events of kind `tag`: a time soon after `t`, an issued
    // seq, the tag; then a node (two bytes) and a transmission id.
    let queued = |bytes: &[u8], t: SimTime, tag: u8| -> Vec<usize> {
        (0..bytes.len().saturating_sub(27))
            .filter(|&i| {
                soon(t, u64_at(bytes, i)) && u64_at(bytes, i + 8) < issued && bytes[i + 16] == tag
            })
            .collect()
    };

    let (t, bytes, receptions) = cuts
        .iter()
        .find_map(|&t| {
            let bytes = cut_at(t);
            let receptions = sensed(&bytes, t, true);
            (!receptions.is_empty()).then_some((t, bytes, receptions))
        })
        .expect("some data frame is sensed by a station whose MAC holds no packet");

    let mut straight = build();
    straight.install_trace_log(TraceLog::new());
    straight.run_until(t);
    assert!(straight.snapshot() == bytes);
    straight.run_until(end);
    let straight_log = straight.take_trace_log().expect("log was installed");
    let mut resumed = build();
    resumed.restore(&bytes).expect("the cut restores");
    resumed.install_trace_log(TraceLog::new());
    resumed.run_until(end);
    let resumed_log = resumed.take_trace_log().expect("log was installed");
    assert_eq!(straight.trace_hash(), resumed.trace_hash());
    assert_eq!(straight.trace_hash(), traced.trace_hash(), "and snapshotting changed nothing");
    assert_eq!(straight.perf(), resumed.perf());
    let suffix: Vec<TraceEntry> = straight_log.iter().filter(|e| e.at > t).collect();
    assert!(!suffix.is_empty());
    assert_eq!(suffix, resumed_log.snapshot());

    let refused = |mutated: &[u8]| {
        let mut twin = build();
        let err = twin.restore(mutated).expect_err("malformed bytes must not restore");
        twin.run_until(end);
        assert_eq!(twin.trace_hash(), traced.trace_hash(), "a refused restore changes nothing");
        err
    };
    let put = |at: usize, value: u64| {
        let mut mutated = bytes.clone();
        mutated[at..at + 8].copy_from_slice(&value.to_le_bytes());
        mutated
    };
    for &at in &receptions {
        assert_eq!(
            refused(&put(at + 19, t.as_nanos())),
            SnapError::Invalid("parked end not after now")
        );
        assert_eq!(
            refused(&put(at + 27, u64::MAX)),
            SnapError::Invalid("parked end seq from the future")
        );
        let mut decodable = bytes.clone();
        decodable[at + 8] = 1;
        assert_eq!(refused(&decodable), SnapError::Invalid("parked end of a decodable signal"));
        // The same frame ends as a queued `RxEnd` (tag 2) at the stations in
        // range of its sender. Addressed to the station the parked end is at
        // — whichever of the four that is — it ends the signal there twice.
        let tx_id = u64_at(&bytes, at);
        let twice = queued(&bytes, t, 2)
            .into_iter()
            .filter(|&i| u64_at(&bytes, i + 19) == tx_id)
            .flat_map(|i| (0..4u8).map(move |node| (i, node)))
            .filter(|&(i, node)| {
                let mut mutated = bytes.clone();
                mutated[i + 17] = node;
                build().restore(&mutated)
                    == Err(SnapError::Invalid("signal end both parked and queued"))
            })
            .count();
        assert!(twice > 0, "no queued end of transmission {tx_id} could be re-addressed");
    }

    // A station that senses a frame while its MAC holds a packet, its medium
    // not sure to stay busy past the frame's end, has the end edge in the
    // queue, as a `CsEnd`, and nothing parked on the reception. Parked there
    // instead, the end would be applied lazily where the idle edge it makes
    // can restart a countdown.
    let (t, bytes, at, edge) = cuts
        .iter()
        .find_map(|&t| {
            let bytes = cut_at(t);
            let receptions = sensed(&bytes, t, false);
            let edge = queued(&bytes, t, 13).into_iter().find_map(|i| {
                let at =
                    receptions.iter().find(|&&at| u64_at(&bytes, at) == u64_at(&bytes, i + 19))?;
                Some((*at, i))
            });
            edge.map(|(at, i)| (t, bytes, at, i))
        })
        .expect("some data frame is sensed by a station whose MAC holds a packet");
    let mut grafted = bytes[..at + 18].to_vec();
    grafted.push(1);
    grafted.extend_from_slice(&bytes[edge..edge + 16]); // the queued edge's own time and seq
    grafted.extend_from_slice(&bytes[at + 19..]);
    let mut twin = build();
    assert_eq!(
        twin.restore(&grafted),
        Err(SnapError::Invalid("uncovered parked end at a MAC holding a packet")),
        "cut at {t}"
    );
    assert_eq!(twin.restore(&bytes), Ok(()), "the bytes it was grafted onto are sound");
}

/// Every variant's sender record crosses a snapshot. The corpus twin cuts
/// NewReno runs and the mobile one Muzha; this one cuts all nine on a
/// two-hop chain with random frame loss on, inside a loss episode — the
/// first window record after t = 1 s taken in fast recovery, or, for Tahoe
/// and Vegas, which never recover, the first whose window fell — so the
/// record is live when it is written: a dup-ACK count, a recovery point, a
/// SACK scoreboard, Vegas / Veno / Westwood RTT and round state, a DOOR
/// reduction. The resumed run must equal the uninterrupted one in
/// `trace_hash`, `RunPerf` and every field of the flow reports.
#[test]
fn every_variant_resumes_bit_identically_from_a_loss_episode() {
    use tcp_muzha::phy::RadioParams;
    use tcp_muzha::tracelog::TraceRecord;

    let radio = RadioParams { per_frame_loss: 0.25, ..RadioParams::default() };
    let cfg = SimConfig { radio, ..SimConfig::default() };
    let end = SimTime::from_secs_f64(8.0);
    for variant in TcpVariant::ALL {
        let build = || {
            let mut sim = Simulator::new(topology::chain(3), cfg);
            let (src, dst) = topology::chain_flow(3);
            sim.add_flow(FlowSpec::new(src, dst, variant));
            sim
        };
        let mut traced = build();
        traced.install_trace_log(TraceLog::new());
        traced.run_until(end);
        let log = traced.take_trace_log().expect("log was installed");
        let windows: Vec<(SimTime, f64, &str)> = log
            .iter()
            .filter_map(|e| match e.record {
                TraceRecord::TcpCwnd { cwnd, phase, .. } => Some((e.at, cwnd, phase)),
                _ => None,
            })
            .filter(|w| w.0.as_nanos() > 1_000_000_000)
            .collect();
        let recovering = windows.iter().find(|w| w.2 == "fast-recovery").map(|w| w.0);
        let fell = windows.windows(2).find(|w| w[1].1 < w[0].1).map(|w| w[1].0);
        let t = recovering.or(fell).expect("a loss episode after t = 1 s: raise the loss if not");

        let mut straight = build();
        straight.run_until(t);
        let bytes = straight.snapshot();
        straight.run_until(end);
        let mut resumed = build();
        resumed.restore(&bytes).unwrap_or_else(|e| panic!("{variant}: restore at {t} failed: {e}"));
        resumed.run_until(end);

        assert_eq!(straight.trace_hash(), resumed.trace_hash(), "{variant}: cut at {t}");
        assert_eq!(straight.perf(), resumed.perf(), "{variant}: RunPerf diverged, cut at {t}");
        assert_eq!(
            format!("{:?}", straight.run_report().flows),
            format!("{:?}", resumed.run_report().flows),
            "{variant}: flow reports diverged, cut at {t}"
        );
    }
}
