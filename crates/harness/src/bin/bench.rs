//! Simulator performance benchmark: runs the standard paper scenarios,
//! measures wall time and deterministic event counts, and writes
//! `BENCH_sim.json` so every PR has a perf trajectory to answer to.
//!
//! ```sh
//! cargo run --release -p harness --bin bench -- [--quick] [--jobs N] [--out PATH]
//! ```
//!
//! Each scenario is run twice through the batch engine — serial
//! (`jobs = 1`) and parallel (`--jobs`, default one worker per core) — so
//! the report carries both per-run events/sec (a scheduling-independent
//! simulator-speed number: virtual events from [`sim_core::RunPerf`] over
//! serial wall time) and the batch speed-up the thread pool buys.
//! The event counts are asserted identical between the two passes; a
//! mismatch would mean parallel execution changed simulation behaviour.

use faultline::InvariantChecker;
use harness::cli::{self, parse_flag, parse_flag_with, CliError};
use harness::{run_batch, WallClock};
use netstack::{
    topology, FlowSpec, IndexKind, MobilitySpec, SimConfig, Simulator, TcpVariant, TopologySpec,
};
use phy::Channel;
use sim_core::{DriverQueue, RunPerf, SchedulerKind, SimDuration, SimRng, SimTime};
use tracelog::TraceLog;
use wire::NodeId;

/// One standard scenario: a named topology + flow set, run per seed.
struct Scenario {
    name: &'static str,
    seeds: Vec<u64>,
    duration: SimDuration,
    run: fn(SimConfig, SimDuration) -> RunPerf,
}

fn chain_run(cfg: SimConfig, duration: SimDuration) -> RunPerf {
    let mut sim = Simulator::new(topology::chain(8), cfg);
    let (src, dst) = topology::chain_flow(8);
    sim.add_flow(FlowSpec::new(src, dst, TcpVariant::Muzha));
    sim.run_until(SimTime::ZERO + duration);
    sim.perf()
}

fn cross_run(cfg: SimConfig, duration: SimDuration) -> RunPerf {
    let mut sim = Simulator::new(topology::cross(4), cfg);
    let (hs, hd) = topology::cross_horizontal_flow(4);
    let (vs, vd) = topology::cross_vertical_flow(4);
    sim.add_flow(FlowSpec::new(hs, hd, TcpVariant::NewReno));
    sim.add_flow(FlowSpec::new(vs, vd, TcpVariant::Muzha));
    sim.run_until(SimTime::ZERO + duration);
    sim.perf()
}

/// Runs the 8-hop chain scenario with or without a full trace log
/// installed; returns the deterministic event digest and the number of
/// records the log kept.
fn chain_hash_run(cfg: SimConfig, duration: SimDuration, traced: bool) -> (u64, usize) {
    let mut sim = Simulator::new(topology::chain(8), cfg);
    let (src, dst) = topology::chain_flow(8);
    sim.add_flow(FlowSpec::new(src, dst, TcpVariant::Muzha));
    if traced {
        sim.install_trace_log(TraceLog::new());
    }
    sim.run_until(SimTime::ZERO + duration);
    let kept = sim.trace_log().map_or(0, tracelog::TraceLog::len);
    (sim.trace_hash(), kept)
}

/// The classic hold model for scheduler microbenchmarks: keep the queue at
/// a steady size and repeatedly pop the earliest event, pushing a
/// replacement at `now + draw`. The increment distribution decides which
/// access pattern the queue sees.
#[derive(Clone, Copy, Debug)]
enum HoldDist {
    /// Uniform increments — the calendar queue's best case.
    Uniform,
    /// 90% near-immediate, 10% far — MAC-timer-like burstiness.
    Bursty,
    /// Mostly short with rare multi-second outliers — retransmission-timer
    /// tails that force lap scans / direct search in the calendar.
    FarFuture,
}

impl HoldDist {
    fn name(self) -> &'static str {
        match self {
            HoldDist::Uniform => "uniform",
            HoldDist::Bursty => "bursty",
            HoldDist::FarFuture => "far_future",
        }
    }

    fn draw(self, rng: &mut SimRng) -> SimDuration {
        match self {
            HoldDist::Uniform => SimDuration::from_nanos(u64::from(rng.below(1_000_000))),
            HoldDist::Bursty => {
                if rng.chance(0.9) {
                    SimDuration::from_nanos(u64::from(rng.below(10_000)))
                } else {
                    SimDuration::from_nanos(u64::from(rng.below(50_000_000)))
                }
            }
            HoldDist::FarFuture => {
                if rng.chance(0.99) {
                    SimDuration::from_nanos(u64::from(rng.below(1_000_000)))
                } else {
                    SimDuration::from_secs(1 + u64::from(rng.below(4)))
                }
            }
        }
    }
}

/// Hold-model ops/sec for one scheduler at one distribution. Both
/// schedulers see the identical seeded increment stream.
fn hold_ops_per_sec(kind: SchedulerKind, dist: HoldDist, size: usize, ops: usize) -> f64 {
    let mut rng = SimRng::new(0x686f6c64); // "hold"
    let mut queue = DriverQueue::new(kind);
    for i in 0..size {
        queue.push(SimTime::ZERO + dist.draw(&mut rng), i as u64);
    }
    let clock = WallClock::start();
    for i in 0..ops {
        let (now, _) = queue.pop().expect("hold model keeps the queue non-empty");
        queue.push(now + dist.draw(&mut rng), i as u64);
    }
    ops as f64 / clock.elapsed_secs().max(1e-9)
}

/// End-to-end run of the 8-hop chain under one scheduler: returns the
/// trace digest (asserted identical across schedulers), the perf counters
/// and the serial wall time.
fn chain_sched_run(kind: SchedulerKind, duration: SimDuration) -> (u64, RunPerf, f64) {
    let cfg = SimConfig { seed: 11, scheduler: kind, ..SimConfig::default() };
    let clock = WallClock::start();
    let mut sim = Simulator::new(topology::chain(8), cfg);
    let (src, dst) = topology::chain_flow(8);
    sim.add_flow(FlowSpec::new(src, dst, TcpVariant::Muzha));
    sim.run_until(SimTime::ZERO + duration);
    let secs = clock.elapsed_secs();
    (sim.trace_hash(), sim.perf(), secs)
}

/// Runs the 8-hop chain, optionally taking a full simulator snapshot every
/// `every` of virtual time; returns the deterministic event digest, the
/// event count, and the number/total bytes of snapshots taken.
fn chain_snapshot_run(
    cfg: SimConfig,
    duration: SimDuration,
    every: Option<SimDuration>,
) -> (u64, u64, usize, usize) {
    let mut sim = Simulator::new(topology::chain(8), cfg);
    let (src, dst) = topology::chain_flow(8);
    sim.add_flow(FlowSpec::new(src, dst, TcpVariant::Muzha));
    let mut snapshots = 0usize;
    let mut bytes_total = 0usize;
    if let Some(step) = every {
        let mut at = SimTime::ZERO + step;
        while at < SimTime::ZERO + duration {
            sim.run_until(at);
            bytes_total += sim.snapshot().len();
            snapshots += 1;
            at += step;
        }
    }
    sim.run_until(SimTime::ZERO + duration);
    (sim.trace_hash(), sim.perf().events_processed, snapshots, bytes_total)
}

/// One config-built random-disc + random-waypoint run at `n` nodes with
/// the invariant checker installed; `n/100` (min 1) Muzha flows between
/// index-spread endpoints. Asserts the conservation ledger balances and no
/// invariant fires, then returns the perf counters and the run's wall time
/// (simulator construction and topology generation excluded).
fn topo_scale_run(n: u16, secs: u64) -> (RunPerf, f64) {
    let cfg = SimConfig {
        topology: TopologySpec::random_disc_dense(n, 250.0),
        mobility: MobilitySpec::DEFAULT_WAYPOINT,
        ..SimConfig::default()
    };
    let mut sim = Simulator::from_config(cfg);
    sim.install_checker(InvariantChecker::new());
    let count = usize::from(n);
    let flows = (count / 100).max(1);
    for k in 0..flows {
        let a = k * count / flows;
        let b = (a + count / 2) % count;
        sim.add_flow(FlowSpec::new(
            NodeId::new(a as u16),
            NodeId::new(b as u16),
            TcpVariant::Muzha,
        ));
    }
    let clock = WallClock::start();
    sim.run_until(SimTime::from_secs_f64(secs as f64));
    let wall = clock.elapsed_secs();
    let checker = sim.take_checker().expect("checker installed above");
    assert!(
        checker.violations().is_empty(),
        "topo_scale n={n}: invariant violations: {:?}",
        checker.violations()
    );
    let l = checker.ledger();
    assert_eq!(
        l.injected,
        l.delivered + l.dropped + l.fault_dropped + l.in_flight,
        "topo_scale n={n}: conservation ledger out of balance"
    );
    (sim.perf(), wall)
}

/// Mean nanoseconds per `Channel::set_position` on an `n`-node random-disc
/// placement under the given index, with mobility-tick-sized steps (±2 m —
/// what a 100 ms tick at top waypoint speed produces). Both index kinds see
/// the identical seeded move stream.
fn move_cost_ns(n: u16, index: IndexKind, moves: usize) -> f64 {
    let cfg = SimConfig::default();
    let positions = TopologySpec::random_disc_dense(n, 250.0).build(cfg.radio.tx_range_m, cfg.seed);
    let mut ch = Channel::with_index(positions, cfg.radio, index);
    let mut rng = SimRng::new(0x6d6f7665); // "move"
    let clock = WallClock::start();
    for _ in 0..moves {
        let node = NodeId::new(rng.below(u32::from(n)) as u16);
        let p = ch.position(node);
        let dx = (rng.unit_f64() - 0.5) * 4.0;
        let dy = (rng.unit_f64() - 0.5) * 4.0;
        ch.set_position(node, phy::Position::new(p.x + dx, p.y + dy));
    }
    clock.elapsed_secs() * 1e9 / moves as f64
}

/// Extracts `"key": <number>` from hand-rolled JSON text (enough for the
/// baseline file this binary writes itself).
fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest.find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))?;
    rest[..end].parse().ok()
}

/// Like [`json_number`], but scoped to the first occurrence of the named
/// top-level block, so duplicated keys (`overhead_ratio` appears in both
/// overhead blocks) resolve to the right one.
fn json_number_in(text: &str, block: &str, key: &str) -> Option<f64> {
    let at = text.find(&format!("\"{block}\""))?;
    json_number(&text[at..], key)
}

fn main() {
    cli::run_main(run);
}

fn run(args: &[String]) -> Result<(), CliError> {
    let quick = args.iter().any(|a| a == "--quick");
    let jobs = parse_flag_with(args, "--jobs", str::parse::<usize>)?.unwrap_or(0);
    let out = parse_flag(args, "--out")?.unwrap_or_else(|| "BENCH_sim.json".to_string());

    let (seeds, secs): (Vec<u64>, u64) =
        if quick { (vec![11, 23], 5) } else { (vec![11, 23, 37, 53], 15) };
    let scenarios = [
        Scenario {
            name: "chain8_muzha",
            seeds: seeds.clone(),
            duration: SimDuration::from_secs(secs),
            run: chain_run,
        },
        Scenario {
            name: "cross4_newreno_vs_muzha",
            seeds,
            duration: SimDuration::from_secs(secs),
            run: cross_run,
        },
    ];

    let effective = harness::effective_jobs(jobs);
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut entries = Vec::new();
    for sc in &scenarios {
        eprintln!("benchmarking {} ({} seeds, {} s virtual)...", sc.name, sc.seeds.len(), secs);
        let configs: Vec<SimConfig> =
            sc.seeds.iter().map(|&seed| SimConfig { seed, ..SimConfig::default() }).collect();

        let serial_clock = WallClock::start();
        let serial: Vec<RunPerf> = run_batch(&configs, 1, |&cfg, _| (sc.run)(cfg, sc.duration));
        let serial_secs = serial_clock.elapsed_secs();

        // The thread-pool pass only measures something when there is real
        // parallelism to buy. With one effective worker it would re-run the
        // identical serial batch and report scheduling noise as a
        // "speedup", so skip the dispatch and report 1.0 honestly.
        let (parallel_secs, batch_speedup) = if effective > 1 {
            let parallel_clock = WallClock::start();
            let parallel: Vec<RunPerf> =
                run_batch(&configs, jobs, |&cfg, _| (sc.run)(cfg, sc.duration));
            let parallel_secs = parallel_clock.elapsed_secs();
            assert_eq!(serial, parallel, "{}: parallel run diverged from serial", sc.name);
            (parallel_secs, serial_secs / parallel_secs.max(1e-9))
        } else {
            eprintln!("  single effective worker ({host_cores} host cores): parallel pass skipped");
            (serial_secs, 1.0)
        };

        let mut total = RunPerf::default();
        for p in &serial {
            total.merge(p);
        }
        let events_per_sec = total.events_processed as f64 / serial_secs.max(1e-9);
        entries.push(format!(
            concat!(
                "    {{\n",
                "      \"scenario\": \"{}\",\n",
                "      \"seeds\": {},\n",
                "      \"virtual_secs\": {},\n",
                "      \"events_processed\": {},\n",
                "      \"peak_event_queue\": {},\n",
                "      \"peak_ifq_depth\": {},\n",
                "      \"serial_wall_secs\": {:.6},\n",
                "      \"parallel_wall_secs\": {:.6},\n",
                "      \"parallel_jobs\": {},\n",
                "      \"host_cores\": {},\n",
                "      \"events_per_sec_serial\": {:.1},\n",
                "      \"batch_speedup\": {:.3}\n",
                "    }}"
            ),
            sc.name,
            sc.seeds.len(),
            secs,
            total.events_processed,
            total.peak_event_queue,
            total.peak_ifq_depth,
            serial_secs,
            parallel_secs,
            effective,
            host_cores,
            events_per_sec,
            batch_speedup,
        ));
    }

    // Trace-subsystem overhead guard: the same chain run with a full
    // in-memory trace log must reproduce the untraced event digest (pure
    // observer), and its wall-time cost is reported so the trajectory can
    // be watched across PRs. The headline `events_per_sec_serial` numbers
    // above always run untraced — tracing disabled costs only a skipped
    // branch per choke point.
    eprintln!("measuring trace overhead (chain8, 1 seed)...");
    let trace_duration = SimDuration::from_secs(secs);
    let trace_cfg = SimConfig { seed: 11, ..SimConfig::default() };
    let untraced_clock = WallClock::start();
    let (untraced_hash, _) = chain_hash_run(trace_cfg, trace_duration, false);
    let untraced_secs = untraced_clock.elapsed_secs();
    let traced_clock = WallClock::start();
    let (traced_hash, records_kept) = chain_hash_run(trace_cfg, trace_duration, true);
    let traced_secs = traced_clock.elapsed_secs();
    assert_eq!(untraced_hash, traced_hash, "tracing changed the event stream");

    let trace_overhead = format!(
        concat!(
            "  \"trace_overhead\": {{\n",
            "    \"scenario\": \"chain8_muzha\",\n",
            "    \"virtual_secs\": {},\n",
            "    \"records_kept\": {},\n",
            "    \"untraced_wall_secs\": {:.6},\n",
            "    \"traced_wall_secs\": {:.6},\n",
            "    \"overhead_ratio\": {:.3}\n",
            "  }}"
        ),
        secs,
        records_kept,
        untraced_secs,
        traced_secs,
        traced_secs / untraced_secs.max(1e-9),
    );

    // Snapshot-subsystem overhead guard: the same chain run with a full
    // simulator snapshot taken every virtual second must reproduce the
    // plain run's event digest and count (snapshotting is a pure
    // observation), and the amortised checkpoint cost per dispatched event
    // is reported so the trajectory can be watched across PRs.
    eprintln!("measuring snapshot overhead (chain8, 1 seed, 1 checkpoint/virtual sec)...");
    let snap_every = SimDuration::from_secs(1);
    let plain_clock = WallClock::start();
    let (plain_hash, plain_events, _, _) = chain_snapshot_run(trace_cfg, trace_duration, None);
    let plain_secs = plain_clock.elapsed_secs();
    let ck_clock = WallClock::start();
    let (ck_hash, ck_events, snapshots_taken, snapshot_bytes) =
        chain_snapshot_run(trace_cfg, trace_duration, Some(snap_every));
    let ck_secs = ck_clock.elapsed_secs();
    assert_eq!(plain_hash, ck_hash, "taking snapshots changed the event stream");
    assert_eq!(plain_events, ck_events, "taking snapshots changed the event count");

    let snapshot_overhead = format!(
        concat!(
            "  \"snapshot_overhead\": {{\n",
            "    \"scenario\": \"chain8_muzha\",\n",
            "    \"virtual_secs\": {},\n",
            "    \"snapshots_taken\": {},\n",
            "    \"snapshot_bytes_total\": {},\n",
            "    \"plain_wall_secs\": {:.6},\n",
            "    \"checkpointed_wall_secs\": {:.6},\n",
            "    \"overhead_ratio\": {:.3},\n",
            "    \"checkpoint_cost_ns_per_event\": {:.1}\n",
            "  }}"
        ),
        secs,
        snapshots_taken,
        snapshot_bytes,
        plain_secs,
        ck_secs,
        ck_secs / plain_secs.max(1e-9),
        (ck_secs - plain_secs).max(0.0) * 1e9 / ck_events.max(1) as f64,
    );

    // Scheduler comparison: hold-model microbenchmarks over both queue
    // implementations, then an end-to-end chain run per scheduler with the
    // trace digests asserted identical — the perf claim is only meaningful
    // because the event streams are bit-identical.
    eprintln!("benchmarking schedulers (hold model + chain8 end-to-end)...");
    let (hold_size, hold_ops) = if quick { (2_000, 200_000) } else { (10_000, 2_000_000) };
    let mut hold_entries = Vec::new();
    for dist in [HoldDist::Uniform, HoldDist::Bursty, HoldDist::FarFuture] {
        let calendar = hold_ops_per_sec(SchedulerKind::Calendar, dist, hold_size, hold_ops);
        let heap = hold_ops_per_sec(SchedulerKind::Heap, dist, hold_size, hold_ops);
        hold_entries.push(format!(
            concat!(
                "      {{\"dist\": \"{}\", \"queue_size\": {}, ",
                "\"ops_per_sec_calendar\": {:.1}, \"ops_per_sec_heap\": {:.1}, ",
                "\"calendar_speedup\": {:.3}}}"
            ),
            dist.name(),
            hold_size,
            calendar,
            heap,
            calendar / heap.max(1e-9),
        ));
    }
    let sched_duration = SimDuration::from_secs(secs);
    let (cal_hash, cal_perf, cal_secs) = chain_sched_run(SchedulerKind::Calendar, sched_duration);
    let (heap_hash, heap_perf, heap_secs) = chain_sched_run(SchedulerKind::Heap, sched_duration);
    assert_eq!(cal_hash, heap_hash, "schedulers must replay identical event streams");
    assert_eq!(cal_perf.events_processed, heap_perf.events_processed);
    let eps_calendar = cal_perf.events_processed as f64 / cal_secs.max(1e-9);
    let eps_heap = heap_perf.events_processed as f64 / heap_secs.max(1e-9);
    let scheduler_block = format!(
        concat!(
            "  \"scheduler\": {{\n",
            "    \"hold\": [\n{}\n    ],\n",
            "    \"end_to_end\": {{\n",
            "      \"scenario\": \"chain8_muzha\",\n",
            "      \"virtual_secs\": {},\n",
            "      \"trace_hash_match\": true,\n",
            "      \"events_per_sec_calendar\": {:.1},\n",
            "      \"events_per_sec_heap\": {:.1},\n",
            "      \"calendar_speedup\": {:.3},\n",
            "      \"peak_event_queue\": {},\n",
            "      \"timers_cancelled\": {},\n",
            "      \"timers_stale_popped\": {}\n",
            "    }}\n",
            "  }}"
        ),
        hold_entries.join(",\n"),
        secs,
        eps_calendar,
        eps_heap,
        eps_calendar / eps_heap.max(1e-9),
        cal_perf.peak_event_queue,
        cal_perf.timers_cancelled,
        cal_perf.timers_stale_popped,
    );
    if eps_calendar < eps_heap {
        println!(
            "::warning title=scheduler perf::calendar queue slower than heap \
             ({eps_calendar:.0} vs {eps_heap:.0} events/sec)"
        );
    }

    // Topology-scaling curve: config-built random-disc placements under
    // full random-waypoint mobility, with the invariant checker riding
    // along (the ledger must balance at every size), plus a per-move
    // microbenchmark of `Channel::set_position` under both PHY indexes —
    // the cost the spatial grid exists to flatten.
    let (topo_counts, topo_secs): (Vec<u16>, u64) =
        if quick { (vec![25, 100], 5) } else { (vec![25, 100, 400, 1000], 10) };
    let moves = if quick { 20_000 } else { 100_000 };
    let mut topo_lines = vec![format!(
        "    \"virtual_secs\": {topo_secs},\n    \"mobility\": \"{}\",\n    \"moves_timed\": {moves}",
        MobilitySpec::DEFAULT_WAYPOINT,
    )];
    for &n in &topo_counts {
        eprintln!("benchmarking topo_scale n={n} (random-disc + waypoint, {topo_secs} s)...");
        let (perf, wall) = topo_scale_run(n, topo_secs);
        let grid_ns = move_cost_ns(n, IndexKind::Grid, moves);
        let brute_ns = move_cost_ns(n, IndexKind::BruteForce, moves);
        topo_lines.push(format!(
            concat!(
                "    \"events_processed_{n}\": {},\n",
                "    \"events_per_sec_{n}\": {:.1},\n",
                "    \"position_updates_{n}\": {},\n",
                "    \"link_churn_{n}\": {},\n",
                "    \"move_cost_ns_grid_{n}\": {:.1},\n",
                "    \"move_cost_ns_brute_{n}\": {:.1}"
            ),
            perf.events_processed,
            perf.events_processed as f64 / wall.max(1e-9),
            perf.position_updates,
            perf.link_churn,
            grid_ns,
            brute_ns,
            n = n,
        ));
    }
    let topo_block = format!("  \"topo_scale\": {{\n{}\n  }}", topo_lines.join(",\n"));

    let json = format!(
        "{{\n  \"bench\": \"sim\",\n  \"quick\": {},\n  \"scenarios\": [\n{}\n  ],\n{},\n{},\n{},\n{}\n}}\n",
        quick,
        entries.join(",\n"),
        trace_overhead,
        snapshot_overhead,
        scheduler_block,
        topo_block,
    );

    // Soft regression gate against the committed baseline: every watched
    // metric that moves past its threshold prints a CI annotation naming
    // the block that regressed, but does not fail the build — wall-clock
    // numbers on shared runners are advisory. Throughputs may drop at most
    // 20%; overhead ratios may grow at most 25%.
    let baseline_path =
        parse_flag(args, "--baseline")?.unwrap_or_else(|| "BENCH_baseline.json".to_string());
    if let Ok(baseline) = std::fs::read_to_string(&baseline_path) {
        let watched = [
            ("scheduler", "events_per_sec_calendar", true),
            ("scheduler", "events_per_sec_heap", true),
            ("trace_overhead", "overhead_ratio", false),
            ("snapshot_overhead", "overhead_ratio", false),
            ("topo_scale", "events_per_sec_25", true),
            ("topo_scale", "events_per_sec_100", true),
            ("topo_scale", "events_per_sec_1000", true),
            ("topo_scale", "move_cost_ns_grid_100", false),
            ("topo_scale", "move_cost_ns_grid_1000", false),
        ];
        for (block, key, higher_is_better) in watched {
            let (Some(base), Some(now)) =
                (json_number_in(&baseline, block, key), json_number_in(&json, block, key))
            else {
                eprintln!("baseline check skipped: {block}.{key} missing from {baseline_path}");
                continue;
            };
            let regressed = if higher_is_better { now < 0.8 * base } else { now > 1.25 * base };
            if regressed {
                println!(
                    "::warning title=bench regression::{block}.{key} is {now:.3} vs the \
                     committed baseline {base:.3} ({baseline_path})"
                );
            } else {
                eprintln!("baseline check ok: {block}.{key} {now:.3} vs baseline {base:.3}");
            }
        }
    }
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("{json}");
    println!("wrote {out}");
    Ok(())
}
