//! One-commit differential: the record-fed `InvariantChecker` beside the
//! `CheckEvent`-fed one it replaces, on the same runs. Equal conservation
//! ledgers and equal `(at, invariant, detail)` violation lists, or the
//! merge changed what the checker concludes. The seeds of `tests/fuzz_sim.rs`
//! are compared there. Deleted with the old path.

use tcp_muzha::faultline::mc::{self, McConfig};
use tcp_muzha::faultline::{legacy, CheckerLimits, InvariantChecker, ScenarioScript};
use tcp_muzha::mc::{corpus_duration, corpus_sim};
use tcp_muzha::net::{FlowSpec, MobilitySpec, SimConfig, Simulator, TcpVariant, TopologySpec};
use tcp_muzha::sim::{SimDuration, SimTime, TieOrder};
use tcp_muzha::wire::NodeId;

const CORPUS: [&str; 8] = [
    include_str!("scenarios/chain-break.scn"),
    include_str!("scenarios/relay-crash.scn"),
    include_str!("scenarios/bursty-channel.scn"),
    include_str!("scenarios/blackhole-window.scn"),
    include_str!("scenarios/partition-heal.scn"),
    include_str!("scenarios/pause-resume.scn"),
    include_str!("scenarios/queue-squeeze.scn"),
    include_str!("scenarios/storm.scn"),
];

type Verdicts = Vec<(SimTime, &'static str, String)>;

fn watch(sim: &mut Simulator, limits: CheckerLimits) {
    sim.install_checker(InvariantChecker::with_limits(limits));
    sim.install_legacy_checker(legacy::InvariantChecker::with_limits(limits));
}

/// Seals both checkers, requires equal ledgers, returns both violation lists.
fn verdicts(what: &str, sim: &mut Simulator) -> (Verdicts, Verdicts) {
    let new = sim.take_checker().expect("installed");
    let old = sim.take_legacy_checker().expect("installed");
    assert_eq!(new.ledger(), old.ledger(), "{what}: ledgers differ");
    let list = |vs: &[tcp_muzha::faultline::Violation]| -> Verdicts {
        vs.iter().map(|v| (v.at, v.invariant, v.detail.clone())).collect()
    };
    (list(new.violations()), list(old.violations()))
}

fn agree(what: &str, sim: &mut Simulator) -> usize {
    let (new, old) = verdicts(what, sim);
    assert_eq!(new, old, "{what}: violation lists differ");
    new.len()
}

#[test]
fn corpus_and_disc_agree() {
    for text in CORPUS {
        let script = ScenarioScript::parse(text).expect("corpus parses");
        let mut sim = corpus_sim(&script);
        watch(&mut sim, CheckerLimits::default());
        sim.run_until(SimTime::ZERO + corpus_duration(&script));
        assert_eq!(agree(&script.name, &mut sim), 0);
    }
    let cfg = SimConfig {
        seed: 77,
        topology: TopologySpec::RandomDisc { count: 60, width_m: 1500.0, height_m: 1100.0 },
        mobility: MobilitySpec::Waypoint {
            min_speed_mps: 2.0,
            max_speed_mps: 20.0,
            pause: SimDuration::from_millis(250),
        },
        ..SimConfig::default()
    };
    let mut sim = Simulator::from_config(cfg);
    let last = sim.node_count() - 1;
    sim.add_flow(FlowSpec::new(NodeId::new(0), NodeId::new(last as u16), TcpVariant::Muzha));
    watch(&mut sim, CheckerLimits::default());
    sim.run_until(SimTime::from_secs_f64(3.0));
    assert_eq!(agree("disc60-waypoint", &mut sim), 0);
}

/// Every branch the three CI `mc` proofs log, replayed under both checkers.
#[test]
fn mc_proof_branches_agree() {
    // Script, tie window from (s; 4 ms long), fault-shift half-window (ns),
    // grid steps, branches the proof explores.
    let proofs =
        [(CORPUS[0], 4.0, 2_000_000, 3, 8), (CORPUS[1], 4.0, 0, 1, 2), (CORPUS[5], 3.0, 0, 1, 6)];
    for (text, from, shift_window_ns, shift_steps, branches) in proofs {
        let script = ScenarioScript::parse(text).expect("corpus parses");
        let window = (SimTime::from_secs_f64(from), SimTime::from_secs_f64(from + 0.004));
        let cfg = McConfig {
            tie_window: Some(window),
            max_branches: 2000,
            shift_window_ns,
            shift_steps,
            ..McConfig::default()
        };
        let (verdict, _) = tcp_muzha::mc::explore_scenario(&script, &cfg);
        assert!(verdict.proved(), "{}: {}", script.name, verdict.status());
        assert_eq!(verdict.log.len(), branches, "{}", script.name);
        let placed = mc::placements(&script, &cfg);
        for rec in &verdict.log {
            let mut sim = corpus_sim(&placed[rec.placement]);
            watch(&mut sim, CheckerLimits::default());
            sim.install_tie_order(
                TieOrder::new(rec.decisions.clone()).with_window(window.0, window.1),
            );
            sim.run_until(SimTime::ZERO + corpus_duration(&script));
            assert_eq!(sim.trace_hash(), rec.trace_hash, "the replay must be the logged branch");
            let what = format!("{} {:?}", script.name, rec.decisions);
            assert_eq!(agree(&what, &mut sim), rec.violations);
        }
    }
}

/// Clean runs agree trivially on the violation list; make both checkers
/// fire. Airtime and NAV caps no frame can meet and a contention-window
/// floor above CWmin: `mac-bounds` at every transmission, same instants,
/// same words. A window cap of two segments: the old checker fires after
/// every sender call that finds the window too large, the new one when the
/// window moves there (the stated narrowing) — same first offence, and never
/// an offence the old one did not see.
#[test]
fn planted_violations_agree() {
    let script = ScenarioScript::parse(CORPUS[0]).expect("corpus parses");
    let run = |limits: CheckerLimits| {
        let mut sim = corpus_sim(&script);
        watch(&mut sim, limits);
        sim.run_until(SimTime::from_secs_f64(6.0));
        sim
    };
    let tight_mac = CheckerLimits {
        max_airtime: SimDuration::from_micros(300),
        max_nav_ahead: SimDuration::from_micros(100),
        cw_min: 32,
        ..CheckerLimits::default()
    };
    assert!(agree("tight mac", &mut run(tight_mac)) > 1000);

    let tight_cwnd = CheckerLimits { max_cwnd_segments: 2.0, ..CheckerLimits::default() };
    let (new, old) = verdicts("tight cwnd", &mut run(tight_cwnd));
    let at = |v: &Verdicts| v.iter().map(|(at, ..)| *at).collect::<Vec<_>>();
    assert!(!new.is_empty() && new.len() < old.len(), "{} / {}", new.len(), old.len());
    assert_eq!(at(&new)[0], at(&old)[0]);
    assert!(at(&new).iter().all(|t| at(&old).contains(t)));
}
