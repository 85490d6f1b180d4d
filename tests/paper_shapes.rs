//! Regression tests pinning the paper's qualitative results (Chapter 5).
//!
//! These use fixed seeds and reduced durations so they stay fast, and they
//! assert *shapes* (orderings, ratios), never absolute numbers.

use tcp_muzha::experiments::{
    coexistence, cwnd_traces, significantly_greater, throughput_dynamics, throughput_vs_hops,
    CoexistKind, ExperimentConfig,
};
use tcp_muzha::net::{SimConfig, TcpVariant};
use tcp_muzha::sim::{SimDuration, SimTime};

fn cfg(seeds: Vec<u64>, secs: u64) -> ExperimentConfig {
    ExperimentConfig {
        seeds,
        duration: SimDuration::from_secs(secs),
        base: SimConfig::default(),
        jobs: 1,
    }
}

/// Figs. 5.8–5.10: goodput falls as the chain grows, for every variant.
#[test]
fn throughput_decreases_with_hops() {
    let sweep = throughput_vs_hops(&[4, 16], &[8], &TcpVariant::PAPER, &cfg(vec![11, 23], 20));
    for variant in TcpVariant::PAPER {
        let short = sweep.point(4, 8, variant).unwrap().throughput_kbps.mean;
        let long = sweep.point(16, 8, variant).unwrap().throughput_kbps.mean;
        assert!(short > long, "{variant}: 4-hop ({short:.0}) must beat 16-hop ({long:.0})");
    }
}

/// Figs. 5.11–5.13 at window 32: Vegas retransmits least; Muzha retransmits
/// far less than NewReno and SACK (the overshooting senders).
#[test]
fn retransmission_ordering_at_large_window() {
    let sweep = throughput_vs_hops(&[4], &[32], &TcpVariant::PAPER, &cfg(vec![11, 23, 37], 20));
    let retx = |v| sweep.point(4, 32, v).unwrap().retransmissions.mean;
    let (newreno, sack, vegas, muzha) = (
        retx(TcpVariant::NewReno),
        retx(TcpVariant::Sack),
        retx(TcpVariant::Vegas),
        retx(TcpVariant::Muzha),
    );
    assert!(
        muzha < newreno && muzha < sack,
        "Muzha ({muzha:.0}) must retransmit less than NewReno ({newreno:.0}) / SACK ({sack:.0})"
    );
    assert!(vegas <= muzha + 5.0, "Vegas ({vegas:.0}) is the gold standard");
}

/// Fig. 5.10: at a large advertised window Muzha's feedback-held window
/// beats NewReno's overshooting one — and the margin is statistically
/// significant across seeds, not seed noise.
///
/// Calibration: the paper measures 100-second NS2 runs; 20-second runs put
/// the ~12 kbps seed noise on the order of the Muzha–NewReno gap, so the
/// Welch test cannot resolve it at 5 seeds. 30 seconds × 8 seeds yields
/// t ≈ 4.5 for the same underlying means (≈205 vs ≈180 kbps) while staying
/// fast enough for tier-1.
#[test]
fn muzha_beats_newreno_at_large_window() {
    use tcp_muzha::net::{topology, FlowSpec, Simulator};
    let measure = |variant: TcpVariant| -> Vec<f64> {
        [11u64, 23, 37, 53, 71, 89, 101, 131]
            .iter()
            .map(|&seed| {
                let cfg = SimConfig { seed, ..SimConfig::default() };
                let mut sim = Simulator::new(topology::chain(8), cfg);
                let (src, dst) = topology::chain_flow(8);
                let flow = sim.add_flow(FlowSpec::new(src, dst, variant).with_window(32));
                sim.run_until(SimTime::from_secs_f64(30.0));
                sim.flow_report(flow).throughput_kbps(sim.now())
            })
            .collect()
    };
    let muzha = measure(TcpVariant::Muzha);
    let newreno = measure(TcpVariant::NewReno);
    assert!(
        significantly_greater(&muzha, &newreno),
        "Muzha {muzha:?} must significantly beat NewReno {newreno:?} at window 32"
    );
}

/// Figs. 5.2–5.3: Muzha's window is steadier than NewReno's on the 4-hop
/// chain (smaller oscillation), and it reaches a working level quickly.
#[test]
fn muzha_window_is_steadier_than_newreno() {
    let traces = cwnd_traces(
        4,
        &[TcpVariant::NewReno, TcpVariant::Muzha],
        SimDuration::from_secs(10),
        SimConfig::default(),
    );
    let std_of = |v: TcpVariant| {
        traces
            .iter()
            .find(|t| t.variant == v)
            .unwrap()
            .cwnd_std_dev(SimTime::from_secs_f64(2.0), SimTime::from_secs_f64(10.0))
    };
    assert!(
        std_of(TcpVariant::Muzha) < std_of(TcpVariant::NewReno),
        "Muzha std {:.2} vs NewReno std {:.2}",
        std_of(TcpVariant::Muzha),
        std_of(TcpVariant::NewReno)
    );
    // Prompt rise: Muzha has a usable window within the first second.
    let muzha = traces.iter().find(|t| t.variant == TcpVariant::Muzha).unwrap();
    let early = muzha.mean_cwnd(SimTime::from_secs_f64(0.5), SimTime::from_secs_f64(1.0));
    assert!(early >= 2.0, "early Muzha cwnd {early:.2}");
}

/// Fig. 5.18: the NewReno/Muzha pair shares the cross more fairly than the
/// NewReno/Vegas pair (averaged over hop counts and seeds).
///
/// Calibration: fairness is a convergence property — Muzha's DRAI feedback
/// loop needs tens of seconds to equalise the cross flows, while Vegas's
/// early RTT-based advantage fades over the run (the paper's Fig. 5.18 is
/// taken from 100-second NS2 runs). At 30 s × 3 seeds the ordering is still
/// inverted (0.674 vs 0.728); by 60 s it is stable and widens further at
/// 90 s (0.829 vs 0.693 over 10 seeds), so 60 s × 6 seeds is the cheapest
/// horizon that reproduces the paper's ordering robustly.
#[test]
fn muzha_pair_is_fairer_than_vegas_pair() {
    let pairs = [
        CoexistKind { horizontal: TcpVariant::NewReno, vertical: TcpVariant::Vegas },
        CoexistKind { horizontal: TcpVariant::NewReno, vertical: TcpVariant::Muzha },
    ];
    let result = coexistence(&[4, 6], &pairs, &cfg(vec![11, 23, 37, 53, 71, 89], 60));
    let mean_fairness = |v: TcpVariant| {
        let xs: Vec<f64> =
            result.runs.iter().filter(|r| r.kind.vertical == v).map(|r| r.fairness.mean).collect();
        xs.iter().sum::<f64>() / xs.len() as f64
    };
    let vegas = mean_fairness(TcpVariant::Vegas);
    let muzha = mean_fairness(TcpVariant::Muzha);
    assert!(muzha > vegas, "Muzha pair ({muzha:.3}) must be fairer than Vegas pair ({vegas:.3})");
}

/// Figs. 5.19–5.22: three staggered Muzha flows converge to a fair share.
#[test]
fn muzha_three_flow_convergence() {
    let result = throughput_dynamics(
        TcpVariant::Muzha,
        SimDuration::from_secs(30),
        SimDuration::from_secs(1),
        SimConfig::default(),
    );
    let fairness = result.tail_fairness(10);
    assert!(fairness > 0.8, "Muzha 3-flow tail fairness {fairness:.3}");
    // All three flows actually carried data.
    for (i, r) in result.reports.iter().enumerate() {
        assert!(r.delivered_segments > 10, "flow {i} starved");
    }
}

/// §4.7: under pure random loss, Muzha retains more of its loss-free
/// throughput than NewReno (no unnecessary window reductions).
#[test]
fn muzha_is_more_loss_resilient_than_newreno() {
    use tcp_muzha::net::{topology, FlowSpec, Simulator};
    use tcp_muzha::phy::RadioParams;
    let measure = |variant: TcpVariant, loss: f64| -> f64 {
        let mut total = 0.0;
        for seed in [11u64, 23, 37] {
            let radio = RadioParams { per_frame_loss: loss, ..RadioParams::default() };
            let cfg = SimConfig { seed, radio, ..SimConfig::default() };
            let mut sim = Simulator::new(topology::chain(4), cfg);
            let (src, dst) = topology::chain_flow(4);
            let flow = sim.add_flow(FlowSpec::new(src, dst, variant));
            sim.run_until(SimTime::from_secs_f64(20.0));
            total += sim.flow_report(flow).throughput_kbps(sim.now());
        }
        total / 3.0
    };
    let retention = |v: TcpVariant| measure(v, 0.02) / measure(v, 0.0).max(1.0);
    let muzha = retention(TcpVariant::Muzha);
    let newreno = retention(TcpVariant::NewReno);
    assert!(
        muzha > newreno,
        "Muzha retains {muzha:.2} of loss-free goodput vs NewReno {newreno:.2}"
    );
}
