//! A 1-virtual-second smoke of every workload and kernel, and agreement
//! between what the benchmark emits and what `BENCHMARK.json` declares.

use muzha_benchmark::workloads::Workload;
use muzha_benchmark::{run, Options};

fn options(workload: Workload, trace: bool) -> Options {
    Options { workload, seed: 7, seconds: 0.02, trace, virtual_secs: Some(1), spans_path: None }
}

/// The `"name"` values of the array that follows `"<key>":` in
/// `BENCHMARK.json` (the file is flat enough for a scan).
fn declared_names(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let start = text.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no `{key}` key"));
    let section = &text[start..];
    let section = &section[..section.find(']').expect("the array closes")];
    section
        .split("\"name\":")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("a quoted name").to_string())
        .collect()
}

#[test]
fn every_declared_workload_exists_and_no_other() {
    let declared = declared_names("workloads");
    let built: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared, built);
}

#[test]
fn untraced_smoke_emits_exactly_the_end_to_end_metrics() {
    let declared = declared_names("end_to_end");
    for workload in Workload::ALL {
        let finished = run(&options(workload, false));
        let result = &finished.result;
        assert!(result.correct, "{}:\n{}", workload.name(), finished.report);
        assert!(result.attempted >= 3 && result.failed == 0);
        let emitted: Vec<&str> = result.metrics.iter().map(|m| m.name).collect();
        assert_eq!(emitted, declared, "{}", workload.name());
        assert!(result.metrics.iter().all(|m| m.value > 0.0), "{}", finished.report);
        let line = result.to_json_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        assert!(finished.report.contains("median") && finished.report.contains("host: nproc"));
    }
}

#[test]
fn traced_smoke_emits_exactly_the_per_layer_metrics() {
    let declared = declared_names("per_layer");
    assert!(declared.len() <= 128);
    for workload in Workload::ALL {
        let finished = run(&options(workload, true));
        let result = &finished.result;
        assert!(result.correct, "{}:\n{}", workload.name(), finished.report);
        let emitted: Vec<&str> = result.metrics.iter().map(|m| m.name).collect();
        assert_eq!(emitted, declared, "{}", workload.name());
        assert!(result.metrics.iter().all(|m| m.value.is_finite()));
        let get = |name: &str| result.metrics.get(name).expect(name);
        assert!(get("sim-core.events") > 0.0 && get("tcp.goodput_kbps") > 0.0);
        let mobile = workload == Workload::City400Waypoint;
        assert_eq!(get("phy.position_updates") > 0.0, mobile, "{}", workload.name());
        assert_eq!(get("topo.mobility_events") > 0.0, mobile, "{}", workload.name());
        let observed = workload == Workload::Chain8Observed;
        assert_eq!(get("tracelog.records_kept") > 0.0, observed, "{}", workload.name());
        assert_eq!(get("netstack.snapshot_bytes") > 0.0, observed, "{}", workload.name());
        assert_eq!(get("faultline.violations"), 0.0);
    }
}

#[test]
fn the_same_seed_gives_the_same_inputs_and_another_seed_others() {
    let outcome = |seed| Workload::Disc100Dense.run_rep(seed, 1).outcome;
    assert_eq!(outcome(3), outcome(3));
    assert_ne!(outcome(3).trace_hash, outcome(4).trace_hash);
}

#[test]
fn observed_chain_resumes_from_its_own_snapshot() {
    assert!(Workload::Chain8Observed.resumes_identically(7, 2));
}

#[test]
fn traced_pass_writes_its_spans() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/spans-smoke-test.tsv");
    let mut opts = options(Workload::Chain8Muzha, true);
    opts.spans_path = Some(path.clone());
    assert!(run(&opts).result.correct);
    let text = std::fs::read_to_string(&path).expect("the traced pass wrote its spans");
    std::fs::remove_file(&path).expect("just written");
    for name in ["baseline", "untraced_rep", "sliced_run", "slice", "kernels", "mac80211.exchange"]
    {
        assert!(text.lines().any(|l| l.split('\t').nth(2) == Some(name)), "no `{name}` span");
    }
}
