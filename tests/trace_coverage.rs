//! The half of trace coverage the compiler cannot see. Every sink that reads
//! a record by variant (`tracelog::ns2::line`) or through an accessor
//! (`TraceRecord::layer`, `node`, …) is total under its module's
//! `#![deny(clippy::wildcard_enum_match_arm, …)]`. What no `match` states is
//! that each variant is *constructed* where the simulator reports from
//! (`crates/netstack/src`, outside its tests), and that `Layer::ALL` — which
//! the filter and pcap sinks iterate — names every layer. Both are read off
//! the source, here and in the planted-defect crate `tests/fixtures/clippy_bad`.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "a test helper reports a failure by panicking"
)]

use std::fs;
use std::path::Path;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every file directly under `dir`, cut at its test module, comments dropped.
fn live_sources(dir: &str) -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut files: Vec<_> = fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
    files.sort();
    let live = |text: String| {
        let code = text.split("#[cfg(test)]").next().unwrap_or_default();
        code.lines().filter(|l| !l.trim_start().starts_with("//")).collect::<Vec<_>>().join("\n")
    };
    files.into_iter().map(|p| live(fs::read_to_string(p).unwrap())).collect()
}

/// The variant names of `pub enum <name>`: the lines indented four spaces
/// inside its body that start with a capital.
fn variants(text: &str, name: &str) -> Vec<String> {
    let head = format!("pub enum {name} {{");
    let body = text.lines().skip_while(|l| *l != head).skip(1).take_while(|l| *l != "}");
    body.filter_map(|l| l.strip_prefix("    "))
        .filter(|l| l.starts_with(|c: char| c.is_ascii_uppercase()))
        .map(|l| l.chars().take_while(|c| c.is_ascii_alphanumeric()).collect())
        .collect()
}

/// The `TraceRecord` variants no file of `producers` constructs.
fn unproduced(record_rs: &str, producers: &[String]) -> Vec<String> {
    let records = variants(record_rs, "TraceRecord");
    assert!(!records.is_empty(), "no `pub enum TraceRecord` to read");
    let names = |text: &String, path: &str| {
        text.match_indices(path).any(|(at, _)| {
            !text[at + path.len()..].starts_with(|c: char| c.is_ascii_alphanumeric())
        })
    };
    records
        .into_iter()
        .filter(|r| !producers.iter().any(|text| names(text, &format!("TraceRecord::{r}"))))
        .collect()
}

/// The layers `Layer::ALL` lists, in its order.
fn listed_layers(record_rs: &str) -> Vec<String> {
    let all = record_rs.split("pub const ALL: [Layer;").nth(1).expect("no `Layer::ALL`");
    let all = all.split_once('=').unwrap().1.split_once(';').unwrap().0;
    all.split("Layer::")
        .skip(1)
        .map(|s| s.chars().take_while(char::is_ascii_alphanumeric).collect())
        .collect()
}

#[test]
fn every_trace_record_is_produced_by_a_netstack_choke_point() {
    let record_rs = read("crates/tracelog/src/record.rs");
    let missing = unproduced(&record_rs, &live_sources("crates/netstack/src"));
    assert!(missing.is_empty(), "no live code under crates/netstack/src constructs {missing:?}");
}

#[test]
fn layer_all_names_every_layer_in_order() {
    let record_rs = read("crates/tracelog/src/record.rs");
    assert_eq!(listed_layers(&record_rs), variants(&record_rs, "Layer"));
}

#[test]
fn both_checks_catch_the_planted_defects() {
    let record_rs = read("tests/fixtures/clippy_bad/src/record.rs");
    let producers = live_sources("tests/fixtures/clippy_bad/src");
    assert_eq!(unproduced(&record_rs, &producers), ["Orphan"]);
    assert_eq!(listed_layers(&record_rs), ["Phy", "Phy"]);
    assert_eq!(variants(&record_rs, "Layer"), ["Phy", "Agt"]);
}
