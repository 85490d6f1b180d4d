//! A narrowing time cast, comparators ordering raw floats, and wall time.

use std::cmp::Ordering;
use std::time::Instant;

pub fn pcap_seconds(now_nanos: u64) -> u32 {
    (now_nanos / 1_000_000_000) as u32
}

pub fn sort_samples(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.total_cmp(b));
}

pub fn worst(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().max_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal))
}

pub fn seed_from_host() -> u128 {
    Instant::now().elapsed().as_nanos()
}
