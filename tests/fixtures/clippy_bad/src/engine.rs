//! A thread spawned outside the batch engine, a hash-ordered route table,
//! and an unwrap in protocol code.

use std::collections::HashMap;

pub fn rebuild_in_background(routes: Vec<u32>) {
    std::thread::spawn(move || routes.len());
}

pub fn next_hop(routes: &HashMap<u32, u32>, dst: u32) -> u32 {
    *routes.get(&dst).unwrap()
}
