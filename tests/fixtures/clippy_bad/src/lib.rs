//! Planted defects, one per row of `README.md`. Never built by the
//! workspace; `cargo clippy` over this crate must fail naming each one.

pub mod clock;
pub mod engine;
pub mod node;
pub mod ns2;
pub mod record;
