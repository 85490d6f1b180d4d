//! Shared by the CLI tests, each of which spawns the real binaries.

use std::path::PathBuf;

/// A scratch directory of `test`'s own under the system's, removed by the
/// caller. The process id keeps concurrent `cargo test` runs apart.
pub fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("harness_cli_{test}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}
