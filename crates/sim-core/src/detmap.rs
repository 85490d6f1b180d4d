//! Deterministically ordered map/set names.
//!
//! `std::collections::HashMap`/`HashSet` use a per-process random hash seed
//! (`RandomState`), so their iteration order differs between runs. Any such
//! iteration feeding the event loop silently breaks bit-for-bit replay — the
//! property every figure reproduced from the paper depends on. The root
//! `clippy.toml` therefore disallows hash containers across the workspace;
//! these aliases are the sanctioned replacement.
//!
//! Both *are* `BTreeMap`/`BTreeSet`: iteration order is the key order,
//! identical on every run and every platform. The alias records at the
//! declaration that the ordering is load-bearing, not incidental.
//!
//! # Example
//!
//! ```
//! use sim_core::DetMap;
//! let mut m = DetMap::new();
//! m.insert(3, "c");
//! m.insert(1, "a");
//! let keys: Vec<i32> = m.keys().copied().collect();
//! assert_eq!(keys, [1, 3]); // always sorted, never hash order
//! ```

use std::collections::{BTreeMap, BTreeSet};

/// A map with deterministic (key-sorted) iteration order.
pub type DetMap<K, V> = BTreeMap<K, V>;

/// A set with deterministic (sorted) iteration order.
pub type DetSet<T> = BTreeSet<T>;
