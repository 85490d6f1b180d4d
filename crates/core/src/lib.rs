//! **TCP Muzha** — the paper's primary contribution: router-assisted TCP
//! congestion control for wireless ad hoc networks.
//!
//! In a MANET every node is simultaneously an end host and a router, which
//! makes router assistance deployable (the paper's core observation). The
//! mechanism has three cooperating parts:
//!
//! 1. **Router side** ([`RouterAgent`], [`DraiComputer`]): every node
//!    derives a five-level *Data Rate Adjustment Index* (DRAI) from its
//!    interface-queue occupancy and recent channel utilisation, folds the
//!    minimum along the path into the `AVBW-S` IP option of passing data
//!    packets, and *marks* packets when its queue is congested.
//!
//! 2. **Receiver side** (in the `tcp` crate's receiver): echoes the path
//!    minimum ("MRAI") and the congestion mark back in every ACK.
//!
//! 3. **Sender side** (in the `tcp` crate too: [`tcp::Sender`] under
//!    [`tcp::TcpVariant::Muzha`], beside the baselines whose ACK / dup-ACK /
//!    timeout skeleton it shares — it needs only `wire::Drai`): no slow
//!    start and no bandwidth probing. Once per RTT the window moves by the
//!    recommendation (paper Table 5.2): ×2 / +1 / hold / −1 / ×½. Three
//!    *marked* duplicate ACKs mean congestion → halve and enter fast
//!    retransmit/recovery ("FF" phase); three *unmarked* duplicate ACKs mean
//!    a random wireless loss → retransmit **without** shrinking the window
//!    (paper Table 4.1). A timeout resets the window to one segment and
//!    stays in CA.
//!
//! This crate is the router side; it re-exports the sender's names.
//!
//! The DRAI formula itself is declared "empirical" by the paper (§4.6);
//! the thresholds used here are documented on [`DraiConfig`] and exercised
//! by the ablation benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod drai;
mod router;

pub use drai::{DraiComputer, DraiConfig};
pub use router::RouterAgent;
pub use tcp::AdjustmentCadence;

/// Constructor-only facade kept for `benchmark/`, whose Muzha kernel is
/// built through this name; everything else calls [`tcp::Sender::new`]. The
/// next PR that may edit `benchmark/` can delete it (ROADMAP).
#[derive(Debug)]
pub enum MuzhaSender {}

impl MuzhaSender {
    /// A TCP Muzha [`tcp::Sender`] with the paper's per-RTT cadence.
    #[expect(clippy::new_ret_no_self, reason = "the name and shape `benchmark/` calls")]
    pub fn new(flow: wire::FlowId, cfg: tcp::TcpConfig) -> tcp::Sender {
        let (vegas, cadence) = (tcp::VegasConfig::default(), AdjustmentCadence::PerRtt);
        tcp::Sender::new(flow, tcp::TcpVariant::Muzha, cfg, vegas, cadence)
    }
}
