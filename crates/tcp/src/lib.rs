//! TCP transport agents: the baselines the paper evaluates against, and the
//! end-host halves of TCP Muzha.
//!
//! Like ns-2 (which the paper used), TCP is modelled with *one-way agents at
//! segment granularity*: a sender paired with a receiver ("sink"); sequence
//! numbers count segments; the congestion window is in segments. An infinite
//! backlog (FTP) is assumed — the sender always has data.
//!
//! There is one sender, [`Sender`], which owns what every variant shares
//! (sequence space, timers, the dup-ACK count, fast-recovery bracketing,
//! go-back-N on timeout) and delegates the window arithmetic to one of a
//! closed set of policies, selected by [`TcpVariant`]:
//!
//! * **Tahoe / Reno / NewReno** — slow start, congestion avoidance, fast
//!   retransmit and (Reno, NewReno) fast recovery; NewReno, with its
//!   partial-ACK modification, is the paper's main baseline,
//! * **SACK** — selective acknowledgements with a scoreboard (ns-2 `sack1`
//!   style),
//! * **Vegas** — RTT-based congestion avoidance with α/β thresholds,
//!   slow-start every other RTT and the γ early-exit,
//! * **Veno** — the paper's cited end-to-end rival (\[22\]): Vegas's
//!   backlog estimate used to *discriminate* random from congestion losses,
//! * **Westwood+** — bandwidth-estimation decrease (\[24\]),
//! * **TCP-DOOR** (\[39\]) — out-of-order delivery treated as a
//!   route-change signal (§3.1),
//! * **Muzha** — the paper's contribution, sender half: the window moves by
//!   the routers' recommendation echoed in every ACK (Tables 4.1, 5.2). It
//!   lives here because it needs nothing but `wire::Drai` and because its
//!   receiver half — [`TcpReceiver`] echoing the MRAI and the mark — already
//!   does; the router half (DRAI computation, the AVBW-S fold, marking) is
//!   the `muzha` crate.
//!
//! All agents are pure state machines: the `netstack` crate wraps emitted
//! segments into packets, routes them, and fires timers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod common;
mod config;
mod output;
mod receiver;
mod rtt;
mod sender;
mod variant;

pub use common::SendState;
pub use config::{TcpConfig, VegasConfig};
pub use output::{TcpOutput, TcpStats, TcpTimer, Transport};
pub use receiver::TcpReceiver;
pub use rtt::RttEstimator;
pub use sender::{RenoSender, Sender};
pub use variant::{AdjustmentCadence, TcpVariant};
