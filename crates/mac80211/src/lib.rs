//! IEEE 802.11 DCF (Distributed Coordination Function) MAC layer.
//!
//! Implements the access method the paper's NS2 setup uses (§2.2, §5.1):
//!
//! * CSMA/CA with **physical carrier sense** (provided by the PHY via a
//!   [`MediumView`] snapshot) and **virtual carrier sense** (the NAV, set
//!   from overheard RTS/CTS/DATA duration fields),
//! * the four-way **RTS → CTS → DATA → ACK** exchange for unicast data,
//!   mitigating the hidden-terminal problem,
//! * binary exponential backoff with CWmin 31 / CWmax 1023 and per-slot
//!   countdown that freezes while the medium is busy,
//! * DIFS/SIFS/EIFS interframe spaces (EIFS after corrupted receptions),
//! * short (RTS) and long (DATA) retry limits; exceeding them reports a
//!   **link failure** to the routing layer — the trigger for AODV route
//!   repair that the paper identifies as a major TCP disruptor,
//! * broadcast data (no RTS/CTS/ACK), used by AODV floods.
//!
//! The MAC is a pure state machine: it never touches the event loop or the
//! radio directly. The `netstack` driver feeds it frames, timer firings and
//! medium transitions, and executes the [`MacOutput`] actions it emits —
//! returned as a [`MacOutputs`] batch, or appended to one the driver owns
//! (`on_x_into`; one body, two spellings).
//! Inside are two charts and the NAV: `Phase`, the transmit side, whose
//! states own the packet in custody, its countdown and the timer they wait
//! on, and `Responder`, the SIFS-timed CTS / ACK owed to a peer. Handlers
//! are total matches on the two; DESIGN §3.2 has the tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dcf;
mod params;

pub use dcf::{Mac, MacOutput, MacOutputs, MacStats, MediumView, TimerId};
pub use params::MacParams;
