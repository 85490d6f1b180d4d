//! Packet, segment and frame types shared by every layer of the simulated
//! wireless ad hoc network stack.
//!
//! This crate is the "on-the-wire" vocabulary of the workspace. It defines:
//!
//! * addressing ([`NodeId`], [`FlowId`]),
//! * the Muzha **Data Rate Adjustment Index** carried in packet headers
//!   ([`Drai`]) — the paper's new `AVBW-S` IP option,
//! * transport segments ([`TcpSegment`]),
//! * AODV routing messages ([`AodvMessage`]),
//! * network-layer packets ([`Packet`]) and 802.11 MAC frames ([`MacFrame`]),
//!   together with their sizes in bytes (which drive transmission timing).
//!
//! Layer crates (`phy`, `mac80211`, `aodv`, `tcp`, `muzha`) depend only on
//! this crate and `sim-core`, never on each other; the `netstack` crate wires
//! them together.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aodv_msg;
mod drai;
mod ids;
mod ip;
mod mac;
mod shared;
mod snap;
mod tcp_seg;

pub use aodv_msg::{AodvMessage, RouteError, RouteReply, RouteRequest};
pub use drai::Drai;
pub use ids::{FlowId, NodeId, UidGen};
pub use ip::{Packet, Payload, DEFAULT_TTL};
pub use mac::{
    FrameBody, FrameKind, MacFrame, CTS_BYTES, DATA_OVERHEAD_BYTES, MAC_ACK_BYTES, RTS_BYTES,
};
pub use shared::SharedPacket;
pub use tcp_seg::{SackBlock, TcpSegment, TcpSegmentKind};

/// Default TCP payload size in bytes (the paper's packet size, §5.3).
pub const TCP_PAYLOAD_BYTES: u32 = 1460;
/// TCP + IP header bytes added to each data segment.
pub const TCP_IP_HEADER_BYTES: u32 = 40;
/// Size of a pure ACK segment (TCP/IP headers only).
pub const TCP_ACK_BYTES: u32 = 40;
