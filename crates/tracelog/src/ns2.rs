//! NS-2-style wireless trace-line rendering.
//!
//! The paper's evaluation (and both NS-2 tutorials in PAPERS.md) reads
//! old-format wireless trace lines:
//!
//! ```text
//! <op> <time> _<node>_ <layer> --- <uid> <ptype> <size> [details...]
//! ```
//!
//! with `op` one of `s`end / `r`eceive / `d`rop / `f`orward. We keep that
//! shape so output is eyeball-comparable with the paper's substrate, and add
//! `v` lines for pure state observations ns-2 had no equivalent for
//! (backoff draws, route-table changes, queue occupancy, cwnd snapshots) and
//! an `FLT` layer tag for scripted faults. A line prints what its ns-2
//! counterpart would: the facts a record carries for the invariant checker
//! alone (a transmission's airtime, contention window and NAV, a forward's
//! route expiry, a delivery's `rcv_nxt`) are not in it.
//!
//! All formatting is integer-based or fixed-precision — byte-identical
//! across runs and platforms for identical records.

#![deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]

use std::fmt::Write as _;

use crate::record::{TraceEntry, TraceRecord};
use sim_core::{SimDuration, SimTime};
use wire::{Drai, FlowId, FrameKind};

/// Formats virtual time as seconds with full nanosecond precision, using
/// integer arithmetic only.
fn fmt_time(t: SimTime) -> String {
    let nanos = t.as_nanos();
    format!("{}.{:09}", nanos / 1_000_000_000, nanos % 1_000_000_000)
}

fn frame_token(kind: FrameKind) -> &'static str {
    match kind {
        FrameKind::Rts => "RTS",
        FrameKind::Cts => "CTS",
        FrameKind::Data => "DATA",
        FrameKind::Ack => "MACACK",
    }
}

fn drai_token(level: Option<Drai>) -> String {
    match level {
        Some(l) => l.code().to_string(),
        None => "-".to_string(),
    }
}

fn flow_token(flow: Option<FlowId>) -> String {
    match flow {
        Some(f) => f.to_string(),
        None => "-".to_string(),
    }
}

fn ms(d: SimDuration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Renders one entry as an ns-2-style trace line (no trailing newline).
pub fn line(entry: &TraceEntry) -> String {
    let rec = &entry.record;
    let mut s = String::with_capacity(96);
    // Common prefix: op, time, node, layer tag, uid, ptype, size.
    let _ = write!(
        s,
        "{} {} _{}_ {} --- ",
        rec.direction().ns2_op(),
        fmt_time(entry.at),
        rec.node(),
        rec.layer().ns2_tag(),
    );
    match *rec {
        TraceRecord::PhyTx { dst, frame, bytes, uid, .. } => {
            let _ = write!(s, "{} {} {} [-> {}]", uid.unwrap_or(0), frame_token(frame), bytes, dst);
        }
        TraceRecord::PhyRx { from, frame, bytes, uid, .. } => {
            let _ =
                write!(s, "{} {} {} [<- {}]", uid.unwrap_or(0), frame_token(frame), bytes, from);
        }
        TraceRecord::PhyCollision { from, frame, uid, .. } => {
            let _ = write!(s, "{} {} 0 [<- {}] [COL]", uid.unwrap_or(0), frame_token(frame), from);
        }
        TraceRecord::PhyLoss { from, frame, uid, .. } => {
            let _ = write!(s, "{} {} 0 [<- {}] [ERR]", uid.unwrap_or(0), frame_token(frame), from);
        }
        TraceRecord::PhyMove { x, y, .. } => {
            let _ = write!(s, "0 move 0 [x {x:.2} y {y:.2}]");
        }
        TraceRecord::MacBackoff { slots, cw, .. } => {
            let _ = write!(s, "0 backoff 0 [slots {slots} cw {cw}]");
        }
        TraceRecord::MacRetryDrop { next_hop, uid, .. } => {
            let _ = write!(s, "{uid} retry 0 [-> {next_hop}] [RET]");
        }
        TraceRecord::RtrRecv { kind, uid, flow, bytes, .. } => {
            let _ = write!(s, "{uid} {} {bytes} [{}]", kind.ptype(), flow_token(flow));
        }
        TraceRecord::RtrForward { next_hop, kind, uid, flow, bytes, ttl, .. } => {
            let _ = write!(
                s,
                "{uid} {} {bytes} [{} via {next_hop} ttl {ttl}]",
                kind.ptype(),
                flow_token(flow),
            );
        }
        TraceRecord::RtrDrop { kind, uid, flow, .. } => {
            let _ = write!(s, "{uid} {} 0 [{}] [NRTE]", kind.ptype(), flow_token(flow));
        }
        TraceRecord::RtrRouteChange { dst, next_hop, hops, valid, .. } => {
            let via = match next_hop {
                Some(n) => n.to_string(),
                None => "-".to_string(),
            };
            let state = if valid { "valid" } else { "invalid" };
            let _ = write!(s, "0 route 0 [dst {dst} via {via} hops {hops} {state}]");
        }
        TraceRecord::IfqEnqueue { uid, flow, depth, avbw, marked, .. } => {
            let mark = if marked { "marked" } else { "unmarked" };
            let _ = write!(
                s,
                "{uid} enqueue 0 [{} depth {depth} avbw {} {mark}]",
                flow_token(flow),
                drai_token(avbw),
            );
        }
        TraceRecord::IfqDrop { uid, flow, .. } => {
            let _ = write!(s, "{uid} drop 0 [{}] [OVF]", flow_token(flow));
        }
        TraceRecord::TcpSend { flow, seq, uid, bytes, retransmit, .. } => {
            let rtx = if retransmit { " RTX" } else { "" };
            let _ = write!(s, "{uid} tcp {bytes} [{flow} seq {seq}{rtx}]");
        }
        TraceRecord::TcpRecvData { flow, seq, uid, avbw, marked, .. } => {
            let mark = if marked { " CE" } else { "" };
            let _ = write!(s, "{uid} tcp 0 [{flow} seq {seq} avbw {}{mark}]", drai_token(avbw),);
        }
        TraceRecord::TcpAckTx { flow, ack, uid, mrai, .. } => {
            let _ = write!(s, "{uid} ack 40 [{flow} ack {ack} mrai {}]", drai_token(mrai));
        }
        TraceRecord::TcpRecvAck { flow, ack, uid, mrai, .. } => {
            let _ = write!(s, "{uid} ack 0 [{flow} ack {ack} mrai {}]", drai_token(mrai));
        }
        TraceRecord::TcpCwnd { flow, cwnd, ssthresh, srtt, rto, phase, .. } => {
            let ss = match ssthresh {
                Some(v) => format!("{v:.3}"),
                None => "-".to_string(),
            };
            let srtt = match srtt {
                Some(d) => format!("{:.3}", ms(d)),
                None => "-".to_string(),
            };
            let rto = match rto {
                Some(d) => format!("{:.3}", ms(d)),
                None => "-".to_string(),
            };
            let _ = write!(
                s,
                "0 cwnd 0 [{flow} cwnd {cwnd:.3} ssthresh {ss} srtt {srtt} rto {rto} {phase}]"
            );
        }
        TraceRecord::FaultDrop { uid, .. } => {
            let _ = write!(s, "{uid} fault 0 [FLT]");
        }
        TraceRecord::FaultLink { a, b, up } => {
            let state = if up { "up" } else { "down" };
            let _ = write!(s, "0 link 0 [{a} {b} {state}]");
        }
        TraceRecord::FaultNode { up, .. } => {
            let state = if up { "up" } else { "down" };
            let _ = write!(s, "0 node 0 [{state}]");
        }
    }
    s
}

/// Renders a whole trace, one line per entry, with a trailing newline when
/// non-empty.
pub fn render(entries: impl IntoIterator<Item = TraceEntry>) -> String {
    let mut out = String::new();
    for entry in entries {
        out.push_str(&line(&entry));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::NodeId;

    fn entry(at_nanos: u64, record: TraceRecord) -> TraceEntry {
        TraceEntry { at: SimTime::from_nanos(at_nanos), record }
    }

    #[test]
    fn time_formatting_is_integer_exact() {
        assert_eq!(fmt_time(SimTime::from_nanos(0)), "0.000000000");
        assert_eq!(fmt_time(SimTime::from_nanos(1_234_567_890)), "1.234567890");
        assert_eq!(fmt_time(SimTime::from_nanos(10_000_000_001)), "10.000000001");
    }

    #[test]
    fn phy_tx_line_shape() {
        let e = entry(
            1_500_000_000,
            TraceRecord::PhyTx {
                node: NodeId::new(0),
                dst: NodeId::new(1),
                frame: FrameKind::Rts,
                bytes: 20,
                uid: None,
                airtime: SimDuration::from_micros(352),
                cw: 31,
                nav_ahead: SimDuration::ZERO,
            },
        );
        assert_eq!(line(&e), "s 1.500000000 _n0_ MAC --- 0 RTS 20 [-> n1]");
    }

    #[test]
    fn fault_line_shapes() {
        let (a, b) = (NodeId::new(1), NodeId::new(2));
        let at = 4_000_000_000;
        assert_eq!(
            line(&entry(at, TraceRecord::FaultLink { a, b, up: false })),
            "v 4.000000000 _n1_ FLT --- 0 link 0 [n1 n2 down]"
        );
        assert_eq!(
            line(&entry(at, TraceRecord::FaultNode { node: b, up: true })),
            "v 4.000000000 _n2_ FLT --- 0 node 0 [up]"
        );
        assert_eq!(
            line(&entry(at, TraceRecord::FaultDrop { node: b, uid: 77 })),
            "d 4.000000000 _n2_ FLT --- 77 fault 0 [FLT]"
        );
    }

    #[test]
    fn agt_send_line_shape() {
        let e = entry(
            250_000_000,
            TraceRecord::TcpSend {
                node: NodeId::new(0),
                flow: FlowId::new(0),
                seq: 7,
                uid: 12,
                bytes: 1500,
                retransmit: true,
            },
        );
        assert_eq!(line(&e), "s 0.250000000 _n0_ AGT --- 12 tcp 1500 [f0 seq 7 RTX]");
    }

    #[test]
    fn cwnd_line_shape() {
        let e = entry(
            2_000_000_000,
            TraceRecord::TcpCwnd {
                node: NodeId::new(0),
                flow: FlowId::new(0),
                cwnd: 4.5,
                ssthresh: Some(32.0),
                srtt: Some(SimDuration::from_millis(80)),
                rto: None,
                phase: "slow-start",
            },
        );
        assert_eq!(
            line(&e),
            "v 2.000000000 _n0_ AGT --- 0 cwnd 0 \
             [f0 cwnd 4.500 ssthresh 32.000 srtt 80.000 rto - slow-start]"
        );
    }

    #[test]
    fn drop_lines_carry_reason() {
        let col = entry(
            1,
            TraceRecord::PhyCollision {
                node: NodeId::new(2),
                from: NodeId::new(0),
                frame: FrameKind::Data,
                uid: Some(9),
            },
        );
        assert!(line(&col).ends_with("[COL]"));
        let ovf = entry(
            2,
            TraceRecord::IfqDrop { node: NodeId::new(1), uid: 3, flow: Some(FlowId::new(0)) },
        );
        assert!(line(&ovf).ends_with("[OVF]"));
    }

    #[test]
    fn render_joins_with_newlines() {
        let entries = [
            entry(1, TraceRecord::MacBackoff { node: NodeId::new(0), slots: 3, cw: 31 }),
            entry(2, TraceRecord::MacBackoff { node: NodeId::new(1), slots: 0, cw: 31 }),
        ];
        let text = render(entries);
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
        assert_eq!(render(std::iter::empty()), "");
    }
}
