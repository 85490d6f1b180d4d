//! Random Early Detection (RED) queue with optional ECN marking — the
//! standardised router-assisted mechanism the paper positions DRAI against
//! (§3.2: RED/ECN give only "single-bit congestion-status information").
//!
//! A standalone queue: no node runs it. The simulator's interface queue is
//! the paper's drop-tail IFQ ([`crate::DropTailQueue`], Table 5.1).

use sim_core::stats::Ewma;
use sim_core::{SimDuration, SimRng, SimTime};
use std::collections::VecDeque;

use wire::{NodeId, Packet};

use crate::queue::QueueStats;

/// RED parameters (ns-2 defaults scaled to the paper's 50-packet IFQ).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RedConfig {
    /// Average queue length below which nothing is dropped or marked.
    pub min_threshold: f64,
    /// Average queue length at or above which everything is dropped/marked.
    pub max_threshold: f64,
    /// Drop/mark probability as the average reaches `max_threshold`.
    pub max_probability: f64,
    /// EWMA weight for the average queue length (ns-2 `q_weight_`).
    pub queue_weight: f64,
    /// When true, TCP data packets are ECN-marked instead of dropped in the
    /// early-detection band (they are still dropped at the hard limit).
    pub ecn: bool,
    /// Hard capacity in packets.
    pub capacity: usize,
    /// Nominal per-packet service time used to decay the average across
    /// idle periods (ns-2 RED's idle-time correction): after the queue sits
    /// empty for `idle`, the average is aged by `idle / idle_service_time`
    /// EWMA periods, as if that many zero-length samples had been taken.
    /// Default: one 1500-byte packet at the paper's 2 Mbps links.
    pub idle_service_time: SimDuration,
}

impl Default for RedConfig {
    fn default() -> Self {
        RedConfig {
            min_threshold: 5.0,
            max_threshold: 15.0,
            max_probability: 0.1,
            queue_weight: 0.002,
            ecn: true,
            capacity: 50,
            idle_service_time: SimDuration::from_micros(6_300),
        }
    }
}

impl RedConfig {
    /// Validates threshold ordering.
    ///
    /// # Panics
    ///
    /// Panics on inverted thresholds, an out-of-range probability or
    /// weight, or zero capacity.
    pub fn validate(&self) {
        assert!(
            0.0 <= self.min_threshold && self.min_threshold < self.max_threshold,
            "RED thresholds must satisfy 0 <= min < max"
        );
        assert!((0.0..=1.0).contains(&self.max_probability), "probability out of range");
        assert!(self.queue_weight > 0.0 && self.queue_weight <= 1.0, "weight out of range");
        assert!(self.capacity > 0, "capacity must be positive");
        assert!(self.idle_service_time > SimDuration::ZERO, "idle service time must be positive");
    }
}

/// What RED decided to do with an arriving packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RedOutcome {
    /// Stored without interference.
    Enqueued,
    /// Stored, but the packet was ECN-marked (early congestion signal).
    EnqueuedMarked,
    /// Dropped; the packet is returned to the caller for statistics.
    /// `early` distinguishes probabilistic early detection from hard-limit
    /// overflow (and from priority evictions, which are never early).
    Dropped {
        /// The shed packet (may differ from the arrival on priority evict).
        packet: Packet,
        /// Whether early detection, rather than overflow, shed it.
        early: bool,
    },
}

/// A RED queue with the same interface shape as
/// [`crate::DropTailQueue`], plus probabilistic early marking/dropping.
#[derive(Debug)]
pub struct RedQueue {
    items: VecDeque<(Packet, NodeId)>,
    cfg: RedConfig,
    avg: Ewma,
    stats: QueueStats,
    early_marks: u64,
    early_drops: u64,
    /// When the queue last drained to empty; pending idle-time decay.
    idle_since: Option<SimTime>,
}

impl RedQueue {
    /// Creates a RED queue.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is inconsistent.
    pub fn new(cfg: RedConfig) -> Self {
        cfg.validate();
        RedQueue {
            items: VecDeque::new(),
            avg: Ewma::new(cfg.queue_weight),
            cfg,
            stats: QueueStats::default(),
            early_marks: 0,
            early_drops: 0,
            idle_since: None,
        }
    }

    /// Enqueues a packet. Control (`priority`) packets bypass RED entirely
    /// and jump the queue, like in the drop-tail IFQ — they neither suffer
    /// early action nor *sample* the average, so a routing-control flood
    /// cannot skew the drop probability the data packets see.
    pub fn push(
        &mut self,
        mut packet: Packet,
        next_hop: NodeId,
        priority: bool,
        now: SimTime,
        rng: &mut SimRng,
    ) -> RedOutcome {
        if priority {
            if self.items.len() >= self.cfg.capacity {
                // Evict newest data to protect routing control.
                if let Some((evicted, _)) = self
                    .items
                    .iter()
                    .rposition(|(p, _)| !p.is_control())
                    .and_then(|idx| self.items.remove(idx))
                {
                    self.items.push_front((packet, next_hop));
                    self.stats.dropped += 1;
                    return RedOutcome::Dropped { packet: evicted, early: false };
                }
                self.stats.dropped += 1;
                return RedOutcome::Dropped { packet, early: false };
            }
            self.items.push_front((packet, next_hop));
            return RedOutcome::Enqueued;
        }
        // ns-2 RED idle-time correction: age the average across the gap the
        // queue sat empty, else the first arrival after an idle period is
        // judged by a stale, inflated average.
        if let Some(since) = self.idle_since.take() {
            let idle = now - since;
            self.avg.age(idle.as_secs_f64() / self.cfg.idle_service_time.as_secs_f64());
        }
        self.avg.update(self.items.len() as f64);
        if self.items.len() >= self.cfg.capacity {
            self.stats.dropped += 1;
            return RedOutcome::Dropped { packet, early: false };
        }
        let avg = self.avg.value();
        if avg >= self.cfg.max_threshold {
            if self.cfg.ecn && packet.is_tcp_data() {
                self.mark(&mut packet);
                self.items.push_back((packet, next_hop));
                return RedOutcome::EnqueuedMarked;
            }
            self.early_drops += 1;
            self.stats.dropped += 1;
            return RedOutcome::Dropped { packet, early: true };
        }
        if avg > self.cfg.min_threshold {
            let p = self.cfg.max_probability * (avg - self.cfg.min_threshold)
                / (self.cfg.max_threshold - self.cfg.min_threshold);
            if rng.chance(p) {
                if self.cfg.ecn && packet.is_tcp_data() {
                    self.mark(&mut packet);
                    self.items.push_back((packet, next_hop));
                    return RedOutcome::EnqueuedMarked;
                }
                self.early_drops += 1;
                self.stats.dropped += 1;
                return RedOutcome::Dropped { packet, early: true };
            }
        }
        self.items.push_back((packet, next_hop));
        RedOutcome::Enqueued
    }

    fn mark(&mut self, packet: &mut Packet) {
        if let Some(seg) = packet.tcp_mut() {
            seg.set_congestion_mark();
        }
        self.early_marks += 1;
    }

    /// Removes the packet at the head of the queue. `now` starts the idle
    /// clock when this pop drains the queue.
    pub fn pop(&mut self, now: SimTime) -> Option<(Packet, NodeId)> {
        let item = self.items.pop_front();
        if item.is_some() && self.items.is_empty() {
            self.idle_since = Some(now);
        }
        item
    }

    /// Current queue length in packets.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Queue statistics.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Packets ECN-marked by early detection.
    pub fn early_marks(&self) -> u64 {
        self.early_marks
    }

    /// Packets dropped by early detection (excludes hard-limit drops).
    pub fn early_drops(&self) -> u64 {
        self.early_drops
    }

    /// The smoothed average queue length RED currently sees.
    pub fn average_len(&self) -> f64 {
        self.avg.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::{FlowId, Payload, TcpSegment, TcpSegmentKind};

    fn data(uid: u64) -> Packet {
        Packet::new(
            uid,
            NodeId::new(0),
            NodeId::new(1),
            Payload::Tcp(TcpSegment::data(FlowId::new(0), 0, 1460, None)),
        )
    }

    fn rreq(uid: u64) -> Packet {
        use wire::{AodvMessage, RouteRequest};
        Packet::new(
            uid,
            NodeId::new(0),
            NodeId::BROADCAST,
            Payload::Aodv(AodvMessage::Rreq(RouteRequest {
                origin: NodeId::new(0),
                origin_seq: 1,
                broadcast_id: u32::try_from(uid).unwrap(),
                dst: NodeId::new(4),
                dst_seq: 0,
                hop_count: 0,
            })),
        )
    }

    fn hop() -> NodeId {
        NodeId::new(1)
    }

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    fn fast_cfg(ecn: bool) -> RedConfig {
        // Heavy weight so the average responds within a test.
        RedConfig { queue_weight: 0.5, ecn, ..RedConfig::default() }
    }

    fn is_marked(p: &Packet) -> bool {
        matches!(p.tcp().unwrap().kind, TcpSegmentKind::Data { marked: true, .. })
    }

    #[test]
    fn below_min_threshold_nothing_happens() {
        let mut q = RedQueue::new(fast_cfg(true));
        let mut rng = SimRng::new(1);
        for uid in 0..4 {
            assert_eq!(q.push(data(uid), hop(), false, t0(), &mut rng), RedOutcome::Enqueued);
        }
        assert_eq!(q.early_marks(), 0);
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn sustained_backlog_marks_with_ecn() {
        let mut q = RedQueue::new(fast_cfg(true));
        let mut rng = SimRng::new(1);
        let mut marked = 0;
        for uid in 0..60 {
            match q.push(data(uid), hop(), false, t0(), &mut rng) {
                RedOutcome::EnqueuedMarked => marked += 1,
                RedOutcome::Dropped { .. } => {}
                RedOutcome::Enqueued => {}
            }
        }
        assert!(marked > 0, "ECN must mark under sustained backlog");
        assert_eq!(q.early_marks(), marked);
        assert_eq!(q.early_drops(), 0, "ECN mode never early-drops data");
    }

    #[test]
    fn sustained_backlog_drops_without_ecn() {
        let mut q = RedQueue::new(fast_cfg(false));
        let mut rng = SimRng::new(1);
        let mut dropped = 0;
        for uid in 0..60 {
            if matches!(
                q.push(data(uid), hop(), false, t0(), &mut rng),
                RedOutcome::Dropped { early: true, .. }
            ) {
                dropped += 1;
            }
        }
        assert!(dropped > 0);
        assert!(q.early_drops() > 0);
        assert_eq!(q.early_marks(), 0);
    }

    #[test]
    fn hard_limit_always_drops() {
        // ECN on, but the hard capacity still protects memory.
        let cfg = RedConfig { capacity: 10, ..fast_cfg(true) };
        let mut q = RedQueue::new(cfg);
        let mut rng = SimRng::new(1);
        for uid in 0..30 {
            let _ = q.push(data(uid), hop(), false, t0(), &mut rng);
        }
        assert!(q.len() <= 10);
        assert!(q.stats().dropped > 0);
    }

    #[test]
    fn marked_packet_carries_the_bit() {
        let mut q = RedQueue::new(RedConfig {
            min_threshold: 0.0,
            max_threshold: 0.5,
            queue_weight: 1.0,
            ..fast_cfg(true)
        });
        let mut rng = SimRng::new(1);
        let _ = q.push(data(0), hop(), false, t0(), &mut rng);
        // avg is now 0 -> after update with len 1... push another: avg >= max.
        let outcome = q.push(data(1), hop(), false, t0(), &mut rng);
        assert_eq!(outcome, RedOutcome::EnqueuedMarked);
        let _ = q.pop(t0());
        let (p, _) = q.pop(t0()).unwrap();
        assert!(is_marked(&p), "the stored packet must carry the ECN mark");
    }

    #[test]
    fn control_bypasses_red() {
        use wire::{AodvMessage, RouteError};
        let cfg = RedConfig {
            min_threshold: 0.0,
            max_threshold: 0.1,
            queue_weight: 1.0,
            ecn: false,
            ..RedConfig::default()
        };
        let mut q = RedQueue::new(cfg);
        let mut rng = SimRng::new(1);
        let _ = q.push(data(0), hop(), false, t0(), &mut rng);
        let ctl = Packet::new(
            9,
            NodeId::new(0),
            NodeId::BROADCAST,
            Payload::Aodv(AodvMessage::Rerr(RouteError { unreachable: vec![] })),
        );
        assert_eq!(q.push(ctl, hop(), true, t0(), &mut rng), RedOutcome::Enqueued);
        assert_eq!(q.pop(t0()).unwrap().0.uid, 9, "control jumps the queue");
    }

    #[test]
    #[should_panic(expected = "thresholds")]
    fn inverted_thresholds_rejected() {
        let _ = RedQueue::new(RedConfig {
            min_threshold: 20.0,
            max_threshold: 10.0,
            ..RedConfig::default()
        });
    }

    #[test]
    fn idle_gap_ages_average_no_early_action_on_fresh_burst() {
        // Regression: without the ns-2 idle-time correction, the average is
        // frozen at its pre-idle value while the queue sits empty, so the
        // first packets of a fresh burst ten seconds later were still
        // early-marked/dropped against a backlog that no longer exists.
        let mut q = RedQueue::new(fast_cfg(false));
        let mut rng = SimRng::new(1);
        for uid in 0..40 {
            let _ = q.push(data(uid), hop(), false, t0(), &mut rng);
        }
        assert!(q.average_len() > q.cfg.max_threshold, "backlog must saturate the average");
        let drain_done = SimTime::from_secs_f64(1.0);
        while q.pop(drain_done).is_some() {}
        assert!(q.is_empty());
        let drops_during_backlog = q.early_drops();

        // 10 s idle ≫ idle_service_time: the average must decay to ~zero,
        // so a fresh 4-packet burst sees no early action at all.
        let later = SimTime::from_secs_f64(11.0);
        for uid in 100..104 {
            assert_eq!(
                q.push(data(uid), hop(), false, later, &mut rng),
                RedOutcome::Enqueued,
                "fresh burst after a long idle gap must not suffer early action"
            );
        }
        assert!(
            q.average_len() < q.cfg.min_threshold,
            "idle decay must pull the average below min_threshold, got {}",
            q.average_len()
        );
        assert_eq!(q.early_drops(), drops_during_backlog, "no early drops on the post-idle burst");
    }

    #[test]
    fn control_flood_does_not_skew_data_average() {
        // Regression: priority pushes used to sample the average before
        // branching, so an RREQ flood (tens of same-instant control packets)
        // inflated the average and raised the drop probability for the data
        // packets that followed.
        let mut q = RedQueue::new(fast_cfg(false));
        let mut rng = SimRng::new(1);
        for uid in 0..200 {
            let _ = q.push(rreq(uid), hop(), true, t0(), &mut rng);
        }
        assert_eq!(q.average_len(), 0.0, "control packets must not feed the RED average");
        while q.pop(t0()).is_some() {}
        for uid in 1000..1004 {
            assert_eq!(
                q.push(data(uid), hop(), false, t0(), &mut rng),
                RedOutcome::Enqueued,
                "data after a control flood must see an untouched average"
            );
        }
        assert_eq!(q.early_drops(), 0);
    }
}
