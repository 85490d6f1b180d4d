//! Per-layer kernels: each layer's unit of work, timed by calling the
//! layer's public functions directly.
//!
//! The units follow the state-machine steps of the ns-2 802.11 and AODV
//! tutorials: one RTS/CTS/DATA/ACK exchange, one RREQ→RREP discovery, one
//! per-ACK sender step. Every kernel is measured in batches; the figure
//! reported is the cheapest batch's cost per operation — host noise only
//! ever adds time, so the floor is the reading that repeats.

use std::collections::VecDeque;

use aodv::{Aodv, AodvConfig, AodvOutput};
use faultline::InvariantChecker;
use harness::run_batch;
use mac80211::{Mac, MacOutput, MacOutputs, MacParams, MediumView, TimerId};
use muzha::{DraiConfig, MuzhaSender, RouterAgent};
use netstack::{
    DropTailQueue, FlowSpec, RedConfig, RedQueue, SimConfig, Simulator, TcpVariant, TopologySpec,
};
use phy::{Channel, PhyState, Position, RadioParams, TxId};
use sim_core::{EventQueue, SimDuration, SimRng, SimTime, TimerSlab};
use tcp::{RenoSender, TcpConfig, TcpReceiver, Transport};
use tracelog::{TraceLog, TraceRecord};
use wire::{Drai, FlowId, MacFrame, NodeId, Packet, Payload, TcpSegment, UidGen};

use crate::report::Metrics;
use crate::spans::{SpanLog, Timed};
use crate::workloads::{disc_spec, sweep_cell_count, time_sweep, Workload, CITY};

/// How much work the kernels do.
#[derive(Clone, Copy, Debug)]
pub struct KernelBudget {
    /// Host seconds to spend on each kernel (at least three batches run).
    pub secs_per_kernel: f64,
    /// Virtual seconds of the kernels that run a small simulation.
    pub sim_secs: u64,
}

/// Runs per side of each observer-overhead ratio (the minimum counts).
const OVERHEAD_RUNS: usize = 5;

/// What the kernels measured.
#[derive(Clone, Debug)]
pub struct Kernels {
    /// One metric per kernel, in reporting order.
    pub metrics: Metrics,
    /// MAC timers armed per exchange — converts a run's MAC timer events
    /// into exchanges for the computed share.
    pub mac_timers_per_exchange: f64,
}

/// Nanoseconds per operation of the cheapest of repeated batches. `batch`
/// prepares its inputs untimed, then times the operations through
/// [`SpanLog::time`].
fn ns_per_op(
    spans: &mut SpanLog,
    budget: &KernelBudget,
    mut batch: impl FnMut(&mut SpanLog) -> Timed,
) -> f64 {
    let mut floor = f64::INFINITY;
    let mut batches = 0;
    let mut spent = 0.0;
    while batches < 3 || (spent < budget.secs_per_kernel && batches < 2_000) {
        let timed = batch(spans);
        assert!(timed.ops > 0, "a kernel batch did no work");
        floor = floor.min(timed.secs * 1e9 / timed.ops as f64);
        spent += timed.secs;
        batches += 1;
    }
    floor
}

fn node(i: usize) -> NodeId {
    NodeId::new(i as u16)
}

const FLOW: FlowId = FlowId::new(0);

/// A 1500-byte data packet (1460 payload + 40 header), Muzha-stamped.
fn data_packet(uid: u64, src: usize, dst: usize) -> Packet {
    let segment = TcpSegment::data(FLOW, uid, wire::TCP_PAYLOAD_BYTES, Some(Drai::MAX));
    Packet::new(uid, node(src), node(dst), Payload::Tcp(segment))
}

/// Runs every kernel.
pub fn run_all(spans: &mut SpanLog, budget: &KernelBudget) -> Kernels {
    let mut values = Metrics::new();
    let root = spans.enter("kernels");
    values.push("sim-core.hold64_ns_per_op", "ns", hold_model(spans, budget, 64));
    values.push("sim-core.hold1024_ns_per_op", "ns", hold_model(spans, budget, 1024));
    values.push("sim-core.timer_cycle_ns", "ns", timer_cycle(spans, budget));
    values.push("phy.rx_cycle_ns", "ns", rx_cycle(spans, budget));
    values.push("phy.ns_per_event_k4", "ns", clique_ns_per_phy_event(spans, budget, 4));
    values.push("phy.ns_per_event_k32", "ns", clique_ns_per_phy_event(spans, budget, 32));
    values.push("topo.move_ns_n100", "ns", move_cost(spans, budget, &disc_spec()));
    values.push("topo.move_ns_n400", "ns", move_cost(spans, budget, &CITY));
    values.push("topo.build_ms_n400", "ms", channel_build(spans, budget) / 1e6);
    let (exchange_ns, mac_timers_per_exchange) = mac_exchange(spans, budget);
    values.push("mac80211.exchange_ns", "ns", exchange_ns);
    values.push("aodv.discovery_ns", "ns", aodv_discovery(spans, budget));
    values.push("aodv.route_hit_ns", "ns", aodv_route_hit(spans, budget));
    values.push("netstack.ifq_cycle_ns", "ns", ifq_cycle(spans, budget));
    values.push("netstack.red_cycle_ns", "ns", red_cycle(spans, budget));
    let (encode_ns, restore_ns) = snapshot_codec(spans, budget);
    values.push("netstack.snapshot_encode_ns", "ns", encode_ns);
    values.push("netstack.snapshot_restore_ns", "ns", restore_ns);
    values.push("muzha.router_stamp_ns", "ns", router_stamp(spans, budget));
    values.push("muzha.ack_step_ns", "ns", muzha_ack_step(spans, budget));
    values.push("tcp.newreno_ack_step_ns", "ns", newreno_ack_step(spans, budget));
    values.push("tcp.receiver_segment_ns", "ns", receiver_segment(spans, budget));
    values.push("tracelog.record_ns", "ns", trace_record(spans, budget, None));
    values.push("tracelog.ring_record_ns", "ns", trace_record(spans, budget, Some(4096)));
    let overhead = observer_overheads(spans, budget);
    values.push("tracelog.log_overhead_ratio", "ratio", overhead.log);
    values.push("faultline.checker_overhead_ratio", "ratio", overhead.checker);
    values.push("netstack.snapshot_overhead_ratio", "ratio", overhead.snapshot);
    values.push("harness.dispatch_us_per_cell", "us", batch_dispatch(spans, budget) / 1e3);
    values.push("harness.batch_speedup", "ratio", batch_speedup(spans, budget));
    spans.exit(root, values.len() as u64);
    Kernels { metrics: values, mac_timers_per_exchange }
}

// ---------------------------------------------------------------------------
// sim-core
// ---------------------------------------------------------------------------

/// MAC-timer-like increments: 90 % within 10 µs, 10 % within 50 ms.
fn bursty(rng: &mut SimRng) -> SimDuration {
    let bound = if rng.chance(0.9) { 10_000 } else { 50_000_000 };
    SimDuration::from_nanos(u64::from(rng.below(bound)))
}

/// The hold model: keep the queue at `depth`, pop the earliest event and
/// push a replacement at `now + draw`. The two depths bracket the measured
/// peak queues of the chain (69) and of the dense and city runs (614, 832).
fn hold_model(spans: &mut SpanLog, budget: &KernelBudget, depth: usize) -> f64 {
    let mut rng = SimRng::new(0x686f_6c64); // "hold"
    let mut queue: EventQueue<u64> = EventQueue::new();
    for i in 0..depth {
        queue.push(SimTime::ZERO + bursty(&mut rng), i as u64);
    }
    ns_per_op(spans, budget, |spans| {
        spans.time("sim-core.hold", || {
            for i in 0..20_000 {
                let (now, _) = queue.pop().expect("hold model keeps the queue non-empty");
                queue.push(now + bursty(&mut rng), i);
            }
            20_000
        })
    })
}

/// Schedule one timer and cancel the oldest of 64 live ones.
fn timer_cycle(spans: &mut SpanLog, budget: &KernelBudget) -> f64 {
    let mut slab = TimerSlab::new();
    let mut live: Vec<_> = (0..64).map(|_| slab.schedule()).collect();
    ns_per_op(spans, budget, |spans| {
        spans.time("sim-core.timer_cycle", || {
            for i in 0..50_000 {
                let slot = i % live.len();
                std::hint::black_box(slab.cancel(live[slot]));
                live[slot] = slab.schedule();
            }
            50_000
        })
    })
}

// ---------------------------------------------------------------------------
// phy and topo
// ---------------------------------------------------------------------------

/// Reception cycles (`on_rx_start` + `on_rx_end`) at one radio: one alone,
/// then three interferers and a fourth signal landing on top of them.
fn rx_cycle(spans: &mut SpanLog, budget: &KernelBudget) -> f64 {
    let mut phy = PhyState::new();
    let mut next_tx = 0u64;
    ns_per_op(spans, budget, |spans| {
        spans.time("phy.rx_cycle", || {
            let mut cycles = 0;
            for round in 0..4_000u64 {
                let now = SimTime::from_nanos(round * 1_000_000);
                let end = SimTime::from_nanos(round * 1_000_000 + 500_000);
                let first = next_tx;
                phy.on_rx_start(TxId(first), now, end, true, 1.0);
                std::hint::black_box(phy.on_rx_end(TxId(first), end));
                for k in 1..=4 {
                    phy.on_rx_start(TxId(first + k), now, end, true, 1.0);
                }
                for k in 1..=4 {
                    std::hint::black_box(phy.on_rx_end(TxId(first + k), end));
                }
                next_tx += 5;
                cycles += 5;
            }
            cycles
        })
    })
}

/// Host nanoseconds per PHY event of a one-hop Muzha flow with `k` other
/// radios inside carrier-sense range: every transmission fans out to
/// `k + 1` receivers.
fn clique_ns_per_phy_event(spans: &mut SpanLog, budget: &KernelBudget, k: usize) -> f64 {
    let positions: Vec<Position> = (0..k + 2)
        .map(|i| {
            let angle = i as f64 / (k + 2) as f64 * std::f64::consts::TAU;
            Position::new(40.0 * angle.cos(), 40.0 * angle.sin())
        })
        .collect();
    let end = SimTime::ZERO + SimDuration::from_secs(budget.sim_secs);
    ns_per_op(spans, budget, |spans| {
        let mut sim = Simulator::new(positions.clone(), SimConfig::default());
        sim.add_flow(FlowSpec::new(node(0), node(1), TcpVariant::Muzha));
        spans.time("phy.clique_run", || {
            sim.run_until(end);
            sim.perf().phy_events
        })
    })
}

fn placement(spec: &TopologySpec) -> Vec<Position> {
    let radio = RadioParams::default();
    spec.build(radio.tx_range_m, SimConfig::default().seed)
}

/// `Channel::set_position` with mobility-tick-sized steps (±2 m is what a
/// 100 ms tick at top waypoint speed covers), under the default index.
fn move_cost(spans: &mut SpanLog, budget: &KernelBudget, spec: &TopologySpec) -> f64 {
    let mut channel = Channel::new(placement(spec), RadioParams::default());
    let nodes = channel.node_count() as u32;
    let mut rng = SimRng::new(0x6d6f_7665); // "move"
    ns_per_op(spans, budget, |spans| {
        spans.time("topo.move", || {
            for _ in 0..2_000 {
                let who = node(rng.below(nodes) as usize);
                let at = channel.position(who);
                let dx = (rng.unit_f64() - 0.5) * 4.0;
                let dy = (rng.unit_f64() - 0.5) * 4.0;
                std::hint::black_box(
                    channel.set_position(who, Position::new(at.x + dx, at.y + dy)),
                );
            }
            2_000
        })
    })
}

/// Placement generation plus channel and position-index build at N = 400.
fn channel_build(spans: &mut SpanLog, budget: &KernelBudget) -> f64 {
    ns_per_op(spans, budget, |spans| {
        spans.time("topo.build", || {
            let channel = Channel::new(placement(&CITY), RadioParams::default());
            std::hint::black_box(channel.node_count());
            1
        })
    })
}

// ---------------------------------------------------------------------------
// mac80211
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum MacEvent {
    Timer(usize, TimerId),
    TxDone(usize),
    Frame(usize, MacFrame),
}

/// Two MACs in range of each other and the little event loop that stands
/// in for the driver: it executes `Transmit` and `SetTimer` outputs and
/// reports medium state from who is on the air.
struct MacPair {
    macs: [Mac; 2],
    queue: EventQueue<MacEvent>,
    on_air_until: [SimTime; 2],
    now: SimTime,
    delivered: u64,
    timers_armed: u64,
}

impl MacPair {
    fn new() -> Self {
        let mut rng = SimRng::new(0x006d_6163); // "mac"
        MacPair {
            macs: [0, 1].map(|i| Mac::new(node(i), MacParams::default(), rng.fork())),
            queue: EventQueue::new(),
            on_air_until: [SimTime::ZERO; 2],
            now: SimTime::ZERO,
            delivered: 0,
            timers_armed: 0,
        }
    }

    fn medium(&self, who: usize) -> MediumView {
        MediumView { busy: self.on_air_until[1 - who] > self.now }
    }

    fn apply(&mut self, who: usize, outputs: MacOutputs) {
        for output in outputs {
            match output {
                MacOutput::Transmit { frame, airtime } => {
                    let done = self.now + airtime;
                    self.on_air_until[who] = done;
                    self.macs[1 - who].on_medium_busy(self.now);
                    self.queue.push(done, MacEvent::TxDone(who));
                    self.queue.push(done, MacEvent::Frame(1 - who, frame));
                }
                MacOutput::SetTimer { id, at } => {
                    self.timers_armed += 1;
                    self.queue.push(at, MacEvent::Timer(who, id));
                }
                MacOutput::TxSuccess { .. } => self.delivered += 1,
                _ => {}
            }
        }
    }

    /// Sends one packet from MAC 0 to MAC 1 and runs until nothing is
    /// pending (the exchange itself, then any timers it left behind).
    fn exchange(&mut self, uid: u64) {
        let medium = self.medium(0);
        let outputs = self.macs[0].start_packet(data_packet(uid, 0, 1), node(1), self.now, medium);
        self.apply(0, outputs);
        while let Some((at, event)) = self.queue.pop() {
            self.now = at;
            let (who, outputs) = match event {
                MacEvent::Timer(who, id) => {
                    (who, self.macs[who].on_timer(id, at, self.medium(who)))
                }
                MacEvent::TxDone(who) => (who, self.macs[who].on_tx_done(at, self.medium(who))),
                MacEvent::Frame(who, frame) => {
                    (who, self.macs[who].on_frame_decoded(frame, at, self.medium(who)))
                }
            };
            self.apply(who, outputs);
        }
    }
}

/// One RTS/CTS/DATA/ACK exchange for a 1500-byte packet between two MACs.
/// Also returns the timers armed per exchange.
fn mac_exchange(spans: &mut SpanLog, budget: &KernelBudget) -> (f64, f64) {
    let mut pair = MacPair::new();
    let mut sent = 0u64;
    let ns = ns_per_op(spans, budget, |spans| {
        spans.time("mac80211.exchange", || {
            for _ in 0..200 {
                sent += 1;
                pair.exchange(sent);
            }
            200
        })
    });
    assert_eq!(pair.delivered, sent, "every exchange must end in an acknowledged DATA frame");
    (ns, pair.timers_armed as f64 / sent as f64)
}

// ---------------------------------------------------------------------------
// aodv
// ---------------------------------------------------------------------------

/// Three AODV engines in a line, 0 – 1 – 2, and the packet shuttle that
/// stands in for MAC delivery between neighbours.
struct AodvLine {
    engines: [Aodv; 3],
    delivered: u64,
}

impl AodvLine {
    fn new() -> Self {
        AodvLine {
            engines: [0, 1, 2]
                .map(|i| Aodv::new(node(i), AodvConfig::default(), UidGen::new(node(i)))),
            delivered: 0,
        }
    }

    /// Originates `packet` at node 0 and carries every forwarded packet to
    /// its next hop (both neighbours for a broadcast) until none is left.
    fn originate(&mut self, packet: Packet, now: SimTime) {
        let mut in_flight: VecDeque<(usize, usize, Packet)> = VecDeque::new();
        let outputs = self.engines[0].route_packet(packet, now);
        self.collect(0, outputs, &mut in_flight);
        while let Some((from, to, packet)) = in_flight.pop_front() {
            let outputs = self.engines[to].on_packet_received(packet, node(from), now);
            self.collect(to, outputs, &mut in_flight);
        }
    }

    fn collect(
        &mut self,
        at: usize,
        outputs: aodv::AodvOutputs,
        in_flight: &mut VecDeque<(usize, usize, Packet)>,
    ) {
        for output in outputs {
            match output {
                AodvOutput::Forward { packet, next_hop } if next_hop.is_broadcast() => {
                    for to in [at.wrapping_sub(1), at + 1] {
                        if to < self.engines.len() {
                            in_flight.push_back((at, to, packet.clone()));
                        }
                    }
                }
                AodvOutput::Forward { packet, next_hop } => {
                    in_flight.push_back((at, next_hop.index(), packet));
                }
                AodvOutput::DeliverLocal(_) => self.delivered += 1,
                _ => {}
            }
        }
    }
}

/// A full discovery on fresh engines: RREQ flood out, RREP back, and the
/// buffered data packet carried to the destination.
fn aodv_discovery(spans: &mut SpanLog, budget: &KernelBudget) -> f64 {
    let mut delivered = 0;
    let mut started = 0;
    let ns = ns_per_op(spans, budget, |spans| {
        spans.time("aodv.discovery", || {
            for uid in 0..200 {
                let mut line = AodvLine::new();
                line.originate(data_packet(uid, 0, 2), SimTime::ZERO);
                delivered += line.delivered;
            }
            started += 200;
            200
        })
    });
    assert_eq!(delivered, started, "every discovery must deliver its buffered packet");
    ns
}

/// `route_packet` at a source that holds a valid route.
fn aodv_route_hit(spans: &mut SpanLog, budget: &KernelBudget) -> f64 {
    let mut line = AodvLine::new();
    line.originate(data_packet(0, 0, 2), SimTime::ZERO);
    let mut uid = 0;
    ns_per_op(spans, budget, |spans| {
        spans.time("aodv.route_hit", || {
            for _ in 0..20_000 {
                uid += 1;
                let outputs = line.engines[0].route_packet(data_packet(uid, 0, 2), SimTime::ZERO);
                assert!(
                    matches!(outputs.iter().next(), Some(AodvOutput::Forward { .. })),
                    "a valid route must forward"
                );
            }
            20_000
        })
    })
}

// ---------------------------------------------------------------------------
// netstack
// ---------------------------------------------------------------------------

/// Depth the interface-queue kernels hold (half the 50-packet IFQ).
const IFQ_DEPTH: u64 = 25;

/// Drop-tail pop + push at depth 25.
fn ifq_cycle(spans: &mut SpanLog, budget: &KernelBudget) -> f64 {
    let mut queue = DropTailQueue::new(SimConfig::default().ifq_capacity);
    for uid in 0..IFQ_DEPTH {
        queue.push(data_packet(uid, 0, 1), node(1), false);
    }
    ns_per_op(spans, budget, |spans| {
        spans.time("netstack.ifq_cycle", || {
            for _ in 0..20_000 {
                let (packet, next_hop) = queue.pop().expect("the queue is kept at depth");
                std::hint::black_box(queue.push(packet, next_hop, false));
            }
            20_000
        })
    })
}

/// RED pop + push at depth 25 (above the marking threshold, so every push
/// takes the early-detection path).
fn red_cycle(spans: &mut SpanLog, budget: &KernelBudget) -> f64 {
    let mut queue = RedQueue::new(RedConfig::default());
    let mut rng = SimRng::new(0x0072_6564); // "red"
    let mut uid = 0;
    ns_per_op(spans, budget, |spans| {
        // Early drops shrink the queue; top it up outside the timed part.
        while (queue.len() as u64) < IFQ_DEPTH {
            uid += 1;
            queue.push(data_packet(uid, 0, 1), node(1), false, SimTime::ZERO, &mut rng);
        }
        spans.time("netstack.red_cycle", || {
            let mut cycles = 0;
            while cycles < 20_000 {
                let Some((packet, next_hop)) = queue.pop(SimTime::ZERO) else { break };
                std::hint::black_box(queue.push(packet, next_hop, false, SimTime::ZERO, &mut rng));
                cycles += 1;
            }
            cycles
        })
    })
}

fn chain8(seed: u64) -> Simulator {
    Workload::Chain8Muzha.build(seed)
}

/// `Simulator::snapshot` and `Simulator::restore` of a warmed-up 8-hop
/// chain. Returns `(encode ns, restore ns)`.
fn snapshot_codec(spans: &mut SpanLog, budget: &KernelBudget) -> (f64, f64) {
    let mut sim = chain8(11);
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(budget.sim_secs));
    let encode = ns_per_op(spans, budget, |spans| {
        spans.time("netstack.snapshot_encode", || {
            for _ in 0..20 {
                std::hint::black_box(sim.snapshot());
            }
            20
        })
    });
    let bytes = sim.snapshot();
    let mut target = chain8(11);
    let restore = ns_per_op(spans, budget, |spans| {
        spans.time("netstack.snapshot_restore", || {
            for _ in 0..20 {
                target.restore(&bytes).expect("a snapshot restores into its own configuration");
            }
            20
        })
    });
    (encode, restore)
}

// ---------------------------------------------------------------------------
// muzha and tcp
// ---------------------------------------------------------------------------

/// `RouterAgent::process_packet` on a Muzha data packet.
fn router_stamp(spans: &mut SpanLog, budget: &KernelBudget) -> f64 {
    let mut agent = RouterAgent::new(DraiConfig::default());
    let mut packet = data_packet(1, 0, 4);
    ns_per_op(spans, budget, |spans| {
        spans.time("muzha.router_stamp", || {
            for _ in 0..50_000 {
                agent.process_packet(std::hint::black_box(&mut packet), SimTime::ZERO);
            }
            50_000
        })
    })
}

/// The per-ACK step of `sender` in steady state: a loss-free path whose
/// receiver acknowledges every segment in order, one millisecond apart.
/// The ACKs of a batch are produced beforehand by a real receiver fed the
/// data segments the sender will have sent.
fn ack_step(
    spans: &mut SpanLog,
    budget: &KernelBudget,
    name: &'static str,
    mut sender: impl Transport,
    avbw: Option<Drai>,
) -> f64 {
    let payload = TcpConfig::default().payload_bytes;
    let mut receiver = TcpReceiver::new(FLOW, false);
    let mut seq = 0u64;
    let at = |seq: u64| SimTime::from_nanos(seq * 1_000_000);
    std::hint::black_box(sender.open(SimTime::ZERO));
    ns_per_op(spans, budget, |spans| {
        let acks: Vec<(TcpSegment, SimTime)> = (0..5_000)
            .map(|_| {
                seq += 1;
                let data = TcpSegment::data(FLOW, seq - 1, payload, avbw);
                (receiver.on_data_segment(&data, at(seq)), at(seq))
            })
            .collect();
        spans.time(name, || {
            for (ack, now) in &acks {
                std::hint::black_box(sender.on_ack_segment(ack, *now));
            }
            acks.len() as u64
        })
    })
}

fn muzha_ack_step(spans: &mut SpanLog, budget: &KernelBudget) -> f64 {
    let sender = MuzhaSender::new(FLOW, TcpConfig::default());
    // Routers that keep recommending moderate acceleration take the window
    // to the advertised limit, where it stays.
    ack_step(spans, budget, "muzha.ack_step", sender, Some(Drai::ModerateAcceleration))
}

fn newreno_ack_step(spans: &mut SpanLog, budget: &KernelBudget) -> f64 {
    let sender = RenoSender::new_reno(FLOW, TcpConfig::default());
    ack_step(spans, budget, "tcp.newreno_ack_step", sender, None)
}

/// `TcpReceiver::on_data_segment` for in-order segments.
fn receiver_segment(spans: &mut SpanLog, budget: &KernelBudget) -> f64 {
    let payload = TcpConfig::default().payload_bytes;
    ns_per_op(spans, budget, |spans| {
        let mut receiver = TcpReceiver::new(FLOW, false);
        spans.time("tcp.receiver_segment", || {
            for seq in 0..10_000u64 {
                let data = TcpSegment::data(FLOW, seq, payload, Some(Drai::MAX));
                std::hint::black_box(receiver.on_data_segment(&data, SimTime::from_nanos(seq)));
            }
            10_000
        })
    })
}

// ---------------------------------------------------------------------------
// observers
// ---------------------------------------------------------------------------

/// `TraceLog::record` into an unbounded log (`ring == None`) or a flight
/// recorder of `ring` entries.
fn trace_record(spans: &mut SpanLog, budget: &KernelBudget, ring: Option<usize>) -> f64 {
    let name = if ring.is_some() { "tracelog.ring_record" } else { "tracelog.record" };
    ns_per_op(spans, budget, |spans| {
        let mut log = ring.map_or_else(TraceLog::new, TraceLog::flight_recorder);
        spans.time(name, || {
            for i in 0..20_000u32 {
                let record = TraceRecord::MacBackoff { node: node(0), slots: i % 32, cw: 31 };
                log.record(SimTime::from_nanos(u64::from(i)), record);
            }
            20_000
        })
    })
}

/// Host-time ratios of the plain 8-hop chain with one observer live to the
/// same chain with none.
struct Overheads {
    log: f64,
    checker: f64,
    snapshot: f64,
}

fn observer_overheads(spans: &mut SpanLog, budget: &KernelBudget) -> Overheads {
    let secs = budget.sim_secs * 4;
    let mut fastest = |name: &'static str, install: fn(&mut Simulator), snapshots: bool| {
        (0..OVERHEAD_RUNS)
            .map(|_| {
                let mut sim = chain8(11);
                install(&mut sim);
                spans
                    .time(name, || {
                        for s in 1..=secs {
                            sim.run_until(SimTime::ZERO + SimDuration::from_secs(s));
                            if snapshots {
                                std::hint::black_box(sim.snapshot());
                            }
                        }
                        sim.perf().events_processed
                    })
                    .secs
            })
            .fold(f64::INFINITY, f64::min)
    };
    let plain = fastest("overhead.plain", |_| {}, false);
    let log = fastest("overhead.trace_log", |sim| sim.install_trace_log(TraceLog::new()), false);
    let checker =
        fastest("overhead.checker", |sim| sim.install_checker(InvariantChecker::new()), false);
    let snapshot = fastest("overhead.snapshot", |_| {}, true);
    Overheads { log: log / plain, checker: checker / plain, snapshot: snapshot / plain }
}

// ---------------------------------------------------------------------------
// harness
// ---------------------------------------------------------------------------

/// `run_batch` over cells that do nothing, at one worker per core: what
/// the batch engine itself costs per cell (worker start-up included).
fn batch_dispatch(spans: &mut SpanLog, budget: &KernelBudget) -> f64 {
    let cells = [0u64; 256];
    ns_per_op(spans, budget, |spans| {
        spans.time("harness.dispatch", || {
            let out = run_batch(&cells, 0, |&cell, index| cell + index as u64);
            std::hint::black_box(out).len() as u64
        })
    })
}

/// The paper sweep (shortened) at one worker over the same sweep at one
/// worker per core.
fn batch_speedup(spans: &mut SpanLog, budget: &KernelBudget) -> f64 {
    let mut timed = |name: &'static str, jobs: usize| {
        let mut secs = 0.0;
        spans.time(name, || {
            secs = time_sweep(11, budget.sim_secs, jobs);
            sweep_cell_count()
        });
        secs
    };
    let serial = timed("harness.sweep_serial", 1);
    let parallel = timed("harness.sweep_parallel", 0);
    serial / parallel
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_pair_completes_a_four_way_exchange() {
        let mut pair = MacPair::new();
        pair.exchange(1);
        pair.exchange(2);
        assert_eq!(pair.delivered, 2);
        assert!(pair.queue.is_empty());
        let stats = pair.macs[0].stats();
        assert_eq!((stats.rts_sent, stats.data_sent, stats.drops), (2, 2, 0));
        assert!(pair.timers_armed >= 2 * 6, "DIFS, CTS wait, SIFS ×3, ACK wait per exchange");
    }

    #[test]
    fn aodv_line_discovers_and_delivers() {
        let mut line = AodvLine::new();
        line.originate(data_packet(7, 0, 2), SimTime::ZERO);
        assert_eq!(line.delivered, 1);
        assert_eq!(line.engines[0].stats().discoveries, 1);
        assert!(line.engines[0].has_route(node(2), SimTime::ZERO));
        assert_eq!(line.engines[1].stats().rreq_sent, 1, "the relay rebroadcasts once");
    }
}
