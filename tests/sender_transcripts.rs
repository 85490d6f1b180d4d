//! The sender oracle: every TCP sender construction — the nine
//! `TcpVariant::ALL` plus Muzha under the per-ACK cadence — driven
//! directly (no network underneath) by seeded scripts of in-order ACKs,
//! dup-ACK runs, partial and full ACKs, SACK blocks, `ooo` and marked ACKs
//! at every DRAI level, live and stale timer firings and ACKs for data never
//! sent, with everything the sender emits and shows folded into one digest
//! per construction and compared against rows committed by an earlier build
//! (`tests/fixtures/sender_transcripts.txt`).
//!
//! The corpus runs NewReno and Muzha and `reproduce` the four paper
//! variants; this fixture is what pins Tahoe, Reno, Veno, Westwood and DOOR
//! across commits, and what pins *all* of them at the level of single
//! `TcpOutput`s rather than whole-simulation hashes. It folds no snapshot
//! byte, so a snapshot format change leaves it alone.

#![allow(clippy::cast_possible_truncation, reason = "test inputs are small generated values")]

use tcp_muzha::muzha::AdjustmentCadence;
use tcp_muzha::net::TcpVariant;
use tcp_muzha::sim::{SimDuration, SimRng, SimTime, TraceHash};
use tcp_muzha::transport::{
    Sender, TcpConfig, TcpOutput, TcpStats, TcpTimer, Transport, VegasConfig,
};
use tcp_muzha::wire::{Drai, FlowId, SackBlock, TcpSegment, TcpSegmentKind};

const FLOW: u32 = 7;
const STEPS: usize = 3_000;

/// The ten constructions, in fixture order.
const ROWS: [(&str, TcpVariant, AdjustmentCadence); 10] = [
    ("Tahoe", TcpVariant::Tahoe, AdjustmentCadence::PerRtt),
    ("Reno", TcpVariant::Reno, AdjustmentCadence::PerRtt),
    ("NewReno", TcpVariant::NewReno, AdjustmentCadence::PerRtt),
    ("SACK", TcpVariant::Sack, AdjustmentCadence::PerRtt),
    ("Vegas", TcpVariant::Vegas, AdjustmentCadence::PerRtt),
    ("Veno", TcpVariant::Veno, AdjustmentCadence::PerRtt),
    ("Westwood", TcpVariant::Westwood, AdjustmentCadence::PerRtt),
    ("DOOR", TcpVariant::Door, AdjustmentCadence::PerRtt),
    ("Muzha", TcpVariant::Muzha, AdjustmentCadence::PerRtt),
    ("Muzha-PerAck", TcpVariant::Muzha, AdjustmentCadence::PerAck),
];

/// The transport configurations every construction is scripted under. The
/// dup-ACK threshold stays at its default in all of them.
fn configs() -> [(TcpConfig, VegasConfig); 4] {
    let d = TcpConfig::default();
    [
        (d, VegasConfig::default()),
        (
            TcpConfig { advertised_window: 8, initial_ssthresh: 6.0, ..d },
            VegasConfig { alpha: 2.0, beta: 4.0, gamma: 2.0 },
        ),
        (TcpConfig { advertised_window: 4, initial_cwnd: 3.0, ..d }, VegasConfig::default()),
        (
            TcpConfig {
                advertised_window: 64,
                initial_ssthresh: 20.0,
                min_rto: SimDuration::from_millis(50),
                initial_rto: SimDuration::from_millis(400),
                ..d
            },
            VegasConfig { alpha: 1.0, beta: 6.0, gamma: 3.0 },
        ),
    ]
}

/// How likely each kind of step is, in percent, during one era of a script:
/// `[new ACK, dup-ACK run, old ACK, ACK for unsent data, full ACK, live
/// timer, stale timer]`.
const ERAS: [[u32; 7]; 3] = [
    [78, 8, 3, 2, 5, 1, 3],    // calm: the window grows
    [45, 30, 4, 4, 8, 3, 6],   // lossy: dup-ACK runs, recoveries, partial ACKs
    [30, 12, 5, 8, 5, 25, 15], // outage: timeouts back to back
];

/// One scripted conversation with `tx`, folded into `h`.
struct Script {
    rng: SimRng,
    now: SimTime,
    /// Every timer the sender has asked for, oldest first.
    timers: Vec<(TcpTimer, SimTime)>,
    /// Dup ACKs still to deliver in the current run.
    dup_run: u32,
    /// The window after the last call, and how many calls have moved it
    /// (opening the flow counts): the `TcpCwnd` records a driver would write.
    cwnd: Option<f64>,
    cwnd_moves: u64,
    h: TraceHash,
}

impl Script {
    fn ack(&mut self, ack: u64, una: u64, nxt: u64, bias: u32) -> TcpSegment {
        let rng = &mut self.rng;
        // The echoed MRAI: absent, or a level drawn toward the era's bias
        // (0 accelerate, 1 uniform, 2 decelerate).
        let mrai = match rng.below(8) {
            0 => None,
            _ => {
                let level = match bias {
                    0 => 2 + rng.below(3),
                    1 => rng.below(5),
                    _ => rng.below(3),
                };
                Some(Drai::ALL[level as usize])
            }
        };
        let mut sack = Vec::new();
        if ack <= una && nxt > una + 1 && rng.chance(0.6) {
            let span = (nxt - una - 1) as u32;
            for _ in 0..1 + rng.below(2) {
                let start = una + 1 + u64::from(rng.below(span));
                sack.push(SackBlock::new(start, (start + 1 + u64::from(rng.below(3))).min(nxt)));
            }
        }
        if rng.chance(0.03) {
            sack.push(SackBlock::new(nxt + 2, nxt + 4)); // data never sent
        }
        TcpSegment {
            flow: FlowId::new(FLOW),
            kind: TcpSegmentKind::Ack {
                ack,
                mrai,
                marked: rng.chance(0.3),
                ooo: rng.chance(0.04),
                sack,
            },
        }
    }

    fn fold_outputs(&mut self, out: Vec<TcpOutput>) {
        self.h.write_u64(out.len() as u64);
        for o in out {
            match o {
                TcpOutput::SendSegment(seg) => {
                    let TcpSegmentKind::Data { seq, payload_bytes, avbw, marked, retransmit } =
                        seg.kind
                    else {
                        panic!("a sender emitted a non-data segment: {seg:?}");
                    };
                    self.h.write_u64(1).write_u64(u64::from(seg.flow.index() as u32));
                    self.h.write_u64(seq).write_u64(u64::from(payload_bytes));
                    self.h.write_u64(avbw.map_or(0, |d| u64::from(d.code())));
                    self.h.write_u64(u64::from(marked) << 1 | u64::from(retransmit));
                }
                TcpOutput::SetTimer { id, at } => {
                    self.h.write_u64(2).write_u64(id.0).write_u64(at.as_nanos());
                    self.timers.push((id, at));
                }
            }
        }
    }

    fn fold_state(&mut self, tx: &impl Transport) {
        if self.cwnd.replace(tx.cwnd()) != Some(tx.cwnd()) {
            self.cwnd_moves += 1;
        }
        let s = tx.send_state();
        self.h.write_u64(s.una).write_u64(s.nxt);
        self.h.write_f64(tx.cwnd());
        self.h.write_u64(tx.ssthresh().map_or(u64::MAX, f64::to_bits));
        self.h.write_str(tx.phase());
        let st = tx.stats();
        for n in [
            st.segments_sent,
            st.retransmissions,
            st.timeouts,
            st.fast_retransmits,
            st.acked_segments,
            st.dupacks,
            tx.timers_cancelled(),
            tx.rto().map_or(u64::MAX, SimDuration::as_nanos),
            tx.srtt().map_or(u64::MAX, SimDuration::as_nanos),
            self.cwnd_moves,
        ] {
            self.h.write_u64(n);
        }
    }

    fn run(&mut self, mut tx: impl Transport) -> TcpStats {
        let tx = &mut tx;
        self.h.write_str(tx.name()).write_u64(u64::from(tx.flow().index() as u32));
        let out = tx.open(self.now);
        self.fold_outputs(out);
        self.fold_state(tx);
        let mut era = ERAS[0];
        let mut bias = 0;
        for step in 0..STEPS {
            if step % 150 == 0 {
                era = ERAS[self.rng.below(3) as usize];
                bias = self.rng.below(3);
            }
            let (una, nxt) = (tx.send_state().una, tx.send_state().nxt);
            let flight = nxt.saturating_sub(una);
            let in_run = self.dup_run > 0;
            self.now += SimDuration::from_millis(if in_run {
                1 + u64::from(self.rng.below(3))
            } else {
                1 + u64::from(self.rng.below(40))
            });
            let mut roll = self.rng.below(100);
            let kind = if in_run {
                1
            } else {
                era.iter()
                    .position(|&w| {
                        let hit = roll < w;
                        roll = roll.saturating_sub(w);
                        hit
                    })
                    .unwrap_or(0)
            };
            let out = match kind {
                0 => {
                    // A new ACK: usually the next segment, sometimes a jump
                    // (a partial or full ACK when in recovery). With nothing
                    // in flight this acknowledges data never sent.
                    let k = if self.rng.chance(0.7) {
                        1
                    } else {
                        1 + u64::from(self.rng.below(flight.clamp(1, 6) as u32))
                    };
                    let seg = self.ack(una + k, una, nxt, bias);
                    tx.on_ack_segment(&seg, self.now)
                }
                1 => {
                    if !in_run {
                        self.dup_run = 1 + self.rng.below(7);
                    }
                    self.dup_run -= 1;
                    let seg = self.ack(una, una, nxt, bias);
                    tx.on_ack_segment(&seg, self.now)
                }
                2 => {
                    let back = u64::from(self.rng.below(4)).min(una);
                    let seg = self.ack(una - back, una, nxt, bias);
                    tx.on_ack_segment(&seg, self.now)
                }
                3 => {
                    // Past `nxt`: past everything sent, or — after a timeout
                    // rewound `nxt` — inside what was sent once.
                    let ack = if self.rng.chance(0.2) {
                        nxt + 0x8000_0000
                    } else {
                        nxt + 1 + u64::from(self.rng.below(12))
                    };
                    let seg = self.ack(ack, una, nxt, bias);
                    tx.on_ack_segment(&seg, self.now)
                }
                4 => {
                    let seg = self.ack(nxt, una, nxt, bias);
                    tx.on_ack_segment(&seg, self.now)
                }
                5 => match self.timers.last().copied() {
                    // The newest timer asked for: live unless cancelled.
                    Some((id, at)) => {
                        self.now = self.now.max(at);
                        tx.on_timer(id, self.now)
                    }
                    None => Vec::new(),
                },
                _ => {
                    let n = self.timers.len().saturating_sub(1).max(1) as u32;
                    match self.timers.get(self.rng.below(n) as usize).copied() {
                        Some((id, _)) => tx.on_timer(id, self.now),
                        None => Vec::new(),
                    }
                }
            };
            self.h.write_u64(kind as u64).write_u64(self.now.as_nanos());
            self.fold_outputs(out);
            self.fold_state(tx);
        }
        tx.stats()
    }
}

/// One fixture row: the construction's name, the digest over all four
/// scripts, and — so that a moved row says something and thin coverage
/// shows — what the scripts added up to.
fn row(name: &str, variant: TcpVariant, cadence: AdjustmentCadence) -> String {
    let mut h = TraceHash::new();
    let (mut sent, mut retx, mut timeouts, mut frs, mut acked) = (0, 0, 0, 0, 0);
    for (i, (cfg, vegas)) in configs().into_iter().enumerate() {
        let seed = 0x5E4D_E200 + (i as u64) * 0x1_0001;
        let mut script = Script {
            rng: SimRng::new(seed),
            now: SimTime::from_nanos(i as u64 * 250_000_000),
            timers: Vec::new(),
            dup_run: 0,
            cwnd: None,
            cwnd_moves: 0,
            h: TraceHash::new(),
        };
        let st = script.run(Sender::new(FlowId::new(FLOW), variant, cfg, vegas, cadence));
        h.write_u64(script.h.digest());
        sent += st.segments_sent;
        retx += st.retransmissions;
        timeouts += st.timeouts;
        frs += st.fast_retransmits;
        acked += st.acked_segments;
    }
    format!("{name} {:016x} {sent} {retx} {timeouts} {frs} {acked}", h.digest())
}

#[test]
fn sender_transcripts_match_the_committed_fixture() {
    let rows: Vec<String> = ROWS.iter().map(|&(n, v, c)| row(n, v, c)).collect();
    let committed: Vec<&str> = include_str!("fixtures/sender_transcripts.txt")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    assert!(
        rows == committed,
        "a sender's behaviour changed against tests/fixtures/sender_transcripts.txt; this build \
         produces:\n{}\n",
        rows.join("\n")
    );
}
