//! `noc_saturated`: the mesh fabric.
//!
//! An 8×8 `Network` offered a 30% per-node packet injection chance every
//! cycle (4-flit packets: header plus 3 payload flits, uniform
//! destinations), then drained. The injection schedule is generated
//! before timing; packets an injection queue refuses are counted, not
//! retried.

use std::time::{Duration, Instant};

use ioguard_noc::network::{Delivery, Network, NetworkConfig, NetworkStats};
use ioguard_noc::packet::{Packet, PacketKind};
use ioguard_noc::topology::NodeId;
use ioguard_sim::rng::{SplitMix64, Xoshiro256StarStar};

use crate::report::{median, Checks, Metric};
use crate::trace::Tracer;
use crate::{repeat_for, seconds_since, timed_setup, Measured, Sizes, Traced};

/// Mesh side length.
const SIDE: u16 = 8;
/// Per-node, per-cycle injection chance.
const INJECTION_CHANCE: f64 = 0.30;
/// Payload flits per packet (plus one header flit).
const PAYLOAD_FLITS: u32 = 3;
/// Cycle cap of the drain (far above what a drain needs).
const DRAIN_CAP: u64 = 10_000_000;

/// The pre-generated offered traffic: per cycle, `(src, dst)` node
/// indices, in node order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// `cycle_end[c]` is one past the last offer of cycle `c`.
    pub cycle_end: Vec<usize>,
    /// Offered packets as `(src, dst)` node indices.
    pub offers: Vec<(u8, u8)>,
}

impl Schedule {
    /// Generates `cycles` cycles of uniform traffic from `seed`.
    pub fn generate(seed: u64, cycles: u64) -> Self {
        let nodes = u64::from(SIDE) * u64::from(SIDE);
        let mut rng = Xoshiro256StarStar::new(SplitMix64::new(seed).derive(0x0C0C));
        let mut cycle_end = Vec::with_capacity(cycles as usize);
        let mut offers = Vec::new();
        for _ in 0..cycles {
            for src in 0..nodes {
                if rng.chance(INJECTION_CHANCE) {
                    let mut dst = rng.range_u64(0, nodes - 1);
                    if dst >= src {
                        dst += 1;
                    }
                    offers.push((src as u8, dst as u8));
                }
            }
            cycle_end.push(offers.len());
        }
        Self { cycle_end, offers }
    }

    /// The offers of each cycle, in order.
    fn cycles(&self) -> impl Iterator<Item = &[(u8, u8)]> {
        let starts = std::iter::once(0).chain(self.cycle_end.iter().copied());
        starts
            .zip(self.cycle_end.iter().copied())
            .map(|(start, end)| &self.offers[start..end])
    }
}

fn node(index: u8) -> NodeId {
    NodeId::new(u16::from(index) % SIDE, u16::from(index) / SIDE)
}

fn packet(id: u64, (src, dst): (u8, u8)) -> Packet {
    Packet::new(
        id,
        PacketKind::Memory,
        node(src),
        node(dst),
        PAYLOAD_FLITS,
        0,
    )
    .expect("a packet with payload flits is valid")
}

/// A fresh 8×8 mesh with the evaluation defaults.
fn new_network() -> Network {
    Network::new(NetworkConfig::mesh(SIDE, SIDE)).expect("an 8x8 mesh is valid")
}

/// The outputs two runs of one schedule must share.
#[derive(Debug, Clone, PartialEq, Eq)]
struct NocOutput {
    /// The fabric's counters.
    pub stats: NetworkStats,
    /// Packets offered.
    pub offered: u64,
    /// Packets the injection queues accepted.
    pub accepted: u64,
    /// Packets still in flight after the drain.
    pub in_flight: u64,
    /// Summed delivery latency in cycles.
    pub latency_sum: u64,
    /// Final cycle.
    pub cycles: u64,
}

impl NocOutput {
    fn of(net: &Network, offered: u64, accepted: u64) -> Self {
        Self {
            stats: net.stats(),
            offered,
            accepted,
            in_flight: net.in_flight() as u64,
            latency_sum: net.deliveries().iter().map(|d| d.latency().raw()).sum(),
            cycles: net.now().raw(),
        }
    }

    /// Mean delivery latency in cycles.
    fn avg_latency(&self) -> f64 {
        self.latency_sum as f64 / self.stats.delivered.max(1) as f64
    }

    /// The log line naming the counters.
    fn line(&self) -> String {
        let s = &self.stats;
        format!(
            "noc offered={} accepted={} delivered={} flit_hops={} contention_cycles={} dropped={} corrupted={} in_flight={} cycles={} latency_sum={}",
            self.offered, self.accepted, s.delivered, s.flit_hops, s.contention_cycles,
            s.dropped, s.corrupted, self.in_flight, self.cycles, self.latency_sum
        )
    }
}

/// Every accepted packet is delivered, intact, by the end of the drain.
fn check_output(out: &NocOutput) -> Checks {
    let mut checks = Checks::default();
    checks.equal(
        "noc: delivered == accepted",
        out.accepted,
        out.stats.delivered,
    );
    checks.equal("noc: nothing in flight after drain", 0, out.in_flight);
    checks.equal(
        "noc: no dropped or corrupted packets",
        (0, 0),
        (out.stats.dropped, out.stats.corrupted),
    );
    checks.expect(
        "noc: packets were accepted",
        out.accepted > 0,
        format!("accepted={}", out.accepted),
    );
    checks
}

/// One untraced pass over the schedule.
fn pass(schedule: &Schedule) -> (NocOutput, f64) {
    let mut net = new_network();
    let mut scratch: Vec<Delivery> = Vec::new();
    let mut accepted = 0u64;
    let start = Instant::now();
    let mut id = 0u64;
    for offers in schedule.cycles() {
        for &offer in offers {
            id += 1;
            accepted += u64::from(net.inject(packet(id, offer)).is_ok());
        }
        net.step_into(&mut scratch);
        scratch.clear();
    }
    net.run_until_idle_into(DRAIN_CAP, &mut scratch);
    let wall = seconds_since(start);
    (NocOutput::of(&net, id, accepted), wall)
}

/// The untraced end-to-end run.
pub fn measure(seed: u64, sizes: &Sizes, budget: Duration) -> Measured {
    // Set-up: generate the injection schedule and build the mesh.
    let (setup_s, schedule) = timed_setup(sizes.setup_repeats, || {
        let schedule = Schedule::generate(seed, sizes.noc_cycles);
        std::hint::black_box(new_network());
        schedule
    });
    let mut first: Option<NocOutput> = None;
    let mut mismatched_reps = 0u64;
    let mut cycle_rates = Vec::new();
    let rates = repeat_for(budget, sizes.min_reps, |_| {
        let (out, wall) = pass(&schedule);
        let hops = out.stats.flit_hops as f64;
        cycle_rates.push(out.cycles as f64 / wall);
        match &first {
            None => first = Some(out),
            Some(reference) => mismatched_reps += u64::from(*reference != out),
        }
        (hops, wall)
    });
    let reps = rates.values.len();
    let out = first.expect("at least one pass ran");
    let mut checks = check_output(&out);
    checks.equal(
        "noc: every repetition repeats the first",
        0,
        mismatched_reps,
    );
    let served_ratio = out.accepted as f64 / out.offered.max(1) as f64;
    let named = vec![
        Metric::new("noc_flit_hops_per_s", median(&rates.values), "1/s"),
        Metric::new("noc_cycles_per_s", median(&cycle_rates), "1/s"),
        Metric::new("noc_avg_latency_cycles", out.avg_latency(), "cycles"),
        Metric::new("noc_accept_ratio", served_ratio, "ratio"),
    ];
    let log = vec![
        out.line(),
        format!(
            "noc timed: {reps} passes of {} injection cycles",
            sizes.noc_cycles
        ),
    ];
    Measured {
        setup_s,
        attempted: out.offered * reps as u64,
        failed: 0,
        rates,
        served_ratio,
        named,
        checks,
        log,
    }
}

/// The traced run: untraced reference pass, then a pass with a span
/// around every `inject`, every `step_into` and the drain.
pub fn trace(seed: u64, sizes: &Sizes) -> Traced {
    let schedule = Schedule::generate(seed, sizes.noc_cycles);
    let (reference, untraced_s) = pass(&schedule);

    let mut tracer = Tracer::new();
    let mut net = new_network();
    let mut scratch: Vec<Delivery> = Vec::new();
    let mut accepted = 0u64;
    let mut id = 0u64;
    let start = Instant::now();
    for (cycle, offers) in schedule.cycles().enumerate() {
        for &offer in offers {
            id += 1;
            let packet = packet(id, offer);
            let verdict = tracer.span("noc.inject", id, || net.inject(packet));
            accepted += u64::from(verdict.is_ok());
        }
        tracer.span("noc.step", cycle as u64, || net.step_into(&mut scratch));
        scratch.clear();
    }
    tracer.span("noc.drain", 0, || {
        net.run_until_idle_into(DRAIN_CAP, &mut scratch)
    });
    let traced_s = seconds_since(start);
    let out = NocOutput::of(&net, id, accepted);

    let mut checks = check_output(&out);
    checks.equal(
        "noc: traced pass reproduces the untraced NetworkStats",
        &reference,
        &out,
    );

    let summary = tracer.summary();
    let inject = summary.layer("noc.inject");
    let step = summary.layer("noc.step");
    let s = &out.stats;
    let metrics = vec![
        Metric::new("noc.inject_calls", inject.calls as f64, "count"),
        Metric::new(
            "noc.inject_refused",
            (out.offered - out.accepted) as f64,
            "count",
        ),
        Metric::new("noc.inject_s", inject.total_s(), "s"),
        Metric::new("noc.step_calls", step.calls as f64, "count"),
        Metric::new("noc.step_s", step.total_s(), "s"),
        Metric::new("noc.drain_s", summary.layer("noc.drain").total_s(), "s"),
        Metric::new("noc.flit_hops", s.flit_hops as f64, "count"),
        Metric::new("noc.delivered", s.delivered as f64, "count"),
        Metric::new("noc.contention_cycles", s.contention_cycles as f64, "count"),
        Metric::new(
            "trace.coverage.noc_saturated",
            summary.coverage(traced_s),
            "ratio",
        ),
        Metric::new(
            "trace.overhead_pct.noc_saturated",
            (traced_s / untraced_s - 1.0) * 100.0,
            "%",
        ),
    ];
    let mut log = vec![
        out.line(),
        format!("  untraced_s={untraced_s:.6} traced_s={traced_s:.6}"),
    ];
    log.extend(summary.table());
    Traced {
        metrics,
        checks,
        log,
        tracer,
    }
}
