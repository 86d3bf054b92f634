//! `fleet_churn`: the admission control plane.
//!
//! A `FleetArrivals` stream applied event by event to an 8-shard
//! worst-fit `Fleet`: the Theorem-3 local gate plus `DemandLedger`
//! probe/admit/evict, spillover and departures, with no wire, executor
//! or slot loop.

use std::time::{Duration, Instant};

use ioguard_fleet::shard::locally_schedulable;
use ioguard_fleet::{Decision, Fleet, FleetConfig, FleetStats, PlacementPolicy};
use ioguard_workload::arrivals::{FleetArrivalConfig, FleetArrivals, FleetEvent};

use crate::report::{median, rank_quantile, Checks, Metric};
use crate::trace::Tracer;
use crate::{repeat_for, seconds_since, timed_setup, Measured, Sizes, Traced};

/// Hypervisor shards of the fleet.
const SHARDS: usize = 8;
/// Analysis frame of the churn stream and the shards.
const FRAME: u64 = 4096;

/// The churn stream of `fleet_churn`.
pub fn stream(seed: u64, sizes: &Sizes) -> FleetArrivals {
    FleetArrivals::generate(&FleetArrivalConfig {
        events: sizes.fleet_events,
        target_resident: sizes.fleet_target,
        frame: FRAME,
        seed,
    })
}

/// A fresh fleet for `fleet_churn` (placement ties broken by `seed`).
fn new_fleet(seed: u64) -> Fleet {
    let mut config = FleetConfig::new(SHARDS, PlacementPolicy::WorstFitBySlack, seed);
    config.frame = FRAME;
    Fleet::new(config).expect("the canonical shard shape is valid")
}

/// Decision counts by kind, in `Decision` declaration order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct DecisionCounts {
    placed: u64,
    local_rejects: u64,
    spilled: u64,
    dropped: u64,
    departed: u64,
    spill_cancelled: u64,
    spill_placed: u64,
}

impl DecisionCounts {
    fn add(&mut self, decision: &Decision) {
        let slot = match decision {
            Decision::Placed { .. } => &mut self.placed,
            Decision::LocalReject { .. } => &mut self.local_rejects,
            Decision::Spilled { .. } => &mut self.spilled,
            Decision::Dropped { .. } => &mut self.dropped,
            Decision::Departed { .. } => &mut self.departed,
            Decision::SpillCancelled { .. } => &mut self.spill_cancelled,
            Decision::SpillPlaced { .. } => &mut self.spill_placed,
        };
        *slot += 1;
    }
}

/// The state after one pass over the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FleetOutput {
    /// The fleet's own books.
    pub stats: FleetStats,
    /// Decisions counted from the returned decision lists.
    pub decisions: DecisionCounts,
    /// Resident VMs at the end.
    pub resident: u64,
    /// VMs parked in spillover at the end.
    pub parked: u64,
    /// Sum of `Shard::events_applied` over the shards.
    pub events_applied: u64,
}

impl FleetOutput {
    fn of(fleet: &Fleet, decisions: DecisionCounts) -> Self {
        Self {
            stats: fleet.stats(),
            decisions,
            resident: fleet.resident_count() as u64,
            parked: fleet.spilled_vms().count() as u64,
            events_applied: fleet.shards().iter().map(|s| s.events_applied()).sum(),
        }
    }

    /// The log line naming the books.
    fn line(&self) -> String {
        let s = &self.stats;
        format!(
            "fleet placed={} local_rejects={} spilled={} dropped={} departed={} spill_cancelled={} spill_placed={} probes={} delta_events={} resident={} parked={}",
            s.placed, s.local_rejects, s.spilled, s.dropped, s.departed, s.spill_cancelled,
            s.spill_placed, s.probes, s.delta_events, self.resident, self.parked
        )
    }
}

/// Conservation of the decision books against the stream: every arrival
/// gets exactly one verdict, every departure of a resident or parked VM
/// exactly one, the fleet's counters equal the returned decisions, and
/// residents and parked VMs equal what was placed minus what left.
fn check_conservation(stream: &FleetArrivals, out: &FleetOutput) -> Checks {
    let arrivals = stream
        .events()
        .iter()
        .filter(|e| matches!(e, FleetEvent::Arrive { .. }))
        .count() as u64;
    let departures = stream.events().len() as u64 - arrivals;
    let s = &out.stats;
    let d = &out.decisions;
    let mut checks = Checks::default();
    checks.equal(
        "fleet: arrivals == placed + local_rejects + spilled + dropped",
        arrivals,
        s.placed + s.local_rejects + s.spilled + s.dropped,
    );
    checks.expect(
        "fleet: departures >= departed + spill_cancelled",
        departures >= s.departed + s.spill_cancelled,
        format!(
            "departures={departures} departed={} spill_cancelled={}",
            s.departed, s.spill_cancelled
        ),
    );
    checks.equal(
        "fleet: decisions == FleetStats",
        (
            s.placed,
            s.local_rejects,
            s.spilled,
            s.dropped,
            s.departed,
            s.spill_cancelled,
            s.spill_placed,
        ),
        (
            d.placed,
            d.local_rejects,
            d.spilled,
            d.dropped,
            d.departed,
            d.spill_cancelled,
            d.spill_placed,
        ),
    );
    checks.equal(
        "fleet: resident == placed + spill_placed - departed",
        (s.placed + s.spill_placed).checked_sub(s.departed),
        Some(out.resident),
    );
    checks.equal(
        "fleet: parked == spilled - spill_placed - spill_cancelled",
        s.spilled.checked_sub(s.spill_placed + s.spill_cancelled),
        Some(out.parked),
    );
    checks
}

/// One untraced pass: every `Fleet::apply` timed on its own.
fn timed_pass(seed: u64, stream: &FleetArrivals, call_ns: &mut Vec<u64>) -> (FleetOutput, f64) {
    let mut fleet = new_fleet(seed);
    let mut counts = DecisionCounts::default();
    call_ns.clear();
    let start = Instant::now();
    for event in stream.events() {
        let call = Instant::now();
        let decisions = fleet.apply(event);
        call_ns.push(u64::try_from(call.elapsed().as_nanos()).unwrap_or(u64::MAX));
        for decision in &decisions {
            counts.add(decision);
        }
    }
    let wall = seconds_since(start);
    (FleetOutput::of(&fleet, counts), wall)
}

/// The untraced end-to-end run.
pub fn measure(seed: u64, sizes: &Sizes, budget: Duration) -> Measured {
    // Set-up: generate the churn stream and build the fleet.
    let (setup_s, stream) = timed_setup(sizes.setup_repeats, || {
        let stream = stream(seed, sizes);
        std::hint::black_box(new_fleet(seed));
        stream
    });
    let calls = stream.events().len() as u64;

    let mut first: Option<FleetOutput> = None;
    let mut mismatched_reps = 0u64;
    let mut p50s = Vec::new();
    let mut p99s = Vec::new();
    let mut call_ns = Vec::with_capacity(stream.events().len());
    let rates = repeat_for(budget, sizes.min_reps, |_| {
        let (out, wall) = timed_pass(seed, &stream, &mut call_ns);
        call_ns.sort_unstable();
        p50s.push(rank_quantile(&call_ns, 0.50) as f64 / 1e3);
        p99s.push(rank_quantile(&call_ns, 0.99) as f64 / 1e3);
        match &first {
            None => first = Some(out),
            Some(reference) => mismatched_reps += u64::from(*reference != out),
        }
        (calls as f64, wall)
    });
    let reps = rates.values.len();
    let out = first.expect("at least one pass ran");
    let mut checks = check_conservation(&stream, &out);
    checks.equal(
        "fleet: every repetition repeats the first",
        0,
        mismatched_reps,
    );

    let arrivals =
        out.stats.placed + out.stats.local_rejects + out.stats.spilled + out.stats.dropped;
    let served_ratio = (out.stats.placed + out.stats.spill_placed) as f64 / arrivals.max(1) as f64;
    let named = vec![
        Metric::new("fleet_decisions_per_s", median(&rates.values), "1/s"),
        Metric::new("fleet_decision_p50_us", median(&p50s), "us"),
        Metric::new("fleet_decision_p99_us", median(&p99s), "us"),
        Metric::new("fleet_placed_ratio", served_ratio, "ratio"),
    ];
    let log = vec![
        out.line(),
        format!(
            "fleet samples: {calls} apply calls per pass; p50/p99 are medians over {reps} passes"
        ),
    ];
    Measured {
        setup_s,
        attempted: calls * reps as u64,
        failed: out.stats.dropped * reps as u64,
        rates,
        served_ratio,
        named,
        checks,
        log,
    }
}

/// The traced run: untraced reference pass, traced pass with a span per
/// `Fleet::apply`, then the Theorem-3 local gate timed on every arrival.
pub fn trace(seed: u64, sizes: &Sizes) -> Traced {
    let mut tracer = Tracer::new();
    let stream = tracer.span("workload.arrivals", 0, || stream(seed, sizes));
    let mut call_ns = Vec::new();
    let (reference, untraced_s) = timed_pass(seed, &stream, &mut call_ns);

    let mut fleet = new_fleet(seed);
    let mut counts = DecisionCounts::default();
    let loop_start_ns = tracer.spans().len();
    let start = Instant::now();
    for (index, event) in stream.events().iter().enumerate() {
        let name = match event {
            FleetEvent::Arrive { .. } => "fleet.arrive",
            FleetEvent::Depart { .. } => "fleet.depart",
        };
        let decisions = tracer.span(name, index as u64, || fleet.apply(event));
        for decision in &decisions {
            counts.add(decision);
        }
    }
    let traced_s = seconds_since(start);
    let out = FleetOutput::of(&fleet, counts);
    let apply_spans = tracer.spans().len() - loop_start_ns;

    let mut local_ok = 0u64;
    for (index, event) in stream.events().iter().enumerate() {
        if let FleetEvent::Arrive { server, tasks, .. } = event {
            local_ok += u64::from(tracer.span("gate.local", index as u64, || {
                locally_schedulable(server, tasks)
            }));
        }
    }

    let mut checks = check_conservation(&stream, &out);
    checks.equal(
        "fleet: traced pass reproduces the untraced FleetStats",
        &reference,
        &out,
    );
    checks.equal(
        "fleet: gate verdicts == arrivals - local_rejects",
        out.stats.placed + out.stats.spilled + out.stats.dropped,
        local_ok,
    );

    let summary = tracer.summary();
    let layer = |name: &str| summary.layer(name);
    let arrive = layer("fleet.arrive");
    let depart = layer("fleet.depart");
    let mut apply_ns: Vec<u64> = arrive
        .durations_ns
        .iter()
        .chain(&depart.durations_ns)
        .copied()
        .collect();
    apply_ns.sort_unstable();
    let covered_s = arrive.total_s() + depart.total_s();
    let s = &out.stats;
    let metrics = vec![
        Metric::new("fleet.arrive_calls", arrive.calls as f64, "count"),
        Metric::new("fleet.arrive_s", arrive.total_s(), "s"),
        Metric::new("fleet.depart_calls", depart.calls as f64, "count"),
        Metric::new("fleet.depart_s", depart.total_s(), "s"),
        Metric::new(
            "fleet.apply_p50_us",
            rank_quantile(&apply_ns, 0.50) as f64 / 1e3,
            "us",
        ),
        Metric::new(
            "fleet.apply_p99_us",
            rank_quantile(&apply_ns, 0.99) as f64 / 1e3,
            "us",
        ),
        Metric::new("fleet.probes", s.probes as f64, "count"),
        Metric::new("fleet.placed", s.placed as f64, "count"),
        Metric::new("fleet.spilled", s.spilled as f64, "count"),
        Metric::new("fleet.spill_placed", s.spill_placed as f64, "count"),
        Metric::new("fleet.local_rejects", s.local_rejects as f64, "count"),
        Metric::new("fleet.dropped", s.dropped as f64, "count"),
        Metric::new(
            "fleet.placed_per_probe",
            (s.placed + s.spill_placed) as f64 / s.probes.max(1) as f64,
            "ratio",
        ),
        Metric::new("ledger.events_applied", out.events_applied as f64, "count"),
        Metric::new(
            "gate.local_calls",
            layer("gate.local").calls as f64,
            "count",
        ),
        Metric::new("gate.local_s", layer("gate.local").total_s(), "s"),
        Metric::new(
            "workload.arrivals_s",
            layer("workload.arrivals").total_s(),
            "s",
        ),
        Metric::new("trace.coverage.fleet_churn", covered_s / traced_s, "ratio"),
        Metric::new(
            "trace.overhead_pct.fleet_churn",
            (traced_s / untraced_s - 1.0) * 100.0,
            "%",
        ),
    ];
    let mut log = vec![
        out.line(),
        format!(
            "  untraced_s={untraced_s:.6} traced_s={traced_s:.6} apply_spans={apply_spans} events_applied={}",
            out.events_applied
        ),
    ];
    log.extend(summary.table());
    Traced {
        metrics,
        checks,
        log,
        tracer,
    }
}
