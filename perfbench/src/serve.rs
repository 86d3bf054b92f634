//! `serve_steady`: the serving data plane.
//!
//! The untraced run times `ReplayDriver::run` on the `ReplayConfig::new`
//! shape. The traced run re-drives the same replay from this file on the
//! public `Executor`/`VirtualClock`/`Preemptor`, `ServeCluster`, `wire`
//! and `ResponseFold` API, with spans around each call, and must
//! reproduce `ReplayDriver::run`'s fold digest and counts exactly.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use ioguard_hypervisor::hypervisor::{AdmissionGuard, DegradationPolicy};
use ioguard_obs::VmCounters;
use ioguard_serve::replay::{ReplayConfig, ReplayDriver, ReplayReport, ResponseFold};
use ioguard_serve::wire::{self, Request, Response};
use ioguard_serve::{Executor, ExecutorStats, Preemptor, ServeCluster, ServeConfig};
use ioguard_sim::rng::SplitMix64;
use ioguard_workload::arrivals::{FleetArrivalConfig, FleetArrivals, FleetEvent};

use crate::report::{median, rank_quantile, Checks, Metric};
use crate::trace::Tracer;
use crate::{repeat_for, seconds_since, timed_setup, Measured, Sizes, Traced};

const ACCEPTED: u8 = 4;
const COMPLETED: u8 = 5;

/// The replay configuration of `serve_steady` at `requests` requests.
pub fn replay_config(seed: u64, requests: u64) -> ReplayConfig {
    let mut config = ReplayConfig::new(requests);
    config.seed = seed;
    config
}

/// The deterministic outputs two replays of one config must share.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOutput {
    /// Response-stream fold: per-kind counts and FNV digest.
    pub fold: ResponseFold,
    /// Requests emitted.
    pub requests_sent: u64,
    /// Virtual slots the serve loop ran.
    pub slots: u64,
    /// Counter totals across clients.
    pub totals: VmCounters,
    /// Executor accounting.
    pub exec: ExecutorStats,
    /// Observer-ring overflows.
    pub obs_overflows: u64,
}

impl From<&ReplayReport> for ServeOutput {
    fn from(report: &ReplayReport) -> Self {
        Self {
            fold: report.fold.clone(),
            requests_sent: report.requests_sent,
            slots: report.slots,
            totals: report.counter_totals,
            exec: report.exec,
            obs_overflows: report.obs_overflows,
        }
    }
}

impl ServeOutput {
    /// The log line naming the digest and the counts.
    pub fn line(&self) -> String {
        format!(
            "serve digest={:#018x} responses={} requests_sent={} slots={} completed={} missed={} polls={} rounds={}",
            self.fold.digest(),
            self.fold.total(),
            self.requests_sent,
            self.slots,
            self.totals.completed,
            self.totals.missed,
            self.exec.polls,
            self.exec.rounds
        )
    }
}

/// The output checks of one replay: completions match acceptances, the
/// executor drained, no observer event was lost, and `expected_digest`
/// (when given) matches.
pub fn check_output(out: &ServeOutput, expected_digest: Option<u64>) -> Checks {
    let mut checks = Checks::default();
    checks.equal(
        "serve: completed == accepted",
        out.fold.count_of(ACCEPTED),
        out.fold.count_of(COMPLETED),
    );
    checks.equal("serve: exec.stalled == 0", 0, out.exec.stalled);
    checks.equal("serve: obs_overflows == 0", 0, out.obs_overflows);
    checks.expect(
        "serve: requests were sent",
        out.requests_sent > 0,
        format!("requests_sent={}", out.requests_sent),
    );
    if let Some(expected) = expected_digest {
        checks.equal("serve: digest", expected, out.fold.digest());
    }
    checks
}

fn replay(config: ReplayConfig) -> ReplayReport {
    ReplayDriver::new(config)
        .run()
        .expect("the ReplayConfig::new shape builds a valid cluster")
}

/// The untraced end-to-end run.
pub fn measure(seed: u64, sizes: &Sizes, budget: Duration) -> Measured {
    let config = replay_config(seed, sizes.serve_requests);
    // Set-up: the config plus a small warm-up replay, which builds a
    // cluster and a lifecycle stream the way the timed call does.
    let (setup_s, _) = timed_setup(sizes.setup_repeats, || {
        replay(replay_config(seed, sizes.serve_warmup_requests))
    });

    let mut first: Option<(ServeOutput, ReplayReport)> = None;
    let mut checks = Checks::default();
    let mut mismatched_reps = 0u64;
    let rates = repeat_for(budget, sizes.min_reps, |_| {
        let start = Instant::now();
        let report = replay(config);
        let wall = seconds_since(start);
        let sent = report.requests_sent as f64;
        let out = ServeOutput::from(&report);
        match &first {
            None => first = Some((out, report)),
            Some((reference, _)) => {
                if *reference != out {
                    mismatched_reps += 1;
                }
            }
        }
        (sent, wall)
    });
    let reps = rates.values.len();
    let (out, report) = first.expect("at least one replay ran");
    checks.extend(check_output(&out, None));
    checks.equal(
        "serve: every repetition repeats the first",
        0,
        mismatched_reps,
    );

    let sent = out.requests_sent;
    let completed = out.totals.completed;
    let served_ratio = if sent == 0 {
        0.0
    } else {
        completed as f64 / sent as f64
    };
    let pct = |h: &ioguard_obs::Histogram, p: f64| h.percentile(p).unwrap_or(0) as f64;
    let named = vec![
        Metric::new("serve_req_per_s", median(&rates.values), "req/s"),
        Metric::new("miss_ratio", 1.0 - served_ratio, "ratio"),
        Metric::new(
            "critical_p50_slots",
            pct(&report.e2e_critical, 0.50),
            "slots",
        ),
        Metric::new(
            "critical_p999_slots",
            pct(&report.e2e_critical, 0.999),
            "slots",
        ),
        Metric::new(
            "best_effort_p999_slots",
            pct(&report.e2e_best_effort, 0.999),
            "slots",
        ),
    ];
    let log = vec![
        out.line(),
        format!(
            "serve samples: critical={} best_effort={} deadline_bound_critical={} deadline_bound_best_effort={}",
            report.e2e_critical.count(),
            report.e2e_best_effort.count(),
            report.deadline_bound_critical,
            report.deadline_bound_best_effort
        ),
        format!(
            "serve timed: {reps} replays of {} requests",
            sizes.serve_requests
        ),
    ];
    Measured {
        setup_s,
        attempted: sent * reps as u64,
        failed: 0,
        rates,
        served_ratio,
        named,
        checks,
        log,
    }
}

/// Mirror of the serve configuration `ReplayDriver::run` builds from a
/// `ReplayConfig`, so the traced re-drive runs the identical cluster.
fn serve_config(cfg: &ReplayConfig) -> ServeConfig {
    let per_shard = (cfg.target_resident / cfg.shards.max(1))
        .max(4)
        .saturating_mul(2);
    let mut config = ServeConfig::new(cfg.shards.max(1), per_shard);
    config.frame = cfg.frame;
    config.guard = AdmissionGuard {
        window: 64,
        max_submissions: 16,
        throttle_slots: 128,
    };
    config.degradation = DegradationPolicy {
        healthy_slots_to_recover: 64,
    };
    config.backlog_capacity = 32;
    config.max_clients = u32::try_from(cfg.events).unwrap_or(u32::MAX).max(1);
    config.seed = cfg.seed;
    config
}

#[derive(Debug, Clone, Copy)]
struct ReleaseKey {
    client: u32,
    period: u64,
    wcet: u64,
    deadline_rel: u64,
    critical: bool,
}

struct Shared {
    cluster: ServeCluster,
    pending: Vec<(u32, Bytes)>,
    fold: ResponseFold,
    sent: u64,
    end_slot: Option<u64>,
    tracer: Tracer,
    frames: Vec<Bytes>,
    connects: u64,
    connected: u64,
}

/// Per-layer counts of one traced replay.
struct Redrive {
    out: ServeOutput,
    tracer: Tracer,
    frames: Vec<Bytes>,
    connects: u64,
    connected: u64,
    wall_s: f64,
}

/// The replay loop of `ReplayDriver::run`, driven from here with a span
/// around every call into the serving layers.
fn redrive(cfg: ReplayConfig) -> Redrive {
    let cluster = ServeCluster::new(serve_config(&cfg)).expect("valid serve config");
    let shared = Rc::new(RefCell::new(Shared {
        cluster,
        pending: Vec::new(),
        fold: ResponseFold::new(),
        sent: 0,
        end_slot: None,
        tracer: Tracer::new(),
        frames: Vec::new(),
        connects: 0,
        connected: 0,
    }));
    let start = Instant::now();
    let mut exec = Executor::new();
    let clock = exec.clock();
    let preempt = Preemptor::new(cfg.preempt_quantum.max(1));

    // Task 0: lifecycle churn and periodic request emission.
    {
        let shared = Rc::clone(&shared);
        let clock = clock.clone();
        let preempt = preempt.clone();
        exec.spawn(async move {
            let stream = {
                let mut state = shared.borrow_mut();
                state.tracer.span("replay.arrivals", 0, || {
                    FleetArrivals::generate(&FleetArrivalConfig {
                        events: cfg.events,
                        target_resident: cfg.target_resident,
                        frame: cfg.frame,
                        seed: cfg.seed,
                    })
                })
            };
            let mut lifecycle: VecDeque<FleetEvent> = stream.events().iter().cloned().collect();
            let mut releases: BTreeMap<u64, Vec<ReleaseKey>> = BTreeMap::new();
            let mix = SplitMix64::new(cfg.seed ^ 0x5EED_CAFE);
            let mut next_event_slot = 1u64;
            let mut task_seq = 0u64;
            let mut event_index = 0u64;
            loop {
                let slot = clock.now();
                shared.borrow_mut().tracer.open("replay.gen", slot);
                while next_event_slot <= slot {
                    let Some(event) = lifecycle.pop_front() else {
                        break;
                    };
                    let mut guard = shared.borrow_mut();
                    let state = &mut *guard;
                    match event {
                        FleetEvent::Arrive { vm, server, tasks } => {
                            let client = u32::try_from(vm).unwrap_or(u32::MAX);
                            let resp = state.tracer.span("serve.connect", event_index, || {
                                state.cluster.connect(client, server, &tasks)
                            });
                            let connected = matches!(resp, Response::Connected { .. });
                            state.connects += 1;
                            state.connected += u64::from(connected);
                            state
                                .tracer
                                .span("replay.fold", event_index, || state.fold.push(&resp));
                            if connected {
                                for (idx, task) in tasks.iter().enumerate() {
                                    let tag = (vm << 8) | (idx as u64);
                                    let critical = mix.derive(tag ^ 0xC417) % 10 < 3;
                                    let offset = mix.derive(tag ^ 0x0FF5) % task.period();
                                    let first = slot.saturating_add(1).saturating_add(offset);
                                    releases.entry(first).or_default().push(ReleaseKey {
                                        client,
                                        period: task.period(),
                                        wcet: task.wcet(),
                                        deadline_rel: task.deadline(),
                                        critical,
                                    });
                                }
                            }
                        }
                        FleetEvent::Depart { vm } => {
                            let client = u32::try_from(vm).unwrap_or(u32::MAX);
                            let resp = state.tracer.span("serve.disconnect", event_index, || {
                                state.cluster.disconnect(client)
                            });
                            state
                                .tracer
                                .span("replay.fold", event_index, || state.fold.push(&resp));
                        }
                    }
                    event_index += 1;
                    next_event_slot = next_event_slot.saturating_add(cfg.event_spacing);
                }
                let mut per_client: BTreeMap<u32, BytesMut> = BTreeMap::new();
                loop {
                    let due = releases
                        .first_key_value()
                        .map(|(&at, _)| at <= slot)
                        .unwrap_or(false);
                    if !due {
                        break;
                    }
                    let Some((_, keys)) = releases.pop_first() else {
                        break;
                    };
                    for key in keys {
                        let (connected, budget_left) = {
                            let state = shared.borrow();
                            (
                                state.cluster.connected(key.client),
                                state.sent < cfg.requests,
                            )
                        };
                        if !connected || !budget_left {
                            continue;
                        }
                        task_seq = task_seq.saturating_add(1);
                        let request = Request {
                            client: key.client,
                            task_id: task_seq,
                            wcet: key.wcet,
                            deadline_rel: key.deadline_rel,
                            critical: key.critical,
                            payload: Bytes::copy_from_slice(&task_seq.to_le_bytes()),
                        };
                        let buffer = per_client.entry(key.client).or_default();
                        let mut state = shared.borrow_mut();
                        let encoded = state.tracer.span("wire.encode", task_seq, || {
                            wire::encode_request(&request, buffer)
                        });
                        if encoded.is_ok() {
                            state.sent = state.sent.saturating_add(1);
                        }
                        drop(state);
                        releases
                            .entry(slot.saturating_add(key.period))
                            .or_default()
                            .push(key);
                    }
                }
                {
                    let mut state = shared.borrow_mut();
                    for (client, buffer) in per_client {
                        if !buffer.is_empty() {
                            state.pending.push((client, buffer.freeze()));
                        }
                    }
                    state.tracer.close();
                }
                preempt.work(1);
                preempt.checkpoint().await;
                let sent = shared.borrow().sent;
                let exhausted = releases.is_empty() && lifecycle.is_empty();
                if sent >= cfg.requests || exhausted {
                    shared.borrow_mut().end_slot = Some(slot.saturating_add(cfg.drain_slots));
                    break;
                }
                clock.sleep_until(slot.saturating_add(1)).await;
            }
        });
    }

    // Task 1: the serve loop.
    {
        let shared = Rc::clone(&shared);
        let clock = clock.clone();
        let preempt = preempt.clone();
        exec.spawn(async move {
            loop {
                let slot = clock.now();
                let frame_count = {
                    let mut guard = shared.borrow_mut();
                    let state = &mut *guard;
                    state.tracer.open("replay.serve", slot);
                    let frames = std::mem::take(&mut state.pending);
                    let responses = state.tracer.span("serve.ingest", slot, || {
                        state.cluster.ingest(&frames, cfg.workers)
                    });
                    state.tracer.span("replay.fold", slot, || {
                        for resp in &responses {
                            state.fold.push(resp);
                        }
                    });
                    let responses = state
                        .tracer
                        .span("serve.step", slot, || state.cluster.step());
                    state.tracer.span("replay.fold", slot, || {
                        for resp in &responses {
                            state.fold.push(resp);
                        }
                    });
                    state
                        .frames
                        .extend(frames.iter().map(|(_, bytes)| bytes.clone()));
                    state.tracer.close();
                    frames.len()
                };
                preempt.work(frame_count.max(1) as u64);
                preempt.checkpoint().await;
                let done = {
                    let state = shared.borrow();
                    state.end_slot.map(|end| slot >= end).unwrap_or(false)
                };
                if done {
                    break;
                }
                clock.sleep_until(slot.saturating_add(1)).await;
            }
        });
    }

    let exec_stats = exec.run();
    let wall_s = seconds_since(start);
    drop(exec);
    let state = Rc::try_unwrap(shared)
        .ok()
        .expect("every task finished and dropped its handle")
        .into_inner();
    Redrive {
        out: ServeOutput {
            requests_sent: state.sent,
            slots: state.cluster.now(),
            totals: state.cluster.counters().totals(),
            exec: exec_stats,
            obs_overflows: state.cluster.obs_overflows(),
            fold: state.fold,
        },
        tracer: state.tracer,
        frames: state.frames,
        connects: state.connects,
        connected: state.connected,
        wall_s,
    }
}

/// The traced run: untraced reference, traced re-drive, then one more
/// decode of every captured frame.
pub fn trace(seed: u64, sizes: &Sizes) -> Traced {
    let config = replay_config(seed, sizes.serve_requests);
    let start = Instant::now();
    let reference = ServeOutput::from(&replay(config));
    let untraced_s = seconds_since(start);

    let mut run = redrive(config);
    let mut checks = check_output(&run.out, Some(reference.fold.digest()));
    checks.equal(
        "serve: traced re-drive reproduces ReplayDriver::run",
        &reference,
        &run.out,
    );

    // The wire decode happens inside `ServeCluster::ingest`; time it on
    // the captured frames after the traced pass.
    let mut decode_bytes = 0u64;
    let mut decoded = 0u64;
    let mut decode_errors = 0u64;
    let frames = std::mem::take(&mut run.frames);
    for (index, frame) in frames.iter().enumerate() {
        decode_bytes += frame.len() as u64;
        let mut cursor = frame.clone();
        let (requests, error) = run.tracer.span("wire.decode", index as u64, || {
            wire::decode_stream(&mut cursor)
        });
        decoded += requests.len() as u64;
        decode_errors += u64::from(error.is_some());
    }
    checks.equal("serve: captured frames decode cleanly", 0, decode_errors);
    checks.equal(
        "serve: decoded requests == requests sent",
        run.out.requests_sent,
        decoded,
    );

    let summary = run.tracer.summary();
    let layer = |name: &str| summary.layer(name);
    let covered_s = layer("replay.gen").total_s()
        + layer("replay.serve").total_s()
        + layer("replay.arrivals").total_s();
    let step = layer("serve.step");
    let requests = run.out.requests_sent.max(1) as f64;
    let connects = run.connects.max(1) as f64;
    let metrics = vec![
        Metric::new(
            "wire.encode_calls",
            layer("wire.encode").calls as f64,
            "count",
        ),
        Metric::new("wire.encode_s", layer("wire.encode").total_s(), "s"),
        Metric::new("wire.decode_bytes", decode_bytes as f64, "bytes"),
        Metric::new("wire.decode_s", layer("wire.decode").total_s(), "s"),
        Metric::new("serve.connect_calls", run.connects as f64, "count"),
        Metric::new("serve.connect_s", layer("serve.connect").total_s(), "s"),
        Metric::new(
            "serve.connect_accept_ratio",
            run.connected as f64 / connects,
            "ratio",
        ),
        Metric::new(
            "serve.disconnect_s",
            layer("serve.disconnect").total_s(),
            "s",
        ),
        Metric::new(
            "serve.ingest_calls",
            layer("serve.ingest").calls as f64,
            "count",
        ),
        Metric::new("serve.ingest_s", layer("serve.ingest").total_s(), "s"),
        Metric::new("serve.step_calls", step.calls as f64, "count"),
        Metric::new("serve.step_s", step.total_s(), "s"),
        Metric::new(
            "serve.step_p50_us",
            rank_quantile(&step.durations_ns, 0.50) as f64 / 1e3,
            "us",
        ),
        Metric::new(
            "serve.step_p99_us",
            rank_quantile(&step.durations_ns, 0.99) as f64 / 1e3,
            "us",
        ),
        Metric::new(
            "replay.fold_calls",
            layer("replay.fold").calls as f64,
            "count",
        ),
        Metric::new("replay.fold_s", layer("replay.fold").total_s(), "s"),
        Metric::new(
            "replay.gen_s",
            layer("replay.gen").self_s() + layer("replay.arrivals").total_s(),
            "s",
        ),
        Metric::new("exec.polls", run.out.exec.polls as f64, "count"),
        Metric::new("exec.rounds", run.out.exec.rounds as f64, "count"),
        Metric::new(
            "exec.polls_per_request",
            run.out.exec.polls as f64 / requests,
            "ratio",
        ),
        Metric::new("exec.self_s", (run.wall_s - covered_s).max(0.0), "s"),
        Metric::new(
            "trace.coverage.serve_steady",
            covered_s / run.wall_s,
            "ratio",
        ),
        Metric::new(
            "trace.overhead_pct.serve_steady",
            (run.wall_s / untraced_s - 1.0) * 100.0,
            "%",
        ),
    ];
    let mut log = vec![
        reference.line(),
        format!(
            "  untraced_s={untraced_s:.6} traced_s={:.6} requests={}",
            run.wall_s, run.out.requests_sent
        ),
    ];
    log.extend(summary.table());
    Traced {
        metrics,
        checks,
        log,
        tracer: run.tracer,
    }
}
