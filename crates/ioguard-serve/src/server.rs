//! The serving core: shards, bindings, backpressure, typed verdicts.
//!
//! A [`ServeCluster`] owns a row of shards, each pairing a
//! [`ioguard_fleet::shard::Shard`] (the Theorem 1 demand ledger that
//! answers *connection* admission) with a [`Hypervisor`] (σ*-driven
//! dispatch plus the [`AdmissionGuard`] answering *per-request* rate
//! admission). A client connects by declaring its periodic server
//! `Γ = (Π, Θ)` and task set — the Theorem 3 local gate and worst-fit
//! ledger placement decide shard and pool — then streams request frames
//! which are decoded zero-copy ([`crate::wire`]), buffered in a
//! **bounded** per-client backlog, and submitted to the shard's
//! hypervisor at the next slot boundary. A client that disconnects with
//! requests still queued gets each of them back as
//! `Rejected(NotConnected)` at that boundary.
//!
//! Every fate a request can meet comes back as exactly one typed
//! [`Response`]: `Accepted` (admitted to the pool), `Completed` (with
//! end-to-end latency), `Missed`, `Throttled` (flood control), `Shed`
//! (backlog overflow or degradation), or `Rejected` (typed reason).
//! Degradation mode changes are broadcast to every client of the shard
//! exactly once per transition.
//!
//! The cluster keeps its own [`TraceSink`] keyed by *client* id and a
//! live [`CounterRegistry`] folded at the same call sites, so
//! `CounterRegistry::from_events` over the serve trace reproduces the
//! live counters — the discipline the golden/differential tests pin.

use std::collections::{BTreeSet, VecDeque};
use std::fmt;

use bytes::Bytes;
use ioguard_fleet::shard::{locally_schedulable, Shard};
use ioguard_hypervisor::driver::RetryPolicy;
use ioguard_hypervisor::hypervisor::{AdmissionGuard, DegradationPolicy, HvMode, RtJob};
use ioguard_hypervisor::{HvError, Hypervisor, HypervisorParams};
use ioguard_obs::{
    CounterRegistry, Histogram, ObsEvent, ObsKind, TraceSink, VmCounters, SYSTEM_VM,
};
use ioguard_sched::{PeriodicServer, TaskSet, TimeSlotTable};
use ioguard_sim::rng::SplitMix64;

use crate::wire::{self, RejectReason, Request, Response};

/// Marker codes carried in the `task` field of serve-level
/// [`ObsKind::Marker`] trace events.
pub mod markers {
    /// A client connected; `arg` = shard index.
    pub const CONNECT: u64 = 1;
    /// A client disconnected; `arg` = shard index.
    pub const DISCONNECT: u64 = 2;
    /// An undecodable frame arrived; `arg` = [`crate::wire::WireError`]
    /// ordinal.
    pub const MALFORMED: u64 = 3;
}

/// Saturating id conversion for trace fields (the workspace idiom).
fn trace_id(x: u64) -> u32 {
    u32::try_from(x).unwrap_or(u32::MAX)
}

fn trace_idx(x: usize) -> u32 {
    u32::try_from(x).unwrap_or(u32::MAX)
}

/// Tuning for a [`ServeCluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Number of shards (ledger + hypervisor pairs).
    pub shards: usize,
    /// Hypervisor pools per shard — the per-shard connection ceiling.
    pub pools_per_shard: usize,
    /// Fleet analysis frame handed to each shard's demand ledger.
    pub frame: u64,
    /// Per-request flood control applied at every shard.
    pub guard: AdmissionGuard,
    /// Watchdog retry policy (enables fault-driven degradation).
    pub watchdog: Option<RetryPolicy>,
    /// Graceful-degradation recovery tuning.
    pub degradation: DegradationPolicy,
    /// Hardware pool depth per client.
    pub pool_capacity: usize,
    /// Bound of each client's decode→dispatch backlog; overflow sheds.
    pub backlog_capacity: usize,
    /// Client-id registry size; ids at or above this are refused.
    pub max_clients: u32,
    /// Serve trace ring capacity (drop-oldest beyond it).
    pub trace_capacity: usize,
    /// Per-shard hypervisor observer ring capacity (drained every slot).
    pub hv_obs_capacity: usize,
    /// Seed for deterministic placement tie-breaks.
    pub seed: u64,
}

impl ServeConfig {
    /// A config with calibrated defaults for `shards`×`pools_per_shard`.
    pub fn new(shards: usize, pools_per_shard: usize) -> Self {
        Self {
            shards,
            pools_per_shard,
            frame: 4096,
            guard: AdmissionGuard {
                window: 64,
                max_submissions: 8,
                throttle_slots: 128,
            },
            watchdog: None,
            degradation: DegradationPolicy::default(),
            pool_capacity: 32,
            backlog_capacity: 16,
            max_clients: 4096,
            trace_capacity: 1 << 16,
            hv_obs_capacity: 1 << 14,
            seed: 0x00C0_FFEE,
        }
    }
}

/// Construction-time failures of a [`ServeCluster`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// The configuration could not be realized.
    Construction {
        /// Human-readable cause.
        reason: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Construction { reason } => write!(f, "serve construction: {reason}"),
        }
    }
}

impl std::error::Error for ServeError {}

#[derive(Debug, Clone, Copy)]
struct Binding {
    shard: usize,
    pool: usize,
}

/// One entry of the client registry.
#[derive(Default)]
struct Client {
    /// The connection, while the client holds one.
    binding: Option<Binding>,
    /// Requests waiting for the next slot's submission phase.
    backlog: VecDeque<Request>,
}

struct ServeShard {
    ledger: Shard,
    hv: Hypervisor,
    free_pools: BTreeSet<usize>,
    /// pool index → bound client (stays set while a disconnected
    /// client's pool drains, for correct completion attribution).
    pool_client: Vec<Option<u32>>,
    /// Pools of disconnected clients still holding in-flight work.
    draining: BTreeSet<usize>,
    /// Observer ring drops seen so far (should stay 0; see
    /// [`ServeCluster::obs_overflows`]).
    obs_dropped_seen: u64,
}

/// The serving front-end state machine (see module docs).
pub struct ServeCluster {
    config: ServeConfig,
    shards: Vec<ServeShard>,
    /// The client registry, indexed by client id (< `max_clients`).
    clients: Vec<Client>,
    /// Clients holding a connection.
    connections: usize,
    /// Clients whose backlog became non-empty since the last step (an
    /// id may repeat), so phase 1 of [`ServeCluster::step`] visits no
    /// idle client.
    queued: Vec<u32>,
    /// `(client, task_id)` of queued requests whose client disconnected
    /// before the next step, in ingest order; that step rejects each.
    orphaned: Vec<(u32, u64)>,
    /// One shard's observer events, reused across translations.
    events: Vec<ObsEvent>,
    counters: CounterRegistry,
    sink: TraceSink,
    now_slot: u64,
    mix: SplitMix64,
    obs_overflows: u64,
}

impl ServeCluster {
    /// Builds the cluster: one ledger shard + hypervisor per shard slot.
    pub fn new(config: ServeConfig) -> Result<Self, ServeError> {
        if config.shards == 0 || config.pools_per_shard == 0 {
            return Err(ServeError::Construction {
                reason: "shards and pools_per_shard must be positive".into(),
            });
        }
        let mut shards = Vec::with_capacity(config.shards);
        for id in 0..config.shards {
            // One reserved σ* slot in 64: the P-channel keeps its table
            // share while virtually all bandwidth serves the R-channel.
            let sigma =
                TimeSlotTable::from_occupied(64, &[0]).map_err(|e| ServeError::Construction {
                    reason: format!("sigma table: {e}"),
                })?;
            let ledger =
                Shard::new(id, sigma, config.frame).map_err(|e| ServeError::Construction {
                    reason: format!("shard {id}: {e}"),
                })?;
            let mut params = HypervisorParams {
                pool_capacity: config.pool_capacity,
                ..HypervisorParams::new(config.pools_per_shard)
            }
            .with_admission_guard(config.guard)
            .with_degradation(config.degradation);
            if let Some(watchdog) = config.watchdog {
                params = params.with_watchdog(watchdog);
            }
            let mut hv = Hypervisor::new(params).map_err(|e| ServeError::Construction {
                reason: format!("hypervisor {id}: {e}"),
            })?;
            hv.attach_obs(config.hv_obs_capacity);
            shards.push(ServeShard {
                ledger,
                hv,
                free_pools: (0..config.pools_per_shard).collect(),
                pool_client: vec![None; config.pools_per_shard],
                draining: BTreeSet::new(),
                obs_dropped_seen: 0,
            });
        }
        Ok(Self {
            shards,
            clients: std::iter::repeat_with(Client::default)
                .take(config.max_clients as usize)
                .collect(),
            connections: 0,
            queued: Vec::new(),
            orphaned: Vec::new(),
            events: Vec::new(),
            counters: CounterRegistry::new(config.max_clients as usize),
            sink: TraceSink::new(config.trace_capacity),
            now_slot: 0,
            mix: SplitMix64::new(config.seed),
            obs_overflows: 0,
            config,
        })
    }

    /// Records a serve-level trace event and folds it into the live
    /// counter registry at the same call site, keeping
    /// `CounterRegistry::from_events(trace)` equal to the live registry.
    fn note(&mut self, kind: ObsKind, vm: u32, task: u64, arg: u64) {
        self.sink.record(self.now_slot, kind, vm, task, arg);
        self.counters.fold_event(&ObsEvent {
            seq: 0,
            at: self.now_slot,
            kind,
            vm,
            task,
            arg,
        });
    }

    /// The current serve slot (advanced by [`ServeCluster::step`]).
    pub fn now(&self) -> u64 {
        self.now_slot
    }

    /// Live per-client counters.
    pub fn counters(&self) -> &CounterRegistry {
        &self.counters
    }

    /// One client's counters.
    pub fn client_counters(&self, client: u32) -> Option<&VmCounters> {
        self.counters.vm(client as usize)
    }

    /// The serve-level trace ring.
    pub fn sink(&self) -> &TraceSink {
        &self.sink
    }

    /// Observer-ring overflows seen across all shards (0 in any sane
    /// configuration; events were lost if this ever rises).
    pub fn obs_overflows(&self) -> u64 {
        self.obs_overflows
    }

    fn binding(&self, client: u32) -> Option<Binding> {
        self.clients
            .get(client as usize)
            .and_then(|entry| entry.binding)
    }

    /// True when `client` currently holds a connection.
    pub fn connected(&self, client: u32) -> bool {
        self.binding(client).is_some()
    }

    /// Number of connected clients.
    pub fn connected_count(&self) -> usize {
        self.connections
    }

    /// The degradation mode of `shard`.
    pub fn mode(&self, shard: usize) -> Option<HvMode> {
        self.shards.get(shard).map(|s| s.hv.mode())
    }

    /// Injects a transient device stall on `shard` (fault testing).
    pub fn inject_device_stall(&mut self, shard: usize, slots: u64) {
        if let Some(s) = self.shards.get_mut(shard) {
            s.hv.inject_device_stall(slots);
        }
    }

    /// Forces `shard` one degradation level down (Normal → Degraded →
    /// PchannelOnly) and immediately translates the resulting mode-change
    /// and shed events into client responses. Call between steps.
    pub fn degrade(&mut self, shard: usize) -> Vec<Response> {
        let mut responses = Vec::new();
        if let Some(s) = self.shards.get_mut(shard) {
            if let Some(obs) = s.hv.obs_mut() {
                obs.sink.clear();
            }
            s.hv.degrade();
        }
        self.translate_shard_events(shard, &mut responses);
        responses
    }

    /// Merged end-to-end latency histograms across all shards, split by
    /// criticality class: `(critical, best_effort)`.
    pub fn e2e_histograms(&self) -> (Histogram, Histogram) {
        let mut critical = Histogram::new();
        let mut best_effort = Histogram::new();
        for shard in &self.shards {
            if let Some(obs) = shard.hv.obs() {
                critical.merge(&obs.e2e_critical);
                best_effort.merge(&obs.e2e_best_effort);
            }
        }
        (critical, best_effort)
    }

    /// Connection admission: the Theorem 3 local gate, then worst-fit
    /// ledger placement (most headroom first, seeded tie-break) across
    /// shards with a free pool. Returns the typed verdict.
    pub fn connect(&mut self, client: u32, server: PeriodicServer, tasks: &TaskSet) -> Response {
        if client >= self.config.max_clients {
            return Response::ConnectRejected {
                client,
                reason: RejectReason::UnknownClient,
            };
        }
        if self.connected(client) {
            return Response::ConnectRejected {
                client,
                reason: RejectReason::AlreadyConnected,
            };
        }
        if !locally_schedulable(&server, tasks) {
            return Response::ConnectRejected {
                client,
                reason: RejectReason::NotSchedulable,
            };
        }
        let mut best: Option<(i64, u64, usize)> = None;
        for (idx, shard) in self.shards.iter().enumerate() {
            if shard.free_pools.is_empty() || !shard.ledger.probe(&server) {
                continue;
            }
            let tie = self
                .mix
                .derive((u64::from(client) << 16) | trace_idx(idx) as u64);
            let key = (shard.ledger.headroom(), tie, idx);
            if best.is_none_or(|b| key > b) {
                best = Some(key);
            }
        }
        let Some((_, _, idx)) = best else {
            return Response::ConnectRejected {
                client,
                reason: RejectReason::NoCapacity,
            };
        };
        let Some(shard) = self.shards.get_mut(idx) else {
            return Response::ConnectRejected {
                client,
                reason: RejectReason::NoCapacity,
            };
        };
        let admitted = shard
            .ledger
            .admit(u64::from(client), server, tasks)
            .map(|outcome| outcome.admitted())
            .unwrap_or(false);
        if !admitted {
            return Response::ConnectRejected {
                client,
                reason: RejectReason::NoCapacity,
            };
        }
        let Some(pool) = shard.free_pools.pop_first() else {
            let _ = shard.ledger.evict(u64::from(client));
            return Response::ConnectRejected {
                client,
                reason: RejectReason::NoCapacity,
            };
        };
        if let Some(slot) = shard.pool_client.get_mut(pool) {
            *slot = Some(client);
        }
        if let Some(entry) = self.clients.get_mut(client as usize) {
            entry.binding = Some(Binding { shard: idx, pool });
            self.connections += 1;
        }
        self.note(
            ObsKind::Marker,
            client,
            markers::CONNECT,
            trace_idx(idx) as u64,
        );
        Response::Connected {
            client,
            shard: trace_idx(idx),
        }
    }

    /// Tears down `client`'s connection. In-flight pool work keeps its
    /// attribution and the pool returns to the free set once drained;
    /// requests still queued for the next slot are rejected by that
    /// slot's [`ServeCluster::step`].
    pub fn disconnect(&mut self, client: u32) -> Response {
        let Some((binding, backlog)) = self
            .clients
            .get_mut(client as usize)
            .and_then(|entry| Some((entry.binding.take()?, &mut entry.backlog)))
        else {
            return Response::Rejected {
                client,
                task_id: 0,
                reason: RejectReason::NotConnected,
            };
        };
        self.orphaned
            .extend(backlog.drain(..).map(|request| (client, request.task_id)));
        self.connections -= 1;
        if let Some(shard) = self.shards.get_mut(binding.shard) {
            let _ = shard.ledger.evict(u64::from(client));
            let empty = shard
                .hv
                .pools()
                .get(binding.pool)
                .map(|p| p.is_empty())
                .unwrap_or(true);
            if empty {
                if let Some(slot) = shard.pool_client.get_mut(binding.pool) {
                    *slot = None;
                }
                shard.free_pools.insert(binding.pool);
            } else {
                shard.draining.insert(binding.pool);
            }
        }
        self.note(
            ObsKind::Marker,
            client,
            markers::DISCONNECT,
            trace_idx(binding.shard) as u64,
        );
        Response::Disconnected { client }
    }

    /// Ingests raw frames: zero-copy decode, then sequential admission
    /// into the bounded per-client backlogs. `workers` is unused: each
    /// frame decodes in place straight into admission, so the outcome is
    /// the same at any `workers` count.
    ///
    /// Each decodable request either enters its client's backlog
    /// (response deferred to the submission verdict at the next
    /// [`ServeCluster::step`]) or is shed on overflow; each undecodable
    /// tail yields exactly one `Rejected(Malformed)`.
    pub fn ingest(&mut self, frames: &[(u32, Bytes)], _workers: usize) -> Vec<Response> {
        let mut responses = Vec::new();
        self.ingest_into(frames, &mut responses);
        responses
    }

    /// [`ServeCluster::ingest`], appending the responses to `responses`.
    pub fn ingest_into(&mut self, frames: &[(u32, Bytes)], responses: &mut Vec<Response>) {
        for (origin, bytes) in frames {
            let mut cursor = bytes.clone();
            let err = wire::decode_each(&mut cursor, |request| {
                self.accept_frame(*origin, request, responses)
            });
            if let Some(e) = err {
                self.reject_malformed(*origin, &e, responses);
            }
        }
    }

    fn reject_malformed(&mut self, origin: u32, err: &wire::WireError, out: &mut Vec<Response>) {
        self.note(ObsKind::Marker, origin, markers::MALFORMED, err.ordinal());
        out.push(Response::Rejected {
            client: origin,
            task_id: 0,
            reason: RejectReason::Malformed,
        });
    }

    fn accept_frame(&mut self, origin: u32, request: Request, out: &mut Vec<Response>) {
        let task_id = request.task_id;
        if request.client != origin {
            out.push(Response::Rejected {
                client: origin,
                task_id,
                reason: RejectReason::Malformed,
            });
            return;
        }
        let Some(entry) = self
            .clients
            .get_mut(origin as usize)
            .filter(|entry| entry.binding.is_some())
        else {
            out.push(Response::Rejected {
                client: origin,
                task_id,
                reason: RejectReason::NotConnected,
            });
            return;
        };
        let cap = self.config.backlog_capacity;
        let backlog = &mut entry.backlog;
        // Bounded spillover: the capacity guard is the backpressure
        // contract — beyond the bound we shed, never grow.
        if backlog.len() < cap {
            backlog.push_back(request);
            if backlog.len() == 1 {
                self.queued.push(origin);
            }
        } else {
            self.note(ObsKind::Shed, origin, task_id, 1);
            out.push(Response::Shed {
                client: origin,
                task_id,
            });
        }
    }

    fn submit_one(&mut self, client: u32, binding: Binding, request: Request) -> Response {
        let Some(shard) = self.shards.get_mut(binding.shard) else {
            return Response::Rejected {
                client,
                task_id: request.task_id,
                reason: RejectReason::NotConnected,
            };
        };
        let release = shard.hv.now();
        let mut job = RtJob::new(
            binding.pool,
            request.task_id,
            release,
            request.wcet,
            release.saturating_add(request.deadline_rel),
        );
        if !request.critical {
            job = job.best_effort();
        }
        let response_bytes = trace_id(request.payload.len().max(1) as u64);
        let verdict = shard.hv.submit_with_payload(job, response_bytes);
        match verdict {
            Ok(()) => {
                self.note(ObsKind::Admit, client, request.task_id, request.wcet);
                Response::Accepted {
                    client,
                    task_id: request.task_id,
                }
            }
            Err(HvError::Throttled { until, .. }) => {
                self.note(ObsKind::ThrottledSubmission, client, request.task_id, until);
                Response::Throttled {
                    client,
                    task_id: request.task_id,
                    until,
                }
            }
            Err(HvError::DegradedMode) => {
                if request.critical {
                    self.note(ObsKind::DeadlineMiss, client, request.task_id, 1);
                    Response::Rejected {
                        client,
                        task_id: request.task_id,
                        reason: RejectReason::Degraded,
                    }
                } else {
                    self.note(ObsKind::Shed, client, request.task_id, 1);
                    Response::Shed {
                        client,
                        task_id: request.task_id,
                    }
                }
            }
            Err(HvError::PoolFull { .. }) => {
                let critical_arg = u64::from(request.critical);
                self.note(ObsKind::DeadlineMiss, client, request.task_id, critical_arg);
                Response::Rejected {
                    client,
                    task_id: request.task_id,
                    reason: RejectReason::PoolFull,
                }
            }
            Err(_) => Response::Rejected {
                client,
                task_id: request.task_id,
                reason: RejectReason::UnknownClient,
            },
        }
    }

    /// One serve slot: drain backlogs into the hypervisors (ascending
    /// client id), step every shard, then translate the shards'
    /// observer events into client-addressed responses and serve-trace
    /// records. Returns all responses produced this slot, led by the
    /// rejections of requests whose client disconnected while they were
    /// queued.
    pub fn step(&mut self) -> Vec<Response> {
        let mut responses = Vec::new();
        self.step_into(&mut responses);
        responses
    }

    /// [`ServeCluster::step`], appending the responses to `responses`.
    pub fn step_into(&mut self, responses: &mut Vec<Response>) {
        // Phase 0: queued requests that lost their connection.
        responses.extend(
            self.orphaned
                .drain(..)
                .map(|(client, task_id)| Response::Rejected {
                    client,
                    task_id,
                    reason: RejectReason::NotConnected,
                }),
        );
        // Phase 1: submissions, from the clients with queued requests
        // only. Verdicts come from the typed submit results; the
        // hypervisor's own submission-time observer events are redundant
        // with them and get discarded in phase 2.
        let mut queued = std::mem::take(&mut self.queued);
        queued.sort_unstable();
        queued.dedup();
        for &client in &queued {
            let Some(binding) = self.binding(client) else {
                continue;
            };
            while let Some(request) = self
                .clients
                .get_mut(client as usize)
                .and_then(|entry| entry.backlog.pop_front())
            {
                let resp = self.submit_one(client, binding, request);
                responses.push(resp);
            }
        }
        queued.clear();
        self.queued = queued;
        // Phase 2: drop submission-time observer events (already typed).
        for shard in &mut self.shards {
            if let Some(obs) = shard.hv.obs_mut() {
                obs.sink.clear();
            }
        }
        // Phase 3: dispatch.
        for shard in &mut self.shards {
            shard.hv.step();
        }
        // Phase 4: translate step-time observer events.
        for idx in 0..self.shards.len() {
            self.translate_shard_events(idx, responses);
        }
        self.now_slot = self.now_slot.saturating_add(1);
    }

    /// The client bound to pool `vm` of `shard` (kept while a
    /// disconnected client's pool drains).
    fn pool_client(&self, shard: usize, vm: u32) -> Option<u32> {
        self.shards
            .get(shard)
            .and_then(|s| s.pool_client.get(vm as usize).copied().flatten())
    }

    fn translate_shard_events(&mut self, idx: usize, responses: &mut Vec<Response>) {
        let Some(shard) = self.shards.get_mut(idx) else {
            return;
        };
        let mut events = std::mem::take(&mut self.events);
        if let Some(obs) = shard.hv.obs_mut() {
            events.extend(obs.sink.iter().cloned());
            let dropped = obs.sink.dropped();
            if dropped > shard.obs_dropped_seen {
                self.obs_overflows = self
                    .obs_overflows
                    .saturating_add(dropped - shard.obs_dropped_seen);
                shard.obs_dropped_seen = dropped;
            }
            obs.sink.clear();
        }
        let shard_tag = trace_idx(idx);
        for event in events.drain(..) {
            match event.kind {
                ObsKind::Complete => {
                    if let Some(client) = self.pool_client(idx, event.vm) {
                        self.note(ObsKind::Complete, client, event.task, event.arg);
                        responses.push(Response::Completed {
                            client,
                            task_id: event.task,
                            latency: event.arg,
                        });
                    }
                }
                ObsKind::DeadlineMiss => {
                    if let Some(client) = self.pool_client(idx, event.vm) {
                        self.note(ObsKind::DeadlineMiss, client, event.task, event.arg);
                        responses.push(Response::Missed {
                            client,
                            task_id: event.task,
                            critical: event.arg != 0,
                        });
                    }
                }
                ObsKind::Shed => {
                    if let Some(client) = self.pool_client(idx, event.vm) {
                        self.note(ObsKind::Shed, client, event.task, event.arg);
                        responses.push(Response::Shed {
                            client,
                            task_id: event.task,
                        });
                    }
                }
                ObsKind::Retry => {
                    let client = self.pool_client(idx, event.vm).unwrap_or(SYSTEM_VM);
                    self.note(ObsKind::Retry, client, event.task, event.arg);
                }
                ObsKind::ThrottledSlot => {
                    if let Some(client) = self.pool_client(idx, event.vm) {
                        self.note(ObsKind::ThrottledSlot, client, event.task, event.arg);
                    }
                }
                ObsKind::Throttle => {
                    if let Some(client) = self.pool_client(idx, event.vm) {
                        self.note(ObsKind::Throttle, client, event.task, event.arg);
                    }
                }
                ObsKind::Fault | ObsKind::Recovery => {
                    self.note(event.kind, SYSTEM_VM, shard_tag as u64, event.arg);
                }
                ObsKind::ModeChange => {
                    self.note(ObsKind::ModeChange, SYSTEM_VM, shard_tag as u64, event.arg);
                    let mode = trace_id(event.arg);
                    for (client, entry) in self.clients.iter().enumerate() {
                        if entry.binding.is_some_and(|b| b.shard == idx) {
                            responses.push(Response::ModeChange {
                                client: trace_idx(client),
                                shard: shard_tag,
                                mode,
                            });
                        }
                    }
                }
                _ => {}
            }
        }
        self.events = events;
        // Free drained pools of disconnected clients — only after their
        // events were attributed above, so a job completing in the slot
        // that drains its pool still reaches its client.
        if let Some(shard) = self.shards.get_mut(idx) {
            let ServeShard {
                hv,
                free_pools,
                pool_client,
                draining,
                ..
            } = shard;
            draining.retain(|&pool| {
                let empty = hv.pools().get(pool).is_none_or(|p| p.is_empty());
                if empty {
                    free_pools.insert(pool);
                    if let Some(slot) = pool_client.get_mut(pool) {
                        *slot = None;
                    }
                }
                !empty
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioguard_sched::SporadicTask;

    fn request_frame(client: u32, task_id: u64, wcet: u64) -> (u32, Bytes) {
        let request = Request {
            client,
            task_id,
            wcet,
            deadline_rel: 64,
            critical: true,
            payload: Bytes::copy_from_slice(b"in-flight"),
        };
        let frame = wire::encode_request_frame(&request).expect("valid request encodes");
        (client, frame)
    }

    fn connected_cluster(clients: &[u32]) -> (ServeCluster, PeriodicServer, TaskSet) {
        let mut cluster = ServeCluster::new(ServeConfig::new(1, 2)).expect("valid config");
        let server = PeriodicServer::new(64, 8).expect("valid server");
        let mut tasks = TaskSet::new();
        tasks.push(SporadicTask::new(512, 2, 256).expect("valid task"));
        for &client in clients {
            assert!(matches!(
                cluster.connect(client, server, &tasks),
                Response::Connected { .. }
            ));
        }
        (cluster, server, tasks)
    }

    /// Requests still queued when their client disconnects are answered
    /// at the next step, each exactly once and in ingest order.
    #[test]
    fn queued_requests_of_a_disconnecting_client_are_rejected_at_the_next_step() {
        let client = 7;
        let (mut cluster, _, _) = connected_cluster(&[client]);
        assert!(cluster
            .ingest(
                &[request_frame(client, 42, 2), request_frame(client, 43, 2)],
                1
            )
            .is_empty());
        assert_eq!(
            cluster.disconnect(client),
            Response::Disconnected { client }
        );
        let rejected = |task_id| Response::Rejected {
            client,
            task_id,
            reason: RejectReason::NotConnected,
        };
        assert_eq!(cluster.step(), vec![rejected(42), rejected(43)]);
        for _ in 0..11 {
            assert_eq!(cluster.step(), vec![], "each request is answered once");
        }
    }

    /// Backlogs drain in ascending client id, whatever order the frames
    /// were ingested in.
    #[test]
    fn backlogs_drain_in_ascending_client_order() {
        let (mut cluster, _, _) = connected_cluster(&[9, 3]);
        assert!(cluster.ingest(&[request_frame(9, 90, 2)], 1).is_empty());
        assert!(cluster.ingest(&[request_frame(3, 30, 2)], 1).is_empty());
        assert_eq!(
            cluster.step(),
            vec![
                Response::Accepted {
                    client: 3,
                    task_id: 30
                },
                Response::Accepted {
                    client: 9,
                    task_id: 90
                },
            ]
        );
    }

    /// A disconnected client's last in-flight job completes in the very
    /// slot that drains its pool. The completion must still reach that
    /// client: events are attributed before the drained pool is freed.
    #[test]
    fn completion_in_the_draining_slot_reaches_the_disconnected_client() {
        let client = 7;
        let (mut cluster, server, tasks) = connected_cluster(&[client]);
        assert!(cluster
            .ingest(&[request_frame(client, 42, 2)], 1)
            .is_empty());
        // Slot 0: the job is admitted and runs its first slot.
        assert_eq!(
            cluster.step(),
            vec![Response::Accepted {
                client,
                task_id: 42
            }]
        );
        // The client leaves with one slot of work still in its pool.
        assert_eq!(
            cluster.disconnect(client),
            Response::Disconnected { client }
        );
        // Slot 1: the job completes and the pool drains in the same slot.
        assert_eq!(
            cluster.step(),
            vec![Response::Completed {
                client,
                task_id: 42,
                latency: 2,
            }]
        );
        assert_eq!(
            cluster.client_counters(client).map(|c| c.completed),
            Some(1)
        );
        // The drained pool went back to the free set: two new clients fit
        // the two-pool shard.
        for next in [8, 9] {
            assert!(matches!(
                cluster.connect(next, server, &tasks),
                Response::Connected { .. }
            ));
        }
    }
}
