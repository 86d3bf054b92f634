//! The assembled hypervisor: P-channel + R-channel + executors.
//!
//! [`Hypervisor::step`] advances one time slot of the global timer:
//!
//! 1. pools expire any buffered job whose deadline has passed (misses) —
//!    skipped outright when the comparator root's deadline lies ahead,
//! 2. server budgets replenish (server-based policy only),
//! 3. if σ\* marks the slot *occupied*, the P-channel fires its pre-defined
//!    task — untouchable by run-time traffic, which is how pre-loaded tasks
//!    get their hard guarantee,
//! 4. otherwise the G-Sched grants the slot to one VM's pool and the
//!    executor runs one slot of that pool's earliest-deadline job,
//!    preempting at slot granularity.

// lint: allow(indexing, file) — pool indices come from the G-Sched grant
// (bounded by the pool count it was handed) and task indices from the
// P-channel's own fire() result; pjob_state is sized to tasks() at build.

use serde::{Deserialize, Serialize};

use ioguard_obs::{ObsKind, SYSTEM_VM};

use crate::driver::{RetryPolicy, Watchdog, WatchdogVerdict};
use crate::error::HvError;
use crate::gsched::{Gsched, GschedPolicy};
use crate::obs::HvObs;
use crate::pchannel::{PChannel, PredefinedTask};
use crate::pool::{IoPool, PoolEntry, NEVER_DISPATCHED};
use crate::shadowindex::ShadowIndex;

pub use crate::metrics::{HvMetrics, VmMetrics};

/// Default hardware queue capacity of each I/O pool.
pub const DEFAULT_POOL_CAPACITY: usize = 32;

/// Slack-reclamation model for the P-channel: pre-defined jobs whose actual
/// execution undershoots their reserved WCET release the residual table
/// slots to the R-channel ("the hypervisor schedules and executes run-time
/// tasks when the pre-defined tasks are not occupying the I/O", Sec. II-B).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PchannelReclaim {
    /// Seed of the deterministic per-job execution-time sampling.
    pub seed: u64,
    /// Minimum actual execution time as a fraction of WCET (uniform in
    /// `[min_fraction, 1.0]`).
    pub min_fraction: f64,
}

/// Construction parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HypervisorParams {
    /// Number of VMs (pools).
    pub vms: usize,
    /// Queue capacity of each pool.
    pub pool_capacity: usize,
    /// G-Sched policy.
    pub policy: GschedPolicy,
    /// Pre-defined tasks loaded at initialization.
    pub predefined: Vec<PredefinedTask>,
    /// Maximum σ\* hyper-period the banks can hold, in slots.
    pub max_table_len: u64,
    /// Optional P-channel slack reclamation (None: pre-defined jobs consume
    /// their full reserved WCET).
    pub reclaim: Option<PchannelReclaim>,
    /// Optional per-transaction watchdog (None: device faults burn slots
    /// without retries and never trigger degradation).
    pub watchdog: Option<RetryPolicy>,
    /// Graceful-degradation tuning (recovery threshold).
    pub degradation: DegradationPolicy,
    /// Optional submission flood control (None: no admission throttling).
    pub admission_guard: Option<AdmissionGuard>,
}

impl HypervisorParams {
    /// Defaults: global-EDF policy, 16-entry pools, no pre-defined tasks.
    pub fn new(vms: usize) -> Self {
        Self {
            vms,
            pool_capacity: DEFAULT_POOL_CAPACITY,
            policy: GschedPolicy::GlobalEdf,
            predefined: Vec::new(),
            max_table_len: 1 << 22,
            reclaim: None,
            watchdog: None,
            degradation: DegradationPolicy::default(),
            admission_guard: None,
        }
    }

    /// Sets the pre-defined (P-channel) task load.
    pub fn with_predefined(mut self, predefined: Vec<PredefinedTask>) -> Self {
        self.predefined = predefined;
        self
    }

    /// Sets the G-Sched policy.
    pub fn with_policy(mut self, policy: GschedPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables P-channel slack reclamation.
    pub fn with_reclaim(mut self, reclaim: PchannelReclaim) -> Self {
        self.reclaim = Some(reclaim);
        self
    }

    /// Enables the per-transaction watchdog (timeout + bounded retry with
    /// exponential backoff; exhaustion triggers graceful degradation).
    pub fn with_watchdog(mut self, policy: RetryPolicy) -> Self {
        self.watchdog = Some(policy);
        self
    }

    /// Tunes graceful degradation (recovery threshold).
    pub fn with_degradation(mut self, policy: DegradationPolicy) -> Self {
        self.degradation = policy;
        self
    }

    /// Enables submission flood control.
    pub fn with_admission_guard(mut self, guard: AdmissionGuard) -> Self {
        self.admission_guard = Some(guard);
        self
    }
}

/// A run-time I/O job submitted through a VM's para-virtualized driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RtJob {
    /// Target VM.
    pub vm: usize,
    /// Task identifier (for tracing; uniqueness is the caller's business).
    pub task_id: u64,
    /// Release slot (must be the current slot when submitting live).
    pub release: u64,
    /// Required execution slots.
    pub wcet: u64,
    /// Absolute deadline slot (exclusive).
    pub deadline: u64,
    /// True when a miss of this job fails the trial.
    pub critical: bool,
}

impl RtJob {
    /// Creates a critical job with 64-byte response payload.
    pub fn new(vm: usize, task_id: u64, release: u64, wcet: u64, deadline: u64) -> Self {
        Self {
            vm,
            task_id,
            release,
            wcet,
            deadline,
            critical: true,
        }
    }

    /// Marks the job best-effort: its misses do not fail a trial.
    pub fn best_effort(mut self) -> Self {
        self.critical = false;
        self
    }
}

/// Operating mode of the hypervisor's graceful-degradation machine.
///
/// On persistent device failure (watchdog retry budget exhausted) the mode
/// steps down one level at a time; after a configured run of healthy slots
/// it steps back up. Every transition is counted in
/// [`HvMetrics::mode_changes`] and emitted as an [`ObsKind::ModeChange`] event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum HvMode {
    /// Full service: P-channel and R-channel both live.
    #[default]
    Normal,
    /// Best-effort work is shed (from the pools and at admission); critical
    /// run-time jobs still run.
    Degraded,
    /// Only the pre-defined σ\* table executes; all run-time submissions
    /// are refused.
    PchannelOnly,
}

impl HvMode {
    /// Stable ordinal carried in the `arg` field of mode-change events.
    pub const fn ordinal(self) -> u32 {
        match self {
            HvMode::Normal => 0,
            HvMode::Degraded => 1,
            HvMode::PchannelOnly => 2,
        }
    }
}

/// Graceful-degradation tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradationPolicy {
    /// Consecutive healthy slots before the mode steps back up one level.
    pub healthy_slots_to_recover: u64,
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        Self {
            healthy_slots_to_recover: 64,
        }
    }
}

/// Flood control at the para-virtualized driver boundary: a VM submitting
/// more than `max_submissions` jobs inside a `window`-slot window is cut
/// off for `throttle_slots` slots (babbling-idiot countermeasure) — both
/// at admission and in the G-Sched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionGuard {
    /// Window length, in slots.
    pub window: u64,
    /// Submissions accepted per VM per window.
    pub max_submissions: u64,
    /// Penalty window once tripped, in slots.
    pub throttle_slots: u64,
}

/// Per-VM flood-control state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
struct AdmState {
    window_start: u64,
    count: u64,
    throttled_until: u64,
}

/// The I/O-GUARD hypervisor device model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hypervisor {
    pools: Vec<IoPool>,
    /// Comparator tree over the pools' shadow registers, refreshed on every
    /// pool mutation — the G-Sched reads its winner in O(1).
    shadow_index: ShadowIndex,
    pchannel: PChannel,
    /// σ\* table cursor: `now` modulo the hyper-period, advanced with the
    /// global timer so the per-slot P-channel lookup needs no division.
    pchannel_phase: usize,
    gsched: Gsched,
    now: u64,
    metrics: HvMetrics,
    reclaim: Option<PchannelReclaim>,
    /// Per pre-defined task: (reserved slots left in the current job's
    /// table allocation, actual work remaining, job counter). Only used
    /// when `reclaim` is Some.
    pjob_state: Vec<PjobState>,
    /// (vm, task_id) of the job that ran in the previous R-channel slot —
    /// used to detect preemptions for the obs sink.
    last_dispatched: Option<(usize, u64)>,
    /// Current operating mode of the degradation machine.
    mode: HvMode,
    /// Per-transaction watchdog (None: faults burn slots silently).
    watchdog: Option<Watchdog>,
    /// Degradation tuning.
    degradation: DegradationPolicy,
    /// Flood control configuration and per-VM state.
    admission: Option<AdmissionGuard>,
    adm_state: Vec<AdmState>,
    /// Device stalled while `now < device_stall_until` (transient fault).
    device_stall_until: u64,
    /// Controller stuck until explicitly cleared (persistent fault).
    device_stuck: bool,
    /// Edge detector for Fault/Recovery events.
    device_fault_active: bool,
    /// Consecutive healthy slots (drives mode recovery).
    healthy_slots: u64,
    /// Optional observability layer (structured events + latency
    /// histograms). `None` by default: the device pays one branch per
    /// emission site and nothing else.
    #[serde(skip, default)]
    obs: Option<Box<HvObs>>,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
struct PjobState {
    reserved_left: u64,
    remaining: u64,
    job_counter: u64,
}

/// Mixes three words into a well-spread hash (SplitMix64 finalizer).
fn hash3(a: u64, b: u64, c: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ c.rotate_left(23);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Narrows a VM index to the obs sink's u32 `vm` field, saturating on
/// overflow — an index above `u32::MAX` loses fidelity in the event stream
/// only, never in scheduling.
fn trace_id(x: u64) -> u32 {
    u32::try_from(x).unwrap_or(u32::MAX)
}

impl Hypervisor {
    /// Builds the hypervisor.
    ///
    /// # Errors
    ///
    /// * [`HvError::InvalidConfig`] for zero VMs, zero pool capacity, or a
    ///   server-based policy whose server count differs from `vms`.
    /// * [`HvError::TableConstruction`] when the pre-defined tasks do not
    ///   fit a feasible σ\*.
    pub fn new(params: HypervisorParams) -> Result<Self, HvError> {
        if params.vms == 0 {
            return Err(HvError::InvalidConfig {
                reason: "at least one VM".into(),
            });
        }
        if params.pool_capacity == 0 {
            return Err(HvError::InvalidConfig {
                reason: "pool capacity must be positive".into(),
            });
        }
        if let GschedPolicy::ServerBased(servers) | GschedPolicy::GuardedEdf(servers) =
            &params.policy
        {
            if servers.len() != params.vms {
                return Err(HvError::InvalidConfig {
                    reason: format!("{} servers for {} VMs", servers.len(), params.vms),
                });
            }
        }
        if let Some(guard) = &params.admission_guard {
            if guard.window == 0 || guard.max_submissions == 0 {
                return Err(HvError::InvalidConfig {
                    reason: "admission guard window and max_submissions must be positive".into(),
                });
            }
        }
        let pchannel = PChannel::build(params.predefined, params.max_table_len)?;
        let pjob_state = vec![PjobState::default(); pchannel.tasks().len()];
        let pools = (0..params.vms)
            .map(|_| IoPool::new(params.pool_capacity))
            .collect();
        Ok(Self {
            pools,
            shadow_index: ShadowIndex::new(params.vms),
            pchannel,
            pchannel_phase: 0,
            gsched: Gsched::new(params.policy),
            now: 0,
            metrics: HvMetrics::with_vms(params.vms),
            reclaim: params.reclaim,
            pjob_state,
            last_dispatched: None,
            mode: HvMode::Normal,
            watchdog: params.watchdog.map(Watchdog::new),
            degradation: params.degradation,
            admission: params.admission_guard,
            adm_state: vec![AdmState::default(); params.vms],
            device_stall_until: 0,
            device_stuck: false,
            device_fault_active: false,
            healthy_slots: 0,
            obs: None,
        })
    }

    /// Attaches the observability layer: a structured event sink of
    /// `capacity` events plus the latency histograms. Replaces any observer
    /// already attached (fresh state).
    pub fn attach_obs(&mut self, capacity: usize) {
        self.obs = Some(Box::new(HvObs::new(capacity, self.pools.len())));
    }

    /// The attached observer, if any.
    pub fn obs(&self) -> Option<&HvObs> {
        self.obs.as_deref()
    }

    /// Mutable access to the attached observer. Long-running front-ends
    /// (`ioguard-serve`) drain and clear the observer's trace ring every
    /// slot so the ring never overflows while the monotonic counters and
    /// latency histograms keep accumulating.
    pub fn obs_mut(&mut self) -> Option<&mut HvObs> {
        self.obs.as_deref_mut()
    }

    /// Detaches and returns the observer (the hypervisor keeps running
    /// unobserved).
    pub fn take_obs(&mut self) -> Option<Box<HvObs>> {
        self.obs.take()
    }

    /// Current slot of the global timer.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Execution metrics so far.
    pub fn metrics(&self) -> &HvMetrics {
        &self.metrics
    }

    /// The P-channel (σ\* and pre-defined tasks).
    pub fn pchannel(&self) -> &PChannel {
        &self.pchannel
    }

    /// The per-VM pools.
    pub fn pools(&self) -> &[IoPool] {
        &self.pools
    }

    /// Number of VMs.
    pub fn vm_count(&self) -> usize {
        self.pools.len()
    }

    /// Current operating mode of the degradation machine.
    pub fn mode(&self) -> HvMode {
        self.mode
    }

    /// Injects a transient device fault: I/O transactions stall for the
    /// next `slots` slots (extends any stall already in effect).
    pub fn inject_device_stall(&mut self, slots: u64) {
        self.device_stall_until = self.device_stall_until.max(self.now.saturating_add(slots));
    }

    /// Sets or clears the stuck-controller fault (persists until cleared).
    pub fn set_device_stuck(&mut self, stuck: bool) {
        self.device_stuck = stuck;
    }

    /// True while a device fault (stall window or stuck controller) is in
    /// effect at the current slot.
    pub fn device_faulty(&self) -> bool {
        self.device_stuck || self.now < self.device_stall_until
    }

    /// Clears all injected device faults.
    pub fn clear_device_faults(&mut self) {
        self.device_stuck = false;
        self.device_stall_until = 0;
    }

    /// Steps the mode machine one level down (towards P-channel-only).
    /// Entering [`HvMode::Degraded`] sheds best-effort work from every
    /// pool. Called on watchdog exhaustion; public so NoC-level fault
    /// drivers can escalate too.
    pub fn degrade(&mut self) {
        let next = match self.mode {
            HvMode::Normal => HvMode::Degraded,
            HvMode::Degraded => HvMode::PchannelOnly,
            HvMode::PchannelOnly => return,
        };
        self.set_mode(next);
        if next == HvMode::Degraded {
            for vm in 0..self.pools.len() {
                let shed = self.pools[vm].shed_best_effort();
                if !shed.is_empty() {
                    self.metrics.note_shed(vm, shed.len() as u64);
                    if let Some(obs) = self.obs.as_mut() {
                        obs.sink.record(
                            self.now,
                            ObsKind::Shed,
                            trace_id(vm as u64),
                            0,
                            shed.len() as u64,
                        );
                    }
                    self.sync_shadow(vm);
                }
            }
        }
    }

    /// Records a mode transition (event + counter) and resets the recovery
    /// clock.
    fn set_mode(&mut self, next: HvMode) {
        if next == self.mode {
            return;
        }
        self.mode = next;
        self.metrics.mode_changes += 1;
        self.healthy_slots = 0;
        if let Some(obs) = self.obs.as_mut() {
            obs.sink.record(
                self.now,
                ObsKind::ModeChange,
                SYSTEM_VM,
                0,
                u64::from(next.ordinal()),
            );
        }
    }

    /// Refreshes the comparator-tree leaf of VM `vm` from its pool's shadow
    /// register. Must follow every pool mutation.
    #[inline]
    fn sync_shadow(&mut self, vm: usize) {
        self.shadow_index.update(vm, self.pools[vm].shadow_key());
    }

    /// Submits a run-time I/O job through VM `job.vm`'s driver.
    ///
    /// # Errors
    ///
    /// * [`HvError::UnknownVm`] for an out-of-range VM.
    /// * [`HvError::Throttled`] while flood control has the VM cut off.
    /// * [`HvError::DegradedMode`] for work the current operating mode
    ///   refuses (best-effort when degraded; everything in P-channel-only).
    /// * [`HvError::PoolFull`] when the pool rejects the job; the job is
    ///   accounted as missed (the hardware cannot buffer it).
    pub fn submit(&mut self, job: RtJob) -> Result<(), HvError> {
        self.submit_with_payload(job, 64)
    }

    /// Charges one submission of VM `vm` against flood control.
    fn admission_check(&mut self, vm: usize, task_id: u64) -> Result<(), HvError> {
        let Some(guard) = self.admission else {
            return Ok(());
        };
        let now = self.now;
        let Some(st) = self.adm_state.get_mut(vm) else {
            return Ok(());
        };
        if now < st.throttled_until {
            let until = st.throttled_until;
            self.metrics.note_throttled_submission(vm);
            if let Some(obs) = self.obs.as_mut() {
                obs.sink.record(
                    now,
                    ObsKind::ThrottledSubmission,
                    trace_id(vm as u64),
                    task_id,
                    until,
                );
            }
            return Err(HvError::Throttled { vm, until });
        }
        if now >= st.window_start.saturating_add(guard.window) {
            let elapsed = now - st.window_start;
            st.window_start = now - (elapsed % guard.window);
            st.count = 0;
        }
        st.count += 1;
        if st.count > guard.max_submissions {
            let until = now.saturating_add(guard.throttle_slots);
            st.throttled_until = until;
            st.count = 0;
            // The penalty also closes the G-Sched on this VM: a babbling
            // idiot neither submits nor steals free slots.
            self.gsched.throttle(vm, until);
            self.metrics.note_throttled_submission(vm);
            if let Some(obs) = self.obs.as_mut() {
                obs.sink
                    .record(now, ObsKind::Throttle, trace_id(vm as u64), 0, until);
                obs.sink.record(
                    now,
                    ObsKind::ThrottledSubmission,
                    trace_id(vm as u64),
                    task_id,
                    until,
                );
            }
            return Err(HvError::Throttled { vm, until });
        }
        Ok(())
    }

    /// Submits a job with an explicit response payload size (throughput
    /// accounting).
    ///
    /// # Errors
    ///
    /// See [`Hypervisor::submit`].
    pub fn submit_with_payload(&mut self, job: RtJob, response_bytes: u32) -> Result<(), HvError> {
        let vms = self.pools.len();
        if job.vm >= vms {
            return Err(HvError::UnknownVm { vm: job.vm, vms });
        }
        self.admission_check(job.vm, job.task_id)?;
        match self.mode {
            HvMode::Normal => {}
            HvMode::Degraded if job.critical => {}
            HvMode::Degraded => {
                // Degraded mode sheds best-effort work at admission.
                self.metrics.note_shed(job.vm, 1);
                if let Some(obs) = self.obs.as_mut() {
                    obs.sink.record(
                        self.now,
                        ObsKind::Shed,
                        trace_id(job.vm as u64),
                        job.task_id,
                        1,
                    );
                }
                return Err(HvError::DegradedMode);
            }
            HvMode::PchannelOnly => {
                // The R-channel is down: a refused critical job is a miss —
                // and the trace says so too. (This edge used to be counted
                // in the per-VM totals without a matching trace event, which
                // broke fold(trace) == metrics.)
                if job.critical {
                    self.metrics.note_miss(job.vm, job.task_id, true);
                    if let Some(obs) = self.obs.as_mut() {
                        obs.sink.record(
                            self.now,
                            ObsKind::DeadlineMiss,
                            trace_id(job.vm as u64),
                            job.task_id,
                            1,
                        );
                    }
                } else {
                    self.metrics.note_shed(job.vm, 1);
                    if let Some(obs) = self.obs.as_mut() {
                        obs.sink.record(
                            self.now,
                            ObsKind::Shed,
                            trace_id(job.vm as u64),
                            job.task_id,
                            1,
                        );
                    }
                }
                return Err(HvError::DegradedMode);
            }
        }
        let pool = &mut self.pools[job.vm];
        // The hardware sweep is continuous: expired entries free their
        // queue slots before a new job needs one.
        for missed in pool.expire(self.now) {
            self.metrics
                .note_miss(job.vm, missed.task_id, missed.critical);
            if let Some(obs) = self.obs.as_mut() {
                obs.sink.record(
                    self.now,
                    ObsKind::DeadlineMiss,
                    trace_id(job.vm as u64),
                    missed.task_id,
                    u64::from(missed.critical),
                );
            }
        }
        let entry = PoolEntry {
            task_id: job.task_id,
            deadline: job.deadline,
            remaining: job.wcet,
            enqueued_at: self.now,
            first_dispatch: NEVER_DISPATCHED,
            response_bytes,
            critical: job.critical,
        };
        let result = match pool.insert(entry) {
            Ok(()) => {
                if let Some(obs) = self.obs.as_mut() {
                    obs.sink.record(
                        self.now,
                        ObsKind::Admit,
                        trace_id(job.vm as u64),
                        job.task_id,
                        job.wcet,
                    );
                }
                Ok(())
            }
            Err(_) => {
                let capacity = self.pools[job.vm].capacity();
                self.metrics.rejected += 1;
                self.metrics.note_miss(job.vm, job.task_id, job.critical);
                if let Some(obs) = self.obs.as_mut() {
                    obs.sink.record(
                        self.now,
                        ObsKind::DeadlineMiss,
                        trace_id(job.vm as u64),
                        job.task_id,
                        u64::from(job.critical),
                    );
                }
                Err(HvError::PoolFull {
                    vm: job.vm,
                    capacity,
                })
            }
        };
        self.sync_shadow(job.vm);
        result
    }

    /// The two invariants the per-slot fast paths of [`Hypervisor::step`]
    /// rest on: every comparator-tree leaf mirrors its pool's shadow
    /// register (so the root gates the deadline sweep), and the σ\* cursor
    /// is the global timer modulo the hyper-period.
    #[cfg(debug_assertions)]
    fn assert_slot_invariants(&self) {
        for (vm, pool) in self.pools.iter().enumerate() {
            assert_eq!(
                self.shadow_index.leaf(vm),
                pool.shadow_key()
                    .map(|(deadline, task)| (deadline, task, vm)),
                "comparator leaf {vm} out of sync with its pool"
            );
        }
        assert_eq!(
            self.pchannel_phase as u64,
            self.now % self.pchannel.hyper_period(),
            "σ* cursor out of step with the global timer"
        );
    }

    /// Advances the global timer one slot.
    pub fn step(&mut self) {
        #[cfg(debug_assertions)]
        self.assert_slot_invariants();
        let now = self.now;
        // 1. Deadline sweep, gated on the comparator root: the root holds
        //    the earliest deadline over every pool, so unless it has passed
        //    no pool holds expired work and the slot skips the sweep. When
        //    it has, every pool pops its expired run off its shadow
        //    register, in ascending VM order.
        if self
            .shadow_index
            .min()
            .is_some_and(|(deadline, _, _)| deadline <= now)
        {
            for (vm, pool) in self.pools.iter_mut().enumerate() {
                let missed = pool.expire(now);
                if missed.is_empty() {
                    continue;
                }
                for missed in missed {
                    self.metrics.note_miss(vm, missed.task_id, missed.critical);
                    if let Some(obs) = self.obs.as_mut() {
                        obs.sink.record(
                            now,
                            ObsKind::DeadlineMiss,
                            trace_id(vm as u64),
                            missed.task_id,
                            u64::from(missed.critical),
                        );
                    }
                }
                self.shadow_index.update(vm, pool.shadow_key());
            }
        }
        // 2. Server replenishment.
        self.gsched.tick(now);
        // 2b. Device health: trace fault/recovery edges and advance the
        //     mode-recovery clock on healthy slots.
        let device_ok = !self.device_faulty();
        if !device_ok && !self.device_fault_active {
            self.device_fault_active = true;
            if let Some(obs) = self.obs.as_mut() {
                obs.sink.record(now, ObsKind::Fault, SYSTEM_VM, 0, 0);
            }
        } else if device_ok && self.device_fault_active {
            self.device_fault_active = false;
            if let Some(wd) = &mut self.watchdog {
                wd.note_progress();
            }
            if let Some(obs) = self.obs.as_mut() {
                obs.sink.record(now, ObsKind::Recovery, SYSTEM_VM, 0, 0);
            }
        }
        if device_ok {
            self.healthy_slots = self.healthy_slots.saturating_add(1);
            if self.mode != HvMode::Normal
                && self.healthy_slots >= self.degradation.healthy_slots_to_recover
            {
                let up = match self.mode {
                    HvMode::PchannelOnly => HvMode::Degraded,
                    _ => HvMode::Normal,
                };
                self.set_mode(up);
            }
        } else {
            self.healthy_slots = 0;
        }
        // 3. P-channel owns occupied slots — unless slack reclamation is on
        //    and the pre-defined job already finished early, releasing its
        //    residual reservation to the R-channel.
        let powner = self.pchannel.fire_phase(self.pchannel_phase);
        let p_uses_slot = match (powner, self.reclaim) {
            (None, _) => false,
            (Some(owner), None) => {
                // Full-WCET semantics: the reservation is the execution.
                if owner.completes_job {
                    self.metrics.predefined_completed += 1;
                    self.metrics.response_bytes +=
                        self.pchannel.tasks()[owner.task_index].response_bytes as u64;
                }
                true
            }
            (Some(owner), Some(reclaim)) => {
                let task = &self.pchannel.tasks()[owner.task_index];
                let wcet = task.task.wcet();
                let state = &mut self.pjob_state[owner.task_index];
                if state.reserved_left == 0 {
                    // First reserved slot of a new job: sample its actual
                    // execution time in [min·C, C] (deterministic).
                    state.reserved_left = wcet;
                    state.job_counter += 1;
                    let h = hash3(reclaim.seed, task.task_id, state.job_counter);
                    let frac = reclaim.min_fraction
                        + (1.0 - reclaim.min_fraction) * (h % 1024) as f64 / 1024.0;
                    state.remaining = ((wcet as f64 * frac).round() as u64).clamp(1, wcet);
                }
                state.reserved_left -= 1;
                if state.remaining > 0 {
                    state.remaining -= 1;
                    if state.remaining == 0 {
                        self.metrics.predefined_completed += 1;
                        self.metrics.response_bytes += task.response_bytes as u64;
                    }
                    true
                } else {
                    false // residual reservation — reclaimed
                }
            }
        };
        if p_uses_slot {
            self.metrics.pchannel_slots += 1;
            if let Some(owner) = powner {
                let task_id = self.pchannel.tasks()[owner.task_index].task_id;
                if let Some(obs) = self.obs.as_mut() {
                    obs.sink
                        .record(now, ObsKind::TableFire, SYSTEM_VM, task_id, 0);
                }
            }
        } else if self.mode == HvMode::PchannelOnly {
            // Degraded slot table: only σ\* executes, the R-channel is off.
            self.metrics.idle_slots += 1;
        } else if self.watchdog.as_ref().is_some_and(|wd| wd.in_backoff(now)) {
            // The watchdog's exponential-backoff window keeps the executor
            // off the (possibly still faulty) device.
            self.metrics.backoff_slots += 1;
        } else {
            // 4. Free (or reclaimed) slot: G-Sched grants one pool, reading
            //    the winner off the comparator tree. A grant whose pool has
            //    no shadow entry would be a scheduler bug; the slot then
            //    idles instead of bringing the model down.
            if self.gsched.has_guards() {
                // Slot-denial accounting: VMs with buffered work that
                // budget enforcement or a throttle window holds back.
                for (vm, pool) in self.pools.iter().enumerate() {
                    if !pool.is_empty() && self.gsched.is_blocked(vm) {
                        self.metrics.note_throttled_slot(vm);
                        if let Some(obs) = self.obs.as_mut() {
                            obs.sink
                                .record(now, ObsKind::ThrottledSlot, trace_id(vm as u64), 0, 0);
                        }
                    }
                }
            }
            let granted = self
                .gsched
                .grant_indexed(&self.pools, &self.shadow_index)
                .and_then(|vm| self.pools[vm].shadow().map(|e| (vm, e.task_id)));
            match granted {
                Some((vm, _)) if !device_ok => {
                    // The slot was granted but the device made no progress:
                    // the watchdog counts it toward its timeout.
                    self.metrics.stalled_slots += 1;
                    if let Some(wd) = &mut self.watchdog {
                        match wd.note_stall(now) {
                            WatchdogVerdict::Armed => {}
                            WatchdogVerdict::Retry { attempt, .. } => {
                                self.metrics.note_retry(vm);
                                if let Some(obs) = self.obs.as_mut() {
                                    obs.sink.record(
                                        now,
                                        ObsKind::Retry,
                                        trace_id(vm as u64),
                                        0,
                                        u64::from(attempt),
                                    );
                                }
                            }
                            WatchdogVerdict::Exhausted => self.degrade(),
                        }
                    }
                }
                Some(running) => {
                    let vm = running.0;
                    self.metrics.rchannel_slots += 1;
                    if let Some(obs) = self.obs.as_mut() {
                        let remaining = self.pools[vm].shadow().map_or(0, |e| e.remaining);
                        obs.sink.record(
                            now,
                            ObsKind::GschedGrant,
                            trace_id(vm as u64),
                            running.1,
                            remaining,
                        );
                        if self.last_dispatched != Some(running) {
                            // A different job resumed while the previous one
                            // still has work: a preemption.
                            let preempted = self.last_dispatched.filter(|&(pvm, ptask)| {
                                self.pools
                                    .get(pvm)
                                    .is_some_and(|p| p.iter().any(|e| e.task_id == ptask))
                            });
                            if let Some((pvm, ptask)) = preempted {
                                obs.sink.record(
                                    now,
                                    ObsKind::Preempt,
                                    trace_id(pvm as u64),
                                    ptask,
                                    0,
                                );
                            }
                            obs.sink.record(
                                now,
                                ObsKind::Dispatch,
                                trace_id(vm as u64),
                                running.1,
                                0,
                            );
                        }
                        // Stamp the dispatch edge for the latency split
                        // (idempotent; invisible to scheduling).
                        self.pools[vm].note_dispatch(now);
                    }
                    self.last_dispatched = Some(running);
                    if let Some(wd) = &mut self.watchdog {
                        // Progress on the device closes any stall episode
                        // (the Recovery edge is emitted in step 2b).
                        wd.note_progress();
                    }
                    if let Ok(Some(done)) = self.pools[vm].execute_slot() {
                        // Completion moved the shadow register; a mere
                        // budget decrement leaves the key untouched. (The
                        // Err arm is unreachable — the shadow register was
                        // read non-empty on this same slot.)
                        self.sync_shadow(vm);
                        self.metrics.note_completion(vm);
                        self.metrics.response_bytes += done.response_bytes as u64;
                        self.metrics
                            .latency
                            .push((now + 1 - done.enqueued_at) as f64);
                        if let Some(obs) = self.obs.as_mut() {
                            let finish = now.saturating_add(1);
                            let e2e = finish.saturating_sub(done.enqueued_at);
                            obs.sink.record(
                                now,
                                ObsKind::Complete,
                                trace_id(vm as u64),
                                done.task_id,
                                e2e,
                            );
                            if done.first_dispatch != NEVER_DISPATCHED {
                                obs.submit_to_dispatch
                                    .record(done.first_dispatch.saturating_sub(done.enqueued_at));
                                obs.dispatch_to_response
                                    .record(finish.saturating_sub(done.first_dispatch));
                            }
                            if let Some(h) = obs.e2e_per_vm.get_mut(vm) {
                                h.record(e2e);
                            }
                            if done.critical {
                                obs.e2e_critical.record(e2e);
                            } else {
                                obs.e2e_best_effort.record(e2e);
                            }
                        }
                        self.last_dispatched = None;
                    }
                }
                None => self.metrics.idle_slots += 1,
            }
        }
        self.now += 1;
        self.pchannel_phase = self.pchannel.next_phase(self.pchannel_phase);
    }

    /// Runs `slots` consecutive slots.
    pub fn run(&mut self, slots: u64) {
        for _ in 0..slots {
            self.step();
        }
    }

    /// Drains every pool for a configuration switch, returning the carried
    /// `(vm, entry)` pairs in deterministic order (VM ascending, earliest
    /// deadline first within a VM) and leaving all shadow state cleared.
    /// The entries are *not* misses — the reconfiguration controller is
    /// responsible for re-inserting each exactly once into the successor
    /// configuration (or accounting for it if its VM departed).
    pub fn drain_pools(&mut self) -> Vec<(usize, PoolEntry)> {
        let mut carried = Vec::new();
        for vm in 0..self.pools.len() {
            for entry in self.pools[vm].drain_all() {
                carried.push((vm, entry));
            }
            self.sync_shadow(vm);
        }
        carried
    }

    /// Re-inserts an entry carried across a configuration switch into VM
    /// `vm`'s pool, bypassing admission control and mode gating: the job
    /// was already admitted (and traced) under the previous configuration
    /// epoch, so no `Admit` event is emitted and flood control is not
    /// charged — re-admitting would double-count it.
    ///
    /// # Errors
    ///
    /// * [`HvError::UnknownVm`] when `vm` does not exist in this
    ///   configuration (the caller decides whether that is a teardown).
    /// * [`HvError::PoolFull`] when the pool cannot hold the entry (the
    ///   caller accounts the loss; nothing is silently dropped here).
    pub fn restore_entry(&mut self, vm: usize, entry: PoolEntry) -> Result<(), HvError> {
        let vms = self.pools.len();
        let Some(pool) = self.pools.get_mut(vm) else {
            return Err(HvError::UnknownVm { vm, vms });
        };
        let capacity = pool.capacity();
        let result = pool
            .insert(entry)
            .map_err(|_| HvError::PoolFull { vm, capacity });
        self.sync_shadow(vm);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioguard_sched::task::{PeriodicServer, SporadicTask};

    fn predefined(task_id: u64, period: u64, wcet: u64) -> PredefinedTask {
        PredefinedTask {
            task_id,
            vm: 0,
            task: SporadicTask::implicit(period, wcet).unwrap(),
            response_bytes: 100,
            start_offset: 0,
        }
    }

    #[test]
    fn construction_validation() {
        assert!(matches!(
            Hypervisor::new(HypervisorParams {
                vms: 0,
                ..HypervisorParams::new(1)
            }),
            Err(HvError::InvalidConfig { .. })
        ));
        assert!(matches!(
            Hypervisor::new(HypervisorParams {
                pool_capacity: 0,
                ..HypervisorParams::new(2)
            }),
            Err(HvError::InvalidConfig { .. })
        ));
        let bad_servers = HypervisorParams::new(2).with_policy(GschedPolicy::ServerBased(vec![
            PeriodicServer::new(4, 1).unwrap(),
        ]));
        assert!(matches!(
            Hypervisor::new(bad_servers),
            Err(HvError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn single_job_completes_with_latency() {
        let mut hv = Hypervisor::new(HypervisorParams::new(1)).unwrap();
        hv.submit(RtJob::new(0, 1, 0, 3, 100)).unwrap();
        hv.run(3);
        assert_eq!(hv.metrics().completed, 1);
        assert_eq!(hv.metrics().missed, 0);
        assert_eq!(hv.metrics().latency.mean(), 3.0);
        assert_eq!(hv.metrics().rchannel_slots, 3);
        assert_eq!(hv.now(), 3);
    }

    #[test]
    fn unknown_vm_rejected() {
        let mut hv = Hypervisor::new(HypervisorParams::new(2)).unwrap();
        assert!(matches!(
            hv.submit(RtJob::new(5, 1, 0, 1, 10)),
            Err(HvError::UnknownVm { vm: 5, vms: 2 })
        ));
    }

    #[test]
    fn pool_overflow_counts_as_miss() {
        let params = HypervisorParams {
            pool_capacity: 1,
            ..HypervisorParams::new(1)
        };
        let mut hv = Hypervisor::new(params).unwrap();
        hv.submit(RtJob::new(0, 1, 0, 5, 100)).unwrap();
        assert!(matches!(
            hv.submit(RtJob::new(0, 2, 0, 1, 100)),
            Err(HvError::PoolFull { .. })
        ));
        assert_eq!(hv.metrics().missed, 1);
        assert_eq!(hv.metrics().rejected, 1);
    }

    #[test]
    fn deadline_miss_detected() {
        let mut hv = Hypervisor::new(HypervisorParams::new(1)).unwrap();
        // Needs 5 slots by slot 3: impossible.
        hv.submit(RtJob::new(0, 1, 0, 5, 3)).unwrap();
        hv.run(10);
        assert_eq!(hv.metrics().missed, 1);
        assert_eq!(hv.metrics().completed, 0);
        // The pool is clean afterwards.
        assert!(hv.pools()[0].is_empty());
    }

    #[test]
    fn pchannel_owns_its_slots() {
        // Pre-defined task occupies every 2nd slot (T=2, C=1); a run-time
        // job gets only the free slots.
        let params = HypervisorParams::new(1).with_predefined(vec![predefined(1, 2, 1)]);
        let mut hv = Hypervisor::new(params).unwrap();
        hv.submit(RtJob::new(0, 7, 0, 3, 100)).unwrap();
        hv.run(6);
        // 3 P-channel slots, 3 R-channel slots.
        assert_eq!(hv.metrics().pchannel_slots, 3);
        assert_eq!(hv.metrics().rchannel_slots, 3);
        assert_eq!(hv.metrics().predefined_completed, 3);
        assert_eq!(hv.metrics().completed, 1);
        // Run-time job took slots 1, 3, 5 → latency 6.
        assert_eq!(hv.metrics().latency.mean(), 6.0);
    }

    #[test]
    fn predefined_response_bytes_counted() {
        let params = HypervisorParams::new(1).with_predefined(vec![predefined(1, 4, 1)]);
        let mut hv = Hypervisor::new(params).unwrap();
        hv.run(8);
        assert_eq!(hv.metrics().predefined_completed, 2);
        assert_eq!(hv.metrics().response_bytes, 200);
        assert_eq!(hv.metrics().idle_slots, 6);
    }

    #[test]
    fn cross_vm_edf_preemption() {
        // VM 0 submits a long lax job; VM 1 later submits a tight one. With
        // global EDF, VM 1's job runs next slot (preempting VM 0's stream).
        let mut hv = Hypervisor::new(HypervisorParams::new(2)).unwrap();
        hv.submit(RtJob::new(0, 1, 0, 10, 100)).unwrap();
        hv.run(2); // two slots of vm 0's job done
        hv.submit(RtJob::new(1, 2, 2, 2, 6)).unwrap();
        hv.run(2);
        // VM 1's job must have both slots 2 and 3.
        assert_eq!(hv.metrics().completed, 1);
        hv.run(10);
        assert_eq!(hv.metrics().completed, 2);
        assert_eq!(hv.metrics().missed, 0);
    }

    #[test]
    fn server_policy_enforces_isolation() {
        // Two VMs, each with a (Π=4, Θ=2) server on an all-free table. VM 0
        // floods; VM 1 must still receive 2 slots per period.
        let servers = vec![
            PeriodicServer::new(4, 2).unwrap(),
            PeriodicServer::new(4, 2).unwrap(),
        ];
        let params = HypervisorParams::new(2).with_policy(GschedPolicy::ServerBased(servers));
        let mut hv = Hypervisor::new(params).unwrap();
        // VM 0: endless stream of tight jobs (2 per period, each 2 slots —
        // twice its budget). VM 1: one job per period, 2 slots, deadline 4.
        for k in 0..8 {
            let t0 = 4 * k;
            hv.submit(RtJob::new(0, 100 + k, t0, 2, t0 + 2)).unwrap();
            hv.submit(RtJob::new(0, 200 + k, t0, 2, t0 + 4)).unwrap();
            hv.submit(RtJob::new(1, 300 + k, t0, 2, t0 + 4)).unwrap();
            hv.run(4);
        }
        // VM 1 completed all 8 jobs despite VM 0's overload.
        let vm1_done = 8;
        assert!(hv.metrics().completed >= vm1_done);
        // VM 0 must have missed someone (it asked for 4 slots per 4-slot
        // period with a 2-slot budget).
        assert!(hv.metrics().missed > 0);
        // And VM 1's pool is empty — its jobs were never starved.
        assert!(hv.pools()[1].is_empty());
    }

    #[test]
    fn step_is_deterministic() {
        let run = || {
            let params = HypervisorParams::new(2).with_predefined(vec![predefined(1, 8, 2)]);
            let mut hv = Hypervisor::new(params).unwrap();
            for k in 0..20 {
                let t = hv.now();
                let _ = hv.submit(RtJob::new((k % 2) as usize, k, t, 1 + k % 3, t + 20));
                hv.run(5);
            }
            (
                hv.metrics().completed,
                hv.metrics().missed,
                hv.metrics().response_bytes,
                hv.metrics().latency.mean(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn metrics_slot_accounting_adds_up() {
        let params = HypervisorParams::new(1).with_predefined(vec![predefined(1, 4, 2)]);
        let mut hv = Hypervisor::new(params).unwrap();
        hv.submit(RtJob::new(0, 9, 0, 2, 50)).unwrap();
        hv.run(40);
        assert_eq!(hv.metrics().total_slots(), 40);
        assert!(hv.metrics().no_misses());
    }

    #[test]
    fn trace_records_scheduling_events() {
        let mut hv = Hypervisor::new(HypervisorParams::new(2)).unwrap();
        hv.attach_obs(256);
        // Long lax job, then a tight one that preempts it.
        hv.submit(RtJob::new(0, 1, 0, 5, 100)).unwrap();
        hv.run(2);
        hv.submit(RtJob::new(1, 2, 2, 1, 6)).unwrap();
        hv.run(10);
        let sink = &hv.obs().unwrap().sink;
        assert_eq!(sink.dropped(), 0);
        assert_eq!(sink.of_kind(ObsKind::Admit).count(), 2);
        assert_eq!(sink.of_kind(ObsKind::Complete).count(), 2);
        assert_eq!(
            sink.of_kind(ObsKind::Preempt).count(),
            1,
            "job 1 preempted once by job 2:\n{}",
            sink.render()
        );
        let preempt = sink.of_kind(ObsKind::Preempt).next().unwrap();
        assert_eq!(preempt.task, 1);
        // Completion order: tight job 2 first.
        let completes: Vec<u64> = sink.of_kind(ObsKind::Complete).map(|e| e.task).collect();
        assert_eq!(completes, vec![2, 1]);
    }

    #[test]
    fn trace_records_misses_and_table_fires() {
        let params = HypervisorParams::new(1).with_predefined(vec![predefined(9, 4, 1)]);
        let mut hv = Hypervisor::new(params).unwrap();
        hv.attach_obs(64);
        hv.submit(RtJob::new(0, 1, 0, 10, 3)).unwrap(); // must miss
        hv.run(8);
        let sink = &hv.obs().unwrap().sink;
        assert_eq!(sink.dropped(), 0);
        assert_eq!(sink.of_kind(ObsKind::DeadlineMiss).count(), 1);
        assert_eq!(sink.of_kind(ObsKind::TableFire).count(), 2);
        // Disabled by default: a fresh hypervisor carries no observer.
        let mut fresh = Hypervisor::new(HypervisorParams::new(1)).unwrap();
        fresh.submit(RtJob::new(0, 1, 0, 1, 5)).unwrap();
        fresh.run(3);
        assert!(fresh.obs().is_none());
    }

    #[test]
    fn watchdog_retries_then_degrades_and_recovers() {
        use crate::driver::RetryPolicy;
        let params = HypervisorParams::new(1)
            .with_watchdog(RetryPolicy {
                timeout_slots: 2,
                max_retries: 2,
                backoff_base: 1,
                backoff_cap: 2,
            })
            .with_degradation(DegradationPolicy {
                healthy_slots_to_recover: 8,
            });
        let mut hv = Hypervisor::new(params).unwrap();
        hv.attach_obs(256);
        hv.submit(RtJob::new(0, 1, 0, 2, 1_000)).unwrap();
        hv.inject_device_stall(50);
        hv.run(50);
        // One exhaustion cycle → Degraded; the fault persists, so a second
        // cycle escalates to the P-channel-only fallback table.
        assert_eq!(hv.mode(), HvMode::PchannelOnly);
        let m = hv.metrics().clone();
        assert!(m.stalled_slots > 0, "{m:?}");
        assert!(m.backoff_slots > 0, "{m:?}");
        assert_eq!(m.retries, 4, "2 bounded retries per cycle: {m:?}");
        assert_eq!(m.vm(0).retries, 4);
        assert_eq!(m.mode_changes, 2);
        let sink = &hv.obs().unwrap().sink;
        assert_eq!(sink.dropped(), 0);
        assert_eq!(sink.of_kind(ObsKind::Fault).count(), 1);
        assert_eq!(sink.of_kind(ObsKind::Retry).count(), 4);
        assert_eq!(sink.of_kind(ObsKind::ModeChange).count(), 2);
        // Fault clears at slot 50: the job completes, and after the healthy
        // run the mode steps back to Normal.
        hv.run(20);
        assert_eq!(hv.mode(), HvMode::Normal);
        assert_eq!(hv.metrics().completed, 1);
        let sink = &hv.obs().unwrap().sink;
        assert_eq!(sink.dropped(), 0);
        assert!(sink.of_kind(ObsKind::Recovery).count() >= 1);
        let normal_ordinal = u64::from(HvMode::Normal.ordinal());
        assert!(sink
            .of_kind(ObsKind::ModeChange)
            .any(|e| e.arg == normal_ordinal));
    }

    #[test]
    fn degraded_mode_sheds_best_effort_keeps_critical() {
        let mut hv = Hypervisor::new(HypervisorParams::new(1)).unwrap();
        hv.submit(RtJob::new(0, 1, 0, 2, 100)).unwrap();
        hv.submit(RtJob::new(0, 2, 0, 2, 100).best_effort())
            .unwrap();
        hv.degrade();
        assert_eq!(hv.mode(), HvMode::Degraded);
        assert_eq!(hv.metrics().dropped_best_effort, 1);
        assert_eq!(hv.metrics().vm(0).dropped_best_effort, 1);
        // New best-effort work is refused at admission; critical accepted.
        assert_eq!(
            hv.submit(RtJob::new(0, 3, 0, 1, 100).best_effort()),
            Err(HvError::DegradedMode)
        );
        hv.submit(RtJob::new(0, 4, 0, 1, 100)).unwrap();
        hv.run(10);
        assert_eq!(hv.metrics().completed, 2);
        assert!(hv.metrics().no_misses());
    }

    #[test]
    fn pchannel_only_mode_refuses_all_runtime_work() {
        let params = HypervisorParams::new(1).with_predefined(vec![predefined(1, 2, 1)]);
        let mut hv = Hypervisor::new(params).unwrap();
        hv.degrade();
        hv.degrade();
        assert_eq!(hv.mode(), HvMode::PchannelOnly);
        assert_eq!(
            hv.submit(RtJob::new(0, 1, 0, 1, 100)),
            Err(HvError::DegradedMode)
        );
        assert_eq!(hv.metrics().missed, 1, "refused critical job is a miss");
        hv.run(4);
        // σ* still fires; no R-channel slots are granted.
        assert_eq!(hv.metrics().predefined_completed, 2);
        assert_eq!(hv.metrics().rchannel_slots, 0);
    }

    #[test]
    fn admission_guard_throttles_babbling_vm() {
        let params = HypervisorParams::new(2).with_admission_guard(AdmissionGuard {
            window: 10,
            max_submissions: 3,
            throttle_slots: 20,
        });
        let mut hv = Hypervisor::new(params).unwrap();
        hv.attach_obs(64);
        for k in 0..3 {
            hv.submit(RtJob::new(0, k, 0, 1, 100)).unwrap();
        }
        // Fourth submission in the window trips flood control.
        let err = hv.submit(RtJob::new(0, 3, 0, 1, 100)).unwrap_err();
        assert!(matches!(err, HvError::Throttled { vm: 0, .. }), "{err}");
        assert!(matches!(
            hv.submit(RtJob::new(0, 4, 0, 1, 100)),
            Err(HvError::Throttled { .. })
        ));
        assert_eq!(hv.metrics().vm(0).throttled_submissions, 2);
        let sink = &hv.obs().unwrap().sink;
        assert_eq!(sink.dropped(), 0);
        assert_eq!(sink.of_kind(ObsKind::Throttle).count(), 1);
        // The other VM is unaffected, now and throughout the penalty.
        hv.submit(RtJob::new(1, 10, 0, 1, 100)).unwrap();
        hv.run(25);
        assert!(hv.metrics().no_misses_for(1));
        // Penalty expired: VM 0 submits again (fresh window).
        let t = hv.now();
        hv.submit(RtJob::new(0, 5, t, 1, t + 50)).unwrap();
        hv.run(5);
        assert_eq!(hv.metrics().completed, 5);
    }

    #[test]
    fn throttled_vm_denied_slots_but_others_progress() {
        let params = HypervisorParams::new(2).with_admission_guard(AdmissionGuard {
            window: 100,
            max_submissions: 2,
            throttle_slots: 50,
        });
        let mut hv = Hypervisor::new(params).unwrap();
        // VM 0 fills its allowance with long tight-deadline work, then
        // trips the guard; its buffered jobs must not crowd out VM 1.
        hv.submit(RtJob::new(0, 1, 0, 30, 40)).unwrap();
        hv.submit(RtJob::new(0, 2, 0, 30, 40)).unwrap();
        let _ = hv.submit(RtJob::new(0, 3, 0, 30, 40));
        hv.submit(RtJob::new(1, 10, 0, 5, 60)).unwrap();
        hv.run(20);
        // VM 0 is scheduler-throttled: its EDF-earliest jobs get nothing.
        assert!(hv.metrics().vm(0).throttled_slots > 0);
        assert_eq!(hv.metrics().completed, 1, "vm 1 completed despite edf");
        assert!(hv.metrics().no_misses_for(1));
    }

    #[test]
    fn guarded_edf_policy_validates_server_count() {
        let bad = HypervisorParams::new(2).with_policy(GschedPolicy::GuardedEdf(vec![
            PeriodicServer::new(4, 1).unwrap(),
        ]));
        assert!(matches!(
            Hypervisor::new(bad),
            Err(HvError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn drain_and_restore_carry_entries_exactly_once() {
        let mut hv = Hypervisor::new(HypervisorParams::new(2)).unwrap();
        hv.submit(RtJob::new(0, 1, 0, 3, 100)).unwrap();
        hv.submit(RtJob::new(1, 2, 0, 2, 50)).unwrap();
        hv.run(1); // one slot of progress on the tighter job
        let carried = hv.drain_pools();
        assert_eq!(carried.len(), 2);
        assert!(hv.pools().iter().all(IoPool::is_empty));
        // Deterministic order: vm ascending.
        assert_eq!(carried[0].0, 0);
        assert_eq!(carried[1].0, 1);
        // Progress is preserved in the carried entry.
        assert_eq!(carried[1].1.remaining, 1);
        // Restore into a fresh hypervisor; no Admit events, jobs finish.
        let mut next = Hypervisor::new(HypervisorParams::new(2)).unwrap();
        next.attach_obs(64);
        for (vm, entry) in carried {
            next.restore_entry(vm, entry).unwrap();
        }
        assert_eq!(next.obs().unwrap().sink.recorded(), 0, "no admit events");
        next.run(10);
        assert_eq!(next.metrics().completed, 2);
        // Restore into an unknown VM is a typed error.
        let mut small = Hypervisor::new(HypervisorParams::new(1)).unwrap();
        let entry = PoolEntry {
            task_id: 9,
            deadline: 10,
            remaining: 1,
            enqueued_at: 0,
            first_dispatch: NEVER_DISPATCHED,
            response_bytes: 64,
            critical: true,
        };
        assert!(matches!(
            small.restore_entry(5, entry),
            Err(HvError::UnknownVm { vm: 5, vms: 1 })
        ));
    }

    #[test]
    fn analysis_schedulable_implies_no_hypervisor_misses() {
        // Cross-validation against the theory crate: build a system that
        // passes the two-layer test, then drive the hypervisor with the
        // synchronous release pattern and expect zero misses.
        use ioguard_sched::analysis::TwoLayerAnalysis;
        use ioguard_sched::task::TaskSet;

        let pre = vec![predefined(1, 10, 2)]; // σ*: 2 occupied per 10
        let servers = vec![
            PeriodicServer::new(5, 2).unwrap(),
            PeriodicServer::new(10, 3).unwrap(),
        ];
        let vm0: TaskSet = vec![SporadicTask::new(20, 2, 10).unwrap()].into();
        let vm1: TaskSet = vec![SporadicTask::new(40, 4, 30).unwrap()].into();

        let pch = PChannel::build(pre.clone(), 1000).unwrap();
        let analysis = TwoLayerAnalysis::new(
            pch.table().clone(),
            servers.clone(),
            vec![vm0.clone(), vm1.clone()],
        )
        .unwrap();
        assert!(analysis.schedulable().unwrap().is_schedulable());

        let params = HypervisorParams::new(2)
            .with_predefined(pre)
            .with_policy(GschedPolicy::ServerBased(servers));
        let mut hv = Hypervisor::new(params).unwrap();
        let horizon = 2000;
        let mut next_id = 0u64;
        for t in 0..horizon {
            for (vm, ts) in [(0usize, &vm0), (1usize, &vm1)] {
                for task in ts.iter() {
                    if t % task.period() == 0 {
                        next_id += 1;
                        hv.submit(RtJob::new(vm, next_id, t, task.wcet(), t + task.deadline()))
                            .unwrap();
                    }
                }
            }
            hv.step();
        }
        hv.run(60); // drain
        assert_eq!(hv.metrics().missed, 0, "{:?}", hv.metrics());
        assert!(hv.metrics().completed > 0);
        assert!(hv.metrics().predefined_completed > 0);
    }
}
