//! Execution metrics of the hypervisor device model.
//!
//! [`HvMetrics`] aggregates global counters (the Fig. 7 success-ratio and
//! throughput inputs) and, since the robustness work, a per-VM breakdown
//! ([`VmMetrics`]): the paper's isolation claim is *per VM* — a faulty VM
//! may miss deadlines while the well-behaved VMs must not — so miss,
//! throttle, retry and shedding counters have to be attributable to a
//! single VM, not just summed across the device.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use ioguard_sim::stats::OnlineStats;

pub use ioguard_obs::counters::VmCounters;
use ioguard_obs::CounterRegistry;

/// Capacity of the recent-miss diagnostic ring.
const MISS_RING: usize = 64;

/// The task ids of the last [`MISS_RING`] misses, oldest to newest. Once
/// full, a push drops the oldest id in O(1).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MissRing(VecDeque<u64>);

impl MissRing {
    fn push(&mut self, task_id: u64) {
        if self.0.len() == MISS_RING {
            self.0.pop_front();
        }
        self.0.push_back(task_id);
    }

    /// Number of ids held (at most 64).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True before the first miss.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The most recent miss.
    pub fn last(&self) -> Option<&u64> {
        self.0.back()
    }

    /// The held ids, oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &u64> {
        self.0.iter()
    }
}

/// Per-VM execution counters.
///
/// Since the observability layer landed, this is the obs crate's
/// [`VmCounters`] — one definition shared by the live hypervisor and the
/// trace-stream fold ([`CounterRegistry::fold_event`]), so the cross-check
/// `fold(trace) == registry` compares identical types field-for-field.
pub type VmMetrics = VmCounters;

/// Aggregate execution metrics.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct HvMetrics {
    /// Run-time jobs completed before their deadlines.
    pub completed: u64,
    /// Run-time jobs that missed (expired in a pool or rejected on a full
    /// pool).
    pub missed: u64,
    /// Jobs rejected due to pool overflow (also counted in `missed`).
    pub rejected: u64,
    /// Misses of *critical* jobs only (the success-ratio criterion).
    pub critical_missed: u64,
    /// Pre-defined jobs completed by the P-channel.
    pub predefined_completed: u64,
    /// Slots spent executing P-channel work.
    pub pchannel_slots: u64,
    /// Slots spent executing R-channel work.
    pub rchannel_slots: u64,
    /// Free slots left idle (no eligible work).
    pub idle_slots: u64,
    /// Granted slots burned against a stalled or stuck device (no job
    /// progress; the watchdog counts these toward its timeout).
    pub stalled_slots: u64,
    /// Slots the executor sat out while the watchdog's exponential backoff
    /// window was open.
    pub backoff_slots: u64,
    /// Watchdog retry operations issued against the device.
    pub retries: u64,
    /// Best-effort jobs shed (from pools or at admission) by degradation.
    pub dropped_best_effort: u64,
    /// Operating-mode transitions (normal ↔ degraded ↔ P-channel-only).
    pub mode_changes: u64,
    /// Response payload bytes produced (throughput numerator).
    pub response_bytes: u64,
    /// Response latency of completed run-time jobs, in slots.
    pub latency: OnlineStats,
    /// Task ids of the most recent misses (bounded diagnostic ring).
    pub recent_missed_tasks: MissRing,
    /// Per-VM breakdown (indexed by VM; sized at hypervisor construction).
    pub per_vm: Vec<VmMetrics>,
}

impl HvMetrics {
    /// Creates metrics with a per-VM breakdown for `vms` VMs.
    pub fn with_vms(vms: usize) -> Self {
        Self {
            per_vm: vec![VmMetrics::default(); vms],
            ..Self::default()
        }
    }

    /// The per-VM counters of `vm` (zeroed counters for an unknown VM, so
    /// the accessor never panics on diagnostic paths).
    pub fn vm(&self, vm: usize) -> VmMetrics {
        self.per_vm.get(vm).copied().unwrap_or_default()
    }

    /// The per-VM counters as an obs-layer [`CounterRegistry`] — the live
    /// side of the metrics/trace cross-check (`fold(trace)` must reproduce
    /// this exactly).
    pub fn registry(&self) -> CounterRegistry {
        CounterRegistry::from_vms(self.per_vm.clone())
    }

    /// Records a miss of `task_id` on `vm`.
    pub(crate) fn note_miss(&mut self, vm: usize, task_id: u64, critical: bool) {
        self.missed += 1;
        self.critical_missed += u64::from(critical);
        if let Some(per) = self.per_vm.get_mut(vm) {
            per.missed += 1;
            per.critical_missed += u64::from(critical);
        }
        self.recent_missed_tasks.push(task_id);
    }

    /// Records a completion on `vm`.
    pub(crate) fn note_completion(&mut self, vm: usize) {
        self.completed += 1;
        if let Some(per) = self.per_vm.get_mut(vm) {
            per.completed += 1;
        }
    }

    /// Records a submission refused by flood control on `vm`.
    pub(crate) fn note_throttled_submission(&mut self, vm: usize) {
        if let Some(per) = self.per_vm.get_mut(vm) {
            per.throttled_submissions += 1;
        }
    }

    /// Records a slot in which `vm` had work but was denied by budget
    /// enforcement or an open throttle window.
    pub(crate) fn note_throttled_slot(&mut self, vm: usize) {
        if let Some(per) = self.per_vm.get_mut(vm) {
            per.throttled_slots += 1;
        }
    }

    /// Records a watchdog retry attributed to `vm`'s transaction.
    pub(crate) fn note_retry(&mut self, vm: usize) {
        self.retries += 1;
        if let Some(per) = self.per_vm.get_mut(vm) {
            per.retries += 1;
        }
    }

    /// Records `n` best-effort jobs shed from `vm`.
    pub(crate) fn note_shed(&mut self, vm: usize, n: u64) {
        self.dropped_best_effort += n;
        if let Some(per) = self.per_vm.get_mut(vm) {
            per.dropped_best_effort += n;
        }
    }

    /// Total slots observed.
    pub fn total_slots(&self) -> u64 {
        self.pchannel_slots
            .saturating_add(self.rchannel_slots)
            .saturating_add(self.idle_slots)
            .saturating_add(self.stalled_slots)
            .saturating_add(self.backoff_slots)
    }

    /// True when no run-time job has missed, on any VM.
    ///
    /// Derivable per VM: this is exactly `(0..vms).all(no_misses_for)` —
    /// the global counter and the per-VM counters are maintained together.
    pub fn no_misses(&self) -> bool {
        self.missed == 0
    }

    /// True when no run-time job of `vm` has missed — the per-VM isolation
    /// criterion (a faulty VM may miss while this VM stays clean).
    pub fn no_misses_for(&self, vm: usize) -> bool {
        self.vm(vm).missed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_vm_breakdown_tracks_global() {
        let mut m = HvMetrics::with_vms(2);
        m.note_miss(0, 10, true);
        m.note_miss(1, 11, false);
        m.note_miss(0, 12, false);
        assert_eq!(m.missed, 3);
        assert_eq!(m.critical_missed, 1);
        assert_eq!(m.vm(0).missed, 2);
        assert_eq!(m.vm(0).critical_missed, 1);
        assert_eq!(m.vm(1).missed, 1);
        assert!(!m.no_misses());
        assert!(!m.no_misses_for(0));
        assert!(m.no_misses_for(2), "unknown vm reads as clean");
    }

    #[test]
    fn no_misses_is_conjunction_of_per_vm() {
        let mut m = HvMetrics::with_vms(3);
        assert!(m.no_misses());
        assert!((0..3).all(|vm| m.no_misses_for(vm)));
        m.note_miss(2, 7, true);
        assert!(!m.no_misses());
        assert_eq!(
            m.no_misses(),
            (0..3).all(|vm| m.no_misses_for(vm)),
            "global flag must be derivable from the per-VM flags"
        );
    }

    #[test]
    fn miss_ring_is_bounded() {
        let mut m = HvMetrics::with_vms(1);
        for i in 0..200 {
            m.note_miss(0, i, false);
        }
        assert_eq!(m.recent_missed_tasks.len(), MISS_RING);
        assert_eq!(*m.recent_missed_tasks.last().unwrap(), 199);
    }

    #[test]
    fn completions_and_sheds_attribute_per_vm() {
        let mut m = HvMetrics::with_vms(2);
        m.note_completion(1);
        m.note_shed(0, 3);
        assert_eq!(m.completed, 1);
        assert_eq!(m.vm(1).completed, 1);
        assert_eq!(m.dropped_best_effort, 3);
        assert_eq!(m.vm(0).dropped_best_effort, 3);
        assert!(m.vm(0).no_misses());
    }

    #[test]
    fn total_slots_includes_fault_accounting() {
        let m = HvMetrics {
            pchannel_slots: 2,
            rchannel_slots: 3,
            idle_slots: 4,
            stalled_slots: 5,
            backoff_slots: 6,
            ..HvMetrics::default()
        };
        assert_eq!(m.total_slots(), 20);
    }
}
