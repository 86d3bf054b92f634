//! Trial-driver differential: `run_trial`, which walks a sorted release
//! schedule and lets each platform jump from event to event, must equal
//! the per-slot reference driver below bit for bit (`TrialOutcome ==`, so
//! the `f64` throughput is bit-equal) on every case-study system.
//!
//! The reference is the original trial loop: per-task phases, pre-loaded
//! tasks chosen by name, a `(release, task index)` calendar heap popped
//! slot by slot, and the platform advanced one slot at a time.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ioguard_baselines::bluevisor::BlueVisorPlatform;
use ioguard_baselines::ioguard::IoGuardPlatform;
use ioguard_baselines::legacy::LegacyPlatform;
use ioguard_baselines::platform::{job_jitter, IoPlatform, PlatformJob};
use ioguard_baselines::rtxen::RtXenPlatform;
use ioguard_core::casestudy::{run_trial, SystemUnderTest, TrialOutcome};
use ioguard_hypervisor::gsched::GschedPolicy;
use ioguard_hypervisor::hypervisor::PchannelReclaim;
use ioguard_hypervisor::pchannel::PredefinedTask;
use ioguard_sched::task::PeriodicServer;
use ioguard_sim::rng::{SplitMix64, Xoshiro256StarStar};
use ioguard_workload::generator::{TrialConfig, TrialWorkload};
use ioguard_workload::suites::SLOT_MICROS;

/// Lower bound of the per-job execution-time fraction (the case study's
/// conservative-WCET model).
const ACTUAL_EXEC_MIN: f64 = 0.90;

fn reference_ioguard(
    workload: &TrialWorkload,
    preload_names: &[String],
    policy: GschedPolicy,
    phase_seed: u64,
) -> Option<IoGuardPlatform> {
    let predefined: Vec<PredefinedTask> = workload
        .tasks()
        .iter()
        .enumerate()
        .filter(|(_, t)| preload_names.contains(&t.name))
        .map(|(idx, t)| PredefinedTask {
            task_id: idx as u64 + 1,
            vm: t.vm,
            task: t.task,
            response_bytes: t.response_bytes,
            start_offset: (idx as u64).wrapping_mul(0x9E37_79B9) % t.task.period(),
        })
        .collect();
    IoGuardPlatform::with_reclaim(
        workload.config().vms,
        predefined,
        policy,
        PchannelReclaim {
            seed: phase_seed ^ 0xEC2,
            min_fraction: ACTUAL_EXEC_MIN,
        },
    )
    .ok()
}

/// The per-slot trial driver.
fn reference_trial(
    system: SystemUnderTest,
    workload: &TrialWorkload,
    phase_seed: u64,
    horizon_slots: u64,
) -> TrialOutcome {
    let vms = workload.config().vms;
    let mut phase_rng = Xoshiro256StarStar::new(SplitMix64::new(phase_seed).derive(0xFA5E));
    let phases: Vec<u64> = workload
        .tasks()
        .iter()
        .map(|t| phase_rng.range_u64(0, t.task.period()))
        .collect();

    let (preload_names, policy) = match system {
        SystemUnderTest::IoGuard { preload_pct } => {
            let (pre, _) = workload.split_preload(preload_pct as f64 / 100.0);
            (
                pre.iter().map(|t| t.name.clone()).collect::<Vec<_>>(),
                GschedPolicy::GlobalEdf,
            )
        }
        SystemUnderTest::IoGuardServerIsolated { preload_pct } => {
            let (pre, _) = workload.split_preload(preload_pct as f64 / 100.0);
            let free = (1.0 - pre.iter().map(|t| t.task.utilization()).sum::<f64>()).max(0.05);
            let budget = ((free * 100.0 / vms as f64).floor() as u64).max(1);
            let servers = (0..vms)
                .map(|_| PeriodicServer::new(100, budget.min(100)).expect("1 ≤ budget ≤ 100"))
                .collect();
            (
                pre.iter().map(|t| t.name.clone()).collect::<Vec<_>>(),
                GschedPolicy::ServerBased(servers),
            )
        }
        _ => (Vec::new(), GschedPolicy::GlobalEdf),
    };

    let mut platform: Box<dyn IoPlatform> = match system {
        SystemUnderTest::Legacy => Box::new(LegacyPlatform::new(vms, phase_seed)),
        SystemUnderTest::RtXen => Box::new(RtXenPlatform::new(vms, phase_seed)),
        SystemUnderTest::BlueVisor => Box::new(BlueVisorPlatform::new(vms, phase_seed)),
        SystemUnderTest::IoGuard { .. } | SystemUnderTest::IoGuardServerIsolated { .. } => {
            match reference_ioguard(workload, &preload_names, policy, phase_seed) {
                Some(p) => Box::new(p),
                None => {
                    return TrialOutcome {
                        success: false,
                        throughput_mbps: 0.0,
                        critical_misses: u64::MAX,
                        misses: u64::MAX,
                    };
                }
            }
        }
    };

    let mut calendar: BinaryHeap<Reverse<(u64, usize)>> = workload
        .tasks()
        .iter()
        .enumerate()
        .filter(|(_, t)| !preload_names.contains(&t.name))
        .map(|(idx, _)| Reverse((phases[idx], idx)))
        .collect();
    let mut next_job_id = 1u64;
    for slot in 0..horizon_slots {
        while let Some(&Reverse((release, idx))) = calendar.peek() {
            if release > slot {
                break;
            }
            calendar.pop();
            let task = &workload.tasks()[idx];
            let frac = ACTUAL_EXEC_MIN
                + (1.0 - ACTUAL_EXEC_MIN)
                    * (job_jitter(phase_seed ^ 0xEC, next_job_id, slot, 1024) as f64 / 1024.0);
            let actual = ((task.task.wcet() as f64 * frac).round() as u64).max(1);
            platform.submit(PlatformJob::new(
                task.vm,
                next_job_id,
                slot,
                actual,
                slot + task.task.deadline(),
                task.response_bytes,
                task.is_critical(),
            ));
            next_job_id += 1;
            calendar.push(Reverse((release + task.task.period(), idx)));
        }
        platform.advance_to(slot + 1);
    }

    let m = platform.metrics();
    let sim_seconds = horizon_slots as f64 * SLOT_MICROS as f64 / 1e6;
    TrialOutcome {
        success: m.trial_success(),
        throughput_mbps: m.on_time_bytes as f64 * 8.0 / sim_seconds / 1e6,
        critical_misses: m.critical_missed,
        misses: m.missed,
    }
}

fn systems() -> Vec<SystemUnderTest> {
    let mut systems = SystemUnderTest::figure7_lineup();
    systems.push(SystemUnderTest::IoGuardServerIsolated { preload_pct: 40 });
    systems
}

#[test]
fn run_trial_matches_the_per_slot_reference() {
    let (mut checked, mut failed, mut succeeded) = (0, 0, 0);
    for vms in [4, 8] {
        for util in [0.40, 0.70, 1.00] {
            for seed in [1u64, 7919, 0x5EED_CAFE] {
                let workload = TrialWorkload::generate(&TrialConfig::new(vms, util, seed));
                for horizon in [16_000, 4_097] {
                    for system in systems() {
                        let expected = reference_trial(system, &workload, seed, horizon);
                        failed += u32::from(!expected.success);
                        succeeded += u32::from(expected.success);
                        assert_eq!(
                            run_trial(system, &workload, seed, horizon),
                            expected,
                            "{} vms={vms} u={util} seed={seed} horizon={horizon}",
                            system.label()
                        );
                        checked += 1;
                    }
                }
            }
        }
    }
    assert_eq!(checked, 2 * 3 * 3 * 2 * 6);
    // The grid spans comfortable and overloaded trials alike.
    assert!(
        failed > 20 && succeeded > 20,
        "{failed} failed, {succeeded} succeeded"
    );
}
