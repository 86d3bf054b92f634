//! End-to-end integration: workload generation → admission analysis →
//! hypervisor execution, across crates.

use ioguard_hypervisor::gsched::GschedPolicy;
use ioguard_hypervisor::hypervisor::{Hypervisor, HypervisorParams, RtJob};
use ioguard_hypervisor::pchannel::{PChannel, PredefinedTask};
use ioguard_sched::analysis::TwoLayerAnalysis;
use ioguard_sched::design::{synthesize_servers, SynthesisConfig};
use ioguard_sched::task::{SporadicTask, TaskSet};
use ioguard_workload::generator::{TrialConfig, TrialWorkload};

fn predefined(task_id: u64, period: u64, wcet: u64) -> PredefinedTask {
    PredefinedTask {
        task_id,
        vm: 0,
        task: SporadicTask::implicit(period, wcet).expect("valid"),
        response_bytes: 64,
        start_offset: 0,
    }
}

/// Analysis-accepts ⇒ execution-meets, with synthesized servers, on a
/// workload produced by the generator — the full cross-crate promise.
#[test]
fn admitted_workload_executes_without_misses() {
    // A light generated workload spread over 2 VMs.
    let workload = TrialWorkload::generate(&TrialConfig::new(2, 0.45, 11));
    let task_sets = workload.vm_task_sets();

    // Scale periods down into an analysis-friendly table: use a synthetic
    // σ* with 25% pre-defined occupancy.
    let sigma =
        ioguard_sched::table::TimeSlotTable::from_occupied(8, &[0, 4]).expect("valid table");

    // Shrink the workload to per-VM representative task sets the exact
    // tests can handle (catalogue periods share small divisors).
    let shrunk: Vec<TaskSet> = task_sets
        .iter()
        .map(|ts| {
            ts.iter()
                .take(2)
                .map(|t| {
                    SporadicTask::new(t.period() / 10, (t.wcet() / 4).max(1), t.period() / 10)
                        .expect("scaled tasks stay valid")
                })
                .collect()
        })
        .collect();

    let servers = match synthesize_servers(&sigma, &shrunk, &SynthesisConfig::divisors_of(8)) {
        Ok(s) => s,
        Err(e) => panic!("synthesis failed on a light workload: {e}"),
    };
    let analysis = TwoLayerAnalysis::new(sigma, servers.clone(), shrunk.clone()).expect("arity");
    assert!(analysis.schedulable().expect("bounded").is_schedulable());

    // Execute on the hypervisor with the same servers.
    let params = HypervisorParams::new(2).with_policy(GschedPolicy::ServerBased(servers));
    let mut hv = Hypervisor::new(params).expect("valid params");
    let mut id = 0;
    let horizon = 4_000;
    for t in 0..horizon {
        for (vm, ts) in shrunk.iter().enumerate() {
            for task in ts.iter() {
                if t % task.period() == 0 {
                    id += 1;
                    hv.submit(RtJob::new(vm, id, t, task.wcet(), t + task.deadline()))
                        .expect("pool has room for an admitted set");
                }
            }
        }
        hv.step();
    }
    assert_eq!(hv.metrics().missed, 0, "{:?}", hv.metrics());
    assert!(hv.metrics().completed > 100);
}

/// The P-channel executes pre-defined tasks with zero jitter: every job
/// completes at a fixed offset within its period, every period.
#[test]
fn pchannel_completions_are_perfectly_periodic() {
    let pre = vec![predefined(1, 50, 3), predefined(2, 100, 7)];
    let pch = PChannel::build(pre.clone(), 10_000).expect("fits");
    // Completion slots of task 0 within each period must be identical.
    let hyper = pch.hyper_period();
    let completion_offsets: Vec<u64> = (0..hyper)
        .filter(|&t| {
            pch.fire(t)
                .map(|o| o.task_index == 0 && o.completes_job)
                .unwrap_or(false)
        })
        .map(|t| t % 50)
        .collect();
    assert_eq!(completion_offsets.len() as u64, hyper / 50);
    assert!(
        completion_offsets.windows(2).all(|w| w[0] == w[1]),
        "per-period completion offset is constant: {completion_offsets:?}"
    );
}

/// Preemptive pools beat a FIFO on the same adversarial job pattern — the
/// central hardware claim, demonstrated across the baselines and
/// hypervisor crates.
#[test]
fn preemption_beats_fifo_on_adversarial_pattern() {
    use ioguard_baselines::bluevisor::BlueVisorPlatform;
    use ioguard_baselines::ioguard::IoGuardPlatform;
    use ioguard_baselines::platform::{IoPlatform, PlatformJob};

    let drive = |p: &mut dyn IoPlatform| {
        // Every 100 slots: one long lax transfer then a burst of tight ones.
        for t in (0..5_000u64).step_by(100) {
            p.advance_to(t);
            p.submit(PlatformJob::new(0, t * 10 + 1, t, 40, t + 400, 512, true));
            for k in 0..4 {
                p.submit(PlatformJob::new(1, t * 10 + 2 + k, t, 2, t + 20, 64, true));
            }
        }
        p.advance_to(5_000);
    };
    let mut fifo = BlueVisorPlatform::new(2, 0);
    drive(&mut fifo);
    let mut edf = IoGuardPlatform::new(2, vec![], GschedPolicy::GlobalEdf).expect("valid");
    drive(&mut edf);
    assert!(
        fifo.metrics().missed > 0,
        "FIFO must suffer priority inversion: {:?}",
        fifo.metrics()
    );
    assert_eq!(
        edf.metrics().missed,
        0,
        "EDF pools absorb the same pattern: {:?}",
        edf.metrics()
    );
}

/// Utilization accounting is consistent between the workload generator and
/// the scheduling model.
#[test]
fn workload_utilization_matches_task_set_view() {
    for target in [0.4, 0.7, 1.0] {
        let w = TrialWorkload::generate(&TrialConfig::new(4, target, 5));
        let direct = w.total_utilization();
        let via_sets: f64 = w.vm_task_sets().iter().map(|s| s.utilization()).sum();
        assert!((direct - via_sets).abs() < 1e-9);
    }
}
