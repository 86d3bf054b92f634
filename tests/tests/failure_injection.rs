//! Failure injection: the system under pathological inputs — overload
//! storms, queue exhaustion, infeasible configurations, extreme parameters.
//! The models must degrade *accountably* (every job classified, no panics,
//! recovery once the fault clears).

use ioguard_baselines::bluevisor::BlueVisorPlatform;
use ioguard_baselines::ioguard::IoGuardPlatform;
use ioguard_baselines::platform::{IoPlatform, PlatformJob};
use ioguard_hypervisor::driver::IoProtocol;
use ioguard_hypervisor::gsched::GschedPolicy;
use ioguard_hypervisor::hypervisor::{Hypervisor, HypervisorParams, RtJob};
use ioguard_hypervisor::pchannel::PredefinedTask;
use ioguard_hypervisor::system::{IoDeviceConfig, MultiIoSystem, Transfer};
use ioguard_sched::task::SporadicTask;

/// A pool-overflow storm: a burst far beyond the hardware queue capacity.
/// Every overflowing job must be counted (rejected + missed), none lost,
/// and the hypervisor must keep scheduling what it admitted.
#[test]
fn pool_overflow_storm_is_fully_accounted() {
    let params = HypervisorParams {
        pool_capacity: 8,
        ..HypervisorParams::new(1)
    };
    let mut hv = Hypervisor::new(params).expect("valid");
    let storm = 100u64;
    let mut rejected = 0;
    for i in 0..storm {
        if hv.submit(RtJob::new(0, i, 0, 1, 1_000)).is_err() {
            rejected += 1;
        }
    }
    assert_eq!(rejected, storm - 8, "capacity 8 admits exactly 8");
    assert_eq!(hv.metrics().rejected, rejected);
    assert_eq!(hv.metrics().missed, rejected);
    hv.run(20);
    assert_eq!(hv.metrics().completed, 8, "admitted jobs still complete");
    assert_eq!(
        hv.metrics().completed + hv.metrics().missed,
        storm,
        "conservation through the storm"
    );
}

/// Transient overload: a 10× burst for a short window, then light load.
/// Misses occur during the burst; after the backlog clears, the system
/// returns to zero-miss operation (no permanent degradation).
#[test]
fn transient_overload_recovers() {
    let mut hv = Hypervisor::new(HypervisorParams::new(2)).expect("valid");
    // Burst: 40 jobs of 5 slots, all due in 50 slots — infeasible.
    for i in 0..40 {
        let _ = hv.submit(RtJob::new((i % 2) as usize, i, 0, 5, 50));
    }
    hv.run(300);
    let misses_after_burst = hv.metrics().missed;
    assert!(
        misses_after_burst > 0,
        "the burst must overwhelm the device"
    );
    assert!(
        hv.pools().iter().all(|p| p.is_empty()),
        "backlog fully cleared"
    );
    // Light periodic phase: must run clean.
    for k in 0..50u64 {
        let t = hv.now();
        hv.submit(RtJob::new(0, 1_000 + k, t, 1, t + 20))
            .expect("room");
        hv.run(10);
    }
    assert_eq!(
        hv.metrics().missed,
        misses_after_burst,
        "no new misses after the overload clears"
    );
}

/// FIFO under the same storm: drops at the device queue, with the drop
/// counter and the trial-failure flag both raised.
#[test]
fn fifo_overflow_drops_are_visible() {
    let mut bv = BlueVisorPlatform::new(1, 0);
    for i in 0..200 {
        bv.submit(PlatformJob::new(0, i, 0, 2, 10_000, 64, true));
    }
    bv.advance_to(1_000);
    let m = bv.metrics();
    assert!(m.dropped > 0, "{m:?}");
    assert_eq!(m.dropped + m.completed_on_time + m.completed_late, 200);
    assert!(!m.trial_success());
}

/// Infeasible pre-defined loads fail at construction — before any job can
/// be lost — at every API level.
#[test]
fn infeasible_preload_fails_closed() {
    let overload = vec![
        PredefinedTask {
            task_id: 1,
            vm: 0,
            task: SporadicTask::implicit(2, 2).expect("valid"),
            response_bytes: 1,
            start_offset: 0,
        },
        PredefinedTask {
            task_id: 2,
            vm: 0,
            task: SporadicTask::implicit(2, 1).expect("valid"),
            response_bytes: 1,
            start_offset: 0,
        },
    ];
    assert!(Hypervisor::new(HypervisorParams::new(1).with_predefined(overload.clone())).is_err());
    assert!(IoGuardPlatform::new(1, overload.clone(), GschedPolicy::GlobalEdf).is_err());
    assert!(MultiIoSystem::new(
        vec![IoDeviceConfig::new(IoProtocol::Spi, 1).with_predefined(overload)],
        50_000,
    )
    .is_err());
}

/// Extreme parameters: far-future deadlines, 1-slot periods, and huge
/// payloads never panic and never corrupt accounting.
#[test]
fn extreme_parameters_are_safe() {
    let mut hv = Hypervisor::new(HypervisorParams::new(1)).expect("valid");
    hv.submit(RtJob::new(0, 1, 0, 1, u64::MAX)).expect("room");
    hv.run(5);
    assert_eq!(hv.metrics().completed, 1);

    // A dense 1-slot-period pre-defined task saturating the whole table.
    let dense = PredefinedTask {
        task_id: 1,
        vm: 0,
        task: SporadicTask::implicit(1, 1).expect("valid"),
        response_bytes: 1,
        start_offset: 0,
    };
    let mut hv =
        Hypervisor::new(HypervisorParams::new(1).with_predefined(vec![dense])).expect("fits");
    hv.submit(RtJob::new(0, 2, 0, 1, 100)).expect("room");
    hv.run(150);
    // The run-time job starves (zero free slots) and must be expired, not
    // retained forever.
    assert_eq!(hv.metrics().missed, 1);
    assert_eq!(hv.metrics().predefined_completed, 150);

    // Huge transfer on a slow bus through the multi-device system.
    let mut sys =
        MultiIoSystem::new(vec![IoDeviceConfig::new(IoProtocol::I2c, 1)], 50_000).expect("valid");
    sys.submit(0, Transfer::new(0, 1, u32::MAX / 1024, 1))
        .expect("queued");
    sys.run(10);
    assert_eq!(
        sys.total_missed(),
        1,
        "impossible deadline surfaces as a miss"
    );
}

/// Zero-capacity and zero-device configurations are rejected, not UB.
#[test]
fn degenerate_configs_rejected() {
    assert!(Hypervisor::new(HypervisorParams {
        pool_capacity: 0,
        ..HypervisorParams::new(1)
    })
    .is_err());
    assert!(Hypervisor::new(HypervisorParams {
        vms: 0,
        ..HypervisorParams::new(1)
    })
    .is_err());
    assert!(MultiIoSystem::new(vec![], 50_000).is_err());
    assert!(MultiIoSystem::new(vec![IoDeviceConfig::new(IoProtocol::Spi, 1)], 0).is_err());
}
