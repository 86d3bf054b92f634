//! Host facts recorded with every run, so host drift can be told apart
//! from a code change.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Keys in the calibration map.
const CALIBRATION_KEYS: u64 = 60_000;
/// Lookup passes over every key in one calibration sample.
const CALIBRATION_PASSES: u32 = 2;

/// The calibration time host-adjusted rates are scaled to: a host on
/// which [`calibration_ms`] takes this long reads its raw rate unchanged.
pub const NOMINAL_CALIBRATION_MS: f64 = 20.0;

/// What the host looked like around one run.
#[derive(Debug, Clone, PartialEq)]
pub struct HostInfo {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// 1/5/15-minute load averages from `/proc/loadavg` (empty when absent).
    pub loadavg: String,
    /// Wall milliseconds of the fixed-work calibration loop.
    pub calibration_ms: f64,
}

impl HostInfo {
    /// Samples the host now (runs the calibration loop once).
    pub fn sample() -> Self {
        Self {
            nproc: nproc(),
            loadavg: loadavg(),
            calibration_ms: calibration_ms(),
        }
    }

    /// The log line for this sample.
    pub fn line(&self, when: &str) -> String {
        format!(
            "host[{when}]: nproc={} loadavg={} calibration_ms={:.3}",
            self.nproc, self.loadavg, self.calibration_ms
        )
    }
}

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|text| {
            text.split_whitespace()
                .take(3)
                .collect::<Vec<_>>()
                .join(",")
        })
        .unwrap_or_default()
}

fn lcg(state: u64) -> u64 {
    state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

/// Times a fixed piece of branchy, allocating, pointer-chasing work — a
/// fresh `BTreeMap` filled with 60 000 pseudo-random keys, searched twice,
/// then dropped — like the simulator's own hot loops, but with no code
/// from this repository in it. The work is the same on every commit, so
/// its time tracks only how fast the host runs such code at that moment.
pub fn calibration_ms() -> f64 {
    let start = Instant::now();
    let mut map = BTreeMap::new();
    let mut state = black_box(1u64);
    for value in 0..CALIBRATION_KEYS {
        state = lcg(state);
        map.insert(state >> 20, value);
    }
    let mut sum = 0u64;
    for _ in 0..CALIBRATION_PASSES {
        let mut state = black_box(1u64);
        for _ in 0..CALIBRATION_KEYS {
            state = lcg(state);
            sum = sum.wrapping_add(map.get(&(state >> 20)).copied().unwrap_or(0));
        }
    }
    black_box(sum);
    drop(map);
    start.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
