//! Benchmark host crate. The measurement content lives in the
//! `benches/` targets; this library holds the timing helper that the
//! wall-clock floors of `noc_throughput` and `sched_analysis` share.
//!
//! A floor is asserted before a bench's timing groups run, over a fixed
//! number of alternating runs that does not depend on `IOGUARD_BENCH_MS`.
//! Each pair of runs sees about the same host load, and the median over
//! the pairs discards the ones a noisy neighbour disturbed.
#![forbid(unsafe_code)]

use std::time::Instant;

/// Alternating run pairs behind every wall-clock floor. On a shared
/// 2-thread host the observability overhead measured over 21 pairs stayed
/// between +0.1% and +2.1% across ten processes; over 5 pairs it ranged
/// from −2.1% to +6.3% across six.
pub const FLOOR_RUNS: usize = 21;

/// Runs `numerator` and `denominator` in alternation [`FLOOR_RUNS`] times
/// and returns the median over the pairs of
/// `time(numerator) / time(denominator)`.
pub fn median_time_ratio<A, B>(
    mut numerator: impl FnMut() -> A,
    mut denominator: impl FnMut() -> B,
) -> f64 {
    let mut ratios: Vec<f64> = (0..FLOOR_RUNS)
        .map(|run| {
            // Swap which side goes first on every other pair, so neither
            // side always pays for a cold cache.
            let (top, bottom) = if run % 2 == 0 {
                let top = seconds(&mut numerator);
                (top, seconds(&mut denominator))
            } else {
                let bottom = seconds(&mut denominator);
                (seconds(&mut numerator), bottom)
            };
            top / bottom.max(f64::MIN_POSITIVE)
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[FLOOR_RUNS / 2]
}

fn seconds<O>(work: &mut impl FnMut() -> O) -> f64 {
    let start = Instant::now();
    std::hint::black_box(work());
    start.elapsed().as_secs_f64()
}
