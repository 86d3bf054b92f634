//! Deterministic time bases, RNG and statistics for the I/O-GUARD
//! reproduction.
//!
//! This crate is the lowest substrate of the workspace. The paper's FPGA
//! platform provides a global timer and synchronous clocking "for free";
//! here they become explicit types, and every experiment draws its
//! randomness from one seedable generator so it replays bit-identically:
//!
//! * [`time`] — strongly-typed time bases. The hypervisor schedules at
//!   *slot* granularity ([`Slots`]); the NoC runs at *cycle* granularity
//!   ([`Cycles`]); [`SlotClock`] converts between them explicitly.
//! * [`rng`] — a seedable, splittable [`SplitMix64`]/[`Xoshiro256StarStar`]
//!   RNG so every experiment is reproducible from a single `u64` seed.
//! * [`stats`] — online statistics ([`OnlineStats`]), fixed-bin
//!   [`Histogram`]s with percentile queries, and the
//!   [`SuccessRatio`](stats::SuccessRatio) counters behind the case study's
//!   success ratios.
//!
//! Each simulator advances its own clock (the hypervisor's slot loop, the
//! NoC's cycle loop); scheduling events are recorded by the `ioguard-obs`
//! layer, not here.
//!
//! # Example
//!
//! ```
//! use ioguard_sim::rng::Xoshiro256StarStar;
//! use ioguard_sim::stats::OnlineStats;
//! use ioguard_sim::time::{Cycles, SlotClock, Slots};
//!
//! // One seed fixes every draw: two generators agree sample for sample.
//! let (mut a, mut b) = (Xoshiro256StarStar::new(7), Xoshiro256StarStar::new(7));
//! let mut latency = OnlineStats::new();
//! for _ in 0..100 {
//!     let slots = a.range_u64(1, 10);
//!     assert_eq!(slots, b.range_u64(1, 10));
//!     latency.push(slots as f64);
//! }
//! assert_eq!(latency.count(), 100);
//! // Slot and cycle time bases convert only through an explicit clock.
//! let clock = SlotClock::new(5_000);
//! assert_eq!(clock.to_cycles(Slots::new(2)), Cycles::new(10_000));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rng;
pub mod stats;
pub mod time;

pub use rng::{SplitMix64, Xoshiro256StarStar};
pub use stats::{Histogram, OnlineStats};
pub use time::{Cycles, SlotClock, Slots};
