//! Metrics, output checks and the result line.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// One output check: a named condition on the program's results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The compared values, for the log.
    pub detail: String,
}

/// Collects output checks in the order they were made.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Checks {
    items: Vec<Check>,
}

impl Checks {
    /// Records a condition.
    pub fn expect(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.items.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// Records that `actual` equals `expected`.
    pub fn equal<T: PartialEq + std::fmt::Debug>(
        &mut self,
        name: impl Into<String>,
        expected: T,
        actual: T,
    ) {
        let ok = expected == actual;
        self.expect(name, ok, format!("expected {expected:?}, got {actual:?}"));
    }

    /// Appends every check of `other`.
    pub fn extend(&mut self, other: Checks) {
        self.items.extend(other.items);
    }

    /// True when every check held (and at least one was made).
    pub fn all_ok(&self) -> bool {
        !self.items.is_empty() && self.items.iter().all(|c| c.ok)
    }

    /// The checks made so far.
    pub fn items(&self) -> &[Check] {
        &self.items
    }
}

/// Everything one invocation reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted in the measured region.
    pub attempted: u64,
    /// Operations that failed (all of them when a check failed).
    pub failed: u64,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Output checks.
    pub checks: Checks,
    /// Human-readable lines printed before the result line.
    pub log: Vec<String>,
}

impl Outcome {
    /// True when every output check held.
    pub fn correct(&self) -> bool {
        self.checks.all_ok()
    }

    /// Failed operations as a share of those attempted.
    pub fn error_ratio(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Applies the output checks: a failed check voids every operation of
    /// the run, so `failed` becomes `attempted` and `ok_ratio` becomes 0.
    pub fn apply_checks(&mut self) {
        if self.correct() {
            return;
        }
        self.failed = self.attempted.max(1);
        self.attempted = self.failed;
        if let Some(ok) = self.metrics.iter_mut().find(|m| m.name == "ok_ratio") {
            ok.value = 0.0;
        }
    }

    /// The metric named `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The single-line JSON result object.
    pub fn result_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite `f64` as a JSON number: the shortest form that round-trips,
/// so every measured digit is kept ("1.0", "0.125", "1e-7").
fn json_number(value: f64) -> String {
    format!("{value:?}")
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Exact rank quantile of integer samples (the `ceil(q·n)`-th smallest).
pub fn rank_quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// FNV-1a over `text`.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(FNV_OFFSET, |state, byte| {
        (state ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(rank_quantile(&[1, 2, 3, 4], 0.5), 2);
        assert_eq!(rank_quantile(&[1, 2, 3, 4], 0.99), 4);
    }

    #[test]
    fn numbers_stay_json() {
        assert_eq!(json_number(1.0), "1.0");
        assert_eq!(json_number(1e-7), "1e-7");
        assert_eq!(json_number(0.125), "0.125");
    }
}
