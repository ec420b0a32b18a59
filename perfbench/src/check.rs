//! Output digests and the seed-robust invariants the benchmark checks.
//!
//! A digest covers only simulated outputs, which are pure functions of
//! the workload and its seed: never wall time, worker counts or paths.

use kscope_analysis::{normalize_by_max, LinearFit};
use kscope_fleet::FleetRollup;

/// 64-bit FNV-1a, chosen because its output is fixed by its definition
/// (std's hasher may change between Rust releases).
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds an integer in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a float in, bit for bit.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Folds an optional float in (absence is distinct from every value).
    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(v) => {
                self.u64(1);
                self.f64(v);
            }
            None => self.u64(0),
        }
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// How far a workload's RPS_obsv-vs-achieved-RPS R² may fall below the
/// paper's R² for it. A flat floor at the paper's lowest value (0.86,
/// web-search) is not seed-robust: near and past the knee web-search
/// bifurcates, and one seed in ten lands at 0.83.
pub const RPS_R2_MARGIN: f64 = 0.1;

/// The lowest R² `workload`'s sweep may show: its paper R² less
/// [`RPS_R2_MARGIN`] (the paper's lowest, 0.8642, for a workload the
/// paper did not measure).
pub fn rps_r2_floor(workload: &str) -> f64 {
    kscope_experiments::fig2::paper_r_squared(workload).unwrap_or(0.8642) - RPS_R2_MARGIN
}

/// Impairment must inflate time-in-stack by more than this factor...
pub const MIN_STACK_INFLATION: f64 = 1.05;
/// ...while RPS_obsv stays within this relative divergence of clean.
pub const MAX_RPS_DIVERGENCE: f64 = 0.10;

/// R² of one workload's sweep: one `(rps_obsv, achieved)` point per
/// measurement window, both axes normalized by their maximum — the
/// Fig. 2 construction (`kscope_experiments::fig2::analyze_workload`).
pub fn rps_r2(points: &[(f64, f64)]) -> Option<f64> {
    let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
    LinearFit::fit(&normalize_by_max(&xs), &normalize_by_max(&ys))
        .ok()
        .map(|fit| fit.r_squared)
}

/// `(worst stack inflation, worst RPS_obsv divergence)` of impaired
/// conditions against the clean one (the first), from each condition's
/// `(rps_obsv, stack mean ns)` — the definitions of
/// `FigNetstackResult::{max_stack_inflation, max_rps_divergence}`.
pub fn netstack_separation(conditions: &[(f64, f64)]) -> (f64, f64) {
    let Some(&(clean_rps, clean_stack)) = conditions.first() else {
        return (0.0, f64::INFINITY);
    };
    let impaired = &conditions[1..];
    let inflation = impaired
        .iter()
        .map(|c| c.1 / clean_stack.max(1e-9))
        .fold(0.0, f64::max);
    let divergence = impaired
        .iter()
        .map(|c| (c.0 - clean_rps).abs() / clean_rps.max(1e-9))
        .fold(0.0, f64::max);
    (inflation, divergence)
}

/// True when the rollup's report accounting conserves:
/// `produced = shed + offered` and `offered = delivered + dropped`.
pub fn fleet_conserves(rollup: &FleetRollup) -> bool {
    let acc = &rollup.accounting;
    acc.produced == acc.shed + acc.offered
        && acc.offered == acc.channel_delivered + acc.channel_dropped
}

/// Digests recorded at a known-good commit, one `workload seed digest`
/// line each. A full-size run at a recorded seed must reproduce them.
const RECORDED: &str = include_str!("../digests.txt");

/// The recorded digest of `workload` at `seed`, if there is one.
pub fn recorded_digest(workload: &str, seed: u64) -> Option<u64> {
    RECORDED.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        let (w, s, d) = (fields.next()?, fields.next()?, fields.next()?);
        (w == workload && s.parse() == Ok(seed))
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_its_reference_vectors() {
        let mut d = Digest::default();
        d.bytes(b"a");
        assert_eq!(d.value(), 0xaf63_dc4c_8601_ec8c);
        let mut d = Digest::default();
        d.bytes(b"foobar");
        assert_eq!(d.value(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn separation_compares_against_the_first_condition() {
        let (inflation, divergence) =
            netstack_separation(&[(100.0, 10.0), (104.0, 30.0), (99.0, 11.0)]);
        assert!((inflation - 3.0).abs() < 1e-12);
        assert!((divergence - 0.04).abs() < 1e-12);
    }
}
