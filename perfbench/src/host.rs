//! The host's speed, measured by a fixed probe that runs between calls.
//!
//! On a shared VM the speed of the vCPUs drifts by a quarter or more over
//! seconds to minutes as other tenants load the machine, and the drift
//! moves every timing alike. The probe is the same work on every run,
//! touches none of the program's code and allocates nothing, so its time
//! over [`REFERENCE_PROBE_MS`] measures how much slower than the reference
//! the host ran. The timed end-to-end metrics are reported on the reference
//! clock: wall time divided by that slowdown. `README.md` gives the
//! spreads with and without it.

use std::time::{Duration, Instant};

use crate::report::median;

/// About the probe's median time on the 2-vCPU VM the benchmark was tuned
/// on, so that reference-clock figures read about as wall-clock figures there.
pub const REFERENCE_PROBE_MS: f64 = 0.6;

/// Wall time a client calls for between two probes; a probe takes about a
/// thirtieth of it.
pub const PROBE_INTERVAL: Duration = Duration::from_millis(20);

const KEYS: usize = 4096;

/// Runs the probe once and returns its time in milliseconds: six rounds of
/// rehashing, sorting and searching 4096 integers on the stack.
pub fn probe_ms() -> f64 {
    let start = Instant::now();
    let mut keys = [0u64; KEYS];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for key in &mut keys {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *key = x;
    }
    let mut found = 0usize;
    for round in 0..6u64 {
        let mut sorted = keys;
        for key in &mut sorted {
            *key = (*key ^ round).wrapping_mul(0x517C_C1B7_2722_0A95).rotate_left(5);
        }
        sorted.sort_unstable();
        for key in keys.iter().step_by(7) {
            found = found.wrapping_add(sorted.binary_search(key).unwrap_or_else(|at| at));
        }
    }
    std::hint::black_box(found);
    start.elapsed().as_secs_f64() * 1e3
}

/// How much slower than the reference the host ran while `probes_ms` were
/// taken: their median over [`REFERENCE_PROBE_MS`], or 1 without probes.
pub fn slowdown(probes_ms: &[f64]) -> f64 {
    if probes_ms.is_empty() {
        return 1.0;
    }
    median(&mut probes_ms.to_vec()) / REFERENCE_PROBE_MS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_slowdown_is_the_median_probe_over_the_reference() {
        assert_eq!(slowdown(&[]), 1.0);
        let probes = [REFERENCE_PROBE_MS, 2.0 * REFERENCE_PROBE_MS, 9.0 * REFERENCE_PROBE_MS];
        assert!((slowdown(&probes) - 2.0).abs() < 1e-9);
        assert!(probe_ms() > 0.0);
    }
}
