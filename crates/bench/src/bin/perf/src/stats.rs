//! Small numeric helpers: the seeded input generator, quantiles, and the
//! process's peak resident memory.

use std::hash::{DefaultHasher, Hasher};
use std::time::Duration;
pub use tpi_testkit::Rng;

/// The generator for one purpose (`stream`) of one run (`seed`).
pub fn rng(seed: u64, stream: u64) -> Rng {
    Rng::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Uniform in `0..n` (`n > 0`).
pub fn below(rng: &mut Rng, n: usize) -> usize {
    rng.below(n as u64) as usize
}

/// A seeded Fisher-Yates permutation of `0..n`.
pub fn permutation(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, below(rng, i + 1));
    }
    order
}

/// Nearest-rank quantile (`q` in `[0, 1]`) of an unsorted sample; 0 when
/// the sample is empty.
pub fn quantile(sample: &[f64], q: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(sample: &[f64]) -> f64 {
    quantile(sample, 0.5)
}

/// Quartiles the way Python's `statistics.quantiles(values, n=4)` computes
/// them (the "exclusive" method), so spreads printed here match the ones
/// the acceptance check computes.
pub fn quartiles(sample: &[f64]) -> (f64, f64, f64) {
    let mut s = sample.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let cut = |k: usize| {
        let m = k as f64 * (n + 1) as f64 / 4.0;
        let j = (m.floor() as usize).clamp(1, n - 1);
        let delta = m - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// CPU time this process has run, summed over its threads. Time the host
/// gave to other tasks (steal time, other processes' slices) is not in it.
pub fn cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec, the only memory the
    // call touches.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// CPU milliseconds `f` takes, and its result.
pub fn cpu_ms<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let started = cpu_time();
    let out = f();
    (ms(cpu_time() - started), out)
}

pub fn mean(sample: &[f64]) -> f64 {
    if sample.is_empty() {
        0.0
    } else {
        sample.iter().sum::<f64>() / sample.len() as f64
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host cores visible to this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A 64-bit hash of a byte string: the digest that compares simulated
/// results across reps and across code paths within one run.
pub fn hash64(bytes: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
    }

    #[test]
    fn permutations_are_seeded() {
        let a = permutation(&mut rng(7, 1), 20);
        assert_eq!(a, permutation(&mut rng(7, 1), 20));
        assert_ne!(a, permutation(&mut rng(8, 1), 20));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    /// The benchmark's inputs come from the workspace's SplitMix64; these
    /// values pin them, so a change to that generator shows here before it
    /// silently changes what every workload runs.
    const PINNED_DRAW: u64 = 7_191_089_600_892_374_487;
    const PINNED_ORDER: [usize; 8] = [7, 4, 6, 1, 2, 5, 0, 3];

    #[test]
    fn inputs_are_pinned() {
        assert_eq!(rng(7, 1).next_u64(), PINNED_DRAW);
        assert_eq!(permutation(&mut rng(7, 1), 8), PINNED_ORDER);
    }
}
