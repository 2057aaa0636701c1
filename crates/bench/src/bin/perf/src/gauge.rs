//! The host gauge: rescales CPU timings to one reference host speed.
//!
//! On a shared host the same deterministic, single-threaded work takes up
//! to twice the CPU time from one minute to the next: the other tenants
//! slow the guest's memory accesses rather than take its cores away, so
//! CPU time drifts as much as wall time does. Each run therefore also
//! times a fixed piece of work owned by the benchmark right before and
//! right after every unit of measured work. A gauge step builds a fresh
//! standard-library hash map from 100 000 pseudo-random keys and probes it
//! as often: allocation, hashing and scattered accesses over a few MB, the
//! kind of work a simulator cell does. No program code runs in the gauge,
//! so a change to the program cannot move it; only the host's speed does.
//! A unit's CPU time is multiplied by `NOMINAL_MS` over the mean step time
//! around it, so it reads as milliseconds on the host at the reference
//! speed.
//!
//! The hash-map step was chosen over read-modify-writes of a fixed 16 MB
//! table, pointer chasing and sequential streaming because, on the
//! reference host, the cells' CPU time tracks it most closely: the
//! cells slow down by up to twice as much as the table loop does in a slow
//! stretch, and by about as much as this step does.
//!
//! Back-to-back readings of a few milliseconds differ by about a tenth, so
//! the gauge after a unit runs for `SHARE` of the unit's time in steps (at
//! least one): a long unit is rescaled by a steadier reading.

use crate::stats::cpu_ms;
use std::collections::HashMap;
use std::hint::black_box;

/// Keys inserted and probed per gauge step, and the range they fall in.
const KEYS: u64 = 100_000;
const KEY_RANGE: u64 = 400_000;
/// One gauge step's CPU time at the reference speed: about its median on
/// a 2-vCPU Xeon (2.0 GHz) VM.
pub const NOMINAL_MS: f64 = 9.0;
/// Gauge time after a unit, as a share of the unit's CPU time.
const SHARE: f64 = 0.05;

/// The gauge's generator state, and its latest reading.
pub struct Gauge {
    state: u64,
    /// CPU ms and step count of the latest reading.
    last: Option<(f64, usize)>,
}

impl Gauge {
    pub fn new() -> Gauge {
        Gauge {
            state: 0x9E37_79B9_7F4A_7C15,
            last: None,
        }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// Runs `steps` gauge steps; returns their CPU ms and `steps`.
    fn read(&mut self, steps: usize) -> (f64, usize) {
        let (took, ()) = cpu_ms(|| {
            for _ in 0..steps {
                let mut map = HashMap::new();
                for i in 0..KEYS {
                    map.insert(self.next() % KEY_RANGE, i);
                }
                let mut acc = 0u64;
                for _ in 0..KEYS {
                    acc =
                        acc.wrapping_add(map.get(&(self.next() % KEY_RANGE)).copied().unwrap_or(1));
                }
                black_box(acc);
            }
        });
        self.last = Some((took, steps));
        (took, steps)
    }

    /// Runs `f` between the latest gauge reading (one step is taken if
    /// there is none) and a fresh one. Returns the CPU ms `f` took at the
    /// reference speed, and its result.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (f64, T) {
        let (before_ms, before_steps) = match self.last {
            Some(last) => last,
            None => self.read(1),
        };
        let (took, out) = cpu_ms(f);
        let steps = ((took * SHARE / NOMINAL_MS).round() as usize).max(1);
        let (after_ms, after_steps) = self.read(steps);
        let step_ms = (before_ms + after_ms) / (before_steps + after_steps) as f64;
        (took * NOMINAL_MS / step_ms, out)
    }
}
