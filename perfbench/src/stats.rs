//! Small measurement helpers: percentiles, a seeded generator, thread CPU
//! time, and the fixed-work CPU canary.

use std::hint::black_box;
use std::time::Instant;

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it. `p` in `(0, 100]`; `NaN` for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    percentile_mut(&mut samples.to_vec(), p)
}

/// [`percentile`] that sorts `samples` in place instead of a copy, for
/// measured regions where the benchmark must not allocate.
pub fn percentile_mut(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The median as the 50th nearest-rank percentile.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Mean; `0` for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// SplitMix64: the benchmark's own seeded generator for sampling queries
/// and churn, independent of the library's generators.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// CPU seconds consumed by the calling thread so far.
#[cfg(target_os = "linux")]
pub fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout of
    // 64-bit Linux, and the clock id is a constant the kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds consumed by the calling thread (unsupported here: `0`).
#[cfg(not(target_os = "linux"))]
pub fn thread_cpu_s() -> f64 {
    0.0
}

/// Fixed-work CPU canary that calls no program code: the median of five
/// timings of the same integer and floating-point loop, in ms. When it
/// moves between runs, the box was contended, not the program.
pub fn calibrate_ms() -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x = black_box(0x2545_f491_4f6c_dd1du64);
            let mut acc = black_box(1.0f64);
            for _ in 0..black_box(4_000_000u32) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc = acc.mul_add(0.999_999, (x & 0xff) as f64 * 1e-9);
            }
            black_box((x, acc));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_known_samples() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 99.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 10.0), 1.0);
        assert_eq!(percentile(&s, 0.1), 1.0);
        // Order does not matter; the 20-sample p95 is the 19th value.
        let mut t: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        t.swap(0, 7);
        assert_eq!(percentile(&t, 95.0), 19.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[2.0, 1.0]), 1.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn seeded_generator_repeats() {
        let a: Vec<u64> = (0..4)
            .scan(SplitMix::new(9), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .scan(SplitMix::new(9), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        let mut v: Vec<usize> = (0..50).collect();
        SplitMix::new(3).shuffle(&mut v);
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }
}
