//! Small measurement helpers: medians, pair-set digests, peak RSS
//! and the host concurrency probe.

use std::hint::black_box;
use std::time::Instant;

/// Median of `v` (mean of the middle two for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// SplitMix64 finalizer.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Order-independent digest of a set of `(r, s)` pairs: the pair count and
/// the wrapping sum of each pair's mixed key, as `count:hex`.
pub fn pair_digest(pairs: impl Iterator<Item = (u32, u32)>) -> String {
    let (mut n, mut sum) = (0u64, 0u64);
    for (r, s) in pairs {
        n += 1;
        sum = sum.wrapping_add(mix64((u64::from(r) << 32) | u64::from(s)));
    }
    format!("{n}:{sum:016x}")
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 when the
/// platform does not expose it.
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

fn spin(iters: u64) -> u64 {
    let mut x = black_box(0x2545_F491_4F6C_DD1D_u64);
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x)
}

/// Measured concurrency: calibrated spin work timed on one thread and on
/// `available_parallelism` threads at once. `concurrency = n · t1 / tn`,
/// so a host whose threads share one real core reads ≈ 1.
pub struct HostProbe {
    pub available_parallelism: usize,
    pub spin_1t_ms: f64,
    pub spin_nt_ms: f64,
    pub measured_concurrency: f64,
}

pub fn probe_host() -> HostProbe {
    let n = std::thread::available_parallelism().map_or(1, |p| p.get());
    let time = |threads: usize, iters: u64| {
        let t = Instant::now();
        std::thread::scope(|sc| {
            for _ in 0..threads {
                sc.spawn(move || spin(iters));
            }
        });
        t.elapsed().as_secs_f64() * 1e3
    };
    let mut iters = 1u64 << 16;
    while time(1, iters) < 20.0 {
        iters *= 2;
    }
    let t1 = median(&[time(1, iters), time(1, iters), time(1, iters)]);
    let tn = median(&[time(n, iters), time(n, iters), time(n, iters)]);
    HostProbe {
        available_parallelism: n,
        spin_1t_ms: t1,
        spin_nt_ms: tn,
        measured_concurrency: n as f64 * t1 / tn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_ignores_order() {
        let a = pair_digest([(1, 2), (3, 4), (5, 6)].into_iter());
        let b = pair_digest([(5, 6), (1, 2), (3, 4)].into_iter());
        assert_eq!(a, b);
        assert_ne!(a, pair_digest([(1, 2), (3, 4)].into_iter()));
        assert_ne!(a, pair_digest([(2, 1), (3, 4), (5, 6)].into_iter()));
    }
}
