//! Small numeric helpers: percentiles, tail selection, draws from the
//! seeded generator every workload uses, and the digest of modeled
//! statistics.

use fpx_inject::SplitMix64;

/// Percentile `p` (0–100) of `values` by linear interpolation between
/// closest ranks. `values` need not be sorted; empty input gives 0.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The highest percentile, to 0.1, that leaves at least ten of `n`
/// operations beyond it, or the median when `n` is too small for more.
/// Computed in per-mille integers so no rounding moves the boundary.
pub fn tail_percentile(n: usize) -> f64 {
    let per_mille = if n <= 20 {
        500
    } else {
        (1000 * n - 10_000) / n
    };
    per_mille as f64 / 10.0
}

/// Smallest operation count for which `tail_percentile` reaches `p`.
pub fn ops_for_tail(p: f64) -> usize {
    let beyond = ((100.0 - p) * 10.0).round() as usize;
    10_000_usize.div_ceil(beyond)
}

/// The generator behind one purpose (draw, catalog, schedule) of a
/// seed: the campaign engine's SplitMix64 trial streams, so a seed names
/// the same inputs on every platform and toolchain.
pub fn stream(seed: u64, purpose: u64) -> SplitMix64 {
    SplitMix64::for_trial(seed, purpose)
}

/// Uniform in [0, 1).
pub fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

pub fn pick<'a, T>(rng: &mut SplitMix64, items: &'a [T]) -> &'a T {
    &items[rng.below(items.len() as u64) as usize]
}

pub fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// FNV-1a over everything fed to it: the digest of modeled statistics
/// that the untraced and traced passes must agree on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // Field separator, so ("ab","c") and ("a","bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    /// One ⟨program, tool, modeled cycles, records, report row⟩ entry.
    pub fn entry(&mut self, program: &str, tool: &str, cycles: u64, records: u64, row: &str) {
        self.feed(program.as_bytes());
        self.feed(tool.as_bytes());
        self.feed(&cycles.to_le_bytes());
        self.feed(&records.to_le_bytes());
        self.feed(row.as_bytes());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }

    pub fn from_hex(s: &str) -> Option<Digest> {
        u64::from_str_radix(s, 16).ok().map(Digest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 25.0), 2.0);
        assert!((percentile(&v, 90.0) - 4.6).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_leaves_at_least_ten_operations_beyond_it() {
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(50), 80.0);
        assert_eq!(tail_percentile(99), 89.8);
        assert_eq!(tail_percentile(400), 97.5);
        assert_eq!(tail_percentile(10_000), 99.9);
        for p in [80.0, 90.0, 95.0, 97.5, 98.0] {
            let n = ops_for_tail(p);
            assert_eq!(tail_percentile(n), p, "{p}");
            assert!(tail_percentile(n - 1) < p, "{p}");
            assert!((1.0 - p / 100.0) * n as f64 >= 10.0 - 1e-9);
        }
    }

    #[test]
    fn streams_are_a_pure_function_of_the_seed() {
        let draws = |seed, purpose| -> Vec<u64> {
            let mut r = stream(seed, purpose);
            (0..5).map(|_| r.next_u64()).collect()
        };
        assert_eq!(draws(7, 1), draws(7, 1));
        assert_ne!(draws(7, 1), draws(7, 2));
        assert_ne!(draws(7, 1), draws(8, 1));
        let mut r = stream(3, 0);
        for _ in 0..1000 {
            assert!((0.0..1.0).contains(&unit(&mut r)));
            assert!(*pick(&mut r, &[1, 2, 3]) <= 3);
        }
        let mut v: Vec<u32> = (0..20).collect();
        shuffle(&mut stream(9, 0), &mut v);
        assert_ne!(v, (0..20).collect::<Vec<_>>());
        let mut sorted = v.clone();
        sorted.sort();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn digest_separates_fields_and_orders() {
        let mut a = Digest::default();
        a.entry("ab", "c", 1, 2, "r");
        let mut b = Digest::default();
        b.entry("a", "bc", 1, 2, "r");
        assert_ne!(a, b);
        let mut c = Digest::default();
        c.entry("ab", "c", 1, 2, "r");
        assert_eq!(a, c);
        assert_eq!(Digest::from_hex(&a.hex()), Some(a));
        assert_eq!(Digest::from_hex("xyz"), None);
    }
}
