//! Host-speed reference: the benchmark's own fixed kernel, timed between
//! the measured steps of a run.
//!
//! On a shared host the same code runs up to twice as fast in one minute
//! as in another (other tenants' load on the CPU's shared resources, not
//! time stolen from the process: its CPU time tracks its wall time), and
//! a 40-second run cannot average that away. So each run also times this
//! kernel, which never changes with the program, and states its timings
//! at a reference host speed: a raw time divided by the run's
//! [`HostSpeed::slowdown`]. A change that makes the program slower shows
//! in full; a host that is slower this minute does not. The raw figures
//! are printed beside them.
//!
//! The kernel mixes the work the pipeline does: integer mixing, a sort,
//! and random access into a 4 MB hash table. Its buffers are allocated
//! once, so it does not depend on how the program leaves the heap.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Median kernel time that counts as reference speed.
pub const REFERENCE_S: f64 = 0.010;
/// Keys sorted and hashed per sample.
const KEYS: usize = 1 << 18;
/// Hash-table slots (a power of two, twice the keys).
const SLOTS: usize = KEYS * 2;

/// The kernel's buffers and every sample taken in a run.
#[derive(Debug)]
pub struct HostSpeed {
    keys: Vec<u64>,
    table: Vec<u64>,
    samples: Vec<f64>,
}

impl Default for HostSpeed {
    fn default() -> Self {
        HostSpeed {
            keys: vec![0; KEYS],
            table: vec![0; SLOTS],
            samples: Vec::new(),
        }
    }
}

impl HostSpeed {
    /// Times the kernel `n` times. Call only while nothing else of the
    /// benchmark is running, so the kernel has the CPU to itself.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            let t = Instant::now();
            black_box(kernel(&mut self.keys, &mut self.table));
            self.samples.push(t.elapsed().as_secs_f64());
        }
    }

    /// How much slower than the reference this run's host was: the median
    /// kernel time over [`REFERENCE_S`]. 1.0 before any sample.
    pub fn slowdown(&self) -> f64 {
        self.slowdown_in(0..self.samples.len())
    }

    /// The slowdown over the samples in `range` (indices as returned by
    /// [`HostSpeed::samples`] before and after the measured step), so a
    /// step is scaled by the host's speed while it ran. The whole run's
    /// slowdown when the range holds no sample.
    pub fn slowdown_in(&self, range: std::ops::Range<usize>) -> f64 {
        match self.samples.get(range) {
            Some(s) if !s.is_empty() => median(s) / REFERENCE_S,
            _ if self.samples.is_empty() => 1.0,
            _ => median(&self.samples) / REFERENCE_S,
        }
    }

    /// Samples taken so far.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }
}

/// Fills `keys` from a fixed sequence, sorts them, inserts each into an
/// open-addressing table and returns a checksum.
fn kernel(keys: &mut [u64], table: &mut [u64]) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for k in keys.iter_mut() {
        // splitmix64
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        *k = (z ^ (z >> 31)) | 1;
    }
    keys.sort_unstable();
    table.fill(0);
    let mask = table.len() - 1;
    let mut sum = 0u64;
    for &k in keys.iter() {
        let mut i = (k.wrapping_mul(0xff51_afd7_ed55_8ccd) >> 40) as usize & mask;
        while table[i] != 0 && table[i] != k {
            i = (i + 1) & mask;
        }
        table[i] = k;
        sum = sum.wrapping_add(i as u64);
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        let mut a = HostSpeed::default();
        let mut b = HostSpeed::default();
        assert_eq!(
            kernel(&mut a.keys, &mut a.table),
            kernel(&mut b.keys, &mut b.table)
        );
        assert!(a.keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn slowdown_is_median_over_reference() {
        let mut h = HostSpeed::default();
        assert_eq!(h.slowdown(), 1.0);
        h.samples = vec![0.030, 0.020, 0.5];
        assert!((h.slowdown() - 3.0).abs() < 1e-12);
        assert!((h.slowdown_in(2..3) - 50.0).abs() < 1e-9);
        assert!(
            (h.slowdown_in(3..3) - 3.0).abs() < 1e-12,
            "empty: whole run"
        );
    }
}
