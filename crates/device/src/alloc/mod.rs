//! Device memory allocators.
//!
//! The paper pinpoints memory behaviors *by instrumenting the runtime's
//! memory allocators*; this module provides the allocators being
//! instrumented. [`CachingAllocator`] models PyTorch's CUDA caching
//! allocator (the paper's subject). [`BestFitAllocator`] and
//! [`BumpAllocator`] are baselines used by the ablation benches to show how
//! allocator policy shapes the Gantt chart and fragmentation.

mod best_fit;
mod bump;
mod caching;

pub use best_fit::BestFitAllocator;
pub use bump::BumpAllocator;
pub use caching::CachingAllocator;

use pinpoint_trace::BlockId;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Allocation granularity: all sizes round up to a multiple of this
/// (PyTorch's `kMinBlockSize`).
pub const MIN_BLOCK_BYTES: usize = 512;

/// Rounds a size up to the allocation granularity (minimum one granule).
pub fn round_up(size: usize) -> usize {
    if size == 0 {
        return 0;
    }
    size.div_ceil(MIN_BLOCK_BYTES) * MIN_BLOCK_BYTES
}

/// Hasher for [`BlockId`] keys. Allocators mint ids sequentially, so one
/// multiply by an odd constant (Fibonacci hashing) spreads them over the
/// high bits the table probes with as well as the low bits that pick the
/// bucket, at a fraction of SipHash's cost.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A map keyed by [`BlockId`] with the cheap [`IdHasher`].
pub(crate) type IdMap<V> = HashMap<BlockId, V, BuildHasherDefault<IdHasher>>;

/// A live allocation handed out by a [`DeviceAllocator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// Unique id, minted per `malloc` (the paper's unit of analysis).
    pub id: BlockId,
    /// Offset in the device address space (Gantt y-axis).
    pub offset: usize,
    /// Usable size in bytes, after rounding.
    pub size: usize,
    /// Size the caller asked for.
    pub requested: usize,
}

/// Why an allocator call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// Not enough device memory for the request.
    OutOfMemory {
        /// Rounded request size in bytes.
        requested: usize,
        /// Device capacity in bytes.
        capacity: usize,
        /// Bytes currently reserved from the device.
        reserved: usize,
    },
    /// `free` (or a query) referenced a block this allocator never issued or
    /// already reclaimed.
    UnknownBlock(BlockId),
    /// A zero-byte allocation was requested.
    ZeroSize,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfMemory {
                requested,
                capacity,
                reserved,
            } => write!(
                f,
                "out of device memory: requested {requested} B with {reserved} B reserved of {capacity} B capacity"
            ),
            AllocError::UnknownBlock(id) => write!(f, "unknown or already-freed block {id}"),
            AllocError::ZeroSize => write!(f, "zero-size allocation request"),
        }
    }
}

impl std::error::Error for AllocError {}

/// Running counters every allocator maintains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Bytes currently handed out to live blocks.
    pub allocated_bytes: usize,
    /// High-water mark of `allocated_bytes`.
    pub peak_allocated_bytes: usize,
    /// Bytes currently reserved from the device (segments/arena).
    pub reserved_bytes: usize,
    /// High-water mark of `reserved_bytes`.
    pub peak_reserved_bytes: usize,
    /// Total `malloc` calls served.
    pub num_mallocs: u64,
    /// Total `free` calls served.
    pub num_frees: u64,
    /// `malloc` calls satisfied from cached/free memory without reserving
    /// new device memory (the caching allocator's raison d'être).
    pub cache_hit_mallocs: u64,
}

impl AllocStats {
    pub(crate) fn on_malloc(&mut self, size: usize, cache_hit: bool) {
        self.allocated_bytes += size;
        self.peak_allocated_bytes = self.peak_allocated_bytes.max(self.allocated_bytes);
        self.num_mallocs += 1;
        if cache_hit {
            self.cache_hit_mallocs += 1;
        }
    }

    pub(crate) fn on_free(&mut self, size: usize) {
        self.allocated_bytes -= size;
        self.num_frees += 1;
    }

    pub(crate) fn on_reserve(&mut self, size: usize) {
        self.reserved_bytes += size;
        self.peak_reserved_bytes = self.peak_reserved_bytes.max(self.reserved_bytes);
    }

    /// Fraction of peak reserved memory that was never simultaneously
    /// allocated — a coarse external-fragmentation / overhead measure.
    pub fn peak_slack_fraction(&self) -> f64 {
        if self.peak_reserved_bytes == 0 {
            0.0
        } else {
            1.0 - self.peak_allocated_bytes as f64 / self.peak_reserved_bytes as f64
        }
    }
}

/// A device memory allocator that can be instrumented by the simulator.
///
/// Implementations mint a fresh [`BlockId`] for every successful `malloc`;
/// the simulator turns those into `Malloc`/`Free` trace events.
pub trait DeviceAllocator: fmt::Debug {
    /// Short policy name (for reports and bench labels).
    fn name(&self) -> &'static str;

    /// Total device memory capacity in bytes.
    fn capacity(&self) -> usize;

    /// Allocates `size` bytes (rounded up to [`MIN_BLOCK_BYTES`]).
    ///
    /// # Errors
    ///
    /// [`AllocError::ZeroSize`] for `size == 0`;
    /// [`AllocError::OutOfMemory`] when the request cannot be satisfied.
    fn malloc(&mut self, size: usize) -> Result<Block, AllocError>;

    /// Releases a block previously returned by [`DeviceAllocator::malloc`].
    ///
    /// # Errors
    ///
    /// [`AllocError::UnknownBlock`] if `id` is not live.
    fn free(&mut self, id: BlockId) -> Result<Block, AllocError>;

    /// Running counters.
    fn stats(&self) -> &AllocStats;

    /// Snapshot of all live blocks (for fragmentation/Gantt analysis).
    fn live_blocks(&self) -> Vec<Block>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_up_to_granule() {
        assert_eq!(round_up(0), 0);
        assert_eq!(round_up(1), 512);
        assert_eq!(round_up(512), 512);
        assert_eq!(round_up(513), 1024);
        assert_eq!(round_up(1 << 20), 1 << 20);
    }

    #[test]
    fn stats_track_peaks_and_slack() {
        let mut s = AllocStats::default();
        s.on_reserve(1000);
        s.on_malloc(600, false);
        s.on_malloc(200, true);
        s.on_free(600);
        assert_eq!(s.allocated_bytes, 200);
        assert_eq!(s.peak_allocated_bytes, 800);
        assert_eq!(s.reserved_bytes, 1000);
        assert_eq!(s.cache_hit_mallocs, 1);
        assert!((s.peak_slack_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn error_messages_are_descriptive() {
        let e = AllocError::OutOfMemory {
            requested: 10,
            capacity: 100,
            reserved: 90,
        };
        assert!(e.to_string().contains("out of device memory"));
        assert!(AllocError::UnknownBlock(BlockId(3))
            .to_string()
            .contains("blk3"));
    }
}
