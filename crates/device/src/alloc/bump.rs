//! A bump-pointer allocator (baseline: no in-flight reuse).

use super::{round_up, AllocError, AllocStats, Block, DeviceAllocator, IdMap};
use pinpoint_trace::BlockId;

/// Bump allocation: every `malloc` advances a pointer; `free` releases no
/// memory until *all* live blocks are gone, at which point the pointer
/// resets to zero (an arena generation).
///
/// This is the "no reuse within an iteration" baseline: it wastes the most
/// device memory but produces zero external fragmentation inside a
/// generation, bounding the other allocators' behavior from both sides in
/// the ablation benches.
///
/// # Examples
///
/// ```
/// use pinpoint_device::alloc::{BumpAllocator, DeviceAllocator};
///
/// let mut a = BumpAllocator::new(1 << 20);
/// let b1 = a.malloc(512)?;
/// let b2 = a.malloc(512)?;
/// assert_eq!(b2.offset, b1.offset + 512); // strictly increasing
/// # Ok::<(), pinpoint_device::alloc::AllocError>(())
/// ```
#[derive(Debug)]
pub struct BumpAllocator {
    capacity: usize,
    next_offset: usize,
    next_id: u64,
    live: IdMap<Block>,
    stats: AllocStats,
}

impl BumpAllocator {
    /// Creates a bump allocator over `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        BumpAllocator {
            capacity,
            next_offset: 0,
            next_id: 0,
            live: IdMap::default(),
            stats: AllocStats::default(),
        }
    }
}

impl DeviceAllocator for BumpAllocator {
    fn name(&self) -> &'static str {
        "bump"
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn malloc(&mut self, size: usize) -> Result<Block, AllocError> {
        if size == 0 {
            return Err(AllocError::ZeroSize);
        }
        let rounded = round_up(size);
        if self.next_offset + rounded > self.capacity {
            return Err(AllocError::OutOfMemory {
                requested: rounded,
                capacity: self.capacity,
                reserved: self.stats.reserved_bytes,
            });
        }
        let offset = self.next_offset;
        self.next_offset += rounded;
        if self.next_offset > self.stats.reserved_bytes {
            let grow = self.next_offset - self.stats.reserved_bytes;
            self.stats.on_reserve(grow);
        }
        let id = BlockId(self.next_id);
        self.next_id += 1;
        let block = Block {
            id,
            offset,
            size: rounded,
            requested: size,
        };
        self.live.insert(id, block);
        self.stats.on_malloc(rounded, false);
        Ok(block)
    }

    fn free(&mut self, id: BlockId) -> Result<Block, AllocError> {
        let block = self.live.remove(&id).ok_or(AllocError::UnknownBlock(id))?;
        self.stats.on_free(block.size);
        if self.live.is_empty() {
            // new arena generation: the pointer rewinds, so iterative
            // workloads land at the same offsets each iteration
            self.next_offset = 0;
        }
        Ok(block)
    }

    fn stats(&self) -> &AllocStats {
        &self.stats
    }

    fn live_blocks(&self) -> Vec<Block> {
        let mut out: Vec<Block> = self.live.values().copied().collect();
        out.sort_by_key(|b| b.offset);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_strictly_increase_within_generation() {
        let mut a = BumpAllocator::new(1 << 20);
        let b1 = a.malloc(100).unwrap();
        let b2 = a.malloc(100).unwrap();
        let b3 = a.malloc(100).unwrap();
        assert!(b1.offset < b2.offset && b2.offset < b3.offset);
    }

    #[test]
    fn free_does_not_reclaim_until_empty() {
        let mut a = BumpAllocator::new(4096);
        let b1 = a.malloc(1024).unwrap();
        let b2 = a.malloc(1024).unwrap();
        a.free(b1.id).unwrap();
        // pointer did not rewind: next malloc goes after b2
        let b3 = a.malloc(1024).unwrap();
        assert_eq!(b3.offset, b2.offset + b2.size);
        a.free(b2.id).unwrap();
        a.free(b3.id).unwrap();
        // all free → generation reset
        let b4 = a.malloc(1024).unwrap();
        assert_eq!(b4.offset, 0);
    }

    #[test]
    fn oom_at_capacity() {
        let mut a = BumpAllocator::new(1024);
        let _b = a.malloc(1024).unwrap();
        assert!(matches!(
            a.malloc(1).unwrap_err(),
            AllocError::OutOfMemory { .. }
        ));
    }

    #[test]
    fn reserved_is_high_water_mark() {
        let mut a = BumpAllocator::new(1 << 20);
        let b1 = a.malloc(2048).unwrap();
        a.free(b1.id).unwrap();
        let _b2 = a.malloc(512).unwrap();
        assert_eq!(a.stats().reserved_bytes, 2048);
        assert_eq!(a.stats().peak_allocated_bytes, 2048);
    }
}
