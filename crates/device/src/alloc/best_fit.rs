//! A classic best-fit arena allocator (baseline, no caching pools).

use super::{round_up, AllocError, AllocStats, Block, DeviceAllocator, IdMap, MIN_BLOCK_BYTES};
use pinpoint_trace::BlockId;
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone, Copy)]
struct Chunk {
    size: usize,
    free: bool,
}

/// Best-fit allocation over one arena covering the whole device, with
/// immediate coalescing. Unlike [`super::CachingAllocator`] there are no
/// size-class pools, so small and large blocks interleave — the ablation
/// benches use this to show how pooling affects the paper's Gantt chart.
///
/// # Examples
///
/// ```
/// use pinpoint_device::alloc::{BestFitAllocator, DeviceAllocator};
///
/// let mut a = BestFitAllocator::new(1 << 20);
/// let b = a.malloc(4096)?;
/// assert_eq!(b.offset, 0);
/// a.free(b.id)?;
/// # Ok::<(), pinpoint_device::alloc::AllocError>(())
/// ```
#[derive(Debug)]
pub struct BestFitAllocator {
    capacity: usize,
    next_id: u64,
    chunks: BTreeMap<usize, Chunk>,
    free_set: BTreeSet<(usize, usize)>,
    live: IdMap<usize>,
    requested: IdMap<usize>,
    stats: AllocStats,
}

impl BestFitAllocator {
    /// Creates an allocator whose arena spans `capacity` bytes. The whole
    /// arena counts as reserved immediately (there is no growth step).
    pub fn new(capacity: usize) -> Self {
        let mut chunks = BTreeMap::new();
        let mut free_set = BTreeSet::new();
        if capacity > 0 {
            chunks.insert(
                0,
                Chunk {
                    size: capacity,
                    free: true,
                },
            );
            free_set.insert((capacity, 0));
        }
        let mut stats = AllocStats::default();
        stats.on_reserve(capacity);
        BestFitAllocator {
            capacity,
            next_id: 0,
            chunks,
            free_set,
            live: IdMap::default(),
            requested: IdMap::default(),
            stats,
        }
    }
}

impl DeviceAllocator for BestFitAllocator {
    fn name(&self) -> &'static str {
        "best_fit"
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn malloc(&mut self, size: usize) -> Result<Block, AllocError> {
        if size == 0 {
            return Err(AllocError::ZeroSize);
        }
        let rounded = round_up(size);
        let Some(&(chunk_size, offset)) = self.free_set.range((rounded, 0)..).next() else {
            return Err(AllocError::OutOfMemory {
                requested: rounded,
                capacity: self.capacity,
                reserved: self.stats.reserved_bytes,
            });
        };
        self.free_set.remove(&(chunk_size, offset));
        let chunk = self.chunks.get_mut(&offset).expect("chunk exists");
        chunk.free = false;
        let alloc_size = if chunk_size - rounded >= MIN_BLOCK_BYTES {
            chunk.size = rounded;
            let rem_off = offset + rounded;
            let rem_size = chunk_size - rounded;
            self.chunks.insert(
                rem_off,
                Chunk {
                    size: rem_size,
                    free: true,
                },
            );
            self.free_set.insert((rem_size, rem_off));
            rounded
        } else {
            chunk_size
        };
        let id = BlockId(self.next_id);
        self.next_id += 1;
        self.live.insert(id, offset);
        self.requested.insert(id, size);
        self.stats.on_malloc(alloc_size, true);
        Ok(Block {
            id,
            offset,
            size: alloc_size,
            requested: size,
        })
    }

    fn free(&mut self, id: BlockId) -> Result<Block, AllocError> {
        let offset = self.live.remove(&id).ok_or(AllocError::UnknownBlock(id))?;
        let requested = self.requested.remove(&id).unwrap_or(0);
        let chunk = *self.chunks.get(&offset).expect("live chunk exists");
        self.stats.on_free(chunk.size);
        let mut new_off = offset;
        let mut new_size = chunk.size;
        if let Some((&prev_off, &prev)) = self.chunks.range(..offset).next_back() {
            if prev.free && prev_off + prev.size == offset {
                self.free_set.remove(&(prev.size, prev_off));
                self.chunks.remove(&offset);
                new_off = prev_off;
                new_size += prev.size;
            }
        }
        let next_entry = self
            .chunks
            .range(new_off + 1..)
            .next()
            .map(|(o, c)| (*o, *c));
        if let Some((next_off, next)) = next_entry {
            if next.free && new_off + new_size == next_off {
                self.free_set.remove(&(next.size, next_off));
                self.chunks.remove(&next_off);
                new_size += next.size;
            }
        }
        let merged = self.chunks.get_mut(&new_off).expect("merged chunk exists");
        merged.free = true;
        merged.size = new_size;
        self.free_set.insert((new_size, new_off));
        Ok(Block {
            id,
            offset,
            size: chunk.size,
            requested,
        })
    }

    fn stats(&self) -> &AllocStats {
        &self.stats
    }

    fn live_blocks(&self) -> Vec<Block> {
        let mut out: Vec<Block> = self
            .live
            .iter()
            .map(|(&id, &offset)| Block {
                id,
                offset,
                size: self.chunks[&offset].size,
                requested: self.requested.get(&id).copied().unwrap_or(0),
            })
            .collect();
        out.sort_by_key(|b| b.offset);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_from_offset_zero() {
        let mut a = BestFitAllocator::new(1 << 20);
        let b = a.malloc(100).unwrap();
        assert_eq!(b.offset, 0);
        assert_eq!(b.size, 512);
    }

    #[test]
    fn best_fit_prefers_tightest_hole() {
        let mut a = BestFitAllocator::new(1 << 20);
        let b1 = a.malloc(512).unwrap(); // hole A candidate
        let b2 = a.malloc(4096).unwrap();
        let b3 = a.malloc(2048).unwrap(); // hole B candidate
        let _b4 = a.malloc(512).unwrap(); // guard against tail merge
        a.free(b1.id).unwrap(); // 512 B hole at 0
        a.free(b3.id).unwrap(); // 2 KB hole
        let _ = b2;
        // a 512-byte request should land in the 512 B hole, not the 2 KB one
        let b5 = a.malloc(512).unwrap();
        assert_eq!(b5.offset, 0);
    }

    #[test]
    fn full_free_restores_one_arena_chunk() {
        let mut a = BestFitAllocator::new(1 << 20);
        let ids: Vec<_> = (0..10).map(|_| a.malloc(1000).unwrap().id).collect();
        for id in ids {
            a.free(id).unwrap();
        }
        assert_eq!(a.free_set.len(), 1);
        assert_eq!(a.free_set.iter().next().unwrap().0, 1 << 20);
        assert_eq!(a.stats().allocated_bytes, 0);
    }

    #[test]
    fn external_fragmentation_causes_oom() {
        // arena 4 KB: allocate 4 × 1 KB, free alternating, then a 2 KB
        // request fails even though 2 KB total is free.
        let mut a = BestFitAllocator::new(4096);
        let b: Vec<_> = (0..4).map(|_| a.malloc(1024).unwrap()).collect();
        a.free(b[0].id).unwrap();
        a.free(b[2].id).unwrap();
        let err = a.malloc(2048).unwrap_err();
        assert!(matches!(err, AllocError::OutOfMemory { .. }));
    }

    #[test]
    fn whole_arena_is_reserved_up_front() {
        let a = BestFitAllocator::new(123 << 10);
        assert_eq!(a.stats().reserved_bytes, 123 << 10);
        assert_eq!(a.stats().peak_reserved_bytes, 123 << 10);
    }
}
