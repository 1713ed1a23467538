//! Single-fold analysis straight off a `.ptrc` trace store. To run
//! *several* passes over **one** decode of the store, register them on
//! one [`FusedPipeline`] and call [`FusedPipeline::run_chunks`] yourself.

use crate::engine::{EventFold, FusedPipeline};
use pinpoint_store::{StoreError, StoreReader};

/// Runs `fold` alone over every chunk of `reader` its predicate does not
/// prune, on `threads` worker threads — the streaming twin of the fold's
/// in-memory pass (e.g. [`crate::AtiFold`] of
/// [`AtiDataset::from_trace`](crate::AtiDataset::from_trace)).
///
/// # Errors
///
/// I/O or corruption errors from the store (corruption only under
/// [`ReadPolicy::Strict`](pinpoint_store::ReadPolicy::Strict)).
pub fn fold_store<F: EventFold + 'static>(
    reader: &StoreReader,
    fold: F,
    threads: usize,
) -> Result<F::Output, StoreError> {
    let mut pipe = FusedPipeline::new();
    let h = pipe.register(fold);
    let index = &reader.footer().chunks;
    let mut out = pipe.run_chunks(index, threads, reader.policy(), reader.fetch(threads))?;
    Ok(out.take(h))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ati::AtiDataset;
    use crate::breakdown::BreakdownRow;
    use crate::engine::{AtiFold, BreakdownFold, GanttFold, OutlierFold, PeakFold};
    use crate::gantt_rects;
    use crate::outlier::{sift, OutlierCriteria};
    use pinpoint_parallel::configured_threads;
    use pinpoint_store::write_store_chunked;
    use pinpoint_trace::{BlockId, EventKind, MemoryKind, Trace};

    fn busy_trace() -> Trace {
        let mut t = Trace::new();
        let kinds = [
            MemoryKind::Weight,
            MemoryKind::Activation,
            MemoryKind::Input,
            MemoryKind::Other,
        ];
        let mut time = 0u64;
        for i in 0..40u64 {
            let mk = kinds[i as usize % kinds.len()];
            t.record(
                time,
                EventKind::Malloc,
                BlockId(i),
                ((i + 1) * 1000) as usize,
                (i * 4096) as usize,
                mk,
                None,
            );
            time += 7;
            for _ in 0..3 {
                t.record(
                    time,
                    EventKind::Write,
                    BlockId(i),
                    ((i + 1) * 1000) as usize,
                    (i * 4096) as usize,
                    mk,
                    None,
                );
                time += 13;
                t.record(
                    time,
                    EventKind::Read,
                    BlockId(i),
                    ((i + 1) * 1000) as usize,
                    (i * 4096) as usize,
                    mk,
                    None,
                );
                time += 11;
            }
            if i % 3 != 0 {
                t.record(
                    time,
                    EventKind::Free,
                    BlockId(i),
                    ((i + 1) * 1000) as usize,
                    (i * 4096) as usize,
                    mk,
                    None,
                );
                time += 5;
            }
        }
        t
    }

    fn store_of(t: &Trace) -> StoreReader {
        let mut bytes = Vec::new();
        write_store_chunked(t, &mut bytes, 32).unwrap();
        StoreReader::new(bytes).unwrap()
    }

    #[test]
    fn ati_matches_in_memory_bit_for_bit() {
        let t = busy_trace();
        let r = store_of(&t);
        assert_eq!(
            fold_store(&r, AtiFold, configured_threads()).unwrap(),
            AtiDataset::from_trace(&t)
        );
    }

    #[test]
    fn peak_and_breakdown_match_in_memory() {
        let t = busy_trace();
        let r = store_of(&t);
        assert_eq!(
            fold_store(&r, PeakFold, configured_threads()).unwrap(),
            t.peak_live_bytes()
        );
        assert_eq!(
            fold_store(
                &r,
                BreakdownFold { label: "w".into() },
                configured_threads()
            )
            .unwrap(),
            BreakdownRow::from_trace("w", &t)
        );
    }

    #[test]
    fn gantt_matches_in_memory() {
        let t = busy_trace();
        let r = store_of(&t);
        let end = t.end_time_ns();
        assert_eq!(
            fold_store(
                &r,
                GanttFold {
                    t_start: 0,
                    t_end: end
                },
                configured_threads()
            )
            .unwrap(),
            gantt_rects(&t, 0, end)
        );
        // a window, too
        assert_eq!(
            fold_store(
                &r,
                GanttFold {
                    t_start: end / 3,
                    t_end: end / 2
                },
                configured_threads()
            )
            .unwrap(),
            gantt_rects(&t, end / 3, end / 2)
        );
    }

    #[test]
    fn outliers_match_in_memory() {
        let t = busy_trace();
        let r = store_of(&t);
        let criteria = OutlierCriteria {
            min_ati_ns: 10,
            min_size_bytes: 20_000,
        };
        assert_eq!(
            fold_store(&r, OutlierFold { criteria }, configured_threads()).unwrap(),
            sift(&AtiDataset::from_trace(&t), criteria)
        );
    }

    #[test]
    fn alloc_only_folds_prune_access_chunks() {
        // A few mallocs up front, then a long run of accesses: most
        // chunks are pure reads/writes, and the peak fold's Malloc|Free
        // predicate must skip them via the footer index.
        let mut t = Trace::new();
        let mut time = 0u64;
        for i in 0..4u64 {
            t.record(
                time,
                EventKind::Malloc,
                BlockId(i),
                1 << 20,
                (i as usize) << 20,
                MemoryKind::Activation,
                None,
            );
            time += 3;
        }
        for i in 0..400u64 {
            t.record(
                time,
                EventKind::Read,
                BlockId(i % 4),
                1 << 20,
                ((i % 4) as usize) << 20,
                MemoryKind::Activation,
                None,
            );
            time += 5;
        }
        let r = store_of(&t);
        let mut pipe = FusedPipeline::new();
        let h = pipe.register(PeakFold);
        let mut out = pipe
            .run_chunks(&r.footer().chunks, 1, r.policy(), r.fetch(1))
            .unwrap();
        assert_eq!(out.take(h), t.peak_live_bytes());
        let stats = out.stats();
        assert!(
            stats.chunks_pruned > 0,
            "expected access-only chunks to be pruned, stats: {stats:?}"
        );
        assert_eq!(
            stats.chunks_decoded + stats.chunks_pruned,
            stats.chunks_total
        );
    }
}
