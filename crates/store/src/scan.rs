//! The one chunk-scan loop every bulk consumer of a store sits on — the
//! reader's own queries and scrub, the fused analysis engine, and the
//! `pinpoint-serve` daemon's cached queries and reports. Only the chunk
//! *fetch* differs between them: the reader's pooled decode
//! ([`StoreReader::fetch`](crate::StoreReader::fetch)), a cache lookup,
//! or pre-decoded batches.

use crate::columns::ColumnBatch;
use crate::error::StoreError;
use crate::format::ChunkMeta;
use crate::reader::{Predicate, QueryResult, QueryStats, ReadPolicy};
use std::ops::Deref;

/// Chunks per scan wave at `threads` worker threads.
pub(crate) fn wave_len(threads: usize) -> usize {
    threads.max(1) * 4
}

/// Scans the chunks of `index` that `pred` does not prune.
///
/// Each candidate is fetched once with `fetch` and mapped with `map` on a
/// worker thread (at most `threads`); `sink` then sees every mapped
/// result on the calling thread, **in chunk order**, so output and
/// accounting are bit-identical at every thread count. Chunks run in
/// waves of `threads × 4`, so at most that many mapped results are ever
/// in flight. A fetch error is a
/// skipped chunk under [`ReadPolicy::Salvage`] when it is corruption, and
/// aborts the scan otherwise — I/O errors and
/// [`StoreError::Cancelled`] (a fetch's way to observe a deadline) are
/// never swallowed.
///
/// # Errors
///
/// The first fetch error, in chunk order, that the policy does not skip.
pub fn scan_ordered<D, T, F, M, S>(
    index: &[ChunkMeta],
    pred: &Predicate,
    threads: usize,
    policy: ReadPolicy,
    fetch: F,
    map: M,
    mut sink: S,
) -> Result<QueryStats, StoreError>
where
    D: Deref<Target = ColumnBatch>,
    T: Send,
    F: Fn(usize, &ChunkMeta) -> Result<D, StoreError> + Sync,
    M: Fn(usize, &ColumnBatch) -> T + Sync,
    S: FnMut(usize, T),
{
    let mut stats = QueryStats {
        chunks_total: index.len(),
        ..QueryStats::default()
    };
    let mut candidates = Vec::new();
    {
        let _prune_span = pinpoint_obs::tracer().span("store.prune");
        for (i, meta) in index.iter().enumerate() {
            if pred.matches_chunk(meta) {
                candidates.push(i);
            } else if pred.pruned_by_label(meta) {
                stats.chunks_pruned_by_label += 1;
            }
        }
    }
    stats.chunks_pruned = index.len() - candidates.len();
    let run_chunk = |i: usize| -> Result<(u64, T), StoreError> {
        let _chunk_span = pinpoint_obs::tracer().span_with("store.chunk", i as u64);
        let batch = fetch(i, &index[i])?;
        Ok((batch.len() as u64, map(i, &batch)))
    };
    let _scan_span = pinpoint_obs::tracer().span_with("store.scan", candidates.len() as u64);
    for wave in candidates.chunks(wave_len(threads)) {
        let mapped = pinpoint_parallel::map_ordered(wave.to_vec(), threads, run_chunk);
        for (&i, res) in wave.iter().zip(mapped) {
            match res {
                Ok((events, out)) => {
                    stats.chunks_decoded += 1;
                    stats.events_scanned += events;
                    sink(i, out);
                }
                Err(e) if policy == ReadPolicy::Salvage && e.is_corruption() => {
                    stats.chunks_skipped += 1;
                    stats.events_lost += index[i].count;
                    if stats.first_error.is_none() {
                        stats.first_error = Some(e.to_string());
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
    Ok(stats)
}

/// A filtered query over `fetch`: [`scan_ordered`] with `pred` both
/// pruning chunks and filtering their events.
///
/// # Errors
///
/// As [`scan_ordered`].
pub fn query_chunks<D, F>(
    index: &[ChunkMeta],
    pred: &Predicate,
    threads: usize,
    policy: ReadPolicy,
    fetch: F,
) -> Result<QueryResult, StoreError>
where
    D: Deref<Target = ColumnBatch>,
    F: Fn(usize, &ChunkMeta) -> Result<D, StoreError> + Sync,
{
    let mut events = Vec::new();
    let stats = scan_ordered(
        index,
        pred,
        threads,
        policy,
        fetch,
        |_, batch| {
            (0..batch.len())
                .map(|k| batch.event(k))
                .filter(|e| pred.matches_event(e))
                .collect::<Vec<_>>()
        },
        |_, matched| events.extend(matched),
    )?;
    Ok(QueryResult { events, stats })
}
