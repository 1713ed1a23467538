//! Fused one-decode analysis engine.
//!
//! The paper derives all of its characterization results (Figs. 2–7) from
//! *one* trace, yet running the passes one at a time re-reads that trace
//! once per pass. This module fuses any set of passes over a **single
//! scan**: each pass is an [`EventFold`] (per-chunk `push`, associative
//! `merge`, final `finish`), and a [`FusedPipeline`] registers folds,
//! prunes chunks with the **union** of their predicates, decodes each
//! surviving chunk exactly once, fans chunks out across
//! `pinpoint-parallel` workers, and merges the per-chunk partial states
//! back **in chunk order** — so results are bit-identical at any thread
//! count, the repo's established determinism invariant.
//!
//! The five paper passes ship as ready-made folds: [`AtiFold`],
//! [`PeakFold`], [`BreakdownFold`], [`GanttFold`], [`OutlierFold`];
//! [`crate::fold_store`] runs any one of them alone over a store.

use crate::ati::{AtiDataset, AtiRecord};
use crate::breakdown::BreakdownRow;
use crate::gantt::GanttRect;
use crate::outlier::{sift, OutlierCriteria, OutlierReport};
use pinpoint_store::{
    scan_ordered, ChunkMeta, ColumnBatch, Predicate, QueryStats, ReadPolicy, StoreError,
    DEFAULT_CHUNK_EVENTS,
};
use pinpoint_trace::{BlockId, Category, EventKind, MemEvent, MemoryKind, PeakUsage, Trace};
use std::any::Any;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;
use std::ops::Deref;

/// One analysis pass expressed as a chunk-parallel fold.
///
/// The engine decodes a chunk of events, calls [`push`](Self::push) for
/// each event into a fresh per-chunk [`Acc`](Self::Acc), then combines
/// per-chunk accumulators **left-to-right in chunk order** with
/// [`merge`](Self::merge), and finally converts the fully merged
/// accumulator into the pass's result with [`finish`](Self::finish).
///
/// # Contract
///
/// * `merge` must be **associative** with `push` order preserved: merging
///   chunk A's accumulator (earlier events) with chunk B's (later events)
///   must equal pushing A's events then B's into one accumulator. The
///   engine always passes the earlier accumulator as `a`.
/// * [`predicate`](Self::predicate) must be **sound**: an event that does
///   not match the predicate must not affect the result. The engine uses
///   it both to prune whole chunks (via the union across registered
///   folds) and to skip single events for this fold.
pub trait EventFold: Send + Sync {
    /// Per-chunk partial state.
    type Acc: Send + 'static;
    /// Final result of the pass.
    type Output: Send + 'static;

    /// The events this fold needs to observe (see the trait contract).
    fn predicate(&self) -> Predicate;
    /// Creates an empty accumulator for one chunk.
    fn new_acc(&self) -> Self::Acc;
    /// Folds one event into a chunk accumulator.
    fn push(&self, acc: &mut Self::Acc, e: &MemEvent);
    /// Combines two accumulators; `a` covers strictly earlier events.
    fn merge(&self, a: Self::Acc, b: Self::Acc) -> Self::Acc;
    /// Converts the fully merged accumulator into the pass result.
    fn finish(&self, acc: Self::Acc) -> Self::Output;

    /// Folds one decoded chunk, column-batch style. `pred` is always this
    /// fold's own [`predicate`](Self::predicate); the engine passes it so
    /// overrides don't have to recompute it per chunk.
    ///
    /// The default materializes each event and filters with `pred` —
    /// semantically identical to the per-event path. Folds whose
    /// predicate can be tested straight off a column override this to
    /// skip events without ever building a [`MemEvent`] (see
    /// [`PeakFold`], which rules out accesses with one byte test per
    /// event) — and must then also override
    /// [`columnar`](Self::columnar) to return `true`, or the engine's
    /// shared per-event loop is used and the override never runs.
    /// Overrides must stay bit-identical to the default.
    fn push_batch(&self, acc: &mut Self::Acc, batch: &ColumnBatch, pred: &Predicate) {
        for i in 0..batch.len() {
            let e = batch.event(i);
            if pred.matches_event(&e) {
                self.push(acc, &e);
            }
        }
    }

    /// Whether [`push_batch`](Self::push_batch) is overridden with a
    /// columnar implementation. The engine materializes each event
    /// **once per chunk** and shares it among every non-columnar fold in
    /// the pipeline; columnar folds are handed the raw batch instead,
    /// so a five-fold report never builds an event more than once.
    fn columnar(&self) -> bool {
        false
    }
}

/// Type-erased accumulator, so one pipeline can carry folds with
/// different `Acc` types.
type DynAcc = Box<dyn Any + Send>;

/// Object-safe mirror of [`EventFold`]; implemented for every fold via
/// the blanket impl below.
trait DynFold: Send + Sync {
    fn predicate_dyn(&self) -> Predicate;
    fn new_acc_dyn(&self) -> DynAcc;
    fn push_dyn(&self, acc: &mut DynAcc, e: &MemEvent);
    fn push_batch_dyn(&self, acc: &mut DynAcc, batch: &ColumnBatch, pred: &Predicate);
    fn columnar_dyn(&self) -> bool;
    fn merge_dyn(&self, a: DynAcc, b: DynAcc) -> DynAcc;
    fn finish_dyn(&self, acc: DynAcc) -> DynAcc;
}

impl<F: EventFold> DynFold for F {
    fn predicate_dyn(&self) -> Predicate {
        self.predicate()
    }
    fn new_acc_dyn(&self) -> DynAcc {
        Box::new(self.new_acc())
    }
    fn push_dyn(&self, acc: &mut DynAcc, e: &MemEvent) {
        let acc = acc.downcast_mut::<F::Acc>().expect("fold acc type");
        self.push(acc, e);
    }
    fn push_batch_dyn(&self, acc: &mut DynAcc, batch: &ColumnBatch, pred: &Predicate) {
        let acc = acc.downcast_mut::<F::Acc>().expect("fold acc type");
        self.push_batch(acc, batch, pred);
    }
    fn columnar_dyn(&self) -> bool {
        self.columnar()
    }
    fn merge_dyn(&self, a: DynAcc, b: DynAcc) -> DynAcc {
        let a = a.downcast::<F::Acc>().expect("fold acc type");
        let b = b.downcast::<F::Acc>().expect("fold acc type");
        Box::new(self.merge(*a, *b))
    }
    fn finish_dyn(&self, acc: DynAcc) -> DynAcc {
        let acc = acc.downcast::<F::Acc>().expect("fold acc type");
        Box::new(self.finish(*acc))
    }
}

/// Typed receipt for a registered fold; redeem it with
/// [`FusedOutputs::take`] after the pipeline runs.
pub struct FoldHandle<O> {
    index: usize,
    _output: PhantomData<fn() -> O>,
}

impl<O> Clone for FoldHandle<O> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<O> Copy for FoldHandle<O> {}

impl<O> fmt::Debug for FoldHandle<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FoldHandle")
            .field("index", &self.index)
            .finish()
    }
}

/// Scan accounting for one fused run — how much pruning and decoding the
/// union predicate bought, and (under [`ReadPolicy::Salvage`]) exactly
/// what corruption cost. The same accounting a store query reports.
pub type FusedStats = QueryStats;

/// Results of a fused run: one output slot per registered fold, plus
/// scan statistics.
pub struct FusedOutputs {
    outputs: Vec<Option<DynAcc>>,
    stats: FusedStats,
}

impl fmt::Debug for FusedOutputs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FusedOutputs")
            .field("outputs", &self.outputs.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl FusedOutputs {
    /// Removes and returns the output of the fold behind `handle`.
    ///
    /// # Panics
    ///
    /// Panics if the handle came from a different pipeline or the output
    /// was already taken.
    pub fn take<O: 'static>(&mut self, handle: FoldHandle<O>) -> O {
        let boxed = self
            .outputs
            .get_mut(handle.index)
            .and_then(Option::take)
            .expect("fold output present (taken once, handle from this run)");
        *boxed.downcast::<O>().expect("handle output type")
    }

    /// Scan accounting for the run.
    pub fn stats(&self) -> &FusedStats {
        &self.stats
    }
}

/// A set of registered folds run over **one** decode of a trace.
///
/// See the module docs for the full picture; in short:
///
/// ```
/// use pinpoint_analysis::{AtiFold, FusedPipeline, PeakFold};
/// # use pinpoint_trace::Trace;
/// let mut pipe = FusedPipeline::new();
/// let ati = pipe.register(AtiFold);
/// let peak = pipe.register(PeakFold);
/// let mut out = pipe.run_trace(&Trace::new(), 1);
/// let (dataset, usage) = (out.take(ati), out.take(peak));
/// # assert!(dataset.is_empty());
/// # assert_eq!(usage.peak_total_bytes, 0);
/// ```
#[derive(Default)]
pub struct FusedPipeline {
    folds: Vec<Box<dyn DynFold>>,
}

impl fmt::Debug for FusedPipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FusedPipeline")
            .field("folds", &self.folds.len())
            .finish()
    }
}

impl FusedPipeline {
    /// An empty pipeline; register folds, then run it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a fold; redeem the returned handle for its output after
    /// a run.
    pub fn register<F: EventFold + 'static>(&mut self, fold: F) -> FoldHandle<F::Output> {
        let index = self.folds.len();
        self.folds.push(Box::new(fold));
        FoldHandle {
            index,
            _output: PhantomData,
        }
    }

    /// Number of registered folds.
    pub fn len(&self) -> usize {
        self.folds.len()
    }

    /// True when no folds are registered.
    pub fn is_empty(&self) -> bool {
        self.folds.is_empty()
    }

    /// The union of every registered fold's predicate — the coarsest
    /// filter that is still sound for all of them, used for chunk-index
    /// pruning. Returns the match-everything predicate when the pipeline
    /// is empty.
    pub fn union_predicate(&self) -> Predicate {
        self.folds
            .iter()
            .map(|f| f.predicate_dyn())
            .reduce(|a, b| a.union(&b))
            .unwrap_or_else(Predicate::any)
    }

    /// Runs every registered fold over a store's chunks in **one pass**:
    /// chunks of `index` (the store's chunk index, file order) not
    /// matching the union predicate are pruned, each surviving chunk is
    /// requested once from `fetch` on a worker thread, and per-chunk
    /// partial states merge in chunk order — bit-identical results at any
    /// `threads` count, whatever serves the batches: the reader's pooled
    /// decode ([`StoreReader::fetch`](pinpoint_store::StoreReader::fetch)),
    /// the daemon's chunk cache, or pre-decoded batches. Chunks run in
    /// waves of `threads × 4`, so at most that many per-chunk accumulators
    /// are ever in flight.
    ///
    /// Under [`ReadPolicy::Salvage`], a `fetch` that returns a corruption
    /// error becomes a skipped chunk with exact accounting
    /// (`chunks_skipped`, `events_lost`, `first_error`) instead of failing
    /// the run; the fold results are then bit-identical — at any thread
    /// count — to a run over a store containing only the surviving
    /// chunks. A fetch cancels the run by returning
    /// [`StoreError::Cancelled`], which no policy swallows.
    ///
    /// # Errors
    ///
    /// I/O errors and cancellation from `fetch` always; corruption errors
    /// under [`ReadPolicy::Strict`].
    pub fn run_chunks<D, F>(
        &self,
        index: &[ChunkMeta],
        threads: usize,
        policy: ReadPolicy,
        fetch: F,
    ) -> Result<FusedOutputs, StoreError>
    where
        D: Deref<Target = ColumnBatch>,
        F: Fn(usize, &ChunkMeta) -> Result<D, StoreError> + Sync,
    {
        let _run_span = pinpoint_obs::tracer().span_with("engine.run", self.folds.len() as u64);
        if self.folds.is_empty() {
            let stats = FusedStats {
                chunks_total: index.len(),
                chunks_pruned: index.len(),
                ..FusedStats::default()
            };
            return Ok(self.finalize(None, stats));
        }
        let preds: Vec<Predicate> = self.folds.iter().map(|f| f.predicate_dyn()).collect();
        let folds = &self.folds;
        let mut merged: Option<Vec<DynAcc>> = None;
        let stats = scan_ordered(
            index,
            &self.union_predicate(),
            threads,
            policy,
            fetch,
            |_, batch| fold_chunk_batch(folds, &preds, batch),
            |i, accs| {
                let _merge_span = pinpoint_obs::tracer().span_with("engine.merge", i as u64);
                merged = merge_accs(folds, merged.take(), accs);
            },
        )?;
        Ok(self.finalize(merged, stats))
    }

    /// Runs every registered fold over an in-memory trace in one pass,
    /// splitting the event list into fixed-size chunks for the same
    /// parallel map + in-order merge as [`run_chunks`](Self::run_chunks)
    /// (fixed boundaries, so results are thread-count invariant). No
    /// chunk pruning happens here — there is no index — but per-fold
    /// event predicates still apply.
    pub fn run_trace(&self, trace: &Trace, threads: usize) -> FusedOutputs {
        let _run_span = pinpoint_obs::tracer().span_with("engine.run", self.folds.len() as u64);
        let chunks: Vec<&[MemEvent]> = trace.events().chunks(DEFAULT_CHUNK_EVENTS).collect();
        let chunks_total = chunks.len();
        let preds: Vec<Predicate> = self.folds.iter().map(|f| f.predicate_dyn()).collect();
        let folds = &self.folds;
        let (merged, events_scanned) = pinpoint_parallel::map_reduce_ordered(
            chunks,
            threads,
            (None, 0u64),
            |events: &[MemEvent]| (fold_chunk(folds, &preds, events), events.len() as u64),
            |(acc, n), (accs, len)| (merge_accs(folds, acc, accs), n + len),
        );
        self.finalize(
            merged,
            FusedStats {
                chunks_total,
                chunks_decoded: chunks_total,
                events_scanned,
                ..FusedStats::default()
            },
        )
    }

    /// Merged accumulators → outputs (empty input → empty-fold outputs).
    fn finalize(&self, merged: Option<Vec<DynAcc>>, stats: FusedStats) -> FusedOutputs {
        let _finish_span = pinpoint_obs::tracer().span("engine.finish");
        let accs = merged.unwrap_or_else(|| self.folds.iter().map(|f| f.new_acc_dyn()).collect());
        let outputs = self
            .folds
            .iter()
            .zip(accs)
            .map(|(f, a)| Some(f.finish_dyn(a)))
            .collect();
        FusedOutputs { outputs, stats }
    }
}

/// Folds one decoded column batch into fresh per-fold accumulators.
///
/// Columnar folds consume the batch directly (never building an event);
/// all remaining folds share a single materialization loop, so each
/// event is built at most once per chunk however many folds registered.
fn fold_chunk_batch(
    folds: &[Box<dyn DynFold>],
    preds: &[Predicate],
    batch: &ColumnBatch,
) -> Vec<DynAcc> {
    let _fold_span = pinpoint_obs::tracer().span_with("engine.fold", batch.len() as u64);
    let mut accs: Vec<DynAcc> = folds.iter().map(|f| f.new_acc_dyn()).collect();
    let mut shared: Vec<usize> = Vec::new();
    for (j, fold) in folds.iter().enumerate() {
        if fold.columnar_dyn() {
            fold.push_batch_dyn(&mut accs[j], batch, &preds[j]);
        } else {
            shared.push(j);
        }
    }
    if !shared.is_empty() {
        for i in 0..batch.len() {
            let e = batch.event(i);
            for &j in &shared {
                if preds[j].matches_event(&e) {
                    folds[j].push_dyn(&mut accs[j], &e);
                }
            }
        }
    }
    accs
}

/// Folds one chunk of already-materialized events into fresh per-fold
/// accumulators (the [`FusedPipeline::run_trace`] path).
fn fold_chunk(folds: &[Box<dyn DynFold>], preds: &[Predicate], events: &[MemEvent]) -> Vec<DynAcc> {
    let _fold_span = pinpoint_obs::tracer().span_with("engine.fold", events.len() as u64);
    let mut accs: Vec<DynAcc> = folds.iter().map(|f| f.new_acc_dyn()).collect();
    for e in events {
        for ((fold, pred), acc) in folds.iter().zip(preds).zip(&mut accs) {
            if pred.matches_event(e) {
                fold.push_dyn(acc, e);
            }
        }
    }
    accs
}

/// In-order reduce step: merge the next chunk's accumulators into the
/// running ones (earlier chunks on the left).
fn merge_accs(
    folds: &[Box<dyn DynFold>],
    acc: Option<Vec<DynAcc>>,
    next: Vec<DynAcc>,
) -> Option<Vec<DynAcc>> {
    Some(match acc {
        None => next,
        Some(prev) => prev
            .into_iter()
            .zip(next)
            .zip(folds)
            .map(|((a, b), f)| f.merge_dyn(a, b))
            .collect(),
    })
}

// ---------------------------------------------------------------------------
// The five paper passes as folds.
// ---------------------------------------------------------------------------

/// Per-block state the ATI fold keeps — O(1) per live block, not every
/// access (this is what bounds a store-backed ATI run's memory).
#[derive(Debug, Clone, Copy)]
struct AtiBlockState {
    /// Size/kind fallback from the block's first event of any kind
    /// (mirrors `Trace::lifetimes()` entry initialization).
    fallback_size: usize,
    fallback_kind: MemoryKind,
    /// Last malloc's (size, kind); overrides the fallback.
    malloc_meta: Option<(usize, MemoryKind)>,
    /// First access in this accumulator's span (bridge target on merge).
    first_access: Option<(u64, EventKind)>,
    /// Most recent access (the open end of the next interval).
    last_access: Option<(u64, EventKind)>,
}

/// An interval observed before the block's final size/kind are known;
/// completed into an [`AtiRecord`] at `finish`.
#[derive(Debug, Clone, Copy)]
struct PendingAti {
    block: BlockId,
    interval_ns: u64,
    end_time_ns: u64,
    closing_kind: EventKind,
}

/// Accumulator of [`AtiFold`]: per-block scalar state plus the intervals
/// closed so far, in per-block chronological order.
#[derive(Debug, Default)]
pub struct AtiAcc {
    blocks: BTreeMap<BlockId, AtiBlockState>,
    pending: Vec<PendingAti>,
}

/// Access-time-interval extraction as a fold — the fused twin of
/// [`AtiDataset::from_trace`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AtiFold;

fn ati_push(acc: &mut AtiAcc, e: &MemEvent) {
    let st = acc.blocks.entry(e.block).or_insert(AtiBlockState {
        fallback_size: e.size,
        fallback_kind: e.mem_kind,
        malloc_meta: None,
        first_access: None,
        last_access: None,
    });
    match e.kind {
        EventKind::Malloc => st.malloc_meta = Some((e.size, e.mem_kind)),
        EventKind::Free => {}
        EventKind::Read | EventKind::Write => {
            if let Some((prev, _)) = st.last_access {
                acc.pending.push(PendingAti {
                    block: e.block,
                    interval_ns: e.time_ns - prev,
                    end_time_ns: e.time_ns,
                    closing_kind: e.kind,
                });
            }
            if st.first_access.is_none() {
                st.first_access = Some((e.time_ns, e.kind));
            }
            st.last_access = Some((e.time_ns, e.kind));
        }
    }
}

fn ati_merge(mut a: AtiAcc, b: AtiAcc) -> AtiAcc {
    let AtiAcc {
        blocks: b_blocks,
        pending: b_pending,
    } = b;
    for (block, sb) in b_blocks {
        match a.blocks.entry(block) {
            Entry::Vacant(v) => {
                v.insert(sb);
            }
            Entry::Occupied(mut o) => {
                let sa = o.get_mut();
                // Bridge the interval spanning the two accumulators'
                // event spans: A's last access → B's first.
                if let (Some((ta, _)), Some((tb, kb))) = (sa.last_access, sb.first_access) {
                    a.pending.push(PendingAti {
                        block,
                        interval_ns: tb - ta,
                        end_time_ns: tb,
                        closing_kind: kb,
                    });
                }
                sa.malloc_meta = sb.malloc_meta.or(sa.malloc_meta);
                if sa.first_access.is_none() {
                    sa.first_access = sb.first_access;
                }
                if sb.last_access.is_some() {
                    sa.last_access = sb.last_access;
                }
            }
        }
    }
    // A's intervals, then the bridges (closed by B's first accesses),
    // then B's: per-block chronological order is preserved, which the
    // final stable sort relies on for bit-identity with the sequential
    // pass.
    a.pending.extend(b_pending);
    a
}

/// Completes pending intervals with each block's final size/kind and
/// builds the dataset exactly like the sequential pass.
fn ati_dataset(acc: AtiAcc) -> AtiDataset {
    let mut records: Vec<AtiRecord> = acc
        .pending
        .iter()
        .map(|p| {
            let st = &acc.blocks[&p.block];
            let (size, mem_kind) = st
                .malloc_meta
                .unwrap_or((st.fallback_size, st.fallback_kind));
            AtiRecord {
                block: p.block,
                size,
                mem_kind,
                interval_ns: p.interval_ns,
                end_time_ns: p.end_time_ns,
                closing_kind: p.closing_kind,
            }
        })
        .collect();
    records.sort_by_key(|r| (r.end_time_ns, r.block));
    AtiDataset::from_records(records)
}

impl EventFold for AtiFold {
    type Acc = AtiAcc;
    type Output = AtiDataset;

    /// Everything: accesses close intervals, mallocs set size/kind, and
    /// even a leading free initializes the block's fallback metadata
    /// (mirroring `Trace::lifetimes()`).
    fn predicate(&self) -> Predicate {
        Predicate::any()
    }
    fn new_acc(&self) -> AtiAcc {
        AtiAcc::default()
    }
    fn push(&self, acc: &mut AtiAcc, e: &MemEvent) {
        ati_push(acc, e);
    }
    fn merge(&self, a: AtiAcc, b: AtiAcc) -> AtiAcc {
        ati_merge(a, b)
    }
    fn finish(&self, acc: AtiAcc) -> AtiDataset {
        ati_dataset(acc)
    }
}

/// Accumulator of [`PeakFold`]: the span's net allocation delta plus the
/// best peak candidate relative to the span start.
#[derive(Debug, Default)]
pub struct PeakAcc {
    /// Net live-byte change per category over the span.
    delta: BTreeMap<Category, i64>,
    /// Net live-byte change overall.
    delta_total: i64,
    /// Earliest maximum of the running total within the span, with the
    /// per-category live map at that instant (both relative to the span
    /// start).
    peak: Option<(i64, BTreeMap<Category, i64>)>,
}

/// Peak-footprint extraction as a fold — the fused twin of
/// `Trace::peak_live_bytes()`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PeakFold;

fn peak_push(acc: &mut PeakAcc, e: &MemEvent) {
    let cat = e.mem_kind.category();
    match e.kind {
        EventKind::Malloc => {
            *acc.delta.entry(cat).or_insert(0) += e.size as i64;
            acc.delta_total += e.size as i64;
            let better = acc.peak.as_ref().is_none_or(|(p, _)| acc.delta_total > *p);
            if better {
                acc.peak = Some((acc.delta_total, acc.delta.clone()));
            }
        }
        EventKind::Free => {
            *acc.delta.entry(cat).or_insert(0) -= e.size as i64;
            acc.delta_total -= e.size as i64;
        }
        EventKind::Read | EventKind::Write => {}
    }
}

/// Columnar twin of [`peak_push`] shared by [`PeakFold`] and
/// [`BreakdownFold`]: the meta column's 2-bit kind code (malloc = 0,
/// free = 1) rules out accesses with one byte test, so in access-heavy
/// traces — the paper's regime — the vast majority of events are skipped
/// without ever being materialized.
fn peak_push_batch(acc: &mut PeakAcc, batch: &ColumnBatch, pred: &Predicate) {
    let meta = batch.meta();
    for (i, &m) in meta.iter().enumerate() {
        if m & 0b11 > 1 {
            continue;
        }
        let e = batch.event(i);
        if pred.matches_event(&e) {
            peak_push(acc, &e);
        }
    }
}

fn peak_merge(a: PeakAcc, mut b: PeakAcc) -> PeakAcc {
    // Rebase B's candidate onto A's closing totals; keep A's candidate
    // on ties so the *earliest* maximum wins, like the sequential scan.
    let cand_b = b.peak.take().map(|(pt, pc)| {
        let mut abs = a.delta.clone();
        for (c, v) in pc {
            *abs.entry(c).or_insert(0) += v;
        }
        (a.delta_total + pt, abs)
    });
    let peak = match (a.peak, cand_b) {
        (Some(pa), Some(pb)) => Some(if pb.0 > pa.0 { pb } else { pa }),
        (x, y) => x.or(y),
    };
    let mut delta = a.delta;
    for (c, v) in b.delta {
        *delta.entry(c).or_insert(0) += v;
    }
    PeakAcc {
        delta,
        delta_total: a.delta_total + b.delta_total,
        peak,
    }
}

/// Builds the final [`PeakUsage`] exactly like the sequential scan
/// (candidates that never exceed zero report an all-zero peak).
fn peak_usage(acc: PeakAcc) -> PeakUsage {
    let (peak_total, at_peak) = match acc.peak {
        Some((p, cats)) if p > 0 => (p, cats),
        _ => (0, BTreeMap::new()),
    };
    PeakUsage {
        peak_total_bytes: peak_total.max(0) as u64,
        at_peak_by_category: Category::ALL
            .iter()
            .map(|c| (*c, at_peak.get(c).copied().unwrap_or(0).max(0) as u64))
            .collect(),
    }
}

impl EventFold for PeakFold {
    type Acc = PeakAcc;
    type Output = PeakUsage;

    /// Only allocation events move the live total — chunks of pure
    /// accesses are prunable for this fold.
    fn predicate(&self) -> Predicate {
        Predicate::any()
            .with_kind(EventKind::Malloc)
            .with_kind(EventKind::Free)
    }
    fn new_acc(&self) -> PeakAcc {
        PeakAcc::default()
    }
    fn push(&self, acc: &mut PeakAcc, e: &MemEvent) {
        peak_push(acc, e);
    }
    fn merge(&self, a: PeakAcc, b: PeakAcc) -> PeakAcc {
        peak_merge(a, b)
    }
    fn finish(&self, acc: PeakAcc) -> PeakUsage {
        peak_usage(acc)
    }
    fn push_batch(&self, acc: &mut PeakAcc, batch: &ColumnBatch, pred: &Predicate) {
        peak_push_batch(acc, batch, pred);
    }
    fn columnar(&self) -> bool {
        true
    }
}

/// One breakdown-figure row as a fold — the fused twin of
/// [`BreakdownRow::from_trace`]. Shares [`PeakAcc`] with [`PeakFold`].
#[derive(Debug, Clone)]
pub struct BreakdownFold {
    /// Row label (the profile/config name in Figs. 5–7).
    pub label: String,
}

impl EventFold for BreakdownFold {
    type Acc = PeakAcc;
    type Output = BreakdownRow;

    fn predicate(&self) -> Predicate {
        PeakFold.predicate()
    }
    fn new_acc(&self) -> PeakAcc {
        PeakAcc::default()
    }
    fn push(&self, acc: &mut PeakAcc, e: &MemEvent) {
        peak_push(acc, e);
    }
    fn merge(&self, a: PeakAcc, b: PeakAcc) -> PeakAcc {
        peak_merge(a, b)
    }
    fn push_batch(&self, acc: &mut PeakAcc, batch: &ColumnBatch, pred: &Predicate) {
        peak_push_batch(acc, batch, pred);
    }
    fn columnar(&self) -> bool {
        true
    }
    fn finish(&self, acc: PeakAcc) -> BreakdownRow {
        let peak = peak_usage(acc);
        BreakdownRow {
            label: self.label.clone(),
            peak_bytes: peak.peak_total_bytes,
            input_bytes: peak.bytes(Category::InputData),
            parameter_bytes: peak.bytes(Category::Parameters),
            intermediate_bytes: peak.bytes(Category::Intermediates),
        }
    }
}

/// Per-block state of the Gantt fold, mirroring one
/// `Trace::lifetimes()` entry without the access list.
#[derive(Debug, Clone, Copy)]
struct GanttBlockState {
    /// (time, size, offset, kind) of the block's first event of any kind.
    first: (u64, usize, usize, MemoryKind),
    /// Last malloc's (time, size, offset, kind); overrides `first`.
    malloc: Option<(u64, usize, usize, MemoryKind)>,
    /// Last free's time.
    free_time_ns: Option<u64>,
}

/// Accumulator of [`GanttFold`].
#[derive(Debug, Default)]
pub struct GanttAcc {
    blocks: BTreeMap<BlockId, GanttBlockState>,
    /// Time of the last event seen (lifetime end of never-freed blocks).
    end_time_ns: Option<u64>,
}

/// Gantt-rectangle extraction as a fold — the fused twin of
/// [`crate::gantt_rects`], restricted to lifetimes intersecting
/// `[t_start, t_end]`.
#[derive(Debug, Clone, Copy)]
pub struct GanttFold {
    /// Window start (inclusive).
    pub t_start: u64,
    /// Window end (inclusive).
    pub t_end: u64,
}

impl EventFold for GanttFold {
    type Acc = GanttAcc;
    type Output = Vec<GanttRect>;

    /// Everything: never-freed blocks extend to the trace's last event of
    /// *any* kind, and a block's fallback geometry comes from its first
    /// event of any kind — so even chunks outside the window matter.
    fn predicate(&self) -> Predicate {
        Predicate::any()
    }
    fn new_acc(&self) -> GanttAcc {
        GanttAcc::default()
    }
    fn push(&self, acc: &mut GanttAcc, e: &MemEvent) {
        acc.end_time_ns = Some(e.time_ns);
        let st = acc.blocks.entry(e.block).or_insert(GanttBlockState {
            first: (e.time_ns, e.size, e.offset, e.mem_kind),
            malloc: None,
            free_time_ns: None,
        });
        match e.kind {
            EventKind::Malloc => st.malloc = Some((e.time_ns, e.size, e.offset, e.mem_kind)),
            EventKind::Free => st.free_time_ns = Some(e.time_ns),
            EventKind::Read | EventKind::Write => {}
        }
    }
    fn merge(&self, mut a: GanttAcc, b: GanttAcc) -> GanttAcc {
        for (block, sb) in b.blocks {
            match a.blocks.entry(block) {
                Entry::Vacant(v) => {
                    v.insert(sb);
                }
                Entry::Occupied(mut o) => {
                    let sa = o.get_mut();
                    sa.malloc = sb.malloc.or(sa.malloc);
                    sa.free_time_ns = sb.free_time_ns.or(sa.free_time_ns);
                }
            }
        }
        a.end_time_ns = b.end_time_ns.or(a.end_time_ns);
        a
    }
    fn finish(&self, acc: GanttAcc) -> Vec<GanttRect> {
        let end = acc.end_time_ns.unwrap_or(0);
        let mut rects: Vec<GanttRect> = acc
            .blocks
            .iter()
            .map(|(block, st)| {
                let (t0_ns, size, offset, mem_kind) = st.malloc.unwrap_or(st.first);
                GanttRect {
                    block: *block,
                    t0_ns,
                    t1_ns: st.free_time_ns.unwrap_or(end),
                    offset,
                    size,
                    mem_kind,
                }
            })
            .filter(|r| r.t1_ns >= self.t_start && r.t0_ns <= self.t_end)
            .collect();
        rects.sort_by_key(|r| (r.t0_ns, r.offset));
        rects
    }
}

/// Fig. 4 outlier sifting as a fold — the fused twin of
/// [`AtiDataset::from_trace`] + [`sift`]. Shares [`AtiAcc`] with
/// [`AtiFold`].
#[derive(Debug, Clone, Copy)]
pub struct OutlierFold {
    /// The high-ATI × large-size thresholds to sift with.
    pub criteria: OutlierCriteria,
}

impl EventFold for OutlierFold {
    type Acc = AtiAcc;
    type Output = OutlierReport;

    fn predicate(&self) -> Predicate {
        AtiFold.predicate()
    }
    fn new_acc(&self) -> AtiAcc {
        AtiAcc::default()
    }
    fn push(&self, acc: &mut AtiAcc, e: &MemEvent) {
        ati_push(acc, e);
    }
    fn merge(&self, a: AtiAcc, b: AtiAcc) -> AtiAcc {
        ati_merge(a, b)
    }
    fn finish(&self, acc: AtiAcc) -> OutlierReport {
        sift(&ati_dataset(acc), self.criteria)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_trace::Trace;

    fn mixed_trace() -> Trace {
        let mut t = Trace::new();
        for i in 0..30u64 {
            let b = BlockId(i % 7);
            t.record(
                i * 10,
                EventKind::Malloc,
                b,
                ((i % 7 + 1) * 100) as usize,
                (i * 64) as usize,
                MemoryKind::Activation,
                None,
            );
            t.record(
                i * 10 + 3,
                EventKind::Write,
                b,
                ((i % 7 + 1) * 100) as usize,
                (i * 64) as usize,
                MemoryKind::Activation,
                None,
            );
            t.record(
                i * 10 + 7,
                EventKind::Read,
                b,
                ((i % 7 + 1) * 100) as usize,
                (i * 64) as usize,
                MemoryKind::Activation,
                None,
            );
            if i % 3 == 0 {
                t.record(
                    i * 10 + 9,
                    EventKind::Free,
                    b,
                    ((i % 7 + 1) * 100) as usize,
                    (i * 64) as usize,
                    MemoryKind::Activation,
                    None,
                );
            }
        }
        t
    }

    #[test]
    fn fused_trace_run_matches_standalone_passes() {
        let t = mixed_trace();
        let mut pipe = FusedPipeline::new();
        let ati = pipe.register(AtiFold);
        let peak = pipe.register(PeakFold);
        let end = t.end_time_ns();
        let gantt = pipe.register(GanttFold {
            t_start: 0,
            t_end: end,
        });
        for threads in [1, 4] {
            let mut out = pipe.run_trace(&t, threads);
            assert_eq!(
                out.take(ati),
                AtiDataset::from_trace(&t),
                "threads={threads}"
            );
            assert_eq!(out.take(peak), t.peak_live_bytes(), "threads={threads}");
            assert_eq!(
                out.take(gantt),
                crate::gantt_rects(&t, 0, end),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn a_cancelling_fetch_aborts_fused_runs_under_any_policy() {
        let t = mixed_trace();
        let mut bytes = Vec::new();
        pinpoint_store::write_store_chunked(&t, &mut bytes, 16).unwrap();
        let reader = pinpoint_store::StoreReader::new(bytes).unwrap();
        let index = &reader.footer().chunks;
        let mut pipe = FusedPipeline::new();
        let peak = pipe.register(PeakFold);
        for policy in [ReadPolicy::Strict, ReadPolicy::Salvage] {
            // a fetch that observes a fired token propagates Cancelled
            // even under Salvage — the serve daemon's checkpoint path
            let token = pinpoint_store::CancelToken::new(|| true);
            let fetch = reader.fetch(1);
            let err = pipe
                .run_chunks(index, 1, policy, |i, m| {
                    token.check()?;
                    fetch(i, m)
                })
                .unwrap_err();
            assert!(err.to_string().contains("cancelled"), "{err}");
            let err = pipe
                .run_chunks(index, 1, policy, |_, _| {
                    Err::<std::sync::Arc<ColumnBatch>, _>(StoreError::Cancelled)
                })
                .unwrap_err();
            assert!(matches!(err, StoreError::Cancelled), "{err}");
        }

        // disarmed, the same pipeline answers fully again
        let mut out = pipe
            .run_chunks(index, 1, ReadPolicy::Salvage, reader.fetch(1))
            .unwrap();
        assert_eq!(out.take(peak), t.peak_live_bytes());
    }

    #[test]
    fn union_predicate_is_the_hull_of_registered_folds() {
        let mut pipe = FusedPipeline::new();
        pipe.register(PeakFold);
        pipe.register(BreakdownFold { label: "x".into() });
        // alloc-only folds keep the alloc-only mask...
        let u = pipe.union_predicate();
        assert_eq!(u, PeakFold.predicate());
        // ...until an everything-fold joins.
        pipe.register(AtiFold);
        assert_eq!(pipe.union_predicate(), Predicate::any());
    }

    #[test]
    fn empty_pipeline_and_empty_trace_are_fine() {
        let pipe = FusedPipeline::new();
        let out = pipe.run_trace(&Trace::new(), 4);
        assert_eq!(out.stats().chunks_total, 0);

        let mut pipe = FusedPipeline::new();
        let peak = pipe.register(PeakFold);
        let mut out = pipe.run_trace(&Trace::new(), 4);
        assert_eq!(out.take(peak).peak_total_bytes, 0);
    }
}
