//! Property tests for the fused analysis engine: against seeded
//! pseudo-random traces, a fused multi-pass run must be bit-identical to
//! the five standalone passes, at any thread count, for both `.ptrc`
//! stores and in-memory traces — and must decode each chunk exactly once.

use pinpoint::analysis::{
    gantt_rects, sift, AtiDataset, AtiFold, BreakdownFold, BreakdownRow, FusedPipeline, GanttFold,
    OutlierCriteria, OutlierFold, PeakFold,
};
use pinpoint::store::{write_store_chunked, StoreReader};
use pinpoint::tensor::rng::Rng64;
use pinpoint::trace::{BlockId, EventKind, Marker, MemEvent, MemoryKind, Trace};

/// Generates a pseudo-random trace: arbitrary event mixes, shared and
/// fresh blocks, op labels, markers (mirrors `store_roundtrip.rs`).
fn arbitrary_trace(rng: &mut Rng64, events: usize) -> Trace {
    let mut t = Trace::new();
    let n_labels = rng.gen_range_usize(0, 8);
    for i in 0..n_labels {
        t.intern_label(&format!("op.{i}"));
    }
    let kinds = [
        EventKind::Malloc,
        EventKind::Free,
        EventKind::Read,
        EventKind::Write,
    ];
    let mem_kinds = [
        MemoryKind::Input,
        MemoryKind::Weight,
        MemoryKind::WeightGrad,
        MemoryKind::OptimizerState,
        MemoryKind::Activation,
        MemoryKind::ActivationGrad,
        MemoryKind::Workspace,
        MemoryKind::Other,
    ];
    let mut time = 0u64;
    for _ in 0..events {
        let dt_bits = rng.gen_range_usize(1, 30);
        time += rng.gen_below(1 << dt_bits);
        let op_label = if n_labels > 0 && rng.gen_bool() {
            Some(rng.gen_range_usize(0, n_labels) as u32)
        } else {
            None
        };
        // few distinct blocks, so intervals and re-mallocs actually happen
        let block = BlockId(rng.gen_below(12));
        let size_bits = rng.gen_range_usize(1, 33);
        let offset_bits = rng.gen_range_usize(1, 38);
        t.push(MemEvent {
            time_ns: time,
            kind: kinds[rng.gen_range_usize(0, kinds.len())],
            block,
            size: rng.gen_below(1 << size_bits) as usize,
            offset: rng.gen_below(1 << offset_bits) as usize,
            mem_kind: mem_kinds[rng.gen_range_usize(0, mem_kinds.len())],
            op_label,
        });
        if rng.gen_range_usize(0, 25) == 0 {
            t.push_marker(Marker {
                time_ns: time,
                event_index: t.len(),
                label: format!("marker:{time}"),
            });
        }
    }
    t
}

fn store_of(t: &Trace, chunk: usize) -> StoreReader {
    let mut bytes = Vec::new();
    write_store_chunked(t, &mut bytes, chunk).unwrap();
    StoreReader::new(bytes).unwrap()
}

/// The five standalone sequential passes — the oracle the fused engine
/// must reproduce bit for bit.
struct Oracle {
    ati: AtiDataset,
    peak: pinpoint::trace::PeakUsage,
    breakdown: BreakdownRow,
    gantt: Vec<pinpoint::analysis::GanttRect>,
    outliers: pinpoint::analysis::OutlierReport,
}

fn oracle(t: &Trace, criteria: OutlierCriteria) -> Oracle {
    let ati = AtiDataset::from_trace(t);
    let outliers = sift(&ati, criteria);
    Oracle {
        peak: t.peak_live_bytes(),
        breakdown: BreakdownRow::from_trace("trace", t),
        gantt: gantt_rects(t, 0, t.end_time_ns()),
        outliers,
        ati,
    }
}

#[allow(clippy::type_complexity)]
fn five_fold_pipeline(
    criteria: OutlierCriteria,
    t_end: u64,
) -> (
    FusedPipeline,
    pinpoint::analysis::FoldHandle<AtiDataset>,
    pinpoint::analysis::FoldHandle<pinpoint::trace::PeakUsage>,
    pinpoint::analysis::FoldHandle<BreakdownRow>,
    pinpoint::analysis::FoldHandle<Vec<pinpoint::analysis::GanttRect>>,
    pinpoint::analysis::FoldHandle<pinpoint::analysis::OutlierReport>,
) {
    let mut pipe = FusedPipeline::new();
    let ati = pipe.register(AtiFold);
    let peak = pipe.register(PeakFold);
    let breakdown = pipe.register(BreakdownFold {
        label: "trace".to_string(),
    });
    let gantt = pipe.register(GanttFold { t_start: 0, t_end });
    let outliers = pipe.register(OutlierFold { criteria });
    (pipe, ati, peak, breakdown, gantt, outliers)
}

#[test]
fn fused_five_passes_match_standalone_on_arbitrary_traces() {
    let criteria = OutlierCriteria {
        min_ati_ns: 1 << 20,
        min_size_bytes: 1 << 24,
    };
    let mut rng = Rng64::seed_from_u64(0xf05e_d0e5);
    for case in 0..20 {
        let events = rng.gen_range_usize(0, 500);
        let chunk = rng.gen_range_usize(1, 64);
        let t = arbitrary_trace(&mut rng, events);
        let want = oracle(&t, criteria);
        let end = t.end_time_ns();
        for threads in [1, 4] {
            // in-memory fused run
            let (pipe, ati, peak, breakdown, gantt, outliers) = five_fold_pipeline(criteria, end);
            let mut out = pipe.run_trace(&t, threads);
            let tag = format!("case {case}, chunk {chunk}, threads {threads}, in-memory");
            assert_eq!(out.take(ati), want.ati, "{tag}");
            assert_eq!(out.take(peak), want.peak, "{tag}");
            assert_eq!(out.take(breakdown), want.breakdown, "{tag}");
            assert_eq!(out.take(gantt), want.gantt, "{tag}");
            assert_eq!(out.take(outliers), want.outliers, "{tag}");

            // `.ptrc` fused run
            let r = store_of(&t, chunk);
            let (pipe, ati, peak, breakdown, gantt, outliers) = five_fold_pipeline(criteria, end);
            let mut out = pipe
                .run_chunks(&r.footer().chunks, threads, r.policy(), r.fetch(threads))
                .unwrap();
            let tag = format!("case {case}, chunk {chunk}, threads {threads}, store");
            assert_eq!(out.take(ati), want.ati, "{tag}");
            assert_eq!(out.take(peak), want.peak, "{tag}");
            assert_eq!(out.take(breakdown), want.breakdown, "{tag}");
            assert_eq!(out.take(gantt), want.gantt, "{tag}");
            assert_eq!(out.take(outliers), want.outliers, "{tag}");
        }
    }
}

#[test]
fn fused_five_pass_run_decodes_each_chunk_exactly_once() {
    let mut rng = Rng64::seed_from_u64(0x0dec_0de1);
    let t = arbitrary_trace(&mut rng, 600);
    let r = store_of(&t, 32);
    let chunks = r.num_chunks();
    assert!(chunks >= 10, "need many chunks, got {chunks}");
    let criteria = OutlierCriteria {
        min_ati_ns: 1,
        min_size_bytes: 1,
    };
    let (pipe, ati, ..) = five_fold_pipeline(criteria, t.end_time_ns());
    let out = pipe
        .run_chunks(&r.footer().chunks, 4, r.policy(), r.fetch(4))
        .unwrap();
    // five consumers, one decode per chunk — not five
    assert_eq!(r.chunks_decoded(), chunks as u64);
    assert_eq!(out.stats().chunks_decoded, chunks);
    assert_eq!(out.stats().chunks_pruned, 0);
    assert_eq!(out.stats().events_scanned, t.len() as u64);
    let _ = { out }.take(ati);
}

#[test]
fn alloc_only_pipeline_prunes_chunks_but_stays_exact() {
    // only Malloc|Free folds registered -> the union predicate lets the
    // footer index skip access-only chunks, without changing any result
    let mut rng = Rng64::seed_from_u64(0x9a7e_5007);
    for case in 0..10 {
        let t = arbitrary_trace(&mut rng, 400);
        let r = store_of(&t, 16);
        let mut pipe = FusedPipeline::new();
        let peak = pipe.register(PeakFold);
        let breakdown = pipe.register(BreakdownFold {
            label: "trace".to_string(),
        });
        let mut out = pipe
            .run_chunks(&r.footer().chunks, 1, r.policy(), r.fetch(1))
            .unwrap();
        assert_eq!(out.take(peak), t.peak_live_bytes(), "case {case}");
        assert_eq!(
            out.take(breakdown),
            BreakdownRow::from_trace("trace", &t),
            "case {case}"
        );
        let stats = out.stats();
        assert_eq!(
            stats.chunks_decoded + stats.chunks_pruned,
            stats.chunks_total,
            "case {case}"
        );
        assert_eq!(r.chunks_decoded(), stats.chunks_decoded as u64);
    }
}
