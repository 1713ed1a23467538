//! Property tests for format v3: adaptive per-chunk column encodings,
//! finer zone maps, and the zero-alloc batched decode path.
//!
//! The invariants under test, from the hardware-fast-decode issue:
//!
//! 1. **Format equivalence** — the same trace written as v1, v2, and v3
//!    reads back bit-identically (events, labels, query results), at
//!    every thread count.
//! 2. **Adaptive encodings round-trip** — seeded random traces survive
//!    the v3 encode/decode cycle exactly, whatever mix of plain / RLE /
//!    bit-packed / delta-of-delta columns the cost rule picks.
//! 3. **v3 is smaller than v2** on realistic traces (that is the point
//!    of the adaptive encodings).
//! 4. **Op-label pushdown is sound and sharp** — label queries return
//!    exactly the brute-force filter of the trace, and on v3 stores the
//!    per-chunk label bitsets prune chunks the v2 zone maps could not.
//! 5. **Warm scans allocate nothing** — once the reader's scratch pool
//!    has grown to the largest chunk, repeating a scan leaves the
//!    realloc counter untouched.

use pinpoint::store::{
    chunk_encoding_tags, write_store_chunked, write_store_chunked_v1, write_store_chunked_v2,
    Predicate, StoreReader, TAG_DOD, TAG_RLE,
};
use pinpoint::tensor::rng::Rng64;
use pinpoint::trace::{BlockId, EventKind, MemEvent, MemoryKind, Trace};

const CHUNK_EVENTS: usize = 512;

const KINDS: [EventKind; 4] = [
    EventKind::Malloc,
    EventKind::Free,
    EventKind::Read,
    EventKind::Write,
];
const MEM_KINDS: [MemoryKind; 8] = [
    MemoryKind::Input,
    MemoryKind::Weight,
    MemoryKind::WeightGrad,
    MemoryKind::OptimizerState,
    MemoryKind::Activation,
    MemoryKind::ActivationGrad,
    MemoryKind::Workspace,
    MemoryKind::Other,
];

/// A seeded trace exercising every column regime the cost rule can meet:
/// jittered-regular and bursty timestamps, small-domain and huge values,
/// constant runs, and op labels that cluster into distinct chunks.
fn random_trace(seed: u64, n: usize) -> Trace {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut t = Trace::new();
    let labels: Vec<u32> = (0..6).map(|i| t.intern_label(&format!("op_{i}"))).collect();
    let mut time = 0u64;
    for i in 0..n {
        // regimes rotate every ~1.5 chunks so chunk contents differ
        let regime = (i / (CHUNK_EVENTS + CHUNK_EVENTS / 2)) % 4;
        time += match regime {
            0 => 100_000 + (i as u64 * 37) % 11, // jittered-regular: DOD bait
            1 => 0,                              // bursts of identical stamps: RLE bait
            2 => rng.gen_range_usize(1, 1 << 20) as u64, // noisy: plain bait
            _ => rng.gen_range_usize(1, 7) as u64, // tiny deltas: pack bait
        };
        let kind = KINDS[rng.gen_range_usize(0, KINDS.len())];
        let block = BlockId(rng.gen_range_usize(0, 64) as u64);
        let size = match regime {
            1 => 4096, // constant column
            _ => rng.gen_range_usize(1, 1 << 28),
        };
        let offset = rng.gen_range_usize(0, 1 << 30);
        let mem_kind = MEM_KINDS[rng.gen_range_usize(0, MEM_KINDS.len())];
        // labels cluster: each regime window uses one label, and only
        // some events carry it — so per-chunk label bitsets are sparse
        let op = if rng.gen_bool() {
            Some(labels[regime + seed as usize % 2])
        } else {
            None
        };
        t.record(time, kind, block, size, offset, mem_kind, op);
    }
    t
}

fn store_bytes(t: &Trace, version: u8) -> Vec<u8> {
    let mut bytes = Vec::new();
    match version {
        1 => write_store_chunked_v1(t, &mut bytes, CHUNK_EVENTS).unwrap(),
        2 => write_store_chunked_v2(t, &mut bytes, CHUNK_EVENTS).unwrap(),
        3 => write_store_chunked(t, &mut bytes, CHUNK_EVENTS).unwrap(),
        _ => unreachable!(),
    };
    assert_eq!(bytes[4], version);
    bytes
}

#[test]
fn every_format_reads_the_same_trace_and_answers_queries_identically() {
    for seed in 0..4u64 {
        let t = random_trace(seed, 3 * CHUNK_EVENTS + 100);
        let stores: Vec<Vec<u8>> = [1u8, 2, 3].iter().map(|&v| store_bytes(&t, v)).collect();
        assert!(
            stores[2].len() < stores[1].len(),
            "seed {seed}: v3 ({}) must be smaller than v2 ({})",
            stores[2].len(),
            stores[1].len()
        );

        // full event stream: bit-identical across formats
        for (v, bytes) in [1, 2, 3].iter().zip(&stores) {
            let r = StoreReader::new(bytes.clone()).unwrap();
            let back = r.read_trace().unwrap();
            assert_eq!(back.events(), t.events(), "seed {seed}: v{v} events");
            assert_eq!(back.labels(), t.labels(), "seed {seed}: v{v} labels");
        }

        // pushdown queries: same answers across formats AND thread
        // counts, and always the brute-force filter of the raw events
        let preds = [
            Predicate::any().with_time_range(t.events()[CHUNK_EVENTS].time_ns, u64::MAX),
            Predicate::any().with_kind(EventKind::Malloc),
            Predicate::any().with_min_size(1 << 20),
            Predicate::any().with_max_size(8192),
            Predicate::any().with_offset_range(0, 1 << 24),
            Predicate::any().with_op_label(0),
            Predicate::any()
                .with_op_label(1)
                .with_kind(EventKind::Write)
                .with_max_size(1 << 24),
        ];
        for (pi, pred) in preds.iter().enumerate() {
            let brute: Vec<MemEvent> = t
                .events()
                .iter()
                .filter(|e| pred.matches_event(e))
                .cloned()
                .collect();
            for (v, bytes) in [1, 2, 3].iter().zip(&stores) {
                for threads in [1, 4] {
                    let r = StoreReader::new(bytes.clone()).unwrap();
                    let q = r.query(pred, threads).unwrap();
                    assert_eq!(
                        q.events, brute,
                        "seed {seed} pred {pi} v{v} threads {threads}"
                    );
                }
            }
        }
    }
}

#[test]
fn adaptive_encodings_round_trip_and_the_cost_rule_reacts_to_the_data() {
    let t = random_trace(1, 4 * CHUNK_EVENTS);
    let bytes = store_bytes(&t, 3);
    let r = StoreReader::new(bytes).unwrap();
    let n = r.num_chunks();
    let all: Vec<usize> = (0..n).collect();
    let payloads = r.read_chunk_batch(&all).unwrap();
    let mut used = [false; 4];
    for (i, p) in payloads.iter().enumerate() {
        let tags =
            chunk_encoding_tags(p).unwrap_or_else(|e| panic!("chunk {i}: unreadable tags: {e}"));
        for (c, &tag) in tags.iter().enumerate() {
            assert!(tag <= 3, "chunk {i} column {c}: unknown tag {tag}");
            used[tag as usize] = true;
            // delta-of-delta is defined for the time column only
            assert!(tag != TAG_DOD || c == 0, "chunk {i}: DOD on column {c}");
        }
    }
    // the fixture rotates through regimes crafted to bait different
    // encoders; a cost rule that always answers "plain" is a regression
    assert!(
        used.iter().filter(|&&u| u).count() >= 3,
        "only encodings {used:?} chosen across {n} chunks"
    );
    assert_eq!(r.read_trace().unwrap().events(), t.events());
}

#[test]
fn crafted_columns_pick_the_expected_encodings() {
    // jittered-regular timestamps (large non-repeating deltas, tiny
    // second differences) must pick DOD; a constant size column must
    // pick RLE
    let mut t = Trace::new();
    for i in 0..CHUNK_EVENTS as u64 {
        t.record(
            i * 100_000 + (i * 37) % 11,
            EventKind::Write,
            BlockId(i % 5),
            4096,
            0,
            MemoryKind::Activation,
            None,
        );
    }
    let bytes = store_bytes(&t, 3);
    let r = StoreReader::new(bytes).unwrap();
    let payloads = r.read_chunk_batch(&[0]).unwrap();
    let tags = chunk_encoding_tags(&payloads[0]).unwrap();
    assert_eq!(tags[0], TAG_DOD, "time column: {tags:?}");
    assert_eq!(tags[3], TAG_RLE, "size column: {tags:?}");
}

#[test]
fn op_label_pushdown_prunes_chunks_only_v3_zone_maps_can() {
    // label "hot" appears only in the first chunk; v3's per-chunk label
    // bitsets prune every other chunk, v2's coarser maps cannot
    let mut t = Trace::new();
    let hot = t.intern_label("hot");
    let cold = t.intern_label("cold");
    for i in 0..(4 * CHUNK_EVENTS) as u64 {
        let label = if i < CHUNK_EVENTS as u64 { hot } else { cold };
        t.record(
            i * 10,
            EventKind::Read,
            BlockId(i % 16),
            1024,
            (i * 64) as usize,
            MemoryKind::Weight,
            Some(label),
        );
    }
    let brute: Vec<MemEvent> = t
        .events()
        .iter()
        .filter(|e| e.op_label == Some(hot))
        .cloned()
        .collect();
    assert_eq!(brute.len(), CHUNK_EVENTS);

    let pred = Predicate::any().with_op_label(hot);
    for threads in [1, 4] {
        let v3 = StoreReader::new(store_bytes(&t, 3)).unwrap();
        let q3 = v3.query(&pred, threads).unwrap();
        assert_eq!(q3.events, brute, "threads {threads}");
        assert_eq!(q3.stats.chunks_decoded, 1, "threads {threads}");
        assert_eq!(
            q3.stats.chunks_pruned_by_label, 3,
            "threads {threads}: v3 label bitsets must prune the cold chunks"
        );

        let v2 = StoreReader::new(store_bytes(&t, 2)).unwrap();
        let q2 = v2.query(&pred, threads).unwrap();
        assert_eq!(q2.events, brute, "threads {threads}");
        assert_eq!(
            q2.stats.chunks_pruned_by_label, 0,
            "threads {threads}: pre-v3 maps have no label bits to prune with"
        );
    }
}

#[test]
fn warm_scans_do_not_grow_the_scratch_pool() {
    let t = random_trace(7, 6 * CHUNK_EVENTS);
    let r = StoreReader::new(store_bytes(&t, 3)).unwrap();
    let pred = Predicate::any();
    for threads in [1, 2, 4] {
        // cold pass: buffers grow to the largest chunk
        let cold = r.query(&pred, threads).unwrap();
        let warmed = r.decode_reallocs();
        assert!(warmed > 0, "cold scan must have grown fresh buffers");
        // warm passes: same scan, zero further allocations
        for pass in 0..2 {
            let warm = r.query(&pred, threads).unwrap();
            assert_eq!(warm.events, cold.events);
            assert_eq!(
                r.decode_reallocs(),
                warmed,
                "threads {threads} pass {pass}: warm scan allocated"
            );
        }
    }
}
