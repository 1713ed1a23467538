//! Per-layer probes of the traced run, on the medium workload.
//!
//! Each layer is timed from outside, by calling its public entry point
//! with the benchmark's own clocks and counters around it: the model
//! compiler and executor (`nn`, `device`), the streaming store writer
//! behind a forwarding `TraceSink`, the positional store reader, each
//! analysis fold alone over pre-decoded batches, and the fused report.
//! The program's own spans (`store.*`, `engine.*`) are read from the
//! global tracer, switched on only for the traced reports, and the same
//! reports untraced give the tracing overhead. Every workload's traced
//! run calls this first, before any daemon switches the tracer on.

use crate::pipeline::{default_criteria, medium_config, profile_to_store, report_store, MAX_RECTS};
use crate::stats::median;
use crate::util::{Outcome, WorkDir};
use crate::Args;
use pinpoint::analysis::{
    report_json, AtiFold, BreakdownFold, EventFold, FusedPipeline, GanttFold, OutlierFold,
    PeakFold, TraceReport,
};
use pinpoint::core::ProfileConfig;
use pinpoint::device::SimDevice;
use pinpoint::models::{build_training_program, ImageDims};
use pinpoint::nn::exec::Executor;
use pinpoint::store::{ColumnBatch, DecodeScratch, ReadPolicy, SharedStoreReader};
use pinpoint::trace::{MemEvent, TraceSink};
use std::collections::HashMap;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Repetitions behind each probe median.
const REPS: usize = 5;
/// Executor iterations timed by the `nn.iteration_ms` probe.
const ITERATIONS: usize = 10;

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

pub fn run(args: &Args, work: &WorkDir, out: &mut Outcome) {
    let cfg = medium_config(args.seed);
    nn_and_device(&cfg, out);
    let path = work.path().join("probe.ptrc");
    store_writer(&cfg, &path, out);
    let reader = SharedStoreReader::open(&path).expect("open the probe store");
    store_reader(&path, &reader, out);
    analysis(&reader, out);
    spans_and_overhead(&path, out);
}

/// A sink that only counts: the executor's cost without a store behind it.
#[derive(Default)]
struct CountingSink {
    labels: HashMap<String, u32>,
    events: u64,
}

impl TraceSink for CountingSink {
    fn intern_label(&mut self, label: &str) -> u32 {
        let next = self.labels.len() as u32;
        *self.labels.entry(label.to_string()).or_insert(next)
    }
    fn record_event(&mut self, event: MemEvent) {
        black_box(event);
        self.events += 1;
    }
    fn record_marker(&mut self, _time_ns: u64, _label: &str) {}
    fn event_count(&self) -> u64 {
        self.events
    }
}

fn nn_and_device(cfg: &ProfileConfig, out: &mut Outcome) {
    let dims = ImageDims {
        channels: cfg.dataset.channels,
        height: cfg.dataset.height,
        width: cfg.dataset.width,
    };
    let compile = || {
        build_training_program(
            &cfg.arch,
            cfg.batch,
            dims,
            cfg.dataset.classes,
            cfg.optimizer,
        )
    };
    let mut compile_ms = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        black_box(compile());
        compile_ms.push(ms(t));
    }
    let device = SimDevice::with_sink(cfg.device.clone(), Box::new(CountingSink::default()));
    let mut exec =
        Executor::with_seed(compile(), device, cfg.mode, cfg.seed).expect("executor set-up");
    let before = exec.device_mut().events_recorded();
    let mut iter_ms = Vec::new();
    for _ in 0..ITERATIONS {
        let t = Instant::now();
        exec.run_iteration(None).expect("symbolic iteration");
        iter_ms.push(ms(t));
    }
    let events = exec.device_mut().events_recorded() - before;
    out.metric("nn.compile_ms", median(&compile_ms), "ms");
    out.metric("nn.iteration_ms", median(&iter_ms), "ms");
    out.metric(
        "device.events_per_iteration",
        events as f64 / ITERATIONS as f64,
        "count",
    );
}

/// Time spent inside the wrapped writer, shared with the probe.
#[derive(Default)]
struct SinkClock {
    push_ns: AtomicU64,
    events: AtomicU64,
    finish_ns: AtomicU64,
}

/// Forwards every call to the store writer, timing event pushes (chunk
/// encoding and flushing happen inside them) and the final `finish`.
struct TimedSink {
    inner: Box<dyn TraceSink + Send>,
    clock: Arc<SinkClock>,
}

impl TraceSink for TimedSink {
    fn intern_label(&mut self, label: &str) -> u32 {
        self.inner.intern_label(label)
    }
    fn record_event(&mut self, event: MemEvent) {
        let t = Instant::now();
        self.inner.record_event(event);
        let ns = t.elapsed().as_nanos() as u64;
        self.clock.push_ns.fetch_add(ns, Ordering::Relaxed);
        self.clock.events.fetch_add(1, Ordering::Relaxed);
    }
    fn record_marker(&mut self, time_ns: u64, label: &str) {
        self.inner.record_marker(time_ns, label);
    }
    fn event_count(&self) -> u64 {
        self.inner.event_count()
    }
    fn finish(&mut self) -> io::Result<()> {
        let t = Instant::now();
        let res = self.inner.finish();
        self.clock
            .finish_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        res
    }
}

fn store_writer(cfg: &ProfileConfig, path: &Path, out: &mut Outcome) {
    let (mut push, mut finish) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let clock = Arc::new(SinkClock::default());
        let c = Arc::clone(&clock);
        profile_to_store(cfg, path, move |w| {
            Box::new(TimedSink { inner: w, clock: c })
        });
        let events = clock.events.load(Ordering::Relaxed).max(1);
        push.push(clock.push_ns.load(Ordering::Relaxed) as f64 / events as f64);
        finish.push(clock.finish_ns.load(Ordering::Relaxed) as f64 / 1e6);
    }
    let reader = SharedStoreReader::open(path).expect("open the probe store");
    out.metric("store.write.push_ns_per_event", median(&push), "ns");
    out.metric("store.write.finish_ms", median(&finish), "ms");
    out.metric("store.write.bytes", reader.file_len() as f64, "B");
    out.metric("store.write.chunks", reader.num_chunks() as f64, "count");
}

fn store_reader(path: &Path, reader: &SharedStoreReader, out: &mut Outcome) {
    let mut open = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        black_box(SharedStoreReader::open(path).expect("open the probe store"));
        open.push(ms(t));
    }
    let mut scratch = DecodeScratch::new();
    let mut decode = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        for i in 0..reader.num_chunks() {
            reader
                .decode_chunk_into(i, &mut scratch)
                .expect("decode an intact chunk");
            black_box(scratch.batch().len());
        }
        decode.push(ms(t));
    }
    let decode_ms = median(&decode);
    out.metric("store.read.open_ms", median(&open), "ms");
    out.metric("store.read.decode_ms", decode_ms, "ms");
    out.metric(
        "store.read.decode_ns_per_event",
        decode_ms * 1e6 / reader.total_events() as f64,
        "ns",
    );
}

/// Median milliseconds of `pipe` over the pre-decoded batches.
fn time_folds(
    pipe: &FusedPipeline,
    reader: &SharedStoreReader,
    batches: &[Arc<ColumnBatch>],
) -> f64 {
    let mut t_ms = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        let res = pipe.run_chunks(&reader.footer().chunks, 1, ReadPolicy::Strict, |i, _| {
            Ok(Arc::clone(&batches[i]))
        });
        black_box(res.expect("fold over intact batches"));
        t_ms.push(ms(t));
    }
    median(&t_ms)
}

fn one_fold<F: EventFold + 'static>(fold: F) -> FusedPipeline {
    let mut pipe = FusedPipeline::new();
    pipe.register(fold);
    pipe
}

fn analysis(reader: &SharedStoreReader, out: &mut Outcome) {
    let batches: Vec<Arc<ColumnBatch>> = (0..reader.num_chunks())
        .map(|i| Arc::new(reader.decode_chunk(i).expect("decode an intact chunk")))
        .collect();
    let criteria = default_criteria();
    let folds = [
        ("analysis.fold.ati_ms", one_fold(AtiFold)),
        ("analysis.fold.peak_ms", one_fold(PeakFold)),
        (
            "analysis.fold.breakdown_ms",
            one_fold(BreakdownFold {
                label: "trace".to_string(),
            }),
        ),
        (
            "analysis.fold.gantt_ms",
            one_fold(GanttFold {
                t_start: 0,
                t_end: u64::MAX,
            }),
        ),
        (
            "analysis.fold.outliers_ms",
            one_fold(OutlierFold { criteria }),
        ),
    ];
    for (name, pipe) in &folds {
        out.metric(name, time_folds(pipe, reader, &batches), "ms");
    }
    let mut report = None;
    for threads in [1, 2] {
        let mut t_ms = Vec::new();
        for _ in 0..REPS {
            let t = Instant::now();
            let r = TraceReport::from_chunks(
                &reader.footer().chunks,
                criteria,
                threads,
                ReadPolicy::Strict,
                |i, _| Ok(Arc::clone(&batches[i])),
            )
            .expect("fused report over intact batches");
            t_ms.push(ms(t));
            report = Some(black_box(r));
        }
        let name = format!("analysis.fused_t{threads}_ms");
        out.metric(&name, median(&t_ms), "ms");
    }
    let report = report.expect("at least one fused run");
    let mut render = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        black_box(report_json(&report, MAX_RECTS));
        render.push(ms(t));
    }
    out.metric("analysis.render_ms", median(&render), "ms");
    out.metric("analysis.intervals", report.ati.len() as f64, "count");
}

/// The program's own `store.*` and `engine.*` spans over traced reports,
/// per report, and the tracing overhead against the same reports
/// untraced.
fn spans_and_overhead(path: &Path, out: &mut Outcome) {
    let tracer = pinpoint::obs::tracer();
    let criteria = default_criteria();
    let time_reports = || -> Vec<f64> {
        (0..REPS)
            .map(|_| report_store(path, criteria, 1).2)
            .collect()
    };
    out.check(!tracer.enabled(), || {
        "the tracer was on before the traced probe".to_string()
    });
    let untraced = median(&time_reports());
    tracer.clear();
    tracer.set_enabled(true);
    let traced = median(&time_reports());
    tracer.set_enabled(false);
    let totals = tracer.snapshot().totals_by_name();
    tracer.clear();
    let per_report_ms = |span: &str| {
        totals
            .iter()
            .find(|(n, _, _)| *n == span)
            .map_or(0.0, |&(_, _, ns)| ns as f64 / 1e6 / REPS as f64)
    };
    for span in [
        "store.crc",
        "store.decode",
        "engine.fold",
        "engine.merge",
        "engine.finish",
    ] {
        out.metric(&format!("span.{span}_ms"), per_report_ms(span), "ms");
    }
    out.metric("obs.overhead_frac", traced / untraced - 1.0, "fraction");
}
