//! The pipeline steps every workload shares: the medium profile config,
//! profiling into a `.ptrc` store, the fused report, and the in-memory
//! oracles the store path must reproduce.

use pinpoint::analysis::{
    gantt_rects, report_json, sift, AtiDataset, BreakdownRow, OutlierCriteria, TraceReport,
};
use pinpoint::core::{profile_into_sink, ProfileConfig};
use pinpoint::data::DatasetSpec;
use pinpoint::models::{Architecture, ResNetDepth};
use pinpoint::store::{StoreReader, StoreWriter};
use pinpoint::trace::{PeakUsage, Trace, TraceSink};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// `max_rects` of the rendered report: the daemon's default.
pub const MAX_RECTS: usize = 30;

/// The daemon's and CLI's default outlier criteria (800 ms, 600 MB).
pub fn default_criteria() -> OutlierCriteria {
    criteria_ms(800)
}

/// Outlier criteria with the default size floor and `min_ati_ms`,
/// converted exactly as the daemon converts its `min_ati_ms` field.
pub fn criteria_ms(min_ati_ms: u64) -> OutlierCriteria {
    OutlierCriteria {
        min_ati_ns: (min_ati_ms as f64 * 1e6) as u64,
        min_size_bytes: (600.0f64 * 1e6) as usize,
    }
}

/// A symbolic training profile of `arch` on ImageNet-sized inputs.
pub fn zoo_config(arch: Architecture, batch: usize, iterations: usize, seed: u64) -> ProfileConfig {
    let mut cfg = ProfileConfig::breakdown_sweep(arch, DatasetSpec::imagenet(), batch);
    cfg.iterations = iterations;
    cfg.seed = seed;
    cfg
}

/// The medium workload: ResNet-50 / ImageNet / batch 32 / 40 iterations
/// (about 157k events in 39 chunks).
pub fn medium_config(seed: u64) -> ProfileConfig {
    zoo_config(Architecture::ResNet(ResNetDepth::R50), 32, 40, seed)
}

/// Profiles `cfg` into a `.ptrc` store at `path` through `wrap` (which
/// may interpose on the writer). Returns (events, wall seconds).
pub fn profile_to_store(
    cfg: &ProfileConfig,
    path: &Path,
    wrap: impl FnOnce(Box<dyn TraceSink + Send>) -> Box<dyn TraceSink + Send>,
) -> (u64, f64) {
    let t = Instant::now();
    let writer = StoreWriter::create(path).expect("create store in the work directory");
    let run = profile_into_sink(cfg, wrap(Box::new(writer))).expect("profile the workload");
    (run.events_recorded, crate::util::secs(t))
}

/// Opens the store, runs the fused five-fold report at `threads` and
/// renders it: what `report --json` does. Returns (report, JSON, seconds).
pub fn report_store(
    path: &Path,
    criteria: OutlierCriteria,
    threads: usize,
) -> (TraceReport, String, f64) {
    let t = Instant::now();
    let mut reader = StoreReader::open(path).expect("open the store just written");
    let report = TraceReport::from_store(&mut reader, criteria, threads).expect("fused report");
    let json = report_json(&report, MAX_RECTS);
    let dt = crate::util::secs(t);
    (black_box(report), black_box(json), dt)
}

/// The paper's standalone in-memory passes over a trace: the reference
/// the fused store path must equal field for field.
#[derive(Debug)]
pub struct Oracle {
    pub ati: AtiDataset,
    pub peak: PeakUsage,
    pub breakdown: BreakdownRow,
    pub gantt: Vec<pinpoint::analysis::GanttRect>,
    pub outliers: pinpoint::analysis::OutlierReport,
}

impl Oracle {
    pub fn from_trace(t: &Trace, criteria: OutlierCriteria) -> Self {
        let ati = AtiDataset::from_trace(t);
        Oracle {
            outliers: sift(&ati, criteria),
            peak: t.peak_live_bytes(),
            breakdown: BreakdownRow::from_trace("trace", t),
            gantt: gantt_rects(t, 0, t.end_time_ns()),
            ati,
        }
    }

    /// The names of the report fields that differ from the oracle.
    pub fn mismatches(&self, r: &TraceReport) -> Vec<&'static str> {
        let mut bad = Vec::new();
        if r.ati != self.ati {
            bad.push("ati");
        }
        if r.peak != self.peak {
            bad.push("peak");
        }
        if r.breakdown != self.breakdown {
            bad.push("breakdown");
        }
        if r.gantt != self.gantt {
            bad.push("gantt");
        }
        if r.outliers != self.outliers {
            bad.push("outliers");
        }
        bad
    }
}
