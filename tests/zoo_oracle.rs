//! Differential test of the fused report against the in-memory paper
//! passes on real model-zoo traces: allocator-issued block ids, real
//! access patterns and chunk boundaries that split iterations, where the
//! synthetic `fused_engine.rs` traces use a dozen ids.

use pinpoint::analysis::{
    gantt_rects, report_json, sift, AtiDataset, BreakdownRow, OutlierCriteria, TraceReport,
};
use pinpoint::core::{profile, ProfileConfig};
use pinpoint::data::DatasetSpec;
use pinpoint::models::{Architecture, MlpConfig, ResNetDepth};
use pinpoint::store::{write_store_chunked, StoreReader};
use pinpoint::trace::Trace;

/// The zoo slice: small batches, the sweep's 2 iterations.
fn zoo() -> Vec<(&'static str, ProfileConfig)> {
    vec![
        (
            "mlp",
            ProfileConfig::breakdown_sweep(
                Architecture::Mlp(MlpConfig::default()),
                DatasetSpec::two_blobs(),
                8,
            ),
        ),
        (
            "lenet5",
            ProfileConfig::breakdown_sweep(Architecture::LeNet5, DatasetSpec::mnist(), 4),
        ),
        (
            "resnet18",
            ProfileConfig::breakdown_sweep(
                Architecture::ResNet(ResNetDepth::R18),
                DatasetSpec::cifar100(),
                2,
            ),
        ),
        (
            "mobilenet",
            ProfileConfig::breakdown_sweep(Architecture::MobileNetV1, DatasetSpec::cifar100(), 2),
        ),
    ]
}

/// Criteria that sift a non-trivial share: intervals above the median
/// on blocks above 1 KiB.
fn criteria_for(ati: &AtiDataset) -> OutlierCriteria {
    let sorted = ati.sorted_intervals_ns();
    OutlierCriteria {
        min_ati_ns: sorted[sorted.len() / 2],
        min_size_bytes: 1 << 10,
    }
}

fn assert_matches_oracles(got: &TraceReport, t: &Trace, criteria: OutlierCriteria, tag: &str) {
    let ati = AtiDataset::from_trace(t);
    assert_eq!(got.ati, ati, "{tag}: ati");
    assert_eq!(got.peak, t.peak_live_bytes(), "{tag}: peak");
    assert_eq!(
        got.breakdown,
        BreakdownRow::from_trace("trace", t),
        "{tag}: breakdown"
    );
    assert_eq!(
        got.gantt,
        gantt_rects(t, 0, t.end_time_ns()),
        "{tag}: gantt"
    );
    assert_eq!(got.outliers, sift(&ati, criteria), "{tag}: outliers");
}

#[test]
fn fused_report_matches_paper_passes_on_the_model_zoo() {
    for (name, cfg) in zoo() {
        let t = profile(&cfg).expect("profile a zoo model").trace;
        let ati = AtiDataset::from_trace(&t);
        assert!(ati.len() > 10, "{name}: only {} intervals", ati.len());
        let criteria = criteria_for(&ati);
        assert!(
            !sift(&ati, criteria).outliers.is_empty(),
            "{name}: criteria sift nothing"
        );
        let mut json = None;
        for threads in [1, 2] {
            let in_memory = TraceReport::from_trace(&t, criteria, threads);
            let tag = format!("{name}, threads {threads}, in-memory");
            assert_matches_oracles(&in_memory, &t, criteria, &tag);
            let want = json.get_or_insert_with(|| report_json(&in_memory, usize::MAX));
            for chunk in [7, 4096] {
                let mut bytes = Vec::new();
                write_store_chunked(&t, &mut bytes, chunk).expect("encode");
                let r = StoreReader::new(bytes).expect("open");
                let stored = TraceReport::from_store(&r, criteria, threads).expect("report");
                let tag = format!("{name}, threads {threads}, chunk {chunk}, store");
                assert_matches_oracles(&stored, &t, criteria, &tag);
                assert_eq!(stored.stats.events_scanned, t.len() as u64, "{tag}");
                // the stats object differs (chunk counts), the analyses not
                let body = |s: &str| s[s.find(",\"peak\"").expect("peak key")..].to_string();
                assert_eq!(body(&report_json(&stored, usize::MAX)), body(want), "{tag}");
            }
        }
    }
}
