//! `offline-r50`: the CLI user's path on the medium workload.
//!
//! Each rep profiles ResNet-50 into a `.ptrc` file through the streaming
//! `StoreWriter`, then opens the store and renders the fused five-fold
//! report at 1 and at 2 threads (in a seeded order). The producer layers
//! and the analysis folds do nearly all the work; the daemon does none.
//! A host-speed sample precedes every rep; timings are reported at the
//! reference host speed (see `host`).

use crate::host::HostSpeed;
use crate::pipeline::{default_criteria, medium_config, profile_to_store, report_store, Oracle};
use crate::stats::{median, sorted, tail};
use crate::util::{secs, Outcome, WorkDir};
use crate::Args;
use pinpoint::core::profile;
use pinpoint::tensor::rng::Rng64;
use std::time::Instant;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest reps in the measured window, however short it is: 12 reports,
/// so a tail with ten beyond it exists.
const MIN_REPS: usize = 6;
/// XORed into the seed to test whether the profile depends on it.
const SEED_PROBE: u64 = 0x5eed;

pub fn run(args: &Args, work: &WorkDir, host: &mut HostSpeed, out: &mut Outcome) {
    // the main thread's arena and one per thread of the 2-thread report
    crate::util::cap_malloc_arenas(3);
    let tracer = pinpoint::obs::tracer();
    let records_before = tracer.total_records();
    out.check(!tracer.enabled(), || {
        "the tracer is on in an untraced run".to_string()
    });
    let cfg = medium_config(args.seed);
    let criteria = default_criteria();

    // set-up: the in-memory trace and the oracles the store path must match
    let mut setup = Vec::new();
    let mut built = None;
    let setup_from = host.samples();
    for _ in 0..SETUP_REPS {
        host.sample(1);
        let t = Instant::now();
        let trace = profile(&cfg).expect("profile the medium workload").trace;
        let oracle = Oracle::from_trace(&trace, criteria);
        setup.push(secs(t));
        built = Some((trace, oracle));
    }
    let (trace, oracle) = built.expect("at least one set-up rep");
    let other = profile(&medium_config(args.seed ^ SEED_PROBE))
        .expect("profile with another seed")
        .trace;
    out.note("trace_varies_with_seed", other.events() != trace.events());
    drop(other);

    let path = work.path().join("medium.ptrc");
    let mut rng = Rng64::seed_from_u64(args.seed);
    let (mut prof, mut t1, mut t2) = (Vec::new(), Vec::new(), Vec::new());
    let mut bytes_per_event = 0.0;
    let reps_from = host.samples();
    let start = Instant::now();
    while prof.len() < MIN_REPS || secs(start) < args.seconds as f64 {
        host.sample(1);
        let (events, dt) = profile_to_store(&cfg, &path, |w| w);
        prof.push(dt);
        let store_bytes = std::fs::metadata(&path).expect("store written").len();
        bytes_per_event = store_bytes as f64 / events as f64;
        out.check(events == trace.len() as u64, || {
            format!("store has {events} events, the trace {}", trace.len())
        });
        let order = if rng.gen_bool() { [1, 2] } else { [2, 1] };
        let mut json = [String::new(), String::new()];
        for threads in order {
            let (report, body, dt) = report_store(&path, criteria, threads);
            let bad = oracle.mismatches(&report);
            out.check(bad.is_empty(), || {
                format!("report at {threads} thread(s) differs from the oracle in {bad:?}")
            });
            if threads == 1 { &mut t1 } else { &mut t2 }.push(dt);
            json[threads - 1] = body;
        }
        out.check(json[0] == json[1], || {
            "report JSON differs between 1 and 2 threads".to_string()
        });
        crate::util::release_freed_memory();
        if prof.len() == 1 {
            out.note("events", events);
            out.note(
                "chunks",
                pinpoint::store::StoreReader::open(&path).map_or(0, |r| r.num_chunks()),
            );
            out.note("store_bytes", store_bytes);
        }
    }
    out.check(
        !tracer.enabled() && tracer.total_records() == records_before,
        || "the untraced run recorded spans".to_string(),
    );

    // every report, at either thread count, is one wait of the CLI user
    let all: Vec<f64> = t1.iter().chain(&t2).map(|s| s * 1e3).collect();
    let lat = sorted(&all);
    let tail = tail(&lat).expect("at least 11 reports");
    out.note("reps", prof.len());
    out.note(
        "lat_definition",
        "latency of one report (open + fused report + render), 1 and 2 threads pooled; closed loop, one user",
    );
    out.note(
        "lat_p99_ms",
        format!("p{:.1} of {} reports", tail.pct, tail.n),
    );
    let setup_slowdown = host.slowdown_in(setup_from..reps_from);
    out.scaled("setup_s", median(&setup), "s", 1.0 / setup_slowdown);
    let slowdown = host.slowdown_in(reps_from..host.samples());
    let at_ref = 1.0 / slowdown;
    out.scaled("profile_s", median(&prof), "s", at_ref);
    out.scaled("report_t1_s", median(&t1), "s", at_ref);
    out.scaled("report_t2_s", median(&t2), "s", at_ref);
    out.metric("store_bytes_per_event", bytes_per_event, "B");
    out.scaled_note("lat_p50_ms", median(&all), "ms", at_ref);
    out.scaled("lat_p99_ms", tail.value, "ms", at_ref);
    out.scaled(
        "goodput_rps",
        all.len() as f64 / (all.iter().sum::<f64>() / 1e3),
        "1/s",
        slowdown,
    );
}
