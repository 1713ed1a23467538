//! `serve-scan` and `serve-hot`: open-loop traffic against an in-process
//! `pinpoint-serve` daemon over a catalog of five zoo stores.
//!
//! - `serve-scan`: every request has parameters no earlier request had,
//!   so each misses the result cache and is folded (reports) or scanned
//!   (queries) through a chunk cache holding about half the catalog's
//!   decoded bytes. Store decode, the analysis folds and cache churn sit
//!   on the blocking path; queries queue behind reports.
//! - `serve-hot`: a skewed choice among 32 (store, params) keys warmed
//!   during set-up, a quarter of them conditional (`If-None-Match`, 304).
//!   Only HTTP, keep-alive and result-cache reads do work.
//!
//! The daemon keeps its tracer on for its whole life, so serve numbers
//! include its always-on spans. Each request is timed from when it was
//! due. Every 200 body is compared, by hash, with the answer
//! `report_json`/`query_json` give offline for the same store and params;
//! every 304 must be empty and carry the ETag seen at warm-up. Host-speed
//! samples are taken while the daemon is idle (between set-ups, offline
//! reps and traffic phases); timings are reported at the reference host
//! speed (see `host`).

use crate::client::{Conn, Response};
use crate::host::HostSpeed;
use crate::pipeline::{
    criteria_ms, default_criteria, medium_config, profile_to_store, report_store, zoo_config,
    MAX_RECTS,
};
use crate::sched::{LagLog, Schedule};
use crate::stats::{median, sorted, tail};
use crate::util::{fnv, secs, Outcome, WorkDir};
use crate::Args;
use pinpoint::analysis::{query_json, report_json, sift, TraceReport};
use pinpoint::core::ProfileConfig;
use pinpoint::models::{Architecture, DenseNetDepth};
use pinpoint::serve::{start, ServeConfig, ServerHandle};
use pinpoint::store::{Predicate, SharedStoreReader};
use pinpoint::tensor::rng::Rng64;
use pinpoint::trace::EventKind;
use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Which traffic the daemon gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Scan,
    Hot,
}

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Daemon worker threads.
const WORKERS: usize = 2;
/// Result-cache budget: far above what either mix inserts.
const RESULT_CACHE_BYTES: u64 = 256 << 20;
/// Keys of the hot mix.
const HOT_KEYS: usize = 32;
/// Shares of the measured window: the offline path on the medium
/// workload before the daemon starts, then traffic at the nominal rate;
/// the rest searches for the goodput.
const MEDIUM_SHARE: f64 = 0.3;
const NOMINAL_SHARE: f64 = 0.35;
/// Offered rate of the serve probe on the offline workload's traced run:
/// well below what one medium store's reports can sustain.
const PROBE_RPS: f64 = 20.0;
/// Longest window of that probe, in seconds.
const PROBE_SECONDS: u64 = 5;
/// Goodput search steps.
const SEARCH_STEPS: usize = 6;
/// Host-speed samples before each traffic phase.
const PHASE_SAMPLES: usize = 2;

/// Per-mix constants, chosen from measurements on a 2-vCPU machine. The
/// nominal rate is a quarter to a sixth of the goodput: under more load,
/// serve-scan queries queue behind reports and the nominal latencies grow
/// faster than the host slows, while a rate too low to keep the CPUs busy
/// times the wake-ups of idle virtual CPUs instead of the daemon. The
/// tail limit sits well above the nominal tail; the search span reaches
/// well above the goodput.
struct MixSpec {
    nominal_rps: f64,
    limit_ms: f64,
    /// The goodput search bisects between the nominal rate and this many
    /// times it (or this many times less, if the nominal rate failed).
    span: f64,
}

fn spec(mix: Mix) -> MixSpec {
    match mix {
        Mix::Scan => MixSpec {
            nominal_rps: 40.0,
            limit_ms: 400.0,
            span: 16.0,
        },
        Mix::Hot => MixSpec {
            nominal_rps: 5000.0,
            limit_ms: 20.0,
            span: 16.0,
        },
    }
}

/// The catalog: five zoo stores of different shape.
fn catalog(seed: u64) -> Vec<(&'static str, ProfileConfig)> {
    vec![
        ("resnet50", medium_config(seed)),
        (
            "densenet121",
            zoo_config(Architecture::DenseNet(DenseNetDepth::D121), 16, 6, seed),
        ),
        (
            "inception",
            zoo_config(Architecture::Inception, 32, 12, seed),
        ),
        (
            "mobilenet",
            zoo_config(Architecture::MobileNetV1, 32, 12, seed),
        ),
        ("alexnet", zoo_config(Architecture::AlexNet, 64, 40, seed)),
    ]
}

/// One catalog store and its offline answers.
struct Store {
    name: &'static str,
    reader: SharedStoreReader,
    /// The fused report at the default criteria, computed offline.
    base: TraceReport,
    span_us: u64,
    labels: u32,
}

impl Store {
    fn report_hash(&self, min_ati_ms: u64) -> u64 {
        let mut r = self.base.clone();
        r.outliers = sift(&r.ati, criteria_ms(min_ati_ms));
        fnv(report_json(&r, MAX_RECTS).as_bytes())
    }

    fn query_hash(&self, pred: &Predicate, max: usize) -> u64 {
        let q = self.reader.query(pred, 1).expect("offline query");
        fnv(query_json(&q, max).as_bytes())
    }
}

/// What a request asks, so its offline answer can be recomputed.
#[derive(Debug, Clone)]
enum Ask {
    Report {
        min_ati_ms: u64,
    },
    Query {
        t0_us: u64,
        t1_us: u64,
        kind: Option<EventKind>,
        op_label: Option<u32>,
        max: usize,
    },
}

fn kind_name(k: EventKind) -> &'static str {
    match k {
        EventKind::Malloc => "malloc",
        EventKind::Free => "free",
        EventKind::Read => "read",
        EventKind::Write => "write",
    }
}

impl Ask {
    /// The JSON body the daemon parses back into this request.
    fn body(&self) -> String {
        match *self {
            Ask::Report { min_ati_ms } => {
                format!("{{\"min_ati_ms\":{min_ati_ms},\"max\":{MAX_RECTS}}}")
            }
            Ask::Query {
                t0_us,
                t1_us,
                kind,
                op_label,
                max,
            } => {
                let mut b = format!("{{\"t0_us\":{t0_us},\"t1_us\":{t1_us}");
                if let Some(k) = kind {
                    b.push_str(&format!(",\"kind\":\"{}\"", kind_name(k)));
                }
                if let Some(l) = op_label {
                    b.push_str(&format!(",\"op_label\":{l}"));
                }
                b.push_str(&format!(",\"max\":{max}}}"));
                b
            }
        }
    }

    /// The predicate the daemon builds from the body, field by field.
    fn predicate(&self) -> Predicate {
        let Ask::Query {
            t0_us,
            t1_us,
            kind,
            op_label,
            ..
        } = *self
        else {
            return Predicate::any();
        };
        let mut pred = Predicate::any().with_time_range(t0_us * 1000, t1_us * 1000);
        if let Some(k) = kind {
            pred = pred.with_kind(k);
        }
        if let Some(l) = op_label {
            pred = pred.with_op_label(l);
        }
        pred
    }
}

/// One distinct request and the response it must get.
#[derive(Debug, Clone)]
struct Req {
    store: usize,
    ask: Ask,
    body: String,
    /// Expected body hash and ETag, when known before sending (hot keys,
    /// from warm-up); otherwise the offline answer is computed after.
    want: Option<(u64, String)>,
}

impl Req {
    fn path(&self, stores: &[Store]) -> String {
        let kind = match self.ask {
            Ask::Report { .. } => "report",
            Ask::Query { .. } => "query",
        };
        format!("/stores/{}/{kind}", stores[self.store].name)
    }
}

/// A seeded request with parameters drawn for `store`.
fn draw(rng: &mut Rng64, stores: &[Store], store: usize, report: bool) -> Req {
    let s = &stores[store];
    let ask = if report {
        Ask::Report {
            min_ati_ms: 1 + rng.gen_below(100_000),
        }
    } else {
        // a fixed share of the store's time span, so the seed moves where
        // a query looks but not how much it decodes
        let width = s.span_us / 5 + 1;
        let t0_us = rng.gen_below(s.span_us.saturating_sub(width).max(1));
        let (kind, op_label) = match rng.gen_below(3) {
            0 => (None, None),
            1 => {
                let kinds = [
                    EventKind::Malloc,
                    EventKind::Free,
                    EventKind::Read,
                    EventKind::Write,
                ];
                (Some(kinds[rng.gen_below(4) as usize]), None)
            }
            _ => (None, Some(rng.gen_below(s.labels.max(1) as u64) as u32)),
        };
        Ask::Query {
            t0_us,
            t1_us: t0_us + width,
            kind,
            op_label,
            max: 1 + rng.gen_below(50) as usize,
        }
    };
    Req {
        store,
        body: ask.body(),
        ask,
        want: None,
    }
}

/// One scheduled send: which request, and whether it is conditional
/// (`If-None-Match` with the warmed ETag, expecting a 304).
#[derive(Debug, Clone, Copy)]
struct Send {
    req: usize,
    conditional: bool,
}

/// The request stream of a run, drawn in order from the seed.
struct Traffic {
    mix: Mix,
    rng: Rng64,
    seen: HashSet<String>,
    /// Stratified order of the scan mix: each block of 25 requests holds
    /// one report per store and four queries per store, and every run of
    /// five requests one report and four queries. The seed shuffles which
    /// stores they go to and their parameters, but never the mix's
    /// proportions nor how closely reports follow each other, which sets
    /// how long queries wait behind them.
    block: Vec<(usize, bool)>,
    /// Cumulative Zipf weights over the hot keys.
    cdf: Vec<f64>,
}

impl Traffic {
    fn new(mix: Mix, seed: u64, keys: usize) -> Self {
        let weights: Vec<f64> = (1..=keys).map(|i| 1.0 / i as f64).collect();
        let total: f64 = weights.iter().sum();
        let cdf = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        Traffic {
            mix,
            rng: Rng64::seed_from_u64(seed ^ 0x7EA_FF1C),
            seen: HashSet::new(),
            block: Vec::new(),
            cdf,
        }
    }

    /// Fisher-Yates, from the traffic's seed.
    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.rng.gen_below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }

    /// The next send. The scan mix appends a request never sent before to
    /// `reqs`; the hot mix picks one of the warmed keys already there.
    fn next(&mut self, stores: &[Store], reqs: &mut Vec<Req>) -> Send {
        match self.mix {
            Mix::Scan => {
                if self.block.is_empty() {
                    let mut reports: Vec<usize> = (0..stores.len()).collect();
                    let mut queries: Vec<usize> = (0..stores.len())
                        .flat_map(|s| std::iter::repeat_n(s, 4))
                        .collect();
                    self.shuffle(&mut reports);
                    self.shuffle(&mut queries);
                    for (r, q) in reports.iter().zip(queries.chunks(4)) {
                        self.block.push((*r, true));
                        self.block.extend(q.iter().map(|&s| (s, false)));
                    }
                }
                let (store, report) = self.block.pop().expect("refilled above");
                loop {
                    let req = draw(&mut self.rng, stores, store, report);
                    if self.seen.insert(format!("{}|{}", req.store, req.body)) {
                        reqs.push(req);
                        return Send {
                            req: reqs.len() - 1,
                            conditional: false,
                        };
                    }
                }
            }
            Mix::Hot => {
                let u = self.rng.gen_f64();
                let req = self
                    .cdf
                    .iter()
                    .position(|&c| u < c)
                    .unwrap_or(self.cdf.len() - 1);
                Send {
                    req,
                    conditional: self.rng.gen_below(4) == 0,
                }
            }
        }
    }
}

/// `X-Pinpoint-Timing` stages, in milliseconds.
const STAGES: [&str; 5] = ["parse", "lookup", "fold", "render", "total"];

fn stages(resp: &Response) -> [f64; 5] {
    let mut out = [0.0; 5];
    for part in resp.header("x-pinpoint-timing").unwrap_or("").split(',') {
        if let Some((label, dur)) = part.trim().split_once(";dur=") {
            if let (Some(i), Ok(ms)) = (STAGES.iter().position(|s| *s == label), dur.parse::<f64>())
            {
                out[i] += ms;
            }
        }
    }
    out
}

/// What came back for one send, kept small: a run holds tens of
/// thousands and they count toward the peak resident set.
#[derive(Debug)]
struct Got {
    status: u16,
    body_hash: u64,
    body_len: usize,
    etag_hash: u64,
    stages: [f64; 5],
}

/// One send's outcome, on the phase clock.
#[derive(Debug)]
struct Sample {
    send: Send,
    due_ns: u64,
    sent_ns: u64,
    done_ns: u64,
    got: Result<Got, String>,
}

fn post(
    conn: &mut Conn,
    req: &Req,
    conditional: bool,
    stores: &[Store],
) -> Result<Response, String> {
    let extra = match (&req.want, conditional) {
        (Some((_, tag)), true) => format!("If-None-Match: {tag}\r\n"),
        _ => String::new(),
    };
    conn.post(&req.path(stores), &req.body, &extra)
        .map_err(|e| format!("I/O error: {e}"))
}

impl Got {
    fn of(r: &Response) -> Self {
        Got {
            status: r.status,
            body_hash: fnv(&r.body),
            body_len: r.body.len(),
            etag_hash: r.header("etag").map_or(0, |t| fnv(t.as_bytes())),
            stages: stages(r),
        }
    }
}

/// Offers `sends` at `rate` over the kept-alive connections, one client
/// thread per connection. A thread takes the next send when it is free,
/// waits until that send is due, and sends it: when every connection is
/// busy, requests leave late and the lag shows.
fn phase(
    conns: &mut [Conn],
    stores: &[Store],
    reqs: &[Req],
    sends: &[Send],
    rate: f64,
) -> Vec<Sample> {
    let sched = Schedule::new(rate);
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(sends.len()));
    let start = Instant::now() + Duration::from_millis(2);
    std::thread::scope(|scope| {
        for conn in conns.iter_mut() {
            let (next, samples) = (&next, &samples);
            scope.spawn(move || {
                let mut mine = Vec::with_capacity(sends.len());
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&send) = sends.get(i) else { break };
                    let due_ns = sched.due_ns(i as u64);
                    let due = start + Duration::from_nanos(due_ns);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let sent_ns = start.elapsed().as_nanos() as u64;
                    let resp = post(conn, &reqs[send.req], send.conditional, stores);
                    // the response is complete here; hashing it is not
                    // part of its latency
                    let done_ns = start.elapsed().as_nanos() as u64;
                    mine.push(Sample {
                        send,
                        due_ns,
                        sent_ns,
                        done_ns,
                        got: resp.as_ref().map(Got::of).map_err(String::clone),
                    });
                }
                samples
                    .lock()
                    .expect("no client thread panics")
                    .extend(mine);
            });
        }
    });
    let mut v = samples.into_inner().expect("no client thread panics");
    v.sort_by_key(|s| s.due_ns);
    v
}

/// A phase's figures.
struct PhaseStats {
    rate: f64,
    lat_ms: Vec<f64>,
    lag: LagLog,
    failed: usize,
    /// Requests sent per second, over the span of the sends.
    sent_rps: f64,
    /// Requests completed per second, until the last completion.
    achieved_rps: f64,
}

impl PhaseStats {
    fn of(samples: &[Sample], rate: f64, failed: usize) -> Self {
        let mut lag = LagLog::default();
        for s in samples {
            lag.record(s.due_ns, s.sent_ns);
        }
        let end = samples.iter().map(|s| s.done_ns).max().unwrap_or(1).max(1);
        let n = samples.len() as f64;
        // the last send opens one more interval of the schedule
        let last_sent = samples.iter().map(|s| s.sent_ns).max().unwrap_or(0) as f64;
        PhaseStats {
            rate,
            lat_ms: samples
                .iter()
                .map(|s| s.done_ns.saturating_sub(s.due_ns) as f64 / 1e6)
                .collect(),
            lag,
            failed,
            sent_rps: n * 1e9 / (last_sent + 1e9 / rate),
            achieved_rps: n * 1e9 / end as f64,
        }
    }

    /// Meets the latency limit with no failures and no growing backlog.
    fn passes(&self, limit_ms: f64) -> bool {
        let t = tail(&sorted(&self.lat_ms));
        self.failed == 0
            && t.is_some_and(|t| t.value <= limit_ms)
            && !self.lag.growing(limit_ms / 4.0)
    }

    fn describe(&self, limit_ms: f64) -> String {
        let t = tail(&sorted(&self.lat_ms));
        format!(
            "{:.1}/s {} (p{:.1} {:.2} ms of {}, {} failed, lag {})",
            self.rate,
            if self.passes(limit_ms) {
                "pass"
            } else {
                "FAIL"
            },
            t.map_or(0.0, |t| t.pct),
            t.map_or(f64::NAN, |t| t.value),
            self.lat_ms.len(),
            self.failed,
            if self.lag.growing(limit_ms / 4.0) {
                "growing"
            } else {
                "bounded"
            },
        )
    }
}

/// A running daemon over a freshly profiled catalog.
struct Fixture {
    stores: Vec<Store>,
    handle: ServerHandle,
    /// The hot mix's warmed keys, with their expected hashes and ETags.
    keys: Vec<Req>,
    /// Server stage times summed over every store request sent so far,
    /// and how many requests that is.
    stage_ms: [f64; 5],
    stage_n: u64,
}

impl Fixture {
    fn add_stages(&mut self, st: &[f64; 5]) {
        for (sum, ms) in self.stage_ms.iter_mut().zip(st) {
            *sum += ms;
        }
        self.stage_n += 1;
    }
}

/// Profiles the catalog, computes the offline answers, starts the daemon
/// and warms it.
fn setup(
    mix: Mix,
    specs: &[(&'static str, ProfileConfig)],
    seed: u64,
    dir: &Path,
    out: &mut Outcome,
    notes: bool,
) -> (Fixture, f64) {
    let t = Instant::now();
    let criteria = default_criteria();
    let (mut events, mut bytes, mut decoded) = (0u64, 0u64, 0u64);
    let mut stores = Vec::new();
    for (name, cfg) in specs {
        let path = dir.join(format!("{name}.ptrc"));
        let (n, _) = profile_to_store(cfg, &path, |w| w);
        let (base, _, _) = report_store(&path, criteria, 1);
        let reader = SharedStoreReader::open(&path).expect("open a catalog store");
        let store_decoded: u64 = (0..reader.num_chunks())
            .map(|c| {
                reader
                    .decode_chunk(c)
                    .expect("decode an intact chunk")
                    .heap_bytes() as u64
            })
            .sum();
        if notes {
            out.note(
                &format!("store.{name}"),
                format!(
                    "{n} events, {} chunks, {} B on disk, {store_decoded} B decoded",
                    reader.num_chunks(),
                    reader.file_len()
                ),
            );
        }
        (events, bytes, decoded) = (
            events + n,
            bytes + reader.file_len(),
            decoded + store_decoded,
        );
        let span_us = reader
            .footer()
            .chunks
            .iter()
            .map(|c| c.max_time_ns)
            .max()
            .unwrap_or(0)
            / 1000;
        let labels = reader.footer().labels.len() as u32;
        stores.push(Store {
            name,
            reader,
            base,
            span_us,
            labels,
        });
    }
    let cache_bytes = decoded / 2;
    if notes {
        out.note("catalog_events", events);
        out.note("catalog_store_bytes", bytes);
        out.note(
            "catalog_decoded_bytes",
            format!(
                "{decoded} (chunk cache budget {cache_bytes}, result cache budget {RESULT_CACHE_BYTES})"
            ),
        );
    }
    let handle = start(ServeConfig {
        catalog_dir: dir.to_path_buf(),
        workers: WORKERS,
        cache_bytes,
        result_cache_bytes: RESULT_CACHE_BYTES,
        ..ServeConfig::default()
    })
    .expect("start the daemon");
    let mut fixture = Fixture {
        stores,
        handle,
        keys: Vec::new(),
        stage_ms: [0.0; 5],
        stage_n: 0,
    };
    warm(mix, seed, &mut fixture, out);
    (fixture, secs(t))
}

/// Opens every store in the daemon; for the hot mix, also computes the
/// offline answer of each key and sends the key once, so every later
/// request of the run is a result-cache hit.
fn warm(mix: Mix, seed: u64, f: &mut Fixture, out: &mut Outcome) {
    let mut conn = Conn::new(f.handle.addr());
    for s in &f.stores {
        let ok = conn.get(&format!("/stores/{}/info", s.name));
        out.check(ok.as_ref().is_ok_and(|r| r.status == 200), || {
            format!("{}: info failed at warm-up", s.name)
        });
    }
    if mix == Mix::Hot {
        let mut rng = Rng64::seed_from_u64(seed ^ 0x4E7);
        let mut seen = HashSet::new();
        while f.keys.len() < HOT_KEYS {
            let store = f.keys.len() % f.stores.len();
            let report = (f.keys.len() / f.stores.len()).is_multiple_of(4);
            let mut req = draw(&mut rng, &f.stores, store, report);
            if !seen.insert(format!("{}|{}", req.store, req.body)) {
                continue;
            }
            let want = expected(&f.stores, &req);
            let resp = conn.post(&req.path(&f.stores), &req.body, "");
            let etag = match &resp {
                Ok(r) if r.status == 200 && fnv(&r.body) == want => {
                    f.add_stages(&stages(r));
                    r.header("etag").map(str::to_string)
                }
                _ => None,
            };
            out.check(etag.is_some(), || {
                format!("warm-up of {} {} failed", req.path(&f.stores), req.body)
            });
            req.want = Some((want, etag.unwrap_or_default()));
            f.keys.push(req);
        }
    }
}

/// The offline answer's hash for `req`.
fn expected(stores: &[Store], req: &Req) -> u64 {
    let s = &stores[req.store];
    match &req.ask {
        Ask::Report { min_ati_ms } => s.report_hash(*min_ati_ms),
        Ask::Query { max, .. } => s.query_hash(&req.ask.predicate(), *max),
    }
}

/// Checks every sample against its expected response; returns how many
/// failed.
fn verify(samples: &[Sample], reqs: &[Req], stores: &[Store], out: &mut Outcome) -> usize {
    let mut failed = 0;
    for s in samples {
        let req = &reqs[s.send.req];
        let verdict = s.got.as_ref().map_err(String::clone).and_then(|g| {
            let ok = match (&req.want, s.send.conditional) {
                (Some((_, tag)), true) => {
                    g.status == 304 && g.body_len == 0 && g.etag_hash == fnv(tag.as_bytes())
                }
                (Some((hash, tag)), false) => {
                    g.status == 200 && g.body_hash == *hash && g.etag_hash == fnv(tag.as_bytes())
                }
                (None, _) => g.status == 200 && g.body_hash == expected(stores, req),
            };
            if ok {
                Ok(())
            } else {
                Err(format!(
                    "status {}, {} B: not the expected answer{}",
                    g.status,
                    g.body_len,
                    if s.send.conditional {
                        " (conditional)"
                    } else {
                        ""
                    }
                ))
            }
        });
        out.check(verdict.is_ok(), || {
            format!(
                "{} {}: {}",
                req.path(stores),
                req.body,
                verdict.clone().unwrap_err()
            )
        });
        failed += usize::from(verdict.is_err());
    }
    failed
}

/// The traffic's figures: the nominal phase, and the goodput search.
struct Run {
    nominal: PhaseStats,
    goodput_rps: f64,
    steps: Vec<String>,
    wait_ms: Vec<f64>,
    reconnects: u64,
}

/// Offers the mix at `nominal_rps` for the measured window, or for its
/// first share when `search` is set; the rest of the window searches for
/// the goodput. The search bisects, in log space, between the nominal
/// rate and the mix's span above it (or below it, if the nominal rate
/// failed): a step that passes raises the floor, one that fails lowers
/// the ceiling, so every step narrows the bracket by the same factor.
#[allow(clippy::too_many_arguments)]
fn drive(
    mix: Mix,
    seed: u64,
    window: f64,
    f: &mut Fixture,
    host: &mut HostSpeed,
    out: &mut Outcome,
    search: bool,
    nominal_rps: f64,
) -> Run {
    let MixSpec { limit_ms, span, .. } = spec(mix);
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(WORKERS);
    let mut conns: Vec<Conn> = (0..threads).map(|_| Conn::new(f.handle.addr())).collect();
    let mut traffic = Traffic::new(mix, seed, f.keys.len());
    let mut reqs: Vec<Req> = f.keys.clone();
    let mut run_phase = |rate: f64, secs: f64, out: &mut Outcome, host: &mut HostSpeed| {
        host.sample(PHASE_SAMPLES);
        let n = Schedule::new(rate).count_within(secs);
        let sends: Vec<Send> = (0..n).map(|_| traffic.next(&f.stores, &mut reqs)).collect();
        let samples = phase(&mut conns, &f.stores, &reqs, &sends, rate);
        let failed = verify(&samples, &reqs, &f.stores, out);
        let mut wait = Vec::with_capacity(samples.len());
        for s in &samples {
            if let Ok(g) = &s.got {
                f.add_stages(&g.stages);
                wait.push((s.done_ns - s.sent_ns) as f64 / 1e6 - g.stages[4]);
            }
        }
        let stats = PhaseStats::of(&samples, rate, failed);
        drop(samples);
        crate::util::release_freed_memory();
        (stats, wait)
    };
    let nominal_secs = window * NOMINAL_SHARE;
    let (nominal, wait_ms) = run_phase(nominal_rps, nominal_secs, out, host);
    let mut steps = vec![nominal.describe(limit_ms)];
    let mut goodput = 0.0;
    if search {
        let step_secs = window * (1.0 - MEDIUM_SHARE - NOMINAL_SHARE) / SEARCH_STEPS as f64;
        let (mut lo, mut hi) = if nominal.passes(limit_ms) {
            goodput = nominal.sent_rps;
            (nominal_rps, nominal_rps * span)
        } else {
            (nominal_rps / span, nominal_rps)
        };
        for _ in 0..SEARCH_STEPS {
            let rate = (lo * hi).sqrt();
            let (st, _) = run_phase(rate, step_secs, out, host);
            steps.push(st.describe(limit_ms));
            if st.passes(limit_ms) {
                lo = rate;
                goodput = st.sent_rps;
            } else {
                hi = rate;
            }
        }
    }
    let reconnects = conns.iter().map(|c| c.reconnects).sum();
    Run {
        nominal,
        goodput_rps: goodput,
        steps,
        wait_ms,
        reconnects,
    }
}

/// Reads the daemon's flat `/metrics` counters.
fn daemon_counters(f: &Fixture) -> Option<pinpoint::trace::json::Json> {
    let mut conn = Conn::new(f.handle.addr());
    let r = conn.get("/metrics").ok()?;
    pinpoint::trace::json::parse(std::str::from_utf8(&r.body).ok()?).ok()
}

pub fn run(mix: Mix, args: &Args, work: &WorkDir, host: &mut HostSpeed, out: &mut Outcome) {
    let specs = catalog(args.seed);
    let medium_from = host.samples();
    let medium = if args.trace {
        MediumPass::default()
    } else {
        medium_pass(
            args.seed,
            args.seconds as f64 * MEDIUM_SHARE,
            work,
            host,
            out,
        )
    };
    let setup_from = host.samples();
    // the traced run reports no set-up time, so it sets up once
    let set_ups = if args.trace { 1 } else { SETUP_REPS };
    let mut reps = Vec::new();
    let mut fixture: Option<Fixture> = None;
    for rep in 0..set_ups {
        if let Some(f) = fixture.take() {
            f.handle.shutdown();
        }
        host.sample(1);
        let dir = work
            .sub(&format!("catalog{rep}"))
            .expect("catalog directory");
        let (f, took) = setup(mix, &specs, args.seed, &dir, out, rep == 0);
        reps.push(took);
        fixture = Some(f);
    }
    let setup_to = host.samples();
    let mut f = fixture.expect("at least one set-up rep");
    let ms = spec(mix);
    if !args.trace {
        let want = report_json(&f.stores[0].base, MAX_RECTS);
        out.check(medium.json == want, || {
            "the medium report differs from the catalog's medium store report".to_string()
        });
    }
    let run = drive(
        mix,
        args.seed,
        args.seconds as f64,
        &mut f,
        host,
        out,
        !args.trace,
        ms.nominal_rps,
    );
    let lat = sorted(&run.nominal.lat_ms);
    let t = tail(&lat);
    out.note("nominal_rps", ms.nominal_rps);
    out.note("p99_limit_ms", ms.limit_ms);
    out.note("nominal_samples", lat.len());
    out.note(
        "lat_p99_ms",
        t.map_or("n/a".to_string(), |t| {
            format!("p{:.1} of {} requests", t.pct, t.n)
        }),
    );
    for (i, s) in run.steps.iter().enumerate() {
        out.note(&format!("phase{i}"), s);
    }
    if args.trace {
        layer_metrics(&f, &run, out);
    } else {
        let at_ref = 1.0 / host.slowdown_in(setup_from..setup_to);
        out.scaled("setup_s", median(&reps), "s", at_ref);
        let at_ref = 1.0 / host.slowdown_in(medium_from..setup_from);
        out.scaled("profile_s", median(&medium.profile_s), "s", at_ref);
        out.scaled("report_t1_s", median(&medium.report_s[0]), "s", at_ref);
        out.scaled("report_t2_s", median(&medium.report_s[1]), "s", at_ref);
        // traffic latencies and rates: the whole run's slowdown, as the
        // few samples between traffic phases scale them less steadily
        let at_ref = 1.0 / host.slowdown();
        let (events, bytes) = f.stores.iter().fold((0u64, 0u64), |(e, b), s| {
            (e + s.reader.total_events(), b + s.reader.file_len())
        });
        out.metric("store_bytes_per_event", bytes as f64 / events as f64, "B");
        // a note: the median of these millisecond requests follows how fast
        // the host wakes idle virtual CPUs more than the daemon's speed
        if !lat.is_empty() {
            out.scaled_note("lat_p50_ms", median(&lat), "ms", at_ref);
        }
        out.scaled("lat_p99_ms", t.map_or(f64::NAN, |t| t.value), "ms", at_ref);
        out.scaled("goodput_rps", run.goodput_rps, "1/s", host.slowdown());
    }
    f.handle.shutdown();
}

/// The offline user's figures on the medium workload.
#[derive(Default)]
struct MediumPass {
    profile_s: Vec<f64>,
    /// Report seconds at 1 and 2 threads.
    report_s: [Vec<f64>; 2],
    /// The rendered report, identical in every rep at either count.
    json: String,
}

/// The offline path on the medium workload for `budget` seconds, before
/// the daemon starts: profile into a fresh store, then report at 1 and 2
/// threads in a seeded order, every report rendering the same bytes.
fn medium_pass(
    seed: u64,
    budget: f64,
    work: &WorkDir,
    host: &mut HostSpeed,
    out: &mut Outcome,
) -> MediumPass {
    let path = work.path().join("medium.ptrc");
    let mut rng = Rng64::seed_from_u64(seed ^ 0x3ED1);
    let mut pass = MediumPass::default();
    let start = Instant::now();
    while pass.profile_s.len() < 3 || secs(start) < budget {
        host.sample(1);
        pass.profile_s
            .push(profile_to_store(&medium_config(seed), &path, |w| w).1);
        let order = if rng.gen_bool() { [1, 2] } else { [2, 1] };
        for threads in order {
            let (_, json, dt) = report_store(&path, default_criteria(), threads);
            if pass.json.is_empty() {
                pass.json = json;
            } else {
                out.check(json == pass.json, || {
                    format!("medium report at {threads} thread(s) differs from the first one")
                });
            }
            pass.report_s[threads - 1].push(dt);
        }
        crate::util::release_freed_memory();
    }
    pass
}

/// The `serve` and client per-layer metrics of a traced run.
fn layer_metrics(f: &Fixture, run: &Run, out: &mut Outcome) {
    for (stage, sum) in STAGES.iter().zip(f.stage_ms) {
        out.metric(
            &format!("serve.{stage}_ms"),
            sum / f.stage_n.max(1) as f64,
            "ms",
        );
    }
    out.metric(
        "serve.wait_ms",
        if run.wait_ms.is_empty() {
            0.0
        } else {
            median(&run.wait_ms)
        },
        "ms",
    );
    let m = daemon_counters(f);
    let c = |k: &str| {
        m.as_ref()
            .and_then(|m| m.get(k))
            .and_then(|v| v.as_u64())
            .unwrap_or(0) as f64
    };
    out.check(m.is_some(), || "could not read /metrics".to_string());
    let chunk_lookups = c("cache_hits") + c("cache_misses");
    let result_lookups = c("result_hits") + c("result_misses");
    out.metric(
        "serve.chunk_hit_rate",
        c("cache_hits") / chunk_lookups.max(1.0),
        "fraction",
    );
    out.metric("serve.chunk_lookups", chunk_lookups, "count");
    out.metric(
        "serve.result_hit_rate",
        c("result_hits") / result_lookups.max(1.0),
        "fraction",
    );
    out.metric("serve.result_lookups", result_lookups, "count");
    out.metric("serve.chunk_evictions", c("cache_evictions"), "count");
    out.metric("serve.result_evictions", c("result_evictions"), "count");
    out.metric("serve.not_modified", c("not_modified"), "count");
    out.metric("serve.shed", c("shed"), "count");
    out.metric("serve.server_error", c("server_error"), "count");
    let nominal = &run.nominal;
    let lags = sorted(&nominal.lag.lags_ms());
    out.metric("client.sent", nominal.lat_ms.len() as f64, "count");
    out.metric("client.failed", nominal.failed as f64, "count");
    out.metric("client.reconnects", run.reconnects as f64, "count");
    out.metric(
        "client.lag_p99_ms",
        tail(&lags).map_or(0.0, |t| t.value),
        "ms",
    );
    out.metric("client.offered_rps", nominal.rate, "1/s");
    out.metric("client.achieved_rps", nominal.achieved_rps, "1/s");
}

/// The serve layer on the offline workload's traced run: a short
/// serve-scan session over the medium store alone, so every traced run
/// reports the same layer metrics.
pub fn probe(args: &Args, work: &WorkDir, host: &mut HostSpeed, out: &mut Outcome) {
    let specs = vec![("resnet50", medium_config(args.seed))];
    let dir = work.sub("probe-catalog").expect("catalog directory");
    let (mut f, _) = setup(Mix::Scan, &specs, args.seed, &dir, out, true);
    let window = args.seconds.min(PROBE_SECONDS) as f64;
    let run = drive(
        Mix::Scan,
        args.seed,
        window,
        &mut f,
        host,
        out,
        false,
        PROBE_RPS,
    );
    layer_metrics(&f, &run, out);
    f.handle.shutdown();
}
