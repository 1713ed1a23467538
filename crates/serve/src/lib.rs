//! # pinpoint-serve
//!
//! A concurrent trace-query daemon over `.ptrc` stores — the service
//! layer that turns the offline analysis toolkit into something many
//! clients can hit at once.
//!
//! The CLI answers one question per process launch, re-opening and
//! re-decoding the store every time. A training-infrastructure team
//! asking many questions of the same traces (dashboards, regression
//! bots, engineers poking at an OOM) wants the opposite shape: one
//! long-running process that keeps hot chunks decoded and shares them
//! across requests. That is this crate:
//!
//! - **HTTP/1.1 over `std::net`** ([`http`]) — hand-rolled
//!   request/response framing, because the build is hermetic (no
//!   crates.io); bounded head/body sizes, persistent connections
//!   (`Connection: keep-alive` honored, bounded requests per
//!   connection), per-connection reusable buffers, vectored writes.
//! - **A name-addressed store catalog** ([`catalog`]) — a directory of
//!   `.ptrc` files, opened lazily under
//!   [`ReadPolicy::Salvage`](pinpoint_store::ReadPolicy) so damaged
//!   stores answer with exact loss accounting instead of erroring. Every
//!   access re-validates a generation fingerprint (file length + mtime):
//!   a store replaced or deleted on disk is reopened or evicted, and
//!   both cache tiers drop its entries.
//! - **A sharded decoded-chunk cache** ([`cache`]) — `Arc`'d
//!   [`ColumnBatch`](pinpoint_store::ColumnBatch)es keyed by
//!   `(store, chunk)`, LRU-evicted under a global byte budget; the unit
//!   of sharing between concurrent requests.
//! - **A generation-aware result cache** ([`result_cache`]) — fully
//!   *rendered* `query`/`report` bodies keyed by `(store, normalized
//!   params)` and validated against the store's generation, served
//!   zero-copy as `Arc`-shared response bodies; the same key derives
//!   strong `ETag`s, so `If-None-Match` → `304 Not Modified` conditional
//!   answers are exactly as fresh as the cache.
//! - **Admission control** ([`server`]) — a bounded connection queue
//!   drained by a fixed worker pool; connections beyond capacity are
//!   refused at the door with a 503 whose `Retry-After` is derived
//!   deterministically from queue depth and drain width, so overload
//!   degrades to fast refusals, never hangs.
//! - **Resilience** ([`deadline`], [`breaker`], [`server`]) — every
//!   request carries a deadline budget that becomes a cooperative
//!   [`CancelToken`](pinpoint_store::CancelToken) inside the chunk
//!   fetch (doomed scans answer a deterministic `503 Retry-After`);
//!   handler panics are contained to stable `500`s by an unwind guard
//!   and dead workers are respawned by a watchdog; each store has a
//!   deterministic count-based circuit breaker; and `POST /shutdown`
//!   runs a graceful drain under a bounded drain deadline, observable
//!   through `GET /healthz`.
//!
//! Endpoints: `GET /stores`, `GET /stores/{name}/info`,
//! `POST /stores/{name}/query`, `POST /stores/{name}/report`,
//! `GET /metrics`, `GET /healthz`, `GET /debug/spans`, token-gated
//! `POST /shutdown`, and (only when configured) token-gated
//! `POST /debug/chaos` for fault injection.
//!
//! The load-bearing property is **byte-identity with the offline CLI**:
//! query and report responses are rendered by the same
//! [`pinpoint_analysis::query_json`] / [`pinpoint_analysis::report_json`]
//! builders the CLI's `--json` flags use, fed by the same deterministic
//! in-file-order chunk folds — so a response is the same bytes whether it
//! came from the daemon (any worker count, any cache state, fresh or
//! reused connection, result-cache hit or miss) or from
//! `pinpoint-trace-tool` run offline on the same store.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod breaker;
pub mod cache;
pub mod catalog;
pub mod deadline;
pub mod http;
pub mod metrics;
pub mod result_cache;
pub mod server;

pub use breaker::{BreakerConfig, BreakerSet, BreakerState};
pub use cache::{CacheStats, ChunkCache};
pub use catalog::{Catalog, CatalogError, Resolved, StoreEntry};
pub use deadline::Deadline;
pub use result_cache::{ResultCache, ResultCacheStats};
pub use server::{start, ServeConfig, ServerHandle};

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::path::PathBuf;

    fn tmp_catalog(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pinpoint-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_trace() -> pinpoint_trace::Trace {
        use pinpoint_trace::{BlockId, EventKind, MemoryKind, Trace};
        let mut t = Trace::new();
        let op = t.intern_label("conv2d");
        for i in 0..300u64 {
            t.record(
                i * 11,
                match i % 4 {
                    0 => EventKind::Malloc,
                    3 => EventKind::Free,
                    _ => EventKind::Write,
                },
                BlockId(i % 23),
                ((i % 23 + 1) * 512) as usize,
                (i * 64) as usize,
                if i % 2 == 0 {
                    MemoryKind::Activation
                } else {
                    MemoryKind::Weight
                },
                (i % 7 == 0).then_some(op),
            );
        }
        t
    }

    /// One one-shot round trip: send `request` (which must ask for
    /// `Connection: close`), read to EOF, split into (status, headers,
    /// body).
    fn roundtrip(addr: std::net::SocketAddr, request: &str) -> (u16, String, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        s.write_all(request.as_bytes()).unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").expect("full response");
        let status: u16 = head
            .split_ascii_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        (status, head.to_string(), body.to_string())
    }

    fn get(addr: std::net::SocketAddr, path: &str) -> (u16, String, String) {
        roundtrip(
            addr,
            &format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"),
        )
    }

    fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> (u16, String, String) {
        roundtrip(
            addr,
            &format!(
                "POST {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    /// Reads one `Content-Length`-framed response off a kept-alive
    /// stream without waiting for EOF.
    fn read_one_response(s: &mut TcpStream) -> (u16, String, String) {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            let n = s.read(&mut chunk).unwrap();
            assert!(n > 0, "EOF before response head");
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8(buf[..head_end].to_vec()).unwrap();
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("Content-Length present")
            .parse()
            .unwrap();
        while buf.len() < head_end + 4 + len {
            let n = s.read(&mut chunk).unwrap();
            assert!(n > 0, "EOF before response body");
            buf.extend_from_slice(&chunk[..n]);
        }
        let body = String::from_utf8(buf[head_end + 4..head_end + 4 + len].to_vec()).unwrap();
        let status: u16 = head
            .split_ascii_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        (status, head, body)
    }

    #[test]
    fn end_to_end_session_matches_offline_answers() {
        let dir = tmp_catalog("e2e");
        let trace = sample_trace();
        pinpoint_store::write_store_file(&trace, dir.join("mlp.ptrc")).unwrap();
        let handle = start(ServeConfig {
            catalog_dir: dir.clone(),
            workers: 2,
            shutdown_token: Some("tok".to_string()),
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = handle.addr();

        let (status, _, body) = get(addr, "/stores");
        assert_eq!(status, 200);
        assert_eq!(body, "{\"stores\":[\"mlp\"]}");

        let (status, _, body) = get(addr, "/stores/mlp/info");
        assert_eq!(status, 200);
        assert!(body.contains("\"events\":300"), "{body}");

        // query must be byte-identical to the offline renderer
        let (status, head, body) = post(addr, "/stores/mlp/query", "{\"kind\":\"free\",\"max\":5}");
        assert_eq!(status, 200);
        assert!(head.contains("X-Pinpoint-Chunks-Skipped: 0"), "{head}");
        assert!(head.contains("ETag: \"g"), "{head}");
        let reader = pinpoint_store::StoreReader::open(dir.join("mlp.ptrc")).unwrap();
        let pred = pinpoint_store::Predicate::any().with_kind(pinpoint_trace::EventKind::Free);
        let want = pinpoint_analysis::query_json(&reader.query(&pred, 1).unwrap(), 5);
        assert_eq!(body, want);

        // report: default criteria, cold then warm (result-cache hit),
        // identical bytes
        let (status, _, cold) = post(addr, "/stores/mlp/report", "");
        assert_eq!(status, 200);
        let (status, _, warm) = post(addr, "/stores/mlp/report", "{}");
        assert_eq!(status, 200);
        assert_eq!(cold, warm);
        let want = pinpoint_analysis::report_json(
            &pinpoint_analysis::TraceReport::from_store(
                &reader,
                pinpoint_analysis::OutlierCriteria {
                    min_ati_ns: (800.0f64 * 1e6) as u64,
                    min_size_bytes: (600.0f64 * 1e6) as usize,
                },
                1,
            )
            .unwrap(),
            30,
        );
        assert_eq!(cold, want);

        let (status, _, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("\"cache_hits\":"), "{body}");
        assert!(body.contains("\"result_hits\":1"), "{body}");

        let (status, _, _) = get(addr, "/stores/ghost/info");
        assert_eq!(status, 404);
        let (status, _, _) = post(addr, "/shutdown", "");
        assert_eq!(status, 403, "shutdown without token must be refused");

        let (status, _, _) = roundtrip(
            addr,
            "POST /shutdown HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\
             X-Pinpoint-Token: tok\r\nContent-Length: 0\r\n\r\n",
        );
        assert_eq!(status, 204);
        handle.wait();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_connection() {
        let dir = tmp_catalog("keepalive");
        pinpoint_store::write_store_file(&sample_trace(), dir.join("mlp.ptrc")).unwrap();
        let handle = start(ServeConfig {
            catalog_dir: dir.clone(),
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = handle.addr();

        // one-shot reference bytes
        let (_, _, want) = post(addr, "/stores/mlp/query", "{\"kind\":\"free\"}");

        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let body = "{\"kind\":\"free\"}";
        let req = format!(
            "POST /stores/mlp/query HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        for i in 0..5 {
            s.write_all(req.as_bytes()).unwrap();
            let (status, head, got) = read_one_response(&mut s);
            assert_eq!(status, 200, "request {i}");
            assert!(head.contains("Connection: keep-alive"), "{head}");
            assert_eq!(got, want, "kept-alive bytes must match one-shot bytes");
        }
        drop(s);

        let (_, _, metrics) = get(addr, "/metrics");
        assert!(metrics.contains("\"keepalive_requests\":4"), "{metrics}");
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keep_alive_budget_closes_the_connection() {
        let dir = tmp_catalog("budget");
        let handle = start(ServeConfig {
            catalog_dir: dir.clone(),
            workers: 1,
            keepalive_requests: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = handle.addr();
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let req = "GET /stores HTTP/1.1\r\nHost: x\r\n\r\n";
        s.write_all(req.as_bytes()).unwrap();
        let (_, head, _) = read_one_response(&mut s);
        assert!(head.contains("Connection: keep-alive"), "{head}");
        s.write_all(req.as_bytes()).unwrap();
        let (_, head, _) = read_one_response(&mut s);
        assert!(
            head.contains("Connection: close"),
            "budget exhausted, must announce close: {head}"
        );
        // and the server actually closes
        let mut rest = Vec::new();
        s.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_requests_get_400_not_a_hang() {
        let dir = tmp_catalog("bad");
        let handle = start(ServeConfig {
            catalog_dir: dir.clone(),
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = handle.addr();
        let (status, _, _) = roundtrip(addr, "NONSENSE\r\n\r\n");
        assert_eq!(status, 400);
        let (status, _, _) = roundtrip(
            addr,
            "POST /stores/x/query HTTP/1.1\r\nContent-Length: zzz\r\n\r\n",
        );
        assert_eq!(status, 400);
        let (status, _, body) = post(addr, "/stores/ghost/query", "not json");
        // catalog miss resolves before the body parse
        assert_eq!(status, 404, "{body}");
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
