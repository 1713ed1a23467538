//! Result accounting, the scratch directory, and run provenance.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports: correctness tallies, metrics, and notes
/// (provenance, sample counts, per-workload definitions) for the human
/// part of the output.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, or report renders checked).
    pub attempted: u64,
    /// Operations that failed: wrong bytes, bad status, I/O errors.
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// Counts one checked operation; a false `ok` is a failure described
    /// by `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// A metric stated at the reference host speed (see `host`): `raw`
    /// times `factor`, with `raw` kept as a note.
    pub fn scaled(&mut self, name: &str, raw: f64, unit: &'static str, factor: f64) {
        self.note(&format!("raw.{name}"), format!("{} {unit}", fmt_num(raw)));
        self.metric(name, raw * factor, unit);
    }

    /// A figure stated like [`Outcome::scaled`] but kept out of the
    /// metrics: too unsteady between runs on a shared host to gate on.
    pub fn scaled_note(&mut self, name: &str, raw: f64, unit: &str, factor: f64) {
        self.note(
            name,
            format!(
                "{} {unit} ({} {unit} raw)",
                fmt_num(raw * factor),
                fmt_num(raw)
            ),
        );
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The human-readable report, then the one-line JSON result last.
    pub fn print(&self) {
        for (k, v) in &self.notes {
            println!("# {k}: {v}");
        }
        for f in &self.failures {
            println!("# FAILED: {f}");
        }
        println!(
            "# error_rate: {} ({} failed / {} attempted)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        for m in &self.metrics {
            println!("{:<34} {:>16} {}", m.name, fmt_num(m.value), m.unit);
        }
        let mut s = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let v = if m.value.is_finite() { m.value } else { -1.0 };
            let _ = write!(
                s,
                "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                fmt_num(v),
                m.unit
            );
        }
        s.push_str("}}");
        println!("{s}");
    }
}

/// Full-precision JSON number (shortest round-trip form).
fn fmt_num(v: f64) -> String {
    format!("{v:?}")
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// FNV-1a over a response body: the byte-for-byte comparison key.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

extern "C" {
    /// glibc: returns free heap memory to the operating system.
    fn malloc_trim(pad: usize) -> i32;
    /// glibc: sets an allocator parameter.
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_ARENA_MAX`.
const M_ARENA_MAX: i32 = -8;

/// Caps the allocator at `n` arenas. Call before the process starts any
/// thread.
///
/// A fresh process that reports at `n - 1` threads holds `n` arenas (the
/// main one and one per worker). Reps repeated in one process can hold
/// more: scoped threads are joined when their closures end, before the
/// threads have exited and handed their arenas back, so a report that
/// starts while the last one's threads are still exiting may create new
/// arenas, and the peak resident set of such a run jumps by one arena's
/// working set (15 to 35 MB on the medium workload) at a random rep.
pub fn cap_malloc_arenas(n: i32) {
    // SAFETY: mallopt takes no pointers; an arena cap is valid at any time
    // and only read when a thread first needs an arena.
    unsafe {
        mallopt(M_ARENA_MAX, n);
    }
}

/// Hands memory freed by one rep back to the OS before the next, so the
/// peak resident set measures one rep's working set rather than how far
/// the allocator's arenas fragmented over however many reps the window
/// held.
pub fn release_freed_memory() {
    // SAFETY: malloc_trim takes no pointers and only walks the allocator's
    // own free lists under its locks; any pad value is valid.
    unsafe {
        malloc_trim(0);
    }
}

/// A scratch directory inside the current directory, removed on drop.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(tag: &str) -> std::io::Result<Self> {
        let dir = Path::new(".perfbench-work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh empty subdirectory.
    pub fn sub(&self, name: &str) -> std::io::Result<PathBuf> {
        let d = self.0.join(name);
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d)?;
        Ok(d)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // the parent goes too once no other run is using it
        let _ = std::fs::remove_dir(".perfbench-work");
    }
}

/// Build and machine provenance shared by every workload.
pub fn provenance(out: &mut Outcome, workload: &str, seed: u64, seconds: u64, traced: bool) {
    out.note("workload", workload);
    out.note("seed", seed);
    out.note("seconds", seconds);
    out.note("traced", traced);
    out.note(
        "nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    out.note("rustc", env!("PERFBENCH_RUSTC"));
    out.note("commit", commit().unwrap_or_else(|| "unknown".to_string()));
}

/// The checked-out commit, read from `.git` without running git; `None`
/// outside a git checkout.
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(r)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(r).map(|id| id.trim().to_string()))
}
