//! The store catalog: a directory of `.ptrc` files exposed by name.
//!
//! Stores open lazily on first touch — under [`ReadPolicy::Salvage`], so
//! a damaged store still answers (with exact loss accounting in the
//! response) instead of turning every request into a 500 — and stay open
//! behind `Arc`s. Each opened store gets a process-unique id, the
//! cache-key namespace for its chunks.
//!
//! **Generation tracking.** Every lookup re-validates the on-disk file
//! against the open entry's *generation fingerprint* (file length +
//! mtime). A `.ptrc` replaced in place — `convert` upgrading v2→v3, a
//! profiler overwriting a trace — is detected on the next access: the
//! store is reopened, the new entry gets a fresh cache id, and the
//! superseded id is reported to the caller ([`Resolved::stale_id`]) so
//! both cache tiers can drop the dead entries. A deleted file likewise
//! evicts the open entry (`CatalogError::NotFound` carries the stale id)
//! instead of serving answers from a reader whose file is gone. The
//! generation fingerprint is also the result cache's validity token and
//! the `ETag` ingredient, so "same fingerprint" and "may serve cached
//! bytes" are one condition.
//!
//! Names are the file stem (`resnet18` for `resnet18.ptrc`) and are
//! validated before touching the filesystem: one path component, no
//! separators, no leading dot — a request can never escape the catalog
//! root.

use pinpoint_store::{ReadPolicy, StoreError, StoreReader};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// One opened store.
#[derive(Debug)]
pub struct StoreEntry {
    /// Catalog name (file stem).
    pub name: String,
    /// Process-unique id, namespacing this store's chunks in the cache.
    pub id: u64,
    /// Generation fingerprint (file length + mtime) of the bytes behind
    /// [`StoreEntry::reader`]; the result-cache validity token.
    pub generation: u64,
    /// The store's reader, open under [`ReadPolicy::Salvage`].
    pub reader: StoreReader,
}

/// A successful catalog lookup.
#[derive(Debug)]
pub struct Resolved {
    /// The (possibly just-reopened) store entry.
    pub entry: Arc<StoreEntry>,
    /// When the on-disk file changed and the store was reopened: the
    /// superseded entry's cache id, whose cached chunks and results the
    /// caller must invalidate.
    pub stale_id: Option<u64>,
}

/// Why a catalog lookup failed.
#[derive(Debug)]
pub enum CatalogError {
    /// No such store (bad name, or the file does not exist) — a 404.
    /// When an open entry was evicted because its file vanished, its
    /// cache id rides along for invalidation.
    NotFound {
        /// Cache id of the evicted open entry, if one existed.
        stale_id: Option<u64>,
    },
    /// The file exists but cannot be opened or validated — a 500 with
    /// detail.
    Open(StoreError),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::NotFound { .. } => write!(f, "store not found"),
            CatalogError::Open(e) => write!(f, "cannot open store: {e}"),
        }
    }
}

/// Mixes a file's length and mtime into one generation fingerprint.
fn fingerprint(meta: &std::fs::Metadata) -> u64 {
    let mtime_ns = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos() as u64);
    (meta.len().wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ mtime_ns)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .max(1) // 0 is reserved for "no generation"
}

/// A lazily opened, name-addressed collection of `.ptrc` stores with
/// per-access staleness validation.
#[derive(Debug)]
pub struct Catalog {
    root: PathBuf,
    open: RwLock<HashMap<String, Arc<StoreEntry>>>,
    next_id: AtomicU64,
}

impl Catalog {
    /// Creates a catalog over the given directory.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Catalog {
            root: root.into(),
            open: RwLock::new(HashMap::new()),
            next_id: AtomicU64::new(1),
        }
    }

    /// The catalog directory.
    pub fn root(&self) -> &std::path::Path {
        &self.root
    }

    /// Store names currently on disk (file stems of `*.ptrc`), sorted.
    pub fn list(&self) -> Vec<String> {
        let mut names = Vec::new();
        if let Ok(entries) = std::fs::read_dir(&self.root) {
            for entry in entries.flatten() {
                let path = entry.path();
                if path.extension().and_then(|e| e.to_str()) == Some("ptrc") {
                    if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                        names.push(stem.to_string());
                    }
                }
            }
        }
        names.sort();
        names
    }

    /// Whether `name` is a safe single-component store name.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && !name.starts_with('.')
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
    }

    /// Drops the open entry for `name`, returning its cache id.
    fn evict(&self, name: &str) -> Option<u64> {
        self.open
            .write()
            .expect("catalog lock poisoned")
            .remove(name)
            .map(|e| e.id)
    }

    /// Fetches a store by name, opening it on first touch and
    /// re-validating the generation fingerprint on every access: a file
    /// replaced on disk is reopened (fresh id, [`Resolved::stale_id`] set
    /// to the superseded one), a deleted file evicts the entry.
    ///
    /// # Errors
    ///
    /// [`CatalogError::NotFound`] for invalid names and missing files;
    /// [`CatalogError::Open`] when the file exists but fails validation.
    pub fn get(&self, name: &str) -> Result<Resolved, CatalogError> {
        if !Self::valid_name(name) {
            return Err(CatalogError::NotFound { stale_id: None });
        }
        let path = self.root.join(format!("{name}.ptrc"));
        // re-stat on every access: a missing file evicts, a changed
        // fingerprint reopens — open readers never outlive their bytes
        let generation = match std::fs::metadata(&path) {
            Ok(meta) if meta.is_file() => fingerprint(&meta),
            _ => {
                return Err(CatalogError::NotFound {
                    stale_id: self.evict(name),
                })
            }
        };
        if let Some(entry) = self.open.read().expect("catalog lock poisoned").get(name) {
            if entry.generation == generation {
                return Ok(Resolved {
                    entry: Arc::clone(entry),
                    stale_id: None,
                });
            }
        }
        // first touch, or the fingerprint changed: open the current
        // bytes. If the file is swapped *while* we open it the post-open
        // stat disagrees with the pre-open one; retry against the newer
        // fingerprint (bounded — a live-thrashing file just stays stale
        // for one more request).
        let mut generation = generation;
        let mut reader = None;
        for _ in 0..3 {
            let r = match StoreReader::open_with_policy(&path, ReadPolicy::Salvage) {
                Ok(r) => r,
                Err(StoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                    return Err(CatalogError::NotFound {
                        stale_id: self.evict(name),
                    })
                }
                Err(e) => return Err(CatalogError::Open(e)),
            };
            let now = match std::fs::metadata(&path) {
                Ok(meta) if meta.is_file() => fingerprint(&meta),
                _ => {
                    return Err(CatalogError::NotFound {
                        stale_id: self.evict(name),
                    })
                }
            };
            reader = Some(r);
            if now == generation {
                break;
            }
            generation = now;
        }
        let reader = reader.expect("loop ran at least once");
        let mut open = self.open.write().expect("catalog lock poisoned");
        // a racing opener may have beaten us to this same generation;
        // keep the first entry so the cache sees one id per (store,
        // generation)
        if let Some(entry) = open.get(name) {
            if entry.generation == generation {
                return Ok(Resolved {
                    entry: Arc::clone(entry),
                    stale_id: None,
                });
            }
        }
        let stale_id = open.get(name).map(|e| e.id);
        let entry = Arc::new(StoreEntry {
            name: name.to_string(),
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            generation,
            reader,
        });
        open.insert(name.to_string(), Arc::clone(&entry));
        Ok(Resolved { entry, stale_id })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_store::write_store_file;
    use pinpoint_trace::{BlockId, EventKind, MemoryKind, Trace};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pinpoint-catalog-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_fixture(dir: &std::path::Path, name: &str, events: u64) {
        let mut t = Trace::new();
        for i in 0..events {
            t.record(
                i,
                EventKind::Malloc,
                BlockId(i),
                64,
                0,
                MemoryKind::Weight,
                None,
            );
        }
        write_store_file(&t, dir.join(format!("{name}.ptrc"))).unwrap();
    }

    #[test]
    fn lists_and_opens_by_name() {
        let dir = tmp_dir("list");
        write_fixture(&dir, "b", 1);
        write_fixture(&dir, "a", 1);
        std::fs::write(dir.join("notes.txt"), "x").unwrap();
        let cat = Catalog::new(&dir);
        assert_eq!(cat.list(), vec!["a".to_string(), "b".to_string()]);
        let a = cat.get("a").unwrap();
        assert_eq!(a.entry.reader.total_events(), 1);
        assert!(a.stale_id.is_none());
        // the same entry (and id) comes back on re-fetch
        let again = cat.get("a").unwrap();
        assert_eq!(again.entry.id, a.entry.id);
        assert!(again.stale_id.is_none());
        assert_ne!(cat.get("b").unwrap().entry.id, a.entry.id);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_and_hostile_names_are_not_found() {
        let dir = tmp_dir("names");
        let cat = Catalog::new(&dir);
        for name in ["ghost", "../etc/passwd", "a/b", "", ".hidden"] {
            assert!(
                matches!(cat.get(name), Err(CatalogError::NotFound { .. })),
                "{name}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deleted_store_is_not_found_not_a_panic() {
        let dir = tmp_dir("deleted");
        write_fixture(&dir, "gone", 1);
        std::fs::remove_file(dir.join("gone.ptrc")).unwrap();
        let cat = Catalog::new(&dir);
        assert!(matches!(
            cat.get("gone"),
            Err(CatalogError::NotFound { stale_id: None })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replaced_file_reopens_with_fresh_id_and_reports_the_stale_one() {
        let dir = tmp_dir("replace");
        write_fixture(&dir, "s", 2);
        let cat = Catalog::new(&dir);
        let first = cat.get("s").unwrap();
        assert_eq!(first.entry.reader.total_events(), 2);
        // replace in place with different content (different length →
        // different fingerprint regardless of mtime granularity)
        write_fixture(&dir, "s", 7);
        let second = cat.get("s").unwrap();
        assert_eq!(second.entry.reader.total_events(), 7, "must see new bytes");
        assert_ne!(second.entry.id, first.entry.id, "cache id must rotate");
        assert_ne!(second.entry.generation, first.entry.generation);
        assert_eq!(second.stale_id, Some(first.entry.id));
        // stable again afterwards
        let third = cat.get("s").unwrap();
        assert_eq!(third.entry.id, second.entry.id);
        assert!(third.stale_id.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deleting_an_open_store_evicts_it_and_reports_the_stale_id() {
        let dir = tmp_dir("evict");
        write_fixture(&dir, "s", 3);
        let cat = Catalog::new(&dir);
        let open = cat.get("s").unwrap();
        std::fs::remove_file(dir.join("s.ptrc")).unwrap();
        match cat.get("s") {
            Err(CatalogError::NotFound { stale_id }) => {
                assert_eq!(stale_id, Some(open.entry.id))
            }
            other => panic!("want NotFound with stale id, got {other:?}"),
        }
        // and the eviction is once-only
        assert!(matches!(
            cat.get("s"),
            Err(CatalogError::NotFound { stale_id: None })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
