//! `.ptrc` reader: footer-indexed chunk access, predicate pushdown,
//! deterministic parallel decode, and corruption-tolerant salvage.
//!
//! Opening a store reads only the header, trailer and footer; event
//! chunks are fetched and decoded on demand, so a query touching a small
//! time window of a huge trace reads a correspondingly small part of the
//! file. Reads go through a positional source ([`ReadAt`]: `pread` on
//! files, slices in memory), so the reader is `Sync` and every method
//! takes `&self` — the CLI and the `pinpoint-serve` daemon share one
//! reader type. The reader counts decoded chunks
//! ([`StoreReader::chunks_decoded`]) so tests — and the acceptance
//! criteria — can assert pushdown actually skips I/O rather than
//! filtering after a full decode.
//!
//! Robustness contract: **no byte sequence panics the reader**. Every
//! decode failure is a typed [`StoreError`], and [`ReadPolicy`] decides
//! what happens next:
//!
//! - [`ReadPolicy::Strict`] (default) — the first corrupt structure aborts
//!   the operation with its typed error.
//! - [`ReadPolicy::Salvage`] — corrupt chunks are skipped with exact
//!   accounting (`chunks_skipped`, `events_lost`, first-error detail in
//!   [`QueryStats`]), and a missing or corrupt footer triggers a full
//!   rescan that rebuilds the index from the surviving chunks: v2 files
//!   are scanned for `PTCK` record headers and each candidate payload is
//!   admitted only if its CRC-32 and decode both pass; v1 files (no
//!   checksums, no record framing) are walked chunk-by-chunk from the
//!   front, recovering the longest cleanly-decoding prefix.
//!
//! Salvage keeps results deterministic: recovered chunks are processed in
//! file order, so analyses over a salvaged store are bit-identical at any
//! thread count to the same analyses over a store containing only the
//! surviving chunks.

use crate::columns::{ColumnBatch, DecodeScratch};
use crate::crc32::crc32;
use crate::error::StoreError;
use crate::format::{
    category_bit, decode_chunk_prefix, decode_footer, kind_bit, meta_from_events, trailer_len,
    ChunkMeta, Footer, CHUNK_HEADER_LEN, CHUNK_MAGIC, HEADER_LEN, MAGIC, VERSION, VERSION_V1,
};
use crate::scan::{query_chunks, scan_ordered, wave_len};
use crate::writer::StoreWriter;
use pinpoint_trace::{Category, EventKind, MemEvent, Trace, TraceSink};
use std::fmt;
use std::fs::File;
use std::io::{self, Write};
use std::ops::Deref;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, TryLockError};

/// An event filter with chunk-level pushdown.
///
/// All set fields must match (conjunction); an unset field matches
/// everything. Ranges are inclusive.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Predicate {
    /// Event time within `[lo, hi]`.
    pub time_range: Option<(u64, u64)>,
    /// Block id within `[lo, hi]`.
    pub block_range: Option<(u64, u64)>,
    /// Event kind within the mask (build with [`Predicate::with_kind`]).
    pub kind_mask: Option<u8>,
    /// Paper category within the mask (build with
    /// [`Predicate::with_category`]).
    pub category_mask: Option<u8>,
    /// Block size at least this many bytes.
    pub min_size: Option<u64>,
    /// Block size at most this many bytes.
    pub max_size: Option<u64>,
    /// Event carries exactly this op label. Pruned chunk-level via the v3
    /// label bitset (see [`ChunkMeta::label_bits`]).
    pub op_label: Option<u32>,
    /// Intra-block offset within `[lo, hi]`.
    pub offset_range: Option<(u64, u64)>,
}

impl Predicate {
    /// The match-everything predicate.
    pub fn any() -> Self {
        Self::default()
    }

    /// Restricts to events with `lo <= time_ns <= hi`.
    #[must_use]
    pub fn with_time_range(mut self, lo: u64, hi: u64) -> Self {
        self.time_range = Some((lo, hi));
        self
    }

    /// Restricts to events with `lo <= block id <= hi`.
    #[must_use]
    pub fn with_block_range(mut self, lo: u64, hi: u64) -> Self {
        self.block_range = Some((lo, hi));
        self
    }

    /// Adds `kind` to the accepted event kinds (first call restricts).
    #[must_use]
    pub fn with_kind(mut self, kind: EventKind) -> Self {
        *self.kind_mask.get_or_insert(0) |= kind_bit(kind);
        self
    }

    /// Adds `category` to the accepted paper categories (first call
    /// restricts).
    #[must_use]
    pub fn with_category(mut self, category: Category) -> Self {
        *self.category_mask.get_or_insert(0) |= category_bit(category);
        self
    }

    /// Restricts to blocks of at least `bytes`.
    #[must_use]
    pub fn with_min_size(mut self, bytes: u64) -> Self {
        self.min_size = Some(bytes);
        self
    }

    /// Restricts to blocks of at most `bytes`.
    #[must_use]
    pub fn with_max_size(mut self, bytes: u64) -> Self {
        self.max_size = Some(bytes);
        self
    }

    /// Restricts to events carrying exactly op label `label`.
    #[must_use]
    pub fn with_op_label(mut self, label: u32) -> Self {
        self.op_label = Some(label);
        self
    }

    /// Restricts to events with `lo <= offset <= hi`.
    #[must_use]
    pub fn with_offset_range(mut self, lo: u64, hi: u64) -> Self {
        self.offset_range = Some((lo, hi));
        self
    }

    /// The union (disjunctive hull) of two predicates: a predicate that
    /// matches every chunk either operand could match.
    ///
    /// Per field, the hull keeps a constraint only when **both** operands
    /// constrain it (an unset field already matches everything): time and
    /// block ranges widen to the enclosing range, kind/category masks OR,
    /// and `min_size` drops to the smaller bound. The result can be wider
    /// than the exact disjunction (two disjoint time windows hull to one
    /// window covering the gap), which is sound for pruning — it only ever
    /// decodes more, never less. The fused analysis engine folds all
    /// registered passes' predicates through this to prune chunks once for
    /// the whole pass set.
    #[must_use]
    pub fn union(&self, other: &Predicate) -> Predicate {
        fn hull(a: Option<(u64, u64)>, b: Option<(u64, u64)>) -> Option<(u64, u64)> {
            match (a, b) {
                (Some((al, ah)), Some((bl, bh))) => Some((al.min(bl), ah.max(bh))),
                _ => None,
            }
        }
        fn mask_union(a: Option<u8>, b: Option<u8>) -> Option<u8> {
            match (a, b) {
                (Some(a), Some(b)) => Some(a | b),
                _ => None,
            }
        }
        Predicate {
            time_range: hull(self.time_range, other.time_range),
            block_range: hull(self.block_range, other.block_range),
            kind_mask: mask_union(self.kind_mask, other.kind_mask),
            category_mask: mask_union(self.category_mask, other.category_mask),
            min_size: match (self.min_size, other.min_size) {
                (Some(a), Some(b)) => Some(a.min(b)),
                _ => None,
            },
            max_size: match (self.max_size, other.max_size) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            },
            // exact labels have no join other than equality: two different
            // labels hull to "any label" (constraint dropped)
            op_label: match (self.op_label, other.op_label) {
                (Some(a), Some(b)) if a == b => Some(a),
                _ => None,
            },
            offset_range: hull(self.offset_range, other.offset_range),
        }
    }

    /// Whether any event of a chunk with this index entry *could* match —
    /// `false` proves the chunk can be skipped without decoding.
    pub fn matches_chunk(&self, meta: &ChunkMeta) -> bool {
        if let Some((lo, hi)) = self.time_range {
            if meta.max_time_ns < lo || meta.min_time_ns > hi {
                return false;
            }
        }
        if let Some((lo, hi)) = self.block_range {
            if meta.max_block < lo || meta.min_block > hi {
                return false;
            }
        }
        if let Some(mask) = self.kind_mask {
            if mask & meta.kind_mask == 0 {
                return false;
            }
        }
        if let Some(mask) = self.category_mask {
            if mask & meta.category_mask == 0 {
                return false;
            }
        }
        if let Some(min) = self.min_size {
            if meta.max_size < min {
                return false;
            }
        }
        if let Some(max) = self.max_size {
            if meta.min_size > max {
                return false;
            }
        }
        if let Some(label) = self.op_label {
            // bit 63 is the catch-all for labels >= 63 (see
            // [`ChunkMeta::label_bits`]); pre-v3 entries default to all
            // bits set, so nothing is ever wrongly pruned
            if meta.label_bits & (1u64 << u64::from(label).min(63)) == 0 {
                return false;
            }
        }
        if let Some((lo, hi)) = self.offset_range {
            if meta.max_offset < lo || meta.min_offset > hi {
                return false;
            }
        }
        true
    }

    /// Whether this predicate prunes the chunk *specifically because of*
    /// the v3 op-label bitset: the label bit misses while every other
    /// constraint would have let the chunk through. Feeds the
    /// `chunks_pruned_by_label` counters.
    pub fn pruned_by_label(&self, meta: &ChunkMeta) -> bool {
        let Some(label) = self.op_label else {
            return false;
        };
        if meta.label_bits & (1u64 << u64::from(label).min(63)) != 0 {
            return false;
        }
        let mut rest = *self;
        rest.op_label = None;
        rest.matches_chunk(meta)
    }

    /// Whether one event matches.
    pub fn matches_event(&self, e: &MemEvent) -> bool {
        if let Some((lo, hi)) = self.time_range {
            if e.time_ns < lo || e.time_ns > hi {
                return false;
            }
        }
        if let Some((lo, hi)) = self.block_range {
            if e.block.0 < lo || e.block.0 > hi {
                return false;
            }
        }
        if let Some(mask) = self.kind_mask {
            if mask & kind_bit(e.kind) == 0 {
                return false;
            }
        }
        if let Some(mask) = self.category_mask {
            if mask & category_bit(e.mem_kind.category()) == 0 {
                return false;
            }
        }
        if let Some(min) = self.min_size {
            if (e.size as u64) < min {
                return false;
            }
        }
        if let Some(max) = self.max_size {
            if (e.size as u64) > max {
                return false;
            }
        }
        if let Some(label) = self.op_label {
            if e.op_label != Some(label) {
                return false;
            }
        }
        if let Some((lo, hi)) = self.offset_range {
            if (e.offset as u64) < lo || (e.offset as u64) > hi {
                return false;
            }
        }
        true
    }
}

/// What a reader does when it meets corrupt bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ReadPolicy {
    /// Abort the operation with a typed [`StoreError`] at the first
    /// corrupt structure. The default.
    #[default]
    Strict,
    /// Skip corrupt chunks (with exact accounting in [`QueryStats`]) and
    /// rebuild the index by rescanning when the footer itself is damaged.
    /// I/O errors still abort: salvage tolerates bad bytes, not bad disks.
    Salvage,
}

/// How much work a scan did, chunk-wise — how much pruning the predicate
/// bought and, under [`ReadPolicy::Salvage`], exactly what corruption
/// cost. Queries and fused analysis runs share it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Chunks in the store (or synthesized from an in-memory trace).
    pub chunks_total: usize,
    /// Chunks skipped via the footer index alone.
    pub chunks_pruned: usize,
    /// Of the pruned chunks, how many were skipped specifically because
    /// of the v3 op-label bitset (a pruning the coarser v1/v2 zone maps
    /// could not have made).
    pub chunks_pruned_by_label: usize,
    /// Chunks read and successfully decoded — each exactly once.
    pub chunks_decoded: usize,
    /// Events in the decoded chunks.
    pub events_scanned: u64,
    /// Chunks read but skipped as corrupt (always 0 under `Strict`).
    pub chunks_skipped: usize,
    /// Events lost with the skipped chunks, per the index counts.
    pub events_lost: u64,
    /// Detail of the first corruption encountered, in chunk order.
    pub first_error: Option<String>,
}

/// A query's matching events plus its work accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryResult {
    /// Matching events, in trace order.
    pub events: Vec<MemEvent>,
    /// Chunk accounting.
    pub stats: QueryStats,
}

/// What a footer rescan recovered (present on readers that had to
/// salvage; see [`StoreReader::salvage_summary`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SalvageSummary {
    /// Chunks whose payload survived (CRC + decode in v2, clean decode in
    /// the v1 prefix walk).
    pub chunks_recovered: usize,
    /// Events in the recovered chunks.
    pub events_recovered: u64,
    /// True when the label table was lost with the footer and placeholder
    /// labels were synthesized for the ids events still reference.
    pub labels_synthesized: bool,
    /// True when boundary markers were lost with the footer.
    pub markers_lost: bool,
    /// The strict-open error that forced the rescan.
    pub reason: String,
}

/// One verified-bad chunk, as reported by [`StoreReader::verify_chunks`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkFault {
    /// Zero-based chunk ordinal.
    pub chunk: usize,
    /// Events lost with it, per the index count.
    pub events_lost: u64,
    /// The typed error, rendered.
    pub error: String,
}

/// What a [`StoreReader::scrub_into`] rewrite kept and dropped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubStats {
    /// Chunks in the source store.
    pub chunks_total: usize,
    /// Chunks copied into the output.
    pub chunks_kept: usize,
    /// Corrupt chunks dropped.
    pub chunks_skipped: usize,
    /// Events copied into the output.
    pub events_kept: u64,
    /// Events lost with the dropped chunks, per the index counts.
    pub events_lost: u64,
    /// Detail of the first corruption encountered, in chunk order.
    pub first_error: Option<String>,
}

/// A byte source read at absolute offsets through `&self` — `pread`-style,
/// no shared cursor — so one open store can serve any number of threads.
pub trait ReadAt: Send + Sync + fmt::Debug {
    /// Total size of the source in bytes.
    ///
    /// # Errors
    ///
    /// I/O errors from the underlying source.
    fn size(&self) -> io::Result<u64>;

    /// Fills `buf` with the bytes starting at `offset`.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::UnexpectedEof`] when the source ends first, or any
    /// I/O error from the underlying source.
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()>;
}

impl ReadAt for File {
    fn size(&self) -> io::Result<u64> {
        Ok(self.metadata()?.len())
    }

    #[cfg(unix)]
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        std::os::unix::fs::FileExt::read_exact_at(self, buf, offset)
    }

    #[cfg(windows)]
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        use std::os::windows::fs::FileExt;
        let mut done = 0;
        while done < buf.len() {
            match self.seek_read(&mut buf[done..], offset + done as u64) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => done += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

impl ReadAt for Vec<u8> {
    fn size(&self) -> io::Result<u64> {
        Ok(self.len() as u64)
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let src = usize::try_from(offset)
            .ok()
            .and_then(|start| self.get(start..start.checked_add(buf.len())?))
            .ok_or(io::ErrorKind::UnexpectedEof)?;
        buf.copy_from_slice(src);
        Ok(())
    }
}

/// Decode slots per reader. A scan of `threads` workers uses the first
/// `threads × 4` (one per chunk of a scan wave), so this bounds the
/// slot-collision-free thread count at 16.
const SCRATCH_SLOTS: usize = 64;

/// A `.ptrc` reader: validated once at open, then read-only and `Sync` —
/// every method takes `&self`, so one open store (behind an `Arc` if need
/// be) answers queries from any number of threads at once.
#[derive(Debug)]
pub struct StoreReader {
    src: Box<dyn ReadAt>,
    file_len: u64,
    version: u8,
    policy: ReadPolicy,
    footer: Footer,
    salvage: Option<SalvageSummary>,
    chunks_decoded: AtomicU64,
    /// Reusable decode buffers for [`StoreReader::fetch`]: chunk `i` of a
    /// `threads`-wide scan always decodes into slot `i % (threads × 4)`,
    /// so a repeated scan hands every chunk a buffer that already fit it
    /// last time and allocates nothing ([`StoreReader::decode_reallocs`]).
    scratch: Box<[Mutex<DecodeScratch>]>,
}

/// Alias of [`StoreReader`], which is `Sync` and serves concurrent
/// callers through `&self`.
pub type SharedStoreReader = StoreReader;

/// A chunk decoded by [`StoreReader::fetch`], held for as long as the
/// caller reads it: in the chunk's scratch slot or, while another fetch
/// holds that slot, in a scratch of its own.
#[derive(Debug)]
pub struct PooledBatch<'a>(Scratch<'a>);

#[derive(Debug)]
enum Scratch<'a> {
    Slot(MutexGuard<'a, DecodeScratch>),
    Spare(DecodeScratch),
}

impl Deref for PooledBatch<'_> {
    type Target = ColumnBatch;

    fn deref(&self) -> &ColumnBatch {
        match &self.0 {
            Scratch::Slot(s) => s.batch(),
            Scratch::Spare(s) => s.batch(),
        }
    }
}

impl StoreReader {
    /// Opens a `.ptrc` file under [`ReadPolicy::Strict`].
    ///
    /// # Errors
    ///
    /// I/O errors, or a typed [`StoreError`] if the file is not a valid
    /// store.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with_policy(path, ReadPolicy::Strict)
    }

    /// Opens a `.ptrc` file under the given policy.
    ///
    /// # Errors
    ///
    /// As [`StoreReader::new_with_policy`].
    pub fn open_with_policy(
        path: impl AsRef<Path>,
        policy: ReadPolicy,
    ) -> Result<Self, StoreError> {
        Self::new_with_policy(File::open(path).map_err(StoreError::Io)?, policy)
    }

    /// Wraps a positional source under [`ReadPolicy::Strict`], validating
    /// the header and loading the footer index.
    ///
    /// # Errors
    ///
    /// I/O errors, or a typed [`StoreError`] if the bytes are not a valid
    /// store.
    pub fn new(src: impl ReadAt + 'static) -> Result<Self, StoreError> {
        Self::new_with_policy(src, ReadPolicy::Strict)
    }

    /// Wraps a positional source under the given policy, which stays fixed
    /// for the reader's life.
    ///
    /// Under [`ReadPolicy::Salvage`], a damaged footer/trailer does not
    /// fail the open: the file is rescanned and the index rebuilt from
    /// surviving chunks ([`StoreReader::salvage_summary`] reports what was
    /// recovered). The header (magic + version) must still be intact —
    /// without it there is no way to know how to interpret the bytes.
    ///
    /// # Errors
    ///
    /// I/O errors; a typed [`StoreError`] on corruption (under `Strict`)
    /// or on a damaged header (under either policy).
    pub fn new_with_policy(
        src: impl ReadAt + 'static,
        policy: ReadPolicy,
    ) -> Result<Self, StoreError> {
        let mut head = [0u8; HEADER_LEN];
        src.read_exact_at(&mut head, 0)
            .map_err(|_| StoreError::Truncated(".ptrc header"))?;
        if &head[..4] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = head[4];
        if !(VERSION_V1..=VERSION).contains(&version) {
            return Err(StoreError::UnsupportedVersion(version));
        }
        let file_len = src.size().map_err(StoreError::Io)?;
        let (footer, salvage) = match Self::load_footer_strict(&src, version, file_len) {
            Ok(footer) => (footer, None),
            Err(e) if policy == ReadPolicy::Salvage && e.is_corruption() => {
                let (footer, summary) = Self::rescan(&src, version, file_len, e.to_string())?;
                (footer, Some(summary))
            }
            Err(e) => return Err(e),
        };
        Ok(StoreReader {
            src: Box::new(src),
            file_len,
            version,
            policy,
            footer,
            salvage,
            chunks_decoded: AtomicU64::new(0),
            scratch: (0..SCRATCH_SLOTS).map(|_| Mutex::default()).collect(),
        })
    }

    /// Reads and fully validates the trailer, footer, and chunk index.
    fn load_footer_strict(
        src: &dyn ReadAt,
        version: u8,
        file_len: u64,
    ) -> Result<Footer, StoreError> {
        let tlen = trailer_len(version);
        if file_len < (HEADER_LEN + tlen) as u64 {
            return Err(StoreError::Truncated(".ptrc trailer"));
        }
        let mut trailer = vec![0u8; tlen];
        src.read_exact_at(&mut trailer, file_len - tlen as u64)
            .map_err(|_| StoreError::Truncated(".ptrc trailer"))?;
        if &trailer[tlen - 4..] != MAGIC {
            return Err(StoreError::Truncated("store (bad trailer magic)"));
        }
        let footer_start = u64::from_le_bytes(trailer[..8].try_into().expect("8 bytes"));
        let footer_end = file_len - tlen as u64;
        if footer_start < HEADER_LEN as u64 || footer_start > footer_end {
            return Err(StoreError::Corrupt("footer offset out of range".into()));
        }
        let mut footer_bytes = vec![0u8; (footer_end - footer_start) as usize];
        src.read_exact_at(&mut footer_bytes, footer_start)
            .map_err(|_| StoreError::Truncated("footer"))?;
        if version >= 2 {
            let expected = u32::from_le_bytes(trailer[8..12].try_into().expect("4 bytes"));
            let got = crc32(&footer_bytes);
            if got != expected {
                return Err(StoreError::FooterChecksumMismatch { expected, got });
            }
        }
        let footer = decode_footer(&footer_bytes, version)?;
        Self::validate_index(&footer, version, footer_start)?;
        Ok(footer)
    }

    /// Bounds-checks every chunk index entry so no later read can trust a
    /// hostile offset or length (a corrupt `byte_len` would otherwise turn
    /// into an unbounded allocation).
    fn validate_index(footer: &Footer, version: u8, footer_start: u64) -> Result<(), StoreError> {
        let header_extra = if version >= 2 { CHUNK_HEADER_LEN } else { 0 } as u64;
        let mut prev_end = HEADER_LEN as u64;
        for (i, c) in footer.chunks.iter().enumerate() {
            let start = c.offset;
            let end = start.checked_add(c.byte_len);
            let in_bounds = start >= prev_end + header_extra
                && end.is_some_and(|e| e <= footer_start)
                && c.count > 0
                && c.min_time_ns <= c.max_time_ns
                && c.min_block <= c.max_block
                && c.min_offset <= c.max_offset;
            if !in_bounds {
                return Err(StoreError::Corrupt(format!(
                    "chunk {i} index entry out of bounds"
                )));
            }
            prev_end = end.expect("checked above");
        }
        Ok(())
    }

    /// Rebuilds the footer from the file's surviving chunks. v2: scan for
    /// `PTCK` record headers, admitting payloads whose CRC and decode both
    /// pass. v1: walk payloads from the front, keeping the longest cleanly
    /// decoding prefix (v1 has no per-chunk framing to resynchronize on).
    fn rescan(
        src: &dyn ReadAt,
        version: u8,
        file_len: u64,
        reason: String,
    ) -> Result<(Footer, SalvageSummary), StoreError> {
        let mut data = vec![0u8; file_len as usize];
        src.read_exact_at(&mut data, 0).map_err(StoreError::Io)?;

        let mut chunks = Vec::new();
        let mut total_events = 0u64;
        let mut max_label: Option<u32> = None;
        let mut admit = |events: &[MemEvent], offset: usize, byte_len: usize, crc: u32| {
            let mut meta = meta_from_events(events);
            meta.offset = offset as u64;
            meta.byte_len = byte_len as u64;
            meta.crc32 = crc;
            total_events += events.len() as u64;
            for e in events {
                if let Some(op) = e.op_label {
                    max_label = Some(max_label.map_or(op, |m| m.max(op)));
                }
            }
            chunks.push(meta);
        };

        if version >= 2 {
            let mut pos = HEADER_LEN;
            while pos + CHUNK_HEADER_LEN <= data.len() {
                if &data[pos..pos + 4] != CHUNK_MAGIC.as_slice() {
                    pos += 1;
                    continue;
                }
                let len = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().expect("4 bytes"))
                    as usize;
                let crc = u32::from_le_bytes(data[pos + 8..pos + 12].try_into().expect("4 bytes"));
                let start = pos + CHUNK_HEADER_LEN;
                let Some(end) = start.checked_add(len).filter(|&e| e <= data.len()) else {
                    pos += 1;
                    continue;
                };
                let payload = &data[start..end];
                if crc32(payload) != crc {
                    pos += 1;
                    continue;
                }
                match crate::format::decode_chunk(payload, version) {
                    Ok(events) if !events.is_empty() => {
                        admit(&events, start, len, crc);
                        pos = end;
                    }
                    _ => pos += 1,
                }
            }
        } else {
            let mut pos = HEADER_LEN;
            while pos < data.len() {
                match decode_chunk_prefix(&data[pos..], version) {
                    Ok((events, consumed)) if !events.is_empty() => {
                        admit(&events, pos, consumed, 0);
                        pos += consumed;
                    }
                    _ => break,
                }
            }
        }

        // events may reference op-label ids whose table died with the
        // footer; synthesize placeholders so they stay resolvable
        let labels_synthesized = max_label.is_some();
        let labels = match max_label {
            Some(max) => (0..=max).map(|i| format!("lost-label:{i}")).collect(),
            None => Vec::new(),
        };
        let summary = SalvageSummary {
            chunks_recovered: chunks.len(),
            events_recovered: total_events,
            labels_synthesized,
            markers_lost: true,
            reason,
        };
        let footer = Footer {
            labels,
            markers: Vec::new(),
            chunks,
            total_events,
        };
        Ok((footer, summary))
    }

    /// The read policy, fixed at open.
    pub fn policy(&self) -> ReadPolicy {
        self.policy
    }

    /// The store's format version byte.
    pub fn version(&self) -> u8 {
        self.version
    }

    /// Present when the open had to rebuild the index by rescanning.
    pub fn salvage_summary(&self) -> Option<&SalvageSummary> {
        self.salvage.as_ref()
    }

    /// The footer: labels, markers, and the chunk index.
    pub fn footer(&self) -> &Footer {
        &self.footer
    }

    /// Total store size in bytes.
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.footer.chunks.len()
    }

    /// Total events across all chunks.
    pub fn total_events(&self) -> u64 {
        self.footer.total_events
    }

    /// Cumulative count of chunks this reader has fetched for decode,
    /// across all threads.
    pub fn chunks_decoded(&self) -> u64 {
        self.chunks_decoded.load(Ordering::Relaxed)
    }

    /// Cumulative count of buffer growths across the reader's decode
    /// slots. Once a scan has warmed them, repeating the same scan at the
    /// same thread count leaves this unchanged — the
    /// zero-allocations-per-chunk property the acceptance tests assert.
    pub fn decode_reallocs(&self) -> u64 {
        self.scratch
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .realloc_count()
            })
            .sum()
    }

    /// Chunk `i`'s index entry.
    fn chunk_meta(&self, i: usize) -> Result<ChunkMeta, StoreError> {
        self.footer
            .chunks
            .get(i)
            .copied()
            .ok_or(StoreError::ChunkOutOfRange {
                chunk: i,
                chunks: self.footer.chunks.len(),
            })
    }

    /// Reads chunk `i`'s payload into `buf`, which the caller sized to the
    /// entry's `byte_len` (bounds-checked against the file at open, so
    /// the buffer is capped by the file size).
    fn read_payload(&self, i: usize, meta: &ChunkMeta, buf: &mut [u8]) -> Result<(), StoreError> {
        self.chunks_decoded.fetch_add(1, Ordering::Relaxed);
        let _read_span = pinpoint_obs::tracer().span_with("store.read", i as u64);
        self.src
            .read_exact_at(buf, meta.offset)
            .map_err(StoreError::Io)
    }

    /// Reads and decodes chunk `i` into the caller's scratch, verifying
    /// the CRC (v2+) and the event count against the index. Strict about
    /// *this* chunk regardless of policy — skip-and-account iteration
    /// lives in the scans ([`crate::scan_ordered`]).
    ///
    /// Counts toward [`StoreReader::chunks_decoded`].
    ///
    /// # Errors
    ///
    /// I/O errors, [`StoreError::ChunkOutOfRange`], or a typed corruption
    /// error.
    pub fn decode_chunk_into(
        &self,
        i: usize,
        scratch: &mut DecodeScratch,
    ) -> Result<ChunkMeta, StoreError> {
        let meta = self.chunk_meta(i)?;
        self.read_payload(i, &meta, scratch.raw_for(meta.byte_len as usize))?;
        scratch.decode_verified(&meta, i, self.version, self.version >= 2)?;
        Ok(meta)
    }

    /// Reads, verifies, and decodes chunk `i` into an owned
    /// [`ColumnBatch`] — the cache-fill path, where the decoded columns
    /// outlive any scratch.
    ///
    /// # Errors
    ///
    /// As [`StoreReader::decode_chunk_into`].
    pub fn decode_chunk(&self, i: usize) -> Result<ColumnBatch, StoreError> {
        let mut scratch = DecodeScratch::new();
        self.decode_chunk_into(i, &mut scratch)?;
        Ok(scratch.into_batch())
    }

    /// Reads, verifies, and decodes chunk `i` into owned events.
    ///
    /// # Errors
    ///
    /// As [`StoreReader::decode_chunk_into`].
    pub fn decode_chunk_events(&self, i: usize) -> Result<Vec<MemEvent>, StoreError> {
        Ok(self.decode_chunk(i)?.to_events())
    }

    /// The chunk fetch of a `threads`-wide scan over this reader, for
    /// [`crate::scan_ordered`] and the fused engine's `run_chunks`:
    /// chunk `i` decodes into scratch slot `i % (threads × 4)` — the same
    /// slot on every scan — and holds it until the returned
    /// [`PooledBatch`] drops. A chunk whose slot is busy (a colliding
    /// chunk of the same wave, or a concurrent scan) decodes into a fresh
    /// scratch instead of waiting.
    pub fn fetch<'a>(
        &'a self,
        threads: usize,
    ) -> impl Fn(usize, &ChunkMeta) -> Result<PooledBatch<'a>, StoreError> + Sync + 'a {
        let slots = wave_len(threads).min(self.scratch.len());
        move |i, _| {
            let mut held = match self.scratch[i % slots].try_lock() {
                Ok(slot) => Scratch::Slot(slot),
                // every decode rewrites the slot, so a panic mid-decode
                // cannot leave it unusable
                Err(TryLockError::Poisoned(slot)) => Scratch::Slot(slot.into_inner()),
                Err(TryLockError::WouldBlock) => Scratch::Spare(DecodeScratch::new()),
            };
            let scratch = match &mut held {
                Scratch::Slot(s) => &mut **s,
                Scratch::Spare(s) => s,
            };
            self.decode_chunk_into(i, scratch)?;
            Ok(PooledBatch(held))
        }
    }

    /// Reads the raw encoded payloads of a batch of chunks, in the given
    /// order. Every returned chunk counts toward
    /// [`StoreReader::chunks_decoded`].
    ///
    /// # Errors
    ///
    /// I/O errors, or [`StoreError::ChunkOutOfRange`].
    pub fn read_chunk_batch(&self, indices: &[usize]) -> Result<Vec<Vec<u8>>, StoreError> {
        indices
            .iter()
            .map(|&i| {
                let meta = self.chunk_meta(i)?;
                let mut buf = vec![0u8; meta.byte_len as usize];
                self.read_payload(i, &meta, &mut buf)?;
                Ok(buf)
            })
            .collect()
    }

    /// Streams every event, in trace order, through `f` — one chunk
    /// resident at a time, never the full trace. Under
    /// [`ReadPolicy::Salvage`], corrupt chunks are silently skipped (use
    /// [`StoreReader::query`] or [`StoreReader::scrub_into`] when the loss
    /// accounting matters).
    ///
    /// # Errors
    ///
    /// I/O errors; corruption errors under [`ReadPolicy::Strict`].
    pub fn for_each_event(&self, mut f: impl FnMut(MemEvent)) -> Result<(), StoreError> {
        scan_ordered(
            &self.footer.chunks,
            &Predicate::any(),
            1,
            self.policy,
            self.fetch(1),
            |_, batch| batch.to_events(),
            |_, events| events.into_iter().for_each(&mut f),
        )?;
        Ok(())
    }

    /// Runs a filtered query: prunes chunks via the footer index, decodes
    /// the survivors (fanned out over `threads` worker threads when
    /// `threads > 1`), and filters events — [`crate::query_chunks`] over
    /// this reader's [`fetch`](Self::fetch). Output order — and every
    /// byte of it, including the salvage loss accounting — is identical
    /// at every thread count, from any number of concurrent callers.
    ///
    /// # Errors
    ///
    /// I/O errors; corruption errors under [`ReadPolicy::Strict`].
    pub fn query(&self, pred: &Predicate, threads: usize) -> Result<QueryResult, StoreError> {
        let _query_span = pinpoint_obs::tracer().span("store.query");
        query_chunks(
            &self.footer.chunks,
            pred,
            threads,
            self.policy,
            self.fetch(threads),
        )
    }

    /// Verifies every chunk (CRC on v2, full decode on both versions)
    /// without keeping events, returning one [`ChunkFault`] per bad chunk.
    /// An empty result means the store's event data is fully intact.
    ///
    /// # Errors
    ///
    /// I/O errors only — corruption is the *result*, not a failure.
    pub fn verify_chunks(&self) -> Result<Vec<ChunkFault>, StoreError> {
        let mut scratch = DecodeScratch::new();
        let mut faults = Vec::new();
        for i in 0..self.num_chunks() {
            match self.decode_chunk_into(i, &mut scratch) {
                Ok(_) => {}
                Err(e) if e.is_corruption() => faults.push(ChunkFault {
                    chunk: i,
                    events_lost: self.footer.chunks[i].count,
                    error: e.to_string(),
                }),
                Err(e) => return Err(e),
            }
        }
        Ok(faults)
    }

    /// Rewrites this store's surviving content into `out`, dropping
    /// corrupt chunks (regardless of policy — scrubbing *is* the salvage).
    /// Labels are preserved; markers are re-emitted with their event
    /// indices remapped past any lost ranges (a marker inside a lost range
    /// lands at the boundary). The caller finishes `out` when done.
    ///
    /// # Errors
    ///
    /// I/O errors from either side.
    pub fn scrub_into<W: Write>(&self, out: &mut StoreWriter<W>) -> Result<ScrubStats, StoreError> {
        for l in &self.footer.labels {
            out.intern_label(l);
        }
        // each chunk's first position in the original event stream: the
        // markers of a lost range are emitted by the next kept chunk (or
        // the final flush) at the boundary position — the remap we want
        let starts: Vec<u64> = self
            .footer
            .chunks
            .iter()
            .scan(0, |at, c| Some(std::mem::replace(at, *at + c.count)))
            .collect();
        let markers = &self.footer.markers;
        let mut next_marker = 0usize;
        let stats = scan_ordered(
            &self.footer.chunks,
            &Predicate::any(),
            1,
            ReadPolicy::Salvage,
            self.fetch(1),
            |_, batch| batch.to_events(),
            |i, events| {
                for (orig_index, e) in (starts[i]..).zip(events) {
                    while markers
                        .get(next_marker)
                        .is_some_and(|m| m.event_index as u64 <= orig_index)
                    {
                        let m = &markers[next_marker];
                        out.record_marker(m.time_ns, &m.label);
                        next_marker += 1;
                    }
                    out.record_event(e);
                }
            },
        )?;
        for m in &markers[next_marker..] {
            out.record_marker(m.time_ns, &m.label);
        }
        Ok(ScrubStats {
            chunks_total: stats.chunks_total,
            chunks_kept: stats.chunks_decoded,
            chunks_skipped: stats.chunks_skipped,
            events_kept: stats.events_scanned,
            events_lost: stats.events_lost,
            first_error: stats.first_error,
        })
    }

    /// Materializes the full in-memory [`Trace`] (events, markers, label
    /// table) — the bridge back to every existing `&Trace` analysis.
    ///
    /// Under [`ReadPolicy::Salvage`], corrupt chunks are skipped and any
    /// marker pointing past the surviving events is clamped to the end of
    /// the stream.
    ///
    /// # Errors
    ///
    /// I/O errors; corruption errors under [`ReadPolicy::Strict`].
    pub fn read_trace(&self) -> Result<Trace, StoreError> {
        let mut trace = Trace::new();
        for l in &self.footer.labels {
            trace.intern_label(l);
        }
        self.for_each_event(|e| trace.push(e))?;
        for m in &self.footer.markers {
            let mut m = m.clone();
            if m.event_index > trace.len() {
                if self.policy != ReadPolicy::Salvage {
                    return Err(StoreError::Corrupt(format!(
                        "marker `{}` points past the event stream",
                        m.label
                    )));
                }
                m.event_index = trace.len();
            }
            trace.push_marker(m);
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{write_store_chunked, write_store_chunked_v1, StoreWriter};
    use pinpoint_trace::{BlockId, EventKind, MemoryKind, TraceSink};

    fn sample_trace() -> Trace {
        let mut t = Trace::new();
        let op = t.intern_label("op.k");
        for i in 0..100u64 {
            t.record(
                i * 10,
                EventKind::Malloc,
                BlockId(i),
                (i as usize + 1) * 16,
                (i as usize) * 64,
                MemoryKind::Activation,
                None,
            );
            t.record(
                i * 10 + 5,
                EventKind::Write,
                BlockId(i),
                (i as usize + 1) * 16,
                (i as usize) * 64,
                MemoryKind::Activation,
                Some(op),
            );
            if i % 10 == 0 {
                t.mark(i * 10, format!("iter:{}", i / 10));
            }
        }
        t
    }

    fn store_bytes(trace: &Trace, chunk_events: usize) -> Vec<u8> {
        let mut out = Vec::new();
        write_store_chunked(trace, &mut out, chunk_events).unwrap();
        out
    }

    #[test]
    fn round_trips_trace_exactly() {
        let t = sample_trace();
        let bytes = store_bytes(&t, 16);
        let r = StoreReader::new(bytes).unwrap();
        assert_eq!(r.version(), VERSION);
        assert_eq!(r.total_events(), t.len() as u64);
        let back = r.read_trace().unwrap();
        assert_eq!(back.events(), t.events());
        assert_eq!(back.markers(), t.markers());
        assert_eq!(back.labels(), t.labels());
    }

    #[test]
    fn a_fetch_that_cancels_aborts_a_scan_and_leaves_the_reader_usable() {
        use crate::cancel::CancelToken;
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        use std::sync::Arc;
        let t = sample_trace();
        let bytes = store_bytes(&t, 16);
        // salvage mode must also abort, not skip-and-account
        for policy in [ReadPolicy::Strict, ReadPolicy::Salvage] {
            let r = StoreReader::new_with_policy(bytes.clone(), policy).unwrap();
            let full = r.query(&Predicate::any(), 1).unwrap().events.len();
            let index = &r.footer().chunks;
            let cancelled_query = |token: CancelToken| {
                let fetch = r.fetch(1);
                crate::scan::query_chunks(index, &Predicate::any(), 1, policy, |i, m| {
                    token.check()?;
                    fetch(i, m)
                })
            };

            // fire after the first fetch: the scan must stop mid-store
            let polls = Arc::new(AtomicU64::new(0));
            let token = {
                let polls = Arc::clone(&polls);
                CancelToken::new(move || polls.fetch_add(1, Ordering::Relaxed) >= 1)
            };
            let before = r.chunks_decoded();
            let err = cancelled_query(token).unwrap_err();
            assert!(matches!(err, StoreError::Cancelled), "{policy:?}: {err}");
            assert!(
                r.chunks_decoded() - before < r.num_chunks() as u64,
                "{policy:?}: the cancelled scan decoded the whole store"
            );

            // the reader answers fully again, bit-identically
            assert_eq!(r.query(&Predicate::any(), 1).unwrap().events.len(), full);

            // an armed-but-quiet token costs nothing and cancels nothing
            let flag = Arc::new(AtomicBool::new(false));
            let quiet = {
                let flag = Arc::clone(&flag);
                CancelToken::new(move || flag.load(Ordering::Relaxed))
            };
            assert_eq!(cancelled_query(quiet).unwrap().events.len(), full);
        }
    }

    #[test]
    fn v1_stores_still_read_exactly() {
        let t = sample_trace();
        let mut bytes = Vec::new();
        write_store_chunked_v1(&t, &mut bytes, 16).unwrap();
        let r = StoreReader::new(bytes).unwrap();
        assert_eq!(r.version(), VERSION_V1);
        assert_eq!(r.read_trace().unwrap(), t);
    }

    #[test]
    fn time_range_query_prunes_chunks() {
        let t = sample_trace(); // 200 events, times 0..=995
        let bytes = store_bytes(&t, 16);
        let r = StoreReader::new(bytes).unwrap();
        let pred = Predicate::any().with_time_range(0, 50);
        let q = r.query(&pred, 1).unwrap();
        assert!(q.stats.chunks_total > 4);
        assert!(
            q.stats.chunks_decoded <= 2,
            "tiny time window should decode at most a chunk or two, got {:?}",
            q.stats
        );
        let expect: Vec<_> = t
            .events()
            .iter()
            .filter(|e| e.time_ns <= 50)
            .cloned()
            .collect();
        assert_eq!(q.events, expect);
    }

    #[test]
    fn queries_are_thread_count_invariant() {
        let t = sample_trace();
        let bytes = store_bytes(&t, 8);
        let preds = [
            Predicate::any(),
            Predicate::any().with_kind(EventKind::Write),
            Predicate::any().with_block_range(10, 20),
            Predicate::any().with_min_size(800),
            Predicate::any()
                .with_time_range(100, 700)
                .with_category(Category::Intermediates),
        ];
        for pred in preds {
            let r1 = StoreReader::new(bytes.clone()).unwrap();
            let rn = StoreReader::new(bytes.clone()).unwrap();
            let a = r1.query(&pred, 1).unwrap();
            let b = rn.query(&pred, 8).unwrap();
            assert_eq!(a, b, "{pred:?}");
            let expect: Vec<_> = t
                .events()
                .iter()
                .filter(|e| pred.matches_event(e))
                .cloned()
                .collect();
            assert_eq!(a.events, expect, "{pred:?}");
        }
    }

    #[test]
    fn category_and_kind_pushdown_skip_disjoint_chunks() {
        // chunk 1: parameters only; chunk 2: input only
        let mut t = Trace::new();
        for i in 0..8u64 {
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
        for i in 8..16u64 {
            t.record(
                i,
                EventKind::Read,
                BlockId(i - 8),
                64,
                0,
                MemoryKind::Weight,
                None,
            );
        }
        let bytes = store_bytes(&t, 8);
        let r = StoreReader::new(bytes).unwrap();
        let q = r
            .query(&Predicate::any().with_kind(EventKind::Read), 1)
            .unwrap();
        assert_eq!(q.stats.chunks_total, 2);
        assert_eq!(q.stats.chunks_pruned, 1);
        assert_eq!(q.events.len(), 8);
        let q = r
            .query(&Predicate::any().with_category(Category::InputData), 1)
            .unwrap();
        assert_eq!(q.stats.chunks_decoded, 0, "no input-data chunk at all");
        assert!(q.events.is_empty());
    }

    #[test]
    fn predicate_union_is_a_sound_hull() {
        let a = Predicate::any()
            .with_time_range(0, 100)
            .with_kind(EventKind::Malloc)
            .with_min_size(512);
        let b = Predicate::any()
            .with_time_range(400, 900)
            .with_kind(EventKind::Free)
            .with_min_size(64);
        let u = a.union(&b);
        assert_eq!(u.time_range, Some((0, 900)));
        assert_eq!(
            u.kind_mask,
            Some(kind_bit(EventKind::Malloc) | kind_bit(EventKind::Free))
        );
        assert_eq!(u.min_size, Some(64));
        // a field either side leaves open is open in the union
        assert_eq!(u.block_range, None);
        assert_eq!(u.category_mask, None);
        // match-everything absorbs anything
        assert_eq!(a.union(&Predicate::any()), Predicate::any());
        // the hull matches every chunk either operand matches
        let t = sample_trace();
        let bytes = store_bytes(&t, 8);
        let r = StoreReader::new(bytes).unwrap();
        for meta in &r.footer().chunks {
            if a.matches_chunk(meta) || b.matches_chunk(meta) {
                assert!(u.matches_chunk(meta), "{meta:?}");
            }
        }
    }

    #[test]
    fn chunk_batch_read_matches_per_chunk_decode_and_counts() {
        let t = sample_trace();
        let bytes = store_bytes(&t, 16);
        let r = StoreReader::new(bytes.clone()).unwrap();
        let picks = [0usize, 3, 1];
        let raw = r.read_chunk_batch(&picks).unwrap();
        assert_eq!(r.chunks_decoded(), picks.len() as u64);
        let r2 = StoreReader::new(bytes).unwrap();
        for (bytes, &i) in raw.iter().zip(&picks) {
            assert_eq!(
                crate::format::decode_chunk(bytes, VERSION).unwrap(),
                r2.decode_chunk_events(i).unwrap(),
                "chunk {i}"
            );
        }
        assert!(r.read_chunk_batch(&[usize::MAX]).is_err());
    }

    #[test]
    fn rejects_corrupt_stores_with_typed_errors() {
        let t = sample_trace();
        let bytes = store_bytes(&t, 16);
        // bad magic
        let mut b = bytes.clone();
        b[0] = b'X';
        assert!(matches!(StoreReader::new(b), Err(StoreError::BadMagic)));
        // bad version
        let mut b = bytes.clone();
        b[4] = 99;
        assert!(matches!(
            StoreReader::new(b),
            Err(StoreError::UnsupportedVersion(99))
        ));
        // truncated trailer
        let b = bytes[..bytes.len() - 3].to_vec();
        assert!(StoreReader::new(b).is_err());
        // not a store at all
        assert!(matches!(
            StoreReader::new(b"{\"events\":[]}".to_vec()),
            Err(StoreError::BadMagic)
        ));
    }

    #[test]
    fn flipped_chunk_byte_is_a_checksum_error_in_strict() {
        let t = sample_trace();
        let bytes = store_bytes(&t, 16);
        let r = StoreReader::new(bytes.clone()).unwrap();
        let meta = r.footer().chunks[2];
        let mut b = bytes;
        b[meta.offset as usize + 3] ^= 0x40;
        let r = StoreReader::new(b).unwrap();
        match r.decode_chunk_events(2) {
            Err(StoreError::ChecksumMismatch { chunk: 2, .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn salvage_query_skips_corrupt_chunks_with_exact_accounting() {
        let t = sample_trace();
        let bytes = store_bytes(&t, 16);
        let pristine = StoreReader::new(bytes.clone()).unwrap();
        let broken = 3usize;
        let meta = pristine.footer().chunks[broken];
        let mut b = bytes;
        b[meta.offset as usize] ^= 0xFF;

        let r = StoreReader::new_with_policy(b, ReadPolicy::Salvage).unwrap();
        assert!(r.salvage_summary().is_none(), "footer is fine");
        let q = r.query(&Predicate::any(), 1).unwrap();
        assert_eq!(q.stats.chunks_skipped, 1);
        assert_eq!(q.stats.events_lost, meta.count);
        assert!(q.stats.first_error.as_deref().unwrap().contains("chunk 3"));
        let expect: Vec<_> = t
            .events()
            .iter()
            .enumerate()
            .filter(|(i, _)| !(broken * 16..(broken + 1) * 16).contains(i))
            .map(|(_, e)| e.clone())
            .collect();
        assert_eq!(q.events, expect);
        // bit-identical accounting at several threads
        let q4 = r.query(&Predicate::any(), 4).unwrap();
        assert_eq!(q, q4);
    }

    #[test]
    fn salvage_rebuilds_index_from_chunks_when_footer_dies() {
        let t = sample_trace();
        let bytes = store_bytes(&t, 16);
        let pristine = StoreReader::new(bytes.clone()).unwrap();
        let n_chunks = pristine.num_chunks();
        let footer_start = pristine
            .footer()
            .chunks
            .last()
            .map(|c| c.offset + c.byte_len)
            .unwrap() as usize;
        // kill the whole footer + trailer
        let b = bytes[..footer_start].to_vec();

        assert!(StoreReader::new(b.clone()).is_err());
        let r = StoreReader::new_with_policy(b, ReadPolicy::Salvage).unwrap();
        let s = r.salvage_summary().unwrap().clone();
        assert_eq!(s.chunks_recovered, n_chunks);
        assert_eq!(s.events_recovered, t.len() as u64);
        assert!(s.markers_lost);
        assert!(s.labels_synthesized, "events reference op labels");
        let back = r.read_trace().unwrap();
        assert_eq!(back.events(), t.events());
        assert!(back.markers().is_empty());
    }

    #[test]
    fn salvage_of_truncated_v1_store_recovers_the_intact_prefix() {
        let t = sample_trace();
        let mut bytes = Vec::new();
        write_store_chunked_v1(&t, &mut bytes, 16).unwrap();
        let pristine = StoreReader::new(bytes.clone()).unwrap();
        let chunks = pristine.footer().chunks.clone();
        // cut mid-way through chunk 4
        let cut = (chunks[4].offset + chunks[4].byte_len / 2) as usize;
        let b = bytes[..cut].to_vec();
        let r = StoreReader::new_with_policy(b, ReadPolicy::Salvage).unwrap();
        assert_eq!(r.salvage_summary().unwrap().chunks_recovered, 4);
        let back = r.read_trace().unwrap();
        assert_eq!(back.events(), &t.events()[..4 * 16]);
    }

    #[test]
    fn scrub_drops_corrupt_chunks_and_remaps_markers() {
        let t = sample_trace();
        let bytes = store_bytes(&t, 16);
        let pristine = StoreReader::new(bytes.clone()).unwrap();
        let broken = 1usize;
        let meta = pristine.footer().chunks[broken];
        let mut b = bytes;
        b[meta.offset as usize + 1] ^= 0x08;

        let r = StoreReader::new_with_policy(b, ReadPolicy::Salvage).unwrap();
        let mut w = StoreWriter::with_chunk_events(Vec::new(), 16).unwrap();
        let stats = r.scrub_into(&mut w).unwrap();
        w.finish().unwrap();
        assert_eq!(stats.chunks_kept, stats.chunks_total - 1);
        assert_eq!(stats.chunks_skipped, 1);
        assert_eq!(stats.events_kept, t.len() as u64 - meta.count);
        assert_eq!(stats.events_lost, meta.count);

        let back = StoreReader::new(w.into_inner()).unwrap();
        assert!(back.verify_chunks().unwrap().is_empty());
        let scrubbed = back.read_trace().unwrap();
        let expect: Vec<_> = t
            .events()
            .iter()
            .enumerate()
            .filter(|(i, _)| !(broken * 16..(broken + 1) * 16).contains(i))
            .map(|(_, e)| e.clone())
            .collect();
        assert_eq!(scrubbed.events(), expect);
        assert_eq!(scrubbed.markers().len(), t.markers().len());
        // markers originally inside/after the lost range moved left by one
        // chunk of events; none point past the stream
        for m in scrubbed.markers() {
            assert!(m.event_index <= scrubbed.len());
        }
    }

    #[test]
    fn verify_chunks_pinpoints_damage() {
        let t = sample_trace();
        let bytes = store_bytes(&t, 16);
        let pristine = StoreReader::new(bytes.clone()).unwrap();
        let metas = pristine.footer().chunks.clone();
        let mut b = bytes;
        for broken in [2usize, 5] {
            b[metas[broken].offset as usize + 2] ^= 0x01;
        }
        let r = StoreReader::new(b).unwrap();
        let faults = r.verify_chunks().unwrap();
        assert_eq!(
            faults.iter().map(|f| f.chunk).collect::<Vec<_>>(),
            vec![2, 5]
        );
        assert_eq!(faults[0].events_lost, metas[2].count);
        assert!(faults[0].error.contains("checksum"));
    }

    #[test]
    fn streaming_writer_and_batch_writer_agree() {
        let t = sample_trace();
        let batch = store_bytes(&t, 16);
        let mut w = StoreWriter::with_chunk_events(Vec::new(), 16).unwrap();
        for l in t.labels() {
            w.intern_label(l);
        }
        let mut next_marker = 0usize;
        for (i, e) in t.events().iter().enumerate() {
            while next_marker < t.markers().len() && t.markers()[next_marker].event_index <= i {
                let m = &t.markers()[next_marker];
                w.record_marker(m.time_ns, &m.label);
                next_marker += 1;
            }
            w.record_event(e.clone());
        }
        w.finish().unwrap();
        assert_eq!(w.into_inner(), batch, "same bytes either way");
    }

    #[test]
    fn eight_concurrent_queries_are_bit_identical() {
        let t = sample_trace();
        let r = std::sync::Arc::new(StoreReader::new(store_bytes(&t, 16)).unwrap());
        let pred = Predicate::any()
            .with_kind(EventKind::Write)
            .with_time_range(0, 1000);
        let want = r.query(&pred, 1).unwrap();
        let results: Vec<QueryResult> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|k| {
                    let r = std::sync::Arc::clone(&r);
                    s.spawn(move || r.query(&pred, 1 + k % 3).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for got in results {
            assert_eq!(got, want, "concurrent query diverged");
        }
        assert!(r.chunks_decoded() > 0);
    }

    #[test]
    fn strict_fails_where_salvage_skips_with_accounting() {
        let t = sample_trace();
        let bytes = store_bytes(&t, 16);
        let pristine = StoreReader::new(bytes.clone()).unwrap();
        let meta = pristine.footer().chunks[2];
        let mut b = bytes;
        b[meta.offset as usize + 1] ^= 0x10;
        let salvage = StoreReader::new_with_policy(b.clone(), ReadPolicy::Salvage).unwrap();
        let want = salvage.query(&Predicate::any(), 1).unwrap();
        assert_eq!(want.stats.chunks_skipped, 1);
        assert_eq!(salvage.query(&Predicate::any(), 4).unwrap(), want);
        // strict sees the same bytes as an error instead
        let strict = StoreReader::new(b).unwrap();
        assert!(strict.query(&Predicate::any(), 1).is_err());
    }

    #[test]
    fn owned_decode_matches_event_stream_and_counts() {
        let t = sample_trace();
        let r = StoreReader::new(store_bytes(&t, 16)).unwrap();
        let mut all = Vec::new();
        for i in 0..r.num_chunks() {
            let batch = r.decode_chunk(i).unwrap();
            assert!(batch.heap_bytes() > 0);
            for k in 0..batch.len() {
                all.push(batch.event(k));
            }
        }
        assert_eq!(all, t.events());
        assert_eq!(r.chunks_decoded(), r.num_chunks() as u64);
        assert!(r.decode_chunk(usize::MAX).is_err());
    }
}
