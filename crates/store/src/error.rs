//! Typed errors for the `.ptrc` store.
//!
//! Every decode path returns [`StoreError`] so callers can distinguish "the
//! file is damaged *here*, in *this* way" from plain I/O failures. The
//! variants carry enough detail (chunk ordinal, expected/observed checksum,
//! which structure was truncated) to drive the salvage reader and to print
//! actionable diagnostics from `pinpoint-trace-tool info --verify`.
//!
//! `StoreError` converts losslessly into `io::Error` (the typed value is
//! preserved as the source, so downstream code can downcast), so `?`
//! carries it through `io::Result` code without flattening it to a string.

use std::error::Error;
use std::fmt;
use std::io;

/// Everything that can go wrong reading or writing a `.ptrc` store.
#[derive(Debug)]
pub enum StoreError {
    /// The file does not start with the `PTRC` magic.
    BadMagic,
    /// The version byte is not a format version this build understands.
    UnsupportedVersion(u8),
    /// The file ends before the named structure is complete.
    Truncated(&'static str),
    /// A varint is malformed (runs past the buffer or exceeds 64 bits).
    BadVarint(&'static str),
    /// The v2 footer checksum does not match the stored footer bytes.
    FooterChecksumMismatch {
        /// CRC-32 recorded in the trailer.
        expected: u32,
        /// CRC-32 computed over the footer bytes actually on disk.
        got: u32,
    },
    /// A chunk payload fails its CRC-32 (v2 stores).
    ChecksumMismatch {
        /// Zero-based chunk ordinal within the store.
        chunk: usize,
        /// CRC-32 recorded for the chunk.
        expected: u32,
        /// CRC-32 computed over the payload bytes actually on disk.
        got: u32,
    },
    /// A chunk decoded cleanly but holds a different number of events than
    /// the index claims.
    CountMismatch {
        /// Zero-based chunk ordinal within the store.
        chunk: usize,
        /// Event count recorded in the chunk index.
        indexed: u64,
        /// Event count actually decoded from the payload.
        decoded: u64,
    },
    /// A chunk ordinal is outside the store's chunk index.
    ChunkOutOfRange {
        /// The requested chunk ordinal.
        chunk: usize,
        /// Number of chunks the store actually has.
        chunks: usize,
    },
    /// Structurally malformed content that does not fit a narrower variant.
    Corrupt(String),
    /// The caller's [`CancelToken`](crate::CancelToken) fired mid-scan:
    /// the bytes are fine, the work was abandoned. Deliberately neither
    /// corruption (salvage must not swallow it) nor I/O.
    Cancelled,
    /// An underlying I/O error (distinct from corruption: salvage mode skips
    /// corrupt chunks but still propagates I/O failures).
    Io(io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::BadMagic => write!(f, "not a .ptrc store (bad magic)"),
            StoreError::UnsupportedVersion(v) => {
                write!(f, "unsupported .ptrc version {v}")
            }
            StoreError::Truncated(what) => write!(f, "truncated {what}"),
            StoreError::BadVarint(what) => write!(f, "malformed varint in {what}"),
            StoreError::FooterChecksumMismatch { expected, got } => write!(
                f,
                "footer checksum mismatch (expected {expected:#010x}, got {got:#010x})"
            ),
            StoreError::ChecksumMismatch {
                chunk,
                expected,
                got,
            } => write!(
                f,
                "chunk {chunk} checksum mismatch (expected {expected:#010x}, got {got:#010x})"
            ),
            StoreError::CountMismatch {
                chunk,
                indexed,
                decoded,
            } => write!(
                f,
                "chunk {chunk} count mismatch (index says {indexed}, decoded {decoded})"
            ),
            StoreError::ChunkOutOfRange { chunk, chunks } => {
                write!(f, "chunk {chunk} out of range (store has {chunks})")
            }
            StoreError::Corrupt(msg) => write!(f, "corrupt store: {msg}"),
            StoreError::Cancelled => write!(f, "scan cancelled (deadline exceeded)"),
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<StoreError> for io::Error {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Io(inner) => inner,
            other => io::Error::new(io::ErrorKind::InvalidData, other),
        }
    }
}

impl StoreError {
    /// True for damage in the bytes themselves (checksum, truncation,
    /// malformed structure) as opposed to a failure of the underlying
    /// reader/writer — or of the caller's patience. Salvage mode skips
    /// corruption but never I/O errors or cancellation.
    pub fn is_corruption(&self) -> bool {
        !matches!(self, StoreError::Io(_) | StoreError::Cancelled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_round_trip_preserves_the_typed_error() {
        let e = StoreError::ChecksumMismatch {
            chunk: 3,
            expected: 0xDEAD_BEEF,
            got: 0x1234_5678,
        };
        let io_err: io::Error = e.into();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidData);
        let inner = io_err
            .get_ref()
            .and_then(|s| s.downcast_ref::<StoreError>())
            .expect("source preserved");
        assert!(matches!(
            inner,
            StoreError::ChecksumMismatch { chunk: 3, .. }
        ));
    }

    #[test]
    fn io_variant_unwraps_to_the_original_error() {
        let e = StoreError::Io(io::Error::new(io::ErrorKind::TimedOut, "slow disk"));
        let io_err: io::Error = e.into();
        assert_eq!(io_err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn corruption_classification() {
        assert!(StoreError::BadMagic.is_corruption());
        assert!(StoreError::Truncated("footer").is_corruption());
        assert!(!StoreError::Io(io::Error::other("x")).is_corruption());
        // a salvage fold must abort on cancellation, never skip-and-account
        assert!(!StoreError::Cancelled.is_corruption());
    }

    #[test]
    fn display_is_informative() {
        let msg = StoreError::ChecksumMismatch {
            chunk: 7,
            expected: 1,
            got: 2,
        }
        .to_string();
        assert!(msg.contains("chunk 7"), "{msg}");
        assert!(msg.contains("0x00000001"), "{msg}");
    }
}
