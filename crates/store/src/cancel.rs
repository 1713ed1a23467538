//! Cooperative cancellation for long scans.
//!
//! A [`CancelToken`] is a cheap, cloneable predicate ("should this work
//! stop now?") that a scan's chunk fetch polls before each chunk
//! ([`CancelToken::check`] inside the fetch closure handed to
//! [`crate::scan_ordered`] or the fused engine). It exists so a caller
//! with a deadline — the serving tier's per-request budget — can abandon
//! a doomed scan mid-store instead of decoding every remaining chunk for
//! an answer nobody will read. Cancellation is **cooperative**: nothing
//! is interrupted mid-chunk, so a cancelled scan leaves the reader and
//! its scratch slots in a perfectly reusable state.
//!
//! Cancellation surfaces as [`StoreError::Cancelled`], which is
//! deliberately classified as *neither* corruption nor I/O: salvage mode
//! must not swallow it (the store is fine — the caller gave up), and it
//! must not be mistaken for a bad disk.

use crate::error::StoreError;
use std::fmt;
use std::sync::Arc;

/// A shareable "stop now?" predicate polled by chunk fetches.
///
/// The default token ([`CancelToken::never`]) never fires and costs one
/// `Option` check per poll, so un-deadlined callers pay nothing
/// measurable.
#[derive(Clone, Default)]
pub struct CancelToken {
    check: Option<Arc<dyn Fn() -> bool + Send + Sync>>,
}

impl CancelToken {
    /// A token that never cancels — the default for every reader.
    pub fn never() -> Self {
        CancelToken { check: None }
    }

    /// Wraps an arbitrary predicate; `f` returning `true` means "stop".
    /// The predicate is polled from chunk fetches (possibly from several
    /// threads) and must be cheap.
    pub fn new(f: impl Fn() -> bool + Send + Sync + 'static) -> Self {
        CancelToken {
            check: Some(Arc::new(f)),
        }
    }

    /// Whether the token has fired.
    pub fn is_cancelled(&self) -> bool {
        self.check.as_ref().is_some_and(|f| f())
    }

    /// Checkpoint form: `Err(StoreError::Cancelled)` once fired.
    ///
    /// # Errors
    ///
    /// [`StoreError::Cancelled`] when the token has fired.
    pub fn check(&self) -> Result<(), StoreError> {
        if self.is_cancelled() {
            Err(StoreError::Cancelled)
        } else {
            Ok(())
        }
    }
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CancelToken")
            .field("armed", &self.check.is_some())
            .field("cancelled", &self.is_cancelled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn never_token_never_fires() {
        let t = CancelToken::never();
        assert!(!t.is_cancelled());
        assert!(t.check().is_ok());
        assert!(!CancelToken::default().is_cancelled());
    }

    #[test]
    fn armed_token_fires_when_the_predicate_does() {
        let flag = Arc::new(AtomicBool::new(false));
        let t = {
            let flag = Arc::clone(&flag);
            CancelToken::new(move || flag.load(Ordering::Relaxed))
        };
        let clone = t.clone();
        assert!(t.check().is_ok());
        flag.store(true, Ordering::Relaxed);
        assert!(t.is_cancelled());
        assert!(clone.is_cancelled(), "clones share the predicate");
        assert!(matches!(t.check(), Err(StoreError::Cancelled)));
    }

    #[test]
    fn cancelled_is_neither_corruption_nor_io() {
        assert!(!StoreError::Cancelled.is_corruption());
    }
}
