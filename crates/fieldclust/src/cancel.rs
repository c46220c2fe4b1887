//! Cooperative cancellation for staged analysis runs.
//!
//! A long-running [`AnalysisSession`](crate::AnalysisSession) is built
//! from coarse stages (segment → dedup → matrix → autoconf → cluster →
//! refine), each of which can take seconds on a large trace. The
//! serving daemon needs to abandon a job when its client cancels it or
//! its deadline passes — without poisoning shared state and without
//! preemption. [`CancelToken`] is the handshake: the owner hands a
//! clone to the session, the session polls it *between* stages (and
//! between the outer rows of the quadratic message-alignment build, never
//! inside a kernel), and a tripped token surfaces as
//! [`PipelineError::Cancelled`](crate::PipelineError::Cancelled) /
//! [`MessageTypeError::Cancelled`](crate::msgtype::MessageTypeError::Cancelled).
//! Artifacts computed before the trip stay cached, so a retried job
//! resumes where the cancelled one stopped.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Default)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A cloneable cancellation handle checked between pipeline stages.
///
/// Trips either explicitly ([`cancel`](Self::cancel)) or implicitly
/// when a construction-time deadline passes. Clones share state, so
/// any holder can cancel every other holder's view.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token that only trips on an explicit [`cancel`](Self::cancel).
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that additionally trips once `deadline` has passed.
    pub fn with_deadline(deadline: Instant) -> Self {
        Self {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// Trips the token; every clone observes the cancellation.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether the token has tripped (explicitly or by deadline).
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
            || self.inner.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Whether this trip was caused by the deadline rather than an
    /// explicit cancel (used for reporting; both read as cancelled).
    pub fn deadline_expired(&self) -> bool {
        self.inner.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn explicit_cancel_is_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
        assert!(!clone.deadline_expired(), "no deadline was set");
    }

    #[test]
    fn deadline_trips_without_an_explicit_cancel() {
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(token.is_cancelled());
        assert!(token.deadline_expired());
        let future = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!future.is_cancelled());
    }
}
