//! Cooperative cancellation for long-running solves.
//!
//! A [`CancelToken`] carries a cancel flag and an optional deadline.
//! Code that wants to be cancellable runs under [`with_token`] and
//! sprinkles [`checkpoint`] calls at natural boundaries (executor
//! round tops, fixer commit strides). When the active token is
//! cancelled — explicitly or because its deadline passed — the next
//! checkpoint unwinds back to `with_token`, which returns
//! [`Cancelled`] instead of a result. Scopes nest: a checkpoint trips
//! when any token installed on the thread trips, so an inner scope (a
//! solve's own deadline) never shadows an enclosing one (the job's).
//!
//! Checkpoints are bit-neutral: they never touch the computation's
//! state, so installing no token (the default) leaves every output
//! byte-identical to a build without checkpoints. The unwind is a
//! normal panic carrying a private sentinel; `with_token` catches only
//! that sentinel and resumes any other panic untouched.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The error returned by [`with_token`] when the computation was
/// abandoned at a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("computation cancelled at a checkpoint")
    }
}

impl std::error::Error for Cancelled {}

#[derive(Debug)]
struct Inner {
    flag: AtomicBool,
    deadline: Option<Instant>,
}

/// A shared cancellation handle: clone it freely, cancel it from any
/// thread, and the computation running under [`with_token`] observes
/// the request at its next [`checkpoint`].
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token that only cancels when [`cancel`](Self::cancel) is called.
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                flag: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that additionally trips once `deadline` has passed.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                flag: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// Requests cancellation; the running computation stops at its
    /// next checkpoint.
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Release);
    }

    /// Whether the token has been cancelled or its deadline passed.
    pub fn is_cancelled(&self) -> bool {
        self.inner.flag.load(Ordering::Acquire)
            || self.inner.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

thread_local! {
    /// The tokens of the enclosing [`with_token`] scopes, outermost first.
    static ACTIVE: RefCell<Vec<CancelToken>> = const { RefCell::new(Vec::new()) };
}

/// Uninstalls a scope's token even if `f` unwinds.
struct Restore(usize);

impl Drop for Restore {
    fn drop(&mut self) {
        ACTIVE.with(|a| a.borrow_mut().truncate(self.0));
    }
}

/// Runs `f` with `token` installed on the calling thread, inside any
/// tokens already installed there. Checkpoints inside `f` (on this
/// thread) observe `token` and every enclosing token; if one trips, `f`
/// is abandoned and `Err(Cancelled)` is returned. Panics other than the
/// cancellation sentinel propagate unchanged, and the enclosing tokens
/// alone stay installed either way.
///
/// # Errors
///
/// Returns [`Cancelled`] when the computation was abandoned at a
/// checkpoint because `token` or an enclosing token was cancelled or
/// its deadline passed.
pub fn with_token<R>(token: &CancelToken, f: impl FnOnce() -> R) -> Result<R, Cancelled> {
    let depth = ACTIVE.with(|a| {
        let mut active = a.borrow_mut();
        active.push(token.clone());
        active.len() - 1
    });
    let _restore = Restore(depth);
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(value) => Ok(value),
        Err(payload) => match payload.downcast::<Cancelled>() {
            Ok(_) => Err(Cancelled),
            Err(other) => std::panic::resume_unwind(other),
        },
    }
}

/// Cancellation checkpoint: if the calling thread runs under
/// [`with_token`] and any installed token is cancelled (or past its
/// deadline), unwinds back to the innermost `with_token`. A no-op — one
/// thread-local read — when no token is installed, and one read plus
/// one token check under a single scope, so checkpoints are free to
/// leave in hot loops and never perturb results.
pub fn checkpoint() {
    let tripped = ACTIVE.with(|a| a.borrow().iter().any(CancelToken::is_cancelled));
    if tripped {
        std::panic::panic_any(Cancelled);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn checkpoint_is_a_no_op_without_a_token() {
        checkpoint();
        let out = with_token(&CancelToken::new(), || {
            checkpoint();
            7
        });
        assert_eq!(out, Ok(7));
    }

    #[test]
    fn cancel_unwinds_at_the_next_checkpoint() {
        let token = CancelToken::new();
        token.cancel();
        let mut reached = false;
        let out = with_token(&token, || {
            checkpoint();
            reached = true;
        });
        assert_eq!(out, Err(Cancelled));
        assert!(!reached, "checkpoint must fire before later statements");
    }

    #[test]
    fn past_deadline_trips_without_an_explicit_cancel() {
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(token.is_cancelled());
        let out = with_token(&token, || {
            checkpoint();
        });
        assert_eq!(out, Err(Cancelled));
    }

    #[test]
    fn cancellation_from_another_thread_is_observed() {
        let token = CancelToken::new();
        let remote = token.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            remote.cancel();
        });
        let out = with_token(&token, || loop {
            checkpoint();
            std::thread::sleep(Duration::from_millis(1));
        });
        handle.join().expect("canceller joins");
        assert_eq!(out, Err(Cancelled));
    }

    #[test]
    fn previous_token_is_restored_after_nested_use() {
        let outer = CancelToken::new();
        let inner = CancelToken::new();
        inner.cancel();
        let out = with_token(&outer, || {
            let nested = with_token(&inner, checkpoint);
            assert_eq!(nested, Err(Cancelled));
            // the outer token is live again and not cancelled
            checkpoint();
            "ok"
        });
        assert_eq!(out, Ok("ok"));
    }

    #[test]
    fn a_cancelled_outer_token_stops_an_inner_scope() {
        let outer = CancelToken::new();
        outer.cancel();
        let mut reached = false;
        let out = with_token(&outer, || {
            // the inner token is live, but the enclosing one has tripped
            let nested = with_token(&CancelToken::new(), || {
                checkpoint();
                reached = true;
            });
            assert_eq!(nested, Err(Cancelled));
            "inner scope returned"
        });
        assert!(!reached, "the inner scope must stop at its checkpoint");
        assert_eq!(out, Ok("inner scope returned"));
        // both scopes are uninstalled again
        checkpoint();
    }

    #[test]
    fn foreign_panics_pass_through_unchanged() {
        let token = CancelToken::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = with_token(&token, || panic!("boom"));
        }));
        let payload = caught.expect_err("panic propagates");
        let text = payload.downcast_ref::<&str>().copied();
        assert_eq!(text, Some("boom"));
    }
}
