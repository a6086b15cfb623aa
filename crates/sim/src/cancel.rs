//! The cancellation token long-running work polls: the simulator's event
//! loop, a search's chain, a served job.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A flag shared by every clone of the token, plus an optional deadline.
/// The token is set once [`cancel`](Self::cancel) was called on any clone
/// or the deadline has passed. Work that sees it set stops early, and what
/// it returns is for the token's holder to discard.
#[derive(Clone, Debug, Default)]
pub struct Cancel {
    /// `None` for [`never`](Self::never).
    flag: Option<Arc<AtomicBool>>,
    deadline: Option<Instant>,
}

impl Cancel {
    /// The token nothing can set — the default wherever a token rides.
    pub fn never() -> Self {
        Self::default()
    }

    /// A token set by [`cancel`](Self::cancel), or once `deadline` passes.
    pub fn new(deadline: Option<Instant>) -> Self {
        Self {
            flag: Some(Arc::default()),
            deadline,
        }
    }

    /// Sets the token for every clone (a [`never`](Self::never) one stays unset).
    pub fn cancel(&self) {
        if let Some(flag) = &self.flag {
            flag.store(true, Ordering::Relaxed);
        }
    }

    /// Whether the work should stop. Reads the clock only when the token
    /// has a deadline.
    pub fn is_set(&self) -> bool {
        self.flag
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}
