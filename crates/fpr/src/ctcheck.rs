//! Control-flow trace hooks for the constant-time checker (`falcon-ct`).
//!
//! With the `ct-check` feature enabled, the arithmetic primitives mark
//! every control-flow site they execute — function entries, loop bodies,
//! pack points — by calling [`site`]; code whose memory addressing could
//! depend on data additionally calls [`index`]. The `falcon-ct` dynamic
//! checker arms a thread-local recorder, runs a primitive over
//! fixed-vs-random secret operand classes, and demands that the recorded
//! site sequence (the *trace signature*) is identical for every run: a
//! secret-dependent branch, early return or data-dependent loop trip
//! count shows up as a signature mismatch.
//!
//! Without the feature the hooks are empty `#[inline(always)]` functions
//! and compile to nothing; with the feature but no armed recorder on any
//! thread each hook is a single relaxed atomic load (the same
//! cheap-off-path pattern as `falcon_obs::emit`). Arming is per thread:
//! concurrent checkers on different threads record independently.

/// Trace site identifiers, one per instrumented control-flow location.
///
/// Values are stable API: the `falcon-ct` self-tests assert on specific
/// sequences, and renumbering would invalidate recorded signatures.
pub mod sites {
    /// `Fpr::mul` entry.
    pub const MUL: u32 = 0x10;
    /// `Fpr::add` entry.
    pub const ADD: u32 = 0x20;
    /// `Fpr::div` entry.
    pub const DIV: u32 = 0x30;
    /// One restoring-division iteration (must appear exactly 56 times).
    pub const DIV_LOOP: u32 = 0x31;
    /// `Fpr::sqrt` entry.
    pub const SQRT: u32 = 0x40;
    /// One restoring-square-root iteration (must appear exactly 55 times).
    pub const SQRT_LOOP: u32 = 0x41;
    /// `Fpr::expm_p63` entry.
    pub const EXPM: u32 = 0x50;
    /// One Horner iteration of the exponential (fixed 20 repetitions).
    pub const EXPM_LOOP: u32 = 0x51;
    /// `Fpr::scaled` entry.
    pub const SCALED: u32 = 0x60;
    /// `Fpr::rint` entry.
    pub const RINT: u32 = 0x61;
    /// `Fpr::floor` entry.
    pub const FLOOR: u32 = 0x62;
    /// `Fpr::trunc` entry.
    pub const TRUNC: u32 = 0x63;
    /// `Fpr::to_fixed63` entry.
    pub const TO_FIXED63: u32 = 0x64;
    /// `Fpr::build` (pack) — terminates every arithmetic signature.
    pub const BUILD: u32 = 0x70;
    /// `Fpr::double` entry.
    pub const DOUBLE: u32 = 0x71;
    /// `Fpr::half` entry.
    pub const HALF: u32 = 0x72;
}

#[cfg(feature = "ct-check")]
mod imp {
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Process-wide fast gate: the number of threads currently armed.
    /// While it is zero (the default), hooks cost one relaxed load. It
    /// only gates the thread-local check: whether a site is recorded is
    /// decided by the executing thread's own recorder, so one thread's
    /// [`disarm`] never silences another thread's recording. `Relaxed`
    /// suffices: the counter publishes no data, and an armed thread
    /// always observes its own increment.
    static ARMED_THREADS: AtomicUsize = AtomicUsize::new(0);

    thread_local! {
        static TRACE: RefCell<Option<Vec<u32>>> = const { RefCell::new(None) };
    }

    /// Records an executed control-flow site (when armed on this thread).
    #[inline]
    pub fn site(id: u32) {
        if ARMED_THREADS.load(Ordering::Relaxed) != 0 {
            TRACE.with(|t| {
                if let Some(v) = t.borrow_mut().as_mut() {
                    v.push(id);
                }
            });
        }
    }

    /// Records a data-dependent memory access: the site and the index
    /// (address surrogate) both enter the signature, so secret-indexed
    /// lookups diverge across operand classes.
    #[inline]
    pub fn index(id: u32, idx: usize) {
        if ARMED_THREADS.load(Ordering::Relaxed) != 0 {
            TRACE.with(|t| {
                if let Some(v) = t.borrow_mut().as_mut() {
                    v.push(id);
                    v.push(idx as u32);
                }
            });
        }
    }

    /// Starts recording on the current thread with an empty trace
    /// (re-arming an armed thread restarts its trace).
    pub fn arm() {
        let was_armed = TRACE.with(|t| t.borrow_mut().replace(Vec::with_capacity(128)).is_some());
        if !was_armed {
            ARMED_THREADS.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Stops recording on the current thread and returns its trace
    /// (empty if the thread was not armed).
    pub fn disarm() -> Vec<u32> {
        match TRACE.with(|t| t.borrow_mut().take()) {
            Some(trace) => {
                ARMED_THREADS.fetch_sub(1, Ordering::Relaxed);
                trace
            }
            None => Vec::new(),
        }
    }
}

#[cfg(feature = "ct-check")]
pub use imp::{arm, disarm, index, site};

#[cfg(not(feature = "ct-check"))]
mod imp {
    /// No-op site marker (the `ct-check` feature is disabled).
    #[inline(always)]
    pub fn site(_id: u32) {}

    /// No-op index marker (the `ct-check` feature is disabled).
    #[inline(always)]
    pub fn index(_id: u32, _idx: usize) {}
}

#[cfg(not(feature = "ct-check"))]
pub use imp::{index, site};
