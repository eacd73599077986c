//! Shared deterministic executor for the attacker-side data plane.
//!
//! Every parallel loop in this crate — candidate scoring in the
//! extend-and-prune attack, the per-trace `FFT(c)` recomputation during
//! acquisition, the per-trace screening gates, the NTT guess sweep —
//! runs through this one std-only executor instead of growing its own
//! `thread::scope` fan-out. The design goals, in order:
//!
//! 1. **Bit-identical results at any thread count.** Work is split into
//!    fixed-size chunks addressed by a shared atomic index; each chunk's
//!    results are reassembled strictly in chunk order, so neither the
//!    thread count nor the OS scheduler can reorder a single
//!    floating-point operation relative to the serial execution of the
//!    same chunks.
//! 2. **No `R: Default + Clone` bound.** Results travel back through a
//!    channel as `(chunk index, Vec<R>)` pairs rather than being written
//!    into a pre-filled output buffer, so plain data types need no
//!    dummy-value constructor (the old `attack::parallel_map` hack).
//! 3. **Reproducible benches.** The worker count is overridable — by the
//!    `FALCON_DEMA_THREADS` environment variable for whole-process runs
//!    (CI's determinism matrix leg) and by [`set_threads`] for in-process
//!    sweeps (the determinism test runs the same campaign at 1, 2 and N
//!    threads and asserts identical keys and checkpoints).
//!
//! The executor itself handles no key material, so it carries no
//! `// ct: secret` regions; the constant-time gates are unaffected by
//! scheduling. Its items are attacker-known values (public `FFT(c)`
//! operands, captured samples, candidate guesses) and armed device
//! captures, whose radiation step is the simulated victim's own code.

use crate::error::{Error, Result};
use crate::obs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, OnceLock};

/// Below this many items a map stays on the calling thread: the spawn
/// plus channel round-trip costs more than the work. The cheapest items
/// that are worth two workers are the extend's eight-guess blocks: a
/// beam level of 512 guesses is 64 of them.
const PAR_THRESHOLD: usize = 64;

/// Smallest chunk handed to a worker; keeps the atomic index and the
/// per-chunk `Vec` overhead invisible next to the chunk's own work.
const MIN_CHUNK: usize = 32;

/// In-process worker-count override; `0` means "not set" (fall back to
/// the environment, then the hardware).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Metric handles for the executor, resolved once.
struct ExecMetrics {
    /// Maps that fanned out across worker threads.
    fanout: Arc<obs::Counter>,
    /// Maps that stayed on the calling thread.
    serial: Arc<obs::Counter>,
    /// Worker threads used by the most recent fan-out.
    threads: Arc<obs::Gauge>,
    /// Chunks dispatched across all fan-outs.
    chunks: Arc<obs::Counter>,
    /// Worker panics captured (and surfaced as typed errors).
    panics: Arc<obs::Counter>,
}

fn exec_metrics() -> &'static ExecMetrics {
    static M: OnceLock<ExecMetrics> = OnceLock::new();
    M.get_or_init(|| ExecMetrics {
        fanout: obs::counter("exec.fanout"),
        serial: obs::counter("exec.serial"),
        threads: obs::gauge("exec.threads"),
        chunks: obs::counter("exec.chunks"),
        panics: obs::counter("exec.panics"),
    })
}

/// Converts a captured panic payload into the typed executor error.
fn panicked(chunk: usize, payload: Box<dyn std::any::Any + Send>) -> Error {
    exec_metrics().panics.incr();
    let payload = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    Error::WorkerPanicked { chunk, payload }
}

/// The `FALCON_DEMA_THREADS` value at first use (cached: the executor
/// sits on hot paths and `std::env::var` takes a lock), parsed by
/// [`parse_threads`].
fn env_threads() -> &'static std::result::Result<Option<usize>, String> {
    static ENV: OnceLock<std::result::Result<Option<usize>, String>> = OnceLock::new();
    // ct: allow(opt-in worker-count knob, read once and cached)
    ENV.get_or_init(|| parse_threads(&std::env::var("FALCON_DEMA_THREADS").unwrap_or_default()))
}

/// A `FALCON_DEMA_THREADS` value: `None` when empty (unset), else the
/// count; a value that is not a count comes back as the error.
fn parse_threads(value: &str) -> std::result::Result<Option<usize>, String> {
    match value.trim() {
        "" => Ok(None),
        count => count.parse().map(Some).map_err(|_| value.to_string()),
    }
}

/// Rejects a `FALCON_DEMA_SIMD` or `FALCON_DEMA_THREADS` value that
/// names nothing ([`Error::Env`]), from the same parse, cached at first
/// use, that the kernel dispatcher and the executor read. Without this
/// check a misspelt value runs the default (`auto` kernels, every
/// core), so the bins call it at start and exit 2 on the error.
pub fn check_env() -> Result<()> {
    if let Err(value) = crate::cpa::simd::env_choice() {
        let (var, expected) = ("FALCON_DEMA_SIMD", "off, scalar or auto");
        return Err(Error::Env { var, value: value.clone(), expected });
    }
    if let Err(value) = env_threads() {
        let (var, expected) = ("FALCON_DEMA_THREADS", "a thread count");
        return Err(Error::Env { var, value: value.clone(), expected });
    }
    Ok(())
}

/// The worker count the executor will use for the next fan-out:
/// [`set_threads`] override, else `FALCON_DEMA_THREADS`, else
/// [`std::thread::available_parallelism`]. Never zero.
pub fn threads() -> usize {
    let explicit = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if explicit > 0 {
        return explicit;
    }
    if let Ok(Some(env)) = env_threads() {
        if *env > 0 {
            return *env;
        }
    }
    std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1)
}

/// Overrides the worker count for this process (`0` clears the override
/// and returns to the environment/hardware default). Intended for
/// reproducible benches and the determinism tests; takes precedence over
/// `FALCON_DEMA_THREADS`.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Maps `f` over `items`, preserving order, on up to [`threads`] workers.
///
/// The output is bit-identical to `items.iter().map(f).collect()` for
/// any deterministic `f`, at every thread count.
///
/// # Panics
///
/// Re-raises a panic from `f` on the calling thread (see
/// [`map_with`]).
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_with(items, || (), move |(), item| f(item))
}

/// Like [`map`], but each worker first builds a private scratch state
/// with `make` and threads it through its calls — the allocation-free
/// pattern behind the attack's hypothesis buffers (one scratch `Vec` per
/// worker for the whole sweep instead of one per candidate).
///
/// Determinism contract: `f` must not let results depend on the scratch
/// *history* (treat it as an uninitialised buffer each call); under that
/// contract the output is bit-identical at every thread count.
///
/// # Panics
///
/// Re-raises a panic from `f` on the calling thread. The panic is first
/// *captured* in the worker (so sibling workers stop cleanly and the
/// scope join never aborts the process) and then resumed here.
pub fn map_with<T, S, R, M, F>(items: &[T], make: M, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    M: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    match try_map_with(items, make, f) {
        Ok(out) => out,
        Err(Error::WorkerPanicked { chunk, payload }) => std::panic::resume_unwind(Box::new(
            format!("exec worker panicked on chunk {chunk}: {payload}"),
        )),
        Err(e) => unreachable!("try_map_with only fails on worker panics: {e}"),
    }
}

/// The body of [`map_with`]: a panic in `f` is captured and returned as
/// [`Error::WorkerPanicked`] naming the first (lowest-index) panicked
/// work unit; remaining chunks are abandoned promptly. `chunk` is the
/// parallel chunk index, or the item index when the map ran serially
/// (small input or one worker).
fn try_map_with<T, S, R, M, F>(items: &[T], make: M, f: F) -> Result<Vec<R>>
where
    T: Sync,
    R: Send,
    M: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let workers = threads();
    let m = exec_metrics();
    if workers == 1 || items.len() < PAR_THRESHOLD {
        m.serial.incr();
        let mut state = make();
        let mut out = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            // The scratch state is discarded wholesale on a panic, so
            // observing it half-updated is impossible.
            match catch_unwind(AssertUnwindSafe(|| f(&mut state, item))) {
                Ok(r) => out.push(r),
                Err(p) => return Err(panicked(i, p)),
            }
        }
        return Ok(out);
    }
    // Chunks a few times smaller than a fair share give the atomic index
    // something to load-balance with; MIN_CHUNK bounds the bookkeeping.
    let chunk = (items.len().div_ceil(4 * workers)).max(MIN_CHUNK);
    let n_chunks = items.len().div_ceil(chunk);
    let workers = workers.min(n_chunks);
    m.fanout.incr();
    m.threads.set(workers as f64);
    m.chunks.add(n_chunks as u64);
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    type ChunkResult<R> = (usize, std::result::Result<Vec<R>, Box<dyn std::any::Any + Send>>);
    let (tx, rx) = mpsc::channel::<ChunkResult<R>>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let failed = &failed;
            let f = &f;
            let make = &make;
            scope.spawn(move || {
                let mut state = make();
                loop {
                    if failed.load(Ordering::Relaxed) {
                        break;
                    }
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    if c >= n_chunks {
                        break;
                    }
                    let lo = c * chunk;
                    let hi = (lo + chunk).min(items.len());
                    // A panicked chunk poisons only this worker's scratch
                    // state, which dies with the worker: the panic stops
                    // this worker's loop, so the state is never reused.
                    let out = catch_unwind(AssertUnwindSafe(|| {
                        items[lo..hi].iter().map(|item| f(&mut state, item)).collect::<Vec<R>>()
                    }));
                    let bad = out.is_err();
                    if tx.send((c, out)).is_err() {
                        break;
                    }
                    if bad {
                        failed.store(true, Ordering::Relaxed);
                        break;
                    }
                }
            });
        }
    });
    drop(tx);
    // All workers joined at scope exit; drain and reassemble in chunk
    // order — the step that makes scheduling invisible in the output.
    let mut parts: Vec<ChunkResult<R>> = rx.try_iter().collect();
    parts.sort_unstable_by_key(|p| p.0);
    let mut out = Vec::with_capacity(items.len());
    for (c, part) in parts {
        match part {
            Ok(mut v) => out.append(&mut v),
            // Lowest-index panic wins (sorted order); later chunks may be
            // missing entirely once the failure flag stopped the pool.
            Err(p) => return Err(panicked(c, p)),
        }
    }
    debug_assert_eq!(out.len(), items.len(), "every chunk must report exactly once");
    Ok(out)
}

/// Runs `f` under a temporary worker-count override, restoring the
/// previous override afterwards even on panic. Unit tests that pin the
/// worker count share one lock, so none of them sees another's
/// override.
#[cfg(test)]
pub(crate) fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.store(self.0, Ordering::Relaxed);
        }
    }
    let _guard = Restore(THREAD_OVERRIDE.swap(n, Ordering::Relaxed));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_counts_are_accepted_and_other_values_rejected() {
        assert_eq!(parse_threads(""), Ok(None));
        assert_eq!(parse_threads(" 2 "), Ok(Some(2)));
        assert_eq!(parse_threads("0"), Ok(Some(0)));
        for bad in ["two", "-1", "2.5"] {
            assert_eq!(parse_threads(bad), Err(bad.to_string()));
        }
        let e = Error::Env { var: "FALCON_DEMA_THREADS", value: "two".into(), expected: "a count" };
        assert!(e.to_string().starts_with("FALCON_DEMA_THREADS=\"two\""), "{e}");
    }

    // `ct_lint` note: this module processes attacker-known data only
    // (candidate guesses, public operands, measured samples), so the
    // refactor introduces no new `// ct: secret` regions — the
    // workspace-wide zero-new-violations gate in
    // `crates/ct/tests/workspace_lint.rs` enforces exactly that.

    #[test]
    fn map_preserves_order_and_values() {
        let items: Vec<u64> = (0..10_000).collect();
        let want: Vec<u64> = items.iter().map(|&v| v.wrapping_mul(2654435761)).collect();
        for threads in [1, 2, 3, 8] {
            let got = with_threads(threads, || map(&items, |&v| v.wrapping_mul(2654435761)));
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn float_accumulation_is_bit_identical_across_thread_counts() {
        // Each item does its own chain of non-associative arithmetic;
        // the executor must not change a single bit of any result.
        let items: Vec<f64> = (0..5000).map(|i| 1.0 + (i as f64) * 1e-3).collect();
        let score = |&x: &f64| {
            let mut acc = 0f64;
            let mut v = x;
            for _ in 0..50 {
                v = v * 1.0000001 + 0.1;
                acc += v * v;
            }
            acc
        };
        let serial: Vec<u64> =
            with_threads(1, || map(&items, score)).into_iter().map(f64::to_bits).collect();
        for threads in [2, 5, 16] {
            let par: Vec<u64> = with_threads(threads, || map(&items, score))
                .into_iter()
                .map(f64::to_bits)
                .collect();
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn map_with_reuses_worker_scratch() {
        let items: Vec<usize> = (0..4096).collect();
        let got = with_threads(4, || {
            map_with(&items, Vec::<f64>::new, |scratch, &i| {
                scratch.clear();
                scratch.extend((0..8).map(|j| (i * 8 + j) as f64));
                scratch.iter().sum::<f64>()
            })
        });
        for (i, &v) in got.iter().enumerate() {
            let want: f64 = (0..8).map(|j| (i * 8 + j) as f64).sum();
            assert_eq!(v, want);
        }
    }

    #[test]
    fn small_inputs_stay_serial() {
        // Below the threshold nothing spawns; this is a behavioural
        // contract (tiny beam levels must not pay fan-out latency). Each
        // item records its thread: the fan-out counter is process-global
        // and other tests fan out concurrently.
        let before = obs::metrics().snapshot();
        let items: Vec<u32> = (0..PAR_THRESHOLD as u32 - 1).collect();
        let caller = std::thread::current().id();
        let ran_on = with_threads(8, || map(&items, |_| std::thread::current().id()));
        assert_eq!(ran_on, vec![caller; items.len()]);
        let after = obs::metrics().snapshot();
        assert!(after.counter_delta(&before, "exec.serial") >= 1);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: Vec<u8> = Vec::new();
        assert!(map(&items, |&v| v).is_empty());
        assert!(map_with(&items, || 0u64, |_, &v| v).is_empty());
    }

    #[test]
    fn single_item_maps_at_any_thread_count() {
        for threads in [1, 2, 8] {
            let got = with_threads(threads, || map(&[41u32], |&v| v + 1));
            assert_eq!(got, vec![42], "threads={threads}");
        }
    }

    #[test]
    fn fewer_items_than_threads_is_correct() {
        let items: Vec<u32> = (0..3).collect();
        let got = with_threads(16, || map(&items, |&v| v * 10));
        assert_eq!(got, vec![0, 10, 20]);
    }

    #[test]
    fn more_workers_than_chunks_is_clamped() {
        // At exactly PAR_THRESHOLD items with a large override, chunking
        // produces fewer chunks than requested workers; the executor must
        // clamp rather than spawn idle threads, and the output must still
        // be exact.
        let items: Vec<u64> = (0..PAR_THRESHOLD as u64).collect();
        let want: Vec<u64> = items.iter().map(|&v| v * 3 + 1).collect();
        let before = obs::metrics().snapshot();
        let got = with_threads(64, || map(&items, |&v| v * 3 + 1));
        assert_eq!(got, want);
        let after = obs::metrics().snapshot();
        assert!(after.counter_delta(&before, "exec.fanout") >= 1);
    }

    #[test]
    fn map_with_is_bit_identical_across_thread_counts() {
        // A contract-abiding `f` (scratch treated as uninitialised per
        // call) must see no difference between serial and fan-out runs,
        // even though workers reuse scratch across many chunks.
        let items: Vec<u64> = (0..4096).collect();
        let run = |threads: usize| {
            with_threads(threads, || {
                map_with(&items, Vec::<f64>::new, |scratch, &i| {
                    scratch.clear();
                    scratch.extend((0..16).map(|j| 1.0 + ((i * 16 + j) as f64) * 1e-9));
                    scratch.iter().fold(0f64, |a, &b| a.mul_add(1.0000001, b)).to_bits()
                })
            })
        };
        let serial = run(1);
        for threads in [2, 7, 32] {
            assert_eq!(run(threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn thread_override_is_visible() {
        with_threads(3, || assert_eq!(threads(), 3));
    }

    /// Silences the default panic hook for the duration of `f` so the
    /// deliberate worker panics below do not spam the test output.
    fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = f();
        std::panic::set_hook(prev);
        r
    }

    #[test]
    fn worker_panic_is_a_typed_error_not_an_abort() {
        let items: Vec<u64> = (0..4096).collect();
        let r = quiet_panics(|| {
            with_threads(4, || {
                try_map_with(
                    &items,
                    || (),
                    |(), &v| {
                        assert!(v != 1000, "injected fault at {v}");
                        v
                    },
                )
            })
        });
        match r {
            Err(Error::WorkerPanicked { chunk, payload }) => {
                // Item 1000 lives in a deterministic chunk for this shape.
                let chunk_size = (items.len().div_ceil(4 * 4)).max(MIN_CHUNK);
                assert_eq!(chunk, 1000 / chunk_size);
                assert!(payload.contains("injected fault"), "payload: {payload}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn serial_panic_reports_the_item_index() {
        let items: Vec<u64> = (0..16).collect();
        let r = quiet_panics(|| {
            with_threads(1, || try_map_with(&items, || (), |(), &v| assert!(v != 7)))
        });
        match r {
            Err(Error::WorkerPanicked { chunk: 7, payload }) => {
                assert!(payload.contains("v != 7"), "payload: {payload}");
            }
            other => panic!("expected WorkerPanicked at item 7, got {other:?}"),
        }
    }

    #[test]
    fn lowest_panicked_chunk_wins() {
        // Two injected faults: the typed error must name the lower chunk
        // regardless of which worker hit its fault first.
        let items: Vec<u64> = (0..8192).collect();
        let r = quiet_panics(|| {
            with_threads(8, || try_map_with(&items, || (), |(), &v| assert!(v != 100 && v != 8000)))
        });
        let chunk_size = (items.len().div_ceil(4 * 8)).max(MIN_CHUNK);
        match r {
            Err(Error::WorkerPanicked { chunk, .. }) => {
                assert!(
                    chunk <= 100 / chunk_size,
                    "reported chunk {chunk} is later than the first fault"
                );
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn map_resumes_the_panic_on_the_caller() {
        let items: Vec<u64> = (0..4096).collect();
        let r = quiet_panics(|| {
            catch_unwind(AssertUnwindSafe(|| {
                with_threads(4, || map(&items, |&v| assert!(v != 2000)))
            }))
        });
        let payload = r.expect_err("map must panic when a worker panics");
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("exec worker panicked"), "payload: {msg}");
    }

    #[test]
    fn try_map_succeeds_and_matches_map() {
        let items: Vec<u64> = (0..4096).collect();
        let want = with_threads(4, || map(&items, |&v| v * 7 + 1));
        let got = with_threads(4, || try_map_with(&items, || (), |(), &v| v * 7 + 1)).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn pool_recovers_after_a_panicked_map() {
        // A panicked map must leave the executor fully usable: the next
        // map over the same thread configuration is exact.
        let items: Vec<u64> = (0..4096).collect();
        let _ = quiet_panics(|| {
            with_threads(4, || try_map_with(&items, || (), |(), &v| assert!(v != 5)))
        });
        let got = with_threads(4, || map(&items, |&v| v + 1));
        let want: Vec<u64> = items.iter().map(|&v| v + 1).collect();
        assert_eq!(got, want);
    }
}
