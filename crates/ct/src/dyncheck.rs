//! Dynamic constant-time checking: fixed-vs-random trace comparison.
//!
//! The static lint reasons about source text; this module checks the
//! *executed* control flow. Each `falcon-fpr` primitive is run many
//! times over two secret operand classes in the style of dudect:
//!
//! * **fixed** — the secret operand is one value drawn once;
//! * **random** — a fresh secret is drawn every run;
//!
//! while the public operand follows the same pseudorandom sequence in
//! both classes. With the `ct-check` feature the primitives record
//! every control-flow site they execute (see `falcon_fpr::ctcheck`);
//! a branch-free primitive produces the *same* site sequence — the
//! trace signature — on every run, so the checker simply demands
//! signature equality across all runs of both classes. Any
//! secret-dependent branch, early-out or data-dependent trip count
//! makes the random class diverge.
//!
//! [`fpr_mul_leaky`] is a deliberately leaky multiplication kept as a
//! detector fixture: the self-tests (and the `ct_dyn` binary) assert
//! that the checker flags it, guarding against the checker itself
//! rotting into a rubber stamp.

use crate::secret::Secret;
use falcon_fpr::{ctcheck, Fpr};

/// Configuration for a dynamic check run.
#[derive(Debug, Clone, Copy)]
pub struct DynConfig {
    /// Runs per operand class.
    pub iters: usize,
    /// PRNG seed; two runs with the same seed are bit-identical.
    pub seed: u64,
}

impl Default for DynConfig {
    fn default() -> DynConfig {
        DynConfig { iters: 256, seed: 0x5EED_C701_D5EC_0DE5 }
    }
}

/// Result of checking one primitive.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Primitive name (stable, used in reports).
    pub name: &'static str,
    /// Total runs executed (both classes).
    pub runs: usize,
    /// Length of the reference trace signature.
    pub sig_len: usize,
    /// Whether every run produced the identical signature.
    pub constant_time: bool,
    /// Empty when constant time; otherwise describes the divergence.
    pub detail: String,
}

/// xorshift64* — the same tiny deterministic generator the fpr fuzz
/// tests use; good enough to exercise operand classes, and dependency
/// free.
fn next(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// A random normal `Fpr` with unbiased exponent in `[lo_exp, hi_exp]`.
fn rand_fpr(state: &mut u64, lo_exp: i32, hi_exp: i32) -> Fpr {
    let r = next(state);
    let sign = r >> 63;
    let span = (hi_exp - lo_exp + 1) as u64;
    let exf = (1023 + lo_exp) as u64 + next(state) % span;
    let mant = r & ((1u64 << 52) - 1);
    Fpr::from_f64(f64::from_bits((sign << 63) | (exf << 52) | mant))
}

/// Like [`rand_fpr`] but non-negative (for `sqrt`, `expm_p63`).
fn rand_pos_fpr(state: &mut u64, lo_exp: i32, hi_exp: i32) -> Fpr {
    Fpr::from_f64(rand_fpr(state, lo_exp, hi_exp).to_f64().abs())
}

/// Runs one primitive over the fixed and random secret classes and
/// compares trace signatures.
///
/// `gen` draws an operand pair (secret, public) from the PRNG; `run`
/// executes the primitive. The fixed class reuses the first drawn
/// secret for every run; both classes see the same public sequence.
pub fn check_primitive<T: Copy>(
    name: &'static str,
    cfg: &DynConfig,
    mut gen: impl FnMut(&mut u64) -> (Secret<T>, T),
    mut run: impl FnMut(Secret<T>, T),
) -> Outcome {
    falcon_obs::counter("ct.dyn.checks").incr();
    let mut fixed_state = cfg.seed ^ 0xF1DE_F1DE_F1DE_F1DE;
    let (fixed_secret, _) = gen(&mut fixed_state);
    let mut state = cfg.seed;
    let mut reference: Option<Vec<u32>> = None;
    let mut runs = 0usize;
    for iter in 0..cfg.iters {
        let (random_secret, public) = gen(&mut state);
        for (class, secret) in [("fixed", fixed_secret), ("random", random_secret)] {
            ctcheck::arm();
            run(secret, public);
            let sig = ctcheck::disarm();
            runs += 1;
            match &reference {
                None => reference = Some(sig),
                Some(r) if *r != sig => {
                    falcon_obs::counter("ct.dyn.mismatches").incr();
                    return Outcome {
                        name,
                        runs,
                        sig_len: r.len(),
                        constant_time: false,
                        detail: format!(
                            "trace signature diverged on the {class} class at iteration {iter}: \
                             reference has {} sites, this run {}",
                            r.len(),
                            sig.len()
                        ),
                    };
                }
                Some(_) => {}
            }
        }
    }
    Outcome {
        name,
        runs,
        sig_len: reference.map(|r| r.len()).unwrap_or(0),
        constant_time: true,
        detail: String::new(),
    }
}

/// Checks every instrumented `falcon-fpr` primitive; all outcomes
/// should report `constant_time`.
pub fn check_all(cfg: &DynConfig) -> Vec<Outcome> {
    let fpr_pair = |lo: i32, hi: i32| {
        move |s: &mut u64| (Secret::new(rand_fpr(s, lo, hi)), rand_fpr(s, lo, hi))
    };
    vec![
        check_primitive("mul", cfg, fpr_pair(-100, 100), |x, y| {
            let _ = x.expose().mul(y);
        }),
        check_primitive("add", cfg, fpr_pair(-100, 100), |x, y| {
            let _ = x.expose().add(y);
        }),
        check_primitive("sub", cfg, fpr_pair(-100, 100), |x, y| {
            let _ = x.expose().sub(y);
        }),
        check_primitive("div (secret dividend)", cfg, fpr_pair(-100, 100), |x, y| {
            let _ = x.expose().div(y);
        }),
        check_primitive("div (secret divisor)", cfg, fpr_pair(-100, 100), |x, y| {
            let _ = y.div(x.expose());
        }),
        check_primitive(
            "sqr",
            cfg,
            |s| (Secret::new(rand_fpr(s, -100, 100)), Fpr::ZERO),
            |x, _| {
                let _ = x.expose().sqr();
            },
        ),
        check_primitive(
            "inv",
            cfg,
            |s| (Secret::new(rand_fpr(s, -100, 100)), Fpr::ZERO),
            |x, _| {
                let _ = x.expose().inv();
            },
        ),
        check_primitive(
            "sqrt",
            cfg,
            |s| (Secret::new(rand_pos_fpr(s, -200, 200)), Fpr::ZERO),
            |x, _| {
                let _ = x.expose().sqrt();
            },
        ),
        check_primitive(
            "scaled",
            cfg,
            |s| (Secret::new(next(s) as i64), (next(s) % 21) as i64 - 10),
            |i, sc| {
                let _ = Fpr::scaled(i.expose(), sc as i32);
            },
        ),
        check_primitive(
            "rint",
            cfg,
            |s| (Secret::new(rand_fpr(s, -60, 8)), Fpr::ZERO),
            |x, _| {
                let _ = x.expose().rint();
            },
        ),
        check_primitive(
            "floor",
            cfg,
            |s| (Secret::new(rand_fpr(s, -60, 8)), Fpr::ZERO),
            |x, _| {
                let _ = x.expose().floor();
            },
        ),
        check_primitive(
            "trunc",
            cfg,
            |s| (Secret::new(rand_fpr(s, -60, 8)), Fpr::ZERO),
            |x, _| {
                let _ = x.expose().trunc();
            },
        ),
        check_primitive(
            "expm_p63",
            cfg,
            |s| {
                // x in [0, ln 2), ccs in (0, 1] — the sampler's domain.
                let x = (next(s) as f64 / u64::MAX as f64) * 0.693;
                let ccs = 1.0 - (next(s) as f64 / u64::MAX as f64) * 0.999;
                (Secret::new((Fpr::from_f64(x), Fpr::from_f64(ccs))), (Fpr::ZERO, Fpr::ZERO))
            },
            |xc, _| {
                let (x, ccs) = xc.expose();
                let _ = x.expm_p63(ccs);
            },
        ),
        check_primitive(
            "half/double",
            cfg,
            |s| (Secret::new(rand_fpr(s, -100, 100)), Fpr::ZERO),
            |x, _| {
                let _ = x.expose().half();
                let _ = x.expose().double();
            },
        ),
    ]
}

/// The dynamically checked primitives paired with the `falcon-fpr`
/// functions that implement them — the bridge the site-map superset
/// test walks (see [`crate::sites::covers_primitive`]) to assert the
/// static leakage map subsumes everything this checker exercises.
/// Must stay in sync with [`check_all`].
pub const PRIMITIVE_FNS: [(&str, &[&str]); 14] = [
    ("mul", &["mul", "mul_observed"]),
    ("add", &["add"]),
    ("sub", &["sub"]),
    ("div (secret dividend)", &["div"]),
    ("div (secret divisor)", &["div"]),
    ("sqr", &["sqr"]),
    ("inv", &["inv"]),
    ("sqrt", &["sqrt"]),
    ("scaled", &["scaled"]),
    ("rint", &["rint"]),
    ("floor", &["floor"]),
    ("trunc", &["trunc"]),
    ("expm_p63", &["expm_p63"]),
    ("half/double", &["half", "double"]),
];

/// Site IDs for the leaky fixture (outside the real primitives' range).
pub const LEAKY_SITE_ODD: u32 = 0x9001;

/// A deliberately **leaky** multiplication: branches on the low mantissa
/// bit of the secret operand before delegating to the real (branch-free)
/// `Fpr::mul`. Exists solely so the checker has a known-bad input — it
/// must flag this function, or the harness itself is broken.
pub fn fpr_mul_leaky(x: Secret<Fpr>, y: Fpr) -> Fpr {
    let x = x.expose();
    if x.to_bits() & 1 == 1 {
        ctcheck::site(LEAKY_SITE_ODD);
    }
    x.mul(y)
}

/// Runs the checker against [`fpr_mul_leaky`]; the returned outcome is
/// expected to report `constant_time == false`.
pub fn check_leaky(cfg: &DynConfig) -> Outcome {
    check_primitive(
        "fpr_mul_leaky (detector fixture)",
        cfg,
        |s| (Secret::new(rand_fpr(s, -100, 100)), rand_fpr(s, -100, 100)),
        |x, y| {
            let _ = fpr_mul_leaky(x, y);
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_primitives_are_constant_time() {
        let cfg = DynConfig { iters: 64, ..DynConfig::default() };
        let outcomes = check_all(&cfg);
        assert_eq!(outcomes.len(), 14, "primitive coverage regressed");
        for outcome in outcomes {
            assert!(
                outcome.constant_time,
                "{}: {} (after {} runs)",
                outcome.name, outcome.detail, outcome.runs
            );
            assert!(outcome.sig_len > 0, "{}: empty signature — hooks not armed?", outcome.name);
        }
    }

    #[test]
    fn leaky_fixture_is_flagged() {
        let out = check_leaky(&DynConfig { iters: 64, ..DynConfig::default() });
        assert!(!out.constant_time, "checker failed to flag the leaky fixture");
    }

    #[test]
    fn signatures_have_expected_loop_counts() {
        use falcon_fpr::ctcheck::sites;
        let x = Fpr::from_f64(3.5);
        let y = Fpr::from_f64(-1.25);
        ctcheck::arm();
        let _ = x.div(y);
        let sig = ctcheck::disarm();
        assert_eq!(sig.iter().filter(|&&s| s == sites::DIV_LOOP).count(), 56);
        ctcheck::arm();
        let _ = x.sqrt();
        let sig = ctcheck::disarm();
        assert_eq!(sig.iter().filter(|&&s| s == sites::SQRT_LOOP).count(), 55);
    }

    #[test]
    fn concurrent_checkers_record_complete_traces() {
        use falcon_fpr::ctcheck::sites;
        use std::sync::Barrier;
        // Forced interleaving: the second thread arms, records and
        // disarms entirely inside the first thread's armed window, then
        // the first thread records. A process-wide gate would let that
        // disarm silence the first thread's whole trace.
        let barrier = Barrier::new(2);
        let x = Fpr::from_f64(3.5);
        let y = Fpr::from_f64(-1.25);
        let (first, second) = std::thread::scope(|s| {
            let first = s.spawn(|| {
                ctcheck::arm();
                barrier.wait();
                barrier.wait();
                let _ = x.div(y);
                ctcheck::disarm()
            });
            let second = s.spawn(|| {
                barrier.wait();
                ctcheck::arm();
                let _ = x.sqrt();
                let sig = ctcheck::disarm();
                barrier.wait();
                sig
            });
            (first.join().unwrap(), second.join().unwrap())
        });
        assert_eq!(first.iter().filter(|&&s| s == sites::DIV_LOOP).count(), 56);
        assert!(!first.contains(&sites::SQRT_LOOP), "the other thread's sites leaked in");
        assert_eq!(second.iter().filter(|&&s| s == sites::SQRT_LOOP).count(), 55);
        assert!(!second.contains(&sites::DIV_LOOP), "the other thread's sites leaked in");

        // Two whole checkers running side by side agree with a serial run.
        let cfg = DynConfig { iters: 16, seed: 7 };
        let serial = check_all(&cfg);
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| check_all(&cfg));
            let b = s.spawn(|| check_all(&cfg));
            (a.join().unwrap(), b.join().unwrap())
        });
        for run in [a, b] {
            for (x, y) in run.iter().zip(&serial) {
                assert_eq!(
                    (x.sig_len, x.constant_time, x.runs),
                    (y.sig_len, y.constant_time, y.runs)
                );
            }
        }
    }

    #[test]
    fn same_seed_is_deterministic() {
        let cfg = DynConfig { iters: 16, seed: 42 };
        let a = check_all(&cfg);
        let b = check_all(&cfg);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.sig_len, y.sig_len);
            assert_eq!(x.constant_time, y.constant_time);
            assert_eq!(x.runs, y.runs);
        }
    }
}
