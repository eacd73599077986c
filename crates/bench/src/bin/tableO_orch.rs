//! E-ORCH — orchestration robustness and overhead: the same FALCON-N
//! campaign run bare (a [`falcon_dema::orch::JobRuntime`] driven
//! directly), under a supervisor, under a supervisor with injected
//! worker panics, and crash-resumed from the durable checkpoint at
//! every slice boundary. Every scenario must recover bit-identical
//! results; the table reports wall time, retries, and the deterministic
//! backoff schedule the faults incurred.
//!
//! ```text
//! cargo run --release -p falcon-bench --bin tableO_orch \
//!     [logn=3] [noise=1.0] [out=BENCH_orch.json]
//! ```

use falcon_bench::json::Json;
use falcon_bench::report::{arg_or, git_rev, host, print_table, reject_unread_args};
use falcon_dema::orch::{
    seed_from_name, Backoff, FaultInjector, JobRuntime, JobSpec, JobState, JobStore, Supervisor,
    SupervisorConfig,
};
use std::path::PathBuf;
use std::time::Instant;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("falcon-bench-orch-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn base_spec(logn: u32, noise: f64) -> JobSpec {
    JobSpec {
        name: "bench-orch".into(),
        logn,
        noise_sigma: noise,
        seed: "tableO orchestration victim".into(),
        ..Default::default()
    }
}

/// Drives a runtime to completion without any supervision; returns
/// (bits, slices, wall seconds).
fn bare_run(spec: &JobSpec, tag: &str) -> (Vec<u64>, u64, f64) {
    let dir = scratch(tag);
    let store = JobStore::open(&dir).expect("open scratch store");
    let mut rt = JobRuntime::prepare(spec, &store).expect("prepare runtime");
    let mut inj = FaultInjector::default();
    let start = Instant::now();
    let mut slices = 0u64;
    loop {
        let out = rt.slice(&mut inj).expect("campaign slice");
        slices += 1;
        if out.done {
            assert!(out.complete, "bench seed must converge");
            break;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let bits = rt.report().recovered_bits().expect("complete run has bits");
    let _ = std::fs::remove_dir_all(&dir);
    (bits, slices, wall)
}

/// Runs `spec` to settlement under a fresh supervisor over `dir`,
/// submitting first when the store does not know the job yet.
fn supervised_run(spec: &JobSpec, dir: &PathBuf) -> (Vec<u64>, u32, f64) {
    let store = JobStore::open(dir).expect("open store");
    if !store.exists(&spec.name) {
        store.submit(spec).expect("submit job");
    }
    let sup = Supervisor::start(store, SupervisorConfig::default()).expect("start supervisor");
    let start = Instant::now();
    let st = sup.wait_settled(&spec.name, 300_000).expect("job settles");
    let wall = start.elapsed().as_secs_f64();
    assert_eq!(st.state, JobState::Done, "job must finish: {}", st.last_error);
    (st.bits, st.retries, wall)
}

fn main() {
    let logn: u32 = arg_or("logn", 3);
    let noise: f64 = arg_or("noise", 1.0);
    let out: String = arg_or("out", "BENCH_orch.json".to_string());
    reject_unread_args();
    println!("rev {}, host {}", git_rev(), host());
    let spec = base_spec(logn, noise);
    let n = 1u64 << logn;
    println!(
        "FALCON-{n}, noise sigma = {noise}, batches of {}, {}-capture budget",
        spec.batch_size, spec.max_traces
    );

    // Row 1: the bare runtime — the no-supervision reference everything
    // else must match bit-for-bit.
    let (want, slices, bare_wall) = bare_run(&spec, "bare");

    // Row 2: the same job under a supervisor (checkpoint after every
    // slice, durable state records) — the supervision overhead row.
    let dir = scratch("clean");
    let (bits, retries, sup_wall) = supervised_run(&spec, &dir);
    assert_eq!(bits, want, "supervised run diverged");
    assert_eq!(retries, 0);
    let _ = std::fs::remove_dir_all(&dir);
    let overhead_pct = (sup_wall - bare_wall) / bare_wall * 100.0;

    // Row 3: two injected worker panics — the supervisor retries with
    // deterministic seeded backoff and still lands on the same bits.
    let mut faulty = spec.clone();
    faulty.panic_steps = vec![0, 1];
    let dir = scratch("faulty");
    let (bits, fault_retries, fault_wall) = supervised_run(&faulty, &dir);
    assert_eq!(bits, want, "fault-retried run diverged");
    assert!(fault_retries >= 2, "both injected panics must cost a retry");
    let _ = std::fs::remove_dir_all(&dir);
    // Recompute the exact delays the supervisor used: the schedule is
    // deterministic in (spec backoff params, job name, attempt index).
    let backoff = Backoff {
        base_ms: faulty.backoff_base_ms,
        cap_ms: faulty.backoff_cap_ms,
        seed: seed_from_name(&faulty.name),
    };
    let backoff_ms: u64 = (0..fault_retries).map(|k| backoff.delay_ms(k)).sum();

    // Row 4: crash at every slice boundary, resume under a fresh
    // supervisor each time — the durability row.
    let mut crash_wall = 0.0f64;
    let boundaries = slices + 1;
    for kill in 0..boundaries {
        let dir = scratch(&format!("crash{kill}"));
        {
            let store = JobStore::open(&dir).expect("open store");
            store.submit(&spec).expect("submit job");
            let mut rt = JobRuntime::prepare(&spec, &store).expect("prepare runtime");
            let mut inj = FaultInjector::default();
            let mut st = store.read_status(&spec.name).expect("read status");
            st.state = JobState::Running;
            for _ in 0..kill {
                rt.slice(&mut inj).expect("campaign slice");
                rt.checkpoint(&store).expect("checkpoint");
            }
            store.write_status(&spec.name, &st).expect("abandon as running");
        }
        let (bits, _, wall) = supervised_run(&spec, &dir);
        assert_eq!(bits, want, "crash at boundary {kill} diverged");
        crash_wall += wall;
        let _ = std::fs::remove_dir_all(&dir);
    }

    let rows = vec![
        vec!["bare runtime".into(), format!("{bare_wall:.3}"), "0".into(), "-".into()],
        vec![
            "supervised".into(),
            format!("{sup_wall:.3}"),
            "0".into(),
            format!("{overhead_pct:+.1}% vs bare"),
        ],
        vec![
            "2 injected panics".into(),
            format!("{fault_wall:.3}"),
            fault_retries.to_string(),
            format!("{backoff_ms} ms deterministic backoff"),
        ],
        vec![
            format!("crash at {boundaries} boundaries"),
            format!("{crash_wall:.3}"),
            "0".into(),
            "all resumes bit-identical".into(),
        ],
    ];
    print_table(
        &format!("E-ORCH: orchestration robustness (FALCON-{n}, {slices} slices)"),
        &["scenario", "wall (s)", "retries", "notes"],
        &rows,
    );
    println!("every scenario converged bit-identically to the bare run");

    let doc = Json::obj()
        .field("bench", "tableO_orch")
        .field("rev", git_rev())
        .field("host", host())
        .field("logn", u64::from(logn))
        .field("noise_sigma", noise)
        .field("slices", slices)
        .field("bare_wall_s", bare_wall)
        .field("supervised_wall_s", sup_wall)
        .field("supervision_overhead_pct", overhead_pct)
        .field("injected_panics", 2u64)
        .field("fault_retries", u64::from(fault_retries))
        .field("fault_backoff_ms", backoff_ms)
        .field("fault_wall_s", fault_wall)
        .field("crash_boundaries", boundaries)
        .field("crash_total_wall_s", crash_wall)
        .field("bit_identical", true);
    std::fs::write(&out, doc.render()).expect("write BENCH_orch.json");
    println!("wrote {out}");
}
