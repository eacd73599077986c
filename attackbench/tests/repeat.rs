//! Each workload at smoke size, twice with one seed: the attack's
//! counts and the registry's work counters must repeat exactly, and no
//! output may contradict another.

use attackbench::{run, Args, Size, Workload};

#[test]
fn smoke_runs_repeat_exactly() {
    for w in Workload::ALL {
        let args = Args { workload: w, seed: 7, seconds: 1, trace: false, size: Size::Smoke };
        let counts = |o: &attackbench::Outcome| {
            let p = &o.pass;
            (p.traces_used, p.coeffs_failed, p.forgeries_failed, o.batches, o.correlations)
        };
        let a = run(&args).expect("first run");
        let b = run(&args).expect("second run");
        assert!(
            a.correct() && b.correct(),
            "{}: faults {:?} {:?}",
            w.name(),
            a.pass.faults,
            b.pass.faults
        );
        assert!(a.pass.ops() > 0 && a.correlations > 0, "{}: no work done", w.name());
        assert_eq!(counts(&a), counts(&b), "{}: counts differ between runs", w.name());
    }
}
