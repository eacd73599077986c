//! A spec the job store could not read back is refused at submit, by
//! `JobStore::submit` and by the RPC; one at the caps is accepted, reads
//! back equal and runs.

use falcon_dema::orch::{JobSpec, JobState, JobStore, Supervisor, SupervisorConfig};
use falcon_dema::Error;
use falcon_serve::rpc::{submit_request, Msg};
use falcon_serve::server::dispatch;

#[test]
fn submit_refuses_a_spec_past_a_cap() {
    let dir = std::env::temp_dir().join(format!("falcon-orch-bounds-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = JobStore::open(&dir).unwrap();
    let sup = Supervisor::start(store.clone(), SupervisorConfig::default()).unwrap();
    let spec =
        |name: &str| JobSpec { name: name.into(), seed: "s".repeat(1024), ..Default::default() };
    let rpc_ok = |s: &JobSpec| {
        let (replies, _) = dispatch(&sup, &submit_request(s));
        Msg::parse(&replies[0]).unwrap().get_bool("ok").unwrap()
    };
    for long in [
        JobSpec { seed: "s".repeat(1025), ..spec("long-seed") },
        JobSpec { dataset: "d".repeat(4097), ..spec("long-dataset") },
    ] {
        assert!(matches!(store.submit(&long), Err(Error::Orchestration(_))), "{}", long.name);
        assert!(!rpc_ok(&long), "{}", long.name);
        assert!(!store.exists(&long.name));
    }
    let full = spec("full-seed");
    assert!(rpc_ok(&full));
    assert_eq!(store.read_spec("full-seed").unwrap(), full);
    let st = sup.wait_settled("full-seed", 120_000).unwrap();
    assert_eq!(st.state, JobState::Done, "{}", st.last_error);
    drop(sup);
    let _ = std::fs::remove_dir_all(&dir);
}
