//! The campaign orchestration daemon.
//!
//! Boots a [`Supervisor`] over a durable job store, streams `orch.*`
//! events to an append-mode JSONL file, and serves the line-delimited
//! JSON-RPC control plane until a `drain` request:
//!
//! ```text
//! falcon_orchestrator --store DIR [--listen ADDR] [--events FILE]
//!                     [--workers N] [--max-running N]
//!                     [--slices-per-turn N] [--watchdog-ms N]
//! ```
//!
//! `--listen` accepts a TCP `host:port` (default `127.0.0.1:0`, a free
//! port) or `unix:<path>`. The bound address is written to
//! `<store>/addr` so clients — and the harness that SIGKILLs and
//! restarts this daemon mid-run — can rediscover it, and printed to
//! stdout as `listening on <addr>`.
//!
//! The whole point of this binary is that killing it is safe: every job
//! state transition and campaign checkpoint is fsync-rename durable, so
//! a restart re-adopts orphaned jobs and resumes them bit-identically.

use falcon_dema::orch::{JobStore, Supervisor, SupervisorConfig};
use falcon_obs::JsonlSink;
use falcon_serve::server;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

struct Args {
    store: PathBuf,
    listen: String,
    events: Option<PathBuf>,
    cfg: SupervisorConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut store = None;
    let mut listen = "127.0.0.1:0".to_string();
    let mut events = None;
    let mut cfg = SupervisorConfig::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--store" => store = Some(PathBuf::from(value("--store")?)),
            "--listen" => listen = value("--listen")?,
            "--events" => events = Some(PathBuf::from(value("--events")?)),
            "--workers" => cfg.workers = parse_num(&value("--workers")?)?,
            "--max-running" => cfg.max_running = parse_num(&value("--max-running")?)?,
            "--slices-per-turn" => {
                cfg.slices_per_turn = parse_num(&value("--slices-per-turn")?)?;
            }
            "--watchdog-ms" => cfg.watchdog_interval_ms = parse_num(&value("--watchdog-ms")?)?,
            "--help" | "-h" => {
                println!(
                    "usage: falcon_orchestrator --store DIR [--listen ADDR] [--events FILE] \
                     [--workers N] [--max-running N] [--slices-per-turn N] [--watchdog-ms N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args { store: store.ok_or("--store is required")?, listen, events, cfg })
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad numeric value {s:?}"))
}

fn main() {
    if let Err(e) = falcon_dema::exec::check_env() {
        eprintln!("falcon_orchestrator: {e}");
        std::process::exit(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("falcon_orchestrator: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("falcon_orchestrator: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> falcon_dema::Result<()> {
    // Event stream: append mode, so a restarted daemon extends the same
    // JSONL artifact instead of truncating the pre-crash history.
    let events_path = args.events.clone().unwrap_or_else(|| args.store.join("events.jsonl"));
    if let Some(dir) = events_path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let events = std::fs::OpenOptions::new().create(true).append(true).open(&events_path)?;
    falcon_obs::set_sink(Arc::new(JsonlSink::new(events)));
    falcon_obs::emit(|| falcon_obs::Event::new("orch.boot"));

    let store = JobStore::open(&args.store)?;
    let sup = Supervisor::start(store, args.cfg)?;
    let listener = server::bind(&args.listen)?;
    let addr = listener.local_addr()?;

    // Discovery file: clients (and the restart harness) read the bound
    // address from here rather than parsing stdout.
    let addr_path = args.store.join("addr");
    let mut f = std::fs::File::create(&addr_path)?;
    writeln!(f, "{addr}")?;
    f.sync_all()?;

    println!("listening on {addr}");
    server::serve(sup, listener)?;
    falcon_obs::emit(|| falcon_obs::Event::new("orch.exit"));
    Ok(())
}
