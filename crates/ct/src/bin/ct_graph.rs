//! Call-graph and taint-summary dumper.
//!
//! Builds the workspace call graph, computes the interprocedural taint
//! summaries to a fixpoint, prints the secret-handling functions and
//! optionally writes the full JSON artifact CI uploads.
//!
//! ```text
//! ct_graph [--root DIR] [--json FILE] [--assert-discoveries N]
//! ```
//!
//! `--assert-discoveries N` exits 1 unless the pass found at least `N`
//! secret-tainted functions *outside* annotated `ct: secret` regions —
//! the CI guard that the analysis keeps seeing through the annotation
//! discipline instead of merely restating it.
//!
//! Exit status: 0 on success, 1 on a failed assertion, 2 on usage or
//! I/O errors.

use falcon_ct::gate::Args;
use falcon_ct::report::graph_report;
use falcon_ct::{CallGraph, TaintMap};
use std::process::ExitCode;

const USAGE: &str = "usage: ct_graph [--root DIR] [--json FILE] [--assert-discoveries N]";

fn main() -> ExitCode {
    let mut assert_discoveries: Option<usize> = None;
    let parsed = Args::parse(std::env::args().skip(1), USAGE, None, |flag, it| {
        if flag != "--assert-discoveries" {
            return Ok(false);
        }
        let n = it.next().ok_or("--assert-discoveries needs a value")?;
        assert_discoveries = Some(n.parse().map_err(|e| format!("--assert-discoveries: {e}"))?);
        Ok(true)
    });
    let args = match parsed {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let _span = falcon_obs::span("ct.graph");

    let graph = match CallGraph::build(&args.root) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("ct_graph: scanning {}: {e}", args.root.display());
            return ExitCode::from(2);
        }
    };
    let map = TaintMap::compute(&graph);
    let outside = map.tainted_outside_regions(&graph);
    falcon_obs::counter("ct.graph.functions").add(graph.fns.len() as u64);
    falcon_obs::counter("ct.graph.tainted_outside_regions").add(outside.len() as u64);

    for (i, f) in graph.fns.iter().enumerate() {
        if f.is_test || !map.summaries[i].is_tainted() {
            continue;
        }
        let s = &map.summaries[i];
        let params: Vec<&str> = s.tainted_params.iter().map(|p| p.as_str()).collect();
        println!(
            "{}:{}: {} params=[{}] returns_secret={} region={} — {}",
            f.file,
            f.line,
            f.qual,
            params.join(", "),
            s.returns_secret,
            f.has_region,
            s.cause,
        );
    }
    let edges = graph.edge_stats();
    println!(
        "ct_graph: {} function(s), {} call site(s), {} round(s): {} tainted, {} outside annotated regions",
        graph.fns.len(),
        graph.calls.len(),
        map.rounds,
        map.summaries.iter().zip(&graph.fns).filter(|(s, f)| !f.is_test && s.is_tainted()).count(),
        outside.len(),
    );
    println!(
        "ct_graph: {} edge(s) resolved, {} dropped ({} ambiguous homonym, {} unresolved)",
        edges.resolved,
        edges.dropped(),
        edges.ambiguous,
        edges.unresolved,
    );

    if let Some(json_path) = &args.json {
        let doc = graph_report(&graph, &map).render();
        if let Err(e) = std::fs::write(json_path, doc) {
            eprintln!("ct_graph: writing {}: {e}", json_path.display());
            return ExitCode::from(2);
        }
    }

    if let Some(min) = assert_discoveries {
        if outside.len() < min {
            eprintln!(
                "ct_graph: only {} tainted function(s) outside annotated regions (need >= {min})",
                outside.len()
            );
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}
