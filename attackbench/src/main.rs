//! `attackbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one fixed-work workload, writes the full record (run context,
//! metrics, layer tree, spans) to `attackbench/out/`, and prints as its
//! last line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. See `attackbench/README.md`.

use attackbench::{out_dir, run, Args, USAGE};
use falcon_bench::report::print_table;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("attackbench: {e}");
            std::process::exit(1);
        }
    };
    let path = out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, outcome.record.render()));
    if let Err(e) = written {
        eprintln!("attackbench: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    if args.trace {
        let rows: Vec<Vec<String>> = outcome
            .layers
            .iter()
            .map(|l| {
                let self_secs = format!("{:.4}", l.unaccounted_secs);
                vec![l.path.clone(), l.count.to_string(), format!("{:.4}", l.secs), self_secs]
            })
            .collect();
        print_table("layer tree (traced pass)", &["span", "count", "secs", "self secs"], &rows);
        let rows: Vec<Vec<String>> = outcome
            .remainders
            .iter()
            .map(|r| {
                let rest = r.secs - r.children_secs;
                vec![r.parent.to_string(), format!("{:.4}", r.secs), format!("{rest:.4}")]
            })
            .collect();
        print_table(
            "registry spans: parent time outside children",
            &["parent", "secs", "unaccounted"],
            &rows,
        );
    }
    for f in &outcome.pass.faults {
        println!("FAULT: {f}");
    }
    println!("record: {}", path.display());
    println!("{}", outcome.result_line());
}
