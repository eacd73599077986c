//! B-STREAM — out-of-core streaming data plane: resident vs streamed
//! coefficient recovery over the same archived capture.
//!
//! One seeded FALCON-N victim is captured once; the dataset is then
//! attacked twice — from memory (`Dataset` as a `ColumnSource`) and
//! through the on-disk `StreamedDataset`. The table reports wall time,
//! effective read bandwidth and the staging high-water mark against
//! [`STAGE_BYTES`], and asserts both legs recover bit-identical
//! coefficients (the streamed plane's whole contract: bounded staging,
//! zero output drift).
//!
//! ```text
//! cargo run --release -p falcon-bench --bin tableS_stream \
//!     [logn=3] [traces=600] [noise=1.0] [out=BENCH_stream.json]
//! ```

use falcon_bench::json::Json;
use falcon_bench::report::{arg_or, git_rev, host, print_table, reject_unread_args};
use falcon_bench::setup::victim;
use falcon_dema::acquire::Dataset;
use falcon_dema::attack::{recover_coefficient_block, AttackConfig};
use falcon_dema::source::ColumnSource;
use falcon_dema::stream::{self, StreamedDataset, STAGE_BYTES};
use falcon_obs as obs;
use falcon_sig::rng::Prng;
use std::path::PathBuf;
use std::time::Instant;

/// Recovers every targeted coefficient from `src`; returns the bits and
/// the wall seconds.
fn sweep<S: ColumnSource + ?Sized>(src: &S, cfg: &AttackConfig) -> (Vec<u64>, f64) {
    let t0 = Instant::now();
    let bits: Vec<u64> = src
        .targets()
        .iter()
        .map(|&t| {
            let block = src.target_block(t).expect("column source failed");
            recover_coefficient_block(&block, cfg).bits
        })
        .collect();
    (bits, t0.elapsed().as_secs_f64())
}

fn main() {
    let logn: u32 = arg_or("logn", 3);
    let traces: usize = arg_or("traces", 600);
    let noise: f64 = arg_or("noise", 1.0);
    let out: String = arg_or("out", "BENCH_stream.json".to_string());
    reject_unread_args();
    println!("rev {}, host {}", git_rev(), host());

    let n = 1usize << logn;
    let targets: Vec<usize> = (0..n).collect();
    let (mut device, _vk, truth) = victim(logn, noise, "tableS streaming victim");
    let mut msgs = Prng::from_seed(b"tableS streaming msgs");
    let ds = Dataset::collect(&mut device, &targets, traces, &mut msgs);

    let dir: PathBuf =
        std::env::temp_dir().join(format!("falcon-bench-stream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let archive = dir.join("capture.fdnd");
    falcon_dema::io::atomic_write(&archive, |w| falcon_dema::io::write_dataset(&ds, w))
        .expect("write archive");
    let file_len = std::fs::metadata(&archive).expect("archive metadata").len();

    let cfg = AttackConfig::default();
    let (resident_bits, resident_wall) = sweep(&ds, &cfg);
    assert_eq!(resident_bits, truth, "resident recovery must match the victim key");

    stream::reset_ring_peak();
    let sd = StreamedDataset::open_default(&archive).expect("open streamed dataset");
    let (bits, wall) = sweep(&sd, &cfg);
    assert_eq!(bits, resident_bits, "streamed recovery must be bit-identical");
    // One full pass of the payload per coefficient sweep.
    let file_mb = file_len as f64 / (1 << 20) as f64;
    let peak = obs::gauge("stream.ring_peak_bytes").get();
    assert!(
        peak > 0.0 && peak <= STAGE_BYTES as f64,
        "staging peak {peak} B outside (0, {STAGE_BYTES}] B"
    );
    let overhead_pct = (wall / resident_wall - 1.0) * 100.0;
    let rows = vec![
        vec![
            "resident".into(),
            format!("{file_mb:.1}"),
            format!("{resident_wall:.3}"),
            "-".into(),
            "-".into(),
            "baseline".into(),
        ],
        vec![
            "streamed".into(),
            format!("{file_mb:.1}"),
            format!("{wall:.3}"),
            format!("{:.1}", file_mb / wall),
            format!("{}/{STAGE_BYTES}", peak as u64),
            format!("{overhead_pct:+.1}% vs resident"),
        ],
    ];
    print_table(
        &format!("B-STREAM: out-of-core recovery (FALCON-{n}, {traces} traces)"),
        &["source", "MB", "wall (s)", "MB/s", "peak/bound B", "notes"],
        &rows,
    );
    println!("streamed recovery is bit-identical to resident");

    let doc = Json::obj()
        .field("bench", "tableS_stream")
        .field("rev", git_rev())
        .field("host", host())
        .field("logn", u64::from(logn))
        .field("traces", traces as u64)
        .field("noise_sigma", noise)
        .field("archive_bytes", file_len)
        .field("resident_wall_s", resident_wall)
        .field(
            "streamed",
            Json::obj()
                .field("wall_s", wall)
                .field("read_mb_per_s", file_mb / wall)
                .field("ring_peak_bytes", peak as u64)
                .field("stage_bytes", STAGE_BYTES as u64)
                .field("overhead_pct", overhead_pct)
                .field("bit_identical", true),
        );
    std::fs::write(&out, doc.render()).expect("write BENCH_stream.json");
    println!("wrote {out}");
    let _ = std::fs::remove_dir_all(&dir);
}
