//! Fixed-work end-to-end benchmark of the Falcon Down attack.
//!
//! Three workloads time calls into the public API of `falcon-sig`,
//! `falcon-emsim` and `falcon-dema` from outside:
//!
//! * `campaign-live` — live adaptive [`Campaign`](falcon_dema::Campaign)s
//!   against FALCON-16 victims at the paper's noise, key rebuild and
//!   forgeries;
//! * `archive-replay` — the same attack replayed by
//!   [`OfflineCampaign`](falcon_dema::OfflineCampaign) over
//!   `FDNDSET` v2 archives streamed through the prefetch ring;
//! * `falcon512` — screened capture, fixed-trace coefficient recovery,
//!   key rebuild and forgeries at the paper's parameter set.
//!
//! Every run of a workload does the same work: the victims are fixed
//! per workload and no loop is bounded by time. The run seed only picks
//! the forged messages.

pub mod host;
pub mod trace;
pub mod workloads;

use falcon_bench::json::Json;
use falcon_bench::setup::PAPER_NOISE_SIGMA;
use falcon_obs::MetricsSnapshot;
use std::path::{Path, PathBuf};
use trace::{SpanRec, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CampaignLive,
    ArchiveReplay,
    Falcon512,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::CampaignLive, Workload::ArchiveReplay, Workload::Falcon512];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignLive => "campaign-live",
            Workload::ArchiveReplay => "archive-replay",
            Workload::Falcon512 => "falcon512",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// `full` is the measured size; `smoke` is a seconds-long run of the
/// same code paths for the benchmark's own test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// Every size knob of a workload; all are recorded with the result.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    pub logn: u32,
    pub noise: f64,
    /// Victim seeds, one victim (and campaign, or archive) each.
    pub victims: Vec<String>,
    /// Times each victim's keygen is repeated (identical work); the last
    /// key is attacked. Only campaign-live repeats it, so that its
    /// set-up, two FALCON-16 keygens, lasts seconds and not microseconds.
    pub keygen_reps: usize,
    /// Forgeries per victim.
    pub forgeries: usize,
    /// Campaign batch size.
    pub batch: usize,
    /// Traces per archive (archive-replay).
    pub archive_traces: usize,
    /// Targeted coefficients K (falcon512).
    pub targets: usize,
    /// Captures requested N (falcon512).
    pub traces: usize,
}

impl Params {
    pub fn new(w: Workload, size: Size) -> Params {
        let seeds = |prefix: &str, k: usize| -> Vec<String> {
            (0..k).map(|i| format!("{prefix}-{}", (b'a' + i as u8) as char)).collect()
        };
        let base = Params {
            logn: 4,
            noise: PAPER_NOISE_SIGMA,
            victims: Vec::new(),
            keygen_reps: 1,
            forgeries: 0,
            batch: 0,
            archive_traces: 0,
            targets: 0,
            traces: 0,
        };
        match (w, size) {
            (Workload::CampaignLive, Size::Full) => Params {
                victims: seeds("seed", 2),
                keygen_reps: 2500,
                forgeries: 8,
                batch: 100,
                ..base
            },
            (Workload::CampaignLive, Size::Smoke) => {
                Params { logn: 2, victims: seeds("seed", 1), forgeries: 2, batch: 100, ..base }
            }
            (Workload::ArchiveReplay, Size::Full) => Params {
                victims: seeds("archive", 2),
                forgeries: 8,
                batch: 400,
                archive_traces: 8192,
                ..base
            },
            (Workload::ArchiveReplay, Size::Smoke) => Params {
                logn: 2,
                victims: seeds("archive", 1),
                forgeries: 2,
                batch: 400,
                archive_traces: 1200,
                ..base
            },
            (Workload::Falcon512, Size::Full) => Params {
                logn: 9,
                victims: seeds("falcon512", 1),
                forgeries: 2500,
                targets: 2,
                traces: 2000,
                ..base
            },
            (Workload::Falcon512, Size::Smoke) => Params {
                logn: 9,
                victims: seeds("falcon512", 1),
                forgeries: 2,
                targets: 1,
                traces: 300,
                ..base
            },
        }
    }

    fn json(&self) -> Json {
        Json::obj()
            .field("logn", self.logn)
            .field("noise_sigma", self.noise)
            .field(
                "victims",
                self.victims.iter().map(|v| Json::from(v.as_str())).collect::<Vec<_>>(),
            )
            .field("keygen_reps", self.keygen_reps)
            .field("forgeries_per_victim", self.forgeries)
            .field("batch", self.batch)
            .field("archive_traces", self.archive_traces)
            .field("targets", self.targets)
            .field("traces", self.traces)
    }
}

/// What one pass (set-up plus timed phase) measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of the whole set-up phase: every keygen, plus archive
    /// capture and write.
    pub setup_s: f64,
    pub keygen_s: Vec<f64>,
    /// Wall time of the timed phase.
    pub run_s: f64,
    /// Process CPU time over the timed phase.
    pub cpu_s: f64,
    /// Peak RSS of the timed phase (of the whole pass when `!rss_reset`).
    pub peak_rss_mb: f64,
    pub rss_reset: bool,
    /// Resident set when the timed phase starts.
    pub rss_start_mb: f64,
    /// Sum over campaigns of the largest per-coefficient trace count;
    /// for falcon512 the kept traces.
    pub traces_used: u64,
    /// Kept traces summed over every targeted coefficient.
    pub traces_consumed: u64,
    /// Traces re-scored by campaign evaluations (traced passes only).
    pub traces_rescored: u64,
    pub coeffs_targeted: usize,
    /// Targeted coefficients not bit-exact against the true `FFT(f)`.
    pub coeffs_failed: usize,
    pub forgeries: usize,
    /// Forgeries that did not verify or were never made for want of a key.
    pub forgeries_failed: usize,
    pub sign_us: Vec<f64>,
    pub verify_us: Vec<f64>,
    pub screen_requested: u64,
    pub screen_kept: u64,
    pub io_write_s: f64,
    pub archive_bytes: u64,
    pub stream_open_s: f64,
    /// Outputs that contradict each other: a program fault, not an
    /// attack miss.
    pub faults: Vec<String>,
}

impl Pass {
    pub fn ops(&self) -> usize {
        self.coeffs_targeted + self.forgeries
    }

    pub fn ops_failed(&self) -> usize {
        self.coeffs_failed + self.forgeries_failed
    }
}

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub size: Size,
}

pub const USAGE: &str = "usage: attackbench --workload <campaign-live|archive-replay|falcon512> \
[--seed N] [--seconds S] [--trace 0|1]";

/// Executor threads, capped at `nproc`: the streamed reader's producer
/// is then the only other thread.
pub const THREADS: usize = 2;

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut a = Args {
            workload: Workload::CampaignLive,
            seed: 1,
            seconds: 0,
            trace: false,
            size: Size::Full,
        };
        let mut workload = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = || val.parse::<u64>().map_err(|_| format!("{flag}: not a number: {val}"));
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(val).ok_or(format!("unknown workload {val}"))?)
                }
                "--seed" => a.seed = num()?,
                "--seconds" => a.seconds = num()?,
                "--trace" => a.trace = num()? != 0,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        a.workload = workload.ok_or("--workload is required")?;
        Ok(a)
    }

    pub fn params(&self) -> Params {
        Params::new(self.workload, self.size)
    }
}

/// A reported metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The result of one benchmark invocation.
#[derive(Debug)]
pub struct Outcome {
    /// The measured (last) pass.
    pub pass: Pass,
    /// End-to-end metrics, or per-layer ones in a traced run.
    pub metrics: Vec<Metric>,
    /// Registry counters the benchmark's own test checks for repeats.
    pub batches: u64,
    pub correlations: u64,
    /// The traced pass's layer tree and per-parent remainders.
    pub layers: Vec<trace::Layer>,
    pub remainders: Vec<Remainder>,
    /// Full record: context, metrics, layer tree, spans.
    pub record: Json,
}

impl Outcome {
    /// No output contradicts another.
    pub fn correct(&self) -> bool {
        self.pass.faults.is_empty()
    }

    /// The one-line result: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let doc = Json::obj()
            .field("correct", self.correct())
            .field("attempted", self.pass.ops())
            .field("failed", self.pass.ops_failed())
            .field("metrics", metrics_json(&self.metrics));
        doc.render().lines().map(str::trim_start).collect()
    }
}

/// The repository root: the benchmark's package sits one level below.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().map(Path::to_path_buf).unwrap_or_default()
}

/// Where archives and result records go (git-ignored).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile; 0 for an empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// A quantile of a histogram's observations since `before`,
/// interpolated linearly inside the bucket it falls in.
fn hist_quantile(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str, q: f64) -> f64 {
    let Some(h) = after.histograms.get(name) else { return 0.0 };
    let was = before.histograms.get(name);
    let counts: Vec<u64> =
        h.buckets.iter().enumerate().map(|(i, &c)| c - was.map_or(0, |w| w.buckets[i])).collect();
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = q * total as f64;
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c > 0 && (seen + c) as f64 >= rank {
            let lo = if i == 0 { 0.0 } else { h.bounds[i - 1] };
            let hi = h.bounds.get(i).copied().unwrap_or(lo);
            return lo + (hi - lo) * (rank - seen as f64) / c as f64;
        }
        seen += c;
    }
    0.0
}

/// A parent's busy seconds and the part its registry child spans cover.
#[derive(Debug, Clone, PartialEq)]
pub struct Remainder {
    pub parent: &'static str,
    pub secs: f64,
    pub children_secs: f64,
}

/// Registry spans nested under a benchmark span, for the per-parent
/// remainder report.
const NESTING: &[(&str, &[&str])] = &[
    ("campaign.step", &["campaign.acquire", "campaign.evaluate", "campaign.fetch_block"]),
    ("campaign.acquire", &["screen.capture", "screen.gates"]),
    ("screen.collect_screened", &["screen.capture", "screen.gates"]),
    ("campaign.evaluate", &["attack.coefficient"]),
    ("attack.recover_coefficient", &["attack.coefficient"]),
    ("attack.coefficient", &["attack.sign_exp", "attack.mant_lo", "attack.mant_hi"]),
    ("recover.key_from_fft_bits", &["recover.invert_fft", "recover.ntru_solve"]),
];

struct LayerView<'a> {
    before: &'a MetricsSnapshot,
    after: &'a MetricsSnapshot,
    spans: &'a [SpanRec],
}

impl LayerView<'_> {
    fn counter(&self, name: &str) -> f64 {
        self.after.counter_delta(self.before, name) as f64
    }

    /// Busy seconds of a registry span (`span.<name>` histogram).
    fn registry(&self, name: &str) -> f64 {
        self.after.histogram_sum_delta(self.before, &format!("span.{name}"))
    }

    /// Busy seconds of a benchmark span, summed over its occurrences.
    fn bench(&self, name: &str) -> f64 {
        // `+ 0.0` turns the empty sum's -0.0 into 0.0.
        self.spans.iter().filter(|s| s.name == name).map(SpanRec::secs).sum::<f64>() + 0.0
    }

    /// A span's busy seconds: the benchmark's own when it recorded
    /// one, else the registry's.
    fn secs(&self, name: &str) -> f64 {
        if self.spans.iter().any(|s| s.name == name) {
            self.bench(name)
        } else {
            self.registry(name)
        }
    }

    /// Per-parent remainders: parent busy time not covered by the
    /// registry spans inside it.
    fn remainders(&self) -> Vec<Remainder> {
        NESTING
            .iter()
            .map(|&(parent, kids)| Remainder {
                parent,
                secs: self.secs(parent),
                children_secs: kids.iter().map(|k| self.registry(k)).sum(),
            })
            .filter(|r| r.secs > 0.0)
            .collect()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn end_to_end(pass: &Pass) -> Vec<Metric> {
    vec![
        ("setup_s", pass.setup_s, "s"),
        ("run_s", pass.run_s, "s"),
        ("traces_used", pass.traces_used as f64, "count"),
        ("peak_rss_mb", pass.peak_rss_mb, "MiB"),
        ("ops_correct", (pass.ops() - pass.ops_failed()) as f64, "count"),
    ]
}

fn per_layer(
    pass: &Pass,
    v: &LayerView<'_>,
    threads: usize,
    ops: u64,
    untraced_run_s: f64,
) -> Vec<Metric> {
    let recover = v.registry("attack.coefficient");
    let correlations = v.counter("attack.correlations");
    vec![
        ("sig.keygen_s", median(&pass.keygen_s), "s"),
        ("sig.sign_count", pass.sign_us.len() as f64, "count"),
        ("sig.sign_p50_us", median(&pass.sign_us), "us"),
        ("sig.sign_p99_us", quantile(&pass.sign_us, 0.99), "us"),
        ("sig.verify_p50_us", median(&pass.verify_us), "us"),
        ("emsim.captures", v.counter("device.captures"), "count"),
        ("emsim.capture_busy_s", v.after.histogram_sum_delta(v.before, "device.capture_secs"), "s"),
        (
            "emsim.capture_p50_us",
            1e6 * hist_quantile(v.before, v.after, "device.capture_secs", 0.5),
            "us",
        ),
        ("screen.busy_s", v.registry("screen.gates"), "s"),
        (
            "screen.kept_ratio",
            ratio(pass.screen_kept as f64, pass.screen_requested as f64),
            "ratio",
        ),
        ("campaign.batches", v.counter("campaign.batches"), "count"),
        ("campaign.step_busy_s", v.bench("campaign.step"), "s"),
        ("campaign.acquire_busy_s", v.registry("campaign.acquire"), "s"),
        ("campaign.evaluate_busy_s", v.registry("campaign.evaluate"), "s"),
        ("campaign.traces_rescored", pass.traces_rescored as f64, "count"),
        (
            "campaign.rescore_ratio",
            ratio(pass.traces_rescored as f64, pass.traces_consumed as f64),
            "ratio",
        ),
        ("attack.correlations", correlations, "count"),
        ("attack.corr_per_s", ratio(correlations, recover), "1/s"),
        ("attack.mant_lo_s", v.registry("attack.mant_lo"), "s"),
        ("attack.mant_hi_s", v.registry("attack.mant_hi"), "s"),
        ("attack.sign_exp_s", v.registry("attack.sign_exp"), "s"),
        ("attack.recover_busy_s", recover, "s"),
        ("exec.threads", threads as f64, "count"),
        ("exec.fanout", v.counter("exec.fanout"), "count"),
        ("exec.serial", v.counter("exec.serial"), "count"),
        ("exec.utilisation", ratio(pass.cpu_s, pass.run_s * threads as f64), "ratio"),
        ("io.write_s", pass.io_write_s, "s"),
        ("io.archive_bytes", pass.archive_bytes as f64, "bytes"),
        ("stream.open_s", pass.stream_open_s, "s"),
        ("stream.fetch_busy_s", v.registry("campaign.fetch_block"), "s"),
        ("stream.bytes_read", v.counter("stream.bytes_read"), "bytes"),
        (
            "stream.ring_peak_bytes",
            v.after.gauges.get("stream.ring_peak_bytes").copied().unwrap_or(0.0),
            "bytes",
        ),
        ("recover.invert_fft_s", v.registry("recover.invert_fft"), "s"),
        ("recover.ntru_solve_s", v.registry("recover.ntru_solve"), "s"),
        ("obs.ops", ops as f64, "count"),
        ("trace.overhead_pct", 100.0 * (pass.run_s / untraced_run_s - 1.0), "%"),
        (
            "trace.overhead_bound_pct",
            100.0 * v.spans.len() as f64 * trace::span_cost_secs() / pass.run_s,
            "%",
        ),
        ("trace.coverage_pct", 100.0 * trace::coverage(v.spans), "%"),
        ("score.coeffs_targeted", pass.coeffs_targeted as f64, "count"),
        ("score.coeffs_failed", pass.coeffs_failed as f64, "count"),
        ("score.forgeries_failed", pass.forgeries_failed as f64, "count"),
    ]
}

fn kernel_name(after: &MetricsSnapshot) -> &'static str {
    match after.gauges.get("cpa.kernel").map(|&g| g as u8) {
        Some(0) => "scalar",
        Some(1) => "avx2",
        Some(2) => "neon",
        _ => "unresolved",
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    metrics.iter().fold(Json::obj(), |o, &(n, v, u)| {
        o.field(n, Json::obj().field("value", v).field("unit", u))
    })
}

type Measured = (Pass, MetricsSnapshot, MetricsSnapshot, u64);

fn measure(args: &Args, p: &Params, tracer: &mut Tracer) -> Result<Measured, String> {
    let before = falcon_obs::metrics().snapshot();
    let ops = falcon_obs::ops();
    let pass = workloads::run_pass(args.workload, p, args.seed, &out_dir(), tracer)?;
    Ok((pass, before, falcon_obs::metrics().snapshot(), falcon_obs::ops() - ops))
}

fn context(args: &Args, p: &Params, threads: usize, pass: &Pass, after: &MetricsSnapshot) -> Json {
    Json::obj()
        .field("workload", args.workload.name())
        .field("size", if args.size == Size::Full { "full" } else { "smoke" })
        .field("seed", args.seed)
        .field("seconds_requested", args.seconds)
        .field("rev", host::git_rev(&repo_root()).unwrap_or_else(|| "unknown".into()))
        .field("nproc", host::nproc())
        .field("executor_threads", threads)
        .field("cpa_kernel", kernel_name(after))
        .field("peak_rss_reset", pass.rss_reset)
        .field("rss_start_mb", pass.rss_start_mb)
        .field("params", p.json())
}

/// Runs the workload. Untraced, one pass is measured. With `--trace 1`
/// an untraced pass is followed by a traced one, whose per-layer
/// metrics are reported; the difference in `run_s` between the two is
/// the tracing overhead as measured, and the calibrated cost of the
/// spans recorded bounds the part tracing itself adds.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let p = args.params();
    let threads = THREADS.min(host::nproc());
    falcon_dema::exec::set_threads(threads);
    let counts = |p: &Pass| (p.traces_used, p.coeffs_failed, p.forgeries_failed);
    let (mut pass, mut before, mut after, mut ops) = measure(args, &p, &mut Tracer::new(false))?;
    let untraced = (pass.run_s, counts(&pass));
    let mut tracer = Tracer::new(args.trace);
    if args.trace {
        (pass, before, after, ops) = measure(args, &p, &mut tracer)?;
        println!("passes: untraced run_s {:.4} s, traced {:.4} s", untraced.0, pass.run_s);
        if untraced.1 != counts(&pass) {
            pass.faults.push("untraced and traced passes disagree on the attack's counts".into());
        }
    }
    let view = LayerView { before: &before, after: &after, spans: tracer.spans() };
    let metrics = if args.trace {
        per_layer(&pass, &view, threads, ops, untraced.0)
    } else {
        end_to_end(&pass)
    };
    let remainders = view.remainders();
    let layers = trace::layer_tree(tracer.spans());
    let spans: Vec<Json> = tracer
        .spans()
        .iter()
        .map(|s| {
            Json::obj()
                .field("name", s.name)
                .field("parent", s.parent.map_or(Json::Null, Json::from))
                .field("start", s.start)
                .field("end", s.end)
        })
        .collect();
    let record = Json::obj()
        .field("context", context(args, &p, threads, &pass, &after))
        .field("correct", pass.faults.is_empty())
        .field("faults", pass.faults.iter().map(|f| Json::from(f.as_str())).collect::<Vec<_>>())
        .field(
            "counts",
            Json::obj()
                .field("traces_used", pass.traces_used)
                .field("coeffs_targeted", pass.coeffs_targeted)
                .field("coeffs_failed", pass.coeffs_failed)
                .field("forgeries", pass.forgeries)
                .field("forgeries_failed", pass.forgeries_failed),
        )
        .field("metrics", metrics_json(&metrics))
        .field("layers", trace::layers_json(&layers))
        .field(
            "remainders",
            remainders
                .iter()
                .map(|r| {
                    Json::obj()
                        .field("parent", r.parent)
                        .field("secs", r.secs)
                        .field("children_secs", r.children_secs)
                        .field("unaccounted_secs", r.secs - r.children_secs)
                })
                .collect::<Vec<_>>(),
        )
        .field("spans", spans);
    Ok(Outcome {
        batches: after.counter_delta(&before, "campaign.batches"),
        correlations: after.counter_delta(&before, "attack.correlations"),
        pass,
        metrics,
        layers,
        remainders,
        record,
    })
}
