//! The three fixed-work workloads. Each is a set-up phase (untimed by
//! `run_s`) and a timed phase made only of calls into the public API of
//! `falcon-sig`, `falcon-emsim` and `falcon-dema`, each wrapped in a
//! span of the benchmark's own.

use crate::host;
use crate::trace::Tracer;
use crate::{Params, Pass, Workload};
use falcon_bench::setup::victim;
use falcon_dema::acquire::Dataset;
use falcon_dema::attack::{recover_coefficient, AttackConfig};
use falcon_dema::campaign::{Campaign, CampaignConfig, CampaignReport, CoefficientStatus};
use falcon_dema::io;
use falcon_dema::recover::key_from_fft_bits;
use falcon_dema::screen::ScreenConfig;
use falcon_dema::stream::{reset_ring_peak, StreamedDataset};
use falcon_dema::OfflineCampaign;
use falcon_emsim::Device;
use falcon_sig::rng::Prng;
use falcon_sig::VerifyingKey;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// A victim on the bench, with the ground truth the attack is scored on
/// (the true signing key sits in `device`).
struct Victim {
    name: String,
    device: Device,
    vk: VerifyingKey,
    truth: Vec<u64>,
}

/// Builds a victim (keygen plus device) `p.keygen_reps` times, identical
/// work each time, recording each keygen's time; the last is kept.
fn make_victim(p: &Params, name: &str, pass: &mut Pass) -> Victim {
    let mut made = None;
    for _ in 0..p.keygen_reps.max(1) {
        let t0 = Instant::now();
        made = Some(victim(p.logn, p.noise, name));
        pass.keygen_s.push(t0.elapsed().as_secs_f64());
    }
    let (device, vk, truth) = made.expect("at least one keygen");
    Victim { name: name.to_string(), device, vk, truth }
}

/// Kept traces behind a coefficient's final state.
fn status_traces(s: &CoefficientStatus) -> usize {
    match *s {
        CoefficientStatus::Recovered { traces, .. }
        | CoefficientStatus::Unconverged { traces, .. } => traces,
    }
}

/// Traces re-scored by the step that turned `before` into `after`:
/// every coefficient still pending before the step and evaluated in it
/// (its trace count moved, or it converged) contributes its trace count
/// after the step.
pub fn rescored_between(before: &CampaignReport, after: &CampaignReport) -> u64 {
    before
        .statuses
        .iter()
        .zip(&after.statuses)
        .filter(|(b, a)| {
            !b.is_recovered() && (a.is_recovered() || status_traces(a) != status_traces(b))
        })
        .map(|(_, a)| status_traces(a) as u64)
        .sum()
}

/// Steps `c` to completion from outside, one span per step; in a
/// traced run successive reports are diffed for the re-scoring count.
fn drive<C>(
    t: &mut Tracer,
    pass: &mut Pass,
    c: &mut C,
    mut step: impl FnMut(&mut C) -> Res<bool>,
    report: impl Fn(&C) -> CampaignReport,
) -> Res<CampaignReport> {
    let mut prev = t.on().then(|| report(c));
    while t.span("campaign.step", |_| step(c))? {
        if let Some(before) = prev.as_mut() {
            let now = t.span("campaign.report", |_| report(c));
            pass.traces_rescored += rescored_between(before, &now);
            *before = now;
        }
    }
    Ok(report(c))
}

/// Scores a campaign against the victim's true `FFT(f)`, rebuilds the
/// key when the report is complete, and forges.
fn finish_campaign(
    t: &mut Tracer,
    p: &Params,
    seed: u64,
    v: &Victim,
    report: &CampaignReport,
    pass: &mut Pass,
) {
    pass.coeffs_targeted += report.statuses.len();
    pass.coeffs_failed += report
        .statuses
        .iter()
        .filter(|s| !s.is_recovered() || s.bits() != v.truth[s.target()])
        .count();
    let used = report.statuses.iter().map(status_traces).max().unwrap_or(0);
    pass.traces_used += used as u64;
    pass.traces_consumed += report.statuses.iter().map(|s| status_traces(s) as u64).sum::<u64>();
    pass.screen_requested += report.stats.requested as u64;
    pass.screen_kept += report.stats.kept as u64;
    let key = report.recovered_bits().and_then(|bits| rebuild(t, v, &bits, pass));
    forge(t, p, seed, v, key.as_ref(), pass);
}

/// Rebuilds the signing key from recovered bits. A key whose `f` or `g`
/// differs from the victim's, or no key from bit-exact input, is a
/// program fault. Bits wrong only below the inverse FFT's rounding still
/// give the true key; they are an attack miss, scored in `coeffs_failed`.
fn rebuild(
    t: &mut Tracer,
    v: &Victim,
    bits: &[u64],
    pass: &mut Pass,
) -> Option<falcon_sig::SigningKey> {
    let key = t.span("recover.key_from_fft_bits", |_| key_from_fft_bits(bits, &v.vk)).map(|k| k.sk);
    let true_sk = v.device.signing_key();
    match &key {
        Some(sk) if sk.f() != true_sk.f() || sk.g() != true_sk.g() => {
            pass.faults.push(format!("{}: rebuilt key differs from the victim's", v.name))
        }
        None if bits == v.truth.as_slice() => {
            pass.faults.push(format!("{}: bit-exact FFT(f) did not rebuild a key", v.name))
        }
        _ => {}
    }
    key
}

/// `p.forgeries` forgeries on messages drawn from the run seed. Without
/// a key every planned forgery fails. A verifier that accepts a forged
/// signature for a message it was not made for is a program fault.
fn forge(
    t: &mut Tracer,
    p: &Params,
    seed: u64,
    v: &Victim,
    key: Option<&falcon_sig::SigningKey>,
    pass: &mut Pass,
) {
    pass.forgeries += p.forgeries;
    let Some(sk) = key else {
        pass.forgeries_failed += p.forgeries;
        return;
    };
    let mut rng = Prng::from_seed(format!("{}/forge/{seed}", v.name).as_bytes());
    for i in 0..p.forgeries {
        let msg = format!("forged by the adversary: {} seed {seed} #{i}", v.name);
        let t0 = Instant::now();
        let sig = t.span("sig.sign", |_| sk.sign(msg.as_bytes(), &mut rng));
        pass.sign_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        let ok = t.span("sig.verify", |_| v.vk.verify(msg.as_bytes(), &sig));
        pass.verify_us.push(t0.elapsed().as_secs_f64() * 1e6);
        if !ok {
            pass.forgeries_failed += 1;
        }
        if i == 0 && v.vk.verify(b"a message nobody signed", &sig) {
            pass.faults.push(format!("{}: signature verified for the wrong message", v.name));
        }
    }
}

/// Runs one pass of `w`: set-up, then the timed phase.
pub fn run_pass(w: Workload, p: &Params, seed: u64, out_dir: &Path, t: &mut Tracer) -> Res<Pass> {
    let mut pass = Pass::default();
    let setup = Instant::now();
    match w {
        Workload::CampaignLive => campaign_live(p, seed, setup, t, &mut pass)?,
        Workload::ArchiveReplay => archive_replay(p, seed, setup, out_dir, t, &mut pass)?,
        Workload::Falcon512 => falcon512(p, seed, setup, t, &mut pass)?,
    }
    Ok(pass)
}

/// The clocks of a timed phase.
struct Timed {
    wall: Instant,
    cpu_s: f64,
}

/// Marks the end of set-up, begun at `setup`: records its wall time,
/// returns set-up's freed memory, resets the peak-RSS and ring
/// high-water marks and starts the timed phase's clocks.
fn start_timed(pass: &mut Pass, setup: Instant) -> Timed {
    pass.setup_s = setup.elapsed().as_secs_f64();
    host::trim_heap();
    pass.rss_reset = host::reset_peak_rss();
    pass.rss_start_mb = host::peak_rss_mb();
    reset_ring_peak();
    Timed { wall: Instant::now(), cpu_s: host::cpu_secs() }
}

fn end_timed(pass: &mut Pass, t0: Timed) {
    pass.run_s = t0.wall.elapsed().as_secs_f64();
    pass.cpu_s = host::cpu_secs() - t0.cpu_s;
    pass.peak_rss_mb = host::peak_rss_mb();
}

fn campaign_live(
    p: &Params,
    seed: u64,
    setup: Instant,
    t: &mut Tracer,
    pass: &mut Pass,
) -> Res<()> {
    let mut victims: Vec<Victim> =
        p.victims.iter().map(|name| make_victim(p, name, pass)).collect();
    let n = 1usize << p.logn;
    let cfg = CampaignConfig { batch_size: p.batch, ..Default::default() };
    let t0 = start_timed(pass, setup);
    t.span("run", |t| -> Res<()> {
        for v in &mut victims {
            t.span("victim", |t| -> Res<()> {
                let mut msgs = Prng::from_seed(format!("{}/msgs", v.name).as_bytes());
                let mut c = Campaign::new(n, cfg.clone()).map_err(err)?;
                let device = &mut v.device;
                let report = drive(
                    t,
                    pass,
                    &mut c,
                    |c| c.step(device, &mut msgs).map_err(err),
                    Campaign::report,
                )?;
                finish_campaign(t, p, seed, v, &report, pass);
                Ok(())
            })?;
        }
        Ok(())
    })?;
    end_timed(pass, t0);
    Ok(())
}

fn archive_replay(
    p: &Params,
    seed: u64,
    setup: Instant,
    out_dir: &Path,
    t: &mut Tracer,
    pass: &mut Pass,
) -> Res<()> {
    std::fs::create_dir_all(out_dir).map_err(err)?;
    let n = 1usize << p.logn;
    let targets: Vec<usize> = (0..n).collect();
    let mut archives: Vec<(Victim, PathBuf)> = Vec::new();
    for (i, name) in p.victims.iter().enumerate() {
        let path = out_dir.join(format!("archive-{}-{i}.fdnd", std::process::id()));
        let mut v = make_victim(p, name, pass);
        let mut msgs = Prng::from_seed(format!("{name}/msgs").as_bytes());
        let (ds, stats) = Dataset::collect_screened(
            &mut v.device,
            &targets,
            p.archive_traces,
            &mut msgs,
            Some(&ScreenConfig::default()),
        )
        .map_err(err)?;
        let tw = Instant::now();
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path).map_err(err)?);
        io::write_dataset(&ds, &mut w).map_err(err)?;
        w.flush().map_err(err)?;
        pass.io_write_s += tw.elapsed().as_secs_f64();
        pass.archive_bytes += std::fs::metadata(&path).map_err(err)?.len();
        pass.screen_requested += stats.requested as u64;
        pass.screen_kept += stats.kept as u64;
        archives.push((v, path));
    }
    let cfg =
        CampaignConfig { batch_size: p.batch, max_traces: p.archive_traces, ..Default::default() };
    let t0 = start_timed(pass, setup);
    let timed = t.span("run", |t| -> Res<()> {
        for (v, path) in &archives {
            t.span("victim", |t| -> Res<()> {
                let to = Instant::now();
                let src =
                    t.span("stream.open", |_| StreamedDataset::open_default(path)).map_err(err)?;
                pass.stream_open_s += to.elapsed().as_secs_f64();
                let mut c = OfflineCampaign::new(&src, cfg.clone()).map_err(err)?;
                let report =
                    drive(t, pass, &mut c, |c| c.step(&src).map_err(err), OfflineCampaign::report)?;
                finish_campaign(t, p, seed, v, &report, pass);
                Ok(())
            })?;
        }
        Ok(())
    });
    end_timed(pass, t0);
    for (_, path) in &archives {
        let _ = std::fs::remove_file(path);
    }
    timed
}

fn falcon512(p: &Params, seed: u64, setup: Instant, t: &mut Tracer, pass: &mut Pass) -> Res<()> {
    let name = p.victims.first().ok_or("falcon512 needs a victim seed")?;
    let mut v = make_victim(p, name, pass);
    let n = 1usize << p.logn;
    // K targets spread over the ring, distinct for any K <= n.
    let targets: Vec<usize> = (0..p.targets).map(|i| i * n / p.targets.max(1)).collect();
    let t0 = start_timed(pass, setup);
    t.span("run", |t| -> Res<()> {
        let mut msgs = Prng::from_seed(format!("{name}/msgs").as_bytes());
        let (ds, stats) = t
            .span("screen.collect_screened", |_| {
                Dataset::collect_screened(
                    &mut v.device,
                    &targets,
                    p.traces,
                    &mut msgs,
                    Some(&ScreenConfig::default()),
                )
            })
            .map_err(err)?;
        pass.screen_requested += stats.requested as u64;
        pass.screen_kept += stats.kept as u64;
        pass.traces_used += ds.traces() as u64;
        pass.traces_consumed += (ds.traces() * targets.len()) as u64;
        // A bounded stand-in for the full-key attack: the K recovered
        // coefficients are spliced into ground truth for the other
        // n − K. The NTRU solve costs the same wherever the bits came
        // from.
        let mut bits = v.truth.clone();
        for &target in &targets {
            let r = t.span("attack.recover_coefficient", |_| {
                recover_coefficient(&ds, target, &AttackConfig::default())
            });
            pass.coeffs_targeted += 1;
            if r.bits != v.truth[target] {
                pass.coeffs_failed += 1;
            }
            bits[target] = r.bits;
        }
        drop(ds);
        let key = rebuild(t, &v, &bits, pass);
        forge(t, p, seed, &v, key.as_ref(), pass);
        Ok(())
    })?;
    end_timed(pass, t0);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use falcon_dema::screen::AcquisitionStats;

    fn report(statuses: Vec<CoefficientStatus>) -> CampaignReport {
        CampaignReport { n: 4, statuses, traces_requested: 0, stats: AcquisitionStats::default() }
    }

    fn pending(target: usize, traces: usize) -> CoefficientStatus {
        CoefficientStatus::Unconverged { target, best_bits: 0, confidence: 0.0, traces }
    }

    fn done(target: usize, traces: usize) -> CoefficientStatus {
        CoefficientStatus::Recovered { target, bits: 0, confidence: 1.0, traces }
    }

    #[test]
    fn rescoring_counts_only_coefficients_evaluated_in_the_step() {
        // Live engine: every pending coefficient is re-scored on all its
        // traces, converged or not; resolved ones are skipped.
        let before = report(vec![pending(0, 100), pending(1, 100), done(2, 50)]);
        let after = report(vec![pending(0, 200), done(1, 200), done(2, 50)]);
        assert_eq!(rescored_between(&before, &after), 400);
        // Offline engine: only the cursor target moves; targets not yet
        // reached stay at zero traces.
        let before = report(vec![done(0, 800), pending(1, 400), pending(2, 0)]);
        let after = report(vec![done(0, 800), done(1, 800), pending(2, 0)]);
        assert_eq!(rescored_between(&before, &after), 800);
    }
}
