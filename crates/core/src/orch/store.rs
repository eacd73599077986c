//! The durable job store: crash-proof persistence of job specs, states
//! and campaign checkpoints.
//!
//! One directory holds three files per job — `<name>.spec` (written
//! once at submission), `<name>.state` (rewritten atomically on every
//! lifecycle transition) and `<name>.ckpt` (the campaign checkpoint,
//! rewritten every supervision slice). The spec and state files each
//! hold one flat JSON line, the codec of [`JobSpec`] and [`JobStatus`]
//! that the control plane's RPC also speaks; a reader takes at most
//! 64 MiB from either. Every write goes through
//! [`io::atomic_write`]: temp sibling, fsync, rename, *parent-directory
//! fsync* — so a SIGKILL or power loss at any instant leaves each file
//! either at its previous version or its new one, never torn and never
//! silently vanished.
//!
//! [`JobStore::recover`] is the idempotent crash-recovery pass a
//! restarting daemon runs before serving: it deletes torn `*.tmp`
//! leftovers and **re-adopts orphans** — jobs whose persisted state
//! still says `running` even though no process is running them — by
//! parking them back to `queued` with their checkpoint (and therefore
//! all partial per-coefficient progress) intact.

use crate::error::{Error, Result};
use crate::io;
use crate::obs;
use crate::orch::job::{valid_name, JobSpec, JobState, JobStatus, MAX_RECORD_BYTES};
use std::io::Read;
use std::path::{Path, PathBuf};

/// Durable, atomic per-job persistence rooted at one directory.
#[derive(Debug, Clone)]
pub struct JobStore {
    dir: PathBuf,
}

/// What a [`JobStore::recover`] pass found and repaired.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Jobs re-adopted from `running` back to `queued`.
    pub adopted: Vec<String>,
    /// Torn `*.tmp` files deleted.
    pub torn_removed: usize,
    /// Jobs whose records were unreadable and were marked failed.
    pub corrupt: Vec<String>,
}

impl JobStore {
    /// Opens (creating if needed) a job store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open(dir: impl Into<PathBuf>) -> Result<JobStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        // Make the directory itself durable before anything inside it is.
        if let Some(parent) = dir.parent().filter(|d| !d.as_os_str().is_empty()) {
            io::fsync_dir(parent)?;
        }
        Ok(JobStore { dir })
    }

    fn file(&self, name: &str, ext: &str) -> PathBuf {
        self.dir.join(format!("{name}.{ext}"))
    }

    /// Path of a job's spec record.
    pub fn spec_path(&self, name: &str) -> PathBuf {
        self.file(name, "spec")
    }

    /// Path of a job's state record.
    pub fn state_path(&self, name: &str) -> PathBuf {
        self.file(name, "state")
    }

    /// Path of a job's campaign checkpoint.
    pub fn checkpoint_path(&self, name: &str) -> PathBuf {
        self.file(name, "ckpt")
    }

    /// Whether a job of this name exists (has a persisted spec).
    pub fn exists(&self, name: &str) -> bool {
        self.spec_path(name).exists()
    }

    /// Persists a new job: the spec (write-once) and a fresh `queued`
    /// state record.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Orchestration`] for an invalid spec or duplicate
    /// name, [`Error::Persist`] on a failed durable write.
    pub fn submit(&self, spec: &JobSpec) -> Result<()> {
        spec.validate()?;
        if self.exists(&spec.name) {
            return Err(Error::Orchestration(format!("job {:?} already exists", spec.name)));
        }
        self.write_status(&spec.name, &JobStatus::queued(spec.n()))?;
        io::atomic_write(&self.spec_path(&spec.name), |w| Ok(writeln!(w, "{}", spec.to_line())?))?;
        obs::metrics().counter("orch.submitted").incr();
        Ok(())
    }

    /// Reads a job's spec.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Orchestration`] for an unknown job and the
    /// record's parse errors otherwise.
    pub fn read_spec(&self, name: &str) -> Result<JobSpec> {
        JobSpec::from_line(&read_line(&self.spec_path(name), name)?)
    }

    /// Reads a job's current persisted status.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Orchestration`] for an unknown job and the
    /// record's parse errors otherwise.
    pub fn read_status(&self, name: &str) -> Result<JobStatus> {
        JobStatus::from_line(&read_line(&self.state_path(name), name)?)
    }

    /// Atomically persists a job's status.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Persist`] on a failed durable write.
    pub fn write_status(&self, name: &str, status: &JobStatus) -> Result<()> {
        io::atomic_write(&self.state_path(name), |w| Ok(writeln!(w, "{}", status.to_line())?))
    }

    /// All job names with a persisted spec, sorted (the deterministic
    /// adoption order after a restart).
    ///
    /// # Errors
    ///
    /// Propagates directory-scan errors.
    pub fn jobs(&self) -> Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("spec") {
                continue;
            }
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                if valid_name(stem) {
                    names.push(stem.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    /// Idempotent crash recovery: deletes torn `*.tmp` files, re-adopts
    /// `running` orphans back to `queued` (their checkpoints — and so
    /// every acquired trace — survive), and marks jobs with unreadable
    /// records as failed rather than wedging the daemon.
    ///
    /// # Errors
    ///
    /// Propagates directory-scan and durable-write errors.
    pub fn recover(&self) -> Result<RecoveryReport> {
        let mut report = RecoveryReport::default();
        // Torn temp files first: they are by definition incomplete.
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let is_tmp = path
                .file_name()
                .and_then(|f| f.to_str())
                .is_some_and(|f| f.ends_with(io::TMP_SUFFIX));
            if is_tmp {
                std::fs::remove_file(&path)?;
                report.torn_removed += 1;
            }
        }
        if report.torn_removed > 0 {
            io::fsync_dir(&self.dir)?;
        }
        for name in self.jobs()? {
            match self.read_status(&name) {
                Ok(mut status) => {
                    if status.state == JobState::Running {
                        status.state = JobState::Queued;
                        self.write_status(&name, &status)?;
                        obs::metrics().counter("orch.adopted").incr();
                        let n = name.clone();
                        obs::emit(|| {
                            obs::Event::new("orch.adopt")
                                .with_str("job", n.clone())
                                .with_u64("traces_requested", status.traces_requested)
                                .with_u64("retries", u64::from(status.retries))
                        });
                        report.adopted.push(name);
                    }
                }
                Err(_) => {
                    // An unreadable state record should be impossible
                    // under the atomic-write protocol; if it happens
                    // anyway (disk corruption), quarantine the job
                    // instead of refusing to start.
                    let spec_n = self.read_spec(&name).map(|s| s.n()).unwrap_or(0);
                    let mut status = JobStatus::queued(spec_n);
                    status.state = JobState::Failed;
                    status.last_error = "unreadable state record quarantined at recovery".into();
                    self.write_status(&name, &status)?;
                    report.corrupt.push(name);
                }
            }
        }
        let (adopted, torn) = (report.adopted.len(), report.torn_removed);
        obs::emit(|| {
            obs::Event::new("orch.recover")
                .with_u64("adopted", adopted as u64)
                .with_u64("torn_removed", torn as u64)
        });
        Ok(report)
    }
}

/// Reads one record file of job `name`, refusing one over 64 MiB.
fn read_line(path: &Path, name: &str) -> Result<String> {
    let f = std::fs::File::open(path)
        .map_err(|_| Error::Orchestration(format!("unknown job {name:?}")))?;
    if f.metadata()?.len() > MAX_RECORD_BYTES {
        return Err(Error::Orchestration(format!("record {} is too long", path.display())));
    }
    let mut line = String::new();
    f.take(MAX_RECORD_BYTES).read_to_string(&mut line)?;
    Ok(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("falcon-orch-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec(name: &str) -> JobSpec {
        JobSpec { name: name.into(), seed: format!("{name} seed"), ..Default::default() }
    }

    #[test]
    fn submit_roundtrips_and_rejects_duplicates() {
        let dir = tmp_dir("submit");
        let store = JobStore::open(&dir).unwrap();
        store.submit(&spec("job-a")).unwrap();
        assert_eq!(store.read_spec("job-a").unwrap(), spec("job-a"));
        assert_eq!(store.read_status("job-a").unwrap().state, JobState::Queued);
        assert!(matches!(store.submit(&spec("job-a")), Err(Error::Orchestration(_))));
        assert!(matches!(store.read_spec("nope"), Err(Error::Orchestration(_))));
        assert_eq!(store.jobs().unwrap(), vec!["job-a".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_readopts_running_orphans_and_cleans_torn_tmp() {
        let dir = tmp_dir("recover");
        let store = JobStore::open(&dir).unwrap();
        store.submit(&spec("job-a")).unwrap();
        store.submit(&spec("job-b")).unwrap();
        // Simulate a crash mid-run: job-a persisted as running, plus a
        // torn temp file from an interrupted checkpoint write.
        let mut st = store.read_status("job-a").unwrap();
        st.state = JobState::Running;
        st.traces_requested = 120;
        st.retries = 1;
        store.write_status("job-a", &st).unwrap();
        std::fs::write(dir.join("job-a.ckpt.tmp"), b"torn garbage").unwrap();

        let report = store.recover().unwrap();
        assert_eq!(report.adopted, vec!["job-a".to_string()]);
        assert_eq!(report.torn_removed, 1);
        assert!(report.corrupt.is_empty());
        let st = store.read_status("job-a").unwrap();
        assert_eq!(st.state, JobState::Queued);
        assert_eq!(st.traces_requested, 120);
        assert_eq!(st.retries, 1);
        assert_eq!(store.read_status("job-b").unwrap().state, JobState::Queued);
        // Idempotent: a second pass changes nothing.
        let again = store.recover().unwrap();
        assert_eq!(again, RecoveryReport::default());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_quarantines_unreadable_state_records() {
        let dir = tmp_dir("corrupt");
        let store = JobStore::open(&dir).unwrap();
        store.submit(&spec("job-a")).unwrap();
        // A queued status in the retired binary layout: magic and
        // version, the state tag, then zeroed little-endian u64 words.
        let old = [&b"\x46\x44\x4e\x4a\x53\x54\x41\x01\x00"[..], &[0; 64]].concat();
        std::fs::write(store.state_path("job-a"), old).unwrap();
        assert!(matches!(store.read_status("job-a"), Err(Error::Orchestration(_))));
        let report = store.recover().unwrap();
        assert_eq!(report.corrupt, vec!["job-a".to_string()]);
        let st = store.read_status("job-a").unwrap();
        assert_eq!(st.state, JobState::Failed);
        assert!(st.last_error.contains("quarantined"));
        // A record file longer than the reader's bound is refused unread.
        std::fs::File::create(store.spec_path("job-a"))
            .and_then(|f| f.set_len(MAX_RECORD_BYTES + 1))
            .unwrap();
        assert!(matches!(store.read_spec("job-a"), Err(Error::Orchestration(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn state_transitions_are_atomic_under_interleaved_tmp_names() {
        // Sibling records of one job must not collide on temp names:
        // job.spec.tmp vs job.state.tmp vs job.ckpt.tmp.
        let dir = tmp_dir("tmpnames");
        let store = JobStore::open(&dir).unwrap();
        store.submit(&spec("job-a")).unwrap();
        let mut st = store.read_status("job-a").unwrap();
        for state in [JobState::Running, JobState::Paused, JobState::Queued] {
            st.state = state;
            store.write_status("job-a", &st).unwrap();
            assert_eq!(store.read_status("job-a").unwrap().state, state);
            // Spec untouched by state rewrites.
            assert_eq!(store.read_spec("job-a").unwrap(), spec("job-a"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
