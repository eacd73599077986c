//! The line-delimited JSON-RPC wire format.
//!
//! Every request and reply is one **flat** JSON object per line — the
//! same subset `falcon-obs` events use, so both directions parse with
//! [`falcon_obs::parse_jsonl`] and render through
//! [`falcon_obs::Event`]; the daemon needs no JSON dependency.
//!
//! Requests carry a `"method"` field (`ping`, `submit`, `status`,
//! `pause`, `resume`, `cancel`, `max_running`, `drain`) plus method
//! arguments. Replies lead with `{"ev":"reply","ok":…}`; a `status`
//! reply adds `"jobs":N` and is followed by `N` `{"ev":"job",…}` lines,
//! one per job. A `submit` request and a job line carry the spec and
//! status fields of the job store's record codec
//! ([`JobSpec::with_fields`], [`JobStatus::with_fields`]); this module
//! adds only the envelope.

use falcon_dema::error::{Error, Result};
pub use falcon_dema::orch::job::parse_csv;
use falcon_dema::orch::{JobSpec, JobStatus};
use falcon_obs::{parse_jsonl, Event, Value};

/// One parsed wire line: ordered key/value fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Msg {
    /// The line's fields, in wire order.
    pub fields: Vec<(String, Value)>,
}

impl Msg {
    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Orchestration`] on malformed JSON.
    pub fn parse(line: &str) -> Result<Msg> {
        parse_jsonl(line)
            .map(|fields| Msg { fields })
            .ok_or_else(|| Error::Orchestration(format!("malformed rpc line: {line:?}")))
    }

    /// Raw field lookup (first match wins).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// String field.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// Unsigned-integer field.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        match self.get(key) {
            Some(Value::U64(v)) => Some(*v),
            _ => None,
        }
    }

    /// Boolean field.
    pub fn get_bool(&self, key: &str) -> Option<bool> {
        match self.get(key) {
            Some(Value::Bool(v)) => Some(*v),
            _ => None,
        }
    }
}

/// Renders a `submit` request line for `spec`.
pub fn submit_request(spec: &JobSpec) -> String {
    spec.with_fields(Event::new("rpc").with_str("method", "submit")).to_json()
}

/// The success reply line, optionally announcing `jobs` follow-up lines.
pub fn ok_reply(jobs: Option<u64>) -> String {
    let mut e = Event::new("reply").with_bool("ok", true);
    if let Some(n) = jobs {
        e = e.with_u64("jobs", n);
    }
    e.to_json()
}

/// The error reply line.
pub fn err_reply(msg: &str) -> String {
    Event::new("reply").with_bool("ok", false).with_str("error", msg.to_string()).to_json()
}

/// Renders one per-job `status` follow-up line.
pub fn job_line(name: &str, st: &JobStatus) -> String {
    st.with_fields(Event::new("job").with_str("job", name.to_string())).to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_request_roundtrips_the_full_spec() {
        let spec = JobSpec {
            name: "wire-a".into(),
            logn: 4,
            noise_sigma: 0.75,
            seed: "wire seed".into(),
            batch_size: 40,
            max_traces: 400,
            steps_per_slice: 2,
            max_retries: 3,
            step_deadline_ms: 500,
            job_deadline_ms: 60_000,
            backoff_base_ms: 10,
            backoff_cap_ms: 1_000,
            panic_steps: vec![1, 3],
            stall_steps: vec![2],
            stall_ms: 25,
            dataset: "captures/wire-a.fdnd".into(),
        };
        let line = submit_request(&spec);
        let msg = Msg::parse(&line).unwrap();
        assert_eq!(msg.get_str("method"), Some("submit"));
        assert_eq!(JobSpec::from_fields(&msg.fields).unwrap(), spec);
    }

    #[test]
    fn sparse_submit_uses_spec_defaults() {
        let msg = Msg::parse(r#"{"method":"submit","job":"tiny","seed":"s"}"#).unwrap();
        let spec = JobSpec::from_fields(&msg.fields).unwrap();
        assert_eq!(spec.name, "tiny");
        assert_eq!(spec.logn, JobSpec::default().logn);
        assert_eq!(spec.max_traces, JobSpec::default().max_traces);
    }

    #[test]
    fn missing_required_fields_and_bad_lines_are_rejected() {
        assert!(Msg::parse("not json").is_err());
        let msg = Msg::parse(r#"{"method":"submit","job":"x"}"#).unwrap();
        assert!(JobSpec::from_fields(&msg.fields).is_err(), "seed is required");
        let msg = Msg::parse(r#"{"method":"submit","job":"BAD NAME","seed":"s"}"#).unwrap();
        assert!(JobSpec::from_fields(&msg.fields).is_err(), "validation must run");
        assert!(parse_csv("1,2,x").is_err());
        assert_eq!(parse_csv("").unwrap(), Vec::<u64>::new());
        assert_eq!(parse_csv("7, 8").unwrap(), vec![7, 8]);
    }

    #[test]
    fn job_line_carries_state_and_bits() {
        let mut st = JobStatus::queued(8);
        st.bits = vec![5, 6, 7];
        st.last_error = "quoted \"error\"".into();
        let msg = Msg::parse(&job_line("j1", &st)).unwrap();
        assert_eq!(msg.get_str("job"), Some("j1"));
        assert_eq!(msg.get_str("state"), Some("queued"));
        assert_eq!(parse_csv(msg.get_str("bits").unwrap()).unwrap(), vec![5, 6, 7]);
        assert_eq!(msg.get_str("last_error"), Some("quoted \"error\""));
    }

    #[test]
    fn replies_parse_back() {
        let ok = Msg::parse(&ok_reply(Some(2))).unwrap();
        assert_eq!(ok.get_bool("ok"), Some(true));
        assert_eq!(ok.get_u64("jobs"), Some(2));
        let err = Msg::parse(&err_reply("boom")).unwrap();
        assert_eq!(err.get_bool("ok"), Some(false));
        assert_eq!(err.get_str("error"), Some("boom"));
    }
}
