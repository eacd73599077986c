//! Self-tests for the observability substrate: span nesting, histogram
//! bucket boundaries, JSONL round-trip, and the zero-event guarantee of
//! the no-op default.

use crate::event::{parse_jsonl, Event, Value};
use crate::registry::{metrics, Histogram, MetricsSnapshot};
use crate::sink::{clear_sink, emit, set_sink, sink_enabled, MemorySink, NoopSink};
use crate::span::{span, span_depth};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// The sink is process-global; tests that install one must not overlap.
fn sink_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
}

fn histogram(name: &str, bounds: &[f64]) -> Arc<Histogram> {
    metrics().histogram(name, bounds)
}

#[test]
fn counter_gauge_accumulate_and_snapshot() {
    let c = metrics().counter("test.counter");
    let before = c.get();
    c.add(5);
    c.incr();
    assert_eq!(c.get(), before + 6);
    metrics().gauge("test.gauge").set(2.5);
    let snap = metrics().snapshot();
    assert_eq!(snap.counter("test.counter"), before + 6);
    assert_eq!(snap.gauges["test.gauge"], 2.5);
    // Absent names read as zero, and deltas saturate.
    assert_eq!(snap.counter("test.never-created"), 0);
    assert_eq!(MetricsSnapshot::default().counter_delta(&snap, "test.counter"), 0);
}

#[test]
fn histogram_bucket_boundaries_are_inclusive_upper() {
    let h = histogram("test.hist.bounds", &[1.0, 10.0, 100.0]);
    // Value == bound lands in that bound's bucket; value just above
    // spills into the next; values beyond every bound hit the overflow
    // bucket.
    for v in [0.0, 1.0] {
        h.record(v);
    }
    h.record(1.0000001);
    h.record(10.0);
    h.record(100.0);
    h.record(100.0000001);
    h.record(1e9);
    assert_eq!(h.bucket_counts(), vec![2, 2, 1, 2]);
    assert_eq!(h.count(), 7);
    let want_sum = 0.0 + 1.0 + 1.0000001 + 10.0 + 100.0 + 100.0000001 + 1e9;
    assert!((h.sum() - want_sum).abs() < 1e-6 * want_sum);
}

#[test]
fn histogram_duration_bounds_cover_campaign_scales() {
    let b = crate::registry::duration_bounds();
    assert!(b.first().copied() == Some(1e-6));
    assert!(b.windows(2).all(|w| w[0] < w[1]));
    assert!(*b.last().unwrap() > 60.0, "top finite bucket must exceed a minute");
}

#[test]
#[should_panic(expected = "increasing")]
fn histogram_rejects_unsorted_bounds() {
    let _ = histogram("test.hist.bad", &[2.0, 1.0]);
}

#[test]
fn span_nesting_depths_and_histogram_recording() {
    let _guard = sink_lock();
    let mem = Arc::new(MemorySink::default());
    set_sink(mem.clone());
    assert_eq!(span_depth(), 0);
    {
        let outer = span("test.outer");
        assert_eq!(outer.depth(), 0);
        assert_eq!(span_depth(), 1);
        {
            let inner = span("test.inner");
            assert_eq!(inner.depth(), 1);
            assert_eq!(span_depth(), 2);
        }
        assert_eq!(span_depth(), 1);
        assert_eq!(outer.name(), "test.outer");
    }
    assert_eq!(span_depth(), 0);
    clear_sink();

    // Both spans recorded durations into their histograms...
    let snap = metrics().snapshot();
    assert!(snap.histograms["span.test.outer"].count >= 1);
    assert!(snap.histograms["span.test.inner"].count >= 1);
    // ...and emitted events carrying their depths (inner drops first).
    let lines = mem.lines();
    assert_eq!(lines.len(), 2);
    let inner = parse_jsonl(&lines[0]).unwrap();
    let outer = parse_jsonl(&lines[1]).unwrap();
    let field =
        |f: &[(String, Value)], k: &str| f.iter().find(|(key, _)| key == k).map(|(_, v)| v.clone());
    assert_eq!(field(&inner, "name"), Some(Value::Str("test.inner".into())));
    assert_eq!(field(&inner, "depth"), Some(Value::U64(1)));
    assert_eq!(field(&outer, "depth"), Some(Value::U64(0)));
    // The inner span's wall time is contained in the outer's.
    let secs = |f: &[(String, Value)]| match field(f, "secs") {
        Some(Value::F64(s)) => s,
        other => panic!("secs missing: {other:?}"),
    };
    assert!(secs(&inner) <= secs(&outer));
}

#[test]
fn jsonl_round_trips_through_the_parser() {
    let ev = Event::new("unit.test")
        .with_u64("count", 42)
        .with_i64("delta", -7)
        .with_f64("ratio", 0.125)
        .with_f64("big", 1.5e300)
        .with_bool("ok", true)
        .with_str("label", "quote\" slash\\ newline\n tab\t unicode\u{1F980}é");
    let line = ev.to_json();
    let fields = parse_jsonl(&line).expect("parse back");
    assert_eq!(fields[0], ("ev".into(), Value::Str("unit.test".into())));
    assert_eq!(fields[1], ("count".into(), Value::U64(42)));
    assert_eq!(fields[2], ("delta".into(), Value::I64(-7)));
    assert_eq!(fields[3], ("ratio".into(), Value::F64(0.125)));
    assert_eq!(fields[4], ("big".into(), Value::F64(1.5e300)));
    assert_eq!(fields[5], ("ok".into(), Value::Bool(true)));
    assert_eq!(
        fields[6],
        ("label".into(), Value::Str("quote\" slash\\ newline\n tab\t unicode\u{1F980}é".into()))
    );
}

#[test]
fn jsonl_parser_rejects_malformed_lines() {
    for bad in ["", "{", "{\"a\":}", "{\"a\":1", "{\"a\" 1}", "{\"a\":1}extra", "[1,2]"] {
        assert!(parse_jsonl(bad).is_none(), "accepted {bad:?}");
    }
    assert_eq!(parse_jsonl("{}").unwrap(), vec![]);
}

#[test]
fn jsonl_sink_writes_parseable_lines() {
    let _guard = sink_lock();
    let buf = Arc::new(Mutex::new(Vec::<u8>::new()));
    struct Shared(Arc<Mutex<Vec<u8>>>);
    impl std::io::Write for Shared {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    set_sink(Arc::new(crate::sink::JsonlSink::new(Shared(buf.clone()))));
    emit(|| Event::new("line.one").with_u64("i", 1));
    emit(|| Event::new("line.two").with_str("s", "x"));
    clear_sink(); // flushes
    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2);
    for line in lines {
        let fields = parse_jsonl(line).expect("every emitted line parses");
        assert_eq!(fields[0].0, "ev");
    }
}

#[test]
fn noop_default_emits_zero_events_and_never_builds_them() {
    let _guard = sink_lock();
    // Capture proof that a sink *would* see events...
    let mem = Arc::new(MemorySink::default());
    set_sink(mem.clone());
    emit(|| Event::new("visible"));
    assert_eq!(mem.len(), 1);
    // ...then return to the default no-op state: nothing further arrives
    // and the event-builder closure is never invoked.
    clear_sink();
    assert!(!sink_enabled());
    let mut built = false;
    emit(|| {
        built = true;
        Event::new("invisible")
    });
    assert!(!built, "disabled emit must not build the event");
    assert_eq!(mem.len(), 1, "no-op sink state must add zero events");
    // The explicit NoopSink also swallows events (but does build them).
    set_sink(Arc::new(NoopSink));
    emit(|| Event::new("swallowed"));
    clear_sink();
    assert_eq!(mem.len(), 1);
}

#[test]
fn ops_counter_counts_primitive_operations() {
    // `emit` reaches whatever sink another test installed: hold the
    // sink lock so this event cannot land in that test's MemorySink.
    let _guard = sink_lock();
    let before = crate::ops();
    metrics().counter("test.ops").incr();
    metrics().gauge("test.ops.gauge").set(1.0);
    histogram("test.ops.hist", &[1.0]).record(0.5);
    emit(|| Event::new("not built"));
    let delta = crate::ops() - before;
    // Exactly one op per primitive — plus possibly concurrent test
    // threads, so lower-bound only.
    assert!(delta >= 4, "expected >= 4 ops, got {delta}");
}
