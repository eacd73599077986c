//! Scoped wall-clock timing spans.
//!
//! A [`span`] guard measures the wall time between its creation and its
//! drop, records the duration into the `span.<name>` histogram, and —
//! when a sink is installed — emits a `span` event carrying its
//! thread-local nesting depth (0 for an outermost span).

use crate::event::Event;
use std::cell::Cell;
use std::time::Instant;

thread_local! {
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// The nesting depth the *next* span opened on this thread would get.
pub fn span_depth() -> usize {
    DEPTH.with(Cell::get)
}

/// An open timing span; closes (records + emits) on drop.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Instant,
    depth: usize,
}

impl Span {
    /// The span's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// This span's nesting depth (0 = outermost on its thread).
    pub fn depth(&self) -> usize {
        self.depth
    }
}

/// Opens a span. Hold the guard for the duration of the stage:
///
/// ```
/// let _span = falcon_obs::span("doc.stage");
/// // ... timed work ...
/// ```
pub fn span(name: &'static str) -> Span {
    let depth = DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    // ct: allow(span timing is wall-clock by design)
    Span { name, start: Instant::now(), depth }
}

impl Drop for Span {
    fn drop(&mut self) {
        // ct: allow(span timing is wall-clock by design)
        let secs = self.start.elapsed().as_secs_f64();
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        crate::registry::histogram(&format!("span.{}", self.name)).record(secs);
        crate::sink::emit(|| {
            Event::new("span")
                .with_str("name", self.name)
                .with_f64("secs", secs)
                .with_u64("depth", self.depth as u64)
        });
    }
}
