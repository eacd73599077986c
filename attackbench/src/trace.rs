//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call into the library's public API in a
//! span (name, start, end, parent id). Spans stay in memory and are
//! folded into a layer tree when the run ends. When tracing is off the
//! recorder only calls through, so the untraced run times the same
//! code with nothing recorded.

use falcon_bench::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are seconds since the recorder was created.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

impl SpanRec {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Records nested spans when `on`; otherwise a pass-through.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name`, a child of the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(SpanRec { name, parent: self.open.last().copied(), start, end: start });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
        out
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }
}

/// Seconds one recorded span costs, measured on empty spans.
pub fn span_cost_secs() -> f64 {
    const N: usize = 100_000;
    let mut t = Tracer::new(true);
    let t0 = Instant::now();
    t.span("calibration", |t| {
        for i in 0..N {
            std::hint::black_box(t.span("empty", |_| i));
        }
    });
    t0.elapsed().as_secs_f64() / (N + 1) as f64
}

/// One node of the layer tree: every span with the same path of names
/// from the root, merged.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Slash-joined names from the root, e.g. `run/victim/campaign.step`.
    pub path: String,
    pub count: u64,
    pub secs: f64,
    /// Part of `secs` not covered by child spans.
    pub unaccounted_secs: f64,
}

/// Folds spans into layers keyed by path, in path order.
pub fn layer_tree(spans: &[SpanRec]) -> Vec<Layer> {
    let mut paths: Vec<String> = Vec::with_capacity(spans.len());
    let mut child_secs = vec![0.0; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        // Parents open before their children, so their paths exist.
        let path = match s.parent {
            Some(p) => {
                child_secs[p] += s.secs();
                format!("{}/{}", paths[p], s.name)
            }
            None => s.name.to_string(),
        };
        debug_assert_eq!(paths.len(), i);
        paths.push(path);
    }
    let mut layers: BTreeMap<&str, Layer> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let l = layers.entry(&paths[i]).or_insert_with(|| Layer {
            path: paths[i].clone(),
            count: 0,
            secs: 0.0,
            unaccounted_secs: 0.0,
        });
        l.count += 1;
        l.secs += s.secs();
        l.unaccounted_secs += s.secs() - child_secs[i];
    }
    layers.into_values().collect()
}

/// Share of the root spans' time spent inside leaf spans, the spans
/// around single calls into the library.
pub fn coverage(spans: &[SpanRec]) -> f64 {
    let mut has_child = vec![false; spans.len()];
    for p in spans.iter().filter_map(|s| s.parent) {
        has_child[p] = true;
    }
    let root: f64 = spans.iter().filter(|s| s.parent.is_none()).map(SpanRec::secs).sum();
    let leaves: f64 =
        spans.iter().zip(&has_child).filter(|(_, &c)| !c).map(|(s, _)| s.secs()).sum();
    if root > 0.0 {
        leaves / root
    } else {
        0.0
    }
}

pub fn layers_json(layers: &[Layer]) -> Json {
    layers
        .iter()
        .map(|l| {
            Json::obj()
                .field("path", l.path.as_str())
                .field("count", l.count)
                .field("secs", l.secs)
                .field("unaccounted_secs", l.unaccounted_secs)
        })
        .collect::<Vec<_>>()
        .into()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> SpanRec {
        SpanRec { name, parent, start, end }
    }

    #[test]
    fn tree_merges_paths_and_reports_remainders() {
        let spans = vec![
            rec("run", None, 0.0, 10.0),
            rec("step", Some(0), 0.0, 4.0),
            rec("step", Some(0), 4.0, 8.0),
            rec("inner", Some(2), 4.0, 5.0),
        ];
        let tree = layer_tree(&spans);
        let paths: Vec<&str> = tree.iter().map(|l| l.path.as_str()).collect();
        assert_eq!(paths, ["run", "run/step", "run/step/inner"]);
        assert_eq!(tree[0].unaccounted_secs, 2.0);
        assert_eq!((tree[1].count, tree[1].secs, tree[1].unaccounted_secs), (2, 8.0, 7.0));
        // Leaves: the first step (4 s) and the inner span (1 s) of 10 s.
        assert_eq!(coverage(&spans), 0.5);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |t| t.span("y", |_| 7)), 7);
        assert!(t.spans().is_empty());
    }
}
