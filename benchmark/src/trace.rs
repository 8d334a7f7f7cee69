//! Spans recorded by the harness around its calls into each layer.
//!
//! A traced run executes every operation step by step; each step is a span
//! whose parent is the operation's root span. Spans stay in memory while
//! the workload runs and are written out as JSON lines when it ends. Spans
//! inside the engine are a later change (ROADMAP item 4).

use crate::util::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    /// Shared by the spans of one operation.
    pub op_id: u64,
    pub span_id: u64,
    /// The span that caused this one; `None` for an operation's root.
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// One thread's span recorder. Ids are unique across threads: the thread
/// index is folded into the high bits.
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, thread: u64) -> Tracer {
        Tracer {
            epoch,
            next_id: (thread << 40) + 1,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// Run one operation under a root span; `f` records its steps through
    /// the [`Op`] it is handed.
    pub fn op<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Op<'_>) -> R) -> R {
        let id = self.fresh_id();
        let start_ns = self.now_ns();
        let out = f(&mut Op {
            tracer: self,
            root: id,
        });
        let end_ns = self.now_ns();
        self.spans.push(Span {
            op_id: id,
            span_id: id,
            parent: None,
            name,
            start_ns,
            end_ns,
        });
        out
    }
}

/// The operation a step belongs to.
pub struct Op<'a> {
    tracer: &'a mut Tracer,
    root: u64,
}

impl Op<'_> {
    /// Run one step (a call into a layer) under a child span of the root.
    pub fn step<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start_ns = self.tracer.now_ns();
        let out = f();
        let end_ns = self.tracer.now_ns();
        let span_id = self.tracer.fresh_id();
        self.tracer.spans.push(Span {
            op_id: self.root,
            span_id,
            parent: Some(self.root),
            name,
            start_ns,
            end_ns,
        });
        out
    }
}

/// Per-layer time samples (ms) derived from a trace, plus how much of the
/// operations' time the steps account for.
pub struct LayerTimes {
    /// Step name → one sample per operation that had the step. `translate`
    /// and `exec` hold self time: each repeats a parse (`ArchIS::translate`
    /// takes the XQuery text, `execute_sql` the SQL text) that the probe
    /// step just before it measured, so the probe is subtracted.
    pub steps: BTreeMap<&'static str, Vec<f64>>,
    /// Root name → duration of each operation.
    pub roots: BTreeMap<&'static str, Vec<f64>>,
    /// Σ step time ÷ Σ root time over operations that have steps.
    pub coverage: f64,
}

pub fn layer_times(spans: &[Span]) -> LayerTimes {
    let mut by_op: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_op.entry(s.op_id).or_default().push(s);
    }
    let mut out = LayerTimes {
        steps: BTreeMap::new(),
        roots: BTreeMap::new(),
        coverage: 1.0,
    };
    let (mut stepped, mut rooted) = (0.0, 0.0);
    for op in by_op.values() {
        let step_ms = |name: &str| -> f64 {
            op.iter()
                .filter(|s| s.parent.is_some() && s.name == name)
                .map(|s| s.ms())
                .sum()
        };
        let mut children = 0.0;
        for s in op {
            if s.parent.is_none() {
                out.roots.entry(s.name).or_default().push(s.ms());
                continue;
            }
            children += s.ms();
            let ms = match s.name {
                "translate" => (s.ms() - step_ms("xquery.parse")).max(0.0),
                "exec" => (s.ms() - step_ms("sqlxml.parse")).max(0.0),
                _ => s.ms(),
            };
            out.steps.entry(s.name).or_default().push(ms);
        }
        if children > 0.0 {
            stepped += children;
            rooted += op
                .iter()
                .filter(|s| s.parent.is_none())
                .map(|s| s.ms())
                .sum::<f64>();
        }
    }
    if rooted > 0.0 {
        out.coverage = stepped / rooted;
    }
    out
}

/// Write spans as JSON lines:
/// `{"op_id":..,"span_id":..,"parent":..|null,"name":"..","start_ns":..,"end_ns":..}`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let line = Json::obj([
            ("op_id", Json::Int(s.op_id)),
            ("span_id", Json::Int(s.span_id)),
            ("parent", s.parent.map_or(Json::Null, Json::Int)),
            ("name", Json::str(s.name)),
            ("start_ns", Json::Int(s.start_ns)),
            ("end_ns", Json::Int(s.end_ns)),
        ]);
        writeln!(file, "{}", line.render())?;
    }
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_link_to_their_root_and_probes_are_subtracted() {
        let mut t = Tracer::new(Instant::now(), 1);
        t.op("query", |op| {
            op.step("xquery.parse", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            op.step("translate", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        assert_eq!(t.spans.len(), 3);
        let root = t.spans.iter().find(|s| s.parent.is_none()).unwrap();
        assert!(t
            .spans
            .iter()
            .filter(|s| s.parent.is_some())
            .all(|s| s.parent == Some(root.span_id) && s.op_id == root.op_id));
        let lt = layer_times(&t.spans);
        let translate = lt.steps["translate"][0];
        assert!((2.0..5.0).contains(&translate), "self time {translate}");
        assert!(lt.coverage > 0.9 && lt.coverage <= 1.0);
        assert_eq!(lt.roots["query"].len(), 1);
    }
}
