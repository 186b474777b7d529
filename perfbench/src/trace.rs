//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of each layer boundary: one
//! span around each batch of calls into a layer's public functions, with the
//! operation's root span (the whole re-driven pipeline) as parent. Counters
//! taken from the stats those calls return ride along in [`Counters`].

use std::io::Write;
use std::time::Instant;

/// The layers a span can belong to; `Joins` is the root of every operation.
/// Per-layer arrays are indexed by declaration order (`layer as usize`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Joins,
    Text,
    Builder,
    Exec,
    Sim,
    Index,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Joins => "joins",
            Layer::Text => "text",
            Layer::Builder => "builder",
            Layer::Exec => "exec",
            Layer::Sim => "sim",
            Layer::Index => "index",
        }
    }
}

/// One recorded span. `label` names the call inside the layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: Layer,
    pub label: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Work counts taken at the same boundaries as the spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub tokens: u64,
    pub universe: u64,
    pub set_elements: u64,
    pub prefix_tuples: u64,
    pub candidate_pairs: u64,
    pub merge_steps: u64,
    pub early_exits: u64,
    pub exec_output: u64,
    pub udf_calls: u64,
    pub udf_accepted: u64,
    pub probes: u64,
    pub probe_candidates: u64,
    pub probe_merge_steps: u64,
    pub epoch_merges: u64,
}

/// Records spans and counters for a sequence of operations.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    op: u64,
    root: Option<usize>,
    /// Span index range of each operation (`op - 1` indexes it).
    ranges: Vec<std::ops::Range<usize>>,
    pub counters: Counters,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            op: 0,
            root: None,
            ranges: Vec::new(),
            counters: Counters::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run one operation under a root `joins` span; returns its result and
    /// the operation id its spans carry.
    pub fn op<T>(&mut self, label: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, u64) {
        self.op += 1;
        let id = self.op;
        let idx = self.spans.len();
        let start = self.now_ns();
        self.spans.push(Span {
            layer: Layer::Joins,
            label,
            op: id,
            parent: None,
            start_ns: start,
            end_ns: start,
        });
        self.root = Some(idx);
        let out = f(self);
        self.spans[idx].end_ns = self.now_ns();
        self.root = None;
        self.ranges.push(idx..self.spans.len());
        (out, id)
    }

    /// Time one batch of calls into `layer` as a child of the current
    /// operation.
    pub fn span<T>(&mut self, layer: Layer, label: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.spans.push(Span {
            layer,
            label,
            op: self.op,
            parent: self.root,
            start_ns: start,
            end_ns: end,
        });
        out
    }

    fn op_spans(&self, op: u64) -> &[Span] {
        let range = self.ranges[(op - 1) as usize].clone();
        &self.spans[range]
    }

    /// Self time per layer of operation `op`, in nanoseconds, indexed like
    /// [`Layer`] declaration order. The root's self time is its duration minus the part
    /// its children cover (children never overlap: calls are sequential).
    pub fn self_ns(&self, op: u64) -> [u64; 6] {
        let mut out = [0u64; 6];
        let mut child_total = 0u64;
        let mut root_ns = 0u64;
        for s in self.op_spans(op) {
            if s.parent.is_none() {
                root_ns += s.ns();
            } else {
                child_total += s.ns();
                out[s.layer as usize] += s.ns();
            }
        }
        out[0] = root_ns.saturating_sub(child_total);
        out
    }

    /// Total time spent under `label` spans of operation `op`.
    pub fn label_ns(&self, op: u64, label: &str) -> u64 {
        self.op_spans(op)
            .iter()
            .filter(|s| s.label == label)
            .map(Span::ns)
            .sum()
    }

    /// Root-span duration of operation `op`.
    pub fn op_ns(&self, op: u64) -> u64 {
        self.op_spans(op)
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::ns)
            .sum()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"op\":{},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op,
                s.layer.name(),
                s.label,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
