//! In-memory spans around the benchmark's calls into the crates.
//!
//! A span records a name, start, end, parent and run id. Spans stay in
//! memory while the benchmark runs and are folded into metrics at the end.
//! With tracing off, `open` and `close` do nothing, so an untraced run keeps
//! only the stage clocks and the probes.

use std::collections::BTreeMap;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub run: u32,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
    run: u32,
}

impl Tracer {
    /// A tracer that records nothing until enabled.
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            run: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tag the spans recorded from now on with `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(id);
        Some(id)
    }

    pub fn close(&mut self, id: Option<SpanId>) {
        let Some(id) = id else { return };
        let popped = self.stack.pop();
        assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-span-name figures of one run, in reference seconds: each span is
/// scaled by the probe factor of the stage it sits in.
#[derive(Debug, Default)]
pub struct RunProfile {
    /// Sum of call-span durations per name (stages excluded).
    pub total_s: BTreeMap<&'static str, f64>,
    /// Sum of span self times (duration minus children) per layer, the
    /// part of the name before the first `.`.
    pub layer_self_s: BTreeMap<String, f64>,
    /// Every duration per name, for percentiles.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Stage time not covered by any call span inside it.
    pub unattributed_s: f64,
    /// Sum of stage durations.
    pub staged_s: f64,
}

/// Fold the spans of run `run` into a profile. `stage_factor` maps a stage
/// span to its probe factor; calls inherit the factor of their stage.
pub fn profile(spans: &[Span], run: u32, stage_factor: &BTreeMap<SpanId, f64>) -> RunProfile {
    let mut child_s = vec![0.0f64; spans.len()];
    for s in spans.iter().filter(|s| s.run == run) {
        if let Some(p) = s.parent {
            child_s[p] += s.dur_s();
        }
    }
    let factor_of = |mut id: SpanId| -> f64 {
        loop {
            if let Some(f) = stage_factor.get(&id) {
                return *f;
            }
            match spans[id].parent {
                Some(p) => id = p,
                None => return 1.0,
            }
        }
    };
    let mut out = RunProfile::default();
    for (id, s) in spans.iter().enumerate().filter(|(_, s)| s.run == run) {
        let f = factor_of(id);
        let dur = s.dur_s() * f;
        let self_s = (s.dur_s() - child_s[id]).max(0.0) * f;
        if stage_factor.contains_key(&id) {
            // A stage's own time is whatever no call inside it covers.
            out.staged_s += dur;
            out.unattributed_s += self_s;
            continue;
        }
        *out.total_s.entry(s.name).or_default() += dur;
        out.samples.entry(s.name).or_default().push(dur);
        let layer = s.name.split('.').next().unwrap_or(s.name).to_string();
        *out.layer_self_s.entry(layer).or_default() += self_s;
    }
    out
}
