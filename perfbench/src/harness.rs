//! Stage clock, reference probe and process guards.
//!
//! Every timed stage is bracketed by a short, fixed reference probe. A
//! stage's reference time is `raw × PROBE_REF_S / mean(probe before, probe
//! after)`: when the vCPU slows down, the probes slow down with it and the
//! ratio moves much less than the raw time (`perfbench/STEADINESS.md` has
//! the figures). Raw seconds are kept beside the normalised ones.

use crate::trace::{SpanId, Tracer};
use std::hint::black_box;
use std::time::Instant;

/// The probe's nominal duration: stage times are expressed in seconds of a
/// machine on which one probe takes exactly this long.
pub const PROBE_REF_S: f64 = 0.030;

/// Keys sorted per pass (2 MiB of `u64`, cache-resident: CPU speed).
const SORT_LEN: usize = 1 << 18;
/// Fill-and-sort passes per probe.
const SORT_PASSES: usize = 3;
/// Words read sequentially per probe (32 MiB of `u64`: memory bandwidth).
const STREAM_LEN: usize = 1 << 22;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// A fixed workload that depends on nothing in the repository: xorshift
/// fill-and-sort passes over a cache-resident buffer, then one sequential
/// read of a buffer larger than the last-level cache. On this class of
/// shared vCPU the sort tracks the slowdowns of the engines' stages best
/// (see `perfbench/STEADINESS.md`). The buffers are allocated once, before
/// any set-up, so probing never moves the process's peak memory.
pub struct Probe {
    keys: Vec<u64>,
    stream: Vec<u64>,
}

impl Probe {
    pub fn new() -> Self {
        let stream = (0..STREAM_LEN as u64).collect();
        let mut probe = Probe {
            keys: vec![0; SORT_LEN],
            stream,
        };
        // Touch every page now so the first timed probe pays no faults.
        probe.run();
        probe
    }

    /// Run the probe once; returns its raw seconds.
    pub fn run(&mut self) -> f64 {
        assert_single_thread();
        let t0 = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0u64;
        for _ in 0..SORT_PASSES {
            for k in &mut self.keys {
                *k = xorshift(&mut x);
            }
            self.keys.sort_unstable();
            acc ^= self.keys[SORT_LEN / 2];
        }
        acc = self.stream.iter().fold(acc, |a, &w| a.wrapping_add(w));
        black_box(acc);
        t0.elapsed().as_secs_f64()
    }
}

/// Panic unless the process runs exactly one thread. Checked before every
/// probe, so no program work can be left running while the machine's
/// speed is being measured.
pub fn assert_single_thread() {
    let threads = std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count();
    assert_eq!(
        threads, 1,
        "{threads} threads alive at a probe; the benchmark must run single-threaded"
    );
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// One timed stage.
#[derive(Debug, Clone)]
pub struct Stage {
    pub name: &'static str,
    pub raw_s: f64,
    /// Reference seconds: `raw_s` scaled by the probes around the stage.
    pub ref_s: f64,
    /// `ref_s / raw_s`, applied to the spans recorded inside the stage.
    pub factor: f64,
    /// The stage's span, when tracing.
    pub span: Option<SpanId>,
}

/// Runs stages between probes and keeps their records.
pub struct Clock {
    probe: Probe,
    last_probe: f64,
    pub probes: Vec<f64>,
    pub tracer: Tracer,
}

impl Clock {
    pub fn new(probe: Probe) -> Self {
        let mut clock = Clock {
            probe,
            last_probe: 0.0,
            probes: Vec::new(),
            tracer: Tracer::new(),
        };
        clock.last_probe = clock.probe();
        clock
    }

    fn probe(&mut self) -> f64 {
        let s = self.probe.run();
        self.probes.push(s);
        s
    }

    /// Time `f` as one stage, then probe again. The probe before the stage
    /// is the one that ended the previous stage.
    pub fn stage<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, Stage) {
        let before = self.last_probe;
        let span = self.tracer.open(name);
        let t0 = Instant::now();
        let out = f(&mut self.tracer);
        let raw_s = t0.elapsed().as_secs_f64();
        self.tracer.close(span);
        let after = self.probe();
        self.last_probe = after;
        let factor = PROBE_REF_S / ((before + after) / 2.0);
        (
            out,
            Stage {
                name,
                raw_s,
                ref_s: raw_s * factor,
                factor,
                span,
            },
        )
    }
}

/// Median of a non-empty sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of a non-empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}
