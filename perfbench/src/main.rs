//! `perfbench` — end-to-end and per-layer benchmark of the fediscope
//! pipeline.
//!
//! ```text
//! perfbench --workload figures-paper2019|fedsim-modern|crawl-flaky
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload runs on one thread. It sets up several times (the
//! median is `setup_s`), then repeats its measured round while the
//! `--seconds` budget lasts (the median round is `wall_s`). Each stage is
//! bracketed by the reference probe of [`harness`] and reported in
//! reference seconds. With `--trace 1` the same rounds run a second time
//! with spans around every call into the crates, and the per-layer
//! metrics come from those spans.
//!
//! `--threads N` lets `fediscope_graph::par` use N workers instead of one,
//! for the thread-count comparison in `STEADINESS.md`; `--spans PATH`
//! writes a traced run's spans to PATH.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The process exits 1
//! when an output check fails.

mod crawl;
mod fedsim;
mod figures;
mod harness;
mod trace;

use harness::{median, quantile, Clock, Probe, Stage};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use trace::Tracer;

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, printed with `--trace 1`, times in reference
/// seconds. A metric of a layer the workload does not call reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("worldgen.generate_world_s", "s"),
    ("worldgen.toots_s", "s"),
    ("graph.csr_user_s", "s"),
    ("graph.csr_federation_s", "s"),
    ("graph.csr_twitter_s", "s"),
    ("graph.nodes", "count"),
    ("graph.edges", "count"),
    ("graph.degrees_s", "s"),
    ("graph.fig12_sweep_s", "s"),
    ("graph.fig12_baseline_s", "s"),
    ("graph.fig13_sweep_s", "s"),
    ("monitor.section4_s", "s"),
    ("monitor.fig09_s", "s"),
    ("replication.content_view_s", "s"),
    ("replication.fig14_s", "s"),
    ("replication.fig15_s", "s"),
    ("replication.fig16_s", "s"),
    ("replication.scenario_grid_s", "s"),
    ("replication.grid_cells", "count"),
    ("core.observatory_s", "s"),
    ("core.population_s", "s"),
    ("core.verdicts_s", "s"),
    ("core.verdicts_failed", "count"),
    ("simnet.fanout_build_s", "s"),
    ("simnet.overlay_build_s", "s"),
    ("simnet.fedsim_clean_s", "s"),
    ("simnet.fedsim_outage_s", "s"),
    ("simnet.tick_p50_us", "us"),
    ("simnet.tick_p95_us", "us"),
    ("simnet.ticks", "count"),
    ("simnet.fanned_out", "count"),
    ("simnet.delivered", "count"),
    ("simnet.redelivery_attempts", "count"),
    ("simnet.rejected_full", "count"),
    ("simnet.rejected_down", "count"),
    ("simnet.dropped", "count"),
    ("simnet.peak_backlog", "count"),
    ("simnet.delivered_per_attempt", "ratio"),
    ("simnet.launch_s", "s"),
    ("recover.snapshot_s", "s"),
    ("recover.frames", "count"),
    ("recover.frame_bytes_max", "bytes"),
    ("recover.decode_s", "s"),
    ("crawler.monitor_s", "s"),
    ("crawler.sweep_p50_ms", "ms"),
    ("crawler.sweep_p90_ms", "ms"),
    ("crawler.toot_crawl_s", "s"),
    ("crawler.followers_s", "s"),
    ("crawler.polls", "count"),
    ("crawler.polls_unknown", "count"),
    ("crawler.toots", "count"),
    ("crawler.instances_crawled", "count"),
    ("crawler.follow_edges", "count"),
    ("crawler.breakers_open", "count"),
    ("crawler.toot_coverage", "ratio"),
    ("self.worldgen_s", "s"),
    ("self.graph_s", "s"),
    ("self.monitor_s", "s"),
    ("self.replication_s", "s"),
    ("self.core_s", "s"),
    ("self.simnet_s", "s"),
    ("self.recover_s", "s"),
    ("self.crawler_s", "s"),
    ("harness.probe_ms", "ms"),
    ("harness.setup_raw_s", "s"),
    ("harness.wall_raw_s", "s"),
    ("harness.trace_overhead_s", "s"),
    ("harness.unattributed_pct", "%"),
    ("harness.rounds", "count"),
];

/// Spans whose samples feed percentile metrics rather than a `_s` total.
const PERCENTILE_SPANS: &[&str] = &["simnet.tick"];

/// What a workload reports besides its timings.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted and failed, as `BENCHMARK.json` defines them.
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; any entry fails the run.
    pub problems: Vec<String>,
    /// Digest of the workload's output, comparable across commits.
    pub digest: u64,
    /// Per-layer counts read from the crates' report structs.
    pub counts: Vec<(&'static str, f64)>,
    /// Input sizes, printed for the record.
    pub sizes: Vec<(&'static str, u64)>,
}

impl Report {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// One set-up or one measured round: its stages, in order.
struct Run {
    id: u32,
    traced: bool,
    stages: Vec<Stage>,
}

impl Run {
    fn ref_s(&self) -> f64 {
        self.stages.iter().map(|s| s.ref_s).sum()
    }
    fn raw_s(&self) -> f64 {
        self.stages.iter().map(|s| s.raw_s).sum()
    }
}

/// The benchmark's context: the stage clock plus the set-up and round
/// records the metrics are computed from.
pub struct Ctx {
    pub seed: u64,
    seconds: f64,
    trace: bool,
    clock: Clock,
    setups: Vec<Run>,
    rounds: Vec<Run>,
    current: Vec<Stage>,
    next_id: u32,
}

impl Ctx {
    /// Time `f` as one stage between two probes.
    pub fn stage<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let (out, stage) = self.clock.stage(name, f);
        self.current.push(stage);
        out
    }

    /// Run `f` as one set-up or round, with spans on when `traced`.
    fn record<R>(&mut self, traced: bool, f: impl FnOnce(&mut Ctx) -> R) -> (R, Run) {
        self.clock.tracer.set_enabled(traced);
        self.clock.tracer.set_run(self.next_id);
        let out = f(self);
        let run = Run {
            id: self.next_id,
            traced,
            stages: std::mem::take(&mut self.current),
        };
        self.next_id += 1;
        (out, run)
    }

    /// Set up `times` times and keep the last result; the one before is
    /// dropped before the next set-up starts, so peak memory holds one.
    pub fn setup<T>(&mut self, times: usize, mut f: impl FnMut(&mut Ctx) -> T) -> T {
        let mut kept = None;
        for _ in 0..times {
            drop(kept.take());
            let (t, run) = self.record(self.trace, &mut f);
            self.setups.push(run);
            kept = Some(t);
        }
        kept.expect("at least one set-up")
    }

    /// Repeat the measured round while the `--seconds` budget lasts (at
    /// least once; a round starts only if the last one would still fit).
    /// With tracing on, the same number of rounds then runs traced.
    pub fn rounds(&mut self, mut f: impl FnMut(&mut Ctx)) {
        let t0 = Instant::now();
        let mut count = 0;
        loop {
            let r0 = Instant::now();
            let ((), run) = self.record(false, &mut f);
            self.rounds.push(run);
            count += 1;
            if t0.elapsed().as_secs_f64() + r0.elapsed().as_secs_f64() > self.seconds {
                break;
            }
        }
        if self.trace {
            for _ in 0..count {
                let ((), run) = self.record(true, &mut f);
                self.rounds.push(run);
            }
        }
        self.clock.tracer.set_enabled(false);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Worker threads for `fediscope_graph::par` (1 unless comparing).
    threads: usize,
    /// Where a traced run writes its spans, one JSON object per line.
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut threads = 1;
    let mut spans = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            "--threads" => {
                threads = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&t| t >= 1)
                    .ok_or_else(|| bad(&"must be at least 1"))?
            }
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        threads,
        spans,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload figures-paper2019|fedsim-modern|crawl-flaky \
                 --seed N --seconds S --trace 0|1 [--threads N] [--spans PATH]"
            );
            std::process::exit(2);
        }
    };
    let run: fn(&mut Ctx) -> Report = match args.workload.as_str() {
        "figures-paper2019" => figures::run,
        "fedsim-modern" => fedsim::run,
        "crawl-flaky" => crawl::run,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    fediscope_graph::par::set_thread_override(Some(args.threads));
    // The probe's buffers exist before any set-up.
    let probe = Probe::new();
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        clock: Clock::new(probe),
        setups: Vec::new(),
        rounds: Vec::new(),
        current: Vec::new(),
        next_id: 0,
    };
    let mut report = run(&mut ctx);
    // Rounds repeat their checks; report each failure once.
    report.problems.sort();
    report.problems.dedup();
    let peak_rss_mb = harness::peak_rss_mb();

    let untraced: Vec<&Run> = ctx.rounds.iter().filter(|r| !r.traced).collect();
    let setup_ref: Vec<f64> = ctx.setups.iter().map(Run::ref_s).collect();
    let wall_ref: Vec<f64> = untraced.iter().map(|r| r.ref_s()).collect();
    let mut metrics: BTreeMap<&str, f64> = BTreeMap::new();
    metrics.insert("setup_s", median(&setup_ref));
    metrics.insert("wall_s", median(&wall_ref));
    metrics.insert("peak_rss_mb", peak_rss_mb);

    print_summary(&args, &ctx, &report, &metrics);

    let declared: &[(&str, &str)] = if args.trace {
        let layer = per_layer(&ctx, &report, median(&wall_ref));
        for (name, _) in PER_LAYER {
            metrics.insert(name, layer.get(*name).copied().unwrap_or(0.0));
        }
        PER_LAYER
    } else {
        END_TO_END
    };

    if let (true, Some(path)) = (args.trace, &args.spans) {
        write_spans(path, ctx.clock.tracer.spans());
    }

    let correct = report.problems.is_empty();
    for p in &report.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    let mut line = String::new();
    write!(
        line,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.attempted, report.failed
    )
    .expect("format");
    for (i, (name, unit)) in declared.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = metrics[name];
        assert!(v.is_finite(), "metric {name} is not finite");
        write!(
            line,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        )
        .expect("format");
    }
    line.push_str("}}");
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}

/// The per-layer metrics of a traced run: span totals and self times per
/// set-up and per round (medians over each), the workload's counts, and
/// the harness's own figures.
fn per_layer(ctx: &Ctx, report: &Report, wall_untraced: f64) -> BTreeMap<String, f64> {
    let spans = ctx.clock.tracer.spans();
    let profile_of = |run: &Run| {
        let factors: BTreeMap<_, _> = run
            .stages
            .iter()
            .filter_map(|s| s.span.map(|id| (id, s.factor)))
            .collect();
        trace::profile(spans, run.id, &factors)
    };
    let setups: Vec<_> = ctx
        .setups
        .iter()
        .filter(|r| r.traced)
        .map(profile_of)
        .collect();
    let traced: Vec<&Run> = ctx.rounds.iter().filter(|r| r.traced).collect();
    let rounds: Vec<_> = traced.iter().map(|r| profile_of(r)).collect();

    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    let declared = |m: &str| PER_LAYER.iter().any(|(n, _)| *n == m);
    for group in [&setups, &rounds] {
        let names: std::collections::BTreeSet<&str> = group
            .iter()
            .flat_map(|p| p.total_s.keys().copied())
            .collect();
        for name in names {
            if PERCENTILE_SPANS.contains(&name) {
                continue;
            }
            let metric = format!("{name}_s");
            assert!(
                declared(&metric),
                "span {name} has no declared metric {metric}"
            );
            let v: Vec<f64> = group
                .iter()
                .map(|p| p.total_s.get(name).copied().unwrap_or(0.0))
                .collect();
            *out.entry(metric).or_default() += median(&v);
        }
        let layers: std::collections::BTreeSet<&String> =
            group.iter().flat_map(|p| p.layer_self_s.keys()).collect();
        for layer in layers {
            let metric = format!("self.{layer}_s");
            assert!(
                declared(&metric),
                "layer {layer} has no declared metric {metric}"
            );
            let v: Vec<f64> = group
                .iter()
                .map(|p| p.layer_self_s.get(layer).copied().unwrap_or(0.0))
                .collect();
            *out.entry(metric).or_default() += median(&v);
        }
    }
    // Percentiles pool the samples of every traced round, so that even the
    // sweep percentiles rest on more than ten samples beyond them.
    for (metric, span, q, scale) in [
        ("simnet.tick_p50_us", "simnet.tick", 0.5, 1e6),
        ("simnet.tick_p95_us", "simnet.tick", 0.95, 1e6),
        ("crawler.sweep_p50_ms", "crawler.monitor", 0.5, 1e3),
        ("crawler.sweep_p90_ms", "crawler.monitor", 0.9, 1e3),
    ] {
        let pooled: Vec<f64> = rounds
            .iter()
            .filter_map(|p| p.samples.get(span))
            .flatten()
            .copied()
            .collect();
        if !pooled.is_empty() {
            out.insert(metric.to_string(), quantile(&pooled, q) * scale);
        }
    }
    for (name, v) in &report.counts {
        assert!(declared(name), "count {name} is not declared");
        out.insert(name.to_string(), *v);
    }
    let unattributed: Vec<f64> = rounds
        .iter()
        .map(|p| 100.0 * p.unattributed_s / p.staged_s.max(f64::MIN_POSITIVE))
        .collect();
    let traced_wall: Vec<f64> = traced.iter().map(|r| r.ref_s()).collect();
    let untraced: Vec<&Run> = ctx.rounds.iter().filter(|r| !r.traced).collect();
    out.insert("harness.probe_ms".into(), median(&ctx.clock.probes) * 1e3);
    out.insert(
        "harness.setup_raw_s".into(),
        median(&ctx.setups.iter().map(Run::raw_s).collect::<Vec<_>>()),
    );
    out.insert(
        "harness.wall_raw_s".into(),
        median(&untraced.iter().map(|r| r.raw_s()).collect::<Vec<_>>()),
    );
    out.insert(
        "harness.trace_overhead_s".into(),
        median(&traced_wall) - wall_untraced,
    );
    out.insert("harness.unattributed_pct".into(), median(&unattributed));
    out.insert("harness.rounds".into(), untraced.len() as f64);
    out
}

/// Write the recorded spans as JSON lines: name, start and end in
/// nanoseconds since the process's first probe, parent index, run id.
fn write_spans(path: &str, spans: &[trace::Span]) {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"run\": {}}}",
            s.name, s.start_ns, s.end_ns, s.run
        )
        .expect("format");
    }
    std::fs::write(path, out).unwrap_or_else(|e| panic!("write spans to {path}: {e}"));
}

/// A human-readable record on standard error: sizes, digest, and every
/// stage's raw and reference seconds.
fn print_summary(args: &Args, ctx: &Ctx, report: &Report, metrics: &BTreeMap<&str, f64>) {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    eprintln!(
        "perfbench {} seed {} | {} thread(s) ({cores} cores offered) | {} set-ups, {} rounds",
        args.workload,
        args.seed,
        args.threads,
        ctx.setups.len(),
        ctx.rounds.iter().filter(|r| !r.traced).count()
    );
    let sizes: Vec<String> = report
        .sizes
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    eprintln!("inputs: {}", sizes.join(" "));
    eprintln!("output digest: {:016x}", report.digest);
    eprintln!(
        "operations: {} attempted, {} failed",
        report.attempted, report.failed
    );
    for (kind, runs) in [("setup", &ctx.setups), ("round", &ctx.rounds)] {
        for run in runs.iter().filter(|r| !r.traced) {
            let stages: Vec<String> = run
                .stages
                .iter()
                .map(|s| format!("{} {:.3}/{:.3}", s.name, s.raw_s, s.ref_s))
                .collect();
            eprintln!(
                "{kind} {} raw/ref s: {:.3}/{:.3} [{}]",
                run.id,
                run.raw_s(),
                run.ref_s(),
                stages.join(", ")
            );
        }
    }
    eprintln!(
        "probe median {:.2} ms over {} probes",
        median(&ctx.clock.probes) * 1e3,
        ctx.clock.probes.len()
    );
    let raw = |runs: Vec<&Run>| median(&runs.iter().map(|r| r.raw_s()).collect::<Vec<_>>());
    eprintln!(
        "raw medians: setup_raw_s {:.6} wall_raw_s {:.6}",
        raw(ctx.setups.iter().collect()),
        raw(ctx.rounds.iter().filter(|r| !r.traced).collect())
    );
    for (k, v) in metrics {
        eprintln!("{k} = {v:.4}");
    }
}

/// FNV-1a over a stream of 64-bit words: the output digest the workloads
/// print, so the same seed on two commits can be compared.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut bytes = Vec::new();
    for w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    fediscope_recover::format::fnv1a(&bytes)
}
