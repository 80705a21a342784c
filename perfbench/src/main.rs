//! perfbench — the repository's benchmark of golden summarization and
//! fault campaigns.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --smoke         # every workload and traced run, in seconds
//! perfbench --seed-check    # every workload once on a second seed
//! perfbench --reference     # print reference.txt for the default seed
//! ```
//!
//! Each run is one process and one workload, a closed loop with one
//! client. With `--trace 0` it measures the end-to-end metrics; with
//! `--trace 1` it measures the per-layer metrics. Human-readable lines
//! come first; the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! See README.md beside this file for the workloads and metrics.

mod digest;
mod host;
mod layers;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use workloads::{closed_loop, setup, Kind, State, Tally};

/// Set-ups per measured run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

#[derive(Clone)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Sample count and what was counted, for the human-readable line.
    n: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, n: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        n: n.into(),
    }
}

/// One run's result: the metrics printed for a reader (with the
/// workload's own names), the metrics in the JSON line, and the checks.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    printed: Vec<Metric>,
    json: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    fn absorb(&mut self, t: &Tally) {
        self.attempted += t.attempted;
        self.failed += t.failed;
        self.notes.extend(t.notes.iter().cloned());
    }

    fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .json
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    finite(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// JSON has no NaN or infinity; a metric that cannot be formed reads 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

struct Host {
    calib: Vec<f64>,
    runq0: u64,
    start: Instant,
}

impl Host {
    fn begin() -> Host {
        Host {
            calib: host::calibrate(),
            runq0: host::runq_wait_ns(),
            start: Instant::now(),
        }
    }

    /// Diagnostics for the human-readable lines: the calibration loop
    /// before and after, and the run-queue wait over the run.
    fn end(mut self, r: &mut Report) {
        let runq_ms = host::runq_wait_ns().saturating_sub(self.runq0) as f64 / 1e6;
        let wall_s = self.start.elapsed().as_secs_f64();
        let before = stats::median(&self.calib);
        let after_samples = host::calibrate();
        let after = stats::median(&after_samples);
        self.calib.extend(after_samples);
        r.printed.push(metric(
            "host.calib_ms",
            stats::median(&self.calib),
            "ms",
            format!(
                "n={} loops, median before {before:.3} after {after:.3}",
                self.calib.len()
            ),
        ));
        r.printed.push(metric(
            "host.runq_wait_ms",
            runq_ms,
            "ms",
            format!("main thread, over {wall_s:.1} s"),
        ));
    }
}

/// Time `SETUP_REPS` set-ups and keep the last state.
fn timed_setups(kind: Kind, seed: u64, smoke: bool, tally: &mut Tally) -> (State, Vec<f64>) {
    let mut secs = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup(kind, seed, smoke, tally));
        secs.push(t.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up"), secs)
}

/// The untraced run: `SETUP_REPS` set-ups, then a closed-loop window of
/// `seconds`.
fn measure(kind: Kind, seed: u64, seconds: f64, smoke: bool) -> Report {
    let hostd = Host::begin();
    let mut tally = Tally::default();
    let (mut state, setup_secs) = timed_setups(kind, seed, smoke, &mut tally);
    state.set_references(seed, &mut tally);
    let window = closed_loop(seconds, || state.op(&mut tally));
    let mut r = Report::default();
    r.absorb(&tally);
    let setup_s = stats::median(&setup_secs);
    let ok = (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64;
    let n_ops = tally.op_ms.len();
    let busy = format!("over {:.1} s busy in a {window:.1} s window", tally.busy_s);
    // One pass over the cells (golden runs) or variants (campaigns),
    // each at its median time; see `Tally::variant_pass`.
    let (pass_ms, pass_work, variants) = tally.variant_pass();
    let rate = pass_work / (pass_ms / 1e3).max(1e-9);
    let latency = pass_ms / variants.max(1) as f64;
    let (rate_is, unit_of_work, op, what) = if kind.is_campaign() {
        (
            "inj_per_s",
            "injections",
            "campaigns to an estimate",
            "variants",
        )
    } else {
        ("summary_fps", "frames", "golden runs", "cells")
    };
    let rate_n = format!(
        "n={} {unit_of_work} {busy}; per-{} median times",
        tally.work,
        what.trim_end_matches('s')
    );
    let ops_n = format!("n={n_ops} {op} over {variants} {what}, mean of their medians");
    r.json = vec![
        metric(
            "setup_s",
            setup_s,
            "s",
            format!("n={SETUP_REPS} set-ups, median"),
        ),
        metric(
            "peak_rss_mb",
            host::peak_rss_mb(),
            "MiB",
            "VmHWM, n=1 process",
        ),
        metric(
            "ok_frac",
            ok,
            "frac",
            format!("n={} checks", tally.attempted),
        ),
        metric(
            "throughput_per_s",
            rate,
            "1/s",
            format!("{rate_is}; {rate_n}"),
        ),
        metric("latency_ms", latency, "ms", ops_n.clone()),
    ];
    r.printed = r.json.clone();
    if kind.is_campaign() {
        r.printed.extend([
            metric("inj_per_s", rate, "1/s", rate_n),
            metric("estimate_s", latency / 1e3, "s", ops_n),
            metric(
                "inj_to_estimate",
                pass_work / variants.max(1) as f64,
                "count",
                format!("mean over n={variants} variants"),
            ),
        ]);
        // The outcome mix, for diagnosis: a hang runs up to 16 times the
        // golden budget before it is classified.
        let o = &tally.outcomes;
        let n = format!("n={} injections, all campaigns", tally.work);
        r.printed.extend([
            metric("fault.mask", o.masked as f64, "count", n.clone()),
            metric("fault.sdc", o.sdc as f64, "count", n.clone()),
            metric(
                "fault.crash",
                (o.crash_segfault + o.crash_abort) as f64,
                "count",
                n.clone(),
            ),
            metric("fault.hang", o.hang as f64, "count", n),
        ]);
    } else {
        r.printed.extend([
            metric("summary_fps", rate, "1/s", rate_n),
            metric("run_ms", latency, "ms", ops_n),
            metric(
                "run_ms_p50",
                stats::median(&tally.op_ms),
                "ms",
                format!("n={n_ops} golden runs, all cells pooled"),
            ),
        ]);
        if kind == Kind::SummarizePaper {
            if let Some(p90) = stats::p90(&tally.op_ms) {
                r.printed.push(metric(
                    "run_ms_p90",
                    p90,
                    "ms",
                    format!("n={n_ops} golden runs"),
                ));
            }
        }
    }
    hostd.end(&mut r);
    r
}

/// What the pipeline half of a traced run measured. Layer times are
/// per golden run: the median over replays of each layer's total,
/// divided by the golden runs in one replay.
struct LayerStats {
    passes: Vec<layers::Layers>,
    runs_per_pass: f64,
    /// Untraced passes over the same golden runs, ms each.
    untraced_ms: Vec<f64>,
    /// Replay passes net of the duplicated ORB-step timing, ms each.
    replay_ms: Vec<f64>,
    /// Golden counters summed over one pass.
    discards: usize,
    affine_fallbacks: usize,
}

impl LayerStats {
    fn ms(&self, f: impl Fn(&layers::Layers) -> u64) -> f64 {
        let v: Vec<f64> = self.passes.iter().map(|l| f(l) as f64).collect();
        stats::median(&v) / 1e6 / self.runs_per_pass
    }

    fn ratio(
        &self,
        num: impl Fn(&layers::Layers) -> u64,
        den: impl Fn(&layers::Layers) -> u64,
    ) -> f64 {
        let (n, d) = self
            .passes
            .iter()
            .fold((0u64, 0u64), |(n, d), l| (n + num(l), d + den(l)));
        n as f64 / d.max(1) as f64
    }
}

/// The golden runs a workload's trace replays: `(frames, config,
/// golden summary)` per cell.
fn replay_cells(
    state: &State,
) -> Vec<(
    &[vs_image::RgbImage],
    &vs_core::PipelineConfig,
    vs_core::Summary,
)> {
    match state {
        State::Summarize(s) => s
            .cells
            .iter()
            .map(|c| {
                (
                    s.inputs[c.input].as_slice(),
                    c.vs.config(),
                    c.golden.clone(),
                )
            })
            .collect(),
        State::Paper(p) => vec![golden_cell(&p.workload)],
        State::Compose(c) => vec![golden_cell(&c.variants[0].workload)],
    }
}

fn golden_cell(
    w: &vs_core::VsWorkload,
) -> (
    &[vs_image::RgbImage],
    &vs_core::PipelineConfig,
    vs_core::Summary,
) {
    let golden = w
        .summarize()
        .expect("the fault-free golden run of a rendered input succeeds");
    (w.frames(), w.config(), golden)
}

/// The pipeline half of a traced run: untraced golden runs of the
/// workload's cells for `secs / 2`, then replays for `secs / 2`.
fn trace_pipeline(state: &State, secs: f64, tally: &mut Tally) -> LayerStats {
    let cells = replay_cells(state);
    let summarizers: Vec<_> = cells
        .iter()
        .map(|(_, cfg, _)| vs_core::VideoSummarizer::new((*cfg).clone()))
        .collect();
    let mut scratch = vs_core::RunScratch::default();
    let mut untraced_ms = Vec::new();
    closed_loop(secs / 2.0, || {
        let t = Instant::now();
        for (vs, (frames, _, golden)) in summarizers.iter().zip(&cells) {
            let ok = vs.run_with(frames, &mut scratch).is_ok() && scratch.summary() == golden;
            tally.check(ok, || "untraced golden run differs from the oracle".into());
        }
        untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
    });
    let mut replay = layers::Replay::default();
    let mut passes = Vec::new();
    let mut replay_ms = Vec::new();
    closed_loop(secs / 2.0, || {
        let mut acc = layers::Layers::default();
        let t = Instant::now();
        for (frames, cfg, golden) in &cells {
            let r = replay.run(frames, cfg, golden, &mut acc);
            tally.check(r.is_ok(), || format!("replay: {}", r.unwrap_err()));
        }
        let split = acc.pyramid_ns + acc.fast_ns + acc.orient_ns + acc.blur_ns + acc.brief_ns;
        replay_ms.push(t.elapsed().as_secs_f64() * 1e3 - split as f64 / 1e6);
        passes.push(acc);
    });
    LayerStats {
        passes,
        runs_per_pass: cells.len() as f64,
        untraced_ms,
        replay_ms,
        discards: cells.iter().map(|c| c.2.stats.frames_discarded).sum(),
        affine_fallbacks: cells.iter().map(|c| c.2.stats.affine_fallbacks).sum(),
    }
}

/// The traced run: one set-up, then per-layer numbers from the replay
/// (all workloads) and from the fault layer's metrics registry
/// (campaign workloads).
fn trace(kind: Kind, seed: u64, seconds: f64, smoke: bool) -> Report {
    let hostd = Host::begin();
    let mut tally = Tally::default();
    let mut state = setup(kind, seed, smoke, &mut tally);
    state.set_references(seed, &mut tally);
    let mut r = Report::default();
    let pipeline_secs = if kind.is_campaign() {
        seconds.min(4.0)
    } else {
        seconds
    };
    let ls = trace_pipeline(&state, pipeline_secs, &mut tally);
    let per_run = ls.runs_per_pass;
    let pass_ms = stats::median(&ls.untraced_ms);
    let run_ms = pass_ms / per_run;
    let layer_ms = ls.ms(|l| l.run_ns());
    let mut overhead = stats::median(&ls.replay_ms) / pass_ms - 1.0;
    let n = format!("n={} replays x {per_run} golden runs", ls.passes.len());

    let m = |name, value, unit| metric(name, value, unit, n.clone());
    let mut json = vec![
        metric(
            "video.render_ms_per_frame",
            state.render_ms_per_frame(),
            "ms",
            "n=1 set-up",
        ),
        m("image.decode_ms", ls.ms(|l| l.decode_ns), "ms"),
        m("image.pyramid_ms", ls.ms(|l| l.pyramid_ns), "ms"),
        m("image.blur_ms", ls.ms(|l| l.blur_ns), "ms"),
        m("features.orb_ms", ls.ms(|l| l.orb_ns), "ms"),
        m("features.fast_ms", ls.ms(|l| l.fast_ns), "ms"),
        m("features.orient_ms", ls.ms(|l| l.orient_ns), "ms"),
        m("features.brief_ms", ls.ms(|l| l.brief_ns), "ms"),
        m(
            "features.keypoints_per_frame",
            ls.ratio(|l| l.keypoints, |l| l.frames),
            "count",
        ),
        m("matching.match_ms", ls.ms(|l| l.match_ns), "ms"),
        m(
            "matching.match_yield",
            ls.ratio(|l| l.matches, |l| l.queries),
            "frac",
        ),
        m("geometry.ransac_ms", ls.ms(|l| l.ransac_ns), "ms"),
        m(
            "geometry.inlier_frac",
            ls.ratio(|l| l.inliers, |l| l.fit_pairs),
            "frac",
        ),
        m(
            "geometry.affine_fallbacks",
            ls.affine_fallbacks as f64 / per_run,
            "count",
        ),
        m("geometry.discards", ls.discards as f64 / per_run, "count"),
        m("warp.composite_ms", ls.ms(|l| l.composite_ns), "ms"),
        m(
            "warp.mpix_per_s",
            ls.ratio(|l| l.warped_px, |l| l.composite_ns) * 1e3,
            "Mpx/s",
        ),
        m("warp.crop_ms", ls.ms(|l| l.crop_ns), "ms"),
        metric(
            "core.run_ms",
            run_ms,
            "ms",
            format!(
                "n={} untraced passes x {per_run} golden runs, median",
                ls.untraced_ms.len()
            ),
        ),
        m("core.self_ms", run_ms - layer_ms, "ms"),
        m("core.layer_coverage", layer_ms / run_ms, "frac"),
    ];
    if kind.is_campaign() {
        let (fault, campaign_overhead) = trace_fault(&mut state, &mut tally);
        overhead = campaign_overhead;
        r.printed.extend(fault);
    }
    json.push(metric(
        "telemetry.overhead_frac",
        overhead,
        "frac",
        if kind.is_campaign() {
            "campaign with the metrics registry vs without"
        } else {
            "replay pass vs untraced pass"
        },
    ));
    r.absorb(&tally);
    r.printed.splice(0..0, json.iter().cloned());
    r.json = json;
    hostd.end(&mut r);
    r
}

/// The fault half of a traced run: the campaign once untraced, then
/// once with a metrics registry installed. Returns the fault-layer
/// metrics and the registry's overhead.
fn trace_fault(state: &mut State, tally: &mut Tally) -> (Vec<Metric>, f64) {
    use vs_fault::campaign::phase;
    use vs_telemetry::metrics::{self, MetricsRegistry};
    let untraced = Instant::now();
    state.op(tally);
    let untraced = untraced.elapsed().as_secs_f64();
    if let State::Compose(c) = state {
        c.rewind();
    }
    let reg = Arc::new(MetricsRegistry::new());
    let guard = metrics::install(reg.clone());
    let traced = Instant::now();
    let mut out = Vec::new();
    let (inj, counts) = match state {
        State::Paper(p) => {
            let res = p.estimate(tally);
            (res.injections, res.counts)
        }
        State::Compose(c) => {
            let res = c.estimate(tally);
            let groups = res.cold.groups.len();
            let n = "n=1 cold + warm campaign";
            out.push(metric("fault.compose.groups", groups as f64, "count", n));
            out.push(metric(
                "fault.compose.groups_injected",
                (groups - res.cold.reused_groups) as f64,
                "count",
                n,
            ));
            out.push(metric(
                "fault.compose.pilots",
                res.cold.injections_executed as f64,
                "count",
                n,
            ));
            out.push(metric(
                "fault.compose.warm_hits",
                res.warm_hits as f64,
                "count",
                n,
            ));
            out.push(metric("fault.compose.cache_save_ms", res.save_ms, "ms", n));
            out.push(metric("fault.compose.cache_load_ms", res.load_ms, "ms", n));
            let mut counts = vs_fault::stats::OutcomeCounts::default();
            for rec in &res.cold.records {
                counts.add(rec.outcome);
            }
            (res.cold.injections_executed as u64, counts)
        }
        State::Summarize(_) => unreachable!("only campaign workloads have a fault layer"),
    };
    let traced = traced.elapsed().as_secs_f64();
    drop(guard);
    let merged = reg.merged();
    let n = format!("n={inj} injections");
    // Per-injection mean of each phase the campaign timed; the grouped
    // injected runs of a composed campaign time only the worker wall.
    let mut fault: Vec<Metric> = [
        ("fault.draw_us", phase::DRAW, 1e3, "us"),
        ("fault.restore_ms", phase::RESTORE, 1e6, "ms"),
        ("fault.exec_ms", phase::EXEC, 1e6, "ms"),
        ("fault.classify_us", phase::CLASSIFY, 1e3, "us"),
        ("fault.record_us", phase::RECORD, 1e3, "us"),
        ("fault.worker_wall_ms", phase::WORKER_WALL, 1e6, "ms"),
    ]
    .into_iter()
    .filter_map(|(name, ph, scale, unit)| {
        let h = merged.histogram(ph)?;
        Some(metric(
            name,
            h.sum() as f64 / inj.max(1) as f64 / scale,
            unit,
            n.clone(),
        ))
    })
    .collect();
    let resumed = merged.counter(phase::RUNS_RESUMED) as f64;
    let scratch = merged.counter(phase::RUNS_FROM_SCRATCH) as f64;
    if resumed + scratch > 0.0 {
        fault.push(metric(
            "fault.runs_resumed_frac",
            resumed / (resumed + scratch),
            "frac",
            n.clone(),
        ));
    }
    fault.extend([
        metric("fault.mask", counts.masked as f64, "count", n.clone()),
        metric("fault.sdc", counts.sdc as f64, "count", n.clone()),
        metric(
            "fault.crash",
            (counts.crash_segfault + counts.crash_abort) as f64,
            "count",
            n.clone(),
        ),
        metric("fault.hang", counts.hang as f64, "count", n),
    ]);
    fault.extend(out);
    (fault, traced / untraced - 1.0)
}

fn print_report(kind: Kind, seed: u64, r: &Report) {
    for m in &r.printed {
        println!(
            "{kind_name:<17} {:<30} {:>14.4} {:<6} ({})",
            m.name,
            m.value,
            m.unit,
            m.n,
            kind_name = kind.name()
        );
    }
    println!(
        "# cpu: {}; cores: {}; simd: {}; seed: {seed}",
        host::cpu_model(),
        cores(),
        vs_image::dispatch::level()
    );
    for note in &r.notes {
        eprintln!("perfbench: check failed: {note}");
    }
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Args {
    workload: Option<Kind>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    mode: Mode,
}

#[derive(PartialEq)]
enum Mode {
    Run,
    Smoke,
    SeedCheck,
    Reference,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: None,
        seconds: None,
        trace: None,
        mode: Mode::Run,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = val()?;
                a.workload = Some(Kind::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => a.seed = Some(val()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = val()?.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = Some(match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--smoke" => a.mode = Mode::Smoke,
            "--seed-check" => a.mode = Mode::SeedCheck,
            "--reference" => a.mode = Mode::Reference,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 | --smoke | --seed-check | --reference");
            return ExitCode::from(2);
        }
    };
    match args.mode {
        Mode::Run => {
            let (Some(kind), Some(seconds), Some(traced)) =
                (args.workload, args.seconds, args.trace)
            else {
                eprintln!("perfbench: --workload, --seconds and --trace are required");
                return ExitCode::from(2);
            };
            let seed = args.seed.unwrap_or(digest::DEFAULT_SEED);
            let r = if traced {
                trace(kind, seed, seconds, false)
            } else {
                measure(kind, seed, seconds, false)
            };
            print_report(kind, seed, &r);
            println!("{}", r.json_line());
            ExitCode::SUCCESS
        }
        Mode::Smoke => smoke(),
        Mode::SeedCheck => seed_check(args.seed.unwrap_or(1)),
        Mode::Reference => reference(),
    }
}

/// `--smoke`: every workload at smoke size, untraced and traced, with
/// the report checked for well-formed names, units, a JSON round trip
/// through `vs_bench::json`, and layer coverage on the summarize
/// workloads.
fn smoke() -> ExitCode {
    let mut problems = Vec::new();
    for kind in Kind::ALL {
        for traced in [false, true] {
            let r = if traced {
                trace(kind, 7, 0.5, true)
            } else {
                measure(kind, 7, 0.5, true)
            };
            print_report(kind, 7, &r);
            let tag = format!("{} trace={}", kind.name(), u8::from(traced));
            problems.extend(check_report(&r, &tag));
            if !traced && r.json.len() != 5 {
                problems.push(format!("{tag}: {} end-to-end metrics", r.json.len()));
            }
            if traced && !kind.is_campaign() {
                let cov = r.json.iter().find(|m| m.name == "core.layer_coverage");
                if !cov.is_some_and(|m| m.value > 0.5 && m.value < 1.5) {
                    problems.push(format!("{tag}: core.layer_coverage missing or implausible"));
                }
            }
        }
    }
    finish("smoke", problems)
}

fn check_report(r: &Report, tag: &str) -> Vec<String> {
    let mut p = Vec::new();
    if r.failed > 0 || r.attempted == 0 {
        p.push(format!(
            "{tag}: {} of {} checks failed",
            r.failed, r.attempted
        ));
    }
    for m in r.printed.iter().chain(&r.json) {
        let name_ok = !m.name.is_empty()
            && m.name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b));
        if !name_ok || m.unit.is_empty() {
            p.push(format!(
                "{tag}: metric {:?} has a bad name or no unit",
                m.name
            ));
        }
    }
    let line = r.json_line();
    match vs_bench::json::Json::parse(&line) {
        Ok(j) => {
            let metrics = j.get("metrics");
            for m in &r.json {
                let v = metrics
                    .and_then(|o| o.get(m.name))
                    .and_then(|o| o.get("value"))
                    .and_then(|v| v.as_f64());
                if v != Some(finite(m.value)) {
                    p.push(format!(
                        "{tag}: {} does not round-trip through JSON",
                        m.name
                    ));
                }
            }
            if j.get("attempted").and_then(|v| v.as_u64()) != Some(r.attempted) {
                p.push(format!("{tag}: attempted does not round-trip"));
            }
        }
        Err(e) => p.push(format!("{tag}: result line is not JSON: {e}")),
    }
    p
}

fn finish(what: &str, problems: Vec<String>) -> ExitCode {
    if problems.is_empty() {
        println!("perfbench {what}: ok");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("perfbench {what}: {p}");
        }
        ExitCode::FAILURE
    }
}

/// Digest of a workload's rendered inputs.
fn input_digest(state: &State) -> u64 {
    let mut h = digest::Fnv::default();
    let inputs: Vec<&[vs_image::RgbImage]> = match state {
        State::Summarize(s) => s.inputs.iter().map(Vec::as_slice).collect(),
        State::Paper(p) => vec![p.workload.frames()],
        State::Compose(c) => c.variants.iter().map(|v| v.workload.frames()).collect(),
    };
    for f in inputs.into_iter().flatten() {
        h.bytes(f.as_bytes());
    }
    h.finish()
}

/// `--seed-check`: every workload once on a second seed. Its inputs (or,
/// on `campaign_paper`, its campaign records) must differ from the
/// default seed's, every output must pass its check, and each campaign
/// must reach its estimate within budget.
fn seed_check(seed: u64) -> ExitCode {
    let mut problems = Vec::new();
    if seed == digest::DEFAULT_SEED {
        problems.push("the second seed must differ from the default seed".into());
    }
    for kind in Kind::ALL {
        let mut t = Tally::default();
        let mut state = setup(kind, seed, false, &mut t);
        state.set_references(seed, &mut t);
        let perturbed = match &state {
            // Input 1 is never perturbed (see `workloads::seeded`): the
            // seed moves this workload through its campaign seed.
            State::Paper(p) => p.record_digests().iter().all(|(class, d)| {
                digest::reference(&format!("campaign_paper.{class}")) != Some(*d)
            }),
            _ => {
                let default = setup(kind, digest::DEFAULT_SEED, false, &mut t);
                input_digest(&state) != input_digest(&default)
            }
        };
        if !perturbed {
            problems.push(format!(
                "{}: seed {seed} does not perturb the workload",
                kind.name()
            ));
        }
        state.op(&mut t);
        let budget = match kind {
            Kind::CampaignPaper => 2 * workloads::CAMPAIGN_BUDGET,
            _ => workloads::COMPOSE_BUDGET,
        } as u64;
        if let Some(&n) = t.op_work.iter().max().filter(|_| kind.is_campaign()) {
            println!("{:<17} inj_to_estimate {n} (budget {budget})", kind.name());
            if n >= budget {
                problems.push(format!("{}: {n} injections hit the budget", kind.name()));
            }
        }
        problems.extend(t.notes.iter().map(|n| format!("{}: {n}", kind.name())));
        println!(
            "{:<17} {} of {} checks passed",
            kind.name(),
            t.attempted - t.failed,
            t.attempted
        );
        if t.failed > 0 {
            problems.push(format!("{}: {} checks failed", kind.name(), t.failed));
        }
    }
    finish("seed-check", problems)
}

/// `--reference`: print `reference.txt` for the default seed.
fn reference() -> ExitCode {
    let seed = digest::DEFAULT_SEED;
    let mut t = Tally::default();
    println!("# Reference digests of the default seed ({seed}); regenerate with `perfbench --reference`.");
    for kind in Kind::ALL {
        let mut state = setup(kind, seed, false, &mut t);
        state.set_references(seed, &mut t);
        match state {
            State::Summarize(s) => {
                for c in &s.cells {
                    println!("{} {:016x}", c.label, digest::summary(&c.golden));
                }
            }
            State::Paper(p) => {
                for (class, d) in p.record_digests() {
                    println!("campaign_paper.{class} {d:016x}");
                }
            }
            State::Compose(c) => {
                println!("campaign_compose {:016x}", c.record_digest());
            }
        }
    }
    ExitCode::SUCCESS
}
