//! The four workloads: input generation from the seed, timed set-up,
//! one closed-loop operation each, and the correctness check of every
//! operation's output.

use crate::digest::{self, DEFAULT_SEED};
use std::path::PathBuf;
use std::time::Instant;
use vs_core::experiments::{input_spec, pipeline_config, InputId, Scale};
use vs_core::{Approximation, PipelineConfig, RunScratch, Summary, VideoSummarizer, VsWorkload};
use vs_fault::adaptive::{self, AdaptiveConfig, AdaptiveOutcome};
use vs_fault::campaign::{self, CampaignConfig, CheckpointPolicy, CheckpointedGolden, GoldenRun};
use vs_fault::compose::{self, CampaignCache, ComposeConfig, ComposedResult};
use vs_fault::stats::OutcomeCounts;
use vs_fault::RegClass;
use vs_image::RgbImage;
use vs_video::{render_input, InputSpec};

/// Fixed-budget fall-back of each adaptive campaign: the Wilson gate
/// must stop it well before this many injections.
pub const CAMPAIGN_BUDGET: usize = 1000;
/// Worst-case injections a cold composed campaign may execute: every
/// group at its pilot cap. Groups number well under 100.
pub const COMPOSE_BUDGET: usize = 100 * 24;
/// Variants a `campaign_compose` window cycles through, each its own
/// seeded input and campaign seed. What a cold composed campaign costs
/// depends on its draw (how many hangs, each running 16 times the golden
/// budget, and how long its injected runs last): with one variant a run's
/// figures were that draw, and one seed ran 30% slower than the next on
/// every repeat. Cycling over several variants averages the draw within
/// the run, and a window of 5–7 campaigns still repeats some, which
/// checks the repeat.
pub const COMPOSE_VARIANTS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SummarizePaper,
    SummarizeHd,
    CampaignPaper,
    CampaignCompose,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::SummarizePaper,
        Kind::SummarizeHd,
        Kind::CampaignPaper,
        Kind::CampaignCompose,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SummarizePaper => "summarize_paper",
            Kind::SummarizeHd => "summarize_hd",
            Kind::CampaignPaper => "campaign_paper",
            Kind::CampaignCompose => "campaign_compose",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    pub fn is_campaign(self) -> bool {
        matches!(self, Kind::CampaignPaper | Kind::CampaignCompose)
    }
}

/// Counts and timings gathered over one closed-loop window.
#[derive(Default)]
pub struct Tally {
    /// Checked operations: golden runs, or campaigns to an estimate.
    pub attempted: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// Latency of each operation, in milliseconds.
    pub op_ms: Vec<f64>,
    /// Work finished inside timed operations: frames summarized, or
    /// classified injections.
    pub work: u64,
    /// Seconds spent inside timed operations.
    pub busy_s: f64,
    /// Work each operation finished: a golden run's frames, or the
    /// injections a campaign executed to reach its estimate.
    pub op_work: Vec<u64>,
    /// What each operation ran: a golden run's cell, or a campaign's
    /// variant (always 0 on `campaign_paper`).
    pub variant: Vec<usize>,
    /// Outcomes of those injections.
    pub outcomes: OutcomeCounts,
    /// First few failure descriptions, for stderr.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    /// Book one timed operation of `variant` that finished `work`.
    fn book(&mut self, secs: f64, variant: usize, work: u64) {
        self.busy_s += secs;
        self.op_ms.push(secs * 1e3);
        self.work += work;
        self.op_work.push(work);
        self.variant.push(variant);
    }

    /// Book one timed campaign of `variant` that reached its estimate,
    /// and return the outcome counts of its records.
    fn book_campaign<'a, O: 'a>(
        &mut self,
        secs: f64,
        variant: usize,
        records: impl IntoIterator<Item = &'a campaign::Injection<O>>,
    ) -> OutcomeCounts {
        let mut counts = OutcomeCounts::default();
        for r in records {
            counts.add(r.outcome);
            self.outcomes.add(r.outcome);
        }
        self.book(secs, variant, counts.n() as u64);
        counts
    }

    /// One pass over the cells or variants that ran: the sum over them
    /// of each one's median operation time in ms, the sum of their work,
    /// and how many ran. Every repeat of a cell or variant does the same
    /// work, so this weighs each once however often the window repeated
    /// it. A plain median over the window did not: over the eight cells
    /// of `summarize_paper` it fell in the gap between the Input 1 and
    /// Input 2 runs and jumped with their tails, and over 5 or 6
    /// campaigns it moved with which variants happened to repeat.
    pub fn variant_pass(&self) -> (f64, f64, usize) {
        let mut by_variant = std::collections::BTreeMap::<usize, (Vec<f64>, u64)>::new();
        for ((&k, &ms), &n) in self.variant.iter().zip(&self.op_ms).zip(&self.op_work) {
            let e = by_variant.entry(k).or_default();
            e.0.push(ms);
            e.1 = n;
        }
        by_variant
            .values()
            .fold((0.0, 0.0, 0), |(ms, inj, k), (t, n)| {
                (ms + crate::stats::median(t), inj + *n as f64, k + 1)
            })
    }
}

/// Run `op` back to back — one client, the next operation starting when
/// the previous one has finished — until another operation of median
/// length would end more than half its length past `seconds`, so that
/// on average the window lasts `seconds` even when operations take many
/// seconds each. At least one operation always runs. Returns the
/// window's wall time in seconds.
pub fn closed_loop(seconds: f64, mut op: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut lens = Vec::new();
    loop {
        let t = Instant::now();
        op();
        lens.push(t.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() + crate::stats::median(&lens) / 2.0 > seconds {
            return start.elapsed().as_secs_f64();
        }
    }
}

/// Vehicles a non-default seed places on the ground.
const VEHICLES: usize = 12;

/// An input's spec perturbed by the workload seed. The default seed
/// renders the unmodified preset; any other seed adds seed-placed
/// moving vehicles to Input 2, which changes its frames but not the
/// flight or the world, so it keeps its one panorama.
///
/// Input 1 is never perturbed. Its homography chain drifts, and any
/// change to its frames moves the drift: over ten seeds, re-seeded
/// sensor noise, scattered vehicles and vehicles placed in view each
/// swung one golden run's panorama area by more than 2x (147k–527k
/// pixels with vehicles in view), and with scattered vehicles the
/// checkpointed campaign ran at 13–37 injections per second depending
/// on the seed. Perturbing Input 1 would measure that lottery rather
/// than the program; its workloads vary by the campaign seed instead.
pub fn seeded(input: InputId, spec: InputSpec, seed: u64) -> InputSpec {
    if seed == DEFAULT_SEED || input == InputId::Input1 {
        spec
    } else {
        spec.with_vehicles(VEHICLES, seed)
    }
}

/// Campaign seed derived from the workload seed.
pub fn campaign_seed(seed: u64) -> u64 {
    0x5eed_c0de ^ seed
}

/// The reference digest `key` must reproduce: the committed one for the
/// default seed (a value that cannot match when none is committed),
/// else `computed`.
fn expected(key: &str, seed: u64, computed: u64) -> u64 {
    if seed == DEFAULT_SEED {
        digest::reference(key).unwrap_or(computed ^ 1)
    } else {
        computed
    }
}

/// One golden-run cell: an input under one approximation.
pub struct Cell {
    pub label: String,
    pub input: usize,
    pub vs: VideoSummarizer,
    pub scratch: RunScratch,
    /// Output of the allocating `VideoSummarizer::run` oracle.
    pub golden: Summary,
    /// Digest every run must reproduce.
    pub expect: u64,
}

pub struct Summarize {
    pub inputs: Vec<Vec<RgbImage>>,
    pub cells: Vec<Cell>,
    /// Render time per frame over all inputs, ms.
    pub render_ms_per_frame: f64,
}

pub struct CampaignPaper {
    pub workload: VsWorkload,
    pub golden: CheckpointedGolden<VsWorkload>,
    adaptive: AdaptiveConfig,
    pub seed: u64,
    pub render_ms_per_frame: f64,
    /// Record digests and counts every repeat must reproduce, per class.
    expect: Option<[(u64, OutcomeCounts); 2]>,
}

/// One input and campaign seed of `campaign_compose`.
pub struct ComposeVariant {
    pub workload: VsWorkload,
    pub golden: GoldenRun<Vec<RgbImage>>,
    pub config: ComposeConfig,
    /// Record digest every repeat must reproduce.
    expect: Option<u64>,
}

pub struct CampaignCompose {
    /// Variant 0 is the workload seed's own input and campaign seed;
    /// variant `k` is that of the seed moved by `k` (see [`variant_seed`]).
    pub variants: Vec<ComposeVariant>,
    pub seed: u64,
    pub render_ms_per_frame: f64,
    cache_path: PathBuf,
    /// Campaigns run so far; the next one runs variant
    /// `next % COMPOSE_VARIANTS`.
    next: usize,
}

pub enum State {
    Summarize(Summarize),
    Paper(Box<CampaignPaper>),
    Compose(Box<CampaignCompose>),
}

fn render(spec: &InputSpec) -> (Vec<RgbImage>, f64) {
    let t = Instant::now();
    let frames = render_input(spec);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    (frames, ms)
}

/// Build a workload's state: render its inputs, run each golden run
/// once as a warm-up into its reused workspace, and for campaigns
/// profile the golden run. Failed set-up checks are recorded in
/// `tally`. `smoke` shrinks every input and campaign so that the whole
/// benchmark runs in seconds.
pub fn setup(kind: Kind, seed: u64, smoke: bool, tally: &mut Tally) -> State {
    let scale = if smoke { Scale::Quick } else { Scale::Paper };
    match kind {
        Kind::SummarizePaper | Kind::SummarizeHd => {
            let (inputs_to_render, configs): (Vec<(InputId, InputSpec)>, Vec<PipelineConfig>) =
                if kind == Kind::SummarizePaper {
                    (
                        InputId::BOTH.map(|id| (id, input_spec(id, scale))).to_vec(),
                        Approximation::paper_variants()
                            .map(|a| pipeline_config(scale, a))
                            .to_vec(),
                    )
                } else {
                    let spec = InputSpec::input2_preset()
                        .with_frames(if smoke { 3 } else { 20 })
                        .with_frame_size(1280, 720);
                    (
                        vec![(InputId::Input2, spec)],
                        vec![PipelineConfig::default()],
                    )
                };
            let mut inputs = Vec::new();
            let mut cells = Vec::new();
            let (mut render_ms, mut frames_rendered) = (0.0, 0usize);
            for (id, spec) in inputs_to_render {
                let (frames, ms) = render(&seeded(id, spec, seed));
                render_ms += ms;
                frames_rendered += frames.len();
                for cfg in &configs {
                    let label =
                        format!("{}.{}.{}", kind.name(), id.name(), cfg.approximation.name());
                    let vs = VideoSummarizer::new(cfg.clone());
                    let mut scratch = RunScratch::default();
                    let warm = vs.run_with(&frames, &mut scratch).is_ok();
                    tally.check(warm, || format!("{label}: warm-up run failed"));
                    cells.push(Cell {
                        label,
                        input: inputs.len(),
                        vs,
                        scratch,
                        golden: Summary::default(),
                        expect: 0,
                    });
                }
                inputs.push(frames);
            }
            State::Summarize(Summarize {
                inputs,
                cells,
                render_ms_per_frame: render_ms / frames_rendered.max(1) as f64,
            })
        }
        Kind::CampaignPaper => {
            let (frames, ms) = render(&seeded(
                InputId::Input1,
                input_spec(InputId::Input1, scale),
                seed,
            ));
            let render_ms_per_frame = ms / frames.len().max(1) as f64;
            let workload = VsWorkload::new(frames, pipeline_config(scale, Approximation::Baseline));
            let warm = workload.summarize();
            tally.check(warm.is_ok(), || "campaign_paper: warm-up run failed".into());
            let golden = campaign::profile_golden_checkpointed_forensic(
                &workload,
                CheckpointPolicy::EveryKFrames(1),
            )
            .expect("the fault-free golden run of a rendered input succeeds");
            let adaptive = if smoke {
                AdaptiveConfig {
                    epsilon_pp: 30.0,
                    batch: 8,
                    min_injections: 16,
                    knee_tol_pp: 15.0,
                }
            } else {
                AdaptiveConfig::default()
            };
            State::Paper(Box::new(CampaignPaper {
                workload,
                golden,
                adaptive,
                seed,
                render_ms_per_frame,
                expect: None,
            }))
        }
        Kind::CampaignCompose => {
            // The `campaign_bench --adaptive` composition settings (its
            // smoke preset under `smoke`), on one worker so the loop has
            // a single client.
            let (epsilon_pp, batch, min_pilots, max_pilots) = if smoke {
                (100.0, 4, 2, 4)
            } else {
                (12.0, 8, 8, 24)
            };
            let (mut render_ms, mut frames_rendered) = (0.0, 0usize);
            let variants = (0..COMPOSE_VARIANTS)
                .map(|k| {
                    let vseed = variant_seed(seed, k);
                    let (frames, ms) = render(&seeded(
                        InputId::Input2,
                        input_spec(InputId::Input2, Scale::Quick),
                        vseed,
                    ));
                    render_ms += ms;
                    frames_rendered += frames.len();
                    let workload = VsWorkload::new(
                        frames,
                        pipeline_config(Scale::Quick, Approximation::Baseline),
                    );
                    let warm = workload.summarize();
                    tally.check(warm.is_ok(), || {
                        format!("campaign_compose: variant {k}: warm-up run failed")
                    });
                    let golden = campaign::profile_golden_forensic(&workload)
                        .expect("the fault-free golden run of a rendered input succeeds");
                    let config = ComposeConfig {
                        seed: campaign_seed(vseed) ^ 0xC05E,
                        epsilon_pp,
                        batch,
                        min_pilots,
                        max_pilots,
                        hang_factor: 16,
                        threads: 1,
                    };
                    ComposeVariant {
                        workload,
                        golden,
                        config,
                        expect: None,
                    }
                })
                .collect();
            let dir = PathBuf::from(
                std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()),
            );
            let _ = std::fs::create_dir_all(&dir);
            State::Compose(Box::new(CampaignCompose {
                variants,
                seed,
                render_ms_per_frame: render_ms / frames_rendered.max(1) as f64,
                cache_path: dir.join(format!("perfbench-cache-{}.jsonl", std::process::id())),
                next: 0,
            }))
        }
    }
}

/// The seed of `campaign_compose` variant `k`: the workload seed itself
/// for `k` = 0, so that the default seed's first variant is the
/// committed reference.
pub fn variant_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

impl Summarize {
    /// Run every cell once through the allocating `VideoSummarizer::run`
    /// — a code path independent of the reused workspace — to fix the
    /// golden output and the digest every later run must reproduce, and
    /// check the warm-up output against it. For the default seed the
    /// digest must also equal the committed reference.
    pub fn set_references(&mut self, seed: u64, tally: &mut Tally) {
        for cell in &mut self.cells {
            let ok = match cell.vs.run(&self.inputs[cell.input]) {
                Ok(g) => {
                    let d = digest::summary(&g);
                    cell.expect = expected(&cell.label, seed, d);
                    cell.golden = g;
                    d == cell.expect && digest::summary(cell.scratch.summary()) == d
                }
                Err(_) => false,
            };
            tally.check(ok, || {
                format!("{}: golden output does not match the reference", cell.label)
            });
        }
    }

    /// One pass over every cell: each golden run is timed alone and its
    /// output checked against the cell's reference digest.
    pub fn pass(&mut self, tally: &mut Tally) {
        for (k, cell) in self.cells.iter_mut().enumerate() {
            let frames = &self.inputs[cell.input];
            let t = Instant::now();
            let r = cell.vs.run_with(frames, &mut cell.scratch);
            tally.book(t.elapsed().as_secs_f64(), k, frames.len() as u64);
            let ok = r.is_ok() && digest::summary(cell.scratch.summary()) == cell.expect;
            tally.check(ok, || {
                format!("{}: output differs from reference", cell.label)
            });
        }
    }
}

/// What one checkpointed campaign pair (GPR, then FPR) produced.
pub struct PaperResult {
    pub injections: u64,
    pub counts: OutcomeCounts,
}

fn counts_of<O>(recs: &[campaign::Injection<O>]) -> OutcomeCounts {
    let mut c = OutcomeCounts::default();
    for r in recs {
        c.add(r.outcome);
    }
    c
}

impl CampaignPaper {
    fn config(&self, class: RegClass) -> CampaignConfig {
        CampaignConfig::new(class, CAMPAIGN_BUDGET)
            .seed(campaign_seed(self.seed))
            .threads(1)
            .checkpoint_policy(CheckpointPolicy::EveryKFrames(1))
    }

    /// Wilson-gated GPR then FPR campaigns, each to a 5 pp half-width.
    fn campaigns(&self) -> [AdaptiveOutcome<Vec<RgbImage>>; 2] {
        [RegClass::Gpr, RegClass::Fpr].map(|class| {
            adaptive::run_adaptive_checkpointed(
                &self.workload,
                &self.golden,
                &self.config(class),
                &self.adaptive,
            )
        })
    }

    /// Record-list digest of each class's campaign, for `reference.txt`.
    pub fn record_digests(&self) -> [(&'static str, u64); 2] {
        let runs = self.campaigns();
        [
            ("gpr", digest::records(&runs[0].records)),
            ("fpr", digest::records(&runs[1].records)),
        ]
    }

    /// One estimate, timed and checked: its record lists and outcome
    /// counts must reproduce the reference.
    pub fn estimate(&mut self, tally: &mut Tally) -> PaperResult {
        let t = Instant::now();
        let runs = self.campaigns();
        let secs = t.elapsed().as_secs_f64();
        let got = [0, 1].map(|i| {
            (
                digest::records(&runs[i].records),
                counts_of(&runs[i].records),
            )
        });
        let seed = self.seed;
        let expect = *self.expect.get_or_insert_with(|| {
            [("gpr", 0), ("fpr", 1)].map(|(class, i)| {
                let key = format!("campaign_paper.{class}");
                (expected(&key, seed, got[i].0), got[i].1)
            })
        });
        let converged = runs.iter().all(|r| r.converged);
        let counts = tally.book_campaign(secs, 0, runs.iter().flat_map(|r| &r.records));
        tally.check(converged && got == expect, || {
            format!(
                "campaign_paper: converged={converged}, records {:x}/{:x} vs reference {:x}/{:x}",
                got[0].0, got[1].0, expect[0].0, expect[1].0
            )
        });
        PaperResult {
            injections: counts.n() as u64,
            counts,
        }
    }
}

/// What one cold + warm composed campaign produced.
pub struct ComposeResult {
    pub cold: ComposedResult<Vec<RgbImage>>,
    pub warm_hits: usize,
    pub save_ms: f64,
    pub load_ms: f64,
}

impl CampaignCompose {
    /// Record-list digest of a cold composed campaign of variant 0, for
    /// `reference.txt`.
    pub fn record_digest(&self) -> u64 {
        let v = &self.variants[0];
        let cold = compose::run_composed_campaign(
            &v.workload,
            &v.golden,
            &v.config,
            &mut CampaignCache::new(),
        );
        digest::records(&cold.records)
    }

    /// Make the next estimate repeat the previous one's variant.
    pub fn rewind(&mut self) {
        self.next = self.next.saturating_sub(1);
    }

    /// A cold composed campaign of the next variant of the cycle into a
    /// fresh cache, a save/load round trip of that cache, and a warm
    /// pass that must inject nothing and reproduce the estimate. Only
    /// the cold campaign is timed.
    pub fn estimate(&mut self, tally: &mut Tally) -> ComposeResult {
        let k = self.next % COMPOSE_VARIANTS;
        self.next += 1;
        let v = &mut self.variants[k];
        let mut cache = CampaignCache::new();
        let t = Instant::now();
        let cold = compose::run_composed_campaign(&v.workload, &v.golden, &v.config, &mut cache);
        let cold_secs = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let saved = cache.save(&self.cache_path);
        let save_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let loaded = CampaignCache::load(&self.cache_path);
        let load_ms = t.elapsed().as_secs_f64() * 1e3;
        let _ = std::fs::remove_file(&self.cache_path);
        let warm = match (saved, loaded) {
            (Ok(()), Ok(mut c)) => Some(compose::run_composed_campaign(
                &v.workload,
                &v.golden,
                &v.config,
                &mut c,
            )),
            _ => None,
        };
        let got = digest::records(&cold.records);
        let seed = self.seed;
        let expect = *v.expect.get_or_insert_with(|| {
            if k == 0 {
                expected("campaign_compose", seed, got)
            } else {
                got
            }
        });
        let warm_ok = warm.as_ref().is_some_and(|w| {
            w.injections_executed == 0
                && format!("{:?}", w.estimate) == format!("{:?}", cold.estimate)
        });
        tally.book_campaign(cold_secs, k, &cold.records);
        tally.check(
            got == expect && warm_ok && cold.injections_executed > 0,
            || {
                format!(
                    "campaign_compose: variant {k}: records {got:x} vs reference {expect:x}, warm pass ok={warm_ok}"
                )
            },
        );
        ComposeResult {
            warm_hits: warm.map_or(0, |w| w.reused_groups),
            cold,
            save_ms,
            load_ms,
        }
    }
}

impl State {
    /// One closed-loop operation.
    pub fn op(&mut self, tally: &mut Tally) {
        match self {
            State::Summarize(s) => s.pass(tally),
            State::Paper(p) => {
                p.estimate(tally);
            }
            State::Compose(c) => {
                c.estimate(tally);
            }
        }
    }

    /// Fix the reference outputs of the golden runs (untimed; see
    /// [`Summarize::set_references`]). Campaigns check their record
    /// lists per estimate instead.
    pub fn set_references(&mut self, seed: u64, tally: &mut Tally) {
        if let State::Summarize(s) = self {
            s.set_references(seed, tally);
        }
    }

    pub fn render_ms_per_frame(&self) -> f64 {
        match self {
            State::Summarize(s) => s.render_ms_per_frame,
            State::Paper(p) => p.render_ms_per_frame,
            State::Compose(c) => c.render_ms_per_frame,
        }
    }
}
