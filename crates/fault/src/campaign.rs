//! Statistical fault-injection campaigns.
//!
//! A campaign reproduces the paper's methodology end to end:
//!
//! 1. [`profile_golden`] runs the workload once with counting enabled,
//!    recording the error-free output (the *golden output*) and the number
//!    of dynamic taps — the population of candidate error sites.
//! 2. [`run_campaign`] performs N independent runs. Each draws a uniformly
//!    random `(tap index, bit)` fault in the chosen register class, runs
//!    the workload with that fault armed, and classifies the outcome as
//!    Mask, SDC, Crash (segfault or abort) or Hang — the paper's four
//!    outcomes, with its crash-cause split.
//!
//! Runs are independent and execute in parallel across threads; all
//! randomness derives from the campaign seed, so results are reproducible
//! bit for bit regardless of thread count.

use crate::error::SimError;
use crate::forensics::{self, Attribution, DigestTrace, ForensicsRecord, Stage};
use crate::func::{FuncId, FuncMask, OpClass};
use crate::pruning::SiteGroup;
use crate::session::{self, InstrCounts, TapSnapshot};
use crate::spec::{FaultSpec, FiredFault, RegClass, REG_BITS};
use crate::{mix64, state};
use std::convert::Infallible;
use std::fmt;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::OnceLock;
use vs_telemetry::metrics;

/// Phase vocabulary of the campaign metrics instrumentation: every
/// nanosecond of a worker's stripe is attributed to one of these named
/// histograms when a [`metrics::MetricsRegistry`] is installed on the
/// campaign's calling thread (see [`metrics::install`]). With no
/// registry installed the timers never read the clock.
pub mod phase {
    /// Fault-spec draw plus checkpoint selection, per run.
    pub const DRAW: &str = "draw";
    /// Forensic-recorder and injection-session guard setup, per run.
    pub const SETUP: &str = "setup";
    /// Workload execution under the armed fault (including any
    /// checkpoint restore), per run.
    pub const EXEC: &str = "exec";
    /// Checkpoint-restore slice of [`EXEC`], recorded by resuming
    /// workloads (a nested sub-phase: excluded from [`TOP`]).
    pub const RESTORE: &str = "restore";
    /// Session teardown: fired-fault readback, guard drop, forensic
    /// trace take, per run.
    pub const TEARDOWN: &str = "teardown";
    /// Outcome classification against the golden output, per run.
    pub const CLASSIFY: &str = "classify";
    /// Campaign-monitor record (telemetry fan-out), per run.
    pub const RECORD: &str = "record";
    /// Driver-side scatter of worker stripes into index order, one
    /// sample per campaign (runs on the calling thread, so it is *not*
    /// worker time).
    pub const COLLECT: &str = "collect";
    /// Whole stripe wall time, one sample per worker — the attribution
    /// denominator.
    pub const WORKER_WALL: &str = "worker_wall";
    /// Counter: runs fast-forwarded from a checkpoint.
    pub const RUNS_RESUMED: &str = "runs_resumed";
    /// Counter: runs executed from scratch.
    pub const RUNS_FROM_SCRATCH: &str = "runs_from_scratch";
    /// The non-overlapping per-worker phases whose sum a scaling report
    /// compares against [`WORKER_WALL`] for attribution coverage.
    /// [`RESTORE`] nests inside [`EXEC`] and [`COLLECT`] happens on the
    /// driver thread, so neither belongs here.
    pub const TOP: &[&str] = &[DRAW, SETUP, EXEC, TEARDOWN, CLASSIFY, RECORD];
}

/// A fault-injectable program under study.
///
/// `run` must be deterministic in the absence of faults (seed all internal
/// randomness) — Mask/SDC classification compares outputs for equality.
/// It is invoked concurrently from several threads, one run per armed
/// fault, and must route its architecturally meaningful values through the
/// [`crate::tap`] functions to be injectable.
pub trait Workload: Sync {
    /// The program's observable output (e.g. the panorama image). The
    /// golden output is shared by reference across campaign worker
    /// threads, hence `Sync`.
    type Output: PartialEq + Send + Sync + 'static;

    /// Execute the program once.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] when (possibly corrupted) state violates a
    /// machine- or library-level invariant: these become Crash and Hang
    /// outcomes.
    fn run(&self) -> Result<Self::Output, SimError>;
}

/// A [`Workload`] that can snapshot its state at internal boundaries and
/// later re-run only the suffix after one — the *golden-prefix
/// fast-forward* optimization.
///
/// The contract making this exact: an injected run executes bit-identically
/// to the golden run until its armed fault fires, so for a fault whose tap
/// index lies at or beyond a checkpoint's eligible-tap count, resuming from
/// that checkpoint reproduces the from-scratch run — same output, same
/// fired fault, same outcome. `resume` must therefore replay *exactly* the
/// computation that follows the capture point, without re-executing any tap
/// in the prefix (the captured [`TapSnapshot`] stands in for those).
pub trait Checkpointed: Workload {
    /// Workload state at a capture boundary (plus the tap counters there).
    type Checkpoint: Send + Sync;

    /// Run as [`Workload::run`] does, additionally capturing a checkpoint
    /// every `every_k` workload-defined units (frames, for the pipeline).
    /// Checkpoints must be returned in execution order.
    ///
    /// # Errors
    ///
    /// As for [`Workload::run`].
    fn run_capturing(
        &self,
        every_k: usize,
    ) -> Result<(Self::Output, Vec<Self::Checkpoint>), SimError>;

    /// Execute only the suffix after `ckpt`.
    ///
    /// # Errors
    ///
    /// As for [`Workload::run`].
    fn resume(&self, ckpt: &Self::Checkpoint) -> Result<Self::Output, SimError>;

    /// The tap counters captured at the boundary.
    fn tap_snapshot(ckpt: &Self::Checkpoint) -> &TapSnapshot;

    /// The forensic digest trace accumulated over the golden prefix up
    /// to the boundary, so a fast-forwarded run's recorder can be
    /// seeded to land on the same per-stage digests a from-scratch run
    /// folds. The default (an empty trace) is correct for workloads
    /// without forensic instrumentation.
    fn digest_snapshot(_ckpt: &Self::Checkpoint) -> DigestTrace {
        DigestTrace::default()
    }
}

/// A [`Workload`] that can execute into a reusable per-worker workspace
/// instead of allocating its transient state afresh every run.
///
/// Campaign drivers create one workspace per worker thread
/// ([`ScratchWorkload::make_scratch`]) and feed it to every run that
/// worker executes; once the workspace has grown to the workload's
/// high-water mark, steady-state injection runs perform no heap
/// allocation. The contract mirrors [`Workload::run`] exactly: for any
/// armed fault, `run_scratch` must produce the same tap stream, the same
/// error, and (via [`ScratchWorkload::scratch_output`]) the same output
/// as `run` — workspace reuse is an optimization, never an observable.
///
/// A faulted, panicked or aborted run may leave the workspace in an
/// arbitrary state; implementations must reset every buffer before its
/// first read on the next run.
pub trait ScratchWorkload: Workload {
    /// The reusable workspace (one per worker thread).
    type Scratch;

    /// Create a cold workspace. Called once per worker, outside any
    /// injection session.
    fn make_scratch(&self) -> Self::Scratch;

    /// Execute the program once into `scratch`, leaving the output
    /// readable via [`ScratchWorkload::scratch_output`].
    ///
    /// # Errors
    ///
    /// As for [`Workload::run`].
    fn run_scratch(&self, scratch: &mut Self::Scratch) -> Result<(), SimError>;

    /// The output of the last successful [`ScratchWorkload::run_scratch`]
    /// (or [`ScratchCheckpointed::resume_scratch`]) on this workspace.
    fn scratch_output<'s>(&self, scratch: &'s Self::Scratch) -> &'s Self::Output;
}

/// A [`ScratchWorkload`] whose checkpoint-resume path can also execute
/// into the reusable workspace. Same exactness contract as
/// [`Checkpointed::resume`], same reuse contract as
/// [`ScratchWorkload::run_scratch`].
pub trait ScratchCheckpointed: ScratchWorkload + Checkpointed {
    /// Execute only the suffix after `ckpt`, into `scratch`.
    ///
    /// # Errors
    ///
    /// As for [`Workload::run`].
    fn resume_scratch(
        &self,
        ckpt: &Self::Checkpoint,
        scratch: &mut Self::Scratch,
    ) -> Result<(), SimError>;
}

/// When the golden profiler captures resumable checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointPolicy {
    /// No checkpoints: every injected run executes from scratch.
    #[default]
    Off,
    /// Capture a checkpoint every `k` workload-defined units (frames).
    EveryKFrames(usize),
}

impl CheckpointPolicy {
    /// The capture interval, if checkpointing is on (`k` floored at 1).
    pub fn interval(self) -> Option<usize> {
        match self {
            CheckpointPolicy::Off => None,
            CheckpointPolicy::EveryKFrames(k) => Some(k.max(1)),
        }
    }
}

/// Dynamic-tap population and instruction counts of a golden run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapProfile {
    /// Total integer taps.
    pub gpr_taps: u64,
    /// Total float taps.
    pub fpr_taps: u64,
    /// Integer taps within the eligible-function mask.
    pub eligible_gpr: u64,
    /// Float taps within the eligible-function mask.
    pub eligible_fpr: u64,
    /// Eligible GPR taps per `(function, op-class)` site group (see
    /// [`crate::session::group_index`]).
    pub gpr_groups: [u64; crate::NUM_FUNCS * crate::NUM_CLASSES],
    /// Instruction accounting of the golden run.
    pub instr: InstrCounts,
}

impl TapProfile {
    /// Candidate error sites for a register class (eligible taps).
    pub fn sites(&self, class: RegClass) -> u64 {
        match class {
            RegClass::Gpr => self.eligible_gpr,
            RegClass::Fpr => self.eligible_fpr,
        }
    }
}

/// Golden (error-free) run artifacts: reference output plus tap profile.
#[derive(Debug, Clone)]
pub struct GoldenRun<O> {
    /// The error-free output every injected run is compared against.
    pub output: O,
    /// Tap population and instruction counts.
    pub profile: TapProfile,
    /// Function mask the profile was taken under (campaigns reuse it).
    pub mask: FuncMask,
    /// Per-stage digest trace of the golden run, recorded only by the
    /// `*_forensic` profilers. When present, campaigns run with a
    /// forensic recorder installed and attribute every completed
    /// injection against this trace.
    pub digests: Option<DigestTrace>,
}

/// Profile the golden run with all functions eligible.
///
/// # Errors
///
/// Propagates a [`SimError`] if the supposedly error-free workload fails,
/// which indicates a workload bug.
pub fn profile_golden<W: Workload>(workload: &W) -> Result<GoldenRun<W::Output>, SimError> {
    profile_golden_masked(workload, FuncMask::all())
}

/// Profile the golden run with fault eligibility confined to `mask`
/// (used by the hot-function case study of Fig 11b).
///
/// # Errors
///
/// Propagates a [`SimError`] if the workload fails without a fault.
pub fn profile_golden_masked<W: Workload>(
    workload: &W,
    mask: FuncMask,
) -> Result<GoldenRun<W::Output>, SimError> {
    // Telemetry-only span bracketing the golden run in driver traces.
    let _stage = vs_telemetry::span("profile_golden");
    let guard = session::begin_profile();
    state::with(|s| s.mask_bits.set(mask.bits()));
    let output = workload.run()?;
    let report = session::report();
    drop(guard);
    Ok(golden_from_report(output, &report, mask))
}

fn golden_from_report<O>(
    output: O,
    report: &session::SessionReport,
    mask: FuncMask,
) -> GoldenRun<O> {
    vs_telemetry::emit(
        "golden_profile",
        &[
            ("gpr_taps", vs_telemetry::Value::U64(report.gpr_taps)),
            ("fpr_taps", vs_telemetry::Value::U64(report.fpr_taps)),
            (
                "eligible_gpr",
                vs_telemetry::Value::U64(report.eligible_gpr),
            ),
            (
                "eligible_fpr",
                vs_telemetry::Value::U64(report.eligible_fpr),
            ),
            ("instr_total", vs_telemetry::Value::U64(report.instr.total)),
        ],
    );
    GoldenRun {
        output,
        profile: TapProfile {
            gpr_taps: report.gpr_taps,
            fpr_taps: report.fpr_taps,
            eligible_gpr: report.eligible_gpr,
            eligible_fpr: report.eligible_fpr,
            gpr_groups: report.gpr_groups,
            instr: report.instr,
        },
        mask,
        digests: None,
    }
}

/// Announce a forensic golden trace on the telemetry stream (one field
/// per stage digest) — `trace_check --forensics` requires this event.
fn emit_forensics_golden(trace: &DigestTrace) {
    let fields: Vec<(&str, vs_telemetry::Value)> = Stage::ALL
        .iter()
        .map(|&s| (s.name(), vs_telemetry::Value::U64(trace.digest(s))))
        .collect();
    vs_telemetry::emit("forensics_golden", &fields);
}

/// [`profile_golden`] with forensic digest recording: the returned
/// golden run carries the per-stage digest trace, which arms forensic
/// attribution in [`run_campaign`].
///
/// # Errors
///
/// Propagates a [`SimError`] if the workload fails without a fault.
pub fn profile_golden_forensic<W: Workload>(
    workload: &W,
) -> Result<GoldenRun<W::Output>, SimError> {
    let recorder = forensics::begin_recording();
    let mut golden = profile_golden(workload)?;
    let trace = forensics::current_trace();
    drop(recorder);
    golden.digests = Some(trace);
    emit_forensics_golden(&trace);
    Ok(golden)
}

/// [`profile_golden_checkpointed`] with forensic digest recording; the
/// captured checkpoints snapshot their prefix traces (via the
/// workload's capture sites), arming forensic attribution in
/// [`run_campaign_checkpointed`].
///
/// # Errors
///
/// Propagates a [`SimError`] if the workload fails without a fault.
pub fn profile_golden_checkpointed_forensic<W: Checkpointed>(
    workload: &W,
    policy: CheckpointPolicy,
) -> Result<CheckpointedGolden<W>, SimError> {
    let recorder = forensics::begin_recording();
    let mut ck = profile_golden_checkpointed(workload, policy)?;
    let trace = forensics::current_trace();
    drop(recorder);
    ck.golden.digests = Some(trace);
    emit_forensics_golden(&trace);
    Ok(ck)
}

/// Golden-run artifacts of a checkpoint-capturing profile: the usual
/// [`GoldenRun`] plus the chain of resumable checkpoints (in execution
/// order, so their eligible-tap counts are non-decreasing).
pub struct CheckpointedGolden<W: Checkpointed> {
    /// The plain golden artifacts (usable with [`run_campaign`] too).
    pub golden: GoldenRun<W::Output>,
    /// Resumable mid-run checkpoints captured during profiling.
    pub checkpoints: Vec<W::Checkpoint>,
}

/// Profile the golden run while capturing resumable checkpoints per
/// `policy`, with all functions eligible.
///
/// # Errors
///
/// Propagates a [`SimError`] if the workload fails without a fault.
pub fn profile_golden_checkpointed<W: Checkpointed>(
    workload: &W,
    policy: CheckpointPolicy,
) -> Result<CheckpointedGolden<W>, SimError> {
    // Telemetry-only span bracketing the golden run in driver traces.
    let _stage = vs_telemetry::span("profile_golden");
    let mask = FuncMask::all();
    let guard = session::begin_profile();
    state::with(|s| s.mask_bits.set(mask.bits()));
    let (output, checkpoints) = match policy.interval() {
        Some(k) => workload.run_capturing(k)?,
        None => (workload.run()?, Vec::new()),
    };
    let report = session::report();
    drop(guard);
    Ok(CheckpointedGolden {
        golden: golden_from_report(output, &report, mask),
        checkpoints,
    })
}

/// Outcome of one injected run — the paper's four classes, with crashes
/// split by cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Output identical to golden: the error was masked.
    Masked,
    /// Output differs from golden: silent data corruption.
    Sdc,
    /// Simulated segmentation fault (memory-access violation).
    CrashSegfault,
    /// Simulated abort (internal constraint violation).
    CrashAbort,
    /// Hang monitor tripped.
    Hang,
}

impl Outcome {
    /// Whether this outcome is a crash of either cause.
    pub fn is_crash(self) -> bool {
        matches!(self, Outcome::CrashSegfault | Outcome::CrashAbort)
    }

    /// The aggregate class this outcome collapses into (the two crash
    /// causes both map to [`crate::stats::OutcomeClass::Crash`]).
    pub fn class(self) -> crate::stats::OutcomeClass {
        match self {
            Outcome::Masked => crate::stats::OutcomeClass::Masked,
            Outcome::Sdc => crate::stats::OutcomeClass::Sdc,
            Outcome::CrashSegfault | Outcome::CrashAbort => crate::stats::OutcomeClass::Crash,
            Outcome::Hang => crate::stats::OutcomeClass::Hang,
        }
    }

    /// Short lowercase name used in reports. Delegates to
    /// [`crate::stats::OutcomeClass::name`] wherever the class name is
    /// exact, so outcome and class labels cannot drift apart; only the
    /// crash-cause split keeps its own strings.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::CrashSegfault => "crash_segfault",
            Outcome::CrashAbort => "crash_abort",
            other => other.class().name(),
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Record of one injected run.
#[derive(Debug, Clone)]
pub struct Injection<O> {
    /// Position of this run in the campaign (stable across thread counts).
    pub index: usize,
    /// The armed fault.
    pub spec: FaultSpec,
    /// Where the fault actually landed, if it fired.
    pub fired: Option<FiredFault>,
    /// Classified outcome.
    pub outcome: Outcome,
    /// The corrupted output, retained for SDC-quality analysis when the
    /// outcome is [`Outcome::Sdc`] and the campaign keeps outputs.
    pub sdc_output: Option<O>,
    /// Digest trace and divergence attribution of this run, present
    /// only for completed runs (Masked/Sdc) of forensic campaigns — a
    /// crashed or hung run's trace stops at an arbitrary point and is
    /// discarded.
    pub forensics: Option<ForensicsRecord>,
}

/// Campaign parameters. Construct with [`CampaignConfig::new`] and chain
/// the builder methods.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    pub(crate) class: RegClass,
    pub(crate) injections: usize,
    pub(crate) seed: u64,
    pub(crate) threads: usize,
    pub(crate) hang_factor: u64,
    pub(crate) keep_sdc_outputs: bool,
    pub(crate) checkpoint_policy: CheckpointPolicy,
}

impl CampaignConfig {
    /// A campaign of `injections` single-bit flips in `class` registers.
    pub fn new(class: RegClass, injections: usize) -> Self {
        CampaignConfig {
            class,
            injections,
            seed: 0,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            hang_factor: 16,
            keep_sdc_outputs: true,
            checkpoint_policy: CheckpointPolicy::Off,
        }
    }

    /// Seed for fault-site sampling (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Worker threads (default: available parallelism).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "campaign needs at least one thread");
        self.threads = threads;
        self
    }

    /// Hang budget as a multiple of the golden run's instruction count
    /// (default 16).
    pub fn hang_factor(mut self, factor: u64) -> Self {
        self.hang_factor = factor.max(2);
        self
    }

    /// Whether to retain corrupted outputs of SDC runs for quality
    /// analysis (default true; disable for memory-constrained sweeps).
    pub fn keep_sdc_outputs(mut self, keep: bool) -> Self {
        self.keep_sdc_outputs = keep;
        self
    }

    /// Golden-prefix checkpointing policy (default off). Only consulted
    /// by [`profile_golden_checkpointed`] / [`run_campaign_checkpointed`];
    /// the plain [`run_campaign`] always runs from scratch.
    pub fn checkpoint_policy(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint_policy = policy;
        self
    }

    /// Register class under test.
    pub fn class(&self) -> RegClass {
        self.class
    }

    /// Number of injections.
    pub fn injections(&self) -> usize {
        self.injections
    }

    /// The configured checkpointing policy.
    pub fn checkpointing(&self) -> CheckpointPolicy {
        self.checkpoint_policy
    }
}

/// Install (once) a panic hook that silences panics raised inside
/// injection runs — a corrupted index panicking in a slice access is an
/// *expected* crash outcome, not test noise.
pub(crate) fn install_quiet_hook() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let in_injection = state::with(|s| s.in_injection.get());
            if !in_injection {
                previous(info);
            }
        }));
    });
}

/// Draw the fault spec for run `index` of a campaign. Depends only on
/// `(cfg.seed, cfg.class, sites, index)` — never on how many runs the
/// campaign will ultimately execute — so an early-stopped campaign's
/// records are an exact prefix of the fixed-budget campaign's records at
/// the same seed (the property `adaptive` builds on).
pub(crate) fn draw_spec(cfg: &CampaignConfig, sites: u64, index: usize) -> FaultSpec {
    let h = mix64(cfg.seed ^ mix64(index as u64 ^ 0x0121_7ec7_1011));
    let tap_index = mix64(h ^ 0x07a9_517e) % sites;
    let bit = (mix64(h ^ 0x0b17_f11b) % REG_BITS as u64) as u8;
    FaultSpec::new(cfg.class, tap_index, bit)
}

/// Forensic payload for one classified run: only completed runs carry a
/// meaningful end-of-run trace, so crash/hang outcomes get `None`.
fn forensic_record(
    golden: Option<DigestTrace>,
    trace: Option<DigestTrace>,
    outcome: Outcome,
) -> Option<ForensicsRecord> {
    match (golden, trace) {
        (Some(g), Some(t)) if matches!(outcome, Outcome::Masked | Outcome::Sdc) => {
            Some(ForensicsRecord {
                trace: t,
                attribution: Attribution::between(&g, &t),
            })
        }
        _ => None,
    }
}

/// Hang-monitor budget of an injected run: `factor` times the golden
/// run's instruction count, plus a fixed floor so tiny runs still get
/// room. Callers apply their own floor to `factor`.
pub(crate) fn hang_budget(profile: &TapProfile, factor: u64) -> u64 {
    profile
        .instr
        .total
        .saturating_mul(factor)
        .saturating_add(1_000_000)
}

/// What the run step executes: a workload bound to a per-worker
/// workspace, run from scratch or resumed after a checkpoint, with its
/// output read back from the workspace.
pub(crate) trait Target: Sync {
    /// The workload's output.
    type Output: PartialEq + Send + Sync;
    /// A resumable golden-prefix checkpoint.
    type Ckpt: Sync;
    /// The per-worker workspace.
    type Scratch;

    /// A cold workspace, made once per worker.
    fn scratch(&self) -> Self::Scratch;
    /// Tap counters at the checkpoint's boundary.
    fn taps(ckpt: &Self::Ckpt) -> &TapSnapshot;
    /// Forensic digest trace of the golden prefix up to the boundary.
    fn digests(ckpt: &Self::Ckpt) -> DigestTrace;
    /// Execute one run into `ws`, resuming after `from` when given.
    fn exec(&self, from: Option<&Self::Ckpt>, ws: &mut Self::Scratch) -> Result<(), SimError>;
    /// The output of the last successful [`Target::exec`] on `ws`.
    fn output<'s>(&self, ws: &'s Self::Scratch) -> &'s Self::Output;
    /// That output as an owned value, for a retained SDC.
    fn keep(&self, ws: &mut Self::Scratch) -> Self::Output;
}

/// A plain [`Workload`] as a run target: no checkpoints, and the
/// workspace holds the last run's output.
pub(crate) struct Fresh<'w, W>(pub(crate) &'w W);

impl<W: Workload> Target for Fresh<'_, W> {
    type Output = W::Output;
    type Ckpt = Infallible;
    type Scratch = Option<W::Output>;

    fn scratch(&self) -> Self::Scratch {
        None
    }

    fn taps(ckpt: &Infallible) -> &TapSnapshot {
        match *ckpt {}
    }

    fn digests(ckpt: &Infallible) -> DigestTrace {
        match *ckpt {}
    }

    fn exec(&self, _from: Option<&Infallible>, ws: &mut Self::Scratch) -> Result<(), SimError> {
        *ws = Some(self.0.run()?);
        Ok(())
    }

    fn output<'s>(&self, ws: &'s Self::Scratch) -> &'s W::Output {
        ws.as_ref().expect("read only after a successful run")
    }

    fn keep(&self, ws: &mut Self::Scratch) -> W::Output {
        ws.take().expect("read only after a successful run")
    }
}

/// A [`ScratchCheckpointed`] workload as a run target: runs execute
/// into its own workspace and may fast-forward from a checkpoint.
pub(crate) struct Resumable<'w, W>(pub(crate) &'w W);

impl<W: ScratchCheckpointed> Target for Resumable<'_, W>
where
    W::Output: Clone,
{
    type Output = W::Output;
    type Ckpt = W::Checkpoint;
    type Scratch = W::Scratch;

    fn scratch(&self) -> W::Scratch {
        self.0.make_scratch()
    }

    fn taps(ckpt: &W::Checkpoint) -> &TapSnapshot {
        W::tap_snapshot(ckpt)
    }

    fn digests(ckpt: &W::Checkpoint) -> DigestTrace {
        W::digest_snapshot(ckpt)
    }

    fn exec(&self, from: Option<&W::Checkpoint>, ws: &mut W::Scratch) -> Result<(), SimError> {
        match from {
            Some(c) => self.0.resume_scratch(c, ws),
            None => self.0.run_scratch(ws),
        }
    }

    fn output<'s>(&self, ws: &'s W::Scratch) -> &'s W::Output {
        self.0.scratch_output(ws)
    }

    fn keep(&self, ws: &mut W::Scratch) -> W::Output {
        self.0.scratch_output(ws).clone()
    }
}

/// The one injected-run step, configured once per campaign: arm one
/// single-bit fault, run the target under `catch_unwind`, and classify
/// the result as Masked, SDC, Crash or Hang.
pub(crate) struct Step<'g, O> {
    /// Golden output, function mask and tap profile.
    pub(crate) golden: &'g GoldenRun<O>,
    /// Site filter: `None` arms the fault over every eligible tap,
    /// `Some((func, op))` over one site group's taps only.
    pub(crate) group: Option<(FuncId, OpClass)>,
    /// Hang-monitor budget (see [`hang_budget`]).
    pub(crate) budget: u64,
    /// Whether SDC records keep their corrupted output.
    pub(crate) keep_sdc: bool,
    /// Golden digest trace to attribute against; `Some` installs a
    /// forensic recorder for every run.
    pub(crate) digests: Option<DigestTrace>,
}

impl<'g, O: PartialEq> Step<'g, O> {
    /// A site-group pilot, as pruned and composed campaigns record it:
    /// no forensic recorder and no retained SDC output.
    pub(crate) fn pilot(golden: &'g GoldenRun<O>, group: &SiteGroup, budget: u64) -> Self {
        Step {
            golden,
            group: Some((group.func, group.op)),
            budget,
            keep_sdc: false,
            digests: None,
        }
    }

    /// Execute run `index` with `spec` armed, starting from scratch or
    /// after checkpoint `from`, into workspace `ws`. Exactness of a
    /// resumed run rests on the [`Checkpointed`] and [`ScratchWorkload`]
    /// contracts: the skipped prefix is bit-identical to the golden run
    /// because the armed fault lies beyond the checkpoint, and workspace
    /// reuse never changes the tap stream or output. Classification
    /// compares the output borrowed from the workspace; only retained
    /// SDC outputs are moved or copied out.
    ///
    /// # Panics
    ///
    /// Panics if a site-group run is asked to resume from a checkpoint
    /// (checkpoints carry no per-group tap counts).
    pub(crate) fn run<T: Target<Output = O>>(
        &self,
        target: &T,
        spec: FaultSpec,
        index: usize,
        from: Option<&T::Ckpt>,
        ws: &mut T::Scratch,
    ) -> Injection<O> {
        metrics::add(
            if from.is_some() {
                phase::RUNS_RESUMED
            } else {
                phase::RUNS_FROM_SCRATCH
            },
            1,
        );
        let t_setup = metrics::start();
        let recorder = self.digests.is_some().then(|| match from {
            Some(c) => forensics::begin_recording_at(T::digests(c)),
            None => forensics::begin_recording(),
        });
        let (mask, budget) = (self.golden.mask, self.budget);
        let guard = match (from, self.group) {
            (None, None) => session::begin_injection(spec, mask, budget),
            (None, Some((func, op))) => {
                session::begin_injection_grouped(spec, func, op, mask, budget)
            }
            (Some(c), None) => session::begin_injection_at(spec, mask, budget, T::taps(c)),
            (Some(_), Some(_)) => panic!("a site-group run cannot resume from a checkpoint"),
        };
        metrics::stop(phase::SETUP, t_setup);
        let t_exec = metrics::start();
        state::with(|s| s.in_injection.set(true));
        let result = panic::catch_unwind(AssertUnwindSafe(|| target.exec(from, &mut *ws)));
        state::with(|s| s.in_injection.set(false));
        metrics::stop(phase::EXEC, t_exec);
        let t_teardown = metrics::start();
        let fired = session::report().fired;
        drop(guard);
        let trace = recorder.map(|r| {
            let t = forensics::current_trace();
            drop(r);
            t
        });
        metrics::stop(phase::TEARDOWN, t_teardown);
        let t_classify = metrics::start();
        let (outcome, sdc_output) = match result {
            Err(_) | Ok(Err(SimError::Segfault)) => (Outcome::CrashSegfault, None),
            Ok(Err(SimError::Abort)) => (Outcome::CrashAbort, None),
            Ok(Err(SimError::Hang)) => (Outcome::Hang, None),
            Ok(Ok(())) if *target.output(ws) == self.golden.output => (Outcome::Masked, None),
            Ok(Ok(())) => (Outcome::Sdc, self.keep_sdc.then(|| target.keep(ws))),
        };
        let forensics = forensic_record(self.digests, trace, outcome);
        metrics::stop(phase::CLASSIFY, t_classify);
        Injection {
            index,
            spec,
            fired,
            outcome,
            sdc_output,
            forensics,
        }
    }
}

/// Thread-striped parallel driver: run `run(i, state)` for every
/// `i < n` across `threads` workers, with worker `t` taking indices
/// `t, t + threads, ...`. Each worker returns its stripe through its
/// join handle and the driver scatters records into index order, so
/// the output order is deterministic regardless of thread count and no
/// shared state sits on the worker path. Each worker owns one
/// `init()`-created state for its whole stripe (the per-worker
/// workspace of the run step).
///
/// When a [`metrics::MetricsRegistry`] is installed on the calling
/// thread, every worker is armed for lock-free metrics collection
/// ([`metrics::arm`]) and deposits its stripe's phase histograms into
/// the registry under its worker id once, at stripe end; the driver
/// itself deposits the scatter time under id `threads`. With no
/// registry installed the arming (and every timer inside the run
/// closures) is skipped entirely.
pub(crate) fn drive_with<T: Send, S>(
    n: usize,
    threads: usize,
    init: impl Fn() -> S + Sync,
    run: impl Fn(usize, &mut S) -> T + Sync,
) -> Vec<T> {
    let registry = metrics::registry();
    let registry = registry.as_deref();
    let stripes: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let run = &run;
                let init = &init;
                scope.spawn(move || {
                    let armed = registry.map(|_| metrics::arm());
                    let wall = metrics::start();
                    let mut state = init();
                    let mut local = Vec::with_capacity(n.div_ceil(threads.max(1)));
                    let mut i = t;
                    while i < n {
                        local.push((i, run(i, &mut state)));
                        i += threads;
                    }
                    metrics::stop(phase::WORKER_WALL, wall);
                    if let (Some(reg), Some(g)) = (registry, armed) {
                        reg.absorb(t, g.finish());
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("campaign worker panicked"))
            .collect()
    });
    let scatter_start = registry.map(|_| std::time::Instant::now());
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for stripe in stripes {
        for (idx, rec) in stripe {
            slots[idx] = Some(rec);
        }
    }
    if let (Some(reg), Some(t0)) = (registry, scatter_start) {
        let mut driver = metrics::WorkerMetrics::default();
        driver.record_ns(phase::COLLECT, t0.elapsed().as_nanos() as u64);
        reg.absorb(threads, driver);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every injection slot must be filled"))
        .collect()
}

/// The one campaign driver. Set up once per campaign (site check,
/// quiet panic hook, telemetry monitor), it then runs any range of run
/// indices: each run draws its fault, picks the latest checkpoint that
/// lies before the fault's tap, and takes the run step on its worker's
/// workspace. Fixed-budget campaigns run one range; adaptive campaigns
/// run consecutive batches.
pub(crate) struct Driver<'a, T: Target> {
    target: T,
    checkpoints: &'a [T::Ckpt],
    cfg: &'a CampaignConfig,
    sites: u64,
    step: Step<'a, T::Output>,
    monitor: crate::telemetry::CampaignMonitor,
}

impl<'a, T: Target> Driver<'a, T> {
    /// # Panics
    ///
    /// Panics if the golden profile recorded zero eligible taps for the
    /// campaign's register class — there would be nowhere to inject.
    pub(crate) fn new(
        target: T,
        golden: &'a GoldenRun<T::Output>,
        checkpoints: &'a [T::Ckpt],
        cfg: &'a CampaignConfig,
    ) -> Self {
        let sites = golden.profile.sites(cfg.class);
        assert!(
            sites > 0,
            "no eligible {} taps recorded in the golden profile",
            cfg.class
        );
        install_quiet_hook();
        let monitor = crate::telemetry::CampaignMonitor::new(
            cfg,
            sites,
            checkpoints.len(),
            golden.digests.is_some(),
        );
        Driver {
            target,
            checkpoints,
            cfg,
            sites,
            step: Step {
                golden,
                group: None,
                budget: hang_budget(&golden.profile, cfg.hang_factor),
                keep_sdc: cfg.keep_sdc_outputs,
                digests: golden.digests,
            },
            monitor,
        }
    }

    /// Run indices `runs` across up to `cfg.threads` workers; records
    /// come back in index order.
    pub(crate) fn run(&self, runs: Range<usize>) -> Vec<Injection<T::Output>> {
        let threads = self.cfg.threads.min(runs.len().max(1));
        drive_with(
            runs.len(),
            threads,
            || self.target.scratch(),
            |j, ws| {
                let i = runs.start + j;
                let t_draw = metrics::start();
                let spec = draw_spec(self.cfg, self.sites, i);
                let usable = self
                    .checkpoints
                    .partition_point(|c| T::taps(c).eligible(self.cfg.class) <= spec.tap_index);
                let from = usable.checked_sub(1).map(|k| &self.checkpoints[k]);
                metrics::stop(phase::DRAW, t_draw);
                let rec = self.step.run(&self.target, spec, i, from, ws);
                self.monitor.record(&rec);
                rec
            },
        )
    }

    /// Emit the campaign's final telemetry snapshot.
    pub(crate) fn finish(self) {
        self.monitor.finish();
    }
}

/// A fixed-budget campaign: all of `cfg`'s runs through one driver.
fn fixed<T: Target>(
    target: T,
    golden: &GoldenRun<T::Output>,
    checkpoints: &[T::Ckpt],
    cfg: &CampaignConfig,
) -> Vec<Injection<T::Output>> {
    // Telemetry-only span on the driver thread; workers run sink-free.
    let _stage = vs_telemetry::span("campaign");
    let driver = Driver::new(target, golden, checkpoints, cfg);
    let records = driver.run(0..cfg.injections);
    driver.finish();
    records
}

/// Run a fault-injection campaign against `workload`.
///
/// Returns one [`Injection`] record per run, ordered by run index
/// (deterministic for a given seed, independent of thread count).
///
/// # Panics
///
/// Panics if the golden profile recorded zero eligible taps for the
/// campaign's register class — there would be nowhere to inject.
pub fn run_campaign<W: Workload>(
    workload: &W,
    golden: &GoldenRun<W::Output>,
    cfg: &CampaignConfig,
) -> Vec<Injection<W::Output>> {
    fixed(Fresh(workload), golden, &[], cfg)
}

/// Run a fault-injection campaign with golden-prefix fast-forward and
/// per-worker workspace reuse: each injected run starts from the latest
/// checkpoint whose eligible-tap count does not exceed the drawn fault's
/// tap index (or from scratch if none qualifies), and executes into its
/// worker's [`ScratchWorkload`] workspace — so after a worker's first
/// few runs, steady-state execution allocates nothing.
///
/// Classification is bit-for-bit identical to [`run_campaign`] on the
/// same seed — same specs, same outcomes, same fired faults — because
/// the skipped prefix of every run is identical to the golden run and
/// workspace reuse is contract-bound to be unobservable.
///
/// # Panics
///
/// Panics if the golden profile recorded zero eligible taps for the
/// campaign's register class.
pub fn run_campaign_checkpointed<W: ScratchCheckpointed>(
    workload: &W,
    golden: &CheckpointedGolden<W>,
    cfg: &CampaignConfig,
) -> Vec<Injection<W::Output>>
where
    W::Output: Clone,
{
    fixed(
        Resumable(workload),
        &golden.golden,
        &golden.checkpoints,
        cfg,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{FuncId, OpClass};
    use crate::tap;

    /// Toy workload with address, control, data and float taps; rich
    /// enough to produce every outcome class.
    struct Toy;

    impl Workload for Toy {
        type Output = (u64, u64);

        fn run(&self) -> Result<(u64, u64), SimError> {
            let _f = tap::scope(FuncId::Other);
            let data: Vec<u64> = (0..64).collect();
            let mut acc = 0u64;
            let bound = tap::ctl(data.len());
            let mut i = 0usize;
            while i < bound {
                tap::work(OpClass::Control, 1)?;
                let idx = tap::addr(i);
                let v = *data.get(idx).ok_or(SimError::Segfault)?;
                acc = acc.wrapping_add(tap::gpr(v));
                // Dead state: a scratch value that never reaches the
                // output — faults landing here are always masked.
                let _scratch = tap::gpr(v.wrapping_mul(3));
                // Forensic digest of the live integer state (two toy
                // "stages" so attribution has an order to resolve).
                forensics::record(Stage::Match, acc);
                i += 1;
            }
            let mut facc = 0.0f64;
            for k in 0..32 {
                tap::work(OpClass::Float, 1)?;
                let x = tap::fpr(k as f64 * 0.5);
                // Saturating narrow, as the pipeline's float->u8 step does.
                facc += x.clamp(0.0, 255.0).floor();
            }
            forensics::record(Stage::Summary, facc.to_bits());
            Ok((acc, facc as u64))
        }
    }

    #[test]
    fn golden_profile_counts_sites() {
        let g = profile_golden(&Toy).unwrap();
        assert_eq!(g.profile.gpr_taps, 1 + 64 * 3);
        assert_eq!(g.profile.fpr_taps, 32);
        assert_eq!(g.profile.sites(RegClass::Gpr), g.profile.eligible_gpr);
        assert_eq!(g.output, Toy.run().map_err(|_| ()).unwrap());
    }

    #[test]
    fn campaign_is_deterministic_across_thread_counts() {
        let g = profile_golden(&Toy).unwrap();
        let cfg1 = CampaignConfig::new(RegClass::Gpr, 64).seed(11).threads(1);
        let cfg4 = CampaignConfig::new(RegClass::Gpr, 64).seed(11).threads(4);
        let a = run_campaign(&Toy, &g, &cfg1);
        let b = run_campaign(&Toy, &g, &cfg4);
        let oa: Vec<_> = a.iter().map(|r| (r.spec, r.outcome)).collect();
        let ob: Vec<_> = b.iter().map(|r| (r.spec, r.outcome)).collect();
        assert_eq!(oa, ob);
    }

    #[test]
    fn gpr_campaign_produces_crashes_and_masks() {
        let g = profile_golden(&Toy).unwrap();
        let cfg = CampaignConfig::new(RegClass::Gpr, 300).seed(3).threads(2);
        let recs = run_campaign(&Toy, &g, &cfg);
        assert_eq!(recs.len(), 300);
        let crashes = recs.iter().filter(|r| r.outcome.is_crash()).count();
        let masked = recs.iter().filter(|r| r.outcome == Outcome::Masked).count();
        assert!(crashes > 0, "address faults must produce some crashes");
        assert!(masked > 0, "low bits of control values must mask sometimes");
        // Every fired fault must be recorded.
        for r in &recs {
            if r.outcome != Outcome::Masked {
                assert!(
                    r.fired.is_some(),
                    "non-masked outcome without a fired fault"
                );
            }
        }
    }

    #[test]
    fn fpr_campaign_is_mostly_masked_or_sdc_never_crashing() {
        let g = profile_golden(&Toy).unwrap();
        let cfg = CampaignConfig::new(RegClass::Fpr, 200).seed(5).threads(2);
        let recs = run_campaign(&Toy, &g, &cfg);
        assert!(recs.iter().all(|r| !r.outcome.is_crash()));
        assert!(recs.iter().any(|r| r.outcome == Outcome::Masked));
    }

    #[test]
    fn sdc_outputs_are_retained_when_requested() {
        let g = profile_golden(&Toy).unwrap();
        let cfg = CampaignConfig::new(RegClass::Gpr, 400).seed(9).threads(2);
        let recs = run_campaign(&Toy, &g, &cfg);
        for r in recs.iter().filter(|r| r.outcome == Outcome::Sdc) {
            let out = r.sdc_output.as_ref().expect("sdc output retained");
            assert_ne!(*out, g.output);
        }
    }

    #[test]
    fn campaign_without_sdc_retention_drops_outputs() {
        let g = profile_golden(&Toy).unwrap();
        let cfg = CampaignConfig::new(RegClass::Gpr, 100)
            .seed(9)
            .threads(2)
            .keep_sdc_outputs(false);
        let recs = run_campaign(&Toy, &g, &cfg);
        assert!(recs.iter().all(|r| r.sdc_output.is_none()));
    }

    /// Checkpoint for [`Toy`]: integer-loop state at a capture boundary.
    struct ToyCheckpoint {
        i: usize,
        bound: usize,
        acc: u64,
        taps: crate::session::TapSnapshot,
        trace: DigestTrace,
    }

    impl Checkpointed for Toy {
        type Checkpoint = ToyCheckpoint;

        fn run_capturing(
            &self,
            every_k: usize,
        ) -> Result<((u64, u64), Vec<ToyCheckpoint>), SimError> {
            let _f = tap::scope(FuncId::Other);
            let mut checkpoints = Vec::new();
            let data: Vec<u64> = (0..64).collect();
            let mut acc = 0u64;
            let bound = tap::ctl(data.len());
            let mut i = 0usize;
            while i < bound {
                if i > 0 && i.is_multiple_of(every_k) {
                    checkpoints.push(ToyCheckpoint {
                        i,
                        bound,
                        acc,
                        taps: crate::session::snapshot(),
                        trace: forensics::current_trace(),
                    });
                }
                tap::work(OpClass::Control, 1)?;
                let idx = tap::addr(i);
                let v = *data.get(idx).ok_or(SimError::Segfault)?;
                acc = acc.wrapping_add(tap::gpr(v));
                let _scratch = tap::gpr(v.wrapping_mul(3));
                forensics::record(Stage::Match, acc);
                i += 1;
            }
            let mut facc = 0.0f64;
            for k in 0..32 {
                tap::work(OpClass::Float, 1)?;
                let x = tap::fpr(k as f64 * 0.5);
                facc += x.clamp(0.0, 255.0).floor();
            }
            forensics::record(Stage::Summary, facc.to_bits());
            Ok(((acc, facc as u64), checkpoints))
        }

        fn resume(&self, ckpt: &ToyCheckpoint) -> Result<(u64, u64), SimError> {
            let _f = tap::scope(FuncId::Other);
            let data: Vec<u64> = (0..64).collect();
            let mut acc = ckpt.acc;
            let bound = ckpt.bound;
            let mut i = ckpt.i;
            while i < bound {
                tap::work(OpClass::Control, 1)?;
                let idx = tap::addr(i);
                let v = *data.get(idx).ok_or(SimError::Segfault)?;
                acc = acc.wrapping_add(tap::gpr(v));
                let _scratch = tap::gpr(v.wrapping_mul(3));
                forensics::record(Stage::Match, acc);
                i += 1;
            }
            let mut facc = 0.0f64;
            for k in 0..32 {
                tap::work(OpClass::Float, 1)?;
                let x = tap::fpr(k as f64 * 0.5);
                facc += x.clamp(0.0, 255.0).floor();
            }
            forensics::record(Stage::Summary, facc.to_bits());
            Ok((acc, facc as u64))
        }

        fn tap_snapshot(ckpt: &ToyCheckpoint) -> &crate::session::TapSnapshot {
            &ckpt.taps
        }

        fn digest_snapshot(ckpt: &ToyCheckpoint) -> DigestTrace {
            ckpt.trace
        }
    }

    impl ScratchWorkload for Toy {
        type Scratch = Option<(u64, u64)>;

        fn make_scratch(&self) -> Self::Scratch {
            None
        }

        fn run_scratch(&self, scratch: &mut Self::Scratch) -> Result<(), SimError> {
            *scratch = Some(self.run()?);
            Ok(())
        }

        fn scratch_output<'s>(&self, scratch: &'s Self::Scratch) -> &'s (u64, u64) {
            scratch.as_ref().expect("read only after a successful run")
        }
    }

    impl ScratchCheckpointed for Toy {
        fn resume_scratch(
            &self,
            ckpt: &ToyCheckpoint,
            scratch: &mut Self::Scratch,
        ) -> Result<(), SimError> {
            *scratch = Some(self.resume(ckpt)?);
            Ok(())
        }
    }

    #[test]
    fn checkpointed_profile_matches_plain_profile() {
        let plain = profile_golden(&Toy).unwrap();
        let ck = profile_golden_checkpointed(&Toy, CheckpointPolicy::EveryKFrames(10)).unwrap();
        assert_eq!(ck.golden.output, plain.output);
        assert_eq!(ck.golden.profile, plain.profile);
        assert_eq!(ck.checkpoints.len(), 6, "64 iterations / 10 (skipping i=0)");
        // Eligible counts must be non-decreasing along the chain.
        let counts: Vec<u64> = ck
            .checkpoints
            .iter()
            .map(|c| c.taps.eligible(RegClass::Gpr))
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn checkpoint_policy_off_captures_nothing() {
        let ck = profile_golden_checkpointed(&Toy, CheckpointPolicy::Off).unwrap();
        assert!(ck.checkpoints.is_empty());
        assert_eq!(ck.golden.profile, profile_golden(&Toy).unwrap().profile);
    }

    #[test]
    fn checkpointed_campaign_is_outcome_identical() {
        let plain = profile_golden(&Toy).unwrap();
        let ck = profile_golden_checkpointed(&Toy, CheckpointPolicy::EveryKFrames(7)).unwrap();
        for class in [RegClass::Gpr, RegClass::Fpr] {
            let reference = run_campaign(
                &Toy,
                &plain,
                &CampaignConfig::new(class, 150).seed(21).threads(2),
            );
            for threads in [1, 4] {
                let cfg = CampaignConfig::new(class, 150)
                    .seed(21)
                    .threads(threads)
                    .checkpoint_policy(CheckpointPolicy::EveryKFrames(7));
                let fast = run_campaign_checkpointed(&Toy, &ck, &cfg);
                let a: Vec<_> = reference
                    .iter()
                    .map(|r| (r.spec, r.outcome, r.fired))
                    .collect();
                let b: Vec<_> = fast.iter().map(|r| (r.spec, r.outcome, r.fired)).collect();
                assert_eq!(a, b, "class {class} threads {threads}");
            }
        }
    }

    #[test]
    fn checkpointed_campaign_without_checkpoints_matches_scratch() {
        let ck = profile_golden_checkpointed(&Toy, CheckpointPolicy::Off).unwrap();
        let cfg = CampaignConfig::new(RegClass::Gpr, 60).seed(4).threads(2);
        let scratch = run_campaign(&Toy, &ck.golden, &cfg);
        let fast = run_campaign_checkpointed(&Toy, &ck, &cfg);
        let a: Vec<_> = scratch.iter().map(|r| (r.spec, r.outcome)).collect();
        let b: Vec<_> = fast.iter().map(|r| (r.spec, r.outcome)).collect();
        assert_eq!(a, b);
    }

    /// A workload whose only taps are loop bounds: corrupting them upward
    /// must trip the hang monitor.
    struct Spinner;

    impl Workload for Spinner {
        type Output = u64;

        fn run(&self) -> Result<u64, SimError> {
            let _f = tap::scope(FuncId::Other);
            let bound = tap::ctl(16);
            let mut acc = 0u64;
            let mut i = 0usize;
            while i < bound {
                tap::work(OpClass::Control, 1)?;
                acc = acc.wrapping_add(1);
                i += 1;
            }
            Ok(acc)
        }
    }

    /// Zero-perturbation at the Toy layer: installing a telemetry sink
    /// must leave golden profiles, fault draws, fired faults and
    /// outcomes bit-for-bit identical, while the sink observes exactly
    /// one `injection` event per run.
    #[test]
    fn telemetry_sink_does_not_perturb_campaigns() {
        let quiet_golden = profile_golden(&Toy).unwrap();
        let cfg = CampaignConfig::new(RegClass::Gpr, 80).seed(13).threads(2);
        let quiet = run_campaign(&Toy, &quiet_golden, &cfg);

        let sink = std::sync::Arc::new(vs_telemetry::MemorySink::new());
        let observed = {
            let _g = vs_telemetry::install(sink.clone());
            let golden = profile_golden(&Toy).unwrap();
            assert_eq!(golden.profile, quiet_golden.profile);
            assert_eq!(golden.output, quiet_golden.output);
            run_campaign(&Toy, &golden, &cfg)
        };

        let a: Vec<_> = quiet.iter().map(|r| (r.spec, r.outcome, r.fired)).collect();
        let b: Vec<_> = observed
            .iter()
            .map(|r| (r.spec, r.outcome, r.fired))
            .collect();
        assert_eq!(a, b, "telemetry must not change campaign results");

        assert_eq!(sink.count("golden_profile"), 1);
        assert_eq!(sink.count("campaign_start"), 1);
        assert_eq!(sink.count("injection"), cfg.injections());
        assert_eq!(sink.count("campaign_done"), 1);
        assert!(sink.count("campaign_progress") >= 1);
        // The injection events report the same outcomes, in index order
        // once sorted (workers interleave arbitrarily).
        let mut seen: Vec<(u64, String)> = sink
            .events()
            .iter()
            .filter(|e| e.name == "injection")
            .map(|e| {
                (
                    e.u64("index").unwrap(),
                    e.str("outcome").unwrap().to_string(),
                )
            })
            .collect();
        seen.sort();
        for (i, (idx, outcome)) in seen.iter().enumerate() {
            assert_eq!(*idx, i as u64);
            assert_eq!(outcome, quiet[i].outcome.name());
        }
    }

    /// Same invariant for the checkpointed driver, including the final
    /// rates snapshot carrying Wilson bounds that bracket the rates.
    #[test]
    fn telemetry_sink_does_not_perturb_checkpointed_campaigns() {
        let quiet_ck =
            profile_golden_checkpointed(&Toy, CheckpointPolicy::EveryKFrames(9)).unwrap();
        let cfg = CampaignConfig::new(RegClass::Gpr, 60)
            .seed(29)
            .threads(4)
            .checkpoint_policy(CheckpointPolicy::EveryKFrames(9));
        let quiet = run_campaign_checkpointed(&Toy, &quiet_ck, &cfg);

        let sink = std::sync::Arc::new(vs_telemetry::MemorySink::new());
        let observed = {
            let _g = vs_telemetry::install(sink.clone());
            let ck = profile_golden_checkpointed(&Toy, CheckpointPolicy::EveryKFrames(9)).unwrap();
            assert_eq!(ck.golden.profile, quiet_ck.golden.profile);
            run_campaign_checkpointed(&Toy, &ck, &cfg)
        };

        let a: Vec<_> = quiet.iter().map(|r| (r.spec, r.outcome, r.fired)).collect();
        let b: Vec<_> = observed
            .iter()
            .map(|r| (r.spec, r.outcome, r.fired))
            .collect();
        assert_eq!(a, b);

        assert_eq!(sink.count("injection"), cfg.injections());
        let events = sink.events();
        let start = events
            .iter()
            .find(|e| e.name == "campaign_start")
            .expect("campaign_start emitted");
        assert_eq!(start.u64("checkpoints"), Some(7), "64 iterations / 9");
        assert_eq!(start.u64("ckpt_interval"), Some(9));
        let done = events
            .iter()
            .find(|e| e.name == "campaign_done")
            .expect("campaign_done emitted");
        assert_eq!(done.u64("done"), Some(60));
        let rates = crate::stats::outcome_rates(&quiet);
        assert_eq!(done.f64("masked"), Some(rates.masked));
        let (lo, hi) = rates.wilson_interval(crate::stats::OutcomeClass::Masked);
        assert_eq!(done.f64("masked_lo"), Some(lo));
        assert_eq!(done.f64("masked_hi"), Some(hi));
        assert!(lo <= rates.masked && rates.masked <= hi);
    }

    /// Forensics must be zero-perturbation: campaigns against a
    /// forensic golden classify every injection exactly like plain
    /// campaigns, and only completed runs carry forensic payloads.
    #[test]
    fn forensics_does_not_perturb_campaigns() {
        let plain = profile_golden(&Toy).unwrap();
        let forensic = profile_golden_forensic(&Toy).unwrap();
        assert_eq!(plain.profile, forensic.profile);
        assert_eq!(plain.output, forensic.output);
        let trace = forensic.digests.expect("forensic profile records digests");
        assert_eq!(trace.count(Stage::Match), 64);
        assert_eq!(trace.count(Stage::Summary), 1);

        for class in [RegClass::Gpr, RegClass::Fpr] {
            let cfg = CampaignConfig::new(class, 120).seed(17).threads(2);
            let quiet = run_campaign(&Toy, &plain, &cfg);
            let traced = run_campaign(&Toy, &forensic, &cfg);
            let a: Vec<_> = quiet.iter().map(|r| (r.spec, r.outcome, r.fired)).collect();
            let b: Vec<_> = traced
                .iter()
                .map(|r| (r.spec, r.outcome, r.fired))
                .collect();
            assert_eq!(a, b, "forensics perturbed a {class} campaign");
            assert!(quiet.iter().all(|r| r.forensics.is_none()));
            for r in &traced {
                match r.outcome {
                    Outcome::Masked | Outcome::Sdc => assert!(r.forensics.is_some()),
                    _ => assert!(r.forensics.is_none()),
                }
            }
        }
    }

    /// Attribution resolves stages: every SDC's trace diverges
    /// somewhere, and Toy's masked runs never diverge (its integer
    /// state is cumulative — corruption either reaches the output or
    /// never crossed a stage boundary), so they attribute through the
    /// fired fault's function.
    #[test]
    fn forensic_attribution_resolves_stages() {
        let golden = profile_golden_forensic(&Toy).unwrap();
        let cfg = CampaignConfig::new(RegClass::Gpr, 300).seed(3).threads(2);
        let recs = run_campaign(&Toy, &golden, &cfg);
        let mut sdcs = 0;
        for r in &recs {
            match r.outcome {
                Outcome::Sdc => {
                    sdcs += 1;
                    let f = r.forensics.as_ref().unwrap();
                    assert!(
                        f.attribution.first_divergence.is_some(),
                        "SDC with no digest divergence at index {}",
                        r.index
                    );
                    assert!(f.attribution.depth >= 1);
                }
                Outcome::Masked => {
                    let f = r.forensics.as_ref().unwrap();
                    assert_eq!(f.attribution.first_divergence, None);
                    assert_eq!(f.attribution.depth, 0);
                }
                _ => {}
            }
        }
        assert!(sdcs > 0, "campaign produced no SDCs to attribute");
        let matrix = forensics::PropagationMatrix::from_records(&recs);
        assert_eq!(matrix.n(), recs.len());
    }

    /// Fast-forwarded forensic runs must fold the *same* digest traces
    /// as from-scratch runs: the checkpoint's seeded prefix trace plus
    /// the replayed suffix reproduces the full fold exactly.
    #[test]
    fn forensic_checkpointed_campaign_matches_scratch_traces() {
        let golden = profile_golden_forensic(&Toy).unwrap();
        let ck =
            profile_golden_checkpointed_forensic(&Toy, CheckpointPolicy::EveryKFrames(7)).unwrap();
        assert_eq!(
            ck.golden.digests, golden.digests,
            "capturing profile must fold the same digests"
        );
        for class in [RegClass::Gpr, RegClass::Fpr] {
            let scratch = run_campaign(
                &Toy,
                &golden,
                &CampaignConfig::new(class, 150).seed(21).threads(2),
            );
            for threads in [1, 4] {
                let cfg = CampaignConfig::new(class, 150)
                    .seed(21)
                    .threads(threads)
                    .checkpoint_policy(CheckpointPolicy::EveryKFrames(7));
                let fast = run_campaign_checkpointed(&Toy, &ck, &cfg);
                assert_eq!(scratch.len(), fast.len());
                for (a, b) in scratch.iter().zip(&fast) {
                    assert_eq!((a.spec, a.outcome, a.fired), (b.spec, b.outcome, b.fired));
                    assert_eq!(
                        a.forensics, b.forensics,
                        "digest trace not resume-exact at index {} ({class}, {threads} threads)",
                        a.index
                    );
                }
            }
        }
    }

    /// Forensic campaigns annotate their injection telemetry with
    /// attribution fields; SDC events must be stage-resolved.
    #[test]
    fn forensic_campaign_telemetry_carries_attribution() {
        let sink = std::sync::Arc::new(vs_telemetry::MemorySink::new());
        let _g = vs_telemetry::install(sink.clone());
        let golden = profile_golden_forensic(&Toy).unwrap();
        let cfg = CampaignConfig::new(RegClass::Gpr, 80).seed(13).threads(2);
        let _recs = run_campaign(&Toy, &golden, &cfg);
        assert_eq!(sink.count("forensics_golden"), 1);
        let events = sink.events();
        let injections: Vec<_> = events.iter().filter(|e| e.name == "injection").collect();
        assert_eq!(injections.len(), cfg.injections());
        for e in injections {
            let attr = e
                .str("attr_stage")
                .expect("forensic injection events carry attr_stage");
            if e.str("outcome") == Some("sdc") {
                assert_ne!(attr, "unknown", "SDC must be stage-resolved");
                assert!(e.u64("depth").unwrap() >= 1);
            }
        }
    }

    /// Zero-perturbation for the metrics layer, mirroring the telemetry
    /// and forensics invariants: an installed registry must leave
    /// golden profiles, draws, fired faults and outcomes bit-identical.
    #[test]
    fn metrics_registry_does_not_perturb_campaigns() {
        let ck = profile_golden_checkpointed(&Toy, CheckpointPolicy::EveryKFrames(9)).unwrap();
        let cfg = CampaignConfig::new(RegClass::Gpr, 80)
            .seed(41)
            .threads(2)
            .checkpoint_policy(CheckpointPolicy::EveryKFrames(9));
        let quiet = run_campaign_checkpointed(&Toy, &ck, &cfg);
        let reg = std::sync::Arc::new(metrics::MetricsRegistry::new());
        let profiled = {
            let _g = metrics::install(reg.clone());
            run_campaign_checkpointed(&Toy, &ck, &cfg)
        };
        let a: Vec<_> = quiet.iter().map(|r| (r.spec, r.outcome, r.fired)).collect();
        let b: Vec<_> = profiled
            .iter()
            .map(|r| (r.spec, r.outcome, r.fired))
            .collect();
        assert_eq!(a, b, "metrics must not change campaign results");
    }

    /// The phase histograms fully attribute the campaign: one `exec`
    /// sample per run, one `worker_wall` sample per worker, resume
    /// counters summing to the run count, and the top-level phase sums
    /// bounded by (and dominating) the worker wall time.
    #[test]
    fn metrics_registry_attributes_worker_time() {
        let ck = profile_golden_checkpointed(&Toy, CheckpointPolicy::EveryKFrames(7)).unwrap();
        let n = 60usize;
        let threads = 2usize;
        let cfg = CampaignConfig::new(RegClass::Gpr, n)
            .seed(21)
            .threads(threads)
            .checkpoint_policy(CheckpointPolicy::EveryKFrames(7));
        let reg = std::sync::Arc::new(metrics::MetricsRegistry::new());
        {
            let _g = metrics::install(reg.clone());
            run_campaign_checkpointed(&Toy, &ck, &cfg);
        }
        let merged = reg.merged();
        for name in [
            phase::DRAW,
            phase::SETUP,
            phase::EXEC,
            phase::TEARDOWN,
            phase::CLASSIFY,
        ] {
            let h = merged
                .histogram(name)
                .unwrap_or_else(|| panic!("{name} histogram missing"));
            assert_eq!(h.count(), n as u64, "{name} samples");
        }
        let wall = merged.histogram(phase::WORKER_WALL).expect("worker_wall");
        assert_eq!(wall.count(), threads as u64);
        assert_eq!(
            merged.counter(phase::RUNS_RESUMED) + merged.counter(phase::RUNS_FROM_SCRATCH),
            n as u64
        );
        // Attribution: named phases nest inside the stripe wall.
        let attributed: u64 = phase::TOP
            .iter()
            .filter_map(|p| merged.histogram(p))
            .map(|h| h.sum())
            .sum();
        assert!(attributed > 0);
        assert!(
            attributed <= wall.sum(),
            "phases cannot exceed the wall they nest in"
        );
        // The driver deposits scatter time under id `threads`.
        let per = reg.per_worker();
        assert_eq!(per.len(), threads + 1);
        assert_eq!(per[threads].0, threads);
        assert!(per[threads].1.histogram(phase::COLLECT).is_some());
    }

    #[test]
    fn corrupted_loop_bounds_hang() {
        let g = profile_golden(&Spinner).unwrap();
        // Flip a high bit of the single control tap: guaranteed huge bound.
        let spec = FaultSpec::new(RegClass::Gpr, 0, 40);
        let step = Step {
            golden: &g,
            group: None,
            budget: g.profile.instr.total * 16 + 1000,
            keep_sdc: true,
            digests: None,
        };
        let rec = step.run(&Fresh(&Spinner), spec, 0, None, &mut None);
        assert_eq!(rec.outcome, Outcome::Hang);
    }
}
