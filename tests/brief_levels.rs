//! BRIEF's dispatch levels are invisible to fault campaigns. With the
//! process pinned at each level this host can run (`VS_SIMD`, which
//! `brief::describe_into` follows like every other dispatched kernel),
//! a small GPR and a small FPR campaign on the standard `VsWorkload`
//! must produce the same golden output, the same (spec, outcome, fired)
//! records and the same forensics `Orb` stage digests as at the scalar
//! oracle. The digests cover every keypoint angle and descriptor word
//! ORB emitted, in the golden run and in every completed injected run.
//!
//! The dispatch level is fixed once per process, so the test re-runs
//! its own binary once per level and compares what each child prints.

use std::process::Command;
use video_summarization::prelude::*;
use vs_core::workloads::VsWorkload;
use vs_fault::campaign::Injection;
use vs_fault::forensics::Stage;
use vs_fault::mix64;
use vs_image::SimdLevel;

/// Set in a child process: run the campaigns and print the fingerprint.
const CHILD_ENV: &str = "VS_BRIEF_LEVELS_CHILD";
/// Marker before each fingerprint line a child prints.
const TAG: &str = "brief-levels:";
const TEST_NAME: &str = "campaigns_are_identical_with_brief_pinned_at_every_level";

fn workload() -> VsWorkload {
    experiments::vs_workload(InputId::Input2, Scale::Quick, Approximation::Baseline)
}

/// Everything a campaign's statistics and attribution are built from,
/// plus the `Orb` stage digest and record count of each completed run.
fn fingerprint(recs: &[Injection<Vec<RgbImage>>]) -> Vec<String> {
    recs.iter()
        .map(|r| {
            let orb = r
                .forensics
                .as_ref()
                .map(|f| (f.trace.digest(Stage::Orb), f.trace.count(Stage::Orb)));
            format!("{} {:?} {:?} {:?}", r.spec, r.outcome, r.fired, orb)
        })
        .collect()
}

/// The golden run and both campaigns at this process's dispatch level,
/// one line per fact.
fn campaign_lines() -> Vec<String> {
    let w = workload();
    let golden = campaign::profile_golden_forensic(&w).unwrap();
    let trace = golden
        .digests
        .as_ref()
        .expect("forensic golden records digests");
    assert!(trace.count(Stage::Orb) > 0, "no Orb digests recorded");
    let frames = golden.output.iter().fold(0u64, |h, img| {
        img.as_bytes()
            .iter()
            .fold(h, |h, &b| mix64(h ^ u64::from(b)))
    });
    let mut lines = vec![
        format!(
            "golden output {} frames, digest {frames:016x}",
            golden.output.len()
        ),
        format!("golden profile {:?}", golden.profile),
        format!(
            "golden Orb digest {:016x} over {} records",
            trace.digest(Stage::Orb),
            trace.count(Stage::Orb)
        ),
    ];
    for class in [RegClass::Gpr, RegClass::Fpr] {
        let cfg = CampaignConfig::new(class, 24).seed(0xB41E).threads(2);
        let recs = campaign::run_campaign(&w, &golden, &cfg);
        assert!(
            recs.iter().any(|r| r.forensics.is_some()),
            "{class:?} campaign completed no run"
        );
        lines.extend(
            fingerprint(&recs)
                .into_iter()
                .map(|l| format!("{class:?} {l}")),
        );
    }
    lines
}

/// Run this test in a child process pinned at `level` and collect the
/// fingerprint lines it prints.
fn child_lines(level: SimdLevel) -> Vec<String> {
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args([TEST_NAME, "--exact", "--nocapture", "--test-threads=1"])
        .env(CHILD_ENV, "1")
        .env("VS_SIMD", level.as_str())
        .output()
        .expect("re-run the test binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "child at level {level} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // libtest prints `test <name> ... ` without a newline before the
    // test's own output, so the first tag can sit mid-line.
    let lines: Vec<String> = stdout
        .lines()
        .filter_map(|l| l.split_once(TAG).map(|(_, fact)| fact.to_owned()))
        .collect();
    assert!(
        !lines.is_empty(),
        "child at level {level} printed no fingerprint"
    );
    lines
}

#[test]
fn campaigns_are_identical_with_brief_pinned_at_every_level() {
    if std::env::var_os(CHILD_ENV).is_some() {
        for line in campaign_lines() {
            println!("{TAG}{line}");
        }
        return;
    }
    let want = child_lines(SimdLevel::Scalar);
    for level in SimdLevel::ALL
        .into_iter()
        .filter(|&l| l != SimdLevel::Scalar && l.available())
    {
        let seen = child_lines(level);
        assert_eq!(
            seen.len(),
            want.len(),
            "fingerprint length differs at level {level}"
        );
        for (s, w) in seen.iter().zip(&want) {
            assert_eq!(s, w, "level {level} differs from the scalar oracle");
        }
    }
}
