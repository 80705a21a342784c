//! Per-layer replay of a golden run.
//!
//! The replay calls each crate's public entry point on the same frames,
//! configuration and golden alignments the pipeline used, and times
//! every call from outside: decode (`vs-image`), ORB and its FAST /
//! orientation / blur / BRIEF steps (`vs-features`), matching
//! (`vs-matching`), RANSAC (`vs-geometry`) and composite / crop
//! (`vs-warp`). Its panoramas must equal the golden ones, and its
//! homography / affine decisions the golden counters, so the replay is
//! checked to do the pipeline's work and no other.

use std::collections::BTreeSet;
use std::time::Instant;
use vs_core::{drop_frame, Approximation, PipelineConfig, Summary};
use vs_features::fast::{self, FastConfig, FastScratch};
use vs_features::{brief, orientation, Descriptor, Feature, KeyPoint, Orb, OrbScratch};
use vs_geometry::ransac::{self, RansacConfig, RansacScratch};
use vs_geometry::transform::{transformed_bounds, Bounds};
use vs_image::{GrayImage, RgbImage};
use vs_linalg::Vec2;
use vs_matching::{Match, RatioMatcher, SimpleMatcher};
use vs_warp::{Canvas, WarpScratch};

/// Summed layer times (ns) and counts over one or more replayed runs.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub decode_ns: u64,
    pub orb_ns: u64,
    pub pyramid_ns: u64,
    pub fast_ns: u64,
    pub orient_ns: u64,
    pub blur_ns: u64,
    pub brief_ns: u64,
    pub match_ns: u64,
    pub ransac_ns: u64,
    pub composite_ns: u64,
    pub crop_ns: u64,
    /// Frames through ORB.
    pub frames: u64,
    pub keypoints: u64,
    /// Query descriptors matched, and matches found.
    pub queries: u64,
    pub matches: u64,
    /// Correspondences given to RANSAC fits that succeeded, and their
    /// inliers.
    pub fit_pairs: u64,
    pub inliers: u64,
    /// Source pixels warped onto canvases.
    pub warped_px: u64,
}

impl Layers {
    /// Time of the layers that make up a golden run: decode, ORB,
    /// match, RANSAC, composite and crop (ORB's steps are inside ORB).
    pub fn run_ns(&self) -> u64 {
        self.decode_ns
            + self.orb_ns
            + self.match_ns
            + self.ransac_ns
            + self.composite_ns
            + self.crop_ns
    }
}

/// Reusable buffers of the replay, so it allocates as little as the
/// pipeline's own workspace does.
#[derive(Default)]
pub struct Replay {
    gray: GrayImage,
    orb: OrbScratch,
    features: Vec<Feature>,
    prev: Vec<Feature>,
    descs: Vec<Descriptor>,
    prev_descs: Vec<Descriptor>,
    query: Vec<Descriptor>,
    matches: Vec<Match>,
    pairs: Vec<(Vec2, Vec2)>,
    ransac: RansacScratch,
    levels: Vec<GrayImage>,
    fast: FastScratch,
    kps: Vec<KeyPoint>,
    blur_tmp: GrayImage,
    smoothed: GrayImage,
    split_descs: Vec<Descriptor>,
    canvas: Canvas,
    warp: WarpScratch,
    pano: RgbImage,
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

impl Replay {
    /// Replay one golden run into `acc`. Errors name the first point
    /// where the replay and the golden run disagree.
    pub fn run(
        &mut self,
        frames: &[RgbImage],
        cfg: &PipelineConfig,
        golden: &Summary,
        acc: &mut Layers,
    ) -> Result<(), String> {
        let accepted: BTreeSet<usize> = golden.alignments.iter().map(|a| a.frame).collect();
        let orb = Orb::new(cfg.orb.clone());
        let keep = match cfg.approximation {
            Approximation::Kds { keep_divisor } => keep_divisor.max(1),
            _ => 1,
        };
        let (mut homographies, mut affines) = (0u64, 0u64);
        let mut have_prev = false;
        for (i, frame) in frames.iter().enumerate() {
            if let Approximation::Rfd { drop_rate } = cfg.approximation {
                if drop_frame(cfg.seed, i, drop_rate) {
                    continue;
                }
            }
            let t = Instant::now();
            frame.to_gray_into(&mut self.gray);
            acc.decode_ns += ns(t);

            let t = Instant::now();
            orb.detect_and_describe_into(&self.gray, &mut self.orb, &mut self.features)
                .map_err(|e| format!("frame {i}: ORB failed: {e:?}"))?;
            acc.orb_ns += ns(t);
            acc.frames += 1;
            acc.keypoints += self.features.len() as u64;
            self.orb_steps(&cfg.orb, acc)
                .map_err(|e| format!("frame {i}: {e}"))?;

            self.descs.clear();
            self.descs
                .extend(self.features.iter().map(|f| f.descriptor));
            if have_prev {
                self.query.clear();
                self.query.extend(self.descs.iter().step_by(keep).copied());
                let t = Instant::now();
                let r = match cfg.approximation {
                    Approximation::Sm { max_distance } => SimpleMatcher { max_distance }
                        .matches_into(&self.query, &self.prev_descs, &mut self.matches),
                    _ => RatioMatcher {
                        ratio: cfg.match_ratio,
                    }
                    .matches_into(
                        &self.query,
                        &self.prev_descs,
                        &mut self.matches,
                    ),
                };
                acc.match_ns += ns(t);
                r.map_err(|e| format!("frame {i}: matching failed: {e:?}"))?;
                acc.queries += self.query.len() as u64;
                acc.matches += self.matches.len() as u64;
                self.pairs.clear();
                self.pairs.extend(self.matches.iter().map(|m| {
                    let q = &self.features[m.query * keep].keypoint;
                    let t = &self.prev[m.train].keypoint;
                    (Vec2::new(q.x, q.y), Vec2::new(t.x, t.y))
                }));
                match self.fit(cfg, i, acc)? {
                    Some(true) => homographies += 1,
                    Some(false) => affines += 1,
                    None => {}
                }
            }
            if accepted.contains(&i) {
                std::mem::swap(&mut self.features, &mut self.prev);
                std::mem::swap(&mut self.descs, &mut self.prev_descs);
                have_prev = true;
            }
        }
        if (homographies, affines)
            != (
                golden.stats.homographies as u64,
                golden.stats.affine_fallbacks as u64,
            )
        {
            return Err(format!(
                "replay fitted {homographies} homographies / {affines} affines, golden run {} / {}",
                golden.stats.homographies, golden.stats.affine_fallbacks
            ));
        }
        self.render(frames, cfg, golden, acc)
    }

    /// The ORB steps one by one on the frame just described: pyramid,
    /// then per level FAST, orientation, blur and BRIEF. Keypoint and
    /// descriptor output must equal ORB's own.
    fn orb_steps(&mut self, cfg: &vs_features::OrbConfig, acc: &mut Layers) -> Result<(), String> {
        let mut n_levels = 1usize;
        let t = Instant::now();
        while n_levels < cfg.levels.max(1) {
            let prev = if n_levels == 1 {
                &self.gray
            } else {
                &self.levels[n_levels - 2]
            };
            if prev.width() / 2 < cfg.min_level_size || prev.height() / 2 < cfg.min_level_size {
                break;
            }
            if self.levels.len() < n_levels {
                self.levels.push(GrayImage::default());
            }
            let (built, rest) = self.levels.split_at_mut(n_levels - 1);
            let src = if n_levels == 1 {
                &self.gray
            } else {
                &built[n_levels - 2]
            };
            vs_image::downsample_half_into(src, &mut rest[0]);
            n_levels += 1;
        }
        acc.pyramid_ns += ns(t);
        let per_level = cfg.max_features / n_levels;
        let fast_cfg = FastConfig {
            threshold: cfg.fast_threshold,
            max_keypoints: per_level.max(8),
            ..FastConfig::default()
        };
        let mut k = 0usize;
        for level in 0..n_levels {
            let img = if level == 0 {
                &self.gray
            } else {
                &self.levels[level - 1]
            };
            let t = Instant::now();
            let r = fast::detect_into(img, &fast_cfg, &mut self.fast, &mut self.kps);
            acc.fast_ns += ns(t);
            r.map_err(|e| format!("FAST failed: {e:?}"))?;
            let t = Instant::now();
            let r = orientation::assign_orientations_mut(img, &mut self.kps);
            acc.orient_ns += ns(t);
            r.map_err(|e| format!("orientation failed: {e:?}"))?;
            let t = Instant::now();
            vs_image::gaussian_blur_5x5_into(img, &mut self.blur_tmp, &mut self.smoothed);
            acc.blur_ns += ns(t);
            let t = Instant::now();
            let r = brief::describe_into(&self.smoothed, &self.kps, &mut self.split_descs);
            acc.brief_ns += ns(t);
            r.map_err(|e| format!("BRIEF failed: {e:?}"))?;
            let same = self.split_descs.iter().enumerate().all(|(j, d)| {
                self.features
                    .get(k + j)
                    .is_some_and(|f| f.descriptor == *d && f.keypoint.angle == self.kps[j].angle)
            });
            if !same {
                return Err(format!("ORB step replay differs from ORB at level {level}"));
            }
            k += self.split_descs.len();
        }
        if k != self.features.len() {
            return Err(format!(
                "ORB step replay found {k} keypoints, ORB {}",
                self.features.len()
            ));
        }
        Ok(())
    }

    /// The pipeline's model choice for frame `i`: homography
    /// (`Some(true)`), affine fallback (`Some(false)`) or discard.
    fn fit(
        &mut self,
        cfg: &PipelineConfig,
        i: usize,
        acc: &mut Layers,
    ) -> Result<Option<bool>, String> {
        let seed = cfg.seed.wrapping_add((i as u64).wrapping_mul(0x9e37_79b9));
        let n = self.pairs.len();
        let mut fitted = None;
        let t = Instant::now();
        if n >= cfg.min_matches_homography {
            let r = ransac::estimate_homography_scratch(
                &self.pairs,
                &cfg.ransac,
                seed,
                &mut self.ransac,
            );
            if r.map_err(|e| format!("frame {i}: RANSAC failed: {e:?}"))?
                .is_some()
            {
                fitted = Some(true);
            }
        }
        if fitted.is_none() && n >= cfg.min_matches_affine {
            let affine_cfg = RansacConfig {
                min_inliers: cfg.min_matches_affine.max(4),
                ..cfg.ransac
            };
            let r = ransac::estimate_affine_scratch(
                &self.pairs,
                &affine_cfg,
                seed ^ 0xaff1,
                &mut self.ransac,
            );
            if r.map_err(|e| format!("frame {i}: affine RANSAC failed: {e:?}"))?
                .is_some()
            {
                fitted = Some(false);
            }
        }
        acc.ransac_ns += ns(t);
        if fitted.is_some() {
            acc.fit_pairs += n as u64;
            acc.inliers += self.ransac.inliers().len() as u64;
        }
        Ok(fitted)
    }

    /// Composite every segment's frames at their golden alignments and
    /// crop, checking each panorama against the golden one.
    fn render(
        &mut self,
        frames: &[RgbImage],
        cfg: &PipelineConfig,
        golden: &Summary,
        acc: &mut Layers,
    ) -> Result<(), String> {
        for (si, want) in golden.panoramas.iter().enumerate() {
            let seg: Vec<_> = golden
                .alignments
                .iter()
                .filter(|a| a.segment == si)
                .collect();
            let mut bounds: Option<Bounds> = None;
            for a in &seg {
                let f = &frames[a.frame];
                let b = transformed_bounds(&a.h_to_anchor, f.width(), f.height())
                    .ok_or_else(|| format!("segment {si}: degenerate alignment"))?;
                bounds = Some(bounds.map_or(b, |u| u.union(&b)));
            }
            let bounds = bounds.ok_or_else(|| format!("segment {si} is empty"))?;
            self.canvas
                .reset(&bounds)
                .map_err(|e| format!("segment {si}: canvas reset failed: {e:?}"))?;
            for a in &seg {
                let f = &frames[a.frame];
                let t = Instant::now();
                let r = self.canvas.composite_scratch(
                    f,
                    &a.h_to_anchor,
                    &cfg.compositing,
                    &mut self.warp,
                );
                acc.composite_ns += ns(t);
                r.map_err(|e| format!("composite failed: {e:?}"))?;
                acc.warped_px += (f.width() * f.height()) as u64;
            }
            let t = Instant::now();
            let origin = self.canvas.crop_to_content_into(&mut self.pano);
            acc.crop_ns += ns(t);
            if origin.is_none() || self.pano != *want {
                return Err(format!(
                    "replayed panorama {si} differs from the golden one"
                ));
            }
        }
        Ok(())
    }
}
