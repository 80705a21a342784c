//! Rotation-steered BRIEF (rBRIEF) descriptors — ORB's descriptor half.
//!
//! Each keypoint gets a 256-bit binary string: bit *i* compares the
//! smoothed intensities of a fixed pair of offsets inside a ±[`PATCH`]
//! patch, with the pair pattern rotated by the keypoint's orientation.
//! The pattern itself is generated once, deterministically, from the
//! crate-fixed seed, so descriptors are comparable across runs and
//! processes.
//!
//! [`describe_into`] is a dispatched kernel: the original per-pair loop
//! is kept as the scalar oracle, and the Swar, Sse2 and Avx2 levels of
//! [`describe_into_level`] reproduce it bit-for-bit (see that function
//! for what each level does and which keypoints it takes).

use crate::keypoint::KeyPoint;
use std::sync::OnceLock;
use vs_fault::{mix64, tap, FuncId, OpClass, SimError};
use vs_image::{GrayImage, SimdLevel};

/// Half-width of the descriptor sampling patch.
pub const PATCH: i32 = 8;

/// Number of descriptor bits.
pub const BITS: usize = 256;

/// A 256-bit binary descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Descriptor(pub [u64; 4]);

impl Descriptor {
    /// XOR+popcount over one 128-bit half (`h` = 0 or 1) — the single
    /// shared core both [`Self::hamming`] and [`Self::hamming_bounded`]
    /// build on, so the two paths cannot drift apart.
    #[inline(always)]
    fn half_hamming(&self, other: &Descriptor, h: usize) -> u32 {
        (self.0[2 * h] ^ other.0[2 * h]).count_ones()
            + (self.0[2 * h + 1] ^ other.0[2 * h + 1]).count_ones()
    }

    /// Hamming distance to another descriptor (0..=256).
    #[inline]
    pub fn hamming(&self, other: &Descriptor) -> u32 {
        self.half_hamming(other, 0) + self.half_hamming(other, 1)
    }

    /// Hamming distance to `other` when it is strictly below `bound`,
    /// else `None` — abandoning the scan once per 128 bits, when the
    /// first half's popcount already reaches `bound`. Half-wise partial
    /// sums are monotone, so this is exact: `Some(d)` iff
    /// `self.hamming(other) < bound`, with `d` the true distance, and
    /// the matchers' `hamming_early_exits` telemetry (one per `None`)
    /// is unchanged from the word-wise scan it replaces.
    ///
    /// Brute-force matchers use this to skip most of each candidate's
    /// 256 bits once a closer neighbour is known.
    #[inline]
    pub fn hamming_bounded(&self, other: &Descriptor, bound: u32) -> Option<u32> {
        let lo = self.half_hamming(other, 0);
        if lo >= bound {
            return None;
        }
        let d = lo + self.half_hamming(other, 1);
        (d < bound).then_some(d)
    }

    /// Scalar reference oracle for [`Self::hamming`]: the original
    /// word-by-word iterator chain. Kept for the kernel equivalence
    /// harness and `kernel_bench`.
    pub fn hamming_scalar(&self, other: &Descriptor) -> u32 {
        self.0
            .iter()
            .zip(&other.0)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }

    /// Scalar reference oracle for [`Self::hamming_bounded`]: the
    /// original per-word early-exit scan. `Some`/`None` results agree
    /// with the 128-bit-granularity scan on every input because both
    /// return `Some(d)` exactly when the full distance is below `bound`.
    pub fn hamming_bounded_scalar(&self, other: &Descriptor, bound: u32) -> Option<u32> {
        let mut d = 0u32;
        for (a, b) in self.0.iter().zip(&other.0) {
            d += (a ^ b).count_ones();
            if d >= bound {
                return None;
            }
        }
        Some(d)
    }

    /// Number of set bits.
    pub fn popcount(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }
}

/// The fixed sampling pattern as a struct of arrays: test pair `i`
/// compares the intensity at `(x1[i], y1[i])` with `(x2[i], y2[i])`.
/// The layout lets the vector path load four consecutive pairs'
/// coordinates per register.
pub(crate) struct Pattern {
    pub(crate) x1: [f64; BITS],
    pub(crate) y1: [f64; BITS],
    pub(crate) x2: [f64; BITS],
    pub(crate) y2: [f64; BITS],
}

/// The fixed sampling pattern, generated deterministically.
fn pattern() -> &'static Pattern {
    static PATTERN: OnceLock<Pattern> = OnceLock::new();
    PATTERN.get_or_init(|| {
        let mut out = Pattern {
            x1: [0.0; BITS],
            y1: [0.0; BITS],
            x2: [0.0; BITS],
            y2: [0.0; BITS],
        };
        let range = (2 * PATCH + 1) as u64;
        let mut k = 0u64;
        let mut coord = |salt: u64| -> f64 {
            k += 1;
            (mix64(k ^ salt.wrapping_mul(0x9e3779b97f4a7c15)) % range) as f64 - PATCH as f64
        };
        for i in 0..BITS {
            let s = i as u64 + 1;
            out.x1[i] = coord(s);
            out.y1[i] = coord(s ^ 0xa5a5);
            out.x2[i] = coord(s ^ 0x5a5a);
            out.y2[i] = coord(s ^ 0xc3c3);
        }
        out
    })
}

/// Distance from a keypoint to the edge of every sample it can reach:
/// a rotated offset is at most `PATCH·√2 ≈ 11.32` px from the centre,
/// so every rounded sample of a keypoint at least this far inside the
/// image is itself inside.
const REACH: f64 = 12.0;

/// Largest keypoint coordinate magnitude the fast levels accept. Below
/// it every rotated sample coordinate is finite, truncates exactly to
/// an `i32`, and its fractional part is exact.
const FAST_COORD_LIMIT: f64 = 1e9;

/// Describe each keypoint with a rotation-steered BRIEF descriptor over
/// the (pre-smoothed) image.
///
/// Callers should pass a Gaussian-smoothed image, as ORB does, to make
/// single-pixel comparisons robust to noise.
///
/// Instrumentation: each finished descriptor word flows through a data
/// tap (a corrupted word yields spurious matches/mismatches downstream),
/// and per-keypoint work feeds the hang monitor.
///
/// # Errors
///
/// Propagates hang-budget exhaustion.
pub fn describe(smoothed: &GrayImage, keypoints: &[KeyPoint]) -> Result<Vec<Descriptor>, SimError> {
    let mut out = Vec::with_capacity(keypoints.len());
    describe_into(smoothed, keypoints, &mut out)?;
    Ok(out)
}

/// [`describe`] into a caller-owned vector (cleared first), reusing its
/// allocation, at the process dispatch level
/// ([`vs_image::dispatch::level`], which `VS_SIMD` pins). Tap stream
/// and descriptors are bit-identical at every level.
///
/// # Errors
///
/// Propagates hang-budget exhaustion.
pub fn describe_into(
    smoothed: &GrayImage,
    keypoints: &[KeyPoint],
    out: &mut Vec<Descriptor>,
) -> Result<(), SimError> {
    describe_into_level(smoothed, keypoints, out, vs_image::dispatch::level())
}

/// [`describe_into`] at an explicit [`SimdLevel`].
///
/// - `Scalar` is the original per-pair loop (libm `round`,
///   `get_clamped` per sample) and the proof oracle.
/// - `Swar` rounds half away from zero exactly without libm and indexes
///   the image directly, with no clamp, for keypoints at least 12 px
///   inside the image; border keypoints clamp in `i64`.
/// - `Avx2` rotates four test pairs per step and clamps in the integer
///   domain, so border keypoints take the vector path too.
/// - `Sse2` is the two-lane version of `Avx2`.
///
/// Each sample keeps the oracle's floating-point operation order,
/// `(cx + x·cos) − y·sin` and `(cy + x·sin) + y·cos`, with separate
/// multiplies and adds. The fast levels take a keypoint only when its
/// `sin`/`cos` are finite and `|cx|, |cy| < 1e9`, and
/// only on a non-empty image; any other keypoint (NaN, infinite or huge
/// angles and coordinates, as fault-corrupted orientations produce)
/// runs the scalar loop, which also keeps the empty-image panic of
/// `get_clamped`. The per-pair loop has no taps; the three work taps
/// per keypoint and the address/data taps per stored word are shared
/// by every level, so the fault stream is level-independent.
///
/// # Errors
///
/// Propagates hang-budget exhaustion.
///
/// # Panics
///
/// Panics when `level` is `Avx2` on a host without AVX2, or when the
/// image is empty and `keypoints` is not.
pub fn describe_into_level(
    smoothed: &GrayImage,
    keypoints: &[KeyPoint],
    out: &mut Vec<Descriptor>,
    level: SimdLevel,
) -> Result<(), SimError> {
    assert!(
        level != SimdLevel::Avx2 || SimdLevel::Avx2.available(),
        "BRIEF avx2 level requires AVX2"
    );
    let _f = tap::scope(FuncId::OrbDescribe);
    let pat = pattern();
    out.clear();
    for kp in keypoints {
        tap::work(OpClass::Mem, 2 * BITS as u64)?;
        tap::work(OpClass::IntAlu, 4 * BITS as u64)?;
        tap::work(OpClass::Float, 4 * BITS as u64)?;
        let words = describe_words(smoothed, pat, kp, level);
        // Store the descriptor through tapped index and data registers:
        // a corrupted store index escapes the descriptor buffer (the
        // address-fault crash surface), a corrupted data word silently
        // perturbs matching downstream.
        let mut stored = [0u64; 4];
        for (w_i, word) in words.into_iter().enumerate() {
            let wi = tap::addr(w_i);
            *stored.get_mut(wi).ok_or(SimError::Segfault)? = tap::gpr(word);
        }
        out.push(Descriptor(stored));
    }
    Ok(())
}

/// The 256 test bits of one keypoint at `level`.
#[inline]
fn describe_words(img: &GrayImage, pat: &Pattern, kp: &KeyPoint, level: SimdLevel) -> [u64; 4] {
    let (sin, cos) = kp.angle.sin_cos();
    let (cx, cy) = (kp.x, kp.y);
    let fast = level != SimdLevel::Scalar
        && !img.is_empty()
        && sin.is_finite()
        && cos.is_finite()
        && cx.abs() < FAST_COORD_LIMIT
        && cy.abs() < FAST_COORD_LIMIT;
    if !fast {
        return words_scalar(img, pat, cx, cy, sin, cos);
    }
    #[cfg(target_arch = "x86_64")]
    match level {
        SimdLevel::Avx2 => return crate::simd::brief_words_avx2(img, pat, cx, cy, sin, cos),
        SimdLevel::Sse2 => return crate::simd::brief_words_sse2(img, pat, cx, cy, sin, cos),
        _ => {}
    }
    let (data, w, h) = (img.as_bytes(), img.width(), img.height());
    let (wf, hf) = (w as f64, h as f64);
    if cx >= REACH && cy >= REACH && cx + REACH <= wf - 1.0 && cy + REACH <= hf - 1.0 {
        // Every sample of an interior keypoint is in bounds: no clamp.
        words_swar(pat, cx, cy, sin, cos, |(x, y)| {
            data[y as usize * w + x as usize]
        })
    } else {
        // Border keypoints: the `get_clamped` clamp, in `i64`.
        let (xmax, ymax) = (w as i64 - 1, h as i64 - 1);
        words_swar(pat, cx, cy, sin, cos, |(x, y)| {
            data[y.clamp(0, ymax) as usize * w + x.clamp(0, xmax) as usize]
        })
    }
}

/// The scalar oracle's per-pair loop: libm `round`, saturating casts
/// and `get_clamped` per sample.
fn words_scalar(img: &GrayImage, pat: &Pattern, cx: f64, cy: f64, sin: f64, cos: f64) -> [u64; 4] {
    let mut words = [0u64; 4];
    for i in 0..BITS {
        // Rotate both sample offsets by the keypoint orientation.
        let r1x = cx + pat.x1[i] * cos - pat.y1[i] * sin;
        let r1y = cy + pat.x1[i] * sin + pat.y1[i] * cos;
        let r2x = cx + pat.x2[i] * cos - pat.y2[i] * sin;
        let r2y = cy + pat.x2[i] * sin + pat.y2[i] * cos;
        let a = img.get_clamped(r1x.round() as isize, r1y.round() as isize);
        let b = img.get_clamped(r2x.round() as isize, r2y.round() as isize);
        if a < b {
            words[i / 64] |= 1u64 << (i % 64);
        }
    }
    words
}

/// `v.round()` (half away from zero) without libm, exact for
/// `|v| < 2^53`: truncate, then step by the sign of an exact
/// fractional part of magnitude ≥ ½.
#[inline(always)]
fn round_half_away(v: f64) -> i64 {
    let t = v as i64;
    let f = v - t as f64;
    t + (f >= 0.5) as i64 - (f <= -0.5) as i64
}

/// One rotated sample position, rounded, in the oracle's operation
/// order.
#[inline(always)]
fn sample(cx: f64, cy: f64, x: f64, y: f64, sin: f64, cos: f64) -> (i64, i64) {
    (
        round_half_away(cx + x * cos - y * sin),
        round_half_away(cy + x * sin + y * cos),
    )
}

/// The Swar level's 256 test bits, reading each rounded sample through
/// `at`.
#[inline(always)]
fn words_swar(
    pat: &Pattern,
    cx: f64,
    cy: f64,
    sin: f64,
    cos: f64,
    at: impl Fn((i64, i64)) -> u8,
) -> [u64; 4] {
    let mut words = [0u64; 4];
    for (k, word) in words.iter_mut().enumerate() {
        let mut bits = 0u64;
        for j in 0..64 {
            let i = 64 * k + j;
            let a = at(sample(cx, cy, pat.x1[i], pat.y1[i], sin, cos));
            let b = at(sample(cx, cy, pat.x2[i], pat.y2[i], sin, cos));
            bits |= ((a < b) as u64) << j;
        }
        *word = bits;
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_image::gaussian_blur_5x5;

    fn textured(seed: u64, w: usize, h: usize) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| {
            (mix64(seed ^ ((y * w + x) as u64)) % 256) as u8
        })
    }

    fn kp(x: usize, y: usize, angle: f64) -> KeyPoint {
        KeyPoint {
            x: x as f64,
            y: y as f64,
            response: 1.0,
            angle,
            level: 0,
        }
    }

    #[test]
    fn hamming_distance_basics() {
        let z = Descriptor::default();
        let mut one = Descriptor::default();
        one.0[0] = 1;
        assert_eq!(z.hamming(&z), 0);
        assert_eq!(z.hamming(&one), 1);
        let all = Descriptor([!0; 4]);
        assert_eq!(z.hamming(&all), 256);
        assert_eq!(all.popcount(), 256);
    }

    #[test]
    fn hamming_bounded_agrees_with_hamming() {
        // Deterministic random pairs at every interesting bound.
        let mut s = 0x5eedu64;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s
        };
        for _ in 0..200 {
            let a = Descriptor([next(), next(), next(), next()]);
            let b = Descriptor([next(), next(), next(), next()]);
            let d = a.hamming(&b);
            for bound in [0, 1, d.saturating_sub(1), d, d + 1, 256, u32::MAX] {
                let got = a.hamming_bounded(&b, bound);
                if d < bound {
                    assert_eq!(got, Some(d));
                } else {
                    assert_eq!(got, None);
                }
            }
        }
    }

    /// The shared-core hamming paths agree with the retained scalar
    /// oracles — distances, and Some/None plus early-exit behaviour at
    /// every bound — on random descriptor pairs.
    #[test]
    fn hamming_core_matches_scalar_oracles() {
        let mut rng = vs_rng::SplitMix64::new(0x4A3A_5EED);
        for trial in 0..2_000 {
            let a = Descriptor(std::array::from_fn(|_| rng.next_u64()));
            // Mix of far (independent) and near (few-bit-flip) pairs so
            // both sides of every bound comparison get exercised.
            let b = if trial % 2 == 0 {
                Descriptor(std::array::from_fn(|_| rng.next_u64()))
            } else {
                let mut b = a;
                for _ in 0..(trial % 7) {
                    let bit = rng.gen_range(0u32..256);
                    b.0[(bit / 64) as usize] ^= 1u64 << (bit % 64);
                }
                b
            };
            assert_eq!(a.hamming(&b), a.hamming_scalar(&b));
            let d = a.hamming(&b);
            for bound in [0, 1, d.saturating_sub(1), d, d + 1, 48, 256, u32::MAX] {
                assert_eq!(
                    a.hamming_bounded(&b, bound),
                    a.hamming_bounded_scalar(&b, bound),
                    "trial {trial} bound {bound} d {d}"
                );
            }
        }
    }

    #[test]
    fn identical_patches_give_identical_descriptors() {
        let img = gaussian_blur_5x5(&textured(7, 64, 64));
        let d = describe(&img, &[kp(30, 30, 0.0), kp(30, 30, 0.0)]).unwrap();
        assert_eq!(d[0], d[1]);
    }

    #[test]
    fn different_patches_give_distant_descriptors() {
        let img = gaussian_blur_5x5(&textured(7, 96, 96));
        let d = describe(&img, &[kp(20, 20, 0.0), kp(70, 70, 0.0)]).unwrap();
        // Random binary strings differ in ~128 bits; unrelated patches
        // should be far apart.
        assert!(d[0].hamming(&d[1]) > 60, "distance {}", d[0].hamming(&d[1]));
    }

    #[test]
    fn translation_of_whole_scene_preserves_descriptor() {
        let base = textured(42, 96, 96);
        let shifted = GrayImage::from_fn(96, 96, |x, y| {
            base.get_clamped(x as isize - 10, y as isize - 7)
        });
        let a = describe(&gaussian_blur_5x5(&base), &[kp(40, 40, 0.0)]).unwrap();
        let b = describe(&gaussian_blur_5x5(&shifted), &[kp(50, 47, 0.0)]).unwrap();
        let dist = a[0].hamming(&b[0]);
        assert!(dist <= 20, "translated patch too far: {dist}");
    }

    #[test]
    fn rotation_steering_compensates_patch_rotation() {
        // A patch and the same patch rotated 90°; descriptors computed
        // with the correct angles should be close.
        let base = gaussian_blur_5x5(&textured(99, 64, 64));
        let rotated = GrayImage::from_fn(64, 64, |x, y| {
            // Rotate the image by +90° about (32, 32): source = R^-1 p.
            let dx = x as f64 - 32.0;
            let dy = y as f64 - 32.0;
            base.get_clamped((32.0 + dy).round() as isize, (32.0 - dx).round() as isize)
        });
        let a = describe(&base, &[kp(32, 32, 0.0)]).unwrap();
        let b = describe(&rotated, &[kp(32, 32, std::f64::consts::FRAC_PI_2)]).unwrap();
        let steered = a[0].hamming(&b[0]);
        let unsteered = a[0].hamming(&describe(&rotated, &[kp(32, 32, 0.0)]).unwrap()[0]);
        assert!(
            steered < unsteered,
            "steering must help: steered={steered} unsteered={unsteered}"
        );
        assert!(steered <= 64, "steered distance too large: {steered}");
    }

    #[test]
    fn pattern_is_deterministic_and_in_patch() {
        let p1 = pattern();
        let p2 = pattern();
        for i in 0..BITS {
            assert_eq!(p1.x1[i], p2.x1[i]);
            for c in [p1.x1[i], p1.y1[i], p1.x2[i], p1.y2[i]] {
                assert!(c.abs() <= PATCH as f64);
            }
        }
        // Pairs must not all be identical (degenerate pattern).
        let distinct = (0..BITS)
            .filter(|&i| (p1.x1[i], p1.y1[i]) != (p1.x2[i], p1.y2[i]))
            .count();
        assert!(distinct > 250);
    }

    #[test]
    fn empty_keypoint_list_is_fine() {
        let img = textured(1, 32, 32);
        assert!(describe(&img, &[]).unwrap().is_empty());
    }

    fn fast_levels() -> Vec<SimdLevel> {
        SimdLevel::ALL
            .into_iter()
            .filter(|&l| l != SimdLevel::Scalar && l.available())
            .collect()
    }

    fn kpf(x: f64, y: f64, angle: f64) -> KeyPoint {
        KeyPoint {
            x,
            y,
            response: 1.0,
            angle,
            level: 0,
        }
    }

    /// Every fast level reproduces the scalar oracle's descriptors on
    /// `kps`, naming the first keypoint that differs.
    fn assert_levels_match_oracle(img: &GrayImage, kps: &[KeyPoint], what: &str) {
        let mut want = Vec::new();
        describe_into_level(img, kps, &mut want, SimdLevel::Scalar).unwrap();
        let mut got = Vec::new();
        for level in fast_levels() {
            describe_into_level(img, kps, &mut got, level).unwrap();
            assert_eq!(got.len(), want.len());
            if let Some(i) = (0..want.len()).find(|&i| got[i] != want[i]) {
                panic!("{what}: level {level} differs at {:?}", kps[i]);
            }
        }
    }

    /// Angles that stress the fast-path gate: signed zeros, NaN, the
    /// infinities, huge finite angles, subnormals and exact multiples
    /// of π/2 (where the rotated samples land on rounding ties).
    fn special_angles() -> Vec<f64> {
        use std::f64::consts::{FRAC_PI_2, PI};
        vec![
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
            -1e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            1e16,
            FRAC_PI_2,
            -FRAC_PI_2,
            PI,
            -PI,
            3.0 * FRAC_PI_2,
            2.0 * PI,
        ]
    }

    /// Level equality over a sweep of 65,536 angles across four turns
    /// plus the special angles, at interior, border and half-integer
    /// (rounding-tie) keypoint positions.
    #[test]
    fn levels_match_oracle_over_angle_sweep() {
        let img = gaussian_blur_5x5(&textured(0xB41EF, 120, 90));
        let positions = [
            (60.0, 45.0),
            (60.5, 44.5),
            (12.0, 12.0),
            (107.0, 77.0),
            (3.25, 86.75),
            (119.0, 0.0),
            (-0.5, 45.5),
        ];
        let n = 1usize << 16;
        let mut kps: Vec<KeyPoint> = (0..n)
            .map(|i| {
                let angle = (i as f64 / n as f64 - 0.5) * 8.0 * std::f64::consts::PI;
                let (x, y) = positions[i % positions.len()];
                kpf(x, y, angle)
            })
            .collect();
        for a in special_angles() {
            for &(x, y) in &positions {
                kps.push(kpf(x, y, a));
            }
        }
        assert_levels_match_oracle(&img, &kps, "angle sweep");
    }

    /// Whether a sample of the pattern would round differently if its
    /// rotation were summed in another order — `cx + (x·cos − y·sin)`
    /// instead of the oracle's `(cx + x·cos) − y·sin` — or with a fused
    /// multiply-add, and land inside a `w`×`h` image.
    fn order_sensitive_samples(kps: &[KeyPoint], w: f64, h: f64) -> usize {
        let pat = pattern();
        let mut n = 0;
        for kp in kps {
            let (sin, cos) = kp.angle.sin_cos();
            for (x, y) in (0..BITS).flat_map(|i| [(pat.x1[i], pat.y1[i]), (pat.x2[i], pat.y2[i])]) {
                let want = (kp.x + x * cos - y * sin).round();
                let regrouped = (kp.x + (x * cos - y * sin)).round();
                let fused = (-y).mul_add(sin, x.mul_add(cos, kp.x)).round();
                let want_y = (kp.y + x * sin + y * cos).round();
                let inside = (0.0..w).contains(&want) && (0.0..h).contains(&want_y);
                n += (inside && (regrouped != want || fused != want)) as usize;
            }
        }
        n
    }

    /// Rounding ties: half-integer keypoints at multiples of π/12 put
    /// many samples within an ulp of a `.5` boundary, where the order
    /// of the rotation's additions decides the pixel. The set must hold
    /// such samples (else it could not tell a reordered or fused
    /// rotation from the oracle's), and every level must match on it.
    #[test]
    fn levels_match_oracle_on_rounding_ties() {
        let img = gaussian_blur_5x5(&textured(0x71E5, 120, 90));
        let mut kps = Vec::new();
        for k in 0..24 {
            let angle = k as f64 * std::f64::consts::PI / 12.0;
            for xi in 0..240 {
                for cy in [0.5, 11.5, 44.5, 45.0, 77.5, 89.5] {
                    kps.push(kpf(xi as f64 * 0.5, cy, angle));
                }
            }
        }
        let sensitive = order_sensitive_samples(&kps, 120.0, 90.0);
        assert!(
            sensitive >= 1000,
            "only {sensitive} order-sensitive samples"
        );
        assert_levels_match_oracle(&img, &kps, "rounding ties");
    }

    /// Keypoints on every pixel of small images and a margin around
    /// them, at whole, half and quarter offsets, plus wild coordinates
    /// (±1e12, the 1e9 fast-path limit, NaN and the infinities).
    #[test]
    fn levels_match_oracle_on_every_pixel_of_small_images() {
        let wild = [
            1e12,
            -1e12,
            1e9,
            -1e9,
            999_999_999.5,
            -999_999_999.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        // 1x1, narrower and shorter than the patch, and the paper scale.
        for (w, h) in [(1usize, 1usize), (5, 40), (40, 5), (16, 16), (120, 90)] {
            let img = gaussian_blur_5x5(&textured((w * 1000 + h) as u64, w, h));
            let mut kps = Vec::new();
            let mut k = 0u32;
            for y in -14..h as i64 + 14 {
                for x in -14..w as i64 + 14 {
                    let frac = [0.0, 0.5, 0.25, -0.5][k as usize % 4];
                    let angle = k as f64 * 0.618_033_988_75;
                    kps.push(kpf(x as f64 + frac, y as f64 + frac, angle));
                    k += 1;
                }
            }
            for (i, &c) in wild.iter().enumerate() {
                let angle = i as f64 * 0.7;
                kps.push(kpf(c, h as f64 / 2.0, angle));
                kps.push(kpf(w as f64 / 2.0, c, angle));
                kps.push(kpf(c, c, angle));
            }
            assert_levels_match_oracle(&img, &kps, &format!("{w}x{h}"));
        }
    }

    /// HD scale: every pixel of the 16-px border bands (where the
    /// clamp decides samples) and a strided grid of the interior.
    #[test]
    fn levels_match_oracle_on_hd_image() {
        let (w, h) = (1280usize, 720usize);
        let img = gaussian_blur_5x5(&textured(0x1280, w, h));
        let mut kps = Vec::new();
        let mut k = 0u32;
        for y in -4..h as i64 + 4 {
            for x in -4..w as i64 + 4 {
                let band = x < 16 || y < 16 || x >= w as i64 - 16 || y >= h as i64 - 16;
                if band || (x % 23 == 0 && y % 19 == 0) {
                    let frac = [0.0, 0.5, -0.5][k as usize % 3];
                    kps.push(kpf(x as f64 + frac, y as f64, k as f64 * 2.399_963));
                    k += 1;
                }
            }
        }
        assert_levels_match_oracle(&img, &kps, "1280x720");
    }

    /// An empty image with keypoints panics at every level exactly as
    /// the oracle's `get_clamped` does; without keypoints it is fine.
    #[test]
    fn empty_image_panics_like_get_clamped_at_every_level() {
        for (w, h) in [(0usize, 0usize), (0, 5), (5, 0)] {
            let img = GrayImage::new(w, h);
            for level in SimdLevel::ALL.into_iter().filter(|l| l.available()) {
                let mut out = vec![Descriptor::default()];
                describe_into_level(&img, &[], &mut out, level).unwrap();
                assert!(out.is_empty());
                let err = std::panic::catch_unwind(|| {
                    let mut out = Vec::new();
                    let _ = describe_into_level(&img, &[kp(3, 3, 0.2)], &mut out, level);
                })
                .expect_err("empty image must panic");
                let msg = err
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| err.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                assert_eq!(msg, "get_clamped on empty image", "{w}x{h} level {level}");
            }
        }
    }

    /// The libm-free rounding equals `f64::round` (half away from zero)
    /// on ties, their neighbours and random values below 2^31.
    #[test]
    fn round_half_away_matches_libm_round() {
        let mut rng = vs_rng::SplitMix64::new(0x120D);
        let mut vals = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            1e9 + 0.5,
            -1e9 - 0.5,
        ];
        for k in -40i64..40 {
            let t = k as f64 + 0.5;
            vals.extend([t, t.next_up(), t.next_down(), k as f64]);
        }
        for _ in 0..100_000 {
            let v = (rng.next_u64() as f64 / u64::MAX as f64 - 0.5) * 4e9;
            vals.push(v);
            vals.push((v * 4.0).round() / 4.0);
        }
        for v in vals {
            assert_eq!(round_half_away(v), v.round() as i64, "v = {v:?}");
        }
    }
}
