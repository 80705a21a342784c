//! Explicit SSE2/AVX2 paths for the FAST-9 segment test and the rBRIEF
//! test-pair loop — the only `unsafe` code in the features crate.
//!
//! BRIEF's 256-pair loop runs between the per-keypoint work taps and
//! the per-word store taps, with no taps inside; the vector paths
//! rotate two (SSE2) or four (AVX2) pairs per step, round half away
//! from zero by truncating and stepping on the exact fraction, clamp in
//! the integer domain, and are proven bit-exact to the scalar oracle in
//! `brief`'s tests.
//!
//! Two pieces of FAST are vectorized, both *outside* the fault-tap
//! stream so the vector paths are campaign-safe at any dispatch level:
//!
//! * the per-row **compass quick-scan**: the scalar detector rejects a
//!   pixel without any taps when fewer than 2 of the 4 compass points
//!   (ring entries 0/4/8/12) clear the threshold. The vector scan
//!   computes that pass/fail bit for 16 (SSE2) or 32 (AVX2) consecutive
//!   centres at once; surviving candidates are then processed in
//!   ascending-x order, so the tap sequence is byte-identical to the
//!   scalar walk.
//! * the per-candidate **ring classify**: the 16 gathered ring bytes are
//!   classified against `c ± t` in one 128-bit comparison pair instead
//!   of four 4-lane SWAR words; the resulting bright/dark masks feed the
//!   same popcount pre-reject and [`crate::fast`] `has_arc16` scan.
//!
//! Threshold predicates avoid the saturating-add trap: `v ≥ c + t` is
//! evaluated as `sat(v - c) ≥ t` (exact for `t ≥ 1`; `adds_epu8(c, t)`
//! would saturate at 255 and misclassify `v = 255` centres), and `t = 0`
//! falls back to plain `v ≥ c` / `v < c` with the scalar classifier's
//! bright-wins priority. Unsigned `≥` is `cmpeq(max_epu8(a, b), a)` —
//! SSE2 has no unsigned compare. Proven against the scalar classifier
//! over the full (c, t, v) cube in the tests.
#![deny(unsafe_op_in_unsafe_fn)]

use crate::fast::{classify, has_arc16, ARC_LENGTH};

#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::brief::{Pattern, BITS};
    use std::arch::x86_64::*;

    /// Unsigned per-byte `a ≥ b`.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn ge_u8(a: __m128i, b: __m128i) -> __m128i {
        _mm_cmpeq_epi8(_mm_max_epu8(a, b), a)
    }

    /// Bright (`v ≥ c + t`) and dark (`v ≤ c − t`, bright wins) masks
    /// for 16 centres against 16 sample values.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn classify16(v: __m128i, c: __m128i, tv: __m128i, t_zero: bool) -> (__m128i, __m128i) {
        if t_zero {
            let bright = ge_u8(v, c);
            let dark = _mm_andnot_si128(bright, ge_u8(c, v));
            (bright, dark)
        } else {
            let bright = ge_u8(_mm_subs_epu8(v, c), tv);
            let dark = _mm_andnot_si128(bright, ge_u8(_mm_subs_epu8(c, v), tv));
            (bright, dark)
        }
    }

    /// "At least 2 of 4" over four 0/-1 byte masks: summing as i8 puts
    /// each lane in [-4, 0]; `< -1` means ≥ 2 masks were set.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn at_least2(m0: __m128i, m1: __m128i, m2: __m128i, m3: __m128i) -> __m128i {
        let sum = _mm_add_epi8(_mm_add_epi8(m0, m1), _mm_add_epi8(m2, m3));
        _mm_cmpgt_epi8(_mm_set1_epi8(-1), sum)
    }

    /// Compass pass mask for 16 consecutive centres at `(x0.., y)`.
    ///
    /// Caller guarantees `3 ≤ y < h-3`, `x0 ≥ 3`, `x0 + 19 ≤ w` (so all
    /// five 16-byte loads are in bounds) — asserted in the safe wrapper.
    #[target_feature(enable = "sse2")]
    pub(super) fn quick16(data: &[u8], w: usize, y: usize, x0: usize, t: u8) -> u32 {
        let tv = _mm_set1_epi8(t as i8);
        let t_zero = t == 0;
        // SAFETY: the five loads read data[(y±3)·w + x0 ± 3 .. +16];
        // the wrapper asserts x0 ≥ 3 and (y+3)·w + x0 + 19 ≤ data.len().
        unsafe {
            let p = data.as_ptr();
            let c = _mm_loadu_si128(p.add(y * w + x0).cast());
            let top = _mm_loadu_si128(p.add((y - 3) * w + x0).cast());
            let bot = _mm_loadu_si128(p.add((y + 3) * w + x0).cast());
            let right = _mm_loadu_si128(p.add(y * w + x0 + 3).cast());
            let left = _mm_loadu_si128(p.add(y * w + x0 - 3).cast());
            let (b0, d0) = classify16(top, c, tv, t_zero);
            let (b1, d1) = classify16(right, c, tv, t_zero);
            let (b2, d2) = classify16(bot, c, tv, t_zero);
            let (b3, d3) = classify16(left, c, tv, t_zero);
            let pass = _mm_or_si128(at_least2(b0, b1, b2, b3), at_least2(d0, d1, d2, d3));
            _mm_movemask_epi8(pass) as u32
        }
    }

    /// AVX2 twin of [`ge_u8`].
    #[inline]
    #[target_feature(enable = "avx2")]
    fn ge_u8_256(a: __m256i, b: __m256i) -> __m256i {
        _mm256_cmpeq_epi8(_mm256_max_epu8(a, b), a)
    }

    /// AVX2 twin of [`classify16`], 32 centres.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn classify32(v: __m256i, c: __m256i, tv: __m256i, t_zero: bool) -> (__m256i, __m256i) {
        if t_zero {
            let bright = ge_u8_256(v, c);
            let dark = _mm256_andnot_si256(bright, ge_u8_256(c, v));
            (bright, dark)
        } else {
            let bright = ge_u8_256(_mm256_subs_epu8(v, c), tv);
            let dark = _mm256_andnot_si256(bright, ge_u8_256(_mm256_subs_epu8(c, v), tv));
            (bright, dark)
        }
    }

    /// AVX2 twin of [`at_least2`].
    #[inline]
    #[target_feature(enable = "avx2")]
    fn at_least2_256(m0: __m256i, m1: __m256i, m2: __m256i, m3: __m256i) -> __m256i {
        let sum = _mm256_add_epi8(_mm256_add_epi8(m0, m1), _mm256_add_epi8(m2, m3));
        _mm256_cmpgt_epi8(_mm256_set1_epi8(-1), sum)
    }

    /// Compass pass mask for 32 consecutive centres (movemask bit order
    /// is ascending byte order, lane-local then cross-lane — ascending x).
    #[target_feature(enable = "avx2")]
    pub(super) fn quick32(data: &[u8], w: usize, y: usize, x0: usize, t: u8) -> u32 {
        let tv = _mm256_set1_epi8(t as i8);
        let t_zero = t == 0;
        // SAFETY: the five loads read data[(y±3)·w + x0 ± 3 .. +32];
        // the wrapper asserts x0 ≥ 3 and (y+3)·w + x0 + 35 ≤ data.len().
        unsafe {
            let p = data.as_ptr();
            let c = _mm256_loadu_si256(p.add(y * w + x0).cast());
            let top = _mm256_loadu_si256(p.add((y - 3) * w + x0).cast());
            let bot = _mm256_loadu_si256(p.add((y + 3) * w + x0).cast());
            let right = _mm256_loadu_si256(p.add(y * w + x0 + 3).cast());
            let left = _mm256_loadu_si256(p.add(y * w + x0 - 3).cast());
            let (b0, d0) = classify32(top, c, tv, t_zero);
            let (b1, d1) = classify32(right, c, tv, t_zero);
            let (b2, d2) = classify32(bot, c, tv, t_zero);
            let (b3, d3) = classify32(left, c, tv, t_zero);
            let pass =
                _mm256_or_si256(at_least2_256(b0, b1, b2, b3), at_least2_256(d0, d1, d2, d3));
            _mm256_movemask_epi8(pass) as u32
        }
    }

    /// Bright/dark ring masks for one candidate: one 16-byte classify
    /// instead of four 4-lane SWAR words.
    #[target_feature(enable = "sse2")]
    pub(super) fn ring_masks(ring: &[u8; 16], c: u8, t: u8) -> (u16, u16) {
        let cv = _mm_set1_epi8(c as i8);
        let tv = _mm_set1_epi8(t as i8);
        // SAFETY: `ring` is exactly 16 bytes.
        let v = unsafe { _mm_loadu_si128(ring.as_ptr().cast()) };
        let (bright, dark) = classify16(v, cv, tv, t == 0);
        (
            _mm_movemask_epi8(bright) as u16,
            _mm_movemask_epi8(dark) as u16,
        )
    }

    /// `brief::round_half_away` on four lanes, narrowed to `i32`:
    /// truncate toward zero, then step by ±1 where the exact fractional
    /// part reaches ±½. Exact while `|v| < 2^31`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn round4(v: __m256d) -> __m128i {
        let t = _mm256_round_pd::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(v);
        let f = _mm256_sub_pd(v, t);
        let one = _mm256_set1_pd(1.0);
        let up = _mm256_and_pd(_mm256_cmp_pd::<_CMP_GE_OQ>(f, _mm256_set1_pd(0.5)), one);
        let down = _mm256_and_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(f, _mm256_set1_pd(-0.5)), one);
        _mm256_cvttpd_epi32(_mm256_sub_pd(_mm256_add_pd(t, up), down))
    }

    /// Two-lane SSE2 twin of [`round4`]: `cvttpd_epi32` truncates, the
    /// exact fraction steps the result; 64-bit compare masks are
    /// narrowed to the two low `i32` lanes (-1 per set mask).
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn round2(v: __m128d) -> __m128i {
        let t = _mm_cvttpd_epi32(v);
        let f = _mm_sub_pd(v, _mm_cvtepi32_pd(t));
        let up = _mm_castpd_si128(_mm_cmpge_pd(f, _mm_set1_pd(0.5)));
        let down = _mm_castpd_si128(_mm_cmple_pd(f, _mm_set1_pd(-0.5)));
        let up = _mm_shuffle_epi32::<0b10_00_10_00>(up);
        let down = _mm_shuffle_epi32::<0b10_00_10_00>(down);
        _mm_add_epi32(_mm_sub_epi32(t, up), down)
    }

    /// `min(max(v, 0), hi)` on four `i32` lanes with SSE2 compares.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn clamp4(v: __m128i, hi: __m128i) -> __m128i {
        let v = _mm_andnot_si128(_mm_srai_epi32::<31>(v), v);
        let over = _mm_cmpgt_epi32(v, hi);
        _mm_or_si128(_mm_and_si128(over, hi), _mm_andnot_si128(over, v))
    }

    /// SSE2 BRIEF bits, two pairs per step.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "sse2")]
    pub(super) fn brief_words_sse2(
        data: &[u8],
        w: usize,
        h: usize,
        pat: &Pattern,
        cx: f64,
        cy: f64,
        sin: f64,
        cos: f64,
    ) -> [u64; 4] {
        let (cxv, cyv) = (_mm_set1_pd(cx), _mm_set1_pd(cy));
        let (sv, cv) = (_mm_set1_pd(sin), _mm_set1_pd(cos));
        let xmax = _mm_set1_epi32(w as i32 - 1);
        let ymax = _mm_set1_epi32(h as i32 - 1);
        let mut words = [0u64; 4];
        let (mut xs, mut ys) = ([0i32; 4], [0i32; 4]);
        for i in (0..BITS).step_by(2) {
            // SAFETY: `i + 2 ≤ BITS`.
            let (x1, y1, x2, y2) = unsafe {
                (
                    _mm_loadu_pd(pat.x1.as_ptr().add(i)),
                    _mm_loadu_pd(pat.y1.as_ptr().add(i)),
                    _mm_loadu_pd(pat.x2.as_ptr().add(i)),
                    _mm_loadu_pd(pat.y2.as_ptr().add(i)),
                )
            };
            let r1x = _mm_sub_pd(_mm_add_pd(cxv, _mm_mul_pd(x1, cv)), _mm_mul_pd(y1, sv));
            let r1y = _mm_add_pd(_mm_add_pd(cyv, _mm_mul_pd(x1, sv)), _mm_mul_pd(y1, cv));
            let r2x = _mm_sub_pd(_mm_add_pd(cxv, _mm_mul_pd(x2, cv)), _mm_mul_pd(y2, sv));
            let r2y = _mm_add_pd(_mm_add_pd(cyv, _mm_mul_pd(x2, sv)), _mm_mul_pd(y2, cv));
            let ix = clamp4(_mm_unpacklo_epi64(round2(r1x), round2(r2x)), xmax);
            let iy = clamp4(_mm_unpacklo_epi64(round2(r1y), round2(r2y)), ymax);
            // SAFETY: four `i32`s each, one 128-bit store.
            unsafe {
                _mm_storeu_si128(xs.as_mut_ptr().cast(), ix);
                _mm_storeu_si128(ys.as_mut_ptr().cast(), iy);
            }
            let mut pair = 0u64;
            for j in 0..2 {
                let a = data[ys[j] as usize * w + xs[j] as usize];
                let b = data[ys[2 + j] as usize * w + xs[2 + j] as usize];
                pair |= ((a < b) as u64) << j;
            }
            words[i / 64] |= pair << (i % 64);
        }
        words
    }

    /// The 256 BRIEF test bits of one keypoint, four pairs per step.
    /// Each lane computes `(cx + x·cos) − y·sin` and `(cy + x·sin) +
    /// y·cos` with separate multiplies and adds, exactly as the scalar
    /// oracle does; samples clamp to the image in the integer domain.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) fn brief_words(
        data: &[u8],
        w: usize,
        h: usize,
        pat: &Pattern,
        cx: f64,
        cy: f64,
        sin: f64,
        cos: f64,
    ) -> [u64; 4] {
        let (cxv, cyv) = (_mm256_set1_pd(cx), _mm256_set1_pd(cy));
        let (sv, cv) = (_mm256_set1_pd(sin), _mm256_set1_pd(cos));
        let zero = _mm256_setzero_si256();
        let xmax = _mm256_set1_epi32(w as i32 - 1);
        let ymax = _mm256_set1_epi32(h as i32 - 1);
        let wv = _mm256_set1_epi32(w as i32);
        let mut words = [0u64; 4];
        let mut idx = [0i32; 8];
        for i in (0..BITS).step_by(4) {
            // SAFETY: `i + 4 ≤ BITS`, the length of every pattern array.
            let (x1, y1, x2, y2) = unsafe {
                (
                    _mm256_loadu_pd(pat.x1.as_ptr().add(i)),
                    _mm256_loadu_pd(pat.y1.as_ptr().add(i)),
                    _mm256_loadu_pd(pat.x2.as_ptr().add(i)),
                    _mm256_loadu_pd(pat.y2.as_ptr().add(i)),
                )
            };
            let r1x = _mm256_sub_pd(
                _mm256_add_pd(cxv, _mm256_mul_pd(x1, cv)),
                _mm256_mul_pd(y1, sv),
            );
            let r1y = _mm256_add_pd(
                _mm256_add_pd(cyv, _mm256_mul_pd(x1, sv)),
                _mm256_mul_pd(y1, cv),
            );
            let r2x = _mm256_sub_pd(
                _mm256_add_pd(cxv, _mm256_mul_pd(x2, cv)),
                _mm256_mul_pd(y2, sv),
            );
            let r2y = _mm256_add_pd(
                _mm256_add_pd(cyv, _mm256_mul_pd(x2, sv)),
                _mm256_mul_pd(y2, cv),
            );
            // Lanes 0–3 hold the first sample of pairs i..i+4, lanes 4–7
            // the second.
            let ix = _mm256_set_m128i(round4(r2x), round4(r1x));
            let iy = _mm256_set_m128i(round4(r2y), round4(r1y));
            let ix = _mm256_min_epi32(_mm256_max_epi32(ix, zero), xmax);
            let iy = _mm256_min_epi32(_mm256_max_epi32(iy, zero), ymax);
            let lin = _mm256_add_epi32(_mm256_mullo_epi32(iy, wv), ix);
            // SAFETY: `idx` is eight `i32`s, one 256-bit store.
            unsafe { _mm256_storeu_si256(idx.as_mut_ptr().cast(), lin) };
            let mut nibble = 0u64;
            for j in 0..4 {
                let (a, b) = (data[idx[j] as usize], data[idx[4 + j] as usize]);
                nibble |= ((a < b) as u64) << j;
            }
            words[i / 64] |= nibble << (i % 64);
        }
        words
    }
}

/// Sse2 BRIEF bits for one keypoint: the two-lane twin of
/// [`brief_words_avx2`], with the same contract.
///
/// # Panics
///
/// Panics on an empty image.
#[cfg(target_arch = "x86_64")]
pub(crate) fn brief_words_sse2(
    img: &vs_image::GrayImage,
    pat: &crate::brief::Pattern,
    cx: f64,
    cy: f64,
    sin: f64,
    cos: f64,
) -> [u64; 4] {
    assert!(!img.is_empty(), "brief_words_sse2 on empty image");
    let (w, h) = (img.width(), img.height());
    // SAFETY: SSE2 is baseline x86-64.
    unsafe { x86::brief_words_sse2(img.as_bytes(), w, h, pat, cx, cy, sin, cos) }
}

/// Avx2 BRIEF bits for one keypoint (see `brief::describe_into_level`
/// for when it is taken; the result equals the scalar oracle's whenever
/// `sin`/`cos` are finite and `|cx|, |cy| < 1e9`). Every sample is
/// clamped into the image before it is read (an out-of-range or NaN
/// conversion yields `i32::MIN`, which clamps to 0), and the reads are
/// bounds-checked besides.
///
/// # Panics
///
/// Panics on an empty image or a host without AVX2.
#[cfg(target_arch = "x86_64")]
pub(crate) fn brief_words_avx2(
    img: &vs_image::GrayImage,
    pat: &crate::brief::Pattern,
    cx: f64,
    cy: f64,
    sin: f64,
    cos: f64,
) -> [u64; 4] {
    assert!(!img.is_empty(), "brief_words_avx2 on empty image");
    assert!(
        vs_image::SimdLevel::Avx2.available(),
        "brief_words_avx2 requires AVX2"
    );
    let (w, h) = (img.width(), img.height());
    // SAFETY: AVX2 availability is asserted above. (`w·h ≤ MAX_PIXELS
    // < 2^31`, so the i32 index math cannot wrap either.)
    unsafe { x86::brief_words(img.as_bytes(), w, h, pat, cx, cy, sin, cos) }
}

/// How many centres one quick-scan step covers.
pub(crate) fn quick_lanes(wide: bool) -> usize {
    if wide {
        32
    } else {
        16
    }
}

/// Scalar compass predicate (used by the vector tail and non-x86
/// builds): ≥ 2 of the 4 compass samples share a non-zero classify
/// state. Byte-identical to the inline test in the scalar detector.
pub(crate) fn compass_pass(vals: [u8; 4], center: u8, t: u8) -> bool {
    let mut bright = 0u32;
    let mut dark = 0u32;
    for v in vals {
        match classify(v, center, t) {
            1 => bright += 1,
            2 => dark += 1,
            _ => {}
        }
    }
    bright >= 2 || dark >= 2
}

/// Pass mask for `quick_lanes(wide)` consecutive centres starting at
/// `(x0, y)`: bit `j` set iff centre `x0 + j` survives the compass
/// quick-rejection. Requires an interior span: `3 ≤ y < h-3`, `x0 ≥ 3`,
/// `x0 + lanes + 3 ≤ w`.
pub(crate) fn quick_pass_mask(
    data: &[u8],
    w: usize,
    y: usize,
    x0: usize,
    t: u8,
    wide: bool,
) -> u32 {
    let lanes = quick_lanes(wide);
    assert!(
        x0 >= 3 && x0 + lanes + 3 <= w,
        "quick-scan span out of bounds"
    );
    assert!(
        (y + 3) * w + x0 + lanes + 3 <= data.len(),
        "quick-scan rows out of bounds"
    );
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE2 is baseline x86-64; `wide` is only set when dispatch
    // selected AVX2, which `dispatch::level` verifies is available.
    unsafe {
        if wide {
            x86::quick32(data, w, y, x0, t)
        } else {
            x86::quick16(data, w, y, x0, t)
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let mut mask = 0u32;
        for j in 0..lanes {
            let x = x0 + j;
            let c = data[y * w + x];
            let vals = [
                data[(y - 3) * w + x],
                data[y * w + x + 3],
                data[(y + 3) * w + x],
                data[y * w + x - 3],
            ];
            if compass_pass(vals, c, t) {
                mask |= 1 << j;
            }
        }
        mask
    }
}

/// SSE2 full segment test for one candidate: same contract as the SWAR
/// path (`swar_segment_test`) — popcount pre-reject counted in
/// `prereject`, exact contiguous-arc decision on the survivors.
pub(crate) fn segment_test_simd(ring: &[u8; 16], c: u8, t: u8, prereject: &mut u64) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: SSE2 is baseline x86-64.
        let (bright, dark) = unsafe { x86::ring_masks(ring, c, t) };
        if bright.count_ones() < ARC_LENGTH as u32 && dark.count_ones() < ARC_LENGTH as u32 {
            *prereject += 1;
            return false;
        }
        has_arc16(bright) || has_arc16(dark)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        crate::fast::swar_segment_test(ring, c as u64, t, prereject)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast::swar_segment_test;

    /// The SSE2 ring classify agrees with the SWAR segment test —
    /// decision *and* prereject bookkeeping — over the full
    /// (centre, threshold) cube with uniform rings (exhausts every
    /// per-lane predicate) and on random mixed rings.
    #[test]
    fn simd_segment_matches_swar_exhaustive_lanes() {
        for c in 0u16..=255 {
            for t in [0u8, 1, 2, 19, 20, 127, 128, 254, 255] {
                for v in 0u16..=255 {
                    let ring = [v as u8; 16];
                    let (mut pa, mut pb) = (0u64, 0u64);
                    let a = segment_test_simd(&ring, c as u8, t, &mut pa);
                    let b = swar_segment_test(&ring, c as u64, t, &mut pb);
                    assert_eq!(a, b, "c={c} t={t} v={v}");
                    assert_eq!(pa, pb, "prereject c={c} t={t} v={v}");
                }
            }
        }
    }

    #[test]
    fn simd_segment_matches_swar_random_rings() {
        let mut rng = vs_rng::SplitMix64::new(0x513D_FA57);
        for trial in 0..200_000u32 {
            let c = rng.gen_range(0u32..256) as u8;
            let t = match trial % 5 {
                0 => 0,
                1 => 255,
                _ => rng.gen_range(0u32..256) as u8,
            };
            let ring: [u8; 16] = std::array::from_fn(|_| rng.gen_range(0u32..256) as u8);
            let (mut pa, mut pb) = (0u64, 0u64);
            assert_eq!(
                segment_test_simd(&ring, c, t, &mut pa),
                swar_segment_test(&ring, c as u64, t, &mut pb),
                "trial {trial}: c={c} t={t} ring={ring:?}"
            );
            assert_eq!(pa, pb, "trial {trial} prereject");
        }
    }

    /// The vector roundings equal `f64::round` (half away from zero) on
    /// both signs of every tie below 2^10, their neighbours, and random
    /// values below 2^31 — including negative ties, which the clamp to
    /// the image would otherwise hide.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vector_rounding_matches_libm_round() {
        use std::arch::x86_64::*;
        let mut vals = Vec::new();
        for k in -1024i64..1024 {
            let t = k as f64 + 0.5;
            vals.extend([t, t.next_up(), t.next_down(), k as f64]);
        }
        let mut rng = vs_rng::SplitMix64::new(0x0D2);
        vals.extend((0..40_000).map(|_| (rng.next_u64() as f64 / u64::MAX as f64 - 0.5) * 4e9));
        vals.extend([0.0, -0.0, 1e9 + 0.5, -1e9 - 0.5]);
        while vals.len() % 4 != 0 {
            vals.push(0.5);
        }
        for c in vals.chunks_exact(4) {
            let want: Vec<i32> = c.iter().map(|v| v.round() as i32).collect();
            let mut two = [0i32; 4];
            // SAFETY: SSE2 is baseline x86-64; `two` is four i32s.
            unsafe {
                let r = x86::round2(_mm_loadu_pd(c.as_ptr()));
                _mm_storeu_si128(two.as_mut_ptr().cast(), r);
            }
            assert_eq!(two[..2], want[..2], "sse2 {:?}", &c[..2]);
            if vs_image::SimdLevel::Avx2.available() {
                let mut four = [0i32; 4];
                // SAFETY: AVX2 is available; `c` and `four` hold four lanes.
                unsafe {
                    let r = x86::round4(_mm256_loadu_pd(c.as_ptr()));
                    _mm_storeu_si128(four.as_mut_ptr().cast(), r);
                }
                assert_eq!(four[..], want[..], "avx2 {c:?}");
            }
        }
    }

    /// The vector quick-scan mask agrees bit-for-bit with the scalar
    /// compass predicate at every lane, across thresholds (including the
    /// t = 0 priority edge) and both widths.
    #[test]
    fn quick_mask_matches_scalar_compass() {
        let mut rng = vs_rng::SplitMix64::new(0xC0_3A55);
        let (w, h) = (80usize, 16usize);
        for trial in 0..40u32 {
            let data: Vec<u8> = (0..w * h).map(|_| rng.gen_range(0u32..256) as u8).collect();
            let t = match trial % 4 {
                0 => 0,
                1 => 255,
                _ => rng.gen_range(0u32..256) as u8,
            };
            for wide in [false, true] {
                if wide && !vs_image::SimdLevel::Avx2.available() {
                    continue;
                }
                let lanes = quick_lanes(wide);
                for y in 3..h - 3 {
                    let mut x0 = 3usize;
                    while x0 + lanes + 3 <= w {
                        let mask = quick_pass_mask(&data, w, y, x0, t, wide);
                        for j in 0..lanes {
                            let x = x0 + j;
                            let c = data[y * w + x];
                            let vals = [
                                data[(y - 3) * w + x],
                                data[y * w + x + 3],
                                data[(y + 3) * w + x],
                                data[y * w + x - 3],
                            ];
                            assert_eq!(
                                mask >> j & 1 == 1,
                                compass_pass(vals, c, t),
                                "trial {trial} wide={wide} y={y} x={x} t={t}"
                            );
                        }
                        x0 += lanes;
                    }
                }
            }
        }
    }
}
