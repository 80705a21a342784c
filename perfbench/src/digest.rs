//! Output digests and the committed reference digests of the default
//! seed.

use vs_core::Summary;
use vs_fault::campaign::Injection;
use vs_image::RgbImage;

/// The seed whose reference digests are committed in `reference.txt`.
pub const DEFAULT_SEED: u64 = 0;

const REFERENCE: &str = include_str!("../reference.txt");

/// FNV-1a over a byte stream, 64-bit.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

fn fold_image(h: &mut Fnv, img: &RgbImage) {
    h.u64(img.width() as u64);
    h.u64(img.height() as u64);
    h.bytes(img.as_bytes());
}

/// Digest of a golden run's observable output: every panorama's size
/// and bytes, plus every [`vs_core::SummaryStats`] counter.
pub fn summary(s: &Summary) -> u64 {
    let mut h = Fnv::default();
    h.u64(s.panoramas.len() as u64);
    for p in &s.panoramas {
        fold_image(&mut h, p);
    }
    let st = &s.stats;
    for v in [
        st.frames_in,
        st.frames_dropped_by_input,
        st.frames_discarded,
        st.homographies,
        st.affine_fallbacks,
        st.segments,
    ] {
        h.u64(v as u64);
    }
    h.finish()
}

/// Order-sensitive digest of a campaign's record list: index, fault
/// spec, the fault that fired and the outcome of every injection.
pub fn records<O>(recs: &[Injection<O>]) -> u64 {
    let mut h = Fnv::default();
    h.u64(recs.len() as u64);
    for r in recs {
        h.u64(r.index as u64);
        h.str(&format!("{:?}|{:?}", r.spec, r.fired));
        h.str(r.outcome.name());
    }
    h.finish()
}

/// The committed reference value for `key`, if the default seed's
/// reference file has one.
pub fn reference(key: &str) -> Option<u64> {
    REFERENCE.lines().find_map(|l| {
        let (k, v) = l.split_once(' ')?;
        (k == key).then(|| u64::from_str_radix(v.trim(), 16).ok())?
    })
}
