//! Id-blind output fingerprints.
//!
//! `SegmentId`s come from a process-global counter, so two replays of the
//! same input never share ids. The fingerprint hashes only what a result
//! says: key, span bounds and model coefficients, bit for bit. Segments
//! combine by wrapping addition, so the fingerprint does not depend on the
//! order in which a runtime emits its results.

use pulse_model::Segment;

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fingerprint {
    pub segments: u64,
    pub sum: u64,
}

fn mix(h: u64, v: u64) -> u64 {
    // splitmix64 finalizer over the running state.
    let mut z = (h ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Fingerprint {
    pub fn add(&mut self, seg: &Segment) {
        let mut h = mix(0, seg.key);
        h = mix(h, seg.span.lo.to_bits());
        h = mix(h, seg.span.hi.to_bits());
        for model in &seg.models {
            h = mix(h, model.coeffs().len() as u64);
            for c in model.coeffs() {
                h = mix(h, c.to_bits());
            }
        }
        self.segments += 1;
        self.sum = self.sum.wrapping_add(h);
    }

    pub fn add_all(&mut self, segs: &[Segment]) {
        for s in segs {
            self.add(s);
        }
    }

    /// `<segments>-<hash>`, the form printed in results and compared
    /// across processes.
    pub fn to_hex(self) -> String {
        format!("{}-{:016x}", self.segments, self.sum)
    }

    /// Inverse of [`Self::to_hex`].
    pub fn from_hex(s: &str) -> Option<Fingerprint> {
        let (segments, sum) = s.split_once('-')?;
        Some(Fingerprint {
            segments: segments.parse().ok()?,
            sum: u64::from_str_radix(sum, 16).ok()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_math::{Poly, Span};

    fn seg(key: u64, lo: f64, slope: f64) -> Segment {
        Segment::single(key, Span::new(lo, lo + 1.0), Poly::linear(1.0, slope))
    }

    #[test]
    fn ignores_ids_and_order() {
        let (a, b) = (seg(1, 0.0, 2.0), seg(2, 0.5, -1.0));
        let mut x = Fingerprint::default();
        x.add_all(&[a.clone(), b.clone()]);
        let mut y = Fingerprint::default();
        // Fresh ids, reversed order.
        y.add_all(&[seg(2, 0.5, -1.0), seg(1, 0.0, 2.0)]);
        assert_eq!(x, y);
        assert_ne!(a.id, seg(1, 0.0, 2.0).id);
    }

    #[test]
    fn sees_every_field() {
        let base = {
            let mut f = Fingerprint::default();
            f.add(&seg(1, 0.0, 2.0));
            f
        };
        for other in [seg(3, 0.0, 2.0), seg(1, 0.25, 2.0), seg(1, 0.0, 2.5)] {
            let mut f = Fingerprint::default();
            f.add(&other);
            assert_ne!(f, base, "{other:?}");
        }
    }
}
