//! NPN classification of small (≤ 4 variable) Boolean functions.
//!
//! Two functions are NPN-equivalent when one can be obtained from the other
//! by Negating inputs, Permuting inputs, and/or Negating the output. Cut
//! functions that fall into the same NPN class share an optimized XMG
//! structure. No flow uses the classification: the AIG→XMG mapper
//! (`qda-classical::xmg_map`) does not classify its cuts.

/// A 4-variable function as a 16-bit truth table (bit `x` = `f(x)`).
pub type Tt4 = u16;

/// The transform that maps a function to its canonical representative.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NpnTransform {
    /// `perm[i]` = which original variable drives canonical position `i`.
    pub perm: [u8; 4],
    /// Bit `i` set = original variable `i` is complemented.
    pub input_flips: u8,
    /// Whether the output is complemented.
    pub output_flip: bool,
}

impl NpnTransform {
    /// The identity transform.
    pub fn identity() -> Self {
        Self {
            perm: [0, 1, 2, 3],
            input_flips: 0,
            output_flip: false,
        }
    }
}

/// Applies an input permutation+negation and optional output negation to a
/// 4-variable truth table.
pub fn apply_transform(tt: Tt4, t: &NpnTransform) -> Tt4 {
    let mut out: Tt4 = 0;
    for x in 0..16u16 {
        // Build the original assignment from the canonical one.
        let mut orig = 0u16;
        for (i, &p) in t.perm.iter().enumerate() {
            let bit = (x >> i) & 1;
            orig |= bit << p;
        }
        orig ^= t.input_flips as u16;
        let mut v = (tt >> orig) & 1;
        if t.output_flip {
            v ^= 1;
        }
        out |= v << x;
    }
    out
}

/// All 4! permutations of `[0,1,2,3]`.
fn permutations() -> Vec<[u8; 4]> {
    let mut out = Vec::with_capacity(24);
    let items = [0u8, 1, 2, 3];
    fn rec(cur: &mut Vec<u8>, rest: &[u8], out: &mut Vec<[u8; 4]>) {
        if rest.is_empty() {
            out.push([cur[0], cur[1], cur[2], cur[3]]);
            return;
        }
        for (i, &r) in rest.iter().enumerate() {
            cur.push(r);
            let mut next: Vec<u8> = rest.to_vec();
            next.remove(i);
            rec(cur, &next, out);
            cur.pop();
        }
    }
    rec(&mut Vec::new(), &items, &mut out);
    out
}

/// Canonicalizes a 4-variable function under NPN equivalence by exhaustive
/// search (16 input-flip masks × 24 permutations × 2 output flips = 768
/// candidates). Returns the minimal representative and the transform that
/// produces it.
///
/// # Example
///
/// ```
/// use qda_logic::npn::{npn_canonical, apply_transform};
///
/// // AND and NOR are in the same NPN class.
/// let and: u16 = 0x8888 & 0xFF00; // placeholder: x0&x1&… use simple
/// let (c1, _) = npn_canonical(0x8000); // x0&x1&x2&x3
/// let (c2, _) = npn_canonical(0x0001); // !(x0|x1|x2|x3)
/// assert_eq!(c1, c2);
/// # let _ = and;
/// ```
pub fn npn_canonical(tt: Tt4) -> (Tt4, NpnTransform) {
    let mut best = tt;
    let mut best_t = NpnTransform::identity();
    for perm in permutations() {
        for flips in 0..16u8 {
            for out_flip in [false, true] {
                let t = NpnTransform {
                    perm,
                    input_flips: flips,
                    output_flip: out_flip,
                };
                let cand = apply_transform(tt, &t);
                if cand < best {
                    best = cand;
                    best_t = t;
                }
            }
        }
    }
    (best, best_t)
}

/// Number of variables a 4-variable truth table actually depends on.
pub fn support_size(tt: Tt4) -> usize {
    (0..4).filter(|&v| depends_on(tt, v)).count()
}

/// Whether a 4-variable table depends on variable `v`.
pub fn depends_on(tt: Tt4, v: usize) -> bool {
    let masks = [0x5555u16, 0x3333, 0x0F0F, 0x00FF];
    let shift = 1usize << v;
    let lo = tt & masks[v];
    let hi = (tt >> shift) & masks[v];
    lo != hi
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_transform_is_noop() {
        for tt in [0x8000u16, 0x1234, 0xFFFF, 0x0000, 0x6996] {
            assert_eq!(apply_transform(tt, &NpnTransform::identity()), tt);
        }
    }

    #[test]
    fn canonical_is_invariant_under_transforms() {
        let tt: Tt4 = 0x1EE8; // arbitrary
        let (canon, _) = npn_canonical(tt);
        // Apply a few random-ish transforms and re-canonicalize.
        for perm in [[1u8, 0, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]] {
            for flips in [0u8, 5, 15] {
                let t = NpnTransform {
                    perm,
                    input_flips: flips,
                    output_flip: flips % 2 == 1,
                };
                let variant = apply_transform(tt, &t);
                let (canon2, _) = npn_canonical(variant);
                assert_eq!(canon, canon2);
            }
        }
    }

    #[test]
    fn and_nor_same_class() {
        let (c1, _) = npn_canonical(0x8000);
        let (c2, _) = npn_canonical(0x0001);
        assert_eq!(c1, c2);
    }

    #[test]
    fn xor_class_is_distinct_from_and_class() {
        let xor4: Tt4 = {
            let mut t = 0u16;
            for x in 0..16u16 {
                if x.count_ones() % 2 == 1 {
                    t |= 1 << x;
                }
            }
            t
        };
        let (cx, _) = npn_canonical(xor4);
        let (ca, _) = npn_canonical(0x8000);
        assert_ne!(cx, ca);
    }

    #[test]
    fn transform_returned_maps_to_canonical() {
        for tt in [0x1EE8u16, 0xCAFE, 0x0816] {
            let (canon, t) = npn_canonical(tt);
            assert_eq!(apply_transform(tt, &t), canon);
        }
    }

    #[test]
    fn support_detection() {
        assert_eq!(support_size(0x00FF), 1); // depends only on x3
        assert_eq!(support_size(0x8000), 4);
        assert_eq!(support_size(0x0000), 0);
        assert!(depends_on(0xAAAA, 0));
        assert!(!depends_on(0xAAAA, 1));
    }
}
