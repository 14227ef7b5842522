//! Hilbert curve encoding and decoding in 2 and 3 dimensions.
//!
//! The paper's background section (citing Reissmann et al. 2014) observes
//! that the Hilbert curve has slightly better locality than Z-order but a
//! substantially more expensive index computation, which in practice erases
//! the locality gain. We implement it so the `curve_ablation` bench can
//! reproduce that trade-off.
//!
//! Implementation: John Skilling, "Programming the Hilbert curve", AIP
//! Conference Proceedings 707 (2004) — the "transpose" form, generalized
//! over dimension `N` and per-axis bit count `bits`. The 3D layout indexes
//! through the table forms built from it, [`HilbertTables3`] and the
//! crate-private `MortonToHilbert3`; the transpose form is the oracle both
//! are checked against.

/// Convert axis coordinates into the transposed Hilbert representation
/// in place. `bits` is the per-axis order of the curve.
fn axes_to_transpose<const N: usize>(x: &mut [u32; N], bits: u32) {
    if bits == 0 {
        return;
    }
    let m = 1u32 << (bits - 1);
    // Inverse undo.
    let mut q = m;
    while q > 1 {
        let p = q - 1;
        for i in 0..N {
            if x[i] & q != 0 {
                x[0] ^= p; // invert low bits of the first axis
            } else {
                let t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t; // exchange low bits with the first axis
            }
        }
        q >>= 1;
    }
    // Gray encode.
    for i in 1..N {
        x[i] ^= x[i - 1];
    }
    let mut t = 0u32;
    let mut q = m;
    while q > 1 {
        if x[N - 1] & q != 0 {
            t ^= q - 1;
        }
        q >>= 1;
    }
    for v in x.iter_mut() {
        *v ^= t;
    }
}

/// Convert the transposed Hilbert representation back into axis coordinates
/// in place.
fn transpose_to_axes<const N: usize>(x: &mut [u32; N], bits: u32) {
    if bits == 0 {
        return;
    }
    let n = 2u32 << (bits - 1);
    // Gray decode by H ^ (H/2).
    let mut t = x[N - 1] >> 1;
    for i in (1..N).rev() {
        x[i] ^= x[i - 1];
    }
    x[0] ^= t;
    // Undo excess work.
    let mut q = 2u32;
    while q != n {
        let p = q - 1;
        for i in (0..N).rev() {
            if x[i] & q != 0 {
                x[0] ^= p;
            } else {
                t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q <<= 1;
    }
}

/// Pack the transposed representation into a single linear index:
/// the most significant index bit is the top bit of `x[0]`, then the top
/// bit of `x[1]`, and so on, descending through bit planes.
fn transpose_to_index<const N: usize>(x: &[u32; N], bits: u32) -> u64 {
    let mut h = 0u64;
    for b in (0..bits).rev() {
        for v in x.iter() {
            h = (h << 1) | (((v >> b) & 1) as u64);
        }
    }
    h
}

/// Unpack a linear index into the transposed representation (inverse of
/// [`transpose_to_index`]).
fn index_to_transpose<const N: usize>(h: u64, bits: u32) -> [u32; N] {
    let mut x = [0u32; N];
    let mut pos = N as u32 * bits;
    for b in (0..bits).rev() {
        for v in x.iter_mut() {
            pos -= 1;
            *v |= (((h >> pos) & 1) as u32) << b;
        }
    }
    x
}

/// Encode an N-dimensional coordinate on a `2^bits` hypercube into its
/// Hilbert curve index.
///
/// # Panics
/// Debug-asserts every coordinate fits in `bits` bits and that the total
/// index fits in 64 bits.
pub fn hilbert_encode<const N: usize>(coords: [u32; N], bits: u32) -> u64 {
    debug_assert!(N as u32 * bits <= 64, "index exceeds 64 bits");
    debug_assert!(
        coords.iter().all(|&c| bits == 32 || c < (1u32 << bits)),
        "coordinate out of range for curve order"
    );
    let mut x = coords;
    axes_to_transpose(&mut x, bits);
    transpose_to_index(&x, bits)
}

/// Decode a Hilbert curve index back into an N-dimensional coordinate.
pub fn hilbert_decode<const N: usize>(h: u64, bits: u32) -> [u32; N] {
    let mut x = index_to_transpose::<N>(h, bits);
    transpose_to_axes(&mut x, bits);
    x
}

/// Encode a 2D coordinate on a `2^bits` square.
#[inline]
pub fn hilbert2_encode(x: u32, y: u32, bits: u32) -> u64 {
    hilbert_encode([x, y], bits)
}

/// Decode a 2D Hilbert index.
#[inline]
pub fn hilbert2_decode(h: u64, bits: u32) -> (u32, u32) {
    let [x, y] = hilbert_decode::<2>(h, bits);
    (x, y)
}

/// Encode a 3D coordinate on a `2^bits` cube.
#[inline]
pub fn hilbert3_encode(x: u32, y: u32, z: u32, bits: u32) -> u64 {
    hilbert_encode([x, y, z], bits)
}

/// Decode a 3D Hilbert index.
#[inline]
pub fn hilbert3_decode(h: u64, bits: u32) -> (u32, u32, u32) {
    let [x, y, z] = hilbert_decode::<3>(h, bits);
    (x, y, z)
}

/// Widest supported 3D curve order: `3 * 21 = 63` index bits fit in `u64`.
pub const MAX_BITS3: u32 = 21;

/// Octant key of the coordinate bits at plane `b`: `x | y<<1 | z<<2`.
#[inline]
fn octant3(x: u32, y: u32, z: u32, b: u32) -> usize {
    (((x >> b) & 1) | (((y >> b) & 1) << 1) | (((z >> b) & 1) << 2)) as usize
}

/// Recursive-descent automaton for the 3D Hilbert curve.
///
/// The transpose-form encoder above is O(bits) *per index* with two
/// data-dependent bit-plane loops — too slow to pay per voxel read. But
/// the curve is self-similar: every octant of the cube contains a
/// rotated/reflected copy of the whole curve, so encoding is equivalently
/// a top-down descent through a finite automaton whose state is the
/// sub-cube's orientation (an isometry of the unit cube). Per bit plane
/// the automaton emits one 3-bit index digit (`digit[state][octant]`) and
/// transitions (`child[state][octant]`) — the table form of Holzmüller's
/// *Efficient Neighbor-Finding on Space-Filling Curves*
/// (arXiv:1710.06384). `MortonToHilbert3`, which
/// [`crate::HilbertOrder3`]'s `index()` runs, is built from these tables.
///
/// Rather than hard-coding an orientation table (and risking a mismatch
/// with the Skilling encoder the rest of the repo is pinned to), the
/// tables are **derived from the encoder itself**, once per process: a
/// BFS discovers every reachable sub-cube *signature* (the map from a
/// node's 8 low octants to its 8 low index digits, probed through
/// [`hilbert3_encode`]). Self-similarity makes the signature identify the
/// state; the Skilling curve closes after 24 states. Construction
/// cross-checks the table encoding against the transpose encoder and
/// panics on any disagreement, so the tables cannot silently drift.
#[derive(Debug)]
pub struct HilbertTables3 {
    /// Packed per-state row: `pair[s][octant]` is the emitted 3-bit index
    /// digit and `pair[s][8 + octant]` the child state — one 16-byte row
    /// per state, so a step reads a single cache line. 32 rows (≥ the 24
    /// reachable states) so `state & 31` indexes without a bounds check.
    pair: [[u8; 16]; 32],
    /// Number of reachable states (24 for the Skilling curve).
    nstates: usize,
}

impl HilbertTables3 {
    /// The process-wide tables (built on first use, ~µs).
    pub fn get() -> &'static HilbertTables3 {
        static TABLES: std::sync::OnceLock<HilbertTables3> = std::sync::OnceLock::new();
        TABLES.get_or_init(HilbertTables3::build)
    }

    /// Signature of the node reached by octant path `path` (root = `[]`):
    /// for each low-octant key the low index digit, probed with
    /// `bits = path.len() + 1`.
    fn signature(path: &[usize]) -> [u8; 8] {
        let b = path.len() as u32 + 1;
        let mut sig = [0u8; 8];
        for (c, slot) in sig.iter_mut().enumerate() {
            let (mut x, mut y, mut z) = (0u32, 0u32, 0u32);
            for (lvl, &oct) in path.iter().enumerate() {
                let shift = b - 1 - lvl as u32;
                x |= ((oct as u32) & 1) << shift;
                y |= (((oct as u32) >> 1) & 1) << shift;
                z |= (((oct as u32) >> 2) & 1) << shift;
            }
            x |= (c as u32) & 1;
            y |= ((c as u32) >> 1) & 1;
            z |= ((c as u32) >> 2) & 1;
            *slot = (hilbert3_encode(x, y, z, b) & 7) as u8;
        }
        sig
    }

    fn build() -> Self {
        use std::collections::{HashMap, VecDeque};
        let mut sig_to_id: HashMap<[u8; 8], usize> = HashMap::new();
        // Shortest known octant path reaching each state (BFS order keeps
        // these shallow, so signature probes stay well under MAX_BITS3).
        let mut reps: Vec<Vec<usize>> = Vec::new();
        let mut digit: Vec<[u8; 8]> = Vec::new();
        let mut child: Vec<[u8; 8]> = Vec::new();

        let root = Self::signature(&[]);
        sig_to_id.insert(root, 0);
        reps.push(Vec::new());
        digit.push(root);
        child.push([0; 8]);

        let mut queue = VecDeque::from([0usize]);
        while let Some(s) = queue.pop_front() {
            let rep = reps[s].clone();
            for c in 0..8usize {
                let mut path = rep.clone();
                path.push(c);
                assert!(
                    path.len() < MAX_BITS3 as usize,
                    "Hilbert automaton failed to close within probe depth"
                );
                let sig = Self::signature(&path);
                let id = *sig_to_id.entry(sig).or_insert_with(|| {
                    let id = reps.len();
                    reps.push(path.clone());
                    digit.push(sig);
                    child.push([0; 8]);
                    queue.push_back(id);
                    id
                });
                child[s][c] = id as u8;
            }
        }
        assert!(
            digit.len() <= 32,
            "Hilbert automaton has {} states; the packed table holds 32",
            digit.len()
        );
        let mut pair = [[0u8; 16]; 32];
        for (s, row) in pair.iter_mut().enumerate().take(digit.len()) {
            row[..8].copy_from_slice(&digit[s]);
            row[8..].copy_from_slice(&child[s]);
        }
        let t = Self {
            pair,
            nstates: digit.len(),
        };
        t.verify();
        t
    }

    /// Cross-check the automaton against the transpose encoder; the
    /// derivation is empirical, so disagreement means the self-similarity
    /// assumption broke and the tables must not be used.
    fn verify(&self) {
        for bits in 1..=3u32 {
            let n = 1u32 << bits;
            for z in 0..n {
                for y in 0..n {
                    for x in 0..n {
                        assert_eq!(
                            self.encode(x, y, z, bits),
                            hilbert3_encode(x, y, z, bits),
                            "Hilbert automaton diverges from the transpose encoder \
                             at ({x},{y},{z}) bits={bits}"
                        );
                    }
                }
            }
        }
    }

    /// Number of automaton states (24 for the Skilling curve).
    pub fn states(&self) -> usize {
        self.nstates
    }

    /// The index digit emitted in `state` for `octant`.
    #[inline]
    fn digit(&self, state: u8, octant: usize) -> u8 {
        self.pair[(state & 31) as usize][octant & 7]
    }

    /// The child state entered from `state` through `octant`.
    #[inline]
    fn child(&self, state: u8, octant: usize) -> u8 {
        self.pair[(state & 31) as usize][8 | (octant & 7)]
    }

    /// `(digit, child)` from one packed-row read (one cache line per
    /// plane, mask-elided bounds checks); [`MortonToHilbert3`] is built
    /// from it.
    #[inline]
    fn step(&self, state: u8, octant: usize) -> (u8, u8) {
        let row = &self.pair[(state & 31) as usize];
        let c = octant & 7;
        (row[c], row[8 | c])
    }

    /// Table-driven encode: identical results to [`hilbert3_encode`]
    /// (verified at construction), one digit + child lookup per plane.
    #[inline]
    pub fn encode(&self, x: u32, y: u32, z: u32, bits: u32) -> u64 {
        let mut s = 0u8;
        let mut h = 0u64;
        for b in (0..bits).rev() {
            let c = octant3(x, y, z, b);
            h = (h << 3) | u64::from(self.digit(s, c));
            s = self.child(s, c);
        }
        h
    }
}

/// The [`HilbertTables3`] automaton run two bit planes per lookup, over a
/// Morton code: the table form of [`crate::HilbertOrder3`]'s `index()`.
///
/// Octant `c` at plane `b` is the Morton code's 3-bit group `b`, so a
/// coordinate's Morton code is the automaton's input, already in order. One
/// entry consumes two planes, six Morton bits, and emits the two index
/// digits, so an order-`bits` index takes ⌈bits/2⌉ dependent lookups
/// instead of the transpose encoder's two data-dependent loops over bit
/// planes. The table is built from [`HilbertTables3`] once per process and
/// cross-checked against [`hilbert3_encode`] when it is built.
#[derive(Debug)]
pub(crate) struct MortonToHilbert3 {
    /// `table[row | chunk]`, where `row` is 64 × a state and `chunk` the
    /// six Morton bits of two planes (high plane's octant in bits 3..6),
    /// holds `next_row | digits`: the row of the state after both planes
    /// and the two digits, high plane first. Rows 0..24 are the automaton
    /// states. The first 8 entries of row `ODD_ROOT` hold one single-plane
    /// step from the root, indexed by the top plane's octant alone: an odd
    /// order takes that step first. 32 rows of 64 `u16`: 4 KiB, indexed
    /// by an 11-bit value without a bounds check.
    table: [u16; 32 * 64],
}

impl MortonToHilbert3 {
    /// The row an odd order starts from: one plane stepped from the root.
    const ODD_ROOT: usize = 31;

    /// The process-wide table (built on first use, ~µs).
    pub(crate) fn get() -> &'static MortonToHilbert3 {
        static TABLE: std::sync::OnceLock<MortonToHilbert3> = std::sync::OnceLock::new();
        TABLE.get_or_init(MortonToHilbert3::build)
    }

    fn build() -> Self {
        let t = HilbertTables3::get();
        assert!(
            t.states() <= Self::ODD_ROOT,
            "Hilbert automaton has {} states; the two-plane table holds {}",
            t.states(),
            Self::ODD_ROOT
        );
        let entry = |next: u8, digits: u8| (u16::from(next) << 6) | u16::from(digits);
        let mut table = [0u16; 32 * 64];
        for s in 0..t.states() {
            for chunk in 0..64 {
                let (hi, mid) = t.step(s as u8, chunk >> 3);
                let (lo, next) = t.step(mid, chunk & 7);
                table[s * 64 + chunk] = entry(next, (hi << 3) | lo);
            }
        }
        for octant in 0..8 {
            let (digit, next) = t.step(0, octant);
            table[Self::ODD_ROOT * 64 + octant] = entry(next, digit);
        }
        let m = Self { table };
        m.verify();
        m
    }

    /// Cross-check against the transpose encoder at every coordinate of
    /// orders 1–4: both parities of the start row, one and two two-plane
    /// steps. Disagreement means the table must not be used.
    fn verify(&self) {
        for bits in 1..=4u32 {
            let n = 1u32 << bits;
            for z in 0..n {
                for y in 0..n {
                    for x in 0..n {
                        let m = crate::morton::morton3_encode(x, y, z) << (64 - 3 * bits);
                        assert_eq!(
                            self.encode(m, bits),
                            hilbert3_encode(x, y, z, bits),
                            "two-plane Hilbert table diverges from the transpose encoder \
                             at ({x},{y},{z}) bits={bits}"
                        );
                    }
                }
            }
        }
    }

    /// The order-`bits` Hilbert index of the coordinate whose 3D Morton
    /// code (x in bits 0, 3, 6, …) is `m` shifted left by `64 - 3 * bits`:
    /// the code's top plane sits in bits 61..64, so every step takes its
    /// chunk from the top with constant shifts. Identical to
    /// [`hilbert3_encode`] for `1 <= bits <= MAX_BITS3`, and 0 at order 0.
    #[inline]
    pub(crate) fn encode(&self, mut m: u64, bits: u32) -> u64 {
        debug_assert!(bits <= MAX_BITS3, "order {bits} exceeds MAX_BITS3");
        let mut e = 0usize;
        let mut h = 0u64;
        if bits & 1 == 1 {
            e = usize::from(self.table[(Self::ODD_ROOT << 6) | (m >> 61) as usize]);
            h = (e & 63) as u64;
            m <<= 3;
        }
        for _ in 0..bits / 2 {
            e = usize::from(self.table[(e & 0x7c0) | (m >> 58) as usize]);
            h = (h << 6) | (e & 63) as u64;
            m <<= 6;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morton::morton3_encode;

    fn manhattan<const N: usize>(a: [u32; N], b: [u32; N]) -> u32 {
        a.iter().zip(b.iter()).map(|(&p, &q)| p.abs_diff(q)).sum()
    }

    #[test]
    fn roundtrip_2d_exhaustive() {
        for bits in 1..=5u32 {
            let n = 1u32 << bits;
            for y in 0..n {
                for x in 0..n {
                    let h = hilbert2_encode(x, y, bits);
                    assert_eq!(hilbert2_decode(h, bits), (x, y));
                }
            }
        }
    }

    #[test]
    fn roundtrip_3d_exhaustive() {
        for bits in 1..=3u32 {
            let n = 1u32 << bits;
            for z in 0..n {
                for y in 0..n {
                    for x in 0..n {
                        let h = hilbert3_encode(x, y, z, bits);
                        assert_eq!(hilbert3_decode(h, bits), (x, y, z));
                    }
                }
            }
        }
    }

    #[test]
    fn bijection_2d() {
        let bits = 4;
        let n = 1usize << bits;
        let mut seen = vec![false; n * n];
        for y in 0..n as u32 {
            for x in 0..n as u32 {
                let h = hilbert2_encode(x, y, bits) as usize;
                assert!(h < n * n);
                assert!(!seen[h]);
                seen[h] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn hilbert_adjacency_2d() {
        // The defining Hilbert property: consecutive curve positions are
        // unit Manhattan distance apart.
        let bits = 5;
        let total = 1u64 << (2 * bits);
        let mut prev = hilbert_decode::<2>(0, bits);
        for h in 1..total {
            let cur = hilbert_decode::<2>(h, bits);
            assert_eq!(manhattan(prev, cur), 1, "step {h} is not adjacent");
            prev = cur;
        }
    }

    #[test]
    fn hilbert_adjacency_3d() {
        let bits = 3;
        let total = 1u64 << (3 * bits);
        let mut prev = hilbert_decode::<3>(0, bits);
        for h in 1..total {
            let cur = hilbert_decode::<3>(h, bits);
            assert_eq!(manhattan(prev, cur), 1, "step {h} is not adjacent");
            prev = cur;
        }
    }

    #[test]
    fn starts_at_origin() {
        assert_eq!(hilbert2_decode(0, 4), (0, 0));
        assert_eq!(hilbert3_decode(0, 4), (0, 0, 0));
    }

    #[test]
    fn bits_zero_is_identity() {
        assert_eq!(hilbert2_encode(0, 0, 0), 0);
        assert_eq!(hilbert2_decode(0, 0), (0, 0));
    }

    #[test]
    fn order_one_2d_is_u_shape() {
        // At order 1 the curve visits the four cells of a 2x2 square in a
        // U: (0,0) (0,1) (1,1) (1,0) (up to the algorithm's orientation);
        // verify it is some Hamiltonian path with unit steps.
        let cells: Vec<_> = (0..4).map(|h| hilbert2_decode(h, 1)).collect();
        for w in cells.windows(2) {
            let (a, b) = (w[0], w[1]);
            assert_eq!(a.0.abs_diff(b.0) + a.1.abs_diff(b.1), 1);
        }
    }

    #[test]
    fn automaton_closes_at_24_states() {
        // The 3D Hilbert curve uses 24 of the 48 cube isometries (the
        // rotation group); the BFS derivation must close there.
        assert_eq!(HilbertTables3::get().states(), 24);
    }

    #[test]
    fn automaton_encode_matches_transpose_exhaustive() {
        let t = HilbertTables3::get();
        for bits in 1..=4u32 {
            let n = 1u32 << bits;
            for z in 0..n {
                for y in 0..n {
                    for x in 0..n {
                        assert_eq!(t.encode(x, y, z, bits), hilbert3_encode(x, y, z, bits));
                    }
                }
            }
        }
    }

    #[test]
    fn automaton_encode_matches_transpose_random_deep() {
        let t = HilbertTables3::get();
        // Seeded SplitMix64 sweep at orders the exhaustive test can't reach,
        // including the widest supported order.
        let mut s = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            s = s.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        let two_plane = MortonToHilbert3::get();
        for bits in [5u32, 8, 13, MAX_BITS3] {
            let mask = (1u32 << bits) - 1;
            for _ in 0..2000 {
                let r = next();
                let (x, y, z) = (r as u32 & mask, (r >> 21) as u32 & mask, (r >> 42) as u32 & mask);
                let want = hilbert3_encode(x, y, z, bits);
                assert_eq!(t.encode(x, y, z, bits), want);
                let m = morton3_encode(x, y, z) << (64 - 3 * bits);
                assert_eq!(two_plane.encode(m, bits), want);
            }
        }
    }

    /// [`MortonToHilbert3::encode`] against the transpose encoder: every
    /// coordinate at orders 7 and 8, and 10^6 seeded random coordinates at
    /// every order up to `MAX_BITS3` (~5 s in release).
    #[test]
    #[ignore = "exhaustive sweep; run in release with --ignored"]
    fn two_plane_table_matches_transpose_sweep() {
        let t = MortonToHilbert3::get();
        let check = |x: u32, y: u32, z: u32, bits: u32| {
            let m = morton3_encode(x, y, z) << (64 - 3 * bits);
            assert_eq!(
                t.encode(m, bits),
                hilbert3_encode(x, y, z, bits),
                "({x},{y},{z}) bits={bits}"
            );
        };
        for bits in [7u32, 8] {
            let n = 1u32 << bits;
            for z in 0..n {
                for y in 0..n {
                    for x in 0..n {
                        check(x, y, z, bits);
                    }
                }
            }
        }
        let mut rng = crate::rng::SplitMix64::new(0x4b1d_7ab1e);
        for bits in 1..=MAX_BITS3 {
            let n = 1u64 << bits;
            for _ in 0..1_000_000 {
                let [x, y, z] = std::array::from_fn(|_| rng.u64_below(n) as u32);
                check(x, y, z, bits);
            }
        }
    }
}
