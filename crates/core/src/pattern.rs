//! Bit-interleave patterns for Z-order indexing of rectangular domains.
//!
//! Classic Morton interleaving assumes a cube with power-of-two extents. The
//! paper (§V) notes that SFC indexing of other sizes requires padding the
//! backing buffer to powers of two. To keep that padding *per axis* rather
//! than cubing the whole domain, we generalize the interleave: each axis `a`
//! contributes `bits_a = ceil(log2(n_a))` bits, and bit planes are assigned
//! round-robin from the least-significant end across the axes that still
//! have bits remaining. For a power-of-two cube this reduces exactly to
//! classic Morton order; for, say, a 512×512×64 domain the two larger axes
//! simply keep interleaving after the small axis runs out of bits, so the
//! padded buffer is `512*512*64`, not `512³`.
//!
//! The pattern is the single source of truth used to build the paper's
//! per-axis lookup tables (three table lookups + two ORs per access) and to
//! invert storage indices back to coordinates.

use crate::dims::{bits_for, next_pow2, Dims3};

/// Assignment of global index-bit positions to each axis of a 3D domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterleavePattern3 {
    /// Global bit positions (LSB-first) receiving each axis's bits.
    /// `positions[a][t]` is where bit `t` of axis `a`'s coordinate lands.
    positions: [Vec<u32>; 3],
    /// Padded (power-of-two) extent of each axis.
    padded: [usize; 3],
    /// Total number of index bits (`sum of bits per axis`).
    total_bits: u32,
}

impl InterleavePattern3 {
    /// Build the round-robin interleave pattern for `dims`.
    pub fn new(dims: Dims3) -> Self {
        let bits = [bits_for(dims.nx), bits_for(dims.ny), bits_for(dims.nz)];
        let padded = [next_pow2(dims.nx), next_pow2(dims.ny), next_pow2(dims.nz)];
        let mut positions: [Vec<u32>; 3] = [
            Vec::with_capacity(bits[0] as usize),
            Vec::with_capacity(bits[1] as usize),
            Vec::with_capacity(bits[2] as usize),
        ];
        let mut pos = 0u32;
        let max_bits = bits.iter().copied().max().unwrap_or(0);
        for round in 0..max_bits {
            for axis in 0..3 {
                if round < bits[axis] {
                    positions[axis].push(pos);
                    pos += 1;
                }
            }
        }
        debug_assert!(pos <= 64, "domain exceeds 64-bit index space");
        Self {
            positions,
            padded,
            total_bits: pos,
        }
    }

    /// Padded extent of axis `a` (0 = x, 1 = y, 2 = z).
    pub fn padded_extent(&self, axis: usize) -> usize {
        self.padded[axis]
    }

    /// Total storage slots: product of padded extents (`2^total_bits`).
    pub fn storage_len(&self) -> usize {
        1usize << self.total_bits
    }

    /// Number of index bits contributed by axis `a`.
    pub fn axis_bits(&self, axis: usize) -> u32 {
        self.positions[axis].len() as u32
    }

    /// Dilate a single coordinate of axis `a` into its index contribution.
    /// The per-axis lookup tables are just this function tabulated.
    pub fn dilate(&self, axis: usize, coord: usize) -> u64 {
        debug_assert!(coord < self.padded[axis]);
        let mut v = 0u64;
        for (t, &p) in self.positions[axis].iter().enumerate() {
            v |= (((coord >> t) & 1) as u64) << p;
        }
        v
    }

    /// Encode a full coordinate triple (equivalent to OR of three dilations).
    pub fn encode(&self, i: usize, j: usize, k: usize) -> u64 {
        self.dilate(0, i) | self.dilate(1, j) | self.dilate(2, k)
    }

    /// Recover the coordinate triple a storage index maps to (inverse of
    /// [`encode`](Self::encode) over the padded domain).
    pub fn decode(&self, index: u64) -> (usize, usize, usize) {
        debug_assert!(index < self.storage_len() as u64);
        let mut c = [0usize; 3];
        for (coord, positions) in c.iter_mut().zip(&self.positions) {
            for (t, &p) in positions.iter().enumerate() {
                *coord |= (((index >> p) & 1) as usize) << t;
            }
        }
        (c[0], c[1], c[2])
    }

    /// Build the full per-axis lookup table for axis `a`
    /// (the paper's three tables of length `max(xsize, ysize, zsize)`;
    /// here each is exactly its own padded length).
    pub fn build_table(&self, axis: usize) -> Box<[u64]> {
        (0..self.padded[axis])
            .map(|c| self.dilate(axis, c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morton::morton3_encode;

    #[test]
    fn cube_pattern_matches_classic_morton() {
        let p = InterleavePattern3::new(Dims3::cube(16));
        for z in 0..16 {
            for y in 0..16 {
                for x in 0..16 {
                    assert_eq!(
                        p.encode(x, y, z),
                        morton3_encode(x as u32, y as u32, z as u32)
                    );
                }
            }
        }
    }

    #[test]
    fn rectangular_pattern_is_bijective() {
        let dims = Dims3::new(8, 4, 2); // already powers of two, unequal
        let p = InterleavePattern3::new(dims);
        assert_eq!(p.storage_len(), 64);
        let mut seen = [false; 64];
        for k in 0..2 {
            for j in 0..4 {
                for i in 0..8 {
                    let m = p.encode(i, j, k) as usize;
                    assert!(m < 64);
                    assert!(!seen[m], "collision at {m}");
                    seen[m] = true;
                    assert_eq!(p.decode(m as u64), (i, j, k));
                }
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn non_pow2_dims_pad_per_axis() {
        let p = InterleavePattern3::new(Dims3::new(5, 3, 9));
        assert_eq!(p.padded_extent(0), 8);
        assert_eq!(p.padded_extent(1), 4);
        assert_eq!(p.padded_extent(2), 16);
        assert_eq!(p.storage_len(), 8 * 4 * 16);
        assert_eq!(p.axis_bits(0), 3);
        assert_eq!(p.axis_bits(1), 2);
        assert_eq!(p.axis_bits(2), 4);
    }

    #[test]
    fn tables_match_dilate() {
        let p = InterleavePattern3::new(Dims3::new(32, 8, 16));
        for axis in 0..3 {
            let t = p.build_table(axis);
            assert_eq!(t.len(), p.padded_extent(axis));
            for (c, &v) in t.iter().enumerate() {
                assert_eq!(v, p.dilate(axis, c));
            }
        }
    }

    #[test]
    fn decode_covers_padded_domain() {
        let p = InterleavePattern3::new(Dims3::new(4, 2, 8));
        let mut seen = std::collections::HashSet::new();
        for m in 0..p.storage_len() as u64 {
            let (i, j, k) = p.decode(m);
            assert!(i < 4 && j < 2 && k < 8);
            assert!(seen.insert((i, j, k)));
            assert_eq!(p.encode(i, j, k), m);
        }
        assert_eq!(seen.len(), p.storage_len());
    }

    #[test]
    fn degenerate_axis_contributes_no_bits() {
        let p = InterleavePattern3::new(Dims3::new(16, 1, 16));
        assert_eq!(p.axis_bits(1), 0);
        assert_eq!(p.storage_len(), 256);
        assert_eq!(p.dilate(1, 0), 0);
    }

    #[test]
    fn axis_bits_partition_the_index_bits() {
        // Each axis's all-ones coordinate dilates to the bits it owns.
        for dims in [Dims3::cube(16), Dims3::new(5, 3, 9), Dims3::new(16, 1, 16)] {
            let p = InterleavePattern3::new(dims);
            let [mx, my, mz] = [0, 1, 2].map(|a| p.dilate(a, p.padded_extent(a) - 1));
            assert_eq!(mx & my, 0);
            assert_eq!(mx & mz, 0);
            assert_eq!(my & mz, 0);
            let all = (p.storage_len() as u64) - 1;
            assert_eq!(mx | my | mz, all);
            assert_eq!(mx.count_ones(), p.axis_bits(0));
            assert_eq!(my.count_ones(), p.axis_bits(1));
            assert_eq!(mz.count_ones(), p.axis_bits(2));
        }
    }

    #[test]
    fn interleave_keeps_low_bits_low() {
        // The three axes' least-significant bits must occupy the three
        // least-significant index bits — that is what gives Z-order its
        // locality. (Order within the round is x, y, z.)
        let p = InterleavePattern3::new(Dims3::new(64, 64, 64));
        assert_eq!(p.encode(1, 0, 0), 1);
        assert_eq!(p.encode(0, 1, 0), 2);
        assert_eq!(p.encode(0, 0, 1), 4);
    }
}
