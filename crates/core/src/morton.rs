//! Morton (Z-order) curve encoding and decoding.
//!
//! 2D and 3D codecs by branch-free parallel bit dilation and contraction
//! (multiply-free shift/mask sequences). The layout machinery in
//! [`crate::layouts::zorder`] uses *per-axis full tables* instead (the
//! paper's scheme, after Pascucci & Frank 2001), which amortize the dilation
//! entirely into grid-sized tables built once at initialization. Its tests
//! check those tables against [`morton2_encode`] and [`morton3_encode`],
//! and [`part1by2`] builds the Hilbert layout's dilation table.
//!
//! Coordinate capacity: 2D supports 32 bits per axis, 3D supports 21 bits
//! per axis (63 bits total), far beyond any in-memory grid.

/// Spread the low 32 bits of `x` so bit `i` moves to bit `2i`.
#[inline]
pub fn part1by1(x: u32) -> u64 {
    let mut x = x as u64;
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

/// Inverse of [`part1by1`]: gather every second bit back into a dense word.
#[inline]
pub fn compact1by1(x: u64) -> u32 {
    let mut x = x & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x >> 4)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x >> 16)) & 0x0000_0000_FFFF_FFFF;
    x as u32
}

/// Spread the low 21 bits of `x` so bit `i` moves to bit `3i`.
#[inline]
pub fn part1by2(x: u32) -> u64 {
    let mut x = (x as u64) & 0x1F_FFFF;
    x = (x | (x << 32)) & 0x001F_0000_0000_FFFF;
    x = (x | (x << 16)) & 0x001F_0000_FF00_00FF;
    x = (x | (x << 8)) & 0x100F_00F0_0F00_F00F;
    x = (x | (x << 4)) & 0x10C3_0C30_C30C_30C3;
    x = (x | (x << 2)) & 0x1249_2492_4924_9249;
    x
}

/// Inverse of [`part1by2`]: gather every third bit back into a dense word.
#[inline]
pub fn compact1by2(x: u64) -> u32 {
    let mut x = x & 0x1249_2492_4924_9249;
    x = (x | (x >> 2)) & 0x10C3_0C30_C30C_30C3;
    x = (x | (x >> 4)) & 0x100F_00F0_0F00_F00F;
    x = (x | (x >> 8)) & 0x001F_0000_FF00_00FF;
    x = (x | (x >> 16)) & 0x001F_0000_0000_FFFF;
    x = (x | (x >> 32)) & 0x0000_0000_001F_FFFF;
    x as u32
}

/// Encode a 2D coordinate into its Morton index (x occupies even bits).
#[inline]
pub fn morton2_encode(x: u32, y: u32) -> u64 {
    part1by1(x) | (part1by1(y) << 1)
}

/// Decode a 2D Morton index back into `(x, y)`.
#[inline]
pub fn morton2_decode(m: u64) -> (u32, u32) {
    (compact1by1(m), compact1by1(m >> 1))
}

/// Encode a 3D coordinate into its Morton index (x occupies bits 0, 3, 6, …).
///
/// # Panics
/// Debug-asserts that each coordinate fits in 21 bits.
#[inline]
pub fn morton3_encode(x: u32, y: u32, z: u32) -> u64 {
    debug_assert!(x < (1 << 21) && y < (1 << 21) && z < (1 << 21));
    part1by2(x) | (part1by2(y) << 1) | (part1by2(z) << 2)
}

/// Decode a 3D Morton index back into `(x, y, z)`.
#[inline]
pub fn morton3_decode(m: u64) -> (u32, u32, u32) {
    (compact1by2(m), compact1by2(m >> 1), compact1by2(m >> 2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn part_compact_roundtrip_1by1() {
        for x in [0u32, 1, 2, 3, 0xFF, 0xFFFF, 0xFFFF_FFFF, 0x1234_5678] {
            assert_eq!(compact1by1(part1by1(x)), x);
        }
    }

    #[test]
    fn part_compact_roundtrip_1by2() {
        for x in [0u32, 1, 2, 3, 0xFF, 0xFFFF, 0x1F_FFFF, 0x12_3456] {
            assert_eq!(compact1by2(part1by2(x)), x);
        }
    }

    #[test]
    fn morton2_known_values() {
        // Classic Z pattern over a 2x2 block: (0,0)=0 (1,0)=1 (0,1)=2 (1,1)=3.
        assert_eq!(morton2_encode(0, 0), 0);
        assert_eq!(morton2_encode(1, 0), 1);
        assert_eq!(morton2_encode(0, 1), 2);
        assert_eq!(morton2_encode(1, 1), 3);
        assert_eq!(morton2_encode(2, 0), 4);
        assert_eq!(morton2_encode(7, 7), 63);
    }

    #[test]
    fn morton3_known_values() {
        assert_eq!(morton3_encode(0, 0, 0), 0);
        assert_eq!(morton3_encode(1, 0, 0), 1);
        assert_eq!(morton3_encode(0, 1, 0), 2);
        assert_eq!(morton3_encode(1, 1, 0), 3);
        assert_eq!(morton3_encode(0, 0, 1), 4);
        assert_eq!(morton3_encode(1, 1, 1), 7);
        assert_eq!(morton3_encode(2, 0, 0), 8);
        assert_eq!(morton3_encode(7, 7, 7), 511);
    }

    #[test]
    fn morton2_roundtrip_exhaustive_small() {
        for y in 0..64u32 {
            for x in 0..64u32 {
                assert_eq!(morton2_decode(morton2_encode(x, y)), (x, y));
            }
        }
    }

    #[test]
    fn morton3_roundtrip_exhaustive_small() {
        for z in 0..16u32 {
            for y in 0..16u32 {
                for x in 0..16u32 {
                    assert_eq!(morton3_decode(morton3_encode(x, y, z)), (x, y, z));
                }
            }
        }
    }

    #[test]
    fn morton3_is_bijection_on_cube() {
        let mut seen = vec![false; 512];
        for z in 0..8u32 {
            for y in 0..8u32 {
                for x in 0..8u32 {
                    let m = morton3_encode(x, y, z) as usize;
                    assert!(m < 512, "index escaped the cube");
                    assert!(!seen[m], "collision at {m}");
                    seen[m] = true;
                }
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn morton3_locality_adjacent_x() {
        // Adjacent-in-x coordinates inside an aligned 2-block differ by 1.
        assert_eq!(
            morton3_encode(4, 2, 6) + 1,
            morton3_encode(5, 2, 6),
            "x neighbor within an even-aligned pair is contiguous"
        );
    }
}
