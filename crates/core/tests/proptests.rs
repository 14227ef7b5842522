//! Property-style tests for the layout invariants every implementation must
//! uphold (see `Layout3` trait docs): in-range, injective, invertible.
//!
//! Implemented as seeded deterministic sweeps over `SplitMix64` so the
//! workspace stays dependency-free; each test explores hundreds of random
//! cases and every failure reproduces exactly.

use sfc_core::{
    hilbert::{hilbert2_decode, hilbert2_encode, hilbert3_decode, hilbert3_encode},
    morton::{
        compact1by1, compact1by2, morton2_decode, morton2_encode, morton3_decode,
        morton3_encode, morton3_encode_lut, part1by1, part1by2,
    },
    ArrayOrder3, Dims3, Grid3, HilbertOrder3, Layout3, SplitMix64, Tiled3, ZOrder3,
};

#[test]
fn morton2_roundtrip() {
    let mut rng = SplitMix64::new(0x1001);
    for _ in 0..512 {
        let (x, y) = (rng.next_u32(), rng.next_u32());
        assert_eq!(morton2_decode(morton2_encode(x, y)), (x, y));
    }
}

#[test]
fn morton3_roundtrip() {
    let mut rng = SplitMix64::new(0x1002);
    for _ in 0..512 {
        let x = rng.next_u32() & ((1 << 21) - 1);
        let y = rng.next_u32() & ((1 << 21) - 1);
        let z = rng.next_u32() & ((1 << 21) - 1);
        assert_eq!(morton3_decode(morton3_encode(x, y, z)), (x, y, z));
    }
}

#[test]
fn morton3_lut_agrees_with_magic() {
    let mut rng = SplitMix64::new(0x1003);
    for _ in 0..512 {
        let x = rng.next_u32() & ((1 << 21) - 1);
        let y = rng.next_u32() & ((1 << 21) - 1);
        let z = rng.next_u32() & ((1 << 21) - 1);
        assert_eq!(morton3_encode_lut(x, y, z), morton3_encode(x, y, z));
    }
}

#[test]
fn dilation_roundtrips() {
    let mut rng = SplitMix64::new(0x1004);
    for _ in 0..512 {
        let x = rng.next_u32();
        assert_eq!(compact1by1(part1by1(x)), x);
        assert_eq!(compact1by2(part1by2(x & 0x1F_FFFF)), x & 0x1F_FFFF);
    }
}

#[test]
fn morton3_monotone_in_aligned_block() {
    let mut rng = SplitMix64::new(0x1005);
    for _ in 0..512 {
        // Within an even-aligned 2-block, the x step is exactly +1.
        let x = (rng.next_u32() & ((1 << 20) - 1)) * 2;
        let y = (rng.next_u32() & ((1 << 20) - 1)) * 2;
        let z = (rng.next_u32() & ((1 << 20) - 1)) * 2;
        assert_eq!(morton3_encode(x + 1, y, z), morton3_encode(x, y, z) + 1);
        assert_eq!(morton3_encode(x, y + 1, z), morton3_encode(x, y, z) + 2);
        assert_eq!(morton3_encode(x, y, z + 1), morton3_encode(x, y, z) + 4);
    }
}

#[test]
fn hilbert2_roundtrip() {
    let mut rng = SplitMix64::new(0x1006);
    for _ in 0..512 {
        let bits = 1 + (rng.next_u32() % 15);
        let h = rng.next_u64() & ((1u64 << (2 * bits)) - 1);
        let (x, y) = hilbert2_decode(h, bits);
        assert_eq!(hilbert2_encode(x, y, bits), h);
    }
}

#[test]
fn hilbert3_roundtrip() {
    let mut rng = SplitMix64::new(0x1007);
    for _ in 0..512 {
        let bits = 1 + (rng.next_u32() % 9);
        let h = rng.next_u64() & ((1u64 << (3 * bits)) - 1);
        let (x, y, z) = hilbert3_decode(h, bits);
        assert_eq!(hilbert3_encode(x, y, z, bits), h);
    }
}

#[test]
fn hilbert3_consecutive_indices_are_adjacent() {
    let mut rng = SplitMix64::new(0x1008);
    for _ in 0..512 {
        let bits = 1 + (rng.next_u32() % 5);
        let total = 1u64 << (3 * bits);
        let h = rng.next_u64() % (total - 1);
        let (ax, ay, az) = hilbert3_decode(h, bits);
        let (bx, by, bz) = hilbert3_decode(h + 1, bits);
        let d = ax.abs_diff(bx) + ay.abs_diff(by) + az.abs_diff(bz);
        assert_eq!(d, 1, "curve step must be unit Manhattan distance");
    }
}

/// Modest random grid dimensions (products stay small enough for
/// exhaustive per-cell checks).
fn small_dims(rng: &mut SplitMix64) -> Dims3 {
    Dims3::new(rng.usize_in(1, 20), rng.usize_in(1, 20), rng.usize_in(1, 20))
}

fn layout_invariants<L: Layout3>(dims: Dims3) {
    let l = L::new(dims);
    assert!(l.storage_len() >= dims.len());
    let mut seen = std::collections::HashSet::new();
    for (i, j, k) in dims.iter() {
        let s = l.index(i, j, k);
        assert!(s < l.storage_len(), "index out of storage range");
        assert!(seen.insert(s), "layout not injective at ({i},{j},{k})");
        assert_eq!(l.coords(s), (i, j, k), "coords() must invert index()");
    }
}

#[test]
fn array_order_invariants() {
    let mut rng = SplitMix64::new(0x2001);
    for _ in 0..64 {
        layout_invariants::<ArrayOrder3>(small_dims(&mut rng));
    }
}

#[test]
fn zorder_invariants() {
    let mut rng = SplitMix64::new(0x2002);
    for _ in 0..64 {
        layout_invariants::<ZOrder3>(small_dims(&mut rng));
    }
}

#[test]
fn tiled_invariants() {
    let mut rng = SplitMix64::new(0x2003);
    for _ in 0..64 {
        layout_invariants::<Tiled3>(small_dims(&mut rng));
    }
}

#[test]
fn hilbert_invariants() {
    let mut rng = SplitMix64::new(0x2004);
    for _ in 0..64 {
        layout_invariants::<HilbertOrder3>(small_dims(&mut rng));
    }
}

#[test]
fn zorder_has_no_padding_for_pow2() {
    for bx in 0u32..5 {
        for by in 0u32..5 {
            for bz in 0u32..5 {
                let dims = Dims3::new(1 << bx, 1 << by, 1 << bz);
                let l = ZOrder3::new(dims);
                assert_eq!(l.storage_len(), dims.len());
                assert_eq!(l.padding_overhead(), 0.0);
            }
        }
    }
}

#[test]
fn grid_convert_roundtrip() {
    let mut rng = SplitMix64::new(0x2005);
    for _ in 0..64 {
        let dims = small_dims(&mut rng);
        let seed = rng.next_u64();
        // Pseudo-random but deterministic cell values from the seed.
        let v = move |i: usize, j: usize, k: usize| {
            let mut h = seed ^ ((i as u64) << 40) ^ ((j as u64) << 20) ^ (k as u64);
            h ^= h >> 33;
            h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            (h & 0xFFFF) as f32
        };
        let a = Grid3::<f32, ArrayOrder3>::from_fn(dims, v);
        let z: Grid3<f32, ZOrder3> = a.convert();
        let t: Grid3<f32, Tiled3> = z.convert();
        let h: Grid3<f32, HilbertOrder3> = t.convert();
        assert_eq!(a.to_row_major(), h.to_row_major());
    }
}

#[test]
fn storage_order_iteration_matches_logical_set() {
    let mut rng = SplitMix64::new(0x2006);
    for _ in 0..64 {
        let dims = small_dims(&mut rng);
        let g = Grid3::<f32, ZOrder3>::from_fn(dims, |i, j, k| (i + j * 31 + k * 977) as f32);
        let mut from_storage: Vec<_> = g.iter_storage_order().collect();
        from_storage.sort_by_key(|a| a.0);
        let mut logical: Vec<_> = g.iter_logical().collect();
        logical.sort_by_key(|a| a.0);
        assert_eq!(from_storage, logical);
    }
}

/// `gather_axis_run` on a grid of layout `L`, against one `get` and the
/// row-major source value per coordinate: along every axis, the full
/// pencil from the row's start and random runs that start off the origin
/// and stop short of the far face.
fn gather_matches_per_get_reads<L: Layout3>(seed: u64) {
    use sfc_core::{Axis, Volume3};
    let mut rng = SplitMix64::new(seed);
    for _ in 0..24 {
        let dims = small_dims(&mut rng);
        let values: Vec<f32> = (0..dims.len()).map(|v| v as f32 * 0.13).collect();
        let g = Grid3::<f32, L>::from_row_major(dims, &values);
        for axis in Axis::ALL {
            let extent = axis.extent(dims);
            for run in 0..4 {
                let (mut i, mut j, mut k) = (
                    rng.usize_in(0, dims.nx),
                    rng.usize_in(0, dims.ny),
                    rng.usize_in(0, dims.nz),
                );
                let start = match axis {
                    Axis::X => &mut i,
                    Axis::Y => &mut j,
                    Axis::Z => &mut k,
                };
                let n = if run == 0 {
                    *start = 0;
                    extent
                } else {
                    rng.usize_in(0, extent - *start + 1)
                };
                let mut got = vec![f32::NAN; n];
                g.gather_axis_run(i, j, k, axis, &mut got);
                for (t, &v) in got.iter().enumerate() {
                    let (ci, cj, ck) = match axis {
                        Axis::X => (i + t, j, k),
                        Axis::Y => (i, j + t, k),
                        Axis::Z => (i, j, k + t),
                    };
                    let at = format!(
                        "{:?} {axis:?} run from ({i},{j},{k}) at t={t} in {dims:?}",
                        L::KIND
                    );
                    assert_eq!(v.to_bits(), g.get(ci, cj, ck).to_bits(), "{at}");
                    let row_major = (ck * dims.ny + cj) * dims.nx + ci;
                    assert_eq!(v.to_bits(), values[row_major].to_bits(), "{at}");
                }
            }
        }
    }
}

#[test]
fn gather_axis_run_matches_per_get_reads() {
    gather_matches_per_get_reads::<ArrayOrder3>(0x3001);
    gather_matches_per_get_reads::<ZOrder3>(0x3002);
    gather_matches_per_get_reads::<Tiled3>(0x3003);
    gather_matches_per_get_reads::<HilbertOrder3>(0x3004);
}
