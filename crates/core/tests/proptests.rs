//! Property-style tests for the layout invariants every implementation must
//! uphold (see `Layout3` trait docs): in-range, injective, invertible.
//!
//! Implemented as seeded deterministic sweeps over `SplitMix64` so the
//! workspace stays dependency-free; each test explores hundreds of random
//! cases and every failure reproduces exactly.

use sfc_core::{
    fnv1a64,
    hilbert::{hilbert2_decode, hilbert2_encode, hilbert3_decode, hilbert3_encode},
    morton::{
        compact1by1, compact1by2, morton2_decode, morton2_encode, morton3_decode, morton3_encode,
        part1by1, part1by2,
    },
    ArrayOrder2, ArrayOrder3, Dims2, Dims3, Grid3, HilbertOrder3, Layout2, Layout3, SplitMix64,
    Tiled2, Tiled3, ZOrder2, ZOrder3,
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

/// `(storage_len, h)`, where `h` is the FNV-1a hash of every slot the
/// layout gives, in row-major coordinate order, each as a little-endian
/// `u64`.
fn slot_hash(storage_len: usize, slots: impl Iterator<Item = usize>) -> (usize, u64) {
    let bytes: Vec<u8> = slots.flat_map(|s| (s as u64).to_le_bytes()).collect();
    (storage_len, fnv1a64(&bytes))
}

fn slot_hash3<L: Layout3>(dims: Dims3) -> (usize, u64) {
    let l = L::new(dims);
    slot_hash(
        l.storage_len(),
        dims.iter().map(|(i, j, k)| l.index(i, j, k)),
    )
}

fn slot_hash2<L: Layout2>(dims: Dims2) -> (usize, u64) {
    let l = L::new(dims);
    slot_hash(l.storage_len(), dims.iter().map(|(i, j)| l.index(i, j)))
}

/// Every slot of array, Z and tiled order stays where the three
/// hand-written layouts that preceded the separable one put it: per size,
/// `(storage_len, slot hash)` for array, Z and tiled order. The sizes
/// cover 1-voxel axes, axes that Z-order pads to a power of two and tiled
/// order to whole bricks, and a flat 3D grid, whose tiles are 8^3 bricks
/// where the 2D layout's are 32^2 tiles. A table that moves one slot
/// fails here, where the memsim counts and the bitwise pins would notice
/// only far from the cause.
#[test]
fn table_layout_slots_are_frozen() {
    let layouts_3d = [
        (
            (1, 1, 1),
            [
                (1, 0xa8c7f832281a39c5),
                (1, 0xa8c7f832281a39c5),
                (512, 0xa8c7f832281a39c5),
            ],
        ),
        (
            (5, 3, 2),
            [
                (30, 0xad3f3e0237073944),
                (64, 0x8cecd1668586af61),
                (512, 0xe1769752ec261b25),
            ],
        ),
        (
            (9, 4, 4),
            [
                (144, 0xbd2db8e6c49adf25),
                (256, 0x3916d7360d57ea25),
                (1024, 0x5a2045ca63ee1ba5),
            ],
        ),
        (
            (13, 7, 5),
            [
                (455, 0x2d6e82b10dfe2c95),
                (1024, 0xf3b5946f5c4476f6),
                (1024, 0xd7fc8d31e17413d4),
            ],
        ),
        (
            (17, 3, 9),
            [
                (459, 0xb5c7e08c7119b4fd),
                (2048, 0x661d106da3ba9361),
                (3072, 0xdc180f8fef69c9a7),
            ],
        ),
        (
            (33, 17, 1),
            [
                (561, 0xe3c6db8b88e8a3bf),
                (2048, 0xcc9015627c10da03),
                (7680, 0x0d93c3b111822041),
            ],
        ),
        (
            (64, 64, 64),
            [
                (262144, 0x330c0b30af3fc325),
                (262144, 0xcdec387f68e75b25),
                (262144, 0xaf23baaf849ccb25),
            ],
        ),
    ];
    let layouts_2d = [
        (
            (33, 17),
            [
                (561, 0xe3c6db8b88e8a3bf),
                (2048, 0xcc9015627c10da03),
                (2048, 0x0e632faae8b2b423),
            ],
        ),
        (
            (32, 4),
            [
                (128, 0xdaae756b97d6bf25),
                (128, 0x3cc4c37ebe0b7f25),
                (1024, 0xdaae756b97d6bf25),
            ],
        ),
    ];
    for ((nx, ny, nz), [array, z, tiled]) in layouts_3d {
        let dims = Dims3::new(nx, ny, nz);
        assert_eq!(
            slot_hash3::<ArrayOrder3>(dims),
            array,
            "array order {dims:?}"
        );
        assert_eq!(slot_hash3::<ZOrder3>(dims), z, "Z-order {dims:?}");
        assert_eq!(slot_hash3::<Tiled3>(dims), tiled, "tiled order {dims:?}");
    }
    for ((nx, ny), [array, z, tiled]) in layouts_2d {
        let dims = Dims2::new(nx, ny);
        assert_eq!(
            slot_hash2::<ArrayOrder2>(dims),
            array,
            "array order {dims:?}"
        );
        assert_eq!(slot_hash2::<ZOrder2>(dims), z, "Z-order {dims:?}");
        assert_eq!(slot_hash2::<Tiled2>(dims), tiled, "tiled order {dims:?}");
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
