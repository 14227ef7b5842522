//! Microbench for the paper's §III-C claim: with both index computations
//! table-driven, array order and Z-order cost "more or less the same", so
//! measured kernel differences reflect memory layout, not index
//! arithmetic. The paper's array order takes two lookups and two adds and
//! its Z-order three lookups and two ORs; here array, Z and tiled order
//! are one separable layout, three lookups and two adds each, so they run
//! the same code on different tables (DESIGN.md §5.8). Hilbert cannot be
//! split into per-axis tables; its table-driven index (one dilation
//! table, then ⌈bits/2⌉ dependent two-plane lookups) still costs several
//! times theirs, though far less than the transpose encoder it replaced.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use sfc_core::{ArrayOrder3, Dims3, HilbertOrder3, Layout3, Tiled3, ZOrder3};

fn bench_indexers(c: &mut Criterion) {
    let dims = Dims3::cube(256);
    let a = ArrayOrder3::new(dims);
    let z = ZOrder3::new(dims);
    let t = Tiled3::new(dims);
    let h = HilbertOrder3::new(dims);

    // A fixed pseudo-random coordinate stream (identical for all layouts).
    let mut state = 42u64;
    let pts: Vec<(usize, usize, usize)> = (0..8192)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (
                (state >> 10) as usize & 255,
                (state >> 25) as usize & 255,
                (state >> 40) as usize & 255,
            )
        })
        .collect();

    let mut g = c.benchmark_group("get_index");
    g.throughput(Throughput::Elements(pts.len() as u64));
    g.bench_function("array_order_tables", |b| b.iter(|| lookups(&a, &pts)));
    g.bench_function("zorder_tables", |b| b.iter(|| lookups(&z, &pts)));
    g.bench_function("tiled_tables", |b| b.iter(|| lookups(&t, &pts)));
    g.bench_function("hilbert_per_access", |b| b.iter(|| lookups(&h, &pts)));
    g.finish();
}

/// XOR of the indices of `pts` under `l`. Out of line, so each layout's
/// lookup loop is compiled in a function of its own and keeps its table
/// pointers in registers, whatever else the caller holds.
#[inline(never)]
fn lookups<L: Layout3>(l: &L, pts: &[(usize, usize, usize)]) -> usize {
    let mut acc = 0usize;
    for &(i, j, k) in pts {
        acc ^= l.index(black_box(i), black_box(j), black_box(k));
    }
    acc
}

criterion_group!(benches, bench_indexers);
criterion_main!(benches);
