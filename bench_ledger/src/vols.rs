//! One volume in each of the four layouts, reusing the service's
//! [`CachedVolume`] enum as the layout-tagged holder.

use sfc_core::{Dims3, Grid3};
use sfc_server::{CachedVolume, LayoutChoice};

/// Run `$body` with `$g` bound to the layout-typed grid inside a
/// [`CachedVolume`], so one generic call covers all four layouts.
macro_rules! on_volume {
    ($vol:expr, |$g:ident| $body:expr) => {
        match $vol {
            sfc_server::CachedVolume::Array($g) => $body,
            sfc_server::CachedVolume::Z($g) => $body,
            sfc_server::CachedVolume::Tiled($g) => $body,
            sfc_server::CachedVolume::Hilbert($g) => $body,
        }
    };
}
pub(crate) use on_volume;

/// Lay out row-major `values` in `layout`.
pub fn volume_in(layout: LayoutChoice, dims: Dims3, values: &[f32]) -> CachedVolume {
    match layout {
        LayoutChoice::Array => CachedVolume::Array(Grid3::from_row_major(dims, values)),
        LayoutChoice::Z => CachedVolume::Z(Grid3::from_row_major(dims, values)),
        LayoutChoice::Tiled => CachedVolume::Tiled(Grid3::from_row_major(dims, values)),
        LayoutChoice::Hilbert => CachedVolume::Hilbert(Grid3::from_row_major(dims, values)),
    }
}

/// `values` in all four layouts, in [`LayoutChoice::ALL`] order.
pub fn all_layouts(dims: Dims3, values: &[f32]) -> Vec<CachedVolume> {
    LayoutChoice::ALL
        .iter()
        .map(|&l| volume_in(l, dims, values))
        .collect()
}
