//! Concrete layout implementations: array, Z and tiled order, three
//! orders of one separable table layout ([`separable`]), and Hilbert
//! order.

pub mod array_order;
pub mod hilbert_layout;
pub mod separable;
pub mod tiled;
pub mod zorder;

pub use array_order::{ArrayOrder2, ArrayOrder3, RowMajor};
pub use hilbert_layout::{HilbertOrder2, HilbertOrder3};
pub use separable::{Separable2, Separable3, SeparableOrder};
pub use tiled::{Bricked, Tiled2, Tiled3, DEFAULT_BRICK_3D, DEFAULT_TILE_2D};
pub use zorder::{Interleaved, ZOrder2, ZOrder3};
