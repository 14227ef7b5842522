//! The store's versioned, checksummed manifest.
//!
//! The manifest is the *only* file a reader trusts a priori: it is
//! published atomically (temp + fsync + rename via
//! [`sfc_harness::durable::write_atomic`]-family calls), carries a
//! trailing FNV-1a 64 over its own bytes, and records the expected
//! FNV-1a 64 of every brick slot in the data file. A store without an
//! intact manifest is an *unfinished import* — `BrickStore::open`
//! refuses it with a typed error and `BrickStore::recover` rebuilds it
//! from the journal.
//!
//! On-disk layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     4  magic "SFCM"
//!      4     4  version (currently 1)
//!      8     8  nx
//!     16     8  ny
//!     24     8  nz
//!     32     4  brick edge (voxels)
//!     36     4  brick order (LayoutKind: 0=a 1=z 2=tiled 3=hilbert)
//!     40     8  slot count
//!     48   16n  per slot: brick id (u64), brick checksum (FNV-1a 64)
//!  48+16n     8  FNV-1a 64 of bytes [0, 48+16n)
//! ```
//!
//! Slot *s* of the data file holds the brick whose row-major id is
//! `slots[s]`; the slot order is the space-filling-curve traversal of
//! the brick grid chosen at import time, so spatially adjacent bricks
//! are adjacent on disk.

use sfc_core::{Dims3, LayoutKind, SfcError, SfcResult};

use sfc_core::fnv1a64;

/// Manifest magic bytes.
pub const MANIFEST_MAGIC: &[u8; 4] = b"SFCM";
/// Current manifest format version.
pub const MANIFEST_VERSION: u32 = 1;
/// Fixed-size header length (before the slot table).
const HEADER: usize = 4 + 4 + 8 + 8 + 8 + 4 + 4 + 8;
/// Bytes per slot-table entry.
const ENTRY: usize = 8 + 8;

/// One slot of the data file: which brick lives there and what its
/// payload must hash to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotEntry {
    /// Row-major brick id (see `sfc_datagen::BrickGeom::brick_id`).
    pub brick_id: u64,
    /// FNV-1a 64 of the slot's `4·edge³` payload bytes.
    pub checksum: u64,
}

/// Parsed, validated manifest contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Logical volume dimensions.
    pub dims: Dims3,
    /// Brick edge in voxels.
    pub edge: u32,
    /// Space-filling curve ordering the bricks on disk.
    pub order: LayoutKind,
    /// Slot table, in data-file slot order.
    pub slots: Vec<SlotEntry>,
}

/// The on-disk code of a brick order, shared by the manifest and the
/// journal's META record.
pub(crate) fn kind_code(kind: LayoutKind) -> u32 {
    match kind {
        LayoutKind::ArrayOrder => 0,
        LayoutKind::ZOrder => 1,
        LayoutKind::Tiled => 2,
        LayoutKind::Hilbert => 3,
    }
}

/// The brick order an on-disk code names, or `None` for an unknown code.
pub(crate) fn kind_from_code(code: u32) -> Option<LayoutKind> {
    match code {
        0 => Some(LayoutKind::ArrayOrder),
        1 => Some(LayoutKind::ZOrder),
        2 => Some(LayoutKind::Tiled),
        3 => Some(LayoutKind::Hilbert),
        _ => None,
    }
}

fn corrupt(what: &str, reason: impl Into<String>) -> SfcError {
    SfcError::Corrupt {
        what: what.to_string(),
        reason: reason.into(),
    }
}

fn rd_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("length pre-checked"))
}

fn rd_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("length pre-checked"))
}

impl Manifest {
    /// Serialize to the on-disk byte layout (trailing self-checksum
    /// included).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER + ENTRY * self.slots.len() + 8);
        out.extend_from_slice(MANIFEST_MAGIC);
        out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.dims.nx as u64).to_le_bytes());
        out.extend_from_slice(&(self.dims.ny as u64).to_le_bytes());
        out.extend_from_slice(&(self.dims.nz as u64).to_le_bytes());
        out.extend_from_slice(&self.edge.to_le_bytes());
        out.extend_from_slice(&kind_code(self.order).to_le_bytes());
        out.extend_from_slice(&(self.slots.len() as u64).to_le_bytes());
        for s in &self.slots {
            out.extend_from_slice(&s.brick_id.to_le_bytes());
            out.extend_from_slice(&s.checksum.to_le_bytes());
        }
        let sum = fnv1a64(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Parse and validate manifest bytes. Every failure is a typed
    /// [`SfcError`] naming the integrity check that failed — corrupt or
    /// truncated manifests must never panic.
    pub fn parse(bytes: &[u8], what: &str) -> SfcResult<Self> {
        if bytes.len() < HEADER + 8 {
            return Err(corrupt(
                what,
                format!("manifest truncated: {} bytes < minimum {}", bytes.len(), HEADER + 8),
            ));
        }
        if &bytes[0..4] != MANIFEST_MAGIC {
            return Err(corrupt(what, "bad magic (not an SFCM manifest)"));
        }
        let version = rd_u32(bytes, 4);
        if version != MANIFEST_VERSION {
            return Err(corrupt(
                what,
                format!("unsupported manifest version {version} (expected {MANIFEST_VERSION})"),
            ));
        }
        // Verify the whole-file checksum before trusting any count field:
        // a bit flip in `nslots` must not drive the slot-table walk.
        let body_len = bytes.len() - 8;
        let want = rd_u64(bytes, body_len);
        let got = fnv1a64(&bytes[..body_len]);
        if want != got {
            return Err(corrupt(
                what,
                format!("manifest checksum mismatch: stored {want:#018x}, computed {got:#018x}"),
            ));
        }
        let nx = rd_u64(bytes, 8);
        let ny = rd_u64(bytes, 16);
        let nz = rd_u64(bytes, 24);
        let to_usize = |v: u64, axis: &str| -> SfcResult<usize> {
            usize::try_from(v)
                .map_err(|_| corrupt(what, format!("dimension {axis}={v} exceeds usize")))
        };
        let dims = Dims3::try_new(
            to_usize(nx, "nx")?,
            to_usize(ny, "ny")?,
            to_usize(nz, "nz")?,
        )?;
        let edge = rd_u32(bytes, 32);
        if edge == 0 {
            return Err(corrupt(what, "brick edge 0"));
        }
        let order = kind_from_code(rd_u32(bytes, 36))
            .ok_or_else(|| corrupt(what, format!("unknown brick order code {}", rd_u32(bytes, 36))))?;
        let nslots = rd_u64(bytes, 40);
        let nslots = to_usize(nslots, "nslots")?;
        let expect_len = HEADER + ENTRY * nslots + 8;
        if bytes.len() != expect_len {
            return Err(corrupt(
                what,
                format!(
                    "slot table size mismatch: {} slots need {expect_len} bytes, file has {}",
                    nslots,
                    bytes.len()
                ),
            ));
        }
        let mut slots = Vec::with_capacity(nslots);
        for s in 0..nslots {
            let at = HEADER + ENTRY * s;
            slots.push(SlotEntry {
                brick_id: rd_u64(bytes, at),
                checksum: rd_u64(bytes, at + 8),
            });
        }
        Ok(Self { dims, edge, order, slots })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            dims: Dims3::new(9, 6, 4),
            edge: 4,
            order: LayoutKind::ZOrder,
            slots: vec![
                SlotEntry { brick_id: 0, checksum: 0xdead_beef },
                SlotEntry { brick_id: 3, checksum: 1 },
                SlotEntry { brick_id: 1, checksum: u64::MAX },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        let bytes = m.encode();
        assert_eq!(Manifest::parse(&bytes, "test").unwrap(), m);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sample().encode();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut b = bytes.clone();
                b[byte] ^= 1 << bit;
                assert!(
                    Manifest::parse(&b, "test").is_err(),
                    "flip of byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            let err = Manifest::parse(&bytes[..cut], "test").unwrap_err();
            assert!(
                matches!(err, SfcError::Corrupt { .. } | SfcError::InvalidDims { .. }),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn all_orders_roundtrip() {
        for kind in LayoutKind::ALL {
            let m = Manifest { order: kind, ..sample() };
            assert_eq!(Manifest::parse(&m.encode(), "t").unwrap().order, kind);
        }
    }
}
