//! Output verification: hashes of results, agreement across layouts and
//! passes, and the checks every service reply must pass.

use std::collections::HashMap;

use sfc_server::RespHeader;

/// FNV-1a 64 over the little-endian bytes of `values` (no allocation).
pub fn hash_f32(values: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// FNV-1a 64 of a byte body (same function as [`hash_f32`] on its bytes).
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    sfc_core::fnv1a64(bytes)
}

/// Results that must agree: the first hash seen under a key becomes the
/// reference, and every later hash under that key must equal it.
#[derive(Debug, Default)]
pub struct Agreement {
    first: HashMap<String, u64>,
}

impl Agreement {
    /// Check `hash` against the reference for `key`; true when it agrees
    /// (or is the first).
    pub fn check(&mut self, key: &str, hash: u64) -> bool {
        *self.first.entry(key.to_string()).or_insert(hash) == hash
    }
}

/// Why a service reply does not count as a success.
pub fn reply_problem(
    header: &RespHeader,
    body: &[u8],
    expected_len: usize,
    expected_hash: Option<u64>,
) -> Option<String> {
    let h = match header {
        RespHeader::Ok(h) => h,
        other => return Some(format!("not ok: {}", other.format())),
    };
    if h.dedup {
        return Some("dedup=1 reply carries another request's result".into());
    }
    if !h.whole || h.failed > 0 || h.downgraded > 0 {
        return Some(format!("degraded reply: {}", header.format()));
    }
    if body.len() != expected_len || h.bytes != expected_len {
        return Some(format!(
            "body length {} (header {}), expected {expected_len}",
            body.len(),
            h.bytes
        ));
    }
    match expected_hash {
        Some(want) if hash_bytes(body) != want => Some("body differs from the Plain oracle".into()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc_server::{f32_bytes, OkHeader};

    fn ok(bytes: usize) -> RespHeader {
        RespHeader::Ok(OkHeader {
            bytes,
            whole: true,
            ..OkHeader::default()
        })
    }

    #[test]
    fn hashes_agree_between_floats_and_bytes() {
        let v = [1.0f32, -0.5, 3.25];
        assert_eq!(hash_f32(&v), hash_bytes(&f32_bytes(&v)));
        assert_ne!(hash_f32(&v), hash_f32(&[1.0, -0.5, 3.0]));
    }

    #[test]
    fn a_correct_reply_passes() {
        let body = f32_bytes(&[1.0, 2.0]);
        assert_eq!(
            reply_problem(&ok(8), &body, 8, Some(hash_bytes(&body))),
            None
        );
        assert_eq!(reply_problem(&ok(8), &body, 8, None), None);
    }

    #[test]
    fn wrong_length_or_bytes_count_as_failed() {
        let body = f32_bytes(&[1.0, 2.0]);
        // Short body, and a header that disagrees with the request.
        assert!(reply_problem(&ok(4), &body[..4], 8, None).is_some());
        assert!(reply_problem(&ok(8), &body, 12, None).is_some());
        // Right length, wrong bytes.
        let other = f32_bytes(&[1.0, 2.5]);
        assert!(reply_problem(&ok(8), &other, 8, Some(hash_bytes(&body))).is_some());
    }

    #[test]
    fn typed_refusals_dedup_and_degraded_replies_count_as_failed() {
        let body = f32_bytes(&[1.0, 2.0]);
        let refusals = [
            RespHeader::Err {
                kind: "io".into(),
                message: "x".into(),
            },
            RespHeader::Overloaded {
                tenant: "t".into(),
                reason: "queue-full".into(),
                queued: 8,
                limit: 8,
            },
            RespHeader::Shed {
                reason: "drain".into(),
            },
            RespHeader::Expired {
                deadline_ms: 1,
                waited_ms: 2,
            },
        ];
        for h in refusals {
            assert!(reply_problem(&h, &[], 8, None).is_some(), "{h:?}");
        }
        let dedup = RespHeader::Ok(OkHeader {
            bytes: 8,
            whole: true,
            dedup: true,
            ..OkHeader::default()
        });
        assert!(reply_problem(&dedup, &body, 8, None).is_some());
        let degraded = RespHeader::Ok(OkHeader {
            bytes: 8,
            whole: false,
            ..OkHeader::default()
        });
        assert!(reply_problem(&degraded, &body, 8, None).is_some());
    }

    #[test]
    fn agreement_keeps_the_first_hash_per_key() {
        let mut a = Agreement::default();
        assert!(a.check("r1", 7));
        assert!(a.check("r3", 9));
        assert!(a.check("r1", 7));
        assert!(!a.check("r1", 8));
    }
}
