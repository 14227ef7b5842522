//! Checkpoint/resume for long figure sweeps, crash-consistent.
//!
//! A sweep writes one record per completed grid cell so a killed or
//! crashed run can be restarted and will skip every cell it already
//! finished. A checkpoint named `FILE` is one append-only journal,
//! `FILE.journal` ([`sfc_harness::Journal`]): every record is checksummed
//! and fsynced as it is appended. A `kill -9` mid-append loses at most the
//! record being written; the next [`Checkpoint::open`] truncates the torn
//! tail and replays every intact record, a later record of a key replacing
//! an earlier one. A full sweep records at most 64 cells (Fig. 5: eight
//! viewpoints by eight thread counts), so the journal stays small and its
//! replay fast without ever being rewritten.
//!
//! A record holds the key's byte length (`u32` LE), the key's UTF-8 bytes,
//! then each value as a little-endian `f64`, so non-finite values
//! round-trip exactly.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use sfc_core::{SfcError, SfcResult};
use sfc_harness::Journal;

/// What [`Checkpoint::open`] found and repaired on disk.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointRecovery {
    /// Records replayed from the journal: the cells earlier runs completed.
    /// None were lost.
    pub journal_cells: usize,
    /// Bytes of torn journal tail truncated away (an interrupted append).
    pub torn_bytes: u64,
}

impl CheckpointRecovery {
    /// True when open replayed a cell or truncated a torn tail.
    pub fn recovered_anything(&self) -> bool {
        self.journal_cells > 0 || self.torn_bytes > 0
    }
}

/// A resumable record of completed sweep cells, backed by an append-only
/// journal (see the module docs).
#[derive(Debug)]
pub struct Checkpoint {
    entries: BTreeMap<String, Vec<f64>>,
    journal: Journal,
    recovery: CheckpointRecovery,
}

/// `<path>.journal`, the journal of the checkpoint named `path`.
fn journal_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".journal");
    PathBuf::from(os)
}

impl Checkpoint {
    /// Open (or create) the checkpoint named `path`, replaying its journal
    /// `<path>.journal`. A missing journal yields an empty checkpoint. An
    /// intact record that does not decode, or a file at `path` itself (the
    /// JSON snapshot of an older checkpoint format), is a typed
    /// [`SfcError::Corrupt`]; an unreadable journal is [`SfcError::Io`].
    /// Delete the files to start over.
    pub fn open(path: impl Into<PathBuf>) -> SfcResult<Self> {
        let path = path.into();
        if path.exists() {
            return Err(corrupt(
                "an older format's JSON snapshot sits at the checkpoint's path \
                 (this format writes only its .journal)",
            ));
        }
        let (journal, replay) = Journal::open(journal_path(&path))
            .map_err(|e| SfcError::io("open checkpoint journal", e))?;
        let mut entries = BTreeMap::new();
        for record in &replay.records {
            let (key, values) = decode_record(record)?;
            entries.insert(key, values);
        }
        Ok(Checkpoint {
            entries,
            journal,
            recovery: CheckpointRecovery {
                journal_cells: replay.records.len(),
                torn_bytes: replay.truncated_bytes,
            },
        })
    }

    /// The journal backing this checkpoint.
    pub fn path(&self) -> &Path {
        self.journal.path()
    }

    /// What [`Checkpoint::open`] recovered from a previous crash.
    pub fn recovery(&self) -> CheckpointRecovery {
        self.recovery
    }

    /// Number of completed cells on record.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Values recorded for `key`, if that cell already completed.
    pub fn get(&self, key: &str) -> Option<&[f64]> {
        self.entries.get(key).map(Vec::as_slice)
    }

    /// Whether `key` already completed.
    pub fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// Record a completed cell and persist it durably: one fsynced journal
    /// append. After `record` returns, the cell survives `kill -9`.
    pub fn record(&mut self, key: &str, values: &[f64]) -> SfcResult<()> {
        self.journal
            .append(&encode_record(key, values)?)
            .map_err(|e| SfcError::io("append checkpoint journal", e))?;
        self.entries.insert(key.to_string(), values.to_vec());
        Ok(())
    }

    /// Return the cached values for `key`, or run `compute`, persist its
    /// result, and return it. The bool is `true` when the cell was served
    /// from the checkpoint (skipped).
    pub fn cell<F>(&mut self, key: &str, compute: F) -> SfcResult<(Vec<f64>, bool)>
    where
        F: FnOnce() -> Vec<f64>,
    {
        if let Some(v) = self.entries.get(key) {
            return Ok((v.clone(), true));
        }
        let v = compute();
        self.record(key, &v)?;
        Ok((v, false))
    }
}

/// Serve `key` from `ckpt` when present, otherwise compute and (when a
/// checkpoint is in use) persist. A `None` checkpoint always computes —
/// lets sweep loops take `&mut Option<Checkpoint>` and stay oblivious.
pub fn cell_through<F>(
    ckpt: &mut Option<Checkpoint>,
    key: &str,
    compute: F,
) -> SfcResult<(Vec<f64>, bool)>
where
    F: FnOnce() -> Vec<f64>,
{
    match ckpt {
        Some(c) => c.cell(key, compute),
        None => Ok((compute(), false)),
    }
}

/// CLI helper for the figure binaries: open the checkpoint named by
/// `--checkpoint FILE` when the flag is present (announcing how many cells
/// a resumed run will skip), exiting with a diagnostic when its journal is
/// unreadable or corrupt.
pub fn checkpoint_from_args(args: &sfc_harness::Args) -> Option<Checkpoint> {
    let path = PathBuf::from(args.get("checkpoint")?);
    match Checkpoint::open(&path) {
        Ok(c) => {
            let rec = c.recovery();
            if rec.torn_bytes > 0 {
                eprintln!(
                    "checkpoint {}: truncated a torn journal tail ({} bytes from an interrupted write)",
                    path.display(),
                    rec.torn_bytes
                );
            }
            if !c.is_empty() {
                eprintln!(
                    "checkpoint {}: resuming, {} completed cells will be skipped",
                    path.display(),
                    c.len()
                );
            }
            Some(c)
        }
        Err(e) => {
            eprintln!("cannot open checkpoint {}: {e}", path.display());
            eprintln!("(delete the file to restart the sweep from scratch)");
            std::process::exit(2);
        }
    }
}

/// CLI helper: unwrap a sweep result, exiting with the typed error on
/// failure (checkpoint I/O is the only way a resumable sweep fails).
pub fn ok_or_exit<T>(result: SfcResult<T>) -> T {
    match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            std::process::exit(2);
        }
    }
}

/// One journal record: the key's byte length (`u32` LE), its UTF-8 bytes,
/// then every value as a little-endian `f64`.
fn encode_record(key: &str, values: &[f64]) -> SfcResult<Vec<u8>> {
    let key_len = u32::try_from(key.len()).map_err(|_| SfcError::InvalidParameter {
        name: "key",
        reason: "a checkpoint key must be shorter than 4 GiB".to_string(),
    })?;
    let mut record = Vec::with_capacity(4 + key.len() + 8 * values.len());
    record.extend_from_slice(&key_len.to_le_bytes());
    record.extend_from_slice(key.as_bytes());
    for v in values {
        record.extend_from_slice(&v.to_le_bytes());
    }
    Ok(record)
}

/// Decode a journal record back into its cell. Records are checksummed by
/// the journal layer, so a record that does not decode is real corruption
/// (or a foreign file), not a torn write.
fn decode_record(record: &[u8]) -> SfcResult<(String, Vec<f64>)> {
    let (len, rest) = record
        .split_first_chunk::<4>()
        .ok_or_else(|| corrupt("record shorter than its key length"))?;
    let (key, values) = rest
        .split_at_checked(u32::from_le_bytes(*len) as usize)
        .ok_or_else(|| corrupt("key runs past the end of its record"))?;
    let key = std::str::from_utf8(key).map_err(|_| corrupt("key is not UTF-8"))?;
    let (values, partial) = values.as_chunks::<8>();
    if !partial.is_empty() {
        return Err(corrupt("values are not a whole number of f64s"));
    }
    Ok((
        key.to_string(),
        values.iter().map(|v| f64::from_le_bytes(*v)).collect(),
    ))
}

fn corrupt(reason: &str) -> SfcError {
    SfcError::Corrupt {
        what: "checkpoint file".to_string(),
        reason: reason.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sfc_ckpt_{}_{tag}.json", std::process::id()))
    }

    /// Remove a checkpoint's journal (and any file at its own path).
    fn clean(path: &Path) {
        std::fs::remove_file(path).ok();
        std::fs::remove_file(journal_path(path)).ok();
    }

    #[test]
    fn roundtrip_and_resume() {
        let path = tmp_path("roundtrip");
        clean(&path);
        let mut c = Checkpoint::open(&path).unwrap();
        assert!(c.is_empty());
        c.record("fig2|r1 px xyz|t2", &[9.0]).unwrap();
        c.record("fig2|r1 px xyz|t2", &[0.5, -1.25, 3.0]).unwrap();
        c.record("fig2|r1 pz zyx|t2", &[f64::NAN, 2.0]).unwrap();

        let reopened = Checkpoint::open(&path).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(
            reopened.get("fig2|r1 px xyz|t2"),
            Some(&[0.5, -1.25, 3.0][..]),
            "a later record of a key replaces an earlier one"
        );
        let v = reopened.get("fig2|r1 pz zyx|t2").unwrap();
        assert_eq!(v[0].to_bits(), f64::NAN.to_bits());
        assert_eq!(v[1], 2.0);
        assert!(!path.exists(), "nothing but the journal is written");
        clean(&path);
    }

    #[test]
    fn cell_skips_completed_configs() {
        let path = tmp_path("cell");
        clean(&path);
        let mut c = Checkpoint::open(&path).unwrap();
        let (v, cached) = c.cell("k", || vec![7.0]).unwrap();
        assert_eq!((v.as_slice(), cached), (&[7.0][..], false));
        // Second call must NOT recompute.
        let (v, cached) = c
            .cell("k", || panic!("cell recomputed a completed config"))
            .unwrap();
        assert_eq!((v.as_slice(), cached), (&[7.0][..], true));
        // And a fresh process resuming from the file skips it too.
        let mut resumed = Checkpoint::open(&path).unwrap();
        let (_, cached) = resumed
            .cell("k", || panic!("resume recomputed a completed config"))
            .unwrap();
        assert!(cached);
        clean(&path);
    }

    #[test]
    fn keys_with_quotes_and_unicode_roundtrip() {
        let path = tmp_path("escape");
        clean(&path);
        let mut c = Checkpoint::open(&path).unwrap();
        let key = "weird \"key\"\\ with\ttabs\nand µnicode";
        c.record(key, &[1.0]).unwrap();
        let r = Checkpoint::open(&path).unwrap();
        assert_eq!(r.get(key), Some(&[1.0][..]));
        clean(&path);
    }

    #[test]
    fn intact_record_that_does_not_decode_is_a_typed_error() {
        let path = tmp_path("undecodable");
        let mut partial_value = encode_record("k", &[1.0]).unwrap();
        partial_value.pop();
        let mut bad_utf8 = encode_record("kk", &[]).unwrap();
        bad_utf8[4] = 0xFF;
        for (what, record) in [
            ("an older format's JSON record", b"\"k\":[1.0]".to_vec()),
            ("values that are not whole f64s", partial_value),
            ("a key that is not UTF-8", bad_utf8),
            ("a record shorter than a key length", vec![1, 0]),
        ] {
            clean(&path);
            {
                let (mut journal, _) = Journal::open(journal_path(&path)).unwrap();
                journal
                    .append(&encode_record("good", &[2.0]).unwrap())
                    .unwrap();
                // Checksummed by the journal: intact, but not a cell.
                journal.append(&record).unwrap();
            }
            match Checkpoint::open(&path) {
                Err(SfcError::Corrupt { .. }) => {}
                other => panic!("{what}: expected Corrupt, got {other:?}"),
            }
        }
        clean(&path);
    }

    #[test]
    fn an_older_formats_json_snapshot_is_refused() {
        let path = tmp_path("snapshot");
        clean(&path);
        std::fs::write(&path, "{\"version\":1,\"entries\":{\"k\":[1.0]}}\n").unwrap();
        match Checkpoint::open(&path) {
            Err(SfcError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        clean(&path);
    }

    #[test]
    fn journal_cells_survive_an_abrupt_exit() {
        let path = tmp_path("kill9");
        clean(&path);
        {
            let mut c = Checkpoint::open(&path).unwrap();
            c.record("a", &[1.0]).unwrap();
            c.record("b", &[2.0, 3.0]).unwrap();
            c.record("c", &[4.0]).unwrap();
            // Drop without any shutdown hook — exactly what kill -9 leaves.
        }
        let c = Checkpoint::open(&path).unwrap();
        assert_eq!(c.recovery().journal_cells, 3);
        assert_eq!(c.get("a"), Some(&[1.0][..]));
        assert_eq!(c.get("b"), Some(&[2.0, 3.0][..]));
        assert_eq!(c.get("c"), Some(&[4.0][..]));
        clean(&path);
    }

    #[test]
    fn torn_journal_tail_is_truncated_without_losing_cells() {
        use std::io::Write;
        let path = tmp_path("torn");
        clean(&path);
        {
            let mut c = Checkpoint::open(&path).unwrap();
            c.record("done1", &[1.0]).unwrap();
            c.record("done2", &[2.0]).unwrap();
        }
        // Simulate kill -9 mid-append: a partial record at the tail.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(journal_path(&path))
            .unwrap();
        f.write_all(&[42, 0, 0, 0, 7, 7, 7]).unwrap(); // len says 42, body torn
        drop(f);

        let mut c = Checkpoint::open(&path).unwrap();
        assert_eq!(c.recovery().journal_cells, 2);
        assert_eq!(c.recovery().torn_bytes, 7);
        assert!(c.recovery().recovered_anything());
        assert_eq!(c.get("done1"), Some(&[1.0][..]));
        assert_eq!(c.get("done2"), Some(&[2.0][..]));
        // The repaired checkpoint keeps working.
        c.record("after", &[3.0]).unwrap();
        let r = Checkpoint::open(&path).unwrap();
        assert_eq!(r.len(), 3);
        clean(&path);
    }

    #[test]
    fn journal_record_roundtrips_weird_keys_and_null() {
        let key = "weird \"key\"\\ with\ttabs µ";
        let payload_nan = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        let values = [
            1.5,
            f64::NAN,
            payload_nan,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
        ];
        let (k, v) = decode_record(&encode_record(key, &values).unwrap()).unwrap();
        assert_eq!(k, key);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&v),
            bits(&values),
            "every value, NaN payloads included"
        );
        let empty = encode_record("", &[]).unwrap();
        assert_eq!(decode_record(&empty).unwrap(), (String::new(), vec![]));
        assert!(decode_record(b"not a record").is_err());
    }

    #[test]
    fn cell_through_none_always_computes() {
        let mut none: Option<Checkpoint> = None;
        let (v, cached) = cell_through(&mut none, "k", || vec![1.0]).unwrap();
        assert_eq!((v.as_slice(), cached), (&[1.0][..], false));
        let (_, cached) = cell_through(&mut none, "k", || vec![2.0]).unwrap();
        assert!(!cached, "without a checkpoint nothing is ever skipped");
    }
}
