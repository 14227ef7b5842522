//! Crash-consistent persistence primitives.
//!
//! Everything the workspace writes to disk — SFCV volumes, rendered
//! images, sweep checkpoints — must survive a `kill -9` mid-write: a
//! crashed run may be restarted hours later and anything truncated-but-
//! plausible on disk would silently poison the resumed sweep. Two
//! primitives cover every write pattern in the repo:
//!
//! * [`write_atomic`] — whole-file replacement via temp file + `fsync` +
//!   atomic rename (+ parent-directory `fsync`): readers observe either
//!   the old bytes or the new bytes, never a torn mixture.
//! * [`Journal`] — an append-only log of checksummed records for
//!   incremental state (one record per completed sweep cell). A record is
//!   `len | FNV-1a 64 | payload`; on open, the journal replays every
//!   intact record and truncates the first torn or corrupt tail, so a
//!   crash mid-append loses at most the record being written — never a
//!   completed one.
//!
//! Both report failures as `std::io::Result`; callers wrap them into
//! [`sfc_core::SfcError::Io`] with their own context.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::faults::{FaultyFile, IoFaultPlan};
use sfc_core::fnv1a64;

/// Sibling path used for the temp file of [`write_atomic`]. Deterministic
/// (no PID/timestamp) so a stale temp from a crashed process is simply
/// overwritten by the next writer instead of accumulating.
pub fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = std::ffi::OsString::from(".");
    name.push(path.file_name().unwrap_or_else(|| "durable".as_ref()));
    name.push(".tmp");
    path.with_file_name(name)
}

/// Sync the directory containing `path` so a just-committed rename (or
/// file creation) is durable. Directories that cannot be *opened* are
/// tolerated (some platforms forbid it — there is nothing better to do),
/// but a directory that opens and then fails to `fsync` is a real I/O
/// error and is propagated: swallowing it would let `write_atomic`
/// report success for a rename that a power loss can still undo.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = dir {
        if let Ok(d) = File::open(dir) {
            d.sync_all()?;
        }
    }
    Ok(())
}

/// Replace the contents of `path` atomically: write `bytes` to a sibling
/// temp file, `fsync` it, rename over `path`, and `fsync` the directory.
/// A crash at any point leaves either the previous file or the new one —
/// never a truncated hybrid. When any step *fails* (rather than the
/// process dying), the temp file is removed before the error is
/// returned, so an error path never strands a `.tmp` sibling. Only an
/// outright crash can leave one, and [`tmp_sibling`]'s deterministic
/// name means the next writer overwrites it.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    write_atomic_with(path, bytes, &IoFaultPlan::none())
}

/// [`write_atomic`] with every filesystem operation routed through an
/// [`IoFaultPlan`]: create/write/fsync go through a [`FaultyFile`], and
/// the rename + parent-directory fsync are guarded by control-point
/// draws. Production callers use [`write_atomic`] (a no-fault plan);
/// chaos tests script each step to fail and assert the contract below.
///
/// Contract on error: `path` holds either its previous contents or the
/// complete new bytes (a post-rename fsync failure cannot undo the
/// rename) — never a torn mixture — and the temp sibling has been
/// removed.
pub fn write_atomic_with(
    path: &Path,
    bytes: &[u8],
    faults: &IoFaultPlan,
) -> std::io::Result<()> {
    let tmp = tmp_sibling(path);
    let attempt = (|| {
        let mut f = FaultyFile::create(&tmp, faults.clone())?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        faults.fire_control("rename")?;
        std::fs::rename(&tmp, path)?;
        faults.fire_control("parent dir sync")?;
        sync_parent_dir(path)?;
        Ok(())
    })();
    if attempt.is_err() {
        // The rename (if reached) either succeeded — making this a no-op —
        // or failed with the temp still in place; either way the temp must
        // not outlive the error. Removal failure is unreportable on top of
        // the original error and the stale-temp path is already harmless.
        std::fs::remove_file(&tmp).ok();
    }
    attempt
}

/// Fixed per-record header of a [`Journal`]: payload length (`u32` LE) +
/// FNV-1a 64 of the payload (`u64` LE).
pub const RECORD_HEADER: usize = 4 + 8;

/// What [`Journal::open`] found on disk.
#[derive(Debug, Default)]
pub struct JournalRecovery {
    /// Every intact record, in append order.
    pub records: Vec<Vec<u8>>,
    /// Bytes of torn/corrupt tail that were truncated away (0 on a clean
    /// journal). A crash mid-append shows up here as the partial record.
    pub truncated_bytes: u64,
}

impl JournalRecovery {
    /// True when the journal needed repair on open.
    pub fn was_torn(&self) -> bool {
        self.truncated_bytes > 0
    }
}

/// An append-only log of checksummed records with torn-tail recovery.
///
/// Appends are durable (`fsync` per record) and self-delimiting; a reader
/// never needs the writer to have finished. Use [`Journal::open`] to
/// replay existing records (repairing a torn tail in place) and
/// [`Journal::append`] to add more.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    /// Records currently in the file (appended or replayed).
    len: usize,
}

impl Journal {
    /// Open (creating if missing) the journal at `path`, replaying every
    /// intact record. A torn or corrupt tail — short header, short
    /// payload, or checksum mismatch — is truncated off the file so the
    /// journal is append-ready again; everything before it is returned.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<(Self, JournalRecovery)> {
        let path = path.into();
        let existed = path.exists();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        if !existed {
            // A brand-new journal is a directory-entry mutation just like
            // a rename: without a parent fsync, a crash can forget the
            // file ever existed even after records were fsync'd into it.
            sync_parent_dir(&path)?;
        }
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let mut recovery = JournalRecovery::default();
        let mut pos = 0usize;
        while bytes.len() - pos >= RECORD_HEADER {
            let Ok(len_bytes) = <[u8; 4]>::try_from(&bytes[pos..pos + 4]) else {
                break; // unreachable: length-guarded above; treat as torn
            };
            let Ok(sum_bytes) = <[u8; 8]>::try_from(&bytes[pos + 4..pos + 12]) else {
                break;
            };
            let len = u32::from_le_bytes(len_bytes) as usize;
            let want = u64::from_le_bytes(sum_bytes);
            let start = pos + RECORD_HEADER;
            let Some(end) = start.checked_add(len).filter(|&e| e <= bytes.len()) else {
                break; // torn payload (or absurd length from a torn header)
            };
            if fnv1a64(&bytes[start..end]) != want {
                break; // corrupt record: everything from here on is suspect
            }
            recovery.records.push(bytes[start..end].to_vec());
            pos = end;
        }
        if pos != bytes.len() {
            recovery.truncated_bytes = (bytes.len() - pos) as u64;
            file.set_len(pos as u64)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(pos as u64))?;
        let len = recovery.records.len();
        Ok((Self { file, path, len }, recovery))
    }

    /// Append one record and `fsync` it. After `append` returns, the
    /// record survives a crash; if the process dies mid-append, the next
    /// [`Journal::open`] truncates the partial record.
    pub fn append(&mut self, payload: &[u8]) -> std::io::Result<()> {
        let len = u32::try_from(payload.len()).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "journal record > 4 GiB")
        })?;
        let mut buf = Vec::with_capacity(RECORD_HEADER + payload.len());
        buf.extend_from_slice(&len.to_le_bytes());
        buf.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        buf.extend_from_slice(payload);
        self.file.write_all(&buf)?;
        self.file.sync_data()?;
        self.len += 1;
        Ok(())
    }

    /// Discard every record (used after the state has been compacted into
    /// an atomically-written snapshot).
    pub fn reset(&mut self) -> std::io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_all()?;
        self.len = 0;
        Ok(())
    }

    /// Number of records currently in the journal.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The file backing this journal.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sfc_durable_{}_{tag}", std::process::id()))
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp() {
        let path = tmp("atomic");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second, longer contents").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer contents");
        assert!(!tmp_sibling(&path).exists(), "temp must be renamed away");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_atomic_cleans_its_temp_on_every_injected_error_path() {
        use crate::faults::FaultKind;
        // Operation schedule of write_atomic_with: 0 = create the temp,
        // 1 = write the payload, 2 = fsync the temp, 3 = rename control
        // point, 4 = parent-dir-sync control point. Fail each in turn and
        // assert the contract: an error comes back, no `.tmp` sibling is
        // left behind, and the destination is never torn.
        let path = tmp("atomic_errpaths");
        std::fs::remove_file(&path).ok();
        let faulted_steps: &[(u64, FaultKind)] = &[
            (0, FaultKind::IoError),   // create fails
            (1, FaultKind::IoError),   // write fails outright
            (1, FaultKind::ShortWrite),// write tears mid-payload
            (2, FaultKind::IoError),   // temp fsync fails
            (3, FaultKind::IoError),   // rename fails
            (4, FaultKind::IoError),   // parent-dir fsync fails
        ];
        // Pass 1: destination does not exist yet.
        for &(op, kind) in faulted_steps {
            let plan = IoFaultPlan::none().with_op(op, kind);
            let err = write_atomic_with(&path, b"fresh payload", &plan).unwrap_err();
            assert!(err.to_string().contains("injected"), "op {op}: {err}");
            assert!(
                !tmp_sibling(&path).exists(),
                "op {op} ({kind:?}): orphaned temp left behind"
            );
            match std::fs::read(&path) {
                // Only a post-rename failure may publish the new bytes.
                Ok(bytes) => {
                    assert_eq!(bytes, b"fresh payload", "op {op}: torn destination");
                    assert!(op >= 4, "op {op}: destination appeared before the rename");
                }
                Err(_) => assert!(op < 4, "op {op}: rename succeeded yet no file"),
            }
            std::fs::remove_file(&path).ok();
        }
        // Pass 2: destination holds prior contents that must survive
        // every pre-rename failure untouched.
        for &(op, kind) in faulted_steps {
            write_atomic(&path, b"previous contents").unwrap();
            let plan = IoFaultPlan::none().with_op(op, kind);
            write_atomic_with(&path, b"replacement!!", &plan).unwrap_err();
            assert!(!tmp_sibling(&path).exists(), "op {op}: orphaned temp");
            let on_disk = std::fs::read(&path).unwrap();
            if op < 4 {
                assert_eq!(on_disk, b"previous contents", "op {op}: old bytes lost");
            } else {
                assert_eq!(on_disk, b"replacement!!", "op {op}: torn destination");
            }
            std::fs::remove_file(&path).ok();
        }
        // A no-fault plan still succeeds through the same code path.
        write_atomic_with(&path, b"clean run", &IoFaultPlan::none()).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"clean run");
        assert!(!tmp_sibling(&path).exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_temp_from_a_crashed_writer_is_harmless() {
        let path = tmp("stale");
        std::fs::write(tmp_sibling(&path), b"garbage from a dead process").unwrap();
        write_atomic(&path, b"real contents").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"real contents");
        assert!(!tmp_sibling(&path).exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_roundtrip() {
        let path = tmp("journal_rt");
        std::fs::remove_file(&path).ok();
        let (mut j, rec) = Journal::open(&path).unwrap();
        assert!(rec.records.is_empty() && !rec.was_torn());
        j.append(b"alpha").unwrap();
        j.append(b"").unwrap(); // empty payloads are legal
        j.append(b"gamma gamma").unwrap();
        assert_eq!(j.len(), 3);
        drop(j);
        let (j2, rec) = Journal::open(&path).unwrap();
        assert_eq!(rec.records, vec![b"alpha".to_vec(), vec![], b"gamma gamma".to_vec()]);
        assert!(!rec.was_torn());
        assert_eq!(j2.len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_completed_records_survive() {
        let path = tmp("journal_torn");
        std::fs::remove_file(&path).ok();
        let (mut j, _) = Journal::open(&path).unwrap();
        j.append(b"one").unwrap();
        j.append(b"two").unwrap();
        j.append(b"three").unwrap();
        drop(j);
        // Simulate kill -9 mid-append: chop 2 bytes off the last record.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 2).unwrap();
        drop(f);
        let (mut j, rec) = Journal::open(&path).unwrap();
        assert_eq!(rec.records, vec![b"one".to_vec(), b"two".to_vec()]);
        assert!(rec.was_torn());
        // The journal is append-ready after repair.
        j.append(b"four").unwrap();
        drop(j);
        let (_, rec) = Journal::open(&path).unwrap();
        assert_eq!(rec.records.len(), 3);
        assert_eq!(rec.records[2], b"four");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_at_every_byte_offset_of_the_final_record_recovers() {
        // Exhaustive torn-tail sweep: a kill -9 can land after any byte
        // of the final append — mid-length, mid-checksum, or mid-payload.
        // For every prefix length, recovery must (a) open successfully,
        // (b) keep every earlier record bit-exact, (c) drop the torn
        // record entirely (no partial payload ever surfaces), and
        // (d) leave the journal append-ready.
        let path = tmp("journal_sweep");
        std::fs::remove_file(&path).ok();
        let (mut j, _) = Journal::open(&path).unwrap();
        j.append(b"first record").unwrap();
        j.append(b"second record").unwrap();
        let intact_len = std::fs::metadata(&path).unwrap().len();
        j.append(b"final record, torn somewhere").unwrap();
        drop(j);
        let full = std::fs::read(&path).unwrap();
        let final_record_len = full.len() as u64 - intact_len;
        assert!(final_record_len > 12, "record spans header and payload");

        for cut in 0..final_record_len {
            let torn_len = intact_len + cut;
            std::fs::write(&path, &full[..torn_len as usize]).unwrap();
            let (mut j, rec) = Journal::open(&path)
                .unwrap_or_else(|e| panic!("cut at byte {cut}: open failed: {e}"));
            assert_eq!(
                rec.records,
                vec![b"first record".to_vec(), b"second record".to_vec()],
                "cut at byte {cut}: intact records must survive exactly"
            );
            // A cut of zero bytes is a journal that cleanly ends before
            // the final record; every other cut is a reported tear.
            assert_eq!(
                rec.was_torn(),
                cut > 0,
                "cut at byte {cut}: tear reported iff bytes were torn"
            );
            assert_eq!(
                rec.truncated_bytes, cut,
                "cut at byte {cut}: every torn byte accounted"
            );
            // Append-ready after repair: the new record replays cleanly.
            j.append(b"post-repair").unwrap();
            drop(j);
            let (_, rec) = Journal::open(&path).unwrap();
            assert_eq!(rec.records.len(), 3, "cut at byte {cut}");
            assert_eq!(rec.records[2], b"post-repair", "cut at byte {cut}");
            assert!(!rec.was_torn(), "cut at byte {cut}: repaired journal is clean");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_stops_replay_at_the_corrupt_record() {
        let path = tmp("journal_flip");
        std::fs::remove_file(&path).ok();
        let (mut j, _) = Journal::open(&path).unwrap();
        j.append(b"good").unwrap();
        j.append(b"soon bad").unwrap();
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40; // corrupt the second record's payload
        std::fs::write(&path, &bytes).unwrap();
        let (_, rec) = Journal::open(&path).unwrap();
        assert_eq!(rec.records, vec![b"good".to_vec()]);
        assert!(rec.was_torn());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn creating_a_journal_in_a_fresh_directory_survives_parent_sync() {
        // Exercises the parent-directory fsync on first creation: the
        // parent is a just-made directory we can open and sync.
        let dir = tmp("journal_newdir");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.bin");
        let (mut j, rec) = Journal::open(&path).unwrap();
        assert!(rec.records.is_empty());
        j.append(b"first").unwrap();
        drop(j);
        let (_, rec) = Journal::open(&path).unwrap();
        assert_eq!(rec.records, vec![b"first".to_vec()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reset_empties_the_journal() {
        let path = tmp("journal_reset");
        std::fs::remove_file(&path).ok();
        let (mut j, _) = Journal::open(&path).unwrap();
        j.append(b"x").unwrap();
        j.reset().unwrap();
        assert!(j.is_empty());
        j.append(b"y").unwrap();
        drop(j);
        let (_, rec) = Journal::open(&path).unwrap();
        assert_eq!(rec.records, vec![b"y".to_vec()]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn absurd_length_in_torn_header_does_not_overflow() {
        let path = tmp("journal_huge_len");
        // A lone header claiming a 4 GiB payload with no payload bytes.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let (_, rec) = Journal::open(&path).unwrap();
        assert!(rec.records.is_empty());
        assert!(rec.was_torn());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        std::fs::remove_file(&path).ok();
    }
}
