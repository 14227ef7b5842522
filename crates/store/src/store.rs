//! The paged, crash-safe brick store.
//!
//! A [`BrickStore`] persists one volume as a directory of three files:
//!
//! * `manifest.v1` — the atomically-published source of truth
//!   ([`crate::manifest`]): dims, brick edge, SFC slot order, and the
//!   expected FNV-1a 64 of every brick;
//! * `bricks.dat` — fixed-size slots of `4·edge³` bytes, one brick per
//!   slot, in the manifest's space-filling-curve order;
//! * `journal.bin` — an append-only [`Journal`] of brick commits written
//!   *before* the data file during import. It is the write-ahead log
//!   that makes `kill -9` mid-import recoverable **and** the redundant
//!   copy that read-repair pulls from when a data-file brick rots.
//!
//! The read path implements [`Volume3`], so every kernel in the
//! workspace (bilateral filter, raycaster, memsim tracing) runs
//! unmodified over a volume that never fully resides in memory: bricks
//! fault in on demand through an LRU with a byte budget. Failures
//! degrade in stages — transient IO errors are retried with backoff,
//! checksum mismatches are re-read (a flipped bit in transit vanishes on
//! retry), persistent rot is repaired from the journal, and a brick that
//! cannot be recovered at all is served as quiet-NaN poison so the
//! NaN-safe kernels and the degraded policy's validation scan turn it
//! into typed defects in the outcome's `QualityMap` instead of an abort.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use sfc_core::{fnv1a64, Axis, Dims3, LayoutKind, SfcError, SfcResult, Volume3};
use sfc_datagen::bricks::{extract_brick, BrickGeom};
use sfc_harness::durable::{write_atomic_with, Journal, RECORD_HEADER};
use sfc_harness::faults::{FaultyFile, IoFaultPlan};
use sfc_harness::LazyCounter;

use crate::manifest::{kind_code, kind_from_code, Manifest, SlotEntry};

/// Manifest file name inside a store directory.
pub const MANIFEST_FILE: &str = "manifest.v1";
/// Data file name inside a store directory.
pub const DATA_FILE: &str = "bricks.dat";
/// Journal file name inside a store directory.
pub const JOURNAL_FILE: &str = "journal.bin";

/// Journal record tags.
const TAG_META: &[u8; 4] = b"META";
const TAG_BRICK: &[u8; 4] = b"BRCK";
/// `TAG_BRICK` record header: tag + brick id + payload checksum.
const BRICK_RECORD_HEADER: usize = 4 + 8 + 8;

/// Tuning and fault wiring for a store handle.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Byte budget for resident (decoded) bricks. At least one brick is
    /// always kept resident regardless of the budget.
    pub budget_bytes: usize,
    /// Read attempts per brick before the next recovery stage (>= 1).
    pub attempts: u32,
    /// Base backoff between read attempts (attempt `n` sleeps `n ×` this).
    pub backoff: Duration,
    /// IO fault plan threaded through every data-file and journal-repair
    /// operation. Production callers leave it at
    /// [`IoFaultPlan::none`]; chaos tests script or randomize it.
    pub faults: IoFaultPlan,
}

impl Default for StoreOptions {
    fn default() -> Self {
        Self {
            budget_bytes: 64 << 20,
            attempts: 4,
            backoff: Duration::from_millis(2),
            faults: IoFaultPlan::none(),
        }
    }
}

impl StoreOptions {
    /// Replace the byte budget.
    pub fn with_budget(mut self, bytes: usize) -> Self {
        self.budget_bytes = bytes;
        self
    }

    /// Replace the fault plan.
    pub fn with_faults(mut self, faults: IoFaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

/// Counters describing a store handle's lifetime behavior. Snapshot via
/// [`BrickStore::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Brick requests served from the resident LRU.
    pub hits: u64,
    /// Brick requests that had to touch the data file.
    pub misses: u64,
    /// Bricks evicted to stay under the byte budget.
    pub evictions: u64,
    /// Extra read attempts caused by IO errors or checksum mismatches.
    pub retries: u64,
    /// Bricks rewritten into the data file from their journal copy.
    pub repairs: u64,
    /// Bricks served from the journal copy after the data-file rewrite
    /// itself failed (data recovered, medium still bad).
    pub repair_writebacks_failed: u64,
    /// Bricks served as NaN poison because no intact copy exists.
    pub poisoned: u64,
}

#[derive(Default)]
struct AtomicStats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    retries: AtomicU64,
    repairs: AtomicU64,
    repair_writebacks_failed: AtomicU64,
    poisoned: AtomicU64,
}

// Process-wide mirrors of the per-store counters. Every increment below
// lands both in the owning store's `AtomicStats` (exact per-handle
// accounting, used by tests and `StoreStats`) and in these registry
// counters (cumulative across all stores in the process, scraped by the
// metrics plane).
static HITS_TOTAL: LazyCounter = LazyCounter::new("store.hits");
static MISSES_TOTAL: LazyCounter = LazyCounter::new("store.misses");
static EVICTIONS_TOTAL: LazyCounter = LazyCounter::new("store.evictions");
static RETRIES_TOTAL: LazyCounter = LazyCounter::new("store.retries");
static REPAIRS_TOTAL: LazyCounter = LazyCounter::new("store.repairs");
static REPAIR_WRITEBACKS_FAILED_TOTAL: LazyCounter =
    LazyCounter::new("store.repair_writebacks_failed");
static POISONED_TOTAL: LazyCounter = LazyCounter::new("store.poisoned");
static SCRUB_RUNS: LazyCounter = LazyCounter::new("store.scrub.runs");
static SCRUB_CLEAN: LazyCounter = LazyCounter::new("store.scrub.clean");
static SCRUB_REPAIRED: LazyCounter = LazyCounter::new("store.scrub.repaired");
static SCRUB_UNRECOVERABLE: LazyCounter = LazyCounter::new("store.scrub.unrecoverable");

/// Outcome of a [`BrickStore::scrub`] walk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Slots examined (always the full brick count).
    pub scanned: usize,
    /// Slots whose payload matched the manifest checksum on first read.
    pub clean: usize,
    /// Slots repaired from their journal copy.
    pub repaired: usize,
    /// Brick ids with no intact copy anywhere; reads of these bricks
    /// return NaN poison until the volume is re-imported.
    pub unrecoverable: Vec<u64>,
}

impl ScrubReport {
    /// True when every brick verified (possibly after repair).
    pub fn is_healthy(&self) -> bool {
        self.unrecoverable.is_empty()
    }
}

/// LRU of decoded resident bricks with byte-budget accounting.
struct Lru {
    map: HashMap<u64, (Arc<Vec<f32>>, u64)>,
    tick: u64,
    resident_bytes: usize,
    brick_bytes: usize,
    budget: usize,
}

impl Lru {
    fn new(brick_bytes: usize, budget: usize) -> Self {
        Self { map: HashMap::new(), tick: 0, resident_bytes: 0, brick_bytes, budget }
    }

    fn get(&mut self, id: u64) -> Option<Arc<Vec<f32>>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&id).map(|(buf, last)| {
            *last = tick;
            Arc::clone(buf)
        })
    }

    /// Insert a freshly-loaded brick, evicting least-recently-used
    /// entries to stay under budget. If a racing loader already inserted
    /// this id, the incumbent wins (no double-count) and is returned.
    fn insert(&mut self, id: u64, buf: Arc<Vec<f32>>) -> (Arc<Vec<f32>>, u64) {
        self.tick += 1;
        if let Some((existing, last)) = self.map.get_mut(&id) {
            *last = self.tick;
            return (Arc::clone(existing), 0);
        }
        let mut evicted = 0;
        while !self.map.is_empty() && self.resident_bytes + self.brick_bytes > self.budget {
            let oldest = self
                .map
                .iter()
                .min_by_key(|(_, (_, last))| *last)
                .map(|(&k, _)| k)
                .expect("non-empty map has a minimum");
            self.map.remove(&oldest);
            self.resident_bytes -= self.brick_bytes;
            evicted += 1;
        }
        self.map.insert(id, (Arc::clone(&buf), self.tick));
        self.resident_bytes += self.brick_bytes;
        (buf, evicted)
    }
}

/// A crash-safe, paged, checksummed on-disk volume. See the module docs
/// for the failure model.
pub struct BrickStore {
    dir: PathBuf,
    geom: BrickGeom,
    order: LayoutKind,
    manifest: Manifest,
    /// slot → manifest entry is `manifest.slots`; this is the inverse.
    slot_of_brick: Vec<u32>,
    data: Mutex<FaultyFile>,
    lru: Mutex<Lru>,
    /// brick id → (journal payload offset, payload length, record FNV).
    journal_index: HashMap<u64, (u64, u32, u64)>,
    defects: Mutex<std::collections::BTreeSet<u64>>,
    stats: AtomicStats,
    opts: StoreOptions,
}

impl std::fmt::Debug for BrickStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BrickStore")
            .field("dir", &self.dir)
            .field("dims", &self.geom.dims())
            .field("edge", &self.geom.edge())
            .field("order", &self.order)
            .field("bricks", &self.geom.brick_count())
            .finish()
    }
}

/// Run a faultable IO operation up to `attempts` times with linear
/// backoff (used where the store has no per-brick retry loop of its own,
/// e.g. opening the data file).
fn with_retry<T>(
    attempts: u32,
    backoff: Duration,
    mut op: impl FnMut() -> std::io::Result<T>,
) -> std::io::Result<T> {
    let mut last = None;
    for attempt in 0..attempts.max(1) {
        if attempt > 0 {
            std::thread::sleep(backoff * attempt);
        }
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => last = Some(e),
        }
    }
    Err(last.expect("attempts >= 1 recorded an error"))
}

fn slot_bytes(geom: &BrickGeom) -> usize {
    geom.brick_len() * 4
}

fn f32s_from_le(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("chunks_exact(4)")))
        .collect()
}

fn brick_record(brick_id: u64, payload: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(BRICK_RECORD_HEADER + payload.len());
    rec.extend_from_slice(TAG_BRICK);
    rec.extend_from_slice(&brick_id.to_le_bytes());
    rec.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    rec.extend_from_slice(payload);
    rec
}

fn meta_record(dims: Dims3, edge: u32, order: LayoutKind) -> Vec<u8> {
    let mut rec = Vec::with_capacity(4 + 24 + 8);
    rec.extend_from_slice(TAG_META);
    rec.extend_from_slice(&(dims.nx as u64).to_le_bytes());
    rec.extend_from_slice(&(dims.ny as u64).to_le_bytes());
    rec.extend_from_slice(&(dims.nz as u64).to_le_bytes());
    rec.extend_from_slice(&edge.to_le_bytes());
    rec.extend_from_slice(&kind_code(order).to_le_bytes());
    rec
}

fn parse_meta_record(rec: &[u8]) -> Option<(Dims3, u32, LayoutKind)> {
    if rec.len() != 4 + 24 + 8 || &rec[0..4] != TAG_META {
        return None;
    }
    let dims = Dims3::try_new(
        u64::from_le_bytes(rec[4..12].try_into().ok()?) as usize,
        u64::from_le_bytes(rec[12..20].try_into().ok()?) as usize,
        u64::from_le_bytes(rec[20..28].try_into().ok()?) as usize,
    )
    .ok()?;
    let edge = u32::from_le_bytes(rec[28..32].try_into().ok()?);
    let order = kind_from_code(u32::from_le_bytes(rec[32..36].try_into().ok()?))?;
    Some((dims, edge, order))
}

impl BrickStore {
    /// Import `vol` into a new store at `dir` (created if missing),
    /// bricked at `edge` voxels and laid out on disk in `order`'s
    /// space-filling-curve traversal of the brick grid, then open it.
    ///
    /// Durability protocol: every brick is journaled (fsync'd) *before*
    /// its slot is written, and the manifest is published atomically
    /// only after the data file is fully synced — a crash at any point
    /// leaves either an openable store or a journal that
    /// [`BrickStore::recover`] can finish or refuse with a typed error.
    /// Any prior store in `dir` is replaced.
    pub fn import(
        dir: &Path,
        vol: &impl Volume3,
        edge: usize,
        order: LayoutKind,
        opts: StoreOptions,
    ) -> SfcResult<Self> {
        let dims = vol.dims();
        let geom = BrickGeom::try_new(dims, edge)?;
        std::fs::create_dir_all(dir)
            .map_err(|e| SfcError::io(format!("create store dir {}", dir.display()), e))?;
        // A stale manifest must not survive a partial re-import: remove it
        // first so a crash mid-import is unambiguously "unfinished".
        let manifest_path = dir.join(MANIFEST_FILE);
        if manifest_path.exists() {
            std::fs::remove_file(&manifest_path)
                .map_err(|e| SfcError::io("remove stale manifest", e))?;
        }
        let journal_path = dir.join(JOURNAL_FILE);
        let (mut journal, _) = Journal::open(&journal_path)
            .map_err(|e| SfcError::io(format!("open journal {}", journal_path.display()), e))?;
        journal
            .reset()
            .map_err(|e| SfcError::io("reset journal for re-import", e))?;
        journal
            .append(&meta_record(dims, edge as u32, order))
            .map_err(|e| SfcError::io("journal meta record", e))?;

        let data_path = dir.join(DATA_FILE);
        let mut data = FaultyFile::create(&data_path, opts.faults.clone())
            .map_err(|e| SfcError::io(format!("create {}", data_path.display()), e))?;

        let slot_ids = geom.sfc_order(order);
        let mut slots = Vec::with_capacity(slot_ids.len());
        let mut brick = vec![0.0f32; geom.brick_len()];
        let mut payload = vec![0u8; slot_bytes(&geom)];
        for &id in &slot_ids {
            extract_brick(vol, &geom, id, &mut brick);
            for (chunk, v) in payload.chunks_exact_mut(4).zip(&brick) {
                chunk.copy_from_slice(&v.to_le_bytes());
            }
            let checksum = fnv1a64(&payload);
            journal
                .append(&brick_record(id as u64, &payload))
                .map_err(|e| SfcError::io(format!("journal brick {id}"), e))?;
            data.write_all(&payload)
                .map_err(|e| SfcError::io(format!("write brick {id}"), e))?;
            slots.push(SlotEntry { brick_id: id as u64, checksum });
        }
        data.sync_all()
            .map_err(|e| SfcError::io("sync data file", e))?;
        drop(data);

        let manifest = Manifest { dims, edge: edge as u32, order, slots };
        write_atomic_with(&manifest_path, &manifest.encode(), &opts.faults)
            .map_err(|e| SfcError::io("publish manifest", e))?;
        Self::open(dir, opts)
    }

    /// Open an existing store. Fails with a typed error when the
    /// manifest is missing (unfinished import — see
    /// [`BrickStore::recover`]), corrupt, or inconsistent with the data
    /// file's size. Brick payloads are *not* verified here; they are
    /// checked on every read and by [`BrickStore::scrub`].
    pub fn open(dir: &Path, opts: StoreOptions) -> SfcResult<Self> {
        let manifest_path = dir.join(MANIFEST_FILE);
        let what = manifest_path.display().to_string();
        if !manifest_path.exists() {
            return Err(SfcError::corrupt(
                &what,
                "manifest missing: store was never fully imported (try recover())",
            ));
        }
        let bytes = std::fs::read(&manifest_path).map_err(|e| SfcError::io(&what, e))?;
        let manifest = Manifest::parse(&bytes, &what)?;
        let geom = BrickGeom::try_new(manifest.dims, manifest.edge as usize)?;
        let count = geom.brick_count();
        if manifest.slots.len() != count {
            return Err(SfcError::corrupt(
                &what,
                format!("{} slots for {} bricks", manifest.slots.len(), count),
            ));
        }
        let mut slot_of_brick = vec![u32::MAX; count];
        for (slot, entry) in manifest.slots.iter().enumerate() {
            let id = usize::try_from(entry.brick_id)
                .ok()
                .filter(|&id| id < count)
                .ok_or_else(|| {
                    SfcError::corrupt(&what, format!("slot {slot}: brick id {} out of range", entry.brick_id))
                })?;
            if slot_of_brick[id] != u32::MAX {
                return Err(SfcError::corrupt(
                    &what,
                    format!("brick {id} appears in two slots"),
                ));
            }
            slot_of_brick[id] = slot as u32;
        }

        let data_path = dir.join(DATA_FILE);
        let data = with_retry(opts.attempts, opts.backoff, || {
            FaultyFile::options(
                OpenOptions::new().read(true).write(true),
                &data_path,
                opts.faults.clone(),
            )
        })
        .map_err(|e| SfcError::io(format!("open {}", data_path.display()), e))?;
        let file_len = data
            .metadata()
            .map_err(|e| SfcError::io("data file metadata", e))?
            .len();
        let want_len = (count as u64) * slot_bytes(&geom) as u64;
        if file_len < want_len {
            return Err(SfcError::corrupt(
                data_path.display().to_string(),
                format!("data file holds {file_len} bytes, manifest requires {want_len}"),
            ));
        }

        let journal_index = index_journal(&dir.join(JOURNAL_FILE), slot_bytes(&geom));
        let brick_bytes = geom.brick_len() * std::mem::size_of::<f32>();
        Ok(Self {
            dir: dir.to_path_buf(),
            geom,
            order: manifest.order,
            slot_of_brick,
            lru: Mutex::new(Lru::new(brick_bytes, opts.budget_bytes)),
            data: Mutex::new(data),
            journal_index,
            defects: Mutex::new(Default::default()),
            stats: AtomicStats::default(),
            manifest,
            opts,
        })
    }

    /// Finish (or validate) an interrupted import from the journal: if
    /// the journal holds the meta record and every brick, the data file
    /// and manifest are rebuilt and the store opened; otherwise a typed
    /// error reports how far the import got. A store whose manifest
    /// already exists opens directly.
    pub fn recover(dir: &Path, opts: StoreOptions) -> SfcResult<Self> {
        if dir.join(MANIFEST_FILE).exists() {
            return Self::open(dir, opts);
        }
        let journal_path = dir.join(JOURNAL_FILE);
        let what = journal_path.display().to_string();
        let (_, recovery) = Journal::open(&journal_path).map_err(|e| SfcError::io(&what, e))?;
        let mut records = recovery.records.iter();
        let Some((dims, edge, order)) = records.next().and_then(|r| parse_meta_record(r)) else {
            return Err(SfcError::corrupt(&what, "journal has no meta record; nothing to recover"));
        };
        let geom = BrickGeom::try_new(dims, edge as usize)?;
        let expect = slot_bytes(&geom);
        // Later copies of a brick supersede earlier ones.
        let mut payloads: HashMap<u64, &[u8]> = HashMap::new();
        for rec in records {
            if rec.len() == BRICK_RECORD_HEADER + expect && &rec[0..4] == TAG_BRICK {
                let id = u64::from_le_bytes(rec[4..12].try_into().expect("sized"));
                let sum = u64::from_le_bytes(rec[12..20].try_into().expect("sized"));
                let payload = &rec[BRICK_RECORD_HEADER..];
                if fnv1a64(payload) == sum {
                    payloads.insert(id, payload);
                }
            }
        }
        let count = geom.brick_count();
        if payloads.len() < count {
            return Err(SfcError::corrupt(
                &what,
                format!(
                    "import incomplete: journal holds {} of {count} bricks; re-import required",
                    payloads.len()
                ),
            ));
        }
        // Rebuild the data file in SFC order, then publish the manifest.
        let data_path = dir.join(DATA_FILE);
        let mut data = FaultyFile::create(&data_path, opts.faults.clone())
            .map_err(|e| SfcError::io(format!("create {}", data_path.display()), e))?;
        let slot_ids = geom.sfc_order(order);
        let mut slots = Vec::with_capacity(count);
        for &id in &slot_ids {
            let payload = payloads[&(id as u64)];
            data.write_all(payload)
                .map_err(|e| SfcError::io(format!("rebuild brick {id}"), e))?;
            slots.push(SlotEntry { brick_id: id as u64, checksum: fnv1a64(payload) });
        }
        data.sync_all().map_err(|e| SfcError::io("sync rebuilt data file", e))?;
        drop(data);
        let manifest = Manifest { dims, edge, order, slots };
        write_atomic_with(&dir.join(MANIFEST_FILE), &manifest.encode(), &opts.faults)
            .map_err(|e| SfcError::io("publish recovered manifest", e))?;
        Self::open(dir, opts)
    }

    /// Brick geometry of the stored volume.
    pub fn geom(&self) -> &BrickGeom {
        &self.geom
    }

    /// Space-filling curve ordering bricks on disk.
    pub fn order(&self) -> LayoutKind {
        self.order
    }

    /// Store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Snapshot of the lifetime counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            retries: self.stats.retries.load(Ordering::Relaxed),
            repairs: self.stats.repairs.load(Ordering::Relaxed),
            repair_writebacks_failed: self
                .stats
                .repair_writebacks_failed
                .load(Ordering::Relaxed),
            poisoned: self.stats.poisoned.load(Ordering::Relaxed),
        }
    }

    /// Bytes of decoded bricks currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.lru.lock().expect("lru lock").resident_bytes
    }

    /// Brick ids that have been served as NaN poison (no intact copy).
    pub fn defective_bricks(&self) -> Vec<u64> {
        self.defects.lock().expect("defects lock").iter().copied().collect()
    }

    fn slot_of(&self, brick_id: usize) -> usize {
        self.slot_of_brick[brick_id] as usize
    }

    /// Read slot `slot` raw, once, through the fault plan.
    fn read_slot_once(&self, slot: usize) -> std::io::Result<Vec<u8>> {
        let n = slot_bytes(&self.geom);
        let mut buf = vec![0u8; n];
        let mut data = self.data.lock().expect("data lock");
        data.seek(SeekFrom::Start((slot * n) as u64))?;
        data.read_exact(&mut buf)?;
        Ok(buf)
    }

    /// Read a brick's payload and verify its manifest checksum, with
    /// bounded retry + linear backoff across both IO errors and
    /// checksum mismatches (a bit flipped *in transit* disappears on
    /// re-read; one flipped *on disk* does not and falls through to
    /// read-repair).
    fn read_verified(&self, brick_id: usize) -> SfcResult<Vec<u8>> {
        let slot = self.slot_of(brick_id);
        let want = self.manifest.slots[slot].checksum;
        let mut last_err: Option<SfcError> = None;
        for attempt in 0..self.opts.attempts.max(1) {
            if attempt > 0 {
                self.stats.retries.fetch_add(1, Ordering::Relaxed);
                RETRIES_TOTAL.add(1);
                std::thread::sleep(self.opts.backoff * attempt);
            }
            match self.read_slot_once(slot) {
                Ok(payload) => {
                    let got = fnv1a64(&payload);
                    if got == want {
                        return Ok(payload);
                    }
                    last_err = Some(SfcError::corrupt(
                        format!("brick {brick_id} (slot {slot})"),
                        format!("checksum mismatch: manifest {want:#018x}, read {got:#018x}"),
                    ));
                }
                Err(e) => {
                    last_err = Some(SfcError::io(format!("read brick {brick_id}"), e));
                }
            }
        }
        Err(last_err.expect("attempts >= 1 recorded an error"))
    }

    /// Fetch a brick's journal copy, verify it, and rewrite the data
    /// slot from it. Returns the verified payload even when the
    /// write-back fails (the caller still gets good data; the medium
    /// stays bad and is counted).
    fn repair_from_journal(&self, brick_id: usize) -> SfcResult<Vec<u8>> {
        let what = format!("read-repair brick {brick_id}");
        let &(offset, len, want_sum) = self
            .journal_index
            .get(&(brick_id as u64))
            .ok_or_else(|| SfcError::corrupt(&what, "no journal copy"))?;
        let journal_path = self.dir.join(JOURNAL_FILE);
        let payload = with_retry(self.opts.attempts, self.opts.backoff, || {
            let mut payload = vec![0u8; len as usize];
            let mut f = FaultyFile::open(&journal_path, self.opts.faults.clone())?;
            f.seek(SeekFrom::Start(offset))?;
            f.read_exact(&mut payload)?;
            Ok(payload)
        })
        .map_err(|e| SfcError::io(&what, e))?;
        if fnv1a64(&payload) != want_sum {
            return Err(SfcError::corrupt(&what, "journal copy is itself corrupt"));
        }
        let slot = self.slot_of(brick_id);
        if fnv1a64(&payload) != self.manifest.slots[slot].checksum {
            return Err(SfcError::corrupt(&what, "journal copy disagrees with manifest"));
        }
        let n = slot_bytes(&self.geom);
        let write_back = (|| -> std::io::Result<()> {
            let mut data = self.data.lock().expect("data lock");
            data.seek(SeekFrom::Start((slot * n) as u64))?;
            data.write_all(&payload)?;
            data.sync_data()
        })();
        match write_back {
            Ok(()) => {
                self.stats.repairs.fetch_add(1, Ordering::Relaxed);
                REPAIRS_TOTAL.add(1);
            }
            Err(_) => {
                self.stats
                    .repair_writebacks_failed
                    .fetch_add(1, Ordering::Relaxed);
                REPAIR_WRITEBACKS_FAILED_TOTAL.add(1);
            }
        }
        Ok(payload)
    }

    /// Load one brick through the full recovery ladder:
    /// verified read → read-repair from journal → NaN poison.
    fn load_brick(&self, brick_id: usize) -> Arc<Vec<f32>> {
        match self.read_verified(brick_id) {
            Ok(payload) => Arc::new(f32s_from_le(&payload)),
            Err(_) => match self.repair_from_journal(brick_id) {
                Ok(payload) => Arc::new(f32s_from_le(&payload)),
                Err(_) => {
                    self.stats.poisoned.fetch_add(1, Ordering::Relaxed);
                    POISONED_TOTAL.add(1);
                    self.defects
                        .lock()
                        .expect("defects lock")
                        .insert(brick_id as u64);
                    Arc::new(vec![f32::NAN; self.geom.brick_len()])
                }
            },
        }
    }

    /// Get a brick (resident or faulted in). Public so streaming drivers
    /// can prefetch along the SFC order.
    pub fn brick(&self, brick_id: usize) -> Arc<Vec<f32>> {
        assert!(brick_id < self.geom.brick_count(), "brick id out of range");
        let id = brick_id as u64;
        if let Some(hit) = self.lru.lock().expect("lru lock").get(id) {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            HITS_TOTAL.add(1);
            return hit;
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        MISSES_TOTAL.add(1);
        // Load outside the LRU lock: concurrent loaders of the same brick
        // race harmlessly (insert() keeps the incumbent, the loser's read
        // is dropped) and loaders of different bricks overlap their IO.
        let buf = self.load_brick(brick_id);
        let (buf, evicted) = self.lru.lock().expect("lru lock").insert(id, buf);
        if evicted > 0 {
            self.stats.evictions.fetch_add(evicted, Ordering::Relaxed);
            EVICTIONS_TOTAL.add(evicted);
        }
        buf
    }

    /// Walk every brick verifying checksums, repairing rot from the
    /// journal where possible. Resident copies are untouched (they were
    /// verified when loaded); the scrub reads the *disk* state.
    pub fn scrub(&self) -> ScrubReport {
        let mut report = ScrubReport { scanned: self.geom.brick_count(), ..Default::default() };
        for id in 0..self.geom.brick_count() {
            match self.read_verified(id) {
                Ok(_) => report.clean += 1,
                Err(_) => match self.repair_from_journal(id) {
                    Ok(_) => report.repaired += 1,
                    Err(_) => {
                        self.defects.lock().expect("defects lock").insert(id as u64);
                        report.unrecoverable.push(id as u64);
                    }
                },
            }
        }
        SCRUB_RUNS.add(1);
        SCRUB_CLEAN.add(report.clean as u64);
        SCRUB_REPAIRED.add(report.repaired as u64);
        SCRUB_UNRECOVERABLE.add(report.unrecoverable.len() as u64);
        report
    }
}

/// Build the brick id → journal record location index by streaming the
/// journal's framing headers (payloads are *skipped*, not read — the
/// index costs O(records), not O(volume)). Torn or short tails simply
/// end the scan; payload integrity is re-checked at repair time against
/// the recorded FNV.
fn index_journal(path: &Path, expect_payload: usize) -> HashMap<u64, (u64, u32, u64)> {
    let mut index = HashMap::new();
    let Ok(mut f) = File::open(path) else {
        return index;
    };
    let Ok(meta) = f.metadata() else {
        return index;
    };
    let file_len = meta.len();
    let frame = RECORD_HEADER as u64;
    let mut pos = 0u64;
    let mut header = [0u8; RECORD_HEADER + BRICK_RECORD_HEADER];
    while pos + frame <= file_len {
        if f.seek(SeekFrom::Start(pos)).is_err() {
            break;
        }
        // Read the frame header plus (maybe) a brick record header.
        let avail = ((file_len - pos) as usize).min(header.len());
        if f.read_exact(&mut header[..avail]).is_err() {
            break;
        }
        let rec_len = u32::from_le_bytes(header[0..4].try_into().expect("sized")) as u64;
        let next = pos + frame + rec_len;
        if next > file_len {
            break; // torn tail
        }
        let rec = &header[RECORD_HEADER..];
        if avail == header.len()
            && rec_len as usize == BRICK_RECORD_HEADER + expect_payload
            && &rec[0..4] == TAG_BRICK
        {
            let id = u64::from_le_bytes(rec[4..12].try_into().expect("sized"));
            let sum = u64::from_le_bytes(rec[12..20].try_into().expect("sized"));
            index.insert(
                id,
                (
                    pos + frame + BRICK_RECORD_HEADER as u64,
                    expect_payload as u32,
                    sum,
                ),
            );
        }
        pos = next;
    }
    index
}

impl Volume3 for BrickStore {
    #[inline]
    fn dims(&self) -> Dims3 {
        self.geom.dims()
    }

    #[inline]
    fn get(&self, i: usize, j: usize, k: usize) -> f32 {
        let id = self.geom.brick_of_voxel(i, j, k);
        let brick = self.brick(id);
        brick[self.geom.offset_in_brick(i, j, k)]
    }

    fn gather_axis_run(&self, i: usize, j: usize, k: usize, axis: Axis, dst: &mut [f32]) {
        // Amortize the LRU round-trip: a run crosses a brick boundary at
        // most every `edge` samples, so hold the current brick until the
        // coordinate leaves it.
        let mut cur: Option<(usize, Arc<Vec<f32>>)> = None;
        for (t, v) in dst.iter_mut().enumerate() {
            let (ci, cj, ck) = match axis {
                Axis::X => (i + t, j, k),
                Axis::Y => (i, j + t, k),
                Axis::Z => (i, j, k + t),
            };
            let id = self.geom.brick_of_voxel(ci, cj, ck);
            if !matches!(&cur, Some((cid, _)) if *cid == id) {
                cur = Some((id, self.brick(id)));
            }
            let (_, brick) = cur.as_ref().expect("set above");
            *v = brick[self.geom.offset_in_brick(ci, cj, ck)];
        }
    }
}
