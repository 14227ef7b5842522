//! Deterministic fault injection for exercising the supervised pool and
//! the typed error paths.
//!
//! A [`FaultPlan`] scripts failures — panics, stalls, transient errors —
//! keyed by item index, fired at the top of each attempt, so tests can
//! assert exactly which items fail, retry, and recover. An [`IoFaultPlan`]
//! does the same for *file operations*: threaded through a [`FaultyFile`]
//! wrapper it injects I/O errors, torn writes, silent bit flips, and
//! device stalls underneath the out-of-core brick store's production code
//! paths. Free functions corrupt data in the two other ways the
//! robustness layer must survive: NaN-contaminated voxel buffers and
//! truncated/bit-flipped volume files.
//!
//! Everything is seeded and deterministic: a failing CI run reproduces
//! locally from the same seed.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sfc_core::{SfcError, SfcResult, SplitMix64};

use crate::cli::Args;
use crate::supervise::CancelToken;

/// What to inject at a given item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic on every attempt (tests panic isolation and retry limits).
    Panic,
    /// Sleep for the given duration before succeeding (tests the
    /// watchdog; keep it finite — scoped threads must eventually join).
    Stall(Duration),
    /// Return a retryable [`SfcError::WorkerPanic`]-class error on the
    /// first `n` attempts, then succeed (tests backoff-to-success).
    FailFirst(u32),
    /// Return a non-retryable [`SfcError::InvalidParameter`] every attempt
    /// (tests that validation errors are not retried).
    Invalid,
    /// Let the item complete, but have the engine poison its output with
    /// NaN and out-of-range values afterwards (tests the post-run
    /// validation scan + repair path; [`FaultPlan::fire_cancellable`] is a
    /// no-op for this kind — the engine consults [`FaultPlan::corrupts`]).
    CorruptOutput,
    /// An I/O operation fails outright with an injected [`std::io::Error`]
    /// (tests bounded retry-with-backoff on reads and temp-file cleanup on
    /// writes). Interpreted by the [`IoFaultPlan`]/[`FaultyFile`] layer;
    /// a no-op in worker-item plans.
    IoError,
    /// A write persists only a prefix of its buffer and then errors — the
    /// torn write a power loss or a full disk produces (tests that torn
    /// bricks are never accepted). I/O-layer only.
    ShortWrite,
    /// One bit of the transferred buffer is flipped in flight — silent
    /// storage bit rot (tests checksum verification, scrubbing, and
    /// read-repair). I/O-layer only.
    BitFlip,
    /// The operation stalls for the given duration before succeeding
    /// (tests that slow devices delay, but do not fail, a read). I/O-layer
    /// only.
    SlowIo(Duration),
}

/// Per-item fault probabilities for a randomized [`FaultPlan`], typically
/// parsed from the shared CLI flags (see [`FaultRates::from_args`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Probability an item panics on every attempt.
    pub panic: f32,
    /// Probability an item fails (retryably) on its first attempt.
    pub flaky: f32,
    /// Probability an item stalls past the watchdog deadline.
    pub stall: f32,
    /// Probability an item's output is poisoned after completion.
    pub corrupt: f32,
    /// How long a stalled item sleeps.
    pub stall_ms: u64,
}

impl Default for FaultRates {
    fn default() -> Self {
        Self {
            panic: 0.0,
            flaky: 0.0,
            stall: 0.0,
            corrupt: 0.0,
            stall_ms: 200,
        }
    }
}

impl FaultRates {
    /// Parse the shared fault-injection flags from an experiment binary's
    /// arguments. Returns `None` unless `--fault-seed <u64>` is present;
    /// the rates (`--panic-rate`, `--flaky-rate`, `--timeout-rate`,
    /// `--corrupt-rate`, all default 0) and `--stall-ms` ride along.
    pub fn from_args(args: &Args) -> Option<(u64, FaultRates)> {
        let seed = args.get("fault-seed")?;
        let seed: u64 = seed
            .parse()
            .unwrap_or_else(|_| panic!("--fault-seed expects an integer, got {seed:?}"));
        let rates = FaultRates {
            panic: args.get_f64("panic-rate", 0.0) as f32,
            flaky: args.get_f64("flaky-rate", 0.0) as f32,
            stall: args.get_f64("timeout-rate", 0.0) as f32,
            corrupt: args.get_f64("corrupt-rate", 0.0) as f32,
            stall_ms: args.get_u64("stall-ms", 200),
        };
        Some((seed, rates))
    }
}

/// A scripted set of per-item faults plus per-item attempt counters.
#[derive(Debug, Default)]
pub struct FaultPlan {
    faults: HashMap<usize, (FaultKind, AtomicU32)>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// Add a fault for one item (builder-style).
    pub fn with(mut self, item: usize, kind: FaultKind) -> Self {
        self.faults.insert(item, (kind, AtomicU32::new(0)));
        self
    }

    /// Seeded random plan: each item independently panics with probability
    /// `panic_rate` or fails its first attempt with probability
    /// `flaky_rate`. Deterministic for a `(seed, nitems)` pair.
    pub fn random(seed: u64, nitems: usize, panic_rate: f32, flaky_rate: f32) -> Self {
        Self::random_rates(
            seed,
            nitems,
            &FaultRates {
                panic: panic_rate,
                flaky: flaky_rate,
                ..FaultRates::default()
            },
        )
    }

    /// Seeded random plan over the full fault menu. Each item draws at most
    /// one fault (panic beats flaky beats stall beats corrupt); the per-item
    /// RNG stream consumes a fixed number of draws so the assignment for a
    /// `(seed, nitems)` pair is stable even as rates change.
    pub fn random_rates(seed: u64, nitems: usize, rates: &FaultRates) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut plan = Self::none();
        for item in 0..nitems {
            let draws = [
                rng.chance(rates.panic),
                rng.chance(rates.flaky),
                rng.chance(rates.stall),
                rng.chance(rates.corrupt),
            ];
            if draws[0] {
                plan = plan.with(item, FaultKind::Panic);
            } else if draws[1] {
                plan = plan.with(item, FaultKind::FailFirst(1));
            } else if draws[2] {
                plan = plan.with(item, FaultKind::Stall(Duration::from_millis(rates.stall_ms)));
            } else if draws[3] {
                plan = plan.with(item, FaultKind::CorruptOutput);
            }
        }
        plan
    }

    /// Number of scripted faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Items scripted to panic on every attempt (these can never succeed).
    pub fn doomed_items(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .faults
            .iter()
            .filter(|(_, (k, _))| matches!(k, FaultKind::Panic | FaultKind::Invalid))
            .map(|(&i, _)| i)
            .collect();
        v.sort_unstable();
        v
    }

    /// Items whose output is scripted to be poisoned after completion
    /// (see [`FaultKind::CorruptOutput`]).
    pub fn corrupt_items(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .faults
            .iter()
            .filter(|(_, (k, _))| matches!(k, FaultKind::CorruptOutput))
            .map(|(&i, _)| i)
            .collect();
        v.sort_unstable();
        v
    }

    /// True when `item` is scripted for [`FaultKind::CorruptOutput`].
    /// Degraded drivers call this after computing a unit to decide whether
    /// to poison its committed output.
    pub fn corrupts(&self, item: usize) -> bool {
        matches!(self.faults.get(&item), Some((FaultKind::CorruptOutput, _)))
    }

    /// Fire the fault scripted for `item`, if any. Call at the top of an
    /// attempt; panics, sleeps, or returns `Err` according to the plan and
    /// the per-item attempt count. A stalled item sleeps cooperatively:
    /// when the watchdog fires `token`, the stall is abandoned with
    /// [`SfcError::Cancelled`] instead of wedging a worker thread for the
    /// full scripted duration.
    pub fn fire_cancellable(&self, item: usize, token: &CancelToken) -> SfcResult<()> {
        let Some((kind, attempts)) = self.faults.get(&item) else {
            return Ok(());
        };
        let attempt = attempts.fetch_add(1, Ordering::Relaxed);
        match kind {
            FaultKind::Panic => panic!("injected fault: panic on item {item}"),
            FaultKind::Stall(d) => token.sleep_cancellable(item, *d),
            FaultKind::FailFirst(n) => {
                if attempt < *n {
                    Err(SfcError::WorkerPanic {
                        item,
                        payload: format!(
                            "injected transient failure on item {item} (attempt {attempt})"
                        ),
                    })
                } else {
                    Ok(())
                }
            }
            FaultKind::Invalid => Err(SfcError::InvalidParameter {
                name: "injected",
                reason: format!("non-retryable fault on item {item}"),
            }),
            // I/O kinds are interpreted by the IoFaultPlan/FaultyFile
            // layer; in a worker-item plan they inject nothing.
            FaultKind::CorruptOutput
            | FaultKind::IoError
            | FaultKind::ShortWrite
            | FaultKind::BitFlip
            | FaultKind::SlowIo(_) => Ok(()),
        }
    }
}

/// Per-operation probabilities for a randomized [`IoFaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoFaultRates {
    /// Probability an operation fails with an injected I/O error.
    pub io_error: f32,
    /// Probability a write persists only a prefix, then errors.
    pub short_write: f32,
    /// Probability one bit of the transferred buffer is flipped.
    pub bit_flip: f32,
    /// Probability the operation stalls before succeeding.
    pub slow_io: f32,
    /// How long a stalled operation sleeps.
    pub slow_ms: u64,
}

impl Default for IoFaultRates {
    fn default() -> Self {
        Self {
            io_error: 0.0,
            short_write: 0.0,
            bit_flip: 0.0,
            slow_io: 0.0,
            slow_ms: 5,
        }
    }
}

struct IoPlanInner {
    scripted: HashMap<u64, FaultKind>,
    rates: IoFaultRates,
    seed: u64,
    op: AtomicU64,
    injected: AtomicU64,
}

/// A deterministic schedule of I/O faults, keyed by *operation sequence
/// number*: every file operation routed through a [`FaultyFile`] (or
/// through [`crate::durable::write_atomic_with`]) draws the next number
/// and consults the plan. Cloning is cheap (shared state), so one plan
/// can be threaded through a store handle, its journal, and its manifest
/// writer and still produce one global, reproducible fault sequence.
///
/// Scripted entries ([`IoFaultPlan::with_op`]) pin a fault to an exact
/// operation; the seeded rates fire everywhere else. A `(seed, rates)`
/// pair replays identically — a failing CI run reproduces locally.
#[derive(Clone)]
pub struct IoFaultPlan {
    inner: Arc<IoPlanInner>,
}

impl std::fmt::Debug for IoFaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoFaultPlan")
            .field("seed", &self.inner.seed)
            .field("rates", &self.inner.rates)
            .field("scripted", &self.inner.scripted.len())
            .field("ops", &self.ops())
            .field("injected", &self.injected())
            .finish()
    }
}

impl Default for IoFaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl IoFaultPlan {
    /// A plan that injects nothing (the production configuration).
    pub fn none() -> Self {
        Self::random(0, IoFaultRates::default())
    }

    /// Seeded random plan over the I/O fault menu. Each operation draws a
    /// fixed number of chances (io_error beats short_write beats bit_flip
    /// beats slow_io) so the fault at operation `n` depends only on
    /// `(seed, n)` — never on how many faults fired before it.
    pub fn random(seed: u64, rates: IoFaultRates) -> Self {
        Self {
            inner: Arc::new(IoPlanInner {
                scripted: HashMap::new(),
                rates,
                seed,
                op: AtomicU64::new(0),
                injected: AtomicU64::new(0),
            }),
        }
    }

    /// Script a fault for one exact operation number (builder-style; only
    /// valid before the plan is cloned into a file handle).
    ///
    /// # Panics
    /// Panics if the plan has already been shared (scripting must happen
    /// at construction time to stay deterministic).
    pub fn with_op(mut self, op: u64, kind: FaultKind) -> Self {
        Arc::get_mut(&mut self.inner)
            .expect("script IoFaultPlan ops before sharing the plan")
            .scripted
            .insert(op, kind);
        self
    }

    /// Operations observed so far.
    pub fn ops(&self) -> u64 {
        self.inner.op.load(Ordering::Relaxed)
    }

    /// Faults injected so far (all kinds).
    pub fn injected(&self) -> u64 {
        self.inner.injected.load(Ordering::Relaxed)
    }

    /// Draw the fault (if any) for the next operation.
    fn draw(&self) -> Option<(u64, FaultKind)> {
        let op = self.inner.op.fetch_add(1, Ordering::Relaxed);
        let kind = if let Some(k) = self.inner.scripted.get(&op) {
            Some(*k)
        } else {
            let r = &self.inner.rates;
            // Per-op RNG stream: the draw for op n is independent of all
            // other ops, so retries of the same logical read re-draw.
            let mut rng = SplitMix64::new(self.inner.seed ^ op.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let draws = [
                rng.chance(r.io_error),
                rng.chance(r.short_write),
                rng.chance(r.bit_flip),
                rng.chance(r.slow_io),
            ];
            if draws[0] {
                Some(FaultKind::IoError)
            } else if draws[1] {
                Some(FaultKind::ShortWrite)
            } else if draws[2] {
                Some(FaultKind::BitFlip)
            } else if draws[3] {
                Some(FaultKind::SlowIo(Duration::from_millis(r.slow_ms)))
            } else {
                None
            }
        };
        if kind.is_some() {
            self.inner.injected.fetch_add(1, Ordering::Relaxed);
        }
        kind.map(|k| (op, k))
    }

    fn injected_err(op: u64, what: &str) -> std::io::Error {
        std::io::Error::other(format!("injected I/O fault: {what} failed (op {op})"))
    }

    /// Fire the next operation's fault for a *control* operation (open,
    /// fsync, rename, directory sync): an [`FaultKind::IoError`] or
    /// [`FaultKind::ShortWrite`] draw fails the operation, a
    /// [`FaultKind::SlowIo`] stalls it, a [`FaultKind::BitFlip`] is
    /// meaningless without a buffer and passes.
    pub fn fire_control(&self, what: &str) -> std::io::Result<()> {
        match self.draw() {
            Some((op, FaultKind::IoError)) | Some((op, FaultKind::ShortWrite)) => {
                Err(Self::injected_err(op, what))
            }
            Some((_, FaultKind::SlowIo(d))) => {
                std::thread::sleep(d);
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Apply the next operation's fault to a buffer just read:
    /// `IoError` fails the read, `BitFlip` flips one deterministic bit of
    /// the buffer (seeded by the op number), `SlowIo` stalls,
    /// `ShortWrite` does not apply to reads.
    fn fire_read(&self, buf: &mut [u8]) -> std::io::Result<()> {
        match self.draw() {
            Some((op, FaultKind::IoError)) => Err(Self::injected_err(op, "read")),
            Some((op, FaultKind::BitFlip)) => {
                if !buf.is_empty() {
                    let bit = SplitMix64::new(self.inner.seed ^ op).next_u64() as usize
                        % (buf.len() * 8);
                    buf[bit / 8] ^= 1 << (bit % 8);
                }
                Ok(())
            }
            Some((_, FaultKind::SlowIo(d))) => {
                std::thread::sleep(d);
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Decide the next operation's fault for a buffer about to be
    /// written. Returns how many prefix bytes to actually write and an
    /// optional bit to flip; an `IoError` fails before any byte lands.
    fn fire_write(&self, len: usize) -> std::io::Result<(usize, Option<usize>)> {
        match self.draw() {
            Some((op, FaultKind::IoError)) => Err(Self::injected_err(op, "write")),
            Some((_, FaultKind::ShortWrite)) => Ok((len / 2, None)),
            Some((op, FaultKind::BitFlip)) if len > 0 => {
                let bit = SplitMix64::new(self.inner.seed ^ op).next_u64() as usize % (len * 8);
                Ok((len, Some(bit)))
            }
            Some((_, FaultKind::SlowIo(d))) => {
                std::thread::sleep(d);
                Ok((len, None))
            }
            _ => Ok((len, None)),
        }
    }
}

/// A [`File`] wrapper that routes every read, write, seek, open, and sync
/// through an [`IoFaultPlan`] — the single choke point the out-of-core
/// brick store does *all* its I/O through, so chaos tests exercise the
/// exact production code paths with faults injected underneath them.
///
/// Semantics per fault kind:
/// * [`FaultKind::IoError`] — the operation fails with
///   `ErrorKind::Other`; no bytes are transferred.
/// * [`FaultKind::ShortWrite`] — half the buffer is written for real,
///   then the write errors (a torn write: bytes are on disk, the caller
///   knows the operation failed).
/// * [`FaultKind::BitFlip`] — reads see one flipped bit in the returned
///   buffer; writes persist one flipped bit (silent corruption — the
///   operation *succeeds*).
/// * [`FaultKind::SlowIo`] — the operation sleeps, then succeeds.
#[derive(Debug)]
pub struct FaultyFile {
    inner: File,
    plan: IoFaultPlan,
}

impl FaultyFile {
    /// Create (truncating) a file, drawing an open-operation fault.
    pub fn create(path: &Path, plan: IoFaultPlan) -> std::io::Result<Self> {
        plan.fire_control("create")?;
        Ok(Self {
            inner: File::create(path)?,
            plan,
        })
    }

    /// Open with explicit options, drawing an open-operation fault.
    pub fn options(opts: &OpenOptions, path: &Path, plan: IoFaultPlan) -> std::io::Result<Self> {
        plan.fire_control("open")?;
        Ok(Self {
            inner: opts.open(path)?,
            plan,
        })
    }

    /// Open read-only, drawing an open-operation fault.
    pub fn open(path: &Path, plan: IoFaultPlan) -> std::io::Result<Self> {
        Self::options(OpenOptions::new().read(true), path, plan)
    }

    /// Flush file data and metadata to stable storage (faultable).
    pub fn sync_all(&self) -> std::io::Result<()> {
        self.plan.fire_control("fsync")?;
        self.inner.sync_all()
    }

    /// Flush file data to stable storage (faultable).
    pub fn sync_data(&self) -> std::io::Result<()> {
        self.plan.fire_control("fdatasync")?;
        self.inner.sync_data()
    }

    /// File metadata (not faulted: metadata is read from the kernel's
    /// in-memory inode, not the device).
    pub fn metadata(&self) -> std::io::Result<std::fs::Metadata> {
        self.inner.metadata()
    }

    /// The fault plan this handle draws from.
    pub fn plan(&self) -> &IoFaultPlan {
        &self.plan
    }
}

impl Read for FaultyFile {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        // Remember where the read started so an injected failure does not
        // silently consume the data (a retry must see the same bytes).
        let pos = self.inner.stream_position()?;
        let n = self.inner.read(buf)?;
        if let Err(e) = self.plan.fire_read(&mut buf[..n]) {
            self.inner.seek(SeekFrom::Start(pos))?;
            return Err(e);
        }
        Ok(n)
    }
}

impl Write for FaultyFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let (n, flip) = self.plan.fire_write(buf.len())?;
        if n < buf.len() {
            // Torn write: persist the prefix, then report failure.
            self.inner.write_all(&buf[..n])?;
            return Err(std::io::Error::other(format!(
                "injected I/O fault: short write ({n} of {} bytes persisted)",
                buf.len()
            )));
        }
        match flip {
            Some(bit) => {
                let mut corrupted = buf.to_vec();
                corrupted[bit / 8] ^= 1 << (bit % 8);
                self.inner.write_all(&corrupted)?;
                Ok(buf.len())
            }
            None => self.inner.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl Seek for FaultyFile {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        self.inner.seek(pos)
    }
}

/// Replace a deterministic random subset of voxels with NaN. Returns the
/// number contaminated (at least one when `rate > 0` and the buffer is
/// non-empty, so tests can rely on contamination happening).
pub fn contaminate_nan(values: &mut [f32], seed: u64, rate: f32) -> usize {
    if values.is_empty() || rate <= 0.0 {
        return 0;
    }
    let mut rng = SplitMix64::new(seed);
    let mut count = 0;
    for v in values.iter_mut() {
        if rng.chance(rate) {
            *v = f32::NAN;
            count += 1;
        }
    }
    if count == 0 {
        let idx = rng.usize_in(0, values.len());
        values[idx] = f32::NAN;
        count = 1;
    }
    count
}

/// Truncate a file by `bytes` from the end (simulates an interrupted
/// write). Truncating at or past the start leaves an empty file.
pub fn truncate_file(path: &Path, bytes: u64) -> std::io::Result<()> {
    let f = std::fs::OpenOptions::new().write(true).open(path)?;
    let len = f.metadata()?.len();
    f.set_len(len.saturating_sub(bytes))
}

/// Flip one bit of a file in place (simulates storage corruption).
/// `byte_offset` is clamped to the file; errors if the file is empty.
pub fn flip_bit(path: &Path, byte_offset: u64, bit: u8) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new().read(true).write(true).open(path)?;
    let len = f.metadata()?.len();
    if len == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "cannot flip a bit in an empty file",
        ));
    }
    let offset = byte_offset.min(len - 1);
    let mut b = [0u8];
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(&mut b)?;
    b[0] ^= 1 << (bit % 8);
    f.seek(SeekFrom::Start(offset))?;
    f.write_all(&b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_fires_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert!(plan.fire_cancellable(3, &CancelToken::new()).is_ok());
    }

    #[test]
    fn fail_first_recovers_after_n_attempts() {
        let plan = FaultPlan::none().with(5, FaultKind::FailFirst(2));
        let token = CancelToken::new();
        assert!(plan.fire_cancellable(5, &token).is_err());
        assert!(plan.fire_cancellable(5, &token).is_err());
        assert!(plan.fire_cancellable(5, &token).is_ok());
        assert!(plan.fire_cancellable(4, &token).is_ok());
    }

    #[test]
    #[should_panic(expected = "injected fault")]
    fn panic_fault_panics() {
        let plan = FaultPlan::none().with(0, FaultKind::Panic);
        plan.fire_cancellable(0, &CancelToken::new()).ok();
    }

    #[test]
    fn random_plan_is_deterministic() {
        let a = FaultPlan::random(9, 100, 0.1, 0.2);
        let b = FaultPlan::random(9, 100, 0.1, 0.2);
        assert_eq!(a.doomed_items(), b.doomed_items());
        assert_eq!(a.len(), b.len());
        assert!(!a.is_empty());
    }

    #[test]
    fn random_rates_covers_the_full_menu() {
        let rates = FaultRates {
            panic: 0.1,
            flaky: 0.1,
            stall: 0.1,
            corrupt: 0.1,
            stall_ms: 5,
        };
        let a = FaultPlan::random_rates(11, 400, &rates);
        let b = FaultPlan::random_rates(11, 400, &rates);
        assert_eq!(a.doomed_items(), b.doomed_items());
        assert_eq!(a.corrupt_items(), b.corrupt_items());
        assert!(!a.doomed_items().is_empty(), "panic faults should land at 10%");
        assert!(!a.corrupt_items().is_empty(), "corrupt faults should land at 10%");
        // Corrupt items fire as no-ops and are not doomed.
        let c = a.corrupt_items()[0];
        assert!(a.corrupts(c));
        assert!(a.fire_cancellable(c, &CancelToken::new()).is_ok());
        assert!(!a.doomed_items().contains(&c));
    }

    #[test]
    fn rates_parse_from_cli_flags() {
        let args = Args::parse(
            "--fault-seed 42 --panic-rate 0.02 --flaky-rate 0.1 --timeout-rate 0.05 \
             --corrupt-rate 0.03 --stall-ms 150"
                .split_whitespace()
                .map(String::from),
        );
        let (seed, rates) = FaultRates::from_args(&args).expect("seed present");
        assert_eq!(seed, 42);
        assert!((rates.panic - 0.02).abs() < 1e-6);
        assert!((rates.flaky - 0.1).abs() < 1e-6);
        assert!((rates.stall - 0.05).abs() < 1e-6);
        assert!((rates.corrupt - 0.03).abs() < 1e-6);
        assert_eq!(rates.stall_ms, 150);
        // No --fault-seed → fault injection disabled entirely.
        let off = Args::parse("--panic-rate 0.5".split_whitespace().map(String::from));
        assert!(FaultRates::from_args(&off).is_none());
    }

    #[test]
    fn cancellable_stall_is_released_by_the_token() {
        let plan = FaultPlan::none().with(0, FaultKind::Stall(Duration::from_secs(30)));
        let token = CancelToken::new();
        token.cancel();
        let start = std::time::Instant::now();
        let err = plan.fire_cancellable(0, &token).unwrap_err();
        assert!(matches!(err, SfcError::Cancelled { item: 0 }));
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn nan_contamination_counts_and_lands() {
        let mut v = vec![1.0f32; 1000];
        let n = contaminate_nan(&mut v, 7, 0.05);
        assert_eq!(v.iter().filter(|x| x.is_nan()).count(), n);
        assert!(n > 0);
        // Tiny rate still contaminates at least one voxel.
        let mut w = vec![1.0f32; 4];
        assert!(contaminate_nan(&mut w, 7, 1e-9) >= 1);
        // Zero rate contaminates nothing.
        let mut u = vec![1.0f32; 4];
        assert_eq!(contaminate_nan(&mut u, 7, 0.0), 0);
    }

    fn io_tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sfc_iofault_{}_{tag}", std::process::id()))
    }

    #[test]
    fn faulty_file_without_faults_is_transparent() {
        let path = io_tmp("clean");
        let plan = IoFaultPlan::none();
        let mut f = FaultyFile::create(&path, plan.clone()).unwrap();
        f.write_all(b"hello brick store").unwrap();
        f.sync_all().unwrap();
        drop(f);
        let mut f = FaultyFile::open(&path, plan.clone()).unwrap();
        let mut buf = Vec::new();
        f.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"hello brick store");
        assert_eq!(plan.injected(), 0);
        assert!(plan.ops() > 0, "every operation is drawn");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scripted_io_error_fails_the_exact_operation() {
        let path = io_tmp("ioerr");
        std::fs::write(&path, [7u8; 32]).unwrap();
        // op 0 = open (ok here), op 1 = first read fails, op 2 succeeds.
        let plan = IoFaultPlan::none().with_op(1, FaultKind::IoError);
        let mut f = FaultyFile::open(&path, plan.clone()).unwrap();
        let mut buf = [0u8; 32];
        let err = f.read_exact(&mut buf).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        // The failed read consumed no data: the retry sees all 32 bytes.
        f.read_exact(&mut buf).unwrap();
        assert_eq!(buf, [7u8; 32]);
        assert_eq!(plan.injected(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_on_read_corrupts_exactly_one_bit() {
        let path = io_tmp("flipread");
        std::fs::write(&path, [0u8; 64]).unwrap();
        let plan = IoFaultPlan::none().with_op(1, FaultKind::BitFlip);
        let mut f = FaultyFile::open(&path, plan).unwrap();
        let mut buf = [0u8; 64];
        f.read_exact(&mut buf).unwrap();
        let flipped: u32 = buf.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit flipped in transit");
        // The file itself is untouched.
        assert_eq!(std::fs::read(&path).unwrap(), [0u8; 64]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn short_write_persists_a_prefix_then_errors() {
        let path = io_tmp("short");
        let plan = IoFaultPlan::none().with_op(1, FaultKind::ShortWrite);
        let mut f = FaultyFile::create(&path, plan).unwrap();
        let err = f.write_all(&[9u8; 100]).unwrap_err();
        assert!(err.to_string().contains("short write"), "{err}");
        drop(f);
        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(on_disk.len(), 50, "half the buffer was torn onto disk");
        assert!(on_disk.iter().all(|&b| b == 9));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn slow_io_delays_but_succeeds() {
        let path = io_tmp("slow");
        std::fs::write(&path, [1u8; 8]).unwrap();
        let plan =
            IoFaultPlan::none().with_op(1, FaultKind::SlowIo(Duration::from_millis(30)));
        let mut f = FaultyFile::open(&path, plan.clone()).unwrap();
        let mut buf = [0u8; 8];
        let start = std::time::Instant::now();
        f.read_exact(&mut buf).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(25));
        assert_eq!(buf, [1u8; 8]);
        assert_eq!(plan.injected(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn random_io_plans_replay_identically() {
        let rates = IoFaultRates {
            io_error: 0.2,
            bit_flip: 0.2,
            ..IoFaultRates::default()
        };
        let trace = |seed| -> Vec<bool> {
            let plan = IoFaultPlan::random(seed, rates);
            (0..200).map(|_| plan.draw().is_some()).collect()
        };
        assert_eq!(trace(42), trace(42), "same seed, same schedule");
        assert_ne!(trace(42), trace(43), "different seed, different schedule");
        assert!(trace(42).iter().any(|&f| f), "rates actually fire");
    }

    #[test]
    fn io_kinds_are_noops_in_worker_item_plans() {
        let plan = FaultPlan::none()
            .with(0, FaultKind::IoError)
            .with(1, FaultKind::ShortWrite)
            .with(2, FaultKind::BitFlip)
            .with(3, FaultKind::SlowIo(Duration::from_secs(60)));
        let start = std::time::Instant::now();
        for item in 0..4 {
            assert!(plan.fire_cancellable(item, &CancelToken::new()).is_ok());
        }
        assert!(start.elapsed() < Duration::from_secs(5));
        assert!(plan.doomed_items().is_empty());
    }

    #[test]
    fn file_corruption_helpers() {
        let mut path = std::env::temp_dir();
        path.push(format!("sfc_faults_test_{}", std::process::id()));
        std::fs::write(&path, [0u8; 64]).unwrap();
        flip_bit(&path, 10, 3).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[10], 1 << 3);
        truncate_file(&path, 16).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 48);
        truncate_file(&path, 1000).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        assert!(flip_bit(&path, 0, 0).is_err());
        std::fs::remove_file(&path).ok();
    }
}
