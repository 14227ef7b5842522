//! Multi-core simulation driver with optional shared last-level cache.
//!
//! Each simulated core runs its (deterministic) work against a private
//! [`CoreSim`]. When the platform has a shared LLC, the per-core L2-miss
//! line streams are then replayed into one shared cache, interleaved
//! round-robin in fixed-size chunks — a deterministic stand-in for the
//! unknowable true interleaving (the paper's headline counters do not
//! depend on it; see [`crate::hierarchy`] docs).

use sfc_core::SfcResult;
use sfc_harness::{DisjointSlots, Executor, LazyCounter, WorkPlan};

use crate::cache::Cache;
use crate::hierarchy::{CoreCounters, CoreSim, HierarchyConfig, SimReport};

// Process-wide mirrors of the per-run simulation totals: every completed
// multicore run folds its report into these, so the metrics plane sees
// cumulative simulated traffic across all sweeps in the process.
static SIM_RUNS: LazyCounter = LazyCounter::new("memsim.runs");
static SIM_READS: LazyCounter = LazyCounter::new("memsim.reads");
static SIM_WRITES: LazyCounter = LazyCounter::new("memsim.writes");
static L1_HITS: LazyCounter = LazyCounter::new("memsim.l1.hits");
static L1_MISSES: LazyCounter = LazyCounter::new("memsim.l1.misses");
static L2_HITS: LazyCounter = LazyCounter::new("memsim.l2.hits");
static L2_MISSES: LazyCounter = LazyCounter::new("memsim.l2.misses");
static TLB_HITS: LazyCounter = LazyCounter::new("memsim.tlb.hits");
static TLB_MISSES: LazyCounter = LazyCounter::new("memsim.tlb.misses");
static LLC_HITS: LazyCounter = LazyCounter::new("memsim.llc.hits");
static LLC_MISSES: LazyCounter = LazyCounter::new("memsim.llc.misses");

fn record_report_metrics(report: &SimReport) {
    let t = report.total();
    SIM_RUNS.add(1);
    SIM_READS.add(t.reads);
    SIM_WRITES.add(t.writes);
    L1_HITS.add(t.l1.hits);
    L1_MISSES.add(t.l1.misses);
    L2_HITS.add(t.l2.hits);
    L2_MISSES.add(t.l2.misses);
    TLB_HITS.add(t.tlb.hits);
    TLB_MISSES.add(t.tlb.misses);
    if let Some(llc) = &report.llc {
        LLC_HITS.add(llc.hits);
        LLC_MISSES.add(llc.misses);
    }
}

/// Lines replayed from one core before moving to the next.
pub const DEFAULT_LLC_CHUNK: usize = 64;

/// [`run_multicore`] with typed panic isolation: each core simulation runs
/// under the execution engine's [`Executor::try_run`], so a panicking core
/// (a buggy kernel closure, a poisoned trace) is caught, the remaining
/// cores still complete, and the lowest-indexed failure is returned as a
/// typed [`sfc_core::SfcError::WorkerPanic`] instead of aborting the
/// whole sweep.
pub fn try_run_multicore<F>(
    config: &HierarchyConfig,
    ncores: usize,
    parallel: bool,
    work: F,
) -> SfcResult<SimReport>
where
    F: Fn(usize, &mut CoreSim) + Sync,
{
    assert!(ncores > 0, "need at least one core");
    let record = config.llc.is_some();
    let run_one = |core: usize| -> (CoreCounters, Vec<u64>) {
        let mut sim = CoreSim::new(config);
        if record {
            sim.record_misses();
        }
        work(core, &mut sim);
        let trace = sim.take_miss_trace();
        (sim.counters(), trace)
    };

    // One engine unit per core; with `parallel` each thread owns exactly
    // one core under the static split (the historical one-thread-per-core
    // behaviour), otherwise the single-thread serial fast path runs cores
    // in index order. Results land in disjoint slots.
    let mut results: Vec<Option<(CoreCounters, Vec<u64>)>> = (0..ncores).map(|_| None).collect();
    {
        let slots = DisjointSlots::new(&mut results);
        let nthreads = if parallel { ncores } else { 1 };
        Executor::new(nthreads).try_run(&WorkPlan::static_round_robin(ncores), |_tid, core| {
            let r = run_one(core);
            // SAFETY: each core index is processed exactly once (engine
            // contract), so the slots are written disjointly.
            unsafe { slots.write(core, Some(r)) };
        })?;
    }
    let results: Vec<(CoreCounters, Vec<u64>)> = results
        .into_iter()
        .map(|r| r.expect("engine processed every core"))
        .collect();

    let per_core: Vec<CoreCounters> = results.iter().map(|(c, _)| *c).collect();
    let llc = config.llc.map(|llc_cfg| {
        let traces: Vec<&[u64]> = results.iter().map(|(_, t)| t.as_slice()).collect();
        replay_shared_llc(llc_cfg, &traces, DEFAULT_LLC_CHUNK)
    });

    let report = SimReport { per_core, llc };
    record_report_metrics(&report);
    Ok(report)
}

/// Run `work(core_id, sim)` for each of `ncores` simulated cores and
/// aggregate counters. Cores run on real threads when `parallel` is true
/// (results are identical either way — each core's stream is independent).
///
/// # Panics
/// Panics if any core simulation panics; use [`try_run_multicore`] to get
/// the failure as a typed error while the other cores still complete.
pub fn run_multicore<F>(
    config: &HierarchyConfig,
    ncores: usize,
    parallel: bool,
    work: F,
) -> SimReport
where
    F: Fn(usize, &mut CoreSim) + Sync,
{
    match try_run_multicore(config, ncores, parallel, work) {
        Ok(report) => report,
        Err(e) => panic!("{e}"),
    }
}

/// Replay per-core miss streams into a shared cache, taking `chunk`
/// addresses from each stream in turn (round-robin) until all are drained.
pub fn replay_shared_llc(
    config: crate::cache::CacheConfig,
    traces: &[&[u64]],
    chunk: usize,
) -> crate::cache::CacheCounters {
    assert!(chunk > 0);
    let mut cache = Cache::new(config);
    let mut cursors = vec![0usize; traces.len()];
    loop {
        let mut progressed = false;
        for (t, cur) in traces.iter().zip(cursors.iter_mut()) {
            let end = (*cur + chunk).min(t.len());
            for &addr in &t[*cur..end] {
                cache.access(addr);
            }
            progressed |= end > *cur;
            *cur = end;
        }
        if !progressed {
            break;
        }
    }
    cache.counters()
}

/// Map `nthreads` software threads onto `ncores` physical cores the way the
/// paper's platforms do: thread `t` lands on core `t % ncores` (MIC-style
/// balanced placement; with `nthreads <= ncores` it is also the Ivy Bridge
/// "compact" one-thread-per-core case).
pub fn assign_threads_to_cores(nthreads: usize, ncores: usize) -> Vec<Vec<usize>> {
    assert!(nthreads > 0 && ncores > 0);
    let used = ncores.min(nthreads);
    let mut cores = vec![Vec::new(); used];
    for t in 0..nthreads {
        cores[t % used].push(t);
    }
    cores
}

/// Interleave several work-item streams round-robin, one item at a time —
/// the coarse model of hardware threads sharing a core's private caches.
pub fn interleave_round_robin<T: Clone>(streams: &[Vec<T>]) -> Vec<T> {
    let total: usize = streams.iter().map(|s| s.len()).sum();
    let mut out = Vec::with_capacity(total);
    let longest = streams.iter().map(|s| s.len()).max().unwrap_or(0);
    for pos in 0..longest {
        for s in streams {
            if let Some(item) = s.get(pos) {
                out.push(item.clone());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;

    fn config_with_llc() -> HierarchyConfig {
        HierarchyConfig {
            l1: CacheConfig::new(512, 64, 2),
            l2: CacheConfig::new(2048, 64, 4),
            llc: Some(CacheConfig::new(8192, 64, 4)),
            tlb: None,
        }
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let cfg = config_with_llc();
        let work = |core: usize, sim: &mut CoreSim| {
            for i in 0..1000u64 {
                sim.read((core as u64) * 65536 + i * 68 % 4096, 4);
            }
        };
        let a = run_multicore(&cfg, 4, false, work);
        let b = run_multicore(&cfg, 4, true, work);
        assert_eq!(a.per_core, b.per_core);
        assert_eq!(a.llc, b.llc);
    }

    #[test]
    fn llc_sees_all_l2_misses() {
        let cfg = config_with_llc();
        let report = run_multicore(&cfg, 2, false, |_, sim| {
            for line in 0..100u64 {
                sim.read(line * 64, 4);
            }
        });
        let llc = report.llc.unwrap();
        assert_eq!(llc.accesses, report.l3_total_cache_accesses());
        assert_eq!(llc.accesses, 200, "both cores stream 100 cold lines");
    }

    #[test]
    fn shared_llc_absorbs_cross_core_reuse() {
        // Both cores touch the same 32 lines; the second core's replayed
        // misses should hit in the shared LLC.
        let cfg = config_with_llc();
        let report = run_multicore(&cfg, 2, false, |_, sim| {
            for line in 0..32u64 {
                sim.read(line * 64, 4);
            }
        });
        let llc = report.llc.unwrap();
        assert_eq!(llc.accesses, 64);
        assert!(llc.hits > 0, "cross-core reuse must hit in shared LLC");
    }

    #[test]
    fn no_llc_reports_none() {
        let cfg = HierarchyConfig {
            llc: None,
        tlb: None,
            ..config_with_llc()
        };
        let report = run_multicore(&cfg, 1, false, |_, sim| sim.read(0, 4));
        assert!(report.llc.is_none());
        assert_eq!(report.l2_read_miss_mem_fill(), 1);
    }

    #[test]
    fn thread_to_core_assignment() {
        let cores = assign_threads_to_cores(8, 4);
        assert_eq!(cores, vec![vec![0, 4], vec![1, 5], vec![2, 6], vec![3, 7]]);
        let cores = assign_threads_to_cores(3, 8);
        assert_eq!(cores.len(), 3, "unused cores are dropped");
    }

    #[test]
    fn interleave() {
        let a = vec![1, 2, 3];
        let b = vec![10, 20];
        assert_eq!(interleave_round_robin(&[a, b]), vec![1, 10, 2, 20, 3]);
    }

    #[test]
    fn panicking_core_is_isolated_and_typed() {
        // One bad core costs a typed error, not the process; the healthy
        // cores still run to completion (observable via the counter).
        use std::sync::atomic::{AtomicU64, Ordering};
        let cfg = config_with_llc();
        let completed = AtomicU64::new(0);
        let err = try_run_multicore(&cfg, 4, true, |core, sim| {
            if core == 2 {
                panic!("injected core failure");
            }
            sim.read(core as u64 * 64, 4);
            completed.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap_err();
        assert!(
            matches!(&err, sfc_core::SfcError::WorkerPanic { item: 2, payload }
                if payload.contains("injected core failure")),
            "{err:?}"
        );
        assert_eq!(completed.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn replay_chunking_is_deterministic() {
        let cfg = CacheConfig::new(4096, 64, 4);
        let t0: Vec<u64> = (0..200).map(|i| i * 64).collect();
        let t1: Vec<u64> = (0..200).map(|i| (i % 50) * 64).collect();
        let a = replay_shared_llc(cfg, &[&t0, &t1], 16);
        let b = replay_shared_llc(cfg, &[&t0, &t1], 16);
        assert_eq!(a, b);
        assert_eq!(a.accesses, 400);
    }
}
