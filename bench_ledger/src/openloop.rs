//! Open-loop load: requests fall due on a fixed seeded schedule whether or
//! not earlier ones have finished.
//!
//! A few sender threads (one connection each) take the next due request
//! from the shared schedule. A request's latency counts from when it was
//! due, not from when it was sent, so a stall shows up in every request
//! queued behind it. Each connection carries one request at a time, so a
//! request that falls due while every connection is busy waits for one:
//! `wait` records that queueing, and `lag` how late the generator itself
//! sent a request once a connection was free (its own health).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use sfc_core::SplitMix64;

use crate::stats::Samples;

/// One request's timing.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Position in the schedule.
    pub idx: usize,
    /// Completion minus due time.
    pub latency: Duration,
    /// Time the due request waited for a free connection.
    pub wait: Duration,
    /// Send time minus the later of due time and connection-free time:
    /// how late the generator ran.
    pub lag: Duration,
    /// Whether the reply passed its checks.
    pub ok: bool,
}

/// Due offsets of `rate × seconds` Poisson arrivals within `seconds`.
///
/// Given its count, a Poisson process's arrival times are independent
/// uniform draws over the interval, sorted. Fixing the count keeps the
/// arrivals Poisson while every seed yields the same number of samples.
pub fn poisson_schedule(rate: f64, seconds: f64, rng: &mut SplitMix64) -> Vec<Duration> {
    let count = (rate * seconds).round() as usize;
    let mut due: Vec<Duration> = (0..count)
        .map(|_| {
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            Duration::from_secs_f64(u * seconds)
        })
        .collect();
    due.sort_unstable();
    due
}

/// Run `due` through `senders`: each takes the next request, waits for
/// its due time, and calls `send(idx)`, which returns whether the reply
/// verified. Returns timings in schedule order.
pub fn run<S>(due: &[Duration], senders: Vec<S>) -> Vec<Timing>
where
    S: FnMut(usize) -> bool + Send,
{
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut all = Vec::with_capacity(due.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = senders
            .into_iter()
            .map(|mut send| {
                let next = &next;
                s.spawn(move || {
                    let mut out = Vec::with_capacity(due.len());
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&at) = due.get(i) else { break };
                        let target = start + at;
                        let free = Instant::now();
                        if let Some(early) = target.checked_duration_since(free) {
                            std::thread::sleep(early);
                        }
                        let sent = Instant::now();
                        let ok = send(i);
                        out.push(Timing {
                            idx: i,
                            latency: Instant::now() - target,
                            wait: free.saturating_duration_since(target),
                            lag: sent.saturating_duration_since(target.max(free)),
                            ok,
                        });
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            all.extend(h.join().expect("open-loop sender panicked"));
        }
    });
    all.sort_by_key(|t| t.idx);
    all
}

/// The raw samples of an open-loop run.
pub struct OpenLoopSamples {
    /// Due-time latencies; a failed request counts as infinitely late.
    pub latency: Samples,
    /// Waits for a free connection.
    pub wait: Samples,
    /// Generator lags.
    pub lag: Samples,
}

/// Collect the samples of an open-loop run.
pub fn samples(timings: &[Timing]) -> OpenLoopSamples {
    let mut s = OpenLoopSamples {
        latency: Samples::with_capacity(timings.len()),
        wait: Samples::with_capacity(timings.len()),
        lag: Samples::with_capacity(timings.len()),
    };
    for t in timings {
        s.latency.push(if t.ok { t.latency } else { Duration::MAX });
        s.wait.push(t.wait);
        s.lag.push(t.lag);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const STALL: Duration = Duration::from_millis(120);
    const GAP: Duration = Duration::from_millis(5);

    /// A fake server on one connection: replies at once, except that the
    /// reply to request 3 stalls for [`STALL`].
    fn stalling_sender(i: usize) -> bool {
        if i == 3 {
            std::thread::sleep(STALL);
        }
        true
    }

    #[test]
    fn due_time_latency_includes_the_stall_for_requests_queued_behind_it() {
        // Twenty requests due every 5 ms; request 3 falls due at 15 ms
        // and holds the only connection until at least 135 ms.
        let due: Vec<Duration> = (0..20u32).map(|i| GAP * i).collect();
        let t = run(&due, vec![stalling_sender]);
        assert_eq!(t.len(), 20);
        assert!(t.iter().enumerate().all(|(i, x)| x.idx == i && x.ok));
        assert!(t[3].latency >= STALL, "{:?}", t[3]);
        // Request k > 3 was due at 5k ms but could not be sent before the
        // stall ended at 15 + 120 ms: it waited at least that difference
        // for the connection, and its latency counts the wait.
        for k in 4..20u32 {
            let behind = (GAP * 3 + STALL).saturating_sub(GAP * k);
            let x = t[k as usize];
            assert!(x.wait >= behind, "request {k}: {x:?}");
            assert!(x.latency >= behind, "request {k}: {x:?}");
        }
        // The requests before the stall were not held up by it.
        assert!(
            t[..3].iter().all(|x| x.wait < STALL && x.latency < STALL),
            "{:?}",
            &t[..3]
        );

        let s = samples(&t);
        let wait_p99 = s.wait.percentile_ms(99.0).expect("samples");
        assert!(
            wait_p99 >= (STALL - GAP).as_secs_f64() * 1e3,
            "wait p99 {wait_p99} ms"
        );
        let p99 = s.latency.percentile_ms(99.0).expect("samples");
        assert!(p99 >= STALL.as_secs_f64() * 1e3, "latency p99 {p99} ms");
        // The generator itself sent every request as soon as the
        // connection was free: the stall is the server's, not its own.
        let lag_p99 = s.lag.percentile_ms(99.0).expect("samples");
        assert!(
            lag_p99 < (STALL / 2).as_secs_f64() * 1e3,
            "lag p99 {lag_p99} ms"
        );
    }

    #[test]
    fn failed_requests_count_as_infinitely_late() {
        let due = vec![Duration::ZERO; 4];
        let t = run(&due, vec![|i: usize| i != 2]);
        let latency = samples(&t).latency;
        assert_eq!(
            latency.percentile_ms(100.0),
            Some(f64::from(u32::MAX) / 1e3)
        );
        assert!(latency.percentile_ms(50.0).expect("samples") < 1e3);
    }

    #[test]
    fn poisson_schedule_is_seeded_and_has_the_requested_rate() {
        let a = poisson_schedule(200.0, 10.0, &mut SplitMix64::new(7));
        let b = poisson_schedule(200.0, 10.0, &mut SplitMix64::new(7));
        assert_eq!(a, b);
        assert_ne!(a, poisson_schedule(200.0, 10.0, &mut SplitMix64::new(8)));
        assert_eq!(a.len(), 2000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().is_some_and(|t| t.as_secs_f64() < 10.0));
        // Exponential gaps: about e^-1 of them exceed the mean gap.
        let mean = Duration::from_secs_f64(1.0 / 200.0);
        let long = a.windows(2).filter(|w| w[1] - w[0] > mean).count();
        assert!((600..870).contains(&long), "{long} gaps above the mean");
    }
}
