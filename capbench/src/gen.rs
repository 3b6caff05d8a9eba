//! The open-loop load generator: one sender thread issues requests on a
//! seeded Poisson schedule at a fixed offered rate, one waiter thread
//! collects completions in issue order.
//!
//! Every latency is timed from the request's *due* time, not from when the
//! sender got to it: when the sender stalls (a slow `execute`), the stall
//! counts against every request queued behind it instead of quietly
//! thinning the offered load.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How a request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Committed,
    /// A logic abort (TPC-C invalid item): an outcome, not a failure.
    Aborted,
    /// An error from the engine: counts as failed and misses every SLO.
    Failed,
}

/// A system under test, driven by [`run_step`].
pub trait Target: Sync {
    type Op;
    type Pending: Send;
    /// Issues one write; `None` when the engine refused it.
    fn issue(&self, op: Self::Op) -> Option<Self::Pending>;
    fn wait(&self, pending: Self::Pending) -> Outcome;
}

/// One request's timeline in microseconds from the step start. `start`
/// and `issued` (the span boundaries around the engine call) are recorded
/// only when tracing.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub outcome: Outcome,
    pub due: u64,
    pub start: u64,
    pub issued: u64,
    pub done: u64,
}

impl Sample {
    /// Due-to-done latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_sub(self.due) as f64 / 1_000.0
    }
}

/// Everything one rung of offered load produced.
#[derive(Debug)]
pub struct StepResult {
    pub rate: f64,
    pub secs: f64,
    pub samples: Vec<Sample>,
    /// Process resident set when the sender stopped issuing.
    pub rss_bytes: u64,
}

fn micros_since(origin: Instant) -> u64 {
    origin.elapsed().as_micros() as u64
}

/// Offers `rate` requests per second for `secs` seconds, then waits for
/// every issued request to complete.
///
/// The schedule and the requests come from two generators seeded from
/// `seed`, so the request stream is the same whatever the rate, and the
/// same seed gives the same schedule and requests on every engine.
pub fn run_step<T: Target>(
    target: &T,
    next_op: &mut dyn FnMut(&mut SmallRng) -> T::Op,
    seed: u64,
    rate: f64,
    secs: f64,
    trace: bool,
) -> StepResult {
    let mut schedule = SmallRng::seed_from_u64(seed);
    let mut requests = SmallRng::seed_from_u64(seed ^ 0x0005_eed0_f0e5_u64);
    let horizon = Duration::from_secs_f64(secs);
    let (tx, rx) = mpsc::channel::<(Sample, T::Pending)>();
    let origin = Instant::now();
    let (mut samples, rss_bytes) = std::thread::scope(|scope| {
        let waiter = scope.spawn(move || {
            let mut done = Vec::new();
            for (mut sample, pending) in rx {
                sample.outcome = target.wait(pending);
                sample.done = micros_since(origin);
                done.push(sample);
            }
            done
        });
        let mut refused = Vec::new();
        let mut due = Duration::ZERO;
        loop {
            // Exponential gaps: a Poisson arrival process at `rate`.
            let u: f64 = schedule.gen_range(f64::MIN_POSITIVE..1.0);
            due += Duration::from_secs_f64(-u.ln() / rate);
            if due >= horizon {
                break;
            }
            let now = origin.elapsed();
            if due > now {
                std::thread::sleep(due - now);
            }
            let op = next_op(&mut requests);
            let start = if trace { micros_since(origin) } else { 0 };
            let issued = target.issue(op);
            let mut sample = Sample {
                outcome: Outcome::Failed,
                due: due.as_micros() as u64,
                start,
                issued: if trace { micros_since(origin) } else { 0 },
                done: 0,
            };
            match issued {
                Some(pending) => tx.send((sample, pending)).expect("waiter alive"),
                None => {
                    sample.done = micros_since(origin);
                    refused.push(sample);
                }
            }
        }
        let rss = aloha_common::stats::process_rss_bytes();
        drop(tx);
        let mut samples = waiter.join().expect("waiter thread panicked");
        samples.append(&mut refused);
        (samples, rss)
    });
    samples.sort_by_key(|s| s.due);
    StepResult {
        rate,
        secs,
        samples,
        rss_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Writes complete after a fixed delay; every third op is refused.
    struct Fake {
        issued: AtomicU64,
    }

    impl Target for Fake {
        type Op = u64;
        type Pending = Instant;
        fn issue(&self, op: u64) -> Option<Instant> {
            self.issued.fetch_add(1, Ordering::Relaxed);
            (!op.is_multiple_of(3)).then(|| Instant::now() + Duration::from_millis(2))
        }
        fn wait(&self, until: Instant) -> Outcome {
            std::thread::sleep(until.saturating_duration_since(Instant::now()));
            Outcome::Committed
        }
    }

    #[test]
    fn step_is_open_loop_and_seeded() {
        let fake = Fake {
            issued: AtomicU64::new(0),
        };
        let mut counter = 0u64;
        let mut next = |_: &mut SmallRng| {
            counter += 1;
            counter
        };
        let a = run_step(&fake, &mut next, 7, 2_000.0, 0.25, true);
        // About rate x secs requests, all accounted for.
        assert!((350..650).contains(&a.samples.len()), "{}", a.samples.len());
        assert_eq!(a.samples.len() as u64, fake.issued.load(Ordering::Relaxed));
        for s in &a.samples {
            assert!(s.done >= s.due && s.start <= s.issued && s.issued <= s.done);
            match s.outcome {
                Outcome::Failed => assert!(s.done >= s.issued),
                _ => assert!(s.latency_ms() >= 2.0),
            }
        }
        // The same seed gives the same schedule.
        let mut again = |_: &mut SmallRng| 1u64;
        let b = run_step(&fake, &mut again, 7, 2_000.0, 0.25, false);
        let dues = |r: &StepResult| r.samples.iter().map(|s| s.due).collect::<Vec<_>>();
        assert_eq!(dues(&a), dues(&b));
    }
}
