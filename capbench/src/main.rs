//! `capbench`: the open-loop capacity-under-SLO benchmark.
//!
//! ```text
//! capbench --workload <ycsb-rw|tpcc> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run offers ALOHA-DB a fixed ladder of request rates open-loop for
//! the chosen traffic mix, in several passes. Each rung runs on a fresh
//! deployment whose set-up is timed and whose final state is checked
//! against what committed. The traced run of `ycsb-rw` also runs the
//! Calvin baseline on the same seeded inputs. The last line of standard
//! output is one JSON object: end-to-end metrics untraced, per-layer
//! metrics with `--trace 1`.
//! A run whose correctness gate fails exits non-zero without metrics.

mod gen;
mod layers;
mod probes;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::time::Instant;

use aloha_common::Json;

use gen::{Outcome, StepResult};
use stats::{RungOutcome, Summary};
use workloads::{Client, Engine, GateReport, Mix, OpGen, Tally};

/// Share of `--seconds` the traced `ycsb-rw` run spends on the ALOHA
/// passes; the Calvin pass gets the rest.
const ALOHA_SHARE: f64 = 0.6;
/// Unmeasured warm-up at the light rate on each fresh deployment.
const WARMUP_SECS: f64 = 0.25;
/// The light and the busy rung of every ladder.
const LIGHT: usize = 0;
const BUSY: usize = 1;
/// Passes over the ALOHA ladder in one run. Every reported figure is the
/// second-best over the passes (`stats::second_best`), so slowdowns of a
/// shared host (they last seconds) that spoil up to four passes cannot
/// move it.
const PASSES: usize = 6;
/// Rungs a pass typically runs: light, busy and two around the capacity.
const RUNGS_PER_PASS: usize = 4;

struct Args {
    mix: Mix,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut mix, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                mix = Some(Mix::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        mix: mix.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Derives an independent seed for one use within a run.
fn sub_seed(seed: u64, salt: u64) -> u64 {
    // SplitMix64 finalizer over the pair.
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The commit latencies of a rung, successful requests only.
fn latencies(step: &StepResult) -> Vec<f64> {
    step.samples
        .iter()
        .filter(|s| s.outcome != Outcome::Failed)
        .map(|s| s.latency_ms())
        .collect()
}

/// SLO verdict of one rung.
fn rung_outcome(step: &StepResult) -> RungOutcome {
    let end = (step.secs * 1e6) as u64;
    let completed_by = |deadline: u64| {
        step.samples
            .iter()
            .filter(|s| s.outcome != Outcome::Failed && s.done <= deadline)
            .count() as f64
    };
    RungOutcome {
        rate: step.rate,
        slo_ratio: stats::summarize(latencies(step))
            .map_or(0.0, |s| s.p99 / workloads::COMMIT_SLO_MS),
        completed_share: completed_by(end + (workloads::COMMIT_SLO_MS * 1e3) as u64)
            / step.samples.len().max(1) as f64,
        throughput: completed_by(end) / step.secs,
    }
}

/// One rung of offered load on one fresh deployment.
pub struct Trial {
    pub step: StepResult,
    pub outcome: RungOutcome,
    /// Seconds the deployment took to start and load.
    pub setup_secs: f64,
    /// The correctness gate's read-back.
    pub gate: GateReport,
    /// Counter deltas over the measured step, every server summed.
    pub delta: BTreeMap<String, u64>,
    /// Counter levels at the end of the measured step.
    pub levels: BTreeMap<String, u64>,
    /// Wall time of the measured step, drain included.
    pub wall_secs: f64,
    /// With tracing, the same rung run untraced just before.
    pub untraced: Option<StepResult>,
    pub attempted: u64,
    pub failed: u64,
}

/// Everything one engine's ladder produced.
pub struct EngineRun {
    pub engine: Engine,
    /// The unmeasured first trial that warms the process up.
    pub warmup: Trial,
    /// The rungs each pass ran, ascending: the light rung, the busy rung,
    /// then the rungs of its climb to the capacity.
    pub passes: Vec<Vec<Trial>>,
    /// The capacity each pass found.
    pub capacities: Vec<f64>,
    /// The second highest of them.
    pub capacity: f64,
}

impl EngineRun {
    pub fn trials(&self) -> impl Iterator<Item = &Trial> + Clone {
        self.passes.iter().flatten()
    }

    /// Every pass's run of the light rung.
    pub fn light(&self) -> Vec<&Trial> {
        self.passes.iter().map(|p| &p[LIGHT]).collect()
    }

    /// Every pass's run of the busy rung.
    pub fn busy(&self) -> Vec<&Trial> {
        self.passes.iter().map(|p| &p[BUSY]).collect()
    }

    /// The second lowest over `trials` of one commit latency percentile,
    /// with the samples it rests on. `None` when a trial had no samples.
    pub fn pass_percentile(trials: &[&Trial], q: fn(&Summary) -> f64) -> Option<(f64, usize)> {
        let summaries: Option<Vec<Summary>> = trials
            .iter()
            .map(|t| stats::summarize(latencies(&t.step)))
            .collect();
        let summaries = summaries?;
        let values: Vec<f64> = summaries.iter().map(q).collect();
        Some((
            stats::second_best(&values, true),
            summaries.iter().map(|s| s.count).sum(),
        ))
    }

    /// Counter deltas summed over every measured trial.
    pub fn delta(&self) -> BTreeMap<String, u64> {
        stats::merge(self.trials().map(|t| &t.delta))
    }
}

/// Runs one rung on a fresh deployment: set-up (timed), an unmeasured
/// warm-up at the light rate, the measured step, a drain and the
/// correctness gate. Fresh deployments make rungs independent: none
/// inherits the versions, rows or log an earlier rung left behind.
#[allow(clippy::too_many_arguments)]
fn run_trial(
    mix: Mix,
    engine: Engine,
    gen: &OpGen,
    rate: f64,
    secs: f64,
    seed: u64,
    trace: bool,
    untraced_copy: bool,
    label: &str,
) -> Result<Trial, String> {
    let fail = |e: String| format!("{} {} {label}: {e}", mix.name(), engine_name(engine));
    let started = Instant::now();
    let deployed =
        workloads::deploy(mix, engine).map_err(|e| fail(format!("set-up failed: {e}")))?;
    let setup_secs = started.elapsed().as_secs_f64();
    let tally = Tally::default();
    let client = Client::new(&deployed.dep, &tally);
    let mut next = |rng: &mut rand::rngs::SmallRng| gen.next(rng);
    let warmup = gen::run_step(
        &client,
        &mut next,
        sub_seed(seed, 1),
        mix.ladder(engine)[LIGHT],
        WARMUP_SECS,
        false,
    );
    let untraced = untraced_copy
        .then(|| gen::run_step(&client, &mut next, sub_seed(seed, 2), rate, secs, false));
    let before = deployed.totals();
    let started = Instant::now();
    let step = gen::run_step(&client, &mut next, seed, rate, secs, trace);
    let wall_secs = started.elapsed().as_secs_f64();
    let levels = deployed.totals();
    let gate = workloads::gate(mix, &deployed.dep, &tally, trace);
    deployed.shutdown();
    let gate = gate.map_err(fail)?;
    let outcome = rung_outcome(&step);
    print_rung(mix, engine, label, &step, &outcome);
    let issued = [&warmup, &step]
        .into_iter()
        .chain(&untraced)
        .flat_map(|s| &s.samples);
    let (attempted, failed) = issued.fold((0, 0), |(a, f), s| {
        (a + 1, f + u64::from(s.outcome == Outcome::Failed))
    });
    Ok(Trial {
        delta: stats::delta(&before, &levels),
        step,
        outcome,
        setup_secs,
        gate,
        levels,
        wall_secs,
        untraced,
        attempted,
        failed,
    })
}

/// Runs `passes` passes over one engine's ladder, every rung equally long.
///
/// A pass runs the busy rung, the light rung, then climbs to the capacity:
/// from the highest rung the previous pass sustained (mid-ladder on the
/// first pass), up while rungs meet the SLO or down while they miss it,
/// until a rung that meets it has one above it that misses it. That pair
/// locates the pass's capacity. The rates stay the ladder's; only which of
/// them run depends on the engine, so a pass takes about four rungs
/// whatever the engine's speed, and the passes together about `budget`
/// seconds.
fn measure(
    mix: Mix,
    engine: Engine,
    gen: &OpGen,
    seed: u64,
    budget: f64,
    trace: bool,
    passes: usize,
) -> Result<EngineRun, String> {
    let ladder = mix.ladder(engine);
    let top = ladder.len() - 1;
    let unit = budget / (passes * RUNGS_PER_PASS) as f64;
    // The first deployment in a process runs slower than the ones after it
    // (thread stacks, allocator arenas and heap pages are still cold), so a
    // throwaway trial comes first. It runs at the busy rate for as long as
    // a rung, so that the first busy rung, which reports `rss_mb`, follows
    // no larger deployment.
    let warmup = run_trial(
        mix,
        engine,
        gen,
        ladder[BUSY],
        unit,
        sub_seed(seed, 300),
        false,
        false,
        "process warm-up",
    )?;
    let mut run = EngineRun {
        engine,
        warmup,
        passes: Vec::new(),
        capacities: Vec::new(),
        capacity: 0.0,
    };
    let mut start = (BUSY + 1 + top) / 2;
    for p in 0..passes {
        let trial = |i: usize, untraced_copy: bool| {
            let seed = sub_seed(seed, (p * ladder.len() + i) as u64);
            run_trial(
                mix,
                engine,
                gen,
                ladder[i],
                unit,
                seed,
                trace,
                untraced_copy,
                &format!("pass {}/{passes} rung {i}", p + 1),
            )
        };
        let busy = trial(BUSY, false)?;
        // The traced run's overhead is measured against an untraced copy of
        // the first light rung.
        let light = trial(LIGHT, trace && p == 0)?;
        let mut climb = vec![(start, trial(start, false)?)];
        let up = climb[0].1.outcome.passes();
        loop {
            let (i, last) = climb.last().expect("the climb ran a rung");
            let next = if up { i + 1 } else { i - 1 };
            if last.outcome.passes() != up || next > top || next <= BUSY {
                break;
            }
            climb.push((next, trial(next, false)?));
        }
        climb.sort_by_key(|(i, _)| *i);
        start = climb
            .iter()
            .rev()
            .find(|(_, t)| t.outcome.passes())
            .map_or(BUSY + 1, |(i, _)| *i);
        let rungs: Vec<Trial> = [light, busy]
            .into_iter()
            .chain(climb.into_iter().map(|(_, t)| t))
            .collect();
        let outcomes: Vec<RungOutcome> = rungs.iter().map(|t| t.outcome).collect();
        run.capacities.push(stats::capacity(&outcomes));
        run.passes.push(rungs);
    }
    run.capacity = stats::second_best(&run.capacities, false);
    println!(
        "# {} {} capacity {:.0}/s: second highest of {:.0?}",
        mix.name(),
        engine_name(engine),
        run.capacity,
        run.capacities
    );
    Ok(run)
}

fn engine_name(engine: Engine) -> &'static str {
    match engine {
        Engine::Aloha => "aloha",
        Engine::Calvin => "calvin",
    }
}

fn print_rung(mix: Mix, engine: Engine, label: &str, step: &StepResult, outcome: &RungOutcome) {
    let commit = match stats::summarize(latencies(step)) {
        Some(s) => format!("p50 {:.2} ms p99 {:.2} ms (n={})", s.p50, s.p99, s.count),
        None => "-".to_string(),
    };
    println!(
        "# {} {} {label}: rate {:.0}/s for {:.2} s: commit {commit} | completed {:.1}% at {:.0}/s | {}",
        mix.name(),
        engine_name(engine),
        step.rate,
        step.secs,
        outcome.completed_share * 100.0,
        outcome.throughput,
        if outcome.passes() {
            "meets SLO"
        } else {
            "misses SLO"
        },
    );
}

/// A named metric value with its unit, in output order.
pub type Metrics = Vec<(String, f64, &'static str)>;

struct Report {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn run(args: &Args) -> Result<Report, String> {
    let mix = args.mix;
    let gen = OpGen::new(mix);
    // The Calvin comparison rides on the traced run of the paper's
    // workload, so that untraced runs spend their time on ALOHA alone.
    let with_calvin = args.trace && mix == Mix::YcsbRw;
    let aloha_secs = if with_calvin {
        args.seconds * ALOHA_SHARE
    } else {
        args.seconds
    };
    let aloha = measure(
        mix,
        Engine::Aloha,
        &gen,
        args.seed,
        aloha_secs,
        args.trace,
        PASSES,
    )?;
    let calvin = if with_calvin {
        Some(measure(
            mix,
            Engine::Calvin,
            &gen,
            args.seed,
            args.seconds - aloha_secs,
            args.trace,
            1,
        )?)
    } else {
        None
    };
    let runs = std::iter::once(&aloha).chain(&calvin);
    let trials = runs.flat_map(|r| r.trials().chain([&r.warmup]));
    let attempted = trials.clone().map(|t| t.attempted).sum();
    let failed = trials.map(|t| t.failed).sum();
    let metrics = if args.trace {
        layers::per_layer(mix, &aloha, calvin.as_ref(), attempted, failed, args.seed)?
    } else {
        end_to_end(&aloha)?
    };
    if let Some((name, value, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is not a number: {value}"));
    }
    Ok(Report {
        attempted,
        failed,
        metrics,
    })
}

fn end_to_end(aloha: &EngineRun) -> Result<Metrics, String> {
    let p50 = |s: &Summary| s.p50;
    let p99 = |s: &Summary| s.p99;
    let pick = |trials: &[&Trial], q: fn(&Summary) -> f64, name: &str| {
        let (value, count) = EngineRun::pass_percentile(trials, q)
            .ok_or_else(|| format!("no samples for {name}"))?;
        println!(
            "# {name} = {value:.3} ms: second lowest of {} passes, {count} samples",
            trials.len()
        );
        Ok::<f64, String>(value)
    };
    let setups: Vec<f64> = aloha.trials().map(|t| t.setup_secs).collect();
    // The first busy rung follows only the warm-up at the same rate, so no
    // larger deployment's memory is held in the process yet.
    let rss_mb = aloha.busy()[0].step.rss_bytes as f64 / (1024.0 * 1024.0);
    Ok(vec![
        ("setup_s".into(), stats::median(&setups), "s"),
        ("capacity_tps".into(), aloha.capacity, "1/s"),
        (
            "commit_p50_ms".into(),
            pick(&aloha.light(), p50, "commit_p50_ms")?,
            "ms",
        ),
        (
            "commit_p99_ms".into(),
            pick(&aloha.light(), p99, "commit_p99_ms")?,
            "ms",
        ),
        (
            "commit_p99_ms.busy".into(),
            pick(&aloha.busy(), p99, "commit_p99_ms.busy")?,
            "ms",
        ),
        ("rss_mb".into(), rss_mb, "MB"),
    ])
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("capbench: {e}");
            eprintln!(
                "usage: capbench --workload <ycsb-rw|tpcc> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    // Scratch space (the WAL directories) stays inside the working
    // directory the benchmark runs from.
    let scratch = std::env::current_dir()
        .expect("working directory")
        .join(".bench_tmp");
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("capbench: cannot create {}: {e}", scratch.display());
        std::process::exit(1);
    }
    std::env::set_var("TMPDIR", &scratch);
    let started = Instant::now();
    match run(&args) {
        Ok(report) => {
            let metrics = report.metrics.into_iter().map(|(name, value, unit)| {
                (
                    name,
                    Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
                )
            });
            let line = Json::obj([
                ("correct", Json::from(true)),
                ("attempted", Json::from(report.attempted)),
                ("failed", Json::from(report.failed)),
                ("metrics", Json::obj(metrics)),
            ]);
            println!(
                "# {} finished in {:.1} s",
                args.mix.name(),
                started.elapsed().as_secs_f64()
            );
            println!("{line}");
        }
        Err(e) => {
            eprintln!("capbench: {e}");
            std::process::exit(1);
        }
    }
}
