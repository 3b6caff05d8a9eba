//! Per-layer metrics of a traced run: span percentiles around the
//! benchmark's own calls into the engine, exact counter deltas from the
//! engines' stats snapshots, and the substrate probes.

use std::collections::BTreeMap;
use std::io::Write as _;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::gen::{Outcome, Sample};
use crate::workloads::{self, Mix, OpGen};
use crate::{probes, stats, sub_seed, EngineRun, Metrics, Trial};

/// Default epoch length, for sizing probes by one epoch of work.
const EPOCH_SECS: f64 = 0.025;

/// Every sample of a set of trials.
fn samples<'a: 'b, 'b>(trials: &'b [&'a Trial]) -> impl Iterator<Item = &'a Sample> + 'b {
    trials.iter().flat_map(|t| &t.step.samples)
}

/// p50 and p99 of one span over the successful samples, microseconds.
fn span<'a>(samples: impl Iterator<Item = &'a Sample>, f: fn(&Sample) -> u64) -> (f64, f64) {
    let v: Vec<f64> = samples
        .filter(|s| s.outcome != Outcome::Failed)
        .map(|s| f(s) as f64)
        .collect();
    stats::summarize(v).map_or((0.0, 0.0), |s| (s.p50, s.p99))
}

fn push_span(out: &mut Metrics, name: &str, (p50, p99): (f64, f64)) {
    out.push((format!("{name}.p50"), p50, "us"));
    out.push((format!("{name}.p99"), p99, "us"));
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Writes every span of the light rungs as JSON lines: one root `txn` per
/// request and its children, sharing the request id.
fn write_spans(mix: Mix, seed: u64, runs: &[&EngineRun]) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("spans-{}-{seed}.jsonl", mix.name()));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    let mut id = 0u64;
    for run in runs {
        let engine = match run.engine {
            workloads::Engine::Aloha => "core",
            workloads::Engine::Calvin => "calvin",
        };
        for s in samples(&run.light()) {
            id += 1;
            let mut line = |name: &str, start: u64, end: u64| {
                writeln!(out, "{{\"id\": {id}, \"name\": \"{name}\", \"engine\": \"{engine}\", \"start_us\": {start}, \"end_us\": {end}}}")
            };
            line("txn", s.due, s.done)?;
            line("gen.late", s.due, s.start)?;
            line(&format!("{engine}.execute"), s.start, s.issued)?;
            line(&format!("{engine}.commit_wait"), s.issued, s.done)?;
        }
    }
    out.flush()?;
    Ok(path)
}

/// The deepest per-epoch version chain the busy rate builds: the most
/// writes any one key receives among one epoch's worth of the busy rung's
/// requests.
fn chain_depth(gen: &OpGen, seed: u64, busy_rate: f64) -> usize {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut writes: BTreeMap<Vec<u8>, usize> = BTreeMap::new();
    for _ in 0..(busy_rate * EPOCH_SECS).ceil() as usize {
        for key in workloads::written_keys(&gen.next(&mut rng)) {
            *writes.entry(key.as_bytes().to_vec()).or_insert(0) += 1;
        }
    }
    writes.values().copied().max().unwrap_or(1).max(1)
}

pub fn per_layer(
    mix: Mix,
    aloha: &EngineRun,
    calvin: Option<&EngineRun>,
    attempted: u64,
    failed: u64,
    seed: u64,
) -> Result<Metrics, String> {
    let mut m: Metrics = Vec::new();
    let light_trials = aloha.light();
    let light = || samples(&light_trials);

    // Spans around the benchmark's calls, over the light rungs.
    push_span(&mut m, "gen.late_us", span(light(), |s| s.start - s.due));
    push_span(
        &mut m,
        "core.execute_us",
        span(light(), |s| s.issued - s.start),
    );
    push_span(
        &mut m,
        "core.commit_wait_us",
        span(light(), |s| s.done - s.issued),
    );
    // Neither mix reads under load: this is the correctness gate's 10-key
    // read-back of the first light rung's drained, idle cluster.
    let read_back_us: Vec<f64> = light_trials[0]
        .gate
        .read_ms
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    push_span(
        &mut m,
        "core.read_latest_idle_us",
        stats::summarize(read_back_us).map_or((0.0, 0.0), |s| (s.p50, s.p99)),
    );
    // The Calvin baseline on the same inputs (ycsb-rw only; zero elsewhere).
    let calvin_span =
        |f: fn(&Sample) -> u64| calvin.map_or((0.0, 0.0), |c| span(samples(&c.light()), f));
    push_span(
        &mut m,
        "calvin.execute_us",
        calvin_span(|s| s.issued - s.start),
    );
    push_span(&mut m, "calvin.wait_us", calvin_span(|s| s.done - s.issued));
    let p99 = |s: &stats::Summary| s.p99;
    let commit =
        |trials: &[&Trial], q| EngineRun::pass_percentile(trials, q).map_or(0.0, |(v, _)| v);
    m.push((
        "calvin.capacity_tps".into(),
        calvin.map_or(0.0, |c| c.capacity),
        "1/s",
    ));
    m.push((
        "calvin.commit_p99_ms".into(),
        calvin.map_or(0.0, |c| commit(&c.light(), p99)),
        "ms",
    ));
    m.push(("aloha.capacity_tps".into(), aloha.capacity, "1/s"));
    m.push((
        "aloha.commit_p99_ms".into(),
        commit(&light_trials, p99),
        "ms",
    ));
    let base = light_trials[0]
        .untraced
        .as_ref()
        .ok_or("traced run without its untraced rung")?;
    let p50 = |step| stats::summarize(crate::latencies(step)).map_or(0.0, |s| s.p50);
    let (base_p50, traced_p50) = (p50(base), p50(&light_trials[0].step));
    m.push(("trace.overhead_ms".into(), traced_p50 - base_p50, "ms"));
    m.push((
        "gen.failed_pct".into(),
        100.0 * ratio(failed, attempted),
        "%",
    ));

    // Exact counter deltas over the ALOHA passes, every server summed.
    let delta = aloha.delta();
    let d = |k: &str| delta.get(k).copied().unwrap_or(0);
    let busy = aloha.busy()[0];
    let level = |k: &str| busy.levels.get(k).copied().unwrap_or(0);
    let ladder_secs: f64 = aloha.trials().map(|t| t.wall_secs).sum();
    let txns = d("server.committed") + d("server.aborted");
    let epochs = d("epoch_manager.epochs_completed");
    let epoch_ms = if epochs > 0 {
        1e3 * ladder_secs / epochs as f64
    } else {
        0.0
    };
    m.push(("epoch.epoch_ms".into(), epoch_ms, "ms"));
    m.push(("epoch.txns_per_epoch".into(), ratio(txns, epochs), "count"));
    for (name, counter) in [
        ("epoch.revoke_resends", "epoch_manager.revoke_resends"),
        ("exec.spillover_spawns", "exec.spillover_spawns"),
    ] {
        m.push((name.into(), d(counter) as f64, "count"));
    }
    m.push((
        "exec.threads_peak".into(),
        level("exec.threads_peak") as f64,
        "count",
    ));
    for (name, counter, unit) in [
        ("net.msgs_per_txn", "net.messages", "count"),
        ("exec.sharded_tasks_per_txn", "exec.sharded_tasks", "count"),
        (
            "exec.blocking_tasks_per_txn",
            "exec.blocking_tasks",
            "count",
        ),
        ("functor.computes_per_txn", "partition.computes", "count"),
        (
            "functor.on_demand_computes_per_txn",
            "partition.on_demand_computes",
            "count",
        ),
        (
            "functor.remote_reads_per_txn",
            "partition.remote_reads",
            "count",
        ),
        ("functor.push_hits_per_txn", "partition.push_hits", "count"),
        ("storage.installs_per_txn", "server.installs", "count"),
        (
            "storage.deferred_installs_per_txn",
            "partition.deferred_installs",
            "count",
        ),
        (
            "storage.aborted_versions_per_txn",
            "partition.aborted_versions",
            "count",
        ),
        ("wal.bytes_per_txn", "durability.wal_bytes", "B"),
        ("wal.records_per_txn", "durability.records", "count"),
    ] {
        m.push((name.into(), ratio(d(counter), txns), unit));
    }
    let chains = level("memory.chains");
    let records = level("memory.live_records") + level("memory.settled_records");
    m.push((
        "storage.records_per_key".into(),
        ratio(records, chains),
        "count",
    ));
    m.push((
        "storage.bytes_per_key".into(),
        ratio(level("memory.approx_bytes"), chains),
        "B",
    ));
    let (hits, misses) = (d("memory.push_cache_hits"), d("memory.push_cache_misses"));
    m.push((
        "storage.push_cache_hit_pct".into(),
        100.0 * ratio(hits, hits + misses),
        "%",
    ));
    m.push((
        "wal.fsyncs_per_s".into(),
        d("durability.fsyncs") as f64 / ladder_secs,
        "1/s",
    ));

    // Substrate probes, sized by this run.
    fn fail(what: &'static str) -> impl Fn(aloha_common::Error) -> String {
        move |e| format!("{what} probe failed: {e}")
    }
    let gen = OpGen::new(mix);
    let busy_rate = busy.step.rate;
    let depth = chain_depth(&gen, sub_seed(seed, 100), busy_rate);
    let (encode_ns, decode_ns, median_msg) =
        probes::wire_ns(&gen, sub_seed(seed, 3_000)).map_err(fail("wire"))?;
    m.push((
        "storage.snapshot_read_ns".into(),
        probes::snapshot_read_ns(depth),
        "ns",
    ));
    m.push((
        "functor.resolve_add_ns".into(),
        probes::resolve_add_ns(depth),
        "ns",
    ));
    m.push(("core.wire_encode_ns".into(), encode_ns, "ns"));
    m.push(("core.wire_decode_ns".into(), decode_ns, "ns"));
    // One busy-rate epoch of the run's WAL records; `ycsb-rw`, which has
    // no WAL, logs one epoch of its writes at the median message size.
    let epoch_txns = (busy_rate * EPOCH_SECS).max(1.0);
    let wal_records = (ratio(d("durability.records"), txns) * epoch_txns).round() as usize;
    let (records, record_bytes) = if wal_records > 0 {
        (
            wal_records,
            ratio(d("durability.wal_bytes"), d("durability.records")).round() as usize,
        )
    } else {
        ((epoch_txns * 10.0) as usize, median_msg)
    };
    let group_commit = probes::group_commit_us(records, record_bytes, sub_seed(seed, 4_000))
        .map_err(fail("wal"))?;
    m.push(("wal.group_commit_us".into(), group_commit, "us"));
    m.push(("net.exec_hop_us".into(), probes::exec_hop_us(), "us"));
    m.push((
        "net.tcp_rtt_us".into(),
        probes::tcp_rtt_us(median_msg).map_err(fail("tcp"))?,
        "us",
    ));

    let runs: Vec<&EngineRun> = std::iter::once(aloha).chain(calvin).collect();
    let path = write_spans(mix, seed, &runs).map_err(|e| format!("cannot write spans: {e}"))?;
    println!("# spans written to {}", path.display());
    Ok(m)
}
