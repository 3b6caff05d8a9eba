//! Substrate probes: timed calls into single layers from outside the
//! engine, fed with inputs from the run's own generator and sized by the
//! run's own counters. Each probe reports the median over many repeats.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aloha_common::tempdir::TempDir;
use aloha_common::{Bytes, Key, PartitionId, Result, ServerId, Timestamp, Value};
use aloha_core::program::Write;
use aloha_core::{ServerMsg, ServerMsgCodec};
use aloha_functor::{Functor, HandlerRegistry};
use aloha_net::{
    reply_pair, Addr, ExecConfig, Executor, PendingReplies, RemoteReplier, TcpTransport, Transport,
    WireCodec,
};
use aloha_storage::{
    DurableLog, DurableLogConfig, LocalOnlyEnv, Partition, SnapshotRead, VersionChain,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::stats::median;
use crate::workloads::{OpGen, FSYNC, SERVERS};

fn ts(micros: u64) -> Timestamp {
    Timestamp::from_parts(micros, ServerId(0), 0)
}

/// Nanoseconds per call of `f`, the median of `rounds` timed batches.
fn per_call_ns(rounds: usize, batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut samples = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let started = Instant::now();
        for i in 0..batch {
            f(round * batch + i);
        }
        samples.push(started.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&samples)
}

/// `VersionChain::snapshot_read` at the newest bound over a settled chain
/// of `depth` versions.
pub fn snapshot_read_ns(depth: usize) -> f64 {
    let chain = VersionChain::new();
    for v in 1..=depth as u64 {
        chain.insert(ts(v * 10), Functor::Value(Value::from_i64(v as i64)));
    }
    let bound = ts(depth as u64 * 10 + 5);
    per_call_ns(21, 20_000, |_| {
        let read = chain.snapshot_read(std::hint::black_box(bound));
        assert!(
            matches!(read, SnapshotRead::Found(..)),
            "settled chain reads"
        );
    })
}

/// `Partition::get` resolving a fresh chain of `depth` `ADD(1)` functors
/// over a loaded base value.
pub fn resolve_add_ns(depth: usize) -> f64 {
    const KEYS: usize = 2_000;
    let partition = Partition::new(PartitionId(0), 1, Arc::new(HandlerRegistry::new()));
    let mut samples = Vec::new();
    for round in 0..11u32 {
        let keys: Vec<Key> = (0..KEYS as u32)
            .map(|i| Key::from(format!("probe-{round}-{i}").into_bytes()))
            .collect();
        for key in &keys {
            partition.load(key, Functor::Value(Value::from_i64(0)));
            for v in 1..=depth as u64 {
                partition
                    .install(key, ts(v * 10), Functor::add(1))
                    .expect("install");
            }
        }
        let bound = ts(depth as u64 * 10 + 5);
        let started = Instant::now();
        for key in &keys {
            let read = partition
                .get(key, bound, &LocalOnlyEnv)
                .expect("local resolve");
            assert_eq!(read.value.and_then(|v| v.as_i64()), Some(depth as i64));
        }
        samples.push(started.elapsed().as_nanos() as f64 / KEYS as f64);
    }
    median(&samples)
}

/// The run's requests as the wire messages they travel in: one `Install`
/// per written partition, an `ADD(1)` per key.
fn messages(gen: &OpGen, seed: u64, count: usize) -> Vec<ServerMsg> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut version = 1u64;
    while out.len() < count {
        version += 1;
        let keys = crate::workloads::written_keys(&gen.next(&mut rng));
        for p in 0..SERVERS {
            let writes: Vec<Write> = keys
                .iter()
                .filter(|k| k.partition(SERVERS).0 == p)
                .map(|key| Write {
                    key: key.clone(),
                    functor: Functor::add(1),
                    check: None,
                })
                .collect();
            if writes.is_empty() {
                continue;
            }
            out.push(ServerMsg::Install {
                version: ts(version * 10),
                writes: Arc::new(writes),
                reply: reply_pair().0,
            });
        }
    }
    out
}

/// `ServerMsgCodec` encode and decode nanoseconds per message over the
/// run's messages, plus their median encoded size.
pub fn wire_ns(gen: &OpGen, seed: u64) -> Result<(f64, f64, usize)> {
    let msgs = messages(gen, seed, 2_000);
    let codec = ServerMsgCodec;
    let pending = PendingReplies::new();
    let mut frames = Vec::with_capacity(msgs.len());
    for msg in &msgs {
        let mut out = Vec::new();
        codec.encode(msg, &pending, &mut out)?;
        frames.push(Bytes::from(out));
    }
    pending.clear();
    let mut sizes: Vec<f64> = frames.iter().map(|f| f.len() as f64).collect();
    sizes.sort_by(f64::total_cmp);
    let mut buf = Vec::new();
    let encode = per_call_ns(11, msgs.len(), |i| {
        buf.clear();
        codec
            .encode(&msgs[i % msgs.len()], &pending, &mut buf)
            .expect("encode");
        if i % msgs.len() == msgs.len() - 1 {
            pending.clear();
        }
    });
    pending.clear();
    let replier = RemoteReplier::new(|_, _| {});
    let decode = per_call_ns(11, frames.len(), |i| {
        let msg = codec
            .decode(&frames[i % frames.len()], &replier)
            .expect("decode");
        std::hint::black_box(msg);
    });
    Ok((encode, decode, sizes[sizes.len() / 2] as usize))
}

/// `DurableLog` group commit of one epoch's records (append + fsync),
/// microseconds, median over several epochs.
pub fn group_commit_us(records: usize, bytes_per_record: usize, seed: u64) -> Result<f64> {
    let dir = TempDir::new("capbench-probe-wal");
    let (log, _) = DurableLog::open(DurableLogConfig::new(dir.path()).with_fsync(FSYNC))?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut samples = Vec::new();
    let mut version = 0u64;
    for _ in 0..21 {
        let frames: Vec<(u64, Vec<u8>)> = (0..records.max(1))
            .map(|_| {
                version += 1;
                (
                    version,
                    (0..bytes_per_record.max(1)).map(|_| rng.gen()).collect(),
                )
            })
            .collect();
        let started = Instant::now();
        log.append_batch(&frames)?;
        log.commit()?;
        samples.push(started.elapsed().as_secs_f64() * 1e6);
    }
    log.close();
    Ok(median(&samples))
}

/// `Executor` hop: submit on the sharded lane until the job starts,
/// microseconds, median over many sequential hops.
pub fn exec_hop_us() -> f64 {
    let exec = Executor::new("probe", ExecConfig::default());
    let (tx, rx) = mpsc::channel::<Instant>();
    let mut samples = Vec::with_capacity(2_000);
    for i in 0..2_000u64 {
        let tx = tx.clone();
        let submitted = Instant::now();
        exec.submit_sharded(i, move || {
            let _ = tx.send(Instant::now());
        });
        let ran = rx.recv().expect("probe job ran");
        samples.push(ran.duration_since(submitted).as_secs_f64() * 1e6);
    }
    exec.shutdown();
    median(&samples)
}

/// Opaque frames for the TCP probe.
struct RawCodec;

impl WireCodec<Vec<u8>> for RawCodec {
    fn encode(&self, msg: &Vec<u8>, _: &PendingReplies, out: &mut Vec<u8>) -> Result<()> {
        out.extend_from_slice(msg);
        Ok(())
    }

    fn decode(&self, bytes: &Bytes, _: &RemoteReplier) -> Result<Vec<u8>> {
        Ok(bytes.to_vec())
    }
}

/// `TcpTransport` loopback round trip of a `frame_bytes` frame,
/// microseconds, median over many sequential pings.
pub fn tcp_rtt_us(frame_bytes: usize) -> Result<f64> {
    let codec: Arc<dyn WireCodec<Vec<u8>>> = Arc::new(RawCodec);
    let a = TcpTransport::bind("127.0.0.1:0", Arc::clone(&codec))?;
    let b = TcpTransport::bind("127.0.0.1:0", codec)?;
    let (addr_a, addr_b) = (Addr::Server(ServerId(0)), Addr::Server(ServerId(1)));
    a.add_peer(addr_b, b.local_addr());
    b.add_peer(addr_a, a.local_addr());
    let (ea, eb) = (a.register(addr_a), b.register(addr_b));
    let payload = vec![0x5a; frame_bytes.max(1)];
    let mut samples = Vec::with_capacity(2_000);
    const PINGS: usize = 2_000;
    std::thread::scope(|scope| -> Result<()> {
        let echo = scope.spawn(|| -> Result<()> {
            for _ in 0..PINGS {
                let frame = eb.recv_timeout(Duration::from_secs(5))?;
                b.send(addr_a, frame)?;
            }
            Ok(())
        });
        for _ in 0..PINGS {
            let started = Instant::now();
            a.send(addr_b, payload.clone())?;
            ea.recv_timeout(Duration::from_secs(5))?;
            samples.push(started.elapsed().as_secs_f64() * 1e6);
        }
        echo.join().expect("echo thread panicked")
    })?;
    a.shutdown();
    b.shutdown();
    Ok(median(&samples))
}
