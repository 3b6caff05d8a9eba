//! End-to-end Calvin tests: determinism, conflict serialization, redundancy.

use std::collections::HashMap;
use std::time::Duration;

use aloha_common::{Key, Value};
use calvin::{fn_program, CalvinCluster, CalvinConfig, CalvinPlan, ProgramId};

fn fast_config(servers: u16) -> CalvinConfig {
    CalvinConfig::new(servers).with_batch_duration(Duration::from_millis(2))
}

fn keys_on_partition(partition: u16, total: u16, count: usize) -> Vec<Key> {
    (0..)
        .map(|i: u32| Key::from_parts(&[b"ck", &i.to_be_bytes()]))
        .filter(|k| k.partition(total).0 == partition)
        .take(count)
        .collect()
}

/// args = key bytes; increments that key by one.
fn increment_program() -> impl calvin::CalvinProgram {
    fn_program(
        |args| {
            let key = Key::from(args);
            CalvinPlan {
                read_set: vec![key.clone()],
                write_set: vec![key],
            }
        },
        |args, reads, writes| {
            let key = Key::from(args);
            let old = reads
                .get(&key)
                .and_then(|v| v.as_ref())
                .and_then(Value::as_i64)
                .unwrap_or(0);
            writes.push((key, Value::from_i64(old + 1)));
        },
    )
}

/// Splits transfer args: two equal-length keys, then an `i64` amount.
fn transfer_args(args: &[u8]) -> (Key, Key, i64) {
    let (keys, amount) = args.split_at(args.len() - 8);
    let (a, b) = keys.split_at(keys.len() / 2);
    let amount = i64::from_be_bytes(amount.try_into().unwrap());
    (Key::from(a), Key::from(b), amount)
}

/// args = two equal-length keys + amount; distributed transfer.
fn transfer_program() -> impl calvin::CalvinProgram {
    fn_program(
        |args| {
            let (a, b, _) = transfer_args(args);
            CalvinPlan {
                read_set: vec![a.clone(), b.clone()],
                write_set: vec![a, b],
            }
        },
        |args, reads, writes| {
            let (a, b, amount) = transfer_args(args);
            let va = reads[&a].as_ref().and_then(Value::as_i64).unwrap_or(0);
            let vb = reads[&b].as_ref().and_then(Value::as_i64).unwrap_or(0);
            writes.push((a, Value::from_i64(va - amount)));
            writes.push((b, Value::from_i64(vb + amount)));
        },
    )
}

#[test]
fn single_partition_increments_apply_exactly_once() {
    let mut builder = CalvinCluster::builder(fast_config(1));
    builder.register_program(ProgramId(1), increment_program());
    let cluster = builder.start().unwrap();
    let key = Key::from("ctr");
    cluster.load(key.clone(), Value::from_i64(0));
    let db = cluster.database();
    let handles: Vec<_> = (0..50)
        .map(|_| db.execute(ProgramId(1), key.as_bytes()).unwrap())
        .collect();
    for h in handles {
        h.wait().unwrap();
    }
    assert_eq!(cluster.read(&key).unwrap().as_i64(), Some(50));
    cluster.shutdown();
}

#[test]
fn distributed_transfer_conserves_money() {
    let total = 4u16;
    let mut builder = CalvinCluster::builder(fast_config(total));
    builder.register_program(ProgramId(1), transfer_program());
    let cluster = builder.start().unwrap();
    let accounts: Vec<Key> = (0..total)
        .map(|p| keys_on_partition(p, total, 1).remove(0))
        .collect();
    for a in &accounts {
        cluster.load(a.clone(), Value::from_i64(1000));
    }
    let db = cluster.database();
    let mut handles = Vec::new();
    for i in 0..60usize {
        let from = &accounts[i % 4];
        let to = &accounts[(i + 1) % 4];
        let mut args = Vec::new();
        args.extend_from_slice(from.as_bytes());
        args.extend_from_slice(to.as_bytes());
        args.extend_from_slice(&(3i64).to_be_bytes());
        handles.push(db.execute(ProgramId(1), args).unwrap());
    }
    for h in handles {
        h.wait().unwrap();
    }
    let sum: i64 = accounts
        .iter()
        .map(|a| cluster.read(a).unwrap().as_i64().unwrap())
        .sum();
    assert_eq!(sum, 4000);
    cluster.shutdown();
}

#[test]
fn hot_key_contention_is_serialized_correctly() {
    let total = 2u16;
    let mut builder = CalvinCluster::builder(fast_config(total));
    builder.register_program(ProgramId(1), increment_program());
    let cluster = builder.start().unwrap();
    let hot = keys_on_partition(0, total, 1).remove(0);
    cluster.load(hot.clone(), Value::from_i64(0));
    let db = cluster.database();
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let db = db.clone();
            let hot = hot.clone();
            std::thread::spawn(move || {
                let handles: Vec<_> = (0..25)
                    .map(|_| db.execute(ProgramId(1), hot.as_bytes()).unwrap())
                    .collect();
                for h in handles {
                    h.wait().unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(cluster.read(&hot).unwrap().as_i64(), Some(100));
    cluster.shutdown();
}

#[test]
fn cross_partition_read_dependency_is_exchanged() {
    // dst := src where src lives on the other partition: requires the
    // read-broadcast between participants.
    let total = 2u16;
    let src = keys_on_partition(0, total, 1).remove(0);
    let dst = keys_on_partition(1, total, 1).remove(0);
    let mut builder = CalvinCluster::builder(fast_config(total));
    let src_p = src.clone();
    let dst_p = dst.clone();
    builder.register_program(
        ProgramId(1),
        fn_program(
            move |_args| CalvinPlan {
                read_set: vec![src_p.clone()],
                write_set: vec![dst_p.clone()],
            },
            {
                let src = src.clone();
                let dst = dst.clone();
                move |_args, reads, writes| {
                    let v = reads[&src].as_ref().and_then(Value::as_i64).unwrap_or(-1);
                    writes.push((dst.clone(), Value::from_i64(v)));
                }
            },
        ),
    );
    let cluster = builder.start().unwrap();
    cluster.load(src, Value::from_i64(777));
    let db = cluster.database();
    db.execute(ProgramId(1), b"").unwrap().wait().unwrap();
    assert_eq!(cluster.read(&dst).unwrap().as_i64(), Some(777));
    cluster.shutdown();
}

#[test]
fn stats_track_latency_and_stage_breakdown() {
    let mut builder = CalvinCluster::builder(fast_config(2));
    builder.register_program(ProgramId(1), increment_program());
    let cluster = builder.start().unwrap();
    let key = Key::from("k");
    cluster.load(key.clone(), Value::from_i64(0));
    let db = cluster.database();
    for _ in 0..5 {
        db.execute(ProgramId(1), key.as_bytes())
            .unwrap()
            .wait()
            .unwrap();
    }
    let snapshot = cluster.snapshot();
    assert_eq!(snapshot.counter("completed"), Some(5));
    let e2e = snapshot.stage("e2e").expect("e2e rollup");
    assert_eq!(e2e.count, 5);
    assert!(e2e.mean_micros >= 1000.0, "latency includes batch wait");
    let sequencing = snapshot
        .stage("timestamp_grant")
        .expect("sequencing rollup");
    assert!(sequencing.mean_micros > 0.0, "sequencing stage recorded");
    cluster.shutdown();
}

#[test]
fn deterministic_outcome_under_interleaving() {
    // Two clusters fed the same transactions through different sequencers
    // must converge to compatible final sums (determinism within each run).
    for _run in 0..2 {
        let total = 3u16;
        let mut builder = CalvinCluster::builder(fast_config(total));
        builder.register_program(ProgramId(1), transfer_program());
        let cluster = builder.start().unwrap();
        let accounts: Vec<Key> = (0..total)
            .map(|p| keys_on_partition(p, total, 1).remove(0))
            .collect();
        for a in &accounts {
            cluster.load(a.clone(), Value::from_i64(100));
        }
        let db = cluster.database();
        let mut handles = Vec::new();
        for i in 0..30usize {
            let mut args = Vec::new();
            args.extend_from_slice(accounts[i % 3].as_bytes());
            args.extend_from_slice(accounts[(i + 1) % 3].as_bytes());
            args.extend_from_slice(&(1i64).to_be_bytes());
            handles.push(db.execute(ProgramId(1), args).unwrap());
        }
        for h in handles {
            h.wait().unwrap();
        }
        let sum: i64 = accounts
            .iter()
            .map(|a| cluster.read(a).unwrap().as_i64().unwrap())
            .sum();
        assert_eq!(sum, 300);
        cluster.shutdown();
    }
}

#[test]
fn empty_batches_do_not_stall_rounds() {
    // A cluster that only ever receives one transaction must still complete
    // it promptly (empty batches from the other sequencers unblock merging).
    let mut builder = CalvinCluster::builder(fast_config(3));
    builder.register_program(ProgramId(1), increment_program());
    let cluster = builder.start().unwrap();
    let key = Key::from("solo");
    cluster.load(key.clone(), Value::from_i64(0));
    let db = cluster.database();
    let start = std::time::Instant::now();
    db.execute(ProgramId(1), key.as_bytes())
        .unwrap()
        .wait()
        .unwrap();
    assert!(start.elapsed() < Duration::from_secs(2));
    assert_eq!(cluster.read(&key).unwrap().as_i64(), Some(1));
    cluster.shutdown();
}

#[test]
fn read_modify_write_chains_compose() {
    // f(x) = 2x + 1 applied 8 times must give the exact sequential result.
    let mut builder = CalvinCluster::builder(fast_config(2));
    builder.register_program(
        ProgramId(1),
        fn_program(
            |args| {
                let key = Key::from(args);
                CalvinPlan {
                    read_set: vec![key.clone()],
                    write_set: vec![key],
                }
            },
            |args, reads: &HashMap<Key, Option<Value>>, writes| {
                let key = Key::from(args);
                let old = reads[&key].as_ref().and_then(Value::as_i64).unwrap_or(0);
                writes.push((key, Value::from_i64(2 * old + 1)));
            },
        ),
    );
    let cluster = builder.start().unwrap();
    let key = Key::from("rmw");
    cluster.load(key.clone(), Value::from_i64(0));
    let db = cluster.database();
    for _ in 0..8 {
        db.execute(ProgramId(1), key.as_bytes())
            .unwrap()
            .wait()
            .unwrap();
    }
    // x_{n+1} = 2x + 1, x_0 = 0 → x_8 = 2^8 - 1 = 255.
    assert_eq!(cluster.read(&key).unwrap().as_i64(), Some(255));
    cluster.shutdown();
}

#[test]
fn shutdown_under_load_is_clean() {
    let mut builder = CalvinCluster::builder(fast_config(2));
    builder.register_program(ProgramId(1), increment_program());
    let cluster = builder.start().unwrap();
    let key = Key::from("load");
    cluster.load(key.clone(), Value::from_i64(0));
    let db = cluster.database();
    let worker = std::thread::spawn(move || {
        while let Ok(h) = db.execute(ProgramId(1), key.as_bytes()) {
            if h.wait().is_err() {
                break;
            }
        }
    });
    std::thread::sleep(Duration::from_millis(30));
    cluster.shutdown();
    worker.join().unwrap();
}
