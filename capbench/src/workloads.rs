//! The traffic mixes: their inputs, deployments, offered-rate ladders and
//! correctness gates.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use aloha_common::tempdir::TempDir;
use aloha_common::{Key, Result, ServerId, Timestamp, Value};
use aloha_core::{Cluster, ClusterConfig, Database, DurableLogSpec, Fsync, TxnHandle, TxnOutcome};
use aloha_workloads::tpcc::{self, NewOrderReq, PaymentReq, TpccConfig};
use aloha_workloads::ycsb::{self, YcsbConfig};
use calvin::{CalvinCluster, CalvinConfig, CalvinDatabase, CalvinHandle};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::gen::{Outcome, Target};
use crate::stats;

/// Commit SLO: p99 within four default (25 ms) epochs.
pub const COMMIT_SLO_MS: f64 = 100.0;
/// Servers (= partitions) in every deployment.
pub const SERVERS: u16 = 4;
/// Compaction sweep cadence (four default epochs) and retained versions
/// of `tpcc`.
const COMPACTION_INTERVAL: Duration = Duration::from_millis(100);
const KEEP_VERSIONS: usize = 1;
/// WAL group-commit policy of `tpcc`: one fsync per epoch.
pub const FSYNC: Fsync = Fsync::EveryEpoch;
/// Keys per read-back request of the correctness gate. A traced run times
/// the read-back in the paper's 10-key transaction shape; an untraced run
/// only verifies, in larger requests.
const GATE_BATCH_TIMED: usize = 10;
const GATE_BATCH: usize = 1_000;

/// A traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    YcsbRw,
    Tpcc,
}

/// The engine a deployment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Aloha,
    Calvin,
}

impl Mix {
    pub const ALL: [Mix; 2] = [Mix::YcsbRw, Mix::Tpcc];

    pub fn name(self) -> &'static str {
        match self {
            Mix::YcsbRw => "ycsb-rw",
            Mix::Tpcc => "tpcc",
        }
    }

    pub fn parse(name: &str) -> Option<Mix> {
        Mix::ALL.into_iter().find(|m| m.name() == name)
    }

    /// The fixed offered-rate ladder of `engine` on this mix, requests per
    /// second, ascending. Rung 0 is the light rung and rung 1 the busy
    /// rung, whose latencies are reported; the rungs above locate the
    /// capacity. The busy rung sits near 40 % of the capacity measured on a
    /// 2-vCPU x86-64 host when the ladders were set, low enough that it
    /// does not saturate when that host loses a third of its speed for
    /// minutes, as it does. The rungs above it,
    /// about 18 % apart, span the capacities that host showed as its speed
    /// drifted, with room above. The rates are constants so that two commits
    /// always face the same offered load.
    pub fn ladder(self, engine: Engine) -> &'static [f64] {
        match (self, engine) {
            (Mix::YcsbRw, Engine::Aloha) => &[
                2_000.0, 4_000.0, 8_900.0, 10_500.0, 12_400.0, 14_600.0, 17_200.0, 20_300.0,
            ],
            (Mix::YcsbRw, Engine::Calvin) => &[
                2_000.0, 3_500.0, 5_000.0, 6_000.0, 7_000.0, 8_000.0, 9_000.0,
            ],
            (Mix::Tpcc, Engine::Aloha) => &[
                2_000.0, 3_000.0, 6_500.0, 7_700.0, 9_100.0, 10_700.0, 12_600.0,
            ],
            (Mix::Tpcc, Engine::Calvin) => {
                unreachable!("Calvin runs only the ycsb-rw comparison")
            }
        }
    }
}

fn ycsb_config() -> YcsbConfig {
    YcsbConfig::with_contention_index(SERVERS, 0.01).with_keys_per_partition(10_000)
}

fn tpcc_config() -> TpccConfig {
    TpccConfig::by_warehouse(SERVERS, 2).with_invalid_fraction(0.01)
}

/// One generated request.
#[derive(Debug, Clone)]
pub enum Op {
    /// Ten `ADD(1)` read-modify-writes over two partitions.
    Rmw(Vec<Key>),
    NewOrder(NewOrderReq),
    Payment(PaymentReq),
}

/// The seeded request generator of a mix.
pub struct OpGen {
    mix: Mix,
    ycsb: YcsbConfig,
    tpcc: TpccConfig,
}

impl OpGen {
    pub fn new(mix: Mix) -> OpGen {
        OpGen {
            mix,
            ycsb: ycsb_config(),
            tpcc: tpcc_config(),
        }
    }

    pub fn next(&self, rng: &mut SmallRng) -> Op {
        match self.mix {
            Mix::YcsbRw => Op::Rmw(ycsb::gen_txn_keys(rng, &self.ycsb)),
            Mix::Tpcc => {
                if rng.gen_bool(0.5) {
                    Op::NewOrder(tpcc::gen::gen_new_order(rng, &self.tpcc, true))
                } else {
                    Op::Payment(tpcc::gen::gen_payment(rng, &self.tpcc))
                }
            }
        }
    }
}

/// The keys a request writes.
pub fn written_keys(op: &Op) -> Vec<Key> {
    let cfg = tpcc_config();
    match op {
        Op::Rmw(keys) => keys.clone(),
        Op::NewOrder(req) => std::iter::once(cfg.district_noid_key(req.w, req.d))
            .chain(req.lines.iter().map(|l| cfg.stock_key(l.supply_w, l.i_id)))
            .collect(),
        Op::Payment(req) => vec![
            cfg.wytd_key(req.w),
            cfg.dytd_key(req.w, req.d),
            cfg.cbal_key(req.c_w, req.c_d, req.c),
            cfg.history_key(req.w, req.d, req.c, req.unique),
        ],
    }
}

/// A running deployment of one engine, on the simulated bus.
pub enum Deployment {
    Aloha {
        cluster: Box<Cluster>,
        db: Database,
    },
    /// Calvin runs `ycsb-rw` only.
    Calvin {
        cluster: Box<CalvinCluster>,
        db: CalvinDatabase,
    },
}

/// A deployment plus the scratch WAL directory it owns, if any.
pub struct Deployed {
    pub dep: Deployment,
    wal: Option<TempDir>,
}

/// Starts `engine` for `mix` and loads its data.
pub fn deploy(mix: Mix, engine: Engine) -> Result<Deployed> {
    let wal = (mix == Mix::Tpcc).then(|| TempDir::new("capbench-wal"));
    let dep = match (engine, mix) {
        (Engine::Aloha, _) => {
            let mut config = ClusterConfig::new(SERVERS);
            if let Some(dir) = &wal {
                config = config
                    .with_durable_log(DurableLogSpec::new(dir.path()).with_fsync(FSYNC))
                    .with_compaction(COMPACTION_INTERVAL, KEEP_VERSIONS);
            }
            let mut builder = Cluster::builder(config);
            let tpcc_cfg = tpcc_config();
            match mix {
                Mix::Tpcc => tpcc::aloha::install(&mut builder, &tpcc_cfg),
                Mix::YcsbRw => ycsb::install_aloha(&mut builder),
            }
            let cluster = builder.start()?;
            match mix {
                Mix::Tpcc => tpcc::aloha::load(&cluster, &tpcc_cfg),
                Mix::YcsbRw => ycsb::load_aloha(&cluster, &ycsb_config()),
            }
            Deployment::Aloha {
                db: cluster.database(),
                cluster: Box::new(cluster),
            }
        }
        (Engine::Calvin, Mix::YcsbRw) => {
            let mut builder = CalvinCluster::builder(CalvinConfig::new(SERVERS));
            ycsb::install_calvin(&mut builder);
            let cluster = builder.start()?;
            ycsb::load_calvin(&cluster, &ycsb_config());
            Deployment::Calvin {
                db: cluster.database(),
                cluster: Box::new(cluster),
            }
        }
        (Engine::Calvin, _) => unreachable!("Calvin runs only the ycsb-rw comparison"),
    };
    Ok(Deployed { dep, wal })
}

impl Deployed {
    /// Counter totals over the whole deployment, every server summed.
    pub fn totals(&self) -> BTreeMap<String, u64> {
        match &self.dep {
            Deployment::Aloha { cluster, .. } => stats::totals(&cluster.snapshot()),
            Deployment::Calvin { cluster, .. } => stats::totals(&cluster.snapshot()),
        }
    }

    /// Stops every thread of the deployment, then removes its WAL.
    pub fn shutdown(self) {
        match self.dep {
            Deployment::Aloha { cluster, .. } => cluster.shutdown(),
            Deployment::Calvin { cluster, .. } => cluster.shutdown(),
        }
        drop(self.wal);
    }
}

/// Committed work the correctness gates check the final state against.
#[derive(Debug, Default)]
pub struct Tally {
    pub committed_rmw: AtomicU64,
    pub committed_neworders: AtomicU64,
    pub committed_payment_cents: AtomicI64,
    /// Highest committed ALOHA timestamp: the read floor of the gate.
    max_ts: AtomicU64,
}

/// What a pending write is, for the tally.
#[derive(Debug, Clone, Copy)]
pub enum Class {
    Rmw,
    NewOrder,
    Payment(i64),
}

pub enum Pending {
    Aloha(TxnHandle, Class),
    Calvin(CalvinHandle, Class),
}

/// A client of one deployment, issuing one mix's requests.
pub struct Client<'a> {
    dep: &'a Deployment,
    tally: &'a Tally,
    tpcc: TpccConfig,
}

fn partition_of(key: &Key) -> u16 {
    key.partition(SERVERS).0
}

impl<'a> Client<'a> {
    pub fn new(dep: &'a Deployment, tally: &'a Tally) -> Client<'a> {
        Client {
            dep,
            tally,
            tpcc: tpcc_config(),
        }
    }

    fn tally_commit(&self, class: Class) {
        let t = self.tally;
        match class {
            Class::Rmw => t.committed_rmw.fetch_add(1, Ordering::Relaxed),
            Class::NewOrder => t.committed_neworders.fetch_add(1, Ordering::Relaxed),
            Class::Payment(cents) => {
                t.committed_payment_cents
                    .fetch_add(cents, Ordering::Relaxed);
                0
            }
        };
    }
}

impl Target for Client<'_> {
    type Op = Op;
    type Pending = Pending;

    fn issue(&self, op: Op) -> Option<Pending> {
        let sent = match (self.dep, op) {
            (Deployment::Calvin { db, .. }, op) => {
                let Op::Rmw(keys) = op else {
                    unreachable!("calvin runs only ycsb-rw requests")
                };
                let origin = ServerId(partition_of(&keys[0]));
                db.execute_at(origin, ycsb::YCSB_CALVIN, ycsb::encode_txn_args(&keys))
                    .map(|h| Pending::Calvin(h, Class::Rmw))
            }
            (Deployment::Aloha { db, .. }, op) => {
                let (class, fe, program, args) = match op {
                    Op::Rmw(keys) => (
                        Class::Rmw,
                        partition_of(&keys[0]),
                        ycsb::YCSB_ALOHA,
                        ycsb::encode_txn_args(&keys),
                    ),
                    Op::NewOrder(req) => {
                        let fe = partition_of(&self.tpcc.district_noid_key(req.w, req.d));
                        (Class::NewOrder, fe, tpcc::aloha::NEW_ORDER, req.encode())
                    }
                    Op::Payment(req) => (
                        Class::Payment(req.amount_cents),
                        self.tpcc.partition_of_route(req.w),
                        tpcc::aloha::PAYMENT,
                        req.encode(),
                    ),
                };
                db.execute_at(ServerId(fe), program, args)
                    .map(|h| Pending::Aloha(h, class))
            }
        };
        sent.ok()
    }

    fn wait(&self, pending: Pending) -> Outcome {
        match pending {
            Pending::Aloha(handle, class) => match handle.wait_processed() {
                Ok(TxnOutcome::Committed) => {
                    self.tally
                        .max_ts
                        .fetch_max(handle.timestamp().raw(), Ordering::Relaxed);
                    self.tally_commit(class);
                    Outcome::Committed
                }
                Ok(TxnOutcome::Aborted) => Outcome::Aborted,
                Err(_) => Outcome::Failed,
            },
            Pending::Calvin(handle, class) => match handle.wait() {
                Ok(()) => {
                    self.tally_commit(class);
                    Outcome::Committed
                }
                Err(_) => Outcome::Failed,
            },
        }
    }
}

/// What the correctness gate read back, timed per request.
#[derive(Debug, Default)]
pub struct GateReport {
    /// Latency of each read-back request, milliseconds.
    pub read_ms: Vec<f64>,
}

/// The keys whose final values the gate checks.
fn gate_keys(mix: Mix) -> Vec<Key> {
    match mix {
        Mix::YcsbRw => ycsb::all_keys(&ycsb_config()),
        Mix::Tpcc => {
            let cfg = tpcc_config();
            let mut keys = Vec::new();
            for w in 0..cfg.warehouses {
                keys.push(cfg.wytd_key(w));
                for d in 0..cfg.districts {
                    keys.push(cfg.district_noid_key(w, d));
                    keys.push(cfg.dytd_key(w, d));
                    for c in 0..cfg.customers_per_district {
                        keys.push(cfg.cbal_key(w, d, c));
                    }
                }
            }
            keys
        }
    }
}

/// Reads `keys` back from a drained deployment, timing each request.
fn read_back(
    dep: &Deployment,
    keys: &[Key],
    batch: usize,
    floor: Timestamp,
) -> std::result::Result<(Vec<Option<Value>>, Vec<f64>), String> {
    let mut values = Vec::with_capacity(keys.len());
    let mut read_ms = Vec::with_capacity(keys.len() / batch + 1);
    for chunk in keys.chunks(batch) {
        let started = Instant::now();
        let got = match dep {
            // The read floors at the highest committed write, so the
            // read-back sees every acknowledged commit.
            Deployment::Aloha { db, .. } => {
                db.note_observed(floor);
                db.read_latest(chunk)
            }
            Deployment::Calvin { cluster, .. } => {
                Ok(chunk.iter().map(|k| cluster.read(k)).collect())
            }
        }
        .map_err(|e| format!("gate read-back failed: {e}"))?;
        read_ms.push(started.elapsed().as_secs_f64() * 1_000.0);
        values.extend(got);
    }
    Ok((values, read_ms))
}

fn int(value: &Option<Value>, key: &Key) -> std::result::Result<i64, String> {
    value
        .as_ref()
        .ok_or_else(|| format!("gate: key {key:?} is missing"))?
        .as_i64()
        .ok_or_else(|| format!("gate: key {key:?} is not an integer"))
}

/// Reads the drained deployment's final state back and checks it against
/// what committed.
pub fn gate(
    mix: Mix,
    dep: &Deployment,
    tally: &Tally,
    timed: bool,
) -> std::result::Result<GateReport, String> {
    let keys = gate_keys(mix);
    let floor = Timestamp::from_raw(tally.max_ts.load(Ordering::Relaxed));
    let batch = if timed { GATE_BATCH_TIMED } else { GATE_BATCH };
    let (values, read_ms) = read_back(dep, &keys, batch, floor)?;
    verify(mix, &keys, &values, tally)?;
    Ok(GateReport { read_ms })
}

/// The invariants of each mix over the values read back for
/// [`gate_keys`], in that order.
fn verify(
    mix: Mix,
    keys: &[Key],
    values: &[Option<Value>],
    tally: &Tally,
) -> std::result::Result<(), String> {
    let check = |what: &str, got: i64, want: i64| {
        if got == want {
            Ok(())
        } else {
            Err(format!("gate: {what} is {got}, expected {want}"))
        }
    };
    if values.len() != keys.len() {
        return Err(format!(
            "gate: read back {} values for {} keys",
            values.len(),
            keys.len()
        ));
    }
    let mut ints = values.iter().zip(keys).map(|(value, key)| int(value, key));
    match mix {
        Mix::YcsbRw => {
            let sum = ints.sum::<std::result::Result<i64, String>>()?;
            let rmw = tally.committed_rmw.load(Ordering::Relaxed) as i64;
            check("sum over all keys", sum, 10 * rmw)
        }
        Mix::Tpcc => {
            let cfg = tpcc_config();
            let cents = tally.committed_payment_cents.load(Ordering::Relaxed);
            let (mut noid, mut wytd, mut dytd, mut cbal) = (0, 0, 0, 0);
            let mut next = || ints.next().expect("one value per gate key");
            for _ in 0..cfg.warehouses {
                wytd += next()?;
                for _ in 0..cfg.districts {
                    noid += next()? - TpccConfig::INITIAL_NEXT_O_ID;
                    dytd += next()?;
                    for _ in 0..cfg.customers_per_district {
                        cbal += next()?;
                    }
                }
            }
            let neworders = tally.committed_neworders.load(Ordering::Relaxed) as i64;
            check("district next-order-id advance", noid, neworders)?;
            check("warehouse YTD", wytd, cents)?;
            check("district YTD", dytd, cents)?;
            let customers = i64::from(cfg.warehouses * cfg.districts * cfg.customers_per_district);
            check("customer balances", cbal, -1_000 * customers - cents)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tally(rmw: u64, neworders: u64, cents: i64) -> Tally {
        let t = Tally::default();
        t.committed_rmw.store(rmw, Ordering::Relaxed);
        t.committed_neworders.store(neworders, Ordering::Relaxed);
        t.committed_payment_cents.store(cents, Ordering::Relaxed);
        t
    }

    #[test]
    fn ycsb_gate_checks_the_sum() {
        let keys = gate_keys(Mix::YcsbRw);
        let mut values: Vec<Option<Value>> =
            keys.iter().map(|_| Some(Value::from_i64(0))).collect();
        // Three committed RMWs: 30 increments anywhere in the key space.
        for v in values.iter_mut().take(30) {
            *v = Some(Value::from_i64(1));
        }
        assert!(verify(Mix::YcsbRw, &keys, &values, &tally(3, 0, 0)).is_ok());
        assert!(verify(Mix::YcsbRw, &keys, &values, &tally(4, 0, 0)).is_err());
        values[100] = None;
        let err = verify(Mix::YcsbRw, &keys, &values, &tally(3, 0, 0)).unwrap_err();
        assert!(err.contains("missing"), "{err}");
        assert!(verify(Mix::YcsbRw, &keys, &values[1..], &tally(3, 0, 0)).is_err());
    }

    #[test]
    fn tpcc_gate_checks_orders_and_money() {
        let cfg = tpcc_config();
        let keys = gate_keys(Mix::Tpcc);
        // Loaded state, then 2 NewOrders on one district and one 500-cent
        // payment by one customer.
        let (mut balances, mut districts) = (
            std::collections::HashSet::new(),
            std::collections::HashSet::new(),
        );
        for w in 0..cfg.warehouses {
            for d in 0..cfg.districts {
                districts.insert(cfg.district_noid_key(w, d));
                for c in 0..cfg.customers_per_district {
                    balances.insert(cfg.cbal_key(w, d, c));
                }
            }
        }
        let mut values: Vec<Option<Value>> = keys
            .iter()
            .map(|k| {
                let v = if balances.contains(k) {
                    -1_000
                } else if districts.contains(k) {
                    TpccConfig::INITIAL_NEXT_O_ID
                } else {
                    0
                };
                Some(Value::from_i64(v))
            })
            .collect();
        let at = |k: &Key| keys.iter().position(|x| x == k).unwrap();
        values[at(&cfg.district_noid_key(0, 0))] =
            Some(Value::from_i64(TpccConfig::INITIAL_NEXT_O_ID + 2));
        values[at(&cfg.wytd_key(1))] = Some(Value::from_i64(500));
        values[at(&cfg.dytd_key(1, 3))] = Some(Value::from_i64(500));
        values[at(&cfg.cbal_key(2, 4, 5))] = Some(Value::from_i64(-1_500));
        assert_eq!(verify(Mix::Tpcc, &keys, &values, &tally(0, 2, 500)), Ok(()));
        assert!(verify(Mix::Tpcc, &keys, &values, &tally(0, 3, 500))
            .unwrap_err()
            .contains("next-order-id"));
        assert!(verify(Mix::Tpcc, &keys, &values, &tally(0, 2, 400))
            .unwrap_err()
            .contains("warehouse YTD"));
        values[at(&cfg.cbal_key(2, 4, 5))] = Some(Value::from_i64(-1_400));
        assert!(verify(Mix::Tpcc, &keys, &values, &tally(0, 2, 500))
            .unwrap_err()
            .contains("customer balances"));
    }
}
