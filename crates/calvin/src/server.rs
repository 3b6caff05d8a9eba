//! One Calvin server: sequencer, scheduler (single-threaded lock manager)
//! and execution workers.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aloha_common::metrics::{
    duration_micros, Counter, Histogram, HistogramSnapshot, LifecycleTracer, Stage, TxnTrace,
    STAGE_COUNT,
};
use aloha_common::stats::{StageStats, StatsSnapshot};
use aloha_common::{HistoryLog, Key, Result, ServerId, Value};
use aloha_control::Pacer;
use aloha_net::{reply_pair, Addr, Endpoint, Executor, ReplyHandle, Transport};
use aloha_storage::DurableLog;
use crossbeam::channel::{Receiver, Sender};
use parking_lot::Mutex;

use crate::durability::{CalvinWal, CalvinWalRecord};
use crate::exchange::{PendingCompletions, ReadExchange};
use crate::lock::{LockManager, LockMode};
use crate::msg::{CalvinMsg, CalvinTxn, GlobalTxnId};
use crate::program::{CalvinRegistry, ProgramId};
use crate::store::CalvinStore;

/// Per-server record of the merged deterministic order: every scheduler logs
/// the full global transaction order (not just the transactions it
/// participates in), so any server's log replays the whole workload.
pub type CalvinHistory = HistoryLog<CalvinTxn>;

/// How many sealed rounds each sequencer re-broadcasts while fault injection
/// is active. Schedulers merge rounds strictly in order, so one dropped batch
/// stalls every later round on that scheduler until a re-broadcast arrives;
/// the ring must therefore out-last the longest injected disruption
/// (32 rounds ≈ 32 × batch_duration).
const SEALED_ROUNDS_RING: usize = 32;

/// How many finished executions each server remembers for re-broadcast. A
/// peer whose `ReadResults`/`TxnDone` was dropped recovers from the next
/// sequencer tick's re-send.
const RECENT_EXECS_RING: usize = 128;

/// One finished execution, kept for re-broadcast under fault injection.
struct RecentExec {
    txn: GlobalTxnId,
    others: Vec<ServerId>,
    values: Vec<(Key, Option<Value>)>,
}

/// Per-server Calvin metrics on the same six-stage schema as the ALOHA
/// engine, so figures can compare the engines stage-for-stage:
/// `transform` = planning the stored procedure, `timestamp_grant` =
/// sequencing wait (submit → deterministic merge), `functor_install` = lock
/// wait, `epoch_close` = the read-exchange barrier, `functor_computing` =
/// procedure execution, `commit` = origin-side completion wait.
#[derive(Debug, Default)]
pub struct CalvinStats {
    tracer: LifecycleTracer,
    latency: Histogram,
    completed: Counter,
    scheduled: Counter,
}

impl CalvinStats {
    /// The lifecycle tracer: per-stage histograms plus recent traces.
    pub fn tracer(&self) -> &LifecycleTracer {
        &self.tracer
    }

    /// End-to-end latency (submit → all participants done).
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// Transactions completed with this server as origin.
    pub fn completed(&self) -> u64 {
        self.completed.get()
    }

    /// Transactions this partition participated in.
    pub fn scheduled(&self) -> u64 {
        self.scheduled.get()
    }

    /// Mergeable raw histograms: the six stages in [`Stage::ALL`] order plus
    /// end-to-end latency last (same layout as the ALOHA engine's).
    pub fn raw_histograms(&self) -> [HistogramSnapshot; STAGE_COUNT + 1] {
        let stages = self.tracer.stage_snapshots();
        std::array::from_fn(|i| {
            if i < STAGE_COUNT {
                stages[i].clone()
            } else {
                self.latency.snapshot()
            }
        })
    }

    /// Exports this server's metrics as one node of the unified stats tree.
    pub fn snapshot(&self, name: impl Into<String>) -> StatsSnapshot {
        let mut node = StatsSnapshot::new(name);
        node.set_counter("completed", self.completed());
        node.set_counter("scheduled", self.scheduled());
        for (stage, snap) in Stage::ALL.iter().zip(self.tracer.stage_snapshots()) {
            node.set_stage(stage.name(), StageStats::from(&snap));
        }
        node.set_stage("e2e", StageStats::from(&self.latency.snapshot()));
        node
    }

    /// Clears all metrics.
    pub fn reset(&self) {
        self.tracer.reset();
        self.latency.reset();
        self.completed.reset();
        self.scheduled.reset();
    }
}

/// Events driving the single scheduler thread.
pub(crate) enum SchedulerEvent {
    Batch {
        from: ServerId,
        round: u64,
        txns: Vec<CalvinTxn>,
    },
    Done {
        local_seq: u64,
    },
}

/// A transaction dispatched to an execution worker.
pub(crate) struct ExecTask {
    local_seq: u64,
    txn: CalvinTxn,
    lock_requested_at: Instant,
}

/// One Calvin server process.
pub struct CalvinServer {
    id: ServerId,
    total: u16,
    store: CalvinStore,
    registry: Arc<CalvinRegistry>,
    net: Arc<dyn Transport<CalvinMsg>>,
    exchange: ReadExchange,
    completions: PendingCompletions,
    submissions: Mutex<Vec<CalvinTxn>>,
    next_seq: AtomicU64,
    sched_tx: Sender<SchedulerEvent>,
    exec_tx: Sender<ExecTask>,
    /// Bounded executor whose blocking lane runs distributed transactions
    /// (they park on peer read broadcasts), aligned with the ALOHA engine's
    /// data-plane executor.
    exec: Executor,
    stats: CalvinStats,
    shutdown: AtomicBool,
    rpc_timeout: Duration,
    /// Sealed (round, batch) pairs re-broadcast every tick under faults.
    sealed_rounds: Mutex<VecDeque<(u64, Vec<CalvinTxn>)>>,
    /// Finished executions re-broadcast every tick under faults.
    recent_execs: Mutex<VecDeque<RecentExec>>,
    /// The merged global order, recorded when history recording is on.
    history: Option<Arc<CalvinHistory>>,
    /// Durable log (`None` on an in-memory-only cluster). Seal records go
    /// through it at sequencer ticks, Put records at worker write-back.
    log: Option<Arc<DurableLog>>,
    /// First round this incarnation seals and merges. `0` on a fresh
    /// server; recovered-round + 1 after a restart (earlier rounds are
    /// already reflected in the replayed store and must not re-execute).
    start_round: u64,
    /// Highest round observed in any peer's `Batch`. A restarted sequencer
    /// burst-seals up to this frontier so peer schedulers stalled on this
    /// server's missing rounds unblock within one tick.
    max_peer_round: AtomicU64,
    /// Highest round this server sealed; the checkpoint coordinate.
    last_sealed_round: AtomicU64,
}

impl std::fmt::Debug for CalvinServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CalvinServer")
            .field("id", &self.id)
            .finish()
    }
}

impl CalvinServer {
    pub(crate) fn new(
        id: ServerId,
        total: u16,
        registry: Arc<CalvinRegistry>,
        net: Arc<dyn Transport<CalvinMsg>>,
        exec: Executor,
        history: Option<Arc<CalvinHistory>>,
        wal: Option<CalvinWal>,
    ) -> (
        Arc<CalvinServer>,
        Receiver<SchedulerEvent>,
        Receiver<ExecTask>,
    ) {
        let (sched_tx, sched_rx) = crossbeam::channel::unbounded();
        let (exec_tx, exec_rx) = crossbeam::channel::unbounded();
        let (log, start_round, start_seq, ring, store) = match wal {
            Some(w) => (Some(w.log), w.start_round, w.start_seq, w.ring, w.store),
            None => (None, 0, 0, Vec::new(), CalvinStore::new()),
        };
        let server = Arc::new(CalvinServer {
            id,
            total,
            store,
            registry,
            net,
            exchange: ReadExchange::new(),
            completions: PendingCompletions::new(),
            submissions: Mutex::new(Vec::new()),
            // Resuming past every persisted sequence keeps GlobalTxnIds
            // unique across incarnations: peers have retired the pre-crash
            // ids and silently drop messages that reuse them.
            next_seq: AtomicU64::new(start_seq),
            sched_tx,
            exec_tx,
            exec,
            stats: CalvinStats::default(),
            shutdown: AtomicBool::new(false),
            rpc_timeout: Duration::from_secs(30),
            sealed_rounds: Mutex::new(ring.into()),
            recent_execs: Mutex::new(VecDeque::new()),
            history,
            log,
            start_round,
            max_peer_round: AtomicU64::new(0),
            last_sealed_round: AtomicU64::new(start_round.saturating_sub(1)),
        });
        (server, sched_rx, exec_rx)
    }

    /// Whether loss-recovery re-broadcasts are active: under fault
    /// injection, and on durable clusters (a restarted server depends on
    /// its peers' ring re-broadcasts to recover the rounds it missed while
    /// down, and on its own to unstall peers waiting on its rounds).
    fn resend_enabled(&self) -> bool {
        self.log.is_some() || self.net.fault_plan().is_some()
    }

    /// This server's record of the merged global order (present when history
    /// recording is on).
    pub fn history(&self) -> Option<&Arc<CalvinHistory>> {
        self.history.as_ref()
    }

    /// This server's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// This server's partition store.
    pub fn store(&self) -> &CalvinStore {
        &self.store
    }

    /// This server's durable log, when durability is configured.
    pub fn durable_log(&self) -> Option<&Arc<DurableLog>> {
        self.log.as_ref()
    }

    /// Highest round this server has sealed.
    pub fn last_sealed_round(&self) -> u64 {
        self.last_sealed_round.load(Ordering::Relaxed)
    }

    /// The next local submission sequence number (the checkpoint persists
    /// it so a restart never reuses a `GlobalTxnId`).
    pub(crate) fn next_seq_watermark(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// First round this incarnation seals (non-zero after a restart).
    pub(crate) fn start_round(&self) -> u64 {
        self.start_round
    }

    /// Highest round observed from any peer sequencer.
    pub(crate) fn max_peer_round(&self) -> u64 {
        self.max_peer_round.load(Ordering::Relaxed)
    }

    /// This server's metrics.
    pub fn stats(&self) -> &CalvinStats {
        &self.stats
    }

    /// This server's bounded transaction executor.
    pub fn exec(&self) -> &Executor {
        &self.exec
    }

    /// Instantaneous transaction backlog on this server: submissions waiting
    /// to be sealed, scheduler events not yet merged, and dispatched tasks
    /// not yet picked up by a worker. This is the pressure signal the
    /// control plane's pacer samples.
    pub fn backlog_len(&self) -> u64 {
        self.submissions.lock().len() as u64
            + self.sched_tx.len() as u64
            + self.exec_tx.len() as u64
    }

    /// The server owning `key`.
    pub fn owner_of(&self, key: &Key) -> ServerId {
        ServerId(key.partition(self.total).0)
    }

    pub(crate) fn mark_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.exchange.poison();
        self.completions.fail_all();
    }

    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Submits a transaction to this server's sequencer. The returned handle
    /// resolves when every participant finished executing.
    ///
    /// # Errors
    ///
    /// Returns [`aloha_common::Error::UnknownProgram`] for unregistered
    /// programs.
    pub fn submit(self: &Arc<Self>, program: ProgramId, args: &[u8]) -> Result<CalvinSubmission> {
        let plan_started = Instant::now();
        let plan = self.registry.get(program)?.plan(args);
        self.stats
            .tracer
            .record_stage(Stage::Transform, duration_micros(plan_started.elapsed()));
        let participants = self.participants_of(&plan);
        let id = GlobalTxnId {
            origin: self.id,
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
        };
        let (slot, handle) = reply_pair();
        self.completions.register(id, participants.len(), slot);
        let submitted_at = Instant::now();
        self.submissions.lock().push(CalvinTxn {
            id,
            program,
            args: args.to_vec(),
            submitted_at,
        });
        Ok(CalvinSubmission {
            server: Arc::clone(self),
            handle,
            submitted_at,
        })
    }

    fn participants_of(&self, plan: &crate::program::CalvinPlan) -> Vec<ServerId> {
        let mut participants: Vec<ServerId> = plan.all_keys().map(|k| self.owner_of(k)).collect();
        participants.sort();
        participants.dedup();
        participants
    }

    /// Sequencer tick: seals the current batch for `round` and broadcasts it
    /// to every scheduler (including this server's own).
    ///
    /// Under fault injection the whole ring of recently sealed rounds is
    /// re-broadcast each tick (schedulers drop batches for rounds they
    /// already merged), and so are recently finished executions — together
    /// these recover any dropped `Batch`, `ReadResults` or `TxnDone` within
    /// one tick of the fault clearing.
    pub(crate) fn seal_batch(&self, round: u64) {
        let txns = std::mem::take(&mut *self.submissions.lock());
        // Persist the sealed round before anyone hears about it, then group
        // commit: the batch is Calvin's epoch, so one flush/fsync per round
        // mirrors the ALOHA engine's epoch group commit.
        if let Some(log) = &self.log {
            let record = CalvinWalRecord::Seal {
                round,
                txns: txns.clone(),
            };
            let _ = log.append(record.version(), &record.encode());
            let _ = log.commit();
        }
        self.last_sealed_round.fetch_max(round, Ordering::Relaxed);
        if !self.resend_enabled() {
            for i in 0..self.total {
                let msg = CalvinMsg::Batch {
                    from: self.id,
                    round,
                    txns: txns.clone(),
                };
                let _ = self.net.send(Addr::Server(ServerId(i)), msg);
            }
            return;
        }
        let ring: Vec<(u64, Vec<CalvinTxn>)> = {
            let mut sealed = self.sealed_rounds.lock();
            sealed.push_back((round, txns));
            if sealed.len() > SEALED_ROUNDS_RING {
                sealed.pop_front();
            }
            sealed.iter().cloned().collect()
        };
        for (r, t) in &ring {
            for i in 0..self.total {
                let msg = CalvinMsg::Batch {
                    from: self.id,
                    round: *r,
                    txns: t.clone(),
                };
                let _ = self.net.send(Addr::Server(ServerId(i)), msg);
            }
        }
        self.resend_recent_execs();
    }

    /// Re-sends `ReadResults` and `TxnDone` for recently finished
    /// executions. Receivers dedup (exchange per peer, completions per
    /// participant) and drop messages for retired transactions, so
    /// re-sending is always safe.
    fn resend_recent_execs(&self) {
        let recents = self.recent_execs.lock();
        for exec in recents.iter() {
            for &peer in &exec.others {
                let _ = self.net.send(
                    Addr::Server(peer),
                    CalvinMsg::ReadResults {
                        txn: exec.txn,
                        from: self.id,
                        values: exec.values.clone(),
                    },
                );
            }
            if exec.txn.origin != self.id {
                let _ = self.net.send(
                    Addr::Server(exec.txn.origin),
                    CalvinMsg::TxnDone {
                        txn: exec.txn,
                        from: self.id,
                    },
                );
            }
        }
    }

    /// Remembers a finished execution for fault-recovery re-broadcast.
    fn remember_exec(&self, exec: RecentExec) {
        let mut recents = self.recent_execs.lock();
        recents.push_back(exec);
        if recents.len() > RECENT_EXECS_RING {
            recents.pop_front();
        }
    }
}

/// A submitted Calvin transaction; resolves on full completion.
#[derive(Debug)]
pub struct CalvinSubmission {
    server: Arc<CalvinServer>,
    handle: ReplyHandle<()>,
    submitted_at: Instant,
}

impl CalvinSubmission {
    /// Blocks until every participant executed the transaction.
    ///
    /// # Errors
    ///
    /// Fails if the cluster shut down before completion.
    pub fn wait(self) -> Result<()> {
        let wait_started = Instant::now();
        self.handle.wait_timeout(self.server.rpc_timeout)?;
        let total_micros = duration_micros(self.submitted_at.elapsed());
        let commit_micros = duration_micros(wait_started.elapsed());
        self.server.stats.latency.record(total_micros);
        self.server.stats.completed.incr();
        self.server
            .stats
            .tracer
            .record_stage(Stage::Commit, commit_micros);
        // The origin's trace carries the stages it observes directly; the
        // scheduler/worker stages are recorded by whichever participant runs
        // them (aggregate histograms only), mirroring the ALOHA engine's
        // FE/BE split.
        let mut stage_micros = [0u64; STAGE_COUNT];
        stage_micros[Stage::Commit.index()] = commit_micros;
        self.server.stats.tracer.record_trace(TxnTrace {
            stage_micros,
            total_micros,
            committed: true,
        });
        Ok(())
    }
}

/// Dispatcher thread: routes transport messages.
pub(crate) fn run_dispatcher(server: Arc<CalvinServer>, endpoint: Endpoint<CalvinMsg>) {
    while let Ok(msg) = endpoint.recv() {
        match msg {
            CalvinMsg::Batch { from, round, txns } => {
                if from != server.id {
                    server.max_peer_round.fetch_max(round, Ordering::Relaxed);
                }
                let _ = server
                    .sched_tx
                    .send(SchedulerEvent::Batch { from, round, txns });
            }
            CalvinMsg::ReadResults { txn, from, values } => {
                server.exchange.deliver(txn, from, values);
            }
            CalvinMsg::TxnDone { txn, from } => {
                server.completions.done(txn, from);
            }
            CalvinMsg::Shutdown => break,
        }
    }
}

/// Sequencer thread: seals a batch every round, asking the pacer for each
/// round's duration first (a [`aloha_control::FixedPacer`] reproduces the
/// paper's constant 20 ms batches; an adaptive pacer steers the duration
/// from live backlog pressure). Sealing starts once `start_latch`
/// disconnects, when every peer can receive the batches.
pub(crate) fn run_sequencer(
    server: Arc<CalvinServer>,
    mut pacer: Box<dyn Pacer>,
    start_latch: Receiver<()>,
) {
    let _ = start_latch.recv();
    let mut round = server.start_round();
    while !server.is_shutdown() {
        std::thread::sleep(pacer.next_duration());
        let seal_started = Instant::now();
        // Burst catch-up: peers kept sealing while this server was down, and
        // every scheduler in the cluster stalls until this server's batches
        // for those rounds exist. Sealing one round per tick would leave the
        // whole pipeline a dead-window behind forever; sealing up to the
        // observed peer frontier in one burst closes the gap immediately
        // (the burst rounds are empty — fresh submissions ride the last).
        let frontier = server.max_peer_round();
        while round < frontier && !server.is_shutdown() {
            server.seal_batch(round);
            round += 1;
        }
        server.seal_batch(round);
        // Sealing + broadcasting is the sequencer's switch overhead.
        pacer.observe_switch(seal_started.elapsed());
        round += 1;
    }
}

/// State of one transaction while it owns or awaits locks.
struct ActiveTxn {
    txn: CalvinTxn,
    lock_keys: Vec<(Key, LockMode)>,
    pending_locks: usize,
    lock_requested_at: Instant,
}

/// Scheduler thread: merges batches deterministically and drives the
/// single-threaded lock manager.
pub(crate) fn run_scheduler(server: Arc<CalvinServer>, events: Receiver<SchedulerEvent>) {
    let mut locks = LockManager::new();
    let mut rounds: HashMap<u64, HashMap<ServerId, Vec<CalvinTxn>>> = HashMap::new();
    // A restarted scheduler must not re-merge rounds the replayed store
    // already reflects: re-executing them would double-apply writes and
    // block on read broadcasts no peer will re-send.
    let mut next_round = server.start_round();
    let mut next_local_seq = 0u64;
    let mut active: HashMap<u64, ActiveTxn> = HashMap::new();

    while let Some(event) =
        aloha_net::recv_while(&events, Duration::from_millis(50), || !server.is_shutdown())
    {
        match event {
            SchedulerEvent::Batch { from, round, txns } => {
                // Already-merged rounds re-arrive as fault-layer duplicates
                // and recovery re-broadcasts; dropping them keeps the rounds
                // map from accumulating stale entries.
                if round < next_round {
                    continue;
                }
                rounds.entry(round).or_default().insert(from, txns);
                // Merge every complete round in order.
                while rounds
                    .get(&next_round)
                    .is_some_and(|r| r.len() == server.total as usize)
                {
                    let mut batches = rounds.remove(&next_round).expect("checked above");
                    for origin in 0..server.total {
                        let Some(txns) = batches.remove(&ServerId(origin)) else {
                            continue;
                        };
                        for txn in txns {
                            // Record the merged global order before the
                            // participant filter: every server's history
                            // holds the full deterministic schedule.
                            if let Some(log) = &server.history {
                                log.record(txn.clone());
                            }
                            schedule_txn(
                                &server,
                                &mut locks,
                                &mut active,
                                &mut next_local_seq,
                                txn,
                            );
                        }
                    }
                    next_round += 1;
                }
            }
            SchedulerEvent::Done { local_seq } => {
                let Some(entry) = active.remove(&local_seq) else {
                    continue;
                };
                for (key, _) in &entry.lock_keys {
                    for granted in locks.release(local_seq, key) {
                        if let Some(waiter) = active.get_mut(&granted) {
                            waiter.pending_locks -= 1;
                            if waiter.pending_locks == 0 {
                                dispatch(&server, granted, waiter);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Requests a merged transaction's local locks; dispatches it if all granted.
fn schedule_txn(
    server: &Arc<CalvinServer>,
    locks: &mut LockManager,
    active: &mut HashMap<u64, ActiveTxn>,
    next_local_seq: &mut u64,
    txn: CalvinTxn,
) {
    let plan = match server.registry.get(txn.program) {
        Ok(p) => p.plan(&txn.args),
        Err(_) => return, // unknown program: sequenced by a misconfigured peer
    };
    // Local lock set: keys this partition owns; write mode wins duplicates.
    let mut modes: HashMap<Key, LockMode> = HashMap::new();
    for key in &plan.read_set {
        if server.owner_of(key) == server.id {
            modes.entry(key.clone()).or_insert(LockMode::Read);
        }
    }
    for key in &plan.write_set {
        if server.owner_of(key) == server.id {
            modes.insert(key.clone(), LockMode::Write);
        }
    }
    if modes.is_empty() {
        return; // not a participant
    }
    server.stats.scheduled.incr();
    // Submit → deterministic merge: Calvin's analogue of the timestamp grant
    // (the sequencer round assigns the transaction's serialization slot).
    server.stats.tracer.record_stage(
        Stage::TimestampGrant,
        duration_micros(txn.submitted_at.elapsed()),
    );

    let local_seq = *next_local_seq;
    *next_local_seq += 1;
    let lock_keys: Vec<(Key, LockMode)> = modes.into_iter().collect();
    let mut pending = 0usize;
    for (key, mode) in &lock_keys {
        if !locks.acquire(local_seq, key, *mode) {
            pending += 1;
        }
    }
    let entry = ActiveTxn {
        txn,
        lock_keys,
        pending_locks: pending,
        lock_requested_at: Instant::now(),
    };
    let ready = entry.pending_locks == 0;
    active.insert(local_seq, entry);
    if ready {
        let entry = active.get(&local_seq).expect("just inserted");
        dispatch(server, local_seq, entry);
    }
}

fn dispatch(server: &Arc<CalvinServer>, local_seq: u64, entry: &ActiveTxn) {
    let _ = server.exec_tx.send(ExecTask {
        local_seq,
        txn: entry.txn.clone(),
        lock_requested_at: entry.lock_requested_at,
    });
}

/// Execution worker thread: redundant execution with read broadcast.
///
/// Single-partition transactions run inline. Distributed transactions block
/// on the peers' read broadcasts, and the set of granted-but-blocked
/// transactions is unbounded (it depends on lock-grant interleaving across
/// partitions), so running them on this pool could deadlock it; they go to
/// the executor's blocking lane instead, whose claim-ticket spillover
/// guarantees a blocked submission never waits behind a blocked worker —
/// the bounded version of the dedicated-thread-per-blocking-read approach
/// Calvin implementations use.
pub(crate) fn run_worker(server: Arc<CalvinServer>, tasks: Receiver<ExecTask>) {
    while let Some(task) =
        aloha_net::recv_while(&tasks, Duration::from_millis(50), || !server.is_shutdown())
    {
        if is_distributed(&server, &task) {
            let s = Arc::clone(&server);
            server.exec.submit_blocking(move || execute_txn(&s, task));
        } else {
            execute_txn(&server, task);
        }
    }
}

fn is_distributed(server: &Arc<CalvinServer>, task: &ExecTask) -> bool {
    let Ok(program) = server.registry.get(task.txn.program) else {
        return false;
    };
    let plan = program.plan(&task.txn.args);
    let distributed = plan.all_keys().any(|k| server.owner_of(k) != server.id);
    distributed
}

fn execute_txn(server: &Arc<CalvinServer>, task: ExecTask) {
    let Ok(program) = server.registry.get(task.txn.program) else {
        return;
    };
    // Lock request → all locks granted and dispatched: Calvin's analogue of
    // the functor-install stage (making the writes' slots durable in order).
    server.stats.tracer.record_stage(
        Stage::FunctorInstall,
        duration_micros(task.lock_requested_at.elapsed()),
    );
    let plan = program.plan(&task.txn.args);
    let participants = {
        let mut p: Vec<ServerId> = plan.all_keys().map(|k| server.owner_of(k)).collect();
        p.sort();
        p.dedup();
        p
    };

    // Read the local portion of the read set and broadcast it to the other
    // participants (each of which redundantly executes the procedure).
    let mut local_values: Vec<(Key, Option<Value>)> = Vec::new();
    for key in &plan.read_set {
        if server.owner_of(key) == server.id {
            local_values.push((key.clone(), server.store.get(key)));
        }
    }
    let others: Vec<ServerId> = participants
        .iter()
        .copied()
        .filter(|&p| p != server.id)
        .collect();
    let broadcast_reads = |srv: &CalvinServer| {
        for &peer in &others {
            let _ = srv.net.send(
                Addr::Server(peer),
                CalvinMsg::ReadResults {
                    txn: task.txn.id,
                    from: srv.id,
                    values: local_values.clone(),
                },
            );
        }
    };
    let exchange_started = Instant::now();
    broadcast_reads(server);
    // Under fault injection the broadcast may be dropped on any link, so
    // wait in short slices and re-broadcast between them (the exchange keeps
    // partial deliveries across timeouts and dedups per peer). On a reliable
    // transport a single full-timeout wait is used unchanged.
    let slice = if server.resend_enabled() {
        Duration::from_millis(10).min(server.rpc_timeout)
    } else {
        server.rpc_timeout
    };
    let mut waited = Duration::ZERO;
    let remote_values = loop {
        match server.exchange.wait(task.txn.id, others.len(), slice) {
            Some(v) => break Some(v),
            None => {
                waited += slice;
                if waited >= server.rpc_timeout || server.is_shutdown() {
                    break None;
                }
                broadcast_reads(server);
            }
        }
    };
    let remote_values = match remote_values {
        Some(v) => v,
        None => {
            // Shutdown or a lost peer: release locks and bail out.
            server.exchange.abandon(task.txn.id);
            let _ = server.sched_tx.send(SchedulerEvent::Done {
                local_seq: task.local_seq,
            });
            return;
        }
    };
    let mut reads: HashMap<Key, Option<Value>> = HashMap::new();
    for (k, v) in local_values.iter().cloned().chain(remote_values) {
        reads.insert(k, v);
    }
    // The read-exchange barrier (waiting for every participant's reads) is
    // Calvin's analogue of waiting for the epoch to close.
    server.stats.tracer.record_stage(
        Stage::EpochClose,
        duration_micros(exchange_started.elapsed()),
    );

    // Execute the stored procedure (redundantly, as every participant does)
    // and apply only the local writes.
    let exec_started = Instant::now();
    let mut writes = Vec::new();
    program.execute(&task.txn.args, &reads, &mut writes);
    // Write-back happens while this transaction still holds its write
    // locks, so appending the Put records here (one atomic batch) keeps
    // per-key log order equal to per-key lock order — replay is then a
    // last-write-wins sweep. A closed log (this server being killed) drops
    // the batch whole, never half of it.
    let mut frames = Vec::new();
    for (key, value) in writes {
        if server.owner_of(&key) == server.id {
            if server.log.is_some() {
                let record = CalvinWalRecord::Put {
                    key: key.clone(),
                    value: value.clone(),
                };
                frames.push((record.version(), record.encode()));
            }
            server.store.put(key, value);
        }
    }
    if let Some(log) = &server.log {
        if !frames.is_empty() {
            let _ = log.append_batch(&frames);
        }
    }
    server.stats.tracer.record_stage(
        Stage::FunctorComputing,
        duration_micros(exec_started.elapsed()),
    );

    let _ = server.sched_tx.send(SchedulerEvent::Done {
        local_seq: task.local_seq,
    });
    if task.txn.id.origin == server.id {
        server.completions.done(task.txn.id, server.id);
    } else {
        let _ = server.net.send(
            Addr::Server(task.txn.id.origin),
            CalvinMsg::TxnDone {
                txn: task.txn.id,
                from: server.id,
            },
        );
    }
    if server.resend_enabled() {
        // An asymmetric drop may have cost a *peer* this execution's
        // broadcasts even though we finished; keep the execution around so
        // the sequencer tick re-sends it until it ages out of the ring.
        server.remember_exec(RecentExec {
            txn: task.txn.id,
            others,
            values: local_values,
        });
    }
}
