//! Write-ahead logging of the write-only phase.
//!
//! Together with [`crate::snapshot`], this implements the logging half of
//! the ALOHA-KV fault-tolerance strategy the paper says ALOHA-DB can
//! leverage (§III-A): every install and rollback of the write-only phase is
//! appended as a self-describing record. Recovery = restore the latest
//! checkpoint, then replay the log suffix; functors re-compute
//! deterministically, so the computing phase needs no logging at all — one
//! of the perks of storing *operations* instead of values.
//!
//! The log targets any `std::io::Write`; tests use an in-memory buffer, a
//! production deployment would use an fsync'd file.

use aloha_common::codec::{Reader, Writer, LEN_PREFIX_BYTES};
use aloha_common::{Error, Key, Result, Timestamp};
use aloha_functor::{Functor, HandlerId, UserFunctor};

use crate::partition::Partition;

/// One logged event of the write-only phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A functor install (idempotent on replay).
    Install {
        /// The written key.
        key: Key,
        /// The transaction's version.
        version: Timestamp,
        /// The installed functor.
        functor: Functor,
    },
    /// A coordinator rollback (second abort round).
    Abort {
        /// The aborted key.
        key: Key,
        /// The aborted version.
        version: Timestamp,
    },
}

const TAG_INSTALL: u8 = 1;
const TAG_ABORT: u8 = 2;

const F_VALUE: u8 = 1;
const F_ABORTED: u8 = 2;
const F_DELETED: u8 = 3;
const F_ADD: u8 = 4;
const F_SUBTR: u8 = 5;
const F_MAX: u8 = 6;
const F_MIN: u8 = 7;
const F_USER: u8 = 8;

/// Serializes a functor into a writer (wire format for the log).
pub fn encode_functor(w: &mut Writer, functor: &Functor) {
    match functor {
        Functor::Value(v) => {
            w.put_u8(F_VALUE);
            w.put_bytes(v.as_bytes());
        }
        Functor::Aborted => {
            w.put_u8(F_ABORTED);
        }
        Functor::Deleted => {
            w.put_u8(F_DELETED);
        }
        Functor::Add(d) => {
            w.put_u8(F_ADD);
            w.put_i64(*d);
        }
        Functor::Subtr(d) => {
            w.put_u8(F_SUBTR);
            w.put_i64(*d);
        }
        Functor::Max(d) => {
            w.put_u8(F_MAX);
            w.put_i64(*d);
        }
        Functor::Min(d) => {
            w.put_u8(F_MIN);
            w.put_i64(*d);
        }
        Functor::User(u) => {
            w.put_u8(F_USER);
            w.put_u32(u.handler.0);
            w.put_u32(u.read_set.len() as u32);
            for k in &u.read_set {
                w.put_bytes(k.as_bytes());
            }
            w.put_bytes(&u.args);
            w.put_u32(u.recipient_set.len() as u32);
            for k in &u.recipient_set {
                w.put_bytes(k.as_bytes());
            }
        }
    }
}

/// Deserializes a functor.
///
/// # Errors
///
/// Returns [`Error::Codec`] for malformed payloads.
pub fn decode_functor(r: &mut Reader<'_>) -> Result<Functor> {
    Ok(match r.get_u8()? {
        F_VALUE => Functor::Value(aloha_common::Value::from(r.get_bytes_shared()?)),
        F_ABORTED => Functor::Aborted,
        F_DELETED => Functor::Deleted,
        F_ADD => Functor::Add(r.get_i64()?),
        F_SUBTR => Functor::Subtr(r.get_i64()?),
        F_MAX => Functor::Max(r.get_i64()?),
        F_MIN => Functor::Min(r.get_i64()?),
        F_USER => {
            let handler = HandlerId(r.get_u32()?);
            let nr = r.get_u32()?;
            let mut read_set = Vec::with_capacity(r.capacity_for(nr, LEN_PREFIX_BYTES));
            for _ in 0..nr {
                read_set.push(Key::from(r.get_bytes_shared()?));
            }
            let args = r.get_bytes_shared()?;
            let np = r.get_u32()?;
            let mut recipients = Vec::with_capacity(r.capacity_for(np, LEN_PREFIX_BYTES));
            for _ in 0..np {
                recipients.push(Key::from(r.get_bytes_shared()?));
            }
            Functor::User(UserFunctor::new(handler, read_set, args).with_recipients(recipients))
        }
        other => return Err(Error::Codec(format!("unknown functor tag {other}"))),
    })
}

impl WalRecord {
    /// The transaction version this record carries — the ordering key the
    /// durable log uses for checkpoint truncation.
    pub fn version(&self) -> Timestamp {
        match self {
            WalRecord::Install { version, .. } | WalRecord::Abort { version, .. } => *version,
        }
    }

    /// The key this record touches.
    pub fn key(&self) -> &Key {
        match self {
            WalRecord::Install { key, .. } | WalRecord::Abort { key, .. } => key,
        }
    }

    /// Appends this record to the durable log, keyed by its version.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::durable::DurableLog::append`] failures — notably
    /// `ShuttingDown` once the log is closed, which the caller must treat
    /// as a failed (not silently lost) install.
    pub fn append_durable(&self, log: &crate::durable::DurableLog) -> Result<()> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        log.append(self.version().raw(), &buf)
    }

    /// Appends this record to `out` (length-prefixed frame).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = Writer::new();
        match self {
            WalRecord::Install {
                key,
                version,
                functor,
            } => {
                w.put_u8(TAG_INSTALL);
                w.put_bytes(key.as_bytes());
                w.put_u64(version.raw());
                encode_functor(&mut w, functor);
            }
            WalRecord::Abort { key, version } => {
                w.put_u8(TAG_ABORT);
                w.put_bytes(key.as_bytes());
                w.put_u64(version.raw());
            }
        }
        let frame = w.into_bytes();
        out.extend_from_slice(&(frame.len() as u32).to_be_bytes());
        out.extend_from_slice(&frame);
    }

    fn decode(frame: &[u8]) -> Result<WalRecord> {
        let mut r = Reader::new(frame);
        match r.get_u8()? {
            TAG_INSTALL => Ok(WalRecord::Install {
                key: Key::from(r.get_bytes()?),
                version: Timestamp::from_raw(r.get_u64()?),
                functor: decode_functor(&mut r)?,
            }),
            TAG_ABORT => Ok(WalRecord::Abort {
                key: Key::from(r.get_bytes()?),
                version: Timestamp::from_raw(r.get_u64()?),
            }),
            other => Err(Error::Codec(format!("unknown wal record tag {other}"))),
        }
    }
}

/// Iterates over the records of an encoded log.
///
/// # Errors
///
/// The iterator yields [`Error::Codec`] on a truncated or corrupt frame and
/// then stops.
pub fn read_log(buf: &[u8]) -> impl Iterator<Item = Result<WalRecord>> + '_ {
    let mut offset = 0usize;
    let mut failed = false;
    std::iter::from_fn(move || {
        if failed || offset >= buf.len() {
            return None;
        }
        if buf.len() - offset < 4 {
            failed = true;
            return Some(Err(Error::Codec("truncated wal frame header".into())));
        }
        let len = u32::from_be_bytes(buf[offset..offset + 4].try_into().expect("checked")) as usize;
        offset += 4;
        if buf.len() - offset < len {
            failed = true;
            return Some(Err(Error::Codec("truncated wal frame body".into())));
        }
        let frame = &buf[offset..offset + len];
        offset += len;
        Some(WalRecord::decode(frame))
    })
}

/// Replays a log into a partition, skipping records at or below
/// `checkpoint` (already covered by the restored snapshot). Returns the
/// number of records applied and the highest version applied
/// ([`Timestamp::ZERO`] when the suffix was empty), so recovery can extend
/// read visibility over the replayed state.
///
/// # Errors
///
/// Returns [`Error::Codec`] on a corrupt log.
pub fn replay_log(
    partition: &Partition,
    buf: &[u8],
    checkpoint: Timestamp,
) -> Result<(usize, Timestamp)> {
    let mut applied = 0;
    let mut high = Timestamp::ZERO;
    for record in read_log(buf) {
        match record? {
            WalRecord::Install {
                key,
                version,
                functor,
            } => {
                if version > checkpoint {
                    partition.store().put(&key, version, functor);
                    applied += 1;
                    high = high.max(version);
                }
            }
            WalRecord::Abort { key, version } => {
                if version > checkpoint {
                    partition.abort_version(&key, version);
                    applied += 1;
                    high = high.max(version);
                }
            }
        }
    }
    Ok((applied, high))
}

/// Replays decoded records into a partition, skipping versions at or below
/// `checkpoint`. Returns the number of records applied. Replay is
/// idempotent: installs are first-write-wins puts (final forms settle an
/// existing pending record in place — see below) and aborts pre-insert
/// `ABORTED`, so applying the same suffix twice is a no-op.
pub fn apply_records(partition: &Partition, records: &[WalRecord], checkpoint: Timestamp) -> usize {
    let mut applied = 0;
    for record in records {
        if record.version() <= checkpoint {
            continue;
        }
        match record {
            WalRecord::Install {
                key,
                version,
                functor,
            } => {
                if functor.is_final() {
                    // A duplicate delivery (catch-up overlap between the WAL
                    // snapshot and a shipped final-form frame) may find this
                    // version already present as a pending functor. The
                    // final form is the version's deterministic outcome —
                    // settle the record rather than discard the outcome and
                    // leave it uncomputable once a watermark covers it.
                    partition
                        .store()
                        .chain_or_create(key)
                        .settle_at(*version, functor.clone());
                } else {
                    partition.store().put(key, *version, functor.clone());
                }
            }
            WalRecord::Abort { key, version } => {
                partition.abort_version(key, *version);
            }
        }
        applied += 1;
    }
    applied
}

/// Decodes and replays payloads recovered from a [`crate::durable::DurableLog`]
/// (each payload holding one encoded frame) into a partition, skipping
/// records at or below `checkpoint`. Returns the number applied.
///
/// # Errors
///
/// Returns [`Error::Codec`] if a payload does not decode — the durable log's
/// checksums make this a bug, not an expected crash artifact.
pub fn replay_records(
    partition: &Partition,
    payloads: &[(u64, Vec<u8>)],
    checkpoint: Timestamp,
) -> Result<usize> {
    let mut decoded = Vec::with_capacity(payloads.len());
    for (_, payload) in payloads {
        for record in read_log(payload) {
            decoded.push(record?);
        }
    }
    Ok(apply_records(partition, &decoded, checkpoint))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::LocalOnlyEnv;
    use aloha_common::{PartitionId, Value};
    use aloha_functor::{ComputeInput, HandlerOutput, HandlerRegistry};
    use std::sync::Arc;

    fn ts(v: u64) -> Timestamp {
        Timestamp::from_raw(v)
    }

    #[test]
    fn functor_codec_round_trips_every_variant() {
        let variants = vec![
            Functor::Value(Value::from_i64(9)),
            Functor::Aborted,
            Functor::Deleted,
            Functor::Add(-3),
            Functor::Subtr(7),
            Functor::Max(i64::MAX),
            Functor::Min(i64::MIN),
            Functor::User(
                UserFunctor::new(
                    HandlerId(5),
                    vec![Key::from("a"), Key::from("b")],
                    vec![1, 2, 3],
                )
                .with_recipients(vec![Key::from("c")]),
            ),
        ];
        for f in variants {
            let mut w = Writer::new();
            encode_functor(&mut w, &f);
            let buf = w.into_bytes();
            let mut r = Reader::new(&buf);
            assert_eq!(decode_functor(&mut r).unwrap(), f);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn log_round_trips_record_sequences() {
        let records = vec![
            WalRecord::Install {
                key: Key::from("x"),
                version: ts(10),
                functor: Functor::add(1),
            },
            WalRecord::Abort {
                key: Key::from("x"),
                version: ts(10),
            },
            WalRecord::Install {
                key: Key::from("y"),
                version: ts(11),
                functor: Functor::value_i64(5),
            },
        ];
        let mut buf = Vec::new();
        for r in &records {
            r.encode_into(&mut buf);
        }
        let decoded: Vec<WalRecord> = read_log(&buf).collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(decoded, records);
    }

    #[test]
    fn truncated_log_reports_error_once() {
        let mut buf = Vec::new();
        WalRecord::Abort {
            key: Key::from("x"),
            version: ts(1),
        }
        .encode_into(&mut buf);
        buf.truncate(buf.len() - 2);
        let results: Vec<_> = read_log(&buf).collect();
        assert_eq!(results.len(), 1);
        assert!(results[0].is_err());
    }

    #[test]
    fn recovery_replays_suffix_after_checkpoint() {
        // Build a "primary": values + functors, some before a checkpoint,
        // some after; log everything.
        let registry = Arc::new(HandlerRegistry::new());
        let primary = Partition::new(PartitionId(0), 1, Arc::clone(&registry));
        let key = Key::from("acct");
        let mut log = Vec::new();
        let mut log_install = |k: &Key, v: Timestamp, f: Functor| {
            WalRecord::Install {
                key: k.clone(),
                version: v,
                functor: f.clone(),
            }
            .encode_into(&mut log);
            primary.install(k, v, f).unwrap();
        };
        log_install(&key, ts(10), Functor::value_i64(100));
        log_install(&key, ts(20), Functor::add(50));
        // ---- checkpoint at 25 ----
        let checkpoint_blob =
            crate::snapshot::write_checkpoint(&primary, ts(25), &LocalOnlyEnv).unwrap();
        log_install(&key, ts(30), Functor::subtr(30));
        log_install(&key, ts(40), Functor::add(7));
        WalRecord::Abort {
            key: key.clone(),
            version: ts(40),
        }
        .encode_into(&mut log);
        primary.abort_version(&key, ts(40));

        // Recover: snapshot + replay of the suffix.
        let recovered = Partition::new(PartitionId(0), 1, registry);
        let at = crate::snapshot::restore_checkpoint(&recovered, &checkpoint_blob).unwrap();
        let (applied, high) = replay_log(&recovered, &log, at).unwrap();
        assert_eq!(applied, 3, "two post-checkpoint installs + one abort");
        assert_eq!(high, ts(40), "highest replayed version is reported");

        let expected = primary.get(&key, Timestamp::MAX, &LocalOnlyEnv).unwrap();
        let got = recovered.get(&key, Timestamp::MAX, &LocalOnlyEnv).unwrap();
        assert_eq!(got.value, expected.value);
        assert_eq!(got.value.unwrap().as_i64(), Some(120)); // 100+50-30, 40 aborted
    }

    #[test]
    fn replayed_user_functors_recompute_deterministically() {
        // Functors (not values!) are logged; recovery recomputes them with
        // the same handlers and must reach the same result.
        let mut registry = HandlerRegistry::new();
        registry.register(HandlerId(1), |input: &ComputeInput<'_>| {
            let v = input.reads.i64(input.key).unwrap_or(0);
            HandlerOutput::commit(Value::from_i64(v * 3))
        });
        let registry = Arc::new(registry);
        let primary = Partition::new(PartitionId(0), 1, Arc::clone(&registry));
        let key = Key::from("k");
        let mut log = Vec::new();
        for (v, f) in [
            (ts(1), Functor::value_i64(2)),
            (
                ts(2),
                Functor::User(UserFunctor::new(
                    HandlerId(1),
                    vec![key.clone()],
                    Vec::new(),
                )),
            ),
            (
                ts(3),
                Functor::User(UserFunctor::new(
                    HandlerId(1),
                    vec![key.clone()],
                    Vec::new(),
                )),
            ),
        ] {
            WalRecord::Install {
                key: key.clone(),
                version: v,
                functor: f.clone(),
            }
            .encode_into(&mut log);
            primary.install(&key, v, f).unwrap();
        }
        let recovered = Partition::new(PartitionId(0), 1, registry);
        replay_log(&recovered, &log, Timestamp::ZERO).unwrap();
        let got = recovered.get(&key, Timestamp::MAX, &LocalOnlyEnv).unwrap();
        assert_eq!(got.value.unwrap().as_i64(), Some(18)); // 2*3*3
    }
}
