//! The append-only run ledger.
//!
//! Every finished trial — successful, diverged, failed, or timed out — is
//! appended to a JSONL file as one self-describing record carrying the
//! trial key, the full canonical spec, the outcome, wall time, and the
//! metric suite. On restart, [`Ledger::open`] replays the file and later
//! records win per key, so:
//!
//! - a completed sweep re-run against the same ledger performs **zero
//!   training** (every trial is served from the ledger), and
//! - an interrupted sweep resumes mid-grid: settled trials load, pending
//!   ones train, and the final aggregates are bitwise identical to an
//!   uninterrupted run (training is deterministic in the spec, and
//!   aggregation iterates in grid order, not ledger order).
//!
//! A record whose line was cut short by a crash mid-append fails to parse
//! and is dropped on replay — the trial simply re-runs. [`TrialOutcome`]
//! encodes the resume policy per outcome: `ok`, `diverged`, and `timeout`
//! are settled; `failed` (a panic) is retried on the next resume.
//!
//! **Multi-writer safety** (the worker-fleet mode, DESIGN.md §12): every
//! append is one `O_APPEND` `write_all` of a single `\n`-terminated line,
//! which POSIX serializes per call, so concurrent workers interleave at
//! line granularity and replay never sees a torn *read*. A crash can still
//! leave a torn *write* — an unterminated fragment at end of file — so the
//! ledger distinguishes an unterminated [`torn tail`](Ledger::torn_tail_len)
//! from [`malformed`](Ledger::malformed_lines) interior lines, and
//! [`Ledger::append`] *seals* any fragment with a leading newline before
//! writing, turning the dead writer's fragment into one malformed line
//! instead of corrupting the next record. [`Ledger::refresh`] picks up
//! records appended by other processes incrementally (re-replaying from
//! scratch if the file shrank or vanished).

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use ct_tensor::codec::sync_parent_dir;

use crate::json::{self, Json};
use crate::spec::TrialSpec;

/// How a trial ended.
#[derive(Clone, Debug, PartialEq)]
pub enum TrialOutcome {
    /// Trained and evaluated normally; metrics are present.
    Ok,
    /// Training diverged (every batch of an epoch dropped, or halted on a
    /// non-finite loss). Settled: recorded with no metrics and excluded
    /// from aggregates, or superseded by a fallback-seed retry when the
    /// scheduler's divergence policy asks for one.
    Diverged {
        /// Human-readable description of the divergence.
        detail: String,
    },
    /// The trial panicked. Re-run on the next resume (panics may be
    /// environmental); a deterministic panic re-records `failed` each time.
    Failed {
        /// The panic payload, stringified.
        message: String,
    },
    /// The trial exceeded the scheduler's soft wall-clock budget. The
    /// result is discarded and the trial is settled as timed out; see
    /// `SchedulerConfig::timeout_ms` for the determinism trade-off.
    TimedOut {
        /// The budget that was exceeded, in milliseconds.
        budget_ms: u64,
    },
}

impl TrialOutcome {
    /// Stable identifier stored in the ledger.
    pub fn id(&self) -> &'static str {
        match self {
            TrialOutcome::Ok => "ok",
            TrialOutcome::Diverged { .. } => "diverged",
            TrialOutcome::Failed { .. } => "failed",
            TrialOutcome::TimedOut { .. } => "timeout",
        }
    }

    /// Whether a record with this outcome is terminal for resume purposes
    /// (not re-run when its trial appears in a future grid).
    pub fn is_settled(&self) -> bool {
        !matches!(self, TrialOutcome::Failed { .. })
    }

    /// Whether metrics from this record contribute to aggregates.
    pub fn is_ok(&self) -> bool {
        matches!(self, TrialOutcome::Ok)
    }
}

/// One reported topic: its test-NPMI score and top words (Tables IV–VI).
#[derive(Clone, Debug, PartialEq)]
pub struct TopicRecord {
    /// Mean pairwise NPMI of the topic's top words.
    pub npmi: f64,
    /// The topic's highest-probability words.
    pub words: Vec<String>,
}

/// One ledger entry: a finished trial with its spec, outcome and metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct TrialRecord {
    /// Content hash of `spec` — the trial key.
    pub key: String,
    /// The full spec, embedded so the ledger is self-describing.
    pub spec: TrialSpec,
    /// How the trial ended.
    pub outcome: TrialOutcome,
    /// 0 for a first run; `n` for the n-th fallback-seed retry.
    pub attempt: u32,
    /// The seed actually trained when a divergence retry succeeded with a
    /// fallback seed (the record stays under the original trial key).
    pub fallback_seed: Option<u64>,
    /// Wall-clock time of the training + evaluation, milliseconds. Not
    /// deterministic; excluded from aggregate artifacts.
    pub wall_ms: u64,
    /// Diverged batches dropped during training (PR 2's skip policy).
    pub skipped_batches: u64,
    /// Named scalar metrics (sorted keys; deterministic).
    pub metrics: BTreeMap<String, f64>,
    /// Top topics by test NPMI, for the case-study tables.
    pub topics: Vec<TopicRecord>,
}

impl TrialRecord {
    /// Render as one ledger line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push_str("{\"v\":1,\"key\":\"");
        s.push_str(&self.key);
        s.push_str("\",\"spec\":");
        s.push_str(&self.spec.canonical());
        s.push_str(",\"outcome\":\"");
        s.push_str(self.outcome.id());
        s.push('"');
        match &self.outcome {
            TrialOutcome::Diverged { detail } => {
                s.push_str(",\"detail\":");
                s.push_str(&Json::Str(detail.clone()).emit());
            }
            TrialOutcome::Failed { message } => {
                s.push_str(",\"detail\":");
                s.push_str(&Json::Str(message.clone()).emit());
            }
            TrialOutcome::TimedOut { budget_ms } => {
                s.push_str(&format!(",\"budget_ms\":{budget_ms}"));
            }
            TrialOutcome::Ok => {}
        }
        s.push_str(&format!(",\"attempt\":{}", self.attempt));
        match self.fallback_seed {
            Some(seed) => s.push_str(&format!(",\"fallback_seed\":{seed}")),
            None => s.push_str(",\"fallback_seed\":null"),
        }
        s.push_str(&format!(
            ",\"wall_ms\":{},\"skipped_batches\":{}",
            self.wall_ms, self.skipped_batches
        ));
        s.push_str(",\"metrics\":{");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&Json::Str(k.clone()).emit());
            s.push(':');
            s.push_str(&json::emit_f64(*v));
        }
        s.push_str("},\"topics\":[");
        for (i, t) in self.topics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{{\"npmi\":{},\"words\":", json::emit_f64(t.npmi)));
            s.push_str(&Json::Arr(t.words.iter().map(|w| Json::Str(w.clone())).collect()).emit());
            s.push('}');
        }
        s.push_str("]}");
        s
    }

    /// Parse one ledger line.
    pub fn from_line(line: &str) -> Result<Self, String> {
        let v = json::parse(line)?;
        let get = |k: &str| v.get(k).ok_or_else(|| format!("record missing '{k}'"));
        let key = get("key")?.as_str().ok_or("key not a string")?.to_string();
        let spec = TrialSpec::from_json(get("spec")?)?;
        let detail = || {
            v.get("detail")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let outcome = match get("outcome")?.as_str().ok_or("outcome not a string")? {
            "ok" => TrialOutcome::Ok,
            "diverged" => TrialOutcome::Diverged { detail: detail() },
            "failed" => TrialOutcome::Failed { message: detail() },
            "timeout" => TrialOutcome::TimedOut {
                budget_ms: v.get("budget_ms").and_then(Json::as_u64).unwrap_or(0),
            },
            other => return Err(format!("unknown outcome '{other}'")),
        };
        let fallback_seed = match get("fallback_seed")? {
            Json::Null => None,
            s => Some(s.as_u64().ok_or("bad fallback_seed")?),
        };
        let mut metrics = BTreeMap::new();
        if let Json::Obj(members) = get("metrics")? {
            for (k, val) in members {
                metrics.insert(
                    k.clone(),
                    val.as_f64().ok_or_else(|| format!("bad metric '{k}'"))?,
                );
            }
        }
        let mut topics = Vec::new();
        for t in get("topics")?.as_arr().ok_or("topics not an array")? {
            topics.push(TopicRecord {
                npmi: t
                    .get("npmi")
                    .and_then(Json::as_f64)
                    .ok_or("bad topic npmi")?,
                words: t
                    .get("words")
                    .and_then(Json::as_arr)
                    .ok_or("bad topic words")?
                    .iter()
                    .map(|w| w.as_str().map(str::to_string).ok_or("bad topic word"))
                    .collect::<Result<_, _>>()?,
            });
        }
        Ok(Self {
            key,
            spec,
            outcome,
            attempt: get("attempt")?.as_u64().ok_or("bad attempt")? as u32,
            fallback_seed,
            wall_ms: get("wall_ms")?.as_u64().ok_or("bad wall_ms")?,
            skipped_batches: get("skipped_batches")?
                .as_u64()
                .ok_or("bad skipped_batches")?,
            metrics,
            topics,
        })
    }
}

/// The on-disk ledger: an append-only JSONL file plus the replayed
/// last-record-per-key index.
///
/// Safe for concurrent append from many processes (see the module docs);
/// each in-memory instance tracks how far into the file it has replayed
/// and [`refresh`](Ledger::refresh) catches up on peers' appends.
pub struct Ledger {
    path: PathBuf,
    latest: HashMap<String, (TrialRecord, u64)>,
    records_on_disk: usize,
    malformed: usize,
    /// Byte offset of the first unconsumed byte: everything before it is
    /// complete `\n`-terminated lines already replayed.
    consumed: u64,
    /// Length in bytes of an unterminated fragment after `consumed` — a
    /// write torn by a crash (or a truncation landing mid-record). Not
    /// counted as malformed: it is sealed by the next append instead.
    torn_tail: usize,
    /// Monotone per-instance sequence, assigned to records as they are
    /// replayed. Never reset (even on truncation re-replays) so a stored
    /// seq can always tell "same record" from "re-written since".
    next_seq: u64,
}

impl Ledger {
    /// Open (or create) the ledger at `path`, replaying existing records.
    /// Malformed lines — e.g. a fragment another crash left behind, since
    /// sealed — are counted and skipped, never fatal.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut ledger = Self {
            path,
            latest: HashMap::new(),
            records_on_disk: 0,
            malformed: 0,
            consumed: 0,
            torn_tail: 0,
            next_seq: 0,
        };
        ledger.refresh()?;
        Ok(ledger)
    }

    fn reset(&mut self) {
        self.latest.clear();
        self.records_on_disk = 0;
        self.malformed = 0;
        self.consumed = 0;
        self.torn_tail = 0;
        // next_seq stays monotone across resets on purpose.
    }

    /// Catch up on anything appended (by this or any other process) since
    /// the last replay. Complete lines are consumed and indexed; an
    /// unterminated tail is measured but left unconsumed, so a later
    /// refresh re-reads it if it grows or gets sealed. If the file shrank
    /// or vanished (a truncation fault), the whole index is rebuilt from
    /// what remains.
    pub fn refresh(&mut self) -> std::io::Result<()> {
        let mut file = match File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.reset();
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        if file.metadata()?.len() < self.consumed {
            self.reset();
        }
        file.seek(SeekFrom::Start(self.consumed))?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let mut start = 0usize;
        while let Some(nl) = buf[start..].iter().position(|&b| b == b'\n') {
            let line_bytes = &buf[start..start + nl];
            start += nl + 1;
            self.consumed += (nl + 1) as u64;
            // Corrupt bytes need not be UTF-8; decode lossily and let the
            // record parser reject them.
            let line = String::from_utf8_lossy(line_bytes);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match TrialRecord::from_line(line) {
                Ok(rec) => {
                    self.records_on_disk += 1;
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    self.latest.insert(rec.key.clone(), (rec, seq));
                }
                Err(_) => self.malformed += 1,
            }
        }
        self.torn_tail = buf.len() - start;
        Ok(())
    }

    /// The file this ledger appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The latest record for a trial key, if any.
    pub fn get(&self, key: &str) -> Option<&TrialRecord> {
        self.latest.get(key).map(|(rec, _)| rec)
    }

    /// Replay sequence number of the latest record for a trial key. Two
    /// reads returning the same seq saw the same record; a higher seq
    /// means the key was re-written in between (the worker loop uses this
    /// to retry a `failed` record exactly once per fleet run).
    pub fn latest_seq(&self, key: &str) -> Option<u64> {
        self.latest.get(key).map(|(_, seq)| *seq)
    }

    /// The latest *settled* record for a trial key (the resume check).
    pub fn settled(&self, key: &str) -> Option<&TrialRecord> {
        self.latest
            .get(key)
            .map(|(rec, _)| rec)
            .filter(|r| r.outcome.is_settled())
    }

    /// Number of complete records replayed from the file so far (including
    /// ones later superseded by retries, and this instance's own appends).
    pub fn records_on_disk(&self) -> usize {
        self.records_on_disk
    }

    /// Number of distinct trial keys with a record.
    pub fn distinct_trials(&self) -> usize {
        self.latest.len()
    }

    /// Complete lines that failed to parse — interior corruption or a
    /// sealed fragment. Never fatal; `experiment status --strict` turns a
    /// nonzero count into a hard error.
    pub fn malformed_lines(&self) -> usize {
        self.malformed
    }

    /// Bytes of unterminated fragment at end of file as of the last
    /// replay: a write torn by a crash, or a truncation mid-record. Zero
    /// on a healthy ledger; the next append seals it into a malformed
    /// line.
    pub fn torn_tail_len(&self) -> usize {
        self.torn_tail
    }

    /// Append one record and flush it to disk before returning, so a
    /// completed trial survives any later crash.
    ///
    /// The record is written as one `O_APPEND` `write_all` (atomic with
    /// respect to concurrent appenders), prefixed by a newline when the
    /// file currently ends in a torn fragment — sealing the dead writer's
    /// partial line so it parses as (one) malformed line instead of
    /// merging with this record.
    pub fn append(&mut self, record: TrialRecord) -> std::io::Result<()> {
        // Catch up first so the seal check sees the file's real tail.
        self.refresh()?;
        let body = record.to_line();
        let mut line = String::with_capacity(body.len() + 2);
        if self.torn_tail > 0 {
            line.push('\n');
        }
        line.push_str(&body);
        line.push('\n');
        let creating = !self.path.exists();
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        file.write_all(line.as_bytes())?;
        file.sync_all()?;
        // A new ledger's directory entry must be durable too, or a power
        // loss drops it with its fsynced records and settled trials retrain.
        if creating {
            sync_parent_dir(&self.path)?;
        }
        // Re-replay picks up our record (and any peer's) — keeping the
        // index, counters, and seq numbers single-sourced from the file.
        self.refresh()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ModelKind;
    use ct_corpus::{DatasetPreset, Scale};

    fn record(seed: u64, outcome: TrialOutcome) -> TrialRecord {
        let spec = TrialSpec::baseline(ModelKind::Etm, DatasetPreset::Ng20Like, Scale::Tiny, seed);
        let mut metrics = BTreeMap::new();
        metrics.insert("coh@100".to_string(), 0.125);
        metrics.insert("div@100".to_string(), 0.5);
        TrialRecord {
            key: spec.key(),
            spec,
            outcome,
            attempt: 0,
            fallback_seed: None,
            wall_ms: 12,
            skipped_batches: 0,
            metrics,
            topics: vec![TopicRecord {
                npmi: 0.25,
                words: vec!["alpha".into(), "beta".into()],
            }],
        }
    }

    #[test]
    fn record_roundtrips_through_its_line() {
        for outcome in [
            TrialOutcome::Ok,
            TrialOutcome::Diverged {
                detail: "all batches diverged at epoch 3".into(),
            },
            TrialOutcome::Failed {
                message: "panicked: \"boom\"".into(),
            },
            TrialOutcome::TimedOut { budget_ms: 500 },
        ] {
            let rec = record(42, outcome);
            let parsed = TrialRecord::from_line(&rec.to_line()).unwrap();
            assert_eq!(parsed, rec);
        }
    }

    #[test]
    fn replay_keeps_last_record_per_key() {
        let dir = std::env::temp_dir().join(format!("ct-exp-ledger-{}", std::process::id()));
        let path = dir.join("replay.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut ledger = Ledger::open(&path).unwrap();
        let diverged = record(
            42,
            TrialOutcome::Diverged {
                detail: "first attempt".into(),
            },
        );
        let key = diverged.key.clone();
        ledger.append(diverged).unwrap();
        let mut retried = record(42, TrialOutcome::Ok);
        retried.attempt = 1;
        retried.fallback_seed = Some(1042);
        ledger.append(retried.clone()).unwrap();

        let reopened = Ledger::open(&path).unwrap();
        assert_eq!(reopened.records_on_disk(), 2);
        assert_eq!(reopened.distinct_trials(), 1);
        assert_eq!(reopened.settled(&key), Some(&retried));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_tail_line_is_skipped() {
        let dir = std::env::temp_dir().join(format!("ct-exp-ledger-t-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trunc.jsonl");
        let full = record(42, TrialOutcome::Ok);
        let half = record(43, TrialOutcome::Ok);
        let mut contents = full.to_line();
        contents.push('\n');
        let half_line = half.to_line();
        contents.push_str(&half_line[..half_line.len() / 2]);
        std::fs::write(&path, contents).unwrap();

        let ledger = Ledger::open(&path).unwrap();
        assert_eq!(ledger.records_on_disk(), 1);
        assert_eq!(ledger.malformed_lines(), 0, "a torn tail is not malformed");
        assert_eq!(ledger.torn_tail_len(), half_line.len() / 2);
        assert!(ledger.settled(&full.key).is_some());
        assert!(ledger.settled(&half.key).is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_seals_a_torn_tail() {
        let dir = std::env::temp_dir().join(format!("ct-exp-ledger-s-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seal.jsonl");
        let dead = record(42, TrialOutcome::Ok);
        let dead_line = dead.to_line();
        std::fs::write(&path, &dead_line[..dead_line.len() / 3]).unwrap();

        let mut ledger = Ledger::open(&path).unwrap();
        assert!(ledger.torn_tail_len() > 0);
        let next = record(43, TrialOutcome::Ok);
        ledger.append(next.clone()).unwrap();
        // The fragment became one malformed line; the new record is intact.
        assert_eq!(ledger.torn_tail_len(), 0);
        assert_eq!(ledger.malformed_lines(), 1);
        assert_eq!(ledger.settled(&next.key), Some(&next));
        assert!(ledger.settled(&dead.key).is_none());

        // A cold replay agrees.
        let reopened = Ledger::open(&path).unwrap();
        assert_eq!(reopened.records_on_disk(), 1);
        assert_eq!(reopened.malformed_lines(), 1);
        assert_eq!(reopened.settled(&next.key), Some(&next));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn refresh_sees_peer_appends_and_truncation() {
        let dir = std::env::temp_dir().join(format!("ct-exp-ledger-r-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("refresh.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut a = Ledger::open(&path).unwrap();
        let mut b = Ledger::open(&path).unwrap();

        let first = record(42, TrialOutcome::Ok);
        a.append(first.clone()).unwrap();
        assert!(b.get(&first.key).is_none(), "b has not refreshed yet");
        b.refresh().unwrap();
        assert_eq!(b.settled(&first.key), Some(&first));
        let seq_first = b.latest_seq(&first.key).unwrap();

        // A retry by the peer bumps the key's seq on refresh.
        let mut retried = first.clone();
        retried.attempt = 1;
        a.append(retried).unwrap();
        b.refresh().unwrap();
        assert!(b.latest_seq(&first.key).unwrap() > seq_first);

        // Truncation under b's feet forces a full re-replay.
        std::fs::write(&path, "").unwrap();
        b.refresh().unwrap();
        assert_eq!(b.distinct_trials(), 0);
        assert_eq!(b.records_on_disk(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_records_are_not_settled() {
        let rec = record(
            42,
            TrialOutcome::Failed {
                message: "boom".into(),
            },
        );
        assert!(!rec.outcome.is_settled());
        assert!(TrialOutcome::Ok.is_settled());
        assert!(TrialOutcome::TimedOut { budget_ms: 1 }.is_settled());
    }
}
