//! Ledger-adjacent trial leases for the multi-process worker fleet.
//!
//! N `contratopic experiment worker` processes share one trials ledger;
//! leases are how they divide the grid without a coordinator. The state
//! lives next to the ledger (`lease_dir`, normally the ledger's parent):
//!
//! - **Claim files** — `claims/<key>.lock`, created with `O_EXCL`
//!   (`create_new`), are the arbiter: at most one exists per trial key, so
//!   at most one worker holds the lease. The file body is the claim's
//!   [`LeaseRecord`] line (holder, nonce, initial deadline).
//! - **The lease log** — `leases.jsonl`, an append-only fsynced JSONL file
//!   of [`LeaseRecord`]s (claim / renew / release / reclaim). Heartbeat
//!   renews extend a claim's deadline monotonically; replaying the log
//!   ([`replay_log`]) reconstructs the effective deadline of any claim and
//!   yields per-key claim/reclaim counts — the torture harness's
//!   "trained ≤ 1 + reclaims" evidence.
//!
//! **Reclaiming an expired lease is two-phase** (DESIGN.md §12): a worker
//! that observes `now > effective deadline` must *also* win a takedown —
//! `rename` the claim file to a private tombstone (exactly one contender's
//! rename succeeds), re-verify that the tombstoned claim is the one it
//! judged stale (not a fresh claim that raced in), append a `reclaim`
//! record, and only then race a fresh `create_new` like everyone else.
//! A verification mismatch restores the claim file and backs off. Losing
//! any step is always safe: the loser simply rescans.
//!
//! Crashes are the design center, not an edge: a worker that dies holding
//! a lease stops renewing, its deadline lapses, and any peer reclaims the
//! trial. A worker that dies *between* settling the trial in the ledger
//! and releasing its lease costs nothing — the reclaimer re-checks the
//! ledger after winning the claim and releases without retraining.

use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use ct_tensor::codec::sync_parent_dir;

use crate::json::Json;

/// Milliseconds since the Unix epoch; the clock leases are judged by.
pub fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default()
        .as_millis() as u64
}

/// The lease-log file inside a lease directory.
pub fn log_path_in(dir: &Path) -> PathBuf {
    dir.join("leases.jsonl")
}

/// The claim-file directory inside a lease directory.
pub fn claims_dir_in(dir: &Path) -> PathBuf {
    dir.join("claims")
}

/// What a lease-log record describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeaseOp {
    /// A worker won the claim file for a trial.
    Claim,
    /// A heartbeat extended the claim's deadline.
    Renew,
    /// The holder released the lease (trial settled or abandoned).
    Release,
    /// A worker took down another worker's expired claim.
    Reclaim,
}

impl LeaseOp {
    /// Stable identifier stored in the log.
    pub fn id(&self) -> &'static str {
        match self {
            LeaseOp::Claim => "claim",
            LeaseOp::Renew => "renew",
            LeaseOp::Release => "release",
            LeaseOp::Reclaim => "reclaim",
        }
    }
}

/// One lease-log line (also the body of a claim file, with `op = claim`).
#[derive(Clone, Debug, PartialEq)]
pub struct LeaseRecord {
    /// What happened.
    pub op: LeaseOp,
    /// The trial key the lease covers.
    pub key: String,
    /// The worker writing the record.
    pub worker: String,
    /// Claim identity: distinguishes this claim from any earlier or later
    /// claim of the same key by the same worker, so stale renews can never
    /// extend a newer claim.
    pub nonce: u64,
    /// Lease deadline (claim/renew) or event time (release/reclaim), in
    /// [`now_ms`] milliseconds.
    pub deadline_ms: u64,
    /// For `reclaim`: the worker whose expired claim was taken down, when
    /// its claim file was still readable.
    pub from: Option<String>,
}

impl LeaseRecord {
    /// Render as one log line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push_str("{\"v\":1,\"op\":\"");
        s.push_str(self.op.id());
        s.push_str("\",\"key\":\"");
        s.push_str(&self.key);
        s.push_str("\",\"worker\":");
        s.push_str(&Json::Str(self.worker.clone()).emit());
        s.push_str(&format!(
            ",\"nonce\":{},\"deadline_ms\":{}",
            self.nonce, self.deadline_ms
        ));
        if let Some(from) = &self.from {
            s.push_str(",\"from\":");
            s.push_str(&Json::Str(from.clone()).emit());
        }
        s.push('}');
        s
    }

    /// Parse one log line.
    pub fn from_line(line: &str) -> Result<Self, String> {
        let v = crate::json::parse(line)?;
        let get = |k: &str| v.get(k).ok_or_else(|| format!("lease missing '{k}'"));
        let op = match get("op")?.as_str().ok_or("op not a string")? {
            "claim" => LeaseOp::Claim,
            "renew" => LeaseOp::Renew,
            "release" => LeaseOp::Release,
            "reclaim" => LeaseOp::Reclaim,
            other => return Err(format!("unknown lease op '{other}'")),
        };
        Ok(Self {
            op,
            key: get("key")?.as_str().ok_or("key not a string")?.to_string(),
            worker: get("worker")?
                .as_str()
                .ok_or("worker not a string")?
                .to_string(),
            nonce: get("nonce")?.as_u64().ok_or("bad nonce")?,
            deadline_ms: get("deadline_ms")?.as_u64().ok_or("bad deadline_ms")?,
            from: v.get("from").and_then(Json::as_str).map(str::to_string),
        })
    }
}

/// Replayed view of a lease log: counters for observability plus the
/// renew-extended deadline of every (key, worker, nonce) claim.
#[derive(Debug, Default)]
pub struct LeaseLogStats {
    /// Complete records replayed.
    pub records: usize,
    /// Complete lines that failed to parse (corruption; sealed fragments).
    pub malformed: usize,
    /// Bytes of unterminated fragment at end of log.
    pub torn_tail: usize,
    /// `claim` records per trial key.
    pub claims: BTreeMap<String, u32>,
    /// `reclaim` records per trial key.
    pub reclaims: BTreeMap<String, u32>,
    /// `release` records per trial key.
    pub releases: BTreeMap<String, u32>,
    /// Total `renew` records.
    pub renews: usize,
    renew_deadline: HashMap<(String, String, u64), u64>,
}

impl LeaseLogStats {
    /// The deadline a claim is judged by: its initial deadline, extended
    /// by any replayed renew for the same (key, worker, nonce).
    pub fn effective_deadline(&self, claim: &LeaseRecord) -> u64 {
        let renewed = self
            .renew_deadline
            .get(&(claim.key.clone(), claim.worker.clone(), claim.nonce))
            .copied()
            .unwrap_or(0);
        claim.deadline_ms.max(renewed)
    }

    fn absorb(&mut self, rec: LeaseRecord) {
        self.records += 1;
        match rec.op {
            LeaseOp::Claim => *self.claims.entry(rec.key).or_default() += 1,
            LeaseOp::Reclaim => *self.reclaims.entry(rec.key).or_default() += 1,
            LeaseOp::Release => *self.releases.entry(rec.key).or_default() += 1,
            LeaseOp::Renew => {
                self.renews += 1;
                let slot = self
                    .renew_deadline
                    .entry((rec.key, rec.worker, rec.nonce))
                    .or_default();
                *slot = (*slot).max(rec.deadline_ms);
            }
        }
    }
}

/// Incremental lease-log replayer (same consumed-offset discipline as
/// [`crate::ledger::Ledger::refresh`]).
#[derive(Debug, Default)]
struct LogReplay {
    consumed: u64,
    stats: LeaseLogStats,
}

impl LogReplay {
    fn refresh(&mut self, path: &Path) -> std::io::Result<()> {
        let mut file = match File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                *self = Self::default();
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        if file.metadata()?.len() < self.consumed {
            *self = Self::default();
        }
        file.seek(SeekFrom::Start(self.consumed))?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let mut start = 0usize;
        while let Some(nl) = buf[start..].iter().position(|&b| b == b'\n') {
            let line_bytes = &buf[start..start + nl];
            start += nl + 1;
            self.consumed += (nl + 1) as u64;
            let line = String::from_utf8_lossy(line_bytes);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match LeaseRecord::from_line(line) {
                Ok(rec) => self.stats.absorb(rec),
                Err(_) => self.stats.malformed += 1,
            }
        }
        self.stats.torn_tail = buf.len() - start;
        Ok(())
    }
}

/// Replay a lease log from scratch — the read-only view `experiment
/// status` and the torture harness's invariant checks use.
pub fn replay_log(path: &Path) -> std::io::Result<LeaseLogStats> {
    let mut replay = LogReplay::default();
    replay.refresh(path)?;
    Ok(replay.stats)
}

/// Append one line to a lease log: a single `O_APPEND` `write_all`,
/// fsynced, sealing any torn fragment with a leading newline first (same
/// discipline as the trials ledger).
fn append_log_line(path: &Path, body: &str) -> std::io::Result<()> {
    let (needs_seal, creating) = match File::open(path) {
        Ok(mut f) => {
            let len = f.metadata()?.len();
            if len == 0 {
                (false, false)
            } else {
                f.seek(SeekFrom::Start(len - 1))?;
                let mut last = [0u8; 1];
                f.read_exact(&mut last)?;
                (last[0] != b'\n', false)
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => (false, true),
        Err(e) => return Err(e),
    };
    let mut line = String::with_capacity(body.len() + 2);
    if needs_seal {
        line.push('\n');
    }
    line.push_str(body);
    line.push('\n');
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    file.write_all(line.as_bytes())?;
    file.sync_all()?;
    // A new log's directory entry must be durable too, or a power loss
    // drops the file together with its fsynced record.
    if creating {
        sync_parent_dir(path)?;
    }
    Ok(())
}

/// Result of one [`LeaseManager::try_claim`].
#[derive(Clone, Debug, PartialEq)]
pub enum ClaimOutcome {
    /// This worker now holds the lease and may train the trial.
    Claimed {
        /// The claim's nonce — needed for [`LeaseManager::release`] and
        /// heartbeats.
        nonce: u64,
        /// Set when winning required reclaiming an expired lease; carries
        /// the evicted worker's id when it was readable.
        reclaimed_from: Option<Option<String>>,
    },
    /// Another worker holds a live lease; come back later.
    Held {
        /// The holder's worker id (`"?"` when the claim file was not yet
        /// readable).
        worker: String,
        /// The holder's deadline as judged now, in [`now_ms`] units.
        deadline_ms: u64,
    },
    /// The claim was contested (expired or vanished mid-race) and another
    /// worker won; back off without training.
    Lost,
}

/// One worker's handle on the lease directory.
///
/// Not `Sync`: each worker thread/process owns its manager. Concurrency
/// safety is between *managers* (possibly in different processes), through
/// the claim files and the log.
pub struct LeaseManager {
    log_path: PathBuf,
    claims_dir: PathBuf,
    worker: String,
    ttl_ms: u64,
    replay: LogReplay,
    counter: u64,
}

impl LeaseManager {
    /// Open (creating directories as needed) the lease state under `dir`
    /// for worker `worker` with lease duration `ttl_ms`.
    pub fn open(dir: &Path, worker: &str, ttl_ms: u64) -> std::io::Result<Self> {
        let claims_dir = claims_dir_in(dir);
        std::fs::create_dir_all(&claims_dir)?;
        Ok(Self {
            log_path: log_path_in(dir),
            claims_dir,
            worker: worker.to_string(),
            ttl_ms: ttl_ms.max(1),
            replay: LogReplay::default(),
            counter: 0,
        })
    }

    /// This worker's id.
    pub fn worker(&self) -> &str {
        &self.worker
    }

    /// The lease log this manager appends to.
    pub fn log_path(&self) -> &Path {
        &self.log_path
    }

    /// Claim nonces must be unique across restarts of the same worker id
    /// (a restarted worker's stale renews must not extend its new claim),
    /// so they fold the wall clock in.
    fn next_nonce(&mut self) -> u64 {
        self.counter += 1;
        (now_ms() << 10) | (self.counter & 0x3ff)
    }

    fn claim_path(&self, key: &str) -> PathBuf {
        self.claims_dir.join(format!("{key}.lock"))
    }

    fn append(&self, rec: &LeaseRecord) -> std::io::Result<()> {
        append_log_line(&self.log_path, &rec.to_line())
    }

    /// Create the claim file with `O_EXCL` and log the claim. Returns
    /// false when another claim file won the race.
    fn create_claim(&mut self, key: &str, nonce: u64) -> std::io::Result<bool> {
        let rec = LeaseRecord {
            op: LeaseOp::Claim,
            key: key.to_string(),
            worker: self.worker.clone(),
            nonce,
            deadline_ms: now_ms() + self.ttl_ms,
            from: None,
        };
        let mut file = match OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(self.claim_path(key))
        {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => return Ok(false),
            Err(e) => return Err(e),
        };
        file.write_all(rec.to_line().as_bytes())?;
        file.write_all(b"\n")?;
        file.sync_all()?;
        sync_parent_dir(&self.claim_path(key))?;
        self.append(&rec)?;
        Ok(true)
    }

    /// Try to take the lease on `key`: fast-path `create_new`, else judge
    /// the current holder and, if expired, run the two-phase reclaim.
    pub fn try_claim(&mut self, key: &str) -> std::io::Result<ClaimOutcome> {
        let nonce = self.next_nonce();
        if self.create_claim(key, nonce)? {
            return Ok(ClaimOutcome::Claimed {
                nonce,
                reclaimed_from: None,
            });
        }
        // Contended: judge the holder with a fresh log view.
        self.replay.refresh(&self.log_path)?;
        let claim_path = self.claim_path(key);
        let holder = match read_claim_file(&claim_path) {
            ClaimFile::Missing => return Ok(ClaimOutcome::Lost), // released or taken down mid-race
            ClaimFile::Claim(rec) => Some(rec),
            ClaimFile::Unreadable { age_ms } => {
                // The creator may be alive between create_new and write;
                // only an old unreadable file is judged abandoned.
                if age_ms <= self.ttl_ms {
                    return Ok(ClaimOutcome::Held {
                        worker: "?".to_string(),
                        deadline_ms: now_ms() + self.ttl_ms - age_ms,
                    });
                }
                None
            }
        };
        if let Some(rec) = &holder {
            let deadline = self.replay.stats.effective_deadline(rec);
            if now_ms() <= deadline {
                return Ok(ClaimOutcome::Held {
                    worker: rec.worker.clone(),
                    deadline_ms: deadline,
                });
            }
        }

        // Expired (or long-abandoned unreadable): two-phase takedown.
        // Exactly one contender's rename succeeds.
        self.counter += 1;
        let tomb = self
            .claims_dir
            .join(format!("{key}.rm.{}.{}", self.worker, self.counter));
        match std::fs::rename(&claim_path, &tomb) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(ClaimOutcome::Lost),
            Err(e) => return Err(e),
        }
        sync_parent_dir(&tomb)?;
        // Verify we took down the claim we judged stale — not a fresh one
        // that raced in between the read and the rename.
        let evicted = match read_claim_file(&tomb) {
            ClaimFile::Claim(rec) => {
                self.replay.refresh(&self.log_path)?;
                if now_ms() <= self.replay.stats.effective_deadline(&rec) {
                    // A live claim: put it back and back off. A failed
                    // restore degrades to one benign duplicate training.
                    let _ = std::fs::hard_link(&tomb, &claim_path);
                    let _ = std::fs::remove_file(&tomb);
                    return Ok(ClaimOutcome::Lost);
                }
                Some(rec.worker)
            }
            ClaimFile::Missing | ClaimFile::Unreadable { .. } => None,
        };
        let _ = std::fs::remove_file(&tomb);
        self.append(&LeaseRecord {
            op: LeaseOp::Reclaim,
            key: key.to_string(),
            worker: self.worker.clone(),
            nonce,
            deadline_ms: now_ms(),
            from: evicted.clone(),
        })?;
        // Race the fresh claim like everyone else.
        if self.create_claim(key, nonce)? {
            Ok(ClaimOutcome::Claimed {
                nonce,
                reclaimed_from: Some(evicted),
            })
        } else {
            Ok(ClaimOutcome::Lost)
        }
    }

    /// Release a lease this worker holds. Returns false (and leaves the
    /// claim file alone) when the lease was reclaimed from under us —
    /// someone else's claim now owns the file.
    pub fn release(&mut self, key: &str, nonce: u64) -> std::io::Result<bool> {
        let claim_path = self.claim_path(key);
        let ours = matches!(
            read_claim_file(&claim_path),
            ClaimFile::Claim(rec) if rec.worker == self.worker && rec.nonce == nonce
        );
        if !ours {
            return Ok(false);
        }
        std::fs::remove_file(&claim_path)?;
        self.append(&LeaseRecord {
            op: LeaseOp::Release,
            key: key.to_string(),
            worker: self.worker.clone(),
            nonce,
            deadline_ms: now_ms(),
            from: None,
        })?;
        Ok(true)
    }

    /// Start a heartbeat thread renewing `(key, nonce)` every `ttl / 3`
    /// until the returned handle is stopped or dropped. A renew that fails
    /// to write stops the heartbeat: the lease then lapses and a peer
    /// reclaims — at worst one benign duplicate training.
    pub fn start_heartbeat(&self, key: &str, nonce: u64) -> Heartbeat {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let log_path = self.log_path.clone();
        let worker = self.worker.clone();
        let key = key.to_string();
        let ttl_ms = self.ttl_ms;
        let handle = std::thread::spawn(move || {
            let interval = Duration::from_millis((ttl_ms / 3).max(10));
            let tick = Duration::from_millis(20.min((ttl_ms / 3).max(1)));
            'outer: loop {
                let mut slept = Duration::ZERO;
                while slept < interval {
                    if flag.load(Ordering::Relaxed) {
                        break 'outer;
                    }
                    std::thread::sleep(tick);
                    slept += tick;
                }
                let renew = LeaseRecord {
                    op: LeaseOp::Renew,
                    key: key.clone(),
                    worker: worker.clone(),
                    nonce,
                    deadline_ms: now_ms() + ttl_ms,
                    from: None,
                };
                if append_log_line(&log_path, &renew.to_line()).is_err() {
                    break;
                }
            }
        });
        Heartbeat {
            stop,
            handle: Some(handle),
        }
    }
}

/// A running lease heartbeat; stops (and joins) on [`Heartbeat::stop`] or
/// drop.
pub struct Heartbeat {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Heartbeat {
    /// Stop renewing and wait for the thread to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What a claim file currently contains.
#[derive(Clone, Debug, PartialEq)]
pub enum ClaimFile {
    /// No claim file: the trial is unleased.
    Missing,
    /// A parsed claim.
    Claim(LeaseRecord),
    /// The file exists but holds no parsable claim (creator mid-write, or
    /// crashed between `create_new` and the body write).
    Unreadable {
        /// File age (mtime) in milliseconds; saturates to `u64::MAX` when
        /// the clock is unhelpful.
        age_ms: u64,
    },
}

/// Read `claims/<key>.lock` without contending for it.
pub fn read_claim_file(path: &Path) -> ClaimFile {
    let body = match std::fs::read(path) {
        Ok(b) => b,
        Err(_) => return ClaimFile::Missing,
    };
    let text = String::from_utf8_lossy(&body);
    if let Ok(rec) = LeaseRecord::from_line(text.trim()) {
        if rec.op == LeaseOp::Claim {
            return ClaimFile::Claim(rec);
        }
    }
    let age_ms = std::fs::metadata(path)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.elapsed().ok())
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    ClaimFile::Unreadable { age_ms }
}

/// Read-only view of `key`'s lease for `experiment status`: the claim file
/// judged against `stats` (a [`replay_log`] of the same directory's log).
pub fn probe(dir: &Path, key: &str, stats: &LeaseLogStats) -> LeaseView {
    let path = claims_dir_in(dir).join(format!("{key}.lock"));
    match read_claim_file(&path) {
        ClaimFile::Missing => LeaseView::Free,
        ClaimFile::Unreadable { .. } => LeaseView::Unreadable,
        ClaimFile::Claim(rec) => {
            let deadline_ms = stats.effective_deadline(&rec);
            if now_ms() <= deadline_ms {
                LeaseView::Live {
                    worker: rec.worker,
                    deadline_ms,
                }
            } else {
                LeaseView::Expired { worker: rec.worker }
            }
        }
    }
}

/// A trial's lease state as seen by [`probe`].
#[derive(Clone, Debug, PartialEq)]
pub enum LeaseView {
    /// No claim file.
    Free,
    /// Held, deadline in the future.
    Live {
        /// The holder.
        worker: String,
        /// Effective deadline in [`now_ms`] units.
        deadline_ms: u64,
    },
    /// Held but expired — reclaimable.
    Expired {
        /// The lapsed holder.
        worker: String,
    },
    /// Claim file present but unreadable.
    Unreadable,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ct-exp-lease-{tag}-{}-{}",
            std::process::id(),
            now_ms()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn lease_record_roundtrips() {
        for (op, from) in [
            (LeaseOp::Claim, None),
            (LeaseOp::Renew, None),
            (LeaseOp::Release, None),
            (LeaseOp::Reclaim, Some("w2".to_string())),
        ] {
            let rec = LeaseRecord {
                op,
                key: "abcd1234".into(),
                worker: "w1".into(),
                nonce: 99,
                deadline_ms: 123456,
                from,
            };
            assert_eq!(LeaseRecord::from_line(&rec.to_line()).unwrap(), rec);
        }
    }

    #[test]
    fn second_claim_is_held_until_release() {
        let dir = temp_dir("held");
        let mut a = LeaseManager::open(&dir, "a", 60_000).unwrap();
        let mut b = LeaseManager::open(&dir, "b", 60_000).unwrap();
        let nonce = match a.try_claim("k1").unwrap() {
            ClaimOutcome::Claimed { nonce, .. } => nonce,
            other => panic!("expected claim, got {other:?}"),
        };
        match b.try_claim("k1").unwrap() {
            ClaimOutcome::Held { worker, .. } => assert_eq!(worker, "a"),
            other => panic!("expected held, got {other:?}"),
        }
        assert!(a.release("k1", nonce).unwrap());
        assert!(matches!(
            b.try_claim("k1").unwrap(),
            ClaimOutcome::Claimed { .. }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn expired_lease_is_reclaimed_with_evicted_worker_recorded() {
        let dir = temp_dir("reclaim");
        let mut dead = LeaseManager::open(&dir, "dead", 1).unwrap();
        assert!(matches!(
            dead.try_claim("k1").unwrap(),
            ClaimOutcome::Claimed { .. }
        ));
        std::thread::sleep(Duration::from_millis(10));
        let mut live = LeaseManager::open(&dir, "live", 60_000).unwrap();
        match live.try_claim("k1").unwrap() {
            ClaimOutcome::Claimed {
                reclaimed_from: Some(Some(w)),
                ..
            } => assert_eq!(w, "dead"),
            other => panic!("expected reclaim, got {other:?}"),
        }
        let stats = replay_log(&log_path_in(&dir)).unwrap();
        assert_eq!(stats.claims.get("k1"), Some(&2));
        assert_eq!(stats.reclaims.get("k1"), Some(&1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn renew_extends_the_effective_deadline() {
        let dir = temp_dir("renew");
        let mut a = LeaseManager::open(&dir, "a", 40).unwrap();
        let nonce = match a.try_claim("k1").unwrap() {
            ClaimOutcome::Claimed { nonce, .. } => nonce,
            other => panic!("expected claim, got {other:?}"),
        };
        let hb = a.start_heartbeat("k1", nonce);
        std::thread::sleep(Duration::from_millis(120));
        // Well past the original 40 ms ttl, the heartbeat keeps it live.
        let mut b = LeaseManager::open(&dir, "b", 40).unwrap();
        match b.try_claim("k1").unwrap() {
            ClaimOutcome::Held { worker, .. } => assert_eq!(worker, "a"),
            other => panic!("expected held, got {other:?}"),
        }
        hb.stop();
        let stats = replay_log(&log_path_in(&dir)).unwrap();
        assert!(stats.renews >= 1, "heartbeat must have renewed");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn release_after_reclaim_is_a_noop() {
        let dir = temp_dir("noop");
        let mut slow = LeaseManager::open(&dir, "slow", 1).unwrap();
        let nonce = match slow.try_claim("k1").unwrap() {
            ClaimOutcome::Claimed { nonce, .. } => nonce,
            other => panic!("expected claim, got {other:?}"),
        };
        std::thread::sleep(Duration::from_millis(10));
        let mut fast = LeaseManager::open(&dir, "fast", 60_000).unwrap();
        assert!(matches!(
            fast.try_claim("k1").unwrap(),
            ClaimOutcome::Claimed { .. }
        ));
        // slow's release must not clobber fast's claim.
        assert!(!slow.release("k1", nonce).unwrap());
        let stats = replay_log(&log_path_in(&dir)).unwrap();
        match probe(&dir, "k1", &stats) {
            LeaseView::Live { worker, .. } => assert_eq!(worker, "fast"),
            other => panic!("fast's claim must survive, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn two_racers_on_an_expired_lease_produce_one_winner() {
        let dir = temp_dir("race");
        let mut dead = LeaseManager::open(&dir, "dead", 1).unwrap();
        assert!(matches!(
            dead.try_claim("k1").unwrap(),
            ClaimOutcome::Claimed { .. }
        ));
        std::thread::sleep(Duration::from_millis(10));
        let dir_a = dir.clone();
        let dir_b = dir.clone();
        let race = |d: PathBuf, id: &'static str| {
            std::thread::spawn(move || {
                let mut m = LeaseManager::open(&d, id, 60_000).unwrap();
                m.try_claim("k1").unwrap()
            })
        };
        let ta = race(dir_a, "a");
        let tb = race(dir_b, "b");
        let a = ta.join().unwrap();
        let b = tb.join().unwrap();
        let wins = [&a, &b]
            .iter()
            .filter(|o| matches!(o, ClaimOutcome::Claimed { .. }))
            .count();
        assert_eq!(wins, 1, "exactly one racer may win: {a:?} vs {b:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
