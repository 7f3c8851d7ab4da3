//! Durable coordinator checkpoints for crash-resumable sweeps.
//!
//! A coordinator that dispatches jobs to separate executors is the single
//! point of failure of its sweep: executors are stateless and can be
//! replaced, but if the coordinator process dies every in-flight and
//! resolved job is lost with it.  [`CoordinatorCheckpoint`] closes that
//! hole with the same discipline as [`crate::journal::JobJournal`]: an
//! append-only JSONL file, a `ckpt_meta` guard line carrying a config
//! hash, and a torn-final-line tolerance so a SIGKILL mid-append never
//! poisons earlier records.
//!
//! Three record types follow the meta line:
//!
//! | line                                          | meaning                          |
//! |-----------------------------------------------|----------------------------------|
//! | `{"type":"assign","index":N,"worker":"w"}`    | job N dispatched to worker `w`   |
//! | `{"type":"resolve","index":N,"ok":true,...}`  | job N settled (payload + run_ns) |
//! | `{"type":"quarantine","worker":"w","reason":"..."}` | worker `w` was quarantined |
//!
//! A job may legitimately resolve **twice** — the byzantine defense
//! un-resolves results delivered by a worker that is later quarantined and
//! re-runs them — so replay is last-line-wins.  `assign` and `quarantine`
//! lines are informational (they drive `in_flight()` reporting and audit
//! trails); only `resolve` lines affect resumed results.
//!
//! Durability is group-committed: every line is written immediately, but
//! `sync_data` runs once per [`CoordinatorCheckpoint::flush_every`]
//! records (and on [`CoordinatorCheckpoint::flush`]/drop).  A power cut
//! can therefore lose at most the unsynced suffix — those jobs simply
//! re-run on resume, which is safe because jobs are deterministic and
//! idempotent.  What can never happen is a *silently wrong* resume: the
//! config-hash guard refuses checkpoints from a different sweep shape,
//! and replayed payloads re-enter the merge byte-for-byte.

use crate::journal::{escape_into, json_u64, unescape, RecoveryError};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Checkpoint format version; bump on any schema change.
pub const CHECKPOINT_VERSION: u32 = 1;

/// How a checkpointed job ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CkptOutcome {
    /// The job produced a payload (worker-measured runtime attached).
    Ok {
        /// Encoded job result, exactly as the worker returned it.
        payload: String,
        /// Worker-measured job runtime in nanoseconds.
        run_ns: u64,
    },
    /// The job failed permanently with a labelled error.
    Failed {
        /// Human-readable failure label (never silently empty).
        label: String,
    },
}

/// Append-only JSONL checkpoint of a coordinator's sweep progress.
#[derive(Debug)]
pub struct CoordinatorCheckpoint {
    path: PathBuf,
    file: std::fs::File,
    resolved: BTreeMap<u64, CkptOutcome>,
    assigned: BTreeMap<u64, String>,
    quarantined: Vec<(String, String)>,
    /// Records appended since the last `sync_data`.
    unsynced: usize,
    /// Group-commit interval: sync after this many records (min 1).
    flush_every: usize,
}

impl CoordinatorCheckpoint {
    /// Opens (or creates) the checkpoint at `path` for the sweep
    /// configuration hashed as `config_hash`, group-committing every
    /// `flush_every` records (clamped to at least 1).
    ///
    /// An existing file is validated and replayed: the meta line must
    /// carry the same version and config hash, complete records load
    /// (resolve lines last-line-wins), a torn *final* line is dropped,
    /// and a torn line anywhere else is [`RecoveryError::Corrupt`].
    ///
    /// # Errors
    ///
    /// [`RecoveryError::Io`], [`RecoveryError::ConfigMismatch`] or
    /// [`RecoveryError::Corrupt`].
    pub fn open(
        path: impl AsRef<Path>,
        config_hash: u64,
        flush_every: usize,
    ) -> Result<Self, RecoveryError> {
        let path = path.as_ref().to_path_buf();
        let existing = match std::fs::read_to_string(&path) {
            Ok(s) => Some(s),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };

        let mut resolved = BTreeMap::new();
        let mut assigned = BTreeMap::new();
        let mut quarantined = Vec::new();
        let mut needs_meta = true;
        if let Some(doc) = &existing {
            let lines: Vec<&str> = doc.lines().collect();
            for (i, line) in lines.iter().enumerate() {
                let is_last = i + 1 == lines.len();
                if i == 0 {
                    match parse_ckpt_meta(line) {
                        Some((version, found)) => {
                            if version != CHECKPOINT_VERSION || found != config_hash {
                                return Err(RecoveryError::ConfigMismatch {
                                    path,
                                    expected: config_hash,
                                    found,
                                });
                            }
                            needs_meta = false;
                        }
                        None if is_last => break, // torn meta: rewrite below
                        None => return Err(RecoveryError::Corrupt { path, line: 1 }),
                    }
                    continue;
                }
                match parse_record(line) {
                    Some(Record::Assign { index, worker }) => {
                        assigned.insert(index, worker);
                    }
                    Some(Record::Resolve { index, outcome }) => {
                        // Last line wins: quarantine invalidation may
                        // legitimately re-resolve an index.
                        resolved.insert(index, outcome);
                    }
                    Some(Record::Quarantine { worker, reason }) => {
                        quarantined.push((worker, reason));
                    }
                    None if is_last => {} // torn final record: drop it
                    None => return Err(RecoveryError::Corrupt { path, line: i + 1 }),
                }
            }
        }

        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        if needs_meta {
            let line = format!(
                "{{\"type\":\"ckpt_meta\",\"version\":{CHECKPOINT_VERSION},\
                 \"config_hash\":\"{config_hash:016x}\"}}\n"
            );
            file.write_all(line.as_bytes())?;
            file.sync_data()?;
        }
        Ok(Self {
            path,
            file,
            resolved,
            assigned,
            quarantined,
            unsynced: 0,
            flush_every: flush_every.max(1),
        })
    }

    /// Checkpoint file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Resolved jobs on record, keyed by job index.
    pub fn resolved(&self) -> &BTreeMap<u64, CkptOutcome> {
        &self.resolved
    }

    /// Number of resolved jobs on record.
    pub fn len(&self) -> usize {
        self.resolved.len()
    }

    /// True when no job has resolved yet.
    pub fn is_empty(&self) -> bool {
        self.resolved.is_empty()
    }

    /// Quarantined workers on record as `(worker_id, reason)` pairs.
    pub fn quarantined(&self) -> &[(String, String)] {
        &self.quarantined
    }

    /// Job indexes that were assigned but never resolved — the work a
    /// resumed coordinator must re-dispatch (alongside never-assigned
    /// jobs, which the caller derives from its own job list).
    pub fn in_flight(&self) -> Vec<u64> {
        self.assigned
            .keys()
            .filter(|i| !self.resolved.contains_key(i))
            .copied()
            .collect()
    }

    /// Records a dispatch.  Informational: drives [`Self::in_flight`].
    ///
    /// # Errors
    ///
    /// Propagates file write/sync errors.
    pub fn record_assign(&mut self, index: u64, worker: &str) -> std::io::Result<()> {
        let mut line = String::with_capacity(64);
        line.push_str("{\"type\":\"assign\",\"index\":");
        push_u64(&mut line, index);
        line.push_str(",\"worker\":\"");
        escape_into(worker, &mut line);
        line.push_str("\"}\n");
        self.assigned.insert(index, worker.to_string());
        self.append(&line)
    }

    /// Records a settled job.  Replay is last-line-wins, so re-recording
    /// an index (quarantine invalidation) is correct, not an error.
    ///
    /// # Errors
    ///
    /// Propagates file write/sync errors.
    pub fn record_resolve(&mut self, index: u64, outcome: &CkptOutcome) -> std::io::Result<()> {
        let mut line = String::with_capacity(96);
        line.push_str("{\"type\":\"resolve\",\"index\":");
        push_u64(&mut line, index);
        match outcome {
            CkptOutcome::Ok { payload, run_ns } => {
                line.push_str(",\"ok\":true,\"payload\":\"");
                escape_into(payload, &mut line);
                line.push_str("\",\"run_ns\":");
                push_u64(&mut line, *run_ns);
            }
            CkptOutcome::Failed { label } => {
                line.push_str(",\"ok\":false,\"error\":\"");
                escape_into(label, &mut line);
                line.push('"');
            }
        }
        line.push_str("}\n");
        self.resolved.insert(index, outcome.clone());
        self.append(&line)
    }

    /// Records a worker quarantine for the audit trail.
    ///
    /// # Errors
    ///
    /// Propagates file write/sync errors.
    pub fn record_quarantine(&mut self, worker: &str, reason: &str) -> std::io::Result<()> {
        let mut line = String::with_capacity(64);
        line.push_str("{\"type\":\"quarantine\",\"worker\":\"");
        escape_into(worker, &mut line);
        line.push_str("\",\"reason\":\"");
        escape_into(reason, &mut line);
        line.push_str("\"}\n");
        self.quarantined
            .push((worker.to_string(), reason.to_string()));
        self.append(&line)
    }

    /// Forces any unsynced records to disk now.
    ///
    /// # Errors
    ///
    /// Propagates `sync_data` errors.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if self.unsynced > 0 {
            self.file.sync_data()?;
            self.unsynced = 0;
        }
        Ok(())
    }

    fn append(&mut self, line: &str) -> std::io::Result<()> {
        self.file.write_all(line.as_bytes())?;
        self.unsynced += 1;
        if self.unsynced >= self.flush_every {
            self.file.sync_data()?;
            self.unsynced = 0;
        }
        Ok(())
    }
}

impl Drop for CoordinatorCheckpoint {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

fn push_u64(out: &mut String, v: u64) {
    use std::fmt::Write as _;
    let _ = write!(out, "{v}");
}

/// Parses the `ckpt_meta` line into `(version, config_hash)`.
fn parse_ckpt_meta(line: &str) -> Option<(u32, u64)> {
    if !line.starts_with("{\"type\":\"ckpt_meta\"") || !line.ends_with('}') {
        return None;
    }
    let version = json_u64(line, "version")? as u32;
    let pat = "\"config_hash\":\"";
    let rest = &line[line.find(pat)? + pat.len()..];
    let hex = &rest[..rest.find('"')?];
    Some((version, u64::from_str_radix(hex, 16).ok()?))
}

enum Record {
    Assign { index: u64, worker: String },
    Resolve { index: u64, outcome: CkptOutcome },
    Quarantine { worker: String, reason: String },
}

/// Extracts an escaped `"key":"..."` string field from a flat object.
fn json_str(s: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let rest = &s[s.find(&pat)? + pat.len()..];
    let mut escaped = false;
    for (i, c) in rest.char_indices() {
        match (escaped, c) {
            (true, _) => escaped = false,
            (false, '\\') => escaped = true,
            (false, '"') => return unescape(&rest[..i]),
            _ => {}
        }
    }
    None
}

fn parse_record(line: &str) -> Option<Record> {
    if !line.ends_with('}') {
        return None;
    }
    if line.starts_with("{\"type\":\"assign\"") {
        return Some(Record::Assign {
            index: json_u64(line, "index")?,
            worker: json_str(line, "worker")?,
        });
    }
    if line.starts_with("{\"type\":\"resolve\"") {
        let index = json_u64(line, "index")?;
        let outcome = if line.contains("\"ok\":true") {
            CkptOutcome::Ok {
                payload: json_str(line, "payload")?,
                run_ns: json_u64(line, "run_ns")?,
            }
        } else if line.contains("\"ok\":false") {
            CkptOutcome::Failed {
                label: json_str(line, "error")?,
            }
        } else {
            return None;
        };
        return Some(Record::Resolve { index, outcome });
    }
    if line.starts_with("{\"type\":\"quarantine\"") {
        return Some(Record::Quarantine {
            worker: json_str(line, "worker")?,
            reason: json_str(line, "reason")?,
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("shm-ckpt-{}-{name}.jsonl", std::process::id()))
    }

    #[test]
    fn checkpoint_roundtrips_across_reopen() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let mut c = CoordinatorCheckpoint::open(&path, 0xAB, 4).expect("create");
            c.record_assign(0, "w-a").expect("assign");
            c.record_assign(1, "w-b").expect("assign");
            c.record_resolve(
                0,
                &CkptOutcome::Ok {
                    payload: "cycles=42 \"quoted\"".to_string(),
                    run_ns: 1234,
                },
            )
            .expect("resolve");
            c.record_quarantine("w-b", "result digest mismatch")
                .expect("quarantine");
        }
        let c = CoordinatorCheckpoint::open(&path, 0xAB, 4).expect("reopen");
        assert_eq!(c.len(), 1);
        assert_eq!(
            c.resolved().get(&0),
            Some(&CkptOutcome::Ok {
                payload: "cycles=42 \"quoted\"".to_string(),
                run_ns: 1234,
            })
        );
        assert_eq!(c.in_flight(), vec![1]);
        assert_eq!(
            c.quarantined(),
            &[("w-b".to_string(), "result digest mismatch".to_string())]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn re_resolve_is_last_line_wins() {
        let path = tmp("rewrite");
        let _ = std::fs::remove_file(&path);
        {
            let mut c = CoordinatorCheckpoint::open(&path, 7, 1).expect("create");
            c.record_resolve(
                3,
                &CkptOutcome::Ok {
                    payload: "lie".to_string(),
                    run_ns: 1,
                },
            )
            .expect("resolve");
            // Quarantine invalidation re-runs the job and resolves again.
            c.record_resolve(
                3,
                &CkptOutcome::Ok {
                    payload: "truth".to_string(),
                    run_ns: 2,
                },
            )
            .expect("re-resolve");
        }
        let c = CoordinatorCheckpoint::open(&path, 7, 1).expect("reopen");
        assert_eq!(
            c.resolved().get(&3),
            Some(&CkptOutcome::Ok {
                payload: "truth".to_string(),
                run_ns: 2,
            })
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failed_outcome_and_torn_tail() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        {
            let mut c = CoordinatorCheckpoint::open(&path, 9, 1).expect("create");
            c.record_resolve(
                0,
                &CkptOutcome::Failed {
                    label: "retry budget exhausted".to_string(),
                },
            )
            .expect("resolve");
        }
        // Crash mid-append: newline-less torn final record is dropped.
        let mut doc = std::fs::read_to_string(&path).expect("read");
        doc.push_str("{\"type\":\"resolve\",\"index\":1,\"ok\":tr");
        std::fs::write(&path, &doc).expect("write torn");
        let c = CoordinatorCheckpoint::open(&path, 9, 1).expect("torn tail tolerated");
        assert_eq!(c.len(), 1);
        assert_eq!(
            c.resolved().get(&0),
            Some(&CkptOutcome::Failed {
                label: "retry budget exhausted".to_string(),
            })
        );
        drop(c);

        // The same torn bytes before a valid line are real corruption.
        let lines: Vec<String> = std::fs::read_to_string(&path)
            .expect("read")
            .lines()
            .map(str::to_string)
            .collect();
        let mut swapped = lines.clone();
        let last = swapped.len() - 1;
        swapped.swap(1, last);
        std::fs::write(&path, swapped.join("\n") + "\n").expect("write corrupt");
        assert!(matches!(
            CoordinatorCheckpoint::open(&path, 9, 1),
            Err(RecoveryError::Corrupt { line: 2, .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn config_mismatch_is_rejected() {
        let path = tmp("mismatch");
        let _ = std::fs::remove_file(&path);
        drop(CoordinatorCheckpoint::open(&path, 1, 1).expect("create"));
        match CoordinatorCheckpoint::open(&path, 2, 1) {
            Err(RecoveryError::ConfigMismatch {
                expected, found, ..
            }) => {
                assert_eq!(expected, 2);
                assert_eq!(found, 1);
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn group_commit_still_lands_after_flush() {
        let path = tmp("group");
        let _ = std::fs::remove_file(&path);
        let mut c = CoordinatorCheckpoint::open(&path, 5, 64).expect("create");
        for i in 0..10u64 {
            c.record_resolve(
                i,
                &CkptOutcome::Ok {
                    payload: format!("r{i}"),
                    run_ns: i,
                },
            )
            .expect("resolve");
        }
        c.flush().expect("flush");
        drop(c);
        let c = CoordinatorCheckpoint::open(&path, 5, 64).expect("reopen");
        assert_eq!(c.len(), 10);
        let _ = std::fs::remove_file(&path);
    }
}
