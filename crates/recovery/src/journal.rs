//! Durable job journal + resumable sweep execution.
//!
//! A sweep is a list of independent jobs with stable string labels (e.g.
//! `"fdtd2d under SHM"`).  [`JobJournal`] is an append-only JSONL file: a
//! leading `journal_meta` line carrying a config hash, then one `job` line
//! per completed job with its encoded result.  Each completion is appended
//! and synced *as it happens*, from whichever worker thread finished it, so
//! a SIGKILL at any instant leaves at most one torn final line — which
//! [`JobJournal::open`] tolerates and drops.
//!
//! [`map_journaled`] is the resume engine: journaled jobs are skipped and
//! their results decoded back (`reused`), missing jobs run on a
//! [`sim_exec::Executor`] under a [`CancelToken`] (`executed`), and results
//! come back in submission order — so a resumed sweep renders the exact
//! bytes an uninterrupted one would.  The config hash guards against
//! resuming with a different benchmark set, scale or design list.

use gpu_types::{fnv1a64, SimStats, TrafficBytes};
use sim_exec::{CancelToken, Executor, JobPanic, LabelledPanic, SweepError};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Journal format version; bump on any schema change.
pub const JOURNAL_VERSION: u32 = 1;

/// FNV-1a hash of an ordered list of config parts (benchmark names, design
/// labels, scale, …) — the guard a journal stores so `--resume` refuses to
/// mix results from different sweep configurations.
pub fn config_hash(parts: &[&str]) -> u64 {
    let mut bytes = Vec::new();
    for p in parts {
        bytes.extend_from_slice(p.as_bytes());
        bytes.push(0x1f); // unit separator: ["ab","c"] != ["a","bc"]
    }
    fnv1a64(&bytes)
}

/// How a job result crosses the journal boundary.  Implementations must
/// round-trip exactly: `decode(encode(x)) == x`, or resumed tables would
/// not be byte-identical.
pub trait JournalCodec: Sized {
    /// Appends the JSON value encoding `self` (no surrounding whitespace).
    fn encode_journal(&self, out: &mut String);
    /// Parses a value previously produced by [`Self::encode_journal`].
    fn decode_journal(payload: &str) -> Option<Self>;
}

/// Extracts `"key":<u64>` from a flat JSON object.
fn json_u64(s: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &s[s.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts `"key":[a,b,c,d,e]` from a flat JSON object.
fn json_arr5(s: &str, key: &str) -> Option<[u64; 5]> {
    let pat = format!("\"{key}\":[");
    let rest = &s[s.find(&pat)? + pat.len()..];
    let body = &rest[..rest.find(']')?];
    let mut out = [0u64; 5];
    let mut parts = body.split(',');
    for slot in &mut out {
        *slot = parts.next()?.trim().parse().ok()?;
    }
    parts.next().is_none().then_some(out)
}

impl JournalCodec for SimStats {
    fn encode_journal(&self, out: &mut String) {
        use std::fmt::Write as _;
        out.push('{');
        for (name, v) in self.counters() {
            let _ = write!(out, "\"{name}\":{v},");
        }
        for (key, arr) in [("read", &self.traffic.read), ("write", &self.traffic.write)] {
            let [a, b, c, d, e] = arr;
            let _ = write!(out, "\"{key}\":[{a},{b},{c},{d},{e}],");
        }
        out.pop();
        out.push('}');
    }

    fn decode_journal(payload: &str) -> Option<Self> {
        let mut stats = SimStats {
            traffic: TrafficBytes {
                read: json_arr5(payload, "read")?,
                write: json_arr5(payload, "write")?,
            },
            ..SimStats::default()
        };
        for (name, slot) in stats.counters_mut() {
            *slot = json_u64(payload, name)?;
        }
        Some(stats)
    }
}

impl JournalCodec for String {
    fn encode_journal(&self, out: &mut String) {
        out.push('"');
        escape_into(self, out);
        out.push('"');
    }

    fn decode_journal(payload: &str) -> Option<Self> {
        let inner = payload.strip_prefix('"')?.strip_suffix('"')?;
        unescape(inner)
    }
}

fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                _ => return None,
            }
        } else {
            out.push(c);
        }
    }
    Some(out)
}

/// Anything the crash-consistency layer can fail with.
#[derive(Debug)]
pub enum RecoveryError {
    /// Journal file I/O failed.
    Io(std::io::Error),
    /// The journal on disk was written under a different configuration.
    ConfigMismatch {
        /// Journal file path.
        path: PathBuf,
        /// Hash the caller's configuration produces.
        expected: u64,
        /// Hash stored in the journal.
        found: u64,
    },
    /// A non-final journal line failed to parse (real corruption — a torn
    /// *final* line is tolerated and dropped instead).
    Corrupt {
        /// Journal file path.
        path: PathBuf,
        /// 1-based line number of the offending record.
        line: usize,
    },
    /// One or more jobs panicked while running the missing set.
    Sweep(SweepError),
}

impl core::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RecoveryError::Io(e) => write!(f, "journal I/O error: {e}"),
            RecoveryError::ConfigMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "journal {} was written under a different configuration \
                 (expected hash {expected:#018x}, found {found:#018x}); \
                 delete it or re-run without --resume",
                path.display()
            ),
            RecoveryError::Corrupt { path, line } => {
                write!(f, "journal {} is corrupt at line {line}", path.display())
            }
            RecoveryError::Sweep(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<std::io::Error> for RecoveryError {
    fn from(e: std::io::Error) -> Self {
        RecoveryError::Io(e)
    }
}

impl From<SweepError> for RecoveryError {
    fn from(e: SweepError) -> Self {
        RecoveryError::Sweep(e)
    }
}

/// A durable JSONL record of completed sweep jobs, keyed by label.
#[derive(Debug)]
pub struct JobJournal {
    path: PathBuf,
    file: std::fs::File,
    completed: BTreeMap<String, String>,
}

impl JobJournal {
    /// Opens (or creates) the journal at `path` for the configuration
    /// hashed as `config_hash`.
    ///
    /// An existing journal is validated — its meta line must carry the same
    /// version and config hash — and its complete `job` lines are loaded.
    /// A torn final line (crash mid-append) is dropped silently; a torn
    /// line anywhere else is reported as [`RecoveryError::Corrupt`].
    ///
    /// # Errors
    ///
    /// [`RecoveryError::Io`], [`RecoveryError::ConfigMismatch`] or
    /// [`RecoveryError::Corrupt`].
    pub fn open(path: impl AsRef<Path>, config_hash: u64) -> Result<Self, RecoveryError> {
        let path = path.as_ref().to_path_buf();
        let existing = match std::fs::read_to_string(&path) {
            Ok(s) => Some(s),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };

        let mut completed = BTreeMap::new();
        let mut needs_meta = true;
        if let Some(doc) = &existing {
            let lines: Vec<&str> = doc.lines().collect();
            for (i, line) in lines.iter().enumerate() {
                let is_last = i + 1 == lines.len();
                if i == 0 {
                    match parse_meta(line) {
                        Some((version, found)) => {
                            if version != JOURNAL_VERSION || found != config_hash {
                                return Err(RecoveryError::ConfigMismatch {
                                    path,
                                    expected: config_hash,
                                    found,
                                });
                            }
                            needs_meta = false;
                        }
                        // Torn meta (crash before its closing brace): rewrite
                        // below.  A complete but unreadable one is corrupt.
                        None if is_last && !line.ends_with('}') => break,
                        None => return Err(RecoveryError::Corrupt { path, line: 1 }),
                    }
                    continue;
                }
                match parse_job(line) {
                    Some((label, payload)) => {
                        completed.insert(label, payload);
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
            // Fresh (or torn-before-meta) journal: start it with the guard.
            let line = format!(
                "{{\"type\":\"journal_meta\",\"version\":{JOURNAL_VERSION},\
                 \"config_hash\":\"{config_hash:016x}\"}}\n"
            );
            file.write_all(line.as_bytes())?;
            file.sync_data()?;
        }
        Ok(Self {
            path,
            file,
            completed,
        })
    }

    /// Journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Completed jobs on record.
    pub fn len(&self) -> usize {
        self.completed.len()
    }

    /// True when no job has completed yet.
    pub fn is_empty(&self) -> bool {
        self.completed.is_empty()
    }

    /// True when `label` has a completed result on record.
    pub fn contains(&self, label: &str) -> bool {
        self.completed.contains_key(label)
    }

    /// Labels of every completed job, sorted.
    pub fn completed_labels(&self) -> Vec<&str> {
        self.completed.keys().map(String::as_str).collect()
    }

    /// Decodes the recorded result for `label`, if present and readable.
    pub fn get<T: JournalCodec>(&self, label: &str) -> Option<T> {
        T::decode_journal(self.completed.get(label)?)
    }

    /// Appends one completed job durably: the whole line is written in a
    /// single call and synced before this returns, so a crash can tear at
    /// most the line being appended — never an earlier record.
    ///
    /// # Errors
    ///
    /// Propagates file write/sync errors.
    pub fn record<T: JournalCodec>(&mut self, label: &str, value: &T) -> std::io::Result<()> {
        let mut line = String::with_capacity(128);
        line.push_str("{\"type\":\"job\",\"label\":\"");
        escape_into(label, &mut line);
        line.push_str("\",\"payload\":");
        let mut payload = String::new();
        value.encode_journal(&mut payload);
        line.push_str(&payload);
        line.push_str("}\n");
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()?;
        self.completed.insert(label.to_string(), payload);
        Ok(())
    }
}

/// Parses the `journal_meta` line into `(version, config_hash)`.
fn parse_meta(line: &str) -> Option<(u32, u64)> {
    if !line.starts_with("{\"type\":\"journal_meta\"") || !line.ends_with('}') {
        return None;
    }
    let version = u32::try_from(json_u64(line, "version")?).ok()?;
    let pat = "\"config_hash\":\"";
    let rest = &line[line.find(pat)? + pat.len()..];
    let hex = &rest[..rest.find('"')?];
    Some((version, u64::from_str_radix(hex, 16).ok()?))
}

/// Finds the closing quote of an escaped string starting at `s[0]`.
fn escaped_string_end(s: &str) -> Option<usize> {
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        match (escaped, c) {
            (true, _) => escaped = false,
            (false, '\\') => escaped = true,
            (false, '"') => return Some(i),
            _ => {}
        }
    }
    None
}

/// Parses a `job` line into `(label, payload)`.  An optional `worker`
/// field after the label, written by older builds, is skipped so their
/// journals still resume.
fn parse_job(line: &str) -> Option<(String, String)> {
    let rest = line.strip_prefix("{\"type\":\"job\",\"label\":\"")?;
    if !line.ends_with('}') {
        return None;
    }
    let end = escaped_string_end(rest)?;
    let label = unescape(&rest[..end])?;
    let mut rest = rest[end..].strip_prefix('"')?;
    if let Some(w) = rest.strip_prefix(",\"worker\":\"") {
        let wend = escaped_string_end(w)?;
        unescape(&w[..wend])?;
        rest = w[wend..].strip_prefix('"')?;
    }
    let payload = rest.strip_prefix(",\"payload\":")?;
    let payload = payload.strip_suffix('}')?;
    Some((label, payload.to_string()))
}

/// Knobs for [`map_journaled`] beyond the journal itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct SweepOptions {
    /// Deterministic kill switch for tests and CI: trip the cancel token
    /// after this many journal appends *in this invocation*, simulating a
    /// crash at a fixed job index.
    pub crash_after_jobs: Option<usize>,
}

/// What a journaled sweep produced.
#[derive(Clone, Debug)]
pub struct JournaledSweep<T> {
    /// Per-item results in submission order; `None` = not completed (the
    /// sweep was interrupted before the job ran).
    pub results: Vec<Option<T>>,
    /// Jobs whose results were decoded from the journal.
    pub reused: usize,
    /// Jobs executed (and journaled) by this invocation.
    pub executed: usize,
    /// True when cancellation left at least one job incomplete.
    pub interrupted: bool,
}

impl<T> JournaledSweep<T> {
    /// All results, when every job completed; `None` if interrupted.
    pub fn complete(self) -> Option<Vec<T>> {
        self.results.into_iter().collect()
    }
}

/// Runs `work` over `items` with journal-backed resume and cooperative
/// cancellation — see the module docs for the contract.
///
/// Completions are journaled from worker threads *as they finish*; when
/// `token` trips (Ctrl-C, or the [`SweepOptions::crash_after_jobs`] test
/// knob), workers stop pulling new jobs, in-flight jobs drain into the
/// journal, and the partial result set comes back with
/// [`JournaledSweep::interrupted`] set.
///
/// # Errors
///
/// [`RecoveryError::Sweep`] when any job panicked, [`RecoveryError::Io`]
/// when a journal append failed (the sweep stops early in that case).
pub fn map_journaled<I, T, F, L>(
    exec: &Executor,
    items: &[I],
    journal: &mut JobJournal,
    token: &CancelToken,
    opts: SweepOptions,
    label: L,
    work: F,
) -> Result<JournaledSweep<T>, RecoveryError>
where
    I: Sync,
    T: JournalCodec + Send,
    F: Fn(usize, &I) -> T + Sync,
    L: Fn(usize, &I) -> String,
{
    let labels: Vec<String> = items
        .iter()
        .enumerate()
        .map(|(i, it)| label(i, it))
        .collect();

    let mut results: Vec<Option<T>> = Vec::with_capacity(items.len());
    let mut missing: Vec<usize> = Vec::new();
    let mut reused = 0usize;
    for (i, l) in labels.iter().enumerate() {
        match journal.get::<T>(l) {
            Some(v) => {
                reused += 1;
                results.push(Some(v));
            }
            None => {
                missing.push(i);
                results.push(None);
            }
        }
    }

    struct Shared<'j> {
        journal: &'j mut JobJournal,
        appended: usize,
        io_error: Option<std::io::Error>,
    }
    let shared = Mutex::new(Shared {
        journal,
        appended: 0,
        io_error: None,
    });

    let outcomes = exec.map_cancellable(&missing, token, |_, &idx| {
        let value = work(idx, &items[idx]);
        let mut g = shared.lock().unwrap_or_else(|e| e.into_inner());
        if g.io_error.is_none() {
            match g.journal.record(&labels[idx], &value) {
                Ok(()) => {
                    g.appended += 1;
                    if opts.crash_after_jobs == Some(g.appended) {
                        token.cancel();
                    }
                }
                Err(e) => {
                    // The journal is gone; finishing more jobs would lose
                    // their results anyway, so drain and stop.
                    g.io_error = Some(e);
                    token.cancel();
                }
            }
        }
        value
    });

    let mut executed = 0usize;
    let mut failed: Vec<LabelledPanic> = Vec::new();
    for (&idx, outcome) in missing.iter().zip(outcomes) {
        match outcome {
            None => {}
            Some(Ok(v)) => {
                executed += 1;
                results[idx] = Some(v);
            }
            Some(Err(p)) => {
                let l = labels[idx].clone();
                failed.push(LabelledPanic {
                    label: l.clone(),
                    panic: JobPanic {
                        label: Some(l),
                        ..p
                    },
                });
            }
        }
    }

    let shared = shared.into_inner().unwrap_or_else(|e| e.into_inner());
    if let Some(e) = shared.io_error {
        return Err(e.into());
    }
    if !failed.is_empty() {
        return Err(SweepError { failed }.into());
    }
    let interrupted = results.iter().any(Option::is_none);
    Ok(JournaledSweep {
        results,
        reused,
        executed,
        interrupted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("shm-journal-{}-{name}.jsonl", std::process::id()))
    }

    /// Every counter holds a value derived from its own name plus `k`, so a
    /// decoder that mixes up two keys cannot round-trip.
    fn stats(k: u64) -> SimStats {
        let mut s = SimStats {
            traffic: TrafficBytes {
                read: [k, k + 1, k + 2, k + 3, k + 4],
                write: [k + 5, k + 6, k + 7, k + 8, k + 9],
            },
            ..SimStats::default()
        };
        for (name, slot) in s.counters_mut() {
            *slot = fnv1a64(name.as_bytes()).wrapping_add(k);
        }
        s
    }

    #[test]
    fn sim_stats_codec_roundtrips_exactly() {
        let s = stats(41);
        let mut enc = String::new();
        s.encode_journal(&mut enc);
        assert_eq!(SimStats::decode_journal(&enc).expect("decodes"), s);
    }

    #[test]
    fn journal_roundtrips_across_reopen() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let hash = config_hash(&["suite", "0.25"]);
        {
            let mut j = JobJournal::open(&path, hash).expect("create");
            j.record("a under SHM", &stats(1)).expect("append");
            j.record("b under SGX", &stats(2)).expect("append");
            assert_eq!(j.len(), 2);
        }
        let j = JobJournal::open(&path, hash).expect("reopen");
        assert_eq!(j.len(), 2);
        assert_eq!(j.get::<SimStats>("a under SHM"), Some(stats(1)));
        assert_eq!(j.get::<SimStats>("b under SGX"), Some(stats(2)));
        assert!(j.contains("b under SGX"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn config_mismatch_is_rejected() {
        let path = tmp("mismatch");
        let _ = std::fs::remove_file(&path);
        drop(JobJournal::open(&path, 1).expect("create"));
        match JobJournal::open(&path, 2) {
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
    fn out_of_range_version_is_rejected_not_truncated() {
        // 2^32 + 1 truncates to JOURNAL_VERSION as a u32.
        let path = tmp("version-wrap");
        let meta = format!(
            "{{\"type\":\"journal_meta\",\"version\":4294967297,\"config_hash\":\"{:016x}\"}}\n",
            7u64
        );
        std::fs::write(&path, &meta).expect("write meta only");
        assert!(matches!(
            JobJournal::open(&path, 7),
            Err(RecoveryError::Corrupt { line: 1, .. })
        ));
        let job = "{\"type\":\"job\",\"label\":\"a\",\"payload\":\"x\"}\n";
        std::fs::write(&path, meta + job).expect("write meta and job");
        assert!(matches!(
            JobJournal::open(&path, 7),
            Err(RecoveryError::Corrupt { line: 1, .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_final_line_is_dropped_earlier_corruption_is_fatal() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = JobJournal::open(&path, 9).expect("create");
            j.record("done", &"ok".to_string()).expect("append");
        }
        // Simulate a crash mid-append: a torn, newline-less final record.
        let mut doc = std::fs::read_to_string(&path).expect("read");
        doc.push_str("{\"type\":\"job\",\"label\":\"half");
        std::fs::write(&path, &doc).expect("write torn");
        let j = JobJournal::open(&path, 9).expect("torn tail tolerated");
        assert_eq!(j.len(), 1);
        assert!(j.contains("done"));
        drop(j);

        // The same torn bytes *before* a valid line are real corruption.
        let mut lines: Vec<String> = std::fs::read_to_string(&path)
            .expect("read")
            .lines()
            .map(str::to_string)
            .collect();
        let last = lines.len() - 1;
        lines.swap(1, last);
        std::fs::write(&path, lines.join("\n") + "\n").expect("write corrupt");
        assert!(matches!(
            JobJournal::open(&path, 9),
            Err(RecoveryError::Corrupt { line: 2, .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn map_journaled_resumes_without_rerunning_completed_jobs() {
        let path = tmp("resume");
        let _ = std::fs::remove_file(&path);
        let hash = config_hash(&["resume-test"]);
        let items: Vec<u64> = (0..6).collect();
        let exec = Executor::new(1);
        let runs = std::sync::atomic::AtomicUsize::new(0);
        let work = |_: usize, &x: &u64| {
            runs.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            format!("result-{x}")
        };
        let label = |_: usize, x: &u64| format!("job-{x}");

        // First invocation crashes after 2 completions.
        {
            let mut j = JobJournal::open(&path, hash).expect("create");
            let token = CancelToken::new();
            let sweep = map_journaled(
                &exec,
                &items,
                &mut j,
                &token,
                SweepOptions {
                    crash_after_jobs: Some(2),
                },
                label,
                work,
            )
            .expect("no panics");
            assert!(sweep.interrupted);
            assert_eq!(sweep.executed, 2);
            assert_eq!(j.len(), 2);
        }
        assert_eq!(runs.load(std::sync::atomic::Ordering::SeqCst), 2);

        // Resume: only the missing 4 run; results are complete and ordered.
        let mut j = JobJournal::open(&path, hash).expect("reopen");
        let token = CancelToken::new();
        let sweep = map_journaled(
            &exec,
            &items,
            &mut j,
            &token,
            SweepOptions::default(),
            label,
            work,
        )
        .expect("no panics");
        assert!(!sweep.interrupted);
        assert_eq!(sweep.reused, 2);
        assert_eq!(sweep.executed, 4);
        assert_eq!(runs.load(std::sync::atomic::Ordering::SeqCst), 6);
        assert_eq!(j.len(), 6);
        let all = sweep.complete().expect("complete");
        let expected: Vec<String> = items.iter().map(|x| format!("result-{x}")).collect();
        assert_eq!(all, expected);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn map_journaled_reports_panics_with_labels() {
        let path = tmp("panics");
        let _ = std::fs::remove_file(&path);
        let mut j = JobJournal::open(&path, 3).expect("create");
        let items = [1u64, 2, 3];
        let err = map_journaled(
            &Executor::new(1),
            &items,
            &mut j,
            &CancelToken::new(),
            SweepOptions::default(),
            |_, x| format!("job-{x}"),
            |_, &x| {
                if x == 2 {
                    panic!("boom");
                }
                format!("ok-{x}")
            },
        )
        .expect_err("job 2 panics");
        match err {
            RecoveryError::Sweep(e) => {
                assert_eq!(e.failed.len(), 1);
                assert_eq!(e.failed[0].label, "job-2");
            }
            other => panic!("expected sweep error, got {other}"),
        }
        // The panicking job is absent; the others were journaled.
        let j2 = JobJournal::open(&path, 3).expect("reopen");
        assert_eq!(j2.len(), 2);
        assert!(!j2.contains("job-2"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn worker_field_from_older_builds_still_resumes() {
        let path = tmp("worker-attr");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = JobJournal::open(&path, 5).expect("create");
            j.record("local job", &stats(1)).expect("append");
        }
        // Older builds attributed each result to the worker that ran it.
        let mut legacy = String::from("{\"type\":\"job\",\"label\":\"remote \\\"job\\\"\",\"worker\":\"node-a:2\",\"payload\":");
        stats(2).encode_journal(&mut legacy);
        legacy.push_str("}\n");
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(legacy.as_bytes()))
            .expect("append legacy line");
        let j = JobJournal::open(&path, 5).expect("reopen");
        assert_eq!(j.len(), 2);
        assert_eq!(j.get::<SimStats>("local job"), Some(stats(1)));
        assert_eq!(j.get::<SimStats>("remote \"job\""), Some(stats(2)));
        let _ = std::fs::remove_file(&path);
    }

    /// A well-formed journal: meta line plus two job records.
    fn valid_journal(hash: u64) -> String {
        let path = tmp(&format!("valid-{hash:x}"));
        let _ = std::fs::remove_file(&path);
        {
            let mut j = JobJournal::open(&path, hash).expect("create");
            j.record("a under SHM", &stats(1)).expect("append");
            j.record("b \"quoted\"", &"text\nline".to_string())
                .expect("append");
        }
        let doc = std::fs::read_to_string(&path).expect("read back");
        let _ = std::fs::remove_file(&path);
        doc
    }

    proptest! {
        /// `open` on an arbitrary file — random text, or a valid journal cut
        /// anywhere with random text after it — returns `Ok` or `Err`, never
        /// panics.
        fn journal_open_never_panics_on_arbitrary_files(
            noise in proptest::collection::vec(any::<u8>(), 0..200),
            keep_prefix in any::<bool>(),
            cut in 0usize..2048,
        ) {
            let mut doc = Vec::new();
            if keep_prefix {
                let valid = valid_journal(11);
                doc.extend_from_slice(&valid.as_bytes()[..cut.min(valid.len())]);
            }
            doc.extend_from_slice(&noise);
            let path = tmp("arbitrary");
            std::fs::write(&path, String::from_utf8_lossy(&doc).as_bytes()).expect("write");
            let _ = JobJournal::open(&path, 11);
            let _ = std::fs::remove_file(&path);
        }

        /// `decode_journal` never panics on arbitrary text, including a
        /// valid encoding with random bytes spliced in.
        fn sim_stats_decode_never_panics(
            noise in proptest::collection::vec(any::<u8>(), 0..64),
            at in 0usize..1024,
        ) {
            let _ = SimStats::decode_journal(&String::from_utf8_lossy(&noise));
            let mut enc = String::new();
            stats(3).encode_journal(&mut enc);
            let mut bytes = enc.into_bytes();
            let at = at.min(bytes.len());
            bytes.splice(at..at, noise);
            let _ = SimStats::decode_journal(&String::from_utf8_lossy(&bytes));
        }

        /// Every field value, up to `u64::MAX`, survives the journal codec.
        fn sim_stats_codec_roundtrips_arbitrary_values(
            v in proptest::collection::vec(
                any::<u64>(),
                10 + SimStats::COUNTER_NAMES.len()..11 + SimStats::COUNTER_NAMES.len(),
            ),
        ) {
            let mut s = SimStats::default();
            s.traffic.read.copy_from_slice(&v[..5]);
            s.traffic.write.copy_from_slice(&v[5..10]);
            for ((_, slot), &x) in s.counters_mut().into_iter().zip(&v[10..]) {
                *slot = x;
            }
            let mut enc = String::new();
            s.encode_journal(&mut enc);
            prop_assert_eq!(SimStats::decode_journal(&enc), Some(s));
        }
    }

    /// A `job` line written by the original hand-listed encoder (counters
    /// interleaved with the traffic arrays); it holds `stats(41)`.
    const ORIGINAL_ORDER_JOB_LINE: &str = concat!(
        r#"{"type":"job","label":"fdtd2d under SHM","payload":{"cycles":15775293128760482543,"#,
        r#""instructions":1213475539108690669,"accesses":5070544491938042692,"#,
        r#""l2_hits":7225394419731126671,"l2_misses":1631052926824677505,"#,
        r#""l2_writebacks":15263422190662524398,"ctr_hits":11342536772590106444,"#,
        r#""ctr_misses":16738443711776126038,"mac_hits":4311428240582331380,"#,
        r#""mac_misses":12520265857364450462,"bmt_hits":7849054938515025960,"#,
        r#""bmt_misses":16169034821562625466,"victim_hits":15562122186822084365,"#,
        r#""read":[41,42,43,44,45],"write":[46,47,48,49,50],"#,
        r#""readonly_fast_path":4515120712695059253,"chunk_mac_accesses":16397620140592050730,"#,
        r#""stream_mispredictions":518750079418186546,"#,
        r#""readonly_mispredictions":11935133042472417524,"lat_sum":15244629957667724399,"#,
        r#""lat_max":15320020173878700196,"dram_requests":745271428306954389,"#,
        r#""pool_migrations":9618257348606023258,"pool_spills":710093982589552492,"#,
        r#""pool_cpu_accesses":18425783220820700926,"pool_capacity_events":6260248777538312213,"#,
        r#""link_bytes_to_gpu":6937384787039742871,"link_bytes_to_cpu":4593643810740838051}}"#,
    );

    #[test]
    fn original_key_order_job_line_still_resumes() {
        let path = tmp("original-order");
        let meta = format!(
            "{{\"type\":\"journal_meta\",\"version\":{JOURNAL_VERSION},\"config_hash\":\"{:016x}\"}}\n",
            5u64
        );
        std::fs::write(&path, meta + ORIGINAL_ORDER_JOB_LINE + "\n").expect("write journal");
        let j = JobJournal::open(&path, 5).expect("opens");
        assert_eq!(j.get::<SimStats>("fdtd2d under SHM"), Some(stats(41)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn every_table_counter_is_a_journal_key() {
        let s = stats(7);
        let mut enc = String::new();
        s.encode_journal(&mut enc);
        for name in SimStats::COUNTER_NAMES {
            let key = format!("\"{name}\":");
            assert_eq!(enc.matches(&key).count(), 1, "{name} in {enc}");
        }
        // The table's counters plus the two traffic arrays, nothing else.
        assert_eq!(
            enc.matches("\":").count(),
            SimStats::COUNTER_NAMES.len() + 2
        );
        assert_eq!(SimStats::decode_journal(&enc), Some(s));
    }

    #[test]
    fn config_hash_separates_parts() {
        assert_ne!(config_hash(&["ab", "c"]), config_hash(&["a", "bc"]));
        assert_ne!(config_hash(&["a"]), config_hash(&["a", ""]));
        assert_eq!(config_hash(&["x", "y"]), config_hash(&["x", "y"]));
        // Pinned: journals written by earlier builds must still resume.
        assert_eq!(config_hash(&["suite", "0.25"]), 0x8309_82b6_cdc1_db18);
    }
}
