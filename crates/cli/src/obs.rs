//! Observability subcommands and helpers: the `/metrics` endpoint guard
//! (`--metrics-addr`), `shm trace-report`, and `shm env`.

use std::time::Duration;

use shm_metrics::MetricsServer;
use shm_telemetry::span::{SpanEvent, TraceReport};
use shm_telemetry::Probe;

use crate::args::Args;
use crate::CliError;

/// Environment variable: address the `/metrics` endpoint binds when the
/// `--metrics-addr` flag is absent (`HOST:PORT`, port 0 = OS-assigned).
pub const METRICS_ADDR_ENV: &str = "SHM_METRICS_ADDR";

/// Live `/metrics` endpoint for the duration of one command.  Starting it
/// flips the process-global metrics registry on; without it every counter
/// in the hot paths stays a single relaxed load.
pub struct MetricsGuard {
    server: Option<MetricsServer>,
    hold_ms: u64,
}

impl MetricsGuard {
    /// Starts the exposition server when `--metrics-addr` (or
    /// `SHM_METRICS_ADDR`) asks for one.
    pub fn from_args(args: &Args) -> Result<Self, CliError> {
        let addr = args.get("metrics-addr").map(str::to_string).or_else(|| {
            std::env::var(METRICS_ADDR_ENV)
                .ok()
                .filter(|s| !s.trim().is_empty())
        });
        let hold_ms = args.get_u64("metrics-hold-ms")?.unwrap_or(0);
        let Some(addr) = addr else {
            return Ok(Self {
                server: None,
                hold_ms,
            });
        };
        shm_metrics::set_enabled(true);
        let server = MetricsServer::bind(&addr).map_err(|e| {
            CliError::runtime(
                format!("bind metrics endpoint {addr}: {e}"),
                &Probe::disabled(),
            )
        })?;
        eprintln!("metrics: serving http://{}/metrics", server.local_addr());
        Ok(Self {
            server: Some(server),
            hold_ms,
        })
    }

    /// Keeps the endpoint up for `--metrics-hold-ms` (so a scraper can take
    /// a final post-sweep sample), then shuts it down.
    pub fn finish(self) {
        if let Some(server) = self.server {
            if self.hold_ms > 0 {
                std::thread::sleep(Duration::from_millis(self.hold_ms));
            }
            server.shutdown();
        }
    }
}

/// `shm trace-report <file.jsonl> [--top N]`: reconstructs the span tree
/// of each sweep trace in a telemetry JSONL document and prints its
/// timeline — wall time, queue-wait vs run-time, critical path, and the
/// top-N slowest jobs.
pub fn cmd_trace_report(rest: &[String]) -> Result<(), CliError> {
    let path = rest
        .first()
        .filter(|p| !p.starts_with('-'))
        .ok_or_else(|| CliError::usage("need a telemetry JSONL file"))?
        .clone();
    let args = Args::parse(&rest[1..]).map_err(|e| CliError::usage(e.to_string()))?;
    let top = args.get_u64("top")?.unwrap_or(10).max(1) as usize;
    let text = std::fs::read_to_string(&path)
        .map_err(|e| CliError::runtime(format!("read {path}: {e}"), &Probe::disabled()))?;
    let spans: Vec<SpanEvent> = text.lines().filter_map(SpanEvent::parse_json).collect();
    if spans.is_empty() {
        return Err(CliError::runtime(
            format!(
                "{path} contains no span records; produce them with \
                 `shm sweep ... --telemetry --trace-out {path}`"
            ),
            &Probe::disabled(),
        ));
    }
    let mut broken = false;
    for report in TraceReport::from_spans(spans) {
        for problem in report.check_invariants() {
            broken = true;
            eprintln!("warning: trace {:#x}: {problem}", report.trace_id);
        }
        print!("{}", report.render(top));
    }
    if broken {
        return Err(CliError::runtime(
            "span tree violated trace invariants (see warnings above)",
            &Probe::disabled(),
        ));
    }
    Ok(())
}

/// `shm env`: every `SHM_*` environment knob the toolchain reads, with its
/// current value.  The same table lives in README.md; the
/// `env_table_matches_sources_and_readme` test keeps the two in sync.
pub fn cmd_env() {
    println!("{:<26} {:<12} meaning", "variable", "value");
    for (name, default, meaning) in env_knob_table() {
        let value = std::env::var(name).unwrap_or_else(|_| format!("(default {default})"));
        println!("{name:<26} {value:<12} {meaning}");
    }
    println!(
        "\naes backend detected on this host: {}",
        shm_crypto::selected_backend().name()
    );
    println!(
        "note: `shm run --profile` always forces {}=1 semantics (phase timers \
         are process-global); any --jobs or SHM_JOBS setting is overridden",
        sim_exec::JOBS_ENV
    );
}

/// The full knob table (name, default, meaning), header row included.
fn env_knob_table() -> Vec<(&'static str, &'static str, &'static str)> {
    let mut knobs: Vec<(&'static str, &'static str, &'static str)> = vec![
        (
            sim_exec::JOBS_ENV,
            "auto",
            "worker-pool width for local sweeps (1 = serial)",
        ),
        (
            METRICS_ADDR_ENV,
            "unset",
            "HOST:PORT for the /metrics endpoint (same as --metrics-addr)",
        ),
    ];
    knobs.extend(shm_pool::ENV_KNOBS.iter().copied());
    knobs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Adds every `<pat>SUFFIX` environment-knob literal in `src` to `found`.
    fn scan_literals(src: &str, pat: &[u8], found: &mut std::collections::BTreeSet<String>) {
        let bytes = src.as_bytes();
        for i in 0..bytes.len().saturating_sub(pat.len()) {
            if &bytes[i..i + pat.len()] == pat {
                let mut end = i + pat.len();
                while end < bytes.len() && (bytes[end].is_ascii_uppercase() || bytes[end] == b'_') {
                    end += 1;
                }
                // A bare prefix (doc prose like "SHM_POOL_*", or this
                // test's own pattern) is not a knob name.
                if end > i + pat.len() {
                    found.insert(src[i..end].to_string());
                }
            }
        }
    }

    /// Collects every `<pat>SUFFIX` environment-knob literal from the `.rs`
    /// files under `dirs` (paths relative to this crate's manifest dir).
    fn scan_knob_literals(pat: &str, dirs: &[&str]) -> std::collections::BTreeSet<String> {
        let mut found = std::collections::BTreeSet::new();
        for dir in dirs {
            let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
            for entry in std::fs::read_dir(&dir).expect("source dir readable") {
                let path = entry.expect("dir entry").path();
                if path.extension().is_some_and(|e| e == "rs") {
                    scan_literals(
                        &std::fs::read_to_string(&path).expect("source readable"),
                        pat.as_bytes(),
                        &mut found,
                    );
                }
            }
        }
        found
    }

    fn assert_knobs_in_table(found: &std::collections::BTreeSet<String>, pat: &str) {
        assert!(
            !found.is_empty(),
            "scanner found no {pat}* knobs at all — is it broken?"
        );
        let table: Vec<&str> = env_knob_table().iter().map(|(n, _, _)| *n).collect();
        for knob in found {
            assert!(
                table.contains(&knob.as_str()),
                "knob {knob} is parsed in the sources but missing from the `shm env` table"
            );
        }
    }

    /// Every heterogeneous-pool knob: every `SHM_POOL_*` /
    /// `SHM_LINK_*` literal in the cli or shm-pool sources needs an `shm
    /// env` row.
    #[test]
    fn every_pool_knob_is_in_the_env_table() {
        for pat in ["SHM_POOL_", "SHM_LINK_"] {
            let found = scan_knob_literals(pat, &["src", "../pool/src"]);
            assert_knobs_in_table(&found, pat);
        }
    }

    /// The `.rs` files under `dir`, recursively.
    fn rust_sources(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("source dir readable") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                rust_sources(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }

    /// Whether `line` passes `ident` (bare or path-qualified) as the sole
    /// argument of an environment read: `var(..)`, `var_os(..)` or an
    /// `env_*(..)` helper.
    fn reads_env(line: &str, ident: &str) -> bool {
        line.match_indices(ident).any(|(at, _)| {
            if !line[at + ident.len()..].trim_start().starts_with(')') {
                return false;
            }
            let before =
                line[..at].trim_end_matches(|c: char| c.is_alphanumeric() || c == '_' || c == ':');
            let Some(callee) = before.strip_suffix('(') else {
                return false;
            };
            let callee = callee
                .rsplit(|c: char| !(c.is_alphanumeric() || c == '_'))
                .next()
                .unwrap_or("");
            callee == "var" || callee == "var_os" || callee.starts_with("env_")
        })
    }

    /// The `shm env` table, the workspace sources and the README knob table
    /// name exactly the same `SHM_*` variables: no knob is read without a
    /// row, no row outlives the code that read it, and the README lists
    /// neither more nor fewer.
    #[test]
    fn env_table_matches_sources_and_readme() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = Vec::new();
        for krate in std::fs::read_dir(root.join("crates")).expect("crates dir") {
            let src = krate.expect("dir entry").path().join("src");
            if src.is_dir() {
                rust_sources(&src, &mut files);
            }
        }
        // Each file's non-test part: unit tests sit in a trailing
        // `#[cfg(test)]` module.
        let texts: Vec<String> = files
            .iter()
            .map(|f| std::fs::read_to_string(f).expect("source readable"))
            .collect();
        let non_test: Vec<&str> = texts
            .iter()
            .map(|t| t.split("#[cfg(test)]").next().unwrap_or(""))
            .collect();

        let table: std::collections::BTreeSet<String> = env_knob_table()
            .iter()
            .map(|(n, _, _)| (*n).to_string())
            .collect();

        let mut literals = std::collections::BTreeSet::new();
        for text in &texts {
            scan_literals(text, b"SHM_", &mut literals);
        }
        // A family prefix in prose (`SHM_POOL_*`) is not a knob name.
        literals.retain(|name| !name.ends_with('_'));
        for name in &literals {
            assert!(
                table.contains(name),
                "{name} appears in the sources but has no `shm env` row"
            );
        }

        for name in &table {
            let quoted = format!("\"{name}\"");
            // The constants that hold this name, e.g. `JOBS_ENV`.
            let consts: Vec<&str> = non_test
                .iter()
                .flat_map(|t| t.lines())
                .filter(|l| l.contains("const ") && l.contains(&quoted))
                .filter_map(|l| l.split("const ").nth(1)?.split(':').next())
                .map(str::trim)
                .collect();
            let read = non_test
                .iter()
                .flat_map(|t| t.lines())
                .any(|l| reads_env(l, &quoted) || consts.iter().any(|c| reads_env(l, c)));
            assert!(read, "`shm env` row {name} is read by no non-test source");
        }

        let readme = std::fs::read_to_string(root.join("README.md")).expect("README readable");
        let section = readme
            .split("## Environment knobs")
            .nth(1)
            .expect("README has an Environment knobs section");
        let section = section.split("\n## ").next().unwrap_or(section);
        let documented: std::collections::BTreeSet<String> = section
            .lines()
            .filter_map(|l| l.strip_prefix("| `"))
            .filter_map(|l| l.split('`').next())
            .map(str::to_string)
            .collect();
        assert_eq!(
            documented, table,
            "README knob table and `shm env` must list the same variables"
        );
    }

    #[test]
    fn metrics_guard_without_request_is_inert() {
        let args = Args::parse(&[]).expect("parse");
        std::env::remove_var(METRICS_ADDR_ENV);
        let Ok(guard) = MetricsGuard::from_args(&args) else {
            panic!("no server requested must not fail");
        };
        assert!(guard.server.is_none());
        guard.finish();
    }
}
