//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <repro_all|sweep_read_mostly|sweep_write_heavy|hetero_pools> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run sets its workload up several times (reporting the median as
//! `setup_s`), then measures for `--seconds`, checks every output, and
//! prints a report followed by one JSON line.  With `--trace 0` that line
//! carries the end-to-end metrics; with `--trace 1` it carries the
//! per-layer metrics of a traced run.  See `perfbench/README.md`.

mod repro;
mod sim;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gpu_mem_sim::DesignPoint;
use shm_pool::PlacementPolicy;
use shm_workloads::BenchmarkProfile;

use crate::sim::Input;
use crate::spans::Recorder;
use crate::stats::{median, percentile, Ledger};

/// Trace scale of `repro_all` (the scale ROADMAP timings use).
const SUITE_SCALE: f64 = 0.25;
/// Trace scale of both sweeps.
const SWEEP_SCALE: f64 = 1.0;
/// Trace scale of `hetero_pools`: large enough that the hot-page policy
/// migrates pages through the secure channel.
const HETERO_SCALE: f64 = 4.0;
/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_REPEATS: usize = 9;
/// Any single operation (a `repro` invocation or a pass of jobs) that takes
/// longer than this is stopped and counted as failed.
const WATCHDOG: Duration = Duration::from_secs(60);
/// Seed kept out of tuning, so a later gain can be re-checked on it.
const HELD_OUT_SEED: u64 = 7_919;
/// `repro` targets that simulate, in the order `repro all` renders them.
const REPRO_TARGETS: [&str; 9] = [
    "fig5", "table7", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
];
/// FNV-1a of `repro all --scale 0.25` stdout (md5 bd76a238…) at the commit
/// that introduced this benchmark; a different digest means a figure moved.
const PINNED_REPRO_DIGEST: u64 = 0x406f_0b36_9931_954b;

/// End-to-end metrics and units, reported on every workload.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("repro_wall_s", "s"),
    ("repro_wall_parallel_s", "s"),
    ("sim_events_per_s", "events/s"),
    ("ns_per_event_p50", "ns"),
    ("ns_per_event_p90", "ns"),
    ("peak_rss_mb", "MiB"),
    ("fig12_shm_gap", "ratio"),
    ("fig14_shm_gap", "ratio"),
    ("fig15_shm_gap", "ratio"),
];

/// Per-layer metrics, units, and the end-to-end metric each should move.
const PER_LAYER: [(&str, &str, &str); 49] = {
    const TRACE: &str = "setup_s on the library workloads, repro_wall_s on repro_all";
    const ORACLE: &str = "sim_events_per_s on both sweeps, repro_wall_s on repro_all";
    const SIM: &str = "sim_events_per_s on repro_all, both sweeps and hetero_pools";
    const MEE: &str = "sim_events_per_s, mostly on sweep_write_heavy";
    const SHM: &str =
        "sim_events_per_s, mostly on sweep_read_mostly; fig14_shm_gap if the model changes";
    const POOL: &str = "sim_events_per_s on hetero_pools";
    const EXEC: &str = "repro_wall_parallel_s and fail_frac on repro_all";
    const BENCH: &str = "repro_wall_s on repro_all";
    [
        ("workloads.trace_gen_ms", "ms", TRACE),
        ("workloads.events", "count", TRACE),
        ("shm.oracle_ms", "ms", ORACLE),
        ("gpu-mem-sim.base_run_ms", "ms", SIM),
        ("gpu-mem-sim.l2_hits", "count", SIM),
        ("gpu-mem-sim.l2_misses", "count", SIM),
        ("gpu-mem-sim.l2_writebacks", "count", SIM),
        ("gpu-mem-sim.dram_requests", "count", SIM),
        ("gpu-mem-sim.l2_hit_ratio", "ratio", SIM),
        ("secure-core.self_ms", "ms", MEE),
        ("secure-core.ctr_hits", "count", MEE),
        ("secure-core.ctr_misses", "count", MEE),
        ("secure-core.mac_hits", "count", MEE),
        ("secure-core.mac_misses", "count", MEE),
        ("secure-core.bmt_hits", "count", MEE),
        ("secure-core.bmt_misses", "count", MEE),
        ("secure-core.meta_bytes.counter", "bytes", MEE),
        ("secure-core.meta_bytes.mac", "bytes", MEE),
        ("secure-core.meta_bytes.bmt", "bytes", MEE),
        ("secure-core.mdc_hit_ratio", "ratio", MEE),
        ("shm.self_ms", "ms", SHM),
        ("shm.readonly_fast_path", "count", SHM),
        ("shm.chunk_mac_accesses", "count", SHM),
        ("shm.stream_mispredictions", "count", SHM),
        ("shm.readonly_mispredictions", "count", SHM),
        ("shm.victim_hits", "count", SHM),
        ("shm.fast_path_ratio", "ratio", SHM),
        ("shm.fixup_ratio", "ratio", SHM),
        ("pool.self_ms", "ms", POOL),
        ("pool.migrations", "count", POOL),
        ("pool.spills", "count", POOL),
        ("pool.cpu_accesses", "count", POOL),
        ("pool.capacity_events", "count", POOL),
        ("pool.link_bytes_to_gpu", "bytes", POOL),
        ("pool.link_bytes_to_cpu", "bytes", POOL),
        ("pool.remote_ratio", "ratio", POOL),
        ("sim-exec.speedup", "ratio", EXEC),
        ("sim-exec.watchdog_trips", "count", EXEC),
        ("bench.table7_s", "s", BENCH),
        ("bench.fig5_s", "s", BENCH),
        ("bench.fig10_s", "s", BENCH),
        ("bench.fig11_s", "s", BENCH),
        ("bench.fig12_s", "s", BENCH),
        ("bench.fig13_s", "s", BENCH),
        ("bench.fig14_s", "s", BENCH),
        ("bench.fig15_s", "s", BENCH),
        ("bench.fig16_s", "s", BENCH),
        ("bench.targets_sum_s", "s", BENCH),
        (
            "perfbench.trace_overhead_ms",
            "ms",
            "nothing: traced minus untraced wall of one serial pass",
        ),
    ]
};

#[derive(Clone, Copy, Debug, PartialEq)]
enum Workload {
    ReproAll,
    SweepReadMostly,
    SweepWriteHeavy,
    HeteroPools,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::ReproAll,
        Workload::SweepReadMostly,
        Workload::SweepWriteHeavy,
        Workload::HeteroPools,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ReproAll => "repro_all",
            Workload::SweepReadMostly => "sweep_read_mostly",
            Workload::SweepWriteHeavy => "sweep_write_heavy",
            Workload::HeteroPools => "hetero_pools",
        }
    }

    fn profiles(self) -> Vec<BenchmarkProfile> {
        let suite = shm_bench::scaled_suite(SWEEP_SCALE);
        match self {
            Workload::ReproAll => shm_bench::scaled_suite(SUITE_SCALE),
            Workload::SweepReadMostly => suite
                .into_iter()
                .filter(|p| p.write_frac < sim::WRITE_FRAC_SPLIT)
                .collect(),
            Workload::SweepWriteHeavy => suite
                .into_iter()
                .filter(|p| p.write_frac >= sim::WRITE_FRAC_SPLIT)
                .collect(),
            Workload::HeteroPools => shm_bench::pool::scaled_hetero_suite(HETERO_SCALE),
        }
    }

    fn designs(self) -> Vec<(DesignPoint, Option<PlacementPolicy>)> {
        match self {
            Workload::HeteroPools => [(DesignPoint::Unprotected, None), (DesignPoint::Shm, None)]
                .into_iter()
                .chain(PlacementPolicy::ALL.map(|p| (DesignPoint::Shm, Some(p))))
                .collect(),
            _ => DesignPoint::ALL.map(|d| (d, None)).to_vec(),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = repo_root();
    if !root.join("crates").is_dir() {
        eprintln!("perfbench: {} holds no crates/ to measure", root.display());
        return ExitCode::FAILURE;
    }
    clear_shm_env();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} held_out_seed={HELD_OUT_SEED}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host {}", host_facts(&root));

    // Every workload builds `repro`, so the first run in a checkout pays
    // for the whole build and later runs only for Cargo's freshness check.
    let bin = match build_repro(&root) {
        Ok(bin) => bin,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut run = Run::default();
    match args.workload {
        Workload::ReproAll => repro_all(&args, &bin, &mut run),
        _ => library(&args, &mut run),
    }
    print!("{}", run.report(args.trace));
    if args.trace {
        write_spans(&root, &args, &run.spans);
    }
    println!("{}", run.json(args.trace));
    // A pass abandoned by the watchdog may still hold threads; ending the
    // process ends them.
    std::process::exit(0);
}

/// The repository this benchmark measures: the parent of its own package.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository")
        .to_path_buf()
}

/// Removes every `SHM_*` variable (jobs, AES backend, pool and link knobs
/// all change what is measured) before any thread or child starts.
fn clear_shm_env() {
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SHM_"))
        .collect();
    for k in knobs {
        eprintln!("perfbench: clearing {k} from the environment");
        std::env::remove_var(k);
    }
}

fn host_facts(root: &Path) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "nproc={} cpu={cpu:?} aesni={} rustc={rustc:?} commit={}",
        nproc(),
        shm_crypto::aesni_available(),
        git_commit(root)
    )
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` without running git (a source
/// checkout without `.git` reports `none`).
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| r.to_string()),
    }
}

/// Where Cargo puts build output for the repository's workspace.
fn target_dir(root: &Path) -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    }
}

/// Measurements of one run.
#[derive(Default)]
struct Run {
    ledger: Ledger,
    setup_s: Vec<f64>,
    serial_wall_s: Vec<f64>,
    parallel_wall_s: Vec<f64>,
    /// Host ns per simulated event of each serial job.
    ns_per_event: Vec<f64>,
    sim_events: f64,
    sim_ns: f64,
    peak_kb: u64,
    gaps: Option<[f64; 3]>,
    /// Digest of each `repro all` stdout, with its worker count.
    digests: Vec<(usize, u64)>,
    /// Per-layer metrics of a traced run.
    layers: BTreeMap<&'static str, f64>,
    spans: Vec<spans::Span>,
}

impl Run {
    fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let mut m = BTreeMap::new();
        m.insert("setup_s", median(&self.setup_s));
        m.insert("repro_wall_s", median(&self.serial_wall_s));
        m.insert("repro_wall_parallel_s", median(&self.parallel_wall_s));
        let per_s = if self.sim_ns > 0.0 {
            self.sim_events / (self.sim_ns / 1e9)
        } else {
            0.0
        };
        m.insert("sim_events_per_s", per_s);
        m.insert("ns_per_event_p50", percentile(&self.ns_per_event, 50.0));
        m.insert("ns_per_event_p90", percentile(&self.ns_per_event, 90.0));
        m.insert("peak_rss_mb", self.peak_kb as f64 / 1024.0);
        let gaps = self.gaps.unwrap_or_default();
        m.insert("fig12_shm_gap", gaps[0]);
        m.insert("fig14_shm_gap", gaps[1]);
        m.insert("fig15_shm_gap", gaps[2]);
        m
    }

    fn report(&self, traced: bool) -> String {
        let mut out = String::new();
        for (threads, d) in &self.digests {
            let pin = if *d == PINNED_REPRO_DIGEST {
                " (pinned)"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "repro all --jobs {threads}: stdout fnv1a64={d:016x}{pin}"
            );
        }
        for why in &self.ledger.reasons {
            let _ = writeln!(out, "FAILED {why}");
        }
        let l = &self.ledger;
        let _ = writeln!(
            out,
            "fail_frac = {} ratio ({} failed of {} attempted, {} watchdog trips)",
            l.fail_frac(),
            l.failed,
            l.attempted,
            l.watchdog_trips
        );
        if traced {
            for (name, unit, moves) in PER_LAYER {
                let v = self.layers.get(name).copied().unwrap_or(0.0);
                let _ = writeln!(out, "{name} = {v} {unit}  (moves {moves})");
            }
            return out;
        }
        let m = self.end_to_end();
        for (name, unit) in END_TO_END {
            let _ = writeln!(out, "{name} = {} {unit}", m[name]);
        }
        let samples: [(&str, &[f64]); 4] = [
            ("setup_s", &self.setup_s),
            ("repro_wall_s", &self.serial_wall_s),
            ("repro_wall_parallel_s", &self.parallel_wall_s),
            ("ns_per_event", &self.ns_per_event),
        ];
        for (name, xs) in samples {
            let n = xs.len();
            let _ = match stats::highest_supported_percentile(n) {
                Some(p) => writeln!(out, "  {name}: n={n}, p{p} = {}", percentile(xs, p)),
                None => {
                    let mut sorted = xs.to_vec();
                    sorted.sort_by(f64::total_cmp);
                    writeln!(
                        out,
                        "  {name}: n={n}, too few for any percentile: {sorted:?}"
                    )
                }
            };
        }
        if self.ns_per_event.len() < 100 {
            let _ = writeln!(
                out,
                "  ns_per_event_p90 rests on fewer than the 100 jobs the sample rule needs"
            );
        }
        out
    }

    fn json(&self, traced: bool) -> String {
        let metric = |name: &str, v: f64, unit: &str| {
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        };
        let metrics: Vec<String> = if traced {
            PER_LAYER
                .iter()
                .map(|&(n, u, _)| metric(n, self.layers.get(n).copied().unwrap_or(0.0), u))
                .collect()
        } else {
            let m = self.end_to_end();
            END_TO_END
                .iter()
                .map(|&(n, u)| metric(n, m[n], u))
                .collect()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.ledger.failed == 0 && self.ledger.attempted > 0,
            self.ledger.attempted.max(1),
            self.ledger.failed,
            metrics.join(", ")
        )
    }

    /// Folds one checked serial pass into the per-job and throughput samples.
    fn add_serial_pass(&mut self, input: &Input, pass: &sim::Pass) {
        for (job, outcome) in input.jobs.iter().zip(&pass.jobs) {
            if let Ok((_, ns)) = outcome {
                let events = input.events[job.trace] as f64;
                self.ns_per_event.push(*ns as f64 / events);
                self.sim_events += events;
                self.sim_ns += *ns as f64;
            }
        }
    }
}

/// Builds the workload's input `SETUP_REPEATS` times (once when traced),
/// each time generating the traces, warming the process-wide L2 bank arena
/// with one run, and calling `warm_up`; returns the last input.
fn setup(
    w: Workload,
    seed: u64,
    run: &mut Run,
    spans: &mut Recorder,
    mut warm_up: impl FnMut(&mut Run),
) -> Arc<Input> {
    let repeats = if spans.enabled() { 1 } else { SETUP_REPEATS };
    let profiles = w.profiles();
    let designs = w.designs();
    let mut input = None;
    for _ in 0..repeats {
        let t0 = Instant::now();
        let built = sim::build_input(&profiles, seed, &designs, spans);
        std::hint::black_box(sim::simulate(&built.traces[0], &built.jobs[0]));
        warm_up(run);
        run.setup_s.push(t0.elapsed().as_secs_f64());
        input = Some(built);
    }
    Arc::new(input.expect("at least one set-up"))
}

/// The in-process side of a run: passes over one input, the first pass's
/// stats as the reference every later pass must reproduce, and in traced
/// runs the per-job timings and spans.
struct InProcess {
    input: Arc<Input>,
    reference: Option<Vec<gpu_types::SimStats>>,
    spans: Recorder,
    timings: Vec<Vec<sim::JobTiming>>,
    /// Traced minus untraced wall of the serial pass, per iteration.
    overhead_s: Vec<f64>,
}

impl InProcess {
    fn new(input: Arc<Input>, spans: Recorder) -> Self {
        Self {
            input,
            reference: None,
            spans,
            timings: Vec::new(),
            overhead_s: Vec::new(),
        }
    }

    /// Runs one pass under the watchdog; `None` (and a trip) if it hung.
    fn watched_pass(&self, workers: usize, run: &mut Run) -> Option<sim::Pass> {
        let pass = sim::run_pass(&self.input, workers, WATCHDOG);
        if pass.is_none() {
            run.ledger.attempt(self.input.jobs.len() as u64);
            let n = self.input.jobs.len();
            run.ledger
                .trip(&format!("pass of {n} jobs on {workers} worker(s)"));
        }
        pass
    }

    /// A checked serial pass (plus, in traced runs, a traced serial pass
    /// whose counts must equal it) and, if `parallel`, a checked pass on
    /// every core.  Returns the serial and parallel walls, or `None` once
    /// a pass hung or a job panicked.
    fn iteration(&mut self, run: &mut Run, parallel: bool) -> Option<(f64, Option<f64>)> {
        let serial = self.watched_pass(1, run)?;
        let stats = sim::check_pass(
            &self.input,
            &serial,
            self.reference.as_deref(),
            &mut run.ledger,
        )?;
        run.add_serial_pass(&self.input, &serial);
        if self.spans.enabled() {
            let (traced, t) = sim::traced_pass(&self.input, &mut self.spans);
            if let Some(ts) = sim::check_pass(&self.input, &traced, Some(&stats), &mut run.ledger) {
                if sim::layer_counts(&self.input, &ts) != sim::layer_counts(&self.input, &stats) {
                    run.ledger
                        .fail("traced per-layer counts differ from untraced ones");
                }
            }
            self.overhead_s.push(traced.wall_s - serial.wall_s);
            self.timings.push(t);
        }
        self.reference.get_or_insert(stats);
        if !parallel {
            return Some((serial.wall_s, None));
        }
        let pass = self.watched_pass(nproc(), run)?;
        sim::check_pass(
            &self.input,
            &pass,
            self.reference.as_deref(),
            &mut run.ledger,
        )?;
        Some((serial.wall_s, Some(pass.wall_s)))
    }

    /// Gap metrics from the reference pass and, in traced runs, every
    /// per-layer metric the in-process passes give.
    fn finish(self, run: &mut Run) {
        let Some(stats) = &self.reference else { return };
        if run.gaps.is_none() {
            let means = sim::shm_means(&self.input, stats);
            run.gaps = Some([
                repro::gap(means[0], repro::PAPER_FIG12_SHM),
                repro::gap(means[1], repro::PAPER_FIG14_SHM),
                repro::gap(means[2], repro::PAPER_FIG15_SHM),
            ]);
        }
        if !self.spans.enabled() {
            return;
        }
        run.layers.extend(sim::layer_counts(&self.input, stats));
        let per_pass: Vec<BTreeMap<&'static str, f64>> = self
            .timings
            .iter()
            .map(|t| sim::layer_times(&self.input, t))
            .collect();
        if let Some(first) = per_pass.first() {
            for name in first.keys() {
                let xs: Vec<f64> = per_pass.iter().map(|m| m[name]).collect();
                run.layers.insert(name, median(&xs));
            }
        }
        let gen_ns: u64 = self
            .spans
            .spans
            .iter()
            .filter(|s| s.layer == "workloads")
            .map(spans::Span::dur_ns)
            .sum();
        run.layers
            .insert("workloads.trace_gen_ms", gen_ns as f64 / 1e6);
        run.layers.insert(
            "perfbench.trace_overhead_ms",
            median(&self.overhead_s) * 1e3,
        );
        let (serial, parallel) = (median(&run.serial_wall_s), median(&run.parallel_wall_s));
        let speedup = if parallel > 0.0 {
            serial / parallel
        } else {
            0.0
        };
        run.layers.insert("sim-exec.speedup", speedup);
        run.layers
            .insert("sim-exec.watchdog_trips", run.ledger.watchdog_trips as f64);
        run.spans = self.spans.spans;
    }
}

/// `sweep_read_mostly`, `sweep_write_heavy` and `hetero_pools`: serial and
/// parallel passes of the workload's jobs, alternating, for `--seconds`.
fn library(args: &Args, run: &mut Run) {
    let mut spans = Recorder::new(args.trace);
    let input = setup(args.workload, args.seed, run, &mut spans, |_| {});
    let mut ip = InProcess::new(input, spans);
    let start = Instant::now();
    while run.serial_wall_s.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let Some((serial, parallel)) = ip.iteration(run, true) else {
            break;
        };
        run.serial_wall_s.push(serial);
        run.parallel_wall_s.extend(parallel);
    }
    run.peak_kb = repro::vm_hwm_kb("/proc/self/status").unwrap_or(0);
    ip.finish(run);
}

/// Builds the `repro` binary from this checkout (a no-op when fresh).
fn build_repro(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "shm-bench", "--bin", "repro"])
        .current_dir(root)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of repro failed: {status}"));
    }
    Ok(target_dir(root).join("release").join("repro"))
}

/// Runs `repro <target> --scale SUITE_SCALE --jobs N` under the watchdog and
/// records it as one operation; returns its stdout and wall if it succeeded.
fn repro_op(bin: &Path, target: &str, jobs: usize, run: &mut Run) -> Option<(String, f64)> {
    let scale = SUITE_SCALE.to_string();
    let jobs_arg = jobs.to_string();
    let mut cmd = Command::new(bin);
    cmd.args([target, "--scale", &scale, "--jobs", &jobs_arg]);
    let child = repro::run_child(&mut cmd, WATCHDOG);
    run.ledger.attempt(1);
    run.peak_kb = run.peak_kb.max(child.peak_kb);
    let what = format!("repro {target} --jobs {jobs}");
    match child.error {
        _ if child.timed_out => {
            run.ledger.trip(&what);
            None
        }
        Some(e) => {
            run.ledger.fail(format!("{what}: {e}"));
            None
        }
        None => Some((child.stdout, child.wall_s)),
    }
}

/// Checks one `repro all` stdout: same digest as the first, Fig. 12 MEAN
/// row in the paper's order, and the same gap metrics as the first.
fn check_repro_all(out: &str, jobs: usize, first: &mut Option<u64>, run: &mut Run) {
    let d = repro::digest(out);
    run.digests.push((jobs, d));
    let what = format!("repro all --jobs {jobs}");
    if *first.get_or_insert(d) != d {
        run.ledger
            .fail(format!("{what}: stdout differs from the first run"));
    }
    let order = repro::mean_row(out, repro::FIG12)
        .ok_or_else(|| "no Fig. 12 MEAN row".to_string())
        .and_then(|row| repro::check_fig12_order(&row));
    if let Err(e) = order {
        run.ledger.fail(format!("{what}: {e}"));
    }
    match repro::gaps(out) {
        Ok(g) if *run.gaps.get_or_insert(g) != g => run
            .ledger
            .fail(format!("{what}: gap metrics changed between runs")),
        Ok(_) => {}
        Err(e) => run.ledger.fail(format!("{what}: {e}")),
    }
}

/// `repro_all`: serial and parallel `repro all` as child processes, each
/// pair followed by one in-process pass over the distinct (benchmark,
/// design) simulations those invocations perform, which gives the
/// per-event host times.  The workload takes no seed: its output is the
/// paper-figure contract.
fn repro_all(args: &Args, bin: &Path, run: &mut Run) {
    let mut spans = Recorder::new(args.trace);
    // The warm-up invocation pages the binary in.
    let input = setup(args.workload, 0, run, &mut spans, |run| {
        repro_op(bin, "table1", 1, run);
    });
    let mut ip = InProcess::new(input, spans);
    let mut first = None;
    let mut targets: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let start = Instant::now();
    'measure: while run.serial_wall_s.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let mut walls = [0.0; 2];
        for (wall, jobs) in walls.iter_mut().zip([1, nproc()]) {
            let Some((out, w)) = repro_op(bin, "all", jobs, run) else {
                break 'measure;
            };
            check_repro_all(&out, jobs, &mut first, run);
            *wall = w;
        }
        run.serial_wall_s.push(walls[0]);
        run.parallel_wall_s.push(walls[1]);
        if args.trace {
            for t in REPRO_TARGETS {
                if let Some((_, wall)) = repro_op(bin, t, 1, run) {
                    targets.entry(t).or_default().push(wall);
                }
            }
        }
        if ip.iteration(run, false).is_none() {
            break;
        }
    }
    ip.finish(run);
    if args.trace {
        let mut sum = 0.0;
        for t in REPRO_TARGETS {
            let m = median(targets.get(t).map_or(&[][..], Vec::as_slice));
            sum += m;
            run.layers.insert(bench_name(t), m);
        }
        run.layers.insert("bench.targets_sum_s", sum);
    }
}

fn bench_name(target: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|&(n, _, _)| n)
        .find(|n| n.strip_prefix("bench.").and_then(|r| r.strip_suffix("_s")) == Some(target))
        .expect("every repro target has a bench.<target>_s metric")
}

/// Writes the traced run's spans as JSON lines under the build directory.
fn write_spans(root: &Path, args: &Args, spans: &[spans::Span]) {
    let dir = target_dir(root).join("perfbench");
    let path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans::spans_jsonl(spans)))
    {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json must name exactly the metrics and workloads this
    /// program reports.
    #[test]
    fn benchmark_json_matches_the_program() {
        let json = include_str!("../../BENCHMARK.json");
        let names: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .collect();
        let mut expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        expected.extend(END_TO_END.iter().map(|&(n, _)| n));
        expected.extend(PER_LAYER.iter().map(|&(n, _, _)| n));
        assert_eq!(names, expected);
    }

    #[test]
    fn args_parse_and_reject() {
        let a: Vec<String> = [
            "--workload",
            "hetero_pools",
            "--seed",
            "3",
            "--seconds",
            "5",
            "--trace",
            "1",
        ]
        .map(String::from)
        .to_vec();
        let p = parse_args(&a).expect("valid");
        assert_eq!(p.workload, Workload::HeteroPools);
        assert_eq!((p.seed, p.seconds, p.trace), (3, 5.0, true));
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--seed".into(), "1".into()]).is_err());
        assert!(parse_args(&[
            "--workload".into(),
            "repro_all".into(),
            "--trace".into(),
            "2".into()
        ])
        .is_err());
    }

    #[test]
    fn sweeps_split_the_suite_by_write_fraction() {
        let read = Workload::SweepReadMostly.profiles();
        let write = Workload::SweepWriteHeavy.profiles();
        assert_eq!((read.len(), write.len()), (7, 9));
        assert_eq!(Workload::ReproAll.profiles().len(), 16);
    }

    #[test]
    fn seed_zero_is_the_canonical_trace_seed() {
        assert_eq!(sim::mixed_seed("bfs", 0), shm_bench::trace_seed("bfs"));
        assert_ne!(sim::mixed_seed("bfs", 1), shm_bench::trace_seed("bfs"));
        assert_ne!(sim::mixed_seed("bfs", 1), sim::mixed_seed("bfs", 2));
    }
}
