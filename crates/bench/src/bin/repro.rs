//! `repro` — regenerates every table and figure of the SHM evaluation.
//!
//! Usage: `repro [fig5|fig10|fig11|fig12|fig13|fig14|fig15|fig16|table1|table3_4|table7|table9|micro|sensitivity|hetero|all] [--scale X] [--jobs N] [--telemetry-dir DIR] [--journal DIR [--resume] [--crash-after-jobs N]]`
//!
//! The `hetero` target renders the heterogeneous-pool placement sweep; it
//! is deliberately *not* part of `all`, which stays byte-identical to a
//! pool-free build.
//!
//! With `--journal DIR`, the suite sweep checkpoints every completed
//! (benchmark, design) job as it lands: `all` writes `DIR/all.jsonl`, and a
//! single suite target (table7, fig12–fig16) writes `DIR/<target>.jsonl`.
//! An interrupted run (SIGINT/SIGTERM, exit code 130) leaves the journal
//! valid; re-running with `--resume` skips the completed jobs and produces
//! byte-identical tables.  `--crash-after-jobs N` deterministically cancels
//! the sweep after N fresh completions (CI crash-recovery smoke).
//!
//! Figures run their (benchmark × design) simulations on the `sim-exec`
//! work-stealing pool; `--jobs N` bounds the pool (1 = serial) and the
//! `SHM_JOBS` environment variable is the session-wide override.  Results
//! are reassembled in submission order, so the printed tables are
//! byte-identical at any worker count.
//!
//! With `--telemetry-dir DIR`, every figure target additionally captures a
//! representative telemetry trace (first suite benchmark under SHM) as
//! `DIR/<figure>.jsonl` — epoch bandwidth series for Fig. 14-style plots.
//!
//! Absolute numbers differ from the paper (the substrate is a trace-driven
//! simulator, not GPGPU-Sim on the authors' machines); the *shapes* —
//! design ordering, approximate factors, which benchmarks benefit — are the
//! reproduction target (see EXPERIMENTS.md).

use std::collections::BTreeMap;
use std::env;
use std::fmt::Write as _;
use std::process::ExitCode;

use gpu_mem_sim::{DesignPoint, EnergyModel, Simulator};
use gpu_types::{GpuConfig, ShmConfig};
use shm::{required_mechanisms, DataProperty, OracleProfile};
use shm_bench::{
    format_table, mean, scaled_suite, traffic_breakdown, try_run_suite_jobs,
    try_run_suite_journaled, BenchRow, Executor,
};
use shm_telemetry::{Probe, TelemetryConfig};
use shm_workloads::BenchmarkProfile;

/// Every figure target, in `all` order (tables have no telemetry series).
const FIGURES: &[&str] = &[
    "fig5", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
];

/// Designs each suite figure plots, in column order.
const FIG12_DESIGNS: &[DesignPoint] = &[
    DesignPoint::Naive,
    DesignPoint::CommonCtr,
    DesignPoint::Pssm,
    DesignPoint::Shm,
    DesignPoint::ShmUpperBound,
];
/// See [`FIG12_DESIGNS`].
const FIG13_DESIGNS: &[DesignPoint] = &[
    DesignPoint::Pssm,
    DesignPoint::PssmCctr,
    DesignPoint::ShmReadOnly,
    DesignPoint::Shm,
    DesignPoint::ShmCctr,
];
/// See [`FIG12_DESIGNS`].
const FIG14_DESIGNS: &[DesignPoint] = &[
    DesignPoint::Naive,
    DesignPoint::CommonCtr,
    DesignPoint::Pssm,
    DesignPoint::ShmReadOnly,
    DesignPoint::Shm,
];
/// See [`FIG12_DESIGNS`].
const FIG15_DESIGNS: &[DesignPoint] = &[
    DesignPoint::Naive,
    DesignPoint::CommonCtr,
    DesignPoint::Pssm,
    DesignPoint::Shm,
];
/// See [`FIG12_DESIGNS`].
const FIG16_DESIGNS: &[DesignPoint] = &[DesignPoint::Shm, DesignPoint::ShmVL2];

/// A target rendered from one suite sweep alone: (name, designs, renderer).
/// The sweep runs the designs plus the Baseline every row normalises
/// against; renderers read designs from the rows by name, so rows holding
/// more designs render the same text.
type SuiteTarget = (
    &'static str,
    &'static [DesignPoint],
    fn(&[BenchRow]) -> String,
);

/// Every suite-based target (Table VII needs only the Baseline).
const SUITE_TARGETS: [SuiteTarget; 6] = [
    ("table7", &[], table7),
    ("fig12", FIG12_DESIGNS, fig12),
    ("fig13", FIG13_DESIGNS, fig13),
    ("fig14", FIG14_DESIGNS, fig14),
    ("fig15", FIG15_DESIGNS, fig15),
    ("fig16", FIG16_DESIGNS, fig16),
];

/// The Baseline plus every design a suite target plots, each once: the
/// one sweep `all` renders all of them from.
fn suite_union() -> Vec<DesignPoint> {
    let mut union = vec![DesignPoint::Unprotected];
    for &d in SUITE_TARGETS.iter().flat_map(|&(_, designs, _)| designs) {
        if !union.contains(&d) {
            union.push(d);
        }
    }
    union
}

/// A repro failure carrying the process exit code and, when a telemetry
/// capture was in flight, the probe whose flight recorder gets dumped.
struct ReproError {
    message: String,
    code: u8,
    probe: Probe,
}

impl ReproError {
    fn usage(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            code: 2,
            probe: Probe::disabled(),
        }
    }

    fn runtime(message: impl Into<String>, probe: &Probe) -> Self {
        Self {
            message: message.into(),
            code: 1,
            probe: probe.clone(),
        }
    }

    /// Cooperative cancellation stopped a journaled sweep early; exit code
    /// 130 so scripts can tell resumable interruption from failure.
    fn interrupted(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            code: 130,
            probe: Probe::disabled(),
        }
    }

    fn report(self) -> ExitCode {
        eprintln!("error: {}", self.message);
        if let Some(dump) = self.probe.flight_dump().filter(|d| !d.is_empty()) {
            eprintln!("--- flight recorder (last events before failure) ---");
            eprint!("{dump}");
        }
        ExitCode::from(self.code)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => e.report(),
    }
}

/// Checkpoint/resume options for the suite-based figures.
#[derive(Clone)]
struct JournalCtx {
    dir: String,
    resume: bool,
    crash_after_jobs: Option<usize>,
}

/// How a figure rendering failed: a resumable interruption of a journaled
/// sweep, or an ordinary failure.
enum FigError {
    Interrupted { journal: String, done: Vec<String> },
    Failed(String),
}

impl From<String> for FigError {
    fn from(message: String) -> Self {
        FigError::Failed(message)
    }
}

/// Runs one figure's suite sweep, through the journal when `--journal` was
/// given.  `Err(Interrupted)` means everything completed so far is safely
/// journaled and a `--resume` re-run will skip it.
fn suite_rows(
    figure: &str,
    designs: &[DesignPoint],
    scale: f64,
    jobs: Option<usize>,
    jctx: Option<&JournalCtx>,
) -> Result<Vec<BenchRow>, FigError> {
    let Some(ctx) = jctx else {
        return try_run_suite_jobs(designs, scale, jobs)
            .map_err(|e| FigError::Failed(format!("{figure} sweep failed: {e}")));
    };
    let dir = std::path::Path::new(&ctx.dir);
    if !ctx.resume && dir.join(format!("{figure}.jsonl")).exists() {
        return Err(FigError::Failed(format!(
            "journal {}/{figure}.jsonl already exists; pass --resume to continue it or remove it",
            ctx.dir
        )));
    }
    let sweep = try_run_suite_journaled(figure, designs, scale, jobs, dir, ctx.crash_after_jobs)
        .map_err(|e| FigError::Failed(format!("{figure} journaled sweep failed: {e}")))?;
    if sweep.reused > 0 {
        eprintln!(
            "{figure}: resumed from {}: {} job(s) reused, {} executed",
            sweep.journal_path.display(),
            sweep.reused,
            sweep.executed
        );
    }
    match sweep.rows {
        Some(rows) => Ok(rows),
        None => Err(FigError::Interrupted {
            journal: sweep.journal_path.display().to_string(),
            done: sweep.completed_labels,
        }),
    }
}

fn run(args: &[String]) -> Result<(), ReproError> {
    let mut what = "all".to_string();
    let mut scale = 0.5f64;
    let mut jobs: Option<usize> = None;
    let mut telemetry_dir: Option<String> = None;
    let mut journal_dir: Option<String> = None;
    let mut resume = false;
    let mut crash_after_jobs: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--journal" => {
                journal_dir = Some(
                    args.get(i + 1)
                        .cloned()
                        .ok_or_else(|| ReproError::usage("--journal needs a directory"))?,
                );
                i += 2;
                continue;
            }
            "--resume" => {
                resume = true;
                i += 1;
                continue;
            }
            "--crash-after-jobs" => {
                crash_after_jobs = Some(
                    args.get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| ReproError::usage("--crash-after-jobs needs a count"))?,
                );
                i += 2;
                continue;
            }
            _ => {}
        }
        match args[i].as_str() {
            "--scale" => {
                scale = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| ReproError::usage("--scale needs a number"))?;
                i += 2;
            }
            "--jobs" => {
                let raw = args
                    .get(i + 1)
                    .ok_or_else(|| ReproError::usage("--jobs needs a value"))?;
                jobs = sim_exec::parse_jobs_spec(raw);
                if jobs.is_none() {
                    eprintln!(
                        "warning: ignoring --jobs {raw:?} (expected a positive integer); \
                         using auto parallelism"
                    );
                }
                i += 2;
            }
            "--telemetry-dir" => {
                telemetry_dir = Some(
                    args.get(i + 1)
                        .cloned()
                        .ok_or_else(|| ReproError::usage("--telemetry-dir needs a path"))?,
                );
                i += 2;
            }
            other => {
                what = other.to_string();
                i += 1;
            }
        }
    }

    if (resume || crash_after_jobs.is_some()) && journal_dir.is_none() {
        return Err(ReproError::usage(
            "--resume/--crash-after-jobs require --journal DIR",
        ));
    }
    let jctx = journal_dir.map(|dir| JournalCtx {
        dir,
        resume,
        crash_after_jobs,
    });

    match render_target(&what, scale, jobs, jctx.as_ref()) {
        Ok(Some(text)) => print!("{text}"),
        Ok(None) => return Err(ReproError::usage(format!("unknown target: {what}"))),
        Err(FigError::Interrupted { journal, done }) => {
            eprintln!(
                "interrupted: {} job(s) completed and journaled in {journal}",
                done.len()
            );
            for label in &done {
                eprintln!("  done {label}");
            }
            eprintln!("re-run with --resume to pick up where this left off");
            return Err(ReproError::interrupted("figure sweep interrupted"));
        }
        Err(FigError::Failed(e)) => {
            return Err(ReproError::runtime(e, &Probe::disabled()));
        }
    }

    if let Some(dir) = &telemetry_dir {
        let figures: Vec<&str> = if what == "all" {
            FIGURES.to_vec()
        } else if FIGURES.contains(&what.as_str()) {
            vec![what.as_str()]
        } else {
            println!("(no telemetry series for target {what})");
            Vec::new()
        };
        for fig in figures {
            dump_figure_telemetry(dir, fig, scale)?;
        }
    }
    Ok(())
}

/// Renders one named target (or `all`) to a string; `Ok(None)` for unknown
/// targets, `Err` when a simulation job failed or a journaled sweep was
/// interrupted.
fn render_target(
    what: &str,
    scale: f64,
    jobs: Option<usize>,
    jctx: Option<&JournalCtx>,
) -> Result<Option<String>, FigError> {
    if let Some(&(name, designs, render)) = SUITE_TARGETS.iter().find(|t| t.0 == what) {
        return Ok(Some(render(&suite_rows(name, designs, scale, jobs, jctx)?)));
    }
    Ok(Some(match what {
        "table1" => table1(),
        "table3_4" => table3_4(),
        "table9" => table9(),
        "fig5" => fig5(scale, jobs)?,
        "fig10" => predictor_figures(scale, jobs)?.0,
        "fig11" => predictor_figures(scale, jobs)?.1,
        "micro" => micro_diag(),
        "sensitivity" => sensitivity(scale),
        "hetero" => hetero(scale, jobs)?,
        "all" => render_all(scale, jobs, jctx)?,
        _ => return Ok(None),
    }))
}

/// `all`: every paper table and figure, with each (benchmark, design)
/// simulation run once.  One suite sweep over [`suite_union`] feeds
/// Table VII and Figs. 12–16; one detailed SHM pass feeds Figs. 10 and 11.
fn render_all(
    scale: f64,
    jobs: Option<usize>,
    jctx: Option<&JournalCtx>,
) -> Result<String, FigError> {
    let mut out = String::new();
    out.push_str(&table1());
    out.push_str(&table9());
    out.push_str(&table3_4());
    // Fig. 5 copies every trace's events; run after the suite sweep has
    // fragmented the workers' heaps, that copy raised peak RSS by ~25 %.
    out.push_str(&fig5(scale, jobs)?);
    let rows = suite_rows("all", &suite_union(), scale, jobs, jctx)?;
    let (fig10, fig11) = predictor_figures(scale, jobs)?;
    out.push_str(&table7(&rows));
    out.push_str(&fig10);
    out.push_str(&fig11);
    for render in [fig12, fig13, fig14, fig15, fig16] {
        out.push_str(&render(&rows));
    }
    Ok(out)
}

/// Captures one representative telemetry trace for `figure` — the first
/// suite benchmark under the SHM design — into `dir/<figure>.jsonl`.
fn dump_figure_telemetry(dir: &str, figure: &str, scale: f64) -> Result<(), ReproError> {
    std::fs::create_dir_all(dir).map_err(|e| ReproError::usage(format!("create {dir}: {e}")))?;
    let profile = scaled_suite(scale)
        .into_iter()
        .next()
        .ok_or_else(|| ReproError::usage("benchmark suite is empty"))?;
    let trace = profile.generate(shm_bench::trace_seed(profile.name));
    let path = std::path::Path::new(dir).join(format!("{figure}.jsonl"));
    // Stream the JSONL document to disk as the run produces it rather than
    // buffering the whole trace in memory.
    let probe = Probe::enabled_streaming(TelemetryConfig::default(), &path)
        .map_err(|e| ReproError::usage(format!("create {}: {e}", path.display())))?;
    Simulator::new(&GpuConfig::default(), DesignPoint::Shm)
        .with_probe(probe.clone())
        .run(&trace);
    if let Some(e) = probe.stream_error() {
        return Err(ReproError::runtime(
            format!("write {}: {e}", path.display()),
            &probe,
        ));
    }
    println!("telemetry for {figure} streamed to {}", path.display());
    Ok(())
}

/// Sensitivity analysis for the design choices DESIGN.md calls out:
/// metadata-cache capacity, chunk size and read-only region size on suite
/// benchmarks, then the integrity-tree arity and MAC width on micro traces.
fn sensitivity(scale: f64) -> String {
    use gpu_types::MdcConfig;
    let mut out = String::new();
    let profiles: Vec<_> = scaled_suite(scale)
        .into_iter()
        .filter(|p| ["fdtd2d", "kmeans", "bfs", "lbm"].contains(&p.name))
        .collect();

    let _ = writeln!(
        out,
        "\n== Sensitivity: metadata-cache capacity (SHM normalized IPC) =="
    );
    let _ = write!(out, "{:<12}", "benchmark");
    for kb in [1u64, 2, 4, 8] {
        let _ = write!(out, "{:>10}", format!("{kb} KB"));
    }
    let _ = writeln!(out);
    for p in &profiles {
        let trace = p.generate(shm_bench::trace_seed(p.name));
        let _ = write!(out, "{:<12}", p.name);
        for kb in [1u64, 2, 4, 8] {
            let cfg = GpuConfig {
                mdc: MdcConfig {
                    cache_bytes: kb * 1024,
                    ..MdcConfig::default()
                },
                ..GpuConfig::default()
            };
            let base = Simulator::new(&cfg, DesignPoint::Unprotected).run(&trace);
            let s = Simulator::new(&cfg, DesignPoint::Shm).run(&trace);
            let _ = write!(out, "{:>10.4}", base.cycles as f64 / s.cycles as f64);
        }
        let _ = writeln!(out);
    }

    let _ = writeln!(
        out,
        "\n== Sensitivity: streaming chunk size (SHM normalized IPC) =="
    );
    let _ = write!(out, "{:<12}", "benchmark");
    for kb in [2u64, 4, 8] {
        let _ = write!(out, "{:>10}", format!("{kb} KB"));
    }
    let _ = writeln!(out);
    let base_cfg = GpuConfig::default();
    for p in &profiles {
        let trace = p.generate(shm_bench::trace_seed(p.name));
        let base = Simulator::new(&base_cfg, DesignPoint::Unprotected).run(&trace);
        let _ = write!(out, "{:<12}", p.name);
        for kb in [2u64, 4, 8] {
            let shm_cfg = ShmConfig {
                chunk_bytes: kb * 1024,
                tracker_phase_accesses: (kb * 1024 / 128) as u32,
                ..ShmConfig::default()
            };
            let s = Simulator::new(&base_cfg, DesignPoint::Shm)
                .with_shm_config(shm_cfg)
                .run(&trace);
            let _ = write!(out, "{:>10.4}", base.cycles as f64 / s.cycles as f64);
        }
        let _ = writeln!(out);
    }

    let _ = writeln!(
        out,
        "\n== Sensitivity: read-only region size (SHM normalized IPC) =="
    );
    let _ = write!(out, "{:<12}", "benchmark");
    for kb in [4u64, 16, 64] {
        let _ = write!(out, "{:>10}", format!("{kb} KB"));
    }
    let _ = writeln!(out);
    for p in &profiles {
        let trace = p.generate(shm_bench::trace_seed(p.name));
        let base = Simulator::new(&base_cfg, DesignPoint::Unprotected).run(&trace);
        let _ = write!(out, "{:<12}", p.name);
        for kb in [4u64, 16, 64] {
            let shm_cfg = ShmConfig {
                readonly_region_bytes: kb * 1024,
                ..ShmConfig::default()
            };
            let s = Simulator::new(&base_cfg, DesignPoint::Shm)
                .with_shm_config(shm_cfg)
                .run(&trace);
            let _ = write!(out, "{:>10.4}", base.cycles as f64 / s.cycles as f64);
        }
        let _ = writeln!(out);
    }
    out.push_str(&metadata_geometry_sensitivity());
    out
}

/// Integrity-tree arity and MAC width under PSSM, on fixed micro traces (no
/// `--scale`): a narrower tree is deeper, so counter misses walk more BMT
/// nodes; a 4 B MAC halves MAC traffic but falls below the Section III-C
/// birthday bound on 4 GB of protected memory.
fn metadata_geometry_sensitivity() -> String {
    use gpu_types::{MdcConfig, TrafficClass};
    let pssm = |mdc: MdcConfig, trace: &gpu_mem_sim::ContextTrace| {
        let cfg = GpuConfig {
            mdc,
            ..GpuConfig::default()
        };
        Simulator::new(&cfg, DesignPoint::Pssm).run(trace)
    };
    let mut out = String::new();

    let random = shm_workloads::micro::pure_random_read(4 << 20, 20_000, 3);
    let _ = writeln!(
        out,
        "\n== Sensitivity: tree arity (PSSM, random reads): BMT bytes =="
    );
    let _ = write!(out, "{:<12}", "trace");
    for arity in [4u64, 8, 16] {
        let _ = write!(out, "{:>10}", format!("{arity}-ary"));
    }
    let _ = write!(out, "\n{:<12}", "random");
    for arity in [4u64, 8, 16] {
        let mdc = MdcConfig {
            tree_arity: arity,
            ..MdcConfig::default()
        };
        let s = pssm(mdc, &random);
        let _ = write!(out, "{:>10}", s.traffic.class_total(TrafficClass::Bmt));
    }
    let _ = writeln!(out);

    let stream = shm_workloads::micro::pure_stream_read(12 * 16 * 4096);
    let _ = writeln!(
        out,
        "\n== Sensitivity: MAC width (PSSM, streaming reads): MAC bytes + birthday-resistant =="
    );
    let _ = write!(out, "{:<12}", "metric");
    for mac_bytes in [4u64, 8] {
        let _ = write!(out, "{:>10}", format!("{mac_bytes} B"));
    }
    let (mut traffic, mut resists) = (String::new(), String::new());
    for mac_bytes in [4u64, 8] {
        let mdc = MdcConfig {
            mac_bytes_per_block: mac_bytes,
            ..MdcConfig::default()
        };
        let s = pssm(mdc, &stream);
        let _ = write!(traffic, "{:>10}", s.traffic.class_total(TrafficClass::Mac));
        let bits = (mac_bytes * 8) as u32;
        let _ = write!(
            resists,
            "{:>10}",
            shm_metadata::layout::mac_resists_birthday_attack(bits, 4 << 30)
        );
    }
    let _ = writeln!(
        out,
        "\n{:<12}{traffic}\n{:<12}{resists}",
        "MAC bytes", "birthday"
    );
    out
}

/// Heterogeneous-pool placement sweep: the confidential-AI profiles under
/// every placement policy.  `SHM_POOL_*` / `SHM_LINK_*` knobs shape the
/// pool geometry; not part of `all` (the paper tables stay single-pool).
fn hetero(scale: f64, jobs: Option<usize>) -> Result<String, String> {
    let rows = shm_bench::pool::try_run_pool_sweep(&shm_pool::PlacementPolicy::ALL, scale, jobs)
        .map_err(|e| format!("hetero sweep failed: {e}"))?;
    Ok(shm_bench::pool::format_pool_table(&rows))
}

/// Calibration diagnostics: per-class overheads on pure access patterns.
fn micro_diag() -> String {
    let mut out = String::new();
    let cfg = GpuConfig::default();
    let stream = shm_workloads::micro::pure_stream_read(12 * 64 * 4096);
    let swrite = shm_workloads::micro::pure_stream_write(12 * 64 * 4096);
    let random = shm_workloads::micro::pure_random_read(8 << 20, 60_000, 9);
    {
        let (s, parts) = Simulator::new(&cfg, DesignPoint::Naive).run_inspect(&stream);
        let _ = writeln!(out, "naive stream-read: cycles={}", s.cycles);
        for (i, (r, w, free)) in parts.iter().enumerate() {
            let _ = writeln!(out, "  P{i:<3} read={r:<9} write={w:<9} bus_free={free}");
        }
    }
    for (label, trace) in [
        ("stream-read", &stream),
        ("stream-write", &swrite),
        ("random-read", &random),
    ] {
        let _ = writeln!(out, "\n-- {label} --");
        for d in [
            DesignPoint::Unprotected,
            DesignPoint::Naive,
            DesignPoint::CommonCtr,
            DesignPoint::Pssm,
            DesignPoint::ShmReadOnly,
            DesignPoint::Shm,
        ] {
            let s = Simulator::new(&cfg, d).run(trace);
            let _ = write!(
                out,
                "  {:<14} cycles={:<9} ovh={:<7.3} hits={:<6} miss={:<6} data={:<9}",
                d.name(),
                s.cycles,
                s.traffic.overhead_ratio(),
                s.l2_hits,
                s.l2_misses,
                s.traffic.data_bytes()
            );
            let n = (s.l2_hits + s.l2_misses).max(1);
            let _ = write!(
                out,
                " lat_avg={:.0} lat_max={}",
                s.lat_sum as f64 / n as f64,
                s.lat_max
            );
            for (l, v) in traffic_breakdown(&s) {
                let _ = write!(out, " {l}={v:.3}");
            }
            let _ = writeln!(out);
        }
    }
    out
}

/// Table I/II: security mechanisms per memory space and data class.
fn table1() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n== Table I: security mechanisms for GPU heterogeneous memory =="
    );
    use gpu_types::MemorySpace::*;
    for (space, loc) in [
        (Global, "off-chip"),
        (Local, "off-chip"),
        (Constant, "off-chip"),
        (Texture, "off-chip"),
        (Instruction, "off-chip"),
    ] {
        let _ = writeln!(
            out,
            "{:<14} {:<10} {}",
            space.to_string(),
            loc,
            required_mechanisms(space).notation()
        );
    }
    let _ = writeln!(
        out,
        "(register / shared memory / caches: on-chip, no mechanisms)"
    );

    let _ = writeln!(
        out,
        "\n== Table II: security mechanisms for application data =="
    );
    for (d, label) in [
        (DataProperty::ApplicationCode, "application code"),
        (DataProperty::Input, "input"),
        (DataProperty::Output, "output"),
        (DataProperty::InFlight, "in-flight data"),
    ] {
        let prop = if d.is_read_only() {
            "read-only"
        } else {
            "read/write"
        };
        let _ = writeln!(out, "{label:<18} {prop:<11} {}", d.required().notation());
    }
    out
}

/// Table IX: hardware storage overhead of the predictors and trackers.
fn table9() -> String {
    let mut out = String::new();
    let cfg = GpuConfig::default();
    let shm = ShmConfig::default();
    let _ = writeln!(out, "\n== Table IX: hardware overhead ==");
    let _ = writeln!(
        out,
        "read-only predictor : {} entries x 1 bit = {} B/partition",
        shm.readonly_predictor_entries,
        shm.readonly_predictor_entries / 8
    );
    let _ = writeln!(
        out,
        "streaming predictor : {} entries x 1 bit = {} B/partition",
        shm.streaming_predictor_entries,
        shm.streaming_predictor_entries / 8
    );
    let _ = writeln!(
        out,
        "access trackers     : {} x 71 bit = {} B/partition",
        shm.num_trackers,
        shm.num_trackers * 71 / 8
    );
    let _ = writeln!(
        out,
        "TOTAL ({} partitions): {} B ({:.2} KB)",
        cfg.num_partitions,
        shm.total_storage_bytes(cfg.num_partitions),
        shm.total_storage_bytes(cfg.num_partitions) as f64 / 1024.0
    );
    out
}

/// Tables III/IV: misprediction handling — demonstrated by measuring the
/// fix-up traffic of deliberately adversarial access patterns.
fn table3_4() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n== Tables III/IV: misprediction handling (fix-up traffic measured) =="
    );
    let cfg = GpuConfig::default();

    // Stream-predicted chunk that is actually random (reads): the failed
    // second-chance check falls back to the per-block MAC and corrects the
    // predictor (Table III, read rows).
    let trace = shm_workloads::micro::pure_random_read(8 << 20, 40_000, 7);
    let stats = Simulator::new(&cfg, DesignPoint::Shm).run(&trace);
    let _ = writeln!(
        out,
        "random-read trace (predicted streaming at init): fixup bytes = {}  stream mispredictions = {}",
        stats
            .traffic
            .class_total(gpu_types::TrafficClass::MispredictFixup),
        stats.stream_mispredictions
    );

    // Stream-predicted chunks written randomly: the costliest case — block
    // MACs went stale under chunk-MAC mode, so detection re-fetches the
    // chunk's data blocks to reproduce them (Table IV, stream→random row).
    let trace = shm_workloads::micro::pure_random_write(16 << 20, 200_000, 7);
    let stats = Simulator::new(&cfg, DesignPoint::Shm).run(&trace);
    let _ = writeln!(
        out,
        "random-write trace (predicted streaming at init): fixup bytes = {}  stream mispredictions = {}",
        stats
            .traffic
            .class_total(gpu_types::TrafficClass::MispredictFixup),
        stats.stream_mispredictions
    );

    // Fully streaming read over read-only data: zero fix-up expected.
    let trace = shm_workloads::micro::pure_stream_read(12 * 8 * 4096);
    let stats = Simulator::new(&cfg, DesignPoint::Shm).run(&trace);
    let _ = writeln!(
        out,
        "read-only streaming trace (correct prediction): fixup bytes = {}  stream mispredictions = {}",
        stats
            .traffic
            .class_total(gpu_types::TrafficClass::MispredictFixup),
        stats.stream_mispredictions
    );
    out
}

/// Table VII: measured bandwidth utilisation and memory-space usage.
fn table7(rows: &[BenchRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n== Table VII: benchmarks (measured on the unprotected baseline) =="
    );
    let _ = writeln!(
        out,
        "{:<16}{:>12}{:>12}{:>18}",
        "benchmark", "bw util", "l2 miss", "memory space"
    );
    let cfg = GpuConfig::default();
    let peak_bytes_per_cycle = cfg.partition_bytes_per_cycle() * cfg.num_partitions as f64;
    for row in rows {
        let stats = &row.stats[DesignPoint::Unprotected.name()];
        let spaces = if BenchmarkProfile::by_name(&row.name).is_some_and(|p| p.uses_texture) {
            "constant/texture"
        } else {
            "constant"
        };
        let _ = writeln!(
            out,
            "{:<16}{:>11.1}%{:>11.1}%{:>18}",
            row.name,
            stats.bandwidth_utilization(peak_bytes_per_cycle) * 100.0,
            stats.l2_miss_rate() * 100.0,
            spaces
        );
    }
    out
}

/// Fig. 5: fraction of accesses touching streaming and read-only data.
fn fig5(scale: f64, jobs: Option<usize>) -> Result<String, String> {
    let map = GpuConfig::default().partition_map();
    let profiles = scaled_suite(scale);
    let rows: Vec<(String, Vec<f64>)> = Executor::from_request(jobs)
        .try_map(
            &profiles,
            |_, p| format!("fig5 {}", p.name),
            |_, p| {
                let trace = p.generate(shm_bench::trace_seed(p.name));
                let events: Vec<_> = trace.all_events().cloned().collect();
                let oracle = OracleProfile::from_trace(&events, map);
                (
                    p.name.to_string(),
                    vec![
                        oracle.streaming_fraction(&events, map),
                        oracle.read_only_fraction(&events, map),
                    ],
                )
            },
        )
        .map_err(|e| format!("fig5 sweep failed: {e}"))?;
    Ok(format_table(
        "Fig. 5: streaming / read-only access fractions",
        &["streaming", "read-only"],
        &rows,
    ))
}

/// Each of `counts` as a fraction of `total`.
fn fractions(total: u64, counts: &[u64]) -> Vec<f64> {
    let t = total.max(1) as f64;
    counts.iter().map(|&c| c as f64 / t).collect()
}

/// Figs. 10 and 11 from one detailed SHM run per suite benchmark: the
/// read-only and the streaming prediction breakdowns, each as fractions of
/// all predictions.
fn predictor_figures(scale: f64, jobs: Option<usize>) -> Result<(String, String), String> {
    let cfg = GpuConfig::default();
    let profiles = scaled_suite(scale);
    let (read_only, streaming): (Vec<_>, Vec<_>) = Executor::from_request(jobs)
        .try_map(
            &profiles,
            |_, p| format!("SHM predictors {}", p.name),
            |_, p| {
                let trace = p.generate(shm_bench::trace_seed(p.name));
                let (_, ro, st) = Simulator::new(&cfg, DesignPoint::Shm).run_detailed(&trace);
                let name = p.name.to_string();
                (
                    (
                        name.clone(),
                        fractions(ro.total(), &[ro.correct, ro.mp_init, ro.mp_aliasing]),
                    ),
                    (
                        name,
                        fractions(
                            st.total(),
                            &[
                                st.correct,
                                st.mp_init,
                                st.mp_runtime_read_only,
                                st.mp_runtime_non_read_only,
                                st.mp_aliasing,
                            ],
                        ),
                    ),
                )
            },
        )
        .map_err(|e| format!("SHM predictor sweep failed: {e}"))?
        .into_iter()
        .unzip();
    Ok((
        format_table(
            "Fig. 10: read-only prediction breakdown",
            &["correct", "mp_init", "mp_aliasing"],
            &read_only,
        ),
        format_table(
            "Fig. 11: streaming prediction breakdown",
            &["correct", "mp_init", "mp_rt_ro", "mp_rt_nro", "mp_alias"],
            &streaming,
        ),
    ))
}

/// One table row per benchmark: `metric` of every design in `designs`.
fn design_table(
    title: &str,
    designs: &[DesignPoint],
    rows: &[BenchRow],
    metric: impl Fn(&BenchRow, DesignPoint) -> f64,
) -> String {
    let header: Vec<&str> = designs.iter().map(|d| d.name()).collect();
    let rows: Vec<(String, Vec<f64>)> = rows
        .iter()
        .map(|row| {
            (
                row.name.clone(),
                designs.iter().map(|&d| metric(row, d)).collect(),
            )
        })
        .collect();
    format_table(title, &header, &rows)
}

/// Fig. 12: normalized IPC of the main designs.
fn fig12(rows: &[BenchRow]) -> String {
    design_table(
        "Fig. 12: normalized IPC",
        FIG12_DESIGNS,
        rows,
        BenchRow::norm_ipc,
    )
}

/// Fig. 13: optimisation breakdown.
fn fig13(rows: &[BenchRow]) -> String {
    design_table(
        "Fig. 13: performance impact of each optimisation",
        FIG13_DESIGNS,
        rows,
        BenchRow::norm_ipc,
    )
}

/// Fig. 14: bandwidth overheads of security metadata.
fn fig14(rows: &[BenchRow]) -> String {
    let designs = FIG14_DESIGNS;
    let mut out = design_table(
        "Fig. 14: bandwidth overhead (metadata bytes / data bytes)",
        designs,
        rows,
        BenchRow::bandwidth_overhead,
    );
    let mut breakdown_acc: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for row in rows {
        for (di, d) in designs.iter().enumerate() {
            for (label, v) in traffic_breakdown(&row.stats[d.name()]) {
                breakdown_acc
                    .entry(label)
                    .or_insert_with(|| vec![0.0; designs.len()])[di] += v;
            }
        }
    }
    let _ = writeln!(
        out,
        "\nmean per-class breakdown (normalized to data bytes):"
    );
    let n = rows.len() as f64;
    for (label, sums) in &breakdown_acc {
        let _ = write!(out, "  {label:<8}");
        for s in sums {
            let _ = write!(out, "{:>12.4}", s / n);
        }
        let _ = writeln!(out);
    }
    out
}

/// Fig. 15: normalized energy per instruction.
fn fig15(rows: &[BenchRow]) -> String {
    let model = EnergyModel::default();
    design_table(
        "Fig. 15: normalized energy per instruction",
        FIG15_DESIGNS,
        rows,
        |row, d| row.normalized_energy(d, &model),
    )
}

/// Fig. 16: SHM vs SHM with the L2 victim cache.
fn fig16(rows: &[BenchRow]) -> String {
    let mut out = design_table(
        "Fig. 16: L2 as victim cache for security metadata",
        FIG16_DESIGNS,
        rows,
        BenchRow::norm_ipc,
    );
    let gain: Vec<f64> = rows
        .iter()
        .map(|row| row.norm_ipc(DesignPoint::ShmVL2) - row.norm_ipc(DesignPoint::Shm))
        .collect();
    let _ = writeln!(out, "mean vL2 gain: {:+.4} normalized IPC", mean(&gain));
    out
}

#[cfg(test)]
mod tests {
    use super::metadata_geometry_sensitivity;

    /// The numbers of the row labelled `label` in `section`.
    fn row<'a>(section: &'a str, label: &str) -> Vec<&'a str> {
        let line = section
            .lines()
            .find_map(|l| l.strip_prefix(label))
            .unwrap_or_else(|| panic!("no {label} row in:\n{section}"));
        line.split_whitespace().collect()
    }

    #[test]
    fn sensitivity_covers_tree_arity_and_mac_width() {
        let text = metadata_geometry_sensitivity();
        let (arity, mac) = text
            .split_once("\n\n== Sensitivity: MAC width")
            .expect("MAC-width section follows the tree-arity section");
        assert!(arity.contains("== Sensitivity: tree arity (PSSM, random reads): BMT bytes =="));

        // A narrower tree is deeper: BMT traffic falls from 4- to 8- to 16-ary.
        let bmt: Vec<u64> = row(arity, "random")
            .iter()
            .map(|v| v.parse().unwrap())
            .collect();
        assert_eq!(bmt.len(), 3, "{arity}");
        assert!(bmt[0] > bmt[1] && bmt[1] > bmt[2], "BMT bytes {bmt:?}");

        // Truncating the MAC to 4 B halves its traffic exactly, and only the
        // 8 B MAC clears the birthday bound.
        let macs: Vec<u64> = row(mac, "MAC bytes")
            .iter()
            .map(|v| v.parse().unwrap())
            .collect();
        assert_eq!(macs.len(), 2, "{mac}");
        assert!(macs[0] > 0);
        assert_eq!(2 * macs[0], macs[1], "MAC bytes {macs:?}");
        assert_eq!(row(mac, "birthday"), ["false", "true"]);
    }
}
