//! The library workloads: traces built in set-up, then passes of
//! `Simulator::run` jobs through `sim_exec::Executor`, timed from outside.

use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use gpu_mem_sim::{ContextTrace, DesignPoint, EnergyModel, Simulator};
use gpu_types::{GpuConfig, SimStats, TrafficClass};
use shm::OracleProfile;
use shm_pool::{PlacementPolicy, PoolsConfig};
use shm_workloads::BenchmarkProfile;
use sim_exec::Executor;

use crate::spans::Recorder;
use crate::stats::{self, Ledger};

/// Profiles whose `write_frac` is below this form `sweep_read_mostly`.
pub const WRITE_FRAC_SPLIT: f64 = 0.2;

/// One simulation: a trace, a design and, for pooled runs, a placement policy.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    /// Index into [`Input::traces`].
    pub trace: usize,
    /// Design point simulated.
    pub design: DesignPoint,
    /// Heterogeneous-pool policy; `None` runs single-pool.
    pub policy: Option<PlacementPolicy>,
}

impl Job {
    fn label(&self, input: &Input) -> String {
        let mut s = format!(
            "{} under {}",
            input.traces[self.trace].name,
            self.design.name()
        );
        if let Some(p) = self.policy {
            s.push_str(" pooled ");
            s.push_str(p.label());
        }
        s
    }

    fn is_base(&self) -> bool {
        self.design == DesignPoint::Unprotected && self.policy.is_none()
    }

    fn is_unpooled_shm(&self) -> bool {
        self.design == DesignPoint::Shm && self.policy.is_none()
    }
}

/// Everything set-up builds: the traces and the jobs over them.
pub struct Input {
    /// One trace per profile.
    pub traces: Vec<ContextTrace>,
    /// Warp-level accesses (events) in each trace.
    pub events: Vec<u64>,
    /// Jobs of one pass, in submission order.
    pub jobs: Vec<Job>,
}

/// The trace seed of `name` under benchmark seed `seed`: seed 0 is the
/// `repro` binary's canonical `trace_seed(name)`, any other seed is mixed
/// into it.
pub fn mixed_seed(name: &str, seed: u64) -> u64 {
    let canonical = shm_bench::trace_seed(name);
    if seed == 0 {
        canonical
    } else {
        splitmix64(canonical ^ splitmix64(seed))
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generates one trace per profile and lists `designs × policies` jobs over
/// them; each trace-generation call is recorded in `spans`.
pub fn build_input(
    profiles: &[BenchmarkProfile],
    seed: u64,
    designs: &[(DesignPoint, Option<PlacementPolicy>)],
    spans: &mut Recorder,
) -> Input {
    let traces: Vec<ContextTrace> = profiles
        .iter()
        .map(|p| {
            let id = spans.enter("workloads", format!("generate {}", p.name), None);
            let trace = p.generate(mixed_seed(p.name, seed));
            spans.exit(id);
            trace
        })
        .collect();
    let events = traces
        .iter()
        .map(|t| t.all_events().count() as u64)
        .collect();
    let jobs = (0..traces.len())
        .flat_map(|trace| {
            designs.iter().map(move |&(design, policy)| Job {
                trace,
                design,
                policy,
            })
        })
        .collect();
    Input {
        traces,
        events,
        jobs,
    }
}

/// Runs one job the way `repro` does: a fresh simulator with cold caches.
pub fn simulate(trace: &ContextTrace, job: &Job) -> SimStats {
    let sim = Simulator::new(&GpuConfig::default(), job.design);
    match job.policy {
        // `PoolsConfig::new`, never `from_env`: the environment must not
        // change what is measured.
        Some(policy) => sim.with_pools(PoolsConfig::new(policy)).run(trace),
        None => sim.run(trace),
    }
}

/// Per-job outcome of one pass: stats and host time inside `Simulator::run`,
/// or the panic message.
pub type JobOutcome = Result<(SimStats, u64), String>;

/// One pass over every job of an [`Input`].
pub struct Pass {
    /// Per-job outcomes, in submission order.
    pub jobs: Vec<JobOutcome>,
    /// Wall time of the whole pass.
    pub wall_s: f64,
}

/// Runs every job on an `Executor` of `workers` threads.  The pass runs on
/// its own thread; if it has not returned after `limit` (the known
/// work-stealing deadlock in `sim-exec` would do that), `None` is returned
/// and the stuck thread is abandoned — it cannot be stopped from outside,
/// and the process exit ends it.
pub fn run_pass(input: &Arc<Input>, workers: usize, limit: Duration) -> Option<Pass> {
    let (tx, rx) = mpsc::channel();
    let input = Arc::clone(input);
    std::thread::spawn(move || {
        let t0 = Instant::now();
        let jobs = Executor::new(workers)
            .map(&input.jobs, |_, job| {
                let trace = &input.traces[job.trace];
                let t = Instant::now();
                let stats = simulate(trace, job);
                (stats, t.elapsed().as_nanos() as u64)
            })
            .into_iter()
            .map(|r| r.map_err(|p| p.message))
            .collect();
        let _ = tx.send(Pass {
            jobs,
            wall_s: t0.elapsed().as_secs_f64(),
        });
    });
    rx.recv_timeout(limit).ok()
}

/// One serial pass with a span around every call into a layer.  The oracle
/// pre-pass that `Simulator::run` performs for SHM designs is repeated on
/// its own, so its time can be taken out of the SHM engine's.
pub fn traced_pass(input: &Input, spans: &mut Recorder) -> (Pass, Vec<JobTiming>) {
    let cfg = GpuConfig::default();
    let t0 = Instant::now();
    let pass_id = spans.enter("perfbench", "pass".into(), None);
    let mut outcomes = Vec::with_capacity(input.jobs.len());
    let mut timings = Vec::with_capacity(input.jobs.len());
    for job in &input.jobs {
        let trace = &input.traces[job.trace];
        let job_id = spans.enter("perfbench", job.label(input), Some(pass_id));
        let oracle_ns = job.design.shm_variant().map(|_| {
            let id = spans.enter("shm", "OracleProfile::from_trace".into(), Some(job_id));
            std::hint::black_box(OracleProfile::from_trace(
                trace.all_events(),
                cfg.partition_map(),
            ));
            spans.exit(id)
        });
        let id = spans.enter("gpu-mem-sim", "Simulator::run".into(), Some(job_id));
        let stats = simulate(trace, job);
        let run_ns = spans.exit(id);
        spans.exit(job_id);
        outcomes.push(Ok((stats, run_ns)));
        timings.push(JobTiming { run_ns, oracle_ns });
    }
    spans.exit(pass_id);
    let pass = Pass {
        jobs: outcomes,
        wall_s: t0.elapsed().as_secs_f64(),
    };
    (pass, timings)
}

/// Host time of one traced job.
#[derive(Clone, Copy, Debug)]
pub struct JobTiming {
    /// Time inside `Simulator::run`.
    pub run_ns: u64,
    /// Time of the separately repeated oracle pre-pass (SHM designs only).
    pub oracle_ns: Option<u64>,
}

/// Checks one pass and records its jobs in `ledger`: every job that
/// panicked, every trace whose designs disagree on instruction count, every
/// Unprotected run with metadata traffic, and every job whose stats differ
/// from `reference` (an earlier pass, possibly at another worker count)
/// counts one failure.  Returns the stats if no job panicked.
pub fn check_pass(
    input: &Input,
    pass: &Pass,
    reference: Option<&[SimStats]>,
    ledger: &mut Ledger,
) -> Option<Vec<SimStats>> {
    ledger.attempt(input.jobs.len() as u64);
    let mut stats = Vec::with_capacity(pass.jobs.len());
    for (job, outcome) in input.jobs.iter().zip(&pass.jobs) {
        match outcome {
            Ok((s, _)) => stats.push(s.clone()),
            Err(msg) => ledger.fail(format!("{} panicked: {msg}", job.label(input))),
        }
    }
    if stats.len() != input.jobs.len() {
        return None;
    }
    for (t, trace) in input.traces.iter().enumerate() {
        let mut instr = input
            .jobs
            .iter()
            .zip(&stats)
            .filter(|(j, _)| j.trace == t)
            .map(|(_, s)| s.instructions);
        let first = instr.next();
        if instr.any(|i| Some(i) != first) {
            ledger.fail(format!(
                "{}: instructions differ across designs",
                trace.name
            ));
        }
    }
    for (job, s) in input.jobs.iter().zip(&stats) {
        if job.is_base() && s.traffic.metadata_bytes() != 0 {
            ledger.fail(format!(
                "{}: Unprotected run has metadata bytes",
                job.label(input)
            ));
        }
    }
    if let Some(reference) = reference {
        for ((job, s), r) in input.jobs.iter().zip(&stats).zip(reference) {
            if s != r {
                ledger.fail(format!(
                    "{}: stats differ from the first pass",
                    job.label(input)
                ));
            }
        }
    }
    Some(stats)
}

/// Mean over traces of SHM's normalized IPC, metadata-bandwidth overhead
/// and normalized energy per instruction against the Unprotected run of the
/// same trace (the SHM column of Figs. 12, 14 and 15).
pub fn shm_means(input: &Input, stats: &[SimStats]) -> [f64; 3] {
    let model = EnergyModel::default();
    let find = |t: usize, pred: fn(&Job) -> bool| {
        input
            .jobs
            .iter()
            .zip(stats)
            .find(|(j, _)| j.trace == t && pred(j))
            .map(|(_, s)| s)
            .expect("every workload runs Unprotected and SHM on every trace")
    };
    let per_trace: Vec<[f64; 3]> = (0..input.traces.len())
        .map(|t| {
            let base = find(t, Job::is_base);
            let shm = find(t, Job::is_unpooled_shm);
            [
                shm_bench::normalized_ipc(shm, base),
                shm.traffic.overhead_ratio(),
                model.normalized_epi(shm, base),
            ]
        })
        .collect();
    let n = per_trace.len() as f64;
    [0, 1, 2].map(|i| per_trace.iter().map(|v| v[i]).sum::<f64>() / n)
}

/// Per-layer counts and ratios of one pass, from `SimStats` only, so they
/// repeat exactly between traced and untraced runs.
pub fn layer_counts(input: &Input, stats: &[SimStats]) -> BTreeMap<&'static str, f64> {
    let sum = |pred: &dyn Fn(&Job) -> bool, f: &dyn Fn(&SimStats) -> u64| -> f64 {
        let total: u64 = input
            .jobs
            .iter()
            .zip(stats)
            .filter(|(j, _)| pred(j))
            .map(|(_, s)| f(s))
            .sum();
        total as f64
    };
    let events = |pred: &dyn Fn(&Job) -> bool| -> f64 {
        let total: u64 = input
            .jobs
            .iter()
            .filter(|j| pred(j))
            .map(|j| input.events[j.trace])
            .sum();
        total as f64
    };
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let all = |_: &Job| true;
    let secure =
        |j: &Job| j.design.baseline_scheme().is_some() && j.design != DesignPoint::Unprotected;
    let shm = |j: &Job| j.design.shm_variant().is_some() && j.policy.is_none();
    let pooled = |j: &Job| j.policy.is_some();

    let mut m = BTreeMap::new();
    m.insert("workloads.events", input.events.iter().sum::<u64>() as f64);
    let l2_hits = sum(&all, &|s| s.l2_hits);
    let l2_misses = sum(&all, &|s| s.l2_misses);
    m.insert("gpu-mem-sim.l2_hits", l2_hits);
    m.insert("gpu-mem-sim.l2_misses", l2_misses);
    m.insert("gpu-mem-sim.l2_writebacks", sum(&all, &|s| s.l2_writebacks));
    m.insert("gpu-mem-sim.dram_requests", sum(&all, &|s| s.dram_requests));
    m.insert(
        "gpu-mem-sim.l2_hit_ratio",
        ratio(l2_hits, l2_hits + l2_misses),
    );

    type Field = fn(&SimStats) -> u64;
    let caches: [(&'static str, Field, &'static str, Field); 3] = [
        (
            "secure-core.ctr_hits",
            |s| s.ctr_hits,
            "secure-core.ctr_misses",
            |s| s.ctr_misses,
        ),
        (
            "secure-core.mac_hits",
            |s| s.mac_hits,
            "secure-core.mac_misses",
            |s| s.mac_misses,
        ),
        (
            "secure-core.bmt_hits",
            |s| s.bmt_hits,
            "secure-core.bmt_misses",
            |s| s.bmt_misses,
        ),
    ];
    let mut mdc = [0.0; 2];
    for (hit_name, hit, miss_name, miss) in caches {
        let (h, x) = (sum(&secure, &hit), sum(&secure, &miss));
        mdc[0] += h;
        mdc[1] += x;
        m.insert(hit_name, h);
        m.insert(miss_name, x);
    }
    m.insert("secure-core.mdc_hit_ratio", ratio(mdc[0], mdc[0] + mdc[1]));
    for (name, class) in [
        ("secure-core.meta_bytes.counter", TrafficClass::Counter),
        ("secure-core.meta_bytes.mac", TrafficClass::Mac),
        ("secure-core.meta_bytes.bmt", TrafficClass::Bmt),
    ] {
        m.insert(name, sum(&secure, &|s| s.traffic.class_total(class)));
    }

    m.insert(
        "shm.readonly_fast_path",
        sum(&shm, &|s| s.readonly_fast_path),
    );
    m.insert(
        "shm.chunk_mac_accesses",
        sum(&shm, &|s| s.chunk_mac_accesses),
    );
    m.insert(
        "shm.stream_mispredictions",
        sum(&shm, &|s| s.stream_mispredictions),
    );
    m.insert(
        "shm.readonly_mispredictions",
        sum(&shm, &|s| s.readonly_mispredictions),
    );
    m.insert("shm.victim_hits", sum(&shm, &|s| s.victim_hits));
    m.insert(
        "shm.fast_path_ratio",
        ratio(sum(&shm, &|s| s.readonly_fast_path), events(&shm)),
    );
    m.insert(
        "shm.fixup_ratio",
        ratio(
            sum(&shm, &|s| {
                s.traffic.class_total(TrafficClass::MispredictFixup)
            }),
            sum(&shm, &|s| s.traffic.data_bytes()),
        ),
    );

    m.insert("pool.migrations", sum(&pooled, &|s| s.pool_migrations));
    m.insert("pool.spills", sum(&pooled, &|s| s.pool_spills));
    m.insert("pool.cpu_accesses", sum(&pooled, &|s| s.pool_cpu_accesses));
    m.insert(
        "pool.capacity_events",
        sum(&pooled, &|s| s.pool_capacity_events),
    );
    m.insert(
        "pool.link_bytes_to_gpu",
        sum(&pooled, &|s| s.link_bytes_to_gpu),
    );
    m.insert(
        "pool.link_bytes_to_cpu",
        sum(&pooled, &|s| s.link_bytes_to_cpu),
    );
    m.insert(
        "pool.remote_ratio",
        ratio(sum(&pooled, &|s| s.pool_cpu_accesses), events(&pooled)),
    );
    m
}

/// Per-layer host times of one traced pass, in milliseconds:
/// `gpu-mem-sim.base_run_ms` (Unprotected runs), `shm.oracle_ms`,
/// `secure-core.self_ms` and `shm.self_ms` (design run minus the
/// Unprotected run of the same trace, minus the oracle for SHM) and
/// `pool.self_ms` (pooled run minus the single-pool SHM run of the trace).
pub fn layer_times(input: &Input, timings: &[JobTiming]) -> BTreeMap<&'static str, f64> {
    let jobs = || input.jobs.iter().zip(timings).enumerate();
    let per_trace = |pred: fn(&Job) -> bool| -> BTreeMap<usize, u64> {
        input
            .jobs
            .iter()
            .zip(timings)
            .filter(|(j, _)| pred(j))
            .map(|(j, t)| (j.trace, t.run_ns))
            .collect()
    };
    let (base, shm_single) = (per_trace(Job::is_base), per_trace(Job::is_unpooled_shm));
    let keyed = |pred: &dyn Fn(&Job) -> bool, by_trace: &BTreeMap<usize, u64>| {
        let runs: Vec<(usize, u64)> = jobs()
            .filter(|(_, (j, _))| pred(j))
            .map(|(i, (_, t))| (i, t.run_ns))
            .collect();
        let base: BTreeMap<usize, u64> = jobs()
            .filter_map(|(i, (j, _))| by_trace.get(&j.trace).map(|&ns| (i, ns)))
            .collect();
        (runs, base)
    };
    let oracle: BTreeMap<usize, u64> = jobs()
        .filter_map(|(i, (_, t))| t.oracle_ns.map(|ns| (i, ns)))
        .collect();
    let none = BTreeMap::new();

    let mut m = BTreeMap::new();
    m.insert(
        "gpu-mem-sim.base_run_ms",
        base.values().sum::<u64>() as f64 / 1e6,
    );
    m.insert("shm.oracle_ms", oracle.values().sum::<u64>() as f64 / 1e6);
    let (runs, b) = keyed(
        &|j| j.policy.is_none() && j.design.baseline_scheme().is_some() && !j.is_base(),
        &base,
    );
    m.insert("secure-core.self_ms", stats::self_time_ms(&runs, &b, &none));
    let (runs, b) = keyed(
        &|j| j.policy.is_none() && j.design.shm_variant().is_some(),
        &base,
    );
    m.insert("shm.self_ms", stats::self_time_ms(&runs, &b, &oracle));
    let (runs, b) = keyed(&|j| j.policy.is_some(), &shm_single);
    m.insert("pool.self_ms", stats::self_time_ms(&runs, &b, &none));
    m
}
