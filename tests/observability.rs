//! Observability must be a pure overlay: metrics, spans and the phase
//! profiler may never change simulation results, and the span tree of a
//! local sweep must reconcile with the sweep's own stats.

use std::sync::Mutex;

use gpu_mem_sim::DesignPoint;
use shm_bench::{scaled_suite, try_run_suite_jobs};
use shm_telemetry::span::{build_job_spans, job_span_id, JobSpanInput, TraceReport, ROOT_SPAN_ID};
use shm_workloads::BenchmarkProfile;

const DESIGNS: &[DesignPoint] = &[DesignPoint::Pssm, DesignPoint::Shm];
const SCALE: f64 = 0.02;

/// Metrics enablement, phase profiling and env knobs are process-global;
/// every test in this binary serializes on this lock and restores the
/// global state it touched.
static GLOBAL_STATE: Mutex<()> = Mutex::new(());

/// The suite sweep's `(profile, design)` job list in submission order:
/// baseline first, then each requested design, per profile.
fn sweep_pairs() -> (Vec<BenchmarkProfile>, Vec<(usize, DesignPoint)>) {
    let profiles = scaled_suite(SCALE);
    let points = [
        DesignPoint::Unprotected,
        DesignPoint::Pssm,
        DesignPoint::Shm,
    ];
    let pairs = (0..profiles.len())
        .flat_map(|p| points.iter().map(move |&d| (p, d)))
        .collect();
    (profiles, pairs)
}

fn sweep_labels() -> Vec<String> {
    let (profiles, pairs) = sweep_pairs();
    pairs
        .iter()
        .map(|&(p, d)| format!("{} under {}", profiles[p].name, d.name()))
        .collect()
}

#[test]
fn observability_disabled_run_matches_enabled_run_exactly() {
    let _lock = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    shm_metrics::set_enabled(false);
    shm_metrics::phase::set_profiling(false);
    let plain = try_run_suite_jobs(DESIGNS, SCALE, Some(1)).expect("plain sweep");

    shm_metrics::set_enabled(true);
    shm_metrics::phase::set_profiling(true);
    shm_metrics::phase::reset_phases();
    let observed = try_run_suite_jobs(DESIGNS, SCALE, Some(1)).expect("observed sweep");
    shm_metrics::set_enabled(false);
    shm_metrics::phase::set_profiling(false);

    assert_eq!(plain.len(), observed.len());
    for (p, o) in plain.iter().zip(&observed) {
        assert_eq!(p.name, o.name);
        assert_eq!(
            p.stats, o.stats,
            "{}: observability changed results",
            p.name
        );
    }
}

#[test]
fn real_run_populates_core_metric_series() {
    let _lock = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    shm_metrics::set_enabled(true);
    let _ = try_run_suite_jobs(DESIGNS, SCALE, Some(1)).expect("sweep");
    let body = shm_metrics::render_prometheus();
    shm_metrics::set_enabled(false);

    for series in [
        "shm_accesses_total",
        "shm_l2_hits_total",
        "shm_l2_misses_total",
        "shm_mac_verifies_total",
    ] {
        assert!(
            body.contains(&format!("# TYPE {series} counter")),
            "{series} TYPE missing"
        );
        let sample = shm_metrics::parse_exposition(&body)
            .into_iter()
            .find(|s| s.name == series)
            .unwrap_or_else(|| panic!("{series} absent from exposition"));
        assert!(sample.value > 0.0, "{series} never incremented");
    }
}

#[test]
fn profiler_disabled_path_records_nothing() {
    let _lock = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    shm_metrics::phase::set_profiling(false);
    shm_metrics::phase::reset_phases();
    let _ = try_run_suite_jobs(DESIGNS, SCALE, Some(1)).expect("sweep");
    assert_eq!(
        shm_metrics::phase::total_nanos(),
        0,
        "disabled profiler must not accrue time"
    );
    assert!(shm_metrics::phase::snapshot().iter().all(|s| s.calls == 0));
}

#[test]
fn profiler_phases_cover_the_simulation() {
    let _lock = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    shm_metrics::phase::set_profiling(true);
    shm_metrics::phase::reset_phases();
    let started = std::time::Instant::now();
    let _ = try_run_suite_jobs(DESIGNS, SCALE, Some(1)).expect("sweep");
    let wall = started.elapsed().as_nanos() as u64;
    let covered = shm_metrics::phase::total_nanos();
    shm_metrics::phase::set_profiling(false);

    assert!(covered > 0, "profiled sweep must accrue phase time");
    assert!(
        covered <= wall,
        "exclusive phase tiling can never exceed wall time ({covered} > {wall})"
    );
    let report = shm_metrics::phase::report();
    assert!(report.contains("access_issue"), "report:\n{report}");
    assert!(report.contains("trace_gen"), "report:\n{report}");
}

#[test]
fn local_span_tree_reconciles_with_sweep_stats() {
    let _lock = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    shm_metrics::set_enabled(false);
    let (profiles, pairs) = sweep_pairs();
    let labels = sweep_labels();
    let rows = try_run_suite_jobs(DESIGNS, SCALE, Some(1)).expect("local sweep");

    let cycles_of = |index: usize| -> u64 {
        let (p, d) = pairs[index];
        rows.iter()
            .find(|r| r.name == profiles[p].name)
            .map_or(0, |r| r.stats[d.name()].cycles)
    };
    let inputs: Vec<JobSpanInput> = labels
        .iter()
        .enumerate()
        .map(|(i, label)| JobSpanInput {
            index: i,
            label: label.clone(),
            worker: "local".into(),
            dispatch_ms: i as u64,
            end_ms: i as u64 + 3,
            run_ns: 2_000_000,
            cycles: cycles_of(i),
        })
        .collect();
    let spans = build_job_spans(0xB0B0_1235, "sweep suite", &inputs);

    assert_eq!(spans[0].span_id, ROOT_SPAN_ID);
    assert_eq!(spans.len(), labels.len() + 1);
    for (i, s) in spans[1..].iter().enumerate() {
        assert_eq!(s.span_id, job_span_id(i));
        assert_eq!(s.parent, Some(ROOT_SPAN_ID));
        assert_eq!(s.label, labels[i]);
    }

    // Per-job cycle totals reconcile with the sweep's own stats.
    let report = TraceReport::from_spans(spans).remove(0);
    assert!(report.check_invariants().is_empty());
    let stats_cycles: u64 = rows
        .iter()
        .flat_map(|r| r.stats.values())
        .map(|s| s.cycles)
        .sum();
    assert!(stats_cycles > 0);
    assert_eq!(report.total_cycles(), stats_cycles);
    assert_eq!(report.jobs.len(), labels.len());
}
