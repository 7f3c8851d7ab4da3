//! Atomic metric primitives, the global name registry, and the Prometheus
//! text-format renderer / parser.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};

/// Global on/off gate. While false every update is one relaxed load + branch.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns metric collection on.
pub fn enable() {
    ENABLED.store(true, Relaxed);
}

/// Sets the collection gate explicitly (tests / teardown).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// True when metric updates are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one (no-op while the registry is disabled).
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (no-op while the registry is disabled).
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }
}

/// Instantaneous signed value (queue depths, config knobs, ages).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge (no-op while the registry is disabled).
    pub fn set(&self, v: i64) {
        if enabled() {
            self.value.store(v, Relaxed);
        }
    }

    /// Adds a (possibly negative) delta.
    pub fn add(&self, d: i64) {
        if enabled() {
            self.value.fetch_add(d, Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Relaxed)
    }
}

/// Number of finite histogram buckets; bucket `i` covers values `<= 2^i`,
/// with one implicit `+Inf` bucket after them.
pub const HISTOGRAM_BUCKETS: usize = 22;

/// Power-of-two histogram: bucket upper bounds 1, 2, 4, …, 2^21, +Inf.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; HISTOGRAM_BUCKETS + 1],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation (no-op while the registry is disabled).
    pub fn observe(&self, v: u64) {
        if !enabled() {
            return;
        }
        let idx = if v <= 1 {
            0
        } else {
            let bits = 64 - (v - 1).leading_zeros() as usize;
            bits.min(HISTOGRAM_BUCKETS)
        };
        self.counts[idx].fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Relaxed)).sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// Per-bucket (non-cumulative) counts, `+Inf` last.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.counts.iter().map(|c| c.load(Relaxed)).collect()
    }

    /// Upper bound of finite bucket `i`.
    pub fn bucket_bound(i: usize) -> u64 {
        1u64 << i
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

struct Family {
    name: &'static str,
    help: &'static str,
    metric: Metric,
}

#[derive(Default)]
struct Registry {
    families: Vec<Family>,
}

fn registry() -> &'static Mutex<Registry> {
    static REG: OnceLock<Mutex<Registry>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Registry::default()))
}

/// `[a-zA-Z_:][a-zA-Z0-9_:]*` per the Prometheus data model.
pub fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// `[a-zA-Z_][a-zA-Z0-9_]*` per the Prometheus data model.
pub fn is_valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn register(name: &'static str, help: &'static str, make: impl FnOnce() -> Metric) -> Metric {
    assert!(is_valid_metric_name(name), "bad metric name: {name}");
    let mut reg = registry().lock().unwrap();
    let metric = make();
    if let Some(f) = reg.families.iter().find(|f| f.name == name) {
        let kind = metric.kind();
        assert_eq!(
            f.metric.kind(),
            kind,
            "metric {name} re-registered as {kind}"
        );
        return f.metric.clone();
    }
    reg.families.push(Family {
        name,
        help,
        metric: metric.clone(),
    });
    metric
}

/// Registers (or fetches) the unlabeled counter `name`.
pub fn register_counter(name: &'static str, help: &'static str) -> Arc<Counter> {
    match register(name, help, || Metric::Counter(Arc::default())) {
        Metric::Counter(c) => c,
        _ => unreachable!(),
    }
}

/// Registers (or fetches) the unlabeled gauge `name`.
pub fn register_gauge(name: &'static str, help: &'static str) -> Arc<Gauge> {
    match register(name, help, || Metric::Gauge(Arc::default())) {
        Metric::Gauge(g) => g,
        _ => unreachable!(),
    }
}

/// Registers (or fetches) the unlabeled histogram `name`.
pub fn register_histogram(name: &'static str, help: &'static str) -> Arc<Histogram> {
    match register(name, help, || Metric::Histogram(Arc::default())) {
        Metric::Histogram(h) => h,
        _ => unreachable!(),
    }
}

/// Caches an unlabeled counter per call site; one atomic load afterwards.
#[macro_export]
macro_rules! counter {
    ($name:literal, $help:literal) => {{
        static CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        &**CELL.get_or_init(|| $crate::register_counter($name, $help))
    }};
}

/// Caches an unlabeled gauge per call site.
#[macro_export]
macro_rules! gauge {
    ($name:literal, $help:literal) => {{
        static CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::Gauge>> =
            ::std::sync::OnceLock::new();
        &**CELL.get_or_init(|| $crate::register_gauge($name, $help))
    }};
}

/// Caches an unlabeled histogram per call site.
#[macro_export]
macro_rules! histogram {
    ($name:literal, $help:literal) => {{
        static CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        &**CELL.get_or_init(|| $crate::register_histogram($name, $help))
    }};
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Renders every registered family (plus any recorded profiler phases) in
/// the Prometheus text exposition format 0.0.4.
pub fn render_prometheus() -> String {
    let mut out = String::new();
    let reg = registry().lock().unwrap();
    for family in &reg.families {
        let name = family.name;
        let _ = writeln!(out, "# HELP {name} {}", escape_help(family.help));
        let _ = writeln!(out, "# TYPE {name} {}", family.metric.kind());
        match &family.metric {
            Metric::Counter(c) => {
                let _ = writeln!(out, "{name} {}", c.get());
            }
            Metric::Gauge(g) => {
                let _ = writeln!(out, "{name} {}", g.get());
            }
            Metric::Histogram(h) => {
                let mut cumulative = 0u64;
                for (i, c) in h.bucket_counts().iter().enumerate() {
                    cumulative += c;
                    let le = if i < HISTOGRAM_BUCKETS {
                        Histogram::bucket_bound(i).to_string()
                    } else {
                        "+Inf".to_string()
                    };
                    let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                }
                let _ = writeln!(out, "{name}_sum {}", h.sum());
                let _ = writeln!(out, "{name}_count {cumulative}");
            }
        }
    }
    drop(reg);
    crate::phase::render_prometheus_into(&mut out);
    out
}

/// One parsed exposition sample (for tests and smoke assertions).
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

impl Sample {
    /// Value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parses Prometheus text exposition back into samples; skips comments and
/// lines it cannot understand (a scraper must be lenient).
pub fn parse_exposition(text: &str) -> Vec<Sample> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_and_labels, value) = match line.rsplit_once(' ') {
            Some(pair) => pair,
            None => continue,
        };
        let value: f64 = match value.parse() {
            Ok(v) => v,
            Err(_) => {
                if value == "+Inf" {
                    f64::INFINITY
                } else {
                    continue;
                }
            }
        };
        let (name, labels) = match name_and_labels.split_once('{') {
            None => (name_and_labels.to_string(), Vec::new()),
            Some((name, rest)) => {
                let rest = rest.trim_end_matches('}');
                let mut labels = Vec::new();
                for part in split_label_pairs(rest) {
                    if let Some((k, v)) = part.split_once('=') {
                        let v = v.trim_matches('"');
                        labels.push((k.to_string(), v.replace("\\\"", "\"").replace("\\\\", "\\")));
                    }
                }
                (name.to_string(), labels)
            }
        };
        out.push(Sample {
            name,
            labels,
            value,
        });
    }
    out
}

/// Splits `k1="v1",k2="v2"` on commas outside quoted values.
fn split_label_pairs(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        match c {
            '\\' if in_quotes => escaped = !escaped,
            '"' if !escaped => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => escaped = false,
        }
    }
    if start < s.len() {
        parts.push(&s[start..]);
    }
    parts
}

#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_updates_are_dropped() {
        let _g = test_lock();
        set_enabled(false);
        let c = register_counter("shm_test_disabled_total", "test");
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 0);
        let h = register_histogram("shm_test_disabled_hist", "test");
        h.observe(5);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
    }

    #[test]
    fn counter_gauge_histogram_record_when_enabled() {
        let _g = test_lock();
        set_enabled(true);
        let c = register_counter("shm_test_basic_total", "test");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = register_gauge("shm_test_basic_gauge", "test");
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);
        let h = register_histogram("shm_test_basic_hist", "test");
        for v in [1, 2, 3, 100, 1 << 30] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1 + 2 + 3 + 100 + (1 << 30));
        set_enabled(false);
    }

    #[test]
    fn histogram_bucket_indexing_is_tight() {
        let _g = test_lock();
        set_enabled(true);
        let h = register_histogram("shm_test_bucket_hist", "test");
        h.observe(1); // bucket le=1
        h.observe(2); // le=2
        h.observe(3); // le=4
        h.observe(4); // le=4
        h.observe(5); // le=8
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[2], 2);
        assert_eq!(counts[3], 1);
        set_enabled(false);
    }

    #[test]
    fn registration_is_idempotent_per_name() {
        let _g = test_lock();
        set_enabled(true);
        let a = register_counter("shm_test_idem_total", "test");
        let b = register_counter("shm_test_idem_total", "test");
        a.inc();
        assert_eq!(b.get(), 1);
        let g1 = register_gauge("shm_test_idem_gauge", "test");
        let g2 = register_gauge("shm_test_idem_gauge", "test");
        g1.set(9);
        assert_eq!(g2.get(), 9);
        set_enabled(false);
    }

    #[test]
    fn name_and_label_charsets() {
        assert!(is_valid_metric_name("shm_accesses_total"));
        assert!(is_valid_metric_name("_x:y9"));
        assert!(!is_valid_metric_name("9leading"));
        assert!(!is_valid_metric_name("has-dash"));
        assert!(!is_valid_metric_name(""));
        assert!(is_valid_label_name("worker"));
        assert!(!is_valid_label_name("le:")); // colon not allowed in labels
        assert!(!is_valid_label_name("1st"));
    }

    #[test]
    fn exposition_has_help_type_and_monotone_buckets() {
        let _g = test_lock();
        set_enabled(true);
        let h = register_histogram("shm_test_expo_hist", "exposition test");
        for v in [1, 7, 300, 5000] {
            h.observe(v);
        }
        let text = render_prometheus();
        let lines: Vec<&str> = text.lines().collect();
        let help = lines
            .iter()
            .position(|l| *l == "# HELP shm_test_expo_hist exposition test")
            .expect("HELP line");
        let typ = lines
            .iter()
            .position(|l| *l == "# TYPE shm_test_expo_hist histogram")
            .expect("TYPE line");
        assert_eq!(typ, help + 1, "TYPE follows HELP");
        // Every sample of the family appears after its header, with
        // cumulative buckets nondecreasing and +Inf equal to _count.
        let mut last = 0u64;
        let mut inf = None;
        for l in &lines[typ + 1..] {
            if !l.starts_with("shm_test_expo_hist") {
                break;
            }
            if l.starts_with("shm_test_expo_hist_bucket") {
                let v: u64 = l.rsplit(' ').next().unwrap().parse().unwrap();
                assert!(v >= last, "buckets must be cumulative: {l}");
                last = v;
                if l.contains("le=\"+Inf\"") {
                    inf = Some(v);
                }
            }
        }
        let count: u64 = lines
            .iter()
            .find(|l| l.starts_with("shm_test_expo_hist_count"))
            .and_then(|l| l.rsplit(' ').next())
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(inf, Some(count));
        // Every exposed family name passes the charset rule.
        for l in text.lines() {
            if let Some(rest) = l.strip_prefix("# TYPE ") {
                let name = rest.split(' ').next().unwrap();
                assert!(is_valid_metric_name(name), "bad exposed name {name}");
            }
        }
        set_enabled(false);
    }

    #[test]
    fn parse_round_trips_rendered_text() {
        let _g = test_lock();
        set_enabled(true);
        let c = register_counter("shm_test_parse_total", "parse test");
        c.add(3);
        let g = register_gauge("shm_test_parse_gauge", "parse test");
        g.set(42);
        let h = register_histogram("shm_test_parse_hist", "parse test");
        h.observe(3);
        let samples = parse_exposition(&render_prometheus());
        let c = samples
            .iter()
            .find(|s| s.name == "shm_test_parse_total")
            .unwrap();
        assert!(c.value >= 3.0);
        let g = samples
            .iter()
            .find(|s| s.name == "shm_test_parse_gauge")
            .unwrap();
        assert_eq!(g.value, 42.0);
        let inf = samples
            .iter()
            .find(|s| s.name == "shm_test_parse_hist_bucket" && s.label("le") == Some("+Inf"))
            .unwrap();
        assert_eq!(inf.value, 1.0);
        set_enabled(false);
    }
}
