//! Atomic metric primitives, the global name registry, and the Prometheus
//! text-format renderer / parser.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
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

struct Family {
    name: &'static str,
    help: &'static str,
    counter: Arc<Counter>,
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

/// Registers (or fetches) the unlabeled counter `name`.
pub fn register_counter(name: &'static str, help: &'static str) -> Arc<Counter> {
    assert!(is_valid_metric_name(name), "bad metric name: {name}");
    let mut reg = registry().lock().unwrap();
    if let Some(f) = reg.families.iter().find(|f| f.name == name) {
        return f.counter.clone();
    }
    let counter = Arc::<Counter>::default();
    reg.families.push(Family {
        name,
        help,
        counter: counter.clone(),
    });
    counter
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
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {}", family.counter.get());
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
    }

    #[test]
    fn counter_records_when_enabled() {
        let _g = test_lock();
        set_enabled(true);
        let c = register_counter("shm_test_basic_total", "test");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
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
    fn exposition_has_help_then_type() {
        let _g = test_lock();
        set_enabled(true);
        register_counter("shm_test_expo_total", "exposition test").add(3);
        let text = render_prometheus();
        let lines: Vec<&str> = text.lines().collect();
        let help = lines
            .iter()
            .position(|l| *l == "# HELP shm_test_expo_total exposition test")
            .expect("HELP line");
        let typ = lines
            .iter()
            .position(|l| *l == "# TYPE shm_test_expo_total counter")
            .expect("TYPE line");
        assert_eq!(typ, help + 1, "TYPE follows HELP");
        assert!(lines[typ + 1].starts_with("shm_test_expo_total "));
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
        let samples = parse_exposition(&render_prometheus());
        let c = samples
            .iter()
            .find(|s| s.name == "shm_test_parse_total")
            .unwrap();
        assert!(c.value >= 3.0);
        set_enabled(false);
    }

    #[test]
    fn parse_is_lenient_about_labels_infinity_and_junk() {
        let text = "# HELP x y\nx_bucket{le=\"+Inf\",k=\"a,\\\"b\"} +Inf\nnot a sample\nv 2\n";
        let samples = parse_exposition(text);
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].name, "x_bucket");
        assert_eq!(samples[0].label("le"), Some("+Inf"));
        assert_eq!(samples[0].label("k"), Some("a,\"b"));
        assert_eq!(samples[0].value, f64::INFINITY);
        assert_eq!(samples[1].value, 2.0);
    }
}
