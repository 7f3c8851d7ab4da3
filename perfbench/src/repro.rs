//! The `repro` CLI seen from outside: running it as a child process under a
//! watchdog, digesting its stdout and scoring its MEAN rows against the
//! paper's own numbers.

use std::io::Read as _;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Paper's mean normalized IPC of SHM (Fig. 12).
pub const PAPER_FIG12_SHM: f64 = 0.919;
/// Paper's mean metadata-bandwidth overhead of SHM (Fig. 14, 5.95 %).
pub const PAPER_FIG14_SHM: f64 = 0.0595;
/// Paper's mean normalized energy per instruction of SHM (Fig. 15).
pub const PAPER_FIG15_SHM: f64 = 1.061;

/// Section titles of the figures the gaps are read from.
pub const FIG12: &str = "Fig. 12:";
/// See [`FIG12`].
pub const FIG14: &str = "Fig. 14:";
/// See [`FIG12`].
pub const FIG15: &str = "Fig. 15:";

/// Fig. 12 columns in the order the paper ranks them (strictly increasing,
/// except that SHM may tie its upper bound).
pub const FIG12_ORDER: [&str; 5] = ["Naive", "Common_ctr", "PSSM", "SHM", "SHM_upper_bound"];

/// `abs(measured ÷ paper − 1)`: the error against the paper's number.
pub fn gap(measured: f64, paper: f64) -> f64 {
    (measured / paper - 1.0).abs()
}

/// 64-bit FNV-1a of `text`, printed with every run so a figure change shows.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The MEAN row of the figure whose `== …` title starts with `title`, as
/// `(column, value)` pairs, or `None` if the section or row is missing or
/// malformed.
pub fn mean_row(output: &str, title: &str) -> Option<Vec<(String, f64)>> {
    let mut lines = output
        .lines()
        .skip_while(|l| !l.strip_prefix("== ").is_some_and(|t| t.starts_with(title)))
        .skip(1);
    let header: Vec<&str> = lines.next()?.split_whitespace().collect();
    if header.first() != Some(&"benchmark") {
        return None;
    }
    let mean = lines
        .take_while(|l| !l.starts_with("== ") && !l.is_empty())
        .find(|l| l.starts_with("MEAN"))?;
    let values: Vec<f64> = mean
        .split_whitespace()
        .skip(1)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    (values.len() == header.len() - 1).then(|| {
        header[1..]
            .iter()
            .map(|h| h.to_string())
            .zip(values)
            .collect()
    })
}

/// The value of `column` in a parsed row.
pub fn column(row: &[(String, f64)], column: &str) -> Option<f64> {
    row.iter().find(|(c, _)| c == column).map(|&(_, v)| v)
}

/// Checks the Fig. 12 MEAN row against the paper's order
/// Naive < Common_ctr < PSSM < SHM ≤ SHM_upper_bound.
pub fn check_fig12_order(row: &[(String, f64)]) -> Result<(), String> {
    let vals = FIG12_ORDER
        .iter()
        .map(|c| column(row, c).ok_or_else(|| format!("Fig. 12 MEAN row lacks {c}")))
        .collect::<Result<Vec<f64>, String>>()?;
    for (i, w) in vals.windows(2).enumerate() {
        let tie_allowed = i == 3;
        if w[1] < w[0] || (w[1] == w[0] && !tie_allowed) {
            return Err(format!(
                "Fig. 12 MEAN order broken: {} {} vs {} {}",
                FIG12_ORDER[i],
                w[0],
                FIG12_ORDER[i + 1],
                w[1]
            ));
        }
    }
    Ok(())
}

/// The three `*_gap` metrics read from a `repro all` stdout.
pub fn gaps(output: &str) -> Result<[f64; 3], String> {
    let shm = |title: &str| {
        mean_row(output, title)
            .and_then(|row| column(&row, "SHM"))
            .ok_or_else(|| format!("no SHM value in the {title} MEAN row"))
    };
    Ok([
        gap(shm(FIG12)?, PAPER_FIG12_SHM),
        gap(shm(FIG14)?, PAPER_FIG14_SHM),
        gap(shm(FIG15)?, PAPER_FIG15_SHM),
    ])
}

/// Outcome of one child process.
pub struct ChildRun {
    /// Wall time from spawn to exit (or to the kill).
    pub wall_s: f64,
    /// Captured standard output.
    pub stdout: String,
    /// Highest resident set seen while it ran, KiB.
    pub peak_kb: u64,
    /// Why it failed, if it did.
    pub error: Option<String>,
    /// Whether the watchdog killed it.
    pub timed_out: bool,
}

/// Runs `cmd` with its stdout captured, polling its peak RSS, and kills it
/// once it has run for `limit`.
pub fn run_child(cmd: &mut Command, limit: Duration) -> ChildRun {
    let t0 = Instant::now();
    let mut child = match cmd.stdout(Stdio::piped()).spawn() {
        Ok(c) => c,
        Err(e) => {
            return ChildRun {
                wall_s: 0.0,
                stdout: String::new(),
                peak_kb: 0,
                error: Some(format!("spawn {cmd:?}: {e}")),
                timed_out: false,
            }
        }
    };
    let mut pipe = child.stdout.take().expect("stdout was piped");
    // Drain stdout concurrently so a full pipe cannot stall the child.
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = pipe.read_to_string(&mut s);
        s
    });
    let status_path = format!("/proc/{}/status", child.id());
    let mut peak_kb = 0;
    let mut timed_out = false;
    let status = loop {
        match child.try_wait() {
            Ok(Some(st)) => break Ok(st),
            Ok(None) => {}
            Err(e) => break Err(e.to_string()),
        }
        if let Some(kb) = vm_hwm_kb(&status_path) {
            peak_kb = peak_kb.max(kb);
        }
        if t0.elapsed() > limit {
            timed_out = true;
            let _ = child.kill();
            break child.wait().map_err(|e| e.to_string());
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let stdout = reader.join().unwrap_or_default();
    let error = match status {
        _ if timed_out => Some(format!("killed after {limit:?}")),
        Ok(st) if st.success() => None,
        Ok(st) => Some(format!("exited with {st}")),
        Err(e) => Some(format!("wait failed: {e}")),
    };
    ChildRun {
        wall_s,
        stdout,
        peak_kb,
        error,
        timed_out,
    }
}

/// `VmHWM` (peak resident set, KiB) from a `/proc/<pid>/status` file.
pub fn vm_hwm_kb(status_path: &str) -> Option<u64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `repro all --scale 0.05 --jobs 1` stdout, captured from this tree.
    const FIXTURE: &str = include_str!("../fixtures/repro_all_scale0.05.txt");

    #[test]
    fn parses_mean_rows_of_the_captured_fixture() {
        let fig12 = mean_row(FIXTURE, FIG12).expect("Fig. 12 MEAN row");
        let names: Vec<&str> = fig12.iter().map(|(c, _)| c.as_str()).collect();
        assert_eq!(names, FIG12_ORDER);
        assert_eq!(column(&fig12, "SHM"), Some(0.8717));
        assert_eq!(column(&fig12, "SHM_upper_bound"), Some(0.8758));
        let fig14 = mean_row(FIXTURE, FIG14).expect("Fig. 14 MEAN row");
        assert_eq!(column(&fig14, "SHM"), Some(0.5800));
        assert_eq!(column(&fig14, "SHM_readOnly"), Some(0.5504));
        let fig15 = mean_row(FIXTURE, FIG15).expect("Fig. 15 MEAN row");
        assert_eq!(column(&fig15, "SHM"), Some(1.2586));
        assert!(check_fig12_order(&fig12).is_ok());
    }

    #[test]
    fn gaps_of_the_captured_fixture() {
        let [g12, g14, g15] = gaps(FIXTURE).expect("all three rows");
        assert!((g12 - (1.0 - 0.8717 / 0.919)).abs() < 1e-12);
        assert!((g14 - (0.5800 / 0.0595 - 1.0)).abs() < 1e-12);
        assert!((g15 - (1.2586 / 1.061 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn missing_or_malformed_rows_are_rejected() {
        assert!(mean_row("", FIG12).is_none());
        let truncated = "== Fig. 12: x ==\nbenchmark A B\nbfs 1 2\n";
        assert!(mean_row(truncated, FIG12).is_none());
        let short = "== Fig. 12: x ==\nbenchmark A B\nMEAN 1\n";
        assert!(mean_row(short, FIG12).is_none());
        assert!(gaps("== Fig. 12: x ==\nbenchmark SHM\nMEAN 0.9\n").is_err());
    }

    #[test]
    fn fig12_order_violations_are_caught() {
        let row = |vals: [f64; 5]| -> Vec<(String, f64)> {
            FIG12_ORDER
                .iter()
                .map(|c| c.to_string())
                .zip(vals)
                .collect()
        };
        assert!(check_fig12_order(&row([0.4, 0.6, 0.8, 0.9, 0.9])).is_ok());
        assert!(check_fig12_order(&row([0.4, 0.6, 0.9, 0.9, 0.95])).is_err());
        assert!(check_fig12_order(&row([0.4, 0.6, 0.8, 0.9, 0.89])).is_err());
        assert!(check_fig12_order(&row([0.7, 0.6, 0.8, 0.9, 0.95])).is_err());
        assert!(check_fig12_order(&row([0.4, 0.6, 0.8, 0.9, 0.95])[..4]).is_err());
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(
            digest(FIXTURE),
            digest(&FIXTURE.replace("0.8717", "0.8718"))
        );
    }
}
