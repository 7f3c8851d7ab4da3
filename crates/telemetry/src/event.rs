//! Structured trace events with cycle timestamps.

use std::fmt::Write as _;

/// One structured simulator event.
///
/// High-frequency kinds (cache misses, stalls, walks) may be sampled on the
/// way into the JSONL log — see [`crate::TelemetryConfig::sample_stride`] —
/// but every emission always lands in the flight-recorder ring and bumps the
/// per-kind totals, so aggregate counts stay exact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A kernel began executing.
    KernelStart { kernel: String },
    /// A kernel drained; `cycles` is its wall-clock cycle span.
    KernelEnd { kernel: String, cycles: u64 },
    /// An L2 lookup missed and went to the memory system.
    L2Miss { bank: usize, addr: u64 },
    /// An L2 miss could not allocate an MSHR entry and stalled.
    MshrStall { bank: usize },
    /// Observed DRAM partition queue depth (cycles of backlog) at issue.
    DramQueueDepth { partition: usize, depth: u64 },
    /// Counter metadata-cache miss in a secure engine.
    CtrCacheMiss { partition: usize },
    /// A BMT integrity walk terminated after visiting `depth` levels.
    BmtWalk { partition: usize, depth: u32 },
    /// A security-mode detector changed state for a region.
    DetectorTransition {
        partition: usize,
        region: u64,
        detector: &'static str,
    },
    /// Misprediction fixup traffic was charged.
    MispredictFixup { partition: usize, bytes: u64 },
    /// Secure memory rejected an access: `kind` is the `VerifyError` label,
    /// `action` the recovery taken (abort / retry_recovered / quarantine).
    IntegrityViolation {
        addr: u64,
        kind: &'static str,
        action: &'static str,
    },
}

/// Total number of distinct event kinds.
pub const NUM_KINDS: usize = 10;

impl Event {
    /// Stable snake_case kind tag used in JSONL output and summaries.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::KernelStart { .. } => "kernel_start",
            Event::KernelEnd { .. } => "kernel_end",
            Event::L2Miss { .. } => "l2_miss",
            Event::MshrStall { .. } => "mshr_stall",
            Event::DramQueueDepth { .. } => "dram_queue_depth",
            Event::CtrCacheMiss { .. } => "ctr_cache_miss",
            Event::BmtWalk { .. } => "bmt_walk",
            Event::DetectorTransition { .. } => "detector_transition",
            Event::MispredictFixup { .. } => "mispredict_fixup",
            Event::IntegrityViolation { .. } => "integrity_violation",
        }
    }

    /// Dense index of this kind, for per-kind counters.
    pub fn kind_index(&self) -> usize {
        match self {
            Event::KernelStart { .. } => 0,
            Event::KernelEnd { .. } => 1,
            Event::L2Miss { .. } => 2,
            Event::MshrStall { .. } => 3,
            Event::DramQueueDepth { .. } => 4,
            Event::CtrCacheMiss { .. } => 5,
            Event::BmtWalk { .. } => 6,
            Event::DetectorTransition { .. } => 7,
            Event::MispredictFixup { .. } => 8,
            Event::IntegrityViolation { .. } => 9,
        }
    }

    /// Kind tag for a dense index (inverse of [`Event::kind_index`]).
    pub fn kind_label(index: usize) -> &'static str {
        [
            "kernel_start",
            "kernel_end",
            "l2_miss",
            "mshr_stall",
            "dram_queue_depth",
            "ctr_cache_miss",
            "bmt_walk",
            "detector_transition",
            "mispredict_fixup",
            "integrity_violation",
        ][index]
    }

    /// True for kinds that are always logged regardless of sampling.
    pub fn is_low_frequency(&self) -> bool {
        matches!(
            self,
            Event::KernelStart { .. }
                | Event::KernelEnd { .. }
                | Event::DetectorTransition { .. }
                | Event::IntegrityViolation { .. }
        )
    }

    /// Appends this event as one JSON object line (no trailing newline).
    pub fn write_json(&self, cycle: u64, out: &mut String) {
        let _ = write!(
            out,
            "{{\"type\":\"event\",\"cycle\":{cycle},\"kind\":\"{}\"",
            self.kind()
        );
        match self {
            Event::KernelStart { kernel } => {
                let _ = write!(out, ",\"kernel\":\"{}\"", json_escape(kernel));
            }
            Event::KernelEnd { kernel, cycles } => {
                let _ = write!(
                    out,
                    ",\"kernel\":\"{}\",\"cycles\":{cycles}",
                    json_escape(kernel)
                );
            }
            Event::L2Miss { bank, addr } => {
                let _ = write!(out, ",\"bank\":{bank},\"addr\":{addr}");
            }
            Event::MshrStall { bank } => {
                let _ = write!(out, ",\"bank\":{bank}");
            }
            Event::DramQueueDepth { partition, depth } => {
                let _ = write!(out, ",\"partition\":{partition},\"depth\":{depth}");
            }
            Event::CtrCacheMiss { partition } => {
                let _ = write!(out, ",\"partition\":{partition}");
            }
            Event::BmtWalk { partition, depth } => {
                let _ = write!(out, ",\"partition\":{partition},\"depth\":{depth}");
            }
            Event::DetectorTransition {
                partition,
                region,
                detector,
            } => {
                let _ = write!(
                    out,
                    ",\"partition\":{partition},\"region\":{region},\"detector\":\"{detector}\""
                );
            }
            Event::MispredictFixup { partition, bytes } => {
                let _ = write!(out, ",\"partition\":{partition},\"bytes\":{bytes}");
            }
            Event::IntegrityViolation { addr, kind, action } => {
                let _ = write!(
                    out,
                    ",\"addr\":{addr},\"violation\":\"{kind}\",\"action\":\"{action}\""
                );
            }
        }
        out.push('}');
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_index_roundtrips() {
        let events = [
            Event::KernelStart { kernel: "k".into() },
            Event::KernelEnd {
                kernel: "k".into(),
                cycles: 1,
            },
            Event::L2Miss { bank: 0, addr: 0 },
            Event::MshrStall { bank: 0 },
            Event::DramQueueDepth {
                partition: 0,
                depth: 0,
            },
            Event::CtrCacheMiss { partition: 0 },
            Event::BmtWalk {
                partition: 0,
                depth: 0,
            },
            Event::DetectorTransition {
                partition: 0,
                region: 0,
                detector: "ro",
            },
            Event::MispredictFixup {
                partition: 0,
                bytes: 0,
            },
            Event::IntegrityViolation {
                addr: 0,
                kind: "block_mac_mismatch",
                action: "abort",
            },
        ];
        assert_eq!(events.len(), NUM_KINDS);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.kind_index(), i);
            assert_eq!(Event::kind_label(i), e.kind());
        }
    }

    #[test]
    fn json_lines_are_wellformed() {
        let mut out = String::new();
        Event::KernelEnd {
            kernel: "fdtd\"2d".into(),
            cycles: 42,
        }
        .write_json(7, &mut out);
        assert_eq!(
            out,
            "{\"type\":\"event\",\"cycle\":7,\"kind\":\"kernel_end\",\"kernel\":\"fdtd\\\"2d\",\"cycles\":42}"
        );
    }

    #[test]
    fn escape_handles_controls() {
        assert_eq!(json_escape("a\nb\\c\"d\u{1}"), "a\\nb\\\\c\\\"d\\u0001");
    }
}
