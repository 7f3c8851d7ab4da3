//! Simulation statistics: traffic accounting, breakdowns and derived metrics.

use core::fmt;
use std::ops::AddAssign;

/// Categories of DRAM traffic tracked separately (drives Fig. 14).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TrafficClass {
    /// Regular application data.
    Data,
    /// Encryption counter blocks.
    Counter,
    /// Per-block or per-chunk MACs.
    Mac,
    /// Bonsai Merkle Tree nodes.
    Bmt,
    /// Extra data re-fetches caused by streaming/read-only mispredictions.
    MispredictFixup,
}

impl TrafficClass {
    /// All classes, in display order.
    pub const ALL: [TrafficClass; 5] = [
        TrafficClass::Data,
        TrafficClass::Counter,
        TrafficClass::Mac,
        TrafficClass::Bmt,
        TrafficClass::MispredictFixup,
    ];

    /// Short label used in reports.
    pub const fn label(self) -> &'static str {
        match self {
            TrafficClass::Data => "data",
            TrafficClass::Counter => "counter",
            TrafficClass::Mac => "mac",
            TrafficClass::Bmt => "bmt",
            TrafficClass::MispredictFixup => "fixup",
        }
    }
}

/// Byte counters per traffic class.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct TrafficBytes {
    /// DRAM read bytes per class (indexed by `TrafficClass::ALL` order).
    pub read: [u64; 5],
    /// DRAM write bytes per class.
    pub write: [u64; 5],
}

impl TrafficBytes {
    /// Records `bytes` of DRAM traffic for `class`.
    pub fn record(&mut self, class: TrafficClass, bytes: u64, is_write: bool) {
        let idx = class as usize;
        if is_write {
            self.write[idx] += bytes;
        } else {
            self.read[idx] += bytes;
        }
    }

    /// Total bytes for one class, reads plus writes.
    pub fn class_total(&self, class: TrafficClass) -> u64 {
        let idx = class as usize;
        self.read[idx] + self.write[idx]
    }

    /// Total bytes of regular data traffic.
    pub fn data_bytes(&self) -> u64 {
        self.class_total(TrafficClass::Data)
    }

    /// Total bytes of security-metadata traffic (everything but data).
    pub fn metadata_bytes(&self) -> u64 {
        TrafficClass::ALL
            .iter()
            .filter(|c| !matches!(c, TrafficClass::Data))
            .map(|&c| self.class_total(c))
            .sum()
    }

    /// Metadata traffic normalized to data traffic (Fig. 14's y-axis).
    pub fn overhead_ratio(&self) -> f64 {
        let data = self.data_bytes();
        if data == 0 {
            0.0
        } else {
            self.metadata_bytes() as f64 / data as f64
        }
    }
}

impl AddAssign for TrafficBytes {
    fn add_assign(&mut self, rhs: Self) {
        for i in 0..5 {
            self.read[i] += rhs.read[i];
            self.write[i] += rhs.write[i];
        }
    }
}

/// Declares a statistics record whose `u64` counters are listed once, as
/// table rows in output order.
///
/// The record gets the fields written in its `struct` body, then one
/// `pub u64` field per row, plus:
///
/// * `COUNTER_NAMES`: the row names in order — the journal keys, epoch JSON
///   keys and CSV columns;
/// * `counters()` / `counters_mut()`: `(name, value)` / `(name, &mut value)`
///   pairs in the same order;
/// * `prometheus_counters()`: `(series, help, value)` for each row that names
///   a Prometheus counter after `=>`.
///
/// Adding a counter is one row.
///
/// ```
/// gpu_types::counter_table! {
///     #[derive(Default)]
///     pub struct Tally {
///         pub label: String,
///     }
///     counters {
///         /// Things seen.
///         seen => "demo_seen_total", "Things seen",
///         kept,
///     }
/// }
/// let t = Tally { seen: 3, kept: 1, ..Default::default() };
/// assert_eq!(Tally::COUNTER_NAMES, ["seen", "kept"]);
/// assert_eq!(t.counters(), [("seen", 3), ("kept", 1)]);
/// assert_eq!(t.prometheus_counters(), [("demo_seen_total", "Things seen", 3)]);
/// ```
#[macro_export]
macro_rules! counter_table {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident : $fty:ty, )*
        }
        counters {
            $( $(#[$cmeta:meta])* $counter:ident $(=> $series:literal, $help:literal)?, )+
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $fty, )*
            $( $(#[$cmeta])* pub $counter: u64, )+
        }

        impl $name {
            /// Counter names in output order, one per table row.
            pub const COUNTER_NAMES: [&'static str; [$(stringify!($counter)),+].len()] =
                [$(stringify!($counter)),+];

            /// `(name, value)` for every counter, in table order.
            pub fn counters(&self) -> [(&'static str, u64); $name::COUNTER_NAMES.len()] {
                [$((stringify!($counter), self.$counter)),+]
            }

            /// `(name, &mut value)` for every counter, in table order.
            pub fn counters_mut(
                &mut self,
            ) -> [(&'static str, &mut u64); $name::COUNTER_NAMES.len()] {
                [$((stringify!($counter), &mut self.$counter)),+]
            }

            /// `(series, help, value)` for the counters exported to
            /// Prometheus, in table order.
            pub fn prometheus_counters(&self) -> Vec<(&'static str, &'static str, u64)> {
                vec![$($(($series, $help, self.$counter),)?)+]
            }
        }
    };
}

counter_table! {
    /// End-of-run statistics from one simulation.
    #[derive(Clone, Default, Debug, PartialEq)]
    pub struct SimStats {
        /// DRAM traffic broken down by class.
        pub traffic: TrafficBytes,
    }
    counters {
        /// Total simulated core cycles.
        cycles,
        /// Instructions retired (trace events completed, including think time).
        instructions,
        /// Warp-level memory accesses issued.
        accesses,
        /// L2 hits.
        l2_hits,
        /// L2 misses.
        l2_misses,
        /// L2 write-backs sent to DRAM.
        l2_writebacks,
        /// Counter-cache hits.
        ctr_hits,
        /// Counter-cache misses.
        ctr_misses,
        /// MAC-cache hits.
        mac_hits,
        /// MAC-cache misses.
        mac_misses,
        /// BMT-cache hits.
        bmt_hits,
        /// BMT-cache misses.
        bmt_misses,
        /// Victim-cache (L2) hits for metadata.
        victim_hits,
        /// Accesses that skipped counter fetch + BMT walk via the shared counter.
        readonly_fast_path,
        /// Accesses served by a chunk-level MAC.
        chunk_mac_accesses,
        /// Streaming-predictor mispredictions observed.
        stream_mispredictions,
        /// Read-only-predictor mispredictions observed.
        readonly_mispredictions,
        /// Sum of access completion latencies (completion - issue), cycles.
        lat_sum,
        /// Maximum access completion latency observed.
        lat_max,
        /// DRAM requests completed by the fabric (all traffic classes).
        dram_requests,
        /// Pages migrated CPU→GPU through the secure inter-pool channel
        /// (heterogeneous-pool runs only; zero in single-pool mode).
        pool_migrations => "shm_pool_migrations_total",
            "Pages migrated CPU->GPU through the secure channel",
        /// Pages spilled GPU→CPU to make room for a hot page.
        pool_spills => "shm_pool_spills_total", "Pages spilled GPU->CPU",
        /// Data accesses served by the CPU-side pool.
        pool_cpu_accesses => "shm_pool_cpu_accesses_total",
            "Data accesses served by the CPU-side pool",
        /// Accesses that hit GPU-pool capacity pressure (gpu-only policy).
        pool_capacity_events => "shm_pool_capacity_events_total",
            "Accesses under gpu-only capacity pressure",
        /// Bytes the coherent link carried toward the GPU pool.
        link_bytes_to_gpu => "shm_link_to_gpu_bytes_total",
            "Bytes the coherent link carried toward the GPU pool",
        /// Bytes the coherent link carried toward the CPU pool.
        link_bytes_to_cpu => "shm_link_to_cpu_bytes_total",
            "Bytes the coherent link carried toward the CPU pool",
    }
}

impl SimStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// L2 miss rate over data accesses.
    pub fn l2_miss_rate(&self) -> f64 {
        let total = self.l2_hits + self.l2_misses;
        if total == 0 {
            0.0
        } else {
            self.l2_misses as f64 / total as f64
        }
    }

    /// Achieved DRAM data bandwidth utilization against `peak_bytes_per_cycle`.
    pub fn bandwidth_utilization(&self, peak_bytes_per_cycle: f64) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let total = self.traffic.data_bytes() + self.traffic.metadata_bytes();
        total as f64 / self.cycles as f64 / peak_bytes_per_cycle
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cycles={} instr={} ipc={:.3} l2_miss={:.1}%",
            self.cycles,
            self.instructions,
            self.ipc(),
            self.l2_miss_rate() * 100.0
        )?;
        write!(
            f,
            "traffic: data={}B metadata={}B overhead={:.2}%",
            self.traffic.data_bytes(),
            self.traffic.metadata_bytes(),
            self.traffic.overhead_ratio() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_accounting() {
        let mut t = TrafficBytes::default();
        t.record(TrafficClass::Data, 128, false);
        t.record(TrafficClass::Data, 32, true);
        t.record(TrafficClass::Mac, 32, false);
        t.record(TrafficClass::Bmt, 64, true);
        assert_eq!(t.data_bytes(), 160);
        assert_eq!(t.metadata_bytes(), 96);
        assert!((t.overhead_ratio() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn overhead_ratio_zero_data_is_zero() {
        let mut t = TrafficBytes::default();
        t.record(TrafficClass::Mac, 32, false);
        assert_eq!(t.overhead_ratio(), 0.0);
    }

    #[test]
    fn addassign_sums_fields() {
        let mut a = TrafficBytes::default();
        a.record(TrafficClass::Counter, 10, false);
        let mut b = TrafficBytes::default();
        b.record(TrafficClass::Counter, 5, true);
        a += b;
        assert_eq!(a.class_total(TrafficClass::Counter), 15);
    }

    #[test]
    fn ipc_and_miss_rate() {
        let stats = SimStats {
            cycles: 100,
            instructions: 250,
            l2_hits: 30,
            l2_misses: 70,
            ..Default::default()
        };
        assert!((stats.ipc() - 2.5).abs() < 1e-12);
        assert!((stats.l2_miss_rate() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_safe() {
        let stats = SimStats::default();
        assert_eq!(stats.ipc(), 0.0);
        assert_eq!(stats.l2_miss_rate(), 0.0);
        assert_eq!(stats.bandwidth_utilization(18.6), 0.0);
    }
}
