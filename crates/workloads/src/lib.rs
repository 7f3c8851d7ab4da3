//! Synthetic workload generators for the SHM evaluation.
//!
//! The paper evaluates fifteen memory-intensive benchmarks from Rodinia,
//! Parboil and Polybench (Table VII).  We cannot ship the original GPU
//! binaries, but only their *memory access streams* ever reach the
//! secure-memory engine, so each benchmark is modelled as a synthetic
//! generator reproducing its published characteristics:
//!
//! * bandwidth utilisation (Table VII) via per-access think cycles,
//! * read-only access fraction and streaming access fraction (Fig. 5),
//! * write intensity and L2 locality,
//! * constant/texture memory usage (Table VII's "Memory Space" column),
//! * kernel count and input-reuse behaviour (which exercises the
//!   `InputReadOnlyReset` API and predictor initialisation effects).
//!
//! [`BenchmarkProfile::suite`] returns the Table-VII suite;
//! [`BenchmarkProfile::generate`] turns a profile into a
//! [`gpu_mem_sim::ContextTrace`].  [`micro`] holds microbenchmarks used by
//! unit tests and by `repro micro` / `repro sensitivity`.

pub mod micro;
pub mod profile;
pub mod synth;

pub use profile::BenchmarkProfile;
