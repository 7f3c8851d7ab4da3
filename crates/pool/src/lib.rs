//! Heterogeneous memory pools for the SHM simulator.
//!
//! The paper adapts security metadata to heterogeneity *within* GPU memory;
//! this crate opens the axis it could not evaluate: a second, CPU-side DRAM
//! pool (LPDDR-like latency/bandwidth) behind a coherent NVLink-C2C/RDMA-style
//! interconnect, with *placement policies* deciding which pages live where and
//! a *secure migration channel* that moves a page between pools as a
//! MAC-verified, counter-rekeyed transfer built on `shm-metadata` +
//! `shm-crypto`.  A page tampered in flight on the link surfaces as an
//! [`shm_metadata::IntegrityViolation`] — never silent corruption.  The
//! channel is functional: the `inter_pool_tamper` fault campaign drives it,
//! while [`PoolSim`] charges a migration link latency and link bytes only.
//!
//! The model is strictly additive: a simulator without a [`PoolSim`] attached
//! takes exactly the single-pool code path and produces byte-identical output.
//!
//! See `docs/HETERO.md` for the pool model, link model, migration protocol
//! and every `SHM_POOL_*` / `SHM_LINK_*` knob.

pub mod config;
pub mod link;
pub mod migrate;
pub mod sim;

pub use config::{PlacementPolicy, PoolsConfig, ENV_KNOBS};
pub use link::{CoherentLink, LinkDir};
pub use migrate::{LinkTamper, MigrationChannel};
pub use sim::{PoolCounters, PoolOutcome, PoolSim};
