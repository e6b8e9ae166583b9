//! # hare-core — the Hare file system
//!
//! A from-scratch Rust reproduction of *Hare: a file system for
//! non-cache-coherent multicores* (Gruenwald, Sironi, Kaashoek, Zeldovich —
//! EuroSys 2015).
//!
//! Hare provides a single-system-image POSIX file system on a machine whose
//! cores share DRAM but have **no hardware cache coherence**. The pieces,
//! all implemented here:
//!
//! * **File servers** ([`server`]): each owns a shard of every distributed
//!   directory, its own inodes and open-descriptor table, a partition of
//!   the shared buffer cache, and its pipes. Servers never talk to each
//!   other.
//! * **Client library** ([`client`]): implements the POSIX surface
//!   ([`fsapi::ProcFs`]); accesses file data directly in shared DRAM
//!   through the core's non-coherent private cache, keeping it consistent
//!   with the close-to-open invalidate/write-back protocol; caches
//!   directory lookups with server-pushed invalidations; tracks descriptor
//!   offsets locally until a descriptor is shared.
//! * **Protocols** ([`proto`]): lookup/ADD_MAP/RM_MAP, the three-phase
//!   distributed `rmdir`, hybrid descriptor tracking with demotion,
//!   directory broadcast, and message coalescing.
//! * **Simulated hardware** ([`machine`]): per-core virtual clocks
//!   (`vtime`), shared DRAM and private caches (`nccmem`), and the
//!   atomic-delivery messaging layer (`msg`).
//!
//! Start an instance with [`HareInstance::start`], mint per-process client
//! libraries with [`HareInstance::new_client`], and call POSIX operations
//! through [`fsapi::ProcFs`]. Process management (spawn/exec/proxies) lives
//! in the `hare-sched` crate.

pub mod client;
pub mod config;
pub mod instance;
pub mod machine;
pub mod metrics;
pub mod otrace;
pub mod placement;
pub mod proto;
pub mod rpc;
pub mod seqfifo;
pub mod server;
pub mod types;

pub use client::ClientLib;
pub use config::{HareConfig, Placement, Techniques};
pub use instance::HareInstance;
pub use machine::Machine;
pub use metrics::{TimeSeries, WindowMetrics};
pub use otrace::{Cause, SpanCtx, SpanNode, Tracer};
pub use placement::{
    dir_shard_servers, LoadReport, MigrationPlan, RebalanceAction, RebalanceCadence,
    RebalancePolicy, Rebalancer, ReplicationPlan, RoutingTable,
};
pub use types::{dentry_shard, dentry_shard_in, ClientId, FdId, InodeId, ServerId};
