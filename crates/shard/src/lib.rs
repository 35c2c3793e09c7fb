//! Partitioned out-of-core execution of the chunked LOCAL engine.
//!
//! The monolithic engine (`lcl_local::engine`) keeps two full-tree message
//! arenas resident for the whole run. This crate trades peak memory for
//! I/O: it splits the CSR into contiguous node-range **shards**, keeps at
//! most [`ShardConfig::max_resident`](lcl_local::engine::ShardConfig)
//! shard arena sets in memory (the rest spill to a per-run on-disk pool),
//! and executes every engine round as a sequence of resident-shard passes
//! stitched together by **halo exchange**:
//!
//! - Each shard owns the directed-edge slots of its own nodes, stored as
//!   **bit-packed** double-buffered arenas
//!   ([`PackedArena`](arena::PackedArena)); slot width comes from
//!   per-protocol [`message_bits`](lcl_local::engine::Protocol::message_bits)
//!   hints with the message type's declared
//!   [`CEIL_BITS`](lcl_local::packed::PackableMessage::CEIL_BITS) ceiling
//!   as fallback.
//! - A message crossing a shard boundary is mirrored into the destination
//!   shard's fixed **halo buffer** at the end of the source shard's pass —
//!   before the source can be evicted — so *a shard pass never reads a
//!   non-resident arena*. Halo buffers are RAM-resident for the whole run
//!   (they cover only the cut edges).
//! - Scheduling is not this crate's business: every shard is one pass of
//!   the engine's round scheduler ([`run_rounds`](lcl_local::engine::run_rounds)),
//!   which owns mail flags, wake hints, fast-forward, and the worker split.
//!   This crate supplies the packed store the scheduler reads and writes
//!   through ([`run_sharded`]); packed-arena chunk regions are
//!   word-aligned so workers never share a word.
//!
//! Correctness is pinned by differential suites demanding bit-identical
//! outputs, per-node rounds, and termination profiles against the
//! monolithic engine across shard counts × residency limits × packing
//! on/off × thread counts.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod arena;
pub mod partition;
pub mod pool;
pub mod runner;

pub use partition::ShardPlan;
pub use runner::{run_sharded, ShardError};
