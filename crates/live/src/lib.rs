//! `airguard-live`: a crash-tolerant streaming detection service.
//!
//! Where the rest of the workspace detects MAC-layer backoff
//! misbehavior inside a closed simulation, this crate runs the same
//! per-sender detectors ([`airguard_core::DeviationDetector`]) as a
//! long-lived service over an external observation feed — a replayed
//! `.events.jsonl` export or a TCP listener. The service is built
//! around four robustness guarantees:
//!
//! * **Backpressure, never silent loss** — observations route through
//!   bounded per-shard queues ([`channel`]); a full queue either blocks
//!   the feeder, evicts the oldest record, or degrades to sampling
//!   ([`OverflowPolicy`]), and every shed record is counted and emitted
//!   as a typed `live.*` event.
//! * **Malformed-input tolerance** — undecodable or out-of-range feed
//!   records are quarantined with a per-run error budget ([`replay`]);
//!   broken transports re-open with exponential backoff
//!   ([`SupervisedSource`]). A hostile byte on the wire can cost one
//!   record, never the service.
//! * **Snapshot/restore** — periodic checkpoint barriers export every
//!   detector's state to a crash-safe file ([`checkpoint`]); a restart
//!   restores the newest valid snapshot and replays forward, and under
//!   the lossless policy the final summary is byte-identical to an
//!   uninterrupted run.
//! * **Stuck-shard quarantine and graceful drain** — a watchdog built
//!   on per-shard heartbeats isolates a wedged worker while the others
//!   keep serving; a drain flag (the SIGTERM hook) flushes a final
//!   snapshot and exits cleanly.
//!
//! Determinism: per-station verdicts depend only on that station's
//! observation order, which the FNV station→shard map and FIFO queues
//! preserve — so results are independent of shard count and thread
//! timing (see [`engine`]). DESIGN.md §17 documents the architecture.

#![warn(missing_docs)]

pub mod channel;
pub mod checkpoint;
pub mod cli;
pub mod engine;
pub mod json;
pub mod replay;

pub use channel::{bounded, Receiver, RecvTimeout, SendError, Sender};
pub use checkpoint::{Checkpoint, StationRecord};
pub use engine::{
    run, shard_of, LiveConfig, LiveFaults, LiveOutcome, OverflowPolicy, StationVerdict,
};
pub use replay::{JsonlSource, SocketSource, SupervisedSource};
