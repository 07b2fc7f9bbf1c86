//! `apots-serve` — the hermetic online inference service.
//!
//! ROADMAP item 1: APOTS predictions only matter in deployment if they
//! answer queries *online*. This crate serves `GET /predict?road=..&t=..`
//! over HTTP/1.1 built from scratch on `std::net` (the PR-1 hermeticity
//! contract: no frameworks, no async runtime), with three load-bearing
//! properties:
//!
//! * **One shared model, answered where the request was parsed.** The
//!   published snapshot owns the one restored and prepared predictor;
//!   every connection worker builds its request's features into its own
//!   buffer, encodes them onto the workspace arena and calls
//!   `forward_infer(&self, ..)` itself — no shard threads, no per-shard
//!   replicas, no cross-thread hand-off (DESIGN.md §14). A worker serving
//!   a loopback client moves to the CPU that client sends from, so a
//!   request and its answer stay on one CPU.
//! * **Deterministic answers.** Per-sample forwards are batch-size
//!   invariant (DESIGN.md §9's per-element serial reduction chains), so
//!   the answer to a query does not depend on `APOTS_THREADS` or on which
//!   worker answered it.
//! * **Hot-swapped models that never serve garbage.** A watcher thread
//!   re-reads the [`apots::CheckpointStore`] through the retrying,
//!   fault-injectable fsio plane; a candidate snapshot is fully parsed,
//!   shape-checked and trial-restored *before* an atomic [`Arc`] swap
//!   publishes it. A torn, mid-rotation or corrupt checkpoint is counted
//!   (`serve.swaps_rejected`) and the previous snapshot keeps serving.

mod cpu;
pub mod http;
pub mod server;
pub mod snapshot;

pub use http::{Request, ResponseBuf};
pub use server::{ServeConfig, Server};
pub use snapshot::{ModelSnapshot, QuantizedSnapshot, SnapshotCell};
