//! Long-running batch solve service for USEP.
//!
//! The rest of the workspace solves one instance per process: a panic,
//! a malformed request or a `kill -9` loses all work. This crate turns
//! those solvers into a *service* with the robustness substrate a
//! planning platform needs, built from the layers underneath it —
//! `usep-guard` budgets bound each solve, `usep-trace` counts what the
//! server does:
//!
//! * **Protocol** ([`protocol`]) — one JSON object per line over plain
//!   TCP (`std::net`, matching the repo's vendored-deps policy). A
//!   [`SolveRequest`] carries the instance inline plus budget fields;
//!   every reply is a typed [`SolveResponse`] — `Complete`,
//!   `Truncated{reason}`, `Failed{panic}`, `Overloaded{..}` or
//!   `Rejected{error}` — never a dropped connection.
//! * **Admission control** ([`admission`]) — a bounded request queue
//!   plus a non-sticky byte ledger ([`usep_guard::MemoryLedger`]).
//!   Requests whose estimated footprint or queue slot does not fit are
//!   shed with `Overloaded` instead of degrading everyone.
//! * **Fault isolation** ([`server`]) — each solve runs on its worker
//!   thread behind a `catch_unwind` fence, so a panicking request
//!   answers `Failed{panic}` and the server keeps serving.
//! * **Degradation** — inside the fence runs
//!   [`usep_algos::GuardedSolver`], the same chain `usep solve` runs: a
//!   `truncated:memory_ceiling` tier is retried one tier *down*
//!   DeDP → DeDPO → DeGreedy+RG at once, rather than re-running the
//!   same solver into the same wall. Every tier gets a fresh guard, so
//!   waiting between tiers could not change the outcome.
//! * **Crash-safe journal** ([`journal`]) — an append-only JSON-lines
//!   write-ahead journal, fsynced on accept and on completion, with
//!   length+CRC32 framed records behind a pluggable [`JournalIo`]
//!   backend. Replay quarantines corrupt records (counted, skipped,
//!   never fatal), and a restarted server (`usep serve --resume
//!   <journal>`) compacts the journal to a generation-stamped
//!   snapshot, re-enqueues accepted-but-incomplete requests and
//!   answers duplicate ids from the journaled completion cache
//!   without re-solving.
//! * **Delta sessions** ([`protocol::MutateRequest`]) — a
//!   `{"verb":"mutate"}` control line opens a named warm
//!   [`usep_delta::DeltaEngine`] session and streams typed mutations
//!   (event add/remove, capacity change, user arrive/depart, μ
//!   updates) through its bounded-repair path. A session opens, and
//!   falls back, with a cold DeGreedy+RG solve; its `DeltaOpen` record
//!   names that solve, so a resumed session re-runs the one it opened
//!   with. Every accepted mutation is journaled (fsynced) *before* it
//!   is applied and deduplicated on its client-chosen mutation id, so a
//!   crashed server rebuilds every session's warm state exactly on
//!   `--resume` and duplicate sends answer the cached outcome —
//!   exactly-once, like solve ids.
//! * **Observability plane** ([`obs`]) — a Prometheus-text `/metrics`
//!   listener on its own port (`--metrics-addr`), request-scoped
//!   tracing (every span under a solve carries the request id),
//!   per-phase latency breakdowns on every reply, and
//!   a fixed-size flight recorder dumped via the `dump` verb, on
//!   contained panics, and at shutdown.

#![forbid(unsafe_code)]

pub mod admission;
pub mod client;
pub mod io;
pub mod journal;
pub mod obs;
pub mod protocol;
pub mod server;

pub use admission::{Admission, ShedReason, Ticket};
pub use client::send_request;
pub use io::{compact_tmp_path, crc32, JournalIo, StdIo};
pub use journal::{ColdSolve, DeltaSessionState, Journal, JournalRecord, JournalState};
pub use obs::ServeMetrics;
pub use protocol::{
    estimate_instance_bytes, ControlRequest, MutateRequest, MutateResponse, PhaseTimings,
    SolveRequest, SolveResponse, Status,
};
pub use server::{
    solve_with_retry, solve_with_retry_observed, Server, ServerHandle, ServeConfig, SolveLimits,
};
