//! `qpd-serve`: the resident design-service daemon.
//!
//! The paper's flow is a batch pipeline, but the stage graph underneath
//! it ([`qpd_explore::StageCaches`], the one owner of all five stage
//! tables) is content-keyed and `Arc`-shared — exactly the shape of a
//! long-running server. This crate wraps it in one: a std-only TCP
//! daemon that multiplexes every request onto **one** shared set of
//! stage tables and the `qpd-par` worker pool, so the second request for any placement, bus order, frequency
//! plan, routing, or yield estimate is a cache hit no matter which
//! client — or which circuit — paid for it first (BENCH_5 measured
//! that cold→warm gap at 128 ms → 8.7 µs per evaluation).
//!
//! Results are pure functions of request content: the same request
//! yields byte-identical responses whether served cold, warm,
//! concurrently with other clients, or after a daemon restart that
//! warm-started from a cache sidecar. Shared caches change *when* work
//! happens, never what any request observes.
//!
//! # Wire protocol
//!
//! Newline-delimited JSON over TCP, one document per line (at most
//! [`protocol::MAX_LINE_BYTES`] bytes; [`qpd_explore::Json`] compact
//! rendering — parsing is depth-bounded, NaN/Inf-free, and
//! adversarial-input tested, since these bytes come off a socket).
//! Every request carries a client-chosen `id`, echoed on every line
//! the server emits for it. Responses for concurrent requests may
//! interleave on a shared connection; lines for one request never do.
//!
//! ## Requests
//!
//! ```text
//! {"id":ID, "op":"design",  SOURCE, "spec":SPEC?, "settings":SETTINGS?}
//! {"id":ID, "op":"explore", SOURCE, "label":NAME?, "config":CONFIG?,
//!                           "budget":BUDGET?, "stream":BOOL?}
//! {"id":ID, "op":"merge",   "checkpoints":[PATH, ...]}
//! {"id":ID, "op":"stats"}
//! {"id":ID, "op":"shutdown"}
//! ```
//!
//! `SOURCE` is either `"benchmark":"sym6_145"` (a name
//! [`qpd_benchmarks::build`] knows) or `"qasm":"OPENQASM 2.0; ..."`
//! (inline program text). The five design knobs ride in `SPEC` —
//! `bus`, `frequency`, `aux`, `placement`, `hardware` — in exactly the
//! checkpoint encoding of [`qpd_explore::CandidateSpec`]; omitting
//! `spec` designs the paper's `eff-full` configuration. `SETTINGS`
//! tunes the engine (`alloc_trials`, `yield_trials`, `sigma_ghz`,
//! `seed`, `max_aux`), defaulting to the explorer defaults. `CONFIG`
//! takes the same keys as a checkpoint config (`walks`, `rounds`,
//! `steps`, `acceptance`, `hardware`, `fine_recombine`, …) over
//! [`qpd_explore::ExploreConfig::quick`] defaults.
//!
//! `merge` adopts shard results produced by `explore_run --shard`
//! (see [`qpd_explore::merge`]): the named shard checkpoint files are
//! merged into the whole-run checkpoint — byte-identical to a
//! single-process run — written to the daemon's output directory, and
//! any shard cache sidecars sitting next to the inputs are loaded into
//! the shared warm caches (content-keyed, so adoption can only turn
//! future misses into hits). The result reports `{"run", "shards",
//! "rounds_done", "archive_len", "front_len", "warmed_routes",
//! "warmed_yields", "checkpoint"}`. Like `stats`/`shutdown` it runs
//! inline, bypassing the work queue, so adopting finished shard work
//! stays possible under full evaluation load. A path that is not a
//! regular file (a directory, or a device such as `/dev/zero`) is a
//! `bad_request` ("not a regular file") and is never read.
//!
//! ## Budgets
//!
//! `BUDGET` bounds one explore request:
//! `{"max_rounds":N?, "max_candidates":N?, "deadline_ms":N?}`.
//! `max_rounds` clamps the configured round budget before the run
//! starts (deterministic). `max_candidates` and `deadline_ms` are
//! honored **at round barriers**: the run stops early once the archive
//! holds that many evaluated candidates or the wall clock passes the
//! deadline, finishing the round in flight first. A truncated response
//! carries `"truncated":true` plus a `"reason"` — deadline truncation
//! depends on wall-clock timing, so only untruncated responses are
//! byte-reproducible, and the response says honestly which one it is.
//!
//! ## Responses and events
//!
//! ```text
//! {"id":ID, "ok":true,  "result":RESULT}
//! {"id":ID, "ok":false, "error":{"code":CODE, "message":TEXT}}
//! {"id":ID, "event":"round", "round":N, "archive":N, "front":N}
//! ```
//!
//! A request produces zero or more `event` lines (explore with
//! `"stream":true` emits one per completed round) followed by exactly
//! one response line. Design results are the evaluated candidate in
//! checkpoint encoding ([`qpd_explore::Evaluated`]); explore results
//! are `{"rounds_done", "truncated", "reason"?, "archive_len",
//! "front":[Evaluated…], "checkpoint"?}` (no raw evaluation counter —
//! shared-cache traffic is scheduling-dependent, and every response
//! field must be byte-reproducible); stats results are
//! `{"stages":[{"stage", "hits", "misses", "unique_misses"}…],
//! "engines", "queued"}`: the per-stage cache counters in pipeline
//! order, for multi-tenant cache-pressure visibility, plus the number
//! of design engines memoized (at most [`server::ENGINE_CAP`]) and of
//! requests waiting in the queue.
//!
//! Error codes: `bad_request` (malformed JSON or fields),
//! `unknown_benchmark`, `bad_qasm`, `overloaded` (admission control —
//! see below), `shutting_down` (work arriving after a `shutdown`), and
//! `internal` (an evaluation failed). All are final; the connection
//! stays usable.
//!
//! ## Admission control
//!
//! The daemon runs a fixed pool of request workers (bounded in-flight
//! work) over a bounded queue. A `design`/`explore` request arriving
//! with the queue full is rejected *immediately* with the
//! deterministic `overloaded` error — it never blocks the connection
//! and never evicts queued work. `stats` and `shutdown` bypass the
//! queue so the daemon stays observable and stoppable under load.
//!
//! ## Shutdown, checkpointing, warm start
//!
//! `shutdown` stops the accept loop and drains the queue. In-flight
//! explore runs observe the shutdown at their next round barrier and
//! are cut exactly as `explore_run` cuts a round: the partial state is
//! written through the v3 checkpoint writer to
//! `EXPLORE_<label>.json` in the daemon's output directory — resumable
//! with `explore_run --resume` when the label names a benchmark, which
//! the default label (the benchmark name) always does — and the
//! response reports
//! `"truncated":true, "reason":"shutdown"` plus the checkpoint path.
//! Before exiting, the daemon persists its shared route/yield caches
//! to the [`qpd_explore::sidecar`] format (`EXPLORE_serve_caches.json`);
//! booting with `--warm-start <path>` loads such a sidecar so a
//! restarted daemon serves its first requests at warm-cache latency.

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{Client, Exchange};
pub use protocol::{Budget, EngineSettings, ParsedRequest, Request, Source, MAX_LINE_BYTES};
pub use server::{Server, ServerConfig};
