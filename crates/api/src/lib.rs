//! smo-api — the shared request/response layer behind the `smo` CLI and
//! the `smo serve` daemon.
//!
//! The 1990 SMO program was a batch tool: parse one netlist, solve one
//! LP, print, exit. This crate is what turns that batch core into a
//! *service* without forking the code path: the CLI and the daemon both
//! call [`ops`], so a cycle time computed over a socket is byte-for-byte
//! the JSON the CLI would have printed (compacted onto one line).
//!
//! Layering, bottom up:
//!
//! - [`json`] — a std-only JSON value with a hostile-input-safe parser
//!   and a byte-deterministic compact renderer (the wire format);
//! - [`error`] — the failure taxonomy: every error a request can hit
//!   maps to a stable machine-readable kind slug;
//! - [`request`] — the wire protocol: one JSON object per line, with
//!   per-request ids and wall-clock deadlines;
//! - [`ops`] — the operations themselves (solve / verify / check /
//!   diagnose / sweep), shared verbatim by both frontends;
//! - [`cache`] — fingerprint-keyed LRU caches (parsed circuits,
//!   finished results) under hard byte budgets, plus the
//!   quarantine set for inputs that crashed the engine;
//! - [`engine`] — deadline mapping, the load-based degradation ladder,
//!   per-request panic isolation, and the response envelope;
//! - [`server`] — the TCP front end: thread-per-connection, bounded
//!   admission gate with explicit load-shedding, graceful drain;
//! - [`bench`] — the `smo bench-serve` load generator.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]
#![allow(clippy::missing_panics_doc)]

pub mod bench;
pub mod cache;
pub mod engine;
pub mod error;
pub mod json;
pub mod ops;
pub mod request;
pub mod server;

pub use cache::{fingerprint, ApiCache, CacheConfig, CacheStats};
pub use engine::{Degradation, Engine, EngineConfig, Load, Reply};
pub use error::{ApiError, ErrorKind};
pub use json::{Json, JsonError};
pub use ops::{parse_netlist, solve_json, sweep_json, ParseLimits};
pub use request::{Command, Request};
pub use server::{serve, Client, ServerConfig, ServerHandle};
