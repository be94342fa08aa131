//! Wire requests: one JSON object per line.
//!
//! Every request is an object with a `"cmd"` field plus command-specific
//! fields. Optional everywhere:
//!
//! - `"id"` — any string, echoed verbatim in the response so clients can
//!   pipeline requests over one connection;
//! - `"deadline_ms"` — wall-clock budget for this request; on expiry the
//!   engine aborts the solve and returns a `budget` error instead of
//!   holding the connection.
//!
//! Work commands (`solve`, `verify`, `check`, `diagnose`, `sweep`) carry
//! the netlist *inline* as the `"netlist"` string field — the daemon never
//! reads the client's filesystem. Control commands (`ping`, `stats`,
//! `shutdown`, `debug-panic`) take no payload and bypass the load gate.

use crate::error::ApiError;
use crate::json::Json;
use smo_core::Backend;

/// A parsed request: envelope fields plus the typed command.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<String>,
    /// Per-request wall-clock budget in milliseconds. `Some(0)` is legal
    /// and means "already expired": the engine returns a `budget` error
    /// without starting the solve (useful for probing queue state).
    pub deadline_ms: Option<u64>,
    /// What to do.
    pub command: Command,
}

/// The command payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Liveness probe; returns `{"ok":true}`.
    Ping,
    /// Server counters: requests served, cache hits, sheds, panics, …
    Stats,
    /// Begin graceful shutdown: drain in-flight work, then exit.
    Shutdown,
    /// Deliberately panic inside the handler. Exists so the
    /// panic-isolation path is testable end-to-end; undocumented in the
    /// usage banner.
    DebugPanic,
    /// Certified minimum cycle time (the daemon twin of `smo solve`).
    Solve {
        /// Netlist text (either dialect; auto-detected).
        netlist: String,
        /// Solver backend.
        backend: Backend,
        /// Independently check every solver verdict. The degradation
        /// ladder may clear this under load.
        certify: bool,
    },
    /// Check a concrete schedule (the daemon twin of `smo verify`).
    Verify {
        /// Netlist text.
        netlist: String,
        /// Cycle time to check.
        cycle_time: f64,
        /// One `[start, width]` pair per phase.
        phases: Vec<(f64, f64)>,
        /// Solver backend for the existence cross-check.
        backend: Backend,
    },
    /// Lint + solve + race analysis (the daemon twin of `smo check`).
    Check {
        /// Netlist text.
        netlist: String,
        /// Optional target cycle time.
        cycle_time: Option<f64>,
        /// Solver backend.
        backend: Backend,
    },
    /// Feasibility diagnosis (the daemon twin of `smo diagnose`).
    Diagnose {
        /// Netlist text.
        netlist: String,
        /// Optional target cycle time.
        cycle_time: Option<f64>,
    },
    /// Parameter sweep (the daemon twin of `smo sweep`).
    Sweep {
        /// Netlist text.
        netlist: String,
        /// `"tc"` or `"delay"`.
        param: String,
        /// Number of sweep points.
        runs: usize,
        /// Edge index (for `param = "tc"`).
        edge: usize,
        /// Upper end of the delay grid (for `param = "tc"`); default
        /// `2 ×` the edge's present delay.
        max_delay: Option<f64>,
        /// Relative jitter (for `param = "delay"`).
        spread: f64,
        /// RNG seed (for `param = "delay"`).
        seed: u64,
    },
}

impl Command {
    /// The wire name of this command.
    pub fn name(&self) -> &'static str {
        match self {
            Command::Ping => "ping",
            Command::Stats => "stats",
            Command::Shutdown => "shutdown",
            Command::DebugPanic => "debug-panic",
            Command::Solve { .. } => "solve",
            Command::Verify { .. } => "verify",
            Command::Check { .. } => "check",
            Command::Diagnose { .. } => "diagnose",
            Command::Sweep { .. } => "sweep",
        }
    }

    /// Control commands bypass the load gate, the cache and the
    /// degradation ladder; they must stay cheap and always answer.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Command::Ping | Command::Stats | Command::Shutdown | Command::DebugPanic
        )
    }

    /// The inline netlist text, for work commands.
    pub fn netlist(&self) -> Option<&str> {
        match self {
            Command::Solve { netlist, .. }
            | Command::Verify { netlist, .. }
            | Command::Check { netlist, .. }
            | Command::Diagnose { netlist, .. }
            | Command::Sweep { netlist, .. } => Some(netlist),
            _ => None,
        }
    }
}

impl Request {
    /// Parses one request line. All failures are `bad-request` errors with
    /// messages naming the offending field.
    pub fn parse(line: &str) -> Result<Request, ApiError> {
        let value =
            Json::parse(line).map_err(|e| ApiError::bad_request(format!("request line: {e}")))?;
        if !matches!(value, Json::Obj(_)) {
            return Err(ApiError::bad_request("request must be a JSON object"));
        }
        let id = match value.get("id") {
            None => None,
            Some(Json::Str(s)) => Some(s.clone()),
            Some(_) => return Err(ApiError::bad_request("`id` must be a string")),
        };
        let deadline_ms = match value.get("deadline_ms") {
            None => None,
            Some(v) => Some(v.as_u64().ok_or_else(|| {
                ApiError::bad_request("`deadline_ms` must be a non-negative integer")
            })?),
        };
        let cmd = value
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or_else(|| ApiError::bad_request("missing string field `cmd`"))?;
        let command = match cmd {
            "ping" => Command::Ping,
            "stats" => Command::Stats,
            "shutdown" => Command::Shutdown,
            "debug-panic" => Command::DebugPanic,
            "solve" => Command::Solve {
                netlist: req_netlist(&value)?,
                backend: opt_backend(&value)?,
                certify: opt_bool(&value, "certify")?.unwrap_or(true),
            },
            "verify" => {
                let phases = match value.get("phases") {
                    Some(Json::Arr(items)) => {
                        let mut out = Vec::with_capacity(items.len());
                        for item in items {
                            let pair = item.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                                ApiError::bad_request(
                                    "`phases` must be an array of [start, width] pairs",
                                )
                            })?;
                            let s = finite(&pair[0], "phases[].start")?;
                            let w = finite(&pair[1], "phases[].width")?;
                            out.push((s, w));
                        }
                        out
                    }
                    _ => {
                        return Err(ApiError::bad_request(
                            "verify needs `phases`: an array of [start, width] pairs",
                        ))
                    }
                };
                Command::Verify {
                    netlist: req_netlist(&value)?,
                    cycle_time: req_finite(&value, "cycle_time")?,
                    phases,
                    backend: opt_backend(&value)?,
                }
            }
            "check" => Command::Check {
                netlist: req_netlist(&value)?,
                cycle_time: opt_finite(&value, "cycle_time")?,
                backend: opt_backend(&value)?,
            },
            "diagnose" => Command::Diagnose {
                netlist: req_netlist(&value)?,
                cycle_time: opt_finite(&value, "cycle_time")?,
            },
            "sweep" => {
                let param = match value.get("param").and_then(Json::as_str) {
                    None => "delay".to_string(),
                    Some(p @ ("tc" | "delay")) => p.to_string(),
                    Some(other) => {
                        return Err(ApiError::bad_request(format!(
                            "`param` must be \"tc\" or \"delay\", got \"{other}\""
                        )))
                    }
                };
                let runs = opt_usize(&value, "runs")?.unwrap_or(16);
                if runs == 0 {
                    return Err(ApiError::bad_request("`runs` must be at least 1"));
                }
                Command::Sweep {
                    netlist: req_netlist(&value)?,
                    param,
                    runs,
                    edge: opt_usize(&value, "edge")?.unwrap_or(0),
                    max_delay: opt_finite(&value, "max_delay")?,
                    spread: opt_finite(&value, "spread")?.unwrap_or(0.1),
                    seed: match value.get("seed") {
                        None => 0,
                        Some(v) => v.as_u64().ok_or_else(|| {
                            ApiError::bad_request("`seed` must be a non-negative integer")
                        })?,
                    },
                }
            }
            other => {
                return Err(ApiError::bad_request(format!(
                    "unknown command `{other}` (known: ping, stats, shutdown, \
                     solve, verify, check, diagnose, sweep)"
                )))
            }
        };
        Ok(Request {
            id,
            deadline_ms,
            command,
        })
    }
}

fn req_netlist(value: &Json) -> Result<String, ApiError> {
    value
        .get("netlist")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| ApiError::bad_request("missing string field `netlist`"))
}

fn finite(v: &Json, field: &str) -> Result<f64, ApiError> {
    v.as_f64()
        .filter(|x| x.is_finite())
        .ok_or_else(|| ApiError::bad_request(format!("`{field}` must be a finite number")))
}

fn req_finite(value: &Json, field: &str) -> Result<f64, ApiError> {
    let v = value
        .get(field)
        .ok_or_else(|| ApiError::bad_request(format!("missing numeric field `{field}`")))?;
    finite(v, field)
}

fn opt_finite(value: &Json, field: &str) -> Result<Option<f64>, ApiError> {
    match value.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => finite(v, field).map(Some),
    }
}

fn opt_bool(value: &Json, field: &str) -> Result<Option<bool>, ApiError> {
    match value.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_bool()
            .map(Some)
            .ok_or_else(|| ApiError::bad_request(format!("`{field}` must be a boolean"))),
    }
}

fn opt_usize(value: &Json, field: &str) -> Result<Option<usize>, ApiError> {
    match value.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_u64().map(|n| Some(n as usize)).ok_or_else(|| {
            ApiError::bad_request(format!("`{field}` must be a non-negative integer"))
        }),
    }
}

fn opt_backend(value: &Json) -> Result<Backend, ApiError> {
    match value.get("backend") {
        None | Some(Json::Null) => Ok(Backend::default()),
        Some(v) => {
            let s = v
                .as_str()
                .ok_or_else(|| ApiError::bad_request("`backend` must be a string"))?;
            s.parse()
                .map_err(|e: String| ApiError::bad_request(format!("`backend`: {e}")))
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_solve_request() {
        let r = Request::parse(
            r#"{"id":"a1","cmd":"solve","netlist":"clock 2\n","deadline_ms":250,"backend":"graph","certify":false}"#,
        )
        .unwrap();
        assert_eq!(r.id.as_deref(), Some("a1"));
        assert_eq!(r.deadline_ms, Some(250));
        match r.command {
            Command::Solve {
                netlist,
                backend,
                certify,
            } => {
                assert_eq!(netlist, "clock 2\n");
                assert_eq!(backend, Backend::Graph);
                assert!(!certify);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn defaults_are_applied() {
        let r = Request::parse(r#"{"cmd":"solve","netlist":""}"#).unwrap();
        assert_eq!(r.id, None);
        assert_eq!(r.deadline_ms, None);
        assert!(matches!(
            r.command,
            Command::Solve {
                backend: Backend::Auto,
                certify: true,
                ..
            }
        ));
    }

    #[test]
    fn verify_needs_phase_pairs() {
        let r = Request::parse(
            r#"{"cmd":"verify","netlist":"x","cycle_time":10,"phases":[[0,5],[5,5]]}"#,
        )
        .unwrap();
        match r.command {
            Command::Verify {
                cycle_time, phases, ..
            } => {
                assert_eq!(cycle_time, 10.0);
                assert_eq!(phases, vec![(0.0, 5.0), (5.0, 5.0)]);
            }
            other => panic!("wrong command: {other:?}"),
        }
        let e = Request::parse(r#"{"cmd":"verify","netlist":"x","cycle_time":10,"phases":[[0]]}"#)
            .unwrap_err();
        assert!(e.message.contains("phases"));
    }

    #[test]
    fn hostile_requests_are_bad_request() {
        for line in [
            "",
            "not json",
            "[]",
            "42",
            r#"{"cmd":"frobnicate"}"#,
            r#"{"netlist":"x"}"#,
            r#"{"cmd":"solve"}"#,
            r#"{"cmd":"solve","netlist":7}"#,
            r#"{"cmd":"solve","netlist":"","deadline_ms":-1}"#,
            r#"{"cmd":"solve","netlist":"","deadline_ms":1.5}"#,
            r#"{"cmd":"sweep","netlist":"","param":"voltage"}"#,
            r#"{"cmd":"sweep","netlist":"","runs":0}"#,
            r#"{"cmd":"check","netlist":"","cycle_time":"ten"}"#,
            r#"{"cmd":"solve","netlist":"","backend":"quantum"}"#,
        ] {
            let e = Request::parse(line).unwrap_err();
            assert_eq!(e.kind, crate::error::ErrorKind::BadRequest, "line: {line}");
        }
    }

    #[test]
    fn control_commands_carry_no_payload() {
        for (line, name) in [
            (r#"{"cmd":"ping"}"#, "ping"),
            (r#"{"cmd":"stats"}"#, "stats"),
            (r#"{"cmd":"shutdown"}"#, "shutdown"),
            (r#"{"cmd":"debug-panic"}"#, "debug-panic"),
        ] {
            let r = Request::parse(line).unwrap();
            assert!(r.command.is_control());
            assert_eq!(r.command.name(), name);
            assert_eq!(r.command.netlist(), None);
        }
    }
}
