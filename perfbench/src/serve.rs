//! `serve-mix`: two closed-loop clients against one default `smo serve`
//! process; and the traced replay of the same lines through
//! `Engine::handle_line` in-process.

use crate::harness::{read_all, tail_note, vm_hwm_mb, Env, Outcome};
use crate::inputs::{probe_cycle_time, rename, serve_designs, ServeKind, ServeOp, ServeStream};
use crate::layers::Layers;
use crate::oracle::agrees;
use crate::stats::median;
use crate::trace::Tracer;
use smo_api::json::escape;
use smo_api::{parse_netlist, Client, Engine, EngineConfig, Json, Load, ParseLimits, Request};
use smo_core::{classify_model, graph_feasible_at, variable_images, TimingModel};
use smo_lp::{DifferenceSystem, FixedParamOutcome, SolveBudget};
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Concurrent clients (one connection each).
pub const CLIENTS: usize = 2;

/// The designs one run serves, with their oracle cycle times once known.
#[derive(Debug, Clone)]
pub struct DesignSet {
    /// Netlists, all warmed into the result cache during set-up.
    pub netlists: Vec<String>,
    /// The netlists as JSON string literals.
    json: Vec<String>,
    /// Clock phases of every design.
    phases: usize,
    /// Oracle cycle times.
    pub tc: Vec<f64>,
}

impl DesignSet {
    /// Wraps the generated designs.
    ///
    /// # Errors
    ///
    /// A netlist without a `clock` line.
    pub fn new(netlists: Vec<String>) -> Result<DesignSet, String> {
        let phases = netlists
            .first()
            .and_then(|n| n.lines().next())
            .and_then(|l| l.strip_prefix("clock "))
            .and_then(|k| k.split_whitespace().next())
            .and_then(|k| k.parse().ok())
            .ok_or("generated netlist has no `clock` line")?;
        Ok(DesignSet {
            json: netlists.iter().map(|n| escape(n)).collect(),
            netlists,
            phases,
            tc: Vec::new(),
        })
    }

    /// The request line for `op`. Probes need the oracle cycle times.
    pub fn line(&self, op: &ServeOp) -> String {
        let d = op.design;
        let fresh = || escape(&rename(&self.netlists[d], &format!("{}_", op.id)));
        match op.kind {
            ServeKind::SolveHit => format!(
                "{{\"id\":\"{}\",\"cmd\":\"solve\",\"netlist\":{}}}",
                op.id, self.json[d]
            ),
            ServeKind::SolveMiss => format!(
                "{{\"id\":\"{}\",\"cmd\":\"solve\",\"netlist\":{}}}",
                op.id,
                fresh()
            ),
            ServeKind::Check => format!(
                "{{\"id\":\"{}\",\"cmd\":\"check\",\"netlist\":{}}}",
                op.id,
                fresh()
            ),
            ServeKind::ProbeFeasible | ServeKind::ProbeInfeasible => {
                let tc = probe_cycle_time(op, self.tc[d]);
                let k = self.phases as f64;
                let phases: Vec<String> = (0..self.phases)
                    .map(|p| format!("[{},{}]", p as f64 * tc / k, tc / k))
                    .collect();
                format!(
                    "{{\"id\":\"{}\",\"cmd\":\"verify\",\"netlist\":{},\"cycle_time\":{tc},\
                     \"phases\":[{}]}}",
                    op.id,
                    self.json[d],
                    phases.join(",")
                )
            }
        }
    }

    /// The warm-up request for design `i`.
    fn warm_line(&self, i: usize) -> String {
        format!(
            "{{\"id\":\"warm{i}\",\"cmd\":\"solve\",\"netlist\":{}}}",
            self.json[i]
        )
    }
}

/// Checks one reply line against the oracle; `Ok(true)` when it was
/// served below the `full` degradation rung.
///
/// # Errors
///
/// A refused, failed or wrong reply, with the reason.
pub fn check_reply(op: &ServeOp, reply: &str, tc_star: f64) -> Result<bool, String> {
    let v = Json::parse(reply).map_err(|e| format!("reply is not JSON: {e}"))?;
    if v.get("status").and_then(Json::as_str) != Some("ok") {
        return Err(format!(
            "error reply: {}",
            v.get("error").map_or(String::new(), |e| e.render_compact())
        ));
    }
    let result = v.get("result").ok_or("reply has no result")?;
    let tc = || result.get("cycle_time").and_then(Json::as_f64);
    match op.kind {
        ServeKind::SolveHit | ServeKind::SolveMiss => {
            let tc = tc().ok_or("solve reply has no cycle_time")?;
            if !agrees(tc, tc_star, 6) {
                return Err(format!("Tc {tc} but the certified LP says {tc_star:.6}"));
            }
            if result.get("certified").and_then(Json::as_bool) != Some(true) {
                return Err("solve reply is not certified".into());
            }
        }
        ServeKind::ProbeFeasible | ServeKind::ProbeInfeasible => {
            let want = op.kind == ServeKind::ProbeFeasible;
            if result.get("exists_at_tc").and_then(Json::as_bool) != Some(want) {
                return Err(format!(
                    "exists_at_tc should be {want} at Tc = {} (Tc* = {tc_star})",
                    probe_cycle_time(op, tc_star)
                ));
            }
        }
        ServeKind::Check => {
            let tc = tc().ok_or("check reply has no cycle_time")?;
            if !agrees(tc, tc_star, 6) {
                return Err(format!("Tc {tc} but the certified LP says {tc_star:.6}"));
            }
            if result.get("clean").and_then(Json::as_bool) != Some(true) {
                return Err("check found issues on a lint-clean datapath".into());
            }
        }
    }
    Ok(v.get("degradation").and_then(Json::as_str) != Some("full"))
}

/// A running `smo serve` process.
pub struct Server {
    child: Child,
    /// The address it listens on.
    pub addr: String,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Starts `smo serve --addr 127.0.0.1:0` and waits until it accepts.
    ///
    /// # Errors
    ///
    /// The process could not start or never announced its address.
    pub fn start(smo: &Path) -> Result<Server, String> {
        let mut child = Command::new(smo)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start smo serve: {e}"))?;
        let mut reader = BufReader::new(child.stdout.take().ok_or("no server stdout")?);
        let mut first = String::new();
        reader
            .read_line(&mut first)
            .map_err(|e| format!("reading server banner: {e}"))?;
        let Some(addr) = first.trim().strip_prefix("listening on ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("unexpected server banner {first:?}"));
        };
        let addr = addr.to_string();
        // Keep draining stdout so the final "drained" line never blocks.
        let drain = std::thread::spawn(move || {
            let mut rest = Vec::new();
            let _ = reader.read_to_end(&mut rest);
        });
        Ok(Server {
            child,
            addr,
            drain: Some(drain),
        })
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One request on a fresh connection.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn call(&self, line: &str) -> Result<String, String> {
        let mut client = Client::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        client.call(line).map_err(|e| format!("call: {e}"))
    }

    /// Counters from the `stats` command.
    ///
    /// # Errors
    ///
    /// Connection failures or a malformed reply.
    pub fn stats(&self) -> Result<Stats, String> {
        let reply = self.call("{\"cmd\":\"stats\"}")?;
        let v = Json::parse(&reply).map_err(|e| e.to_string())?;
        let result = v.get("result").ok_or("stats reply has no result")?;
        let cache = result.get("cache").ok_or("stats reply has no cache")?;
        let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_u64).unwrap_or(0);
        Ok(Stats {
            sheds: num(result, "sheds"),
            result_hits: num(cache, "result_hits"),
            circuit_hits: num(cache, "circuit_hits"),
        })
    }

    /// Asks the server to drain and waits for it to exit (killing it after
    /// ten seconds).
    ///
    /// # Errors
    ///
    /// The process could not be waited for.
    pub fn stop(mut self) -> Result<(), String> {
        let _ = self.call("{\"cmd\":\"shutdown\"}");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Ok(None) => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
                Err(e) => return Err(format!("waiting for smo serve: {e}")),
            }
        }
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Daemon counters the benchmark reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    /// Requests shed at the admission gate.
    pub sheds: u64,
    /// Result-cache hits.
    pub result_hits: u64,
    /// Parsed-circuit cache hits.
    pub circuit_hits: u64,
}

/// One client request as it happened.
#[derive(Debug, Clone)]
pub struct Record {
    /// The request.
    pub op: ServeOp,
    /// Round trip in milliseconds.
    pub ms: f64,
    /// When the reply arrived.
    pub done: Instant,
    /// The reply line, or the transport error.
    pub reply: Result<String, String>,
}

/// Set-up: generate the designs, start the daemon, warm the result cache
/// with every design. Returns the server, the designs and the warm-up
/// replies.
fn set_up(env: &Env, dir: &Path) -> Result<(Server, DesignSet, Vec<String>), String> {
    let paths = env.generate(&serve_designs(), dir)?;
    let set = DesignSet::new(read_all(&paths)?)?;
    let server = Server::start(&env.smo)?;
    let warm = (0..set.netlists.len())
        .map(|i| server.call(&set.warm_line(i)))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((server, set, warm))
}

/// Fills in the oracle answers and checks the warm-up replies.
fn attach_oracle(
    env: &Env,
    set: &mut DesignSet,
    warm: &[String],
    out: &mut Outcome,
) -> Result<(), String> {
    let all: Vec<&str> = set.netlists.iter().map(String::as_str).collect();
    set.tc = env.oracle.cycle_times(&all)?;
    for (i, reply) in warm.iter().enumerate() {
        let op = ServeOp {
            kind: ServeKind::SolveMiss,
            design: i,
            margin: 0.0,
            id: format!("warm{i}"),
        };
        let verdict = check_reply(&op, reply, set.tc[i]);
        out.check(verdict.is_ok(), || {
            format!("warm-up solve {i}: {verdict:?}")
        });
    }
    Ok(())
}

/// Runs the closed loop: every client sends its next line as soon as the
/// previous reply arrives, until `window` has passed. A client whose
/// connection breaks records the error and stops.
///
/// # Errors
///
/// A client could not connect.
fn closed_loop(
    addr: &str,
    seed: u64,
    set: &DesignSet,
    window: Duration,
) -> Result<Vec<Record>, String> {
    let deadline = Instant::now() + window;
    let per_client: Vec<Result<Vec<Record>, String>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let mut records = Vec::new();
                    for op in ServeStream::new(seed, c) {
                        if Instant::now() >= deadline {
                            break;
                        }
                        let line = set.line(&op);
                        let t = Instant::now();
                        let reply = client.call(&line).map_err(|e| e.to_string());
                        let done = Instant::now();
                        let broken = reply.is_err();
                        records.push(Record {
                            op,
                            ms: (done - t).as_secs_f64() * 1e3,
                            done,
                            reply,
                        });
                        if broken {
                            break;
                        }
                    }
                    Ok(records)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut records = Vec::new();
    for r in per_client {
        records.extend(r?);
    }
    Ok(records)
}

/// Counts of one measured window.
struct Window {
    records: Vec<Record>,
    ok_ms: Vec<f64>,
    degraded: usize,
    elapsed: f64,
    before: Stats,
    after: Stats,
    rss_mb: f64,
}

fn measure(
    env: &Env,
    server: &Server,
    set: &DesignSet,
    window: Duration,
    out: &mut Outcome,
) -> Result<Window, String> {
    let before = server.stats()?;
    let start = Instant::now();
    let records = closed_loop(&server.addr, env.seed, set, window)?;
    let elapsed = records
        .iter()
        .map(|r| r.done)
        .max()
        .map_or(0.0, |d| (d - start).as_secs_f64());
    let after = server.stats()?;
    let rss_mb = vm_hwm_mb(server.pid()).unwrap_or(0.0);
    let mut ok_ms = Vec::new();
    let mut degraded = 0;
    for r in &records {
        let verdict = r
            .reply
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|reply| check_reply(&r.op, reply, set.tc[r.op.design]));
        if let Ok(d) = verdict {
            degraded += usize::from(d);
            ok_ms.push(r.ms);
        }
        out.check(verdict.is_ok(), || {
            format!("{} {:?}: {verdict:?}", r.op.id, r.op.kind)
        });
    }
    Ok(Window {
        records,
        ok_ms,
        degraded,
        elapsed,
        before,
        after,
        rss_mb,
    })
}

/// The untraced workload.
///
/// # Errors
///
/// Set-up, oracle, server or connection failures.
pub fn run(env: &Env) -> Result<Outcome, String> {
    let (setup_s, (server, mut set, warm)) =
        env.timed_setup(|dir| set_up(env, dir), |(server, _, _)| server.stop())?;
    let mut out = Outcome::default();
    attach_oracle(env, &mut set, &warm, &mut out)?;
    let w = measure(env, &server, &set, env.seconds, &mut out)?;
    server.stop()?;
    crate::harness::push_e2e(&mut out, setup_s, &w.ok_ms, w.elapsed, w.rss_mb);
    out.notes.push(format!(
        "serve_rps = {:.2}/s; serve_ms_p50 = {:.3} ms; serve_rss_mb = {:.1} MB",
        w.ok_ms.len() as f64 / w.elapsed,
        median(&w.ok_ms).unwrap_or(f64::NAN),
        w.rss_mb
    ));
    if let Some((v, note)) = tail_note("serve_ms_tail", &w.ok_ms) {
        out.notes.push(format!("serve_ms_tail = {v:.3} ms; {note}"));
    }
    for kind in ServeKind::ALL {
        let mut ms: Vec<f64> = w
            .records
            .iter()
            .filter(|r| r.op.kind == kind)
            .map(|r| r.ms)
            .collect();
        ms.sort_by(f64::total_cmp);
        let q = |f: f64| {
            ms.get((f * ms.len() as f64) as usize)
                .copied()
                .unwrap_or(f64::NAN)
        };
        out.notes.push(format!(
            "  {:16} {:5} requests, p25/p50/p75 {:.3} / {:.3} / {:.3} ms",
            kind.slug(),
            ms.len(),
            q(0.25),
            q(0.5),
            q(0.75)
        ));
    }
    out.notes.push(format!(
        "degraded {}, shed {}",
        w.degraded,
        w.after.sheds - w.before.sheds
    ));
    Ok(out)
}

/// The traced section: a shorter server window, then the same lines
/// replayed in completion order through `Engine::handle_line` in-process
/// (compared byte for byte with the daemon's replies), then every probe
/// split into model build and `feasible_at`.
///
/// # Errors
///
/// Set-up, oracle, server or engine failures.
pub fn traced_section(
    env: &Env,
    tracer: &mut Tracer,
    layers: &mut Layers,
    out: &mut Outcome,
    budget: Duration,
) -> Result<(), String> {
    let (server, mut set, warm) = set_up(env, &env.work.join("serve"))?;
    attach_oracle(env, &mut set, &warm, out)?;
    let mut w = measure(env, &server, &set, budget / 2, out)?;
    server.stop()?;
    let n = w.records.len().max(1) as f64;
    let result_hits = (w.after.result_hits - w.before.result_hits) as f64;
    let circuit_hits = (w.after.circuit_hits - w.before.circuit_hits) as f64;
    layers.add("api.result_hit_ratio", result_hits / n);
    layers.add(
        "api.circuit_hit_ratio",
        circuit_hits / (n - result_hits).max(1.0),
    );
    layers.add("api.degraded_frac", w.degraded as f64 / n);
    layers.add("api.shed", (w.after.sheds - w.before.sheds) as f64);

    let engine = Engine::new(EngineConfig::default());
    for i in 0..set.netlists.len() {
        engine.handle_line(&set.warm_line(i), Load::IDLE);
    }
    w.records.sort_by_key(|r| r.done);
    for (i, r) in w.records.iter().enumerate() {
        let request = 3000 + i as u64;
        let line = set.line(&r.op);
        let reply = tracer.span("api.request", request, None, |t, root| {
            t.span("api.request_parse", request, Some(root), |_, _| {
                Request::parse(&line)
            })
            .map_err(|e| e.message)?;
            Ok::<_, String>(t.span("api.engine", request, Some(root), |_, _| {
                engine.handle_line(&line, Load::IDLE)
            }))
        })?;
        let last = |name: &str| tracer.durations_ms(name).last().copied().unwrap_or(0.0);
        let engine_ms = last("api.engine");
        layers.add(&format!("api.engine_ms.{}", r.op.kind.slug()), engine_ms);
        layers.add("api.request_parse_ms", last("api.request_parse"));
        layers.add("api.wire_ms", r.ms - engine_ms);
        out.check(r.reply.as_deref() == Ok(reply.line.as_str()), || {
            format!(
                "{}: in-process engine reply differs from the daemon's",
                r.op.id
            )
        });
    }

    let circuits = set
        .netlists
        .iter()
        .map(|n| parse_netlist(n, &ParseLimits::default()).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let probes = w.records.iter().filter(|r| {
        matches!(
            r.op.kind,
            ServeKind::ProbeFeasible | ServeKind::ProbeInfeasible
        )
    });
    for (i, r) in probes.enumerate() {
        let request = 5000 + i as u64;
        let circuit = &circuits[r.op.design];
        let tc = probe_cycle_time(&r.op, set.tc[r.op.design]);
        let whole = tracer.span("core.graph_feasible_at", request, None, |_, _| {
            graph_feasible_at(circuit, tc)
        });
        let model = TimingModel::build(circuit).map_err(|e| e.to_string())?;
        let cls = classify_model(circuit, &model).map_err(|e| e.to_string())?;
        let images = variable_images(circuit, &model);
        let sys =
            DifferenceSystem::build(model.problem(), &images, &cls).map_err(|e| e.to_string())?;
        let outcome = tracer
            .span("lp.feasible_at", request, None, |_, _| {
                sys.feasible_at(tc, &SolveBudget::UNLIMITED)
            })
            .map_err(|e| e.to_string())?;
        let feasible = matches!(outcome, FixedParamOutcome::Feasible { .. });
        let want = r.op.kind == ServeKind::ProbeFeasible;
        out.check(
            feasible == want && matches!(whole, Ok(Some(f)) if f == want),
            || format!("{}: feasible_at says {feasible}, expected {want}", r.op.id),
        );
        let last = |name: &str| tracer.durations_ms(name).last().copied().unwrap_or(0.0);
        let fa = last("lp.feasible_at");
        layers.add(
            if feasible {
                "lp.feasible_ms.feasible"
            } else {
                "lp.feasible_ms.infeasible"
            },
            fa,
        );
        layers.add("core.probe_build_ms", last("core.graph_feasible_at") - fa);
    }
    Ok(())
}
