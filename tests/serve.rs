//! End-to-end tests for the `smo serve` daemon: golden wire-protocol
//! envelopes, deadline expiry over the socket, panic isolation +
//! quarantine, backpressure shedding, graceful drain, and a hostile
//! corpus sweep (every checked-in circuit, the stress generators,
//! malformed and oversized inputs) that must never crash the server.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use smo::api::{serve, Client, Engine, EngineConfig, Json, Load, ServerConfig};
use smo::circuit::netlist;
use smo::gen::datapath::{pipelined_datapath, DatapathConfig};
use std::time::Duration;

/// Escapes a netlist into a JSON string literal.
fn js(s: &str) -> String {
    smo::api::json::escape(s)
}

/// Builds a solve request line for an inline netlist.
fn solve_line(id: &str, netlist: &str) -> String {
    format!(
        "{{\"id\":{},\"cmd\":\"solve\",\"netlist\":{}}}",
        js(id),
        js(netlist)
    )
}

/// Parses a response line and returns (status, kind-or-empty).
fn classify(line: &str) -> (String, String) {
    let v = Json::parse(line).expect("response must be valid JSON");
    let status = v.get("status").and_then(Json::as_str).unwrap().to_string();
    let kind = v
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    (status, kind)
}

fn read_circuit(name: &str) -> String {
    std::fs::read_to_string(format!("circuits/{name}")).unwrap()
}

fn start_server(max_active: usize, max_queue: usize) -> smo::api::ServerHandle {
    let config = ServerConfig {
        max_active,
        max_queue,
        ..Default::default()
    };
    serve(config).expect("bind")
}

// ---------------------------------------------------------------------
// Golden envelope bytes: these strings ARE the wire protocol. If one of
// these assertions breaks, a client somewhere breaks with it.
// ---------------------------------------------------------------------

#[test]
fn golden_control_envelopes() {
    let e = Engine::new(EngineConfig::default());
    let ping = e.handle_line("{\"id\":\"p\",\"cmd\":\"ping\"}", Load::IDLE);
    assert_eq!(
        ping.line,
        "{\"id\":\"p\",\"status\":\"ok\",\"degradation\":\"full\",\"cached\":false,\
         \"result\":{\"ok\":true}}"
    );
    let shutdown = e.handle_line("{\"id\":\"bye\",\"cmd\":\"shutdown\"}", Load::IDLE);
    assert!(shutdown.shutdown);
    assert_eq!(
        shutdown.line,
        "{\"id\":\"bye\",\"status\":\"ok\",\"degradation\":\"full\",\"cached\":false,\
         \"result\":{\"draining\":true}}"
    );
}

#[test]
fn golden_error_envelopes() {
    let e = Engine::new(EngineConfig::default());

    // Malformed JSON: bad-request, id unknown so null.
    let bad = e.handle_line("this is not json", Load::IDLE);
    let v = Json::parse(&bad.line).unwrap();
    assert!(matches!(v.get("id"), Some(Json::Null)));
    assert_eq!(v.get("status").and_then(Json::as_str), Some("error"));
    let err = v.get("error").unwrap();
    assert_eq!(err.get("kind").and_then(Json::as_str), Some("bad-request"));
    assert_eq!(err.get("retryable").and_then(Json::as_bool), Some(false));

    // Expired deadline: exact bytes.
    let line = format!(
        "{{\"id\":\"d\",\"cmd\":\"solve\",\"deadline_ms\":0,\"netlist\":{}}}",
        js(&read_circuit("example1.ckt"))
    );
    let expired = e.handle_line(&line, Load::IDLE);
    assert_eq!(
        expired.line,
        "{\"id\":\"d\",\"status\":\"error\",\"degradation\":\"full\",\"cached\":false,\
         \"error\":{\"kind\":\"budget\",\
         \"message\":\"deadline expired before the request started\",\
         \"retryable\":false}}"
    );

    // Load-shed and drain refusals: exact bytes, retryable.
    assert_eq!(
        e.shed_reply(Some("s")),
        "{\"id\":\"s\",\"status\":\"error\",\"degradation\":\"uncertified\",\"cached\":false,\
         \"error\":{\"kind\":\"overload\",\
         \"message\":\"server saturated (active and queued slots full); retry with backoff\",\
         \"retryable\":true}}"
    );
    assert_eq!(
        e.shutting_down_reply(None),
        "{\"id\":null,\"status\":\"error\",\"degradation\":\"uncertified\",\"cached\":false,\
         \"error\":{\"kind\":\"shutting-down\",\
         \"message\":\"server is draining for shutdown\",\
         \"retryable\":true}}"
    );
}

#[test]
fn golden_solve_result_bytes() {
    // Pins the full ok envelope for Example 2 of the paper — field order,
    // number formatting, degradation stamp, everything.
    let e = Engine::new(EngineConfig::default());
    let reply = e.handle_line(&solve_line("s1", &read_circuit("example2.ckt")), Load::IDLE);
    assert_eq!(
        reply.line,
        "{\"id\":\"s1\",\"status\":\"ok\",\"degradation\":\"full\",\"cached\":false,\
         \"result\":{\"cycle_time\":31,\"certified\":true,\"backend\":\"graph\",\
         \"graph_certificate\":{\"valid\":true,\"implied_lower\":31,\"witness_rows\":3,\
         \"max_violation\":0},\"lp_iterations\":0,\"update_iterations\":2,\
         \"num_constraints\":32,\"certificates\":[]}}"
    );
    // Byte-identical on the cache hit, except for the cached flag.
    let again = e.handle_line(&solve_line("s1", &read_circuit("example2.ckt")), Load::IDLE);
    assert_eq!(
        again.line,
        reply.line.replace("\"cached\":false", "\"cached\":true")
    );
}

// ---------------------------------------------------------------------
// Live-socket behaviour.
// ---------------------------------------------------------------------

#[test]
fn deadline_expiry_over_the_wire() {
    let server = start_server(2, 2);
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    // A large circuit forced onto the LP backend with a 1 ms deadline:
    // the solver must notice mid-flight and return a structured budget
    // error rather than running to completion.
    let big = netlist::write(&smo::gen::random::random_circuit(
        &smo::gen::random::GenConfig {
            latches: 120,
            edges: 360,
            ..Default::default()
        },
        7,
    ));
    let line = format!(
        "{{\"id\":\"slow\",\"cmd\":\"solve\",\"backend\":\"lp\",\"deadline_ms\":1,\"netlist\":{}}}",
        js(&big)
    );
    let resp = client.call(&line).unwrap();
    let (status, kind) = classify(&resp);
    assert_eq!(status, "error");
    assert_eq!(kind, "budget");

    // The same netlist without a deadline still solves: deadline expiry
    // does not poison the circuit cache.
    let ok = client.call(&solve_line("ok", &big)).unwrap();
    assert_eq!(classify(&ok).0, "ok");

    server.shutdown();
    server.wait();
}

#[test]
fn sweep_deadline_expiry_over_the_wire() {
    let server = start_server(2, 2);
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    // 100k runs would take minutes; the 50 ms deadline is one absolute
    // budget across the base solve and every run, so the sweep stops
    // promptly with a structured budget error.
    let big = netlist::write(&smo::gen::random::random_circuit(
        &smo::gen::random::GenConfig {
            latches: 120,
            edges: 360,
            ..Default::default()
        },
        7,
    ));
    let line = format!(
        "{{\"id\":\"sw\",\"cmd\":\"sweep\",\"runs\":100000,\"deadline_ms\":50,\"netlist\":{}}}",
        js(&big)
    );
    let started = std::time::Instant::now();
    let resp = client.call(&line).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(
        classify(&resp),
        ("error".to_string(), "budget".to_string()),
        "{resp}"
    );
    assert!(elapsed < Duration::from_secs(10), "took {elapsed:?}");

    // A small sweep of the same netlist under a generous deadline answers.
    let line = format!(
        "{{\"id\":\"sw2\",\"cmd\":\"sweep\",\"runs\":3,\"deadline_ms\":60000,\"netlist\":{}}}",
        js(&big)
    );
    let ok = client.call(&line).unwrap();
    assert_eq!(classify(&ok).0, "ok", "{ok}");
    assert!(ok.contains("\"certified\":true"), "{ok}");

    server.shutdown();
    server.wait();
}

#[test]
fn check_deadline_expiry_over_the_wire() {
    let server = start_server(2, 2);
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    // A ~10k-row datapath (`smo gen --latches 3333 --seed 7`): the check's
    // cycle-time solve outlasts a 5 ms deadline, so the request answers
    // the structured budget error instead of running to completion.
    let big = netlist::write(&pipelined_datapath(&DatapathConfig::with_latches(3333), 7));
    let line = format!(
        "{{\"id\":\"ck\",\"cmd\":\"check\",\"deadline_ms\":5,\"netlist\":{}}}",
        js(&big)
    );
    let started = std::time::Instant::now();
    let resp = client.call(&line).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(
        classify(&resp),
        ("error".to_string(), "budget".to_string()),
        "{resp}"
    );
    assert!(elapsed < Duration::from_secs(10), "took {elapsed:?}");

    // The daemon keeps serving: a small check answers.
    let line = format!(
        "{{\"id\":\"ck2\",\"cmd\":\"check\",\"deadline_ms\":60000,\"netlist\":{}}}",
        js(&read_circuit("example1.ckt"))
    );
    let ok = client.call(&line).unwrap();
    assert_eq!(classify(&ok).0, "ok", "{ok}");
    assert!(ok.contains("\"clean\":true"), "{ok}");

    server.shutdown();
    server.wait();
}

#[test]
fn panic_isolation_and_quarantine() {
    let server = start_server(2, 2);
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    // `#!panic` is the engine's test hook: the handler genuinely panics
    // inside catch_unwind, exactly like an engine bug on hostile input.
    let poison = "#!panic\n# never parsed\n";
    let first = client.call(&solve_line("p1", poison)).unwrap();
    let (status, kind) = classify(&first);
    assert_eq!((status.as_str(), kind.as_str()), ("error", "panic"));

    // The daemon is still alive and serving on the same connection…
    let pong = client.call("{\"id\":\"alive\",\"cmd\":\"ping\"}").unwrap();
    assert_eq!(classify(&pong).0, "ok");
    // …and on fresh connections.
    let mut second = Client::connect(&addr).unwrap();
    let resolve = second
        .call(&solve_line("fine", &read_circuit("example1.ckt")))
        .unwrap();
    assert_eq!(classify(&resolve).0, "ok");

    // Resubmitting the poisoned input is fenced off without re-running.
    let again = second.call(&solve_line("p2", poison)).unwrap();
    let (status, kind) = classify(&again);
    assert_eq!((status.as_str(), kind.as_str()), ("error", "quarantined"));

    // debug-panic exercises the same path for control flow.
    let dp = client.call("{\"cmd\":\"debug-panic\"}").unwrap();
    assert_eq!(classify(&dp), ("error".into(), "panic".into()));
    let pong = client.call("{\"cmd\":\"ping\"}").unwrap();
    assert_eq!(classify(&pong).0, "ok");

    server.shutdown();
    server.wait();
}

#[test]
fn hostile_corpus_never_crashes_the_daemon() {
    let server = start_server(4, 8);
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let mut sent = 0usize;

    let mut expect_structured = |line: &str, client: &mut Client| {
        let resp = client.call(line).expect("daemon must keep answering");
        let v = Json::parse(&resp).expect("every response is one JSON object");
        let status = v.get("status").and_then(Json::as_str).unwrap();
        assert!(status == "ok" || status == "error", "status was {status}");
        if status == "error" {
            let kind = v
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str)
                .unwrap();
            assert!(!kind.is_empty());
        }
        sent += 1;
    };

    // Every checked-in circuit through every work command.
    for entry in std::fs::read_dir("circuits").unwrap() {
        let path = entry.unwrap().path();
        let src = std::fs::read_to_string(&path).unwrap();
        let n = js(&src);
        expect_structured(
            &format!("{{\"cmd\":\"solve\",\"netlist\":{n}}}"),
            &mut client,
        );
        expect_structured(
            &format!("{{\"cmd\":\"check\",\"netlist\":{n}}}"),
            &mut client,
        );
        expect_structured(
            &format!("{{\"cmd\":\"diagnose\",\"cycle_time\":1,\"netlist\":{n}}}"),
            &mut client,
        );
        // …and truncated / corrupted variants of it.
        let truncated = &src[..src.len() / 2];
        expect_structured(
            &format!("{{\"cmd\":\"solve\",\"netlist\":{}}}", js(truncated)),
            &mut client,
        );
    }

    // The stress-generator suite: numerically nasty but valid circuits.
    for (name, circuit) in smo::gen::stress::suite(3) {
        let n = js(&netlist::write(&circuit));
        let line = format!("{{\"id\":{},\"cmd\":\"solve\",\"netlist\":{n}}}", js(&name));
        expect_structured(&line, &mut client);
    }

    // Malformed inputs: garbage JSON, wrong types, unknown commands,
    // binary noise, deeply nested JSON.
    for bad in [
        "{".to_string(),
        "[1,2,3]".to_string(),
        "{\"cmd\":42}".to_string(),
        "{\"cmd\":\"frobnicate\"}".to_string(),
        "{\"cmd\":\"solve\",\"netlist\":7}".to_string(),
        "{\"cmd\":\"solve\"}".to_string(),
        "\u{1}\u{2}binary\u{3}".to_string(),
        format!("{}1{}", "[".repeat(100), "]".repeat(100)),
    ] {
        expect_structured(&bad, &mut client);
    }

    // Oversized netlist: exceeds ParseLimits, must come back `limit`.
    let huge = "a".repeat((4 << 20) + 1);
    let resp = client
        .call(&format!("{{\"cmd\":\"solve\",\"netlist\":{}}}", js(&huge)))
        .unwrap();
    assert_eq!(classify(&resp), ("error".into(), "limit".into()));

    // After all of that the daemon still drains cleanly.
    let stats = client.call("{\"cmd\":\"stats\"}").unwrap();
    let v = Json::parse(&stats).unwrap();
    assert_eq!(
        v.get("result")
            .and_then(|r| r.get("panics"))
            .and_then(Json::as_u64),
        Some(0),
        "hostile corpus must not panic the engine"
    );
    assert!(sent > 20, "corpus should exercise many requests");
    server.shutdown();
    server.wait();
}

#[test]
fn overload_sheds_instead_of_buffering() {
    // One execution slot, zero queue: a second concurrent request must be
    // shed with a structured, retryable overload error.
    let server = serve(ServerConfig {
        max_active: 1,
        max_queue: 0,
        ..Default::default()
    })
    .expect("bind");
    let addr = server.addr().to_string();

    // Occupy the only slot with a deliberately slow LP solve.
    let big = netlist::write(&smo::gen::random::random_circuit(
        &smo::gen::random::GenConfig {
            latches: 100,
            edges: 300,
            ..Default::default()
        },
        11,
    ));
    let slow_line = format!(
        "{{\"id\":\"slow\",\"cmd\":\"solve\",\"backend\":\"lp\",\"netlist\":{}}}",
        js(&big)
    );
    let addr2 = addr.clone();
    let slow = std::thread::spawn(move || {
        let mut c = Client::connect(&addr2).unwrap();
        c.call(&slow_line).unwrap()
    });

    // Wait for the slow request to actually hold the slot, then poke.
    std::thread::sleep(Duration::from_millis(150));
    let mut c = Client::connect(&addr).unwrap();
    // Control commands bypass the gate even under saturation.
    let pong = c.call("{\"cmd\":\"ping\"}").unwrap();
    assert_eq!(classify(&pong).0, "ok");
    // Work commands are shed.
    let mut shed = 0;
    for i in 0..20 {
        let resp = c
            .call(&solve_line(&format!("q{i}"), &read_circuit("example1.ckt")))
            .unwrap();
        let (status, kind) = classify(&resp);
        if status == "error" && kind == "overload" {
            shed += 1;
        }
    }
    assert!(shed > 0, "a saturated 1-slot server must shed work");

    let slow_resp = slow.join().unwrap();
    assert_eq!(classify(&slow_resp).0, "ok");
    server.shutdown();
    server.wait();
}

#[test]
fn graceful_drain_finishes_inflight_work() {
    let server = start_server(2, 2);
    let addr = server.addr().to_string();

    let mut a = Client::connect(&addr).unwrap();
    let resp = a
        .call(&solve_line("before", &read_circuit("alu_bypass.ckt")))
        .unwrap();
    assert_eq!(classify(&resp).0, "ok");

    // Shutdown via the wire command; the same connection gets the ack.
    let ack = a.call("{\"id\":\"bye\",\"cmd\":\"shutdown\"}").unwrap();
    let v = Json::parse(&ack).unwrap();
    assert_eq!(
        v.get("result")
            .and_then(|r| r.get("draining"))
            .and_then(Json::as_bool),
        Some(true)
    );
    server.wait(); // must return: no wedged threads, no abandoned work
}
