//! The answer checks: printed-precision agreement and serve replies.

use perfbench::inputs::{ServeKind, ServeOp};
use perfbench::oracle::agrees;
use perfbench::serve::check_reply;

#[test]
fn agreement_is_to_the_printed_precision() {
    assert!(agrees(65.907877, 65.907_876_620_982_17, 6));
    assert!(!agrees(65.907876, 65.907_876_620_982_17, 6));
    assert!(agrees(65.9079, 65.907_876_620_982_17, 4));
    assert!(!agrees(65.9078, 65.907_876_620_982_17, 4));
    // An oracle on a rounding boundary accepts either neighbour.
    assert!(agrees(1.000001, 1.000_000_5, 6) && agrees(1.000000, 1.000_000_5, 6));
}

fn op(kind: ServeKind) -> ServeOp {
    ServeOp {
        kind,
        design: 0,
        margin: 0.01,
        id: "c0n1".into(),
    }
}

fn reply(degradation: &str, result: &str) -> String {
    format!(
        "{{\"id\":\"c0n1\",\"status\":\"ok\",\"degradation\":\"{degradation}\",\"cached\":false,\
         \"result\":{result}}}"
    )
}

#[test]
fn serve_replies_are_checked_per_kind() {
    let solve = reply("full", "{\"cycle_time\":50.000000,\"certified\":true}");
    assert_eq!(
        check_reply(&op(ServeKind::SolveMiss), &solve, 50.0),
        Ok(false)
    );
    assert!(check_reply(&op(ServeKind::SolveHit), &solve, 50.01).is_err());
    let uncertified = reply(
        "uncertified",
        "{\"cycle_time\":50.000000,\"certified\":false}",
    );
    assert!(check_reply(&op(ServeKind::SolveHit), &uncertified, 50.0).is_err());
    let degraded = reply("fast-path", "{\"cycle_time\":50.000000,\"certified\":true}");
    assert_eq!(
        check_reply(&op(ServeKind::SolveHit), &degraded, 50.0),
        Ok(true)
    );

    let exists = reply("full", "{\"feasible\":false,\"exists_at_tc\":true}");
    assert_eq!(
        check_reply(&op(ServeKind::ProbeFeasible), &exists, 50.0),
        Ok(false)
    );
    assert!(check_reply(&op(ServeKind::ProbeInfeasible), &exists, 50.0).is_err());

    let clean = reply("full", "{\"clean\":true,\"cycle_time\":50.0000001}");
    assert_eq!(check_reply(&op(ServeKind::Check), &clean, 50.0), Ok(false));
    let dirty = reply("full", "{\"clean\":false,\"cycle_time\":50.0}");
    assert!(check_reply(&op(ServeKind::Check), &dirty, 50.0).is_err());

    let refused = "{\"id\":null,\"status\":\"error\",\"degradation\":\"uncertified\",\
                   \"cached\":false,\"error\":{\"kind\":\"overload\"}}";
    assert!(check_reply(&op(ServeKind::SolveHit), refused, 50.0).is_err());
    assert!(check_reply(&op(ServeKind::SolveHit), "not json", 50.0).is_err());
}
