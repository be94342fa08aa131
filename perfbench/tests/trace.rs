//! Span recording and self-time arithmetic.

use perfbench::trace::{self_times, Span, Tracer};

fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name: "s",
        start_ns,
        end_ns,
        parent,
        request: 0,
    }
}

#[test]
fn self_time_subtracts_the_union_of_direct_children() {
    let spans = vec![
        span(0, 100, None),    // 0: root
        span(10, 30, Some(0)), // 1
        span(20, 50, Some(0)), // 2: overlaps 1 → union [10, 50]
        span(60, 70, Some(0)), // 3: disjoint
        span(22, 28, Some(2)), // 4: grandchild, only counts against 2
    ];
    assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20, 30 - 6, 10, 6]);
}

#[test]
fn self_time_clips_children_to_the_parent() {
    let spans = vec![
        span(100, 200, None),
        span(50, 150, Some(0)),
        span(190, 400, Some(0)),
    ];
    assert_eq!(self_times(&spans), vec![100 - 50 - 10, 100, 210]);
}

#[test]
fn leaf_and_fully_covered_spans() {
    let spans = vec![span(0, 10, None), span(0, 10, Some(0)), span(5, 5, None)];
    assert_eq!(self_times(&spans), vec![0, 10, 0]);
}

#[test]
fn tracer_nests_spans_and_keeps_request_ids() {
    let mut t = Tracer::new();
    let out = t.span("outer", 7, None, |t, outer| {
        t.span("inner", 7, Some(outer), |_, _| 41) + 1
    });
    assert_eq!(out, 42);
    t.span("other", 8, None, |_, _| ());
    let spans = t.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!(
        (spans[0].name, spans[0].parent, spans[0].request),
        ("outer", None, 7)
    );
    assert_eq!(
        (spans[1].name, spans[1].parent, spans[1].request),
        ("inner", Some(0), 7)
    );
    assert_eq!(
        (spans[2].name, spans[2].parent, spans[2].request),
        ("other", None, 8)
    );
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    let selfs = self_times(spans);
    assert_eq!(selfs[0], spans[0].duration_ns() - spans[1].duration_ns());
    assert_eq!(t.durations_ms("inner").len(), 1);
}
