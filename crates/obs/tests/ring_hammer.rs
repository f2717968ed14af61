//! Multi-producer hammer: N writer threads flood a small ring while
//! readers snapshot concurrently. Asserts the cursor is monotonic and
//! exact (no lost tickets), every decoded span is well-formed (no torn
//! slots surface), and a quiescent snapshot holds exactly the newest
//! `capacity()` spans.

use freqywm_obs::{OpKind, Span, SpanRing, Stage, TraceFilter};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const WRITERS: usize = 8;
const SPANS_PER_WRITER: usize = 5_000;

#[test]
fn hammer_no_lost_slots_and_monotonic_cursor() {
    let ring = Arc::new(SpanRing::new(256));
    let stop = Arc::new(AtomicBool::new(false));

    // Readers: snapshot continuously; every span they see must decode
    // to one a writer actually produced, and the cursor never moves
    // backwards between observations. `stop` is read before each
    // snapshot, so a reader that first runs after the writers finish
    // still takes one snapshot, of the full ring.
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let ring = Arc::clone(&ring);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last_cursor = 0u64;
                let mut seen = 0usize;
                loop {
                    let last = stop.load(Ordering::Acquire);
                    let c = ring.cursor();
                    assert!(
                        c >= last_cursor,
                        "cursor went backwards: {last_cursor} -> {c}"
                    );
                    last_cursor = c;
                    for span in ring.snapshot() {
                        assert!(span.trace.starts_with("w"), "torn trace: {:?}", span.trace);
                        assert!(span.tenant.starts_with("tenant-"), "torn tenant");
                        let w: usize = span.tenant["tenant-".len()..].parse().expect("tenant idx");
                        assert!(w < WRITERS);
                        assert!((span.dur_us as usize) < SPANS_PER_WRITER);
                        seen += 1;
                    }
                    if last {
                        break;
                    }
                }
                seen
            })
        })
        .collect();

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..SPANS_PER_WRITER {
                    ring.record(&Span {
                        trace: format!("w{w}-{i}"),
                        tenant: format!("tenant-{w}"),
                        op: OpKind::Detect,
                        stage: Stage::Run,
                        start_us: i as u64,
                        dur_us: i as u64,
                    });
                }
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer");
    }
    stop.store(true, Ordering::Release);
    for r in readers {
        assert!(r.join().expect("reader") > 0, "reader never saw a span");
    }

    // Quiescent: the cursor counted every record exactly once, and the
    // snapshot now decodes a full ring of the newest spans.
    assert_eq!(ring.cursor(), (WRITERS * SPANS_PER_WRITER) as u64);
    let snap = ring.snapshot();
    assert_eq!(snap.len(), ring.capacity());
    // Per-writer sequence numbers in the snapshot are strictly
    // increasing — overwrite-oldest keeps the newest per slot order.
    for w in 0..WRITERS {
        let seqs: Vec<u64> = snap
            .iter()
            .filter(|s| s.tenant == format!("tenant-{w}"))
            .map(|s| s.dur_us)
            .collect();
        assert!(seqs.windows(2).all(|p| p[0] < p[1]), "writer {w}: {seqs:?}");
    }
    // Filtering a quiescent ring is deterministic.
    let f = TraceFilter {
        tenant: Some("tenant-0".into()),
        limit: usize::MAX,
        ..TraceFilter::default()
    };
    assert_eq!(
        ring.query(&f).len(),
        snap.iter().filter(|s| s.tenant == "tenant-0").count()
    );
}
