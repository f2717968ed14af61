//! Newline framing over byte streams, with a frame-size cap.
//!
//! Every transport frames its input here: the stdin/stdout pipe of
//! [`crate::proto::serve`], each TCP connection of the `freqywm-net`
//! reactor, and the shard router's client- and backend-facing
//! connections. A frame longer than the cap is reported once as
//! [`LineEvent::Oversized`] and discarded through its terminating
//! newline, so one bad frame costs one error response, not the
//! connection — and the discarded bytes are dropped as they arrive, so
//! the framer never holds more than the cap plus one pushed chunk.

/// One framing outcome delivered to the caller's sink.
#[derive(Debug, PartialEq, Eq)]
pub enum LineEvent {
    /// A complete line (without the trailing newline), decoded lossily.
    Line(String),
    /// A line longer than the cap; its bytes are being discarded
    /// through the terminating newline.
    Oversized,
}

/// Incremental newline splitter with an input frame-size cap.
#[derive(Debug)]
pub struct LineFramer {
    /// The unterminated frame so far; never holds a newline.
    buf: Vec<u8>,
    max_frame: usize,
    /// Discarding an oversized frame until its terminating newline.
    skipping: bool,
}

impl LineFramer {
    pub fn new(max_frame: usize) -> Self {
        LineFramer {
            buf: Vec::new(),
            max_frame,
            skipping: false,
        }
    }

    /// Feeds freshly read bytes, invoking `sink` once per completed
    /// frame (in input order).
    pub fn push(&mut self, mut bytes: &[u8], mut sink: impl FnMut(LineEvent)) {
        if self.skipping {
            // Tail of a frame whose prefix already overflowed: drop it
            // through its newline without buffering.
            let Some(nl) = bytes.iter().position(|&b| b == b'\n') else {
                return;
            };
            self.skipping = false;
            bytes = &bytes[nl + 1..];
        }
        // The bytes already held contain no newline; scan only the new.
        let mut from = self.buf.len();
        self.buf.extend_from_slice(bytes);
        let mut start = 0;
        while let Some(rel) = self.buf[from..].iter().position(|&b| b == b'\n') {
            let end = from + rel;
            if end - start > self.max_frame {
                sink(LineEvent::Oversized);
            } else {
                let line = String::from_utf8_lossy(&self.buf[start..end]).into_owned();
                sink(LineEvent::Line(line));
            }
            start = end + 1;
            from = start;
        }
        if start > 0 {
            self.buf.drain(..start);
        }
        if self.buf.len() > self.max_frame {
            // Overflow before any newline: report now, discard until
            // the frame eventually terminates.
            sink(LineEvent::Oversized);
            self.skipping = true;
            self.buf.clear();
        }
    }

    /// Flushes the unterminated tail at EOF: a final line without a
    /// trailing newline is still delivered. (An oversized tail already
    /// got its event when the overflow was detected.)
    pub fn finish(&mut self, mut sink: impl FnMut(LineEvent)) {
        if self.skipping {
            self.skipping = false;
        } else if !self.buf.is_empty() {
            let tail = std::mem::take(&mut self.buf);
            sink(LineEvent::Line(String::from_utf8_lossy(&tail).into_owned()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(framer: &mut LineFramer, bytes: &[u8]) -> Vec<LineEvent> {
        let mut out = Vec::new();
        framer.push(bytes, |e| out.push(e));
        out
    }

    /// Pushes `chunks` in order, then finishes.
    fn frame(max_frame: usize, chunks: &[&[u8]]) -> Vec<LineEvent> {
        let mut f = LineFramer::new(max_frame);
        let mut out = Vec::new();
        for chunk in chunks {
            f.push(chunk, |e| out.push(e));
        }
        f.finish(|e| out.push(e));
        out
    }

    #[test]
    fn splits_lines_across_chunk_boundaries() {
        use LineEvent::{Line, Oversized};
        let line = |s: &str| Line(s.to_string());
        let long = "y".repeat(100);
        // Cap 16. Each input must frame the same in one push, in every
        // two-chunk split and in 1-byte pushes.
        let cases: Vec<(String, Vec<LineEvent>)> = vec![
            ("short\n".into(), vec![line("short")]),
            (format!("{long}\nafter\n"), vec![Oversized, line("after")]),
            ("a\nlast".into(), vec![line("a"), line("last")]),
            (format!("ok\n{long}"), vec![line("ok"), Oversized]),
            (
                format!("{}\n{}\n", "x".repeat(16), "x".repeat(17)),
                vec![line(&"x".repeat(16)), Oversized],
            ),
            // The framer keeps the `\r`; `Session` trims it.
            ("a\r\nb\r\n".into(), vec![line("a\r"), line("b\r")]),
            // Every split lands inside a multi-byte character somewhere.
            ("héllo ✓\n".into(), vec![line("héllo ✓")]),
            (
                format!("short\n{long}\nafter\nlast"),
                vec![line("short"), Oversized, line("after"), line("last")],
            ),
        ];
        for (input, expected) in &cases {
            let bytes = input.as_bytes();
            assert_eq!(&frame(16, &[bytes]), expected, "one push: {input:?}");
            for cut in 0..=bytes.len() {
                let (a, b) = bytes.split_at(cut);
                assert_eq!(&frame(16, &[a, b]), expected, "split {cut}: {input:?}");
            }
            let bytewise: Vec<&[u8]> = bytes.chunks(1).collect();
            assert_eq!(&frame(16, &bytewise), expected, "1-byte: {input:?}");
        }
    }

    #[test]
    fn oversized_frame_reported_once_and_skipped() {
        let mut f = LineFramer::new(4);
        let mut events = collect(&mut f, b"toolongline");
        assert_eq!(events, vec![LineEvent::Oversized]);
        events = collect(&mut f, b"stillgoing\nok\n");
        assert_eq!(events, vec![LineEvent::Line("ok".into())]);
    }

    #[test]
    fn skipped_frame_is_not_buffered() {
        const CAP: usize = 1024;
        const CHUNK: usize = 16 * 1024;
        let mut f = LineFramer::new(CAP);
        let chunk = vec![b'x'; CHUNK];
        let mut events = Vec::new();
        for _ in 0..4096 {
            f.push(&chunk, |e| events.push(e));
            assert!(
                f.buf.len() <= CAP + CHUNK,
                "framer holds {} bytes",
                f.buf.len()
            );
        }
        f.push(b"\nok\n", |e| events.push(e));
        assert_eq!(
            events,
            vec![LineEvent::Oversized, LineEvent::Line("ok".into())]
        );
    }

    #[test]
    fn finish_flushes_tail_without_newline() {
        let mut f = LineFramer::new(64);
        assert_eq!(collect(&mut f, b"a\nb"), vec![LineEvent::Line("a".into())]);
        let mut out = Vec::new();
        f.finish(|e| out.push(e));
        assert_eq!(out, vec![LineEvent::Line("b".into())]);
    }

    #[test]
    fn finish_discards_oversized_tail() {
        let mut f = LineFramer::new(4);
        assert_eq!(collect(&mut f, b"overflowing"), vec![LineEvent::Oversized]);
        let mut out = Vec::new();
        f.finish(|e| out.push(e));
        assert!(out.is_empty());
    }
}
