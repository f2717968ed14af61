//! Newline framing over byte streams, with a frame-size cap.
//!
//! Every transport frames its input here: the stdin/stdout pipe of
//! [`crate::proto::serve`], each TCP connection of the `freqywm-net`
//! reactor, and the shard router's client- and backend-facing
//! connections. A frame longer than the cap is reported once as
//! [`LineEvent::Oversized`] and discarded through its terminating
//! newline, so one bad frame costs one error response, not the
//! connection — and the discarded bytes are dropped as they arrive, so
//! the framer never holds more than the cap.
//!
//! Lines are handed out borrowed: a frame that arrives whole within one
//! push is a `&str` into the pushed bytes, once `std::str::from_utf8`
//! has checked it. Only invalid UTF-8 is copied, into
//! `String::from_utf8_lossy`'s text. A transport that keeps a line
//! past the sink call owns it there.

use crate::swar;
use std::borrow::Cow;

/// One framing outcome delivered to the caller's sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineEvent<'a> {
    /// A complete line (without the trailing newline): borrowed from the
    /// framer's input when it is valid UTF-8, decoded lossily into an
    /// owned copy when it is not.
    Line(Cow<'a, str>),
    /// A line longer than the cap; its bytes are being discarded
    /// through the terminating newline.
    Oversized,
}

impl LineEvent<'_> {
    /// The event with its line copied out, for a caller that keeps it
    /// past the sink call.
    pub fn into_owned(self) -> LineEvent<'static> {
        match self {
            LineEvent::Line(text) => LineEvent::Line(Cow::Owned(text.into_owned())),
            LineEvent::Oversized => LineEvent::Oversized,
        }
    }
}

/// The line `bytes` spell: borrowed when they are valid UTF-8 (checked by
/// `std::str::from_utf8`, which steps over ASCII a word at a time), else
/// `String::from_utf8_lossy`'s owned copy.
fn line(bytes: &[u8]) -> LineEvent<'_> {
    LineEvent::Line(match std::str::from_utf8(bytes) {
        Ok(text) => Cow::Borrowed(text),
        Err(_) => Cow::Owned(String::from_utf8_lossy(bytes).into_owned()),
    })
}

/// Incremental newline splitter with an input frame-size cap.
#[derive(Debug)]
pub struct LineFramer {
    /// The unterminated frame so far; never holds a newline, never
    /// more than the cap.
    buf: Vec<u8>,
    max_frame: usize,
    /// Discarding an oversized frame until its terminating newline.
    skipping: bool,
}

impl LineFramer {
    /// `max_frame` is clamped to at least one byte.
    pub fn new(max_frame: usize) -> Self {
        LineFramer {
            buf: Vec::new(),
            max_frame: max_frame.max(1),
            skipping: false,
        }
    }

    /// Feeds freshly read bytes, invoking `sink` once per completed
    /// frame (in input order). A frame that lies whole inside `bytes`
    /// reaches `sink` borrowed from them; only a frame begun in an
    /// earlier push is copied, to join its pieces.
    pub fn push(&mut self, mut bytes: &[u8], mut sink: impl FnMut(LineEvent<'_>)) {
        if self.skipping {
            // Tail of a frame whose prefix already overflowed: drop it
            // through its newline without buffering.
            let Some(nl) = swar::find(bytes, b'\n') else {
                return;
            };
            self.skipping = false;
            bytes = &bytes[nl + 1..];
        }
        if !self.buf.is_empty() {
            // The frame held from earlier pushes ends at the first
            // newline here, if there is one.
            let Some(nl) = swar::find(bytes, b'\n') else {
                self.hold(bytes, &mut sink);
                return;
            };
            if self.buf.len() + nl > self.max_frame {
                sink(LineEvent::Oversized);
            } else {
                self.buf.extend_from_slice(&bytes[..nl]);
                sink(line(&self.buf));
            }
            self.buf.clear();
            bytes = &bytes[nl + 1..];
        }
        while let Some(nl) = swar::find(bytes, b'\n') {
            if nl > self.max_frame {
                sink(LineEvent::Oversized);
            } else {
                sink(line(&bytes[..nl]));
            }
            bytes = &bytes[nl + 1..];
        }
        self.hold(bytes, &mut sink);
    }

    /// Keeps the unterminated `tail` of a push after what is held. A
    /// frame that overflows before any newline is reported now and
    /// discarded until it eventually terminates.
    fn hold(&mut self, tail: &[u8], sink: &mut impl FnMut(LineEvent<'_>)) {
        if self.buf.len() + tail.len() > self.max_frame {
            sink(LineEvent::Oversized);
            self.skipping = true;
            self.buf.clear();
        } else {
            self.buf.extend_from_slice(tail);
        }
    }

    /// Flushes the unterminated tail at EOF: a final line without a
    /// trailing newline is still delivered. (An oversized tail already
    /// got its event when the overflow was detected.)
    pub fn finish(&mut self, mut sink: impl FnMut(LineEvent<'_>)) {
        if self.skipping {
            self.skipping = false;
        } else if !self.buf.is_empty() {
            let tail = std::mem::take(&mut self.buf);
            sink(line(&tail));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn collect(framer: &mut LineFramer, bytes: &[u8]) -> Vec<LineEvent<'static>> {
        let mut out = Vec::new();
        framer.push(bytes, |e| out.push(e.into_owned()));
        out
    }

    /// Pushes `chunks` in order and finishes, owning every line; checks
    /// after each push that the framer holds no more than its cap.
    fn frame(max_frame: usize, chunks: &[&[u8]]) -> Vec<LineEvent<'static>> {
        let mut f = LineFramer::new(max_frame);
        let mut out = Vec::new();
        let mut own = |e: LineEvent<'_>| out.push(e.into_owned());
        for chunk in chunks {
            f.push(chunk, &mut own);
            assert!(f.buf.len() <= f.max_frame, "holds {} bytes", f.buf.len());
        }
        f.finish(&mut own);
        out
    }

    #[test]
    fn splits_lines_across_chunk_boundaries() {
        use LineEvent::{Line, Oversized};
        let line = |s: &str| Line(s.to_string().into());
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
            f.push(&chunk, |e| events.push(e.into_owned()));
            assert!(
                f.buf.len() <= CAP + CHUNK,
                "framer holds {} bytes",
                f.buf.len()
            );
        }
        f.push(b"\nok\n", |e| events.push(e.into_owned()));
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
        f.finish(|e| out.push(e.into_owned()));
        assert_eq!(out, vec![LineEvent::Line("b".into())]);
    }

    #[test]
    fn finish_discards_oversized_tail() {
        let mut f = LineFramer::new(4);
        assert_eq!(collect(&mut f, b"overflowing"), vec![LineEvent::Oversized]);
        let mut out = Vec::new();
        f.finish(|e| out.push(e.into_owned()));
        assert!(out.is_empty());
    }

    /// Bytes a stream is built from: text, line ends, invalid and
    /// truncated UTF-8, and whole multi-byte characters.
    const PIECES: &[&[u8]] = &[
        b"req",
        b"{\"op\":\"metrics\"}",
        b"\n",
        b"\n",
        b"\r\n",
        b"\r",
        b"",
        b"\xff",
        b"\xc3",
        b"\xe4\xb8",
        b"\xed\xa0\x80",
        "é中🦀".as_bytes(),
    ];

    /// A random stream, sometimes with a run longer than a 16 KiB
    /// chunk, and a cap that is sometimes tiny and sometimes past it.
    fn stream(rng: &mut StdRng) -> (Vec<u8>, usize) {
        let mut bytes = Vec::new();
        for _ in 0..rng.gen_range(0..40) {
            if rng.gen_bool(0.03) {
                bytes.extend(std::iter::repeat_n(b'x', rng.gen_range(0..40_000)));
            } else {
                bytes.extend_from_slice(PIECES[rng.gen_range(0..PIECES.len())]);
            }
        }
        let cap = match rng.gen_range(0..4) {
            0 => rng.gen_range(1..8),
            1 => rng.gen_range(8..64),
            2 => rng.gen_range(64..20_000),
            _ => 1 << 20,
        };
        (bytes, cap)
    }

    /// What framing `bytes` must give, read off the bytes directly:
    /// each newline-terminated frame, and a non-empty final one, is an
    /// oversize past the cap and otherwise its lossy text.
    fn expected(bytes: &[u8], cap: usize) -> Vec<LineEvent<'static>> {
        let mut frames: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
        if frames.last().is_some_and(|tail| tail.is_empty()) {
            frames.pop();
        }
        frames
            .into_iter()
            .map(|frame| match frame.len() > cap {
                true => LineEvent::Oversized,
                false => LineEvent::Line(String::from_utf8_lossy(frame).into_owned().into()),
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random streams frame the same in one push, in 1-byte pushes,
        /// split in two anywhere, and in 16 KiB chunks, and every line is
        /// the lossy text of its bytes.
        #[test]
        fn random_streams_frame_alike_under_every_chunking(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (bytes, cap) = stream(&mut rng);
            let want = expected(&bytes, cap);
            prop_assert_eq!(frame(cap, &[&bytes]), want.clone());
            let bytewise: Vec<&[u8]> = bytes.chunks(1).collect();
            prop_assert_eq!(frame(cap, &bytewise), want.clone());
            let cut = rng.gen_range(0..=bytes.len());
            let (a, b) = bytes.split_at(cut);
            prop_assert_eq!(frame(cap, &[a, b]), want.clone());
            let big: Vec<&[u8]> = bytes.chunks(16 * 1024).collect();
            prop_assert_eq!(frame(cap, &big), want.clone());
            let mut random = Vec::new();
            let mut rest = &bytes[..];
            while !rest.is_empty() {
                let (head, tail) = rest.split_at(rng.gen_range(1..=rest.len().min(64)));
                random.push(head);
                rest = tail;
            }
            prop_assert_eq!(frame(cap, &random), want);
        }
    }
}
