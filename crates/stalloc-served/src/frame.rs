//! Length-prefixed JSONL framing.
//!
//! Every protocol message is one *frame*:
//!
//! ```text
//! <payload length, ASCII decimal>\n
//! <payload bytes, exactly that many>\n
//! ```
//!
//! The payload is a single JSON document (a
//! [`PlanRequest`](stalloc_core::wire::PlanRequest) or
//! [`PlanResponse`](stalloc_core::wire::PlanResponse)). The decimal
//! header keeps the protocol debuggable with `nc`, while the explicit
//! length lets the receiver reject oversized payloads *before* reading
//! them and makes message boundaries independent of JSON content.
//!
//! [`read_frame`] never panics: every malformed input maps to a typed
//! [`FrameError`], and a clean EOF before the first header byte is the
//! regular end-of-stream (`Ok(None)`).

use std::io::{IoSlice, Read, Write};

/// Default upper bound on a frame payload (64 MiB — a large profile is
/// a few MB of JSON; anything bigger is a protocol violation, not data).
pub const DEFAULT_MAX_FRAME: usize = 64 << 20;

/// Longest accepted header line (enough for any `usize` plus slack).
const MAX_HEADER_DIGITS: usize = 20;

/// Typed framing failures.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying transport error (including timeouts).
    Io(std::io::Error),
    /// The length header is not a plain decimal line, or an announcing
    /// header declared another length than its raw frame has
    /// ([`read_announced`]).
    BadHeader(String),
    /// The declared payload length exceeds the receiver's limit.
    Oversized {
        /// Declared payload length.
        declared: usize,
        /// Receiver's limit.
        max: usize,
    },
    /// The stream ended mid-frame.
    Truncated {
        /// Bytes the header promised.
        expected: usize,
        /// Bytes actually received.
        got: usize,
    },
    /// The byte after the payload was not the `\n` terminator.
    MissingTerminator,
}

impl FrameError {
    /// Every variant name, in declaration order. The fuzz harness uses
    /// this as the coverage checklist for the frame decoder (`Io` is
    /// excluded from required coverage — a `Cursor` never errors).
    pub const VARIANT_NAMES: &'static [&'static str] = &[
        "Io",
        "BadHeader",
        "Oversized",
        "Truncated",
        "MissingTerminator",
    ];

    /// This error's variant name (an element of [`Self::VARIANT_NAMES`]).
    pub fn variant_name(&self) -> &'static str {
        match self {
            FrameError::Io(_) => "Io",
            FrameError::BadHeader(_) => "BadHeader",
            FrameError::Oversized { .. } => "Oversized",
            FrameError::Truncated { .. } => "Truncated",
            FrameError::MissingTerminator => "MissingTerminator",
        }
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
            FrameError::BadHeader(d) => write!(f, "bad frame header: {d}"),
            FrameError::Oversized { declared, max } => {
                write!(f, "frame of {declared} bytes exceeds limit {max}")
            }
            FrameError::Truncated { expected, got } => {
                write!(f, "frame truncated: expected {expected} bytes, got {got}")
            }
            FrameError::MissingTerminator => write!(f, "frame missing trailing newline"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes `parts` back to back and flushes: one vectored write when the
/// sink takes them all (a socket does — one syscall, and under
/// `TCP_NODELAY` no segment per part), one write per non-empty part
/// otherwise. Nothing is copied.
fn write_parts<W: Write>(w: &mut W, parts: [&[u8]; 3]) -> std::io::Result<()> {
    let mut slices = parts.map(IoSlice::new);
    let mut rest = &mut slices[..];
    // Empty parts are dropped up front and as the front advances, so a
    // sink is never handed a zero-length write (which reads as failure).
    IoSlice::advance_slices(&mut rest, 0);
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Writes one frame (header, payload, terminator) and flushes.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    write_parts(
        w,
        [format!("{}\n", payload.len()).as_bytes(), payload, b"\n"],
    )
}

/// Reads one frame's payload. `Ok(None)` on clean EOF (stream closed at a
/// frame boundary); every other irregularity is a typed [`FrameError`].
///
/// On [`FrameError::Oversized`] the payload has *not* been consumed: the
/// caller must treat the stream as unsynchronized and close it.
pub fn read_frame<R: Read>(r: &mut R, max: usize) -> Result<Option<Vec<u8>>, FrameError> {
    // Header: decimal digits up to '\n', read byte-wise (callers that
    // care wrap the stream in a BufReader; headers are ~10 bytes).
    let mut header: Vec<u8> = Vec::with_capacity(MAX_HEADER_DIGITS);
    let mut byte = [0u8; 1];
    loop {
        match r.read(&mut byte) {
            Ok(0) => {
                if header.is_empty() {
                    return Ok(None);
                }
                return Err(FrameError::BadHeader("eof inside length header".into()));
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                if !byte[0].is_ascii_digit() {
                    return Err(FrameError::BadHeader(format!(
                        "non-digit byte 0x{:02x} in length header",
                        byte[0]
                    )));
                }
                if header.len() >= MAX_HEADER_DIGITS {
                    return Err(FrameError::BadHeader("length header too long".into()));
                }
                header.push(byte[0]);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    if header.is_empty() {
        return Err(FrameError::BadHeader("empty length header".into()));
    }
    // Canonical headers only: `write_frame` never emits leading zeros, and
    // accepting them would make two distinct byte streams decode to the
    // same frame (breaking the decode→re-encode fixpoint the fuzzer checks).
    if header.len() > 1 && header[0] == b'0' {
        return Err(FrameError::BadHeader(
            "leading zero in length header".into(),
        ));
    }
    let declared: usize = std::str::from_utf8(&header)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| FrameError::BadHeader("unparseable length".into()))?;
    if declared > max {
        return Err(FrameError::Oversized { declared, max });
    }

    let mut payload = vec![0u8; declared];
    let mut got = 0;
    while got < declared {
        match r.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(FrameError::Truncated {
                    expected: declared,
                    got,
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }

    loop {
        match r.read(&mut byte) {
            Ok(0) => return Err(FrameError::MissingTerminator),
            Ok(_) if byte[0] == b'\n' => return Ok(Some(payload)),
            Ok(_) => return Err(FrameError::MissingTerminator),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
}

/// Writes a JSON header frame and the raw binary frame it announces, if
/// any (`ProfileBin` / `PlanDelta` requests, `PlanBin` responses) — the
/// bytes of two [`write_frame`] calls, in one write: everything small
/// (both length lines, the JSON header, its terminator) is assembled
/// into one buffer, the raw payload rides beside it uncopied.
pub fn write_announced<W: Write>(
    w: &mut W,
    header: &[u8],
    raw: Option<&[u8]>,
) -> std::io::Result<()> {
    let Some(raw) = raw else {
        return write_frame(w, header);
    };
    let mut head = Vec::with_capacity(header.len() + 2 * (MAX_HEADER_DIGITS + 1) + 1);
    writeln!(head, "{}", header.len())?;
    head.extend_from_slice(header);
    write!(head, "\n{}\n", raw.len())?;
    write_parts(w, [&head, raw, b"\n"])
}

/// Reads the raw frame a header announced as `declared` bytes long. Any
/// other length means the stream is unsynchronized and must not be
/// trusted: a typed [`FrameError::BadHeader`].
pub fn read_announced<R: Read>(
    r: &mut R,
    max: usize,
    declared: u64,
) -> Result<Option<Vec<u8>>, FrameError> {
    match read_frame(r, max)? {
        Some(raw) if raw.len() as u64 != declared => Err(FrameError::BadHeader(format!(
            "announced frame is {} bytes, header declared {declared}",
            raw.len()
        ))),
        frame => Ok(frame),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip(payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, payload).unwrap();
        read_frame(&mut Cursor::new(buf), DEFAULT_MAX_FRAME)
            .unwrap()
            .unwrap()
    }

    #[test]
    fn frames_roundtrip() {
        assert_eq!(roundtrip(b"{}"), b"{}");
        assert_eq!(roundtrip(b""), b"");
        let big = vec![b'x'; 100_000];
        assert_eq!(roundtrip(&big), big);
    }

    #[test]
    fn consecutive_frames_share_a_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"one").unwrap();
        write_frame(&mut buf, b"two").unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_frame(&mut cur, 64).unwrap().unwrap(), b"one");
        assert_eq!(read_frame(&mut cur, 64).unwrap().unwrap(), b"two");
        assert!(read_frame(&mut cur, 64).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn garbage_header_is_typed() {
        let e = read_frame(&mut Cursor::new(b"hello\n".to_vec()), 64).unwrap_err();
        assert!(matches!(e, FrameError::BadHeader(_)), "{e}");
        let e = read_frame(&mut Cursor::new(b"\n".to_vec()), 64).unwrap_err();
        assert!(matches!(e, FrameError::BadHeader(_)), "{e}");
        let e = read_frame(&mut Cursor::new(b"12".to_vec()), 64).unwrap_err();
        assert!(matches!(e, FrameError::BadHeader(_)), "eof in header: {e}");
        let e = read_frame(&mut Cursor::new(b"999999999999999999999\n".to_vec()), 64).unwrap_err();
        assert!(matches!(e, FrameError::BadHeader(_)), "{e}");
    }

    #[test]
    fn leading_zero_headers_are_rejected() {
        let e = read_frame(&mut Cursor::new(b"01\nX\n".to_vec()), 64).unwrap_err();
        assert!(matches!(e, FrameError::BadHeader(_)), "{e}");
        let e = read_frame(&mut Cursor::new(b"007\npayload\n".to_vec()), 64).unwrap_err();
        assert!(matches!(e, FrameError::BadHeader(_)), "{e}");
        // A bare "0" is the canonical empty frame and stays valid.
        assert_eq!(
            read_frame(&mut Cursor::new(b"0\n\n".to_vec()), 64)
                .unwrap()
                .unwrap(),
            b""
        );
    }

    #[test]
    fn variant_names_cover_all_errors() {
        let e = read_frame(&mut Cursor::new(b"x\n".to_vec()), 64).unwrap_err();
        assert_eq!(e.variant_name(), "BadHeader");
        assert!(FrameError::VARIANT_NAMES.contains(&e.variant_name()));
        assert_eq!(FrameError::VARIANT_NAMES.len(), 5);
    }

    #[test]
    fn oversized_is_rejected_before_payload() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0u8; 100]).unwrap();
        let e = read_frame(&mut Cursor::new(buf), 64).unwrap_err();
        match e {
            FrameError::Oversized { declared, max } => {
                assert_eq!((declared, max), (100, 64));
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn truncation_reports_progress() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello world").unwrap();
        buf.truncate(buf.len() - 5); // cut payload + terminator
        let e = read_frame(&mut Cursor::new(buf), 64).unwrap_err();
        match e {
            FrameError::Truncated { expected, got } => {
                assert_eq!(expected, 11);
                assert!(got < expected);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    /// A sink that counts `write` calls, takes at most `bite` bytes per
    /// call and, like any `Write` that does not override
    /// `write_vectored`, one part per call.
    struct CountingSink {
        bytes: Vec<u8>,
        writes: usize,
        bite: usize,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            assert!(!buf.is_empty(), "zero-length write");
            self.writes += 1;
            let n = buf.len().min(self.bite);
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The announced pair as it was written before the parts were
    /// gathered: two frames, three `write_all`s each.
    fn announced_by_six_writes(header: &[u8], raw: Option<&[u8]>) -> Vec<u8> {
        let mut out = Vec::new();
        for payload in [Some(header), raw].into_iter().flatten() {
            out.extend_from_slice(format!("{}\n", payload.len()).as_bytes());
            out.extend_from_slice(payload);
            out.push(b'\n');
        }
        out
    }

    #[test]
    fn announced_pair_is_the_same_bytes_in_at_most_three_writes() {
        let header = br#"{"PlanBin":{"bytes":65536}}"#;
        let big = vec![0xA5u8; 64 << 10];
        for (raw, writes) in [(None, 3), (Some(&[][..]), 2), (Some(&big[..]), 3)] {
            let expected = announced_by_six_writes(header, raw);
            // One write per non-empty part, even from a sink that
            // cannot gather...
            let mut sink = CountingSink {
                bytes: Vec::new(),
                writes: 0,
                bite: usize::MAX,
            };
            write_announced(&mut sink, header, raw).unwrap();
            assert_eq!(sink.bytes, expected);
            assert_eq!(sink.writes, writes, "raw = {:?}", raw.map(<[u8]>::len));
            // ...the loop resumes mid-part after a short write...
            sink = CountingSink {
                bytes: Vec::new(),
                writes: 0,
                bite: 7,
            };
            write_announced(&mut sink, header, raw).unwrap();
            assert_eq!(sink.bytes, expected);
            // ...and a sink that gathers gets all parts at once.
            let mut gathered = Vec::new();
            write_announced(&mut gathered, header, raw).unwrap();
            assert_eq!(gathered, expected);
        }
    }

    /// One announced exchange on the wire: `header`, then `raw` behind it.
    fn announced(header: &[u8], raw: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_announced(&mut buf, header, Some(raw)).unwrap();
        buf
    }

    #[test]
    fn announced_frame_of_the_declared_length_reads_back() {
        let mut cur = Cursor::new(announced(b"{\"bytes\":4}", b"STPL"));
        assert_eq!(read_frame(&mut cur, 64).unwrap().unwrap(), b"{\"bytes\":4}");
        assert_eq!(read_announced(&mut cur, 64, 4).unwrap().unwrap(), b"STPL");
        assert!(read_frame(&mut cur, 64).unwrap().is_none(), "clean EOF");
        // No raw frame announced: exactly one frame is written.
        let mut bare = Vec::new();
        write_announced(&mut bare, b"\"Ping\"", None).unwrap();
        assert_eq!(bare, b"6\n\"Ping\"\n");
    }

    #[test]
    fn announced_frame_one_byte_short_or_long_is_a_bad_header() {
        for declared in [3u64, 5] {
            let mut cur = Cursor::new(announced(b"{}", b"STPL"));
            read_frame(&mut cur, 64).unwrap().unwrap();
            let e = read_announced(&mut cur, 64, declared).unwrap_err();
            assert!(matches!(e, FrameError::BadHeader(_)), "{e}");
            let text = e.to_string();
            assert!(
                text.contains("4 bytes") && text.contains(&format!("declared {declared}")),
                "both lengths are named: {text}"
            );
        }
    }

    #[test]
    fn announced_frame_missing_entirely_is_clean_eof() {
        let mut header_only = Vec::new();
        write_frame(&mut header_only, b"{}").unwrap();
        let mut cur = Cursor::new(header_only);
        read_frame(&mut cur, 64).unwrap().unwrap();
        assert!(read_announced(&mut cur, 64, 4).unwrap().is_none());
    }

    #[test]
    fn oversized_announced_frame_is_rejected_before_its_payload() {
        // The frame's own length line decides, before any payload byte is
        // read — even when the announcing header told the truth.
        let mut cur = Cursor::new(announced(b"{}", &[7u8; 100]));
        read_frame(&mut cur, 64).unwrap().unwrap();
        let before = cur.position();
        let e = read_announced(&mut cur, 64, 100).unwrap_err();
        assert!(
            matches!(
                e,
                FrameError::Oversized {
                    declared: 100,
                    max: 64
                }
            ),
            "{e}"
        );
        assert_eq!(cur.position() - before, 4, "only `100\\n` was consumed");
    }

    #[test]
    fn two_announced_exchanges_share_a_stream() {
        let mut buf = announced(b"one", b"1111");
        buf.extend(announced(b"two", b"22"));
        let mut cur = Cursor::new(buf);
        for (header, raw) in [(&b"one"[..], &b"1111"[..]), (b"two", b"22")] {
            assert_eq!(read_frame(&mut cur, 64).unwrap().unwrap(), header);
            let got = read_announced(&mut cur, 64, raw.len() as u64).unwrap();
            assert_eq!(got.unwrap(), raw);
        }
        assert!(read_frame(&mut cur, 64).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn missing_terminator_is_typed() {
        let e = read_frame(&mut Cursor::new(b"2\nab".to_vec()), 64).unwrap_err();
        assert!(matches!(e, FrameError::MissingTerminator), "{e}");
        let e = read_frame(&mut Cursor::new(b"2\nabX".to_vec()), 64).unwrap_err();
        assert!(matches!(e, FrameError::MissingTerminator), "{e}");
    }
}
