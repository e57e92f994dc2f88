//! HP SRT-style parser — a whitespace-delimited representation of the
//! **Cello** trace family the paper evaluates on (§4.1, \[3\]).
//!
//! HP's original `.srt` files are binary and not redistributable; the
//! conventional textual export (one record per line) is:
//!
//! ```text
//! <timestamp_s> <device_id> <block_number> <size_bytes> <R|W>
//! ```
//!
//! Data identity follows the paper: one data item per unique
//! `(device, block)` pair.
//!
//! [`SrtStream`] reads lines as bytes through the line reader it shares
//! with the SPC parser; a line that is not UTF-8 is parsed through its
//! lossy decoding, so the bad byte fails only the field it is in.

use std::io::BufRead;

use spindown_sim::time::SimTime;

use crate::lines::LineReader;
use crate::record::{DataId, OpKind, Trace, TraceRecord};
use crate::stream::{ParsePolicy, StreamError};

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SrtParseError {
    /// 1-based line number of the offending record.
    pub line: usize,
    /// What went wrong.
    pub kind: SrtErrorKind,
}

/// Categories of SRT parse failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SrtErrorKind {
    /// A line failed to parse (human-readable description).
    Malformed(String),
    /// The underlying reader failed (`line` is the line being read).
    Io(String),
}

impl std::fmt::Display for SrtParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            SrtErrorKind::Malformed(msg) => write!(f, "line {}: {}", self.line, msg),
            SrtErrorKind::Io(msg) => write!(f, "line {}: read error: {}", self.line, msg),
        }
    }
}

impl std::error::Error for SrtParseError {}

impl From<SrtParseError> for StreamError {
    fn from(e: SrtParseError) -> Self {
        match e.kind {
            SrtErrorKind::Io(msg) => StreamError::Io(msg),
            SrtErrorKind::Malformed(message) => StreamError::Malformed {
                line: e.line,
                message,
            },
        }
    }
}

/// Encodes a `(device, block)` pair as the data identity.
pub fn data_id(device: u16, block: u64) -> DataId {
    DataId(((device as u64) << 48) | (block & ((1u64 << 48) - 1)))
}

/// Parses SRT-style text into a [`Trace`]. Blank lines and `#` comments
/// are skipped.
///
/// # Examples
///
/// ```
/// use spindown_trace::srt::parse;
///
/// let text = "0.125 3 81920 8192 R\n0.250 3 81928 8192 W\n";
/// let trace = parse(text).unwrap();
/// assert_eq!(trace.len(), 2);
/// ```
pub fn parse(text: &str) -> Result<Trace, SrtParseError> {
    // Materializing re-sorts, so out-of-order exports are tolerated here
    // (unlike the raw stream, which yields file order).
    crate::stream::collect_trace(SrtStream::new(text.as_bytes(), ParsePolicy::Strict))
}

fn parse_line(line: &str, line_no: usize) -> Result<TraceRecord, SrtParseError> {
    let err = |message: String| SrtParseError {
        line: line_no,
        kind: SrtErrorKind::Malformed(message),
    };
    let mut tokens = line.split_whitespace();
    let mut fields = [""; 5];
    for (got, field) in fields.iter_mut().enumerate() {
        *field = tokens
            .next()
            .ok_or_else(|| err(format!("expected 5 fields, got {got}")))?;
    }
    let ts: f64 = fields[0]
        .parse()
        .map_err(|_| err(format!("bad timestamp {:?}", fields[0])))?;
    if !ts.is_finite() || ts < 0.0 {
        return Err(err(format!("bad timestamp {:?}", fields[0])));
    }
    let device: u16 = fields[1]
        .parse()
        .map_err(|_| err(format!("bad device id {:?}", fields[1])))?;
    let block: u64 = fields[2]
        .parse()
        .map_err(|_| err(format!("bad block number {:?}", fields[2])))?;
    let size: u64 = fields[3]
        .parse()
        .map_err(|_| err(format!("bad size {:?}", fields[3])))?;
    let op = match fields[4] {
        "r" | "R" => OpKind::Read,
        "w" | "W" => OpKind::Write,
        other => return Err(err(format!("bad op {other:?}"))),
    };
    Ok(TraceRecord {
        at: SimTime::from_secs_f64(ts),
        data: data_id(device, block),
        size,
        op,
    })
}

/// Incremental SRT parser over any [`BufRead`]: one line in memory at a
/// time. Yields records in *file* order — unlike [`parse`], which
/// re-sorts while materializing — so feed time-sorted exports (or wrap
/// in [`crate::stream::EnsureSorted`]) when downstream consumers need
/// the ordering invariant.
///
/// CRLF endings, surrounding whitespace, blank lines and `#` comments
/// are tolerated, and a non-UTF-8 line is parsed through its lossy
/// decoding; [`ParsePolicy::Lenient`] skips and counts malformed lines
/// ([`SrtStream::skipped`]). I/O failures always abort.
#[derive(Debug)]
pub struct SrtStream<R> {
    lines: LineReader<R>,
}

impl<R: BufRead> SrtStream<R> {
    /// Streams SRT records from `reader` under `policy`.
    pub fn new(reader: R, policy: ParsePolicy) -> Self {
        SrtStream {
            lines: LineReader::new(reader, policy),
        }
    }
}

impl<R> SrtStream<R> {
    /// Malformed lines skipped so far under [`ParsePolicy::Lenient`].
    pub fn skipped(&self) -> usize {
        self.lines.skipped()
    }

    /// Lines read so far, blank and comment lines included. A stream
    /// over one range of a file numbers its lines from the range's start
    /// ([`crate::ranges`]).
    pub fn lines_read(&self) -> usize {
        self.lines.lines_read()
    }
}

impl<R> crate::stream::SkipCount for SrtStream<R> {
    fn skipped_lines(&self) -> usize {
        self.lines.skipped()
    }
}

impl<R: BufRead> Iterator for SrtStream<R> {
    type Item = Result<TraceRecord, SrtParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.lines.next_with(
            |line, line_no| parse_line(String::from_utf8_lossy(line).trim(), line_no),
            |line, msg| SrtParseError {
                line,
                kind: SrtErrorKind::Io(msg),
            },
        )
    }
}

/// Serializes a [`Trace`] to SRT text, inverting [`data_id`].
pub fn to_string(trace: &Trace) -> String {
    let mut out = String::new();
    for r in trace.records() {
        let device = (r.data.0 >> 48) as u16;
        let block = r.data.0 & ((1u64 << 48) - 1);
        let op = match r.op {
            OpKind::Read => 'R',
            OpKind::Write => 'W',
        };
        out.push_str(&format!(
            "{:.6} {} {} {} {}\n",
            r.at.as_secs_f64(),
            device,
            block,
            r.size,
            op
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_records() {
        let t = parse("0.125 3 81920 8192 R\n0.250 4 81928 8192 W\n").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.records()[0].data, data_id(3, 81920));
        assert_eq!(t.records()[0].op, OpKind::Read);
        assert_eq!(t.records()[1].op, OpKind::Write);
    }

    #[test]
    fn skips_comments_and_blanks() {
        let t = parse("# header\n\n0.5 1 2 4096 R\n").unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn sorts_out_of_order_records() {
        let t = parse("5.0 1 2 4096 R\n1.0 1 3 4096 R\n").unwrap();
        assert_eq!(t.records()[0].at, SimTime::from_secs(1));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("0.5 1 2 4096\n").is_err());
        assert!(parse("x 1 2 4096 R\n").is_err());
        assert!(parse("0.5 1 2 4096 Z\n").is_err());
        assert!(parse("-1 1 2 4096 R\n").is_err());
        let e = parse("0.5 1 2 4096 R\nbroken\n").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn roundtrip() {
        let text = "0.125000 3 81920 8192 R\n0.250000 4 81928 8192 W\n";
        let t = parse(text).unwrap();
        assert_eq!(to_string(&t), text);
    }

    #[test]
    fn extra_fields_tolerated() {
        // Real exports sometimes append queue depth etc.
        let t = parse("0.5 1 2 4096 R extra stuff\n").unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn crlf_line_endings_tolerated() {
        let t = parse("0.5 1 2 4096 R\r\n# hdr\r\n0.75 1 3 4096 W\r\n").unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn stream_yields_file_order() {
        let text = "5.0 1 2 4096 R\n1.0 1 3 4096 R\n";
        let streamed: Vec<_> = SrtStream::new(text.as_bytes(), ParsePolicy::Strict)
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(streamed[0].at, SimTime::from_secs(5));
        // The batch parser re-sorts the same input.
        assert_eq!(parse(text).unwrap().records()[0].at, SimTime::from_secs(1));
    }

    #[test]
    fn lenient_skips_and_counts() {
        let text = "0.5 1 2 4096 R\nnope\n0.7 1 2 4096 Z\n0.9 1 2 4096 W\n";
        let mut s = SrtStream::new(text.as_bytes(), ParsePolicy::Lenient);
        let recs: Vec<_> = (&mut s).map(|r| r.unwrap()).collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(s.skipped(), 2);
    }

    #[test]
    fn io_failures_surface_as_io_errors() {
        struct FailingReader;
        impl std::io::Read for FailingReader {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("cable unplugged"))
            }
        }
        let reader = std::io::BufReader::new(FailingReader);
        let e = SrtStream::new(reader, ParsePolicy::Strict)
            .next()
            .unwrap()
            .unwrap_err();
        assert!(matches!(e.kind, SrtErrorKind::Io(_)));
    }
}
