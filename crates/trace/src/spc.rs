//! SPC trace-format parser — the format of the UMass **Financial1** trace
//! the paper evaluates on (§4.1, \[23\]).
//!
//! Each line is a comma-separated record:
//!
//! ```text
//! ASU,LBA,Size,Opcode,Timestamp[,optional fields...]
//! ```
//!
//! * `ASU` — application storage unit (integer),
//! * `LBA` — logical block address (integer),
//! * `Size` — bytes (integer),
//! * `Opcode` — `r`/`R` read, `w`/`W` write,
//! * `Timestamp` — seconds since trace start (float).
//!
//! Data identity follows the paper: one data item per unique `(ASU, LBA)`
//! pair, encoded as `ASU << 48 | LBA`.
//!
//! [`SpcStream`] reads lines as bytes through the line reader it shares
//! with the SRT parser. Each line first tries `parse_plain`, a fast
//! path for the shape every exporter in this repository writes
//! (`digits,digits,digits,[rRwW],secs[.frac][,…]`, no spaces or signs):
//! it reads the integers straight from the bytes and the timestamp
//! straight to integer microseconds, which equals the `f64` route
//! exactly (the proof is on `leading_secs`). Every other line,
//! a non-UTF-8 one decoded lossily, goes to `parse_line`, the general
//! parser, which alone defines what is malformed and how each error
//! reads.

use std::io::BufRead;

use spindown_sim::time::SimTime;

use crate::lines::LineReader;
use crate::record::{DataId, OpKind, Trace, TraceRecord};
use crate::stream::{ParsePolicy, StreamError};

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpcParseError {
    /// 1-based line number of the offending record.
    pub line: usize,
    /// What went wrong.
    pub kind: SpcErrorKind,
}

/// Categories of SPC parse failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpcErrorKind {
    /// Fewer than five comma-separated fields.
    TooFewFields,
    /// A numeric field failed to parse.
    BadNumber(&'static str),
    /// The opcode field was not `r`/`R`/`w`/`W`.
    BadOpcode(String),
    /// The underlying reader failed (`line` is the line being read).
    Io(String),
}

impl std::fmt::Display for SpcErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpcErrorKind::TooFewFields => write!(f, "too few fields"),
            SpcErrorKind::BadNumber(field) => write!(f, "invalid number in field {field}"),
            SpcErrorKind::BadOpcode(op) => write!(f, "invalid opcode {op:?}"),
            SpcErrorKind::Io(msg) => write!(f, "read error: {msg}"),
        }
    }
}

impl std::fmt::Display for SpcParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.kind)
    }
}

impl std::error::Error for SpcParseError {}

impl From<SpcParseError> for StreamError {
    fn from(e: SpcParseError) -> Self {
        match e.kind {
            SpcErrorKind::Io(msg) => StreamError::Io(msg),
            kind => StreamError::Malformed {
                line: e.line,
                message: kind.to_string(),
            },
        }
    }
}

/// Encodes an `(asu, lba)` pair as the paper's data identity.
pub fn data_id(asu: u16, lba: u64) -> DataId {
    DataId(((asu as u64) << 48) | (lba & ((1u64 << 48) - 1)))
}

/// Parses SPC-format text into a [`Trace`]. Blank lines and lines starting
/// with `#` are skipped.
///
/// # Examples
///
/// ```
/// use spindown_trace::spc::parse;
///
/// let text = "0,20941264,8192,W,0.551706\n0,20939840,8192,W,0.554041\n1,3436288,15872,r,1.011732\n";
/// let trace = parse(text).unwrap();
/// assert_eq!(trace.len(), 3);
/// assert_eq!(trace.reads_only().len(), 1);
/// ```
pub fn parse(text: &str) -> Result<Trace, SpcParseError> {
    crate::stream::collect_trace(SpcStream::new(text.as_bytes(), ParsePolicy::Strict))
}

/// Incremental SPC parser over any [`BufRead`]: one line is held in
/// memory at a time, so arbitrarily large traces stream in constant
/// space. Yields records in *file* order (SPC exports are time-sorted).
///
/// CRLF line endings, surrounding whitespace, blank lines and `#`
/// comments are tolerated. A line that is not valid UTF-8 is parsed
/// through its lossy decoding, so the bad byte fails its own field.
/// Under [`ParsePolicy::Strict`] the first malformed line aborts the
/// stream; under [`ParsePolicy::Lenient`] malformed lines are skipped and
/// counted ([`SpcStream::skipped`]). I/O failures always abort.
#[derive(Debug)]
pub struct SpcStream<R> {
    lines: LineReader<R>,
}

impl<R: BufRead> SpcStream<R> {
    /// Streams SPC records from `reader` under `policy`.
    pub fn new(reader: R, policy: ParsePolicy) -> Self {
        SpcStream {
            lines: LineReader::new(reader, policy),
        }
    }
}

impl<R> SpcStream<R> {
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

impl<R> crate::stream::SkipCount for SpcStream<R> {
    fn skipped_lines(&self) -> usize {
        self.lines.skipped()
    }
}

impl<R: BufRead> Iterator for SpcStream<R> {
    type Item = Result<TraceRecord, SpcParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.lines.next_with(
            |line, line_no| match parse_plain(line) {
                Some(rec) => Ok(rec),
                None => parse_line(String::from_utf8_lossy(line).trim(), line_no),
            },
            |line, msg| SpcParseError {
                line,
                kind: SpcErrorKind::Io(msg),
            },
        )
    }
}

/// The fast path: the record of a line in the plain shape
/// `digits,digits,digits,[rRwW],secs[.frac][,…]`, or `None` for any
/// other line. The line comes without its `\n`, and may end in `\r`
/// right after the timestamp. No spaces or signs are allowed, the ASU
/// has at most 5 digits, the LBA and size at most 19, and the timestamp
/// 1 to 9 digits of whole seconds and at most 6 fractional digits.
/// Fields after the fifth are not read.
///
/// Wherever it returns a record, that record equals what `parse_line`
/// returns for the same line: the integers are exact, and the
/// timestamp's integer microseconds equal `SimTime::from_secs_f64` of
/// the parsed `f64` (proved on `leading_secs`). A `None` decides
/// nothing: the general parser then decides.
fn parse_plain(line: &[u8]) -> Option<TraceRecord> {
    let (asu, rest) = leading_digits(line, 5)?;
    let asu = u16::try_from(asu).ok()?;
    let (lba, rest) = leading_digits(rest.strip_prefix(b",")?, 19)?;
    let (size, rest) = leading_digits(rest.strip_prefix(b",")?, 19)?;
    let (op, rest) = match rest {
        [b',', b'r' | b'R', b',', rest @ ..] => (OpKind::Read, rest),
        [b',', b'w' | b'W', b',', rest @ ..] => (OpKind::Write, rest),
        _ => return None,
    };
    let (at, rest) = leading_secs(rest)?;
    if !matches!(rest, [] | [b'\r'] | [b',', ..]) {
        return None;
    }
    Some(TraceRecord {
        at,
        data: data_id(asu, lba),
        size,
        op,
    })
}

/// Reads `1..=max_len` ASCII digits from the front of `s`: their value
/// and the bytes after them, or `None` if `s` starts with no digit or
/// with more than `max_len` of them. `max_len` must be at most 19, so the
/// value stays below 10^19 < 2^64.
fn leading_digits(s: &[u8], max_len: usize) -> Option<(u64, &[u8])> {
    debug_assert!(max_len <= 19);
    let mut value = 0u64;
    let mut len = 0;
    while let Some(&b) = s.get(len) {
        if !b.is_ascii_digit() {
            break;
        }
        if len == max_len {
            return None;
        }
        value = value * 10 + u64::from(b - b'0');
        len += 1;
    }
    (len > 0).then(|| (value, &s[len..]))
}

/// Microseconds per unit of an `n`-digit fraction of a second, 10^(6−n).
const FRAC_SCALE: [u64; 7] = [1_000_000, 100_000, 10_000, 1_000, 100, 10, 1];

/// Reads a plain decimal timestamp from the front of `s` straight to
/// integer microseconds, and returns it with the bytes after it. Plain
/// means `secs[.frac]`: 1 to 9 digits of whole seconds, then optionally
/// a dot and 1 to 6 fractional digits. Any other start (a sign, a space,
/// `nan`, more digits) gives `None`. The caller checks what follows (an
/// exponent or a second dot must not).
///
/// # Exactness
///
/// The time equals `SimTime::from_secs_f64(p.parse::<f64>())` for the
/// plain part p. Its value is exactly k·10⁻⁶ s for the integer
/// k < 10¹⁵ < 2⁵⁰ that this function returns as microseconds. With
/// u = 2⁻⁵³: `parse` rounds correctly, to x = k·10⁻⁶·(1 + δ₁) with
/// |δ₁| ≤ u, and `from_secs_f64` computes y = fl(x·10⁶) =
/// k(1 + δ₁)(1 + δ₂) with |δ₂| ≤ u, as 10⁶ is exact in `f64`. So
/// |y − k| ≤ k(2u + u²) < 2⁵⁰(2⁻⁵² + 2⁻¹⁰⁶) = 0.25 + 2⁻⁵⁶: the two
/// roundings miss k by less than a quarter of a microsecond, and
/// rounding y to the nearest integer gives k. For k = 0 both sides are
/// zero, since `from_secs_f64` maps 0.0 to [`SimTime::ZERO`].
fn leading_secs(s: &[u8]) -> Option<(SimTime, &[u8])> {
    let (whole, rest) = leading_digits(s, 9)?;
    let mut us = whole * 1_000_000;
    let rest = match rest.strip_prefix(b".") {
        Some(frac) => {
            let (value, after) = leading_digits(frac, 6)?;
            us += value * FRAC_SCALE[frac.len() - after.len()];
            after
        }
        None => rest,
    };
    Some((SimTime::from_micros(us), rest))
}

/// The general parser: the record of one trimmed SPC line, or the error
/// that names what is wrong with it. `line_no` is the 1-based line
/// number the error carries. This is the only definition of a malformed
/// SPC line.
fn parse_line(line: &str, line_no: usize) -> Result<TraceRecord, SpcParseError> {
    let err = |kind| SpcParseError {
        line: line_no,
        kind,
    };
    let mut fields = line.split(',');
    let mut next = |name: &'static str| {
        fields
            .next()
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .ok_or_else(|| err_field(line_no, name))
    };
    fn err_field(line: usize, _name: &'static str) -> SpcParseError {
        SpcParseError {
            line,
            kind: SpcErrorKind::TooFewFields,
        }
    }

    let asu: u16 = next("asu")?
        .parse()
        .map_err(|_| err(SpcErrorKind::BadNumber("asu")))?;
    let lba: u64 = next("lba")?
        .parse()
        .map_err(|_| err(SpcErrorKind::BadNumber("lba")))?;
    let size: u64 = next("size")?
        .parse()
        .map_err(|_| err(SpcErrorKind::BadNumber("size")))?;
    let op = match next("opcode")? {
        "r" | "R" => OpKind::Read,
        "w" | "W" => OpKind::Write,
        other => return Err(err(SpcErrorKind::BadOpcode(other.to_string()))),
    };
    let ts: f64 = next("timestamp")?
        .parse()
        .map_err(|_| err(SpcErrorKind::BadNumber("timestamp")))?;
    if !ts.is_finite() || ts < 0.0 {
        return Err(err(SpcErrorKind::BadNumber("timestamp")));
    }
    Ok(TraceRecord {
        at: SimTime::from_secs_f64(ts),
        data: data_id(asu, lba),
        size,
        op,
    })
}

/// Serializes a [`Trace`] back to SPC text (for round-trip tests and for
/// exporting synthetic traces in a standard format). The `(asu, lba)`
/// encoding of [`data_id`] is inverted.
pub fn to_string(trace: &Trace) -> String {
    let mut out = String::new();
    for r in trace.records() {
        let asu = (r.data.0 >> 48) as u16;
        let lba = r.data.0 & ((1u64 << 48) - 1);
        let op = match r.op {
            OpKind::Read => 'r',
            OpKind::Write => 'w',
        };
        out.push_str(&format!(
            "{},{},{},{},{:.6}\n",
            asu,
            lba,
            r.size,
            op,
            r.at.as_secs_f64()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindown_sim::rng::SimRng;

    #[test]
    fn parses_financial1_style_lines() {
        let text = "\
0,20941264,8192,W,0.551706
0,20939840,8192,W,0.554041
1,3436288,15872,r,1.011732
# a comment

2,515200,3072,R,2.97794
";
        let t = parse(text).unwrap();
        assert_eq!(t.len(), 4);
        assert_eq!(t.reads_only().len(), 2);
        assert_eq!(t.records()[0].size, 8192);
        assert_eq!(t.records()[0].op, OpKind::Write);
        assert_eq!(t.records()[2].data, data_id(1, 3436288));
        assert_eq!(t.records()[0].at, SimTime::from_secs_f64(0.551706));
    }

    #[test]
    fn distinct_asu_same_lba_are_distinct_data() {
        assert_ne!(data_id(0, 100), data_id(1, 100));
        assert_eq!(data_id(3, 100), data_id(3, 100));
    }

    #[test]
    fn rejects_short_lines() {
        let e = parse("1,2,3\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert_eq!(e.kind, SpcErrorKind::TooFewFields);
    }

    #[test]
    fn rejects_bad_numbers() {
        let e = parse("x,2,3,r,0.5\n").unwrap_err();
        assert_eq!(e.kind, SpcErrorKind::BadNumber("asu"));
        let e = parse("1,2,3,r,notatime\n").unwrap_err();
        assert_eq!(e.kind, SpcErrorKind::BadNumber("timestamp"));
        let e = parse("1,2,3,r,-5\n").unwrap_err();
        assert_eq!(e.kind, SpcErrorKind::BadNumber("timestamp"));
    }

    #[test]
    fn rejects_bad_opcode() {
        let e = parse("1,2,3,x,0.5\n").unwrap_err();
        assert_eq!(e.kind, SpcErrorKind::BadOpcode("x".into()));
        assert_eq!(e.line, 1);
    }

    #[test]
    fn error_lines_are_accurate() {
        let e = parse("1,2,3,r,0.5\n1,2,3,r,bad\n").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn roundtrip() {
        let text = "0,1024,4096,r,0.500000\n7,2048,8192,w,1.250000\n";
        let t = parse(text).unwrap();
        assert_eq!(to_string(&t), text);
    }

    #[test]
    fn display_messages() {
        let e = parse("1,2,3,z,0.5\n").unwrap_err();
        assert!(e.to_string().contains("invalid opcode"));
        let e = parse("1\n").unwrap_err();
        assert!(e.to_string().contains("too few fields"));
    }

    #[test]
    fn whitespace_tolerant() {
        let t = parse(" 1 , 2 , 3 , r , 0.5 \n").unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn crlf_line_endings_tolerated() {
        let t = parse("1,2,3,r,0.5\r\n# comment\r\n\r\n1,4,3,w,0.6\r\n").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.records()[0].at, SimTime::from_secs_f64(0.5));
    }

    #[test]
    fn stream_matches_batch_parse() {
        let text = "0,20941264,8192,W,0.551706\n# c\n1,3436288,15872,r,1.011732\n";
        let batch = parse(text).unwrap();
        let streamed: Vec<_> = SpcStream::new(text.as_bytes(), ParsePolicy::Strict)
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(streamed, batch.records());
    }

    #[test]
    fn lenient_skips_and_counts_malformed_lines() {
        let text = "1,2,3,r,0.5\nbroken line\n1,2,3,x,0.6\n1,4,3,w,0.7\n";
        let mut s = SpcStream::new(text.as_bytes(), ParsePolicy::Lenient);
        let recs: Vec<_> = (&mut s).map(|r| r.unwrap()).collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(s.skipped(), 2);
    }

    #[test]
    fn strict_stream_fuses_after_first_error() {
        let text = "broken\n1,2,3,r,0.5\n";
        let mut s = SpcStream::new(text.as_bytes(), ParsePolicy::Strict);
        assert!(s.next().unwrap().is_err());
        assert!(s.next().is_none());
    }

    #[test]
    fn io_failures_surface_as_io_errors() {
        struct FailingReader;
        impl std::io::Read for FailingReader {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
        }
        let reader = std::io::BufReader::new(FailingReader);
        let e = SpcStream::new(reader, ParsePolicy::Lenient)
            .next()
            .unwrap()
            .unwrap_err();
        assert!(matches!(e.kind, SpcErrorKind::Io(_)));
        assert!(e.to_string().contains("disk on fire"));
    }

    fn via_f64(field: &str) -> SimTime {
        SimTime::from_secs_f64(field.parse::<f64>().unwrap())
    }

    /// The time of a field that is plain from start to end.
    fn plain_secs(field: &[u8]) -> Option<SimTime> {
        match leading_secs(field)? {
            (at, []) => Some(at),
            _ => None,
        }
    }

    #[test]
    fn plain_secs_reads_whole_microseconds() {
        assert_eq!(plain_secs(b"0"), Some(SimTime::ZERO));
        assert_eq!(plain_secs(b"0.000000"), Some(SimTime::ZERO));
        assert_eq!(plain_secs(b"1.5"), Some(SimTime::from_micros(1_500_000)));
        assert_eq!(plain_secs(b"0.000001"), Some(SimTime::from_micros(1)));
        assert_eq!(
            plain_secs(b"12.034"),
            Some(SimTime::from_micros(12_034_000))
        );
        assert_eq!(
            plain_secs(b"999999999.999999"),
            Some(SimTime::from_micros(999_999_999_999_999))
        );
    }

    #[test]
    fn plain_secs_rejects_every_other_shape() {
        for field in [
            "",
            ".",
            ".5",
            "5.",
            "-0",
            "+1",
            "-1.5",
            " 1",
            "1 ",
            "1e3",
            "nan",
            "inf",
            "0x10",
            "1.2.3",
            "1.0000001",
            "1234567890",
            "1234567890.5",
            "1,5",
            "١",
        ] {
            assert_eq!(plain_secs(field.as_bytes()), None, "{field:?}");
        }
    }

    #[test]
    fn plain_secs_matches_f64_at_the_edges() {
        // The largest accepted values, the neighbours of every power of
        // ten, and halfway points, where a double rounding would show.
        let mut fields = vec!["999999999.999999".to_string(), "0.5".to_string()];
        for e in 0..9 {
            let p = 10u64.pow(e);
            for whole in [p - 1, p, p + 1] {
                for frac in ["000001", "499999", "5", "500001", "999999", "000000"] {
                    fields.push(format!("{whole}.{frac}"));
                }
            }
        }
        for f in &fields {
            assert_eq!(plain_secs(f.as_bytes()), Some(via_f64(f)), "{f}");
        }
    }

    /// A record with ids that fit the format and a time below 10^9 s.
    fn random_record(rng: &mut SimRng) -> TraceRecord {
        let at = match rng.index(3) {
            0 => rng.next_below(1_000_000),
            1 => rng.next_below(3_600_000_000),
            _ => rng.next_below(999_999_999_999_999),
        };
        TraceRecord {
            at: SimTime::from_micros(at),
            data: data_id(rng.next_below(1 << 16) as u16, rng.next_below(1u64 << 48)),
            size: rng.next_below(1 << 24),
            op: if rng.chance(0.5) {
                OpKind::Read
            } else {
                OpKind::Write
            },
        }
    }

    #[test]
    fn fast_path_accepts_every_rendered_line() {
        // `to_string`'s `{:.6}` and the end-to-end benchmark's whole
        // seconds, a dot and six digits of microseconds.
        let mut rng = SimRng::seed_from_u64(0x5bc_0002);
        for _ in 0..20_000 {
            let r = random_record(&mut rng);
            let us = r.at.as_micros();
            let e2e = format!(
                "{},{},{},{},{}.{:06}",
                r.data.0 >> 48,
                r.data.0 & ((1u64 << 48) - 1),
                r.size,
                if r.op == OpKind::Read { 'r' } else { 'w' },
                us / 1_000_000,
                us % 1_000_000
            );
            let rendered = to_string(&Trace::from_records(vec![r]));
            for line in [rendered.trim_end(), &e2e] {
                assert_eq!(parse_plain(line.as_bytes()), Some(r), "{line}");
            }
        }
        // The CI smoke's accumulated times, as its awk `%.3f` prints them.
        let mut t = 0.0f64;
        for i in 0..100_000u64 {
            t += 0.001;
            let line = format!("0,{},8192,r,{t:.3}", (i * 7919) % 65536);
            let fast = parse_plain(line.as_bytes());
            assert!(fast.is_some(), "{line}");
            assert_eq!(fast.map(Ok), Some(parse_line(&line, 1)), "{line}");
        }
    }

    #[test]
    fn fast_path_equals_general_parser_on_random_lines() {
        // Random field shapes around the fast path's limits: digit counts
        // up to and past each limit, leading zeros, both opcode cases,
        // optional trailing fields and CR. Each accepted line must parse
        // identically.
        let mut rng = SimRng::seed_from_u64(0x5bc_0003);
        let digits = |rng: &mut SimRng, max_len: usize| -> String {
            let len = rng.index(max_len + 1);
            (0..len)
                .map(|_| char::from(b'0' + rng.next_below(10) as u8))
                .collect()
        };
        let mut accepted = 0usize;
        let mut line = String::new();
        for _ in 0..1_000_000 {
            line.clear();
            let asu = digits(&mut rng, 6);
            let lba = digits(&mut rng, 21);
            let size = digits(&mut rng, 21);
            let op = *rng.choose(&["r", "R", "w", "W", "x"]);
            let whole = digits(&mut rng, 10);
            let frac = digits(&mut rng, 7);
            line.push_str(&format!("{asu},{lba},{size},{op},{whole}"));
            if rng.chance(0.9) {
                line.push('.');
                line.push_str(&frac);
            }
            match rng.index(4) {
                0 => line.push_str(",1,2"),
                1 => line.push('\r'),
                _ => {}
            }
            if let Some(fast) = parse_plain(line.as_bytes()) {
                accepted += 1;
                assert_eq!(
                    parse_line(line.trim(), 1),
                    Ok(fast),
                    "fast path disagrees on {line:?}"
                );
            }
        }
        assert!(accepted > 100_000, "fast path accepted {accepted} lines");
    }
}
