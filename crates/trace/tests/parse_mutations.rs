//! Seeded mutation corpus for the SPC and SRT line parsers.
//!
//! Rendered lines are mutated (truncation, dropped and extra fields,
//! overflowing ids, signs, spaces, CRLF, `#` comments, odd timestamps,
//! non-UTF-8 bytes) and fed to the streams. The checks:
//!
//! * every line parses exactly as the reference parser of its format
//!   below, a copy of the general line parser (SRT's as it was before the
//!   shared line reader: fields collected into a `Vec`). An SPC stream
//!   tries its fast path first, so wherever the fast path accepts a line
//!   its record must equal the general parser's. The unmutated lines are
//!   rendered by `spc::to_string`, the CI smoke's awk `%.3f` and the
//!   end-to-end benchmark's whole-microsecond renderer, all of which the
//!   fast path accepts (`spc`'s own tests check that);
//! * a Strict stream stops at the first malformed line and names its
//!   line number; a Lenient stream yields every other record and its
//!   `skipped()` equals the number of malformed lines;
//! * half the rounds render time-sorted records, half unsorted ones:
//!   wrapped in `EnsureSorted`, a Lenient stream stops at its first
//!   record that is earlier than the one before it;
//! * the same text read as 1 to 8 line-aligned ranges (`ranges`), each
//!   by its own stream, joins to the whole stream's records and skip
//!   count, and Strict to its first error at its line in the file;
//! * nothing panics.

use std::io::{BufReader, Cursor, Take};

use spindown_sim::rng::SimRng;
use spindown_sim::time::SimTime;
use spindown_trace::ranges::{join_passes, line_starts, range_reader, RangePass};
use spindown_trace::record::{OpKind, Trace, TraceRecord};
use spindown_trace::spc::{self, SpcErrorKind, SpcParseError, SpcStream};
use spindown_trace::srt::{self, SrtErrorKind, SrtParseError, SrtStream};
use spindown_trace::stream::EnsureSorted;
use spindown_trace::{ErasedStream, ParsePolicy, StreamError};

/// `n` random records, sorted by time when `sorted`.
fn random_records(rng: &mut SimRng, n: usize, sorted: bool) -> Vec<TraceRecord> {
    let mut records: Vec<TraceRecord> = (0..n).map(|_| random_record(rng)).collect();
    if sorted {
        records.sort_by_key(|r| r.at);
    }
    records
}

/// A record with ids that fit both formats and a time below 10^9 s.
fn random_record(rng: &mut SimRng) -> TraceRecord {
    let at = match rng.index(3) {
        0 => rng.next_below(1_000_000),
        1 => rng.next_below(3_600_000_000),
        _ => rng.next_below(999_999_999_999_999),
    };
    TraceRecord {
        at: SimTime::from_micros(at),
        data: spc::data_id(rng.next_below(1 << 16) as u16, rng.next_below(1u64 << 48)),
        size: rng.next_below(1 << 24),
        op: if rng.chance(0.5) {
            OpKind::Read
        } else {
            OpKind::Write
        },
    }
}

fn spc_to_string_line(r: TraceRecord) -> String {
    let text = spc::to_string(&Trace::from_records(vec![r]));
    text.trim_end_matches('\n').to_string()
}

fn srt_to_string_line(r: TraceRecord) -> String {
    let text = srt::to_string(&Trace::from_records(vec![r]));
    text.trim_end_matches('\n').to_string()
}

/// The end-to-end benchmark's renderer: whole seconds, a dot and six
/// digits of microseconds.
fn e2e_line(r: TraceRecord) -> String {
    let us = r.at.as_micros();
    let op = match r.op {
        OpKind::Read => 'r',
        OpKind::Write => 'w',
    };
    format!(
        "{},{},{},{op},{}.{:06}",
        r.data.0 >> 48,
        r.data.0 & ((1u64 << 48) - 1),
        r.size,
        us / 1_000_000,
        us % 1_000_000
    )
}

/// The CI smoke's awk line: `printf "0,%d,8192,r,%.3f\n"`.
fn awk_line(i: u64, t: f64) -> String {
    format!("0,{},8192,r,{t:.3}", (i * 7919) % 65536)
}

/// Timestamps that are not the plain `secs[.frac]` shape, or exceed it.
const ODD_TIMESTAMPS: &[&str] = &[
    "-0",
    "-0.0",
    "nan",
    "NaN",
    "inf",
    "-inf",
    "infinity",
    "1e3",
    "1E-3",
    "-1",
    "+1.5",
    ".5",
    "5.",
    "0.1234567",
    "1234567890",
    "1234567890.5",
    "0001234567.5",
    "0x10",
    "1_000",
    "",
];

/// One random mutation of a rendered line whose fields are separated by
/// `sep`. `ts` is the index of the timestamp field.
fn mutate(line: &str, sep: u8, ts: usize, rng: &mut SimRng) -> Vec<u8> {
    let bytes = line.as_bytes();
    let mut fields: Vec<Vec<u8>> = bytes.split(|&b| b == sep).map(<[u8]>::to_vec).collect();
    let join = |fields: &[Vec<u8>]| fields.join(&sep);
    match rng.index(16) {
        // Truncation.
        0 => bytes[..rng.index(bytes.len() + 1)].to_vec(),
        // A dropped field.
        1 => {
            fields.remove(rng.index(fields.len()));
            join(&fields)
        }
        // An extra field, anywhere.
        2 => {
            let extra: &[u8] = match rng.index(3) {
                0 => b"7",
                1 => b"x",
                _ => b"",
            };
            fields.insert(rng.index(fields.len() + 1), extra.to_vec());
            join(&fields)
        }
        // An id that overflows its type: ASU or device 65536, LBA or
        // block 2^64.
        3 => {
            let (i, value): (usize, &[u8]) = match (sep, rng.index(2)) {
                (b',', 0) => (0, b"65536"),
                (b',', _) => (1, b"18446744073709551616"),
                (_, 0) => (1, b"65536"),
                (_, _) => (2, b"18446744073709551616"),
            };
            fields[i] = value.to_vec();
            join(&fields)
        }
        // A sign in front of a field.
        4 => {
            let i = rng.index(fields.len());
            let sign = if rng.chance(0.5) { b'+' } else { b'-' };
            fields[i].insert(0, sign);
            join(&fields)
        }
        // Spaces or tabs around a field or the line.
        5 => {
            let i = rng.index(fields.len());
            let pad: &[u8] = if rng.chance(0.5) { b" " } else { b"\t" };
            if rng.chance(0.5) {
                fields[i].splice(0..0, pad.iter().copied());
            } else {
                fields[i].extend_from_slice(pad);
            }
            join(&fields)
        }
        // A CRLF ending, or a stray CR.
        6 => {
            let mut out = bytes.to_vec();
            match rng.index(3) {
                0 => out.push(b'\r'),
                1 => out.extend_from_slice(b"\r\r"),
                _ => out.insert(rng.index(out.len() + 1), b'\r'),
            }
            out
        }
        // A comment, or a `#` inside the line.
        7 => {
            let mut out = bytes.to_vec();
            if rng.chance(0.5) {
                out.insert(0, b'#');
                if rng.chance(0.5) {
                    out.insert(0, b' ');
                }
            } else {
                out.insert(rng.index(out.len() + 1), b'#');
            }
            out
        }
        // A timestamp that is not plain.
        8 => {
            fields[ts] = rng.choose(ODD_TIMESTAMPS).as_bytes().to_vec();
            join(&fields)
        }
        // Non-UTF-8 bytes anywhere.
        9 => {
            let mut out = bytes.to_vec();
            let bad: &[u8] = match rng.index(3) {
                0 => b"\xff",
                1 => b"\xc3",
                _ => b"\x80\x80",
            };
            let at = rng.index(out.len() + 1);
            out.splice(at..at, bad.iter().copied());
            out
        }
        // Blank lines.
        10 => match rng.index(3) {
            0 => Vec::new(),
            1 => b"  \t".to_vec(),
            _ => b"\r".to_vec(),
        },
        // A bad or doubled opcode.
        11 => {
            let op = if sep == b',' { 3 } else { 4 };
            fields[op] = match rng.index(3) {
                0 => b"x".to_vec(),
                1 => b"rw".to_vec(),
                _ => b"".to_vec(),
            };
            join(&fields)
        }
        // Leading zeros (still plain while within the digit limits).
        12 => {
            let i = rng.index(fields.len());
            let zeros = 1 + rng.index(12);
            fields[i].splice(0..0, vec![b'0'; zeros]);
            join(&fields)
        }
        // Unicode whitespace around the line.
        13 => {
            let mut out = "\u{a0}".as_bytes().to_vec();
            out.extend_from_slice(bytes);
            if rng.chance(0.5) {
                out.extend_from_slice("\u{3000}".as_bytes());
            }
            out
        }
        // A field replaced with a digit string at or beyond a limit.
        14 => {
            let long: &[u8] = match rng.index(3) {
                0 => b"99999",
                1 => b"9999999999999999999",
                _ => b"00000000000000000000",
            };
            let i = rng.index(fields.len());
            fields[i] = long.to_vec();
            join(&fields)
        }
        // The other format's separator.
        _ => {
            let other = if sep == b',' { b' ' } else { b',' };
            fields.join(&other)
        }
    }
}

/// The general SPC line parser: the record of one trimmed line, or the
/// error that names what is wrong with it.
fn spc_reference(line: &str, line_no: usize) -> Result<TraceRecord, SpcParseError> {
    let err = |kind| SpcParseError {
        line: line_no,
        kind,
    };
    let mut fields = line.split(',');
    let mut next = || {
        fields
            .next()
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .ok_or_else(|| err(SpcErrorKind::TooFewFields))
    };
    let asu: u16 = next()?
        .parse()
        .map_err(|_| err(SpcErrorKind::BadNumber("asu")))?;
    let lba: u64 = next()?
        .parse()
        .map_err(|_| err(SpcErrorKind::BadNumber("lba")))?;
    let size: u64 = next()?
        .parse()
        .map_err(|_| err(SpcErrorKind::BadNumber("size")))?;
    let op = match next()? {
        "r" | "R" => OpKind::Read,
        "w" | "W" => OpKind::Write,
        other => return Err(err(SpcErrorKind::BadOpcode(other.to_string()))),
    };
    let ts: f64 = next()?
        .parse()
        .map_err(|_| err(SpcErrorKind::BadNumber("timestamp")))?;
    if !ts.is_finite() || ts < 0.0 {
        return Err(err(SpcErrorKind::BadNumber("timestamp")));
    }
    Ok(TraceRecord {
        at: SimTime::from_secs_f64(ts),
        data: spc::data_id(asu, lba),
        size,
        op,
    })
}

/// What the reference SPC parser makes of one line: `None` for a blank
/// or comment line.
fn spc_general(line: &[u8], line_no: usize) -> Option<Result<TraceRecord, SpcParseError>> {
    let text = String::from_utf8_lossy(line);
    let text = text.trim();
    (!text.is_empty() && !text.starts_with('#')).then(|| spc_reference(text, line_no))
}

/// The SRT line parser as it was before the shared line reader: fields
/// collected into a `Vec`.
fn srt_reference(line: &str, line_no: usize) -> Result<TraceRecord, SrtParseError> {
    let err = |message: String| SrtParseError {
        line: line_no,
        kind: SrtErrorKind::Malformed(message),
    };
    let fields: Vec<&str> = line.split_whitespace().collect();
    if fields.len() < 5 {
        return Err(err(format!("expected 5 fields, got {}", fields.len())));
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
        data: srt::data_id(device, block),
        size,
        op,
    })
}

fn srt_general(line: &[u8], line_no: usize) -> Option<Result<TraceRecord, SrtParseError>> {
    let text = String::from_utf8_lossy(line);
    let text = text.trim();
    (!text.is_empty() && !text.starts_with('#')).then(|| srt_reference(text, line_no))
}

fn joined(lines: &[Vec<u8>]) -> Vec<u8> {
    let mut text = lines.join(&b'\n');
    text.push(b'\n');
    text
}

/// Runs a Lenient and a Strict stream over `text` and checks both
/// against `expected`, the outcome of each of its lines (`None`: blank
/// or comment); then the Lenient stream again under `EnsureSorted`.
fn check_streams<'t, E, S>(
    text: &'t [u8],
    expected: &[Option<Result<TraceRecord, E>>],
    open: impl Fn(&'t [u8], ParsePolicy) -> S,
    skipped: impl Fn(&S) -> usize,
) where
    E: std::fmt::Debug + PartialEq + Into<StreamError>,
    S: Iterator<Item = Result<TraceRecord, E>>,
{
    let mut lenient = open(text, ParsePolicy::Lenient);
    let got: Vec<TraceRecord> = (&mut lenient).map(|r| r.expect("lenient")).collect();
    let want: Vec<TraceRecord> = expected
        .iter()
        .filter_map(|e| e.as_ref()?.as_ref().ok().copied())
        .collect();
    assert_eq!(got, want);
    let malformed = expected
        .iter()
        .filter(|e| matches!(e, Some(Err(_))))
        .count();
    assert_eq!(skipped(&lenient), malformed);

    let mut sorted = EnsureSorted::new(ErasedStream::new(open(text, ParsePolicy::Lenient)));
    let in_order = want
        .windows(2)
        .position(|w| w[1].at < w[0].at)
        .map_or(want.len(), |i| i + 1);
    for rec in &want[..in_order] {
        assert_eq!(sorted.next(), Some(Ok(*rec)));
    }
    if in_order < want.len() {
        let index = in_order;
        assert_eq!(sorted.next(), Some(Err(StreamError::OutOfOrder { index })));
    }
    assert!(sorted.next().is_none());

    let mut strict = open(text, ParsePolicy::Strict);
    for e in expected.iter().flatten() {
        match (e, strict.next()) {
            (Ok(want), Some(Ok(got))) => assert_eq!(got, *want),
            (Err(want), Some(Err(got))) => {
                assert_eq!(got, *want);
                assert!(strict.next().is_none(), "strict stream fuses");
                return;
            }
            (want, got) => panic!("expected {want:?}, strict stream gave {got:?}"),
        }
    }
    assert!(strict.next().is_none());
}

/// The reader of one range of an in-memory text.
type RangeReader<'t> = BufReader<Take<Cursor<&'t [u8]>>>;

/// Reads `text` as 1 to 8 line-aligned ranges, each by its own stream
/// (`open`; `counts` gives a stream's lines read and lines skipped), and
/// checks the joined result against `expected`, the outcome of each
/// line: under Lenient every record in order and the skip count, under
/// Strict the first malformed line's error with its line in the file.
fn check_ranges<'t, E, S>(
    text: &'t [u8],
    expected: &[Option<Result<TraceRecord, E>>],
    open: impl Fn(RangeReader<'t>, ParsePolicy) -> S,
    counts: impl Fn(&S) -> (usize, usize),
) where
    E: std::fmt::Debug + Clone + Into<StreamError>,
    S: Iterator<Item = Result<TraceRecord, E>>,
{
    let want: Vec<TraceRecord> = expected
        .iter()
        .filter_map(|e| e.as_ref()?.as_ref().ok().copied())
        .collect();
    let malformed = expected
        .iter()
        .filter(|e| matches!(e, Some(Err(_))))
        .count();
    let first_error: Option<StreamError> = expected
        .iter()
        .flatten()
        .find_map(|e| e.as_ref().err())
        .map(|e| e.clone().into());
    for parts in 1..=8 {
        let starts = line_starts(&mut Cursor::new(text), parts).unwrap();
        let join = |policy| {
            join_passes((0..starts.len()).map(|k| {
                let end = starts.get(k + 1).copied();
                let reader = range_reader(Cursor::new(text), starts[k], end).unwrap();
                let mut stream = open(reader, policy);
                let outcome = (&mut stream)
                    .map(|r| r.map_err(Into::into))
                    .collect::<Result<Vec<_>, StreamError>>();
                let (lines, skipped) = counts(&stream);
                RangePass {
                    outcome,
                    lines,
                    skipped,
                }
            }))
        };
        let (records, skipped) = join(ParsePolicy::Lenient).expect("lenient");
        assert_eq!(records.concat(), want, "{parts} parts");
        assert_eq!(skipped, malformed, "{parts} parts");
        match (join(ParsePolicy::Strict), &first_error) {
            (Err(got), Some(want_err)) => assert_eq!(&got, want_err, "{parts} parts"),
            (Ok((records, 0)), None) => assert_eq!(records.concat(), want),
            (got, want_err) => panic!("{parts} parts: expected {want_err:?}, got {got:?}"),
        }
    }
}

#[test]
fn spc_mutation_corpus() {
    let mut rng = SimRng::seed_from_u64(0x5bc_0001);
    for round in 0..60 {
        let mut lines = Vec::new();
        for (i, r) in random_records(&mut rng, 400, round % 2 == 0)
            .into_iter()
            .enumerate()
        {
            let rendered = match rng.index(3) {
                0 => spc_to_string_line(r),
                1 => e2e_line(r),
                _ => awk_line(i as u64, r.at.as_secs_f64()),
            };
            lines.push(if rng.chance(0.6) {
                mutate(&rendered, b',', 4, &mut rng)
            } else {
                rendered.into_bytes()
            });
        }
        let expected: Vec<_> = lines
            .iter()
            .enumerate()
            .map(|(i, line)| spc_general(line, i + 1))
            .collect();
        let text = joined(&lines);
        check_streams(&text, &expected, SpcStream::new, SpcStream::skipped);
        check_ranges(&text, &expected, SpcStream::new, |s| {
            (s.lines_read(), s.skipped())
        });
    }
}

#[test]
fn srt_mutation_corpus() {
    let mut rng = SimRng::seed_from_u64(0x5b7_0001);
    for round in 0..60 {
        let lines: Vec<Vec<u8>> = random_records(&mut rng, 400, round % 2 == 0)
            .into_iter()
            .map(|r| {
                let rendered = srt_to_string_line(r);
                if rng.chance(0.6) {
                    mutate(&rendered, b' ', 0, &mut rng)
                } else {
                    rendered.into_bytes()
                }
            })
            .collect();
        let expected: Vec<_> = lines
            .iter()
            .enumerate()
            .map(|(i, line)| srt_general(line, i + 1))
            .collect();
        let text = joined(&lines);
        check_streams(&text, &expected, SrtStream::new, SrtStream::skipped);
        check_ranges(&text, &expected, SrtStream::new, |s| {
            (s.lines_read(), s.skipped())
        });
    }
}

#[test]
fn non_utf8_lines_are_malformed_not_io_failures() {
    let text = b"0,1,8192,r,0.5\n0,2,8192,r,0.\xff6\n0,3,8192,r,0.7\n";
    let mut lenient = SpcStream::new(&text[..], ParsePolicy::Lenient);
    assert_eq!((&mut lenient).filter(Result::is_ok).count(), 2);
    assert_eq!(lenient.skipped(), 1);
    let err = SpcStream::new(&text[..], ParsePolicy::Strict)
        .find_map(Result::err)
        .expect("strict reports the bad line");
    assert_eq!(
        err,
        SpcParseError {
            line: 2,
            kind: SpcErrorKind::BadNumber("timestamp"),
        }
    );

    let text = b"0.5 0 1 8192 R\n0.6 0 \xff2 8192 R\n";
    let err = SrtStream::new(&text[..], ParsePolicy::Strict)
        .find_map(Result::err)
        .expect("strict reports the bad line");
    assert_eq!(err.line, 2);
    assert_eq!(
        err.kind,
        SrtErrorKind::Malformed("bad block number \"\u{fffd}2\"".into())
    );
    // A bad byte in a field the parser never reads costs nothing.
    let text = b"0,1,8192,r,0.5,\xfftail\n";
    let recs: Vec<_> = SpcStream::new(&text[..], ParsePolicy::Strict).collect();
    assert_eq!(recs.len(), 1);
    assert!(recs[0].is_ok());
}
