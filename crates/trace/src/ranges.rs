//! Line-aligned byte ranges of one trace file, for a pass that reads
//! the file on several threads at once.
//!
//! [`line_starts`] cuts a file into at most `parts` consecutive byte
//! ranges, each cut just after a `\n`. Each range gets its own reader
//! ([`range_reader`]: its own seek and length limit) and the format's
//! ordinary stream ([`crate::spc::SpcStream`], [`crate::srt::SrtStream`]),
//! so the ranges' lines, in order, are exactly the file's lines, and each
//! line parses as it does in a pass over the whole file. Only the
//! numbering differs: each range's stream counts its lines from 1.
//! [`join_passes`] puts the ranges' results back in file terms: the first
//! error in file order wins, its line number shifted by the lines of the
//! earlier ranges, and the Lenient skip counts add up.

use std::io::{self, BufReader, Read, Seek, SeekFrom, Take};

use crate::stream::StreamError;

/// Cuts `input` into at most `parts` consecutive line-aligned byte
/// ranges that cover all of it, and returns where they start, ascending:
/// range `k` runs from `starts[k]` up to `starts[k + 1]`, the last one to
/// the end of the input.
///
/// The first range starts at 0. Range `k` starts at the first line start
/// at or after `len·k/parts`, so a cut lands just after a `\n`, or
/// exactly on that offset when a line starts there. A cut that would
/// leave a range empty is dropped, so a file with fewer lines than
/// `parts` gets fewer ranges. With `parts <= 1` the result is `[0]` and
/// `input` is neither read nor seeked.
pub fn line_starts<R: Read + Seek>(input: &mut R, parts: usize) -> io::Result<Vec<u64>> {
    let mut starts = vec![0u64];
    if parts > 1 {
        let len = input.seek(SeekFrom::End(0))?;
        for k in 1..parts {
            let share = (u128::from(len) * k as u128 / parts as u128) as u64;
            if share <= *starts.last().expect("starts holds 0") {
                // The previous cut already passed this share.
                continue;
            }
            match next_line_start(input, share - 1)? {
                Some(start) if start < len => starts.push(start),
                _ => break,
            }
        }
    }
    Ok(starts)
}

/// The offset just after the first `\n` at or after `from`, or `None`
/// when the input ends first.
fn next_line_start<R: Read + Seek>(input: &mut R, from: u64) -> io::Result<Option<u64>> {
    input.seek(SeekFrom::Start(from))?;
    let mut buf = [0u8; 4096];
    let mut pos = from;
    loop {
        let n = match input.read(&mut buf) {
            Ok(0) => return Ok(None),
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if let Some(i) = buf[..n].iter().position(|&b| b == b'\n') {
            return Ok(Some(pos + i as u64 + 1));
        }
        pos += n as u64;
    }
}

/// A buffered reader of the bytes of `input` from `start` up to `end`,
/// or to the end of the input without one. It seeks only when `start`
/// is not 0, so a pipe can be read whole.
pub fn range_reader<R: Read + Seek>(
    mut input: R,
    start: u64,
    end: Option<u64>,
) -> io::Result<BufReader<Take<R>>> {
    if start > 0 {
        input.seek(SeekFrom::Start(start))?;
    }
    let len = end.map_or(u64::MAX, |end| end.saturating_sub(start));
    Ok(BufReader::new(input.take(len)))
}

/// One range's pass: what it returned, and the counts of the stream that
/// read the range.
#[derive(Debug, Clone, PartialEq)]
pub struct RangePass<T> {
    /// The pass's result.
    pub outcome: Result<T, StreamError>,
    /// Lines the stream read, blank and comment lines included
    /// ([`crate::spc::SpcStream::lines_read`]).
    pub lines: usize,
    /// Malformed lines the stream skipped under
    /// [`crate::ParsePolicy::Lenient`].
    pub skipped: usize,
}

/// Joins the passes over a file's ranges, given in file order, into what
/// one pass over the whole file returns: every range's result and the
/// summed skip count, or the first error in file order. A
/// [`StreamError::Malformed`] line number is shifted by the lines of the
/// earlier ranges, which are complete because none of them failed; other
/// errors carry no line number and pass unchanged.
pub fn join_passes<T>(
    passes: impl IntoIterator<Item = RangePass<T>>,
) -> Result<(Vec<T>, usize), StreamError> {
    let mut outcomes = Vec::new();
    let (mut lines, mut skipped) = (0usize, 0usize);
    for pass in passes {
        match pass.outcome {
            Ok(t) => outcomes.push(t),
            Err(StreamError::Malformed { line, message }) => {
                return Err(StreamError::Malformed {
                    line: lines + line,
                    message,
                })
            }
            Err(e) => return Err(e),
        }
        lines += pass.lines;
        skipped += pass.skipped;
    }
    Ok((outcomes, skipped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn cut(text: &[u8], parts: usize) -> Vec<u64> {
        line_starts(&mut Cursor::new(text), parts).unwrap()
    }

    /// The bytes of range `k` of the cut `starts`.
    fn bytes_of(text: &[u8], starts: &[u64], k: usize) -> Vec<u8> {
        let mut out = Vec::new();
        range_reader(Cursor::new(text), starts[k], starts.get(k + 1).copied())
            .unwrap()
            .read_to_end(&mut out)
            .unwrap();
        out
    }

    #[test]
    fn ranges_are_line_aligned_and_cover_the_input() {
        let texts: [&[u8]; 6] = [
            b"a\nbb\nccc\ndddd\neeeee\nf\n",
            b"a\r\nbb\r\nccc\r\n",
            b"no trailing newline\nlast",
            b"one line\n",
            b"\n\n\n\n",
            b"",
        ];
        for text in texts {
            for parts in 1..=8 {
                let starts = cut(text, parts);
                assert!(starts.len() <= parts);
                assert_eq!(starts[0], 0);
                for w in starts.windows(2) {
                    assert!(w[0] < w[1], "{starts:?}");
                    assert_eq!(text[w[1] as usize - 1], b'\n', "{starts:?}");
                }
                assert!(*starts.last().unwrap() < text.len().max(1) as u64);
                let joined: Vec<u8> = (0..starts.len())
                    .flat_map(|k| bytes_of(text, &starts, k))
                    .collect();
                assert_eq!(joined, text, "parts {parts}");
            }
        }
    }

    #[test]
    fn a_cut_on_a_line_start_stays_there() {
        // 8 bytes: the even share of 2 parts is offset 4, a line start.
        assert_eq!(cut(b"abc\ndef\n", 2), vec![0, 4]);
        // Otherwise the cut moves on to the next line start, and a cut
        // that would leave the last range empty is dropped.
        assert_eq!(cut(b"ab\ncdefg\nh\n", 2), vec![0, 9]);
        assert_eq!(cut(b"ab\ncdefg\n", 2), vec![0]);
    }

    #[test]
    fn fewer_lines_than_parts_gives_fewer_ranges() {
        assert_eq!(cut(b"x\ny\n", 8), vec![0, 2]);
        assert_eq!(cut(b"one line\n", 8), vec![0]);
        assert_eq!(cut(b"", 8), vec![0]);
    }

    /// Reads as empty and refuses to seek, like a pipe.
    struct Pipe;

    impl Read for Pipe {
        fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
            Ok(0)
        }
    }

    impl Seek for Pipe {
        fn seek(&mut self, _: SeekFrom) -> io::Result<u64> {
            Err(io::Error::new(io::ErrorKind::Unsupported, "not seekable"))
        }
    }

    #[test]
    fn one_part_never_seeks() {
        assert_eq!(line_starts(&mut Pipe, 1).unwrap(), vec![0]);
        assert!(range_reader(Pipe, 0, None).is_ok());
        assert!(line_starts(&mut Pipe, 2).is_err());
    }

    #[test]
    fn join_shifts_the_first_error_and_sums_skips() {
        let pass = |outcome, lines, skipped| RangePass {
            outcome,
            lines,
            skipped,
        };
        let bad = |line| {
            Err(StreamError::Malformed {
                line,
                message: "bad".into(),
            })
        };
        assert_eq!(
            join_passes([pass(Ok(1), 5, 1), pass(Ok(2), 7, 2)]),
            Ok((vec![1, 2], 3))
        );
        assert_eq!(
            join_passes([pass(Ok(1), 5, 0), pass(bad(3), 3, 0), pass(bad(1), 9, 0)]),
            Err(StreamError::Malformed {
                line: 8,
                message: "bad".into()
            })
        );
        assert_eq!(
            join_passes([
                pass(Ok(1), 5, 0),
                pass(Err(StreamError::Io("x".into())), 1, 0)
            ]),
            Err(StreamError::Io("x".into()))
        );
        assert_eq!(join_passes::<u8>([]), Ok((vec![], 0)));
    }
}
