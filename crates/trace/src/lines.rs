//! The line reader both text trace formats share.
//!
//! [`LineReader`] reads one line at a time with `read_until(b'\n')` into
//! a reused byte buffer, counts lines, skips blank and `#` lines, and
//! applies the [`ParsePolicy`] to a format's line parser. It works on
//! bytes, so a line that is not UTF-8 reaches the parser like any other
//! line. The parser decodes it lossily and the bad byte fails its own
//! field: a malformed line, not an I/O failure. Only errors of the
//! underlying reader surface as I/O errors.

use std::io::BufRead;

use crate::stream::ParsePolicy;

/// One line at a time from a [`BufRead`], under a [`ParsePolicy`].
#[derive(Debug)]
pub(crate) struct LineReader<R> {
    reader: R,
    buf: Vec<u8>,
    line_no: usize,
    policy: ParsePolicy,
    skipped: usize,
    done: bool,
}

impl<R> LineReader<R> {
    /// Malformed lines skipped so far under [`ParsePolicy::Lenient`].
    pub(crate) fn skipped(&self) -> usize {
        self.skipped
    }

    /// Lines read so far, blank and comment lines included.
    pub(crate) fn lines_read(&self) -> usize {
        self.line_no
    }
}

impl<R: BufRead> LineReader<R> {
    pub(crate) fn new(reader: R, policy: ParsePolicy) -> Self {
        LineReader {
            reader,
            buf: Vec::new(),
            line_no: 0,
            policy,
            skipped: 0,
            done: false,
        }
    }

    /// The next record: `parse` gets each line that is neither blank nor
    /// a `#` comment, without its `\n`, and its 1-based number. Under
    /// [`ParsePolicy::Strict`] the first error ends the stream; under
    /// [`ParsePolicy::Lenient`] failed lines are skipped and counted. A
    /// read failure becomes `io_error(line, message)` and ends the stream.
    pub(crate) fn next_with<T, E>(
        &mut self,
        mut parse: impl FnMut(&[u8], usize) -> Result<T, E>,
        io_error: impl FnOnce(usize, String) -> E,
    ) -> Option<Result<T, E>> {
        while !self.done {
            self.buf.clear();
            match self.reader.read_until(b'\n', &mut self.buf) {
                Ok(0) => {
                    self.done = true;
                    return None;
                }
                Ok(_) => {}
                Err(e) => {
                    self.done = true;
                    return Some(Err(io_error(self.line_no + 1, e.to_string())));
                }
            }
            self.line_no += 1;
            let line = self.buf.strip_suffix(b"\n").unwrap_or(&self.buf);
            if is_blank_or_comment(line) {
                continue;
            }
            match parse(line, self.line_no) {
                Ok(rec) => return Some(Ok(rec)),
                Err(e) => match self.policy {
                    ParsePolicy::Strict => {
                        self.done = true;
                        return Some(Err(e));
                    }
                    ParsePolicy::Lenient => self.skipped += 1,
                },
            }
        }
        None
    }
}

/// Whether the line, decoded lossily and trimmed, is empty or starts
/// with `#`. A line that starts with a visible ASCII character (every
/// record line) is decided by that byte alone.
fn is_blank_or_comment(line: &[u8]) -> bool {
    match line.first() {
        Some(&b) if b.is_ascii_graphic() => b == b'#',
        _ => {
            let text = String::from_utf8_lossy(line);
            let text = text.trim();
            text.is_empty() || text.starts_with('#')
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blank_and_comment_lines_follow_the_trimmed_text() {
        for line in [
            &b""[..],
            b" ",
            b"\r",
            b"\t\r",
            b"#",
            b"  # x",
            b"\xc2\xa0# nbsp",
        ] {
            assert!(is_blank_or_comment(line), "{line:?}");
        }
        for line in [&b"1,2"[..], b" 1", b"\xff#", b"\x0b1", b"x#"] {
            assert!(!is_blank_or_comment(line), "{line:?}");
        }
    }
}
