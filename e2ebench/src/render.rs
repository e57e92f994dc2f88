//! Renders generated trace records as an SPC file, the format the CLI's
//! `--trace` flag reads.

use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

use spindown_trace::record::{OpKind, TraceRecord};

/// What a rendered file holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FileStats {
    /// Trace lines (reads and writes).
    pub lines: u64,
    /// File size.
    pub bytes: u64,
    /// Read lines: the requests the simulator sees.
    pub reads: u64,
    /// Seconds from the first read to the last, as the CLI report prints it.
    pub span_s: f64,
}

/// Writes `records` as SPC lines (`asu,lba,size,op,seconds`) to `out`.
/// Timestamps carry whole microseconds, so the parser reads back the
/// generator's exact times.
pub fn render(
    records: impl Iterator<Item = TraceRecord>,
    out: impl Write,
) -> io::Result<FileStats> {
    let mut out = BufWriter::with_capacity(1 << 16, out);
    let mut stats = FileStats {
        lines: 0,
        bytes: 0,
        reads: 0,
        span_s: 0.0,
    };
    let mut first_read = None;
    let mut line = String::with_capacity(64);
    for r in records {
        let asu = r.data.0 >> 48;
        let lba = r.data.0 & ((1u64 << 48) - 1);
        let us = r.at.as_micros();
        let op = match r.op {
            OpKind::Read => {
                stats.reads += 1;
                let first = *first_read.get_or_insert(us);
                stats.span_s = (us - first) as f64 / 1e6;
                'r'
            }
            OpKind::Write => 'w',
        };
        line.clear();
        use std::fmt::Write as _;
        let _ = writeln!(
            line,
            "{asu},{lba},{},{op},{}.{:06}",
            r.size,
            us / 1_000_000,
            us % 1_000_000
        );
        out.write_all(line.as_bytes())?;
        stats.lines += 1;
        stats.bytes += line.len() as u64;
    }
    out.flush()?;
    Ok(stats)
}

/// Reads the whole file once, so timed runs start from a warm page cache.
/// Returns the bytes read.
pub fn warm_page_cache(path: &Path) -> io::Result<u64> {
    let mut file = File::open(path)?;
    let mut buf = vec![0u8; 1 << 20];
    let mut total = 0u64;
    loop {
        match file.read(&mut buf)? {
            0 => return Ok(total),
            n => total += n as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use spindown_trace::spc::SpcStream;
    use spindown_trace::ParsePolicy;

    fn bytes_of(w: Workload, seed: u64) -> (Vec<u8>, FileStats) {
        let mut buf = Vec::new();
        let stats = render(w.records_scaled(seed, 200), &mut buf).unwrap();
        (buf, stats)
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in Workload::ALL {
            let (a, sa) = bytes_of(w, 7);
            let (b, sb) = bytes_of(w, 7);
            let (c, _) = bytes_of(w, 8);
            assert_eq!(a, b, "{}", w.name());
            assert_eq!(sa, sb);
            assert_ne!(a, c, "{}", w.name());
            assert_eq!(sa.bytes, a.len() as u64);
        }
    }

    #[test]
    fn parser_reads_back_the_generated_records() {
        for w in Workload::ALL {
            let (bytes, stats) = bytes_of(w, 3);
            let parsed: Vec<TraceRecord> = SpcStream::new(&bytes[..], ParsePolicy::Strict)
                .collect::<Result<_, _>>()
                .unwrap();
            let generated: Vec<TraceRecord> = w.records_scaled(3, 200).collect();
            assert_eq!(parsed, generated, "{}", w.name());
            assert_eq!(stats.lines, generated.len() as u64);
            let reads = generated.iter().filter(|r| r.op == OpKind::Read).count();
            assert_eq!(stats.reads, reads as u64);
        }
    }
}
