//! Pull-based record streaming: the constant-memory ingestion pipeline.
//!
//! A *record stream* is a fallible, time-ordered iterator of
//! [`TraceRecord`]s: `Iterator<Item = Result<TraceRecord, StreamError>>`.
//! Parsers ([`crate::spc::SpcStream`], [`crate::srt::SrtStream`]), lazy
//! transform adapters ([`MergeStream`], [`WindowStream`],
//! [`RescaleStream`]), the synthetic generators' streaming fronts and the
//! simulator's request source all speak this shape, so a multi-GB trace
//! file flows from disk to the event loop without ever materializing a
//! `Vec<TraceRecord>`.
//!
//! # Ordering invariant
//!
//! Unless documented otherwise, a record stream yields records in
//! nondecreasing `at` order. Adapters that *require* the invariant
//! ([`WindowStream`]'s early exit, one-pass
//! [`crate::stats::TraceStats::from_stream`], the simulator) either
//! document the assumption or enforce it — [`EnsureSorted`] turns an
//! out-of-order record into a typed [`StreamError::OutOfOrder`]. Raw
//! parser streams yield records in *file* order; SPC exports are sorted
//! by construction, SRT exports usually are, and the batch parsers
//! re-sort as part of materializing a [`Trace`].
//!
//! # Oracle relationship
//!
//! [`Trace`] (the in-memory backend) remains the documented test oracle:
//! `trace.stream()` yields exactly the materialized records, and every
//! lazy adapter here is pinned by differential tests to the corresponding
//! batch transform in [`crate::transform`].

use std::collections::BinaryHeap;

use spindown_sim::time::{SimDuration, SimTime};

use crate::record::{Trace, TraceRecord};

/// A failure while pulling records from a stream.
///
/// `std::io::Error` is neither `Clone` nor `PartialEq`, so I/O failures
/// carry the rendered message instead of the error value.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// The underlying reader failed.
    Io(String),
    /// A line failed to parse (1-based line number).
    Malformed {
        /// 1-based line number of the offending record.
        line: usize,
        /// Human-readable description of the failure.
        message: String,
    },
    /// A record violated the nondecreasing-time ordering invariant
    /// (0-based record index within the stream).
    OutOfOrder {
        /// 0-based index of the offending record.
        index: usize,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io(msg) => write!(f, "read error: {msg}"),
            StreamError::Malformed { line, message } => {
                write!(f, "line {line}: {message}")
            }
            StreamError::OutOfOrder { index } => {
                write!(
                    f,
                    "record {index} is out of time order (stream must be time-sorted)"
                )
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// How a parser stream reacts to malformed lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParsePolicy {
    /// The first malformed line aborts the stream with an error.
    #[default]
    Strict,
    /// Malformed lines are skipped and counted; only I/O failures abort.
    Lenient,
}

/// A fallible, time-ordered iterator of [`TraceRecord`]s.
///
/// Blanket-implemented for every iterator with the right item type; use
/// it as a bound (`impl RecordStream`) rather than implementing it.
pub trait RecordStream: Iterator<Item = Result<TraceRecord, StreamError>> {}

impl<T: Iterator<Item = Result<TraceRecord, StreamError>>> RecordStream for T {}

/// Streams a materialized [`Trace`] — the trivial in-memory backend.
#[derive(Debug, Clone)]
pub struct TraceStream<'a> {
    iter: std::slice::Iter<'a, TraceRecord>,
}

impl<'a> TraceStream<'a> {
    pub(crate) fn new(trace: &'a Trace) -> Self {
        TraceStream {
            iter: trace.records().iter(),
        }
    }
}

impl Iterator for TraceStream<'_> {
    type Item = Result<TraceRecord, StreamError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.iter.next().map(|r| Ok(*r))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.iter.size_hint()
    }
}

/// Drains a stream into a materialized [`Trace`] (records are re-sorted
/// by time, like any [`Trace::from_records`] construction).
pub fn collect_trace<E>(stream: impl Iterator<Item = Result<TraceRecord, E>>) -> Result<Trace, E> {
    let records: Result<Vec<_>, E> = stream.collect();
    Ok(Trace::from_records(records?))
}

/// Access to the lenient-parse skip accounting from anywhere in an
/// adapter chain.
///
/// The incremental parsers ([`crate::spc::SpcStream`],
/// [`crate::srt::SrtStream`]) count the malformed lines they skip under
/// [`ParsePolicy::Lenient`]; every adapter in this module propagates that
/// count — wrappers delegate to their inner stream, [`MergeStream`] sums
/// across its inputs — so a CLI report can read the total off the top of
/// the chain instead of losing it at the first wrapper.
pub trait SkipCount {
    /// Malformed lines skipped so far by the underlying parser(s).
    fn skipped_lines(&self) -> usize;
}

impl<S: SkipCount + ?Sized> SkipCount for &mut S {
    fn skipped_lines(&self) -> usize {
        (**self).skipped_lines()
    }
}

/// Adapts a stream with a format-specific error type (e.g.
/// [`crate::spc::SpcParseError`]) into a [`RecordStream`].
///
/// Unlike a closure `map`, the wrapped stream stays reachable through
/// [`inner`](ErasedStream::inner) (and [`SkipCount`] delegates to it), so
/// erasing a lenient parser's error type no longer discards its
/// skipped-line counter.
#[derive(Debug, Clone)]
pub struct ErasedStream<S> {
    inner: S,
}

impl<S> ErasedStream<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        ErasedStream { inner }
    }

    /// The wrapped stream (e.g. to read a parser's skip counter back).
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S, E> Iterator for ErasedStream<S>
where
    S: Iterator<Item = Result<TraceRecord, E>>,
    E: Into<StreamError>,
{
    type Item = Result<TraceRecord, StreamError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next().map(|r| r.map_err(Into::into))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<S: SkipCount> SkipCount for ErasedStream<S> {
    fn skipped_lines(&self) -> usize {
        self.inner.skipped_lines()
    }
}

/// Lifts an infallible record iterator (e.g. a synthetic generator
/// stream) into a [`RecordStream`].
pub fn infallible(stream: impl Iterator<Item = TraceRecord>) -> impl RecordStream {
    stream.map(Ok)
}

/// Enforces the nondecreasing-time invariant: the first out-of-order
/// record turns into [`StreamError::OutOfOrder`] and the stream fuses.
#[derive(Debug, Clone)]
pub struct EnsureSorted<S> {
    inner: S,
    prev: Option<SimTime>,
    index: usize,
    done: bool,
}

impl<S> EnsureSorted<S> {
    /// Wraps `inner` with an ordering check.
    pub fn new(inner: S) -> Self {
        EnsureSorted {
            inner,
            prev: None,
            index: 0,
            done: false,
        }
    }

    /// The wrapped stream (e.g. to read a parser's skip counter back).
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: SkipCount> SkipCount for EnsureSorted<S> {
    fn skipped_lines(&self) -> usize {
        self.inner.skipped_lines()
    }
}

impl<S: RecordStream> Iterator for EnsureSorted<S> {
    type Item = Result<TraceRecord, StreamError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.inner.next() {
            None => {
                self.done = true;
                None
            }
            Some(Err(e)) => {
                self.done = true;
                Some(Err(e))
            }
            Some(Ok(r)) => {
                if self.prev.map(|p| r.at < p).unwrap_or(false) {
                    self.done = true;
                    return Some(Err(StreamError::OutOfOrder { index: self.index }));
                }
                self.prev = Some(r.at);
                self.index += 1;
                Some(Ok(r))
            }
        }
    }
}

/// Lazy k-way merge of time-sorted streams, keyed by `(time, stream
/// index)` with FIFO order within a stream — the order a stable sort of
/// the concatenated inputs would produce, which is what the batch
/// [`crate::transform::merge`] oracle does.
///
/// The first error from any input aborts the merge (strict semantics).
#[derive(Debug)]
pub struct MergeStream<S> {
    streams: Vec<S>,
    heads: Vec<Option<TraceRecord>>,
    heap: BinaryHeap<std::cmp::Reverse<(SimTime, usize)>>,
    pending_err: Option<StreamError>,
    primed: bool,
    done: bool,
}

impl<S: RecordStream> MergeStream<S> {
    /// Merges `streams`, each of which must be time-sorted.
    pub fn new(streams: Vec<S>) -> Self {
        let n = streams.len();
        MergeStream {
            streams,
            heads: vec![None; n],
            heap: BinaryHeap::with_capacity(n),
            pending_err: None,
            primed: false,
            done: false,
        }
    }

    /// The merged input streams (e.g. to read parser skip counters back).
    pub fn streams(&self) -> &[S] {
        &self.streams
    }

    /// Pulls the next record of stream `i` into its head slot.
    fn pull(&mut self, i: usize) -> Result<(), StreamError> {
        match self.streams[i].next() {
            Some(Ok(r)) => {
                self.heap.push(std::cmp::Reverse((r.at, i)));
                self.heads[i] = Some(r);
                Ok(())
            }
            Some(Err(e)) => Err(e),
            None => Ok(()),
        }
    }
}

impl<S: SkipCount> SkipCount for MergeStream<S> {
    fn skipped_lines(&self) -> usize {
        // Summed, not dropped: each input parser counts its own lines.
        self.streams.iter().map(SkipCount::skipped_lines).sum()
    }
}

impl<S: RecordStream> Iterator for MergeStream<S> {
    type Item = Result<TraceRecord, StreamError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        if let Some(e) = self.pending_err.take() {
            self.done = true;
            return Some(Err(e));
        }
        if !self.primed {
            self.primed = true;
            for i in 0..self.streams.len() {
                if let Err(e) = self.pull(i) {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
        let Some(std::cmp::Reverse((_, i))) = self.heap.pop() else {
            self.done = true;
            return None;
        };
        let rec = self.heads[i].take().expect("head tracked by heap entry");
        // Refill the slot now but hold any error until after this record
        // — already-merged records are not dropped on a later failure.
        if let Err(e) = self.pull(i) {
            self.pending_err = Some(e);
        }
        Some(Ok(rec))
    }
}

/// Lazy `[from, to)` time window over a sorted stream, rebased so `from`
/// becomes time zero. Short-circuits (stops pulling) at the first record
/// at or past `to` — on a time-sorted stream nothing later can qualify.
#[derive(Debug, Clone)]
pub struct WindowStream<S> {
    inner: S,
    from: SimTime,
    to: SimTime,
    done: bool,
}

impl<S> WindowStream<S> {
    /// Restricts `inner` to `[from, to)`.
    pub fn new(inner: S, from: SimTime, to: SimTime) -> Self {
        WindowStream {
            inner,
            from,
            to,
            done: false,
        }
    }

    /// The wrapped stream (e.g. to read a parser's skip counter back).
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: SkipCount> SkipCount for WindowStream<S> {
    fn skipped_lines(&self) -> usize {
        self.inner.skipped_lines()
    }
}

impl<S: RecordStream> Iterator for WindowStream<S> {
    type Item = Result<TraceRecord, StreamError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            match self.inner.next() {
                None => {
                    self.done = true;
                    return None;
                }
                Some(Err(e)) => {
                    self.done = true;
                    return Some(Err(e));
                }
                Some(Ok(r)) => {
                    if r.at < self.from {
                        continue;
                    }
                    if r.at >= self.to {
                        self.done = true;
                        return None;
                    }
                    return Some(Ok(TraceRecord {
                        at: SimTime::ZERO + r.at.saturating_since(self.from),
                        ..r
                    }));
                }
            }
        }
    }
}

/// Lazily stretches or compresses inter-arrival times by `factor`,
/// anchored at the first record's time (matching the batch
/// [`crate::transform::rescale_time`] oracle, whose anchor is
/// `trace.start()` — the first record of a sorted trace).
#[derive(Debug, Clone)]
pub struct RescaleStream<S> {
    inner: S,
    factor: f64,
    anchor: Option<SimTime>,
}

impl<S> RescaleStream<S> {
    /// Rescales `inner` by `factor`.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is finite and positive.
    pub fn new(inner: S, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "rescale factor must be positive"
        );
        RescaleStream {
            inner,
            factor,
            anchor: None,
        }
    }

    /// The wrapped stream (e.g. to read a parser's skip counter back).
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: SkipCount> SkipCount for RescaleStream<S> {
    fn skipped_lines(&self) -> usize {
        self.inner.skipped_lines()
    }
}

impl<S: RecordStream> Iterator for RescaleStream<S> {
    type Item = Result<TraceRecord, StreamError>;

    fn next(&mut self) -> Option<Self::Item> {
        let r = match self.inner.next()? {
            Ok(r) => r,
            Err(e) => return Some(Err(e)),
        };
        let anchor = *self.anchor.get_or_insert(r.at);
        let scaled = r.at.saturating_since(anchor).as_secs_f64() * self.factor;
        Some(Ok(TraceRecord {
            at: anchor + SimDuration::from_secs_f64(scaled),
            ..r
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{DataId, OpKind};

    fn rec(at_s: f64, id: u64) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_secs_f64(at_s),
            data: DataId(id),
            size: 4096,
            op: OpKind::Read,
        }
    }

    #[test]
    fn trace_stream_yields_materialized_records() {
        let t = Trace::from_records(vec![rec(1.0, 0), rec(0.5, 1)]);
        let streamed: Vec<_> = t.stream().map(|r| r.unwrap()).collect();
        assert_eq!(streamed, t.records());
    }

    #[test]
    fn collect_trace_round_trips() {
        let t = Trace::from_records(vec![rec(0.5, 1), rec(1.0, 0)]);
        let back = collect_trace(t.stream()).unwrap();
        assert_eq!(back.records(), t.records());
    }

    #[test]
    fn merge_interleaves_by_time_with_stream_order_ties() {
        let a = Trace::from_records(vec![rec(0.0, 0), rec(2.0, 0)]);
        let b = Trace::from_records(vec![rec(1.0, 1), rec(2.0, 1)]);
        let merged: Vec<_> = MergeStream::new(vec![a.stream(), b.stream()])
            .map(|r| r.unwrap())
            .collect();
        let times: Vec<f64> = merged.iter().map(|r| r.at.as_secs_f64()).collect();
        assert_eq!(times, vec![0.0, 1.0, 2.0, 2.0]);
        // Tie at t=2: the earlier stream wins, like a stable sort of a ++ b.
        assert_eq!(merged[2].data, DataId(0));
        assert_eq!(merged[3].data, DataId(1));
    }

    #[test]
    fn window_short_circuits_and_rebases() {
        // An infinite stream proves the early exit: only records < `to`
        // are pulled.
        let endless = (0..).map(|i| Ok(rec(i as f64, i)));
        let windowed: Vec<_> =
            WindowStream::new(endless, SimTime::from_secs(2), SimTime::from_secs(5))
                .map(|r| r.unwrap())
                .collect();
        assert_eq!(windowed.len(), 3);
        assert_eq!(windowed[0].at, SimTime::ZERO);
        assert_eq!(windowed[2].at, SimTime::from_secs(2));
    }

    #[test]
    fn rescale_anchors_at_first_record() {
        let t = Trace::from_records(vec![rec(10.0, 0), rec(12.0, 1)]);
        let scaled: Vec<_> = RescaleStream::new(t.stream(), 2.0)
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(scaled[0].at, SimTime::from_secs_f64(10.0));
        assert_eq!(scaled[1].at, SimTime::from_secs_f64(14.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rescale_rejects_bad_factor() {
        let t = Trace::default();
        let _ = RescaleStream::new(t.stream(), 0.0);
    }

    #[test]
    fn ensure_sorted_flags_out_of_order() {
        let raw = vec![Ok(rec(1.0, 0)), Ok(rec(0.5, 1))];
        let mut s = EnsureSorted::new(raw.into_iter());
        assert!(s.next().unwrap().is_ok());
        assert_eq!(
            s.next().unwrap().unwrap_err(),
            StreamError::OutOfOrder { index: 1 }
        );
        assert!(s.next().is_none(), "stream fuses after the error");
    }

    #[test]
    fn merge_aborts_on_first_error() {
        let bad = vec![
            Ok(rec(0.0, 0)),
            Err(StreamError::Malformed {
                line: 2,
                message: "boom".into(),
            }),
        ];
        let good = vec![Ok(rec(5.0, 1))];
        let mut m = MergeStream::new(vec![bad.into_iter(), good.into_iter()]);
        let first = m.next().unwrap().unwrap();
        assert_eq!(first.data, DataId(0));
        assert!(m.next().unwrap().is_err());
        assert!(m.next().is_none());
    }

    #[test]
    fn infallible_and_erase_compose() {
        let recs = vec![rec(0.0, 0), rec(1.0, 1)];
        let n = infallible(recs.into_iter()).count();
        assert_eq!(n, 2);
    }

    #[test]
    fn skip_count_survives_window_rescale_chain() {
        use crate::spc::SpcStream;
        // Two malformed lines among three good records; the full adapter
        // stack (ErasedStream → sort check → rescale → window) must still expose
        // the parser's count.
        let text = "0,1,4096,r,0.5\ngarbage\n0,2,4096,r,1.5\n1,2,three\n0,3,4096,r,2.5\n";
        let parser = ErasedStream::new(SpcStream::new(text.as_bytes(), ParsePolicy::Lenient));
        let mut chain = WindowStream::new(
            RescaleStream::new(EnsureSorted::new(parser), 2.0),
            SimTime::ZERO,
            SimTime::from_secs(100),
        );
        let mut yielded = 0;
        for r in chain.by_ref() {
            r.unwrap();
            yielded += 1;
        }
        assert_eq!(yielded, 3);
        assert_eq!(chain.skipped_lines(), 2);
        assert_eq!(chain.inner().inner().inner().inner().skipped(), 2);
    }

    #[test]
    fn merge_sums_skip_counts_across_inputs() {
        use crate::spc::SpcStream;
        let a = "0,1,4096,r,0.5\nbad line\n0,2,4096,r,2.0\n"; // 1 skipped
        let b = "junk\nmore junk\n0,3,4096,r,1.0\n"; // 2 skipped
        let mut m = MergeStream::new(vec![
            ErasedStream::new(SpcStream::new(a.as_bytes(), ParsePolicy::Lenient)),
            ErasedStream::new(SpcStream::new(b.as_bytes(), ParsePolicy::Lenient)),
        ]);
        let times: Vec<f64> = m.by_ref().map(|r| r.unwrap().at.as_secs_f64()).collect();
        assert_eq!(times, vec![0.5, 1.0, 2.0]);
        assert_eq!(m.skipped_lines(), 3, "summed across inputs, not dropped");
        assert_eq!(m.streams()[0].skipped_lines(), 1);
        assert_eq!(m.streams()[1].skipped_lines(), 2);
    }

    #[test]
    fn window_early_exit_still_reports_skips_seen_so_far() {
        use crate::spc::SpcStream;
        // The window stops pulling at t >= 2: the trailing malformed line
        // is never reached, so only the one skip actually encountered is
        // reported — the count reflects lines the parser consumed.
        let text = "bad\n0,1,4096,r,0.5\n0,2,4096,r,5.0\nnever reached\n";
        let parser = ErasedStream::new(SpcStream::new(text.as_bytes(), ParsePolicy::Lenient));
        let mut w = WindowStream::new(parser, SimTime::ZERO, SimTime::from_secs(2));
        let mut yielded = 0;
        for r in w.by_ref() {
            r.unwrap();
            yielded += 1;
        }
        assert_eq!(yielded, 1);
        assert_eq!(w.skipped_lines(), 1);
    }
}
