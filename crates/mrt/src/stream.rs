//! Chunked, incremental MRT archive reading.
//!
//! [`read_events`](crate::read_events) used to slurp the whole archive into
//! memory before decoding — a non-starter for the multi-GB dumps a
//! RouteViews-style archive produces. [`RecordReader`] is the replacement:
//! a fixed-size refill buffer is filled from the underlying reader chunk by
//! chunk, records are decoded from borrowed slices of that buffer, and a
//! record that straddles a chunk boundary is resumed after a refill. Memory
//! use is bounded by the larger of the configured chunk size and the
//! largest single record — never by the archive size.
//!
//! Two modes:
//!
//! * **strict** ([`RecordReader::new`]) — any unknown record type or
//!   subtype, malformed body, or trailing body bytes aborts the read with
//!   the precise error. This is what [`crate::read_events`] and
//!   [`crate::read_rib`] use: corrupt archives fail loudly.
//! * **lossy** ([`RecordReader::lossy`]) — unknown record types and
//!   undecodable bodies are *skipped* using the header's `body_len` (the
//!   container's length-prefix makes resynchronization free), and trailing
//!   body bytes are tolerated; every such record is counted, never silent.
//!   A *corrupted* length-prefix header — `body_len` past
//!   [`MAX_RECORD_BODY`], or an absurd timestamp (`micros ≥ 1 000 000`,
//!   which no encoder produces) — loses the framing itself, so the reader
//!   scans forward to the next plausible record header (a resync) and
//!   counts the garbage under `records_skipped`. Only a truncated tail —
//!   where no next record can exist — still errors.
//!
//! For supervised multi-source ingestion the reader also exposes its raw
//! record *position* ([`RecordReader::records_consumed`]) and a
//! [`RecordReader::fast_forward`] that replays a rebuilt reader to a known
//! position without decoding — the retry path after a transient I/O fault.

use std::io::Read;
use std::ops::Range;

use bgpscope_bgp::{Event, Route, Timestamp};

use crate::binary::{
    decode_event_body, decode_rib_body, read_header, MrtError, PathTable, RECORD_TYPE_EVENT,
    RECORD_TYPE_RIB_ENTRY,
};

/// Bytes in the fixed per-record header.
const HEADER_LEN: usize = 16;

/// Default refill-chunk size: large enough to amortize syscalls, small
/// enough that thousands of concurrent readers stay cheap.
pub const DEFAULT_BUFFER_CAPACITY: usize = 256 * 1024;

/// Upper bound on a single record body. A valid encoder cannot exceed it
/// (the u16 hop/community counts cap an event body well under 1 MiB), so
/// only a corrupt or hostile header trips this — and it must, because the
/// reader would otherwise allocate whatever `body_len` claims.
pub const MAX_RECORD_BODY: usize = 16 * 1024 * 1024;

/// A raw record pulled off the wire: `(time, type, subtype, body range in
/// the refill buffer)`.
type RawRecord = (Timestamp, u16, u16, Range<usize>);

/// What one raw pull produced.
enum RawNext {
    /// A well-framed record (its body may still be undecodable).
    Record(RawRecord),
    /// A corrupted header was scanned past (resync); one position consumed.
    Garbage,
    /// Clean end of input.
    End,
}

/// A header is *sane* when its self-describing fields could have come from
/// our encoder: the micros field is a real sub-second count and the body
/// length is within [`MAX_RECORD_BODY`]. An insane header means the
/// length-prefix framing itself is corrupt — `body_len` cannot be trusted
/// to find the next record.
fn header_sane(h: &[u8]) -> bool {
    let micros = u32::from_be_bytes([h[4], h[5], h[6], h[7]]);
    let body_len = u32::from_be_bytes([h[12], h[13], h[14], h[15]]) as usize;
    micros < 1_000_000 && body_len <= MAX_RECORD_BODY
}

/// A resync target additionally requires a record type we actually emit —
/// scanning for arbitrary "sane" headers inside garbage would lock onto
/// noise far too easily, the two magic type bytes make that vanishingly
/// unlikely.
fn header_plausible(h: &[u8]) -> bool {
    let rtype = u16::from_be_bytes([h[8], h[9]]);
    (rtype == RECORD_TYPE_EVENT || rtype == RECORD_TYPE_RIB_ENTRY) && header_sane(h)
}

/// A streaming reader over an MRT-style archive.
///
/// Decodes events (or RIB entries) one at a time from an [`io::Read`]
/// source in constant memory. See the [module docs](self) for the
/// strict/lossy semantics.
///
/// [`io::Read`]: std::io::Read
///
/// # Example
///
/// ```
/// use bgpscope_bgp::{Event, EventStream, PathAttributes, PeerId, RouterId, Timestamp};
/// use bgpscope_mrt::{stream::RecordReader, write_events};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut stream = EventStream::new();
/// stream.push(Event::announce(
///     Timestamp::from_secs(1),
///     PeerId::from_octets(1, 1, 1, 1),
///     "10.0.0.0/8".parse()?,
///     PathAttributes::new(RouterId::from_octets(2, 2, 2, 2), "701 1299".parse()?),
/// ));
/// let mut archive = Vec::new();
/// write_events(&mut archive, &stream)?;
///
/// let mut reader = RecordReader::with_capacity(archive.as_slice(), 64);
/// let mut decoded = EventStream::new();
/// while let Some(event) = reader.next_event()? {
///     decoded.push(event);
/// }
/// assert_eq!(decoded, stream);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct RecordReader<R> {
    reader: R,
    /// The refill buffer; `buf[start..end]` holds unconsumed bytes.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    eof: bool,
    strict: bool,
    records_decoded: u64,
    records_skipped: u64,
    trailing_tolerated: u64,
    records_consumed: u64,
    /// The AS paths decoded recently, each stored once (a fixed-size
    /// cache; see [`PathTable`]).
    paths: PathTable,
}

impl<R: Read> RecordReader<R> {
    /// A strict reader with the default chunk size.
    pub fn new(reader: R) -> Self {
        Self::with_capacity(reader, DEFAULT_BUFFER_CAPACITY)
    }

    /// A strict reader refilling `capacity` bytes at a time (clamped to at
    /// least one record header). The buffer grows past `capacity` only for
    /// a single record larger than it, up to [`MAX_RECORD_BODY`].
    pub fn with_capacity(reader: R, capacity: usize) -> Self {
        RecordReader {
            reader,
            buf: vec![0; capacity.max(HEADER_LEN)],
            start: 0,
            end: 0,
            eof: false,
            strict: true,
            records_decoded: 0,
            records_skipped: 0,
            trailing_tolerated: 0,
            records_consumed: 0,
            paths: PathTable::default(),
        }
    }

    /// A lossy reader with the default chunk size.
    pub fn lossy(reader: R) -> Self {
        Self::lossy_with_capacity(reader, DEFAULT_BUFFER_CAPACITY)
    }

    /// A lossy reader refilling `capacity` bytes at a time.
    pub fn lossy_with_capacity(reader: R, capacity: usize) -> Self {
        RecordReader {
            strict: false,
            ..Self::with_capacity(reader, capacity)
        }
    }

    /// Whether this reader aborts on malformed records (strict) or skips
    /// them (lossy).
    pub fn is_strict(&self) -> bool {
        self.strict
    }

    /// Records successfully decoded so far.
    pub fn records_decoded(&self) -> u64 {
        self.records_decoded
    }

    /// Records skipped by the lossy mode (unknown type/subtype, or a body
    /// that failed to decode). Always 0 in strict mode.
    pub fn records_skipped(&self) -> u64 {
        self.records_skipped
    }

    /// Records whose body held trailing bytes the lossy mode tolerated.
    /// Always 0 in strict mode (strict aborts instead).
    pub fn trailing_tolerated(&self) -> u64 {
        self.trailing_tolerated
    }

    /// Raw record positions consumed so far: decoded records, lossy skips,
    /// and resynced garbage all count one position each. This is the
    /// reader's logical cursor — a rebuilt reader handed the same bytes and
    /// [`RecordReader::fast_forward`]ed by this amount resumes exactly
    /// where this one stands.
    pub fn records_consumed(&self) -> u64 {
        self.records_consumed
    }

    /// Current buffer allocation in bytes — the reader's whole archive-
    /// proportional memory footprint, which tests assert stays constant
    /// regardless of archive size.
    pub fn buffer_size(&self) -> usize {
        self.buf.len()
    }

    /// Makes at least `n` contiguous unconsumed bytes available at the
    /// front of the buffer, compacting and refilling as needed. Returns the
    /// bytes actually available, which is below `n` only at end of input.
    fn ensure(&mut self, n: usize) -> Result<usize, MrtError> {
        if self.end - self.start >= n {
            return Ok(self.end - self.start);
        }
        if self.start > 0 {
            // Slide the unconsumed tail to the front so the refill has the
            // rest of the buffer to append into.
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() < n {
            // One record bigger than the chunk size: grow for it (bounded
            // by MAX_RECORD_BODY, enforced before this is called).
            self.buf.resize(n, 0);
        }
        while self.end < n && !self.eof {
            match self.reader.read(&mut self.buf[self.end..]) {
                Ok(0) => self.eof = true,
                Ok(read) => self.end += read,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(MrtError::Io(e)),
            }
        }
        Ok(self.end - self.start)
    }

    /// Pulls the next raw record: its header fields plus the buffer range
    /// holding its body. `End` at a clean end of input; `Truncated` when
    /// the input ends inside a record. A corrupted (insane) header errors
    /// when `resync_on_insane` is false; otherwise the reader scans forward
    /// to the next plausible header and reports `Garbage` for the one
    /// consumed position.
    fn next_record_with(&mut self, resync_on_insane: bool) -> Result<RawNext, MrtError> {
        let available = self.ensure(HEADER_LEN)?;
        if available == 0 {
            return Ok(RawNext::End);
        }
        if available < HEADER_LEN {
            return Err(MrtError::Truncated);
        }
        if !header_sane(&self.buf[self.start..self.start + HEADER_LEN]) {
            if !resync_on_insane {
                let body_len = u32::from_be_bytes(
                    self.buf[self.start + 12..self.start + HEADER_LEN]
                        .try_into()
                        .expect("4 header bytes"),
                ) as usize;
                return Err(MrtError::InvalidField(if body_len > MAX_RECORD_BODY {
                    "record body exceeds maximum size"
                } else {
                    "implausible record timestamp"
                }));
            }
            // The framing is gone: the advertised body length cannot be
            // trusted, so skip-by-prefix would jump anywhere. Scan forward
            // to the next plausible header instead.
            self.records_consumed += 1;
            self.resync()?;
            return Ok(RawNext::Garbage);
        }
        let mut header = &self.buf[self.start..self.start + HEADER_LEN];
        let (time, rtype, subtype, body_len) = read_header(&mut header)?;
        if self.ensure(HEADER_LEN + body_len)? < HEADER_LEN + body_len {
            return Err(MrtError::Truncated);
        }
        let body_start = self.start + HEADER_LEN;
        self.start = body_start + body_len;
        self.records_consumed += 1;
        Ok(RawNext::Record((
            time,
            rtype,
            subtype,
            body_start..body_start + body_len,
        )))
    }

    fn next_record(&mut self) -> Result<RawNext, MrtError> {
        self.next_record_with(!self.strict)
    }

    /// Scans forward one byte at a time to the next plausible record header
    /// after a corrupted one. When the input ends first, the remaining
    /// bytes are unrecoverable tail garbage and are consumed silently — a
    /// later pull reports a clean end of input.
    fn resync(&mut self) -> Result<(), MrtError> {
        self.start += 1;
        loop {
            if self.ensure(HEADER_LEN)? < HEADER_LEN {
                self.start = self.end;
                return Ok(());
            }
            if header_plausible(&self.buf[self.start..self.start + HEADER_LEN]) {
                return Ok(());
            }
            self.start += 1;
        }
    }

    /// Consumes up to `n` raw record positions without decoding bodies,
    /// resyncing past corrupted headers exactly as a lossy read would.
    /// Returns the number of positions actually consumed (below `n` only at
    /// end of input).
    ///
    /// This is the rebuild path of a supervised source: after a transient
    /// I/O fault the reader is reconstructed over a fresh byte stream and
    /// fast-forwarded to [`RecordReader::records_consumed`] of the last
    /// good position, so no already-delivered record is delivered twice.
    /// The decode/skip statistics counters are left untouched — the records
    /// replayed here were already accounted for on their first pass.
    pub fn fast_forward(&mut self, n: u64) -> Result<u64, MrtError> {
        let saved = (
            self.records_decoded,
            self.records_skipped,
            self.trailing_tolerated,
        );
        let mut advanced = 0;
        while advanced < n {
            match self.next_record_with(true)? {
                RawNext::Record(_) | RawNext::Garbage => advanced += 1,
                RawNext::End => break,
            }
        }
        (
            self.records_decoded,
            self.records_skipped,
            self.trailing_tolerated,
        ) = saved;
        Ok(advanced)
    }

    /// Decodes the next event record.
    ///
    /// Strict mode: any non-event record, unknown subtype, undecodable
    /// body, corrupted header, or trailing body bytes is an error. Lossy
    /// mode: all of those are skipped (counted in
    /// [`RecordReader::records_skipped`] /
    /// [`RecordReader::trailing_tolerated`]; a corrupted header resyncs by
    /// scanning, see the [module docs](self)) and the read continues at the
    /// next record.
    ///
    /// # Errors
    ///
    /// [`MrtError::Io`] on read failure; [`MrtError::Truncated`] when the
    /// input ends inside a record (both modes — past a truncated header
    /// there is no next record to resynchronize on); the malformed-record
    /// variants in strict mode only.
    pub fn next_event(&mut self) -> Result<Option<Event>, MrtError> {
        loop {
            let (time, rtype, subtype, body) = match self.next_record()? {
                RawNext::Record(raw) => raw,
                RawNext::Garbage => {
                    self.records_skipped += 1;
                    continue;
                }
                RawNext::End => return Ok(None),
            };
            if rtype != RECORD_TYPE_EVENT {
                if self.strict {
                    return Err(MrtError::UnknownType(rtype));
                }
                self.records_skipped += 1;
                continue;
            }
            let mut slice = &self.buf[body];
            match decode_event_body(time, subtype, &mut slice, &mut self.paths) {
                Ok(event) => {
                    if !slice.is_empty() {
                        if self.strict {
                            return Err(MrtError::InvalidField("trailing body bytes"));
                        }
                        self.trailing_tolerated += 1;
                    }
                    self.records_decoded += 1;
                    return Ok(Some(event));
                }
                Err(e) if self.strict => return Err(e),
                Err(_) => self.records_skipped += 1,
            }
        }
    }

    /// Decodes the next RIB snapshot entry — the table-dump sibling of
    /// [`RecordReader::next_event`], with identical strict/lossy semantics.
    pub fn next_route(&mut self) -> Result<Option<Route>, MrtError> {
        loop {
            let (time, rtype, _subtype, body) = match self.next_record()? {
                RawNext::Record(raw) => raw,
                RawNext::Garbage => {
                    self.records_skipped += 1;
                    continue;
                }
                RawNext::End => return Ok(None),
            };
            if rtype != RECORD_TYPE_RIB_ENTRY {
                if self.strict {
                    return Err(MrtError::UnknownType(rtype));
                }
                self.records_skipped += 1;
                continue;
            }
            let mut slice = &self.buf[body];
            match decode_rib_body(time, &mut slice, &mut self.paths) {
                Ok(route) => {
                    if !slice.is_empty() {
                        if self.strict {
                            return Err(MrtError::InvalidField("trailing body bytes"));
                        }
                        self.trailing_tolerated += 1;
                    }
                    self.records_decoded += 1;
                    return Ok(Some(route));
                }
                Err(e) if self.strict => return Err(e),
                Err(_) => self.records_skipped += 1,
            }
        }
    }

    /// Adapts the reader into an iterator of decoded events.
    pub fn events(self) -> Events<R> {
        Events(self)
    }
}

/// Iterator over a [`RecordReader`]'s events (see [`RecordReader::events`]).
/// After the first `Err` item, iteration ends.
#[derive(Debug)]
pub struct Events<R>(RecordReader<R>);

impl<R> Events<R> {
    /// The underlying reader (for its skip/decode counters).
    pub fn reader(&self) -> &RecordReader<R> {
        &self.0
    }
}

impl<R: Read> Iterator for Events<R> {
    type Item = Result<Event, MrtError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.0.next_event() {
            Ok(Some(event)) => Some(Ok(event)),
            Ok(None) => None,
            Err(e) => {
                // Poison the reader so the error is yielded exactly once.
                self.0.eof = true;
                self.0.start = 0;
                self.0.end = 0;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::{put_record, PATH_TABLE_SLOTS};
    use crate::{read_events, write_events, write_rib};
    use bgpscope_bgp::{AsPath, EventStream, PathAttributes, PeerId, Prefix, RouterId, Timestamp};

    /// A deterministic synthetic stream with varied shapes (announce and
    /// withdraw, optional attrs, growing paths).
    fn synthetic_stream(n: usize) -> EventStream {
        let mut stream = EventStream::new();
        for i in 0..n {
            let peer = PeerId::from_octets(1, 1, (i % 5) as u8, 1);
            let prefix = Prefix::from_octets(10, (i >> 8) as u8, (i & 0xFF) as u8, 0, 24);
            let mut attrs = PathAttributes::new(
                RouterId::from_octets(2, 2, 2, (i % 7) as u8),
                AsPath::from_u32s((0..(i % 9) as u32).map(|k| 700 + k)),
            );
            if i % 3 == 0 {
                attrs = attrs.with_med(i as u32).with_local_pref(100 + i as u32);
            }
            let time = Timestamp::from_micros(i as u64 * 1_000_003);
            stream.push(if i % 4 == 0 {
                Event::withdraw(time, peer, prefix, attrs)
            } else {
                Event::announce(time, peer, prefix, attrs)
            });
        }
        stream
    }

    /// An `io::Read` that trickles out at most `chunk` bytes per call, to
    /// exercise record resumption across refills.
    struct Trickle<'a> {
        data: &'a [u8],
        chunk: usize,
    }

    impl std::io::Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.chunk.min(out.len()).min(self.data.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    fn collect_events<R: Read>(mut reader: RecordReader<R>) -> (EventStream, RecordReader<R>) {
        let mut stream = EventStream::new();
        while let Some(event) = reader.next_event().unwrap() {
            stream.push(event);
        }
        (stream, reader)
    }

    #[test]
    fn constant_memory_on_archive_much_larger_than_buffer() {
        let stream = synthetic_stream(20_000);
        let mut archive = Vec::new();
        write_events(&mut archive, &stream).unwrap();

        let capacity = 192;
        assert!(
            archive.len() > 1_000 * capacity,
            "archive ({} bytes) must dwarf the refill buffer ({capacity} bytes)",
            archive.len()
        );
        let (decoded, reader) =
            collect_events(RecordReader::with_capacity(archive.as_slice(), capacity));
        assert_eq!(decoded, stream);
        // The whole archive streamed through a buffer that never grew: no
        // record exceeded the chunk size, so memory stayed at `capacity`.
        assert_eq!(reader.buffer_size(), capacity);
        assert_eq!(reader.records_decoded(), stream.len() as u64);
    }

    #[test]
    fn equal_decoded_paths_share_storage() {
        // `synthetic_stream` cycles through nine paths (lengths 0..9).
        let stream = synthetic_stream(40);
        let mut archive = Vec::new();
        write_events(&mut archive, &stream).unwrap();
        let (decoded, reader) = collect_events(RecordReader::with_capacity(archive.as_slice(), 64));
        assert_eq!(decoded, stream);
        let hops = |i: usize| decoded.events()[i].attrs.as_path.asns().as_ptr();
        assert!(std::ptr::eq(hops(1), hops(10)));
        assert!(std::ptr::eq(hops(8), hops(35)));
        assert!(!std::ptr::eq(hops(1), hops(2)));
        assert_eq!(reader.paths.len(), 9);
    }

    #[test]
    fn rib_entries_share_paths_with_each_other() {
        let routes: Vec<bgpscope_bgp::Route> = (0..6u8)
            .map(|i| bgpscope_bgp::Route {
                prefix: Prefix::from_octets(10, i, 0, 0, 16),
                peer: PeerId::from_octets(1, 1, 1, 1),
                attrs: PathAttributes::new(RouterId(9), AsPath::from_u32s([701, 1299])),
                time: Timestamp::ZERO,
            })
            .collect();
        let mut archive = Vec::new();
        write_rib(&mut archive, &routes).unwrap();
        let mut reader = RecordReader::new(archive.as_slice());
        let first = reader.next_route().unwrap().unwrap();
        while let Some(route) = reader.next_route().unwrap() {
            assert_eq!(route.attrs, first.attrs);
            assert!(std::ptr::eq(
                route.attrs.as_path.asns().as_ptr(),
                first.attrs.as_path.asns().as_ptr()
            ));
        }
        assert_eq!(reader.paths.len(), 1);
    }

    #[test]
    fn path_table_holds_at_most_its_slots_and_decodes_every_path() {
        // More distinct paths than the table has slots, then the first path
        // again: it was evicted along the way and must come back intact.
        let distinct = PATH_TABLE_SLOTS + 1_000;
        let peer = PeerId::from_octets(1, 1, 1, 1);
        let event = |i: usize| {
            let path = AsPath::from_u32s([i as u32, 7_018]);
            let prefix = Prefix::from_octets(10, (i >> 16) as u8, (i >> 8) as u8, i as u8, 32);
            Event::announce(
                Timestamp::from_secs(i as u64),
                peer,
                prefix,
                PathAttributes::new(RouterId(9), path),
            )
        };
        let mut stream = EventStream::new();
        for i in 0..distinct {
            stream.push(event(i));
        }
        stream.push(event(0));
        let mut archive = Vec::new();
        write_events(&mut archive, &stream).unwrap();
        let mut reader = RecordReader::new(archive.as_slice());
        for expected in &stream {
            assert_eq!(&reader.next_event().unwrap().unwrap(), expected);
        }
        assert!(reader.next_event().unwrap().is_none());
        let held = reader.paths.len();
        assert!(held <= PATH_TABLE_SLOTS, "{held} paths held");
        assert!(held > PATH_TABLE_SLOTS / 2, "only {held} slots filled");
    }

    #[test]
    fn resumes_records_across_refills() {
        let stream = synthetic_stream(300);
        let mut archive = Vec::new();
        write_events(&mut archive, &stream).unwrap();
        // Every combination of tiny refill buffer and dribbling reader:
        // records straddle chunk boundaries in every possible phase.
        for chunk in [1, 3, 7, 16, 64] {
            let trickle = Trickle {
                data: &archive,
                chunk,
            };
            let (decoded, _) = collect_events(RecordReader::with_capacity(trickle, 32));
            assert_eq!(decoded, stream, "chunk size {chunk}");
        }
    }

    #[test]
    fn single_record_larger_than_buffer_grows_then_decodes() {
        let mut stream = EventStream::new();
        let mut e = synthetic_stream(1).events()[0].clone();
        e.attrs.as_path = AsPath::from_u32s(0..1_000); // ~4 KB body
        stream.push(e);
        let mut archive = Vec::new();
        write_events(&mut archive, &stream).unwrap();
        let (decoded, reader) = collect_events(RecordReader::with_capacity(archive.as_slice(), 64));
        assert_eq!(decoded, stream);
        assert!(reader.buffer_size() >= archive.len());
    }

    #[test]
    fn lossy_skips_unknown_record_types_strict_aborts() {
        let stream = synthetic_stream(10);
        let mut archive = Vec::new();
        for (i, event) in stream.iter().enumerate() {
            if i % 2 == 0 {
                // An unknown record type with an arbitrary body.
                put_record(&mut archive, event.time, 0x7777, 3, &[0xDE; 11]).unwrap();
            }
            let mut one = EventStream::new();
            one.push(event.clone());
            write_events(&mut archive, &one).unwrap();
        }

        assert!(matches!(
            read_events(archive.as_slice()).unwrap_err(),
            MrtError::UnknownType(0x7777)
        ));
        let (decoded, reader) = collect_events(RecordReader::lossy(archive.as_slice()));
        assert_eq!(decoded, stream);
        assert_eq!(reader.records_skipped(), 5);
    }

    #[test]
    fn lossy_skips_rib_records_interleaved_with_events() {
        let stream = synthetic_stream(6);
        let route = bgpscope_bgp::Route {
            prefix: Prefix::from_octets(10, 0, 0, 0, 8),
            peer: PeerId::from_octets(1, 1, 1, 1),
            attrs: PathAttributes::new(RouterId(9), AsPath::from_u32s([701])),
            time: Timestamp::ZERO,
        };
        let mut archive = Vec::new();
        write_rib(&mut archive, [&route]).unwrap();
        write_events(&mut archive, &stream).unwrap();
        let (decoded, reader) = collect_events(RecordReader::lossy(archive.as_slice()));
        assert_eq!(decoded, stream);
        assert_eq!(reader.records_skipped(), 1);
    }

    #[test]
    fn lossy_tolerates_trailing_body_bytes_and_counts_them() {
        let stream = synthetic_stream(1);
        let mut archive = Vec::new();
        write_events(&mut archive, &stream).unwrap();
        let mut body = archive[16..].to_vec();
        body.push(0xEE);
        let subtype = match stream.events()[0].kind {
            bgpscope_bgp::EventKind::Announce => 1,
            bgpscope_bgp::EventKind::Withdraw => 2,
        };
        let mut padded = Vec::new();
        put_record(
            &mut padded,
            stream.events()[0].time,
            RECORD_TYPE_EVENT,
            subtype,
            &body,
        )
        .unwrap();

        let (decoded, reader) = collect_events(RecordReader::lossy(padded.as_slice()));
        assert_eq!(decoded, stream);
        assert_eq!(reader.trailing_tolerated(), 1);
    }

    #[test]
    fn lossy_skips_undecodable_event_bodies() {
        let good = synthetic_stream(2);
        let mut archive = Vec::new();
        // A malformed event body (too short to hold peer+prefix) between
        // two good records.
        let mut one = EventStream::new();
        one.push(good.events()[0].clone());
        write_events(&mut archive, &one).unwrap();
        put_record(
            &mut archive,
            Timestamp::ZERO,
            RECORD_TYPE_EVENT,
            1,
            &[1, 2, 3],
        )
        .unwrap();
        let mut two = EventStream::new();
        two.push(good.events()[1].clone());
        write_events(&mut archive, &two).unwrap();

        assert!(read_events(archive.as_slice()).is_err());
        let (decoded, reader) = collect_events(RecordReader::lossy(archive.as_slice()));
        assert_eq!(decoded, good);
        assert_eq!(reader.records_skipped(), 1);
    }

    #[test]
    fn truncated_tail_errors_even_in_lossy_mode() {
        let stream = synthetic_stream(3);
        let mut archive = Vec::new();
        write_events(&mut archive, &stream).unwrap();
        archive.truncate(archive.len() - 1);
        let mut reader = RecordReader::lossy(archive.as_slice());
        assert!(reader.next_event().unwrap().is_some());
        assert!(reader.next_event().unwrap().is_some());
        assert!(matches!(reader.next_event(), Err(MrtError::Truncated)));
    }

    #[test]
    fn empty_input_yields_none() {
        let mut reader = RecordReader::new(std::io::empty());
        assert!(reader.next_event().unwrap().is_none());
        assert!(reader.next_event().unwrap().is_none());
    }

    #[test]
    fn events_iterator_ends_after_error() {
        let stream = synthetic_stream(2);
        let mut archive = Vec::new();
        write_events(&mut archive, &stream).unwrap();
        archive.truncate(archive.len() - 3);
        let items: Vec<_> = RecordReader::new(archive.as_slice()).events().collect();
        assert_eq!(items.len(), 2);
        assert!(items[0].is_ok());
        assert!(matches!(items[1], Err(MrtError::Truncated)));
    }

    /// Writes each event as its own record, returning the byte offset of
    /// every record header (for surgical corruption).
    fn archive_with_offsets(stream: &EventStream) -> (Vec<u8>, Vec<usize>) {
        let mut archive = Vec::new();
        let mut offsets = Vec::new();
        for event in stream {
            offsets.push(archive.len());
            let mut one = EventStream::new();
            one.push(event.clone());
            write_events(&mut archive, &one).unwrap();
        }
        (archive, offsets)
    }

    fn all_but(stream: &EventStream, skip: usize) -> EventStream {
        let mut expect = EventStream::new();
        for (i, e) in stream.iter().enumerate() {
            if i != skip {
                expect.push(e.clone());
            }
        }
        expect
    }

    #[test]
    fn lossy_resyncs_past_corrupted_length_prefix_and_recovers_tail() {
        let stream = synthetic_stream(8);
        let (mut archive, offsets) = archive_with_offsets(&stream);
        // Destroy record 3's framing: body_len = u32::MAX. The advertised
        // length can no longer locate record 4.
        let h = offsets[3];
        archive[h + 12..h + 16].copy_from_slice(&u32::MAX.to_be_bytes());

        let mut strict = RecordReader::new(archive.as_slice());
        for _ in 0..3 {
            assert!(strict.next_event().unwrap().is_some());
        }
        assert!(matches!(
            strict.next_event(),
            Err(MrtError::InvalidField("record body exceeds maximum size"))
        ));

        // Lossy scans forward to record 4's header and recovers the whole
        // tail; the corrupted record is one counted skip.
        let (decoded, reader) = collect_events(RecordReader::lossy(archive.as_slice()));
        assert_eq!(decoded, all_but(&stream, 3));
        assert_eq!(reader.records_skipped(), 1);
        assert_eq!(reader.records_consumed(), 8);
    }

    #[test]
    fn lossy_resyncs_past_absurd_timestamp_header() {
        let stream = synthetic_stream(6);
        let (mut archive, offsets) = archive_with_offsets(&stream);
        // micros = u32::MAX: no encoder emits a sub-second count ≥ 1e6.
        let h = offsets[2];
        archive[h + 4..h + 8].copy_from_slice(&u32::MAX.to_be_bytes());

        let mut strict = RecordReader::new(archive.as_slice());
        for _ in 0..2 {
            assert!(strict.next_event().unwrap().is_some());
        }
        assert!(matches!(
            strict.next_event(),
            Err(MrtError::InvalidField("implausible record timestamp"))
        ));

        let (decoded, reader) = collect_events(RecordReader::lossy(archive.as_slice()));
        assert_eq!(decoded, all_but(&stream, 2));
        assert_eq!(reader.records_skipped(), 1);
    }

    #[test]
    fn lossy_counts_unrecoverable_tail_garbage_as_one_skip() {
        let stream = synthetic_stream(3);
        let (mut archive, offsets) = archive_with_offsets(&stream);
        // Corrupt the *last* record's header: the resync scan finds no
        // plausible header before end of input, so the tail is consumed as
        // one counted skip and the read ends cleanly.
        let h = offsets[2];
        archive[h + 4..h + 8].copy_from_slice(&u32::MAX.to_be_bytes());
        let mut reader = RecordReader::lossy(archive.as_slice());
        assert!(reader.next_event().unwrap().is_some());
        assert!(reader.next_event().unwrap().is_some());
        assert!(reader.next_event().unwrap().is_none());
        assert_eq!(reader.records_skipped(), 1);
        assert_eq!(reader.records_decoded(), 2);
    }

    #[test]
    fn fast_forward_resumes_at_exact_position_without_recounting() {
        let stream = synthetic_stream(50);
        let mut archive = Vec::new();
        write_events(&mut archive, &stream).unwrap();
        let mut first = RecordReader::new(archive.as_slice());
        let mut delivered = EventStream::new();
        for _ in 0..20 {
            delivered.push(first.next_event().unwrap().unwrap());
        }
        let pos = first.records_consumed();
        assert_eq!(pos, 20);
        // Rebuild over a fresh byte stream (the transient-fault retry
        // path), fast-forward past the delivered records, resume decoding.
        let mut rebuilt = RecordReader::with_capacity(archive.as_slice(), 64);
        assert_eq!(rebuilt.fast_forward(pos).unwrap(), pos);
        assert_eq!(rebuilt.records_consumed(), pos);
        assert_eq!(rebuilt.records_decoded(), 0, "ff must not recount stats");
        while let Some(e) = rebuilt.next_event().unwrap() {
            delivered.push(e);
        }
        assert_eq!(delivered, stream);
        // Fast-forwarding past the end stops at the end.
        let mut over = RecordReader::new(archive.as_slice());
        assert_eq!(over.fast_forward(1_000).unwrap(), 50);
    }

    #[test]
    fn fast_forward_replays_resynced_positions_identically() {
        let stream = synthetic_stream(8);
        let (mut archive, offsets) = archive_with_offsets(&stream);
        let h = offsets[3];
        archive[h + 12..h + 16].copy_from_slice(&u32::MAX.to_be_bytes());
        // First pass (lossy) consumes 3 events + 1 garbage + 2 events.
        let mut first = RecordReader::lossy(archive.as_slice());
        for _ in 0..5 {
            first.next_event().unwrap().unwrap();
        }
        let pos = first.records_consumed();
        assert_eq!(pos, 6);
        // A rebuilt reader fast-forwarded by the same count lands on the
        // same next record, resyncing the garbage the same way.
        let mut rebuilt = RecordReader::lossy(archive.as_slice());
        assert_eq!(rebuilt.fast_forward(pos).unwrap(), pos);
        assert_eq!(rebuilt.records_skipped(), 0, "ff must not recount skips");
        assert_eq!(
            rebuilt.next_event().unwrap().unwrap(),
            first.next_event().unwrap().unwrap()
        );
    }

    #[test]
    fn oversized_body_length_rejected_before_allocation() {
        let mut archive = vec![0u8; 16];
        // body_len = u32::MAX: a hostile header must not drive a 4 GB
        // allocation attempt.
        archive[12..16].copy_from_slice(&u32::MAX.to_be_bytes());
        let mut reader = RecordReader::new(archive.as_slice());
        assert!(matches!(
            reader.next_event(),
            Err(MrtError::InvalidField("record body exceeds maximum size"))
        ));
    }
}
