//! The binary MRT-shaped container.
//!
//! Every record is:
//!
//! ```text
//! u32 timestamp_secs | u32 timestamp_micros | u16 type | u16 subtype | u32 body_len
//! ```
//!
//! followed by `body_len` bytes of big-endian body. Type 0xB6E0 carries one
//! augmented event (subtype 1 = announce, 2 = withdraw); type 0xB6E1 carries
//! one RIB snapshot entry. The private type codes keep our records from being
//! mistaken for standard MRT while preserving the container shape.

use std::fmt;
use std::io::{Read, Write};

use bytes::{Buf, BufMut};

use bgpscope_bgp::probe::mix;
use bgpscope_bgp::{
    AsPath, Asn, Community, Event, EventKind, EventStream, LocalPref, Med, Origin, PathAttributes,
    PeerId, Prefix, Route, RouterId, Timestamp,
};

/// Record type code for augmented events.
pub const RECORD_TYPE_EVENT: u16 = 0xB6E0;
/// Record type code for RIB snapshot entries.
pub const RECORD_TYPE_RIB_ENTRY: u16 = 0xB6E1;

const SUBTYPE_ANNOUNCE: u16 = 1;
const SUBTYPE_WITHDRAW: u16 = 2;

/// Errors produced while encoding or decoding.
#[derive(Debug)]
pub enum MrtError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// The input ended inside a record.
    Truncated,
    /// A record carried an unknown type code.
    UnknownType(u16),
    /// A record carried an unknown subtype.
    UnknownSubtype(u16),
    /// A field held an invalid value (e.g. a prefix length over 32).
    InvalidField(&'static str),
}

impl fmt::Display for MrtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MrtError::Io(e) => write!(f, "i/o error: {e}"),
            MrtError::Truncated => write!(f, "input truncated inside a record"),
            MrtError::UnknownType(t) => write!(f, "unknown record type {t:#06x}"),
            MrtError::UnknownSubtype(s) => write!(f, "unknown record subtype {s}"),
            MrtError::InvalidField(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for MrtError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MrtError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for MrtError {
    fn from(e: std::io::Error) -> Self {
        MrtError::Io(e)
    }
}

fn put_attrs(buf: &mut Vec<u8>, attrs: &PathAttributes) -> Result<(), MrtError> {
    // Both counts travel as u16 on the wire; a silent `as u16` here would
    // round-trip to a *different* event (a 65 537-hop path re-reads as a
    // 1-hop path followed by garbage), so overflow must refuse to encode.
    let hop_count = attrs.as_path.hop_count();
    if hop_count > usize::from(u16::MAX) {
        return Err(MrtError::InvalidField("as-path hop count overflows u16"));
    }
    let community_count = attrs.communities.len();
    if community_count > usize::from(u16::MAX) {
        return Err(MrtError::InvalidField("community count overflows u16"));
    }
    buf.put_u32(attrs.next_hop.as_u32());
    buf.put_u8(match attrs.origin {
        Origin::Igp => 0,
        Origin::Egp => 1,
        Origin::Incomplete => 2,
    });
    match attrs.med {
        Some(med) => {
            buf.put_u8(1);
            buf.put_u32(med.0);
        }
        None => buf.put_u8(0),
    }
    match attrs.local_pref {
        Some(lp) => {
            buf.put_u8(1);
            buf.put_u32(lp.0);
        }
        None => buf.put_u8(0),
    }
    buf.put_u16(hop_count as u16);
    for asn in attrs.as_path.asns() {
        buf.put_u32(asn.as_u32());
    }
    buf.put_u16(community_count as u16);
    for c in &attrs.communities {
        buf.put_u32(c.0);
    }
    Ok(())
}

/// Slots in a [`PathTable`], and so the most AS paths it holds. A power of
/// two: 4,096 slots take 64 KiB, which with the paths they hold stays
/// within a core's L2 cache.
pub(crate) const PATH_TABLE_SLOTS: usize = 1 << PATH_TABLE_BITS;
const PATH_TABLE_BITS: u32 = 12;

/// The AS paths a reader decoded recently, each stored once, in a
/// direct-mapped cache: one slot per hash of the hops. An archive repeats a
/// few paths across many prefixes and updates, so the hops just read are
/// usually the path already in their slot, and the event gets a clone of
/// it — a reference-count bump, no allocation. Otherwise a new path is
/// built and replaces the slot's. A miss therefore costs a hash and a
/// comparison over a plain decode; the table never grows, probes or clears,
/// and its memory is constant in the archive size.
///
/// The hash is unkeyed although paths are peer-controlled input: with no
/// probe sequence to lengthen, paths crafted to collide only evict each
/// other, which is the plain decode. Being unkeyed also makes which paths
/// share storage the same on every run.
pub(crate) struct PathTable {
    slots: Box<[Option<AsPath>]>,
    /// The hops being decoded, read here before the slot is known.
    scratch: Vec<Asn>,
}

impl Default for PathTable {
    fn default() -> Self {
        PathTable {
            slots: vec![None; PATH_TABLE_SLOTS].into_boxed_slice(),
            scratch: Vec::new(),
        }
    }
}

impl fmt::Debug for PathTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PathTable")
            .field("held", &self.len())
            .finish()
    }
}

impl PathTable {
    /// Reads `hops` big-endian ASNs off `buf` (the caller checked they are
    /// there) and returns the path with those hops: the slot's own if it
    /// holds them, else a new path that takes over the slot.
    fn decode(&mut self, buf: &mut &[u8], hops: usize) -> AsPath {
        self.scratch.clear();
        self.scratch.extend((0..hops).map(|_| Asn(buf.get_u32())));
        let slot = &mut self.slots[slot_of(&self.scratch)];
        if let Some(path) = slot {
            if path.asns() == self.scratch.as_slice() {
                return path.clone();
            }
        }
        // Drop the evicted path first: the new one likely reuses its memory.
        *slot = None;
        let path = AsPath::from_asns(self.scratch.iter().copied());
        *slot = Some(path.clone());
        path
    }

    /// Paths held right now.
    pub(crate) fn len(&self) -> usize {
        self.slots.iter().filter(|slot| slot.is_some()).count()
    }
}

/// The slot for a path's hops: the workspace's unkeyed multiplicative mix
/// over the length and the ASNs, taking its high bits, which mix best.
fn slot_of(hops: &[Asn]) -> usize {
    let hash = hops
        .iter()
        .fold(hops.len() as u64, |hash, asn| mix(hash, u64::from(asn.0)));
    (hash >> (u64::BITS - PATH_TABLE_BITS)) as usize
}

fn get_attrs(buf: &mut &[u8], paths: &mut PathTable) -> Result<PathAttributes, MrtError> {
    if buf.remaining() < 7 {
        return Err(MrtError::Truncated);
    }
    let next_hop = RouterId(buf.get_u32());
    let origin = match buf.get_u8() {
        0 => Origin::Igp,
        1 => Origin::Egp,
        2 => Origin::Incomplete,
        _ => return Err(MrtError::InvalidField("origin")),
    };
    let med = match buf.get_u8() {
        0 => None,
        1 => {
            if buf.remaining() < 4 {
                return Err(MrtError::Truncated);
            }
            Some(Med(buf.get_u32()))
        }
        _ => return Err(MrtError::InvalidField("med flag")),
    };
    if buf.remaining() < 1 {
        return Err(MrtError::Truncated);
    }
    let local_pref = match buf.get_u8() {
        0 => None,
        1 => {
            if buf.remaining() < 4 {
                return Err(MrtError::Truncated);
            }
            Some(LocalPref(buf.get_u32()))
        }
        _ => return Err(MrtError::InvalidField("local_pref flag")),
    };
    if buf.remaining() < 2 {
        return Err(MrtError::Truncated);
    }
    let path_len = buf.get_u16() as usize;
    if buf.remaining() < path_len * 4 {
        return Err(MrtError::Truncated);
    }
    let as_path = paths.decode(buf, path_len);
    if buf.remaining() < 2 {
        return Err(MrtError::Truncated);
    }
    let comm_len = buf.get_u16() as usize;
    if buf.remaining() < comm_len * 4 {
        return Err(MrtError::Truncated);
    }
    let mut attrs = PathAttributes::new(next_hop, as_path);
    attrs.origin = origin;
    attrs.med = med;
    attrs.local_pref = local_pref;
    for _ in 0..comm_len {
        attrs.add_community(Community(buf.get_u32()));
    }
    Ok(attrs)
}

pub(crate) fn put_record(
    out: &mut Vec<u8>,
    time: Timestamp,
    rtype: u16,
    subtype: u16,
    body: &[u8],
) -> Result<(), MrtError> {
    // The header carries seconds and body length as u32; `as u32` would
    // silently wrap a far-future timestamp or a giant body into a corrupt
    // record that decodes to something else entirely.
    let secs = time.as_micros() / 1_000_000;
    if secs > u64::from(u32::MAX) {
        return Err(MrtError::InvalidField("timestamp seconds overflow u32"));
    }
    if body.len() > u32::MAX as usize {
        return Err(MrtError::InvalidField("record body length overflows u32"));
    }
    out.put_u32(secs as u32);
    out.put_u32((time.as_micros() % 1_000_000) as u32);
    out.put_u16(rtype);
    out.put_u16(subtype);
    out.put_u32(body.len() as u32);
    out.extend_from_slice(body);
    Ok(())
}

fn encode_event(event: &Event, out: &mut Vec<u8>) -> Result<(), MrtError> {
    let mut body = Vec::with_capacity(64);
    body.put_u32(event.peer.router_id().as_u32());
    body.put_u32(event.prefix.addr());
    body.put_u8(event.prefix.len());
    put_attrs(&mut body, &event.attrs)?;
    let subtype = match event.kind {
        EventKind::Announce => SUBTYPE_ANNOUNCE,
        EventKind::Withdraw => SUBTYPE_WITHDRAW,
    };
    put_record(out, event.time, RECORD_TYPE_EVENT, subtype, &body)
}

/// Writes an event stream in binary form.
///
/// A `&mut` reference to any writer can be passed.
///
/// # Errors
///
/// Returns [`MrtError::Io`] if the writer fails, and
/// [`MrtError::InvalidField`] on a value the container cannot carry (an
/// AS path or community list longer than 65 535 entries, or a timestamp
/// past `u32::MAX` seconds) — refusing to encode instead of silently
/// truncating into a corrupt record.
pub fn write_events<W: Write>(mut writer: W, stream: &EventStream) -> Result<(), MrtError> {
    let mut out = Vec::with_capacity(stream.len() * 72);
    for event in stream {
        encode_event(event, &mut out)?;
    }
    writer.write_all(&out)?;
    Ok(())
}

/// Reads an event stream written by [`write_events`].
///
/// Streams through a [`crate::stream::RecordReader`] in strict mode: memory
/// stays bounded by the largest single record, never the archive size, so
/// multi-GB dumps decode without being slurped whole.
///
/// # Errors
///
/// Returns [`MrtError::Io`] on read failure, [`MrtError::Truncated`] on a
/// short input, [`MrtError::InvalidField`] when a record body holds
/// trailing bytes its event did not account for, and the other variants on
/// malformed records.
pub fn read_events<R: Read>(reader: R) -> Result<EventStream, MrtError> {
    let mut records = crate::stream::RecordReader::new(reader);
    let mut stream = EventStream::new();
    while let Some(event) = records.next_event()? {
        stream.push(event);
    }
    Ok(stream)
}

/// Decodes one event-record body (everything after the record header).
pub(crate) fn decode_event_body(
    time: Timestamp,
    subtype: u16,
    body: &mut &[u8],
    paths: &mut PathTable,
) -> Result<Event, MrtError> {
    let kind = match subtype {
        SUBTYPE_ANNOUNCE => EventKind::Announce,
        SUBTYPE_WITHDRAW => EventKind::Withdraw,
        other => return Err(MrtError::UnknownSubtype(other)),
    };
    let (peer, prefix) = read_peer_prefix(body)?;
    let attrs = get_attrs(body, paths)?;
    Ok(Event {
        time,
        kind,
        peer,
        prefix,
        attrs,
    })
}

/// Decodes one RIB-entry-record body (everything after the record header).
pub(crate) fn decode_rib_body(
    time: Timestamp,
    body: &mut &[u8],
    paths: &mut PathTable,
) -> Result<Route, MrtError> {
    let (peer, prefix) = read_peer_prefix(body)?;
    let attrs = get_attrs(body, paths)?;
    Ok(Route {
        prefix,
        peer,
        attrs,
        time,
    })
}

pub(crate) fn read_header(buf: &mut &[u8]) -> Result<(Timestamp, u16, u16, usize), MrtError> {
    if buf.remaining() < 16 {
        return Err(MrtError::Truncated);
    }
    let secs = buf.get_u32() as u64;
    let micros = buf.get_u32() as u64;
    let rtype = buf.get_u16();
    let subtype = buf.get_u16();
    let body_len = buf.get_u32() as usize;
    Ok((
        Timestamp::from_micros(secs * 1_000_000 + micros),
        rtype,
        subtype,
        body_len,
    ))
}

fn read_peer_prefix(buf: &mut &[u8]) -> Result<(PeerId, Prefix), MrtError> {
    if buf.remaining() < 9 {
        return Err(MrtError::Truncated);
    }
    let peer = PeerId(RouterId(buf.get_u32()));
    let addr = buf.get_u32();
    let len = buf.get_u8();
    if len > 32 {
        return Err(MrtError::InvalidField("prefix length"));
    }
    Ok((peer, Prefix::new(addr, len)))
}

/// Writes a RIB snapshot (any iterator of routes) as table-dump records.
///
/// # Errors
///
/// Returns [`MrtError::Io`] if the writer fails.
pub fn write_rib<'a, W, I>(mut writer: W, routes: I) -> Result<(), MrtError>
where
    W: Write,
    I: IntoIterator<Item = &'a Route>,
{
    let mut out = Vec::new();
    for route in routes {
        let mut body = Vec::with_capacity(64);
        body.put_u32(route.peer.router_id().as_u32());
        body.put_u32(route.prefix.addr());
        body.put_u8(route.prefix.len());
        put_attrs(&mut body, &route.attrs)?;
        put_record(&mut out, route.time, RECORD_TYPE_RIB_ENTRY, 0, &body)?;
    }
    writer.write_all(&out)?;
    Ok(())
}

/// Reads a RIB snapshot written by [`write_rib`].
///
/// Streams through a [`crate::stream::RecordReader`] in strict mode, like
/// [`read_events`].
///
/// # Errors
///
/// Same failure modes as [`read_events`].
pub fn read_rib<R: Read>(reader: R) -> Result<Vec<Route>, MrtError> {
    let mut records = crate::stream::RecordReader::new(reader);
    let mut routes = Vec::new();
    while let Some(route) = records.next_route()? {
        routes.push(route);
    }
    Ok(routes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_sharing_a_slot_evict_each_other_and_decode_intact() {
        let one = [Asn(64_512), Asn(701)];
        let other = (0..)
            .map(|asn| [Asn(asn), Asn(701)])
            .find(|hops| hops != &one && slot_of(hops) == slot_of(&one))
            .unwrap();
        let mut encoded = Vec::new();
        for hops in [one, other, one] {
            encoded.extend(hops.iter().flat_map(|asn| asn.0.to_be_bytes()));
        }
        let mut table = PathTable::default();
        let mut buf = encoded.as_slice();
        let first = table.decode(&mut buf, 2);
        let second = table.decode(&mut buf, 2);
        let third = table.decode(&mut buf, 2);
        assert!(buf.is_empty());
        assert_eq!((first.asns(), second.asns()), (&one[..], &other[..]));
        assert_eq!(third, first);
        assert!(!std::ptr::eq(third.asns().as_ptr(), first.asns().as_ptr()));
        assert_eq!(table.len(), 1);
    }

    fn sample_event(kind: EventKind) -> Event {
        let mut attrs = PathAttributes::new(
            RouterId::from_octets(128, 32, 0, 66),
            "11423 209 701".parse().unwrap(),
        )
        .with_med(50)
        .with_local_pref(80);
        attrs.add_community("11423:65350".parse().unwrap());
        attrs.add_community("2152:65297".parse().unwrap());
        Event {
            time: Timestamp::from_micros(1_234_567_890),
            kind,
            peer: PeerId::from_octets(128, 32, 1, 3),
            prefix: "192.96.10.0/24".parse().unwrap(),
            attrs,
        }
    }

    #[test]
    fn roundtrip_events() {
        let mut stream = EventStream::new();
        stream.push(sample_event(EventKind::Announce));
        stream.push(sample_event(EventKind::Withdraw));
        let mut buf = Vec::new();
        write_events(&mut buf, &stream).unwrap();
        let decoded = read_events(buf.as_slice()).unwrap();
        assert_eq!(decoded, stream);
    }

    #[test]
    fn roundtrip_empty_stream() {
        let mut buf = Vec::new();
        write_events(&mut buf, &EventStream::new()).unwrap();
        assert!(buf.is_empty());
        assert_eq!(read_events(buf.as_slice()).unwrap(), EventStream::new());
    }

    #[test]
    fn truncated_input_rejected() {
        let mut stream = EventStream::new();
        stream.push(sample_event(EventKind::Announce));
        let mut buf = Vec::new();
        write_events(&mut buf, &stream).unwrap();
        for cut in [1, 8, 15, buf.len() - 1] {
            let err = read_events(&buf[..cut]).unwrap_err();
            assert!(matches!(err, MrtError::Truncated), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn unknown_type_rejected() {
        let mut buf = Vec::new();
        put_record(&mut buf, Timestamp::ZERO, 0x9999, 0, &[]).unwrap();
        assert!(matches!(
            read_events(buf.as_slice()).unwrap_err(),
            MrtError::UnknownType(0x9999)
        ));
    }

    #[test]
    fn unknown_subtype_rejected() {
        let mut buf = Vec::new();
        put_record(&mut buf, Timestamp::ZERO, RECORD_TYPE_EVENT, 9, &[0u8; 9]).unwrap();
        assert!(matches!(
            read_events(buf.as_slice()).unwrap_err(),
            MrtError::UnknownSubtype(9)
        ));
    }

    #[test]
    fn invalid_prefix_length_rejected() {
        let mut body = Vec::new();
        body.put_u32(1);
        body.put_u32(2);
        body.put_u8(99); // invalid mask length
        let mut buf = Vec::new();
        put_record(&mut buf, Timestamp::ZERO, RECORD_TYPE_EVENT, 1, &body).unwrap();
        assert!(matches!(
            read_events(buf.as_slice()).unwrap_err(),
            MrtError::InvalidField("prefix length")
        ));
    }

    #[test]
    fn oversized_as_path_refused_not_truncated() {
        let mut e = sample_event(EventKind::Announce);
        e.attrs.as_path = AsPath::from_u32s(1..=(u32::from(u16::MAX) + 1));
        let mut stream = EventStream::new();
        stream.push(e);
        let mut buf = Vec::new();
        assert!(matches!(
            write_events(&mut buf, &stream).unwrap_err(),
            MrtError::InvalidField("as-path hop count overflows u16")
        ));
        // Nothing was written: no corrupt record reaches the archive.
        assert!(buf.is_empty());
    }

    #[test]
    fn oversized_community_list_refused_not_truncated() {
        let mut e = sample_event(EventKind::Announce);
        for c in 0..=u32::from(u16::MAX) {
            e.attrs.add_community(Community(c));
        }
        let mut stream = EventStream::new();
        stream.push(e);
        assert!(matches!(
            write_events(&mut Vec::new(), &stream).unwrap_err(),
            MrtError::InvalidField("community count overflows u16")
        ));
    }

    #[test]
    fn far_future_timestamp_refused_not_wrapped() {
        // u32::MAX seconds is ~year 2106; one second past it must refuse to
        // encode rather than wrap around to 1970.
        let mut e = sample_event(EventKind::Announce);
        e.time = Timestamp::from_secs(u64::from(u32::MAX) + 1);
        let mut stream = EventStream::new();
        stream.push(e.clone());
        assert!(matches!(
            write_events(&mut Vec::new(), &stream).unwrap_err(),
            MrtError::InvalidField("timestamp seconds overflow u32")
        ));
        // The last representable second still round-trips exactly.
        e.time = Timestamp::from_micros(u64::from(u32::MAX) * 1_000_000 + 999_999);
        let mut stream = EventStream::new();
        stream.push(e.clone());
        let mut buf = Vec::new();
        write_events(&mut buf, &stream).unwrap();
        assert_eq!(
            read_events(buf.as_slice()).unwrap().events()[0].time,
            e.time
        );
    }

    #[test]
    fn oversized_rib_attrs_refused() {
        let mut route = Route {
            prefix: "10.0.0.0/8".parse().unwrap(),
            peer: PeerId::from_octets(1, 1, 1, 1),
            attrs: PathAttributes::new(RouterId(0), AsPath::empty()),
            time: Timestamp::from_secs(u64::from(u32::MAX) + 1),
        };
        assert!(matches!(
            write_rib(&mut Vec::new(), [&route]).unwrap_err(),
            MrtError::InvalidField("timestamp seconds overflow u32")
        ));
        route.time = Timestamp::ZERO;
        route.attrs.as_path = AsPath::from_u32s(1..=(u32::from(u16::MAX) + 1));
        assert!(matches!(
            write_rib(&mut Vec::new(), [&route]).unwrap_err(),
            MrtError::InvalidField("as-path hop count overflows u16")
        ));
    }

    #[test]
    fn trailing_body_bytes_rejected_in_strict_mode() {
        let mut stream = EventStream::new();
        stream.push(sample_event(EventKind::Announce));
        let mut archive = Vec::new();
        write_events(&mut archive, &stream).unwrap();
        // Rebuild the single record with two junk bytes appended to its body.
        let body_len = archive.len() - 16;
        let mut body = archive[16..].to_vec();
        body.extend_from_slice(&[0xAA, 0xBB]);
        let mut corrupt = Vec::new();
        put_record(
            &mut corrupt,
            stream.events()[0].time,
            RECORD_TYPE_EVENT,
            SUBTYPE_ANNOUNCE,
            &body,
        )
        .unwrap();
        assert_eq!(corrupt.len(), archive.len() + 2);
        assert_eq!(body.len(), body_len + 2);
        assert!(matches!(
            read_events(corrupt.as_slice()).unwrap_err(),
            MrtError::InvalidField("trailing body bytes")
        ));
    }

    #[test]
    fn roundtrip_rib() {
        let routes: Vec<Route> = (0..5u8)
            .map(|i| Route {
                prefix: Prefix::from_octets(10, i, 0, 0, 16),
                peer: PeerId::from_octets(1, 1, 1, 1),
                attrs: PathAttributes::new(
                    RouterId::from_octets(2, 2, 2, 2),
                    "701 1299".parse().unwrap(),
                ),
                time: Timestamp::from_secs(i as u64),
            })
            .collect();
        let mut buf = Vec::new();
        write_rib(&mut buf, &routes).unwrap();
        let decoded = read_rib(buf.as_slice()).unwrap();
        assert_eq!(decoded, routes);
    }

    #[test]
    fn rib_and_event_types_not_interchangeable() {
        let routes = vec![Route {
            prefix: "10.0.0.0/8".parse().unwrap(),
            peer: PeerId::from_octets(1, 1, 1, 1),
            attrs: PathAttributes::new(RouterId(0), AsPath::empty()),
            time: Timestamp::ZERO,
        }];
        let mut buf = Vec::new();
        write_rib(&mut buf, &routes).unwrap();
        assert!(matches!(
            read_events(buf.as_slice()).unwrap_err(),
            MrtError::UnknownType(RECORD_TYPE_RIB_ENTRY)
        ));
    }

    #[test]
    fn microsecond_timestamps_survive() {
        let mut e = sample_event(EventKind::Announce);
        e.time = Timestamp::from_micros(5_000_000_000_000 + 17); // ~57 days + 17 µs
        let mut stream = EventStream::new();
        stream.push(e.clone());
        let mut buf = Vec::new();
        write_events(&mut buf, &stream).unwrap();
        let decoded = read_events(buf.as_slice()).unwrap();
        assert_eq!(decoded.events()[0].time, e.time);
    }
}
