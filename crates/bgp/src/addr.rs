//! IPv4 addressing: prefixes, networks and router identifiers.
//!
//! The paper's data sets are IPv4-only (2002–2003), so the model is too.

use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// An IPv4 prefix: a network address plus a mask length, e.g. `192.0.2.0/24`.
///
/// The host bits below the mask are always stored as zero, so two `Prefix`
/// values compare equal iff they denote the same network. A `/32` prefix is a
/// host route.
///
/// # Example
///
/// ```
/// use bgpscope_bgp::Prefix;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p: Prefix = "10.1.2.3/16".parse()?;
/// assert_eq!(p.to_string(), "10.1.0.0/16"); // host bits masked off
/// assert!(p.contains_addr(0x0A01_FFFF)); // 10.1.255.255
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Prefix {
    addr: u32,
    len: u8,
}

impl Prefix {
    /// Creates a prefix from a 32-bit network address and mask length.
    ///
    /// Host bits below `len` are masked off.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    pub fn new(addr: u32, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} exceeds 32");
        Prefix {
            addr: addr & Self::mask(len),
            len,
        }
    }

    /// Creates a prefix from dotted-quad octets and a mask length.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    pub fn from_octets(a: u8, b: u8, c: u8, d: u8, len: u8) -> Self {
        Self::new(u32::from_be_bytes([a, b, c, d]), len)
    }

    /// The network mask for a given prefix length.
    #[inline]
    pub fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// The 32-bit network address (host bits are zero).
    #[inline]
    pub fn addr(&self) -> u32 {
        self.addr
    }

    /// The mask length in bits.
    ///
    /// A `/0` prefix is the default route, not an "empty" prefix, so there
    /// is deliberately no `is_empty` counterpart (see [`Prefix::is_default`]).
    #[allow(clippy::len_without_is_empty)]
    #[inline]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Whether this is the zero-length default route `0.0.0.0/0`.
    #[inline]
    pub fn is_default(&self) -> bool {
        self.len == 0
    }

    /// Returns true if `addr` falls inside this prefix.
    #[inline]
    pub fn contains_addr(&self, addr: u32) -> bool {
        addr & Self::mask(self.len) == self.addr
    }

    /// Returns true if `other` is equal to or more specific than `self`.
    ///
    /// ```
    /// use bgpscope_bgp::Prefix;
    /// let agg = Prefix::from_octets(10, 0, 0, 0, 8);
    /// let spec = Prefix::from_octets(10, 1, 0, 0, 16);
    /// assert!(agg.covers(&spec));
    /// assert!(!spec.covers(&agg));
    /// ```
    #[inline]
    pub fn covers(&self, other: &Prefix) -> bool {
        other.len >= self.len && self.contains_addr(other.addr)
    }

    /// Splits this prefix into its two halves, one bit longer each.
    ///
    /// Returns `None` for a `/32` which cannot be split.
    pub fn split(&self) -> Option<(Prefix, Prefix)> {
        if self.len >= 32 {
            return None;
        }
        let len = self.len + 1;
        let low = Prefix::new(self.addr, len);
        let high = Prefix::new(self.addr | (1u32 << (32 - len)), len);
        Some((low, high))
    }

    /// The dotted-quad network address.
    pub fn network(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.addr)
    }
}

impl fmt::Display for Prefix {
    /// `a.b.c.d/len`, rendered on the stack and written in one piece. Width
    /// and precision are ignored.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut buf = [0u8; MAX_PREFIX_TEXT];
        let mut end = dotted_quad(self.addr, &mut buf);
        buf[end] = b'/';
        end = push_decimal(&mut buf, end + 1, self.len);
        f.write_str(ascii(&buf[..end]))
    }
}

/// The longest rendered prefix, `255.255.255.255/32`.
const MAX_PREFIX_TEXT: usize = 18;

/// Writes `addr` as a dotted quad at the start of `buf` and returns its
/// length (at most 15).
fn dotted_quad(addr: u32, buf: &mut [u8; MAX_PREFIX_TEXT]) -> usize {
    let mut end = 0;
    for (i, octet) in addr.to_be_bytes().into_iter().enumerate() {
        if i > 0 {
            buf[end] = b'.';
            end += 1;
        }
        end = push_decimal(buf, end, octet);
    }
    end
}

/// Writes `value` in decimal at `buf[at..]` and returns the new end.
fn push_decimal(buf: &mut [u8], mut at: usize, value: u8) -> usize {
    if value >= 100 {
        buf[at] = b'0' + value / 100;
        at += 1;
    }
    if value >= 10 {
        buf[at] = b'0' + value / 10 % 10;
        at += 1;
    }
    buf[at] = b'0' + value % 10;
    at + 1
}

/// The text [`dotted_quad`] and [`push_decimal`] wrote: digits, dots and a
/// slash.
fn ascii(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("dotted-quad text is ASCII")
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Prefix({self})")
    }
}

/// Error produced when parsing a [`Prefix`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePrefixError {
    input: String,
    reason: &'static str,
}

impl ParsePrefixError {
    fn new(input: &str, reason: &'static str) -> Self {
        ParsePrefixError {
            input: input.to_owned(),
            reason,
        }
    }
}

impl fmt::Display for ParsePrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid prefix {:?}: {}", self.input, self.reason)
    }
}

impl std::error::Error for ParsePrefixError {}

impl FromStr for Prefix {
    type Err = ParsePrefixError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr_part, len_part) = match s.split_once('/') {
            Some(parts) => parts,
            None => return Err(ParsePrefixError::new(s, "missing '/' separator")),
        };
        let addr: Ipv4Addr = addr_part
            .parse()
            .map_err(|_| ParsePrefixError::new(s, "invalid IPv4 address"))?;
        let len: u8 = len_part
            .parse()
            .map_err(|_| ParsePrefixError::new(s, "invalid mask length"))?;
        if len > 32 {
            return Err(ParsePrefixError::new(s, "mask length exceeds 32"));
        }
        Ok(Prefix::new(u32::from(addr), len))
    }
}

impl From<Ipv4Net> for Prefix {
    fn from(net: Ipv4Net) -> Self {
        net.0
    }
}

/// A thin newtype alias around [`Prefix`] for call sites that want to convey
/// "this is a network, not a route key".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Ipv4Net(pub Prefix);

impl fmt::Display for Ipv4Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// A router (or BGP speaker) identifier — a 32-bit quantity conventionally
/// written as a dotted quad, e.g. `128.32.1.3`.
///
/// Router ids identify IBGP peers and BGP NEXT_HOPs throughout the workspace.
///
/// ```
/// use bgpscope_bgp::RouterId;
/// let r = RouterId::from_octets(128, 32, 1, 3);
/// assert_eq!(r.to_string(), "128.32.1.3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub struct RouterId(pub u32);

impl RouterId {
    /// Builds a router id from dotted-quad octets.
    pub fn from_octets(a: u8, b: u8, c: u8, d: u8) -> Self {
        RouterId(u32::from_be_bytes([a, b, c, d]))
    }

    /// The raw 32-bit value.
    #[inline]
    pub fn as_u32(&self) -> u32 {
        self.0
    }
}

impl fmt::Display for RouterId {
    /// The dotted quad, padded like [`Ipv4Addr`]'s.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut buf = [0u8; MAX_PREFIX_TEXT];
        let end = dotted_quad(self.0, &mut buf);
        f.pad(ascii(&buf[..end]))
    }
}

impl fmt::Debug for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RouterId({self})")
    }
}

impl FromStr for RouterId {
    type Err = ParsePrefixError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let addr: Ipv4Addr = s
            .parse()
            .map_err(|_| ParsePrefixError::new(s, "invalid IPv4 address"))?;
        Ok(RouterId(u32::from(addr)))
    }
}

impl From<Ipv4Addr> for RouterId {
    fn from(a: Ipv4Addr) -> Self {
        RouterId(u32::from(a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_masks_host_bits() {
        let p = Prefix::new(0xC0A8_01FF, 24);
        assert_eq!(p.addr(), 0xC0A8_0100);
        assert_eq!(p.to_string(), "192.168.1.0/24");
    }

    #[test]
    fn prefix_parse_roundtrip() {
        for s in [
            "0.0.0.0/0",
            "10.0.0.0/8",
            "192.96.10.0/24",
            "4.5.0.0/16",
            "1.2.3.4/32",
        ] {
            let p: Prefix = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
    }

    #[test]
    fn prefix_parse_rejects_garbage() {
        assert!("10.0.0.0".parse::<Prefix>().is_err());
        assert!("10.0.0.0/33".parse::<Prefix>().is_err());
        assert!("10.0.0.256/8".parse::<Prefix>().is_err());
        assert!("banana/8".parse::<Prefix>().is_err());
        let err = "x/9".parse::<Prefix>().unwrap_err();
        assert!(err.to_string().contains("invalid IPv4 address"));
    }

    #[test]
    fn covers_is_reflexive_and_directional() {
        let agg: Prefix = "62.80.64.0/20".parse().unwrap();
        let spec: Prefix = "62.80.65.0/24".parse().unwrap();
        assert!(agg.covers(&agg));
        assert!(agg.covers(&spec));
        assert!(!spec.covers(&agg));
    }

    #[test]
    fn split_halves() {
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        let (lo, hi) = p.split().unwrap();
        assert_eq!(lo.to_string(), "10.0.0.0/9");
        assert_eq!(hi.to_string(), "10.128.0.0/9");
        assert!(p.covers(&lo) && p.covers(&hi));
        let host: Prefix = "1.2.3.4/32".parse().unwrap();
        assert!(host.split().is_none());
    }

    #[test]
    fn default_route() {
        let d: Prefix = "0.0.0.0/0".parse().unwrap();
        assert!(d.is_default());
        assert!(d.contains_addr(u32::MAX));
        assert_eq!(Prefix::mask(0), 0);
        assert_eq!(Prefix::mask(32), u32::MAX);
    }

    /// Octets whose decimal forms have one, two and three digits, at both
    /// ends of each width.
    const OCTETS: [u8; 8] = [0, 9, 10, 99, 100, 199, 200, 255];

    fn every_address() -> impl Iterator<Item = u32> {
        OCTETS.into_iter().flat_map(|a| {
            OCTETS.into_iter().flat_map(move |b| {
                OCTETS.into_iter().flat_map(move |c| {
                    OCTETS
                        .into_iter()
                        .map(move |d| u32::from_be_bytes([a, b, c, d]))
                })
            })
        })
    }

    #[test]
    fn prefix_display_matches_std_for_every_length() {
        for addr in every_address() {
            for len in 0..=32u8 {
                let p = Prefix::new(addr, len);
                let expected = format!("{}/{}", Ipv4Addr::from(p.addr()), len);
                assert_eq!(p.to_string(), expected);
                // Width is not applied to a prefix.
                assert_eq!(format!("{p:>24}"), expected);
            }
        }
    }

    #[test]
    fn router_id_display_matches_std() {
        for addr in every_address() {
            let (ours, std) = (RouterId(addr), Ipv4Addr::from(addr));
            assert_eq!(ours.to_string(), std.to_string());
            assert_eq!(
                format!("{ours:>17}|{ours:<16}|{ours:.4}"),
                format!("{std:>17}|{std:<16}|{std:.4}")
            );
        }
    }

    #[test]
    fn router_id_display_and_parse() {
        let r: RouterId = "128.32.1.200".parse().unwrap();
        assert_eq!(r, RouterId::from_octets(128, 32, 1, 200));
        assert_eq!(r.to_string(), "128.32.1.200");
    }
}
