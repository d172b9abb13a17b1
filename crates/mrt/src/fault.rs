//! Byte-level fault injection for archive readers.
//!
//! [`FaultyReader`] wraps any [`Read`] source and injects faults at chosen
//! *absolute byte offsets* of the delivered stream: transient
//! [`std::io::Error`]s, stalls (a one-time sleep), byte corruption (XOR,
//! persistent or for a bounded number of deliveries), and seeded short
//! reads. It exists to prove the supervised multi-source ingest dynamics
//! are real — retry/backoff must heal transient faults bit-identically,
//! the poison breaker must skip persistent corruption, and the stall
//! watchdog must quarantine a wedged source.
//!
//! Faults are described by a [`FaultSpec`] and *armed* once
//! ([`FaultSpec::arm`]) into a shared [`ArmedFaults`] handle. Every reader
//! built from the same armed handle shares the one-shot state: a transient
//! error that has fired stays fired, so a **rebuilt** reader (the retry
//! path) sails past it — exactly how a real transient fault behaves.
//! Corruption armed with a delivery budget heals after that many
//! deliveries of the corrupt byte; corruption armed without one is
//! persistent, modeling media damage.
//!
//! Everything is deterministic: short-read lengths derive from a seed and
//! the absolute position (not from call count), so a rebuilt reader sees
//! the same chunking for the same bytes.
//!
//! # Example
//!
//! ```
//! use bgpscope_mrt::fault::{FaultSpec, FaultyReader};
//! use std::io::Read;
//!
//! let data = vec![7u8; 64];
//! let armed = FaultSpec::new(42).transient_error(10).arm();
//!
//! // First reader hits the injected fault at byte 10…
//! let mut first = FaultyReader::new(data.as_slice(), armed.clone());
//! let mut out = Vec::new();
//! assert!(first.read_to_end(&mut out).is_err());
//!
//! // …a rebuilt reader (the retry) gets a clean stream.
//! let mut retry = FaultyReader::new(data.as_slice(), armed);
//! out.clear();
//! retry.read_to_end(&mut out).unwrap();
//! assert_eq!(out, data);
//! ```

use std::io::Read;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bgpscope_bgp::splitmix64;

/// One armed byte-corruption site.
#[derive(Debug, Clone)]
struct Corruption {
    offset: u64,
    xor: u8,
    /// Remaining deliveries that see the corrupt byte; `None` = persistent.
    remaining: Option<u32>,
}

/// Mutable one-shot state shared by every reader built from one arming.
#[derive(Debug, Default)]
struct FaultState {
    /// Transient-error offsets still waiting to fire.
    transient_errors: Vec<u64>,
    /// Stall sites still waiting to fire: `(offset, sleep)`.
    stalls: Vec<(u64, Duration)>,
    corruptions: Vec<Corruption>,
}

/// A composable, seeded description of the faults to inject.
///
/// Offsets are absolute byte positions of the wrapped stream. Build one,
/// then [`FaultSpec::arm`] it; construct every (re)built reader from the
/// same [`ArmedFaults`] so one-shot faults stay fired across rebuilds.
#[derive(Debug, Clone, Default)]
pub struct FaultSpec {
    seed: u64,
    transient_errors: Vec<u64>,
    stalls: Vec<(u64, Duration)>,
    corruptions: Vec<Corruption>,
    short_reads: bool,
}

impl FaultSpec {
    /// An empty spec whose `seed` drives the short-read chunking.
    pub fn new(seed: u64) -> Self {
        FaultSpec {
            seed,
            ..Self::default()
        }
    }

    /// Injects one transient `io::Error` when a read reaches `offset`.
    /// Fires exactly once across all readers built from the same arming.
    pub fn transient_error(mut self, offset: u64) -> Self {
        self.transient_errors.push(offset);
        self
    }

    /// Sleeps `stall` once when a read reaches `offset` — a wedged source.
    pub fn stall(mut self, offset: u64, stall: Duration) -> Self {
        self.stalls.push((offset, stall));
        self
    }

    /// XORs the byte at `offset` with `xor` on **every** delivery —
    /// persistent media damage, the poison-record case.
    pub fn corrupt_byte(mut self, offset: u64, xor: u8) -> Self {
        self.corruptions.push(Corruption {
            offset,
            xor,
            remaining: None,
        });
        self
    }

    /// XORs the byte at `offset` for the first `times` deliveries only —
    /// transient corruption that a decode retry heals.
    pub fn corrupt_byte_times(mut self, offset: u64, xor: u8, times: u32) -> Self {
        self.corruptions.push(Corruption {
            offset,
            xor,
            remaining: Some(times),
        });
        self
    }

    /// Chops every read into a seeded, deterministic short length
    /// (1..=requested) — exercises record resumption across refills.
    pub fn short_reads(mut self) -> Self {
        self.short_reads = true;
        self
    }

    /// Arms the spec into shared one-shot state. Clone the returned handle
    /// into every reader (re)built over the same logical source.
    pub fn arm(&self) -> ArmedFaults {
        ArmedFaults {
            seed: self.seed,
            short_reads: self.short_reads,
            state: Arc::new(Mutex::new(FaultState {
                transient_errors: self.transient_errors.clone(),
                stalls: self.stalls.clone(),
                corruptions: self.corruptions.clone(),
            })),
        }
    }
}

/// Shared armed fault state (see [`FaultSpec::arm`]).
#[derive(Debug, Clone)]
pub struct ArmedFaults {
    seed: u64,
    short_reads: bool,
    state: Arc<Mutex<FaultState>>,
}

impl ArmedFaults {
    /// Transient errors that have not fired yet.
    pub fn pending_transient_errors(&self) -> usize {
        self.state.lock().unwrap().transient_errors.len()
    }
}

/// A [`Read`] adapter injecting the faults armed in an [`ArmedFaults`].
///
/// `pos` tracks the absolute offset of the *delivered* stream, so a fresh
/// `FaultyReader` over a fresh inner reader restarts at offset 0 — the
/// rebuild-and-fast-forward retry path re-reads the same bytes, minus any
/// one-shot faults that already fired.
#[derive(Debug)]
pub struct FaultyReader<R> {
    inner: R,
    armed: ArmedFaults,
    pos: u64,
}

impl<R: Read> FaultyReader<R> {
    /// Wraps `inner`, injecting the faults of `armed`.
    pub fn new(inner: R, armed: ArmedFaults) -> Self {
        FaultyReader {
            inner,
            armed,
            pos: 0,
        }
    }

    /// Absolute byte offset delivered so far.
    pub fn position(&self) -> u64 {
        self.pos
    }
}

impl<R: Read> Read for FaultyReader<R> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let mut n = out.len();
        if self.armed.short_reads {
            let roll = splitmix64(self.armed.seed ^ self.pos.wrapping_mul(0x2545_F491_4F6C_DD1D));
            n = 1 + (roll as usize) % n;
        }
        let mut stall: Option<Duration> = None;
        {
            let mut state = self.armed.state.lock().unwrap();
            // Point faults fire when the read cursor *reaches* their
            // offset; a read that would cross one is first shortened to
            // end exactly at it, so the fault fires on the next call.
            let window = self.pos..self.pos + n as u64;
            let next_point = state
                .transient_errors
                .iter()
                .copied()
                .chain(state.stalls.iter().map(|&(o, _)| o))
                .filter(|o| window.contains(o))
                .min();
            if let Some(f) = next_point {
                if f > self.pos {
                    n = (f - self.pos) as usize;
                } else {
                    // f == pos: the fault fires now and disarms.
                    if let Some(i) = state.transient_errors.iter().position(|&o| o == f) {
                        state.transient_errors.swap_remove(i);
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::ConnectionReset,
                            format!("injected transient fault at offset {f}"),
                        ));
                    }
                    if let Some(i) = state.stalls.iter().position(|&(o, _)| o == f) {
                        stall = Some(state.stalls.swap_remove(i).1);
                    }
                }
            }
        }
        if let Some(sleep) = stall {
            std::thread::sleep(sleep);
        }
        let got = self.inner.read(&mut out[..n])?;
        if got > 0 {
            let mut state = self.armed.state.lock().unwrap();
            let window = self.pos..self.pos + got as u64;
            for c in state.corruptions.iter_mut() {
                if window.contains(&c.offset) {
                    let live = match c.remaining.as_mut() {
                        None => true,
                        Some(0) => false,
                        Some(left) => {
                            *left -= 1;
                            true
                        }
                    };
                    if live {
                        out[(c.offset - self.pos) as usize] ^= c.xor;
                    }
                }
            }
        }
        self.pos += got as u64;
        Ok(got)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    fn read_all<R: Read>(mut r: R) -> std::io::Result<Vec<u8>> {
        let mut out = Vec::new();
        r.read_to_end(&mut out)?;
        Ok(out)
    }

    #[test]
    fn transient_error_fires_once_across_rebuilds() {
        let src = data(100);
        let armed = FaultSpec::new(1).transient_error(40).arm();
        let err = read_all(FaultyReader::new(src.as_slice(), armed.clone())).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionReset);
        assert_eq!(armed.pending_transient_errors(), 0);
        // The rebuilt reader delivers the whole stream clean.
        assert_eq!(
            read_all(FaultyReader::new(src.as_slice(), armed)).unwrap(),
            src
        );
    }

    #[test]
    fn bytes_before_a_fault_are_delivered_first() {
        let src = data(100);
        let armed = FaultSpec::new(1).transient_error(40).arm();
        let mut reader = FaultyReader::new(src.as_slice(), armed);
        let mut buf = vec![0u8; 100];
        // First read is shortened to end exactly at the fault offset…
        let got = reader.read(&mut buf).unwrap();
        assert_eq!(got, 40);
        assert_eq!(&buf[..40], &src[..40]);
        // …and the next read fires the error at it.
        assert!(reader.read(&mut buf).is_err());
        // After the error, reading resumes from byte 40.
        let got = reader.read(&mut buf).unwrap();
        assert_eq!(&buf[..got], &src[40..40 + got]);
    }

    #[test]
    fn persistent_corruption_applies_on_every_delivery() {
        let src = data(50);
        let armed = FaultSpec::new(2).corrupt_byte(10, 0xFF).arm();
        for _ in 0..3 {
            let out = read_all(FaultyReader::new(src.as_slice(), armed.clone())).unwrap();
            assert_eq!(out[10], src[10] ^ 0xFF);
            assert_eq!(out[11], src[11]);
        }
    }

    #[test]
    fn bounded_corruption_heals_after_its_budget() {
        let src = data(50);
        let armed = FaultSpec::new(3).corrupt_byte_times(10, 0x55, 2).arm();
        for round in 0..4 {
            let out = read_all(FaultyReader::new(src.as_slice(), armed.clone())).unwrap();
            if round < 2 {
                assert_eq!(out[10], src[10] ^ 0x55, "round {round} still corrupt");
            } else {
                assert_eq!(out[10], src[10], "round {round} healed");
            }
        }
    }

    #[test]
    fn short_reads_are_deterministic_and_lossless() {
        let src = data(257);
        let spec = FaultSpec::new(7).short_reads();
        let a = read_all(FaultyReader::new(src.as_slice(), spec.arm())).unwrap();
        assert_eq!(a, src);
        // Chunk boundaries are position-derived: two fresh readers observe
        // identical chunking.
        let mut r1 = FaultyReader::new(src.as_slice(), spec.arm());
        let mut r2 = FaultyReader::new(src.as_slice(), spec.arm());
        let mut b1 = vec![0u8; 64];
        let mut b2 = vec![0u8; 64];
        for _ in 0..8 {
            assert_eq!(r1.read(&mut b1).unwrap(), r2.read(&mut b2).unwrap());
        }
    }

    #[test]
    fn stall_sleeps_once_then_reads_through() {
        let src = data(30);
        let armed = FaultSpec::new(4).stall(5, Duration::from_millis(30)).arm();
        let started = std::time::Instant::now();
        let out = read_all(FaultyReader::new(src.as_slice(), armed.clone())).unwrap();
        assert_eq!(out, src);
        assert!(started.elapsed() >= Duration::from_millis(25));
        // One-shot: a rebuilt reader doesn't stall again.
        let started = std::time::Instant::now();
        read_all(FaultyReader::new(src.as_slice(), armed)).unwrap();
        assert!(started.elapsed() < Duration::from_millis(25));
    }
}
