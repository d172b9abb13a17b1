//! `classify` costs a component the same few heap allocations whatever its
//! size: one vector of event references, sorted in place for every test,
//! and the verdict's notes. Counted by a global allocator, per thread, so
//! tests running in parallel do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bgpscope_anomaly::{classify, AnomalyKind, Verdict};
use bgpscope_bgp::{Event, EventStream, PathAttributes, PeerId, Prefix, RouterId, Timestamp};
use bgpscope_stemming::Stemming;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the only addition is a thread-local counter bump, which does
// not allocate. `realloc` is left to the trait's default, which allocates
// through `alloc`, so a reallocation counts as one allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations made on this thread while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// A churn window of `prefixes` prefixes from one peer: each withdrawn from
/// one path and announced on another of the same length. Every test of
/// `classify` up to the last runs on it — the reset test re-sorts, the leak
/// test walks the prefix runs — and it ends unclassified.
fn churn(prefixes: u16) -> EventStream {
    let peer = PeerId::from_octets(128, 32, 1, 3);
    let hop = RouterId::from_octets(128, 32, 0, 66);
    let mut stream = EventStream::new();
    for i in 0..prefixes {
        let prefix = Prefix::from_octets(10, (i / 256) as u8, (i % 256) as u8, 0, 24);
        let tail = 300 + u32::from(i % 16);
        stream.push(Event::withdraw(
            Timestamp::from_millis(u64::from(i)),
            peer,
            prefix,
            PathAttributes::new(hop, format!("100 200 {tail}").parse().unwrap()),
        ));
        stream.push(Event::announce(
            Timestamp::from_millis(u64::from(prefixes + i)),
            peer,
            prefix,
            PathAttributes::new(hop, format!("100 400 {tail}").parse().unwrap()),
        ));
    }
    stream
}

/// The allocations `classify` makes on the window's one component.
fn classify_allocations(prefixes: u16) -> (usize, Verdict) {
    let stream = churn(prefixes);
    let result = Stemming::new().decompose(&stream);
    let component = &result.components()[0];
    assert_eq!(component.event_count(), stream.len());
    allocations(|| classify(component, &stream))
}

#[test]
fn classify_allocates_the_same_for_20_and_2000_events() {
    let (small, small_verdict) = classify_allocations(10);
    let (large, large_verdict) = classify_allocations(1000);
    assert_eq!(small_verdict.kind, AnomalyKind::Unknown);
    assert_eq!(large_verdict.kind, AnomalyKind::Unknown);
    assert_eq!(small, large);
    // The event references, the notes vector and its one note.
    assert_eq!(small, 3);
}
