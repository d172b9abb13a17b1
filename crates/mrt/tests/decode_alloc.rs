//! Decoding an archive that repeats a few AS paths allocates per path, not
//! per event: the reader's path table hands out clones of the paths it
//! holds.
//! Counted by a global allocator, per thread, so tests running in parallel
//! do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bgpscope_bgp::{
    AsPath, Event, EventStream, PathAttributes, PeerId, Prefix, RouterId, Timestamp,
};
use bgpscope_mrt::{write_events, RecordReader};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the only addition is a thread-local counter bump, which does
// not allocate.
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

/// `events` announcements and withdrawals over 8 distinct AS paths, with
/// MED and LOCAL_PREF on some and no communities (a community list is the
/// one per-event allocation decoding still makes).
fn archive(events: usize) -> Vec<u8> {
    let mut stream = EventStream::new();
    for i in 0..events {
        let path = AsPath::from_u32s((0..=(i % 8) as u32).map(|k| 701 + k));
        let mut attrs = PathAttributes::new(RouterId::from_octets(2, 2, 2, 2), path);
        if i % 3 == 0 {
            attrs = attrs.with_med(i as u32).with_local_pref(100);
        }
        let time = Timestamp::from_micros(i as u64 * 1_000);
        let peer = PeerId::from_octets(1, 1, (i % 4) as u8, 1);
        let prefix = Prefix::from_octets(10, (i >> 8) as u8, i as u8, 0, 24);
        stream.push(if i % 2 == 0 {
            Event::announce(time, peer, prefix, attrs)
        } else {
            Event::withdraw(time, peer, prefix, attrs)
        });
    }
    let mut bytes = Vec::new();
    write_events(&mut bytes, &stream).unwrap();
    bytes
}

/// Decodes the whole archive, dropping each event; returns the count.
fn decode_all(bytes: &[u8]) -> usize {
    let mut reader = RecordReader::with_capacity(bytes, 4096);
    let mut decoded = 0;
    while let Some(event) = reader.next_event().unwrap() {
        decoded += 1;
        drop(event);
    }
    decoded
}

#[test]
fn decode_allocations_do_not_grow_with_the_event_count() {
    let (small, large) = (archive(10_000), archive(20_000));
    let (at_10k, decoded) = allocations(|| decode_all(&small));
    assert_eq!(decoded, 10_000);
    let (at_20k, decoded) = allocations(|| decode_all(&large));
    assert_eq!(decoded, 20_000);
    assert_eq!(at_10k, at_20k, "allocations grew with the event count");
    // The reader's buffer, the path table and its 8 paths: a handful.
    assert!(at_10k < 64, "{at_10k} allocations for 10,000 events");
}
