//! An AS path whose length is known before its hops is built in exactly one
//! heap allocation: the MRT decoder's mapped range, `prepended` and
//! `FromStr`. Counted by a global allocator, per thread, so tests running
//! in parallel do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bgpscope_bgp::{AsPath, Asn};

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

#[test]
fn decoder_shaped_build_allocates_once() {
    let wire = [11423u32, 209, 701, 1299];
    let (n, path) = allocations(|| AsPath::from_asns((0..wire.len()).map(|i| Asn(wire[i]))));
    assert_eq!(n, 1);
    assert_eq!(path.to_string(), "11423 209 701 1299");
}

#[test]
fn prepended_allocates_once() {
    let path: AsPath = "701 1299".parse().unwrap();
    let (n, longer) = allocations(|| path.prepended(Asn(7018), 3));
    assert_eq!(n, 1);
    assert_eq!(longer.to_string(), "7018 7018 7018 701 1299");
}

#[test]
fn parse_allocates_once() {
    let (n, path) = allocations(|| "11423 209 701 1299 5713".parse::<AsPath>());
    assert_eq!(n, 1);
    assert_eq!(path.unwrap().hop_count(), 5);
}

#[test]
fn clone_allocates_nothing() {
    let path: AsPath = "11423 209 701".parse().unwrap();
    let (n, copy) = allocations(|| path.clone());
    assert_eq!(n, 0);
    assert_eq!(copy, path);
}
