//! A map with a bounded probe and a keyed overflow, for keys a peer picks.
//!
//! Stemming's window build looks keys up for every event: its encoding
//! cache's memo (`(peer, nexthop, AS path) → path`) and interner
//! (`Element → Symbol`), the window's prefixes and groups, and the
//! sub-sequence index's edges (`(node, symbol) → node`). Those keys come
//! from AS paths and prefixes, so whoever announces routes chooses them. A std `HashMap` meets that with a keyed SipHash per operation,
//! which is most of what the build costs. [`ProbeMap`] keeps the same bound
//! on what crafted keys can do, and pays the keyed hash only when keys
//! actually collide:
//!
//! * **An unkeyed home slot.** A key's home is the high bits of
//!   [`hash_of`], a multiplicative mix ([`mix`]) that anyone can predict.
//! * **A bounded probe.** An operation looks at no more than [`PROBES`]
//!   consecutive slots from home. A key whose window is full when it is
//!   inserted goes to the *overflow*, a std `HashMap` with the default
//!   keyed hasher.
//! * **No removal.** A slot never empties, so a window with a free slot
//!   cannot hide an overflowed key: a lookup that meets a free slot stops
//!   there, and only a key whose whole window is full pays the keyed lookup.
//!
//! So whatever keys a peer crafts, one operation costs at most [`PROBES`]
//! slot compares plus one keyed lookup (and one keyed insert when it adds
//! the key). Collisions only push keys into the overflow, where they cost
//! what every key cost in a std `HashMap`.
//!
//! Keys may own heap data — Stemming's encoding cache keys a whole AS path
//! — and are then looked up by a borrowed form, as in a std `HashMap`
//! (`Vec<u32>` by `&[u32]`): a lookup builds no key, and an insert makes
//! the one owned copy.
//!
//! The table doubles when its entries, slotted and overflowed, pass 3/4 of
//! its slots. Growing places every entry afresh, so overflowed keys move
//! back into slots wherever the bigger table has room. There is no removal
//! and no iteration: no caller needs either.

use std::borrow::Borrow;
#[cfg(test)]
use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// The most slots one operation looks at before it turns to the overflow.
pub const PROBES: usize = 16;

/// One step of the workspace's unkeyed multiplicative hash (the Fx mix):
/// folds `word` into `hash`. Its high bits mix best, so callers take a slot
/// from those. Predictable by design: use it only where a collision costs a
/// bounded amount (a path-table eviction, a probe into [`ProbeMap`]'s
/// overflow).
#[inline]
pub fn mix(hash: u64, word: u64) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    (hash.rotate_left(5) ^ word).wrapping_mul(K)
}

/// The unkeyed hash [`ProbeMap`] takes a key's home slot from: [`mix`] over
/// every integer the key's `Hash` writes, starting from zero.
pub fn hash_of<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut hasher = Mixer(0);
    key.hash(&mut hasher);
    hasher.finish()
}

/// [`mix`] as a [`Hasher`]: each integer written is one word.
struct Mixer(u64);

impl Hasher for Mixer {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.write_u64(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = mix(self.0, i);
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// The slots a table needs to hold `entries` at a load of at most 3/4 (none
/// for none, and never fewer than one probe window).
fn slots_for(entries: usize) -> usize {
    match entries {
        0 => 0,
        n => (n * 4).div_ceil(3).next_power_of_two().max(PROBES),
    }
}

/// The entries a table of `slots` slots holds before it doubles.
fn max_load(slots: usize) -> usize {
    slots / 4 * 3
}

/// What a probe of a key's window found.
enum Probe<V> {
    /// The key, with its value.
    Hit(V),
    /// A free slot, where the key would go: the key is in neither the
    /// slots nor the overflow.
    Vacant(usize),
    /// A full window without the key: it is in the overflow if anywhere.
    Full,
}

/// An insert-only map whose operations cost at most [`PROBES`] slot
/// compares plus one keyed lookup, whatever the keys (see the module doc).
/// Values are `Copy`; keys are looked up by any borrowed form `Q` whose
/// hash and equality agree with theirs.
///
/// # Example
///
/// ```
/// use bgpscope_bgp::probe::ProbeMap;
///
/// let mut ids: ProbeMap<u32, usize> = ProbeMap::new();
/// assert_eq!(ids.get_or_insert_with(&209, || 0), 0);
/// assert_eq!(ids.get_or_insert_with(&701, || 1), 1);
/// assert_eq!(ids.get_or_insert_with(&209, || 2), 0);
/// assert_eq!(ids.get(&701), Some(1));
/// assert_eq!(ids.get(&1239), None);
/// assert_eq!(ids.len(), 2);
///
/// // Owned keys, looked up and inserted by a borrowed slice.
/// let mut paths: ProbeMap<Vec<u32>, usize> = ProbeMap::new();
/// assert_eq!(paths.get_or_insert_with(&[11423, 209][..], || 0), 0);
/// assert_eq!(paths.get(&[11423, 209][..]), Some(0));
/// ```
#[derive(Debug, Clone)]
pub struct ProbeMap<K, V> {
    /// A power of two of them, or none before the first insert.
    slots: Vec<Option<(K, V)>>,
    /// `64 - log2(slots.len())`: a hash shifted right by this is a home.
    shift: u32,
    /// Entries, slotted and overflowed.
    len: usize,
    /// The keys that found their window full, under std's keyed hasher.
    overflow: HashMap<K, V>,
    /// Slots looked at by probes, for the tests of the bound.
    #[cfg(test)]
    compared: Cell<usize>,
    /// Overflow lookups, for the tests of the bound.
    #[cfg(test)]
    keyed: Cell<usize>,
}

impl<K: Eq + Hash, V: Copy> Default for ProbeMap<K, V> {
    fn default() -> Self {
        ProbeMap::new()
    }
}

impl<K: Eq + Hash, V: Copy> ProbeMap<K, V> {
    /// An empty map; it allocates on the first insert.
    pub fn new() -> Self {
        ProbeMap {
            slots: Vec::new(),
            shift: u64::BITS,
            len: 0,
            overflow: HashMap::new(),
            #[cfg(test)]
            compared: Cell::new(0),
            #[cfg(test)]
            keyed: Cell::new(0),
        }
    }

    /// An empty map that holds `capacity` entries before it grows.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut map = ProbeMap::new();
        map.reserve(capacity);
        map
    }

    /// Makes room for `additional` more entries before the next growth.
    pub fn reserve(&mut self, additional: usize) {
        let wanted = slots_for(self.len + additional);
        if wanted > self.slots.len() {
            self.rebuild(wanted);
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value `key` maps to, if any.
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        match self.probe(key) {
            Probe::Hit(value) => Some(value),
            Probe::Vacant(_) => None,
            Probe::Full => self.overflowed(key),
        }
    }

    /// The value `key` maps to, first inserting its owned copy with
    /// `value()` if it maps to none. The copy is made, and `value` runs,
    /// only when the key is new.
    pub fn get_or_insert_with<Q>(&mut self, key: &Q, value: impl FnOnce() -> V) -> V
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ToOwned<Owned = K> + ?Sized,
    {
        let vacant = match self.probe(key) {
            Probe::Hit(found) => return found,
            Probe::Vacant(at) => Some(at),
            Probe::Full => match self.overflowed(key) {
                Some(found) => return found,
                None => None,
            },
        };
        let (key, value) = (key.to_owned(), value());
        self.len += 1;
        if self.len > max_load(self.slots.len()) {
            self.rebuild(slots_for(self.len));
            self.place(key, value);
        } else if let Some(at) = vacant {
            self.slots[at] = Some((key, value));
        } else {
            self.overflow.insert(key, value);
        }
        value
    }

    /// The slot index a key hashing like `key` starts its window at. The
    /// table must have slots.
    #[inline]
    fn home<Q: Hash + ?Sized>(&self, key: &Q) -> usize {
        (hash_of(key) >> self.shift) as usize
    }

    /// Looks for `key` in its window: at most [`PROBES`] slots, stopping at
    /// the first free one.
    #[inline]
    fn probe<Q>(&self, key: &Q) -> Probe<V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        if self.slots.is_empty() {
            return Probe::Full;
        }
        let mask = self.slots.len() - 1;
        let home = self.home(key);
        for step in 0..PROBES {
            let at = (home + step) & mask;
            #[cfg(test)]
            self.compared.set(self.compared.get() + 1);
            match &self.slots[at] {
                None => return Probe::Vacant(at),
                Some((slotted, value)) if slotted.borrow() == key => return Probe::Hit(*value),
                Some(_) => {}
            }
        }
        Probe::Full
    }

    /// `key`'s value in the overflow: the one keyed lookup.
    fn overflowed<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        if self.overflow.is_empty() {
            return None;
        }
        #[cfg(test)]
        self.keyed.set(self.keyed.get() + 1);
        self.overflow.get(key).copied()
    }

    /// Puts a key known to be absent into the first free slot of its window,
    /// or into the overflow when the window is full.
    fn place(&mut self, key: K, value: V) {
        let mask = self.slots.len() - 1;
        let home = self.home(&key);
        match (0..PROBES)
            .map(|step| (home + step) & mask)
            .find(|&at| self.slots[at].is_none())
        {
            Some(at) => self.slots[at] = Some((key, value)),
            None => {
                self.overflow.insert(key, value);
            }
        }
    }

    /// Moves every entry into a table of `slots` slots (a power of two of at
    /// least [`PROBES`]). Overflowed keys get a slot wherever one is free.
    fn rebuild(&mut self, slots: usize) {
        let mut fresh = Vec::with_capacity(slots);
        fresh.resize_with(slots, || None);
        let old = std::mem::replace(&mut self.slots, fresh);
        let overflow = std::mem::take(&mut self.overflow);
        self.shift = u64::BITS - slots.trailing_zeros();
        for (key, value) in old.into_iter().flatten().chain(overflow) {
            self.place(key, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A key every instance of which hashes the same: what a peer aiming
    /// collisions at the map would achieve at best.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Clash(u32);

    impl Hash for Clash {
        fn hash<H: Hasher>(&self, state: &mut H) {
            state.write_u32(7);
        }
    }

    /// Runs `op` on `map`: its result, the slots it compared and the keyed
    /// lookups it made.
    fn cost<K, V, R>(
        map: &mut ProbeMap<K, V>,
        op: impl FnOnce(&mut ProbeMap<K, V>) -> R,
    ) -> (R, usize, usize) {
        map.compared.set(0);
        map.keyed.set(0);
        let out = op(map);
        (out, map.compared.get(), map.keyed.get())
    }

    #[test]
    fn colliding_keys_cost_at_most_a_window_and_one_keyed_lookup() {
        let mut map: ProbeMap<Clash, u32> = ProbeMap::new();
        for k in 0..1_000 {
            let (value, compared, keyed) =
                cost(&mut map, |map| map.get_or_insert_with(&Clash(k), || k * 3));
            assert_eq!(value, k * 3);
            assert!(
                compared <= PROBES,
                "insert of {k} compared {compared} slots"
            );
            assert!(keyed <= 1, "insert of {k} made {keyed} keyed lookups");
        }
        assert_eq!(map.len(), 1_000);
        // The table grew to fit 1,000 entries; one window of them is
        // slotted, and growth carried every other one along in the overflow.
        assert_eq!(map.slots.len(), slots_for(1_000));
        assert_eq!(map.slots.iter().flatten().count(), PROBES);
        assert_eq!(map.overflow.len(), 1_000 - PROBES);
        for k in 0..1_000 {
            let (found, compared, keyed) = cost(&mut map, |map| map.get(&Clash(k)));
            assert_eq!(found, Some(k * 3));
            assert!(compared <= PROBES && keyed <= 1);
            let (again, compared, keyed) = cost(&mut map, |map| {
                map.get_or_insert_with(&Clash(k), || u32::MAX)
            });
            assert_eq!(again, k * 3);
            assert!(compared <= PROBES && keyed <= 1);
        }
        for k in 1_000..2_000 {
            let (found, compared, keyed) = cost(&mut map, |map| map.get(&Clash(k)));
            assert_eq!(found, None);
            assert!(compared <= PROBES && keyed <= 1);
        }
    }

    /// Owned keys looked up by a borrowed form: `Vec<Clash>` by
    /// `&[Clash]`, where every key of one length hashes the same. An
    /// operation stays within the bound, and a lookup makes no owned key.
    #[test]
    fn colliding_owned_keys_cost_at_most_a_window_and_one_keyed_lookup() {
        let key = |k: u32| [Clash(k), Clash(k / 2)];
        let mut map: ProbeMap<Vec<Clash>, u32> = ProbeMap::new();
        for k in 0..1_000 {
            let (value, compared, keyed) = cost(&mut map, |map| {
                map.get_or_insert_with(&key(k)[..], || k * 3)
            });
            assert_eq!(value, k * 3);
            assert!(compared <= PROBES && keyed <= 1, "insert of {k}");
        }
        assert_eq!(map.len(), 1_000);
        assert_eq!(map.overflow.len(), 1_000 - PROBES);
        for k in 0..2_000 {
            let (found, compared, keyed) = cost(&mut map, |map| map.get(&key(k)[..]));
            assert_eq!(found, (k < 1_000).then_some(k * 3));
            assert!(compared <= PROBES && keyed <= 1, "lookup of {k}");
        }
    }

    #[test]
    fn growth_moves_overflowed_keys_back_into_slots() {
        // Twice a window of keys sharing one home in a 256-slot table.
        let mut map: ProbeMap<u32, u32> = ProbeMap::with_capacity(100);
        assert_eq!(map.slots.len(), 256);
        let target = hash_of(&0u32) >> map.shift;
        let keys: Vec<u32> = (0..)
            .filter(|k| hash_of(k) >> map.shift == target)
            .take(2 * PROBES)
            .collect();
        for &k in &keys {
            map.get_or_insert_with(&k, || k + 1);
        }
        assert_eq!(map.overflow.len(), PROBES);
        // In a 65,536-slot table their homes spread over 256 slots, and
        // every one of them finds room.
        map.reserve(40_000);
        assert_eq!(map.slots.len(), 65_536);
        assert!(map.overflow.is_empty());
        for &k in &keys {
            assert_eq!(map.get(&k), Some(k + 1));
        }
        assert_eq!(map.len(), 2 * PROBES);
    }

    #[test]
    fn an_empty_map_allocates_nothing_and_finds_nothing() {
        let mut map: ProbeMap<u32, u32> = ProbeMap::with_capacity(0);
        assert!(map.slots.is_empty() && map.is_empty());
        assert_eq!(map.get(&1), None);
        assert_eq!(map.get_or_insert_with(&1, || 2), 2);
        assert_eq!(map.slots.len(), PROBES);
        assert_eq!(ProbeMap::<u32, u32>::with_capacity(13).slots.len(), 32);
    }
}
