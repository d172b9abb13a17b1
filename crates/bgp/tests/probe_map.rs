//! `ProbeMap` against a std `HashMap` oracle: mixed get-or-insert and get
//! calls, on keys that spread over the table and on keys that mostly share
//! a home slot — `Copy` keys, and owned `Vec` keys looked up by a borrowed
//! slice, as Stemming's encoding cache keys a path.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;

use bgpscope_bgp::probe::ProbeMap;

/// A key with three hash values: almost every key lands in the overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Few(u16);

impl Hash for Few {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u16(self.0 % 3);
    }
}

/// Runs `ops` — `(true, k)` is a get-or-insert of `k`, `(false, k)` a get —
/// against a map of `capacity` and the oracle, looking every key up by its
/// borrowed form `Q`. An insert's value is the op's position, so a value
/// that moved or a re-run insert shows.
fn run<Q, K>(capacity: usize, ops: &[(bool, &Q)])
where
    Q: Eq + Hash + Debug + ToOwned<Owned = K> + ?Sized,
    K: Eq + Hash + Borrow<Q>,
{
    let mut map = ProbeMap::with_capacity(capacity);
    let mut oracle: HashMap<K, usize> = HashMap::new();
    for (at, &(insert, key)) in ops.iter().enumerate() {
        if insert {
            let new = !oracle.contains_key(key);
            let want = *oracle.entry(key.to_owned()).or_insert(at);
            let mut made = 0;
            let got = map.get_or_insert_with(key, || {
                made += 1;
                at
            });
            assert_eq!(got, want, "get-or-insert of {key:?}");
            assert_eq!(made, usize::from(new), "value made for {key:?}");
        } else {
            assert_eq!(map.get(key), oracle.get(key).copied(), "get of {key:?}");
        }
        assert_eq!(map.len(), oracle.len());
    }
    for (key, &value) in &oracle {
        assert_eq!(map.get(key.borrow()), Some(value));
    }
}

proptest! {
    #[test]
    fn probe_map_matches_a_std_hash_map(
        ops in proptest::collection::vec((any::<bool>(), 0u16..600), 0..1_500),
        capacity in 0usize..64,
    ) {
        let keys: Vec<(bool, &u16)> = ops.iter().map(|(insert, key)| (*insert, key)).collect();
        run(capacity, &keys);
        let few: Vec<(bool, Few)> = ops.iter().map(|&(insert, key)| (insert, Few(key))).collect();
        let keys: Vec<(bool, &Few)> = few.iter().map(|(insert, key)| (*insert, key)).collect();
        run(capacity, &keys);
        // Owned keys of one to three clashing parts, looked up by slice:
        // 3, 9 or 27 hash values per length, so most keys overflow.
        let paths: Vec<(bool, Vec<Few>)> = ops
            .iter()
            .map(|&(insert, key)| (insert, (0..1 + key % 3).map(|part| Few(key / 3 + part)).collect()))
            .collect();
        let keys: Vec<(bool, &[Few])> = paths.iter().map(|(insert, key)| (*insert, &key[..])).collect();
        run(capacity, &keys);
    }
}
