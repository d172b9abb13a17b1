//! Property tests for the supervised multi-source ingest: **every fault
//! class leaves every per-source ledger closed**.
//!
//! For random combinations of sources × fault classes (clean, transient
//! I/O error, read stall, persistent byte corruption, budgeted byte
//! corruption) in both strict and lossy decode modes, the run must end in
//! one of exactly two ways — a report whose per-source ledgers all close
//! and sum into the stem pipeline's `ingested` count, or an
//! all-sources-quarantined error whose dead ledgers still close — and a
//! probe must observe only closed ledgers at *every* snapshot along the
//! way. No fault class, placement, or interleaving may ever leave an
//! event unaccounted for.

use std::io::{Cursor, Read};
use std::time::Duration;

use proptest::prelude::*;

use bgpscope::prelude::*;
use bgpscope_mrt::{write_events, FaultSpec, FaultyReader};

/// Which injected failure a source gets. `frac` places the fault at a
/// fraction of the archive length, so every byte position is reachable.
#[derive(Debug, Clone)]
enum FaultClass {
    Clean,
    /// One-shot transient `io::Error` — must heal via rebuild+fast-forward.
    Transient {
        frac: f64,
    },
    /// A short read stall, well under the stall timeout — must only delay.
    Stall {
        frac: f64,
    },
    /// A corrupt byte, either persistent (may poison-skip or quarantine)
    /// or healing after `budget` deliveries (must eventually decode).
    Corrupt {
        frac: f64,
        xor: u8,
        budget: Option<u32>,
    },
}

fn arb_fault() -> impl Strategy<Value = FaultClass> {
    prop_oneof![
        Just(FaultClass::Clean),
        (0.0f64..1.0).prop_map(|frac| FaultClass::Transient { frac }),
        (0.0f64..1.0).prop_map(|frac| FaultClass::Stall { frac }),
        (0.0f64..1.0, 1u8..=255, proptest::option::of(1u32..3))
            .prop_map(|(frac, xor, budget)| FaultClass::Corrupt { frac, xor, budget }),
    ]
}

/// A compact per-source event recipe: `(secs, peer, addr)` triples become
/// announcements on disjoint /24s, so archives are valid and non-trivial
/// without a heavyweight generator.
fn arb_source() -> impl Strategy<Value = (Vec<(u64, u32, u8)>, FaultClass)> {
    (
        proptest::collection::vec((0u64..3_600, 1u32..64, any::<u8>()), 1..24),
        arb_fault(),
    )
}

fn archive(source_idx: usize, recipe: &[(u64, u32, u8)]) -> Vec<u8> {
    let mut stream = EventStream::new();
    for (i, &(secs, peer, addr)) in recipe.iter().enumerate() {
        stream.push(Event::announce(
            Timestamp::from_secs(secs),
            PeerId(RouterId(peer)),
            Prefix::from_octets(10 + source_idx as u8, addr, i as u8, 0, 24),
            PathAttributes::new(RouterId(peer), AsPath::from_u32s([65_000, 65_001 + peer])),
        ));
    }
    let mut buf = Vec::new();
    write_events(&mut buf, &stream).expect("in-memory archive");
    buf
}

proptest! {
    #[test]
    fn every_fault_class_leaves_every_ledger_closed(
        sources in proptest::collection::vec(arb_source(), 1..4),
        lossy in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let policy = SourcePolicy::default()
            .with_max_retries(3)
            .with_backoff(Duration::from_millis(1))
            .with_stall_timeout(Duration::from_millis(250))
            .with_poison_threshold(2);
        let mut config = IngestConfig::default().with_batch_size(8);
        if lossy {
            config = config.lossy();
        }
        let mut ingest = MultiSourceIngest::new(config, policy);
        for (i, (recipe, fault)) in sources.iter().enumerate() {
            let data = archive(i, recipe);
            let mut spec = FaultSpec::new(seed.wrapping_add(i as u64));
            let at = |frac: f64| (frac * data.len() as f64) as u64;
            spec = match *fault {
                FaultClass::Clean => spec,
                FaultClass::Transient { frac } => spec.transient_error(at(frac)),
                FaultClass::Stall { frac } => spec.stall(at(frac), Duration::from_millis(5)),
                FaultClass::Corrupt { frac, xor, budget } => match budget {
                    Some(times) => spec.corrupt_byte_times(at(frac), xor, times),
                    None => spec.corrupt_byte(at(frac), xor),
                },
            };
            let armed = spec.arm();
            ingest = ingest.source(SourceSpec::new(format!("src{i}"), move || {
                Ok(Box::new(FaultyReader::new(Cursor::new(data.clone()), armed.clone()))
                    as Box<dyn Read + Send>)
            }));
        }
        // Every snapshot the supervisor publishes must already be closed —
        // not just the final state.
        let result = ingest
            .with_probe(|ledgers| {
                for ledger in ledgers {
                    assert!(ledger.accounts_exactly(), "snapshot ledger broken: {ledger}");
                }
            })
            .run();
        match result {
            Ok(report) => {
                prop_assert!(
                    report.sources_account_exactly(),
                    "final ledgers broken: {report}"
                );
            }
            Err(IngestError::AllSourcesQuarantined { sources, .. }) => {
                for ledger in &sources {
                    prop_assert!(ledger.accounts_exactly(), "dead ledger broken: {ledger}");
                    prop_assert!(ledger.quarantine_cause.is_some(), "{ledger}");
                }
            }
            Err(other) => prop_assert!(false, "unexpected error class: {other}"),
        }
    }
}
