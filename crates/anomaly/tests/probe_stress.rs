//! Stress test for cross-thread ledger sampling — the regression guard for
//! the torn-snapshot bug class a recorder thread exposes.
//!
//! Two samplers hammer ledger snapshots from their own threads while the
//! owning thread ingests, crashes the consumer, restarts it, and
//! quarantines shards:
//!
//! - [`StatsProbe`] over a single supervised pipeline whose consumer is
//!   repeatedly crashed: every sample must close the event and report
//!   ledgers exactly, mid-restart included.
//! - [`ShardedObserver`] over a sharded pipeline with one shard aimed at a
//!   quarantine: every sample must close globally and per-shard, through
//!   the quarantine hand-off. The old code published the hand-off in two
//!   steps (`handle.take()`, then remains stored), and a concurrent sample
//!   in the window read an all-zero shard ledger.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bgpscope_anomaly::{
    PanicInjection, PipelineConfig, RealtimeDetector, ShardedConfig, ShardedPipeline, SpawnConfig,
    SupervisorConfig,
};
use bgpscope_bgp::{Event, PathAttributes, PeerId, Prefix, RouterId, Timestamp};

fn storm_event(i: u64) -> Event {
    let attrs = PathAttributes::new(
        RouterId::from_octets(2, 2, 2, 2),
        "11423 209 701".parse().unwrap(),
    );
    // Many distinct (peer, prefix-top-octet) routing keys, so every shard
    // of a 4-way split sees sustained traffic.
    Event::withdraw(
        Timestamp::from_millis(i * 50),
        PeerId::from_octets(1, 1, (i % 37) as u8, 1),
        Prefix::from_octets((i % 29) as u8 + 10, (i % 200) as u8, 0, 0, 16),
        attrs,
    )
}

fn small_config() -> PipelineConfig {
    PipelineConfig {
        window: Timestamp::from_secs(20),
        min_events: 10,
        min_component_events: 5,
        spike_events: 1_000,
        ..PipelineConfig::default()
    }
}

/// Every `StatsProbe` sample taken during ingest + repeated consumer
/// crashes closes both ledgers exactly.
#[test]
fn probe_samples_close_exactly_under_restarts() {
    let spawn = SpawnConfig::new(small_config())
        .with_supervisor(
            SupervisorConfig::default()
                .with_checkpoint_interval(32)
                .with_max_restarts(20),
        )
        .with_fault(PanicInjection {
            after_events: 150,
            repeat: 4,
        });
    let mut handle = RealtimeDetector::spawn(spawn);
    let probe = handle.probe();
    let stop = Arc::new(AtomicBool::new(false));

    let samplers: Vec<_> = (0..2)
        .map(|_| {
            let probe = probe.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut samples = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let stats = probe.stats();
                    assert!(stats.accounts_exactly(), "torn probe sample: {stats:?}");
                    assert!(
                        stats.reports_account_exactly(),
                        "torn report sample: {stats:?}"
                    );
                    samples += 1;
                }
                samples
            })
        })
        .collect();

    for i in 0..2_000 {
        handle.ingest_event(storm_event(i)).expect("pipeline alive");
    }
    let (_reports, stats) = handle.finish();
    stop.store(true, Ordering::Relaxed);
    for sampler in samplers {
        let samples = sampler.join().expect("sampler never panics");
        assert!(samples > 0, "sampler made progress");
    }
    assert!(stats.accounts_exactly());
    assert!(stats.restarts >= 1, "faults actually fired");
}

/// Every `ShardedObserver` sample taken during ingest closes globally and
/// per-shard — including through a shard quarantine, whose hand-off is
/// published in one critical section.
#[test]
fn sharded_observer_samples_close_exactly_through_quarantine() {
    let spawn = SpawnConfig::new(small_config()).with_supervisor(
        SupervisorConfig::default()
            .with_checkpoint_interval(32)
            .with_max_restarts(0),
    );
    // Aim an aggressive fault at one shard: with a zero restart budget the
    // first panic quarantines it mid-run.
    let mut pipeline = ShardedPipeline::spawn(ShardedConfig::new(4, spawn).with_shard_fault(
        1,
        // The panic never burns out: the first one already exhausts
        // the zero restart budget and quarantines the shard.
        PanicInjection {
            after_events: 50,
            repeat: u32::MAX,
        },
    ));
    let observer = pipeline.observer();
    let stop = Arc::new(AtomicBool::new(false));

    let samplers: Vec<_> = (0..2)
        .map(|_| {
            let observer = observer.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut samples = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let stats = observer.stats();
                    assert!(stats.accounts_exactly(), "torn sharded sample: {stats:?}");
                    assert!(
                        stats.reports_account_exactly(),
                        "torn sharded report sample: {stats:?}"
                    );
                    samples += 1;
                }
                samples
            })
        })
        .collect();

    for i in 0..3_000 {
        pipeline
            .ingest_event(storm_event(i))
            .expect("three shards stay live");
    }
    // Whether the producer or `finish` is first to find shard 1 dead is a
    // scheduling accident; that it ends the run quarantined is not.
    let run = pipeline.finish();
    stop.store(true, Ordering::Relaxed);
    for sampler in samplers {
        let samples = sampler.join().expect("sampler never panics");
        assert!(samples > 0, "sampler made progress");
    }
    assert!(run.stats.accounts_exactly());
    assert_eq!(
        run.stats.quarantined_shards(),
        [1],
        "the aimed fault quarantined shard 1"
    );
}
