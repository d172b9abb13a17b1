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
//!
//! At the midpoint of each feed the producer waits until every sampler has
//! taken a sample since ingest began, so the samples overlap the feed on
//! any scheduler rather than only on a fast one.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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

/// Sampler threads, each running `sample` in a loop until stopped and
/// counting its samples where the producer can read them.
struct Samplers {
    stop: Arc<AtomicBool>,
    counts: Vec<Arc<AtomicU64>>,
    threads: Vec<JoinHandle<()>>,
}

impl Samplers {
    fn spawn(n: usize, sample: impl Fn() + Send + Sync + 'static) -> Self {
        let sample = Arc::new(sample);
        let stop = Arc::new(AtomicBool::new(false));
        let counts: Vec<_> = (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect();
        let threads = counts
            .iter()
            .map(|count| {
                let (sample, stop, count) =
                    (Arc::clone(&sample), Arc::clone(&stop), Arc::clone(count));
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        sample();
                        count.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        Samplers {
            stop,
            counts,
            threads,
        }
    }

    fn counts(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|count| count.load(Ordering::Relaxed))
            .collect()
    }

    /// Waits until every sampler has sampled since `counts` were read. A
    /// sampler that panicked stops counting; the wait then ends and
    /// [`Samplers::finish`] reports the panic.
    fn wait_past(&self, counts: &[u64]) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while self
            .counts()
            .iter()
            .zip(counts)
            .any(|(now, then)| now <= then)
        {
            if self.threads.iter().any(JoinHandle::is_finished) {
                return;
            }
            assert!(Instant::now() < deadline, "a sampler never ran");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Stops and joins the samplers; returns how many samples each took.
    fn finish(self) -> Vec<u64> {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads {
            thread.join().expect("sampler never panics");
        }
        self.counts
            .iter()
            .map(|count| count.load(Ordering::Relaxed))
            .collect()
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
    let samplers = Samplers::spawn(2, move || {
        let stats = probe.stats();
        assert!(stats.accounts_exactly(), "torn probe sample: {stats:?}");
        assert!(
            stats.reports_account_exactly(),
            "torn report sample: {stats:?}"
        );
    });

    let started = samplers.counts();
    for i in 0..2_000 {
        if i == 1_000 {
            samplers.wait_past(&started);
        }
        handle.ingest_event(storm_event(i)).expect("pipeline alive");
    }
    let (_reports, stats) = handle.finish();
    for samples in samplers.finish() {
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
    let samplers = Samplers::spawn(2, move || {
        let stats = observer.stats();
        assert!(stats.accounts_exactly(), "torn sharded sample: {stats:?}");
        assert!(
            stats.reports_account_exactly(),
            "torn sharded report sample: {stats:?}"
        );
    });

    let started = samplers.counts();
    for i in 0..3_000 {
        if i == 1_500 {
            samplers.wait_past(&started);
        }
        pipeline
            .ingest_event(storm_event(i))
            .expect("three shards stay live");
    }
    // Whether the producer or `finish` is first to find shard 1 dead is a
    // scheduling accident; that it ends the run quarantined is not.
    let run = pipeline.finish();
    for samples in samplers.finish() {
        assert!(samples > 0, "sampler made progress");
    }
    assert!(run.stats.accounts_exactly());
    assert_eq!(
        run.stats.quarantined_shards(),
        [1],
        "the aimed fault quarantined shard 1"
    );
}
