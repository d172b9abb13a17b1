//! Fault-injected soak tests for the realtime pipeline.
//!
//! A seeded [`FaultPlan`] throws update storms, feed stalls, out-of-order
//! delivery, corrupt feed text, injected consumer panics, and stalled
//! report subscribers at the supervised pipeline under every overload and
//! report policy, and asserts the robustness contract:
//!
//! * the pipeline never deadlocks or panics (the test completing is the
//!   proof; CI additionally runs this file under a wall-clock timeout),
//! * memory stays bounded — neither the event queue nor the report queue
//!   ever exceeds its capacity,
//! * a killed consumer restarts from its checkpoint with `lost_events`
//!   bounded by the checkpoint interval and the injected anomalies still
//!   detected,
//! * every event is accounted for — `ingested == analyzed + shed +
//!   dropped + carried + queued + replayed_in_flight + coalesced` at every
//!   sampled instant (including mid-restart) and, with
//!   `carried == queued == replayed_in_flight == 0`, at quiescence — and
//!   every report too: `emitted == delivered + shed + digested`,
//! * under adaptive control the closed-loop controller degrades fidelity
//!   during the storm, merge-on-shed preserves the anomaly evidence as
//!   weighted representatives, and fidelity recovers to full once the
//!   queue quiets,
//! * the supervised multi-source ingest ([`MultiSourceIngest`]) heals
//!   injected transient read faults bit-identically to a fault-free run,
//!   quarantines a wedged source without disturbing its siblings (their
//!   ledgers match a baseline run without it), keeps every per-source
//!   ledger closed at every probe snapshot including post-quarantine, and
//!   errors with per-source causes only when *every* source is dead.

use std::time::{Duration, Instant};

use bgpscope::prelude::*;

/// Queue capacity small enough that the storms overflow it.
const CAPACITY: usize = 64;

/// Hard per-policy wall-clock budget: blowing it means livelock, which
/// turns a hang into a failure even without the CI-level timeout.
const DEADLINE: Duration = Duration::from_secs(120);

fn soak_plan() -> FaultPlan {
    FaultPlan::storm_soak(0xd5_2005)
}

fn spawn_config(policy: OverloadPolicy) -> SpawnConfig {
    let pipeline = PipelineConfig {
        // Short windows so analysis fires many times during the feed and
        // actually loads the consumer.
        window: Timestamp::from_secs(20),
        min_events: 10,
        min_component_events: 4,
        spike_events: 5_000,
        max_carry_events: 200,
        max_carry_age: Timestamp::from_secs(120),
        ..PipelineConfig::default()
    };
    SpawnConfig::new(pipeline)
        .with_capacity(CAPACITY)
        .with_overload(policy)
}

/// Replays the faulted feed through a spawned pipeline under `policy`,
/// sampling the bounded-memory and exact-accounting invariants along the
/// way, and returns the final stats.
fn run_soak(policy: OverloadPolicy) -> PipelineStats {
    let plan = soak_plan();
    let feed = plan.build_feed();
    assert!(feed.len() > 1_000, "feed too small to stress the pipeline");

    let started = Instant::now();
    let mut handle = RealtimeDetector::spawn(spawn_config(policy));
    let mut max_queue = 0usize;
    for (i, (msg, time)) in feed.iter().enumerate() {
        if let Some(pause) = plan.stall_at(i) {
            std::thread::sleep(pause);
        }
        handle
            .ingest_update(msg, *time)
            .unwrap_or_else(|_| panic!("{policy}: pipeline died at feed item {i}"));
        max_queue = max_queue.max(handle.queue_len());
        if i % 997 == 0 {
            let live = handle.stats();
            assert!(
                live.accounts_exactly(),
                "{policy}: mid-run ledger broken at item {i}: {live}"
            );
        }
        assert!(
            started.elapsed() < DEADLINE,
            "{policy}: livelock — {i}/{} items after {:?}",
            feed.len(),
            started.elapsed()
        );
    }
    assert!(handle.is_alive(), "{policy}: consumer thread died mid-soak");
    assert!(
        max_queue <= CAPACITY,
        "{policy}: queue grew to {max_queue} > capacity {CAPACITY}"
    );

    let (_reports, stats) = handle.finish();
    assert!(
        stats.accounts_exactly(),
        "{policy}: final ledger broken: {stats}"
    );
    assert_eq!(stats.queued, 0, "{policy}: events left queued: {stats}");
    assert_eq!(stats.carried, 0, "{policy}: events left carried: {stats}");
    assert_eq!(
        stats.ingested,
        stats.analyzed + stats.shed_events + stats.dropped_events,
        "{policy}: quiescent accounting broken: {stats}"
    );
    // Augmentation can suppress duplicate updates and expand multi-prefix
    // ones, so event count != update count — but a storm feed must still
    // produce a storm of events.
    assert!(stats.ingested > 1_000, "{policy}: {stats}");
    stats
}

#[test]
fn soak_block_policy_is_lossless() {
    let stats = run_soak(OverloadPolicy::Block);
    assert_eq!(stats.shed_events, 0, "Block must never shed: {stats}");
    assert_eq!(stats.degraded_windows, 0, "Block never degrades: {stats}");
}

#[test]
fn soak_drop_newest_policy_sheds_and_accounts() {
    let stats = run_soak(OverloadPolicy::DropNewest);
    // Whether anything was shed depends on scheduling; what is mandatory is
    // that whatever was shed is on the ledger (checked in run_soak) and
    // that analysis still happened.
    assert!(stats.analyzed > 0, "{stats}");
}

#[test]
fn soak_drop_oldest_policy_sheds_and_accounts() {
    let stats = run_soak(OverloadPolicy::DropOldest);
    assert!(stats.analyzed > 0, "{stats}");
}

#[test]
fn soak_degrade_policy_is_lossless() {
    let stats = run_soak(OverloadPolicy::Degrade);
    assert_eq!(stats.shed_events, 0, "Degrade must never shed: {stats}");
}

/// The out-of-order deliveries in the faulted feed are clamped into the
/// current window and counted — timestamps running backwards must never
/// corrupt windowing silently.
#[test]
fn soak_feed_disorder_is_clamped_and_counted() {
    let stats = run_soak(OverloadPolicy::Block);
    assert!(
        stats.clamped_events > 0,
        "reordered feed produced no clamps: {stats}"
    );
}

/// Multi-component leg: two interleaved storms on disjoint flapper routers
/// ([`FaultPlan::concurrent_storms`]) soak the pipeline with *concurrent*
/// anomalies. The ledger must still close exactly, and the reports must
/// recover both injected anomaly families — distinct, never merged — with
/// overlapping incident intervals proving they were concurrent, not
/// sequential. This drives the incremental multi-round decomposition (one
/// counter per window, one subtraction per extracted component) end-to-end.
#[test]
fn soak_concurrent_storms_recover_both_anomalies() {
    let plan = FaultPlan::concurrent_storms(0xd5_2005);
    let feed = plan.build_feed();
    assert!(feed.len() > 1_000, "feed too small to stress the pipeline");

    let started = Instant::now();
    let mut handle = RealtimeDetector::spawn(spawn_config(OverloadPolicy::Block));
    for (i, (msg, time)) in feed.iter().enumerate() {
        if let Some(pause) = plan.stall_at(i) {
            std::thread::sleep(pause);
        }
        handle
            .ingest_update(msg, *time)
            .unwrap_or_else(|_| panic!("pipeline died at feed item {i}"));
        if i % 997 == 0 {
            let live = handle.stats();
            assert!(live.accounts_exactly(), "mid-run ledger broken: {live}");
        }
        assert!(started.elapsed() < DEADLINE, "livelock at item {i}");
    }
    let (reports, stats) = handle.finish();
    assert!(stats.accounts_exactly(), "final ledger broken: {stats}");
    assert_eq!(stats.shed_events, 0, "Block must never shed: {stats}");
    assert_eq!(
        stats.ingested,
        stats.analyzed + stats.dropped_events,
        "quiescent accounting broken: {stats}"
    );

    // Each injected anomaly (storm via AS 666, storm via AS 777) must
    // surface as its own report family; no report may mix the two — the
    // stems are disjoint by construction.
    let family_a: Vec<_> = reports
        .iter()
        .filter(|r| r.common_portion.contains("666"))
        .collect();
    let family_b: Vec<_> = reports
        .iter()
        .filter(|r| r.common_portion.contains("777"))
        .collect();
    assert!(
        !family_a.is_empty(),
        "flapper-666 storm produced no reports"
    );
    assert!(
        !family_b.is_empty(),
        "flapper-777 storm produced no reports"
    );
    assert!(
        !reports
            .iter()
            .any(|r| r.common_portion.contains("666") && r.common_portion.contains("777")),
        "a report merged the two injected anomalies"
    );
    // Concurrency, not coincidence: some 666-report overlaps some
    // 777-report in time.
    assert!(
        family_a.iter().any(|a| family_b
            .iter()
            .any(|b| a.start <= b.end && b.start <= a.end)),
        "the two anomaly families never overlapped in time"
    );
}

/// Kill-the-consumer leg: the concurrent-storm feed with a repeating
/// injected consumer panic. The supervisor must restore the checkpoint and
/// replay the in-flight ring every time: the extended ledger closes at
/// every sampled instant *including mid-restart*, nothing is lost
/// (`lost_events` stays within the checkpoint-interval bound — here zero,
/// because the supervisor never gives up), and both injected anomaly
/// families still surface in the final report set.
#[test]
fn soak_consumer_panic_recovers_and_accounts() {
    const INTERVAL: usize = 64;
    let plan = FaultPlan::concurrent_storms(0xd5_2005).with_consumer_panic(500, 3);
    let feed = plan.build_feed();
    let panic_spec = plan.consumer_panic.expect("plan arms the panic");

    let config = spawn_config(OverloadPolicy::Block)
        .with_supervisor(
            SupervisorConfig::default()
                .with_checkpoint_interval(INTERVAL)
                .with_backoff(Duration::from_millis(2)),
        )
        .with_fault(PanicInjection {
            after_events: panic_spec.after_events,
            repeat: panic_spec.repeat,
        });
    let started = Instant::now();
    let mut handle = RealtimeDetector::spawn(config);
    for (i, (msg, time)) in feed.iter().enumerate() {
        if let Some(pause) = plan.stall_at(i) {
            std::thread::sleep(pause);
        }
        handle
            .ingest_update(msg, *time)
            .unwrap_or_else(|_| panic!("pipeline died at feed item {i}"));
        if i % 997 == 0 {
            let live = handle.stats();
            assert!(
                live.accounts_exactly(),
                "mid-run ledger broken at item {i}: {live}"
            );
        }
        assert!(started.elapsed() < DEADLINE, "livelock at item {i}");
    }
    assert!(handle.is_alive(), "supervisor must survive the panics");

    let (reports, stats) = handle.finish();
    assert_eq!(
        stats.restarts,
        u64::from(panic_spec.repeat),
        "every injected panic must surface as a restart: {stats}"
    );
    assert!(stats.replayed_events > 0, "{stats}");
    assert!(
        stats.lost_events <= INTERVAL as u64,
        "loss bound broken: {stats}"
    );
    assert_eq!(
        stats.lost_events, 0,
        "a recovered run must lose nothing: {stats}"
    );
    assert!(stats.accounts_exactly(), "final ledger broken: {stats}");
    assert!(stats.reports_account_exactly(), "report ledger: {stats}");
    assert_eq!(stats.queued, 0, "{stats}");
    assert_eq!(stats.replayed_in_flight, 0, "{stats}");
    assert_eq!(stats.shed_events, 0, "Block must never shed: {stats}");

    // The restarts must not cost detection: both storm families recovered.
    assert!(
        reports.iter().any(|r| r.common_portion.contains("666")),
        "flapper-666 family lost across restarts"
    );
    assert!(
        reports.iter().any(|r| r.common_portion.contains("777")),
        "flapper-777 family lost across restarts"
    );
}

/// Shard count for the sharded soak legs: enough that the two storm
/// families and the baseline keyspace spread over several consumers.
const SHARDS: usize = 4;

/// Routing-key width for the sharded legs: 16 leading prefix bits, so the
/// two storm families (30.0.0.0/16 vs 30.1.0.0/16) are distinct keys and
/// the baseline /16s spread.
const SHARD_RANGE_BITS: u8 = 16;

/// The shard every event whose AS path contains `needle` routes to —
/// asserting on the way that the whole family co-locates (the router's
/// contract: one key, one shard, full analysis context).
fn shard_of(router: &ShardRouter, feed: &[(UpdateMessage, Timestamp)], needle: &str) -> usize {
    let mut collector = Collector::new();
    let mut shards = std::collections::BTreeSet::new();
    for (msg, time) in feed {
        for event in collector.apply_update(msg, *time) {
            if event.attrs.as_path.to_string().contains(needle) {
                shards.insert(router.route_event(&event));
            }
        }
    }
    assert_eq!(
        shards.len(),
        1,
        "family {needle} must co-locate on one shard, got {shards:?}"
    );
    *shards.iter().next().expect("family present in feed")
}

/// Kill-one-shard leg: the concurrent-storm feed through a 4-shard
/// pipeline with a repeating panic aimed at the shard hosting the
/// flapper-666 storm. The killed shard's supervisor must absorb every
/// panic (checkpoint restore + ring replay, nothing lost), the global
/// ledger — the sum of the per-shard ledgers — must close at every sampled
/// instant including mid-restart, and fault isolation must be total: every
/// sibling shard's ledger is *identical* to a fault-free run's, and both
/// storm families surface in the merged incidents.
#[test]
fn soak_kill_one_shard_recovers_and_isolates() {
    const INTERVAL: usize = 64;
    let base_plan = FaultPlan::concurrent_storms(0xd5_2005);
    let feed = base_plan.build_feed();
    let router = ShardRouter::new(SHARDS).with_range_bits(SHARD_RANGE_BITS);
    let target = shard_of(&router, &feed, "666 7007");
    let sibling_storm = shard_of(&router, &feed, "777 8008");
    assert_ne!(
        target, sibling_storm,
        "the two storms must land on distinct shards for the isolation claim"
    );

    let spawn = spawn_config(OverloadPolicy::Block).with_supervisor(
        SupervisorConfig::default()
            .with_checkpoint_interval(INTERVAL)
            .with_backoff(Duration::from_millis(2)),
    );
    let sharded = |fault: Option<(usize, PanicInjection)>| {
        let mut config =
            ShardedConfig::new(SHARDS, spawn.clone()).with_range_bits(SHARD_RANGE_BITS);
        if let Some((shard, injection)) = fault {
            config = config.with_shard_fault(shard, injection);
        }
        config
    };

    // Oracle for the isolation claim: the same feed with no fault. Under
    // Block policy the per-shard ledgers are deterministic, so "sibling
    // untouched" can be asserted as ledger *equality*, not just zero
    // restarts.
    let mut baseline = ShardedPipeline::spawn(sharded(None));
    for (i, (msg, time)) in feed.iter().enumerate() {
        baseline
            .ingest_update(msg, *time)
            .unwrap_or_else(|_| panic!("baseline died at feed item {i}"));
    }
    let baseline_run = baseline.finish();

    let plan = base_plan.with_targeted_consumer_panic(target, 400, 3);
    let panic_spec = plan.consumer_panic.expect("plan arms the panic");
    let started = Instant::now();
    let mut pipeline = ShardedPipeline::spawn(sharded(Some((
        panic_spec.shard.expect("targeted"),
        PanicInjection {
            after_events: panic_spec.after_events,
            repeat: panic_spec.repeat,
        },
    ))));
    let mut max_queue = 0usize;
    for (i, (msg, time)) in feed.iter().enumerate() {
        if let Some(pause) = plan.stall_at(i) {
            std::thread::sleep(pause);
        }
        pipeline
            .ingest_update(msg, *time)
            .unwrap_or_else(|_| panic!("sharded pipeline died at feed item {i}"));
        max_queue = max_queue.max(pipeline.max_queue_len());
        if i % 997 == 0 {
            let live = pipeline.stats();
            assert!(
                live.accounts_exactly(),
                "mid-run global ledger broken at item {i}: {live}"
            );
        }
        assert!(started.elapsed() < DEADLINE, "livelock at item {i}");
    }
    assert!(
        pipeline.is_shard_alive(target),
        "killed shard must recover within its restart budget"
    );
    assert_eq!(pipeline.live_shards(), SHARDS, "no shard may quarantine");
    assert!(max_queue <= CAPACITY, "a shard queue grew to {max_queue}");

    let run = pipeline.finish();
    let stats = &run.stats;
    assert!(stats.accounts_exactly(), "final global ledger: {stats}");
    assert!(stats.reports_account_exactly(), "report ledger: {stats}");
    assert!(stats.quarantined_shards().is_empty(), "{stats}");

    let killed = &stats.shards[target].stats;
    assert_eq!(
        killed.restarts,
        u64::from(panic_spec.repeat),
        "every injected panic must surface as a restart on the killed shard: {stats}"
    );
    assert!(killed.replayed_events > 0, "{stats}");
    assert!(
        killed.lost_events <= INTERVAL as u64,
        "loss bound broken: {stats}"
    );
    assert_eq!(
        killed.lost_events, 0,
        "a recovered shard must lose nothing: {stats}"
    );
    // Total fault isolation: every sibling's ledger is identical to the
    // fault-free run's — the fault did not leak a single counter.
    for (k, shard) in stats.shards.iter().enumerate() {
        if k == target {
            continue;
        }
        assert_eq!(shard.stats.restarts, 0, "sibling {k} restarted: {stats}");
        assert_eq!(
            shard.stats, baseline_run.stats.shards[k].stats,
            "sibling {k}'s ledger diverged from the fault-free run"
        );
    }
    // The restarts cost no detection: both storm families are in the
    // merged incidents — 666 rode through the restarts on the killed
    // shard, 777 was never disturbed on its sibling.
    assert!(
        run.incidents
            .iter()
            .any(|g| g.report.common_portion.contains("666")),
        "flapper-666 family lost across shard restarts"
    );
    assert!(
        run.incidents
            .iter()
            .any(|g| g.report.common_portion.contains("777")),
        "flapper-777 family lost on an undisturbed sibling"
    );
}

/// Quarantine leg: same sharded setup, but the targeted panic repeats
/// past the shard's restart budget. The shard must be quarantined — not
/// close the pipeline: ingest keeps succeeding, the global ledger closes
/// at every snapshot *after* the quarantine (the dead shard's keyspace
/// counts into its `quarantine_shed`), per-shard loss respects the
/// checkpoint-interval bound, the quarantine's root cause survives in
/// `panic_causes`, and the sibling storm family still surfaces.
#[test]
fn soak_shard_quarantine_bounds_loss_and_spares_siblings() {
    const INTERVAL: usize = 64;
    const MAX_RESTARTS: u32 = 2;
    let base_plan = FaultPlan::concurrent_storms(0xd5_2005);
    let feed = base_plan.build_feed();
    let router = ShardRouter::new(SHARDS).with_range_bits(SHARD_RANGE_BITS);
    let target = shard_of(&router, &feed, "666 7007");
    let sibling_storm = shard_of(&router, &feed, "777 8008");
    assert_ne!(target, sibling_storm);

    // The panic never burns out, so the shard's supervisor exhausts its
    // budget mid-feed and gives up.
    let plan = base_plan.with_targeted_consumer_panic(target, 150, u32::MAX);
    let panic_spec = plan.consumer_panic.expect("plan arms the panic");
    let spawn = spawn_config(OverloadPolicy::Block).with_supervisor(
        SupervisorConfig::default()
            .with_max_restarts(MAX_RESTARTS)
            .with_checkpoint_interval(INTERVAL)
            .with_backoff(Duration::from_millis(2)),
    );
    let config = ShardedConfig::new(SHARDS, spawn)
        .with_range_bits(SHARD_RANGE_BITS)
        .with_shard_fault(
            panic_spec.shard.expect("targeted"),
            PanicInjection {
                after_events: panic_spec.after_events,
                repeat: panic_spec.repeat,
            },
        );
    let started = Instant::now();
    let mut pipeline = ShardedPipeline::spawn(config);
    for (i, (msg, time)) in feed.iter().enumerate() {
        if let Some(pause) = plan.stall_at(i) {
            std::thread::sleep(pause);
        }
        // Ingest must keep succeeding: one quarantined shard degrades its
        // keyspace, it does not close the pipeline.
        pipeline
            .ingest_update(msg, *time)
            .unwrap_or_else(|_| panic!("pipeline closed at feed item {i}"));
        if i % 997 == 0 {
            let live = pipeline.stats();
            assert!(
                live.accounts_exactly(),
                "global ledger broken at item {i} (incl. post-quarantine): {live}"
            );
        }
        assert!(started.elapsed() < DEADLINE, "livelock at item {i}");
    }
    assert!(
        pipeline.is_quarantined(target),
        "the killed shard must have exhausted its budget and quarantined"
    );
    assert_eq!(pipeline.live_shards(), SHARDS - 1);

    // The root cause survives: the quarantined shard's panic record shows
    // the full restart count at give-up.
    let causes = pipeline.panic_causes();
    let cause = causes
        .iter()
        .find(|p| p.shard == target)
        .expect("quarantined shard has a recorded cause");
    assert_eq!(
        cause.restarts,
        u64::from(MAX_RESTARTS) + 1,
        "give-up happens at max_restarts + 1 panics"
    );
    assert!(
        cause.cause.contains("injected"),
        "cause must be the injected panic: {}",
        cause.cause
    );

    let run = pipeline.finish();
    let stats = &run.stats;
    assert!(stats.accounts_exactly(), "final global ledger: {stats}");
    assert!(stats.reports_account_exactly(), "report ledger: {stats}");
    assert_eq!(stats.quarantined_shards(), vec![target], "{stats}");

    let killed = &stats.shards[target];
    assert!(killed.quarantined);
    assert!(
        killed.quarantine_shed > 0,
        "the dead shard's keyspace kept producing events: {stats}"
    );
    assert!(
        killed.stats.lost_events <= INTERVAL as u64,
        "per-shard loss bound broken: {stats}"
    );
    // Siblings: never restarted, never lost or shed a thing.
    for (k, shard) in stats.shards.iter().enumerate() {
        if k == target {
            continue;
        }
        assert!(!shard.quarantined, "sibling {k} quarantined: {stats}");
        assert_eq!(shard.stats.restarts, 0, "sibling {k} restarted: {stats}");
        assert_eq!(shard.stats.lost_events, 0, "sibling {k} lost: {stats}");
        assert_eq!(shard.stats.shed_events, 0, "sibling {k} shed: {stats}");
        assert_eq!(shard.quarantine_shed, 0, "sibling {k}: {stats}");
    }
    // The quarantine is recorded in the run's panic log too.
    assert!(
        run.panics
            .iter()
            .any(|p| p.shard == target && p.restarts == u64::from(MAX_RESTARTS) + 1),
        "quarantine root cause missing from the run record"
    );
    // The sibling storm is unharmed end to end.
    assert!(
        run.incidents
            .iter()
            .any(|g| g.report.common_portion.contains("777")),
        "flapper-777 family lost on an undisturbed sibling"
    );
}

/// Protocol-realistic scale leg: a generated Gao-Rexford hierarchy under
/// MRAI pacing and a timed session FSM, perturbed by two *overlapping*
/// session-flap [`FaultPlan`]s aimed at distinct victim stubs. The
/// emergent churn — withdraw storms, MRAI-paced re-announcements, FSM
/// reconvergence — feeds the sharded pipeline, which must keep its global
/// ledger closed at every snapshot and recover *both* storm families from
/// the merged incidents. Unlike the synthetic storm legs above, nothing
/// about the update sequence is scripted here: the anomalies are whatever
/// the protocol dynamics actually produce.
fn netsim_scale_soak(ases: usize) {
    let protocol = ProtocolConfig::legacy()
        .with_mrai(MraiConfig::uniform(Timestamp::from_secs(2)))
        .with_fsm(FsmConfig::timed(
            Timestamp::from_secs(6),
            Timestamp::from_secs(2),
            Timestamp::from_millis(500),
        ));
    let (mut sim, topo) = TopologyGen::new(0xd5_2005, ases).protocol(protocol).build();
    let victims = topo.sample_stubs(2, 11);
    let (victim_a, victim_b) = (victims[0], victims[1]);
    let asn_of = |id: RouterId| {
        topo.nodes
            .iter()
            .find(|n| n.id == id)
            .expect("victim is in the topology")
            .asn
    };
    let provider_of = |id: RouterId| {
        *topo
            .providers_of(id)
            .first()
            .expect("a stub always has a provider")
    };

    // Each victim originates its own /16 family; distinct leading 16 bits,
    // so the families spread over the shard keyspace.
    const PREFIXES_PER_VICTIM: u8 = 12;
    for (family, &victim) in [(30u8, &victim_a), (40u8, &victim_b)] {
        for i in 0..PREFIXES_PER_VICTIM {
            sim.originate(
                victim,
                Prefix::from_octets(family, i, 0, 0, 16),
                Timestamp::from_millis(u64::from(i) * 100),
            );
        }
    }

    // Two independently-seeded plans whose flap windows overlap in time:
    // concurrent anomalies, not sequential ones.
    let flaps = |start_secs: u64| FlapSchedule {
        start: Timestamp::from_secs(start_secs),
        period: Timestamp::from_secs(40),
        down_time: Timestamp::from_secs(15),
        count: 3,
    };
    FaultPlan::empty(1)
        .with_session_flap(victim_a, provider_of(victim_a), flaps(500))
        .apply_to(&mut sim);
    FaultPlan::empty(2)
        .with_session_flap(victim_b, provider_of(victim_b), flaps(510))
        .apply_to(&mut sim);
    sim.run_to_completion();
    let stats = sim.stats();
    assert_eq!(stats.session_downs, 6, "both plans must flap 3 cycles each");
    assert!(
        stats.messages_delivered < sim.max_deliveries,
        "simulation livelocked"
    );
    let feed = sim.finish().collector_feed;
    assert!(
        feed.len() > 200,
        "the flap churn produced too little monitored traffic: {} updates",
        feed.len()
    );

    let started = Instant::now();
    let config = ShardedConfig::new(SHARDS, spawn_config(OverloadPolicy::Block))
        .with_range_bits(SHARD_RANGE_BITS);
    let mut pipeline = ShardedPipeline::spawn(config);
    for (i, (msg, time)) in feed.iter().enumerate() {
        pipeline
            .ingest_update(msg, *time)
            .unwrap_or_else(|_| panic!("sharded pipeline died at feed item {i}"));
        if i % 97 == 0 {
            let live = pipeline.stats();
            assert!(
                live.accounts_exactly(),
                "global ledger broken at item {i}: {live}"
            );
        }
        assert!(started.elapsed() < DEADLINE, "livelock at item {i}");
    }
    assert_eq!(
        pipeline.live_shards(),
        SHARDS,
        "no shard may die on clean churn"
    );

    let run = pipeline.finish();
    let stats = &run.stats;
    assert!(stats.accounts_exactly(), "final global ledger: {stats}");
    assert!(stats.reports_account_exactly(), "report ledger: {stats}");
    assert!(stats.quarantined_shards().is_empty(), "{stats}");
    for (k, shard) in stats.shards.iter().enumerate() {
        assert_eq!(
            shard.stats.shed_events, 0,
            "shard {k} shed under Block: {stats}"
        );
        assert_eq!(shard.stats.restarts, 0, "shard {k} restarted: {stats}");
    }

    // Both emergent storm families surface in the merged incidents: the
    // victims' origin ASes appear as stem tokens (stems render as
    // `-`-separated hops, e.g. "9-742") in some incident.
    let family_recovered = |asn: Asn| {
        run.incidents.iter().any(|g| {
            g.report
                .common_portion
                .split('-')
                .any(|token| token == asn.0.to_string())
        })
    };
    assert!(
        family_recovered(asn_of(victim_a)),
        "victim {victim_a} (AS{}) storm not recovered from {} incidents",
        asn_of(victim_a).0,
        run.incidents.len()
    );
    assert!(
        family_recovered(asn_of(victim_b)),
        "victim {victim_b} (AS{}) storm not recovered from {} incidents",
        asn_of(victim_b).0,
        run.incidents.len()
    );
}

#[test]
fn soak_netsim_thousand_as_flaps_feed_sharded_pipeline() {
    netsim_scale_soak(1_000);
}

#[test]
#[ignore = "10k-AS leg: run in release mode (CI does)"]
fn soak_netsim_ten_thousand_as_flaps_feed_sharded_pipeline() {
    netsim_scale_soak(10_000);
}

/// Adaptive leg: the storm feed through a deliberately tiny queue under
/// `OverloadPolicy::DropOldest` with adaptive control — the closed-loop
/// controller replaces the binary Degrade flip and the stolen events are
/// coalesced into weighted representatives instead of discarded. Asserts
/// the extended ledger (`+ coalesced`) closes at every snapshot, that the
/// storm actually exercised merge-on-shed (`coalesced_events > 0`), that at
/// least one storm anomaly family is recovered *at a degraded fidelity
/// level*, and that fidelity recovers to full (with the widest checkpoint
/// interval) once the storm drains.
#[test]
fn soak_adaptive_storm_coalesces_and_recovers_fidelity() {
    // Small enough that the storm saturates it constantly; the controller's
    // auto target is half of this.
    const ADAPTIVE_CAPACITY: usize = 8;
    let plan = soak_plan();
    let feed = plan.build_feed();
    assert!(feed.len() > 1_000, "feed too small to stress the pipeline");

    // Spike analyses every 50 buffered events: analysis fires *while* the
    // queue is hot (right after a full-queue drain burst), which is the
    // moment the controller has fidelity raised — the regime the binary
    // Degrade flip handled with a cliff and the controller handles with a
    // ramp.
    let pipeline = PipelineConfig {
        window: Timestamp::from_secs(20),
        min_events: 10,
        min_component_events: 4,
        spike_events: 50,
        max_carry_events: 200,
        max_carry_age: Timestamp::from_secs(120),
        ..PipelineConfig::default()
    };
    // Between two spike analyses the consumer pulls at most `spike_events`
    // events; patience above that means a fidelity descent can never
    // complete between analyses (the post-analysis full-queue sample resets
    // the calm streak), so once the storm raises the level it stays raised
    // until the feed actually quiets — which the tail below provides 600
    // calm samples for.
    let adaptive = ControllerConfig {
        recovery_patience: 64,
        ..ControllerConfig::default()
    };
    let config = SpawnConfig::new(pipeline)
        .with_capacity(ADAPTIVE_CAPACITY)
        .with_overload(OverloadPolicy::DropOldest)
        .with_adaptive(adaptive);
    // Pre-augment the update feed once so the feeding loop is pure channel
    // pressure (no per-item collector work, no stall pauses): the producer
    // must outrun the consumer for the queue to sit saturated, which is
    // the regime this leg is about.
    let mut collector = Collector::new();
    let mut storm = EventStream::new();
    for (msg, time) in &feed {
        for event in collector.apply_update(msg, *time) {
            storm.push(event);
        }
    }
    assert!(
        storm.len() > 1_000,
        "storm too small to stress the pipeline"
    );

    let started = Instant::now();
    let mut handle = RealtimeDetector::spawn(config);
    let mut max_queue = 0usize;
    for (i, event) in storm.events().iter().enumerate() {
        handle
            .ingest_event(event.clone())
            .unwrap_or_else(|_| panic!("adaptive: pipeline died at feed item {i}"));
        max_queue = max_queue.max(handle.queue_len());
        if i % 997 == 0 {
            let live = handle.stats();
            assert!(
                live.accounts_exactly(),
                "adaptive: mid-run ledger broken at item {i}: {live}"
            );
        }
        assert!(
            started.elapsed() < DEADLINE,
            "adaptive: livelock at item {i}"
        );
    }
    assert!(handle.is_alive(), "adaptive: consumer died mid-soak");
    assert!(
        max_queue <= ADAPTIVE_CAPACITY,
        "adaptive: queue grew to {max_queue}"
    );

    // Quiet tail: one event in flight at a time, so every controller sample
    // observes an empty queue and the fidelity descent is deterministic
    // (FidelityLevel::STEPS levels x recovery_patience calm samples).
    let quiet_base = storm.events().last().expect("nonempty feed").time;
    let peer = PeerId::from_octets(128, 99, 1, 1);
    let hop = RouterId::from_octets(128, 99, 0, 1);
    for i in 0..600u64 {
        while handle.queue_len() > 0 {
            assert!(
                started.elapsed() < DEADLINE,
                "adaptive: tail drain livelock"
            );
            std::thread::sleep(Duration::from_micros(200));
        }
        let event = Event::withdraw(
            Timestamp(quiet_base.0 + 1 + i),
            peer,
            Prefix::from_octets(172, 20, 0, 0, 16),
            PathAttributes::new(hop, "64500 64501".parse().expect("static path")),
        );
        handle
            .ingest_event(event)
            .unwrap_or_else(|_| panic!("adaptive: pipeline died in quiet tail at {i}"));
        if i % 97 == 0 {
            let live = handle.stats();
            assert!(
                live.accounts_exactly(),
                "adaptive: tail ledger broken at {i}: {live}"
            );
        }
    }

    let (reports, stats) = handle.finish();
    assert!(
        stats.accounts_exactly(),
        "adaptive: final ledger broken: {stats}"
    );
    assert_eq!(stats.queued, 0, "adaptive: events left queued: {stats}");
    assert!(
        stats.coalesced_events > 0,
        "the storm never exercised merge-on-shed: {stats}"
    );
    assert!(
        stats.degraded_windows > 0,
        "the controller never reduced fidelity under the storm: {stats}"
    );
    // At least one storm anomaly family survives *through* the degraded
    // regime: recovered from coalesced, reduced-fidelity analysis.
    assert!(
        reports
            .iter()
            .any(|r| r.degraded && r.common_portion.contains("666")),
        "flapper-666 family not recovered at a degraded level ({} reports)",
        reports.len()
    );
    // The quiet tail walked fidelity back to full.
    assert_eq!(
        stats.fidelity_level, 0,
        "fidelity must recover to full after the storm drains: {stats}"
    );
}

/// Stalled-subscriber harness: the producer feeds from its own thread while
/// the main thread plays a subscriber that reads nothing for the stall
/// window, then drains attentively. Returns (reports received, final stats,
/// digest, max observed report-queue length).
fn run_subscriber_stall(policy: ReportPolicy) -> (u64, PipelineStats, ReportDigest, usize) {
    const REPORT_CAPACITY: usize = 4;
    let plan = FaultPlan::storm_soak(0xd5_2005).with_subscriber_stall(Duration::from_millis(300));
    let stall = plan.subscriber_stall.expect("plan arms the stall");
    let feed = plan.build_feed();

    let config = spawn_config(OverloadPolicy::Block)
        .with_report_capacity(REPORT_CAPACITY)
        .with_report_policy(policy);
    let mut handle = RealtimeDetector::spawn(config);
    let report_rx = handle.reports().clone();
    let producer = std::thread::spawn(move || {
        for (i, (msg, time)) in feed.iter().enumerate() {
            handle
                .ingest_update(msg, *time)
                .unwrap_or_else(|_| panic!("{policy}: pipeline died at feed item {i}"));
        }
        handle
    });

    // The stall: a wedged subscriber. The report queue must stay within its
    // bound the whole time — backpressure (or shedding) does the limiting,
    // not subscriber goodwill.
    let mut max_queue = 0usize;
    let stall_end = Instant::now() + stall.duration;
    while Instant::now() < stall_end {
        max_queue = max_queue.max(report_rx.len());
        std::thread::sleep(Duration::from_millis(1));
    }

    // Attentive again: drain until the producer is done feeding.
    let mut received = 0u64;
    let started = Instant::now();
    while !producer.is_finished() {
        max_queue = max_queue.max(report_rx.len());
        if report_rx.try_recv().is_ok() {
            received += 1;
        } else {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(started.elapsed() < DEADLINE, "{policy}: drain livelock");
    }
    let handle = producer.join().expect("producer thread");
    let (rest, stats, digest) = handle.finish_with_digest();
    received += rest.len() as u64;
    // Reports the two drains raced over are already counted; nothing else
    // can be in flight after finish.
    (received, stats, digest, max_queue)
}

/// Block report policy under a stalled subscriber: the queue stays within
/// `report_capacity` and *every* emitted report is eventually delivered —
/// Block never loses or thins the anomaly record.
#[test]
fn soak_subscriber_stall_block_loses_nothing() {
    let (received, stats, digest, max_queue) = run_subscriber_stall(ReportPolicy::Block);
    assert!(max_queue <= 4, "report queue grew to {max_queue}: {stats}");
    assert_eq!(stats.report_shed, 0, "Block must never shed: {stats}");
    assert_eq!(stats.reports_digested, 0, "{stats}");
    assert!(digest.is_empty(), "{stats}");
    assert_eq!(received, stats.reports_emitted, "{stats}");
    assert_eq!(received, stats.reports_delivered, "{stats}");
    assert!(stats.reports_account_exactly(), "{stats}");
    assert!(stats.accounts_exactly(), "{stats}");
    assert!(stats.reports_emitted > 0, "{stats}");
}

/// DropOldest report policy under a stalled subscriber: bounded queue, and
/// whatever was shed is on the ledger exactly.
#[test]
fn soak_subscriber_stall_drop_oldest_accounts() {
    let (received, stats, digest, max_queue) = run_subscriber_stall(ReportPolicy::DropOldest);
    assert!(max_queue <= 4, "report queue grew to {max_queue}: {stats}");
    assert_eq!(stats.reports_digested, 0, "{stats}");
    assert!(digest.is_empty(), "{stats}");
    assert_eq!(received, stats.reports_delivered, "{stats}");
    assert!(stats.reports_account_exactly(), "{stats}");
    assert!(stats.accounts_exactly(), "{stats}");
}

/// Digest report policy under a stalled subscriber: bounded queue, and
/// every overflowing report is folded into the digest, never vanished.
#[test]
fn soak_subscriber_stall_digest_coalesces() {
    let (received, stats, digest, max_queue) = run_subscriber_stall(ReportPolicy::Digest);
    assert!(max_queue <= 4, "report queue grew to {max_queue}: {stats}");
    assert_eq!(stats.report_shed, 0, "{stats}");
    assert_eq!(stats.reports_digested, digest.coalesced, "{stats}");
    assert_eq!(
        received + digest.coalesced,
        stats.reports_emitted,
        "{stats}"
    );
    assert!(stats.reports_account_exactly(), "{stats}");
    assert!(stats.accounts_exactly(), "{stats}");
}

/// Nightly wall-clock soak (kept off the PR-blocking path via `#[ignore]`):
/// randomized seeds through the storm plan with a repeating consumer panic,
/// looping until the `SOAK_SECS` budget (default 300 s) runs out, asserting
/// the extended ledger and the loss bound every round.
#[test]
#[ignore = "wall-clock soak; run explicitly (nightly CI) with --ignored"]
fn nightly_randomized_consumer_panic_soak() {
    const INTERVAL: usize = 64;
    let budget = std::env::var("SOAK_SECS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(300);
    let deadline = Instant::now() + Duration::from_secs(budget);
    let mut seed = 0xd5_2005u64;
    let mut rounds = 0u32;
    while rounds == 0 || Instant::now() < deadline {
        // Splitmix-style seed scramble: deterministic given the start seed,
        // different plan every round.
        seed = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0x2545_f491_4f6c_dd1d);
        let after_events = 200 + seed % 900;
        let plan = FaultPlan::storm_soak(seed).with_consumer_panic(after_events, 2);
        let feed = plan.build_feed();
        let config = spawn_config(OverloadPolicy::Block)
            .with_supervisor(
                SupervisorConfig::default()
                    .with_checkpoint_interval(INTERVAL)
                    .with_backoff(Duration::from_millis(2)),
            )
            .with_fault(PanicInjection {
                after_events,
                repeat: 2,
            });
        let mut handle = RealtimeDetector::spawn(config);
        for (i, (msg, time)) in feed.iter().enumerate() {
            handle
                .ingest_update(msg, *time)
                .unwrap_or_else(|_| panic!("seed {seed:#x}: pipeline died at item {i}"));
            if i % 997 == 0 {
                let live = handle.stats();
                assert!(
                    live.accounts_exactly(),
                    "seed {seed:#x}: mid-run ledger broken: {live}"
                );
            }
        }
        let (_reports, stats) = handle.finish();
        assert!(
            stats.accounts_exactly(),
            "seed {seed:#x}: final ledger broken: {stats}"
        );
        assert!(
            stats.reports_account_exactly(),
            "seed {seed:#x}: report ledger broken: {stats}"
        );
        assert!(
            stats.lost_events <= INTERVAL as u64,
            "seed {seed:#x}: loss bound broken: {stats}"
        );
        rounds += 1;
        eprintln!(
            "soak round {rounds} (seed {seed:#x}): {} ingested, {} restarts, {} replayed",
            stats.ingested, stats.restarts, stats.replayed_events
        );
    }
    eprintln!("nightly soak: {rounds} rounds in {budget}s budget");
}

/// End-to-end corrupt-text leg: render the feed's events to the Figure-4
/// text format, mangle lines per the plan, recover what is recoverable via
/// the lossy parser, and push the survivors through the pipeline with the
/// parse errors on the ledger.
#[test]
fn soak_corrupt_text_feed_is_recovered_and_accounted() {
    let plan = soak_plan();
    let feed = plan.build_feed();

    // Reduce the update feed to augmented events with a standalone
    // collector, then to text.
    let mut collector = Collector::new();
    let mut stream = EventStream::new();
    for (msg, time) in &feed {
        for event in collector.apply_update(msg, *time) {
            stream.push(event);
        }
    }
    let clean_text = bgpscope_mrt::events_to_text(&stream);
    let (dirty_text, corrupted_lines) = plan.corrupt_text(&clean_text);
    assert!(corrupted_lines > 0, "plan corrupted nothing");

    let (recovered, errors) = text_to_events_lossy(&dirty_text);
    assert!(
        errors.len() <= corrupted_lines,
        "{} parse errors from {corrupted_lines} corrupt lines",
        errors.len()
    );
    assert!(
        recovered.len() + errors.len() >= stream.len(),
        "lost more events ({} of {}) than lines were corrupted",
        stream.len() - recovered.len(),
        stream.len()
    );

    let mut handle = RealtimeDetector::spawn(spawn_config(OverloadPolicy::Degrade));
    handle.record_parse_errors(errors.len());
    for event in recovered.events() {
        handle.ingest_event(event.clone()).expect("pipeline alive");
    }
    let (_reports, stats) = handle.finish();
    assert_eq!(stats.parse_errors, errors.len() as u64);
    assert_eq!(stats.ingested, recovered.len() as u64);
    assert!(stats.accounts_exactly(), "{stats}");
    assert_eq!(stats.shed_events, 0, "Degrade must be lossless: {stats}");
}

// ---------------------------------------------------------------------------
// Multi-source ingest soak legs: fault-injected MRT sources fanning into one
// stem pipeline under per-source supervision.
// ---------------------------------------------------------------------------

use std::io::{Cursor, Read};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bgpscope_mrt::{ArmedFaults, FaultSpec, FaultyReader};

/// Partitions the seeded storm feed's augmented events into `n` MRT
/// archives by the shard router's `(peer, prefix)` key, so announce /
/// withdraw pairs for a prefix stay on one source (each archive is a
/// self-consistent collector's view).
fn multi_source_archives(seed: u64, n: usize) -> Vec<Vec<u8>> {
    let feed = FaultPlan::storm_soak(seed).build_feed();
    let router = ShardRouter::new(n).with_range_bits(SHARD_RANGE_BITS);
    let mut collector = Collector::new();
    let mut parts: Vec<EventStream> = (0..n).map(|_| EventStream::new()).collect();
    for (msg, time) in &feed {
        for event in collector.apply_update(msg, *time) {
            parts[router.route_event(&event)].push(event);
        }
    }
    parts
        .iter()
        .map(|part| {
            let mut buf = Vec::new();
            write_events(&mut buf, part).expect("in-memory archive");
            buf
        })
        .collect()
}

/// A source whose factory rebuilds a [`FaultyReader`] over the archive on
/// every retry — one-shot faults stay fired across rebuilds because the
/// armed handle is shared.
fn faulty_source(name: &str, data: &[u8], armed: &ArmedFaults) -> SourceSpec {
    let data = data.to_vec();
    let armed = armed.clone();
    SourceSpec::new(name, move || {
        Ok(
            Box::new(FaultyReader::new(Cursor::new(data.clone()), armed.clone()))
                as Box<dyn Read + Send>,
        )
    })
}

fn multi_config() -> IngestConfig {
    IngestConfig::default()
        .with_batch_size(32)
        .with_channel_batches(4)
}

/// Retry policy for the soak legs: ms-scale backoff so retries are cheap,
/// a stall timeout far above it so backoff is never mistaken for a wedge.
fn multi_policy() -> SourcePolicy {
    SourcePolicy::default()
        .with_max_retries(6)
        .with_backoff(Duration::from_millis(2), Duration::from_millis(20))
        .with_stall_timeout(Duration::from_secs(10))
}

/// Transient-fault leg: three sources, two of them hit with injected
/// transient read errors (plus seeded short reads) that the supervisor
/// must heal by rebuild + fast-forward. The healed run is *bit-identical*
/// to the fault-free run — same anomaly reports, same stem ledger, same
/// per-source counters — with zero records skipped and every armed fault
/// actually fired.
#[test]
fn soak_multi_source_transient_faults_heal_bit_identically() {
    let archives = multi_source_archives(0xd5_2005, 3);
    assert!(archives.iter().all(|a| !a.is_empty()));

    let mut clean = MultiSourceIngest::new(multi_config(), multi_policy());
    for (i, data) in archives.iter().enumerate() {
        clean = clean.source(SourceSpec::from_bytes(format!("src{i}"), data.clone()));
    }
    let clean = clean.run().expect("fault-free run");
    assert!(
        clean.sources_account_exactly(),
        "clean run ledgers: {clean}"
    );
    assert!(
        clean.stats.ingested > 1_000,
        "feed too small: {}",
        clean.stats
    );

    let armed = [
        FaultSpec::new(0xd5_2005)
            .transient_error(archives[0].len() as u64 / 3)
            .short_reads()
            .arm(),
        FaultSpec::new(0xd5_2006)
            .transient_error(0)
            .transient_error(archives[1].len() as u64 / 2)
            .arm(),
        FaultSpec::new(0xd5_2007).arm(),
    ];
    let mut faulted = MultiSourceIngest::new(multi_config(), multi_policy());
    for (i, (data, armed)) in archives.iter().zip(&armed).enumerate() {
        faulted = faulted.source(faulty_source(&format!("src{i}"), data, armed));
    }
    let faulted = faulted.run().expect("transient faults must heal");

    assert!(!faulted.is_partial(), "no source may quarantine: {faulted}");
    assert!(faulted.sources_account_exactly(), "ledgers: {faulted}");
    assert_eq!(faulted.reports, clean.reports, "anomaly reports diverged");
    assert_eq!(faulted.stats, clean.stats, "stem ledger diverged");
    for (f, c) in faulted.sources.iter().zip(&clean.sources) {
        assert_eq!(f.records_decoded, c.records_decoded, "{f}");
        assert_eq!(f.events_decoded, c.events_decoded, "{f}");
        assert_eq!(f.events_merged, c.events_merged, "{f}");
        assert_eq!(f.events_forwarded, c.events_forwarded, "{f}");
        assert_eq!(f.records_skipped, 0, "transient faults never skip: {f}");
        assert_eq!(f.poison_skipped, 0, "{f}");
        assert_eq!(f.stall_shed, 0, "{f}");
    }
    // The faulted sources actually exercised the retry path and recovered;
    // the clean sibling never left Healthy.
    assert!(
        faulted.sources[0].source_retries > 0,
        "{}",
        faulted.sources[0]
    );
    assert!(
        faulted.sources[1].source_retries > 0,
        "{}",
        faulted.sources[1]
    );
    assert_eq!(faulted.sources[0].health, SourceHealth::Recovered);
    assert_eq!(faulted.sources[1].health, SourceHealth::Recovered);
    assert_eq!(faulted.sources[2].health, SourceHealth::Healthy);
    assert_eq!(faulted.sources[2].source_retries, 0);
    for a in &armed {
        assert_eq!(
            a.pending_transient_errors(),
            0,
            "an armed fault never fired"
        );
    }
}

/// Wedged-source leg: source 1's reader stalls forever at offset 0, so
/// the watchdog must quarantine it — and only it. Every per-source ledger
/// closes at every probe snapshot (including after the quarantine), and
/// the surviving siblings produce results identical to a baseline run
/// that never had the wedged source at all.
#[test]
fn soak_multi_source_wedged_source_quarantines_alone() {
    let archives = multi_source_archives(0xd5_2005, 3);
    let policy = multi_policy().with_stall_timeout(Duration::from_millis(150));

    // Baseline oracle: the same run without the wedged source.
    let baseline = MultiSourceIngest::new(multi_config(), policy.clone())
        .source(SourceSpec::from_bytes("src0", archives[0].clone()))
        .source(SourceSpec::from_bytes("src2", archives[2].clone()))
        .run()
        .expect("baseline run");

    // The wedge: a 60s read stall against a 150ms stall timeout. (The
    // detached worker thread sleeps it off harmlessly after the test.)
    let wedge = FaultSpec::new(0xd5_2008)
        .stall(0, Duration::from_secs(60))
        .arm();
    let post_quarantine_snapshots = Arc::new(AtomicUsize::new(0));
    let snapshots = Arc::clone(&post_quarantine_snapshots);
    let faulted = MultiSourceIngest::new(multi_config(), policy)
        .source(SourceSpec::from_bytes("src0", archives[0].clone()))
        .source(faulty_source("src1", &archives[1], &wedge))
        .source(SourceSpec::from_bytes("src2", archives[2].clone()))
        .with_probe(move |ledgers| {
            for ledger in ledgers {
                assert!(
                    ledger.accounts_exactly(),
                    "snapshot ledger broken: {ledger}"
                );
            }
            if ledgers
                .iter()
                .any(|l| l.health == SourceHealth::Quarantined)
            {
                snapshots.fetch_add(1, Ordering::Relaxed);
            }
        })
        .run()
        .expect("survivors must carry the run");

    assert!(faulted.is_partial(), "the wedge must surface as partial");
    assert!(faulted.sources_account_exactly(), "ledgers: {faulted}");
    let quarantined = faulted.quarantined_sources();
    assert_eq!(quarantined.len(), 1, "exactly one source quarantines");
    assert_eq!(quarantined[0].name, "src1");
    let cause = quarantined[0]
        .quarantine_cause
        .as_deref()
        .expect("quarantine records its cause");
    assert!(
        cause.contains("stalled"),
        "cause must name the stall: {cause}"
    );
    assert_eq!(quarantined[0].events_decoded, 0, "the wedge never decoded");
    assert!(
        post_quarantine_snapshots.load(Ordering::Relaxed) > 0,
        "the probe must observe closed ledgers after the quarantine"
    );

    // Fault isolation is total: the siblings match the baseline run that
    // never had the wedged source — reports, stem ledger, and per-source
    // counters alike.
    assert_eq!(
        faulted.reports, baseline.reports,
        "sibling reports diverged"
    );
    assert_eq!(
        faulted.stats, baseline.stats,
        "sibling stem ledger diverged"
    );
    for (f_idx, b_idx) in [(0usize, 0usize), (2, 1)] {
        let (f, b) = (&faulted.sources[f_idx], &baseline.sources[b_idx]);
        assert_eq!(f.health, SourceHealth::Healthy, "sibling disturbed: {f}");
        assert_eq!(f.records_decoded, b.records_decoded, "{f}");
        assert_eq!(f.events_decoded, b.events_decoded, "{f}");
        assert_eq!(f.events_merged, b.events_merged, "{f}");
        assert_eq!(f.events_forwarded, b.events_forwarded, "{f}");
        assert_eq!(f.source_retries, 0, "{f}");
        assert_eq!(f.stall_shed, 0, "{f}");
    }
}

/// All-sources-dead leg: every source burns through its transient retry
/// budget, so the run must fail — with the per-source root causes on the
/// error, every dead ledger closed, and nothing silently swallowed.
#[test]
fn soak_multi_source_all_dead_errors_with_per_source_causes() {
    let archives = multi_source_archives(0xd5_2005, 2);
    let policy = multi_policy()
        .with_max_retries(1)
        .with_backoff(Duration::from_millis(1), Duration::from_millis(4));
    // More one-shot faults at offset 0 than the retry budget allows.
    let armed: Vec<ArmedFaults> = (0..2u64)
        .map(|i| {
            let mut spec = FaultSpec::new(0xdead_0000 + i);
            for _ in 0..4 {
                spec = spec.transient_error(0);
            }
            spec.arm()
        })
        .collect();
    let mut ingest = MultiSourceIngest::new(multi_config(), policy);
    for (i, (data, armed)) in archives.iter().zip(&armed).enumerate() {
        ingest = ingest.source(faulty_source(&format!("src{i}"), data, armed));
    }
    match ingest.run() {
        Err(e @ IngestError::AllSourcesQuarantined { .. }) => {
            let rendered = e.to_string();
            assert!(rendered.contains("src0:"), "missing src0 cause: {rendered}");
            assert!(rendered.contains("src1:"), "missing src1 cause: {rendered}");
            let IngestError::AllSourcesQuarantined { sources, stats } = e else {
                unreachable!()
            };
            assert_eq!(stats.ingested, 0, "{stats}");
            for ledger in &sources {
                assert_eq!(ledger.health, SourceHealth::Quarantined, "{ledger}");
                assert!(ledger.accounts_exactly(), "dead ledger broken: {ledger}");
                let cause = ledger.quarantine_cause.as_deref().unwrap_or_default();
                assert!(
                    cause.contains("transient retry budget exhausted"),
                    "cause must name the exhausted budget: {cause}"
                );
            }
        }
        Ok(report) => panic!("a run with every source dead succeeded: {report}"),
        Err(other) => panic!("wrong error class: {other}"),
    }
}

/// Nightly wall-clock multi-source soak (off the PR-blocking path via
/// `#[ignore]`): randomized seeds, source counts, and transient-fault
/// placements, looping until the `SOAK_SECS` budget (default 300 s) runs
/// out, asserting bit-identity with the fault-free baseline every round.
#[test]
#[ignore = "wall-clock soak; run explicitly (nightly CI) with --ignored"]
fn nightly_randomized_multi_source_soak() {
    let budget = std::env::var("SOAK_SECS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(300);
    let deadline = Instant::now() + Duration::from_secs(budget);
    let mut seed = 0xd5_2005u64;
    let mut rounds = 0u32;
    while rounds == 0 || Instant::now() < deadline {
        seed = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0x2545_f491_4f6c_dd1d);
        let n = 2 + (seed % 3) as usize;
        let archives = multi_source_archives(seed, n);

        let mut clean = MultiSourceIngest::new(multi_config(), multi_policy());
        for (i, data) in archives.iter().enumerate() {
            clean = clean.source(SourceSpec::from_bytes(format!("src{i}"), data.clone()));
        }
        let clean = clean.run().expect("fault-free run");

        let armed: Vec<ArmedFaults> = archives
            .iter()
            .enumerate()
            .map(|(i, data)| {
                let fault_seed = seed.wrapping_add(i as u64);
                let mut spec = FaultSpec::new(fault_seed);
                if fault_seed.is_multiple_of(2) {
                    spec = spec.short_reads();
                }
                for k in 1..=1 + fault_seed % 3 {
                    spec = spec.transient_error(fault_seed.wrapping_mul(k) % data.len() as u64);
                }
                spec.arm()
            })
            .collect();
        let mut faulted = MultiSourceIngest::new(multi_config(), multi_policy());
        for (i, (data, armed)) in archives.iter().zip(&armed).enumerate() {
            faulted = faulted.source(faulty_source(&format!("src{i}"), data, armed));
        }
        let faulted = faulted.run().expect("transient faults must heal");

        assert!(!faulted.is_partial(), "seed {seed:#x}: {faulted}");
        assert!(
            faulted.sources_account_exactly(),
            "seed {seed:#x}: ledgers broken: {faulted}"
        );
        assert_eq!(
            faulted.reports, clean.reports,
            "seed {seed:#x}: reports diverged"
        );
        assert_eq!(
            faulted.stats, clean.stats,
            "seed {seed:#x}: stem ledger diverged"
        );
        for a in &armed {
            assert_eq!(
                a.pending_transient_errors(),
                0,
                "seed {seed:#x}: an armed fault never fired"
            );
        }
        rounds += 1;
        let retries: u64 = faulted.sources.iter().map(|s| s.source_retries).sum();
        eprintln!(
            "multi-source soak round {rounds} (seed {seed:#x}): {n} sources, {} ingested, {retries} retries",
            faulted.stats.ingested
        );
    }
    eprintln!("nightly multi-source soak: {rounds} rounds in {budget}s budget");
}

/// A collision-free recording base for the replay soak legs.
fn soak_recording_base(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("bgpscope-soak-rec-{tag}-{}", std::process::id()))
}

fn cleanup_recording(base: &std::path::Path) {
    let _ = std::fs::remove_file(base);
    let mut k = 0;
    loop {
        let seg = base.with_file_name(format!(
            "{}.seg{k}",
            base.file_name().unwrap().to_string_lossy()
        ));
        if std::fs::remove_file(seg).is_err() {
            break;
        }
        k += 1;
    }
}

/// The kill-the-consumer soak with a recorder armed: every injected panic
/// must surface as a [`Frame::Restart`] in the recording, and re-driving
/// the recording must reproduce the post-restart ledger and report stream
/// bit-identically — a crashed-and-recovered run is a replayable artifact.
#[test]
fn soak_record_during_consumer_kill_replays_post_restart_ledger() {
    const INTERVAL: usize = 64;
    let plan = FaultPlan::concurrent_storms(0xd5_2005).with_consumer_panic(500, 3);
    let feed = plan.build_feed();
    let panic_spec = plan.consumer_panic.expect("plan arms the panic");
    let base = soak_recording_base("kill");

    let config = spawn_config(OverloadPolicy::Block)
        .with_supervisor(
            SupervisorConfig::default()
                .with_checkpoint_interval(INTERVAL)
                .with_backoff(Duration::from_millis(2)),
        )
        .with_fault(PanicInjection {
            after_events: panic_spec.after_events,
            repeat: panic_spec.repeat,
        })
        .with_recorder(RecorderConfig::new(&base).with_label("soak kill-the-consumer"));
    let started = Instant::now();
    let mut handle = RealtimeDetector::spawn(config);
    for (i, (msg, time)) in feed.iter().enumerate() {
        if let Some(pause) = plan.stall_at(i) {
            std::thread::sleep(pause);
        }
        handle
            .ingest_update(msg, *time)
            .unwrap_or_else(|_| panic!("pipeline died at feed item {i}"));
        assert!(started.elapsed() < DEADLINE, "livelock at item {i}");
    }
    let (live_reports, live_stats) = handle.finish();
    assert_eq!(live_stats.restarts, u64::from(panic_spec.repeat));
    assert!(live_stats.accounts_exactly(), "{live_stats}");

    let mut replay = Replay::load(&base).expect("recording of a crashed run loads");
    assert!(!replay.truncated(), "the seal completed");
    // Every restart the supervisor performed is in the recording.
    let restart_log = replay.restart_log();
    assert_eq!(restart_log.len() as u64, live_stats.restarts);
    assert!(
        restart_log
            .iter()
            .all(|(_, cause, gave_up)| { cause.contains("injected") && !gave_up }),
        "restart causes survive into the recording: {restart_log:?}"
    );
    replay.to_end().expect("replay the crashed run");
    assert_eq!(
        replay.stats(),
        live_stats,
        "replay reproduces the post-restart ledger exactly"
    );
    let rendered_live: Vec<String> = live_reports.iter().map(ToString::to_string).collect();
    let rendered_replay: Vec<String> = replay.reports().iter().map(ToString::to_string).collect();
    assert_eq!(rendered_replay, rendered_live);
    let rendered_recomputed: Vec<String> = replay
        .recomputed_reports()
        .iter()
        .map(ToString::to_string)
        .collect();
    assert_eq!(rendered_recomputed, rendered_live);
    cleanup_recording(&base);
}

/// The truncated-recording soak: tear the final segment mid-frame (the
/// recorder's process died mid-write) at several cut depths. Replay must
/// recover the complete-frame prefix, report `truncated`, drive to its
/// end without panicking — and the recovered prefix must match a
/// prefix replay of the intact recording.
#[test]
fn soak_truncated_recording_recovers_prefix_and_never_panics() {
    let plan = soak_plan();
    let feed = plan.build_feed();
    let base = soak_recording_base("torn");

    let config = spawn_config(OverloadPolicy::Block)
        .with_supervisor(SupervisorConfig::default().with_checkpoint_interval(64))
        .with_recorder(
            RecorderConfig::new(&base)
                .with_frames_per_segment(256)
                .with_label("soak torn-tail"),
        );
    let mut handle = RealtimeDetector::spawn(config);
    for (i, (msg, time)) in feed.iter().enumerate() {
        handle
            .ingest_update(msg, *time)
            .unwrap_or_else(|_| panic!("pipeline died at feed item {i}"));
    }
    let _ = handle.finish();

    let mut last = 0;
    loop {
        let seg = base.with_file_name(format!(
            "{}.seg{}",
            base.file_name().unwrap().to_string_lossy(),
            last + 1
        ));
        if !seg.exists() {
            break;
        }
        last += 1;
    }
    let seg = base.with_file_name(format!(
        "{}.seg{last}",
        base.file_name().unwrap().to_string_lossy()
    ));
    let intact = std::fs::read_to_string(&seg).expect("final segment readable");

    for cut_num in 1..=3u64 {
        // Tear at 1/4, 2/4, 3/4 of the final segment — always mid-line
        // unless the cut happens to land on a boundary, which is fine too.
        let keep = (intact.len() as u64 * cut_num / 4) as usize;
        std::fs::write(&seg, &intact[..keep]).expect("tear the tail");
        let mut torn = Replay::load(&base)
            .unwrap_or_else(|e| panic!("torn recording (cut {cut_num}) must load: {e}"));
        assert!(torn.truncated(), "cut {cut_num} reports truncation");
        assert!(torn.end_stats().is_none(), "no End frame survives a tear");
        torn.to_end()
            .unwrap_or_else(|e| panic!("torn replay (cut {cut_num}) must not fail: {e}"));

        // The recovered prefix is exactly the intact recording's prefix.
        std::fs::write(&seg, &intact).expect("restore the segment");
        let mut oracle = Replay::load(&base).expect("intact recording loads");
        assert!(!oracle.truncated());
        oracle
            .seek_events(torn.events_total())
            .expect("seek the oracle to the torn prefix");
        assert_eq!(torn.detector_stats(), oracle.detector_stats());
        let torn_reports: Vec<String> = torn.reports().iter().map(ToString::to_string).collect();
        let oracle_reports: Vec<String> =
            oracle.reports().iter().map(ToString::to_string).collect();
        // The tear can drop trailing Report frames recorded after the last
        // complete Event frame; the oracle prefix can therefore carry at
        // most as many reports.
        assert!(
            torn_reports.len() <= oracle_reports.len(),
            "cut {cut_num}: torn reports exceed oracle"
        );
        assert_eq!(
            torn_reports[..],
            oracle_reports[..torn_reports.len()],
            "cut {cut_num}: recovered prefix diverged"
        );
    }
    cleanup_recording(&base);
}
