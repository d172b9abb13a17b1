//! Shape checks: the properties the evaluation section depends on — scaling
//! behavior, dataset proportions, and real-time margins.

use std::time::Instant;

use bgpscope::prelude::*;

/// Berkeley's counts scale ~linearly with the scale knob (Table I(a)'s
/// 23k / 115k / 230k route columns are scale 1 / 5 / 10).
#[test]
fn berkeley_scaling_is_linear() {
    let r1 = Berkeley::with_scale(0.02).routes().len();
    let r5 = Berkeley::with_scale(0.10).routes().len();
    let ratio = r5 as f64 / r1 as f64;
    assert!((4.0..6.0).contains(&ratio), "ratio {ratio}");
}

/// ISP-Anon's route generator hits its target counts.
#[test]
fn isp_anon_counts() {
    let isp = IspAnon::with_scale(0.02);
    let n_routes = isp.routes_iter().count();
    let per_prefix = n_routes as f64 / isp.total_prefixes() as f64;
    assert!(
        (4.0..11.0).contains(&per_prefix),
        "routes/prefix {per_prefix}"
    );
    // The paper: 1.5M routes / 200k prefixes = 7.5.
}

/// Stemming stays comfortably real-time: decomposing a 10k-event stream
/// spanning minutes takes well under a second of compute.
#[test]
fn stemming_realtime_margin() {
    let churn = ChurnGenerator::generic(3, 2_000);
    let stream = churn.events(Timestamp::ZERO, Timestamp::from_secs(600), 10_000);
    let started = Instant::now();
    let result = Stemming::new().decompose(&stream);
    let elapsed = started.elapsed();
    assert!(result.total_events() == 10_000);
    assert!(
        elapsed.as_secs_f64() < 10.0,
        "decompose took {elapsed:?} for a 600 s window"
    );
}

/// TAMP picture construction scales to the full Berkeley table quickly.
#[test]
fn tamp_picture_realtime_margin() {
    let routes = Berkeley::with_scale(1.0).routes();
    let started = Instant::now();
    let mut builder = GraphBuilder::new("Berkeley");
    for r in &routes {
        builder.add(RouteInput::from_route(r));
    }
    let g = prune_flat(&builder.finish(), 0.05);
    let elapsed = started.elapsed();
    assert!(g.total_prefix_count() > 10_000);
    assert!(
        elapsed.as_secs_f64() < 10.0,
        "picture took {elapsed:?} for {} routes",
        routes.len()
    );
}

/// Animation consolidation: regardless of how many events the incident has,
/// the movie is always 750 frames, and per-frame deltas cover every change.
#[test]
fn animation_fixed_duration_consolidation() {
    for n_events in [10usize, 1_000, 20_000] {
        let churn = ChurnGenerator::generic(7, 500);
        let stream = churn.events(Timestamp::ZERO, Timestamp::from_secs(3_600), n_events);
        let animation = Animator::new("shape").animate(&stream);
        assert_eq!(animation.frame_count(), 750, "n_events={n_events}");
        // Frame clocks are within the incident timerange.
        assert!(animation
            .frames()
            .iter()
            .all(|f| f.clock <= animation.timerange()));
    }
}

/// The flap incident's per-flap event cost matches the paper's shape: a
/// constant-ish number of events per flap (the paper saw ~200 per flap with
/// ~50 PoPs; ours scales with the PoP count).
#[test]
fn flap_event_cost_scales_with_cycles() {
    let isp = IspAnon::small();
    let a = isp.customer_flap_incident(3, 4).len();
    let b = isp.customer_flap_incident(3, 8).len();
    let per_flap_a = a as f64 / 4.0;
    let per_flap_b = b as f64 / 8.0;
    assert!(
        (per_flap_b / per_flap_a - 1.0).abs() < 0.5,
        "per-flap cost drifted: {per_flap_a} vs {per_flap_b}"
    );
}

/// Event rate spikes stand out of the grass in the long-run stream, and the
/// flap hides below the spike threshold (Figure 8's story).
#[test]
fn fig8_spikes_and_grass() {
    let isp = IspAnon::small();
    let stream = isp.long_run_stream(30, 15_000);
    let series = EventRateMeter::new(Timestamp::from_secs(6 * 3600)).series(&stream);
    let spikes = series.spikes(3.0);
    assert!(!spikes.is_empty(), "no spikes found");
    assert!(series.grass_level() > 0, "grass is empty");
    // The spikes cover only a small part of the period.
    let spike_buckets: u64 = spikes
        .iter()
        .map(|s| (s.end.saturating_since(s.start)).as_micros() / series.bucket_width().as_micros())
        .sum();
    assert!(
        (spike_buckets as usize) < series.counts().len() / 4,
        "{spike_buckets} spike buckets of {}",
        series.counts().len()
    );
}

/// Runs the realtime detector over `events` (time-sorted) at one window
/// width: the time-scale is the window, nothing else.
fn detect_at(window_secs: u64, events: Vec<Event>) -> Vec<AnomalyReport> {
    let mut detector = RealtimeDetector::new(PipelineConfig {
        window: Timestamp::from_secs(window_secs),
        ..PipelineConfig::default()
    });
    let mut reports: Vec<AnomalyReport> = events
        .into_iter()
        .flat_map(|e| detector.ingest_event(e))
        .collect();
    reports.extend(detector.finish());
    reports
}

fn withdraw(t_secs: u64, prefix: &str, path: &str) -> Event {
    Event::withdraw(
        Timestamp::from_secs(t_secs),
        PeerId::from_octets(1, 1, 1, 1),
        prefix.parse().unwrap(),
        PathAttributes::new(RouterId(9), path.parse().unwrap()),
    )
}

/// Multi-timescale analysis (§III-B): a slow single-prefix anomaly
/// dominates a day-wide window and is only ever a fragment of a
/// 15-minute one.
#[test]
fn multiscale_detection() {
    // A slow flap: 1 event/10 min for a day on one prefix + noise bursts.
    let mut events: Vec<Event> = (0..144u64)
        .map(|i| withdraw(i * 600, "4.5.0.0/16", "2 9"))
        .collect();
    let churn = ChurnGenerator::generic(11, 300);
    events.extend(churn.events(Timestamp::ZERO, Timestamp::from_secs(86_400), 400));
    events.sort_by_key(|e| e.time);
    let flap = |r: &&AnomalyReport| r.sample_prefixes.iter().any(|p| p == "4.5.0.0/16");

    // At day scale the slow flap is the strongest component, whole.
    let day = detect_at(86_400, events.clone());
    let top = day.first().expect("day-scale report");
    assert!(flap(&top), "top report {top:?}");
    assert_eq!(top.event_count, 144);
    assert_eq!(top.prefix_count, 1);

    // At 15 minutes it never leads with more than a fragment of itself.
    let short = detect_at(900, events);
    let largest = short.iter().filter(flap).map(|r| r.event_count).max();
    assert!(
        largest.is_some_and(|n| n < 144 / 4),
        "short windows saw {largest:?} flap events in one report"
    );
}

/// A 50-event burst inside one 15-minute window is reported whole when
/// the window closes.
#[test]
fn short_window_finds_a_burst() {
    let mut events: Vec<Event> = (0..50)
        .map(|i| withdraw(100 + i / 10, &format!("10.{i}.0.0/16"), "11423 209"))
        .collect();
    events.push(withdraw(90_000, "99.0.0.0/8", "7 8"));
    let reports = detect_at(900, events);
    assert_eq!(reports.len(), 1, "{reports:?}");
    assert_eq!(reports[0].event_count, 50);
    assert_eq!(reports[0].prefix_count, 50);
}

/// No events, no reports, at any scale.
#[test]
fn empty_stream_reports_nothing() {
    for window in [900, 86_400] {
        assert!(detect_at(window, Vec::new()).is_empty());
    }
}

/// Figure 9's event-volume claim: events per flap scale with the size of
/// the reflector mesh (the paper saw ~200 with ~50 PoPs; our 3-PoP mesh
/// sees proportionally fewer).
#[test]
fn events_per_flap_scale_with_pops() {
    let isp = IspAnon::small();
    let small = isp.customer_flap_incident(2, 6);
    let large = isp.customer_flap_incident(6, 6);
    let per_flap_small = small.len() as f64 / 6.0;
    let per_flap_large = large.len() as f64 / 6.0;
    assert!(
        per_flap_large > 1.8 * per_flap_small,
        "2 pops: {per_flap_small}/flap, 6 pops: {per_flap_large}/flap"
    );
}
