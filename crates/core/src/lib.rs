//! # bgpscope
//!
//! Internet routing anomaly detection and visualization — a complete Rust
//! implementation of the system described in *"Internet Routing Anomaly
//! Detection and Visualization"* (Wong, Jacobson, Alaettinoglu — DSN 2005),
//! including both of the paper's algorithms and every substrate they run on:
//!
//! * **TAMP** ([`bgpscope_tamp`]) — "one picture says 1,000,000 routes":
//!   merged per-router route trees with unique-prefix edge weights,
//!   threshold/hierarchical pruning, SVG/DOT pictures and 30-second
//!   fixed-duration animations of routing incidents.
//! * **Stemming** ([`bgpscope_stemming`]) — statistical correlation over BGP
//!   event streams: finds the strongly correlated components, their *stems*
//!   (problem locations), affected prefixes and member events, recursively.
//! * Substrates: a BGP data model with the full decision process
//!   ([`bgpscope_bgp`]), a link-state IGP ([`bgpscope_igp`]), an MRT-style
//!   archive format ([`bgpscope_mrt`]), a passive collector
//!   ([`bgpscope_collector`]), a router-config policy language
//!   ([`bgpscope_policy`]), a traffic substrate ([`bgpscope_traffic`]), a
//!   discrete-event BGP network simulator ([`bgpscope_netsim`]), and anomaly
//!   classification plus a realtime pipeline ([`bgpscope_anomaly`]).
//!
//! This crate ties them together: the [`Rex`] facade (named for the paper's
//! Route Explorer appliance), workload generation, and the two calibrated
//! scenario generators behind the paper's evaluation — [`scenarios::Berkeley`]
//! and [`scenarios::IspAnon`].
//!
//! # Quickstart
//!
//! ```
//! use bgpscope::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A small Berkeley-like network with a leaked-routes incident.
//! let berkeley = Berkeley::small();
//! let incident = berkeley.leak_incident();
//!
//! // Stemming finds the correlated components and their stems.
//! let result = Stemming::new().decompose(&incident.stream);
//! assert!(!result.components().is_empty());
//!
//! // TAMP turns the strongest component into an animation.
//! let sub = result.component_stream(&incident.stream, 0);
//! let mut animator = Animator::new("berkeley");
//! animator.seed_all(berkeley.routes().iter().map(RouteInput::from_route));
//! let animation = animator.animate(&sub);
//! assert_eq!(animation.frame_count(), 750);
//! # Ok(())
//! # }
//! ```

pub mod ingest;
pub mod rex;
pub mod scenarios;
pub mod workload;

pub use rex::Rex;

/// One-stop imports for applications.
pub mod prelude {
    pub use bgpscope_anomaly::{
        classify, enrich_with_igp, merge_incidents, scan_deaggregation, scan_moas, AnomalyKind,
        AnomalyReport, ControllerConfig, DegradeConfig, FidelityLevel, GlobalIncident, Hotspot,
        OverloadPolicy, PanicInjection, PipelineCheckpoint, PipelineClosed, PipelineConfig,
        PipelineHandle, PipelineStats, RealtimeDetector, RecorderConfig, Replay, ReplayError,
        ReportDigest, ReportPolicy, ShardPanic, ShardRouter, ShardSnapshot, ShardedConfig,
        ShardedObserver, ShardedPipeline, ShardedRun, ShardedStats, SpawnConfig, StatsProbe,
        SupervisorConfig, Timeline, TimelineBucket, WeightedEvent,
    };
    pub use bgpscope_bgp::{
        AsPath, Asn, Community, Event, EventKind, EventStream, LocalPref, Med, PathAttributes,
        PeerId, Prefix, Route, RouterId, Timestamp, UpdateMessage,
    };
    pub use bgpscope_collector::{Collector, EventRateMeter, RouteHistory, SyncedView};
    pub use bgpscope_mrt::{read_events, text_to_events, text_to_events_lossy, write_events};
    pub use bgpscope_netsim::{
        ConsumerPanic, FaultPlan, FeedStall, FlapSchedule, FsmConfig, GeneratedTopology, Injector,
        MraiConfig, PeerRelation, ProtocolConfig, SessionFlapSpec, SessionKind, SessionState, Sim,
        SimBuilder, StormSpec, SubscriberStall, TopologyGen,
    };
    pub use bgpscope_policy::{correlate_component, parse_config, PolicyEngine};
    pub use bgpscope_stemming::{RankingRule, Stemming, StemmingConfig};
    pub use bgpscope_tamp::{
        diff_graphs, prune_flat, prune_hierarchical, render_dot, render_svg, Animator,
        GraphBuilder, GraphDiff, PruneConfig, RenderConfig, RouteInput, TampGraph,
    };
    pub use bgpscope_traffic::{
        balance_by_traffic, measure_split, weighted_stemming, BalancePlan, TrafficMatrix,
        ZipfTraffic,
    };

    pub use crate::ingest::{
        ingest, AugmentMode, IngestConfig, IngestError, IngestMode, IngestReport,
        MultiSourceIngest, SourceHealth, SourceLedger, SourcePolicy, SourceSpec, StageStats,
    };
    pub use crate::rex::Rex;
    pub use crate::scenarios::{Berkeley, IncidentStream, IspAnon};
    pub use crate::workload::ChurnGenerator;
}
