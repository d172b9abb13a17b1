//! Anomaly classification and the end-to-end detection pipeline.
//!
//! Stemming produces *components* — correlated bundles of routing change —
//! but an operator wants to know what kind of trouble a component is. This
//! crate classifies components into the paper's anomaly taxonomy (session
//! reset, route leak, continuous flap, persistent MED oscillation, origin
//! hijack, mass withdrawal) using structural signatures, and provides the
//! realtime pipeline the paper's §III-C performance table is about: raw
//! updates → collector augmentation → windowed Stemming → classified
//! reports, fast enough to keep up with a Tier-1's feed.
//!
//! # Example
//!
//! ```
//! use bgpscope_anomaly::{classify, AnomalyKind};
//! use bgpscope_bgp::{Event, EventStream, PathAttributes, PeerId, RouterId, Timestamp};
//! use bgpscope_stemming::Stemming;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A withdrawal storm: every prefix from one peer withdrawn at once.
//! let peer = PeerId::from_octets(1, 1, 1, 1);
//! let hop = RouterId::from_octets(2, 2, 2, 2);
//! let mut stream = EventStream::new();
//! for i in 0..50u8 {
//!     stream.push(Event::withdraw(
//!         Timestamp::from_millis(i as u64 * 10),
//!         peer,
//!         bgpscope_bgp::Prefix::from_octets(10, i, 0, 0, 16),
//!         PathAttributes::new(hop, "701 1299".parse()?),
//!     ));
//! }
//! let result = Stemming::new().decompose(&stream);
//! let verdict = classify(&result.components()[0], &stream);
//! assert_eq!(verdict.kind, AnomalyKind::SessionReset);
//! # Ok(())
//! # }
//! ```

pub mod classify;
pub mod control;
pub mod igp;
pub mod pipeline;
pub mod replay;
pub mod report;
pub mod scan;
pub mod shard;
pub mod supervision;

pub use classify::{classify, AnomalyKind, Verdict};
pub use control::{
    stemming_at_level, CoalesceBuffer, Controller, ControllerConfig, FidelityLevel, Fold,
};
pub use igp::enrich_with_igp;
pub use pipeline::{
    DegradeConfig, DetectorCounters, OverloadPolicy, PanicInjection, PipelineCheckpoint,
    PipelineClosed, PipelineConfig, PipelineHandle, PipelineStats, RealtimeDetector, SpawnConfig,
    StatsProbe, SupervisorConfig, WeightedEvent,
};
pub use replay::{
    Frame, Hotspot, Manifest, RecorderConfig, Replay, ReplayError, Timeline, TimelineBucket,
    RECORDING_VERSION,
};
pub use report::AnomalyReport;
pub use scan::{scan_deaggregation, scan_moas, DeaggregationBurst, MoasConflict};
pub use shard::{
    merge_incidents, GlobalIncident, ShardPanic, ShardRouter, ShardSnapshot, ShardedConfig,
    ShardedObserver, ShardedPipeline, ShardedRun, ShardedStats,
};
pub use supervision::{Health, RestartPolicy, Signal};
