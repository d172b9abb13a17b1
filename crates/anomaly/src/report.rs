//! Operator-facing anomaly reports.

use std::fmt;

use serde::{Deserialize, Serialize};

use bgpscope_bgp::intern::SymbolTable;
use bgpscope_bgp::Timestamp;
use bgpscope_stemming::Component;

use crate::classify::Verdict;

/// One detected and classified anomaly, self-describing (all symbols
/// resolved to text so the report outlives the analysis structures).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnomalyReport {
    /// The classification.
    pub verdict: Verdict,
    /// The stem (problem location), rendered `a-b`.
    pub stem: String,
    /// The full common portion, rendered `a-b-c`.
    pub common_portion: String,
    /// Events in the component.
    pub event_count: usize,
    /// Distinct prefixes affected.
    pub prefix_count: usize,
    /// Up to ten affected prefixes, rendered.
    pub sample_prefixes: Vec<String>,
    /// When the incident started.
    pub start: Timestamp,
    /// When it ended (last event seen).
    pub end: Timestamp,
    /// Announce / withdraw split.
    pub announce_count: usize,
    /// Withdrawals in the component.
    pub withdraw_count: usize,
    /// Number of IGP events temporally adjacent to the incident, when the
    /// report has been enriched with an IGP log (see
    /// [`crate::enrich_with_igp`]); `None` = not enriched.
    pub igp_nearby: Option<usize>,
    /// True when the analysis pass that produced this report ran in the
    /// pipeline's degraded (overload) mode: the decomposition used coarser
    /// Stemming settings, so weak correlations may be missing.
    pub degraded: bool,
}

impl AnomalyReport {
    /// Builds a report from a component, its verdict, and the symbol table.
    pub fn new(component: &Component, verdict: Verdict, symbols: &SymbolTable) -> Self {
        AnomalyReport {
            verdict,
            stem: component.stem().display(symbols),
            common_portion: component.display_subsequence(symbols),
            event_count: component.event_count(),
            prefix_count: component.prefix_count(),
            sample_prefixes: component
                .prefixes
                .iter()
                .take(10)
                .map(|p| p.to_string())
                .collect(),
            start: component.start,
            end: component.end,
            announce_count: component.announce_count,
            withdraw_count: component.withdraw_count,
            igp_nearby: None,
            degraded: false,
        }
    }

    /// Marks the report as produced by a degraded-mode analysis pass.
    pub fn mark_degraded(mut self) -> Self {
        self.degraded = true;
        self
    }

    /// The incident duration.
    pub fn duration(&self) -> Timestamp {
        self.end.saturating_since(self.start)
    }
}

/// A coalesced summary of reports shed by the bounded report egress under
/// [`crate::pipeline::ReportPolicy::Digest`].
///
/// When the report queue is full, the overflowing report is folded in here
/// instead of being dropped: the anomaly record is *thinned* — individual
/// reports collapse into aggregate counts, a time envelope, and a capped
/// stem sample — but never silently truncated. The pipeline counts every
/// fold in `PipelineStats::reports_digested`, so
/// `reports_emitted == reports_delivered + report_shed + reports_digested`
/// stays exact.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ReportDigest {
    /// Reports folded into this digest.
    pub coalesced: u64,
    /// Total events across the folded reports.
    pub event_count: u64,
    /// Total announcements across the folded reports.
    pub announce_count: u64,
    /// Total withdrawals across the folded reports.
    pub withdraw_count: u64,
    /// Folded reports produced by degraded-mode analysis passes.
    pub degraded: u64,
    /// Earliest incident start among the folded reports.
    pub first_start: Option<Timestamp>,
    /// Latest incident end among the folded reports.
    pub last_end: Option<Timestamp>,
    /// Distinct stems seen, first-seen order, capped at
    /// [`ReportDigest::MAX_STEMS`] (`stems_truncated` flags overflow).
    pub stems: Vec<String>,
    /// True when more distinct stems were folded than `stems` can hold.
    pub stems_truncated: bool,
}

impl ReportDigest {
    /// Cap on the distinct stems a digest records.
    pub const MAX_STEMS: usize = 16;

    /// True when nothing has been folded in.
    pub fn is_empty(&self) -> bool {
        self.coalesced == 0
    }

    /// Folds one shed report into the digest.
    pub fn fold(&mut self, report: &AnomalyReport) {
        self.coalesced += 1;
        self.event_count += report.event_count as u64;
        self.announce_count += report.announce_count as u64;
        self.withdraw_count += report.withdraw_count as u64;
        if report.degraded {
            self.degraded += 1;
        }
        self.first_start = Some(match self.first_start {
            Some(start) => start.min(report.start),
            None => report.start,
        });
        self.last_end = Some(match self.last_end {
            Some(end) => end.max(report.end),
            None => report.end,
        });
        if !self.stems.contains(&report.stem) {
            if self.stems.len() < Self::MAX_STEMS {
                self.stems.push(report.stem.clone());
            } else {
                self.stems_truncated = true;
            }
        }
    }
}

impl fmt::Display for ReportDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "digest: empty");
        }
        writeln!(
            f,
            "digest: {} reports coalesced — {} events ({} announce / {} withdraw), {} degraded",
            self.coalesced,
            self.event_count,
            self.announce_count,
            self.withdraw_count,
            self.degraded
        )?;
        if let (Some(start), Some(end)) = (self.first_start, self.last_end) {
            writeln!(f, "  span {start} .. {end}")?;
        }
        write!(
            f,
            "  stems: {}{}",
            self.stems.join(", "),
            if self.stems_truncated { ", …" } else { "" }
        )
    }
}

impl fmt::Display for AnomalyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[{}] confidence {:.0}% — stem {} (portion {})",
            self.verdict.kind,
            self.verdict.confidence * 100.0,
            self.stem,
            self.common_portion
        )?;
        writeln!(
            f,
            "  {} events ({} announce / {} withdraw) over {} prefixes, {} .. {}",
            self.event_count,
            self.announce_count,
            self.withdraw_count,
            self.prefix_count,
            self.start,
            self.end
        )?;
        for note in &self.verdict.notes {
            writeln!(f, "  note: {note}")?;
        }
        if self.degraded {
            writeln!(
                f,
                "  degraded: analyzed under overload with coarsened Stemming"
            )?;
        }
        match self.igp_nearby {
            Some(0) => writeln!(f, "  igp: quiet around the incident")?,
            Some(n) => writeln!(
                f,
                "  igp: {n} IGP events near the incident — check link metrics"
            )?,
            None => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify, AnomalyKind};
    use bgpscope_bgp::{Event, EventStream, PathAttributes, PeerId, Prefix, RouterId};
    use bgpscope_stemming::Stemming;

    #[test]
    fn report_resolves_symbols() {
        let peer = PeerId::from_octets(128, 32, 1, 3);
        let hop = RouterId::from_octets(128, 32, 0, 66);
        let stream: EventStream = (0..10u8)
            .map(|i| {
                Event::withdraw(
                    Timestamp::from_secs(i as u64),
                    peer,
                    Prefix::from_octets(10, i, 0, 0, 16),
                    PathAttributes::new(hop, "11423 209".parse().unwrap()),
                )
            })
            .collect();
        let result = Stemming::new().decompose(&stream);
        let component = &result.components()[0];
        let verdict = classify(component, &stream);
        let report = AnomalyReport::new(component, verdict, result.symbols());
        assert_eq!(report.stem, "11423-209");
        assert_eq!(report.event_count, 10);
        assert_eq!(report.prefix_count, 10);
        assert_eq!(report.verdict.kind, AnomalyKind::SessionReset);
        assert_eq!(report.duration(), Timestamp::from_secs(9));
        let text = report.to_string();
        assert!(text.contains("session reset"));
        assert!(text.contains("11423-209"));
    }

    /// A report's serialized form, captured before stems, common portions
    /// and prefixes were rendered through one writer: every element kind —
    /// peer, nexthop, AS, prefix — in a common portion, a prefix and an
    /// origin set in a note. Rendering must not move a byte, and neither may
    /// the recording format that carries reports.
    #[test]
    fn report_json_is_pinned() {
        let peer = PeerId::from_octets(128, 32, 1, 3);
        let px: Prefix = "192.96.10.0/24".parse().unwrap();
        let stream: EventStream = (0..6u64)
            .map(|i| {
                let attrs = if i < 3 {
                    PathAttributes::new(
                        RouterId::from_octets(128, 32, 0, 70),
                        "11423 209 701".parse().unwrap(),
                    )
                } else {
                    PathAttributes::new(
                        RouterId::from_octets(128, 32, 0, 66),
                        "11423 666".parse().unwrap(),
                    )
                };
                Event::announce(Timestamp::from_secs(i), peer, px, attrs)
            })
            .collect();
        let result = Stemming::new().decompose(&stream);
        let component = &result.components()[0];
        let report = AnomalyReport::new(component, classify(component, &stream), result.symbols());
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            concat!(
                r#"{"verdict":{"kind":"OriginHijack","confidence":0.9,"notes":["prefix 192.96.10.0/24 announced by 2 distinct origin ASes: {AS666, AS701}"]},"#,
                r#""stem":"701-192.96.10.0/24","common_portion":"128.32.1.3-128.32.0.70-11423-209-701-192.96.10.0/24","#,
                r#""event_count":6,"prefix_count":1,"sample_prefixes":["192.96.10.0/24"],"start":0,"end":5000000,"#,
                r#""announce_count":6,"withdraw_count":0,"degraded":false}"#
            )
        );
        assert_eq!(crate::replay::RECORDING_VERSION, 3);
    }

    fn sample_report(stem: &str, start: u64, end: u64, events: usize) -> AnomalyReport {
        let peer = PeerId::from_octets(128, 32, 1, 3);
        let hop = RouterId::from_octets(128, 32, 0, 66);
        let stream: EventStream = (0..events)
            .map(|i| {
                Event::withdraw(
                    Timestamp::from_secs(start + (end - start) * i as u64 / events.max(2) as u64),
                    peer,
                    Prefix::from_octets(10, i as u8, 0, 0, 16),
                    PathAttributes::new(hop, "11423 209".parse().unwrap()),
                )
            })
            .collect();
        let result = Stemming::new().decompose(&stream);
        let component = &result.components()[0];
        let verdict = classify(component, &stream);
        let mut report = AnomalyReport::new(component, verdict, result.symbols());
        // The synthetic stream always stems the same way; relabel so digest
        // dedup sees distinct incidents.
        report.stem = stem.to_owned();
        report.start = Timestamp::from_secs(start);
        report.end = Timestamp::from_secs(end);
        report
    }

    #[test]
    fn digest_folds_counts_envelope_and_stems() {
        let mut digest = ReportDigest::default();
        assert!(digest.is_empty());
        digest.fold(&sample_report("a-b", 100, 200, 10));
        digest.fold(&sample_report("c-d", 50, 150, 10));
        digest.fold(&sample_report("a-b", 120, 300, 10));
        assert_eq!(digest.coalesced, 3);
        assert_eq!(digest.event_count, 30);
        assert_eq!(digest.withdraw_count, 30);
        assert_eq!(digest.first_start, Some(Timestamp::from_secs(50)));
        assert_eq!(digest.last_end, Some(Timestamp::from_secs(300)));
        // Stems dedup in first-seen order.
        assert_eq!(digest.stems, vec!["a-b".to_owned(), "c-d".to_owned()]);
        assert!(!digest.stems_truncated);
        let text = digest.to_string();
        assert!(text.contains("3 reports coalesced"), "{text}");
        assert!(text.contains("a-b, c-d"), "{text}");
    }

    #[test]
    fn digest_stem_list_is_capped_not_unbounded() {
        let mut digest = ReportDigest::default();
        for i in 0..(ReportDigest::MAX_STEMS + 5) {
            digest.fold(&sample_report(&format!("stem-{i}"), 0, 10, 5));
        }
        assert_eq!(digest.stems.len(), ReportDigest::MAX_STEMS);
        assert!(digest.stems_truncated);
        assert_eq!(digest.coalesced, (ReportDigest::MAX_STEMS + 5) as u64);
    }
}
