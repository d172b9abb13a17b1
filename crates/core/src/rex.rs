//! The `Rex` facade — the workspace's one-object equivalent of the paper's
//! Route Explorer deployment: passive collection, TAMP pictures on demand,
//! Stemming decomposition, anomaly reports, and archival.

use bgpscope_anomaly::{classify, AnomalyReport};
use bgpscope_bgp::{EventStream, Timestamp, UpdateMessage};
use bgpscope_collector::{Collector, EventRateMeter, RateSeries};
use bgpscope_mrt::MrtError;
use bgpscope_stemming::Stemming;
use bgpscope_tamp::{prune_flat, GraphBuilder, RouteInput, TampGraph};

/// A passive route explorer: feed it raw updates, ask it for pictures,
/// decompositions and reports.
///
/// # Example
///
/// ```
/// use bgpscope::Rex;
/// use bgpscope_bgp::{PathAttributes, PeerId, RouterId, Timestamp, UpdateMessage};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rex = Rex::new("my-site");
/// let peer = PeerId::from_octets(10, 0, 0, 1);
/// let attrs = PathAttributes::new(RouterId::from_octets(10, 1, 0, 1), "701 1299".parse()?);
/// rex.ingest(
///     &UpdateMessage::announce(peer, attrs, ["192.0.2.0/24".parse()?]),
///     Timestamp::ZERO,
/// );
/// let picture = rex.tamp_picture(0.05);
/// assert_eq!(picture.total_prefix_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Rex {
    label: String,
    collector: Collector,
    history: EventStream,
}

impl Rex {
    /// A fresh explorer for a site called `label`.
    pub fn new(label: impl Into<String>) -> Self {
        Rex {
            label: label.into(),
            collector: Collector::new(),
            history: EventStream::new(),
        }
    }

    /// The site label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The underlying collector.
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// Every augmented event seen so far, in arrival order.
    pub fn history(&self) -> &EventStream {
        &self.history
    }

    /// Ingests one raw update, augmenting and recording its events.
    pub fn ingest(&mut self, msg: &UpdateMessage, time: Timestamp) -> usize {
        let events = self.collector.apply_update(msg, time);
        let n = events.len();
        self.history.extend(events);
        n
    }

    /// Ingests a whole feed of `(update, time)` pairs.
    pub fn ingest_feed<'a, I>(&mut self, feed: I) -> usize
    where
        I: IntoIterator<Item = &'a (UpdateMessage, Timestamp)>,
    {
        let mut n = 0;
        for (msg, t) in feed {
            n += self.ingest(msg, *t);
        }
        self.history.sort_by_time();
        n
    }

    /// A TAMP picture of the current routes, pruned at `threshold`
    /// (0.05 = the paper's default).
    pub fn tamp_picture(&self, threshold: f64) -> TampGraph {
        let mut builder = GraphBuilder::new(self.label.clone());
        for route in self.collector.snapshot(Timestamp::ZERO) {
            builder.add(RouteInput::from_route(&route));
        }
        prune_flat(&builder.finish(), threshold)
    }

    /// A TAMP picture of the routing state *as of time `t`* — the
    /// historical view REX provides ("moving to any random point in time"),
    /// reconstructed from the recorded event stream.
    pub fn tamp_picture_at(&self, t: Timestamp, threshold: f64) -> TampGraph {
        let history = bgpscope_collector::RouteHistory::build(&self.history);
        let mut builder = GraphBuilder::new(self.label.clone());
        for route in history.rib_at(t) {
            builder.add(RouteInput::from_route(&route));
        }
        prune_flat(&builder.finish(), threshold)
    }

    /// Stemming over the full recorded history.
    pub fn decompose(&self) -> bgpscope_stemming::StemmingResult {
        Stemming::new().decompose(&self.history)
    }

    /// Stemming over a time window of the history.
    pub fn decompose_window(
        &self,
        start: Timestamp,
        end: Timestamp,
    ) -> (EventStream, bgpscope_stemming::StemmingResult) {
        let window = self.history.window(start, end);
        let result = Stemming::new().decompose(&window);
        (window, result)
    }

    /// Classified anomaly reports over the full history, strongest first.
    pub fn reports(&self) -> Vec<AnomalyReport> {
        let result = self.decompose();
        result
            .components()
            .iter()
            .map(|c| AnomalyReport::new(c, classify(c, &self.history), result.symbols()))
            .collect()
    }

    /// The event-rate series of the history (the Figure 8 plot data).
    pub fn rate_series(&self, bucket: Timestamp) -> RateSeries {
        EventRateMeter::new(bucket).series(&self.history)
    }

    /// Archives the recorded history in binary MRT form.
    ///
    /// # Errors
    ///
    /// Returns [`MrtError::Io`] if the writer fails.
    pub fn archive<W: std::io::Write>(&self, writer: W) -> Result<(), MrtError> {
        bgpscope_mrt::write_events(writer, &self.history)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpscope_anomaly::AnomalyKind;
    use bgpscope_bgp::{PathAttributes, PeerId, Prefix, RouterId};

    fn feed() -> Vec<(UpdateMessage, Timestamp)> {
        let peer = PeerId::from_octets(10, 0, 0, 1);
        let attrs = PathAttributes::new(
            RouterId::from_octets(10, 1, 0, 1),
            "11423 209 701".parse().unwrap(),
        );
        let mut feed = Vec::new();
        for i in 0..30u8 {
            feed.push((
                UpdateMessage::announce(
                    peer,
                    attrs.clone(),
                    [Prefix::from_octets(10, i, 0, 0, 16)],
                ),
                Timestamp::from_secs(i as u64),
            ));
        }
        for i in 0..30u8 {
            feed.push((
                UpdateMessage::withdraw(peer, [Prefix::from_octets(10, i, 0, 0, 16)]),
                Timestamp::from_secs(100),
            ));
        }
        feed
    }

    #[test]
    fn ingest_and_report_roundtrip() {
        let mut rex = Rex::new("t");
        let n = rex.ingest_feed(&feed());
        assert_eq!(n, 60);
        assert_eq!(rex.history().len(), 60);

        let reports = rex.reports();
        assert!(!reports.is_empty());
        assert_eq!(reports[0].verdict.kind, AnomalyKind::SessionReset);
        // Every event shares the whole path, so the common portion extends
        // to the end of it and the stem is its deepest pair.
        assert_eq!(reports[0].stem, "209-701");

        // After withdrawals the picture is empty; before, it had routes.
        let picture = rex.tamp_picture(0.0);
        assert_eq!(picture.total_prefix_count(), 0);

        let series = rex.rate_series(Timestamp::from_secs(10));
        assert!(series.counts().iter().sum::<u64>() == 60);
    }

    #[test]
    fn window_decomposition() {
        let mut rex = Rex::new("t");
        rex.ingest_feed(&feed());
        let (window, result) =
            rex.decompose_window(Timestamp::from_secs(90), Timestamp::from_secs(200));
        assert_eq!(window.len(), 30); // only the withdrawal burst
        assert_eq!(result.components().len(), 1);
    }

    #[test]
    fn historical_pictures() {
        let mut rex = Rex::new("t");
        rex.ingest_feed(&feed());
        // Before the withdrawal storm, 30 prefixes; after, none.
        let before = rex.tamp_picture_at(Timestamp::from_secs(50), 0.0);
        assert_eq!(before.total_prefix_count(), 30);
        let after = rex.tamp_picture_at(Timestamp::from_secs(200), 0.0);
        assert_eq!(after.total_prefix_count(), 0);
    }

    #[test]
    fn reports_serialize_to_json() {
        let mut rex = Rex::new("t");
        rex.ingest_feed(&feed());
        let reports = rex.reports();
        let json = serde_json::to_string(&reports).expect("serializable");
        assert!(json.contains("SessionReset"));
        let back: Vec<bgpscope_anomaly::AnomalyReport> =
            serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back.len(), reports.len());
        assert_eq!(back[0].stem, reports[0].stem);
        assert_eq!(back[0].verdict.kind, reports[0].verdict.kind);
    }

    #[test]
    fn archive_roundtrip() {
        let mut rex = Rex::new("t");
        rex.ingest_feed(&feed());
        let mut buf = Vec::new();
        rex.archive(&mut buf).unwrap();
        let back = bgpscope_mrt::read_events(buf.as_slice()).unwrap();
        assert_eq!(&back, rex.history());
    }
}
