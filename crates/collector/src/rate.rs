//! Event-rate metering and spike detection (Figure 8).
//!
//! Figure 8 plots the BGP event rate at ISP-Anon over three months: tall
//! spikes (session resets, leaks) over low-grade "grass" (background churn).
//! The paper's point is that the most serious anomaly — the 1.5-month
//! customer flap — hides *in the grass*, below any spike threshold, which is
//! why rate alarms alone are insufficient and Stemming is needed. The meter
//! here produces the rate series, finds spikes, and reports the grass level.

use serde::{Deserialize, Serialize};

use bgpscope_bgp::{EventStream, Timestamp};

/// A detected rate spike: a maximal run of buckets above threshold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Spike {
    /// Start time of the first bucket in the spike.
    pub start: Timestamp,
    /// End time (exclusive) of the last bucket.
    pub end: Timestamp,
    /// Total events inside the spike.
    pub events: u64,
    /// The tallest bucket's count.
    pub peak: u64,
}

/// A bucketed event-rate series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RateSeries {
    start: Timestamp,
    bucket_width: Timestamp,
    counts: Vec<u64>,
}

impl RateSeries {
    /// When the series begins.
    pub fn start(&self) -> Timestamp {
        self.start
    }

    /// The width of each bucket.
    pub fn bucket_width(&self) -> Timestamp {
        self.bucket_width
    }

    /// Per-bucket event counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The start time of bucket `i`.
    pub fn bucket_start(&self, i: usize) -> Timestamp {
        Timestamp(self.start.as_micros() + i as u64 * self.bucket_width.as_micros())
    }

    /// Mean bucket count.
    pub fn mean(&self) -> f64 {
        if self.counts.is_empty() {
            return 0.0;
        }
        self.counts.iter().sum::<u64>() as f64 / self.counts.len() as f64
    }

    /// Population standard deviation of bucket counts.
    pub fn std_dev(&self) -> f64 {
        if self.counts.is_empty() {
            return 0.0;
        }
        let mean = self.mean();
        let var = self
            .counts
            .iter()
            .map(|&c| {
                let d = c as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / self.counts.len() as f64;
        var.sqrt()
    }

    /// The "grass" level: the median bucket count — robust to spikes.
    pub fn grass_level(&self) -> u64 {
        if self.counts.is_empty() {
            return 0;
        }
        let mut sorted = self.counts.clone();
        sorted.sort_unstable();
        sorted[sorted.len() / 2]
    }

    /// Finds maximal runs of buckets whose count exceeds
    /// `mean + k_sigma × std_dev`.
    pub fn spikes(&self, k_sigma: f64) -> Vec<Spike> {
        let threshold = self.mean() + k_sigma * self.std_dev();
        let mut spikes = Vec::new();
        let mut run: Option<(usize, u64, u64)> = None; // (start idx, events, peak)
        for (i, &c) in self.counts.iter().enumerate() {
            if (c as f64) > threshold {
                match &mut run {
                    Some((_, events, peak)) => {
                        *events += c;
                        *peak = (*peak).max(c);
                    }
                    None => run = Some((i, c, c)),
                }
            } else if let Some((s, events, peak)) = run.take() {
                spikes.push(Spike {
                    start: self.bucket_start(s),
                    end: self.bucket_start(i),
                    events,
                    peak,
                });
            }
        }
        if let Some((s, events, peak)) = run {
            spikes.push(Spike {
                start: self.bucket_start(s),
                end: self.bucket_start(self.counts.len()),
                events,
                peak,
            });
        }
        spikes
    }

    /// Renders the series as a small standalone SVG line chart (the Figure 8
    /// look: rate over time).
    pub fn render_svg(&self, width: f64, height: f64, title: &str) -> String {
        use std::fmt::Write as _;
        let max = self.counts.iter().copied().max().unwrap_or(1).max(1) as f64;
        let n = self.counts.len().max(1) as f64;
        let mut svg = String::new();
        let _ = write!(
            svg,
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width:.0}\" height=\"{height:.0}\" font-family=\"monospace\" font-size=\"10\">"
        );
        svg.push_str("<rect width=\"100%\" height=\"100%\" fill=\"white\" stroke=\"#888\"/>");
        let _ = write!(svg, "<text x=\"6\" y=\"14\" fill=\"#333\">{title}</text>");
        let plot_h = height - 24.0;
        let mut points = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            let x = (i as f64 + 0.5) / n * width;
            let y = height - 4.0 - (c as f64 / max) * (plot_h - 4.0);
            let _ = write!(points, "{x:.1},{y:.1} ");
        }
        let _ = write!(
            svg,
            "<polyline points=\"{}\" fill=\"none\" stroke=\"#2255cc\" stroke-width=\"1\"/>",
            points.trim_end()
        );
        svg.push_str("</svg>");
        svg
    }
}

/// Buckets an event stream into a [`RateSeries`].
#[derive(Debug, Clone)]
pub struct EventRateMeter {
    bucket_width: Timestamp,
}

impl EventRateMeter {
    /// A meter with the given bucket width.
    pub fn new(bucket_width: Timestamp) -> Self {
        EventRateMeter { bucket_width }
    }

    /// Buckets `stream` from its earliest to its latest event, in any
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the bucket width is zero.
    pub fn series(&self, stream: &EventStream) -> RateSeries {
        assert!(
            self.bucket_width.as_micros() > 0,
            "bucket width must be positive"
        );
        let times = stream.iter().map(|e| e.time);
        let (Some(start), Some(last)) = (times.clone().min(), times.max()) else {
            return RateSeries {
                start: Timestamp::ZERO,
                bucket_width: self.bucket_width,
                counts: Vec::new(),
            };
        };
        let width = self.bucket_width.as_micros();
        let buckets = ((last.saturating_since(start).as_micros() / width) + 1) as usize;
        let mut counts = vec![0u64; buckets];
        for e in stream {
            let idx = (e.time.saturating_since(start).as_micros() / width) as usize;
            counts[idx] += 1;
        }
        RateSeries {
            start,
            bucket_width: self.bucket_width,
            counts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpscope_bgp::{AsPath, Event, PathAttributes, PeerId, RouterId};

    fn ev(t_secs: u64) -> Event {
        Event::announce(
            Timestamp::from_secs(t_secs),
            PeerId::from_octets(1, 1, 1, 1),
            "10.0.0.0/8".parse().unwrap(),
            PathAttributes::new(RouterId(0), AsPath::empty()),
        )
    }

    #[test]
    fn bucketing() {
        // 1 event/second for 10 s, then a burst of 50 in second 10.
        let mut events: Vec<Event> = (0..10).map(ev).collect();
        events.extend((0..50).map(|_| ev(10)));
        let stream: EventStream = events.into_iter().collect();
        let series = EventRateMeter::new(Timestamp::from_secs(1)).series(&stream);
        assert_eq!(series.counts().len(), 11);
        assert_eq!(series.counts()[0], 1);
        assert_eq!(series.counts()[10], 50);
    }

    #[test]
    fn spike_detection_finds_burst_not_grass() {
        let mut events: Vec<Event> = Vec::new();
        for t in 0..100 {
            events.push(ev(t)); // grass: 1/s
        }
        for _ in 0..200 {
            events.push(ev(50)); // spike at t=50
        }
        let mut stream: EventStream = events.into_iter().collect();
        stream.sort_by_time();
        let series = EventRateMeter::new(Timestamp::from_secs(1)).series(&stream);
        let spikes = series.spikes(3.0);
        assert_eq!(spikes.len(), 1);
        assert_eq!(spikes[0].start, Timestamp::from_secs(50));
        assert_eq!(spikes[0].peak, 201);
        assert_eq!(series.grass_level(), 1);
    }

    #[test]
    fn trailing_spike_closed() {
        let mut events: Vec<Event> = (0..10).map(ev).collect();
        events.extend((0..100).map(|_| ev(9)));
        let mut stream: EventStream = events.into_iter().collect();
        stream.sort_by_time();
        let series = EventRateMeter::new(Timestamp::from_secs(1)).series(&stream);
        let spikes = series.spikes(2.0);
        assert_eq!(spikes.len(), 1);
        assert_eq!(spikes[0].end, Timestamp::from_secs(10));
    }

    #[test]
    fn empty_stream() {
        let series = EventRateMeter::new(Timestamp::from_secs(60)).series(&EventStream::new());
        assert!(series.counts().is_empty());
        assert_eq!(series.mean(), 0.0);
        assert_eq!(series.std_dev(), 0.0);
        assert_eq!(series.grass_level(), 0);
        assert!(series.spikes(2.0).is_empty());
    }

    #[test]
    fn svg_renders() {
        let stream: EventStream = (0..30).map(ev).collect();
        let series = EventRateMeter::new(Timestamp::from_secs(5)).series(&stream);
        let svg = series.render_svg(400.0, 120.0, "BGP event rate");
        assert!(svg.contains("polyline"));
        assert!(svg.contains("BGP event rate"));
    }

    #[test]
    fn unsorted_stream_buckets_from_its_earliest_to_its_latest_event() {
        let stream: EventStream = [ev(3), ev(17), ev(5)].into_iter().collect();
        let series = EventRateMeter::new(Timestamp::from_secs(1)).series(&stream);
        assert_eq!(series.start(), Timestamp::from_secs(3));
        assert_eq!(series.counts().len(), 15);
        assert_eq!(series.counts()[0], 1);
        assert_eq!(series.counts()[2], 1);
        assert_eq!(series.counts()[14], 1);
        assert_eq!(series.counts().iter().sum::<u64>(), 3);
    }

    #[test]
    fn bucket_start_arithmetic() {
        let stream: EventStream = (5..8).map(ev).collect();
        let series = EventRateMeter::new(Timestamp::from_secs(2)).series(&stream);
        assert_eq!(series.start(), Timestamp::from_secs(5));
        assert_eq!(series.bucket_start(1), Timestamp::from_secs(7));
    }
}
