//! Shared workload construction for the Table I, figure and ablation
//! harnesses.
//!
//! The paper's Table I rows are defined by (route count) or (event count,
//! timerange). The helpers here produce streams with those shapes:
//! Berkeley-flavored and ISP-flavored event mixes of background churn plus
//! a session-reset incident, scaled to a target event count and time span.

use bgpscope::prelude::*;

/// Builds a Berkeley-flavored event stream: churn across a campus-sized
/// prefix pool plus one withdrawal/re-announcement spike (the shape of the
/// paper's "actual event spikes").
pub fn berkeley_stream(n_events: usize, span: Timestamp) -> EventStream {
    mixed_stream(n_events, span, 2_000, 0xBEEF)
}

/// Builds an ISP-flavored event stream: a larger prefix pool and more peers,
/// same incident shape.
pub fn isp_stream(n_events: usize, span: Timestamp) -> EventStream {
    mixed_stream(n_events, span, 20_000, 0x15B)
}

fn mixed_stream(n_events: usize, span: Timestamp, pool: usize, seed: u64) -> EventStream {
    let churn_events = n_events * 6 / 10;
    let spike_events = n_events - churn_events;
    let churn = ChurnGenerator::generic(seed, pool);
    let background = churn.events(Timestamp::ZERO, span, churn_events);

    // The spike: a session reset over spike_events/2 prefixes, placed midway.
    let spike = reset_spike(spike_events, seed ^ 0x5717);
    let spike = bgpscope::workload::shift(&spike, Timestamp(span.as_micros() / 2));
    bgpscope::workload::compose(background, vec![spike])
}

fn reset_spike(n: usize, seed: u64) -> EventStream {
    let peer = PeerId::from_octets(10, 9, 9, (seed % 200) as u8 + 1);
    let hop = RouterId::from_octets(11, 9, 9, 1);
    let prefixes = (n / 2).max(1);
    let mut stream = EventStream::new();
    for i in 0..prefixes {
        let prefix = Prefix::from_octets(
            100 + ((i >> 16) & 0x3F) as u8,
            ((i >> 8) & 0xFF) as u8,
            (i & 0xFF) as u8,
            0,
            24,
        );
        let attrs =
            PathAttributes::new(hop, AsPath::from_u32s([11_423, 209, 701 + (i % 13) as u32]));
        stream.push(Event::withdraw(
            Timestamp::from_secs(1),
            peer,
            prefix,
            attrs.clone(),
        ));
        stream.push(Event::announce(
            Timestamp::from_secs(40),
            peer,
            prefix,
            attrs,
        ));
    }
    stream.sort_by_time();
    stream
}

/// Formats a duration in the paper's style.
pub fn fmt_secs(secs: f64) -> String {
    if secs < 1e-3 {
        format!("{:.0} µs", secs * 1e6)
    } else if secs < 1e-2 {
        format!("{:.1} ms", secs * 1e3)
    } else if secs < 1.0 {
        format!("{:.0} ms", secs * 1e3)
    } else if secs < 120.0 {
        format!("{secs:.1} sec")
    } else if secs < 7200.0 {
        format!("{:.1} min", secs / 60.0)
    } else {
        format!("{:.1} hrs", secs / 3600.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_sizes_hit_targets() {
        let s = berkeley_stream(12_000, Timestamp::from_secs(189));
        assert!((11_000..=12_600).contains(&s.len()), "{}", s.len());
        assert!(s.timerange() <= Timestamp::from_secs(200));
        let s = isp_stream(5_000, Timestamp::from_secs(3_600));
        assert!((4_500..=5_200).contains(&s.len()));
    }

    #[test]
    fn fmt_secs_styles() {
        assert_eq!(fmt_secs(0.000_363), "363 µs");
        assert_eq!(fmt_secs(0.004_21), "4.2 ms");
        assert_eq!(fmt_secs(0.5), "500 ms");
        assert_eq!(fmt_secs(9.5), "9.5 sec");
        assert_eq!(fmt_secs(882.0), "14.7 min");
        assert_eq!(fmt_secs(73_800.0), "20.5 hrs");
    }
}
