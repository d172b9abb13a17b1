//! Correlated components: the output of one Stemming extraction round.

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use bgpscope_bgp::intern::{Symbol, SymbolTable};
use bgpscope_bgp::{Prefix, Timestamp};

/// A stem: the last adjacent pair of the winning sub-sequence — the paper's
/// estimate of the problem location. The pair can straddle any two element
/// kinds: peer–nexthop (a session problem at the edge), AS–AS (a failure in
/// the core), or AS–prefix (a single-prefix anomaly such as a persistent
/// oscillation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Stem(pub Symbol, pub Symbol);

impl Stem {
    /// Renders the stem as `a-b` using a symbol table.
    pub fn display(&self, symbols: &SymbolTable) -> String {
        symbols.render(&[self.0, self.1])
    }
}

/// One strongly correlated component extracted from an event stream.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Component {
    /// The winning sub-sequence `s'` (the "common portion").
    pub subsequence: Vec<Symbol>,
    /// The problem location: last adjacent pair of `s'`.
    pub stem: Stem,
    /// How many events contained `s'`.
    pub support: u64,
    /// The prefixes affected (`P`): prefixes of events containing `s'`.
    pub prefixes: BTreeSet<Prefix>,
    /// Indices into the *original* event stream of the events making up this
    /// component (`E`): every event touching any prefix in `P`.
    pub event_indices: Vec<usize>,
    /// Earliest event time in the component.
    pub start: Timestamp,
    /// Latest event time in the component.
    pub end: Timestamp,
    /// Announcements / withdrawals split within the component.
    pub announce_count: usize,
    /// Withdrawal count within the component.
    pub withdraw_count: usize,
}

impl Component {
    /// The stem — the estimated problem location.
    pub fn stem(&self) -> Stem {
        self.stem
    }

    /// Number of events in the component.
    pub fn event_count(&self) -> usize {
        self.event_indices.len()
    }

    /// Number of distinct prefixes affected.
    pub fn prefix_count(&self) -> usize {
        self.prefixes.len()
    }

    /// The component's time span.
    pub fn timerange(&self) -> Timestamp {
        self.end.saturating_since(self.start)
    }

    /// Events per affected prefix — high values signal flapping/oscillation
    /// (each prefix changed many times) rather than a one-shot move.
    pub fn events_per_prefix(&self) -> f64 {
        if self.prefixes.is_empty() {
            0.0
        } else {
            self.event_indices.len() as f64 / self.prefixes.len() as f64
        }
    }

    /// Event rate over the component's span, events/second.
    pub fn event_rate(&self) -> f64 {
        let secs = self.timerange().as_secs_f64();
        if secs <= 0.0 {
            self.event_indices.len() as f64
        } else {
            self.event_indices.len() as f64 / secs
        }
    }

    /// Renders the common portion as `a-b-c` using a symbol table.
    pub fn display_subsequence(&self, symbols: &SymbolTable) -> String {
        symbols.render(&self.subsequence)
    }

    /// A one-line operator summary.
    pub fn summarize(&self, symbols: &SymbolTable) -> String {
        format!(
            "stem {} (common portion {}): {} events, {} prefixes, {:.1}s span, {} announce / {} withdraw",
            self.stem.display(symbols),
            self.display_subsequence(symbols),
            self.event_count(),
            self.prefix_count(),
            self.timerange().as_secs_f64(),
            self.announce_count,
            self.withdraw_count,
        )
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "component[{} events, {} prefixes, support {}]",
            self.event_count(),
            self.prefix_count(),
            self.support
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn component(indices: Vec<usize>, prefixes: &[&str], start: u64, end: u64) -> Component {
        Component {
            subsequence: vec![Symbol(0), Symbol(1)],
            stem: Stem(Symbol(0), Symbol(1)),
            support: indices.len() as u64,
            prefixes: prefixes.iter().map(|s| s.parse().unwrap()).collect(),
            event_indices: indices,
            start: Timestamp::from_secs(start),
            end: Timestamp::from_secs(end),
            announce_count: 0,
            withdraw_count: 0,
        }
    }

    #[test]
    fn metrics() {
        let c = component(vec![0, 1, 2, 3], &["10.0.0.0/8", "10.1.0.0/16"], 5, 15);
        assert_eq!(c.event_count(), 4);
        assert_eq!(c.prefix_count(), 2);
        assert_eq!(c.timerange(), Timestamp::from_secs(10));
        assert!((c.events_per_prefix() - 2.0).abs() < 1e-9);
        assert!((c.event_rate() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn zero_span_rate_degrades_gracefully() {
        let c = component(vec![0, 1], &["10.0.0.0/8"], 3, 3);
        assert_eq!(c.event_rate(), 2.0);
        let empty = component(vec![], &[], 0, 0);
        assert_eq!(empty.events_per_prefix(), 0.0);
    }
}
