//! The open-loop feed: events are due on a fixed schedule whatever the
//! pipeline does, and every report is timed from when its window-closing
//! event was *due*, so a stall is charged to every event it delays.

use std::time::{Duration, Instant};

use crate::adapter::{Event, Spawned, SpawnedOutcome};

/// The generator batches the events that fall due within this long: one
/// wake-up per event (33 µs apart at 30,000 events/s) would spend more
/// processor time on the clock than on the feed.
const TICK: Duration = Duration::from_micros(500);

/// After the last event, how long to keep waiting for the reports that
/// are still owed before giving up and letting `finish` collect them.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

#[derive(Debug, Default)]
pub struct LiveOutcome {
    /// From the first event's due time to the return of `finish`.
    pub elapsed_s: f64,
    /// Report keys in the order received.
    pub reports: Vec<u64>,
    /// Seconds since start at which each report was received.
    pub received_s: Vec<f64>,
    /// How late each event was handed to the pipeline, in milliseconds.
    pub generator_late_ms: Vec<f64>,
    /// Deepest ingest queue seen.
    pub backlog_max: usize,
    /// Seconds inside `ingest_event`.
    pub producer_blocked_s: f64,
    pub pipeline: SpawnedOutcome,
}

/// When event `index` is due, in seconds since start.
pub fn due_s(index: usize, rate: f64) -> f64 {
    index as f64 / rate
}

/// Feeds `events` at `rate` events per second through a spawned pipeline,
/// polling its report stream from the same thread. `owed_before_flush` is
/// how many reports arrive before the final flush; the feed waits for them
/// so that their receive times are real, not the time `finish` returned.
pub fn drive(events: Vec<Event>, rate: f64, owed_before_flush: usize) -> LiveOutcome {
    let mut out = LiveOutcome::default();
    out.generator_late_ms.reserve(events.len());
    let mut pipeline = Spawned::spawn(None);
    let mut feed = events.into_iter().enumerate().peekable();
    let start = Instant::now();
    // Stamps whatever has arrived with the current time.
    let poll = |pipeline: &Spawned, out: &mut LiveOutcome| {
        pipeline.poll_reports(&mut out.reports);
        out.received_s
            .resize(out.reports.len(), start.elapsed().as_secs_f64());
    };
    // Between events the generator sleeps *on the report stream*, so a
    // report is stamped when it arrives, not at the next tick.
    let wait = |pipeline: &Spawned, out: &mut LiveOutcome, timeout: Duration| {
        if let Some(report) = pipeline.wait_report(timeout) {
            out.reports.push(report);
            poll(pipeline, out);
        }
    };
    while let Some(&(next, _)) = feed.peek() {
        let now = start.elapsed().as_secs_f64();
        if due_s(next, rate) <= now {
            let (index, event) = feed.next().expect("peeked");
            out.generator_late_ms.push((now - due_s(index, rate)) * 1e3);
            let entered = Instant::now();
            pipeline.ingest_event(event);
            out.producer_blocked_s += entered.elapsed().as_secs_f64();
            // While catching up after a stall there is no idle moment to
            // wait in; reports must still be stamped when they arrive.
            if index % 64 == 63 {
                poll(&pipeline, &mut out);
            }
            continue;
        }
        out.backlog_max = out.backlog_max.max(pipeline.queue_len());
        let until_due = Duration::from_secs_f64(due_s(next, rate) - now);
        wait(&pipeline, &mut out, until_due.max(TICK));
    }
    let drained = Instant::now();
    while out.reports.len() < owed_before_flush && drained.elapsed() < DRAIN_LIMIT {
        wait(&pipeline, &mut out, TICK);
    }
    out.pipeline = pipeline.finish();
    out.elapsed_s = start.elapsed().as_secs_f64();
    out.reports
        .extend(std::mem::take(&mut out.pipeline.reports));
    out.received_s.resize(out.reports.len(), out.elapsed_s);
    out
}

/// Report latencies in milliseconds: `received(k) − due(trigger(k))`.
pub fn latencies_ms(received_s: &[f64], triggers: &[usize], rate: f64) -> Vec<f64> {
    received_s
        .iter()
        .zip(triggers)
        .map(|(&received, &trigger)| (received - due_s(trigger, rate)) * 1e3)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_receive_time_minus_the_triggers_due_time() {
        // At 1,000 events/s event 500 is due at 0.5 s.
        let latencies = latencies_ms(&[0.75, 2.0], &[500, 1_500], 1_000.0);
        assert_eq!(latencies, vec![250.0, 500.0]);
    }
}
