//! Set-up: turning a seed into the files one run of the program reads, and
//! the reference its outputs are checked against.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::adapter::{self, Archive, Event, Oracle, SimCost};
use crate::workloads::{partition, Workload};

/// The files of one workload and seed, as the program will read them.
#[derive(Debug)]
pub struct Prepared {
    pub workload: &'static Workload,
    pub dir: PathBuf,
    /// Events as generated, before augmentation.
    pub generated: Vec<Event>,
    /// What each archive holds: the per-collector split of `generated`
    /// for the archive ingest paths; for `live`, the one pre-augmented
    /// feed.
    pub parts: Vec<Archive>,
    pub archive_bytes: u64,
    pub sim: SimCost,
    /// Seconds for the whole set-up: generate, simulate, (for `live`)
    /// pre-augment, encode and write.
    pub elapsed_s: f64,
}

pub fn archive_path(dir: &Path, source: usize) -> PathBuf {
    dir.join(format!("source{source}.mrt"))
}

pub fn recording_path(dir: &Path) -> PathBuf {
    dir.join("recording")
}

/// Decodes archive `source` of a data directory back into events.
pub fn decode_archive(dir: &Path, source: usize) -> Vec<Event> {
    let path = archive_path(dir, source);
    let file =
        std::fs::File::open(&path).unwrap_or_else(|e| panic!("open {}: {e}", path.display()));
    adapter::decode(std::io::BufReader::new(file))
}

fn expected_path(dir: &Path) -> PathBuf {
    dir.join("expected")
}

/// The timed set-up. The program later sees only the files written here.
pub fn prepare(workload: &'static Workload, seed: u64, shrink: usize, dir: &Path) -> Prepared {
    let began = Instant::now();
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    let generated = workload.generate(seed, shrink);
    let parts: Vec<Archive> = if workload.open_loop_rate.is_some() {
        vec![adapter::augment(&generated.events).0]
    } else {
        partition(&generated.events, workload.sources)
    }
    .into_iter()
    .map(Archive::from_events)
    .collect();
    let mut archive_bytes = 0;
    for (i, part) in parts.iter().enumerate() {
        let bytes = part.encode();
        archive_bytes += bytes.len() as u64;
        let path = archive_path(dir, i);
        std::fs::write(&path, bytes).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }
    Prepared {
        workload,
        dir: dir.to_owned(),
        generated: generated.events,
        parts,
        archive_bytes,
        sim: generated.sim,
        elapsed_s: began.elapsed().as_secs_f64(),
    }
}

impl Prepared {
    /// Events one run of the program is given.
    pub fn events(&self) -> usize {
        self.parts.iter().map(|part| part.events().len()).sum()
    }
}

/// What a run's outputs are checked against.
#[derive(Debug)]
pub struct Reference {
    /// The events the stem stage should see (post-augmentation).
    pub augmented: Vec<Event>,
    pub oracle: Oracle,
    /// Every archive decoded back to exactly the events encoded into it.
    pub archives_round_trip: bool,
}

/// Computes the reference (untimed) and writes the expected reports next
/// to the archives for the child processes to check against.
pub fn reference(prepared: &Prepared) -> Reference {
    let workload = prepared.workload;
    let archives_round_trip = prepared
        .parts
        .iter()
        .enumerate()
        .all(|(i, part)| decode_archive(&prepared.dir, i) == part.events());
    let augmented = if workload.open_loop_rate.is_some() {
        prepared.parts[0].events().to_vec()
    } else {
        adapter::augment(&prepared.generated).0
    };
    let oracle = if workload.shards > 1 {
        adapter::sharded_oracle(&augmented, workload.shards)
    } else {
        adapter::oracle(&augmented)
    };
    let mut expected = format!("{}\n", oracle.flush_reports);
    for (k, key) in oracle.reports.iter().enumerate() {
        let trigger = oracle.triggers.get(k).copied().unwrap_or(0);
        expected.push_str(&format!("{key:x} {trigger}\n"));
    }
    std::fs::write(expected_path(&prepared.dir), expected).expect("write expected reports");
    Reference {
        augmented,
        oracle,
        archives_round_trip,
    }
}

/// The expected reports as a child process reads them back: report keys
/// and triggers in emission order, and how many came from the final flush.
pub struct Expected {
    pub keys: Vec<u64>,
    pub triggers: Vec<usize>,
    pub flush_reports: usize,
}

pub fn load_expected(dir: &Path) -> Expected {
    let text = std::fs::read_to_string(expected_path(dir)).expect("expected reports file");
    let mut lines = text.lines();
    let flush_reports = lines
        .next()
        .and_then(|l| l.parse().ok())
        .expect("expected-reports header");
    let mut expected = Expected {
        keys: Vec::new(),
        triggers: Vec::new(),
        flush_reports,
    };
    for line in lines {
        let (key, trigger) = line.split_once(' ').expect("key and trigger");
        expected
            .keys
            .push(u64::from_str_radix(key, 16).expect("hex report key"));
        expected
            .triggers
            .push(trigger.parse().expect("trigger index"));
    }
    expected
}

/// How many of `got` also occur in `expected`, as multisets.
pub fn matched(got: &[u64], expected: &[u64]) -> usize {
    let (mut a, mut b) = (got.to_vec(), expected.to_vec());
    a.sort_unstable();
    b.sort_unstable();
    let (mut i, mut j, mut common) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
        }
    }
    common
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiset_match_counts_duplicates_once_each() {
        assert_eq!(matched(&[3, 1, 1, 2], &[1, 1, 2, 3]), 4);
        assert_eq!(matched(&[1, 1, 1], &[1, 2]), 1);
        assert_eq!(matched(&[], &[1]), 0);
    }
}
