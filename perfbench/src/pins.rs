//! Pinned outputs and the per-record correctness checks.
//!
//! `pins.tsv` holds, for every (algorithm, instance spec, seed) a batch
//! workload can draw, the node-averaged and worst-case rounds and the
//! FNV-1a checksum of `labels ‖ rounds`. It is written by
//! `perfbench pin`, which solves every pooled job on the single-threaded
//! monolithic engine — a different executor configuration from the
//! workloads' own, so a pin is also a cross-executor check.

use lcl_harness::RunRecord;
use lcl_service::protocol::fnv1a_u64s;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// The pinned summary of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pin {
    /// Node-averaged rounds.
    pub node_averaged: f64,
    /// Worst-case round.
    pub worst_case: u64,
    /// `fnv1a_u64s(labels ‖ rounds)`.
    pub checksum: u64,
}

type Key = (String, String, u64);

fn table() -> &'static BTreeMap<Key, Pin> {
    static TABLE: OnceLock<BTreeMap<Key, Pin>> = OnceLock::new();
    TABLE.get_or_init(|| parse(include_str!("../pins.tsv")))
}

fn parse(text: &str) -> BTreeMap<Key, Pin> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            let [algorithm, spec, seed, na, wc, sum] = f.as_slice() else {
                return None;
            };
            Some((
                (algorithm.to_string(), spec.to_string(), seed.parse().ok()?),
                Pin {
                    node_averaged: na.parse().ok()?,
                    worst_case: wc.parse().ok()?,
                    checksum: u64::from_str_radix(sum, 16).ok()?,
                },
            ))
        })
        .collect()
}

/// `fnv1a_u64s(labels ‖ rounds)` of a record.
#[must_use]
pub fn checksum(record: &RunRecord) -> u64 {
    let mut joined = Vec::with_capacity(record.labels.len() + record.rounds.len());
    joined.extend_from_slice(&record.labels);
    joined.extend_from_slice(&record.rounds);
    fnv1a_u64s(&joined)
}

/// The `pins.tsv` line pinning `record`.
#[must_use]
pub fn line(record: &RunRecord) -> String {
    format!(
        "{}\t{}\t{}\t{}\t{}\t{:016x}",
        record.algorithm,
        record.spec,
        record.seed,
        record.node_averaged,
        record.worst_case,
        checksum(record)
    )
}

/// Checks that hold for every record: it verified, its histogram counts
/// sum to `n`, and `node_averaged` is the histogram's mean round.
#[must_use]
pub fn intrinsic_problems(record: &RunRecord) -> Vec<String> {
    let mut out = Vec::new();
    let tag = format!(
        "{} on {} seed {}",
        record.algorithm, record.spec, record.seed
    );
    if !record.verified {
        out.push(format!("{tag}: record is not verified"));
    }
    let count: u64 = record.histogram.iter().map(|b| b.count).sum();
    if count != record.n as u64 {
        out.push(format!(
            "{tag}: histogram counts sum to {count}, n = {}",
            record.n
        ));
    }
    let area: u128 = record
        .histogram
        .iter()
        .map(|b| u128::from(b.round) * u128::from(b.count))
        .sum();
    let mean = area as f64 / record.n.max(1) as f64;
    if (mean - record.node_averaged).abs() > 1e-9 * mean.abs().max(1.0) {
        out.push(format!(
            "{tag}: node_averaged {} differs from the histogram mean {mean}",
            record.node_averaged
        ));
    }
    out
}

/// Every check of a batch record: the intrinsic ones plus a match with
/// its pinned values.
#[must_use]
pub fn problems(record: &RunRecord) -> Vec<String> {
    let mut out = intrinsic_problems(record);
    let key = (record.algorithm.clone(), record.spec.clone(), record.seed);
    let tag = format!("{} on {} seed {}", key.0, key.1, key.2);
    match table().get(&key) {
        None => out.push(format!("{tag}: no pinned values")),
        Some(pin) => {
            let got = Pin {
                node_averaged: record.node_averaged,
                worst_case: record.worst_case,
                checksum: checksum(record),
            };
            if got != *pin {
                out.push(format!("{tag}: got {got:?}, pinned {pin:?}"));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_harness::InstanceSpec;

    fn record(rounds: Vec<u64>) -> RunRecord {
        let labels = vec![0; rounds.len()];
        RunRecord::from_rounds(
            "two-coloring",
            &InstanceSpec::Path { n: rounds.len() },
            3,
            labels,
            rounds,
            None,
            true,
        )
    }

    #[test]
    fn pin_lines_round_trip() {
        let r = record(vec![1, 2, 3, 5]);
        let parsed = parse(&line(&r));
        let pin = parsed
            .get(&("two-coloring".into(), "path(n=4)".into(), 3))
            .expect("parsed back");
        assert_eq!(pin.node_averaged, 2.75);
        assert_eq!(pin.worst_case, 5);
        assert_eq!(pin.checksum, checksum(&r));
        assert!(intrinsic_problems(&r).is_empty());
    }

    #[test]
    fn tampered_records_are_caught() {
        let mut r = record(vec![1, 2, 3]);
        r.node_averaged += 0.5;
        r.verified = false;
        assert_eq!(intrinsic_problems(&r).len(), 2);
        let mut r = record(vec![1, 2, 3]);
        r.histogram[0].count += 1;
        assert!(!intrinsic_problems(&r).is_empty());
        let r = record(vec![1, 2, 3]);
        assert!(problems(&r).iter().any(|p| p.contains("no pinned values")));
    }
}
