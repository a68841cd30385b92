//! The build workload: generate the corpus, analyse and index it, save
//! the snapshot and reopen it — the write side of the system.

use std::path::Path;
use std::time::Instant;

use rightcrowd::synth::{DatasetConfig, SyntheticDataset};

use crate::check::{oracle_checks, Ranker};
use crate::fixture::{analyze, dir_mib, load, peak_rss_mb, save};
use crate::report::Outcome;
use crate::serve::OPENS;
use crate::stats::{median, secs};
use crate::traffic::Rng;

/// Dataset generations behind `setup_s`.
const SETUPS: usize = 3;
/// Builds `config` into `dir` until `seconds` would be exceeded (at
/// least once), then reopens the snapshot and checks needs drawn by
/// `seed` against the scoring oracle. Runs in its own process, so the
/// peak resident set is this workload's.
pub fn run(config: &DatasetConfig, dir: &Path, seconds: f64, seed: u64) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut setups = Vec::new();
    let mut ds = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        ds = Some(SyntheticDataset::generate(config));
        setups.push(secs(started));
    }
    let ds = ds.expect("at least one generation");
    outcome.set("setup_s", median(&setups));

    // The peak resident set is read before the first save: the save's
    // own peak depends on whether freed analysis memory stays resident
    // (about 170 MiB more in one process of four), so it is a per-layer
    // number, `store.save_peak_mb`.
    let started = Instant::now();
    let mut builds = Vec::new();
    let mut rss_peak_mb = None;
    let mut built = None;
    loop {
        drop(built.take());
        let t = Instant::now();
        let corpus = analyze(&ds);
        if rss_peak_mb.is_none() {
            rss_peak_mb = Some(peak_rss_mb("self")?);
        }
        save(dir, &ds, &corpus)?;
        builds.push(secs(t));
        outcome.attempted += 1;
        built = Some(corpus);
        if secs(started) + median(&builds) > seconds {
            break;
        }
    }
    let corpus = built.expect("at least one build");
    note!("{} builds", builds.len());

    let mut opens = Vec::new();
    for _ in 0..OPENS {
        let t = Instant::now();
        let (_, reopened) = load(dir)?;
        opens.push(secs(t) * 1e3);
        outcome.check(
            if reopened.index() == corpus.index() && reopened.doc_ids() == corpus.doc_ids() {
                Ok(())
            } else {
                Err("the reopened snapshot differs from the built corpus".into())
            },
        );
    }
    let texts: Vec<&str> = ds.queries().iter().map(|q| q.text.as_str()).collect();
    oracle_checks(
        &mut outcome,
        &Ranker::new(&ds, &corpus),
        &texts,
        &mut Rng::new(seed),
    );
    let docs = (corpus.retained() + corpus.dropped_non_english()) as f64;
    outcome.set("latency_p50_ms", median(&builds) * 1e3);
    outcome.set("throughput_per_s", docs / median(&builds));
    outcome.set("open_ms", median(&opens));
    outcome.set("snapshot_mb", dir_mib(dir)?);
    outcome.set("rss_peak_mb", rss_peak_mb.expect("at least one build"));
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tiny_build_saves_and_reopens_identically() {
        let scratch = crate::fixture::Scratch::new("test-build").unwrap();
        let outcome = run(&DatasetConfig::tiny(), &scratch.dir, 0.0, 1).unwrap();
        assert_eq!(outcome.failed, 0);
        // One build, its reopens and the oracle checks.
        assert_eq!(outcome.attempted, 1 + OPENS as u64 + 16);
        assert!(
            outcome.result_json(crate::report::END_TO_END).is_ok(),
            "{outcome:?}"
        );
    }
}
