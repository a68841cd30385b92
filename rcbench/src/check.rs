//! Correctness gates. Every mismatch is a failed operation, and a run
//! with any failure reports `"correct": false` and exits non-zero.

use rightcrowd::core::ranker::rank_query;
use rightcrowd::core::{AnalysisPipeline, AnalyzedCorpus, Attribution, FinderConfig, RankedExpert};
use rightcrowd::index::Query;
use rightcrowd::synth::SyntheticDataset;

use crate::client::Reply;
use crate::report::Outcome;
use crate::traffic::Rng;

/// How many experts a `/rank` request asks for.
pub const TOP: usize = 10;

/// The in-process twin of the daemon: the same snapshot, the default
/// configuration and its attribution, ranked through `rank_query`.
pub struct Ranker<'a> {
    pub ds: &'a SyntheticDataset,
    pub corpus: &'a AnalyzedCorpus,
    pub config: FinderConfig,
    pub attribution: Attribution,
    pub pipeline: AnalysisPipeline<'a>,
}

impl<'a> Ranker<'a> {
    pub fn new(ds: &'a SyntheticDataset, corpus: &'a AnalyzedCorpus) -> Ranker<'a> {
        let config = FinderConfig::default();
        let attribution = Attribution::compute(ds, corpus, &config);
        Ranker {
            ds,
            corpus,
            config,
            attribution,
            pipeline: AnalysisPipeline::new(ds.kb()),
        }
    }

    pub fn rank_query(&self, query: &Query) -> Vec<RankedExpert> {
        rank_query(
            self.corpus,
            &self.attribution,
            &self.config,
            query,
            self.ds.candidates().len(),
        )
    }

    pub fn rank(&self, text: &str) -> Vec<RankedExpert> {
        self.rank_query(&self.pipeline.analyze_query(text))
    }

    /// The window the default configuration ranks over.
    pub fn window(&self) -> usize {
        match self.config.window {
            rightcrowd::core::WindowSize::Count(n) => n,
            other => unreachable!("the default window is a count, not {other:?}"),
        }
    }
}

/// The number following the first `key` at or after byte `from`, and
/// the byte just past it.
fn number_after(text: &str, key: &str, from: usize) -> Result<(f64, usize), String> {
    let at = text[from..]
        .find(key)
        .ok_or_else(|| format!("no {key} in response"))?
        + from
        + key.len();
    let rest = &text[at..];
    let value = rest.trim_start();
    let start = at + rest.len() - value.len();
    let len = value
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(value.len());
    let number = value[..len]
        .parse::<f64>()
        .map_err(|e| format!("{key} {:?}: {e}", &value[..len]))?;
    Ok((number, start + len))
}

/// The `count` and `(person, score)` rows of a `/rank` body. The daemon
/// renders object keys in sorted order, so everything before `"query"`
/// is numbers and generated names.
pub fn scan_rank_body(body: &[u8]) -> Result<(usize, Vec<(u32, f64)>), String> {
    let text = std::str::from_utf8(body).map_err(|_| "response is not UTF-8")?;
    let text = &text[..text.find("\"query\":").unwrap_or(text.len())];
    let (count, _) = number_after(text, "\"count\":", 0)?;
    let mut rows = Vec::new();
    let mut at = 0;
    while text[at..].contains("\"person\":") {
        let (person, next) = number_after(text, "\"person\":", at)?;
        let (score, next) = number_after(text, "\"score\":", next)?;
        rows.push((person as u32, score));
        at = next;
    }
    Ok((count as usize, rows))
}

/// A served `/rank` reply equals the in-process top ten: the same
/// candidates in the same order with bit-identical scores.
pub fn served_matches(ranker: &Ranker, text: &str, reply: &Reply) -> Result<(), String> {
    if reply.status != 200 {
        return Err(format!("status {} for {text:?}", reply.status));
    }
    let (count, rows) = scan_rank_body(&reply.body)?;
    let expected = ranker.rank(text);
    let want: Vec<(u32, u64)> = expected
        .iter()
        .take(TOP)
        .map(|r| (r.person.0, r.score.to_bits()))
        .collect();
    let got: Vec<(u32, u64)> = rows.iter().map(|&(p, s)| (p, s.to_bits())).collect();
    if count != expected.len() || got != want {
        return Err(format!(
            "served ranking for {text:?} differs: {count} {got:?} vs {} {want:?}",
            expected.len()
        ));
    }
    Ok(())
}

/// Needs per run whose pruned top-k is compared with the oracle.
const ORACLE_CHECKS: usize = 16;

/// Checks [`ORACLE_CHECKS`] needs drawn from `texts` by `rng` with
/// [`pruned_matches_reference`].
pub fn oracle_checks(outcome: &mut Outcome, ranker: &Ranker, texts: &[&str], rng: &mut Rng) {
    for _ in 0..ORACLE_CHECKS {
        let text = texts[rng.below(texts.len())];
        outcome.check(pruned_matches_reference(ranker, text));
    }
}

/// The pruned top-k scorer equals the definitional oracle bit for bit.
fn pruned_matches_reference(ranker: &Ranker, text: &str) -> Result<(), String> {
    let query = ranker.pipeline.analyze_query(text);
    let index = ranker.corpus.index();
    let alpha = ranker.config.alpha;
    let k = ranker.window();
    let eligible = |d| ranker.attribution.is_attributed(d);
    let fast = index.score_top_k(&query, alpha, k, eligible);
    let slow = rightcrowd::index::reference::score_top_k(index, &query, alpha, k, eligible);
    let bits = |v: &[rightcrowd::index::ScoredDoc]| -> Vec<(u32, u64)> {
        v.iter().map(|s| (s.doc.0, s.score.to_bits())).collect()
    };
    if bits(&fast) != bits(&slow) {
        return Err(format!(
            "score_top_k differs from the reference for {text:?}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_scanner_reads_rank_bodies_as_the_daemon_renders_them() {
        let body = br#"{
  "count": 12,
  "experts": [
    {
      "name": "Ada Person",
      "person": 3,
      "rank": 1,
      "score": 0.12345678901234566
    },
    {
      "name": "Bo",
      "person": 17,
      "rank": 2,
      "score": 2
    }
  ],
  "query": "who knows \"person\": 5"
}
"#;
        let (count, rows) = scan_rank_body(body).unwrap();
        assert_eq!(count, 12);
        assert_eq!(rows, vec![(3, 0.12345678901234566), (17, 2.0)]);
        assert!(scan_rank_body(b"{\"error\": \"x\"}").is_err());
    }
}
