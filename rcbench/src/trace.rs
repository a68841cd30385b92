//! The traced run: per-layer numbers, timed from outside the program
//! around calls into each crate's public functions. End-to-end numbers
//! never come from here.
//!
//! Every traced run covers every layer on its own workload's inputs: it
//! builds the workload's corpus stage by stage, replays every document
//! through the analysis stages on one thread, attributes the default
//! configuration, and replays the workload's requests against a live
//! daemon, first untimed per layer and then with each request's
//! in-process calls timed on the same snapshot.

use std::collections::BTreeMap;
use std::io::Cursor;
use std::time::Instant;

use rightcrowd::annotate::Annotator;
use rightcrowd::core::ranker::rank_scored;
use rightcrowd::core::{Attribution, FinderConfig};
use rightcrowd::index::{take_traversal_stats, IndexBuilder, InvertedIndex};
use rightcrowd::langid::LanguageIdentifier;
use rightcrowd::serve::http::{read_request, write_response};
use rightcrowd::serve::{Limits, Response};
use rightcrowd::synth::SyntheticDataset;
use rightcrowd::text::{sanitize, tokenize, TextProcessor};

use crate::check::{served_matches, Ranker};
use crate::client::Conn;
use crate::fixture::{
    analyze, build_rc, load, peak_rss_mb, reset_peak_rss, Daemon, Scratch, SHARDS, THREADS,
};
use crate::report::Outcome;
use crate::stats::{mean, median, quantile, secs};
use crate::traffic::{Phase, Props};
use crate::Workload;

/// Most requests a traced run replays.
const MAX_REPLAY: usize = 2_000;

/// Microseconds `f` took, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64() * 1e6)
}

/// Microsecond totals of the analysis stages over every document.
#[derive(Default)]
struct StageTimes {
    detect: f64,
    text: f64,
    annotate: f64,
    index: f64,
}

impl StageTimes {
    fn total(&self) -> f64 {
        self.detect + self.text + self.annotate + self.index
    }
}

/// Replays corpus analysis on one thread through the stage functions
/// and `IndexBuilder`, in the order `AnalyzedCorpus::build_with` uses:
/// profiles without the language gate, then resources and containers.
fn replay_build(ds: &SyntheticDataset) -> (InvertedIndex, StageTimes) {
    let identifier = LanguageIdentifier::new();
    let processor = TextProcessor::default();
    let annotator = Annotator::new(ds.kb());
    let graph = ds.graph();
    let docs = graph
        .profiles()
        .iter()
        .map(|p| (p.text.as_str(), p.links.as_slice(), true))
        .chain(
            graph
                .resources()
                .iter()
                .map(|r| (r.text.as_str(), r.links.as_slice(), false)),
        )
        .chain(
            graph
                .containers()
                .iter()
                .map(|c| (c.text.as_str(), c.links.as_slice(), false)),
        );

    let mut times = StageTimes::default();
    let mut builder = IndexBuilder::new();
    for (raw, links, ungated) in docs {
        let (sanitized, t) = timed(|| sanitize(raw));
        times.text += t;
        let (language, t) = timed(|| identifier.detect(&sanitized.text));
        times.detect += t;
        if !ungated && !language.retained() {
            continue;
        }
        let mut enriched = sanitized.text;
        for &page in links {
            enriched.push(' ');
            enriched.push_str(ds.web().text(page));
        }
        let (tokens, t) = timed(|| tokenize(&enriched));
        times.text += t;
        let (annotations, t) = timed(|| annotator.annotate_tokens(&tokens));
        times.annotate += t;
        let entities: Vec<_> = annotations
            .into_iter()
            .map(|a| (a.entity, a.dscore))
            .collect();
        let (terms, t) = timed(|| processor.process_clean(&enriched));
        times.text += t;
        let ((), t) = timed(|| {
            builder.add_document(&terms, &entities);
        });
        times.index += t;
    }
    let (index, t) = timed(|| builder.build());
    times.index += t;
    (index, times)
}

/// The requests a workload's traced run replays: the serve workloads'
/// first requests, or the paper's needs in turn.
fn requests(workload: Workload, seed: u64) -> Phase {
    match workload.serve_spec() {
        Some(spec) => (spec.traffic)(seed).phase(MAX_REPLAY),
        None => Phase::paper_needs(MAX_REPLAY),
    }
}

pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let rc = build_rc()?;
    let scratch = Scratch::new("trace")?;
    let snapshot = scratch.dir.join("snapshot");

    // Build side.
    let (ds, t) = timed(|| SyntheticDataset::generate(&workload.scale().config()));
    out.set("synth.generate_ms", t / 1e3);
    let (corpus, build_us) = timed(|| analyze(&ds));
    reset_peak_rss()?;
    let (saved, t) =
        timed(|| rightcrowd::store::save_sharded(&snapshot, &ds, &corpus, SHARDS, THREADS));
    let saved = saved.map_err(|e| format!("save: {e}"))?;
    out.set("store.save_ms", t / 1e3);
    out.set("store.save_peak_mb", peak_rss_mb("self")?);
    out.set("store.bytes_written", saved.bytes as f64);
    let (replayed, stages) = replay_build(&ds);
    out.check(if replayed == *corpus.index() {
        Ok(())
    } else {
        Err("the single-threaded replay built a different index".into())
    });
    out.set("langid.detect_ms", stages.detect / 1e3);
    out.set("text.process_ms", stages.text / 1e3);
    out.set("annotate.tokens_ms", stages.annotate / 1e3);
    out.set("index.build_ms", stages.index / 1e3);
    out.set(
        "core.par_efficiency",
        stages.total() / (THREADS as f64 * build_us),
    );
    drop((ds, corpus, replayed));
    note!("built and replayed the corpus");

    let mut loads = Vec::new();
    let mut loaded = None;
    for _ in 0..3 {
        let (l, t) = timed(|| load(&snapshot));
        loads.push(t / 1e3);
        loaded = Some(l?);
    }
    out.set("store.load_ms", median(&loads));
    let (ds, corpus) = loaded.expect("three loads");

    // The attribution a daemon computes on boot.
    let (_, t) = timed(|| Attribution::compute(&ds, &corpus, &FinderConfig::default()));
    out.set("core.attribution_ms", t / 1e3);

    // Request side.
    let phase = requests(workload, seed);
    let ranker = Ranker::new(&ds, &corpus);
    let daemon = Daemon::boot(
        &rc,
        &snapshot,
        workload.scale().label(),
        &scratch.dir.join("events"),
    )?;
    let mut conn = Conn::open(daemon.addr)?;

    // Untraced replay: sequential round trips only. It also fixes how
    // many requests fit the run's time.
    let started = Instant::now();
    let mut plain = Vec::new();
    for bytes in &phase.bytes {
        let (reply, t) = timed(|| conn.round_trip(bytes));
        out.check(reply.map(drop));
        plain.push(t);
        if secs(started) > seconds / 3.0 {
            break;
        }
    }
    let n = plain.len();
    note!("replayed {n} requests untraced");

    // Traced replay of the same requests.
    let index = corpus.index();
    let config = &ranker.config;
    let candidates = ds.candidates().len();
    let processor = TextProcessor::default();
    let annotator = Annotator::new(ds.kb());
    let mut us: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut traced, mut terms, mut entities) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traversed, mut admitted, mut blocks, mut skipped) = (0u64, 0u64, 0u64, 0u64);
    let (mut layered, mut whole) = (0.0, 0.0);
    for ((bytes, need), plain_rtt) in phase.bytes.iter().zip(&phase.needs).zip(&plain) {
        let (reply, rtt) = timed(|| conn.round_trip(bytes));
        let reply = reply?;
        traced.push(rtt);
        // The check ranks the need once untimed, so every timed call
        // below finds the same warm caches.
        out.check(served_matches(&ranker, &need.text, &reply));
        let (_, t_whole) = timed(|| ranker.rank(&need.text));

        let (parsed, t_read) =
            timed(|| read_request(&mut Cursor::new(bytes), &mut Vec::new(), &Limits::default()));
        parsed.map_err(|e| format!("read_request: {e}"))?;
        let (query, t_analyze) = timed(|| ranker.pipeline.analyze_query(&need.text));
        let (tokens, t_text) = timed(|| {
            let clean = sanitize(&need.text).text;
            processor.process_clean(&clean);
            tokenize(&clean)
        });
        let (_, t_annotate) = timed(|| annotator.annotate_tokens(&tokens));
        let _ = take_traversal_stats();
        let (top, t_score) = timed(|| {
            index.score_top_k(&query, config.alpha, ranker.window(), |d| {
                ranker.attribution.is_attributed(d)
            })
        });
        let stats = take_traversal_stats();
        let (_, t_rank) =
            timed(|| rank_scored(&ranker.attribution, config, &top, top.len(), candidates));
        let response = Response::json(200, String::from_utf8_lossy(&reply.body).into_owned());
        let (written, t_write) = timed(|| write_response(&mut Vec::new(), &response, true));
        written.map_err(|e| format!("write_response: {e}"))?;

        for (name, t) in [
            ("serve.read_request_us", t_read),
            ("serve.write_response_us", t_write),
            ("core.analyze_query_us", t_analyze),
            ("text.process_us", t_text),
            ("annotate.tokens_us", t_annotate),
            ("index.score_top_k_us", t_score),
            ("core.rank_scored_us", t_rank),
            // Against the untraced round trip of the same request: the
            // traced one also pays for the caches these calls disturb.
            (
                "transport.residual_us",
                plain_rtt - (t_read + t_analyze + t_score + t_rank + t_write),
            ),
        ] {
            us.entry(name).or_default().push(t);
        }
        layered += t_analyze + t_score + t_rank;
        whole += t_whole;
        terms.push(query.terms.len() as f64);
        entities.push(query.entities.len() as f64);
        traversed += stats.traversed;
        admitted += stats.admitted;
        blocks += stats.blocks_total;
        skipped += stats.blocks_skipped;
    }
    out.attempted += n as u64;
    out.set("client.round_trip_us", median(&plain));
    out.set("client.reconnects", conn.reconnects() as f64);
    out.set(
        "trace.overhead_frac",
        median(&traced) / median(&plain) - 1.0,
    );
    out.set("trace.sum_vs_total", layered / whole);
    for (name, samples) in &us {
        out.set(name, median(samples));
    }
    out.set(
        "index.score_top_k_p99_us",
        quantile(&us["index.score_top_k_us"], 0.99),
    );
    out.set("index.postings_traversed", traversed as f64 / n as f64);
    out.set(
        "index.maxscore_admitted_frac",
        admitted as f64 / traversed.max(1) as f64,
    );
    out.set(
        "index.blocks_skipped_frac",
        skipped as f64 / blocks.max(1) as f64,
    );
    out.set("query.terms_mean", mean(&terms));
    out.set("query.entities_mean", mean(&entities));
    let props = Props::of(&phase.prefix(n));
    out.set("query.long_frac", props.long_frac);
    out.set("query.repeat_frac", props.repeat_frac);
    note!(
        "traced {n} requests: sum of layers / whole query = {:.3}, overhead {:+.1}%",
        layered / whole,
        (median(&traced) / median(&plain) - 1.0) * 100.0
    );
    Ok(out)
}
