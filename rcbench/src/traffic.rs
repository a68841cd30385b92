//! The seeded traffic generator: which needs are asked, their text and
//! the exact bytes sent.
//!
//! Only the benchmark's `--seed` reaches this module; the corpus is
//! always the synthetic default seed. Everything a request needs is
//! rendered here, before any clock starts.

use std::collections::HashSet;

use rightcrowd::kb::{vocab, KnowledgeBase};
use rightcrowd::serve::http::json_escape;
use rightcrowd::types::{Domain, EntityId};

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_0F7A_FF1C)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }
}

/// Long needs have at least this many words.
pub const LONG_WORDS: usize = 25;

/// One expertise need as the client will ask it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Need {
    pub text: String,
    /// The domain the need was drawn from (ground truth for evaluation).
    pub domain: Domain,
    /// Drawn long: at least [`LONG_WORDS`] words before entity mentions.
    pub long: bool,
}

impl Need {
    /// One of the paper's needs.
    fn paper(need: rightcrowd::synth::ExpertiseNeed) -> Need {
        let long = need.text.split_whitespace().count() >= LONG_WORDS;
        Need {
            text: need.text,
            domain: need.domain,
            long,
        }
    }
}

/// Draws without replacement from a shuffled deck, refilled when
/// empty: every full deck holds the intended mix exactly, so seeds
/// change the order and the text of the needs, not their proportions.
struct Deck<T: Copy> {
    cards: Vec<T>,
    left: Vec<T>,
}

impl<T: Copy> Deck<T> {
    fn new(cards: Vec<T>) -> Deck<T> {
        assert!(!cards.is_empty(), "a deck needs cards");
        Deck {
            cards,
            left: Vec::new(),
        }
    }

    fn draw(&mut self, rng: &mut Rng) -> T {
        if self.left.is_empty() {
            self.left.clone_from(&self.cards);
        }
        self.left.swap_remove(rng.below(self.left.len()))
    }
}

/// What the traffic asks for.
enum Mix {
    /// The paper's 30 needs, rank `k` picked with probability ∝ 1/k.
    Hot { needs: Vec<Need>, cdf: Vec<f64> },
    /// A fresh need per request.
    Novel(Box<Novel>),
}

/// Needs built from domain vocabulary and knowledge-base entity titles:
/// 3 in 10 long, and domains, word counts, 0–4 entity mentions, each
/// domain's words and each domain's entities in equal shares.
struct Novel {
    kb: KnowledgeBase,
    long: Deck<bool>,
    domain: Deck<Domain>,
    short_words: Deck<usize>,
    long_words: Deck<usize>,
    mentions: Deck<usize>,
    words: Vec<Deck<&'static str>>,
    entities: Vec<Deck<EntityId>>,
}

impl Novel {
    fn new() -> Novel {
        let mut long = vec![false; 10];
        long[..3].fill(true);
        let kb = rightcrowd::kb::seed::standard();
        let words = Domain::ALL
            .iter()
            .map(|&d| Deck::new(vocab::domain_words(d).to_vec()))
            .collect();
        let entities = Domain::ALL
            .iter()
            .map(|&d| Deck::new(kb.entities_in_domain(d).to_vec()))
            .collect();
        Novel {
            kb,
            long: Deck::new(long),
            domain: Deck::new(Domain::ALL.to_vec()),
            short_words: Deck::new((6..=14).collect()),
            long_words: Deck::new((LONG_WORDS..=40).collect()),
            mentions: Deck::new((0..=4).collect()),
            words,
            entities,
        }
    }

    fn draw(&mut self, rng: &mut Rng) -> Need {
        let long = self.long.draw(rng);
        let count = if long {
            self.long_words.draw(rng)
        } else {
            self.short_words.draw(rng)
        };
        let domain = self.domain.draw(rng);
        let words = &mut self.words[domain.index()];
        let mut parts: Vec<&str> = (0..count).map(|_| words.draw(rng)).collect();
        for _ in 0..self.mentions.draw(rng) {
            let entity = self.entities[domain.index()].draw(rng);
            parts.insert(
                rng.below(parts.len() + 1),
                self.kb.entity(entity).title.as_str(),
            );
        }
        Need {
            text: parts.join(" "),
            domain,
            long,
        }
    }
}

/// A run's request stream. Successive [`Traffic::phase`] calls continue
/// the same stream, so request ids stay unique across phases.
pub struct Traffic {
    rng: Rng,
    mix: Mix,
    seen: HashSet<String>,
    issued: u64,
}

/// One phase of requests, sent in order: request `i` asks `needs[i]`
/// and is sent as `bytes[i]`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Phase {
    pub needs: Vec<Need>,
    pub bytes: Vec<Vec<u8>>,
    /// Per request: whether its text was asked earlier in the stream.
    pub repeated: Vec<bool>,
}

impl Phase {
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// The paper's 30 needs asked in turn, `count` requests.
    pub fn paper_needs(count: usize) -> Phase {
        let needs: Vec<Need> = rightcrowd::synth::queries::workload()
            .into_iter()
            .map(Need::paper)
            .collect();
        let mut phase = Phase::default();
        for i in 0..count {
            let need = &needs[i % needs.len()];
            phase.bytes.push(render(i as u64, &need.text));
            phase.needs.push(need.clone());
            phase.repeated.push(i >= needs.len());
        }
        phase
    }

    /// The first `n` requests.
    pub fn prefix(&self, n: usize) -> Phase {
        Phase {
            needs: self.needs[..n].to_vec(),
            bytes: self.bytes[..n].to_vec(),
            repeated: self.repeated[..n].to_vec(),
        }
    }
}

/// Input properties a claim about the traffic must cite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Props {
    pub long_frac: f64,
    pub repeat_frac: f64,
}

impl Props {
    pub fn of(phase: &Phase) -> Props {
        let n = phase.len().max(1) as f64;
        Props {
            long_frac: phase.needs.iter().filter(|d| d.long).count() as f64 / n,
            repeat_frac: phase.repeated.iter().filter(|&&r| r).count() as f64 / n,
        }
    }
}

/// The pre-rendered `POST /rank` request for `text`, tagged with its
/// index in the stream.
pub fn render(id: u64, text: &str) -> Vec<u8> {
    let body = format!("{{\"query\": {}, \"top\": 10}}", json_escape(text));
    format!(
        "POST /rank HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nX-Request-Id: {id}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

impl Traffic {
    /// Zipf(s = 1) over the paper's needs, most popular first.
    pub fn hot(seed: u64) -> Traffic {
        let needs: Vec<Need> = rightcrowd::synth::queries::workload()
            .into_iter()
            .map(Need::paper)
            .collect();
        let weights: Vec<f64> = (1..=needs.len()).map(|k| 1.0 / k as f64).collect();
        let total: f64 = weights.iter().sum();
        let cdf = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        Traffic::with_mix(seed, Mix::Hot { needs, cdf })
    }

    /// A unique generated need per request.
    pub fn novel(seed: u64) -> Traffic {
        Traffic::with_mix(seed, Mix::Novel(Box::new(Novel::new())))
    }

    fn with_mix(seed: u64, mix: Mix) -> Traffic {
        Traffic {
            rng: Rng::new(seed),
            mix,
            seen: HashSet::new(),
            issued: 0,
        }
    }

    /// The next need in the stream.
    fn next_need(&mut self) -> Need {
        let rng = &mut self.rng;
        match &mut self.mix {
            Mix::Hot { needs, cdf } => {
                let u = rng.unit();
                needs[cdf.partition_point(|&c| c < u).min(needs.len() - 1)].clone()
            }
            Mix::Novel(novel) => loop {
                let need = novel.draw(rng);
                if !self.seen.contains(&need.text) {
                    break need;
                }
            },
        }
    }

    /// The next `count` requests of the stream.
    pub fn phase(&mut self, count: usize) -> Phase {
        let mut phase = Phase {
            needs: Vec::with_capacity(count),
            bytes: Vec::with_capacity(count),
            repeated: Vec::with_capacity(count),
        };
        for _ in 0..count {
            let need = self.next_need();
            phase.bytes.push(render(self.issued, &need.text));
            phase.repeated.push(!self.seen.insert(need.text.clone()));
            phase.needs.push(need);
            self.issued += 1;
        }
        phase
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_byte_identical_requests() {
        for make in [Traffic::hot, Traffic::novel] {
            let a = make(7).phase(300);
            let b = make(7).phase(300);
            assert_eq!(a, b);
            let c = make(8).phase(300);
            assert_ne!(a.needs, c.needs);
            assert_ne!(a.bytes, c.bytes);
        }
    }

    #[test]
    fn request_ids_continue_across_phases() {
        let mut t = Traffic::hot(1);
        let first = t.phase(3);
        let second = t.phase(2);
        let text = String::from_utf8(second.bytes[0].clone()).unwrap();
        assert!(text.contains("X-Request-Id: 3\r\n"), "{text}");
        assert!(String::from_utf8(first.bytes[2].clone())
            .unwrap()
            .contains("X-Request-Id: 2\r\n"));
    }

    #[test]
    fn novel_needs_are_unique_and_a_third_long() {
        let phase = Traffic::novel(3).phase(2000);
        let props = Props::of(&phase);
        assert_eq!(props.repeat_frac, 0.0);
        assert!(
            (props.long_frac - 0.30).abs() <= 0.03,
            "long_frac {}",
            props.long_frac
        );
        for need in &phase.needs {
            let words = need.text.split_whitespace().count();
            assert!(
                words >= if need.long { LONG_WORDS } else { 6 },
                "{words} words in {:?}",
                need.text
            );
        }
    }

    #[test]
    fn hot_traffic_repeats_the_most_popular_need_most() {
        let phase = Traffic::hot(5).phase(3000);
        let first = &rightcrowd::synth::queries::workload()[0].text;
        let hits = phase.needs.iter().filter(|n| &n.text == first).count() as f64 / 3000.0;
        // 1 / H(30) ≈ 0.25.
        assert!((hits - 0.25).abs() < 0.03, "top need share {hits}");
        assert!(Props::of(&phase).repeat_frac > 0.98);
    }

    #[test]
    fn every_generated_need_annotates_without_panicking() {
        let kb = rightcrowd::kb::seed::standard();
        let pipeline = rightcrowd::core::AnalysisPipeline::new(&kb);
        let phase = Traffic::novel(11).phase(400);
        let mut with_entities = 0;
        for need in &phase.needs {
            let query = pipeline.analyze_query(&need.text);
            assert!(!query.terms.is_empty(), "{:?}", need.text);
            with_entities += usize::from(!query.entities.is_empty());
        }
        assert!(
            with_entities > 0,
            "no generated need mentions a known entity"
        );
    }
}
