//! Self-joins build their input once: passing the same slice as both sides
//! (`f(&d, &d)`) tokenizes and builds one collection and hands it to SSJoin
//! as R and S. The output must equal the two-relation build of the same data
//! (`f(&d, &d.clone())`) pair for pair and similarity bit for bit — on the
//! default in-memory path, under a memory budget that forces out-of-core
//! spilling, and in approximate mode. In memory, the SSJoin counters of the
//! two runs obey the exact mirror relation of the symmetric half path.

use ssjoin_core::{
    ElementOrder, ExecBudget, ExecContext, SsJoinInputBuilder, SsJoinResult, WeightScheme,
};
use ssjoin_joins::{
    cosine_join, edit_similarity_join, ges_join, jaccard_join, CosineConfig, EditJoinConfig,
    GesJoinConfig, JaccardConfig, SimilarityJoinOutput,
};
use ssjoin_prng::{Rng, StdRng};
use ssjoin_text::{QGramTokenizer, Tokenizer, WordTokenizer};

/// Address-like rows with injected near-duplicates (typos, dropped and
/// repeated words, case changes), so every join reports pairs.
fn corpus(seed: u64, rows: usize) -> Vec<String> {
    const WORDS: &[&str] = &[
        "main",
        "st",
        "street",
        "ave",
        "avenue",
        "north",
        "south",
        "oak",
        "elm",
        "pine",
        "seattle",
        "redmond",
        "springfield",
        "portland",
        "apt",
        "suite",
        "road",
        "rd",
        "lane",
        "Straße",
        "ΟΔΟΣ",
        "café",
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<String> = Vec::with_capacity(rows);
    while out.len() < rows {
        if !out.is_empty() && rng.gen_bool(0.4) {
            let base = out[rng.gen_index(out.len())].clone();
            let mut chars: Vec<char> = base.chars().collect();
            match rng.gen_index(4) {
                0 if chars.len() > 3 => {
                    let i = rng.gen_index(chars.len());
                    chars.remove(i);
                }
                1 => chars.push(' '),
                2 => chars.extend(" main".chars()),
                _ => chars.iter_mut().for_each(|c| *c = c.to_ascii_uppercase()),
            }
            out.push(chars.into_iter().collect());
        } else {
            let n = rng.gen_range_inclusive(2usize..=6);
            let mut row = format!("{}", rng.gen_range(1u32..400));
            for _ in 0..n {
                row.push(' ');
                row.push_str(WORDS[rng.gen_index(WORDS.len())]);
            }
            out.push(row);
        }
    }
    out
}

#[derive(Debug, Clone, Copy)]
enum Mode {
    Default,
    Spill,
    Approx,
}

fn exec(mode: Mode) -> ExecContext {
    match mode {
        Mode::Default => ExecContext::new(),
        Mode::Spill => {
            ExecContext::new().with_budget(ExecBudget::new().with_max_resident_bytes(16 * 1024))
        }
        Mode::Approx => ExecContext::new().with_approximate(0.9),
    }
}

fn assert_same(
    once: SsJoinResult<SimilarityJoinOutput>,
    twice: SsJoinResult<SimilarityJoinOutput>,
    ctx: &str,
) {
    let (once, twice) = (once.unwrap(), twice.unwrap());
    let key = |o: &SimilarityJoinOutput| -> Vec<(u32, u32, u64)> {
        let mut v: Vec<_> = o
            .pairs
            .iter()
            .map(|p| (p.r, p.s, p.similarity.to_bits()))
            .collect();
        v.sort_unstable();
        v
    };
    assert!(!once.pairs.is_empty(), "{ctx}: no pairs to compare");
    assert_eq!(
        key(&once),
        key(&twice),
        "{ctx}: pairs or similarities differ"
    );
    assert_eq!(once.udf_verifications, twice.udf_verifications, "{ctx}");
    assert_eq!(once.stats.output_pairs, twice.stats.output_pairs, "{ctx}");
}

/// Element tuples (`Σ |set|`) of the one collection a self-join over `d`
/// builds with `tok`: the bound on the merge steps of the diagonal pairs.
fn tuple_count(d: &[String], tok: &impl Tokenizer) -> u64 {
    let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
    let h = b.add_relation(d.iter().map(|x| tok.tokenize(x)).collect());
    b.build().unwrap().collection(h).tuple_count() as u64
}

/// SSJoin work of the one-collection run (`once`) against the
/// two-relation run (`twice`), in memory. Prefixes are the same either
/// way. A symmetric predicate sends the one-collection run down the half
/// path: it verifies each unordered pair once — the lower triangle, with
/// the diagonal — and mirrors it, while the two-relation run verifies both
/// orientations. So `2·once − twice` is the diagonal's share: at most one
/// candidate per row, and at most one self-merge of `|set|` steps per row.
/// An asymmetric predicate does the same work either way.
fn assert_exec_counters(
    once: &SsJoinResult<SimilarityJoinOutput>,
    twice: &SsJoinResult<SimilarityJoinOutput>,
    half: Option<(u64, u64)>,
    ctx: &str,
) {
    let (a, b) = (
        &once.as_ref().unwrap().stats,
        &twice.as_ref().unwrap().stats,
    );
    assert_eq!(a.prefix_tuples_r, b.prefix_tuples_r, "{ctx}: prefix R");
    assert_eq!(a.prefix_tuples_s, b.prefix_tuples_s, "{ctx}: prefix S");
    assert_eq!(b.mirrored_pairs, 0, "{ctx}: two relations never mirror");
    let Some((rows, tuples)) = half else {
        assert_eq!(a.mirrored_pairs, 0, "{ctx}: asymmetric predicate mirrored");
        assert_eq!(a.candidate_pairs, b.candidate_pairs, "{ctx}: candidates");
        assert_eq!(a.merge_steps, b.merge_steps, "{ctx}: merge steps");
        return;
    };
    assert!(a.mirrored_pairs > 0, "{ctx}: half path did not run");
    let diagonal = |x: u64, y: u64| i128::from(x) * 2 - i128::from(y);
    let cand = diagonal(a.candidate_pairs, b.candidate_pairs);
    assert!(
        (0..=i128::from(rows)).contains(&cand),
        "{ctx}: 2·{} − {} candidates outside [0, {rows}]",
        a.candidate_pairs,
        b.candidate_pairs
    );
    let steps = diagonal(a.merge_steps, b.merge_steps);
    assert!(
        (0..=i128::from(tuples)).contains(&steps),
        "{ctx}: 2·{} − {} merge steps outside [0, {tuples}]",
        a.merge_steps,
        b.merge_steps
    );
}

fn check(mode: Mode, seed: u64) {
    let d = corpus(seed, 240);
    let copy = d.clone();
    let ctx = |join: &str| format!("{join} {mode:?} seed {seed}");

    let rows = d.len() as u64;
    let words = WordTokenizer::new().lowercased();

    let cfg = JaccardConfig::resemblance(0.7).with_exec(exec(mode));
    let (a, b) = (jaccard_join(&d, &d, &cfg), jaccard_join(&d, &copy, &cfg));
    if let Mode::Default = mode {
        let half = Some((rows, tuple_count(&d, &words)));
        assert_exec_counters(&a, &b, half, &ctx("jaccard"));
    }
    assert_same(a, b, &ctx("jaccard"));

    let cfg = EditJoinConfig::new(0.8).with_exec(exec(mode));
    let (a, b) = (
        edit_similarity_join(&d, &d, &cfg),
        edit_similarity_join(&d, &copy, &cfg),
    );
    if let Mode::Default = mode {
        let half = Some((rows, tuple_count(&d, &QGramTokenizer::new(3))));
        assert_exec_counters(&a, &b, half, &ctx("edit"));
    }
    assert_same(a, b, &ctx("edit"));

    let cfg = GesJoinConfig::new(0.8).with_exec(exec(mode));
    let (a, b) = (ges_join(&d, &d, &cfg), ges_join(&d, &copy, &cfg));
    if let Mode::Default = mode {
        // GES's SSJoin normalizes one side only: no half path.
        assert_exec_counters(&a, &b, None, &ctx("ges"));
    }
    assert_same(a, b, &ctx("ges"));

    let cfg = CosineConfig::new(0.7).with_exec(exec(mode));
    let (a, b) = (cosine_join(&d, &d, &cfg), cosine_join(&d, &copy, &cfg));
    if let Mode::Default = mode {
        let half = Some((rows, tuple_count(&d, &words)));
        assert_exec_counters(&a, &b, half, &ctx("cosine"));
    }
    assert_same(a, b, &ctx("cosine"));
}

#[test]
fn self_join_equals_two_relation_join_in_memory() {
    for seed in 0..4 {
        check(Mode::Default, seed);
    }
}

#[test]
fn self_join_equals_two_relation_join_when_spilled() {
    for seed in 0..2 {
        let d = corpus(seed, 240);
        let out = jaccard_join(
            &d,
            &d,
            &JaccardConfig::resemblance(0.7).with_exec(exec(Mode::Spill)),
        )
        .unwrap();
        assert!(out.stats.spill_partitions > 1, "budget must force a spill");
        check(Mode::Spill, seed);
    }
}

#[test]
fn self_join_equals_two_relation_join_in_approximate_mode() {
    for seed in 0..2 {
        check(Mode::Approx, seed);
    }
}
