//! Property-based tests: every packaged similarity join against brute
//! force on random inputs — including the short strings where the q-gram
//! bound is vacuous, which the joins claim to handle exactly. Inputs are
//! driven by a seeded PRNG so every failure is reproducible from the
//! iteration's seed.

use ssjoin_baselines::naive_join;
use ssjoin_core::{Algorithm, WeightScheme};
use ssjoin_joins::{
    edit_similarity_join, ges_join, hamming_join, jaccard_join, soft_fd_join, EditJoinConfig,
    EditMatcher, GesJoinConfig, HammingJoinConfig, JaccardConfig, SoftFdConfig,
};
use ssjoin_prng::{Rng, StdRng};
use ssjoin_sim::{edit_similarity, ges, hamming_distance, jaccard_resemblance, GesConfig};
use ssjoin_text::{Tokenizer, WordTokenizer};
use std::collections::HashMap;

/// A random string over `pool` with length in `0..=max_len`.
fn random_string(rng: &mut StdRng, pool: &[char], max_len: usize) -> String {
    let len = rng.gen_range_inclusive(0..=max_len);
    (0..len).map(|_| pool[rng.gen_index(pool.len())]).collect()
}

/// 1–9 strings of up to 14 chars over {a, b, c, space} — word-boundary and
/// empty-string heavy.
fn random_corpus(rng: &mut StdRng) -> Vec<String> {
    let n = rng.gen_range(1usize..10);
    (0..n)
        .map(|_| random_string(rng, &['a', 'b', 'c', ' '], 14))
        .collect()
}

/// The edit join is exact for arbitrary (including very short) strings.
#[test]
fn edit_join_exact() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0xED17 + seed);
        let data = random_corpus(&mut rng);
        let theta = 0.3 + 0.65 * rng.gen_f64();
        let mut expect = Vec::new();
        for (i, a) in data.iter().enumerate() {
            for (j, b) in data.iter().enumerate() {
                if edit_similarity(a, b) >= theta - 1e-9 {
                    expect.push((i as u32, j as u32));
                }
            }
        }
        for alg in [Algorithm::Basic, Algorithm::Inline, Algorithm::Partition] {
            let out = edit_similarity_join(
                &data,
                &data,
                &EditJoinConfig::new(theta).with_algorithm(alg),
            )
            .unwrap();
            assert_eq!(out.keys(), expect, "seed {seed} alg {alg:?} theta {theta}");
        }
    }
}

/// The prebuilt matcher returns exactly the brute-force matches, in
/// similarity order.
#[test]
fn matcher_exact() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x3A7C + seed);
        let refs = random_corpus(&mut rng);
        let query = random_string(&mut rng, &['a', 'b', 'c', ' '], 14);
        let theta = 0.3 + 0.65 * rng.gen_f64();
        let matcher = EditMatcher::build(refs.clone(), 3);
        let got: Vec<u32> = matcher
            .matches(&query, theta)
            .into_iter()
            .map(|m| m.index)
            .collect();
        let mut expect: Vec<(u32, f64)> = refs
            .iter()
            .enumerate()
            .filter_map(|(i, r)| {
                let s = edit_similarity(&query, r);
                (s >= theta - 1e-9).then_some((i as u32, s))
            })
            .collect();
        expect.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        assert_eq!(
            got,
            expect.into_iter().map(|(i, _)| i).collect::<Vec<_>>(),
            "seed {seed}"
        );
    }
}

/// Unweighted Jaccard resemblance join is exact.
#[test]
fn jaccard_join_exact() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x1ACC + seed);
        let data = random_corpus(&mut rng);
        let theta = 0.2 + 0.8 * rng.gen_f64();
        let tok = WordTokenizer::new().lowercased();
        let groups: Vec<Vec<String>> = data.iter().map(|s| tok.tokenize(s)).collect();
        let mut expect = Vec::new();
        for (i, a) in groups.iter().enumerate() {
            for (j, b) in groups.iter().enumerate() {
                // The operator never joins empty groups (positive-threshold
                // assumption), so skip them in the oracle too.
                if a.is_empty() || b.is_empty() {
                    continue;
                }
                if jaccard_resemblance(a, b) >= theta - 1e-9 {
                    expect.push((i as u32, j as u32));
                }
            }
        }
        let cfg = JaccardConfig::resemblance(theta).with_weights(WeightScheme::Unweighted);
        let out = jaccard_join(&data, &data, &cfg).unwrap();
        assert_eq!(out.keys(), expect, "seed {seed} theta {theta}");
    }
}

/// Hamming join is exact.
#[test]
fn hamming_join_exact() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x4A33 + seed);
        let n = rng.gen_range(1usize..10);
        let data: Vec<String> = (0..n)
            .map(|_| random_string(&mut rng, &['0', '1'], 8))
            .collect();
        let k = rng.gen_range(0usize..4);
        let mut expect = Vec::new();
        for (i, a) in data.iter().enumerate() {
            for (j, b) in data.iter().enumerate() {
                if matches!(hamming_distance(a, b), Some(d) if d <= k) {
                    expect.push((i as u32, j as u32));
                }
            }
        }
        let out = hamming_join(&data, &data, &HammingJoinConfig::new(k)).unwrap();
        let mut got = out.keys();
        got.sort_unstable();
        assert_eq!(got, expect, "seed {seed} k {k}");
    }
}

/// Soft-FD join is exact for arbitrary attribute data.
#[test]
fn soft_fd_exact() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x50FD + seed);
        let n = rng.gen_range(1usize..12);
        let rows: Vec<Vec<String>> = (0..n)
            .map(|_| {
                (0..3)
                    .map(|_| random_string(&mut rng, &['a', 'b'], 2))
                    .collect()
            })
            .collect();
        let k = rng.gen_range_inclusive(1usize..=3);
        let mut expect = Vec::new();
        for (i, a) in rows.iter().enumerate() {
            for (j, b) in rows.iter().enumerate() {
                let agree = a
                    .iter()
                    .zip(b)
                    .filter(|(x, y)| x == y && !x.is_empty())
                    .count();
                if agree >= k {
                    expect.push((i as u32, j as u32));
                }
            }
        }
        let out = soft_fd_join(&rows, &rows, &SoftFdConfig::new(k)).unwrap();
        assert_eq!(out.keys(), expect, "seed {seed} k {k}");
    }
}

/// 1–11 rows of 0–5 words: address words with typo variants, numbers, and
/// random short words, in mixed case.
fn random_words_corpus(rng: &mut StdRng) -> Vec<String> {
    const POOL: [&str; 14] = [
        "main", "mian", "Main", "street", "streat", "st", "oak", "oaks", "avenue", "avenu", "100",
        "101", "apt", "suite",
    ];
    let n = rng.gen_range(1usize..12);
    (0..n)
        .map(|_| {
            let words = rng.gen_range_inclusive(0..=5usize);
            (0..words)
                .map(|_| {
                    if rng.gen_bool(0.2) {
                        random_string(rng, &['a', 'b', 'c'], 5)
                    } else {
                        POOL[rng.gen_index(POOL.len())].to_string()
                    }
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

/// The exhaustive GES join is the naive cross product with the `ges` UDF at
/// the same IDF weights — pairs and similarity bits — and every filtered
/// join (Basic, Inline, Partition) returns a subset of it with the same
/// bits. Self-joins and two-relation joins both.
#[test]
fn ges_join_matches_naive_oracle() {
    let mut inexact = 0;
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x6E5A + seed);
        let r = random_words_corpus(&mut rng);
        let other = random_words_corpus(&mut rng);
        let theta = 0.5 + 0.5 * rng.gen_f64();
        for s in [&r, &other] {
            let tok = WordTokenizer::new().lowercased();
            let words = |xs: &[String]| -> Vec<Vec<String>> {
                xs.iter().map(|x| tok.tokenize(x)).collect()
            };
            let (rw, sw) = (words(&r), words(s));
            // IDF over R and S together: ln(1 + N / f_t), N = |R| + |S|.
            let n = (r.len() + s.len()) as f64;
            let mut freq: HashMap<&str, usize> = HashMap::new();
            for row in rw.iter().chain(&sw) {
                let mut seen: Vec<&str> = Vec::new();
                for t in row {
                    if !seen.contains(&t.as_str()) {
                        seen.push(t);
                        *freq.entry(t).or_insert(0) += 1;
                    }
                }
            }
            let weight = |t: &str| (1.0 + n / freq[t] as f64).ln();
            let (expect, _) = naive_join(&rw, &sw, theta, |a, b| {
                ges(a, b, &weight, GesConfig::default())
            });
            let bits = |v: Vec<(u32, u32, f64)>| -> Vec<(u32, u32, u64)> {
                v.into_iter().map(|(i, j, g)| (i, j, g.to_bits())).collect()
            };
            let expect = bits(expect);
            inexact += expect.iter().filter(|p| p.2 != 1f64.to_bits()).count();
            let got = |cfg: &GesJoinConfig| -> Vec<(u32, u32, u64)> {
                let out = ges_join(&r, s, cfg).unwrap();
                out.pairs
                    .iter()
                    .map(|p| (p.r, p.s, p.similarity.to_bits()))
                    .collect()
            };
            let ctx = format!("seed {seed} theta {theta} self {}", std::ptr::eq(s, &r));
            assert_eq!(
                got(&GesJoinConfig::new(theta).exhaustive()),
                expect,
                "{ctx}"
            );
            for alg in [Algorithm::Basic, Algorithm::Inline, Algorithm::Partition] {
                for p in got(&GesJoinConfig::new(theta).with_algorithm(alg)) {
                    assert!(expect.contains(&p), "{ctx} alg {alg:?}: {p:?}");
                }
            }
        }
    }
    // Pairs below similarity 1 occur, so the bits compared above include
    // real token edits, not only identical rows.
    assert!(inexact > 0);
}
