//! Property-based tests for similarity functions, driven by a seeded PRNG
//! so every failure is reproducible from the iteration's seed.

use ssjoin_prng::{Rng, StdRng};
use ssjoin_sim::*;
use ssjoin_text::{QGramTokenizer, Tokenizer};
use std::collections::HashMap;

/// A random lowercase string over the first `alphabet` letters with length
/// in `lo..=hi`.
fn random_lower(rng: &mut StdRng, alphabet: u8, lo: usize, hi: usize) -> String {
    let len = rng.gen_range_inclusive(lo..=hi);
    (0..len)
        .map(|_| (b'a' + rng.gen_range(0..alphabet)) as char)
        .collect()
}

/// A random vector of short tokens over `alphabet` letters.
fn random_tokens(
    rng: &mut StdRng,
    alphabet: u8,
    max_token_len: usize,
    max_n: usize,
) -> Vec<String> {
    let n = rng.gen_range_inclusive(0..=max_n);
    (0..n)
        .map(|_| random_lower(rng, alphabet, 1, max_token_len))
        .collect()
}

/// Levenshtein is a metric: identity and symmetry.
#[test]
fn levenshtein_identity_and_symmetry() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x1E5 + seed);
        let a = random_lower(&mut rng, 4, 0, 12);
        let b = random_lower(&mut rng, 4, 0, 12);
        assert_eq!(levenshtein(&a, &a), 0, "seed {seed}");
        assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a), "seed {seed}");
    }
}

#[test]
fn levenshtein_triangle() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x7A1 + seed);
        let a = random_lower(&mut rng, 3, 0, 8);
        let b = random_lower(&mut rng, 3, 0, 8);
        let c = random_lower(&mut rng, 3, 0, 8);
        assert!(
            levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c),
            "seed {seed}: a={a:?} b={b:?} c={c:?}"
        );
    }
}

/// Edit distance is bounded by the longer length and at least the length
/// difference.
#[test]
fn levenshtein_bounds() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0xB0 + seed);
        let a = random_lower(&mut rng, 5, 0, 16);
        let b = random_lower(&mut rng, 5, 0, 16);
        let d = levenshtein(&a, &b);
        let (la, lb) = (a.chars().count(), b.chars().count());
        assert!(d <= la.max(lb), "seed {seed}");
        assert!(d >= la.abs_diff(lb), "seed {seed}");
    }
}

/// Banded verifier agrees with the full DP for all budgets.
#[test]
fn banded_matches_full() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0xBA2 + seed);
        let a = random_lower(&mut rng, 3, 0, 14);
        let b = random_lower(&mut rng, 3, 0, 14);
        let k = rng.gen_range(0usize..8);
        let d = levenshtein(&a, &b);
        match levenshtein_within(&a, &b, k) {
            Some(got) => {
                assert_eq!(got, d, "seed {seed}");
                assert!(d <= k, "seed {seed}");
            }
            None => assert!(d > k, "seed {seed}"),
        }
    }
}

/// Property 4 of the paper: strings within edit distance ε share at least
/// max(|σ1|,|σ2|) − q + 1 − ε·q q-grams (as a multiset overlap).
#[test]
fn qgram_overlap_lower_bound() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x46B + seed);
        let a = random_lower(&mut rng, 3, 3, 14);
        let b = random_lower(&mut rng, 3, 3, 14);
        let q = rng.gen_range(1usize..4);
        let eps = levenshtein(&a, &b);
        let tok = QGramTokenizer::new(q);
        let ga = tok.tokenize(&a);
        let gb = tok.tokenize(&b);
        let max_len = a.chars().count().max(b.chars().count());
        let bound = max_len as i64 - q as i64 + 1 - (eps * q) as i64;
        assert!(
            (overlap(&ga, &gb) as i64) >= bound,
            "seed {seed}: overlap {} < bound {bound} for a={a:?} b={b:?} q={q} eps={eps}",
            overlap(&ga, &gb)
        );
    }
}

/// Jaccard containment dominates resemblance; both in [0,1].
#[test]
fn jaccard_ranges() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x1AC + seed);
        let a = random_tokens(&mut rng, 3, 2, 11);
        let b = random_tokens(&mut rng, 3, 2, 11);
        let jc = jaccard_containment(&a, &b);
        let jr = jaccard_resemblance(&a, &b);
        assert!((0.0..=1.0).contains(&jc), "seed {seed}");
        assert!((0.0..=1.0).contains(&jr), "seed {seed}");
        assert!(jc + 1e-12 >= jr, "seed {seed}");
        // Symmetry of resemblance.
        assert!(
            (jr - jaccard_resemblance(&b, &a)).abs() < 1e-12,
            "seed {seed}"
        );
    }
}

/// JR(a,b) >= alpha implies max(JC(a,b), JC(b,a)) >= alpha — the rewrite
/// Figure 4 relies on.
#[test]
fn resemblance_implies_containment() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x4E5 + seed);
        let mut a = random_tokens(&mut rng, 2, 2, 9);
        let mut b = random_tokens(&mut rng, 2, 2, 9);
        if a.is_empty() {
            a.push("a".to_string());
        }
        if b.is_empty() {
            b.push("b".to_string());
        }
        let jr = jaccard_resemblance(&a, &b);
        let jc = jaccard_containment(&a, &b).max(jaccard_containment(&b, &a));
        assert!(jc + 1e-12 >= jr, "seed {seed}");
    }
}

/// Overlap is bounded by both multiset sizes.
#[test]
fn overlap_bounds() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x0B5 + seed);
        let a = random_tokens(&mut rng, 3, 1, 16);
        let b = random_tokens(&mut rng, 3, 1, 16);
        let o = overlap(&a, &b);
        assert!(o <= a.len(), "seed {seed}");
        assert!(o <= b.len(), "seed {seed}");
    }
}

/// GES is in [0,1] and 1 on identical sequences.
#[test]
fn ges_range() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x6E5 + seed);
        let a = random_tokens(&mut rng, 3, 4, 5);
        let b = random_tokens(&mut rng, 3, 4, 5);
        let g = ges(&a, &b, &|_| 1.0, GesConfig::default());
        assert!((0.0..=1.0).contains(&g), "seed {seed}");
        let gid = ges(&a, &a, &|_| 1.0, GesConfig::default());
        assert_eq!(gid, 1.0, "seed {seed}");
    }
}

/// GES(a,b) = 1 implies a = b for unit weights on nonempty sequences.
#[test]
fn ges_one_means_equal() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x0E1 + seed);
        let mut a = random_tokens(&mut rng, 2, 3, 4);
        let mut b = random_tokens(&mut rng, 2, 3, 4);
        if a.is_empty() {
            a.push("a".to_string());
        }
        if b.is_empty() {
            b.push("b".to_string());
        }
        let g = ges(&a, &b, &|_| 1.0, GesConfig::default());
        if (g - 1.0).abs() < 1e-12 {
            assert_eq!(a, b, "seed {seed}");
        }
    }
}

/// Textbook GES (Definition 6): the full `(m+1)×(n+1)` cost matrix, token
/// edit distances from `normalized_edit_distance`. The reference the
/// prepared, pruned dynamic program is checked against.
fn ges_oracle(a: &[String], b: &[String], w: &dyn Fn(&str) -> f64, cutoff: Option<f64>) -> f64 {
    let wa: f64 = a.iter().map(|t| w(t)).sum();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if wa == 0.0 {
        return if b.is_empty() { 1.0 } else { 0.0 };
    }
    let (m, n) = (a.len(), b.len());
    let mut c = vec![vec![0.0f64; n + 1]; m + 1];
    for j in 1..=n {
        c[0][j] = c[0][j - 1] + w(&b[j - 1]);
    }
    for i in 1..=m {
        c[i][0] = c[i - 1][0] + w(&a[i - 1]);
        for j in 1..=n {
            let ned = normalized_edit_distance(&a[i - 1], &b[j - 1]);
            let replace = if cutoff.is_none_or(|cut| ned <= cut) {
                c[i - 1][j - 1] + ned * w(&a[i - 1])
            } else {
                f64::INFINITY
            };
            let delete = c[i - 1][j] + w(&a[i - 1]);
            let insert = c[i][j - 1] + w(&b[j - 1]);
            c[i][j] = replace.min(delete).min(insert);
        }
    }
    1.0 - (c[m][n] / wa).min(1.0)
}

/// `ges_at_least` and the `ges`/`ges_symmetric` adapters agree bit for bit
/// with the textbook DP, and `ges_at_least` answers `None` exactly when the
/// oracle is below the floor. Sequences cover empty sequences, empty and
/// repeated tokens; weights cover ties, zero-weight sources and (with the
/// prunings off) negative weights; the replacement cutoff is on and off; the
/// floors are random, at the oracle's value and just above it.
#[test]
fn ges_prepared_matches_oracle() {
    let mut total = GesCounters::default();
    for seed in 0..2048u64 {
        let mut rng = StdRng::seed_from_u64(0x6E50 + seed);
        let token = |rng: &mut StdRng| random_lower(rng, 3, 0, 6);
        let seq = |rng: &mut StdRng| -> Vec<String> {
            let n = rng.gen_range_inclusive(0..=6usize);
            let mut v: Vec<String> = (0..n).map(|_| token(rng)).collect();
            if n > 1 && rng.gen_bool(0.3) {
                v[n - 1] = v[0].clone();
            }
            v
        };
        let (a, b) = (seq(&mut rng), seq(&mut rng));
        // One weight per distinct token, drawn from a few styles.
        let style = rng.gen_range(0u8..5);
        let mut weights: HashMap<String, f64> = HashMap::new();
        for t in a.iter().chain(&b) {
            let w = match style {
                0 => 1.0,
                1 => [0.5, 1.0, 2.0][rng.gen_index(3)],
                2 if a.contains(t) => 0.0,
                3 => rng.gen_f64() * 4.0,
                4 => rng.gen_f64() * 2.0 - 0.5,
                _ => 1.5,
            };
            weights.entry(t.clone()).or_insert(w);
        }
        let wf = |t: &str| weights[t];
        let cutoff = rng.gen_bool(0.3).then(|| rng.gen_f64());
        let config = GesConfig {
            replacement_cutoff: cutoff,
        };
        let want = ges_oracle(&a, &b, &wf, cutoff);
        let back = ges_oracle(&b, &a, &wf, cutoff);
        assert_eq!(
            ges(&a, &b, &wf, config).to_bits(),
            want.to_bits(),
            "seed {seed}"
        );
        assert_eq!(
            ges_symmetric(&a, &b, &wf, config).to_bits(),
            want.max(back).to_bits(),
            "seed {seed}"
        );

        let mut table = GesTable::new(config);
        let mut ids: HashMap<&str, u32> = HashMap::new();
        let [ai, bi] = [&a, &b].map(|seq| -> Vec<u32> {
            seq.iter()
                .map(|t| {
                    *ids.entry(t.as_str()).or_insert_with(|| {
                        table.push(t, wf(t));
                        (table.len() - 1) as u32
                    })
                })
                .collect()
        });
        let mut scratch = GesScratch::default();
        let above = f64::from_bits(want.to_bits() + 1);
        for floor in [rng.gen_f64() * 1.2 - 0.1, want, above, f64::NEG_INFINITY] {
            match ges_at_least(&ai, &bi, &table, floor, &mut scratch) {
                Some(g) => {
                    assert_eq!(g.to_bits(), want.to_bits(), "seed {seed} floor {floor}");
                    assert!(want >= floor, "seed {seed} floor {floor}");
                }
                None => assert!(want < floor, "seed {seed} floor {floor}: {want}"),
            }
        }
        let c = scratch.counters;
        total.calls += c.calls;
        total.token_eds += c.token_eds;
        total.length_skips += c.length_skips;
        total.row_exits += c.row_exits;
    }
    // Every pruning ran, so the agreement above covers it.
    assert!(total.length_skips > 0, "{total:?}");
    assert!(total.row_exits > 0, "{total:?}");
    assert!(total.token_eds > 0, "{total:?}");
}

/// Hamming distance: defined iff equal length; symmetric; bounded.
#[test]
fn hamming_properties() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x4A3 + seed);
        let a = random_lower(&mut rng, 3, 0, 12);
        let b = random_lower(&mut rng, 3, 0, 12);
        match hamming_distance(&a, &b) {
            Some(d) => {
                assert_eq!(a.chars().count(), b.chars().count(), "seed {seed}");
                assert!(d <= a.chars().count(), "seed {seed}");
                assert_eq!(hamming_distance(&b, &a), Some(d), "seed {seed}");
                // Hamming upper-bounds Levenshtein.
                assert!(levenshtein(&a, &b) <= d, "seed {seed}");
            }
            None => assert_ne!(a.chars().count(), b.chars().count(), "seed {seed}"),
        }
    }
}

/// edit_similarity_at_least agrees with computing the similarity.
#[test]
fn threshold_udf_agrees() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x7D0 + seed);
        let a = random_lower(&mut rng, 3, 0, 10);
        let b = random_lower(&mut rng, 3, 0, 10);
        let alpha = rng.gen_f64();
        let expect = edit_similarity(&a, &b) >= alpha - 1e-9;
        assert_eq!(
            edit_similarity_at_least(&a, &b, alpha),
            expect,
            "seed {seed}"
        );
    }
}
