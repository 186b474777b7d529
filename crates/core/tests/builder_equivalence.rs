//! The input builder against a frozen oracle: a verbatim copy of the
//! `Vec<Vec<String>>`-interning builder the library shipped before the
//! borrowed-token rewrite. Every observable field of every built collection
//! — ranks, weights, suffix weights, totals, norms (bit-exact), signatures,
//! minimum weights, planner statistics — and the universe metadata
//! (`element`, `element_weight`, `QueryEncoder::rank_of`) must match across
//! weight schemes × element orders × norm kinds × seeds, with repeated
//! tokens (ordinal ≥ 2), empty groups and empty relations.
//!
//! `CollectionStats::sample_ids` is not compared: its reservoir is seeded
//! from the per-build universe tag, which differs between any two builds.

use ssjoin_core::{
    BuiltInput, ElementOrder, FxHashMap, NormKind, SetCollection, SsJoinInputBuilder, Weight,
    WeightScheme, SIG_WORDS,
};
use ssjoin_prng::{Rng, StdRng};

// ---------------------------------------------------------------------------
// Oracle: the pre-rewrite builder, kept verbatim up to the point where it
// handed per-set `(elements, norm)` lists to the collection constructor.
// ---------------------------------------------------------------------------

/// One set: its `(rank, weight)` elements in occurrence order, and its norm.
type OracleSet = (Vec<(u32, Weight)>, f64);

struct OracleBuild {
    /// Per relation, its sets.
    sets: Vec<Vec<OracleSet>>,
    element_meta: Vec<(String, u32)>,
    weights_by_rank: Vec<Weight>,
}

fn sort_key(order: ElementOrder, freq: usize, token: &str, uid: u64) -> (u64, u64) {
    match order {
        ElementOrder::FrequencyAsc => (freq as u64, uid),
        ElementOrder::FrequencyDesc => (u64::MAX - freq as u64, uid),
        ElementOrder::Lexicographic => {
            let mut b = [0u8; 8];
            let bytes = token.as_bytes();
            let n = bytes.len().min(8);
            b[..n].copy_from_slice(&bytes[..n]);
            (u64::from_be_bytes(b), uid)
        }
        ElementOrder::Hashed => {
            use std::hash::{Hash, Hasher};
            let mut h = ssjoin_core::FxHasher::default();
            uid.hash(&mut h);
            (h.finish(), uid)
        }
    }
}

fn oracle_build(
    scheme: WeightScheme,
    order: ElementOrder,
    relations: &[(Vec<Vec<String>>, NormKind)],
) -> OracleBuild {
    let mut token_ids: FxHashMap<String, u32> = FxHashMap::default();
    let mut tokens: Vec<String> = Vec::new();
    let mut element_ids: FxHashMap<(u32, u32), u32> = FxHashMap::default();
    let mut elements: Vec<(u32, u32)> = Vec::new();
    let mut element_freq: Vec<usize> = Vec::new();
    let mut token_freq: Vec<usize> = Vec::new();
    let mut rel_groups: Vec<Vec<Vec<u32>>> = Vec::with_capacity(relations.len());
    let total_groups: usize = relations.iter().map(|r| r.0.len()).sum();

    let mut occurrence_counter: FxHashMap<u32, u32> = FxHashMap::default();
    for (groups, _) in relations {
        let mut groups_out = Vec::with_capacity(groups.len());
        for group in groups {
            occurrence_counter.clear();
            let mut eids = Vec::with_capacity(group.len());
            for token in group {
                let tid = match token_ids.get(token.as_str()) {
                    Some(&t) => t,
                    None => {
                        let t = tokens.len() as u32;
                        tokens.push(token.clone());
                        token_ids.insert(token.clone(), t);
                        token_freq.push(0);
                        t
                    }
                };
                let ord = occurrence_counter.entry(tid).or_insert(0);
                *ord += 1;
                if *ord == 1 {
                    token_freq[tid as usize] += 1;
                }
                let key = (tid, *ord);
                let eid = match element_ids.get(&key) {
                    Some(&e) => e,
                    None => {
                        let e = elements.len() as u32;
                        elements.push(key);
                        element_ids.insert(key, e);
                        element_freq.push(0);
                        e
                    }
                };
                element_freq[eid as usize] += 1;
                eids.push(eid);
            }
            groups_out.push(eids);
        }
        rel_groups.push(groups_out);
    }

    let weights_by_eid: Vec<Weight> = elements
        .iter()
        .map(|&(tid, _)| match scheme {
            WeightScheme::Unweighted => Weight::ONE,
            WeightScheme::Idf => {
                let ft = token_freq[tid as usize].max(1) as f64;
                Weight::from_f64((1.0 + total_groups as f64 / ft).ln())
            }
            WeightScheme::IdfSquared => {
                let ft = token_freq[tid as usize].max(1) as f64;
                let idf = (1.0 + total_groups as f64 / ft).ln();
                Weight::from_f64(idf * idf)
            }
        })
        .collect();

    let mut order_keys: Vec<u32> = (0..elements.len() as u32).collect();
    order_keys.sort_unstable_by_key(|&eid| {
        let (tid, _) = elements[eid as usize];
        sort_key(
            order,
            element_freq[eid as usize],
            &tokens[tid as usize],
            eid as u64,
        )
    });
    let mut rank_of_eid = vec![0u32; elements.len()];
    for (rank, &eid) in order_keys.iter().enumerate() {
        rank_of_eid[eid as usize] = rank as u32;
    }

    let mut element_meta: Vec<(String, u32)> = vec![(String::new(), 0); elements.len()];
    let mut weights_by_rank: Vec<Weight> = vec![Weight::ZERO; elements.len()];
    for (eid, &(tid, ord)) in elements.iter().enumerate() {
        let rank = rank_of_eid[eid] as usize;
        element_meta[rank] = (tokens[tid as usize].clone(), ord);
        weights_by_rank[rank] = weights_by_eid[eid];
    }

    let mut sets_out = Vec::with_capacity(relations.len());
    for ((_, norm_kind), groups) in relations.iter().zip(rel_groups) {
        let mut sets = Vec::with_capacity(groups.len());
        for (gi, eids) in groups.iter().enumerate() {
            let elems: Vec<(u32, Weight)> = eids
                .iter()
                .map(|&eid| (rank_of_eid[eid as usize], weights_by_eid[eid as usize]))
                .collect();
            let norm = match norm_kind {
                NormKind::TotalWeight => elems.iter().map(|&(_, w)| w).sum::<Weight>().to_f64(),
                NormKind::SqrtTotalWeight => elems
                    .iter()
                    .map(|&(_, w)| w)
                    .sum::<Weight>()
                    .to_f64()
                    .sqrt(),
                NormKind::Cardinality => elems.len() as f64,
                NormKind::Custom(norms) => norms[gi],
            };
            sets.push((elems, norm));
        }
        sets_out.push(sets);
    }
    OracleBuild {
        sets: sets_out,
        element_meta,
        weights_by_rank,
    }
}

// ---------------------------------------------------------------------------
// Independent derivations of the arena's per-set state.
// ---------------------------------------------------------------------------

/// The arena's hashed signature position for a rank.
fn signature_position(rank: u32) -> usize {
    ((rank as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 55) as usize
}

fn len_bucket(len: usize, buckets: usize) -> usize {
    if len == 0 {
        0
    } else {
        (len.ilog2() as usize + 1).min(buckets - 1)
    }
}

/// Compare one built collection with the oracle's sets, field by field.
fn assert_collection_matches(c: &SetCollection, want: &[OracleSet], ctx: &str) {
    assert_eq!(c.len(), want.len(), "{ctx}: set count");
    let universe = c.universe_size();
    let mut token_freq = vec![0u32; universe];
    let mut len_hist = *c.stats().len_histogram();
    len_hist.fill(0);
    let mut max_len = 0usize;
    let mut tuples = 0usize;
    for (i, (elems, norm)) in want.iter().enumerate() {
        let mut sorted = elems.clone();
        sorted.sort_unstable_by_key(|&(r, _)| r);
        let set = c.set(i as u32);
        let ranks: Vec<u32> = sorted.iter().map(|&(r, _)| r).collect();
        let weights: Vec<Weight> = sorted.iter().map(|&(_, w)| w).collect();
        assert_eq!(set.ranks(), &ranks[..], "{ctx}: set {i} ranks");
        assert_eq!(set.weights(), &weights[..], "{ctx}: set {i} weights");
        let mut suffix = vec![Weight::ZERO; weights.len()];
        let mut acc = Weight::ZERO;
        for k in (0..weights.len()).rev() {
            acc += weights[k];
            suffix[k] = acc;
        }
        assert_eq!(set.suffix_weights(), &suffix[..], "{ctx}: set {i} suffix");
        assert_eq!(set.total_weight(), acc, "{ctx}: set {i} total");
        assert_eq!(
            set.norm().to_bits(),
            norm.to_bits(),
            "{ctx}: set {i} norm {} vs {norm}",
            set.norm()
        );
        let mut sig = [0u64; SIG_WORDS];
        for &r in &ranks {
            let p = signature_position(r);
            sig[p >> 6] |= 1u64 << (p & 63);
        }
        assert_eq!(set.signature_words(), &sig[..], "{ctx}: set {i} signature");
        let min = weights.iter().copied().min().unwrap_or(Weight::ZERO);
        assert_eq!(set.min_element_weight(), min, "{ctx}: set {i} min weight");
        for &r in &ranks {
            token_freq[r as usize] += 1;
        }
        len_hist[len_bucket(ranks.len(), len_hist.len())] += 1;
        max_len = max_len.max(ranks.len());
        tuples += ranks.len();
    }
    assert_eq!(c.tuple_count(), tuples, "{ctx}: tuple count");
    let stats = c.stats();
    assert_eq!(stats.token_freq(), &token_freq[..], "{ctx}: token_freq");
    assert_eq!(stats.len_histogram(), &len_hist, "{ctx}: len_histogram");
    assert_eq!(stats.max_len(), max_len, "{ctx}: max_len");
    let norm_range = want.iter().fold(None, |acc: Option<(f64, f64)>, &(_, n)| {
        Some(acc.map_or((n, n), |(lo, hi)| (lo.min(n), hi.max(n))))
    });
    assert_eq!(c.norm_range(), norm_range, "{ctx}: norm range");
}

fn assert_universe_matches(built: &BuiltInput, want: &OracleBuild, ctx: &str) {
    assert_eq!(
        built.universe_size(),
        want.element_meta.len(),
        "{ctx}: universe"
    );
    let enc = built.query_encoder();
    assert_eq!(enc.universe_size(), want.element_meta.len());
    let mut max_ord: FxHashMap<&str, u32> = FxHashMap::default();
    for (rank, (token, ord)) in want.element_meta.iter().enumerate() {
        let rank = rank as u32;
        assert_eq!(
            built.element(rank),
            (token.as_str(), *ord),
            "{ctx}: element {rank}"
        );
        assert_eq!(
            built.element_weight(rank),
            want.weights_by_rank[rank as usize],
            "{ctx}: element weight {rank}"
        );
        assert_eq!(
            enc.rank_of(token, *ord),
            Some(rank),
            "{ctx}: rank_of({token:?}, {ord})"
        );
        let m = max_ord.entry(token.as_str()).or_insert(0);
        *m = (*m).max(*ord);
    }
    for (token, &m) in &max_ord {
        assert_eq!(enc.rank_of(token, m + 1), None, "{ctx}: past last ordinal");
        assert_eq!(enc.rank_of(token, 0), None, "{ctx}: ordinal 0");
    }
    assert_eq!(enc.rank_of("never-seen", 1), None, "{ctx}: unseen token");
}

// ---------------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------------

/// A random token drawn from a small alphabet, so repeats within a group
/// (ordinal ≥ 2) and across groups are common. Includes multi-byte tokens
/// and tokens sharing their first eight bytes (the lexicographic key).
fn random_token(rng: &mut StdRng) -> String {
    const POOL: &[&str] = &[
        "a",
        "b",
        "main",
        "st",
        "ave",
        "straße",
        "λx",
        "漢字",
        "prefix-long-1",
        "prefix-long-2",
        "",
        "9",
    ];
    if rng.gen_bool(0.2) {
        format!("t{}", rng.gen_range(0u32..40))
    } else {
        POOL[rng.gen_index(POOL.len())].to_string()
    }
}

fn random_relation(rng: &mut StdRng) -> Vec<Vec<String>> {
    let groups = if rng.gen_bool(0.1) {
        0
    } else {
        rng.gen_range_inclusive(1usize..=30)
    };
    (0..groups)
        .map(|_| {
            let n = if rng.gen_bool(0.15) {
                0
            } else {
                rng.gen_range_inclusive(1usize..=9)
            };
            (0..n).map(|_| random_token(rng)).collect()
        })
        .collect()
}

fn random_norm(rng: &mut StdRng, groups: usize) -> NormKind {
    match rng.gen_index(4) {
        0 => NormKind::TotalWeight,
        1 => NormKind::SqrtTotalWeight,
        2 => NormKind::Cardinality,
        _ => NormKind::Custom((0..groups).map(|_| rng.gen_f64() * 40.0).collect()),
    }
}

const SCHEMES: [WeightScheme; 3] = [
    WeightScheme::Unweighted,
    WeightScheme::Idf,
    WeightScheme::IdfSquared,
];
const ORDERS: [ElementOrder; 4] = [
    ElementOrder::FrequencyAsc,
    ElementOrder::FrequencyDesc,
    ElementOrder::Lexicographic,
    ElementOrder::Hashed,
];

#[test]
fn builder_matches_oracle_on_every_field() {
    for seed in 0..12u64 {
        for scheme in SCHEMES {
            for order in ORDERS {
                let mut rng = StdRng::seed_from_u64(0xB17D ^ (seed << 8));
                let n_rel = rng.gen_range_inclusive(1usize..=3);
                let relations: Vec<(Vec<Vec<String>>, NormKind)> = (0..n_rel)
                    .map(|_| {
                        let groups = random_relation(&mut rng);
                        let norm = random_norm(&mut rng, groups.len());
                        (groups, norm)
                    })
                    .collect();
                let want = oracle_build(scheme, order, &relations);

                let mut b = SsJoinInputBuilder::new(scheme, order);
                let handles: Vec<_> = relations
                    .iter()
                    .map(|(groups, norm)| b.add_relation_with_norm(groups.clone(), norm.clone()))
                    .collect();
                let built = b.build().unwrap();
                let ctx = format!("seed {seed} {scheme:?} {order:?}");
                assert_universe_matches(&built, &want, &ctx);
                for (ri, h) in handles.iter().enumerate() {
                    let c = built.collection(*h);
                    assert_eq!(c.universe_size(), want.element_meta.len());
                    assert_collection_matches(c, &want.sets[ri], &format!("{ctx} rel {ri}"));
                    // Re-encoding a relation through the frozen universe
                    // reproduces its sets (every token is known).
                    let (groups, norm) = &relations[ri];
                    if !matches!(norm, NormKind::SqrtTotalWeight) {
                        let again = built.query_encoder().encode(groups, norm.clone()).unwrap();
                        assert!(c.shares_universe(&again));
                        assert_collection_matches(
                            &again,
                            &want.sets[ri],
                            &format!("{ctx} rel {ri} re-encoded"),
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn builder_matches_oracle_on_degenerate_inputs() {
    let cases: Vec<Vec<(Vec<Vec<String>>, NormKind)>> = vec![
        vec![],
        vec![(vec![], NormKind::TotalWeight)],
        vec![(vec![vec![], vec![]], NormKind::Cardinality)],
        vec![
            (vec![vec!["x".into(); 5]], NormKind::TotalWeight),
            (vec![], NormKind::TotalWeight),
            (vec![vec!["x".into(); 2], vec![]], NormKind::Cardinality),
        ],
    ];
    for (ci, relations) in cases.iter().enumerate() {
        for scheme in SCHEMES {
            for order in ORDERS {
                let want = oracle_build(scheme, order, relations);
                let mut b = SsJoinInputBuilder::new(scheme, order);
                let handles: Vec<_> = relations
                    .iter()
                    .map(|(g, n)| b.add_relation_with_norm(g.clone(), n.clone()))
                    .collect();
                let built = b.build().unwrap();
                let ctx = format!("case {ci} {scheme:?} {order:?}");
                assert_universe_matches(&built, &want, &ctx);
                for (ri, h) in handles.iter().enumerate() {
                    assert_collection_matches(built.collection(*h), &want.sets[ri], &ctx);
                }
            }
        }
    }
}

/// A self-join built once (one relation, used as both sides) carries the
/// same ranks, weights and norms as the two-relation build of the same
/// data: doubling every frequency and `N` leaves `N / f_t` and the
/// frequency order unchanged.
#[test]
fn one_relation_build_equals_each_side_of_two_relation_build() {
    for seed in 0..8u64 {
        for scheme in SCHEMES {
            for order in ORDERS {
                let mut rng = StdRng::seed_from_u64(0x5E1F ^ seed);
                let groups = random_relation(&mut rng);
                let norm = random_norm(&mut rng, groups.len());
                let twice = oracle_build(
                    scheme,
                    order,
                    &[
                        (groups.clone(), norm.clone()),
                        (groups.clone(), norm.clone()),
                    ],
                );
                let mut b = SsJoinInputBuilder::new(scheme, order);
                let h = b.add_relation_with_norm(groups, norm);
                let built = b.build().unwrap();
                let ctx = format!("seed {seed} {scheme:?} {order:?}");
                assert_universe_matches(&built, &twice, &ctx);
                assert_collection_matches(built.collection(h), &twice.sets[0], &ctx);
                assert_collection_matches(built.collection(h), &twice.sets[1], &ctx);
            }
        }
    }
}
