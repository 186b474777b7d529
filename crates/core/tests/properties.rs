//! Property-based tests: every physical implementation of SSJoin must agree
//! with a brute-force oracle, for random inputs, weights, orders, and
//! predicate shapes. Inputs are driven by a seeded PRNG so every failure is
//! reproducible from the iteration's seed.

use ssjoin_core::kernel::{overlap_at_least, overlap_gallop, verify_overlap};
use ssjoin_core::plan::{basic_plan, collection_to_relation, inline_plan, prefix_plan, run_plan};
use ssjoin_core::{
    ssjoin, Algorithm, CorpusIndex, CorpusIndexOptions, ElementOrder, ExecContext, JoinPair,
    JoinWorkspace, NormExpr, OverlapKernel, OverlapPredicate, SetCollection, SignatureWidth,
    SsJoinConfig, SsJoinInputBuilder, SsJoinStats, Weight, WeightScheme,
};
use ssjoin_prng::{Rng, StdRng};
use std::sync::Arc;

/// Brute force: check every pair with the merge-based overlap.
fn oracle(r: &SetCollection, s: &SetCollection, pred: &OverlapPredicate) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for (i, rs) in r.iter().enumerate() {
        for (j, ss) in s.iter().enumerate() {
            let ov = rs.overlap(ss);
            if pred.check(ov, rs.norm(), ss.norm()) {
                out.push((i as u32, j as u32));
            }
        }
    }
    out
}

fn pairs_to_keys(pairs: &[JoinPair]) -> Vec<(u32, u32)> {
    pairs.iter().map(|p| (p.r, p.s)).collect()
}

/// 1–19 groups of 0–7 single-letter tokens from a 10-letter alphabet —
/// small enough for the oracle, collision-heavy enough to exercise every
/// code path.
fn random_groups(rng: &mut StdRng) -> Vec<Vec<String>> {
    let n = rng.gen_range(1usize..20);
    (0..n)
        .map(|_| {
            let len = rng.gen_range(0usize..8);
            (0..len)
                .map(|_| {
                    let c = b'a' + rng.gen_range(0u8..10);
                    (c as char).to_string()
                })
                .collect()
        })
        .collect()
}

fn random_predicate(rng: &mut StdRng) -> OverlapPredicate {
    match rng.gen_range(0u32..4) {
        0 => OverlapPredicate::absolute(0.5 + 3.5 * rng.gen_f64()),
        1 => OverlapPredicate::r_normalized(0.1 + 0.9 * rng.gen_f64()),
        2 => OverlapPredicate::s_normalized(0.1 + 0.9 * rng.gen_f64()),
        _ => OverlapPredicate::two_sided(0.1 + 0.9 * rng.gen_f64()),
    }
}

fn random_order(rng: &mut StdRng) -> ElementOrder {
    match rng.gen_range(0u32..4) {
        0 => ElementOrder::FrequencyAsc,
        1 => ElementOrder::FrequencyDesc,
        2 => ElementOrder::Lexicographic,
        _ => ElementOrder::Hashed,
    }
}

fn build_two(
    r_groups: Vec<Vec<String>>,
    s_groups: Vec<Vec<String>>,
    scheme: WeightScheme,
    order: ElementOrder,
) -> (SetCollection, SetCollection) {
    let mut b = SsJoinInputBuilder::new(scheme, order);
    let rh = b.add_relation(r_groups);
    let sh = b.add_relation(s_groups);
    let built = b.build().unwrap();
    (built.collection(rh).clone(), built.collection(sh).clone())
}

/// All five fast-path algorithms agree with the oracle, for every weighting
/// scheme and global order.
#[test]
fn executors_match_oracle() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xA110 + seed);
        let scheme = if rng.gen_bool(0.5) {
            WeightScheme::Idf
        } else {
            WeightScheme::Unweighted
        };
        let order = random_order(&mut rng);
        let pred = random_predicate(&mut rng);
        let (r, s) = build_two(
            random_groups(&mut rng),
            random_groups(&mut rng),
            scheme,
            order,
        );
        let expect = oracle(&r, &s, &pred);
        for alg in [
            Algorithm::Basic,
            Algorithm::PrefixFiltered,
            Algorithm::Inline,
            Algorithm::Partition,
            Algorithm::Auto,
        ] {
            let out = ssjoin(&r, &s, &pred, &SsJoinConfig::new(alg)).unwrap();
            assert_eq!(
                pairs_to_keys(&out.pairs),
                expect,
                "seed {seed}, algorithm {alg:?}, order {order:?}, scheme {scheme:?}"
            );
        }
    }
}

/// Overlap values reported by different algorithms are identical (exact
/// fixed-point, not merely approximately equal).
#[test]
fn overlaps_are_exact_across_algorithms() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xEAAC + seed);
        let pred = random_predicate(&mut rng);
        let groups = random_groups(&mut rng);
        let (r, s) = build_two(
            groups.clone(),
            groups,
            WeightScheme::Idf,
            ElementOrder::FrequencyAsc,
        );
        let a = ssjoin(&r, &s, &pred, &SsJoinConfig::new(Algorithm::Basic)).unwrap();
        let b = ssjoin(&r, &s, &pred, &SsJoinConfig::new(Algorithm::Inline)).unwrap();
        assert_eq!(a.pairs, b.pairs, "seed {seed}");
    }
}

/// The relational plans (Figures 7/8/9) agree with the fast path.
#[test]
fn relational_plans_match_fast_path() {
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(0x9E1A + seed);
        let pred = random_predicate(&mut rng);
        // Smaller inputs: the plan path materializes full intermediates.
        let n = rng.gen_range(1usize..12);
        let groups: Vec<Vec<String>> = (0..n)
            .map(|_| {
                let len = rng.gen_range(0usize..6);
                (0..len)
                    .map(|_| ((b'a' + rng.gen_range(0u8..6)) as char).to_string())
                    .collect()
            })
            .collect();
        let (r, s) = build_two(
            groups.clone(),
            groups,
            WeightScheme::Idf,
            ElementOrder::FrequencyAsc,
        );
        let expect = ssjoin(&r, &s, &pred, &SsJoinConfig::new(Algorithm::Basic))
            .unwrap()
            .pairs;

        let r_rel = Arc::new(collection_to_relation(&r));
        let s_rel = Arc::new(collection_to_relation(&s));
        let (basic, _) =
            run_plan(basic_plan(r_rel.clone(), s_rel.clone(), &pred).as_ref()).unwrap();
        assert_eq!(&basic, &expect, "basic plan, seed {seed}");
        let (prefix, _) =
            run_plan(prefix_plan(r_rel, s_rel, &pred, r.norm_range(), s.norm_range()).as_ref())
                .unwrap();
        assert_eq!(&prefix, &expect, "prefix plan, seed {seed}");
        let (inline, _) = run_plan(inline_plan(&r, &s, &pred).as_ref()).unwrap();
        assert_eq!(&inline, &expect, "inline plan, seed {seed}");
    }
}

/// Parallel execution — group chunks (`Inline` and the other chunked
/// executors) and token shards (`Partition`), with the bitmap signature
/// filter on or off — is exactly equivalent to sequential: same pairs, same
/// overlaps, for every algorithm.
#[test]
fn parallel_equals_sequential() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0x5A4D + seed);
        let pred = random_predicate(&mut rng);
        let order = random_order(&mut rng);
        let groups = random_groups(&mut rng);
        let (r, s) = build_two(groups.clone(), groups, WeightScheme::Idf, order);
        for alg in [
            Algorithm::Basic,
            Algorithm::PrefixFiltered,
            Algorithm::Inline,
            Algorithm::Partition,
            Algorithm::Auto,
        ] {
            let seq = ssjoin(&r, &s, &pred, &SsJoinConfig::new(alg)).unwrap();
            for threads in [2usize, 8] {
                for bitmap in [false, true] {
                    let ctx = ExecContext::new()
                        .with_threads(threads)
                        .with_bitmap_filter(bitmap);
                    let par =
                        ssjoin(&r, &s, &pred, &SsJoinConfig::new(alg).with_exec(ctx)).unwrap();
                    assert_eq!(
                        seq.pairs, par.pairs,
                        "seed {seed}, alg {alg:?}, threads {threads}, bitmap {bitmap}"
                    );
                }
            }
        }
    }
}

/// The algorithm alone names the parallel strategy: `Inline` never runs
/// token shards at any thread count, and `Partition` always does on a
/// non-empty input — even at one thread, so this holds on any host.
#[test]
fn algorithm_alone_picks_the_executor() {
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0xE8EC + seed);
        let pred = random_predicate(&mut rng);
        let mut groups = random_groups(&mut rng);
        groups.push(vec!["a".to_string(), "b".to_string()]);
        let (r, s) = build_two(
            groups.clone(),
            groups,
            WeightScheme::Idf,
            random_order(&mut rng),
        );
        for threads in [1usize, 2, 8] {
            let run = |alg| {
                ssjoin(&r, &s, &pred, &SsJoinConfig::new(alg).with_threads(threads))
                    .unwrap()
                    .stats
            };
            assert_eq!(
                run(Algorithm::Inline).shards,
                0,
                "seed {seed}, threads {threads}"
            );
            assert!(
                run(Algorithm::Partition).shards > 0,
                "seed {seed}, threads {threads}"
            );
        }
    }
}

/// The threshold-aware kernels (early-exit and galloping) agree with the
/// full linear merge on random weighted sets — including empty, singleton,
/// disjoint, identical, and heavily skewed-length pairs — at thresholds
/// below, at, and above the exact overlap.
#[test]
fn kernels_agree_with_linear_oracle() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xCE12 + seed);
        // Shape mixture: empty, singleton, random small sets, one long set
        // plus a tiny subset of it (the skewed-length case galloping is for).
        let mut groups: Vec<Vec<String>> = vec![vec![], vec!["solo".to_string()]];
        groups.extend(random_groups(&mut rng));
        groups.push((0..200).map(|i| format!("L{i:03}")).collect());
        groups.push(
            (0..3)
                .map(|k| format!("L{:03}", 50 * (k + 1) + rng.gen_range(0u8..40) as usize))
                .collect(),
        );
        let (c, _) = build_two(
            groups.clone(),
            groups,
            WeightScheme::Idf,
            ElementOrder::FrequencyAsc,
        );
        for i in 0..c.len() as u32 {
            for j in 0..c.len() as u32 {
                let (a, b) = (c.set(i), c.set(j));
                let exact = a.overlap(b);
                // Thresholds straddling the exact overlap, plus the extremes.
                let requireds = [
                    Weight::ZERO,
                    Weight::from_raw(exact.raw() / 2),
                    exact,
                    exact + Weight::EPSILON,
                    a.total_weight().max(b.total_weight()) + Weight::ONE,
                ];
                for required in requireds {
                    let want = (exact >= required).then_some(exact);
                    let mut st = SsJoinStats::default();
                    assert_eq!(
                        overlap_at_least(a, b, required, &mut st),
                        want,
                        "early-exit: seed {seed} pair ({i},{j}) required {required}"
                    );
                    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
                    assert_eq!(
                        overlap_gallop(short, long, required, &mut st),
                        want,
                        "gallop: seed {seed} pair ({i},{j}) required {required}"
                    );
                    for kernel in [
                        OverlapKernel::Linear,
                        OverlapKernel::EarlyExit,
                        OverlapKernel::Adaptive,
                    ] {
                        assert_eq!(
                            verify_overlap(kernel, a, b, required, &mut st),
                            want,
                            "{kernel:?}: seed {seed} pair ({i},{j}) required {required}"
                        );
                    }
                }
            }
        }
    }
}

/// Kernel choice never changes the join output: every algorithm produces
/// bit-for-bit identical pairs under Linear, EarlyExit, and Adaptive, at
/// thread counts 1, 2, and 8.
#[test]
fn kernel_choice_never_changes_output() {
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0xBEEF + seed);
        let pred = random_predicate(&mut rng);
        let order = random_order(&mut rng);
        let groups = random_groups(&mut rng);
        let (r, s) = build_two(groups.clone(), groups, WeightScheme::Idf, order);
        for alg in [
            Algorithm::Basic,
            Algorithm::PrefixFiltered,
            Algorithm::Inline,
            Algorithm::Partition,
            Algorithm::Auto,
        ] {
            let baseline = ssjoin(
                &r,
                &s,
                &pred,
                &SsJoinConfig::new(alg).with_kernel(OverlapKernel::Linear),
            )
            .unwrap();
            for kernel in [
                OverlapKernel::Linear,
                OverlapKernel::EarlyExit,
                OverlapKernel::Adaptive,
            ] {
                for threads in [1usize, 2, 8] {
                    let ctx = ExecContext::new().with_threads(threads).with_kernel(kernel);
                    let out =
                        ssjoin(&r, &s, &pred, &SsJoinConfig::new(alg).with_exec(ctx)).unwrap();
                    assert_eq!(
                        baseline.pairs, out.pairs,
                        "seed {seed}, alg {alg:?}, kernel {kernel:?}, threads {threads}"
                    );
                }
            }
        }
    }
}

/// Signature width never changes the join output: for every width × kernel
/// × executor × thread count, with the bitmap filter on and off, the emitted
/// pairs (ids *and* overlaps) are bit-identical to the sequential
/// linear-kernel unfiltered baseline. This is the losslessness proof for
/// the wide-signature filter: the folded bound always dominates the exact
/// overlap, so pruning below the required overlap removes only pairs the
/// predicate would reject anyway.
#[test]
fn signature_width_never_changes_output() {
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(0x51D7 + seed);
        let pred = random_predicate(&mut rng);
        let order = random_order(&mut rng);
        let groups = random_groups(&mut rng);
        let (r, s) = build_two(groups.clone(), groups, WeightScheme::Idf, order);
        for alg in [
            Algorithm::Basic,
            Algorithm::PrefixFiltered,
            Algorithm::Inline,
            Algorithm::Partition,
            Algorithm::Auto,
        ] {
            let baseline = ssjoin(
                &r,
                &s,
                &pred,
                &SsJoinConfig::new(alg).with_kernel(OverlapKernel::Linear),
            )
            .unwrap();
            for width in SignatureWidth::ALL {
                for kernel in [
                    OverlapKernel::Linear,
                    OverlapKernel::EarlyExit,
                    OverlapKernel::Adaptive,
                ] {
                    for threads in [1usize, 2, 8] {
                        for filter in [false, true] {
                            let ctx = ExecContext::new()
                                .with_threads(threads)
                                .with_kernel(kernel)
                                .with_bitmap_filter(filter)
                                .with_signature_width(width);
                            let out = ssjoin(&r, &s, &pred, &SsJoinConfig::new(alg).with_exec(ctx))
                                .unwrap();
                            assert_eq!(
                                baseline.pairs, out.pairs,
                                "seed {seed}, alg {alg:?}, width {width}, kernel {kernel:?}, \
                                 threads {threads}, filter {filter}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The full-configuration planner's contract: whatever `Algorithm::Auto`
/// picks, its output is bit-identical (ids *and* overlaps) to every forced
/// configuration — executor × kernel × signature width × thread count ×
/// filter — on both the one-shot path and the [`CorpusIndex::probe`] path
/// (where the width is pinned at build time).
#[test]
fn auto_matches_every_forced_configuration() {
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(0xA070 + seed);
        let pred = random_predicate(&mut rng);
        let order = random_order(&mut rng);
        let groups = random_groups(&mut rng);
        let (r, s) = build_two(groups.clone(), groups, WeightScheme::Idf, order);
        let auto = ssjoin(&r, &s, &pred, &SsJoinConfig::new(Algorithm::Auto)).unwrap();
        assert!(auto.stats.plan.is_some(), "seed {seed}: no plan recorded");
        for alg in [
            Algorithm::Basic,
            Algorithm::PrefixFiltered,
            Algorithm::Inline,
            Algorithm::Partition,
        ] {
            for kernel in [
                OverlapKernel::Linear,
                OverlapKernel::EarlyExit,
                OverlapKernel::Adaptive,
            ] {
                for width in SignatureWidth::ALL {
                    for threads in [1usize, 4] {
                        for filter in [false, true] {
                            let ctx = ExecContext::new()
                                .with_threads(threads)
                                .with_kernel(kernel)
                                .with_bitmap_filter(filter)
                                .with_signature_width(width);
                            let forced =
                                ssjoin(&r, &s, &pred, &SsJoinConfig::new(alg).with_exec(ctx))
                                    .unwrap();
                            assert_eq!(
                                auto.pairs, forced.pairs,
                                "seed {seed}: auto differs from {alg:?}/{kernel:?}/{width}/\
                                 {threads}t/filter={filter}"
                            );
                        }
                    }
                }
            }
        }
        // Probe path: an index per width; the auto probe must match every
        // forced probe at that width.
        let mut ws = JoinWorkspace::new();
        for width in SignatureWidth::ALL {
            let options = CorpusIndexOptions {
                signature_width: width,
                ..CorpusIndexOptions::default()
            };
            let index = CorpusIndex::build_with(s.clone(), pred.clone(), &options).unwrap();
            let auto_cfg = SsJoinConfig::new(Algorithm::Auto).with_signature_width(width);
            let auto_probe = index.probe(&r, &auto_cfg, &mut ws).unwrap();
            assert!(
                auto_probe.stats.plan.is_some(),
                "seed {seed}, width {width}: no probe plan recorded"
            );
            let auto_pairs = auto_probe.pairs.to_vec();
            for alg in [
                Algorithm::Basic,
                Algorithm::PrefixFiltered,
                Algorithm::Inline,
                Algorithm::Partition,
            ] {
                for threads in [1usize, 4] {
                    let cfg = SsJoinConfig::new(alg)
                        .with_threads(threads)
                        .with_signature_width(width);
                    let forced = index.probe(&r, &cfg, &mut ws).unwrap();
                    assert_eq!(
                        auto_pairs, forced.pairs,
                        "seed {seed}: auto probe differs from {alg:?}/{width}/{threads}t"
                    );
                }
            }
        }
    }
}

/// Regression for the planner's parallel branch: with a multi-thread budget
/// and an input heavy enough that the modeled parallel saving dwarfs the
/// spawn cost, `Algorithm::Auto` must plan a parallel configuration — it
/// used to silently run its chosen executor sequentially, ignoring
/// `ExecContext::threads` entirely.
#[test]
fn auto_plan_uses_requested_parallelism() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores < 2 {
        eprintln!(
            "skipping auto_plan_uses_requested_parallelism: \
             host has a single core, the clamp forces sequential plans \
             (the planner's parallel branch is covered by the pure cost-model \
             unit tests in exec/auto.rs)"
        );
        return;
    }
    let groups: Vec<Vec<String>> = (0..4000)
        .map(|i| {
            (0..8)
                .map(|j| format!("t{}", (i * 31 + j * 7) % 199))
                .collect()
        })
        .collect();
    let (r, s) = build_two(
        groups.clone(),
        groups,
        WeightScheme::Idf,
        ElementOrder::FrequencyAsc,
    );
    let pred = OverlapPredicate::two_sided(0.7);
    let cfg = SsJoinConfig::new(Algorithm::Auto).with_threads(cores);
    let out = ssjoin(&r, &s, &pred, &cfg).unwrap();
    let plan = out.stats.plan.expect("auto records a plan");
    assert!(
        plan.threads > 1,
        "auto degraded to a sequential plan on a {cores}-core host: {plan:?}"
    );
    assert_eq!(
        plan.threads as u64, out.stats.effective_threads,
        "the plan must spend the whole effective thread budget: {plan:?}"
    );
}

/// Monotonicity: raising an absolute threshold never adds pairs.
#[test]
fn threshold_monotonicity() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x300 + seed);
        let lo = 0.5 + 1.5 * rng.gen_f64();
        let delta = 0.1 + 1.9 * rng.gen_f64();
        let groups = random_groups(&mut rng);
        let (r, s) = build_two(
            groups.clone(),
            groups,
            WeightScheme::Unweighted,
            ElementOrder::FrequencyAsc,
        );
        let loose = ssjoin(
            &r,
            &s,
            &OverlapPredicate::absolute(lo),
            &SsJoinConfig::default(),
        )
        .unwrap();
        let tight = ssjoin(
            &r,
            &s,
            &OverlapPredicate::absolute(lo + delta),
            &SsJoinConfig::default(),
        )
        .unwrap();
        let loose_keys: std::collections::HashSet<_> =
            pairs_to_keys(&loose.pairs).into_iter().collect();
        for key in pairs_to_keys(&tight.pairs) {
            assert!(loose_keys.contains(&key), "seed {seed}, key {key:?}");
        }
    }
}

/// Self-join symmetry for symmetric predicates: (i, j) present iff (j, i)
/// present.
#[test]
fn self_join_symmetry() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x55EF + seed);
        let alpha = 0.1 + 0.9 * rng.gen_f64();
        let groups = random_groups(&mut rng);
        let (r, s) = build_two(
            groups.clone(),
            groups,
            WeightScheme::Idf,
            ElementOrder::FrequencyAsc,
        );
        let out = ssjoin(
            &r,
            &s,
            &OverlapPredicate::two_sided(alpha),
            &SsJoinConfig::default(),
        )
        .unwrap();
        let keys: std::collections::HashSet<_> = pairs_to_keys(&out.pairs).into_iter().collect();
        for &(i, j) in &keys {
            assert!(
                keys.contains(&(j, i)),
                "seed {seed}, missing mirror of ({i},{j})"
            );
        }
    }
}

/// The symmetric half path is invisible in the output: a self-join handed
/// one collection (`&c, &c`) returns exactly the pairs and overlap bits of
/// the same join over two collections (`&c, &c.clone()`), for every exact
/// algorithm, kernel, thread count and bitmap setting. Symmetric predicates
/// mirror; asymmetric ones never do.
#[test]
fn one_collection_self_join_equals_two_collection_join() {
    let key = |pairs: &[JoinPair]| -> Vec<(u32, u32, Weight)> {
        pairs.iter().map(|p| (p.r, p.s, p.overlap)).collect()
    };
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0x5E1F + seed);
        let scheme = if rng.gen_bool(0.5) {
            WeightScheme::Idf
        } else {
            WeightScheme::Unweighted
        };
        let order = random_order(&mut rng);
        let mut b = SsJoinInputBuilder::new(scheme, order);
        let h = b.add_relation(random_groups(&mut rng));
        let c = b.build().unwrap().collection(h).clone();
        let copy = c.clone();
        let alpha = 0.1 + 0.9 * rng.gen_f64();
        for pred in [
            OverlapPredicate::two_sided(alpha),
            OverlapPredicate::absolute(0.5 + 3.5 * alpha),
            // Property 4's shape: max(S.norm, R.norm)·α − 1.
            OverlapPredicate::new(vec![NormExpr::Sub(
                Box::new(NormExpr::Mul(
                    Box::new(NormExpr::Max(
                        Box::new(NormExpr::SNorm),
                        Box::new(NormExpr::RNorm),
                    )),
                    Box::new(NormExpr::Const(alpha)),
                )),
                Box::new(NormExpr::Const(1.0)),
            )]),
            OverlapPredicate::r_normalized(alpha),
            OverlapPredicate::s_normalized(alpha),
        ] {
            let symmetric = pred.is_symmetric();
            for alg in [
                Algorithm::Basic,
                Algorithm::PrefixFiltered,
                Algorithm::Inline,
                Algorithm::Partition,
                Algorithm::Auto,
            ] {
                for kernel in [
                    OverlapKernel::Linear,
                    OverlapKernel::EarlyExit,
                    OverlapKernel::Adaptive,
                ] {
                    for threads in [1usize, 2, 3] {
                        for bitmap in [false, true] {
                            let cfg = SsJoinConfig::new(alg)
                                .with_kernel(kernel)
                                .with_threads(threads)
                                .with_bitmap_filter(bitmap);
                            let once = ssjoin(&c, &c, &pred, &cfg).unwrap();
                            let twice = ssjoin(&c, &copy, &pred, &cfg).unwrap();
                            let ctx = format!(
                                "seed {seed} pred {pred} alg {alg:?} kernel {kernel:?} \
                                 threads {threads} bitmap {bitmap}"
                            );
                            assert_eq!(key(&once.pairs), key(&twice.pairs), "{ctx}");
                            assert_eq!(twice.stats.mirrored_pairs, 0, "{ctx}");
                            let off_diagonal =
                                once.pairs.iter().filter(|p| p.r != p.s).count() as u64;
                            let expect = if symmetric { off_diagonal / 2 } else { 0 };
                            assert_eq!(once.stats.mirrored_pairs, expect, "{ctx}");
                        }
                    }
                }
            }
        }
    }
}
