//! Bitmap-filter invariance across every executor and the persistent-index
//! probe path: turning the signature filter on (at any [`SignatureWidth`])
//! must never change the emitted pairs, only the counters — and the counters
//! must balance exactly: every pair the unfiltered run verified is either
//! verified or bitmap-pruned by the filtered run. Extends the partition-only
//! unit test in `exec/partition.rs` per ROADMAP item 2.

use ssjoin_core::{
    ssjoin, Algorithm, CorpusIndex, CorpusIndexOptions, ElementOrder, JoinWorkspace,
    OverlapPredicate, SetCollection, SignatureWidth, SsJoinConfig, SsJoinInputBuilder,
    WeightScheme,
};
use ssjoin_prng::{Rng, StdRng};

const ALGORITHMS: [Algorithm; 5] = [
    Algorithm::Basic,
    Algorithm::PrefixFiltered,
    Algorithm::Inline,
    Algorithm::Partition,
    Algorithm::Auto,
];

/// A collision-heavy Idf corpus: 120 groups of 3–7 tokens from a 61-token
/// vocabulary, the same shape as the partition executor's original
/// `bitmap_filter_prunes_without_changing_output` workload.
fn corpus() -> SetCollection {
    let mut rng = StdRng::seed_from_u64(0xB17F);
    let groups: Vec<Vec<String>> = (0..120)
        .map(|_| {
            let len = rng.gen_range(3usize..8);
            (0..len)
                .map(|_| format!("t{}", rng.gen_range(0u32..61)))
                .collect()
        })
        .collect();
    let mut b = SsJoinInputBuilder::new(WeightScheme::Idf, ElementOrder::FrequencyAsc);
    let h = b.add_relation(groups);
    b.build().unwrap().collection(h).clone()
}

/// All five concrete executors: filter on (at every width) emits identical
/// pairs, probes exactly the pairs the unfiltered run verified, and the
/// verified/pruned split balances. Prunes grow monotonically with the
/// width (a wider view's bound is never looser) and the stored width must
/// prune on this workload. `Auto` plans its own filter configuration
/// (possibly overriding the forced one), so for it only output invariance
/// and the recorded plan are asserted.
#[test]
fn bitmap_filter_prunes_without_changing_output_all_executors() {
    let c = corpus();
    let pred = OverlapPredicate::two_sided(0.8);
    for alg in ALGORITHMS {
        for threads in [1usize, 3] {
            let plain_cfg = SsJoinConfig::new(alg).with_threads(threads);
            let base = ssjoin(&c, &c, &pred, &plain_cfg).unwrap();
            let mut prev_prunes = 0u64;
            for width in SignatureWidth::ALL {
                let cfg = plain_cfg
                    .clone()
                    .with_bitmap_filter(true)
                    .with_signature_width(width);
                let out = ssjoin(&c, &c, &pred, &cfg).unwrap();
                assert_eq!(
                    base.pairs, out.pairs,
                    "alg {alg:?}, threads {threads}, width {width}: filter changed output"
                );
                if alg == Algorithm::Auto {
                    // The planner owns the filter knobs under Auto; forced
                    // filter settings are not binding, so the counter
                    // invariants below do not apply. The plan must be
                    // recorded instead.
                    assert!(out.stats.plan.is_some(), "auto run without a plan");
                    continue;
                }
                let st = &out.stats;
                assert_eq!(
                    st.bitmap_probes, base.stats.verified_pairs,
                    "alg {alg:?}, threads {threads}, width {width}: \
                     the filter must probe exactly the unfiltered verification set"
                );
                assert_eq!(
                    st.verified_pairs + st.bitmap_prunes,
                    base.stats.verified_pairs,
                    "alg {alg:?}, threads {threads}, width {width}: \
                     verified + pruned must balance the unfiltered verifications"
                );
                assert!(
                    st.bitmap_prunes >= prev_prunes,
                    "alg {alg:?}, threads {threads}, width {width}: \
                     widening the signature lost prunes ({} < {prev_prunes})",
                    st.bitmap_prunes
                );
                prev_prunes = st.bitmap_prunes;
            }
            assert!(
                alg == Algorithm::Auto || prev_prunes > 0,
                "alg {alg:?}, threads {threads}: the stored width never pruned"
            );
        }
    }
}

/// The `CorpusIndex::probe` path under the same invariants: an index built
/// at each width, probed with the filter on and off (always at the build
/// width — anything else is a typed error, tested in `corpus_index.rs`),
/// emits identical pairs with balancing counters.
#[test]
fn bitmap_filter_prunes_without_changing_probe_output() {
    let c = corpus();
    let pred = OverlapPredicate::two_sided(0.8);
    let mut ws = JoinWorkspace::new();
    for width in SignatureWidth::ALL {
        let options = CorpusIndexOptions {
            signature_width: width,
            ..CorpusIndexOptions::default()
        };
        let index = CorpusIndex::build_with(c.clone(), pred.clone(), &options).unwrap();
        for alg in ALGORITHMS {
            let plain_cfg = SsJoinConfig::new(alg).with_signature_width(width);
            let base = index.probe(&c, &plain_cfg, &mut ws).unwrap();
            let base_pairs = base.pairs.to_vec();
            let base_verified = base.stats.verified_pairs;
            let cfg = plain_cfg.clone().with_bitmap_filter(true);
            let out = index.probe(&c, &cfg, &mut ws).unwrap();
            assert_eq!(
                base_pairs, out.pairs,
                "alg {alg:?}, width {width}: filtered probe changed output"
            );
            if alg == Algorithm::Auto {
                // As in the one-shot test: Auto plans its own filter
                // configuration, so only output invariance holds.
                assert!(out.stats.plan.is_some(), "auto probe without a plan");
                continue;
            }
            assert_eq!(
                out.stats.bitmap_probes, base_verified,
                "alg {alg:?}, width {width}: probe filter coverage"
            );
            assert_eq!(
                out.stats.verified_pairs + out.stats.bitmap_prunes,
                base_verified,
                "alg {alg:?}, width {width}: probe verified/pruned balance"
            );
            if width == SignatureWidth::W8 {
                assert!(
                    out.stats.bitmap_prunes > 0,
                    "alg {alg:?}: stored-width probe never pruned"
                );
            }
        }
    }
}
