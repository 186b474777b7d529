//! Shared output types and input preparation for the similarity-join layer.

use ssjoin_core::{
    Algorithm, BuiltInput, NormKind, RelationHandle, SsJoinInputBuilder, SsJoinResult, SsJoinStats,
};
use ssjoin_text::Tokenizer;

/// One matching pair with its verified similarity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchPair {
    /// Index into the R-side input.
    pub r: u32,
    /// Index into the S-side input.
    pub s: u32,
    /// The similarity as computed by the join's own similarity function.
    pub similarity: f64,
}

/// Output of a similarity join: verified pairs plus the SSJoin execution
/// statistics (with the verification time accumulated under
/// [`ssjoin_core::Phase::Filter`]).
#[derive(Debug, Clone)]
pub struct SimilarityJoinOutput {
    /// Verified pairs, sorted by `(r, s)`.
    pub pairs: Vec<MatchPair>,
    /// Phase timings and counters.
    pub stats: SsJoinStats,
    /// The SSJoin algorithm that ran.
    pub algorithm_used: Algorithm,
    /// Similarity-function (UDF) invocations in the final filter — the
    /// quantity Table 1 of the paper counts. Distinct from
    /// `stats.verified_pairs`, which counts overlap recomputations inside
    /// the SSJoin executor.
    pub udf_verifications: u64,
}

impl SimilarityJoinOutput {
    /// Pair keys `(r, s)` in output order.
    pub fn keys(&self) -> Vec<(u32, u32)> {
        self.pairs.iter().map(|p| (p.r, p.s)).collect()
    }
}

/// For a self-join, drop the diagonal and keep one orientation of each pair
/// (`r < s`). The experiment harness reports deduplicated pair counts.
pub fn dedupe_self_pairs(pairs: &[MatchPair]) -> Vec<MatchPair> {
    pairs.iter().filter(|p| p.r < p.s).copied().collect()
}

/// Tokenize `r` and `s` straight into `builder` (each token is interned as
/// the tokenizer emits it; no token lists are materialized) and build.
/// `r_norm` and `s_norm` say how each side's norms are derived.
///
/// A self-join — `r` and `s` the same slice — is tokenized and built once,
/// and both handles name the one collection, so SSJoin receives the same
/// collection as R and S. Adding the data twice would double every
/// frequency and the group count `N` alike: IDF's `N / f_t`, the frequency
/// order and therefore every rank, weight and norm come out bit-identical.
pub(crate) fn build_sides(
    mut builder: SsJoinInputBuilder,
    tok: &impl Tokenizer,
    r: &[String],
    s: &[String],
    r_norm: NormKind,
    s_norm: NormKind,
) -> SsJoinResult<(BuiltInput, RelationHandle, RelationHandle)> {
    let mut scratch = String::new();
    let mut add = |values: &[String], norm: NormKind| {
        builder.add_relation_by(values.len(), norm, |i, emit| {
            tok.for_each_token(&values[i], &mut scratch, emit)
        })
    };
    let rh = add(r, r_norm);
    let sh = if std::ptr::eq(r, s) {
        rh
    } else {
        add(s, s_norm)
    };
    Ok((builder.build()?, rh, sh))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedupe_drops_diagonal_and_mirrors() {
        let pairs = vec![
            MatchPair {
                r: 0,
                s: 0,
                similarity: 1.0,
            },
            MatchPair {
                r: 0,
                s: 1,
                similarity: 0.9,
            },
            MatchPair {
                r: 1,
                s: 0,
                similarity: 0.9,
            },
            MatchPair {
                r: 2,
                s: 3,
                similarity: 0.8,
            },
        ];
        let deduped = dedupe_self_pairs(&pairs);
        assert_eq!(
            deduped.iter().map(|p| (p.r, p.s)).collect::<Vec<_>>(),
            vec![(0, 1), (2, 3)]
        );
    }
}
