//! Generalized edit similarity (GES).
//!
//! Definition 6 of the paper (from Chaudhuri et al., SIGMOD 2003): a string
//! is a sequence of tokens; the cost of transforming token `t1` into `t2` is
//! `ed(t1, t2) · wt(t1)` where `ed` is length-normalized edit distance; the
//! cost of inserting or deleting token `t` is `wt(t)`. With `tc(σ1, σ2)` the
//! minimum-cost transformation of the token sequence of `σ1` into that of
//! `σ2`:
//!
//! ```text
//! GES(σ1, σ2) = 1.0 − min(tc(σ1, σ2) / wt(Set(σ1)), 1.0)
//! ```
//!
//! GES deliberately mixes token weights (so frequent tokens like "corp" are
//! cheap to edit) with intra-token edit distance (so "microsoft" ≈
//! "microsft"), which fixes the failure modes of plain edit distance and
//! plain Jaccard that §3.3 describes.
//!
//! # Prepared verification
//!
//! A join verifies many candidate pairs over one vocabulary, so it interns
//! each distinct token once into a [`GesTable`] (its weight and its
//! characters, by dense id) and verifies id sequences with
//! [`ges_at_least`], which reuses its buffers across calls. Three exact
//! prunings leave every result bit-for-bit equal to the plain dynamic
//! program; the last two need every weight finite and non-negative, which
//! the table checks as tokens are pushed:
//!
//! * equal ids replace at cost `prev_diag + 0.0·w`, with no token edit
//!   distance computed;
//! * a replacement whose lower bound — the length difference standing in
//!   for the token edit distance — already reaches the cheaper of delete and
//!   insert cannot lower the cell, so its token edit distance is skipped
//!   (IEEE division, multiplication and addition by non-negative numbers are
//!   monotone);
//! * every cell is at least the minimum of the row above it, so once a row's
//!   minimum puts GES below the caller's floor, the call ends.
//!
//! [`ges`] and [`ges_symmetric`] intern their two sequences and run the same
//! dynamic program with no floor.

use crate::edit::levenshtein_chars;
use std::collections::HashMap;

/// Configuration for the GES computation.
#[derive(Debug, Clone, Copy, Default)]
pub struct GesConfig {
    /// If set, token pairs whose normalized edit distance exceeds this value
    /// are not considered for replacement (they cost a delete + insert
    /// instead). `None` considers every pair.
    pub replacement_cutoff: Option<f64>,
}

/// The token side of a prepared GES verification: for each dense token id,
/// the token's weight and its characters, stored once in a flat arena.
///
/// The `k`-th [`GesTable::push`] defines token id `k`. Push each distinct
/// token once: equal ids are what lets [`ges_at_least`] skip the token edit
/// distance of a repeated token.
#[derive(Debug, Clone)]
pub struct GesTable {
    config: GesConfig,
    weights: Vec<f64>,
    /// Token `k`'s characters are `chars[starts[k]..starts[k + 1]]`.
    starts: Vec<usize>,
    chars: Vec<char>,
    /// Every weight is finite and non-negative, so every DP cost is too; the
    /// length and row bounds hold only then.
    prunable: bool,
}

impl GesTable {
    /// An empty table whose verifications use `config`.
    pub fn new(config: GesConfig) -> Self {
        Self {
            config,
            weights: Vec::new(),
            starts: vec![0],
            chars: Vec::new(),
            prunable: true,
        }
    }

    /// Append `token` with `weight` under the next id, [`GesTable::len`].
    pub fn push(&mut self, token: &str, weight: f64) {
        self.weights.push(weight);
        self.chars.extend(token.chars());
        self.starts.push(self.chars.len());
        self.prunable &= weight.is_finite() && weight >= 0.0;
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the table holds no token.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The weight of token `id`.
    ///
    /// # Panics
    ///
    /// If `id` is not below [`GesTable::len`].
    pub fn weight(&self, id: u32) -> f64 {
        self.weights[id as usize]
    }

    fn chars(&self, id: u32) -> &[char] {
        let k = id as usize;
        &self.chars[self.starts[k]..self.starts[k + 1]]
    }
}

/// The reusable buffers of [`ges_at_least`], with counters of the work its
/// calls did and skipped.
#[derive(Debug, Clone, Default)]
pub struct GesScratch {
    row: Vec<f64>,
    ed_row: Vec<usize>,
    /// Summed over every call made with this scratch.
    pub counters: GesCounters,
}

/// What [`ges_at_least`] computed and what its exact prunings skipped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GesCounters {
    /// Calls.
    pub calls: u64,
    /// Token pairs whose edit distance was computed.
    pub token_eds: u64,
    /// Token pairs whose replacement the length bound ruled out, with no
    /// token edit distance computed.
    pub length_skips: u64,
    /// Calls ended by a DP row whose minimum already put GES below the
    /// floor.
    pub row_exits: u64,
}

/// Generalized edit similarity of token sequence `a` into token sequence `b`
/// under the token weight function `weight`.
///
/// Note the asymmetry: the transformation cost is normalized by the weight of
/// `a`'s token set, exactly as Definition 6 states. See [`ges_symmetric`] for
/// the symmetric variant.
pub fn ges(a: &[String], b: &[String], weight: &dyn Fn(&str) -> f64, config: GesConfig) -> f64 {
    let (table, a, b) = intern_pair(a, b, weight, config);
    ges_full(&a, &b, &table, &mut GesScratch::default())
}

/// Symmetric GES: `max(GES(a → b), GES(b → a))`.
pub fn ges_symmetric(
    a: &[String],
    b: &[String],
    weight: &dyn Fn(&str) -> f64,
    config: GesConfig,
) -> f64 {
    let (table, a, b) = intern_pair(a, b, weight, config);
    let mut scratch = GesScratch::default();
    ges_full(&a, &b, &table, &mut scratch).max(ges_full(&b, &a, &table, &mut scratch))
}

/// GES of `a` into `b` with no floor: nothing is below −∞, so the call never
/// exits early.
fn ges_full(a: &[u32], b: &[u32], table: &GesTable, scratch: &mut GesScratch) -> f64 {
    ges_at_least(a, b, table, f64::NEG_INFINITY, scratch).unwrap_or(0.0)
}

/// Intern the tokens of `a` and `b` into one table, each distinct token once.
fn intern_pair(
    a: &[String],
    b: &[String],
    weight: &dyn Fn(&str) -> f64,
    config: GesConfig,
) -> (GesTable, Vec<u32>, Vec<u32>) {
    let mut table = GesTable::new(config);
    let mut ids: HashMap<&str, u32> = HashMap::new();
    let [a, b] = [a, b].map(|seq| -> Vec<u32> {
        seq.iter()
            .map(|t| {
                *ids.entry(t).or_insert_with(|| {
                    table.push(t, weight(t));
                    (table.len() - 1) as u32
                })
            })
            .collect()
    });
    (table, a, b)
}

/// GES of token-id sequence `a` into `b` over `table` if it is at least
/// `floor`, else `None`. A `Some` is bit-for-bit the value [`ges`] computes
/// for the same tokens and weights; a `None` may come before the dynamic
/// program ends, once a row shows the result must fall below `floor`.
///
/// # Panics
///
/// If an id is not below `table.len()`.
pub fn ges_at_least(
    a: &[u32],
    b: &[u32],
    table: &GesTable,
    floor: f64,
    scratch: &mut GesScratch,
) -> Option<f64> {
    scratch.counters.calls += 1;
    let wa: f64 = a.iter().map(|&t| table.weight(t)).sum();
    let g = if a.is_empty() && b.is_empty() {
        1.0
    } else if wa == 0.0 {
        // Nothing to normalize by: degenerate source. Any needed insertion
        // makes the min(..., 1.0) clamp kick in unless b is empty too.
        if b.is_empty() {
            1.0
        } else {
            0.0
        }
    } else {
        let cost = transformation_cost(a, b, table, wa, floor, scratch)?;
        1.0 - (cost / wa).min(1.0)
    };
    (g >= floor).then_some(g)
}

/// Minimum-cost transformation of token sequence `a` into `b`:
/// sequence-alignment dynamic program with
/// delete(t) = wt(t), insert(t) = wt(t), replace(t1 → t2) = ed(t1,t2)·wt(t1).
/// `None` once a row's minimum puts GES (normalized by `wa`) below `floor`.
fn transformation_cost(
    a: &[u32],
    b: &[u32],
    t: &GesTable,
    wa: f64,
    floor: f64,
    scratch: &mut GesScratch,
) -> Option<f64> {
    let GesScratch {
        row,
        ed_row,
        counters,
    } = scratch;
    let cutoff = t.config.replacement_cutoff;
    let row_exit = t.prunable && floor > f64::NEG_INFINITY;
    row.clear();
    row.push(0.0);
    for (j, &tb) in b.iter().enumerate() {
        row.push(row[j] + t.weight(tb)); // insert b[0..j]
    }
    for &ta in a {
        let (w, ca) = (t.weight(ta), t.chars(ta));
        let mut prev_diag = row[0];
        row[0] += w; // delete a[0..=i]
        let mut row_min = row[0];
        for (j, &tb) in b.iter().enumerate() {
            let delete = row[j + 1] + w;
            let insert = row[j] + t.weight(tb);
            let ned = if ta == tb {
                Some(0.0)
            } else {
                let cb = t.chars(tb);
                let max = ca.len().max(cb.len()) as f64;
                // The token edit distance is at least the length difference:
                // if replacing at that bound cannot beat deleting or
                // inserting, skip the edit distance.
                let lower = ca.len().abs_diff(cb.len()) as f64 / max;
                if t.prunable && prev_diag + lower * w >= delete.min(insert) {
                    counters.length_skips += 1;
                    None
                } else {
                    counters.token_eds += 1;
                    Some(normalized_ed(ca, cb, ed_row))
                }
            };
            let replace = match ned {
                Some(ned) if cutoff.is_none_or(|cut| ned <= cut) => prev_diag + ned * w,
                _ => f64::INFINITY,
            };
            let val = replace.min(delete).min(insert);
            prev_diag = row[j + 1];
            row[j + 1] = val;
            row_min = row_min.min(val);
        }
        // Costs are non-negative, so no later cell drops below `row_min`.
        if row_exit && 1.0 - (row_min / wa).min(1.0) < floor {
            counters.row_exits += 1;
            return None;
        }
    }
    Some(row[b.len()])
}

/// Levenshtein distance of `a` and `b` over `max(|a|, |b|)`, 0 for two
/// empty tokens.
fn normalized_ed(a: &[char], b: &[char], row: &mut Vec<usize>) -> f64 {
    let max = a.len().max(b.len());
    if max == 0 {
        return 0.0;
    }
    levenshtein_chars(a, b, row) as f64 / max as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    const UNIT: fn(&str) -> f64 = |_| 1.0;

    #[test]
    fn identical_sequences() {
        let a = toks(&["microsoft", "corp"]);
        assert_eq!(ges(&a, &a, &UNIT, GesConfig::default()), 1.0);
    }

    #[test]
    fn empty_conventions() {
        let e = toks(&[]);
        let x = toks(&["x"]);
        assert_eq!(ges(&e, &e, &UNIT, GesConfig::default()), 1.0);
        assert_eq!(ges(&e, &x, &UNIT, GesConfig::default()), 0.0);
        // Deleting the only (weight-1) token costs everything.
        assert_eq!(ges(&x, &e, &UNIT, GesConfig::default()), 0.0);
    }

    #[test]
    fn near_token_cheap() {
        // "microsoft" -> "microsft": ed = 1/9, so cost ~ 0.111 of 2.0 weight.
        let a = toks(&["microsoft", "corp"]);
        let b = toks(&["microsft", "corp"]);
        let g = ges(&a, &b, &UNIT, GesConfig::default());
        let expect = 1.0 - (1.0 / 9.0) / 2.0;
        assert!((g - expect).abs() < 1e-9, "got {g}, expected {expect}");
    }

    #[test]
    fn paper_motivating_example() {
        // §3.3: with low weight on corp/corporation, "microsoft corp" should
        // be closer to "microsft corporation" than to "mic corp".
        let w = |t: &str| -> f64 {
            match t {
                "corp" | "corporation" => 0.2,
                _ => 1.0,
            }
        };
        let base = toks(&["microsoft", "corp"]);
        let good = toks(&["microsft", "corporation"]);
        let bad = toks(&["mic", "corp"]);
        let g_good = ges(&base, &good, &w, GesConfig::default());
        let g_bad = ges(&base, &bad, &w, GesConfig::default());
        assert!(
            g_good > g_bad,
            "GES should rank microsft corporation ({g_good}) above mic corp ({g_bad})"
        );
    }

    #[test]
    fn clamped_to_zero_floor() {
        // Totally different tokens: transformation cost >= wa, clamp to 0.
        let a = toks(&["aaa"]);
        let b = toks(&["zzz", "yyy", "xxx"]);
        let g = ges(&a, &b, &UNIT, GesConfig::default());
        assert_eq!(g, 0.0);
    }

    #[test]
    fn weights_scale_costs() {
        // Heavy first token makes its edit matter more.
        let a = toks(&["alpha", "beta"]);
        let b = toks(&["alphx", "beta"]);
        let heavy = |t: &str| if t.starts_with("alph") { 10.0 } else { 1.0 };
        let light = |t: &str| if t.starts_with("alph") { 0.1 } else { 1.0 };
        let g_heavy = ges(&a, &b, &heavy, GesConfig::default());
        let g_light = ges(&a, &b, &light, GesConfig::default());
        // Relative cost of the edit is ed * w / total: heavier token -> the
        // edit consumes a larger share of the (also larger) norm.
        // ed = 1/5. heavy: (0.2*10)/11 ≈ 0.1818; light: (0.2*0.1)/1.1 ≈ 0.0182.
        assert!(g_heavy < g_light);
    }

    #[test]
    fn replacement_cutoff_forces_delete_insert() {
        let a = toks(&["abcd"]);
        let b = toks(&["abce"]);
        let no_cut = ges(&a, &b, &UNIT, GesConfig::default());
        let cut = ges(
            &a,
            &b,
            &UNIT,
            GesConfig {
                replacement_cutoff: Some(0.1),
            },
        );
        // ed = 0.25 > 0.1, so the cut version pays delete+insert = 2.0 -> 0.
        assert!(no_cut > cut);
        assert_eq!(cut, 0.0);
    }

    #[test]
    fn symmetric_takes_max() {
        let a = toks(&["a", "b", "c"]);
        let b = toks(&["a"]);
        let s = ges_symmetric(&a, &b, &UNIT, GesConfig::default());
        let fwd = ges(&a, &b, &UNIT, GesConfig::default());
        let back = ges(&b, &a, &UNIT, GesConfig::default());
        assert!((s - fwd.max(back)).abs() < 1e-12);
        // Forward direction deletes two unit tokens out of three (cost 2/3);
        // backward inserts two tokens against a weight-1 norm and clamps to 0.
        assert!(fwd > back);
    }

    #[test]
    fn token_order_matters_for_alignment() {
        // Alignment is sequential, not bag-of-words: reversal costs edits.
        let a = toks(&["alpha", "beta"]);
        let b = toks(&["beta", "alpha"]);
        assert!(ges(&a, &b, &UNIT, GesConfig::default()) < 1.0);
    }
}
