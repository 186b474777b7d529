//! The batch self-join workloads: `jaccard-dedup`, `edit-dedup` and
//! `ges-dedup`.
//!
//! One operation is one library join call per corpus, from raw strings to
//! verified pairs; only `ges-dedup` has more than one corpus. The traced run
//! re-drives the same pipeline through the layers' public calls, in the
//! library's order, and requires the re-driven pairs to equal the library
//! call's pairs bit for bit, so the spans describe the work the untraced call
//! does.

use crate::trace::{Counters, Layer, Tracer};
use crate::util::{median, pair_digest, peak_rss_mb, ratio};
use crate::{Metrics, RunResult};
use ssjoin_core::{
    ssjoin, NormExpr, NormKind, OverlapPredicate, SetCollection, SsJoinConfig, SsJoinInputBuilder,
    SsJoinResult, SsJoinStats, WeightScheme,
};
use ssjoin_joins::{
    edit_similarity_join, ges_join, jaccard_join, EditJoinConfig, GesJoinConfig, JaccardConfig,
    JaccardKind, MatchPair,
};
use ssjoin_sim::{edit_similarity, edit_similarity_at_least, ges, levenshtein, GesConfig};
use ssjoin_text::{QGramTokenizer, Tokenizer, WordTokenizer};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// Similarity threshold of every batch workload.
pub const THRESHOLD: f64 = 0.85;

/// Untimed operations before the timed ones; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Timed operations per run, at least, however long they take.
const MIN_TIMED: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Jaccard,
    Edit,
    Ges,
}

impl Kind {
    /// The library call, at the library defaults (exact, inline, 1 thread,
    /// no bitmap filter).
    fn join(self, data: &[String]) -> SsJoinResult<Vec<MatchPair>> {
        let out = match self {
            Kind::Jaccard => jaccard_join(data, data, &JaccardConfig::resemblance(THRESHOLD))?,
            Kind::Edit => edit_similarity_join(data, data, &EditJoinConfig::new(THRESHOLD))?,
            Kind::Ges => ges_join(data, data, &GesJoinConfig::new(THRESHOLD))?,
        };
        Ok(out.pairs)
    }

    /// The same join re-driven through the layers' public calls.
    fn join_traced(self, data: &[String], tr: &mut Tracer) -> SsJoinResult<Vec<MatchPair>> {
        match self {
            Kind::Jaccard => jaccard_traced(data, &JaccardConfig::resemblance(THRESHOLD), tr),
            Kind::Edit => edit_traced(data, data, &EditJoinConfig::new(THRESHOLD), tr),
            Kind::Ges => ges_traced(data, &GesJoinConfig::new(THRESHOLD), tr),
        }
    }
}

fn tokenize_all(tok: &dyn Tokenizer, data: &[String], tr: &mut Tracer) -> Vec<Vec<String>> {
    let groups: Vec<Vec<String>> = tr.span(Layer::Text, "tokenize", || {
        data.iter().map(|x| tok.tokenize(x)).collect()
    });
    tr.counters.tokens += groups.iter().map(|g| g.len() as u64).sum::<u64>();
    groups
}

fn note_build(c: &mut Counters, universe: usize, cols: [&SetCollection; 2]) {
    c.universe += universe as u64;
    c.set_elements += cols.iter().map(|c| c.tuple_count() as u64).sum::<u64>();
}

fn note_exec(c: &mut Counters, s: &SsJoinStats) {
    c.prefix_tuples += s.prefix_tuples_r + s.prefix_tuples_s;
    c.candidate_pairs += s.candidate_pairs;
    c.merge_steps += s.merge_steps;
    c.early_exits += s.early_exits;
    c.exec_output += s.output_pairs;
}

/// `jaccard_join`: word tokens, IDF weights, 2-sided SSJoin, resemblance
/// check from the overlap and the two set weights.
fn jaccard_traced(
    data: &[String],
    cfg: &JaccardConfig,
    tr: &mut Tracer,
) -> SsJoinResult<Vec<MatchPair>> {
    let alpha = cfg.threshold;
    let tok = WordTokenizer::new().lowercased();
    let r_groups = tokenize_all(&tok, data, tr);
    let s_groups = tokenize_all(&tok, data, tr);
    let (built, rh, sh) = tr.span(Layer::Builder, "build", || {
        let mut b = SsJoinInputBuilder::new(cfg.weights, cfg.order);
        let rh = b.add_relation(r_groups);
        let sh = b.add_relation(s_groups);
        b.build().map(|built| (built, rh, sh))
    })?;
    let (r_col, s_col) = (built.collection(rh), built.collection(sh));
    note_build(&mut tr.counters, built.universe_size(), [r_col, s_col]);

    let pred = match cfg.kind {
        JaccardKind::Containment => OverlapPredicate::r_normalized(alpha),
        JaccardKind::Resemblance => OverlapPredicate::two_sided(alpha),
    };
    let ss_config = SsJoinConfig {
        algorithm: cfg.algorithm,
        exec: cfg.exec.clone(),
    };
    let out = tr.span(Layer::Exec, "ssjoin", || {
        ssjoin(r_col, s_col, &pred, &ss_config)
    })?;
    note_exec(&mut tr.counters, &out.stats);

    let pairs = tr.span(Layer::Sim, "resemblance", || {
        let mut pairs = Vec::with_capacity(out.pairs.len());
        for p in &out.pairs {
            let wr = r_col.set(p.r).total_weight().to_f64();
            let ws = s_col.set(p.s).total_weight().to_f64();
            let ov = p.overlap.to_f64();
            let similarity = match cfg.kind {
                JaccardKind::Containment => {
                    if wr == 0.0 {
                        1.0
                    } else {
                        ov / wr
                    }
                }
                JaccardKind::Resemblance => {
                    let union = wr + ws - ov;
                    if union == 0.0 {
                        1.0
                    } else {
                        ov / union
                    }
                }
            };
            if similarity >= alpha - 1e-9 {
                pairs.push(MatchPair {
                    r: p.r,
                    s: p.s,
                    similarity,
                });
            }
        }
        pairs
    });
    tr.counters.udf_calls += out.pairs.len() as u64;
    tr.counters.udf_accepted += pairs.len() as u64;
    Ok(pairs)
}

/// Property-4 coefficient `1 − (1 − α)·q` (as `EditJoinConfig` computes it).
fn coefficient(alpha: f64, q: usize) -> f64 {
    1.0 - (1.0 - alpha) * q as f64
}

/// Length below which the q-gram bound cannot be relied on.
pub fn short_cutoff(alpha: f64, q: usize) -> usize {
    let c = coefficient(alpha, q);
    if c <= 0.0 {
        usize::MAX
    } else {
        (q as f64 / c).ceil() as usize
    }
}

/// `Overlap ≥ max(R.norm, S.norm)·(1 − (1−α)q) − (q − 1)`.
pub fn property4_predicate(alpha: f64, q: usize) -> OverlapPredicate {
    OverlapPredicate::new(vec![NormExpr::Sub(
        Box::new(NormExpr::Mul(
            Box::new(NormExpr::Max(
                Box::new(NormExpr::RNorm),
                Box::new(NormExpr::SNorm),
            )),
            Box::new(NormExpr::Const(coefficient(alpha, q))),
        )),
        Box::new(NormExpr::Const(q as f64 - 1.0)),
    )])
}

/// `edit_similarity_join`: q-gram sets with length norms, Property-4 SSJoin,
/// banded edit-distance verification, brute-force route for short strings.
fn edit_traced(
    r: &[String],
    s: &[String],
    cfg: &EditJoinConfig,
    tr: &mut Tracer,
) -> SsJoinResult<Vec<MatchPair>> {
    let alpha = cfg.threshold;
    let tok = QGramTokenizer::new(cfg.q);
    let r_lens: Vec<f64> = r.iter().map(|x| x.chars().count() as f64).collect();
    let s_lens: Vec<f64> = s.iter().map(|x| x.chars().count() as f64).collect();
    let r_groups = tokenize_all(&tok, r, tr);
    let s_groups = tokenize_all(&tok, s, tr);
    let (built, rh, sh) = tr.span(Layer::Builder, "build", || {
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, cfg.order);
        let rh = b.add_relation_with_norm(r_groups, NormKind::Custom(r_lens.clone()));
        let sh = b.add_relation_with_norm(s_groups, NormKind::Custom(s_lens.clone()));
        b.build().map(|built| (built, rh, sh))
    })?;
    let (r_col, s_col) = (built.collection(rh), built.collection(sh));
    note_build(&mut tr.counters, built.universe_size(), [r_col, s_col]);

    let pred = property4_predicate(alpha, cfg.q);
    let ss_config = SsJoinConfig {
        algorithm: cfg.algorithm,
        exec: cfg.exec.clone(),
    };
    let out = tr.span(Layer::Exec, "ssjoin", || {
        ssjoin(r_col, s_col, &pred, &ss_config)
    })?;
    note_exec(&mut tr.counters, &out.stats);

    let mut calls = 0u64;
    let mut pairs = tr.span(Layer::Sim, "edit_similarity", || {
        let mut pairs = Vec::new();
        let mut emitted: HashSet<(u32, u32)> = HashSet::new();
        for p in &out.pairs {
            calls += 1;
            let (a, b) = (&r[p.r as usize], &s[p.s as usize]);
            if edit_similarity_at_least(a, b, alpha) {
                emitted.insert((p.r, p.s));
                pairs.push(MatchPair {
                    r: p.r,
                    s: p.s,
                    similarity: edit_similarity(a, b),
                });
            }
        }
        let cutoff = short_cutoff(alpha, cfg.q);
        let short_r: Vec<u32> = (0..r.len() as u32)
            .filter(|&i| (r_lens[i as usize] as usize) < cutoff)
            .collect();
        let short_s: Vec<u32> = (0..s.len() as u32)
            .filter(|&j| (s_lens[j as usize] as usize) < cutoff)
            .collect();
        for &i in &short_r {
            for &j in &short_s {
                if emitted.contains(&(i, j)) {
                    continue;
                }
                calls += 1;
                let (a, b) = (&r[i as usize], &s[j as usize]);
                if edit_similarity_at_least(a, b, alpha) {
                    pairs.push(MatchPair {
                        r: i,
                        s: j,
                        similarity: edit_similarity(a, b),
                    });
                }
            }
        }
        pairs
    });
    tr.counters.udf_calls += calls;
    tr.counters.udf_accepted += pairs.len() as u64;
    pairs.sort_unstable_by_key(|p| (p.r, p.s));
    Ok(pairs)
}

/// IDF token weights as `ges_join` computes them: `ln(1 + N / f_t)` over the
/// R and S token lists together (the self-join counts the corpus twice).
fn idf_weights(r_tokens: &[Vec<String>], s_tokens: &[Vec<String>]) -> HashMap<String, f64> {
    let total = (r_tokens.len() + s_tokens.len()) as f64;
    let mut freq: HashMap<&str, usize> = HashMap::new();
    for group in r_tokens.iter().chain(s_tokens) {
        let mut seen: Vec<&str> = Vec::new();
        for t in group {
            if !seen.contains(&t.as_str()) {
                seen.push(t);
                *freq.entry(t.as_str()).or_insert(0) += 1;
            }
        }
    }
    freq.iter()
        .map(|(&t, &f)| (t.to_string(), (1.0 + total / f as f64).ln()))
        .collect()
}

/// `ges_join`: word tokens, IDF weights, token expansion through a q=2
/// dictionary edit join at β, 1-sided SSJoin over expanded sets, exact GES
/// verification.
fn ges_traced(
    data: &[String],
    cfg: &GesJoinConfig,
    tr: &mut Tracer,
) -> SsJoinResult<Vec<MatchPair>> {
    let tok = WordTokenizer::new().lowercased();
    let r_tokens = tokenize_all(&tok, data, tr);
    let s_tokens = tokenize_all(&tok, data, tr);
    let weights = idf_weights(&r_tokens, &s_tokens);
    let weight_fn = |t: &str| -> f64 { weights.get(t).copied().unwrap_or(1.0) };

    let mut dict: Vec<String> = weights
        .keys()
        .filter(|t| t.chars().any(char::is_alphabetic))
        .cloned()
        .collect();
    dict.sort_unstable();
    let token_pairs = edit_traced(&dict, &dict, &EditJoinConfig::new(cfg.beta).with_q(2), tr)?;
    let mut similar: HashMap<&str, Vec<&str>> = HashMap::new();
    for p in &token_pairs {
        similar
            .entry(dict[p.r as usize].as_str())
            .or_default()
            .push(dict[p.s as usize].as_str());
    }
    let expand = |groups: &[Vec<String>]| -> Vec<Vec<String>> {
        groups
            .iter()
            .map(|g| {
                let mut out: Vec<String> = Vec::with_capacity(g.len() * 2);
                for t in g {
                    match similar.get(t.as_str()) {
                        Some(close) => out.extend(close.iter().map(|c| c.to_string())),
                        None => out.push(t.clone()),
                    }
                }
                out.sort_unstable();
                out.dedup();
                out
            })
            .collect()
    };
    let r_expanded = expand(&r_tokens);
    let s_expanded = expand(&s_tokens);
    let (built, rh, sh) = tr.span(Layer::Builder, "build", || {
        let mut b =
            SsJoinInputBuilder::new(WeightScheme::Idf, ssjoin_core::ElementOrder::FrequencyAsc);
        let rh = b.add_relation(r_expanded);
        let sh = b.add_relation(s_expanded);
        b.build().map(|built| (built, rh, sh))
    })?;
    let (r_col, s_col) = (built.collection(rh), built.collection(sh));
    note_build(&mut tr.counters, built.universe_size(), [r_col, s_col]);

    let margin = (cfg.threshold - (1.0 - cfg.beta)).max(0.05);
    let pred = OverlapPredicate::r_normalized(margin);
    let ss_config = SsJoinConfig {
        algorithm: cfg.algorithm,
        exec: cfg.exec.clone(),
    };
    let out = tr.span(Layer::Exec, "ssjoin", || {
        ssjoin(r_col, s_col, &pred, &ss_config)
    })?;
    note_exec(&mut tr.counters, &out.stats);

    let ges_cfg = GesConfig::default();
    let mut pairs = tr.span(Layer::Sim, "ges", || {
        let mut pairs = Vec::new();
        for p in &out.pairs {
            let g = ges(
                &r_tokens[p.r as usize],
                &s_tokens[p.s as usize],
                &weight_fn,
                ges_cfg,
            );
            if g >= cfg.threshold - 1e-9 {
                pairs.push(MatchPair {
                    r: p.r,
                    s: p.s,
                    similarity: g,
                });
            }
        }
        pairs
    });
    tr.counters.udf_calls += out.pairs.len() as u64;
    tr.counters.udf_accepted += pairs.len() as u64;
    pairs.sort_unstable_by_key(|p| (p.r, p.s));
    Ok(pairs)
}

/// Re-verify every reported pair with the workload's similarity function,
/// computed independently of the join. Returns the number of pairs that do
/// not reach the threshold.
fn reverify(kind: Kind, data: &[String], pairs: &[MatchPair]) -> usize {
    let tok = WordTokenizer::new().lowercased();
    let words = || -> Vec<Vec<String>> { data.iter().map(|x| tok.tokenize(x)).collect() };
    match kind {
        Kind::Jaccard => {
            let groups = words();
            let w = idf_weights(&groups, &groups);
            let wf = |t: &str| w.get(t).copied().unwrap_or(0.0);
            pairs
                .iter()
                .filter(|p| {
                    let (a, b) = (&groups[p.r as usize], &groups[p.s as usize]);
                    ssjoin_sim::weighted_jaccard_resemblance(a, b, &wf) < THRESHOLD - 1e-6
                })
                .count()
        }
        Kind::Edit => pairs
            .iter()
            .filter(|p| {
                let (a, b) = (&data[p.r as usize], &data[p.s as usize]);
                let max = a.chars().count().max(b.chars().count()).max(1);
                (1.0 - levenshtein(a, b) as f64 / max as f64) < THRESHOLD - 1e-9
            })
            .count(),
        Kind::Ges => {
            let groups = words();
            let w = idf_weights(&groups, &groups);
            let wf = |t: &str| w.get(t).copied().unwrap_or(1.0);
            pairs
                .iter()
                .filter(|p| {
                    let (a, b) = (&groups[p.r as usize], &groups[p.s as usize]);
                    ges(a, b, &wf, GesConfig::default()) < THRESHOLD - 1e-9
                })
                .count()
        }
    }
}

fn digest(pairs: &[MatchPair]) -> String {
    pair_digest(pairs.iter().map(|p| (p.r, p.s)))
}

/// Run one batch workload for `seconds` and collect its metrics. One
/// operation joins every corpus in turn, one library call each.
pub fn run(
    kind: Kind,
    corpora: &[Vec<String>],
    seconds: f64,
    traced: bool,
    pinned: Option<&str>,
) -> RunResult {
    let mut res = RunResult::default();
    // First output of each corpus; every later join of it must equal it.
    let mut reference: Vec<Option<(Vec<MatchPair>, String)>> = vec![None; corpora.len()];
    let mut check = |res: &mut RunResult, outs: Vec<SsJoinResult<Vec<MatchPair>>>| {
        outs.into_iter()
            .enumerate()
            .map(|(c, out)| {
                res.attempted += 1;
                let pairs = out
                    .map_err(|e| res.fail(format!("join of corpus {c} failed: {e}")))
                    .ok()?;
                let d = digest(&pairs);
                match &reference[c] {
                    None => reference[c] = Some((pairs.clone(), d)),
                    Some((_, want)) if *want != d => res.fail(format!(
                        "corpus {c}: pair digest {d} differs from its first join's {want}"
                    )),
                    Some(_) => {}
                }
                Some(pairs)
            })
            .collect::<Vec<_>>()
    };
    let join_all = || -> Vec<_> { corpora.iter().map(|data| kind.join(data)).collect() };

    let mut setup = Vec::new();
    for _ in 0..if traced { 1 } else { SETUP_REPS } {
        let t = Instant::now();
        let outs = join_all();
        setup.push(t.elapsed().as_secs_f64());
        check(&mut res, outs);
    }

    let mut lat_ms = Vec::new();
    let mut tracer = Tracer::new();
    let mut traced_ops: Vec<(u64, Counters)> = Vec::new();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while lat_ms.len() < MIN_TIMED || start.elapsed() < budget {
        let t = Instant::now();
        let outs = join_all();
        lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let untraced = check(&mut res, outs);
        if traced {
            let (outs, op) = tracer.op(kind_label(kind), |tr| {
                corpora
                    .iter()
                    .map(|data| kind.join_traced(data, tr))
                    .collect::<Vec<_>>()
            });
            traced_ops.push((op, std::mem::take(&mut tracer.counters)));
            for (out, want) in outs.into_iter().zip(&untraced) {
                res.attempted += 1;
                match (out, want) {
                    (Err(e), _) => res.fail(format!("traced re-drive failed: {e}")),
                    (Ok(p), Some(u)) if p != *u => {
                        res.fail("traced re-drive output differs from the library call".into())
                    }
                    _ => {}
                }
            }
        }
    }

    // Re-verify each corpus's pairs; digest them all in one id space, the
    // corpora laid end to end.
    let mut bad = 0;
    let mut all = Vec::new();
    let mut offset = 0u32;
    for (c, r) in reference.iter().enumerate() {
        match r {
            Some((pairs, _)) => {
                bad += reverify(kind, &corpora[c], pairs);
                all.extend(pairs.iter().map(|p| (p.r + offset, p.s + offset)));
            }
            None => res.fail_all(format!("corpus {c} was never joined")),
        }
        offset += corpora[c].len() as u32;
    }
    if bad > 0 {
        res.fail_all(format!("{bad} reported pairs fail re-verification"));
    }
    let d = pair_digest(all.iter().copied());
    if let Some(want) = pinned {
        if want != d {
            res.fail_all(format!("pair digest {d} differs from the pinned {want}"));
        }
    }
    res.notes.push(format!(
        "{} timed operations, {} traced, of {} corpora; pairs {} digest {d}",
        lat_ms.len(),
        traced_ops.len(),
        corpora.len(),
        all.len()
    ));

    if traced {
        res.metrics = layer_metrics(&tracer, &traced_ops, &lat_ms);
        res.trace = Some(tracer);
    } else {
        let total_s: f64 = lat_ms.iter().sum::<f64>() / 1e3;
        res.metrics = Metrics::from([
            ("op_p50_ms", median(&lat_ms)),
            ("ops_per_s", ratio(lat_ms.len() as f64, total_s)),
            ("setup_s", median(&setup)),
            ("peak_rss_mb", peak_rss_mb()),
        ]);
    }
    res
}

fn kind_label(kind: Kind) -> &'static str {
    match kind {
        Kind::Jaccard => "jaccard_join",
        Kind::Edit => "edit_similarity_join",
        Kind::Ges => "ges_join",
    }
}

/// Per-layer metrics of the traced joins: medians over operations of each
/// layer's self time, of each counter and of each yield, and self-time
/// shares over all traced joins.
fn layer_metrics(tr: &Tracer, ops: &[(u64, Counters)], untraced_ms: &[f64]) -> Metrics {
    let med = |f: &dyn Fn(u64, &Counters) -> f64| -> f64 {
        median(&ops.iter().map(|(op, c)| f(*op, c)).collect::<Vec<_>>())
    };
    let layer_ms = |i: usize| med(&|op, _| tr.self_ns(op)[i] as f64 / 1e6);
    let mut m = Metrics::from([
        ("text.tokenize_ms", layer_ms(1)),
        ("text.tokens", med(&|_, c| c.tokens as f64)),
        ("builder.build_ms", layer_ms(2)),
        ("builder.universe", med(&|_, c| c.universe as f64)),
        ("builder.set_elements", med(&|_, c| c.set_elements as f64)),
        ("exec.join_ms", layer_ms(3)),
        ("exec.prefix_tuples", med(&|_, c| c.prefix_tuples as f64)),
        (
            "exec.candidate_pairs",
            med(&|_, c| c.candidate_pairs as f64),
        ),
        ("exec.merge_steps", med(&|_, c| c.merge_steps as f64)),
        ("exec.early_exits", med(&|_, c| c.early_exits as f64)),
        ("exec.output_pairs", med(&|_, c| c.exec_output as f64)),
        (
            "exec.candidate_yield",
            med(&|_, c| ratio(c.exec_output as f64, c.candidate_pairs as f64)),
        ),
        ("sim.udf_ms", layer_ms(4)),
        ("sim.udf_calls", med(&|_, c| c.udf_calls as f64)),
        (
            "sim.udf_yield",
            med(&|_, c| ratio(c.udf_accepted as f64, c.udf_calls as f64)),
        ),
        ("joins.self_ms", layer_ms(0)),
        (
            "trace.overhead",
            ratio(med(&|op, _| tr.op_ns(op) as f64 / 1e6), median(untraced_ms)),
        ),
    ]);
    crate::add_shares(&mut m, tr, ops.iter().map(|&(op, _)| op));
    m
}
