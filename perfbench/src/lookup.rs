//! The `fuzzy-lookup` workload: a persistent `TopKIndex` over a reference
//! set, driven by one closed-loop client with a seeded mix of `match`,
//! `insert` and `delete` operations — what `ssjoin serve` answers one stdin
//! request at a time.
//!
//! Each pass builds a fresh index (set-up) and replays the same operation
//! script, so every pass does the same work and must give the same answers.
//! The traced run re-drives `TopKIndex` through `CorpusIndex` and
//! `QueryEncoder` the way `TopKIndex` drives them, and requires the same
//! answers.

use crate::batch::{property4_predicate, short_cutoff};
use crate::trace::{Counters, Layer, Tracer};
use crate::util::{median, peak_rss_mb, ratio};
use crate::{Metrics, RunResult};
use ssjoin_core::{
    Algorithm, CorpusIndex, CorpusIndexOptions, ElementOrder, JoinWorkspace, NormKind,
    QueryEncoder, SsJoinConfig, SsJoinInputBuilder, SsJoinResult, WeightScheme,
};
use ssjoin_datagen::{AddressCorpus, AddressCorpusConfig, ErrorModel, Perturber};
use ssjoin_joins::{TopKConfig, TopKIndex, TopKMatch};
use ssjoin_prng::{Rng, StdRng};
use ssjoin_sim::{edit_similarity, edit_similarity_at_least};
use ssjoin_text::{QGramTokenizer, Tokenizer};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Matches returned per lookup.
pub const K: usize = 5;
/// Similarity floor. Fixed explicitly: the CLI default 0.6 makes the
/// Property-4 coefficient `1 − 0.4·3` negative, which turns the q-gram
/// filter off.
pub const FLOOR: f64 = 0.80;
/// q-gram length (the library default).
pub const Q: usize = 3;
/// Every this many operations, a `match` is checked against a brute-force
/// scan.
const CHECK_EVERY: usize = 80;
/// Passes per run, at least, however long they take.
const MIN_PASSES: usize = 2;

#[derive(Debug, Clone)]
pub enum Op {
    Match(String),
    Insert(String),
    Delete(u32),
}

#[derive(Debug, Clone, PartialEq)]
enum Answer {
    Matches(Vec<TopKMatch>),
    Id(u32),
    Deleted,
}

/// The operation script: ~90% `match` (half perturbed reference rows, half
/// fresh addresses from a disjoint seed), ~5% `insert` of fresh addresses
/// and ~5% `delete` of a live row.
pub fn script(refs: &[String], ops: usize, seed: u64) -> Vec<Op> {
    let fresh = AddressCorpus::generate(
        &AddressCorpusConfig::paper_like(ops).with_seed(seed ^ 0x5EED_F00D_CAFE_0001),
    )
    .records;
    let perturber = Perturber::new(ErrorModel::default());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0123_4567_89AB_CDEF);
    let mut live: Vec<u32> = (0..refs.len() as u32).collect();
    let mut next_id = refs.len() as u32;
    (0..ops)
        .map(|i| {
            let roll = rng.gen_f64();
            if roll < 0.05 {
                live.push(next_id);
                next_id += 1;
                Op::Insert(fresh[i].clone())
            } else if roll < 0.10 && !live.is_empty() {
                Op::Delete(live.swap_remove(rng.gen_index(live.len())))
            } else if rng.gen_bool(0.5) {
                let src = &refs[rng.gen_index(refs.len())];
                Op::Match(perturber.perturb(&mut rng, src))
            } else {
                Op::Match(fresh[i].clone())
            }
        })
        .collect()
}

fn rank(out: &mut [TopKMatch]) {
    out.sort_by(|a, b| {
        b.similarity
            .partial_cmp(&a.similarity)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.index.cmp(&b.index))
    });
}

/// Expected answers of the sampled `match` operations, from a brute-force
/// edit-similarity scan of the live reference rows at that point of the
/// script (no index involved).
fn brute_expectations(refs: &[String], ops: &[Op]) -> Vec<(usize, Vec<TopKMatch>)> {
    let mut texts: Vec<&str> = refs.iter().map(String::as_str).collect();
    let mut alive = vec![true; refs.len()];
    let mut out = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Match(q) if i % CHECK_EVERY == 0 => {
                let mut hits: Vec<TopKMatch> = (0..texts.len())
                    .filter(|&id| alive[id] && edit_similarity_at_least(q, texts[id], FLOOR))
                    .map(|id| TopKMatch {
                        index: id as u32,
                        similarity: edit_similarity(q, texts[id]),
                    })
                    .collect();
                rank(&mut hits);
                hits.truncate(K);
                out.push((i, hits));
            }
            Op::Match(_) => {}
            Op::Insert(t) => {
                texts.push(t);
                alive.push(true);
            }
            Op::Delete(id) => alive[*id as usize] = false,
        }
    }
    out
}

fn config() -> TopKConfig {
    TopKConfig::new(K, FLOOR).expect("K ≥ 1 and FLOOR in (0, 1]")
}

fn apply(index: &mut TopKIndex, op: &Op) -> SsJoinResult<Answer> {
    Ok(match op {
        Op::Match(q) => Answer::Matches(index.top_k(q)?),
        Op::Insert(t) => Answer::Id(index.insert(t)?),
        Op::Delete(id) => {
            index.delete(*id)?;
            Answer::Deleted
        }
    })
}

/// `TopKIndex` re-driven through its public building blocks, with spans.
struct Mirror {
    reference: Vec<String>,
    encoder: QueryEncoder,
    index: CorpusIndex,
    ss_config: SsJoinConfig,
    ws: JoinWorkspace,
    short_ids: Vec<u32>,
    brute_ids: Vec<u32>,
    short_cutoff: usize,
}

impl Mirror {
    fn build(refs: &[String], tr: &mut Tracer) -> SsJoinResult<Self> {
        let tok = QGramTokenizer::new(Q);
        let ref_lens: Vec<usize> = refs.iter().map(|x| x.chars().count()).collect();
        let norms: Vec<f64> = ref_lens.iter().map(|&l| l as f64).collect();
        let groups: Vec<Vec<String>> = tr.span(Layer::Text, "tokenize", || {
            refs.iter().map(|x| tok.tokenize(x)).collect()
        });
        tr.counters.tokens += groups.iter().map(|g| g.len() as u64).sum::<u64>();
        let built = tr.span(Layer::Builder, "build", || {
            let mut b =
                SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
            b.add_relation_with_norm(groups, NormKind::Custom(norms));
            b.build()
        })?;
        tr.counters.universe += built.universe_size() as u64;
        let encoder = built.query_encoder();
        let corpus = built
            .into_collections()
            .pop()
            .expect("one relation was added");
        tr.counters.set_elements += corpus.tuple_count() as u64;
        let pred = property4_predicate(FLOOR, Q);
        let index = tr.span(Layer::Index, "index_build", || {
            CorpusIndex::build_with(corpus, pred, &CorpusIndexOptions::default())
        })?;
        let short_cutoff = short_cutoff(FLOOR, Q);
        Ok(Self {
            reference: refs.to_vec(),
            short_ids: (0..refs.len() as u32)
                .filter(|&i| ref_lens[i as usize] < short_cutoff)
                .collect(),
            encoder,
            index,
            ss_config: SsJoinConfig::new(Algorithm::Inline),
            ws: JoinWorkspace::new(),
            brute_ids: Vec::new(),
            short_cutoff,
        })
    }

    fn top_k(&mut self, query: &str, tr: &mut Tracer) -> SsJoinResult<Vec<TopKMatch>> {
        let tok = QGramTokenizer::new(Q);
        let qlen = query.chars().count();
        let groups = tr.span(Layer::Text, "tokenize", || vec![tok.tokenize(query)]);
        tr.counters.tokens += groups[0].len() as u64;
        let batch = tr.span(Layer::Index, "encode", || {
            self.encoder
                .encode(&groups, NormKind::Custom(vec![qlen as f64]))
        })?;
        let (index, reference) = (&self.index, &self.reference);
        let run = tr.span(Layer::Index, "probe", || {
            index.probe(&batch, &self.ss_config, &mut self.ws)
        })?;
        tr.counters.probes += 1;
        tr.counters.probe_candidates += run.stats.candidate_pairs;
        tr.counters.probe_merge_steps += run.stats.merge_steps;
        let mut calls = 0u64;
        let mut seen: HashSet<u32> = HashSet::new();
        let mut out = tr.span(Layer::Sim, "edit_similarity", || {
            let mut out = Vec::new();
            for p in run.pairs {
                seen.insert(p.s);
                calls += 1;
                if edit_similarity_at_least(query, &reference[p.s as usize], FLOOR) {
                    out.push(TopKMatch {
                        index: p.s,
                        similarity: edit_similarity(query, &reference[p.s as usize]),
                    });
                }
            }
            let mut brute = |rid: u32| {
                if !seen.insert(rid) || !index.is_alive(rid) {
                    return;
                }
                calls += 1;
                if edit_similarity_at_least(query, &reference[rid as usize], FLOOR) {
                    out.push(TopKMatch {
                        index: rid,
                        similarity: edit_similarity(query, &reference[rid as usize]),
                    });
                }
            };
            if qlen < self.short_cutoff {
                self.short_ids.iter().for_each(|&rid| brute(rid));
            }
            self.brute_ids.iter().for_each(|&rid| brute(rid));
            out
        });
        tr.counters.udf_calls += calls;
        tr.counters.udf_accepted += out.len() as u64;
        rank(&mut out);
        out.truncate(K);
        Ok(out)
    }

    fn insert(&mut self, text: &str, tr: &mut Tracer) -> SsJoinResult<u32> {
        let tok = QGramTokenizer::new(Q);
        let group = tr.span(Layer::Text, "tokenize", || tok.tokenize(text));
        tr.counters.tokens += group.len() as u64;
        let len = text.chars().count();
        let (encoder, index) = (&self.encoder, &mut self.index);
        let (id, elems_len) = tr.span(Layer::Index, "insert", || {
            let elems = encoder.encode_group(&group);
            let pending = index.pending();
            let id = index.insert(&elems, len as f64);
            (id.map(|id| (id, index.pending() < pending)), elems.len())
        });
        let (id, merged) = id?;
        tr.counters.epoch_merges += u64::from(merged);
        self.reference.push(text.to_string());
        if len < self.short_cutoff {
            self.short_ids.push(id);
        }
        if elems_len < group.len() {
            self.brute_ids.push(id);
        }
        Ok(id)
    }

    fn apply(&mut self, op: &Op, tr: &mut Tracer) -> SsJoinResult<Answer> {
        Ok(match op {
            Op::Match(q) => Answer::Matches(self.top_k(q, tr)?),
            Op::Insert(t) => Answer::Id(self.insert(t, tr)?),
            Op::Delete(id) => {
                let index = &mut self.index;
                tr.span(Layer::Index, "delete", || index.delete(*id))?;
                Answer::Deleted
            }
        })
    }
}

/// Run the lookup workload for `seconds` and collect its metrics.
pub fn run(refs: &[String], ops: &[Op], seconds: f64, traced: bool) -> RunResult {
    let mut res = RunResult::default();
    let expected = brute_expectations(refs, ops);
    let mut first: Option<Vec<Answer>> = None;
    let mut setup = Vec::new();
    let (mut match_ms, mut all_ms) = (Vec::new(), Vec::new());
    let mut tracer = Tracer::new();
    let mut traced_passes: Vec<TracedPass> = Vec::new();
    let mut untraced_pass_ms = Vec::new();

    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut passes = 0;
    while passes < MIN_PASSES || start.elapsed() < budget {
        passes += 1;
        let t = Instant::now();
        res.attempted += 1;
        let mut index = match TopKIndex::build(refs, config()) {
            Ok(index) => index,
            Err(e) => {
                res.fail(format!("index build failed: {e}"));
                continue;
            }
        };
        setup.push(t.elapsed().as_secs_f64());

        let pass_start = Instant::now();
        let mut answers = Vec::with_capacity(ops.len());
        for op in ops {
            let t = Instant::now();
            let out = apply(&mut index, op);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            all_ms.push(ms);
            if matches!(op, Op::Match(_)) {
                match_ms.push(ms);
            }
            answers.push(out);
        }
        untraced_pass_ms.push(pass_start.elapsed().as_secs_f64() * 1e3);
        drop(index);
        let answers = check_pass(&mut res, answers, &mut first, &expected, refs.len());

        if traced {
            let (mirror, build_op) = tracer.op("TopKIndex::build", |tr| Mirror::build(refs, tr));
            let build_counters = std::mem::take(&mut tracer.counters);
            res.attempted += 1;
            let mut mirror = match mirror {
                Ok(m) => m,
                Err(e) => {
                    res.fail(format!("traced index build failed: {e}"));
                    continue;
                }
            };
            let mut op_ids = Vec::with_capacity(ops.len());
            for (i, op) in ops.iter().enumerate() {
                let (out, id) = tracer.op(op_label(op), |tr| mirror.apply(op, tr));
                op_ids.push((id, i));
                res.attempted += 1;
                match out {
                    Err(e) => res.fail(format!("traced op {i} failed: {e}")),
                    Ok(a) if answers.get(i).and_then(Option::as_ref) != Some(&a) => {
                        res.fail(format!("traced op {i} answer differs from TopKIndex"))
                    }
                    Ok(_) => {}
                }
            }
            traced_passes.push(TracedPass {
                build_op,
                build: build_counters,
                ops: op_ids,
                run: std::mem::take(&mut tracer.counters),
            });
        }
    }

    if traced {
        res.metrics = layer_metrics(&tracer, ops, &traced_passes, &untraced_pass_ms);
        res.trace = Some(tracer);
    } else {
        let total_s = all_ms.iter().sum::<f64>() / 1e3;
        res.metrics = Metrics::from([
            ("op_p50_ms", median(&match_ms)),
            ("ops_per_s", ratio(all_ms.len() as f64, total_s)),
            ("setup_s", median(&setup)),
            ("peak_rss_mb", peak_rss_mb()),
        ]);
    }
    res.notes.push(format!(
        "{passes} passes of {} ops, {} brute-force checks",
        ops.len(),
        expected.len()
    ));
    res
}

fn op_label(op: &Op) -> &'static str {
    match op {
        Op::Match(_) => "match",
        Op::Insert(_) => "insert",
        Op::Delete(_) => "delete",
    }
}

/// Check one pass's answers: no errors, inserts get the next id, matches
/// are at most `K` and above the floor, sampled matches equal the
/// brute-force scan, and every answer equals the first pass's. Returns the
/// answers (`None` for failed operations).
fn check_pass(
    res: &mut RunResult,
    answers: Vec<SsJoinResult<Answer>>,
    first: &mut Option<Vec<Answer>>,
    expected: &[(usize, Vec<TopKMatch>)],
    n_refs: usize,
) -> Vec<Option<Answer>> {
    let mut next_id = n_refs as u32;
    let mut exp = expected.iter().peekable();
    let out: Vec<Option<Answer>> = answers
        .into_iter()
        .enumerate()
        .map(|(i, a)| {
            res.attempted += 1;
            let want = exp.next_if(|e| e.0 == i).map(|e| &e.1);
            let a = match a {
                Err(e) => {
                    res.fail(format!("op {i} failed: {e}"));
                    return None;
                }
                Ok(a) => a,
            };
            let ok = match (&a, want) {
                (Answer::Id(id), _) => {
                    next_id += 1;
                    *id == next_id - 1
                }
                (Answer::Matches(got), want) => {
                    got.len() <= K
                        && got.iter().all(|m| m.similarity >= FLOOR - 1e-9)
                        && !matches!(want, Some(w) if w != got)
                }
                (Answer::Deleted, _) => true,
            } && !matches!(first, Some(f) if f[i] != a);
            if !ok {
                res.fail(format!("op {i} answer is wrong"));
            }
            Some(a)
        })
        .collect();
    if first.is_none() && out.iter().all(Option::is_some) {
        *first = Some(out.iter().flatten().cloned().collect());
    }
    out
}

/// Span ids and counters of one traced pass.
struct TracedPass {
    build_op: u64,
    build: Counters,
    /// `(operation id, script position)` of each operation.
    ops: Vec<(u64, usize)>,
    run: Counters,
}

/// Per-layer metrics of the traced passes: per pass, the index build's
/// layer times, per-operation means, and the pass's counters; then the
/// median over passes.
fn layer_metrics(
    tr: &Tracer,
    ops: &[Op],
    passes: &[TracedPass],
    untraced_pass_ms: &[f64],
) -> Metrics {
    let per = |f: &dyn Fn(&TracedPass) -> f64| -> f64 {
        median(&passes.iter().map(f).collect::<Vec<_>>())
    };
    let count = |pred: &dyn Fn(&Op) -> bool| ops.iter().filter(|o| pred(o)).count() as f64;
    let n_match = count(&|o| matches!(o, Op::Match(_)));
    let n_insert = count(&|o| matches!(o, Op::Insert(_)));
    let n_delete = count(&|o| matches!(o, Op::Delete(_)));
    let n_ops = ops.len() as f64;
    // Sum over a pass's operations of `f(op id)` for ops matching `pred`, in µs.
    let sum_us = |p: &TracedPass, pred: &dyn Fn(&Op) -> bool, f: &dyn Fn(u64) -> u64| {
        p.ops
            .iter()
            .filter(|&&(_, i)| pred(&ops[i]))
            .map(|&(id, _)| f(id) as f64 / 1e3)
            .sum::<f64>()
    };
    let is_match = |o: &Op| matches!(o, Op::Match(_));
    let any = |_: &Op| true;
    let mut m = Metrics::from([
        (
            "text.tokenize_ms",
            per(&|p| tr.label_ns(p.build_op, "tokenize") as f64 / 1e6),
        ),
        (
            "text.tokenize_us",
            per(&|p| sum_us(p, &is_match, &|id| tr.label_ns(id, "tokenize")) / n_match),
        ),
        ("text.tokens", per(&|p| p.build.tokens as f64)),
        (
            "builder.build_ms",
            per(&|p| tr.label_ns(p.build_op, "build") as f64 / 1e6),
        ),
        ("builder.universe", per(&|p| p.build.universe as f64)),
        (
            "builder.set_elements",
            per(&|p| p.build.set_elements as f64),
        ),
        (
            "sim.udf_ms",
            per(&|p| sum_us(p, &any, &|id| tr.self_ns(id)[4]) / 1e3 / n_ops),
        ),
        ("sim.udf_calls", per(&|p| p.run.udf_calls as f64 / n_ops)),
        (
            "sim.udf_yield",
            per(&|p| ratio(p.run.udf_accepted as f64, p.run.udf_calls as f64)),
        ),
        (
            "index.build_ms",
            per(&|p| tr.label_ns(p.build_op, "index_build") as f64 / 1e6),
        ),
        (
            "index.encode_us",
            per(&|p| sum_us(p, &is_match, &|id| tr.label_ns(id, "encode")) / n_match),
        ),
        (
            "index.probe_us",
            per(&|p| sum_us(p, &is_match, &|id| tr.label_ns(id, "probe")) / n_match),
        ),
        (
            "index.candidates_per_probe",
            per(&|p| ratio(p.run.probe_candidates as f64, p.run.probes as f64)),
        ),
        (
            "index.merge_steps_per_probe",
            per(&|p| ratio(p.run.probe_merge_steps as f64, p.run.probes as f64)),
        ),
        (
            "index.insert_us",
            per(&|p| ratio(sum_us(p, &any, &|id| tr.label_ns(id, "insert")), n_insert)),
        ),
        (
            "index.delete_us",
            per(&|p| ratio(sum_us(p, &any, &|id| tr.label_ns(id, "delete")), n_delete)),
        ),
        ("index.epoch_merges", per(&|p| p.run.epoch_merges as f64)),
        (
            "joins.self_ms",
            per(&|p| sum_us(p, &any, &|id| tr.self_ns(id)[0]) / 1e3 / n_ops),
        ),
        (
            "trace.overhead",
            ratio(
                per(&|p| sum_us(p, &any, &|id| tr.op_ns(id)) / 1e3),
                median(untraced_pass_ms),
            ),
        ),
    ]);
    crate::add_shares(
        &mut m,
        tr,
        passes.iter().flat_map(|p| p.ops.iter().map(|&(id, _)| id)),
    );
    m
}
