//! Building SSJoin inputs from token groups.
//!
//! The paper's pipelines (Figure 2) first convert strings to sets and
//! construct normalized representations `R(A, B, norm(A))`. The builder does
//! that conversion for any number of relations at once, so both join sides
//! share one element universe, one weight assignment, and one global order:
//!
//! 1. tokens are interned across all relations, as each relation is added,
//!    from borrowed `&str`s ([`SsJoinInputBuilder::add_relation_by`]);
//! 2. multisets are ordinalized (§4.3.1): occurrence *i* of token *t*
//!    becomes the element *(t, i)*;
//! 3. element weights are assigned (unweighted, or IDF over value
//!    frequencies exactly as §5 describes);
//! 4. the global order `O` is fixed (ascending frequency by default,
//!    §4.3.2) and every element is renamed to its dense *rank* in `O`;
//! 5. each relation's CSR arena is written straight from the flat array of
//!    element ids the intern pass recorded.

use crate::error::{SsJoinError, SsJoinResult};
use crate::hash::FxHashMap;
use crate::order::ElementOrder;
use crate::set::SetCollection;
use crate::weight::Weight;
use std::sync::atomic::{AtomicU64, Ordering};

static UNIVERSE_TAG: AtomicU64 = AtomicU64::new(1);

/// A process-unique universe tag (used by builds and by deserialization).
pub(crate) fn fresh_universe_tag() -> u64 {
    UNIVERSE_TAG.fetch_add(1, Ordering::Relaxed)
}

/// Element weighting scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightScheme {
    /// Every element has weight 1. Overlap = multiset intersection size.
    #[default]
    Unweighted,
    /// Inverse document frequency, the paper's §5 choice: the weight of
    /// token `t` is `ln(1 + N / f_t)` where `N` is the total number of
    /// values (groups) across all relations and `f_t` the number of values
    /// containing `t`. (The paper uses `log(N / f_t)`; the `1 +` smoothing
    /// keeps weights strictly positive, which the weight model of §2
    /// requires, without changing relative order.)
    Idf,
    /// Squared IDF: `ln(1 + N / f_t)²`. With this scheme the weighted
    /// overlap of two *sets* equals the dot product of their IDF vectors,
    /// which is what the cosine similarity join needs (§6 cites cosine
    /// custom joins as SSJoin-expressible).
    IdfSquared,
}

/// How a group's norm (the quantity normalized predicates reference) is
/// derived.
#[derive(Debug, Clone, PartialEq)]
pub enum NormKind {
    /// `norm = wt(set)` — the weighted-set norm of Definition 5's Jaccard.
    TotalWeight,
    /// `norm = √wt(set)` — the L2 vector norm when element weights are
    /// squared (see [`WeightScheme::IdfSquared`]); the cosine join's
    /// normalizer.
    SqrtTotalWeight,
    /// `norm = |set|` (multiset cardinality) — e.g. q-gram counts.
    Cardinality,
    /// Caller-provided per-group norms (e.g. string lengths for the edit
    /// join). Must have one value per group.
    Custom(Vec<f64>),
}

/// Identifies a relation added to the builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelationHandle(usize);

/// A relation added to the builder: a run of consecutive groups plus the
/// way their norms are derived.
struct RelationSpan {
    groups: std::ops::Range<usize>,
    norm: NormKind,
}

/// Per-token state of the intern pass, indexed by dense token id.
#[derive(Clone, Copy)]
struct TokenState {
    /// The group that last contained the token (stamp).
    group: usize,
    /// Groups containing the token: the frequency of element `(token, 1)`.
    groups: usize,
    /// Occurrences of the token in that group so far: the ordinal of the
    /// latest one.
    count: u32,
    /// Element id of `(token, 1)`, created when the token is first seen.
    first_eid: u32,
}

/// The fused intern pass: tokens become dense ids, occurrences become
/// ordinalized elements `(tid, ordinal)` with dense element ids (eids) in
/// first-seen order, and every group's eids are appended to one flat array.
#[derive(Default)]
struct Interner {
    /// Each distinct token's bytes, stored once, keyed to its dense id.
    token_ids: FxHashMap<Box<str>, u32>,
    tokens: Vec<TokenState>,
    /// `(tid, ordinal) → eid` for ordinals ≥ 2; ordinal 1 is
    /// `tokens[tid].first_eid`.
    repeat_eids: FxHashMap<(u32, u32), u32>,
    /// eid → `(tid, ordinal)`.
    elements: Vec<(u32, u32)>,
    /// eid → number of groups containing the element, for ordinals ≥ 2
    /// (an ordinal-1 element's count is its token's `groups`).
    element_freq: Vec<usize>,
    /// Every group's eids, group-major, in occurrence order.
    eids: Vec<u32>,
    /// Group `g` owns `eids[group_offsets[g]..group_offsets[g + 1]]`.
    group_offsets: Vec<usize>,
    /// The first id-space overflow, reported by `build`.
    overflow: Option<SsJoinError>,
}

impl Interner {
    fn new() -> Self {
        Self {
            group_offsets: vec![0],
            ..Self::default()
        }
    }

    fn groups(&self) -> usize {
        self.group_offsets.len() - 1
    }

    /// A new element id for `key`, or `None` (recording the overflow) when
    /// the `u32` element space is exhausted.
    fn new_element(&mut self, key: (u32, u32)) -> Option<u32> {
        if self.elements.len() >= u32::MAX as usize {
            self.overflow.get_or_insert(SsJoinError::TooManyElements {
                elements: self.elements.len() + 1,
            });
            return None;
        }
        self.elements.push(key);
        self.element_freq.push(0);
        Some((self.elements.len() - 1) as u32)
    }

    /// Intern one token occurrence of the current group.
    fn push(&mut self, token: &str) {
        let group = self.groups();
        let tid = match self.token_ids.get(token) {
            Some(&tid) => tid,
            None => {
                // Every token owns an element, so the element-space check
                // also keeps token ids inside u32.
                let tid = self.tokens.len() as u32;
                let Some(first_eid) = self.new_element((tid, 1)) else {
                    return;
                };
                self.token_ids.insert(token.into(), tid);
                self.tokens.push(TokenState {
                    group: usize::MAX,
                    groups: 0,
                    count: 0,
                    first_eid,
                });
                tid
            }
        };
        let state = &mut self.tokens[tid as usize];
        if state.group != group {
            state.group = group;
            state.groups += 1;
            state.count = 1;
            self.eids.push(state.first_eid);
            return;
        }
        state.count += 1;
        let key = (tid, state.count);
        let eid = match self.repeat_eids.get(&key) {
            Some(&eid) => eid,
            None => {
                let Some(eid) = self.new_element(key) else {
                    return;
                };
                self.repeat_eids.insert(key, eid);
                eid
            }
        };
        self.element_freq[eid as usize] += 1;
        self.eids.push(eid);
    }

    fn end_group(&mut self) {
        self.group_offsets.push(self.eids.len());
    }
}

/// Builds [`SetCollection`]s sharing one universe, weight assignment, and
/// global element order.
///
/// Tokens are interned as relations are added, from borrowed `&str`s
/// ([`SsJoinInputBuilder::add_relation_by`]): the builder keeps one copy of
/// each distinct token and one flat array of element ids, never a token
/// list per group. A self-join adds its data once and uses the one
/// collection as both sides.
pub struct SsJoinInputBuilder {
    scheme: WeightScheme,
    order: ElementOrder,
    relations: Vec<RelationSpan>,
    interner: Interner,
}

impl SsJoinInputBuilder {
    /// New builder with the given weighting scheme and global order.
    pub fn new(scheme: WeightScheme, order: ElementOrder) -> Self {
        Self {
            scheme,
            order,
            relations: Vec::new(),
            interner: Interner::new(),
        }
    }

    /// Add a relation: one token multiset per group. Norms default to the
    /// set's total weight.
    pub fn add_relation(&mut self, groups: Vec<Vec<String>>) -> RelationHandle {
        self.add_relation_with_norm(groups, NormKind::TotalWeight)
    }

    /// Add a relation with an explicit norm derivation.
    ///
    /// `NormKind::Custom` norms must have one value per group; the arity is
    /// validated by [`SsJoinInputBuilder::build`], which reports a mismatch
    /// as [`SsJoinError::InvalidInput`].
    pub fn add_relation_with_norm(
        &mut self,
        groups: Vec<Vec<String>>,
        norm: NormKind,
    ) -> RelationHandle {
        self.add_relation_by(groups.len(), norm, |g, emit| {
            groups[g].iter().for_each(|t| emit(t));
        })
    }

    /// Add a relation of `groups` groups whose tokens are streamed:
    /// `tokens_of(g, emit)` must call `emit` once per token of group `g`, in
    /// order. Tokens are interned as they arrive, so they may borrow from
    /// the caller's strings or a scratch buffer — a tokenizer's
    /// `for_each_token` fits directly.
    ///
    /// `NormKind::Custom` norms must have one value per group, validated by
    /// [`SsJoinInputBuilder::build`].
    pub fn add_relation_by<F>(
        &mut self,
        groups: usize,
        norm: NormKind,
        mut tokens_of: F,
    ) -> RelationHandle
    where
        F: FnMut(usize, &mut dyn FnMut(&str)),
    {
        let handle = RelationHandle(self.relations.len());
        let first = self.interner.groups();
        let interner = &mut self.interner;
        for g in 0..groups {
            tokens_of(g, &mut |token| interner.push(token));
            interner.end_group();
        }
        self.relations.push(RelationSpan {
            groups: first..first + groups,
            norm,
        });
        handle
    }

    /// Materialize every relation into a [`SetCollection`].
    ///
    /// # Errors
    /// Returns [`SsJoinError::InvalidInput`] when `NormKind::Custom` norms do
    /// not have one value per group, [`SsJoinError::TooManyGroups`] when a
    /// relation holds more groups than `u32` ids can address (group ids are
    /// capped at `u32::MAX - 1`, reserving `u32::MAX` as an executor
    /// sentinel), and [`SsJoinError::TooManyElements`] when the interned
    /// token/element universe or a collection's tuple arena overflows the
    /// `u32` id space.
    pub fn build(self) -> SsJoinResult<BuiltInput> {
        let tag = fresh_universe_tag();

        // Validate up front: custom-norm arity and the group-id space.
        // Group ids must stay strictly below u32::MAX because executors use
        // u32::MAX as a stamp-array sentinel.
        for (ri, rel) in self.relations.iter().enumerate() {
            let groups = rel.groups.len();
            if groups >= u32::MAX as usize {
                return Err(SsJoinError::TooManyGroups {
                    relation: ri,
                    groups,
                });
            }
            if let NormKind::Custom(norms) = &rel.norm {
                if norms.len() != groups {
                    return Err(SsJoinError::InvalidInput(format!(
                        "custom norms must have one value per group: relation {ri} \
                         has {groups} groups but {} norms",
                        norms.len()
                    )));
                }
            }
        }
        let Interner {
            token_ids,
            tokens: token_states,
            elements,
            mut element_freq,
            eids,
            group_offsets,
            overflow,
            ..
        } = self.interner;
        if let Some(err) = overflow {
            return Err(err);
        }

        // Token bytes by dense id, moved out of the intern table.
        let mut tokens: Vec<Box<str>> = vec![Box::default(); token_ids.len()];
        for (token, tid) in token_ids {
            tokens[tid as usize] = token;
        }

        // The groups containing a token are those containing its ordinal-1
        // element; the weight scheme works off that token frequency.
        for state in &token_states {
            element_freq[state.first_eid as usize] = state.groups;
        }
        let total_groups = group_offsets.len() - 1;
        let token_weights: Vec<Weight> = token_states
            .iter()
            .map(|state| {
                let ft = state.groups.max(1) as f64;
                match self.scheme {
                    WeightScheme::Unweighted => Weight::ONE,
                    WeightScheme::Idf => Weight::from_f64((1.0 + total_groups as f64 / ft).ln()),
                    WeightScheme::IdfSquared => {
                        let idf = (1.0 + total_groups as f64 / ft).ln();
                        Weight::from_f64(idf * idf)
                    }
                }
            })
            .collect();

        // Global order: rank per eid.
        let mut order_keys: Vec<u32> = (0..elements.len() as u32).collect();
        order_keys.sort_unstable_by_key(|&eid| {
            let (tid, _) = elements[eid as usize];
            self.order.sort_key(
                element_freq[eid as usize],
                &tokens[tid as usize],
                eid as u64,
            )
        });
        let mut rank_of_eid = vec![0u32; elements.len()];
        let mut element_meta = Vec::with_capacity(elements.len());
        let mut weights_by_rank = Vec::with_capacity(elements.len());
        for (rank, &eid) in order_keys.iter().enumerate() {
            rank_of_eid[eid as usize] = rank as u32;
            let (tid, ord) = elements[eid as usize];
            element_meta.push((tid, ord));
            weights_by_rank.push(token_weights[tid as usize]);
        }

        // Each relation's CSR arena, straight from the flat eid array.
        let universe = elements.len();
        let mut collections = Vec::with_capacity(self.relations.len());
        for rel in &self.relations {
            let (lo, hi) = (
                group_offsets[rel.groups.start],
                group_offsets[rel.groups.end],
            );
            if hi - lo > u32::MAX as usize {
                return Err(SsJoinError::TooManyElements { elements: hi - lo });
            }
            let elems: Vec<(u32, Weight)> = eids[lo..hi]
                .iter()
                .map(|&eid| {
                    let rank = rank_of_eid[eid as usize];
                    (rank, weights_by_rank[rank as usize])
                })
                .collect();
            let offsets: Vec<u32> = group_offsets[rel.groups.start..=rel.groups.end]
                .iter()
                .map(|&o| (o - lo) as u32)
                .collect();
            let norms: Vec<f64> = offsets
                .windows(2)
                .enumerate()
                .map(|(gi, w)| {
                    let set = &elems[w[0] as usize..w[1] as usize];
                    let total = || set.iter().map(|&(_, w)| w).sum::<Weight>().to_f64();
                    match &rel.norm {
                        NormKind::TotalWeight => total(),
                        NormKind::SqrtTotalWeight => total().sqrt(),
                        NormKind::Cardinality => set.len() as f64,
                        NormKind::Custom(norms) => norms[gi],
                    }
                })
                .collect();
            collections.push(SetCollection::from_flat(
                offsets, elems, norms, universe, tag,
            )?);
        }

        Ok(BuiltInput {
            collections,
            tokens,
            element_meta,
            weights_by_rank,
        })
    }
}

/// The output of [`SsJoinInputBuilder::build`]: the collections plus the
/// shared universe metadata.
#[derive(Debug)]
pub struct BuiltInput {
    collections: Vec<SetCollection>,
    /// Token text by token id.
    tokens: Vec<Box<str>>,
    /// `(token id, ordinal)` per rank.
    element_meta: Vec<(u32, u32)>,
    /// Weight per rank.
    weights_by_rank: Vec<Weight>,
}

impl BuiltInput {
    /// The collection built for `handle`.
    pub fn collection(&self, handle: RelationHandle) -> &SetCollection {
        &self.collections[handle.0]
    }

    /// All collections, in handle order.
    pub fn collections(&self) -> &[SetCollection] {
        &self.collections
    }

    /// Consume into the collections, in handle order.
    pub fn into_collections(self) -> Vec<SetCollection> {
        self.collections
    }

    /// Reassemble a built input from its parts (deserialization). Every
    /// `element_meta` token id must index `tokens`.
    pub(crate) fn from_parts(
        collections: Vec<SetCollection>,
        tokens: Vec<Box<str>>,
        element_meta: Vec<(u32, u32)>,
        weights_by_rank: Vec<Weight>,
    ) -> Self {
        Self {
            collections,
            tokens,
            element_meta,
            weights_by_rank,
        }
    }

    /// Number of distinct elements in the universe.
    pub fn universe_size(&self) -> usize {
        self.element_meta.len()
    }

    /// The `(token, ordinal)` a rank denotes.
    pub fn element(&self, rank: u32) -> (&str, u32) {
        let (tid, ord) = self.element_meta[rank as usize];
        (&self.tokens[tid as usize], ord)
    }

    /// The weight of the element at `rank`.
    pub fn element_weight(&self, rank: u32) -> Weight {
        self.weights_by_rank[rank as usize]
    }

    /// A [`QueryEncoder`] over this build's frozen universe, for encoding
    /// streamed queries against a prebuilt [`crate::CorpusIndex`].
    pub fn query_encoder(&self) -> QueryEncoder {
        let mut ids: FxHashMap<Box<str>, u32> = FxHashMap::default();
        let mut ranks: Vec<Vec<u32>> = Vec::new();
        for (rank, &(tid, ord)) in self.element_meta.iter().enumerate() {
            let token = &*self.tokens[tid as usize];
            let id = match ids.get(token) {
                Some(&id) => id,
                None => {
                    let id = ranks.len() as u32;
                    ids.insert(token.into(), id);
                    ranks.push(Vec::new());
                    id
                }
            };
            let slots = &mut ranks[id as usize];
            let idx = (ord as usize).saturating_sub(1);
            if slots.len() <= idx {
                slots.resize(idx + 1, u32::MAX);
            }
            slots[idx] = rank as u32;
        }
        QueryEncoder {
            ids,
            ranks,
            weights: self.weights_by_rank.clone(),
            universe_size: self.element_meta.len(),
            universe_tag: self
                .collections
                .first()
                .map(|c| c.universe_tag())
                .unwrap_or_else(fresh_universe_tag),
        }
    }
}

/// Encodes fresh token groups against the frozen universe of an existing
/// [`BuiltInput`], so streamed queries (and incremental corpus inserts) can
/// run against a prebuilt [`crate::CorpusIndex`] without rebuilding the
/// whole input.
///
/// Tokens — and multiset occurrences — never seen by the original build have
/// no rank in the frozen universe and are dropped from the encoded set. That
/// is exact for overlaps: an unseen element occurs in no corpus set, so it
/// can contribute nothing to any overlap. Norms derived outside the element
/// universe stay exact too ([`NormKind::Cardinality`] counts *all* tokens of
/// the group, dropped or not, and [`NormKind::Custom`] is caller-provided).
/// [`NormKind::TotalWeight`] and [`NormKind::SqrtTotalWeight`] sum the
/// weights of *known* elements only, which under-states the norm of queries
/// containing unseen tokens; prefer cardinality or custom norms for streamed
/// workloads under those schemes.
#[derive(Debug, Clone)]
pub struct QueryEncoder {
    /// token -> encoder token id.
    ids: FxHashMap<Box<str>, u32>,
    /// encoder token id -> rank per ordinal (index `ord - 1`; `u32::MAX`
    /// for a missing ordinal).
    ranks: Vec<Vec<u32>>,
    weights: Vec<Weight>,
    universe_size: usize,
    universe_tag: u64,
}

impl QueryEncoder {
    /// Look up the rank of `(token, ordinal)` in the frozen universe.
    /// Ordinals are 1-based, matching §4.3.1 ordinalization.
    pub fn rank_of(&self, token: &str, ordinal: u32) -> Option<u32> {
        let &id = self.ids.get(token)?;
        self.rank_of_id(id, ordinal)
    }

    fn rank_of_id(&self, id: u32, ordinal: u32) -> Option<u32> {
        self.ranks[id as usize]
            .get((ordinal as usize).checked_sub(1)?)
            .copied()
            .filter(|&r| r != u32::MAX)
    }

    /// Encode one streamed token group, appending its known `(rank,
    /// weight)` elements to `out` in occurrence order; returns the number of
    /// tokens streamed, known or not. `occurrence` is scratch.
    fn encode_into(
        &self,
        tokens: impl FnOnce(&mut dyn FnMut(&str)),
        occurrence: &mut FxHashMap<u32, u32>,
        out: &mut Vec<(u32, Weight)>,
    ) -> usize {
        occurrence.clear();
        let mut streamed = 0;
        tokens(&mut |token| {
            streamed += 1;
            let Some(&id) = self.ids.get(token) else {
                return;
            };
            let ord = occurrence.entry(id).or_insert(0);
            *ord += 1;
            if let Some(rank) = self.rank_of_id(id, *ord) {
                out.push((rank, self.weights[rank as usize]));
            }
        });
        streamed
    }

    /// Encode one token multiset, streamed as borrowed tokens (`tokens`
    /// calls its argument once per token, in order — a tokenizer's
    /// `for_each_token` fits directly), into `(rank, weight)` elements,
    /// dropping tokens outside the frozen universe. Elements come back in
    /// occurrence order.
    pub fn encode_group_by(&self, tokens: impl FnOnce(&mut dyn FnMut(&str))) -> Vec<(u32, Weight)> {
        let mut elems = Vec::new();
        self.encode_into(tokens, &mut FxHashMap::default(), &mut elems);
        elems
    }

    /// Encode one token multiset into `(rank, weight)` elements, dropping
    /// tokens outside the frozen universe. Elements come back in occurrence
    /// order; [`QueryEncoder::encode`] (via the collection constructor)
    /// handles sorting.
    pub fn encode_group(&self, group: &[String]) -> Vec<(u32, Weight)> {
        self.encode_group_by(|emit| group.iter().for_each(|t| emit(t)))
    }

    /// Encode token groups into a [`SetCollection`] sharing the frozen
    /// universe (same tag, same ranks, same weights), suitable as a probe
    /// batch for [`crate::CorpusIndex::probe`].
    ///
    /// # Errors
    /// Returns [`SsJoinError::InvalidInput`] when `NormKind::Custom` norms
    /// do not have one value per group.
    pub fn encode(&self, groups: &[Vec<String>], norm: NormKind) -> SsJoinResult<SetCollection> {
        self.encode_by(groups.len(), norm, |g, emit| {
            groups[g].iter().for_each(|t| emit(t))
        })
    }

    /// [`QueryEncoder::encode`] over `groups` streamed groups:
    /// `tokens_of(g, emit)` calls `emit` once per token of group `g`, in
    /// order, exactly as [`SsJoinInputBuilder::add_relation_by`] takes them.
    ///
    /// # Errors
    /// Returns [`SsJoinError::InvalidInput`] when `NormKind::Custom` norms
    /// do not have one value per group, and [`SsJoinError::TooManyElements`]
    /// when the batch overflows the `u32` arena.
    pub fn encode_by<F>(
        &self,
        groups: usize,
        norm: NormKind,
        mut tokens_of: F,
    ) -> SsJoinResult<SetCollection>
    where
        F: FnMut(usize, &mut dyn FnMut(&str)),
    {
        if let NormKind::Custom(norms) = &norm {
            if norms.len() != groups {
                return Err(SsJoinError::InvalidInput(format!(
                    "custom norms must have one value per group: \
                     {groups} groups but {} norms",
                    norms.len()
                )));
            }
        }
        let mut occurrence = FxHashMap::default();
        let mut elems = Vec::new();
        let mut offsets = Vec::with_capacity(groups + 1);
        offsets.push(0u32);
        let mut norms = Vec::with_capacity(groups);
        for g in 0..groups {
            let start = elems.len();
            let streamed = self.encode_into(|emit| tokens_of(g, emit), &mut occurrence, &mut elems);
            let total = || {
                elems[start..]
                    .iter()
                    .map(|&(_, w)| w)
                    .sum::<Weight>()
                    .to_f64()
            };
            norms.push(match &norm {
                NormKind::TotalWeight => total(),
                NormKind::SqrtTotalWeight => total().sqrt(),
                NormKind::Cardinality => streamed as f64,
                NormKind::Custom(norms) => norms[g],
            });
            let end = u32::try_from(elems.len()).map_err(|_| SsJoinError::TooManyElements {
                elements: elems.len(),
            })?;
            offsets.push(end);
        }
        SetCollection::from_flat(offsets, elems, norms, self.universe_size, self.universe_tag)
    }

    /// Number of distinct elements in the frozen universe.
    pub fn universe_size(&self) -> usize {
        self.universe_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unweighted_overlap_counts_elements() {
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        let h = b.add_relation(vec![toks(&["a", "b", "c"]), toks(&["b", "c", "d"])]);
        let built = b.build().unwrap();
        let c = built.collection(h);
        assert_eq!(c.len(), 2);
        assert_eq!(c.set(0).overlap(c.set(1)), Weight::from_f64(2.0));
    }

    #[test]
    fn streamed_tokens_may_borrow_a_reused_buffer() {
        // The builder copies a token's bytes when it first sees it, so the
        // caller may overwrite its buffer between emits.
        let groups = vec![toks(&["x", "y", "x"]), toks(&[]), toks(&["y", "z"])];
        let mut owned = SsJoinInputBuilder::new(WeightScheme::Idf, ElementOrder::FrequencyAsc);
        let oh = owned.add_relation(groups.clone());
        let owned = owned.build().unwrap();
        let mut b = SsJoinInputBuilder::new(WeightScheme::Idf, ElementOrder::FrequencyAsc);
        let mut buf = String::new();
        let h = b.add_relation_by(groups.len(), NormKind::TotalWeight, |g, emit| {
            for t in &groups[g] {
                buf.clear();
                buf.push_str(t);
                emit(&buf);
            }
        });
        let built = b.build().unwrap();
        assert_eq!(built.universe_size(), owned.universe_size());
        for rank in 0..built.universe_size() as u32 {
            assert_eq!(built.element(rank), owned.element(rank));
        }
        for (a, b) in built.collection(h).iter().zip(owned.collection(oh).iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn multiset_ordinalization() {
        // {x, x} vs {x}: multiset overlap is 1, not 2.
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        let h = b.add_relation(vec![toks(&["x", "x"]), toks(&["x"])]);
        let built = b.build().unwrap();
        let c = built.collection(h);
        assert_eq!(c.set(0).len(), 2); // (x,1), (x,2)
        assert_eq!(c.set(0).overlap(c.set(1)), Weight::ONE);
        assert_eq!(c.universe_size(), 2);
    }

    #[test]
    fn shared_universe_across_relations() {
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        let r = b.add_relation(vec![toks(&["p", "q"])]);
        let s = b.add_relation(vec![toks(&["q", "z"])]);
        let built = b.build().unwrap();
        let overlap = built
            .collection(r)
            .set(0)
            .overlap(built.collection(s).set(0));
        assert_eq!(overlap, Weight::ONE); // shared "q"
    }

    #[test]
    fn idf_weights_rare_tokens_heavier() {
        let mut b = SsJoinInputBuilder::new(WeightScheme::Idf, ElementOrder::FrequencyAsc);
        // "the" in all 4 groups, "zyx" in one.
        let h = b.add_relation(vec![
            toks(&["the", "zyx"]),
            toks(&["the", "b"]),
            toks(&["the", "c"]),
            toks(&["the", "d"]),
        ]);
        let built = b.build().unwrap();
        let c = built.collection(h);
        // Under FrequencyAsc the rare elements come first; "the" (freq 4) is
        // the last rank.
        let last_rank = (built.universe_size() - 1) as u32;
        let (token, _) = built.element(last_rank);
        assert_eq!(token, "the");
        // IDF: ln(1 + 4/4) < ln(1 + 4/1).
        let w_the = built.element_weight(last_rank);
        let w_rare = built.element_weight(0);
        assert!(w_rare > w_the, "rare {w_rare} vs common {w_the}");
        // Norms default to total weight.
        let s0 = c.set(0);
        assert!((s0.norm() - s0.total_weight().to_f64()).abs() < 1e-9);
    }

    #[test]
    fn frequency_order_places_rare_first() {
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        let h = b.add_relation(vec![
            toks(&["common", "rare1"]),
            toks(&["common", "rare2"]),
            toks(&["common"]),
        ]);
        let built = b.build().unwrap();
        let c = built.collection(h);
        // In every set containing it, "common" (freq 3) must sort after the
        // rare tokens (freq 1), i.e. have the largest rank.
        let (token, _) = built.element((built.universe_size() - 1) as u32);
        assert_eq!(token, "common");
        for set in c.iter() {
            assert!(set.ranks().windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn norm_kinds() {
        let groups = vec![toks(&["a", "a", "b"])];
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        let card = b.add_relation_with_norm(groups.clone(), NormKind::Cardinality);
        let custom = b.add_relation_with_norm(groups.clone(), NormKind::Custom(vec![42.0]));
        let total = b.add_relation_with_norm(groups, NormKind::TotalWeight);
        let built = b.build().unwrap();
        assert_eq!(built.collection(card).set(0).norm(), 3.0);
        assert_eq!(built.collection(custom).set(0).norm(), 42.0);
        assert_eq!(built.collection(total).set(0).norm(), 3.0); // unit weights
    }

    #[test]
    fn custom_norm_arity_checked() {
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        b.add_relation_with_norm(vec![toks(&["a"])], NormKind::Custom(vec![1.0, 2.0]));
        let err = b.build().unwrap_err();
        assert!(
            matches!(&err, SsJoinError::InvalidInput(m) if m.contains("one value per group")),
            "{err:?}"
        );
    }

    #[test]
    fn empty_groups_and_relations() {
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        let h = b.add_relation(vec![vec![], toks(&["only"])]);
        let e = b.add_relation(vec![]);
        let built = b.build().unwrap();
        assert_eq!(built.collection(h).set(0).len(), 0);
        assert_eq!(built.collection(h).set(1).len(), 1);
        assert!(built.collection(e).is_empty());
    }

    #[test]
    fn query_encoder_round_trips_known_tokens() {
        let mut b = SsJoinInputBuilder::new(WeightScheme::Idf, ElementOrder::FrequencyAsc);
        let h = b.add_relation(vec![
            toks(&["a", "b", "b", "c"]),
            toks(&["b", "c"]),
            toks(&["a", "d"]),
        ]);
        let built = b.build().unwrap();
        let enc = built.query_encoder();
        assert_eq!(enc.universe_size(), built.universe_size());
        // Re-encoding the original groups reproduces the built sets exactly
        // (same ranks, same weights, same norms).
        let groups = vec![toks(&["a", "b", "b", "c"]), toks(&["b", "c"])];
        let again = enc.encode(&groups, NormKind::TotalWeight).unwrap();
        let c = built.collection(h);
        assert!(c.shares_universe(&again));
        for (i, set) in again.iter().enumerate() {
            let orig = c.set(i as u32);
            assert_eq!(set.ranks(), orig.ranks());
            assert_eq!(set.weights(), orig.weights());
            assert!((set.norm() - orig.norm()).abs() < 1e-12);
        }
    }

    #[test]
    fn query_encoder_drops_unseen_tokens() {
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        b.add_relation(vec![toks(&["a", "b"])]);
        let built = b.build().unwrap();
        let enc = built.query_encoder();
        // "z" was never interned; second occurrence of "a" was never seen.
        let coll = enc
            .encode(&[toks(&["a", "z", "a"])], NormKind::Cardinality)
            .unwrap();
        assert_eq!(coll.set(0).len(), 1); // only (a, 1) survives
        assert_eq!(coll.set(0).norm(), 3.0); // cardinality counts all tokens
        assert_eq!(enc.rank_of("z", 1), None);
        assert_eq!(enc.rank_of("a", 2), None);
        assert!(enc.rank_of("a", 1).is_some());
    }

    #[test]
    fn query_encoder_custom_norm_arity_checked() {
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        b.add_relation(vec![toks(&["a"])]);
        let enc = b.build().unwrap().query_encoder();
        let err = enc
            .encode(&[toks(&["a"])], NormKind::Custom(vec![1.0, 2.0]))
            .unwrap_err();
        assert!(matches!(err, SsJoinError::InvalidInput(_)), "{err:?}");
    }

    #[test]
    fn distinct_builds_have_distinct_tags() {
        let build = || {
            let mut b =
                SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
            let h = b.add_relation(vec![toks(&["a"])]);
            let built = b.build().unwrap();
            built.collection(h).clone()
        };
        let c1 = build();
        let c2 = build();
        assert_ne!(c1.universe_tag(), c2.universe_tag());
    }
}
