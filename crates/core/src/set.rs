//! Weighted sets and set collections, stored in a flat CSR arena.
//!
//! A set is one group of the SSJoin input: the (ordinalized, weighted) set
//! of `B` values sharing one `A` value. Elements are dense `u32` *ranks* —
//! positions in the global order `O` — so "sorted by `O`" is an integer sort
//! and prefix extraction is a scan.
//!
//! A [`SetCollection`] is one side (R or S) of the join. Instead of boxing
//! one heap allocation per group, the collection holds a single contiguous
//! **compressed-sparse-row arena**: one `ranks` array, one parallel
//! `weights` array, one parallel `suffix` array of cumulative suffix
//! weights, and an `offsets` array delimiting each set's slice. Per-set
//! derived state (total weight, norm, wide bitmap signature, minimum
//! element weight) lives in parallel per-set arrays. Index builds and
//! verification merges therefore stream cache-friendly structure-of-arrays
//! memory with no pointer chasing.
//!
//! [`SetRef`] is the borrowed per-set view handed to executors and overlap
//! kernels (see [`crate::kernel`]); it is `Copy` and carries the arena
//! slices plus the derived scalars.

use crate::error::{SsJoinError, SsJoinResult};
use crate::weight::Weight;
use ssjoin_prng::{Rng, StdRng};

/// Number of 64-bit words in a *stored* bitmap signature. Signatures are
/// always materialized at this maximum width in the arena; narrower views
/// (see [`SignatureWidth`]) are derived losslessly at probe time by OR-folding
/// word `j` into word `j mod k`, which is exactly the signature that hashing
/// positions modulo `64·k` would have produced.
pub const SIG_WORDS: usize = 8;

/// Hashed bit position for an element rank inside the maximum-width
/// signature: a multiplicative hash spreads nearby ranks across the
/// `64 · SIG_WORDS = 512` positions so dense rank ranges don't collide.
#[inline]
fn signature_position(rank: u32) -> usize {
    ((rank as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 55) as usize
}

/// Set the hashed bit for `rank` in a maximum-width signature.
#[inline]
fn set_signature_bit(sig: &mut [u64; SIG_WORDS], rank: u32) {
    let p = signature_position(rank);
    sig[p >> 6] |= 1u64 << (p & 63);
}

/// Width of the bitmap signature view used for candidate pruning, in 64-bit
/// words. Wider signatures have more bit positions, so fewer hash collisions
/// and a tighter overlap bound, at the cost of more AND/ANDNOT + popcount
/// work per candidate. The arena always stores [`SIG_WORDS`] words per set;
/// the width only selects how far probes fold that storage down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SignatureWidth {
    /// One word — 64 bit positions (the PR 1 baseline filter).
    #[default]
    W1,
    /// Two words — 128 bit positions.
    W2,
    /// Four words — 256 bit positions.
    W4,
    /// Eight words — 512 bit positions, the stored maximum.
    W8,
}

impl SignatureWidth {
    /// All supported widths, narrowest first.
    pub const ALL: [SignatureWidth; 4] = [
        SignatureWidth::W1,
        SignatureWidth::W2,
        SignatureWidth::W4,
        SignatureWidth::W8,
    ];

    /// Number of 64-bit words in this signature view.
    #[inline]
    pub fn words(self) -> usize {
        match self {
            SignatureWidth::W1 => 1,
            SignatureWidth::W2 => 2,
            SignatureWidth::W4 => 4,
            SignatureWidth::W8 => 8,
        }
    }

    /// Number of bit positions in this signature view.
    #[inline]
    pub fn bits(self) -> usize {
        self.words() * 64
    }

    /// Short lowercase label (`"w1"` … `"w8"`), used in metrics and CLI
    /// flags.
    pub fn name(self) -> &'static str {
        match self {
            SignatureWidth::W1 => "w1",
            SignatureWidth::W2 => "w2",
            SignatureWidth::W4 => "w4",
            SignatureWidth::W8 => "w8",
        }
    }

    /// The width with the given word count, if supported (1, 2, 4, or 8).
    pub fn from_words(words: usize) -> Option<SignatureWidth> {
        match words {
            1 => Some(SignatureWidth::W1),
            2 => Some(SignatureWidth::W2),
            4 => Some(SignatureWidth::W4),
            8 => Some(SignatureWidth::W8),
            _ => None,
        }
    }
}

impl std::fmt::Display for SignatureWidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x64-bit", self.words())
    }
}

/// Fold a stored maximum-width signature down to `K` words by OR-ing word
/// `j` into word `j mod K`. For `K` dividing [`SIG_WORDS`] this equals the
/// signature produced by hashing every element position modulo `64·K`, so
/// the fold is itself a valid (coarser) signature. `K` is a compile-time
/// constant, so the loop fully unrolls into straight-line OR instructions
/// over a stack array — no allocation, no branches.
#[inline]
fn fold_signature<const K: usize>(sig: &[u64]) -> [u64; K] {
    let mut out = [0u64; K];
    for (j, &w) in sig.iter().enumerate() {
        out[j % K] |= w;
    }
    out
}

/// Count the bits set only in `a` and only in `b` after folding both
/// signatures to `K` words: one unrolled AND/ANDNOT + popcount pass.
#[inline]
fn fold_only_counts<const K: usize>(a: &[u64], b: &[u64]) -> (u32, u32) {
    let fa = fold_signature::<K>(a);
    let fb = fold_signature::<K>(b);
    let mut only_a = 0u32;
    let mut only_b = 0u32;
    for (&x, &y) in fa.iter().zip(fb.iter()) {
        only_a += (x & !y).count_ones();
        only_b += (y & !x).count_ones();
    }
    (only_a, only_b)
}

/// A borrowed view of one weighted set inside a [`SetCollection`] arena.
///
/// Cheap to copy (a few slices and scalars); all read paths — prefix
/// extraction, index builds, overlap merges, signature pruning — go through
/// this view.
#[derive(Debug, Clone, Copy)]
pub struct SetRef<'a> {
    /// Element ranks, ascending, no duplicates.
    ranks: &'a [u32],
    /// Element weights, parallel to `ranks`.
    weights: &'a [Weight],
    /// Suffix cumulative weights: `suffix[i] = Σ weights[i..]`.
    suffix: &'a [Weight],
    norm: f64,
    total: Weight,
    /// Maximum-width bitmap signature: a `SIG_WORDS`-word slice of the
    /// collection's contiguous signature pool.
    sig: &'a [u64],
    min_weight: Weight,
}

impl PartialEq for SetRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        // Derived state is a function of (ranks, weights), so comparing the
        // primary columns plus the norm is full structural equality.
        self.ranks == other.ranks && self.weights == other.weights && self.norm == other.norm
    }
}

impl<'a> SetRef<'a> {
    /// Element ranks, ascending by the global order, no duplicates.
    pub fn ranks(self) -> &'a [u32] {
        self.ranks
    }

    /// Element weights, parallel to [`SetRef::ranks`].
    pub fn weights(self) -> &'a [Weight] {
        self.weights
    }

    /// Precomputed suffix cumulative weights: `suffix_weights()[i]` is the
    /// total weight of elements `i..`. Same length as the set.
    pub fn suffix_weights(self) -> &'a [Weight] {
        self.suffix
    }

    /// Total weight of elements `i..` (`Weight::ZERO` at `i == len`).
    ///
    /// # Panics
    /// Panics if `i > len`.
    #[inline]
    pub fn suffix_weight(self, i: usize) -> Weight {
        if i == self.suffix.len() {
            Weight::ZERO
        } else {
            self.suffix[i]
        }
    }

    /// Number of elements.
    pub fn len(self) -> usize {
        self.ranks.len()
    }

    /// True if the set is empty.
    pub fn is_empty(self) -> bool {
        self.ranks.is_empty()
    }

    /// Total weight `wt(s)`.
    pub fn total_weight(self) -> Weight {
        self.total
    }

    /// The norm used by normalized predicates.
    pub fn norm(self) -> f64 {
        self.norm
    }

    /// The set's 64-bit bitmap signature: the stored maximum-width signature
    /// folded down to one word (bitwise OR of one hashed bit per element,
    /// positions taken modulo 64).
    pub fn signature(self) -> u64 {
        self.sig.iter().fold(0u64, |acc, &w| acc | w)
    }

    /// The stored maximum-width bitmap signature: [`SIG_WORDS`] words,
    /// contiguous in the collection's signature pool.
    pub fn signature_words(self) -> &'a [u64] {
        self.sig
    }

    /// Smallest element weight ([`Weight::ZERO`] for the empty set).
    pub fn min_element_weight(self) -> Weight {
        self.min_weight
    }

    /// Upper bound on `wt(self ∩ other)` from the two 64-bit (one-word)
    /// signature views — equivalent to
    /// [`SetRef::wide_overlap_bound`] at [`SignatureWidth::W1`].
    pub fn bitmap_overlap_bound(self, other: SetRef<'_>) -> Weight {
        self.wide_overlap_bound(other, SignatureWidth::W1)
    }

    /// Upper bound on `wt(self ∩ other)` from the two bitmap signatures
    /// folded to `width` words.
    ///
    /// Every folded bit set for `r` but not for `s` certifies at least one
    /// element of `r` absent from `s`: an element of `s` hashing to *any*
    /// stored position that folds onto that bit would have set it in `s`'s
    /// fold, so no element of `s` hashes there, while some element of `r`
    /// does. Distinct folded bits certify distinct elements; hence
    /// `wt(r \ s) ≥ popcount(fold(sig_r) & !fold(sig_s)) · min_weight(r)` and
    /// `overlap ≤ wt(r) − popcount(fold(sig_r) & !fold(sig_s)) · min_weight(r)`.
    /// The symmetric bound holds for `s`; the minimum of the two is returned.
    /// Exact-overlap computation never exceeds this, so pruning candidates
    /// whose bound falls *strictly below* the required overlap is lossless —
    /// a bound exactly at the threshold is kept and verified.
    ///
    /// Wider views fold fewer stored words together, so they keep more
    /// distinct positions and the bound is monotonically no looser as the
    /// width grows.
    pub fn wide_overlap_bound(self, other: SetRef<'_>, width: SignatureWidth) -> Weight {
        let (only_r, only_s) = match width {
            SignatureWidth::W1 => fold_only_counts::<1>(self.sig, other.sig),
            SignatureWidth::W2 => fold_only_counts::<2>(self.sig, other.sig),
            SignatureWidth::W4 => fold_only_counts::<4>(self.sig, other.sig),
            SignatureWidth::W8 => fold_only_counts::<8>(self.sig, other.sig),
        };
        let bound_r = self.total.saturating_sub(Weight::from_raw(
            self.min_weight.raw().saturating_mul(u64::from(only_r)),
        ));
        let bound_s = other.total.saturating_sub(Weight::from_raw(
            other.min_weight.raw().saturating_mul(u64::from(only_s)),
        ));
        bound_r.min(bound_s)
    }

    /// The β-prefix of Lemma 1: the shortest prefix (under the global order)
    /// whose weights sum to *strictly more than* `beta`. Returns the number
    /// of elements in the prefix (possibly the whole set if the total does
    /// not exceed `beta`; callers that need "can never match" detection
    /// compare thresholds with [`SetRef::total_weight`] first).
    pub fn prefix_len(self, beta: Weight) -> usize {
        // suffix[0] = total, so the prefix exceeds β exactly when the weight
        // *behind* position i drops below total − β: total − suffix[i+1] > β.
        let mut acc = Weight::ZERO;
        for (i, &w) in self.weights.iter().enumerate() {
            acc += w;
            if acc > beta {
                return i + 1;
            }
        }
        self.weights.len()
    }

    /// Weighted overlap `wt(self ∩ other)` by a full merge of the two
    /// rank-sorted element lists — the [`crate::kernel::OverlapKernel::Linear`]
    /// correctness oracle, without threshold awareness or counters.
    pub fn overlap(self, other: SetRef<'_>) -> Weight {
        crate::kernel::merge_full(self, other, &mut 0)
    }
}

/// Number of log₂ buckets in the set-length histogram: bucket 0 holds empty
/// sets, bucket `b ≥ 1` holds lengths in `[2^(b-1), 2^b)`. 34 buckets cover
/// every length representable by the `u32` arena offsets.
pub const LEN_HIST_BUCKETS: usize = 34;

/// Maximum number of set ids retained by the seeded selectivity sample.
pub(crate) const STATS_SAMPLE_CAP: usize = 64;

/// Histogram bucket for a set length (see [`LEN_HIST_BUCKETS`]).
#[inline]
fn len_bucket(len: usize) -> usize {
    if len == 0 {
        0
    } else {
        (len.ilog2() as usize + 1).min(LEN_HIST_BUCKETS - 1)
    }
}

/// Reject a rank-sorted element list with a repeated rank.
fn reject_duplicate_ranks(sorted: &[(u32, Weight)]) -> SsJoinResult<()> {
    match sorted.windows(2).find(|w| w[0].0 == w[1].0) {
        Some(w) => Err(SsJoinError::InvalidInput(format!(
            "duplicate rank {}; ordinalize multisets first",
            w[0].0
        ))),
        None => Ok(()),
    }
}

/// Catalog-style statistics a [`SetCollection`] maintains as sets are added,
/// consumed by the cost-based planner (`exec::auto`):
///
/// * a dense **token-frequency histogram** over the element universe —
///   `Σ_{(set, e)} 1` per rank, with saturating increments so extreme
///   corpora degrade the estimate instead of wrapping it;
/// * a log₂ **set-length histogram** plus the maximum length, from which the
///   planner derives average merge lengths and the probability a candidate
///   pair is skewed enough for the galloping kernel;
/// * a seeded **reservoir sample** of set ids (≤ 64, deterministic per
///   builder run via the universe tag) used to estimate prefix selectivity
///   under a concrete predicate without scanning the whole collection.
///
/// Maintenance is incremental and O(set length) per added set, so every
/// construction path through [`crate::SsJoinInputBuilder`] keeps the
/// statistics current; they are never invalidated by reads. Statistics
/// describe every set ever added (deletions happen above this layer, via
/// tombstones), so planners treat them as estimates, not exact catalogs.
#[derive(Debug, Clone)]
pub struct CollectionStats {
    /// Dense per-rank occurrence counts, length `universe_size`.
    token_freq: Vec<u32>,
    /// Log₂ set-length histogram (see [`len_bucket`]).
    len_hist: [u64; LEN_HIST_BUCKETS],
    /// Largest set length seen.
    max_len: usize,
    /// Reservoir-sampled set ids, seeded from the universe tag.
    sample: Vec<u32>,
    /// Reservoir RNG state (kept so incremental appends stay a valid
    /// uniform sample).
    rng: StdRng,
    /// Sets offered to the reservoir so far.
    seen: u64,
}

impl CollectionStats {
    fn new(universe_size: usize, universe_tag: u64) -> Self {
        Self {
            token_freq: vec![0; universe_size],
            len_hist: [0; LEN_HIST_BUCKETS],
            max_len: 0,
            sample: Vec::new(),
            // Mix the tag so distinct builder runs sample differently but
            // any rebuild of the same run reproduces the same sample.
            rng: StdRng::seed_from_u64(universe_tag ^ 0x5357_4a4e_5354_4154),
            seen: 0,
        }
    }

    /// Fold one appended set (id `id`, elements `ranks`) into every
    /// statistic. Called exactly once per set, in id order.
    fn record(&mut self, id: u32, ranks: &[u32]) {
        for &rank in ranks {
            if let Some(slot) = self.token_freq.get_mut(rank as usize) {
                *slot = slot.saturating_add(1);
            }
        }
        self.len_hist[len_bucket(ranks.len())] += 1;
        self.max_len = self.max_len.max(ranks.len());
        // Algorithm R reservoir sampling: uniform over all sets ever added.
        if self.sample.len() < STATS_SAMPLE_CAP {
            self.sample.push(id);
        } else {
            let j = self.rng.gen_range(0..self.seen + 1) as usize;
            if j < STATS_SAMPLE_CAP {
                self.sample[j] = id;
            }
        }
        self.seen += 1;
    }

    /// Reset to the empty statistics of a fresh collection over
    /// `universe_size`, keeping the token-frequency buffer's capacity.
    /// Used by the spill path to recycle one statistics block across
    /// partition sub-collections.
    pub(crate) fn reset(&mut self, universe_size: usize, universe_tag: u64) {
        self.token_freq.clear();
        self.token_freq.resize(universe_size, 0);
        self.len_hist = [0; LEN_HIST_BUCKETS];
        self.max_len = 0;
        self.sample.clear();
        self.rng = StdRng::seed_from_u64(universe_tag ^ 0x5357_4a4e_5354_4154);
        self.seen = 0;
    }

    /// Dense per-rank occurrence counts over the universe. Saturating: a
    /// count of `u32::MAX` means "at least that many".
    pub fn token_freq(&self) -> &[u32] {
        &self.token_freq
    }

    /// Log₂ set-length histogram: bucket 0 counts empty sets, bucket `b ≥ 1`
    /// counts lengths in `[2^(b-1), 2^b)`.
    pub fn len_histogram(&self) -> &[u64; LEN_HIST_BUCKETS] {
        &self.len_hist
    }

    /// Largest set length seen.
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// The seeded uniform sample of set ids (at most 64).
    pub fn sample_ids(&self) -> &[u32] {
        &self.sample
    }
}

/// One side (R or S) of an SSJoin: a CSR arena of weighted sets. The index
/// of a set in the collection is its group id.
#[derive(Debug, Clone)]
pub struct SetCollection {
    /// Set boundaries: set `i` occupies arena positions
    /// `offsets[i]..offsets[i+1]`. Length `len + 1`, starts at 0.
    offsets: Vec<u32>,
    /// All element ranks, set-major, ascending within each set.
    ranks: Vec<u32>,
    /// All element weights, parallel to `ranks`.
    weights: Vec<Weight>,
    /// Suffix cumulative weights, parallel to `ranks`: within a set spanning
    /// `lo..hi`, `suffix[k] = Σ weights[k..hi]`.
    suffix: Vec<Weight>,
    /// Per-set norms.
    norms: Vec<f64>,
    /// Per-set total weights.
    totals: Vec<Weight>,
    /// Per-set maximum-width bitmap signatures, stored contiguously:
    /// set `i` owns words `i*SIG_WORDS..(i+1)*SIG_WORDS`. Probes fold these
    /// down to the configured [`SignatureWidth`] on the fly.
    sig_words: Vec<u64>,
    /// Per-set minimum element weights.
    min_weights: Vec<Weight>,
    /// Number of distinct element ranks in the shared universe.
    universe_size: usize,
    /// Identifies the builder run that produced this collection; collections
    /// may only be joined with collections from the same run.
    universe_tag: u64,
    /// Cached smallest/largest norm across groups (`None` when empty).
    norm_range: Option<(f64, f64)>,
    /// Planner statistics, maintained incrementally as sets are added.
    stats: CollectionStats,
}

impl SetCollection {
    /// An empty arena over a universe of `universe_size` ranks.
    fn empty(universe_size: usize, universe_tag: u64) -> Self {
        Self {
            offsets: vec![0],
            ranks: Vec::new(),
            weights: Vec::new(),
            suffix: Vec::new(),
            norms: Vec::new(),
            totals: Vec::new(),
            sig_words: Vec::new(),
            min_weights: Vec::new(),
            universe_size,
            universe_tag,
            norm_range: None,
            stats: CollectionStats::new(universe_size, universe_tag),
        }
    }

    /// Build the arena from flat CSR input: set `i` holds the elements
    /// `elements[offsets[i]..offsets[i + 1]]`, in any order, and has norm
    /// `norms[i]`. Each set's elements are sorted by rank in place and
    /// validated, and all derived state (totals, suffix weight tables,
    /// bitmap signatures, minimum weights, the cached norm range, planner
    /// statistics) is computed in one pass, so every construction path —
    /// builder, query encoder, deserialization — gets it consistently.
    ///
    /// # Errors
    /// Returns [`SsJoinError::InvalidInput`] on duplicate ranks within a set
    /// — callers must ordinalize multisets first — or on offsets that do not
    /// delimit `elements` into `norms.len()` sets, and
    /// [`SsJoinError::TooManyElements`] if the total element count overflows
    /// the `u32` offset space.
    pub(crate) fn from_flat(
        offsets: Vec<u32>,
        mut elements: Vec<(u32, Weight)>,
        norms: Vec<f64>,
        universe_size: usize,
        universe_tag: u64,
    ) -> SsJoinResult<Self> {
        if elements.len() > u32::MAX as usize {
            return Err(SsJoinError::TooManyElements {
                elements: elements.len(),
            });
        }
        if offsets.len() != norms.len() + 1
            || offsets[0] != 0
            || offsets.windows(2).any(|w| w[0] > w[1])
            || offsets[norms.len()] as usize != elements.len()
        {
            return Err(SsJoinError::InvalidInput(format!(
                "set offsets do not delimit {} elements into {} sets",
                elements.len(),
                norms.len()
            )));
        }
        let n = norms.len();
        let tuple_count = elements.len();
        let mut c = Self::empty(universe_size, universe_tag);
        c.offsets.reserve(n);
        c.ranks.reserve(tuple_count);
        c.weights.reserve(tuple_count);
        c.suffix.reserve(tuple_count);
        c.norms.reserve(n);
        c.totals.reserve(n);
        c.sig_words.reserve(n * SIG_WORDS);
        c.min_weights.reserve(n);
        for (bounds, &norm) in offsets.windows(2).zip(&norms) {
            let set = &mut elements[bounds[0] as usize..bounds[1] as usize];
            set.sort_unstable_by_key(|&(rank, _)| rank);
            reject_duplicate_ranks(set)?;
            c.append_sorted(set.iter().copied(), norm);
        }
        Ok(c)
    }

    /// Append one set whose elements arrive ascending by rank and
    /// duplicate-free, computing every piece of derived per-set state.
    /// Returns the new set's group id. The one place the arena grows.
    fn append_sorted(&mut self, elems: impl IntoIterator<Item = (u32, Weight)>, norm: f64) -> u32 {
        let start = self.ranks.len();
        let mut signature = [0u64; SIG_WORDS];
        let mut min_weight: Option<Weight> = None;
        for (rank, w) in elems {
            self.ranks.push(rank);
            self.weights.push(w);
            set_signature_bit(&mut signature, rank);
            min_weight = Some(min_weight.map_or(w, |m| m.min(w)));
        }
        // Suffix cumulative weights by a reverse scan; the set total falls
        // out as suffix[start].
        self.suffix.resize(self.ranks.len(), Weight::ZERO);
        let mut acc = Weight::ZERO;
        for k in (start..self.ranks.len()).rev() {
            acc += self.weights[k];
            self.suffix[k] = acc;
        }
        let id = self.len() as u32;
        self.stats.record(id, &self.ranks[start..]);
        self.offsets.push(self.ranks.len() as u32);
        self.norms.push(norm);
        self.totals.push(acc);
        self.sig_words.extend_from_slice(&signature);
        self.min_weights.push(min_weight.unwrap_or(Weight::ZERO));
        self.norm_range = Some(match self.norm_range {
            None => (norm, norm),
            Some((lo, hi)) => (lo.min(norm), hi.max(norm)),
        });
        id
    }

    /// Append one set to the arena (same universe), computing the same
    /// derived state as [`SetCollection::from_flat`]. Elements may arrive in
    /// any order; they are sorted by rank. Returns the new set's group id.
    ///
    /// Unlike `from_flat` — whose callers (builder, deserialization) have
    /// already range-checked every rank — this path takes caller-supplied
    /// elements directly, so it additionally validates `rank <
    /// universe_size` (an out-of-range rank would overrun the inverted
    /// index's per-rank offset table).
    ///
    /// # Errors
    /// [`SsJoinError::InvalidInput`] on duplicate or out-of-range ranks;
    /// [`SsJoinError::TooManyElements`] / [`SsJoinError::TooManyGroups`] on
    /// `u32` arena or group-id overflow.
    pub(crate) fn push_set(&mut self, elements: &[(u32, Weight)], norm: f64) -> SsJoinResult<u32> {
        // Group ids must stay below the stamp sentinel (u32::MAX) the prefix
        // executors use, matching the builder's cap.
        if self.len() >= u32::MAX as usize {
            return Err(SsJoinError::TooManyGroups {
                relation: 0,
                groups: self.len() + 1,
            });
        }
        if self.ranks.len() + elements.len() > u32::MAX as usize {
            return Err(SsJoinError::TooManyElements {
                elements: self.ranks.len() + elements.len(),
            });
        }
        let mut elems = elements.to_vec();
        elems.sort_unstable_by_key(|&(rank, _)| rank);
        reject_duplicate_ranks(&elems)?;
        if let Some(&(rank, _)) = elems.last() {
            if rank as usize >= self.universe_size {
                return Err(SsJoinError::InvalidInput(format!(
                    "element rank {rank} is outside the universe of {} ranks",
                    self.universe_size
                )));
            }
        }
        Ok(self.append_sorted(elems, norm))
    }

    /// Append one set whose elements arrive already ascending by rank,
    /// duplicate-free, and inside the universe — exactly what the spill
    /// reader's frames store (partition sub-sets keep the parent arena's
    /// order under a monotone rank remap). Skips [`Self::push_set`]'s sort,
    /// validation, and temporary buffer; the preconditions are
    /// debug-asserted. Infallible because partition sub-arenas are subsets
    /// of a collection that already fit the `u32` offset/group space.
    pub(crate) fn push_set_presorted(
        &mut self,
        elem_ranks: &[u32],
        elem_weights: &[Weight],
        norm: f64,
    ) -> u32 {
        debug_assert_eq!(elem_ranks.len(), elem_weights.len());
        debug_assert!(elem_ranks.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(elem_ranks
            .last()
            .is_none_or(|&r| (r as usize) < self.universe_size));
        debug_assert!(self.len() < u32::MAX as usize);
        self.append_sorted(
            elem_ranks.iter().copied().zip(elem_weights.iter().copied()),
            norm,
        )
    }

    /// Reset this collection to an empty arena over a (possibly different)
    /// universe, keeping every pool's capacity. The spill path recycles two
    /// such collections across all partitions of a run so the warm
    /// read-back path stops allocating once the largest partition has been
    /// seen.
    pub(crate) fn reset_for_universe(&mut self, universe_size: usize, universe_tag: u64) {
        self.offsets.clear();
        self.offsets.push(0);
        self.ranks.clear();
        self.weights.clear();
        self.suffix.clear();
        self.norms.clear();
        self.totals.clear();
        self.sig_words.clear();
        self.min_weights.clear();
        self.universe_size = universe_size;
        self.universe_tag = universe_tag;
        self.norm_range = None;
        self.stats.reset(universe_size, universe_tag);
    }

    /// An empty collection sharing this one's element universe (size and
    /// tag), so sets appended with [`Self::push_set`] stay joinable against
    /// collections from the original builder run. Used by epoch compaction.
    pub(crate) fn empty_like(&self) -> Self {
        Self::empty(self.universe_size, self.universe_tag)
    }

    /// One set by group id, as a borrowed arena view.
    #[inline]
    pub fn set(&self, id: u32) -> SetRef<'_> {
        let i = id as usize;
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        SetRef {
            ranks: &self.ranks[lo..hi],
            weights: &self.weights[lo..hi],
            suffix: &self.suffix[lo..hi],
            norm: self.norms[i],
            total: self.totals[i],
            sig: &self.sig_words[i * SIG_WORDS..(i + 1) * SIG_WORDS],
            min_weight: self.min_weights[i],
        }
    }

    /// Iterate over all sets in group-id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = SetRef<'_>> {
        (0..self.len() as u32).map(|id| self.set(id))
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.norms.len()
    }

    /// True if there are no groups.
    pub fn is_empty(&self) -> bool {
        self.norms.is_empty()
    }

    /// Number of distinct element ranks in the universe this collection was
    /// built against.
    pub fn universe_size(&self) -> usize {
        self.universe_size
    }

    /// Total `(group, element)` tuples — the row count of the normalized
    /// relational representation (the "SSJoin input size" of Table 2).
    /// O(1): it is the arena length.
    pub fn tuple_count(&self) -> usize {
        self.ranks.len()
    }

    /// Smallest and largest norm across groups (used to lower-bound partner
    /// norms during prefix extraction). `None` when empty. Cached at
    /// construction — O(1).
    pub fn norm_range(&self) -> Option<(f64, f64)> {
        self.norm_range
    }

    pub(crate) fn universe_tag(&self) -> u64 {
        self.universe_tag
    }

    /// Catalog statistics for the cost-based planner: token-frequency
    /// histogram, set-length distribution, and the seeded selectivity
    /// sample. Maintained incrementally — O(1) to read at plan time.
    pub fn stats(&self) -> &CollectionStats {
        &self.stats
    }

    /// True when both collections come from the same builder run and thus
    /// share one element universe — the precondition for joining them.
    pub fn shares_universe(&self, other: &SetCollection) -> bool {
        self.universe_tag == other.universe_tag
    }
}

/// Test-only: a collection from per-set `(elements, norm)` lists, through
/// the flat constructor.
#[cfg(test)]
pub(crate) fn collection_from_sets(
    sets: Vec<(Vec<(u32, Weight)>, f64)>,
    universe_size: usize,
    universe_tag: u64,
) -> SsJoinResult<SetCollection> {
    let mut offsets = vec![0u32];
    let mut elements = Vec::new();
    let mut norms = Vec::new();
    for (elems, norm) in sets {
        elements.extend(elems);
        offsets.push(elements.len() as u32);
        norms.push(norm);
    }
    SetCollection::from_flat(offsets, elements, norms, universe_size, universe_tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(x: f64) -> Weight {
        Weight::from_f64(x)
    }

    fn collection(sets: &[&[(u32, f64)]]) -> SetCollection {
        collection_from_sets(
            sets.iter()
                .map(|elems| (elems.iter().map(|&(r, x)| (r, w(x))).collect(), 0.0))
                .collect(),
            64,
            0,
        )
        .unwrap()
    }

    #[test]
    fn construction_sorts() {
        let c = collection(&[&[(5, 1.0), (2, 1.0), (9, 1.0)]]);
        let s = c.set(0);
        assert_eq!(s.ranks(), &[2, 5, 9]);
        assert_eq!(s.total_weight(), w(3.0));
    }

    #[test]
    fn duplicate_ranks_rejected() {
        let r = collection_from_sets(vec![(vec![(1, w(1.0)), (1, w(1.0))], 0.0)], 64, 0);
        assert!(matches!(r, Err(SsJoinError::InvalidInput(_))), "{r:?}");
    }

    #[test]
    fn suffix_weights_precomputed() {
        let c = collection(&[&[(1, 1.0), (2, 2.0), (5, 0.5)], &[(0, 4.0)]]);
        let s = c.set(0);
        assert_eq!(s.suffix_weights(), &[w(3.5), w(2.5), w(0.5)]);
        assert_eq!(s.suffix_weight(0), s.total_weight());
        assert_eq!(s.suffix_weight(3), Weight::ZERO);
        assert_eq!(c.set(1).suffix_weights(), &[w(4.0)]);
        let e = collection(&[&[]]);
        assert_eq!(e.set(0).suffix_weight(0), Weight::ZERO);
    }

    #[test]
    fn overlap_merge() {
        let c = collection(&[
            &[(1, 1.0), (2, 2.0), (5, 0.5)],
            &[(2, 2.0), (3, 9.0), (5, 0.5)],
        ]);
        let (a, b) = (c.set(0), c.set(1));
        assert_eq!(a.overlap(b), w(2.5));
        assert_eq!(b.overlap(a), w(2.5));
        assert_eq!(a.overlap(a), a.total_weight());
    }

    #[test]
    fn overlap_disjoint_and_empty() {
        let c = collection(&[&[(1, 1.0)], &[(2, 1.0)], &[]]);
        let (a, b, e) = (c.set(0), c.set(1), c.set(2));
        assert_eq!(a.overlap(b), Weight::ZERO);
        assert_eq!(a.overlap(e), Weight::ZERO);
        assert_eq!(e.overlap(e), Weight::ZERO);
    }

    #[test]
    fn prefix_len_unweighted_matches_property8() {
        // Property 8: |s| = h, overlap >= k ⇒ the (h − k + 1)-prefix hits.
        // β = h − k, and with unit weights prefix_len = β + 1 = h − k + 1.
        let c = collection(&[&[(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0)]]);
        let s = c.set(0);
        let k = 4.0;
        let beta = s
            .total_weight()
            .saturating_sub(Weight::from_f64_threshold(k));
        assert_eq!(s.prefix_len(beta), 2); // h − k + 1 = 5 − 4 + 1
    }

    #[test]
    fn prefix_len_weighted() {
        let c = collection(&[&[(0, 5.0), (1, 1.0), (2, 1.0)]]);
        let s = c.set(0);
        // β = 0: the first element already exceeds it.
        assert_eq!(s.prefix_len(Weight::ZERO), 1);
        // β = 5.5: need first two elements (5 + 1 > 5.5).
        assert_eq!(s.prefix_len(w(5.5)), 2);
        // β beyond the total: whole set.
        assert_eq!(s.prefix_len(w(100.0)), 3);
    }

    #[test]
    fn prefix_len_empty_set() {
        let c = collection(&[&[]]);
        assert_eq!(c.set(0).prefix_len(Weight::ZERO), 0);
    }

    #[test]
    fn collection_accessors() {
        let c = collection(&[&[(0, 1.0), (1, 1.0)], &[(1, 1.0)]]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.tuple_count(), 3);
        assert_eq!(c.universe_size(), 64);
        assert_eq!(c.set(1).len(), 1);
        assert_eq!(c.iter().count(), 2);
        assert_eq!(c.iter().map(SetRef::len).sum::<usize>(), 3);
    }

    #[test]
    fn signature_and_min_weight_cached() {
        let c = collection(&[&[(1, 2.0), (7, 0.5), (40, 1.0)], &[]]);
        let s = c.set(0);
        assert_ne!(s.signature(), 0);
        assert!(s.signature().count_ones() as usize <= s.len());
        assert_eq!(s.min_element_weight(), w(0.5));
        let e = c.set(1);
        assert_eq!(e.signature(), 0);
        assert_eq!(e.min_element_weight(), Weight::ZERO);
    }

    #[test]
    fn bitmap_bound_never_below_overlap() {
        // The bound must dominate the exact overlap for arbitrary set pairs.
        let mk = |seed: u32, n: u32| -> Vec<(u32, Weight)> {
            (0..n)
                .map(|i| {
                    let rank = (seed.wrapping_mul(31).wrapping_add(i * 17)) % 97;
                    (rank, 0.5 + f64::from((rank * 7) % 5))
                })
                .collect::<std::collections::HashMap<u32, f64>>()
                .into_iter()
                .map(|(r, x)| (r, w(x)))
                .collect()
        };
        for a_seed in 0..12u32 {
            for b_seed in 0..12u32 {
                let c = collection_from_sets(
                    vec![
                        (mk(a_seed, 3 + a_seed % 9), 0.0),
                        (mk(b_seed, 3 + b_seed % 9), 0.0),
                    ],
                    97,
                    0,
                )
                .unwrap();
                let (a, b) = (c.set(0), c.set(1));
                let exact = a.overlap(b);
                let bound = a.bitmap_overlap_bound(b);
                assert!(
                    bound >= exact,
                    "bound {bound} < exact {exact} (seeds {a_seed},{b_seed})"
                );
            }
        }
    }

    #[test]
    fn bitmap_bound_prunes_disjoint_sets() {
        // Fully disjoint signatures with unit weights: the bound collapses
        // toward zero, far below the sets' totals.
        let c = collection(&[
            &[(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)],
            &[(60, 1.0), (61, 1.0), (62, 1.0), (63, 1.0)],
        ]);
        let (a, b) = (c.set(0), c.set(1));
        let bound = a.bitmap_overlap_bound(b);
        assert!(bound < a.total_weight());
        assert!(bound >= a.overlap(b));
    }

    #[test]
    fn bitmap_bound_identical_sets_is_total() {
        let c = collection(&[&[(3, 1.5), (9, 2.0)]]);
        let a = c.set(0);
        assert_eq!(a.bitmap_overlap_bound(a), a.total_weight());
    }

    #[test]
    fn signature_width_accessors() {
        for width in SignatureWidth::ALL {
            assert_eq!(width.bits(), width.words() * 64);
            assert_eq!(SignatureWidth::from_words(width.words()), Some(width));
            assert!(
                SIG_WORDS.is_multiple_of(width.words()),
                "width must divide storage"
            );
        }
        assert_eq!(SignatureWidth::from_words(3), None);
        assert_eq!(SignatureWidth::default(), SignatureWidth::W1);
        assert_eq!(SignatureWidth::W4.name(), "w4");
        assert_eq!(SignatureWidth::W2.to_string(), "2x64-bit");
    }

    #[test]
    fn wide_bound_never_below_overlap_at_any_width() {
        // The folded bound must dominate the exact overlap for arbitrary
        // set pairs at every supported width.
        let mk = |seed: u32, n: u32| -> Vec<(u32, Weight)> {
            (0..n)
                .map(|i| {
                    let rank = (seed.wrapping_mul(31).wrapping_add(i * 17)) % 97;
                    (rank, 0.5 + f64::from((rank * 7) % 5))
                })
                .collect::<std::collections::HashMap<u32, f64>>()
                .into_iter()
                .map(|(r, x)| (r, w(x)))
                .collect()
        };
        for a_seed in 0..12u32 {
            for b_seed in 0..12u32 {
                let c = collection_from_sets(
                    vec![
                        (mk(a_seed, 3 + a_seed % 9), 0.0),
                        (mk(b_seed, 3 + b_seed % 9), 0.0),
                    ],
                    97,
                    0,
                )
                .unwrap();
                let (a, b) = (c.set(0), c.set(1));
                let exact = a.overlap(b);
                for width in SignatureWidth::ALL {
                    let bound = a.wide_overlap_bound(b, width);
                    assert!(
                        bound >= exact,
                        "{width} bound {bound} < exact {exact} (seeds {a_seed},{b_seed})"
                    );
                }
            }
        }
    }

    #[test]
    fn wide_bound_tightens_monotonically_with_width() {
        // Folding fewer words keeps more distinct positions: every "only in
        // r" bit at width k maps to a distinct "only in r" bit at width 2k,
        // so the bound can only shrink (or stay) as the width grows.
        let mk = |seed: u32| -> Vec<(u32, Weight)> {
            (0..10u32)
                .map(|i| ((seed.wrapping_mul(13).wrapping_add(i * 29)) % 211, w(1.0)))
                .collect::<std::collections::HashMap<u32, Weight>>()
                .into_iter()
                .collect()
        };
        for seed in 0..20u32 {
            let c =
                collection_from_sets(vec![(mk(seed), 0.0), (mk(seed + 7), 0.0)], 211, 0).unwrap();
            let (a, b) = (c.set(0), c.set(1));
            let bounds: Vec<Weight> = SignatureWidth::ALL
                .iter()
                .map(|&k| a.wide_overlap_bound(b, k))
                .collect();
            for pair in bounds.windows(2) {
                assert!(
                    pair[1] <= pair[0],
                    "widening loosened the bound: {bounds:?}"
                );
            }
        }
    }

    #[test]
    fn wide_bound_empty_sets_is_zero() {
        // An empty side has total weight zero, so the bound collapses to
        // zero at every width — empty sets can never survive a positive
        // threshold.
        let c = collection(&[&[], &[(1, 2.0), (5, 1.0)]]);
        let (e, a) = (c.set(0), c.set(1));
        for width in SignatureWidth::ALL {
            assert_eq!(e.wide_overlap_bound(e, width), Weight::ZERO);
            assert_eq!(e.wide_overlap_bound(a, width), Weight::ZERO);
            assert_eq!(a.wide_overlap_bound(e, width), Weight::ZERO);
        }
    }

    #[test]
    fn wide_bound_identical_signatures_is_total() {
        // Identical sets have identical signatures at every width, so no
        // "only" bits survive and the bound is the full total — the filter
        // never prunes an exact duplicate.
        let c = collection(&[&[(3, 1.5), (9, 2.0), (77, 0.25)]]);
        let a = c.set(0);
        for width in SignatureWidth::ALL {
            assert_eq!(a.wide_overlap_bound(a, width), a.total_weight());
        }
    }

    #[test]
    fn wide_bound_fully_disjoint_signatures_collapses() {
        // Unit weights and signature-disjoint sets: every element certifies
        // one absence, so the bound drops to zero at the stored width.
        let c = collection(&[
            &[(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)],
            &[(60, 1.0), (61, 1.0), (62, 1.0), (63, 1.0)],
        ]);
        let (a, b) = (c.set(0), c.set(1));
        let disjoint = a
            .signature_words()
            .iter()
            .zip(b.signature_words())
            .all(|(&x, &y)| x & y == 0);
        assert!(disjoint, "chosen ranks must hash to disjoint positions");
        let per_bit = a
            .signature_words()
            .iter()
            .map(|w| w.count_ones())
            .sum::<u32>() as usize;
        assert_eq!(per_bit, a.len(), "no intra-set collisions expected");
        assert_eq!(a.wide_overlap_bound(b, SignatureWidth::W8), Weight::ZERO);
        // Every width still dominates the (zero) exact overlap.
        for width in SignatureWidth::ALL {
            assert!(a.wide_overlap_bound(b, width) >= a.overlap(b));
        }
    }

    #[test]
    fn wide_bound_exactly_at_threshold_is_kept() {
        // Executors prune on `bound < required` (strictly below): a bound
        // exactly at the limit must survive the filter, because the exact
        // overlap may equal it. Identical sets make this sharp: bound ==
        // exact overlap == total, so with required == total the filter must
        // keep the pair and verification accepts it at the limit.
        let c = collection(&[&[(2, 0.75), (11, 1.25), (40, 3.0)]]);
        let a = c.set(0);
        let required = a.total_weight();
        for width in SignatureWidth::ALL {
            let bound = a.wide_overlap_bound(a, width);
            assert_eq!(bound, required, "{width}");
            // Written as the executors' prune test: `bound < required`
            // must be false for the at-limit pair.
            let prunes = bound < required;
            assert!(!prunes, "at-limit bound must not be pruned");
            // One raw tick above the total, the prune fires — and is sound,
            // because the exact overlap (== total) also fails the predicate.
            let above = Weight::from_raw(required.raw() + 1);
            assert!(bound < above);
            assert!(a.overlap(a) < above);
        }
    }

    #[test]
    fn norm_range_cached() {
        let mk = |n: f64| (vec![(0u32, Weight::ONE)], n);
        let c = collection_from_sets(vec![mk(3.0), mk(1.0), mk(2.0)], 1, 0).unwrap();
        assert_eq!(c.norm_range(), Some((1.0, 3.0)));
        let empty = collection_from_sets(vec![], 0, 0).unwrap();
        assert_eq!(empty.norm_range(), None);
    }

    #[test]
    fn set_ref_equality_is_structural() {
        let c1 = collection(&[&[(1, 1.0), (4, 2.0)]]);
        let c2 = collection(&[&[(1, 1.0), (4, 2.0)], &[(1, 1.0), (4, 2.5)]]);
        assert_eq!(c1.set(0), c2.set(0));
        assert_ne!(c1.set(0), c2.set(1));
    }
}
