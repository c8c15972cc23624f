//! Subset exploration: which subsets of a workload's programs are (maximally) robust.
//!
//! Section 7.2 of the paper reports, for every benchmark and setting, the *maximal* subsets of
//! transaction programs that the respective test attests robust (Figures 6 and 7). This module
//! reproduces that exploration on top of the [`RobustnessSession`]: one cached summary graph
//! per settings combination, one cheap induced view per tested subset, and — by default —
//! **closure pruning** (Proposition 5.2): robustness is preserved under taking subsets, so a
//! mask with a robust one-bit superset is robust, and (the contrapositive) a mask with a
//! non-robust one-bit subset is not. Either is decided without running its cycle test.
//!
//! # Two-ended level order
//!
//! A popcount level is swept only once an adjacent level is *complete* (every verdict final),
//! and its masks inherit only from complete levels. The sweep keeps the open levels as one
//! contiguous range and each step sweeps either its highest level (inheriting robustness from
//! the level above) or its lowest (inheriting non-robustness from the level below), whichever
//! has fewer masks left to test; ties go to the top, so a fully robust workload costs one
//! cycle test. The last open level inherits from both sides. A mostly robust workload is thus
//! decided from the top down, a mostly non-robust one from the bottom up. The order is a pure
//! function of the verdicts, which is what lets [`RankRangeSweep::counters_as_fresh`] replay
//! it from the final verdict bits alone.
//!
//! # Streaming level traversal
//!
//! Each popcount level is swept as a parallel fold over the *rank space* `0..C(n, k)` of its
//! `k`-subsets: the `mvrc-par` runtime splits the rank range lazily across its workers, each
//! chunk positions a cursor by colexicographic unranking (the combinatorial number system) and
//! then walks masks in numerically increasing order with Gosper's hack. No level is ever
//! collected into a `Vec` — peak memory is one small accumulator per active chunk,
//! O(workers × chunk state), independent of the level size ([`SubsetExploration::masks_buffered`]
//! makes this observable). The pre-runtime level-materializing traversal is retained behind
//! [`SweepStrategy::Materialized`] as a cross-check oracle.

use crate::algorithm::{is_robust, is_robust_view};
use crate::kernels;
use crate::session::RobustnessSession;
use crate::settings::AnalysisSettings;
use crate::summary::{NodeId, SummaryGraph};
use mvrc_btp::LinearProgram;
use mvrc_par::{fold_chunks, Parallelism, WorkerLocal};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// How a popcount level of the sweep is traversed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SweepStrategy {
    /// Stream the level as lazily split rank ranges (colex unranking + Gosper successor):
    /// nothing is materialized, peak memory is O(workers × chunk).
    #[default]
    Streamed,
    /// Materialize the level's masks into a `Vec` before fanning out — the pre-runtime
    /// behaviour, kept as the oracle the streamed path is cross-checked against.
    Materialized,
    /// Drive each level through an eagerly planned [`ShardSpec`] partition — the same work
    /// description the `mvrc-dist` coordinator fans out to worker *processes* — executed
    /// in-process over the pool. Cross-checked against [`SweepStrategy::Streamed`] and
    /// [`SweepStrategy::Materialized`] so the distributed protocol rides on a plan shape the
    /// oracles validate.
    Sharded,
}

/// Which per-mask decision kernel [`RankRangeSweep::run_shard`] uses.
///
/// Verdicts and counters are identical under either kernel (cross-checked in the test-suite
/// and by the `mvrc-dist` merge byte-identity tests); the choice is purely a performance
/// knob, with [`SweepKernel::Scalar`] retained as the oracle the bit-sliced path is checked
/// against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SweepKernel {
    /// One induced view and one scalar cycle test per subset.
    Scalar,
    /// Pack up to 64 undecided masks of a level into `u64` lanes and decide them with one
    /// lane-parallel traversal of the shared graph (the private `kernels` module docs
    /// describe the membership-word encoding and the within-level pruning-soundness
    /// argument).
    #[default]
    BitSliced,
}

impl SweepKernel {
    /// Parses the CLI spelling (`scalar` / `bitsliced`).
    pub fn parse(s: &str) -> Option<SweepKernel> {
        match s {
            "scalar" => Some(SweepKernel::Scalar),
            "bitsliced" => Some(SweepKernel::BitSliced),
            _ => None,
        }
    }

    /// The CLI spelling (`scalar` / `bitsliced`), inverse of [`SweepKernel::parse`].
    pub fn name(self) -> &'static str {
        match self {
            SweepKernel::Scalar => "scalar",
            SweepKernel::BitSliced => "bitsliced",
        }
    }
}

/// Options controlling the subset exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExploreOptions {
    /// The sweep runs serially when the total number of subsets (`2^n`) is below this
    /// threshold and fans out across the `mvrc-par` pool otherwise. Below the default of 64
    /// subsets the whole sweep takes microseconds and fan-out would dominate.
    pub parallel_threshold: usize,
    /// Exploit Proposition 5.2 in both directions, sweeping the levels in the two-ended order
    /// of the module docs: a mask with a robust one-bit superset is robust, a mask with a
    /// non-robust one-bit subset is not, and neither runs its cycle test. Exact — the
    /// attested-robust family is downward closed because an induced subgraph can only lose
    /// cycles — and cross-checked against the exhaustive path in the test-suite. When off,
    /// every mask is tested.
    pub closure_pruning: bool,
    /// Level traversal: streamed rank ranges (default) or the materializing oracle.
    pub strategy: SweepStrategy,
    /// Reuse (and update) the session's [`CachedSweep`] for these settings: verdicts of the
    /// last completed sweep are rebased onto the current program set — after
    /// [`RobustnessSession::remove_program`] every surviving subset keeps its verdict verbatim
    /// (zero cycle tests), after [`RobustnessSession::add_program`] only subsets containing
    /// the new program are swept. Off by default so benchmarks and oracles always measure a
    /// full sweep. (Not serialized: reuse is an execution detail; the result records it in
    /// [`SubsetExploration::reused`].)
    #[serde(skip)]
    pub incremental: bool,
    /// [`ExploreOptions::incremental`] is ignored when the total number of subsets (`2^n`) is
    /// below this floor: the sweep runs fresh and installs no cache entry. The rebase
    /// bookkeeping (program fingerprints, verdict rebasing, cache installation) costs more than
    /// simply re-testing a handful of subsets — on two-program workloads it made incremental
    /// edits *slower* than fresh sweeps. Set to `0` to force incremental behavior regardless of
    /// size. (Not serialized, like `incremental` itself.)
    #[serde(skip, default = "default_incremental_min_subsets")]
    pub incremental_min_subsets: usize,
    /// How much of the pool the sweep may use. [`Parallelism::Auto`] defers to the session's
    /// [`RobustnessSession::parallelism`] setting; any other value overrides it for this call.
    /// (Not serialized: a thread cap is an execution detail, not part of the result's shape.)
    #[serde(skip)]
    pub parallelism: Parallelism,
    /// The per-mask decision kernel. `None` (the default) defers to the session's
    /// [`RobustnessSession::sweep_kernel`] pin, itself defaulting to
    /// [`SweepKernel::BitSliced`]; `Some` overrides it for this call. (Not serialized:
    /// verdicts are kernel-independent, so the kernel is an execution detail.)
    #[serde(skip)]
    pub kernel: Option<SweepKernel>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            parallel_threshold: 64,
            closure_pruning: true,
            strategy: SweepStrategy::Streamed,
            incremental: false,
            incremental_min_subsets: default_incremental_min_subsets(),
            parallelism: Parallelism::Auto,
            kernel: None,
        }
    }
}

fn default_incremental_min_subsets() -> usize {
    16
}

/// Result of exploring all subsets of a workload's programs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubsetExploration {
    /// The program names, in workload order; subsets are index sets into this list.
    pub programs: Vec<String>,
    /// The analysis settings used.
    pub settings: AnalysisSettings,
    /// Every subset (as sorted index vectors) attested robust.
    pub robust: Vec<Vec<usize>>,
    /// The maximal robust subsets (no robust strict superset exists).
    pub maximal: Vec<Vec<usize>>,
    /// Number of cycle tests actually run (`2^n - 1` minus the subsets decided by pruning or
    /// reuse).
    pub cycle_tests: usize,
    /// Number of subsets decided by Proposition 5.2 alone: inherited robust from a robust
    /// one-bit superset or inherited non-robust from a non-robust one-bit subset.
    pub pruned: usize,
    /// Number of subsets whose verdict was adopted from a previous sweep without being visited
    /// at all ([`ExploreOptions::incremental`]); `0` on a fresh sweep. Every non-empty subset
    /// is accounted for exactly once: `cycle_tests + pruned + reused == 2^n - 1`.
    pub reused: usize,
    /// Number of level masks that were materialized into buffers before testing: `0` on the
    /// streamed path (the acceptance gauge for "no level is collected into a `Vec`"), the sum
    /// of the level sizes under [`SweepStrategy::Materialized`].
    pub masks_buffered: usize,
}

impl SubsetExploration {
    /// Renders a subset like the paper does, e.g. `{OS, Pay, SL}`, using the provided
    /// abbreviation function.
    pub fn render_subset(&self, subset: &[usize], abbreviate: impl Fn(&str) -> String) -> String {
        let names: Vec<String> = subset
            .iter()
            .map(|&i| abbreviate(&self.programs[i]))
            .collect();
        format!("{{{}}}", names.join(", "))
    }

    /// Renders the maximal robust subsets as a comma-separated list, e.g.
    /// `{Am, DC, TS}, {Bal, DC}, {Bal, TS}`.
    pub fn render_maximal(&self, abbreviate: impl Fn(&str) -> String) -> String {
        let mut rendered: Vec<String> = self
            .maximal
            .iter()
            .map(|s| self.render_subset(s, &abbreviate))
            .collect();
        rendered.sort_by_key(|s| (usize::MAX - s.matches(',').count(), s.clone()));
        rendered.join(", ")
    }

    /// Returns `true` if the given set of program names (in any order) is among the maximal
    /// robust subsets.
    pub fn is_maximal_robust(&self, names: &[&str]) -> bool {
        let mut indices: Vec<usize> = names
            .iter()
            .filter_map(|n| self.programs.iter().position(|p| p == n))
            .collect();
        indices.sort_unstable();
        indices.len() == names.len() && self.maximal.contains(&indices)
    }
}

/// Pascal's triangle up to `C(n, k)` for `n ≤ 20`: the rank arithmetic of the streamed
/// traversal (level sizes, colex unranking). Lives on the stack (3.5 KiB) so opening one
/// costs no allocation per sweep.
struct Binomials {
    n: usize,
    choose: [[usize; 21]; 21],
}

impl Binomials {
    fn new(n: usize) -> Self {
        // Unreachable through `explore_subsets*` (which bound n at 20 first); a hard assert
        // so any future caller fails loudly instead of indexing out of bounds.
        assert!(n <= 20, "Binomials supports n <= 20, got {n}");
        let mut choose = [[0usize; 21]; 21];
        for row in 0..=n {
            choose[row][0] = 1;
            for col in 1..=row {
                let above = if col < row { choose[row - 1][col] } else { 0 };
                choose[row][col] = choose[row - 1][col - 1] + above;
            }
        }
        Binomials { n, choose }
    }

    #[inline]
    fn c(&self, n: usize, k: usize) -> usize {
        if k > n {
            0
        } else {
            self.choose[n][k]
        }
    }
}

/// The `rank`-th `k`-subset mask of `0..n` in colexicographic order — which coincides with
/// increasing numeric order of the masks, so [`next_same_popcount`] is its successor function.
/// Combinatorial number system: pick the largest `c` with `C(c, i) ≤ rank` for `i = k..1`.
fn unrank_colex(mut rank: usize, k: usize, binomials: &Binomials) -> usize {
    let mut mask = 0usize;
    let mut c = binomials.n;
    for i in (1..=k).rev() {
        while binomials.c(c, i) > rank {
            c -= 1;
        }
        mask |= 1 << c;
        rank -= binomials.c(c, i);
    }
    mask
}

/// Gosper's hack: the numerically next mask with the same popcount.
#[inline]
fn next_same_popcount(mask: usize) -> usize {
    let lowest = mask & mask.wrapping_neg();
    let ripple = mask + lowest;
    ripple | (((mask ^ ripple) / lowest) >> 2)
}

/// `LEVEL_POSITIONS[j]` has bit `p` set iff position `p` of a 64-mask verdict word has `j`
/// set bits: the masks of word `w` at level `k` are `LEVEL_POSITIONS[k - popcount(w)]`.
const LEVEL_POSITIONS: [u64; 7] = {
    let mut table = [0u64; 7];
    let mut p = 0;
    while p < 64 {
        table[(p as u64).count_ones() as usize] |= 1 << p;
        p += 1;
    }
    table
};

/// `BIT_CLEAR[i]` has bit `p` set iff bit `i` of position `p` is clear, for the mask bits
/// `i < 6` that address a position inside a verdict word.
const BIT_CLEAR: [u64; 6] = [
    0x5555_5555_5555_5555,
    0x3333_3333_3333_3333,
    0x0F0F_0F0F_0F0F_0F0F,
    0x00FF_00FF_00FF_00FF,
    0x0000_FFFF_0000_FFFF,
    0x0000_0000_FFFF_FFFF,
];

/// What Proposition 5.2 decides for the masks of one popcount level inside one verdict word
/// ([`RankRangeSweep::inherited`]). `robust` and `non_robust` are disjoint subsets of `level`.
#[derive(Debug, Clone, Copy, Default)]
struct Inherited {
    /// The level's masks in this word.
    level: u64,
    /// Masks with a robust one-bit superset (read only when the level above is complete).
    robust: u64,
    /// Masks with a non-robust one-bit subset (read only when the level below is complete).
    non_robust: u64,
}

/// The two-ended level order of the module docs: the open levels are `lo..=hi`; each step
/// sweeps `hi` or `lo`, whichever has fewer masks left to test (ties to `hi`). A frontier
/// level's count is taken once and cached until that end moves: it reads only the complete
/// level beyond it, which no later step changes.
struct LevelOrder {
    lo: usize,
    hi: usize,
    top: Option<usize>,
    bottom: Option<usize>,
}

impl LevelOrder {
    fn new(n: usize) -> Self {
        LevelOrder {
            lo: 1,
            hi: n,
            top: None,
            bottom: None,
        }
    }

    /// The next level to sweep, given `tests(level)`: the cycle tests the level needs now.
    /// The caller must mark the returned level complete before asking again.
    fn next(&mut self, tests: impl Fn(usize) -> usize) -> Option<usize> {
        if self.lo > self.hi {
            return None;
        }
        if self.lo < self.hi {
            let top = *self.top.get_or_insert_with(|| tests(self.hi));
            let bottom = *self.bottom.get_or_insert_with(|| tests(self.lo));
            if bottom < top {
                self.lo += 1;
                self.bottom = None;
                return Some(self.lo - 1);
            }
        }
        self.hi -= 1;
        self.top = None;
        Some(self.hi + 1)
    }
}

/// One shard of a popcount level: the contiguous slice `rank_start..rank_end` of the
/// colexicographic rank space `0..C(n, level)` of the `level`-subsets.
///
/// A `ShardSpec` is the *work description* of the sweep: in-process,
/// [`SweepStrategy::Sharded`] folds a planned list of them over the `mvrc-par` pool; across
/// processes, the `mvrc-dist` coordinator fans the same specs out to worker processes. Either
/// way, [`RankRangeSweep::run_shard`] executes one spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ShardSpec {
    /// Popcount of the masks this shard covers (the sweep level).
    pub level: usize,
    /// First colexicographic rank covered (inclusive).
    pub rank_start: usize,
    /// One past the last rank covered (exclusive).
    pub rank_end: usize,
}

impl ShardSpec {
    /// Number of masks the shard covers.
    #[inline]
    pub fn len(&self) -> usize {
        self.rank_end.saturating_sub(self.rank_start)
    }

    /// `true` when the shard covers no masks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rank_end <= self.rank_start
    }
}

/// Work counters produced by sweeping one or more shards: how many cycle tests ran and how
/// many masks were decided by Proposition 5.2 alone. Summing the counters of a partition of a
/// level reproduces the single-sweep accounting exactly (each mask is visited by exactly one
/// shard, and the inherit-or-test decision depends only on the fully merged verdicts of the
/// complete adjacent levels).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardCounters {
    /// Number of cycle tests actually run.
    pub cycle_tests: usize,
    /// Number of masks decided by Proposition 5.2 without a cycle test, in either direction
    /// (robust from a robust one-bit superset, non-robust from a non-robust one-bit subset).
    pub pruned: usize,
}

impl ShardCounters {
    /// Component-wise sum of two counter sets.
    #[must_use]
    pub fn merged(self, other: ShardCounters) -> ShardCounters {
        ShardCounters {
            cycle_tests: self.cycle_tests + other.cycle_tests,
            pruned: self.pruned + other.pruned,
        }
    }
}

/// `C(n, level)`: the number of masks on a popcount level, i.e. the size of the rank space
/// [`ShardSpec`]s partition. Supports `n ≤ 20` (the sweep's own bound).
pub fn level_size(n: usize, level: usize) -> usize {
    Binomials::new(n).c(n, level)
}

/// Partitions the rank space `0..C(n, level)` into at most `shards` contiguous, non-empty,
/// near-equal [`ShardSpec`]s (sizes differ by at most one). Returns an empty plan for an
/// empty level.
pub fn plan_level_shards(n: usize, level: usize, shards: usize) -> Vec<ShardSpec> {
    let size = level_size(n, level);
    if size == 0 {
        return Vec::new();
    }
    let shards = shards.clamp(1, size);
    (0..shards)
        .map(|s| ShardSpec {
            level,
            rank_start: size * s / shards,
            rank_end: size * (s + 1) / shards,
        })
        .collect()
}

/// Partitions a set of disjoint, ascending rank ranges at one level into at most `shards`
/// contiguous, non-empty [`ShardSpec`]s of near-equal total size. Chunks that straddle a gap
/// between ranges are split at the gap, so the spec count can exceed `shards` by at most the
/// number of ranges. With a single range `(0, C(n, level))` this reproduces
/// [`plan_level_shards`] exactly.
pub fn plan_range_shards(level: usize, ranges: &[(usize, usize)], shards: usize) -> Vec<ShardSpec> {
    let total: usize = ranges.iter().map(|(s, e)| e.saturating_sub(*s)).sum();
    if total == 0 {
        return Vec::new();
    }
    let shards = shards.clamp(1, total);
    let mut specs = Vec::new();
    for s in 0..shards {
        // The s-th near-equal chunk of the *virtual* concatenated rank space, mapped back
        // onto the real ranges (one spec per overlapped range).
        let (virt_start, virt_end) = (total * s / shards, total * (s + 1) / shards);
        let mut offset = 0usize;
        for &(start, end) in ranges {
            let len = end - start;
            let lo = virt_start.max(offset);
            let hi = virt_end.min(offset + len);
            if lo < hi {
                specs.push(ShardSpec {
                    level,
                    rank_start: start + (lo - offset),
                    rank_end: start + (hi - offset),
                });
            }
            offset += len;
        }
    }
    specs
}

/// The maximal contiguous runs of *undecided* ranks at one popcount level: walks the level's
/// masks in colexicographic rank order and collects the ranges whose bit in `decided` is
/// clear. `decided` uses the sweep's verdict-bitset addressing (mask `m` at bit `m % 64` of
/// word `m / 64`). With an all-zero `decided` this is the single run `(0, C(n, level))`.
pub fn undecided_level_runs(n: usize, level: usize, decided: &[u64]) -> Vec<(usize, usize)> {
    let binomials = Binomials::new(n);
    let size = binomials.c(n, level);
    let mut runs: Vec<(usize, usize)> = Vec::new();
    if size == 0 {
        return runs;
    }
    let mut mask = unrank_colex(0, level, &binomials);
    let mut open: Option<usize> = None;
    for rank in 0..size {
        let is_decided = decided[mask / 64] & (1u64 << (mask % 64)) != 0;
        match (is_decided, open) {
            (false, None) => open = Some(rank),
            (true, Some(start)) => {
                runs.push((start, rank));
                open = None;
            }
            _ => {}
        }
        if rank + 1 < size {
            mask = next_same_popcount(mask);
        }
    }
    if let Some(start) = open {
        runs.push((start, size));
    }
    runs
}

/// The verdicts of one completed subset sweep, as stored in a session's sweep cache: the
/// program list the mask bits refer to (bit `i` ⇔ `programs[i]`), the structural
/// [fingerprint](crate::program_fingerprint) of each program's LTP set, and the full robust
/// bitset (mask `m` robust ⇔ bit `m % 64` of word `m / 64`).
///
/// A cached sweep is *self-describing*: it carries its own program identities, so it stays in
/// the cache untouched across [`RobustnessSession::add_program`] /
/// [`RobustnessSession::remove_program`] chains and is rebased onto the session's current
/// program set only when the next incremental sweep runs ([`rebase_cached_sweep`]).
/// Verdicts are independent of the pruning switch and the [`SweepStrategy`] (cross-checked in
/// the test-suite), so one cache entry per [`AnalysisSettings`] combination suffices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedSweep {
    /// The program names the mask bits refer to, in mask-bit order.
    pub programs: Vec<String>,
    /// Structural fingerprint of each program's unfolded LTP set, aligned with `programs`.
    pub program_fingerprints: Vec<u64>,
    /// The robust-verdict bitset over all `2^programs.len()` masks (`⌈2^n / 64⌉` words).
    pub robust: Vec<u64>,
}

impl CachedSweep {
    /// Number of `u64` words the bitsets of a sweep over `n` programs need.
    pub fn word_count_for(n: usize) -> usize {
        (1usize << n).div_ceil(64)
    }
}

/// Verdicts carried into a sweep from a previous run: the robust bits to adopt and the
/// `decided` bitset saying which masks already have a verdict (robust or not) and must not be
/// re-tested. Produced by [`rebase_cached_sweep`]; consumed by [`RankRangeSweep::apply_seed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSeed {
    /// Robust bits to adopt (a subset of `decided`).
    pub robust: Vec<u64>,
    /// Masks with a known verdict; the sweep visits only the complement.
    pub decided: Vec<u64>,
    /// Number of non-empty masks in `decided` — the [`SubsetExploration::reused`] count.
    pub reused: usize,
}

/// Rebases a [`CachedSweep`] onto the current program set, yielding the [`SweepSeed`] of
/// verdicts that carry over. Programs are matched by *(name, structural fingerprint)* — a
/// same-named program whose body changed is treated as removed-and-re-added, so its subsets
/// are re-swept.
///
/// Soundness: a subset verdict depends only on the induced subgraph over the subset's LTP
/// nodes, and Algorithm 1 edges are pairwise — edits only add or drop rows touching edited
/// programs, so the induced subgraph over any surviving subset is *equal* before and after
/// the edit and its verdict transfers verbatim. Concretely, every old mask using only
/// surviving programs is re-numbered into the new bit order (a pure mask compaction after
/// removals, a bit expansion after additions); masks containing an added program are left
/// undecided. Returns `None` when nothing carries over (no surviving program, or the word
/// sizes are inconsistent).
pub fn rebase_cached_sweep(
    cached: &CachedSweep,
    programs: &[String],
    program_fingerprints: &[u64],
) -> Option<SweepSeed> {
    let old_n = cached.programs.len();
    assert_eq!(
        cached.programs.len(),
        cached.program_fingerprints.len(),
        "cached sweep program/fingerprint length mismatch"
    );
    assert_eq!(
        programs.len(),
        program_fingerprints.len(),
        "program/fingerprint length mismatch"
    );
    if old_n > 20
        || programs.len() > 20
        || cached.robust.len() != CachedSweep::word_count_for(old_n)
    {
        return None;
    }
    // Old bit index -> new bit index for programs surviving the edit (matched by name *and*
    // structural fingerprint).
    let mapping: Vec<Option<usize>> = cached
        .programs
        .iter()
        .zip(&cached.program_fingerprints)
        .map(|(name, fp)| {
            programs
                .iter()
                .zip(program_fingerprints)
                .position(|(n, f)| n == name && f == fp)
        })
        .collect();
    if !mapping.iter().any(Option::is_some) {
        return None;
    }
    let words = CachedSweep::word_count_for(programs.len());
    let mut seed = SweepSeed {
        robust: vec![0u64; words],
        decided: vec![0u64; words],
        reused: 0,
    };
    'masks: for mask in 1usize..(1 << old_n) {
        let mut new_mask = 0usize;
        for (i, target) in mapping.iter().enumerate() {
            if mask & (1 << i) != 0 {
                match target {
                    Some(j) => new_mask |= 1 << j,
                    // The mask uses a program that did not survive: nothing to carry over.
                    None => continue 'masks,
                }
            }
        }
        seed.decided[new_mask / 64] |= 1u64 << (new_mask % 64);
        seed.reused += 1;
        if cached.robust[mask / 64] & (1u64 << (mask % 64)) != 0 {
            seed.robust[new_mask / 64] |= 1u64 << (new_mask % 64);
        }
    }
    Some(seed)
}

/// The resumable core of the subset sweep: a session-backed cycle tester over the shared
/// summary graph plus the atomic verdict bitset, addressed by [`ShardSpec`] rank ranges.
///
/// This is the public entry point the distributed shard workers of `mvrc-dist` drive — and
/// what every [`SweepStrategy`] of [`explore_subsets_with`] runs on in-process. The split
/// into `run_shard` calls is *invisible in the result*: verdicts are deterministic per mask,
/// and the pruning decision for a mask only reads the (fully published) verdicts of the
/// adjacent levels its driver marked complete ([`mark_level_complete`](Self::mark_level_complete)),
/// so any partition of a level — chunks, shards, processes — produces identical verdict bits
/// and identical summed [`ShardCounters`].
///
/// External verdicts (e.g. the merged bits of other worker processes) are folded in through
/// [`or_verdict_words`](Self::or_verdict_words); [`verdict_words`](Self::verdict_words)
/// exposes the current bitset for persistence (64 masks per word, mask `m` at bit `m % 64` of
/// word `m / 64`).
pub struct RankRangeSweep {
    graph: std::sync::Arc<SummaryGraph>,
    settings: AnalysisSettings,
    closure_pruning: bool,
    programs: Vec<String>,
    nodes_per_program: Vec<Vec<NodeId>>,
    binomials: Binomials,
    bits: Vec<AtomicU64>,
    /// Masks whose verdict was adopted from a seed ([`Self::apply_seed`]): visited shards skip
    /// them without a cycle test or a pruning decision. `None` on a fresh sweep.
    decided: Option<Vec<u64>>,
    /// Bit `k` set once level `k` is complete ([`Self::mark_level_complete`]): only complete
    /// levels feed Proposition 5.2 inheritance.
    complete: u32,
    /// The per-mask decision kernel ([`Self::with_kernel`]).
    kernel: SweepKernel,
}

/// Per-worker sweep temporaries: the induced-view member buffer of the scalar kernel, the
/// pending-mask batch and the lane matrices of the bit-sliced kernel. One slot per pool
/// worker (plus a thread-local for non-pool callers), so sharded sweeps with many small
/// shards stop churning allocations.
#[derive(Default)]
struct SweepScratch {
    members: Vec<NodeId>,
    batch: Vec<usize>,
    lanes: kernels::LaneScratch,
}

fn with_sweep_scratch<R>(f: impl FnOnce(&mut SweepScratch) -> R) -> R {
    static SCRATCH: OnceLock<WorkerLocal<SweepScratch>> = OnceLock::new();
    if mvrc_par::current_worker_index().is_some() {
        SCRATCH
            .get_or_init(|| WorkerLocal::new(SweepScratch::default))
            .with(f)
    } else {
        NON_WORKER_SCRATCH.with(|scratch| f(&mut scratch.borrow_mut()))
    }
}

thread_local! {
    static NON_WORKER_SCRATCH: RefCell<SweepScratch> = RefCell::new(SweepScratch::default());
}

impl RankRangeSweep {
    /// Opens a sweep over the session's programs under the given settings, using the session's
    /// cached summary graph (built on first use).
    ///
    /// # Panics
    ///
    /// Panics when the session has more than 20 programs (the sweep is exponential).
    pub fn new(
        session: &RobustnessSession,
        settings: AnalysisSettings,
        closure_pruning: bool,
    ) -> Self {
        let programs: Vec<String> = session.program_names().to_vec();
        let n = programs.len();
        assert!(
            n <= 20,
            "subset exploration is exponential; {n} programs is too many"
        );
        // One (cached) Algorithm 1 run over the full LTP set; node ids follow the LTP order,
        // so the per-program node lists are ascending and so are their concatenations.
        let graph = session.graph(settings);
        let nodes_per_program: Vec<Vec<NodeId>> = programs
            .iter()
            .map(|name| {
                session
                    .ltps()
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| l.program_name() == name)
                    .map(|(id, _)| id)
                    .collect()
            })
            .collect();
        let total = 1usize << n;
        RankRangeSweep {
            graph,
            settings,
            closure_pruning,
            programs,
            nodes_per_program,
            binomials: Binomials::new(n),
            bits: (0..total.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
            decided: None,
            complete: 0,
            kernel: SweepKernel::default(),
        }
    }

    /// Selects the per-mask decision kernel (default: [`SweepKernel::BitSliced`]). Verdicts
    /// and counters are identical either way; the scalar kernel is the cross-check oracle.
    #[must_use]
    pub fn with_kernel(mut self, kernel: SweepKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The decision kernel this sweep runs ([`Self::with_kernel`]).
    pub fn kernel(&self) -> SweepKernel {
        self.kernel
    }

    /// Adopts the verdicts of a [`SweepSeed`] (produced by [`rebase_cached_sweep`] or read
    /// from a shard-run seed file): the seed's robust bits are OR'd into the verdict bitset
    /// and its `decided` masks are skipped by every subsequent [`run_shard`](Self::run_shard)
    /// call — no cycle test, no pruning decision, zero counter deltas. Must be applied before
    /// any shard runs.
    ///
    /// # Panics
    ///
    /// Panics when the seed's word counts do not match [`word_count`](Self::word_count).
    pub fn apply_seed(&mut self, seed: &SweepSeed) {
        assert_eq!(
            seed.decided.len(),
            self.bits.len(),
            "seed decided word count mismatch: got {}, sweep has {}",
            seed.decided.len(),
            self.bits.len()
        );
        self.or_verdict_words(&seed.robust);
        self.decided = Some(seed.decided.clone());
    }

    /// The contiguous rank ranges at `level` that still need visiting: the whole level
    /// `[(0, C(n, level))]` on a fresh sweep, the complement of the seeded `decided` masks
    /// after [`apply_seed`](Self::apply_seed) (empty when every mask of the level already has
    /// a verdict).
    pub fn undecided_runs(&self, level: usize) -> Vec<(usize, usize)> {
        match &self.decided {
            None => {
                let size = self.level_size(level);
                if size == 0 {
                    Vec::new()
                } else {
                    vec![(0, size)]
                }
            }
            Some(decided) => undecided_level_runs(self.programs.len(), level, decided),
        }
    }

    /// The counters a *fresh* single-process [`explore_subsets_with`] over the final verdict
    /// set would report. The two-ended level order and every inherit-or-test decision read
    /// only verdicts of complete levels, so both are a pure function of the final verdict
    /// bits: this replays that order on them, ignoring any seed. It is what lets a shard run's
    /// merge (whose workers descend level by level, and may have resumed from a seed)
    /// reproduce the fresh sweep's accounting byte for byte without re-running any cycle test.
    pub fn counters_as_fresh(&self) -> ShardCounters {
        let mut order = LevelOrder::new(self.programs.len());
        let mut complete = 0u32;
        let mut cycle_tests = 0;
        while let Some(level) = order.next(|level| self.level_tests(level, complete, None)) {
            cycle_tests += self.level_tests(level, complete, None);
            complete |= 1 << level;
        }
        ShardCounters {
            cycle_tests,
            pruned: (1usize << self.programs.len()) - 1 - cycle_tests,
        }
    }

    /// Records that every verdict of `level` is final — every shard of the level ran and,
    /// across processes, was merged in. From then on the masks of the adjacent levels inherit
    /// from it: level `level - 1` robustness, level `level + 1` non-robustness.
    ///
    /// # Panics
    ///
    /// Panics when `level` exceeds the program count.
    pub fn mark_level_complete(&mut self, level: usize) {
        assert!(
            level <= self.programs.len(),
            "level {level} out of range 0..={}",
            self.programs.len()
        );
        self.complete |= 1 << level;
    }

    /// Proposition 5.2 in both directions for the `level`-masks of verdict word `word`, given
    /// the complete levels `complete` (bit `k` ⇔ level `k`). Word-parallel: one shifted OR
    /// per program, a shift inside the word for mask bits `i < 6` and the word index XOR
    /// `1 << (i - 6)` for the others. A level-`k` position of the result reads only its
    /// one-bit supersets (robust side) or subsets (non-robust side), so in-flight verdicts of
    /// level `k` itself never leak in.
    fn inherited(&self, level: usize, word: usize, complete: u32) -> Inherited {
        let n = self.programs.len();
        let high = word.count_ones() as usize;
        let Some(mut positions) = level
            .checked_sub(high)
            .and_then(|low| LEVEL_POSITIONS.get(low).copied())
        else {
            return Inherited::default();
        };
        if n < 6 {
            positions &= (1u64 << (1 << n)) - 1;
        }
        let mut out = Inherited {
            level: positions,
            ..Inherited::default()
        };
        if !self.closure_pruning || positions == 0 {
            return out;
        }
        let own = self.bits[word].load(Ordering::Relaxed);
        if level < n && complete & (1 << (level + 1)) != 0 {
            let mut above = 0u64;
            for (i, clear) in BIT_CLEAR.iter().enumerate().take(n) {
                above |= (own >> (1 << i)) & clear;
            }
            for i in 6..n {
                let bit = 1 << (i - 6);
                if word & bit == 0 {
                    above |= self.bits[word | bit].load(Ordering::Relaxed);
                }
            }
            out.robust = positions & above;
        }
        // Level 1 never inherits non-robustness: its only subset, the empty set, is robust.
        if level > 1 && complete & (1 << (level - 1)) != 0 {
            let mut below = 0u64;
            for (i, clear) in BIT_CLEAR.iter().enumerate().take(n) {
                below |= (!own << (1 << i)) & !clear;
            }
            for i in 6..n {
                let bit = 1 << (i - 6);
                if word & bit != 0 {
                    below |= !self.bits[word ^ bit].load(Ordering::Relaxed);
                }
            }
            out.non_robust = positions & below & !out.robust;
        }
        out
    }

    /// The cycle tests level `level` needs given the complete levels `complete`: its masks
    /// that are neither inherited nor, when `decided` is given, already decided by a seed.
    fn level_tests(&self, level: usize, complete: u32, decided: Option<&[u64]>) -> usize {
        (0..self.bits.len())
            .map(|word| {
                let inherited = self.inherited(level, word, complete);
                let seeded = decided.map_or(0, |d| d[word]);
                (inherited.level & !(inherited.robust | inherited.non_robust | seeded)).count_ones()
                    as usize
            })
            .sum()
    }

    /// Number of programs (`n`); masks range over `1..2^n`.
    pub fn program_count(&self) -> usize {
        self.programs.len()
    }

    /// Number of `u64` words in the verdict bitset (`⌈2^n / 64⌉`).
    pub fn word_count(&self) -> usize {
        self.bits.len()
    }

    /// `C(n, level)` for this sweep's `n` — the bound on [`ShardSpec`] ranks at a level.
    pub fn level_size(&self, level: usize) -> usize {
        self.binomials.c(self.programs.len(), level)
    }

    /// A snapshot of the verdict bitset (64 masks per word).
    pub fn verdict_words(&self) -> Vec<u64> {
        self.bits
            .iter()
            .map(|w| w.load(Ordering::Relaxed))
            .collect()
    }

    /// ORs externally produced verdict bits into the sweep — how a shard worker folds in the
    /// merged verdicts of its peers at a level barrier before descending.
    ///
    /// # Panics
    ///
    /// Panics when `words` does not have exactly [`word_count`](Self::word_count) entries.
    pub fn or_verdict_words(&self, words: &[u64]) {
        assert_eq!(
            words.len(),
            self.bits.len(),
            "verdict word count mismatch: got {}, sweep has {}",
            words.len(),
            self.bits.len()
        );
        for (slot, &word) in self.bits.iter().zip(words) {
            if word != 0 {
                slot.fetch_or(word, Ordering::Relaxed);
            }
        }
    }

    #[inline]
    fn is_marked(&self, mask: usize) -> bool {
        self.bits[mask / 64].load(Ordering::Relaxed) & (1u64 << (mask % 64)) != 0
    }

    #[inline]
    fn mark(&self, mask: usize) {
        self.bits[mask / 64].fetch_or(1u64 << (mask % 64), Ordering::Relaxed);
    }

    /// Runs the cycle test for one mask (no pruning check) and publishes the verdict.
    /// `members` is a reusable scratch buffer.
    fn test_mask(&self, mask: usize, members: &mut Vec<NodeId>) {
        members.clear();
        for (i, nodes) in self.nodes_per_program.iter().enumerate() {
            if mask & (1 << i) != 0 {
                members.extend_from_slice(nodes);
            }
        }
        if is_robust_view(&self.graph.induced(members), self.settings.condition) {
            self.mark(mask);
        }
    }

    /// Decides a batch of up to 64 undecided masks with one lane-parallel traversal
    /// ([`kernels::sweep_lanes`]): lane `i` is mask `masks[i]`, each graph node's membership
    /// word ORs together the lanes whose subset contains the node's program. Robust lanes are
    /// published into the verdict bitset; the counters were already accounted at batch-fill
    /// time (one cycle test per lane).
    fn flush_lane_batch(&self, masks: &[usize], lanes: &mut kernels::LaneScratch) {
        debug_assert!(!masks.is_empty() && masks.len() <= 64);
        let plan = self.graph.lane_plan(self.settings.condition);
        lanes.member.clear();
        lanes.member.resize(plan.universe, 0);
        for (lane, &mask) in masks.iter().enumerate() {
            let bit = 1u64 << lane;
            for (i, nodes) in self.nodes_per_program.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    for &v in nodes {
                        lanes.member[v] |= bit;
                    }
                }
            }
        }
        let batch = if masks.len() == 64 {
            u64::MAX
        } else {
            (1u64 << masks.len()) - 1
        };
        let mut robust = kernels::sweep_lanes(plan, lanes, batch);
        while robust != 0 {
            self.mark(masks[robust.trailing_zeros() as usize]);
            robust &= robust - 1;
        }
    }

    /// Runs the cycle test for a list of masks (no pruning checks) under the configured
    /// kernel, publishing the verdicts. Drives the materialized strategy's eager work lists.
    fn test_masks(&self, masks: &[usize], scratch: &mut SweepScratch) {
        match self.kernel {
            SweepKernel::Scalar => {
                for &mask in masks {
                    self.test_mask(mask, &mut scratch.members);
                }
            }
            SweepKernel::BitSliced => {
                for batch in masks.chunks(64) {
                    self.flush_lane_batch(batch, &mut scratch.lanes);
                }
            }
        }
    }

    /// The seeded masks of verdict word `word` ([`Self::apply_seed`]); `0` on a fresh sweep.
    #[inline]
    fn decided_word(&self, word: usize) -> u64 {
        self.decided.as_ref().map_or(0, |d| d[word])
    }

    /// Sweeps one shard: unranks the range's first and last masks once, then walks the level's
    /// masks between them a verdict word at a time. Per word, one word-parallel evaluation of
    /// Proposition 5.2 settles every mask a complete adjacent level decides; the rest go to the
    /// cycle test — one induced view each under [`SweepKernel::Scalar`], lane batches of up to
    /// 64 under [`SweepKernel::BitSliced`]. Seeded masks are skipped with zero counter deltas.
    /// Verdicts are published into the shared bitset; the returned counters cover exactly
    /// this range.
    ///
    /// Pruning reads only the levels marked complete ([`Self::mark_level_complete`]), so the
    /// caller decides which neighbours feed a level: [`explore_subsets_with`] follows the
    /// two-ended order of the module docs, and the `mvrc-dist` workers descend, marking each
    /// level complete after its barrier. Either way no shard of a level may still run when
    /// the level is marked complete.
    ///
    /// # Panics
    ///
    /// Panics when the spec's level or rank range is out of bounds for this sweep.
    pub fn run_shard(&self, spec: ShardSpec) -> ShardCounters {
        let n = self.programs.len();
        assert!(
            spec.level >= 1 && spec.level <= n,
            "shard level {} out of range 1..={n}",
            spec.level
        );
        assert!(
            spec.rank_end <= self.level_size(spec.level),
            "shard ranks {}..{} exceed level size {}",
            spec.rank_start,
            spec.rank_end,
            self.level_size(spec.level)
        );
        let mut counters = ShardCounters::default();
        if spec.is_empty() {
            return counters;
        }
        let first = unrank_colex(spec.rank_start, spec.level, &self.binomials);
        let last = unrank_colex(spec.rank_end - 1, spec.level, &self.binomials);
        with_sweep_scratch(|scratch| {
            let SweepScratch {
                members,
                batch,
                lanes,
            } = scratch;
            batch.clear();
            for word in first / 64..=last / 64 {
                let inherited = self.inherited(spec.level, word, self.complete);
                let mut visit = inherited.level & !self.decided_word(word);
                if word == first / 64 {
                    visit &= u64::MAX << (first % 64);
                }
                if word == last / 64 {
                    visit &= u64::MAX >> (63 - last % 64);
                }
                if visit == 0 {
                    continue;
                }
                let robust = visit & inherited.robust;
                let mut test = visit & !(inherited.robust | inherited.non_robust);
                if robust != 0 {
                    self.bits[word].fetch_or(robust, Ordering::Relaxed);
                }
                counters.pruned += (visit & !test).count_ones() as usize;
                counters.cycle_tests += test.count_ones() as usize;
                while test != 0 {
                    let mask = word * 64 + test.trailing_zeros() as usize;
                    test &= test - 1;
                    match self.kernel {
                        SweepKernel::Scalar => self.test_mask(mask, members),
                        SweepKernel::BitSliced => {
                            batch.push(mask);
                            if batch.len() == 64 {
                                self.flush_lane_batch(batch, lanes);
                                batch.clear();
                            }
                        }
                    }
                }
            }
            // The final flush completes before the shard returns, hence before the level can
            // be marked complete (see the lane-batch soundness argument in `kernels`).
            if !batch.is_empty() {
                self.flush_lane_batch(batch, lanes);
                batch.clear();
            }
        });
        counters
    }

    /// Assembles the final [`SubsetExploration`] from the current verdict bits, the summed
    /// counters of every shard that contributed (across chunks, shards or processes) and the
    /// number of verdicts adopted from a seed without a visit.
    pub fn exploration(
        &self,
        counters: ShardCounters,
        masks_buffered: usize,
        reused: usize,
    ) -> SubsetExploration {
        let n = self.programs.len();
        let total = 1usize << n;
        let mut robust: Vec<Vec<usize>> = (1..total)
            .filter(|&mask| self.is_marked(mask))
            .map(|mask| (0..n).filter(|i| mask & (1 << i) != 0).collect())
            .collect();
        robust.sort();
        let maximal = maximal_sets(&robust);
        SubsetExploration {
            programs: self.programs.clone(),
            settings: self.settings,
            robust,
            maximal,
            cycle_tests: counters.cycle_tests,
            pruned: counters.pruned,
            reused,
            masks_buffered,
        }
    }
}

/// Explores every non-empty subset of the workload's programs and reports which are robust
/// under the given settings, using the default [`ExploreOptions`] (closure pruning on,
/// streamed levels).
pub fn explore_subsets(
    session: &RobustnessSession,
    settings: AnalysisSettings,
) -> SubsetExploration {
    explore_subsets_with(session, settings, ExploreOptions::default())
}

/// [`explore_subsets`] with explicit options.
///
/// The session's cached summary graph for `settings` is (built once and) shared across the
/// whole sweep; every tested subset is a cheap [induced view](SummaryGraph::induced) of it.
/// This is sound because Algorithm 1's edges are defined pairwise over LTPs: the summary graph
/// of a subset equals the induced subgraph of the full summary graph (only reachability has to
/// be recomputed per view).
///
/// With `closure_pruning` enabled (the default), masks are processed level by level in the
/// two-ended order of the module docs; a mask with a robust one-bit superset, or a non-robust
/// one-bit subset, in a complete level inherits its verdict by Proposition 5.2 without a cycle
/// test. Levels are independent-within and ordered-between: each level is one parallel pass
/// over the pool (a barrier between levels keeps the pruning reads race-free — a level only
/// ever reads verdict bits of complete adjacent levels, which earlier passes fully published).
///
/// [`explore_subsets_naive`] retains the literal per-subset reconstruction for cross-checking
/// and benchmarking.
pub fn explore_subsets_with(
    session: &RobustnessSession,
    settings: AnalysisSettings,
    options: ExploreOptions,
) -> SubsetExploration {
    let kernel = options.kernel.unwrap_or_else(|| session.sweep_kernel());
    let mut sweep =
        RankRangeSweep::new(session, settings, options.closure_pruning).with_kernel(kernel);
    let n = sweep.program_count();

    // Incremental mode: rebase the session's cached verdicts (the last completed sweep under
    // these settings) onto the current program set and adopt them as a seed — the sweep then
    // only visits masks no previous sweep decided. The fingerprints double as the identity of
    // the updated cache entry installed below. Tiny workloads skip the machinery wholesale
    // (`fingerprints` stays `None`, so no cache entry is installed either): below
    // [`ExploreOptions::incremental_min_subsets`] the bookkeeping costs more than the sweep.
    let mut reused = 0usize;
    let fingerprints = if options.incremental && (1usize << n) >= options.incremental_min_subsets {
        let fps = session.program_fingerprints();
        if let Some(cached) = session.cached_sweep(settings) {
            if let Some(seed) = rebase_cached_sweep(&cached, session.program_names(), &fps) {
                reused = seed.reused;
                sweep.apply_seed(&seed);
            }
        }
        Some(fps)
    } else {
        None
    };

    let total = 1usize << n;
    let parallelism = if total >= options.parallel_threshold {
        match options.parallelism {
            Parallelism::Auto => session.parallelism(),
            pinned => pinned,
        }
    } else {
        Parallelism::Serial
    };
    // The eager shard plan mirrors what the `mvrc-dist` coordinator would hand to worker
    // processes: a few shards per pool worker so the level still load-balances. Serial sweeps
    // get a fixed small plan — querying the pool size would cost an env/parallelism lookup
    // per sweep on a path that never fans out.
    let shards_per_level = if options.strategy == SweepStrategy::Sharded {
        match parallelism {
            Parallelism::Serial => 4,
            Parallelism::Threads(n) => n.max(1).saturating_mul(4),
            Parallelism::Auto => mvrc_par::planned_thread_count().max(1) * 4,
        }
    } else {
        0
    };

    // Robustness verdicts live in the sweep's atomic bitset. Within a level workers publish
    // their own bits concurrently (`fetch_or`); across levels the runtime's fold barrier
    // orders every store of a completed level before every load of a later one, so `Relaxed`
    // suffices.
    let mut totals = ShardCounters::default();
    let mut masks_buffered = 0usize;
    let mut order = LevelOrder::new(n);
    while let Some(level) =
        order.next(|level| sweep.level_tests(level, sweep.complete, sweep.decided.as_deref()))
    {
        // On a fresh sweep this is the single run `(0, C(n, level))`; a seeded sweep only
        // visits the ranks no previous sweep decided (possibly none).
        let runs = sweep.undecided_runs(level);
        match options.strategy {
            SweepStrategy::Streamed => {
                // Fold over each run's rank range: every chunk unranks its first mask once and
                // then steps with Gosper's hack — no level buffer exists anywhere. The grain
                // hint keeps chunks large enough to amortize the unranking; the bit-sliced
                // kernel asks for lane-sized chunks so its batches fill all 64 lanes.
                let grain = match kernel {
                    SweepKernel::Scalar => 4,
                    SweepKernel::BitSliced => 64,
                };
                for &(run_start, run_end) in &runs {
                    let counters = fold_chunks(
                        run_start..run_end,
                        parallelism,
                        grain,
                        ShardCounters::default,
                        |acc, chunk| {
                            acc.merged(sweep.run_shard(ShardSpec {
                                level,
                                rank_start: chunk.start,
                                rank_end: chunk.end,
                            }))
                        },
                        ShardCounters::merged,
                    );
                    totals = totals.merged(counters);
                }
            }
            SweepStrategy::Sharded => {
                // The coordinator shape: partition the level's undecided runs eagerly into
                // `ShardSpec`s, fan the shard list out. (The shard list is O(shards), not
                // O(level) — the masks themselves are still never materialized.)
                let shards = plan_range_shards(level, &runs, shards_per_level);
                let counters = fold_chunks(
                    0..shards.len(),
                    parallelism,
                    1,
                    ShardCounters::default,
                    |mut acc, chunk| {
                        for &spec in &shards[chunk] {
                            acc = acc.merged(sweep.run_shard(spec));
                        }
                        acc
                    },
                    ShardCounters::merged,
                );
                totals = totals.merged(counters);
            }
            SweepStrategy::Materialized => {
                // The pre-runtime oracle: collect the (undecided) masks, partition into
                // inherited and to-test, fan the tests out eagerly.
                let mut masks = Vec::new();
                for &(run_start, run_end) in &runs {
                    let mut mask = unrank_colex(run_start, level, &sweep.binomials);
                    for rank in run_start..run_end {
                        masks.push(mask);
                        if rank + 1 < run_end {
                            mask = next_same_popcount(mask);
                        }
                    }
                }
                masks_buffered += masks.len();
                let mut to_test = Vec::with_capacity(masks.len());
                for mask in masks {
                    let inherited = sweep.inherited(level, mask / 64, sweep.complete);
                    let bit = 1u64 << (mask % 64);
                    if inherited.robust & bit != 0 {
                        sweep.mark(mask);
                    }
                    if (inherited.robust | inherited.non_robust) & bit != 0 {
                        totals.pruned += 1;
                    } else {
                        to_test.push(mask);
                    }
                }
                totals.cycle_tests += to_test.len();
                // The fan-out honors the same `Parallelism` pin as the streamed path (it
                // merely materializes its work-list first); chunks draw their member/lane
                // buffers from the per-worker sweep scratch.
                let grain = match kernel {
                    SweepKernel::Scalar => 1,
                    SweepKernel::BitSliced => 64,
                };
                fold_chunks(
                    0..to_test.len(),
                    parallelism,
                    grain,
                    || (),
                    |(), chunk| {
                        with_sweep_scratch(|scratch| sweep.test_masks(&to_test[chunk], scratch))
                    },
                    |(), ()| (),
                );
            }
        }
        sweep.mark_level_complete(level);
    }

    let exploration = sweep.exploration(totals, masks_buffered, reused);
    if let Some(program_fingerprints) = fingerprints {
        session.install_cached_sweep(
            settings,
            CachedSweep {
                programs: session.program_names().to_vec(),
                program_fingerprints,
                robust: sweep.verdict_words(),
            },
        );
    }
    exploration
}

/// The pre-refactor subset exploration: reconstructs a full summary graph per subset, serially,
/// testing every mask.
///
/// Semantically equivalent to [`explore_subsets`]; kept as the exhaustive oracle for the
/// induced-view and closure-pruning cross-check tests and as the baseline of the
/// `subset_exploration` Criterion bench.
pub fn explore_subsets_naive(
    session: &RobustnessSession,
    settings: AnalysisSettings,
) -> SubsetExploration {
    let programs: Vec<String> = session.program_names().to_vec();
    let n = programs.len();
    assert!(
        n <= 20,
        "subset exploration is exponential; {n} programs is too many"
    );

    // Group the unfolded LTPs per program index once.
    let ltps_per_program: Vec<Vec<&LinearProgram>> = programs
        .iter()
        .map(|name| {
            session
                .ltps()
                .iter()
                .filter(|l| l.program_name() == name)
                .collect()
        })
        .collect();

    let mut robust: Vec<Vec<usize>> = Vec::new();
    for mask in 1usize..(1 << n) {
        let subset: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
        let ltps: Vec<LinearProgram> = subset
            .iter()
            .flat_map(|&i| ltps_per_program[i].iter().map(|l| (*l).clone()))
            .collect();
        let graph = SummaryGraph::construct(&ltps, session.schema(), settings);
        if is_robust(&graph, settings.condition) {
            robust.push(subset);
        }
    }
    robust.sort();

    let maximal = maximal_sets(&robust);
    SubsetExploration {
        programs,
        settings,
        robust,
        maximal,
        cycle_tests: (1 << n) - 1,
        pruned: 0,
        reused: 0,
        masks_buffered: 0,
    }
}

/// Filters a family of sets down to its maximal elements (no other set is a strict superset).
fn maximal_sets(sets: &[Vec<usize>]) -> Vec<Vec<usize>> {
    sets.iter()
        .filter(|candidate| {
            !sets.iter().any(|other| {
                other.len() > candidate.len() && candidate.iter().all(|x| other.contains(x))
            })
        })
        .cloned()
        .collect()
}

/// Default abbreviation used when rendering subsets: the upper-case letters (and digits) of the
/// program name, e.g. `NewOrder → NO`, `DepositChecking → DC`. Falls back to the full name when
/// the name contains no upper-case letters.
pub fn abbreviate_program_name(name: &str) -> String {
    let abbrev: String = name
        .chars()
        .filter(|c| c.is_ascii_uppercase() || c.is_ascii_digit())
        .collect();
    if abbrev.is_empty() {
        name.to_string()
    } else {
        abbrev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::settings::{CycleCondition, Granularity};
    use mvrc_btp::ProgramBuilder;
    use mvrc_schema::SchemaBuilder;

    fn auction_session() -> RobustnessSession {
        let mut b = SchemaBuilder::new("auction");
        let buyer = b.relation("Buyer", &["id", "calls"], &["id"]).unwrap();
        let bids = b
            .relation("Bids", &["buyerId", "bid"], &["buyerId"])
            .unwrap();
        let log = b
            .relation("Log", &["id", "buyerId", "bid"], &["id"])
            .unwrap();
        b.foreign_key("f1", bids, &["buyerId"], buyer, &["id"])
            .unwrap();
        b.foreign_key("f2", log, &["buyerId"], buyer, &["id"])
            .unwrap();
        let schema = b.build();

        let mut fb = ProgramBuilder::new(&schema, "FindBids");
        let q1 = fb
            .key_update("q1", "Buyer", &["calls"], &["calls"])
            .unwrap();
        let q2 = fb.pred_select("q2", "Bids", &["bid"], &["bid"]).unwrap();
        fb.seq(&[q1.into(), q2.into()]);

        let mut pb = ProgramBuilder::new(&schema, "PlaceBid");
        let q3 = pb
            .key_update("q3", "Buyer", &["calls"], &["calls"])
            .unwrap();
        let q4 = pb.key_select("q4", "Bids", &["bid"]).unwrap();
        let q5 = pb.key_update("q5", "Bids", &[], &["bid"]).unwrap();
        let q6 = pb.insert("q6", "Log").unwrap();
        pb.seq(&[q3.into(), q4.into()]);
        pb.optional(q5.into());
        pb.push(q6.into());
        pb.fk_constraint("f1", q4, q3).unwrap();
        pb.fk_constraint("f1", q5, q3).unwrap();
        pb.fk_constraint("f2", q6, q3).unwrap();

        let programs = vec![fb.build(), pb.build()];
        RobustnessSession::from_programs(&schema, &programs)
    }

    #[test]
    fn auction_maximal_subsets_match_figure_6_and_7() {
        let session = auction_session();

        // Algorithm 2, attr dep + FK: the whole benchmark {FB, PB} is robust (Figure 6).
        let type2 = explore_subsets(&session, AnalysisSettings::paper_default());
        assert_eq!(type2.maximal, vec![vec![0, 1]]);
        assert!(type2.is_maximal_robust(&["FindBids", "PlaceBid"]));
        assert_eq!(type2.render_maximal(abbreviate_program_name), "{FB, PB}");
        // The full set is robust, so both singletons are pruned: exactly one cycle test runs.
        assert_eq!(type2.cycle_tests, 1);
        assert_eq!(type2.pruned, 2);

        // Baseline [3], attr dep + FK: only the singletons are robust (Figure 7).
        let type1 = explore_subsets(
            &session,
            AnalysisSettings::baseline(Granularity::Attribute, true),
        );
        assert_eq!(type1.maximal, vec![vec![0], vec![1]]);
        assert_eq!(type1.render_maximal(abbreviate_program_name), "{FB}, {PB}");
        assert_eq!(type1.cycle_tests, 3);

        // Without foreign keys even Algorithm 2 only attests {FB} (Figure 6, rows 1-2).
        let no_fk = explore_subsets(
            &session,
            AnalysisSettings {
                granularity: Granularity::Attribute,
                use_foreign_keys: false,
                condition: CycleCondition::TypeII,
            },
        );
        assert_eq!(no_fk.render_maximal(abbreviate_program_name), "{FB}");
    }

    #[test]
    fn pruned_and_exhaustive_paths_agree() {
        let session = auction_session();
        for condition in [CycleCondition::TypeII, CycleCondition::TypeI] {
            for settings in AnalysisSettings::evaluation_grid(condition) {
                let pruned = explore_subsets(&session, settings);
                let exhaustive = explore_subsets_with(
                    &session,
                    settings,
                    ExploreOptions {
                        closure_pruning: false,
                        ..ExploreOptions::default()
                    },
                );
                assert_eq!(pruned.robust, exhaustive.robust, "under {settings}");
                assert_eq!(pruned.maximal, exhaustive.maximal, "under {settings}");
                assert_eq!(exhaustive.pruned, 0);
                assert_eq!(exhaustive.cycle_tests, 3);
                assert!(pruned.cycle_tests <= exhaustive.cycle_tests);
            }
        }
    }

    #[test]
    fn streamed_materialized_and_sharded_levels_agree() {
        let session = auction_session();
        for condition in [CycleCondition::TypeII, CycleCondition::TypeI] {
            for settings in AnalysisSettings::evaluation_grid(condition) {
                for closure_pruning in [true, false] {
                    let base = ExploreOptions {
                        closure_pruning,
                        ..ExploreOptions::default()
                    };
                    let streamed = explore_subsets_with(&session, settings, base);
                    let materialized = explore_subsets_with(
                        &session,
                        settings,
                        ExploreOptions {
                            strategy: SweepStrategy::Materialized,
                            ..base
                        },
                    );
                    let sharded = explore_subsets_with(
                        &session,
                        settings,
                        ExploreOptions {
                            strategy: SweepStrategy::Sharded,
                            ..base
                        },
                    );
                    assert_eq!(streamed.robust, materialized.robust, "under {settings}");
                    assert_eq!(streamed.cycle_tests, materialized.cycle_tests);
                    assert_eq!(streamed.pruned, materialized.pruned);
                    assert_eq!(streamed.masks_buffered, 0);
                    assert_eq!(materialized.masks_buffered, (1 << 2) - 1);
                    assert_eq!(streamed.robust, sharded.robust, "under {settings}");
                    assert_eq!(streamed.cycle_tests, sharded.cycle_tests);
                    assert_eq!(streamed.pruned, sharded.pruned);
                    assert_eq!(sharded.masks_buffered, 0);
                }
            }
        }
    }

    #[test]
    fn level_plans_partition_the_rank_space() {
        for n in 1..=10usize {
            for level in 1..=n {
                let size = level_size(n, level);
                for shards in [1usize, 2, 3, 7, 64] {
                    let plan = plan_level_shards(n, level, shards);
                    assert!(plan.len() <= shards.min(size));
                    // Contiguous, non-empty, exactly covering 0..size.
                    let mut next = 0;
                    for spec in &plan {
                        assert_eq!(spec.level, level);
                        assert_eq!(spec.rank_start, next);
                        assert!(!spec.is_empty());
                        next = spec.rank_end;
                    }
                    assert_eq!(next, size);
                    // Near-equal: sizes differ by at most one.
                    let lens: Vec<usize> = plan.iter().map(ShardSpec::len).collect();
                    let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                    assert!(max - min <= 1, "uneven plan {lens:?}");
                }
            }
        }
        assert!(plan_level_shards(5, 0, 4).len() == 1); // C(5, 0) = 1: the empty mask's level
    }

    #[test]
    fn rank_range_sweep_partitions_reproduce_the_whole_sweep() {
        // Running a level in arbitrary shard splits (here: one spec per rank) must reproduce
        // the monolithic sweep's verdicts and summed counters exactly.
        let session = auction_session();
        let settings = AnalysisSettings::paper_default();
        let reference = explore_subsets(&session, settings);

        let mut sweep = RankRangeSweep::new(&session, settings, true);
        let n = sweep.program_count();
        let mut totals = ShardCounters::default();
        for level in (1..=n).rev() {
            for rank in 0..sweep.level_size(level) {
                totals = totals.merged(sweep.run_shard(ShardSpec {
                    level,
                    rank_start: rank,
                    rank_end: rank + 1,
                }));
            }
            sweep.mark_level_complete(level);
        }
        let exploration = sweep.exploration(totals, 0, 0);
        assert_eq!(exploration.robust, reference.robust);
        assert_eq!(exploration.maximal, reference.maximal);
        assert_eq!(exploration.cycle_tests, reference.cycle_tests);
        assert_eq!(exploration.pruned, reference.pruned);
    }

    #[test]
    fn seeded_verdicts_prune_like_locally_computed_ones() {
        // Simulate the distributed barrier: compute the top level in one sweep, transfer its
        // verdict words into a fresh sweep, and run only the lower levels there. The second
        // sweep must prune exactly as if it had computed the top level itself.
        let session = auction_session();
        let settings = AnalysisSettings::paper_default();
        let n = 2;

        let top = RankRangeSweep::new(&session, settings, true);
        let top_counters = top.run_shard(ShardSpec {
            level: n,
            rank_start: 0,
            rank_end: top.level_size(n),
        });
        assert_eq!(top_counters.cycle_tests, 1);

        let mut rest = RankRangeSweep::new(&session, settings, true);
        assert_eq!(rest.word_count(), top.word_count());
        rest.or_verdict_words(&top.verdict_words());
        rest.mark_level_complete(n);
        let mut totals = top_counters;
        for level in (1..n).rev() {
            totals = totals.merged(rest.run_shard(ShardSpec {
                level,
                rank_start: 0,
                rank_end: rest.level_size(level),
            }));
            rest.mark_level_complete(level);
        }
        let exploration = rest.exploration(totals, 0, 0);
        let reference = explore_subsets(&session, settings);
        assert_eq!(exploration.robust, reference.robust);
        assert_eq!(exploration.cycle_tests, reference.cycle_tests);
        assert_eq!(exploration.pruned, reference.pruned);
    }

    #[test]
    fn word_parallel_inheritance_matches_the_per_mask_definition() {
        // Arbitrary verdict bits (not real verdicts: the predicate reads bits only) against
        // Proposition 5.2 spelled out mask by mask, for every level and every set of complete
        // levels, across n below, at and above the 6 in-word mask bits.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in 1..=9usize {
            let workload = mvrc_benchmarks::synthetic(mvrc_benchmarks::SyntheticConfig {
                programs: n,
                statements_per_program: 1,
                ..mvrc_benchmarks::SyntheticConfig::default()
            });
            let session = RobustnessSession::new(workload);
            let sweep = RankRangeSweep::new(&session, AnalysisSettings::paper_default(), true);
            let words: Vec<u64> = (0..sweep.word_count()).map(|_| next()).collect();
            sweep.or_verdict_words(&words);
            let marked = |mask: usize| words[mask / 64] & (1 << (mask % 64)) != 0;
            for _ in 0..8 {
                let complete = next() as u32 & ((1u32 << (n + 1)) - 1);
                for level in 1..=n {
                    let above = level < n && complete & (1 << (level + 1)) != 0;
                    let below = level > 1 && complete & (1 << (level - 1)) != 0;
                    for mask in (1usize..1 << n).filter(|m| m.count_ones() as usize == level) {
                        let bit = 1u64 << (mask % 64);
                        let got = sweep.inherited(level, mask / 64, complete);
                        let robust = above
                            && (0..n).any(|i| mask & (1 << i) == 0 && marked(mask | (1 << i)));
                        let non_robust = !robust
                            && below
                            && (0..n).any(|i| mask & (1 << i) != 0 && !marked(mask ^ (1 << i)));
                        assert_ne!(got.level & bit, 0, "n={n} mask={mask:#b}");
                        assert_eq!(got.robust & bit != 0, robust, "n={n} mask={mask:#b}");
                        assert_eq!(
                            got.non_robust & bit != 0,
                            non_robust,
                            "n={n} mask={mask:#b}"
                        );
                    }
                    let level_masks: u32 = (0..sweep.word_count())
                        .map(|w| sweep.inherited(level, w, complete).level.count_ones())
                        .sum();
                    assert_eq!(level_masks as usize, sweep.level_size(level));
                }
            }
        }
    }

    #[test]
    fn level_order_takes_the_cheaper_end_and_breaks_ties_to_the_top() {
        // Level 4 ties level 1 (3 tests each) and goes first; then level 1 undercuts level 3;
        // levels 3 and 2 tie; the last open level needs no count.
        let mut order = LevelOrder::new(4);
        let counts = [0, 3, 9, 9, 3];
        let visited: Vec<usize> = std::iter::from_fn(|| order.next(|l| counts[l])).collect();
        assert_eq!(visited, vec![4, 1, 3, 2]);
        let mut free = LevelOrder::new(3);
        let visited: Vec<usize> = std::iter::from_fn(|| free.next(|_| 0)).collect();
        assert_eq!(visited, vec![3, 2, 1], "all-zero counts descend");
        assert_eq!(LevelOrder::new(0).next(|_| 0), None);
    }

    #[test]
    fn robust_family_is_downward_closed() {
        // Proposition 5.2: every subset of a robust set is robust.
        let session = auction_session();
        let exploration = explore_subsets(&session, AnalysisSettings::paper_default());
        for set in &exploration.robust {
            for drop_idx in 0..set.len() {
                let mut smaller = set.clone();
                smaller.remove(drop_idx);
                if smaller.is_empty() {
                    continue;
                }
                assert!(
                    exploration.robust.contains(&smaller),
                    "robust family is not downward closed: {smaller:?} missing"
                );
            }
        }
    }

    #[test]
    fn maximal_sets_filters_strict_subsets() {
        let sets = vec![vec![0], vec![0, 1], vec![2], vec![1]];
        let maximal = maximal_sets(&sets);
        assert_eq!(maximal, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn binomials_match_the_closed_form() {
        let b = Binomials::new(20);
        assert_eq!(b.c(20, 10), 184_756);
        assert_eq!(b.c(7, 3), 35);
        assert_eq!(b.c(5, 0), 1);
        assert_eq!(b.c(5, 5), 1);
        assert_eq!(b.c(3, 4), 0);
        for n in 0..=20usize {
            for k in 1..=n {
                assert_eq!(
                    b.c(n, k),
                    b.c(n - 1, k - 1) + b.c(n - 1, k),
                    "Pascal identity at C({n}, {k})"
                );
            }
        }
    }

    #[test]
    fn unranking_enumerates_each_level_in_numeric_order() {
        for n in 1..=10usize {
            let binomials = Binomials::new(n);
            for k in 1..=n {
                let expected: Vec<usize> = (1usize..1 << n)
                    .filter(|m| m.count_ones() as usize == k)
                    .collect();
                assert_eq!(binomials.c(n, k), expected.len());
                // Direct unranking hits every rank...
                let unranked: Vec<usize> = (0..expected.len())
                    .map(|r| unrank_colex(r, k, &binomials))
                    .collect();
                assert_eq!(unranked, expected, "unrank(n={n}, k={k})");
                // ...and the Gosper successor walks the same sequence from any start.
                let mut mask = unrank_colex(0, k, &binomials);
                for want in &expected {
                    assert_eq!(mask, *want);
                    mask = next_same_popcount(mask);
                }
            }
        }
    }

    #[test]
    fn abbreviations_match_the_paper_style() {
        assert_eq!(abbreviate_program_name("NewOrder"), "NO");
        assert_eq!(abbreviate_program_name("DepositChecking"), "DC");
        assert_eq!(abbreviate_program_name("FindBids"), "FB");
        assert_eq!(abbreviate_program_name("PlaceBid3"), "PB3");
        assert_eq!(abbreviate_program_name("delivery"), "delivery");
    }

    #[test]
    fn render_subset_uses_program_names() {
        let session = auction_session();
        let exploration = explore_subsets(&session, AnalysisSettings::paper_default());
        let rendered = exploration.render_subset(&[0], |s| s.to_string());
        assert_eq!(rendered, "{FindBids}");
        assert!(!exploration.is_maximal_robust(&["FindBids", "Unknown"]));
    }
}
