//! Cross-check of the closure-pruned, shared-graph subset exploration against the exhaustive
//! paths.
//!
//! [`explore_subsets`] answers every subset on an induced view of the session's cached summary
//! graph, skips cycle tests via closure pruning (Proposition 5.2 in both directions), and *streams* each
//! popcount level as lazily split rank ranges across the `mvrc-par` pool;
//! [`SweepStrategy::Materialized`] retains the level-materializing traversal;
//! [`explore_subsets_with`] with pruning disabled tests every mask on the shared graph;
//! [`explore_subsets_naive`] re-runs Algorithm 1 for every subset. All of them must agree
//! *exactly* — same robust family, same maximal subsets, same pruning counters where
//! applicable — on every workload (the `assert_agree` cross-check idiom of the dbcop
//! consistency checker). The property tests drive the comparison over random synthetic
//! workloads across the full evaluation grid; separate tests pin down the "exactly one
//! construction per graph-shape combination" contract of the session, the
//! strictly-fewer-cycle-tests claim of the pruning on TPC-C, and the "no level buffer" claim
//! of the streamed traversal.

use mvrc_benchmarks::{auction, smallbank, synthetic, tpcc, ycsb_t, SyntheticConfig, YcsbtConfig};
use mvrc_btp::sql::parse_workload_file;
use mvrc_btp::Workload;
use mvrc_robustness::{
    explore_subsets, explore_subsets_naive, explore_subsets_with, AnalysisSettings, CycleCondition,
    ExploreOptions, Parallelism, RankRangeSweep, RobustnessSession, ShardCounters, SummaryGraph,
    SweepKernel, SweepStrategy,
};
use proptest::prelude::*;

/// Asserts that the closure-pruned sweep under every strategy × kernel, the exhaustive shared
/// sweep and the naive reconstruction agree on a workload under one settings combination, and
/// that replaying the level order from the final verdicts reproduces the pruned counters.
fn assert_agree(session: &RobustnessSession, settings: AnalysisSettings) {
    let pruned = explore_subsets(session, settings);
    let naive = explore_subsets_naive(session, settings);
    assert_eq!(
        pruned.robust, naive.robust,
        "robust families differ (pruned vs naive) under {settings} for programs {:?}",
        pruned.programs
    );
    assert_eq!(
        pruned.maximal, naive.maximal,
        "maximal subsets differ under {settings} for programs {:?}",
        pruned.programs
    );
    assert!(
        pruned.cycle_tests + pruned.pruned == naive.cycle_tests,
        "every subset must be either tested or pruned"
    );
    assert_eq!(
        pruned.masks_buffered, 0,
        "the streamed traversal must not materialize level masks"
    );
    // Every strategy × kernel, with and without Proposition 5.2 pruning, must be
    // indistinguishable from the streamed bit-sliced default in everything but speed and
    // buffering: same verdicts, same counters. The materializing oracle buffers every
    // non-empty mask exactly once; the streamed and sharded (`ShardSpec` plan, the in-process
    // twin of the `mvrc shard` protocol) traversals buffer none.
    for strategy in [
        SweepStrategy::Streamed,
        SweepStrategy::Materialized,
        SweepStrategy::Sharded,
    ] {
        for kernel in [SweepKernel::BitSliced, SweepKernel::Scalar] {
            let run = |closure_pruning| {
                explore_subsets_with(
                    session,
                    settings,
                    ExploreOptions {
                        closure_pruning,
                        strategy,
                        kernel: Some(kernel),
                        ..ExploreOptions::default()
                    },
                )
            };
            let buffered = if strategy == SweepStrategy::Materialized {
                naive.cycle_tests
            } else {
                0
            };
            let with_pruning = run(true);
            assert_eq!(
                with_pruning.robust, naive.robust,
                "robust families differ ({strategy:?}/{kernel:?} vs naive) under {settings} for programs {:?}",
                pruned.programs
            );
            assert_eq!(with_pruning.maximal, pruned.maximal);
            assert_eq!(
                (with_pruning.cycle_tests, with_pruning.pruned),
                (pruned.cycle_tests, pruned.pruned),
                "counters differ under {strategy:?}/{kernel:?} / {settings}"
            );
            assert_eq!(with_pruning.masks_buffered, buffered);
            let exhaustive = run(false);
            assert_eq!(
                exhaustive.robust, naive.robust,
                "robust families differ (exhaustive {strategy:?}/{kernel:?} vs naive) under {settings}"
            );
            assert_eq!(exhaustive.maximal, naive.maximal);
            assert_eq!(exhaustive.cycle_tests, naive.cycle_tests);
            assert_eq!(exhaustive.pruned, 0);
        }
    }
    // The merge of a shard run reports the counters replayed from the final verdict bits;
    // they must equal the in-process sweep's.
    let replay = RankRangeSweep::new(session, settings, true);
    let mut words = vec![0u64; replay.word_count()];
    for subset in &pruned.robust {
        let mask = subset.iter().fold(0usize, |m, &i| m | 1 << i);
        words[mask / 64] |= 1 << (mask % 64);
    }
    replay.or_verdict_words(&words);
    assert_eq!(
        replay.counters_as_fresh(),
        ShardCounters {
            cycle_tests: pruned.cycle_tests,
            pruned: pruned.pruned,
        },
        "replayed counters differ under {settings}"
    );
}

fn synthetic_config_strategy() -> impl Strategy<Value = SyntheticConfig> {
    (
        1usize..=3,   // relations
        2usize..=5,   // attributes per relation
        1usize..=4,   // programs (the exploration is exponential in this)
        1usize..=4,   // statements per program
        0.0f64..=1.0, // predicate probability
        0.0f64..=1.0, // write probability
        0.0f64..=0.6, // loop probability
        0.0f64..=0.6, // optional probability
        any::<u64>(), // seed
    )
        .prop_map(
            |(relations, attrs, programs, statements, pred_p, write_p, loop_p, opt_p, seed)| {
                SyntheticConfig {
                    relations,
                    attributes_per_relation: attrs,
                    programs,
                    statements_per_program: statements,
                    predicate_probability: pred_p,
                    write_probability: write_p,
                    loop_probability: loop_p,
                    optional_probability: opt_p,
                    seed,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn pruned_exploration_agrees_with_exhaustive_reconstruction(
        config in synthetic_config_strategy(),
    ) {
        let session = RobustnessSession::new(synthetic(config));
        for condition in [CycleCondition::TypeII, CycleCondition::TypeI] {
            for settings in AnalysisSettings::evaluation_grid(condition) {
                assert_agree(&session, settings);
            }
        }
    }
}

#[test]
fn parallel_enumeration_agrees_on_larger_workloads() {
    // Workloads with ≥ 6 programs cross the default parallel threshold that fans the subset
    // sweep out across threads; pin the parallel path against the serial oracle explicitly.
    for seed in [7u64, 99, 4242] {
        let workload = synthetic(SyntheticConfig {
            relations: 3,
            attributes_per_relation: 4,
            programs: 7,
            statements_per_program: 3,
            predicate_probability: 0.4,
            write_probability: 0.5,
            loop_probability: 0.2,
            optional_probability: 0.2,
            seed,
        });
        let session = RobustnessSession::new(workload);
        assert_agree(&session, AnalysisSettings::paper_default());
        assert_agree(
            &session,
            AnalysisSettings::baseline(mvrc_robustness::Granularity::Attribute, true),
        );
        // An absurd threshold forces the serial path even on the larger workload; the result
        // must not depend on the fan-out decision.
        let serial = explore_subsets_with(
            &session,
            AnalysisSettings::paper_default(),
            ExploreOptions {
                parallel_threshold: usize::MAX,
                ..ExploreOptions::default()
            },
        );
        assert_eq!(
            serial.robust,
            explore_subsets(&session, AnalysisSettings::paper_default()).robust
        );
    }
}

#[test]
fn paper_benchmarks_agree_across_the_evaluation_grid() {
    for workload in [
        smallbank(),
        tpcc(),
        auction(),
        ycsb_t(YcsbtConfig::default()),
    ] {
        let session = RobustnessSession::new(workload);
        for condition in [CycleCondition::TypeII, CycleCondition::TypeI] {
            for settings in AnalysisSettings::evaluation_grid(condition) {
                assert_agree(&session, settings);
            }
        }
    }
}

#[test]
fn bitsliced_partial_batches_match_scalar_on_sub64_levels() {
    // Lane packing must be exact for batches smaller than 64: TPC-C's levels are all partial
    // (the largest, C(5, 3) or C(5, 2), holds 10 masks), while YCSB-T's 63 non-empty subsets
    // fill a single batch all but one lane. Under every strategy the two kernels must agree
    // on verdicts and counters alike.
    for workload in [tpcc(), ycsb_t(YcsbtConfig::default())] {
        let session = RobustnessSession::new(workload);
        for condition in [CycleCondition::TypeII, CycleCondition::TypeI] {
            let settings = AnalysisSettings {
                condition,
                ..AnalysisSettings::paper_default()
            };
            for strategy in [
                SweepStrategy::Streamed,
                SweepStrategy::Materialized,
                SweepStrategy::Sharded,
            ] {
                let run = |kernel| {
                    explore_subsets_with(
                        &session,
                        settings,
                        ExploreOptions {
                            strategy,
                            kernel: Some(kernel),
                            ..ExploreOptions::default()
                        },
                    )
                };
                let bitsliced = run(SweepKernel::BitSliced);
                let scalar = run(SweepKernel::Scalar);
                assert_eq!(
                    bitsliced.robust, scalar.robust,
                    "kernels disagree under {settings} / {strategy:?}"
                );
                assert_eq!(bitsliced.maximal, scalar.maximal);
                assert_eq!(bitsliced.cycle_tests, scalar.cycle_tests);
                assert_eq!(bitsliced.pruned, scalar.pruned);
            }
        }
    }
}

#[test]
fn closure_pruning_saves_cycle_tests_on_tpcc() {
    // TPC-C, attr dep + FK: {Pay, OS, SL} and {NO, Pay} are robust (Figure 6), so their
    // subsets are inherited by Proposition 5.2 instead of tested.
    let session = RobustnessSession::new(tpcc());
    let exploration = explore_subsets(&session, AnalysisSettings::paper_default());
    let total = (1usize << session.program_names().len()) - 1;
    assert!(
        exploration.cycle_tests < total,
        "pruning must run strictly fewer cycle tests than the {total}-subset sweep, ran {}",
        exploration.cycle_tests
    );
    assert!(exploration.pruned > 0);
    assert_eq!(exploration.cycle_tests + exploration.pruned, total);
}

#[test]
fn streamed_sweep_never_buffers_a_level_even_when_parallel() {
    // Force the fan-out (TPC-C's 31 subsets sit below the default serial threshold): the sweep
    // runs across the pool and still must report zero materialized level masks — the
    // acceptance gauge for "explore_subsets no longer collects a popcount level into a Vec
    // before fanning out".
    let session = RobustnessSession::new(tpcc());
    let total = (1usize << session.program_names().len()) - 1;
    let parallel = ExploreOptions {
        parallel_threshold: 1,
        ..ExploreOptions::default()
    };
    let streamed = explore_subsets_with(&session, AnalysisSettings::paper_default(), parallel);
    assert_eq!(streamed.masks_buffered, 0);
    assert_eq!(
        streamed.robust,
        explore_subsets(&session, AnalysisSettings::paper_default()).robust,
        "forced fan-out must not change the verdicts"
    );

    // The materializing oracle on the same sweep buffers every level, and agrees on content.
    let materialized = explore_subsets_with(
        &session,
        AnalysisSettings::paper_default(),
        ExploreOptions {
            strategy: SweepStrategy::Materialized,
            ..parallel
        },
    );
    assert_eq!(materialized.masks_buffered, total);
    assert_eq!(streamed.robust, materialized.robust);
    assert_eq!(streamed.cycle_tests, materialized.cycle_tests);
}

#[test]
fn parallelism_pins_do_not_change_results() {
    // The verdicts (and the pruning counters, which are scheduling-independent because levels
    // are barrier-separated) must not depend on how much of the pool the sweep may use —
    // whether pinned per call or per session.
    let session = RobustnessSession::new(tpcc());
    let settings = AnalysisSettings::paper_default();
    let reference = explore_subsets(&session, settings);
    for parallelism in [
        Parallelism::Serial,
        Parallelism::Threads(1),
        Parallelism::Threads(2),
        Parallelism::Threads(usize::MAX),
        Parallelism::Auto,
    ] {
        for kernel in [SweepKernel::BitSliced, SweepKernel::Scalar] {
            let pinned = explore_subsets_with(
                &session,
                settings,
                ExploreOptions {
                    parallelism,
                    kernel: Some(kernel),
                    ..ExploreOptions::default()
                },
            );
            assert_eq!(
                pinned.robust, reference.robust,
                "under {parallelism:?} / {kernel:?}"
            );
            assert_eq!(pinned.cycle_tests, reference.cycle_tests);
            assert_eq!(pinned.pruned, reference.pruned);

            let session_pinned = RobustnessSession::new(tpcc())
                .with_parallelism(parallelism)
                .with_sweep_kernel(kernel);
            assert_eq!(session_pinned.parallelism(), parallelism);
            assert_eq!(session_pinned.sweep_kernel(), kernel);
            let via_session = explore_subsets(&session_pinned, settings);
            assert_eq!(
                via_session.robust, reference.robust,
                "under {parallelism:?} / {kernel:?}"
            );
        }
    }
}

#[test]
fn session_constructs_exactly_one_graph_per_shape_combination() {
    let workload = smallbank();
    let subsets_per_run = (1usize << workload.programs.len()) - 1;
    let session = RobustnessSession::new(workload);

    for settings in AnalysisSettings::evaluation_grid(CycleCondition::TypeII) {
        let before = SummaryGraph::constructions_on_current_thread();
        let exploration = explore_subsets(&session, settings);
        let after = SummaryGraph::constructions_on_current_thread();
        assert!(exploration.robust.len() <= subsets_per_run);
        assert_eq!(
            after - before,
            1,
            "explore_subsets must construct exactly one summary graph under {settings}"
        );
    }

    // Re-running any sweep hits the session cache: zero further constructions.
    let before = SummaryGraph::constructions_on_current_thread();
    explore_subsets(&session, AnalysisSettings::paper_default());
    explore_subsets(
        &session,
        AnalysisSettings::baseline(mvrc_robustness::Granularity::Attribute, true),
    );
    assert_eq!(SummaryGraph::constructions_on_current_thread(), before);

    // The retained naive oracle really does reconstruct one graph per subset — the comparison
    // the Criterion bench `subset_exploration` measures.
    let before = SummaryGraph::constructions_on_current_thread();
    explore_subsets_naive(&session, AnalysisSettings::paper_default());
    let after = SummaryGraph::constructions_on_current_thread();
    assert_eq!(after - before, subsets_per_run as u64);
}

#[test]
fn larger_synthetic_workloads_agree_with_exhaustive_and_naive() {
    // 8–12 programs: levels span several verdict words and the two-ended order switches ends
    // mid-sweep, so both inheritance directions and the word-parallel predicate's in-word and
    // cross-word shifts are exercised against the exhaustive and naive oracles.
    for (programs, seed) in [(8usize, 11u64), (10, 0xC0FFEE), (12, 5)] {
        let workload = synthetic(SyntheticConfig {
            programs,
            statements_per_program: 2,
            seed,
            ..SyntheticConfig::default()
        });
        let session = RobustnessSession::new(workload);
        assert_agree(&session, AnalysisSettings::paper_default());
    }
}

/// A workload of `n` programs over one table, each program the given SQL body.
fn sql_family(n: usize, body: &str) -> RobustnessSession {
    let mut text = String::from("SCHEMA Family;\nTABLE Counter (Id, Value, PRIMARY KEY (Id));\n");
    for i in 0..n {
        text.push_str(&format!("PROGRAM P{i}(:I, :V) {{\n{body}\n}}\n"));
    }
    let (schema, programs) = parse_workload_file(&text).unwrap();
    RobustnessSession::new(Workload::new("Family", schema, programs, &[]))
}

#[test]
fn extreme_workloads_from_sql_decide_in_linear_cycle_tests() {
    let n = 10;
    let total = (1usize << n) - 1;
    // Read-only: every subset is robust. The top level's single test decides the full set,
    // and every lower level inherits robustness from the level above.
    let readers = sql_family(n, "SELECT Value FROM Counter WHERE Id = :I;");
    let read_only = explore_subsets(&readers, AnalysisSettings::paper_default());
    assert_eq!(read_only.robust.len(), total);
    assert!(read_only.cycle_tests <= n + 1, "{}", read_only.cycle_tests);
    assert_eq!(read_only.cycle_tests + read_only.pruned, total);
    // Lost updates: every program alone is non-robust, so no subset is robust. After the top
    // level and its n-program neighbour, the n singletons are tested and every level above
    // them inherits non-robustness.
    let writers = sql_family(
        n,
        "SELECT Value FROM Counter WHERE Id = :I;\nUPDATE Counter SET Value = :V WHERE Id = :I;",
    );
    let lost_updates = explore_subsets(&writers, AnalysisSettings::paper_default());
    assert!(lost_updates.robust.is_empty());
    assert!(
        lost_updates.cycle_tests <= 2 * n + 1,
        "{}",
        lost_updates.cycle_tests
    );
    assert_eq!(lost_updates.cycle_tests + lost_updates.pruned, total);
    for session in [&readers, &writers] {
        assert_agree(session, AnalysisSettings::paper_default());
    }
}

#[test]
fn two_ended_counts_are_pinned_on_the_paper_benchmarks() {
    // (benchmark, cycle tests, pruned) under the paper's default settings. A top-down-only
    // sweep ran 24/7 on SmallBank and TPC-C, 49/14 on YCSB-T and 1/2 on Auction.
    let settings = AnalysisSettings::paper_default();
    for (workload, cycle_tests, pruned) in [
        (smallbank(), 19, 12),
        (tpcc(), 18, 13),
        (ycsb_t(YcsbtConfig::default()), 24, 39),
        (auction(), 1, 2),
    ] {
        let name = workload.name.clone();
        let exploration = explore_subsets(&RobustnessSession::new(workload), settings);
        assert_eq!(
            (exploration.cycle_tests, exploration.pruned),
            (cycle_tests, pruned),
            "{name}"
        );
    }
}
