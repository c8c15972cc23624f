//! Pins the exact type-II witness — all three edges — that [`find_type2_violation`] returns on
//! the full SmallBank, TPC-C and YCSB-T summary graphs and on non-robust program subsets of
//! them.
//!
//! The witness is part of every user-visible output that reports a type-II cycle (`mvrc check
//! --json`, lint diagnostics, certification), so a rewrite of the search must keep it
//! byte-identical, not merely keep the verdict. Each edge renders as
//! `from.from_stmt -> to.to_stmt` (node ids and statement positions of the full graph), with
//! `~>` marking the counterflow edge.

use mvrc_benchmarks::{smallbank, tpcc, ycsb_t, YcsbtConfig};
use mvrc_robustness::{
    find_type2_violation, find_type2_violation_in, AnalysisSettings, RobustnessSession,
    SummaryEdge, Type2Witness,
};

fn edge(e: &SummaryEdge) -> String {
    let arrow = if e.kind.is_counterflow() { "~>" } else { "->" };
    format!("{}.{} {arrow} {}.{}", e.from, e.from_stmt, e.to, e.to_stmt)
}

fn render(w: Option<Type2Witness>) -> String {
    w.map_or_else(
        || "robust".to_string(),
        |w| {
            format!(
                "{} | {} | {}",
                edge(&w.non_counterflow_edge),
                edge(&w.middle_edge),
                edge(&w.counterflow_edge)
            )
        },
    )
}

/// `(program subset, expected witness)`; an empty subset means the full graph.
fn assert_pins(session: &RobustnessSession, pins: &[(&[&str], &str)]) {
    let graph = session.graph(AnalysisSettings::paper_default());
    for &(programs, want) in pins {
        let got = if programs.is_empty() {
            render(find_type2_violation(&graph))
        } else {
            let view = graph
                .induced_for_programs(programs)
                .expect("pinned programs exist");
            render(find_type2_violation_in(&view))
        };
        assert_eq!(
            got,
            want,
            "{} {programs:?}: type-II witness changed",
            session.workload().name
        );
    }
}

#[test]
fn smallbank_witnesses_are_pinned() {
    assert_pins(
        &RobustnessSession::new(smallbank()),
        &[
            (&[], "0.2 -> 0.2 | 0.3 -> 1.2 | 1.1 ~> 0.2"),
            (&["WriteCheck"], "4.2 -> 4.3 | 4.2 -> 4.3 | 4.2 ~> 4.3"),
            (
                &["Balance", "DepositChecking", "TransactSavings"],
                "1.2 -> 2.1 | 2.1 -> 1.2 | 1.1 ~> 3.1",
            ),
            (
                &["Balance", "TransactSavings", "WriteCheck"],
                "1.1 -> 3.1 | 4.3 -> 1.2 | 1.1 ~> 3.1",
            ),
            (&["Balance", "DepositChecking"], "robust"),
        ],
    );
}

#[test]
fn tpcc_witnesses_are_pinned() {
    assert_pins(
        &RobustnessSession::new(tpcc()),
        &[
            (&[], "0.2 -> 0.2 | 1.7 -> 7.2 | 7.1 ~> 0.3"),
            (
                &["Payment", "Delivery"],
                "3.0 -> 3.0 | 3.3 -> 10.6 | 10.0 ~> 10.1",
            ),
            (
                &["OrderStatus", "Delivery"],
                "7.0 -> 10.6 | 10.3 -> 7.1 | 7.0 ~> 10.6",
            ),
            (
                &["Payment", "OrderStatus", "Delivery"],
                "3.0 -> 3.0 | 10.3 -> 7.1 | 7.0 ~> 3.3",
            ),
            (
                &["NewOrder", "StockLevel"],
                "0.2 -> 0.2 | 1.6 -> 12.2 | 12.0 ~> 0.2",
            ),
        ],
    );
}

#[test]
fn ycsbt_witnesses_are_pinned() {
    assert_pins(
        &RobustnessSession::new(ycsb_t(YcsbtConfig::default())),
        &[
            (&[], "1.0 -> 1.1 | 1.0 -> 1.1 | 1.0 ~> 1.1"),
            (
                &["ReadModifyWrite1", "Update0", "Scan0"],
                "2.0 -> 2.1 | 2.0 -> 2.1 | 2.0 ~> 2.1",
            ),
            (&["Read0", "Update0", "Scan0", "Insert0"], "robust"),
        ],
    );
}
