//! The paper's Figure 8 scaling point, Auction(100), as two operations of `offline-mix`: a
//! cold robustness `check` — `RobustnessSession::new` → `graph` → `find_type2_violation` over
//! 300 nodes and 90,800 edges — and an `open` of the Auction(100) snapshot saved during set-up
//! followed by `analyze_programs` on a seeded `{FindBids_i, PlaceBid_j}` pair.

use std::hint::black_box;
use std::path::{Path, PathBuf};

use mvrc_benchmarks::auction_n;
use mvrc_btp::Workload;
use mvrc_robustness::{find_type2_violation, AnalysisSettings, RobustnessSession};

use crate::harness::{timed, Config, Op, Outcome};
use crate::rng::Rng;
use crate::trace::{self, span};

/// Items of the Auction workload: `3n` nodes, `9n² + 8n` edges, `n` counterflow edges
/// (Table 2 of the paper).
const N: usize = 100;

/// The Auction(100) half of `offline-mix`: the workload, its snapshot and the seeded pairs.
pub struct Fig8 {
    workload: Workload,
    snapshot: PathBuf,
    fingerprint: u64,
    pairs: Vec<(String, String)>,
}

impl Fig8 {
    /// Builds Auction(100), checks it once and saves its snapshot.
    pub fn set_up(cfg: &Config, outcome: &mut Outcome) -> Fig8 {
        let settings = AnalysisSettings::paper_default();
        let workload = auction_n(N);
        let snapshot = cfg.work.join("auction100.mvrcsnap");
        let session = RobustnessSession::new(workload.clone());
        if find_type2_violation(&session.graph(settings)).is_some() {
            outcome
                .problems
                .push("Auction(100) is not robust".to_string());
        }
        let (saved, save_us) = timed(|| mvrc_dist::save_snapshot(&session, &snapshot));
        let fingerprint = saved.unwrap_or_else(|e| {
            outcome.problems.push(format!("snapshot save: {e}"));
            0
        });
        outcome.extra.push(("dist.save_ms", save_us / 1e3));
        let bytes = std::fs::metadata(&snapshot).map_or(0, |m| m.len());
        outcome.extra.push(("dist.snapshot_bytes", bytes as f64));

        let mut rng = Rng::new(cfg.seed);
        let pairs = (0..1024)
            .map(|_| {
                (
                    format!("FindBids{}", 1 + rng.below(N as u64)),
                    format!("PlaceBid{}", 1 + rng.below(N as u64)),
                )
            })
            .collect();
        Fig8 {
            workload,
            snapshot,
            fingerprint,
            pairs,
        }
    }

    /// One cold check of Auction(100).
    pub fn check(&self, role: usize) -> Op {
        let (ok, micros) = timed(|| check(&self.workload, AnalysisSettings::paper_default()));
        Op { role, micros, ok }
    }

    /// The `slot`-th open. In the traced run every other open takes the owned-decode path,
    /// so the trace compares the zero-copy open with the decode on the same snapshot.
    pub fn open(&self, role: usize, slot: usize) -> Op {
        let decode = trace::enabled() && slot % 2 == 1;
        let (find, place) = &self.pairs[slot % self.pairs.len()];
        let (ok, micros) = timed(|| open(&self.snapshot, self.fingerprint, find, place, decode));
        Op { role, micros, ok }
    }
}

/// One cold check; `true` when the verdict and the graph's shape are as Table 2 says.
fn check(workload: &Workload, settings: AnalysisSettings) -> bool {
    span("check", || {
        let workload = workload.clone();
        let session = span("btp.unfold", || RobustnessSession::new(workload));
        let graph = span("summary.construct", || session.graph(settings));
        if trace::enabled() {
            // The same derived arrays the cycle test builds lazily, forced one layer at a time.
            span("summary.csr", || {
                black_box(graph.out_adjacency());
                black_box(graph.in_adjacency());
            });
            span("summary.closure", || {
                black_box(graph.reachability_words()).0
            });
            trace::count("summary.nodes", graph.node_count() as f64);
            trace::count("summary.edges", graph.edge_count() as f64);
        }
        let violation = span("algorithm.type2", || find_type2_violation(&graph));
        violation.is_none()
            && graph.node_count() == 3 * N
            && graph.edge_count() == 9 * N * N + 8 * N
            && graph.counterflow_edge_count() == N
    })
}

/// One snapshot open plus the first query on it; `true` when the fingerprint matches and the
/// pair is attested robust on its three LTP nodes.
fn open(snapshot: &Path, fingerprint: u64, find: &str, place: &str, decode: bool) -> bool {
    span("open", || {
        let opened = if decode {
            span("dist.decode_open", || {
                let bytes = std::fs::read(snapshot).map_err(|e| e.to_string())?;
                mvrc_dist::session_from_snapshot_bytes(&bytes).map_err(|e| e.to_string())
            })
        } else {
            span("dist.open", || {
                mvrc_dist::open_snapshot(snapshot).map_err(|e| e.to_string())
            })
        };
        let Ok((session, fp)) = opened else {
            return false;
        };
        let report = span("dist.first_query", || {
            session.analyze_programs(&[find, place], AnalysisSettings::paper_default())
        });
        fp == fingerprint
            && report.is_ok_and(|r| r.outcome.robust && r.node_count == 3 && r.edge_count > 0)
    })
}
