//! The offline command-line user's path, as two operations of `offline-mix`: a `sweep` —
//! `parse_workload_file` on a generated 14-program file, then `RobustnessSession::new`, then
//! `explore_subsets`, i.e. `mvrc subsets --threads 1 file.sql` without the process spawn — and
//! a `certify` of a seeded non-robust subset of SmallBank, TPC-C or YCSB-T.
//!
//! Sweep verdicts are checked against a reference computed during set-up on another path:
//! for a seeded sample of subsets per file, a summary graph built from only that subset's
//! programs and tested by the naive Algorithm 2.

use std::collections::HashSet;

use mvrc_benchmarks::{smallbank, tpcc, ycsb_t, YcsbtConfig};
use mvrc_btp::sql::parse_workload_file;
use mvrc_btp::Workload;
use mvrc_hist::{certify_subset, CertifyOutcome};
use mvrc_par::Parallelism;
use mvrc_robustness::{
    explore_subsets, find_type2_violation_naive, AnalysisSettings, RobustnessSession,
};

use crate::gen;
use crate::harness::{timed, Config, Op, Outcome};
use crate::rng::Rng;
use crate::trace::{self, span};

/// Generated files per run; sweeps cycle through them, so a run's percentiles cover many
/// seeds' worth of workload shapes.
const FILES: usize = 64;
/// Programs per generated file.
const PROGRAMS: usize = 14;
/// Tables per generated file.
const TABLES: usize = 6;
/// Subsets per file whose verdict the reference decides.
const SAMPLES: usize = 24;

/// A generated file and the reference verdicts of its sampled subsets.
struct SweepInput {
    text: String,
    samples: Vec<(u64, bool)>,
}

/// A non-robust subset of a bundled benchmark.
struct CertifyInput {
    bench: usize,
    programs: Vec<String>,
}

/// The command-line half of `offline-mix`: generated files with their reference verdicts, and
/// the certification pool.
pub struct CliMix {
    inputs: Vec<SweepInput>,
    sessions: Vec<(RobustnessSession, String)>,
    pool: Vec<CertifyInput>,
    picks: Vec<usize>,
}

impl CliMix {
    /// Generates and self-checks the files, decides the reference verdicts and collects every
    /// non-robust subset of the bundled benchmarks. A run whose set-up reported a problem runs
    /// no operation.
    pub fn set_up(cfg: &Config, outcome: &mut Outcome) -> CliMix {
        let settings = AnalysisSettings::paper_default();
        let inputs = sweep_inputs(cfg.seed, settings, &mut outcome.problems);
        let (sessions, pool) = certify_inputs(settings);
        if inputs.is_empty() {
            outcome
                .problems
                .push("no generated file to sweep".to_string());
        }
        if pool.is_empty() {
            outcome
                .problems
                .push("no non-robust subset to certify".to_string());
        }
        let mut rng = Rng::new(cfg.seed ^ 0xC3E7);
        let picks = (0..1024)
            .map(|_| rng.below(pool.len().max(1) as u64) as usize)
            .collect();
        CliMix {
            inputs,
            sessions,
            pool,
            picks,
        }
    }

    /// The `slot`-th sweep; sweeps cycle through the generated files.
    pub fn sweep(&self, role: usize, slot: usize) -> Op {
        let settings = AnalysisSettings::paper_default();
        let input = &self.inputs[slot % self.inputs.len()];
        let ((session, exploration), micros) = timed(|| sweep(&input.text, settings));
        let ok = sweep_matches(&exploration, &input.samples);
        if trace::enabled() {
            // A second sweep over the now-built graph, its own root span outside the timed
            // op: first − warm is the derivation cost.
            let (warm, warm_us) =
                timed(|| span("subsets.warm_sweep", || explore_subsets(&session, settings)));
            let subsets = (1u64 << exploration.programs.len()) - 1;
            trace::count("subsets.cycle_tests", warm.cycle_tests as f64);
            trace::count("subsets.pruned_ratio", warm.pruned as f64 / subsets as f64);
            trace::count(
                "subsets.us_per_test",
                warm_us / warm.cycle_tests.max(1) as f64,
            );
        }
        Op { role, micros, ok }
    }

    /// The `slot`-th certification of a seeded non-robust subset.
    pub fn certify(&self, role: usize, slot: usize) -> Op {
        let settings = AnalysisSettings::paper_default();
        let input = &self.pool[self.picks[slot % self.picks.len()]];
        let (session, label) = &self.sessions[input.bench];
        let names: Vec<&str> = input.programs.iter().map(String::as_str).collect();
        let (result, micros) = timed(|| {
            span("certify", || {
                span("hist.certify", || {
                    certify_subset(session, label, &names, settings)
                })
            })
        });
        let ok = match result {
            Ok(CertifyOutcome::Certified(c)) => {
                trace::count(
                    "hist.interleaving_steps",
                    c.realization.interleaving.len() as f64,
                );
                trace::count("hist.instances", c.realization.instances.len() as f64);
                !c.robust && c.realization.find_anomaly_agrees
            }
            _ => false,
        };
        Op { role, micros, ok }
    }
}

/// One sweep, as `mvrc subsets file.sql` runs it.
fn sweep(
    text: &str,
    settings: AnalysisSettings,
) -> (RobustnessSession, mvrc_robustness::SubsetExploration) {
    span("sweep", || {
        let (schema, programs) =
            span("btp.parse", || parse_workload_file(text)).expect("checked during set-up");
        let name = schema.name().to_string();
        let workload = Workload::new(name, schema, programs, &[]);
        // One strand, as `mvrc subsets --threads 1` runs it: a sweep over the pool would time
        // how the host schedules the second virtual CPU against its other tenants.
        let session = span("btp.unfold", || {
            RobustnessSession::new(workload).with_parallelism(Parallelism::Serial)
        });
        trace::count("btp.ltps", session.ltps().len() as f64);
        let exploration = span("subsets.first_sweep", || {
            explore_subsets(&session, settings)
        });
        (session, exploration)
    })
}

/// Whether a sweep accounts for every subset exactly once and agrees with every reference
/// verdict.
fn sweep_matches(
    exploration: &mvrc_robustness::SubsetExploration,
    samples: &[(u64, bool)],
) -> bool {
    let n = exploration.programs.len();
    let robust: HashSet<u64> = exploration
        .robust
        .iter()
        .map(|subset| subset.iter().fold(0u64, |m, &i| m | 1 << i))
        .collect();
    exploration.cycle_tests + exploration.pruned + exploration.reused == (1usize << n) - 1
        && samples
            .iter()
            .all(|&(mask, verdict)| robust.contains(&mask) == verdict)
}

/// Generates the run's files and decides the reference verdicts.
fn sweep_inputs(
    seed: u64,
    settings: AnalysisSettings,
    problems: &mut Vec<String>,
) -> Vec<SweepInput> {
    let mut rng = Rng::new(seed);
    (0..FILES)
        .filter_map(|_| {
            let file_seed = rng.next_u64();
            let generated = match gen::self_check(file_seed, TABLES, PROGRAMS) {
                Ok(generated) => generated,
                Err(e) => {
                    problems.push(e);
                    return None;
                }
            };
            let (schema, programs) =
                parse_workload_file(&generated.text).expect("self-check parsed it");
            let samples = (0..SAMPLES)
                .map(|_| {
                    let mask = 1 + rng.below((1 << PROGRAMS) - 1);
                    let subset: Vec<_> = (0..PROGRAMS)
                        .filter(|i| mask & 1 << i != 0)
                        .map(|i| programs[i].clone())
                        .collect();
                    let graph = RobustnessSession::from_programs(&schema, &subset).graph(settings);
                    (mask, find_type2_violation_naive(&graph).is_none())
                })
                .collect();
            Some(SweepInput {
                text: generated.text,
                samples,
            })
        })
        .collect()
}

/// Sessions over the bundled benchmarks and every non-robust subset of them.
fn certify_inputs(
    settings: AnalysisSettings,
) -> (Vec<(RobustnessSession, String)>, Vec<CertifyInput>) {
    let mut sessions = Vec::new();
    let mut pool = Vec::new();
    for (bench, workload) in [smallbank(), tpcc(), ycsb_t(YcsbtConfig::default())]
        .into_iter()
        .enumerate()
    {
        let session = RobustnessSession::new(workload);
        let exploration = explore_subsets(&session, settings);
        let n = exploration.programs.len();
        for mask in 1usize..(1 << n) {
            let subset: Vec<usize> = (0..n).filter(|i| mask & 1 << i != 0).collect();
            if !exploration.robust.contains(&subset) {
                pool.push(CertifyInput {
                    bench,
                    programs: subset
                        .iter()
                        .map(|&i| exploration.programs[i].clone())
                        .collect(),
                });
            }
        }
        let label = session.workload().name.clone();
        sessions.push((session, label));
    }
    (sessions, pool)
}
