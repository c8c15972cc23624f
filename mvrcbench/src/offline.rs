//! `offline-mix`: the offline user's four operations in one closed loop.
//!
//! Operations rotate through the four roles: a cold `check` of Auction(100) (`verdict`), an
//! `open` of its snapshot (`state`), a `sweep` of a generated 14-program file (`sweep`) and a
//! `certify` of a non-robust subset of a bundled benchmark (`report`). One loop carries both
//! the paper's scaling point (Figure 8) and its subset sweep (Figures 6–7), so each run spends
//! its whole length on each of them.

use std::time::Instant;

use crate::climix::CliMix;
use crate::fig8::Fig8;
use crate::harness::{self, Config, Op, Outcome, ROLES};

pub fn run(cfg: &Config) -> Outcome {
    let mut outcome = Outcome {
        labels: ["check", "open", "sweep", "certify"],
        ..Outcome::default()
    };
    let mut set_up = None;
    for _ in 0..harness::SETUP_REPEATS {
        let start = Instant::now();
        let fig8 = Fig8::set_up(cfg, &mut outcome);
        let cli = CliMix::set_up(cfg, &mut outcome);
        outcome.setup_s.push(start.elapsed().as_secs_f64());
        set_up = Some((fig8, cli));
    }
    let Some((fig8, cli)) = set_up else {
        return outcome;
    };
    if !outcome.problems.is_empty() {
        return outcome;
    }

    let op = |index: u64| -> Op {
        let role = index as usize % ROLES;
        let slot = index as usize / ROLES;
        match role {
            0 => fig8.check(role),
            1 => fig8.open(role, slot),
            2 => cli.sweep(role, slot),
            _ => cli.certify(role, slot),
        }
    };
    // One untimed operation of each role first, so lazy set-up is not timed.
    for index in 0..ROLES as u64 {
        op(index);
    }
    harness::run_single_client(cfg, &mut outcome, op);
    outcome.peak_rss_mb = harness::peak_rss_mb("self").unwrap_or(0.0);
    outcome
}
