//! `mvrcbench` — the repository's benchmark of the MVRC robustness analyzer.
//!
//! ```text
//! mvrcbench --workload <offline-mix|serve-rw> --seed <n> --seconds <s> --trace <0|1>
//! mvrcbench mvrc <args…>    run the `mvrc` CLI in this process (the serve-rw daemon)
//! ```
//!
//! A timed run (`--trace 0`) prints every end-to-end metric; a traced run (`--trace 1`) prints
//! every per-layer metric. Human-readable lines come first; the last line of standard output
//! is one JSON object `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod climix;
mod fig8;
mod gen;
mod harness;
mod layers;
mod offline;
mod rng;
mod serve_rw;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{
    interdecile_mean, median, per_second_counts, quantile, windowed_median, Config, Outcome,
    ROLE_METRICS, WINDOWS,
};

const USAGE: &str = "usage: mvrcbench --workload <offline-mix|serve-rw> --seed <n> \
                     --seconds <s> --trace <0|1>\n       mvrcbench mvrc <mvrc arguments…>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("mvrc") => run_mvrc(&args[1..]),
        _ => match parse_config(&args) {
            Ok((workload, cfg)) => bench(&workload, &cfg),
            Err(message) => usage_error(&message),
        },
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("mvrcbench: {message}\n{USAGE}");
    ExitCode::from(2)
}

/// The `mvrc` CLI, in this process (exactly what the `mvrc` binary's `main` does).
fn run_mvrc(args: &[String]) -> ExitCode {
    match mvrc_cli::run(args) {
        Ok(output) => {
            print!("{}", output.text);
            ExitCode::from(output.exit_code as u8)
        }
        Err(err) => {
            eprintln!("mvrc: {err}");
            ExitCode::from(2)
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_config(args: &[String]) -> Result<(String, Config), String> {
    let workload = flag(args, "--workload").ok_or("missing --workload")?;
    if !["offline-mix", "serve-rw"].contains(&workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let number = |name: &str| -> Result<u64, String> {
        flag(args, name)
            .ok_or(format!("missing {name}"))?
            .parse()
            .map_err(|_| format!("{name} needs a whole number"))
    };
    let seed = number("--seed")?;
    let seconds = number("--seconds")?;
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace is 0 or 1".to_string()),
    };
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    // Scratch files live under the benchmark's own directory in the checkout.
    let work = PathBuf::from("mvrcbench").join("work");
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    Ok((
        workload.to_string(),
        Config {
            seed,
            seconds: seconds as f64,
            trace,
            work,
        },
    ))
}

fn bench(workload: &str, cfg: &Config) -> ExitCode {
    let outcome = match workload {
        "offline-mix" => offline::run(cfg),
        _ => serve_rw::run(cfg),
    };
    for problem in &outcome.problems {
        eprintln!("mvrcbench: {problem}");
    }
    let mut log = outcome.untraced.clone();
    log.merge(outcome.traced.clone());
    let attempted = log.attempted.max(1);
    let correct = outcome.problems.is_empty() && log.failed == 0 && log.attempted > 0;

    let metrics = if cfg.trace {
        let trace_path = cfg.work.join(format!("trace-{workload}.jsonl"));
        if let Err(e) = trace::write_jsonl(&trace_path, &outcome.recordings) {
            eprintln!("mvrcbench: writing {}: {e}", trace_path.display());
        }
        println!("spans written to {}", trace_path.display());
        layers::metrics(&outcome)
    } else {
        end_to_end(&outcome, attempted, log.failed)
    };
    for (name, value, unit, note) in &metrics {
        println!("{name:<32} {value:>16.4} {unit:<6} {note}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit, _)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        log.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// A metric row: name, value, unit and a note naming what was measured and on how many
/// samples.
pub type Metric = (&'static str, f64, &'static str, String);

fn end_to_end(outcome: &Outcome, attempted: u64, failed: u64) -> Vec<Metric> {
    let log = &outcome.untraced;
    let mut rows: Vec<Metric> = Vec::new();
    rows.push((
        "setup_s",
        median(&outcome.setup_s).unwrap_or(0.0),
        "s",
        format!("median of {} set-ups", outcome.setup_s.len()),
    ));
    for (role, ((mean_name, p90_name), label)) in
        ROLE_METRICS.into_iter().zip(outcome.labels).enumerate()
    {
        let (values, done_s) = (&log.us[role], &log.done_s[role]);
        let windowed = |estimate: fn(&[f64]) -> Option<f64>| {
            windowed_median(values, done_s, log.elapsed_s, estimate).unwrap_or(0.0)
        };
        rows.push((
            mean_name,
            windowed(interdecile_mean),
            "us",
            format!(
                "{label} mean of p10..p90, median of {WINDOWS} windows, n={}",
                values.len()
            ),
        ));
        rows.push((
            p90_name,
            windowed(|v| quantile(v, 0.9)),
            "us",
            format!(
                "{label} p90, median of {WINDOWS} windows, n={}",
                values.len()
            ),
        ));
        // Shown but not a bounded metric: see README.md, "End-to-end metrics".
        println!(
            "{label} p50 {:.1} us, mean {:.1} us (n={})",
            median(values).unwrap_or(0.0),
            values.iter().sum::<f64>() / values.len().max(1) as f64,
            values.len()
        );
    }
    let per_second = per_second_counts(log.done_s.iter().flatten(), log.elapsed_s);
    rows.push((
        "ops_per_s",
        interdecile_mean(&per_second).unwrap_or(0.0),
        "1/s",
        format!(
            "mean of p10..p90 over {} whole seconds; {} ops in {:.3} s overall",
            per_second.len(),
            log.attempted,
            log.elapsed_s
        ),
    ));
    rows.push((
        "ok_ratio",
        1.0 - failed as f64 / attempted as f64,
        "ratio",
        format!("{failed} of {attempted} ops failed"),
    ));
    rows.push((
        "peak_rss_mb",
        outcome.peak_rss_mb,
        "MiB",
        "VmHWM of the process doing the work".to_string(),
    ));
    rows
}
