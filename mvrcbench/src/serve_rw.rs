//! `serve-rw`: reads beside edits on a `mvrc serve` daemon.
//!
//! The daemon runs as its own process (this binary's `mvrc serve`), booted warm from
//! snapshots written during set-up. Its tenants are SmallBank (`crates/cli/workloads/
//! smallbank.sql`) and one generated 5-program file. Two connections, one client thread
//! each, send a closed-loop mix of about 90 % reads (`is_robust`, `analyze`,
//! `explore_subsets`, on either tenant) and 10 % edits. Connection 0 edits SmallBank and
//! connection 1 the generated tenant; each edit alternately removes and re-adds the
//! connection's seeded program, so every tenant oscillates between two states.
//!
//! The roles are `is_robust` (`verdict`), edits (`state`), `explore_subsets` (`sweep`) and
//! `analyze` (`report`). Every reply must be `ok` and match a reference computed in process
//! during set-up for the tenant state it reports.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use mvrc_btp::sql::{parse_program, parse_workload_file};
use mvrc_btp::Workload;
use mvrc_robustness::{explore_subsets, AnalysisSettings, RobustnessSession};
use mvrc_serve::Client;
use serde_json::{json, Value};

use crate::gen;
use crate::harness::{self, timed, Config, Op, OpLog, Outcome};
use crate::rng::Rng;
use crate::trace::{self, span};

const SMALLBANK_SQL: &str = "crates/cli/workloads/smallbank.sql";
const TENANTS: [&str; 2] = ["bank", "gen"];
/// Programs in the generated tenant, like SmallBank's five: a sweep fans out over the pool
/// once a workload has 2^n ≥ 64 subsets (`ExploreOptions::parallel_threshold`), and at five
/// programs every sweep stays serial, so the daemon's pool workers do not compete with the
/// two connections for the two cores and a read is the wire plus one serial query.
const GEN_PROGRAMS: usize = 5;
/// How long the daemon may take to boot.
const BOOT_DEADLINE: Duration = Duration::from_secs(30);

/// What a reply for one tenant state must say.
struct Expected {
    robust: bool,
    robust_subsets: usize,
    maximal: BTreeSet<Vec<String>>,
}

/// One tenant: its edit target and the reference answers of both states, keyed by the
/// state's sorted program names.
struct TenantRef {
    victim: String,
    victim_sql: String,
    /// In-process sessions of the full state and of the state without the victim.
    sessions: [RobustnessSession; 2],
    expected: BTreeMap<Vec<String>, Expected>,
}

impl TenantRef {
    fn state_of(&self, programs: &[String]) -> Option<usize> {
        let names = sorted(programs);
        (0..2).find(|&s| sorted(self.sessions[s].program_names()) == names)
    }

    fn expected(&self, state: usize) -> &Expected {
        &self.expected[&sorted(self.sessions[state].program_names())]
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let mut outcome = Outcome {
        labels: ["is_robust", "edit", "explore_subsets", "analyze"],
        ..Outcome::default()
    };
    let bank_text = match std::fs::read_to_string(SMALLBANK_SQL) {
        Ok(text) => text,
        Err(e) => {
            outcome
                .problems
                .push(format!("reading {SMALLBANK_SQL}: {e}"));
            return outcome;
        }
    };
    let mut setup = None;
    let mut daemon = None;
    for _ in 0..harness::SETUP_REPEATS {
        if let Some(previous) = daemon.take() {
            if let Err(e) = Daemon::stop(previous) {
                outcome.problems.push(e);
            }
        }
        let start = Instant::now();
        match set_up(cfg, &bank_text) {
            Ok((refs, booted)) => {
                setup = Some(refs);
                daemon = Some(booted);
            }
            Err(e) => {
                outcome.problems.push(e);
                return outcome;
            }
        }
        outcome.setup_s.push(start.elapsed().as_secs_f64());
    }
    let (Some(refs), Some(daemon)) = (setup, daemon) else {
        return outcome;
    };
    outcome.extra.push(("serve.boot_ms", daemon.boot_ms));

    let origin = Instant::now();
    let traced_from = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        f64::INFINITY
    };
    let results: Vec<Result<(OpLog, OpLog, trace::Recording), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|conn| {
                let refs = &refs;
                let addr = daemon.addr.clone();
                s.spawn(move || client_loop(cfg, conn, &addr, refs, origin, traced_from))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect()
    });
    for result in results {
        match result {
            Ok((untraced, traced, recording)) => {
                outcome.untraced.merge(untraced);
                outcome.traced.merge(traced);
                outcome.recordings.push(recording);
            }
            Err(e) => outcome.problems.push(e),
        }
    }

    match daemon_stats(&daemon.addr) {
        Ok((edits, builds)) => {
            outcome.extra.push(("serve.edits", edits));
            outcome
                .extra
                .push(("serve.post_boot_constructions", builds));
        }
        Err(e) => outcome.problems.push(e),
    }
    outcome.peak_rss_mb = harness::peak_rss_mb(&daemon.child.id().to_string()).unwrap_or(0.0);
    if let Err(e) = Daemon::stop(daemon) {
        outcome.problems.push(e);
    }
    outcome
}

/// Builds both tenants, their references and snapshots, and boots the daemon on them.
fn set_up(cfg: &Config, bank_text: &str) -> Result<([TenantRef; 2], Daemon), String> {
    let settings = AnalysisSettings::paper_default();
    let mut rng = Rng::new(cfg.seed ^ 0x5E4E);
    let generated = gen::self_check(rng.next_u64(), 6, GEN_PROGRAMS)?;
    let sources = [
        (bank_text.to_string(), None),
        (generated.text.clone(), Some(&generated)),
    ];
    let mut refs = Vec::new();
    let mut snapshots = Vec::new();
    for (tenant, (text, generated)) in TENANTS.iter().zip(sources) {
        let (schema, programs) =
            parse_workload_file(&text).map_err(|e| format!("{tenant}: {e}"))?;
        let name = schema.name().to_string();
        let session = RobustnessSession::new(Workload::new(name, schema, programs, &[]));
        let names = session.program_names().to_vec();
        let victim_index = rng.below(names.len() as u64) as usize;
        let victim = names[victim_index].clone();
        let victim_sql = match generated {
            Some(g) => g.blocks[victim_index].clone(),
            None => program_block(&text, &victim).ok_or(format!("{tenant}: no block {victim}"))?,
        };
        // Warm the session the daemon boots from: graphs, derived arrays and a sweep.
        session.is_robust(settings);
        explore_subsets(&session, settings);
        let path = cfg.work.join(format!("{tenant}.mvrcsnap"));
        mvrc_dist::save_snapshot(&session, &path).map_err(|e| format!("{tenant}: {e}"))?;
        snapshots.push(path);

        let mut without = session.clone();
        without
            .remove_program(&victim)
            .map_err(|e| format!("{tenant}: {e}"))?;
        let sessions = [session, without];
        let expected = sessions
            .iter()
            .map(|s| (sorted(s.program_names()), expect(s, settings)))
            .collect();
        refs.push(TenantRef {
            victim,
            victim_sql,
            sessions,
            expected,
        });
    }
    let refs: [TenantRef; 2] = refs.try_into().map_err(|_| "two tenants".to_string())?;
    let daemon = Daemon::boot(&cfg.work, &snapshots)?;
    Ok((refs, daemon))
}

fn expect(session: &RobustnessSession, settings: AnalysisSettings) -> Expected {
    let exploration = explore_subsets(session, settings);
    Expected {
        robust: session.is_robust(settings),
        robust_subsets: exploration.robust.len(),
        maximal: canonical(&exploration.programs, &exploration.maximal),
    }
}

/// Subsets as sorted name lists, so program order (which an edit changes) does not matter.
fn canonical(programs: &[String], subsets: &[Vec<usize>]) -> BTreeSet<Vec<String>> {
    subsets
        .iter()
        .map(|subset| {
            sorted(
                &subset
                    .iter()
                    .map(|&i| programs[i].clone())
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

fn sorted(names: &[String]) -> Vec<String> {
    let mut names = names.to_vec();
    names.sort();
    names
}

/// The `PROGRAM <name>(…) { … }` block of a workload file.
fn program_block(text: &str, name: &str) -> Option<String> {
    let start = text.find(&format!("PROGRAM {name}("))?;
    let end = start + text[start..].find("\n}")? + 2;
    Some(format!("{}\n", &text[start..end]))
}

/// The daemon process.
struct Daemon {
    child: Child,
    addr: String,
    boot_ms: f64,
}

impl Daemon {
    fn boot(work: &Path, snapshots: &[PathBuf]) -> Result<Daemon, String> {
        let port_file = work.join("serve.port");
        let _ = std::fs::remove_file(&port_file);
        let exe = std::env::current_exe().map_err(|e| format!("locating myself: {e}"))?;
        let start = Instant::now();
        let mut command = Command::new(exe);
        command.args(["mvrc", "serve", "--listen", "127.0.0.1:0", "--require-warm"]);
        for (tenant, path) in TENANTS.iter().zip(snapshots) {
            command
                .arg("--tenant")
                .arg(format!("{tenant}={}", path.display()));
        }
        command.arg("--port-file").arg(&port_file);
        let child = command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning the daemon: {e}"))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            boot_ms: 0.0,
        };
        loop {
            if start.elapsed() > BOOT_DEADLINE {
                return Err("the daemon did not answer in time".to_string());
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("the daemon exited during boot: {status}"));
            }
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if text.ends_with('\n') {
                    daemon.addr = text.trim().to_string();
                    let pong = Client::connect(&daemon.addr)
                        .ok()
                        .and_then(|mut c| c.call(&json!({"op": "ping"})).ok());
                    if pong == Some(json!("pong")) {
                        daemon.boot_ms = start.elapsed().as_secs_f64() * 1e3;
                        return Ok(daemon);
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Drains the daemon through the wire-level `shutdown` op and waits for it to exit.
    fn stop(mut daemon: Daemon) -> Result<(), String> {
        let _ = Client::connect(&daemon.addr).and_then(|mut c| {
            c.call(&json!({"op": "shutdown"}))
                .map(drop)
                .map_err(|e| std::io::Error::other(e.to_string()))
        });
        let status = daemon
            .child
            .wait()
            .map_err(|e| format!("waiting for the daemon: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("the daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached when a run bails out early; `stop` has already reaped a drained one.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn daemon_stats(addr: &str) -> Result<(f64, f64), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("stats: {e}"))?;
    let stats = client
        .call(&json!({"op": "stats"}))
        .map_err(|e| format!("stats: {e}"))?;
    let rows = stats["tenants"].as_array().cloned().unwrap_or_default();
    let sum = |field: &str| rows.iter().filter_map(|r| r[field].as_f64()).sum::<f64>();
    Ok((sum("edits"), sum("graph_builds")))
}

/// One connection's closed loop. Returns its untraced and traced logs and its spans.
fn client_loop(
    cfg: &Config,
    conn: usize,
    addr: &str,
    refs: &[TenantRef; 2],
    origin: Instant,
    traced_from: f64,
) -> Result<(OpLog, OpLog, trace::Recording), String> {
    let settings = AnalysisSettings::paper_default();
    let mut client = Client::connect(addr).map_err(|e| format!("connection {conn}: {e}"))?;
    let mut rng = Rng::new(cfg.seed.wrapping_mul(31).wrapping_add(conn as u64 + 1));
    let own = &refs[conn];
    let mut removed = false;
    let mut logs = [OpLog::default(), OpLog::default()];
    let mut index = (conn as u64) << 40;
    let start = Instant::now();
    loop {
        let now = start.elapsed().as_secs_f64();
        if now >= cfg.seconds {
            break;
        }
        let phase = usize::from(now >= traced_from);
        if phase == 1 && !trace::enabled() {
            logs[0].elapsed_s = now;
            trace::start(origin, conn);
        }
        trace::set_op(index);
        index += 1;
        let op = if rng.below(10) == 0 {
            let request = if removed {
                json!({"op": "add_program", "tenant": TENANTS[conn], "program_sql": own.victim_sql})
            } else {
                json!({"op": "remove_program", "tenant": TENANTS[conn], "name": own.victim})
            };
            let (reply, micros) = timed(|| span("edit", || client.call(&request)));
            removed = !removed;
            let state = usize::from(removed);
            let ok = reply.is_ok_and(|r| {
                r["programs"]
                    .as_array()
                    .map(|p| {
                        p.iter()
                            .filter_map(|n| n.as_str().map(String::from))
                            .collect::<Vec<_>>()
                    })
                    .is_some_and(|p| own.state_of(&p) == Some(state))
            });
            if trace::enabled() {
                span("serve.tenant_edit", || tenant_edit(own, state));
            }
            Op {
                role: 1,
                micros,
                ok,
            }
        } else {
            let kind = ["is_robust", "analyze", "explore_subsets"][rng.below(3) as usize];
            // `is_robust` replies name no program list, only an epoch the daemon reads after
            // answering; they go to the connection's own tenant, whose state it knows.
            let tenant = match (kind, rng.below(2) as usize) {
                ("is_robust", _) => conn,
                (_, tenant) => tenant,
            };
            let request = json!({"op": kind, "tenant": TENANTS[tenant]});
            let (reply, micros) = timed(|| span("read", || client.call(&request)));
            let known = (tenant == conn).then_some(usize::from(removed));
            let checked = reply
                .ok()
                .and_then(|r| check_read(kind, &r, &refs[tenant], known));
            if let (Some(state), true) = (checked, trace::enabled()) {
                let session = &refs[tenant].sessions[state];
                let (_, query_us) = timed(|| {
                    span("serve.session_query", || {
                        session_query(kind, session, settings)
                    })
                });
                trace::count("serve.wire_us", micros - query_us);
            }
            Op {
                role: match kind {
                    "is_robust" => 0,
                    "explore_subsets" => 2,
                    _ => 3,
                },
                micros,
                ok: checked.is_some(),
            }
        };
        logs[phase].record(op, start.elapsed().as_secs_f64());
    }
    let elapsed = start.elapsed().as_secs_f64();
    if trace::enabled() {
        logs[1].elapsed_s = elapsed - logs[0].elapsed_s;
    } else {
        logs[0].elapsed_s = elapsed;
    }
    let [untraced, traced] = logs;
    Ok((untraced, traced, trace::finish()))
}

/// Checks a read reply against the reference; returns the tenant state it answered for.
/// `known` is the state when this connection owns the tenant's edits.
fn check_read(
    kind: &str,
    reply: &Value,
    tenant: &TenantRef,
    known: Option<usize>,
) -> Option<usize> {
    let names = |v: &Value| -> Option<Vec<String>> {
        v.as_array()?
            .iter()
            .map(|n| n.as_str().map(String::from))
            .collect()
    };
    match kind {
        "is_robust" => {
            let state = known?;
            (reply["robust"].as_bool()? == tenant.expected(state).robust).then_some(state)
        }
        "analyze" => {
            let state = tenant.state_of(&names(&reply["programs"])?)?;
            (known.is_none_or(|k| k == state)
                && reply["report"]["outcome"]["robust"].as_bool()? == tenant.expected(state).robust)
                .then_some(state)
        }
        _ => {
            let exploration = &reply["exploration"];
            let programs = names(&exploration["programs"])?;
            let state = tenant.state_of(&programs)?;
            let subsets = |v: &Value| -> Option<Vec<Vec<usize>>> {
                v.as_array()?
                    .iter()
                    .map(|s| {
                        s.as_array()?
                            .iter()
                            .map(|i| i.as_u64().map(|i| i as usize))
                            .collect()
                    })
                    .collect()
            };
            let expected = tenant.expected(state);
            (known.is_none_or(|k| k == state)
                && subsets(&exploration["robust"])?.len() == expected.robust_subsets
                && canonical(&programs, &subsets(&exploration["maximal"])?) == expected.maximal)
                .then_some(state)
        }
    }
}

/// The read's query on an in-process session of the same tenant state.
fn session_query(kind: &str, session: &RobustnessSession, settings: AnalysisSettings) {
    match kind {
        "is_robust" => {
            std::hint::black_box(session.is_robust(settings));
        }
        "analyze" => {
            std::hint::black_box(session.analyze(settings));
        }
        _ => {
            std::hint::black_box(explore_subsets(session, settings));
        }
    }
}

/// What the daemon's tenant does for an edit that reached `state`: clone the current session
/// and apply the edit to the copy.
fn tenant_edit(tenant: &TenantRef, state: usize) {
    let mut next = tenant.sessions[1 - state].clone();
    if state == 1 {
        let _ = next.remove_program(&tenant.victim);
    } else if let Ok(program) = parse_program(next.schema(), &tenant.victim_sql) {
        next.add_program(program);
    }
    std::hint::black_box(next);
}
