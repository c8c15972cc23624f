//! Per-layer metrics of a traced run, named `<layer>.<measure>` after the repository's
//! modules. Every workload reports every metric; a layer a workload does not reach reads 0.
//! Times are medians over the layer's spans (self time unless the name says otherwise),
//! counts are medians over their observations.

use crate::harness::{median, Outcome};
use crate::trace::Aggregate;
use crate::Metric;

/// Where a metric's value comes from.
enum Source {
    /// Median self time of a span, µs.
    SelfUs(&'static str),
    /// Median self time of a span inside operations of one root span, µs.
    SelfUsUnder(&'static str, &'static str),
    /// Median self time of a span, ms.
    SelfMs(&'static str),
    /// Median full duration of a span, ms.
    TotalMs(&'static str),
    /// Median of a counter's observations.
    Count(&'static str),
}

/// The metrics read straight off one span or counter: name, source, unit.
const DIRECT: &[(&str, Source, &str)] = &[
    ("btp.parse_us", Source::SelfUs("btp.parse"), "us"),
    // Both `check` and `sweep` unfold; `btp.*` is read from sweeps and `summary.*` from
    // checks (README.md, per-layer table).
    (
        "btp.unfold_us",
        Source::SelfUsUnder("sweep", "btp.unfold"),
        "us",
    ),
    ("btp.ltps", Source::Count("btp.ltps"), "count"),
    (
        "summary.construct_us",
        Source::SelfUs("summary.construct"),
        "us",
    ),
    ("summary.nodes", Source::Count("summary.nodes"), "count"),
    ("summary.edges", Source::Count("summary.edges"), "count"),
    ("summary.csr_us", Source::SelfUs("summary.csr"), "us"),
    (
        "summary.closure_us",
        Source::SelfUs("summary.closure"),
        "us",
    ),
    (
        "algorithm.type2_us",
        Source::SelfUs("algorithm.type2"),
        "us",
    ),
    (
        "subsets.first_sweep_ms",
        Source::TotalMs("subsets.first_sweep"),
        "ms",
    ),
    (
        "subsets.warm_sweep_ms",
        Source::TotalMs("subsets.warm_sweep"),
        "ms",
    ),
    (
        "subsets.cycle_tests",
        Source::Count("subsets.cycle_tests"),
        "count",
    ),
    (
        "subsets.pruned_ratio",
        Source::Count("subsets.pruned_ratio"),
        "ratio",
    ),
    (
        "subsets.us_per_test",
        Source::Count("subsets.us_per_test"),
        "us",
    ),
    ("dist.save_ms", Source::Count("dist.save_ms"), "ms"),
    ("dist.open_ms", Source::SelfMs("dist.open"), "ms"),
    (
        "dist.decode_open_ms",
        Source::SelfMs("dist.decode_open"),
        "ms",
    ),
    (
        "dist.snapshot_bytes",
        Source::Count("dist.snapshot_bytes"),
        "bytes",
    ),
    (
        "dist.first_query_us",
        Source::SelfUs("dist.first_query"),
        "us",
    ),
    ("hist.certify_us", Source::SelfUs("hist.certify"), "us"),
    (
        "hist.interleaving_steps",
        Source::Count("hist.interleaving_steps"),
        "count",
    ),
    ("hist.instances", Source::Count("hist.instances"), "count"),
    (
        "serve.session_query_us",
        Source::SelfUs("serve.session_query"),
        "us",
    ),
    ("serve.wire_us", Source::Count("serve.wire_us"), "us"),
    (
        "serve.tenant_edit_us",
        Source::SelfUs("serve.tenant_edit"),
        "us",
    ),
    ("serve.boot_ms", Source::Count("serve.boot_ms"), "ms"),
    (
        "serve.post_boot_constructions",
        Source::Count("serve.post_boot_constructions"),
        "count",
    ),
    ("serve.edits", Source::Count("serve.edits"), "count"),
];

pub fn metrics(outcome: &Outcome) -> Vec<Metric> {
    let agg = Aggregate::new(&outcome.recordings);
    let of = |map: &std::collections::BTreeMap<&str, Vec<f64>>, name: &str| {
        map.get(name).and_then(|v| median(v))
    };
    let count = |name: &str| {
        of(&agg.counters, name).or_else(|| {
            let extra: Vec<f64> = outcome
                .extra
                .iter()
                .filter(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .collect();
            median(&extra)
        })
    };
    let value = |source: &Source| -> (Option<f64>, String) {
        let spans = |name: &str| format!("{} spans", agg.self_us.get(name).map_or(0, Vec::len));
        match *source {
            Source::SelfUs(span) => (of(&agg.self_us, span), spans(span)),
            Source::SelfUsUnder(root, span) => {
                let values = agg.self_us_under.get(&(root, span));
                (
                    values.and_then(|v| median(v)),
                    format!("{} spans under {root}", values.map_or(0, Vec::len)),
                )
            }
            Source::SelfMs(span) => (of(&agg.self_us, span).map(|us| us / 1e3), spans(span)),
            Source::TotalMs(span) => (of(&agg.total_us, span).map(|us| us / 1e3), spans(span)),
            Source::Count(name) => {
                let n = agg.counters.get(name).map_or(0, Vec::len)
                    + outcome.extra.iter().filter(|(n, _)| *n == name).count();
                (count(name), format!("{n} observations"))
            }
        }
    };
    let ratio = |a: Option<f64>, b: Option<f64>| match (a, b) {
        (Some(a), Some(b)) if b > 0.0 => Some(a / b),
        _ => None,
    };

    let mut rows: Vec<Metric> = DIRECT
        .iter()
        .map(|(name, source, unit)| {
            let (value, note) = value(source);
            (*name, value.unwrap_or(0.0), *unit, note)
        })
        .collect();
    let mut derived = |name, value: Option<f64>, unit, note: String| {
        rows.push((name, value.unwrap_or(0.0), unit, note));
    };
    derived(
        "summary.ns_per_edge",
        ratio(
            of(&agg.self_us, "summary.construct").map(|us| us * 1e3),
            count("summary.edges"),
        ),
        "ns",
        "construct self time / edges".into(),
    );
    derived(
        "algorithm.type2_share",
        ratio(
            of(&agg.self_us, "algorithm.type2"),
            of(&agg.total_us, "check"),
        ),
        "ratio",
        "type-II self time / traced check".into(),
    );
    let first = of(&agg.total_us, "subsets.first_sweep");
    let warm = of(&agg.total_us, "subsets.warm_sweep");
    derived(
        "subsets.derive_ms",
        first.zip(warm).map(|(f, w)| (f - w) / 1e3),
        "ms",
        "first − warm sweep".into(),
    );
    derived(
        "par.threads",
        Some(mvrc_par::planned_thread_count() as f64),
        "count",
        "mvrc-par pool size".into(),
    );

    let verdict = outcome.labels[0];
    let untraced = median(&outcome.untraced.us[0]);
    derived(
        "trace.overhead_ratio",
        ratio(median(&outcome.traced.us[0]), untraced),
        "ratio",
        format!(
            "traced / untraced {verdict} p50 (n={} / n={})",
            outcome.traced.us[0].len(),
            outcome.untraced.us[0].len()
        ),
    );
    if let (Some(sum), Some(untraced)) = (of(&agg.op_self_sum_us, verdict), untraced) {
        println!(
            "{verdict}: per-layer self times sum to {sum:.1} us per op; untraced p50 {untraced:.1} us"
        );
    }
    rows
}
