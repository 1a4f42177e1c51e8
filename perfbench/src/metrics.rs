//! Metric catalogue, the per-layer ledger, and the result line.

use crate::{Checks, Frames};

/// Named values with their unit, as a workload reports them.
pub type Rows = Vec<(&'static str, f64, &'static str)>;

/// Named simulated counts and ratios; their units are in [`PER_LAYER`].
pub type Counts = Vec<(&'static str, f64)>;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Where a per-layer metric's value comes from.
enum Src {
    /// A simulated count or ratio the workload read from its report.
    Count,
    /// Host self time of a profiler frame, ms per rep.
    SelfMs(&'static str),
    /// Calls of a profiler frame per rep.
    Calls(&'static str),
    /// Host self time per call of a profiler frame, ns.
    NsPerCall(&'static str),
    /// Traced run time over bare run time.
    Overhead,
    /// Traced wall time no frame accounts for, ms per rep.
    Unattributed,
    /// Traced wall time, ms per rep.
    Wall,
}

/// Every per-layer metric, in `BENCHMARK.json` order. A workload that
/// does not reach a layer reports 0 for it (see README.md).
const PER_LAYER: &[(&str, &str, Src)] = &[
    // sim
    ("sim.events", "count", Src::Count),
    ("sim.queue.ns_per_op", "ns", Src::NsPerCall("sim.queue")),
    // workload
    (
        "workload.sample.ns_per_session",
        "ns",
        Src::NsPerCall("workload.sample"),
    ),
    (
        "tiering.arrival.self_ms",
        "ms",
        Src::SelfMs("tiering.arrival"),
    ),
    // core (pool): KV allocation happens inside admission
    (
        "tiering.admission.self_ms",
        "ms",
        Src::SelfMs("tiering.admission"),
    ),
    (
        "tiering.admission.calls",
        "count",
        Src::Calls("tiering.admission"),
    ),
    // tiering
    (
        "tiering.iter_done.self_ms",
        "ms",
        Src::SelfMs("tiering.iter_done"),
    ),
    (
        "tiering.iter_done.calls",
        "count",
        Src::Calls("tiering.iter_done"),
    ),
    (
        "tiering.iter_done.ns_per_call",
        "ns",
        Src::NsPerCall("tiering.iter_done"),
    ),
    (
        "tiering.followup.self_ms",
        "ms",
        Src::SelfMs("tiering.followup"),
    ),
    (
        "tiering.maintenance.self_ms",
        "ms",
        Src::SelfMs("tiering.maintenance"),
    ),
    (
        "tiering.cache_expire.self_ms",
        "ms",
        Src::SelfMs("tiering.cache_expire"),
    ),
    ("tiering.cache_hit_ratio", "ratio", Src::Count),
    ("tiering.evictions", "count", Src::Count),
    ("tiering.mean_batch", "requests", Src::Count),
    // faults / ecc
    ("faults.reads", "count", Src::Count),
    ("faults.corrected", "count", Src::Count),
    ("faults.detected_ue", "count", Src::Count),
    ("faults.retries", "count", Src::Count),
    ("faults.silent", "count", Src::Count),
    (
        "controller.dcm.read_checked.ns_per_op",
        "ns",
        Src::NsPerCall("controller.dcm.read_checked"),
    ),
    (
        "controller.zone.read_checked.ns_per_op",
        "ns",
        Src::NsPerCall("controller.zone.read_checked"),
    ),
    (
        "controller.ftl.read_checked.ns_per_op",
        "ns",
        Src::NsPerCall("controller.ftl.read_checked"),
    ),
    // controller
    (
        "controller.zone.append.ns_per_op",
        "ns",
        Src::NsPerCall("controller.zone.append"),
    ),
    (
        "controller.zone.scrub.ns_per_op",
        "ns",
        Src::NsPerCall("controller.zone.scrub"),
    ),
    (
        "controller.dcm.write.ns_per_op",
        "ns",
        Src::NsPerCall("controller.dcm.write"),
    ),
    (
        "controller.ftl.write.ns_per_op",
        "ns",
        Src::NsPerCall("controller.ftl.write"),
    ),
    ("controller.zone.rotations", "count", Src::Count),
    ("controller.zone.scrubs", "count", Src::Count),
    ("controller.dcm.derates", "count", Src::Count),
    ("controller.ftl.write_amp", "ratio", Src::Count),
    // control
    (
        "control.record.ns_per_op",
        "ns",
        Src::NsPerCall("control.record"),
    ),
    (
        "control.plan.ns_per_call",
        "ns",
        Src::NsPerCall("control.plan"),
    ),
    (
        "control.audit_scan_ms",
        "ms",
        Src::SelfMs("control.audit_scan"),
    ),
    ("control.audit_records", "count", Src::Count),
    ("control.work_items", "count", Src::Count),
    (
        "control.reconcile_plan.self_ms",
        "ms",
        Src::SelfMs("control.reconcile_plan"),
    ),
    ("control.refreshes", "count", Src::Count),
    ("control.escalations", "count", Src::Count),
    ("control.migrations", "count", Src::Count),
    ("control.retires", "count", Src::Count),
    // obs / ledger
    ("obs.overhead", "ratio", Src::Overhead),
    ("ledger.unattributed_ms", "ms", Src::Unattributed),
    ("ledger.wall_ms", "ms", Src::Wall),
    // simulated end-to-end statistics (exact at a given seed)
    ("sim_tokens_per_s", "1/s", Src::Count),
    ("sim_ttft_p99_ms", "ms", Src::Count),
    ("sim_j_per_token", "J", Src::Count),
];

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Per-frame calls and self time averaged over the traced reps.
pub fn mean_frames<'a>(reps: impl Iterator<Item = &'a Frames>) -> Frames {
    let mut sum = Frames::default();
    let mut n = 0u64;
    for f in reps {
        n += 1;
        sum.wall_ns += f.wall_ns;
        for (name, calls, ns) in &f.rows {
            match sum.rows.iter_mut().find(|r| &r.0 == name) {
                Some(r) => {
                    r.1 += calls;
                    r.2 += ns;
                }
                None => sum.rows.push((name.clone(), *calls, *ns)),
            }
        }
    }
    let n = n.max(1);
    sum.wall_ns /= n;
    for r in &mut sum.rows {
        r.1 /= n;
        r.2 /= n;
    }
    sum
}

/// Evaluates [`PER_LAYER`] against one traced rep's counts and the
/// averaged frames.
pub fn layer_metrics(counts: &Counts, frames: &Frames, overhead: f64) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|(name, unit, src)| {
            let value = match src {
                Src::Count => counts.iter().find(|c| c.0 == *name).map_or(0.0, |c| c.1),
                Src::SelfMs(f) => frames.self_ms(f),
                Src::Calls(f) => frames.calls(f) as f64,
                Src::NsPerCall(f) => frames.ns_per_call(f),
                Src::Overhead => overhead,
                Src::Unattributed => frames.unattributed_ms(),
                Src::Wall => frames.wall_ns as f64 / 1e6,
            };
            Metric::new(name, value, unit)
        })
        .collect()
}

/// The layer a frame belongs to, by the module that does its work.
fn layer_of(frame: &str) -> &str {
    match frame {
        // KV allocation from the tier pool happens inside admission.
        "tiering.admission" => "core",
        // Arrivals draw the request mix from mrm-workload.
        "tiering.arrival" => "workload",
        _ => frame.split('.').next().unwrap_or(frame),
    }
}

/// Prints the self-time ledger: one row per frame, then the unattributed
/// rest; the rows add up to the traced wall time.
pub fn print_ledger(frames: &Frames, overhead: f64) {
    let wall_ms = frames.wall_ns as f64 / 1e6;
    let mut rows = frames.rows.clone();
    rows.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
    println!("layer ledger (host self time per traced rep):");
    println!(
        "  {:<10} {:<34} {:>10} {:>12} {:>7}",
        "layer", "frame", "calls", "self ms", "share"
    );
    for (name, calls, ns) in &rows {
        let ms = *ns as f64 / 1e6;
        println!(
            "  {:<10} {:<34} {:>10} {:>12.3} {:>6.1}%",
            layer_of(name),
            name,
            calls,
            ms,
            100.0 * ms / wall_ms
        );
    }
    let rest = frames.unattributed_ms();
    println!(
        "  {:<10} {:<34} {:>10} {:>12.3} {:>6.1}%",
        "-",
        "ledger.unattributed",
        "",
        rest,
        100.0 * rest / wall_ms
    );
    println!(
        "  {:<10} {:<34} {:>10} {:>12.3}",
        "total", "ledger.wall", "", wall_ms
    );
    let tracing_ms = wall_ms * (1.0 - 1.0 / overhead);
    println!(
        "  ledger closes within the tracing cost: |unattributed| {:.3} ms {} {:.3} ms \
         (obs.overhead {:.3})",
        rest.abs(),
        if rest.abs() <= tracing_ms.max(0.0) {
            "<="
        } else {
            ">"
        },
        tracing_ms,
        overhead
    );
}

/// The machine-readable result: the last line of stdout.
pub fn result_json(checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failures.is_empty(),
        checks.attempted,
        checks.failures.len(),
        body.join(", ")
    )
}
