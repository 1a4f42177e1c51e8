//! The `serve` and `retention` workloads: whole `ClusterSim` runs,
//! timed from outside, profiled through `ClusterSim::attach_obs`.

use std::time::Instant;

use mrm_control::{AuditAction, AuditLog, RetentionRegistry};
use mrm_faults::FaultConfig;
use mrm_obs::Obs;
use mrm_sim::time::SimDuration;
use mrm_tiering::cluster::{ClusterConfig, ClusterReport, ClusterSim};
use mrm_tiering::placement::PlacementPolicy;

use crate::metrics::Counts;
use crate::{Checks, Frames, Outcome, Rep, Workload};

/// Simulated span of one `serve` rep.
const SERVE_SPAN: SimDuration = SimDuration::from_mins(60);
/// Simulated span of one `retention` rep: past the ~11 min DCM class
/// deadlines, so escalations, migrations and retries fire.
const RETENTION_SPAN: SimDuration = SimDuration::from_mins(15);

/// Profiler handler labels of `ClusterSim`, and the frame names this
/// benchmark reports them under.
const HANDLERS: [(&str, &str); 8] = [
    ("arrival", "tiering.arrival"),
    ("iter_done", "tiering.iter_done"),
    ("followup", "tiering.followup"),
    ("cache_expire", "tiering.cache_expire"),
    ("maintenance", "tiering.maintenance"),
    ("weight_redeploy", "tiering.weight_redeploy"),
    ("admission", "tiering.admission"),
    ("reconcile_plan", "control.reconcile_plan"),
];

/// Handlers that are one popped event each (the rest nest inside them).
const EVENT_HANDLERS: [&str; 6] = [
    "arrival",
    "iter_done",
    "followup",
    "cache_expire",
    "maintenance",
    "weight_redeploy",
];

/// The generated configuration of `w` at `seed`. Built by `llama70b`
/// with the workload's own policy; `policy` is never reassigned, since
/// `llama70b` sizes the tiers for it (see README.md, known defects).
pub fn config(w: Workload, seed: u64) -> ClusterConfig {
    let mut cfg = match w {
        // Healthy decode path: 2 arrivals/s per accelerator, faults off.
        Workload::Serve => {
            let mut c = ClusterConfig::llama70b(PlacementPolicy::HbmMrm, 8, 16.0);
            c.duration = SERVE_SPAN;
            c
        }
        // Managed retention: an optimistic 1 min lifetime hint against a
        // 30 min follow-up window forces the control plane to refresh,
        // migrate or escalate, with every weights read fault-injected.
        Workload::Retention => {
            let mut c = ClusterConfig::llama70b(PlacementPolicy::HbmMrmDcm, 2, 0.4);
            c.faults = FaultConfig::mrm();
            c.hint_window = SimDuration::from_mins(1);
            c.followup_window = SimDuration::from_mins(30);
            c.maintenance_period = SimDuration::from_secs(30);
            c.followup_prob = 0.5;
            c.duration = RETENTION_SPAN;
            c
        }
        Workload::Lifecycle => unreachable!("lifecycle is not a cluster workload"),
    };
    cfg.seed = seed;
    cfg
}

/// One rep: set up, run with the audit log, check.
pub fn rep(w: Workload, seed: u64, traced: bool, checks: &mut Checks) -> Option<Rep> {
    let t0 = Instant::now();
    let cfg = config(w, seed);
    let valid = cfg.validate();
    checks.check(valid.is_ok(), || {
        format!("seed {seed}: invalid config: {valid:?}")
    });
    valid.ok()?;
    let registry = RetentionRegistry::serving_default(cfg.followup_window);
    let mut obs = traced.then(|| Obs::new(seed));
    let mut sim = ClusterSim::new(cfg);
    if let Some(o) = obs.as_mut() {
        sim.attach_obs(o);
    }
    let setup = t0.elapsed();

    let t1 = Instant::now();
    let (report, audit) = std::hint::black_box(sim.run_with_audit());
    let run = t1.elapsed();

    check_report(w, seed, &report, &audit, &registry, checks);
    let frames = obs.map(|o| frames(&o, run.as_nanos() as u64));
    let mut counts = counts(&report);
    if let Some(f) = &frames {
        let events: u64 = EVENT_HANDLERS.iter().map(|h| f.calls(frame_name(h))).sum();
        counts.push(("sim.events", events as f64));
    }
    Some(Rep {
        setup,
        run,
        outcome: Outcome {
            fingerprint: fingerprint(&report),
            full: format!("{report:?}"),
            counts,
            frames,
            sim: vec![
                ("sim_tokens_per_s", report.tokens_per_s, "1/s"),
                ("sim_ttft_p99_ms", report.p99_ttft_ms.unwrap_or(0.0), "ms"),
                ("sim_j_per_token", report.j_per_token, "J"),
            ],
        },
    })
}

fn frame_name(handler: &str) -> &'static str {
    HANDLERS
        .iter()
        .find(|(h, _)| *h == handler)
        .map_or("tiering.other", |(_, f)| f)
}

/// The profiler's handler table as frames.
fn frames(obs: &Obs, wall_ns: u64) -> Frames {
    let report = obs.profiler.report(usize::MAX);
    Frames {
        rows: report
            .top
            .iter()
            .filter(|h| h.calls > 0)
            .map(|h| (frame_name(&h.name).to_string(), h.calls, h.wall_self_ns))
            .collect(),
        wall_ns,
    }
}

/// The invariants e13 checks, plus the mechanism each workload exists
/// to exercise.
fn check_report(
    w: Workload,
    seed: u64,
    r: &ClusterReport,
    audit: &AuditLog,
    registry: &RetentionRegistry,
    checks: &mut Checks,
) {
    let at = |what: &str| format!("{} seed {seed}: {what}", w.name());
    let recs = audit.records();
    checks.check(
        recs.iter().enumerate().all(|(i, r)| r.seq == i as u64),
        || at("audit sequence numbers are not dense"),
    );
    checks.check(recs.windows(2).all(|p| p[0].at <= p[1].at), || {
        at("audit time is not monotone")
    });
    let c = &r.control;
    checks.check(
        c.audit_records == audit.len() as u64
            && c.stores == audit.count(AuditAction::Store)
            && c.refreshes == audit.count(AuditAction::Refresh)
            && c.migrations == audit.count(AuditAction::Migrate)
            && c.drops == audit.count(AuditAction::Drop)
            && c.evictions == audit.count(AuditAction::Evict)
            && c.retires == audit.count(AuditAction::Retire)
            && c.escalations == audit.count(AuditAction::Escalate)
            && c.refetches == audit.count(AuditAction::Refetch)
            && c.recomputes == audit.count(AuditAction::Recompute),
        || at("report.control disagrees with the audit log counts"),
    );
    let bad = audit.required_drop_violations(registry);
    checks.check(bad.is_empty() && c.required_drop_violations == 0, || {
        at(&format!("required-drop violations at seqs {bad:?}"))
    });
    checks.check(r.faults.silent == 0, || {
        at(&format!("{} silent corruptions", r.faults.silent))
    });
    checks.check(r.completions > 0 && r.tokens > 0, || {
        at("no request completed")
    });
    match w {
        Workload::Serve => {
            checks.check(r.faults.reads == 0, || at("serve ran fault injection"));
            checks.check(r.evictions > 0, || at("serve evicted nothing"));
        }
        Workload::Retention => {
            checks.check(r.faults.reads > 0, || at("retention injected no faults"));
            checks.check(c.escalations + c.refreshes + c.migrations > 0, || {
                at("retention never refreshed, migrated or escalated")
            });
        }
        Workload::Lifecycle => {}
    }
}

/// Simulated per-layer counts from the report.
fn counts(r: &ClusterReport) -> Counts {
    let hit_ratio = if r.cache_hits + r.recomputes == 0 {
        0.0
    } else {
        r.cache_hits as f64 / (r.cache_hits + r.recomputes) as f64
    };
    let f = &r.faults;
    let c = &r.control;
    vec![
        ("tiering.cache_hit_ratio", hit_ratio),
        ("tiering.evictions", r.evictions as f64),
        ("tiering.mean_batch", r.mean_batch),
        ("faults.reads", f.reads as f64),
        ("faults.corrected", f.corrected as f64),
        ("faults.detected_ue", f.detected_ue as f64),
        ("faults.retries", f.retries as f64),
        ("faults.silent", f.silent as f64),
        ("control.audit_records", c.audit_records as f64),
        ("control.refreshes", c.refreshes as f64),
        ("control.escalations", c.escalations as f64),
        ("control.migrations", c.migrations as f64),
        ("control.retires", c.retires as f64),
        ("sim_tokens_per_s", r.tokens_per_s),
        ("sim_ttft_p99_ms", r.p99_ttft_ms.unwrap_or(0.0)),
        ("sim_j_per_token", r.j_per_token),
    ]
}

/// The simulated statistics, exact: compared with the recorded ones at
/// the pinned seed.
fn fingerprint(r: &ClusterReport) -> String {
    let f = &r.faults;
    let c = &r.control;
    format!(
        "arrivals={} completions={} tokens={} tokens_per_s={} cache_hits={} recomputes={} \
         scrubs={} migrations={} drops={} evictions={} iterations={} mean_batch={} \
         energy_total_j={} j_per_token={} p50_latency_ms={:?} p99_latency_ms={:?} \
         p50_ttft_ms={:?} p99_ttft_ms={:?} faults.reads={} faults.raw_flips={} \
         faults.corrected={} faults.detected_ue={} faults.miscorrected={} faults.silent={} \
         faults.retries={} faults.weight_refetches={} faults.kv_recomputes={} \
         faults.scrub_escalations={} control.audit_records={} control.stores={} \
         control.refreshes={} control.migrations={} control.drops={} control.evictions={} \
         control.retires={} control.escalations={} control.refetches={} control.recomputes={}",
        r.arrivals,
        r.completions,
        r.tokens,
        r.tokens_per_s,
        r.cache_hits,
        r.recomputes,
        r.scrubs,
        r.migrations,
        r.drops,
        r.evictions,
        r.iterations,
        r.mean_batch,
        r.energy_total_j,
        r.j_per_token,
        r.p50_latency_ms,
        r.p99_latency_ms,
        r.p50_ttft_ms,
        r.p99_ttft_ms,
        f.reads,
        f.raw_flips,
        f.corrected,
        f.detected_ue,
        f.miscorrected,
        f.silent,
        f.retries,
        f.weight_refetches,
        f.kv_recomputes,
        f.scrub_escalations,
        c.audit_records,
        c.stores,
        c.refreshes,
        c.migrations,
        c.drops,
        c.evictions,
        c.retires,
        c.escalations,
        c.refetches,
        c.recomputes,
    )
}
