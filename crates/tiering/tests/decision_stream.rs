//! Cross-channel reconciliation of the cluster's decision stream.
//!
//! Every refresh, migrate, drop, eviction, recovery and redeploy is
//! recorded once, as an audit record. The report's decision counters, the
//! final `cluster_*` / `control_*` telemetry counters and the trace's
//! decision spans are all derived from that record, so on a run that makes
//! every kind of decision they must agree with a fold over the log written
//! here, independently of the simulator's own fold.

use mrm_control::{AuditAction, AuditLog, AuditRecord, ControlClass};
use mrm_faults::FaultConfig;
use mrm_obs::{Obs, SpanKind};
use mrm_sim::time::SimDuration;
use mrm_telemetry::SimTelemetry;
use mrm_tiering::{ClusterConfig, ClusterReport, ClusterSim, PlacementPolicy};

/// A config under which every decision kind fires. A one-second hint
/// puts most KV on DCM's 30 s class against a 135 s follow-up window, so
/// the 10 s sweep refreshes, migrates and finally drops parked prefixes
/// whose need lapsed; the KV tier is still small enough to evict. Faults
/// at 2x BER make some scrub verifications and follow-up reads fail
/// (escalate, recompute), and a 20 s redeploy period keeps the weights on
/// the 30 s class too, so their reads fail often enough to refetch.
fn every_decision_cfg() -> ClusterConfig {
    let mut cfg = ClusterConfig::llama70b(PlacementPolicy::HbmMrmDcm, 2, 4.0);
    cfg.duration = SimDuration::from_secs(302);
    cfg.hint_window = SimDuration::from_secs(1);
    cfg.followup_window = SimDuration::from_secs(135);
    cfg.followup_prob = 0.5;
    cfg.maintenance_period = SimDuration::from_secs(10);
    cfg.weight_redeploy_period = Some(SimDuration::from_secs(20));
    cfg.faults = FaultConfig {
        ber_scale: 2.0,
        provision_margin: Some(1.0),
        ..FaultConfig::mrm()
    };
    cfg
}

/// Snapshot spacing: the duration is a multiple of it and no periodic
/// event lands on the final boundary, so the last snapshot sees every
/// decision of the run.
const SNAPSHOT_EVERY: SimDuration = SimDuration::from_secs(2);

struct Run {
    report: ClusterReport,
    audit: AuditLog,
    tele: SimTelemetry,
    obs: Obs,
}

fn run() -> Run {
    let cfg = every_decision_cfg();
    let mut tele = SimTelemetry::new(SNAPSHOT_EVERY);
    let mut obs = Obs::new(cfg.seed);
    let mut sim = ClusterSim::new(cfg);
    sim.attach_telemetry(&mut tele);
    sim.attach_obs(&mut obs);
    let (report, audit) = sim.run_with_audit();
    Run {
        report,
        audit,
        tele,
        obs,
    }
}

/// Records matching `pred`: (count, byte sum).
fn fold(audit: &AuditLog, pred: impl Fn(&AuditRecord) -> bool) -> (u64, u64) {
    audit
        .records()
        .iter()
        .filter(|r| pred(r))
        .fold((0, 0), |(n, b), r| (n + 1, b + r.bytes))
}

fn count(audit: &AuditLog, pred: impl Fn(&AuditRecord) -> bool) -> u64 {
    fold(audit, pred).0
}

fn is(action: AuditAction) -> impl Fn(&AuditRecord) -> bool {
    move |r| r.action == action
}

#[test]
fn report_counters_equal_a_fold_over_the_audit_log() {
    let Run { report, audit, .. } = run();
    let a = &audit;
    let migrated =
        |r: &AuditRecord| matches!(r.action, AuditAction::Migrate | AuditAction::Escalate);

    // The config must exercise every row, or the check is vacuous.
    for action in AuditAction::all() {
        assert!(a.count(action) > 0, "no {action:?} record: {report:?}");
    }
    assert!(report.drops > 0 && report.redeploys > 0 && report.faults.kv_recomputes > 0);

    assert_eq!(report.scrubs, count(a, is(AuditAction::Refresh)));
    assert_eq!(report.migrations, count(a, migrated));
    assert_eq!(
        report.faults.scrub_escalations,
        count(a, is(AuditAction::Escalate))
    );
    assert_eq!(report.evictions, count(a, is(AuditAction::Evict)));
    assert_eq!(report.recomputes, count(a, is(AuditAction::Recompute)));
    assert_eq!(
        report.faults.kv_recomputes,
        count(a, |r| r.action == AuditAction::Recompute
            && r.reason == "uncorrectable-read")
    );
    assert_eq!(
        report.faults.weight_refetches,
        count(a, is(AuditAction::Refetch))
    );
    assert_eq!(
        report.redeploys,
        count(a, |r| r.action == AuditAction::Retire
            && r.class == ControlClass::Weights)
    );
    assert_eq!(
        report.drops,
        count(a, |r| matches!(
            r.action,
            AuditAction::Drop | AuditAction::Retire
        ) && r.class == ControlClass::KvPrefix
            && matches!(r.reason, "need-lapsed" | "need-ended"))
    );
}

#[test]
fn final_telemetry_counters_equal_the_report_and_the_log() {
    let Run {
        report,
        audit,
        tele,
        ..
    } = run();
    let reg = tele.registry();
    let counter = |name: &str| {
        reg.counter_value(name)
            .unwrap_or_else(|| panic!("no counter {name}"))
    };
    let control = |action: AuditAction| counter(&format!("control_{}", action.label()));

    // Every control_* counter is its action's audit count.
    assert_eq!(counter("control_audit_records"), audit.len() as u64);
    for action in AuditAction::all() {
        assert_eq!(control(action), audit.count(action), "{action:?}");
    }
    assert_eq!(
        reg.gauge_value("control_required_drop_violations"),
        Some(0.0)
    );

    // Every cluster_* decision counter is its report field ...
    assert_eq!(counter("cluster_scrubs"), report.scrubs);
    assert_eq!(counter("cluster_migrations"), report.migrations);
    assert_eq!(counter("cluster_drops"), report.drops);
    assert_eq!(counter("cluster_evictions"), report.evictions);
    assert_eq!(counter("cluster_recomputes"), report.recomputes);
    assert_eq!(counter("cluster_redeploys"), report.redeploys);
    assert_eq!(
        counter("cluster_fault_refetches"),
        report.faults.weight_refetches
    );
    assert_eq!(
        counter("cluster_fault_recomputes"),
        report.faults.kv_recomputes
    );
    assert_eq!(
        counter("cluster_fault_scrub_escalations"),
        report.faults.scrub_escalations
    );
    // ... the byte counters are byte sums of the same rows ...
    assert_eq!(
        counter("cluster_scrub_bytes"),
        fold(&audit, is(AuditAction::Refresh)).1
    );
    assert_eq!(
        counter("cluster_migration_bytes"),
        fold(&audit, |r| matches!(
            r.action,
            AuditAction::Migrate | AuditAction::Escalate
        ))
        .1
    );
    // ... and agrees with the matching control_* counter.
    assert_eq!(counter("cluster_scrubs"), control(AuditAction::Refresh));
    assert_eq!(
        counter("cluster_migrations"),
        control(AuditAction::Migrate) + control(AuditAction::Escalate)
    );
    assert_eq!(counter("cluster_evictions"), control(AuditAction::Evict));
    assert_eq!(
        counter("cluster_recomputes"),
        control(AuditAction::Recompute)
    );
    assert_eq!(
        counter("cluster_fault_refetches"),
        control(AuditAction::Refetch)
    );
    assert_eq!(
        counter("cluster_fault_scrub_escalations"),
        control(AuditAction::Escalate)
    );
}

#[test]
fn trace_decision_spans_match_audit_counts() {
    let Run { audit, obs, .. } = run();
    assert_eq!(obs.tracer.dropped(), 0, "the span ring must hold the run");
    let spans = |kind: SpanKind| obs.tracer.spans().filter(|s| s.kind == kind).count() as u64;
    let a = &audit;
    let of = |action: AuditAction, class: ControlClass| {
        count(a, move |r| r.action == action && r.class == class)
    };

    assert_eq!(
        spans(SpanKind::Admission),
        of(AuditAction::Store, ControlClass::KvTail)
    );
    assert_eq!(
        spans(SpanKind::Placement),
        of(AuditAction::Store, ControlClass::KvPrefix)
    );
    assert_eq!(
        spans(SpanKind::Completion),
        of(AuditAction::Retire, ControlClass::KvTail)
    );
    assert_eq!(
        spans(SpanKind::Retire),
        of(AuditAction::Retire, ControlClass::KvPrefix)
    );
    assert_eq!(
        spans(SpanKind::Redeploy),
        of(AuditAction::Retire, ControlClass::Weights)
    );
    assert_eq!(spans(SpanKind::Refresh), a.count(AuditAction::Refresh));
    assert_eq!(
        spans(SpanKind::Migrate),
        a.count(AuditAction::Migrate) + a.count(AuditAction::Escalate)
    );
    assert_eq!(spans(SpanKind::Drop), a.count(AuditAction::Drop));
    assert_eq!(spans(SpanKind::Evict), a.count(AuditAction::Evict));
    assert_eq!(
        spans(SpanKind::Recovery),
        a.count(AuditAction::Refetch) + a.count(AuditAction::Recompute)
    );
    // A fault span precedes every fault-driven decision.
    assert_eq!(
        spans(SpanKind::Fault),
        a.count(AuditAction::Refetch)
            + a.count(AuditAction::Escalate)
            + count(a, |r| r.action == AuditAction::Recompute
                && r.reason == "uncorrectable-read")
    );
}

#[test]
fn every_audited_span_carries_its_records_subject_reason_and_bytes() {
    let Run { audit, obs, .. } = run();
    let mut audited = 0;
    for s in obs.tracer.spans() {
        let Some(seq) = s.detail.audit_seq else {
            continue;
        };
        let r = &audit.records()[seq as usize];
        assert_eq!(s.detail.reason, r.reason, "{:?} span at seq {seq}", s.kind);
        assert_eq!(s.detail.bytes, r.bytes, "{:?} span at seq {seq}", s.kind);
        assert_eq!(s.subject, r.id, "{:?} span at seq {seq}", s.kind);
        audited += 1;
    }
    assert!(audited > 0);
    // The redeploy span shows the new shard's store, not the old one's
    // retire.
    let redeploys: Vec<_> = obs
        .tracer
        .spans()
        .filter(|s| s.kind == SpanKind::Redeploy)
        .collect();
    assert!(!redeploys.is_empty());
    assert!(redeploys.iter().all(|s| s.detail.reason == "redeploy"));
}
