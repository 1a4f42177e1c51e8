//! The append-only retention audit log.
//!
//! Every store / refresh / migrate / drop / retire / escalate decision the
//! control plane makes is recorded with its class, action, reason, and
//! sim-time. The log is the oracle the chaos tests interrogate: under
//! fault injection at full recovery-ladder depth, *no `Required`-class
//! object may be dropped without a preceding re-fetch/recompute record*
//! (REQUIRED-DURABLE). It also flows through `mrm-telemetry` as `control_*`
//! counters and `audit_*` events — observe-only, so a run with or without
//! a sink attached is byte-identical.

use std::collections::BTreeSet;

use mrm_sim::time::SimTime;
use mrm_telemetry::sink::TelemetrySink;
use serde::{Deserialize, Serialize};

use crate::class::ControlClass;
use crate::registry::RetentionRegistry;

/// A decision the control plane recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AuditAction {
    /// Data admitted to a tier (new write, cache park, redeploy).
    Store,
    /// In-place rewrite at the same retention class.
    Refresh,
    /// Moved to a longer retention class.
    Migrate,
    /// Reclaimed while a future need *could* have existed (TTL lapse,
    /// recompute-drop). The oracle checks these against durability.
    Drop,
    /// Evicted under memory pressure (a policy-authorized drop).
    Evict,
    /// Released because its declared need ended (request completed,
    /// deployment superseded). Always legal, even for `Required` classes.
    Retire,
    /// Escalated to the policy's longer retention class after a failed
    /// refresh.
    Escalate,
    /// Re-fetched from an authoritative source (model store) after loss.
    Refetch,
    /// Recomputed from inputs (prompt prefill) after loss.
    Recompute,
}

impl AuditAction {
    /// All actions, in record order.
    pub fn all() -> [AuditAction; 9] {
        [
            AuditAction::Store,
            AuditAction::Refresh,
            AuditAction::Migrate,
            AuditAction::Drop,
            AuditAction::Evict,
            AuditAction::Retire,
            AuditAction::Escalate,
            AuditAction::Refetch,
            AuditAction::Recompute,
        ]
    }

    /// Stable label (also the suffix of the `control_*` counter and
    /// `audit_*` event names).
    pub fn label(self) -> &'static str {
        match self {
            AuditAction::Store => "store",
            AuditAction::Refresh => "refresh",
            AuditAction::Migrate => "migrate",
            AuditAction::Drop => "drop",
            AuditAction::Evict => "evict",
            AuditAction::Retire => "retire",
            AuditAction::Escalate => "escalate",
            AuditAction::Refetch => "refetch",
            AuditAction::Recompute => "recompute",
        }
    }

    /// Telemetry event name (static, one per action).
    fn event_name(self) -> &'static str {
        match self {
            AuditAction::Store => "audit_store",
            AuditAction::Refresh => "audit_refresh",
            AuditAction::Migrate => "audit_migrate",
            AuditAction::Drop => "audit_drop",
            AuditAction::Evict => "audit_evict",
            AuditAction::Retire => "audit_retire",
            AuditAction::Escalate => "audit_escalate",
            AuditAction::Refetch => "audit_refetch",
            AuditAction::Recompute => "audit_recompute",
        }
    }

    /// Telemetry counter name (static, one per action).
    fn counter_name(self) -> &'static str {
        match self {
            AuditAction::Store => "control_store",
            AuditAction::Refresh => "control_refresh",
            AuditAction::Migrate => "control_migrate",
            AuditAction::Drop => "control_drop",
            AuditAction::Evict => "control_evict",
            AuditAction::Retire => "control_retire",
            AuditAction::Escalate => "control_escalate",
            AuditAction::Refetch => "control_refetch",
            AuditAction::Recompute => "control_recompute",
        }
    }

    /// Actions the oracle treats as reclaiming the object.
    fn is_reclaim(self) -> bool {
        matches!(self, AuditAction::Drop | AuditAction::Evict)
    }

    /// Actions the oracle treats as a recovery (the object was or can be
    /// re-materialized, so a subsequent drop is legal).
    fn is_recovery(self) -> bool {
        matches!(self, AuditAction::Refetch | AuditAction::Recompute)
    }

    fn index(self) -> usize {
        match self {
            AuditAction::Store => 0,
            AuditAction::Refresh => 1,
            AuditAction::Migrate => 2,
            AuditAction::Drop => 3,
            AuditAction::Evict => 4,
            AuditAction::Retire => 5,
            AuditAction::Escalate => 6,
            AuditAction::Refetch => 7,
            AuditAction::Recompute => 8,
        }
    }
}

/// Why a decision was made: a closed set, stored in one byte per record.
/// Folds over the log match on variants, so a mistyped reason does not
/// compile, and [`Reason::label`] is the stable string that traces and
/// reports show.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Reason {
    /// A new request's KV tail is admitted.
    Admit,
    /// A follow-up turn is admitted on a reused prefix.
    FollowupAdmit,
    /// A parked prefix is consumed by its follow-up turn.
    FollowupConsumed,
    /// A completed request's prefix is parked for a follow-up.
    ParkFollowup,
    /// A request completed and its KV tail is released.
    Completed,
    /// Evicted to make room for an admission.
    MemoryPressure,
    /// A stalled admission puts its reused prefix back in the cache.
    StallPutback,
    /// A cached prefix outlived its retention before the follow-up came.
    RetentionLapsed,
    /// A read stayed uncorrectable past the retry rung of the fault ladder.
    UncorrectableRead,
    /// A follow-up found its prefix already evicted and recomputes it.
    AlreadyEvicted,
    /// A parked prefix's TTL lapsed.
    TtlExpired,
    /// A scrub's verify read failed, so the prefix escalates.
    ScrubVerifyFailed,
    /// Weights replaced by a newer deployment.
    Superseded,
    /// Weights written by a redeployment.
    Redeploy,
    /// Weights written by the initial deployment.
    Deploy,
    /// The reconciler refreshes an object near its retention deadline.
    DeadlineRefresh,
    /// The reconciler migrates an object whose need outlasts its class.
    LongRemainingNeed,
    /// The reconciler reclaims an `Ephemeral` object whose need lapsed.
    NeedLapsed,
    /// The reconciler retires a `Required` object whose need ended.
    NeedEnded,
    /// A session's KV is stored.
    SessionKv,
    /// The retention window was reconfigured.
    RetentionWindowReconfigured,
}

impl Reason {
    /// Every reason, in declaration order.
    pub fn all() -> [Reason; 21] {
        [
            Reason::Admit,
            Reason::FollowupAdmit,
            Reason::FollowupConsumed,
            Reason::ParkFollowup,
            Reason::Completed,
            Reason::MemoryPressure,
            Reason::StallPutback,
            Reason::RetentionLapsed,
            Reason::UncorrectableRead,
            Reason::AlreadyEvicted,
            Reason::TtlExpired,
            Reason::ScrubVerifyFailed,
            Reason::Superseded,
            Reason::Redeploy,
            Reason::Deploy,
            Reason::DeadlineRefresh,
            Reason::LongRemainingNeed,
            Reason::NeedLapsed,
            Reason::NeedEnded,
            Reason::SessionKv,
            Reason::RetentionWindowReconfigured,
        ]
    }

    /// Stable, machine-greppable label (the trace's `reason` argument).
    pub fn label(self) -> &'static str {
        match self {
            Reason::Admit => "admit",
            Reason::FollowupAdmit => "followup-admit",
            Reason::FollowupConsumed => "followup-consumed",
            Reason::ParkFollowup => "park-followup",
            Reason::Completed => "completed",
            Reason::MemoryPressure => "memory-pressure",
            Reason::StallPutback => "stall-putback",
            Reason::RetentionLapsed => "retention-lapsed",
            Reason::UncorrectableRead => "uncorrectable-read",
            Reason::AlreadyEvicted => "already-evicted",
            Reason::TtlExpired => "ttl-expired",
            Reason::ScrubVerifyFailed => "scrub-verify-failed",
            Reason::Superseded => "superseded",
            Reason::Redeploy => "redeploy",
            Reason::Deploy => "deploy",
            Reason::DeadlineRefresh => "deadline-refresh",
            Reason::LongRemainingNeed => "long-remaining-need",
            Reason::NeedLapsed => "need-lapsed",
            Reason::NeedEnded => "need-ended",
            Reason::SessionKv => "session-kv",
            Reason::RetentionWindowReconfigured => "retention-window-reconfigured",
        }
    }
}

impl From<&'static str> for Reason {
    /// The reason whose [`Reason::label`] is `label`.
    ///
    /// # Panics
    ///
    /// On a string that is no reason's label: the set is closed.
    fn from(label: &'static str) -> Self {
        Reason::all()
            .into_iter()
            .find(|r| r.label() == label)
            .unwrap_or_else(|| panic!("unknown audit reason {label:?}"))
    }
}

/// One appended decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AuditRecord {
    /// Dense, monotonically increasing sequence number.
    pub seq: u64,
    /// Sim-time of the decision.
    pub at: SimTime,
    /// The data class the decision is about.
    pub class: ControlClass,
    /// Object identity within the class (context id, accelerator id, …).
    pub id: u64,
    /// What was decided.
    pub action: AuditAction,
    /// Why.
    pub reason: Reason,
    /// Bytes affected.
    pub bytes: u64,
}

// Four 8-byte fields and three one-byte enums. A long run's log holds
// millions of records (~1.7M in perfbench's `lifecycle`), so each byte
// here costs megabytes of peak heap.
const _: () = assert!(std::mem::size_of::<AuditRecord>() == 40);

/// Append-only decision log with per-action counts and a telemetry cursor.
#[derive(Clone, Debug, Default)]
pub struct AuditLog {
    records: Vec<AuditRecord>,
    counts: [u64; 9],
    emitted: usize,
}

impl AuditLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        AuditLog::default()
    }

    /// Appends a record; returns its sequence number. Sim-time must be
    /// nondecreasing (decisions are appended as the simulation advances).
    pub fn record(
        &mut self,
        at: SimTime,
        class: ControlClass,
        id: u64,
        action: AuditAction,
        reason: Reason,
        bytes: u64,
    ) -> u64 {
        debug_assert!(
            self.records.last().is_none_or(|r| r.at <= at),
            "audit log must be appended in sim-time order"
        );
        let seq = self.records.len() as u64;
        self.counts[action.index()] += 1;
        self.records.push(AuditRecord {
            seq,
            at,
            class,
            id,
            action,
            reason,
            bytes,
        });
        seq
    }

    /// All records, in append order.
    pub fn records(&self) -> &[AuditRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// How many records carry `action`.
    pub fn count(&self, action: AuditAction) -> u64 {
        self.counts[action.index()]
    }

    /// REQUIRED-DURABLE oracle: sequence numbers of every reclaim
    /// (drop/evict) of a class the registry declares `Required` that is
    /// *not* preceded by a recovery record (refetch/recompute) for the
    /// same `(class, id)`. An empty result is the invariant the chaos
    /// suite asserts. `Retire` (need ended) is always legal.
    pub fn required_drop_violations(&self, registry: &RetentionRegistry) -> Vec<u64> {
        let required = required_classes(registry);
        let mut recovered = BTreeSet::new();
        self.records
            .iter()
            .filter(|r| is_violation(r, &required, &mut recovered))
            .map(|r| r.seq)
            .collect()
    }

    /// Emits `control_*` counters (monotone totals) plus one `audit_*`
    /// event per record appended since the previous call. Observe-only:
    /// with no sink attached the cursor simply never advances and
    /// simulation state is untouched.
    pub fn emit_telemetry(&mut self, sink: &mut dyn TelemetrySink) {
        sink.count_to("control_audit_records", self.records.len() as u64);
        for action in AuditAction::all() {
            sink.count_to(action.counter_name(), self.count(action));
        }
        for r in &self.records[self.emitted..] {
            sink.event(r.at, r.action.event_name(), r.bytes as f64);
        }
        self.emitted = self.records.len();
    }
}

/// The registry resolved once into a per-class table: `true` where the
/// class is `Required` (undeclared classes included), indexed by
/// [`ControlClass::index`].
fn required_classes(registry: &RetentionRegistry) -> [bool; 5] {
    ControlClass::all().map(|c| registry.is_required(c))
}

/// One step of the REQUIRED-DURABLE scan: true if `r` reclaims a
/// `Required` object with no earlier recovery in `recovered`. Records of
/// other classes are skipped before the set is touched. A recovery of
/// `(class, id)` only ever excuses a reclaim of the same `(class, id)`,
/// and reclaims are only checked for `Required` classes, so a recovery of
/// any other class would never be looked up.
fn is_violation(
    r: &AuditRecord,
    required: &[bool; 5],
    recovered: &mut BTreeSet<(ControlClass, u64)>,
) -> bool {
    if !required[r.class.index()] {
        return false;
    }
    if r.action.is_recovery() {
        recovered.insert((r.class, r.id));
        false
    } else {
        r.action.is_reclaim() && !recovered.contains(&(r.class, r.id))
    }
}

/// An incremental REQUIRED-DURABLE scan over one [`AuditLog`]. Each
/// [`AuditCursor::advance`] reads only the records appended since the
/// previous call, and carries the recovered set of the REQUIRED-DURABLE
/// scan, so the running violation count costs O(new records) instead of a
/// rescan of the whole log.
///
/// Like the full scan, the set holds only recoveries of `Required`
/// classes. The cursor therefore assumes each class's durability stays
/// the same across advances: a class that turned `Required` later would
/// have had its earlier recoveries skipped. Swapping in a registry that
/// keeps every class's durability (a new follow-up window, say) is fine.
#[derive(Clone, Debug, Default)]
pub(crate) struct AuditCursor {
    next: usize,
    recovered: BTreeSet<(ControlClass, u64)>,
    violations: u64,
}

impl AuditCursor {
    /// Counts the required-drop violations among the records appended to
    /// `log` since the previous call. Always advance a cursor over the
    /// same log, under registries that agree on every class's durability.
    pub fn advance(&mut self, log: &AuditLog, registry: &RetentionRegistry) {
        let required = required_classes(registry);
        for r in &log.records[self.next..] {
            if is_violation(r, &required, &mut self.recovered) {
                self.violations += 1;
            }
        }
        self.next = log.records.len();
    }

    /// Required-drop violations among the records folded so far: the
    /// length of [`AuditLog::required_drop_violations`] over that prefix.
    pub fn violations(&self) -> u64 {
        self.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::RetentionPolicy;
    use mrm_sim::rng::SimRng;
    use mrm_sim::time::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    fn serving() -> RetentionRegistry {
        RetentionRegistry::serving_default(SimDuration::from_mins(10))
    }

    /// The REQUIRED-DURABLE walk before the Required-only filter: every
    /// recovery enters the set, whatever its class. Kept as the reference
    /// the filtered scan must match.
    fn reference_violations(log: &AuditLog, registry: &RetentionRegistry) -> Vec<u64> {
        let mut recovered: BTreeSet<(ControlClass, u64)> = BTreeSet::new();
        let mut violations = Vec::new();
        for r in log.records() {
            if r.action.is_recovery() {
                recovered.insert((r.class, r.id));
            } else if r.action.is_reclaim()
                && registry.is_required(r.class)
                && !recovered.contains(&(r.class, r.id))
            {
                violations.push(r.seq);
            }
        }
        violations
    }

    /// All 3^5 = 243 registries: each class undeclared, `Required` or
    /// `Ephemeral`.
    fn all_registries() -> Vec<RetentionRegistry> {
        (0..243u32)
            .map(|code| {
                let mut reg = RetentionRegistry::new();
                let mut rest = code;
                for c in ControlClass::all() {
                    match rest % 3 {
                        0 => {}
                        1 => reg.declare(c, RetentionPolicy::required()),
                        _ => reg.declare(c, RetentionPolicy::ephemeral(SimDuration::from_mins(10))),
                    }
                    rest /= 3;
                }
                reg
            })
            .collect()
    }

    fn log_of(script: &[(ControlClass, u64, AuditAction)]) -> AuditLog {
        let mut log = AuditLog::new();
        for (i, &(class, id, action)) in script.iter().enumerate() {
            log.record(t(i as u64), class, id, action, Reason::SessionKv, 1);
        }
        log
    }

    /// The filtered scan and a cursor split at `split` both agree with
    /// the reference walk under every registry.
    fn assert_matches_reference(script: &[(ControlClass, u64, AuditAction)], split: usize) {
        let log = log_of(script);
        let head = log_of(&script[..split]);
        for (code, reg) in all_registries().iter().enumerate() {
            let want = reference_violations(&log, reg);
            assert_eq!(
                log.required_drop_violations(reg),
                want,
                "registry {code}, script {script:?}"
            );
            let mut cursor = AuditCursor::default();
            cursor.advance(&head, reg);
            cursor.advance(&log, reg);
            assert_eq!(
                cursor.violations(),
                want.len() as u64,
                "registry {code}, split {split}"
            );
        }
    }

    /// The labels of every reason, verbatim: traces and reports print
    /// these, so a renamed label changes their bytes.
    const LABELS: [&str; 21] = [
        "admit",
        "followup-admit",
        "followup-consumed",
        "park-followup",
        "completed",
        "memory-pressure",
        "stall-putback",
        "retention-lapsed",
        "uncorrectable-read",
        "already-evicted",
        "ttl-expired",
        "scrub-verify-failed",
        "superseded",
        "redeploy",
        "deploy",
        "deadline-refresh",
        "long-remaining-need",
        "need-lapsed",
        "need-ended",
        "session-kv",
        "retention-window-reconfigured",
    ];

    #[test]
    fn reason_labels_are_pinned_unique_and_round_trip() {
        let labels = Reason::all().map(Reason::label);
        assert_eq!(labels, LABELS);
        let unique: BTreeSet<_> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len(), "duplicate label");
        for (i, r) in Reason::all().into_iter().enumerate() {
            assert_eq!(r as usize, i, "all() is in declaration order");
            assert_eq!(Reason::from(LABELS[i]), r);
        }
    }

    #[test]
    #[should_panic(expected = "unknown audit reason \"fuzz-stream\"")]
    fn unknown_reason_label_panics() {
        let _ = Reason::from("fuzz-stream");
    }

    #[test]
    fn seqs_are_dense_and_counts_track() {
        let mut log = AuditLog::new();
        let s0 = log.record(
            t(1),
            ControlClass::Weights,
            0,
            AuditAction::Store,
            Reason::Admit,
            10,
        );
        let s1 = log.record(
            t(2),
            ControlClass::KvPrefix,
            7,
            AuditAction::Store,
            Reason::ParkFollowup,
            5,
        );
        let s2 = log.record(
            t(3),
            ControlClass::KvPrefix,
            7,
            AuditAction::Drop,
            Reason::TtlExpired,
            5,
        );
        assert_eq!((s0, s1, s2), (0, 1, 2));
        assert_eq!(log.len(), 3);
        assert_eq!(log.count(AuditAction::Store), 2);
        assert_eq!(log.count(AuditAction::Drop), 1);
        assert_eq!(log.records()[2].reason, Reason::TtlExpired);
    }

    #[test]
    fn ephemeral_drop_is_not_a_violation() {
        let mut log = AuditLog::new();
        log.record(
            t(1),
            ControlClass::KvPrefix,
            1,
            AuditAction::Store,
            Reason::ParkFollowup,
            5,
        );
        log.record(
            t(2),
            ControlClass::KvPrefix,
            1,
            AuditAction::Drop,
            Reason::TtlExpired,
            5,
        );
        assert!(log.required_drop_violations(&serving()).is_empty());
    }

    #[test]
    fn required_drop_without_recovery_is_flagged() {
        let mut log = AuditLog::new();
        log.record(
            t(1),
            ControlClass::KvTail,
            3,
            AuditAction::Store,
            Reason::Admit,
            5,
        );
        log.record(
            t(2),
            ControlClass::KvTail,
            3,
            AuditAction::Drop,
            Reason::NeedLapsed,
            5,
        );
        assert_eq!(log.required_drop_violations(&serving()), vec![1]);
    }

    #[test]
    fn required_drop_after_recompute_is_legal() {
        let mut log = AuditLog::new();
        log.record(
            t(1),
            ControlClass::KvTail,
            3,
            AuditAction::Store,
            Reason::Admit,
            5,
        );
        log.record(
            t(2),
            ControlClass::KvTail,
            3,
            AuditAction::Recompute,
            Reason::UncorrectableRead,
            5,
        );
        log.record(
            t(2),
            ControlClass::KvTail,
            3,
            AuditAction::Drop,
            Reason::UncorrectableRead,
            5,
        );
        assert!(log.required_drop_violations(&serving()).is_empty());
        // …but only for the recovered id: another id still violates.
        log.record(
            t(3),
            ControlClass::KvTail,
            4,
            AuditAction::Drop,
            Reason::NeedLapsed,
            5,
        );
        assert_eq!(log.required_drop_violations(&serving()), vec![3]);
    }

    #[test]
    fn retire_of_required_is_always_legal() {
        let mut log = AuditLog::new();
        log.record(
            t(1),
            ControlClass::Weights,
            0,
            AuditAction::Store,
            Reason::Deploy,
            10,
        );
        log.record(
            t(2),
            ControlClass::Weights,
            0,
            AuditAction::Retire,
            Reason::Redeploy,
            10,
        );
        assert!(log.required_drop_violations(&serving()).is_empty());
    }

    #[test]
    fn unclassified_classes_are_conservatively_required() {
        let mut log = AuditLog::new();
        log.record(
            t(1),
            ControlClass::SessionState,
            9,
            AuditAction::Evict,
            Reason::MemoryPressure,
            1,
        );
        // Empty registry: everything is treated as Required.
        assert_eq!(
            log.required_drop_violations(&RetentionRegistry::new()),
            vec![0]
        );
    }

    #[test]
    fn cursor_matches_full_scan_at_every_split() {
        // Recoveries interleaved with Required (KvTail, Weights) and
        // Ephemeral (KvPrefix) reclaims, legal and illegal.
        let script: [(ControlClass, u64, AuditAction); 10] = [
            (ControlClass::KvTail, 1, AuditAction::Store),
            (ControlClass::KvTail, 1, AuditAction::Drop),
            (ControlClass::KvPrefix, 2, AuditAction::Evict),
            (ControlClass::KvTail, 3, AuditAction::Recompute),
            (ControlClass::KvTail, 3, AuditAction::Drop),
            (ControlClass::Weights, 0, AuditAction::Evict),
            (ControlClass::Weights, 0, AuditAction::Refetch),
            (ControlClass::Weights, 0, AuditAction::Drop),
            (ControlClass::KvPrefix, 3, AuditAction::Drop),
            (ControlClass::KvTail, 1, AuditAction::Evict),
        ];
        let reg = serving();
        let mut log = AuditLog::new();
        for (i, &(class, id, action)) in script.iter().enumerate() {
            log.record(t(i as u64), class, id, action, Reason::SessionKv, 1);
        }
        let full = log.required_drop_violations(&reg).len() as u64;
        assert_eq!(full, 3, "the script must exercise the oracle");
        for split in 0..=script.len() {
            let mut prefix = AuditLog::new();
            let mut cursor = AuditCursor::default();
            for (i, &(class, id, action)) in script.iter().enumerate() {
                if i == split {
                    cursor.advance(&prefix, &reg);
                    assert_eq!(
                        cursor.violations(),
                        prefix.required_drop_violations(&reg).len() as u64,
                        "split {split}"
                    );
                }
                prefix.record(t(i as u64), class, id, action, Reason::SessionKv, 1);
            }
            cursor.advance(&prefix, &reg);
            assert_eq!(cursor.violations(), full, "split {split}");
        }
    }

    #[test]
    fn filtered_scan_matches_reference_on_random_scripts() {
        let mut rng = SimRng::seed_from(0xA0D1);
        for _ in 0..64 {
            let len = rng.gen_index(48);
            let script: Vec<_> = (0..len)
                .map(|_| {
                    let class = ControlClass::all()[rng.gen_index(5)];
                    // A small id space so recoveries and reclaims collide.
                    let id = rng.gen_range_u64(6);
                    let action = AuditAction::all()[rng.gen_index(9)];
                    (class, id, action)
                })
                .collect();
            let split = rng.gen_index(len + 1);
            assert_matches_reference(&script, split);
        }
    }

    #[test]
    fn recovery_of_another_class_never_excuses_a_drop() {
        let script = [
            (ControlClass::KvPrefix, 7, AuditAction::Recompute),
            (ControlClass::KvTail, 7, AuditAction::Drop),
            (ControlClass::Weights, 7, AuditAction::Refetch),
            (ControlClass::SessionState, 7, AuditAction::Evict),
        ];
        assert_eq!(log_of(&script).required_drop_violations(&serving()), [1, 3]);
        assert_matches_reference(&script, 1);
    }

    #[test]
    fn lifecycle_shaped_script_matches_reference() {
        // Thousands of reconciler recompute-drops of parked prefixes, with
        // a few Required reclaims mixed in: one legal (recovered first),
        // one not, reusing the prefix ids.
        let mut script = Vec::new();
        for id in 0..2_000u64 {
            script.push((ControlClass::KvPrefix, id, AuditAction::Recompute));
            script.push((ControlClass::KvPrefix, id, AuditAction::Drop));
            if id % 500 == 0 {
                script.push((ControlClass::KvTail, id, AuditAction::Recompute));
                script.push((ControlClass::KvTail, id, AuditAction::Drop));
                script.push((ControlClass::Weights, id, AuditAction::Evict));
            }
        }
        let log = log_of(&script);
        assert_eq!(log.required_drop_violations(&serving()).len(), 4);
        assert_matches_reference(&script, script.len() / 2);
    }

    #[test]
    fn telemetry_counters_and_events_flow() {
        use mrm_telemetry::sink::SimTelemetry;

        fn counter(sink: &mut SimTelemetry, at: SimTime, name: &str) -> Option<u64> {
            sink.snapshot(at);
            let snap = sink.snapshots().last().unwrap();
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
        }

        let mut log = AuditLog::new();
        log.record(
            t(1),
            ControlClass::KvPrefix,
            1,
            AuditAction::Store,
            Reason::ParkFollowup,
            64,
        );
        log.record(
            t(2),
            ControlClass::KvPrefix,
            1,
            AuditAction::Refresh,
            Reason::DeadlineRefresh,
            64,
        );
        let mut sink = SimTelemetry::new(SimDuration::from_secs(1));
        log.emit_telemetry(&mut sink);
        assert_eq!(counter(&mut sink, t(2), "control_audit_records"), Some(2));
        assert_eq!(counter(&mut sink, t(2), "control_store"), Some(1));
        assert_eq!(counter(&mut sink, t(2), "control_refresh"), Some(1));
        assert_eq!(counter(&mut sink, t(2), "control_drop"), Some(0));
        assert_eq!(sink.events().total_pushed(), 2);
        // Cursor: a second emit adds only new records' events.
        log.record(
            t(3),
            ControlClass::KvPrefix,
            1,
            AuditAction::Drop,
            Reason::TtlExpired,
            64,
        );
        log.emit_telemetry(&mut sink);
        assert_eq!(counter(&mut sink, t(3), "control_audit_records"), Some(3));
        assert_eq!(counter(&mut sink, t(3), "control_drop"), Some(1));
        assert_eq!(sink.events().total_pushed(), 3);
    }

    #[test]
    fn pressure_policy_consulted_for_evictions() {
        // Evict of an Ephemeral class under its threshold is fine; the
        // oracle only hunts Required reclaims.
        let mut reg = RetentionRegistry::new();
        reg.declare(
            ControlClass::KvPrefix,
            RetentionPolicy::ephemeral(SimDuration::from_mins(10)),
        );
        let mut log = AuditLog::new();
        log.record(
            t(1),
            ControlClass::KvPrefix,
            2,
            AuditAction::Evict,
            Reason::MemoryPressure,
            64,
        );
        assert!(log.required_drop_violations(&reg).is_empty());
    }
}
