//! The retention registry: declared policy per data class.
//!
//! ROADMAP item 2 / §4: software owns retention, so every class the system
//! stores must have a *declared* policy before the data path may touch it.
//! The registry is the single source of truth the reconciler, the audit
//! oracle, and the cluster's placement decision all read; a class without a
//! declaration is a [`ControlError::Unclassified`] error, not a silent
//! default.

use std::collections::BTreeMap;

use mrm_controller::dcm::RetentionClass;
use mrm_sim::time::SimDuration;

use crate::class::ControlClass;
use crate::policy::{Durability, RetentionPolicy};

/// Control-plane errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControlError {
    /// The data path asked about a class nobody declared a policy for.
    Unclassified(ControlClass),
}

impl std::fmt::Display for ControlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlError::Unclassified(c) => {
                write!(f, "no retention policy declared for class {}", c.label())
            }
        }
    }
}

impl std::error::Error for ControlError {}

/// The per-write retention target, as declared policy rather than inline
/// tier logic: self-refreshing tiers (and fixed-retention MRM) use the
/// tier's native interval; a managed tier running DCM quantizes the
/// lifetime hint onto the retention-class ladder with the declared margin.
pub fn retention_decision(
    managed_tier: bool,
    dcm: bool,
    lifetime_hint: SimDuration,
    native_retention: SimDuration,
    margin: f64,
) -> SimDuration {
    if managed_tier && dcm {
        RetentionClass::for_lifetime(lifetime_hint, margin).duration()
    } else {
        native_retention
    }
}

/// Maps each [`ControlClass`] to its declared [`RetentionPolicy`].
#[derive(Clone, Debug, Default)]
pub struct RetentionRegistry {
    policies: BTreeMap<ControlClass, RetentionPolicy>,
}

impl RetentionRegistry {
    /// An empty registry: every lookup is `Unclassified` until declared.
    pub fn new() -> Self {
        RetentionRegistry::default()
    }

    /// Declares (or replaces) the policy for a class.
    pub fn declare(&mut self, class: ControlClass, policy: RetentionPolicy) {
        self.policies.insert(class, policy);
    }

    /// The declared policy for a class.
    pub fn policy(&self, class: ControlClass) -> Result<RetentionPolicy, ControlError> {
        self.policies
            .get(&class)
            .copied()
            .ok_or(ControlError::Unclassified(class))
    }

    /// True if the class is declared `Required` (undeclared classes are
    /// treated as `Required` — the conservative direction for an oracle
    /// that hunts illegal drops).
    pub fn is_required(&self, class: ControlClass) -> bool {
        self.policies
            .get(&class)
            .map(|p| p.durability == Durability::Required)
            .unwrap_or(true)
    }

    /// True once every [`ControlClass`] has a declared policy
    /// (INV-CPR-CLASSIFIED: no data class reaches the data path
    /// unclassified).
    pub fn fully_classified(&self) -> bool {
        ControlClass::all()
            .iter()
            .all(|c| self.policies.contains_key(c))
    }

    /// Number of declared classes.
    pub fn len(&self) -> usize {
        self.policies.len()
    }

    /// True if nothing is declared.
    pub fn is_empty(&self) -> bool {
        self.policies.is_empty()
    }

    /// The default declaration set for the LLM-serving cluster model:
    ///
    /// * weights — `Required`, refetchable from the model store;
    /// * KV prefix (parked contexts) — `Ephemeral` with the follow-up
    ///   window as TTL, escalation to the 7-day class on failed refresh,
    ///   pressure-evictable only when allocation fails;
    /// * KV tail (running requests) — `Required` until completion,
    ///   recomputable from the prompt;
    /// * activations — `Ephemeral`, one forward pass;
    /// * session state — `Required`, tiny, outlives its KV.
    pub fn serving_default(followup_window: SimDuration) -> Self {
        let mut reg = RetentionRegistry::new();
        reg.declare(ControlClass::Weights, RetentionPolicy::required());
        reg.declare(
            ControlClass::KvPrefix,
            RetentionPolicy::ephemeral(followup_window).with_escalation(SimDuration::from_days(7)),
        );
        reg.declare(ControlClass::KvTail, RetentionPolicy::required());
        reg.declare(
            ControlClass::Activation,
            RetentionPolicy::ephemeral(SimDuration::from_millis(50)),
        );
        reg.declare(ControlClass::SessionState, RetentionPolicy::required());
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undeclared_class_is_an_error_and_conservatively_required() {
        let reg = RetentionRegistry::new();
        assert_eq!(
            reg.policy(ControlClass::Weights),
            Err(ControlError::Unclassified(ControlClass::Weights))
        );
        assert!(reg.is_required(ControlClass::KvPrefix));
        assert!(!reg.fully_classified());
    }

    #[test]
    fn serving_default_is_fully_classified() {
        let reg = RetentionRegistry::serving_default(SimDuration::from_mins(10));
        assert!(reg.fully_classified());
        assert_eq!(reg.len(), 5);
        assert!(reg.is_required(ControlClass::Weights));
        assert!(reg.is_required(ControlClass::KvTail));
        assert!(!reg.is_required(ControlClass::KvPrefix));
        let prefix = reg.policy(ControlClass::KvPrefix).unwrap();
        assert_eq!(prefix.ttl, Some(SimDuration::from_mins(10)));
        assert_eq!(prefix.escalation_class, Some(SimDuration::from_days(7)));
    }

    #[test]
    fn retention_decision_matches_tier_semantics() {
        let native = SimDuration::from_hours(12);
        let hint = SimDuration::from_mins(5);
        // Self-refreshing tier: native interval regardless of DCM flag.
        assert_eq!(retention_decision(false, true, hint, native, 1.25), native);
        // Fixed-retention MRM: native.
        assert_eq!(retention_decision(true, false, hint, native, 1.25), native);
        // DCM: quantized onto the ladder (5 min × 1.25 margin → 10-min class).
        assert_eq!(
            retention_decision(true, true, hint, native, 1.25),
            SimDuration::from_mins(10)
        );
    }

    #[test]
    fn declare_replaces_and_len_tracks() {
        let mut reg = RetentionRegistry::new();
        reg.declare(ControlClass::Weights, RetentionPolicy::required());
        reg.declare(
            ControlClass::Weights,
            RetentionPolicy::ephemeral(SimDuration::from_secs(30)),
        );
        assert_eq!(reg.len(), 1);
        assert!(!reg.is_required(ControlClass::Weights));
        assert!(!reg.is_empty());
    }
}
