//! Placement policies: which tier each data class lands in.
//!
//! The §4 layout argument: MRM is "unlikely to be a one-size-fits-all
//! solution, and will co-exist with other types of memory, such as HBM for
//! write-heavy data structures (e.g., activations), and LPDDR as a slower
//! tier." The policies here are the systems compared in the cluster
//! experiments (T5/E9): the HBM-only status quo, the HBM+LPDDR cost
//! mitigation the paper argues is insufficient, and HBM+MRM with fixed or
//! dynamically-configured retention.

use mrm_workload::access::DataClass;
use serde::{Deserialize, Serialize};

use crate::tier::TierKind;

/// A data-placement policy over the §4 tier set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// Everything in HBM (today's accelerators).
    HbmOnly,
    /// Weights and activations in HBM; KV caches in the LPDDR cold tier
    /// (the "lower-cost, lower-throughput LPDDR for cooler data" strawman
    /// of §3).
    HbmLpddr,
    /// Weights and KV caches in MRM at its native (fixed) retention;
    /// activations in HBM.
    HbmMrm,
    /// As [`PlacementPolicy::HbmMrm`], with per-write retention classes
    /// chosen from lifetime hints (DCM, §4).
    HbmMrmDcm,
}

impl PlacementPolicy {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            PlacementPolicy::HbmOnly => "HBM-only",
            PlacementPolicy::HbmLpddr => "HBM+LPDDR",
            PlacementPolicy::HbmMrm => "HBM+MRM",
            PlacementPolicy::HbmMrmDcm => "HBM+MRM(DCM)",
        }
    }

    /// The tier a data class is placed in under this policy.
    pub fn tier_for(self, class: DataClass) -> TierKind {
        match (self, class) {
            (PlacementPolicy::HbmOnly, _) => TierKind::Hbm,
            (PlacementPolicy::HbmLpddr, DataClass::KvCache) => TierKind::Lpddr,
            (PlacementPolicy::HbmLpddr, _) => TierKind::Hbm,
            (PlacementPolicy::HbmMrm | PlacementPolicy::HbmMrmDcm, DataClass::Activation) => {
                TierKind::Hbm
            }
            (PlacementPolicy::HbmMrm | PlacementPolicy::HbmMrmDcm, _) => TierKind::Mrm,
        }
    }

    /// Whether the policy programs retention per write.
    pub fn uses_dcm(self) -> bool {
        matches!(self, PlacementPolicy::HbmMrmDcm)
    }

    /// Whether the policy has an MRM tier at all.
    pub fn uses_mrm(self) -> bool {
        matches!(self, PlacementPolicy::HbmMrm | PlacementPolicy::HbmMrmDcm)
    }

    /// All policies, in experiment order.
    pub fn all() -> [PlacementPolicy; 4] {
        [
            PlacementPolicy::HbmOnly,
            PlacementPolicy::HbmLpddr,
            PlacementPolicy::HbmMrm,
            PlacementPolicy::HbmMrmDcm,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hbm_only_places_everything_in_hbm() {
        for c in [
            DataClass::Weights,
            DataClass::KvCache,
            DataClass::Activation,
        ] {
            assert_eq!(PlacementPolicy::HbmOnly.tier_for(c), TierKind::Hbm);
        }
    }

    #[test]
    fn mrm_policies_keep_activations_in_hbm() {
        // §4: "HBM for write-heavy data structures (e.g., activations)".
        for p in [PlacementPolicy::HbmMrm, PlacementPolicy::HbmMrmDcm] {
            assert_eq!(p.tier_for(DataClass::Activation), TierKind::Hbm);
            assert_eq!(p.tier_for(DataClass::Weights), TierKind::Mrm);
            assert_eq!(p.tier_for(DataClass::KvCache), TierKind::Mrm);
        }
    }

    #[test]
    fn lpddr_policy_offloads_kv() {
        let p = PlacementPolicy::HbmLpddr;
        assert_eq!(p.tier_for(DataClass::KvCache), TierKind::Lpddr);
        assert_eq!(p.tier_for(DataClass::Weights), TierKind::Hbm);
    }

    #[test]
    fn dcm_flag() {
        assert!(PlacementPolicy::HbmMrmDcm.uses_dcm());
        assert!(!PlacementPolicy::HbmMrm.uses_dcm());
        assert!(PlacementPolicy::HbmMrm.uses_mrm());
        assert!(!PlacementPolicy::HbmLpddr.uses_mrm());
    }

    #[test]
    fn labels_unique() {
        let labels: std::collections::BTreeSet<_> =
            PlacementPolicy::all().iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), 4);
    }
}
