//! Control-plane data classes.
//!
//! §4 of the paper enumerates the data the serving stack places in memory —
//! weights, KV caches (the reused prefix and the live decode tail behave
//! differently), activations, and session state — and argues each needs a
//! *declared* lifetime policy rather than an implicit one. [`ControlClass`]
//! is that declaration key: finer-grained than the workload-side
//! [`DataClass`], because the control plane treats a completed context's
//! cached prefix (droppable, recomputable) differently from the KV tail of
//! a running request (dropping it aborts the request).

use mrm_workload::access::DataClass;
use serde::{Deserialize, Serialize};

/// A data class as the retention control plane sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ControlClass {
    /// Model weights: read every token, refetched from the model store on
    /// loss, redeployed on a fixed cadence.
    Weights,
    /// KV cache of a *completed* context kept for follow-up turns: soft
    /// state, recomputable from the prompt at a known cost.
    KvPrefix,
    /// KV cache of a *running* request (the decode tail): dropping it
    /// aborts the request, so it must survive until completion.
    KvTail,
    /// Transient activations: lifetime of one forward pass.
    Activation,
    /// Session metadata (conversation state, routing hints): tiny, but must
    /// outlive the KV it describes.
    SessionState,
}

impl ControlClass {
    /// All classes, in declaration order.
    pub fn all() -> [ControlClass; 5] {
        [
            ControlClass::Weights,
            ControlClass::KvPrefix,
            ControlClass::KvTail,
            ControlClass::Activation,
            ControlClass::SessionState,
        ]
    }

    /// Position in [`ControlClass::all`], for per-class tables.
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// Stable label for telemetry and reports.
    pub fn label(self) -> &'static str {
        match self {
            ControlClass::Weights => "weights",
            ControlClass::KvPrefix => "kv_prefix",
            ControlClass::KvTail => "kv_tail",
            ControlClass::Activation => "activation",
            ControlClass::SessionState => "session_state",
        }
    }

    /// The control class a workload-side write maps to. `KvCache` maps to
    /// the live tail; the prefix class is entered explicitly when a
    /// completed context is parked for follow-ups.
    pub fn from_data_class(class: DataClass) -> ControlClass {
        match class {
            DataClass::Weights => ControlClass::Weights,
            DataClass::KvCache => ControlClass::KvTail,
            DataClass::Activation => ControlClass::Activation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_position_in_all() {
        for (i, c) in ControlClass::all().into_iter().enumerate() {
            assert_eq!(c.index(), i, "{c:?}");
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = ControlClass::all().iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 5);
    }

    #[test]
    fn data_class_mapping_covers_all_workload_classes() {
        assert_eq!(
            ControlClass::from_data_class(DataClass::Weights),
            ControlClass::Weights
        );
        assert_eq!(
            ControlClass::from_data_class(DataClass::KvCache),
            ControlClass::KvTail
        );
        assert_eq!(
            ControlClass::from_data_class(DataClass::Activation),
            ControlClass::Activation
        );
    }
}
