//! The simulated statistics each workload produces at `PINNED_SEED`.
//! They are exact: any change to them is a change to the simulation,
//! not to its speed.

use crate::Workload;

/// The recorded fingerprint of `w` at the pinned seed.
pub fn fingerprint(w: Workload) -> &'static str {
    match w {
        Workload::Serve => SERVE,
        Workload::Retention => RETENTION,
        Workload::Lifecycle => LIFECYCLE,
    }
}

const SERVE: &str =
    "arrivals=57463 completions=90133 tokens=11813717 tokens_per_s=3281.5880555555555 \
         cache_hits=6981 recomputes=25821 scrubs=0 migrations=0 drops=0 evictions=80258 \
         iterations=693945 mean_batch=17.02418491379 energy_total_j=1296423.8324903168 \
         j_per_token=0.10973885970777164 p50_latency_ms=Some(3675.5641856063635) \
         p99_latency_ms=Some(41584.261765258714) p50_ttft_ms=Some(386.34609346391625) \
         p99_ttft_ms=Some(2959.7302926889915) faults.reads=0 faults.raw_flips=0 \
         faults.corrected=0 faults.detected_ue=0 faults.miscorrected=0 faults.silent=0 \
         faults.retries=0 faults.weight_refetches=0 faults.kv_recomputes=0 \
         faults.scrub_escalations=0 control.audit_records=383583 control.stores=180405 \
         control.refreshes=0 control.migrations=0 control.drops=0 control.evictions=80258 \
         control.retires=97099 control.escalations=0 control.refetches=0 \
         control.recomputes=25821";

const RETENTION: &str =
    "arrivals=342 completions=382 tokens=45822 tokens_per_s=50.913333333333334 \
         cache_hits=26 recomputes=15 scrubs=0 migrations=114 drops=0 evictions=0 \
         iterations=40059 mean_batch=1.14388776554582 energy_total_j=71351.57017841874 \
         j_per_token=1.5571465710448855 p50_latency_ms=Some(1141.1320244181939) \
         p99_latency_ms=Some(12363.07499084532) p50_ttft_ms=Some(169.6302903244469) \
         p99_ttft_ms=Some(595.8271276941197) faults.reads=40344 faults.raw_flips=148309094 \
         faults.corrected=146425711 faults.detected_ue=24902 faults.miscorrected=140 \
         faults.silent=0 faults.retries=130 faults.weight_refetches=0 faults.kv_recomputes=15 \
         faults.scrub_escalations=114 control.audit_records=1319 control.stores=767 \
         control.refreshes=0 control.migrations=0 control.drops=15 control.evictions=0 \
         control.retires=408 control.escalations=114 control.refetches=0 \
         control.recomputes=15";

const LIFECYCLE: &str =
    "Summary { events: 526705, sessions: 525600, turns: 1213700, kv_bytes: 60053990112, \
         zone_rotations: 253129, zone_read_failures: 0, zone_scrubs: 140160, zones_retired: \
         0, dcm_derates: 0, dcm_margin: 1.5, ftl_errors: 0, ftl_dead: false, ftl_write_amp: \
         5.185388127853881, work_items: 623611, reconfigs: 12, checkpoints: 11, faults: \
         FaultStats { reads: 422836, codewords: 193929479, bits: 103170482828, raw_flips: \
         84119, corrected: 76303, detected_ue: 392, miscorrected: 48, silent: 0 }, \
         fault_retries: 390, control: ControlSummary { audit_records: 1674575, stores: \
         525600, refreshes: 98257, migrations: 14, drops: 525352, evictions: 0, retires: 0, \
         escalations: 0, refetches: 0, recomputes: 525352, required_drop_violations: 0 } }";
