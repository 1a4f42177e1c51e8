//! The paper's lightweight MRM block controller.
//!
//! §4, "Lightweight memory controllers": "The lack of random access
//! requirements opens up a unique prospect of a block-level access memory
//! controller ... Much of the functionality that is typically handled on the
//! device, such as refresh and wear-levelling can be left up to a software
//! control plane higher up in the stack ... akin to zoned storage interfaces
//! for Flash."
//!
//! [`MrmBlockController`] therefore exposes:
//!
//! * zones with strictly append-only write pointers (KV caches are
//!   append-only; weights are bulk-sequential) — no random writes, no
//!   device-side mapping;
//! * a **retention-deadline registry**: every append is stamped with its
//!   retention target, and the controller reports which zones are
//!   approaching expiry so the *software* control plane can decide to
//!   scrub, migrate, or drop (§4 "Retention-aware data placement");
//! * software-visible per-zone write-cycle counters for control-plane wear
//!   levelling;
//! * **no** internal refresh, GC, or wear-levelling machinery at all —
//!   that absence is the point, and the energy ledger shows it.
//!
//! The two selection queries the control plane runs on every zone
//! rotation read ordered indexes instead of scanning the zones:
//!
//! * **empty zones by `(write_cycles, index)`** — the first entry is the
//!   least-worn zone;
//! * **open and full zones by `(deadline, index)`** — the expiry work
//!   list is a prefix of it.
//!
//! Both break ties by the lowest zone index. Each index is a sorted
//! `Vec`: an update is a binary search plus one move of at most
//! `zone_count` entries, and the expiry list is copied out of one
//! contiguous prefix. Every change to a zone's state, deadline or write
//! cycles goes through one helper that moves the zone between the
//! indexes.

use mrm_device::device::{DeviceError, MemoryDevice, OpResult};
use mrm_device::energy::EnergyBreakdown;
use mrm_faults::{FaultModel, FaultStats, ReadFaults, RecoveryAction};
use mrm_sim::time::{SimDuration, SimTime};
use mrm_telemetry::TelemetrySink;

/// Zone identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ZoneId(pub u32);

/// Zone lifecycle state (zoned-storage style).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ZoneState {
    /// Unwritten and available.
    Empty,
    /// Open for appends.
    Open,
    /// Finished: read-only until reset.
    Full,
    /// Retired by the recovery machinery: permanently out of service.
    Retired,
}

/// Errors from the block controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ZoneError {
    /// No such zone.
    InvalidZone,
    /// Operation requires an open zone.
    NotOpen,
    /// Append would exceed the zone capacity.
    ZoneOverflow,
    /// Read beyond the write pointer.
    ReadBeyondWritePointer,
    /// No empty zone available.
    NoEmptyZones,
    /// The zone has been retired and cannot be used again.
    ZoneRetired,
    /// Underlying device error.
    Device(DeviceError),
}

impl std::fmt::Display for ZoneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZoneError::InvalidZone => write!(f, "invalid zone id"),
            ZoneError::NotOpen => write!(f, "zone is not open"),
            ZoneError::ZoneOverflow => write!(f, "append exceeds zone capacity"),
            ZoneError::ReadBeyondWritePointer => write!(f, "read beyond write pointer"),
            ZoneError::NoEmptyZones => write!(f, "no empty zones available"),
            ZoneError::ZoneRetired => write!(f, "zone is retired"),
            ZoneError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for ZoneError {}

impl From<DeviceError> for ZoneError {
    fn from(e: DeviceError) -> Self {
        ZoneError::Device(e)
    }
}

#[derive(Clone, Debug)]
struct Zone {
    state: ZoneState,
    /// Bytes appended so far.
    write_ptr: u64,
    /// Earliest retention deadline across the zone's appends.
    deadline: SimTime,
    /// Software-visible cumulative full-zone write cycles.
    write_cycles: u64,
}

impl Zone {
    fn new() -> Self {
        Zone {
            state: ZoneState::Empty,
            write_ptr: 0,
            deadline: SimTime::MAX,
            write_cycles: 0,
        }
    }

    /// Where the zone sits in the controller's selection indexes.
    fn slot(&self) -> Slot {
        match self.state {
            ZoneState::Empty => Slot::Empty(self.write_cycles),
            ZoneState::Open | ZoneState::Full => Slot::Written(self.deadline),
            ZoneState::Retired => Slot::Retired,
        }
    }
}

/// A zone's index key: empty zones by wear, written zones by deadline,
/// retired zones in neither index.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Slot {
    Empty(u64),
    Written(SimTime),
    Retired,
}

/// Inserts `key` into the sorted `v`.
fn insert_sorted<K: Ord>(v: &mut Vec<K>, key: K) {
    let at = v.binary_search(&key).unwrap_or_else(|at| at);
    v.insert(at, key);
}

/// Removes `key` from the sorted `v`.
fn remove_sorted<K: Ord>(v: &mut Vec<K>, key: K) {
    let at = v
        .binary_search(&key)
        .expect("a zone is indexed under its current key");
    v.remove(at);
}

/// The lightweight block-level MRM controller.
///
/// # Examples
///
/// ```
/// use mrm_controller::mrm_block::MrmBlockController;
/// use mrm_device::device::MemoryDevice;
/// use mrm_device::tech::presets;
/// use mrm_sim::time::{SimDuration, SimTime};
///
/// let dev = MemoryDevice::new(presets::mrm_hours());
/// let mut ctrl = MrmBlockController::new(dev, 256 * 1024 * 1024);
/// let z = ctrl.open_zone().unwrap();
/// ctrl.append(SimTime::ZERO, z, 4096, SimDuration::from_hours(12)).unwrap();
/// let res = ctrl.read(SimTime::ZERO, z, 0, 4096).unwrap();
/// assert!(!res.expired);
/// ```
#[derive(Clone, Debug)]
pub struct MrmBlockController {
    device: MemoryDevice,
    zone_bytes: u64,
    zones: Vec<Zone>,
    /// Empty zones by `(write_cycles, index)`: the first is the least worn.
    empty_by_wear: Vec<(u64, u32)>,
    /// Open and full zones by `(deadline, index)`: the expiry work list.
    written_by_deadline: Vec<(SimTime, u32)>,
    /// Software-initiated scrub (in-place rewrite) operations completed.
    scrub_ops: u64,
    /// Bytes rewritten by scrubs.
    scrub_bytes: u64,
    /// Optional fault-injection layer for checked reads.
    faults: Option<FaultModel>,
    /// Checked reads that needed a retry re-read.
    read_retries: u64,
    /// Checked reads that escalated to an inline scrub.
    scrub_escalations: u64,
    /// Zones permanently retired by the recovery machinery.
    zones_retired: u64,
}

/// Result of a [`MrmBlockController::read_checked`] recovery sequence.
#[derive(Clone, Copy, Debug)]
pub struct CheckedRead {
    /// The device-level result of the *final* read attempt (timing and
    /// reliability of the data actually returned to the caller).
    pub op: OpResult,
    /// Fault outcomes merged across every attempt in the sequence.
    pub faults: ReadFaults,
    /// The deepest recovery step the sequence reached.
    pub action: RecoveryAction,
}

impl CheckedRead {
    /// Whether the data handed back is good (clean, corrected, or
    /// recovered). `false` means the zone was retired and the caller must
    /// re-fetch from a colder tier or recompute.
    pub fn recovered(&self) -> bool {
        self.action != RecoveryAction::Retired
    }
}

impl MrmBlockController {
    /// Creates a controller dividing `device` into zones of `zone_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `zone_bytes` is zero or larger than the device.
    pub fn new(device: MemoryDevice, zone_bytes: u64) -> Self {
        assert!(zone_bytes > 0, "zone size must be positive");
        let n = device.capacity_bytes() / zone_bytes;
        assert!(n > 0, "zone larger than device");
        MrmBlockController {
            device,
            zone_bytes,
            zones: (0..n).map(|_| Zone::new()).collect(),
            empty_by_wear: (0..n).map(|i| (0, i as u32)).collect(),
            written_by_deadline: Vec::new(),
            scrub_ops: 0,
            scrub_bytes: 0,
            faults: None,
            read_retries: 0,
            scrub_escalations: 0,
            zones_retired: 0,
        }
    }

    /// Attaches a fault-injection layer; [`MrmBlockController::read_checked`]
    /// runs every read through it and drives recovery on uncorrectables.
    pub fn attach_faults(&mut self, model: FaultModel) {
        self.faults = Some(model);
    }

    /// Cumulative fault-layer totals, if a layer is attached.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.faults.as_ref().map(|f| f.stats())
    }

    /// Checked reads that needed a retry re-read.
    pub fn read_retries(&self) -> u64 {
        self.read_retries
    }

    /// Checked reads that escalated to an inline scrub.
    pub fn scrub_escalations(&self) -> u64 {
        self.scrub_escalations
    }

    /// Zones permanently retired by the recovery machinery.
    pub fn zones_retired(&self) -> u64 {
        self.zones_retired
    }

    /// Number of zones.
    pub fn zone_count(&self) -> usize {
        self.zones.len()
    }

    /// Zone capacity, bytes.
    pub fn zone_bytes(&self) -> u64 {
        self.zone_bytes
    }

    /// The underlying device (for energy/wear inspection).
    pub fn device(&self) -> &MemoryDevice {
        &self.device
    }

    /// Accumulated device energy.
    pub fn energy(&self) -> EnergyBreakdown {
        self.device.energy()
    }

    /// The state of a zone.
    pub fn zone_state(&self, z: ZoneId) -> Result<ZoneState, ZoneError> {
        Ok(self.zone(z)?.state)
    }

    /// The write pointer of a zone.
    pub fn write_pointer(&self, z: ZoneId) -> Result<u64, ZoneError> {
        Ok(self.zone(z)?.write_ptr)
    }

    /// The earliest retention deadline of data in the zone
    /// ([`SimTime::MAX`] if empty).
    pub fn deadline(&self, z: ZoneId) -> Result<SimTime, ZoneError> {
        Ok(self.zone(z)?.deadline)
    }

    /// Software-visible write-cycle count of the zone.
    pub fn write_cycles(&self, z: ZoneId) -> Result<u64, ZoneError> {
        Ok(self.zone(z)?.write_cycles)
    }

    fn zone(&self, z: ZoneId) -> Result<&Zone, ZoneError> {
        self.zones.get(z.0 as usize).ok_or(ZoneError::InvalidZone)
    }

    /// Applies `f` to zone `z` (which must exist) and moves the zone
    /// between the selection indexes if its key changed. Every change to
    /// a zone's state, deadline or write cycles goes through here.
    fn update(&mut self, z: ZoneId, f: impl FnOnce(&mut Zone)) {
        let zone = &mut self.zones[z.0 as usize];
        let before = zone.slot();
        f(zone);
        let after = zone.slot();
        if before == after {
            return;
        }
        match before {
            Slot::Empty(cycles) => remove_sorted(&mut self.empty_by_wear, (cycles, z.0)),
            Slot::Written(deadline) => {
                remove_sorted(&mut self.written_by_deadline, (deadline, z.0))
            }
            Slot::Retired => {}
        }
        match after {
            Slot::Empty(cycles) => insert_sorted(&mut self.empty_by_wear, (cycles, z.0)),
            Slot::Written(deadline) => {
                insert_sorted(&mut self.written_by_deadline, (deadline, z.0))
            }
            Slot::Retired => {}
        }
    }

    fn base(&self, z: ZoneId) -> u64 {
        u64::from(z.0) * self.zone_bytes
    }

    /// Opens the lowest-numbered empty zone. Control-plane wear levelling
    /// should prefer [`MrmBlockController::open_zone_least_worn`].
    pub fn open_zone(&mut self) -> Result<ZoneId, ZoneError> {
        let idx = self
            .zones
            .iter()
            .position(|zn| zn.state == ZoneState::Empty)
            .ok_or(ZoneError::NoEmptyZones)?;
        let z = ZoneId(idx as u32);
        self.update(z, |zn| zn.state = ZoneState::Open);
        Ok(z)
    }

    /// Opens the empty zone with the fewest write cycles, the lowest index
    /// among equals — the software wear-levelling primitive (§4:
    /// wear-levelling "left up to a software control plane").
    pub fn open_zone_least_worn(&mut self) -> Result<ZoneId, ZoneError> {
        let &(_, idx) = self.empty_by_wear.first().ok_or(ZoneError::NoEmptyZones)?;
        let z = ZoneId(idx);
        self.update(z, |zn| zn.state = ZoneState::Open);
        Ok(z)
    }

    /// Appends `bytes` to an open zone, programming the cells for
    /// `retention`. Returns the device-level timing/reliability result.
    pub fn append(
        &mut self,
        now: SimTime,
        z: ZoneId,
        bytes: u64,
        retention: SimDuration,
    ) -> Result<OpResult, ZoneError> {
        let zone_bytes = self.zone_bytes;
        let base = self.base(z);
        let zone = self.zone(z)?;
        if zone.state == ZoneState::Retired {
            return Err(ZoneError::ZoneRetired);
        }
        if zone.state != ZoneState::Open {
            return Err(ZoneError::NotOpen);
        }
        let end = zone
            .write_ptr
            .checked_add(bytes)
            .filter(|&end| end <= zone_bytes)
            .ok_or(ZoneError::ZoneOverflow)?;
        let addr = base + zone.write_ptr;
        let deadline = now.saturating_add(retention);
        let res = self
            .device
            .write_with_retention(now, addr, bytes, retention)?;
        self.update(z, |zone| {
            zone.write_ptr = end;
            zone.deadline = zone.deadline.min(deadline);
            if end == zone_bytes {
                zone.state = ZoneState::Full;
            }
        });
        Ok(res)
    }

    /// Reads `[offset, offset+len)` of a zone. Fails if the range is beyond
    /// the write pointer. The returned [`OpResult`] carries the expected
    /// RBER/expiry of the data.
    pub fn read(
        &mut self,
        now: SimTime,
        z: ZoneId,
        offset: u64,
        len: u64,
    ) -> Result<OpResult, ZoneError> {
        let base = self.base(z);
        let zone = self.zone(z)?;
        if zone.state == ZoneState::Retired {
            return Err(ZoneError::ZoneRetired);
        }
        if zone.state == ZoneState::Empty {
            return Err(ZoneError::NotOpen);
        }
        if offset
            .checked_add(len)
            .is_none_or(|end| end > zone.write_ptr)
        {
            return Err(ZoneError::ReadBeyondWritePointer);
        }
        Ok(self.device.read(now, base + offset, len)?)
    }

    /// Reads a zone range through the fault layer and, on an uncorrectable
    /// outcome, runs the recovery state machine (DESIGN.md §9):
    ///
    /// 1. **retry** — re-read the range (transient decode failures clear);
    /// 2. **scrub escalation** — rewrite the zone in place for
    ///    `scrub_retention`, then re-read at the refreshed error rate;
    /// 3. **retirement** — if the scrubbed re-read still fails (or the
    ///    device reports the region worn out), the zone is permanently
    ///    retired and the caller must restore the data from elsewhere.
    ///
    /// Without an attached fault layer this is exactly
    /// [`MrmBlockController::read`].
    pub fn read_checked(
        &mut self,
        now: SimTime,
        z: ZoneId,
        offset: u64,
        len: u64,
        scrub_retention: SimDuration,
    ) -> Result<CheckedRead, ZoneError> {
        let mut op = self.read(now, z, offset, len)?;
        let Some(model) = self.faults.as_mut() else {
            return Ok(CheckedRead {
                op,
                faults: ReadFaults::default(),
                action: RecoveryAction::None,
            });
        };
        let mut faults = model.inject_read(len, op.rber);
        if !faults.uncorrectable() && !op.worn_out {
            return Ok(CheckedRead {
                op,
                faults,
                action: RecoveryAction::None,
            });
        }
        // Step 1: retry. The re-read costs real device time/energy and the
        // injection re-samples — a transient UE clears here.
        let mut action = RecoveryAction::Retired;
        if !op.worn_out {
            self.read_retries += 1;
            op = self.read(now, z, offset, len)?;
            let model = self.faults.as_mut().expect("fault layer attached");
            let again = model.inject_read(len, op.rber);
            let clean = !again.uncorrectable();
            faults.merge(&again);
            if clean && !op.worn_out {
                action = RecoveryAction::Retried;
            }
        }
        // Step 2: scrub escalation — rewrite in place, then re-read at the
        // refreshed (fresh-write) error rate.
        if action == RecoveryAction::Retired && !op.worn_out {
            self.scrub_escalations += 1;
            self.scrub_zone(now, z, scrub_retention)?;
            op = self.read(now, z, offset, len)?;
            let model = self.faults.as_mut().expect("fault layer attached");
            let again = model.inject_read(len, op.rber);
            let clean = !again.uncorrectable();
            faults.merge(&again);
            if clean && !op.worn_out {
                action = RecoveryAction::Scrubbed;
            }
        }
        // Step 3: retirement.
        if action == RecoveryAction::Retired {
            self.retire_zone(z)?;
        }
        Ok(CheckedRead { op, faults, action })
    }

    /// Permanently takes a zone out of service. Retired zones reject every
    /// operation and are excluded from zone selection and expiry scans.
    pub fn retire_zone(&mut self, z: ZoneId) -> Result<(), ZoneError> {
        if self.zone(z)?.state == ZoneState::Retired {
            return Ok(());
        }
        self.update(z, |zone| {
            zone.state = ZoneState::Retired;
            zone.deadline = SimTime::MAX;
        });
        self.zones_retired += 1;
        Ok(())
    }

    /// Marks an open zone full (no further appends).
    pub fn finish_zone(&mut self, z: ZoneId) -> Result<(), ZoneError> {
        if self.zone(z)?.state != ZoneState::Open {
            return Err(ZoneError::NotOpen);
        }
        self.update(z, |zone| zone.state = ZoneState::Full);
        Ok(())
    }

    /// Resets a zone to empty (data dropped — fine for soft state, §4).
    /// A reset of a written zone completes one reuse cycle, which is what
    /// the software wear-leveller counts.
    pub fn reset_zone(&mut self, z: ZoneId) -> Result<(), ZoneError> {
        if self.zone(z)?.state == ZoneState::Retired {
            return Err(ZoneError::ZoneRetired);
        }
        self.update(z, |zone| {
            if zone.write_ptr > 0 {
                zone.write_cycles += 1;
            }
            zone.state = ZoneState::Empty;
            zone.write_ptr = 0;
            zone.deadline = SimTime::MAX;
        });
        Ok(())
    }

    /// Open and full zones whose earliest retention deadline is at or
    /// before `horizon`, soonest first and the lowest index among equal
    /// deadlines — the control plane's scrub/migrate/drop work list.
    pub fn zones_expiring_before(&self, horizon: SimTime) -> Vec<(ZoneId, SimTime)> {
        let n = self
            .written_by_deadline
            .partition_point(|&(deadline, _)| deadline <= horizon);
        self.written_by_deadline[..n]
            .iter()
            .map(|&(deadline, idx)| (ZoneId(idx), deadline))
            .collect()
    }

    /// Scrubs a zone: rewrites its contents in place with a fresh
    /// `retention` target, charged as housekeeping on the device ledger.
    /// This is the *software-initiated* refresh the paper moves out of the
    /// device.
    pub fn scrub_zone(
        &mut self,
        now: SimTime,
        z: ZoneId,
        retention: SimDuration,
    ) -> Result<u64, ZoneError> {
        let base = self.base(z);
        let (written, state) = {
            let zone = self.zone(z)?;
            (zone.write_ptr, zone.state)
        };
        if state == ZoneState::Retired {
            return Err(ZoneError::ZoneRetired);
        }
        if state == ZoneState::Empty {
            return Err(ZoneError::NotOpen);
        }
        if written == 0 {
            return Ok(0);
        }
        let bytes = self.device.refresh_range(now, base, written)?;
        self.update(z, |zone| {
            zone.deadline = now.saturating_add(retention);
            zone.write_cycles += 1;
        });
        self.scrub_ops += 1;
        self.scrub_bytes += bytes;
        Ok(bytes)
    }

    /// Scrub (software-refresh rewrite) operations completed so far.
    pub fn scrub_ops(&self) -> u64 {
        self.scrub_ops
    }

    /// Bytes rewritten by scrubs so far.
    pub fn scrub_bytes(&self) -> u64 {
        self.scrub_bytes
    }

    /// Publishes the controller's ledger into `sink`: scrub (rewrite)
    /// totals plus zone-state and wear gauges. With no device-side
    /// refresh/GC, scrub rewrites are the *only* housekeeping an MRM
    /// device performs — exactly the signal the paper's §4 argument needs
    /// on a timeline.
    ///
    /// Pull-style and idempotent (totals via [`TelemetrySink::count_to`]).
    pub fn emit_telemetry(&self, sink: &mut dyn TelemetrySink) {
        if !sink.enabled() {
            return;
        }
        sink.count_to("mrm_scrub_ops", self.scrub_ops);
        sink.count_to("mrm_scrub_bytes", self.scrub_bytes);
        sink.count_to("mrm_read_retries", self.read_retries);
        sink.count_to("mrm_scrub_escalations", self.scrub_escalations);
        sink.count_to("mrm_zones_retired", self.zones_retired);
        if let Some(fs) = self.fault_stats() {
            sink.count_to("mrm_fault_raw_flips", fs.raw_flips);
            sink.count_to("mrm_fault_corrected", fs.corrected);
            sink.count_to("mrm_fault_detected_ue", fs.detected_ue);
            sink.count_to("mrm_fault_miscorrected", fs.miscorrected);
            sink.count_to("mrm_fault_silent", fs.silent);
            sink.gauge("mrm_fault_raw_ber", fs.raw_ber());
        }
        let (mut empty, mut open, mut full, mut retired) = (0u64, 0u64, 0u64, 0u64);
        let mut max_cycles = 0u64;
        let mut sum_cycles = 0u64;
        for zn in &self.zones {
            match zn.state {
                ZoneState::Empty => empty += 1,
                ZoneState::Open => open += 1,
                ZoneState::Full => full += 1,
                ZoneState::Retired => retired += 1,
            }
            max_cycles = max_cycles.max(zn.write_cycles);
            sum_cycles += zn.write_cycles;
        }
        sink.gauge("mrm_zones_empty", empty as f64);
        sink.gauge("mrm_zones_open", open as f64);
        sink.gauge("mrm_zones_full", full as f64);
        sink.gauge("mrm_zones_retired_now", retired as f64);
        sink.gauge("mrm_zone_cycles_max", max_cycles as f64);
        sink.gauge(
            "mrm_zone_cycles_mean",
            sum_cycles as f64 / self.zones.len() as f64,
        );
    }

    /// Observes every zone's write-cycle count into the
    /// `zone_write_cycles` histogram — the wear distribution the software
    /// wear-leveller is trying to flatten. One-shot: call at end of run,
    /// not per interval, since histogram observations accumulate.
    pub fn emit_wear_histogram(&self, sink: &mut dyn TelemetrySink) {
        if !sink.enabled() {
            return;
        }
        for zn in &self.zones {
            sink.observe("zone_write_cycles", zn.write_cycles as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrm_device::tech::presets;
    use mrm_sim::units::MIB;

    fn ctrl() -> MrmBlockController {
        let mut tech = presets::mrm_hours();
        tech.capacity_bytes = 64 * MIB; // small for tests
        MrmBlockController::new(MemoryDevice::new(tech), 4 * MIB)
    }

    #[test]
    fn zone_lifecycle() {
        let mut c = ctrl();
        assert_eq!(c.zone_count(), 16);
        let z = c.open_zone().unwrap();
        assert_eq!(c.zone_state(z).unwrap(), ZoneState::Open);
        c.append(SimTime::ZERO, z, MIB, SimDuration::from_hours(12))
            .unwrap();
        assert_eq!(c.write_pointer(z).unwrap(), MIB);
        c.finish_zone(z).unwrap();
        assert_eq!(c.zone_state(z).unwrap(), ZoneState::Full);
        c.reset_zone(z).unwrap();
        assert_eq!(c.zone_state(z).unwrap(), ZoneState::Empty);
        assert_eq!(c.write_pointer(z).unwrap(), 0);
    }

    #[test]
    fn appends_are_strictly_sequential() {
        let mut c = ctrl();
        let z = c.open_zone().unwrap();
        c.append(SimTime::ZERO, z, 1000, SimDuration::from_hours(1))
            .unwrap();
        c.append(SimTime::ZERO, z, 1000, SimDuration::from_hours(1))
            .unwrap();
        assert_eq!(c.write_pointer(z).unwrap(), 2000);
        // Reads below the pointer succeed; beyond it fail.
        assert!(c.read(SimTime::ZERO, z, 0, 2000).is_ok());
        assert_eq!(
            c.read(SimTime::ZERO, z, 1000, 1001).unwrap_err(),
            ZoneError::ReadBeyondWritePointer
        );
    }

    #[test]
    fn zone_overflow_rejected() {
        let mut c = ctrl();
        let z = c.open_zone().unwrap();
        assert_eq!(
            c.append(SimTime::ZERO, z, 5 * MIB, SimDuration::from_hours(1))
                .unwrap_err(),
            ZoneError::ZoneOverflow
        );
    }

    #[test]
    fn full_zone_rejects_appends() {
        let mut c = ctrl();
        let z = c.open_zone().unwrap();
        c.append(SimTime::ZERO, z, 4 * MIB, SimDuration::from_hours(1))
            .unwrap();
        assert_eq!(c.zone_state(z).unwrap(), ZoneState::Full);
        assert_eq!(
            c.append(SimTime::ZERO, z, 1, SimDuration::from_hours(1))
                .unwrap_err(),
            ZoneError::NotOpen
        );
    }

    #[test]
    fn deadline_registry_tracks_earliest() {
        let mut c = ctrl();
        let z = c.open_zone().unwrap();
        let t0 = SimTime::ZERO;
        c.append(t0, z, 1000, SimDuration::from_hours(12)).unwrap();
        c.append(t0, z, 1000, SimDuration::from_hours(1)).unwrap(); // earlier deadline
        let d = c.deadline(z).unwrap();
        assert_eq!(d, t0 + SimDuration::from_hours(1));
        let expiring = c.zones_expiring_before(t0 + SimDuration::from_hours(2));
        assert_eq!(expiring, vec![(z, d)]);
        assert!(c
            .zones_expiring_before(t0 + SimDuration::from_mins(30))
            .is_empty());
    }

    #[test]
    fn scrub_extends_deadline_and_is_housekeeping() {
        let mut c = ctrl();
        let z = c.open_zone().unwrap();
        let t0 = SimTime::ZERO;
        c.append(t0, z, MIB, SimDuration::from_hours(1)).unwrap();
        let t1 = t0 + SimDuration::from_mins(50);
        let bytes = c.scrub_zone(t1, z, SimDuration::from_hours(1)).unwrap();
        assert!(bytes >= MIB);
        assert_eq!(c.deadline(z).unwrap(), t1 + SimDuration::from_hours(1));
        assert!(c.energy().housekeeping_j > 0.0);
        assert_eq!(c.write_cycles(z).unwrap(), 1);
        // Data read after the original deadline is now fine.
        let r = c.read(t0 + SimDuration::from_mins(70), z, 0, MIB).unwrap();
        assert!(!r.expired);
    }

    #[test]
    fn expired_zone_read_is_flagged() {
        let mut c = ctrl();
        let z = c.open_zone().unwrap();
        c.append(SimTime::ZERO, z, MIB, SimDuration::from_mins(10))
            .unwrap();
        let r = c
            .read(SimTime::ZERO + SimDuration::from_mins(30), z, 0, MIB)
            .unwrap();
        assert!(
            r.expired,
            "reads past the retention deadline must be flagged"
        );
    }

    #[test]
    fn least_worn_zone_selection() {
        let mut c = ctrl();
        let z0 = c.open_zone().unwrap();
        c.append(SimTime::ZERO, z0, MIB, SimDuration::from_hours(1))
            .unwrap();
        // Wear z0 via scrubs, then free it.
        for _ in 0..5 {
            c.scrub_zone(SimTime::ZERO, z0, SimDuration::from_hours(1))
                .unwrap();
        }
        c.reset_zone(z0).unwrap();
        // Least-worn must now avoid z0.
        let z = c.open_zone_least_worn().unwrap();
        assert_ne!(z, z0);
        // Plain open_zone (lowest-numbered) would have picked z0 again.
        let mut c2 = ctrl();
        let a = c2.open_zone().unwrap();
        c2.reset_zone(a).unwrap();
        assert_eq!(c2.open_zone().unwrap(), a);
    }

    #[test]
    fn no_empty_zones_error() {
        let mut c = ctrl();
        for _ in 0..16 {
            c.open_zone().unwrap();
        }
        assert_eq!(c.open_zone().unwrap_err(), ZoneError::NoEmptyZones);
    }

    #[test]
    fn invalid_zone_id() {
        let mut c = ctrl();
        assert_eq!(
            c.zone_state(ZoneId(999)).unwrap_err(),
            ZoneError::InvalidZone
        );
        assert_eq!(
            c.append(SimTime::ZERO, ZoneId(999), 1, SimDuration::from_secs(1))
                .unwrap_err(),
            ZoneError::InvalidZone
        );
    }

    #[test]
    fn telemetry_publishes_scrub_ledger_and_zone_wear() {
        use mrm_telemetry::SimTelemetry;
        let mut c = ctrl();
        let z = c.open_zone().unwrap();
        c.append(SimTime::ZERO, z, MIB, SimDuration::from_hours(1))
            .unwrap();
        let scrubbed = c
            .scrub_zone(SimTime::ZERO, z, SimDuration::from_hours(1))
            .unwrap();
        assert_eq!(c.scrub_ops(), 1);
        assert_eq!(c.scrub_bytes(), scrubbed);
        let mut t = SimTelemetry::new(SimDuration::from_secs(1));
        c.emit_telemetry(&mut t);
        c.emit_telemetry(&mut t); // idempotent republish
        let r = t.registry();
        assert_eq!(r.counter_value("mrm_scrub_ops"), Some(1));
        assert_eq!(r.counter_value("mrm_scrub_bytes"), Some(scrubbed));
        assert_eq!(r.gauge_value("mrm_zones_open"), Some(1.0));
        assert_eq!(r.gauge_value("mrm_zones_empty"), Some(15.0));
        assert_eq!(r.gauge_value("mrm_zone_cycles_max"), Some(1.0));
        c.emit_wear_histogram(&mut t);
        let h = t.registry().histogram_by_name("zone_write_cycles").unwrap();
        assert_eq!(h.count(), c.zone_count() as u64);
    }

    #[test]
    fn read_checked_without_fault_layer_is_plain_read() {
        let mut c = ctrl();
        let z = c.open_zone().unwrap();
        c.append(SimTime::ZERO, z, MIB, SimDuration::from_hours(1))
            .unwrap();
        let r = c
            .read_checked(SimTime::ZERO, z, 0, MIB, SimDuration::from_hours(1))
            .unwrap();
        assert_eq!(r.action, mrm_faults::RecoveryAction::None);
        assert_eq!(r.faults, mrm_faults::ReadFaults::default());
        assert!(r.recovered());
        assert_eq!(c.read_retries(), 0);
        assert_eq!(c.fault_stats(), None);
    }

    #[test]
    fn fresh_data_reads_clean_through_fault_layer() {
        use mrm_faults::{FaultConfig, FaultModel};
        let mut c = ctrl();
        c.attach_faults(FaultModel::new(FaultConfig::mrm(), 42));
        let z = c.open_zone().unwrap();
        c.append(SimTime::ZERO, z, MIB, SimDuration::from_hours(12))
            .unwrap();
        // Minutes into a 12-hour retention: RBER is far below the t=2
        // correction budget, so no recovery engages.
        let r = c
            .read_checked(
                SimTime::ZERO + SimDuration::from_mins(5),
                z,
                0,
                MIB,
                SimDuration::from_hours(12),
            )
            .unwrap();
        assert_eq!(r.action, mrm_faults::RecoveryAction::None);
        assert_eq!(
            c.read_retries() + c.scrub_escalations() + c.zones_retired(),
            0
        );
    }

    #[test]
    fn expired_read_escalates_and_scrub_recovers() {
        use mrm_faults::{FaultConfig, FaultModel, RecoveryAction};
        let mut c = ctrl();
        c.attach_faults(FaultModel::new(FaultConfig::mrm(), 7));
        let z = c.open_zone().unwrap();
        c.append(SimTime::ZERO, z, 4 * MIB, SimDuration::from_mins(10))
            .unwrap();
        // Far past the deadline the RBER saturates well above what t=2
        // absorbs over 4 MiB; the recovery ladder must engage, and the
        // scrub rewrite restores a fresh error rate.
        let late = SimTime::ZERO + SimDuration::from_mins(60);
        let r = c
            .read_checked(late, z, 0, 4 * MIB, SimDuration::from_hours(1))
            .unwrap();
        assert!(r.faults.uncorrectable(), "{:?}", r.faults);
        assert_eq!(r.action, RecoveryAction::Scrubbed, "{:?}", r);
        assert!(r.recovered());
        assert_eq!(c.read_retries(), 1);
        assert_eq!(c.scrub_escalations(), 1);
        assert_eq!(c.zones_retired(), 0);
        // The scrubbed zone now reads clean.
        let again = c
            .read_checked(late, z, 0, 4 * MIB, SimDuration::from_hours(1))
            .unwrap();
        assert_eq!(again.action, RecoveryAction::None);
    }

    #[test]
    fn retired_zone_rejects_everything_and_leaves_selection() {
        let mut c = ctrl();
        let z = c.open_zone().unwrap();
        c.append(SimTime::ZERO, z, MIB, SimDuration::from_mins(10))
            .unwrap();
        c.retire_zone(z).unwrap();
        assert_eq!(c.zone_state(z).unwrap(), ZoneState::Retired);
        assert_eq!(c.zones_retired(), 1);
        // Idempotent.
        c.retire_zone(z).unwrap();
        assert_eq!(c.zones_retired(), 1);
        assert_eq!(
            c.read(SimTime::ZERO, z, 0, 1).unwrap_err(),
            ZoneError::ZoneRetired
        );
        assert_eq!(
            c.append(SimTime::ZERO, z, 1, SimDuration::from_secs(1))
                .unwrap_err(),
            ZoneError::ZoneRetired
        );
        assert_eq!(c.reset_zone(z).unwrap_err(), ZoneError::ZoneRetired);
        assert_eq!(
            c.scrub_zone(SimTime::ZERO, z, SimDuration::from_hours(1))
                .unwrap_err(),
            ZoneError::ZoneRetired
        );
        // Gone from the expiry work list and from zone selection.
        assert!(c.zones_expiring_before(SimTime::MAX).is_empty());
        for _ in 0..15 {
            let opened = c.open_zone_least_worn().unwrap();
            assert_ne!(opened, z);
        }
        assert_eq!(c.open_zone().unwrap_err(), ZoneError::NoEmptyZones);
    }

    #[test]
    fn recovery_telemetry_is_published() {
        use mrm_faults::{FaultConfig, FaultModel};
        use mrm_telemetry::SimTelemetry;
        let mut c = ctrl();
        c.attach_faults(FaultModel::new(FaultConfig::mrm(), 7));
        let z = c.open_zone().unwrap();
        c.append(SimTime::ZERO, z, 4 * MIB, SimDuration::from_mins(10))
            .unwrap();
        let late = SimTime::ZERO + SimDuration::from_mins(60);
        c.read_checked(late, z, 0, 4 * MIB, SimDuration::from_hours(1))
            .unwrap();
        let mut t = SimTelemetry::new(SimDuration::from_secs(1));
        c.emit_telemetry(&mut t);
        let r = t.registry();
        assert_eq!(r.counter_value("mrm_read_retries"), Some(c.read_retries()));
        assert_eq!(
            r.counter_value("mrm_scrub_escalations"),
            Some(c.scrub_escalations())
        );
        let fs = *c.fault_stats().unwrap();
        assert_eq!(r.counter_value("mrm_fault_raw_flips"), Some(fs.raw_flips));
        assert_eq!(
            r.counter_value("mrm_fault_detected_ue"),
            Some(fs.detected_ue)
        );
        assert!(r.gauge_value("mrm_fault_raw_ber").unwrap() > 0.0);
        assert_eq!(r.gauge_value("mrm_zones_retired_now"), Some(0.0));
    }

    #[test]
    fn overflowing_append_length_is_zone_overflow() {
        let mut c = ctrl();
        let z = c.open_zone().unwrap();
        let hour = SimDuration::from_hours(1);
        c.append(SimTime::ZERO, z, 1000, hour).unwrap();
        // `write_ptr + bytes` does not fit in a u64.
        assert_eq!(
            c.append(SimTime::ZERO, z, u64::MAX, hour).unwrap_err(),
            ZoneError::ZoneOverflow
        );
        assert_eq!(c.write_pointer(z).unwrap(), 1000);
    }

    #[test]
    fn overflowing_read_range_is_beyond_write_pointer() {
        let mut c = ctrl();
        let z = c.open_zone().unwrap();
        let hour = SimDuration::from_hours(1);
        c.append(SimTime::ZERO, z, 1000, hour).unwrap();
        // `offset + len` does not fit in a u64.
        assert_eq!(
            c.read(SimTime::ZERO, z, u64::MAX, 2).unwrap_err(),
            ZoneError::ReadBeyondWritePointer
        );
        assert_eq!(
            c.read_checked(SimTime::ZERO, z, u64::MAX, 2, hour)
                .unwrap_err(),
            ZoneError::ReadBeyondWritePointer
        );
    }

    #[test]
    fn equal_write_cycles_go_to_the_lowest_index() {
        let mut c = ctrl();
        // A fresh controller is all ties at zero cycles.
        for i in 0..16 {
            assert_eq!(c.open_zone_least_worn().unwrap(), ZoneId(i));
        }
        // Wear three zones once each, freed in descending-index order.
        for i in [12, 9, 3] {
            let z = ZoneId(i);
            c.append(SimTime::ZERO, z, 1000, SimDuration::from_hours(1))
                .unwrap();
            c.reset_zone(z).unwrap();
        }
        for i in [3, 9, 12] {
            assert_eq!(c.open_zone_least_worn().unwrap(), ZoneId(i));
        }
        assert_eq!(
            c.open_zone_least_worn().unwrap_err(),
            ZoneError::NoEmptyZones
        );
    }

    #[test]
    fn equal_deadlines_go_to_the_lowest_index() {
        let mut c = ctrl();
        for _ in 0..8 {
            c.open_zone().unwrap();
        }
        let t0 = SimTime::ZERO;
        let hour = SimDuration::from_hours(1);
        // Stamped in descending-index order with one shared deadline, plus
        // one earlier deadline on the highest index.
        for i in [7, 5, 2] {
            c.append(t0, ZoneId(i), 1000, hour).unwrap();
        }
        c.append(t0, ZoneId(6), 1000, SimDuration::from_mins(10))
            .unwrap();
        let d = t0 + hour;
        assert_eq!(
            c.zones_expiring_before(d),
            vec![
                (ZoneId(6), t0 + SimDuration::from_mins(10)),
                (ZoneId(2), d),
                (ZoneId(5), d),
                (ZoneId(7), d),
            ]
        );
        // Open zones with no appends carry `SimTime::MAX` and join the
        // list only at that horizon, in index order.
        let all = c.zones_expiring_before(SimTime::MAX);
        let tail: Vec<_> = all[4..].iter().map(|&(z, d)| (z.0, d)).collect();
        assert_eq!(
            tail,
            [0, 1, 3, 4].map(|i| (i, SimTime::MAX)).to_vec(),
            "{all:?}"
        );
    }

    /// The scan-and-stable-sort the expiry index replaced.
    fn naive_expiring(c: &MrmBlockController, horizon: SimTime) -> Vec<(ZoneId, SimTime)> {
        let mut v: Vec<(ZoneId, SimTime)> = c
            .zones
            .iter()
            .enumerate()
            .filter(|(_, zn)| {
                matches!(zn.state, ZoneState::Open | ZoneState::Full) && zn.deadline <= horizon
            })
            .map(|(i, zn)| (ZoneId(i as u32), zn.deadline))
            .collect();
        v.sort_by_key(|&(_, d)| d);
        v
    }

    /// The first-minimum scan the wear index replaced.
    fn naive_least_worn(c: &MrmBlockController) -> Option<ZoneId> {
        c.zones
            .iter()
            .enumerate()
            .filter(|(_, zn)| zn.state == ZoneState::Empty)
            .min_by_key(|(_, zn)| zn.write_cycles)
            .map(|(i, _)| ZoneId(i as u32))
    }

    fn naive_lowest_empty(c: &MrmBlockController) -> Option<ZoneId> {
        c.zones
            .iter()
            .position(|zn| zn.state == ZoneState::Empty)
            .map(|i| ZoneId(i as u32))
    }

    #[test]
    fn indexes_match_the_scans_they_replace() {
        use mrm_faults::{FaultConfig, FaultModel};
        use mrm_sim::rng::SimRng;
        let retentions = [
            SimDuration::from_secs(2),
            SimDuration::from_mins(10),
            SimDuration::from_hours(1),
            SimDuration::from_hours(12),
        ];
        for seed in 0..24 {
            let mut rng = SimRng::seed_from(seed);
            let mut c = ctrl();
            c.attach_faults(FaultModel::new(FaultConfig::mrm(), seed));
            let mut now = SimTime::ZERO;
            for step in 0..300 {
                let z = ZoneId(rng.gen_range_u64(c.zone_count() as u64) as u32);
                let retention = retentions[rng.gen_index(retentions.len())];
                // Every op may fail (wrong state, overflow); the indexes
                // must agree with the scans either way.
                let _ = match rng.gen_range_u64(10) {
                    0 => c.open_zone().map(|_| ()),
                    1 => c.open_zone_least_worn().map(|_| ()),
                    2 | 3 => {
                        let bytes = 1 + rng.gen_range_u64(2 * MIB);
                        c.append(now, z, bytes, retention).map(|_| ())
                    }
                    4 => c.finish_zone(z),
                    5 => c.reset_zone(z),
                    6 => c.scrub_zone(now, z, retention).map(|_| ()),
                    7 => c.retire_zone(z),
                    8 => {
                        let len = c.write_pointer(z).unwrap_or(0).clamp(1, MIB);
                        c.read_checked(now, z, 0, len, retention).map(|_| ())
                    }
                    _ => {
                        now = now.saturating_add(SimDuration::from_secs(rng.gen_range_u64(7200)));
                        Ok(())
                    }
                };
                let ctx = format!("seed {seed} step {step}");
                let horizons = [
                    SimTime::ZERO,
                    now,
                    now.saturating_add(SimDuration::from_mins(30)),
                    now.saturating_add(SimDuration::from_hours(13)),
                    SimTime::MAX,
                ];
                for h in horizons {
                    assert_eq!(c.zones_expiring_before(h), naive_expiring(&c, h), "{ctx}");
                }
                assert_eq!(
                    c.clone().open_zone_least_worn().ok(),
                    naive_least_worn(&c),
                    "{ctx}"
                );
                assert_eq!(c.clone().open_zone().ok(), naive_lowest_empty(&c), "{ctx}");
            }
        }
    }

    #[test]
    fn no_device_side_housekeeping_when_idle() {
        // The controller performs zero internal refresh/GC: an idle
        // controller accrues no housekeeping energy.
        let mut c = ctrl();
        let z = c.open_zone().unwrap();
        c.append(SimTime::ZERO, z, MIB, SimDuration::from_hours(12))
            .unwrap();
        let before = c.energy().housekeeping_j;
        // A day of "idle" — nothing happens unless software asks.
        let r = c
            .read(SimTime::ZERO + SimDuration::from_hours(6), z, 0, MIB)
            .unwrap();
        assert!(!r.expired);
        // Idle means *no* accounting at all, so bit equality is exact.
        assert_eq!(c.energy().housekeeping_j.to_bits(), before.to_bits());
    }
}
