//! The `lifecycle` workload: a multi-sim-year managed-retention soak
//! driven from here through the public controller, control-plane,
//! workload and event-queue APIs.
//!
//! Sessions append KV into the zoned block controller, write per-turn
//! lifetime hints through the DCM controller and park their prefix with
//! the reconciler; a daily maintenance pass reconciles expiries, scrubs
//! deadline-near zones and churns the FTL under an RBER ladder that
//! rises with device age; every tenth of the run a checkpoint scans the
//! audit log and the controllers' invariants. Each call into a layer is
//! bracketed by an `mrm-obs` profiler frame when the rep is traced.

use std::time::Instant;

use mrm_control::{
    AuditAction, ControlClass, ControlPlane, ControlSummary, Reconciler, RetentionRegistry,
    WorkKind,
};
use mrm_controller::dcm::DcmController;
use mrm_controller::ftl::{Ftl, FtlConfig};
use mrm_controller::mrm_block::{MrmBlockController, ZoneError, ZoneId, ZoneState};
use mrm_device::device::MemoryDevice;
use mrm_device::tech::presets;
use mrm_faults::{FaultConfig, FaultModel, FaultStats, RecoveryAction};
use mrm_obs::{HandlerId, Profiler};
use mrm_sim::event::EventQueue;
use mrm_sim::rng::SimRng;
use mrm_sim::time::{SimDuration, SimTime};
use mrm_sim::units::MIB;
use mrm_workload::model::{ModelConfig, Quantization};
use mrm_workload::sessions::SessionSampler;

use crate::{Checks, Frames, Outcome, Rep};

/// Simulated span: three years, so the FTL's RBER ladder reaches its
/// late-life rung.
const DAYS: u64 = 1095;
const SESSIONS_PER_DAY: u64 = 480;
const RECONFIG_EVERY_DAYS: u64 = 90;
const CHECKPOINT_EVERY_DAYS: u64 = DAYS / 10;
const ZONE_BYTES: u64 = 256 * 1024;
const DAY: SimDuration = SimDuration::from_days(1);
const SCRUB_WINDOW: SimDuration = SimDuration::from_secs(12 * 3600);

/// Follow-up windows the quarterly reconfiguration cycles through.
const FOLLOWUPS: [SimDuration; 3] = [
    SimDuration::from_secs(20),
    SimDuration::from_secs(600),
    SimDuration::from_secs(3600),
];

#[derive(Clone, Copy, Debug)]
enum Ev {
    Session,
    Maintain,
    Checkpoint,
}

/// Profiler frames, one per layer call site. `Driver` is the root frame:
/// its self time is this benchmark's own glue (RNG draws, loops).
#[derive(Clone, Copy)]
enum F {
    Driver,
    Sample,
    Queue,
    ZoneAppend,
    ZoneRotate,
    ZoneRead,
    ZoneExpiring,
    ZoneScrub,
    ZoneAudit,
    DcmWrite,
    DcmRead,
    FtlWrite,
    FtlTrim,
    FtlRead,
    FtlCheck,
    Record,
    Reconciler,
    Plan,
    AuditScan,
    Registry,
}

const FRAME_NAMES: [&str; 20] = [
    "lifecycle.driver",
    "workload.sample",
    "sim.queue",
    "controller.zone.append",
    "controller.zone.rotate",
    "controller.zone.read_checked",
    "controller.zone.expiring",
    "controller.zone.scrub",
    "controller.zone.audit",
    "controller.dcm.write",
    "controller.dcm.read_checked",
    "controller.ftl.write",
    "controller.ftl.trim",
    "controller.ftl.read_checked",
    "controller.ftl.check",
    "control.record",
    "control.reconciler",
    "control.plan",
    "control.audit_scan",
    "control.registry",
];

/// The optional profiler with its frames interned up front.
struct Spans {
    prof: Option<(Profiler, Vec<HandlerId>)>,
}

impl Spans {
    fn new(traced: bool) -> Spans {
        Spans {
            prof: traced.then(|| {
                let mut p = Profiler::new();
                let ids = FRAME_NAMES.iter().map(|n| p.handle(n)).collect();
                (p, ids)
            }),
        }
    }

    fn enter(&mut self, f: F) {
        if let Some((p, ids)) = &mut self.prof {
            p.enter_id(ids[f as usize]);
        }
    }

    fn exit(&mut self) {
        if let Some((p, _)) = &mut self.prof {
            p.exit();
        }
    }
}

/// Everything the run produced that depends only on the seed. Read as a
/// whole through `Debug`: it is the workload's fingerprint.
#[derive(Debug)]
#[allow(dead_code)]
struct Summary {
    events: u64,
    sessions: u64,
    turns: u64,
    kv_bytes: u64,
    zone_rotations: u64,
    zone_read_failures: u64,
    zone_scrubs: u64,
    zones_retired: u64,
    dcm_derates: u64,
    dcm_margin: f64,
    ftl_errors: u64,
    ftl_dead: bool,
    ftl_write_amp: f64,
    work_items: u64,
    reconfigs: u64,
    checkpoints: u64,
    faults: FaultStats,
    fault_retries: u64,
    control: ControlSummary,
}

struct Soak {
    rng: SimRng,
    arrivals: SimRng,
    sampler: SessionSampler,
    kv_bytes_per_token: u64,
    queue: EventQueue<Ev>,

    zones: MrmBlockController,
    cur_zone: ZoneId,
    dcm: DcmController,
    ftl: Ftl,
    ftl_dead: bool,

    control: ControlPlane,
    prefix_recon: Reconciler,
    followup_idx: usize,

    next_id: u64,
    dcm_addr: u64,
    dcm_capacity: u64,

    spans: Spans,
    events: u64,
    sessions: u64,
    turns: u64,
    kv_bytes: u64,
    zone_rotations: u64,
    zone_read_failures: u64,
    ftl_errors: u64,
    work_items: u64,
    reconfigs: u64,
    checkpoints: u64,
}

impl Soak {
    fn new(seed: u64, traced: bool) -> Soak {
        let mut zone_tech = presets::mrm_hours();
        zone_tech.capacity_bytes = 32 * MIB;
        let mut zones = MrmBlockController::new(MemoryDevice::new(zone_tech), ZONE_BYTES);
        zones.attach_faults(FaultModel::new(FaultConfig::mrm(), seed ^ 1));
        let cur_zone = zones.open_zone().expect("fresh controller has free zones");

        let mut dcm_tech = presets::mrm_hours();
        dcm_tech.capacity_bytes = 32 * MIB;
        let dcm_capacity = dcm_tech.capacity_bytes;
        let mut dcm = DcmController::new(MemoryDevice::new(dcm_tech), 1.5);
        dcm.attach_faults(FaultModel::new(FaultConfig::mrm(), seed ^ 2));

        let mut ftl = Ftl::new(FtlConfig {
            blocks: 64,
            pages_per_block: 16,
            page_bytes: 4096,
            logical_fraction: 0.8,
            gc_threshold_blocks: 4,
            ue_retire_threshold: 3,
            ..FtlConfig::small()
        });
        ftl.attach_faults(FaultModel::new(FaultConfig::mrm(), seed ^ 3));

        let mut soak = Soak {
            rng: SimRng::seed_from(seed),
            arrivals: SimRng::seed_from(seed ^ 0xA881_7A15),
            sampler: SessionSampler::conversation_default(4096),
            kv_bytes_per_token: ModelConfig::llama2_70b().kv_bytes_per_token(Quantization::Fp16),
            queue: EventQueue::new(),
            zones,
            cur_zone,
            dcm,
            ftl,
            ftl_dead: false,
            control: ControlPlane::serving_default(FOLLOWUPS[0]),
            prefix_recon: Reconciler::new(ControlClass::KvPrefix),
            followup_idx: 0,
            next_id: 0,
            dcm_addr: 0,
            dcm_capacity,
            spans: Spans::new(false),
            events: 0,
            sessions: 0,
            turns: 0,
            kv_bytes: 0,
            zone_rotations: 0,
            zone_read_failures: 0,
            ftl_errors: 0,
            work_items: 0,
            reconfigs: 0,
            checkpoints: 0,
        };
        soak.schedule_day(0);
        // Frames cover the run only, so they add up to its wall time.
        soak.spans = Spans::new(traced);
        soak
    }

    /// Runs `op` inside profiler frame `f` (a bare call when untraced).
    fn timed<R>(&mut self, f: F, op: impl FnOnce(&mut Soak) -> R) -> R {
        self.spans.enter(f);
        let r = op(self);
        self.spans.exit();
        r
    }

    /// Schedules one day's sessions at seeded offsets, its maintenance
    /// pass at the day's end, and a checkpoint at its start when due.
    /// Each day is scheduled by the previous day's maintenance, so the
    /// queue holds about one day of events.
    fn schedule_day(&mut self, day: u64) {
        let base = SimTime::ZERO + DAY * day;
        self.timed(F::Queue, |x| {
            x.queue
                .schedule(base + SimDuration::from_secs(86_399), Ev::Maintain);
            if day > 0 && day.is_multiple_of(CHECKPOINT_EVERY_DAYS) {
                x.queue.schedule(base, Ev::Checkpoint);
            }
        });
        for _ in 0..SESSIONS_PER_DAY {
            let off = SimDuration::from_secs(self.arrivals.gen_range_u64(86_000));
            self.timed(F::Queue, |x| x.queue.schedule(base + off, Ev::Session));
        }
    }

    fn run(&mut self, checks: &mut Checks) {
        self.timed(F::Driver, |x| {
            while let Some((t, ev)) = x.timed(F::Queue, |x| x.queue.pop()) {
                x.events += 1;
                let day = t.as_nanos() / DAY.as_nanos();
                match ev {
                    Ev::Session => x.session(t),
                    Ev::Maintain => {
                        x.maintain(t, day);
                        if day + 1 < DAYS {
                            x.schedule_day(day + 1);
                        }
                    }
                    Ev::Checkpoint => x.checkpoint(day, checks),
                }
            }
            x.checkpoint(DAYS, checks);
        });
    }

    /// Appends into the current zone, rotating (finish + least-worn open,
    /// falling back to resetting the soonest-expiring zone) when it fills.
    fn append_kv(&mut self, now: SimTime, bytes: u64, retention: SimDuration) {
        let bytes = bytes.clamp(1, ZONE_BYTES);
        for _ in 0..3 {
            let res = self.timed(F::ZoneAppend, |x| {
                x.zones.append(now, x.cur_zone, bytes, retention)
            });
            match res {
                Ok(_) => return,
                Err(ZoneError::ZoneOverflow | ZoneError::NotOpen | ZoneError::ZoneRetired) => {
                    self.zone_rotations += 1;
                    self.timed(F::ZoneRotate, |x| x.rotate_zone(now));
                }
                Err(_) => return,
            }
        }
    }

    fn rotate_zone(&mut self, now: SimTime) {
        let _ = self.zones.finish_zone(self.cur_zone);
        if let Ok(z) = self.zones.open_zone_least_worn() {
            self.cur_zone = z;
            return;
        }
        // No empty zone left: reclaim the soonest-expiring full one.
        let horizon = now.saturating_add(SimDuration::from_days(3650));
        if let Some(&(victim, _)) = self.zones.zones_expiring_before(horizon).first() {
            let _ = self.zones.reset_zone(victim);
            if let Ok(z) = self.zones.open_zone_least_worn() {
                self.cur_zone = z;
            }
        }
    }

    /// One interactive session: KV into zones and DCM, the parked prefix
    /// registered with the reconciler, reads back through the fault
    /// ladder, and the lifecycle recorded in the audit log.
    fn session(&mut self, now: SimTime) {
        let s = self.timed(F::Sample, |x| x.sampler.sample(&mut x.rng));
        self.sessions += 1;
        self.turns += s.turns.len() as u64;
        let id = self.next_id;
        self.next_id += 1;

        // The real KV footprint is GBs and the devices are 32 MiB: scale
        // to a per-session footprint that still fills and rotates zones.
        let bytes =
            (s.final_context_tokens() * self.kv_bytes_per_token / 4096).clamp(4096, 128 * 1024);
        self.kv_bytes += bytes;

        let followup = FOLLOWUPS[self.followup_idx];
        let max_gap = s.max_gap();
        self.append_kv(now, bytes, max_gap.max(followup));
        self.timed(F::Record, |x| {
            let action = AuditAction::Store;
            x.control
                .record(now, ControlClass::KvPrefix, id, action, "session-kv", bytes)
        });
        self.timed(F::Reconciler, |x| {
            x.prefix_recon.observe_store(
                id,
                now.saturating_add(followup),
                now.saturating_add(max_gap),
                followup,
            )
        });

        // Per-turn DCM writes with the think gap as the lifetime hint; a
        // quarter are read back, and a read the ladder cannot recover is
        // recorded as recovery work before the KV is dropped.
        for turn in &s.turns {
            let len = (u64::from(turn.prompt_tokens) + u64::from(turn.output_tokens)).max(64);
            let addr = self.dcm_addr % (self.dcm_capacity - len);
            self.dcm_addr = self.dcm_addr.wrapping_add(len * 7 + 4096);
            let hint = turn.gap.max(SimDuration::from_secs(30));
            let _ = self.timed(F::DcmWrite, |x| x.dcm.write(now, addr, len, hint));
            if self.rng.gen_bool(0.25) {
                let read = self.timed(F::DcmRead, |x| x.dcm.read_checked(now, addr, len));
                if let Ok((_, _, RecoveryAction::Retired)) = read {
                    let item = self.timed(F::Reconciler, |x| {
                        x.prefix_recon.fault_recovery(id, &x.control.registry)
                    });
                    self.timed(F::Record, |x| x.control.record_work(now, &item, bytes));
                    self.work_items += 1;
                }
            }
        }

        // Occasionally re-read the zone-resident KV through the zone
        // recovery state machine (retry, scrub escalation, retire).
        if self.rng.gen_bool(0.2) {
            let len = bytes.min(ZONE_BYTES);
            let read = self.timed(F::ZoneRead, |x| {
                let ptr = x.zones.write_pointer(x.cur_zone).ok()?;
                (ptr >= len).then(|| {
                    x.zones
                        .read_checked(now, x.cur_zone, ptr - len, len, SCRUB_WINDOW)
                })
            });
            if let Some(r) = read {
                if !r.is_ok_and(|r| r.recovered()) {
                    self.zone_read_failures += 1;
                }
            }
        }
    }

    /// Daily maintenance: reconcile expiries, scrub deadline-near zones,
    /// churn the FTL, and each quarter reconfigure the retention window.
    fn maintain(&mut self, now: SimTime, day: u64) {
        let horizon = now.saturating_add(DAY);
        let items = self.timed(F::Plan, |x| {
            x.prefix_recon.plan(now, horizon, &x.control.registry)
        });
        for item in &items {
            self.timed(F::Record, |x| x.control.record_work(now, item, 4096));
            self.timed(F::Reconciler, |x| match item.kind {
                WorkKind::Refresh => x.prefix_recon.observe_refreshed(item.id, now),
                _ => x.prefix_recon.observe_release(item.id),
            });
        }
        self.work_items += items.len() as u64;

        let due = self.timed(F::ZoneExpiring, |x| {
            x.zones
                .zones_expiring_before(now.saturating_add(SCRUB_WINDOW))
        });
        for (z, _) in due {
            let _ = self.timed(F::ZoneScrub, |x| x.zones.scrub_zone(now, z, SCRUB_WINDOW));
        }

        if !self.ftl_dead {
            self.churn_ftl(day);
        }

        if day > 0 && day.is_multiple_of(RECONFIG_EVERY_DAYS) {
            self.followup_idx = (self.followup_idx + 1) % FOLLOWUPS.len();
            let window = FOLLOWUPS[self.followup_idx];
            self.control.registry =
                self.timed(F::Registry, |_| RetentionRegistry::serving_default(window));
            self.timed(F::Record, |x| {
                x.control.record(
                    now,
                    ControlClass::KvPrefix,
                    u64::MAX,
                    AuditAction::Migrate,
                    "retention-window-reconfigured",
                    0,
                )
            });
            self.reconfigs += 1;
        }
    }

    /// Block-device wear: writes, trims and checked reads at an RBER
    /// that steps up each year of device age. The ladder retires a few
    /// grown bad blocks but leaves the FTL alive for all three years
    /// (e16's steeper 7e-4/3e-3 rungs exhaust its spare blocks near day
    /// 450, after which this layer would do no work).
    fn churn_ftl(&mut self, day: u64) {
        let logical = self.ftl.config().logical_pages();
        let rber = [1e-6, 1e-4, 4e-4][(day / 365).min(2) as usize];
        for _ in 0..32 {
            let lpn = self.rng.gen_range_u64(logical);
            if self.timed(F::FtlWrite, |x| x.ftl.write(lpn)).is_err() {
                self.ftl_errors += 1;
                self.ftl_dead = true;
                return;
            }
        }
        for _ in 0..8 {
            let lpn = self.rng.gen_range_u64(logical);
            let _ = self.timed(F::FtlTrim, |x| x.ftl.trim(lpn));
        }
        for _ in 0..16 {
            let lpn = self.rng.gen_range_u64(logical);
            if self
                .timed(F::FtlRead, |x| x.ftl.read_checked(lpn, rber))
                .is_err()
            {
                self.ftl_errors += 1;
            }
        }
    }

    /// The e16 stop-and-prove scan: FTL invariants, required-drop
    /// violations, a dense and monotone audit log, zone bounds and the
    /// DCM margin clamp.
    fn checkpoint(&mut self, day: u64, checks: &mut Checks) {
        self.checkpoints += 1;

        let ftl = self.timed(F::FtlCheck, |x| x.ftl.check_invariants());
        checks.check(ftl.is_ok(), || {
            format!("day {day}: FTL invariants: {ftl:?}")
        });

        let (bad, dense, monotone) = self.timed(F::AuditScan, |x| {
            let audit = &x.control.audit;
            let recs = audit.records();
            (
                audit.required_drop_violations(&x.control.registry),
                recs.iter().enumerate().all(|(i, r)| r.seq == i as u64),
                recs.windows(2).all(|p| p[0].at <= p[1].at),
            )
        });
        checks.check(bad.is_empty(), || {
            format!("day {day}: required-drop violations at seqs {bad:?}")
        });
        checks.check(dense, || format!("day {day}: audit sequence has a hole"));
        checks.check(monotone, || format!("day {day}: audit time regressed"));

        let (in_bounds, retired_ok) = self.timed(F::ZoneAudit, |x| {
            let mut in_bounds = true;
            let mut retired = 0u64;
            for i in 0..x.zones.zone_count() {
                let z = ZoneId(i as u32);
                in_bounds &= x.zones.write_pointer(z).unwrap_or(0) <= ZONE_BYTES;
                retired += u64::from(x.zones.zone_state(z) == Ok(ZoneState::Retired));
            }
            (in_bounds, retired == x.zones.zones_retired())
        });
        checks.check(in_bounds, || {
            format!("day {day}: zone write pointer past zone end")
        });
        checks.check(retired_ok, || {
            format!("day {day}: retirement counter disagrees with zone states")
        });
        let margin = self.dcm.margin();
        checks.check((1.0..=4.0).contains(&margin), || {
            format!("day {day}: DCM margin {margin} escaped [1, 4]")
        });
    }

    fn summary(&self) -> Summary {
        let mut faults = FaultStats::default();
        for s in [
            self.zones.fault_stats(),
            self.dcm.fault_stats(),
            self.ftl.fault_stats(),
        ]
        .into_iter()
        .flatten()
        {
            faults.reads += s.reads;
            faults.codewords += s.codewords;
            faults.bits += s.bits;
            faults.raw_flips += s.raw_flips;
            faults.corrected += s.corrected;
            faults.detected_ue += s.detected_ue;
            faults.miscorrected += s.miscorrected;
            faults.silent += s.silent;
        }
        Summary {
            events: self.events,
            sessions: self.sessions,
            turns: self.turns,
            kv_bytes: self.kv_bytes,
            zone_rotations: self.zone_rotations,
            zone_read_failures: self.zone_read_failures,
            zone_scrubs: self.zones.scrub_ops(),
            zones_retired: self.zones.zones_retired(),
            dcm_derates: self.dcm.derates(),
            dcm_margin: self.dcm.margin(),
            ftl_errors: self.ftl_errors,
            ftl_dead: self.ftl_dead,
            ftl_write_amp: self.ftl.stats().write_amplification(),
            work_items: self.work_items,
            reconfigs: self.reconfigs,
            checkpoints: self.checkpoints,
            faults,
            fault_retries: self.zones.read_retries()
                + self.dcm.read_retries()
                + self.ftl.stats().read_retries,
            control: self.control.summary(),
        }
    }
}

/// One rep: build the driver, run three sim-years, check.
pub fn rep(seed: u64, traced: bool, checks: &mut Checks) -> Option<Rep> {
    let t0 = Instant::now();
    let mut soak = Soak::new(seed, traced);
    let setup = t0.elapsed();

    let t1 = Instant::now();
    soak.run(checks);
    std::hint::black_box(&soak);
    let run = t1.elapsed();

    let s = soak.summary();
    let at = |what: &str| format!("lifecycle seed {seed}: {what}");
    checks.check(s.faults.silent == 0, || at("silent corruption"));
    checks.check(s.checkpoints > 10, || at("fewer than 10 checkpoints"));
    checks.check(s.sessions == DAYS * SESSIONS_PER_DAY, || {
        at("not every session ran")
    });
    checks.check(s.control.required_drop_violations == 0, || {
        at("required-drop violations in the summary")
    });
    checks.check(s.zone_rotations > 0, || at("no zone rotation"));
    checks.check(s.zone_scrubs > 0, || at("no zone scrub"));
    checks.check(s.work_items > 0, || at("no reconciler work item"));
    checks.check(!s.ftl_dead, || at("the FTL died before the end"));

    let frames = soak.spans.prof.as_ref().map(|(p, _)| Frames {
        rows: p
            .report(usize::MAX)
            .top
            .iter()
            .filter(|h| h.calls > 0)
            .map(|h| (h.name.clone(), h.calls, h.wall_self_ns))
            .collect(),
        wall_ns: run.as_nanos() as u64,
    });
    let f = &s.faults;
    let c = &s.control;
    let counts = vec![
        ("sim.events", s.events as f64),
        ("faults.reads", f.reads as f64),
        ("faults.corrected", f.corrected as f64),
        ("faults.detected_ue", f.detected_ue as f64),
        ("faults.retries", s.fault_retries as f64),
        ("faults.silent", f.silent as f64),
        ("controller.zone.rotations", s.zone_rotations as f64),
        ("controller.zone.scrubs", s.zone_scrubs as f64),
        ("controller.dcm.derates", s.dcm_derates as f64),
        ("controller.ftl.write_amp", s.ftl_write_amp),
        ("control.audit_records", c.audit_records as f64),
        ("control.work_items", s.work_items as f64),
        ("control.refreshes", c.refreshes as f64),
        ("control.escalations", c.escalations as f64),
        ("control.migrations", c.migrations as f64),
        ("control.retires", c.retires as f64),
    ];
    let full = format!("{s:?}");
    Some(Rep {
        setup,
        run,
        outcome: Outcome {
            fingerprint: full.clone(),
            full,
            counts,
            frames,
            sim: vec![("sim_write_amp", s.ftl_write_amp, "ratio")],
        },
    })
}
