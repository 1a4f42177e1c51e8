//! Pool differential target: treap-backed [`Pool`] vs [`LegacyVecPool`].
//!
//! The allocator swap (FreeTree + LiveMap over the flat-`Vec` first-fit)
//! promised *observational identity* — same addresses, same fragment
//! lists, same errors. This target replays open-ended alloc/free traces
//! through both and compares every observable after every op: results,
//! `used_bytes`, `free_bytes`, `free_fragments`, the full sorted
//! `free_ranges` list, and `largest_free_bytes` against that list.
//!
//! `Reset { capacity }` re-creates both pools at an arbitrary (lean-
//! biased) capacity, so zero-capacity and one-byte pools are first-class
//! inputs, as are double frees, bogus frees, and zero-size allocations.
//! `WrongLenFree` frees a live address with the wrong length: a bogus free
//! almost never lands on a live address, and `Pool::free` validates and
//! removes in one probe, which must leave the live entry in place.
//!
//! Sabotage mode rounds every allocation the *oracle* sees up to the
//! next even size — the injected-mutation self-test: accounting diverges
//! on the first odd-sized allocation.

use crate::engine::FuzzTarget;
use crate::rng::FuzzRng;
use mrm_core::pool::{Allocation, LegacyVecPool, Pool, PoolError};
use mrm_device::device::MemoryDevice;
use mrm_device::tech::presets;
use mrm_sim::units::MIB;

/// Capacities stay small enough to fragment quickly but allow multi-KiB
/// allocation storms: [0, 1 MiB].
const MAX_CAPACITY: u64 = MIB;

/// One pool fuzz operation.
#[derive(Clone, Debug)]
pub enum PoolOp {
    /// Tear both pools down and restart at this capacity (mod 1 MiB + 1).
    Reset { capacity: u64 },
    /// Allocate `len` bytes (0 probes the ZeroSize error path).
    Alloc { len: u64 },
    /// Free the `pick % live`-th live allocation.
    Free { pick: u64 },
    /// Free the `pick % live`-th live allocation *twice* (second must be
    /// InvalidFree on both sides).
    DoubleFree { pick: u64 },
    /// Free a fabricated allocation that was never handed out.
    BogusFree { addr: u64, len: u64 },
    /// Free the `pick % live`-th live allocation with its length off by
    /// `delta` (wrapping; 0 is a no-op). Both sides must refuse it and keep
    /// the allocation live.
    WrongLenFree { pick: u64, delta: i64 },
}

pub struct PoolTarget {
    sabotage: bool,
}

impl PoolTarget {
    pub fn new(sabotage: bool) -> Self {
        PoolTarget { sabotage }
    }

    fn build(&self, capacity: u64) -> (Pool, LegacyVecPool) {
        let mut tech = presets::mrm_hours();
        tech.capacity_bytes = capacity;
        (
            Pool::new(MemoryDevice::new(tech)),
            LegacyVecPool::new(capacity),
        )
    }
}

fn compare(step: usize, p: &Pool, oracle: &LegacyVecPool) -> Result<(), String> {
    if p.used_bytes() != oracle.used_bytes() {
        return Err(format!(
            "op {step}: used_bytes {} vs oracle {}",
            p.used_bytes(),
            oracle.used_bytes()
        ));
    }
    if p.free_bytes() != oracle.free_bytes() {
        return Err(format!(
            "op {step}: free_bytes {} vs oracle {}",
            p.free_bytes(),
            oracle.free_bytes()
        ));
    }
    if p.free_fragments() != oracle.free_fragments() {
        return Err(format!(
            "op {step}: free_fragments {} vs oracle {}",
            p.free_fragments(),
            oracle.free_fragments()
        ));
    }
    let (a, b) = (p.free_ranges(), oracle.free_ranges());
    if a != b {
        return Err(format!("op {step}: free_ranges {a:?} vs oracle {b:?}"));
    }
    // The treap's max-length augmentation, against the oracle's list.
    let largest = b.iter().map(|r| r.1).max().unwrap_or(0);
    if p.largest_free_bytes() != largest {
        return Err(format!(
            "op {step}: largest_free_bytes {} vs oracle {largest}",
            p.largest_free_bytes()
        ));
    }
    Ok(())
}

impl FuzzTarget for PoolTarget {
    type Op = PoolOp;

    fn name(&self) -> &'static str {
        "pool"
    }

    fn corpus(&self) -> Vec<Vec<PoolOp>> {
        vec![
            vec![],
            // Steady-state churn at a mid capacity.
            vec![
                PoolOp::Reset {
                    capacity: 64 * 1024,
                },
                PoolOp::Alloc { len: 4096 },
                PoolOp::Alloc { len: 4096 },
                PoolOp::Alloc { len: 4096 },
                PoolOp::Free { pick: 1 },
                PoolOp::Alloc { len: 8192 },
                PoolOp::Free { pick: 0 },
                PoolOp::Free { pick: 0 },
            ],
            // Degenerate capacities (the satellite-3 probe).
            vec![
                PoolOp::Reset { capacity: 0 },
                PoolOp::Alloc { len: 1 },
                PoolOp::Alloc { len: 0 },
                PoolOp::Reset { capacity: 1 },
                PoolOp::Alloc { len: 1 },
                PoolOp::Alloc { len: 1 },
                PoolOp::Free { pick: 0 },
            ],
            // Error paths.
            vec![
                PoolOp::Reset { capacity: 4096 },
                PoolOp::Alloc { len: 4096 },
                PoolOp::DoubleFree { pick: 0 },
                PoolOp::BogusFree { addr: 17, len: 12 },
                PoolOp::Alloc { len: u64::MAX },
                PoolOp::Alloc { len: 1024 },
                PoolOp::WrongLenFree { pick: 0, delta: -1 },
                PoolOp::WrongLenFree { pick: 0, delta: 1 },
                PoolOp::WrongLenFree {
                    pick: 0,
                    delta: -1024,
                },
                PoolOp::Free { pick: 0 },
            ],
        ]
    }

    fn gen_op(&self, rng: &mut FuzzRng) -> PoolOp {
        match rng.below(13) {
            0 => PoolOp::Reset {
                capacity: rng.lean_below(MAX_CAPACITY + 1),
            },
            // Allocation-heavy mix: sizes lean-biased across 0..2 MiB so
            // OutOfMemory and ZeroSize both stay hot.
            1..=6 => PoolOp::Alloc {
                len: rng.lean_below(2 * MAX_CAPACITY),
            },
            7..=9 => PoolOp::Free {
                pick: rng.next_u64(),
            },
            10 => PoolOp::DoubleFree {
                pick: rng.next_u64(),
            },
            11 => PoolOp::BogusFree {
                addr: rng.lean_u64(),
                len: rng.lean_u64(),
            },
            _ => PoolOp::WrongLenFree {
                pick: rng.next_u64(),
                delta: wrong_len_delta(rng),
            },
        }
    }

    fn mutate_op(&self, op: &PoolOp, rng: &mut FuzzRng) -> PoolOp {
        match op {
            PoolOp::Reset { .. } => PoolOp::Reset {
                capacity: rng.lean_below(MAX_CAPACITY + 1),
            },
            PoolOp::Alloc { len } => PoolOp::Alloc {
                len: len.wrapping_add(rng.lean_below(8192)),
            },
            PoolOp::Free { .. } => PoolOp::Free {
                pick: rng.next_u64(),
            },
            PoolOp::DoubleFree { .. } => PoolOp::DoubleFree {
                pick: rng.next_u64(),
            },
            PoolOp::BogusFree { addr, len } => PoolOp::BogusFree {
                addr: addr.wrapping_add(rng.lean_below(64)),
                len: *len,
            },
            PoolOp::WrongLenFree { pick, .. } => PoolOp::WrongLenFree {
                pick: *pick,
                delta: wrong_len_delta(rng),
            },
        }
    }

    fn simplify_op(&self, op: &PoolOp) -> Option<PoolOp> {
        match op {
            PoolOp::Reset { capacity } if *capacity > 0 => Some(PoolOp::Reset {
                capacity: capacity / 2,
            }),
            PoolOp::Alloc { len } if *len > 0 => Some(PoolOp::Alloc { len: len / 2 }),
            PoolOp::Free { pick } if *pick > 0 => Some(PoolOp::Free { pick: pick / 2 }),
            PoolOp::DoubleFree { pick } if *pick > 0 => Some(PoolOp::DoubleFree { pick: pick / 2 }),
            PoolOp::BogusFree { addr, len } if *addr > 0 || *len > 0 => Some(PoolOp::BogusFree {
                addr: addr / 2,
                len: len / 2,
            }),
            PoolOp::WrongLenFree { pick, delta } if *pick > 0 || delta.abs() > 1 => {
                Some(PoolOp::WrongLenFree {
                    pick: pick / 2,
                    delta: if delta.abs() > 1 { delta / 2 } else { *delta },
                })
            }
            _ => None,
        }
    }

    fn run(&self, ops: &[PoolOp]) -> Result<(), String> {
        let (mut p, mut oracle) = self.build(64 * 1024);
        let mut live: Vec<Allocation> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                PoolOp::Reset { capacity } => {
                    let cap = capacity % (MAX_CAPACITY + 1);
                    let (np, no) = self.build(cap);
                    p = np;
                    oracle = no;
                    live.clear();
                }
                PoolOp::Alloc { len } => {
                    let oracle_len = if self.sabotage {
                        // Documented sabotage: the oracle allocates a
                        // rounded-up size — accounting diverges on the
                        // first odd-sized allocation.
                        len.div_ceil(2).saturating_mul(2)
                    } else {
                        *len
                    };
                    let got = p.alloc(*len);
                    let want = oracle.alloc(oracle_len);
                    if !self.sabotage && got != want {
                        return Err(format!(
                            "op {i}: alloc({len}) => {got:?} vs oracle {want:?}"
                        ));
                    }
                    if let Ok(a) = got {
                        live.push(a);
                    }
                }
                PoolOp::Free { pick } => {
                    if !live.is_empty() {
                        let a = live.remove((pick % live.len() as u64) as usize);
                        let (got, want) = (p.free(a), oracle.free(a));
                        if got != want {
                            return Err(format!(
                                "op {i}: free({a:?}) => {got:?} vs oracle {want:?}"
                            ));
                        }
                    }
                }
                PoolOp::DoubleFree { pick } => {
                    if !live.is_empty() {
                        let a = live.remove((pick % live.len() as u64) as usize);
                        let (got, want) = (p.free(a), oracle.free(a));
                        if got != want {
                            return Err(format!(
                                "op {i}: free({a:?}) => {got:?} vs oracle {want:?}"
                            ));
                        }
                        let (got2, want2) = (p.free(a), oracle.free(a));
                        if got2 != want2 || got2.is_ok() {
                            return Err(format!(
                                "op {i}: double free({a:?}) => {got2:?} vs oracle {want2:?}"
                            ));
                        }
                    }
                }
                PoolOp::WrongLenFree { pick, delta } => {
                    if !live.is_empty() && *delta != 0 {
                        let a = live[(pick % live.len() as u64) as usize];
                        let wrong = Allocation {
                            addr: a.addr,
                            len: a.len.wrapping_add_signed(*delta),
                        };
                        let (got, want) = (p.free(wrong), oracle.free(wrong));
                        if got != want || got != Err(PoolError::InvalidFree) {
                            return Err(format!(
                                "op {i}: wrong-length free({wrong:?}) of {a:?} => {got:?} \
                                 vs oracle {want:?}"
                            ));
                        }
                    }
                }
                PoolOp::BogusFree { addr, len } => {
                    // Only bogus if it doesn't collide with a live
                    // allocation's exact (addr, len); skip if it does.
                    let a = Allocation {
                        addr: *addr,
                        len: *len,
                    };
                    if !live.contains(&a) {
                        let (got, want) = (p.free(a), oracle.free(a));
                        if got != want {
                            return Err(format!(
                                "op {i}: bogus free({a:?}) => {got:?} vs oracle {want:?}"
                            ));
                        }
                    }
                }
            }
            compare(i, &p, &oracle)?;
        }
        Ok(())
    }
}

/// A nonzero length error of either sign, up to 1 MiB, boundary-biased
/// so off-by-one and power-of-two deltas are frequent.
fn wrong_len_delta(rng: &mut FuzzRng) -> i64 {
    let d = rng.lean_below(MIB) as i64 + 1;
    if rng.one_in(2) {
        -d
    } else {
        d
    }
}
