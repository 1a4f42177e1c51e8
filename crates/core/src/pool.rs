//! A first-fit range allocator over a [`MemoryDevice`].
//!
//! The tiering control plane composes one [`Pool`] per memory tier (HBM,
//! MRM, LPDDR) and places data structures by lifetime and access pattern
//! (§4, "Retention-aware data placement and scheduling"). The pool keeps a
//! coalescing free list, tracks occupancy, and forwards timed reads/writes
//! (with retention hints) to the device.
//!
//! # Complexity
//!
//! Placement decisions run on every KV allocation, eviction and migration,
//! so the allocator is on the simulator's hottest path. Free ranges live in
//! an address-ordered treap ([`FreeTree`]) augmented with the maximum free
//! length per subtree: `alloc` descends left-first, so it finds the
//! *lowest-address* range that fits — exactly the classic first-fit scan —
//! in O(log n) instead of O(n). Live allocations are validated through a
//! deterministic open-addressing index ([`LiveMap`]) instead of a sorted
//! `Vec`. `free` costs one `LiveMap` probe, which checks the length and
//! removes the entry (a wrong length leaves the map untouched), and one
//! treap descent, whose search path holds both the predecessor and the
//! successor to coalesce with: O(log n) instead of O(n)
//! `Vec::insert`/`remove` shuffles. The behaviour is byte-identical to the
//! original flat-`Vec` allocator (kept as [`LegacyVecPool`], the oracle for
//! the model-based property tests and the baseline for the `perf_suite`
//! pool-churn scenario).

use mrm_device::cell::CellOperatingPoint;
use mrm_device::device::{DeviceError, MemoryDevice, OpResult};
use mrm_device::energy::EnergyBreakdown;
use mrm_sim::time::{SimDuration, SimTime};

/// A live allocation: base address and length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Allocation {
    /// Base byte address in the pool's device.
    pub addr: u64,
    /// Length, bytes.
    pub len: u64,
}

/// Pool errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolError {
    /// Not enough contiguous free space.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Total free bytes (may be fragmented).
        free: u64,
    },
    /// The freed range was not an active allocation.
    InvalidFree,
    /// Zero-byte allocation.
    ZeroSize,
    /// Underlying device error.
    Device(DeviceError),
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::OutOfMemory { requested, free } => {
                write!(f, "out of memory: requested {requested}, free {free}")
            }
            PoolError::InvalidFree => write!(f, "invalid free"),
            PoolError::ZeroSize => write!(f, "zero-size allocation"),
            PoolError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for PoolError {}

impl From<DeviceError> for PoolError {
    fn from(e: DeviceError) -> Self {
        PoolError::Device(e)
    }
}

/// Sentinel arena index for "no child".
const NIL: u32 = u32::MAX;

/// One free range in the [`FreeTree`] arena.
#[derive(Clone, Copy, Debug)]
struct FreeNode {
    /// Range base address (the BST key).
    addr: u64,
    /// Range length, bytes.
    len: u64,
    /// Maximum `len` in this node's subtree (first-fit augmentation).
    max_len: u64,
    /// Heap priority: a deterministic hash of the address at insert time.
    prio: u64,
    left: u32,
    right: u32,
}

/// An address-ordered treap of disjoint free ranges, augmented with the
/// max free length per subtree.
///
/// Nodes live in an index-based arena (`Vec<FreeNode>` plus a recycled-slot
/// list), so the tree is `Clone`, cache-friendly, and can pre-reserve from a
/// capacity hint. Priorities come from a fixed splitmix64 of the inserted
/// address: deterministic (no ambient entropy — D3), and effectively random
/// so expected depth stays O(log n). First-fit never depends on tree shape
/// (lowest address with `len >= want` is a property of the range *set*), so
/// results are identical to a linear scan.
#[derive(Clone, Debug)]
struct FreeTree {
    nodes: Vec<FreeNode>,
    /// Recycled arena slots.
    spare: Vec<u32>,
    root: u32,
    /// Number of ranges in the tree.
    count: usize,
    /// The search path of [`FreeTree::take_first_fit`] and
    /// [`FreeTree::release_span`], kept between calls to reuse its buffer.
    path: Vec<u32>,
}

/// splitmix64: a fixed, seedless mixing function — deterministic priorities.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl FreeTree {
    fn new() -> Self {
        FreeTree {
            nodes: Vec::new(),
            spare: Vec::new(),
            root: NIL,
            count: 0,
            path: Vec::new(),
        }
    }

    fn with_capacity(n: usize) -> Self {
        let mut t = FreeTree::new();
        t.nodes.reserve(n);
        t
    }

    /// Number of free ranges.
    fn len(&self) -> usize {
        self.count
    }

    /// The largest single free range, or 0 when empty (O(1): the root's
    /// augmentation).
    fn max_free(&self) -> u64 {
        if self.root == NIL {
            0
        } else {
            self.nodes[self.root as usize].max_len
        }
    }

    fn new_node(&mut self, addr: u64, len: u64) -> u32 {
        let node = FreeNode {
            addr,
            len,
            max_len: len,
            prio: mix64(addr),
            left: NIL,
            right: NIL,
        };
        match self.spare.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        }
    }

    fn release(&mut self, i: u32) {
        self.spare.push(i);
    }

    /// Recomputes `max_len` from a node's own length and its children.
    fn pull(&mut self, t: u32) {
        let (l, r, len) = {
            let n = &self.nodes[t as usize];
            (n.left, n.right, n.len)
        };
        let mut m = len;
        if l != NIL {
            m = m.max(self.nodes[l as usize].max_len);
        }
        if r != NIL {
            m = m.max(self.nodes[r as usize].max_len);
        }
        self.nodes[t as usize].max_len = m;
    }

    /// Splits subtree `t` into `(keys < key, keys >= key)`.
    fn split(&mut self, t: u32, key: u64) -> (u32, u32) {
        if t == NIL {
            return (NIL, NIL);
        }
        if self.nodes[t as usize].addr < key {
            let (a, b) = self.split(self.nodes[t as usize].right, key);
            self.nodes[t as usize].right = a;
            self.pull(t);
            (t, b)
        } else {
            let (a, b) = self.split(self.nodes[t as usize].left, key);
            self.nodes[t as usize].left = b;
            self.pull(t);
            (a, t)
        }
    }

    /// Merges subtrees `a` and `b`; every key in `a` is below every key in
    /// `b`.
    fn merge(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        if self.nodes[a as usize].prio >= self.nodes[b as usize].prio {
            let r = self.merge(self.nodes[a as usize].right, b);
            self.nodes[a as usize].right = r;
            self.pull(a);
            a
        } else {
            let l = self.merge(a, self.nodes[b as usize].left);
            self.nodes[b as usize].left = l;
            self.pull(b);
            b
        }
    }

    /// Returns the freed span `[addr, addr + len)` to the tree, coalescing
    /// it with an adjacent predecessor and/or successor.
    ///
    /// One search descent for `addr` finds both neighbours: `addr` is never
    /// a key (no free range starts inside a live allocation), and the
    /// nearest keys below and above it both lie on its search path. The
    /// recorded path is then re-pulled bottom-up from the deepest changed
    /// node, so each of the four cases costs one descent plus O(depth)
    /// `pull`s:
    /// - predecessor only: it grows in place (key unchanged);
    /// - successor only: it is re-keyed down to `addr` and grown (legal
    ///   because no range starts inside the span, so the new key sorts
    ///   directly after the same predecessor; its priority only needs to
    ///   stay heap-ordered, and first-fit never depends on tree shape);
    /// - both: the predecessor absorbs the span and the successor, whose
    ///   node is unlinked by merging its children in place;
    /// - neither: a fresh node is linked in where its priority wins on the
    ///   path, splitting only that subtree (standard treap insert).
    fn release_span(&mut self, addr: u64, len: u64) {
        let mut path = std::mem::take(&mut self.path);
        path.clear();
        // Path indices of the nearest keys below and above `addr`.
        let (mut below, mut above) = (None, None);
        let mut t = self.root;
        while t != NIL {
            let n = &self.nodes[t as usize];
            if n.addr < addr {
                below = Some(path.len());
                path.push(t);
                t = n.right;
            } else {
                above = Some(path.len());
                path.push(t);
                t = n.left;
            }
        }
        let pred = below.filter(|&i| {
            let n = &self.nodes[path[i] as usize];
            n.addr + n.len == addr
        });
        let succ = above.filter(|&i| self.nodes[path[i] as usize].addr == addr + len);
        match (pred, succ) {
            (Some(p), None) => {
                self.nodes[path[p] as usize].len += len;
                self.pull_path(&path[..=p]);
            }
            (None, Some(s)) => {
                let n = &mut self.nodes[path[s] as usize];
                n.addr = addr;
                n.len += len;
                self.pull_path(&path[..=s]);
            }
            (Some(p), Some(s)) => {
                let sn = path[s];
                let (sl, sr, slen) = {
                    let n = &self.nodes[sn as usize];
                    (n.left, n.right, n.len)
                };
                self.nodes[path[p] as usize].len += len + slen;
                // The predecessor may sit in the successor's left subtree:
                // re-pull up to (not including) the successor first.
                if p > s {
                    self.pull_path(&path[s + 1..=p]);
                }
                let m = self.merge(sl, sr);
                self.link(&path[..s], addr, m);
                self.release(sn);
                self.count -= 1;
                self.pull_path(&path[..s]);
            }
            (None, None) => {
                let n = self.new_node(addr, len);
                let prio = self.nodes[n as usize].prio;
                let k = path
                    .iter()
                    .position(|&t| self.nodes[t as usize].prio < prio)
                    .unwrap_or(path.len());
                if k < path.len() {
                    let (l, r) = self.split(path[k], addr);
                    self.nodes[n as usize].left = l;
                    self.nodes[n as usize].right = r;
                    self.pull(n);
                }
                self.link(&path[..k], addr, n);
                self.count += 1;
                self.pull_path(&path[..k]);
            }
        }
        self.path = path;
    }

    /// Re-pulls `max_len` along a root-first path, deepest node first.
    fn pull_path(&mut self, path: &[u32]) {
        for &t in path.iter().rev() {
            self.pull(t);
        }
    }

    /// Hangs subtree `child` below the last node of the root-first
    /// `path` (on the side `key` sorts to), or at the root when `path`
    /// is empty.
    fn link(&mut self, path: &[u32], key: u64, child: u32) {
        match path.last() {
            None => self.root = child,
            Some(&parent) => {
                let n = &mut self.nodes[parent as usize];
                if key < n.addr {
                    n.left = child;
                } else {
                    n.right = child;
                }
            }
        }
    }

    /// Carves `want` bytes from the lowest-address range with
    /// `len >= want` (first fit), returning the carved base address.
    ///
    /// One left-first descent, recording its path: an exact-length match
    /// unlinks the range by merging its children in place; otherwise the
    /// range keeps its node and shifts its base in place (`addr + want`
    /// still sorts before the next range, so the BST order is untouched
    /// and no rebalancing is needed). The path is then re-pulled.
    fn take_first_fit(&mut self, want: u64) -> Option<u64> {
        if self.root == NIL || self.nodes[self.root as usize].max_len < want {
            return None;
        }
        let mut path = std::mem::take(&mut self.path);
        path.clear();
        let mut t = self.root;
        loop {
            let n = &self.nodes[t as usize];
            // Lowest address first: any fit in the left subtree wins.
            let next = if n.left != NIL && self.nodes[n.left as usize].max_len >= want {
                n.left
            } else if n.len >= want {
                break;
            } else {
                // Invariant: this subtree's max_len >= want, and neither
                // the left subtree nor this node fits, so the right
                // subtree must.
                debug_assert!(
                    n.right != NIL && self.nodes[n.right as usize].max_len >= want,
                    "max_len augmentation out of sync"
                );
                n.right
            };
            path.push(t);
            t = next;
        }
        let n = &mut self.nodes[t as usize];
        let addr = n.addr;
        if n.len == want {
            let (l, r) = (n.left, n.right);
            let m = self.merge(l, r);
            self.link(&path, addr, m);
            self.release(t);
            self.count -= 1;
        } else {
            n.addr += want;
            n.len -= want;
            self.pull(t);
        }
        self.pull_path(&path);
        self.path = path;
        Some(addr)
    }

    /// All ranges in address order (diagnostic / test use; O(n)).
    fn ranges(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.count);
        // Explicit stack: no recursion-depth concern for diagnostics.
        let mut stack = Vec::new();
        let mut t = self.root;
        while t != NIL || !stack.is_empty() {
            while t != NIL {
                stack.push(t);
                t = self.nodes[t as usize].left;
            }
            let top = stack.pop().expect("stack non-empty by loop condition");
            let n = &self.nodes[top as usize];
            out.push((n.addr, n.len));
            t = n.right;
        }
        out
    }
}

/// Deterministic open-addressing index `addr -> len` for live-allocation
/// validation (double-free / wrong-length detection in `Pool::free`, one
/// probe that validates and removes).
///
/// Hashing is a fixed splitmix64 of the address — no ambient entropy (the
/// workspace's D3 discipline) and no iteration anywhere, so it cannot
/// influence observable results; it exists purely because the validation
/// lookup sits on the alloc/free hot path. Linear probing with
/// backward-shift deletion (no tombstones); `len == 0` marks an empty slot,
/// which is unambiguous because zero-length allocations are rejected before
/// they reach the index.
#[derive(Clone, Debug)]
struct LiveMap {
    /// `(addr, len)` slots; `len == 0` means empty.
    slots: Vec<(u64, u64)>,
    occupied: usize,
    mask: usize,
}

impl LiveMap {
    fn with_capacity(n: usize) -> Self {
        let cap = (n.max(8) * 2).next_power_of_two();
        LiveMap {
            slots: vec![(0, 0); cap],
            occupied: 0,
            mask: cap - 1,
        }
    }

    fn home(&self, addr: u64) -> usize {
        (mix64(addr) as usize) & self.mask
    }

    fn insert(&mut self, addr: u64, len: u64) {
        debug_assert!(len > 0, "LiveMap uses len == 0 as the empty marker");
        if (self.occupied + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let mut i = self.home(addr);
        loop {
            if self.slots[i].1 == 0 {
                self.slots[i] = (addr, len);
                self.occupied += 1;
                return;
            }
            debug_assert_ne!(self.slots[i].0, addr, "duplicate live address");
            i = (i + 1) & self.mask;
        }
    }

    /// Removes the entry `addr -> len` and returns true. A missing `addr`,
    /// or one live with another length, returns false and leaves the map
    /// untouched.
    fn remove_exact(&mut self, addr: u64, len: u64) -> bool {
        let mut i = self.home(addr);
        loop {
            let (a, l) = self.slots[i];
            if l == 0 {
                return false;
            }
            if a == addr {
                if l != len {
                    return false;
                }
                break;
            }
            i = (i + 1) & self.mask;
        }
        self.occupied -= 1;
        // Backward-shift deletion: walk the probe chain after the gap and
        // pull back any entry whose home position lies cyclically at or
        // before the gap, so every surviving entry stays reachable.
        let mut gap = i;
        let mut j = i;
        loop {
            j = (j + 1) & self.mask;
            if self.slots[j].1 == 0 {
                break;
            }
            let h = self.home(self.slots[j].0);
            let fits = if h <= j {
                (h..j).contains(&gap)
            } else {
                gap >= h || gap < j
            };
            if fits {
                self.slots[gap] = self.slots[j];
                gap = j;
            }
        }
        self.slots[gap] = (0, 0);
        true
    }

    fn grow(&mut self) {
        let doubled = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![(0, 0); doubled]);
        self.mask = self.slots.len() - 1;
        self.occupied = 0;
        for (addr, len) in old {
            if len > 0 {
                self.insert(addr, len);
            }
        }
    }
}

/// A first-fit, coalescing range allocator over a device.
///
/// # Examples
///
/// ```
/// use mrm_core::pool::Pool;
/// use mrm_device::device::MemoryDevice;
/// use mrm_device::tech::presets;
///
/// let mut pool = Pool::new(MemoryDevice::new(presets::hbm3e()));
/// let a = pool.alloc(1 << 20).unwrap();
/// assert_eq!(pool.used_bytes(), 1 << 20);
/// pool.free(a).unwrap();
/// assert_eq!(pool.used_bytes(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct Pool {
    device: MemoryDevice,
    /// Disjoint, coalesced free ranges, address-ordered with max-free-len
    /// augmentation (first fit in O(log n)).
    free: FreeTree,
    /// Active allocations (`addr -> len`) for `free()` validation.
    live: LiveMap,
    used: u64,
}

impl Pool {
    /// Creates a pool spanning the whole device.
    pub fn new(device: MemoryDevice) -> Self {
        Pool::with_capacity_hint(device, 0)
    }

    /// Creates a pool spanning the whole device, pre-reserving internal
    /// structures for about `expected_live` concurrent allocations (free
    /// fragments never exceed live allocations + 1). Purely a wall-clock
    /// hint: behaviour is identical to [`Pool::new`].
    pub fn with_capacity_hint(device: MemoryDevice, expected_live: usize) -> Self {
        let cap = device.capacity_bytes();
        let mut free = FreeTree::with_capacity(expected_live.saturating_add(1));
        free.release_span(0, cap);
        Pool {
            device,
            free,
            live: LiveMap::with_capacity(expected_live),
            used: 0,
        }
    }

    /// The underlying device.
    pub fn device(&self) -> &MemoryDevice {
        &self.device
    }

    /// The device's write operating point at `retention`
    /// ([`MemoryDevice::write_point`], sharing its memo).
    #[inline]
    pub fn write_point(&mut self, retention: SimDuration) -> CellOperatingPoint {
        self.device.write_point(retention)
    }

    /// Pool capacity, bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.device.capacity_bytes()
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Bytes currently free (possibly fragmented).
    pub fn free_bytes(&self) -> u64 {
        self.capacity_bytes() - self.used
    }

    /// The largest contiguous free range, bytes (O(1)).
    pub fn largest_free_bytes(&self) -> u64 {
        self.free.max_free()
    }

    /// Occupancy fraction.
    pub fn occupancy(&self) -> f64 {
        self.used as f64 / self.capacity_bytes().max(1) as f64
    }

    /// Energy consumed by the pool's device.
    pub fn energy(&self) -> EnergyBreakdown {
        self.device.energy()
    }

    /// Allocates `len` contiguous bytes (first fit, lowest address).
    pub fn alloc(&mut self, len: u64) -> Result<Allocation, PoolError> {
        if len == 0 {
            return Err(PoolError::ZeroSize);
        }
        match self.free.take_first_fit(len) {
            None => Err(PoolError::OutOfMemory {
                requested: len,
                free: self.free_bytes(),
            }),
            Some(addr) => {
                self.live.insert(addr, len);
                self.used += len;
                Ok(Allocation { addr, len })
            }
        }
    }

    /// Frees an allocation, coalescing adjacent free ranges.
    pub fn free(&mut self, a: Allocation) -> Result<(), PoolError> {
        if !self.live.remove_exact(a.addr, a.len) {
            return Err(PoolError::InvalidFree);
        }
        self.used -= a.len;
        self.free.release_span(a.addr, a.len);
        Ok(())
    }

    /// Timed read of an allocation (or a sub-range via `offset`/`len`).
    pub fn read(
        &mut self,
        now: SimTime,
        a: &Allocation,
        offset: u64,
        len: u64,
    ) -> Result<OpResult, PoolError> {
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= a.len),
            "read outside allocation"
        );
        Ok(self.device.read(now, a.addr + offset, len)?)
    }

    /// Timed write of an allocation sub-range with a retention hint.
    pub fn write(
        &mut self,
        now: SimTime,
        a: &Allocation,
        offset: u64,
        len: u64,
        retention: SimDuration,
    ) -> Result<OpResult, PoolError> {
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= a.len),
            "write outside allocation"
        );
        Ok(self
            .device
            .write_with_retention(now, a.addr + offset, len, retention)?)
    }

    /// Number of fragments in the free list (fragmentation metric).
    pub fn free_fragments(&self) -> usize {
        self.free.len()
    }

    /// The free ranges in address order (diagnostic; O(n)).
    pub fn free_ranges(&self) -> Vec<(u64, u64)> {
        self.free.ranges()
    }
}

/// The original flat-`Vec` first-fit allocator, device-free.
///
/// Retained verbatim (linear first-fit scan per `alloc`, sorted
/// `Vec::insert`/`remove` per `free`) as the **oracle** for the model-based
/// property tests — the treap-backed [`Pool`] must produce byte-identical
/// addresses, fragment lists and errors for any operation sequence — and as
/// the **baseline** the `perf_suite` pool-churn scenario measures the
/// O(log n) allocator against. Not intended for production use.
#[derive(Clone, Debug)]
pub struct LegacyVecPool {
    capacity: u64,
    /// Sorted, disjoint, coalesced free ranges `(addr, len)`.
    free: Vec<(u64, u64)>,
    /// Active allocations (sorted by addr) for free() validation.
    live: Vec<Allocation>,
    used: u64,
}

impl LegacyVecPool {
    /// Creates an allocator over `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        LegacyVecPool {
            capacity,
            free: vec![(0, capacity)],
            live: Vec::new(),
            used: 0,
        }
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Bytes currently free (possibly fragmented).
    pub fn free_bytes(&self) -> u64 {
        self.capacity - self.used
    }

    /// Allocates `len` contiguous bytes (first fit, linear scan).
    pub fn alloc(&mut self, len: u64) -> Result<Allocation, PoolError> {
        if len == 0 {
            return Err(PoolError::ZeroSize);
        }
        let slot = self.free.iter().position(|&(_, flen)| flen >= len);
        match slot {
            None => Err(PoolError::OutOfMemory {
                requested: len,
                free: self.free_bytes(),
            }),
            Some(i) => {
                let (addr, flen) = self.free[i];
                if flen == len {
                    self.free.remove(i);
                } else {
                    self.free[i] = (addr + len, flen - len);
                }
                let a = Allocation { addr, len };
                let pos = self.live.partition_point(|x| x.addr < addr);
                self.live.insert(pos, a);
                self.used += len;
                Ok(a)
            }
        }
    }

    /// Frees an allocation, coalescing adjacent free ranges.
    pub fn free(&mut self, a: Allocation) -> Result<(), PoolError> {
        let pos = self.live.binary_search_by_key(&a.addr, |x| x.addr);
        let Ok(pos) = pos else {
            return Err(PoolError::InvalidFree);
        };
        if self.live[pos] != a {
            return Err(PoolError::InvalidFree);
        }
        self.live.remove(pos);
        self.used -= a.len;
        // Insert into the free list and coalesce neighbours.
        let i = self.free.partition_point(|&(addr, _)| addr < a.addr);
        self.free.insert(i, (a.addr, a.len));
        // Coalesce with next.
        if i + 1 < self.free.len() {
            let (naddr, nlen) = self.free[i + 1];
            if a.addr + a.len == naddr {
                self.free[i].1 += nlen;
                self.free.remove(i + 1);
            }
        }
        // Coalesce with previous.
        if i > 0 {
            let (paddr, plen) = self.free[i - 1];
            if paddr + plen == self.free[i].0 {
                self.free[i - 1].1 += self.free[i].1;
                self.free.remove(i);
            }
        }
        Ok(())
    }

    /// Number of fragments in the free list.
    pub fn free_fragments(&self) -> usize {
        self.free.len()
    }

    /// The free ranges in address order.
    pub fn free_ranges(&self) -> Vec<(u64, u64)> {
        self.free.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrm_device::tech::presets;
    use mrm_sim::units::MIB;

    fn pool() -> Pool {
        let mut tech = presets::mrm_hours();
        tech.capacity_bytes = 64 * MIB;
        Pool::new(MemoryDevice::new(tech))
    }

    #[test]
    fn alloc_free_roundtrip() {
        let mut p = pool();
        let a = p.alloc(MIB).unwrap();
        let b = p.alloc(2 * MIB).unwrap();
        assert_eq!(p.used_bytes(), 3 * MIB);
        assert_ne!(a.addr, b.addr);
        p.free(a).unwrap();
        p.free(b).unwrap();
        assert_eq!(p.used_bytes(), 0);
        assert_eq!(p.free_fragments(), 1, "must coalesce back to one range");
    }

    #[test]
    fn first_fit_reuses_holes() {
        let mut p = pool();
        let a = p.alloc(MIB).unwrap();
        let _b = p.alloc(MIB).unwrap();
        p.free(a).unwrap();
        let c = p.alloc(MIB / 2).unwrap();
        assert_eq!(c.addr, a.addr, "first fit should land in the hole");
    }

    #[test]
    fn first_fit_prefers_lowest_address_hole() {
        // Three holes of equal size at increasing addresses: first fit must
        // take the lowest one every time, regardless of tree shape.
        let mut p = pool();
        let allocs: Vec<Allocation> = (0..8).map(|_| p.alloc(MIB).unwrap()).collect();
        p.free(allocs[5]).unwrap();
        p.free(allocs[1]).unwrap();
        p.free(allocs[3]).unwrap();
        let got = p.alloc(MIB).unwrap();
        assert_eq!(got.addr, allocs[1].addr, "lowest-address hole wins");
        let got2 = p.alloc(MIB).unwrap();
        assert_eq!(got2.addr, allocs[3].addr);
    }

    #[test]
    fn out_of_memory_reports_free() {
        let mut p = pool();
        let _a = p.alloc(60 * MIB).unwrap();
        match p.alloc(8 * MIB) {
            Err(PoolError::OutOfMemory { requested, free }) => {
                assert_eq!(requested, 8 * MIB);
                assert_eq!(free, 4 * MIB);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn fragmentation_then_coalesce() {
        let mut p = pool();
        let allocs: Vec<Allocation> = (0..8).map(|_| p.alloc(MIB).unwrap()).collect();
        // Free every other one: fragments.
        for a in allocs.iter().step_by(2) {
            p.free(*a).unwrap();
        }
        assert!(p.free_fragments() >= 4);
        // Free the rest: everything coalesces.
        for a in allocs.iter().skip(1).step_by(2) {
            p.free(*a).unwrap();
        }
        assert_eq!(p.free_fragments(), 1);
        assert_eq!(p.used_bytes(), 0);
        assert_eq!(p.free_ranges(), vec![(0, 64 * MIB)]);
    }

    #[test]
    fn largest_free_tracks_fragmentation() {
        let mut p = pool();
        assert_eq!(p.largest_free_bytes(), 64 * MIB);
        let a = p.alloc(MIB).unwrap();
        let _b = p.alloc(MIB).unwrap();
        assert_eq!(p.largest_free_bytes(), 62 * MIB);
        p.free(a).unwrap();
        // Two fragments: the 1 MiB hole and the 62 MiB tail.
        assert_eq!(p.free_fragments(), 2);
        assert_eq!(p.largest_free_bytes(), 62 * MIB);
    }

    #[test]
    fn double_free_rejected() {
        let mut p = pool();
        let a = p.alloc(MIB).unwrap();
        p.free(a).unwrap();
        assert_eq!(p.free(a).unwrap_err(), PoolError::InvalidFree);
    }

    #[test]
    fn bogus_free_rejected() {
        let mut p = pool();
        let _a = p.alloc(MIB).unwrap();
        assert_eq!(
            p.free(Allocation {
                addr: 12345,
                len: 10
            })
            .unwrap_err(),
            PoolError::InvalidFree
        );
    }

    #[test]
    fn free_with_wrong_len_rejected() {
        let mut p = pool();
        let a = p.alloc(MIB).unwrap();
        assert_eq!(
            p.free(Allocation {
                addr: a.addr,
                len: a.len - 1
            })
            .unwrap_err(),
            PoolError::InvalidFree
        );
        // The allocation is still live and can be freed correctly.
        p.free(a).unwrap();
        assert_eq!(p.used_bytes(), 0);
    }

    #[test]
    fn wrong_length_free_changes_nothing() {
        let mut p = pool();
        let mut oracle = LegacyVecPool::new(64 * MIB);
        let allocs: Vec<Allocation> = (0..4).map(|_| p.alloc(MIB).unwrap()).collect();
        for _ in 0..4 {
            oracle.alloc(MIB).unwrap();
        }
        p.free(allocs[2]).unwrap();
        oracle.free(allocs[2]).unwrap();
        let (used, ranges) = (p.used_bytes(), p.free_ranges());
        let a = allocs[1];
        for len in [a.len - 1, a.len + 1, 1, u64::MAX] {
            let wrong = Allocation { addr: a.addr, len };
            assert_eq!(p.free(wrong), Err(PoolError::InvalidFree));
            assert_eq!(p.used_bytes(), used);
            assert_eq!(p.free_ranges(), ranges);
        }
        // Every live entry is still found: the rejected probes left the
        // index untouched, so the correct frees match the oracle's.
        for a in [allocs[1], allocs[0], allocs[3]] {
            assert_eq!(p.free(a), oracle.free(a));
            assert_eq!(p.free_ranges(), oracle.free_ranges());
        }
        assert_eq!(p.used_bytes(), 0);
    }

    /// Frees `before` and then `last` out of five adjacent 1 MiB blocks in
    /// both the pool and the oracle, comparing every result and the free
    /// list after each free; returns the final free list.
    fn coalesce_case(before: &[usize], last: usize) -> Vec<(u64, u64)> {
        let mut p = pool();
        let mut oracle = LegacyVecPool::new(64 * MIB);
        let allocs: Vec<Allocation> = (0..5).map(|_| p.alloc(MIB).unwrap()).collect();
        for &a in &allocs {
            assert_eq!(oracle.alloc(MIB), Ok(a));
        }
        for &i in before.iter().chain([&last]) {
            assert_eq!(p.free(allocs[i]), oracle.free(allocs[i]));
            assert_eq!(p.free_ranges(), oracle.free_ranges());
            let largest = oracle.free_ranges().iter().map(|r| r.1).max();
            assert_eq!(Some(p.largest_free_bytes()), largest);
        }
        p.free_ranges()
    }

    #[test]
    fn free_coalesces_with_predecessor_only() {
        let tail = (5 * MIB, 59 * MIB);
        assert_eq!(coalesce_case(&[1], 2), vec![(MIB, 2 * MIB), tail]);
    }

    #[test]
    fn free_coalesces_with_successor_only() {
        let tail = (5 * MIB, 59 * MIB);
        assert_eq!(coalesce_case(&[3], 2), vec![(2 * MIB, 2 * MIB), tail]);
        // The pool's tail range is a successor too.
        assert_eq!(coalesce_case(&[], 4), vec![(4 * MIB, 60 * MIB)]);
    }

    #[test]
    fn free_coalesces_with_both_neighbours() {
        let tail = (5 * MIB, 59 * MIB);
        assert_eq!(coalesce_case(&[1, 3], 2), vec![(MIB, 3 * MIB), tail]);
        assert_eq!(coalesce_case(&[3, 1], 2), vec![(MIB, 3 * MIB), tail]);
        assert_eq!(coalesce_case(&[0, 1, 2, 3], 4), vec![(0, 64 * MIB)]);
    }

    #[test]
    fn free_without_free_neighbours_adds_a_range() {
        let tail = (5 * MIB, 59 * MIB);
        assert_eq!(coalesce_case(&[], 2), vec![(2 * MIB, MIB), tail]);
        assert_eq!(coalesce_case(&[], 0), vec![(0, MIB), tail]);
    }

    /// Two adjacent allocations: `a` at 0 and `b` right after it.
    fn neighbours() -> (Pool, Allocation, Allocation) {
        let mut p = pool();
        let a = p.alloc(MIB).unwrap();
        let b = p.alloc(MIB).unwrap();
        assert_eq!((a.addr, b.addr), (0, MIB));
        (p, a, b)
    }

    #[test]
    #[should_panic(expected = "read outside allocation")]
    fn read_offset_overflow_is_outside_allocation() {
        // `offset + len` wraps to 4096: an unchecked sum would pass the
        // bound and read the last page of `a`.
        let (mut p, _a, b) = neighbours();
        let _ = p.read(SimTime::ZERO, &b, u64::MAX - 4095, 8192);
    }

    #[test]
    #[should_panic(expected = "write outside allocation")]
    fn write_offset_overflow_is_outside_allocation() {
        let (mut p, _a, b) = neighbours();
        let _ = p.write(
            SimTime::ZERO,
            &b,
            u64::MAX - 4095,
            8192,
            SimDuration::from_hours(1),
        );
    }

    #[test]
    fn zero_alloc_rejected() {
        assert_eq!(pool().alloc(0).unwrap_err(), PoolError::ZeroSize);
    }

    #[test]
    fn timed_io_goes_through() {
        let mut p = pool();
        let a = p.alloc(MIB).unwrap();
        let w = p
            .write(SimTime::ZERO, &a, 0, MIB, SimDuration::from_hours(1))
            .unwrap();
        let r = p.read(SimTime::ZERO, &a, 0, MIB).unwrap();
        assert!(w.service_time > SimDuration::ZERO);
        assert!(r.service_time > SimDuration::ZERO);
        assert!(p.energy().write_j > 0.0);
        assert!(p.energy().read_j > 0.0);
    }

    #[test]
    fn occupancy() {
        let mut p = pool();
        assert!(p.occupancy().abs() < f64::EPSILON);
        let _ = p.alloc(32 * MIB).unwrap();
        assert!((p.occupancy() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn capacity_hint_changes_nothing_observable() {
        let mut tech = presets::mrm_hours();
        tech.capacity_bytes = 64 * MIB;
        let mut a = Pool::new(MemoryDevice::new(tech.clone()));
        let mut b = Pool::with_capacity_hint(MemoryDevice::new(tech), 10_000);
        for i in 1..64 {
            let x = a.alloc(i * 1024).unwrap();
            let y = b.alloc(i * 1024).unwrap();
            assert_eq!(x, y);
        }
        assert_eq!(a.free_ranges(), b.free_ranges());
    }

    #[test]
    fn deep_churn_stays_consistent() {
        // A few thousand deterministic alloc/free cycles: accounting,
        // coalescing and the max_len augmentation must all stay in sync.
        let mut tech = presets::mrm_hours();
        tech.capacity_bytes = 256 * MIB;
        let mut p = Pool::new(MemoryDevice::new(tech));
        let mut live: Vec<Allocation> = Vec::new();
        let mut state = 0x0123_4567_89AB_CDEF_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for _ in 0..4000 {
            let r = next();
            if r % 3 != 0 || live.is_empty() {
                let len = (next() % 255 + 1) * 1024;
                if let Ok(a) = p.alloc(len) {
                    live.push(a);
                }
            } else {
                let idx = (next() as usize) % live.len();
                let a = live.swap_remove(idx);
                p.free(a).unwrap();
            }
            let used: u64 = live.iter().map(|a| a.len).sum();
            assert_eq!(p.used_bytes(), used);
            assert!(p.free_fragments() <= live.len() + 1);
        }
        for a in live.drain(..) {
            p.free(a).unwrap();
        }
        assert_eq!(p.free_fragments(), 1);
        assert_eq!(p.largest_free_bytes(), 256 * MIB);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use mrm_device::tech::presets;
    use mrm_sim::units::MIB;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn allocations_never_overlap_and_accounting_balances(
            ops in proptest::collection::vec((1u64..512, prop::bool::ANY), 1..200)
        ) {
            let mut tech = presets::mrm_hours();
            tech.capacity_bytes = MIB;
            let mut p = Pool::new(mrm_device::device::MemoryDevice::new(tech));
            let mut live: Vec<Allocation> = Vec::new();
            for (size, do_free) in ops {
                if do_free && !live.is_empty() {
                    let a = live.swap_remove(0);
                    p.free(a).unwrap();
                } else if let Ok(a) = p.alloc(size * 1024) {
                    live.push(a);
                }
                // No two live allocations overlap.
                let mut sorted = live.clone();
                sorted.sort_by_key(|a| a.addr);
                for w in sorted.windows(2) {
                    prop_assert!(w[0].addr + w[0].len <= w[1].addr);
                }
                let used: u64 = live.iter().map(|a| a.len).sum();
                prop_assert_eq!(p.used_bytes(), used);
            }
        }

        /// Model-based check: the treap-backed pool must be observationally
        /// identical to the retained first-fit `Vec` oracle for arbitrary
        /// alloc/free sequences — same addresses, same fragment lists, same
        /// errors. This is the contract that lets the allocator swap change
        /// no simulated result, only wall-clock.
        #[test]
        fn treap_pool_matches_vec_oracle(
            ops in proptest::collection::vec(
                (0u64..600, prop::bool::ANY, 0usize..64),
                1..300,
            )
        ) {
            let mut tech = presets::mrm_hours();
            tech.capacity_bytes = MIB;
            let mut p = Pool::new(mrm_device::device::MemoryDevice::new(tech));
            let mut oracle = LegacyVecPool::new(MIB);
            let mut live: Vec<Allocation> = Vec::new();
            for (size, do_free, pick) in ops {
                if do_free && !live.is_empty() {
                    let a = live.remove(pick % live.len());
                    prop_assert_eq!(p.free(a), oracle.free(a));
                    // Double frees must be rejected identically too.
                    prop_assert_eq!(p.free(a), oracle.free(a));
                    prop_assert_eq!(p.free(a).unwrap_err(), PoolError::InvalidFree);
                } else {
                    // size == 0 exercises the ZeroSize error path.
                    let got = p.alloc(size * 1024);
                    let want = oracle.alloc(size * 1024);
                    prop_assert_eq!(got, want);
                    if let Ok(a) = got {
                        live.push(a);
                    }
                }
                prop_assert_eq!(p.used_bytes(), oracle.used_bytes());
                prop_assert_eq!(p.free_bytes(), oracle.free_bytes());
                prop_assert_eq!(p.free_fragments(), oracle.free_fragments());
                prop_assert_eq!(p.free_ranges(), oracle.free_ranges());
                let largest = oracle.free_ranges().iter().map(|r| r.1).max();
                prop_assert_eq!(p.largest_free_bytes(), largest.unwrap_or(0));
            }
        }
    }

    #[test]
    fn zero_capacity_pool_is_inert_and_matches_the_oracle() {
        // Degenerate geometry (found worth pinning by the `mrm-fuzz pool`
        // corpus): a zero-byte device must build, report empty accounting,
        // and refuse every allocation the same way the oracle does.
        let mut tech = presets::mrm_hours();
        tech.capacity_bytes = 0;
        let mut p = Pool::new(MemoryDevice::new(tech));
        let mut oracle = LegacyVecPool::new(0);
        assert_eq!(p.used_bytes(), 0);
        assert_eq!(p.free_bytes(), oracle.free_bytes());
        assert_eq!(p.free_fragments(), oracle.free_fragments());
        assert_eq!(p.free_ranges(), oracle.free_ranges());
        assert!(matches!(p.alloc(1), Err(PoolError::OutOfMemory { .. })));
        assert!(matches!(
            oracle.alloc(1),
            Err(PoolError::OutOfMemory { .. })
        ));
        assert!(matches!(p.alloc(0), Err(PoolError::ZeroSize)));
        assert!(matches!(oracle.alloc(0), Err(PoolError::ZeroSize)));
    }

    #[test]
    fn one_byte_pool_full_lifecycle() {
        let mut tech = presets::mrm_hours();
        tech.capacity_bytes = 1;
        let mut p = Pool::new(MemoryDevice::new(tech));
        let mut oracle = LegacyVecPool::new(1);
        let a = p.alloc(1).unwrap();
        let b = oracle.alloc(1).unwrap();
        assert_eq!((a.addr, a.len), (b.addr, b.len));
        assert_eq!(p.free_bytes(), 0);
        assert!(matches!(p.alloc(1), Err(PoolError::OutOfMemory { .. })));
        assert!(matches!(
            oracle.alloc(1),
            Err(PoolError::OutOfMemory { .. })
        ));
        p.free(a).unwrap();
        oracle.free(b).unwrap();
        assert_eq!(p.free_ranges(), oracle.free_ranges());
        // The single byte is reusable after the free.
        let c = p.alloc(1).unwrap();
        assert_eq!(c.addr, 0);
        assert!(matches!(p.alloc(2), Err(PoolError::OutOfMemory { .. })));
    }
}
