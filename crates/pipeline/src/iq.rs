//! Issue queue: stable slots, a ready bitmask, and an age-ordered select
//! list.
//!
//! The pre-rework queue kept an age-ordered `Vec<IqEntry>` and re-tested
//! every entry's operands against the register file each cycle, then paid
//! `Vec::remove` per issued entry. This version is indexed:
//!
//! * entries live in **stable slots** (free-list allocated), so an entry
//!   never moves while resident;
//! * each slot carries a **pending-operand count**, decremented by
//!   [`IssueQueue::wakeup`] when a source register becomes ready — there
//!   is no per-cycle operand re-scan;
//! * slots with no pending operands are flagged in a **ready bitmask**, so
//!   the select stage visits only ready entries (and the cycle loop can
//!   skip the stage entirely when [`IssueQueue::ready_count`] is zero);
//! * occupied slots are threaded on an **intrusive doubly-linked age
//!   list** in dispatch order, which is sequence order —
//!   [`IssueQueue::collect_ready`] walks it so select sees ready entries
//!   oldest-first without sorting, and [`IssueQueue::remove`] unlinks in
//!   O(1) with no memmove.
//!
//! Wakeup is driven by **per-register waiter bitmaps**: dispatching an
//! entry with a not-yet-ready source sets the entry's slot bit under that
//! register, and [`IssueQueue::wakeup`] visits exactly those slots (almost
//! always zero or one) instead of scanning the whole queue. The bitmaps
//! need no cleanup on issue or register reuse: an entry only leaves the
//! queue once ready, i.e. after every register it was waiting on fired its
//! wakeup and cleared the bit — and a physical register cannot be freed
//! and re-allocated while an entry still waits on it (the consumer renamed
//! before the register's next writer, so it commits — and therefore
//! issues — first). Each register thus has a single ready transition per
//! allocation, reaching exactly the entries that counted it pending at
//! dispatch.

use crate::fu::FuClass;
use crate::regfile::PhysReg;

/// One issue-queue entry, as dispatched by rename.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IqEntry {
    /// Dynamic sequence number (also the age for oldest-first select).
    pub(crate) seq: u64,
    /// Source physical registers (readiness is tracked by the queue).
    pub(crate) srcs: [Option<PhysReg>; 2],
    /// Function-unit class.
    pub(crate) fu: FuClass,
    /// Whether the entry is a load (subject to memory ordering).
    pub(crate) is_load: bool,
    /// Destination physical register, when the instruction writes one.
    pub(crate) dest: Option<PhysReg>,
}

/// A resident entry and its source operands still awaited.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    entry: IqEntry,
    pending: u8,
}

/// Age-list link terminator / "not linked" marker.
const NONE: u32 = u32::MAX;

/// A capacity-bounded issue queue (one cluster's slice) with indexed
/// wakeup.
#[derive(Debug, Clone)]
pub(crate) struct IssueQueue {
    capacity: usize,
    /// Slot ids available for dispatch.
    free_slots: Vec<u32>,
    /// Entry storage, indexed by slot; stale when not on the age list.
    slots: Vec<Slot>,
    /// Occupied slot count.
    len: usize,
    /// Oldest occupied slot ([`NONE`] when empty).
    head: u32,
    /// Youngest occupied slot ([`NONE`] when empty).
    tail: u32,
    /// Age-list forward links, indexed by slot.
    next: Vec<u32>,
    /// Age-list backward links, indexed by slot.
    prev: Vec<u32>,
    /// One bit per slot: occupied and zero pending operands (capacity is
    /// capped at 64, so a single word covers the queue).
    ready: u64,
    /// Set bits in `ready`.
    ready_count: usize,
    /// Per-physical-register bitmap of slots waiting on it.
    waiters: Vec<u64>,
}

impl IssueQueue {
    pub(crate) fn new(capacity: usize, phys_regs: usize) -> IssueQueue {
        assert!(capacity > 0, "issue queue needs at least one entry");
        assert!(capacity <= 64, "issue queue capped at 64 entries (slot bitmaps)");
        IssueQueue {
            capacity,
            free_slots: (0..capacity as u32).rev().collect(),
            slots: vec![Slot::default(); capacity],
            len: 0,
            head: NONE,
            tail: NONE,
            next: vec![NONE; capacity],
            prev: vec![NONE; capacity],
            ready: 0,
            ready_count: 0,
            waiters: vec![0; phys_regs],
        }
    }

    pub(crate) fn is_full(&self) -> bool {
        self.len == self.capacity
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Entries whose operands are all available.
    pub(crate) fn ready_count(&self) -> usize {
        self.ready_count
    }

    /// Dispatches an entry, counting its sources for which `is_ready` is
    /// false as pending. Entries must arrive in ascending sequence order
    /// (rename is in-order), which keeps the age list sorted by age. The
    /// predicate is the register file's ready bit, or — behind a delayed
    /// inter-cluster bypass — the cluster's operand *visibility*, under
    /// which a globally ready register can still be pending.
    #[inline(always)]
    pub(crate) fn push(&mut self, entry: IqEntry, is_ready: impl Fn(PhysReg) -> bool) {
        debug_assert!(!self.is_full(), "pushed into a full issue queue");
        let slot = self.free_slots.pop().expect("free slot exists");
        let mut pending = 0u8;
        for p in entry.srcs.iter().flatten() {
            if !is_ready(*p) {
                pending += 1;
                self.waiters[p.0 as usize] |= 1 << slot;
            }
        }
        self.slots[slot as usize] = Slot { entry, pending };
        // Link at the tail: youngest.
        self.next[slot as usize] = NONE;
        self.prev[slot as usize] = self.tail;
        if self.tail == NONE {
            self.head = slot;
        } else {
            self.next[self.tail as usize] = slot;
        }
        self.tail = slot;
        self.len += 1;
        if pending == 0 {
            self.mark_ready(slot as usize);
        }
    }

    /// Register `p` became ready: wake every entry waiting on it. Returns
    /// the number of waiter entries woken (a delayed remote wakeup charges
    /// each as one `bypass_stalls`).
    #[inline(always)]
    pub(crate) fn wakeup(&mut self, p: PhysReg) -> u32 {
        let mut w = std::mem::take(&mut self.waiters[p.0 as usize]);
        let woken = w.count_ones();
        while w != 0 {
            let s = w.trailing_zeros() as usize;
            w &= w - 1;
            let slot = &mut self.slots[s];
            // A duplicated source counts pending per occurrence but sets
            // one waiter bit; decrement per matching operand.
            for src in slot.entry.srcs {
                if src == Some(p) {
                    slot.pending -= 1;
                }
            }
            if slot.pending == 0 {
                self.mark_ready(s);
            }
        }
        woken
    }

    /// Appends `(seq, slot, cluster)` for every ready entry to `out`,
    /// oldest first (the age list is walked in dispatch order, so no sort
    /// is needed); `cluster` tags this queue's entries in a merged list.
    #[inline(always)]
    pub(crate) fn collect_ready(&self, cluster: u8, out: &mut Vec<(u64, u32, u8)>) {
        let (ready, slots, next) = (self.ready, &self.slots[..], &self.next[..]);
        let mut remaining = self.ready_count;
        let mut s = self.head;
        while remaining > 0 && s != NONE {
            if ready & (1 << s) != 0 {
                out.push((slots[s as usize].entry.seq, s, cluster));
                remaining -= 1;
            }
            s = next[s as usize];
        }
    }

    /// The resident entry in `slot` (one read for the whole select step).
    #[inline]
    pub(crate) fn entry(&self, slot: u32) -> IqEntry {
        self.slots[slot as usize].entry
    }

    /// Removes an issued entry. The entry must be ready (select only
    /// considers ready entries).
    #[inline(always)]
    pub(crate) fn remove(&mut self, slot: u32) {
        let s = slot as usize;
        debug_assert!(self.ready & (1 << s) != 0, "removed unready entry");
        self.ready &= !(1 << s);
        self.ready_count -= 1;
        let (p, n) = (self.prev[s], self.next[s]);
        if p == NONE {
            self.head = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NONE {
            self.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
        self.len -= 1;
        self.free_slots.push(slot);
    }

    fn mark_ready(&mut self, slot: usize) {
        debug_assert!(self.ready & (1 << slot) == 0);
        self.ready |= 1 << slot;
        self.ready_count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regfile::PhysRegFile;

    fn entry(seq: u64, srcs: [Option<PhysReg>; 2]) -> IqEntry {
        IqEntry { seq, srcs, fu: FuClass::Alu, is_load: false, dest: None }
    }

    fn ready_seqs(iq: &IssueQueue) -> Vec<u64> {
        let mut v = Vec::new();
        iq.collect_ready(0, &mut v);
        v.into_iter().map(|(seq, ..)| seq).collect()
    }

    #[test]
    fn readiness_tracks_wakeups() {
        let mut regs = PhysRegFile::new(40, 32);
        let p = regs.alloc().unwrap();
        let mut iq = IssueQueue::new(4, 40);
        iq.push(entry(0, [Some(p), Some(PhysReg(3))]), |p| regs.is_ready(p));
        assert_eq!(iq.ready_count(), 0);
        regs.set_ready(p);
        iq.wakeup(p);
        assert_eq!(iq.ready_count(), 1);
        assert_eq!(ready_seqs(&iq), [0]);
    }

    #[test]
    fn no_sources_is_ready_at_dispatch() {
        let regs = PhysRegFile::new(40, 32);
        let mut iq = IssueQueue::new(4, 40);
        iq.push(entry(0, [None, None]), |p| regs.is_ready(p));
        assert_eq!(iq.ready_count(), 1);
    }

    #[test]
    fn duplicated_source_needs_a_single_wakeup() {
        // Both operands name the same not-ready register: one wakeup must
        // clear both pending counts.
        let mut regs = PhysRegFile::new(40, 32);
        let p = regs.alloc().unwrap();
        let mut iq = IssueQueue::new(4, 40);
        iq.push(entry(0, [Some(p), Some(p)]), |p| regs.is_ready(p));
        assert_eq!(iq.ready_count(), 0);
        regs.set_ready(p);
        iq.wakeup(p);
        assert_eq!(iq.ready_count(), 1);
    }

    #[test]
    fn wakeup_skips_entries_whose_source_was_ready_at_dispatch() {
        // An entry dispatched with an already-ready source must not be
        // perturbed when an unrelated register becomes ready.
        let mut regs = PhysRegFile::new(40, 32);
        let ready = regs.alloc().unwrap();
        regs.set_ready(ready);
        let waited = regs.alloc().unwrap();
        let mut iq = IssueQueue::new(4, 40);
        iq.push(entry(0, [Some(ready), None]), |p| regs.is_ready(p));
        iq.push(entry(1, [Some(waited), None]), |p| regs.is_ready(p));
        assert_eq!(iq.ready_count(), 1);
        regs.set_ready(waited);
        iq.wakeup(waited);
        assert_eq!(ready_seqs(&iq), [0, 1]);
    }

    #[test]
    fn collect_ready_is_oldest_first_without_sorting() {
        let regs = PhysRegFile::new(40, 32);
        let mut iq = IssueQueue::new(4, 40);
        iq.push(entry(1, [None, None]), |p| regs.is_ready(p));
        iq.push(entry(5, [None, None]), |p| regs.is_ready(p));
        iq.push(entry(9, [None, None]), |p| regs.is_ready(p));
        assert_eq!(ready_seqs(&iq), [1, 5, 9]);
        // Remove the oldest and youngest; the middle entry survives and
        // order is preserved across slot reuse.
        let mut v = Vec::new();
        iq.collect_ready(0, &mut v);
        iq.remove(v[0].1);
        iq.remove(v[2].1);
        assert_eq!(iq.len(), 1);
        iq.push(entry(12, [None, None]), |p| regs.is_ready(p));
        assert_eq!(ready_seqs(&iq), [5, 12]);
    }

    #[test]
    fn slots_are_recycled_across_issue() {
        let regs = PhysRegFile::new(40, 32);
        let mut iq = IssueQueue::new(2, 40);
        for round in 0..10u64 {
            iq.push(entry(2 * round, [None, None]), |p| regs.is_ready(p));
            iq.push(entry(2 * round + 1, [None, None]), |p| regs.is_ready(p));
            assert!(iq.is_full());
            let mut v = Vec::new();
            iq.collect_ready(0, &mut v);
            assert_eq!(v.len(), 2);
            for (_, slot, _) in v {
                iq.remove(slot);
            }
            assert_eq!(iq.len(), 0);
        }
    }

    #[test]
    fn capacity() {
        let regs = PhysRegFile::new(40, 32);
        let mut iq = IssueQueue::new(1, 40);
        assert!(!iq.is_full());
        iq.push(entry(0, [None, None]), |p| regs.is_ready(p));
        assert!(iq.is_full());
    }

    #[test]
    fn push_predicate_overrides_readiness_and_wakeup_reports_woken_entries() {
        // A globally-ready register can be invisible to a remote cluster:
        // the predicate, not the register file, decides pending counts.
        let mut regs = PhysRegFile::new(40, 32);
        let p = regs.alloc().unwrap();
        regs.set_ready(p);
        let mut iq = IssueQueue::new(4, 40);
        iq.push(entry(0, [Some(p), None]), |_| false);
        iq.push(entry(1, [Some(p), None]), |_| false);
        iq.push(entry(2, [None, None]), |_| false);
        assert_eq!(iq.ready_count(), 1, "no-source entries are always ready");
        assert_eq!(iq.wakeup(p), 2, "two entries waited on the register");
        assert_eq!(iq.ready_count(), 3);
        assert_eq!(iq.wakeup(p), 0, "waiter bits are consumed by the wakeup");
    }
}
