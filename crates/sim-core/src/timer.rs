//! Generation-checked timer handles for lazy cancellation.
//!
//! Protocol layers schedule timers as plain events; ns-2 (and this
//! simulator) never removes a cancelled timer from the event queue — the
//! event fires anyway and must be recognised as stale and dropped. Before
//! this module each layer improvised that recognition (an `Option` compare
//! here, a linear scan there). [`TimerSlab`] centralises it: scheduling
//! returns a [`TimerHandle`] carrying a slot and a generation, cancelling or
//! firing the handle bumps the slot's generation, and a popped timer event
//! is live iff its handle's generation still matches — an O(1) tombstone
//! check the driver loop performs at its dispatch choke point.
//!
//! Slots are recycled through a free list, but a `(slot, generation)` pair
//! is never reused: every schedule bumps the slot's generation, so a stale
//! handle can never collide with a later timer.

/// A generation-checked reference to one scheduled timer.
///
/// Obtained from [`TimerSlab::schedule`]; embedded (inside a layer's timer
/// id) in the event that will fire it. The handle stays valid until the
/// timer is cancelled or fired, after which [`TimerSlab::is_live`] returns
/// `false` forever.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TimerHandle {
    slot: u32,
    generation: u64,
}

/// The slab tracking which timer handles are still live.
///
/// Deterministic by construction: slot assignment depends only on the
/// sequence of schedule/cancel/fire calls, never on addresses or hashing.
#[derive(Clone, Debug, Default)]
pub struct TimerSlab {
    /// Current generation per slot. Odd while the slot's timer is live,
    /// even while the slot is free.
    generations: Vec<u64>,
    /// Free slots, reused LIFO.
    free: Vec<u32>,
    cancelled: u64,
}

impl TimerSlab {
    /// Creates an empty slab.
    pub fn new() -> Self {
        TimerSlab::default()
    }

    /// Registers a new live timer and returns its handle.
    #[inline]
    pub fn schedule(&mut self) -> TimerHandle {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "one slot per live timer, far below 2^32"
        )]
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.generations.push(0);
                (self.generations.len() - 1) as u32
            }
        };
        let slot_gen = &mut self.generations[slot as usize];
        *slot_gen += 1; // even (free) -> odd (live)
        TimerHandle { slot, generation: *slot_gen }
    }

    /// Whether `handle` refers to a timer that has been neither cancelled
    /// nor fired.
    pub fn is_live(&self, handle: TimerHandle) -> bool {
        self.generations.get(handle.slot as usize) == Some(&handle.generation)
    }

    /// Tombstones `handle` without firing it. Returns whether the handle
    /// was live (idempotent: cancelling twice is a no-op).
    #[inline]
    pub fn cancel(&mut self, handle: TimerHandle) -> bool {
        let retired = self.retire(handle);
        if retired {
            self.cancelled += 1;
        }
        retired
    }

    /// Consumes `handle` as fired. Returns whether the handle was live;
    /// firing a cancelled handle is a no-op (and how stale pops surface).
    #[inline]
    pub fn fire(&mut self, handle: TimerHandle) -> bool {
        self.retire(handle)
    }

    fn retire(&mut self, handle: TimerHandle) -> bool {
        match self.generations.get_mut(handle.slot as usize) {
            Some(slot_gen) if *slot_gen == handle.generation => {
                *slot_gen += 1; // odd (live) -> even (free)
                self.free.push(handle.slot);
                true
            }
            _ => false,
        }
    }

    /// Number of currently live timers.
    pub fn live(&self) -> usize {
        self.generations.len() - self.free.len()
    }

    /// Total timers cancelled before firing (the lazy tombstones a driver
    /// will later discard as stale pops).
    pub fn cancelled_count(&self) -> u64 {
        self.cancelled
    }
}

crate::snap_record! { TimerHandle { slot, generation } }

crate::snap_record! {
    TimerSlab { generations, free, cancelled }
    // A free-list entry must point at an even-generation (free) slot, or a
    // corrupted snapshot could hand out a slot twice.
    check |s| s.free.iter().all(|&f| s.generations.get(f as usize).is_some_and(|g| g % 2 == 0))
        => "timer free-list slot";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_fire_lifecycle() {
        let mut slab = TimerSlab::new();
        let h = slab.schedule();
        assert!(slab.is_live(h));
        assert_eq!(slab.live(), 1);
        assert!(slab.fire(h));
        assert!(!slab.is_live(h));
        assert!(!slab.fire(h), "second fire is stale");
        assert_eq!(slab.live(), 0);
        assert_eq!(slab.cancelled_count(), 0);
    }

    #[test]
    fn cancel_tombstones_and_counts() {
        let mut slab = TimerSlab::new();
        let h = slab.schedule();
        assert!(slab.cancel(h));
        assert!(!slab.is_live(h));
        assert!(!slab.cancel(h), "cancel is idempotent");
        assert!(!slab.fire(h), "a cancelled timer pops stale");
        assert_eq!(slab.cancelled_count(), 1);
    }

    #[test]
    fn recycled_slots_never_resurrect_old_handles() {
        let mut slab = TimerSlab::new();
        let a = slab.schedule();
        slab.cancel(a);
        let b = slab.schedule(); // reuses slot 0 at a later generation
        assert_ne!(a, b);
        assert!(!slab.is_live(a), "old handle must stay dead");
        assert!(slab.is_live(b));
        assert!(slab.fire(b));
        assert!(!slab.is_live(b));
    }

    /// Builds a slab whose only slot already sits at `generation` — the
    /// state a very long run reaches after ~`generation` schedule/retire
    /// cycles — without paying for the cycles.
    fn slab_at_generation(generation: u64) -> TimerSlab {
        assert!(generation.is_multiple_of(2), "a free slot has an even generation");
        TimerSlab { generations: vec![generation], free: vec![0], cancelled: 0 }
    }

    #[test]
    fn generation_past_u32_max_never_aliases() {
        // Generations are u64 precisely so that a slot recycled more than
        // u32::MAX times cannot wrap back onto a stale handle's generation.
        // Start a slot just below the u32 boundary and drive it across it.
        let mut slab = slab_at_generation(u64::from(u32::MAX) - 1);
        let old = slab.schedule(); // generation u32::MAX (odd, live)
        assert!(slab.is_live(old));
        assert!(slab.cancel(old));
        let next = slab.schedule(); // generation u32::MAX + 1 wraps in u32, not u64
        assert!(!slab.is_live(old), "stale handle revalidated across u32::MAX");
        assert!(slab.is_live(next));
        assert_ne!(old, next);
        assert!(!slab.fire(old), "stale fire must stay a no-op");
        assert!(slab.fire(next));
    }

    #[test]
    fn many_interleaved_timers() {
        let mut slab = TimerSlab::new();
        let mut live = Vec::new();
        for round in 0..100u64 {
            let h = slab.schedule();
            live.push(h);
            if round % 3 == 0 {
                let victim = live.remove(usize::try_from(round / 3).unwrap() % live.len());
                assert!(slab.cancel(victim));
            }
        }
        assert_eq!(slab.live(), live.len());
        for h in &live {
            assert!(slab.is_live(*h));
            assert!(slab.fire(*h));
        }
        assert_eq!(slab.live(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Drive one slot through schedule/retire cycles that straddle
        /// u32::MAX-adjacent generation counts (seeded high so the boundary
        /// is actually crossed): no handle retired along the way may ever
        /// revalidate, no matter how the cycle count lands relative to the
        /// wrap point. Would fail if generations were compared modulo 2^32.
        #[test]
        fn stale_handles_stay_dead_across_u32_boundary(
            offset in 0u64..8,
            cycles in 1usize..24,
            cancel_mask in 0u32..(1 << 24),
        ) {
            let start = (u64::from(u32::MAX) - 8 + offset) & !1; // even: free slot
            let mut slab = TimerSlab { generations: vec![start], free: vec![0], cancelled: 0 };
            let mut retired: Vec<TimerHandle> = Vec::new();
            for round in 0..cycles {
                let h = slab.schedule();
                prop_assert!(slab.is_live(h));
                for old in &retired {
                    prop_assert!(!slab.is_live(*old),
                        "handle {old:?} revalidated at round {round}");
                    prop_assert_ne!(*old, h, "recycled slot aliased a stale handle");
                }
                if cancel_mask & (1 << round) != 0 {
                    prop_assert!(slab.cancel(h));
                } else {
                    prop_assert!(slab.fire(h));
                }
                retired.push(h);
                for old in &retired {
                    prop_assert!(!slab.fire(*old), "stale fire succeeded");
                }
            }
            prop_assert_eq!(slab.live(), 0);
        }
    }
}
