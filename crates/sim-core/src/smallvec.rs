//! An inline-first vector for hot-path output batches.
//!
//! The MAC and AODV layers return a handful of outputs (usually 0–3) from
//! every event-handler call; allocating a `Vec` for each was measurable on
//! the driver loop. [`SmallVec`] keeps up to `N` elements inline on the
//! stack and only spills to a heap `Vec` beyond that.
//!
//! The workspace forbids `unsafe`, so the inline buffer is `[Option<T>; N]`
//! rather than uninitialised memory. That rules out `Deref<Target = [T]>`
//! (inline storage is not contiguous `T`s); iteration goes through
//! [`SmallVec::iter`], the owning `IntoIterator`, or [`SmallVec::drain`] —
//! which empties a batch its caller owns and goes on using, so no batch is
//! moved to be consumed.

use std::fmt;

/// A vector storing up to `N` elements inline before spilling to the heap.
#[derive(Clone)]
pub struct SmallVec<T, const N: usize> {
    repr: Repr<T, N>,
}

#[derive(Clone)]
enum Repr<T, const N: usize> {
    Inline { buf: [Option<T>; N], len: usize },
    Heap(Vec<T>),
}

impl<T, const N: usize> SmallVec<T, N> {
    /// Creates an empty vector (no allocation).
    #[inline]
    pub fn new() -> Self {
        SmallVec { repr: Repr::Inline { buf: std::array::from_fn(|_| None), len: 0 } }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len,
            Repr::Heap(v) => v.len(),
        }
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the elements have spilled to the heap.
    pub fn spilled(&self) -> bool {
        matches!(self.repr, Repr::Heap(_))
    }

    /// Appends an element, spilling to the heap on overflow of the inline
    /// buffer.
    #[inline]
    pub fn push(&mut self, value: T) {
        match &mut self.repr {
            Repr::Inline { buf, len } => {
                if *len < N {
                    buf[*len] = Some(value);
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(N * 2);
                    v.extend(buf.iter_mut().filter_map(Option::take));
                    v.push(value);
                    self.repr = Repr::Heap(v);
                }
            }
            Repr::Heap(v) => v.push(value),
        }
    }

    /// The element at `index`, if in bounds.
    pub fn get(&self, index: usize) -> Option<&T> {
        match &self.repr {
            Repr::Inline { buf, len } => {
                if index < *len {
                    buf[index].as_ref()
                } else {
                    None
                }
            }
            Repr::Heap(v) => v.get(index),
        }
    }

    /// Iterates over the elements in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let (inline, heap): (&[Option<T>], &[T]) = match &self.repr {
            Repr::Inline { buf, len } => (&buf[..*len], &[]),
            Repr::Heap(v) => (&[], v.as_slice()),
        };
        inline.iter().filter_map(Option::as_ref).chain(heap.iter())
    }

    /// Takes the elements out in insertion order. The vector is empty and
    /// reusable as soon as this returns, whether or not the iterator is run
    /// to its end: dropping it drops what it has not yielded. A spilled
    /// vector stays spilled and keeps its capacity.
    #[inline]
    pub fn drain(&mut self) -> Drain<'_, T, N> {
        match &mut self.repr {
            Repr::Inline { buf, len } => {
                let full = std::mem::take(len);
                Drain::Inline(buf[..full].iter_mut())
            }
            Repr::Heap(v) => Drain::Heap(v.drain(..)),
        }
    }
}

impl<T, const N: usize> Default for SmallVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const N: usize> Extend<T> for SmallVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for value in iter {
            self.push(value);
        }
    }
}

impl<T, const N: usize> FromIterator<T> for SmallVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = SmallVec::new();
        out.extend(iter);
        out
    }
}

impl<T, const N: usize> From<Vec<T>> for SmallVec<T, N> {
    fn from(v: Vec<T>) -> Self {
        SmallVec { repr: Repr::Heap(v) }
    }
}

impl<T, const N: usize> IntoIterator for SmallVec<T, N> {
    type Item = T;
    type IntoIter = IntoIter<T, N>;

    fn into_iter(self) -> IntoIter<T, N> {
        match self.repr {
            Repr::Inline { buf, len } => IntoIter::Inline { iter: buf.into_iter(), remaining: len },
            Repr::Heap(v) => IntoIter::Heap(v.into_iter()),
        }
    }
}

/// Owning iterator over a [`SmallVec`]'s elements.
#[derive(Debug)]
pub enum IntoIter<T, const N: usize> {
    /// Draining the inline buffer.
    Inline {
        /// Underlying array iterator (trailing `None`s past `remaining`).
        iter: std::array::IntoIter<Option<T>, N>,
        /// Elements left to yield.
        remaining: usize,
    },
    /// Draining the spilled heap vector.
    Heap(std::vec::IntoIter<T>),
}

impl<T, const N: usize> Iterator for IntoIter<T, N> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match self {
            IntoIter::Inline { iter, remaining } => {
                if *remaining == 0 {
                    return None;
                }
                *remaining -= 1;
                iter.next().flatten()
            }
            IntoIter::Heap(iter) => iter.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match self {
            IntoIter::Inline { remaining, .. } => *remaining,
            IntoIter::Heap(iter) => iter.len(),
        };
        (n, Some(n))
    }
}

/// Draining iterator over a [`SmallVec`]'s elements ([`SmallVec::drain`]).
#[derive(Debug)]
pub enum Drain<'a, T, const N: usize> {
    /// The inline slots that held an element when the drain began.
    Inline(std::slice::IterMut<'a, Option<T>>),
    /// The spilled heap vector's own drain: linear, capacity kept.
    Heap(std::vec::Drain<'a, T>),
}

impl<T, const N: usize> Iterator for Drain<'_, T, N> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match self {
            Drain::Inline(slots) => slots.next().and_then(Option::take),
            Drain::Heap(drain) => drain.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Drain::Inline(slots) => slots.size_hint(),
            Drain::Heap(drain) => drain.size_hint(),
        }
    }
}

impl<T, const N: usize> Drop for Drain<'_, T, N> {
    fn drop(&mut self) {
        // Slots past `len` hold `None`: finish the job an early exit left.
        if let Drain::Inline(slots) = self {
            for slot in slots {
                *slot = None;
            }
        }
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for SmallVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for SmallVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl<T: Eq, const N: usize> Eq for SmallVec<T, N> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_inline_up_to_capacity() {
        let mut v: SmallVec<u32, 4> = SmallVec::new();
        assert!(v.is_empty());
        for i in 0..4 {
            v.push(i);
        }
        assert_eq!(v.len(), 4);
        assert!(!v.spilled());
        assert_eq!(v.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn spills_preserving_order() {
        let mut v: SmallVec<u32, 4> = SmallVec::new();
        for i in 0..10 {
            v.push(i);
        }
        assert!(v.spilled());
        assert_eq!(v.len(), 10);
        assert_eq!(v.into_iter().collect::<Vec<_>>(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn into_iter_matches_iter() {
        for count in [0usize, 3, 4, 5, 9] {
            let mut v: SmallVec<usize, 4> = SmallVec::new();
            v.extend(0..count);
            let borrowed: Vec<usize> = v.iter().copied().collect();
            let hint = v.clone().into_iter().size_hint();
            assert_eq!(hint, (count, Some(count)));
            let owned: Vec<usize> = v.into_iter().collect();
            assert_eq!(borrowed, owned);
            assert_eq!(owned, (0..count).collect::<Vec<_>>());
        }
    }

    /// `count` elements in, all of them out in order, an empty vector left.
    fn drained(count: usize) -> SmallVec<usize, 4> {
        let mut v: SmallVec<usize, 4> = (0..count).collect();
        let mut drain = v.drain();
        assert_eq!(drain.size_hint(), (count, Some(count)));
        assert_eq!(drain.by_ref().collect::<Vec<_>>(), (0..count).collect::<Vec<_>>());
        assert_eq!(drain.next(), None);
        drop(drain);
        assert!(v.is_empty());
        assert_eq!(v.iter().count(), 0);
        v
    }

    #[test]
    fn drain_yields_everything_in_order_and_leaves_the_vector_empty() {
        // Empty, part-filled, inline-full, just spilled, well spilled.
        for count in [0, 3, 4, 5, 9] {
            let v = drained(count);
            assert_eq!(v.spilled(), count > 4, "a drain does not change the representation");
        }
    }

    #[test]
    fn a_drain_dropped_half_way_still_empties_the_vector() {
        use std::rc::Rc;
        for count in [4usize, 9] {
            let token = Rc::new(());
            let mut v: SmallVec<Rc<()>, 4> = (0..count).map(|_| Rc::clone(&token)).collect();
            assert_eq!(Rc::strong_count(&token), count + 1);
            let first = v.drain().next();
            assert!(first.is_some());
            // The rest went with the iterator, not into hiding past `len`.
            assert_eq!(Rc::strong_count(&token), 2);
            assert!(v.is_empty());
            assert_eq!(v.get(0), None);
        }
    }

    #[test]
    fn a_drained_vector_is_reusable() {
        for count in [2usize, 4, 9] {
            let mut v = drained(count);
            // Early drop, then refill past the inline capacity: nothing the
            // first batch held comes back.
            v.extend(10..13);
            assert_eq!(v.drain().next(), Some(10));
            v.extend(20..26);
            assert_eq!(v.len(), 6);
            assert_eq!(v.drain().collect::<Vec<_>>(), (20..26).collect::<Vec<_>>());
            assert!(v.is_empty());
        }
    }

    #[test]
    fn get_and_eq() {
        let mut a: SmallVec<u8, 2> = SmallVec::new();
        a.extend([1, 2, 3]);
        let b: SmallVec<u8, 2> = vec![1, 2, 3].into();
        assert_eq!(a, b);
        assert_eq!(a.get(0), Some(&1));
        assert_eq!(a.get(2), Some(&3));
        assert_eq!(a.get(3), None);
        let c: SmallVec<u8, 2> = vec![1, 2].into();
        assert_ne!(a, c);
    }

    #[test]
    fn from_iterator_collects() {
        let v: SmallVec<u32, 4> = (0..3).collect();
        assert!(!v.spilled());
        assert_eq!(v.len(), 3);
    }
}
