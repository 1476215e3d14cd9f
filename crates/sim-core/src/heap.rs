//! The simulator's one priority queue: a 4-ary indexed min-heap over
//! packed integer keys.
//!
//! Its users order entries by a 64-bit primary (virtual time, a finish
//! tag's bits) and break ties by a unique arrival `seq`. Packed as
//! `(primary << 64) | seq`, a comparison is one integer compare and the
//! order is total, so the pop order does not depend on the heap's shape.
//! A position table per id (a thread id, a flow slot) lets any entry,
//! not only the least, change its key or leave in O(log n).

const ARITY: usize = 4;

/// `pos` of an id without an entry.
const ABSENT: u32 = u32::MAX;

/// Min-heap of `(key, id)` entries, at most one per id.
#[derive(Debug, Default)]
pub struct IndexedHeap {
    /// Keys in heap order; `ids[i]` names the entry of `keys[i]`.
    keys: Vec<u128>,
    ids: Vec<u32>,
    /// Heap index of each id's entry, or [`ABSENT`].
    pos: Vec<u32>,
}

// The methods are `#[inline]` because the users are in other crates or
// generic over the simulated state: a peek that is a call made the
// one-thread `advance` probe about 20 % slower.
impl IndexedHeap {
    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Is the heap empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The key of `id`'s entry, if it has one.
    #[inline]
    pub fn key(&self, id: usize) -> Option<u128> {
        let i = *self.pos.get(id).filter(|&&i| i != ABSENT)?;
        Some(self.keys[i as usize])
    }

    /// The least entry as `(key, id)`.
    #[inline]
    pub fn peek(&self) -> Option<(u128, usize)> {
        Some((*self.keys.first()?, self.ids[0] as usize))
    }

    /// Add an entry for `id`, which must not have one.
    #[inline]
    pub fn push(&mut self, id: usize, key: u128) {
        if id >= self.pos.len() {
            assert!(id < ABSENT as usize, "heap ids must fit 32 bits");
            self.pos.resize(id + 1, ABSENT);
        }
        debug_assert_eq!(self.pos[id], ABSENT, "id {id} already has an entry");
        self.keys.push(key);
        self.ids.push(id as u32);
        self.sift_up(self.keys.len() - 1, key, id as u32);
    }

    /// Give `id`'s entry, which must exist, a new key (earlier or later).
    #[inline]
    pub fn update(&mut self, id: usize, key: u128) {
        debug_assert_ne!(self.pos[id], ABSENT, "id {id} has no entry");
        self.settle(self.pos[id] as usize, key, id as u32);
    }

    /// Remove `id`'s entry, returning its key.
    #[inline]
    pub fn remove(&mut self, id: usize) -> Option<u128> {
        let i = *self.pos.get(id).filter(|&&i| i != ABSENT)?;
        Some(self.take(i as usize))
    }

    /// Remove and return the least entry as `(key, id)`.
    #[inline]
    pub fn pop(&mut self) -> Option<(u128, usize)> {
        let id = *self.ids.first()? as usize;
        Some((self.take(0), id))
    }

    /// Remove the entry at heap index `i`, returning its key.
    #[inline]
    fn take(&mut self, i: usize) -> u128 {
        let key = self.keys[i];
        self.pos[self.ids[i] as usize] = ABSENT;
        let last = self.keys.pop().expect("an entry exists");
        let last_id = self.ids.pop().expect("an entry exists");
        if i < self.keys.len() {
            self.settle(i, last, last_id);
        }
        key
    }

    fn place(&mut self, i: usize, key: u128, id: u32) {
        self.keys[i] = key;
        self.ids[i] = id;
        self.pos[id as usize] = i as u32;
    }

    /// Settle `(key, id)` into the hole `i`, moving up or down.
    fn settle(&mut self, i: usize, key: u128, id: u32) {
        if i > 0 && key < self.keys[(i - 1) / ARITY] {
            self.sift_up(i, key, id);
        } else {
            self.sift_down(i, key, id);
        }
    }

    fn sift_up(&mut self, mut i: usize, key: u128, id: u32) {
        while i > 0 {
            let p = (i - 1) / ARITY;
            if key >= self.keys[p] {
                break;
            }
            self.place(i, self.keys[p], self.ids[p]);
            i = p;
        }
        self.place(i, key, id);
    }

    /// Moves the hole down past every lesser least child. A full group's
    /// least child is found without branching on keys.
    fn sift_down(&mut self, mut i: usize, key: u128, id: u32) {
        let n = self.keys.len();
        loop {
            let first = ARITY * i + 1;
            let least = if first + ARITY <= n {
                first + least_of_four(&self.keys[first..first + ARITY])
            } else if first < n {
                (first + 1..n).fold(first, |m, c| select(self.keys[c] < self.keys[m], c, m))
            } else {
                break;
            };
            if self.keys[least] >= key {
                break;
            }
            self.place(i, self.keys[least], self.ids[least]);
            i = least;
        }
        self.place(i, key, id);
    }
}

/// `if c { a } else { b }` as arithmetic.
fn select(c: bool, a: usize, b: usize) -> usize {
    b ^ ((a ^ b) & (c as usize).wrapping_neg())
}

/// Index of the least of four keys, the first on ties: a two-round
/// tournament of selects.
fn least_of_four(k: &[u128]) -> usize {
    let a = (k[1] < k[0]) as usize;
    let b = 2 + (k[3] < k[2]) as usize;
    select(k[b] < k[a], b, a)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    impl IndexedHeap {
        /// Every parent at most its children; the position table names
        /// each entry's index and nothing else.
        fn check(&self) {
            assert_eq!(self.keys.len(), self.ids.len());
            for i in 1..self.keys.len() {
                assert!(
                    self.keys[(i - 1) / ARITY] <= self.keys[i],
                    "heap order at {i}"
                );
            }
            for (i, &id) in self.ids.iter().enumerate() {
                assert_eq!(self.pos[id as usize], i as u32, "position of id {id}");
            }
            let present = self.pos.iter().filter(|&&i| i != ABSENT).count();
            assert_eq!(present, self.keys.len(), "stale positions");
        }
    }

    #[test]
    fn least_of_four_takes_the_first_of_equals() {
        assert_eq!(least_of_four(&[3, 1, 2, 1]), 1);
        assert_eq!(least_of_four(&[1, 1, 1, 1]), 0);
        assert_eq!(least_of_four(&[4, 3, 2, 0]), 3);
        assert_eq!(least_of_four(&[5, 5, 4, 4]), 2);
    }

    #[test]
    fn pops_in_key_order_and_forgets_positions() {
        let mut h = IndexedHeap::default();
        for (id, key) in [(3, 30), (0, 10), (7, 70), (1, 5), (2, 20), (9, 1)] {
            h.push(id, key);
        }
        h.update(7, 2);
        assert_eq!(h.remove(0), Some(10));
        assert_eq!(h.remove(0), None);
        let order: Vec<_> = std::iter::from_fn(|| h.pop()).collect();
        assert_eq!(order, [(1, 9), (2, 7), (5, 1), (20, 2), (30, 3)]);
        assert_eq!((h.key(3), h.remove(42), h.peek()), (None, None, None));
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Push,
        Update,
        Remove,
        Pop,
    }

    fn ops() -> impl Strategy<Value = Vec<(Op, usize, u64, u64)>> {
        let op = prop_oneof![
            Just(Op::Push),
            Just(Op::Update),
            Just(Op::Remove),
            Just(Op::Pop),
        ];
        // Few ids and few key halves: ids are reused and keys collide.
        proptest::collection::vec((op, 0usize..20, 0u64..6, 0u64..3), 1..300)
    }

    proptest! {
        #[test]
        fn matches_an_ordered_set(ops in ops()) {
            let mut heap = IndexedHeap::default();
            let mut set: BTreeSet<(u128, u32)> = BTreeSet::new();
            let mut keys: Vec<Option<u128>> = vec![None; 20];
            for (op, id, hi, lo) in ops {
                let key = u128::from(hi) << 64 | u128::from(lo);
                match op {
                    Op::Push if keys[id].is_none() => {
                        heap.push(id, key);
                        set.insert((key, id as u32));
                        keys[id] = Some(key);
                    }
                    Op::Push | Op::Update => {
                        if let Some(old) = keys[id] {
                            heap.update(id, key);
                            set.remove(&(old, id as u32));
                            set.insert((key, id as u32));
                            keys[id] = Some(key);
                        }
                    }
                    Op::Remove => {
                        prop_assert_eq!(heap.remove(id), keys[id].take());
                        set.retain(|&(_, i)| i != id as u32);
                    }
                    Op::Pop => match heap.pop() {
                        // Equal keys may leave in any order: the popped
                        // entry must be present and carry the least key.
                        Some((key, id)) => {
                            prop_assert_eq!(Some(key), set.first().map(|e| e.0));
                            prop_assert!(set.remove(&(key, id as u32)));
                            keys[id] = None;
                        }
                        None => prop_assert!(set.is_empty()),
                    },
                }
                heap.check();
                prop_assert_eq!(heap.len(), set.len());
                prop_assert_eq!(heap.peek().map(|e| e.0), set.first().map(|e| e.0));
                for (id, key) in keys.iter().enumerate() {
                    prop_assert_eq!(heap.key(id), *key);
                }
            }
        }
    }
}
