//! A small O(1) LRU cache for query responses, plus the stable
//! bag-of-words hash used as its key.
//!
//! The cache is an intrusive doubly-linked list threaded through a slot
//! vector, with a `HashMap` from key to slot index. `get` and `insert`
//! are both O(1); eviction removes the least-recently-used entry.
//!
//! Keys must already incorporate everything that affects the answer. The
//! engine hashes the sparse BoW (word ids and the *bit patterns* of the
//! counts — no float rounding ambiguity) together with the snapshot
//! generation, so a snapshot swap implicitly invalidates every cached
//! entry even before the explicit [`LruCache::clear`].

use std::collections::HashMap;

use ct_corpus::SparseDoc;
use ct_tensor::codec::Fnv1a;

const NIL: usize = usize::MAX;

struct Slot<V> {
    key: u64,
    value: V,
    prev: usize,
    next: usize,
}

/// Fixed-capacity least-recently-used cache keyed by `u64`.
pub struct LruCache<V> {
    map: HashMap<u64, usize>,
    slots: Vec<Slot<V>>,
    /// Most recently used slot, or `NIL` when empty.
    head: usize,
    /// Least recently used slot, or `NIL` when empty.
    tail: usize,
    capacity: usize,
}

impl<V> LruCache<V> {
    /// Create a cache holding at most `capacity` entries. A capacity of 0
    /// is allowed and produces a cache that never stores anything.
    pub fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::with_capacity(capacity.min(1 << 20)),
            slots: Vec::with_capacity(capacity.min(1 << 20)),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Look up `key`, promoting it to most-recently-used on a hit.
    pub fn get(&mut self, key: u64) -> Option<&V> {
        let &slot = self.map.get(&key)?;
        self.detach(slot);
        self.attach_front(slot);
        Some(&self.slots[slot].value)
    }

    /// Insert `key → value`, evicting the least-recently-used entry if the
    /// cache is full. Replaces the old value if `key` is already present.
    pub fn insert(&mut self, key: u64, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&slot) = self.map.get(&key) {
            self.slots[slot].value = value;
            self.detach(slot);
            self.attach_front(slot);
            return;
        }
        let slot = if self.map.len() == self.capacity {
            // Recycle the LRU slot in place.
            let victim = self.tail;
            self.detach(victim);
            self.map.remove(&self.slots[victim].key);
            self.slots[victim].key = key;
            self.slots[victim].value = value;
            victim
        } else {
            self.slots.push(Slot {
                key,
                value,
                prev: NIL,
                next: NIL,
            });
            self.slots.len() - 1
        };
        self.map.insert(key, slot);
        self.attach_front(slot);
    }

    /// Drop every entry (used on snapshot swap).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn detach(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        self.slots[slot].prev = NIL;
        self.slots[slot].next = NIL;
    }

    fn attach_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

/// Stable 64-bit key for a query: FNV-1a over the snapshot generation,
/// the document's word ids, and the bit patterns of its counts.
///
/// Two queries collide only if they carry the identical sparse BoW against
/// the same snapshot generation — exactly the condition under which the
/// cached response is valid for both.
pub fn bow_key(generation: u64, doc: &SparseDoc) -> u64 {
    let mut h = Fnv1a::default();
    h.update(&generation.to_le_bytes());
    for (id, count) in doc.iter() {
        h.update(&id.to_le_bytes());
        h.update(&count.to_bits().to_le_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_evict_order() {
        let mut c: LruCache<u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.get(1), Some(&10)); // 1 now MRU, 2 is LRU
        c.insert(3, 30); // evicts 2
        assert_eq!(c.get(2), None);
        assert_eq!(c.get(1), Some(&10));
        assert_eq!(c.get(3), Some(&30));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn replace_existing_key() {
        let mut c: LruCache<u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(1, 11);
        assert_eq!(c.get(1), Some(&11));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let mut c: LruCache<u32> = LruCache::new(0);
        c.insert(1, 10);
        assert_eq!(c.get(1), None);
        assert!(c.is_empty());
    }

    #[test]
    fn clear_empties() {
        let mut c: LruCache<u32> = LruCache::new(4);
        for k in 0..4 {
            c.insert(k, k as u32);
        }
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.get(0), None);
        c.insert(9, 9);
        assert_eq!(c.get(9), Some(&9));
    }

    #[test]
    fn single_entry_promote_and_evict() {
        let mut c: LruCache<u32> = LruCache::new(1);
        c.insert(1, 10);
        assert_eq!(c.get(1), Some(&10));
        c.insert(2, 20);
        assert_eq!(c.get(1), None);
        assert_eq!(c.get(2), Some(&20));
    }

    #[test]
    fn bow_key_sensitive_to_ids_counts_generation() {
        let a = SparseDoc::from_tokens(&[1, 2, 2, 5]);
        let b = SparseDoc::from_tokens(&[1, 2, 5]); // different count on 2
        let c = SparseDoc::from_tokens(&[1, 3, 3, 5]); // different id
        let ka = bow_key(0, &a);
        assert_ne!(ka, bow_key(0, &b));
        assert_ne!(ka, bow_key(0, &c));
        assert_ne!(ka, bow_key(1, &a));
        assert_eq!(ka, bow_key(0, &SparseDoc::from_tokens(&[5, 2, 1, 2])));
    }
}
