//! A generic O(1) LRU map, bounded by entry count: the recency order
//! under the shard's [`ContentCache`](crate::cache::ContentCache) and
//! its open-file table ([`OpenFileTable`](crate::fsjob::OpenFileTable)).
//! The modelled server's caches in `flash-core` are built on it too.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

const NIL: u32 = u32::MAX;

struct Node<K, V> {
    key: K,
    // `None` only while the slot sits on the free list.
    value: Option<V>,
    prev: u32,
    next: u32,
}

/// A generic LRU cache with O(1) get/insert/evict, bounded by entry count.
pub struct LruCache<K: Eq + Hash + Clone, V> {
    map: HashMap<K, u32>,
    slab: Vec<Node<K, V>>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache bounded to `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero; use `Option<LruCache>` to model a
    /// disabled cache.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "zero-capacity LruCache; use None instead");
        LruCache {
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Entry capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up `key`, promoting it to most-recently-used on a hit.
    ///
    /// Accepts any borrowed form of the key (`Borrow<Q>`), so a
    /// `String`-keyed cache is queried with a plain `&str` — no
    /// per-lookup key allocation on the hot path.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let idx = *self.map.get(key)?;
        self.unlink(idx);
        self.push_front(idx);
        self.slab[idx as usize].value.as_ref()
    }

    /// Looks up `key` mutably, promoting it to most-recently-used on a
    /// hit — for callers that keep per-entry bookkeeping (validation
    /// stamps) alongside the cached value.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let idx = *self.map.get(key)?;
        self.unlink(idx);
        self.push_front(idx);
        self.slab[idx as usize].value.as_mut()
    }

    /// Looks up without promoting (for tests/introspection).
    pub fn peek<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let idx = *self.map.get(key)?;
        self.slab[idx as usize].value.as_ref()
    }

    /// Inserts `key → value`. Returns the entry this displaced — either
    /// the previous value of the same key, or the evicted LRU entry when
    /// the cache was full — so callers can release its resources (the
    /// content cache adjusts its byte accounting; the model unmaps
    /// evicted chunks).
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&idx) = self.map.get(&key) {
            let old = self.slab[idx as usize].value.replace(value);
            self.unlink(idx);
            self.push_front(idx);
            return old.map(|v| (key, v));
        }
        let evicted = if self.map.len() >= self.capacity {
            self.pop_lru()
        } else {
            None
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = Node {
                    key: key.clone(),
                    value: Some(value),
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                self.slab.push(Node {
                    key: key.clone(),
                    value: Some(value),
                    prev: NIL,
                    next: NIL,
                });
                (self.slab.len() - 1) as u32
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        evicted
    }

    /// Removes `key`, returning its value. O(1), any recency position
    /// — the targeted-invalidation counterpart of [`Self::pop_lru`]
    /// (the content cache drops entries whose backing file changed on
    /// disk).
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let idx = self.map.remove(key)?;
        self.unlink(idx);
        self.free.push(idx);
        self.slab[idx as usize].value.take()
    }

    /// Every value, in no particular order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slab.iter().filter_map(|node| node.value.as_ref())
    }

    /// The least-recently-used entry — the one [`Self::pop_lru`] would
    /// take — without removing or promoting it.
    pub fn peek_lru(&self) -> Option<(&K, &V)> {
        let node = self.slab.get(self.tail as usize)?;
        Some((&node.key, node.value.as_ref()?))
    }

    /// Removes and returns the least-recently-used entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        let idx = self.tail;
        if idx == NIL {
            return None;
        }
        self.unlink(idx);
        self.free.push(idx);
        let node = &mut self.slab[idx as usize];
        let key = node.key.clone();
        let value = node.value.take().expect("live node holds a value");
        self.map.remove(&key);
        Some((key, value))
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let n = &self.slab[idx as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.slab[prev as usize].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.slab[next as usize].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        let n = &mut self.slab[idx as usize];
        n.prev = NIL;
        n.next = NIL;
    }

    fn push_front(&mut self, idx: u32) {
        let old = self.head;
        {
            let n = &mut self.slab[idx as usize];
            n.prev = NIL;
            n.next = old;
        }
        if old != NIL {
            self.slab[old as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_get_promotes() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1));
        let evicted = c.insert("c", 3);
        assert_eq!(evicted, Some(("b", 2)), "b was LRU after touching a");
        assert_eq!(c.len(), 2);
        assert!(c.peek(&"a").is_some());
    }

    #[test]
    fn lru_insert_existing_updates_value_and_returns_old() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        assert_eq!(c.insert("a", 9), Some(("a", 1)));
        assert_eq!(c.get(&"a"), Some(&9));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_pop_order() {
        let mut c = LruCache::new(3);
        c.insert(1, ());
        c.insert(2, ());
        c.insert(3, ());
        c.get(&1);
        assert_eq!(c.peek_lru(), Some((&2, &())));
        assert_eq!(c.pop_lru().map(|(k, _)| k), Some(2));
        assert_eq!(c.pop_lru().map(|(k, _)| k), Some(3));
        assert_eq!(c.pop_lru().map(|(k, _)| k), Some(1));
        assert_eq!(c.pop_lru(), None);
        assert_eq!(c.peek_lru(), None);
        assert!(c.is_empty());
    }

    #[test]
    fn lru_slot_reuse_after_eviction() {
        let mut c = LruCache::new(2);
        for i in 0..100u32 {
            c.insert(i, i * 10);
            assert!(c.len() <= 2);
        }
        assert_eq!(c.get(&99), Some(&990));
        assert_eq!(c.get(&98), Some(&980));
        assert_eq!(c.get(&97), None);
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn lru_zero_capacity_panics() {
        let _ = LruCache::<u32, ()>::new(0);
    }

    #[test]
    fn lru_values_drop_exactly_once() {
        use std::rc::Rc;
        let v = Rc::new(());
        {
            let mut c = LruCache::new(1);
            c.insert(1, v.clone());
            c.insert(2, v.clone()); // evicts (1), dropping its Rc
            assert_eq!(Rc::strong_count(&v), 2);
            let popped = c.pop_lru().unwrap();
            drop(popped);
            assert_eq!(Rc::strong_count(&v), 1);
        }
        assert_eq!(Rc::strong_count(&v), 1);
    }
}
