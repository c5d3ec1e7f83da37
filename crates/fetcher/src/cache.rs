//! A bounded, keyed least-recently-used cache (the `Cache` of Figure 5 with
//! its `LeastRecentlyUsed` strategy, the one eviction policy in use).

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// A bounded cache holding `Arc<V>` values; when full, the entry looked up
/// or inserted longest ago makes room.
///
/// An evicted (or replaced, removed, cleared) value is dropped as soon as
/// nobody who looked it up still holds it — which is when a value that owns
/// recycled memory, like the reader's [`Pooled`](crate::Pooled) chunk
/// buffers, gives it back.
pub struct Cache<K, V> {
    capacity: usize,
    entries: HashMap<K, Arc<V>>,
    /// Keys ordered from least to most recently used.
    order: Vec<K>,
}

impl<K: std::fmt::Debug, V> std::fmt::Debug for Cache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cache")
            .field("capacity", &self.capacity)
            .field("len", &self.entries.len())
            .finish()
    }
}

impl<K, V> Cache<K, V>
where
    K: Eq + Hash + Clone,
{
    /// Creates a cache with the given capacity (at least 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            entries: HashMap::new(),
            order: Vec::new(),
        }
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Takes `key` out of the recency order, if it is in it.
    fn forget(&mut self, key: &K) {
        if let Some(position) = self.order.iter().position(|k| k == key) {
            self.order.remove(position);
        }
    }

    /// Looks up a key, marking it as recently used.
    pub fn get(&mut self, key: &K) -> Option<Arc<V>> {
        let value = self.entries.get(key)?.clone();
        self.forget(key);
        self.order.push(key.clone());
        Some(value)
    }

    /// Whether a key is present (does not affect eviction order).
    pub fn contains(&self, key: &K) -> bool {
        self.entries.contains_key(key)
    }

    /// Inserts a value as the most recently used, and returns the one a full
    /// cache evicted to make room for a new key.
    pub fn insert(&mut self, key: K, value: Arc<V>) -> Option<Arc<V>> {
        let full = !self.entries.contains_key(&key) && self.entries.len() >= self.capacity;
        let evicted = if full { self.remove_oldest() } else { None };
        self.forget(&key);
        self.order.push(key.clone());
        self.entries.insert(key, value);
        evicted
    }

    /// Removes a key.
    pub fn remove(&mut self, key: &K) -> Option<Arc<V>> {
        self.forget(key);
        self.entries.remove(key)
    }

    /// Evicts the entry looked up or inserted longest ago.
    pub fn remove_oldest(&mut self) -> Option<Arc<V>> {
        let oldest = self.order.first()?.clone();
        self.remove(&oldest)
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.order.clear();
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_insert_get_and_capacity() {
        let mut cache: Cache<u64, String> = Cache::new(2);
        assert!(cache.insert(1, Arc::new("one".into())).is_none());
        assert!(cache.insert(2, Arc::new("two".into())).is_none());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&1).as_deref().map(String::as_str), Some("one"));
        let evicted = cache.insert(3, Arc::new("three".into()));
        assert_eq!(evicted.as_deref().map(String::as_str), Some("two"));
        assert_eq!(cache.len(), 2);
        // 2 was the least recently used (1 was touched by the get).
        assert!(cache.contains(&1));
        assert!(!cache.contains(&2));
        assert!(cache.contains(&3));
    }

    #[test]
    fn lru_order_follows_touches() {
        let mut cache: Cache<u32, u32> = Cache::new(3);
        for i in 0..3 {
            cache.insert(i, Arc::new(i));
        }
        cache.get(&0);
        cache.get(&1);
        cache.insert(3, Arc::new(3)); // evicts 2
        assert!(!cache.contains(&2));
        cache.insert(4, Arc::new(4)); // evicts 0
        assert!(!cache.contains(&0));
        assert!(cache.contains(&1) && cache.contains(&3) && cache.contains(&4));
    }

    #[test]
    fn reinserting_updates_value_without_eviction() {
        let mut cache: Cache<u32, u32> = Cache::new(2);
        cache.insert(1, Arc::new(10));
        cache.insert(2, Arc::new(20));
        assert!(cache.insert(1, Arc::new(11)).is_none());
        assert_eq!(cache.len(), 2);
        assert_eq!(*cache.get(&1).unwrap(), 11);
    }

    #[test]
    fn remove_and_clear() {
        let mut cache: Cache<u32, u32> = Cache::new(4);
        for i in 0..4 {
            cache.insert(i, Arc::new(i));
        }
        assert_eq!(cache.remove(&2).map(|v| *v), Some(2));
        assert_eq!(cache.remove(&2), None);
        cache.clear();
        assert!(cache.is_empty());
        // The strategy state must be consistent: inserting after clear works.
        for i in 10..20 {
            cache.insert(i, Arc::new(i));
        }
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn evicted_values_give_themselves_back_once_unheld() {
        let registry = rgz_metrics::MetricsRegistry::new();
        let pool = crate::BufferPool::new(2, &registry);
        let idle_bytes = || {
            let snapshot = registry.snapshot();
            snapshot.gauge(rgz_metrics::names::BUFFER_POOL_IDLE_BYTES, &[])
        };
        let chunk = |byte: u8| {
            let mut buffer = pool.bytes();
            buffer.resize(100, byte);
            Arc::new(buffer)
        };
        let mut cache: Cache<u32, crate::Pooled<u8>> = Cache::new(1);
        cache.insert(1, chunk(1));
        let held = cache.get(&1).unwrap();
        cache.insert(2, chunk(2));
        assert_eq!(
            idle_bytes(),
            Some(0),
            "a reader still holds the evicted chunk"
        );
        drop(held);
        assert_eq!(idle_bytes(), Some(100));
        cache.clear();
        assert_eq!(idle_bytes(), Some(200));
    }

    #[test]
    fn capacity_of_zero_is_clamped_to_one() {
        let mut cache: Cache<u32, u32> = Cache::new(0);
        cache.insert(1, Arc::new(1));
        cache.insert(2, Arc::new(2));
        assert_eq!(cache.len(), 1);
        assert!(cache.contains(&2));
    }
}
