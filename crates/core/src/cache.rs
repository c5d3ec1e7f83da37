//! What random access keeps: a least-recently-used cache (the `Cache` of
//! Figure 5 with its `LeastRecentlyUsed` strategy) bounded by what its
//! entries weigh, not by how many there are.

use std::sync::Arc;

/// `Arc<V>` values keyed by a chunk's first bit, each with a weight: when
/// they weigh more together than the budget the cache was made with, those
/// looked up or inserted longest ago make room — never the one just
/// inserted, which is kept however much it weighs.
///
/// An evicted (or replaced) value is dropped as soon as nobody who looked it
/// up still holds it — which is when a value that owns recycled memory, like
/// the reader's pooled chunk buffers, gives it back.
pub(crate) struct Cache<V> {
    budget: u64,
    weight: u64,
    /// Key, value and weight, least recently used first.
    entries: Vec<(u64, Arc<V>, u64)>,
}

impl<V> Cache<V> {
    /// An empty cache whose entries may weigh `budget` together.
    pub(crate) fn new(budget: u64) -> Self {
        Self {
            budget,
            weight: 0,
            entries: Vec::new(),
        }
    }

    fn position(&self, key: u64) -> Option<usize> {
        self.entries.iter().position(|entry| entry.0 == key)
    }

    /// Looks up a key, marking it as recently used.
    pub(crate) fn get(&mut self, key: u64) -> Option<Arc<V>> {
        let entry = self.entries.remove(self.position(key)?);
        let value = Arc::clone(&entry.1);
        self.entries.push(entry);
        Some(value)
    }

    /// Whether a key is present (does not affect eviction order).
    pub(crate) fn contains(&self, key: u64) -> bool {
        self.position(key).is_some()
    }

    /// The entry of the greatest key at or before `key`, if any (does not
    /// affect eviction order).
    pub(crate) fn at_or_before(&self, key: u64) -> Option<(u64, &Arc<V>)> {
        let entries = self.entries.iter().filter(|entry| entry.0 <= key);
        let entry = entries.max_by_key(|entry| entry.0)?;
        Some((entry.0, &entry.1))
    }

    /// Inserts `value`, of `weight`, as the most recently used, in place of
    /// what `key` held, and evicts the least recently used others while the
    /// cache weighs more than its budget.
    pub(crate) fn insert(&mut self, key: u64, value: Arc<V>, weight: u64) {
        if let Some(position) = self.position(key) {
            self.weight -= self.entries.remove(position).2;
        }
        self.entries.push((key, value, weight));
        self.weight += weight;
        while self.weight > self.budget && self.entries.len() > 1 {
            self.weight -= self.entries.remove(0).2;
        }
    }

    /// What the entries weigh together.
    pub(crate) fn weight(&self) -> u64 {
        self.weight
    }

    /// How many entries there are.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_insert_get_and_capacity() {
        let mut cache: Cache<String> = Cache::new(2);
        cache.insert(1, Arc::new("one".into()), 1);
        cache.insert(2, Arc::new("two".into()), 1);
        // Nothing evicted while there is room.
        assert!(cache.contains(1) && cache.contains(2));
        assert_eq!(cache.get(1).as_deref().map(String::as_str), Some("one"));
        cache.insert(3, Arc::new("three".into()), 1);
        // 2 was the least recently used (1 was touched by the get), and is
        // the one evicted: two entries again.
        assert!(cache.contains(1));
        assert!(!cache.contains(2));
        assert!(cache.contains(3));
        assert_eq!(cache.get(2), None);
        assert_eq!(cache.get(3).as_deref().map(String::as_str), Some("three"));
        assert_eq!(cache.weight(), 2);
    }

    #[test]
    fn lru_order_follows_touches() {
        let mut cache: Cache<u32> = Cache::new(3);
        for i in 0..3 {
            cache.insert(u64::from(i), Arc::new(i), 1);
        }
        cache.get(0);
        cache.get(1);
        assert!(cache.contains(2));
        cache.insert(3, Arc::new(3), 1); // evicts 2
        assert!(!cache.contains(2));
        cache.insert(4, Arc::new(4), 1); // evicts 0
        assert!(!cache.contains(0));
        assert!(cache.contains(1) && cache.contains(3) && cache.contains(4));
    }

    #[test]
    fn reinserting_updates_value_without_eviction() {
        let mut cache: Cache<u32> = Cache::new(30);
        cache.insert(1, Arc::new(10), 10);
        cache.insert(2, Arc::new(20), 10);
        cache.insert(1, Arc::new(11), 15);
        // Nothing evicted: both keys still there, weighing 25.
        assert!(cache.contains(1) && cache.contains(2));
        assert_eq!(cache.weight(), 25);
        assert_eq!(*cache.get(1).unwrap(), 11);
        assert_eq!(*cache.get(2).unwrap(), 20);
    }

    #[test]
    fn the_oldest_go_until_the_weight_fits_the_budget() {
        let mut cache: Cache<u32> = Cache::new(100);
        for (key, weight) in [(1, 40), (2, 30), (3, 20), (4, 10)] {
            cache.insert(key, Arc::new(key as u32), weight);
        }
        assert_eq!(cache.weight(), 100);
        // 60 more: 1 and 2 go, 3 and 4 stay.
        cache.insert(5, Arc::new(5), 60);
        assert!(!cache.contains(1) && !cache.contains(2));
        assert!(cache.contains(3) && cache.contains(4) && cache.contains(5));
        assert_eq!(cache.weight(), 90);
        // Entries of no weight cost nothing.
        cache.insert(6, Arc::new(6), 0);
        assert!(cache.contains(3));
        assert_eq!(cache.weight(), 90);
    }

    #[test]
    fn an_entry_heavier_than_the_budget_is_kept_alone() {
        let mut cache: Cache<u32> = Cache::new(10);
        cache.insert(1, Arc::new(1), 5);
        cache.insert(2, Arc::new(2), 50);
        assert!(!cache.contains(1));
        assert!(cache.contains(2));
        assert_eq!(cache.weight(), 50);
        // And goes with the next insert.
        cache.insert(3, Arc::new(3), 5);
        assert!(!cache.contains(2));
        assert_eq!(cache.weight(), 5);
    }

    #[test]
    fn capacity_of_zero_is_clamped_to_one() {
        // A budget of nothing keeps the last entry inserted.
        let mut cache: Cache<u32> = Cache::new(0);
        cache.insert(1, Arc::new(1), 1);
        cache.insert(2, Arc::new(2), 1);
        assert!(!cache.contains(1));
        assert!(cache.contains(2));
    }

    #[test]
    fn evicted_values_give_themselves_back_once_unheld() {
        let registry = rgz_metrics::MetricsRegistry::new();
        let pool = rgz_fetcher::BufferPool::new(1, &registry);
        let idle_bytes = || {
            let snapshot = registry.snapshot();
            snapshot.gauge(rgz_metrics::names::BUFFER_POOL_IDLE_BYTES, &[])
        };
        let chunk = |byte: u8| {
            let mut buffer = pool.bytes();
            buffer.resize(100, byte);
            Arc::new(buffer)
        };
        let mut cache: Cache<rgz_fetcher::Pooled<u8>> = Cache::new(100);
        cache.insert(1, chunk(1), 100);
        let held = cache.get(1).unwrap();
        cache.insert(2, chunk(2), 100);
        assert_eq!(
            idle_bytes(),
            Some(0),
            "a reader still holds the evicted chunk"
        );
        drop(held);
        assert_eq!(idle_bytes(), Some(100));
        // Replaced, a value goes back too.
        let replacement = chunk(3);
        assert_eq!(idle_bytes(), Some(0));
        cache.insert(2, replacement, 100);
        assert_eq!(idle_bytes(), Some(100));
    }
}
