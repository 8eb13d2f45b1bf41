//! Bounded, content-addressed LRU cache for analysis results.
//!
//! Keys combine the α-invariant canonical hash of the program
//! ([`probterm_core::spcf::Term::canonical_key`]) with the analysis tag and a
//! rendered configuration string, so syntactically distinct but α-equivalent
//! resubmissions of the same request are cache hits. Values are the `result`
//! payloads of successful replies (error replies are never cached).
//!
//! Recency is tracked with a monotone tick per entry; eviction scans for the
//! minimum tick. That makes `insert` O(capacity) in the worst case, which is
//! fine for the bounded sizes the service uses (default 1024) — the entries
//! being displaced each cost an engine run that is orders of magnitude more
//! expensive than the scan.

use serde::Value;
use std::collections::HashMap;
use std::time::Instant;

/// The content address of one analysis result.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// α-invariant canonical hash of the analysed term.
    pub term: u128,
    /// Analysis tag (the request op).
    pub analysis: &'static str,
    /// Rendered analysis configuration (depth, runs, seed, strategy, ...).
    pub config: String,
}

#[derive(Debug)]
struct Entry {
    value: Value,
    tick: u64,
    /// Approximate rendered size of the payload, in bytes (see
    /// [`approx_bytes`]).
    bytes: usize,
    /// When this entry was last inserted or served — the "last-hit" clock
    /// behind [`ResultCache::oldest_entry_ms`].
    last_hit: Instant,
}

/// Approximate rendered size of a payload in bytes: string/number lengths
/// plus structural punctuation, without actually rendering. Close enough for
/// capacity planning — the gauge is a statistic, not an accountant.
fn approx_bytes(value: &Value) -> usize {
    match value {
        Value::Null => 4,
        Value::Bool(b) => {
            if *b {
                4
            } else {
                5
            }
        }
        Value::Num(_) => 16,
        Value::UInt(u) => 1 + u.checked_ilog10().unwrap_or(0) as usize,
        Value::Int(_) => 16,
        Value::Str(s) => s.len() + 2,
        Value::Array(items) => {
            2 + items.iter().map(|v| approx_bytes(v) + 1).sum::<usize>()
        }
        Value::Object(fields) => {
            2 + fields
                .iter()
                .map(|(k, v)| k.len() + 4 + approx_bytes(v))
                .sum::<usize>()
        }
    }
}

/// A bounded LRU map from [`CacheKey`] to result payloads, with hit/miss
/// counters and byte accounting. Capacity 0 disables storage (every lookup
/// is a miss).
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    map: HashMap<CacheKey, Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
    /// Sum of the per-entry `bytes`, maintained incrementally across
    /// insert/overwrite/evict.
    bytes: usize,
}

impl ResultCache {
    /// Creates an empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            capacity,
            map: HashMap::with_capacity(capacity.min(4096)),
            tick: 0,
            hits: 0,
            misses: 0,
            bytes: 0,
        }
    }

    /// Looks a result up, bumping its recency and the hit/miss counters.
    pub fn get(&mut self, key: &CacheKey) -> Option<Value> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some(entry) => {
                entry.tick = self.tick;
                entry.last_hit = Instant::now();
                self.hits += 1;
                Some(entry.value.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a result, evicting the least-recently-used entry when full.
    pub fn put(&mut self, key: CacheKey, value: Value) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| k.clone())
            {
                if let Some(evicted) = self.map.remove(&oldest) {
                    self.bytes -= evicted.bytes;
                }
            }
        }
        let bytes = approx_bytes(&value);
        let entry = Entry { value, tick: self.tick, bytes, last_hit: Instant::now() };
        if let Some(displaced) = self.map.insert(key, entry) {
            self.bytes -= displaced.bytes;
        }
        self.bytes += bytes;
    }

    /// Looks a result up *without* touching recency or the hit/miss
    /// counters — for policy decisions (serve vs. recompute, overwrite vs.
    /// keep) that happen before the cache's answer is actually used.
    pub fn peek(&self, key: &CacheKey) -> Option<&Value> {
        self.map.get(key).map(|entry| &entry.value)
    }

    /// Records a miss decided by [`peek`](Self::peek): the entry was absent,
    /// or present but declined (the caller recomputes either way).
    pub fn record_miss(&mut self) {
        self.misses += 1;
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` iff no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Approximate total bytes held by cached payloads.
    pub fn bytes(&self) -> u64 {
        self.bytes as u64
    }

    /// Milliseconds since the *least recently served* entry was last
    /// inserted or hit — `None` when the cache is empty. A growing value
    /// under steady load means the tail of the cache is dead weight.
    pub fn oldest_entry_ms(&self) -> Option<u64> {
        self.map
            .values()
            .map(|e| e.last_hit)
            .min()
            .map(|t| t.elapsed().as_millis() as u64)
    }

    /// Iterates over every cached `(key, payload)` pair in recency order
    /// (least recently used first), without touching counters or recency —
    /// the traversal behind the on-disk snapshot written at graceful drain.
    /// Recency order means a later truncated reload keeps the hottest
    /// entries.
    pub fn entries(&self) -> impl Iterator<Item = (&CacheKey, &Value)> {
        let mut rows: Vec<(&CacheKey, &Entry)> = self.map.iter().collect();
        rows.sort_by_key(|(_, e)| e.tick);
        rows.into_iter().map(|(k, e)| (k, &e.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(term: u128, config: &str) -> CacheKey {
        CacheKey { term, analysis: "lower", config: config.to_string() }
    }

    fn payload(n: u128) -> Value {
        Value::UInt(n)
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let mut cache = ResultCache::new(4);
        assert_eq!(cache.get(&key(1, "d=40")), None);
        cache.put(key(1, "d=40"), payload(10));
        assert_eq!(cache.get(&key(1, "d=40")), Some(payload(10)));
        // Same term, different config: distinct entry.
        assert_eq!(cache.get(&key(1, "d=80")), None);
        // Same config, different analysis tag: distinct entry.
        let other = CacheKey { term: 1, analysis: "verify", config: "d=40".into() };
        assert_eq!(cache.get(&other), None);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn least_recently_used_entry_is_evicted() {
        let mut cache = ResultCache::new(2);
        cache.put(key(1, ""), payload(1));
        cache.put(key(2, ""), payload(2));
        // Touch 1 so 2 becomes the LRU entry.
        assert!(cache.get(&key(1, "")).is_some());
        cache.put(key(3, ""), payload(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(1, "")).is_some());
        assert!(cache.get(&key(2, "")).is_none(), "LRU entry must be gone");
        assert!(cache.get(&key(3, "")).is_some());
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let mut cache = ResultCache::new(2);
        cache.put(key(1, ""), payload(1));
        cache.put(key(2, ""), payload(2));
        cache.put(key(2, ""), payload(22));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&key(2, "")), Some(payload(22)));
        assert!(cache.get(&key(1, "")).is_some());
    }

    #[test]
    fn peek_does_not_disturb_counters_or_recency() {
        let mut cache = ResultCache::new(2);
        cache.put(key(1, ""), payload(1));
        cache.put(key(2, ""), payload(2));
        assert_eq!(cache.peek(&key(1, "")), Some(&payload(1)));
        assert_eq!(cache.peek(&key(3, "")), None);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 0);
        // A declined serve counts as a miss.
        cache.record_miss();
        assert_eq!(cache.misses(), 1);
        // `peek` must not refresh recency: 1 is still the LRU entry.
        cache.put(key(3, ""), payload(3));
        assert!(cache.peek(&key(1, "")).is_none());
        assert!(cache.peek(&key(2, "")).is_some());
    }

    #[test]
    fn byte_accounting_tracks_insert_overwrite_and_evict() {
        let mut cache = ResultCache::new(2);
        assert_eq!(cache.bytes(), 0);
        assert_eq!(cache.oldest_entry_ms(), None);
        let small = Value::Str("x".into());
        let big = Value::Str("x".repeat(100));
        cache.put(key(1, ""), small.clone());
        let one = cache.bytes();
        assert!(one > 0);
        cache.put(key(2, ""), small.clone());
        assert_eq!(cache.bytes(), 2 * one);
        // Overwriting replaces the old entry's bytes, not adds to them.
        cache.put(key(2, ""), big.clone());
        let with_big = cache.bytes();
        assert!(with_big > 2 * one && with_big < one + 200);
        // Eviction releases the evicted entry's bytes (1 is the LRU entry).
        cache.put(key(3, ""), small);
        assert_eq!(cache.bytes(), with_big, "swap small for small");
        assert!(cache.peek(&key(1, "")).is_none());
        assert!(cache.oldest_entry_ms().is_some());
        // Estimates grow with payload size.
        assert!(approx_bytes(&big) > approx_bytes(&Value::Str("x".into())));
        assert!(
            approx_bytes(&Value::Object(vec![("k".into(), Value::UInt(12345))]))
                >= "{\"k\":12345}".len() - 2
        );
    }

    #[test]
    fn entries_iterate_in_recency_order_without_side_effects() {
        let mut cache = ResultCache::new(4);
        cache.put(key(1, ""), payload(1));
        cache.put(key(2, ""), payload(2));
        cache.put(key(3, ""), payload(3));
        // Touch 1 so it becomes the most recent entry.
        assert!(cache.get(&key(1, "")).is_some());
        let (hits, misses) = (cache.hits(), cache.misses());
        let order: Vec<u128> = cache.entries().map(|(k, _)| k.term).collect();
        assert_eq!(order, vec![2, 3, 1], "LRU first, most recent last");
        assert_eq!((cache.hits(), cache.misses()), (hits, misses));
        // Iteration must not refresh recency: 2 is still the LRU entry.
        cache.put(key(4, ""), payload(4));
        cache.put(key(5, ""), payload(5));
        assert!(cache.peek(&key(2, "")).is_none());
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut cache = ResultCache::new(0);
        cache.put(key(1, ""), payload(1));
        assert!(cache.is_empty());
        assert_eq!(cache.get(&key(1, "")), None);
        assert_eq!(cache.misses(), 1);
    }
}
