//! A bounded LRU result cache.
//!
//! Keyed by the *canonical job string* (not the 64-bit hash) so a hash
//! collision can never serve the wrong result. Values are the raw result
//! bytes behind an `Arc` — a hit hands out the same allocation the worker
//! produced, so cached replies are byte-identical to fresh ones by
//! construction.

use std::collections::HashMap;

/// A capacity-bounded least-recently-used map from canonical job string
/// to shared result bytes. Not internally synchronized: the server keeps
/// it inside its one core mutex.
pub struct LruCache {
    cap: usize,
    tick: u64,
    map: HashMap<String, (std::sync::Arc<String>, u64)>,
}

impl LruCache {
    /// A cache holding at most `cap` results. `cap == 0` disables caching
    /// entirely (every lookup misses, inserts are dropped).
    pub fn new(cap: usize) -> Self {
        LruCache {
            cap,
            tick: 0,
            map: HashMap::new(),
        }
    }

    /// Looks up `canon`, refreshing its recency on a hit.
    pub fn get(&mut self, canon: &str) -> Option<std::sync::Arc<String>> {
        self.tick += 1;
        let (v, used) = self.map.get_mut(canon)?;
        *used = self.tick;
        Some(v.clone())
    }

    /// Inserts a result, evicting the least-recently-used entry if that
    /// takes the cache past capacity, and returns how many it evicted.
    pub fn put(&mut self, canon: String, value: std::sync::Arc<String>) -> u64 {
        if self.cap == 0 {
            return 0;
        }
        self.tick += 1;
        self.map.insert(canon, (value, self.tick));
        if self.map.len() <= self.cap {
            return 0;
        }
        let victim = (self.map.iter())
            .min_by_key(|(_, (_, used))| *used)
            .map(|(k, _)| k.clone())
            .expect("a cache past capacity holds entries");
        self.map.remove(&victim);
        1
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn val(s: &str) -> Arc<String> {
        Arc::new(s.to_string())
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.put("a".into(), val("1"));
        c.put("b".into(), val("2"));
        assert!(c.get("a").is_some()); // refresh a; b is now LRU
        assert_eq!(c.put("c".into(), val("3")), 1, "one entry evicted");
        assert_eq!(c.len(), 2);
        assert!(c.get("b").is_none(), "b was the LRU entry");
        assert!(c.get("a").is_some());
        assert!(c.get("c").is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = LruCache::new(0);
        c.put("a".into(), val("1"));
        assert!(c.get("a").is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn hit_returns_the_same_allocation() {
        let mut c = LruCache::new(4);
        let v = val("{\"app\": \"swim\"}");
        c.put("a".into(), v.clone());
        let got = c.get("a").unwrap();
        assert!(Arc::ptr_eq(&v, &got), "cache must not copy result bytes");
    }
}
