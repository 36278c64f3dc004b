//! A sharded, thread-safe, **bounded** memoization cache for NBTI model
//! evaluations.
//!
//! Keys are [`StressKey`]s (quantized stress points); the stored value is
//! the model's ΔV_th at the key's *canonical* point. Because
//! [`StressKey::evaluate`] is a pure function of the key, two threads that
//! race on the same missing key compute the identical value — insertion
//! order cannot change any result, which is what keeps multi-worker sweeps
//! byte-identical to single-worker ones.
//!
//! Sharding bounds contention: the key's FNV fingerprint picks one of `N`
//! independently locked hash maps, so workers rarely serialize on the same
//! mutex even under full cache pressure.
//!
//! Capacity bounds memory: each shard holds at most `capacity` entries and
//! evicts its least-recently-*touched* entry (tracked by a per-shard use
//! tick) when a new key would overflow it. Long-running servers therefore
//! cannot grow the memo table without bound, and eviction pressure is
//! observable through [`CacheStats::evictions`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use relia_core::{ModelError, NbtiModel, StressKey};
use relia_flow::DeltaVthCache;

/// Default shard count: enough to keep a machine's worth of workers off
/// each other's locks without wasting memory on tiny sweeps.
pub const DEFAULT_SHARDS: usize = 16;

/// Default per-shard capacity. With [`DEFAULT_SHARDS`] shards this caps the
/// table at 65 536 stress points — far beyond any sweep in the repo, small
/// enough (~4 MB) that a resident server stays bounded.
pub const DEFAULT_PER_SHARD_CAPACITY: usize = 4096;

/// Hit/miss/occupancy snapshot of a [`ShardedCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the memo table.
    pub hits: u64,
    /// Lookups that had to evaluate the model.
    pub misses: u64,
    /// Distinct keys currently stored.
    pub entries: usize,
    /// Entries displaced to respect the per-shard capacity.
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One shard: a hash map of `key → (value, last-touched tick)` plus the
/// shard's monotonically increasing tick counter.
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<StressKey, (f64, u64)>,
    tick: u64,
}

impl Shard {
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// A sharded, capacity-bounded ΔV_th memo table shared by all sweep
/// workers.
#[derive(Debug)]
pub struct ShardedCache {
    shards: Vec<Mutex<Shard>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for ShardedCache {
    fn default() -> Self {
        ShardedCache::new(DEFAULT_SHARDS)
    }
}

impl ShardedCache {
    /// A cache with `shards` independently locked segments (min 1), each
    /// bounded at [`DEFAULT_PER_SHARD_CAPACITY`] entries.
    pub fn new(shards: usize) -> Self {
        ShardedCache::with_capacity(shards, DEFAULT_PER_SHARD_CAPACITY)
    }

    /// A cache with `shards` segments of at most `per_shard` entries each
    /// (both clamped to a minimum of 1).
    pub fn with_capacity(shards: usize, per_shard: usize) -> Self {
        ShardedCache {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            capacity: per_shard.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Maximum entries across all shards.
    pub fn capacity(&self) -> usize {
        self.capacity * self.shards.len()
    }

    /// Counters and occupancy at this instant.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                // relia-lint: allow(unwrap-in-lib)
                .map(|s| s.lock().expect("cache shard poisoned").map.len())
                .sum(),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    fn shard(&self, key: &StressKey) -> &Mutex<Shard> {
        &self.shards[key.fingerprint() as usize % self.shards.len()]
    }

    /// Read-only lookup: the memoized ΔV_th for `key`, if present.
    /// Refreshes the entry's LRU tick (a key a brownout keeps answering
    /// from should stay resident) but records neither a hit nor a miss —
    /// cache-hit-only serving must not skew the hit-rate statistics.
    pub fn peek(&self, key: &StressKey) -> Option<f64> {
        let mut shard = self
            .shard(key)
            .lock()
            // relia-lint: allow(unwrap-in-lib)
            .expect("cache shard poisoned");
        let tick = shard.touch();
        let entry = shard.map.get_mut(key)?;
        entry.1 = tick;
        Some(entry.0)
    }

    /// Admits `value` for `key` only after a finiteness check: a NaN or
    /// infinite ΔV_th is rejected as [`ModelError::NonFinite`] and **never
    /// enters the memo table**, where it would silently poison every later
    /// hit. All insertion paths go through here; a full shard first evicts
    /// its least-recently-touched entry.
    pub fn insert_checked(&self, key: StressKey, value: f64) -> Result<f64, ModelError> {
        if !value.is_finite() {
            return Err(ModelError::NonFinite {
                what: "delta_vth (cache admission)",
                value,
            });
        }
        let mut shard = self
            .shard(&key)
            .lock()
            // Poisoned-lock recovery is meaningless for a memo table.
            // relia-lint: allow(unwrap-in-lib)
            .expect("cache shard poisoned");
        if shard.map.len() >= self.capacity && !shard.map.contains_key(&key) {
            // LRU-ish: displace the entry with the stalest use tick.
            let victim = shard
                .map
                .iter()
                .min_by_key(|(_, &(_, tick))| tick)
                .map(|(k, _)| *k);
            if let Some(victim) = victim {
                shard.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let tick = shard.touch();
        shard.map.insert(key, (value, tick));
        Ok(value)
    }
}

impl ShardedCache {
    /// The memoized ΔV_th for `key`, read without touching its LRU tick.
    fn read(&self, key: &StressKey) -> Option<f64> {
        let shard = self
            .shard(key)
            .lock()
            // relia-lint: allow(unwrap-in-lib)
            .expect("cache shard poisoned");
        shard.map.get(key).map(|&(value, _)| value)
    }

    /// One counted lookup: a hit answers from the table; a miss runs
    /// `eval` and admits its value.
    fn lookup(
        &self,
        key: StressKey,
        eval: impl FnOnce() -> Result<f64, ModelError>,
    ) -> Result<f64, ModelError> {
        {
            let mut shard = self
                .shard(&key)
                .lock()
                // relia-lint: allow(unwrap-in-lib)
                .expect("cache shard poisoned");
            let tick = shard.touch();
            if let Some(entry) = shard.map.get_mut(&key) {
                entry.1 = tick;
                let v = entry.0;
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(v);
            }
        }
        // Evaluate outside the lock: a racing thread computes the identical
        // value (evaluation is a pure function of the key), so double
        // insertion is harmless and lock hold times stay tiny.
        let v = eval()?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.insert_checked(key, v)
    }
}

impl DeltaVthCache for ShardedCache {
    fn delta_vth(&self, key: StressKey, model: &NbtiModel) -> Result<f64, ModelError> {
        self.lookup(key, || key.evaluate(model))
    }

    /// Reads every key, evaluates the distinct absent ones in one
    /// [`StressKey::evaluate_many`] call, then replays the key-by-key
    /// lookups with every value in hand. The counters, LRU ticks,
    /// evictions and admitted entries therefore come out as the scalar
    /// loop leaves them: one miss per absent key, a hit for every other
    /// lookup. A batch that fails replays through the scalar loop, so its
    /// error is the scalar loop's too.
    fn delta_vth_many(
        &self,
        keys: &[StressKey],
        model: &NbtiModel,
    ) -> Result<Vec<f64>, ModelError> {
        let mut values = Vec::with_capacity(keys.len());
        let mut misses = Vec::new();
        let mut first_miss = HashMap::new();
        // (position in `values`, index into `misses`) of every absent key.
        let mut absent = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            values.push(self.read(key).unwrap_or_else(|| {
                let m = *first_miss.entry(*key).or_insert_with(|| {
                    misses.push(*key);
                    misses.len() - 1
                });
                absent.push((i, m));
                0.0
            }));
        }
        let Ok(evaluated) = StressKey::evaluate_many(&misses, model) else {
            return keys.iter().map(|&key| self.delta_vth(key, model)).collect();
        };
        for (i, m) in absent {
            values[i] = evaluated[m];
        }
        keys.iter()
            .zip(values)
            .map(|(&key, value)| self.lookup(key, || Ok(value)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relia_core::{Kelvin, ModeSchedule, PmosStress, Ras, Seconds};

    fn key(p_standby: f64) -> StressKey {
        let schedule = ModeSchedule::new(
            Ras::new(1.0, 9.0).unwrap(),
            Seconds(1000.0),
            Kelvin(400.0),
            Kelvin(330.0),
        )
        .unwrap();
        let stress = PmosStress::new(0.5, p_standby).unwrap();
        StressKey::quantize(&schedule, &stress, Seconds(1.0e8))
    }

    #[test]
    fn second_lookup_hits() {
        let model = NbtiModel::ptm90().unwrap();
        let cache = ShardedCache::default();
        let a = cache.delta_vth(key(1.0), &model).unwrap();
        let b = cache.delta_vth(key(1.0), &model).unwrap();
        assert_eq!(a, b);
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.entries, stats.evictions),
            (1, 1, 1, 0)
        );
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn peek_reads_without_touching_hit_statistics() {
        let model = NbtiModel::ptm90().unwrap();
        let cache = ShardedCache::default();
        assert_eq!(cache.peek(&key(1.0)), None, "cold key peeks to nothing");
        let v = cache.delta_vth(key(1.0), &model).unwrap();
        assert_eq!(cache.peek(&key(1.0)), Some(v));
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (0, 1),
            "peeks are invisible to hit/miss counters"
        );
    }

    #[test]
    fn peek_refreshes_the_lru_tick() {
        let model = NbtiModel::ptm90().unwrap();
        // One shard, two slots: inserting a third key evicts the stalest.
        let cache = ShardedCache::with_capacity(1, 2);
        let keep = key(1.0);
        let v = cache.delta_vth(keep, &model).unwrap();
        cache.delta_vth(key(0.9), &model).unwrap();
        // Touch the older entry via peek, then overflow the shard: the
        // *untouched* middle entry must be the victim.
        assert_eq!(cache.peek(&keep), Some(v));
        cache.delta_vth(key(0.8), &model).unwrap();
        assert_eq!(cache.peek(&keep), Some(v), "peeked entry stayed resident");
        assert_eq!(cache.peek(&key(0.9)), None, "stale entry was evicted");
    }

    #[test]
    fn cached_value_is_canonical() {
        let model = NbtiModel::ptm90().unwrap();
        let cache = ShardedCache::new(4);
        let k = key(0.25);
        let via_cache = cache.delta_vth(k, &model).unwrap();
        assert_eq!(via_cache, k.evaluate(&model).unwrap());
    }

    #[test]
    fn distinct_keys_occupy_distinct_entries() {
        let model = NbtiModel::ptm90().unwrap();
        let cache = ShardedCache::new(2);
        for i in 0..10 {
            cache.delta_vth(key(i as f64 / 10.0), &model).unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 10);
        assert_eq!(stats.misses, 10);
    }

    #[test]
    fn non_finite_values_never_enter_the_cache() {
        let model = NbtiModel::ptm90().unwrap();
        let cache = ShardedCache::default();
        let k = key(0.5);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            match cache.insert_checked(k, bad) {
                Err(ModelError::NonFinite { .. }) => {}
                other => panic!("expected NonFinite rejection, got {other:?}"),
            }
        }
        assert_eq!(cache.stats().entries, 0, "rejected values are not stored");
        // A later legitimate lookup still computes the canonical value.
        let v = cache.delta_vth(k, &model).unwrap();
        assert_eq!(v, k.evaluate(&model).unwrap());
    }

    #[test]
    fn capacity_bounds_entries_and_counts_evictions() {
        let model = NbtiModel::ptm90().unwrap();
        // One shard, three slots: insertion number four must evict.
        let cache = ShardedCache::with_capacity(1, 3);
        assert_eq!(cache.capacity(), 3);
        for i in 0..8 {
            cache.delta_vth(key(i as f64 / 10.0), &model).unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 3, "shard never exceeds its capacity");
        assert_eq!(stats.evictions, 5, "each overflow evicts exactly one");
        assert_eq!(stats.misses, 8);
    }

    #[test]
    fn eviction_displaces_the_least_recently_touched_key() {
        let model = NbtiModel::ptm90().unwrap();
        let cache = ShardedCache::with_capacity(1, 2);
        let (a, b, c) = (key(0.1), key(0.2), key(0.3));
        cache.delta_vth(a, &model).unwrap();
        cache.delta_vth(b, &model).unwrap();
        // Touch `a` so `b` is now the stalest, then overflow with `c`.
        cache.delta_vth(a, &model).unwrap();
        cache.delta_vth(c, &model).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        // `a` and `c` hit; `b` was evicted and must miss again.
        let before = cache.stats().misses;
        cache.delta_vth(a, &model).unwrap();
        cache.delta_vth(c, &model).unwrap();
        assert_eq!(cache.stats().misses, before);
        cache.delta_vth(b, &model).unwrap();
        assert_eq!(cache.stats().misses, before + 1);
    }

    #[test]
    fn evicted_keys_recompute_identical_values() {
        let model = NbtiModel::ptm90().unwrap();
        let cache = ShardedCache::with_capacity(1, 2);
        let keys: Vec<StressKey> = (0..6).map(|i| key(i as f64 / 10.0)).collect();
        let first: Vec<f64> = keys
            .iter()
            .map(|k| cache.delta_vth(*k, &model).unwrap())
            .collect();
        // Thrash the cache again; every value must round-trip bit-equal
        // whether it came from the memo table or a re-evaluation.
        let second: Vec<f64> = keys
            .iter()
            .map(|k| cache.delta_vth(*k, &model).unwrap())
            .collect();
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn concurrent_lookups_agree() {
        let model = NbtiModel::ptm90().unwrap();
        let cache = ShardedCache::default();
        let keys: Vec<StressKey> = (0..50).map(|i| key(i as f64 / 100.0)).collect();
        let values = crate::pool::run_ordered(&keys, 8, |_, k| {
            // Every thread looks up every key; all must agree.
            keys.iter()
                .map(|k2| cache.delta_vth(*k2, &model).unwrap())
                .collect::<Vec<f64>>()[keys.iter().position(|k2| k2 == k).unwrap()]
        });
        let solo: Vec<f64> = keys.iter().map(|k| k.evaluate(&model).unwrap()).collect();
        for (o, s) in values.iter().zip(&solo) {
            assert_eq!(o.completed(), Some(s));
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 50);
        // 50 jobs × 50 lookups each. Racing threads may each take the miss
        // path for the same key before the first insert lands, so misses
        // can exceed the entry count — but never one per (worker, key).
        assert_eq!(stats.hits + stats.misses, 50 * 50);
        assert!(stats.misses >= 50);
        assert!(stats.misses <= 8 * 50, "misses={}", stats.misses);
    }

    #[test]
    fn a_batch_counts_and_answers_like_the_key_by_key_loop() {
        let model = NbtiModel::ptm90().unwrap();
        let keys = [key(0.1), key(0.2), key(0.1), key(0.3), key(0.2)];
        let batched = ShardedCache::default();
        let scalar = ShardedCache::default();
        for _ in ["cold", "warm"] {
            let many = batched.delta_vth_many(&keys, &model).unwrap();
            for (k, v) in keys.iter().zip(many) {
                let want = scalar.delta_vth(*k, &model).unwrap();
                assert_eq!(v.to_bits(), want.to_bits());
                assert_eq!(v.to_bits(), k.evaluate(&model).unwrap().to_bits());
            }
            assert_eq!(batched.stats(), scalar.stats());
        }
        let stats = batched.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (7, 3, 3));
    }

    #[test]
    fn a_failing_batch_errs_counts_and_admits_like_the_key_by_key_loop() {
        let model = NbtiModel::ptm90().unwrap();
        // Both mode times quantize to 0 ms: this key cannot evaluate.
        let schedule = ModeSchedule::new(
            Ras::new(1.0, 9.0).unwrap(),
            Seconds(1e-4),
            Kelvin(400.0),
            Kelvin(330.0),
        )
        .unwrap();
        let bad = StressKey::quantize(&schedule, &PmosStress::worst_case(), Seconds(1.0e8));
        let keys = [key(0.1), key(0.2), key(0.1), bad, key(0.3)];
        let batched = ShardedCache::default();
        let scalar = ShardedCache::default();
        let many = batched.delta_vth_many(&keys, &model).unwrap_err();
        let each = keys
            .iter()
            .map(|k| scalar.delta_vth(*k, &model))
            .collect::<Result<Vec<f64>, _>>()
            .unwrap_err();
        assert_eq!(format!("{many:?}"), format!("{each:?}"));
        assert_eq!(batched.stats(), scalar.stats());
        assert_eq!(batched.peek(&key(0.3)), None, "nothing past the error");
    }
}
