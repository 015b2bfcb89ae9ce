//! Set-associative cache models with true-LRU replacement.

/// Outcome of one cache access.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Access {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled.
    Miss,
}

impl Access {
    /// `true` for [`Access::Miss`].
    #[must_use]
    pub fn is_miss(self) -> bool {
        matches!(self, Access::Miss)
    }
}

/// Geometry of one cache level.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Cache-line size in bytes (power of two).
    pub line_size: usize,
}

impl CacheConfig {
    /// Geometry of an i7-class 48 KiB, 12-way L1 data cache.
    #[must_use]
    pub fn l1d() -> Self {
        Self { capacity: 48 * 1024, ways: 12, line_size: 64 }
    }

    /// Geometry of an i7-class 32 KiB, 8-way L1 instruction cache.
    #[must_use]
    pub fn l1i() -> Self {
        Self { capacity: 32 * 1024, ways: 8, line_size: 64 }
    }

    /// Geometry of an i7-class 1.25 MiB, 20-way private L2.
    #[must_use]
    pub fn l2() -> Self {
        Self { capacity: 1280 * 1024, ways: 20, line_size: 64 }
    }

    /// Geometry of an i7-class 12 MiB, 12-way shared LLC.
    #[must_use]
    pub fn llc() -> Self {
        Self { capacity: 12 * 1024 * 1024, ways: 12, line_size: 64 }
    }

    /// The same geometry scaled down by `factor` (capacity divided,
    /// associativity and line size kept) — used for scaled-down simulation
    /// where workload footprints shrink by the same factor so that
    /// capacity pressure and reuse dynamics appear within short simulated
    /// slices.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero or does not divide the capacity into a
    /// valid geometry (checked on use in [`Cache::new`]).
    #[must_use]
    pub fn scaled(self, factor: usize) -> Self {
        assert!(factor > 0, "scale factor must be positive");
        Self { capacity: self.capacity / factor, ..self }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`Cache::new`]).
    #[must_use]
    pub fn sets(&self) -> usize {
        assert!(self.line_size.is_power_of_two() && self.line_size > 0);
        assert!(self.ways > 0);
        let lines = self.capacity / self.line_size;
        assert!(lines >= self.ways, "capacity too small for associativity");
        let sets = lines / self.ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

/// One set-associative cache level with true-LRU replacement.
///
/// Each set keeps its tags in recency order, most recent first. An
/// access walks the set once, shifting each tag back one place until it
/// meets its own tag (hit) or runs off the end (miss: the least recent
/// tag falls off), and leaves the tag at the front. This is exact LRU:
/// whether an access hits depends only on the set's contents, and the
/// tag dropped on a miss is the least recently touched one (empty ways,
/// which hold `u64::MAX`, sit at the tail and go first), so hit/miss
/// sequences equal those of a stamp-per-way LRU.
///
/// # Example
///
/// ```
/// use hmd_sim::cache::{Access, Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig { capacity: 1024, ways: 2, line_size: 64 });
/// assert_eq!(c.access(0x40), Access::Miss);
/// assert_eq!(c.access(0x40), Access::Hit);
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    /// `log2(line_size)`.
    line_shift: u32,
    /// `log2(sets)`.
    set_shift: u32,
    /// tags[set * ways ..][..ways], most recently used first; `u64::MAX`
    /// marks an empty way.
    tags: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Builds a cache from its geometry.
    ///
    /// # Panics
    ///
    /// Panics if the line size is not a positive power of two, ways is
    /// zero, capacity is smaller than one full set, or the implied set
    /// count is not a power of two.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        Self {
            config,
            line_shift: config.line_size.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            tags: vec![u64::MAX; sets * config.ways],
            hits: 0,
            misses: 0,
        }
    }

    /// The configured geometry.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Looks up `addr`, filling the line (with LRU eviction) on a miss.
    #[inline]
    pub fn access(&mut self, addr: u64) -> Access {
        let line = addr >> self.line_shift;
        let set = (line & ((1 << self.set_shift) - 1)) as usize;
        let tag = line >> self.set_shift;
        let ways = self.config.ways;
        let mut carried = tag;
        for slot in &mut self.tags[set * ways..][..ways] {
            let held = std::mem::replace(slot, carried);
            if held == tag {
                self.hits += 1;
                return Access::Hit;
            }
            carried = held;
        }
        self.misses += 1;
        Access::Miss
    }

    /// Total hits since construction or [`Self::reset_stats`].
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses since construction or [`Self::reset_stats`].
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss ratio (0 when no accesses were made).
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Zeroes hit/miss statistics (contents are kept).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Invalidates every line (e.g. on container context switch).
    pub fn flush(&mut self) {
        self.tags.fill(u64::MAX);
    }
}

/// A fully-associative TLB with LRU replacement over 4 KiB pages: a
/// one-set [`Cache`] whose lines are pages.
#[derive(Clone, Debug)]
pub struct Tlb {
    pages: Cache,
}

impl Tlb {
    /// Page size modeled by the TLB.
    pub const PAGE_SIZE: u64 = 4096;

    /// A TLB with the given number of entries.
    ///
    /// # Panics
    ///
    /// Panics for zero entries.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "TLB needs at least one entry");
        let page = Self::PAGE_SIZE as usize;
        Self {
            pages: Cache::new(CacheConfig { capacity: entries * page, ways: entries, line_size: page }),
        }
    }

    /// Translates `addr`, filling the entry on a miss.
    #[inline]
    pub fn access(&mut self, addr: u64) -> Access {
        self.pages.access(addr)
    }

    /// Total hits.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.pages.hits()
    }

    /// Total misses.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.pages.misses()
    }

    /// Invalidates every entry.
    pub fn flush(&mut self) {
        self.pages.flush();
    }

    /// Zeroes hit/miss statistics.
    pub fn reset_stats(&mut self) {
        self.pages.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmd_util::proptest_lite::collection;
    use hmd_util::{prop_assert_eq, prop_tests};

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 64 B lines
        Cache::new(CacheConfig { capacity: 512, ways: 2, line_size: 64 })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(c.access(0).is_miss());
        assert_eq!(c.access(0), Access::Hit);
        assert_eq!(c.access(63), Access::Hit); // same line
        assert!(c.access(64).is_miss()); // next line
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // set 0 holds lines whose line-index ≡ 0 (mod 4): addresses 0, 1024, 2048
        assert!(c.access(0).is_miss());
        assert!(c.access(1024).is_miss());
        // touch 0 so 1024 becomes LRU
        assert_eq!(c.access(0), Access::Hit);
        assert!(c.access(2048).is_miss()); // evicts 1024
        assert_eq!(c.access(0), Access::Hit); // still resident
        assert!(c.access(1024).is_miss()); // was evicted
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut small = Cache::new(CacheConfig { capacity: 1024, ways: 2, line_size: 64 });
        // cyclic scan over 4 KiB > 1 KiB capacity → ~100% misses after warmup
        for round in 0..8 {
            for line in 0..64u64 {
                let a = small.access(line * 64);
                if round > 0 {
                    assert!(a.is_miss());
                }
            }
        }
        assert!(small.miss_ratio() > 0.9);
    }

    #[test]
    fn working_set_within_capacity_hits() {
        let mut c = Cache::new(CacheConfig::l1d());
        for _ in 0..4 {
            for line in 0..128u64 {
                c.access(line * 64);
            }
        }
        assert!(c.miss_ratio() < 0.3);
        c.reset_stats();
        for line in 0..128u64 {
            assert_eq!(c.access(line * 64), Access::Hit);
        }
    }

    #[test]
    fn flush_invalidates() {
        let mut c = tiny();
        c.access(0);
        c.flush();
        assert!(c.access(0).is_miss());
    }

    #[test]
    fn i7_geometries_are_valid() {
        for cfg in [CacheConfig::l1d(), CacheConfig::l1i(), CacheConfig::l2(), CacheConfig::llc()]
        {
            let c = Cache::new(cfg);
            assert!(c.config().sets() > 0);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        let _ = Cache::new(CacheConfig { capacity: 960, ways: 2, line_size: 64 });
    }

    #[test]
    fn tlb_hit_miss_and_lru() {
        let mut t = Tlb::new(2);
        assert!(t.access(0).is_miss());
        assert_eq!(t.access(100), Access::Hit); // same page
        assert!(t.access(4096).is_miss());
        assert_eq!(t.access(0), Access::Hit);
        assert!(t.access(2 * 4096).is_miss()); // evicts page 1 (LRU)
        assert!(t.access(4096).is_miss());
        assert_eq!(t.hits(), 2);
    }

    #[test]
    fn tlb_flush_and_reset() {
        let mut t = Tlb::new(4);
        t.access(0);
        t.flush();
        assert!(t.access(0).is_miss());
        t.reset_stats();
        assert_eq!(t.misses(), 0);
    }

    /// The stamp-per-way LRU these models replaced: a monotonic clock
    /// stamps every touched way, a hit is a linear tag scan, and a miss
    /// evicts the way with the smallest stamp (empty ways carry stamp 0,
    /// the first of them going first). Kept as the reference the
    /// recency-ordered sets must agree with, access for access.
    struct StampLru {
        ways: usize,
        tags: Vec<u64>,
        stamps: Vec<u64>,
        clock: u64,
        hits: u64,
        misses: u64,
    }

    impl StampLru {
        fn new(sets: usize, ways: usize) -> Self {
            let slots = sets * ways;
            Self {
                ways,
                tags: vec![u64::MAX; slots],
                stamps: vec![0; slots],
                clock: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn access(&mut self, set: usize, tag: u64) -> Access {
            self.clock += 1;
            let base = set * self.ways;
            if let Some(way) = self.tags[base..base + self.ways].iter().position(|&t| t == tag) {
                self.stamps[base + way] = self.clock;
                self.hits += 1;
                return Access::Hit;
            }
            let lru = (0..self.ways).min_by_key(|&w| self.stamps[base + w]).expect("ways > 0");
            self.tags[base + lru] = tag;
            self.stamps[base + lru] = self.clock;
            self.misses += 1;
            Access::Miss
        }

        fn flush(&mut self) {
            self.tags.fill(u64::MAX);
            self.stamps.fill(0);
        }
    }

    /// One step of a reference-model run: flush about 1 step in 64,
    /// otherwise access an address drawn from a pool a few times the
    /// model's reach (so lines are reused, evicted and re-fetched),
    /// optionally lifted into the high address bits.
    type Step = (u64, u32, u64);

    fn address(step: Step, reach: u64) -> Option<u64> {
        let (raw, op, high) = step;
        (op != 0).then(|| raw % (reach * 3) + (high << 40))
    }

    prop_tests! {
        cases = 128;

        /// `Cache` and the stamp LRU give the same hit/miss sequence and
        /// counts over random valid geometries, address streams with
        /// reuse, and interleaved flushes.
        fn cache_matches_stamp_lru_reference(
            line_log in 0u32..8,
            ways in 1usize..24,
            sets_log in 0u32..7,
            steps in collection::vec((0u64..u64::MAX, 0u32..64, 0u64..4), 1..600),
        ) {
            let (line_size, sets) = (1usize << line_log, 1usize << sets_log);
            let config = CacheConfig { capacity: line_size * ways * sets, ways, line_size };
            let mut cache = Cache::new(config);
            let mut reference = StampLru::new(sets, ways);
            for (i, &step) in steps.iter().enumerate() {
                let Some(addr) = address(step, config.capacity as u64) else {
                    cache.flush();
                    reference.flush();
                    continue;
                };
                let line = addr / line_size as u64;
                let want = reference.access((line % sets as u64) as usize, line / sets as u64);
                prop_assert_eq!(cache.access(addr), want, "step {} of {:?}", i, config);
            }
            prop_assert_eq!((cache.hits(), cache.misses()), (reference.hits, reference.misses));
        }

        /// The same for the fully-associative `Tlb`.
        fn tlb_matches_stamp_lru_reference(
            entries in 1usize..40,
            steps in collection::vec((0u64..u64::MAX, 0u32..64, 0u64..4), 1..600),
        ) {
            let mut tlb = Tlb::new(entries);
            let mut reference = StampLru::new(1, entries);
            for (i, &step) in steps.iter().enumerate() {
                let Some(addr) = address(step, entries as u64 * Tlb::PAGE_SIZE) else {
                    tlb.flush();
                    reference.flush();
                    continue;
                };
                let want = reference.access(0, addr / Tlb::PAGE_SIZE);
                prop_assert_eq!(tlb.access(addr), want, "step {} with {} entries", i, entries);
            }
            prop_assert_eq!((tlb.hits(), tlb.misses()), (reference.hits, reference.misses));
        }
    }
}
