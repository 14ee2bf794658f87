//! Property tests for [`DescCache`]: seeded random op sequences must
//! uphold the cache's three contracts no matter how lookups, failed
//! builds, generation bumps, and clears interleave.
//!
//! 1. *Soundness*: a lookup never serves a wrong table (the value always
//!    equals what a fresh build of that key would produce) and never
//!    serves an entry interned under an older generation.
//! 2. *No failure residue*: a build that returns `Err` leaves the cache
//!    exactly as it was — the next lookup of that key rebuilds.
//! 3. *Eviction keeps the newest*: overflowing the capacity drops the
//!    least-recently-used half; the most recent accesses survive.

use std::sync::Arc;

use codecomp_coding::cache::DescCache;
use codecomp_core::fault::XorShift64;

/// The "table" under test: remembers the key it was built from and a
/// build serial, so a hit is distinguishable from a rebuild.
#[derive(Debug, PartialEq)]
struct Table {
    key: Vec<u8>,
    serial: u64,
}

/// Looks `key` up, building on a miss; returns the table and whether
/// the builder ran (`true` = miss).
fn lookup(cache: &DescCache<Table>, key: &[u8], serial: u64) -> (Arc<Table>, bool) {
    let mut built = false;
    let table = cache
        .get_or_build(key, || {
            built = true;
            Ok::<_, ()>(Table {
                key: key.to_vec(),
                serial,
            })
        })
        .expect("successful build");
    (table, built)
}

#[test]
fn random_ops_never_serve_wrong_or_stale_tables() {
    const KEYS: u64 = 24;
    const CAPACITY: usize = 16;
    for seed in 1..=4u64 {
        let cache: DescCache<Table> = DescCache::new("test.props.ops", CAPACITY);
        let mut rng = XorShift64::new(0xD15C_CAFE ^ seed);
        // Generation each key's live entry was interned under, if any.
        let mut interned_gen: Vec<Option<u64>> = vec![None; KEYS as usize];
        let mut generation = 0u64;
        let mut serial = 0u64;
        for _ in 0..2_000 {
            match rng.below(100) {
                // Successful lookup.
                0..=69 => {
                    let k = rng.below(KEYS);
                    let key = [k as u8, 0xAB];
                    serial += 1;
                    let (table, built) = lookup(&cache, &key, serial);
                    assert_eq!(table.key, key, "cache served a table for the wrong key");
                    if !built {
                        // A hit must come from the current generation.
                        assert_eq!(
                            interned_gen[k as usize],
                            Some(generation),
                            "cache served a stale-generation entry for key {k}"
                        );
                    }
                    interned_gen[k as usize] = Some(generation);
                }
                // Failed build: either a hit on a live entry (the
                // builder never runs) or an error with no residue.
                70..=79 => {
                    let k = rng.below(KEYS);
                    let key = [k as u8, 0xAB];
                    let before = cache.len();
                    match cache.get_or_build(&key, || Err::<Table, ()>(())) {
                        Ok(table) => {
                            // Only reachable as a hit on a live entry.
                            assert_eq!(table.key, key);
                            assert_eq!(
                                interned_gen[k as usize],
                                Some(generation),
                                "failed-build lookup hit a stale entry for key {k}"
                            );
                        }
                        Err(()) => {
                            // No insert; at most this key's stale
                            // carcass was dropped.
                            assert!(cache.len() <= before, "failed build grew the cache");
                            interned_gen[k as usize] = None;
                        }
                    }
                }
                // Generation bump: everything goes logically invisible.
                80..=89 => {
                    cache.bump_generation();
                    generation += 1;
                    assert_eq!(cache.generation(), generation);
                    assert_eq!(cache.live_len(), 0, "bump left live entries");
                }
                // Clear: everything goes physically.
                _ => {
                    cache.clear();
                    assert!(cache.is_empty());
                    interned_gen.iter_mut().for_each(|g| *g = None);
                }
            }
            assert!(
                cache.len() <= CAPACITY,
                "cache exceeded capacity: {}",
                cache.len()
            );
            assert!(cache.live_len() <= cache.len());
        }
    }
}

#[test]
fn failed_builds_never_cached_under_random_interleaving() {
    let cache: DescCache<Table> = DescCache::new("test.props.fail", 8);
    let mut rng = XorShift64::new(0xFA11_FA11);
    let mut serial = 0u64;
    let mut failures_exercised = 0u32;
    for _ in 0..500 {
        // Bump occasionally so live entries go stale and the failure
        // path actually runs (a live hit never reaches the builder).
        if rng.chance(1, 4) {
            cache.bump_generation();
        }
        let key = [rng.below(6) as u8];
        if rng.chance(1, 2) {
            let res = cache.get_or_build(&key, || Err::<Table, ()>(()));
            if res.is_err() {
                failures_exercised += 1;
                // The failure left nothing behind: the next successful
                // lookup of this key must run the builder.
                serial += 1;
                let (_, built) = lookup(&cache, &key, serial);
                assert!(built, "lookup hit a slot left by a failed build");
            }
        } else {
            serial += 1;
            lookup(&cache, &key, serial);
        }
    }
    assert!(
        failures_exercised > 50,
        "failure path barely exercised: {failures_exercised}"
    );
}

#[test]
fn eviction_keeps_the_most_recent_accesses() {
    const CAPACITY: usize = 8;
    for seed in 1..=8u64 {
        let cache: DescCache<Table> = DescCache::new("test.props.evict", CAPACITY);
        let mut rng = XorShift64::new(0xE71C_7000 ^ seed);
        // Fill to capacity, then touch a random subset to refresh their
        // stamps, recording the access order (most recent last).
        let mut order: Vec<u8> = Vec::new();
        let touch = |order: &mut Vec<u8>, k: u8| {
            order.retain(|&x| x != k);
            order.push(k);
        };
        let mut serial = 0u64;
        for k in 0..CAPACITY as u8 {
            serial += 1;
            lookup(&cache, &[k], serial);
            touch(&mut order, k);
        }
        for _ in 0..5 {
            let k = rng.below(CAPACITY as u64) as u8;
            serial += 1;
            lookup(&cache, &[k], serial);
            touch(&mut order, k);
        }
        // Overflow: the insert makes capacity + 1 entries, and the LRU
        // sweep keeps only those *newer* than the median stamp — the
        // newest floor((capacity + 1) / 2) accesses.
        serial += 1;
        lookup(&cache, &[0xFF], serial);
        touch(&mut order, 0xFF);
        assert!(cache.len() <= CAPACITY / 2 + 1, "eviction kept too much");
        let survivors = CAPACITY.div_ceil(2);
        for &k in order.iter().rev().take(survivors) {
            serial += 1;
            let (_, built) = lookup(&cache, &[k], serial);
            assert!(
                !built,
                "recently-used key {k} was evicted (seed {seed}, order {order:?})"
            );
        }
    }
}
