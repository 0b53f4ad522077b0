//! Property test: the content cache's byte accounting is exact — after
//! any sequence of inserts, lookups, and the evictions they trigger,
//! `used_bytes` equals the summed cost of exactly the live entries.

use std::time::Instant;

use flash_net::cache::{ContentCache, Entry, Lookup};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Insert `/f{key}` with a body of `size` bytes.
    Insert(u8, u16),
    /// Look up `/f{key}` (promotes on hit).
    Get(u8),
}

fn ops() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Bodies of 512..2048 bytes keep every entry's cost well above
        // the 256-byte floor the entry-count bound assumes, so only the
        // byte bound ever evicts (matching the cache's documented
        // invariant).
        (any::<u8>().prop_map(|k| k % 24), 512u16..2048).prop_map(|(k, s)| Op::Insert(k, s)),
        any::<u8>().prop_map(|k| Op::Get(k % 24)),
    ]
}

/// Reference model: recency-ordered (LRU first) list of live entries
/// with their costs, mirroring ContentCache's insert/evict/promote
/// rules.
#[derive(Default)]
struct Model {
    /// `(path, cost)`, least-recently-used first.
    live: Vec<(String, u64)>,
    cap: u64,
}

impl Model {
    fn used(&self) -> u64 {
        self.live.iter().map(|(_, c)| c).sum()
    }

    fn insert(&mut self, path: &str, cost: u64) {
        if let Some(pos) = self.live.iter().position(|(p, _)| p == path) {
            self.live.remove(pos);
        }
        self.live.push((path.to_string(), cost));
        while self.used() > self.cap {
            self.live.remove(0);
        }
    }

    fn get(&mut self, path: &str) -> bool {
        match self.live.iter().position(|(p, _)| p == path) {
            Some(pos) => {
                let e = self.live.remove(pos);
                self.live.push(e);
                true
            }
            None => false,
        }
    }
}

proptest! {
    /// `used_bytes` is exactly the sum of live entry costs under any
    /// random insert/get/evict sequence, and hit/miss results agree
    /// with the model.
    #[test]
    fn used_bytes_matches_live_entry_costs(script in proptest::collection::vec(ops(), 1..300)) {
        const CAP: u64 = 16 * 1024;
        let (mut cache, now) = (ContentCache::new(CAP), Instant::now());
        let mut model = Model { live: Vec::new(), cap: CAP };
        for op in script {
            match op {
                Op::Insert(k, size) => {
                    let path = format!("/f{k}");
                    let entry = Entry::build(&path, vec![0xA5; size as usize]);
                    let cost = entry.cost();
                    prop_assert!(cost > 256, "entry-count bound must stay unreachable");
                    prop_assert!(
                        cost <= cache.max_entry_bytes(),
                        "bodies in this script stay below the admission bound"
                    );
                    prop_assert!(cache.insert(path.clone(), entry), "must be admitted");
                    model.insert(&path, cost);
                }
                Op::Get(k) => {
                    let path = format!("/f{k}");
                    let hit = matches!(cache.lookup_at(&path, None, now), Lookup::Hit(_));
                    prop_assert_eq!(hit, model.get(&path), "hit/miss diverged on {}", path);
                }
            }
            prop_assert_eq!(
                cache.used_bytes(),
                model.used(),
                "byte accounting diverged"
            );
            prop_assert!(cache.used_bytes() <= CAP, "byte bound violated");
        }
    }
}
