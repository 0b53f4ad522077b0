//! Property test: model-check the generic LRU against a reference
//! implementation.

use flash_net::lru::LruCache;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(u8, u32),
    Get(u8),
    Pop,
}

fn ops() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
        any::<u8>().prop_map(Op::Get),
        Just(Op::Pop),
    ]
}

/// Reference LRU: a Vec ordered least→most recently used.
#[derive(Default)]
struct Model {
    items: Vec<(u8, u32)>,
    cap: usize,
}

impl Model {
    fn insert(&mut self, k: u8, v: u32) -> Option<(u8, u32)> {
        if let Some(pos) = self.items.iter().position(|(mk, _)| *mk == k) {
            let old = self.items.remove(pos);
            self.items.push((k, v));
            return Some(old);
        }
        let evicted = if self.items.len() >= self.cap {
            Some(self.items.remove(0))
        } else {
            None
        };
        self.items.push((k, v));
        evicted
    }

    fn get(&mut self, k: u8) -> Option<u32> {
        let pos = self.items.iter().position(|(mk, _)| *mk == k)?;
        let item = self.items.remove(pos);
        self.items.push(item);
        Some(item.1)
    }

    fn pop(&mut self) -> Option<(u8, u32)> {
        if self.items.is_empty() {
            None
        } else {
            Some(self.items.remove(0))
        }
    }
}

proptest! {
    /// Every operation on the real LRU agrees with the reference model.
    #[test]
    fn lru_matches_reference_model(
        cap in 1usize..12,
        script in proptest::collection::vec(ops(), 1..400),
    ) {
        let mut real = LruCache::new(cap);
        let mut model = Model { items: Vec::new(), cap };
        for op in script {
            match op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(real.insert(k, v), model.insert(k, v));
                }
                Op::Get(k) => {
                    prop_assert_eq!(real.get(&k).copied(), model.get(k));
                }
                Op::Pop => {
                    prop_assert_eq!(real.pop_lru(), model.pop());
                }
            }
            prop_assert_eq!(real.len(), model.items.len());
            prop_assert!(real.len() <= cap);
        }
    }
}
