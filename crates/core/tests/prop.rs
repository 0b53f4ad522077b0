//! Property test: the mapped-file cache's byte bound.

use flash_core::caches::{MappedCache, CHUNK_BYTES};
use flash_simos::FileId;
use proptest::prelude::*;

proptest! {
    /// The mapped-file cache never exceeds its byte bound, and a freshly
    /// mapped chunk is always a hit immediately afterwards.
    #[test]
    fn mapped_cache_byte_bound(
        cap_chunks in 1u64..8,
        maps in proptest::collection::vec((1u32..64, 0u64..16, 1u64..2_000_000), 1..200),
    ) {
        let cap = cap_chunks * CHUNK_BYTES;
        let mut mc = MappedCache::new(cap);
        for (f, chunk, size) in maps {
            let offset = chunk * CHUNK_BYTES;
            if offset >= size {
                continue;
            }
            mc.map(FileId(f), offset, size);
            prop_assert!(mc.mapped_bytes() <= cap, "bound violated: {} > {}", mc.mapped_bytes(), cap);
            prop_assert!(mc.hit(FileId(f), offset), "fresh mapping must hit");
        }
    }
}
