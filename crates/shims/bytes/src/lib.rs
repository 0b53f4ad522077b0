//! Minimal std-only shim for the `bytes` crate.
//!
//! The build environment has no crates.io access, so this workspace
//! member provides the small API subset the Flash reproduction uses:
//! [`Bytes`] (cheaply clonable, immutable byte buffer backed by an
//! `Arc`) and [`BytesMut`] (growable buffer whose front `split_to` and
//! `freeze` hand out as `Bytes` without a copy). The
//! semantics match the real crate for this subset; only the
//! performance characteristics of exotic paths differ.

use std::ops::Deref;
use std::sync::Arc;

/// A cheaply clonable, contiguous, immutable slice of memory.
///
/// Clones share one allocation (an `Arc<[u8]>`) and may view
/// different sub-ranges of it.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Copies a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-view sharing the same allocation.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let data: Arc<[u8]> = v.into();
        let end = data.len();
        Bytes {
            data,
            start: 0,
            end,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl From<&'static str> for Bytes {
    fn from(v: &'static str) -> Self {
        Bytes::copy_from_slice(v.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Self {
        Bytes::from(v.into_bytes())
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for e in std::ascii::escape_default(b) {
                write!(f, "{}", e as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self[..] == *other
    }
}

/// A growable byte buffer supporting efficient prefix removal, whose
/// front can be split off and frozen into a [`Bytes`] without a copy.
///
/// Like the real crate's, a buffer and the views split off it share
/// one allocation. Writing needs the allocation to itself: while a
/// split-off view is alive, an append copies the live bytes into a
/// fresh allocation first; once every view has dropped, the buffer
/// takes its allocation back and appends in place. A reader that
/// splits each frame off, hands it on, and appends the next read only
/// after the frame has gone, so reuses one allocation indefinitely.
#[derive(Default)]
pub struct BytesMut {
    data: Arc<[u8]>,
    /// `data[start..end]` is the live region, `data[end..]` spare.
    start: usize,
    end: usize,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty buffer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: zeroed(cap),
            start: 0,
            end: 0,
        }
    }

    /// Live length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Makes room to append `additional` bytes in place: takes the
    /// allocation back once no split-off view shares it (moving the
    /// live bytes to its front when the spare tail is short), or moves
    /// them to a fresh one — twice the size, when it outgrew its own;
    /// just large enough, when views still share it.
    pub fn reserve(&mut self, additional: usize) {
        let len = self.len();
        let cap = match Arc::get_mut(&mut self.data) {
            Some(data) if data.len() - self.end >= additional => return,
            Some(data) if data.len() >= len + additional => {
                data.copy_within(self.start..self.end, 0);
                (self.start, self.end) = (0, len);
                return;
            }
            Some(data) => (len + additional).max(2 * data.len()),
            None => (len + additional).max(64),
        };
        let mut fresh = zeroed(cap.max(64));
        Arc::get_mut(&mut fresh).expect("a fresh allocation is unshared")[..len]
            .copy_from_slice(&self.data[self.start..self.end]);
        (self.data, self.start, self.end) = (fresh, 0, len);
    }

    /// Appends `bytes`.
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.reserve(bytes.len());
        let end = self.end + bytes.len();
        Arc::get_mut(&mut self.data).expect("reserve leaves the allocation unshared")
            [self.end..end]
            .copy_from_slice(bytes);
        self.end = end;
    }

    /// Removes and returns the first `at` bytes, keeping the rest; both
    /// share this allocation.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.len(), "split_to out of bounds");
        let head = BytesMut {
            data: Arc::clone(&self.data),
            start: self.start,
            end: self.start + at,
        };
        self.start += at;
        head
    }

    /// Drops the first `cnt` bytes (the real crate's `Buf::advance`):
    /// no view is made of them.
    ///
    /// # Panics
    ///
    /// Panics if `cnt > len`.
    pub fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance out of bounds");
        self.start += cnt;
    }

    /// Freezes into an immutable [`Bytes`] over the same allocation.
    pub fn freeze(self) -> Bytes {
        Bytes {
            data: self.data,
            start: self.start,
            end: self.end,
        }
    }
}

/// `cap` zero bytes in one allocation.
fn zeroed(cap: usize) -> Arc<[u8]> {
    std::iter::repeat_n(0, cap).collect()
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&Bytes::copy_from_slice(self), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_clone_shares_and_slices() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let c = b.clone();
        assert_eq!(&b[..], &[1, 2, 3, 4, 5]);
        assert_eq!(b, c);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn bytes_mut_split_to_keeps_remainder() {
        let mut m = BytesMut::new();
        m.extend_from_slice(b"hello world");
        let head = m.split_to(6);
        assert_eq!(&head[..], b"hello ");
        assert_eq!(&m[..], b"world");
        m.extend_from_slice(b"!");
        assert_eq!(&m[..], b"world!");
        assert_eq!(m.len(), 6);
    }

    #[test]
    fn a_frozen_front_shares_the_buffer_until_it_drops() {
        let mut m = BytesMut::with_capacity(16);
        m.extend_from_slice(b"frame rest");
        let frame = m.split_to(6).freeze();
        assert_eq!(&frame[..], b"frame ");
        // Shared: the append copies, and the frame is untouched.
        m.extend_from_slice(b"!");
        assert_eq!(&m[..], b"rest!");
        assert_eq!(&frame[..], b"frame ");
        drop(frame);
        // Alone again: the next appends reuse the allocation in place.
        let _ = m.split_to(m.len());
        let before = m.data.as_ptr();
        for _ in 0..100 {
            m.extend_from_slice(b"0123456789");
            assert_eq!(&m.split_to(10).freeze()[..], b"0123456789");
        }
        assert_eq!(m.data.as_ptr(), before);
    }

    /// Views that outlive the appends behind them cost one right-sized
    /// allocation each, not a doubling one.
    #[test]
    fn appends_behind_live_views_do_not_grow_the_buffer() {
        let mut m = BytesMut::new();
        let views: Vec<Bytes> = (0..1000)
            .map(|_| {
                m.extend_from_slice(b"3\r\n");
                m.split_to(3).freeze()
            })
            .collect();
        assert!(views.iter().all(|v| &v[..] == b"3\r\n"));
        assert!(m.data.len() <= 64, "{} bytes", m.data.len());
    }

    #[test]
    fn bytes_mut_compaction_preserves_content() {
        let mut m = BytesMut::new();
        for i in 0..1000u32 {
            m.extend_from_slice(&i.to_le_bytes());
            let out = m.split_to(4);
            assert_eq!(out[..], i.to_le_bytes());
        }
        assert!(m.is_empty());
    }
}
