//! Page allocation: a derived, in-memory free set.
//!
//! The device holds no free list. [`PcmStore::open`](crate::PcmStore::open)
//! walks superblock → directory → value chains and marks every page it
//! reaches; every other page is free. The [`Allocator`] keeps that set
//! as one bit per page under one mutex and hands pages out next-fit: a
//! rotating cursor resumes where the last allocation stopped, so a freed
//! page is reused last, not first, and data-page wear spreads over all
//! free space. Nothing here touches the device.
//!
//! Crash consistency needs no ordering in here (the llfree-rs model:
//! the persistent state is the page graph alone). A put writes its new
//! chain, flips the directory, then releases the old chain in memory; a
//! crash at any point leaves only unreachable pages, which the next
//! `open` finds free.
//!
//! Lock order: callers may hold a directory stripe lock when calling in
//! here; the allocator lock nests inside stripes, and no bank lock is
//! ever taken while it is held.

use crate::error::StoreError;
use crate::page::{Page, PageDefect, PageType};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Magic ("PCMSTOR1", little-endian) identifying a formatted device.
pub const MAGIC: u64 = u64::from_le_bytes(*b"PCMSTOR1");
/// On-device format version (2: derived free space, no free list).
pub const VERSION: u32 = 2;

/// The superblock contents (page 0 payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Superblock {
    /// Total pages (= device blocks).
    pub pages: u32,
    /// Hash-directory bucket count (bucket `b` lives at page `1 + b`).
    pub dir_buckets: u32,
}

impl Superblock {
    /// Pages at fixed ids: the superblock and the directory buckets.
    pub fn fixed_pages(self) -> u32 {
        1 + self.dir_buckets
    }

    /// Serialize into a page image.
    pub fn to_page(self) -> Page {
        let mut p = Page::empty(PageType::Super);
        p.payload[0..8].copy_from_slice(&MAGIC.to_le_bytes());
        p.payload[8..12].copy_from_slice(&VERSION.to_le_bytes());
        p.payload[12..16].copy_from_slice(&self.pages.to_le_bytes());
        p.payload[16..20].copy_from_slice(&self.dir_buckets.to_le_bytes());
        p.len = 20;
        p
    }

    /// Parse from a decoded page (which must be [`PageType::Super`]).
    /// The version is checked before the layout, so an older format
    /// reports [`StoreError::BadVersion`].
    pub fn from_page(p: &Page) -> Result<Superblock, StoreError> {
        let corrupt = StoreError::CorruptPage {
            page: 0,
            defect: PageDefect::WrongPage,
        };
        let word = |at: usize| {
            u32::from_le_bytes([
                p.payload[at],
                p.payload[at + 1],
                p.payload[at + 2],
                p.payload[at + 3],
            ])
        };
        let mut magic = [0u8; 8];
        magic.copy_from_slice(&p.payload[0..8]);
        if p.page_type != PageType::Super || u64::from_le_bytes(magic) != MAGIC {
            return Err(corrupt);
        }
        let version = word(8);
        if version != VERSION {
            return Err(StoreError::BadVersion(version));
        }
        if p.len != 20 {
            return Err(corrupt);
        }
        Ok(Superblock {
            pages: word(12),
            dir_buckets: word(16),
        })
    }
}

/// One bit per page (set = free) and the next-fit cursor.
#[derive(Debug)]
struct FreeSet {
    pages: u32,
    bits: Vec<u64>,
    free: u32,
    cursor: usize,
}

impl FreeSet {
    /// Take the first free page at or after the cursor, wrapping once.
    fn take_next(&mut self) -> Option<u32> {
        let words = self.bits.len();
        let mut w = self.cursor / 64 % words;
        let mut mask = !0u64 << (self.cursor % 64);
        for _ in 0..=words {
            let hit = self.bits[w] & mask;
            if hit != 0 {
                let bit = hit.trailing_zeros();
                let page = w * 64 + bit as usize;
                self.bits[w] &= !(1u64 << bit);
                self.free -= 1;
                self.cursor = page + 1;
                return Some(page as u32);
            }
            w = (w + 1) % words;
            mask = !0;
        }
        None
    }

    /// Mark `page` free. A page already free, or past the end, is left
    /// as it is, so the count always matches the bits.
    fn release(&mut self, page: u32) {
        if page < self.pages {
            let (w, bit) = (page as usize / 64, 1u64 << (page % 64));
            self.free += u32::from(self.bits[w] & bit == 0);
            self.bits[w] |= bit;
        }
    }
}

/// The page allocator: the in-memory free set behind one mutex.
#[derive(Debug)]
pub struct Allocator {
    state: Mutex<FreeSet>,
}

impl Allocator {
    /// An allocator over `pages` pages whose free pages are `free`. Ids
    /// `>= pages` are ignored and repeats count once, so the count
    /// always matches the bits. The cursor starts at page 0.
    pub fn new(pages: u32, free: impl IntoIterator<Item = u32>) -> Allocator {
        let mut set = FreeSet {
            pages,
            bits: vec![0; (pages as usize).div_ceil(64).max(1)],
            free: 0,
            cursor: 0,
        };
        for p in free {
            set.release(p);
        }
        Allocator {
            state: Mutex::new(set),
        }
    }

    /// The single allocator-lock acquisition site. Poisoning is
    /// recovered by taking the inner state: every mutation keeps the
    /// bits and the count in step, so any state a panicking thread left
    /// behind is consistent.
    fn lock_state(&self) -> MutexGuard<'_, FreeSet> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Free pages.
    pub fn free_pages(&self) -> u32 {
        self.lock_state().free
    }

    /// The free page ids, ascending.
    pub fn free_set(&self) -> Vec<u32> {
        let st = self.lock_state();
        let mut out = Vec::with_capacity(st.free as usize);
        for (w, &word) in st.bits.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                out.push((w * 64) as u32 + rest.trailing_zeros());
                rest &= rest - 1;
            }
        }
        out
    }

    /// Take `n` pages next-fit in one critical section, or none at all
    /// ([`StoreError::StoreFull`]) when fewer than `n` are free. The
    /// count matches the bits, so `n <= free` finds `n` pages.
    pub fn allocate_chain(&self, n: usize) -> Result<Vec<u32>, StoreError> {
        let mut st = self.lock_state();
        if (st.free as usize) < n {
            return Err(StoreError::StoreFull);
        }
        Ok((0..n).filter_map(|_| st.take_next()).collect())
    }

    /// Return pages to the free set (see [`Allocator::new`] for ids
    /// that are already free or out of range).
    pub fn free_chain(&self, pages: &[u32]) {
        let mut st = self.lock_state();
        for &p in pages {
            st.release(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn superblock_round_trips() {
        let sb = Superblock {
            pages: 128,
            dir_buckets: 16,
        };
        let page = sb.to_page();
        let decoded = Page::decode(&page.encode()).unwrap();
        assert_eq!(Superblock::from_page(&decoded), Ok(sb));
    }

    #[test]
    fn superblock_rejects_bad_magic_and_version() {
        let sb = Superblock {
            pages: 8,
            dir_buckets: 2,
        };
        let mut page = sb.to_page();
        page.payload[0] ^= 0xFF;
        assert!(matches!(
            Superblock::from_page(&page),
            Err(StoreError::CorruptPage { page: 0, .. })
        ));

        let mut page = sb.to_page();
        page.payload[8] = 99;
        assert_eq!(
            Superblock::from_page(&page),
            Err(StoreError::BadVersion(99))
        );

        // A version-1 superblock (28 bytes: it also held the free-list
        // head and count) is reported as its version, not as corrupt.
        let mut page = sb.to_page();
        page.payload[8..12].copy_from_slice(&1u32.to_le_bytes());
        page.len = 28;
        assert_eq!(Superblock::from_page(&page), Err(StoreError::BadVersion(1)));
    }

    #[test]
    fn next_fit_reuses_freed_pages_last() {
        let alloc = Allocator::new(200, 10..200);
        assert_eq!(alloc.free_pages(), 190);
        assert_eq!(alloc.allocate_chain(3), Ok(vec![10, 11, 12]));
        alloc.free_chain(&[10, 11]);
        // The cursor moves on past the freed pages and wraps to them only
        // after the rest of the free space, crossing word boundaries.
        assert_eq!(alloc.allocate_chain(2), Ok(vec![13, 14]));
        let rest = alloc.allocate_chain(187).unwrap();
        assert_eq!(rest[..2], [15, 16]);
        assert_eq!(rest[rest.len() - 3..], [199, 10, 11]);
        assert_eq!(alloc.free_pages(), 0);
        assert_eq!(alloc.allocate_chain(1), Err(StoreError::StoreFull));
    }

    #[test]
    fn double_free_and_out_of_range_keep_the_count_exact() {
        let alloc = Allocator::new(70, [1, 2, 69, 70, 2]);
        assert_eq!(alloc.free_set(), vec![1, 2, 69]);
        alloc.free_chain(&[1, 5, 5, 100, 500]);
        assert_eq!(alloc.free_set(), vec![1, 2, 5, 69]);
        assert_eq!(alloc.free_pages(), 4);
        assert_eq!(alloc.allocate_chain(5), Err(StoreError::StoreFull));
        assert_eq!(alloc.free_pages(), 4, "a refused allocation takes nothing");
    }
}
