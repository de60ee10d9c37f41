//! The reachability walk over the on-device page graph, and the typed
//! [`CheckReport`] that [`PcmStore::check`](crate::PcmStore::check)
//! makes from it.
//!
//! The walk starts at the fixed pages (superblock and directory
//! buckets), follows every bucket's index chain and every value chain
//! its entries name, and tags each page with the chain that reached it
//! first. `open` derives the free set from it: every page the walk did
//! not reach is free. A page that fails verification is quarantined —
//! marked used, its `next` not followed — so one damaged page costs
//! only the keys that run through it, never the whole store.

use crate::alloc::Superblock;
use crate::directory::{bucket_page, entries};
use crate::error::{read_failure, StoreError};
use crate::page::{Page, PageDefect, PageType, FLAG_CHAIN_HEAD, NO_PAGE};
use pcm_device::ShardedPcmDevice;

/// What a reachability walk over the page graph found.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CheckReport {
    /// Device pages.
    pub pages: u32,
    /// Fixed pages: the superblock and the directory buckets.
    pub fixed: u32,
    /// Other pages the walk reached: value chains, overflow index pages
    /// and quarantined pages.
    pub reachable: u32,
    /// Pages the allocator holds free.
    pub allocator_free: u32,
    /// Pages a chain reached a second time (a cycle).
    pub revisited: Vec<u32>,
    /// Pages reached by two different chains, or by a chain and as a
    /// fixed page.
    pub shared: Vec<u32>,
    /// Pages that failed verification, with the error reading them gave.
    pub quarantined: Vec<(u32, StoreError)>,
    /// Reachable pages the allocator holds free (it would hand out live
    /// data).
    pub free_but_reachable: Vec<u32>,
    /// Unreachable pages the allocator does not hold free (leaked).
    pub leaked: Vec<u32>,
}

impl CheckReport {
    /// Pages free by derivation: all pages − fixed − reachable.
    pub fn derived_free(&self) -> u32 {
        self.pages - self.fixed - self.reachable
    }

    /// Nothing damaged or reached twice, and the allocator's free set is
    /// exactly the derived one.
    pub fn is_clean(&self) -> bool {
        self.revisited.is_empty()
            && self.shared.is_empty()
            && self.quarantined.is_empty()
            && self.free_but_reachable.is_empty()
            && self.leaked.is_empty()
            && self.allocator_free == self.derived_free()
    }
}

/// Owner tag of a page no chain has reached.
const UNSEEN: u32 = u32::MAX;

/// A finished walk: the owner tag of every page plus the report so far.
pub(crate) struct Walk {
    owner: Vec<u32>,
    chains: u32,
    pub(crate) report: CheckReport,
}

impl Walk {
    /// Walk the page graph under `sb` (whose `dir_buckets < pages`).
    pub(crate) fn run(dev: &ShardedPcmDevice, sb: Superblock) -> Walk {
        let mut w = Walk {
            owner: vec![UNSEEN; sb.pages as usize],
            chains: 0,
            report: CheckReport {
                pages: sb.pages,
                fixed: sb.fixed_pages(),
                ..CheckReport::default()
            },
        };
        // Chain 0 owns the fixed pages.
        for o in w.owner.iter_mut().take(sb.fixed_pages() as usize) {
            *o = 0;
        }
        for b in 0..sb.dir_buckets {
            w.chains += 1;
            let index_chain = w.chains;
            let mut at = bucket_page(b);
            loop {
                let (page, list) = match read(dev, at, entries) {
                    Ok(got) => got,
                    Err(e) => {
                        w.report.quarantined.push((at, e));
                        break;
                    }
                };
                for (key, head) in list {
                    w.value_chain(dev, key, head);
                }
                if page.next == NO_PAGE || !w.visit(page.next, index_chain) {
                    break;
                }
                at = page.next;
            }
        }
        w
    }

    /// Walk one value chain, checking type, key and head flag as a get
    /// does.
    fn value_chain(&mut self, dev: &ShardedPcmDevice, key: u64, head: u32) {
        self.chains += 1;
        let chain = self.chains;
        let mut at = head;
        while self.visit(at, chain) {
            let first = at == head;
            let ours = |p: &Page| {
                let head_ok = !first || p.flags & FLAG_CHAIN_HEAD != 0;
                if p.page_type == PageType::Data && p.key == key && head_ok {
                    Ok(())
                } else {
                    Err(PageDefect::WrongPage)
                }
            };
            match read(dev, at, ours) {
                Ok((page, ())) if page.next != NO_PAGE => at = page.next,
                Ok(_) => break,
                Err(e) => {
                    self.report.quarantined.push((at, e));
                    break;
                }
            }
        }
    }

    /// Tag `page` as reached by `chain`. Returns whether the walk should
    /// read it: false for a page already reached (recorded as revisited
    /// or shared) and for an id past the device (quarantined).
    fn visit(&mut self, page: u32, chain: u32) -> bool {
        match self.owner.get_mut(page as usize) {
            Some(o) if *o == UNSEEN => {
                *o = chain;
                self.report.reachable += 1;
                true
            }
            Some(o) if *o == chain => {
                self.report.revisited.push(page);
                false
            }
            Some(_) => {
                self.report.shared.push(page);
                false
            }
            None => {
                let defect = PageDefect::WrongPage;
                self.report
                    .quarantined
                    .push((page, StoreError::CorruptPage { page, defect }));
                false
            }
        }
    }

    /// The pages no chain reached: the derived free set.
    pub(crate) fn free(&self) -> impl Iterator<Item = u32> + '_ {
        (0u32..)
            .zip(&self.owner)
            .filter_map(|(p, &o)| (o == UNSEEN).then_some(p))
    }

    /// Finish the report against the allocator's free set (ascending).
    pub(crate) fn against(mut self, allocator_free: &[u32]) -> CheckReport {
        let mut held = vec![false; self.owner.len()];
        for &p in allocator_free {
            if let Some(h) = held.get_mut(p as usize) {
                *h = true;
            }
        }
        for ((p, &o), &free) in (0u32..).zip(&self.owner).zip(&held) {
            match (o == UNSEEN, free) {
                (false, true) => self.report.free_but_reachable.push(p),
                (true, false) => self.report.leaked.push(p),
                _ => {}
            }
        }
        self.report.allocator_free = allocator_free.len() as u32;
        self.report
    }
}

/// Read `page`, verify its CRC, then `check` its contents.
pub(crate) fn read<T>(
    dev: &ShardedPcmDevice,
    page: u32,
    check: impl FnOnce(&Page) -> Result<T, PageDefect>,
) -> Result<(Page, T), StoreError> {
    let report = dev
        .read_block(page as usize)
        .map_err(|e| read_failure(page, e))?;
    let corrupt = |defect| StoreError::CorruptPage { page, defect };
    let p = Page::decode(&report.data).map_err(corrupt)?;
    let t = check(&p).map_err(corrupt)?;
    Ok((p, t))
}
