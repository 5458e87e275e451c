//! Paged shadow tables: the shared fast-path substrate for byte-addressed
//! sparse state.
//!
//! The emulator's data [`Memory`](crate::Memory) (`u8` cells), the exact
//! deadness analysis's liveness bits (`u8` cells, one per byte address) and
//! the last-writer tables of the windowed analysis and the pipeline (`u64`
//! cells holding `seq + 1`) all face the same access pattern: a huge sparse
//! 64-bit address space touched through small (1–8 byte) accesses with
//! strong spatial locality. The seed implementations paid one `HashMap`
//! probe *per byte*; a [`PagedShadow`] pays at most one probe *per
//! access* — and usually none:
//!
//! * cells live in lazily allocated 4 KiB-cell pages, so an access that
//!   stays inside one page (every aligned 1/2/4/8-byte access does) resolves
//!   the page once and then indexes a plain slice;
//! * a one-entry page-handle cache short-circuits the page lookup entirely
//!   for the common same-page-as-last-time case, turning the hot loop into
//!   `compare + index`;
//! * pages are stored in a dense `Vec` with a side `HashMap` from page
//!   number to slot, so the handle cache is a plain index, no lifetimes or
//!   unsafe required.
//!
//! Accesses that cross a page boundary (possible only for unaligned wide
//! accesses) take a byte-at-a-time fallback; [`PagedShadow::crosses_page`]
//! is the cheap test callers use to pick the path.

use std::cell::Cell;
use std::collections::HashMap;

/// log2 of the page size in cells.
pub const PAGE_BITS: u32 = 12;
/// Cells per page (4096).
pub const PAGE_CELLS: usize = 1 << PAGE_BITS;
/// Mask extracting the in-page offset from an address.
pub const PAGE_MASK: u64 = (PAGE_CELLS as u64) - 1;

/// Sentinel page number for the empty handle cache: no real page has this
/// number because page numbers are addresses shifted right by `PAGE_BITS`.
const NO_PAGE: u64 = u64::MAX;

/// A sparse table of `T` cells over the full 64-bit address space, organized
/// as lazily allocated pages of [`PAGE_CELLS`] cells.
///
/// Absent cells read as `T::default()`. See the [module docs](self) for the
/// performance rationale.
#[derive(Debug, Clone)]
pub struct PagedShadow<T> {
    /// Dense page storage; never shrinks.
    pages: Vec<Box<[T; PAGE_CELLS]>>,
    /// Page number → slot in `pages`.
    index: HashMap<u64, u32>,
    /// Last resolved `(page number, slot)`, shared by reads and writes.
    cache: Cell<(u64, u32)>,
}

impl<T: Copy + Default> Default for PagedShadow<T> {
    fn default() -> Self {
        PagedShadow::new()
    }
}

impl<T: Copy + Default> PagedShadow<T> {
    /// Creates an empty shadow table.
    #[must_use]
    pub fn new() -> PagedShadow<T> {
        PagedShadow { pages: Vec::new(), index: HashMap::new(), cache: Cell::new((NO_PAGE, 0)) }
    }

    /// The in-page cell offset of `addr`.
    #[inline]
    #[must_use]
    pub fn offset(addr: u64) -> usize {
        (addr & PAGE_MASK) as usize
    }

    /// Whether an access of `len` cells starting at `addr` crosses a page
    /// boundary (and therefore needs the cell-at-a-time fallback).
    #[inline]
    #[must_use]
    pub fn crosses_page(addr: u64, len: u64) -> bool {
        (addr & PAGE_MASK) + len > PAGE_CELLS as u64
    }

    /// The page holding `addr`, if it has been materialized.
    #[inline]
    pub fn page(&self, addr: u64) -> Option<&[T; PAGE_CELLS]> {
        let pno = addr >> PAGE_BITS;
        let (cached_pno, cached_slot) = self.cache.get();
        if cached_pno == pno {
            return Some(&self.pages[cached_slot as usize]);
        }
        let &slot = self.index.get(&pno)?;
        self.cache.set((pno, slot));
        Some(&self.pages[slot as usize])
    }

    /// The page holding `addr`, materializing it (zero/default-filled) on
    /// first touch.
    #[inline]
    pub fn page_mut(&mut self, addr: u64) -> &mut [T; PAGE_CELLS] {
        let pno = addr >> PAGE_BITS;
        let (cached_pno, cached_slot) = self.cache.get();
        let slot = if cached_pno == pno {
            cached_slot
        } else {
            let slot = match self.index.get(&pno) {
                Some(&slot) => slot,
                None => {
                    let slot =
                        u32::try_from(self.pages.len()).expect("shadow page count fits in u32");
                    self.pages.push(Box::new([T::default(); PAGE_CELLS]));
                    self.index.insert(pno, slot);
                    slot
                }
            };
            self.cache.set((pno, slot));
            slot
        };
        &mut self.pages[slot as usize]
    }

    /// Reads the cell at `addr`; absent cells read as `T::default()`.
    #[inline]
    #[must_use]
    pub fn get(&self, addr: u64) -> T {
        self.page(addr).map_or_else(T::default, |p| p[Self::offset(addr)])
    }

    /// Writes the cell at `addr`.
    #[inline]
    pub fn set(&mut self, addr: u64, value: T) {
        self.page_mut(addr)[Self::offset(addr)] = value;
    }

    /// The `len` cells starting at `addr` as one slice, when the run does
    /// not cross a page boundary and the page exists. `None` means every
    /// cell in the run still holds `T::default()` (page not materialized);
    /// callers must use the cell-at-a-time fallback for page-crossing runs.
    #[inline]
    pub fn span(&self, addr: u64, len: u64) -> Option<&[T]> {
        debug_assert!(!Self::crosses_page(addr, len));
        let off = Self::offset(addr);
        self.page(addr).map(|p| &p[off..off + len as usize])
    }

    /// Mutable access to the `len` cells starting at `addr`, materializing
    /// the page. The run must not cross a page boundary.
    #[inline]
    pub fn span_mut(&mut self, addr: u64, len: u64) -> &mut [T] {
        debug_assert!(!Self::crosses_page(addr, len));
        let off = Self::offset(addr);
        &mut self.page_mut(addr)[off..off + len as usize]
    }

    /// Number of materialized pages (for capacity diagnostics).
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_cells_read_default() {
        let s: PagedShadow<u64> = PagedShadow::new();
        assert_eq!(s.get(0), 0);
        assert_eq!(s.get(u64::MAX), 0);
        assert!(s.page(0x5000).is_none());
        assert_eq!(s.resident_pages(), 0);
    }

    #[test]
    fn set_get_roundtrip_and_lazy_pages() {
        let mut s: PagedShadow<u64> = PagedShadow::new();
        s.set(0x1234, 7);
        s.set(0xdead_beef, 9);
        assert_eq!(s.get(0x1234), 7);
        assert_eq!(s.get(0x1235), 0);
        assert_eq!(s.get(0xdead_beef), 9);
        assert_eq!(s.resident_pages(), 2);
    }

    #[test]
    fn page_crossing_detection() {
        assert!(!PagedShadow::<u8>::crosses_page(0x1000, 8));
        assert!(!PagedShadow::<u8>::crosses_page(0x1ff8, 8));
        assert!(PagedShadow::<u8>::crosses_page(0x1ff9, 8));
        assert!(PagedShadow::<u8>::crosses_page(0x1fff, 2));
        assert!(!PagedShadow::<u8>::crosses_page(0x1fff, 1));
    }

    #[test]
    fn spans_read_and_write_within_a_page() {
        let mut s: PagedShadow<u32> = PagedShadow::new();
        assert!(s.span(0x4000, 8).is_none(), "span of an absent page is None");
        s.span_mut(0x4000, 4).copy_from_slice(&[1, 2, 3, 4]);
        assert_eq!(s.span(0x4000, 6).unwrap(), &[1, 2, 3, 4, 0, 0]);
        assert_eq!(s.get(0x4003), 4);
    }

    #[test]
    fn handle_cache_survives_interleaved_pages() {
        let mut s: PagedShadow<u8> = PagedShadow::new();
        // Ping-pong between two pages; the one-entry cache must stay correct.
        for i in 0..200u64 {
            s.set(0x1000 + i, i as u8);
            s.set(0x9000 + i, (i + 1) as u8);
        }
        for i in 0..200u64 {
            assert_eq!(s.get(0x1000 + i), i as u8);
            assert_eq!(s.get(0x9000 + i), (i + 1) as u8);
        }
        assert_eq!(s.resident_pages(), 2);
    }

    #[test]
    fn clone_is_independent() {
        let mut a: PagedShadow<u8> = PagedShadow::new();
        a.set(0x2000, 5);
        let mut b = a.clone();
        b.set(0x2000, 9);
        assert_eq!(a.get(0x2000), 5);
        assert_eq!(b.get(0x2000), 9);
    }

    #[test]
    fn top_of_address_space_is_addressable() {
        let mut s: PagedShadow<u8> = PagedShadow::new();
        s.set(u64::MAX, 0xff);
        assert_eq!(s.get(u64::MAX), 0xff);
        assert_eq!(s.get(u64::MAX - 1), 0);
    }
}
