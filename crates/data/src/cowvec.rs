//! A copy-on-write chunked vector: the one structural-sharing idiom of
//! the workspace.
//!
//! [`CowVec`] stores its elements in fixed-size pages (by default of
//! [`COW_PAGE`] elements), each behind an [`Arc`]. That gives three
//! costs at once:
//!
//! * **clone is O(pages)** — one reference-count increment per page, no
//!   element is copied and nothing is allocated per element;
//! * **read is plain indexing** — `v[i]` is one division into the page
//!   spine and one slice index, no locking and no reference counting;
//! * **write copies at most one page** — [`CowVec::make_mut`] and
//!   [`CowVec::push`] go through [`Arc::make_mut`], which mutates in
//!   place when the page is unshared and copies exactly that page when
//!   an older clone still holds it.
//!
//! A writer that clones the whole structure, changes `k` elements and
//! publishes the clone therefore pays O(pages + k · page) instead of
//! O(len), and every page it did not touch stays physically shared with
//! the previous version. The position logs of the dynamic state, its
//! object rows and the serving layer's id map are all built on it.
//!
//! Callers that only *sometimes* change an element must read first and
//! call `make_mut` only when the value actually changes — otherwise
//! every visited page is copied and copy-on-write degrades to a full
//! copy.

use std::ops::Index;
use std::sync::Arc;

/// Default elements per page. A clone costs `len / PAGE` reference-count
/// increments; a copy-on-write touch copies at most `PAGE` elements.
pub const COW_PAGE: usize = 64;

/// A growable vector stored in structurally shared pages of `PAGE`
/// elements (see the module docs for the cost model). Elements that are
/// expensive to clone want smaller pages: a touch clones the whole page.
///
/// Invariant: every page except the last holds exactly `PAGE` elements,
/// and the last page is non-empty.
#[derive(Debug, Clone)]
pub struct CowVec<T, const PAGE: usize = COW_PAGE> {
    pages: Vec<Arc<Vec<T>>>,
    len: usize,
}

impl<T, const PAGE: usize> Default for CowVec<T, PAGE> {
    fn default() -> Self {
        CowVec {
            pages: Vec::new(),
            len: 0,
        }
    }
}

impl<T, const PAGE: usize> CowVec<T, PAGE> {
    /// An empty vector (no pages).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds no element.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The element at `index`, or `None` past the end.
    #[inline]
    pub fn get(&self, index: usize) -> Option<&T> {
        self.pages.get(index / PAGE)?.get(index % PAGE)
    }

    /// The elements as consecutive page slices, in index order.
    /// Concatenating the slices reproduces the flat sequence exactly.
    pub fn pages(&self) -> impl Iterator<Item = &[T]> {
        self.pages.iter().map(|page| page.as_slice())
    }

    /// Iterates over all elements in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.pages.iter().flat_map(|page| page.iter())
    }

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Whether page `page` is physically the same allocation in `self`
    /// and `other` — the observable form of structural sharing. `false`
    /// when either side has no such page.
    pub fn shares_page(&self, other: &CowVec<T, PAGE>, page: usize) -> bool {
        match (self.pages.get(page), other.pages.get(page)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl<T: Clone, const PAGE: usize> CowVec<T, PAGE> {
    /// Builds a vector holding `items`, in order. Every page is
    /// allocated at its exact size, so a short vector costs what a `Vec`
    /// of it would.
    pub fn from_slice(items: &[T]) -> Self {
        CowVec {
            pages: items
                .chunks(PAGE)
                .map(|page| Arc::new(page.to_vec()))
                .collect(),
            len: items.len(),
        }
    }

    /// Appends one element in O(1) amortised time. When an older clone
    /// still shares the last page, that page alone is copied.
    pub fn push(&mut self, value: T) {
        match self.pages.last_mut() {
            Some(last) if last.len() < PAGE => Arc::make_mut(last).push(value),
            _ => {
                let mut page = Vec::with_capacity(PAGE);
                page.push(value);
                self.pages.push(Arc::new(page));
            }
        }
        self.len += 1;
    }

    /// Mutable access to the element at `index`, copying its page first
    /// when an older clone still shares it (copy-on-write).
    ///
    /// # Panics
    /// Panics when `index >= len`.
    #[inline]
    pub fn make_mut(&mut self, index: usize) -> &mut T {
        assert!(
            index < self.len,
            "index {index} out of bounds (len {})",
            self.len
        );
        &mut Arc::make_mut(&mut self.pages[index / PAGE])[index % PAGE]
    }
}

impl<T, const PAGE: usize> Index<usize> for CowVec<T, PAGE> {
    type Output = T;

    #[inline]
    fn index(&self, index: usize) -> &T {
        &self.pages[index / PAGE][index % PAGE]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_index_and_pages_round_trip() {
        for n in [0, 1, COW_PAGE - 1, COW_PAGE, COW_PAGE + 1, 5 * COW_PAGE + 3] {
            let v: CowVec<usize> = CowVec::from_slice(&(0..n).collect::<Vec<_>>());
            assert_eq!(v.len(), n);
            assert_eq!(v.is_empty(), n == 0);
            assert_eq!(
                v.iter().copied().collect::<Vec<_>>(),
                (0..n).collect::<Vec<_>>()
            );
            for i in 0..n {
                assert_eq!(v[i], i);
                assert_eq!(v.get(i), Some(&i));
            }
            assert_eq!(v.get(n), None);
            let pages: Vec<&[usize]> = v.pages().collect();
            assert_eq!(pages.len(), n.div_ceil(COW_PAGE));
            assert_eq!(v.page_count(), pages.len());
            for page in pages.iter().take(pages.len().saturating_sub(1)) {
                assert_eq!(page.len(), COW_PAGE);
            }
        }
    }

    #[test]
    fn clone_shares_every_page_and_writes_copy_one() {
        let mut v: CowVec<u64> = CowVec::from_slice(&(0..4 * COW_PAGE as u64).collect::<Vec<_>>());
        let snapshot = v.clone();
        for p in 0..v.page_count() {
            assert!(v.shares_page(&snapshot, p), "page {p}");
        }
        *v.make_mut(COW_PAGE + 5) = 9999;
        assert_eq!(v[COW_PAGE + 5], 9999);
        assert_eq!(snapshot[COW_PAGE + 5], COW_PAGE as u64 + 5);
        let unshared: Vec<usize> = (0..v.page_count())
            .filter(|&p| !v.shares_page(&snapshot, p))
            .collect();
        assert_eq!(unshared, vec![1]);
        // A second write to the now-private page does not copy again.
        let before = v.pages().nth(1).unwrap().as_ptr();
        *v.make_mut(COW_PAGE + 6) = 1;
        assert_eq!(v.pages().nth(1).unwrap().as_ptr(), before);
    }

    #[test]
    fn push_onto_a_shared_tail_leaves_the_clone_untouched() {
        let mut v: CowVec<u8> = CowVec::from_slice(&(0..(COW_PAGE + 3) as u8).collect::<Vec<_>>());
        let snapshot = v.clone();
        v.push(200);
        assert_eq!(snapshot.len(), COW_PAGE + 3);
        assert_eq!(v.len(), COW_PAGE + 4);
        assert!(v.shares_page(&snapshot, 0));
        assert!(!v.shares_page(&snapshot, 1));
        assert!(snapshot.iter().all(|&b| b != 200));
        assert!(!v.shares_page(&snapshot, 2), "no such page on either side");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn make_mut_past_the_end_panics() {
        let mut v: CowVec<u8> = CowVec::from_slice(&[0, 1, 2]);
        let _ = v.make_mut(3);
    }
}
