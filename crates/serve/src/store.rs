//! Epoch-snapshot state store: single writer, lock-free readers.
//!
//! The store is a publication chain of epochs. Each [`Node`] names one
//! epoch's snapshot through a [`Weak`] reference and links to its
//! successor through a [`OnceLock`]. The single [`Publisher`] owns the
//! newest snapshot and appends by setting the tail's link; every
//! [`Reader`] holds a cursor into the chain and advances it by chasing
//! links.
//!
//! ## Happens-before
//!
//! `OnceLock::set` publishes with release semantics and `OnceLock::get`
//! observes with acquire semantics, so everything the writer did before
//! `publish` — in particular, building the snapshot's state — is
//! visible to any reader that observes the link. A reader therefore
//! always sees a fully constructed snapshot for whichever epoch its
//! cursor reaches, and never a torn or in-progress one. The query path
//! takes no lock anywhere: `Reader::latest` is a bounded walk of
//! already-published links (the full argument is in DESIGN.md §12).
//!
//! ## Reclamation
//!
//! A snapshot lives exactly as long as something holds it strongly: the
//! publisher (the newest epoch only) and the queries answering on it.
//! Cursors hold chain links, which name their snapshots only weakly, so
//! a reader parked at an old epoch keeps a few words per later epoch
//! alive, never a world. [`Reader::epochs_live`] counts the snapshots
//! still allocated. The publisher replaces its snapshot only after
//! linking the successor, so a reader whose upgrade fails finds the next
//! link and walks on; when the publisher is dropped, its last snapshot
//! is parked in the tail node for readers that still look.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};

/// One immutable published state, tagged with its epoch.
///
/// Epoch 0 is the initial state the store was created with; every
/// `publish` increments the epoch by exactly one.
#[derive(Debug)]
pub struct Snapshot<T> {
    /// Monotone publication counter (0 = initial state).
    pub epoch: u64,
    /// The state frozen at this epoch.
    pub state: T,
    /// Counts this snapshot in its store's live gauge while allocated.
    _live: LiveToken,
}

/// One unit of a store's live-snapshot gauge, returned on drop.
#[derive(Debug)]
struct LiveToken(Arc<AtomicUsize>);

impl LiveToken {
    fn new(gauge: &Arc<AtomicUsize>) -> LiveToken {
        // pinocchio-lint: allow(atomic-ordering) -- an operator gauge; no data is published through it, so no ordering is needed
        gauge.fetch_add(1, Ordering::Relaxed);
        LiveToken(Arc::clone(gauge))
    }
}

impl Drop for LiveToken {
    fn drop(&mut self) {
        // pinocchio-lint: allow(atomic-ordering) -- an operator gauge; no data is published through it, so no ordering is needed
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A link of the publication chain.
#[derive(Debug)]
struct Node<T> {
    snapshot: Weak<Snapshot<T>>,
    next: OnceLock<Arc<Node<T>>>,
    /// Set once, on the tail, when the publisher is dropped: its last
    /// snapshot, kept for readers that still look.
    last: OnceLock<Arc<Snapshot<T>>>,
}

impl<T> Node<T> {
    fn new(snapshot: &Arc<Snapshot<T>>) -> Arc<Node<T>> {
        Arc::new(Node {
            snapshot: Arc::downgrade(snapshot),
            next: OnceLock::new(),
            last: OnceLock::new(),
        })
    }
}

/// The writing half: owned by exactly one thread (not `Clone`), appends
/// snapshots to the chain and owns the newest one.
#[derive(Debug)]
pub struct Publisher<T> {
    tail: Arc<Node<T>>,
    current: Arc<Snapshot<T>>,
    gauge: Arc<AtomicUsize>,
}

/// The reading half: a cheap-to-clone cursor into the chain. `latest`
/// advances the cursor to the newest published snapshot without taking
/// any lock.
#[derive(Debug, Clone)]
pub struct Reader<T> {
    cursor: Arc<Node<T>>,
    gauge: Arc<AtomicUsize>,
}

impl<T> Publisher<T> {
    /// Creates a store holding `initial` as epoch 0, returning the
    /// unique publisher and a reader positioned at epoch 0.
    pub fn new(initial: T) -> (Publisher<T>, Reader<T>) {
        let gauge = Arc::new(AtomicUsize::new(0));
        let current = Arc::new(Snapshot {
            epoch: 0,
            state: initial,
            _live: LiveToken::new(&gauge),
        });
        let node = Node::new(&current);
        (
            Publisher {
                tail: Arc::clone(&node),
                current,
                gauge: Arc::clone(&gauge),
            },
            Reader {
                cursor: node,
                gauge,
            },
        )
    }

    /// Publishes `state` as the next epoch and returns that epoch.
    ///
    /// This is the linearisation point of an update batch: after
    /// `publish` returns, every reader that calls `latest` observes this
    /// epoch (or a later one), fully constructed. The previous epoch is
    /// freed here unless a query still holds it.
    pub fn publish(&mut self, state: T) -> u64 {
        let epoch = self.current.epoch + 1;
        let snapshot = Arc::new(Snapshot {
            epoch,
            state,
            _live: LiveToken::new(&self.gauge),
        });
        let node = Node::new(&snapshot);
        // `set` can only fail if the link was already taken, which would
        // require a second publisher — impossible: `Publisher` is not
        // `Clone` and `publish` takes `&mut self`.
        let published = self.tail.next.set(Arc::clone(&node)).is_ok();
        debug_assert!(published, "single-writer invariant violated");
        self.tail = node;
        // Only now, with the successor linked, let the old epoch go.
        self.current = snapshot;
        epoch
    }

    /// The most recently published epoch.
    pub fn epoch(&self) -> u64 {
        self.current.epoch
    }

    /// A snapshot of the most recently published state.
    pub fn current(&self) -> Arc<Snapshot<T>> {
        Arc::clone(&self.current)
    }
}

impl<T> Drop for Publisher<T> {
    fn drop(&mut self) {
        // The tail has no successor, so this is its only `set`.
        let _ = self.tail.last.set(Arc::clone(&self.current));
    }
}

impl<T> Reader<T> {
    /// Advances to, and returns, the newest published snapshot.
    ///
    /// Lock-free: a finite chase of `OnceLock::get` loads — at most one
    /// hop per epoch published since this reader last looked. A failed
    /// upgrade means the publisher moved on after linking a successor,
    /// so the walk resumes; it cannot fail at the final tail, whose
    /// snapshot the publisher (or, once it is gone, the tail) owns.
    pub fn latest(&mut self) -> Arc<Snapshot<T>> {
        loop {
            while let Some(next) = self.cursor.next.get() {
                self.cursor = Arc::clone(next);
            }
            if let Some(snapshot) = self.cursor.snapshot.upgrade() {
                return snapshot;
            }
            if let Some(last) = self.cursor.last.get() {
                return Arc::clone(last);
            }
            std::hint::spin_loop();
        }
    }

    /// Snapshots of this store still allocated: the publisher's newest
    /// one plus every older one a query still holds.
    pub fn epochs_live(&self) -> usize {
        // pinocchio-lint: allow(atomic-ordering) -- an operator gauge; no data is published through it, so no ordering is needed
        self.gauge.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn epochs_are_dense_and_monotone() {
        let (mut publisher, mut reader) = Publisher::new("genesis");
        assert_eq!(reader.latest().epoch, 0);
        assert_eq!(reader.latest().state, "genesis");
        assert_eq!(publisher.publish("one"), 1);
        assert_eq!(publisher.publish("two"), 2);
        assert_eq!(publisher.epoch(), 2);
        let snap = reader.latest();
        assert_eq!(snap.epoch, 2);
        assert_eq!(snap.state, "two");
        // A held snapshot keeps its epoch; a stale cursor catches up.
        let stale = reader.clone();
        assert_eq!(publisher.publish("three"), 3);
        assert_eq!(snap.epoch, 2);
        assert_eq!(stale.clone().latest().epoch, 3);
        assert_eq!(publisher.current().state, "three");
    }

    #[test]
    fn every_reader_sees_a_consistent_snapshot_under_concurrency() {
        // The writer publishes vectors whose entries all equal the
        // epoch; readers assert they never observe a mixed state.
        let (mut publisher, reader) = Publisher::new(vec![0u64; 64]);
        let rounds = 200u64;
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let mut r = reader.clone();
                thread::spawn(move || {
                    let mut max_seen = 0;
                    loop {
                        let snap = r.latest();
                        assert!(
                            snap.state.iter().all(|&v| v == snap.epoch),
                            "torn snapshot at epoch {}",
                            snap.epoch
                        );
                        assert!(snap.epoch >= max_seen, "epoch went backwards");
                        max_seen = snap.epoch;
                        if snap.epoch == rounds {
                            return max_seen;
                        }
                        thread::yield_now();
                    }
                })
            })
            .collect();
        for epoch in 1..=rounds {
            publisher.publish(vec![epoch; 64]);
        }
        for h in handles {
            assert_eq!(h.join().expect("reader panicked"), rounds);
        }
    }

    #[test]
    fn parked_cursors_pin_no_snapshot() {
        let (mut publisher, mut reader) = Publisher::new(Arc::new(0u64));
        let first = reader.latest();
        let probe = Arc::downgrade(&first.state);
        assert_eq!(reader.epochs_live(), 1);
        publisher.publish(Arc::new(1));
        publisher.publish(Arc::new(2));
        // The held snapshot survives; epoch 1, held by nobody, is gone
        // although the reader's cursor still sits at epoch 0.
        assert!(probe.upgrade().is_some(), "a query still holds epoch 0");
        assert_eq!(reader.epochs_live(), 2);
        drop(first);
        assert!(
            probe.upgrade().is_none(),
            "epoch 0 must be freed once no query holds it"
        );
        assert_eq!(reader.epochs_live(), 1);
        assert_eq!(reader.latest().epoch, 2);
    }

    #[test]
    fn readers_still_see_the_last_epoch_after_the_publisher_is_gone() {
        let (mut publisher, mut reader) = Publisher::new(0u64);
        let mut parked = reader.clone();
        publisher.publish(1);
        assert_eq!(reader.latest().state, 1);
        drop(publisher);
        assert_eq!(reader.latest().state, 1);
        assert_eq!(parked.latest().epoch, 1);
        assert_eq!(parked.epochs_live(), 1);
    }
}
