//! Origin-side address translation: a rank-private cache of resolved
//! registration keys.
//!
//! The fabric's registry ([`Fabric::resolve`]) is the NIC translation
//! table: one lock word, one hash, and one `Arc` refcount per lookup, all
//! on lines every rank of the job writes. An endpoint resolves a key there
//! once and keeps the `Arc<Segment>` here; later operations on the key
//! borrow it. The cache is validated by the registry generation
//! ([`Fabric::registry_generation`]), which every removal bumps: a hit is
//! one Acquire load of that word (written only when a window is freed, so
//! it stays shared-clean in every cache) plus a scan of a few rank-private
//! entries — no lock, no hash, no atomic read-modify-write.
//!
//! Ordering: `deregister` removes the key under the registry's write lock
//! and *then* bumps the generation with Release. An operation that
//! happens-after the deregister therefore reads the bumped generation,
//! drops every entry, and re-resolves under the lock, where the key is
//! gone. An entry tagged with generation `g` was resolved after `g` was
//! read, so it was in the registry at some point at or after `g`; if it
//! has been removed since, the generation is already past `g`. An
//! operation *racing* a deregister may still land on the cached segment,
//! which the cached `Arc` keeps alive — the uncached path's cloned `Arc`
//! did the same. DESIGN.md, "Address translation", has the full argument.

use crate::error::FabricError;
use crate::segment::{SegKey, Segment};
use crate::Fabric;
use std::cell::{Cell, Ref, RefCell};
use std::sync::Arc;

/// Entries per endpoint. A window costs an origin two keys per target it
/// talks to (data + sync words), so this covers a handful of windows and
/// peers; a larger working set degrades to one registry lookup per
/// operation, never to unbounded memory.
pub(crate) const CAPACITY: usize = 16;

/// The cache. Lives in its endpoint, on its rank's thread.
pub(crate) struct Translations {
    /// Registry generation the entries were resolved under.
    generation: Cell<u64>,
    entries: RefCell<Vec<(SegKey, Arc<Segment>)>>,
    /// Entry the next miss on a full cache replaces (round-robin).
    victim: Cell<usize>,
    misses: Cell<u64>,
}

impl Translations {
    pub(crate) fn new() -> Self {
        Self {
            generation: Cell::new(0),
            entries: RefCell::new(Vec::with_capacity(CAPACITY)),
            victim: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// Lookups that went to the registry.
    pub(crate) fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Translate `key`. The borrow must end before the next lookup on
    /// this endpoint (every fabric operation ends it on return).
    pub(crate) fn lookup(
        &self,
        fabric: &Fabric,
        key: SegKey,
    ) -> Result<Ref<'_, Segment>, FabricError> {
        let generation = fabric.registry_generation();
        if generation != self.generation.get() {
            // Something was deregistered since the entries were resolved:
            // drop them all (and with them this rank's hold on freed
            // window memory).
            self.entries.borrow_mut().clear();
            self.generation.set(generation);
        }
        let hit = Ref::filter_map(self.entries.borrow(), |entries| {
            entries.iter().find(|(k, _)| *k == key).map(|(_, seg)| &**seg)
        });
        match hit {
            Ok(seg) => return Ok(seg),
            // The unfiltered borrow comes back: end it before refilling.
            Err(entries) => drop(entries),
        }
        self.misses.set(self.misses.get() + 1);
        let seg = fabric.resolve(key)?;
        let at = {
            let mut entries = self.entries.borrow_mut();
            if entries.len() < CAPACITY {
                entries.push((key, seg));
                entries.len() - 1
            } else {
                let at = self.victim.get();
                self.victim.set((at + 1) % CAPACITY);
                entries[at] = (key, seg);
                at
            }
        };
        Ok(Ref::map(self.entries.borrow(), |entries| &*entries[at].1))
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.borrow().len()
    }
}
