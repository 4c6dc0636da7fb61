//! The resident relation catalog.
//!
//! A serving process loads its relations **once** and shares them across
//! every query: the catalog stores `Arc<Relation>` handles and hands
//! each query a [`Database`] *snapshot* whose entries alias the resident
//! data (cloning a `Database` is a handful of `Arc` bumps since the
//! common crate stores relations behind `Arc`). A query therefore runs
//! against an immutable view — a concurrent `load` or `drop` builds the
//! *next* version and never disturbs runs already in flight.
//!
//! Loading a relation also **analyses** it: `load`, `load_shared` and
//! `load_db` warm the engine's process-wide
//! [`StatsCache`] with the relation's statistics
//! before it becomes visible, so no query pays for them — the planner
//! and the advisor find every resident relation's numbers cached. The
//! cache is keyed by content, so a reload under the same name simply
//! analyses the new content; nothing needs invalidating.
//!
//! Every mutation bumps a version counter, and each query's outcome
//! reports the version its snapshot was taken at. The engine's sort
//! and trie caches need no version: like the StatsCache they key by
//! content, so a reload never meets a view of the relation it replaced.

use parjoin_common::{Database, Relation};
use parjoin_engine::StatsCache;
use std::sync::{Arc, Mutex, PoisonError};

/// A consistent view of the catalog at one version: the snapshot
/// `Database` (entries alias the resident relations) and the version
/// that produced it.
#[derive(Clone)]
pub struct CatalogSnapshot {
    /// The relations as of this version; safe to read for as long as
    /// the query needs, regardless of later catalog mutations.
    pub db: Arc<Database>,
    /// The catalog version this snapshot was taken at.
    pub version: u64,
}

/// One relation's catalog listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogEntry {
    /// Relation name.
    pub name: String,
    /// Number of columns.
    pub arity: usize,
    /// Number of rows.
    pub rows: usize,
}

struct Inner {
    db: Arc<Database>,
    version: u64,
}

/// The resident catalog: named relations loaded once, shared as
/// `Arc<Relation>` across queries, with load/drop/list operations.
pub struct Catalog {
    inner: Mutex<Inner>,
}

impl Default for Catalog {
    fn default() -> Self {
        Self::new()
    }
}

impl Catalog {
    /// An empty catalog at version 0.
    pub fn new() -> Self {
        Catalog {
            inner: Mutex::new(Inner {
                db: Arc::new(Database::new()),
                version: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Loads (or replaces) one relation, returning the new catalog
    /// version.
    pub fn load(&self, name: impl Into<String>, rel: Relation) -> u64 {
        self.load_shared(name, Arc::new(rel))
    }

    /// Loads (or replaces) one relation already behind an `Arc`
    /// (sharing it with the caller), returning the new catalog version.
    pub fn load_shared(&self, name: impl Into<String>, rel: Arc<Relation>) -> u64 {
        // ANALYZE outside the lock: snapshots stay available meanwhile.
        StatsCache::global().get_or_compute(&rel);
        let mut inner = self.lock();
        let mut next = (*inner.db).clone();
        next.insert_shared(name, rel);
        inner.db = Arc::new(next);
        inner.version += 1;
        inner.version
    }

    /// Loads every relation of `db` (replacing same-named entries),
    /// returning the new catalog version. One version bump for the
    /// whole batch — a multi-relation dataset loads atomically.
    pub fn load_db(&self, db: &Database) -> u64 {
        for (_, rel) in db.iter() {
            StatsCache::global().get_or_compute(rel);
        }
        let mut inner = self.lock();
        let mut next = (*inner.db).clone();
        for (name, _) in db.iter() {
            if let Some(shared) = db.get_shared(name) {
                next.insert_shared(name, shared);
            }
        }
        inner.db = Arc::new(next);
        inner.version += 1;
        inner.version
    }

    /// Drops a relation. Returns the new version if the relation was
    /// present, `None` (no version bump) if it was not.
    pub fn drop_relation(&self, name: &str) -> Option<u64> {
        let mut inner = self.lock();
        inner.db.get(name)?;
        let mut next = (*inner.db).clone();
        next.remove(name);
        inner.db = Arc::new(next);
        inner.version += 1;
        Some(inner.version)
    }

    /// Lists the resident relations (name order) with arity and row
    /// counts.
    pub fn list(&self) -> Vec<CatalogEntry> {
        let inner = self.lock();
        inner
            .db
            .iter()
            .map(|(name, rel)| CatalogEntry {
                name: name.to_string(),
                arity: rel.arity(),
                rows: rel.len(),
            })
            .collect()
    }

    /// The current version (0 = nothing ever loaded).
    pub fn version(&self) -> u64 {
        self.lock().version
    }

    /// Takes a consistent snapshot: the current database view and its
    /// version. Cheap (`Arc` clone); the snapshot stays valid however
    /// the catalog changes afterwards.
    pub fn snapshot(&self) -> CatalogSnapshot {
        let inner = self.lock();
        CatalogSnapshot {
            db: Arc::clone(&inner.db),
            version: inner.version,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(rows: usize) -> Relation {
        Relation::from_rows(
            2,
            (0..rows as u64)
                .map(|i| [i, i + 1])
                .collect::<Vec<_>>()
                .iter(),
        )
    }

    #[test]
    fn load_list_drop_roundtrip() {
        let cat = Catalog::new();
        assert_eq!(cat.version(), 0);
        assert_eq!(cat.load("R", rel(3)), 1);
        assert_eq!(cat.load("S", rel(5)), 2);
        let listing = cat.list();
        assert_eq!(listing.len(), 2);
        assert_eq!(listing[0].name, "R");
        assert_eq!(listing[0].rows, 3);
        assert_eq!(cat.drop_relation("R"), Some(3));
        assert_eq!(cat.drop_relation("R"), None, "double drop: no bump");
        assert_eq!(cat.version(), 3);
        assert_eq!(cat.list().len(), 1);
    }

    #[test]
    fn snapshots_are_immutable_views() {
        let cat = Catalog::new();
        cat.load("R", rel(3));
        let snap = cat.snapshot();
        cat.drop_relation("R");
        assert!(snap.db.get("R").is_some(), "snapshot survives the drop");
        assert!(cat.snapshot().db.get("R").is_none());
    }

    #[test]
    fn snapshot_aliases_resident_relation() {
        let shared = Arc::new(rel(4));
        let cat = Catalog::new();
        cat.load_shared("R", Arc::clone(&shared));
        let a = cat.snapshot().db.get_shared("R").expect("present");
        let b = cat.snapshot().db.get_shared("R").expect("present");
        assert!(Arc::ptr_eq(&a, &shared) && Arc::ptr_eq(&b, &shared));
    }

    #[test]
    fn load_db_is_one_version_bump() {
        let mut db = Database::new();
        db.insert("A", rel(1));
        db.insert("B", rel(2));
        let cat = Catalog::new();
        assert_eq!(cat.load_db(&db), 1);
        assert_eq!(cat.list().len(), 2);
        let shared = db.get_shared("A").expect("present");
        let resident = cat.snapshot().db.get_shared("A").expect("present");
        assert!(
            Arc::ptr_eq(&shared, &resident),
            "load_db shares, not copies"
        );
    }
}
