//! The counter registry: named `u64` tallies shared across threads.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A shared monotonic counter. Cloning is cheap (one `Arc` bump) and all
/// clones observe the same value, so a counter can be registered once
/// and handed to worker threads, reader threads, and senders alike.
///
/// A default-constructed counter is *detached*: it counts, but no
/// registry will ever report it. Detached counters are how callers that
/// did not opt into observability pay only the relaxed atomic add.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh detached counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds `n`. Relaxed ordering: tallies are read only after the
    /// threads doing the counting have been joined.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Raises the value to `n` if it is below: a high-water mark.
    #[inline]
    pub fn max(&self, n: u64) {
        self.0.fetch_max(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// A per-run registry of named counters.
///
/// `counter(name)` is get-or-register: the first call allocates the
/// slot (under a mutex — done once per name per run, off the hot path),
/// later calls and clones share the same atomic. [`Registry::snapshot`]
/// returns every `(name, value)` pair in name order.
#[derive(Default)]
pub struct Registry {
    slots: Mutex<BTreeMap<String, Counter>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Returns the counter registered under `name`, creating it at zero
    /// on first use. The returned handle stays live (and keeps counting
    /// into this registry) for as long as the caller holds it.
    pub fn counter(&self, name: &str) -> Counter {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        // Only the first registration of a name allocates its key.
        if let Some(c) = slots.get(name) {
            return c.clone();
        }
        slots.entry(name.to_string()).or_default().clone()
    }

    /// The current value of `name`, or `None` if never registered.
    pub fn get(&self, name: &str) -> Option<u64> {
        let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        slots.get(name).map(Counter::get)
    }

    /// Adds `n` to `name`, registering it on first use. Convenience for
    /// one-shot tallies off the hot path; hot paths should hold a
    /// [`Counter`] handle instead.
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// Every `(name, value)` pair, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        slots.iter().map(|(k, v)| (k.clone(), v.get())).collect()
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.snapshot()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_value() {
        let c = Counter::new();
        let d = c.clone();
        c.add(3);
        d.inc();
        assert_eq!(c.get(), 4);
        assert_eq!(d.get(), 4);
        c.max(2);
        assert_eq!(c.get(), 4, "max never lowers");
        d.max(9);
        assert_eq!(c.get(), 9);
    }

    #[test]
    fn registry_get_or_register() {
        let r = Registry::new();
        assert_eq!(r.get("a"), None);
        let a = r.counter("a");
        a.add(2);
        // Same slot on re-registration.
        r.counter("a").add(5);
        assert_eq!(r.get("a"), Some(7));
    }

    #[test]
    fn snapshot_is_name_sorted() {
        let r = Registry::new();
        r.add("z.last", 1);
        r.add("a.first", 2);
        r.add("m.mid", 3);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.first", "m.mid", "z.last"]);
        assert_eq!(snap[0].1, 2);
    }

    #[test]
    fn counters_survive_across_threads() {
        let r = Registry::new();
        let c = r.counter("hits");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(r.get("hits"), Some(4000));
    }
}
