//! Process-wide metrics: monotonic counters and gauges, kept in one
//! [`MetricsSnapshot`] behind one lock. Metrics count things; time
//! lives in spans ([`crate::tracing`]), and what a span already counts
//! (traces recorded, cells priced) is not counted again here.
//!
//! The store is built for a pipeline whose results must stay
//! byte-identical whether or not it is being observed:
//!
//! * **Disabled is (nearly) free.** Every recording call starts with one
//!   relaxed atomic load; when recording is disabled — the default —
//!   nothing else happens: no locks, no allocation.
//!   Instrument unconditionally and let the entry point decide.
//! * **Recording never feeds back.** Metrics only observe; no pipeline
//!   value is derived from them, so an instrumented run produces the
//!   same dataset bit for bit (enforced by release-mode CI tests).
//! * **One lock is enough.** A full-scale study records about two
//!   thousand times, so workers share one mutex; [`snapshot`] clones
//!   the store, whose keys are sorted.
//!
//! Naming convention: dotted lower-case paths, `<subsystem>.<what>`
//! (`trace_cache.bytes_read`, `replay.configs_priced`).
//!
//! The `trace_cache.*` family attributes the persistent trace cache:
//! `trace_cache.rejected` (entries that exist but fail validation —
//! corrupt, truncated, or from another recorder version; each is also a
//! miss), and `trace_cache.bytes_read` / `trace_cache.bytes_written`
//! (encoded entry sizes). Hits and misses are span counts: every
//! lookup is a `trace` span, and every miss a `record` span inside it.
//!
//! The `replay.*` family attributes trace pricing in `gpp_sim::trace`:
//! `replay.geometry_builds` (row tables aggregated, one per geometry a
//! compiled trace was missing when asked for it), `replay.configs_priced`
//! (chip × configuration results, 96 per chip of a batch walk and one per
//! scalar replay), `replay.chip_batches` (batch walks, one per call of
//! `replay_all_configs_many_chips`), `replay.rows_walked` (aggregate rows
//! the batch walks visited) and `replay.rows_priced` (lane entries the
//! batch pricers wrote, each a distinct (kernel profile, row) pair priced
//! once, scratch rewrites included).
//!
//! The `par.*` family attributes executor behaviour: `par.tasks` (items
//! fanned out), `par.workers` (widest fan-out, gauge),
//! `par.chunks_claimed` (index-range claims — scheduling granularity),
//! `par.pool_spawns` (persistent-pool threads created, once per thread
//! per process), `par.wakeups` (condvar wakes of parked pool workers),
//! and `par.nested_calls` (fan-outs issued from inside another parallel
//! worker, served cooperatively instead of oversubscribing).
//!
//! The `irgl.*` family attributes DSL execution by tier: `irgl.ast_runs`
//! / `irgl.native_runs` (one per program execution through the
//! tree-walking oracle or the native instruction tier),
//! `irgl.programs_compiled` (`CompiledProgram::compile` calls), and
//! `irgl.native_kernels_compiled` (kernels lowered to instructions;
//! both stay flat across runs under compile-once-run-many).
//!
//! The `portfolio.*` family attributes the k-version strategy search:
//! `portfolio.candidates_evaluated` (complete portfolios scored by the
//! exact branch-and-bound), `portfolio.prefixes_pruned` (search-tree
//! branch points eliminated by the suffix-minima completion bound —
//! pruned plus evaluated accounts for the whole enumeration), and
//! `portfolio.beam_rounds` (beam expansion levels above the exact
//! threshold). All are byte-identical at any thread count, like the
//! curve itself.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::snapshot::MetricsSnapshot;

static ENABLED: AtomicBool = AtomicBool::new(false);

static STORE: Mutex<MetricsSnapshot> = Mutex::new(MetricsSnapshot {
    counters: BTreeMap::new(),
    gauges: BTreeMap::new(),
});

/// The store, whatever a panicking recorder left in it.
fn store() -> MutexGuard<'static, MetricsSnapshot> {
    STORE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Turns recording on or off. Disabled recording costs one relaxed
/// atomic load per call.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Discards everything recorded. The enabled flag is left as-is.
pub fn reset() {
    *store() = MetricsSnapshot::default();
}

/// Adds `delta` to the monotonic counter `name` (no-op when disabled).
pub fn counter(name: &str, delta: u64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let counters = &mut store().counters;
    match counters.get_mut(name) {
        Some(v) => *v += delta,
        None => {
            counters.insert(name.to_owned(), delta);
        }
    }
}

/// Raises the gauge `name` to `value` if larger — a watermark, such as
/// the widest fan-out (no-op when disabled).
pub fn gauge_max(name: &str, value: f64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let gauges = &mut store().gauges;
    match gauges.get_mut(name) {
        Some(v) => *v = v.max(value),
        None => {
            gauges.insert(name.to_owned(), value);
        }
    }
}

/// Everything recorded since the last [`reset`], keys sorted.
#[must_use]
pub fn snapshot() -> MetricsSnapshot {
    store().clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises the tests, which share the one process-wide store.
    static STORE_TESTS: Mutex<()> = Mutex::new(());

    fn exclusive() -> MutexGuard<'static, ()> {
        let guard = STORE_TESTS.lock().unwrap_or_else(PoisonError::into_inner);
        reset();
        guard
    }

    #[test]
    fn disabled_store_records_nothing() {
        let _guard = exclusive();
        set_enabled(false);
        counter("a", 3);
        gauge_max("w", 2.0);
        let s = snapshot();
        assert!(s.counters.is_empty() && s.gauges.is_empty());
    }

    #[test]
    fn counters_accumulate_and_merge_across_threads() {
        let _guard = exclusive();
        set_enabled(true);
        counter("cells", 2);
        counter("cells", 3);
        std::thread::spawn(|| {
            counter("cells", 10);
            counter("traces", 1);
        })
        .join()
        .unwrap();
        let s = snapshot();
        set_enabled(false);
        assert_eq!(s.counters["cells"], 15);
        assert_eq!(s.counters["traces"], 1);
    }

    #[test]
    fn gauges_merge_by_max() {
        let _guard = exclusive();
        set_enabled(true);
        gauge_max("rss", 100.0);
        std::thread::spawn(|| gauge_max("rss", 250.0))
            .join()
            .unwrap();
        assert_eq!(snapshot().gauges["rss"], 250.0);
        gauge_max("rss", 50.0); // a lower reading leaves the watermark
        let s = snapshot();
        set_enabled(false);
        assert_eq!(s.gauges["rss"], 250.0);
    }

    #[test]
    fn reset_discards_data_from_all_threads() {
        let _guard = exclusive();
        set_enabled(true);
        counter("x", 1);
        std::thread::spawn(|| counter("x", 1)).join().unwrap();
        assert_eq!(snapshot().counters["x"], 2);
        reset();
        assert!(snapshot().counters.is_empty());
        counter("x", 5);
        let s = snapshot();
        set_enabled(false);
        assert_eq!(s.counters["x"], 5);
    }
}
