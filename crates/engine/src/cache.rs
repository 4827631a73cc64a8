//! The cost-weighted evicting pipeline cache behind [`crate::Engine`].
//!
//! Compilation cost in this workspace is wildly asymmetric: a small
//! regex pipeline compiles in ~5 µs, a lexed-CFG pipeline (tagged lexer
//! DFA + LALR tables + certification id-tables) in hundreds of
//! microseconds — while a cache hit is an id-keyed probe of ~50 ns.
//! A plain LRU treats those the same and will happily evict the one
//! pipeline that is expensive to rebuild to keep fifty that are nearly
//! free. The cache here is therefore *cost-weighted*: each entry's
//! weight is its **measured** compile time
//! ([`crate::CompiledPipeline::compile_time`]), and eviction runs the
//! classic GreedyDual policy — an entry's credit is
//! `clock + compile_cost`, refreshed on every hit; eviction removes the
//! minimum-credit entry and advances the clock to that credit. Recency
//! and rebuild cost trade off against each other: a 537 µs lexed-CFG
//! pipeline survives ~100 touches of a 5 µs regex pipeline before its
//! credit is overtaken, instead of being evicted by the first fifty.
//!
//! The cache is deliberately a plain map + linear eviction scan rather
//! than an intrusive LRU list: the population is *pipelines* (tens, not
//! millions), hits never scan, and the scan runs only when a bound in
//! [`CacheConfig`] is actually exceeded.
//!
//! In front of the structural map sits a **text map**: the exact bytes
//! of a grammar text that resolved to a resident entry (by a miss or a
//! structural hit), mapped to the spec and start symbol it elaborated
//! to. A byte-identical resubmit is answered by one hash of its text,
//! with no meta parse, elaboration or interning
//! ([`crate::Engine::compile_text_with`]). Each entry owns one text
//! alias, its newest wording, and evicting or clearing the entry drops
//! it, so the text map never keeps a pipeline alive that the structural
//! map has let go. Texts longer than [`MAX_ALIAS_TEXT_BYTES`] are never
//! aliased, so the map holds at most that many bytes per entry.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use crate::pipeline::{CompiledPipeline, PipelineSpec};
use crate::PipelineHandle;

/// The longest text the text map keeps: a longer one (say, a small
/// grammar wrapped in a large comment) compiles through the full path
/// on every submission instead of pinning its bytes. Ten times the
/// largest preset grammar.
pub(crate) const MAX_ALIAS_TEXT_BYTES: usize = 8 * 1024;

/// Capacity bounds for the engine's pipeline cache.
///
/// Both bounds are enforced together: an insert evicts minimum-credit
/// entries until the entry count is ≤ `max_entries` **and** the total
/// resident weight (sum of measured compile times) is ≤ `max_weight`.
/// The defaults (1024 entries, 60 s of aggregate compile time) are
/// generous enough that a process serving a handful of grammars never
/// evicts; serving fleets that churn through ad-hoc specs set tighter
/// bounds via [`crate::Engine::with_config`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum number of resident pipelines (0 degenerates to
    /// compile-every-time: entries are evicted as soon as they land,
    /// but `get_or_compile` still returns the freshly built `Arc`).
    pub max_entries: usize,
    /// Maximum total resident weight, measured in compile time.
    pub max_weight: Duration,
}

impl CacheConfig {
    /// A cache with no practical bounds (the pre-eviction behaviour).
    pub fn unbounded() -> CacheConfig {
        CacheConfig {
            max_entries: usize::MAX,
            max_weight: Duration::MAX,
        }
    }
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            max_entries: 1024,
            max_weight: Duration::from_secs(60),
        }
    }
}

/// One resident pipeline plus its eviction bookkeeping.
#[derive(Debug)]
struct Entry {
    pipeline: Arc<CompiledPipeline>,
    /// GreedyDual credit: `clock at last touch + cost_us`. The entry
    /// with the minimum credit is the eviction victim.
    credit: u128,
    /// Measured compile time in µs, floored at 1 so that even a
    /// sub-microsecond compile still ages.
    cost_us: u64,
    /// Monotone touch counter, tie-breaking equal credits: among
    /// entries whose credits tie (common when many sub-µs compiles all
    /// floor to the same cost), the least recently touched one is the
    /// victim — never the entry whose own insert triggered the scan.
    touched: u64,
    /// The text-map key that resolves to this entry: the newest wording
    /// that resolved to it.
    text: Option<Arc<str>>,
}

/// What a submitted text elaborated to: the text map's value.
#[derive(Debug)]
struct TextAlias {
    /// The submission's own spec (its key is the entry's key).
    spec: PipelineSpec,
    /// The submission's start nonterminal.
    start: String,
}

/// The engine's pipeline cache. Not internally synchronized — the
/// [`crate::Engine`] wraps it in a `Mutex` (hits mutate credits, so a
/// read-write split buys nothing).
#[derive(Debug)]
pub(crate) struct PipelineCache {
    config: CacheConfig,
    map: HashMap<PipelineSpec, Entry>,
    /// The text map: exact submitted text → what it elaborated to. Every
    /// key is its entry's [`Entry::text`].
    texts: HashMap<Arc<str>, TextAlias>,
    /// GreedyDual clock: the credit of the last evicted entry. Starts
    /// at 0 and only ever advances, so credits are monotone per touch.
    clock: u128,
    /// Source of [`Entry::touched`] stamps.
    touches: u64,
    /// Sum of resident `cost_us` (the weight bound, in µs).
    weight_us: u128,
    evictions: u64,
    compile_total: Duration,
    compile_max: Duration,
}

impl PipelineCache {
    pub(crate) fn new(config: CacheConfig) -> PipelineCache {
        PipelineCache {
            config,
            map: HashMap::new(),
            texts: HashMap::new(),
            clock: 0,
            touches: 0,
            weight_us: 0,
            evictions: 0,
            compile_total: Duration::ZERO,
            compile_max: Duration::ZERO,
        }
    }

    /// Cache probe; a hit refreshes the entry's credit.
    pub(crate) fn get(&mut self, spec: &PipelineSpec) -> Option<Arc<CompiledPipeline>> {
        let clock = self.clock;
        self.touches += 1;
        let touched = self.touches;
        let entry = self.map.get_mut(spec)?;
        entry.credit = clock + u128::from(entry.cost_us);
        entry.touched = touched;
        Some(entry.pipeline.clone())
    }

    /// Text-map probe. Unlike [`PipelineCache::get`] it leaves the
    /// entry's credit alone: the caller refreshes it with `get` once it
    /// serves the hit.
    pub(crate) fn peek_text(&self, text: &str) -> Option<PipelineHandle> {
        let alias = self.texts.get(text)?;
        // Resident by construction: eviction and `clear` drop aliases.
        let entry = self.map.get(&alias.spec)?;
        Some(PipelineHandle {
            spec: alias.spec.clone(),
            pipeline: entry.pipeline.clone(),
            start: alias.start.clone(),
            cache_hit: true,
        })
    }

    /// Records `text` as the alias of `spec`'s entry, replacing the
    /// entry's previous alias. No-op when the text is already an alias,
    /// is longer than [`MAX_ALIAS_TEXT_BYTES`], or `spec` is not
    /// resident (an insert can evict its own entry when
    /// `max_entries == 0`).
    pub(crate) fn alias(&mut self, text: &str, spec: &PipelineSpec, start: &str) {
        if text.len() > MAX_ALIAS_TEXT_BYTES || self.texts.contains_key(text) {
            return;
        }
        let Some(entry) = self.map.get_mut(spec) else {
            return;
        };
        let text: Arc<str> = Arc::from(text);
        if let Some(previous) = entry.text.replace(text.clone()) {
            self.texts.remove(&previous);
        }
        self.texts.insert(
            text,
            TextAlias {
                spec: spec.clone(),
                start: start.to_owned(),
            },
        );
    }

    /// Inserts a freshly compiled pipeline, records its compile latency,
    /// and evicts minimum-credit entries until both bounds hold.
    pub(crate) fn insert(&mut self, spec: PipelineSpec, pipeline: Arc<CompiledPipeline>) {
        let cost = pipeline.compile_time();
        self.compile_total += cost;
        self.compile_max = self.compile_max.max(cost);
        let cost_us = (cost.as_micros() as u64).max(1);
        self.weight_us += u128::from(cost_us);
        self.touches += 1;
        self.map.insert(
            spec.clone(),
            Entry {
                pipeline,
                credit: self.clock + u128::from(cost_us),
                cost_us,
                touched: self.touches,
                text: None,
            },
        );
        self.evict_to_bounds(Some(&spec));
    }

    fn over_bounds(&self) -> bool {
        self.map.len() > self.config.max_entries
            || self.weight_us > self.config.max_weight.as_micros()
    }

    /// Evicts minimum-credit entries until both bounds hold. `protect`
    /// is the key whose insert triggered the scan: it is never chosen
    /// as a victim while other entries remain (being the cheapest must
    /// not mean being evicted by your own insert before first use),
    /// but it does go once it is the sole survivor and the bounds are
    /// still exceeded (e.g. `max_entries == 0`).
    fn evict_to_bounds(&mut self, protect: Option<&PipelineSpec>) {
        while self.over_bounds() {
            // Linear scan for the minimum credit: eviction is off the
            // hot path and the population is small by construction.
            let last_one = self.map.len() == 1;
            let victim = self
                .map
                .iter()
                .filter(|(k, _)| last_one || protect != Some(*k))
                .min_by_key(|(_, e)| (e.credit, e.touched))
                .map(|(k, e)| (k.clone(), e.credit, e.cost_us));
            let Some((key, credit, cost_us)) = victim else {
                return; // bounds can only be exceeded by a resident entry
            };
            if let Some(text) = self.map.remove(&key).and_then(|entry| entry.text) {
                self.texts.remove(&text);
            }
            self.weight_us -= u128::from(cost_us);
            self.clock = self.clock.max(credit);
            self.evictions += 1;
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Texts currently in the text map.
    #[cfg(test)]
    pub(crate) fn text_aliases(&self) -> usize {
        self.texts.len()
    }

    /// Probes and inserts so far (the touch stamp source).
    #[cfg(test)]
    pub(crate) fn touches(&self) -> u64 {
        self.touches
    }

    /// Drops every entry without touching the eviction counter or the
    /// clock ([`crate::Engine::clear`] is an operator action, not a
    /// capacity event).
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.texts.clear();
        self.weight_us = 0;
    }

    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    pub(crate) fn resident_weight(&self) -> Duration {
        Duration::from_micros(self.weight_us.min(u128::from(u64::MAX)) as u64)
    }

    pub(crate) fn compile_total(&self) -> Duration {
        self.compile_total
    }

    pub(crate) fn compile_max(&self) -> Duration {
        self.compile_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compiled(spec: &PipelineSpec) -> Arc<CompiledPipeline> {
        Arc::new(spec.compile().expect("test specs compile"))
    }

    #[test]
    fn entry_bound_evicts_minimum_credit() {
        let mut cache = PipelineCache::new(CacheConfig {
            max_entries: 2,
            max_weight: Duration::MAX,
        });
        let a = PipelineSpec::dyck(4);
        let b = PipelineSpec::dyck(5);
        let c = PipelineSpec::dyck(6);
        cache.insert(a.clone(), compiled(&a));
        cache.insert(b.clone(), compiled(&b));
        assert_eq!(cache.len(), 2);
        cache.insert(c.clone(), compiled(&c));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        // The newest entry is never the victim of its own insert.
        assert!(cache.get(&c).is_some());
    }

    #[test]
    fn expensive_entries_outlive_cheap_ones() {
        // Two entries of unequal compile cost: after evicting down to
        // one, the survivor must be the expensive pipeline even though
        // the cheap one was touched more recently. The JSON lexer and
        // its LALR tables cost several times a tiny Dyck pipeline.
        let mut cache = PipelineCache::new(CacheConfig::unbounded());
        let costly = PipelineSpec::json_lexed();
        let cheap = PipelineSpec::dyck(3);
        cache.insert(costly.clone(), compiled(&costly));
        cache.insert(cheap.clone(), compiled(&cheap));
        let ratio = {
            let c = cache.map.get(&costly).unwrap().cost_us;
            let d = cache.map.get(&cheap).unwrap().cost_us;
            c as f64 / d as f64
        };
        assert!(
            ratio > 1.0,
            "a lexed-CFG compile must outweigh a tiny Dyck compile (ratio {ratio})"
        );
        // Touch the cheap one last, then force one eviction.
        cache.get(&cheap);
        cache.config.max_entries = 1;
        cache.evict_to_bounds(None);
        assert!(cache.get(&costly).is_some(), "the heavy pipeline survives");
        assert!(cache.get(&cheap).is_none());
    }

    #[test]
    fn weight_bound_is_enforced() {
        let mut cache = PipelineCache::new(CacheConfig {
            max_entries: usize::MAX,
            max_weight: Duration::from_micros(1),
        });
        let a = PipelineSpec::dyck(4);
        let b = PipelineSpec::dyck(5);
        cache.insert(a.clone(), compiled(&a));
        cache.insert(b.clone(), compiled(&b));
        // Each insert blew the 1 µs budget and evicted down to it.
        assert!(cache.evictions() >= 1);
        assert!(cache.resident_weight() <= Duration::from_micros(1));
    }
}
