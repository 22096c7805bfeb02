//! Content-addressed stage cache: kernel source → parsed IR → saturated
//! e-graph → certified selection, each stage keyed by a content hash.
//!
//! This is the amortization layer behind `accsat serve` and `--cache-dir`:
//! a re-submitted (or cosmetically edited) kernel reuses the expensive
//! stages instead of redoing them. Three stage levels are cached:
//!
//! * **parsed** — raw source bytes → parsed [`Program`]. Persisted to
//!   `parsed/` in disk-backed caches as the canonical printed program
//!   (the printer round-trips, so re-parsing on promotion is lossless);
//!   parsing is cheap, so this level mostly exists so an unchanged
//!   request never re-parses and a restarted serve daemon keeps its
//!   parsed floor.
//! * **saturated** — kernel hash → full-fidelity serialized e-graph (see
//!   `accsat_egraph::serialize`) plus the saturation metadata the reports
//!   need (iterations, stop reason, per-rule stats).
//! * **selected** — kernel+objective hash → serialized
//!   [`Selection`](accsat_extract::Selection) plus
//!   extraction metadata (cost, proven flag, winner, explored, bound).
//!
//! **Keys.** The kernel-level hash is FNV-1a over the *canonical printed
//! IR* of the kernel body (`accsat_ir::fingerprint_block`) — comments and
//! whitespace are already gone — mixed with every configuration value
//! that can change the stage's output: whether the variant saturates, the
//! saturation limits, and the rule set for the saturation key; plus the
//! cost model and node budget for the selection key.
//! Wall-clock budgets are deliberately *not* part of the keys: they are
//! safety valves that do not bind in deterministic runs, and two runs
//! differing only in a valve setting should share cache entries.
//! Codegen options (`bulk_load`) are also excluded — codegen runs fresh
//! on every request, so `CSE+SAT` and `ACCSAT` share both cached stages.
//!
//! **Invalidation.** There is none by design: entries are immutable values
//! under content hashes. A format version bump (see the headers: `sat` and
//! `sel` entries are at `v2`, `parsed` entries at `v1`) orphans old
//! entries, which then age out by eviction; corrupt or version-mismatched
//! entries read as misses.
//!
//! **Eviction** is deterministic: FIFO by insertion order with a fixed
//! entry capacity, both in memory and on disk (the disk index file records
//! insertion order). No clocks, no LRU — byte-identical cache behavior
//! for byte-identical request sequences.

use crate::pipeline::{SaturatorConfig, Variant};
use accsat_egraph::{IterCounts, RuleStats, StopReason};
use accsat_ir::{fingerprint_block, fnv1a, fnv1a_mix, Block, Program};
use accsat_obs::trace;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};

/// How much of the pipeline a request reused, `Miss < Parsed < Saturated
/// < Selected`. Reported per request in the service's stable JSON and per
/// kernel on batch stderr; never part of the stable batch report (warm
/// and cold runs must stay byte-identical).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum CacheLevel {
    /// Nothing reused: every stage ran.
    #[default]
    Miss,
    /// The parsed IR was reused (source bytes unchanged).
    Parsed,
    /// The saturated e-graph was restored; extraction re-ran.
    Saturated,
    /// Saturation *and* the certified selection were reused; only code
    /// generation ran.
    Selected,
}

impl CacheLevel {
    /// Stable lowercase label used in JSON reports.
    pub fn label(self) -> &'static str {
        match self {
            CacheLevel::Miss => "miss",
            CacheLevel::Parsed => "parsed",
            CacheLevel::Saturated => "saturated",
            CacheLevel::Selected => "selected",
        }
    }
}

/// Cached outcome of the saturation stage.
#[derive(Debug, Clone)]
pub struct SatEntry {
    /// Serialized e-graph (`accsat_egraph::serialize` format).
    pub egraph: String,
    /// Saturation iterations performed.
    pub iters: usize,
    /// Why saturation stopped (`None` for non-saturating variants).
    pub stop: Option<StopReason>,
    /// Per-rule statistics of the original run.
    pub rule_stats: Vec<RuleStats>,
    /// Deterministic per-iteration counters of the original run, so a
    /// warm hit replays the exact metrics the cold run measured.
    pub iter_counts: Vec<IterCounts>,
}

/// Cached outcome of the extraction stage.
#[derive(Debug, Clone)]
pub struct SelEntry {
    /// Serialized winning selection (`Selection::serialize` format).
    pub selection: String,
    /// DAG cost of the selection.
    pub cost: u64,
    /// Was the selection proven optimal?
    pub proven: bool,
    /// Winning portfolio member name.
    pub winner: String,
    /// Search nodes explored across the portfolio.
    pub explored: u64,
    /// Certified lower bound.
    pub lower_bound: u64,
    /// Candidates removed per pruning layer (orbit, dominance, closure)
    /// while building the search context of the original extraction.
    pub pruned: [usize; 3],
}

// v2: sat entries persist per-iteration counters, sel entries persist the
// pruning-layer counts. v1 entries fail the header check and read as
// misses, exactly as the module docs promise for format bumps.
const SAT_HEADER: &str = "accsat-stage sat v2";
const SEL_HEADER: &str = "accsat-stage sel v2";
const PARSED_HEADER: &str = "accsat-stage parsed v1";

pub(crate) fn stop_token(stop: Option<StopReason>) -> &'static str {
    match stop {
        None => "none",
        Some(StopReason::Saturated) => "saturated",
        Some(StopReason::NodeLimit) => "node-limit",
        Some(StopReason::IterLimit) => "iter-limit",
        Some(StopReason::TimeLimit) => "time-limit",
    }
}

fn parse_stop_token(tok: &str) -> Result<Option<StopReason>, String> {
    Ok(match tok {
        "none" => None,
        "saturated" => Some(StopReason::Saturated),
        "node-limit" => Some(StopReason::NodeLimit),
        "iter-limit" => Some(StopReason::IterLimit),
        "time-limit" => Some(StopReason::TimeLimit),
        other => return Err(format!("unknown stop token {other:?}")),
    })
}

impl SatEntry {
    /// Serialize to the versioned cache-entry text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(SAT_HEADER);
        out.push('\n');
        let _ = writeln!(
            out,
            "meta {} {} {} {}",
            self.iters,
            stop_token(self.stop),
            self.rule_stats.len(),
            self.iter_counts.len()
        );
        for r in &self.rule_stats {
            debug_assert!(!r.name.chars().any(char::is_whitespace));
            let _ = writeln!(
                out,
                "r {} {} {} {} {}",
                r.name, r.matches, r.applied, r.times_banned, r.banned_iters
            );
        }
        for it in &self.iter_counts {
            let _ = writeln!(
                out,
                "i {} {} {} {}",
                it.matches, it.applied, it.total_nodes, it.num_classes
            );
        }
        out.push_str("egraph\n");
        out.push_str(&self.egraph);
        out
    }

    /// Parse [`SatEntry::to_text`] output.
    pub(crate) fn from_text(text: &str) -> Result<SatEntry, String> {
        let mut rest = text;
        let mut take_line = |what: &str| -> Result<&str, String> {
            let nl = rest.find('\n').ok_or_else(|| format!("truncated sat entry: {what}"))?;
            let line = &rest[..nl];
            rest = &rest[nl + 1..];
            Ok(line)
        };
        if take_line("header")? != SAT_HEADER {
            return Err("unsupported sat entry format".into());
        }
        let meta = take_line("meta")?.to_string();
        let mut toks = meta.split_whitespace();
        let mut next = || toks.next().ok_or("truncated sat meta");
        if next()? != "meta" {
            return Err("bad sat meta line".into());
        }
        let iters: usize = next()?.parse().map_err(|e| format!("bad iters: {e}"))?;
        let stop = parse_stop_token(next()?)?;
        let n_rules: usize = next()?.parse().map_err(|e| format!("bad rule count: {e}"))?;
        let n_iters: usize = next()?.parse().map_err(|e| format!("bad iter count: {e}"))?;
        // each counted item is a line of the entry: a count the text cannot
        // back is corruption, caught before anything is reserved for it
        if n_rules.max(n_iters) > text.len() {
            return Err("sat entry counts exceed the input".into());
        }
        let mut rule_stats = Vec::with_capacity(n_rules);
        for _ in 0..n_rules {
            let line = take_line("rule stats")?;
            let mut toks = line.split_whitespace();
            let mut next = || toks.next().ok_or_else(|| format!("truncated rule line {line:?}"));
            if next()? != "r" {
                return Err(format!("bad rule line {line:?}"));
            }
            let name = next()?.to_string();
            let mut num = |what: &str| -> Result<usize, String> {
                next()?.parse().map_err(|e| format!("bad {what}: {e}"))
            };
            rule_stats.push(RuleStats {
                name,
                matches: num("matches")?,
                applied: num("applied")?,
                times_banned: num("times_banned")?,
                banned_iters: num("banned_iters")?,
            });
        }
        let mut iter_counts = Vec::with_capacity(n_iters);
        for _ in 0..n_iters {
            let line = take_line("iteration counts")?;
            let mut toks = line.split_whitespace();
            let mut next = || toks.next().ok_or_else(|| format!("truncated iter line {line:?}"));
            if next()? != "i" {
                return Err(format!("bad iter line {line:?}"));
            }
            let mut num = |what: &str| -> Result<usize, String> {
                next()?.parse().map_err(|e| format!("bad {what}: {e}"))
            };
            iter_counts.push(IterCounts {
                matches: num("matches")?,
                applied: num("applied")?,
                total_nodes: num("total_nodes")?,
                num_classes: num("num_classes")?,
            });
        }
        if take_line("egraph marker")? != "egraph" {
            return Err("missing egraph marker".into());
        }
        Ok(SatEntry { egraph: rest.to_string(), iters, stop, rule_stats, iter_counts })
    }
}

impl SelEntry {
    /// Serialize to the versioned cache-entry text format.
    pub fn to_text(&self) -> String {
        debug_assert!(!self.winner.chars().any(char::is_whitespace));
        let mut out = String::new();
        out.push_str(SEL_HEADER);
        out.push('\n');
        let _ = writeln!(
            out,
            "meta {} {} {} {} {} {} {} {}",
            self.cost,
            u8::from(self.proven),
            self.explored,
            self.lower_bound,
            self.pruned[0],
            self.pruned[1],
            self.pruned[2],
            self.winner
        );
        out.push_str("selection\n");
        out.push_str(&self.selection);
        out
    }

    /// Parse [`SelEntry::to_text`] output.
    pub(crate) fn from_text(text: &str) -> Result<SelEntry, String> {
        let mut lines = text.splitn(3, '\n');
        let header = lines.next().ok_or("empty sel entry")?;
        if header != SEL_HEADER {
            return Err("unsupported sel entry format".into());
        }
        let meta = lines.next().ok_or("truncated sel entry")?;
        let rest = lines.next().ok_or("truncated sel entry")?;
        let mut toks = meta.split_whitespace();
        let mut next = || toks.next().ok_or("truncated sel meta");
        if next()? != "meta" {
            return Err("bad sel meta line".into());
        }
        let cost: u64 = next()?.parse().map_err(|e| format!("bad cost: {e}"))?;
        let proven = match next()? {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad proven flag {other:?}")),
        };
        let explored: u64 = next()?.parse().map_err(|e| format!("bad explored: {e}"))?;
        let lower_bound: u64 = next()?.parse().map_err(|e| format!("bad bound: {e}"))?;
        let mut pruned = [0usize; 3];
        for slot in &mut pruned {
            *slot = next()?.parse().map_err(|e| format!("bad pruned: {e}"))?;
        }
        let winner = next()?.to_string();
        let selection =
            rest.strip_prefix("selection\n").ok_or("missing selection marker")?.to_string();
        Ok(SelEntry { selection, cost, proven, winner, explored, lower_bound, pruned })
    }
}

/// Hash key of the saturation stage for one kernel body under a variant
/// and configuration. See the module docs for what is (and is not) mixed
/// into the key.
pub fn sat_stage_key(body: &Block, variant: Variant, config: &SaturatorConfig) -> u64 {
    let mut h = fnv1a(b"accsat-sat-key v1");
    h = fnv1a_mix(h, fingerprint_block(body));
    h = fnv1a_mix(h, u64::from(variant.saturates()));
    h = fnv1a_mix(h, config.limits.node_limit as u64);
    h = fnv1a_mix(h, config.limits.iter_limit as u64);
    h = fnv1a_mix(h, config.rules.len() as u64);
    for r in config.rules.iter() {
        h = fnv1a_mix(h, fnv1a(r.name.as_bytes()));
    }
    h
}

/// Hash key of the extraction stage: the saturation key plus everything
/// the objective depends on (cost model, node budget).
pub fn sel_stage_key(body: &Block, variant: Variant, config: &SaturatorConfig) -> u64 {
    sel_key_from(sat_stage_key(body, variant, config), config)
}

/// [`sel_stage_key`] of the kernel whose [`sat_stage_key`] is `sat_key`, so
/// a caller that needs both prints and hashes the body once.
pub(crate) fn sel_key_from(sat_key: u64, config: &SaturatorConfig) -> u64 {
    let mut h = fnv1a_mix(sat_key, fnv1a(b"accsat-sel-key v1"));
    let cm = &config.cost_model;
    for w in [cm.constant, cm.variable, cm.operation, cm.heavy] {
        h = fnv1a_mix(h, w);
    }
    fnv1a_mix(h, config.extraction_node_budget)
}

/// Hit/miss/eviction counters, per stage level (a snapshot from
/// [`StageCache::stats`]). Counters are cumulative over the cache's
/// lifetime and deterministic for a deterministic request sequence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Parsed-level hits.
    pub parsed_hits: u64,
    /// Parsed-level misses.
    pub parsed_misses: u64,
    /// Saturated-level hits.
    pub sat_hits: u64,
    /// Saturated-level misses.
    pub sat_misses: u64,
    /// Selected-level hits.
    pub sel_hits: u64,
    /// Selected-level misses.
    pub sel_misses: u64,
    /// Entries evicted (all levels, memory + disk).
    pub evictions: u64,
    /// Single-flight claims of a selection key that some earlier request
    /// had already claimed — the requests eligible to coalesce onto a
    /// prior computation. Counted by claim history, not by who actually
    /// blocked, so the value depends only on the request sequence, never
    /// on thread timing.
    pub coalesced: u64,
}

impl CacheStats {
    /// Render as a stable single-line JSON object.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"parsed_hits\":{},\"parsed_misses\":{},\"sat_hits\":{},",
                "\"sat_misses\":{},\"sel_hits\":{},\"sel_misses\":{},",
                "\"evictions\":{},\"coalesced\":{}}}"
            ),
            self.parsed_hits,
            self.parsed_misses,
            self.sat_hits,
            self.sat_misses,
            self.sel_hits,
            self.sel_misses,
            self.evictions,
            self.coalesced
        )
    }

    /// Fold the counters into a metrics registry under `cache.*` names.
    pub fn add_to(&self, reg: &mut accsat_obs::MetricsRegistry) {
        reg.add("cache.parsed.hits", self.parsed_hits);
        reg.add("cache.parsed.misses", self.parsed_misses);
        reg.add("cache.sat.hits", self.sat_hits);
        reg.add("cache.sat.misses", self.sat_misses);
        reg.add("cache.sel.hits", self.sel_hits);
        reg.add("cache.sel.misses", self.sel_misses);
        reg.add("cache.evictions", self.evictions);
        reg.add("cache.coalesced", self.coalesced);
    }
}

/// One FIFO-evicted in-memory shelf: serialized text at the sat and sel
/// levels, parsed [`Program`]s at the parsed level.
struct Shelf<V> {
    map: HashMap<u64, Arc<V>>,
    order: VecDeque<u64>,
}

impl<V> Shelf<V> {
    fn new() -> Shelf<V> {
        Shelf { map: HashMap::new(), order: VecDeque::new() }
    }

    /// Insert; returns how many entries were evicted.
    fn insert(&mut self, key: u64, value: Arc<V>, capacity: usize) -> u64 {
        if self.map.insert(key, value).is_none() {
            self.order.push_back(key);
        }
        let mut evicted = 0;
        while self.order.len() > capacity {
            let old = self.order.pop_front().expect("non-empty order queue");
            if self.map.remove(&old).is_some() {
                evicted += 1;
            }
        }
        evicted
    }
}

/// The in-memory + on-disk stage store. Cheap to share: wrap in an [`Arc`]
/// and clone the handle into every worker / request (all interior state is
/// mutex-guarded).
pub struct StageCache {
    dir: Option<PathBuf>,
    mem_capacity: usize,
    disk_capacity: usize,
    parsed: Mutex<Shelf<Program>>,
    sat: Mutex<Shelf<String>>,
    sel: Mutex<Shelf<String>>,
    stats: Mutex<CacheStats>,
    /// Selection-stage keys currently being computed, for single-flight
    /// request coalescing (see [`StageCache::single_flight`]).
    in_flight: Mutex<HashSet<u64>>,
    in_flight_done: Condvar,
    /// Every key ever claimed via [`StageCache::single_flight`], for the
    /// deterministic `coalesced` counter.
    ever_flown: Mutex<HashSet<u64>>,
}

impl std::fmt::Debug for StageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageCache")
            .field("dir", &self.dir)
            .field("mem_capacity", &self.mem_capacity)
            .field("disk_capacity", &self.disk_capacity)
            .finish_non_exhaustive()
    }
}

/// Default in-memory entry capacity per stage level.
pub const DEFAULT_MEM_CAPACITY: usize = 512;
/// Default on-disk entry capacity per stage level.
pub const DEFAULT_DISK_CAPACITY: usize = 4096;

impl StageCache {
    /// In-memory-only cache with default capacities.
    pub fn in_memory() -> StageCache {
        StageCache::new(None, DEFAULT_MEM_CAPACITY, DEFAULT_DISK_CAPACITY)
            .expect("an in-memory cache creates no directory")
    }

    /// Cache backed by `dir` (created if missing) with default capacities.
    pub fn with_dir(dir: &Path) -> std::io::Result<StageCache> {
        StageCache::new(Some(dir), DEFAULT_MEM_CAPACITY, DEFAULT_DISK_CAPACITY)
    }

    /// Fully explicit constructor (capacities are entries per level);
    /// creates the stage directories of a disk-backed cache.
    pub fn new(
        dir: Option<&Path>,
        mem_capacity: usize,
        disk_capacity: usize,
    ) -> std::io::Result<StageCache> {
        if let Some(dir) = dir {
            for level in ["parsed", "sat", "sel"] {
                std::fs::create_dir_all(dir.join(level))?;
            }
        }
        Ok(StageCache {
            dir: dir.map(Path::to_path_buf),
            mem_capacity: mem_capacity.max(1),
            disk_capacity: disk_capacity.max(1),
            parsed: Mutex::new(Shelf::new()),
            sat: Mutex::new(Shelf::new()),
            sel: Mutex::new(Shelf::new()),
            stats: Mutex::new(CacheStats::default()),
            in_flight: Mutex::new(HashSet::new()),
            in_flight_done: Condvar::new(),
            ever_flown: Mutex::new(HashSet::new()),
        })
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        *self.stats.lock().expect("cache stats lock")
    }

    /// Claim `key` for computation, blocking while another thread holds
    /// it. Concurrent requests for the same kernel thus coalesce: the
    /// first computes and populates the cache, the rest wait and then hit
    /// — deterministic cache levels instead of thundering-herd misses.
    pub fn single_flight(&self, key: u64) -> FlightGuard<'_> {
        if !self.ever_flown.lock().expect("ever-flown lock").insert(key) {
            // a repeat claim: this request could have coalesced onto the
            // first one (and does, whenever they overlap in time)
            self.stats.lock().expect("cache stats lock").coalesced += 1;
            trace::instant("cache", "coalesce", || vec![("key", format!("{key:016x}").into())]);
        }
        let mut set = self.in_flight.lock().expect("in-flight lock");
        while set.contains(&key) {
            set = self.in_flight_done.wait(set).expect("in-flight wait");
        }
        set.insert(key);
        FlightGuard { cache: self, key }
    }

    /// Look up a parsed program by source hash: memory first, then (for
    /// disk-backed caches) the `parsed/` stage directory, whose entries
    /// store the canonical printed program and re-parse on promotion (the
    /// printer round-trips by construction — it is the same text the
    /// golden tests diff).
    pub fn get_parsed(&self, src_hash: u64) -> Option<Arc<Program>> {
        let got = self.parsed.lock().expect("parsed lock").map.get(&src_hash).cloned();
        if let Some(p) = &got {
            self.stats.lock().expect("cache stats lock").parsed_hits += 1;
            self.probe("parsed", true);
            return Some(p.clone());
        }
        if let Some(dir) = &self.dir {
            if let Some(prog) =
                std::fs::read_to_string(entry_path(dir, "parsed", src_hash)).ok().and_then(|text| {
                    let body = text.strip_prefix(PARSED_HEADER)?.strip_prefix('\n')?;
                    accsat_ir::parse_program(body).ok()
                })
            {
                let prog = Arc::new(prog);
                self.promote(&self.parsed, src_hash, prog.clone(), 0);
                self.stats.lock().expect("cache stats lock").parsed_hits += 1;
                self.probe("parsed", true);
                return Some(prog);
            }
        }
        self.stats.lock().expect("cache stats lock").parsed_misses += 1;
        self.probe("parsed", false);
        None
    }

    /// Store a parsed program under its source hash — in memory, and for
    /// disk-backed caches also in the `parsed/` stage directory, so a
    /// restarted serve daemon recovers its parsed floor like the sat/sel
    /// levels.
    pub fn put_parsed(&self, src_hash: u64, prog: Arc<Program>) {
        let mut disk_evicted = 0;
        if let Some(dir) = &self.dir {
            let mut text = String::from(PARSED_HEADER);
            text.push('\n');
            text.push_str(&accsat_ir::print_program(&prog));
            disk_evicted = self.write_disk(dir, "parsed", src_hash, &text).unwrap_or(0);
        }
        self.promote(&self.parsed, src_hash, prog, disk_evicted);
    }

    /// Insert into an in-memory shelf, counting what FIFO eviction pushed
    /// out (`disk_evicted` entries went the same way on disk).
    fn promote<V>(&self, shelf: &Mutex<Shelf<V>>, key: u64, value: Arc<V>, disk_evicted: u64) {
        let evicted =
            disk_evicted + shelf.lock().expect("shelf lock").insert(key, value, self.mem_capacity);
        if evicted > 0 {
            self.stats.lock().expect("cache stats lock").evictions += evicted;
        }
    }

    /// Look up a saturation-stage entry.
    pub fn get_sat(&self, key: u64) -> Option<SatEntry> {
        self.get_entry(&self.sat, "sat", key, SatEntry::from_text)
    }

    /// Store a saturation-stage entry.
    pub fn put_sat(&self, key: u64, entry: &SatEntry) {
        self.put_entry(&self.sat, "sat", key, entry.to_text());
    }

    /// Look up an extraction-stage entry.
    pub fn get_sel(&self, key: u64) -> Option<SelEntry> {
        self.get_entry(&self.sel, "sel", key, SelEntry::from_text)
    }

    /// Store an extraction-stage entry.
    pub fn put_sel(&self, key: u64, entry: &SelEntry) {
        self.put_entry(&self.sel, "sel", key, entry.to_text());
    }

    fn count(&self, level: &str, hit: bool) {
        let mut stats = self.stats.lock().expect("cache stats lock");
        match (level, hit) {
            ("sat", true) => stats.sat_hits += 1,
            ("sat", false) => stats.sat_misses += 1,
            ("sel", true) => stats.sel_hits += 1,
            ("sel", false) => stats.sel_misses += 1,
            _ => unreachable!("unknown cache level {level}"),
        }
        drop(stats);
        self.probe(level, hit);
    }

    /// Trace a cache probe (diagnostic only — the counters above are the
    /// deterministic record).
    fn probe(&self, level: &str, hit: bool) {
        if !accsat_obs::trace::enabled() {
            return;
        }
        let name: &'static str = match (level, hit) {
            ("parsed", true) => "parsed.hit",
            ("parsed", false) => "parsed.miss",
            ("sat", true) => "sat.hit",
            ("sat", false) => "sat.miss",
            ("sel", true) => "sel.hit",
            ("sel", false) => "sel.miss",
            _ => "probe",
        };
        trace::instant("cache", name, Vec::new);
    }

    /// Look up `key` at a text level: memory first, then the level's disk
    /// directory. Only text that `decode` accepts is a hit and is promoted
    /// into memory, so a torn, corrupt or version-mismatched entry is a
    /// miss every time it is probed, until a put overwrites it.
    fn get_entry<T>(
        &self,
        shelf: &Mutex<Shelf<String>>,
        level: &str,
        key: u64,
        decode: impl Fn(&str) -> Result<T, String>,
    ) -> Option<T> {
        let held = shelf.lock().expect("shelf lock").map.get(&key).cloned();
        let found = match held {
            Some(text) => decode(&text).ok(),
            None => self.dir.as_ref().and_then(|dir| {
                let text = std::fs::read_to_string(entry_path(dir, level, key)).ok()?;
                let entry = decode(&text).ok()?;
                self.promote(shelf, key, Arc::new(text), 0);
                Some(entry)
            }),
        };
        self.count(level, found.is_some());
        found
    }

    fn put_entry(&self, shelf: &Mutex<Shelf<String>>, level: &str, key: u64, text: String) {
        let _span = trace::span_args("cache", "fill", || {
            vec![("level", level.to_string().into()), ("bytes", text.len().into())]
        });
        let disk_evicted =
            self.dir.as_ref().map_or(0, |dir| self.write_disk(dir, level, key, &text).unwrap_or(0));
        self.promote(shelf, key, Arc::new(text), disk_evicted);
    }

    /// Write one entry to disk and FIFO-evict by the index file. Failures
    /// are swallowed: the disk layer is an optimization, never a
    /// correctness dependency.
    fn write_disk(&self, dir: &Path, level: &str, key: u64, text: &str) -> Option<u64> {
        // one process-wide lock serializes entry and index writes; safety
        // across processes is ROADMAP's open hardening item
        static DISK_LOCK: Mutex<()> = Mutex::new(());
        let _disk = DISK_LOCK.lock().expect("disk lock");
        let path = entry_path(dir, level, key);
        // a put over an existing file replaces an entry that failed to read
        // (corrupt, or written by an older format version); its key is
        // already in the index
        let replaces = path.exists();
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, text).ok()?;
        std::fs::rename(&tmp, &path).ok()?;
        if replaces {
            return Some(0);
        }
        // maintain the insertion-order index and evict beyond capacity
        let index = dir.join(level).join("index");
        let mut keys: Vec<u64> = std::fs::read_to_string(&index)
            .unwrap_or_default()
            .lines()
            .filter_map(|l| u64::from_str_radix(l.trim(), 16).ok())
            .collect();
        keys.push(key);
        let mut evicted = 0;
        while keys.len() > self.disk_capacity {
            let old = keys.remove(0);
            let _ = std::fs::remove_file(entry_path(dir, level, old));
            evicted += 1;
        }
        let body: String = keys.iter().map(|k| format!("{k:016x}\n")).collect();
        let tmp = index.with_extension("tmp");
        std::fs::write(&tmp, body).ok()?;
        std::fs::rename(&tmp, &index).ok()?;
        Some(evicted)
    }
}

fn entry_path(dir: &Path, level: &str, key: u64) -> PathBuf {
    dir.join(level).join(format!("{key:016x}.entry"))
}

/// RAII claim from [`StageCache::single_flight`]; releases the key and
/// wakes waiters on drop.
pub struct FlightGuard<'a> {
    cache: &'a StageCache,
    key: u64,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        let mut set = self.cache.in_flight.lock().expect("in-flight lock");
        set.remove(&self.key);
        drop(set);
        self.cache.in_flight_done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accsat_ir::parse_program;

    const KERNEL: &str = r#"
void k(double a[16], double out[16], double c0) {
  #pragma acc parallel loop gang vector
  for (int i = 1; i < 15; i++) {
    out[i] = a[i] * c0 + a[i - 1];
  }
}
"#;

    fn body() -> Block {
        parse_program(KERNEL).unwrap().functions[0].body.clone()
    }

    #[test]
    fn stage_keys_separate_config_axes() {
        let b = body();
        let base = SaturatorConfig::default();
        let sat0 = sat_stage_key(&b, Variant::AccSat, &base);
        let sel0 = sel_stage_key(&b, Variant::AccSat, &base);
        // saturating variants share keys; non-saturating ones do not
        assert_eq!(sat_stage_key(&b, Variant::CseSat, &base), sat0);
        assert_ne!(sat_stage_key(&b, Variant::Cse, &base), sat0);
        assert_eq!(sat_stage_key(&b, Variant::CseBulk, &base), {
            sat_stage_key(&b, Variant::Cse, &base)
        });
        // objective changes move the selection key but not the sat key
        let mut heavy = base.clone();
        heavy.cost_model = accsat_extract::CostModel::with_heavy(1000);
        assert_eq!(sat_stage_key(&b, Variant::AccSat, &heavy), sat0);
        assert_ne!(sel_stage_key(&b, Variant::AccSat, &heavy), sel0);
        // saturation-limit changes move both
        let mut deeper = base.clone();
        deeper.limits.iter_limit = 3;
        assert_ne!(sat_stage_key(&b, Variant::AccSat, &deeper), sat0);
        // wall-clock budgets are excluded on purpose
        let mut valve = base.clone();
        valve.extraction_budget = std::time::Duration::from_secs(99);
        valve.limits.time_limit = std::time::Duration::from_secs(99);
        assert_eq!(sat_stage_key(&b, Variant::AccSat, &valve), sat0);
        assert_eq!(sel_stage_key(&b, Variant::AccSat, &valve), sel0);
    }

    #[test]
    fn entries_round_trip_and_reject_corruption() {
        let sat = SatEntry {
            egraph: "accsat-egraph v2\nfake body\n".into(),
            iters: 3,
            stop: Some(StopReason::Saturated),
            rule_stats: vec![RuleStats {
                name: "COMM-ADD".into(),
                matches: 10,
                applied: 4,
                times_banned: 1,
                banned_iters: 2,
            }],
            iter_counts: vec![
                IterCounts { matches: 10, applied: 4, total_nodes: 50, num_classes: 30 },
                IterCounts { matches: 2, applied: 0, total_nodes: 52, num_classes: 30 },
            ],
        };
        let back = SatEntry::from_text(&sat.to_text()).unwrap();
        assert_eq!(back.iters, 3);
        assert_eq!(back.stop, Some(StopReason::Saturated));
        assert_eq!(back.rule_stats.len(), 1);
        assert_eq!(back.rule_stats[0].name, "COMM-ADD");
        assert_eq!(back.iter_counts, sat.iter_counts);
        assert_eq!(back.egraph, sat.egraph);
        assert!(SatEntry::from_text("bogus\n").is_err());
        // a v1 entry (no version bump migration) reads as a miss
        assert!(SatEntry::from_text("accsat-stage sat v1\nmeta 0 none 0\negraph\n").is_err());
        // counts the entry cannot back used to abort in `with_capacity`
        let hostile = format!("{SAT_HEADER}\nmeta 0 none 1152921504606846975 0\negraph\n");
        assert!(SatEntry::from_text(&hostile).is_err());

        let sel = SelEntry {
            selection: "accsat-selection v1 0\nend\n".into(),
            cost: 120,
            proven: true,
            winner: "greedy".into(),
            explored: 7,
            lower_bound: 120,
            pruned: [5, 2, 9],
        };
        let back = SelEntry::from_text(&sel.to_text()).unwrap();
        assert_eq!((back.cost, back.proven, back.explored, back.lower_bound), (120, true, 7, 120));
        assert_eq!(back.winner, "greedy");
        assert_eq!(back.pruned, [5, 2, 9]);
        assert_eq!(back.selection, sel.selection);
        assert!(SelEntry::from_text("bogus\n").is_err());
    }

    #[test]
    fn fifo_eviction_is_deterministic() {
        let cache = StageCache::new(None, 2, 2).unwrap();
        let entry = |i: u64| SelEntry {
            selection: format!("accsat-selection v1 0\nend\n# {i}"),
            cost: i,
            proven: false,
            winner: "greedy".into(),
            explored: 0,
            lower_bound: 0,
            pruned: [0; 3],
        };
        cache.put_sel(1, &entry(1));
        cache.put_sel(2, &entry(2));
        cache.put_sel(3, &entry(3)); // evicts key 1
        assert!(cache.get_sel(1).is_none());
        assert_eq!(cache.get_sel(2).unwrap().cost, 2);
        assert_eq!(cache.get_sel(3).unwrap().cost, 3);
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.sel_hits, 2);
        assert_eq!(stats.sel_misses, 1);
    }

    #[test]
    fn disk_store_persists_across_cache_instances() {
        let dir = std::env::temp_dir().join(format!("accsat-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = StageCache::with_dir(&dir).unwrap();
            cache.put_sel(
                42,
                &SelEntry {
                    selection: "accsat-selection v1 0\nend\n".into(),
                    cost: 9,
                    proven: true,
                    winner: "refine".into(),
                    explored: 1,
                    lower_bound: 9,
                    pruned: [0; 3],
                },
            );
        }
        let cache = StageCache::with_dir(&dir).unwrap();
        let entry = cache.get_sel(42).expect("disk entry must survive the process boundary");
        assert_eq!(entry.cost, 9);
        assert_eq!(entry.winner, "refine");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_undecodable_disk_entry_is_a_miss_every_time() {
        let dir = std::env::temp_dir().join(format!("accsat-stale-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = StageCache::with_dir(&dir).unwrap();
        // a selected entry written by an older format version
        let stale = "accsat-stage sel v1\nmeta 9 true refine 1 9\naccsat-selection v1 0\nend\n";
        std::fs::write(entry_path(&dir, "sel", 42), stale).unwrap();
        assert!(cache.get_sel(42).is_none());
        assert!(cache.get_sel(42).is_none(), "the bad text must not be promoted into memory");
        let stats = cache.stats();
        assert_eq!((stats.sel_hits, stats.sel_misses), (0, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_flight_coalesces_concurrent_computations() {
        let cache = Arc::new(StageCache::in_memory());
        let started = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = cache.clone();
                let started = started.clone();
                scope.spawn(move || {
                    let _flight = cache.single_flight(7);
                    if cache.get_sel(7).is_none() {
                        started.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        cache.put_sel(
                            7,
                            &SelEntry {
                                selection: "accsat-selection v1 0\nend\n".into(),
                                cost: 1,
                                proven: false,
                                winner: "greedy".into(),
                                explored: 0,
                                lower_bound: 1,
                                pruned: [0; 3],
                            },
                        );
                    }
                });
            }
        });
        assert_eq!(
            started.load(std::sync::atomic::Ordering::SeqCst),
            1,
            "only the first request computes; the rest coalesce"
        );
        assert_eq!(
            cache.stats().coalesced,
            3,
            "every repeat claim of an already-claimed key counts, at any interleaving"
        );
    }

    #[test]
    fn parsed_level_persists_to_disk() {
        let dir = std::env::temp_dir().join(format!("accsat-parsed-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let prog = Arc::new(parse_program(KERNEL).unwrap());
        let key = fnv1a(KERNEL.as_bytes());
        {
            let cache = StageCache::with_dir(&dir).unwrap();
            cache.put_parsed(key, prog.clone());
            assert!(cache.get_parsed(key).is_some());
        }
        // a fresh cache instance recovers the entry from disk, and the
        // printed program round-trips exactly
        let cache = StageCache::with_dir(&dir).unwrap();
        let back = cache.get_parsed(key).expect("parsed entry survives the process boundary");
        assert_eq!(accsat_ir::print_program(&back), accsat_ir::print_program(&prog));
        let stats = cache.stats();
        assert_eq!((stats.parsed_hits, stats.parsed_misses), (1, 0));
        // in-memory caches still miss across instances
        let mem = StageCache::in_memory();
        assert!(mem.get_parsed(key).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
