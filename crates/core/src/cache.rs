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
//!   The selection is *sealed* (`accsat-selection v2`): its header holds a
//!   64-bit hash of the bytes of the `saturated` snapshot it was extracted
//!   from and of its own lines.
//!
//! **What a `selected` hit reads.** Both entries, as before — the
//! selection, then the snapshot — but not the whole snapshot: lowering a
//! finished selection needs canonical ids and nothing else. The hit
//! recomputes the seal over the bytes it holds, reads the snapshot's head
//! (its `fold`, `nodes` and `uf` lines, `accsat_egraph::SnapshotHead`),
//! walks the selection from the extraction roots through the head's
//! union-find (total, acyclic, in range) to its claimed cost, checks the
//! bound against that cost, and lowers through the union-find. No e-graph
//! is restored and no class membership is walked. The seal refuses what
//! that membership walk refused — a corrupt selection, another kernel's
//! selection under a colliding `sel` key — and also a snapshot edited
//! into another well-formed one, which the walk could pass. An unsealed
//! selection or a seal that does not match is a miss, and the kernel
//! resumes from the `saturated` level, which still restores and checks the
//! whole snapshot. The seal is a check against corruption and mix-ups,
//! not against forgery; a snapshot of another kernel stored under this
//! kernel's `sat` key, with its own sealed selection, is still trusted
//! (ROADMAP item 2's key witnesses).
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
//! under content hashes. A format version bump (see the headers: `sat`
//! entries are at `v2`, `sel` entries at `v3` since their selections are
//! sealed, `parsed` entries at `v1`) orphans old entries, which then age
//! out by eviction; corrupt or version-mismatched entries read as misses.
//!
//! **Eviction** is deterministic: FIFO by insertion order in memory. On
//! disk the `<key>.entry` files are the only state: a put that takes a
//! level over capacity removes keys in ascending order from a cursor that
//! wraps around, so every file ages out, one another process wrote too.
//! No clocks, no LRU, no index — byte-identical cache behavior for
//! byte-identical request sequences in one process.

use crate::pipeline::{SaturatorConfig, Variant};
use accsat_egraph::{IterCounts, RuleStats, StopReason};
use accsat_ir::{fingerprint_block, fnv1a, fnv1a_mix, Block, Program};
use accsat_obs::trace;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
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
    /// Serialized winning selection: `Selection::serialize_sealed` text
    /// when the pipeline wrote it; `Selection::deserialize` reads both.
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
// pruning-layer counts; sel v3: the selection is sealed to its snapshot.
// Older entries fail the header check and read as misses, exactly as the
// module docs promise for format bumps.
const SAT_HEADER: &str = "accsat-stage sat v2";
const SEL_HEADER: &str = "accsat-stage sel v3";
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
    use StopReason::*;
    let all = [None, Some(Saturated), Some(NodeLimit), Some(IterLimit), Some(TimeLimit)];
    all.into_iter().find(|&s| stop_token(s) == tok).ok_or_else(|| format!("bad stop {tok:?}"))
}

/// An entry's text read a line at a time, each line a field at a time:
/// the one reader of all three entry decoders. What is left after the
/// last line read is the entry's payload.
struct Reader<'a> {
    rest: &'a str,
    fields: std::str::SplitWhitespace<'a>,
}

impl<'a> Reader<'a> {
    /// A reader past `text`'s first line, which must read exactly `header`.
    fn open(text: &'a str, header: &str) -> Result<Reader<'a>, String> {
        let mut r = Reader { rest: text, fields: "".split_whitespace() };
        r.expect(header)?;
        Ok(r)
    }

    /// Move to the next line, which must read exactly `want`.
    fn expect(&mut self, want: &str) -> Result<(), String> {
        (self.advance()? == want).then_some(()).ok_or_else(|| format!("expected {want:?}"))
    }

    /// Move to the next line, whose first field must be `tag`.
    fn record(&mut self, tag: &str) -> Result<(), String> {
        self.advance()?;
        (self.word()? == tag).then_some(()).ok_or_else(|| format!("expected a {tag} line"))
    }

    fn advance(&mut self) -> Result<&'a str, String> {
        let (line, rest) = self.rest.split_once('\n').ok_or("truncated entry")?;
        (self.rest, self.fields) = (rest, line.split_whitespace());
        Ok(line)
    }

    fn word(&mut self) -> Result<&'a str, String> {
        self.fields.next().ok_or_else(|| "truncated line".into())
    }

    fn num<T: std::str::FromStr>(&mut self) -> Result<T, String> {
        let word = self.word()?;
        word.parse().map_err(|_| format!("bad number {word:?}"))
    }
}

/// A value one stage level stores: decoded in memory, and on disk as
/// versioned text.
trait Stage: Sized {
    const LEVEL: &'static Level;
    /// Serialize to the versioned cache-entry text format.
    fn to_text(&self) -> String;
    /// Parse [`Stage::to_text`] output, taking rule names from `names`.
    fn from_text(text: &str, names: &RuleNames) -> Result<Self, String>;
}

/// The rule names one cache has decoded, each held once: the `SatEntry`s
/// on its shelves share them, as the runner's statistics share the rule
/// set's, instead of holding a copy per entry.
#[derive(Default)]
struct RuleNames(Mutex<HashSet<Arc<str>>>);

/// The canonical printed program: the printer round-trips by construction
/// (it is the same text the golden tests diff), so re-parsing is lossless.
impl Stage for Program {
    const LEVEL: &'static Level = &LEVELS[0];
    fn to_text(&self) -> String {
        format!("{PARSED_HEADER}\n{}", accsat_ir::print_program(self))
    }
    fn from_text(text: &str, _: &RuleNames) -> Result<Program, String> {
        accsat_ir::parse_program(Reader::open(text, PARSED_HEADER)?.rest).map_err(|e| e.to_string())
    }
}

impl Stage for SatEntry {
    const LEVEL: &'static Level = &LEVELS[1];
    fn to_text(&self) -> String {
        let (iters, stop) = (self.iters, stop_token(self.stop));
        let (n_rules, n_iters) = (self.rule_stats.len(), self.iter_counts.len());
        let mut out = format!("{SAT_HEADER}\nmeta {iters} {stop} {n_rules} {n_iters}\n");
        for RuleStats { name, matches, applied, times_banned, banned_iters } in &self.rule_stats {
            debug_assert!(!name.chars().any(char::is_whitespace));
            let _ = writeln!(out, "r {name} {matches} {applied} {times_banned} {banned_iters}");
        }
        for IterCounts { matches, applied, total_nodes, num_classes } in &self.iter_counts {
            let _ = writeln!(out, "i {matches} {applied} {total_nodes} {num_classes}");
        }
        out.push_str("egraph\n");
        out + &self.egraph
    }

    fn from_text(text: &str, names: &RuleNames) -> Result<SatEntry, String> {
        let mut r = Reader::open(text, SAT_HEADER)?;
        r.record("meta")?;
        let iters = r.num()?;
        let stop = parse_stop_token(r.word()?)?;
        let (n_rules, n_iters): (usize, usize) = (r.num()?, r.num()?);
        // each counted item is a line of the entry: a count the text cannot
        // back is corruption, caught before anything is reserved for it
        if n_rules.max(n_iters) > text.len() {
            return Err("sat entry counts exceed the input".into());
        }
        let mut rule_stats = Vec::with_capacity(n_rules);
        let mut names = names.0.lock().expect("rule names lock");
        for _ in 0..n_rules {
            r.record("r")?;
            let word = r.word()?;
            let name = names.get(word).cloned().unwrap_or_else(|| {
                let name: Arc<str> = word.into();
                names.insert(name.clone());
                name
            });
            let (matches, applied, times_banned, banned_iters) =
                (r.num()?, r.num()?, r.num()?, r.num()?);
            rule_stats.push(RuleStats { name, matches, applied, times_banned, banned_iters });
        }
        let mut iter_counts = Vec::with_capacity(n_iters);
        for _ in 0..n_iters {
            r.record("i")?;
            let (matches, applied, total_nodes, num_classes) =
                (r.num()?, r.num()?, r.num()?, r.num()?);
            iter_counts.push(IterCounts { matches, applied, total_nodes, num_classes });
        }
        r.expect("egraph")?;
        Ok(SatEntry { egraph: r.rest.to_string(), iters, stop, rule_stats, iter_counts })
    }
}

impl Stage for SelEntry {
    const LEVEL: &'static Level = &LEVELS[2];
    fn to_text(&self) -> String {
        debug_assert!(!self.winner.chars().any(char::is_whitespace));
        let (cost, proven, [p0, p1, p2]) = (self.cost, u8::from(self.proven), self.pruned);
        let (explored, bound, winner) = (self.explored, self.lower_bound, &self.winner);
        let meta = format!("meta {cost} {proven} {explored} {bound} {p0} {p1} {p2} {winner}");
        format!("{SEL_HEADER}\n{meta}\nselection\n{}", self.selection)
    }

    fn from_text(text: &str, _: &RuleNames) -> Result<SelEntry, String> {
        let mut r = Reader::open(text, SEL_HEADER)?;
        r.record("meta")?;
        let cost = r.num()?;
        let proven = match r.word()? {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad proven flag {other:?}")),
        };
        let (explored, lower_bound, pruned) = (r.num()?, r.num()?, [r.num()?, r.num()?, r.num()?]);
        let winner = r.word()?.to_string();
        r.expect("selection")?;
        let selection = r.rest.to_string();
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
    /// Every counter as `(JSON key, metric name, value)`, in report order.
    fn fields(&self) -> [(&'static str, &'static str, u64); 8] {
        [
            ("parsed_hits", "cache.parsed.hits", self.parsed_hits),
            ("parsed_misses", "cache.parsed.misses", self.parsed_misses),
            ("sat_hits", "cache.sat.hits", self.sat_hits),
            ("sat_misses", "cache.sat.misses", self.sat_misses),
            ("sel_hits", "cache.sel.hits", self.sel_hits),
            ("sel_misses", "cache.sel.misses", self.sel_misses),
            ("evictions", "cache.evictions", self.evictions),
            ("coalesced", "cache.coalesced", self.coalesced),
        ]
    }

    /// Render as a stable single-line JSON object.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> =
            self.fields().iter().map(|(key, _, v)| format!("\"{key}\":{v}")).collect();
        format!("{{{}}}", fields.join(","))
    }

    /// Fold the counters into a metrics registry under `cache.*` names.
    pub fn add_to(&self, reg: &mut accsat_obs::MetricsRegistry) {
        for (_, name, v) in self.fields() {
            reg.add(name, v);
        }
    }
}

/// What the three stage levels differ in besides their value type.
struct Level {
    /// Directory under a `--cache-dir`, and the `cache/fill` span's `level`.
    dir: &'static str,
    /// The `cache` instants of a hit and of a miss.
    events: [&'static str; 2],
    /// The [`CacheStats`] counter a hit (`true`) or a miss bumps.
    counter: fn(&mut CacheStats, bool) -> &mut u64,
    /// Does a put open a `cache/fill` span? (Parsed puts are untraced.)
    fill: bool,
}

const LEVELS: [Level; 3] = [
    Level {
        dir: "parsed",
        events: ["parsed.hit", "parsed.miss"],
        counter: |s, hit| if hit { &mut s.parsed_hits } else { &mut s.parsed_misses },
        fill: false,
    },
    Level {
        dir: "sat",
        events: ["sat.hit", "sat.miss"],
        counter: |s, hit| if hit { &mut s.sat_hits } else { &mut s.sat_misses },
        fill: true,
    },
    Level {
        dir: "sel",
        events: ["sel.hit", "sel.miss"],
        counter: |s, hit| if hit { &mut s.sel_hits } else { &mut s.sel_misses },
        fill: true,
    },
];

/// One level's two tiers: the in-memory shelf of decoded values, FIFO by
/// insertion, and the tally of the level's disk directory.
struct Store<V> {
    shelf: Mutex<Shelf<V>>,
    disk: Mutex<DiskTally>,
}

struct Shelf<V> {
    map: HashMap<u64, Arc<V>>,
    order: VecDeque<u64>,
}

/// A level directory's `.entry` count (`None` until the level's first put
/// scans it) and the key the next trim starts from.
#[derive(Default)]
struct DiskTally {
    files: Option<usize>,
    next: u64,
}

impl<V> Store<V> {
    fn new() -> Store<V> {
        let shelf = Shelf { map: HashMap::new(), order: VecDeque::new() };
        Store { shelf: Mutex::new(shelf), disk: Mutex::default() }
    }

    /// Insert into the shelf; returns how many entries were evicted.
    fn insert(&self, key: u64, value: Arc<V>, capacity: usize) -> u64 {
        let mut shelf = self.shelf.lock().expect("shelf lock");
        if shelf.map.insert(key, value).is_none() {
            shelf.order.push_back(key);
        }
        let mut evicted = 0;
        while shelf.order.len() > capacity {
            let old = shelf.order.pop_front().expect("non-empty order queue");
            if shelf.map.remove(&old).is_some() {
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
    parsed: Store<Program>,
    sat: Store<SatEntry>,
    sel: Store<SelEntry>,
    stats: Mutex<CacheStats>,
    rule_names: RuleNames,
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
            for level in &LEVELS {
                std::fs::create_dir_all(dir.join(level.dir))?;
            }
        }
        Ok(StageCache {
            dir: dir.map(Path::to_path_buf),
            mem_capacity: mem_capacity.max(1),
            disk_capacity: disk_capacity.max(1),
            parsed: Store::new(),
            sat: Store::new(),
            sel: Store::new(),
            stats: Mutex::new(CacheStats::default()),
            rule_names: RuleNames::default(),
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

    /// Look up a parsed program by source hash.
    pub fn get_parsed(&self, src_hash: u64) -> Option<Arc<Program>> {
        self.get(&self.parsed, src_hash)
    }

    /// Store a parsed program under its source hash.
    pub fn put_parsed(&self, src_hash: u64, prog: Arc<Program>) {
        self.put(&self.parsed, src_hash, prog);
    }

    /// Look up a saturation-stage entry.
    pub fn get_sat(&self, key: u64) -> Option<SatEntry> {
        self.sat_entry(key).map(Arc::unwrap_or_clone)
    }

    /// [`StageCache::get_sat`] without the copy: the shared entry itself.
    pub(crate) fn sat_entry(&self, key: u64) -> Option<Arc<SatEntry>> {
        self.get(&self.sat, key)
    }

    /// Store a saturation-stage entry.
    pub fn put_sat(&self, key: u64, entry: &SatEntry) {
        self.put(&self.sat, key, Arc::new(entry.clone()));
    }

    /// Look up an extraction-stage entry.
    pub fn get_sel(&self, key: u64) -> Option<SelEntry> {
        self.sel_entry(key).map(Arc::unwrap_or_clone)
    }

    /// [`StageCache::get_sel`] without the copy: the shared entry itself.
    pub(crate) fn sel_entry(&self, key: u64) -> Option<Arc<SelEntry>> {
        self.get(&self.sel, key)
    }

    /// Store an extraction-stage entry.
    pub fn put_sel(&self, key: u64, entry: &SelEntry) {
        self.put(&self.sel, key, Arc::new(entry.clone()));
    }

    /// Look up `key` at `V`'s level: memory first, then the level's disk
    /// directory. Only text that decodes is a hit and is promoted into
    /// memory, so a torn, corrupt or version-mismatched entry is a miss
    /// every time it is probed, until a put overwrites it.
    fn get<V: Stage>(&self, store: &Store<V>, key: u64) -> Option<Arc<V>> {
        let mut found = store.shelf.lock().expect("shelf lock").map.get(&key).cloned();
        if let (None, Some(dir)) = (&found, &self.dir) {
            let text = std::fs::read_to_string(entry_path(dir, V::LEVEL.dir, key));
            let decoded = text.ok().and_then(|text| V::from_text(&text, &self.rule_names).ok());
            found = decoded.map(Arc::new);
            if let Some(value) = &found {
                let evicted = store.insert(key, value.clone(), self.mem_capacity);
                self.stats.lock().expect("cache stats lock").evictions += evicted;
            }
        }
        let hit = found.is_some();
        *(V::LEVEL.counter)(&mut self.stats.lock().expect("cache stats lock"), hit) += 1;
        // diagnostic only: the counters are the deterministic record
        trace::instant("cache", V::LEVEL.events[usize::from(found.is_none())], Vec::new);
        found
    }

    /// Store `value` under `key` at `V`'s level: on disk, then in memory.
    fn put<V: Stage>(&self, store: &Store<V>, key: u64, value: Arc<V>) {
        let level = V::LEVEL;
        let disk = self.dir.as_ref().map(|dir| (dir.join(level.dir), value.to_text()));
        let _span = level.fill.then(|| {
            trace::span_args("cache", "fill", || {
                let bytes = disk.as_ref().map_or_else(|| value.to_text().len(), |(_, t)| t.len());
                vec![("level", level.dir.into()), ("bytes", bytes.into())]
            })
        });
        let disk_evicted = disk.map_or(0, |(dir, text)| self.write_disk(store, &dir, key, &text));
        let evicted = disk_evicted + store.insert(key, value, self.mem_capacity);
        self.stats.lock().expect("cache stats lock").evictions += evicted;
    }

    /// Write one entry into `level_dir` through a tmp file no other writer
    /// names, then trim the level to capacity; returns the entries
    /// removed. Failures are swallowed: the disk tier is an optimization,
    /// never a correctness dependency.
    fn write_disk<V>(&self, store: &Store<V>, level_dir: &Path, key: u64, text: &str) -> u64 {
        static WRITES: AtomicU64 = AtomicU64::new(0);
        let writer = (std::process::id(), WRITES.fetch_add(1, Ordering::Relaxed));
        let tmp = level_dir.join(format!("{key:016x}.{}-{}.tmp", writer.0, writer.1));
        let path = level_dir.join(format!("{key:016x}.entry"));
        if std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, &path)).is_err() {
            let _ = std::fs::remove_file(&tmp);
            return 0;
        }
        let mut tally = store.disk.lock().expect("disk tally lock");
        let mut keys = match tally.files {
            // a put over an existing file overcounts; the next scan recounts
            Some(n) if n < self.disk_capacity => {
                tally.files = Some(n + 1);
                return 0;
            }
            _ => entry_keys(level_dir),
        };
        let (files, excess) = (keys.len(), keys.len().saturating_sub(self.disk_capacity));
        keys.retain(|&k| k != key);
        keys.sort_unstable_by_key(|&k| k.wrapping_sub(tally.next));
        let mut evicted = 0;
        for &old in &keys[..excess] {
            tally.next = old.wrapping_add(1);
            let gone = std::fs::remove_file(level_dir.join(format!("{old:016x}.entry")));
            evicted += u64::from(gone.is_ok());
        }
        tally.files = Some(files - evicted as usize);
        evicted
    }
}

fn entry_path(dir: &Path, level: &str, key: u64) -> PathBuf {
    dir.join(level).join(format!("{key:016x}.entry"))
}

/// The keys of a level directory's `<16 lowercase hex digits>.entry`
/// files — the only files the cache counts, reads or removes.
fn entry_keys(level_dir: &Path) -> Vec<u64> {
    let names = std::fs::read_dir(level_dir).into_iter().flatten().flatten();
    names
        .filter_map(|e| {
            let name = e.file_name();
            let hex = name.to_str()?.strip_suffix(".entry")?;
            let key = u64::from_str_radix(hex, 16).ok()?;
            (format!("{key:016x}") == hex).then_some(key)
        })
        .collect()
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
        let names = RuleNames::default();
        let back = SatEntry::from_text(&sat.to_text(), &names).unwrap();
        assert_eq!(back.iters, 3);
        assert_eq!(back.stop, Some(StopReason::Saturated));
        assert_eq!(back.rule_stats.len(), 1);
        assert_eq!(&*back.rule_stats[0].name, "COMM-ADD");
        assert_eq!(back.iter_counts, sat.iter_counts);
        assert_eq!(back.egraph, sat.egraph);
        assert!(SatEntry::from_text("bogus\n", &names).is_err());
        // a v1 entry (no version bump migration) reads as a miss
        assert!(
            SatEntry::from_text("accsat-stage sat v1\nmeta 0 none 0\negraph\n", &names).is_err()
        );
        // counts the entry cannot back used to abort in `with_capacity`
        let hostile = format!("{SAT_HEADER}\nmeta 0 none 1152921504606846975 0\negraph\n");
        assert!(SatEntry::from_text(&hostile, &names).is_err());

        let sel = SelEntry {
            selection: "accsat-selection v1 0\nend\n".into(),
            cost: 120,
            proven: true,
            winner: "greedy".into(),
            explored: 7,
            lower_bound: 120,
            pruned: [5, 2, 9],
        };
        let back = SelEntry::from_text(&sel.to_text(), &names).unwrap();
        assert_eq!((back.cost, back.proven, back.explored, back.lower_bound), (120, true, 7, 120));
        assert_eq!(back.winner, "greedy");
        assert_eq!(back.pruned, [5, 2, 9]);
        assert_eq!(back.selection, sel.selection);
        assert!(SelEntry::from_text("bogus\n", &names).is_err());
    }

    /// Entries decoded by one cache share one name per rule; another
    /// cache decodes its own.
    #[test]
    fn decoded_entries_share_their_rule_names() {
        let dir = fresh_dir("rule-names");
        let stats = |name: &str| RuleStats { name: name.into(), ..RuleStats::default() };
        let entry = |i: u64| SatEntry {
            rule_stats: vec![stats("FMA1"), stats("COMM-ADD")],
            ..sat_entry(i)
        };
        let writer = StageCache::with_dir(&dir).unwrap();
        for key in [1, 2] {
            writer.put_sat(key, &entry(key));
        }
        let (reader, other) = (StageCache::with_dir(&dir).unwrap(), StageCache::in_memory());
        let (one, two) = (reader.get_sat(1).unwrap(), reader.get_sat(2).unwrap());
        for (a, b) in one.rule_stats.iter().zip(&two.rule_stats) {
            assert!(Arc::ptr_eq(&a.name, &b.name), "{} is held twice", a.name);
        }
        assert_eq!(one.rule_stats, entry(1).rule_stats);
        let again = SatEntry::from_text(&entry(3).to_text(), &other.rule_names).unwrap();
        assert!(!Arc::ptr_eq(&again.rule_stats[0].name, &one.rule_stats[0].name));
        let _ = std::fs::remove_dir_all(&dir);
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

    fn sat_entry(i: u64) -> SatEntry {
        let egraph = format!("accsat-egraph v2\n# {i}\n");
        SatEntry { egraph, iters: 1, stop: None, rule_stats: Vec::new(), iter_counts: Vec::new() }
    }

    fn sel_entry(i: u64) -> SelEntry {
        SelEntry {
            selection: format!("accsat-selection v1 0\nend\n# {i}"),
            cost: i,
            proven: false,
            winner: "greedy".into(),
            explored: 0,
            lower_bound: 0,
            pruned: [0; 3],
        }
    }

    /// An empty directory under the system temp dir, named for the test
    /// and this process.
    fn fresh_dir(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("accsat-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Put every key of `keys` at all three levels.
    fn put_all(cache: &StageCache, keys: impl IntoIterator<Item = u64>) {
        let prog = Arc::new(parse_program(KERNEL).unwrap());
        for key in keys {
            cache.put_parsed(key, prog.clone());
            cache.put_sat(key, &sat_entry(key));
            cache.put_sel(key, &sel_entry(key));
        }
    }

    /// The sorted file names of one level directory.
    fn names(dir: &Path, level: &str) -> Vec<String> {
        let entries = std::fs::read_dir(dir.join(level)).unwrap();
        let mut names: Vec<String> =
            entries.map(|e| e.unwrap().file_name().into_string().unwrap()).collect();
        names.sort();
        names
    }

    #[test]
    fn an_entry_file_another_writer_left_still_ages_out() {
        let dir = fresh_dir("foreign");
        let cache = StageCache::new(Some(&dir), 2, 2).unwrap();
        // written by another process whose bookkeeping this cache never saw
        std::fs::write(entry_path(&dir, "sel", 0xf00d), sel_entry(7).to_text()).unwrap();
        put_all(&cache, [1, 2, 3]);
        for level in ["parsed", "sat", "sel"] {
            let entries = names(&dir, level).iter().filter(|n| n.ends_with(".entry")).count();
            assert!(entries <= 2, "{level}/ holds {entries} entries at capacity 2");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_capacity_holds_per_level_and_repeats_exactly() {
        let keys: Vec<u64> = (1..=8u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
        let run = |test: &str| {
            let dir = fresh_dir(test);
            let cache = StageCache::new(Some(&dir), 2, 3).unwrap();
            put_all(&cache, keys.iter().copied());
            let last = *keys.last().unwrap();
            let reader = StageCache::new(Some(&dir), 2, 3).unwrap();
            for level in ["parsed", "sat", "sel"] {
                let left = entry_keys(&dir.join(level));
                assert!(left.len() <= 3, "{level}/ holds {} entries at capacity 3", left.len());
                assert!(left.contains(&last), "{level}/ lost the key just written");
                for key in left {
                    let decodes = match level {
                        "parsed" => reader.get_parsed(key).is_some(),
                        "sat" => reader.get_sat(key).is_some(),
                        _ => reader.get_sel(key).is_some(),
                    };
                    assert!(decodes, "{level}/{key:016x}.entry does not decode");
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
            cache.stats()
        };
        let stats = run("capacity-a");
        // per level: 6 out of memory (capacity 2) and 5 off disk (capacity 3)
        assert_eq!(stats.evictions, 3 * (6 + 5));
        assert_eq!(stats, run("capacity-b"));
    }

    #[test]
    fn a_put_over_an_undecodable_file_replaces_it_within_capacity() {
        let dir = fresh_dir("replace");
        let cache = StageCache::new(Some(&dir), 2, 2).unwrap();
        cache.put_sel(1, &sel_entry(1));
        std::fs::write(entry_path(&dir, "sel", 2), "accsat-stage sel v1\ntorn").unwrap();
        assert!(cache.get_sel(2).is_none());
        cache.put_sel(2, &sel_entry(2));
        cache.put_sel(3, &sel_entry(3));
        assert_eq!(names(&dir, "sel").len(), 2);
        let reader = StageCache::new(Some(&dir), 2, 2).unwrap();
        assert_eq!(reader.get_sel(2).map(|e| e.cost), Some(2), "the torn file was replaced");
        assert_eq!(reader.get_sel(3).map(|e| e.cost), Some(3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn only_entry_files_are_left_behind() {
        let dir = fresh_dir("leftovers");
        let cache = StageCache::new(Some(&dir), 2, 2).unwrap();
        put_all(&cache, [5, 1, 4, 1, 3]);
        for level in ["parsed", "sat", "sel"] {
            for name in names(&dir, level) {
                let key = name.strip_suffix(".entry").and_then(|h| u64::from_str_radix(h, 16).ok());
                assert!(key.is_some(), "{level}/{name} is not an entry file");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
