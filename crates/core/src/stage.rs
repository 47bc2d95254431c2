//! The design flow as an explicit stage graph.
//!
//! The paper's flow is a cascade — placement, bus insertion, frequency
//! allocation, then (downstream, in other crates) yield simulation and
//! mapping — but [`crate::DesignFlow`] grew up as a monolithic builder:
//! every call recomputed every subroutine, even when only one knob
//! changed. This module makes the cascade explicit:
//!
//! - [`Stage`] — one pipeline step with a typed input, a typed output,
//!   and a **content key** derived from nothing but its true inputs, so
//!   equal keys mean equal outputs (every stage is a pure function);
//! - [`StageCache`] — a bounded, content-keyed memo table shared across
//!   threads: whichever caller computes a key first, the value is the one
//!   every other caller would have produced, so cross-thread sharing can
//!   never break determinism. `QPD_MEMO_CAP` bounds the table with a
//!   deterministic second-chance (clock) eviction, so very long runs
//!   cannot grow memory without bound;
//! - [`StageKind`] / [`StageSet`] — the stage dependency graph and its
//!   dirty-propagation rule: a knob change dirties one stage, and
//!   [`StageKind::invalidates`] names everything downstream of it.
//!   Crucially, **routing is not downstream of frequency allocation**
//!   (the router never reads frequencies), which is what lets a
//!   frequency-only change skip placement, bus insertion, *and* routing;
//! - [`StagePlan`] — the assembled plan for the in-crate half of the
//!   cascade (placement → buses → frequency/assembly), owning one cache
//!   per stage. [`crate::DesignFlow`] is a thin facade over a plan, and
//!   the design-space explorer (`qpd-explore`) extends the same graph
//!   with its yield and routing stages.
//!
//! Serving a stage from cache is bit-identical to re-running it, so the
//! stage graph changes *when* work happens, never *what* is computed —
//! the equivalence proptests in the workspace test tree pin this against
//! the retained monolithic reference path
//! ([`crate::DesignFlow::design_reference`]).

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use qpd_profile::CouplingProfile;
use qpd_topology::{pattern_frequency_plan, Architecture, Coord, FrequencyPlan, Square};
use qpd_yield::{AllocScratch, Fnv64, HardwareFamily};

use crate::bus::{select_buses_random, select_buses_weighted};
use crate::error::DesignError;
use crate::freq::{AllocJob, FrequencyAllocator};
use crate::pipeline::{BusStrategy, FrequencyStrategy};
use crate::placement::{place_auxiliary, place_qubits};

/// One step of the design cascade: a pure function from a typed input to
/// a typed output, addressable by a content key.
///
/// The contract every implementation must uphold:
///
/// - [`Stage::content_key`] depends on **all** inputs that influence the
///   output (including the stage's own configuration) and on nothing
///   else — no timestamps, no thread identity, no global state;
/// - [`Stage::run`] is deterministic: equal inputs produce bit-identical
///   outputs.
///
/// Together these make [`StageCache`] transparent: a cached value is the
/// value a fresh run would produce.
pub trait Stage {
    /// The stage's input (borrowed; stages never own their upstream).
    type Input<'a>;
    /// The stage's product.
    type Output: Clone;
    /// The stage's failure mode.
    type Error;

    /// Where this stage sits in the dependency graph.
    const KIND: StageKind;

    /// The content key of `input` under this stage's configuration.
    fn content_key(&self, input: &Self::Input<'_>) -> u64;

    /// Computes the stage's output.
    ///
    /// # Errors
    ///
    /// Stage-specific; see the implementing type.
    fn run(&self, input: &Self::Input<'_>) -> Result<Self::Output, Self::Error>;
}

/// The stages of the full cascade, in pipeline order. The first three
/// run inside this crate ([`StagePlan`]); `Routing` and `Yield` are the
/// downstream stages the explorer and evaluation harness attach.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StageKind {
    /// Algorithm 1: qubit placement (plus auxiliary qubits).
    Placement,
    /// Algorithm 2: 4-qubit bus (square) selection.
    Bus,
    /// Algorithm 3 / 5-frequency pattern: frequency allocation and
    /// architecture assembly.
    Frequency,
    /// SABRE routing of the profiled program (reads the coupling
    /// topology only — **not** the frequencies).
    Routing,
    /// Monte Carlo yield simulation (reads topology *and* frequencies).
    Yield,
}

impl StageKind {
    /// Every stage, pipeline order.
    pub const ALL: [StageKind; 5] = [
        StageKind::Placement,
        StageKind::Bus,
        StageKind::Frequency,
        StageKind::Routing,
        StageKind::Yield,
    ];

    /// Stable display name (reporting, summary tables).
    pub fn name(self) -> &'static str {
        match self {
            StageKind::Placement => "placement",
            StageKind::Bus => "bus",
            StageKind::Frequency => "frequency",
            StageKind::Routing => "routing",
            StageKind::Yield => "yield",
        }
    }

    /// The set of stages invalidated when this stage's inputs change:
    /// the stage itself plus everything downstream of it in the graph.
    ///
    /// The graph is the paper's cascade with one deliberate exception:
    /// routing depends on placement and bus insertion but **not** on
    /// frequency allocation, so a frequency-only change leaves routing
    /// results valid. Yield depends on everything except routing.
    pub fn invalidates(self) -> StageSet {
        match self {
            StageKind::Placement => StageSet::all(),
            StageKind::Bus => StageSet::of(&[
                StageKind::Bus,
                StageKind::Frequency,
                StageKind::Routing,
                StageKind::Yield,
            ]),
            StageKind::Frequency => StageSet::of(&[StageKind::Frequency, StageKind::Yield]),
            StageKind::Routing => StageSet::of(&[StageKind::Routing]),
            StageKind::Yield => StageSet::of(&[StageKind::Yield]),
        }
    }

    fn bit(self) -> u8 {
        1 << (self as u8)
    }
}

/// A small set of [`StageKind`]s — the currency of dirty tracking: a
/// knob diff maps to the set of dirtied stages, and everything upstream
/// of the first dirty stage is served from cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageSet(u8);

impl StageSet {
    /// The empty set (nothing dirty: a no-op diff).
    pub fn empty() -> Self {
        StageSet(0)
    }

    /// Every stage (a change upstream of everything).
    pub fn all() -> Self {
        StageSet::of(&StageKind::ALL)
    }

    /// The set holding exactly `kinds`.
    pub fn of(kinds: &[StageKind]) -> Self {
        StageSet(kinds.iter().fold(0, |acc, k| acc | k.bit()))
    }

    /// Whether `kind` is in the set.
    pub fn contains(self, kind: StageKind) -> bool {
        self.0 & kind.bit() != 0
    }

    /// Set union.
    #[must_use]
    pub fn union(self, other: StageSet) -> StageSet {
        StageSet(self.0 | other.0)
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of stages in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// The stages in the set, pipeline order.
    pub fn iter(self) -> impl Iterator<Item = StageKind> {
        StageKind::ALL.into_iter().filter(move |k| self.contains(*k))
    }
}

impl std::fmt::Display for StageSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.iter().map(StageKind::name).collect();
        write!(f, "{{{}}}", names.join(", "))
    }
}

/// The environment variable bounding every [`StageCache`]: unset, empty,
/// or `0` means unbounded; any positive integer caps the number of
/// entries per cache, evicted second-chance.
pub const MEMO_CAP_ENV: &str = "QPD_MEMO_CAP";

fn env_cap() -> Option<usize> {
    std::env::var(MEMO_CAP_ENV).ok().and_then(|v| v.parse::<usize>().ok()).filter(|&cap| cap > 0)
}

#[derive(Debug)]
struct CacheEntry<V> {
    value: V,
    /// Second-chance bit: set on every hit, cleared (once) by the clock
    /// hand before the entry becomes an eviction candidate again.
    referenced: bool,
}

#[derive(Debug, Default)]
struct CacheInner<V> {
    table: HashMap<u64, CacheEntry<V>>,
    /// Clock ring: every cached key exactly once, insertion order, with
    /// spared keys rotated to the back.
    ring: VecDeque<u64>,
    /// Every key ever inserted, surviving both eviction and
    /// [`StageCache::clear`]: the basis of the deterministic
    /// unique-miss counter (distinct work items computed, independent
    /// of thread scheduling and duplicate-compute races).
    seen: HashSet<u64>,
}

/// A bounded, shared, content-keyed memo table — the per-stage cache of
/// the stage graph.
///
/// Values must be pure functions of their key; that is what makes
/// cross-thread sharing deterministic (two threads may race to compute
/// the same key, but both produce the identical value) and what makes
/// eviction harmless (an evicted entry is recomputed, never changed).
///
/// # Bounding
///
/// [`StageCache::new`] reads [`MEMO_CAP_ENV`] (`QPD_MEMO_CAP`) once at
/// construction; [`StageCache::with_cap`] overrides it. When the table
/// is full, insertion runs the **second-chance (clock) rule**: keys are
/// visited in insertion order, a key that was hit since its last visit
/// is spared (its reference bit cleared, the key rotated to the back),
/// and the first unreferenced key is evicted. The rule depends only on
/// the sequence of inserts and hits, never on hash iteration order, so
/// eviction is deterministic for a deterministic call sequence — and
/// because values are pure, even a thread-racy call sequence can only
/// change *when* a value is recomputed, never what it is.
#[derive(Debug)]
pub struct StageCache<V: Clone> {
    inner: Mutex<CacheInner<V>>,
    cap: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<V: Clone> Default for StageCache<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone> StageCache<V> {
    /// An empty cache, bounded by `QPD_MEMO_CAP` when that is set.
    pub fn new() -> Self {
        Self::with_cap(env_cap())
    }

    /// An empty cache with an explicit bound (`None` = unbounded).
    pub fn with_cap(cap: Option<usize>) -> Self {
        StageCache {
            inner: Mutex::new(CacheInner {
                table: HashMap::new(),
                ring: VecDeque::new(),
                seen: HashSet::new(),
            }),
            cap,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configured entry bound (`None` = unbounded).
    pub fn cap(&self) -> Option<usize> {
        self.cap
    }

    /// The cached value for `key`, counting a hit (and marking the entry
    /// recently used) when present.
    pub fn get(&self, key: u64) -> Option<V> {
        let mut inner = self.inner.lock().expect("stage cache poisoned");
        let found = inner.table.get_mut(&key).map(|e| {
            e.referenced = true;
            e.value.clone()
        });
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Records a freshly computed value, counting a miss and evicting
    /// second-chance if the cache is at its bound. The first value wins
    /// when two computations race on one key (both are identical by the
    /// purity contract).
    pub fn insert(&self, key: u64, value: V) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut guard = self.inner.lock().expect("stage cache poisoned");
        let inner = &mut *guard;
        inner.seen.insert(key);
        if inner.table.contains_key(&key) {
            return;
        }
        if let Some(cap) = self.cap {
            while inner.table.len() >= cap.max(1) {
                let victim = inner.ring.pop_front().expect("ring tracks every entry");
                let entry = inner.table.get_mut(&victim).expect("ring key in table");
                if entry.referenced {
                    // Spared once: clear the bit, rotate to the back.
                    entry.referenced = false;
                    inner.ring.push_back(victim);
                } else {
                    inner.table.remove(&victim);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        inner.ring.push_back(key);
        inner.table.insert(key, CacheEntry { value, referenced: false });
    }

    /// The value for `key`, computing and inserting it on first demand.
    /// `compute` runs outside the lock: stage bodies are expensive and
    /// may fan out onto the shared worker pool.
    pub fn get_or_insert_with(&self, key: u64, compute: impl FnOnce() -> V) -> V {
        if let Some(v) = self.get(key) {
            return v;
        }
        let v = compute();
        self.insert(key, v.clone());
        v
    }

    /// Runs `stage` on `input` through this cache: a content-key lookup,
    /// then (on miss) the stage body. Returns the key alongside the
    /// output so callers can chain it into downstream keys.
    ///
    /// # Errors
    ///
    /// Propagates the stage's error; failures are never cached.
    pub fn run_stage<S>(&self, stage: &S, input: &S::Input<'_>) -> Result<(u64, V), S::Error>
    where
        S: Stage<Output = V>,
    {
        let key = stage.content_key(input);
        if let Some(v) = self.get(key) {
            return Ok((key, v));
        }
        let v = stage.run(input)?;
        self.insert(key, v.clone());
        Ok((key, v))
    }

    /// Number of lookups served from the table.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that had to compute.
    ///
    /// Scheduling-dependent: two threads racing on one key can both
    /// miss (each computes, each inserts, first wins), so this counter
    /// may differ run-to-run under a parallel workload. For a
    /// thread-stable figure use [`StageCache::unique_misses`].
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of **distinct** keys ever inserted — the deterministic
    /// companion to [`StageCache::misses`].
    ///
    /// A fixed workload demands a fixed set of content keys, so this
    /// count is identical at every `QPD_THREADS`: a duplicate-compute
    /// race inflates `misses` but inserts the same key twice, and the
    /// set deduplicates it. The set survives eviction and
    /// [`StageCache::clear`], mirroring how the other counters
    /// accumulate for the cache's lifetime.
    pub fn unique_misses(&self) -> u64 {
        self.inner.lock().expect("stage cache poisoned").seen.len() as u64
    }

    /// Number of entries evicted by the second-chance rule.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of distinct keys stored.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("stage cache poisoned").table.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every stored value; the counters keep accumulating.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("stage cache poisoned");
        inner.table.clear();
        inner.ring.clear();
    }

    /// Snapshot of every `(key, value)` pair, sorted by key — a
    /// deterministic serialization order for cache persistence (the
    /// explorer's warm-start sidecars). Reading a snapshot does not
    /// touch the hit/miss counters or the reference bits.
    pub fn entries(&self) -> Vec<(u64, V)> {
        let inner = self.inner.lock().expect("stage cache poisoned");
        let mut out: Vec<(u64, V)> =
            inner.table.iter().map(|(&k, e)| (k, e.value.clone())).collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }
}

/// Hit/miss/size counters of one stage's cache, for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageCacheStats {
    /// Which stage the counters describe.
    pub kind: StageKind,
    /// Lookups served from the table.
    pub hits: u64,
    /// Lookups that computed (scheduling-dependent under parallelism;
    /// see [`StageCache::misses`]).
    pub misses: u64,
    /// Distinct keys ever inserted (thread-stable; see
    /// [`StageCache::unique_misses`]).
    pub unique_misses: u64,
    /// Entries evicted by the second-chance rule.
    pub evictions: u64,
    /// Entries currently stored.
    pub len: usize,
}

impl StageCacheStats {
    /// Reads the counters of `cache` on behalf of `kind`.
    pub fn of<V: Clone>(kind: StageKind, cache: &StageCache<V>) -> Self {
        StageCacheStats {
            kind,
            hits: cache.hits(),
            misses: cache.misses(),
            unique_misses: cache.unique_misses(),
            evictions: cache.evictions(),
            len: cache.len(),
        }
    }

    /// Fraction of lookups served from cache (`0.0` before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Folds a byte slice into an [`Fnv64`] word stream.
fn push_bytes(h: &mut Fnv64, bytes: &[u8]) {
    h.push(bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h.push(u64::from_le_bytes(word));
    }
}

fn push_coord(h: &mut Fnv64, c: Coord) {
    h.push(((c.row as u32 as u64) << 32) | c.col as u32 as u64);
}

fn push_coords(h: &mut Fnv64, coords: &[Coord]) {
    h.push(coords.len() as u64);
    for &c in coords {
        push_coord(h, c);
    }
}

fn push_squares(h: &mut Fnv64, squares: &[Square]) {
    h.push(squares.len() as u64);
    for s in squares {
        push_coord(h, s.origin);
    }
}

/// The content key of a coupling profile: qubit count plus every
/// weighted edge, in the profile's canonical ascending order.
pub fn profile_key(profile: &CouplingProfile) -> u64 {
    let mut h = Fnv64::new();
    h.push(profile.num_qubits() as u64);
    for e in profile.edges() {
        h.push(((e.a.index() as u64) << 32) | e.b.index() as u64);
        h.push(e.weight as u64);
    }
    h.finish()
}

/// Stage 1 — qubit placement (Algorithm 1) plus auxiliary qubits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementStage {
    /// Auxiliary physical qubits appended around the placed layout.
    pub auxiliary_qubits: usize,
}

impl Stage for PlacementStage {
    type Input<'a> = &'a CouplingProfile;
    type Output = Vec<Coord>;
    type Error = DesignError;
    const KIND: StageKind = StageKind::Placement;

    fn content_key(&self, input: &Self::Input<'_>) -> u64 {
        let mut h = Fnv64::new();
        h.push(Self::KIND as u64);
        h.push(profile_key(input));
        h.push(self.auxiliary_qubits as u64);
        h.finish()
    }

    fn run(&self, input: &Self::Input<'_>) -> Result<Vec<Coord>, DesignError> {
        if input.num_qubits() == 0 {
            return Err(DesignError::EmptyProgram);
        }
        let mut coords = place_qubits(input);
        if self.auxiliary_qubits > 0 {
            coords.extend(place_auxiliary(&coords, self.auxiliary_qubits));
        }
        Ok(coords)
    }
}

/// Stage 2 — 4-qubit bus selection (Algorithm 2 or the seeded random
/// ablation), producing the square order whose prefixes are the
/// selections for smaller budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusOrderStage {
    /// Selection strategy (weighted Algorithm 2 or seeded random).
    pub strategy: BusStrategy,
    /// Bus budget cap (`None` = as many as beneficial).
    pub max_buses: Option<usize>,
}

impl Stage for BusOrderStage {
    type Input<'a> = (&'a [Coord], &'a CouplingProfile);
    type Output = Vec<Square>;
    type Error = DesignError;
    const KIND: StageKind = StageKind::Bus;

    fn content_key(&self, input: &Self::Input<'_>) -> u64 {
        let (coords, profile) = input;
        let mut h = Fnv64::new();
        h.push(Self::KIND as u64);
        push_coords(&mut h, coords);
        h.push(profile_key(profile));
        match self.strategy {
            BusStrategy::Weighted => h.push(0),
            BusStrategy::Random { seed } => {
                h.push(1);
                h.push(seed);
            }
        }
        h.push(self.max_buses.map_or(u64::MAX, |cap| cap as u64));
        h.finish()
    }

    fn run(&self, input: &Self::Input<'_>) -> Result<Vec<Square>, DesignError> {
        let (coords, profile) = input;
        let cap = self.max_buses.unwrap_or(usize::MAX);
        Ok(match self.strategy {
            BusStrategy::Weighted => select_buses_weighted(coords, profile, cap),
            BusStrategy::Random { seed } => select_buses_random(coords, cap, seed),
        })
    }
}

/// Stage 3 — frequency allocation and architecture assembly: builds the
/// chip from an explicit layout and attaches a frequency plan (Algorithm
/// 3's center-out search or the IBM 5-frequency pattern).
#[derive(Debug, Clone, PartialEq)]
pub struct AssembleStage {
    /// Frequency strategy.
    pub frequency: FrequencyStrategy,
    /// Monte Carlo trials inside Algorithm 3.
    pub allocation_trials: usize,
    /// Refinement sweep budget of Algorithm 3 (0 = single pass).
    pub allocation_sweeps: usize,
    /// Seed of Algorithm 3's local simulations.
    pub allocation_seed: u64,
    /// Fabrication precision assumed during allocation, GHz.
    pub sigma_ghz: f64,
    /// Prefix for generated architecture names.
    pub name_prefix: String,
    /// Hardware family: supplies the frequency band, pattern menu, and
    /// collision parameters. The default family reproduces the
    /// pre-hardware-layer stage bit for bit, content key included.
    pub hardware: HardwareFamily,
}

impl Stage for AssembleStage {
    type Input<'a> = (&'a [Coord], &'a [Square]);
    type Output = Architecture;
    type Error = DesignError;
    const KIND: StageKind = StageKind::Frequency;

    fn content_key(&self, input: &Self::Input<'_>) -> u64 {
        let (coords, squares) = input;
        let mut h = Fnv64::new();
        h.push(Self::KIND as u64);
        push_coords(&mut h, coords);
        push_squares(&mut h, squares);
        h.push(match self.frequency {
            FrequencyStrategy::Optimized => 0,
            FrequencyStrategy::FiveFrequency => 1,
        });
        h.push(self.allocation_trials as u64);
        h.push(self.allocation_sweeps as u64);
        h.push(self.allocation_seed);
        h.push(self.sigma_ghz.to_bits());
        push_bytes(&mut h, self.name_prefix.as_bytes());
        // Appended last, and only for non-default families, so every key
        // minted before the hardware layer existed is reproduced exactly.
        self.hardware.push_key_tag(&mut h);
        h.finish()
    }

    fn run(&self, input: &Self::Input<'_>) -> Result<Architecture, DesignError> {
        let (coords, squares) = input;
        let arch = self.build_architecture(coords, squares)?;
        let plan = match self.frequency {
            FrequencyStrategy::FiveFrequency => self.pattern_plan(&arch),
            FrequencyStrategy::Optimized => self.allocator().allocate(&arch),
        };
        self.attach(arch, plan)
    }
}

impl AssembleStage {
    /// Builds the bare (frequency-less) architecture this stage
    /// assembles from the layout.
    fn build_architecture(
        &self,
        coords: &[Coord],
        squares: &[Square],
    ) -> Result<Architecture, DesignError> {
        let name = format!(
            "{}{}-{}q-b{}{}",
            self.name_prefix,
            self.hardware.name_suffix(),
            coords.len(),
            squares.len(),
            match self.frequency {
                FrequencyStrategy::Optimized => "",
                FrequencyStrategy::FiveFrequency => "-5freq",
            }
        );
        let mut builder = Architecture::builder(name);
        builder.qubits(coords.iter().copied());
        for &s in squares {
            builder.four_qubit_bus_at(s);
        }
        Ok(builder.build()?)
    }

    /// The frequency allocator this stage configures for
    /// [`FrequencyStrategy::Optimized`].
    fn allocator(&self) -> FrequencyAllocator {
        FrequencyAllocator::new()
            .with_hardware(self.hardware)
            .with_trials(self.allocation_trials)
            .with_refinement_sweeps(self.allocation_sweeps)
            .with_sigma_ghz(self.sigma_ghz)
            .with_seed(self.allocation_seed)
    }

    /// The hardware family's pattern plan ([`FrequencyStrategy::FiveFrequency`]).
    fn pattern_plan(&self, arch: &Architecture) -> FrequencyPlan {
        pattern_frequency_plan(arch, self.hardware.model().pattern_frequencies_ghz())
    }

    /// Attaches `plan` to `arch` inside the family band.
    fn attach(&self, arch: Architecture, plan: FrequencyPlan) -> Result<Architecture, DesignError> {
        Ok(arch.with_frequencies_in_band(plan, self.hardware.model().allowed_band_ghz())?)
    }
}

/// One frequency/assembly request of a batched submission
/// ([`StagePlan::assemble_batch`]): a stage configuration plus the
/// layout it assembles. Jobs in one batch may differ in any knob —
/// frequency strategy, hardware family, layout — and still share one
/// allocation batch.
#[derive(Debug, Clone, Copy)]
pub struct AssembleJob<'a> {
    /// Stage configuration for this job.
    pub stage: &'a AssembleStage,
    /// Qubit layout.
    pub coords: &'a [Coord],
    /// Four-qubit bus squares.
    pub squares: &'a [Square],
}

/// The assembled in-crate stage graph: one content-keyed cache per
/// stage of the placement → bus → frequency cascade.
///
/// A plan is shared (it lives behind an `Arc` inside every
/// [`crate::DesignFlow`] and its clones): the caches use interior
/// mutability and are safe to consult from the worker pool. Because
/// stage keys embed the stage configuration, one plan can serve flows
/// with different knobs without cross-talk.
#[derive(Debug, Default)]
pub struct StagePlan {
    placement: StageCache<Vec<Coord>>,
    bus: StageCache<Vec<Square>>,
    assemble: StageCache<Architecture>,
    /// The allocator's noise-plane cache, parked here between batches.
    /// Takers swap it out so concurrent batches never serialize on it:
    /// a racing taker finds the slot empty, runs with a fresh scratch
    /// (identical results by construction), and the last finisher parks
    /// its scratch back.
    assemble_scratch: Mutex<Option<AllocScratch>>,
}

impl StagePlan {
    /// An empty plan (caches bounded by `QPD_MEMO_CAP` when set).
    pub fn new() -> Self {
        StagePlan::default()
    }

    /// An empty plan with an explicit per-cache bound.
    pub fn with_cap(cap: Option<usize>) -> Self {
        StagePlan {
            placement: StageCache::with_cap(cap),
            bus: StageCache::with_cap(cap),
            assemble: StageCache::with_cap(cap),
            assemble_scratch: Mutex::new(None),
        }
    }

    /// Runs the placement stage through its cache.
    ///
    /// # Errors
    ///
    /// [`DesignError::EmptyProgram`] for a 0-qubit profile.
    pub fn place(
        &self,
        stage: &PlacementStage,
        profile: &CouplingProfile,
    ) -> Result<Vec<Coord>, DesignError> {
        self.placement.run_stage(stage, &profile).map(|(_, v)| v)
    }

    /// Runs the bus-selection stage through its cache.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; typed for uniformity.
    pub fn bus_order(
        &self,
        stage: &BusOrderStage,
        coords: &[Coord],
        profile: &CouplingProfile,
    ) -> Result<Vec<Square>, DesignError> {
        self.bus.run_stage(stage, &(coords, profile)).map(|(_, v)| v)
    }

    /// Runs the frequency/assembly stage through its cache.
    ///
    /// # Errors
    ///
    /// Propagates architecture-builder errors (invalid squares).
    pub fn assemble(
        &self,
        stage: &AssembleStage,
        coords: &[Coord],
        squares: &[Square],
    ) -> Result<Architecture, DesignError> {
        let mut out = self.assemble_batch(&[AssembleJob { stage, coords, squares }])?;
        Ok(out.pop().expect("one job in, one architecture out"))
    }

    /// Runs a whole batch of frequency/assembly jobs through the cache.
    /// Every distinct missed key is assembled once, and all optimized
    /// misses go through **one** seed-major
    /// [`FrequencyAllocator::allocate_batch`] call against the plan's
    /// noise-plane cache.
    ///
    /// Cache accounting matches the per-job path: every job counts one
    /// hit or one miss, and `unique_misses` grows once per distinct
    /// key. Each returned architecture is bit-identical to
    /// [`StagePlan::assemble`] on that job alone; only *when* shared
    /// work happens changes.
    ///
    /// # Errors
    ///
    /// Propagates the first failing job's error, in job order (nothing
    /// is cached when any job fails).
    pub fn assemble_batch(
        &self,
        jobs: &[AssembleJob<'_>],
    ) -> Result<Vec<Architecture>, DesignError> {
        // Pass 1 — probe the cache in submission order (hit accounting
        // identical to per-job calls).
        let keys: Vec<u64> =
            jobs.iter().map(|j| j.stage.content_key(&(j.coords, j.squares))).collect();
        let mut out: Vec<Option<Architecture>> =
            keys.iter().map(|&k| self.assemble.get(k)).collect();
        if out.iter().all(Option::is_some) {
            return Ok(out.into_iter().flatten().collect());
        }

        // Pass 2 — build each distinct missed key's chip once, in
        // first-occurrence order, then allocate every optimized one in
        // one batch. The scratch is swapped out of its slot (not locked
        // across the allocation) so concurrent batches never serialize;
        // see the field docs.
        let mut missed: Vec<(u64, &AssembleJob<'_>)> = Vec::new();
        let mut seen: HashSet<u64> = HashSet::new();
        for ((slot, &key), job) in out.iter().zip(&keys).zip(jobs) {
            if slot.is_none() && seen.insert(key) {
                missed.push((key, job));
            }
        }
        let built: Vec<Result<Architecture, DesignError>> = missed
            .iter()
            .map(|(_, job)| job.stage.build_architecture(job.coords, job.squares))
            .collect();
        let allocators: Vec<Option<FrequencyAllocator>> = missed
            .iter()
            .zip(&built)
            .map(|((_, job), arch)| {
                (arch.is_ok() && job.stage.frequency == FrequencyStrategy::Optimized)
                    .then(|| job.stage.allocator())
            })
            .collect();
        let alloc_jobs: Vec<AllocJob<'_>> = allocators
            .iter()
            .zip(&built)
            .filter_map(|(allocator, arch)| {
                Some(AllocJob { allocator: allocator.as_ref()?, arch: arch.as_ref().ok()? })
            })
            .collect();
        let mut scratch = self
            .assemble_scratch
            .lock()
            .expect("assemble scratch poisoned")
            .take()
            .unwrap_or_default();
        let mut plans = FrequencyAllocator::allocate_batch(&alloc_jobs, &mut scratch).into_iter();
        *self.assemble_scratch.lock().expect("assemble scratch poisoned") = Some(scratch);
        let mut computed: HashMap<u64, Architecture> = HashMap::new();
        for (((key, job), arch), allocator) in missed.iter().zip(built).zip(&allocators) {
            let arch = arch?;
            let plan = match allocator {
                Some(_) => plans.next().expect("one plan per allocation job"),
                None => job.stage.pattern_plan(&arch),
            };
            computed.insert(*key, job.stage.attach(arch, plan)?);
        }

        // Pass 3 — fill and cache every missed occurrence (each one
        // counts a miss, exactly as sequential per-job calls that raced
        // would).
        for (slot, &key) in out.iter_mut().zip(&keys) {
            if slot.is_none() {
                let arch = computed.get(&key).expect("computed every missed key").clone();
                self.assemble.insert(key, arch.clone());
                *slot = Some(arch);
            }
        }
        Ok(out.into_iter().map(|a| a.expect("every job resolved")).collect())
    }

    /// The placement-stage cache.
    pub fn placement_cache(&self) -> &StageCache<Vec<Coord>> {
        &self.placement
    }

    /// The bus-stage cache.
    pub fn bus_cache(&self) -> &StageCache<Vec<Square>> {
        &self.bus
    }

    /// The frequency/assembly-stage cache.
    pub fn assemble_cache(&self) -> &StageCache<Architecture> {
        &self.assemble
    }

    /// Hit/miss counters of the three in-crate stages, pipeline order.
    pub fn stats(&self) -> Vec<StageCacheStats> {
        vec![
            StageCacheStats::of(StageKind::Placement, &self.placement),
            StageCacheStats::of(StageKind::Bus, &self.bus),
            StageCacheStats::of(StageKind::Frequency, &self.assemble),
        ]
    }

    /// Drops every cached value (counters keep accumulating).
    ///
    /// The allocator's noise-plane cache is *kept*: it holds derived pure data a fresh process would
    /// regenerate bit-identically, not memoized stage results, so
    /// clearing caches changes when allocation work happens but never
    /// what is computed.
    pub fn clear(&self) {
        self.placement.clear();
        self.bus.clear();
        self.assemble.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> CouplingProfile {
        CouplingProfile::from_edges(
            6,
            &[
                (0, 1, 8),
                (1, 2, 8),
                (3, 4, 8),
                (4, 5, 8),
                (0, 3, 8),
                (1, 4, 8),
                (2, 5, 8),
                (0, 4, 6),
                (1, 3, 6),
            ],
        )
    }

    #[test]
    fn cache_computes_once_per_key() {
        let cache: StageCache<u64> = StageCache::with_cap(None);
        let mut calls = 0;
        for _ in 0..3 {
            let v = cache.get_or_insert_with(42, || {
                calls += 1;
                7
            });
            assert_eq!(v, 7);
        }
        assert_eq!(calls, 1);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cap_bounds_the_table_fifo_when_nothing_is_referenced() {
        let cache: StageCache<u64> = StageCache::with_cap(Some(3));
        for k in 0..5u64 {
            cache.insert(k, k * 10);
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.evictions(), 2);
        // Oldest unreferenced keys (0, 1) were evicted.
        assert_eq!(cache.get(0), None);
        assert_eq!(cache.get(1), None);
        assert_eq!(cache.get(2), Some(20));
        assert_eq!(cache.get(3), Some(30));
        assert_eq!(cache.get(4), Some(40));
    }

    #[test]
    fn second_chance_spares_recently_hit_entries() {
        let cache: StageCache<u64> = StageCache::with_cap(Some(3));
        cache.insert(1, 10);
        cache.insert(2, 20);
        cache.insert(3, 30);
        // Hit key 1: it gets a second chance over the FIFO order.
        assert_eq!(cache.get(1), Some(10));
        cache.insert(4, 40);
        // Key 2 (oldest unreferenced) was evicted; key 1 survives.
        assert_eq!(cache.len(), 3);
        assert!(cache.get(1).is_some(), "referenced entry evicted");
        assert!(cache.get(2).is_none(), "unreferenced entry survived");
        assert!(cache.get(3).is_some());
        assert!(cache.get(4).is_some());
    }

    #[test]
    fn second_chance_terminates_when_everything_is_referenced() {
        let cache: StageCache<u64> = StageCache::with_cap(Some(2));
        cache.insert(1, 10);
        cache.insert(2, 20);
        assert!(cache.get(1).is_some());
        assert!(cache.get(2).is_some());
        // Both referenced: the clock clears both bits, then evicts the
        // oldest (key 1).
        cache.insert(3, 30);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(1).is_none());
        assert!(cache.get(2).is_some());
        assert!(cache.get(3).is_some());
    }

    #[test]
    fn eviction_only_recomputes_never_changes() {
        // The purity contract in action: an evicted key recomputes to
        // the same value.
        let cache: StageCache<u64> = StageCache::with_cap(Some(1));
        let f = |k: u64| k * k;
        assert_eq!(cache.get_or_insert_with(3, || f(3)), 9);
        assert_eq!(cache.get_or_insert_with(4, || f(4)), 16); // evicts 3
        assert_eq!(cache.get_or_insert_with(3, || f(3)), 9); // recomputed
    }

    #[test]
    fn unique_misses_deduplicate_racy_inserts() {
        let cache: StageCache<u64> = StageCache::with_cap(Some(1));
        // A duplicate-compute race is two inserts of the same key: the
        // raw miss counter sees both, the unique counter sees one.
        cache.insert(1, 10);
        cache.insert(1, 10);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.unique_misses(), 1);
        // Eviction then re-insertion of a key does not re-count it.
        cache.insert(2, 20); // evicts 1 (cap = 1)
        cache.insert(1, 10);
        assert_eq!(cache.unique_misses(), 2);
        // clear() drops values but the seen-set keeps accumulating,
        // like every other counter.
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.unique_misses(), 2);
        cache.insert(3, 30);
        assert_eq!(cache.unique_misses(), 3);
        let stats = StageCacheStats::of(StageKind::Yield, &cache);
        assert_eq!(stats.unique_misses, 3);
    }

    #[test]
    fn clear_drops_values_not_counters() {
        let cache: StageCache<u64> = StageCache::with_cap(None);
        cache.insert(1, 10);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.misses(), 1, "counters survive a clear");
        assert_eq!(cache.get(1), None);
    }

    #[test]
    fn stage_set_algebra() {
        assert!(StageSet::empty().is_empty());
        assert_eq!(StageSet::all().len(), 5);
        let s = StageSet::of(&[StageKind::Frequency, StageKind::Yield]);
        assert!(s.contains(StageKind::Frequency));
        assert!(!s.contains(StageKind::Routing));
        assert_eq!(s.union(StageSet::of(&[StageKind::Bus])).len(), 3);
        assert_eq!(s.to_string(), "{frequency, yield}");
    }

    #[test]
    fn frequency_does_not_invalidate_routing() {
        // The load-bearing edge of the graph: a frequency-only change
        // leaves placement, bus insertion, and routing valid.
        let dirty = StageKind::Frequency.invalidates();
        assert!(dirty.contains(StageKind::Frequency));
        assert!(dirty.contains(StageKind::Yield));
        assert!(!dirty.contains(StageKind::Placement));
        assert!(!dirty.contains(StageKind::Bus));
        assert!(!dirty.contains(StageKind::Routing));
        // Upstream changes invalidate everything downstream.
        assert_eq!(StageKind::Placement.invalidates(), StageSet::all());
        assert!(StageKind::Bus.invalidates().contains(StageKind::Routing));
    }

    #[test]
    fn placement_stage_is_keyed_by_profile_and_aux() {
        let p = profile();
        let s0 = PlacementStage { auxiliary_qubits: 0 };
        let s2 = PlacementStage { auxiliary_qubits: 2 };
        assert_eq!(s0.content_key(&&p), s0.content_key(&&p), "key unstable");
        assert_ne!(s0.content_key(&&p), s2.content_key(&&p), "aux not in key");
        let other = CouplingProfile::from_edges(6, &[(0, 1, 1)]);
        assert_ne!(s0.content_key(&&p), s0.content_key(&&other), "profile not in key");
        let coords = s0.run(&&p).unwrap();
        assert_eq!(coords.len(), 6);
        assert_eq!(s2.run(&&p).unwrap().len(), 8);
    }

    #[test]
    fn empty_profile_fails_placement() {
        let empty = CouplingProfile::from_edges(0, &[]);
        let stage = PlacementStage { auxiliary_qubits: 0 };
        assert_eq!(stage.run(&&empty).unwrap_err(), DesignError::EmptyProgram);
    }

    #[test]
    fn bus_stage_key_distinguishes_strategy_and_cap() {
        let p = profile();
        let coords = PlacementStage { auxiliary_qubits: 0 }.run(&&p).unwrap();
        let input = (coords.as_slice(), &p);
        let weighted = BusOrderStage { strategy: BusStrategy::Weighted, max_buses: None };
        let random = BusOrderStage { strategy: BusStrategy::Random { seed: 1 }, max_buses: None };
        let capped = BusOrderStage { strategy: BusStrategy::Weighted, max_buses: Some(1) };
        assert_ne!(weighted.content_key(&input), random.content_key(&input));
        assert_ne!(weighted.content_key(&input), capped.content_key(&input));
        let order = weighted.run(&input).unwrap();
        assert!(capped.run(&input).unwrap().len() <= 1.min(order.len()));
    }

    #[test]
    fn assemble_stage_reproduces_the_flow_naming() {
        let p = profile();
        let coords = PlacementStage { auxiliary_qubits: 0 }.run(&&p).unwrap();
        let stage = AssembleStage {
            frequency: FrequencyStrategy::FiveFrequency,
            allocation_trials: 100,
            allocation_sweeps: 8,
            allocation_seed: 0,
            sigma_ghz: qpd_yield::FabricationModel::PAPER_SIGMA_GHZ,
            name_prefix: "demo".into(),
            hardware: HardwareFamily::FixedFrequencyTransmon,
        };
        let arch = stage.run(&(coords.as_slice(), &[][..])).unwrap();
        assert_eq!(arch.name(), "demo-6q-b0-5freq");
        assert!(arch.frequencies().is_some());
        // The key separates frequency strategies and knobs.
        let input = (coords.as_slice(), &[][..]);
        let optimized = AssembleStage { frequency: FrequencyStrategy::Optimized, ..stage.clone() };
        assert_ne!(stage.content_key(&input), optimized.content_key(&input));
        let reseeded = AssembleStage { allocation_seed: 9, ..stage.clone() };
        assert_ne!(stage.content_key(&input), reseeded.content_key(&input));
    }

    #[test]
    fn assemble_stage_threads_the_hardware_family() {
        let p = profile();
        let coords = PlacementStage { auxiliary_qubits: 0 }.run(&&p).unwrap();
        let input = (coords.as_slice(), &[][..]);
        let base = AssembleStage {
            frequency: FrequencyStrategy::FiveFrequency,
            allocation_trials: 100,
            allocation_sweeps: 8,
            allocation_seed: 0,
            sigma_ghz: qpd_yield::FabricationModel::PAPER_SIGMA_GHZ,
            name_prefix: "demo".into(),
            hardware: HardwareFamily::FixedFrequencyTransmon,
        };
        let tc = AssembleStage { hardware: HardwareFamily::TunableCoupler, ..base.clone() };
        let hh = AssembleStage { hardware: HardwareFamily::HeavyHex, ..base.clone() };
        // Families key apart so one shared cache never mixes them.
        assert_ne!(base.content_key(&input), tc.content_key(&input));
        assert_ne!(base.content_key(&input), hh.content_key(&input));
        assert_ne!(tc.content_key(&input), hh.content_key(&input));
        // Names carry the family suffix; plans land in the family band.
        let arch = tc.run(&input).unwrap();
        assert_eq!(arch.name(), "demo-tc-6q-b0-5freq");
        let plan = arch.frequencies().unwrap();
        assert!(plan.check_band_within(qpd_topology::TUNABLE_COUPLER_BAND_GHZ).is_ok());
        let arch = hh.run(&input).unwrap();
        assert_eq!(arch.name(), "demo-hh-6q-b0-5freq");
        let plan = arch.frequencies().unwrap();
        assert!(plan.check_band_within(qpd_topology::HEAVY_HEX_BAND_GHZ).is_ok());
    }

    #[test]
    fn entries_snapshot_is_sorted_and_counter_silent() {
        let cache: StageCache<u64> = StageCache::with_cap(None);
        cache.insert(9, 90);
        cache.insert(1, 10);
        cache.insert(5, 50);
        let (hits, misses) = (cache.hits(), cache.misses());
        assert_eq!(cache.entries(), vec![(1, 10), (5, 50), (9, 90)]);
        assert_eq!((cache.hits(), cache.misses()), (hits, misses), "snapshot counted");
    }

    #[test]
    fn plan_serves_repeated_stages_from_cache() {
        let p = profile();
        let plan = StagePlan::new();
        let place = PlacementStage { auxiliary_qubits: 0 };
        let a = plan.place(&place, &p).unwrap();
        let b = plan.place(&place, &p).unwrap();
        assert_eq!(a, b);
        let stats = plan.stats();
        assert_eq!(stats[0].kind, StageKind::Placement);
        assert_eq!(stats[0].hits, 1);
        assert_eq!(stats[0].misses, 1);
        assert!((stats[0].hit_rate() - 0.5).abs() < 1e-12);
        plan.clear();
        assert!(plan.placement_cache().is_empty());
    }
}
