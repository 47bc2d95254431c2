//! The design flow as an explicit stage graph.
//!
//! The paper's flow is a cascade — placement, bus insertion, frequency
//! allocation, then (downstream, in other crates) routing and yield
//! simulation. This module makes the cascade explicit:
//!
//! - one plain struct per stage ([`PlacementStage`], [`BusOrderStage`],
//!   [`AssembleStage`]; `qpd-explore` adds the routing and yield
//!   stages) holding the stage's knobs, with a `key` method deriving a
//!   **content key** from every input and knob that influences the
//!   output and from nothing else (no timestamps, no thread identity,
//!   no global state). Every stage computes deterministically, so equal
//!   keys mean equal outputs and a cached value is the value a fresh
//!   run would produce. Every key starts with the stage's [`StageKind`];
//! - [`StageCache`] — a bounded, content-keyed memo table shared across
//!   threads: whichever caller computes a key first, the value is the one
//!   every other caller would have produced, so cross-thread sharing can
//!   never break determinism. [`memo_cap`] bounds the table with a
//!   deterministic second-chance (clock) eviction, so very long runs
//!   cannot grow memory without bound. Every cached stage goes through
//!   one batch rule, [`StageCache::run_batch`]; a singleton is a batch
//!   of one;
//! - [`StageKind`] — the stages' names, pipeline order, for stats and
//!   reports. What re-runs after a knob change is decided by content
//!   keys alone: a stage re-runs exactly when its key changes.
//!   Crucially, **routing does not key on frequency allocation** (the
//!   router never reads frequencies), which is what lets a
//!   frequency-only change skip placement, bus insertion, *and* routing;
//! - [`StagePlan`] — one cache per in-crate stage (placement → buses →
//!   frequency/assembly). [`crate::DesignFlow`] is a thin facade over a
//!   plan, and the design-space explorer (`qpd-explore`) owns a plan
//!   next to its routing and yield tables.
//!
//! Serving a stage from cache is bit-identical to re-running it, so the
//! stage graph changes *when* work happens, never *what* is computed —
//! the equivalence proptests in the workspace test tree pin this against
//! a monolithic oracle that calls placement, bus selection and frequency
//! allocation directly, with no stages and no caches.

use std::collections::{HashMap, VecDeque};
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

/// The stages of the full cascade, in pipeline order. The first three
/// are cached in a [`StagePlan`]; `Routing` and `Yield` are the
/// downstream stages `qpd-explore` caches next to it.
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
}

/// The environment variable bounding every [`StageCache`]; see
/// [`memo_cap`].
pub const MEMO_CAP_ENV: &str = "QPD_MEMO_CAP";

/// Entries per stage cache when `QPD_MEMO_CAP` is unset: the assembly
/// cache holds whole [`Architecture`]s, and 4096 keeps CI- and
/// paper-scale runs fully warm.
pub const DEFAULT_MEMO_CAP: usize = 4096;

/// The bound every [`StageCache::new`] applies: `QPD_MEMO_CAP` when set
/// to a positive integer, unbounded (`None`) for `0`, and
/// [`DEFAULT_MEMO_CAP`] otherwise — unparsable included, so a typo can
/// never disable the bound. The bound trades recomputation for memory
/// only; caching never changes outputs.
pub fn memo_cap() -> Option<usize> {
    match std::env::var(MEMO_CAP_ENV).map(|v| v.parse::<usize>()) {
        Ok(Ok(0)) => None,
        Ok(Ok(cap)) => Some(cap),
        _ => Some(DEFAULT_MEMO_CAP),
    }
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
/// [`StageCache::new`] reads [`memo_cap`] once at construction;
/// [`StageCache::with_cap`] overrides it. When the table is full,
/// insertion runs the **second-chance (clock) rule**: keys are visited
/// in insertion order, a key that was hit since its last visit is
/// spared (its reference bit cleared, the key rotated to the back), and
/// the first unreferenced key is evicted. The rule depends only on
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
    unique_misses: AtomicU64,
    evictions: AtomicU64,
}

impl<V: Clone> Default for StageCache<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone> StageCache<V> {
    /// An empty cache, bounded by [`memo_cap`].
    pub fn new() -> Self {
        Self::with_cap(memo_cap())
    }

    /// An empty cache with an explicit bound (`None` = unbounded).
    pub fn with_cap(cap: Option<usize>) -> Self {
        StageCache {
            inner: Mutex::new(CacheInner { table: HashMap::new(), ring: VecDeque::new() }),
            cap,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            unique_misses: AtomicU64::new(0),
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

    /// Records a freshly computed value, counting a miss (and a unique
    /// miss when the key is absent from the table) and evicting
    /// second-chance if the cache is at its bound. The first value wins
    /// when two computations race on one key (both are identical by the
    /// purity contract).
    pub fn insert(&self, key: u64, value: V) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut guard = self.inner.lock().expect("stage cache poisoned");
        let inner = &mut *guard;
        if inner.table.contains_key(&key) {
            return;
        }
        self.unique_misses.fetch_add(1, Ordering::Relaxed);
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

    /// Serves a batch of content keys through the cache — the one batch
    /// rule of every cached stage. Keys are probed in order, each found
    /// key counting a hit; if all hit, `compute` is never called.
    /// Otherwise `compute` gets the index of the first occurrence of each
    /// distinct missed key, in order, and returns one value per index;
    /// every missed occurrence is then inserted and counts a miss. Values
    /// return in key order from the probe or from `compute`, never
    /// re-read from the table, so eviction inside the batch cannot change
    /// a result. `compute` runs outside the lock: stage bodies may fan
    /// out onto the worker pool.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error; nothing is inserted then.
    pub fn run_batch<E>(
        &self,
        keys: &[u64],
        compute: impl FnOnce(&[usize]) -> Result<Vec<V>, E>,
    ) -> Result<Vec<V>, E> {
        let probed: Vec<Option<V>> = keys.iter().map(|&key| self.get(key)).collect();
        if probed.iter().all(Option::is_some) {
            return Ok(probed.into_iter().flatten().collect());
        }
        // Key → slot in `firsts`: linear in the batch size, which an
        // `explore` request controls.
        let mut slot_of: HashMap<u64, usize> = HashMap::new();
        let mut firsts: Vec<usize> = Vec::new();
        for (i, (&key, found)) in keys.iter().zip(&probed).enumerate() {
            if found.is_none() {
                slot_of.entry(key).or_insert_with(|| {
                    firsts.push(i);
                    firsts.len() - 1
                });
            }
        }
        let computed = compute(&firsts)?;
        assert_eq!(computed.len(), firsts.len(), "one computed value per missed key");
        let out = probed.into_iter().zip(keys).map(|(found, &key)| {
            found.unwrap_or_else(|| {
                let value = computed[slot_of[&key]].clone();
                self.insert(key, value.clone());
                value
            })
        });
        Ok(out.collect())
    }

    /// Number of lookups served from the table.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that had to compute.
    ///
    /// Scheduling-dependent only across concurrent callers, such as the
    /// daemon's workers, never within one [`StageCache::run_batch`]: two
    /// callers racing on one key can both miss (each computes, each
    /// inserts, first wins). For a thread-stable figure use
    /// [`StageCache::unique_misses`].
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of inserts that stored a key absent from the table — the
    /// thread-stable companion to [`StageCache::misses`].
    ///
    /// The count equals the distinct keys computed, except that a key
    /// recomputed after eviction or [`StageCache::clear`] counts again.
    /// A duplicate-compute race inflates `misses` but inserts the same
    /// key twice, and the second insert finds it stored, so while
    /// nothing is evicted a fixed workload reads the same count at
    /// every `QPD_THREADS`. It costs one counter, however many keys
    /// the cache has seen.
    pub fn unique_misses(&self) -> u64 {
        self.unique_misses.load(Ordering::Relaxed)
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
    /// Inserts that stored a key absent from the table (thread-stable
    /// while nothing is evicted; see [`StageCache::unique_misses`]).
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

impl PlacementStage {
    /// The content key of placing `profile` under this stage's knobs.
    pub fn key(&self, profile: &CouplingProfile) -> u64 {
        let mut h = Fnv64::new();
        h.push(StageKind::Placement as u64);
        h.push(profile_key(profile));
        h.push(self.auxiliary_qubits as u64);
        h.finish()
    }

    /// Places `profile`'s qubits, then the auxiliary ones.
    ///
    /// # Errors
    ///
    /// Returns [`DesignError::EmptyProgram`] for a 0-qubit profile.
    pub fn run(&self, profile: &CouplingProfile) -> Result<Vec<Coord>, DesignError> {
        if profile.num_qubits() == 0 {
            return Err(DesignError::EmptyProgram);
        }
        let mut coords = place_qubits(profile);
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

impl BusOrderStage {
    /// The content key of selecting buses on `coords` for `profile`
    /// under this stage's knobs.
    pub fn key(&self, coords: &[Coord], profile: &CouplingProfile) -> u64 {
        let mut h = Fnv64::new();
        h.push(StageKind::Bus as u64);
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

    /// The bus order on `coords` for `profile`: its prefixes are the
    /// selections for smaller budgets.
    pub fn run(&self, coords: &[Coord], profile: &CouplingProfile) -> Vec<Square> {
        let cap = self.max_buses.unwrap_or(usize::MAX);
        match self.strategy {
            BusStrategy::Weighted => select_buses_weighted(coords, profile, cap),
            BusStrategy::Random { seed } => select_buses_random(coords, cap, seed),
        }
    }
}

/// Stage 3 — frequency allocation and architecture assembly: builds the
/// chip from an explicit layout and attaches a frequency plan (Algorithm
/// 3's center-out search or the IBM 5-frequency pattern). Its only
/// compute path is [`StagePlan::assemble_batch`].
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

impl AssembleStage {
    /// The content key of assembling the layout `coords` + `squares`
    /// under this stage's knobs.
    pub fn key(&self, coords: &[Coord], squares: &[Square]) -> u64 {
        let mut h = Fnv64::new();
        h.push(StageKind::Frequency as u64);
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
        pattern_frequency_plan(arch, self.hardware.pattern_frequencies_ghz())
    }

    /// Attaches `plan` to `arch` inside the family band.
    fn attach(&self, arch: Architecture, plan: FrequencyPlan) -> Result<Architecture, DesignError> {
        Ok(arch.with_frequencies_in_band(plan, self.hardware.allowed_band_ghz())?)
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

/// One content-keyed cache per stage of the placement → bus →
/// frequency cascade.
///
/// A plan is shared (behind an `Arc` inside every [`crate::DesignFlow`]
/// and its clones, and inside the explorer's stage caches): the caches
/// use interior mutability and are safe to consult from the worker
/// pool. Because stage keys embed the stage configuration, one plan can
/// serve flows with different knobs without cross-talk.
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
    /// An empty plan (caches bounded by [`memo_cap`]).
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

    /// Runs a batch of frequency/assembly jobs through the cache
    /// ([`StageCache::run_batch`]): every distinct missed key is
    /// assembled once, and all optimized misses go through **one**
    /// seed-major [`FrequencyAllocator::allocate_batch`] call against the
    /// plan's noise-plane cache. A singleton is a batch of one.
    ///
    /// Each returned architecture is bit-identical to a batch of one of
    /// that job on a fresh plan; only *when* shared work happens changes.
    ///
    /// # Errors
    ///
    /// Propagates the first failing job's error, in job order (nothing
    /// is cached when any job fails).
    pub fn assemble_batch(
        &self,
        jobs: &[AssembleJob<'_>],
    ) -> Result<Vec<Architecture>, DesignError> {
        let keys: Vec<u64> = jobs.iter().map(|j| j.stage.key(j.coords, j.squares)).collect();
        self.assemble.run_batch(&keys, |missed| {
            let missed: Vec<&AssembleJob<'_>> = missed.iter().map(|&i| &jobs[i]).collect();
            let built: Vec<Result<Architecture, DesignError>> =
                missed.iter().map(|j| j.stage.build_architecture(j.coords, j.squares)).collect();
            let allocators: Vec<Option<FrequencyAllocator>> = missed
                .iter()
                .zip(&built)
                .map(|(job, arch)| {
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
            // The scratch is swapped out of its slot (not locked across
            // the allocation) so concurrent batches never serialize; see
            // the field docs.
            let mut scratch = self
                .assemble_scratch
                .lock()
                .expect("assemble scratch poisoned")
                .take()
                .unwrap_or_default();
            let mut plans =
                FrequencyAllocator::allocate_batch(&alloc_jobs, &mut scratch).into_iter();
            *self.assemble_scratch.lock().expect("assemble scratch poisoned") = Some(scratch);
            missed
                .iter()
                .zip(built)
                .zip(&allocators)
                .map(|((job, arch), allocator)| {
                    let arch = arch?;
                    let plan = match allocator {
                        Some(_) => plans.next().expect("one plan per allocation job"),
                        None => job.stage.pattern_plan(&arch),
                    };
                    job.stage.attach(arch, plan)
                })
                .collect()
        })
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

    /// `run_batch` computing `10 * key` for each handed index, logging
    /// the index lists `compute` receives.
    fn batch(cache: &StageCache<u64>, keys: &[u64], calls: &mut Vec<Vec<usize>>) -> Vec<u64> {
        let out: Result<_, ()> = cache.run_batch(keys, |missed| {
            calls.push(missed.to_vec());
            Ok(missed.iter().map(|&i| keys[i] * 10).collect())
        });
        out.unwrap()
    }

    #[test]
    fn cache_computes_once_per_key() {
        let cache: StageCache<u64> = StageCache::with_cap(None);
        let mut calls = Vec::new();
        for _ in 0..3 {
            assert_eq!(batch(&cache, &[42], &mut calls), [420]);
        }
        assert_eq!(calls.len(), 1);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (2, 1, 1));
    }

    #[test]
    fn run_batch_computes_a_duplicated_miss_once() {
        let cache: StageCache<u64> = StageCache::with_cap(None);
        let mut calls = Vec::new();
        assert_eq!(batch(&cache, &[5, 5, 5], &mut calls), [50, 50, 50]);
        assert_eq!(calls, [vec![0]]);
        // Every missed occurrence counts a miss; the key is unique once.
        assert_eq!((cache.hits(), cache.misses(), cache.unique_misses()), (0, 3, 1));
    }

    #[test]
    fn run_batch_hands_compute_first_occurrences_in_order() {
        let cache: StageCache<u64> = StageCache::with_cap(None);
        cache.insert(3, 30);
        let mut calls = Vec::new();
        assert_eq!(batch(&cache, &[9, 3, 7, 9, 8, 7], &mut calls), [90, 30, 70, 90, 80, 70]);
        assert_eq!(calls, [vec![0, 2, 4]]);
    }

    #[test]
    fn all_hit_batch_never_computes() {
        let cache: StageCache<u64> = StageCache::with_cap(None);
        cache.insert(1, 10);
        let out: Result<_, ()> = cache.run_batch(&[1, 1], |_| panic!("compute called"));
        assert_eq!(out.unwrap(), [10, 10]);
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn failing_compute_inserts_nothing() {
        let cache: StageCache<u64> = StageCache::with_cap(None);
        let out: Result<Vec<u64>, &str> = cache.run_batch(&[1, 2], |_| Err("boom"));
        assert_eq!(out, Err("boom"));
        assert_eq!((cache.len(), cache.misses(), cache.unique_misses()), (0, 0, 0));
    }

    #[test]
    fn eviction_inside_a_batch_never_changes_a_result() {
        // At a bound of 1 each insert evicts the previous one: values
        // must come from `compute`, never from re-reading the table.
        let cache: StageCache<u64> = StageCache::with_cap(Some(1));
        assert_eq!(batch(&cache, &[4, 5, 6], &mut Vec::new()), [40, 50, 60]);
        assert_eq!((cache.len(), cache.evictions()), (1, 2));
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
        let mut calls = Vec::new();
        assert_eq!(batch(&cache, &[3], &mut calls), [30]);
        assert_eq!(batch(&cache, &[4], &mut calls), [40]); // evicts 3
        assert_eq!(batch(&cache, &[3], &mut calls), [30]); // recomputed
        assert_eq!(calls.len(), 3);
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
        // A key recomputed after eviction counts again.
        cache.insert(2, 20); // evicts 1 (cap = 1)
        cache.insert(1, 10);
        assert_eq!(cache.unique_misses(), 3);
        // clear() drops values; the counter keeps accumulating, like
        // every other counter, and a key recomputed after it counts
        // again.
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.unique_misses(), 3);
        cache.insert(1, 10);
        assert_eq!(cache.unique_misses(), 4);
        let stats = StageCacheStats::of(StageKind::Yield, &cache);
        assert_eq!(stats.unique_misses, 4);
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
    fn placement_stage_is_keyed_by_profile_and_aux() {
        let p = profile();
        let s0 = PlacementStage { auxiliary_qubits: 0 };
        let s2 = PlacementStage { auxiliary_qubits: 2 };
        assert_eq!(s0.key(&p), s0.key(&p), "key unstable");
        assert_ne!(s0.key(&p), s2.key(&p), "aux not in key");
        let other = CouplingProfile::from_edges(6, &[(0, 1, 1)]);
        assert_ne!(s0.key(&p), s0.key(&other), "profile not in key");
        let coords = s0.run(&p).unwrap();
        assert_eq!(coords.len(), 6);
        assert_eq!(s2.run(&p).unwrap().len(), 8);
    }

    #[test]
    fn empty_profile_fails_placement() {
        let empty = CouplingProfile::from_edges(0, &[]);
        let stage = PlacementStage { auxiliary_qubits: 0 };
        assert_eq!(stage.run(&empty).unwrap_err(), DesignError::EmptyProgram);
    }

    #[test]
    fn bus_stage_key_distinguishes_strategy_and_cap() {
        let p = profile();
        let coords = PlacementStage { auxiliary_qubits: 0 }.run(&p).unwrap();
        let weighted = BusOrderStage { strategy: BusStrategy::Weighted, max_buses: None };
        let random = BusOrderStage { strategy: BusStrategy::Random { seed: 1 }, max_buses: None };
        let capped = BusOrderStage { strategy: BusStrategy::Weighted, max_buses: Some(1) };
        assert_ne!(weighted.key(&coords, &p), random.key(&coords, &p));
        assert_ne!(weighted.key(&coords, &p), capped.key(&coords, &p));
        let order = weighted.run(&coords, &p);
        assert!(capped.run(&coords, &p).len() <= 1.min(order.len()));
    }

    /// Assembles the bus-less layout `coords` as a batch of one on a
    /// fresh plan.
    fn assemble(stage: &AssembleStage, coords: &[Coord]) -> Architecture {
        let job = AssembleJob { stage, coords, squares: &[] };
        StagePlan::new().assemble_batch(&[job]).unwrap().remove(0)
    }

    #[test]
    fn assemble_stage_reproduces_the_flow_naming() {
        let p = profile();
        let coords = PlacementStage { auxiliary_qubits: 0 }.run(&p).unwrap();
        let stage = AssembleStage {
            frequency: FrequencyStrategy::FiveFrequency,
            allocation_trials: 100,
            allocation_sweeps: 8,
            allocation_seed: 0,
            sigma_ghz: qpd_yield::FabricationModel::PAPER_SIGMA_GHZ,
            name_prefix: "demo".into(),
            hardware: HardwareFamily::FixedFrequencyTransmon,
        };
        let arch = assemble(&stage, &coords);
        assert_eq!(arch.name(), "demo-6q-b0-5freq");
        assert!(arch.frequencies().is_some());
        // The key separates frequency strategies and knobs.
        let optimized = AssembleStage { frequency: FrequencyStrategy::Optimized, ..stage.clone() };
        assert_ne!(stage.key(&coords, &[]), optimized.key(&coords, &[]));
        let reseeded = AssembleStage { allocation_seed: 9, ..stage.clone() };
        assert_ne!(stage.key(&coords, &[]), reseeded.key(&coords, &[]));
    }

    #[test]
    fn assemble_stage_threads_the_hardware_family() {
        let p = profile();
        let coords = PlacementStage { auxiliary_qubits: 0 }.run(&p).unwrap();
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
        assert_ne!(base.key(&coords, &[]), tc.key(&coords, &[]));
        assert_ne!(base.key(&coords, &[]), hh.key(&coords, &[]));
        assert_ne!(tc.key(&coords, &[]), hh.key(&coords, &[]));
        // Names carry the family suffix; plans land in the family band.
        let arch = assemble(&tc, &coords);
        assert_eq!(arch.name(), "demo-tc-6q-b0-5freq");
        let plan = arch.frequencies().unwrap();
        assert!(plan.check_band_within(qpd_topology::TUNABLE_COUPLER_BAND_GHZ).is_ok());
        let arch = assemble(&hh, &coords);
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
        let flow = crate::DesignFlow::new();
        assert_eq!(flow.place(&p).unwrap(), flow.place(&p).unwrap());
        let plan = flow.plan();
        let stats = plan.stats();
        assert_eq!(stats[0].kind, StageKind::Placement);
        assert_eq!(stats[0].hits, 1);
        assert_eq!(stats[0].misses, 1);
        assert!((stats[0].hit_rate() - 0.5).abs() < 1e-12);
        plan.clear();
        assert!(plan.placement_cache().is_empty());
    }
}
