//! Local-region yield evaluation for frequency allocation (paper §4.3).
//!
//! Algorithm 3 assigns frequencies one qubit at a time; for each candidate
//! frequency it simulates yield only within the new qubit's *local
//! region* — the subgraph where a collision involving the new qubit is
//! possible (distance <= 2 in the coupling graph: conditions 1–4 involve
//! direct neighbors, conditions 5–7 reach neighbors-of-neighbors).
//!
//! All candidates for one decision are evaluated under **common random
//! numbers** (the same noise samples), so candidate ranking reflects the
//! frequencies rather than sampling luck, and the whole allocation is
//! deterministic in the seed.
//!
//! # Hot path
//!
//! This is the allocator's inner loop, so it is engineered accordingly:
//!
//! - [`CompiledRegions`] precompiles, once per [`Architecture`], each
//!   qubit's region membership, its q-vs-context pair/triple constraint
//!   lists, and the inverse slot table — the per-decision `position()`
//!   scans of the naive formulation disappear entirely;
//! - the noise blocks are prefixes of per-(seed, qubit) planes that
//!   [`AllocScratch::prepare`] draws once for a whole allocation step,
//!   which every decision of the step then reads shared; a plane grows
//!   into its spare capacity, never zero-filling samples it then draws;
//! - one fused kernel filters and tallies. Pass 1 gathers each block of
//!   8 trial rows (4 on AVX2) straight from the plane, one gather at
//!   stride `m` per column, checks the candidate-independent *context*
//!   constraints across the block, and stores the survivors' operands
//!   field-major into a per-worker tile (a compress-store per field on
//!   AVX-512, a permutation-table pack on AVX2);
//! - pass 2 scores each tile by *windows* whenever the candidates form a
//!   regular ascending grid of at most 63 values (every family's
//!   allocator grid: 35, 61 and 31 candidates). Each q-involving
//!   condition collides on a few index intervals of the grid, so about
//!   31 windows per survivor, eight survivors per vector, OR into a
//!   64-bit collided mask, and bit-sliced counters add up the clean
//!   masks. Any survivor with a window edge within `eps` of a candidate
//!   index is re-scored by the dense predicate, `eps` exceeding the
//!   floating-point error bound plus the grid tolerance (see
//!   `Windows`), so counts stay exact. Irregular or longer candidate
//!   lists run the dense kernel;
//! - a decision of at least the yield simulator's `POOL_MIN_TRIALS`
//!   (1,350) trials fans its rows out over the [`qpd_par`] worker pool,
//!   each chunk filtering and tallying its own rows; smaller decisions
//!   (serve and explore requests) run inline. The common-random-numbers
//!   scheme makes the counts — and therefore the ranking — bit-identical
//!   for any thread count and SIMD tier.
//!
//! The test suite proves count-equality against a naive oracle — noisy
//! frequencies checked against every pair and triple of the region, per
//! candidate — on every architecture it tries.

use std::cell::RefCell;
use std::collections::HashMap;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use qpd_topology::Architecture;

use crate::collision::CollisionParams;
use crate::model::{as_uninit, FabricationModel};
use crate::simulator::POOL_MIN_TRIALS;

/// Sentinel for "member not active in this decision".
const INACTIVE: u32 = u32::MAX;

/// Field layout of one pass-1 survivor in a [`Tile`]:
/// `[noise_q, f_other per q-pair, (f_i, f_k) per j==q triple,
/// (2 f_j - gap, f_k) per i==q triple, ((2 f_j - gap) - f_i, f_i) per
/// k==q triple]` — exactly the operands the q-involving constraints
/// read, with the candidate-independent halves of the two-photon terms
/// prefolded.
#[derive(Debug, Clone, Copy)]
struct Fields {
    /// Fields per survivor.
    count: usize,
    /// End of the pair operands (`1..pairs_end`).
    pairs_end: usize,
    /// End of the j==q triple operands.
    tj_end: usize,
    /// End of the i==q triple operands.
    ti_end: usize,
}

impl Fields {
    fn new(pairs: usize, triples_j: usize, triples_i: usize, triples_k: usize) -> Self {
        let pairs_end = 1 + pairs;
        let tj_end = pairs_end + 2 * triples_j;
        let ti_end = tj_end + 2 * triples_i;
        Fields { count: ti_end + 2 * triples_k, pairs_end, tj_end, ti_end }
    }
}

/// Whether a survivor collides with `q` at frequency `fq` under its
/// q-involving constraints; `op(f)` reads field `f` ([`Fields`]). This
/// dense predicate is the semantic definition of pass 2: the window
/// tally must match it bit for bit, and re-scores with it every survivor
/// whose window edges it cannot place exactly.
fn q_collides(op: impl Fn(usize) -> f64, fields: Fields, fq: f64, p: &CollisionParams) -> bool {
    let gap = -p.anharmonicity_ghz;
    let g2 = gap / 2.0;
    let two_fq = 2.0 * fq - gap;
    (1..fields.pairs_end).any(|f| {
        let d = (fq - op(f)).abs();
        d < p.t_degenerate_ghz
            || (d - g2).abs() < p.t_half_ghz
            || (d - gap).abs() < p.t_full_ghz
            || d > gap
    }) || (fields.pairs_end..fields.tj_end)
        .step_by(2)
        .any(|f| ((two_fq - op(f)) - op(f + 1)).abs() < p.t_two_photon_ghz)
        || (fields.tj_end..fields.ti_end).step_by(2).any(|f| {
            let (t1, fk) = (op(f), op(f + 1));
            let d = (fq - fk).abs();
            d < p.t_degenerate_ghz
                || (d - gap).abs() < p.t_full_ghz
                || ((t1 - fq) - fk).abs() < p.t_two_photon_ghz
        })
        || (fields.ti_end..fields.count).step_by(2).any(|f| {
            let (t2, fi) = (op(f), op(f + 1));
            let d = (fi - fq).abs();
            d < p.t_degenerate_ghz
                || (d - gap).abs() < p.t_full_ghz
                || (t2 - fq).abs() < p.t_two_photon_ghz
        })
}

/// Counts, for every candidate, the first `n` survivors of `tile` whose
/// q-involving constraints stay collision-free — the dense pass-2
/// kernel: the oracle of the window tally, and the path for candidate
/// lists that are not a regular grid ([`Windows::new`]).
fn pass2_block_scalar(
    tile: &Tile,
    n: usize,
    fields: Fields,
    candidates: &[f64],
    p: &CollisionParams,
    counts: &mut [u64],
) {
    for s in 0..n {
        let op = |f: usize| tile.get(f, s);
        for (slot, &c) in counts.iter_mut().zip(candidates) {
            *slot += u64::from(!q_collides(op, fields, op(0) + c, p));
        }
    }
}

/// Survivor `s`'s collided-candidate mask under the dense predicate.
fn dense_mask(
    tile: &Tile,
    s: usize,
    fields: Fields,
    candidates: &[f64],
    p: &CollisionParams,
) -> u64 {
    let op = |f: usize| tile.get(f, s);
    candidates
        .iter()
        .enumerate()
        .fold(0, |mask, (i, &c)| mask | u64::from(q_collides(op, fields, op(0) + c, p)) << i)
}

/// Survivors a tile collects before it is tallied.
const TILE_ROWS: usize = 64;

/// Slots per tile field: [`TILE_ROWS`] plus room for one more filter
/// block.
const TILE_CAP: usize = TILE_ROWS + 8;

/// One worker's pass-1 survivors, field-major: field `f` of survivor `s`
/// sits at `data[f * TILE_CAP + s]`, so the tally loads one field of a
/// vector of survivors with one load, and the AVX-512 filter appends a
/// block's survivors to a field with one compress-store.
#[derive(Debug, Default)]
struct Tile {
    data: Vec<f64>,
    /// Survivors held.
    len: usize,
}

thread_local! {
    /// Each worker's tile, reused by every decision the worker runs.
    static TILE: RefCell<Tile> = RefCell::default();
}

impl Tile {
    /// Empties the tile and sizes it for `fields` fields. Storage only
    /// grows and is never cleared: the filter writes every slot the tally
    /// reads for a live survivor, and vector lanes past `len` are masked.
    fn reset(&mut self, fields: usize) {
        let needed = fields * TILE_CAP;
        if self.data.len() < needed {
            self.data.resize(needed, 0.0);
        }
        self.len = 0;
    }

    fn get(&self, f: usize, s: usize) -> f64 {
        self.data[f * TILE_CAP + s]
    }

    /// Moves survivors `from..len` to the front of every field.
    fn keep_tail(&mut self, from: usize, fields: usize) {
        for f in 0..fields {
            let start = f * TILE_CAP;
            self.data.copy_within(start + from..start + self.len, start);
        }
        self.len -= from;
    }
}

/// Bit planes per clean-candidate counter.
const TALLY_PLANES: usize = 8;

/// Bit-sliced per-candidate counters, one set per vector lane: plane `k`
/// holds bit `k` of every (lane, candidate) counter, so adding one
/// 64-candidate clean mask per lane is a ripple of AND/XOR over the
/// planes. The planes are flushed into the exact integer counts before
/// any counter can pass `2^TALLY_PLANES - 1`.
#[derive(Debug, Default)]
struct BitTally {
    planes: [[u64; 8]; TALLY_PLANES],
    /// Masks added per lane since the last flush.
    rounds: u32,
}

impl BitTally {
    /// Adds one clean mask in lane 0 (the scalar tier).
    fn add(&mut self, clean: u64, counts: &mut [u64]) {
        let mut carry = clean;
        for plane in &mut self.planes {
            let word = plane[0];
            plane[0] = word ^ carry;
            carry &= word;
        }
        self.end_round(counts);
    }

    /// Closes one round of at most one add per lane.
    fn end_round(&mut self, counts: &mut [u64]) {
        self.rounds += 1;
        if self.rounds == (1 << TALLY_PLANES) - 1 {
            self.flush(counts);
        }
    }

    /// Adds every counter into `counts` and clears the planes.
    fn flush(&mut self, counts: &mut [u64]) {
        for (k, plane) in self.planes.iter_mut().enumerate() {
            for word in plane.iter_mut() {
                let mut w = std::mem::take(word);
                while w != 0 {
                    counts[w.trailing_zeros() as usize] += 1 << k;
                    w &= w - 1;
                }
            }
        }
        self.rounds = 0;
    }
}

/// Bits of the candidate indices below `n`, for `n` in `0..=63`.
fn below(n: f64) -> u64 {
    (1u64 << n as u32) - 1
}

/// The window tally's view of a regular candidate grid: per-decision
/// constants in grid-index units (GHz divided by the grid step).
///
/// # Windows
///
/// Each q-involving condition holds for `fq` inside a few open windows:
///
/// - a pair operand `f_o`: within `t_deg` of `f_o`, within `t_half` of
///   `f_o ± gap/2`, and beyond `f_o ± (gap - t_full)` — conditions 3 and
///   4 merge, since `|d - gap| < t_full || d > gap` is exactly
///   `fl(d - gap) > -t_full`;
/// - a j==q triple: within `t_two / 2` of `(gap + f_i + f_k) / 2`;
/// - an i==q or k==q triple: within `t_deg` of the other endpoint,
///   within `t_full` of it `± gap`, and within `t_two` of its two-photon
///   center (`t1 - f_k` or `t2`).
///
/// Mapped through `u = (fq - noise_q - c0) / step`, every window is an
/// interval of candidate indices; its bits OR into the survivor's 64-bit
/// collided mask. That is about 31 windows per survivor where the dense
/// kernel checks 35 candidates against 14 operands.
///
/// # Exactness
///
/// Each predicate is a threshold on a piecewise-linear function of `fq`
/// with slopes of magnitude 1 or 2 and no kink near the threshold (the
/// parameter conditions of [`Self::new`]), so the dense floating-point
/// predicate at candidate `i` equals "`noise_q + c_i` lies in the real
/// window" unless that point is within the predicate's rounding error of
/// a real edge. Every operand is below 64 GHz in magnitude — candidates
/// and designed frequencies within 32 GHz, noise within 12.1 sigma (the
/// largest draw the polar sampler can make) at sigma ≤ 1 GHz — so each
/// of the at most six roundings of a predicate costs under
/// `2^-53 · 256 GHz`, under `2e-13` GHz in all. The grid deviates from
/// `c0 + step · i` by at most [`Self::GRID_TOL_GHZ`] (1e-12 GHz), and
/// placing an edge in index units costs under `2e-13` GHz more. An index
/// farther than `eps` = [`Self::EDGE_EPS_GHZ`] (1e-10 GHz, over 70 times
/// that 1.4e-12 GHz budget) from every edge is therefore classified
/// exactly; a survivor with any edge nearer an index is re-scored by the
/// dense predicate ([`q_collides`]).
#[derive(Debug, Clone, Copy)]
struct Windows {
    /// First candidate, GHz.
    c0: f64,
    /// Reciprocal grid step, 1/GHz.
    inv_step: f64,
    /// Candidate count.
    k: f64,
    /// Bits of the candidate indices.
    valid: u64,
    /// Edge ambiguity band, index units.
    eps: f64,
    deg: f64,
    /// `gap/2 ∓ t_half`.
    half_lo: f64,
    half_hi: f64,
    /// `gap ∓ t_full`.
    full_lo: f64,
    full_hi: f64,
    two: f64,
    /// Half-width of the j==q window, `t_two / 2`.
    two_j: f64,
    /// `gap / 2` in GHz (the j==q center offset).
    g2_ghz: f64,
}

impl Windows {
    /// Candidates per grid: masks are 64-bit and `1 << k` must not
    /// overflow.
    const MAX_CANDIDATES: usize = 63;
    /// Largest deviation of a candidate from its grid point.
    const GRID_TOL_GHZ: f64 = 1e-12;
    /// Edges nearer a candidate index than this fall back (see the type
    /// docs for the error budget it covers).
    const EDGE_EPS_GHZ: f64 = 1e-10;
    /// Bound on candidates and designed frequencies.
    const MAX_FREQ_GHZ: f64 = 32.0;
    /// Bound on the noise sigma.
    const MAX_SIGMA_GHZ: f64 = 1.0;

    /// The window constants of a decision, or `None` — the dense path —
    /// unless `candidates` is a regular ascending grid of 2 to 63 values
    /// within 32 GHz, the designed frequencies `base` are within 32 GHz,
    /// `sigma_ghz` is at most 1 GHz, and the collision parameters are
    /// well-conditioned (`0 < t_half < gap/2`, `0 < t_full < gap < 1`
    /// GHz, `0 < t_deg, t_two < 1` GHz). Every hardware family's
    /// allocator grid qualifies (35, 61 and 31 candidates).
    fn new(candidates: &[f64], p: &CollisionParams, sigma_ghz: f64, base: &[f64]) -> Option<Self> {
        let k = candidates.len();
        if !(2..=Self::MAX_CANDIDATES).contains(&k) {
            return None;
        }
        let in_range = |f: f64| f.abs() <= Self::MAX_FREQ_GHZ;
        let c0 = candidates[0];
        let step = (candidates[k - 1] - c0) / (k - 1) as f64;
        let regular = step > 0.0
            && candidates.iter().enumerate().all(|(i, &c)| {
                in_range(c) && (c - (c0 + step * i as f64)).abs() <= Self::GRID_TOL_GHZ
            });
        let bounded = sigma_ghz <= Self::MAX_SIGMA_GHZ && base.iter().all(|&f| in_range(f));
        let gap = -p.anharmonicity_ghz;
        let g2 = gap / 2.0;
        let unit = |t: f64| 0.0 < t && t < 1.0;
        let conditioned = gap < 1.0
            && unit(p.t_degenerate_ghz)
            && unit(p.t_two_photon_ghz)
            && 0.0 < p.t_half_ghz
            && p.t_half_ghz < g2
            && 0.0 < p.t_full_ghz
            && p.t_full_ghz < gap;
        (regular && bounded && conditioned).then(|| {
            let inv = 1.0 / step;
            Windows {
                c0,
                inv_step: inv,
                k: k as f64,
                valid: (1u64 << k) - 1,
                eps: Self::EDGE_EPS_GHZ * inv,
                deg: p.t_degenerate_ghz * inv,
                half_lo: (g2 - p.t_half_ghz) * inv,
                half_hi: (g2 + p.t_half_ghz) * inv,
                full_lo: (gap - p.t_full_ghz) * inv,
                full_hi: (gap + p.t_full_ghz) * inv,
                two: p.t_two_photon_ghz * inv,
                two_j: 0.5 * p.t_two_photon_ghz * inv,
                g2_ghz: g2,
            }
        })
    }

    /// The first candidate index above the edge at index coordinate `x`,
    /// clamped to `0..=k`; `None` when `x` lies within `eps` of an index.
    fn above(&self, x: f64) -> Option<f64> {
        let floor = x.floor();
        ((x - floor - 0.5).abs() < 0.5 - self.eps).then(|| (floor + 1.0).clamp(0.0, self.k))
    }

    /// Survivor `s`'s collided-candidate mask by windows, or `None` when
    /// an edge lands within `eps` of a candidate index.
    fn collided(&self, tile: &Tile, s: usize, fields: Fields) -> Option<u64> {
        let op = |f: usize| tile.get(f, s);
        let origin = op(0) + self.c0;
        let at = |f: f64| (f - origin) * self.inv_step;
        let window = |lo: f64, hi: f64| Some(below(self.above(hi)?) & !below(self.above(lo)?));
        let mut coll = 0;
        for f in 1..fields.pairs_end {
            let c = at(op(f));
            coll |= window(c - self.deg, c + self.deg)?
                | window(c + self.half_lo, c + self.half_hi)?
                | window(c - self.half_hi, c - self.half_lo)?
                | !below(self.above(c + self.full_lo)?)
                | below(self.above(c - self.full_lo)?);
        }
        for f in (fields.pairs_end..fields.tj_end).step_by(2) {
            let c = at(0.5 * (op(f) + op(f + 1)) + self.g2_ghz);
            coll |= window(c - self.two_j, c + self.two_j)?;
        }
        for f in (fields.tj_end..fields.count).step_by(2) {
            // (t1, f_k) of an i==q triple, centered at t1 - f_k;
            // (t2, f_i) of a k==q triple, centered at t2.
            let (t, other) = (op(f), op(f + 1));
            let center = if f < fields.ti_end { t - other } else { t };
            let (c, ct) = (at(other), at(center));
            coll |= window(c - self.deg, c + self.deg)?
                | window(c + self.full_lo, c + self.full_hi)?
                | window(c - self.full_hi, c - self.full_lo)?
                | window(ct - self.two, ct + self.two)?;
        }
        Some(coll & self.valid)
    }
}

/// SIMD tier for the vectorized kernels, detected once per process.
/// Shared by the decision kernel (filter and window tally) and the batch
/// evaluator ([`crate::batch`]) — one detection serves every dispatch
/// site instead of per-call `is_x86_feature_detected!`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SimdTier {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl SimdTier {
    /// Lanes per vector at this tier (1 = scalar).
    pub(crate) fn lanes(self) -> usize {
        match self {
            SimdTier::Scalar => 1,
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => 4,
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx512 => 8,
        }
    }
}

pub(crate) fn simd_tier() -> SimdTier {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::atomic::{AtomicU8, Ordering};
        static STATE: AtomicU8 = AtomicU8::new(0);
        match STATE.load(Ordering::Relaxed) {
            1 => SimdTier::Scalar,
            2 => SimdTier::Avx2,
            3 => SimdTier::Avx512,
            _ => {
                let tier = if std::arch::is_x86_feature_detected!("avx512f") {
                    SimdTier::Avx512
                } else if std::arch::is_x86_feature_detected!("avx2") {
                    SimdTier::Avx2
                } else {
                    SimdTier::Scalar
                };
                let code = match tier {
                    SimdTier::Scalar => 1,
                    SimdTier::Avx2 => 2,
                    SimdTier::Avx512 => 3,
                };
                STATE.store(code, Ordering::Relaxed);
                tier
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    SimdTier::Scalar
}

/// `_mm256_permutevar8x32_epi32` indices packing the kept `f64` lanes of
/// a 4-lane keep mask to the front (the AVX2 filter's compress).
#[cfg(target_arch = "x86_64")]
const PACK4: [[i32; 8]; 16] = {
    let mut table = [[0i32; 8]; 16];
    let mut mask = 0;
    while mask < 16 {
        let (mut lane, mut out) = (0, 0);
        while lane < 4 {
            if mask >> lane & 1 == 1 {
                table[mask][2 * out] = 2 * lane;
                table[mask][2 * out + 1] = 2 * lane + 1;
                out += 1;
            }
            lane += 1;
        }
        mask += 1;
    }
    table
};

/// One decision's kernel: the remapped constraint lists, the candidates
/// and their window constants. Pass 1 filters trials against the
/// candidate-independent context constraints into a per-worker [`Tile`];
/// pass 2 tallies the tile's survivors per candidate.
struct DecisionCtx<'a> {
    params: &'a CollisionParams,
    /// Designed frequencies of the active columns (`0.0` at `qi`).
    base: &'a [f64],
    /// Active column count.
    m: usize,
    /// Column of the qubit being decided.
    qi: usize,
    fields: Fields,
    q_pair_others: &'a [u32],
    ctx_pairs: &'a [(u32, u32)],
    triples_j: &'a [(u32, u32)],
    triples_i: &'a [(u32, u32)],
    triples_k: &'a [(u32, u32)],
    ctx_triples: &'a [(u32, u32, u32)],
    candidates: &'a [f64],
    /// `None`: the candidates take the dense path.
    windows: Option<Windows>,
}

impl DecisionCtx<'_> {
    /// Per-candidate collision-free counts over the trial rows of
    /// `noise` (row-major, `m` columns) on `tier`. Every tier filters
    /// and tallies with IEEE-exact operations (add/sub/mul/abs/ordered
    /// compare, no FMA, no reassociation) and the window tally is exact
    /// by construction, so the counts never depend on the tier.
    fn filter_tally(&self, tier: SimdTier, noise: &[f64]) -> Vec<u64> {
        let mut counts = vec![0u64; self.candidates.len()];
        let mut bits = BitTally::default();
        TILE.with_borrow_mut(|tile| {
            tile.reset(self.fields.count);
            match tier {
                // SAFETY: each tier was runtime-detected in `simd_tier`.
                #[cfg(target_arch = "x86_64")]
                SimdTier::Avx512 => unsafe {
                    self.filter_avx512(noise, tile, &mut bits, &mut counts)
                },
                #[cfg(target_arch = "x86_64")]
                SimdTier::Avx2 => unsafe { self.filter_avx2(noise, tile, &mut bits, &mut counts) },
                SimdTier::Scalar => self.filter_scalar(tier, noise, tile, &mut bits, &mut counts),
            }
            self.tally(tier, tile, tile.len, &mut bits, &mut counts);
        });
        bits.flush(&mut counts);
        counts
    }

    /// Whether a trial's candidate-independent constraints collide: the
    /// pure-context pairs and triples, plus conditions 5/6 of the j==q
    /// triples (which never read q's frequency). `get` maps an active
    /// column to the trial's noisy frequency.
    fn context_collides(&self, get: impl Fn(usize) -> f64 + Copy) -> bool {
        let p = self.params;
        let gap = -p.anharmonicity_ghz;
        self.ctx_pairs.iter().any(|&(a, b)| p.pair_collides(get(a as usize), get(b as usize)))
            || self.ctx_triples.iter().any(|&(j, i, k)| {
                p.triple_collides(get(j as usize), get(i as usize), get(k as usize))
            })
            || self.triples_j.iter().any(|&(i, k)| {
                let d = (get(i as usize) - get(k as usize)).abs();
                d < p.t_degenerate_ghz || (d - gap).abs() < p.t_full_ghz
            })
    }

    /// Appends one surviving trial's operands ([`Fields`]) to the tile.
    fn push_survivor(&self, get: impl Fn(usize) -> f64 + Copy, tile: &mut Tile) {
        let gap = -self.params.anharmonicity_ghz;
        let at = tile.len;
        let mut f = 0;
        let mut put = |v: f64| {
            tile.data[f * TILE_CAP + at] = v;
            f += 1;
        };
        put(get(self.qi));
        for &o in self.q_pair_others {
            put(get(o as usize));
        }
        for &(i, k) in self.triples_j {
            put(get(i as usize));
            put(get(k as usize));
        }
        for &(j, k) in self.triples_i {
            put(2.0 * get(j as usize) - gap);
            put(get(k as usize));
        }
        for &(j, i) in self.triples_k {
            let fi = get(i as usize);
            put((2.0 * get(j as usize) - gap) - fi);
            put(fi);
        }
        tile.len += 1;
    }

    /// Once the tile holds [`TILE_ROWS`] survivors, tallies its whole
    /// vectors and keeps the ragged rest.
    fn drain(&self, tier: SimdTier, tile: &mut Tile, bits: &mut BitTally, counts: &mut [u64]) {
        if tile.len >= TILE_ROWS {
            let whole = tile.len - tile.len % tier.lanes();
            self.tally(tier, tile, whole, bits, counts);
            tile.keep_tail(whole, self.fields.count);
        }
    }

    /// Tallies the tile's first `n` survivors: by windows on `tier` when
    /// the candidates allow it, densely otherwise. Returns how many
    /// survivors the window tally re-scored densely.
    fn tally(
        &self,
        tier: SimdTier,
        tile: &Tile,
        n: usize,
        bits: &mut BitTally,
        counts: &mut [u64],
    ) -> usize {
        let Some(w) = &self.windows else {
            pass2_block_scalar(tile, n, self.fields, self.candidates, self.params, counts);
            return 0;
        };
        match tier {
            // SAFETY: each tier was runtime-detected in `simd_tier`.
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx512 => unsafe { self.tally_avx512(w, tile, n, bits, counts) },
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => unsafe { self.tally_avx2(w, tile, n, bits, counts) },
            SimdTier::Scalar => self.tally_scalar(w, tile, n, bits, counts),
        }
    }

    /// One survivor at a time: the scalar tier's tally, and the
    /// reference the vector tallies mirror lane for lane.
    fn tally_scalar(
        &self,
        w: &Windows,
        tile: &Tile,
        n: usize,
        bits: &mut BitTally,
        counts: &mut [u64],
    ) -> usize {
        let mut fallbacks = 0;
        for s in 0..n {
            let coll = w.collided(tile, s, self.fields).unwrap_or_else(|| {
                fallbacks += 1;
                dense_mask(tile, s, self.fields, self.candidates, self.params)
            });
            bits.add(!coll & w.valid, counts);
        }
        fallbacks
    }

    fn filter_scalar(
        &self,
        tier: SimdTier,
        noise: &[f64],
        tile: &mut Tile,
        bits: &mut BitTally,
        counts: &mut [u64],
    ) {
        let mut freqs = vec![0.0f64; self.m];
        for noise_row in noise.chunks_exact(self.m) {
            for ((f, &b), &n) in freqs.iter_mut().zip(self.base).zip(noise_row) {
                *f = b + n;
            }
            if !self.context_collides(|i| freqs[i]) {
                self.push_survivor(|i| freqs[i], tile);
                self.drain(tier, tile, bits, counts);
            }
        }
    }

    /// Four trials per vector: each block's columns are gathered from
    /// the plane at stride `m` (plus the scalar kernel's `base + noise`
    /// addition), every context constraint is checked across the four
    /// trials at once, and each survivor field is packed into the tile
    /// through a [`PACK4`] permutation. The ragged tail runs the scalar
    /// filter.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn filter_avx2(
        &self,
        noise: &[f64],
        tile: &mut Tile,
        bits: &mut BitTally,
        counts: &mut [u64],
    ) {
        use std::arch::x86_64::*;
        const LANES: usize = 4;
        let m = self.m;
        let blocks = noise.len() / m / LANES;
        let stride = m as i32;
        let rows = _mm_setr_epi32(0, stride, 2 * stride, 3 * stride);
        let v_gap = _mm256_set1_pd(-self.params.anharmonicity_ghz);
        let v_2 = _mm256_set1_pd(2.0);
        let mut cols = vec![0.0f64; m * LANES];
        for blk in 0..blocks {
            let block = noise.as_ptr().add(blk * LANES * m);
            for (c, &b) in self.base.iter().enumerate() {
                let n = _mm256_i32gather_pd::<8>(block.add(c), rows);
                _mm256_storeu_pd(
                    cols.as_mut_ptr().add(c * LANES),
                    _mm256_add_pd(_mm256_set1_pd(b), n),
                );
            }
            let keep = !self.context_collided_avx2(&cols) & 0xF;
            if keep == 0 {
                continue;
            }
            let col = |i: u32| _mm256_loadu_pd(cols.as_ptr().add(i as usize * LANES));
            let pack = _mm256_loadu_si256(PACK4[keep as usize].as_ptr().cast());
            let (data, at) = (tile.data.as_mut_ptr(), tile.len);
            let mut f = 0;
            let mut put = |v: __m256d| {
                let packed = _mm256_permutevar8x32_epi32(_mm256_castpd_si256(v), pack);
                _mm256_storeu_pd(data.add(f * TILE_CAP + at), _mm256_castsi256_pd(packed));
                f += 1;
            };
            put(col(self.qi as u32));
            for &o in self.q_pair_others {
                put(col(o));
            }
            for &(i, k) in self.triples_j {
                put(col(i));
                put(col(k));
            }
            for &(j, k) in self.triples_i {
                put(_mm256_sub_pd(_mm256_mul_pd(v_2, col(j)), v_gap));
                put(col(k));
            }
            for &(j, i) in self.triples_k {
                let fi = col(i);
                put(_mm256_sub_pd(_mm256_sub_pd(_mm256_mul_pd(v_2, col(j)), v_gap), fi));
                put(fi);
            }
            tile.len += keep.count_ones() as usize;
            self.drain(SimdTier::Avx2, tile, bits, counts);
        }
        self.filter_scalar(SimdTier::Avx2, &noise[blocks * LANES * m..], tile, bits, counts);
    }

    /// Lane mask (bit set = collided) of the four trials in `cols`
    /// (column-major, four lanes per column). Every operation is an
    /// IEEE-exact counterpart of [`Self::context_collides`], so the mask
    /// is bit-identical to four scalar evaluations.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn context_collided_avx2(&self, cols: &[f64]) -> u32 {
        use std::arch::x86_64::*;
        const LANES: usize = 4;
        const ALL: u32 = 0xF;
        let p = self.params;
        let gap = -p.anharmonicity_ghz;
        let sign = _mm256_set1_pd(-0.0);
        let v_gap = _mm256_set1_pd(gap);
        let v_g2 = _mm256_set1_pd(gap / 2.0);
        let v_deg = _mm256_set1_pd(p.t_degenerate_ghz);
        let v_half = _mm256_set1_pd(p.t_half_ghz);
        let v_full = _mm256_set1_pd(p.t_full_ghz);
        let v_two = _mm256_set1_pd(p.t_two_photon_ghz);
        let v_2 = _mm256_set1_pd(2.0);
        let abs = |x: __m256d| _mm256_andnot_pd(sign, x);
        let col = |i: u32| _mm256_loadu_pd(cols.as_ptr().add(i as usize * LANES));

        let mut coll = _mm256_setzero_pd();
        for &(a, b) in self.ctx_pairs {
            let d = abs(_mm256_sub_pd(col(a), col(b)));
            let m = _mm256_or_pd(
                _mm256_or_pd(
                    _mm256_cmp_pd::<_CMP_LT_OQ>(d, v_deg),
                    _mm256_cmp_pd::<_CMP_LT_OQ>(abs(_mm256_sub_pd(d, v_g2)), v_half),
                ),
                _mm256_or_pd(
                    _mm256_cmp_pd::<_CMP_LT_OQ>(abs(_mm256_sub_pd(d, v_gap)), v_full),
                    _mm256_cmp_pd::<_CMP_GT_OQ>(d, v_gap),
                ),
            );
            coll = _mm256_or_pd(coll, m);
        }
        if _mm256_movemask_pd(coll) as u32 == ALL {
            return ALL;
        }
        for &(j, i, k) in self.ctx_triples {
            let (fj, fi, fk) = (col(j), col(i), col(k));
            let d = abs(_mm256_sub_pd(fi, fk));
            // ((2 f_j - gap) - f_i) - f_k: the scalar association.
            let term =
                _mm256_sub_pd(_mm256_sub_pd(_mm256_sub_pd(_mm256_mul_pd(v_2, fj), v_gap), fi), fk);
            let m = _mm256_or_pd(
                _mm256_or_pd(
                    _mm256_cmp_pd::<_CMP_LT_OQ>(d, v_deg),
                    _mm256_cmp_pd::<_CMP_LT_OQ>(abs(_mm256_sub_pd(d, v_gap)), v_full),
                ),
                _mm256_cmp_pd::<_CMP_LT_OQ>(abs(term), v_two),
            );
            coll = _mm256_or_pd(coll, m);
        }
        if _mm256_movemask_pd(coll) as u32 == ALL {
            return ALL;
        }
        for &(i, k) in self.triples_j {
            let d = abs(_mm256_sub_pd(col(i), col(k)));
            let m = _mm256_or_pd(
                _mm256_cmp_pd::<_CMP_LT_OQ>(d, v_deg),
                _mm256_cmp_pd::<_CMP_LT_OQ>(abs(_mm256_sub_pd(d, v_gap)), v_full),
            );
            coll = _mm256_or_pd(coll, m);
        }
        _mm256_movemask_pd(coll) as u32
    }

    /// Four survivors per vector: [`Self::tally_scalar`] lane for lane.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn tally_avx2(
        &self,
        w: &Windows,
        tile: &Tile,
        n: usize,
        bits: &mut BitTally,
        counts: &mut [u64],
    ) -> usize {
        use std::arch::x86_64::*;
        let v = _mm256_set1_pd;
        let (zero, half, one_pd) = (v(0.0), v(0.5), v(1.0));
        let (band, k, c0, inv) = (v(0.5 - w.eps), v(w.k), v(w.c0), v(w.inv_step));
        let (deg, half_lo, half_hi) = (v(w.deg), v(w.half_lo), v(w.half_hi));
        let (full_lo, full_hi, two, two_j, g2) =
            (v(w.full_lo), v(w.full_hi), v(w.two), v(w.two_j), v(w.g2_ghz));
        let sign = v(-0.0);
        let one = _mm256_set1_epi64x(1);
        let ones = _mm256_set1_epi64x(-1);
        let valid = _mm256_set1_epi64x(w.valid as i64);
        let lane_ids = _mm256_setr_epi64x(0, 1, 2, 3);
        let (add, sub) = (|a, b| _mm256_add_pd(a, b), |a, b| _mm256_sub_pd(a, b));
        // Bits below the first index above each lane's edge, plus the
        // lanes whose edge lies within eps of an index.
        let edge = |x: __m256d| -> (__m256i, i32) {
            let floor = _mm256_floor_pd(x);
            let off = _mm256_andnot_pd(sign, sub(sub(x, floor), half));
            let near = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_NLT_UQ>(off, band));
            let n = _mm256_min_pd(_mm256_max_pd(add(floor, one_pd), zero), k);
            let shift = _mm256_cvtepi32_epi64(_mm256_cvttpd_epi32(n));
            (_mm256_sub_epi64(_mm256_sllv_epi64(one, shift), one), near)
        };
        let window = |lo: __m256d, hi: __m256d| {
            let ((a, na), (b, nb)) = (edge(lo), edge(hi));
            (_mm256_andnot_si256(a, b), na | nb)
        };
        let ld = |f: usize, s: usize| _mm256_loadu_pd(tile.data.as_ptr().add(f * TILE_CAP + s));
        let f = self.fields;
        let mut fallbacks = 0;
        for s in (0..n).step_by(4) {
            let live = if n - s >= 4 { 0xF } else { (1 << (n - s)) - 1 };
            let origin = add(ld(0, s), c0);
            let at = |x: __m256d| _mm256_mul_pd(sub(x, origin), inv);
            let mut coll = _mm256_setzero_si256();
            let mut near = 0;
            let mut or = |(b, nb): (__m256i, i32)| {
                coll = _mm256_or_si256(coll, b);
                near |= nb;
            };
            for fi in 1..f.pairs_end {
                let c = at(ld(fi, s));
                or(window(sub(c, deg), add(c, deg)));
                or(window(add(c, half_lo), add(c, half_hi)));
                or(window(sub(c, half_hi), sub(c, half_lo)));
                let (b, nb) = edge(add(c, full_lo));
                or((_mm256_andnot_si256(b, ones), nb));
                or(edge(sub(c, full_lo)));
            }
            for fi in (f.pairs_end..f.tj_end).step_by(2) {
                let c = at(add(_mm256_mul_pd(half, add(ld(fi, s), ld(fi + 1, s))), g2));
                or(window(sub(c, two_j), add(c, two_j)));
            }
            for fi in (f.tj_end..f.count).step_by(2) {
                let (t, other) = (ld(fi, s), ld(fi + 1, s));
                let center = if fi < f.ti_end { sub(t, other) } else { t };
                let (c, ct) = (at(other), at(center));
                or(window(sub(c, deg), add(c, deg)));
                or(window(add(c, full_lo), add(c, full_hi)));
                or(window(sub(c, full_hi), sub(c, full_lo)));
                or(window(sub(ct, two), add(ct, two)));
            }
            let near = near & live;
            if near != 0 {
                let mut lanes = [0u64; 4];
                _mm256_storeu_si256(lanes.as_mut_ptr().cast(), coll);
                for (lane, mask) in lanes.iter_mut().enumerate().filter(|(l, _)| near >> l & 1 == 1)
                {
                    *mask = dense_mask(tile, s + lane, f, self.candidates, self.params);
                    fallbacks += 1;
                }
                coll = _mm256_loadu_si256(lanes.as_ptr().cast());
            }
            let live = _mm256_cmpgt_epi64(_mm256_set1_epi64x((n - s) as i64), lane_ids);
            let mut carry = _mm256_and_si256(_mm256_andnot_si256(coll, valid), live);
            for plane in &mut bits.planes {
                let word = _mm256_loadu_si256(plane.as_ptr().cast());
                _mm256_storeu_si256(plane.as_mut_ptr().cast(), _mm256_xor_si256(word, carry));
                carry = _mm256_and_si256(word, carry);
            }
            bits.end_round(counts);
        }
        fallbacks
    }

    /// Eight trials per vector on AVX-512F: [`Self::filter_avx2`] with
    /// each survivor field appended by one compress-store.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn filter_avx512(
        &self,
        noise: &[f64],
        tile: &mut Tile,
        bits: &mut BitTally,
        counts: &mut [u64],
    ) {
        use std::arch::x86_64::*;
        const LANES: usize = 8;
        let m = self.m;
        let blocks = noise.len() / m / LANES;
        let s = m as i32;
        let rows = _mm256_setr_epi32(0, s, 2 * s, 3 * s, 4 * s, 5 * s, 6 * s, 7 * s);
        let v_gap = _mm512_set1_pd(-self.params.anharmonicity_ghz);
        let v_2 = _mm512_set1_pd(2.0);
        let mut cols = vec![0.0f64; m * LANES];
        for blk in 0..blocks {
            let block = noise.as_ptr().add(blk * LANES * m);
            for (c, &b) in self.base.iter().enumerate() {
                let n = _mm512_i32gather_pd::<8>(rows, block.add(c));
                _mm512_storeu_pd(
                    cols.as_mut_ptr().add(c * LANES),
                    _mm512_add_pd(_mm512_set1_pd(b), n),
                );
            }
            let keep = !(self.context_collided_avx512(&cols) as u8);
            if keep == 0 {
                continue;
            }
            let col = |i: u32| _mm512_loadu_pd(cols.as_ptr().add(i as usize * LANES));
            let (data, at) = (tile.data.as_mut_ptr(), tile.len);
            let mut f = 0;
            let mut put = |v: __m512d| {
                _mm512_mask_compressstoreu_pd(data.add(f * TILE_CAP + at), keep, v);
                f += 1;
            };
            put(col(self.qi as u32));
            for &o in self.q_pair_others {
                put(col(o));
            }
            for &(i, k) in self.triples_j {
                put(col(i));
                put(col(k));
            }
            for &(j, k) in self.triples_i {
                put(_mm512_sub_pd(_mm512_mul_pd(v_2, col(j)), v_gap));
                put(col(k));
            }
            for &(j, i) in self.triples_k {
                let fi = col(i);
                put(_mm512_sub_pd(_mm512_sub_pd(_mm512_mul_pd(v_2, col(j)), v_gap), fi));
                put(fi);
            }
            tile.len += keep.count_ones() as usize;
            self.drain(SimdTier::Avx512, tile, bits, counts);
        }
        self.filter_scalar(SimdTier::Avx512, &noise[blocks * LANES * m..], tile, bits, counts);
    }

    /// Lane mask (bit set = collided) of the eight trials in `cols`; the
    /// IEEE-exact AVX-512 counterpart of [`Self::context_collided_avx2`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn context_collided_avx512(&self, cols: &[f64]) -> u32 {
        use std::arch::x86_64::*;
        const LANES: usize = 8;
        const ALL: u32 = 0xFF;
        let p = self.params;
        let gap = -p.anharmonicity_ghz;
        let v_gap = _mm512_set1_pd(gap);
        let v_g2 = _mm512_set1_pd(gap / 2.0);
        let v_deg = _mm512_set1_pd(p.t_degenerate_ghz);
        let v_half = _mm512_set1_pd(p.t_half_ghz);
        let v_full = _mm512_set1_pd(p.t_full_ghz);
        let v_two = _mm512_set1_pd(p.t_two_photon_ghz);
        let v_2 = _mm512_set1_pd(2.0);
        let col = |i: u32| _mm512_loadu_pd(cols.as_ptr().add(i as usize * LANES));

        let mut coll: __mmask8 = 0;
        for &(a, b) in self.ctx_pairs {
            let d = _mm512_abs_pd(_mm512_sub_pd(col(a), col(b)));
            coll |= _mm512_cmp_pd_mask::<_CMP_LT_OQ>(d, v_deg)
                | _mm512_cmp_pd_mask::<_CMP_LT_OQ>(_mm512_abs_pd(_mm512_sub_pd(d, v_g2)), v_half)
                | _mm512_cmp_pd_mask::<_CMP_LT_OQ>(_mm512_abs_pd(_mm512_sub_pd(d, v_gap)), v_full)
                | _mm512_cmp_pd_mask::<_CMP_GT_OQ>(d, v_gap);
        }
        if u32::from(coll) == ALL {
            return ALL;
        }
        for &(j, i, k) in self.ctx_triples {
            let (fj, fi, fk) = (col(j), col(i), col(k));
            let d = _mm512_abs_pd(_mm512_sub_pd(fi, fk));
            // ((2 f_j - gap) - f_i) - f_k: the scalar association.
            let term =
                _mm512_sub_pd(_mm512_sub_pd(_mm512_sub_pd(_mm512_mul_pd(v_2, fj), v_gap), fi), fk);
            coll |= _mm512_cmp_pd_mask::<_CMP_LT_OQ>(d, v_deg)
                | _mm512_cmp_pd_mask::<_CMP_LT_OQ>(_mm512_abs_pd(_mm512_sub_pd(d, v_gap)), v_full)
                | _mm512_cmp_pd_mask::<_CMP_LT_OQ>(_mm512_abs_pd(term), v_two);
        }
        if u32::from(coll) == ALL {
            return ALL;
        }
        for &(i, k) in self.triples_j {
            let d = _mm512_abs_pd(_mm512_sub_pd(col(i), col(k)));
            coll |= _mm512_cmp_pd_mask::<_CMP_LT_OQ>(d, v_deg)
                | _mm512_cmp_pd_mask::<_CMP_LT_OQ>(_mm512_abs_pd(_mm512_sub_pd(d, v_gap)), v_full);
        }
        u32::from(coll)
    }

    /// Eight survivors per vector: [`Self::tally_scalar`] lane for lane.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn tally_avx512(
        &self,
        w: &Windows,
        tile: &Tile,
        n: usize,
        bits: &mut BitTally,
        counts: &mut [u64],
    ) -> usize {
        use std::arch::x86_64::*;
        let v = _mm512_set1_pd;
        let (zero, half, one_pd) = (v(0.0), v(0.5), v(1.0));
        let (band, k, c0, inv) = (v(0.5 - w.eps), v(w.k), v(w.c0), v(w.inv_step));
        let (deg, half_lo, half_hi) = (v(w.deg), v(w.half_lo), v(w.half_hi));
        let (full_lo, full_hi, two, two_j, g2) =
            (v(w.full_lo), v(w.full_hi), v(w.two), v(w.two_j), v(w.g2_ghz));
        let one = _mm512_set1_epi64(1);
        let ones = _mm512_set1_epi64(-1);
        let valid = _mm512_set1_epi64(w.valid as i64);
        let (add, sub) = (|a, b| _mm512_add_pd(a, b), |a, b| _mm512_sub_pd(a, b));
        // Bits below the first index above each lane's edge, plus the
        // lanes whose edge lies within eps of an index.
        let edge = |x: __m512d| -> (__m512i, __mmask8) {
            let floor = _mm512_roundscale_pd::<{ _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC }>(x);
            let off = _mm512_abs_pd(sub(sub(x, floor), half));
            let near = _mm512_cmp_pd_mask::<_CMP_NLT_UQ>(off, band);
            let n = _mm512_min_pd(_mm512_max_pd(add(floor, one_pd), zero), k);
            let shift = _mm512_cvtepi32_epi64(_mm512_cvttpd_epi32(n));
            (_mm512_sub_epi64(_mm512_sllv_epi64(one, shift), one), near)
        };
        let window = |lo: __m512d, hi: __m512d| {
            let ((a, na), (b, nb)) = (edge(lo), edge(hi));
            (_mm512_andnot_si512(a, b), na | nb)
        };
        let ld = |f: usize, s: usize| _mm512_loadu_pd(tile.data.as_ptr().add(f * TILE_CAP + s));
        let f = self.fields;
        let mut fallbacks = 0;
        for s in (0..n).step_by(8) {
            let live: __mmask8 = if n - s >= 8 { 0xFF } else { (1 << (n - s)) - 1 };
            let origin = add(ld(0, s), c0);
            let at = |x: __m512d| _mm512_mul_pd(sub(x, origin), inv);
            let mut coll = _mm512_setzero_si512();
            let mut near: __mmask8 = 0;
            let mut or = |(b, nb): (__m512i, __mmask8)| {
                coll = _mm512_or_si512(coll, b);
                near |= nb;
            };
            for fi in 1..f.pairs_end {
                let c = at(ld(fi, s));
                or(window(sub(c, deg), add(c, deg)));
                or(window(add(c, half_lo), add(c, half_hi)));
                or(window(sub(c, half_hi), sub(c, half_lo)));
                let (b, nb) = edge(add(c, full_lo));
                or((_mm512_andnot_si512(b, ones), nb));
                or(edge(sub(c, full_lo)));
            }
            for fi in (f.pairs_end..f.tj_end).step_by(2) {
                let c = at(add(_mm512_mul_pd(half, add(ld(fi, s), ld(fi + 1, s))), g2));
                or(window(sub(c, two_j), add(c, two_j)));
            }
            for fi in (f.tj_end..f.count).step_by(2) {
                let (t, other) = (ld(fi, s), ld(fi + 1, s));
                let center = if fi < f.ti_end { sub(t, other) } else { t };
                let (c, ct) = (at(other), at(center));
                or(window(sub(c, deg), add(c, deg)));
                or(window(add(c, full_lo), add(c, full_hi)));
                or(window(sub(c, full_hi), sub(c, full_lo)));
                or(window(sub(ct, two), add(ct, two)));
            }
            let near = near & live;
            if near != 0 {
                let mut lanes = [0u64; 8];
                _mm512_storeu_si512(lanes.as_mut_ptr().cast(), coll);
                for (lane, mask) in lanes.iter_mut().enumerate().filter(|(l, _)| near >> l & 1 == 1)
                {
                    *mask = dense_mask(tile, s + lane, f, self.candidates, self.params);
                    fallbacks += 1;
                }
                coll = _mm512_loadu_si512(lanes.as_ptr().cast());
            }
            let mut carry = _mm512_maskz_andnot_epi64(live, coll, valid);
            for plane in &mut bits.planes {
                let word = _mm512_loadu_si512(plane.as_ptr().cast());
                _mm512_storeu_si512(plane.as_mut_ptr().cast(), _mm512_xor_si512(word, carry));
                carry = _mm512_and_si512(word, carry);
            }
            bits.end_round(counts);
        }
        fallbacks
    }
}

/// One qubit's precompiled local region: membership and constraint lists
/// in region-local slots, independent of any particular partial
/// assignment.
#[derive(Debug, Clone)]
struct RegionTemplate {
    /// Qubits within coupling distance 2 of `q` (including `q`),
    /// ascending.
    members: Vec<u32>,
    /// Slot of `q` itself within `members`.
    q_slot: u32,
    /// Coupled pairs inside the region involving `q`: the slot of the
    /// *other* endpoint (the `q` endpoint is implicit).
    q_pair_others: Vec<u32>,
    /// Coupled pairs inside the region not involving `q`.
    ctx_pairs: Vec<(u32, u32)>,
    /// Common-neighbor triples `(j; i, k)` with `j == q`: slots of
    /// `(i, k)`.
    q_triples_j: Vec<(u32, u32)>,
    /// Triples with `i == q`: slots of `(j, k)`.
    q_triples_i: Vec<(u32, u32)>,
    /// Triples with `k == q`: slots of `(j, i)`.
    q_triples_k: Vec<(u32, u32)>,
    /// Triples not involving `q`.
    ctx_triples: Vec<(u32, u32, u32)>,
}

/// Per-architecture compiled local regions for every qubit.
///
/// Building this is `O(n · r²)` in region size `r` — done **once** per
/// architecture, it replaces the `O(m²)` linear `position()` scans the
/// naive evaluator pays on every single decision. Frequency allocation
/// revisits every qubit once per refinement sweep, so the same compiled
/// table serves hundreds of decisions.
#[derive(Debug, Clone)]
pub struct CompiledRegions {
    num_qubits: usize,
    regions: Vec<RegionTemplate>,
}

impl CompiledRegions {
    /// Compiles every qubit's local region of `arch`.
    pub fn new(arch: &Architecture) -> Self {
        let n = arch.num_qubits();
        // Inverse index table, stamped per region and cleared after use.
        let mut slot_of: Vec<u32> = vec![INACTIVE; n];
        let regions = (0..n).map(|q| Self::compile_region(arch, q, &mut slot_of)).collect();
        CompiledRegions { num_qubits: n, regions }
    }

    /// Number of qubits in the compiled architecture.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Region size (qubits within distance 2, including `q`) of qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn region_size(&self, q: usize) -> usize {
        self.regions[q].members.len()
    }

    /// The qubits of `q`'s local region (including `q`), ascending.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn region(&self, q: usize) -> impl Iterator<Item = usize> + '_ {
        self.regions[q].members.iter().map(|&r| r as usize)
    }

    fn compile_region(arch: &Architecture, q: usize, slot_of: &mut [u32]) -> RegionTemplate {
        let members: Vec<u32> = arch.ball(q, 2).into_iter().map(|r| r as u32).collect();
        for (slot, &r) in members.iter().enumerate() {
            slot_of[r as usize] = slot as u32;
        }
        let q_slot = slot_of[q];

        let mut q_pair_others = Vec::new();
        let mut ctx_pairs = Vec::new();
        for &(a, b) in arch.coupling_edges() {
            let (sa, sb) = (slot_of[a], slot_of[b]);
            if sa == INACTIVE || sb == INACTIVE {
                continue;
            }
            if sa == q_slot {
                q_pair_others.push(sb);
            } else if sb == q_slot {
                q_pair_others.push(sa);
            } else {
                ctx_pairs.push((sa, sb));
            }
        }

        let mut q_triples_j = Vec::new();
        let mut q_triples_i = Vec::new();
        let mut q_triples_k = Vec::new();
        let mut ctx_triples = Vec::new();
        for &j in &members {
            let sj = slot_of[j as usize];
            let nbrs: Vec<u32> = arch
                .neighbors(j as usize)
                .iter()
                .map(|&x| slot_of[x])
                .filter(|&s| s != INACTIVE)
                .collect();
            for x in 0..nbrs.len() {
                for y in x + 1..nbrs.len() {
                    let (si, sk) = (nbrs[x], nbrs[y]);
                    if sj == q_slot {
                        q_triples_j.push((si, sk));
                    } else if si == q_slot {
                        q_triples_i.push((sj, sk));
                    } else if sk == q_slot {
                        q_triples_k.push((sj, si));
                    } else {
                        ctx_triples.push((sj, si, sk));
                    }
                }
            }
        }

        for &r in &members {
            slot_of[r as usize] = INACTIVE;
        }
        RegionTemplate {
            members,
            q_slot,
            q_pair_others,
            ctx_pairs,
            q_triples_j,
            q_triples_i,
            q_triples_k,
            ctx_triples,
        }
    }
}

/// The fabrication-noise plane cache of frequency allocation.
///
/// # Noise planes
///
/// The common-random-numbers block of a decision for qubit `q` is a
/// prefix of one flat stream that depends **only** on the stream seed
/// (a pure function of the evaluator seed and `q`) and the effective
/// noise sigma — not on the architecture, the partial assignment, or
/// the trial count. The scratch keeps each stream it has generated as a
/// *plane* keyed by (stream seed, sigma): every later decision against
/// the same stream (another allocation of a batch, a later batch, a
/// re-allocation after stage caches were dropped) slices the plane
/// instead of re-deriving the samples. Planes grow in place when a
/// longer prefix is needed; growth restarts at the last
/// fixed-size-chunk boundary, so the bytes are identical to a direct
/// fill of the longer buffer.
///
/// Planes are generated only by [`AllocScratch::prepare`], which fills
/// every plane a set of decisions will read at once; the
/// decisions then read the scratch shared and read-only
/// ([`LocalYieldEvaluator::evaluate_prepared`]). A decision whose plane
/// was not prepared — or whose block is odd-length, and so not a plane
/// prefix — fills its own buffer instead, with identical values.
///
/// # Seed families and the storage bound
///
/// Planes are grouped into *seed families*: all planes of one evaluator
/// seed at one sigma, i.e. one allocation pass or one refinement sweep.
/// Retained storage is capped (64 MiB); when a `prepare` would exceed
/// it, whole families are evicted, least recently prepared first. The
/// families the current `prepare` serves are never evicted, so peak
/// plane memory is the cap plus one step's demand. Planes are derived
/// pure data, so eviction only changes when samples are drawn, never
/// any result.
#[derive(Debug)]
pub struct AllocScratch {
    /// Seed families keyed by (evaluator seed, sigma bits).
    families: HashMap<(u64, u64), PlaneFamily>,
    /// Total samples across all planes, for the storage cap.
    plane_samples: usize,
    /// Retained-sample bound ([`Self::PLANE_CAP_SAMPLES`] outside tests).
    cap: usize,
    /// `prepare` call counter: the recency stamp of family eviction.
    clock: u64,
    /// Noise samples drawn through this scratch, planes and direct
    /// fills alike (diagnostics and tests).
    drawn: AtomicU64,
}

impl Default for AllocScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// The planes of one seed family, keyed by stream seed.
#[derive(Debug, Default)]
struct PlaneFamily {
    planes: HashMap<u64, Vec<f64>>,
    samples: usize,
    /// The `prepare` call that last demanded this family.
    last_used: u64,
}

impl AllocScratch {
    /// Total plane samples retained across `prepare` calls: 8 Mi
    /// `f64`s = 64 MiB.
    const PLANE_CAP_SAMPLES: usize = 8 << 20;

    /// Fills of fewer stream chunks than this (2 MiB of samples) run on
    /// the caller's thread. A step of a few-hundred-trial allocation —
    /// a serve or explore request — draws well under it, and drawing it
    /// inline leaves the other cores to concurrent requests: fanned
    /// out, it cost the daemon's warm requests about 25% at p90 on a
    /// 2-core host.
    const POOL_MIN_FILL_CHUNKS: usize = 64;

    /// An empty scratch; planes are built on first use.
    pub fn new() -> Self {
        Self::with_cap(Self::PLANE_CAP_SAMPLES)
    }

    fn with_cap(cap: usize) -> Self {
        AllocScratch {
            families: HashMap::new(),
            plane_samples: 0,
            cap,
            clock: 0,
            drawn: AtomicU64::new(0),
        }
    }

    /// Number of cached noise planes (diagnostics and tests).
    pub fn cached_planes(&self) -> usize {
        self.families.values().map(|f| f.planes.len()).sum()
    }

    /// Total cached noise samples across planes (diagnostics and tests).
    pub fn cached_samples(&self) -> usize {
        self.plane_samples
    }

    /// Noise samples drawn through this scratch so far, into planes and
    /// into per-decision buffers alike (diagnostics and tests).
    pub fn samples_drawn(&self) -> u64 {
        self.drawn.load(Ordering::Relaxed)
    }

    /// Makes every plane the given decisions read available: each
    /// `(evaluator, q, m)` names a decision for qubit `q` over `m`
    /// active region columns, i.e. a prefix of `trials x m` samples of
    /// the evaluator's stream for `q`. Demands on one plane merge to the
    /// longest, and every missing sample of every plane is drawn in one
    /// fan-out over the pool (inline when small). Odd-length demands are
    /// skipped (those decisions fill directly).
    pub fn prepare<'e>(
        &mut self,
        demands: impl IntoIterator<Item = (&'e LocalYieldEvaluator, usize, usize)>,
    ) {
        self.clock += 1;
        let clock = self.clock;
        let mut wanted: HashMap<((u64, u64), u64), usize> = HashMap::new();
        for (evaluator, q, m) in demands {
            let needed = evaluator.trials * m;
            if let Some(key) = evaluator.plane_key(q, needed) {
                let slot = wanted.entry(key).or_default();
                *slot = (*slot).max(needed);
            }
        }

        // Pin the demanded families, then evict the least recently used
        // others until the growth fits under the cap.
        let mut growth = 0;
        for (&(family, stream), &needed) in &wanted {
            let fam = self.families.entry(family).or_default();
            fam.last_used = clock;
            growth += needed.saturating_sub(fam.planes.get(&stream).map_or(0, Vec::len));
        }
        while self.plane_samples + growth > self.cap {
            let Some((&victim, _)) = self
                .families
                .iter()
                .filter(|(_, f)| f.last_used < clock)
                .min_by_key(|(&key, f)| (f.last_used, key))
            else {
                break;
            };
            let evicted = self.families.remove(&victim).expect("victim present");
            self.plane_samples -= evicted.samples;
        }

        // Grow every short plane, then draw all missing chunks at once.
        // Growth restarts at the last chunk boundary: chunk contents
        // depend only on (stream seed, chunk index) and even prefixes of
        // a chunk are bit-identical to shorter fills, so a grown plane
        // equals a direct fill of its new length.
        // The regrown tail is written straight into the plane's spare
        // capacity, so growth never zero-fills samples it then draws.
        let chunk = LocalYieldEvaluator::NOISE_STREAM_SAMPLES;
        let mut grown: HashMap<((u64, u64), u64), usize> = HashMap::new();
        for (&(family, stream), &needed) in &wanted {
            let fam = self.families.get_mut(&family).expect("family pinned above");
            let plane = fam.planes.entry(stream).or_default();
            if needed > plane.len() {
                fam.samples += needed - plane.len();
                self.plane_samples += needed - plane.len();
                plane.truncate((plane.len() / chunk) * chunk);
                plane.reserve_exact(needed - plane.len());
                grown.insert((family, stream), needed);
            }
        }
        type Fill<'p> = (&'p mut [MaybeUninit<f64>], u64, u64, FabricationModel);
        let mut fills: Vec<Fill<'_>> = Vec::new();
        for (&family, fam) in &mut self.families {
            let model = FabricationModel::new(f64::from_bits(family.1));
            for (&stream, plane) in &mut fam.planes {
                let Some(&needed) = grown.get(&(family, stream)) else { continue };
                let len = plane.len();
                let tail = &mut plane.spare_capacity_mut()[..needed - len];
                let first = len / chunk;
                for (i, part) in tail.chunks_mut(chunk).enumerate() {
                    fills.push((part, stream, (first + i) as u64, model));
                }
            }
        }
        let drawn: usize = fills.iter().map(|f| f.0.len()).sum();
        self.drawn.fetch_add(drawn as u64, Ordering::Relaxed);
        let fill = |(part, stream, absolute, model): &mut Fill<'_>| {
            LocalYieldEvaluator::fill_stream_chunk(*stream, *absolute, model, part);
        };
        if fills.len() < Self::POOL_MIN_FILL_CHUNKS {
            fills.iter_mut().for_each(fill);
        } else {
            qpd_par::par_chunks_mut(&mut fills, 1, |_, f| fill(&mut f[0]));
        }
        drop(fills);
        for (&family, fam) in &mut self.families {
            for (&stream, plane) in &mut fam.planes {
                if let Some(&needed) = grown.get(&(family, stream)) {
                    // SAFETY: the fills above wrote every sample of
                    // `len..needed`, inside the reserved capacity.
                    unsafe { plane.set_len(needed) };
                }
            }
        }
    }

    /// The first `needed` samples of `evaluator`'s stream for `q`, when
    /// a prepared plane holds them.
    fn plane(&self, evaluator: &LocalYieldEvaluator, q: usize, needed: usize) -> Option<&[f64]> {
        let (family, stream) = evaluator.plane_key(q, needed)?;
        self.families.get(&family)?.planes.get(&stream)?.get(..needed)
    }
}

/// Per-decision work buffers: one per worker, reused across the
/// decisions it runs so the decision kernel allocates nothing in steady
/// state. Contents never carry over between decisions.
#[derive(Debug, Default)]
pub struct DecisionBuffers {
    /// Direct-fill noise for decisions without a prepared plane.
    noise: Vec<f64>,
    /// Packed-column map of the decision's region slots.
    active: Vec<u32>,
    /// Designed frequencies of the active columns.
    base: Vec<f64>,
    q_pair_others: Vec<u32>,
    ctx_pairs: Vec<(u32, u32)>,
    triples_j: Vec<(u32, u32)>,
    triples_i: Vec<(u32, u32)>,
    triples_k: Vec<(u32, u32)>,
    ctx_triples: Vec<(u32, u32, u32)>,
}

/// Evaluates candidate frequencies for one qubit against the already
/// assigned part of its local region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalYieldEvaluator {
    trials: usize,
    model: FabricationModel,
    params: CollisionParams,
    seed: u64,
}

impl LocalYieldEvaluator {
    /// Creates an evaluator.
    ///
    /// # Panics
    ///
    /// Panics if `trials` is zero.
    pub fn new(trials: usize, model: FabricationModel, params: CollisionParams, seed: u64) -> Self {
        assert!(trials > 0, "need at least one trial");
        LocalYieldEvaluator { trials, model, params, seed }
    }

    /// Trial count per candidate.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// For each candidate frequency (GHz) for qubit `q`, the number of
    /// collision-free trials within `q`'s local region, given the partial
    /// assignment `assigned` (GHz; `None` = not yet assigned, ignored).
    ///
    /// Candidates share noise samples, so the counts are directly
    /// comparable; ties should be broken by the caller's own policy.
    ///
    /// Compiles `q`'s region on the fly; callers evaluating many
    /// decisions against one architecture (the frequency allocator)
    /// should build a [`CompiledRegions`] once and use
    /// [`Self::evaluate_candidates_compiled_with`].
    ///
    /// # Panics
    ///
    /// Panics if `assigned.len() != arch.num_qubits()`, if `q` is out of
    /// range, or if `assigned[q]` is already `Some` (the decision was
    /// already made).
    pub fn evaluate_candidates(
        &self,
        arch: &Architecture,
        assigned: &[Option<f64>],
        q: usize,
        candidates: &[f64],
    ) -> Vec<u64> {
        let regions = CompiledRegions::new(arch);
        self.evaluate_candidates_compiled_with(
            &regions,
            assigned,
            q,
            candidates,
            &mut AllocScratch::new(),
        )
    }

    /// [`Self::evaluate_candidates`] against a prebuilt
    /// [`CompiledRegions`] table and a caller-held [`AllocScratch`] —
    /// the allocator's hot path: the decision's noise plane is prepared
    /// in (or sliced from) the scratch's cache instead of re-derived.
    /// The counts are bit-identical to a fresh scratch's for any
    /// sequence of calls, scratch sharing, and thread count.
    ///
    /// # Panics
    ///
    /// As [`Self::evaluate_candidates`]; `regions` must have been
    /// compiled from the same architecture `assigned` refers to.
    pub fn evaluate_candidates_compiled_with(
        &self,
        regions: &CompiledRegions,
        assigned: &[Option<f64>],
        q: usize,
        candidates: &[f64],
        scratch: &mut AllocScratch,
    ) -> Vec<u64> {
        assert!(q < regions.num_qubits, "qubit out of range");
        let m = 1 + regions.region(q).filter(|&r| r != q && assigned[r].is_some()).count();
        scratch.prepare([(self, q, m)]);
        let mut buffers = DecisionBuffers::default();
        self.evaluate_prepared(regions, assigned, q, candidates, scratch, &mut buffers)
    }

    /// Samples per independent noise stream: a noise buffer is cut
    /// into fixed-size chunks, each with its own counter-derived seed,
    /// so the fill parallelizes while staying bit-identical for every
    /// thread count (chunk boundaries never depend on the worker count).
    const NOISE_STREAM_SAMPLES: usize = 4_096;

    /// The base seed of qubit `q`'s noise stream — a pure function of
    /// the evaluator seed and `q`, which is what makes the
    /// [`AllocScratch`] plane cache valid across architectures.
    fn stream_seed(&self, q: usize) -> u64 {
        self.seed ^ (0xd134_2543_de82_ef95u64.wrapping_mul(q as u64 + 1))
    }

    /// The plane key — (seed family, stream seed), the family being
    /// (evaluator seed, sigma bits) — of a `needed`-sample decision for
    /// `q`; `None` for odd blocks, whose tail sample is drawn by the
    /// single-draw path and so is not a plane prefix.
    fn plane_key(&self, q: usize, needed: usize) -> Option<((u64, u64), u64)> {
        needed
            .is_multiple_of(2)
            .then(|| ((self.seed, self.model.sigma_ghz().to_bits()), self.stream_seed(q)))
    }

    /// Draws the common-random-numbers noise block for qubit `q`'s
    /// decision: `trials x m` samples from the per-qubit stream.
    fn fill_noise(&self, q: usize, noise: &mut [f64]) {
        let base_seed = self.stream_seed(q);
        let model = self.model;
        qpd_par::par_chunks_mut(as_uninit(noise), Self::NOISE_STREAM_SAMPLES, |i, chunk| {
            Self::fill_stream_chunk(base_seed, i as u64, &model, chunk);
        });
    }

    /// Fills `chunk` with chunk number `absolute` of the stream of
    /// `base_seed`. Chunk contents depend only on the base seed and
    /// the absolute chunk index, so chunks splice bit-identically into
    /// a buffer of any length.
    fn fill_stream_chunk(
        base_seed: u64,
        absolute: u64,
        model: &FabricationModel,
        chunk: &mut [MaybeUninit<f64>],
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(
            base_seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(absolute + 1)),
        );
        model.sample_into_uninit(&mut rng, chunk);
    }

    /// The allocator's batch hot path: [`Self::evaluate_candidates_compiled_with`]
    /// reading its noise from planes an earlier [`AllocScratch::prepare`]
    /// drew, with caller-owned (per-worker) decision buffers. `planes` is
    /// only read, so one scratch serves every worker of a batch at once;
    /// an unprepared plane falls back to a direct fill with identical
    /// values.
    ///
    /// A decision of at least the yield simulator's pool threshold
    /// (1,350 trials) fans its rows out over the pool, each chunk
    /// filtering and tallying its own rows into partial counts; smaller
    /// decisions run inline. A caller that fans decisions out itself pins
    /// its workers to one thread ([`qpd_par::with_threads`]) and each
    /// decision then runs inline too.
    ///
    /// # Panics
    ///
    /// As [`Self::evaluate_candidates_compiled_with`].
    pub fn evaluate_prepared(
        &self,
        regions: &CompiledRegions,
        assigned: &[Option<f64>],
        q: usize,
        candidates: &[f64],
        planes: &AllocScratch,
        buffers: &mut DecisionBuffers,
    ) -> Vec<u64> {
        assert!(q < regions.num_qubits, "qubit out of range");
        assert_eq!(assigned.len(), regions.num_qubits, "assignment length mismatch");
        assert!(assigned[q].is_none(), "qubit {q} already assigned");
        let tpl = &regions.regions[q];
        let DecisionBuffers {
            noise: noise_buf,
            active,
            base,
            q_pair_others,
            ctx_pairs,
            triples_j,
            triples_i,
            triples_k,
            ctx_triples,
        } = buffers;

        // Activate the assigned members (plus q) in ascending-qubit
        // order; `active` maps full-region slots to packed noise columns.
        active.clear();
        active.resize(tpl.members.len(), INACTIVE);
        base.clear();
        for (slot, &r) in tpl.members.iter().enumerate() {
            let r = r as usize;
            if r == q {
                active[slot] = base.len() as u32;
                base.push(0.0);
            } else if let Some(f) = assigned[r] {
                active[slot] = base.len() as u32;
                base.push(f);
            }
        }
        let m = base.len();
        let qi = active[tpl.q_slot as usize] as usize;

        // Remap the precompiled constraints onto the active columns,
        // dropping any constraint touching an unassigned member.
        let remap2 = |list: &[(u32, u32)], out: &mut Vec<(u32, u32)>| {
            out.clear();
            out.extend(list.iter().filter_map(|&(a, b)| {
                let (a, b) = (active[a as usize], active[b as usize]);
                (a != INACTIVE && b != INACTIVE).then_some((a, b))
            }));
        };
        q_pair_others.clear();
        q_pair_others.extend(tpl.q_pair_others.iter().filter_map(|&o| {
            let o = active[o as usize];
            (o != INACTIVE).then_some(o)
        }));
        remap2(&tpl.ctx_pairs, ctx_pairs);
        remap2(&tpl.q_triples_j, triples_j);
        remap2(&tpl.q_triples_i, triples_i);
        remap2(&tpl.q_triples_k, triples_k);
        ctx_triples.clear();
        ctx_triples.extend(tpl.ctx_triples.iter().filter_map(|&(j, i, k)| {
            let (j, i, k) = (active[j as usize], active[i as usize], active[k as usize]);
            (j != INACTIVE && i != INACTIVE && k != INACTIVE).then_some((j, i, k))
        }));

        // Common random numbers: one noise block shared by every
        // candidate, drawn from fixed counter-derived streams so the
        // values never depend on the thread count — a prefix of the
        // prepared per-(seed, q) plane, or a direct fill of the same
        // values when there is none (an odd block, whose tail sample is
        // drawn by the non-prefix-stable single-draw path, or a plane
        // nobody prepared).
        let needed = self.trials * m;
        let noise: &[f64] = match planes.plane(self, q, needed) {
            Some(plane) => plane,
            None => {
                noise_buf.clear();
                noise_buf.resize(needed, 0.0);
                self.fill_noise(q, noise_buf);
                planes.drawn.fetch_add(needed as u64, Ordering::Relaxed);
                noise_buf
            }
        };

        let p = self.params;

        // Pass 1 filters each trial against the candidate-independent
        // context: the pure-context pairs and triples, and conditions 5/6
        // of the j==q triples, which do not read q's frequency at all (a
        // trial tripping them fails for *every* candidate). Survivors'
        // operands go field-major into a per-worker tile; pass 2 scores
        // each tile of survivors against every candidate, by windows on
        // a regular grid ([`Windows`]) or densely. One fused kernel runs
        // both passes per row chunk; per-candidate tallies are exact
        // integer sums over the chunks, so the counts are identical for
        // any thread count and SIMD tier.
        let ctx = DecisionCtx {
            params: &p,
            base,
            m,
            qi,
            fields: Fields::new(
                q_pair_others.len(),
                triples_j.len(),
                triples_i.len(),
                triples_k.len(),
            ),
            q_pair_others,
            ctx_pairs,
            triples_j,
            triples_i,
            triples_k,
            ctx_triples,
            candidates,
            windows: Windows::new(candidates, &p, self.model.sigma_ghz(), base),
        };
        // Small decisions (serve and explore requests) run inline, like
        // small yield estimates: fanned out, they would only contend
        // with the concurrent requests for the same cores.
        let tier = simd_tier();
        let threads = qpd_par::threads();
        if threads == 1 || (self.trials as u64) < POOL_MIN_TRIALS {
            return ctx.filter_tally(tier, noise);
        }
        let chunk_rows = self.trials.div_ceil(4 * threads).max(64);
        let partials =
            qpd_par::par_chunks(noise, chunk_rows * m, |_, rows| ctx.filter_tally(tier, rows));
        let mut out = vec![0u64; candidates.len()];
        for partial in partials {
            for (slot, v) in out.iter_mut().zip(partial) {
                *slot += v;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpd_topology::{ibm, Architecture, BusMode};

    fn path3() -> Architecture {
        let mut b = Architecture::builder("path3");
        b.qubit(0, 0).qubit(0, 1).qubit(0, 2);
        b.build().unwrap()
    }

    fn evaluator(trials: usize) -> LocalYieldEvaluator {
        LocalYieldEvaluator::new(
            trials,
            FabricationModel::new(0.030),
            CollisionParams::default(),
            42,
        )
    }

    /// The naive oracle for a decision: each trial adds its row of the
    /// same `fill_noise` block to the designed frequencies (the
    /// candidate for `q`), then checks every pair and triple of the
    /// region — assigned qubits within distance 2, plus `q`.
    fn naive_counts(
        e: &LocalYieldEvaluator,
        arch: &Architecture,
        assigned: &[Option<f64>],
        q: usize,
        candidates: &[f64],
    ) -> Vec<u64> {
        let region: Vec<usize> =
            arch.ball(q, 2).into_iter().filter(|&r| r == q || assigned[r].is_some()).collect();
        let col = |x: usize| region.iter().position(|&r| r == x);
        let pairs: Vec<(usize, usize)> =
            arch.coupling_edges().iter().filter_map(|&(a, b)| Some((col(a)?, col(b)?))).collect();
        let mut triples = Vec::new();
        for &j in &region {
            let nbrs: Vec<usize> = arch.neighbors(j).iter().filter_map(|&x| col(x)).collect();
            for x in 0..nbrs.len() {
                for y in x + 1..nbrs.len() {
                    triples.push((col(j).unwrap(), nbrs[x], nbrs[y]));
                }
            }
        }
        let m = region.len();
        let mut noise = vec![0.0; e.trials * m];
        e.fill_noise(q, &mut noise);
        let p = &e.params;
        candidates
            .iter()
            .map(|&c| {
                let clean = noise.chunks_exact(m).filter(|row| {
                    let f: Vec<f64> = region
                        .iter()
                        .zip(*row)
                        .map(|(&r, n)| if r == q { c + n } else { assigned[r].unwrap() + n })
                        .collect();
                    pairs.iter().all(|&(a, b)| !p.pair_collides(f[a], f[b]))
                        && triples.iter().all(|&(j, i, k)| !p.triple_collides(f[j], f[i], f[k]))
                });
                clean.count() as u64
            })
            .collect()
    }

    #[test]
    fn far_candidate_beats_degenerate_candidate() {
        let arch = path3();
        // Qubit 0 assigned at 5.00; choosing qubit 1.
        let assigned = vec![Some(5.00), None, None];
        let counts = evaluator(2_000).evaluate_candidates(&arch, &assigned, 1, &[5.00, 5.10]);
        // A candidate equal to its neighbor collides (condition 1) whenever
        // the sampled detuning |N(0, sigma*sqrt(2))| < 17 MHz (~31% of
        // trials at sigma = 30 MHz); 100 MHz detuning is nearly clean.
        assert!((counts[1] as f64) > (counts[0] as f64) * 1.25, "counts {counts:?}");
    }

    #[test]
    fn empty_region_yields_all_trials() {
        let arch = path3();
        // Nothing assigned: qubit 1 has no constraints yet.
        let assigned = vec![None, None, None];
        let counts = evaluator(500).evaluate_candidates(&arch, &assigned, 1, &[5.17]);
        assert_eq!(counts, vec![500]);
    }

    #[test]
    fn common_random_numbers_are_deterministic() {
        let arch = path3();
        let assigned = vec![Some(5.00), None, Some(5.23)];
        let e = evaluator(1_000);
        let a = e.evaluate_candidates(&arch, &assigned, 1, &[5.08, 5.12, 5.16]);
        let b = e.evaluate_candidates(&arch, &assigned, 1, &[5.08, 5.12, 5.16]);
        assert_eq!(a, b);
    }

    #[test]
    fn distance_two_constraints_are_seen() {
        // Qubits 0 and 2 are distance 2 apart (common neighbor 1): putting
        // the candidate for qubit 2 degenerate with qubit 0 must hurt via
        // condition 5 even though they are not connected.
        let arch = path3();
        let assigned = vec![Some(5.10), Some(5.22), None];
        let counts = evaluator(2_000).evaluate_candidates(&arch, &assigned, 2, &[5.10, 5.34]);
        assert!(counts[1] > counts[0], "counts {counts:?}");
    }

    #[test]
    #[should_panic(expected = "already assigned")]
    fn rejects_reassignment() {
        let arch = path3();
        let assigned = vec![Some(5.0), Some(5.1), None];
        evaluator(10).evaluate_candidates(&arch, &assigned, 1, &[5.2]);
    }

    #[test]
    fn qubits_outside_region_do_not_matter() {
        // A long path: the frequency of a far-away qubit must not affect
        // the evaluation for qubit 0.
        let mut b = Architecture::builder("path5");
        for c in 0..5 {
            b.qubit(0, c);
        }
        let arch = b.build().unwrap();
        let mut near = vec![None; 5];
        near[1] = Some(5.30);
        let mut with_far = near.clone();
        with_far[4] = Some(5.02); // distance 4 from qubit 0
        let e = evaluator(1_000);
        let a = e.evaluate_candidates(&arch, &near, 0, &[5.10, 5.13]);
        let b = e.evaluate_candidates(&arch, &with_far, 0, &[5.10, 5.13]);
        assert_eq!(a, b);
    }

    #[test]
    fn compiled_regions_report_ball_sizes() {
        let regions = CompiledRegions::new(&path3());
        assert_eq!(regions.num_qubits(), 3);
        // Middle qubit reaches both ends; ends reach everything too (the
        // path has diameter 2).
        for q in 0..3 {
            assert_eq!(regions.region_size(q), 3, "qubit {q}");
        }
    }

    /// The load-bearing property of the overhaul: the compiled SoA path
    /// and the naive oracle agree *exactly*, count for count — for even
    /// blocks, sliced from a plane, and odd ones (333 trials x 3 or 1
    /// columns), which `plane_key` sends to a direct fill.
    #[test]
    fn compiled_path_matches_reference_exactly() {
        let candidates: Vec<f64> = (0..35).map(|i| 5.00 + 0.01 * i as f64).collect();
        let cases: Vec<(Architecture, Vec<Option<f64>>, usize)> = vec![
            (path3(), vec![Some(5.00), None, Some(5.23)], 1),
            (path3(), vec![Some(5.10), Some(5.22), None], 2),
            (path3(), vec![None, None, None], 0),
        ];
        for (arch, assigned, q) in cases {
            for trials in [1_500, 333] {
                let e = evaluator(trials);
                let fast = e.evaluate_candidates(&arch, &assigned, q, &candidates);
                let reference = naive_counts(&e, &arch, &assigned, q, &candidates);
                assert_eq!(fast, reference, "arch {} q {q} trials {trials}", arch.name());
            }
        }
    }

    #[test]
    fn compiled_path_matches_reference_on_dense_chip() {
        // The 4-qubit-bus IBM layout exercises every constraint class,
        // including shared-neighbor triples in all three orientations.
        let arch = ibm::ibm_16q_2x8(BusMode::MaxFourQubit);
        let compiled = CompiledRegions::new(&arch);
        let candidates = [5.00, 5.07, 5.13, 5.17, 5.20, 5.27, 5.34];
        let mut assigned: Vec<Option<f64>> = vec![None; arch.num_qubits()];
        // Assign a ragged prefix so regions mix assigned and unassigned.
        for (i, slot) in assigned.iter_mut().enumerate().take(11) {
            *slot = Some(5.00 + 0.03 * (i % 12) as f64);
        }
        let e = evaluator(800);
        for q in 11..arch.num_qubits() {
            let fast = e.evaluate_candidates_compiled_with(
                &compiled,
                &assigned,
                q,
                &candidates,
                &mut AllocScratch::new(),
            );
            let reference = naive_counts(&e, &arch, &assigned, q, &candidates);
            assert_eq!(fast, reference, "qubit {q}");
        }
    }

    #[test]
    fn thread_count_does_not_change_counts() {
        let arch = ibm::ibm_16q_2x8(BusMode::TwoQubitOnly);
        let mut assigned: Vec<Option<f64>> = vec![None; arch.num_qubits()];
        for (i, slot) in assigned.iter_mut().enumerate().take(9) {
            *slot = Some(5.05 + 0.04 * (i % 8) as f64);
        }
        let e = evaluator(2_000);
        let candidates: Vec<f64> = (0..35).map(|i| 5.00 + 0.01 * i as f64).collect();
        let serial =
            qpd_par::with_threads(1, || e.evaluate_candidates(&arch, &assigned, 12, &candidates));
        for threads in [2, 8] {
            let pooled = qpd_par::with_threads(threads, || {
                e.evaluate_candidates(&arch, &assigned, 12, &candidates)
            });
            assert_eq!(serial, pooled, "threads {threads}");
        }
    }

    /// Every SIMD tier the host supports, plus the scalar tier.
    fn tiers() -> Vec<SimdTier> {
        let mut tiers = vec![SimdTier::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                tiers.push(SimdTier::Avx2);
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                tiers.push(SimdTier::Avx512);
            }
        }
        tiers
    }

    /// The 10 MHz allocator grid over a band, built as the allocator
    /// builds it.
    fn band_grid((lo, hi): (f64, f64)) -> Vec<f64> {
        let steps = ((hi - lo) / 0.01).round() as usize;
        (0..=steps).map(|i| lo + 0.01 * i as f64).collect()
    }

    /// A decision context that only tallies: the tile layout, the
    /// candidates and their windows.
    fn tally_ctx<'a>(
        p: &'a CollisionParams,
        candidates: &'a [f64],
        fields: Fields,
    ) -> DecisionCtx<'a> {
        DecisionCtx {
            params: p,
            base: &[],
            m: 0,
            qi: 0,
            fields,
            q_pair_others: &[],
            ctx_pairs: &[],
            triples_j: &[],
            triples_i: &[],
            triples_k: &[],
            ctx_triples: &[],
            candidates,
            windows: Windows::new(candidates, p, 0.030, &[]),
        }
    }

    /// Tallies tile after tile into one counter set on `tier` (so the bit
    /// planes flush mid-run), returning the counts and the fallbacks.
    fn run_tally(ctx: &DecisionCtx, tier: SimdTier, tiles: &[Tile]) -> (Vec<u64>, usize) {
        let mut counts = vec![0; ctx.candidates.len()];
        let mut bits = BitTally::default();
        let fallbacks =
            tiles.iter().map(|t| ctx.tally(tier, t, t.len, &mut bits, &mut counts)).sum();
        bits.flush(&mut counts);
        (counts, fallbacks)
    }

    fn dense_counts(ctx: &DecisionCtx, tiles: &[Tile]) -> Vec<u64> {
        let mut counts = vec![0; ctx.candidates.len()];
        for t in tiles {
            pass2_block_scalar(t, t.len, ctx.fields, ctx.candidates, ctx.params, &mut counts);
        }
        counts
    }

    /// A tile of `n` survivors whose field `f` of survivor `s` is
    /// `value(f, s)`.
    fn tile_of(fields: Fields, n: usize, mut value: impl FnMut(usize, usize) -> f64) -> Tile {
        let mut tile = Tile::default();
        tile.reset(fields.count);
        for s in 0..n {
            for f in 0..fields.count {
                tile.data[f * TILE_CAP + s] = value(f, s);
            }
        }
        tile.len = n;
        tile
    }

    /// Synthetic survivor tiles with every constraint class, operands
    /// spread over clean and colliding distances of a grid's band.
    fn synthetic_tiles(fields: Fields, band: (f64, f64), p: &CollisionParams) -> Vec<Tile> {
        let gap = -p.anharmonicity_ghz;
        let mut x = 0.37f64;
        let mut next = move || {
            x = (x * 997.0 + 0.1234).fract();
            x
        };
        let (lo, hi) = band;
        // 40 tiles of 67 survivors: a ragged last vector on every tier.
        (0..40)
            .map(|_| {
                tile_of(fields, 67, |f, _| {
                    let r = next();
                    let freq = lo - 0.2 + (hi - lo + 0.4) * r;
                    if f == 0 {
                        0.12 * r - 0.06
                    } else if f >= fields.tj_end && (f - fields.tj_end).is_multiple_of(2) {
                        // A prefolded two-photon term: 2 f_j - gap, less
                        // f_i for k==q triples.
                        let t = 2.0 * freq - gap;
                        if f >= fields.ti_end {
                            t - (lo + (hi - lo) * next())
                        } else {
                            t
                        }
                    } else {
                        freq
                    }
                })
            })
            .collect()
    }

    /// The window tally at every tier, run directly, counts exactly what
    /// the dense kernel counts, on each hardware family's grid (35, 61
    /// and 31 candidates) with that family's collision parameters.
    #[test]
    fn window_tally_matches_dense_kernel_at_every_tier() {
        use crate::HardwareFamily;
        let fields = Fields::new(3, 2, 2, 2);
        for (family, size) in HardwareFamily::ALL.into_iter().zip([35, 61, 31]) {
            let p = family.collision_params();
            let candidates = band_grid(family.allowed_band_ghz());
            assert_eq!(candidates.len(), size, "{family:?} grid");
            let ctx = tally_ctx(&p, &candidates, fields);
            assert!(ctx.windows.is_some(), "{family:?} grid must take the window path");
            let tiles = synthetic_tiles(fields, family.allowed_band_ghz(), &p);
            let dense = dense_counts(&ctx, &tiles);
            let total = 40 * 67;
            assert!(dense.iter().any(|&c| c > 0) && dense.iter().any(|&c| c < total));
            for tier in tiers() {
                assert_eq!(run_tally(&ctx, tier, &tiles).0, dense, "{family:?} {tier:?}");
            }
        }
    }

    /// Survivors placed so that a window edge lands exactly on a
    /// candidate, or one ulp either side of it, must be re-scored by the
    /// dense predicate — and the tally still matches it exactly.
    #[test]
    fn window_edges_on_candidates_fall_back_to_dense() {
        let p = CollisionParams::default();
        let candidates = band_grid(qpd_topology::ALLOWED_BAND_GHZ);
        let gap = -p.anharmonicity_ghz;
        let g2 = gap / 2.0;
        let fields = Fields::new(1, 1, 1, 1);
        let ctx = tally_ctx(&p, &candidates, fields);
        // Window edges relative to a pair operand f_o (fq = f_o + off)
        // and to the two-photon centers.
        let pair_offsets = [
            p.t_degenerate_ghz,
            -p.t_degenerate_ghz,
            g2 - p.t_half_ghz,
            g2 + p.t_half_ghz,
            -g2 + p.t_half_ghz,
            gap - p.t_full_ghz,
            -(gap - p.t_full_ghz),
        ];
        // Fields: [noise_q, f_o, (f_i, f_k) j==q, (t1, f_k) i==q,
        // (t2, f_i) k==q], the k==q endpoint being f_o again.
        let mut survivors: Vec<[f64; 8]> = Vec::new();
        for (i, &c) in candidates.iter().enumerate().step_by(3) {
            let nq = if i % 2 == 0 { 0.0 } else { 0.0123 };
            let fq = nq + c;
            for off in pair_offsets {
                let fo = fq - off;
                for fo in [fo, fo.next_up(), fo.next_down()] {
                    // j==q: (gap + f_i + f_k)/2 - t_two/2 == fq.
                    let fi = 2.0 * fq - gap - 5.17 + p.t_two_photon_ghz;
                    // i==q: center t1 - f_k == fq + t_two.
                    let t1 = fq + p.t_two_photon_ghz + 5.33;
                    // k==q: center t2 == fq - t_two.
                    let t2 = fq - p.t_two_photon_ghz;
                    survivors.push([nq, fo, fi, 5.17, t1, 5.33, t2, fo]);
                }
            }
        }
        let tiles: Vec<Tile> = survivors
            .chunks(TILE_CAP)
            .map(|chunk| tile_of(fields, chunk.len(), |f, s| chunk[s][f]))
            .collect();
        assert_eq!(fields.count, 8);
        let dense = dense_counts(&ctx, &tiles);
        for tier in tiers() {
            let (counts, fallbacks) = run_tally(&ctx, tier, &tiles);
            assert_eq!(counts, dense, "{tier:?}");
            assert!(fallbacks > survivors.len() / 2, "{tier:?}: only {fallbacks} fallbacks");
        }
    }

    /// Candidate lists that are not a regular ascending grid of at most
    /// 63 values take the dense path, and decisions on them still match
    /// the naive oracle.
    #[test]
    fn irregular_and_oversized_lists_take_the_dense_path() {
        let p = CollisionParams::default();
        let irregular = vec![5.00, 5.01, 5.03, 5.04];
        let oversized: Vec<f64> = (0..64).map(|i| 4.90 + 0.01 * i as f64).collect();
        let descending: Vec<f64> =
            band_grid(qpd_topology::ALLOWED_BAND_GHZ).into_iter().rev().collect();
        let largest: Vec<f64> = (0..63).map(|i| 4.90 + 0.01 * i as f64).collect();
        for list in [&irregular, &oversized, &descending] {
            assert!(Windows::new(list, &p, 0.030, &[]).is_none(), "{} candidates", list.len());
        }
        assert!(Windows::new(&largest, &p, 0.030, &[]).is_some());
        let arch = ibm::ibm_16q_2x8(BusMode::MaxFourQubit);
        let assigned: Vec<Option<f64>> = (0..arch.num_qubits())
            .map(|q| (q != 5).then_some(5.0 + 0.03 * (q % 12) as f64))
            .collect();
        let e = evaluator(900);
        for list in [&irregular, &oversized, &descending, &largest] {
            let fast = e.evaluate_candidates(&arch, &assigned, 5, list);
            let reference = naive_counts(&e, &arch, &assigned, 5, list);
            assert_eq!(fast, reference, "{} candidates", list.len());
        }
    }

    /// The fused filter + tally gives the same counts on every tier, by
    /// windows and densely, as the scalar dense kernel (the semantic
    /// definition), ragged row tail included.
    #[test]
    fn fused_kernel_matches_scalar_dense_at_every_tier() {
        let p = CollisionParams::default();
        let base = [0.0, 5.10, 5.20, 5.05, 5.15, 5.25];
        let candidates = band_grid(qpd_topology::ALLOWED_BAND_GHZ);
        let ctx = |windows: bool| DecisionCtx {
            params: &p,
            base: &base,
            m: 6,
            qi: 0,
            fields: Fields::new(2, 2, 1, 1),
            q_pair_others: &[1, 2],
            ctx_pairs: &[(1, 2), (3, 4)],
            triples_j: &[(1, 2), (3, 5)],
            triples_i: &[(1, 4)],
            triples_k: &[(2, 3)],
            ctx_triples: &[(1, 3, 4), (2, 4, 5)],
            candidates: &candidates,
            windows: windows.then(|| Windows::new(&candidates, &p, 0.2, &base)).flatten(),
        };
        // 1,003 rows of pseudo-noise wide enough to trip and clear every
        // condition.
        let mut x = 0.618f64;
        let noise: Vec<f64> = (0..1_003 * 6)
            .map(|_| {
                x = (x * 997.0 + 0.1234).fract();
                0.40 * x - 0.20
            })
            .collect();
        let oracle = ctx(false).filter_tally(SimdTier::Scalar, &noise);
        let survivors = oracle.iter().max().copied().unwrap_or(0);
        assert!(survivors > 0 && oracle.iter().any(|&c| c < survivors), "counts {oracle:?}");
        assert!(ctx(true).windows.is_some());
        for tier in tiers() {
            for windows in [false, true] {
                assert_eq!(
                    ctx(windows).filter_tally(tier, &noise),
                    oracle,
                    "{tier:?} windows {windows}"
                );
            }
        }
    }

    /// Decisions on every family's own grid (the window-scored path;
    /// `band_grid` is `FrequencyAllocator::grid`) and parameters match
    /// the naive oracle on both sides of the 1,350-trial inline
    /// threshold, at every worker count: fresh-scratch decisions on the
    /// 16-qubit 4-qubit-bus chip, and decisions on the 20-qubit chip
    /// through one `AllocScratch` reused across every call.
    #[test]
    fn family_grid_decisions_match_reference_across_threads() {
        use crate::HardwareFamily;
        let dense = ibm::ibm_16q_2x8(BusMode::MaxFourQubit);
        let wide = ibm::ibm_20q_4x5(BusMode::TwoQubitOnly);
        let pool = POOL_MIN_TRIALS as usize;
        // (arch, stride, hole, step, trial budgets, seed, reused
        // scratch): the qubits `q % stride == hole` are undecided and
        // each is decided in turn; the rest sit at grid index
        // `(q * step) % len`.
        let cases = [
            (&dense, 4, 1, 7, [pool - 2, pool + 50], 3, false),
            (&wide, 5, 2, 11, [1_300, 1_400], 29, true),
        ];
        let mut scratch = AllocScratch::new();
        for (arch, stride, hole, step, budgets, seed, reuse) in cases {
            let compiled = CompiledRegions::new(arch);
            for family in HardwareFamily::ALL {
                let candidates = band_grid(family.allowed_band_ghz());
                let (lo, _) = family.allowed_band_ghz();
                let assigned: Vec<Option<f64>> = (0..arch.num_qubits())
                    .map(|q| {
                        (q % stride != hole)
                            .then(|| lo + 0.01 * ((q * step) % candidates.len()) as f64)
                    })
                    .collect();
                for trials in budgets {
                    let e = LocalYieldEvaluator::new(
                        trials,
                        FabricationModel::new(
                            family.effective_sigma_ghz(FabricationModel::PAPER_SIGMA_GHZ),
                        ),
                        family.collision_params(),
                        seed,
                    );
                    for q in (0..arch.num_qubits()).filter(|q| q % stride == hole) {
                        let reference = naive_counts(&e, arch, &assigned, q, &candidates);
                        for threads in [1, 2, 8] {
                            let fast = qpd_par::with_threads(threads, || {
                                let mut fresh = AllocScratch::new();
                                let planes = if reuse { &mut scratch } else { &mut fresh };
                                e.evaluate_candidates_compiled_with(
                                    &compiled,
                                    &assigned,
                                    q,
                                    &candidates,
                                    planes,
                                )
                            });
                            assert_eq!(
                                fast,
                                reference,
                                "{} {family:?} trials {trials} q {q} @{threads}",
                                arch.name()
                            );
                        }
                    }
                }
            }
        }
    }

    /// Scratch sharing — across qubits, partial assignments, and even
    /// different evaluators — must never change a single count: planes
    /// are pure stream prefixes and buffers are fully reinitialized.
    #[test]
    fn shared_scratch_is_bit_identical_to_fresh() {
        let arch = ibm::ibm_16q_2x8(BusMode::MaxFourQubit);
        let compiled = CompiledRegions::new(&arch);
        let candidates: Vec<f64> = (0..35).map(|i| 5.00 + 0.01 * i as f64).collect();
        let mut assigned: Vec<Option<f64>> = vec![None; arch.num_qubits()];
        for (i, slot) in assigned.iter_mut().enumerate().take(10) {
            *slot = Some(5.00 + 0.03 * (i % 12) as f64);
        }
        let mut scratch = AllocScratch::new();
        for trials in [600, 1_000] {
            for seed in [42, 7] {
                let e = LocalYieldEvaluator::new(
                    trials,
                    FabricationModel::new(0.030),
                    CollisionParams::default(),
                    seed,
                );
                for q in 10..arch.num_qubits() {
                    let shared = e.evaluate_candidates_compiled_with(
                        &compiled,
                        &assigned,
                        q,
                        &candidates,
                        &mut scratch,
                    );
                    let fresh = e.evaluate_candidates_compiled_with(
                        &compiled,
                        &assigned,
                        q,
                        &candidates,
                        &mut AllocScratch::new(),
                    );
                    assert_eq!(shared, fresh, "trials {trials} seed {seed} qubit {q}");
                }
            }
        }
        assert!(scratch.cached_planes() > 0, "planes should be retained");
    }

    /// Growing a plane (same stream, longer prefix) must splice in
    /// bit-identically: a short-trials decision followed by a
    /// long-trials decision equals the long decision alone.
    #[test]
    fn plane_growth_matches_direct_fill() {
        let arch = ibm::ibm_16q_2x8(BusMode::TwoQubitOnly);
        let compiled = CompiledRegions::new(&arch);
        let candidates = [5.00, 5.08, 5.17, 5.26, 5.34];
        let mut assigned: Vec<Option<f64>> = vec![None; arch.num_qubits()];
        for (i, slot) in assigned.iter_mut().enumerate().take(8) {
            *slot = Some(5.02 + 0.04 * (i % 8) as f64);
        }
        let model = FabricationModel::new(0.030);
        let params = CollisionParams::default();
        let mut scratch = AllocScratch::new();
        // 700 trials x m crosses a 4096-sample chunk boundary for every
        // region size here; 2_000 then grows the same plane.
        for trials in [700, 2_000, 900] {
            let e = LocalYieldEvaluator::new(trials, model, params, 42);
            for q in [9, 12] {
                let grown = e.evaluate_candidates_compiled_with(
                    &compiled,
                    &assigned,
                    q,
                    &candidates,
                    &mut scratch,
                );
                let direct = e.evaluate_candidates_compiled_with(
                    &compiled,
                    &assigned,
                    q,
                    &candidates,
                    &mut AllocScratch::new(),
                );
                assert_eq!(grown, direct, "trials {trials} qubit {q}");
            }
        }
    }

    /// Odd-length noise blocks bypass the plane cache (their tail is
    /// drawn by the non-prefix-stable single-draw path) yet still match
    /// the scratch-free entry point.
    #[test]
    fn odd_trial_blocks_fall_back_and_match() {
        let arch = path3();
        let assigned = vec![Some(5.00), None, Some(5.23)];
        let compiled = CompiledRegions::new(&arch);
        let e = evaluator(333); // odd trials x odd m = odd block
        let mut scratch = AllocScratch::new();
        let with = e.evaluate_candidates_compiled_with(
            &compiled,
            &assigned,
            1,
            &[5.08, 5.12],
            &mut scratch,
        );
        let without = e.evaluate_candidates_compiled_with(
            &compiled,
            &assigned,
            1,
            &[5.08, 5.12],
            &mut AllocScratch::new(),
        );
        assert_eq!(with, without);
        assert_eq!(scratch.cached_planes(), 0, "odd blocks must not populate planes");
    }

    /// A different sigma draws different values from the same uniform
    /// stream, so sigma keys planes apart: mixed-sigma use (a mixed
    /// hardware-family batch) keeps both sets of planes instead of
    /// wiping the cache at every switch, and evaluations still match
    /// fresh ones.
    #[test]
    fn sigma_change_resets_planes() {
        let arch = path3();
        let assigned = vec![Some(5.00), None, Some(5.23)];
        let compiled = CompiledRegions::new(&arch);
        let mut scratch = AllocScratch::new();
        let mut drawn = Vec::new();
        for sigma in [0.030, 0.050, 0.030, 0.050] {
            let e = LocalYieldEvaluator::new(
                1_000,
                FabricationModel::new(sigma),
                CollisionParams::default(),
                42,
            );
            let shared = e.evaluate_candidates_compiled_with(
                &compiled,
                &assigned,
                1,
                &[5.08, 5.12],
                &mut scratch,
            );
            let fresh = e.evaluate_candidates_compiled_with(
                &compiled,
                &assigned,
                1,
                &[5.08, 5.12],
                &mut AllocScratch::new(),
            );
            assert_eq!(shared, fresh, "sigma {sigma}");
            drawn.push(scratch.samples_drawn());
        }
        assert_eq!(scratch.cached_planes(), 2, "one plane per sigma");
        assert_eq!(drawn[1], drawn[3], "switching sigma back re-drew a cached plane");
    }

    /// Over the storage cap, whole seed families are evicted least
    /// recently prepared first, never a family the current `prepare`
    /// serves; evicted planes regenerate bit-identically.
    #[test]
    fn cap_evicts_whole_seed_families() {
        let arch = ibm::ibm_16q_2x8(BusMode::TwoQubitOnly);
        let compiled = CompiledRegions::new(&arch);
        let assigned: Vec<Option<f64>> =
            (0..arch.num_qubits()).map(|q| (q != 3).then_some(5.0 + 0.02 * q as f64)).collect();
        let m = compiled.region_size(3);
        let evaluator = |seed| {
            LocalYieldEvaluator::new(
                500,
                FabricationModel::new(0.030),
                CollisionParams::default(),
                seed,
            )
        };
        let (a, b, c) = (evaluator(1), evaluator(2), evaluator(3));
        // Room for two families' planes for qubits 3 and 4, not three.
        let mut scratch = AllocScratch::with_cap(4 * 500 * m + 100);
        let demand = |e| [(e, 3, m), (e, 4, m)];
        scratch.prepare(demand(&a));
        scratch.prepare(demand(&b));
        assert_eq!(scratch.cached_planes(), 4);
        scratch.prepare(demand(&a)); // refreshes a: b is now the oldest
        let before = scratch.samples_drawn();
        scratch.prepare(demand(&c)); // evicts b only
        assert_eq!(scratch.cached_planes(), 4);
        assert_eq!(scratch.samples_drawn() - before, 2 * 500 * m as u64);
        scratch.prepare(demand(&a));
        assert_eq!(scratch.samples_drawn() - before, 2 * 500 * m as u64, "a was evicted");
        let candidates = [5.08, 5.12, 5.30];
        let counts =
            b.evaluate_candidates_compiled_with(&compiled, &assigned, 3, &candidates, &mut scratch);
        assert_eq!(
            counts,
            b.evaluate_candidates_compiled_with(
                &compiled,
                &assigned,
                3,
                &candidates,
                &mut AllocScratch::new()
            )
        );
        // One demand larger than the whole cap is still served in full.
        let mut tiny = AllocScratch::with_cap(10);
        tiny.prepare(demand(&a));
        assert_eq!(tiny.cached_samples(), 2 * 500 * m);
    }
}
