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
//! - trials that survive the candidate-independent *context* constraints
//!   are stored in flat structure-of-arrays records holding exactly the
//!   operands the per-candidate constraints read (no per-trial vectors);
//! - the noise blocks are prefixes of per-(seed, qubit) planes that
//!   [`AllocScratch::prepare`] draws once for a whole allocation step,
//!   which every decision of the step then reads shared;
//! - candidate evaluation fans out over the [`qpd_par`] worker pool; the
//!   common-random-numbers scheme makes the counts — and therefore the
//!   ranking — bit-identical for any thread count, including one.
//!
//! The naive formulation is retained as
//! [`LocalYieldEvaluator::evaluate_candidates_reference`]; the test suite
//! proves count-equality between the two on every architecture it tries.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use qpd_topology::Architecture;

use crate::collision::CollisionParams;
use crate::model::FabricationModel;

/// Sentinel for "member not active in this decision".
const INACTIVE: u32 = u32::MAX;

/// Record-layout offsets of one surviving trial in the pass-2 SoA block:
/// `[noise_q, pair operands, j==q triples, i==q triples, k==q triples]`.
#[derive(Debug, Clone, Copy)]
struct RecordLayout {
    /// Total `f64`s per record.
    stride: usize,
    /// End of the pair operands (`1..pairs_end`).
    pairs_end: usize,
    /// End of the `(f_i, f_k)` operands of the j==q triples.
    tj_end: usize,
    /// End of the `(2 f_j - gap, f_k)` operands of the i==q triples.
    ti_end: usize,
}

/// Counts, for every candidate, the records in `rows` whose q-involving
/// constraints stay collision-free — the scalar pass-2 kernel and the
/// semantic definition the SIMD kernel must match bit-for-bit.
fn pass2_block_scalar(
    rows: &[f64],
    layout: RecordLayout,
    candidates: &[f64],
    p: &CollisionParams,
    counts: &mut [u64],
) {
    let RecordLayout { stride, pairs_end, tj_end, ti_end } = layout;
    let gap = -p.anharmonicity_ghz;
    let g2 = gap / 2.0;
    for row in rows.chunks_exact(stride) {
        let noise_q = row[0];
        for (slot, &candidate) in counts.iter_mut().zip(candidates) {
            let fq = noise_q + candidate;
            let mut collided = false;
            for &fo in &row[1..pairs_end] {
                let d = (fq - fo).abs();
                if d < p.t_degenerate_ghz
                    || (d - g2).abs() < p.t_half_ghz
                    || (d - gap).abs() < p.t_full_ghz
                    || d > gap
                {
                    collided = true;
                    break;
                }
            }
            if !collided && tj_end > pairs_end {
                let two_fq = 2.0 * fq - gap;
                for ik in row[pairs_end..tj_end].chunks_exact(2) {
                    if ((two_fq - ik[0]) - ik[1]).abs() < p.t_two_photon_ghz {
                        collided = true;
                        break;
                    }
                }
            }
            if !collided {
                for t in row[tj_end..ti_end].chunks_exact(2) {
                    let (t1, fk) = (t[0], t[1]);
                    let d = (fq - fk).abs();
                    if d < p.t_degenerate_ghz
                        || (d - gap).abs() < p.t_full_ghz
                        || ((t1 - fq) - fk).abs() < p.t_two_photon_ghz
                    {
                        collided = true;
                        break;
                    }
                }
            }
            if !collided {
                for t in row[ti_end..].chunks_exact(2) {
                    let (t2, fi) = (t[0], t[1]);
                    let d = (fi - fq).abs();
                    if d < p.t_degenerate_ghz
                        || (d - gap).abs() < p.t_full_ghz
                        || (t2 - fq).abs() < p.t_two_photon_ghz
                    {
                        collided = true;
                        break;
                    }
                }
            }
            *slot += !collided as u64;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod pass2_avx2 {
    //! Four candidates per vector. Every operation is an IEEE-exact
    //! counterpart of the scalar kernel (add/sub/mul/abs/compare — no
    //! FMA, no reassociation), so the counts are bit-identical to
    //! [`super::pass2_block_scalar`]; the test suite asserts it.

    use std::arch::x86_64::*;

    use super::RecordLayout;
    use crate::collision::CollisionParams;

    /// Lanes per vector.
    pub const LANES: usize = 4;

    /// As [`super::pass2_block_scalar`], on candidate/count slices padded
    /// to a multiple of [`LANES`] (pad candidates with NaN: every compare
    /// is ordered, so NaN lanes never collide and their counts are
    /// discarded by the caller).
    ///
    /// # Safety
    ///
    /// Requires AVX2; `candidates.len() == counts.len()` and a multiple
    /// of [`LANES`].
    #[target_feature(enable = "avx2")]
    pub unsafe fn pass2_block(
        rows: &[f64],
        layout: RecordLayout,
        candidates: &[f64],
        p: &CollisionParams,
        counts: &mut [i64],
    ) {
        debug_assert_eq!(candidates.len(), counts.len());
        debug_assert_eq!(candidates.len() % LANES, 0);
        let RecordLayout { stride, pairs_end, tj_end, ti_end } = layout;
        let gap = -p.anharmonicity_ghz;
        let sign = _mm256_set1_pd(-0.0);
        let v_gap = _mm256_set1_pd(gap);
        let v_g2 = _mm256_set1_pd(gap / 2.0);
        let v_deg = _mm256_set1_pd(p.t_degenerate_ghz);
        let v_half = _mm256_set1_pd(p.t_half_ghz);
        let v_full = _mm256_set1_pd(p.t_full_ghz);
        let v_two = _mm256_set1_pd(p.t_two_photon_ghz);
        let v_2 = _mm256_set1_pd(2.0);
        let ones = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
        let abs = |x: __m256d| _mm256_andnot_pd(sign, x);

        for row in rows.chunks_exact(stride) {
            let noise_q = _mm256_set1_pd(row[0]);
            for (cand4, count4) in
                candidates.chunks_exact(LANES).zip(counts.chunks_exact_mut(LANES))
            {
                let c = _mm256_loadu_pd(cand4.as_ptr());
                let fq = _mm256_add_pd(noise_q, c);
                let mut coll = _mm256_setzero_pd();
                for &fo in &row[1..pairs_end] {
                    let d = abs(_mm256_sub_pd(fq, _mm256_set1_pd(fo)));
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
                if _mm256_movemask_pd(coll) != 0xF {
                    let two_fq = _mm256_sub_pd(_mm256_mul_pd(v_2, fq), v_gap);
                    for ik in row[pairs_end..tj_end].chunks_exact(2) {
                        let term = _mm256_sub_pd(
                            _mm256_sub_pd(two_fq, _mm256_set1_pd(ik[0])),
                            _mm256_set1_pd(ik[1]),
                        );
                        coll = _mm256_or_pd(coll, _mm256_cmp_pd::<_CMP_LT_OQ>(abs(term), v_two));
                    }
                    for t in row[tj_end..ti_end].chunks_exact(2) {
                        let (t1, fk) = (_mm256_set1_pd(t[0]), _mm256_set1_pd(t[1]));
                        let d = abs(_mm256_sub_pd(fq, fk));
                        let term = _mm256_sub_pd(_mm256_sub_pd(t1, fq), fk);
                        let m = _mm256_or_pd(
                            _mm256_or_pd(
                                _mm256_cmp_pd::<_CMP_LT_OQ>(d, v_deg),
                                _mm256_cmp_pd::<_CMP_LT_OQ>(abs(_mm256_sub_pd(d, v_gap)), v_full),
                            ),
                            _mm256_cmp_pd::<_CMP_LT_OQ>(abs(term), v_two),
                        );
                        coll = _mm256_or_pd(coll, m);
                    }
                    for t in row[ti_end..].chunks_exact(2) {
                        let (t2, fi) = (_mm256_set1_pd(t[0]), _mm256_set1_pd(t[1]));
                        let d = abs(_mm256_sub_pd(fi, fq));
                        let term = _mm256_sub_pd(t2, fq);
                        let m = _mm256_or_pd(
                            _mm256_or_pd(
                                _mm256_cmp_pd::<_CMP_LT_OQ>(d, v_deg),
                                _mm256_cmp_pd::<_CMP_LT_OQ>(abs(_mm256_sub_pd(d, v_gap)), v_full),
                            ),
                            _mm256_cmp_pd::<_CMP_LT_OQ>(abs(term), v_two),
                        );
                        coll = _mm256_or_pd(coll, m);
                    }
                }
                // Clean lanes are all-ones after andnot; subtracting the
                // -1 pattern increments their counts.
                let clean = _mm256_andnot_pd(coll, ones);
                let tallies = _mm256_loadu_si256(count4.as_ptr().cast::<__m256i>());
                let updated = _mm256_sub_epi64(tallies, _mm256_castpd_si256(clean));
                _mm256_storeu_si256(count4.as_mut_ptr().cast::<__m256i>(), updated);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod pass2_avx512 {
    //! Eight candidates per vector on AVX-512F; same exactness contract
    //! as [`super::pass2_avx2`].

    use std::arch::x86_64::*;

    use super::RecordLayout;
    use crate::collision::CollisionParams;

    /// Lanes per vector.
    pub const LANES: usize = 8;

    /// As [`super::pass2_block_scalar`], on slices padded to a multiple
    /// of [`LANES`] (candidates padded with NaN).
    ///
    /// # Safety
    ///
    /// Requires AVX-512F; `candidates.len() == counts.len()` and a
    /// multiple of [`LANES`].
    #[target_feature(enable = "avx512f")]
    pub unsafe fn pass2_block(
        rows: &[f64],
        layout: RecordLayout,
        candidates: &[f64],
        p: &CollisionParams,
        counts: &mut [i64],
    ) {
        debug_assert_eq!(candidates.len(), counts.len());
        debug_assert_eq!(candidates.len() % LANES, 0);
        let RecordLayout { stride, pairs_end, tj_end, ti_end } = layout;
        let gap = -p.anharmonicity_ghz;
        let v_gap = _mm512_set1_pd(gap);
        let v_g2 = _mm512_set1_pd(gap / 2.0);
        let v_deg = _mm512_set1_pd(p.t_degenerate_ghz);
        let v_half = _mm512_set1_pd(p.t_half_ghz);
        let v_full = _mm512_set1_pd(p.t_full_ghz);
        let v_two = _mm512_set1_pd(p.t_two_photon_ghz);
        let v_2 = _mm512_set1_pd(2.0);
        let one = _mm512_set1_epi64(1);

        for row in rows.chunks_exact(stride) {
            let noise_q = _mm512_set1_pd(row[0]);
            for (cand8, count8) in
                candidates.chunks_exact(LANES).zip(counts.chunks_exact_mut(LANES))
            {
                let c = _mm512_loadu_pd(cand8.as_ptr());
                let fq = _mm512_add_pd(noise_q, c);
                let mut coll: __mmask8 = 0;
                for &fo in &row[1..pairs_end] {
                    let d = _mm512_abs_pd(_mm512_sub_pd(fq, _mm512_set1_pd(fo)));
                    coll |= _mm512_cmp_pd_mask::<_CMP_LT_OQ>(d, v_deg)
                        | _mm512_cmp_pd_mask::<_CMP_LT_OQ>(
                            _mm512_abs_pd(_mm512_sub_pd(d, v_g2)),
                            v_half,
                        )
                        | _mm512_cmp_pd_mask::<_CMP_LT_OQ>(
                            _mm512_abs_pd(_mm512_sub_pd(d, v_gap)),
                            v_full,
                        )
                        | _mm512_cmp_pd_mask::<_CMP_GT_OQ>(d, v_gap);
                }
                if coll != 0xFF {
                    let two_fq = _mm512_sub_pd(_mm512_mul_pd(v_2, fq), v_gap);
                    for ik in row[pairs_end..tj_end].chunks_exact(2) {
                        let term = _mm512_sub_pd(
                            _mm512_sub_pd(two_fq, _mm512_set1_pd(ik[0])),
                            _mm512_set1_pd(ik[1]),
                        );
                        coll |= _mm512_cmp_pd_mask::<_CMP_LT_OQ>(_mm512_abs_pd(term), v_two);
                    }
                    for t in row[tj_end..ti_end].chunks_exact(2) {
                        let (t1, fk) = (_mm512_set1_pd(t[0]), _mm512_set1_pd(t[1]));
                        let d = _mm512_abs_pd(_mm512_sub_pd(fq, fk));
                        let term = _mm512_sub_pd(_mm512_sub_pd(t1, fq), fk);
                        coll |= _mm512_cmp_pd_mask::<_CMP_LT_OQ>(d, v_deg)
                            | _mm512_cmp_pd_mask::<_CMP_LT_OQ>(
                                _mm512_abs_pd(_mm512_sub_pd(d, v_gap)),
                                v_full,
                            )
                            | _mm512_cmp_pd_mask::<_CMP_LT_OQ>(_mm512_abs_pd(term), v_two);
                    }
                    for t in row[ti_end..].chunks_exact(2) {
                        let (t2, fi) = (_mm512_set1_pd(t[0]), _mm512_set1_pd(t[1]));
                        let d = _mm512_abs_pd(_mm512_sub_pd(fi, fq));
                        let term = _mm512_sub_pd(t2, fq);
                        coll |= _mm512_cmp_pd_mask::<_CMP_LT_OQ>(d, v_deg)
                            | _mm512_cmp_pd_mask::<_CMP_LT_OQ>(
                                _mm512_abs_pd(_mm512_sub_pd(d, v_gap)),
                                v_full,
                            )
                            | _mm512_cmp_pd_mask::<_CMP_LT_OQ>(_mm512_abs_pd(term), v_two);
                    }
                }
                let tallies = _mm512_loadu_si512(count8.as_ptr().cast::<__m512i>());
                let updated = _mm512_mask_add_epi64(tallies, !coll, tallies, one);
                _mm512_storeu_si512(count8.as_mut_ptr().cast::<__m512i>(), updated);
            }
        }
    }
}

/// SIMD tier for the vectorized kernels, detected once per process.
/// Shared by the pass-1 context filter, the pass-2 candidate kernels,
/// and the batch evaluator ([`crate::batch`]) — one detection serves
/// every dispatch site instead of per-call `is_x86_feature_detected!`.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum SimdTier {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl SimdTier {
    /// Candidate lanes per vector at this tier (1 = scalar).
    pub(crate) fn lanes(self) -> usize {
        match self {
            SimdTier::Scalar => 1,
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => pass2_avx2::LANES,
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx512 => pass2_avx512::LANES,
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

/// Dispatches one pass-2 rows-block to the best kernel. All kernels are
/// bit-identical (compares and arithmetic are IEEE-exact in each), so
/// host SIMD support never changes results.
fn pass2_block(
    rows: &[f64],
    layout: RecordLayout,
    candidates: &[f64],
    p: &CollisionParams,
) -> Vec<u64> {
    let tier = simd_tier();
    #[cfg(target_arch = "x86_64")]
    if tier != SimdTier::Scalar {
        let lanes = if tier == SimdTier::Avx512 { pass2_avx512::LANES } else { pass2_avx2::LANES };
        let padded = candidates.len().div_ceil(lanes) * lanes;
        let mut cands = Vec::with_capacity(padded);
        cands.extend_from_slice(candidates);
        cands.resize(padded, f64::NAN);
        let mut tallies = vec![0i64; padded];
        // SAFETY: the required feature was detected; slices are padded
        // to the kernel's lane count.
        unsafe {
            if tier == SimdTier::Avx512 {
                pass2_avx512::pass2_block(rows, layout, &cands, p, &mut tallies);
            } else {
                pass2_avx2::pass2_block(rows, layout, &cands, p, &mut tallies);
            }
        }
        return tallies.into_iter().take(candidates.len()).map(|t| t as u64).collect();
    }
    let _ = tier;
    let mut counts = vec![0u64; candidates.len()];
    pass2_block_scalar(rows, layout, candidates, p, &mut counts);
    counts
}

/// The candidate-independent context of one decision: the remapped
/// constraint lists pass 1 filters trials against, shared by the scalar
/// and SIMD filter kernels (and by the record emitter, which reads
/// frequencies through an accessor so both layouts reuse it).
struct Pass1Ctx<'a> {
    params: &'a CollisionParams,
    /// Designed frequencies of the active columns (`0.0` at `qi`).
    base: &'a [f64],
    /// Active column count.
    m: usize,
    /// Column of the qubit being decided.
    qi: usize,
    /// `f64`s per emitted record.
    stride: usize,
    q_pair_others: &'a [u32],
    ctx_pairs: &'a [(u32, u32)],
    triples_j: &'a [(u32, u32)],
    triples_i: &'a [(u32, u32)],
    triples_k: &'a [(u32, u32)],
    ctx_triples: &'a [(u32, u32, u32)],
}

impl Pass1Ctx<'_> {
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

    /// Appends one surviving trial's flat record (see the layout comment
    /// in [`LocalYieldEvaluator::evaluate_region`]).
    fn emit_record(&self, get: impl Fn(usize) -> f64 + Copy, block: &mut Vec<f64>) {
        let gap = -self.params.anharmonicity_ghz;
        block.push(get(self.qi));
        for &o in self.q_pair_others {
            block.push(get(o as usize));
        }
        for &(i, k) in self.triples_j {
            block.push(get(i as usize));
            block.push(get(k as usize));
        }
        for &(j, k) in self.triples_i {
            block.push(2.0 * get(j as usize) - gap);
            block.push(get(k as usize));
        }
        for &(j, i) in self.triples_k {
            let fi = get(i as usize);
            block.push((2.0 * get(j as usize) - gap) - fi);
            block.push(fi);
        }
    }

    /// Filters a row-major block of noise rows into surviving records,
    /// on the best kernel the host supports. All kernels use the same
    /// IEEE-exact operations, so the surviving set — and the record
    /// bytes — never depend on host SIMD support (or on the dispatch
    /// heuristic below, which only picks who computes them).
    fn filter_rows(&self, noise: &[f64], block: &mut Vec<f64>) {
        #[cfg(target_arch = "x86_64")]
        {
            // The vector kernels pay a per-row-block transpose; with
            // only a couple of context constraints the scalar kernel's
            // early exit wins, so dispatch on the constraint count. The
            // tier itself comes from the process-wide cached detection
            // shared with pass 2 ([`simd_tier`]).
            let constraints = self.ctx_pairs.len() + self.ctx_triples.len() + self.triples_j.len();
            if constraints >= 3 {
                // SAFETY: each tier was runtime-detected in `simd_tier`.
                match simd_tier() {
                    SimdTier::Avx512 => {
                        unsafe { self.filter_rows_avx512(noise, block) };
                        return;
                    }
                    SimdTier::Avx2 => {
                        unsafe { self.filter_rows_avx2(noise, block) };
                        return;
                    }
                    SimdTier::Scalar => {}
                }
            }
        }
        self.filter_rows_scalar(noise, block);
    }

    fn filter_rows_scalar(&self, noise: &[f64], block: &mut Vec<f64>) {
        let mut freqs = vec![0.0f64; self.m];
        for noise_row in noise.chunks_exact(self.m) {
            for ((f, &b), &n) in freqs.iter_mut().zip(self.base).zip(noise_row) {
                *f = b + n;
            }
            if !self.context_collides(|i| freqs[i]) {
                self.emit_record(|i| freqs[i], block);
            }
        }
    }

    /// Four trials per vector: rows are transposed into column-major
    /// lanes, every context constraint is checked across the four trials
    /// at once, and survivors are emitted in row order. The ragged tail
    /// falls back to the scalar kernel.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn filter_rows_avx2(&self, noise: &[f64], block: &mut Vec<f64>) {
        const LANES: usize = 4;
        let m = self.m;
        let rows = noise.len() / m;
        let full_blocks = rows / LANES;
        let mut tf = vec![0.0f64; m * LANES];
        for blk in 0..full_blocks {
            let quad = &noise[blk * LANES * m..(blk + 1) * LANES * m];
            // Transpose: tf[c * LANES + lane] = base[c] + noise[lane][c]
            // — the same addition the scalar kernel performs.
            for (lane, row) in quad.chunks_exact(m).enumerate() {
                for ((c, &b), &n) in self.base.iter().enumerate().zip(row) {
                    tf[c * LANES + lane] = b + n;
                }
            }
            let collided = self.context_collided_avx2(&tf);
            for lane in 0..LANES {
                if collided & (1 << lane) == 0 {
                    self.emit_record(|i| tf[i * LANES + lane], block);
                }
            }
        }
        self.filter_rows_scalar(&noise[full_blocks * LANES * m..], block);
    }

    /// Lane mask (bit set = collided) of the four transposed trials in
    /// `tf`. Every operation is an IEEE-exact counterpart of
    /// [`Self::context_collides`] — add/sub/mul/abs/ordered-compare, no
    /// FMA, no reassociation — so the mask is bit-identical to four
    /// scalar evaluations.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn context_collided_avx2(&self, tf: &[f64]) -> u32 {
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
        let col = |i: u32| _mm256_loadu_pd(tf.as_ptr().add(i as usize * LANES));

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

    /// Eight trials per vector on AVX-512F; otherwise exactly
    /// [`Self::filter_rows_avx2`] — transpose, lane-parallel context
    /// checks, survivors emitted in row order, scalar ragged tail.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn filter_rows_avx512(&self, noise: &[f64], block: &mut Vec<f64>) {
        const LANES: usize = 8;
        let m = self.m;
        let rows = noise.len() / m;
        let full_blocks = rows / LANES;
        let mut tf = vec![0.0f64; m * LANES];
        for blk in 0..full_blocks {
            let oct = &noise[blk * LANES * m..(blk + 1) * LANES * m];
            // Transpose: tf[c * LANES + lane] = base[c] + noise[lane][c]
            // — the same addition the scalar kernel performs.
            for (lane, row) in oct.chunks_exact(m).enumerate() {
                for ((c, &b), &n) in self.base.iter().enumerate().zip(row) {
                    tf[c * LANES + lane] = b + n;
                }
            }
            let collided = self.context_collided_avx512(&tf);
            for lane in 0..LANES {
                if collided & (1 << lane) == 0 {
                    self.emit_record(|i| tf[i * LANES + lane], block);
                }
            }
        }
        self.filter_rows_scalar(&noise[full_blocks * LANES * m..], block);
    }

    /// Lane mask (bit set = collided) of the eight transposed trials in
    /// `tf`; the IEEE-exact AVX-512 counterpart of
    /// [`Self::context_collided_avx2`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn context_collided_avx512(&self, tf: &[f64]) -> u32 {
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
        let col = |i: u32| _mm512_loadu_pd(tf.as_ptr().add(i as usize * LANES));

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
/// was not prepared — or whose block is odd-length or uses the legacy
/// noise scheme, neither of which is a plane prefix — fills its own
/// buffer instead, with identical values.
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
    /// fan-out over the pool (inline when small). Legacy-noise and
    /// odd-length demands are skipped (those decisions fill directly).
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
        let chunk = LocalYieldEvaluator::NOISE_STREAM_SAMPLES;
        let mut starts: HashMap<((u64, u64), u64), usize> = HashMap::new();
        for (&(family, stream), &needed) in &wanted {
            let fam = self.families.get_mut(&family).expect("family pinned above");
            let plane = fam.planes.entry(stream).or_default();
            if needed > plane.len() {
                starts.insert((family, stream), (plane.len() / chunk) * chunk);
                fam.samples += needed - plane.len();
                self.plane_samples += needed - plane.len();
                plane.resize(needed, 0.0);
            }
        }
        let mut fills: Vec<(&mut [f64], u64, u64, FabricationModel)> = Vec::new();
        for (&family, fam) in &mut self.families {
            let model = FabricationModel::new(f64::from_bits(family.1));
            for (&stream, plane) in &mut fam.planes {
                let Some(&start) = starts.get(&(family, stream)) else { continue };
                for (i, part) in plane[start..].chunks_mut(chunk).enumerate() {
                    fills.push((part, stream, (start / chunk + i) as u64, model));
                }
            }
        }
        let drawn: usize = fills.iter().map(|f| f.0.len()).sum();
        self.drawn.fetch_add(drawn as u64, Ordering::Relaxed);
        let fill =
            |(part, stream, absolute, model): &mut (&mut [f64], u64, u64, FabricationModel)| {
                LocalYieldEvaluator::fill_stream_chunk(*stream, *absolute, model, part);
            };
        if fills.len() < Self::POOL_MIN_FILL_CHUNKS {
            fills.iter_mut().for_each(fill);
        } else {
            qpd_par::par_chunks_mut(&mut fills, 1, |_, f| fill(&mut f[0]));
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
    /// Concatenated surviving pass-1 records.
    live: Vec<f64>,
}

/// Evaluates candidate frequencies for one qubit against the already
/// assigned part of its local region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalYieldEvaluator {
    trials: usize,
    model: FabricationModel,
    params: CollisionParams,
    seed: u64,
    legacy_noise: bool,
}

impl LocalYieldEvaluator {
    /// Creates an evaluator.
    ///
    /// # Panics
    ///
    /// Panics if `trials` is zero.
    pub fn new(trials: usize, model: FabricationModel, params: CollisionParams, seed: u64) -> Self {
        assert!(trials > 0, "need at least one trial");
        LocalYieldEvaluator { trials, model, params, seed, legacy_noise: false }
    }

    /// Switches the common-random-numbers stream to the pre-pairing
    /// single-draw Box–Muller scheme
    /// ([`FabricationModel::sample_into_unpaired`]). Only `bench_snapshot`
    /// and stream-regression tests should want this: it reproduces the
    /// historical noise stream exactly, at roughly twice the sampling
    /// cost.
    pub fn with_legacy_noise(mut self) -> Self {
        self.legacy_noise = true;
        self
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
    /// [`Self::evaluate_candidates_compiled`].
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
        self.evaluate_candidates_compiled(&CompiledRegions::new(arch), assigned, q, candidates)
    }

    /// [`Self::evaluate_candidates`] against a prebuilt
    /// [`CompiledRegions`] table — the allocator's hot path.
    ///
    /// # Panics
    ///
    /// As [`Self::evaluate_candidates`]; `regions` must have been
    /// compiled from the same architecture `assigned` refers to.
    pub fn evaluate_candidates_compiled(
        &self,
        regions: &CompiledRegions,
        assigned: &[Option<f64>],
        q: usize,
        candidates: &[f64],
    ) -> Vec<u64> {
        let mut scratch = AllocScratch::new();
        self.evaluate_candidates_compiled_with(regions, assigned, q, candidates, &mut scratch)
    }

    /// [`Self::evaluate_candidates_compiled`] with a caller-held
    /// [`AllocScratch`]: the decision's noise plane is prepared in (or
    /// sliced from) the scratch's cache instead of re-derived. The
    /// counts are bit-identical to the scratch-free entry point for any
    /// sequence of calls, scratch sharing, and thread count.
    ///
    /// # Panics
    ///
    /// As [`Self::evaluate_candidates_compiled`].
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

    /// Samples per independent noise stream in the modern fill: the
    /// buffer is cut into fixed-size chunks, each with its own
    /// counter-derived seed, so the fill parallelizes while staying
    /// bit-identical for every thread count (chunk boundaries never
    /// depend on the worker count).
    const NOISE_STREAM_SAMPLES: usize = 4_096;

    /// The base seed of qubit `q`'s noise stream — a pure function of
    /// the evaluator seed and `q`, which is what makes the
    /// [`AllocScratch`] plane cache valid across architectures.
    fn stream_seed(&self, q: usize) -> u64 {
        self.seed ^ (0xd134_2543_de82_ef95u64.wrapping_mul(q as u64 + 1))
    }

    /// The plane key — (seed family, stream seed), the family being
    /// (evaluator seed, sigma bits) — of a `needed`-sample decision for
    /// `q`; `None` for the legacy stream and for odd blocks (whose tail
    /// sample is drawn by the single-draw path), neither of which is a
    /// plane prefix.
    fn plane_key(&self, q: usize, needed: usize) -> Option<((u64, u64), u64)> {
        (!self.legacy_noise && needed.is_multiple_of(2))
            .then(|| ((self.seed, self.model.sigma_ghz().to_bits()), self.stream_seed(q)))
    }

    /// Draws the common-random-numbers noise block for qubit `q`'s
    /// decision: `trials x m` samples from the per-qubit stream.
    fn fill_noise(&self, q: usize, noise: &mut [f64]) {
        let base_seed = self.stream_seed(q);
        if self.legacy_noise {
            // The historical scheme: one serial stream of single-draw
            // Box–Muller samples.
            let mut rng = ChaCha8Rng::seed_from_u64(base_seed);
            self.model.sample_into_unpaired(&mut rng, noise);
        } else {
            let model = self.model;
            qpd_par::par_chunks_mut(noise, Self::NOISE_STREAM_SAMPLES, |i, chunk| {
                Self::fill_stream_chunk(base_seed, i as u64, &model, chunk);
            });
        }
    }

    /// Fills `chunk` with chunk number `absolute` of the modern stream
    /// of `base_seed`. Chunk contents depend only on the base seed and
    /// the absolute chunk index, so chunks splice bit-identically into
    /// a buffer of any length.
    fn fill_stream_chunk(
        base_seed: u64,
        absolute: u64,
        model: &FabricationModel,
        chunk: &mut [f64],
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(
            base_seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(absolute + 1)),
        );
        model.sample_into(&mut rng, chunk);
    }

    /// The allocator's batch hot path: [`Self::evaluate_candidates_compiled`]
    /// reading its noise from planes an earlier [`AllocScratch::prepare`]
    /// drew, with caller-owned (per-worker) decision buffers. `planes` is
    /// only read, so one scratch serves every worker of a batch at once;
    /// an unprepared plane falls back to a direct fill with identical
    /// values.
    ///
    /// Pass 1 and pass 2 fan their rows out over the pool; a caller that
    /// fans decisions out itself pins its workers to one thread
    /// ([`qpd_par::with_threads`]) and each decision then runs inline.
    ///
    /// # Panics
    ///
    /// As [`Self::evaluate_candidates_compiled`].
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
            live,
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
        // values when there is none (legacy stream, odd block whose tail
        // sample is drawn by the non-prefix-stable single-draw path, or
        // a plane nobody prepared).
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

        // Pass 1 — context filtering into flat SoA records. A surviving
        // trial's record holds exactly the operands the per-candidate
        // constraints read, with the candidate-independent halves of the
        // two-photon terms prefolded:
        //   [ noise_q,
        //     f_other                          per q-pair,
        //     (f_i, f_k)                       per j==q triple,
        //     (2 f_j - gap,        f_k)        per i==q triple,
        //     ((2 f_j - gap) - f_i, f_i)       per k==q triple ]
        // The j==q triples' conditions 5/6 do not involve q's frequency
        // at all, so they are folded into this pass: a trial tripping
        // them fails for *every* candidate and is dropped here. The
        // constraint checks run four trials per vector on AVX2 hosts
        // ([`Pass1Ctx::filter_rows`]), bit-identically to the scalar
        // kernel, and fan out over the pool in fixed row chunks.
        let stride =
            1 + q_pair_others.len() + 2 * (triples_j.len() + triples_i.len() + triples_k.len());
        let ctx = Pass1Ctx {
            params: &p,
            base,
            m,
            qi,
            stride,
            q_pair_others,
            ctx_pairs,
            triples_j,
            triples_i,
            triples_k,
            ctx_triples,
        };
        // Records land in row order however the rows are split, so the
        // serial path filters straight into `live`.
        let threads = qpd_par::threads();
        live.clear();
        if threads == 1 {
            ctx.filter_rows(noise, live);
        } else {
            let chunk_rows = self.trials.div_ceil(4 * threads).max(64).min(self.trials.max(1));
            let blocks: Vec<Vec<f64>> = qpd_par::par_chunks(noise, chunk_rows * m, |_, slice| {
                let mut block = Vec::with_capacity((slice.len() / m) * ctx.stride);
                ctx.filter_rows(slice, &mut block);
                block
            });
            live.reserve(blocks.iter().map(Vec::len).sum());
            for block in &blocks {
                live.extend_from_slice(block);
            }
        }

        // Pass 2 — every candidate against only the q-involving
        // constraints of the surviving records, row-major (each record is
        // read once for all candidates), vectorized where the host allows
        // ([`pass2_block`]), and fanned out over the pool in fixed row
        // blocks. Per-candidate tallies are exact integer sums over the
        // blocks, so the counts are identical for any thread count.
        let qp = q_pair_others.len();
        let (nj, ni) = (triples_j.len(), triples_i.len());
        let layout = RecordLayout {
            stride,
            pairs_end: 1 + qp,
            tj_end: 1 + qp + 2 * nj,
            ti_end: 1 + qp + 2 * (nj + ni),
        };
        let live_rows = live.len() / stride;
        if threads == 1 || live_rows <= 128 {
            return pass2_block(live, layout, candidates, &p);
        }
        let rows_per_block = live_rows.div_ceil(4 * threads).max(128);
        let partials: Vec<Vec<u64>> =
            qpd_par::par_chunks(live.as_slice(), rows_per_block * stride, |_, rows| {
                pass2_block(rows, layout, candidates, &p)
            });
        let mut out = vec![0u64; candidates.len()];
        for partial in partials {
            for (slot, v) in out.iter_mut().zip(partial) {
                *slot += v;
            }
        }
        out
    }

    /// The naive serial formulation this module used before the
    /// `CompiledRegions` overhaul, retained verbatim (per-decision
    /// `position()` scans, per-trial `Vec` clones, candidate loop on the
    /// caller's thread) as the equivalence oracle for the fast path and
    /// as `bench_snapshot`'s pre-overhaul baseline. Counts are identical
    /// to [`Self::evaluate_candidates`] whenever the noise scheme
    /// matches.
    ///
    /// # Panics
    ///
    /// As [`Self::evaluate_candidates`].
    pub fn evaluate_candidates_reference(
        &self,
        arch: &Architecture,
        assigned: &[Option<f64>],
        q: usize,
        candidates: &[f64],
    ) -> Vec<u64> {
        assert_eq!(assigned.len(), arch.num_qubits(), "assignment length mismatch");
        assert!(q < arch.num_qubits(), "qubit out of range");
        assert!(assigned[q].is_none(), "qubit {q} already assigned");

        // Local region: qubits within distance 2 that are assigned, plus q.
        let region: Vec<usize> =
            arch.ball(q, 2).into_iter().filter(|&r| r == q || assigned[r].is_some()).collect();
        let index_of = |qubit: usize| region.iter().position(|&r| r == qubit);

        // Collision constraints fully inside the (assigned) region, split
        // into those involving `q` (candidate-dependent) and pure context
        // (identical for every candidate under common random numbers, so
        // they are evaluated once per trial).
        let qi = index_of(q).expect("q in region");
        let mut q_pairs: Vec<(usize, usize)> = Vec::new();
        let mut ctx_pairs: Vec<(usize, usize)> = Vec::new();
        for &(a, b) in arch.coupling_edges() {
            if let (Some(ia), Some(ib)) = (index_of(a), index_of(b)) {
                if ia == qi || ib == qi {
                    q_pairs.push((ia, ib));
                } else {
                    ctx_pairs.push((ia, ib));
                }
            }
        }
        let mut q_triples: Vec<(usize, usize, usize)> = Vec::new();
        let mut ctx_triples: Vec<(usize, usize, usize)> = Vec::new();
        for &j in &region {
            let nbrs: Vec<usize> =
                arch.neighbors(j).iter().copied().filter(|&x| index_of(x).is_some()).collect();
            let ij = index_of(j).expect("j in region");
            for x in 0..nbrs.len() {
                for y in x + 1..nbrs.len() {
                    let (ii, ik) = (index_of(nbrs[x]).unwrap(), index_of(nbrs[y]).unwrap());
                    if ij == qi || ii == qi || ik == qi {
                        q_triples.push((ij, ii, ik));
                    } else {
                        ctx_triples.push((ij, ii, ik));
                    }
                }
            }
        }

        // Pre-draw common noise: trials x |region|.
        let m = region.len();
        let mut noise = vec![0.0f64; self.trials * m];
        self.fill_noise(q, &mut noise);

        let base: Vec<f64> = region
            .iter()
            .map(|&r| if r == q { 0.0 } else { assigned[r].expect("assigned in region") })
            .collect();

        let p = &self.params;
        let pair_collides = |freqs: &[f64], a: usize, b: usize| p.pair_collides(freqs[a], freqs[b]);
        let triple_collides = |freqs: &[f64], j: usize, i: usize, k: usize| {
            p.triple_collides(freqs[j], freqs[i], freqs[k])
        };

        // Pass 1: evaluate the context once per trial, keeping the noisy
        // frequencies of trials whose context survives.
        let mut live_trials: Vec<Vec<f64>> = Vec::new();
        let mut freqs = vec![0.0f64; m];
        for t in 0..self.trials {
            let noise_row = &noise[t * m..(t + 1) * m];
            for i in 0..m {
                freqs[i] = base[i] + noise_row[i];
            }
            let ctx_ok = ctx_pairs.iter().all(|&(a, b)| !pair_collides(&freqs, a, b))
                && ctx_triples.iter().all(|&(j, i, k)| !triple_collides(&freqs, j, i, k));
            if ctx_ok {
                live_trials.push(freqs.clone());
            }
        }

        // Pass 2: per candidate, only the q-involving constraints on the
        // surviving trials.
        let mut out = Vec::with_capacity(candidates.len());
        for &candidate in candidates {
            let mut ok = 0u64;
            for trial in &mut live_trials {
                let saved = trial[qi];
                trial[qi] = saved + candidate;
                let collided = q_pairs.iter().any(|&(a, b)| pair_collides(trial, a, b))
                    || q_triples.iter().any(|&(j, i, k)| triple_collides(trial, j, i, k));
                trial[qi] = saved;
                if !collided {
                    ok += 1;
                }
            }
            out.push(ok);
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
    /// and the retained naive path agree *exactly*, count for count.
    #[test]
    fn compiled_path_matches_reference_exactly() {
        let candidates: Vec<f64> = (0..35).map(|i| 5.00 + 0.01 * i as f64).collect();
        let cases: Vec<(Architecture, Vec<Option<f64>>, usize)> = vec![
            (path3(), vec![Some(5.00), None, Some(5.23)], 1),
            (path3(), vec![Some(5.10), Some(5.22), None], 2),
            (path3(), vec![None, None, None], 0),
        ];
        for (arch, assigned, q) in cases {
            let e = evaluator(1_500);
            let fast = e.evaluate_candidates(&arch, &assigned, q, &candidates);
            let reference = e.evaluate_candidates_reference(&arch, &assigned, q, &candidates);
            assert_eq!(fast, reference, "arch {} q {q}", arch.name());
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
            let fast = e.evaluate_candidates_compiled(&compiled, &assigned, q, &candidates);
            let reference = e.evaluate_candidates_reference(&arch, &assigned, q, &candidates);
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

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_pass2_matches_scalar_kernel() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        // Synthetic records exercising every constraint class, with
        // operands spread across clean and colliding distances.
        let p = CollisionParams::default();
        let layout = RecordLayout { stride: 9, pairs_end: 3, tj_end: 5, ti_end: 7 };
        let mut rows = Vec::new();
        let mut x = 0.37f64;
        for _ in 0..257 {
            let mut row = [0.0f64; 9];
            for slot in row.iter_mut() {
                // Deterministic pseudo-noise spanning the band.
                x = (x * 997.0 + 0.1234).fract();
                *slot = 5.0 + 0.4 * x - 0.2;
            }
            row[0] = 0.06 * x - 0.03; // noise_q, small
            rows.extend_from_slice(&row);
        }
        let candidates: Vec<f64> = (0..35).map(|i| 5.00 + 0.01 * i as f64).collect();
        let mut scalar = vec![0u64; candidates.len()];
        pass2_block_scalar(&rows, layout, &candidates, &p, &mut scalar);
        let run_simd = |lanes: usize, avx512: bool| -> Vec<u64> {
            let padded = candidates.len().div_ceil(lanes) * lanes;
            let mut cands = candidates.clone();
            cands.resize(padded, f64::NAN);
            let mut tallies = vec![0i64; padded];
            unsafe {
                if avx512 {
                    pass2_avx512::pass2_block(&rows, layout, &cands, &p, &mut tallies);
                } else {
                    pass2_avx2::pass2_block(&rows, layout, &cands, &p, &mut tallies);
                }
            }
            tallies.into_iter().take(candidates.len()).map(|t| t as u64).collect()
        };
        assert_eq!(scalar, run_simd(pass2_avx2::LANES, false), "avx2");
        if std::arch::is_x86_feature_detected!("avx512f") {
            assert_eq!(scalar, run_simd(pass2_avx512::LANES, true), "avx512");
        }
        assert!(scalar.iter().any(|&c| c > 0) && scalar.iter().any(|&c| c < 257));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_pass1_matches_scalar_filter() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        // A synthetic decision context exercising every constraint class.
        let p = CollisionParams::default();
        let base = [0.0, 5.10, 5.20, 5.05, 5.15, 5.25];
        let ctx = Pass1Ctx {
            params: &p,
            base: &base,
            m: 6,
            qi: 0,
            stride: 1 + 2 + 2 * (2 + 1 + 1),
            q_pair_others: &[1, 2],
            ctx_pairs: &[(1, 2), (3, 4)],
            triples_j: &[(1, 2), (3, 5)],
            triples_i: &[(1, 4)],
            triples_k: &[(2, 3)],
            ctx_triples: &[(1, 3, 4), (2, 4, 5)],
        };
        // 1,003 rows (ragged tail included) of deterministic pseudo-noise
        // wide enough to trip and clear every condition.
        let mut x = 0.618f64;
        let noise: Vec<f64> = (0..1_003 * 6)
            .map(|_| {
                x = (x * 997.0 + 0.1234).fract();
                0.40 * x - 0.20
            })
            .collect();
        let mut scalar = Vec::new();
        ctx.filter_rows_scalar(&noise, &mut scalar);
        let mut simd = Vec::new();
        unsafe { ctx.filter_rows_avx2(&noise, &mut simd) };
        assert_eq!(scalar.len(), simd.len(), "different survivor counts");
        assert!(
            scalar.iter().zip(&simd).all(|(a, b)| a.to_bits() == b.to_bits()),
            "record bytes differ"
        );
        if std::arch::is_x86_feature_detected!("avx512f") {
            let mut wide = Vec::new();
            unsafe { ctx.filter_rows_avx512(&noise, &mut wide) };
            assert_eq!(scalar.len(), wide.len(), "avx512 survivor counts");
            assert!(
                scalar.iter().zip(&wide).all(|(a, b)| a.to_bits() == b.to_bits()),
                "avx512 record bytes differ"
            );
        }
        // The filter is doing real work: some survive, some do not.
        let survivors = scalar.len() / ctx.stride;
        assert!(survivors > 0 && survivors < 1_003, "survivors {survivors}");
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
                    let fresh =
                        e.evaluate_candidates_compiled(&compiled, &assigned, q, &candidates);
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
                let direct = e.evaluate_candidates_compiled(&compiled, &assigned, q, &candidates);
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
        let without = e.evaluate_candidates_compiled(&compiled, &assigned, 1, &[5.08, 5.12]);
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
            let fresh = e.evaluate_candidates_compiled(&compiled, &assigned, 1, &[5.08, 5.12]);
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
        assert_eq!(counts, b.evaluate_candidates_compiled(&compiled, &assigned, 3, &candidates));
        // One demand larger than the whole cap is still served in full.
        let mut tiny = AllocScratch::with_cap(10);
        tiny.prepare(demand(&a));
        assert_eq!(tiny.cached_samples(), 2 * 500 * m);
    }

    #[test]
    fn legacy_noise_changes_counts_but_not_structure() {
        let arch = path3();
        let assigned = vec![Some(5.00), None, Some(5.23)];
        let modern = evaluator(2_000);
        let legacy = modern.with_legacy_noise();
        let a = modern.evaluate_candidates(&arch, &assigned, 1, &[5.08, 5.12]);
        let b = legacy.evaluate_candidates(&arch, &assigned, 1, &[5.08, 5.12]);
        assert_ne!(a, b, "independent streams should differ in raw counts");
        // And the legacy fast path still agrees with the legacy reference.
        let b_ref = legacy.evaluate_candidates_reference(&arch, &assigned, 1, &[5.08, 5.12]);
        assert_eq!(b, b_ref);
    }
}
