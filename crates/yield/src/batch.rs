//! Batched cross-candidate yield evaluation: one SoA pass over
//! candidates x trials.
//!
//! A design-space exploration round produces many near-identical
//! candidates whose yield simulations differ only in designed
//! frequencies (and sometimes topology), while sharing everything that
//! determines the fabrication-noise trial stream. The singleton path
//! ([`YieldSimulator::estimate`]) regenerates that stream per candidate;
//! [`YieldSimulator::evaluate_batch`] generates it **once per stream
//! group** and checks every candidate of the group against the same
//! noise rows, with candidates laid out across SIMD lanes.
//!
//! # Grouping contract
//!
//! Two candidates may share a trial stream exactly when the stream's
//! defining inputs agree — they form one *stream group*:
//!
//! - the simulator `seed` and `trials` (chunk decomposition and per-chunk
//!   RNG seeds, see `CHUNKS` in the simulator module),
//! - the *effective* noise sigma (the configured sigma mapped through the
//!   hardware family's `effective_sigma_ghz`, so e.g. a tunable-coupler
//!   candidate never shares a stream with a fixed-frequency one unless
//!   the halved sigma happens to coincide),
//! - the qubit count `n` (the noise consumption cadence draws
//!   `max(BULK_NOISE_SAMPLES / n, 1)` rows per bulk fill, so `n` is part
//!   of the RNG consumption pattern, not just the row width).
//!
//! Collision parameters, coupling structure, and designed frequencies do
//! **not** affect the stream — only the check — so candidates differing
//! in any of those still share one group's noise. Within a stream group,
//! candidates with identical collision structure (same parameters, same
//! pair and triple lists) form a *lane group* and ride the same SIMD
//! vectors; candidates with different topologies get their own lane
//! group but still reuse the group's noise rows.
//!
//! # Determinism
//!
//! Every estimate returned here is **bit-identical** to what the
//! request's own simulator would return from `estimate`: the per-chunk
//! RNG streams, the bulk-fill cadence, and every floating-point
//! operation of the collision predicates (operands, order, association)
//! are exactly the singleton path's, and per-candidate success tallies
//! are exact integer sums over the same fixed chunk decomposition. The
//! work fans out over the [`qpd_par`] pool as one flat
//! stream-group x chunk grid, so thread count never changes results —
//! the test suite asserts equality against singleton runs at several
//! pool widths.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use qpd_topology::Architecture;

use crate::collision::{CollisionChecker, CollisionParams};
use crate::local::{simd_tier, SimdTier};
use crate::model::FabricationModel;
use crate::simulator::{
    YieldError, YieldEstimate, YieldSimulator, BULK_NOISE_SAMPLES, CHUNKS, CHUNK_SEED_MUL,
};

/// One candidate of a batch: a configured simulator plus the architecture
/// (with attached frequency plan) it should estimate.
#[derive(Debug, Clone, Copy)]
pub struct BatchRequest<'a> {
    /// The simulator configuration this candidate would use on the
    /// singleton path; its seed, trials, sigma, hardware family, and
    /// collision parameters all participate in grouping.
    pub simulator: YieldSimulator,
    /// The candidate architecture. Must have a frequency plan attached,
    /// or the request's slot resolves to
    /// [`YieldError::MissingFrequencyPlan`].
    pub arch: &'a Architecture,
}

/// Candidates sharing one stream group's noise *and* one collision
/// structure: same parameters, same pair/triple lists. They differ only
/// in designed frequencies, laid out constraint-major across SIMD lanes
/// (`operand[constraint * width + lane]`), NaN-padded to the lane width.
#[derive(Debug)]
struct LaneGroup {
    params: CollisionParams,
    /// Connected pairs `(a, b)` in singleton check order.
    pairs: Vec<(u32, u32)>,
    /// Common-neighbor triples `(j; i, k)` in singleton check order.
    triples: Vec<(u32, u32, u32)>,
    /// Request indices of the member candidates, in submission order.
    members: Vec<usize>,
    /// Lane width: member count padded up to the SIMD tier's lane count.
    width: usize,
    /// Designed `f_a` per (pair, lane); NaN in pad lanes (the SIMD
    /// kernels mark pad lanes collided up front, and their tallies are
    /// discarded).
    pair_a: Vec<f64>,
    /// Designed `f_b` per (pair, lane).
    pair_b: Vec<f64>,
    /// Designed `f_j` per (triple, lane).
    tri_j: Vec<f64>,
    /// Designed `f_i` per (triple, lane).
    tri_i: Vec<f64>,
    /// Designed `f_k` per (triple, lane).
    tri_k: Vec<f64>,
}

/// Candidates sharing one fabrication-noise trial stream (see the module
/// docs for the grouping contract).
#[derive(Debug)]
struct StreamGroup {
    seed: u64,
    trials: u64,
    /// Effective sigma actually sampled (hardware-mapped).
    sigma_ghz: f64,
    /// Qubit count: row width and fill cadence of the stream.
    n: usize,
    lane_groups: Vec<LaneGroup>,
    /// Sum of lane-group widths: one flat tally row per chunk.
    width_total: usize,
}

impl YieldSimulator {
    /// Estimates the yield of every request in one batched pass,
    /// returning results in request order. Each slot is bit-identical to
    /// `requests[i].simulator.estimate(requests[i].arch)` — including
    /// the error for requests without a frequency plan — but candidates
    /// sharing a trial stream pay for its generation once, and
    /// candidates sharing collision structure are checked several per
    /// SIMD vector.
    ///
    /// The work fans out over the [`qpd_par`] pool regardless of any
    /// request's `single_threaded` setting; results are identical either
    /// way, so the flag only matters for the singleton path's scheduling.
    ///
    /// # Panics
    ///
    /// Panics if any request's frequency plan length disagrees with its
    /// architecture's qubit count (as `estimate_with_frequencies` does).
    pub fn evaluate_batch(requests: &[BatchRequest<'_>]) -> Vec<Result<YieldEstimate, YieldError>> {
        let tier = simd_tier();
        let lanes = tier.lanes();
        let mut results: Vec<Option<Result<YieldEstimate, YieldError>>> =
            vec![None; requests.len()];

        // Group in submission order: stream groups by (seed, trials,
        // effective sigma, n), lane groups within them by exact
        // collision structure (no hashing — membership is compared
        // outright, so equal-looking groups are equal).
        let mut groups: Vec<StreamGroup> = Vec::new();
        for (idx, req) in requests.iter().enumerate() {
            let sim = &req.simulator;
            let Some(plan) = req.arch.frequencies() else {
                results[idx] = Some(Err(YieldError::MissingFrequencyPlan));
                continue;
            };
            let designed = plan.as_slice();
            assert_eq!(designed.len(), req.arch.num_qubits(), "frequency vector length mismatch");
            let n = designed.len();
            if n == 0 {
                // No qubits, no collisions: every trial succeeds, as on
                // the singleton path.
                results[idx] = Some(Ok(YieldEstimate::new(sim.trials(), sim.trials())));
                continue;
            }
            let sigma_bits = sim.effective_model().sigma_ghz().to_bits();
            let gi = groups
                .iter()
                .position(|g| {
                    g.seed == sim.seed()
                        && g.trials == sim.trials()
                        && g.sigma_ghz.to_bits() == sigma_bits
                        && g.n == n
                })
                .unwrap_or_else(|| {
                    groups.push(StreamGroup {
                        seed: sim.seed(),
                        trials: sim.trials(),
                        sigma_ghz: f64::from_bits(sigma_bits),
                        n,
                        lane_groups: Vec::new(),
                        width_total: 0,
                    });
                    groups.len() - 1
                });
            let checker = CollisionChecker::with_params(req.arch, sim.params());
            let g = &mut groups[gi];
            let li = g
                .lane_groups
                .iter()
                .position(|lg| {
                    lg.params == sim.params()
                        && lg.pairs.as_slice() == checker.pairs()
                        && lg.triples.as_slice() == checker.triples()
                })
                .unwrap_or_else(|| {
                    g.lane_groups.push(LaneGroup {
                        params: sim.params(),
                        pairs: checker.pairs().to_vec(),
                        triples: checker.triples().to_vec(),
                        members: Vec::new(),
                        width: 0,
                        pair_a: Vec::new(),
                        pair_b: Vec::new(),
                        tri_j: Vec::new(),
                        tri_i: Vec::new(),
                        tri_k: Vec::new(),
                    });
                    g.lane_groups.len() - 1
                });
            g.lane_groups[li].members.push(idx);
        }

        // Lay the designed-frequency operands out SoA now that every
        // group's membership is known.
        for g in &mut groups {
            for lg in &mut g.lane_groups {
                lg.width = lg.members.len().div_ceil(lanes) * lanes;
                lg.pair_a = vec![f64::NAN; lg.pairs.len() * lg.width];
                lg.pair_b = vec![f64::NAN; lg.pairs.len() * lg.width];
                lg.tri_j = vec![f64::NAN; lg.triples.len() * lg.width];
                lg.tri_i = vec![f64::NAN; lg.triples.len() * lg.width];
                lg.tri_k = vec![f64::NAN; lg.triples.len() * lg.width];
                for (lane, &ri) in lg.members.iter().enumerate() {
                    let designed =
                        requests[ri].arch.frequencies().expect("grouped request has a plan");
                    let designed = designed.as_slice();
                    for (pi, &(a, b)) in lg.pairs.iter().enumerate() {
                        lg.pair_a[pi * lg.width + lane] = designed[a as usize];
                        lg.pair_b[pi * lg.width + lane] = designed[b as usize];
                    }
                    for (ti, &(j, i, k)) in lg.triples.iter().enumerate() {
                        lg.tri_j[ti * lg.width + lane] = designed[j as usize];
                        lg.tri_i[ti * lg.width + lane] = designed[i as usize];
                        lg.tri_k[ti * lg.width + lane] = designed[k as usize];
                    }
                }
            }
            g.width_total = g.lane_groups.iter().map(|lg| lg.width).sum();
        }

        // One flat stream-group x chunk grid over the pool: coarse units
        // (a chunk regenerates its noise and checks every group member),
        // fixed count, summed in fixed order — identical at every pool
        // width.
        let unit_tallies = qpd_par::par_indices(groups.len() * CHUNKS as usize, |u| {
            run_unit(&groups[u / CHUNKS as usize], (u % CHUNKS as usize) as u64, tier)
        });

        for (gi, g) in groups.iter().enumerate() {
            let mut acc = vec![0i64; g.width_total];
            for chunk in 0..CHUNKS as usize {
                let part = &unit_tallies[gi * CHUNKS as usize + chunk];
                for (slot, &t) in acc.iter_mut().zip(part) {
                    *slot += t;
                }
            }
            let mut off = 0;
            for lg in &g.lane_groups {
                for (lane, &ri) in lg.members.iter().enumerate() {
                    let successes = acc[off + lane] as u64;
                    results[ri] = Some(Ok(YieldEstimate::new(successes, g.trials)));
                }
                off += lg.width;
            }
        }
        results.into_iter().map(|r| r.expect("every request resolved")).collect()
    }
}

/// Runs one chunk of one stream group: regenerates the chunk's noise
/// stream exactly as the singleton path does, feeding every bulk fill to
/// every lane group of the group. Returns per-lane success tallies, lane
/// groups concatenated in order.
fn run_unit(g: &StreamGroup, chunk: u64, tier: SimdTier) -> Vec<i64> {
    let mut tallies = vec![0i64; g.width_total];
    let lo = g.trials * chunk / CHUNKS;
    let hi = g.trials * (chunk + 1) / CHUNKS;
    if lo == hi {
        return tallies;
    }
    let mut rng = ChaCha8Rng::seed_from_u64(g.seed ^ CHUNK_SEED_MUL.wrapping_mul(chunk + 1));
    let model = FabricationModel::new(g.sigma_ghz);
    let batch_rows = (BULK_NOISE_SAMPLES / g.n).max(1);
    let mut noise = vec![0.0f64; batch_rows * g.n];
    let mut remaining = hi - lo;
    while remaining > 0 {
        let rows = (batch_rows as u64).min(remaining) as usize;
        let buf = &mut noise[..rows * g.n];
        model.sample_into(&mut rng, buf);
        let mut off = 0;
        for lg in &g.lane_groups {
            run_rows(tier, buf, g.n, lg, &mut tallies[off..off + lg.width]);
            off += lg.width;
        }
        remaining -= rows as u64;
    }
    tallies
}

/// Dispatches one noise block to the best kernel. All kernels are
/// bit-identical (IEEE-exact counterparts of the singleton predicates),
/// so host SIMD support never changes results.
fn run_rows(tier: SimdTier, noise: &[f64], n: usize, lg: &LaneGroup, tallies: &mut [i64]) {
    #[cfg(target_arch = "x86_64")]
    match tier {
        // SAFETY: the tier was runtime-detected in `simd_tier`.
        SimdTier::Avx512 => return unsafe { batch_avx512::run_rows(noise, n, lg, tallies) },
        SimdTier::Avx2 => return unsafe { batch_avx2::run_rows(noise, n, lg, tallies) },
        SimdTier::Scalar => {}
    }
    let _ = tier;
    run_rows_scalar(noise, n, lg, tallies);
}

/// Counts, per candidate lane, the noise rows whose post-fabrication
/// frequencies stay collision-free — the scalar reference kernel and the
/// semantic definition the SIMD kernels must match bit-for-bit. Per
/// (row, lane) this is exactly the singleton check: the same
/// `designed + noise` operands through the same predicates in the same
/// order, early exit included.
fn run_rows_scalar(noise: &[f64], n: usize, lg: &LaneGroup, tallies: &mut [i64]) {
    let p = &lg.params;
    let w = lg.width;
    for row in noise.chunks_exact(n) {
        'lane: for (lane, slot) in tallies.iter_mut().enumerate().take(lg.members.len()) {
            for (pi, &(a, b)) in lg.pairs.iter().enumerate() {
                let fa = lg.pair_a[pi * w + lane] + row[a as usize];
                let fb = lg.pair_b[pi * w + lane] + row[b as usize];
                if p.pair_collides(fa, fb) {
                    continue 'lane;
                }
            }
            for (ti, &(j, i, k)) in lg.triples.iter().enumerate() {
                let fj = lg.tri_j[ti * w + lane] + row[j as usize];
                let fi = lg.tri_i[ti * w + lane] + row[i as usize];
                let fk = lg.tri_k[ti * w + lane] + row[k as usize];
                if p.triple_collides(fj, fi, fk) {
                    continue 'lane;
                }
            }
            *slot += 1;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod batch_avx2 {
    //! Four candidates per vector. Every operation is an IEEE-exact
    //! counterpart of the scalar kernel (add/sub/mul/abs/ordered
    //! compare — no FMA, no reassociation), so the tallies are
    //! bit-identical to [`super::run_rows_scalar`]; the test suite
    //! asserts it.

    use std::arch::x86_64::*;

    use super::LaneGroup;

    /// Lanes per vector.
    pub const LANES: usize = 4;

    /// As [`super::run_rows_scalar`]; `lg.width` is a multiple of
    /// [`LANES`], pad lanes hold NaN operands, start every row marked
    /// collided, and their tallies are discarded by the caller.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn run_rows(noise: &[f64], n: usize, lg: &LaneGroup, tallies: &mut [i64]) {
        debug_assert_eq!(lg.width % LANES, 0);
        debug_assert_eq!(tallies.len(), lg.width);
        let p = &lg.params;
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
        let w = lg.width;
        // Pad lanes start collided: their NaN operands never register a
        // collision, so otherwise a partly filled block could never take
        // the all-lanes-collided exit.
        let members = lg.members.len();
        let pads: Vec<__m256d> = (0..w / LANES)
            .map(|block| {
                let pad = |lane: usize| -i64::from(block * LANES + lane >= members);
                _mm256_castsi256_pd(_mm256_set_epi64x(pad(3), pad(2), pad(1), pad(0)))
            })
            .collect();

        for row in noise.chunks_exact(n) {
            for (block, &pad) in pads.iter().enumerate() {
                let base = block * LANES;
                let mut coll = pad;
                for (pi, &(a, b)) in lg.pairs.iter().enumerate() {
                    let fa = _mm256_add_pd(
                        _mm256_loadu_pd(lg.pair_a.as_ptr().add(pi * w + base)),
                        _mm256_set1_pd(row[a as usize]),
                    );
                    let fb = _mm256_add_pd(
                        _mm256_loadu_pd(lg.pair_b.as_ptr().add(pi * w + base)),
                        _mm256_set1_pd(row[b as usize]),
                    );
                    let d = abs(_mm256_sub_pd(fa, fb));
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
                    // At the paper's yields most trials collide early, so
                    // the all-lanes check earns its movemask.
                    if _mm256_movemask_pd(coll) == 0xF {
                        break;
                    }
                }
                if _mm256_movemask_pd(coll) != 0xF {
                    for (ti, &(j, i, k)) in lg.triples.iter().enumerate() {
                        let fj = _mm256_add_pd(
                            _mm256_loadu_pd(lg.tri_j.as_ptr().add(ti * w + base)),
                            _mm256_set1_pd(row[j as usize]),
                        );
                        let fi = _mm256_add_pd(
                            _mm256_loadu_pd(lg.tri_i.as_ptr().add(ti * w + base)),
                            _mm256_set1_pd(row[i as usize]),
                        );
                        let fk = _mm256_add_pd(
                            _mm256_loadu_pd(lg.tri_k.as_ptr().add(ti * w + base)),
                            _mm256_set1_pd(row[k as usize]),
                        );
                        let d = abs(_mm256_sub_pd(fi, fk));
                        // ((2 f_j - gap) - f_i) - f_k: the scalar
                        // association.
                        let term = _mm256_sub_pd(
                            _mm256_sub_pd(_mm256_sub_pd(_mm256_mul_pd(v_2, fj), v_gap), fi),
                            fk,
                        );
                        let m = _mm256_or_pd(
                            _mm256_or_pd(
                                _mm256_cmp_pd::<_CMP_LT_OQ>(d, v_deg),
                                _mm256_cmp_pd::<_CMP_LT_OQ>(abs(_mm256_sub_pd(d, v_gap)), v_full),
                            ),
                            _mm256_cmp_pd::<_CMP_LT_OQ>(abs(term), v_two),
                        );
                        coll = _mm256_or_pd(coll, m);
                        if _mm256_movemask_pd(coll) == 0xF {
                            break;
                        }
                    }
                }
                // Clean lanes are all-ones after andnot; subtracting the
                // -1 pattern increments their tallies.
                let clean = _mm256_andnot_pd(coll, ones);
                let t = _mm256_loadu_si256(tallies.as_ptr().add(base).cast::<__m256i>());
                let updated = _mm256_sub_epi64(t, _mm256_castpd_si256(clean));
                _mm256_storeu_si256(tallies.as_mut_ptr().add(base).cast::<__m256i>(), updated);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod batch_avx512 {
    //! Eight candidates per vector on AVX-512F; same exactness contract
    //! as [`super::batch_avx2`].

    use std::arch::x86_64::*;

    use super::LaneGroup;

    /// Lanes per vector.
    pub const LANES: usize = 8;

    /// As [`super::run_rows_scalar`]; `lg.width` is a multiple of
    /// [`LANES`], pads hold NaN.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn run_rows(noise: &[f64], n: usize, lg: &LaneGroup, tallies: &mut [i64]) {
        debug_assert_eq!(lg.width % LANES, 0);
        debug_assert_eq!(tallies.len(), lg.width);
        let p = &lg.params;
        let gap = -p.anharmonicity_ghz;
        let v_gap = _mm512_set1_pd(gap);
        let v_g2 = _mm512_set1_pd(gap / 2.0);
        let v_deg = _mm512_set1_pd(p.t_degenerate_ghz);
        let v_half = _mm512_set1_pd(p.t_half_ghz);
        let v_full = _mm512_set1_pd(p.t_full_ghz);
        let v_two = _mm512_set1_pd(p.t_two_photon_ghz);
        let v_2 = _mm512_set1_pd(2.0);
        let one = _mm512_set1_epi64(1);
        let w = lg.width;
        // Pad lanes start collided, as in the AVX2 kernel.
        let members = lg.members.len();
        let pads: Vec<__mmask8> = (0..w / LANES)
            .map(|block| {
                (0..LANES).filter(|&lane| block * LANES + lane >= members).map(|l| 1 << l).sum()
            })
            .collect();

        for row in noise.chunks_exact(n) {
            for (block, &pad) in pads.iter().enumerate() {
                let base = block * LANES;
                let mut coll: __mmask8 = pad;
                for (pi, &(a, b)) in lg.pairs.iter().enumerate() {
                    let fa = _mm512_add_pd(
                        _mm512_loadu_pd(lg.pair_a.as_ptr().add(pi * w + base)),
                        _mm512_set1_pd(row[a as usize]),
                    );
                    let fb = _mm512_add_pd(
                        _mm512_loadu_pd(lg.pair_b.as_ptr().add(pi * w + base)),
                        _mm512_set1_pd(row[b as usize]),
                    );
                    let d = _mm512_abs_pd(_mm512_sub_pd(fa, fb));
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
                    if coll == 0xFF {
                        break;
                    }
                }
                if coll != 0xFF {
                    for (ti, &(j, i, k)) in lg.triples.iter().enumerate() {
                        let fj = _mm512_add_pd(
                            _mm512_loadu_pd(lg.tri_j.as_ptr().add(ti * w + base)),
                            _mm512_set1_pd(row[j as usize]),
                        );
                        let fi = _mm512_add_pd(
                            _mm512_loadu_pd(lg.tri_i.as_ptr().add(ti * w + base)),
                            _mm512_set1_pd(row[i as usize]),
                        );
                        let fk = _mm512_add_pd(
                            _mm512_loadu_pd(lg.tri_k.as_ptr().add(ti * w + base)),
                            _mm512_set1_pd(row[k as usize]),
                        );
                        let d = _mm512_abs_pd(_mm512_sub_pd(fi, fk));
                        let term = _mm512_sub_pd(
                            _mm512_sub_pd(_mm512_sub_pd(_mm512_mul_pd(v_2, fj), v_gap), fi),
                            fk,
                        );
                        coll |= _mm512_cmp_pd_mask::<_CMP_LT_OQ>(d, v_deg)
                            | _mm512_cmp_pd_mask::<_CMP_LT_OQ>(
                                _mm512_abs_pd(_mm512_sub_pd(d, v_gap)),
                                v_full,
                            )
                            | _mm512_cmp_pd_mask::<_CMP_LT_OQ>(_mm512_abs_pd(term), v_two);
                        if coll == 0xFF {
                            break;
                        }
                    }
                }
                let t = _mm512_loadu_si512(tallies.as_ptr().add(base).cast::<__m512i>());
                let updated = _mm512_mask_add_epi64(t, !coll, t, one);
                _mm512_storeu_si512(tallies.as_mut_ptr().add(base).cast::<__m512i>(), updated);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::HardwareFamily;
    use qpd_topology::{ibm, Architecture, BusMode, FrequencyPlan};

    fn path3(freqs: [f64; 3]) -> Architecture {
        let mut b = Architecture::builder("path3");
        b.qubit(0, 0).qubit(0, 1).qubit(0, 2);
        b.build().unwrap().with_frequencies(FrequencyPlan::new(freqs.to_vec())).unwrap()
    }

    /// A distinct in-band frequency plan: compress toward 5.00 GHz and
    /// shift up, staying inside the allowed 5.00-5.34 GHz band.
    fn reshaped(arch: &Architecture, scale: f64, offset: f64) -> Architecture {
        let plan = arch.frequencies().unwrap().as_slice().to_vec();
        let moved: Vec<f64> = plan.iter().map(|f| 5.00 + (f - 5.00) * scale + offset).collect();
        arch.clone().with_frequencies(FrequencyPlan::new(moved)).unwrap()
    }

    #[test]
    fn batch_matches_singletons_bitwise() {
        // Mixed stream groups, lane groups, topologies, and hardware
        // families in one batch: every slot must equal its own singleton
        // run exactly.
        let sparse = ibm::ibm_16q_2x8(BusMode::TwoQubitOnly);
        let dense = ibm::ibm_16q_2x8(BusMode::MaxFourQubit);
        let sparse_a = reshaped(&sparse, 0.95, 0.004);
        let sparse_b = reshaped(&sparse, 0.90, 0.010);
        let small = path3([5.00, 5.12, 5.24]);
        let base = YieldSimulator::new().with_trials(1_500).with_seed(21);
        let requests = vec![
            BatchRequest { simulator: base, arch: &sparse },
            BatchRequest { simulator: base, arch: &sparse_a },
            BatchRequest { simulator: base, arch: &dense },
            BatchRequest {
                simulator: base.with_hardware(HardwareFamily::TunableCoupler),
                arch: &sparse,
            },
            BatchRequest {
                simulator: base.with_hardware(HardwareFamily::HeavyHex),
                arch: &sparse_b,
            },
            BatchRequest { simulator: base.with_seed(22), arch: &sparse },
            BatchRequest { simulator: base.with_trials(700), arch: &sparse_a },
            BatchRequest { simulator: base.with_sigma_ghz(0.045), arch: &dense },
            BatchRequest { simulator: base, arch: &small },
            BatchRequest { simulator: base, arch: &sparse }, // duplicate
        ];
        let batch = YieldSimulator::evaluate_batch(&requests);
        for (i, (req, got)) in requests.iter().zip(&batch).enumerate() {
            let singleton = req.simulator.estimate(req.arch);
            assert_eq!(got, &singleton, "request {i}");
        }
        // Same candidate twice resolves identically.
        assert_eq!(batch[0], batch[9]);
    }

    #[test]
    fn batch_is_thread_invariant() {
        let sparse = ibm::ibm_16q_2x8(BusMode::TwoQubitOnly);
        let moved = reshaped(&sparse, 0.95, 0.005);
        let sim = YieldSimulator::new().with_trials(2_000).with_seed(5);
        let requests = vec![
            BatchRequest { simulator: sim, arch: &sparse },
            BatchRequest { simulator: sim, arch: &moved },
            BatchRequest {
                simulator: sim.with_hardware(HardwareFamily::TunableCoupler),
                arch: &sparse,
            },
        ];
        let reference = YieldSimulator::evaluate_batch(&requests);
        for threads in [1, 2, 8] {
            let pooled =
                qpd_par::with_threads(threads, || YieldSimulator::evaluate_batch(&requests));
            assert_eq!(reference, pooled, "threads {threads}");
        }
    }

    #[test]
    fn missing_plan_errors_in_place() {
        let mut b = Architecture::builder("bare");
        b.qubit(0, 0).qubit(0, 1);
        let bare = b.build().unwrap();
        let planned = path3([5.00, 5.12, 5.24]);
        let sim = YieldSimulator::new().with_trials(300);
        let requests = vec![
            BatchRequest { simulator: sim, arch: &planned },
            BatchRequest { simulator: sim, arch: &bare },
            BatchRequest { simulator: sim, arch: &planned },
        ];
        let batch = YieldSimulator::evaluate_batch(&requests);
        assert!(batch[0].is_ok());
        assert_eq!(batch[1], Err(YieldError::MissingFrequencyPlan));
        assert_eq!(batch[0], batch[2]);
    }

    #[test]
    fn empty_batch_is_empty() {
        assert!(YieldSimulator::evaluate_batch(&[]).is_empty());
    }

    #[test]
    fn tiny_trial_counts_still_match() {
        // Fewer trials than chunks: some chunks are empty on both paths.
        let arch = path3([5.00, 5.12, 5.24]);
        for trials in [1, 2, 7, 15, 16, 17] {
            let sim = YieldSimulator::new().with_trials(trials).with_seed(3);
            let batch =
                YieldSimulator::evaluate_batch(&[BatchRequest { simulator: sim, arch: &arch }]);
            assert_eq!(batch[0], sim.estimate(&arch), "trials {trials}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_kernels_match_scalar_kernel() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        // A synthetic lane group over a 5-qubit chip: 4 pairs, 4 triples,
        // and 1, 5 or 11 members (ragged: pads exercise the pre-collided
        // NaN lanes, and a 1-member group is mostly padding).
        for members in [1usize, 5, 11] {
            simd_kernels_match_scalar_kernel_at(members);
        }
    }

    #[cfg(target_arch = "x86_64")]
    fn simd_kernels_match_scalar_kernel_at(members: usize) {
        let params = CollisionParams::default();
        let pairs: Vec<(u32, u32)> = vec![(0, 1), (1, 2), (2, 3), (3, 4)];
        let triples: Vec<(u32, u32, u32)> = vec![(1, 0, 2), (2, 1, 3), (3, 2, 4), (1, 2, 0)];
        let build = |width: usize| {
            let mut lg = LaneGroup {
                params,
                pairs: pairs.clone(),
                triples: triples.clone(),
                members: (0..members).collect(),
                width,
                pair_a: vec![f64::NAN; pairs.len() * width],
                pair_b: vec![f64::NAN; pairs.len() * width],
                tri_j: vec![f64::NAN; triples.len() * width],
                tri_i: vec![f64::NAN; triples.len() * width],
                tri_k: vec![f64::NAN; triples.len() * width],
            };
            // Deterministic near-band designed frequencies per member.
            let designed = |m: usize, q: u32| 5.00 + 0.017 * ((m as f64) + 0.7 * q as f64).sin();
            for m in 0..members {
                for (pi, &(a, b)) in pairs.iter().enumerate() {
                    lg.pair_a[pi * width + m] = designed(m, a);
                    lg.pair_b[pi * width + m] = designed(m, b);
                }
                for (ti, &(j, i, k)) in triples.iter().enumerate() {
                    lg.tri_j[ti * width + m] = designed(m, j);
                    lg.tri_i[ti * width + m] = designed(m, i);
                    lg.tri_k[ti * width + m] = designed(m, k);
                }
            }
            lg
        };
        // Pseudo-noise rows spanning clean and colliding detunings.
        let n = 5usize;
        let mut x = 0.37f64;
        let noise: Vec<f64> = (0..257 * n)
            .map(|_| {
                x = (x * 997.0 + 0.1234).fract();
                0.12 * x - 0.06
            })
            .collect();
        let scalar_lg = build(members);
        let mut scalar = vec![0i64; members];
        run_rows_scalar(&noise, n, &scalar_lg, &mut scalar);
        assert!(scalar.iter().any(|&c| c > 0) && scalar.iter().any(|&c| c < 257), "{scalar:?}");

        let avx2_lg = build(members.div_ceil(batch_avx2::LANES) * batch_avx2::LANES);
        let mut avx2 = vec![0i64; avx2_lg.width];
        unsafe { batch_avx2::run_rows(&noise, n, &avx2_lg, &mut avx2) };
        assert_eq!(scalar, avx2[..members].to_vec(), "avx2, {members} members");

        if std::arch::is_x86_feature_detected!("avx512f") {
            let avx512_lg = build(members.div_ceil(batch_avx512::LANES) * batch_avx512::LANES);
            let mut avx512 = vec![0i64; avx512_lg.width];
            unsafe { batch_avx512::run_rows(&noise, n, &avx512_lg, &mut avx512) };
            assert_eq!(scalar, avx512[..members].to_vec(), "avx512, {members} members");
        }
    }

    #[test]
    fn grouped_batch_matches_across_many_plans() {
        // The bench-shaped workload: one topology, many frequency plans,
        // one shared stream group.
        let base = ibm::ibm_16q_2x8(BusMode::TwoQubitOnly);
        let plans: Vec<Architecture> =
            (0..13).map(|i| reshaped(&base, 0.90, 0.002 * i as f64)).collect();
        let sim = YieldSimulator::new().with_trials(900).with_seed(17);
        let requests: Vec<BatchRequest<'_>> =
            plans.iter().map(|arch| BatchRequest { simulator: sim, arch }).collect();
        let batch = YieldSimulator::evaluate_batch(&requests);
        for (arch, got) in plans.iter().zip(&batch) {
            assert_eq!(got, &sim.estimate(arch));
        }
    }
}
