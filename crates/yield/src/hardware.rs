//! Pluggable hardware families: the [`HardwareModel`] trait and its
//! three instances.
//!
//! The reproduction grew up hard-wired to the paper's fixed-frequency,
//! fixed-coupling transmon lattice: the allowed band and 5-frequency
//! menu lived in `qpd-topology`, the collision thresholds in
//! [`crate::CollisionParams::default`], and the fabrication-noise width
//! wherever a sigma knob happened to sit. This module gathers that
//! surface behind one trait so the design flow, the yield simulator,
//! and the design-space explorer can be pointed at a different hardware
//! family — and so `qpd-explore` can search *across* families and let
//! the Pareto front answer which one wins for a workload.
//!
//! Three instances ship:
//!
//! - [`HardwareFamily::FixedFrequencyTransmon`] — the paper's model,
//!   verbatim. Selecting it is bit-identical to the pre-refactor path:
//!   same band, same menu, same collision thresholds, same noise width,
//!   and **no contribution to any content key or checkpoint byte**.
//! - [`HardwareFamily::TunableCoupler`] — the tunable-coupler chips of
//!   Li & Jin (arXiv:2212.13751): couplers carry their own detuning
//!   degree of freedom, which buys a wider qubit band, relaxed
//!   collision thresholds, and an effective fabrication noise reduced by
//!   the detuning range the coupler can absorb.
//! - [`HardwareFamily::HeavyHex`] — the degree-3 heavy-hexagon lattice
//!   lineage (Bunyk et al., arXiv:1401.5504): a lower, narrower band
//!   with a 3-frequency menu, stressing the abstraction from the sparse
//!   end of the connectivity spectrum
//!   (`qpd_topology::ibm::heavy_hex` builds the matching lattice).
//!
//! # The model contract
//!
//! Everything a [`HardwareModel`] reports feeds **stage content keys**
//! (the memoization layer of the stage graph) and therefore must obey
//! the same purity rules as the stage keys (`qpd_core::AssembleStage::key`):
//!
//! - every method is a **pure function of the family**: same family,
//!   same answer — no global state, no environment, no randomness, no
//!   time. Two calls anywhere in the process must agree bit-for-bit,
//!   because a stage key computed on one thread may serve a value to
//!   every other thread;
//! - the reported values are **total and finite**: bands are ordered
//!   `(lo, hi)` with `lo < hi`, menus are non-empty and inside the
//!   band, sigma scaling maps finite non-negative to finite
//!   non-negative;
//! - **the default family is key-silent**: content keys and checkpoint
//!   bytes append a family tag only for non-default families, so every
//!   key, archive entry, and checkpoint produced before this layer
//!   existed stays byte-identical. Changing what
//!   [`HardwareFamily::FixedFrequencyTransmon`] reports is therefore a
//!   breaking change to the golden fingerprints;
//! - determinism across `QPD_THREADS` and kill/resume follows from the
//!   above: a family is a constant, so threading it through seeds,
//!   stage keys, and checkpoints cannot introduce order dependence.

use qpd_topology::{
    ALLOWED_BAND_GHZ, FIVE_FREQUENCIES_GHZ, HEAVY_HEX_BAND_GHZ, HEAVY_HEX_FREQUENCIES_GHZ,
    TUNABLE_COUPLER_BAND_GHZ, TUNABLE_COUPLER_FREQUENCIES_GHZ,
};

use crate::collision::CollisionParams;

/// Salt folded into a content key right before a non-default family tag,
/// so a key extended by a family can never alias a key that merely
/// hashed one more ordinary word.
pub const HARDWARE_KEY_SALT: u64 = 0x9d8f_3a42_c61b_75e0;

/// The hardware families the toolchain can design for. `Copy`, ordered,
/// and stable: the `as u64` discriminant is folded into content keys
/// (for non-default families), so variants must never be reordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum HardwareFamily {
    /// The paper's fixed-frequency, fixed-coupling transmon lattice
    /// (default; bit-identical to the pre-refactor pipeline).
    #[default]
    FixedFrequencyTransmon,
    /// Tunable-coupler transmons (Li & Jin, arXiv:2212.13751).
    TunableCoupler,
    /// The heavy-hexagon degree-3 lattice lineage (Bunyk et al.,
    /// arXiv:1401.5504).
    HeavyHex,
}

impl HardwareFamily {
    /// Every family, discriminant order.
    pub const ALL: [HardwareFamily; 3] = [
        HardwareFamily::FixedFrequencyTransmon,
        HardwareFamily::TunableCoupler,
        HardwareFamily::HeavyHex,
    ];

    /// Stable CLI / checkpoint tag.
    pub fn as_str(self) -> &'static str {
        match self {
            HardwareFamily::FixedFrequencyTransmon => "fixed",
            HardwareFamily::TunableCoupler => "tunable",
            HardwareFamily::HeavyHex => "heavyhex",
        }
    }

    /// Parses the [`Self::as_str`] tag.
    pub fn parse(tag: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|f| f.as_str() == tag)
    }

    /// The family's model.
    pub fn model(self) -> &'static dyn HardwareModel {
        match self {
            HardwareFamily::FixedFrequencyTransmon => &FixedFrequencyTransmon,
            HardwareFamily::TunableCoupler => &TunableCoupler,
            HardwareFamily::HeavyHex => &HeavyHex,
        }
    }

    /// Whether this is the default (key-silent) family.
    pub fn is_default(self) -> bool {
        self == HardwareFamily::FixedFrequencyTransmon
    }

    /// The noise sigma actually sampled under this family for a
    /// configured `sigma_ghz` — shorthand for the model's
    /// [`HardwareModel::effective_sigma_ghz`]. This value (not the
    /// family itself) is what decides whether two batch candidates may
    /// share a fabrication-noise trial stream ([`crate::batch`]):
    /// families mapping a sigma identically (fixed-frequency and
    /// heavy-hex both leave it untouched) legitimately share streams,
    /// because their estimates differ only in the collision check.
    pub fn effective_sigma_ghz(self, sigma_ghz: f64) -> f64 {
        self.model().effective_sigma_ghz(sigma_ghz)
    }

    /// Folds this family into a content-key hash stream — **a no-op for
    /// the default family**, which is what keeps every pre-refactor key
    /// (and therefore every golden fingerprint and default-config
    /// checkpoint) byte-identical.
    pub fn push_key_tag(self, h: &mut crate::Fnv64) {
        if !self.is_default() {
            h.push(HARDWARE_KEY_SALT);
            h.push(self as u64);
        }
    }

    /// Architecture-name suffix (`""` for the default family), used by
    /// the assembly stage so cross-family reports stay unambiguous.
    pub fn name_suffix(self) -> &'static str {
        match self {
            HardwareFamily::FixedFrequencyTransmon => "",
            HardwareFamily::TunableCoupler => "-tc",
            HardwareFamily::HeavyHex => "-hh",
        }
    }
}

/// One hardware family's physical surface: the frequency band the
/// allocator may move in, the pattern menu, the collision thresholds,
/// and the fabrication-noise behavior.
///
/// **Purity contract** (load-bearing — see the module docs): every
/// method is a pure, total function of the implementing family. The
/// values flow into stage content keys, so any violation silently
/// poisons the memoization layer and the determinism guarantees
/// (`QPD_THREADS` invariance, kill/resume reproducibility) built on it.
pub trait HardwareModel: std::fmt::Debug + Sync {
    /// Which family this model describes.
    fn family(&self) -> HardwareFamily;

    /// The allowed pre-fabrication frequency band `(lo, hi)` in GHz —
    /// the allocator's candidate range and the assembly stage's band
    /// check.
    fn allowed_band_ghz(&self) -> (f64, f64);

    /// The family's fixed pattern menu in GHz (the counterpart of IBM's
    /// 5-frequency scheme), tiled by position via
    /// `qpd_topology::pattern_frequency_plan`.
    fn pattern_frequencies_ghz(&self) -> &'static [f64];

    /// The family's collision thresholds.
    fn collision_params(&self) -> CollisionParams;

    /// The coupler detuning range in GHz the family can dial in after
    /// fabrication (0 for families without tunable couplers). This is
    /// the knob surface [`Self::effective_sigma_ghz`] derives from.
    fn detuning_ghz(&self) -> f64 {
        0.0
    }

    /// The fabrication-noise width the yield model should simulate for
    /// a design-time `sigma_ghz`: families with post-fabrication tuning
    /// absorb part of the deviation deterministically. The default is
    /// the identity (no tuning).
    fn effective_sigma_ghz(&self, sigma_ghz: f64) -> f64 {
        sigma_ghz
    }
}

/// The paper's fixed-frequency transmon lattice — the default family,
/// reporting exactly the constants the pipeline hard-coded before the
/// hardware layer existed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedFrequencyTransmon;

impl HardwareModel for FixedFrequencyTransmon {
    fn family(&self) -> HardwareFamily {
        HardwareFamily::FixedFrequencyTransmon
    }

    fn allowed_band_ghz(&self) -> (f64, f64) {
        ALLOWED_BAND_GHZ
    }

    fn pattern_frequencies_ghz(&self) -> &'static [f64] {
        &FIVE_FREQUENCIES_GHZ
    }

    fn collision_params(&self) -> CollisionParams {
        CollisionParams::default()
    }
}

/// Tunable-coupler transmons (Li & Jin, arXiv:2212.13751): each
/// coupling runs through a coupler whose frequency can be detuned after
/// fabrication, which (a) widens the usable qubit band, (b) shrinks the
/// collision thresholds (a near-collision can be detuned away unless the
/// qubits land almost exactly on the condition), and (c) absorbs half of
/// the fabrication deviation in the yield model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TunableCoupler;

impl TunableCoupler {
    /// Collision thresholds with the coupler's detuning headroom folded
    /// in: the paper's conditions at half width, with a slightly softer
    /// anharmonicity typical of coupler-mediated devices.
    pub const PARAMS: CollisionParams = CollisionParams {
        anharmonicity_ghz: -0.300,
        t_degenerate_ghz: 0.009,
        t_half_ghz: 0.002,
        t_full_ghz: 0.013,
        t_two_photon_ghz: 0.009,
    };
}

impl HardwareModel for TunableCoupler {
    fn family(&self) -> HardwareFamily {
        HardwareFamily::TunableCoupler
    }

    fn allowed_band_ghz(&self) -> (f64, f64) {
        TUNABLE_COUPLER_BAND_GHZ
    }

    fn pattern_frequencies_ghz(&self) -> &'static [f64] {
        &TUNABLE_COUPLER_FREQUENCIES_GHZ
    }

    fn collision_params(&self) -> CollisionParams {
        Self::PARAMS
    }

    fn detuning_ghz(&self) -> f64 {
        0.030
    }

    fn effective_sigma_ghz(&self, sigma_ghz: f64) -> f64 {
        // The coupler can deterministically re-center a deviation up to
        // its detuning range; model the residual as half the raw width.
        0.5 * sigma_ghz
    }
}

/// The heavy-hexagon family (Bunyk et al., arXiv:1401.5504 lineage):
/// degree-3 connectivity on a lower, narrower band with a 3-frequency
/// menu. Collision physics is the paper's fixed-frequency model — the
/// family differs in band, menu, and (through
/// `qpd_topology::ibm::heavy_hex`) topology, not in junction physics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeavyHex;

impl HardwareModel for HeavyHex {
    fn family(&self) -> HardwareFamily {
        HardwareFamily::HeavyHex
    }

    fn allowed_band_ghz(&self) -> (f64, f64) {
        HEAVY_HEX_BAND_GHZ
    }

    fn pattern_frequencies_ghz(&self) -> &'static [f64] {
        &HEAVY_HEX_FREQUENCIES_GHZ
    }

    fn collision_params(&self) -> CollisionParams {
        CollisionParams::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fnv64;

    #[test]
    fn default_family_reports_the_pre_refactor_constants() {
        let m = HardwareFamily::FixedFrequencyTransmon.model();
        assert_eq!(m.allowed_band_ghz(), ALLOWED_BAND_GHZ);
        assert_eq!(m.pattern_frequencies_ghz(), &FIVE_FREQUENCIES_GHZ);
        assert_eq!(m.collision_params(), CollisionParams::default());
        assert_eq!(m.detuning_ghz(), 0.0);
        assert_eq!(m.effective_sigma_ghz(0.030), 0.030);
        assert!(HardwareFamily::default().is_default());
    }

    #[test]
    fn default_family_is_key_silent() {
        let mut tagged = Fnv64::new();
        tagged.push(7);
        HardwareFamily::FixedFrequencyTransmon.push_key_tag(&mut tagged);
        let mut plain = Fnv64::new();
        plain.push(7);
        assert_eq!(tagged.finish(), plain.finish(), "default family touched a key");
        let mut other = Fnv64::new();
        other.push(7);
        HardwareFamily::TunableCoupler.push_key_tag(&mut other);
        assert_ne!(other.finish(), plain.finish(), "non-default family missing from key");
    }

    #[test]
    fn family_tags_key_apart() {
        let keys: Vec<u64> = HardwareFamily::ALL
            .iter()
            .map(|f| {
                let mut h = Fnv64::new();
                f.push_key_tag(&mut h);
                h.finish()
            })
            .collect();
        assert_ne!(keys[0], keys[1]);
        assert_ne!(keys[1], keys[2]);
        assert_ne!(keys[0], keys[2]);
    }

    #[test]
    fn tags_round_trip() {
        for f in HardwareFamily::ALL {
            assert_eq!(HardwareFamily::parse(f.as_str()), Some(f));
            assert_eq!(f.model().family(), f);
        }
        assert_eq!(HardwareFamily::parse("fluxonium"), None);
    }

    #[test]
    fn every_menu_is_inside_its_band_and_well_formed() {
        for f in HardwareFamily::ALL {
            let m = f.model();
            let (lo, hi) = m.allowed_band_ghz();
            assert!(lo < hi, "{f:?}: band not ordered");
            let menu = m.pattern_frequencies_ghz();
            assert!(!menu.is_empty(), "{f:?}: empty menu");
            for &v in menu {
                assert!((lo..=hi).contains(&v), "{f:?}: menu value {v} out of band");
            }
            let p = m.collision_params();
            assert!(p.anharmonicity_ghz < 0.0, "{f:?}: anharmonicity must be negative");
            for t in [p.t_degenerate_ghz, p.t_half_ghz, p.t_full_ghz, p.t_two_photon_ghz] {
                assert!(t > 0.0 && t.is_finite(), "{f:?}: bad threshold {t}");
            }
            assert!(m.effective_sigma_ghz(0.0) == 0.0, "{f:?}: sigma map not zero-preserving");
            assert!(m.effective_sigma_ghz(0.030) <= 0.030, "{f:?}: tuning cannot add noise");
        }
    }

    #[test]
    fn tunable_coupler_relaxes_the_default_thresholds() {
        let tc = TunableCoupler.collision_params();
        let fixed = CollisionParams::default();
        assert!(tc.t_degenerate_ghz < fixed.t_degenerate_ghz);
        assert!(tc.t_full_ghz < fixed.t_full_ghz);
        assert!(TunableCoupler.detuning_ghz() > 0.0);
        assert!(TunableCoupler.effective_sigma_ghz(0.030) < 0.030);
    }
}
