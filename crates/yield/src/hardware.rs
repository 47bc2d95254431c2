//! The hardware families a design can target: [`HardwareFamily`] and
//! the physical constants each one carries.
//!
//! Each family answers four questions with a `match`: the allowed
//! pre-fabrication band, the pattern menu, the collision thresholds and
//! the fabrication noise its yield model samples. The design flow, the
//! yield simulator and the design-space explorer all read them from
//! here, so `qpd-explore` can search *across* families and let the
//! Pareto front answer which one wins for a workload.
//!
//! - [`HardwareFamily::FixedFrequencyTransmon`] — the paper's model,
//!   verbatim: its band and 5-frequency menu from `qpd-topology`, the
//!   thresholds of [`CollisionParams::default`], the configured noise
//!   width, and **no contribution to any content key or checkpoint
//!   byte**.
//! - [`HardwareFamily::TunableCoupler`] — the tunable-coupler chips of
//!   Li & Jin (arXiv:2212.13751): couplers carry their own detuning
//!   degree of freedom, which buys a wider qubit band, relaxed
//!   collision thresholds, and an effective fabrication noise reduced by
//!   the detuning range the coupler can absorb.
//! - [`HardwareFamily::HeavyHex`] — the degree-3 heavy-hexagon lattice
//!   lineage (Bunyk et al., arXiv:1401.5504): a lower, narrower band
//!   with a 3-frequency menu and the paper's junction physics
//!   (`qpd_topology::ibm::heavy_hex` builds the matching lattice).
//!
//! # The family contract
//!
//! Everything a family reports feeds **stage content keys** (the
//! memoization layer of the stage graph) and therefore obeys the same
//! purity rules as the stage keys (`qpd_core::AssembleStage::key`):
//!
//! - every method is a **pure function of the family**: no global
//!   state, no environment, no randomness, no time, so a stage key
//!   computed on one thread may serve a value to every other thread;
//! - the reported values are **total and finite**: bands are ordered
//!   `(lo, hi)` with `lo < hi`, menus are non-empty and inside the
//!   band, sigma scaling maps finite non-negative to finite
//!   non-negative;
//! - **the default family is key-silent**: content keys and checkpoint
//!   bytes append a family tag only for non-default families. Changing
//!   what [`HardwareFamily::FixedFrequencyTransmon`] reports is
//!   therefore a breaking change to the golden fingerprints, and
//!   `tests/hardware_model.rs` pins every family's values exactly;
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

    /// Whether this is the default (key-silent) family.
    pub fn is_default(self) -> bool {
        self == HardwareFamily::FixedFrequencyTransmon
    }

    /// The allowed pre-fabrication frequency band `(lo, hi)` in GHz:
    /// the allocator's candidate range and the assembly stage's band
    /// check.
    pub fn allowed_band_ghz(self) -> (f64, f64) {
        match self {
            HardwareFamily::FixedFrequencyTransmon => ALLOWED_BAND_GHZ,
            HardwareFamily::TunableCoupler => TUNABLE_COUPLER_BAND_GHZ,
            HardwareFamily::HeavyHex => HEAVY_HEX_BAND_GHZ,
        }
    }

    /// The family's fixed pattern menu in GHz (the counterpart of IBM's
    /// 5-frequency scheme), tiled by position via
    /// `qpd_topology::pattern_frequency_plan`.
    pub fn pattern_frequencies_ghz(self) -> &'static [f64] {
        match self {
            HardwareFamily::FixedFrequencyTransmon => &FIVE_FREQUENCIES_GHZ,
            HardwareFamily::TunableCoupler => &TUNABLE_COUPLER_FREQUENCIES_GHZ,
            HardwareFamily::HeavyHex => &HEAVY_HEX_FREQUENCIES_GHZ,
        }
    }

    /// The family's collision thresholds. Tunable couplers can detune a
    /// near-collision away unless the qubits land almost exactly on the
    /// condition, so they run the paper's conditions at half width with
    /// the slightly softer anharmonicity typical of coupler-mediated
    /// devices; heavy-hex shares the paper's junction physics.
    pub fn collision_params(self) -> CollisionParams {
        match self {
            HardwareFamily::FixedFrequencyTransmon | HardwareFamily::HeavyHex => {
                CollisionParams::default()
            }
            HardwareFamily::TunableCoupler => CollisionParams {
                anharmonicity_ghz: -0.300,
                t_degenerate_ghz: 0.009,
                t_half_ghz: 0.002,
                t_full_ghz: 0.013,
                t_two_photon_ghz: 0.009,
            },
        }
    }

    /// The fabrication-noise width the yield model simulates for a
    /// design-time `sigma_ghz`. A tunable coupler re-centers a deviation
    /// up to its 30 MHz detuning range after fabrication, modelled as
    /// half the raw width left over; the other families sample the
    /// configured width. This value (not the family itself) decides
    /// whether two batch candidates may share a fabrication-noise trial
    /// stream ([`crate::batch`]): fixed-frequency and heavy-hex map a
    /// sigma identically and legitimately share streams, because their
    /// estimates differ only in the collision check.
    pub fn effective_sigma_ghz(self, sigma_ghz: f64) -> f64 {
        match self {
            HardwareFamily::TunableCoupler => 0.5 * sigma_ghz,
            HardwareFamily::FixedFrequencyTransmon | HardwareFamily::HeavyHex => sigma_ghz,
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fnv64;

    #[test]
    fn default_family_reports_the_pre_refactor_constants() {
        let f = HardwareFamily::FixedFrequencyTransmon;
        assert_eq!(f.allowed_band_ghz(), ALLOWED_BAND_GHZ);
        assert_eq!(f.pattern_frequencies_ghz(), &FIVE_FREQUENCIES_GHZ);
        assert_eq!(f.collision_params(), CollisionParams::default());
        assert_eq!(f.effective_sigma_ghz(0.030), 0.030);
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
        }
        assert_eq!(HardwareFamily::parse("fluxonium"), None);
    }

    #[test]
    fn every_menu_is_inside_its_band_and_well_formed() {
        for f in HardwareFamily::ALL {
            let (lo, hi) = f.allowed_band_ghz();
            assert!(lo < hi, "{f:?}: band not ordered");
            let menu = f.pattern_frequencies_ghz();
            assert!(!menu.is_empty(), "{f:?}: empty menu");
            for &v in menu {
                assert!((lo..=hi).contains(&v), "{f:?}: menu value {v} out of band");
            }
            let p = f.collision_params();
            assert!(p.anharmonicity_ghz < 0.0, "{f:?}: anharmonicity must be negative");
            for t in [p.t_degenerate_ghz, p.t_half_ghz, p.t_full_ghz, p.t_two_photon_ghz] {
                assert!(t > 0.0 && t.is_finite(), "{f:?}: bad threshold {t}");
            }
            assert!(f.effective_sigma_ghz(0.0) == 0.0, "{f:?}: sigma map not zero-preserving");
            assert!(f.effective_sigma_ghz(0.030) <= 0.030, "{f:?}: tuning cannot add noise");
        }
    }

    #[test]
    fn tunable_coupler_relaxes_the_default_thresholds() {
        let tc = HardwareFamily::TunableCoupler;
        let fixed = CollisionParams::default();
        assert!(tc.collision_params().t_degenerate_ghz < fixed.t_degenerate_ghz);
        assert!(tc.collision_params().t_full_ghz < fixed.t_full_ghz);
        assert!(tc.effective_sigma_ghz(0.030) < 0.030);
    }
}
