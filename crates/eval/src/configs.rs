//! The five experiment configurations of paper §5.2.

use std::fmt;
use std::sync::Arc;

use qpd_core::{AssembleJob, AssembleStage, BusStrategy, DesignFlow, FrequencyStrategy, StagePlan};
use qpd_profile::CouplingProfile;
use qpd_topology::{ibm, pattern_frequency_plan, Architecture, Coord, Square};

use crate::runner::{EvalError, EvalSettings};

/// Which experiment configuration produced a data point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConfigKind {
    /// IBM's four general-purpose baselines (Figure 9).
    Ibm,
    /// The full design flow: layout + weighted buses + optimized
    /// frequencies.
    EffFull,
    /// Layout + weighted buses, but IBM's 5-frequency scheme.
    Eff5Freq,
    /// Layout + random buses + optimized frequencies.
    EffRdBus,
    /// Layout only: 2-qubit buses or maximal 4-qubit buses, 5-frequency
    /// scheme.
    EffLayoutOnly,
}

impl ConfigKind {
    /// The paper's name for this configuration.
    pub fn label(self) -> &'static str {
        match self {
            ConfigKind::Ibm => "ibm",
            ConfigKind::EffFull => "eff-full",
            ConfigKind::Eff5Freq => "eff-5-freq",
            ConfigKind::EffRdBus => "eff-rd-bus",
            ConfigKind::EffLayoutOnly => "eff-layout-only",
        }
    }

    /// All five configurations in the paper's presentation order.
    pub fn all() -> [ConfigKind; 5] {
        [
            ConfigKind::Ibm,
            ConfigKind::EffFull,
            ConfigKind::EffRdBus,
            ConfigKind::Eff5Freq,
            ConfigKind::EffLayoutOnly,
        ]
    }
}

impl fmt::Display for ConfigKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Generates the architectures a configuration contributes for one
/// profiled benchmark: [`generate`] for a single kind.
///
/// # Errors
///
/// Propagates design-flow failures ([`EvalError::Design`]).
pub fn architectures(
    kind: ConfigKind,
    profile: &CouplingProfile,
    settings: &EvalSettings,
    plan: &Arc<StagePlan>,
) -> Result<Vec<Architecture>, EvalError> {
    Ok(generate(&[kind], profile, settings, plan)?.pop().expect("one kind in, one list out"))
}

/// One assemble request of an `eff-*` configuration: the flow's
/// assemble stage plus the layout it assembles.
struct EffJob {
    /// Index of the configuration in the caller's `kinds`.
    kind: usize,
    stage: AssembleStage,
    coords: Vec<Coord>,
    squares: Vec<Square>,
}

/// Generates the architectures of every configuration in `kinds`, one
/// list per kind in order. Every design flow attaches to `plan`, the
/// benchmark's shared stage plan: the configurations place the same
/// profile, so the placement is computed once per benchmark. The
/// `eff-*` configurations contribute job lists — the `eff-full` and
/// `eff-5-freq` bus series and the `eff-rd-bus` samples — that are
/// assembled as **one** [`StagePlan::assemble_batch`], so all of the
/// program's optimized allocations run seed-major over one set of noise
/// planes.
///
/// # Errors
///
/// Propagates design-flow failures ([`EvalError::Design`]).
pub fn generate(
    kinds: &[ConfigKind],
    profile: &CouplingProfile,
    settings: &EvalSettings,
    plan: &Arc<StagePlan>,
) -> Result<Vec<Vec<Architecture>>, EvalError> {
    let base_flow =
        || DesignFlow::new().with_plan(Arc::clone(plan)).with_hardware(settings.hardware);
    let optimized = || {
        base_flow()
            .with_allocation_trials(settings.alloc_trials)
            .with_allocation_seed(settings.seed)
            .with_sigma_ghz(settings.sigma_ghz)
    };
    let mut out: Vec<Vec<Architecture>> = vec![Vec::new(); kinds.len()];
    let mut jobs: Vec<EffJob> = Vec::new();
    // Every bus-count prefix of the flow's order: the Figure 10 series.
    let series = |kind: usize, flow: DesignFlow, jobs: &mut Vec<EffJob>| {
        let coords = flow.place(profile)?;
        let order = flow.bus_order(profile)?;
        let stage = flow.assemble_stage();
        jobs.extend((0..=order.len()).map(|k| EffJob {
            kind,
            stage: stage.clone(),
            coords: coords.clone(),
            squares: order[..k].to_vec(),
        }));
        Ok::<_, EvalError>(())
    };
    for (i, &kind) in kinds.iter().enumerate() {
        match kind {
            ConfigKind::Ibm => out[i] = ibm::all_baselines().to_vec(),
            ConfigKind::EffFull => series(i, optimized(), &mut jobs)?,
            ConfigKind::Eff5Freq => {
                let flow = base_flow()
                    .with_frequency_strategy(FrequencyStrategy::FiveFrequency)
                    .with_name_prefix("eff5");
                series(i, flow, &mut jobs)?;
            }
            ConfigKind::EffRdBus => {
                // One point per sample: a seeded random bus set whose
                // size sweeps the available range, so the samples
                // scatter across the trade-off plane like the paper's
                // orange points.
                let coords = base_flow().place(profile)?;
                let max = qpd_core::select_buses_maximal(&coords).len();
                for s in 0..settings.rd_bus_samples {
                    let budget =
                        if max == 0 { 0 } else { 1 + s * max / settings.rd_bus_samples.max(1) };
                    if budget == 0 {
                        continue;
                    }
                    let flow = optimized()
                        .with_bus_strategy(BusStrategy::Random { seed: settings.seed + s as u64 })
                        .with_max_buses(Some(budget))
                        .with_name_prefix(format!("effrd{s}"));
                    let squares = flow.bus_order(profile)?;
                    let stage = flow.assemble_stage();
                    jobs.push(EffJob { kind: i, stage, coords: coords.clone(), squares });
                }
            }
            ConfigKind::EffLayoutOnly => {
                out[i] = layout_only(&base_flow().place(profile)?, profile, settings)?;
            }
        }
    }
    let batch: Vec<AssembleJob<'_>> = jobs
        .iter()
        .map(|j| AssembleJob { stage: &j.stage, coords: &j.coords, squares: &j.squares })
        .collect();
    for (job, arch) in jobs.iter().zip(plan.assemble_batch(&batch)?) {
        out[job.kind].push(arch);
    }
    Ok(out)
}

/// The `eff-layout-only` pair on the placed `coords`: 2-qubit buses
/// only, and as many 4-qubit buses as possible, both on the family's
/// frequency pattern.
fn layout_only(
    coords: &[Coord],
    profile: &CouplingProfile,
    settings: &EvalSettings,
) -> Result<Vec<Architecture>, EvalError> {
    let model = settings.hardware.model();
    let menu = model.pattern_frequencies_ghz();
    let band = model.allowed_band_ghz();
    let mut out = Vec::new();
    // Option A: 2-qubit buses only.
    let mut builder = Architecture::builder(format!("efflayout-{}q-2qbus", profile.num_qubits()));
    builder.qubits(coords.iter().copied());
    let plain = builder.build().map_err(qpd_core::DesignError::from)?;
    let freqs = pattern_frequency_plan(&plain, menu);
    out.push(plain.with_frequencies_in_band(freqs, band).map_err(qpd_core::DesignError::from)?);
    // Option B: as many 4-qubit buses as possible.
    let mut builder = Architecture::builder(format!("efflayout-{}q-max4q", profile.num_qubits()));
    builder.qubits(coords.iter().copied());
    for s in qpd_core::select_buses_maximal(coords) {
        builder.four_qubit_bus_at(s);
    }
    let dense = builder.build().map_err(qpd_core::DesignError::from)?;
    let freqs = pattern_frequency_plan(&dense, menu);
    out.push(dense.with_frequencies_in_band(freqs, band).map_err(qpd_core::DesignError::from)?);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> CouplingProfile {
        CouplingProfile::from_edges(
            6,
            &[(0, 1, 8), (1, 2, 8), (3, 4, 8), (4, 5, 8), (0, 4, 6), (1, 3, 6), (1, 4, 8)],
        )
    }

    fn quick() -> EvalSettings {
        EvalSettings::quick()
    }

    fn designs(kind: ConfigKind, settings: &EvalSettings) -> Vec<Architecture> {
        architectures(kind, &profile(), settings, &Arc::new(StagePlan::new())).unwrap()
    }

    #[test]
    fn one_batch_over_all_kinds_matches_per_kind_generation() {
        // run_circuit's shape: every configuration's assembles in one
        // batch, against per-kind batches on fresh plans.
        let kinds = ConfigKind::all();
        let plan = Arc::new(StagePlan::new());
        let together = generate(&kinds, &profile(), &quick(), &plan).unwrap();
        for (kind, archs) in kinds.iter().zip(&together) {
            assert_eq!(archs, &designs(*kind, &quick()), "{kind}");
        }
    }

    #[test]
    fn labels() {
        assert_eq!(ConfigKind::EffFull.label(), "eff-full");
        assert_eq!(ConfigKind::all().len(), 5);
        assert_eq!(ConfigKind::Ibm.to_string(), "ibm");
    }

    #[test]
    fn ibm_contributes_four() {
        assert_eq!(designs(ConfigKind::Ibm, &quick()).len(), 4);
    }

    #[test]
    fn eff_full_series_has_bus_range() {
        let archs = designs(ConfigKind::EffFull, &quick());
        assert!(!archs.is_empty());
        assert_eq!(archs[0].four_qubit_buses().len(), 0);
        for a in &archs {
            assert!(a.frequencies().is_some());
        }
    }

    #[test]
    fn layout_only_has_two_options() {
        let archs = designs(ConfigKind::EffLayoutOnly, &quick());
        assert_eq!(archs.len(), 2);
        assert!(archs[0].four_qubit_buses().is_empty());
        assert!(archs[1].four_qubit_buses().len() >= archs[0].four_qubit_buses().len());
    }

    #[test]
    fn rd_bus_samples_are_bounded() {
        let archs = designs(ConfigKind::EffRdBus, &quick());
        assert!(archs.len() <= quick().rd_bus_samples);
        for a in &archs {
            assert!(!a.four_qubit_buses().is_empty());
        }
    }

    #[test]
    fn shared_plan_places_once_across_configurations() {
        // Satellite of the hardware refactor: the per-benchmark plan is
        // shared, so the second configuration's placement is a cache
        // hit, not a recomputation.
        let plan = Arc::new(StagePlan::new());
        let p = profile();
        architectures(ConfigKind::EffFull, &p, &quick(), &plan).unwrap();
        let misses_after_first = plan.stats().iter().map(|s| s.misses).sum::<u64>();
        architectures(ConfigKind::Eff5Freq, &p, &quick(), &plan).unwrap();
        let placement =
            plan.stats().into_iter().find(|s| s.kind == qpd_core::StageKind::Placement).unwrap();
        assert!(placement.hits > 0, "second configuration re-placed the profile");
        assert!(misses_after_first > 0);
    }

    #[test]
    fn hardware_family_reshapes_the_designs() {
        use qpd_yield::HardwareFamily;
        let fixed = designs(ConfigKind::EffLayoutOnly, &quick());
        let hh =
            designs(ConfigKind::EffLayoutOnly, &quick().with_hardware(HardwareFamily::HeavyHex));
        let (lo, hi) = HardwareFamily::HeavyHex.model().allowed_band_ghz();
        let freqs = |a: &Architecture| a.frequencies().unwrap().as_slice().to_vec();
        assert_ne!(freqs(&fixed[0]), freqs(&hh[0]), "family change left the plan unchanged");
        for f in freqs(&hh[0]) {
            assert!((lo..=hi).contains(&f), "{f} outside the heavy-hex band");
        }
    }
}
