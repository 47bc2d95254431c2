//! The end-to-end design flow (paper Figure 1).
//!
//! [`DesignFlow`] is a thin facade over a [`StagePlan`]: it holds one
//! stage struct per subroutine ([`PlacementStage`], [`BusOrderStage`],
//! [`AssembleStage`]) carrying that subroutine's knobs, and serves each
//! through the plan's content-keyed cache, so repeated calls — and
//! calls differing only in downstream knobs — skip the upstream work.
//! Assembly is batch-first: a single design is a batch of one
//! [`StagePlan::assemble_batch`], a series is one batch.
//! Caching is bit-transparent: every stage is a pure function of its
//! content key, and the workspace equivalence tests compare the facade
//! against a monolithic oracle built from the public subroutines.

use std::sync::Arc;

use qpd_profile::CouplingProfile;
use qpd_topology::{Architecture, Square};
use qpd_yield::HardwareFamily;

use crate::error::DesignError;
use crate::stage::{AssembleJob, AssembleStage, BusOrderStage, PlacementStage, StagePlan};

/// How the flow assigns qubit frequencies (paper §5.2's configurations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrequencyStrategy {
    /// Algorithm 3: center-out local-yield search (`eff-full`).
    Optimized,
    /// IBM's 5-frequency lattice pattern (`eff-5-freq`,
    /// `eff-layout-only`).
    FiveFrequency,
}

/// How the flow selects 4-qubit bus squares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusStrategy {
    /// Algorithm 2: filtered cross-coupling weight (`eff-full`).
    Weighted,
    /// Uniform random selection under the prohibited condition
    /// (`eff-rd-bus`).
    Random {
        /// Seed for the random square choice.
        seed: u64,
    },
}

/// The composed design flow: profile in, architecture (series) out.
///
/// Internally a facade over a [`StagePlan`]: every `design*` call runs
/// the placement → bus → frequency cascade through per-stage
/// content-keyed caches. Clones share the plan (an `Arc`), so a cloned
/// flow — e.g. the same flow with a different frequency strategy —
/// reuses every upstream result; sharing is always safe because stage
/// keys embed the full stage configuration.
#[derive(Debug, Clone)]
pub struct DesignFlow {
    placement: PlacementStage,
    bus: BusOrderStage,
    assemble: AssembleStage,
    plan: Arc<StagePlan>,
}

impl Default for DesignFlow {
    fn default() -> Self {
        Self::new()
    }
}

impl DesignFlow {
    /// The paper's full flow: weighted bus selection and optimized
    /// frequency allocation, with no cap on the number of 4-qubit buses.
    pub fn new() -> Self {
        DesignFlow {
            placement: PlacementStage { auxiliary_qubits: 0 },
            bus: BusOrderStage { strategy: BusStrategy::Weighted, max_buses: None },
            assemble: AssembleStage {
                frequency: FrequencyStrategy::Optimized,
                allocation_trials: 4_000,
                allocation_sweeps: 8,
                allocation_seed: 0,
                sigma_ghz: qpd_yield::FabricationModel::PAPER_SIGMA_GHZ,
                name_prefix: "eff".into(),
                hardware: HardwareFamily::FixedFrequencyTransmon,
            },
            plan: Arc::new(StagePlan::new()),
        }
    }

    /// The stage plan (and its caches) this flow runs through. Exposed
    /// for cache statistics and for explicit cache management.
    pub fn plan(&self) -> &StagePlan {
        &self.plan
    }

    /// Attaches this flow to an existing (shared) stage plan: every
    /// `design*` call is then served through — and populates — the given
    /// caches. Sharing across flows with different knobs is always safe
    /// because stage keys embed the full stage configuration; the
    /// evaluation runner uses this to route every benchmark of a run
    /// through one plan.
    pub fn with_plan(mut self, plan: Arc<StagePlan>) -> Self {
        self.plan = plan;
        self
    }

    /// Sets the hardware family the flow designs for: its frequency
    /// band, pattern menu, and collision constraints flow into the
    /// frequency/assembly stage (placement and bus selection are
    /// hardware-independent). The default family reproduces the
    /// pre-hardware-layer flow bit for bit.
    pub fn with_hardware(mut self, hardware: HardwareFamily) -> Self {
        self.assemble.hardware = hardware;
        self
    }

    /// Sets the bus selection strategy.
    pub fn with_bus_strategy(mut self, strategy: BusStrategy) -> Self {
        self.bus.strategy = strategy;
        self
    }

    /// Sets the frequency strategy.
    pub fn with_frequency_strategy(mut self, strategy: FrequencyStrategy) -> Self {
        self.assemble.frequency = strategy;
        self
    }

    /// Caps the number of 4-qubit buses (`None` = as many as beneficial).
    pub fn with_max_buses(mut self, max: Option<usize>) -> Self {
        self.bus.max_buses = max;
        self
    }

    /// Adds auxiliary physical qubits around the placed layout (paper
    /// §6, "Exploring More Design Space"): they host no logical qubit
    /// but give the router extra freedom, trading yield for performance.
    pub fn with_auxiliary_qubits(mut self, count: usize) -> Self {
        self.placement.auxiliary_qubits = count;
        self
    }

    /// Sets the Monte Carlo trial count used inside frequency allocation.
    ///
    /// # Panics
    ///
    /// Panics if `trials` is zero.
    pub fn with_allocation_trials(mut self, trials: usize) -> Self {
        assert!(trials > 0, "need at least one trial");
        self.assemble.allocation_trials = trials;
        self
    }

    /// Sets the refinement sweep budget of frequency allocation
    /// (0 = the paper's single-pass Algorithm 3).
    pub fn with_allocation_sweeps(mut self, sweeps: usize) -> Self {
        self.assemble.allocation_sweeps = sweeps;
        self
    }

    /// Sets the seed for frequency allocation's local simulations.
    pub fn with_allocation_seed(mut self, seed: u64) -> Self {
        self.assemble.allocation_seed = seed;
        self
    }

    /// Sets the fabrication precision assumed during frequency allocation.
    pub fn with_sigma_ghz(mut self, sigma_ghz: f64) -> Self {
        self.assemble.sigma_ghz = sigma_ghz;
        self
    }

    /// Sets the prefix for generated architecture names.
    pub fn with_name_prefix(mut self, prefix: impl Into<String>) -> Self {
        self.assemble.name_prefix = prefix.into();
        self
    }

    /// The configured bus-selection strategy.
    pub fn bus_strategy(&self) -> BusStrategy {
        self.bus.strategy
    }

    /// The configured frequency strategy.
    pub fn frequency_strategy(&self) -> FrequencyStrategy {
        self.assemble.frequency
    }

    /// The configured 4-qubit-bus cap (`None` = uncapped).
    pub fn max_buses(&self) -> Option<usize> {
        self.bus.max_buses
    }

    /// The configured auxiliary-qubit count.
    pub fn auxiliary_qubits(&self) -> usize {
        self.placement.auxiliary_qubits
    }

    /// The configured Monte Carlo trial count of frequency allocation.
    pub fn allocation_trials(&self) -> usize {
        self.assemble.allocation_trials
    }

    /// The configured refinement sweep budget of frequency allocation.
    pub fn allocation_sweeps(&self) -> usize {
        self.assemble.allocation_sweeps
    }

    /// The configured frequency-allocation seed.
    pub fn allocation_seed(&self) -> u64 {
        self.assemble.allocation_seed
    }

    /// The configured fabrication precision in GHz.
    pub fn sigma_ghz(&self) -> f64 {
        self.assemble.sigma_ghz
    }

    /// The configured hardware family.
    pub fn hardware(&self) -> HardwareFamily {
        self.assemble.hardware
    }

    /// Runs the full flow with the maximum beneficial number of 4-qubit
    /// buses (subject to [`Self::with_max_buses`]).
    ///
    /// # Errors
    ///
    /// Returns [`DesignError::EmptyProgram`] for a 0-qubit profile.
    pub fn design(&self, profile: &CouplingProfile) -> Result<Architecture, DesignError> {
        self.design_with_buses(profile, usize::MAX)
    }

    /// Runs the flow with exactly `num_buses` 4-qubit buses (clamped to
    /// the number of available squares).
    ///
    /// # Errors
    ///
    /// Returns [`DesignError::EmptyProgram`] for a 0-qubit profile.
    pub fn design_with_buses(
        &self,
        profile: &CouplingProfile,
        num_buses: usize,
    ) -> Result<Architecture, DesignError> {
        let (coords, order) = self.layout(profile)?;
        let squares = &order[..num_buses.min(order.len())];
        let job = AssembleJob { stage: &self.assemble, coords: &coords, squares };
        Ok(self.plan.assemble_batch(&[job])?.remove(0))
    }

    /// Runs the flow once per bus count `0..=max`, returning the paper's
    /// performance/yield series (the blue `eff-full` curves of
    /// Figure 10). The whole series is one
    /// [`StagePlan::assemble_batch`] submission, so its allocations run
    /// seed-major and share their noise planes.
    ///
    /// # Errors
    ///
    /// Returns [`DesignError::EmptyProgram`] for a 0-qubit profile.
    pub fn design_series(
        &self,
        profile: &CouplingProfile,
    ) -> Result<Vec<Architecture>, DesignError> {
        let (coords, order) = self.layout(profile)?;
        let jobs: Vec<AssembleJob<'_>> = (0..=order.len())
            .map(|k| AssembleJob { stage: &self.assemble, coords: &coords, squares: &order[..k] })
            .collect();
        self.plan.assemble_batch(&jobs)
    }

    /// The qubit placement only (exposed for the `eff-layout-only`
    /// configuration and diagnostics).
    ///
    /// # Errors
    ///
    /// Returns [`DesignError::EmptyProgram`] for a 0-qubit profile.
    pub fn place(
        &self,
        profile: &CouplingProfile,
    ) -> Result<Vec<qpd_topology::Coord>, DesignError> {
        let key = self.placement.key(profile);
        let coords = self
            .plan
            .placement_cache()
            .run_batch(&[key], |_| self.placement.run(profile).map(|coords| vec![coords]));
        coords.map(|mut one| one.remove(0))
    }

    /// The bus selection order for this flow's strategy: prefixes of the
    /// returned vector are the selections for smaller budgets.
    ///
    /// # Errors
    ///
    /// Returns [`DesignError::EmptyProgram`] for a 0-qubit profile.
    pub fn bus_order(&self, profile: &CouplingProfile) -> Result<Vec<Square>, DesignError> {
        self.layout(profile).map(|(_, order)| order)
    }

    /// The placement and the bus selection order on it, from one probe
    /// of the placement table: what every design needs before assembly.
    ///
    /// # Errors
    ///
    /// Returns [`DesignError::EmptyProgram`] for a 0-qubit profile.
    pub fn layout(
        &self,
        profile: &CouplingProfile,
    ) -> Result<(Vec<qpd_topology::Coord>, Vec<Square>), DesignError> {
        let coords = self.place(profile)?;
        let key = self.bus.key(&coords, profile);
        let order = self
            .plan
            .bus_cache()
            .run_batch(&[key], |_| Ok::<_, DesignError>(vec![self.bus.run(&coords, profile)]))?;
        Ok((coords, order.into_iter().next().expect("one key in, one order out")))
    }

    /// The frequency/assembly stage this flow's knobs configure — what
    /// callers assembling explicit layouts, or batching several flows'
    /// assembles into one [`StagePlan::assemble_batch`], put in their
    /// [`AssembleJob`]s.
    pub fn assemble_stage(&self) -> &AssembleStage {
        &self.assemble
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpd_circuit::Circuit;
    use qpd_yield::YieldSimulator;

    /// Profile with strong diagonal demand so buses get selected.
    fn grid_profile() -> CouplingProfile {
        // 6 qubits that want a 2x3 block with cross couplings.
        CouplingProfile::from_edges(
            6,
            &[
                (0, 1, 8),
                (1, 2, 8),
                (3, 4, 8),
                (4, 5, 8),
                (0, 4, 6),
                (1, 3, 6),
                (1, 5, 4),
                (2, 4, 4),
                (0, 3, 8),
                (1, 4, 8),
                (2, 5, 8),
            ],
        )
    }

    fn fast_flow() -> DesignFlow {
        DesignFlow::new().with_allocation_trials(200)
    }

    #[test]
    fn full_design_is_valid() {
        let arch = fast_flow().design(&grid_profile()).unwrap();
        assert_eq!(arch.num_qubits(), 6);
        assert!(arch.is_connected());
        assert!(arch.frequencies().is_some());
        assert!(arch.frequencies().unwrap().check_band().is_ok());
    }

    #[test]
    fn series_grows_monotonically_in_buses() {
        let series = fast_flow().design_series(&grid_profile()).unwrap();
        assert!(series.len() >= 2, "expected at least one bus option");
        for (k, arch) in series.iter().enumerate() {
            assert_eq!(arch.four_qubit_buses().len(), k);
        }
        // More buses, more coupling edges.
        for pair in series.windows(2) {
            assert!(pair[1].coupling_edges().len() > pair[0].coupling_edges().len());
        }
    }

    #[test]
    fn series_probes_the_placement_table_once() {
        let flow = fast_flow().with_frequency_strategy(FrequencyStrategy::FiveFrequency);
        flow.design_series(&grid_profile()).unwrap();
        let placement = flow.plan().placement_cache();
        assert_eq!((placement.misses(), placement.hits()), (1, 0));
    }

    #[test]
    fn chain_profile_yields_single_design() {
        // The ising special case (§5.3.1): chain coupling -> no 4-qubit
        // buses are beneficial -> a single architecture.
        let chain = CouplingProfile::from_edges(5, &[(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 4, 4)]);
        let series = fast_flow().design_series(&chain).unwrap();
        assert_eq!(series.len(), 1);
        assert!(series[0].four_qubit_buses().is_empty());
    }

    #[test]
    fn five_frequency_strategy_uses_pattern() {
        let arch = fast_flow()
            .with_frequency_strategy(FrequencyStrategy::FiveFrequency)
            .design_with_buses(&grid_profile(), 0)
            .unwrap();
        let plan = arch.frequencies().unwrap();
        for q in 0..arch.num_qubits() {
            let f = plan.ghz(q);
            assert!(
                qpd_topology::FIVE_FREQUENCIES_GHZ.iter().any(|&c| (c - f).abs() < 1e-9),
                "{f} is not a five-scheme frequency"
            );
        }
        assert!(arch.name().ends_with("-5freq"));
    }

    #[test]
    fn random_bus_strategy_is_seeded() {
        let profile = grid_profile();
        let a = fast_flow()
            .with_bus_strategy(BusStrategy::Random { seed: 3 })
            .bus_order(&profile)
            .unwrap();
        let b = fast_flow()
            .with_bus_strategy(BusStrategy::Random { seed: 3 })
            .bus_order(&profile)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn max_buses_cap_respected() {
        let arch = fast_flow().with_max_buses(Some(1)).design(&grid_profile()).unwrap();
        assert!(arch.four_qubit_buses().len() <= 1);
    }

    #[test]
    fn empty_program_errors() {
        let profile = CouplingProfile::of(&Circuit::new(0));
        assert_eq!(fast_flow().design(&profile).unwrap_err(), DesignError::EmptyProgram);
    }

    #[test]
    fn optimized_frequencies_beat_five_scheme_on_yield() {
        // §5.4.3: the frequency allocator should improve yield over the
        // 5-frequency pattern on the same (irregular) topology.
        let profile = grid_profile();
        let with_opt =
            fast_flow().with_allocation_trials(800).design_with_buses(&profile, 1).unwrap();
        let with_five = fast_flow()
            .with_frequency_strategy(FrequencyStrategy::FiveFrequency)
            .design_with_buses(&profile, 1)
            .unwrap();
        let sim = YieldSimulator::new().with_trials(4_000).with_seed(9);
        let y_opt = sim.estimate(&with_opt).unwrap().rate();
        let y_five = sim.estimate(&with_five).unwrap().rate();
        assert!(y_opt >= y_five, "optimized {y_opt} should not lose to five-frequency {y_five}");
    }

    #[test]
    fn explicit_layout_design_matches_flow() {
        // Feeding the flow's own placement and bus order back through an
        // explicit-layout batch of one reproduces `design` exactly.
        let profile = grid_profile();
        let flow = fast_flow();
        let coords = flow.place(&profile).unwrap();
        let order = flow.bus_order(&profile).unwrap();
        let job = AssembleJob { stage: flow.assemble_stage(), coords: &coords, squares: &order };
        let via_layout = StagePlan::new().assemble_batch(&[job]).unwrap();
        let via_flow = flow.design(&profile).unwrap();
        assert_eq!(via_layout, [via_flow]);
    }

    #[test]
    fn knob_accessors_reflect_configuration() {
        let flow = DesignFlow::new()
            .with_bus_strategy(BusStrategy::Random { seed: 9 })
            .with_frequency_strategy(FrequencyStrategy::FiveFrequency)
            .with_max_buses(Some(3))
            .with_auxiliary_qubits(2)
            .with_allocation_trials(77)
            .with_allocation_sweeps(4)
            .with_allocation_seed(11)
            .with_sigma_ghz(0.02);
        assert_eq!(flow.bus_strategy(), BusStrategy::Random { seed: 9 });
        assert_eq!(flow.frequency_strategy(), FrequencyStrategy::FiveFrequency);
        assert_eq!(flow.max_buses(), Some(3));
        assert_eq!(flow.auxiliary_qubits(), 2);
        assert_eq!(flow.allocation_trials(), 77);
        assert_eq!(flow.allocation_sweeps(), 4);
        assert_eq!(flow.allocation_seed(), 11);
        assert_eq!(flow.sigma_ghz(), 0.02);
    }

    /// The monolithic flow: placement, bus selection, assembly and
    /// frequency assignment called in sequence, with no stage
    /// decomposition and no caching.
    fn monolithic(flow: &DesignFlow, profile: &CouplingProfile) -> Architecture {
        use crate::bus::{select_buses_random, select_buses_weighted};
        use crate::placement::{place_auxiliary, place_qubits};
        let mut coords = place_qubits(profile);
        coords.extend(place_auxiliary(&coords, flow.auxiliary_qubits()));
        let cap = flow.max_buses().unwrap_or(usize::MAX);
        let squares = match flow.bus_strategy() {
            BusStrategy::Weighted => select_buses_weighted(&coords, profile, cap),
            BusStrategy::Random { seed } => select_buses_random(&coords, cap, seed),
        };
        let five = flow.frequency_strategy() == FrequencyStrategy::FiveFrequency;
        let name = format!(
            "{}{}-{}q-b{}{}",
            flow.assemble_stage().name_prefix,
            flow.hardware().name_suffix(),
            coords.len(),
            squares.len(),
            if five { "-5freq" } else { "" }
        );
        let mut builder = Architecture::builder(name);
        builder.qubits(coords.iter().copied());
        for &s in &squares {
            builder.four_qubit_bus_at(s);
        }
        let arch = builder.build().unwrap();
        let plan = if five {
            qpd_topology::pattern_frequency_plan(&arch, flow.hardware().pattern_frequencies_ghz())
        } else {
            crate::freq::FrequencyAllocator::new()
                .with_hardware(flow.hardware())
                .with_trials(flow.allocation_trials())
                .with_refinement_sweeps(flow.allocation_sweeps())
                .with_sigma_ghz(flow.sigma_ghz())
                .with_seed(flow.allocation_seed())
                .allocate(&arch)
        };
        arch.with_frequencies_in_band(plan, flow.hardware().allowed_band_ghz()).unwrap()
    }

    #[test]
    fn facade_matches_the_monolithic_reference() {
        // The stage-graph facade must be bit-identical to the monolithic
        // oracle, cold and warm, on every hardware family (the
        // workspace-level proptests widen this over random profiles and
        // knobs).
        let profile = grid_profile();
        let flows = [
            fast_flow(),
            fast_flow().with_frequency_strategy(FrequencyStrategy::FiveFrequency),
            fast_flow().with_bus_strategy(BusStrategy::Random { seed: 5 }).with_auxiliary_qubits(1),
        ];
        let families = HardwareFamily::ALL.map(|family| fast_flow().with_hardware(family));
        for flow in flows.into_iter().chain(families) {
            let reference = monolithic(&flow, &profile);
            let cold = flow.design(&profile).unwrap();
            let warm = flow.design(&profile).unwrap();
            assert_eq!(cold, reference);
            assert_eq!(warm, reference);
        }
    }

    #[test]
    fn clones_share_the_stage_plan() {
        // A frequency-only variant of a flow reuses the placement and
        // bus work of the original: the load-bearing property for the
        // explorer's freq-only moves.
        let profile = grid_profile();
        let flow = fast_flow();
        flow.design(&profile).unwrap();
        let assemble_misses = flow.plan().assemble_cache().misses();
        let five = flow.clone().with_frequency_strategy(FrequencyStrategy::FiveFrequency);
        five.design(&profile).unwrap();
        let stats = five.plan().stats();
        // Placement and bus selection were served from the shared cache…
        assert_eq!(stats[0].kind, crate::stage::StageKind::Placement);
        assert!(stats[0].hits >= 1, "placement re-ran on a freq-only change");
        assert!(stats[1].hits >= 1, "bus selection re-ran on a freq-only change");
        // …while the frequency stage (different strategy => new key) ran.
        assert!(five.plan().assemble_cache().misses() > assemble_misses);
    }

    #[test]
    fn hardware_family_threads_through_facade() {
        let profile = grid_profile();
        for family in HardwareFamily::ALL {
            let flow = fast_flow().with_hardware(family);
            assert_eq!(flow.hardware(), family);
            let facade = flow.design_with_buses(&profile, 0).unwrap();
            // The plan lands in the family band.
            let band = family.allowed_band_ghz();
            assert!(facade.frequencies().unwrap().check_band_within(band).is_ok());
            let suffix = family.name_suffix();
            assert!(
                facade.name().starts_with(&format!("eff{suffix}-")),
                "name {} missing family suffix {suffix:?}",
                facade.name()
            );
        }
        // Families produce genuinely different designs.
        let fixed = fast_flow().design_with_buses(&profile, 0).unwrap();
        let tc = fast_flow()
            .with_hardware(HardwareFamily::TunableCoupler)
            .design_with_buses(&profile, 0)
            .unwrap();
        assert_ne!(fixed.frequencies(), tc.frequencies());
    }

    #[test]
    fn with_plan_shares_caches_across_flows() {
        // Satellite: the evaluation runner routes every benchmark flow
        // through one plan. Two flows built independently but attached
        // to the same plan must reuse each other's upstream work.
        let profile = grid_profile();
        let plan = Arc::new(crate::stage::StagePlan::new());
        let a = fast_flow().with_plan(Arc::clone(&plan));
        a.design_with_buses(&profile, 0).unwrap();
        let misses = plan.placement_cache().misses();
        let b = fast_flow()
            .with_frequency_strategy(FrequencyStrategy::FiveFrequency)
            .with_plan(Arc::clone(&plan));
        b.design_with_buses(&profile, 0).unwrap();
        assert_eq!(plan.placement_cache().misses(), misses, "placement re-ran");
        assert!(plan.placement_cache().hits() >= 1);
    }

    #[test]
    fn naming_scheme() {
        let arch =
            fast_flow().with_name_prefix("demo").design_with_buses(&grid_profile(), 0).unwrap();
        assert_eq!(arch.name(), "demo-6q-b0");
    }

    #[test]
    fn auxiliary_qubits_extend_the_chip() {
        let profile = grid_profile();
        let plain = fast_flow().design_with_buses(&profile, 0).unwrap();
        let extended = fast_flow().with_auxiliary_qubits(2).design_with_buses(&profile, 0).unwrap();
        assert_eq!(extended.num_qubits(), plain.num_qubits() + 2);
        assert!(extended.is_connected());
        assert!(extended.coupling_edges().len() > plain.coupling_edges().len());
        // Yield can only suffer from the extra hardware.
        let sim = YieldSimulator::new().with_trials(4_000).with_seed(4);
        let y_plain = sim.estimate(&plain).unwrap().rate();
        let y_ext = sim.estimate(&extended).unwrap().rate();
        assert!(y_ext <= y_plain + 0.03, "{y_ext} vs {y_plain}");
    }
}
