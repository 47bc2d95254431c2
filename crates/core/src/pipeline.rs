//! The end-to-end design flow (paper Figure 1).
//!
//! Since the stage-graph refactor, [`DesignFlow`] is a thin facade over
//! a [`StagePlan`]: each subroutine (placement, bus selection,
//! frequency allocation + assembly) is a [`crate::stage::Stage`] served
//! through a per-stage content-keyed cache, so repeated calls — and
//! calls differing only in downstream knobs — skip the upstream work.
//! Caching is bit-transparent: every stage is a pure function of its
//! content key, and [`DesignFlow::design_reference`] retains the
//! monolithic computation the equivalence tests compare against.

use std::sync::Arc;

use qpd_profile::CouplingProfile;
use qpd_topology::{pattern_frequency_plan, Architecture, FrequencyPlan, Square};
use qpd_yield::HardwareFamily;

use crate::bus::{select_buses_random, select_buses_weighted};
use crate::error::DesignError;
use crate::freq::FrequencyAllocator;
use crate::placement::place_qubits;
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

/// One layout of a batched back-half submission
/// ([`DesignFlow::design_with_layout_batch`]): an explicit layout plus
/// the per-candidate knobs (frequency strategy, hardware family) that
/// override the base flow's for this job.
#[derive(Debug, Clone, Copy)]
pub struct LayoutJob<'a> {
    /// Qubit coordinates.
    pub coords: &'a [qpd_topology::Coord],
    /// Four-qubit bus squares.
    pub squares: &'a [Square],
    /// Frequency strategy for this job.
    pub frequency: FrequencyStrategy,
    /// Hardware family for this job.
    pub hardware: HardwareFamily,
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
    bus_strategy: BusStrategy,
    frequency: FrequencyStrategy,
    max_buses: Option<usize>,
    auxiliary_qubits: usize,
    allocation_trials: usize,
    allocation_sweeps: usize,
    allocation_seed: u64,
    sigma_ghz: f64,
    name_prefix: String,
    hardware: HardwareFamily,
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
            bus_strategy: BusStrategy::Weighted,
            frequency: FrequencyStrategy::Optimized,
            max_buses: None,
            auxiliary_qubits: 0,
            allocation_trials: 4_000,
            allocation_sweeps: 8,
            allocation_seed: 0,
            sigma_ghz: qpd_yield::FabricationModel::PAPER_SIGMA_GHZ,
            name_prefix: "eff".into(),
            hardware: HardwareFamily::FixedFrequencyTransmon,
            plan: Arc::new(StagePlan::new()),
        }
    }

    /// The stage plan (and its caches) this flow runs through. Exposed
    /// for cache statistics and for explicit cache management.
    pub fn plan(&self) -> &StagePlan {
        &self.plan
    }

    /// Replaces the stage plan with a fresh one whose caches hold at
    /// most `cap` entries each (`None` = unbounded). Detaches this flow
    /// from any plan shared with earlier clones; caching stays
    /// bit-transparent at every cap because stages are pure.
    pub fn with_memo_cap(mut self, cap: Option<usize>) -> Self {
        self.plan = Arc::new(StagePlan::with_cap(cap));
        self
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
        self.hardware = hardware;
        self
    }

    /// Sets the bus selection strategy.
    pub fn with_bus_strategy(mut self, strategy: BusStrategy) -> Self {
        self.bus_strategy = strategy;
        self
    }

    /// Sets the frequency strategy.
    pub fn with_frequency_strategy(mut self, strategy: FrequencyStrategy) -> Self {
        self.frequency = strategy;
        self
    }

    /// Caps the number of 4-qubit buses (`None` = as many as beneficial).
    pub fn with_max_buses(mut self, max: Option<usize>) -> Self {
        self.max_buses = max;
        self
    }

    /// Adds auxiliary physical qubits around the placed layout (paper
    /// §6, "Exploring More Design Space"): they host no logical qubit
    /// but give the router extra freedom, trading yield for performance.
    pub fn with_auxiliary_qubits(mut self, count: usize) -> Self {
        self.auxiliary_qubits = count;
        self
    }

    /// Sets the Monte Carlo trial count used inside frequency allocation.
    ///
    /// # Panics
    ///
    /// Panics if `trials` is zero.
    pub fn with_allocation_trials(mut self, trials: usize) -> Self {
        assert!(trials > 0, "need at least one trial");
        self.allocation_trials = trials;
        self
    }

    /// Sets the refinement sweep budget of frequency allocation
    /// (0 = the paper's single-pass Algorithm 3).
    pub fn with_allocation_sweeps(mut self, sweeps: usize) -> Self {
        self.allocation_sweeps = sweeps;
        self
    }

    /// Sets the seed for frequency allocation's local simulations.
    pub fn with_allocation_seed(mut self, seed: u64) -> Self {
        self.allocation_seed = seed;
        self
    }

    /// Sets the fabrication precision assumed during frequency allocation.
    pub fn with_sigma_ghz(mut self, sigma_ghz: f64) -> Self {
        self.sigma_ghz = sigma_ghz;
        self
    }

    /// Sets the prefix for generated architecture names.
    pub fn with_name_prefix(mut self, prefix: impl Into<String>) -> Self {
        self.name_prefix = prefix.into();
        self
    }

    /// The configured bus-selection strategy.
    pub fn bus_strategy(&self) -> BusStrategy {
        self.bus_strategy
    }

    /// The configured frequency strategy.
    pub fn frequency_strategy(&self) -> FrequencyStrategy {
        self.frequency
    }

    /// The configured 4-qubit-bus cap (`None` = uncapped).
    pub fn max_buses(&self) -> Option<usize> {
        self.max_buses
    }

    /// The configured auxiliary-qubit count.
    pub fn auxiliary_qubits(&self) -> usize {
        self.auxiliary_qubits
    }

    /// The configured Monte Carlo trial count of frequency allocation.
    pub fn allocation_trials(&self) -> usize {
        self.allocation_trials
    }

    /// The configured refinement sweep budget of frequency allocation.
    pub fn allocation_sweeps(&self) -> usize {
        self.allocation_sweeps
    }

    /// The configured frequency-allocation seed.
    pub fn allocation_seed(&self) -> u64 {
        self.allocation_seed
    }

    /// The configured fabrication precision in GHz.
    pub fn sigma_ghz(&self) -> f64 {
        self.sigma_ghz
    }

    /// The configured hardware family.
    pub fn hardware(&self) -> HardwareFamily {
        self.hardware
    }

    /// Runs the full flow with the maximum beneficial number of 4-qubit
    /// buses (subject to [`Self::with_max_buses`]).
    ///
    /// # Errors
    ///
    /// Returns [`DesignError::EmptyProgram`] for a 0-qubit profile.
    pub fn design(&self, profile: &CouplingProfile) -> Result<Architecture, DesignError> {
        let order = self.bus_order(profile)?;
        self.design_with_buses(profile, order.len())
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
        let coords = self.place(profile)?;
        let order = self.bus_order(profile)?;
        let k = num_buses.min(order.len());
        self.assemble(&coords, &order[..k])
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
        let coords = self.place(profile)?;
        let order = self.bus_order(profile)?;
        let stage = self.assemble_stage();
        let jobs: Vec<AssembleJob<'_>> = (0..=order.len())
            .map(|k| AssembleJob { stage: &stage, coords: &coords, squares: &order[..k] })
            .collect();
        self.plan.assemble_batch(&jobs)
    }

    /// Runs the back half of the flow on an **explicit layout**: the
    /// given qubit coordinates and 4-qubit-bus squares, with this flow's
    /// frequency strategy and allocation knobs. This is the entry point
    /// the design-space explorer (`qpd-explore`) uses to evaluate
    /// perturbed bus sets and placement variants that no strategy of
    /// [`Self::bus_order`] generates.
    ///
    /// The placement and bus-selection knobs of this flow are ignored;
    /// square validity (three placed corners, prohibited condition) is
    /// still enforced by the architecture builder.
    ///
    /// # Errors
    ///
    /// Returns [`DesignError::EmptyProgram`] for empty `coords` and
    /// propagates builder errors for invalid squares.
    pub fn design_with_layout(
        &self,
        coords: &[qpd_topology::Coord],
        squares: &[Square],
    ) -> Result<Architecture, DesignError> {
        if coords.is_empty() {
            return Err(DesignError::EmptyProgram);
        }
        self.assemble(coords, squares)
    }

    /// [`Self::design_with_layout`] for a whole batch of layouts at
    /// once, submitted through [`StagePlan::assemble_batch`] so every
    /// stage-cache miss in the batch runs in one seed-major allocation
    /// batch over shared noise planes.
    ///
    /// Each job may override the flow's frequency strategy and hardware
    /// family — the two knobs the explorer varies per candidate — while
    /// inheriting every other allocation knob from this flow. Results
    /// are bit-identical to per-job [`Self::design_with_layout`] calls
    /// on correspondingly configured flow clones.
    ///
    /// # Errors
    ///
    /// Returns [`DesignError::EmptyProgram`] if any job has no qubits
    /// and propagates builder errors for invalid squares.
    pub fn design_with_layout_batch(
        &self,
        jobs: &[LayoutJob<'_>],
    ) -> Result<Vec<Architecture>, DesignError> {
        if jobs.iter().any(|j| j.coords.is_empty()) {
            return Err(DesignError::EmptyProgram);
        }
        let stages: Vec<AssembleStage> = jobs
            .iter()
            .map(|j| {
                let mut stage = self.assemble_stage();
                stage.frequency = j.frequency;
                stage.hardware = j.hardware;
                stage
            })
            .collect();
        let batch: Vec<AssembleJob<'_>> = stages
            .iter()
            .zip(jobs)
            .map(|(stage, j)| AssembleJob { stage, coords: j.coords, squares: j.squares })
            .collect();
        self.plan.assemble_batch(&batch)
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
        self.plan.place(&self.placement_stage(), profile)
    }

    /// The bus selection order for this flow's strategy: prefixes of the
    /// returned vector are the selections for smaller budgets.
    ///
    /// # Errors
    ///
    /// Returns [`DesignError::EmptyProgram`] for a 0-qubit profile.
    pub fn bus_order(&self, profile: &CouplingProfile) -> Result<Vec<Square>, DesignError> {
        let coords = self.place(profile)?;
        self.plan.bus_order(&self.bus_stage(), &coords, profile)
    }

    /// The placement stage this flow's knobs configure.
    fn placement_stage(&self) -> PlacementStage {
        PlacementStage { auxiliary_qubits: self.auxiliary_qubits }
    }

    /// The bus-selection stage this flow's knobs configure.
    fn bus_stage(&self) -> BusOrderStage {
        BusOrderStage { strategy: self.bus_strategy, max_buses: self.max_buses }
    }

    /// The frequency/assembly stage this flow's knobs configure — what
    /// callers batching several flows' assembles into one
    /// [`StagePlan::assemble_batch`] put in their [`AssembleJob`]s.
    pub fn assemble_stage(&self) -> AssembleStage {
        AssembleStage {
            frequency: self.frequency,
            allocation_trials: self.allocation_trials,
            allocation_sweeps: self.allocation_sweeps,
            allocation_seed: self.allocation_seed,
            sigma_ghz: self.sigma_ghz,
            name_prefix: self.name_prefix.clone(),
            hardware: self.hardware,
        }
    }

    fn assemble(
        &self,
        coords: &[qpd_topology::Coord],
        squares: &[Square],
    ) -> Result<Architecture, DesignError> {
        self.plan.assemble(&self.assemble_stage(), coords, squares)
    }

    /// The retained **monolithic** flow: the pre-stage-graph computation,
    /// with no stage decomposition and no caching. Kept as the reference
    /// the equivalence tests compare the facade against, exactly like
    /// the frequency allocator's `with_reference_path`.
    ///
    /// # Errors
    ///
    /// Returns [`DesignError::EmptyProgram`] for a 0-qubit profile.
    pub fn design_reference(&self, profile: &CouplingProfile) -> Result<Architecture, DesignError> {
        if profile.num_qubits() == 0 {
            return Err(DesignError::EmptyProgram);
        }
        let mut coords = place_qubits(profile);
        if self.auxiliary_qubits > 0 {
            coords.extend(crate::placement::place_auxiliary(&coords, self.auxiliary_qubits));
        }
        let cap = self.max_buses.unwrap_or(usize::MAX);
        let squares = match self.bus_strategy {
            BusStrategy::Weighted => select_buses_weighted(&coords, profile, cap),
            BusStrategy::Random { seed } => select_buses_random(&coords, cap, seed),
        };
        let model = self.hardware.model();
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
        for &s in &squares {
            builder.four_qubit_bus_at(s);
        }
        let arch = builder.build()?;
        let plan: FrequencyPlan = match self.frequency {
            FrequencyStrategy::FiveFrequency => {
                pattern_frequency_plan(&arch, model.pattern_frequencies_ghz())
            }
            FrequencyStrategy::Optimized => FrequencyAllocator::new()
                .with_hardware(self.hardware)
                .with_trials(self.allocation_trials)
                .with_refinement_sweeps(self.allocation_sweeps)
                .with_sigma_ghz(self.sigma_ghz)
                .with_seed(self.allocation_seed)
                .allocate(&arch),
        };
        Ok(arch.with_frequencies_in_band(plan, model.allowed_band_ghz())?)
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
        // Feeding the flow's own placement and bus order back through the
        // explicit-layout entry point reproduces `design` exactly.
        let profile = grid_profile();
        let flow = fast_flow();
        let coords = flow.place(&profile).unwrap();
        let order = flow.bus_order(&profile).unwrap();
        let via_layout = flow.design_with_layout(&coords, &order).unwrap();
        let via_flow = flow.design(&profile).unwrap();
        assert_eq!(via_layout, via_flow);
    }

    #[test]
    fn empty_layout_errors() {
        let err = fast_flow().design_with_layout(&[], &[]).unwrap_err();
        assert_eq!(err, DesignError::EmptyProgram);
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

    #[test]
    fn facade_matches_the_monolithic_reference() {
        // The stage-graph facade must be bit-identical to the retained
        // monolithic path, cold and warm (the workspace-level proptests
        // widen this over random profiles and knobs).
        let profile = grid_profile();
        for flow in [
            fast_flow(),
            fast_flow().with_frequency_strategy(FrequencyStrategy::FiveFrequency),
            fast_flow().with_bus_strategy(BusStrategy::Random { seed: 5 }).with_auxiliary_qubits(1),
        ] {
            let reference = flow.design_reference(&profile).unwrap();
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
    fn hardware_family_threads_through_facade_and_reference() {
        let profile = grid_profile();
        for family in HardwareFamily::ALL {
            let flow = fast_flow().with_hardware(family);
            assert_eq!(flow.hardware(), family);
            let facade = flow.design_with_buses(&profile, 0).unwrap();
            let reference = flow.design_reference(&profile).unwrap();
            // The facade stays bit-identical to the monolithic reference
            // on every family, and the plan lands in the family band.
            // (design_reference runs the full flow, so compare against
            // the matching bus budget.)
            let full = flow.design(&profile).unwrap();
            assert_eq!(full, reference);
            let band = family.model().allowed_band_ghz();
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
