//! The explorer's knob surface: one point in the design space.

use qpd_core::FrequencyStrategy;
use qpd_topology::Square;
use qpd_yield::HardwareFamily;

use crate::json::Json;

/// How a candidate's 4-qubit bus set is derived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BusSpec {
    /// The first `count` squares of Algorithm 2's weighted order for the
    /// candidate's layout.
    Weighted {
        /// Number of buses taken from the weighted order.
        count: usize,
    },
    /// `count` squares chosen by the seeded uniform-random selection
    /// (the paper's `eff-rd-bus` knob).
    Random {
        /// Seed of the random selection.
        seed: u64,
        /// Number of buses requested.
        count: usize,
    },
    /// An explicit square set — the result of add/remove/swap
    /// perturbation moves. Always kept valid under the prohibited
    /// condition by the move generator.
    Explicit(Vec<Square>),
}

/// Deterministic transform applied to the placed layout.
///
/// Placement itself (Algorithm 1) is deterministic in the profile; the
/// variants give the search distinct but equally valid embeddings —
/// transposition changes the five-frequency pattern assignment and the
/// center-out allocation order, so the same logical design lands on a
/// different point of the objective space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementVariant {
    /// Algorithm 1's placement as-is.
    Identity,
    /// Rows and columns swapped (reflection across the main diagonal).
    Transposed,
}

/// One candidate architecture, described by knobs rather than by the
/// materialized chip — cheap to mutate, hash, and checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateSpec {
    /// Bus-set derivation.
    pub bus: BusSpec,
    /// Frequency strategy (optimized Algorithm 3 or the 5-frequency
    /// pattern).
    pub frequency: FrequencyStrategy,
    /// Auxiliary physical qubits appended around the placed layout.
    pub aux_qubits: usize,
    /// Layout transform.
    pub placement: PlacementVariant,
    /// Hardware family the candidate is designed for — the fifth knob.
    /// Supplies the frequency band, pattern menu, collision constraints,
    /// and effective fabrication noise of the frequency and yield stages
    /// (placement, buses, and routing are hardware-independent).
    pub hardware: HardwareFamily,
}

impl CandidateSpec {
    /// The paper's `eff-full` configuration with every beneficial bus:
    /// weighted selection (uncapped), optimized frequencies, no
    /// auxiliary qubits, untransformed placement.
    pub fn eff_full(full_weighted_len: usize) -> Self {
        CandidateSpec {
            bus: BusSpec::Weighted { count: full_weighted_len },
            frequency: FrequencyStrategy::Optimized,
            aux_qubits: 0,
            placement: PlacementVariant::Identity,
            hardware: HardwareFamily::FixedFrequencyTransmon,
        }
    }

    /// Serializes the spec for checkpoints.
    pub fn to_json(&self) -> Json {
        let bus = match &self.bus {
            BusSpec::Weighted { count } => {
                Json::obj([("kind", Json::str("weighted")), ("count", Json::int(*count as u64))])
            }
            BusSpec::Random { seed, count } => Json::obj([
                ("kind", Json::str("random")),
                ("seed", Json::str(seed.to_string())),
                ("count", Json::int(*count as u64)),
            ]),
            BusSpec::Explicit(squares) => Json::obj([
                ("kind", Json::str("explicit")),
                (
                    "squares",
                    Json::Arr(
                        squares
                            .iter()
                            .map(|s| {
                                Json::Arr(vec![
                                    Json::num(s.origin.row as f64),
                                    Json::num(s.origin.col as f64),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        };
        let mut fields = vec![
            ("bus", bus),
            (
                "frequency",
                Json::str(match self.frequency {
                    FrequencyStrategy::Optimized => "optimized",
                    FrequencyStrategy::FiveFrequency => "five",
                }),
            ),
            ("aux", Json::int(self.aux_qubits as u64)),
            (
                "placement",
                Json::str(match self.placement {
                    PlacementVariant::Identity => "identity",
                    PlacementVariant::Transposed => "transposed",
                }),
            ),
        ];
        // Written only for non-default families, so default-config
        // checkpoints stay byte-identical to the pre-hardware schema.
        if !self.hardware.is_default() {
            fields.push(("hardware", Json::str(self.hardware.as_str())));
        }
        Json::obj(fields)
    }

    /// Deserializes a spec from checkpoint JSON.
    pub fn from_json(json: &Json) -> Option<Self> {
        let bus_json = json.get("bus")?;
        let bus = match bus_json.get("kind")?.as_str()? {
            "weighted" => BusSpec::Weighted { count: bus_json.get("count")?.as_u64()? as usize },
            "random" => BusSpec::Random {
                seed: bus_json.get("seed")?.as_str()?.parse().ok()?,
                count: bus_json.get("count")?.as_u64()? as usize,
            },
            "explicit" => {
                let mut squares = Vec::new();
                for entry in bus_json.get("squares")?.as_arr()? {
                    let pair = entry.as_arr()?;
                    if pair.len() != 2 {
                        return None;
                    }
                    let row = pair[0].as_f64()? as i32;
                    let col = pair[1].as_f64()? as i32;
                    squares.push(Square::new(row, col));
                }
                BusSpec::Explicit(squares)
            }
            _ => return None,
        };
        let frequency = match json.get("frequency")?.as_str()? {
            "optimized" => FrequencyStrategy::Optimized,
            "five" => FrequencyStrategy::FiveFrequency,
            _ => return None,
        };
        let placement = match json.get("placement")?.as_str()? {
            "identity" => PlacementVariant::Identity,
            "transposed" => PlacementVariant::Transposed,
            _ => return None,
        };
        let hardware = match json.get("hardware") {
            None => HardwareFamily::FixedFrequencyTransmon,
            Some(tag) => HardwareFamily::parse(tag.as_str()?)?,
        };
        Some(CandidateSpec {
            bus,
            frequency,
            aux_qubits: json.get("aux")?.as_u64()? as usize,
            placement,
            hardware,
        })
    }
}

/// The objective vector of one evaluated candidate. Raw integer counts
/// only — exact to store, exact to compare, exact to checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Objectives {
    /// Collision-free Monte Carlo fabrications.
    pub yield_successes: u64,
    /// Total Monte Carlo fabrications.
    pub yield_trials: u64,
    /// Post-mapping gate count (SWAP = 3 CX) on the profiled benchmark.
    pub total_gates: u64,
    /// Post-mapping circuit depth.
    pub routed_depth: u64,
    /// Hardware cost: 4-qubit buses plus auxiliary qubits.
    pub hardware_cost: u64,
}

impl Objectives {
    /// The estimated yield rate in `[0, 1]`.
    pub fn yield_rate(&self) -> f64 {
        self.yield_successes as f64 / self.yield_trials as f64
    }

    /// The objectives as a larger-is-better vector for Pareto dominance
    /// ([`qpd_core::pareto_front_nd`]'s convention): yield up, gate
    /// count / depth / hardware cost negated.
    pub fn as_maximization(&self) -> Vec<f64> {
        vec![
            self.yield_rate(),
            -(self.total_gates as f64),
            -(self.routed_depth as f64),
            -(self.hardware_cost as f64),
        ]
    }

    /// Serializes for checkpoints.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("successes", Json::int(self.yield_successes)),
            ("trials", Json::int(self.yield_trials)),
            ("gates", Json::int(self.total_gates)),
            ("depth", Json::int(self.routed_depth)),
            ("cost", Json::int(self.hardware_cost)),
        ])
    }

    /// Deserializes from checkpoint JSON.
    pub fn from_json(json: &Json) -> Option<Self> {
        Some(Objectives {
            yield_successes: json.get("successes")?.as_u64()?,
            yield_trials: json.get("trials")?.as_u64()?,
            total_gates: json.get("gates")?.as_u64()?,
            routed_depth: json.get("depth")?.as_u64()?,
            hardware_cost: json.get("cost")?.as_u64()?,
        })
    }
}

/// One evaluated point: the spec, the chip it produced, and where it
/// landed on the objective space.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluated {
    /// The knobs that produced the point.
    pub spec: CandidateSpec,
    /// The materialized architecture's name.
    pub arch_name: String,
    /// Content key of the materialized architecture (see
    /// [`qpd_yield::YieldSimulator::content_key`]); equal keys mean
    /// equal points, so the archive dedupes on it.
    pub key: u64,
    /// The objective vector.
    pub objectives: Objectives,
}

impl Evaluated {
    /// Serializes for checkpoints.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("key", Json::str(self.key.to_string())),
            ("arch", Json::str(&self.arch_name)),
            ("spec", self.spec.to_json()),
            ("objectives", self.objectives.to_json()),
        ])
    }

    /// Deserializes from checkpoint JSON.
    pub fn from_json(json: &Json) -> Option<Self> {
        Some(Evaluated {
            spec: CandidateSpec::from_json(json.get("spec")?)?,
            arch_name: json.get("arch")?.as_str()?.to_string(),
            key: json.get("key")?.as_str()?.parse().ok()?,
            objectives: Objectives::from_json(json.get("objectives")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> Vec<CandidateSpec> {
        vec![
            CandidateSpec::eff_full(4),
            CandidateSpec {
                bus: BusSpec::Random { seed: u64::MAX, count: 2 },
                frequency: FrequencyStrategy::FiveFrequency,
                aux_qubits: 3,
                placement: PlacementVariant::Transposed,
                hardware: HardwareFamily::FixedFrequencyTransmon,
            },
            CandidateSpec {
                bus: BusSpec::Explicit(vec![Square::new(-1, 2), Square::new(3, 0)]),
                frequency: FrequencyStrategy::Optimized,
                aux_qubits: 0,
                placement: PlacementVariant::Identity,
                hardware: HardwareFamily::FixedFrequencyTransmon,
            },
            CandidateSpec {
                hardware: HardwareFamily::TunableCoupler,
                ..CandidateSpec::eff_full(1)
            },
            CandidateSpec { hardware: HardwareFamily::HeavyHex, ..CandidateSpec::eff_full(0) },
        ]
    }

    #[test]
    fn default_hardware_is_json_silent() {
        // Default-config checkpoints must not change by a byte: the
        // hardware key appears only for non-default families.
        let spec = CandidateSpec::eff_full(2);
        assert!(!spec.to_json().render().contains("hardware"));
        let tc = CandidateSpec { hardware: HardwareFamily::TunableCoupler, ..spec };
        let bytes = tc.to_json().render();
        assert!(bytes.contains("\"hardware\": \"tunable\""), "{bytes}");
    }

    #[test]
    fn spec_json_round_trips() {
        for spec in specs() {
            let json = spec.to_json();
            let back = CandidateSpec::from_json(&json).unwrap();
            assert_eq!(back, spec);
            // And through actual bytes.
            let reparsed = crate::json::Json::parse(&json.render()).unwrap();
            assert_eq!(CandidateSpec::from_json(&reparsed).unwrap(), spec);
        }
    }

    #[test]
    fn objectives_round_trip_and_orientation() {
        let o = Objectives {
            yield_successes: 123,
            yield_trials: 1_000,
            total_gates: 450,
            routed_depth: 90,
            hardware_cost: 5,
        };
        assert_eq!(Objectives::from_json(&o.to_json()).unwrap(), o);
        assert!((o.yield_rate() - 0.123).abs() < 1e-12);
        let v = o.as_maximization();
        assert_eq!(v.len(), 4);
        // Fewer gates must be better (larger) in the maximization view.
        let better = Objectives { total_gates: 400, ..o };
        assert!(better.as_maximization()[1] > v[1]);
    }

    #[test]
    fn evaluated_round_trips() {
        let e = Evaluated {
            spec: CandidateSpec::eff_full(2),
            arch_name: "eff-6q-b2".into(),
            key: u64::MAX - 7,
            objectives: Objectives {
                yield_successes: 1,
                yield_trials: 2,
                total_gates: 3,
                routed_depth: 4,
                hardware_cost: 5,
            },
        };
        let bytes = e.to_json().render();
        let back = Evaluated::from_json(&crate::json::Json::parse(&bytes).unwrap()).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn malformed_spec_is_rejected_not_panicked() {
        let bad = crate::json::Json::parse("{\"bus\": {\"kind\": \"hexagonal\"}}").unwrap();
        assert!(CandidateSpec::from_json(&bad).is_none());
    }
}
