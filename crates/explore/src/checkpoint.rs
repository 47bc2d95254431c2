//! Checkpoint/resume: the run state as a hand-rolled JSON document.
//!
//! The serde shim's derives are no-ops, so persistence goes through
//! [`crate::json`] instead. Everything that must round-trip exactly is
//! stored losslessly: counts as plain integers, `u64` keys and seeds as
//! decimal strings (beyond f64-exact range), and `f64` knobs with
//! Rust's shortest-round-trip formatting. Rendering is deterministic —
//! the determinism tests compare checkpoint *bytes* across thread
//! counts — and a resumed run continues the walk streams exactly where
//! the file says they stopped.
//!
//! Schema v2 ([`SCHEMA`]) extends the config with the v2 engine knobs
//! (acceptance mode, recombination, screening divisor, ε). v1 documents
//! ([`SCHEMA_V1`]) still parse: their config migrates through
//! [`ExploreConfig::v1_compat`], so a resumed PR 3 run continues with
//! the scalarized acceptance it was started under.
//!
//! Schema v3 ([`SCHEMA_V3`]) adds the hardware-sweep config knob and a
//! display-only per-stage cache hit-rate block. The writer emits the v3
//! tag **only when a v3 feature is present** (a non-default sweep, a
//! non-default spec family, or recorded hit rates); a default-config
//! checkpoint renders the exact v2 bytes it always did, and v2 readers
//! of such documents never see an unknown field.

use std::path::{Path, PathBuf};

use crate::engine::{
    pareto_indices, AcceptanceMode, ExploreConfig, ExploreError, ExploreState, HardwareSweep,
    Provenance, ShardSpec, ShardState, WalkState,
};
use crate::json::Json;
use crate::spec::{CandidateSpec, Evaluated, Objectives};
use qpd_core::StageCacheStats;

/// On-disk schema tag of feature-less documents; see [`SCHEMA_V3`].
pub const SCHEMA: &str = "qpd-explore-checkpoint/2";

/// The v3 schema tag, written only when a document actually carries a
/// v3 feature (hardware sweep or stage hit rates) so default-config
/// checkpoints stay byte-identical to the v2 era.
pub const SCHEMA_V3: &str = "qpd-explore-checkpoint/3";

/// The PR 3 schema: no acceptance/recombination/screening fields.
/// [`Checkpoint::parse`] still reads it, migrating the config onto
/// [`ExploreConfig::v1_compat`] so a resumed v1 run keeps the scalarized
/// acceptance it started with.
pub const SCHEMA_V1: &str = "qpd-explore-checkpoint/1";

/// Display-only per-stage cache counters recorded at checkpoint time
/// (schema v3). Resume never reads them — a resumed engine starts with
/// cold counters — they exist so a human (or the CLI's `--hit-rates`
/// report) can see how effective the stage caches were when the
/// checkpoint was cut.
///
/// Unlike everything else in a checkpoint, the hit/miss counters
/// describe the run's *actual* cache traffic, which is
/// scheduling-dependent: two workers first-missing the same key record
/// (miss, miss) where one worker visiting it twice records (miss, hit).
/// Totals and every piece of search state stay bit-identical across
/// `QPD_THREADS`; the hit/miss split is only byte-stable at a fixed
/// thread count. That is the reason this block is display-only and
/// excluded from [`Checkpoint::parse`]'s contribution to resumed state.
///
/// `unique_misses` is the exception: it counts the content keys
/// computed while absent from the table
/// ([`qpd_core::StageCache::unique_misses`]), which a fixed workload
/// pins regardless of scheduling while nothing is evicted — the
/// thread-stable figure to quote when comparing runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageHitRate {
    /// Stage name ([`qpd_core::StageKind::name`]).
    pub stage: String,
    /// Lookups served from the table.
    pub hits: u64,
    /// Lookups that computed (scheduling-dependent).
    pub misses: u64,
    /// Keys computed while absent from the table (thread-stable while
    /// nothing is evicted).
    pub unique_misses: u64,
}

impl StageHitRate {
    /// Snapshot of live stage counters, pipeline order.
    pub fn from_stats(stats: &[StageCacheStats]) -> Vec<StageHitRate> {
        stats
            .iter()
            .map(|s| StageHitRate {
                stage: s.kind.name().to_string(),
                hits: s.hits,
                misses: s.misses,
                unique_misses: s.unique_misses,
            })
            .collect()
    }

    /// Fraction of lookups served from cache (`0.0` before any lookup).
    pub fn rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The shard block of a shard-tagged checkpoint (schema v3): which
/// slice of the run the document holds, plus per-archive-entry
/// [`Provenance`] so [`crate::merge`] can interleave shard archives in
/// single-run insertion order. A document without this block is a whole
/// run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMeta {
    /// Which slice of the run this document is.
    pub spec: ShardSpec,
    /// `prov[i]` is where `state.archive[i]` came from; lengths match.
    pub prov: Vec<Provenance>,
}

/// A complete, resumable snapshot of one exploration run.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Run label (the profiled benchmark's name, typically); also names
    /// the default checkpoint file.
    pub run: String,
    /// The run's configuration — a resumed run must re-use it.
    pub config: ExploreConfig,
    /// The search state after `state.rounds_done` rounds.
    pub state: ExploreState,
    /// Display-only stage-cache counters (schema v3). Empty means
    /// "not recorded" and keeps the document on the v2 byte layout.
    pub stage_hit_rates: Vec<StageHitRate>,
    /// Present iff this document is one shard of a sharded run (schema
    /// v3): `state.walks` then holds only the shard's walks (ascending
    /// global index) and `state.archive` only its evaluations.
    pub shard: Option<ShardMeta>,
}

impl Checkpoint {
    /// The conventional file name for a run label: `EXPLORE_<run>.json`.
    pub fn file_name(run: &str) -> String {
        format!("EXPLORE_{run}.json")
    }

    /// The conventional file name of one shard of a run:
    /// `EXPLORE_<run>_shard<i>of<N>.json` — distinct per shard, so N
    /// shard processes sharing an output directory never collide, and
    /// distinct from the whole-run name, so a merge written next to its
    /// inputs never overwrites one.
    pub fn shard_file_name(run: &str, spec: ShardSpec) -> String {
        Self::file_name(&spec.label(run))
    }

    /// Packages one shard's state as a shard-tagged checkpoint.
    pub fn from_shard(
        run: &str,
        config: ExploreConfig,
        shard: &ShardState,
        stage_hit_rates: Vec<StageHitRate>,
    ) -> Checkpoint {
        Checkpoint {
            run: run.to_string(),
            config,
            state: shard.state.clone(),
            stage_hit_rates,
            shard: Some(ShardMeta { spec: shard.spec, prov: shard.prov.clone() }),
        }
    }

    /// Reassembles the [`ShardState`] of a shard-tagged document;
    /// `None` for whole-run documents.
    pub fn to_shard_state(&self) -> Option<ShardState> {
        let meta = self.shard.as_ref()?;
        Some(ShardState { spec: meta.spec, state: self.state.clone(), prov: meta.prov.clone() })
    }

    /// Whether the document carries any schema-v3 feature. Feature-less
    /// checkpoints render under the v2 tag with the exact v2 bytes.
    fn has_v3_features(&self) -> bool {
        !self.config.hardware.is_default()
            || self.config.fine_recombine
            || !self.stage_hit_rates.is_empty()
            || self.shard.is_some()
            || self.state.walks.iter().any(|w| !w.spec.hardware.is_default())
            || self.state.archive.iter().any(|e| !e.spec.hardware.is_default())
    }

    /// Renders the checkpoint document (stable bytes: insertion-ordered
    /// keys, shortest-round-trip floats).
    pub fn render(&self) -> String {
        let front_keys: Vec<Json> = pareto_indices(&self.state.archive)
            .into_iter()
            .map(|i| Json::str(self.state.archive[i].key.to_string()))
            .collect();
        let schema = if self.has_v3_features() { SCHEMA_V3 } else { SCHEMA };
        let mut fields = vec![("schema", Json::str(schema)), ("run", Json::str(&self.run))];
        if let Some(meta) = &self.shard {
            // Provenance triples render as compact `[block, walk, step]`
            // rows — all three are small counters, exact in f64.
            let prov: Vec<Json> = meta
                .prov
                .iter()
                .map(|p| Json::Raw(format!("[{}, {}, {}]", p.block, p.walk, p.step)))
                .collect();
            fields.push((
                "shard",
                Json::obj([
                    ("index", Json::int(meta.spec.index as u64)),
                    ("of", Json::int(meta.spec.of as u64)),
                    ("prov", Json::Arr(prov)),
                ]),
            ));
        }
        fields.extend([
            ("config", config_to_json(&self.config)),
            ("rounds_done", Json::int(self.state.rounds_done as u64)),
            (
                "walks",
                Json::Arr(
                    self.state
                        .walks
                        .iter()
                        .map(|w| {
                            Json::obj([
                                ("spec", w.spec.to_json()),
                                ("objectives", w.objectives.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            // Derived from the archive; stored for human readers and
            // recomputed (not trusted) on load.
            ("front", Json::Arr(front_keys)),
            ("archive", Json::Arr(self.state.archive.iter().map(Evaluated::to_json).collect())),
        ]);
        if !self.stage_hit_rates.is_empty() {
            fields.push((
                "stage_hit_rates",
                Json::Arr(
                    self.stage_hit_rates
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("stage", Json::str(&s.stage)),
                                ("hits", Json::int(s.hits)),
                                ("misses", Json::int(s.misses)),
                                ("unique_misses", Json::int(s.unique_misses)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        Json::obj(fields).render()
    }

    /// Writes the document under `dir` at its conventional file name
    /// ([`Self::shard_file_name`] when shard-tagged, [`Self::file_name`]
    /// otherwise), returning the path. The write is crash-consistent
    /// ([`write_atomic`]).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, dir: &Path) -> std::io::Result<PathBuf> {
        let path = dir.join(match &self.shard {
            Some(meta) => Self::shard_file_name(&self.run, meta.spec),
            None => Self::file_name(&self.run),
        });
        write_atomic(&path, self.render())?;
        Ok(path)
    }

    /// Parses a checkpoint document, accepting the current schema and
    /// migrating [`SCHEMA_V1`] documents transparently (see
    /// [`Checkpoint::parse_versioned`] to learn which one was read).
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::Checkpoint`] on malformed input.
    pub fn parse(text: &str) -> Result<Checkpoint, ExploreError> {
        Self::parse_versioned(text).map(|(cp, _)| cp)
    }

    /// Like [`Checkpoint::parse`], also reporting the schema version the
    /// document carried (`1` documents are migrated to the in-memory v2
    /// form: the missing config fields take their scalarized-era
    /// defaults via [`ExploreConfig::v1_compat`], so resuming continues
    /// the run the way it started).
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::Checkpoint`] on malformed input or an
    /// unknown schema tag.
    pub fn parse_versioned(text: &str) -> Result<(Checkpoint, u32), ExploreError> {
        let bad = |what: &str| ExploreError::Checkpoint(what.to_string());
        let doc = Json::parse(text).map_err(|e| ExploreError::Checkpoint(e.to_string()))?;
        let version = match doc.get("schema").and_then(Json::as_str) {
            Some(SCHEMA_V3) => 3,
            Some(SCHEMA) => 2,
            Some(SCHEMA_V1) => 1,
            Some(other) => {
                return Err(ExploreError::Checkpoint(format!("unsupported schema `{other}`")))
            }
            None => return Err(bad("missing schema")),
        };
        let run = doc.get("run").and_then(Json::as_str).ok_or_else(|| bad("missing run"))?;
        let config_json = doc.get("config").ok_or_else(|| bad("missing config"))?;
        let config = match version {
            2 | 3 => config_from_json(config_json).ok_or_else(|| bad("malformed config"))?,
            _ => config_from_json_v1(config_json).ok_or_else(|| bad("malformed v1 config"))?,
        };
        let rounds_done = doc
            .get("rounds_done")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("missing rounds_done"))? as usize;
        let mut walks = Vec::new();
        for w in doc.get("walks").and_then(Json::as_arr).ok_or_else(|| bad("missing walks"))? {
            let spec = w
                .get("spec")
                .and_then(CandidateSpec::from_json)
                .ok_or_else(|| bad("malformed walk spec"))?;
            let objectives = w
                .get("objectives")
                .and_then(Objectives::from_json)
                .ok_or_else(|| bad("malformed walk objectives"))?;
            walks.push(WalkState { spec, objectives });
        }
        let mut archive = Vec::new();
        for e in doc.get("archive").and_then(Json::as_arr).ok_or_else(|| bad("missing archive"))? {
            archive.push(Evaluated::from_json(e).ok_or_else(|| bad("malformed archive entry"))?);
        }
        let shard = match doc.get("shard") {
            None => None,
            Some(block) => {
                let index = block
                    .get("index")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("malformed shard index"))?
                    as usize;
                let of = block
                    .get("of")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("malformed shard count"))? as usize;
                let spec = ShardSpec::new(index, of).map_err(ExploreError::Checkpoint)?;
                let mut prov = Vec::new();
                for row in block
                    .get("prov")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| bad("missing shard provenance"))?
                {
                    let row = row.as_arr().ok_or_else(|| bad("malformed provenance row"))?;
                    let [block, walk, step] = row else {
                        return Err(bad("provenance row is not a triple"));
                    };
                    prov.push(Provenance {
                        block: block.as_u64().ok_or_else(|| bad("malformed provenance row"))?,
                        walk: walk.as_u64().ok_or_else(|| bad("malformed provenance row"))?,
                        step: step.as_u64().ok_or_else(|| bad("malformed provenance row"))?,
                    });
                }
                if prov.len() != archive.len() {
                    return Err(bad("shard provenance does not match archive length"));
                }
                Some(ShardMeta { spec, prov })
            }
        };
        // A whole-run document holds every walk; a shard document holds
        // exactly the walks its slice owns.
        let expected_walks = match &shard {
            None => config.walks,
            Some(meta) => meta.spec.walk_ids(config.walks).len(),
        };
        if walks.len() != expected_walks {
            return Err(bad("walk count does not match config"));
        }
        // Optional in every version (pre-v3 documents simply lack it).
        let mut stage_hit_rates = Vec::new();
        if let Some(rates) = doc.get("stage_hit_rates").and_then(Json::as_arr) {
            for r in rates {
                stage_hit_rates.push(StageHitRate {
                    stage: r
                        .get("stage")
                        .and_then(Json::as_str)
                        .ok_or_else(|| bad("malformed stage hit rate"))?
                        .to_string(),
                    hits: r
                        .get("hits")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| bad("malformed stage hit rate"))?,
                    misses: r
                        .get("misses")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| bad("malformed stage hit rate"))?,
                    // Absent in documents written before the counter
                    // existed: zero, the "not recorded" value.
                    unique_misses: r.get("unique_misses").and_then(Json::as_u64).unwrap_or(0),
                });
            }
        }
        Ok((
            Checkpoint {
                run: run.to_string(),
                config,
                state: ExploreState { rounds_done, walks, archive },
                stage_hit_rates,
                shard,
            },
            version,
        ))
    }
}

fn config_to_json(c: &ExploreConfig) -> Json {
    let mut pairs = vec![
        ("walks", Json::int(c.walks as u64)),
        ("rounds", Json::int(c.rounds as u64)),
        ("steps_per_round", Json::int(c.steps_per_round as u64)),
        ("seed", Json::str(c.seed.to_string())),
        ("max_aux", Json::int(c.max_aux as u64)),
        ("alloc_trials", Json::int(c.alloc_trials as u64)),
        ("yield_trials", Json::int(c.yield_trials)),
        ("sigma_ghz", Json::num(c.sigma_ghz)),
        ("initial_temperature", Json::num(c.initial_temperature)),
        ("cooling", Json::num(c.cooling)),
        ("acceptance", Json::str(c.acceptance.as_str())),
        ("recombine", Json::Bool(c.recombine)),
        ("screen_divisor", Json::int(c.screen_divisor)),
        ("epsilon", Json::num(c.epsilon)),
    ];
    // Written only for non-default sweeps: a default-family config
    // renders the exact bytes the pre-hardware schema produced (and the
    // document keeps the v2 tag).
    if !c.hardware.is_default() {
        pairs.push(("hardware", Json::str(c.hardware.as_str())));
    }
    // Written only when the finer exchange blocks are on (the flag
    // changes the recombination RNG streams, so a resumed run must know
    // about it); a default config renders the exact pre-flag bytes, and
    // pre-flag documents parse as coarse-block.
    if c.fine_recombine {
        pairs.push(("fine_recombine", Json::Bool(true)));
    }
    // Written only when pruning is on: an uncapped config renders the
    // exact bytes the pre-pruning schema produced, and pre-pruning v2
    // documents parse as uncapped. `Some(0)` means "no pruning" just
    // like `None` (see `ExploreConfig::archive_cap`), so it renders the
    // same way, keeping render/parse coherent.
    if let Some(cap) = c.archive_cap.filter(|&cap| cap > 0) {
        pairs.push(("archive_cap", Json::int(cap as u64)));
    }
    Json::obj(pairs)
}

/// The fields shared by both schema versions.
fn config_from_json_v1(json: &Json) -> Option<ExploreConfig> {
    Some(
        ExploreConfig {
            walks: json.get("walks")?.as_u64()? as usize,
            rounds: json.get("rounds")?.as_u64()? as usize,
            steps_per_round: json.get("steps_per_round")?.as_u64()? as usize,
            seed: json.get("seed")?.as_str()?.parse().ok()?,
            max_aux: json.get("max_aux")?.as_u64()? as usize,
            alloc_trials: json.get("alloc_trials")?.as_u64()? as usize,
            yield_trials: json.get("yield_trials")?.as_u64()?,
            sigma_ghz: json.get("sigma_ghz")?.as_f64()?,
            initial_temperature: json.get("initial_temperature")?.as_f64()?,
            cooling: json.get("cooling")?.as_f64()?,
            ..ExploreConfig::default()
        }
        .v1_compat(),
    )
}

fn config_from_json(json: &Json) -> Option<ExploreConfig> {
    // Absent in pre-pruning v2 documents (and in uncapped renders):
    // both mean an unbounded archive. A present value must be numeric.
    let archive_cap = match json.get("archive_cap") {
        None => None,
        Some(v) => Some(v.as_u64()? as usize).filter(|&cap| cap > 0),
    };
    // Absent in v2 documents and in default-sweep v3 renders: both mean
    // the default (pinned to the default family).
    let hardware = match json.get("hardware") {
        None => HardwareSweep::default(),
        Some(tag) => HardwareSweep::parse(tag.as_str()?)?,
    };
    // Absent in pre-flag documents and in coarse-block renders: both
    // mean the coarse exchange blocks.
    let fine_recombine = match json.get("fine_recombine") {
        None => false,
        Some(v) => v.as_bool()?,
    };
    Some(ExploreConfig {
        acceptance: AcceptanceMode::from_str_tag(json.get("acceptance")?.as_str()?)?,
        recombine: json.get("recombine")?.as_bool()?,
        fine_recombine,
        screen_divisor: json.get("screen_divisor")?.as_u64()?,
        epsilon: json.get("epsilon")?.as_f64()?,
        hardware,
        archive_cap,
        ..config_from_json_v1(json)?
    })
}

/// Replaces the file at `path` with `bytes` crash-consistently: the
/// bytes go to a temporary file in the same directory, which is synced
/// and then renamed over `path`; on Unix the directory is synced after
/// the rename too. A crash at any point leaves either the old file or the new
/// one, never a truncated mix.
///
/// # Errors
///
/// Propagates filesystem errors; the temporary file is removed on
/// failure.
pub fn write_atomic(path: &Path, bytes: impl AsRef<[u8]>) -> std::io::Result<()> {
    use std::io::Write;
    use std::sync::atomic::{AtomicU64, Ordering};
    // Distinguishes concurrent writers of one process; the pid
    // distinguishes processes.
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let name = path.file_name().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "write target has no file name")
    })?;
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    let mut temp_name = std::ffi::OsString::from(".");
    temp_name.push(name);
    temp_name.push(format!(".{}.{}.tmp", std::process::id(), NEXT.fetch_add(1, Ordering::Relaxed)));
    let temp = dir.join(temp_name);
    let written = std::fs::File::create(&temp)
        .and_then(|mut file| {
            file.write_all(bytes.as_ref())?;
            file.sync_all()
        })
        .and_then(|()| std::fs::rename(&temp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&temp);
    }
    written?;
    // The rename is durable once the directory entry is.
    #[cfg(unix)]
    std::fs::File::open(dir)?.sync_all()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AcceptanceMode;
    use crate::spec::BusSpec;
    use qpd_core::FrequencyStrategy;
    use qpd_topology::Square;
    use qpd_yield::HardwareFamily;

    fn sample_checkpoint() -> Checkpoint {
        let objectives = Objectives {
            yield_successes: 321,
            yield_trials: 600,
            total_gates: 140,
            routed_depth: 77,
            hardware_cost: 2,
        };
        let spec = CandidateSpec {
            bus: BusSpec::Explicit(vec![Square::new(0, 1), Square::new(2, 2)]),
            frequency: FrequencyStrategy::Optimized,
            aux_qubits: 1,
            placement: crate::spec::PlacementVariant::Transposed,
            hardware: HardwareFamily::FixedFrequencyTransmon,
        };
        Checkpoint {
            run: "sym6_145".into(),
            config: ExploreConfig { walks: 1, seed: u64::MAX - 3, ..ExploreConfig::quick() },
            state: ExploreState {
                rounds_done: 1,
                walks: vec![WalkState { spec: spec.clone(), objectives }],
                archive: vec![Evaluated {
                    spec,
                    arch_name: "eff-7q-b2".into(),
                    key: 0xdead_beef_dead_beef,
                    objectives,
                }],
            },
            stage_hit_rates: Vec::new(),
            shard: None,
        }
    }

    #[test]
    fn checkpoint_round_trips_exactly() {
        let cp = sample_checkpoint();
        let bytes = cp.render();
        let back = Checkpoint::parse(&bytes).unwrap();
        assert_eq!(back, cp);
        // Render is a fixpoint: parse(render(x)).render() == render(x).
        assert_eq!(back.render(), bytes);
    }

    #[test]
    fn file_name_convention() {
        assert_eq!(Checkpoint::file_name("qft_16"), "EXPLORE_qft_16.json");
    }

    #[test]
    fn sigma_survives_exactly() {
        let mut cp = sample_checkpoint();
        cp.config.sigma_ghz = 0.1 + 0.2; // deliberately non-representable nicely
        let back = Checkpoint::parse(&cp.render()).unwrap();
        assert_eq!(back.config.sigma_ghz.to_bits(), cp.config.sigma_ghz.to_bits());
    }

    #[test]
    fn rejects_wrong_schema_and_garbage() {
        assert!(matches!(
            Checkpoint::parse("{\"schema\": \"other/9\"}"),
            Err(ExploreError::Checkpoint(_))
        ));
        assert!(Checkpoint::parse("not json").is_err());
        // Walk count mismatch is caught.
        let mut cp = sample_checkpoint();
        cp.config.walks = 5;
        assert!(matches!(
            Checkpoint::parse(&cp.render()),
            Err(ExploreError::Checkpoint(m)) if m.contains("walk count")
        ));
    }

    #[test]
    fn v1_documents_parse_and_migrate_to_scalarized_compat() {
        // A v2 render with the v1 tag and the v2-only config fields
        // stripped is exactly what PR 3 wrote.
        let cp = sample_checkpoint();
        let v1_text = cp
            .render()
            .replace(SCHEMA, SCHEMA_V1)
            .lines()
            .filter(|l| {
                !["\"acceptance\"", "\"recombine\"", "\"screen_divisor\"", "\"epsilon\""]
                    .iter()
                    .any(|k| l.trim_start().starts_with(k))
            })
            .collect::<Vec<_>>()
            .join("\n")
            // The stripped fields were the config object's tail: drop
            // the now-dangling comma on `cooling`.
            .replace("\"cooling\": 0.92,", "\"cooling\": 0.92");
        let (migrated, version) = Checkpoint::parse_versioned(&v1_text).unwrap();
        assert_eq!(version, 1);
        assert_eq!(migrated.config.acceptance, AcceptanceMode::Scalarized);
        assert!(!migrated.config.recombine);
        assert_eq!(migrated.config.screen_divisor, 1);
        assert_eq!(migrated.state, cp.state);
        // A migrated checkpoint re-renders as v2 and round-trips.
        let rerendered = migrated.render();
        assert!(rerendered.contains(SCHEMA));
        let (back, version2) = Checkpoint::parse_versioned(&rerendered).unwrap();
        assert_eq!(version2, 2);
        assert_eq!(back, migrated);
    }

    #[test]
    fn archive_cap_round_trips_and_is_optional() {
        // A capped config round-trips…
        let mut cp = sample_checkpoint();
        cp.config.archive_cap = Some(40);
        let back = Checkpoint::parse(&cp.render()).unwrap();
        assert_eq!(back.config.archive_cap, Some(40));
        assert_eq!(back.render(), cp.render());
        // …an uncapped config renders without the field (byte
        // compatibility with pre-pruning v2 documents)…
        cp.config.archive_cap = None;
        let text = cp.render();
        assert!(!text.contains("archive_cap"));
        // …and a pre-pruning v2 document (no field) parses as uncapped.
        assert_eq!(Checkpoint::parse(&text).unwrap().config.archive_cap, None);
        // `Some(0)` means "no pruning" and renders like `None`, so a
        // resumed run can never diverge from the live one.
        cp.config.archive_cap = Some(0);
        let zero = cp.render();
        assert!(!zero.contains("archive_cap"));
        assert_eq!(Checkpoint::parse(&zero).unwrap().config.archive_cap, None);
    }

    #[test]
    fn fine_recombine_round_trips_and_gates_the_v3_tag() {
        // Off (the default): no field, v2 bytes — existing checkpoints
        // stay byte-identical.
        let mut cp = sample_checkpoint();
        let coarse = cp.render();
        assert!(!coarse.contains("fine_recombine"));
        assert!(coarse.contains(SCHEMA));
        assert!(!Checkpoint::parse(&coarse).unwrap().config.fine_recombine);
        // On: the field appears, the document upgrades to v3 (the flag
        // changes RNG streams, so old readers must fail loudly), and it
        // round-trips.
        cp.config.fine_recombine = true;
        let fine = cp.render();
        assert!(fine.contains("\"fine_recombine\": true"));
        assert!(fine.contains(SCHEMA_V3));
        let (back, version) = Checkpoint::parse_versioned(&fine).unwrap();
        assert_eq!(version, 3);
        assert_eq!(back, cp);
        assert_eq!(back.render(), fine);
    }

    #[test]
    fn current_documents_report_version_2() {
        let cp = sample_checkpoint();
        let (_, version) = Checkpoint::parse_versioned(&cp.render()).unwrap();
        assert_eq!(version, 2);
    }

    #[test]
    fn default_documents_carry_no_v3_markers() {
        // The hardware layer must be invisible to feature-less
        // checkpoints: no v3 tag, no hardware field, no hit rates — the
        // exact v2 byte layout.
        let text = sample_checkpoint().render();
        assert!(text.contains(SCHEMA));
        assert!(!text.contains(SCHEMA_V3));
        // ("hardware_cost" is a v1 objectives field; the v3 markers are
        // the exact "hardware" key and the hit-rate block.)
        assert!(!text.contains("\"hardware\":"));
        assert!(!text.contains("stage_hit_rates"));
    }

    #[test]
    fn hardware_sweep_upgrades_the_schema_and_round_trips() {
        let mut cp = sample_checkpoint();
        cp.config.hardware = HardwareSweep::All;
        let text = cp.render();
        assert!(text.contains(SCHEMA_V3));
        assert!(text.contains("\"hardware\": \"all\""));
        let (back, version) = Checkpoint::parse_versioned(&text).unwrap();
        assert_eq!(version, 3);
        assert_eq!(back, cp);
        assert_eq!(back.render(), text);
        // Pinned non-default sweeps carry the family tag.
        cp.config.hardware = HardwareSweep::Pinned(HardwareFamily::HeavyHex);
        let pinned = cp.render();
        assert!(pinned.contains("\"hardware\": \"heavyhex\""));
        assert_eq!(Checkpoint::parse(&pinned).unwrap(), cp);
    }

    #[test]
    fn non_default_spec_family_upgrades_the_schema() {
        // Even under a default sweep (hand-edited or future configs), a
        // non-default family in the state forces the v3 tag so old
        // readers fail loudly instead of resuming the wrong family.
        let mut cp = sample_checkpoint();
        cp.state.walks[0].spec.hardware = HardwareFamily::TunableCoupler;
        cp.state.archive[0].spec.hardware = HardwareFamily::TunableCoupler;
        let text = cp.render();
        assert!(text.contains(SCHEMA_V3));
        assert_eq!(Checkpoint::parse(&text).unwrap(), cp);
    }

    #[test]
    fn stage_hit_rates_are_display_only_and_round_trip() {
        let mut cp = sample_checkpoint();
        cp.stage_hit_rates = vec![
            StageHitRate { stage: "frequency".into(), hits: 30, misses: 10, unique_misses: 8 },
            StageHitRate { stage: "yield".into(), hits: 0, misses: 0, unique_misses: 0 },
        ];
        let text = cp.render();
        assert!(text.contains(SCHEMA_V3));
        assert!(text.contains("stage_hit_rates"));
        assert!(text.contains("unique_misses"));
        let back = Checkpoint::parse(&text).unwrap();
        assert_eq!(back, cp);
        assert_eq!(back.render(), text);
        assert!((back.stage_hit_rates[0].rate() - 0.75).abs() < 1e-12);
        assert_eq!(back.stage_hit_rates[1].rate(), 0.0);
        // Documents written before the deterministic counter existed
        // (no `unique_misses` key) parse with the "not recorded" zero.
        let legacy = text
            .lines()
            .filter(|l| !l.trim_start().starts_with("\"unique_misses\""))
            .collect::<Vec<_>>()
            .join("\n")
            .replace("\"misses\": 10,", "\"misses\": 10")
            .replace("\"misses\": 0,", "\"misses\": 0");
        let old = Checkpoint::parse(&legacy).unwrap();
        assert_eq!(old.stage_hit_rates[0].unique_misses, 0);
        // Display-only: a document without the block parses with empty
        // counters.
        cp.stage_hit_rates.clear();
        let clean = cp.render();
        assert!(!clean.contains("stage_hit_rates"));
        assert!(Checkpoint::parse(&clean).unwrap().stage_hit_rates.is_empty());
    }

    /// A 1-walk shard of a 2-shard run around the sample state: walk 0
    /// belongs to shard 0/2, so the sample's single walk fits.
    fn sample_shard_checkpoint() -> Checkpoint {
        let mut cp = sample_checkpoint();
        cp.shard = Some(ShardMeta {
            spec: ShardSpec { index: 0, of: 2 },
            prov: vec![Provenance { block: 0, walk: 0, step: 0 }],
        });
        cp.config.walks = 2;
        cp
    }

    #[test]
    fn shard_checkpoints_round_trip_under_the_v3_tag() {
        let cp = sample_shard_checkpoint();
        let text = cp.render();
        assert!(text.contains(SCHEMA_V3), "shard metadata is a v3 feature");
        assert!(text.contains("\"shard\""));
        assert!(text.contains("[0, 0, 0]"), "provenance rows render compactly: {text}");
        let (back, version) = Checkpoint::parse_versioned(&text).unwrap();
        assert_eq!(version, 3);
        assert_eq!(back, cp);
        assert_eq!(back.render(), text);
        // The shard state reassembles.
        let shard = back.to_shard_state().unwrap();
        assert_eq!(shard.spec, ShardSpec { index: 0, of: 2 });
        assert_eq!(shard.prov.len(), shard.state.archive.len());
        // Whole-run documents carry no shard block and reassemble none.
        let whole = sample_checkpoint();
        assert!(!whole.render().contains("\"shard\""));
        assert!(whole.to_shard_state().is_none());
    }

    #[test]
    fn shard_documents_validate_walk_and_provenance_counts() {
        // A shard of a 2-walk run owning walk 0 must hold exactly one
        // walk; claiming the whole run's walk count fails.
        let mut cp = sample_shard_checkpoint();
        cp.config.walks = 1; // shard 0/2 of 1 walk still owns walk 0 — ok
        assert!(Checkpoint::parse(&cp.render()).is_ok());
        let text = sample_shard_checkpoint().render().replace("\"walks\": 2,", "\"walks\": 4,");
        assert!(matches!(
            Checkpoint::parse(&text),
            Err(ExploreError::Checkpoint(m)) if m.contains("walk count")
        ));
        // Provenance must stay parallel to the archive.
        let dropped = sample_shard_checkpoint().render().replace("[0, 0, 0]", "");
        assert!(Checkpoint::parse(&dropped).is_err());
        // An out-of-range shard index is rejected.
        let bad_index =
            sample_shard_checkpoint().render().replace("\"index\": 0,", "\"index\": 2,");
        assert!(Checkpoint::parse(&bad_index).is_err());
    }

    #[test]
    fn shard_file_names_are_distinct_per_shard_and_from_the_run() {
        let spec = ShardSpec { index: 1, of: 4 };
        assert_eq!(spec.label("qft_16"), "qft_16_shard1of4");
        assert_eq!(Checkpoint::shard_file_name("qft_16", spec), "EXPLORE_qft_16_shard1of4.json");
        assert_ne!(Checkpoint::shard_file_name("qft_16", spec), Checkpoint::file_name("qft_16"));
    }

    #[test]
    fn write_creates_the_conventional_file() {
        let dir = std::env::temp_dir().join("qpd_explore_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let cp = sample_checkpoint();
        let path = cp.write(&dir).unwrap();
        assert!(path.ends_with("EXPLORE_sym6_145.json"));
        let back = Checkpoint::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back, cp);
        std::fs::remove_file(path).ok();
        let shard = sample_shard_checkpoint();
        let path = shard.write(&dir).unwrap();
        assert!(path.ends_with("EXPLORE_sym6_145_shard0of2.json"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn write_atomic_replaces_the_target_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("qpd_write_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("target.json");
        write_atomic(&path, "old contents that are longer\n").unwrap();
        write_atomic(&path, "new\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "new\n");
        let names: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(names, ["target.json"]);
        // A target without a file name is refused before anything is
        // written.
        assert!(write_atomic(Path::new("/"), "x").is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn every_truncation_of_a_checkpoint_is_refused() {
        for cp in [sample_checkpoint(), sample_shard_checkpoint()] {
            let text = cp.render();
            assert!(text.is_ascii());
            // Cutting anywhere inside the document is an error, never a
            // panic; only the trailing newline is not part of it.
            let body = text.trim_end().len();
            for cut in 0..body {
                assert!(Checkpoint::parse(&text[..cut]).is_err(), "prefix of {cut} bytes parsed");
            }
            for cut in body..text.len() {
                assert_eq!(Checkpoint::parse(&text[..cut]).unwrap(), cp);
            }
        }
    }
}
