//! The experiment grid: run every application on every input, replay on
//! every chip under every optimisation configuration, and collect the
//! timing dataset the paper's analysis consumes.
//!
//! One *cell* of the dataset is an (application, input, chip) tuple with
//! `runs` noisy timings for each of the 96 configurations — the paper's
//! 306-tuple, ~88k-measurement dataset (Section VI-D), regenerated
//! deterministically from a seed.
//!
//! # Concurrency
//!
//! The grid is embarrassingly parallel and [`run_study_on`] exploits
//! that: trace collection fans out over (input, application) pairs and
//! pricing over (pair, geometry family) tasks — the fan-out the sweep
//! and the cloud pricing share — both on the persistent worker pool
//! ([`gpp_par::par_map`]). Timing noise is seeded per
//! (cell, configuration, run), so the result is a pure function of
//! [`StudyConfig`] regardless of thread count — a parallel study is
//! byte-identical to a single-threaded one.
//!
//! [`run_study_on`] is the one entry point; [`run_study`] runs it on the six
//! study chips with a default [`RunCtx`]. The context's tracer receives
//! pipeline spans, and its [`crate::TraceCache`] lets a
//! warm run skip recording entirely; neither changes the dataset.

use std::collections::HashSet;
use std::io::BufReader;
use std::path::Path;

use gpp_graph::rng::{fnv1a, Rng64};
use gpp_sim::chip::{study_chips, ChipProfile};
use gpp_sim::opts::NUM_CONFIGS;
use serde::{Deserialize, Serialize};

use crate::cache::{create_parent_dir, write_atomically};
use crate::inputs::StudyScale;
use crate::pipeline::{Grid, RunCtx};

/// Log-normal sigma of the multiplicative timing noise.
const NOISE_SIGMA: f64 = 0.015;

/// Parameters of a study run.
#[derive(Debug, Clone, Copy)]
pub struct StudyConfig {
    /// Input scale.
    pub scale: StudyScale,
    /// Seed for input generation and timing noise.
    pub seed: u64,
    /// Repetitions per (cell, configuration) — the paper used 3.
    pub runs: usize,
    /// Use the extended input set (two graphs per class) instead of the
    /// paper's one-per-class minimum.
    pub extended_inputs: bool,
    /// Worker threads for the grid. `0` (the default) picks the
    /// machine's available parallelism; `1` forces a serial run. The
    /// dataset does not depend on this value.
    pub threads: usize,
    /// Append the seven DSL programs ([`crate::dsl::dsl_applications`],
    /// compiled once per study) to the 17 handwritten
    /// applications. Off by default, so the standard dataset is
    /// unchanged.
    pub dsl_programs: bool,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            scale: StudyScale::Full,
            seed: 0x9a7e_2019,
            runs: 3,
            extended_inputs: false,
            threads: 0,
            dsl_programs: false,
        }
    }
}

impl StudyConfig {
    /// A reduced configuration for integration tests.
    pub fn small() -> Self {
        StudyConfig {
            scale: StudyScale::Small,
            ..StudyConfig::default()
        }
    }

    /// A minimal configuration for unit tests.
    pub fn tiny() -> Self {
        StudyConfig {
            scale: StudyScale::Tiny,
            ..StudyConfig::default()
        }
    }

    /// The worker-thread count a study run will actually use
    /// (see [`gpp_par::effective_threads`]).
    pub fn effective_threads(&self) -> usize {
        gpp_par::effective_threads(self.threads)
    }
}

/// One (application, input, chip) tuple's timings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    /// Application name.
    pub app: String,
    /// Input name.
    pub input: String,
    /// Chip name.
    pub chip: String,
    /// `times[config_index][run]`, nanoseconds;
    /// `config_index` follows [`gpp_sim::opts::OptConfig::index`].
    pub times: Vec<Vec<f64>>,
}

impl Cell {
    /// Builds a cell from its timings.
    pub fn new(app: String, input: String, chip: String, times: Vec<Vec<f64>>) -> Self {
        Cell {
            app,
            input,
            chip,
            times,
        }
    }

    /// Mutable access to the timings, the same as the public `times`
    /// field. Its only caller is `perf/src/digest.rs`'s test; the
    /// benchmark change (ROADMAP item 1) deletes it.
    pub fn times_mut(&mut self) -> &mut Vec<Vec<f64>> {
        &mut self.times
    }
}

/// The full study dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// Application names, in registry order.
    pub apps: Vec<String>,
    /// Input names.
    pub inputs: Vec<String>,
    /// Chip names, in Table I order.
    pub chips: Vec<String>,
    /// Repetitions per (cell, configuration).
    pub runs: usize,
    /// One cell per (application, input, chip), iteration order
    /// input-major, then application, then chip.
    pub cells: Vec<Cell>,
}

impl Dataset {
    /// Builds a dataset from its parts.
    pub fn new(
        apps: Vec<String>,
        inputs: Vec<String>,
        chips: Vec<String>,
        runs: usize,
        cells: Vec<Cell>,
    ) -> Self {
        Dataset {
            apps,
            inputs,
            chips,
            runs,
            cells,
        }
    }

    /// Mutable access to the cells, the same as the public `cells`
    /// field. Its only caller is `perf/src/digest.rs`'s test; the
    /// benchmark change (ROADMAP item 1) deletes it.
    pub fn cells_mut(&mut self) -> &mut Vec<Cell> {
        &mut self.cells
    }

    /// Serialises the dataset as JSON to `path`, atomically (temporary
    /// file in the same directory, then rename), so a reader never sees a
    /// partial dataset and a failed write leaves the old file in place.
    /// It first runs [`Dataset::load_json`]'s checks, so a saved dataset
    /// always loads.
    ///
    /// # Errors
    ///
    /// Propagates I/O and serialisation failures; a failed check is
    /// [`std::io::ErrorKind::InvalidData`], naming the cell and field,
    /// and writes nothing.
    pub fn save_json(&self, path: &Path) -> std::io::Result<()> {
        let invalid = |e: String| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
        self.check().map_err(invalid)?;
        create_parent_dir(path)?;
        let json = serde_json::to_string(self).map_err(|e| invalid(e.to_string()))?;
        write_atomically(path, json.as_bytes())
    }

    /// Loads a dataset saved by [`Dataset::save_json`] and checks the
    /// shape every analysis relies on: `runs ≥ 1`; every cell has
    /// [`NUM_CONFIGS`] configurations of exactly `runs` times, each finite
    /// and positive; each cell's app, input and chip are listed in the
    /// header; and no (app, input, chip) appears twice.
    ///
    /// # Errors
    ///
    /// Propagates I/O and deserialisation failures; a failed check is
    /// [`std::io::ErrorKind::InvalidData`], naming the cell and field.
    pub fn load_json(path: &Path) -> std::io::Result<Dataset> {
        let invalid = |e: String| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
        let file = std::fs::File::open(path)?;
        let ds: Dataset =
            serde_json::from_reader(BufReader::new(file)).map_err(|e| invalid(e.to_string()))?;
        ds.check().map_err(invalid)?;
        Ok(ds)
    }

    /// The checks of [`Dataset::load_json`]; the error names the first
    /// offending cell and field.
    fn check(&self) -> Result<(), String> {
        if self.runs == 0 {
            return Err("runs must be at least 1".into());
        }
        let mut seen = HashSet::with_capacity(self.cells.len());
        for (k, cell) in self.cells.iter().enumerate() {
            let at = format!("cell {k} ({}/{}/{})", cell.app, cell.input, cell.chip);
            for (field, names, name) in [
                ("app", &self.apps, &cell.app),
                ("input", &self.inputs, &cell.input),
                ("chip", &self.chips, &cell.chip),
            ] {
                if !names.contains(name) {
                    return Err(format!("{at}: {field} {name:?} is not listed in {field}s"));
                }
            }
            if !seen.insert((cell.app.as_str(), cell.input.as_str(), cell.chip.as_str())) {
                return Err(format!("{at}: duplicate (app, input, chip)"));
            }
            if cell.times.len() != NUM_CONFIGS {
                return Err(format!(
                    "{at}: times has {} configurations, expected {NUM_CONFIGS}",
                    cell.times.len()
                ));
            }
            for (c, runs) in cell.times.iter().enumerate() {
                if runs.len() != self.runs {
                    return Err(format!(
                        "{at}: times[{c}] has {} runs, expected {}",
                        runs.len(),
                        self.runs
                    ));
                }
                if let Some(t) = runs.iter().find(|t| !(t.is_finite() && **t > 0.0)) {
                    return Err(format!(
                        "{at}: times[{c}] holds {t}, not a finite positive time"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Loads the dataset `gpp study --out path` saved at `path`. Nothing
/// runs a study in its place: a missing file and one that does not load
/// are errors that name the command making a new one.
///
/// # Errors
///
/// Returns the message to print for a missing or unloadable file.
pub fn load_dataset(path: &Path) -> Result<Dataset, String> {
    let shown = path.display();
    if !path.exists() {
        return Err(format!(
            "no dataset at {shown}; run `gpp study --out {shown}` first"
        ));
    }
    Dataset::load_json(path).map_err(|e| {
        format!("cannot load {shown}: {e}; `gpp study --out {shown}` writes a new one")
    })
}

/// Runs the full grid on the six study chips, untraced and uncached —
/// [`run_study_on`] with [`study_chips`] and a default [`RunCtx`].
///
/// # Panics
///
/// Panics as [`run_study_on`] does.
pub fn run_study(config: &StudyConfig) -> Dataset {
    run_study_on(config, &study_chips(), &RunCtx::default())
}

/// Runs the full grid over `chips` and collects the dataset.
///
/// Each (application, input) pair is executed once against a trace
/// recorder — validating the computed result against the sequential
/// references — or loaded from
/// `ctx.cache`. The trace is then priced for every chip of each
/// [`gpp_sim::chip::ChipBatch`] geometry family under all 96
/// configurations in one traversal per geometry (the shared fan-out of
/// [`crate::sweep::run_sweep`]). Timing noise is log-normal, seeded per
/// (cell, configuration, run), so the dataset is a pure function of
/// `config` and `chips`, whatever `config.threads` and `ctx` are. Cells
/// come out pair-major (input, then application), then in `chips`
/// order.
///
/// `ctx.tracer` receives a `study` span over the whole run, a `phase`
/// span per stage (`generate-inputs`, `collect-traces`, `price-cells`,
/// `finalize`), a `trace` span per pair (with a `record` span inside it
/// when the pair's application actually ran, and a `validate` span
/// inside that) and a `cell` span per
/// (pair, family) task. The run's counts are span counts: traces
/// compiled are `record` spans, cache hits `trace` − `record` spans,
/// and worker utilisation comes from the item spans under each phase
/// (see [`gpp_obs::phase_tree`]). On a warm cache the `collect-traces`
/// phase runs no application, so it holds no `record` span.
///
/// # Panics
///
/// Panics if an application produces an incorrect result, if
/// `config.runs` is zero, if `chips` is empty or
/// contains duplicate names, or if a chip fails
/// [`ChipProfile::validate`].
pub fn run_study_on(config: &StudyConfig, chips: &[ChipProfile], ctx: &RunCtx) -> Dataset {
    assert!(config.runs > 0, "need at least one run per measurement");
    assert!(!chips.is_empty(), "need at least one chip");
    {
        let mut names: Vec<&str> = chips.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), chips.len(), "chip names must be unique");
    }
    let tracer = &ctx.tracer;
    // The study span opens before input generation so the top-level
    // phase spans (`generate-inputs`, `collect-traces`, `price-cells`,
    // `finalize`) tile its wall time — `--profile` prints how close the
    // sum of its phases comes to the root.
    let _study_span = tracer.span("study");
    let grid = Grid::generate(
        tracer,
        config.scale,
        config.seed,
        config.extended_inputs,
        config.dsl_programs,
    );
    // Each chip's 96 prices become one cell: the seeded noise applied
    // per (cell, configuration, run).
    let cells = grid.price_batches(
        ctx,
        chips,
        config.threads,
        "price-cells",
        |p, chip, priced| {
            let (i, a) = grid.pairs[p];
            let (app, input) = (grid.apps[a].name(), &grid.inputs[i].name);
            let times: Vec<Vec<f64>> = (0..NUM_CONFIGS)
                .map(|idx| {
                    let base = priced[idx].time_ns;
                    let mut rng = noise_rng(config.seed, app, input, &chip.name, idx);
                    (0..config.runs)
                        .map(|_| base * rng.next_log_normal(0.0, NOISE_SIGMA))
                        .collect()
                })
                .collect();
            Cell::new(app.to_owned(), input.clone(), chip.name.clone(), times)
        },
    );

    let _finalize = tracer.span_detail("phase", Some("finalize".to_owned()));
    Dataset::new(
        grid.apps.iter().map(|a| a.name().to_owned()).collect(),
        grid.inputs.iter().map(|i| i.name.clone()).collect(),
        chips.iter().map(|c| c.name.clone()).collect(),
        config.runs,
        cells,
    )
}

/// Derives the per-(cell, configuration) noise stream.
fn noise_rng(seed: u64, app: &str, input: &str, chip: &str, config_index: usize) -> Rng64 {
    let h = fnv1a(
        app.bytes()
            .chain([0])
            .chain(input.bytes())
            .chain([0])
            .chain(chip.bytes())
            .chain([0])
            .chain((config_index as u32).to_le_bytes()),
    );
    Rng64::new(seed ^ h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpp_graph::rng::{for_cases, mutate, JSON_TOKENS};

    fn tiny_dataset() -> Dataset {
        run_study(&StudyConfig::tiny())
    }

    /// The first cell with these labels, by a linear scan.
    fn find<'d>(ds: &'d Dataset, app: &str, input: &str, chip: &str) -> Option<&'d Cell> {
        ds.cells
            .iter()
            .find(|c| (c.app.as_str(), c.input.as_str(), c.chip.as_str()) == (app, input, chip))
    }

    #[test]
    fn load_dataset_names_gpp_study_and_leaves_a_bad_file_alone() {
        let dir = std::env::temp_dir().join(format!("gpp-study-load-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("missing.json");
        let err = load_dataset(&missing).unwrap_err();
        assert!(err.starts_with("no dataset at "), "{err}");
        assert!(err.contains("gpp study --out"), "{err}");
        assert!(!missing.exists());
        let path = dir.join("dataset.json");
        let bytes = b"{\"not\": \"a dataset\"";
        std::fs::write(&path, bytes).unwrap();
        let err = load_dataset(&path).unwrap_err();
        assert!(err.starts_with("cannot load "), "{err}");
        assert!(err.contains("gpp study --out"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tiny_study_has_full_grid() {
        let ds = tiny_dataset();
        assert_eq!(ds.apps.len(), 17);
        assert_eq!(ds.inputs.len(), 3);
        assert_eq!(ds.chips.len(), 6);
        assert_eq!(ds.cells.len(), 17 * 3 * 6);
        for cell in &ds.cells {
            assert_eq!(cell.times.len(), NUM_CONFIGS);
            assert!(cell.times.iter().all(|r| r.len() == 3));
            assert!(cell
                .times
                .iter()
                .flatten()
                .all(|&t| t.is_finite() && t > 0.0));
        }
    }

    #[test]
    fn dsl_programs_extend_the_grid_deterministically() {
        let cfg = StudyConfig {
            dsl_programs: true,
            ..StudyConfig::tiny()
        };
        let ds = run_study(&cfg);
        assert_eq!(ds.apps.len(), 17 + 7);
        assert_eq!(ds.cells.len(), 24 * 3 * 6);
        assert!(ds.apps.iter().filter(|a| a.starts_with("dsl-")).count() == 7);
        assert!(find(&ds, "dsl-bfs-wl", "road", "MALI").is_some());
        // Deterministic, including in parallel.
        let again = run_study(&StudyConfig { threads: 4, ..cfg });
        assert_eq!(ds, again);
        // The handwritten prefix of the grid is untouched by the flag.
        let plain = run_study(&StudyConfig::tiny());
        assert_eq!(&ds.apps[..17], &plain.apps[..]);
        for cell in &plain.cells {
            assert_eq!(find(&ds, &cell.app, &cell.input, &cell.chip), Some(cell));
        }
    }

    #[test]
    fn interleaved_chips_scatter_pair_major_in_input_order() {
        // Every geometry family split apart: the pricing fan-out regroups
        // the chips into families, and the scatter must undo that.
        let order = ["MALI", "M4000", "R9", "GTX1080", "IRIS", "HD5500"];
        let chips: Vec<ChipProfile> = order
            .iter()
            .map(|name| gpp_sim::chip::study_chip(name).expect("study chip"))
            .collect();
        let interleaved = run_study_on(&StudyConfig::tiny(), &chips, &RunCtx::default());
        let table_one = tiny_dataset();
        assert_eq!(interleaved.chips, order);
        assert_eq!(interleaved.cells.len(), table_one.cells.len());
        let bits =
            |c: &Cell| -> Vec<u64> { c.times.iter().flatten().map(|t| t.to_bits()).collect() };
        for (k, cell) in interleaved.cells.iter().enumerate() {
            // Pair-major as in the Table I run, then the input chip order.
            let pair = &table_one.cells[k / 6 * 6];
            let key = (cell.app.as_str(), cell.input.as_str(), cell.chip.as_str());
            assert_eq!(key, (pair.app.as_str(), pair.input.as_str(), order[k % 6]));
            let same = find(&table_one, key.0, key.1, key.2).expect("same-label cell");
            assert_eq!(bits(cell), bits(same), "cell {k}");
        }
    }

    #[test]
    fn extended_inputs_grow_the_grid() {
        let ds = run_study(&StudyConfig {
            extended_inputs: true,
            ..StudyConfig::tiny()
        });
        assert_eq!(ds.inputs.len(), 6);
        assert_eq!(ds.cells.len(), 17 * 6 * 6);
    }

    #[test]
    fn study_is_deterministic() {
        let a = run_study(&StudyConfig::tiny());
        let b = run_study(&StudyConfig::tiny());
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_study_matches_single_threaded_exactly() {
        let serial = run_study(&StudyConfig {
            threads: 1,
            ..StudyConfig::tiny()
        });
        let parallel = run_study(&StudyConfig {
            threads: 4,
            ..StudyConfig::tiny()
        });
        assert_eq!(serial, parallel);
        // Byte-identical, not just structurally equal.
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&parallel).unwrap()
        );
    }

    #[test]
    fn different_seed_changes_times_not_shape() {
        let a = run_study(&StudyConfig::tiny());
        let b = run_study(&StudyConfig {
            seed: 1234,
            ..StudyConfig::tiny()
        });
        assert_eq!(a.cells.len(), b.cells.len());
        assert_ne!(a, b);
    }

    #[test]
    fn noise_is_small_and_multiplicative() {
        let ds = tiny_dataset();
        for cell in ds.cells.iter().take(20) {
            for runs in &cell.times {
                let mean = runs.iter().sum::<f64>() / runs.len() as f64;
                for &t in runs {
                    assert!((t / mean - 1.0).abs() < 0.2, "noise too large: {runs:?}");
                }
            }
        }
    }

    #[test]
    fn json_round_trip() {
        let ds = tiny_dataset();
        let dir = std::env::temp_dir().join(format!("gpp-study-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("dataset.json");
        // The second save replaces the first through a rename.
        ds.save_json(&path).unwrap();
        ds.save_json(&path).unwrap();
        let back = Dataset::load_json(&path).unwrap();
        assert_eq!(ds, back);
        // No temporary file is left beside the dataset.
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names, ["dataset.json"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mutated_dataset_files_load_or_fail_without_panicking() {
        // Two cells of one run each keep every case small.
        let mut ds = tiny_dataset();
        ds.cells.truncate(2);
        ds.runs = 1;
        for cell in &mut ds.cells {
            cell.times.iter_mut().for_each(|runs| runs.truncate(1));
        }
        let json = serde_json::to_string(&ds).unwrap().into_bytes();
        let dir = std::env::temp_dir().join(format!("gpp-study-mutate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (path, again) = (dir.join("dataset.json"), dir.join("again.json"));
        let mut loaded = 0;
        for_cases(0xda7a, 4_000, |rng| {
            let mut bytes = json.clone();
            mutate(rng, &mut bytes, JSON_TOKENS);
            std::fs::write(&path, &bytes).unwrap();
            // A dataset that loads passes the checks, so it saves and
            // loads back unchanged.
            if let Ok(ds) = Dataset::load_json(&path) {
                ds.save_json(&again).unwrap();
                assert_eq!(Dataset::load_json(&again).unwrap(), ds);
                loaded += 1;
            }
        });
        assert!(loaded > 0, "no mutant loaded");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_refuses_a_dataset_load_would_reject() {
        let mut ds = tiny_dataset();
        ds.cells[3].times[5][0] = f64::NAN;
        let path = std::env::temp_dir().join(format!("gpp-study-nan-{}.json", std::process::id()));
        let err = ds.save_json(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("times[5]"), "{err}");
        assert!(!path.exists());
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_rejected() {
        run_study(&StudyConfig {
            runs: 0,
            ..StudyConfig::tiny()
        });
    }

    /// A context recording spans, over `cache`.
    fn traced(cache: Option<crate::TraceCache>) -> RunCtx {
        RunCtx {
            tracer: gpp_obs::Tracer::recording(),
            cache,
        }
    }

    /// How many `name` spans closed under the run's root span.
    fn closed(events: &[gpp_obs::TraceEvent], name: &str) -> u64 {
        gpp_obs::phase_tree(events)[0].count_of(name)
    }

    #[test]
    fn traced_study_is_byte_identical_to_untraced() {
        let plain = run_study(&StudyConfig::tiny());
        let ctx = traced(None);
        let traced = run_study_on(&StudyConfig::tiny(), &study_chips(), &ctx);
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&traced).unwrap()
        );
        let events = ctx.tracer.take();
        // One recorded trace per pair, one pricing task per (pair,
        // geometry family) of the six study chips.
        assert_eq!(closed(&events, "record"), 17 * 3);
        assert_eq!(closed(&events, "cell"), 17 * 3 * 4);
        // Every per-item span carries its work-item label.
        assert!(events
            .iter()
            .any(|e| e.name == "cell" && e.detail.as_deref() == Some("bfs-wl/road/MALI")));
    }

    #[test]
    fn cached_study_is_byte_identical_and_warm_runs_skip_collection() {
        let dir = std::env::temp_dir().join(format!("gpp-study-cache-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cache = crate::TraceCache::new(&dir).unwrap();
        let plain = run_study(&StudyConfig::tiny());

        // Cold: every trace is a miss, recorded and stored.
        let ctx = traced(Some(cache.clone()));
        let cold = run_study_on(&StudyConfig::tiny(), &study_chips(), &ctx);
        let events = ctx.tracer.take();
        assert_eq!(closed(&events, "trace"), 17 * 3);
        assert_eq!(closed(&events, "record"), 17 * 3);

        // Warm (and parallel): every trace is a hit, nothing is
        // recorded — the collect-traces phase runs no application.
        let ctx = traced(Some(cache));
        let warm = run_study_on(
            &StudyConfig {
                threads: 4,
                ..StudyConfig::tiny()
            },
            &study_chips(),
            &ctx,
        );
        let events = ctx.tracer.take();
        assert_eq!(closed(&events, "trace"), 17 * 3);
        assert_eq!(closed(&events, "record"), 0);

        // Cacheless, cold-cache, and warm-cache datasets are all
        // byte-identical.
        let baseline = serde_json::to_string(&plain).unwrap();
        assert_eq!(baseline, serde_json::to_string(&cold).unwrap());
        assert_eq!(baseline, serde_json::to_string(&warm).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }
}
