//! The subcommands: [`COMMANDS`] declares each one's flags and help, and
//! each implementation takes the parsed [`Args`] and the invocation's
//! [`RunCtx`] and writes its report to the given writer (stdout in
//! production, a buffer in tests). [`run`] builds the context from the
//! shared flags and reports what it observed once the command is done.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use gpp_apps::cache::TraceCache;
use gpp_apps::study::{load_dataset, run_study_on, Dataset, StudyConfig};
use gpp_apps::sweep::{price_cloud, run_sweep, SweepConfig};
use gpp_apps::{create_parent_dir, write_atomically, RunCtx, StudyInput, StudyScale};
use gpp_core::analysis::DatasetStats;
use gpp_core::report::{self, percent, Table};
use gpp_core::strategy::{build_assignment_par, chip_function_par, Strategy};
use gpp_core::{
    evaluate_assignment, extremes, heatmap, leave_one_out_par, ranking, subsample_sensitivity_par,
    Objective, SearchParams, SensitivityReport, SlowdownMatrix, StrategyEvaluation,
};
use gpp_graph::{io as graph_io, properties};
use gpp_irgl::{codegen, interp, parser, programs, transform, Program};
use gpp_obs::{
    metrics, peak_rss_bytes, phase_tree, slowest_spans, to_jsonl, CostBreakdown, PhaseNode,
    TraceEvent, Tracer,
};
use gpp_sim::chip::{latin_hypercube_chips, study_chip, study_chips, ChipProfile};
use gpp_sim::exec::Machine;
use gpp_sim::memmodel::chip_support;
use gpp_sim::opts::{OptConfig, NUM_CONFIGS};
use gpp_sim::trace::{CompiledTrace, Recorder};

use crate::args::{self, Args, Command, Flag, Kind};

const fn text(name: &'static str, metavar: &'static str, help: &'static str) -> Flag {
    Flag::new(name, Kind::Text(metavar), help)
}

const fn switch(name: &'static str, help: &'static str) -> Flag {
    Flag::new(name, Kind::Bool, help)
}

const fn int(name: &'static str, min: u64, help: &'static str) -> Flag {
    Flag::new(name, Kind::Int { min, max: u64::MAX }, help)
}

/// Every subcommand's spec: its positionals, flags and help, and the
/// function that runs it. `gpp help` lists them in this order. Every
/// command also takes [`args::SHARED_FLAGS`].
#[rustfmt::skip]
pub static COMMANDS: &[Command] = {
    // Flags several commands share. The numeric defaults equal the library
    // configs' (`StudyConfig`, `SweepConfig`, `SearchParams`); a test checks.
    // A count that sizes an allocation (`--runs`, `--trials`, `--chips`,
    // `--beam`) has a maximum, so a huge value is an argument error, not an abort.
    const THREADS: Flag = int("threads", 0, "cap on the persistent pool's threads per fan-out; 0 means the machine's parallelism; output is byte-identical at any count").default("0");
    const DATA: Flag = text("data", "FILE", "the study dataset; it must exist, and only `gpp study --out FILE` writes one (default target/study/dataset.json)");
    const SEED: Flag = int("seed", 0, "input-generation seed").default("2591957017");
    const RUNS: Flag = Flag::new("runs", Kind::Int { min: 1, max: 1_000 }, "timed runs per configuration").default("3");
    const SCALE: Flag = Flag::new("scale", Kind::Choice(&["full", "small", "tiny"]), "input scale");
    const SMOKE_SCALE: Flag = SCALE.default("small").smoke("tiny");
    const TRACE_CACHE: Flag = text("trace-cache", "DIR", "persist recorded traces in DIR so warm runs skip collecting them; delete DIR to invalidate");
    const CHIPS_FILE: Flag = text("chips-file", "FILE", "price this JSON chip list (`gpp export-chips`, `sweep --emit-chips`) instead");
    const OPTS: Flag = text("opts", "OPTS", "optimisation configuration, e.g. \"sg, fg8\" (default: the baseline)");
    const INPUT: Flag = Flag::new("input", Kind::Choice(&["road", "social", "random"]), "study input");

    &[
        Command { name: "help", positionals: "[COMMAND]", arity: (0, 1), summary: "this list, or one command's flags", run: help, flags: &[] },
        Command { name: "chips", positionals: "", arity: (0, 0), summary: "the six study chips (Table I)", run: chips, flags: &[] },
        Command { name: "study", positionals: "", arity: (0, 0), summary: "run the full grid and save the dataset", run: study, flags: &[
            SCALE.default("full"), SEED, RUNS, THREADS,
            text("chips", "FILE", "a JSON chip list (`gpp export-chips`) in place of the six study chips"), TRACE_CACHE,
            text("out", "FILE", "where to save the dataset (default target/study/dataset.json)"),
            switch("dsl", "append the seven compiled DSL programs"),
        ] },
        Command { name: "explain", positionals: "", arity: (0, 0), summary: "per-mechanism cost attribution of one priced cell per chip", run: explain, flags: &[
            text("app", "APP", "application").default("bfs-wl"), INPUT.default("road"),
            text("chip", "NAME", "one study chip (default: all six)"), OPTS, SCALE.default("small"), SEED,
        ] },
        Command { name: "export-chips", positionals: "FILE", arity: (1, 1), summary: "write the six study chip models as JSON", run: export_chips, flags: &[] },
        Command { name: "analyze", positionals: "", arity: (0, 0), summary: "strategy spectrum (Figs 3 and 4)", run: analyze, flags: &[DATA, THREADS ] },
        Command { name: "chip-function", positionals: "", arity: (0, 0), summary: "per-chip recommendations (Table IX)", run: chip_function_cmd, flags: &[DATA, THREADS ] },
        Command { name: "heatmap", positionals: "", arity: (0, 0), summary: "cross-chip portability (Fig 1)", run: heatmap_cmd, flags: &[DATA ] },
        Command { name: "ranking", positionals: "", arity: (0, 0), summary: "global configuration ranking (Table III)", run: ranking_cmd, flags: &[
            DATA, int("top", 0, "print the first and last N rows; N >= 48 prints all 95 once").default("10"),
        ] },
        Command { name: "extremes", positionals: "", arity: (0, 0), summary: "per-chip extremes (Table II)", run: extremes_cmd, flags: &[DATA ] },
        Command { name: "microbench", positionals: "", arity: (0, 0), summary: "sg-cmb / m-divg / launch utilisation (Table X, Fig 5)", run: microbench, flags: &[] },
        Command { name: "classify", positionals: "FILE", arity: (1, 1), summary: "classify an edge-list graph into road/social/random", run: classify, flags: &[] },
        Command { name: "compile", positionals: "PROGRAM", arity: (1, 1), summary: "compile a built-in DSL program (by name) or a .irgl file and print its OpenCL", run: compile_cmd, flags: &[OPTS ] },
        Command { name: "run-dsl", positionals: "PROGRAM", arity: (1, 1), summary: "execute a built-in DSL program (by name) or a .irgl file on a simulated chip", run: run_dsl, flags: &[
            INPUT.default("social"), text("chip", "NAME", "study chip").default("R9"), OPTS,
        ] },
        Command { name: "sensitivity", positionals: "", arity: (0, 0), summary: "sample-size sensitivity sweep (Section IX-b)", run: sensitivity_cmd, flags: &[
            DATA, Flag::new("trials", Kind::Int { min: 1, max: 10_000 }, "subsamples per fraction").default("5"), THREADS,
        ] },
        Command { name: "sweep", positionals: "", arity: (0, 0), summary: "price a latin-hypercube chip cloud and invert the win/loss boundaries", run: sweep_cmd, flags: &[
            Flag::new("chips", Kind::Int { min: 2, max: 100_000 }, "latin-hypercube cloud size").default("512").smoke("32"),
            CHIPS_FILE, SMOKE_SCALE, SEED, THREADS,
            text("out", "FILE", "save the sweep and its report as JSON"),
            text("emit-chips", "FILE", "save the swept chips as JSON"), TRACE_CACHE,
            switch("smoke", "tiny-scale CI preset"),
            // The benchmark's reference sweep still passes the deleted
            // --per-chip; the benchmark change that drops that call deletes
            // this entry (ROADMAP item 4).
            Flag::new("per-chip", Kind::Retired, "removed; ignored"),
        ] },
        Command { name: "portfolio", positionals: "", arity: (0, 0), summary: "k-version portfolio search: best-of-k slowdown vs the oracle for k = 1..=--k", run: portfolio_cmd, flags: &[
            DATA, CHIPS_FILE,
            Flag::new("k", Kind::Int { min: 1, max: NUM_CONFIGS as u64 }, "largest portfolio").default("8").smoke("4"),
            Flag::new("objective", Kind::Choice(&["geomean", "worst"]), "what a portfolio minimises").default("geomean"),
            int("exact-max", 1, "search exactly up to this k, then beam search").default("3").smoke("2"),
            Flag::new("beam", Kind::Int { min: 1, max: 10_000 }, "beam width").default("64"), SMOKE_SCALE, SEED, THREADS,
            text("out", "FILE", "save the curve as JSON"), TRACE_CACHE,
            switch("smoke", "tiny in-memory study when no --data is given"),
        ] },
        Command { name: "predict", positionals: "", arity: (0, 0), summary: "leave-one-out predictive model (Section IX-b)", run: predict_cmd, flags: &[
            DATA, int("probes", 1, "configurations probed per cell").default("8"), THREADS,
        ] },
        Command { name: "report", positionals: "", arity: (0, 0), summary: "the generated part of EXPERIMENTS.md: every paper table and figure", run: crate::report::report, flags: &[DATA ] },
        Command { name: "export-csv", positionals: "", arity: (0, 0), summary: "dataset medians as CSV", run: export_csv, flags: &[
            DATA, text("out", "FILE", "write the CSV here instead of stdout"),
        ] },
    ]
};

/// Runs one command line (without the program name) under one
/// [`RunCtx`]: its tracer serves the shared flags, its cache the
/// command's `--trace-cache`. Observation never changes a command's
/// results, only what is printed and written after them.
///
/// # Errors
///
/// Returns a user-facing message on bad arguments, missing files,
/// malformed inputs, or an observation file that cannot be written.
pub fn run(argv: impl IntoIterator<Item = String>, out: &mut dyn Write) -> Result<(), String> {
    let args = args::parse_command_line(COMMANDS, argv)?;
    let cache = args
        .command
        .flag("trace-cache")
        .and_then(|_| args.str("trace-cache"))
        .map(|dir| TraceCache::new(Path::new(dir)).map_err(|e| format!("{dir}: {e}")))
        .transpose()?;
    let metrics_on = args.str("metrics-out").is_some();
    // One buffer of spans serves every reader in `observe`.
    let shared = args.flag("profile") || args.str("trace-out").is_some() || metrics_on;
    let tracer = if shared || cache.is_some() {
        Tracer::recording()
    } else {
        Tracer::disabled()
    };
    if metrics_on {
        metrics::reset();
        metrics::set_enabled(true);
    }
    let ctx = RunCtx { tracer, cache };
    let started = Instant::now();
    let observed = (args.command.run)(&args, &ctx, out)
        .and_then(|()| observe(&args, &ctx, &ctx.tracer.take(), started.elapsed(), out));
    if metrics_on {
        metrics::set_enabled(false);
    }
    observed
}

/// The one pass after a command: writes the trace file, folds the
/// spans once, and reports what the shared flags and `--trace-cache`
/// ask for.
fn observe(
    args: &Args,
    ctx: &RunCtx,
    events: &[TraceEvent],
    wall: Duration,
    out: &mut dyn Write,
) -> Result<(), String> {
    if let Some(path) = args.str("trace-out") {
        write_artifact(path, to_jsonl(events))?;
    }
    let roots = phase_tree(events);
    if ctx.cache.is_some() {
        // A cache miss records its trace; a hit only loads it.
        let count = |name| roots.iter().map(|r| r.count_of(name)).sum::<u64>();
        let misses = count("record");
        let hits = count("trace") - misses;
        w(out, format!("trace cache: {hits} hits, {misses} misses"))?;
    }
    if args.flag("profile") {
        print_profile(&roots, events, out)?;
    }
    if let Some(path) = args.str("trace-out") {
        w(out, format!("trace written to {path}"))?;
    }
    let Some(path) = args.str("metrics-out") else {
        return Ok(());
    };
    let name = args.command.name;
    let mut snapshot = metrics::snapshot();
    let gauges = &mut snapshot.gauges;
    gauges.insert(format!("{name}.wall_seconds"), wall.as_secs_f64());
    // The phases of the command's own run span, such as `study`'s.
    for root in roots.iter().filter(|r| r.name == name) {
        for phase in &root.children {
            let key = format!("{name}.phase_seconds.{}", phase.name);
            gauges.insert(key, phase.wall_ns / 1e9);
        }
    }
    write_artifact(path, snapshot.to_json())?;
    let (counters, gauges) = (snapshot.counters.len(), snapshot.gauges.len());
    w(
        out,
        format!("metrics: {counters} counters, {gauges} gauges written to {path}"),
    )
}

/// The `--profile` report: the phase tree (total and self wall time,
/// span count, worker utilisation), how much of each root its top-level
/// phases cover, the five slowest `cell` spans and peak RSS.
fn print_profile(
    roots: &[PhaseNode],
    events: &[TraceEvent],
    out: &mut dyn Write,
) -> Result<(), String> {
    let mut t = Table::new([
        "Phase",
        "Total (ms)",
        "Self (ms)",
        "Count",
        "Workers",
        "Busy",
    ]);
    for (depth, node) in roots.iter().flat_map(PhaseNode::flattened) {
        t.row([
            format!("{}{}", "  ".repeat(depth), node.name),
            format!("{:.1}", node.wall_ns / 1e6),
            format!("{:.1}", node.self_ns / 1e6),
            node.count.to_string(),
            node.workers.to_string(),
            percent(node.busy_frac),
        ]);
    }
    w(out, &t)?;
    // Coverage well below 100% means a stage runs uninstrumented. A root
    // that is itself a `phase` span (an analysis command's) has parallel
    // items for children, whose sum measures oversubscription instead.
    let is_phase = |root: &PhaseNode| {
        let label = Some(root.name.as_str());
        events
            .iter()
            .any(|e| e.name == "phase" && e.detail.as_deref() == label)
    };
    for root in roots.iter().filter(|root| !is_phase(root)) {
        w(
            out,
            format!(
                "phase coverage of `{}`: {} of {:.1} ms wall",
                root.name,
                percent(root.children_wall_ns() / root.wall_ns.max(1.0)),
                root.wall_ns / 1e6
            ),
        )?;
    }
    let slowest = slowest_spans(events, "cell", 5);
    if !slowest.is_empty() {
        w(out, "slowest cells:")?;
        for (label, ns) in slowest {
            w(out, format!("  {:>10.2} ms  {label}", ns / 1e6))?;
        }
    }
    if let Some(rss) = peak_rss_bytes() {
        let mib = rss as f64 / (1024.0 * 1024.0);
        w(out, format!("peak rss: {mib:.1} MiB"))?;
    }
    Ok(())
}

pub(crate) fn w(out: &mut dyn Write, text: impl std::fmt::Display) -> Result<(), String> {
    writeln!(out, "{text}").map_err(|e| e.to_string())
}

fn help(args: &Args, _: &RunCtx, out: &mut dyn Write) -> Result<(), String> {
    if let Some(name) = args.positional.first() {
        let command = COMMANDS
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| format!("unknown command `{name}`; try `gpp help`"))?;
        return w(out, command.help());
    }
    let mut text = String::from(
        "gpp — quantifying performance portability of graph applications on (simulated) GPUs\n\n\
         usage: gpp COMMAND [ARGS] [--FLAG [VALUE]]...; `gpp help COMMAND` lists a command's flags\n\n\
         commands:",
    );
    for c in COMMANDS {
        let usage = format!("{} {}", c.name, c.positionals);
        text += &format!("\n  {usage:22} {}", c.summary);
    }
    text += "\n\nevery command also takes:";
    for flag in args::SHARED_FLAGS {
        text += &format!("\n  {:22} {}", flag.usage(), flag.help);
    }
    w(out, text)
}

/// The `--scale` choice; every command that reads it declares a default.
fn scale(args: &Args) -> StudyScale {
    match args.str("scale") {
        Some("full") => StudyScale::Full,
        Some("small") => StudyScale::Small,
        _ => StudyScale::Tiny,
    }
}

/// A sweep configuration from `--scale`, `--seed` and `--threads`.
fn sweep_config(args: &Args) -> SweepConfig {
    SweepConfig {
        scale: scale(args),
        seed: args.get("seed"),
        threads: args.get("threads"),
    }
}

/// Default dataset location: `gpp study` writes it, the analysis commands read it.
const DEFAULT_DATA: &str = "target/study/dataset.json";

/// Loads the `--data` dataset. A missing file is an error: only
/// `gpp study` writes a dataset.
pub(crate) fn dataset(args: &Args) -> Result<Dataset, String> {
    load_dataset(Path::new(args.str("data").unwrap_or(DEFAULT_DATA)))
}

/// The `--input` study input at `scale`, drawn from `seed`.
fn study_input(args: &Args, scale: StudyScale, seed: u64) -> StudyInput {
    let name = args.get::<String>("input");
    gpp_apps::study_inputs(scale, seed)
        .into_iter()
        .find(|i| i.name == name)
        .expect("--input is a study input's name")
}

fn chips(_: &Args, _: &RunCtx, out: &mut dyn Write) -> Result<(), String> {
    w(out, report::chips_table(&study_chips()))
}

/// Reads a JSON chip list (`gpp export-chips`, `gpp sweep
/// --emit-chips`), rejecting an empty list, a repeated chip name and
/// any chip that fails [`ChipProfile::validate`].
fn read_chips_file(file: &str) -> Result<Vec<ChipProfile>, String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let chips: Vec<ChipProfile> =
        serde_json::from_str(&text).map_err(|e| format!("{file}: {e}"))?;
    if chips.is_empty() {
        return Err(format!("{file}: chip list is empty"));
    }
    // Datasets, sweeps and portfolios key their rows by chip name.
    let mut names: Vec<&str> = chips.iter().map(|c| c.name.as_str()).collect();
    names.sort_unstable();
    if let Some(dup) = names.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("{file}: duplicate chip name `{}`", dup[0]));
    }
    for (i, chip) in chips.iter().enumerate() {
        chip.validate()
            .map_err(|e| format!("{file}: chip {i}: {e}"))?;
    }
    Ok(chips)
}

/// Writes a CLI artifact to `path`: creates its directory, then writes
/// `bytes` atomically, so a reader sees the old file or the whole new
/// one.
fn write_artifact(path: &str, bytes: impl AsRef<[u8]>) -> Result<(), String> {
    let file = Path::new(path);
    create_parent_dir(file)
        .and_then(|()| write_atomically(file, bytes.as_ref()))
        .map_err(|e| format!("{path}: {e}"))
}

/// Writes `json` to the `--out` path, if one was given.
fn save_out(
    args: &Args,
    out: &mut dyn Write,
    json: serde_json::Result<String>,
) -> Result<(), String> {
    let Some(path) = args.str("out") else {
        return Ok(());
    };
    write_artifact(path, json.map_err(|e| e.to_string())?)?;
    w(out, format!("saved to {path}"))
}

/// Runs the study and saves its dataset. With `--trace-cache`, recorded
/// traces persist across invocations, and a warm cache skips collecting
/// them; the dataset is byte-identical either way.
fn study(args: &Args, ctx: &RunCtx, out: &mut dyn Write) -> Result<(), String> {
    let cfg = StudyConfig {
        scale: scale(args),
        seed: args.get("seed"),
        runs: args.get("runs"),
        threads: args.get("threads"),
        dsl_programs: args.flag("dsl"),
        ..StudyConfig::default()
    };
    let chips = study_chip_list(args)?;
    let started = Instant::now();
    let ds = run_study_on(&cfg, &chips, ctx);
    let path = args.str("out").unwrap_or(DEFAULT_DATA);
    ds.save_json(Path::new(path))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    w(
        out,
        format!(
            "collected {} cells x 96 configurations x {} runs in {:?}\nsaved to {path}",
            ds.cells.len(),
            ds.runs,
            started.elapsed(),
        ),
    )
}

/// Per-mechanism cost attribution: record one application trace, replay
/// it on each chip under one configuration, and tabulate where the
/// modelled nanoseconds go (Table VI's narrative, made quantitative).
fn explain(args: &Args, _: &RunCtx, out: &mut dyn Write) -> Result<(), String> {
    let app_name = &args.get::<String>("app");
    let cfg = config_opt(args)?;
    let chips = match args.str("chip") {
        None => study_chips(),
        Some(name) => vec![study_chip(name).ok_or_else(|| format!("unknown chip `{name}`"))?],
    };
    let app = gpp_apps::application(app_name)
        .ok_or_else(|| format!("unknown application `{app_name}`"))?;
    let input = study_input(args, scale(args), args.get("seed"));
    let mut recorder = Recorder::new();
    app.run(&input.graph, &mut recorder);
    let compiled = CompiledTrace::new(recorder.into_trace());
    let priced: Vec<(ChipProfile, f64, CostBreakdown)> = chips
        .iter()
        .map(|chip| {
            let machine = Machine::new(chip.clone());
            let (stats, breakdown) = compiled.replay(&machine, cfg);
            (chip.clone(), stats.time_ns, breakdown)
        })
        .collect();
    w(
        out,
        format!(
            "cost attribution for {app_name} on {} ({} nodes) under `{cfg}` — modelled us (share)",
            input.name,
            input.graph.num_nodes()
        ),
    )?;
    let mut headers = vec!["Component".to_string()];
    headers.extend(priced.iter().map(|(c, _, _)| c.name.clone()));
    let mut t = Table::new(headers);
    for (label, _) in CostBreakdown::default().components() {
        let mut row = vec![label.to_string()];
        for (_, _, b) in &priced {
            let v = b
                .components()
                .iter()
                .find(|(l, _)| *l == label)
                .map_or(0.0, |&(_, v)| v);
            row.push(format!("{:.1} ({})", v / 1_000.0, percent(b.share(label))));
        }
        t.row(row);
    }
    let mut row = vec!["total".to_string()];
    for (_, time_ns, breakdown) in &priced {
        debug_assert!(
            (breakdown.total() - time_ns).abs() <= 1e-9 * time_ns.abs(),
            "attribution must sum to the priced total"
        );
        row.push(format!("{:.1}", time_ns / 1_000.0));
    }
    t.row(row);
    w(out, &t)?;
    let width = footer_width(priced.iter().map(|(c, _, _)| c.name.as_str()));
    for (chip, _, _) in &priced {
        w(
            out,
            format!(
                "{:>width$}: {}",
                chip.name,
                chip_support(&chip.name).label()
            ),
        )?;
    }
    Ok(())
}

/// Width of the name column in per-chip footer lines: the longest name
/// present (so long names stay aligned instead of overflowing a fixed
/// field), floored at 8 to keep the historical alignment for the short
/// study-chip names.
fn footer_width<'a>(names: impl IntoIterator<Item = &'a str>) -> usize {
    names
        .into_iter()
        .map(|n| n.chars().count())
        .max()
        .unwrap_or(0)
        .max(8)
}

/// The strategy spectrum of Figs 3 and 4: each strategy's assignment,
/// evaluated.
pub(crate) fn spectrum(
    stats: &DatasetStats,
    threads: usize,
    tracer: &Tracer,
) -> Vec<(Strategy, StrategyEvaluation)> {
    Strategy::ALL
        .into_iter()
        .map(|s| {
            let a = build_assignment_par(stats, s, threads, tracer);
            (s, evaluate_assignment(stats, &a))
        })
        .collect()
}

fn analyze(args: &Args, ctx: &RunCtx, out: &mut dyn Write) -> Result<(), String> {
    let ds = dataset(args)?;
    let evals = spectrum(&DatasetStats::new(&ds), args.get("threads"), &ctx.tracer);
    w(out, report::spectrum_table(&evals))
}

fn chip_function_cmd(args: &Args, ctx: &RunCtx, out: &mut dyn Write) -> Result<(), String> {
    let ds = dataset(args)?;
    let threads = args.get("threads");
    let stats = DatasetStats::new(&ds);
    let table = chip_function_par(&stats, threads, &ctx.tracer);
    w(out, report::chip_function_table(&table))?;
    let width = footer_width(table.iter().map(|(c, _)| c.as_str()));
    for (chip, analysis) in &table {
        w(out, format!("{chip:>width$}: {}", analysis.config))?;
    }
    Ok(())
}

fn heatmap_cmd(args: &Args, _: &RunCtx, out: &mut dyn Write) -> Result<(), String> {
    let ds = dataset(args)?;
    let hm = heatmap(&DatasetStats::new(&ds));
    w(out, report::heatmap_table(&hm))
}

fn ranking_cmd(args: &Args, _: &RunCtx, out: &mut dyn Write) -> Result<(), String> {
    let ds = dataset(args)?;
    let show = args.get("top");
    let rows = ranking(&DatasetStats::new(&ds));
    w(out, report::ranking_table(&rows, show))
}

fn extremes_cmd(args: &Args, _: &RunCtx, out: &mut dyn Write) -> Result<(), String> {
    let ds = dataset(args)?;
    let ex = extremes(&DatasetStats::new(&ds));
    w(out, report::extremes_table(&ex))
}

fn microbench(_: &Args, _: &RunCtx, out: &mut dyn Write) -> Result<(), String> {
    w(out, report::microbench_table(&study_chips()))
}

fn classify(args: &Args, _: &RunCtx, out: &mut dyn Write) -> Result<(), String> {
    let path = &args.positional[0];
    let file = std::fs::File::open(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    let graph = graph_io::read_edge_list(std::io::BufReader::new(file))
        .map_err(|e| format!("{path}: {e}"))?;
    let stats = properties::degree_stats(&graph);
    let class = properties::classify(&graph);
    w(
        out,
        format!(
            "{path}: {} nodes, {} arcs, degree cv {:.2}, diameter ~{}, clustering {:.3}, assortativity {:+.2}, class {class}",
            graph.num_nodes(),
            graph.num_edges(),
            stats.cv,
            properties::estimate_diameter(&graph),
            properties::clustering_coefficient(&graph),
            properties::degree_assortativity(&graph),
        ),
    )
}

/// The program a `compile` or `run-dsl` argument names: the built-in of
/// that name, or else the `.irgl` file at that path.
fn dsl_program(arg: &str) -> Result<Program, String> {
    let builtins = programs::all();
    if let Some(program) = builtins.iter().find(|p| p.name == arg) {
        return Ok(program.clone());
    }
    let src = std::fs::read_to_string(arg).map_err(|e| match e.kind() {
        std::io::ErrorKind::NotFound => {
            let names: Vec<&str> = builtins.iter().map(|p| p.name.as_str()).collect();
            format!(
                "unknown program `{arg}`: no such file, nor a built-in (one of {})",
                names.join(", ")
            )
        }
        _ => format!("{arg}: {e}"),
    })?;
    let program = parser::parse(&src).map_err(|e| format!("{arg}:{e}"))?;
    gpp_irgl::validate_program(&program).map_err(|e| format!("{arg}: {e}"))?;
    Ok(program)
}

fn config_opt(args: &Args) -> Result<OptConfig, String> {
    match args.str("opts") {
        None => Ok(OptConfig::baseline()),
        Some(text) => OptConfig::parse(text).ok_or_else(|| format!("bad --opts `{text}`")),
    }
}

/// Prints the program's OpenCL under the `--opts` configuration.
fn compile_cmd(args: &Args, _: &RunCtx, out: &mut dyn Write) -> Result<(), String> {
    let program = dsl_program(&args.positional[0])?;
    let plan = transform::plan(&program, config_opt(args)?).map_err(|e| e.to_string())?;
    let text = codegen::opencl(&program, &plan).map_err(|e| e.to_string())?;
    w(out, text)
}

fn run_dsl(args: &Args, _: &RunCtx, out: &mut dyn Write) -> Result<(), String> {
    let program = dsl_program(&args.positional[0])?;
    let cfg = config_opt(args)?;
    let chip_name = &args.get::<String>("chip");
    let chip = study_chip(chip_name).ok_or_else(|| format!("unknown chip `{chip_name}`"))?;
    let input = study_input(args, StudyScale::Small, 7);
    let machine = Machine::new(chip);
    let mut session = machine.session(cfg);
    let result = interp::execute(&program, &input.graph, &mut session)
        .map_err(|e| format!("execution failed: {e}"))?;
    let stats = session.finish();
    let output = result.output(&program);
    let finite = output.iter().filter(|v| v.is_finite()).count();
    w(
        out,
        format!(
            "{} on {} ({} nodes) under `{cfg}` on {}:\n  modelled time {:.1} us, {} kernels, {} launches, {} iterations\n  output `{}`: {} finite values, first = {:?}",
            program.name,
            input.name,
            input.graph.num_nodes(),
            machine.chip().name,
            stats.time_ns / 1_000.0,
            stats.kernels,
            stats.launches,
            result.iterations,
            program.fields[program.output].name,
            finite,
            &output[..output.len().min(5)],
        ),
    )
}

/// The sample-size sensitivity sweep (Section IX-b): `trials` subsamples
/// at each kept fraction, drawn from a fixed seed.
pub(crate) fn sensitivity(
    ds: &Dataset,
    trials: usize,
    threads: usize,
    tracer: &Tracer,
) -> SensitivityReport {
    subsample_sensitivity_par(ds, &[1.0, 0.5, 0.25, 0.1], trials, 0x5eed, threads, tracer)
}

fn sensitivity_cmd(args: &Args, ctx: &RunCtx, out: &mut dyn Write) -> Result<(), String> {
    let ds = dataset(args)?;
    let report = sensitivity(&ds, args.get("trials"), args.get("threads"), &ctx.tracer);
    w(out, report::sensitivity_table(&report))
}

fn export_chips(args: &Args, _: &RunCtx, out: &mut dyn Write) -> Result<(), String> {
    let path = &args.positional[0];
    let chips = study_chips();
    write_artifact(
        path,
        serde_json::to_string_pretty(&chips).map_err(|e| e.to_string())?,
    )?;
    w(
        out,
        format!(
            "wrote {} chip models to {path}; edit and pass back via `gpp study --chips`",
            chips.len()
        ),
    )
}

fn predict_cmd(args: &Args, ctx: &RunCtx, out: &mut dyn Write) -> Result<(), String> {
    let ds = dataset(args)?;
    let threads = args.get("threads");
    let stats = DatasetStats::new(&ds);
    let e = leave_one_out_par(&stats, args.get("probes"), threads, &ctx.tracer);
    w(
        out,
        format!(
            "leave-one-out prediction with {} probes: geomean vs oracle {:.3}, within 5% of oracle {}, beats baseline {}",
            e.probes,
            e.geomean_vs_oracle,
            percent(e.near_oracle),
            percent(e.beats_baseline)
        ),
    )
}

fn export_csv(args: &Args, _: &RunCtx, out: &mut dyn Write) -> Result<(), String> {
    let ds = dataset(args)?;
    let csv = dataset_csv(&ds);
    match args.str("out") {
        Some(path) => {
            write_artifact(path, &csv)?;
            w(out, format!("wrote {} rows to {path}", ds.cells.len() * 96))
        }
        None => w(out, csv),
    }
}

/// One CSV row per (cell, configuration) with the upper median of its
/// runs ([`gpp_core::stats::median`]). The dataset loaded, so every
/// configuration holds `runs ≥ 1` finite times.
fn dataset_csv(ds: &Dataset) -> String {
    let mut csv = String::from("app,input,chip,config,median_ns\n");
    let mut buf = Vec::new();
    for cell in &ds.cells {
        for (idx, runs) in cell.times.iter().enumerate() {
            let median = gpp_core::stats::median(runs, &mut buf);
            csv.push_str(&format!(
                "{},{},{},\"{}\",{median}\n",
                cell.app,
                cell.input,
                cell.chip,
                OptConfig::from_index(idx)
            ));
        }
    }
    csv
}

/// The study's chips: the six study chips, or the `--chips FILE` list.
fn study_chip_list(args: &Args) -> Result<Vec<ChipProfile>, String> {
    match args.str("chips") {
        Some(file) => read_chips_file(file),
        None => Ok(study_chips()),
    }
}

/// The sweep's chips: the `--chips-file FILE` list, or a `--chips N`
/// latin-hypercube cloud drawn from `seed`. Inverting the win/loss
/// boundaries compares chips, so either must hold at least two.
fn sweep_chip_list(args: &Args, seed: u64) -> Result<Vec<ChipProfile>, String> {
    if let Some(file) = args.str("chips-file") {
        let chips = read_chips_file(file)?;
        if chips.len() < 2 {
            return Err(format!("{file}: a sweep needs at least 2 chips, found 1"));
        }
        return Ok(chips);
    }
    Ok(latin_hypercube_chips(args.get("chips"), seed))
}

/// Parametric chip sweep: generate (or load) a chip cloud, price it
/// chip-major against the trace arena, and invert the per-optimisation
/// win/loss boundaries against the chip axes. The printed report and the
/// `--out` JSON contain no timings or timestamps, so runs at any thread
/// count produce byte-identical output — CI `cmp`s two of them.
fn sweep_cmd(args: &Args, ctx: &RunCtx, out: &mut dyn Write) -> Result<(), String> {
    let cfg = sweep_config(args);
    let chips = sweep_chip_list(args, cfg.seed)?;
    if let Some(file) = args.str("emit-chips") {
        write_artifact(
            file,
            serde_json::to_string_pretty(&chips).map_err(|e| e.to_string())?,
        )?;
    }
    let sweep = run_sweep(&cfg, &chips, ctx);
    let report = gpp_core::invert_sweep(&chips, &sweep.opts, &sweep.log_ratios);
    w(
        out,
        format!(
            "swept {} chips x 96 configurations over {} (app, input) pairs",
            sweep.chips.len(),
            sweep.pairs
        ),
    )?;
    w(out, gpp_core::sweep_table(&report))?;
    let json = serde_json::json!({ "sweep": &sweep, "report": &report });
    save_out(args, out, serde_json::to_string_pretty(&json))
}

/// k-version portfolio search: build the dense slowdown matrix — from
/// the study dataset, a tiny in-memory smoke study, or a `gpp sweep`
/// chip cloud priced through the batched replay path — and print the
/// portability-cost curve: the best k-version portfolio's slowdown vs
/// the per-cell oracle for k = 1..=`--k`, exact up to `--exact-max`,
/// beam search above. The curve is byte-identical at any thread count.
fn portfolio_cmd(args: &Args, ctx: &RunCtx, out: &mut dyn Write) -> Result<(), String> {
    let threads = args.get("threads");
    let (matrix, source) = if let Some(file) = args.str("chips-file") {
        let chips = read_chips_file(file)?;
        let cfg = sweep_config(args);
        let cloud = price_cloud(&cfg, &chips, ctx);
        let matrix = SlowdownMatrix::from_cell_times(&cloud.times);
        let source = format!(
            "{} cells ({} pairs x {} chips priced from {file})",
            cloud.times.len(),
            cloud.times.len() / chips.len(),
            chips.len()
        );
        (matrix, source)
    } else {
        let ds = if args.flag("smoke") && args.str("data").is_none() {
            let cfg = StudyConfig {
                threads,
                ..StudyConfig::tiny()
            };
            run_study_on(&cfg, &study_chips(), ctx)
        } else {
            dataset(args)?
        };
        let stats = DatasetStats::new(&ds);
        let matrix = SlowdownMatrix::from_stats(&stats);
        let source = format!("{} cells from the study dataset", stats.num_cells());
        (matrix, source)
    };
    let params = SearchParams {
        objective: Objective::parse(&args.get::<String>("objective"))?,
        k_max: args.get("k"),
        exact_k_max: args.get("exact-max"),
        beam_width: args.get("beam"),
        threads,
    };
    let curve = gpp_core::search_curve(&matrix, &params);
    w(
        out,
        format!(
            "portability-cost curve over {source}, objective {}",
            curve.objective
        ),
    )?;
    let mut t = Table::new(["k", "Slowdown", "Search", "Configurations"]);
    for p in &curve.points {
        t.row([
            p.k.to_string(),
            format!("{:.4}x", p.slowdown),
            if p.exact { "exact" } else { "beam" }.to_owned(),
            p.configs.join(" "),
        ]);
    }
    w(out, t)?;
    w(
        out,
        format!(
            "search: {} candidates evaluated, {} prefixes pruned, {} beam rounds",
            curve.candidates_evaluated, curve.prefixes_pruned, curve.beam_rounds
        ),
    )?;
    save_out(args, out, serde_json::to_string_pretty(&curve))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cmd(line: &str) -> Result<String, String> {
        let mut buf = Vec::new();
        run(line.split_whitespace().map(str::to_owned), &mut buf)?;
        Ok(String::from_utf8(buf).expect("utf8 output"))
    }

    #[test]
    fn help_lists_commands() {
        let text = run_cmd("help").unwrap();
        assert_eq!(run_cmd("").unwrap(), text);
        for command in COMMANDS {
            let name = command.name;
            assert!(text.contains(&format!("\n  {name} ")), "missing {name}");
            let own = run_cmd(&format!("help {name}")).unwrap();
            assert!(own.starts_with(&format!("usage: gpp {name}")), "{own}");
            for flag in command.flags.iter().chain(args::SHARED_FLAGS) {
                assert!(own.contains(&format!("\n  --{} ", flag.name)), "{own}");
            }
        }
        for flag in args::SHARED_FLAGS {
            assert!(text.contains(&format!("\n  --{}", flag.name)), "{text}");
        }
        let err = run_cmd("help frobnicate").unwrap_err();
        assert!(err.contains("frobnicate"), "{err}");
        for cmd in [
            "chips",
            "study",
            "analyze",
            "microbench",
            "compile",
            "run-dsl",
            "sensitivity",
            "sweep",
        ] {
            assert!(text.contains(cmd), "missing {cmd}");
        }
        // `compile` prints a built-in by name; there is no `codegen`.
        assert!(!text.contains("codegen"), "{text}");
    }

    #[test]
    fn export_csv_medians_match_dataset_stats() {
        let ds = gpp_apps::study::run_study(&StudyConfig::tiny());
        let stats = DatasetStats::new(&ds);
        let csv = dataset_csv(&ds);
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        assert_eq!(rows.len(), ds.cells.len() * NUM_CONFIGS);
        for (row, line) in rows.iter().enumerate() {
            let (cell, idx) = (row / NUM_CONFIGS, row % NUM_CONFIGS);
            let c = &ds.cells[cell];
            assert!(
                line.starts_with(&format!("{},{},{},", c.app, c.input, c.chip)),
                "{line}"
            );
            let printed: f64 = line.rsplit(',').next().unwrap().parse().unwrap();
            let expected = stats.median_of(cell, OptConfig::from_index(idx));
            assert_eq!(printed.to_bits(), expected.to_bits(), "{line}");
        }
    }

    /// The scalar reference for a `--smoke` chip cloud: every (pair,
    /// chip) of the tiny grid priced one configuration at a time through
    /// [`CompiledTrace::replay`], pair-major then chip order.
    fn scalar_cloud_times(chips: &[ChipProfile]) -> Vec<Vec<f64>> {
        let cfg = SweepConfig::tiny();
        let apps = gpp_apps::all_applications();
        let mut rows = Vec::new();
        for input in gpp_apps::inputs::study_inputs(cfg.scale, cfg.seed) {
            for app in &apps {
                let mut recorder = Recorder::new();
                app.run(&input.graph, &mut recorder);
                let trace = CompiledTrace::new(recorder.into_trace());
                for machine in chips.iter().cloned().map(Machine::new) {
                    let replay = |idx| trace.replay(&machine, OptConfig::from_index(idx)).0.time_ns;
                    rows.push((0..NUM_CONFIGS).map(replay).collect());
                }
            }
        }
        rows
    }

    /// A sweep's `log_ratios[chip][opt]` over `rows` (pair-major, then
    /// chip order), folded in the sweep's own order.
    fn scalar_log_ratios(rows: &[Vec<f64>], n_chips: usize) -> Vec<Vec<f64>> {
        use gpp_sim::opts::{settings_enabling, Optimization};
        let mut log_ratios = vec![vec![0.0; Optimization::ALL.len()]; n_chips];
        for (k, t) in rows.iter().enumerate() {
            for (acc, opt) in log_ratios[k % n_chips].iter_mut().zip(Optimization::ALL) {
                let cfgs = settings_enabling(opt);
                let mut sum = 0.0;
                for cfg in &cfgs {
                    sum += (t[cfg.index()] / t[cfg.without(opt).index()]).ln();
                }
                *acc += sum / cfgs.len() as f64;
            }
        }
        let pairs = (rows.len() / n_chips) as f64;
        log_ratios.iter_mut().flatten().for_each(|v| *v /= pairs);
        log_ratios
    }

    #[test]
    fn sweep_smoke_matches_the_scalar_reference_at_any_threads() {
        let dir = std::env::temp_dir().join(format!("gpp-cli-sweep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let batched = dir.join("batched.json");
        let serial = dir.join("serial.json");
        let stdout_a = run_cmd(&format!(
            "sweep --smoke --chips 4 --threads 2 --out {}",
            batched.display()
        ))
        .unwrap();
        let stdout_b = run_cmd(&format!(
            "sweep --smoke --chips 4 --threads 1 --out {}",
            serial.display()
        ))
        .unwrap();
        assert!(stdout_a.contains("swept 4 chips"));
        // The stdouts differ only in the `saved to <path>` line.
        let without_path = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| !l.starts_with("saved to "))
                .map(str::to_owned)
                .collect()
        };
        assert_eq!(without_path(&stdout_a), without_path(&stdout_b));
        let a = std::fs::read(&batched).unwrap();
        let b = std::fs::read(&serial).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b, "sweep outputs must not depend on --threads");
        let text = String::from_utf8(a).unwrap();
        assert!(text.contains("log_ratios"));
        assert!(text.contains("top_axes"));
        // Every log ratio equals the scalar reference's.
        let json: serde_json::Value = serde_json::from_str(&text).unwrap();
        let sweep: gpp_apps::sweep::ChipSweep =
            serde_json::from_str(&json["sweep"].to_string()).unwrap();
        let chips = latin_hypercube_chips(4, SweepConfig::default().seed);
        let want = scalar_log_ratios(&scalar_cloud_times(&chips), chips.len());
        assert_eq!(sweep.log_ratios, want);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_accepts_an_explicit_chips_file() {
        let dir = std::env::temp_dir().join(format!("gpp-cli-sweep-file-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("chips.json");
        std::fs::write(&file, serde_json::to_string_pretty(&study_chips()).unwrap()).unwrap();
        let text = run_cmd(&format!(
            "sweep --smoke --threads 2 --chips-file {}",
            file.display()
        ))
        .unwrap();
        assert!(text.contains("swept 6 chips"));
        assert!(text.contains("oitergb"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_rejects_invalid_chips_file() {
        let dir = std::env::temp_dir().join(format!("gpp-cli-sweep-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("bad.json");
        let mut bad = study_chips();
        bad[0].alu_cost = -1.0;
        std::fs::write(&file, serde_json::to_string(&bad).unwrap()).unwrap();
        let err = run_cmd(&format!("sweep --smoke --chips-file {}", file.display())).unwrap_err();
        assert!(err.contains("chip 0"), "{err}");
        assert!(err.contains("alu_cost"), "{err}");

        std::fs::write(&file, "[]").unwrap();
        let err = run_cmd(&format!("sweep --smoke --chips-file {}", file.display())).unwrap_err();
        assert!(err.contains("empty"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mutated_chip_files_read_or_fail_without_panicking() {
        use gpp_graph::rng::{for_cases, mutate, JSON_TOKENS};
        let json = serde_json::to_string(&study_chips()[..2])
            .unwrap()
            .into_bytes();
        let dir = std::env::temp_dir().join(format!("gpp-cli-chips-mutate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("chips.json");
        let name = file.display().to_string();
        let mut read = 0;
        for_cases(0xc41b, 8_000, |rng| {
            let mut bytes = json.clone();
            mutate(rng, &mut bytes, JSON_TOKENS);
            std::fs::write(&file, &bytes).unwrap();
            read += usize::from(read_chips_file(&name).is_ok());
        });
        assert!(read > 0, "no mutant read");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn portfolio_smoke_curve_is_identical_at_any_thread_count() {
        let a = run_cmd("portfolio --smoke --threads 1").unwrap();
        let b = run_cmd("portfolio --smoke --threads 4").unwrap();
        assert_eq!(a, b);
        assert!(a.contains("portability-cost curve"), "{a}");
        assert!(a.contains("objective geomean"), "{a}");
        assert!(a.contains("exact"), "{a}");
        assert!(a.contains("beam"), "{a}");
        assert!(a.contains("candidates evaluated"), "{a}");
    }

    #[test]
    fn portfolio_worst_objective_and_out_file() {
        let dir = std::env::temp_dir().join(format!("gpp-cli-pf-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("curve.json");
        let text = run_cmd(&format!(
            "portfolio --smoke --objective worst --k 3 --threads 2 --out {}",
            file.display()
        ))
        .unwrap();
        assert!(text.contains("objective worst"), "{text}");
        let curve: gpp_core::PortfolioCurve =
            serde_json::from_str(&std::fs::read_to_string(&file).unwrap()).unwrap();
        assert_eq!(curve.objective, "worst");
        assert_eq!(curve.points.len(), 3);
        for (i, p) in curve.points.iter().enumerate() {
            assert_eq!(p.k, i + 1);
            assert!(p.slowdown >= 1.0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn portfolio_accepts_a_chips_file_and_prices_like_the_scalar_reference() {
        let dir = std::env::temp_dir().join(format!("gpp-cli-pf-chips-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let chips = dir.join("chips.json");
        std::fs::write(
            &chips,
            serde_json::to_string_pretty(&study_chips()).unwrap(),
        )
        .unwrap();
        let (batched, serial) = (dir.join("batched.json"), dir.join("serial.json"));
        let a = run_cmd(&format!(
            "portfolio --smoke --k 3 --threads 2 --chips-file {} --out {}",
            chips.display(),
            batched.display()
        ))
        .unwrap();
        let b = run_cmd(&format!(
            "portfolio --smoke --k 3 --threads 1 --chips-file {} --out {}",
            chips.display(),
            serial.display()
        ))
        .unwrap();
        assert!(a.contains("x 6 chips priced from"), "{a}");
        assert_eq!(a.replace("batched.json", ""), b.replace("serial.json", ""));
        assert_eq!(
            std::fs::read(&batched).unwrap(),
            std::fs::read(&serial).unwrap(),
            "portfolio curves must not depend on --threads"
        );
        // The curve is the one a scalar-priced cloud gives.
        let times = scalar_cloud_times(&study_chips());
        let matrix = SlowdownMatrix::from_cell_times(&times);
        let params = SearchParams {
            k_max: 3,
            exact_k_max: 2,
            threads: 2,
            ..SearchParams::default()
        };
        assert_eq!(
            std::fs::read_to_string(&batched).unwrap(),
            serde_json::to_string_pretty(&gpp_core::search_curve(&matrix, &params)).unwrap(),
            "batched and scalar-priced portfolio curves must match"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn portfolio_rejects_bad_arguments() {
        assert!(run_cmd("portfolio --smoke --objective median")
            .unwrap_err()
            .contains("unknown objective"));
        assert!(run_cmd("portfolio --smoke --k 0")
            .unwrap_err()
            .contains("--k must be"));
        assert!(run_cmd("portfolio --smoke --k 97")
            .unwrap_err()
            .contains("--k must be"));
        assert!(run_cmd("portfolio --smoke --beam 0")
            .unwrap_err()
            .contains("--beam"));
        assert!(run_cmd("portfolio --smoke --exact-max 0")
            .unwrap_err()
            .contains("--exact-max"));
    }

    #[test]
    fn portfolio_metrics_out_includes_the_portfolio_family() {
        let _guard = METRICS_TESTS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let dir = std::env::temp_dir().join(format!("gpp-cli-pf-metrics-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.json");
        let text = run_cmd(&format!(
            "portfolio --smoke --threads 2 --metrics-out {}",
            path.display()
        ))
        .unwrap();
        assert!(text.contains("metrics:"), "{text}");
        let snap = read_metrics(&path);
        assert!(metric(&snap, "counters", "portfolio.candidates_evaluated").unwrap() >= 1.0);
        assert!(metric(&snap, "counters", "portfolio.prefixes_pruned").is_some());
        assert!(metric(&snap, "counters", "portfolio.beam_rounds").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_emit_chips_round_trips() {
        let dir = std::env::temp_dir().join(format!("gpp-cli-sweep-emit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("cloud.json");
        run_cmd(&format!(
            "sweep --smoke --chips 3 --threads 2 --emit-chips {}",
            file.display()
        ))
        .unwrap();
        let text = std::fs::read_to_string(&file).unwrap();
        let cloud: Vec<ChipProfile> = serde_json::from_str(&text).unwrap();
        assert_eq!(cloud.len(), 3);
        assert!(cloud.iter().all(|c| c.validate().is_ok()));
        // The emitted cloud feeds straight back through --chips-file.
        let again = run_cmd(&format!(
            "sweep --smoke --threads 2 --chips-file {}",
            file.display()
        ))
        .unwrap();
        assert!(again.contains("swept 3 chips"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chips_prints_all_six() {
        let text = run_cmd("chips").unwrap();
        for chip in ["M4000", "GTX1080", "HD5500", "IRIS", "R9", "MALI"] {
            assert!(text.contains(chip));
        }
    }

    #[test]
    fn microbench_prints_probes() {
        let text = run_cmd("microbench").unwrap();
        assert!(text.contains("sg-cmb"));
        assert!(text.contains("m-divg"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        let err = run_cmd("frobnicate").unwrap_err();
        assert!(err.contains("frobnicate"));
    }

    #[test]
    fn compile_prints_a_builtin_by_name() {
        let text = run_cmd("compile bfs_wl --opts sg,fg8").unwrap();
        assert!(text.contains("__kernel void bfs_wl_expand"));
        assert!(text.contains("[np-fg8]"));
    }

    #[test]
    fn compile_and_run_dsl_reject_unknown_programs_and_bad_opts() {
        for cmd in ["compile", "run-dsl"] {
            let err = run_cmd(&format!("{cmd} nonesuch")).unwrap_err();
            assert!(err.contains("nonesuch"), "{err}");
            for p in programs::all() {
                assert!(
                    err.contains(&p.name),
                    "{cmd}: {err} does not list {}",
                    p.name
                );
            }
            assert!(run_cmd(&format!("{cmd} bfs_wl --opts warp9"))
                .unwrap_err()
                .contains("warp9"));
        }
    }

    #[test]
    fn classify_reads_edge_lists() {
        let dir = std::env::temp_dir().join(format!("gpp-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.el");
        let g = gpp_graph::generators::road_grid(12, 12, 1).unwrap();
        let mut buf = Vec::new();
        graph_io::write_edge_list(&g, &mut buf).unwrap();
        std::fs::write(&path, buf).unwrap();
        let text = run_cmd(&format!("classify {}", path.display())).unwrap();
        assert!(text.contains("class road"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn classify_requires_a_path() {
        assert!(run_cmd("classify").unwrap_err().contains("usage"));
    }

    #[test]
    fn compile_and_run_dsl_from_file() {
        // The built-in's own source file: a path and the name agree.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../irgl/programs/bfs_wl.irgl");
        let text = run_cmd(&format!("compile {path} --opts coop-cv")).unwrap();
        assert!(text.contains("sub_group_reduce_add"));
        assert_eq!(text, run_cmd("compile bfs_wl --opts coop-cv").unwrap());
        let run = "--input road --chip MALI --opts oitergb";
        let text = run_cmd(&format!("run-dsl {path} {run}")).unwrap();
        assert!(text.contains("bfs_wl on road"), "{text}");
        assert!(text.contains("1 launches"), "{text}");
        assert_eq!(text, run_cmd(&format!("run-dsl bfs_wl {run}")).unwrap());
    }

    #[test]
    fn run_dsl_rejects_unknown_chip_and_input() {
        let dir = std::env::temp_dir().join(format!("gpp-cli-irgl2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.irgl");
        std::fs::write(&path, "program p { field x = const(0); kernel k all_nodes { } driver fixed(k) iters 1; output x; }").unwrap();
        assert!(run_cmd(&format!("run-dsl {} --chip RTX", path.display()))
            .unwrap_err()
            .contains("RTX"));
        assert!(
            run_cmd(&format!("run-dsl {} --input lattice", path.display()))
                .unwrap_err()
                .contains("lattice")
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compile_and_run_dsl_report_parse_errors_with_position() {
        let dir = std::env::temp_dir().join(format!("gpp-cli-irgl3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.irgl");
        let kernel = |body: String| {
            format!("program p {{ field x = const(0);\nkernel k all_nodes {{\n{body}\n}} driver fixed(k) iters 1; output x; }}")
        };
        let deep = "nested deeper than 256 levels";
        for (src, line, message) in [
            (
                "program p {\n  field x = wat;\n}".to_owned(),
                2,
                "initialiser",
            ),
            // Nesting that would overflow the stack is an error too.
            (
                kernel(format!(
                    "x[node] = {}1{};",
                    "(".repeat(10_000),
                    ")".repeat(10_000)
                )),
                3,
                deep,
            ),
            (
                kernel(format!("x[node] = 1{};", " + 1".repeat(100_000))),
                3,
                deep,
            ),
            (
                kernel(format!(
                    "{}x[node] = 1;{}",
                    "if (1 < 2) {".repeat(30_000),
                    "}".repeat(30_000)
                )),
                3,
                deep,
            ),
        ] {
            std::fs::write(&path, src).unwrap();
            for cmd in ["compile", "run-dsl"] {
                let err = run_cmd(&format!("{cmd} {}", path.display())).unwrap_err();
                assert!(
                    err.starts_with(&format!("{}:{line}:", path.display())),
                    "{err}"
                );
                assert!(err.contains(message), "{err}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn study_command_writes_a_dataset() {
        let dir = std::env::temp_dir().join(format!("gpp-cli-study-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.json");
        let text = run_cmd(&format!("study --scale tiny --out {}", path.display())).unwrap();
        assert!(text.contains("306 cells"));
        assert!(path.exists());
        // Downstream commands can consume it.
        let text = run_cmd(&format!("extremes --data {}", path.display())).unwrap();
        assert!(text.contains("MALI"));
        let text = run_cmd(&format!("export-csv --data {}", path.display())).unwrap();
        assert!(text.contains("app,input,chip,config,median_ns"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analysis_commands_never_run_a_study_for_a_missing_dataset() {
        let dir = std::env::temp_dir().join(format!("gpp-cli-nodata-{}", std::process::id()));
        let path = dir.join("missing.json");
        // `report` also reruns studies of its own, but only after the
        // dataset has loaded.
        for cmd in ["heatmap", "report"] {
            let line = format!("{cmd} --data {}", path.display());
            let mut printed = Vec::new();
            let err = run(line.split_whitespace().map(str::to_owned), &mut printed).unwrap_err();
            assert!(err.contains("no dataset at"), "{cmd}: {err}");
            assert!(err.contains("gpp study"), "{cmd}: {err}");
            assert!(printed.is_empty(), "{cmd} printed before failing");
            assert!(!path.exists(), "a missing dataset must not be created");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_prints_every_section_of_the_generated_document() {
        let dir = std::env::temp_dir().join(format!("gpp-cli-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ds_path = dir.join("ds.json");
        run_cmd(&format!("study --scale tiny --out {}", ds_path.display())).unwrap();
        let text = run_cmd(&format!("report --data {}", ds_path.display())).unwrap();
        let headings: Vec<&str> = text.lines().filter(|l| l.starts_with("## ")).collect();
        let expected = [
            "## Table I ",
            "## Fig. 1 ",
            "## Table II ",
            "## Table III ",
            "## Table IV ",
            "## Fig. 2 ",
            "## Figs. 3 and 4 ",
            "## Table IX ",
            "## Fig. 5 ",
            "## Table X ",
            "## Section IX-b (future work) — sample-size sensitivity",
            "## Section IX-b (future work) — a predictive model",
            "## [29, Ch. 4] — per-application and per-input optimisation functions",
            "## Table VII ",
            "## Robustness (ours) ",
            "## Input stress (ours) ",
            "## Additional reproducibility artefacts",
            "## Known deviations (and why)",
        ];
        assert_eq!(headings.len(), expected.len(), "{headings:#?}");
        for (heading, prefix) in headings.iter().zip(expected) {
            assert!(heading.starts_with(prefix), "{heading} is not {prefix}");
        }
        assert!(text.starts_with("# EXPERIMENTS — paper vs. measured\n"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn study_dsl_flag_extends_the_grid() {
        let dir = std::env::temp_dir().join(format!("gpp-cli-dsl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.json");
        let text = run_cmd(&format!(
            "study --scale tiny --dsl --out {}",
            path.display()
        ))
        .unwrap();
        assert!(text.contains("432 cells"), "{text}"); // 24 apps x 3 x 6
        let ds = Dataset::load_json(&path).unwrap();
        assert_eq!(ds.apps.len(), 24);
        assert!(ds.apps.iter().any(|a| a == "dsl-mis-luby"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn table_commands_print_the_shared_renderers() {
        let dir = std::env::temp_dir().join(format!("gpp-cli-renderers-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ds_path = dir.join("ds.json");
        run_cmd(&format!("study --scale tiny --out {}", ds_path.display())).unwrap();
        let ds = Dataset::load_json(&ds_path).unwrap();
        let stats = DatasetStats::new(&ds);
        let off = Tracer::disabled();
        let spectrum: Vec<_> = Strategy::ALL
            .into_iter()
            .map(|s| {
                let a = build_assignment_par(&stats, s, 1, &off);
                (s, evaluate_assignment(&stats, &a))
            })
            .collect();
        let sensitivity = sensitivity(&ds, 1, 1, &off);
        for (cmd, table) in [
            ("chips", report::chips_table(&study_chips())),
            ("heatmap", report::heatmap_table(&heatmap(&stats))),
            ("extremes", report::extremes_table(&extremes(&stats))),
            (
                "ranking --top 3",
                report::ranking_table(&ranking(&stats), 3),
            ),
            ("analyze", report::spectrum_table(&spectrum)),
            ("microbench", report::microbench_table(&study_chips())),
            (
                "sensitivity --trials 1",
                report::sensitivity_table(&sensitivity),
            ),
        ] {
            // `chips` and `microbench` read no dataset, so take no --data.
            let line = match cmd {
                "chips" | "microbench" => cmd.to_owned(),
                _ => format!("{cmd} --data {}", ds_path.display()),
            };
            let text = run_cmd(&line).unwrap();
            assert_eq!(text, format!("{}\n", table.render()), "{cmd}");
        }
        // chip-function prints the shared table, a blank line, then one
        // config line per chip.
        let text = run_cmd(&format!("chip-function --data {}", ds_path.display())).unwrap();
        let table = report::chip_function_table(&chip_function_par(&stats, 1, &off)).render();
        assert!(text.starts_with(&format!("{table}\n")), "{text}");
        assert_eq!(
            text.lines().count(),
            table.lines().count() + 1 + ds.chips.len()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ranking_past_the_table_and_zero_trials_do_not_panic() {
        let dir = std::env::temp_dir().join(format!("gpp-cli-edges-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ds_path = dir.join("ds.json");
        run_cmd(&format!("study --scale tiny --out {}", ds_path.display())).unwrap();
        // --top beyond half the ranking prints each of the 95 rows once.
        let text = run_cmd(&format!("ranking --top 500 --data {}", ds_path.display())).unwrap();
        let ranks: Vec<&str> = text
            .lines()
            .skip(2)
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        let expected: Vec<String> = (0..NUM_CONFIGS - 1).map(|i| i.to_string()).collect();
        assert_eq!(ranks, expected);
        let err = run_cmd(&format!(
            "sensitivity --trials 0 --data {}",
            ds_path.display()
        ))
        .unwrap_err();
        assert!(err.contains("--trials"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analysis_commands_accept_threads_and_match_serial_output() {
        let dir = std::env::temp_dir().join(format!("gpp-cli-threads-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ds_path = dir.join("ds.json");
        run_cmd(&format!("study --scale tiny --out {}", ds_path.display())).unwrap();
        for cmd in [
            "analyze",
            "chip-function",
            "predict --probes 4",
            "sensitivity --trials 1",
        ] {
            let serial =
                run_cmd(&format!("{cmd} --data {} --threads 1", ds_path.display())).unwrap();
            let par = run_cmd(&format!("{cmd} --data {} --threads 4", ds_path.display())).unwrap();
            assert_eq!(serial, par, "{cmd} output must not depend on --threads");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn export_chips_round_trips_through_study() {
        let dir = std::env::temp_dir().join(format!("gpp-cli-chips-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let chips_path = dir.join("chips.json");
        let text = run_cmd(&format!("export-chips {}", chips_path.display())).unwrap();
        assert!(text.contains("6 chip models"));
        // Trim to two chips and run a tiny study on them.
        let chips: Vec<gpp_sim::chip::ChipProfile> =
            serde_json::from_str(&std::fs::read_to_string(&chips_path).unwrap()).unwrap();
        std::fs::write(&chips_path, serde_json::to_string(&chips[..2]).unwrap()).unwrap();
        let ds_path = dir.join("ds.json");
        let text = run_cmd(&format!(
            "study --scale tiny --chips {} --out {}",
            chips_path.display(),
            ds_path.display()
        ))
        .unwrap();
        assert!(text.contains("102 cells"), "{text}"); // 17 apps x 3 inputs x 2 chips
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn study_trace_cache_warm_run_is_identical_and_skips_collection() {
        let dir = std::env::temp_dir().join(format!("gpp-cli-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cache_dir = dir.join("trace-cache");
        let (cold_path, warm_path, plain_path) = (
            dir.join("cold.json"),
            dir.join("warm.json"),
            dir.join("plain.json"),
        );
        run_cmd(&format!(
            "study --scale tiny --out {}",
            plain_path.display()
        ))
        .unwrap();
        let cold_trace = dir.join("cold-trace.jsonl");
        let text = run_cmd(&format!(
            "study --scale tiny --trace-cache {} --trace-out {} --out {}",
            cache_dir.display(),
            cold_trace.display(),
            cold_path.display()
        ))
        .unwrap();
        assert!(text.contains("trace cache: 0 hits, 51 misses"), "{text}");
        assert_eq!(closed_spans(&cold_trace, "record"), 51);
        // The cache directory now holds one entry per (app, input) pair.
        assert_eq!(std::fs::read_dir(&cache_dir).unwrap().count(), 17 * 3);
        // Without a trace sink the cache line still appears; the phase
        // table and slowest-cell listing stay gated on --profile.
        let text = run_cmd(&format!(
            "study --scale tiny --trace-cache {} --out {}",
            cache_dir.display(),
            warm_path.display()
        ))
        .unwrap();
        assert!(text.contains("trace cache: 51 hits, 0 misses"), "{text}");
        assert!(!text.contains("slowest cells"), "{text}");
        assert!(!text.contains("Phase"), "{text}");
        // Cacheless, cold, and warm datasets are byte-identical.
        let plain = std::fs::read(&plain_path).unwrap();
        assert_eq!(plain, std::fs::read(&cold_path).unwrap());
        assert_eq!(plain, std::fs::read(&warm_path).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn study_rejects_bad_chip_files_without_panicking() {
        let dir = std::env::temp_dir().join(format!("gpp-cli-chips2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("chips.json");
        let run = |cmd: &str, json: String| {
            std::fs::write(&file, json).unwrap();
            let line = format!("{cmd} {}", file.display());
            std::panic::catch_unwind(|| run_cmd(&line))
                .unwrap_or_else(|_| panic!("{cmd} must not panic"))
        };
        let study = |json: String| run("study --scale tiny --chips", json);
        let err = study("[]".into()).unwrap_err();
        assert!(err.contains("empty"), "{err}");

        // Every command that reads a chip list rejects a repeated name.
        let mut dup = study_chips();
        dup[1].name = dup[0].name.clone();
        for cmd in [
            "study --scale tiny --chips",
            "sweep --smoke --chips-file",
            "portfolio --smoke --chips-file",
        ] {
            let err = run(cmd, serde_json::to_string(&dup).unwrap()).unwrap_err();
            assert!(
                err.contains(&format!("duplicate chip name `{}`", dup[0].name)),
                "{cmd}: {err}"
            );
        }

        let mut no_cus = study_chips();
        no_cus[2].num_cus = 0;
        let err = study(serde_json::to_string(&no_cus).unwrap()).unwrap_err();
        assert!(err.contains("chip 2") && err.contains("CU"), "{err}");

        let mut wide_subgroup = study_chips();
        wide_subgroup[3].subgroup_size = 512;
        let err = study(serde_json::to_string(&wide_subgroup).unwrap()).unwrap_err();
        assert!(
            err.contains("chip 3") && err.contains("subgroup_size"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_chip_files_are_errors_not_panics() {
        let dir = std::env::temp_dir().join(format!("gpp-cli-chips3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (file, out) = (dir.join("chips.json"), dir.join("out.json"));
        let run = |chips: &[ChipProfile], cmd: &str| {
            std::fs::write(&file, serde_json::to_string(chips).unwrap()).unwrap();
            let line = format!("{cmd} {} --out {}", file.display(), out.display());
            let err = std::panic::catch_unwind(|| run_cmd(&line))
                .unwrap_or_else(|_| panic!("{cmd} must not panic"))
                .unwrap_err();
            assert!(!out.exists(), "{cmd} wrote {}", out.display());
            err
        };
        // A one-chip file is named, not blamed on --chips.
        let err = run(&study_chips()[..1], "sweep --smoke --chips-file");
        let named = format!("{}: a sweep needs at least 2 chips", file.display());
        assert!(err.contains(&named), "{err}");
        assert!(!err.contains("--chips"), "{err}");
        let mut costly = study_chips();
        costly[4].alu_cost = 1e308;
        for cmd in [
            "study --scale tiny --chips",
            "sweep --smoke --chips-file",
            "portfolio --smoke --chips-file",
        ] {
            let err = run(&costly, cmd);
            assert!(
                err.contains("chip 4") && err.contains("alu_cost"),
                "{cmd}: {err}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_scale_is_an_error() {
        assert!(run_cmd("study --scale gigantic")
            .unwrap_err()
            .contains("gigantic"));
    }

    #[test]
    fn explain_prints_attribution_for_all_chips() {
        let text = run_cmd("explain --scale tiny").unwrap();
        for chip in ["M4000", "GTX1080", "HD5500", "IRIS", "R9", "MALI"] {
            assert!(text.contains(chip), "missing {chip}:\n{text}");
        }
        for label in [
            "launch",
            "copy",
            "compute",
            "divergence",
            "atomics",
            "barrier",
            "occupancy tail",
            "worklist",
            "total",
        ] {
            assert!(text.contains(label), "missing {label}:\n{text}");
        }
        // Per-chip memory-model notes ride along.
        assert!(text.contains("best-effort OpenCL 1.x fences"), "{text}");
    }

    #[test]
    fn explain_accepts_chip_and_opts_filters() {
        let text = run_cmd("explain --scale tiny --chip MALI --opts oitergb").unwrap();
        assert!(text.contains("MALI"), "{text}");
        assert!(!text.contains("GTX1080"), "{text}");
        assert!(text.contains("oitergb"), "{text}");
    }

    #[test]
    fn explain_rejects_unknown_names() {
        assert!(run_cmd("explain --scale tiny --app nonesuch")
            .unwrap_err()
            .contains("nonesuch"));
        assert!(run_cmd("explain --scale tiny --chip RTX")
            .unwrap_err()
            .contains("RTX"));
        assert!(run_cmd("explain --scale tiny --input lattice")
            .unwrap_err()
            .contains("lattice"));
    }

    /// Serialises tests that enable the process-wide metrics store, so
    /// they don't reset or disable it under each other. Other tests may
    /// still record counters while the store is enabled, which
    /// is why the assertions below are monotone (`>=`), never exact.
    static METRICS_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn study_metrics_out_writes_a_parseable_snapshot() {
        let _guard = METRICS_TESTS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let dir = std::env::temp_dir().join(format!("gpp-cli-metrics-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // The snapshot's directory does not exist yet.
        let (metrics_path, ds_path, plain_path) = (
            dir.join("missing/dir/m.json"),
            dir.join("ds.json"),
            dir.join("plain.json"),
        );
        let text = run_cmd(&format!(
            "study --scale tiny --threads 4 --metrics-out {} --out {}",
            metrics_path.display(),
            ds_path.display()
        ))
        .unwrap();
        assert!(text.contains("metrics:"), "{text}");
        let json = std::fs::read_to_string(&metrics_path).unwrap();
        // Metrics count; the time of each pricing task is its `cell` span.
        assert!(!json.contains("\"histograms\""), "{json}");
        let snap = read_metrics(&metrics_path);
        // Every (pair, chip) cell prices all 96 configurations.
        assert!(metric(&snap, "counters", "replay.configs_priced").unwrap() >= 306.0 * 96.0);
        assert!(metric(&snap, "counters", "replay.chip_batches").is_some());
        // What spans or the dataset already count is not counted again.
        for twice in [
            "study.traces_compiled",
            "study.cells_priced",
            "trace_cache.hits",
        ] {
            assert!(
                metric(&snap, "counters", twice).is_none(),
                "{twice}: {json}"
            );
        }
        assert!(metric(&snap, "gauges", "study.wall_seconds").unwrap() > 0.0);
        assert!(metric(&snap, "gauges", "study.phase_seconds.price-cells").is_some());
        // Nothing but the snapshot is left beside it: no temporary files.
        let left: Vec<_> = std::fs::read_dir(metrics_path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(left, ["m.json"]);
        // The instrumented dataset is byte-identical to a plain run.
        run_cmd(&format!(
            "study --scale tiny --threads 4 --out {}",
            plain_path.display()
        ))
        .unwrap();
        assert_eq!(
            std::fs::read(&ds_path).unwrap(),
            std::fs::read(&plain_path).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn study_profile_prints_the_phase_tree() {
        let _guard = METRICS_TESTS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let dir = std::env::temp_dir().join(format!("gpp-cli-profile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let json_path = dir.join("metrics.json");
        let text = run_cmd(&format!(
            "study --scale tiny --threads 2 --profile --metrics-out {} --out {}",
            json_path.display(),
            dir.join("ds.json").display()
        ))
        .unwrap();
        for needle in [
            "study",
            "generate-inputs",
            "collect-traces",
            "aggregate",
            "price-cells",
            "finalize",
            "phase coverage of `study`",
            format!("gauges written to {}", json_path.display()).as_str(),
        ] {
            assert!(text.contains(needle), "missing {needle}:\n{text}");
        }
        let snap = read_metrics(&json_path);
        assert!(metric(&snap, "counters", "replay.configs_priced").unwrap() >= 306.0 * 96.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_profile_prints_batch_phases() {
        let text = run_cmd("sweep --smoke --chips 4 --threads 2 --profile").unwrap();
        for needle in ["sweep", "price-batches", "collect-traces"] {
            assert!(text.contains(needle), "missing {needle}:\n{text}");
        }
        // A switch takes no value, so `--profile` may come first.
        let text = run_cmd("sweep --profile --smoke --chips 4 --threads 2").unwrap();
        assert!(text.contains("phase coverage of `sweep`"), "{text}");
    }

    #[test]
    fn profile_takes_the_workload_chips_and_trace_cache() {
        let dir =
            std::env::temp_dir().join(format!("gpp-cli-profile-cache-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cache = dir.join("cache");
        let has_row = |text: &str, name: &str| {
            text.lines()
                .any(|line| line.split_whitespace().next() == Some(name))
        };
        // After a cold study fills the cache, the profiled study reads
        // every trace from it: its phase tree has no `record` row.
        let line = format!(
            "study --scale tiny --threads 2 --trace-cache {} --out {}",
            cache.display(),
            dir.join("ds.json").display()
        );
        run_cmd(&line).unwrap();
        let warm = run_cmd(&format!("{line} --profile")).unwrap();
        assert!(has_row(&warm, "trace"), "{warm}");
        assert!(!has_row(&warm, "record"), "{warm}");
        // Chip lists reach the profiled study and sweep.
        let chips = dir.join("chips.json");
        std::fs::write(&chips, serde_json::to_string(&study_chips()[..3]).unwrap()).unwrap();
        let study = run_cmd(&format!(
            "study --scale tiny --profile --chips {} --out {}",
            chips.display(),
            dir.join("ds3.json").display()
        ))
        .unwrap();
        assert!(
            study.contains(&format!("collected {} cells", 17 * 3 * 3)),
            "{study}"
        );
        assert!(has_row(&study, "study"), "{study}");
        let sweep = run_cmd(&format!(
            "sweep --smoke --profile --chips-file {}",
            chips.display()
        ))
        .unwrap();
        assert!(sweep.contains("swept 3 chips"), "{sweep}");
        assert!(has_row(&sweep, "sweep"), "{sweep}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analyze_profile_shows_the_analysis_phases_after_the_plain_output() {
        let dir =
            std::env::temp_dir().join(format!("gpp-cli-analyze-profile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (ds_path, trace_path) = (dir.join("ds.json"), dir.join("trace.jsonl"));
        run_cmd(&format!("study --scale tiny --out {}", ds_path.display())).unwrap();
        let plain = run_cmd(&format!("analyze --data {}", ds_path.display())).unwrap();
        let profiled = run_cmd(&format!(
            "analyze --data {} --profile --trace-out {}",
            ds_path.display(),
            trace_path.display()
        ))
        .unwrap();
        let report = profiled
            .strip_prefix(plain.as_str())
            .expect("the plain output comes first");
        let rows: Vec<&str> = report.lines().map(str::trim_start).collect();
        assert!(rows.iter().any(|r| r.starts_with("analyze:")), "{report}");
        assert!(rows.iter().any(|r| r.starts_with("partition ")), "{report}");
        // The analysis roots are phases over parallel items: no coverage.
        assert!(!report.contains("phase coverage of `analyze:"), "{report}");
        assert!(report.contains(&format!("trace written to {}", trace_path.display())));
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace.contains(r#""name":"partition""#), "{trace}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_command_without_spans_still_profiles() {
        let plain = run_cmd("chips").unwrap();
        let profiled = run_cmd("chips --profile").unwrap();
        assert!(profiled.starts_with(&plain), "{profiled}");
        assert!(profiled[plain.len()..].contains("Phase"), "{profiled}");
    }

    #[test]
    fn spec_defaults_match_the_library_defaults() {
        let default = |cmd: &str, flag: &str| -> usize {
            let command = COMMANDS.iter().find(|c| c.name == cmd).unwrap();
            let value = command.flag(flag).unwrap().default.unwrap();
            value.parse().unwrap()
        };
        let (study, sweep) = (StudyConfig::default(), SweepConfig::default());
        let search = SearchParams::default();
        for cmd in ["study", "explain"] {
            assert_eq!(default(cmd, "seed") as u64, study.seed, "{cmd}");
        }
        for cmd in ["sweep", "portfolio"] {
            assert_eq!(default(cmd, "seed") as u64, sweep.seed, "{cmd}");
        }
        assert_eq!(default("study", "runs"), study.runs);
        assert_eq!(default("portfolio", "k"), search.k_max);
        assert_eq!(default("portfolio", "exact-max"), search.exact_k_max);
        assert_eq!(default("portfolio", "beam"), search.beam_width);
        // Each declared default is a value its own flag accepts, and no
        // command redeclares a shared flag.
        for command in COMMANDS {
            for flag in command.flags {
                let name = format!("{} --{}", command.name, flag.name);
                for value in [flag.default, flag.smoke].into_iter().flatten() {
                    assert_eq!(flag.check(value), Ok(()), "{name}");
                }
                let shared = args::SHARED_FLAGS.iter().any(|f| f.name == flag.name);
                assert!(!shared, "{name} is a shared flag");
            }
        }
    }

    #[test]
    fn footer_width_tracks_the_longest_name() {
        assert_eq!(footer_width(["R9", "MALI"]), 8);
        assert_eq!(footer_width(["a-very-long-chip-name"]), 21);
        assert_eq!(footer_width(std::iter::empty::<&str>()), 8);
    }

    #[test]
    fn study_trace_out_writes_parseable_jsonl_and_summary() {
        let dir = std::env::temp_dir().join(format!("gpp-cli-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // The trace file's directory does not exist yet.
        let trace_path = dir.join("missing/trace.jsonl");
        let ds_path = dir.join("ds.json");
        let text = run_cmd(&format!(
            "study --scale tiny --threads 4 --profile --trace-out {} --out {}",
            trace_path.display(),
            ds_path.display()
        ))
        .unwrap();
        assert!(text.contains("306 cells"), "{text}");
        assert!(text.contains("collect-traces"), "{text}");
        assert!(text.contains("price-cells"), "{text}");
        // Five pricing tasks follow the heading, slowest first.
        let slowest: Vec<f64> = text
            .lines()
            .skip_while(|l| *l != "slowest cells:")
            .skip(1)
            .take_while(|l| l.starts_with("  ") && l.contains(" ms  "))
            .map(|l| l.split_whitespace().next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(slowest.len(), 5, "{text}");
        assert!(slowest.windows(2).all(|w| w[0] >= w[1]), "{text}");
        // The file holds spans only, one pricing task span per (pair,
        // geometry family).
        let content = std::fs::read_to_string(&trace_path).unwrap();
        assert!(!content.contains(r#""kind":"counter""#));
        assert_eq!(closed_spans(&trace_path, "cell"), 17 * 3 * 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_artifact_under_a_file_names_the_file() {
        let dir = std::env::temp_dir().join(format!("gpp-cli-under-file-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("afile");
        std::fs::write(&file, "a file").unwrap();
        for sub in ["x.jsonl", "sub/x.jsonl"] {
            let trace = file.join(sub);
            let err = run_cmd(&format!("chips --trace-out {}", trace.display())).unwrap_err();
            assert_eq!(
                err,
                format!("{}: {} is not a directory", trace.display(), file.display())
            );
        }
        // The dataset `study --out` saves is an artifact like any other.
        let ds = file.join("ds.json");
        let err = run_cmd(&format!("study --scale tiny --out {}", ds.display())).unwrap_err();
        let want = format!("{}: {} is not a directory", ds.display(), file.display());
        assert!(err.ends_with(&want), "{err}");
        assert_eq!(std::fs::read_to_string(&file).unwrap(), "a file");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_command_leaves_no_trace_file() {
        let dir = std::env::temp_dir().join(format!("gpp-cli-trace-fail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.jsonl");
        let err = run_cmd(&format!(
            "analyze --data {} --trace-out {}",
            dir.join("absent.json").display(),
            trace_path.display()
        ))
        .unwrap_err();
        assert!(err.contains("absent.json"), "{err}");
        assert!(!trace_path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The metrics snapshot `--metrics-out` wrote to `path`.
    fn read_metrics(path: &Path) -> serde_json::Value {
        serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    /// The number `key` in a snapshot's `counters` or `gauges` section.
    fn metric(snap: &serde_json::Value, section: &str, key: &str) -> Option<f64> {
        match snap.get(section)?.get(key)? {
            serde_json::Value::Number(n) => n.as_f64(),
            other => panic!("`{section}.{key}` is {other}"),
        }
    }

    /// How many `name` spans closed under the run's root span in the
    /// JSONL trace at `path`; every line must parse as one event.
    fn closed_spans(path: &Path, name: &str) -> u64 {
        let events: Vec<gpp_obs::TraceEvent> = std::fs::read_to_string(path)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).expect("one TraceEvent per line"))
            .collect();
        phase_tree(&events)[0].count_of(name)
    }
}
