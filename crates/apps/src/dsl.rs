//! DSL-backed study applications: the seven `gpp_irgl::programs` wrapped
//! as [`Application`]s, executed on the native `gpp_irgl` runtime with a
//! compile-once-run-many discipline.
//!
//! The programs are DSL source (`crates/irgl/programs/*.irgl`), parsed
//! when [`dsl_applications`] builds the table, once per study. A
//! program's [`Program::content_hash`] is its app's
//! [`Application::content_version`], so an edit to a `.irgl` file that
//! changes its program invalidates that app's cached traces.
//!
//! Each [`DslApp`] compiles its program to a [`CompiledProgram`] at most
//! once per study (a [`OnceLock`], shared across inputs and across the
//! grid runner's worker threads) and runs it on a fresh [`NativeVm`].
//! The recorded traces are bit-identical to what the tree-walking oracle
//! `gpp_irgl::execute_ast` records (`tests/tier_identity.rs`), so the
//! study dataset does not depend on the compilation layer.
//!
//! These applications are *opt-in*: [`crate::study::StudyConfig`] has a
//! `dsl_programs` flag (off by default, `gpp study --dsl`) that appends
//! them to the 17 handwritten applications, leaving the default dataset
//! untouched.

use std::sync::OnceLock;

use gpp_graph::{Graph, NodeId};
use gpp_irgl::{programs, CompiledProgram, NativeVm, Program};
use gpp_sim::exec::Executor;

use crate::app::{AppOutput, Application, Problem};

/// How a program's output field maps onto an [`AppOutput`] for
/// validation against the sequential references.
#[derive(Debug, Clone, Copy)]
enum OutputKind {
    /// Hop levels; `f64::INFINITY` becomes `u32::MAX` (unreachable).
    Levels,
    /// Weighted distances; `f64::INFINITY` becomes `u64::MAX`.
    Distances,
    /// Component labels (minimum node id in the component).
    Labels,
    /// PageRank scores, used as-is.
    Ranks,
    /// MIS membership: state `1.0` means selected.
    Independent,
}

/// One DSL program adapted to the [`Application`] interface.
pub struct DslApp {
    name: &'static str,
    problem: Problem,
    kind: OutputKind,
    program: Program,
    compiled: OnceLock<CompiledProgram>,
}

impl DslApp {
    /// The compiled program, compiling on first use.
    fn compiled(&self) -> &CompiledProgram {
        self.compiled.get_or_init(|| {
            CompiledProgram::compile(&self.program).expect("built-in DSL programs are valid")
        })
    }
}

impl Application for DslApp {
    fn name(&self) -> &'static str {
        self.name
    }

    fn problem(&self) -> Problem {
        self.problem
    }

    fn content_version(&self) -> u64 {
        self.program.content_hash()
    }

    fn run(&self, graph: &Graph, exec: &mut dyn Executor) -> AppOutput {
        let result = NativeVm::new()
            .run(self.compiled(), graph, exec)
            .unwrap_or_else(|e| panic!("{}: {e}", self.name));
        let out = result.output(&self.program);
        match self.kind {
            OutputKind::Levels => AppOutput::Levels(
                out.iter()
                    .map(|&x| if x.is_finite() { x as u32 } else { u32::MAX })
                    .collect(),
            ),
            OutputKind::Distances => AppOutput::Distances(
                out.iter()
                    .map(|&x| if x.is_finite() { x as u64 } else { u64::MAX })
                    .collect(),
            ),
            OutputKind::Labels => AppOutput::Labels(out.iter().map(|&x| x as NodeId).collect()),
            OutputKind::Ranks => AppOutput::Ranks(out.to_vec()),
            OutputKind::Independent => {
                AppOutput::Independent(out.iter().map(|&x| x == 1.0).collect())
            }
        }
    }
}

/// The seven DSL programs as study applications (`dsl-` name prefix so
/// they never collide with the handwritten registry).
pub fn dsl_applications() -> Vec<Box<dyn Application>> {
    use OutputKind::{Distances, Independent, Labels, Levels, Ranks};
    use Problem::{Bfs, Cc, Mis, Pr, Sssp};
    let table = [
        ("dsl-bfs-tp", Bfs, Levels, programs::bfs_topology()),
        ("dsl-bfs-wl", Bfs, Levels, programs::bfs_worklist()),
        ("dsl-sssp-bf", Sssp, Distances, programs::sssp_bellman()),
        ("dsl-sssp-wl", Sssp, Distances, programs::sssp_worklist()),
        ("dsl-cc-lp", Cc, Labels, programs::cc_label_prop()),
        ("dsl-pr-pull", Pr, Ranks, programs::pr_pull()),
        ("dsl-mis-luby", Mis, Independent, programs::mis_luby()),
    ];
    table
        .into_iter()
        .map(|(name, problem, kind, program)| {
            Box::new(DslApp {
                name,
                problem,
                kind,
                program,
                compiled: OnceLock::new(),
            }) as Box<dyn Application>
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::validate;
    use crate::inputs::{study_inputs, StudyScale};
    use gpp_sim::trace::Recorder;

    #[test]
    fn registry_has_seven_uniquely_named_apps() {
        let apps = dsl_applications();
        assert_eq!(apps.len(), 7);
        let mut names: Vec<&str> = apps.iter().map(|a| a.name()).collect();
        assert!(names.iter().all(|n| n.starts_with("dsl-")));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn dsl_outputs_validate_against_references_on_study_inputs() {
        for input in study_inputs(StudyScale::Tiny, 0x9a7e_2019) {
            for app in dsl_applications() {
                let mut rec = Recorder::new();
                let output = app.run(&input.graph, &mut rec);
                validate(&input.graph, &output)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", app.name(), input.name));
                assert!(rec.into_trace().num_kernels() > 0, "{}", app.name());
            }
        }
    }

    #[test]
    fn compile_once_run_many_yields_identical_traces() {
        let inputs = study_inputs(StudyScale::Tiny, 7);
        for app in dsl_applications() {
            // Same DslApp instance across inputs: the second and third
            // runs reuse the cached CompiledProgram.
            let mut first = Vec::new();
            for input in &inputs {
                let mut rec = Recorder::new();
                app.run(&input.graph, &mut rec);
                first.push(rec.into_trace());
            }
            for (input, trace) in inputs.iter().zip(&first) {
                let mut rec = Recorder::new();
                app.run(&input.graph, &mut rec);
                assert_eq!(&rec.into_trace(), trace, "{}", app.name());
            }
        }
    }
}
