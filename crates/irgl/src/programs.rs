//! The seven built-in applications, mirroring a subset of the
//! handwritten suite: two BFS strategies, two SSSP strategies, label
//! propagation, PageRank, and Luby's maximal independent set.
//!
//! Each is DSL source, a `.irgl` file under the crate's `programs/`
//! directory, embedded in the binary and parsed when its function is
//! called; `gpp compile NAME` prints any of them as OpenCL.

use crate::ast::Program;
use crate::parser::parse;

/// Parses a built-in's embedded source. The files ship with the crate
/// and its tests parse every one, so an error here is a bug.
fn builtin(src: &str) -> Program {
    parse(src).unwrap_or_else(|e| panic!("built-in DSL program: {e}"))
}

/// Topology-driven BFS (`bfs_tp`): one kernel over all nodes per level,
/// expanding nodes whose level equals the iteration counter.
pub fn bfs_topology() -> Program {
    builtin(include_str!("../programs/bfs_tp.irgl"))
}

/// Worklist BFS (`bfs_wl`): frontier nodes relax their neighbours and
/// push newly improved ones.
pub fn bfs_worklist() -> Program {
    builtin(include_str!("../programs/bfs_wl.irgl"))
}

/// Topology-driven Bellman-Ford SSSP (`sssp_bf`).
pub fn sssp_bellman() -> Program {
    builtin(include_str!("../programs/sssp_bf.irgl"))
}

/// Worklist SSSP (`sssp_wl`): improved nodes are queued for
/// re-relaxation.
pub fn sssp_worklist() -> Program {
    builtin(include_str!("../programs/sssp_wl.irgl"))
}

/// Connected components by minimum-label propagation (`cc_lp`).
pub fn cc_label_prop() -> Program {
    builtin(include_str!("../programs/cc_lp.irgl"))
}

/// Pull-style PageRank (`pr_pull`) with uniform redistribution of
/// dangling mass via a global accumulator; a fixed 64 power iterations
/// (damping 0.85).
pub fn pr_pull() -> Program {
    builtin(include_str!("../programs/pr_pull.irgl"))
}

/// Luby's maximal independent set (`mis_luby`): fresh hash priorities
/// per round; state 0 = undecided, 1 = in the set, 2 = excluded.
pub fn mis_luby() -> Program {
    builtin(include_str!("../programs/mis_luby.irgl"))
}

/// All seven built-in programs.
pub fn all() -> Vec<Program> {
    vec![
        bfs_topology(),
        bfs_worklist(),
        sssp_bellman(),
        sssp_worklist(),
        cc_label_prop(),
        pr_pull(),
        mis_luby(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::execute;
    use crate::validate::validate as validate_program;
    use gpp_graph::{generators, properties, Graph};
    use gpp_sim::trace::Recorder;

    fn run(program: &Program, graph: &Graph) -> Vec<f64> {
        let mut rec = Recorder::new();
        let exec =
            execute(program, graph, &mut rec).unwrap_or_else(|e| panic!("{}: {e}", program.name));
        exec.output(program).to_vec()
    }

    fn test_graphs() -> Vec<Graph> {
        vec![
            generators::road_grid(8, 8, 3).unwrap(),
            generators::rmat(7, 6, 5).unwrap(),
            generators::star(25).unwrap(),
            generators::path(17).unwrap(),
            gpp_graph::GraphBuilder::new(7)
                .undirected()
                .weighted_edge(0, 1, 5)
                .weighted_edge(3, 4, 2)
                .weighted_edge(4, 5, 9)
                .build()
                .unwrap(),
        ]
    }

    #[test]
    fn all_programs_are_well_formed() {
        for p in all() {
            validate_program(&p).unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
        assert_eq!(all().len(), 7);
    }

    /// The built-ins' content hashes key the trace cache: an edit to a
    /// `.irgl` file that changes its program must change this table.
    #[test]
    fn builtin_content_hashes_are_pinned() {
        let hashes: Vec<(String, u64)> = all()
            .iter()
            .map(|p| (p.name.clone(), p.content_hash()))
            .collect();
        let expect = [
            ("bfs_tp", 0xb871_ceb7_2ffb_c004),
            ("bfs_wl", 0x3f4a_f52b_60c0_0cd0),
            ("sssp_bf", 0xeb94_30f1_7fac_75ef),
            ("sssp_wl", 0x4e10_357a_dd8c_2518),
            ("cc_lp", 0x574b_94e9_a053_26f9),
            ("pr_pull", 0x43b8_063f_cd5f_81b6),
            ("mis_luby", 0x1c6c_558e_dd58_79be),
        ]
        .map(|(name, hash)| (name.to_owned(), hash));
        assert_eq!(hashes, expect);
    }

    #[test]
    fn bfs_programs_match_reference_levels() {
        for g in test_graphs() {
            let expect = properties::bfs_levels(&g, 0);
            for p in [bfs_topology(), bfs_worklist()] {
                let got = run(&p, &g);
                for (v, (g_, w)) in got.iter().zip(&expect).enumerate() {
                    let want = if *w == u32::MAX {
                        f64::INFINITY
                    } else {
                        *w as f64
                    };
                    assert_eq!(*g_, want, "{} node {v}", p.name);
                }
            }
        }
    }

    #[test]
    fn sssp_programs_match_dijkstra() {
        for g in test_graphs() {
            let expect = properties::dijkstra(&g, 0);
            for p in [sssp_bellman(), sssp_worklist()] {
                let got = run(&p, &g);
                for (v, (g_, w)) in got.iter().zip(&expect).enumerate() {
                    let want = if *w == u64::MAX {
                        f64::INFINITY
                    } else {
                        *w as f64
                    };
                    assert_eq!(*g_, want, "{} node {v}", p.name);
                }
            }
        }
    }

    #[test]
    fn cc_matches_union_find() {
        for g in test_graphs() {
            let expect = properties::connected_components(&g).labels;
            let got = run(&cc_label_prop(), &g);
            for (v, (g_, w)) in got.iter().zip(&expect).enumerate() {
                assert_eq!(*g_, *w as f64, "node {v}");
            }
        }
    }

    #[test]
    fn pagerank_matches_power_iteration() {
        for g in test_graphs() {
            let got = run(&pr_pull(), &g);
            // Independent reference: 64 pull iterations with uniform
            // dangling redistribution.
            let n = g.num_nodes();
            let mut rank = vec![1.0 / n as f64; n];
            let mut next = vec![0.0; n];
            for _ in 0..64 {
                let dangling: f64 = g
                    .nodes()
                    .filter(|&u| g.degree(u) == 0)
                    .map(|u| rank[u as usize])
                    .sum();
                let base = 0.15 / n as f64 + 0.85 * dangling / n as f64;
                for v in g.nodes() {
                    let mut acc = 0.0;
                    for &u in g.neighbors(v) {
                        acc += 0.85 * rank[u as usize] / g.degree(u) as f64;
                    }
                    next[v as usize] = base + acc;
                }
                std::mem::swap(&mut rank, &mut next);
            }
            for (v, (g_, w)) in got.iter().zip(&rank).enumerate() {
                assert!((g_ - w).abs() < 1e-9, "node {v}: {g_} vs {w}");
            }
            let sum: f64 = got.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn mis_is_independent_and_maximal() {
        for g in test_graphs() {
            let state = run(&mis_luby(), &g);
            for u in g.nodes() {
                let selected = state[u as usize] == 1.0;
                if selected {
                    for &v in g.neighbors(u) {
                        assert_ne!(state[v as usize], 1.0, "{u} and {v} both selected");
                    }
                } else {
                    assert!(
                        g.neighbors(u).iter().any(|&v| state[v as usize] == 1.0),
                        "{u} uncovered"
                    );
                }
            }
        }
    }

    #[test]
    fn worklist_variants_do_less_work_on_road() {
        let g = generators::road_grid(12, 12, 1).unwrap();
        let mut rec_tp = Recorder::new();
        execute(&bfs_topology(), &g, &mut rec_tp).unwrap();
        let mut rec_wl = Recorder::new();
        execute(&bfs_worklist(), &g, &mut rec_wl).unwrap();
        assert!(rec_wl.into_trace().num_items() < rec_tp.into_trace().num_items());
    }
}
