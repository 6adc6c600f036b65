//! The kernel IR of the miniature graph-algorithm DSL.
//!
//! A [`Program`] declares per-node fields, a set of data-parallel
//! [`Kernel`]s, and a [`Driver`] that sequences kernel launches to a
//! fixed point — the same shape as an IrGL program. Kernels are written
//! against one implicit *node* (the thread's work item) and, inside
//! [`Stmt::ForEachEdge`], one implicit *neighbour*.
//!
//! All values are `f64` with exact-integer semantics for the id-sized
//! integers graph algorithms use (node ids, levels, labels and small
//! weighted distances are all well below 2^53).

use gpp_graph::rng::fnv1a;

/// Index of a per-node field in [`Program::fields`].
pub type FieldId = usize;

/// Index of a kernel in [`Program::kernels`].
pub type KernelId = usize;

/// Index of a let-bound local within a kernel.
pub type LocalId = usize;

/// Index of a global scalar in [`Program::globals`].
pub type GlobalId = usize;

/// Which implicit node a field access refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ref {
    /// The kernel's own node (coalesced access).
    Node,
    /// The current neighbour inside an edge loop (scattered access).
    Nbr,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Less-than (yields 0.0 / 1.0).
    Lt,
    /// Less-or-equal.
    Le,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Logical and (non-zero = true).
    And,
    /// Logical or.
    Or,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Logical negation.
    Not,
    /// Arithmetic negation.
    Neg,
    /// Floor.
    Floor,
}

/// Expressions (side-effect free).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A constant.
    Const(f64),
    /// The id of the referenced node.
    NodeId(Ref),
    /// The degree of the referenced node.
    Degree(Ref),
    /// A per-node field read.
    Field(FieldId, Ref),
    /// The weight of the current edge (edge loop only).
    EdgeWeight,
    /// The driver's current iteration number.
    Iter,
    /// The number of nodes in the graph.
    NumNodes,
    /// A let-bound local.
    Local(LocalId),
    /// A global scalar (re-initialised at the start of every driver
    /// iteration; written with [`Stmt::GlobalAdd`]).
    Global(GlobalId),
    /// Unary operation.
    Unary(UnaryOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// A deterministic 32-bit hash of two values (Luby-style random
    /// priorities), uniform in `[0, 2^32)`.
    Hash(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// `a <op> b` convenience constructor.
    pub fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Binary(op, Box::new(a), Box::new(b))
    }
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Binds local `0` (`1`, ...) for the remainder of the enclosing
    /// block.
    Let(LocalId, Expr),
    /// Conditional execution.
    If {
        /// Condition (non-zero = true).
        cond: Expr,
        /// Then-branch.
        then: Vec<Stmt>,
        /// Else-branch.
        els: Vec<Stmt>,
    },
    /// Plain store to a field of the referenced node.
    Store {
        /// Destination field.
        field: FieldId,
        /// Destination node.
        target: Ref,
        /// Value stored.
        value: Expr,
    },
    /// `atomic_min` on a field (monotone, race-safe).
    AtomicMin {
        /// Destination field.
        field: FieldId,
        /// Destination node.
        target: Ref,
        /// Candidate value.
        value: Expr,
    },
    /// `atomic_add` on a field.
    AtomicAdd {
        /// Destination field.
        field: FieldId,
        /// Destination node.
        target: Ref,
        /// Addend.
        value: Expr,
    },
    /// The irregular inner loop over the node's edges.
    ForEachEdge(Vec<Stmt>),
    /// Pushes the referenced node onto the next worklist (deduplicated
    /// per round).
    Push(Ref),
    /// Raises the driver's fixed-point flag ("something changed").
    MarkChanged,
    /// Atomically adds to a global scalar (a single hot accumulator,
    /// e.g. PageRank's dangling-mass sum).
    GlobalAdd(GlobalId, Expr),
}

/// What a kernel launch ranges over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// One thread per graph node.
    AllNodes,
    /// One thread per current-worklist entry.
    Worklist,
}

/// One data-parallel kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Kernel name (used in codegen and diagnostics).
    pub name: String,
    /// Launch domain.
    pub domain: Domain,
    /// Number of let-bound locals.
    pub locals: usize,
    /// Kernel body.
    pub body: Vec<Stmt>,
}

/// Initial value of a per-node field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldInit {
    /// A constant.
    Const(f64),
    /// The node's own id.
    NodeId,
    /// "Infinity" (`f64::INFINITY`; prints as `INF`).
    Infinity,
    /// `1 / num_nodes` (PageRank-style).
    OneOverN,
    /// 0.0 for the source node 0, the given constant otherwise
    /// (BFS/SSSP-style distance initialisation).
    SourceElse(f64),
}

/// A per-node field declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDecl {
    /// Field name.
    pub name: String,
    /// Initial value.
    pub init: FieldInit,
}

/// A global scalar declaration. Globals are reset to `init` at the start
/// of every driver iteration, before the iteration's first kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalDecl {
    /// Global name.
    pub name: String,
    /// Value at the start of each iteration.
    pub init: f64,
}

/// How the driver seeds the worklist before the first iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorklistInit {
    /// The single source node 0.
    Source,
    /// Every node.
    AllNodes,
}

/// The host-side iteration structure.
#[derive(Debug, Clone, PartialEq)]
pub enum Driver {
    /// Launch the kernel sequence repeatedly until no kernel raised the
    /// changed flag (bounded by `max_iters`).
    UntilFixpoint {
        /// Kernels launched each iteration, in order.
        kernels: Vec<KernelId>,
        /// Safety bound on iterations.
        max_iters: u32,
    },
    /// Frontier loop: launch the kernel over the worklist, swap in the
    /// pushed nodes, repeat until the worklist is empty.
    WorklistLoop {
        /// Initial worklist contents.
        init: WorklistInit,
        /// The worklist kernel.
        kernel: KernelId,
        /// Safety bound on iterations.
        max_iters: u32,
    },
    /// A fixed number of iterations of the kernel sequence.
    Fixed {
        /// Kernels launched each iteration, in order.
        kernels: Vec<KernelId>,
        /// Iteration count.
        iters: u32,
    },
}

/// A complete DSL program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Program name.
    pub name: String,
    /// Per-node field declarations.
    pub fields: Vec<FieldDecl>,
    /// Global scalar declarations.
    pub globals: Vec<GlobalDecl>,
    /// Kernels.
    pub kernels: Vec<Kernel>,
    /// Host-side driver.
    pub driver: Driver,
    /// The field holding the program's result.
    pub output: FieldId,
}

impl std::fmt::Display for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&crate::printer::to_source(self))
    }
}

impl Program {
    /// The kernels launched by the driver, in launch order (one
    /// iteration's worth).
    pub fn driver_kernels(&self) -> Vec<KernelId> {
        match &self.driver {
            Driver::UntilFixpoint { kernels, .. } | Driver::Fixed { kernels, .. } => {
                kernels.clone()
            }
            Driver::WorklistLoop { kernel, .. } => vec![*kernel],
        }
    }

    /// A structural content hash: FNV-1a over the program's `Debug`
    /// rendering (names, ids, constants at round-trip precision,
    /// initialisers, driver and output). Folded into DSL trace-cache
    /// keys so editing a program can never serve a stale cached trace.
    pub fn content_hash(&self) -> u64 {
        fnv1a(format!("{self:?}").bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_program() -> Program {
        Program {
            name: "mini".into(),
            fields: vec![FieldDecl {
                name: "level".into(),
                init: FieldInit::Infinity,
            }],
            globals: vec![],
            kernels: vec![Kernel {
                name: "step".into(),
                domain: Domain::AllNodes,
                locals: 0,
                body: vec![Stmt::ForEachEdge(vec![Stmt::AtomicMin {
                    field: 0,
                    target: Ref::Nbr,
                    value: Expr::bin(BinOp::Add, Expr::Field(0, Ref::Node), Expr::Const(1.0)),
                }])],
            }],
            driver: Driver::UntilFixpoint {
                kernels: vec![0],
                max_iters: 100,
            },
            output: 0,
        }
    }

    #[test]
    fn driver_kernels_enumerates_launches() {
        let p = mini_program();
        assert_eq!(p.driver_kernels(), vec![0]);
    }

    #[test]
    fn display_prints_dsl_source() {
        let p = mini_program();
        let text = p.to_string();
        assert!(text.starts_with("program mini {"));
        assert!(text.contains("kernel step all_nodes {"));
    }

    #[test]
    fn expr_bin_builds_tree() {
        let e = Expr::bin(BinOp::Add, Expr::Const(1.0), Expr::Const(2.0));
        assert!(matches!(e, Expr::Binary(BinOp::Add, _, _)));
    }

    #[test]
    fn content_hash_is_stable_and_structural() {
        for p in crate::programs::all() {
            assert_eq!(p.content_hash(), p.clone().content_hash(), "{}", p.name);
            // Printing and re-parsing rebuilds the same program, so the
            // same hash.
            let reparsed = crate::parser::parse(&p.to_string()).unwrap();
            assert_eq!(p.content_hash(), reparsed.content_hash(), "{}", p.name);
        }
    }

    #[test]
    fn content_hash_changes_when_the_program_changes() {
        let base = crate::programs::bfs_worklist().content_hash();
        // A constant tweak deep inside a kernel body.
        let mut edited = crate::programs::bfs_worklist();
        assert!(visit_first_const(&mut edited.kernels[0].body));
        assert_ne!(base, edited.content_hash(), "kernel edit changes the hash");
        // A driver-only change.
        let mut rebound = crate::programs::bfs_worklist();
        if let Driver::WorklistLoop { max_iters, .. } = &mut rebound.driver {
            *max_iters += 1;
        }
        assert_ne!(base, rebound.content_hash(), "driver edit changes the hash");
        // Distinct programs never collide in practice.
        assert_ne!(base, crate::programs::bfs_topology().content_hash());
    }

    fn visit_first_const(stmts: &mut [Stmt]) -> bool {
        fn in_expr(e: &mut Expr) -> bool {
            match e {
                Expr::Const(c) => {
                    *c += 1.0;
                    true
                }
                Expr::Unary(_, a) => in_expr(a),
                Expr::Binary(_, a, b) => in_expr(a) || in_expr(b),
                Expr::Hash(a, b) => in_expr(a) || in_expr(b),
                _ => false,
            }
        }
        for s in stmts {
            let hit = match s {
                Stmt::Let(_, e) | Stmt::GlobalAdd(_, e) => in_expr(e),
                Stmt::Store { value, .. }
                | Stmt::AtomicMin { value, .. }
                | Stmt::AtomicAdd { value, .. } => in_expr(value),
                Stmt::If { cond, then, els } => {
                    in_expr(cond) || visit_first_const(then) || visit_first_const(els)
                }
                Stmt::ForEachEdge(body) => visit_first_const(body),
                Stmt::Push(_) | Stmt::MarkChanged => false,
            };
            if hit {
                return true;
            }
        }
        false
    }
}
