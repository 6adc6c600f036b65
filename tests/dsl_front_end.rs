//! The DSL front end never panics. Arbitrary bytes, token-mutated
//! built-in programs, a kernel with more locals than a 16-bit index can
//! name, and programs nested to the parser's bound all go through parse
//! → validate → compile → run on both tiers; every stage answers `Err`
//! or `Ok`, and whenever the tiers run they agree bit for bit. A panic
//! anywhere fails the test, and so would a stack overflow. Runs stay
//! cheap: a 9-node graph, and driver bounds clamped to [`MAX_BOUND`]
//! rounds. Every `.irgl` file the repository ships parses, validates and
//! compiles.

use std::fmt::Write as _;

use gpp::graph::rng::{for_cases, Rng64};
use gpp::graph::{generators, Graph};
use gpp::irgl::ast::{Driver, Program};
use gpp::irgl::parser::MAX_DEPTH;
use gpp::irgl::{
    codegen, execute_ast, parse, plan, printer, programs, validate_program, CompiledProgram,
    Execution, IrglError, NativeVm,
};
use gpp::sim::opts::OptConfig;
use gpp::sim::trace::{Recorder, Trace};

/// Iteration cap for every driven program: a mutant that never reaches
/// a fixed point costs at most this many rounds per tier. Bounds are
/// clamped rather than the program skipped, so every mutant still runs.
const MAX_BOUND: u32 = 64;

/// Replacement tokens for the mutator: edge-case numbers, structural
/// punctuation, and keywords that are legal only in some positions.
const SPICE: &str = "0 1 2 3 64 65537 4294967296 1e308 0.5 inf - ( ) { } [ ] ; , = nbr node \
    push mark_changed for edge let t0 iter weight degree hash global worklist all_nodes source";

/// The bytes DSL source is made of, so random text gets past the
/// tokenizer often enough to reach the parser.
const ALPHABET: &[u8] = b" \n{}()[];,=<+-*/!&|._0123456789abcdefghijklmnopqrstuvwxyz";

type Run = (Result<Execution, IrglError>, Trace);

fn tiny_graph() -> Graph {
    generators::road_grid(3, 3, 1).expect("valid generator parameters")
}

fn run_ast(program: &Program, graph: &Graph) -> Run {
    let mut rec = Recorder::new();
    let result = execute_ast(program, graph, &mut rec);
    (result, rec.into_trace())
}

fn run_native(compiled: &CompiledProgram, graph: &Graph) -> Run {
    let mut rec = Recorder::new();
    let result = NativeVm::new().run(compiled, graph, &mut rec);
    (result, rec.into_trace())
}

fn bits(e: &Execution) -> Vec<u64> {
    e.fields
        .iter()
        .flatten()
        .chain(&e.globals)
        .map(|v| v.to_bits())
        .collect()
}

fn assert_same(what: &str, ast: &Run, native: &Run) {
    match (&ast.0, &native.0) {
        (Ok(a), Ok(n)) => {
            assert_eq!(
                (a.iterations, a.kernels),
                (n.iterations, n.kernels),
                "{what}"
            );
            assert_eq!(bits(a), bits(n), "{what}");
        }
        (Err(a), Err(n)) => assert_eq!(a, n, "{what}"),
        (a, n) => panic!("{what}: tiers disagree: ast={a:?} native={n:?}"),
    }
    assert_eq!(ast.1, native.1, "{what}: traces");
}

fn clamp_bounds(program: &mut Program) {
    match &mut program.driver {
        Driver::UntilFixpoint {
            max_iters: bound, ..
        }
        | Driver::WorklistLoop {
            max_iters: bound, ..
        }
        | Driver::Fixed { iters: bound, .. } => *bound = (*bound).min(MAX_BOUND),
    }
}

/// A parse error points into the source: 1-based, on an existing line,
/// at most one column past that line's end.
fn assert_position_in_source(what: &str, src: &str, line: usize, col: usize) {
    let text = src.split('\n').nth(line.wrapping_sub(1));
    let width = text.map_or(0, |t| t.chars().count());
    assert!(
        line >= 1 && col >= 1 && text.is_some() && col <= width + 1,
        "{what}: error at {line}:{col} is outside the source"
    );
}

/// Feeds `src` through the whole pipeline on both tiers; returns
/// whether it got as far as running.
fn drive(what: &str, src: &str, graph: &Graph) -> bool {
    let mut program = match parse(src) {
        Ok(program) => program,
        Err(e) => {
            assert_position_in_source(what, src, e.line, e.col);
            return false;
        }
    };
    clamp_bounds(&mut program);
    let compiled = CompiledProgram::compile(&program);
    assert_eq!(
        compiled.as_ref().err(),
        validate_program(&program).err().as_ref(),
        "{what}: compile must reject exactly what validate rejects"
    );
    let Ok(compiled) = compiled else {
        return false;
    };
    assert_same(
        what,
        &run_ast(&program, graph),
        &run_native(&compiled, graph),
    );
    true
}

/// Splits DSL source into tokens, just finely enough that joining them
/// with spaces parses back to the same program. Comments are dropped.
fn tokens(src: &str) -> Vec<String> {
    let word = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '.';
    let mut out = Vec::new();
    let mut chars = src.chars().peekable();
    while let Some(c) = chars.next() {
        if c.is_whitespace() {
            continue;
        }
        if c == '/' && chars.peek() == Some(&'/') {
            chars.by_ref().find(|&d| d == '\n');
            continue;
        }
        let mut tok = c.to_string();
        if word(c) {
            while let Some(&d) = chars.peek().filter(|&&d| word(d)) {
                tok.push(d);
                chars.next();
            }
        } else if let Some(&d) = chars.peek() {
            if matches!((c, d), ('=' | '!' | '<', '=') | ('&', '&') | ('|', '|')) {
                tok.push(d);
                chars.next();
            }
        }
        out.push(tok);
    }
    out
}

/// A token's class: a number, a word, or punctuation. Swapping a token
/// for another of its class keeps many mutants parseable, so they get
/// as far as validation and the two tiers.
fn class(tok: &str) -> u8 {
    match tok.chars().next() {
        Some(c) if c.is_ascii_digit() => 0,
        Some(c) if c.is_ascii_alphabetic() || c == '_' => 1,
        _ => 2,
    }
}

/// Applies one or two random token edits: delete, duplicate, swap, or
/// replace with another token of the same class, taken from the
/// program itself or from [`SPICE`].
fn mutate(rng: &mut Rng64, toks: &mut Vec<String>) {
    let mut below = |n: usize| rng.gen_range(n as u64) as usize;
    for _ in 0..=below(2) {
        if toks.is_empty() {
            return;
        }
        let i = below(toks.len());
        let pool: Vec<String> = match below(5) {
            0 => {
                toks.remove(i);
                continue;
            }
            1 => {
                toks.insert(i, toks[i].clone());
                continue;
            }
            2 => {
                let j = below(toks.len());
                toks.swap(i, j);
                continue;
            }
            3 => toks.clone(),
            _ => SPICE.split_whitespace().map(str::to_owned).collect(),
        };
        let same: Vec<&String> = pool
            .iter()
            .filter(|t| class(t) == class(&toks[i]))
            .collect();
        if !same.is_empty() {
            toks[i] = same[below(same.len())].clone();
        }
    }
}

#[test]
fn arbitrary_bytes_never_panic() {
    let graph = tiny_graph();
    for_cases(0xb17e5, 4_000, |rng| {
        // Half the cases are raw bytes, half DSL-alphabet text.
        let raw = rng.gen_bool(0.5);
        let bytes: Vec<u8> = (0..rng.gen_range(160))
            .map(|_| match (raw, rng.next_u64()) {
                (true, r) => r as u8,
                (false, r) => ALPHABET[(r % ALPHABET.len() as u64) as usize],
            })
            .collect();
        drive("bytes", &String::from_utf8_lossy(&bytes), &graph);
    });
}

/// The text of a `.irgl` file, by path from the repository root.
fn shipped(path: &str) -> String {
    let full = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("{full}: {e}"))
}

#[test]
fn token_mutated_builtins_never_panic_and_tiers_agree() {
    let graph = tiny_graph();
    let mut ran = 0usize;
    for program in programs::all() {
        // Half the mutants edit the printer's text (`t0` locals, every
        // operator parenthesised), half the shipped file's own text
        // (comments, named locals, implicit precedence).
        let file = shipped(&format!("crates/irgl/programs/{}.irgl", program.name));
        for (form, src) in [("printed", printer::to_source(&program)), ("shipped", file)] {
            let toks = tokens(&src);
            // The tokenizer is faithful: unmutated tokens parse back.
            assert_eq!(parse(&toks.join(" ")).expect("round trip"), program);
            let what = format!("{} {form}", program.name);
            assert!(drive(&what, &toks.join(" "), &graph), "{what}");
            for_cases(0x70_4e5, 500, |rng| {
                let mut mutant = toks.clone();
                mutate(rng, &mut mutant);
                let what = format!("{} {form} mutant", program.name);
                ran += usize::from(drive(&what, &mutant.join(" "), &graph));
            });
        }
    }
    // Not every mutant is a syntax error: plenty reach both tiers.
    assert!(ran >= 100, "only {ran} of 7,000 mutants ran");
}

#[test]
fn every_shipped_irgl_file_parses_validates_and_compiles() {
    let dir = format!("{}/crates/irgl/programs", env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|entry| entry.expect("directory entry").file_name())
        .map(|name| name.into_string().expect("UTF-8 file name"))
        .collect();
    files.sort_unstable();
    // One file per built-in, named after its program, and nothing else.
    let mut names: Vec<String> = programs::all()
        .iter()
        .map(|p| format!("{}.irgl", p.name))
        .collect();
    names.sort_unstable();
    assert_eq!(files, names);
    let paths = files
        .iter()
        .map(|file| format!("crates/irgl/programs/{file}"))
        .chain(["examples/data/components.irgl".to_owned()]);
    for path in paths {
        let program = parse(&shipped(&path)).unwrap_or_else(|e| panic!("{path}:{e}"));
        validate_program(&program).unwrap_or_else(|e| panic!("{path}: {e}"));
        CompiledProgram::compile(&program).unwrap_or_else(|e| panic!("{path}: {e}"));
        let baseline = plan(&program, OptConfig::baseline()).expect("valid program");
        assert!(codegen::opencl(&program, &baseline)
            .expect("valid plan")
            .contains("__kernel void"));
    }
}

/// A one-kernel program whose kernel body is `body`. The kernel's block
/// is the first nesting level.
fn in_kernel(body: &str) -> String {
    format!(
        "program deep {{\n  field x = const(0);\n  kernel k all_nodes {{\n{body}\n  }}\n  driver fixed(k) iters 1;\n  output x;\n}}\n"
    )
}

/// `n` parentheses around a literal.
fn parens(n: usize) -> String {
    in_kernel(&format!("x[node] = {}1{};", "(".repeat(n), ")".repeat(n)))
}

/// An operator chain of `n` links, which builds a left-deep tree.
fn chain(n: usize) -> String {
    in_kernel(&format!("x[node] = 1{};", " + 1".repeat(n)))
}

/// `n` nested `if` blocks.
fn ifs(n: usize) -> String {
    in_kernel(&format!(
        "{}x[node] = 1;{}",
        "if (1 < 2) {\n".repeat(n),
        "}".repeat(n)
    ))
}

/// All three at once: `n` nested `if` blocks around a store of `n`
/// parentheses around a chain of `n` links.
fn mixed(n: usize) -> String {
    let chain = format!("1{}", " + 1".repeat(n));
    let store = format!("x[node] = {}{chain}{};", "(".repeat(n), ")".repeat(n));
    in_kernel(&format!(
        "{}{store}{}",
        "if (1 < 2) {\n".repeat(n),
        "}".repeat(n)
    ))
}

#[test]
fn deeply_nested_source_is_an_error_not_a_stack_overflow() {
    for (what, src) in [
        ("10,000 parentheses", parens(10_000)),
        ("a 100,000-link chain", chain(100_000)),
        ("30,000 nested ifs", ifs(30_000)),
    ] {
        let err = parse(&src).expect_err(what);
        assert_position_in_source(what, &src, err.line, err.col);
        assert!(
            err.message
                .contains(&format!("nested deeper than {MAX_DEPTH}")),
            "{what}: {err}"
        );
    }
}

/// Programs at the bound run wherever the study compiles them: on a pool
/// worker, whose stack is the default 2 MiB.
#[test]
fn programs_at_the_nesting_bound_run_on_a_2_mib_stack() {
    let deepest = MAX_DEPTH - 1; // the kernel's block is one level
    let shapes = [
        ("parens", parens(deepest), parens(deepest + 1)),
        ("chain", chain(deepest), chain(deepest + 1)),
        ("ifs", ifs(deepest), ifs(deepest + 1)),
        ("mixed", mixed(deepest / 3), mixed(deepest / 3 + 1)),
    ];
    for (what, at_bound, past_bound) in shapes {
        let err = parse(&past_bound).expect_err(what);
        assert!(err.message.contains("nested deeper"), "{what}: {err}");
        let ran = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || drive(what, &at_bound, &tiny_graph()))
            .expect("spawn")
            .join()
            .unwrap_or_else(|_| panic!("{what} at the bound panicked"));
        assert!(ran, "{what} at the bound must parse, compile and run");
    }
}

#[test]
fn a_kernel_with_65537_locals_runs_identically_on_both_tiers() {
    let mut src = String::from("program many {\n  field x = const(0);\n  kernel k all_nodes {\n");
    src.push_str("    let t0 = id(node);\n");
    for i in 1..=65_536 {
        let _ = writeln!(src, "    let t{i} = t{} + 1;", i - 1);
    }
    src.push_str("    x[node] = t65536;\n  }\n  driver fixed(k) iters 2;\n  output x;\n}\n");
    let program = parse(&src).expect("parses");
    assert_eq!(program.kernels[0].locals, 65_537);
    let graph = tiny_graph();
    let compiled = CompiledProgram::compile(&program).expect("compiles");
    let (ast, native) = (run_ast(&program, &graph), run_native(&compiled, &graph));
    assert_same("65537 locals", &ast, &native);
    let out = ast.0.expect("runs");
    assert_eq!(out.output(&program)[4], 4.0 + 65_536.0);
}
