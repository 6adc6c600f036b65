//! The DSL's textual front end: a tokenizer and recursive-descent parser
//! for the surface syntax emitted by [`crate::printer::to_source`], in
//! which the built-in programs (`crates/irgl/programs/*.irgl`) are
//! written.
//!
//! ```text
//! program bfs_wl {
//!   field level = source_else(inf);
//!
//!   kernel expand worklist {
//!     let next = level[node] + 1;
//!     for edge {
//!       if (next < level[nbr]) {
//!         atomic_min(level[nbr], next);
//!         push(nbr);
//!       }
//!     }
//!   }
//!
//!   driver worklist_loop(expand) from source max 1000000;
//!   output level;
//! }
//! ```
//!
//! Nesting is bounded: a block, parenthesis, operand or operator chain
//! deeper than [`MAX_DEPTH`] is a [`ParseError`], so no input can
//! overflow the stack of the parser or of the passes that walk the tree
//! it builds.

use std::collections::HashMap;
use std::fmt;

use crate::ast::{
    BinOp, Domain, Driver, Expr, FieldDecl, FieldInit, GlobalDecl, Kernel, Program, Ref, Stmt,
    UnaryOp, WorklistInit,
};

/// A syntax error with its source position (1-based line and column).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

/// How deeply blocks and expressions may nest. Each block, parenthesis,
/// unary operator and call argument counts one level, and so does each
/// link of an operator chain such as `a + b + c`, which builds a
/// left-deep tree.
pub const MAX_DEPTH: usize = 256;

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Num(f64),
    Punct(&'static str),
}

#[derive(Debug, Clone)]
struct Token {
    tok: Tok,
    line: usize,
    col: usize,
}

/// Punctuation, two-character tokens first so that the longest match wins.
const PUNCT: [&str; 20] = [
    "==", "!=", "<=", "&&", "||", "{", "}", "(", ")", "[", "]", ",", ";", "=", "<", "+", "-", "*",
    "/", "!",
];

fn tokenize(src: &str) -> Result<Vec<Token>, ParseError> {
    let mut toks = Vec::new();
    let (mut line, mut col) = (1usize, 1usize);
    let mut rest = src;
    while let Some(c) = rest.chars().next() {
        let end = |word: fn(char) -> bool| rest.find(|c| !word(c)).unwrap_or(rest.len());
        let (len, tok) = if c.is_whitespace() {
            (c.len_utf8(), None)
        } else if rest.starts_with("//") {
            (rest.find('\n').unwrap_or(rest.len()), None)
        } else if c.is_ascii_alphabetic() || c == '_' {
            let len = end(|c| c.is_ascii_alphanumeric() || c == '_');
            (len, Some(Tok::Ident(rest[..len].to_owned())))
        } else if c.is_ascii_digit() {
            let len = end(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E'));
            let text = &rest[..len];
            let value = text.parse().map_err(|_| ParseError {
                line,
                col,
                message: format!("bad number `{text}`"),
            })?;
            (len, Some(Tok::Num(value)))
        } else if let Some(p) = PUNCT.into_iter().find(|p| rest.starts_with(p)) {
            (p.len(), Some(Tok::Punct(p)))
        } else {
            return Err(ParseError {
                line,
                col,
                message: format!("unexpected character `{c}`"),
            });
        };
        toks.extend(tok.map(|tok| Token { tok, line, col }));
        for c in rest[..len].chars() {
            if c == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        rest = &rest[len..];
    }
    Ok(toks)
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    fields: HashMap<String, usize>,
    globals: HashMap<String, usize>,
    kernels: HashMap<String, usize>,
    locals: HashMap<String, usize>,
    /// Nesting of the construct being parsed (see [`MAX_DEPTH`]).
    depth: usize,
}

/// Parses DSL source text into a validated-shape [`Program`] (run
/// [`crate::validate::validate`] afterwards for the semantic checks).
///
/// # Errors
///
/// Returns a [`ParseError`] with a source position on any syntax error,
/// reference to an undeclared name, or nesting deeper than
/// [`MAX_DEPTH`].
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let toks = tokenize(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        fields: HashMap::new(),
        globals: HashMap::new(),
        kernels: HashMap::new(),
        locals: HashMap::new(),
        depth: 0,
    };
    p.program()
}

impl Parser {
    /// An error at token `pos` (the last token when `pos` is past the
    /// end).
    fn err_at(&self, pos: usize, message: impl Into<String>) -> ParseError {
        let (line, col) = self
            .toks
            .get(pos)
            .or_else(|| self.toks.last())
            .map(|t| (t.line, t.col))
            .unwrap_or((1, 1));
        ParseError {
            line,
            col,
            message: message.into(),
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        self.err_at(self.pos, message)
    }

    fn too_deep(&self, pos: usize) -> ParseError {
        self.err_at(pos, format!("nested deeper than {MAX_DEPTH} levels"))
    }

    /// Runs `parse` one nesting level deeper. Called just after the token
    /// that opens the level, where it fails if that is deeper than
    /// [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.too_deep(self.pos - 1));
        }
        self.depth += 1;
        let result = parse(self);
        self.depth -= 1;
        result
    }

    /// `lhs op rhs`, where `*height` is the height of `lhs` and becomes
    /// that of the result. Fails at the operator token `at` when a leaf
    /// of the result would sit deeper than [`MAX_DEPTH`].
    fn join(
        &self,
        at: usize,
        op: BinOp,
        lhs: Expr,
        rhs: Expr,
        height: &mut usize,
    ) -> Result<Expr, ParseError> {
        *height = (*height).max(expr_height(&rhs)) + 1;
        if self.depth + *height > MAX_DEPTH {
            return Err(self.too_deep(at));
        }
        Ok(Expr::bin(op, lhs, rhs))
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn eat_punct_inner(&mut self, p: &str) -> bool {
        if let Some(Tok::Punct(q)) = self.peek() {
            if *q == p {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        if self.eat_punct_inner(p) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{p}`")))
        }
    }

    fn eat_ident(&mut self, word: &str) -> bool {
        if let Some(Tok::Ident(w)) = self.peek() {
            if w == word {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_ident_word(&mut self, word: &str) -> Result<(), ParseError> {
        if self.eat_ident(word) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().cloned() {
            Some(Tok::Ident(w)) => {
                self.pos += 1;
                Ok(w)
            }
            _ => Err(self.err("expected an identifier")),
        }
    }

    fn number(&mut self) -> Result<f64, ParseError> {
        let neg = self.eat_punct_inner("-");
        if self.eat_ident("inf") {
            return Ok(if neg {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            });
        }
        match self.peek().cloned() {
            Some(Tok::Num(v)) => {
                self.pos += 1;
                Ok(if neg { -v } else { v })
            }
            _ => Err(self.err("expected a number")),
        }
    }

    fn integer(&mut self) -> Result<u32, ParseError> {
        let v = self.number()?;
        if v.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(&v) {
            Ok(v as u32)
        } else {
            Err(self.err(format!("expected a non-negative integer, got {v}")))
        }
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        self.expect_ident_word("program")?;
        let name = self.ident()?;
        self.expect_punct("{")?;
        let mut fields = Vec::new();
        let mut globals = Vec::new();
        loop {
            if self.eat_ident("field") {
                let fname = self.ident()?;
                self.expect_punct("=")?;
                let init = self.field_init()?;
                self.expect_punct(";")?;
                self.fields.insert(fname.clone(), fields.len());
                fields.push(FieldDecl { name: fname, init });
            } else if self.eat_ident("global") {
                let gname = self.ident()?;
                self.expect_punct("=")?;
                let init = self.number()?;
                self.expect_punct(";")?;
                self.globals.insert(gname.clone(), globals.len());
                globals.push(GlobalDecl { name: gname, init });
            } else {
                break;
            }
        }
        let mut kernels = Vec::new();
        while self.eat_ident("kernel") {
            let kname = self.ident()?;
            let domain = if self.eat_ident("all_nodes") {
                Domain::AllNodes
            } else if self.eat_ident("worklist") {
                Domain::Worklist
            } else {
                return Err(self.err("expected `all_nodes` or `worklist`"));
            };
            self.locals.clear();
            let body = self.block()?;
            self.kernels.insert(kname.clone(), kernels.len());
            kernels.push(Kernel {
                name: kname,
                domain,
                locals: self.locals.len(),
                body,
            });
        }
        self.expect_ident_word("driver")?;
        let driver = self.driver()?;
        self.expect_ident_word("output")?;
        let out_name = self.ident()?;
        let output = *self
            .fields
            .get(&out_name)
            .ok_or_else(|| self.err(format!("unknown output field `{out_name}`")))?;
        self.expect_punct(";")?;
        self.expect_punct("}")?;
        if self.pos != self.toks.len() {
            return Err(self.err("trailing input after program"));
        }
        Ok(Program {
            name,
            fields,
            globals,
            kernels,
            driver,
            output,
        })
    }

    fn field_init(&mut self) -> Result<FieldInit, ParseError> {
        if self.eat_ident("const") {
            self.expect_punct("(")?;
            let v = self.number()?;
            self.expect_punct(")")?;
            Ok(FieldInit::Const(v))
        } else if self.eat_ident("node_id") {
            Ok(FieldInit::NodeId)
        } else if self.eat_ident("inf") {
            Ok(FieldInit::Infinity)
        } else if self.eat_ident("one_over_n") {
            Ok(FieldInit::OneOverN)
        } else if self.eat_ident("source_else") {
            self.expect_punct("(")?;
            let v = self.number()?;
            self.expect_punct(")")?;
            Ok(FieldInit::SourceElse(v))
        } else {
            Err(self.err("expected a field initialiser"))
        }
    }

    fn driver(&mut self) -> Result<Driver, ParseError> {
        if self.eat_ident("until_fixpoint") {
            let kernels = self.kernel_list()?;
            self.expect_ident_word("max")?;
            let max_iters = self.integer()?;
            self.expect_punct(";")?;
            Ok(Driver::UntilFixpoint { kernels, max_iters })
        } else if self.eat_ident("worklist_loop") {
            let kernels = self.kernel_list()?;
            if kernels.len() != 1 {
                return Err(self.err("worklist_loop takes exactly one kernel"));
            }
            self.expect_ident_word("from")?;
            let init = if self.eat_ident("source") {
                WorklistInit::Source
            } else if self.eat_ident("all_nodes") {
                WorklistInit::AllNodes
            } else {
                return Err(self.err("expected `source` or `all_nodes`"));
            };
            self.expect_ident_word("max")?;
            let max_iters = self.integer()?;
            self.expect_punct(";")?;
            Ok(Driver::WorklistLoop {
                init,
                kernel: kernels[0],
                max_iters,
            })
        } else if self.eat_ident("fixed") {
            let kernels = self.kernel_list()?;
            self.expect_ident_word("iters")?;
            let iters = self.integer()?;
            self.expect_punct(";")?;
            Ok(Driver::Fixed { kernels, iters })
        } else {
            Err(self.err("expected `until_fixpoint`, `worklist_loop`, or `fixed`"))
        }
    }

    fn kernel_list(&mut self) -> Result<Vec<usize>, ParseError> {
        self.expect_punct("(")?;
        let mut ids = Vec::new();
        loop {
            let name = self.ident()?;
            let id = *self
                .kernels
                .get(&name)
                .ok_or_else(|| self.err(format!("unknown kernel `{name}`")))?;
            ids.push(id);
            if !self.eat_punct_inner(",") {
                break;
            }
        }
        self.expect_punct(")")?;
        Ok(ids)
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect_punct("{")?;
        self.nested(|p| {
            let mut stmts = Vec::new();
            while !p.eat_punct_inner("}") {
                stmts.push(p.stmt()?);
            }
            Ok(stmts)
        })
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        if self.eat_ident("let") {
            let name = self.ident()?;
            self.expect_punct("=")?;
            let value = self.expr()?;
            self.expect_punct(";")?;
            let next = self.locals.len();
            let id = *self.locals.entry(name).or_insert(next);
            return Ok(Stmt::Let(id, value));
        }
        if self.eat_ident("if") {
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            let then = self.block()?;
            let els = if self.eat_ident("else") {
                self.block()?
            } else {
                Vec::new()
            };
            return Ok(Stmt::If { cond, then, els });
        }
        if self.eat_ident("for") {
            self.expect_ident_word("edge")?;
            let body = self.block()?;
            return Ok(Stmt::ForEachEdge(body));
        }
        if self.eat_ident("push") {
            self.expect_punct("(")?;
            let target = self.reference()?;
            self.expect_punct(")")?;
            self.expect_punct(";")?;
            return Ok(Stmt::Push(target));
        }
        if self.eat_ident("mark_changed") {
            self.expect_punct(";")?;
            return Ok(Stmt::MarkChanged);
        }
        if self.eat_ident("atomic_min") {
            let (field, target, value) = self.atomic_args()?;
            return Ok(Stmt::AtomicMin {
                field,
                target,
                value,
            });
        }
        if self.eat_ident("atomic_add") {
            let (field, target, value) = self.atomic_args()?;
            return Ok(Stmt::AtomicAdd {
                field,
                target,
                value,
            });
        }
        if self.eat_ident("global_add") {
            self.expect_punct("(")?;
            let name = self.ident()?;
            let global = *self
                .globals
                .get(&name)
                .ok_or_else(|| self.err(format!("unknown global `{name}`")))?;
            self.expect_punct(",")?;
            let value = self.expr()?;
            self.expect_punct(")")?;
            self.expect_punct(";")?;
            return Ok(Stmt::GlobalAdd(global, value));
        }
        // Fallback: a store `field[ref] = expr;`.
        let name = self.ident()?;
        let field = *self
            .fields
            .get(&name)
            .ok_or_else(|| self.err(format!("unknown field `{name}`")))?;
        self.expect_punct("[")?;
        let target = self.reference()?;
        self.expect_punct("]")?;
        self.expect_punct("=")?;
        let value = self.expr()?;
        self.expect_punct(";")?;
        Ok(Stmt::Store {
            field,
            target,
            value,
        })
    }

    fn atomic_args(&mut self) -> Result<(usize, Ref, Expr), ParseError> {
        self.expect_punct("(")?;
        let name = self.ident()?;
        let field = *self
            .fields
            .get(&name)
            .ok_or_else(|| self.err(format!("unknown field `{name}`")))?;
        self.expect_punct("[")?;
        let target = self.reference()?;
        self.expect_punct("]")?;
        self.expect_punct(",")?;
        let value = self.expr()?;
        self.expect_punct(")")?;
        self.expect_punct(";")?;
        Ok((field, target, value))
    }

    fn reference(&mut self) -> Result<Ref, ParseError> {
        if self.eat_ident("node") {
            Ok(Ref::Node)
        } else if self.eat_ident("nbr") {
            Ok(Ref::Nbr)
        } else {
            Err(self.err("expected `node` or `nbr`"))
        }
    }

    // Precedence climbing: || < && < comparison < additive < multiplicative.
    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.chain(&[("||", BinOp::Or)], Self::and_expr)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        self.chain(&[("&&", BinOp::And)], Self::cmp_expr)
    }

    /// One comparison at most: `a < b < c` is a syntax error.
    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.add_expr()?;
        for (punct, op) in [
            ("<=", BinOp::Le),
            ("==", BinOp::Eq),
            ("!=", BinOp::Ne),
            ("<", BinOp::Lt),
        ] {
            let at = self.pos;
            if self.eat_punct_inner(punct) {
                let mut height = expr_height(&lhs);
                let rhs = self.add_expr()?;
                return self.join(at, op, lhs, rhs, &mut height);
            }
        }
        Ok(lhs)
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        self.chain(&[("+", BinOp::Add), ("-", BinOp::Sub)], Self::mul_expr)
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        self.chain(&[("*", BinOp::Mul), ("/", BinOp::Div)], Self::unary_expr)
    }

    /// A left-associative chain `operand (op operand)*` over `ops`.
    fn chain(
        &mut self,
        ops: &[(&str, BinOp)],
        operand: fn(&mut Self) -> Result<Expr, ParseError>,
    ) -> Result<Expr, ParseError> {
        let mut lhs = operand(self)?;
        let mut height = expr_height(&lhs);
        'link: loop {
            for &(punct, op) in ops {
                let at = self.pos;
                if self.eat_punct_inner(punct) {
                    let rhs = operand(self)?;
                    lhs = self.join(at, op, lhs, rhs, &mut height)?;
                    continue 'link;
                }
            }
            return Ok(lhs);
        }
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat_punct_inner("!") {
            let inner = self.nested(Self::unary_expr)?;
            return Ok(Expr::Unary(UnaryOp::Not, Box::new(inner)));
        }
        if self.eat_punct_inner("-") {
            let inner = self.nested(Self::unary_expr)?;
            // Canonical form: fold negation of a literal into the literal
            // so `-1` parses as the constant -1.
            if let Expr::Const(c) = inner {
                return Ok(Expr::Const(-c));
            }
            return Ok(Expr::Unary(UnaryOp::Neg, Box::new(inner)));
        }
        self.primary()
    }

    fn two_args(&mut self) -> Result<(Expr, Expr), ParseError> {
        self.expect_punct("(")?;
        let a = self.nested(Self::expr)?;
        self.expect_punct(",")?;
        let b = self.nested(Self::expr)?;
        self.expect_punct(")")?;
        Ok((a, b))
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        if self.eat_punct_inner("(") {
            let e = self.nested(Self::expr)?;
            self.expect_punct(")")?;
            return Ok(e);
        }
        if let Some(Tok::Num(v)) = self.peek().cloned() {
            self.pos += 1;
            return Ok(Expr::Const(v));
        }
        if self.eat_ident("inf") {
            return Ok(Expr::Const(f64::INFINITY));
        }
        if self.eat_ident("iter") {
            return Ok(Expr::Iter);
        }
        if self.eat_ident("num_nodes") {
            return Ok(Expr::NumNodes);
        }
        if self.eat_ident("weight") {
            return Ok(Expr::EdgeWeight);
        }
        if self.eat_ident("id") {
            self.expect_punct("(")?;
            let r = self.reference()?;
            self.expect_punct(")")?;
            return Ok(Expr::NodeId(r));
        }
        if self.eat_ident("degree") {
            self.expect_punct("(")?;
            let r = self.reference()?;
            self.expect_punct(")")?;
            return Ok(Expr::Degree(r));
        }
        if self.eat_ident("floor") {
            self.expect_punct("(")?;
            let e = self.nested(Self::expr)?;
            self.expect_punct(")")?;
            return Ok(Expr::Unary(UnaryOp::Floor, Box::new(e)));
        }
        if self.eat_ident("min") {
            let (a, b) = self.two_args()?;
            return Ok(Expr::bin(BinOp::Min, a, b));
        }
        if self.eat_ident("max") {
            let (a, b) = self.two_args()?;
            return Ok(Expr::bin(BinOp::Max, a, b));
        }
        if self.eat_ident("hash") {
            let (a, b) = self.two_args()?;
            return Ok(Expr::Hash(Box::new(a), Box::new(b)));
        }
        if self.eat_ident("global") {
            self.expect_punct("(")?;
            let name = self.ident()?;
            let id = *self
                .globals
                .get(&name)
                .ok_or_else(|| self.err(format!("unknown global `{name}`")))?;
            self.expect_punct(")")?;
            return Ok(Expr::Global(id));
        }
        // Identifier: a field access `name[ref]` or a local.
        let name = self.ident()?;
        if self.eat_punct_inner("[") {
            let field = *self
                .fields
                .get(&name)
                .ok_or_else(|| self.err(format!("unknown field `{name}`")))?;
            let r = self.reference()?;
            self.expect_punct("]")?;
            return Ok(Expr::Field(field, r));
        }
        if let Some(&id) = self.locals.get(&name) {
            return Ok(Expr::Local(id));
        }
        Err(self.err(format!("unknown name `{name}`")))
    }
}

/// The number of levels below `e`: 0 for a leaf. The parser bounds it,
/// so the recursion here is shallow.
fn expr_height(e: &Expr) -> usize {
    match e {
        Expr::Unary(_, a) => 1 + expr_height(a),
        Expr::Binary(_, a, b) | Expr::Hash(a, b) => 1 + expr_height(a).max(expr_height(b)),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::to_source;
    use crate::programs;
    use crate::validate::validate;

    #[test]
    fn round_trips_every_builtin_program() {
        for p in programs::all() {
            let text = to_source(&p);
            let parsed = parse(&text).unwrap_or_else(|e| panic!("{}: {e}\n{text}", p.name));
            assert_eq!(parsed, p, "{}", p.name);
        }
    }

    #[test]
    fn parses_handwritten_source() {
        let src = r#"
            // shortest hops from node 0
            program hops {
              field level = source_else(inf);

              kernel expand worklist {
                let next = level[node] + 1;
                for edge {
                  if (next < level[nbr]) {
                    atomic_min(level[nbr], next);
                    push(nbr);
                  }
                }
              }

              driver worklist_loop(expand) from source max 100000;
              output level;
            }
        "#;
        let program = parse(src).expect("parses");
        assert_eq!(validate(&program), Ok(()));
        assert_eq!(program.name, "hops");
        assert_eq!(program.kernels.len(), 1);
        assert_eq!(program.kernels[0].locals, 1);
        // Executes correctly end to end.
        let g = gpp_graph::generators::path(6).unwrap();
        let mut rec = gpp_sim::trace::Recorder::new();
        let result = crate::interp::execute(&program, &g, &mut rec).expect("runs");
        assert_eq!(result.output(&program), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn operator_precedence_is_conventional() {
        let src = "program p { field x = const(0);\n kernel k all_nodes { x[node] = 1 + 2 * 3; }\n driver fixed(k) iters 1; output x; }";
        let program = parse(src).expect("parses");
        let Stmt::Store { value, .. } = &program.kernels[0].body[0] else {
            panic!("expected a store");
        };
        // 1 + (2 * 3) = 7 when evaluated.
        let g = gpp_graph::generators::path(1).unwrap();
        let mut rec = gpp_sim::trace::Recorder::new();
        let result = crate::interp::execute(&program, &g, &mut rec).expect("runs");
        assert_eq!(result.output(&program)[0], 7.0);
        assert!(matches!(value, Expr::Binary(BinOp::Add, _, _)));
    }

    #[test]
    fn reports_positions_in_errors() {
        let err = parse("program p {\n  field x = wat;\n}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("initialiser"), "{err}");
    }

    #[test]
    fn rejects_unknown_names() {
        let src = "program p { field x = const(0);\n kernel k all_nodes { y[node] = 1; }\n driver fixed(k) iters 1; output x; }";
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("unknown field `y`"), "{err}");
        let src = "program p { field x = const(0);\n kernel k all_nodes { }\n driver fixed(zz) iters 1; output x; }";
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("unknown kernel `zz`"), "{err}");
    }

    #[test]
    fn rejects_trailing_garbage() {
        let src = "program p { field x = const(0); kernel k all_nodes { } driver fixed(k) iters 1; output x; } extra";
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("trailing"), "{err}");
    }

    #[test]
    fn comments_and_whitespace_are_skipped() {
        let src = "// header\nprogram p { // fields\n field x = const(3); kernel k all_nodes { } driver fixed(k) iters 1; output x; }";
        assert!(parse(src).is_ok());
    }

    #[test]
    fn negative_and_infinite_numbers_in_inits() {
        let src = "program p { field x = const(-2.5); field y = source_else(inf); kernel k all_nodes { } driver fixed(k) iters 1; output x; }";
        let program = parse(src).expect("parses");
        assert_eq!(program.fields[0].init, FieldInit::Const(-2.5));
        assert_eq!(program.fields[1].init, FieldInit::SourceElse(f64::INFINITY));
    }
}
