//! Recursive-descent parser for the C subset plus OpenACC/OpenMP pragmas.

use crate::ast::*;
use crate::directive::*;
use crate::lexer::{Lexer, Token, TokenKind};

/// Parse error with a message and the offending source line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub message: String,
    pub line: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

type PResult<T> = Result<T, ParseError>;

/// Deepest nesting a source may have: statements inside statements plus the
/// height of the expression tree under them, every link of an `a + a + …`
/// chain included. Printer, fingerprint, SSA builder and code generator all
/// recurse down the parser's tree, so this one bound keeps a hostile source
/// off the end of a 2 MiB worker stack, in debug builds too.
const MAX_NESTING: usize = 128;

/// Parse a full translation unit.
pub fn parse_program(src: &str) -> PResult<Program> {
    Parser::new(src).program()
}

/// Parse a single expression (used by tests and the rule DSL).
pub fn parse_expr(src: &str) -> PResult<Expr> {
    let mut p = Parser::new(src);
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The current token. The parser looks one token ahead and never back,
    /// so it pulls tokens from the lexer as it consumes them.
    tok: Token<'a>,
    /// Parser recursion (statements, sub-expressions) around the current token.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Parser<'a> {
        let mut lexer = Lexer::new(src);
        let tok = lexer.next_token();
        Parser { lexer, tok, depth: 0 }
    }

    fn peek(&self) -> &TokenKind<'a> {
        &self.tok.kind
    }

    fn line(&self) -> usize {
        self.tok.line
    }

    /// Move the current token out and pull the next (at the end of input
    /// the lexer keeps answering `Eof`).
    fn bump(&mut self) -> TokenKind<'a> {
        let next = self.lexer.next_token();
        std::mem::replace(&mut self.tok, next).kind
    }

    fn err<T>(&self, msg: impl Into<String>) -> PResult<T> {
        Err(ParseError { message: msg.into(), line: self.line() })
    }

    /// Height of a node over children at most `below` high; the one check
    /// of the [`MAX_NESTING`] budget, charged with the levels above it.
    fn over(&self, below: usize) -> PResult<usize> {
        if self.depth + below >= MAX_NESTING {
            return self.err(format!("nesting deeper than {MAX_NESTING}"));
        }
        Ok(below + 1)
    }

    /// Every recursive call of the parser goes through here, so its own
    /// stack is bounded by the same budget as the tree it builds.
    fn nested<T>(&mut self, parse: fn(&mut Self) -> PResult<T>) -> PResult<T> {
        self.over(0)?;
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), TokenKind::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> PResult<()> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            self.err(format!("expected `{p}`, found {}", self.peek()))
        }
    }

    fn eat_ident(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), TokenKind::Ident(s) if *s == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// The next identifier, borrowed from the source.
    fn expect_ident(&mut self) -> PResult<&'a str> {
        match self.bump() {
            TokenKind::Ident(s) => Ok(s),
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    fn expect_eof(&mut self) -> PResult<()> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            self.err(format!("trailing input: {}", self.peek()))
        }
    }

    fn peek_type(&self) -> Option<Type> {
        match self.peek() {
            TokenKind::Ident(s) => match *s {
                "int" | "long" | "unsigned" | "size_t" => Some(Type::Int),
                "float" => Some(Type::Float),
                "double" => Some(Type::Double),
                "void" => Some(Type::Void),
                _ => None,
            },
            _ => None,
        }
    }

    fn parse_type(&mut self) -> PResult<Type> {
        let ty = self
            .peek_type()
            .ok_or_else(|| ParseError { message: "expected type".into(), line: self.line() })?;
        self.bump();
        // allow `long long`, `unsigned int`
        while matches!(self.peek(), TokenKind::Ident("long" | "int")) && ty == Type::Int {
            self.bump();
        }
        Ok(ty)
    }

    // ---------------------------------------------------------- program

    fn program(&mut self) -> PResult<Program> {
        let mut functions = Vec::new();
        while !matches!(self.peek(), TokenKind::Eof) {
            functions.push(self.function()?);
        }
        Ok(Program { functions })
    }

    fn function(&mut self) -> PResult<Function> {
        let ret = self.parse_type()?;
        let name = self.expect_ident()?.to_string();
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.eat_punct(")") {
            loop {
                params.push(self.param()?);
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        let body = self.block()?;
        Ok(Function { name, ret, params, body })
    }

    fn param(&mut self) -> PResult<Param> {
        let ty = self.parse_type()?;
        // optional `*` (pointer parameters treated as 1-D arrays)
        let is_ptr = self.eat_punct("*");
        let name = self.expect_ident()?.to_string();
        let mut dims = Vec::new();
        while self.eat_punct("[") {
            match self.bump() {
                TokenKind::Int(n) => dims.push(n as usize),
                TokenKind::Punct("]") => {
                    // unsized leading dimension `a[]` — use 0 as a marker
                    dims.push(0);
                    continue;
                }
                other => return self.err(format!("expected array dimension, found {other}")),
            }
            self.expect_punct("]")?;
        }
        if is_ptr && dims.is_empty() {
            dims.push(0);
        }
        Ok(Param { name, ty, dims })
    }

    // ---------------------------------------------------------- statements

    fn block(&mut self) -> PResult<Block> {
        self.expect_punct("{")?;
        let mut stmts = Vec::new();
        while !self.eat_punct("}") {
            if matches!(self.peek(), TokenKind::Eof) {
                return self.err("unterminated block");
            }
            stmts.push(self.nested(Self::stmt)?);
        }
        Ok(Block { stmts })
    }

    /// Parse either a braced block or a single statement as a block.
    fn block_or_stmt(&mut self) -> PResult<Block> {
        if matches!(self.peek(), TokenKind::Punct("{")) {
            self.block()
        } else {
            Ok(Block { stmts: vec![self.nested(Self::stmt)?] })
        }
    }

    fn stmt(&mut self) -> PResult<Stmt> {
        // pragma: attach to the following `for`
        if let TokenKind::Pragma(_) = self.peek() {
            let text = match self.bump() {
                TokenKind::Pragma(t) => t,
                _ => unreachable!(),
            };
            let directive =
                parse_directive(&text).map_err(|m| ParseError { message: m, line: self.line() })?;
            // skip any stacked pragma (e.g. commented OpenMP equivalent appears
            // as a comment and is already gone; stacked pragmas override)
            let stmt = self.nested(Self::stmt)?;
            return match stmt {
                Stmt::For(mut l) => {
                    l.directive = Some(directive);
                    Ok(Stmt::For(l))
                }
                other => {
                    // Pragma over a non-loop statement: keep the statement and
                    // drop the directive (data pragmas are out of scope).
                    Ok(other)
                }
            };
        }

        if self.eat_ident("if") {
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            let then = self.block_or_stmt()?;
            let els = if self.eat_ident("else") { Some(self.block_or_stmt()?) } else { None };
            return Ok(Stmt::If { cond, then, els });
        }

        if self.eat_ident("while") {
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            let body = self.block_or_stmt()?;
            return Ok(Stmt::While { cond, body });
        }

        if self.eat_ident("for") {
            return self.for_loop();
        }

        if self.eat_ident("return") {
            if self.eat_punct(";") {
                return Ok(Stmt::Return(None));
            }
            let e = self.expr()?;
            self.expect_punct(";")?;
            return Ok(Stmt::Return(Some(e)));
        }

        if matches!(self.peek(), TokenKind::Punct("{")) {
            return Ok(Stmt::Block(self.block()?));
        }

        // declaration?
        if self.peek_type().is_some() {
            let ty = self.parse_type()?;
            let name = self.expect_ident()?.to_string();
            let mut decls = vec![];
            let init = if self.eat_punct("=") { Some(self.expr()?) } else { None };
            decls.push(Stmt::Decl { ty: ty.clone(), name, init });
            // comma-separated declarators: `double a, b = 1, c;`
            while self.eat_punct(",") {
                let name = self.expect_ident()?.to_string();
                let init = if self.eat_punct("=") { Some(self.expr()?) } else { None };
                decls.push(Stmt::Decl { ty: ty.clone(), name, init });
            }
            self.expect_punct(";")?;
            if decls.len() == 1 {
                return Ok(decls.pop().unwrap());
            }
            return Ok(Stmt::Block(Block { stmts: decls }));
        }

        // assignment or expression statement
        let stmt = self.assign_or_expr()?;
        self.expect_punct(";")?;
        Ok(stmt)
    }

    fn assign_or_expr(&mut self) -> PResult<Stmt> {
        let e = self.expr()?;
        let op = match self.peek() {
            TokenKind::Punct("=") => Some(AssignOp::Assign),
            TokenKind::Punct("+=") => Some(AssignOp::AddAssign),
            TokenKind::Punct("-=") => Some(AssignOp::SubAssign),
            TokenKind::Punct("*=") => Some(AssignOp::MulAssign),
            TokenKind::Punct("/=") => Some(AssignOp::DivAssign),
            TokenKind::Punct("++") => {
                self.bump();
                let lhs = self.expr_to_lvalue(e)?;
                let rhs = Expr::bin(BinOp::Add, lvalue_to_expr(&lhs), Expr::Int(1));
                return Ok(Stmt::Assign { lhs, op: AssignOp::Assign, rhs });
            }
            TokenKind::Punct("--") => {
                self.bump();
                let lhs = self.expr_to_lvalue(e)?;
                let rhs = Expr::bin(BinOp::Sub, lvalue_to_expr(&lhs), Expr::Int(1));
                return Ok(Stmt::Assign { lhs, op: AssignOp::Assign, rhs });
            }
            _ => None,
        };
        match op {
            Some(op) => {
                self.bump();
                let lhs = self.expr_to_lvalue(e)?;
                let rhs = self.expr()?;
                Ok(Stmt::Assign { lhs, op, rhs })
            }
            None => Ok(Stmt::Expr(e)),
        }
    }

    fn expr_to_lvalue(&self, e: Expr) -> PResult<LValue> {
        match e {
            Expr::Var(n) => Ok(LValue::Var(n)),
            Expr::Index { base, indices } => Ok(LValue::Index { base, indices }),
            _ => self.err("invalid assignment target"),
        }
    }

    fn for_loop(&mut self) -> PResult<Stmt> {
        self.expect_punct("(")?;
        let declares_var = self.peek_type().is_some();
        if declares_var {
            self.parse_type()?;
        }
        let var = self.expect_ident()?;
        self.expect_punct("=")?;
        let init = self.expr()?;
        self.expect_punct(";")?;
        let cond = self.expr()?;
        self.expect_punct(";")?;
        // step forms: i++, i--, i += k, i = i + k
        let step = self.for_step(var)?;
        self.expect_punct(")")?;
        let body = self.block_or_stmt()?;
        let var = var.to_string();
        Ok(Stmt::For(ForLoop { var, declares_var, init, cond, step, body, directive: None }))
    }

    fn for_step(&mut self, var: &str) -> PResult<Expr> {
        let name = self.expect_ident()?;
        if name != var {
            return self.err(format!(
                "for-loop step must update induction variable `{var}`, found `{name}`"
            ));
        }
        match self.bump() {
            TokenKind::Punct("++") => Ok(Expr::Int(1)),
            TokenKind::Punct("--") => Ok(Expr::Int(-1)),
            TokenKind::Punct("+=") => self.expr(),
            TokenKind::Punct("-=") => Ok(Expr::neg(self.expr()?)),
            TokenKind::Punct("=") => {
                // i = i + k  or  i = k + i
                let e = self.expr()?;
                match e {
                    Expr::Binary { op: BinOp::Add, lhs, rhs } => match (*lhs, *rhs) {
                        (Expr::Var(v), k) if v == var => Ok(k),
                        (k, Expr::Var(v)) if v == var => Ok(k),
                        _ => self.err("unsupported for-loop step"),
                    },
                    Expr::Binary { op: BinOp::Sub, lhs, rhs } => match (*lhs, *rhs) {
                        (Expr::Var(v), k) if v == var => Ok(Expr::neg(k)),
                        _ => self.err("unsupported for-loop step"),
                    },
                    _ => self.err("unsupported for-loop step"),
                }
            }
            other => self.err(format!("unsupported for-loop step: {other}")),
        }
    }

    // ---------------------------------------------------------- expressions

    fn expr(&mut self) -> PResult<Expr> {
        Ok(self.ternary()?.0)
    }

    /// This and the functions below return each tree with its height.
    fn ternary(&mut self) -> PResult<(Expr, usize)> {
        let (cond, hc) = self.binary(0)?;
        if self.eat_punct("?") {
            let (then, ht) = self.nested(Self::ternary)?;
            self.expect_punct(":")?;
            let (els, he) = self.nested(Self::ternary)?;
            let e = Expr::Ternary { cond: cond.into(), then: then.into(), els: els.into() };
            Ok((e, self.over(hc.max(ht).max(he))?))
        } else {
            Ok((cond, hc))
        }
    }

    fn bin_op(&self) -> Option<(BinOp, u8)> {
        // (operator, binding power) — higher binds tighter
        match self.peek() {
            TokenKind::Punct("||") => Some((BinOp::Or, 1)),
            TokenKind::Punct("&&") => Some((BinOp::And, 2)),
            TokenKind::Punct("==") => Some((BinOp::Eq, 3)),
            TokenKind::Punct("!=") => Some((BinOp::Ne, 3)),
            TokenKind::Punct("<") => Some((BinOp::Lt, 4)),
            TokenKind::Punct("<=") => Some((BinOp::Le, 4)),
            TokenKind::Punct(">") => Some((BinOp::Gt, 4)),
            TokenKind::Punct(">=") => Some((BinOp::Ge, 4)),
            TokenKind::Punct("+") => Some((BinOp::Add, 5)),
            TokenKind::Punct("-") => Some((BinOp::Sub, 5)),
            TokenKind::Punct("*") => Some((BinOp::Mul, 6)),
            TokenKind::Punct("/") => Some((BinOp::Div, 6)),
            TokenKind::Punct("%") => Some((BinOp::Mod, 6)),
            _ => None,
        }
    }

    fn binary(&mut self, min_bp: u8) -> PResult<(Expr, usize)> {
        let (mut lhs, mut h) = self.unary()?;
        while let Some((op, bp)) = self.bin_op() {
            if bp < min_bp {
                break;
            }
            self.bump();
            // `bp + 1` recursion is bounded by the precedence levels; a
            // chain grows left-deep here, one level per link
            let (rhs, hr) = self.binary(bp + 1)?;
            h = self.over(h.max(hr))?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok((lhs, h))
    }

    fn unary(&mut self) -> PResult<(Expr, usize)> {
        if self.eat_punct("+") {
            return self.nested(Self::unary);
        }
        let op = if self.eat_punct("-") {
            UnOp::Neg
        } else if self.eat_punct("!") {
            UnOp::Not
        } else {
            return self.postfix();
        };
        let (operand, h) = self.nested(Self::unary)?;
        Ok((Expr::Unary { op, operand: Box::new(operand) }, self.over(h)?))
    }

    fn postfix(&mut self) -> PResult<(Expr, usize)> {
        let (mut e, mut h) = self.primary()?;
        loop {
            if self.eat_punct("[") {
                let (idx, hi) = self.nested(Self::ternary)?;
                self.expect_punct("]")?;
                h = h.max(self.over(hi)?);
                e = match e {
                    Expr::Var(base) => Expr::Index { base, indices: vec![idx] },
                    Expr::Index { base, mut indices } => {
                        indices.push(idx);
                        Expr::Index { base, indices }
                    }
                    _ => return self.err("cannot index a non-array expression"),
                };
            } else {
                break;
            }
        }
        Ok((e, h))
    }

    fn primary(&mut self) -> PResult<(Expr, usize)> {
        let line = self.line();
        match self.bump() {
            TokenKind::Int(v) => Ok((Expr::Int(v), 1)),
            TokenKind::Float(v) => Ok((Expr::Float(v), 1)),
            TokenKind::Punct("(") => {
                // cast or parenthesized expression
                if let Some(ty) = self.peek_type() {
                    self.bump();
                    self.expect_punct(")")?;
                    let (inner, h) = self.nested(Self::unary)?;
                    return Ok((Expr::Cast { ty, expr: Box::new(inner) }, self.over(h)?));
                }
                let inner = self.nested(Self::ternary)?;
                self.expect_punct(")")?;
                Ok(inner)
            }
            TokenKind::Ident(name) => {
                let name = name.to_string();
                if self.eat_punct("(") {
                    let (mut args, mut h) = (Vec::new(), 0);
                    if !self.eat_punct(")") {
                        loop {
                            let (arg, ha) = self.nested(Self::ternary)?;
                            args.push(arg);
                            h = h.max(ha);
                            if self.eat_punct(")") {
                                break;
                            }
                            self.expect_punct(",")?;
                        }
                    }
                    Ok((Expr::Call { name, args }, self.over(h)?))
                } else {
                    Ok((Expr::Var(name), 1))
                }
            }
            other => Err(ParseError {
                message: format!("unexpected token in expression: {other}"),
                line,
            }),
        }
    }
}

fn lvalue_to_expr(lv: &LValue) -> Expr {
    match lv {
        LValue::Var(n) => Expr::Var(n.clone()),
        LValue::Index { base, indices } => {
            Expr::Index { base: base.clone(), indices: indices.clone() }
        }
    }
}

// ------------------------------------------------------------- directives

/// Parse directive text (the part after `#pragma `).
pub(crate) fn parse_directive(text: &str) -> Result<Directive, String> {
    let mut words = DirectiveLexer::new(text);
    let model = match words.next_word() {
        Some("acc") => Model::OpenAcc,
        Some("omp") => Model::OpenMp,
        other => return Err(format!("unknown pragma model: {other:?}")),
    };
    let kind = match model {
        Model::OpenAcc => match words.next_word() {
            Some("parallel") => {
                words.eat_word("loop");
                DirectiveKind::AccParallelLoop
            }
            Some("kernels") => {
                words.eat_word("loop");
                DirectiveKind::AccKernelsLoop
            }
            Some("loop") => DirectiveKind::AccLoop,
            other => return Err(format!("unknown acc directive: {other:?}")),
        },
        Model::OpenMp => match words.next_word() {
            Some("target") => {
                words.eat_word("teams");
                words.eat_word("distribute");
                // optional `parallel for [simd]` merged into the head
                if words.eat_word("parallel") {
                    words.eat_word("for");
                }
                DirectiveKind::OmpTargetTeamsDistribute
            }
            Some("parallel") => {
                words.eat_word("for");
                DirectiveKind::OmpParallelFor
            }
            other => return Err(format!("unknown omp directive: {other:?}")),
        },
    };
    let mut clauses = Vec::new();
    while let Some(word) = words.next_word() {
        let clause = match word {
            "gang" => Clause::Gang(words.opt_int_arg()?),
            "worker" => Clause::Worker(words.opt_int_arg()?),
            "vector" => Clause::Vector(words.opt_int_arg()?),
            "num_gangs" => Clause::NumGangs(words.int_arg("num_gangs")?),
            "num_workers" => Clause::NumWorkers(words.int_arg("num_workers")?),
            "vector_length" => Clause::VectorLength(words.int_arg("vector_length")?),
            "independent" => Clause::Independent,
            "collapse" => Clause::Collapse(words.int_arg("collapse")?),
            "simd" => Clause::Simd,
            "num_teams" => Clause::NumTeams(words.int_arg("num_teams")?),
            "thread_limit" => Clause::ThreadLimit(words.int_arg("thread_limit")?),
            "reduction" => {
                let body = words.paren_arg("reduction")?;
                let (op, vars) = body
                    .split_once(':')
                    .ok_or_else(|| format!("malformed reduction clause: {body}"))?;
                let op = match op.trim() {
                    "+" => ReductionOp::Add,
                    "*" => ReductionOp::Mul,
                    "max" => ReductionOp::Max,
                    "min" => ReductionOp::Min,
                    other => return Err(format!("unknown reduction op: {other}")),
                };
                Clause::Reduction(op, vars.split(',').map(|v| v.trim().to_string()).collect())
            }
            "private" => {
                let body = words.paren_arg("private")?;
                Clause::Private(body.split(',').map(|v| v.trim().to_string()).collect())
            }
            // clauses we accept and ignore (data movement is out of scope)
            "copy" | "copyin" | "copyout" | "present" | "create" | "map" | "schedule"
            | "default" | "firstprivate" | "shared" | "device" => {
                let _ = words.opt_paren_arg();
                continue;
            }
            other => return Err(format!("unknown clause: {other}")),
        };
        clauses.push(clause);
    }
    Ok(Directive { kind, clauses })
}

/// Tiny word/paren lexer for directive clause lists.
struct DirectiveLexer<'a> {
    rest: &'a str,
}

impl<'a> DirectiveLexer<'a> {
    fn new(text: &'a str) -> Self {
        DirectiveLexer { rest: text.trim() }
    }

    fn next_word(&mut self) -> Option<&'a str> {
        // stray punctuation is skipped here, not by recursing once per mark
        let stray = |c: char| !(c.is_ascii_alphanumeric() || c == '_');
        self.rest = self.rest.trim_start_matches(stray);
        if self.rest.is_empty() {
            return None;
        }
        let end = self.rest.find(stray).unwrap_or(self.rest.len());
        let (word, rest) = self.rest.split_at(end);
        self.rest = rest;
        Some(word)
    }

    fn eat_word(&mut self, w: &str) -> bool {
        let trimmed = self.rest.trim_start();
        if trimmed.starts_with(w)
            && trimmed[w.len()..]
                .chars()
                .next()
                .is_none_or(|c| !(c.is_ascii_alphanumeric() || c == '_'))
        {
            self.rest = &trimmed[w.len()..];
            true
        } else {
            false
        }
    }

    fn opt_paren_arg(&mut self) -> Option<&'a str> {
        let trimmed = self.rest.trim_start();
        if !trimmed.starts_with('(') {
            return None;
        }
        let mut depth = 0usize;
        for (i, c) in trimmed.char_indices() {
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        let body = &trimmed[1..i];
                        self.rest = &trimmed[i + 1..];
                        return Some(body);
                    }
                }
                _ => {}
            }
        }
        None
    }

    fn paren_arg(&mut self, clause: &str) -> Result<&'a str, String> {
        self.opt_paren_arg().ok_or_else(|| format!("clause `{clause}` requires (…) argument"))
    }

    fn int_arg(&mut self, clause: &str) -> Result<u32, String> {
        let body = self.paren_arg(clause)?;
        body.trim()
            .parse::<u32>()
            .map_err(|_| format!("clause `{clause}` requires an integer, got `{body}`"))
    }

    fn opt_int_arg(&mut self) -> Result<Option<u32>, String> {
        match self.opt_paren_arg() {
            None => Ok(None),
            Some(body) => body
                .trim()
                .parse::<u32>()
                .map(Some)
                .map_err(|_| format!("expected integer clause argument, got `{body}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_listing1() {
        // Listing 1 of the paper (matrix multiplication kernel).
        let src = r#"
void mm(double a[64][64], double b[64][64], double c[64][64], double r[64][64],
        double alpha, double beta, int cy, int cx, int ax) {
  #pragma acc kernels loop independent
  for (int i = 0; i < cy; i++) {
    #pragma acc loop independent gang(16) vector(256)
    for (int j = 0; j < cx; j++) {
      double tmp = 0.0;
      for (int l = 0; l < ax; l++)
        tmp += a[i][l] * b[l][j];
      r[i][j] = alpha * tmp + beta * c[i][j];
    }
  }
}
"#;
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.functions.len(), 1);
        let f = &prog.functions[0];
        assert_eq!(f.params.len(), 9);
        let outer = match &f.body.stmts[0] {
            Stmt::For(l) => l,
            other => panic!("expected for, got {other:?}"),
        };
        assert_eq!(outer.directive.as_ref().unwrap().kind, DirectiveKind::AccKernelsLoop);
        let inner = match &outer.body.stmts[0] {
            Stmt::For(l) => l,
            other => panic!("expected for, got {other:?}"),
        };
        let d = inner.directive.as_ref().unwrap();
        assert_eq!(d.num_gangs(), Some(16));
        assert_eq!(d.vector_length(), Some(256));
    }

    #[test]
    fn precedence() {
        let e = parse_expr("a + b * c").unwrap();
        match e {
            Expr::Binary { op: BinOp::Add, rhs, .. } => {
                assert!(matches!(*rhs, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn comparison_and_logical_precedence() {
        let e = parse_expr("a < b && c >= d || e == f").unwrap();
        assert!(matches!(e, Expr::Binary { op: BinOp::Or, .. }));
    }

    #[test]
    fn unary_minus_binds_tight() {
        let e = parse_expr("-a * b").unwrap();
        match e {
            Expr::Binary { op: BinOp::Mul, lhs, .. } => {
                assert!(matches!(*lhs, Expr::Unary { op: UnOp::Neg, .. }));
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn multidim_index() {
        let e = parse_expr("lhsZ[0][0][k][i][j]").unwrap();
        match e {
            Expr::Index { base, indices } => {
                assert_eq!(base, "lhsZ");
                assert_eq!(indices.len(), 5);
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn ternary_parses() {
        let e = parse_expr("a < b ? a : b").unwrap();
        assert!(matches!(e, Expr::Ternary { .. }));
    }

    #[test]
    fn cast_parses() {
        let e = parse_expr("(double)n * 0.5").unwrap();
        match e {
            Expr::Binary { op: BinOp::Mul, lhs, .. } => {
                assert!(matches!(*lhs, Expr::Cast { ty: Type::Double, .. }));
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn call_parses() {
        let e = parse_expr("sqrt(x * x + y * y)").unwrap();
        match e {
            Expr::Call { name, args } => {
                assert_eq!(name, "sqrt");
                assert_eq!(args.len(), 1);
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn compound_assign_and_incr() {
        let src = r#"
void f(double a[8]) {
  int i = 0;
  a[0] += 1.0;
  a[1] *= 2.0;
  i++;
}
"#;
        let prog = parse_program(src).unwrap();
        let body = &prog.functions[0].body.stmts;
        assert!(matches!(&body[1], Stmt::Assign { op: AssignOp::AddAssign, .. }));
        assert!(matches!(&body[2], Stmt::Assign { op: AssignOp::MulAssign, .. }));
        assert!(matches!(&body[3], Stmt::Assign { op: AssignOp::Assign, .. }));
    }

    #[test]
    fn for_step_forms() {
        for (step_src, expect) in [
            ("i++", Expr::Int(1)),
            ("i += 2", Expr::Int(2)),
            ("i = i + 3", Expr::Int(3)),
            ("i = 4 + i", Expr::Int(4)),
        ] {
            let src = format!("void f() {{ for (int i = 0; i < 10; {step_src}) {{ }} }}");
            let prog = parse_program(&src).unwrap();
            match &prog.functions[0].body.stmts[0] {
                Stmt::For(l) => assert_eq!(&l.step, &expect, "step {step_src}"),
                other => panic!("expected for, got {other:?}"),
            }
        }
    }

    #[test]
    fn multi_declarator() {
        let src = "void f() { double a, b = 1.0, c; }";
        let prog = parse_program(src).unwrap();
        match &prog.functions[0].body.stmts[0] {
            Stmt::Block(b) => assert_eq!(b.stmts.len(), 3),
            other => panic!("expected block of decls, got {other:?}"),
        }
    }

    #[test]
    fn omp_directive_parses() {
        let d =
            parse_directive("omp target teams distribute parallel for simd num_teams(8)").unwrap();
        assert_eq!(d.kind, DirectiveKind::OmpTargetTeamsDistribute);
        assert!(d.has_vector()); // simd
        assert_eq!(d.num_gangs(), Some(8));
    }

    #[test]
    fn ignored_data_clauses() {
        let d = parse_directive("acc parallel loop copyin(a[0:n]) gang vector").unwrap();
        assert_eq!(d.clauses.len(), 2);
    }

    #[test]
    fn error_messages_carry_line() {
        let err = parse_program("void f() {\n  int x = ;\n}").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn nesting_is_bounded_wherever_the_parser_recurses() {
        // every shape that makes the parser (or the tree it builds) deeper:
        // fine at a depth no real kernel reaches, an ordinary error — not a
        // stack overflow, here or in whoever walks the tree — far beyond it
        type Shape = (&'static str, fn(usize) -> String);
        let shapes: [Shape; 12] = [
            ("parens", |k| format!("x = {}a[0]{};", "(".repeat(k), ")".repeat(k))),
            ("prefix", |k| format!("x = {}a[0];", "- ".repeat(k))),
            ("plus", |k| format!("x = {}a[0];", "+ ".repeat(k))),
            ("casts", |k| format!("x = {}a[0];", "(double)".repeat(k))),
            ("chain", |k| format!("x = a[0]{};", " + a[1]".repeat(k))),
            ("then", |k| format!("x = {}1{};", "x ? ".repeat(k), " : 2".repeat(k))),
            ("else", |k| format!("x = {}3;", "x ? 1 : ".repeat(k))),
            ("index", |k| format!("x = {}0{};", "a[".repeat(k), "]".repeat(k))),
            ("calls", |k| format!("x = {}x{};", "f(".repeat(k), ")".repeat(k))),
            ("blocks", |k| format!("{}x = 1;{}", "{ ".repeat(k), " }".repeat(k))),
            ("ifs", |k| format!("{}x = 1;", "if (x) ".repeat(k))),
            ("pragmas", |k| format!("{}x = 1;", "#pragma acc loop\n".repeat(k))),
        ];
        for (shape, body) in shapes {
            let parse = |k: usize| parse_program(&format!("void f(double a[8]) {{ {} }}", body(k)));
            assert!(parse(MAX_NESTING / 2).is_ok(), "{shape} at half the limit");
            let err = parse(100_000).expect_err(shape);
            assert_eq!(err.message, format!("nesting deeper than {MAX_NESTING}"), "{shape}");
        }
        // the directive lexer used to recurse once per stray punctuation mark
        let d = parse_directive(&format!("acc loop {} gang", "(".repeat(100_000))).unwrap();
        assert_eq!(d.clauses, vec![Clause::Gang(None)]);
    }

    #[test]
    fn directive_reduction_roundtrip() {
        let d = parse_directive("acc parallel loop reduction(+:sum) vector_length(128)").unwrap();
        assert_eq!(d.render(), "acc parallel loop reduction(+:sum) vector_length(128)");
    }
}
