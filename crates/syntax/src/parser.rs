//! Recursive-descent parser for the concrete syntax.
//!
//! The grammar (modulo precedence) is:
//!
//! ```text
//! program   ::= (def | assume)*
//! def       ::= 'def' ident ':' reltype ('@' idx)? '=' expr ('~' expr)? ';'
//! assume    ::= 'assume' constr ';'
//!
//! reltype   ::= 'forall' i '::' sort '.' reltype | 'exists' i '::' sort '.' reltype
//!             | '{' constr '}' ('&' | '=>') reltype | relarrow
//! relarrow  ::= relprod ('->' ('[' idx ']')? relarrow)?
//! relprod   ::= relatom ('*' relatom)*
//! relatom   ::= 'unitr' | 'boolr' | 'intr' | 'tv' ident | 'box' relatom
//!             | 'list' '[' idx ';' idx ']' relatom
//!             | 'U' '(' unarytype ',' unarytype ')' | 'UU' unaryatom | '(' reltype ')'
//!
//! unarytype ::= 'forall' i '::' sort '.' unarytype | 'exists' i '::' sort '.' unarytype
//!             | '{' constr '}' ('&' | '=>') unarytype | unaryarrow
//! unaryarrow::= unaryprod ('->' ('[' idx ',' idx ']')? unaryarrow)?
//! unaryprod ::= unaryatom ('*' unaryatom)*
//! unaryatom ::= 'unit' | 'bool' | 'int' | 'tv' ident | 'list' '[' idx ']' unaryatom
//!             | '(' unarytype ')'
//!
//! expr      ::= 'fix' f '(' x ')' '.' expr | ('lam' | '\') x '.' expr | 'Lam' '.' expr
//!             | 'let' x '=' expr 'in' expr | 'if' expr 'then' expr 'else' expr
//!             | 'case' expr 'of' 'nil' '->' expr '|' h '::' t '->' expr
//!             | 'pack' expr | 'unpack' expr 'as' x 'in' expr | 'clet' expr 'as' x 'in' expr
//!             | binary/application/atom layers (see the module source)
//! ```

use std::sync::Arc;

use rel_constraint::Constr;
use rel_index::{Idx, IdxVar, Sort};

use crate::expr::{Expr, PrimOp, Var};
use crate::program::{Def, Program};
use crate::token::{tokenize, Spanned, Token};
use crate::types::{CostBounds, RelType, UnaryType};

/// A parse error with a human-readable message and a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Explanation of the problem.
    pub message: String,
    /// Line number (1-based); 0 when the input ended unexpectedly.
    pub line: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Keywords that may not be used as expression variables and that terminate
/// application argument lists.
const EXPR_KEYWORDS: &[&str] = &[
    "fix", "lam", "Lam", "let", "in", "if", "then", "else", "case", "of", "nil", "cons", "pack",
    "unpack", "clet", "celim", "as", "true", "false", "not", "fst", "snd", "to", "def", "assume",
    "with",
];

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
}

type PResult<T> = Result<T, ParseError>;

impl Parser {
    fn new(tokens: Vec<Spanned>) -> Parser {
        Parser { tokens, pos: 0 }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1).map(|s| &s.token)
    }

    fn line(&self) -> usize {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map_or(0, |s| s.line)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|s| s.token.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn error<T>(&self, message: impl Into<String>) -> PResult<T> {
        Err(ParseError {
            message: message.into(),
            line: self.line(),
        })
    }

    fn expect(&mut self, expected: &Token) -> PResult<()> {
        match self.peek() {
            Some(t) if t == expected => {
                self.pos += 1;
                Ok(())
            }
            Some(t) => {
                let t = t.clone();
                self.error(format!("expected `{expected}`, found `{t}`"))
            }
            None => self.error(format!("expected `{expected}`, found end of input")),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> PResult<()> {
        match self.peek() {
            Some(Token::Ident(s)) if s == kw => {
                self.pos += 1;
                Ok(())
            }
            Some(t) => {
                let t = t.clone();
                self.error(format!("expected keyword `{kw}`, found `{t}`"))
            }
            None => self.error(format!("expected keyword `{kw}`, found end of input")),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s == kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> PResult<String> {
        match self.peek() {
            Some(Token::Ident(s)) => {
                if EXPR_KEYWORDS.contains(&s.as_str()) {
                    let s = s.clone();
                    return self.error(format!("keyword `{s}` cannot be used as a name"));
                }
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            Some(t) => {
                let t = t.clone();
                self.error(format!("expected an identifier, found `{t}`"))
            }
            None => self.error("expected an identifier, found end of input"),
        }
    }

    // ------------------------------------------------------------------
    // Index terms
    // ------------------------------------------------------------------

    fn idx(&mut self) -> PResult<Idx> {
        self.idx_add()
    }

    fn idx_add(&mut self) -> PResult<Idx> {
        let mut lhs = self.idx_mul()?;
        loop {
            if self.eat(&Token::Plus) {
                lhs = lhs + self.idx_mul()?;
            } else if self.eat(&Token::Minus) {
                lhs = lhs - self.idx_mul()?;
            } else {
                return Ok(lhs);
            }
        }
    }

    fn idx_mul(&mut self) -> PResult<Idx> {
        let mut lhs = self.idx_atom()?;
        loop {
            if self.eat(&Token::Star) {
                lhs = lhs * self.idx_atom()?;
            } else if self.eat(&Token::Slash) {
                lhs = lhs / self.idx_atom()?;
            } else {
                return Ok(lhs);
            }
        }
    }

    fn idx_atom(&mut self) -> PResult<Idx> {
        match self.peek().cloned() {
            Some(Token::Int(n)) => {
                self.pos += 1;
                if n < 0 {
                    return self.error("negative index literals are not allowed");
                }
                Ok(Idx::nat(n as u64))
            }
            Some(Token::LParen) => {
                self.pos += 1;
                let i = self.idx()?;
                self.expect(&Token::RParen)?;
                Ok(i)
            }
            Some(Token::Ident(name)) => {
                self.pos += 1;
                match name.as_str() {
                    "inf" => Ok(Idx::infty()),
                    "ceil" | "floor" | "log2" | "pow2" => {
                        self.expect(&Token::LParen)?;
                        let a = self.idx()?;
                        self.expect(&Token::RParen)?;
                        Ok(match name.as_str() {
                            "ceil" => Idx::ceil(a),
                            "floor" => Idx::floor(a),
                            "log2" => Idx::log2(a),
                            _ => Idx::pow2(a),
                        })
                    }
                    "min" | "max" => {
                        self.expect(&Token::LParen)?;
                        let a = self.idx()?;
                        self.expect(&Token::Comma)?;
                        let b = self.idx()?;
                        self.expect(&Token::RParen)?;
                        Ok(if name == "min" {
                            Idx::min(a, b)
                        } else {
                            Idx::max(a, b)
                        })
                    }
                    "sum" => {
                        self.expect(&Token::LParen)?;
                        let var = self.ident()?;
                        self.expect(&Token::Equals)?;
                        let lo = self.idx()?;
                        self.expect_keyword("to")?;
                        let hi = self.idx()?;
                        self.expect(&Token::Comma)?;
                        let body = self.idx()?;
                        self.expect(&Token::RParen)?;
                        Ok(Idx::sum(var, lo, hi, body))
                    }
                    _ => Ok(Idx::var(name)),
                }
            }
            Some(t) => self.error(format!("expected an index term, found `{t}`")),
            None => self.error("expected an index term, found end of input"),
        }
    }

    // ------------------------------------------------------------------
    // Constraints
    // ------------------------------------------------------------------

    fn constr(&mut self) -> PResult<Constr> {
        let mut lhs = self.constr_and()?;
        while self.eat_keyword("or") {
            lhs = lhs.or(self.constr_and()?);
        }
        Ok(lhs)
    }

    fn constr_and(&mut self) -> PResult<Constr> {
        let mut lhs = self.constr_atom()?;
        while self.eat_keyword("and") {
            lhs = lhs.and(self.constr_atom()?);
        }
        Ok(lhs)
    }

    fn constr_atom(&mut self) -> PResult<Constr> {
        if self.eat_keyword("tt") {
            return Ok(Constr::Top);
        }
        if self.eat_keyword("ff") {
            return Ok(Constr::Bot);
        }
        if self.eat_keyword("not") {
            return Ok(self.constr_atom()?.negate());
        }
        if self.peek() == Some(&Token::LParen) {
            // Either a parenthesized constraint or a parenthesized index term
            // starting a comparison: try the former, backtrack to the latter.
            let save = self.pos;
            self.pos += 1;
            if let Ok(c) = self.constr() {
                if self.eat(&Token::RParen) {
                    return Ok(c);
                }
            }
            self.pos = save;
        }
        let lhs = self.idx()?;
        let op = self.bump();
        let rhs = self.idx()?;
        match op {
            Some(Token::Equals) | Some(Token::EqEq) => Ok(Constr::eq(lhs, rhs)),
            Some(Token::Leq) => Ok(Constr::leq(lhs, rhs)),
            Some(Token::Lt) => Ok(Constr::lt(lhs, rhs)),
            Some(Token::Geq) => Ok(Constr::geq(lhs, rhs)),
            Some(Token::Gt) => Ok(Constr::gt(lhs, rhs)),
            Some(t) => self.error(format!("expected a comparison operator, found `{t}`")),
            None => self.error("expected a comparison operator, found end of input"),
        }
    }

    fn sort(&mut self) -> PResult<Sort> {
        if self.eat_keyword("nat") {
            Ok(Sort::Nat)
        } else if self.eat_keyword("real") {
            Ok(Sort::Real)
        } else {
            self.error("expected a sort (`nat` or `real`)")
        }
    }

    // ------------------------------------------------------------------
    // Relational types
    // ------------------------------------------------------------------

    fn rel_type(&mut self) -> PResult<RelType> {
        if self.at_keyword("forall") || self.at_keyword("exists") {
            let is_forall = self.at_keyword("forall");
            self.pos += 1;
            let var = self.ident()?;
            self.expect(&Token::ColonColon)?;
            let sort = self.sort()?;
            self.expect(&Token::Dot)?;
            let body = self.rel_type()?;
            return Ok(if is_forall {
                RelType::forall(IdxVar::new(var), sort, body)
            } else {
                RelType::exists(IdxVar::new(var), sort, body)
            });
        }
        if self.peek() == Some(&Token::LBrace) {
            self.pos += 1;
            let c = self.constr()?;
            self.expect(&Token::RBrace)?;
            if self.eat(&Token::Amp) {
                let body = self.rel_type()?;
                return Ok(RelType::cand(c, body));
            }
            self.expect(&Token::FatArrow)?;
            let body = self.rel_type()?;
            return Ok(RelType::cimpl(c, body));
        }
        self.rel_arrow()
    }

    fn rel_arrow(&mut self) -> PResult<RelType> {
        let lhs = self.rel_prod()?;
        if self.eat(&Token::Arrow) {
            let cost = if self.eat(&Token::LBracket) {
                let c = self.idx()?;
                self.expect(&Token::RBracket)?;
                c
            } else {
                Idx::zero()
            };
            // The codomain may itself start with a quantifier or constraint
            // (e.g. `unitr -> forall n :: nat. …`), so recurse at the top level.
            let rhs = self.rel_type()?;
            Ok(RelType::arrow(lhs, cost, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn rel_prod(&mut self) -> PResult<RelType> {
        let mut lhs = self.rel_atom()?;
        while self.eat(&Token::Star) {
            let rhs = self.rel_atom()?;
            lhs = RelType::prod(lhs, rhs);
        }
        Ok(lhs)
    }

    fn rel_atom(&mut self) -> PResult<RelType> {
        match self.peek().cloned() {
            Some(Token::LParen) => {
                self.pos += 1;
                let t = self.rel_type()?;
                self.expect(&Token::RParen)?;
                Ok(t)
            }
            Some(Token::Ident(name)) => {
                self.pos += 1;
                match name.as_str() {
                    "unitr" => Ok(RelType::UnitR),
                    "boolr" => Ok(RelType::BoolR),
                    "intr" => Ok(RelType::IntR),
                    "tv" => Ok(RelType::TVar(self.ident()?)),
                    "box" => Ok(RelType::boxed(self.rel_atom()?)),
                    "list" => {
                        self.expect(&Token::LBracket)?;
                        let len = self.idx()?;
                        self.expect(&Token::Semi)?;
                        let diff = self.idx()?;
                        self.expect(&Token::RBracket)?;
                        let elem = self.rel_atom()?;
                        Ok(RelType::list(len, diff, elem))
                    }
                    "U" => {
                        self.expect(&Token::LParen)?;
                        let a = self.unary_type()?;
                        self.expect(&Token::Comma)?;
                        let b = self.unary_type()?;
                        self.expect(&Token::RParen)?;
                        Ok(RelType::u(a, b))
                    }
                    "UU" => Ok(RelType::u_same(self.unary_atom()?)),
                    other => self.error(format!("unknown relational type `{other}`")),
                }
            }
            Some(t) => self.error(format!("expected a relational type, found `{t}`")),
            None => self.error("expected a relational type, found end of input"),
        }
    }

    // ------------------------------------------------------------------
    // Unary types
    // ------------------------------------------------------------------

    fn unary_type(&mut self) -> PResult<UnaryType> {
        if self.at_keyword("forall") || self.at_keyword("exists") {
            let is_forall = self.at_keyword("forall");
            self.pos += 1;
            let var = self.ident()?;
            self.expect(&Token::ColonColon)?;
            let sort = self.sort()?;
            self.expect(&Token::Dot)?;
            let body = self.unary_type()?;
            return Ok(if is_forall {
                UnaryType::forall(IdxVar::new(var), sort, body)
            } else {
                UnaryType::exists(IdxVar::new(var), sort, body)
            });
        }
        if self.peek() == Some(&Token::LBrace) {
            self.pos += 1;
            let c = self.constr()?;
            self.expect(&Token::RBrace)?;
            if self.eat(&Token::Amp) {
                let body = self.unary_type()?;
                return Ok(UnaryType::CAnd(c, Arc::new(body)));
            }
            self.expect(&Token::FatArrow)?;
            let body = self.unary_type()?;
            return Ok(UnaryType::CImpl(c, Arc::new(body)));
        }
        self.unary_arrow()
    }

    fn unary_arrow(&mut self) -> PResult<UnaryType> {
        let lhs = self.unary_prod()?;
        if self.eat(&Token::Arrow) {
            let cost = if self.eat(&Token::LBracket) {
                let lo = self.idx()?;
                self.expect(&Token::Comma)?;
                let hi = self.idx()?;
                self.expect(&Token::RBracket)?;
                CostBounds::new(lo, hi)
            } else {
                CostBounds::unbounded()
            };
            let rhs = self.unary_type()?;
            Ok(UnaryType::arrow(lhs, cost, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn unary_prod(&mut self) -> PResult<UnaryType> {
        let mut lhs = self.unary_atom()?;
        while self.eat(&Token::Star) {
            let rhs = self.unary_atom()?;
            lhs = UnaryType::prod(lhs, rhs);
        }
        Ok(lhs)
    }

    fn unary_atom(&mut self) -> PResult<UnaryType> {
        match self.peek().cloned() {
            Some(Token::LParen) => {
                self.pos += 1;
                let t = self.unary_type()?;
                self.expect(&Token::RParen)?;
                Ok(t)
            }
            Some(Token::Ident(name)) => {
                self.pos += 1;
                match name.as_str() {
                    "unit" => Ok(UnaryType::Unit),
                    "bool" => Ok(UnaryType::Bool),
                    "int" => Ok(UnaryType::Int),
                    "tv" => Ok(UnaryType::TVar(self.ident()?)),
                    "list" => {
                        self.expect(&Token::LBracket)?;
                        let len = self.idx()?;
                        self.expect(&Token::RBracket)?;
                        let elem = self.unary_atom()?;
                        Ok(UnaryType::list(len, elem))
                    }
                    other => self.error(format!("unknown unary type `{other}`")),
                }
            }
            Some(t) => self.error(format!("expected a unary type, found `{t}`")),
            None => self.error("expected a unary type, found end of input"),
        }
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn expr(&mut self) -> PResult<Expr> {
        if self.at_keyword("fix") {
            self.pos += 1;
            let f = self.ident()?;
            self.expect(&Token::LParen)?;
            let x = self.ident()?;
            self.expect(&Token::RParen)?;
            self.expect(&Token::Dot)?;
            let body = self.expr()?;
            return Ok(Expr::fix(f, x, body));
        }
        if self.at_keyword("lam") || self.peek() == Some(&Token::Backslash) {
            self.pos += 1;
            let x = self.ident()?;
            self.expect(&Token::Dot)?;
            let body = self.expr()?;
            return Ok(Expr::lam(x, body));
        }
        if self.at_keyword("Lam") {
            self.pos += 1;
            self.expect(&Token::Dot)?;
            let body = self.expr()?;
            return Ok(body.ilam());
        }
        if self.at_keyword("let") {
            self.pos += 1;
            let x = self.ident()?;
            self.expect(&Token::Equals)?;
            let bound = self.expr()?;
            self.expect_keyword("in")?;
            let body = self.expr()?;
            return Ok(Expr::let_in(x, bound, body));
        }
        if self.at_keyword("if") {
            self.pos += 1;
            let cond = self.expr()?;
            self.expect_keyword("then")?;
            let then_branch = self.expr()?;
            self.expect_keyword("else")?;
            let else_branch = self.expr()?;
            return Ok(Expr::if_then_else(cond, then_branch, else_branch));
        }
        if self.at_keyword("case") {
            self.pos += 1;
            let scrut = self.expr()?;
            self.expect_keyword("of")?;
            self.expect_keyword("nil")?;
            self.expect(&Token::Arrow)?;
            let nil_branch = self.expr()?;
            self.expect(&Token::Pipe)?;
            let head = self.ident()?;
            self.expect(&Token::ColonColon)?;
            let tail = self.ident()?;
            self.expect(&Token::Arrow)?;
            let cons_branch = self.expr()?;
            return Ok(Expr::case_list(scrut, nil_branch, head, tail, cons_branch));
        }
        if self.at_keyword("pack") {
            self.pos += 1;
            let e = self.expr()?;
            return Ok(Expr::Pack(Box::new(e)));
        }
        if self.at_keyword("unpack") {
            self.pos += 1;
            let e1 = self.expr()?;
            self.expect_keyword("as")?;
            let x = self.ident()?;
            self.expect_keyword("in")?;
            let e2 = self.expr()?;
            return Ok(Expr::Unpack(Box::new(e1), Var::new(x), Box::new(e2)));
        }
        if self.at_keyword("clet") {
            self.pos += 1;
            let e1 = self.expr()?;
            self.expect_keyword("as")?;
            let x = self.ident()?;
            self.expect_keyword("in")?;
            let e2 = self.expr()?;
            return Ok(Expr::CLet(Box::new(e1), Var::new(x), Box::new(e2)));
        }
        self.expr_or()
    }

    fn expr_or(&mut self) -> PResult<Expr> {
        let mut lhs = self.expr_and()?;
        while self.eat(&Token::OrOr) {
            let rhs = self.expr_and()?;
            lhs = Expr::prim2(PrimOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn expr_and(&mut self) -> PResult<Expr> {
        let mut lhs = self.expr_cmp()?;
        while self.eat(&Token::AndAnd) {
            let rhs = self.expr_cmp()?;
            lhs = Expr::prim2(PrimOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn expr_cmp(&mut self) -> PResult<Expr> {
        let lhs = self.expr_add()?;
        let op = match self.peek() {
            Some(Token::EqEq) => Some(PrimOp::Eq),
            Some(Token::Leq) => Some(PrimOp::Leq),
            Some(Token::Lt) => Some(PrimOp::Lt),
            Some(Token::Geq) => Some(PrimOp::Leq),
            Some(Token::Gt) => Some(PrimOp::Lt),
            _ => None,
        };
        if let Some(op) = op {
            let flipped = matches!(self.peek(), Some(Token::Geq) | Some(Token::Gt));
            self.pos += 1;
            let rhs = self.expr_add()?;
            Ok(if flipped {
                Expr::prim2(op, rhs, lhs)
            } else {
                Expr::prim2(op, lhs, rhs)
            })
        } else {
            Ok(lhs)
        }
    }

    fn expr_add(&mut self) -> PResult<Expr> {
        let mut lhs = self.expr_mul()?;
        loop {
            if self.eat(&Token::Plus) {
                lhs = Expr::prim2(PrimOp::Add, lhs, self.expr_mul()?);
            } else if self.eat(&Token::Minus) {
                lhs = Expr::prim2(PrimOp::Sub, lhs, self.expr_mul()?);
            } else {
                return Ok(lhs);
            }
        }
    }

    fn expr_mul(&mut self) -> PResult<Expr> {
        let mut lhs = self.expr_app()?;
        loop {
            if self.eat(&Token::Star) {
                lhs = Expr::prim2(PrimOp::Mul, lhs, self.expr_app()?);
            } else if self.eat(&Token::Slash) {
                lhs = Expr::prim2(PrimOp::Div, lhs, self.expr_app()?);
            } else if self.eat(&Token::Percent) {
                lhs = Expr::prim2(PrimOp::Mod, lhs, self.expr_app()?);
            } else {
                return Ok(lhs);
            }
        }
    }

    fn expr_app(&mut self) -> PResult<Expr> {
        let mut head = self.expr_prefix()?;
        loop {
            // Index application `e []`.
            if self.peek() == Some(&Token::LBracket) && self.peek2() == Some(&Token::RBracket) {
                self.pos += 2;
                head = head.iapp();
                continue;
            }
            if self.starts_atom() {
                let arg = self.expr_atom()?;
                head = head.app(arg);
                continue;
            }
            return Ok(head);
        }
    }

    fn expr_prefix(&mut self) -> PResult<Expr> {
        if self.at_keyword("fst") {
            self.pos += 1;
            return Ok(Expr::Fst(Box::new(self.expr_prefix()?)));
        }
        if self.at_keyword("snd") {
            self.pos += 1;
            return Ok(Expr::Snd(Box::new(self.expr_prefix()?)));
        }
        if self.at_keyword("celim") {
            self.pos += 1;
            return Ok(Expr::CElim(Box::new(self.expr_prefix()?)));
        }
        if self.at_keyword("not") {
            self.pos += 1;
            return Ok(Expr::Prim(PrimOp::Not, vec![self.expr_prefix()?]));
        }
        self.expr_atom()
    }

    /// Does the next token start an atomic expression (and hence continue an
    /// application)?
    fn starts_atom(&self) -> bool {
        match self.peek() {
            Some(Token::Int(_)) | Some(Token::LParen) => true,
            Some(Token::Ident(s)) => {
                !EXPR_KEYWORDS.contains(&s.as_str())
                    || matches!(s.as_str(), "nil" | "true" | "false" | "cons")
            }
            _ => false,
        }
    }

    fn expr_atom(&mut self) -> PResult<Expr> {
        match self.peek().cloned() {
            Some(Token::Int(n)) => {
                self.pos += 1;
                Ok(Expr::Int(n))
            }
            Some(Token::Ident(name)) => match name.as_str() {
                "true" => {
                    self.pos += 1;
                    Ok(Expr::Bool(true))
                }
                "false" => {
                    self.pos += 1;
                    Ok(Expr::Bool(false))
                }
                "nil" => {
                    self.pos += 1;
                    Ok(Expr::Nil)
                }
                "cons" => {
                    self.pos += 1;
                    self.expect(&Token::LParen)?;
                    let a = self.expr()?;
                    self.expect(&Token::Comma)?;
                    let b = self.expr()?;
                    self.expect(&Token::RParen)?;
                    Ok(Expr::cons(a, b))
                }
                s if EXPR_KEYWORDS.contains(&s) => {
                    self.error(format!("keyword `{s}` cannot be used as a variable"))
                }
                _ => {
                    self.pos += 1;
                    Ok(Expr::var(name))
                }
            },
            Some(Token::LParen) => {
                self.pos += 1;
                if self.eat(&Token::RParen) {
                    return Ok(Expr::Unit);
                }
                let first = self.expr()?;
                if self.eat(&Token::Comma) {
                    let second = self.expr()?;
                    self.expect(&Token::RParen)?;
                    return Ok(Expr::pair(first, second));
                }
                if self.eat(&Token::Colon) {
                    let ty = self.rel_type()?;
                    let cost = if self.eat(&Token::At) {
                        Some(self.idx()?)
                    } else {
                        None
                    };
                    self.expect(&Token::RParen)?;
                    return Ok(Expr::Anno(Box::new(first), ty, cost));
                }
                self.expect(&Token::RParen)?;
                Ok(first)
            }
            Some(t) => self.error(format!("expected an expression, found `{t}`")),
            None => self.error("expected an expression, found end of input"),
        }
    }

    // ------------------------------------------------------------------
    // Programs
    // ------------------------------------------------------------------

    fn program(&mut self) -> PResult<Program> {
        let mut prog = Program::new();
        let mut pending_axioms: Vec<Constr> = Vec::new();
        while self.peek().is_some() {
            if self.eat_keyword("assume") {
                let c = self.constr()?;
                self.expect(&Token::Semi)?;
                pending_axioms.push(c);
                continue;
            }
            self.expect_keyword("def")?;
            let name = self.ident()?;
            self.expect(&Token::Colon)?;
            let ty = self.rel_type()?;
            let cost = if self.eat(&Token::At) {
                self.idx()?
            } else {
                Idx::zero()
            };
            self.expect(&Token::Equals)?;
            let left = self.expr()?;
            let right = if self.eat(&Token::Tilde) {
                Some(self.expr()?)
            } else {
                None
            };
            self.expect(&Token::Semi)?;
            let mut def = Def {
                name: Var::new(name),
                ty,
                cost,
                left,
                right,
                axioms: pending_axioms.clone(),
            };
            def.axioms = pending_axioms.clone();
            prog.push(def);
        }
        Ok(prog)
    }
}

/// Parses a whole program (a sequence of `def`s and `assume`s).
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first problem encountered.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let tokens = tokenize(src).map_err(|e| ParseError {
        message: e.message,
        line: e.line,
    })?;
    let mut p = Parser::new(tokens);
    p.program()
}

/// Parses a single expression.
///
/// # Errors
///
/// Returns a [`ParseError`] if the input is not a complete expression.
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let tokens = tokenize(src).map_err(|e| ParseError {
        message: e.message,
        line: e.line,
    })?;
    let mut p = Parser::new(tokens);
    let e = p.expr()?;
    if p.peek().is_some() {
        return p.error("trailing input after expression");
    }
    Ok(e)
}

/// Parses a single relational type.
///
/// # Errors
///
/// Returns a [`ParseError`] if the input is not a complete relational type.
pub fn parse_rel_type(src: &str) -> Result<RelType, ParseError> {
    let tokens = tokenize(src).map_err(|e| ParseError {
        message: e.message,
        line: e.line,
    })?;
    let mut p = Parser::new(tokens);
    let t = p.rel_type()?;
    if p.peek().is_some() {
        return p.error("trailing input after type");
    }
    Ok(t)
}

/// Parses a single index term (exposed for tests and the CLI).
///
/// # Errors
///
/// Returns a [`ParseError`] if the input is not a complete index term.
pub fn parse_idx(src: &str) -> Result<Idx, ParseError> {
    let tokens = tokenize(src).map_err(|e| ParseError {
        message: e.message,
        line: e.line,
    })?;
    let mut p = Parser::new(tokens);
    let i = p.idx()?;
    if p.peek().is_some() {
        return p.error("trailing input after index term");
    }
    Ok(i)
}

/// Parses a single constraint (exposed for tests and the CLI).
///
/// # Errors
///
/// Returns a [`ParseError`] if the input is not a complete constraint.
pub fn parse_constr(src: &str) -> Result<Constr, ParseError> {
    let tokens = tokenize(src).map_err(|e| ParseError {
        message: e.message,
        line: e.line,
    })?;
    let mut p = Parser::new(tokens);
    let c = p.constr()?;
    if p.peek().is_some() {
        return p.error("trailing input after constraint");
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_index_terms_with_precedence() {
        assert_eq!(
            parse_idx("n + 2 * a").unwrap(),
            Idx::var("n") + Idx::nat(2) * Idx::var("a")
        );
        assert_eq!(
            parse_idx("ceil(n / 2) + floor(n / 2)").unwrap(),
            Idx::half_ceil(Idx::var("n")) + Idx::half_floor(Idx::var("n"))
        );
        assert_eq!(
            parse_idx("sum(i = 0 to h, pow2(i))").unwrap(),
            Idx::sum("i", Idx::zero(), Idx::var("h"), Idx::pow2(Idx::var("i")))
        );
        assert_eq!(parse_idx("inf").unwrap(), Idx::infty());
    }

    #[test]
    fn parses_constraints() {
        assert_eq!(
            parse_constr("n = 0 and a <= n").unwrap(),
            Constr::eq(Idx::var("n"), Idx::zero()).and(Constr::leq(Idx::var("a"), Idx::var("n")))
        );
        assert_eq!(
            parse_constr("(n + 1) <= m or tt").unwrap(),
            Constr::leq(Idx::var("n") + Idx::one(), Idx::var("m")).or(Constr::Top)
        );
        assert_eq!(
            parse_constr("not (a < 1)").unwrap(),
            Constr::lt(Idx::var("a"), Idx::one()).negate()
        );
    }

    #[test]
    fn parses_relational_types() {
        let t = parse_rel_type("list[n; a] intr ->[a * 2] list[n; a] intr").unwrap();
        match t {
            RelType::Arrow(l, cost, r) => {
                assert_eq!(
                    *l,
                    RelType::list(Idx::var("n"), Idx::var("a"), RelType::IntR)
                );
                assert_eq!(cost, Idx::var("a") * Idx::nat(2));
                assert_eq!(
                    *r,
                    RelType::list(Idx::var("n"), Idx::var("a"), RelType::IntR)
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_quantified_and_boxed_types() {
        let t = parse_rel_type("box (unitr -> forall n :: nat. forall a :: nat. list[n; a] (UU int) ->[n] UU (list[n] int))")
            .unwrap();
        match t {
            RelType::Boxed(inner) => match &*inner {
                RelType::Arrow(_, _, rest) => {
                    assert!(matches!(**rest, RelType::Forall(_, Sort::Nat, _)));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_existential_constraint_types() {
        // bsplit's result type shape.
        let t = parse_rel_type(
            "exists b :: nat. {b <= a} & (list[ceil(n / 2); b] tv e * list[floor(n / 2); a - b] tv e)",
        )
        .unwrap();
        match t {
            RelType::Exists(v, Sort::Nat, body) => {
                assert_eq!(v, IdxVar::new("b"));
                assert!(matches!(*body, RelType::CAnd(_, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_u_types_with_exec_costs() {
        let t = parse_rel_type("U(int ->[1, 5] int, int)").unwrap();
        match t {
            RelType::U(a, b) => {
                assert!(matches!(*a, UnaryType::Arrow(_, _, _)));
                assert_eq!(*b, UnaryType::Int);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_the_map_program() {
        let src = r#"
            -- the map example from Section 3 of the paper
            def map : box(tv a ->[t] tv b) ->
                      forall n :: nat. forall al :: nat.
                      list[n; al] tv a ->[t * al] list[n; al] tv b
            = fix map(f). Lam. Lam. lam l.
                case l of
                  nil -> nil
                | h :: tl -> cons(f h, map f [] [] tl);
        "#;
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.len(), 1);
        let def = prog.def("map").unwrap();
        assert_eq!(def.cost, Idx::zero());
        // fix map(f). Λ. Λ. λl. case ...
        match &def.left {
            Expr::Fix(f, x, body) => {
                assert_eq!(f.name(), "map");
                assert_eq!(x.name(), "f");
                assert!(matches!(**body, Expr::ILam(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn application_groups_left_and_index_application_is_postfix() {
        let e = parse_expr("map f [] [] tl").unwrap();
        // ((((map f) []) []) tl)
        assert_eq!(
            e,
            Expr::var("map")
                .app(Expr::var("f"))
                .iapp()
                .iapp()
                .app(Expr::var("tl"))
        );
    }

    #[test]
    fn parses_pairs_annotations_and_units() {
        assert_eq!(parse_expr("()").unwrap(), Expr::Unit);
        assert_eq!(
            parse_expr("(x, y)").unwrap(),
            Expr::pair(Expr::var("x"), Expr::var("y"))
        );
        let e = parse_expr("(x : boolr)").unwrap();
        assert_eq!(e, Expr::var("x").anno(RelType::BoolR));
        let e = parse_expr("(x : boolr @ 3)").unwrap();
        assert_eq!(e, Expr::var("x").anno_cost(RelType::BoolR, Idx::nat(3)));
    }

    #[test]
    fn parses_case_let_if_and_primitives() {
        let e = parse_expr("case l of nil -> 0 | h :: tl -> h + 1").unwrap();
        assert!(matches!(e, Expr::CaseList { .. }));
        let e = parse_expr("let x = 1 + 2 in x * 3").unwrap();
        assert!(matches!(e, Expr::Let(_, _, _)));
        let e = parse_expr("if x <= 3 then true else false").unwrap();
        assert!(matches!(e, Expr::If(_, _, _)));
        let e = parse_expr("fst p + snd p").unwrap();
        assert_eq!(
            e,
            Expr::prim2(
                PrimOp::Add,
                Expr::Fst(Box::new(Expr::var("p"))),
                Expr::Snd(Box::new(Expr::var("p")))
            )
        );
    }

    #[test]
    fn parses_unpack_clet_and_pack() {
        let e = parse_expr("unpack r as r' in clet r' as z in (fst z, snd z)").unwrap();
        assert!(matches!(e, Expr::Unpack(_, _, _)));
        let e = parse_expr("pack (cons(x, nil))").unwrap();
        assert!(matches!(e, Expr::Pack(_)));
    }

    #[test]
    fn two_sided_definitions_use_tilde() {
        let src = "def two : UU bool = true ~ false;";
        let prog = parse_program(src).unwrap();
        let def = prog.def("two").unwrap();
        assert_eq!(def.left, Expr::Bool(true));
        assert_eq!(def.right, Some(Expr::Bool(false)));
    }

    #[test]
    fn assume_attaches_axioms_to_later_defs() {
        let src = "assume 0 <= 1; def k : boolr = true;";
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.def("k").unwrap().axioms.len(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_program("def broken : boolr =\n  lam . x;").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(parse_expr("cons(1 2)").is_err());
        assert!(
            parse_rel_type("list[n] intr").is_err(),
            "relational lists need both refinements"
        );
    }

    #[test]
    fn keywords_cannot_be_variables() {
        assert!(parse_expr("lam case . x").is_err());
        assert!(parse_expr("then").is_err());
    }
}
