//! A lightweight item parser over the [`lex`](crate::lex) token stream.
//!
//! The second layer of the lint engine: recovers the *shape* of a Rust
//! source file — module / fn / impl nesting, `#[cfg(test)]` scoping,
//! enum definitions with their variants, `type Msg = …;` protocol
//! declarations, `match` expressions with their arms, and the token
//! ranges that are *pattern* rather than expression position. Rules in
//! [`lint`](crate::lint) consume this instead of guessing from text:
//!
//! * scope-aware test exemptions (`#[cfg(test)]` on any enclosing item,
//!   however deeply nested, including `#[test]` functions);
//! * `# Panics`-documented functions (the rustdoc contract that makes a
//!   panic site vetted-by-review rather than a lint violation);
//! * the enum/match inventory behind `event-match-exhaustive`.
//!
//! This is deliberately *not* a full Rust parser: it tracks exactly the
//! grammar the rules need and recovers from anything else by skipping a
//! token, so it can also digest the deliberately-broken negative
//! fixtures the tests feed it.

use crate::lex::{Tok, TokKind};

/// What kind of item a [`Scope`] represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScopeKind {
    /// The file root.
    File,
    /// A `mod name { … }` block.
    Mod,
    /// A function body.
    Fn,
    /// An `impl … { … }` block.
    Impl,
    /// A `trait … { … }` block (default method bodies live here).
    Trait,
}

/// One braced item scope.
#[derive(Clone, Debug)]
pub struct Scope {
    /// Index of the enclosing scope (the file root points to itself).
    pub parent: usize,
    /// Item kind.
    pub kind: ScopeKind,
    /// Item name (`fn`/`mod` name; for impls, the self-type name).
    pub name: String,
    /// 1-based line of the item keyword.
    pub line: u32,
    /// True when this scope or any ancestor carries `#[cfg(test)]` /
    /// `#[test]` — the scope-aware replacement for v1's line mask.
    pub is_test: bool,
    /// True for functions whose doc comment carries a `# Panics`
    /// section (inherited check: see [`ParsedFile::panics_documented_at`]).
    pub panics_documented: bool,
    /// Token range of the braced body *contents*, `[start, end)`
    /// (exclusive of the braces themselves).
    pub body: (usize, usize),
}

/// One enum definition with its variants.
#[derive(Clone, Debug)]
pub struct EnumDef {
    /// The enum's name.
    pub name: String,
    /// 1-based line of the `enum` keyword.
    pub line: u32,
    /// True when defined under a test scope.
    pub is_test: bool,
    /// Variant names with their 1-based lines, in declaration order.
    pub variants: Vec<(String, u32)>,
}

/// One arm of a [`MatchExpr`].
#[derive(Clone, Debug)]
pub struct Arm {
    /// 1-based line the pattern starts on.
    pub line: u32,
    /// Token range of the pattern (alternatives included, guard
    /// excluded), `[start, end)`.
    pub pat: (usize, usize),
    /// True when an `if` guard follows the pattern.
    pub guarded: bool,
    /// True for a top-level `_` or bare-binding pattern — the arm that
    /// silently swallows every variant not named elsewhere.
    pub catch_all: bool,
}

/// One `match` expression.
#[derive(Clone, Debug)]
pub struct MatchExpr {
    /// 1-based line of the `match` keyword.
    pub line: u32,
    /// Token index of the `match` keyword.
    pub tok: usize,
    /// Parsed arms in source order.
    pub arms: Vec<Arm>,
}

/// A fully parsed file: tokens plus recovered structure.
#[derive(Clone, Debug, Default)]
pub struct ParsedFile {
    /// The token stream (comments included).
    pub tokens: Vec<Tok>,
    /// All item scopes; index 0 is the file root.
    pub scopes: Vec<Scope>,
    /// Enum definitions, file order.
    pub enums: Vec<EnumDef>,
    /// Right-hand sides of non-test `type Msg = NAME;` declarations —
    /// the actor-protocol enums of this file.
    pub msg_types: Vec<String>,
    /// Every `match` expression, file order (nested matches appear as
    /// their own entries).
    pub matches: Vec<MatchExpr>,
    /// Token ranges in pattern or `use` position (match-arm patterns,
    /// `let`/`if let`/`while let` patterns, `use` trees) — positions a
    /// path occurrence does *not* count as a construction site.
    pub non_expr_ranges: Vec<(usize, usize)>,
}

impl ParsedFile {
    /// Lexes and parses one source file.
    pub fn parse(src: &str) -> ParsedFile {
        let tokens = crate::lex::lex(src);
        let mut pf = ParsedFile {
            scopes: vec![Scope {
                parent: 0,
                kind: ScopeKind::File,
                name: String::new(),
                line: 1,
                is_test: false,
                panics_documented: false,
                body: (0, tokens.len()),
            }],
            ..ParsedFile::default()
        };
        Parser {
            toks: &tokens,
            pf: &mut pf,
        }
        .items(0, tokens.len(), 0);
        pf.matches = scan_matches(&tokens);
        pf.non_expr_ranges = scan_non_expr_ranges(&tokens, &pf.matches);
        pf.tokens = tokens;
        pf
    }

    /// The innermost scope containing token `tok`.
    pub fn scope_of(&self, tok: usize) -> usize {
        let mut best = 0;
        for (i, s) in self.scopes.iter().enumerate() {
            if s.body.0 <= tok && tok < s.body.1 && s.body.0 >= self.scopes[best].body.0 {
                best = i;
            }
        }
        best
    }

    /// True when token `tok` sits under a `#[cfg(test)]` / `#[test]`
    /// scope (however deeply nested).
    pub fn is_test_at(&self, tok: usize) -> bool {
        self.scopes[self.scope_of(tok)].is_test
    }

    /// True when token `tok` sits inside a function whose doc comment
    /// documents a `# Panics` contract (directly or via an enclosing
    /// documented fn — a helper closure's panic is part of its owner's
    /// contract).
    pub fn panics_documented_at(&self, tok: usize) -> bool {
        let mut s = self.scope_of(tok);
        loop {
            let scope = &self.scopes[s];
            if scope.kind == ScopeKind::Fn && scope.panics_documented {
                return true;
            }
            if scope.parent == s {
                return false;
            }
            s = scope.parent;
        }
    }

    /// True when token `tok` falls in any pattern/`use` range.
    pub fn in_pattern(&self, tok: usize) -> bool {
        self.non_expr_ranges
            .iter()
            .any(|&(a, b)| a <= tok && tok < b)
    }
}

/// Pending per-item context gathered while walking a scope: doc
/// comments and attributes seen since the last item.
#[derive(Default)]
struct Pending {
    test: bool,
    panics_doc: bool,
}

struct Parser<'a> {
    toks: &'a [Tok],
    pf: &'a mut ParsedFile,
}

impl Parser<'_> {
    /// Parses the items in `[i, end)` under scope `parent`.
    #[allow(clippy::too_many_lines)]
    fn items(&mut self, mut i: usize, end: usize, parent: usize) {
        let mut pending = Pending::default();
        while i < end {
            let t = &self.toks[i];
            match t.kind {
                TokKind::Comment => {
                    if t.is_doc_comment() && t.text.contains("# Panics") {
                        pending.panics_doc = true;
                    } else if !t.is_doc_comment() {
                        // A plain comment breaks a doc run.
                    }
                    i += 1;
                }
                TokKind::Punct if t.text == "#" => {
                    // Attribute: #[…] or #![…].
                    let mut j = i + 1;
                    if self.toks.get(j).is_some_and(|t| t.is_punct('!')) {
                        j += 1;
                    }
                    if self.toks.get(j).is_some_and(|t| t.is_punct('[')) {
                        let close = self.balanced(j, end, '[', ']');
                        if attr_is_test(&self.toks[j + 1..close.min(end)]) {
                            pending.test = true;
                        }
                        i = close.min(end).saturating_add(1);
                    } else {
                        i += 1;
                    }
                }
                TokKind::Ident => match t.text.as_str() {
                    "pub" => {
                        i += 1;
                        if self.toks.get(i).is_some_and(|t| t.is_punct('(')) {
                            i = self.balanced(i, end, '(', ')') + 1;
                        }
                    }
                    "unsafe" | "async" | "default" => i += 1,
                    "const" | "static" | "type" | "use" => {
                        // `const fn` falls through to the fn branch; the
                        // item forms skip to their terminating `;`.
                        if t.text == "const"
                            && self.toks.get(i + 1).is_some_and(|t| t.is_ident("fn"))
                        {
                            i += 1;
                        } else {
                            if t.text == "type" {
                                self.type_alias(i, end, parent);
                            }
                            i = self.skip_to_semi(i + 1, end);
                            pending = Pending::default();
                        }
                    }
                    "extern" => {
                        // `extern "C" fn` prefixes a fn; `extern crate …;`
                        // and foreign blocks are skipped whole.
                        let mut j = i + 1;
                        if self.toks.get(j).is_some_and(|t| t.kind == TokKind::StrLit) {
                            j += 1;
                        }
                        if self.toks.get(j).is_some_and(|t| t.is_ident("fn")) {
                            i = j;
                        } else {
                            i = self.skip_item_tail(j, end);
                            pending = Pending::default();
                        }
                    }
                    "mod" => {
                        i = self.module(i, end, parent, &pending);
                        pending = Pending::default();
                    }
                    "fn" => {
                        i = self.function(i, end, parent, &pending);
                        pending = Pending::default();
                    }
                    "impl" | "trait" => {
                        i = self.impl_or_trait(i, end, parent, &pending);
                        pending = Pending::default();
                    }
                    "enum" => {
                        i = self.enum_def(i, end, parent, &pending);
                        pending = Pending::default();
                    }
                    "struct" | "union" | "macro_rules" => {
                        i = self.skip_item_tail(i + 1, end);
                        pending = Pending::default();
                    }
                    _ => {
                        // Statement/expression token inside a body — not
                        // an item opener. Skip it (bare blocks get walked
                        // inline, which is fine: nested items are still
                        // found, and nothing else in here reads shape).
                        i += 1;
                        pending = Pending::default();
                    }
                },
                _ => {
                    i += 1;
                    pending = Pending::default();
                }
            }
        }
    }

    /// Index of the closing delimiter matching the opener at `open`
    /// (which must hold `open_c`), or `end` when unterminated.
    fn balanced(&self, open: usize, end: usize, open_c: char, close_c: char) -> usize {
        let mut depth = 0i64;
        let mut i = open;
        while i < end {
            let t = &self.toks[i];
            if t.is_punct(open_c) {
                depth += 1;
            } else if t.is_punct(close_c) {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            i += 1;
        }
        end
    }

    /// First top-level `;` after `i` (tracking all three delimiter
    /// kinds), or `end`.
    fn skip_to_semi(&self, mut i: usize, end: usize) -> usize {
        let mut depth = 0i64;
        while i < end {
            let t = &self.toks[i];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
            } else if t.is_punct(';') && depth <= 0 {
                return i + 1;
            }
            i += 1;
        }
        end
    }

    /// Skips an item that ends at either a top-level `;` or a balanced
    /// `{…}` (structs, foreign blocks, `macro_rules!`).
    fn skip_item_tail(&self, mut i: usize, end: usize) -> usize {
        while i < end {
            let t = &self.toks[i];
            if t.is_punct(';') {
                return i + 1;
            }
            if t.is_punct('{') {
                return self.balanced(i, end, '{', '}') + 1;
            }
            if t.is_punct('(') || t.is_punct('[') {
                // Tuple-struct fields / array types: skip whole group.
                let close = if t.is_punct('(') {
                    self.balanced(i, end, '(', ')')
                } else {
                    self.balanced(i, end, '[', ']')
                };
                i = close + 1;
            } else {
                i += 1;
            }
        }
        end
    }

    /// Skips a `<…>` generics group starting at `i` (must hold `<`),
    /// shift-aware (`>>` closes two) and arrow-aware (`->` inside
    /// `Fn() -> T` bounds does not close).
    fn skip_generics(&self, mut i: usize, end: usize) -> usize {
        let mut depth = 0i64;
        while i < end {
            let t = &self.toks[i];
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                let arrow = i > 0 && self.toks[i - 1].is_punct('-');
                if !arrow {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
            }
            i += 1;
        }
        end
    }

    fn module(&mut self, kw: usize, end: usize, parent: usize, pending: &Pending) -> usize {
        let line = self.toks[kw].line;
        let name = self
            .toks
            .get(kw + 1)
            .filter(|t| t.kind == TokKind::Ident || t.kind == TokKind::RawIdent)
            .map(|t| t.text.clone())
            .unwrap_or_default();
        let mut i = kw + 2;
        while i < end && !(self.toks[i].is_punct('{') || self.toks[i].is_punct(';')) {
            i += 1;
        }
        if i >= end || self.toks[i].is_punct(';') {
            return (i + 1).min(end);
        }
        let close = self.balanced(i, end, '{', '}');
        let scope = self.push_scope(parent, ScopeKind::Mod, name, line, pending, (i + 1, close));
        self.items(i + 1, close, scope);
        close + 1
    }

    fn function(&mut self, kw: usize, end: usize, parent: usize, pending: &Pending) -> usize {
        let line = self.toks[kw].line;
        let name = self
            .toks
            .get(kw + 1)
            .filter(|t| t.kind == TokKind::Ident || t.kind == TokKind::RawIdent)
            .map(|t| t.text.clone())
            .unwrap_or_default();
        let mut i = kw + 2;
        if self.toks.get(i).is_some_and(|t| t.is_punct('<')) {
            i = self.skip_generics(i, end);
        }
        if self.toks.get(i).is_some_and(|t| t.is_punct('(')) {
            i = self.balanced(i, end, '(', ')') + 1;
        }
        // Return type / where clause: scan to the body `{` or a `;`
        // (trait method declaration), skipping `->` and generic groups.
        while i < end {
            let t = &self.toks[i];
            if t.is_punct('{') || t.is_punct(';') {
                break;
            }
            if t.is_punct('<') {
                i = self.skip_generics(i, end);
            } else {
                i += 1;
            }
        }
        if i >= end || self.toks[i].is_punct(';') {
            return (i + 1).min(end);
        }
        let close = self.balanced(i, end, '{', '}');
        let scope = self.push_scope(parent, ScopeKind::Fn, name, line, pending, (i + 1, close));
        self.items(i + 1, close, scope);
        close + 1
    }

    fn impl_or_trait(&mut self, kw: usize, end: usize, parent: usize, pending: &Pending) -> usize {
        let kind = if self.toks[kw].is_ident("impl") {
            ScopeKind::Impl
        } else {
            ScopeKind::Trait
        };
        let line = self.toks[kw].line;
        let mut i = kw + 1;
        if self.toks.get(i).is_some_and(|t| t.is_punct('<')) {
            i = self.skip_generics(i, end);
        }
        // Header up to the body; the self-type name is the first ident
        // after `for` when present, else the first ident of the header.
        let mut name = String::new();
        let mut after_for = false;
        let mut named_after_for = false;
        while i < end {
            let t = &self.toks[i];
            if t.is_punct('{') || t.is_punct(';') {
                break;
            }
            if t.is_ident("for") {
                after_for = true;
            } else if t.kind == TokKind::Ident && !t.is_ident("dyn") && !t.is_ident("where") {
                if after_for && !named_after_for {
                    name.clone_from(&t.text);
                    named_after_for = true;
                } else if name.is_empty() {
                    name.clone_from(&t.text);
                }
            }
            if t.is_punct('<') {
                i = self.skip_generics(i, end);
            } else {
                i += 1;
            }
        }
        if i >= end || self.toks[i].is_punct(';') {
            return (i + 1).min(end);
        }
        let close = self.balanced(i, end, '{', '}');
        let scope = self.push_scope(parent, kind, name, line, pending, (i + 1, close));
        self.items(i + 1, close, scope);
        close + 1
    }

    fn enum_def(&mut self, kw: usize, end: usize, parent: usize, pending: &Pending) -> usize {
        let line = self.toks[kw].line;
        let name = self
            .toks
            .get(kw + 1)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .unwrap_or_default();
        let mut i = kw + 2;
        while i < end && !self.toks[i].is_punct('{') {
            if self.toks[i].is_punct('<') {
                i = self.skip_generics(i, end);
            } else if self.toks[i].is_punct(';') {
                return i + 1;
            } else {
                i += 1;
            }
        }
        if i >= end {
            return end;
        }
        let close = self.balanced(i, end, '{', '}');
        let mut variants = Vec::new();
        let mut j = i + 1;
        while j < close {
            let t = &self.toks[j];
            match t.kind {
                TokKind::Punct if t.text == "#" => {
                    // Variant attribute.
                    let mut k = j + 1;
                    if self.toks.get(k).is_some_and(|t| t.is_punct('[')) {
                        k = self.balanced(k, close, '[', ']');
                    }
                    j = k + 1;
                }
                TokKind::Ident => {
                    variants.push((t.text.clone(), t.line));
                    // Skip payload + discriminant to the next comma.
                    j += 1;
                    let mut depth = 0i64;
                    while j < close {
                        let t = &self.toks[j];
                        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                            depth += 1;
                        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                            depth -= 1;
                        } else if t.is_punct(',') && depth == 0 {
                            j += 1;
                            break;
                        }
                        j += 1;
                    }
                }
                _ => j += 1,
            }
        }
        let is_test = pending.test || self.pf.scopes[parent].is_test;
        self.pf.enums.push(EnumDef {
            name,
            line,
            is_test,
            variants,
        });
        close + 1
    }

    /// Records `type Msg = NAME;` declared inside an impl (the actor
    /// protocol declaration), non-test scopes only.
    fn type_alias(&mut self, kw: usize, end: usize, parent: usize) {
        if self.pf.scopes[parent].kind != ScopeKind::Impl || self.pf.scopes[parent].is_test {
            return;
        }
        let is_msg = self.toks.get(kw + 1).is_some_and(|t| t.is_ident("Msg"));
        let eq = self.toks.get(kw + 2).is_some_and(|t| t.is_punct('='));
        if is_msg && eq {
            if let Some(t) = self.toks.get(kw + 3).filter(|t| t.kind == TokKind::Ident) {
                let _ = end;
                self.pf.msg_types.push(t.text.clone());
            }
        }
    }

    fn push_scope(
        &mut self,
        parent: usize,
        kind: ScopeKind,
        name: String,
        line: u32,
        pending: &Pending,
        body: (usize, usize),
    ) -> usize {
        self.pf.scopes.push(Scope {
            parent,
            kind,
            name,
            line,
            is_test: pending.test || self.pf.scopes[parent].is_test,
            panics_documented: pending.panics_doc,
            body,
        });
        self.pf.scopes.len() - 1
    }
}

/// True when the attribute tokens mark test-only code: `#[test]`,
/// `#[cfg(test)]`, `#[cfg(any(test, …))]`, ….
fn attr_is_test(attr: &[Tok]) -> bool {
    let idents: Vec<&str> = attr
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    idents == ["test"] || (idents.contains(&"cfg") && idents.contains(&"test"))
}

/// Finds and parses every `match` expression in the token stream.
fn scan_matches(toks: &[Tok]) -> Vec<MatchExpr> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].is_ident("match") {
            if let Some(m) = parse_match(toks, i) {
                out.push(m);
            }
        }
    }
    out
}

/// Parses the `match` whose keyword sits at `kw`.
fn parse_match(toks: &[Tok], kw: usize) -> Option<MatchExpr> {
    // Scrutinee: to the first `{` at delimiter depth 0.
    let mut i = kw + 1;
    let mut depth = 0i64;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct('{') && depth == 0 {
            break;
        }
        i += 1;
    }
    if i >= toks.len() {
        return None;
    }
    let open = i;
    let close = {
        let mut depth = 0i64;
        let mut j = open;
        loop {
            if j >= toks.len() {
                break toks.len();
            }
            if toks[j].is_punct('{') {
                depth += 1;
            } else if toks[j].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break j;
                }
            }
            j += 1;
        }
    };

    let mut arms = Vec::new();
    let mut j = open + 1;
    while j < close {
        if toks[j].kind == TokKind::Comment {
            j += 1;
            continue;
        }
        // Pattern: through the `=>` at depth 0; an `if` guard ends the
        // pattern early.
        let pat_start = j;
        let mut pat_end = j;
        let mut guarded = false;
        let mut depth = 0i64;
        let mut found_arrow = false;
        while j < close {
            let t = &toks[j];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
            } else if depth == 0 && t.is_ident("if") && !guarded {
                guarded = true;
                pat_end = j;
            } else if depth == 0
                && t.is_punct('=')
                && toks.get(j + 1).is_some_and(|n| n.is_punct('>'))
            {
                if !guarded {
                    pat_end = j;
                }
                j += 2;
                found_arrow = true;
                break;
            }
            j += 1;
        }
        if !found_arrow {
            break;
        }
        arms.push(Arm {
            line: toks[pat_start].line,
            pat: (pat_start, pat_end),
            guarded,
            catch_all: pattern_is_catch_all(&toks[pat_start..pat_end]),
        });
        // Body: a balanced block, or an expression to the `,` at depth 0.
        if toks.get(j).is_some_and(|t| t.is_punct('{')) {
            let mut depth = 0i64;
            while j < close {
                if toks[j].is_punct('{') || toks[j].is_punct('(') || toks[j].is_punct('[') {
                    depth += 1;
                } else if toks[j].is_punct('}') || toks[j].is_punct(')') || toks[j].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        } else {
            let mut depth = 0i64;
            while j < close {
                let t = &toks[j];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth -= 1;
                } else if t.is_punct(',') && depth == 0 {
                    break;
                }
                j += 1;
            }
        }
        if toks.get(j).is_some_and(|t| t.is_punct(',')) {
            j += 1;
        }
    }
    Some(MatchExpr {
        line: toks[kw].line,
        tok: kw,
        arms,
    })
}

/// True when the pattern tokens form a top-level catch-all: `_`, a bare
/// binding (`other`), or either with `ref`/`mut` qualifiers.
fn pattern_is_catch_all(pat: &[Tok]) -> bool {
    let meaningful: Vec<&Tok> = pat
        .iter()
        .filter(|t| t.kind != TokKind::Comment && !t.is_ident("ref") && !t.is_ident("mut"))
        .collect();
    match meaningful.as_slice() {
        [t] => t.kind == TokKind::Ident,
        _ => false,
    }
}

/// Token ranges that are pattern or `use` position: match-arm patterns,
/// `let` patterns (covers `if let` / `while let` / `let … else`), and
/// `use` trees.
fn scan_non_expr_ranges(toks: &[Tok], matches: &[MatchExpr]) -> Vec<(usize, usize)> {
    let mut out: Vec<(usize, usize)> = matches
        .iter()
        .flat_map(|m| m.arms.iter().map(|a| a.pat))
        .collect();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_ident("let") {
            // Pattern runs to the `=` at depth 0 (or `;`/`{` for a
            // `let x;` declaration / malformed input).
            let start = i + 1;
            let mut j = start;
            let mut depth = 0i64;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                } else if depth == 0
                    && (t.is_punct(';')
                        || (t.is_punct('=') && !toks.get(j + 1).is_some_and(|n| n.is_punct('='))))
                {
                    break;
                }
                j += 1;
            }
            out.push((start, j));
            i = j + 1;
        } else if t.is_ident("use") {
            let start = i + 1;
            let mut j = start;
            while j < toks.len() && !toks[j].is_punct(';') {
                j += 1;
            }
            out.push((start, j));
            i = j + 1;
        } else {
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scope_named<'a>(pf: &'a ParsedFile, name: &str) -> &'a Scope {
        pf.scopes
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no scope named {name}"))
    }

    fn tok_at_line(pf: &ParsedFile, line: u32) -> usize {
        pf.tokens
            .iter()
            .position(|t| t.line == line && t.kind != TokKind::Comment)
            .expect("line has tokens")
    }

    #[test]
    fn nesting_and_names() {
        let pf = ParsedFile::parse(concat!(
            "mod outer {\n",
            "    mod inner {\n",
            "        fn deep() { helper(); }\n",
            "    }\n",
            "    impl Actor for HostActor {\n",
            "        fn on_message(&mut self) {}\n",
            "    }\n",
            "}\n",
        ));
        assert_eq!(scope_named(&pf, "outer").kind, ScopeKind::Mod);
        let inner = scope_named(&pf, "inner");
        assert_eq!(pf.scopes[inner.parent].name, "outer");
        let deep = scope_named(&pf, "deep");
        assert_eq!(pf.scopes[deep.parent].name, "inner");
        let imp = scope_named(&pf, "HostActor");
        assert_eq!(imp.kind, ScopeKind::Impl);
        let method = scope_named(&pf, "on_message");
        assert_eq!(pf.scopes[method.parent].name, "HostActor");
    }

    #[test]
    fn cfg_test_inherits_through_nested_mods() {
        // v1's line mask lost track when test mods nested; the scope
        // tree carries the flag all the way down.
        let pf = ParsedFile::parse(concat!(
            "fn lib() {}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    mod deeper {\n",
            "        fn helper() {}\n",
            "    }\n",
            "    #[test]\n",
            "    fn t() {}\n",
            "}\n",
            "fn lib2() {}\n",
        ));
        assert!(!scope_named(&pf, "lib").is_test);
        assert!(scope_named(&pf, "tests").is_test);
        assert!(scope_named(&pf, "deeper").is_test);
        assert!(scope_named(&pf, "helper").is_test);
        assert!(scope_named(&pf, "t").is_test);
        assert!(
            !scope_named(&pf, "lib2").is_test,
            "mask must end with the mod"
        );
    }

    #[test]
    fn test_attribute_on_single_fn() {
        let pf = ParsedFile::parse("#[test]\nfn t() { boom(); }\nfn lib() {}\n");
        assert!(scope_named(&pf, "t").is_test);
        assert!(!scope_named(&pf, "lib").is_test);
    }

    #[test]
    fn cfg_attrs_that_are_not_test_do_not_mask() {
        let pf = ParsedFile::parse("#[cfg(feature = \"extra\")]\nfn gated() {}\n");
        assert!(!scope_named(&pf, "gated").is_test);
        let pf = ParsedFile::parse("#[cfg(any(test, feature = \"x\"))]\nfn gated() {}\n");
        assert!(scope_named(&pf, "gated").is_test);
    }

    #[test]
    fn panics_doc_detected_and_inherited() {
        let pf = ParsedFile::parse(concat!(
            "/// Does a thing.\n",
            "///\n",
            "/// # Panics\n",
            "///\n",
            "/// Panics if the input is empty.\n",
            "pub fn documented(xs: &[u32]) -> u32 {\n",
            "    fn helper() {}\n",
            "    xs[0]\n",
            "}\n",
            "pub fn undocumented() {}\n",
        ));
        let doc = scope_named(&pf, "documented");
        assert!(doc.panics_documented);
        assert!(!scope_named(&pf, "undocumented").panics_documented);
        // A token inside the helper still counts as documented: the
        // helper is part of the documented fn's body.
        let helper = scope_named(&pf, "helper");
        assert!(pf.panics_documented_at(helper.body.0.saturating_sub(1)));
    }

    #[test]
    fn enum_variants_with_payloads_and_attrs() {
        let pf = ParsedFile::parse(concat!(
            "/// Protocol.\n",
            "#[derive(Clone, Debug)]\n",
            "pub enum MailMsg {\n",
            "    /// Unit.\n",
            "    Ping,\n",
            "    #[allow(dead_code)]\n",
            "    Tuple(u32, String),\n",
            "    Struct { a: u32, b: Vec<u8> },\n",
            "    WithDiscriminant = 4,\n",
            "}\n",
        ));
        assert_eq!(pf.enums.len(), 1);
        let e = &pf.enums[0];
        assert_eq!(e.name, "MailMsg");
        let names: Vec<&str> = e.variants.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["Ping", "Tuple", "Struct", "WithDiscriminant"]);
    }

    #[test]
    fn msg_type_declarations_resolved() {
        let pf = ParsedFile::parse(concat!(
            "impl Actor for HostActor {\n",
            "    type Msg = MailMsg;\n",
            "}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    impl Actor for Fake { type Msg = FakeMsg; }\n",
            "}\n",
        ));
        assert_eq!(pf.msg_types, vec!["MailMsg"], "test impls do not count");
    }

    #[test]
    fn match_arms_patterns_guards_and_catch_all() {
        let pf = ParsedFile::parse(concat!(
            "fn f(m: MailMsg) {\n",
            "    match m {\n",
            "        MailMsg::Ping => reply(),\n",
            "        MailMsg::Tuple(a, b) if a > 0 => consume(a, b),\n",
            "        MailMsg::Struct { a, .. } => {\n",
            "            nested(a);\n",
            "        }\n",
            "        _ => {}\n",
            "    }\n",
            "}\n",
        ));
        assert_eq!(pf.matches.len(), 1);
        let m = &pf.matches[0];
        assert_eq!(m.arms.len(), 4);
        assert!(!m.arms[0].catch_all);
        assert!(m.arms[1].guarded);
        assert!(
            !m.arms[2].catch_all,
            "struct pattern with .. is not a catch-all"
        );
        assert!(m.arms[3].catch_all);
    }

    #[test]
    fn bare_binding_arm_is_catch_all() {
        let pf = ParsedFile::parse("fn f(x: E) { match x { E::A => {}, other => use_it(other) } }");
        let m = &pf.matches[0];
        assert!(!m.arms[0].catch_all);
        assert!(m.arms[1].catch_all);
    }

    #[test]
    fn nested_matches_are_separate_entries() {
        let pf = ParsedFile::parse(concat!(
            "fn f(a: E, b: F) {\n",
            "    match a {\n",
            "        E::X => match b {\n",
            "            F::Y => {}\n",
            "            _ => {}\n",
            "        },\n",
            "        _ => {}\n",
            "    }\n",
            "}\n",
        ));
        assert_eq!(pf.matches.len(), 2);
        let outer = &pf.matches[0];
        let inner = &pf.matches[1];
        assert_eq!(outer.arms.len(), 2);
        assert_eq!(inner.arms.len(), 2);
    }

    #[test]
    fn let_and_use_ranges_are_non_expression() {
        let src =
            "use crate::E;\nfn f(v: Option<E>) {\n    if let Some(E::A) = v { go(E::B); }\n}\n";
        let pf = ParsedFile::parse(src);
        // E::A sits in a let pattern; E::B is expression position.
        let a = pf
            .tokens
            .iter()
            .position(|t| t.is_ident("A"))
            .expect("A token");
        let b = pf
            .tokens
            .iter()
            .position(|t| t.is_ident("B"))
            .expect("B token");
        assert!(pf.in_pattern(a));
        assert!(!pf.in_pattern(b));
        let use_e = pf.tokens.iter().position(|t| t.is_ident("E")).expect("E");
        assert!(pf.in_pattern(use_e), "use tree is not a construction site");
    }

    #[test]
    fn scope_of_finds_innermost() {
        let src = "fn outer() {\n    fn inner() {\n        deep();\n    }\n}\n";
        let pf = ParsedFile::parse(src);
        let deep_tok = tok_at_line(&pf, 3);
        assert_eq!(pf.scopes[pf.scope_of(deep_tok)].name, "inner");
    }

    #[test]
    fn struct_and_const_items_are_skipped_cleanly() {
        let pf = ParsedFile::parse(concat!(
            "pub struct S { pub x: u32 }\n",
            "struct T(u32);\n",
            "const N: usize = 4;\n",
            "static NAMES: [&str; 2] = [\"a\", \"b\"];\n",
            "type Alias = Vec<u32>;\n",
            "fn after() {}\n",
        ));
        assert!(pf.scopes.iter().any(|s| s.name == "after"));
    }

    #[test]
    fn generics_with_arrows_and_shifts() {
        let pf = ParsedFile::parse(
            "fn apply<F: Fn(u32) -> Vec<Vec<u32>>>(f: F) -> u32 { f(1)[0][0] }\nfn next() {}\n",
        );
        assert!(pf.scopes.iter().any(|s| s.name == "apply"));
        assert!(pf.scopes.iter().any(|s| s.name == "next"));
    }
}
