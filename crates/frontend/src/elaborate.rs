//! Elaboration: surface AST → validated [`LexSpec`] + [`Cfg`].
//!
//! Elaboration is where user text earns the right to become a
//! pipeline. It determines the character alphabet (explicit
//! `alphabet [...]` declaration, or the set of characters the spec
//! mentions), lowers surface regexes to the core [`Regex`], promotes
//! inline production literals to implicit high-priority tokens
//! (deduplicated; reusing a declared token whose regex is exactly that
//! literal), and cross-checks every name — producing span-carrying
//! [`FrontendError`]s for anything inconsistent. The outputs are
//! constructed through the same validating APIs Rust-built specs use
//! (`LexSpecBuilder`, `Cfg::new`), so nothing the elaborator emits is
//! trusted on its own say-so.
//!
//! Token priority (maximal munch breaks ties by rule order): implicit
//! production literals first, in order of first appearance, then
//! declared `token`/`skip` rules in declaration order. Literals outrank
//! declarations so keywords like `'if'` beat an identifier token on an
//! equal-length match — declaring `token ID = [a-z]+ ;` after using
//! `'if'` in a production behaves like every lexer generator's
//! keywords-before-identifiers convention.

use std::collections::BTreeMap;

use lambek_cfg::grammar::{Cfg, GSym, Production};
use lambek_core::alphabet::{Alphabet, Symbol};
use lambek_lex::{LexSpec, LexSpecBuilder, Span};
use regex_grammars::ast::Regex;

use crate::surface::{
    ClassAst, ClassItem, DeclKind, Ident, RegexAst, RegexKind, SeqAst, SpecAst, SymKind,
};
use crate::{quote_name, FrontendError, FrontendErrorKind};

/// The elaborated spec: a validated lexer + token-level grammar pair,
/// plus the source-span tables diagnostics and conflict reports point
/// back through.
#[derive(Debug, Clone)]
pub struct Elaborated {
    /// The lexical specification (literals first, then declared rules).
    pub spec: LexSpec,
    /// The token-level grammar over `spec`'s token alphabet.
    pub cfg: Cfg,
    /// The start nonterminal's name.
    pub start_name: String,
    /// Per nonterminal (grammar order): its name and declaration span.
    pub rule_spans: Vec<(String, Span)>,
    /// Per nonterminal, per alternative: the alternative's source span.
    pub alt_spans: Vec<Vec<Span>>,
    /// Per declared token/skip rule: its name and declaration span.
    pub token_spans: Vec<(String, Span)>,
    /// Names of the implicit literal tokens, in priority order.
    pub literal_tokens: Vec<String>,
}

/// Expands a class item to its characters.
fn item_chars(item: ClassItem, out: &mut Vec<char>) {
    match item {
        ClassItem::Char(c) => out.push(c),
        ClassItem::Range(lo, hi) => out.extend((lo as u32..=hi as u32).filter_map(char::from_u32)),
    }
}

/// The characters a (non-negated) class lists, in source order.
fn listed_chars(class: &ClassAst) -> Vec<char> {
    let mut out = Vec::new();
    for item in &class.items {
        item_chars(*item, &mut out);
    }
    out
}

/// Collects every character a regex mentions into `chars`; negated
/// classes are an error without an explicit alphabet.
fn collect_regex_chars(
    re: &RegexAst,
    chars: &mut Vec<char>,
    errors: &mut Vec<FrontendError>,
    text: &str,
) {
    match &re.kind {
        RegexKind::Literal(body) => chars.extend(body.chars()),
        RegexKind::Class(class) => {
            if class.negated {
                errors.push(FrontendError::new(
                    FrontendErrorKind::NegatedClassNeedsAlphabet,
                    class.span,
                    text,
                ));
            } else {
                chars.extend(listed_chars(class));
            }
        }
        RegexKind::Alt(l, r) | RegexKind::Concat(l, r) => {
            collect_regex_chars(l, chars, errors, text);
            collect_regex_chars(r, chars, errors, text);
        }
        RegexKind::Star(inner) | RegexKind::Plus(inner) | RegexKind::Opt(inner) => {
            collect_regex_chars(inner, chars, errors, text)
        }
    }
}

/// The single-char-symbol alternation for `syms` (deduplicated, in
/// alphabet order for determinism). `None` when empty.
fn chars_regex(mut syms: Vec<Symbol>) -> Option<Regex> {
    syms.sort_by_key(|s| s.index());
    syms.dedup();
    let mut iter = syms.into_iter();
    let first = Regex::Char(iter.next()?);
    Some(iter.fold(first, |acc, s| Regex::alt(acc, Regex::Char(s))))
}

/// Lowers a surface class to a core regex over `sigma`.
fn lower_class(
    class: &ClassAst,
    sigma: &Alphabet,
    explicit_alphabet: bool,
    text: &str,
) -> Result<Regex, FrontendError> {
    if class.negated && !explicit_alphabet {
        return Err(FrontendError::new(
            FrontendErrorKind::NegatedClassNeedsAlphabet,
            class.span,
            text,
        ));
    }
    let mut listed = Vec::new();
    for c in listed_chars(class) {
        match sigma.symbol_of_char(c) {
            Some(sym) => listed.push(sym),
            None => {
                // Without an explicit alphabet every mentioned char was
                // collected into it, so a miss implies `alphabet [...]`
                // was declared and this char is outside it.
                return Err(FrontendError::new(
                    FrontendErrorKind::CharOutsideAlphabet { ch: c },
                    class.span,
                    text,
                ));
            }
        }
    }
    let syms: Vec<Symbol> = if class.negated {
        let listed: std::collections::BTreeSet<usize> = listed.iter().map(|s| s.index()).collect();
        sigma
            .symbols()
            .filter(|s| !listed.contains(&s.index()))
            .collect()
    } else {
        listed
    };
    chars_regex(syms)
        .ok_or_else(|| FrontendError::new(FrontendErrorKind::EmptyClass, class.span, text))
}

/// Lowers a literal body to a core regex (ε for the empty body — the
/// nullability check rejects it later with the right span).
fn lower_literal(
    body: &str,
    span: Span,
    sigma: &Alphabet,
    text: &str,
) -> Result<Regex, FrontendError> {
    let mut out = Regex::Eps;
    for c in body.chars() {
        let sym = sigma.symbol_of_char(c).ok_or_else(|| {
            FrontendError::new(FrontendErrorKind::CharOutsideAlphabet { ch: c }, span, text)
        })?;
        out = match out {
            Regex::Eps => Regex::Char(sym),
            prefix => Regex::concat(prefix, Regex::Char(sym)),
        };
    }
    Ok(out)
}

/// Lowers a surface regex to the core [`Regex`] over `sigma`.
fn lower_regex(
    re: &RegexAst,
    sigma: &Alphabet,
    explicit_alphabet: bool,
    text: &str,
) -> Result<Regex, FrontendError> {
    match &re.kind {
        RegexKind::Literal(body) => lower_literal(body, re.span, sigma, text),
        RegexKind::Class(class) => lower_class(class, sigma, explicit_alphabet, text),
        RegexKind::Alt(l, r) => Ok(Regex::alt(
            lower_regex(l, sigma, explicit_alphabet, text)?,
            lower_regex(r, sigma, explicit_alphabet, text)?,
        )),
        RegexKind::Concat(l, r) => Ok(Regex::concat(
            lower_regex(l, sigma, explicit_alphabet, text)?,
            lower_regex(r, sigma, explicit_alphabet, text)?,
        )),
        RegexKind::Star(inner) => Ok(Regex::star(lower_regex(
            inner,
            sigma,
            explicit_alphabet,
            text,
        )?)),
        RegexKind::Plus(inner) => {
            let inner = lower_regex(inner, sigma, explicit_alphabet, text)?;
            Ok(Regex::concat(inner.clone(), Regex::star(inner)))
        }
        RegexKind::Opt(inner) => Ok(Regex::alt(
            lower_regex(inner, sigma, explicit_alphabet, text)?,
            Regex::Eps,
        )),
    }
}

/// Elaborates a parsed spec into a validated lexer + grammar pair.
///
/// # Errors
///
/// All diagnostics found in the failing stage, each with the span,
/// line and column of the offending source text.
pub fn elaborate(text: &str, ast: &SpecAst) -> Result<Elaborated, Vec<FrontendError>> {
    let mut errors: Vec<FrontendError> = Vec::new();
    let whole = Span {
        start: 0,
        end: text.len(),
    };

    // ---- Partition the declarations -------------------------------
    struct TokDecl<'a> {
        name: &'a Ident,
        regex: &'a RegexAst,
        skip: bool,
        span: Span,
    }
    struct RuleDecl<'a> {
        name: &'a Ident,
        alts: &'a [SeqAst],
        span: Span,
    }
    let mut tok_decls: Vec<TokDecl<'_>> = Vec::new();
    let mut rule_decls: Vec<RuleDecl<'_>> = Vec::new();
    let mut start: Option<&Ident> = None;
    let mut alphabet_decl: Option<&ClassAst> = None;
    for decl in &ast.decls {
        match &decl.kind {
            DeclKind::Token { name, regex } => tok_decls.push(TokDecl {
                name,
                regex,
                skip: false,
                span: decl.span,
            }),
            DeclKind::Skip { name, regex } => tok_decls.push(TokDecl {
                name,
                regex,
                skip: true,
                span: decl.span,
            }),
            DeclKind::Start { name } => {
                if start.is_some() {
                    errors.push(FrontendError::new(
                        FrontendErrorKind::DuplicateStart,
                        decl.span,
                        text,
                    ));
                } else {
                    start = Some(name);
                }
            }
            DeclKind::Alphabet { class } => {
                if alphabet_decl.is_some() {
                    errors.push(FrontendError::new(
                        FrontendErrorKind::DuplicateAlphabet,
                        decl.span,
                        text,
                    ));
                } else if class.negated {
                    errors.push(FrontendError::new(
                        FrontendErrorKind::AlphabetNegated,
                        class.span,
                        text,
                    ));
                } else {
                    alphabet_decl = Some(class);
                }
            }
            DeclKind::Rule { name, alts } => rule_decls.push(RuleDecl {
                name,
                alts,
                span: decl.span,
            }),
        }
    }

    // ---- Name consistency -----------------------------------------
    let mut token_names: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, t) in tok_decls.iter().enumerate() {
        if token_names.insert(&t.name.text, i).is_some() {
            errors.push(FrontendError::new(
                FrontendErrorKind::DuplicateToken {
                    name: t.name.text.clone(),
                },
                t.name.span,
                text,
            ));
        }
    }
    let mut rule_names: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, r) in rule_decls.iter().enumerate() {
        if rule_names.insert(&r.name.text, i).is_some() {
            errors.push(FrontendError::new(
                FrontendErrorKind::DuplicateRule {
                    name: r.name.text.clone(),
                },
                r.name.span,
                text,
            ));
        }
    }
    for r in &rule_decls {
        if token_names.contains_key(r.name.text.as_str()) {
            errors.push(FrontendError::new(
                FrontendErrorKind::TokenNonterminalClash {
                    name: r.name.text.clone(),
                },
                r.name.span,
                text,
            ));
        }
    }
    if rule_decls.is_empty() {
        errors.push(FrontendError::new(FrontendErrorKind::NoRules, whole, text));
    }
    // Inline production literals, in order of first appearance.
    let mut literal_order: Vec<(String, Span)> = Vec::new();
    let mut literal_seen: BTreeMap<String, Span> = BTreeMap::new();
    for r in &rule_decls {
        for alt in r.alts {
            for sym in &alt.syms {
                if let SymKind::Literal(body) = &sym.kind {
                    if body.is_empty() {
                        errors.push(FrontendError::new(
                            FrontendErrorKind::EmptyLiteral,
                            sym.span,
                            text,
                        ));
                    } else if !literal_seen.contains_key(body) {
                        literal_seen.insert(body.clone(), sym.span);
                        literal_order.push((body.clone(), sym.span));
                    }
                }
            }
        }
    }
    if tok_decls.iter().all(|t| t.skip) && literal_order.is_empty() {
        errors.push(FrontendError::new(
            FrontendErrorKind::NoTokenRules,
            whole,
            text,
        ));
    }
    if !errors.is_empty() {
        return Err(errors);
    }

    // ---- Character alphabet ---------------------------------------
    let explicit_alphabet = alphabet_decl.is_some();
    let sigma = if let Some(class) = alphabet_decl {
        let mut chars = listed_chars(class);
        chars.sort_unstable();
        chars.dedup();
        Alphabet::from_chars(&chars.iter().collect::<String>())
    } else {
        let mut chars: Vec<char> = Vec::new();
        for t in &tok_decls {
            collect_regex_chars(t.regex, &mut chars, &mut errors, text);
        }
        for (body, _) in &literal_order {
            chars.extend(body.chars());
        }
        if !errors.is_empty() {
            return Err(errors);
        }
        chars.sort_unstable();
        chars.dedup();
        if chars.is_empty() {
            // Tokens exist (checked above) but lower to no characters —
            // only possible through empty literals, caught earlier; be
            // defensive anyway.
            return Err(vec![FrontendError::new(
                FrontendErrorKind::NoTokenRules,
                whole,
                text,
            )]);
        }
        Alphabet::from_chars(&chars.iter().collect::<String>())
    };

    // ---- Lower declared rules and literals ------------------------
    let mut lowered: Vec<Regex> = Vec::with_capacity(tok_decls.len());
    for t in &tok_decls {
        match lower_regex(t.regex, &sigma, explicit_alphabet, text) {
            Ok(re) => {
                if re.nullable() {
                    errors.push(FrontendError::new(
                        FrontendErrorKind::NullableToken {
                            name: t.name.text.clone(),
                        },
                        t.regex.span,
                        text,
                    ));
                }
                lowered.push(re);
            }
            Err(e) => {
                errors.push(e);
                lowered.push(Regex::Empty);
            }
        }
    }
    let mut literal_res: Vec<(String, Span, Regex)> = Vec::new();
    for (body, span) in &literal_order {
        match lower_literal(body, *span, &sigma, text) {
            Ok(re) => literal_res.push((body.clone(), *span, re)),
            Err(e) => errors.push(e),
        }
    }
    if !errors.is_empty() {
        return Err(errors);
    }

    // ---- Literal → token resolution -------------------------------
    // A literal whose regex is structurally a declared (non-skip)
    // token's regex reuses that token; otherwise it becomes an implicit
    // token named by its quoted spelling, ahead of every declared rule
    // in priority.
    let mut literal_token: BTreeMap<&str, String> = BTreeMap::new();
    let mut implicit: Vec<(String, Regex)> = Vec::new();
    for (body, _span, re) in &literal_res {
        let reused = tok_decls
            .iter()
            .zip(&lowered)
            .find(|(t, lowered_re)| !t.skip && *lowered_re == re)
            .map(|(t, _)| t.name.text.clone());
        let name = reused.unwrap_or_else(|| {
            let name = quote_name(body);
            implicit.push((name.clone(), re.clone()));
            name
        });
        literal_token.insert(body.as_str(), name);
    }

    // ---- Build the LexSpec ----------------------------------------
    let mut builder = LexSpecBuilder::new(sigma.clone());
    for (name, re) in &implicit {
        builder = builder
            .token_re(name, re.clone())
            .expect("implicit literal tokens are pre-validated");
    }
    for (t, re) in tok_decls.iter().zip(&lowered) {
        builder = if t.skip {
            builder
                .skip_re(&t.name.text, re.clone())
                .expect("declared skip rules are pre-validated")
        } else {
            builder
                .token_re(&t.name.text, re.clone())
                .expect("declared token rules are pre-validated")
        };
    }
    let spec = builder.build().expect("token rules are pre-validated");
    let tokens = spec.token_alphabet().clone();

    // ---- Resolve productions --------------------------------------
    let skip_names: BTreeMap<&str, ()> = tok_decls
        .iter()
        .filter(|t| t.skip)
        .map(|t| (t.name.text.as_str(), ()))
        .collect();
    let mut productions: Vec<Vec<Production>> = Vec::with_capacity(rule_decls.len());
    let mut alt_spans: Vec<Vec<Span>> = Vec::with_capacity(rule_decls.len());
    for r in &rule_decls {
        let mut alts = Vec::with_capacity(r.alts.len());
        let mut spans = Vec::with_capacity(r.alts.len());
        for alt in r.alts {
            let mut rhs = Vec::with_capacity(alt.syms.len());
            for sym in &alt.syms {
                match &sym.kind {
                    SymKind::Ident(name) => {
                        if let Some(&nt) = rule_names.get(name.as_str()) {
                            rhs.push(GSym::N(nt));
                        } else if skip_names.contains_key(name.as_str()) {
                            errors.push(FrontendError::new(
                                FrontendErrorKind::SkipReferenced { name: name.clone() },
                                sym.span,
                                text,
                            ));
                        } else if let Some(tok) = tokens.symbol(name) {
                            rhs.push(GSym::T(tok));
                        } else {
                            errors.push(FrontendError::new(
                                FrontendErrorKind::UndefinedSymbol { name: name.clone() },
                                sym.span,
                                text,
                            ));
                        }
                    }
                    SymKind::Literal(body) => {
                        let name = &literal_token[body.as_str()];
                        let tok = tokens
                            .symbol(name)
                            .expect("literal tokens are in the token alphabet");
                        rhs.push(GSym::T(tok));
                    }
                }
            }
            alts.push(Production { rhs });
            spans.push(alt.span);
        }
        productions.push(alts);
        alt_spans.push(spans);
    }

    // ---- Start symbol ---------------------------------------------
    let start_idx = match start {
        Some(id) => match rule_names.get(id.text.as_str()) {
            Some(&nt) => nt,
            None => {
                errors.push(FrontendError::new(
                    FrontendErrorKind::UndefinedStart {
                        name: id.text.clone(),
                    },
                    id.span,
                    text,
                ));
                0
            }
        },
        None => 0,
    };
    if !errors.is_empty() {
        return Err(errors);
    }

    let cfg = Cfg::new(
        tokens,
        rule_decls.iter().map(|r| r.name.text.clone()).collect(),
        productions,
        start_idx,
    );
    Ok(Elaborated {
        start_name: cfg.name(start_idx).to_owned(),
        spec,
        cfg,
        rule_spans: rule_decls
            .iter()
            .map(|r| (r.name.text.clone(), r.span))
            .collect(),
        alt_spans,
        token_spans: tok_decls
            .iter()
            .map(|t| (t.name.text.clone(), t.span))
            .collect(),
        literal_tokens: implicit.iter().map(|(name, _)| name.clone()).collect(),
    })
}
