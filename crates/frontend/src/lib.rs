//! Self-hosting text frontend for grammar + lex specs.
//!
//! This crate gives the serving engine a *text surface*: a user submits
//! a grammar language file (BNF-style productions plus prioritized
//! token rules)
//!
//! ```text
//! token NUM = [0-9]+ ;
//! skip  WS  = [ \t\n]+ ;
//! Expr ::= Expr '+' Term | Term ;
//! Term ::= NUM | '(' Expr ')' ;
//! ```
//!
//! and gets back a compiled [`LexSpec`](lambek_lex::LexSpec) +
//! [`Cfg`](lambek_cfg::grammar::Cfg) pair, ready to serve as a
//! `lexed_cfg` pipeline. The frontend is **self-hosted**: the grammar
//! language's own lexer and parser are a certified lex/LR pipeline
//! built from the same crates user grammars compile into
//! ([`bootstrap`]). Elaboration failures are structured,
//! span-carrying [`FrontendError`]s (line/column included); LALR
//! conflicts surface the existing
//! [`LrConflictReport`] annotated with the
//! source spans of the implicated rules; and compile-time budgets
//! ([`Budgets`]) shed oversized specs as structured
//! [`BudgetExceeded`] outcomes rather than panics or timeouts.
//!
//! The trust boundary: user text is untrusted, but nothing it says is
//! ever *believed* — the bootstrap parse is certified, the elaborated
//! spec is re-validated by `LexSpecBuilder`/`Cfg` construction, and the
//! compiled pipeline re-certifies every parse it serves. A malicious
//! spec can be rejected or shed; it cannot make the engine
//! mis-certify.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;
use std::time::Duration;

use lambek_lex::Span;
use lambek_lr::LrConflictReport;

pub mod bootstrap;
pub mod elaborate;
pub mod presets;
pub mod probes;
pub mod surface;

pub use bootstrap::{meta_cfg, meta_spec, parse_text};
pub use elaborate::{elaborate, Elaborated};
pub use surface::{pretty, SpecAst};

/// The implicit-token name of an inline production literal: its quoted
/// spelling (`+` → `'+'`), so lexer diagnostics and token alphabets
/// print the way the user wrote the symbol.
pub fn quote_name(body: &str) -> String {
    surface::quote_literal(body)
}

/// A structured, source-located frontend diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontendError {
    /// What went wrong.
    pub kind: FrontendErrorKind,
    /// The byte span of the offending source text (possibly empty —
    /// a point, e.g. at an unexpected token).
    pub span: Span,
    /// 1-based source line of `span.start`.
    pub line: u32,
    /// 1-based source column (in characters) of `span.start`.
    pub col: u32,
}

impl FrontendError {
    /// Builds an error, locating `span` in `text` (line/column).
    pub fn new(kind: FrontendErrorKind, span: Span, text: &str) -> FrontendError {
        let (line, col) = line_col(text, span.start);
        FrontendError {
            kind,
            span,
            line,
            col,
        }
    }
}

impl fmt::Display for FrontendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.kind)
    }
}

impl std::error::Error for FrontendError {}

/// The 1-based (line, column) of byte offset `at` in `text`. Offsets
/// past the end locate one past the last character.
pub fn line_col(text: &str, at: usize) -> (u32, u32) {
    let at = at.min(text.len());
    let mut line = 1u32;
    let mut col = 1u32;
    for (i, c) in text.char_indices() {
        if i >= at {
            break;
        }
        if c == '\n' {
            line += 1;
            col = 1;
        } else {
            col += 1;
        }
    }
    (line, col)
}

/// The elaboration diagnostic kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrontendErrorKind {
    /// The text failed the bootstrap lex or parse.
    Syntax {
        /// What the bootstrap pipeline reported.
        message: String,
    },
    /// A production references a name that is neither a rule nor a
    /// token.
    UndefinedSymbol {
        /// The unresolved name.
        name: String,
    },
    /// `start` names something that is not a rule.
    UndefinedStart {
        /// The named start.
        name: String,
    },
    /// Two rules define the same nonterminal.
    DuplicateRule {
        /// The doubly defined name.
        name: String,
    },
    /// Two `token`/`skip` declarations share a name.
    DuplicateToken {
        /// The doubly declared name.
        name: String,
    },
    /// More than one `start` declaration.
    DuplicateStart,
    /// More than one `alphabet` declaration.
    DuplicateAlphabet,
    /// A name is both a token and a rule, so references to it would be
    /// ambiguous.
    TokenNonterminalClash {
        /// The clashing name.
        name: String,
    },
    /// A production references a `skip` rule — skips never reach the
    /// token alphabet the grammar parses over (the token/grammar
    /// alphabet mismatch, caught at the source level).
    SkipReferenced {
        /// The referenced skip rule.
        name: String,
    },
    /// A token (or skip) rule matches the empty string, which the
    /// maximal-munch scanner cannot serve.
    NullableToken {
        /// The nullable rule.
        name: String,
    },
    /// An inline production literal is empty (`''`).
    EmptyLiteral,
    /// A character class denotes no characters.
    EmptyClass,
    /// A class range `lo-hi` with `lo > hi`.
    BadClassRange {
        /// Range start.
        lo: char,
        /// Range end.
        hi: char,
    },
    /// An unknown escape sequence (`\d`, a trailing `\`, ...).
    BadEscape {
        /// The escaped character.
        escape: char,
    },
    /// A negated class `[^...]` needs an explicit `alphabet` declaration
    /// to complement against.
    NegatedClassNeedsAlphabet,
    /// The `alphabet` declaration itself may not be negated.
    AlphabetNegated,
    /// A literal or class uses a character outside the declared
    /// alphabet.
    CharOutsideAlphabet {
        /// The out-of-alphabet character.
        ch: char,
    },
    /// The spec declares no token rules and uses no production
    /// literals, so there is nothing to lex.
    NoTokenRules,
    /// The spec declares no grammar rules, so there is nothing to
    /// parse.
    NoRules,
}

impl fmt::Display for FrontendErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use FrontendErrorKind::*;
        match self {
            Syntax { message } => write!(f, "syntax error: {message}"),
            UndefinedSymbol { name } => {
                write!(f, "`{name}` is neither a rule nor a token")
            }
            UndefinedStart { name } => write!(f, "start symbol `{name}` is not a rule"),
            DuplicateRule { name } => write!(f, "rule `{name}` is defined twice"),
            DuplicateToken { name } => {
                write!(f, "token rule `{name}` is declared twice")
            }
            DuplicateStart => write!(f, "more than one `start` declaration"),
            DuplicateAlphabet => write!(f, "more than one `alphabet` declaration"),
            TokenNonterminalClash { name } => {
                write!(f, "`{name}` is declared both as a token and as a rule")
            }
            SkipReferenced { name } => write!(
                f,
                "`{name}` is a skip rule; skipped lexemes never reach the grammar"
            ),
            NullableToken { name } => {
                write!(f, "rule `{name}` matches the empty string")
            }
            EmptyLiteral => write!(f, "empty literal `''` cannot be a token"),
            EmptyClass => write!(f, "class denotes no characters"),
            BadClassRange { lo, hi } => {
                write!(f, "class range `{lo}-{hi}` is reversed")
            }
            BadEscape { escape } => write!(f, "unknown escape `\\{escape}`"),
            NegatedClassNeedsAlphabet => write!(
                f,
                "negated class needs an explicit `alphabet [...] ;` declaration"
            ),
            AlphabetNegated => {
                write!(f, "the `alphabet` class may not be negated")
            }
            CharOutsideAlphabet { ch } => {
                write!(f, "character {ch:?} is outside the declared alphabet")
            }
            NoTokenRules => write!(f, "spec has no token rules and no literals"),
            NoRules => write!(f, "spec has no grammar rules"),
        }
    }
}

/// The source location of a grammar rule implicated in an LALR
/// conflict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictSite {
    /// The nonterminal whose rule participates in the conflict.
    pub rule: String,
    /// The byte span of that rule's declaration.
    pub span: Span,
    /// 1-based line of the declaration.
    pub line: u32,
    /// 1-based column of the declaration.
    pub col: u32,
}

/// An LALR conflict rejection: the LR layer's own
/// [`LrConflictReport`] plus the source spans of the rules its items
/// mention — the structured API response `Engine::compile_text`
/// returns for an ambiguous user grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictReport {
    /// The table-level conflict report (states, lookaheads, items).
    pub report: LrConflictReport,
    /// Source locations of the implicated rules, deduplicated, in
    /// declaration order.
    pub sites: Vec<ConflictSite>,
}

impl fmt::Display for ConflictReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.report)?;
        for site in &self.sites {
            writeln!(f, "  rule `{}` at {}:{}", site.rule, site.line, site.col)?;
        }
        Ok(())
    }
}

/// Compile-time budgets for user-submitted specs. Oversized or
/// overslow specs are *shed* — reported as structured
/// [`BudgetExceeded`] outcomes, never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Budgets {
    /// Maximum total grammar productions after elaboration.
    pub max_productions: usize,
    /// Maximum LALR automaton states.
    pub max_states: usize,
    /// Wall-clock ceiling for the whole compile, checked at stage
    /// boundaries (`None` = unlimited).
    pub deadline: Option<Duration>,
}

impl Default for Budgets {
    fn default() -> Budgets {
        Budgets {
            max_productions: 4096,
            max_states: 65_536,
            deadline: None,
        }
    }
}

/// Which budget a shed spec exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// [`Budgets::max_productions`].
    Productions,
    /// [`Budgets::max_states`] LALR states, or the lexer's fixed cap on
    /// certifier derivative states (`lambek_lex::MAX_CERTIFIER_STATES`,
    /// in state units: a state costs one unit per 16 regex nodes it
    /// derives, at least one). For the certifier, the observed value is
    /// the units its tables had spent when the cap stopped the build.
    States,
    /// [`Budgets::deadline`] (values in microseconds).
    Deadline,
    /// The meta lexer's fixed cap on its maximal-munch memo
    /// (`lambek_lex::MAX_MUNCH_MEMO_BYTES`; values in bytes).
    MunchMemo,
}

/// A structured shed outcome: which budget, its limit, and the
/// observed value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// The exceeded budget.
    pub kind: BudgetKind,
    /// The configured limit ([`BudgetKind::Deadline`]: microseconds).
    pub limit: u64,
    /// The observed value ([`BudgetKind::Deadline`]: microseconds).
    pub actual: u64,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self.kind {
            BudgetKind::Productions => "productions",
            BudgetKind::States => "LALR or certifier states",
            BudgetKind::Deadline => "compile deadline (µs)",
            BudgetKind::MunchMemo => "meta-lexer munch memo bytes",
        };
        write!(
            f,
            "budget exceeded: {} {} > limit {}",
            self.actual, what, self.limit
        )
    }
}

/// Why a text failed to compile: every outcome is structured — a list
/// of located diagnostics, an annotated conflict report, or a shed
/// budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrontendReport {
    /// Bootstrap-syntax or elaboration diagnostics (at least one).
    Errors(Vec<FrontendError>),
    /// The grammar elaborated but is not LALR(1).
    Conflicts(ConflictReport),
    /// The spec exceeded a compile-time budget and was shed.
    Budget(BudgetExceeded),
    /// An internal invariant failed: a certification fault in the meta
    /// parse, or a validated spec that refused to compile. A bug if
    /// observed.
    Internal(String),
}

impl fmt::Display for FrontendReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrontendReport::Errors(errors) => {
                for e in errors {
                    writeln!(f, "{e}")?;
                }
                Ok(())
            }
            FrontendReport::Conflicts(report) => write!(f, "{report}"),
            FrontendReport::Budget(shed) => write!(f, "{shed}"),
            FrontendReport::Internal(message) => {
                write!(f, "internal error: {message}")
            }
        }
    }
}

impl std::error::Error for FrontendReport {}

/// Annotates a table-level conflict report with the source spans of
/// the rules its items mention (`rule_spans` is
/// [`Elaborated::rule_spans`]).
pub fn annotate_conflicts(
    report: LrConflictReport,
    rule_spans: &[(String, Span)],
    text: &str,
) -> ConflictReport {
    let mut sites: Vec<ConflictSite> = Vec::new();
    for (rule, span) in rule_spans {
        let mentioned = report.conflicts.iter().any(|c| {
            c.items
                .iter()
                .any(|item| item.split_whitespace().next() == Some(rule.as_str()))
        });
        if mentioned {
            let (line, col) = line_col(text, span.start);
            sites.push(ConflictSite {
                rule: rule.clone(),
                span: *span,
                line,
                col,
            });
        }
    }
    ConflictReport { report, sites }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_grammar_is_lalr1() {
        let report = lambek_lr::CertifiedLrParser::compile(&meta_cfg());
        assert!(
            report.is_ok(),
            "bootstrap meta grammar has conflicts:\n{}",
            report.err().map(|r| r.to_string()).unwrap_or_default()
        );
    }

    #[test]
    fn pretty_roundtrip_on_presets() {
        for (name, text) in presets::all() {
            let ast = parse_text(text).unwrap_or_else(|e| panic!("{name}: {e}"));
            let printed = pretty(&ast);
            let reparsed =
                parse_text(&printed).unwrap_or_else(|e| panic!("{name} reparse: {e}\n{printed}"));
            assert!(
                surface::ast_eq_modulo_spans(&ast, &reparsed),
                "{name}: pretty-print round trip changed the AST:\n{printed}"
            );
            assert_eq!(
                printed,
                pretty(&reparsed),
                "{name}: pretty not a fixed point"
            );
        }
    }
}
