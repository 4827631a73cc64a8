//! Pipeline specifications and their compiled form.
//!
//! A [`PipelineSpec`] is the *cache key*: a pure description of which
//! verified parser to build — the alphabet plus the grammar family and
//! its parameters. [`PipelineSpec::compile`] runs the paper's
//! construction once, and the resulting [`CompiledPipeline`] is the
//! immutable, `Send + Sync` artifact the engine shares across requests.
//!
//! Two families of pipeline exist:
//!
//! * **verified-transformer pipelines** ([`PipelineSpec::regex`],
//!   [`PipelineSpec::dyck`], [`PipelineSpec::expr`]) wrap a
//!   [`VerifiedParser`] built by the paper's constructions, optionally
//!   with a dense [`DfaBackend`] for streaming;
//! * **CFG pipelines** ([`PipelineSpec::cfg`]) take an arbitrary
//!   [`Cfg`] and compile it to the certified LR(1)/LALR tables of
//!   `lambek-lr` — linear-time parsing for the deterministic fragment —
//!   falling back to the Earley baseline when the grammar has LR
//!   conflicts (the [`CfgBackend`] records the conflict report either
//!   way). Accepted derivations from both paths are certified — the LR
//!   run step by step, the Earley tree by the core derivation checker —
//!   preserving the intrinsic-verification contract, and raw-text
//!   parses serve them as a flat [`ReductionLog`] (see [`Derivation`]);
//!   the *rejection* side of Definition 4.6 (a disjoint negative
//!   grammar) has no general CFG construction, so CFG rejections carry
//!   the trivial `⊤`-parse of the input as their witness.

use std::time::{Duration, Instant};

use lambek_automata::counter::dyck_automaton;
use lambek_automata::dfa::{Dfa, DfaTraceGrammar};
use lambek_cfg::earley::{earley_parse, earley_recognize, EarleyParse};
use lambek_cfg::grammar::Cfg;
use lambek_core::alphabet::{Alphabet, GString};
use lambek_core::grammar::expr::Grammar;
use lambek_core::grammar::parse_tree::{validate, ParseTree, ReductionLog};
use lambek_core::theory::parser::{ParseOutcome, VerifiedParser};
use lambek_core::transform::TransformError;
use lambek_lex::{
    CertifiedLexer, LexCertifier, LexError, LexSpec, RawLexeme, Span, TokenSink, TokenStream,
};
use lambek_lr::{CertifiedLrParser, LrConflictReport, LrOutcome, LrSink};
use regex_grammars::ast::parse_regex;
use regex_grammars::pipeline::RegexParser;

use crate::EngineError;

/// What to compile: the engine's cache key.
///
/// Two specs are the same pipeline exactly when they compare equal.
/// Equality and hashing go through an interned [`SpecKey`] computed once
/// at construction: alphabets, patterns and grammars are interned in
/// [`lambek_core::intern`], so comparing (and hashing) cache keys is a
/// couple of integer compares — no deep traversal of the alphabet's name
/// table, the pattern string, or the CFG's μ-regular encoding.
/// Structurally identical alphabets (and structurally identical CFGs)
/// share cache entries.
#[derive(Debug, Clone)]
pub struct PipelineSpec {
    kind: SpecKind,
    key: SpecKey,
}

/// The payload of a [`PipelineSpec`]: what the compiler consumes.
#[derive(Debug, Clone)]
enum SpecKind {
    /// The verified regex pipeline of Corollary 4.12 (Thompson →
    /// determinize → trace parser → extend).
    Regex {
        /// The input alphabet Σ.
        alphabet: Alphabet,
        /// The regex source, in the syntax of
        /// [`regex_grammars::ast::parse_regex`].
        pattern: String,
    },
    /// The verified Dyck parser of Theorem 4.13, exact for inputs of
    /// length ≤ `max_len`.
    Dyck {
        /// Truncation bound of the counter automaton.
        max_len: usize,
    },
    /// The verified arithmetic-expression parser of Theorem 4.14, exact
    /// for inputs of length ≤ `max_len`.
    Expr {
        /// Truncation bound of the lookahead automaton.
        max_len: usize,
    },
    /// A context-free grammar compiled to certified LR tables (Earley
    /// fallback on conflict). No truncation bound: valid for inputs of
    /// any length.
    Cfg {
        /// Display label for reports.
        name: String,
        /// The grammar itself.
        cfg: Cfg,
    },
    /// A raw-text pipeline: a certified maximal-munch lexer in front of
    /// a token-level CFG backend. The spec's token alphabet must equal
    /// the grammar's alphabet (checked at compile).
    LexedCfg {
        /// Display label for reports.
        name: String,
        /// The lexical specification (token + skip rules).
        spec: LexSpec,
        /// The token-level grammar.
        cfg: Cfg,
    },
}

/// The id-based identity of a [`PipelineSpec`]: a small `Copy` value
/// whose equality/hash is O(1). This is what the engine's pipeline cache
/// actually compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecKey {
    /// Regex pipeline: interned alphabet + interned pattern.
    Regex(lambek_core::intern::AlphabetId, lambek_core::intern::Istr),
    /// Dyck pipeline at a truncation bound.
    Dyck(usize),
    /// Expression pipeline at a truncation bound.
    Expr(usize),
    /// CFG pipeline: interned alphabet + interned μ-regular encoding
    /// (the encoding determines the productions and the start symbol).
    Cfg(
        lambek_core::intern::AlphabetId,
        lambek_core::intern::GrammarId,
    ),
    /// Lexed-CFG pipeline: the lexer's identity (interned character
    /// alphabet + interned spec fingerprint) plus the token grammar's
    /// identity (interned token alphabet + interned μ-regular
    /// encoding).
    LexedCfg(
        lambek_core::intern::AlphabetId,
        lambek_core::intern::Istr,
        lambek_core::intern::AlphabetId,
        lambek_core::intern::GrammarId,
    ),
}

impl PartialEq for PipelineSpec {
    fn eq(&self, other: &PipelineSpec) -> bool {
        self.key == other.key
    }
}

impl Eq for PipelineSpec {}

impl std::hash::Hash for PipelineSpec {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.key.hash(state);
    }
}

impl PipelineSpec {
    /// A regex pipeline spec for `pattern` over `alphabet`.
    pub fn regex(alphabet: Alphabet, pattern: impl Into<String>) -> PipelineSpec {
        let pattern = pattern.into();
        let key = SpecKey::Regex(
            lambek_core::intern::alphabet_id(&alphabet),
            lambek_core::intern::istr(&pattern),
        );
        PipelineSpec {
            kind: SpecKind::Regex { alphabet, pattern },
            key,
        }
    }

    /// A Dyck pipeline spec, exact for inputs of length ≤ `max_len`.
    pub fn dyck(max_len: usize) -> PipelineSpec {
        PipelineSpec {
            kind: SpecKind::Dyck { max_len },
            key: SpecKey::Dyck(max_len),
        }
    }

    /// An expression pipeline spec, exact for inputs of length ≤
    /// `max_len`.
    pub fn expr(max_len: usize) -> PipelineSpec {
        PipelineSpec {
            kind: SpecKind::Expr { max_len },
            key: SpecKey::Expr(max_len),
        }
    }

    /// A CFG pipeline spec: `cfg` compiled to certified LR tables when
    /// the grammar is LALR(1), to the Earley baseline otherwise. `name`
    /// is the display label; the cache identity is the grammar itself
    /// (interned μ-regular encoding + alphabet), so two structurally
    /// equal CFGs share one pipeline regardless of label.
    pub fn cfg(name: impl Into<String>, cfg: Cfg) -> PipelineSpec {
        let key = SpecKey::Cfg(
            lambek_core::intern::alphabet_id(cfg.alphabet()),
            lambek_core::intern::grammar_id(&cfg.to_lambek()),
        );
        PipelineSpec {
            kind: SpecKind::Cfg {
                name: name.into(),
                cfg,
            },
            key,
        }
    }

    /// A raw-text pipeline: `spec`'s certified maximal-munch lexer
    /// composed with the CFG backend for `cfg` (LR tables when the
    /// grammar is LALR(1), Earley fallback otherwise). The cache
    /// identity is the pair (lexer spec, grammar), both interned;
    /// `name` is only the display label.
    ///
    /// The spec's token alphabet and the grammar's alphabet must be
    /// equal — [`PipelineSpec::compile`] rejects mismatches.
    pub fn lexed_cfg(name: impl Into<String>, spec: LexSpec, cfg: Cfg) -> PipelineSpec {
        let key = SpecKey::LexedCfg(
            lambek_core::intern::alphabet_id(spec.alphabet()),
            lambek_core::intern::istr(&spec.fingerprint()),
            lambek_core::intern::alphabet_id(cfg.alphabet()),
            lambek_core::intern::grammar_id(&cfg.to_lambek()),
        );
        PipelineSpec {
            kind: SpecKind::LexedCfg {
                name: name.into(),
                spec,
                cfg,
            },
            key,
        }
    }

    /// The raw-text arithmetic language as a lexed-CFG pipeline: the
    /// Fig. 15 expression grammar behind a lexer with multi-digit
    /// numerals and skipped whitespace
    /// ([`lambek_lex::demo::arith_spec`]).
    pub fn arith_lexed() -> PipelineSpec {
        PipelineSpec::lexed_cfg(
            "arith-lexed",
            lambek_lex::demo::arith_spec(),
            lambek_lex::demo::arith_token_cfg(),
        )
    }

    /// A JSON-subset language as a lexed-CFG pipeline
    /// ([`lambek_lex::demo::json_spec`] + [`lambek_lex::demo::json_cfg`]).
    pub fn json_lexed() -> PipelineSpec {
        PipelineSpec::lexed_cfg(
            "json-lexed",
            lambek_lex::demo::json_spec(),
            lambek_lex::demo::json_cfg(),
        )
    }

    /// The Dyck language as a CFG pipeline (LR-backed, no truncation
    /// bound) — the linear-time serving path for balanced parentheses.
    pub fn dyck_cfg() -> PipelineSpec {
        let p = lambek_cfg::dyck::Parens::new();
        PipelineSpec::cfg("dyck-cfg", lambek_cfg::dyck::dyck_cfg(&p))
    }

    /// The Fig. 15 expression grammar as a CFG pipeline (LR-backed, no
    /// truncation bound) — unlike [`PipelineSpec::expr`], this serving
    /// path also supports streaming.
    pub fn expr_cfg() -> PipelineSpec {
        let t = lambek_automata::lookahead::ArithTokens::new();
        PipelineSpec::cfg("expr-cfg", lambek_cfg::expr::exp_cfg(&t))
    }

    /// The interned O(1) cache key this spec compares and hashes by.
    pub fn key(&self) -> SpecKey {
        self.key
    }

    /// A short human-readable label (used in reports and errors).
    pub fn label(&self) -> String {
        match &self.kind {
            SpecKind::Regex { pattern, .. } => format!("regex({pattern})"),
            SpecKind::Dyck { max_len } => format!("dyck(≤{max_len})"),
            SpecKind::Expr { max_len } => format!("expr(≤{max_len})"),
            SpecKind::Cfg { name, .. } => format!("cfg({name})"),
            SpecKind::LexedCfg { name, .. } => format!("lexed({name})"),
        }
    }

    /// A process-independent 64-bit fingerprint of the spec's
    /// *structure*, stamped into serialized session blobs
    /// ([`crate::SessionState`]) so a resume against the wrong pipeline
    /// is rejected up front. Unlike [`PipelineSpec::key`], whose
    /// interned ids are only meaningful within one process, this hashes
    /// structural renderings (alphabet name tables, the pattern / spec
    /// fingerprint / grammar display form) — equal across processes for
    /// structurally equal specs. Display labels are excluded, matching
    /// the cache identity.
    pub fn session_fingerprint(&self) -> u64 {
        let mut h = crate::session::Fnv64::new();
        match &self.kind {
            SpecKind::Regex { alphabet, pattern } => {
                h.update(b"regex");
                for name in alphabet.names() {
                    h.update(name.as_bytes());
                    h.update(&[0]);
                }
                h.update(pattern.as_bytes());
            }
            SpecKind::Dyck { max_len } => {
                h.update(b"dyck");
                h.update(&(*max_len as u64).to_le_bytes());
            }
            SpecKind::Expr { max_len } => {
                h.update(b"expr");
                h.update(&(*max_len as u64).to_le_bytes());
            }
            SpecKind::Cfg { cfg, .. } => {
                h.update(b"cfg");
                for name in cfg.alphabet().names() {
                    h.update(name.as_bytes());
                    h.update(&[0]);
                }
                h.update(cfg.to_string().as_bytes());
            }
            SpecKind::LexedCfg { spec, cfg, .. } => {
                h.update(b"lexed");
                for name in spec.alphabet().names() {
                    h.update(name.as_bytes());
                    h.update(&[0]);
                }
                h.update(spec.fingerprint().as_bytes());
                h.update(&[0]);
                for name in cfg.alphabet().names() {
                    h.update(name.as_bytes());
                    h.update(&[0]);
                }
                h.update(cfg.to_string().as_bytes());
            }
        }
        h.finish()
    }

    /// Runs the construction for this spec.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Compile`] on regex syntax errors or if the
    /// underlying equivalences fail to compose. A CFG spec never fails
    /// to compile: LR conflicts fall back to Earley, with the conflict
    /// report preserved on the [`CfgBackend`].
    pub fn compile(&self) -> Result<CompiledPipeline, EngineError> {
        let start = Instant::now();
        let imp = match &self.kind {
            SpecKind::Regex { alphabet, pattern } => {
                let re = parse_regex(alphabet, pattern)
                    .map_err(|e| EngineError::Compile(format!("{e}")))?;
                let rp = RegexParser::compile(alphabet, re)
                    .map_err(|e| EngineError::Compile(format!("{e}")))?;
                let dfa = rp.determinized().dfa.clone();
                let tg = dfa.trace_grammar();
                ParserImpl::Verified {
                    parser: rp.verified_parser().clone(),
                    dfa: Some(DfaBackend { dfa, tg }),
                }
            }
            SpecKind::Dyck { max_len } => {
                let dfa = dyck_automaton(*max_len);
                let tg = dfa.trace_grammar();
                ParserImpl::Verified {
                    parser: lambek_cfg::dyck::dyck_parser(*max_len),
                    dfa: Some(DfaBackend { dfa, tg }),
                }
            }
            SpecKind::Expr { max_len } => ParserImpl::Verified {
                parser: lambek_cfg::expr::exp_parser(*max_len),
                dfa: None,
            },
            SpecKind::Cfg { cfg, .. } => ParserImpl::Cfg(compile_cfg_backend(cfg)),
            SpecKind::LexedCfg { name, spec, cfg } => {
                if spec.token_alphabet() != cfg.alphabet() {
                    return Err(EngineError::Compile(format!(
                        "lexed pipeline {name}: the spec's token alphabet {:?} does not match \
                         the grammar's alphabet {:?}",
                        spec.token_alphabet().names(),
                        cfg.alphabet().names(),
                    )));
                }
                ParserImpl::LexedCfg(LexedCfgBackend {
                    lexer: CertifiedLexer::compile(spec.clone()),
                    inner: compile_cfg_backend(cfg),
                })
            }
        };
        Ok(CompiledPipeline {
            spec: self.clone(),
            imp,
            compile_time: start.elapsed(),
        })
    }
}

/// The dense DFA behind a pipeline, kept alongside the verified parser
/// for streaming input and allocation-free acceptance checks.
#[derive(Debug, Clone)]
pub struct DfaBackend {
    /// The (flat-table) automaton.
    pub dfa: Dfa,
    /// Its Bool-indexed trace grammar (Fig. 11 layout).
    pub tg: DfaTraceGrammar,
}

/// How a CFG pipeline parses: certified LR tables when the grammar is
/// deterministic, the Earley baseline otherwise.
#[derive(Debug, Clone)]
pub enum CfgMode {
    /// The grammar compiled conflict-free; parsing is linear-time LR
    /// (the parser owns the grammar, in both representations).
    Lr(CertifiedLrParser),
    /// The grammar is outside the LALR(1) fragment; parsing is Earley.
    Earley {
        /// The grammar being served.
        cfg: Cfg,
        /// Its μ-regular encoding, for tree certification.
        grammar: Grammar,
        /// Why LR compilation was rejected — the offending item sets.
        conflicts: LrConflictReport,
    },
}

/// The compiled form of a [`PipelineSpec::cfg`] spec.
#[derive(Debug, Clone)]
pub struct CfgBackend {
    mode: CfgMode,
}

/// Compiles a CFG to its backend: LR tables when conflict-free, Earley
/// with the preserved conflict report otherwise.
fn compile_cfg_backend(cfg: &Cfg) -> CfgBackend {
    let mode = match CertifiedLrParser::compile(cfg) {
        Ok(lr) => CfgMode::Lr(lr),
        Err(conflicts) => CfgMode::Earley {
            cfg: cfg.clone(),
            grammar: cfg.to_lambek(),
            conflicts,
        },
    };
    CfgBackend { mode }
}

impl CfgBackend {
    /// The grammar being served.
    pub fn cfg(&self) -> &Cfg {
        match &self.mode {
            CfgMode::Lr(lr) => lr.cfg(),
            CfgMode::Earley { cfg, .. } => cfg,
        }
    }

    /// The μ-regular encoding accepted trees are validated against.
    pub fn grammar(&self) -> &Grammar {
        match &self.mode {
            CfgMode::Lr(lr) => lr.grammar(),
            CfgMode::Earley { grammar, .. } => grammar,
        }
    }

    /// LR tables or Earley fallback.
    pub fn mode(&self) -> &CfgMode {
        &self.mode
    }

    /// The certified LR parser, when the grammar compiled conflict-free.
    pub fn lr(&self) -> Option<&CertifiedLrParser> {
        match &self.mode {
            CfgMode::Lr(lr) => Some(lr),
            CfgMode::Earley { .. } => None,
        }
    }

    /// The conflict report, when the grammar fell back to Earley.
    pub fn conflicts(&self) -> Option<&LrConflictReport> {
        match &self.mode {
            CfgMode::Lr(_) => None,
            CfgMode::Earley { conflicts, .. } => Some(conflicts),
        }
    }

    /// Parses with the backing parser and certifies the result: any
    /// accepted tree is validated against the μ-regular grammar and the
    /// input before being returned.
    fn parse(&self, w: &GString) -> Result<ParseOutcome, TransformError> {
        let accepted = match &self.mode {
            CfgMode::Lr(_) => self.parse_log(w)?.map(|log| log.to_parse_tree()),
            CfgMode::Earley { cfg, grammar, .. } => earley_tree(cfg, grammar, w)?,
        };
        Ok(match accepted {
            Some(tree) => ParseOutcome::Accept(tree),
            // No general complement construction for CFGs: the rejection
            // witness is the trivial ⊤-parse of the input (yield-correct,
            // but ⊤ is not disjoint from the grammar — see module docs).
            None => ParseOutcome::Reject(ParseTree::Top(w.clone())),
        })
    }

    /// [`CfgBackend::parse`] without the paper-level tree: the certified
    /// derivation as a [`ReductionLog`] (the LR run's own; the Earley
    /// fallback's validated tree read back at this boundary), `None` on
    /// rejection.
    fn parse_log(&self, w: &GString) -> Result<Option<ReductionLog>, TransformError> {
        Ok(match &self.mode {
            CfgMode::Lr(lr) => match lr.parse(w).map_err(lr_fault)? {
                LrOutcome::Accept(log) => Some(log),
                LrOutcome::Reject(_) => None,
            },
            CfgMode::Earley { cfg, grammar, .. } => {
                earley_tree(cfg, grammar, w)?.map(|tree| earley_log(&tree))
            }
        })
    }

    fn accepts(&self, w: &GString) -> bool {
        match &self.mode {
            CfgMode::Lr(lr) => lr.recognizes(w),
            CfgMode::Earley { cfg, .. } => earley_recognize(cfg, w),
        }
    }
}

/// Runs the Earley fallback and certifies its witness: the tree (the
/// first derivation, alternatives in order, if the grammar is
/// ambiguous) is validated against the μ-regular grammar and `w`.
fn earley_tree(
    cfg: &Cfg,
    grammar: &Grammar,
    w: &GString,
) -> Result<Option<ParseTree>, TransformError> {
    match earley_parse(cfg, w) {
        EarleyParse::Unique(tree) | EarleyParse::Ambiguous { tree, .. } => {
            validate(&tree, grammar, w).map_err(|cause| TransformError::OutputShape {
                transformer: "earley-fallback".to_owned(),
                cause,
            })?;
            Ok(Some(tree))
        }
        EarleyParse::NoParse => Ok(None),
    }
}

/// The Earley fallback's validated tree as a log: a tree that validates
/// against a CFG's μ-regular encoding is a derivation, so it reads back.
fn earley_log(tree: &ParseTree) -> ReductionLog {
    ReductionLog::from_parse_tree(tree).expect("a validated CFG tree is a derivation")
}

/// Maps an LR certification fault to the engine's error plane.
fn lr_fault(e: lambek_lr::CertifyError) -> TransformError {
    TransformError::OutputShape {
        transformer: "certified-lr".to_owned(),
        cause: e.cause,
    }
}

/// A certified derivation as a raw-text parse serves it.
///
/// CFG pipelines — LR tables and the Earley fallback alike — serve the
/// flat [`ReductionLog`]: no boxed node is built unless the caller asks
/// for the tree. The paper's automaton constructions (regex, bounded
/// Dyck and expression pipelines) build their trees as they parse and
/// serve them as they are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Derivation {
    /// A CFG pipeline's postorder reduction log.
    Log(ReductionLog),
    /// A verified-transformer pipeline's parse tree.
    Tree(ParseTree),
}

impl Derivation {
    /// Constructor count of the parse tree (O(1) for a log).
    pub fn size(&self) -> usize {
        match self {
            Derivation::Log(log) => log.size(),
            Derivation::Tree(tree) => tree.size(),
        }
    }

    /// Length of the yield — the parsed symbol string (O(1) for a log).
    pub fn yield_len(&self) -> usize {
        match self {
            Derivation::Log(log) => log.yield_len(),
            Derivation::Tree(tree) => tree.flatten().len(),
        }
    }

    /// The paper-level parse tree (Definition 5.1), materialized from
    /// the log if need be.
    pub fn to_parse_tree(&self) -> ParseTree {
        match self {
            Derivation::Log(log) => log.to_parse_tree(),
            Derivation::Tree(tree) => tree.clone(),
        }
    }
}

/// The outcome of a raw-text parse: lexing and parsing certified at
/// their respective layers, rejections pointing at byte offsets of the
/// raw input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StrOutcome {
    /// The text lexed and the token string parsed. The derivation has
    /// been certified against the token-level grammar and the token
    /// string; the lexemes have been re-validated against the raw text
    /// (span tiling + independent derivative re-matching). The fused
    /// path ([`LexedCfgBackend::parse_str`]) never materializes the
    /// token stream, so [`tokens`](StrOutcome::Accept::tokens) is
    /// `None` there — use [`LexedCfgBackend::parse_str_tokens`] when
    /// the stream itself is wanted. Non-lexed pipelines always report
    /// `None` (the "lexer" was the trivial char-per-symbol reading).
    Accept {
        /// The certified derivation over the pipeline's grammar.
        derivation: Derivation,
        /// The certified token stream (materializing lexed paths only).
        tokens: Option<TokenStream>,
    },
    /// The text lexed but the token string is not in the grammar.
    RejectParse {
        /// Byte span of the offending token in the raw text (empty
        /// span at the end for "input ended too soon"; the whole input
        /// when the Earley fallback, which has no error position,
        /// rejected).
        span: Span,
        /// Human-readable rejection (the LR driver's expected-set
        /// report when available).
        message: String,
        /// The token stream that parsed up to the rejection (lexed
        /// pipelines only).
        tokens: Option<TokenStream>,
    },
    /// The text did not lex; the error carries the byte offset.
    RejectLex(LexError),
}

impl StrOutcome {
    /// `true` on acceptance.
    pub fn is_accept(&self) -> bool {
        matches!(self, StrOutcome::Accept { .. })
    }

    /// The accepted derivation, if any.
    pub fn accepted(&self) -> Option<&Derivation> {
        match self {
            StrOutcome::Accept { derivation, .. } => Some(derivation),
            _ => None,
        }
    }
}

/// The compiled form of a [`PipelineSpec::lexed_cfg`] spec: a certified
/// lexer in front of a certified CFG backend.
#[derive(Debug, Clone)]
pub struct LexedCfgBackend {
    lexer: CertifiedLexer,
    inner: CfgBackend,
}

/// The fused lex→certify→LR consumer: the byte-sliced scanner's
/// [`TokenSink`] for [`LexedCfgBackend::parse_str`]. Each lexeme is
/// certified *by span* (no text materialized) and its symbol shifted
/// straight into the LR machine; skip lexemes certify and vanish.
///
/// A certification failure aborts the lex (the sink's error plane); an
/// LR rejection does *not* — the LR side goes dead, lexing continues
/// to its own verdict so a later unlexable byte keeps priority, and
/// the span of the first refused shift is kept for the rejection
/// report.
struct FusedSink {
    cert: LexCertifier,
    lrs: LrSink,
    /// Span (in the raw input) of the yield token whose shift the LR
    /// machine first refused, if any.
    reject_span: Option<Span>,
}

impl TokenSink for FusedSink {
    type Err = TransformError;

    fn lexeme(&mut self, input: &str, lexeme: RawLexeme) -> Result<(), TransformError> {
        self.cert.check_raw(input, &lexeme).map_err(|e| {
            TransformError::Custom(format!("certified-lexer contract violation: {e}"))
        })?;
        if let Some(sym) = lexeme.sym {
            if !self.lrs.push(sym) && self.reject_span.is_none() {
                self.reject_span = Some(lexeme.span);
            }
        }
        Ok(())
    }
}

impl LexedCfgBackend {
    /// The certified lexer.
    pub fn lexer(&self) -> &CertifiedLexer {
        &self.lexer
    }

    /// The token-level CFG backend (LR tables or Earley fallback).
    pub fn cfg_backend(&self) -> &CfgBackend {
        &self.inner
    }

    /// Lexes `input` and parses the token string, certifying both
    /// layers. Rejections carry byte offsets into `input`.
    ///
    /// On LR-backed grammars this is the *fused* hot path: the
    /// byte-sliced scanner pushes each lexeme through span-based
    /// certification (running tiling cursor plus memoized derivative
    /// re-match, no text copied) and shifts its symbol straight into
    /// the LR stack — whose reductions are themselves certified as
    /// performed — with no `Vec<Token>`, no [`TokenStream`] and no
    /// per-token `String` ever allocated; accordingly the outcome's
    /// `tokens` field is `None`. Use
    /// [`LexedCfgBackend::parse_str_tokens`] when the caller wants the
    /// certified stream itself. The Earley fallback (and
    /// [`LexedCfgBackend::parse_str_full`]) still runs the original
    /// two-pass form.
    ///
    /// # Errors
    ///
    /// Contract violations only: a lexer certification failure or an
    /// LR/validation internal error. "Not in the language" is an `Ok`
    /// rejection.
    pub fn parse_str(&self, input: &str) -> Result<StrOutcome, TransformError> {
        let CfgMode::Lr(lr) = &self.inner.mode else {
            // Earley needs the whole token string anyway.
            return self.parse_str_full(input);
        };
        let mut sink = FusedSink {
            cert: self.lexer.certifier(),
            // A loose lower bound on the yield length: arithmetic-style
            // inputs average a handful of bytes per yield token, so the
            // LR machine's stacks mostly avoid regrowth without
            // over-reserving on token-sparse inputs.
            lrs: lr.sink_with_capacity(input.len() / 8),
            reject_span: None,
        };
        // Lex errors keep priority over LR rejections, exactly as in
        // the two-pass form (where lexing ran to completion first) — a
        // doomed LR stack never masks a later unlexable byte, because
        // the sink's LR side just goes (and stays) dead while lexing
        // continues.
        if let Err(e) = self.lexer.automaton().lex_into(input, &mut sink)? {
            return Ok(StrOutcome::RejectLex(e));
        }
        sink.cert.finish(input).map_err(|e| {
            TransformError::Custom(format!("certified-lexer contract violation: {e}"))
        })?;
        match sink.lrs.finish().map_err(lr_fault)? {
            LrOutcome::Accept(log) => Ok(StrOutcome::Accept {
                derivation: Derivation::Log(log),
                tokens: None,
            }),
            LrOutcome::Reject(r) => Ok(StrOutcome::RejectParse {
                // The span of the yield token whose shift the LR stack
                // first refused — the same token `span_of_yield` finds
                // on the materializing paths — or the empty span at the
                // end of input when every shift succeeded and only the
                // final accept was refused.
                span: sink.reject_span.unwrap_or_else(|| Span::empty(input.len())),
                message: r.to_string(),
                tokens: None,
            }),
        }
    }

    /// [`LexedCfgBackend::parse_str`] in *staged* form with per-stage
    /// spans recorded into `rec` (offsets measured from `epoch`): the
    /// scan collects the whole lexeme chain, certification re-validates
    /// it in a second pass, and the parse drives the LR machine (or the
    /// Earley fallback) in a third — so the scan / certify / parse
    /// stages can be timed separately, which the fused single-pass form
    /// cannot do. Observationally identical to
    /// [`LexedCfgBackend::parse_str`]: same outcome — verdict,
    /// derivation, spans, token reporting — on every input (asserted by
    /// the `prop_obs` differential suite).
    ///
    /// # Errors
    ///
    /// As [`LexedCfgBackend::parse_str`].
    pub(crate) fn parse_str_staged<R: lambek_obs::Recorder>(
        &self,
        input: &str,
        epoch: Instant,
        rec: &mut R,
    ) -> Result<StrOutcome, TransformError> {
        use lambek_obs::Stage;
        let s0 = epoch.elapsed();
        let scanned: Result<Vec<RawLexeme>, LexError> =
            self.lexer.automaton().raw_lexemes(input).collect();
        rec.record(Stage::Scan, s0, epoch.elapsed().saturating_sub(s0));
        let lexemes = match scanned {
            Ok(ls) => ls,
            Err(e) => return Ok(StrOutcome::RejectLex(e)),
        };
        let c0 = epoch.elapsed();
        let mut cert = self.lexer.certifier();
        for l in &lexemes {
            cert.check_raw(input, l).map_err(|e| {
                TransformError::Custom(format!("certified-lexer contract violation: {e}"))
            })?;
        }
        cert.finish(input).map_err(|e| {
            TransformError::Custom(format!("certified-lexer contract violation: {e}"))
        })?;
        rec.record(Stage::Certify, c0, epoch.elapsed().saturating_sub(c0));
        let p0 = epoch.elapsed();
        let out = self.parse_lexeme_chain(input, &lexemes);
        rec.record(Stage::Parse, p0, epoch.elapsed().saturating_sub(p0));
        out
    }

    /// The parse stage of [`LexedCfgBackend::parse_str_staged`]: drives
    /// an already-certified lexeme chain through the CFG backend,
    /// reproducing [`LexedCfgBackend::parse_str`]'s outcomes exactly
    /// (LR: token stream never materialized, rejection span = first
    /// refused shift; Earley: materializing, as `parse_str_full`).
    fn parse_lexeme_chain(
        &self,
        input: &str,
        lexemes: &[RawLexeme],
    ) -> Result<StrOutcome, TransformError> {
        match &self.inner.mode {
            CfgMode::Lr(lr) => {
                let mut lrs = lr.sink_with_capacity(lexemes.len());
                let mut reject_span = None;
                for l in lexemes {
                    if let Some(sym) = l.sym {
                        if !lrs.push(sym) && reject_span.is_none() {
                            reject_span = Some(l.span);
                        }
                    }
                }
                match lrs.finish().map_err(lr_fault)? {
                    LrOutcome::Accept(log) => Ok(StrOutcome::Accept {
                        derivation: Derivation::Log(log),
                        tokens: None,
                    }),
                    LrOutcome::Reject(r) => Ok(StrOutcome::RejectParse {
                        span: reject_span.unwrap_or_else(|| Span::empty(input.len())),
                        message: r.to_string(),
                        tokens: None,
                    }),
                }
            }
            CfgMode::Earley { cfg, grammar, .. } => {
                let tokens =
                    TokenStream::from_tokens(lexemes.iter().map(|l| l.to_token(input)).collect());
                earley_str_outcome(cfg, grammar, input, tokens)
            }
        }
    }

    /// [`LexedCfgBackend::parse_str`] materializing the certified
    /// [`TokenStream`] alongside the outcome — the original incremental
    /// two-layer path: each token is certified at its munch boundary
    /// and shifted into the LR stream, and the collected tokens ride
    /// along in the outcome's `tokens` field. Callers that only need
    /// the verdict and derivation should prefer the fused
    /// [`LexedCfgBackend::parse_str`].
    ///
    /// # Errors
    ///
    /// As [`LexedCfgBackend::parse_str`].
    pub fn parse_str_tokens(&self, input: &str) -> Result<StrOutcome, TransformError> {
        let CfgMode::Lr(lr) = &self.inner.mode else {
            // Earley needs the whole token string anyway.
            return self.parse_str_full(input);
        };
        let mut cert = self.lexer.certifier();
        let mut lrs = lr.stream();
        let mut tokens = Vec::new();
        for item in self.lexer.automaton().lexemes(input) {
            match item {
                Err(e) => return Ok(StrOutcome::RejectLex(e)),
                Ok(t) => {
                    cert.check(input, &t).map_err(|e| {
                        TransformError::Custom(format!("certified-lexer contract violation: {e}"))
                    })?;
                    if let Some(sym) = t.sym {
                        lrs.push(sym);
                    }
                    tokens.push(t);
                }
            }
        }
        cert.finish(input).map_err(|e| {
            TransformError::Custom(format!("certified-lexer contract violation: {e}"))
        })?;
        let tokens = TokenStream::from_tokens(tokens);
        match lrs.finish().map_err(lr_fault)? {
            LrOutcome::Accept(log) => Ok(StrOutcome::Accept {
                derivation: Derivation::Log(log),
                tokens: Some(tokens),
            }),
            LrOutcome::Reject(r) => {
                let span = tokens.span_of_yield(r.at, input.len());
                Ok(StrOutcome::RejectParse {
                    span,
                    message: r.to_string(),
                    tokens: Some(tokens),
                })
            }
        }
    }

    /// [`LexedCfgBackend::parse_str`] with both layers on their full
    /// (whole-output) re-validation paths: the lexer materializes and
    /// re-walks the complete token stream, and the LR parse re-validates
    /// the finished tree from the root. Kept as the slow reference the
    /// differential suites compare the fused incremental path against.
    ///
    /// # Errors
    ///
    /// As [`LexedCfgBackend::parse_str`].
    pub fn parse_str_full(&self, input: &str) -> Result<StrOutcome, TransformError> {
        let tokens = match self.lexer.lex_full(input).map_err(|e| {
            TransformError::Custom(format!("certified-lexer contract violation: {e}"))
        })? {
            lambek_lex::LexedOutcome::Reject(e) => return Ok(StrOutcome::RejectLex(e)),
            lambek_lex::LexedOutcome::Tokens(ts) => ts,
        };
        let w = tokens.yield_string();
        match &self.inner.mode {
            CfgMode::Lr(lr) => match lr.parse_full(w).map_err(lr_fault)? {
                LrOutcome::Accept(log) => Ok(StrOutcome::Accept {
                    derivation: Derivation::Log(log),
                    tokens: Some(tokens),
                }),
                LrOutcome::Reject(r) => {
                    let span = tokens.span_of_yield(r.at, input.len());
                    Ok(StrOutcome::RejectParse {
                        span,
                        message: r.to_string(),
                        tokens: Some(tokens),
                    })
                }
            },
            CfgMode::Earley { cfg, grammar, .. } => earley_str_outcome(cfg, grammar, input, tokens),
        }
    }
}

/// The Earley fallback over a lexed token stream: the certified tree,
/// read back as a log, with the stream riding along; rejections span the
/// whole input (Earley reports no error position).
fn earley_str_outcome(
    cfg: &Cfg,
    grammar: &Grammar,
    input: &str,
    tokens: TokenStream,
) -> Result<StrOutcome, TransformError> {
    Ok(match earley_tree(cfg, grammar, tokens.yield_string())? {
        Some(tree) => StrOutcome::Accept {
            derivation: Derivation::Log(earley_log(&tree)),
            tokens: Some(tokens),
        },
        None => StrOutcome::RejectParse {
            span: Span {
                start: 0,
                end: input.len(),
            },
            message: "token string is not in the grammar (Earley fallback)".to_owned(),
            tokens: Some(tokens),
        },
    })
}

/// A char-per-symbol parse's outcome: no token stream, and rejections
/// span the whole input.
fn char_outcome(input: &str, derived: Option<Derivation>) -> StrOutcome {
    match derived {
        Some(derivation) => StrOutcome::Accept {
            derivation,
            tokens: None,
        },
        None => StrOutcome::RejectParse {
            span: Span {
                start: 0,
                end: input.len(),
            },
            message: "input is not in the grammar".to_owned(),
            tokens: None,
        },
    }
}

/// How a [`CompiledPipeline`] actually parses.
#[derive(Debug, Clone)]
enum ParserImpl {
    /// A paper-construction verified parser, optionally DFA-backed.
    Verified {
        parser: VerifiedParser,
        dfa: Option<DfaBackend>,
    },
    /// A CFG compiled to LR tables (or the Earley fallback).
    Cfg(CfgBackend),
    /// A certified lexer composed with a CFG backend (raw-text input).
    LexedCfg(LexedCfgBackend),
}

/// A compiled, immutable, thread-shareable parser pipeline.
#[derive(Debug, Clone)]
pub struct CompiledPipeline {
    spec: PipelineSpec,
    imp: ParserImpl,
    compile_time: Duration,
}

impl CompiledPipeline {
    /// The spec this pipeline was compiled from.
    pub fn spec(&self) -> &PipelineSpec {
        &self.spec
    }

    /// The composed verified parser (Definition 4.6), for the
    /// verified-transformer pipelines; `None` for CFG pipelines, whose
    /// parser is the certified LR driver / Earley fallback behind
    /// [`CompiledPipeline::cfg_backend`].
    pub fn parser(&self) -> Option<&VerifiedParser> {
        match &self.imp {
            ParserImpl::Verified { parser, .. } => Some(parser),
            ParserImpl::Cfg(_) | ParserImpl::LexedCfg(_) => None,
        }
    }

    /// The dense DFA backend, if the pipeline has one (regex and Dyck
    /// do; the lookahead-automaton expression pipeline and CFG pipelines
    /// do not).
    pub fn backend(&self) -> Option<&DfaBackend> {
        match &self.imp {
            ParserImpl::Verified { dfa, .. } => dfa.as_ref(),
            ParserImpl::Cfg(_) | ParserImpl::LexedCfg(_) => None,
        }
    }

    /// The CFG backend, if this is a [`PipelineSpec::cfg`] pipeline
    /// (for lexed pipelines, reach it through
    /// [`CompiledPipeline::lexed_backend`]).
    pub fn cfg_backend(&self) -> Option<&CfgBackend> {
        match &self.imp {
            ParserImpl::Verified { .. } | ParserImpl::LexedCfg(_) => None,
            ParserImpl::Cfg(b) => Some(b),
        }
    }

    /// The lexer+CFG backend, if this is a [`PipelineSpec::lexed_cfg`]
    /// pipeline.
    pub fn lexed_backend(&self) -> Option<&LexedCfgBackend> {
        match &self.imp {
            ParserImpl::LexedCfg(b) => Some(b),
            _ => None,
        }
    }

    /// The input alphabet of the pipeline's *parser*: for lexed
    /// pipelines this is the token alphabet (the characters the lexer
    /// reads live in `lexed_backend().lexer().spec().alphabet()`).
    pub fn alphabet(&self) -> &Alphabet {
        match &self.imp {
            ParserImpl::Verified { parser, .. } => parser.alphabet(),
            ParserImpl::Cfg(b) => b.cfg().alphabet(),
            ParserImpl::LexedCfg(b) => b.inner.cfg().alphabet(),
        }
    }

    /// The grammar being parsed.
    pub fn grammar(&self) -> &Grammar {
        match &self.imp {
            ParserImpl::Verified { parser, .. } => parser.grammar(),
            ParserImpl::Cfg(b) => b.grammar(),
            ParserImpl::LexedCfg(b) => b.inner.grammar(),
        }
    }

    /// How long [`PipelineSpec::compile`] took.
    pub fn compile_time(&self) -> Duration {
        self.compile_time
    }

    /// Runs the pipeline's parser with the intrinsic checks on: any
    /// accepted tree has been validated against the grammar *and* the
    /// input string.
    ///
    /// # Errors
    ///
    /// Propagates contract violations from the underlying transformers —
    /// for the built-in pipelines this only happens past a truncation
    /// bound (e.g. [`PipelineSpec::expr`] inputs longer than `max_len`;
    /// CFG pipelines have no bound).
    pub fn parse(&self, w: &GString) -> Result<ParseOutcome, TransformError> {
        match &self.imp {
            ParserImpl::Verified { parser, .. } => parser.parse(w),
            ParserImpl::Cfg(b) => b.parse(w),
            // A lexed pipeline parsing a pre-tokenized string skips the
            // lexer (the string is already over the token alphabet).
            ParserImpl::LexedCfg(b) => b.inner.parse(w),
        }
    }

    /// Parses *raw text*, running the whole pipeline front to back.
    ///
    /// For lexed pipelines this is the main entrance: certified
    /// maximal-munch lexing, then the certified CFG backend over the
    /// token string, with rejections mapped to byte offsets of `input`.
    /// Other pipelines read the text through their alphabet's
    /// char-per-symbol parsing (a character outside the alphabet is a
    /// [`StrOutcome::RejectLex`] at its byte offset) and report parse
    /// rejections over the whole input.
    ///
    /// # Errors
    ///
    /// Contract violations of the underlying transformers, exactly as
    /// [`CompiledPipeline::parse`].
    pub fn parse_str(&self, input: &str) -> Result<StrOutcome, TransformError> {
        if let ParserImpl::LexedCfg(b) = &self.imp {
            return b.parse_str(input);
        }
        match self.read_chars(input) {
            Ok(w) => Ok(char_outcome(input, self.derive(&w)?)),
            Err(e) => Ok(StrOutcome::RejectLex(e)),
        }
    }

    /// [`CompiledPipeline::parse_str`] with per-stage spans recorded
    /// into `rec` (offsets measured from `epoch`). Observationally
    /// identical — same outcome on every input — but lexed LR
    /// pipelines run in staged form
    /// ([`LexedCfgBackend::parse_str_staged`]) so scan, certify and
    /// parse are timed as separate spans; other pipelines record a
    /// scan span (char-per-symbol reading) and a parse span.
    ///
    /// # Errors
    ///
    /// As [`CompiledPipeline::parse_str`].
    pub(crate) fn parse_str_traced<R: lambek_obs::Recorder>(
        &self,
        input: &str,
        epoch: Instant,
        rec: &mut R,
    ) -> Result<StrOutcome, TransformError> {
        use lambek_obs::Stage;
        if let ParserImpl::LexedCfg(b) = &self.imp {
            return b.parse_str_staged(input, epoch, rec);
        }
        let s0 = epoch.elapsed();
        let read = self.read_chars(input);
        rec.record(Stage::Scan, s0, epoch.elapsed().saturating_sub(s0));
        let w = match read {
            Ok(w) => w,
            Err(e) => return Ok(StrOutcome::RejectLex(e)),
        };
        let p0 = epoch.elapsed();
        let derived = self.derive(&w)?;
        rec.record(Stage::Parse, p0, epoch.elapsed().saturating_sub(p0));
        Ok(char_outcome(input, derived))
    }

    /// The char-per-symbol reading of raw text through the parser's
    /// alphabet; a character outside it is a lexical error at its byte
    /// offset.
    fn read_chars(&self, input: &str) -> Result<GString, LexError> {
        let sigma = self.alphabet();
        input
            .char_indices()
            .map(|(at, c)| sigma.symbol_of_char(c).ok_or(LexError { at, found: c }))
            .collect()
    }

    /// The certified derivation of `w`, `None` on rejection: the
    /// reduction log for CFG pipelines, the tree for the paper's
    /// constructions (whose rejection witnesses raw-text parses drop).
    fn derive(&self, w: &GString) -> Result<Option<Derivation>, TransformError> {
        Ok(match &self.imp {
            ParserImpl::Verified { parser, .. } => match parser.parse(w)? {
                ParseOutcome::Accept(tree) => Some(Derivation::Tree(tree)),
                ParseOutcome::Reject(_) => None,
            },
            ParserImpl::Cfg(b) => b.parse_log(w)?.map(Derivation::Log),
            ParserImpl::LexedCfg(b) => b.inner.parse_log(w)?.map(Derivation::Log),
        })
    }

    /// Fast acceptance check: a dense-table DFA or LR run when one is
    /// available, otherwise a full parse.
    ///
    /// Inputs the pipeline cannot process at all (backend-less pipelines
    /// past their truncation bound, where [`CompiledPipeline::parse`]
    /// returns an error) count as not accepted; use `parse` when the
    /// distinction between "rejected" and "failed" matters.
    pub fn accepts(&self, w: &GString) -> bool {
        match &self.imp {
            ParserImpl::Verified { dfa: Some(b), .. } => b.dfa.accepts(w),
            ParserImpl::Verified { parser, dfa: None } => {
                parser.parse(w).map(|o| o.is_accept()).unwrap_or(false)
            }
            ParserImpl::Cfg(b) => b.accepts(w),
            ParserImpl::LexedCfg(b) => b.inner.accepts(w),
        }
    }

    /// Fast raw-text acceptance: lex, then the recognition-only table
    /// run (no trees, no certification — use
    /// [`CompiledPipeline::parse_str`] for the certified answer). Lexed
    /// pipelines pull lexemes lazily and keep only the token-level
    /// yield, never materializing a [`TokenStream`].
    pub fn accepts_str(&self, input: &str) -> bool {
        match &self.imp {
            ParserImpl::LexedCfg(b) => {
                let mut w = GString::new();
                for item in b.lexer.automaton().lexemes(input) {
                    match item {
                        Err(_) => return false,
                        Ok(t) => {
                            if let Some(sym) = t.sym {
                                w.push(sym);
                            }
                        }
                    }
                }
                b.inner.accepts(&w)
            }
            _ => self
                .alphabet()
                .parse_str(input)
                .is_some_and(|w| self.accepts(&w)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambek_cfg::dyck::{dyck_cfg, parse_dyck_string, Parens};
    use lambek_cfg::grammar::{GSym, Production};

    #[test]
    // `Cfg`'s μ-encoding memo gives `PipelineSpec` interior mutability in
    // clippy's eyes; hashing and equality go through the id-based
    // `SpecKey` computed at construction, which the memo never touches.
    #[allow(clippy::mutable_key_type)]
    fn specs_with_equal_alphabets_are_equal_keys() {
        let a = PipelineSpec::regex(Alphabet::abc(), "a*b");
        let b = PipelineSpec::regex(Alphabet::from_chars("abc"), "a*b");
        assert_eq!(a, b);
        let mut set = std::collections::HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn spec_keys_are_interned_ids() {
        // The cache key is a small Copy value computed at construction:
        // equal specs share it, different specs differ in it, and
        // comparing two keys never traverses the alphabet or pattern.
        let a = PipelineSpec::regex(Alphabet::abc(), "a*b");
        let b = PipelineSpec::regex(Alphabet::from_chars("abc"), "a*b");
        let k = a.key();
        let copied: SpecKey = k; // SpecKey: Copy
        assert_eq!(copied, b.key());
        assert_ne!(a.key(), PipelineSpec::regex(Alphabet::abc(), "a*c").key());
        assert_ne!(
            a.key(),
            PipelineSpec::regex(Alphabet::from_chars("ab"), "a*b").key()
        );
        assert_ne!(PipelineSpec::dyck(4).key(), PipelineSpec::expr(4).key());
        assert_eq!(PipelineSpec::dyck(4).key(), PipelineSpec::dyck(4).key());
    }

    #[test]
    fn cfg_specs_share_keys_by_structure_not_label() {
        let p = Parens::new();
        let a = PipelineSpec::cfg("one", dyck_cfg(&p));
        let b = PipelineSpec::cfg("two", dyck_cfg(&p));
        assert_eq!(a, b, "labels are not part of the identity");
        assert_eq!(a.key(), PipelineSpec::dyck_cfg().key());
        assert_ne!(a.key(), PipelineSpec::expr_cfg().key());
        assert_ne!(a.key(), PipelineSpec::dyck(4).key());
        assert_eq!(a.label(), "cfg(one)");
    }

    #[test]
    fn dyck_pipeline_has_a_backend_expr_does_not() {
        let dyck = PipelineSpec::dyck(6).compile().unwrap();
        assert!(dyck.backend().is_some());
        let expr = PipelineSpec::expr(4).compile().unwrap();
        assert!(expr.backend().is_none());
    }

    #[test]
    fn backend_acceptance_matches_verified_parser() {
        let p = PipelineSpec::regex(Alphabet::abc(), "(a|b)*c")
            .compile()
            .unwrap();
        let sigma = p.alphabet().clone();
        for s in ["", "c", "abc", "ca", "abab", "bbac"] {
            let w = sigma.parse_str(s).unwrap();
            assert_eq!(p.accepts(&w), p.parse(&w).unwrap().is_accept(), "{s}");
        }
    }

    #[test]
    fn deterministic_cfg_compiles_to_lr() {
        let p = PipelineSpec::dyck_cfg().compile().unwrap();
        let b = p.cfg_backend().expect("cfg pipeline");
        assert!(b.lr().is_some(), "Dyck is LALR(1)");
        assert!(b.conflicts().is_none());
        assert!(p.parser().is_none(), "no verified transformer here");
        assert!(p.backend().is_none(), "no DFA either");
        let parens = Parens::new();
        let w = parens.alphabet.parse_str("(()())").unwrap();
        let outcome = p.parse(&w).unwrap();
        let tree = outcome.accepted().unwrap();
        assert_eq!(tree, &parse_dyck_string(&parens, &w).unwrap());
        assert!(p.accepts(&w));
        assert!(!p.accepts(&parens.alphabet.parse_str(")(").unwrap()));
    }

    #[test]
    fn conflicted_cfg_falls_back_to_earley() {
        // S ::= S S | a — ambiguous, hence conflicted, hence Earley.
        let s = Alphabet::abc();
        let a = s.symbol("a").unwrap();
        let cfg = Cfg::new(
            s.clone(),
            vec!["S".to_owned()],
            vec![vec![
                Production {
                    rhs: vec![GSym::N(0), GSym::N(0)],
                },
                Production {
                    rhs: vec![GSym::T(a)],
                },
            ]],
            0,
        );
        let p = PipelineSpec::cfg("ambiguous", cfg).compile().unwrap();
        let b = p.cfg_backend().unwrap();
        assert!(b.lr().is_none());
        let report = b.conflicts().expect("conflicts are preserved");
        assert!(!report.conflicts.is_empty());
        // The fallback still serves (and certifies) parses.
        let w = s.parse_str("aaa").unwrap();
        let outcome = p.parse(&w).unwrap();
        assert!(outcome.is_accept());
        assert_eq!(outcome.accepted().unwrap().flatten(), w);
        assert!(!p.parse(&s.parse_str("b").unwrap()).unwrap().is_accept());
    }

    #[test]
    fn lexed_pipeline_parses_raw_json_end_to_end() {
        let p = PipelineSpec::json_lexed().compile().unwrap();
        let b = p.lexed_backend().expect("lexed pipeline");
        assert!(b.cfg_backend().lr().is_some(), "the JSON subset is LALR(1)");
        assert!(p.cfg_backend().is_none(), "not a plain CFG pipeline");
        assert!(p.parser().is_none() && p.backend().is_none());

        let input = "{\"k\": [1, 2, {\"deep\": null}], \"ok\": true}";
        // The fused hot path: no token stream materialized.
        let out = p.parse_str(input).unwrap();
        let StrOutcome::Accept { derivation, tokens } = out else {
            panic!("valid JSON subset must parse: {out:?}");
        };
        assert!(tokens.is_none(), "the fused path never materializes");
        // The materializing variant agrees on the derivation and yields
        // the certified stream.
        let out = b.parse_str_tokens(input).unwrap();
        let StrOutcome::Accept {
            derivation: derivation2,
            tokens,
        } = out
        else {
            panic!("valid JSON subset must parse: {out:?}");
        };
        assert_eq!(
            derivation, derivation2,
            "fused and materializing paths agree"
        );
        let tree = derivation.to_parse_tree();
        let tokens = tokens.expect("the materializing path reports tokens");
        // Double certification is re-checkable from the outside too:
        // the tree's yield is the token string…
        assert_eq!(&tree.flatten(), tokens.yield_string());
        validate(&tree, p.grammar(), tokens.yield_string()).unwrap();
        // …and the lexer's spans tile the raw text.
        b.lexer().certify(input, tokens.tokens()).unwrap();
        assert!(p.accepts_str(input));
    }

    #[test]
    fn lexed_rejections_point_at_bytes() {
        let p = PipelineSpec::json_lexed().compile().unwrap();
        // Lexical error: '?' is not in the character alphabet.
        match p.parse_str("{\"a\": ?}").unwrap() {
            StrOutcome::RejectLex(e) => {
                assert_eq!(e.at, 6);
                assert_eq!(e.found, '?');
            }
            other => panic!("expected a lex rejection, got {other:?}"),
        }
        // Parse error: the offending token's byte span is reported.
        match p.parse_str("{\"a\" 1}").unwrap() {
            StrOutcome::RejectParse { span, message, .. } => {
                assert_eq!((span.start, span.end), (5, 6), "the NUM token");
                assert!(message.contains("expected"), "{message}");
            }
            other => panic!("expected a parse rejection, got {other:?}"),
        }
        // Unexpected end of input: empty span at the end.
        match p.parse_str("{\"a\":").unwrap() {
            StrOutcome::RejectParse { span, .. } => {
                assert_eq!((span.start, span.end), (5, 5));
            }
            other => panic!("expected a parse rejection, got {other:?}"),
        }
        assert!(!p.accepts_str("{\"a\": ?}"));
        assert!(!p.accepts_str("{\"a\" 1}"));
    }

    #[test]
    fn lexed_specs_intern_their_cache_identity() {
        let a = PipelineSpec::json_lexed();
        let b = PipelineSpec::lexed_cfg(
            "other-label",
            lambek_lex::demo::json_spec(),
            lambek_lex::demo::json_cfg(),
        );
        assert_eq!(a, b, "labels are not part of the identity");
        assert_eq!(a.key(), b.key());
        assert_ne!(a.key(), PipelineSpec::arith_lexed().key());
        assert_ne!(a.key(), PipelineSpec::dyck_cfg().key());
        // Same grammar, different lexer ⇒ different pipeline.
        let sigma = lambek_lex::demo::json_chars();
        let mut builder = lambek_lex::LexSpecBuilder::new(sigma.clone());
        for r in lambek_lex::demo::json_spec().rules() {
            builder = if r.skip {
                builder.skip_re(&r.name, r.regex.clone()).unwrap()
            } else {
                builder.token_re(&r.name, r.regex.clone()).unwrap()
            };
        }
        let respaced = builder.skip("WS2", "::*").unwrap();
        let variant = PipelineSpec::lexed_cfg(
            "json-lexed",
            respaced.build().unwrap(),
            lambek_lex::demo::json_cfg(),
        );
        assert_ne!(a.key(), variant.key());
    }

    #[test]
    fn lexed_alphabet_mismatch_is_a_compile_error() {
        // Arithmetic lexer in front of the JSON grammar: the token
        // alphabets differ, and compile must say so.
        let spec = PipelineSpec::lexed_cfg(
            "mismatched",
            lambek_lex::demo::arith_spec(),
            lambek_lex::demo::json_cfg(),
        );
        match spec.compile() {
            Err(EngineError::Compile(m)) => assert!(m.contains("token alphabet"), "{m}"),
            other => panic!("expected a compile error, got {other:?}"),
        }
    }

    #[test]
    fn lexed_pipeline_still_parses_pretokenized_strings() {
        // parse(&GString) on a lexed pipeline goes straight to the
        // token-level backend — the batch `parse_many` path.
        let p = PipelineSpec::arith_lexed().compile().unwrap();
        let t = lambek_automata::lookahead::ArithTokens::new();
        let w: GString = [t.num, t.add, t.num].into_iter().collect();
        assert!(p.parse(&w).unwrap().is_accept());
        assert!(p.accepts(&w));
        // And the raw-text form of the same sentence agrees.
        assert!(p.parse_str("12 + 3").unwrap().is_accept());
    }

    #[test]
    fn non_lexed_parse_str_reads_chars() {
        let p = PipelineSpec::dyck_cfg().compile().unwrap();
        assert!(p.parse_str("(()())").unwrap().is_accept());
        assert!(p.accepts_str("(()())"));
        match p.parse_str("(()").unwrap() {
            StrOutcome::RejectParse { span, tokens, .. } => {
                assert_eq!((span.start, span.end), (0, 3), "whole-input span");
                assert!(tokens.is_none(), "no lexer, no token stream");
            }
            other => panic!("expected a parse rejection, got {other:?}"),
        }
        match p.parse_str("(x)").unwrap() {
            StrOutcome::RejectLex(e) => {
                assert_eq!((e.at, e.found), (1, 'x'));
            }
            other => panic!("expected a lex rejection, got {other:?}"),
        }
    }

    #[test]
    fn cfg_rejections_carry_the_top_witness() {
        let p = PipelineSpec::dyck_cfg().compile().unwrap();
        let parens = Parens::new();
        let w = parens.alphabet.parse_str("(()").unwrap();
        match p.parse(&w).unwrap() {
            ParseOutcome::Reject(t) => {
                assert_eq!(t, ParseTree::Top(w.clone()), "⊤-parse of the input");
                assert_eq!(t.flatten(), w, "yield-correct even on rejection");
            }
            ParseOutcome::Accept(_) => panic!("(() is unbalanced"),
        }
    }
}
