//! The self-hosted bootstrap pipeline for the grammar language.
//!
//! The frontend does not hand-roll its own lexer and parser: the
//! grammar language's concrete syntax is itself a [`LexSpec`] +
//! [`Cfg`], compiled through the same certified machinery user grammars
//! are compiled into — the meta lexer is a [`CertifiedLexer`], the meta
//! parser a [`CertifiedLrParser`], so every spec text is lexed with
//! span-tiling/derivative re-validation and parsed with a certified
//! LALR(1) drive *before* the frontend trusts a byte of it. The engine
//! serves the same pair through its pipeline cache
//! (`PipelineSpec::lexed_cfg(meta_spec(), meta_cfg())`), which is what
//! makes `Engine::compile_text` self-hosting: the bootstrap pipeline is
//! just another cached pipeline.
//!
//! The meta grammar (`::=` splits a rule into alternatives; an empty
//! alternative is ε):
//!
//! ```text
//! File  ::= Decls
//! Decls ::= Decl | Decls Decl
//! Decl  ::= token IDENT = RAlt ; | skip IDENT = RAlt ;
//!         | start IDENT ; | alphabet CLASS ; | IDENT ::= Alts ;
//! Alts  ::= Seq | Alts "|" Seq
//! Seq   ::= ε | Seq Sym
//! Sym   ::= IDENT | LIT
//! RAlt  ::= RCat | RAlt "|" RCat
//! RCat  ::= RPost | RCat RPost
//! RPost ::= RAtom | RPost * | RPost + | RPost ?
//! RAtom ::= LIT | CLASS | ( RAlt )
//! ```
//!
//! Spec texts range over printable ASCII plus tab/newline/CR — the
//! bootstrap lexer's character alphabet. A consequence the docs call
//! out: user grammars can only describe languages over that character
//! set.

use std::sync::OnceLock;

use lambek_cfg::grammar::{Cfg, GSym, Production};
use lambek_core::alphabet::{Alphabet, Symbol};
use lambek_core::grammar::parse_tree::ParseTree;
use lambek_lex::{
    class, literal, plus, CertifiedLexer, LexSpec, LexSpecBuilder, LexedOutcome, Span, TokenStream,
};
use lambek_lr::{CertifiedLrParser, LrOutcome};
use regex_grammars::ast::Regex;

use crate::surface::{
    decode_literal, parse_class, Decl, DeclKind, Ident, RegexAst, RegexKind, SeqAst, SpecAst,
    SymAst, SymKind,
};
use crate::{FrontendError, FrontendErrorKind};

/// The bootstrap character alphabet: printable ASCII (0x20–0x7E) plus
/// tab, newline and carriage return — every byte a spec text may
/// contain, and therefore the largest character set a user grammar can
/// speak about.
pub fn meta_chars() -> Alphabet {
    static CHARS: OnceLock<Alphabet> = OnceLock::new();
    CHARS
        .get_or_init(|| Alphabet::from_chars(&meta_char_string()))
        .clone()
}

fn meta_char_string() -> String {
    let mut s = String::from("\t\n\r");
    s.extend((0x20u8..=0x7E).map(char::from));
    s
}

/// All bootstrap characters except those in `exclude`, as a class
/// regex.
fn any_but(sigma: &Alphabet, exclude: &str) -> Regex {
    let keep: String = meta_char_string()
        .chars()
        .filter(|c| !exclude.contains(*c))
        .collect();
    class(sigma, &keep)
}

/// The meta lex spec: keywords before `IDENT` (priority breaks the
/// equal-length tie), punctuation, identifiers, quoted literals,
/// bracketed classes, and skipped whitespace/`#`-comments.
pub fn meta_spec() -> LexSpec {
    let sigma = meta_chars();
    let ident_head = class(
        &sigma,
        "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_",
    );
    let ident_tail = class(
        &sigma,
        "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_0123456789",
    );
    // LIT: '…' where … is any char except quote/backslash/newline, or a
    // backslash followed by anything but a raw newline.
    let lit_body = Regex::alt(
        any_but(&sigma, "'\\\n\r"),
        Regex::concat(literal(&sigma, "\\"), any_but(&sigma, "\n\r")),
    );
    let lit = Regex::concat(
        literal(&sigma, "'"),
        Regex::concat(Regex::star(lit_body), literal(&sigma, "'")),
    );
    // CLASS: […] where … is any char except `]`/backslash, or a
    // backslash followed by anything.
    let class_body = Regex::alt(
        any_but(&sigma, "]\\"),
        Regex::concat(literal(&sigma, "\\"), class(&sigma, &meta_char_string())),
    );
    let class_re = Regex::concat(
        literal(&sigma, "["),
        Regex::concat(Regex::star(class_body), literal(&sigma, "]")),
    );
    LexSpecBuilder::new(sigma.clone())
        .token_re("TOKEN", literal(&sigma, "token"))
        .expect("valid rule")
        .token_re("SKIP", literal(&sigma, "skip"))
        .expect("valid rule")
        .token_re("START", literal(&sigma, "start"))
        .expect("valid rule")
        .token_re("ALPHABET", literal(&sigma, "alphabet"))
        .expect("valid rule")
        .token_re("DEFINE", literal(&sigma, "::="))
        .expect("valid rule")
        .token_re("EQ", literal(&sigma, "="))
        .expect("valid rule")
        .token_re("BAR", literal(&sigma, "|"))
        .expect("valid rule")
        .token_re("SEMI", literal(&sigma, ";"))
        .expect("valid rule")
        .token_re("STAR", literal(&sigma, "*"))
        .expect("valid rule")
        .token_re("PLUS", literal(&sigma, "+"))
        .expect("valid rule")
        .token_re("QUEST", literal(&sigma, "?"))
        .expect("valid rule")
        .token_re("LPAREN", literal(&sigma, "("))
        .expect("valid rule")
        .token_re("RPAREN", literal(&sigma, ")"))
        .expect("valid rule")
        .token_re("IDENT", Regex::concat(ident_head, Regex::star(ident_tail)))
        .expect("valid rule")
        .token_re("LIT", lit)
        .expect("valid rule")
        .token_re("CLASS", class_re)
        .expect("valid rule")
        .skip_re("WS", plus(class(&sigma, " \t\n\r")))
        .expect("valid rule")
        .skip_re(
            "COMMENT",
            Regex::concat(literal(&sigma, "#"), Regex::star(any_but(&sigma, "\n"))),
        )
        .expect("valid rule")
        .build()
        .expect("valid meta spec")
}

// Nonterminal indices of the meta grammar, shared with the tree walker.
const FILE: usize = 0;
const DECLS: usize = 1;
const DECL: usize = 2;
const ALTS: usize = 3;
const SEQ: usize = 4;
const SYM: usize = 5;
const RALT: usize = 6;
const RCAT: usize = 7;
const RPOST: usize = 8;
const RATOM: usize = 9;

/// The meta grammar over [`meta_spec`]'s token alphabet. LALR(1) — the
/// bootstrap self-test compiles it with [`CertifiedLrParser`] and the
/// unit suite asserts conflict-freeness.
pub fn meta_cfg() -> Cfg {
    let tokens = meta_spec().token_alphabet().clone();
    let t = |name: &str| GSym::T(tokens.symbol(name).expect("meta token"));
    let n = GSym::N;
    let p = |rhs: Vec<GSym>| Production { rhs };
    Cfg::new(
        tokens.clone(),
        vec![
            "File".to_owned(),
            "Decls".to_owned(),
            "Decl".to_owned(),
            "Alts".to_owned(),
            "Seq".to_owned(),
            "Sym".to_owned(),
            "RAlt".to_owned(),
            "RCat".to_owned(),
            "RPost".to_owned(),
            "RAtom".to_owned(),
        ],
        vec![
            // File ::= Decls
            vec![p(vec![n(DECLS)])],
            // Decls ::= Decl | Decls Decl
            vec![p(vec![n(DECL)]), p(vec![n(DECLS), n(DECL)])],
            // Decl ::= token IDENT = RAlt ; | skip IDENT = RAlt ;
            //        | start IDENT ; | alphabet CLASS ; | IDENT ::= Alts ;
            vec![
                p(vec![t("TOKEN"), t("IDENT"), t("EQ"), n(RALT), t("SEMI")]),
                p(vec![t("SKIP"), t("IDENT"), t("EQ"), n(RALT), t("SEMI")]),
                p(vec![t("START"), t("IDENT"), t("SEMI")]),
                p(vec![t("ALPHABET"), t("CLASS"), t("SEMI")]),
                p(vec![t("IDENT"), t("DEFINE"), n(ALTS), t("SEMI")]),
            ],
            // Alts ::= Seq | Alts "|" Seq
            vec![p(vec![n(SEQ)]), p(vec![n(ALTS), t("BAR"), n(SEQ)])],
            // Seq ::= ε | Seq Sym
            vec![p(vec![]), p(vec![n(SEQ), n(SYM)])],
            // Sym ::= IDENT | LIT
            vec![p(vec![t("IDENT")]), p(vec![t("LIT")])],
            // RAlt ::= RCat | RAlt "|" RCat
            vec![p(vec![n(RCAT)]), p(vec![n(RALT), t("BAR"), n(RCAT)])],
            // RCat ::= RPost | RCat RPost
            vec![p(vec![n(RPOST)]), p(vec![n(RCAT), n(RPOST)])],
            // RPost ::= RAtom | RPost * | RPost + | RPost ?
            vec![
                p(vec![n(RATOM)]),
                p(vec![n(RPOST), t("STAR")]),
                p(vec![n(RPOST), t("PLUS")]),
                p(vec![n(RPOST), t("QUEST")]),
            ],
            // RAtom ::= LIT | CLASS | ( RAlt )
            vec![
                p(vec![t("LIT")]),
                p(vec![t("CLASS")]),
                p(vec![t("LPAREN"), n(RALT), t("RPAREN")]),
            ],
        ],
        FILE,
    )
}

/// The compiled bootstrap pipeline: certified meta lexer + certified
/// meta LALR(1) parser, built once per process.
pub struct Bootstrap {
    lexer: CertifiedLexer,
    parser: CertifiedLrParser,
    cfg: Cfg,
}

impl Bootstrap {
    /// The meta grammar (for tree walking and table introspection).
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// The certified meta lexer.
    pub fn lexer(&self) -> &CertifiedLexer {
        &self.lexer
    }

    /// The certified meta parser.
    pub fn parser(&self) -> &CertifiedLrParser {
        &self.parser
    }
}

/// The process-wide bootstrap pipeline (compiled on first use).
pub fn bootstrap() -> &'static Bootstrap {
    static BOOT: OnceLock<Bootstrap> = OnceLock::new();
    BOOT.get_or_init(|| {
        let cfg = meta_cfg();
        Bootstrap {
            lexer: CertifiedLexer::compile(meta_spec()),
            parser: CertifiedLrParser::compile(&cfg)
                .expect("the bootstrap meta grammar is LALR(1)"),
            cfg,
        }
    })
}

/// Parses a spec text through the standalone bootstrap pipeline
/// (certified lex, then certified LALR drive) and walks the certified
/// derivation tree into a spanned [`SpecAst`].
///
/// This is the engine-free path; `Engine::compile_text` runs the same
/// lexer+grammar through its pipeline cache instead and hands the
/// resulting tree to [`ast_from_tree`].
pub fn parse_text(text: &str) -> Result<SpecAst, FrontendError> {
    let boot = bootstrap();
    let stream = match boot.lexer.lex(text) {
        Ok(LexedOutcome::Tokens(stream)) => stream,
        Ok(LexedOutcome::Reject(err)) => {
            return Err(FrontendError::new(
                FrontendErrorKind::Syntax {
                    message: format!("unlexable input: {err}"),
                },
                Span::empty(err.at),
                text,
            ))
        }
        Err(fault) => {
            return Err(FrontendError::new(
                FrontendErrorKind::Syntax {
                    message: format!("lexer certification fault: {fault}"),
                },
                Span::empty(0),
                text,
            ))
        }
    };
    let tree = match boot.parser.parse(stream.yield_string()) {
        Ok(LrOutcome::Accept(log)) => log.to_parse_tree(),
        Ok(LrOutcome::Reject(reject)) => {
            let span = stream.span_of_yield(reject.at, text.len());
            return Err(FrontendError::new(
                FrontendErrorKind::Syntax {
                    message: format!("expected one of [{}]", reject.expected.join(", ")),
                },
                span,
                text,
            ));
        }
        Err(fault) => {
            return Err(FrontendError::new(
                FrontendErrorKind::Syntax {
                    message: format!("parser certification fault: {fault}"),
                },
                Span::empty(0),
                text,
            ))
        }
    };
    ast_from_tree(text, &tree, &stream)
}

/// One token of the bootstrap yield, as the tree walker consumes it.
struct Leaf {
    sym: Symbol,
    text: String,
    span: Span,
}

/// Walks a certified bootstrap derivation tree (plus the token stream
/// it parses) into the spanned surface AST.
///
/// The tree's `Char` leaves are, left to right, exactly the token
/// yield, so the walker pairs a recursive descent over the μ-regular
/// tree shape (`Roll(Inj(alt, right-nested pairs))`) with a cursor into
/// the yield. Both inputs come from a certified parse; a shape mismatch
/// is an internal invariant violation and panics.
pub fn ast_from_tree(
    text: &str,
    tree: &ParseTree,
    stream: &TokenStream,
) -> Result<SpecAst, FrontendError> {
    let leaves: Vec<Leaf> = stream
        .tokens()
        .iter()
        .filter_map(|t| {
            t.sym.map(|sym| Leaf {
                sym,
                text: t.text.clone(),
                span: t.span,
            })
        })
        .collect();
    let mut walker = Walker {
        cfg: bootstrap().cfg(),
        text,
        leaves,
        pos: 0,
    };
    let decls = walker.file(tree)?;
    Ok(SpecAst { decls })
}

struct Walker<'t> {
    cfg: &'t Cfg,
    text: &'t str,
    leaves: Vec<Leaf>,
    pos: usize,
}

impl<'t> Walker<'t> {
    /// Destructures one `Roll(Inj(alt, body))` node of nonterminal `nt`
    /// into its alternative index and child subtrees.
    fn node<'a>(&self, nt: usize, tree: &'a ParseTree) -> (usize, Vec<&'a ParseTree>) {
        let ParseTree::Roll(inner) = tree else {
            panic!("bootstrap walker: expected Roll at {}", self.cfg.name(nt));
        };
        let ParseTree::Inj { index, tree: body } = &**inner else {
            panic!("bootstrap walker: expected Inj at {}", self.cfg.name(nt));
        };
        let arity = self.cfg.alternatives(nt)[*index].rhs.len();
        let mut kids = Vec::with_capacity(arity);
        let mut cur: &ParseTree = body;
        for i in 0..arity {
            if i + 1 == arity {
                kids.push(cur);
            } else {
                let ParseTree::Pair(l, r) = cur else {
                    panic!("bootstrap walker: expected Pair at {}", self.cfg.name(nt));
                };
                kids.push(l);
                cur = r;
            }
        }
        (*index, kids)
    }

    /// Consumes the next yield token for a `Char` leaf and returns it.
    fn leaf(&mut self, tree: &ParseTree) -> &Leaf {
        let ParseTree::Char(sym) = tree else {
            panic!("bootstrap walker: expected terminal leaf");
        };
        let leaf = &self.leaves[self.pos];
        assert_eq!(leaf.sym, *sym, "bootstrap walker: yield out of sync");
        self.pos += 1;
        leaf
    }

    fn ident(&mut self, tree: &ParseTree) -> Ident {
        let leaf = self.leaf(tree);
        Ident {
            text: leaf.text.clone(),
            span: leaf.span,
        }
    }

    fn file(&mut self, tree: &ParseTree) -> Result<Vec<Decl>, FrontendError> {
        let (_, kids) = self.node(FILE, tree);
        let mut decls = Vec::new();
        self.decls(kids[0], &mut decls)?;
        Ok(decls)
    }

    fn decls(&mut self, tree: &ParseTree, out: &mut Vec<Decl>) -> Result<(), FrontendError> {
        let (alt, kids) = self.node(DECLS, tree);
        if alt == 1 {
            self.decls(kids[0], out)?;
            out.push(self.decl(kids[1])?);
        } else {
            out.push(self.decl(kids[0])?);
        }
        Ok(())
    }

    fn decl(&mut self, tree: &ParseTree) -> Result<Decl, FrontendError> {
        let first = self.pos;
        let (alt, kids) = self.node(DECL, tree);
        let kind = match alt {
            0 | 1 => {
                let _kw = self.leaf(kids[0]);
                let name = self.ident(kids[1]);
                let _eq = self.leaf(kids[2]);
                let regex = self.regex_alt(kids[3])?;
                let _semi = self.leaf(kids[4]);
                if alt == 0 {
                    DeclKind::Token { name, regex }
                } else {
                    DeclKind::Skip { name, regex }
                }
            }
            2 => {
                let _kw = self.leaf(kids[0]);
                let name = self.ident(kids[1]);
                let _semi = self.leaf(kids[2]);
                DeclKind::Start { name }
            }
            3 => {
                let _kw = self.leaf(kids[0]);
                let class_leaf = self.leaf(kids[1]);
                let (raw, span) = (class_leaf.text.clone(), class_leaf.span);
                let _semi = self.leaf(kids[2]);
                DeclKind::Alphabet {
                    class: parse_class(&raw, span, self.text)?,
                }
            }
            4 => {
                let name = self.ident(kids[0]);
                let _def = self.leaf(kids[1]);
                let alts = self.alts(kids[2])?;
                let _semi = self.leaf(kids[3]);
                DeclKind::Rule { name, alts }
            }
            _ => unreachable!("meta Decl has five alternatives"),
        };
        Ok(Decl {
            kind,
            span: self.span_since(first),
        })
    }

    /// The source span covering yield tokens `first..self.pos`.
    fn span_since(&self, first: usize) -> Span {
        if first == self.pos {
            let at = self
                .leaves
                .get(first)
                .map(|l| l.span.start)
                .unwrap_or(self.text.len());
            return Span::empty(at);
        }
        Span {
            start: self.leaves[first].span.start,
            end: self.leaves[self.pos - 1].span.end,
        }
    }

    fn alts(&mut self, tree: &ParseTree) -> Result<Vec<SeqAst>, FrontendError> {
        let (alt, kids) = self.node(ALTS, tree);
        if alt == 1 {
            let mut head = self.alts(kids[0])?;
            let _bar = self.leaf(kids[1]);
            head.push(self.seq(kids[2])?);
            Ok(head)
        } else {
            Ok(vec![self.seq(kids[0])?])
        }
    }

    fn seq(&mut self, tree: &ParseTree) -> Result<SeqAst, FrontendError> {
        let first = self.pos;
        let mut syms = Vec::new();
        self.seq_syms(tree, &mut syms)?;
        Ok(SeqAst {
            syms,
            span: self.span_since(first),
        })
    }

    fn seq_syms(&mut self, tree: &ParseTree, out: &mut Vec<SymAst>) -> Result<(), FrontendError> {
        let (alt, kids) = self.node(SEQ, tree);
        if alt == 1 {
            self.seq_syms(kids[0], out)?;
            out.push(self.sym(kids[1])?);
        }
        Ok(())
    }

    fn sym(&mut self, tree: &ParseTree) -> Result<SymAst, FrontendError> {
        let (alt, kids) = self.node(SYM, tree);
        let leaf = self.leaf(kids[0]);
        let (raw, span) = (leaf.text.clone(), leaf.span);
        let kind = if alt == 0 {
            SymKind::Ident(raw)
        } else {
            SymKind::Literal(decode_literal(&raw, span, self.text)?)
        };
        Ok(SymAst { kind, span })
    }

    fn regex_alt(&mut self, tree: &ParseTree) -> Result<RegexAst, FrontendError> {
        let first = self.pos;
        let (alt, kids) = self.node(RALT, tree);
        if alt == 1 {
            let l = self.regex_alt(kids[0])?;
            let _bar = self.leaf(kids[1]);
            let r = self.regex_cat(kids[2])?;
            Ok(RegexAst {
                kind: RegexKind::Alt(Box::new(l), Box::new(r)),
                span: self.span_since(first),
            })
        } else {
            self.regex_cat(kids[0])
        }
    }

    fn regex_cat(&mut self, tree: &ParseTree) -> Result<RegexAst, FrontendError> {
        let first = self.pos;
        let (alt, kids) = self.node(RCAT, tree);
        if alt == 1 {
            let l = self.regex_cat(kids[0])?;
            let r = self.regex_post(kids[1])?;
            Ok(RegexAst {
                kind: RegexKind::Concat(Box::new(l), Box::new(r)),
                span: self.span_since(first),
            })
        } else {
            self.regex_post(kids[0])
        }
    }

    fn regex_post(&mut self, tree: &ParseTree) -> Result<RegexAst, FrontendError> {
        let first = self.pos;
        let (alt, kids) = self.node(RPOST, tree);
        if alt == 0 {
            return self.regex_atom(kids[0]);
        }
        let inner = self.regex_post(kids[0])?;
        let _op = self.leaf(kids[1]);
        let kind = match alt {
            1 => RegexKind::Star(Box::new(inner)),
            2 => RegexKind::Plus(Box::new(inner)),
            3 => RegexKind::Opt(Box::new(inner)),
            _ => unreachable!("meta RPost has four alternatives"),
        };
        Ok(RegexAst {
            kind,
            span: self.span_since(first),
        })
    }

    fn regex_atom(&mut self, tree: &ParseTree) -> Result<RegexAst, FrontendError> {
        let first = self.pos;
        let (alt, kids) = self.node(RATOM, tree);
        match alt {
            0 => {
                let leaf = self.leaf(kids[0]);
                let (raw, span) = (leaf.text.clone(), leaf.span);
                Ok(RegexAst {
                    kind: RegexKind::Literal(decode_literal(&raw, span, self.text)?),
                    span,
                })
            }
            1 => {
                let leaf = self.leaf(kids[0]);
                let (raw, span) = (leaf.text.clone(), leaf.span);
                Ok(RegexAst {
                    kind: RegexKind::Class(parse_class(&raw, span, self.text)?),
                    span,
                })
            }
            2 => {
                let _lp = self.leaf(kids[0]);
                let inner = self.regex_alt(kids[1])?;
                let _rp = self.leaf(kids[2]);
                Ok(RegexAst {
                    kind: inner.kind,
                    span: self.span_since(first),
                })
            }
            _ => unreachable!("meta RAtom has three alternatives"),
        }
    }
}
