//! Context-free grammars and their encoding as inductive linear types.
//!
//! CFGs are equivalent to μ-regular expressions — regular expressions
//! with the Kleene star generalized to arbitrary least fixed points
//! (Leiß's theorem, cited in §4.2). [`Cfg::to_lambek`] realizes exactly
//! that encoding: one `μ` definition per nonterminal, one `⊕` summand per
//! production, the production body as a right-nested `⊗`. Parse trees of
//! the resulting grammar are *derivation trees* of the CFG:
//! `roll (σ production (sym₁, (sym₂, …)))`.

use std::fmt;

use lambek_core::alphabet::{Alphabet, GString, Symbol};
use lambek_core::grammar::expr::{chr, mu, plus, seq, var, Grammar, MuSystem};
use lambek_core::grammar::parse_tree::ParseTree;

/// A grammar symbol: terminal or nonterminal. `Ord` so constructions
/// that group by symbol (the LALR successor fan-out) can iterate in a
/// deterministic order — state numbering must not depend on hash seeds,
/// or two compiles of the same grammar would disagree on serialized
/// parser state (see the session-migration contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GSym {
    /// A terminal character.
    T(Symbol),
    /// A nonterminal, by index.
    N(usize),
}

/// One production: a nonterminal and its right-hand side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Production {
    /// The right-hand side (empty = ε-production).
    pub rhs: Vec<GSym>,
}

/// A context-free grammar.
#[derive(Debug, Clone)]
pub struct Cfg {
    alphabet: Alphabet,
    nonterminal_names: Vec<String>,
    /// `productions[n]` lists the alternatives of nonterminal `n`.
    productions: Vec<Vec<Production>>,
    start: usize,
    /// Memoized μ-regular encoding: [`Cfg::to_lambek`] is consulted on
    /// hot paths (the engine derives its interned cache key from it), so
    /// the encoding is built once per `Cfg` value. Clones made after the
    /// first encoding share the cached `Arc`.
    lambek: std::sync::OnceLock<Grammar>,
}

impl Cfg {
    /// Creates a CFG.
    ///
    /// # Panics
    ///
    /// Panics if `start` is out of range, the name/production lists differ
    /// in length, or any production references an unknown nonterminal.
    pub fn new(
        alphabet: Alphabet,
        nonterminal_names: Vec<String>,
        productions: Vec<Vec<Production>>,
        start: usize,
    ) -> Cfg {
        assert_eq!(
            nonterminal_names.len(),
            productions.len(),
            "one production list per nonterminal"
        );
        assert!(start < productions.len(), "start nonterminal out of range");
        for alts in &productions {
            for p in alts {
                for sym in &p.rhs {
                    if let GSym::N(n) = sym {
                        assert!(*n < productions.len(), "unknown nonterminal {n}");
                    }
                }
            }
        }
        Cfg {
            alphabet,
            nonterminal_names,
            productions,
            start,
            lambek: std::sync::OnceLock::new(),
        }
    }

    /// The terminal alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Number of nonterminals.
    pub fn num_nonterminals(&self) -> usize {
        self.productions.len()
    }

    /// The start nonterminal.
    pub fn start(&self) -> usize {
        self.start
    }

    /// The display name of nonterminal `n`.
    pub fn name(&self, n: usize) -> &str {
        &self.nonterminal_names[n]
    }

    /// The alternatives of nonterminal `n`.
    pub fn alternatives(&self, n: usize) -> &[Production] {
        &self.productions[n]
    }

    /// The μ-regular encoding: the CFG as an inductive linear type whose
    /// parses are derivation trees (§4.2). Memoized: repeated calls (the
    /// engine keys its pipeline cache off this) return the shared
    /// canonical `Arc` without re-encoding.
    pub fn to_lambek(&self) -> Grammar {
        self.lambek().clone()
    }

    /// [`Cfg::to_lambek`] by reference, encoded on first use.
    pub fn lambek(&self) -> &Grammar {
        self.lambek
            .get_or_init(|| mu(self.to_lambek_system(), self.start))
    }

    /// The underlying `μ` system (one definition per nonterminal).
    pub fn to_lambek_system(&self) -> std::sync::Arc<MuSystem> {
        let defs = self
            .productions
            .iter()
            .map(|alts| {
                plus(
                    alts.iter()
                        .map(|p| {
                            seq(p.rhs.iter().map(|sym| match sym {
                                GSym::T(c) => chr(*c),
                                GSym::N(n) => var(*n),
                            }))
                        })
                        .collect(),
                )
            })
            .collect();
        MuSystem::new(defs, self.nonterminal_names.clone())
    }

    /// Builds the derivation parse tree for nonterminal `nt` via
    /// production `alt` with the given child trees (one per RHS symbol).
    ///
    /// # Panics
    ///
    /// Panics if the child count does not match the production.
    pub fn derivation(&self, nt: usize, alt: usize, children: Vec<ParseTree>) -> ParseTree {
        let prod = &self.productions[nt][alt];
        assert_eq!(
            children.len(),
            prod.rhs.len(),
            "one child tree per RHS symbol"
        );
        // Right-nested tensor, empty RHS = Unit — mirroring `seq`.
        let mut iter = children.into_iter().rev();
        let body = match iter.next() {
            None => ParseTree::Unit,
            Some(last) => iter.fold(last, |acc, t| ParseTree::pair(t, acc)),
        };
        ParseTree::roll(ParseTree::inj(alt, body))
    }

    /// Generates a random sentence of the grammar (leftmost derivation
    /// with depth-limited recursion), or `None` if the limit is hit.
    pub fn random_sentence(&self, seed: u64, max_depth: usize) -> Option<GString> {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = GString::new();
        self.expand(&mut rng, self.start, max_depth, &mut out)
            .then_some(out)
    }

    fn expand(&self, rng: &mut impl rand::Rng, nt: usize, depth: usize, out: &mut GString) -> bool {
        if depth == 0 {
            return false;
        }
        let alts = &self.productions[nt];
        if alts.is_empty() {
            return false;
        }
        // Prefer shorter productions when shallow to encourage termination.
        let idx = rng.gen_range(0..alts.len());
        let order: Vec<usize> = (0..alts.len()).map(|i| (i + idx) % alts.len()).collect();
        'alts: for i in order {
            let checkpoint = out.len();
            for sym in &alts[i].rhs {
                let ok = match sym {
                    GSym::T(c) => {
                        out.push(*c);
                        true
                    }
                    GSym::N(n) => self.expand(rng, *n, depth - 1, out),
                };
                if !ok {
                    // Roll back and try the next alternative.
                    *out = GString::from_symbols(out.as_slice()[..checkpoint].to_vec());
                    continue 'alts;
                }
            }
            return true;
        }
        false
    }
}

impl fmt::Display for Cfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (n, alts) in self.productions.iter().enumerate() {
            write!(f, "{} ::=", self.nonterminal_names[n])?;
            for (i, p) in alts.iter().enumerate() {
                if i > 0 {
                    write!(f, " |")?;
                }
                if p.rhs.is_empty() {
                    write!(f, " ε")?;
                }
                for sym in &p.rhs {
                    match sym {
                        GSym::T(c) => write!(f, " {}", self.alphabet.name(*c))?,
                        GSym::N(n) => write!(f, " {}", self.nonterminal_names[*n])?,
                    }
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// The `aⁿbⁿ` grammar: `S ::= ε | a S b` — the simplest properly
/// context-free language, used across the test suite.
pub fn anbn(alphabet: &Alphabet, a: Symbol, b: Symbol) -> Cfg {
    Cfg::new(
        alphabet.clone(),
        vec!["S".to_owned()],
        vec![vec![
            Production { rhs: vec![] },
            Production {
                rhs: vec![GSym::T(a), GSym::N(0), GSym::T(b)],
            },
        ]],
        0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambek_core::grammar::compile::CompiledGrammar;
    use lambek_core::grammar::parse_tree::validate;
    use lambek_core::theory::unambiguous::{all_strings, check_unambiguous};

    fn ab() -> (Alphabet, Symbol, Symbol) {
        let s = Alphabet::abc();
        (s.clone(), s.symbol("a").unwrap(), s.symbol("b").unwrap())
    }

    #[test]
    fn anbn_language() {
        let (s, a, b) = ab();
        let cfg = anbn(&s, a, b);
        let cg = CompiledGrammar::new(&cfg.to_lambek());
        for n in 0..5 {
            let w = s
                .parse_str(&format!("{}{}", "a".repeat(n), "b".repeat(n)))
                .unwrap();
            assert!(cg.recognizes(&w), "a^{n} b^{n}");
        }
        for no in ["a", "b", "ba", "aab", "abb", "abab"] {
            assert!(!cg.recognizes(&s.parse_str(no).unwrap()), "{no}");
        }
    }

    #[test]
    fn anbn_is_unambiguous() {
        let (s, a, b) = ab();
        let cfg = anbn(&s, a, b);
        check_unambiguous(&cfg.to_lambek(), &s, 4).unwrap();
    }

    #[test]
    fn derivation_builds_valid_trees() {
        let (s, a, b) = ab();
        let cfg = anbn(&s, a, b);
        // S → a S b with S → ε inside: parses "ab".
        let inner = cfg.derivation(0, 0, vec![]);
        let t = cfg.derivation(0, 1, vec![ParseTree::Char(a), inner, ParseTree::Char(b)]);
        let w = s.parse_str("ab").unwrap();
        validate(&t, &cfg.to_lambek(), &w).unwrap();
    }

    #[test]
    fn random_sentences_are_in_the_language() {
        let (s, a, b) = ab();
        let cfg = anbn(&s, a, b);
        let cg = CompiledGrammar::new(&cfg.to_lambek());
        let mut produced = 0;
        for seed in 0..20 {
            if let Some(w) = cfg.random_sentence(seed, 8) {
                assert!(cg.recognizes(&w), "{w}");
                produced += 1;
            }
        }
        assert!(produced > 0, "generator should succeed sometimes");
        let _ = all_strings(&s, 0);
    }

    #[test]
    fn display_shows_productions() {
        let (s, a, b) = ab();
        let cfg = anbn(&s, a, b);
        let text = format!("{cfg}");
        assert!(text.contains("S ::="), "{text}");
        assert!(text.contains('ε'), "{text}");
    }
}
