//! Regular expression abstract syntax.
//!
//! A regular expression in LambekD is a linear type built from `'c'`, `0`,
//! `⊕`, `I`, `⊗` and Kleene star (§4.1). [`Regex`] is the syntactic form;
//! [`Regex::to_grammar`] is the (definitional) reading as a grammar.

use std::fmt;

use lambek_core::alphabet::{Alphabet, Symbol};
use lambek_core::grammar::expr::{alt, bot, chr, eps, star, tensor, Grammar};

/// A regular expression over some alphabet.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Regex {
    /// The empty language `0`.
    Empty,
    /// The empty string `I`.
    Eps,
    /// A single character `'c'`.
    Char(Symbol),
    /// Concatenation `r ⊗ s`.
    Concat(Box<Regex>, Box<Regex>),
    /// Alternation `r ⊕ s`.
    Alt(Box<Regex>, Box<Regex>),
    /// Kleene star `r*`.
    Star(Box<Regex>),
}

impl Regex {
    /// Concatenation helper.
    pub fn concat(l: Regex, r: Regex) -> Regex {
        Regex::Concat(Box::new(l), Box::new(r))
    }

    /// Alternation helper.
    pub fn alt(l: Regex, r: Regex) -> Regex {
        Regex::Alt(Box::new(l), Box::new(r))
    }

    /// Kleene star helper.
    pub fn star(r: Regex) -> Regex {
        Regex::Star(Box::new(r))
    }

    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            Regex::Empty | Regex::Eps | Regex::Char(_) => 1,
            Regex::Concat(l, r) | Regex::Alt(l, r) => 1 + l.size() + r.size(),
            Regex::Star(r) => 1 + r.size(),
        }
    }

    /// Whether the regex matches the empty string.
    pub fn nullable(&self) -> bool {
        match self {
            Regex::Empty | Regex::Char(_) => false,
            Regex::Eps | Regex::Star(_) => true,
            Regex::Concat(l, r) => l.nullable() && r.nullable(),
            Regex::Alt(l, r) => l.nullable() || r.nullable(),
        }
    }

    /// The regex as a linear type: the grammar whose parses are the
    /// regex's parse trees (`0`, `I`, `'c'`, `⊗`, binary `⊕`, star).
    pub fn to_grammar(&self) -> Grammar {
        match self {
            Regex::Empty => bot(),
            Regex::Eps => eps(),
            Regex::Char(c) => chr(*c),
            Regex::Concat(l, r) => tensor(l.to_grammar(), r.to_grammar()),
            Regex::Alt(l, r) => alt(l.to_grammar(), r.to_grammar()),
            Regex::Star(r) => star(r.to_grammar()),
        }
    }

    /// Renders with the given alphabet's symbol names.
    pub fn display(&self, alphabet: &Alphabet) -> String {
        fn go(re: &Regex, alphabet: &Alphabet, prec: u8, out: &mut String) {
            match re {
                Regex::Empty => out.push('∅'),
                Regex::Eps => out.push('ε'),
                Regex::Char(c) => out.push_str(alphabet.name(*c)),
                Regex::Alt(l, r) => {
                    if prec > 0 {
                        out.push('(');
                    }
                    go(l, alphabet, 0, out);
                    out.push('|');
                    go(r, alphabet, 0, out);
                    if prec > 0 {
                        out.push(')');
                    }
                }
                Regex::Concat(l, r) => {
                    if prec > 1 {
                        out.push('(');
                    }
                    go(l, alphabet, 1, out);
                    go(r, alphabet, 1, out);
                    if prec > 1 {
                        out.push(')');
                    }
                }
                Regex::Star(r) => {
                    go(r, alphabet, 2, out);
                    out.push('*');
                }
            }
        }
        let mut out = String::new();
        go(self, alphabet, 0, &mut out);
        out
    }
}

impl fmt::Display for Regex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Regex::Empty => write!(f, "∅"),
            Regex::Eps => write!(f, "ε"),
            Regex::Char(c) => write!(f, "#{}", c.index()),
            Regex::Concat(l, r) => write!(f, "({l}·{r})"),
            Regex::Alt(l, r) => write!(f, "({l}|{r})"),
            Regex::Star(r) => write!(f, "{r}*"),
        }
    }
}

/// Errors from the concrete-syntax parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegexSyntaxError {
    /// Byte position of the error in the input.
    pub position: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for RegexSyntaxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "regex syntax error at {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for RegexSyntaxError {}

/// Parses concrete regex syntax over a single-character-name alphabet:
/// alternation `|`, juxtaposition for concatenation, postfix `*`, groups
/// `( … )`, `ε` for the empty string and `∅` for the empty language.
///
/// # Errors
///
/// Returns a [`RegexSyntaxError`] with the offending position.
///
/// # Examples
///
/// ```
/// use lambek_core::alphabet::Alphabet;
/// use regex_grammars::ast::parse_regex;
///
/// let sigma = Alphabet::abc();
/// let re = parse_regex(&sigma, "(a*b)|c").unwrap();
/// assert_eq!(re.display(&sigma), "a*b|c");
/// ```
pub fn parse_regex(alphabet: &Alphabet, input: &str) -> Result<Regex, RegexSyntaxError> {
    let chars: Vec<char> = input.chars().collect();
    let mut p = Parser {
        alphabet,
        chars: &chars,
        pos: 0,
    };
    let re = p.alternation()?;
    if p.pos != p.chars.len() {
        return Err(p.error("unexpected trailing input"));
    }
    Ok(re)
}

struct Parser<'a> {
    alphabet: &'a Alphabet,
    chars: &'a [char],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> RegexSyntaxError {
        RegexSyntaxError {
            position: self.pos,
            message: message.to_owned(),
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn alternation(&mut self) -> Result<Regex, RegexSyntaxError> {
        let mut lhs = self.concatenation()?;
        while self.peek() == Some('|') {
            self.pos += 1;
            let rhs = self.concatenation()?;
            lhs = Regex::alt(lhs, rhs);
        }
        Ok(lhs)
    }

    fn concatenation(&mut self) -> Result<Regex, RegexSyntaxError> {
        let mut parts = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            parts.push(self.postfix()?);
        }
        let mut iter = parts.into_iter();
        match iter.next() {
            None => Ok(Regex::Eps),
            Some(first) => Ok(iter.fold(first, Regex::concat)),
        }
    }

    fn postfix(&mut self) -> Result<Regex, RegexSyntaxError> {
        let mut base = self.atom()?;
        while self.peek() == Some('*') {
            self.pos += 1;
            base = Regex::star(base);
        }
        Ok(base)
    }

    fn atom(&mut self) -> Result<Regex, RegexSyntaxError> {
        match self.peek() {
            Some('(') => {
                self.pos += 1;
                let inner = self.alternation()?;
                if self.peek() != Some(')') {
                    return Err(self.error("expected ')'"));
                }
                self.pos += 1;
                Ok(inner)
            }
            Some('ε') => {
                self.pos += 1;
                Ok(Regex::Eps)
            }
            Some('∅') => {
                self.pos += 1;
                Ok(Regex::Empty)
            }
            Some('*') => Err(self.error("'*' needs something to repeat")),
            Some(c) => match self.alphabet.symbol(&c.to_string()) {
                Some(sym) => {
                    self.pos += 1;
                    Ok(Regex::Char(sym))
                }
                None => Err(self.error(&format!("unknown symbol {c:?}"))),
            },
            None => Err(self.error("unexpected end of input")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> Alphabet {
        Alphabet::abc()
    }

    #[test]
    fn parse_the_running_example() {
        let s = abc();
        let re = parse_regex(&s, "(a*b)|c").unwrap();
        let a = s.symbol("a").unwrap();
        let b = s.symbol("b").unwrap();
        let c = s.symbol("c").unwrap();
        assert_eq!(
            re,
            Regex::alt(
                Regex::concat(Regex::star(Regex::Char(a)), Regex::Char(b)),
                Regex::Char(c)
            )
        );
    }

    #[test]
    fn precedence_star_binds_tightest() {
        let s = abc();
        let re = parse_regex(&s, "ab*").unwrap();
        assert!(matches!(re, Regex::Concat(_, _)));
        let re2 = parse_regex(&s, "(ab)*").unwrap();
        assert!(matches!(re2, Regex::Star(_)));
    }

    #[test]
    fn empty_and_eps_literals() {
        let s = abc();
        assert_eq!(parse_regex(&s, "ε").unwrap(), Regex::Eps);
        assert_eq!(parse_regex(&s, "∅").unwrap(), Regex::Empty);
        assert_eq!(parse_regex(&s, "").unwrap(), Regex::Eps);
    }

    #[test]
    fn syntax_errors_carry_positions() {
        let s = abc();
        let err = parse_regex(&s, "a(b").unwrap_err();
        assert_eq!(err.position, 3);
        let err = parse_regex(&s, "z").unwrap_err();
        assert_eq!(err.position, 0);
        assert!(parse_regex(&s, "*a").is_err());
        assert!(parse_regex(&s, "a)b").is_err());
    }

    #[test]
    fn display_roundtrips_through_parser() {
        let s = abc();
        for src in ["a", "ab", "a|b", "(a|b)*c", "a*b*", "(ab)*(c|ε)"] {
            let re = parse_regex(&s, src).unwrap();
            let shown = re.display(&s);
            let re2 = parse_regex(&s, &shown).unwrap();
            assert_eq!(re, re2, "{src} → {shown}");
        }
    }

    #[test]
    fn nullable_matches_grammar_nullability() {
        let s = abc();
        use lambek_core::grammar::compile::CompiledGrammar;
        for src in ["a", "a*", "ab", "a|ε", "(a|b)*", "∅", "a∅"] {
            let re = parse_regex(&s, src).unwrap();
            let cg = CompiledGrammar::new(&re.to_grammar());
            assert_eq!(re.nullable(), cg.nullable(cg.root()), "{src}");
        }
    }
}
