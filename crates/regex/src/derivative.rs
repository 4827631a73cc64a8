//! Brzozowski-derivative matching: the baseline regex engine.
//!
//! The paper's verified pipeline compiles a regex to an NFA and then a
//! DFA; this module is the *baseline comparator* the benchmarks measure
//! against — a classical derivative matcher that recognizes the same
//! language with no parse trees and no verification story. Smart
//! constructors keep derivative sizes polynomial in practice.

use lambek_core::alphabet::{GString, Symbol};

use crate::ast::Regex;

/// Smart alternation: identifies `∅ | r = r` and `r | r = r`.
fn salt(l: Regex, r: Regex) -> Regex {
    match (l, r) {
        (Regex::Empty, r) => r,
        (l, Regex::Empty) => l,
        (l, r) if l == r => l,
        (l, r) => Regex::alt(l, r),
    }
}

/// Smart concatenation: `∅ r = ∅`, `ε r = r`, etc.
fn sconcat(l: Regex, r: Regex) -> Regex {
    match (l, r) {
        (Regex::Empty, _) | (_, Regex::Empty) => Regex::Empty,
        (Regex::Eps, r) => r,
        (l, Regex::Eps) => l,
        (l, r) => Regex::concat(l, r),
    }
}

/// `dl ⊗ r`, cloning `r` only when `dl` is not `∅`.
fn then(dl: Regex, r: &Regex) -> Regex {
    match dl {
        Regex::Empty => Regex::Empty,
        dl => sconcat(dl, r.clone()),
    }
}

/// The Brzozowski derivative `∂_c r`: the residual language after
/// consuming `c`.
pub fn derivative(re: &Regex, c: Symbol) -> Regex {
    match re {
        Regex::Empty | Regex::Eps => Regex::Empty,
        Regex::Char(d) => {
            if *d == c {
                Regex::Eps
            } else {
                Regex::Empty
            }
        }
        Regex::Concat(l, r) => {
            let step_l = then(derivative(l, c), r);
            if l.nullable() {
                salt(step_l, derivative(r, c))
            } else {
                step_l
            }
        }
        Regex::Alt(l, r) => salt(derivative(l, c), derivative(r, c)),
        Regex::Star(inner) => then(derivative(inner, c), re),
    }
}

/// Whether `re` matches `w`, by iterated derivatives.
pub fn matches(re: &Regex, w: &GString) -> bool {
    let mut cur = re.clone();
    for c in w.iter() {
        cur = derivative(&cur, c);
        if cur == Regex::Empty {
            return false;
        }
    }
    cur.nullable()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_regex;
    use lambek_core::alphabet::Alphabet;
    use lambek_core::grammar::compile::CompiledGrammar;
    use lambek_core::theory::unambiguous::all_strings;

    #[test]
    fn running_example_language() {
        let s = Alphabet::abc();
        let re = parse_regex(&s, "(a*b)|c").unwrap();
        for yes in ["b", "ab", "aaab", "c"] {
            assert!(matches(&re, &s.parse_str(yes).unwrap()), "{yes}");
        }
        for no in ["", "a", "ba", "cc"] {
            assert!(!matches(&re, &s.parse_str(no).unwrap()), "{no}");
        }
    }

    #[test]
    fn derivatives_agree_with_denotational_recognizer() {
        let s = Alphabet::abc();
        for src in ["a", "a*", "(a|b)*c", "a(b|c)*", "ab|ba", "(ab)*", "a*b*c*"] {
            let re = parse_regex(&s, src).unwrap();
            let cg = CompiledGrammar::new(&re.to_grammar());
            for w in all_strings(&s, 4) {
                assert_eq!(matches(&re, &w), cg.recognizes(&w), "{src} on {w}");
            }
        }
    }

    #[test]
    fn empty_language_never_matches() {
        let s = Alphabet::abc();
        let re = parse_regex(&s, "a∅b").unwrap();
        for w in all_strings(&s, 3) {
            assert!(!matches(&re, &w));
        }
    }

    #[test]
    fn derivative_of_star_unfolds_once() {
        let s = Alphabet::abc();
        let a = s.symbol("a").unwrap();
        let re = parse_regex(&s, "(ab)*").unwrap();
        let d = derivative(&re, a);
        // ∂_a (ab)* = b (ab)*.
        assert!(matches(&d, &s.parse_str("b").unwrap()));
        assert!(matches(&d, &s.parse_str("bab").unwrap()));
        assert!(!matches(&d, &s.parse_str("ab").unwrap()));
    }
}
