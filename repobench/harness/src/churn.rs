//! Generators for `grammar_churn` (fresh expression grammars and
//! documents in them) and `munch_adversarial` (the quadratic-munch
//! repro), with their expected answers.

use std::collections::HashSet;

use crate::gen::{Doc, Expect, Out, Rng};

/// Binary operators a generated grammar draws from; none is a quote,
/// backslash or parenthesis, and no two levels of one grammar share one.
const OPS: [&str; 40] = [
    "+", "-", "*", "/", "%", "^", "&", "|", "~", "!", "<", ">", "=", "?", "@", "$", ":", ";", ",",
    ".", "<<", ">>", "&&", "||", "==", "!=", "<=", ">=", "**", "->", "::", "++", "--", "<>", "|>",
    "..", "^^", "%%", "@@", "$$",
];

/// One generated expression grammar.
pub struct ExprGrammar {
    pub text: String,
    /// Operators per precedence level, loosest first.
    levels: Vec<Vec<&'static str>>,
}

/// Expression grammars with 2–6 precedence levels of 1–3 operators each
/// (left- or right-associative), `NUM`/`ID` atoms and parentheses —
/// each structurally distinct from every earlier one in the run.
pub struct ChurnGen {
    rng: Rng,
    seen: HashSet<String>,
}

impl ChurnGen {
    pub fn new(seed: u64) -> ChurnGen {
        ChurnGen {
            rng: Rng::new(seed ^ 0xC0FF_EE00),
            seen: HashSet::new(),
        }
    }

    pub fn grammar(&mut self) -> ExprGrammar {
        loop {
            let mut pool = OPS.to_vec();
            let mut levels = Vec::new();
            let mut right = Vec::new();
            let mut shape = String::new();
            for _ in 0..2 + self.rng.below(5) {
                let mut ops = Vec::new();
                for _ in 0..1 + self.rng.below(3) {
                    ops.push(pool.swap_remove(self.rng.below(pool.len() as u64) as usize));
                }
                let r = self.rng.below(2) == 0;
                shape.push_str(&format!("{}{} ", if r { 'R' } else { 'L' }, ops.join(" ")));
                levels.push(ops);
                right.push(r);
            }
            if self.seen.insert(shape) {
                return ExprGrammar {
                    text: render(&levels, &right),
                    levels,
                };
            }
        }
    }

    /// A ~1 KiB expression in `g`.
    pub fn doc(&mut self, g: &ExprGrammar) -> Doc {
        let mut o = Out::default();
        self.chain(g, 0, 0, &mut o);
        while o.text.len() < 1024 {
            self.op(g, 0, &mut o);
            self.operand(g, 1, 0, &mut o);
        }
        Doc {
            expect: Expect::Accept { tokens: o.tokens },
            text: o.text,
        }
    }

    /// An expression at precedence `level`: operands of the next level
    /// joined by this level's operators.
    fn chain(&mut self, g: &ExprGrammar, level: usize, depth: usize, o: &mut Out) {
        for j in 0..1 + self.rng.below(2) {
            if j > 0 {
                self.op(g, level, o);
            }
            self.operand(g, level + 1, depth, o);
        }
    }

    fn operand(&mut self, g: &ExprGrammar, level: usize, depth: usize, o: &mut Out) {
        if level < g.levels.len() {
            return self.chain(g, level, depth, o);
        }
        match self.rng.below(16) {
            0 if depth < 3 => {
                o.tok("(");
                o.ws(" ");
                self.chain(g, 0, depth + 1, o);
                o.tok(")");
            }
            1..=6 => {
                let mut id = String::new();
                let n = 1 + self.rng.below(4);
                self.rng.letters(n, &mut id);
                id.push_str(&self.rng.below(100).to_string());
                o.tok(&id);
            }
            _ => o.tok(&self.rng.below(100_000).to_string()),
        }
        o.ws(" ");
    }

    fn op(&mut self, g: &ExprGrammar, level: usize, o: &mut Out) {
        let ops = &g.levels[level];
        o.tok(ops[self.rng.below(ops.len() as u64) as usize]);
        o.ws(" ");
    }
}

fn render(levels: &[Vec<&str>], right: &[bool]) -> String {
    let mut t = String::from(
        "# generated expression grammar\ntoken NUM = [0-9]+ ;\ntoken ID = [a-z] [a-z0-9]* ;\nskip WS = [ \\n]+ ;\n",
    );
    for (i, ops) in levels.iter().enumerate() {
        let (this, next) = (format!("E{i}"), format!("E{}", i + 1));
        let alts: Vec<String> = ops
            .iter()
            .map(|op| {
                if right[i] {
                    format!("{next} '{op}' {this}")
                } else {
                    format!("{this} '{op}' {next}")
                }
            })
            .collect();
        t.push_str(&format!("{this} ::= {} | {next} ;\n", alts.join(" | ")));
    }
    t.push_str(&format!("E{} ::= NUM | ID | '(' E0 ')' ;\n", levels.len()));
    t
}

/// The quadratic maximal-munch repro: on `a`ⁿ every token first runs
/// `AB`'s `'a'*` to the end of the input, then backtracks to `A`.
pub const MUNCH_GRAMMAR: &str =
    "token A = 'a' ;\ntoken AB = 'a'* 'b' ;\nS ::= S X | X ;\nX ::= A | AB ;\n";
pub const MUNCH_LEN: usize = 4096;

pub fn munch_doc(len: usize) -> Doc {
    Doc {
        text: "a".repeat(len),
        expect: Expect::Accept { tokens: len },
    }
}
