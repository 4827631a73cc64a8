//! Abstract parse trees and their validation.
//!
//! Definition 5.1 of the paper interprets a grammar `A` as a function from
//! strings to *sets of parses*. A [`ParseTree`] is an element of such a set:
//! a structured witness that a particular string belongs to the grammar.
//!
//! Two operations make "witness" precise:
//!
//! * [`ParseTree::flatten`] — the *yield*: the unique string a tree parses
//!   (every constructor determines how its children's strings concatenate);
//! * [`validate`] — checks that a tree is shape-correct for a grammar *and*
//!   yields the expected string, i.e. `t ∈ A(w)`.
//!
//! The central intrinsic-verification property of the paper — linear terms
//! are parse *transformers* that can never change the underlying string —
//! becomes the executable statement `flatten(f(t)) == flatten(t)`, which
//! [`crate::transform`] enforces and the test suite checks exhaustively.

use std::fmt;

use crate::alphabet::{GString, Symbol};
use crate::grammar::expr::{Grammar, GrammarExpr, MuSystem};
use std::sync::Arc;

/// A parse tree: one element of the parse set `A(w)` (Definition 5.1).
///
/// The constructors mirror the positive connectives of
/// [`GrammarExpr`] one-for-one.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ParseTree {
    /// Parse of a literal `'c'`.
    Char(Symbol),
    /// The unique parse `()` of `I` at the empty string.
    Unit,
    /// Parse of `A ⊗ B`: parses of the two halves of the split.
    Pair(Box<ParseTree>, Box<ParseTree>),
    /// Parse of `⊕_i A_i`: a parse of summand `index`, tagged `σ index`.
    Inj {
        /// Which summand was taken.
        index: usize,
        /// Parse of that summand.
        tree: Box<ParseTree>,
    },
    /// Parse of a non-empty `&_i A_i`: one parse per component, all with
    /// the same yield.
    Tuple(Vec<ParseTree>),
    /// The unique parse of `⊤` at string `w`; `⊤` controls the whole
    /// string, so the tree must record it to have a well-defined yield.
    Top(GString),
    /// Parse of an inductive type `μF x`: `roll` applied to a parse of the
    /// one-step unfolding (Fig. 10).
    Roll(Box<ParseTree>),
}

impl ParseTree {
    /// Convenience constructor for [`ParseTree::Pair`].
    pub fn pair(l: ParseTree, r: ParseTree) -> ParseTree {
        ParseTree::Pair(Box::new(l), Box::new(r))
    }

    /// Convenience constructor for [`ParseTree::Inj`].
    pub fn inj(index: usize, tree: ParseTree) -> ParseTree {
        ParseTree::Inj {
            index,
            tree: Box::new(tree),
        }
    }

    /// Convenience constructor for [`ParseTree::Roll`].
    pub fn roll(tree: ParseTree) -> ParseTree {
        ParseTree::Roll(Box::new(tree))
    }

    /// Splits an injection `σ index t` into `(index, t)`; any other tree
    /// comes back unchanged as the error. (`ParseTree` implements
    /// [`Drop`], so a plain `match` cannot move its fields out.)
    ///
    /// # Errors
    ///
    /// The tree itself, when it is not an [`ParseTree::Inj`].
    pub fn into_inj(mut self) -> Result<(usize, ParseTree), ParseTree> {
        match &mut self {
            ParseTree::Inj { index, tree } => {
                Ok((*index, std::mem::replace(&mut **tree, ParseTree::Unit)))
            }
            _ => Err(self),
        }
    }

    /// The yield of the tree: the string it is a parse of.
    ///
    /// For a [`ParseTree::Tuple`] the yield of the first component is
    /// returned; [`validate`] guarantees all components agree.
    ///
    /// # Panics
    ///
    /// Panics on an empty `Tuple`, which is never produced by this crate
    /// (the empty conjunction is [`ParseTree::Top`]).
    pub fn flatten(&self) -> GString {
        // An explicit stack, right child pushed first: yields can be as
        // deep as the input is long (left-recursive lists, nesting).
        let mut out = GString::new();
        let mut stack = vec![self];
        while let Some(t) = stack.pop() {
            match t {
                ParseTree::Char(s) => out.push(*s),
                ParseTree::Unit => {}
                ParseTree::Pair(l, r) => {
                    stack.push(r);
                    stack.push(l);
                }
                ParseTree::Inj { tree, .. } | ParseTree::Roll(tree) => stack.push(tree),
                ParseTree::Tuple(ts) => stack.push(
                    ts.first()
                        .expect("empty Tuple has no well-defined yield; use Top"),
                ),
                ParseTree::Top(w) => out.extend(w.iter()),
            }
        }
        out
    }

    /// Number of constructors in the tree (a size measure used by tests
    /// and benchmarks).
    pub fn size(&self) -> usize {
        let mut n = 0;
        let mut stack = vec![self];
        while let Some(t) = stack.pop() {
            n += 1;
            match t {
                ParseTree::Char(_) | ParseTree::Unit | ParseTree::Top(_) => {}
                ParseTree::Pair(l, r) => {
                    stack.push(l);
                    stack.push(r);
                }
                ParseTree::Inj { tree, .. } | ParseTree::Roll(tree) => stack.push(tree),
                ParseTree::Tuple(ts) => stack.extend(ts),
            }
        }
        n
    }

    /// Moves every child that has children of its own onto `out`,
    /// leaving `Unit` in its place — the step of the iterative [`Drop`].
    fn detach_children(&mut self, out: &mut Vec<ParseTree>) {
        let mut take = |c: &mut ParseTree| {
            if c.has_children() {
                out.push(std::mem::replace(c, ParseTree::Unit));
            }
        };
        match self {
            ParseTree::Pair(l, r) => {
                take(l);
                take(r);
            }
            ParseTree::Inj { tree, .. } | ParseTree::Roll(tree) => take(tree),
            ParseTree::Tuple(ts) => ts.iter_mut().for_each(take),
            ParseTree::Char(_) | ParseTree::Unit | ParseTree::Top(_) => {}
        }
    }

    fn has_children(&self) -> bool {
        match self {
            ParseTree::Char(_) | ParseTree::Unit | ParseTree::Top(_) => false,
            ParseTree::Tuple(ts) => !ts.is_empty(),
            ParseTree::Pair(..) | ParseTree::Inj { .. } | ParseTree::Roll(_) => true,
        }
    }
}

/// Dropping is iterative: a tree as deep as its input (a 10⁶-element
/// left-recursive list) would otherwise overflow the stack in the
/// compiler-generated recursive drop. Every node is detached from its
/// parent before it is dropped, so no drop ever recurses more than one
/// level, and leaf-only nodes never touch the work stack.
impl Drop for ParseTree {
    fn drop(&mut self) {
        let mut stack = Vec::new();
        self.detach_children(&mut stack);
        while let Some(mut t) = stack.pop() {
            t.detach_children(&mut stack);
        }
    }
}

impl fmt::Display for ParseTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseTree::Char(s) => write!(f, "'{}'", s.index()),
            ParseTree::Unit => write!(f, "()"),
            ParseTree::Pair(l, r) => write!(f, "({l}, {r})"),
            ParseTree::Inj { index, tree } => write!(f, "σ{index} {tree}"),
            ParseTree::Tuple(ts) => {
                write!(f, "⟨")?;
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, "⟩")
            }
            ParseTree::Top(w) => write!(f, "⊤{w}"),
            ParseTree::Roll(t) => write!(f, "roll {t}"),
        }
    }
}

/// One entry of a [`ReductionLog`]: a fixed-size step of a postorder
/// derivation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogEntry {
    /// A leaf: the tree `'c'` for the shifted symbol `c`.
    Shift(Symbol),
    /// Closes the `arity` most recent complete subtrees `c₁ … cₙ` into
    /// `roll (σ_alt (c₁ ⊗ (c₂ ⊗ (… ⊗ cₙ))))` — `roll (σ_alt ())` when
    /// `arity` is 0: one production of a μ-regular grammar system, in
    /// exactly the shape `Cfg::derivation` builds.
    Reduce {
        /// Which alternative of the nonterminal was taken.
        alt: u32,
        /// How many subtrees the production's right-hand side closes.
        arity: u32,
    },
}

/// Renders like the node it closes: `'c'` for a shift, `roll σi ⟨n⟩`
/// for a reduction over `n` children.
impl fmt::Display for LogEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogEntry::Shift(s) => write!(f, "'{}'", s.index()),
            LogEntry::Reduce { alt, arity } => write!(f, "roll σ{alt} ⟨{arity}⟩"),
        }
    }
}

/// A derivation as the postorder sequence of its shifts and reductions —
/// the representation an LR run produces, flat and pointer-free.
///
/// Every entry is a [`LogEntry`]; a log is a sequence of complete trees
/// (its *roots*, [`ReductionLog::roots`]), usually exactly one. Children
/// are implicit from order and arity, so the log is one `Vec`: no node
/// is boxed, dropping it is one free, and every traversal is a loop.
/// [`ReductionLog::size`] and [`ReductionLog::yield_len`] are maintained
/// as entries are pushed and answer in O(1) what
/// [`ParseTree::size`] and `flatten().len()` of the materialized tree
/// would.
///
/// The paper-level view is one call away: [`ReductionLog::to_parse_tree`]
/// materializes the μ-regular [`ParseTree`] (Definition 5.1), and
/// [`ReductionLog::from_parse_tree`] reads a derivation tree back.
///
/// # Examples
///
/// ```
/// use lambek_core::alphabet::Alphabet;
/// use lambek_core::grammar::parse_tree::{ParseTree, ReductionLog};
///
/// let a = Alphabet::abc().symbol("a").unwrap();
/// // roll (σ1 ('a' ⊗ roll (σ0 ()))): `a` followed by an empty list.
/// let mut log = ReductionLog::new();
/// log.shift(a);
/// log.reduce(0, 0);
/// log.reduce(1, 2);
/// let tree = log.to_parse_tree();
/// assert_eq!((log.size(), log.yield_len()), (tree.size(), tree.flatten().len()));
/// assert_eq!(ReductionLog::from_parse_tree(&tree), Some(log));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct ReductionLog {
    entries: Vec<LogEntry>,
    /// Constructors of the materialized forest.
    size: usize,
    /// Shift entries: the length of the yield.
    yield_len: usize,
    /// Complete trees the entries so far form.
    roots: usize,
}

impl ReductionLog {
    /// The empty log.
    pub fn new() -> ReductionLog {
        ReductionLog::default()
    }

    /// An empty log with room for `n` entries (an LR run over `k`
    /// symbols records `k` shifts and at most a constant factor more
    /// reductions).
    pub fn with_capacity(n: usize) -> ReductionLog {
        ReductionLog {
            entries: Vec::with_capacity(n),
            ..ReductionLog::default()
        }
    }

    /// Records a leaf `'sym'`.
    #[inline]
    pub fn shift(&mut self, sym: Symbol) {
        self.entries.push(LogEntry::Shift(sym));
        self.size += 1;
        self.yield_len += 1;
        self.roots += 1;
    }

    /// Records a reduction closing the `arity` most recent roots.
    ///
    /// # Panics
    ///
    /// If fewer than `arity` roots are open.
    #[inline]
    pub fn reduce(&mut self, alt: u32, arity: u32) {
        let k = arity as usize;
        assert!(
            k <= self.roots,
            "reduction of arity {k} over {} roots",
            self.roots
        );
        self.entries.push(LogEntry::Reduce { alt, arity });
        self.size += reduce_nodes(k);
        self.roots = self.roots - k + 1;
    }

    /// The entries, in postorder.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Number of complete trees the log holds (1 for a finished parse;
    /// one per stack slot for an LR run in progress).
    pub fn roots(&self) -> usize {
        self.roots
    }

    /// Constructor count of the materialized forest — equal to the sum
    /// of [`ParseTree::size`] over [`ReductionLog::to_parse_trees`], in
    /// O(1).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Length of the yield — equal to the total `flatten().len()` of the
    /// materialized forest, in O(1).
    pub fn yield_len(&self) -> usize {
        self.yield_len
    }

    /// Appends another log's entries after this one's (its roots follow
    /// this log's roots).
    pub fn append(&mut self, other: &ReductionLog) {
        self.entries.extend_from_slice(&other.entries);
        self.size += other.size;
        self.yield_len += other.yield_len;
        self.roots += other.roots;
    }

    /// Materializes every root, in order — iteratively, so a log as
    /// deep as its input never touches the call stack.
    pub fn to_parse_trees(&self) -> Vec<ParseTree> {
        let mut stack: Vec<ParseTree> = Vec::with_capacity(self.roots);
        for entry in &self.entries {
            match *entry {
                LogEntry::Shift(s) => stack.push(ParseTree::Char(s)),
                LogEntry::Reduce { alt, arity } => {
                    // The right-nested tensor of the closed children,
                    // `Unit` for an empty right-hand side.
                    let body = if arity == 0 {
                        ParseTree::Unit
                    } else {
                        let mut acc = stack.pop().expect("arity checked at push");
                        for _ in 1..arity {
                            let t = stack.pop().expect("arity checked at push");
                            acc = ParseTree::pair(t, acc);
                        }
                        acc
                    };
                    stack.push(ParseTree::roll(ParseTree::inj(alt as usize, body)));
                }
            }
        }
        stack
    }

    /// Materializes the log's one tree: the μ-regular parse tree the
    /// run derived.
    ///
    /// # Panics
    ///
    /// If the log does not hold exactly one tree (`roots() != 1`).
    pub fn to_parse_tree(&self) -> ParseTree {
        assert_eq!(
            self.roots, 1,
            "a parse tree needs a log with exactly one root"
        );
        self.to_parse_trees().pop().expect("one root")
    }

    /// Reads a derivation tree back into its log: the inverse of
    /// [`ReductionLog::to_parse_tree`]. Iterative, like the other
    /// direction.
    ///
    /// Returns `None` when the tree is not a derivation — when some node
    /// is neither a leaf `'c'` nor `roll (σ_i body)` whose body is `()`,
    /// one child, or a right-nested `⊗` of children that are themselves
    /// leaves or `roll`s.
    pub fn from_parse_tree(tree: &ParseTree) -> Option<ReductionLog> {
        enum Work<'t> {
            Visit(&'t ParseTree),
            Close { alt: u32, arity: u32 },
        }
        let mut log = ReductionLog::new();
        let mut work = vec![Work::Visit(tree)];
        let mut children: Vec<&ParseTree> = Vec::new();
        while let Some(w) = work.pop() {
            match w {
                Work::Close { alt, arity } => log.reduce(alt, arity),
                Work::Visit(ParseTree::Char(s)) => log.shift(*s),
                Work::Visit(ParseTree::Roll(inner)) => {
                    let ParseTree::Inj { index, tree: body } = &**inner else {
                        return None;
                    };
                    children.clear();
                    let mut spine: &ParseTree = body;
                    if !matches!(spine, ParseTree::Unit) {
                        while let ParseTree::Pair(l, r) = spine {
                            children.push(l);
                            spine = r;
                        }
                        children.push(spine);
                    }
                    if children
                        .iter()
                        .any(|c| !matches!(c, ParseTree::Char(_) | ParseTree::Roll(_)))
                    {
                        return None;
                    }
                    work.push(Work::Close {
                        alt: u32::try_from(*index).ok()?,
                        arity: u32::try_from(children.len()).ok()?,
                    });
                    work.extend(children.iter().rev().map(|c| Work::Visit(c)));
                }
                Work::Visit(_) => return None,
            }
        }
        Some(log)
    }
}

/// Constructors one `Reduce` of `arity` contributes: `roll`, `σ`, and
/// the `⊗` spine (or `()` when nothing is closed).
fn reduce_nodes(arity: usize) -> usize {
    2 + arity.saturating_sub(1).max(usize::from(arity == 0))
}

/// Why a parse tree failed to validate against a grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// The tree's constructor does not match the grammar connective.
    ShapeMismatch {
        /// Display form of the grammar expected at this position.
        expected: String,
        /// Display form of the offending subtree.
        found: String,
    },
    /// An `Inj` index or `Tuple` arity is out of range for the grammar.
    IndexOutOfRange {
        /// The offending index or arity.
        index: usize,
        /// The number of summands/components available.
        arity: usize,
    },
    /// The tree's yield differs from the string it claims to parse.
    YieldMismatch {
        /// The expected string.
        expected: GString,
        /// The tree's actual yield.
        found: GString,
    },
    /// A recursion variable was encountered with no enclosing system
    /// (ill-scoped grammar).
    UnboundVar(usize),
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::ShapeMismatch { expected, found } => {
                write!(f, "tree {found} does not match grammar {expected}")
            }
            ValidateError::IndexOutOfRange { index, arity } => {
                write!(f, "index {index} out of range for arity {arity}")
            }
            ValidateError::YieldMismatch { expected, found } => {
                write!(f, "yield {found} differs from expected string {expected}")
            }
            ValidateError::UnboundVar(i) => write!(f, "unbound recursion variable X{i}"),
        }
    }
}

impl std::error::Error for ValidateError {}

/// Checks that `tree ∈ grammar(w)`: the tree is shape-correct for the
/// grammar and its yield is exactly `w`.
///
/// # Errors
///
/// Returns a [`ValidateError`] describing the first violation found.
///
/// # Examples
///
/// ```
/// use lambek_core::alphabet::Alphabet;
/// use lambek_core::grammar::expr::{alt, chr, tensor};
/// use lambek_core::grammar::parse_tree::{validate, ParseTree};
///
/// let sigma = Alphabet::abc();
/// let (a, b) = (sigma.symbol("a").unwrap(), sigma.symbol("b").unwrap());
/// // Fig. 1: "ab" is parsed by ('a' ⊗ 'b') ⊕ 'c' with the tree inl (a, b).
/// let g = alt(tensor(chr(a), chr(b)), chr(sigma.symbol("c").unwrap()));
/// let t = ParseTree::inj(0, ParseTree::pair(ParseTree::Char(a), ParseTree::Char(b)));
/// let w = sigma.parse_str("ab").unwrap();
/// assert!(validate(&t, &g, &w).is_ok());
/// ```
pub fn validate(tree: &ParseTree, grammar: &Grammar, w: &GString) -> Result<(), ValidateError> {
    let yielded = tree.flatten();
    if &yielded != w {
        return Err(ValidateError::YieldMismatch {
            expected: w.clone(),
            found: yielded,
        });
    }
    check_shape(tree, grammar, None)
}

/// Checks only the shape of a tree against a grammar, ignoring the yield.
///
/// Useful when the string is implied (e.g. for transformer codomain checks
/// where the yield is separately known to be preserved).
///
/// # Errors
///
/// Returns a [`ValidateError`] on the first structural mismatch.
pub fn check_shape(
    tree: &ParseTree,
    grammar: &Grammar,
    system: Option<&Arc<MuSystem>>,
) -> Result<(), ValidateError> {
    let mismatch = || ValidateError::ShapeMismatch {
        expected: format!("{grammar}"),
        found: format!("{tree}"),
    };
    match (&**grammar, tree) {
        (GrammarExpr::Char(c), ParseTree::Char(s)) if c == s => Ok(()),
        (GrammarExpr::Eps, ParseTree::Unit) => Ok(()),
        (GrammarExpr::Top, ParseTree::Top(_)) => Ok(()),
        (GrammarExpr::Bot, _) => Err(mismatch()),
        (GrammarExpr::Tensor(l, r), ParseTree::Pair(tl, tr)) => {
            check_shape(tl, l, system)?;
            check_shape(tr, r, system)
        }
        (GrammarExpr::Plus(gs), ParseTree::Inj { index, tree }) => {
            let g = gs.get(*index).ok_or(ValidateError::IndexOutOfRange {
                index: *index,
                arity: gs.len(),
            })?;
            check_shape(tree, g, system)
        }
        (GrammarExpr::With(gs), ParseTree::Tuple(ts)) => {
            if gs.len() != ts.len() {
                return Err(ValidateError::IndexOutOfRange {
                    index: ts.len(),
                    arity: gs.len(),
                });
            }
            let base = ts.first().map(ParseTree::flatten).unwrap_or_default();
            for (g, t) in gs.iter().zip(ts) {
                // All components of a & parse share one underlying string.
                let y = t.flatten();
                if y != base {
                    return Err(ValidateError::YieldMismatch {
                        expected: base,
                        found: y,
                    });
                }
                check_shape(t, g, system)?;
            }
            Ok(())
        }
        // The empty conjunction is ⊤, represented by With(vec![]) only if
        // built by hand; accept a Top tree for it.
        (GrammarExpr::With(gs), ParseTree::Top(_)) if gs.is_empty() => Ok(()),
        (GrammarExpr::Plus(_), _) if matches!(&**grammar, GrammarExpr::Plus(gs) if gs.is_empty()) => {
            Err(mismatch())
        }
        (GrammarExpr::Mu { system: sys, entry }, ParseTree::Roll(inner)) => {
            check_shape(inner, sys.def(*entry), Some(sys))
        }
        (GrammarExpr::Var(i), ParseTree::Roll(inner)) => match system {
            Some(sys) => {
                if *i >= sys.len() {
                    return Err(ValidateError::UnboundVar(*i));
                }
                check_shape(inner, sys.def(*i), Some(sys))
            }
            None => Err(ValidateError::UnboundVar(*i)),
        },
        _ => Err(mismatch()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::grammar::expr::{alt, and, chr, eps, star, tensor, top};

    fn setup() -> (Alphabet, Symbol, Symbol, Symbol) {
        let sigma = Alphabet::abc();
        let a = sigma.symbol("a").unwrap();
        let b = sigma.symbol("b").unwrap();
        let c = sigma.symbol("c").unwrap();
        (sigma, a, b, c)
    }

    #[test]
    fn fig1_ab_parse_validates() {
        let (sigma, a, b, c) = setup();
        let g = alt(tensor(chr(a), chr(b)), chr(c));
        let t = ParseTree::inj(0, ParseTree::pair(ParseTree::Char(a), ParseTree::Char(b)));
        let w = sigma.parse_str("ab").unwrap();
        assert_eq!(validate(&t, &g, &w), Ok(()));
    }

    #[test]
    fn wrong_string_fails_with_yield_mismatch() {
        let (sigma, a, b, c) = setup();
        let g = alt(tensor(chr(a), chr(b)), chr(c));
        let t = ParseTree::inj(0, ParseTree::pair(ParseTree::Char(a), ParseTree::Char(b)));
        let w = sigma.parse_str("ba").unwrap();
        assert!(matches!(
            validate(&t, &g, &w),
            Err(ValidateError::YieldMismatch { .. })
        ));
    }

    #[test]
    fn fig3_star_parse_validates() {
        let (sigma, a, b, c) = setup();
        // ('a'* ⊗ 'b') ⊕ 'c' parses "ab" via inl (cons a nil, b).
        let g = alt(tensor(star(chr(a)), chr(b)), chr(c));
        // star trees: roll (σ1 (a, roll (σ0 ())))  — cons a nil.
        let nil = ParseTree::roll(ParseTree::inj(0, ParseTree::Unit));
        let cons_a_nil =
            ParseTree::roll(ParseTree::inj(1, ParseTree::pair(ParseTree::Char(a), nil)));
        let t = ParseTree::inj(0, ParseTree::pair(cons_a_nil, ParseTree::Char(b)));
        let w = sigma.parse_str("ab").unwrap();
        assert_eq!(validate(&t, &g, &w), Ok(()));
    }

    #[test]
    fn shape_mismatch_detected() {
        let (sigma, a, b, _) = setup();
        let g = tensor(chr(a), chr(b));
        let t = ParseTree::Char(a);
        // Yield differs too, so validate reports yield first; check shape
        // directly to exercise the structural error.
        let err = check_shape(&t, &g, None).unwrap_err();
        assert!(matches!(err, ValidateError::ShapeMismatch { .. }));
        let _ = sigma;
    }

    #[test]
    fn with_components_must_share_yield() {
        let (sigma, a, b, _) = setup();
        let g = and(top(), top());
        let t = ParseTree::Tuple(vec![
            ParseTree::Top(sigma.parse_str("a").unwrap()),
            ParseTree::Top(sigma.parse_str("b").unwrap()),
        ]);
        assert!(matches!(
            check_shape(&t, &g, None),
            Err(ValidateError::YieldMismatch { .. })
        ));
        let _ = (a, b);
    }

    #[test]
    fn top_parse_records_string() {
        let (sigma, ..) = setup();
        let w = sigma.parse_str("abc").unwrap();
        let t = ParseTree::Top(w.clone());
        assert_eq!(t.flatten(), w);
        assert_eq!(validate(&t, &top(), &w), Ok(()));
    }

    #[test]
    fn bot_has_no_parses() {
        let t = ParseTree::Unit;
        assert!(check_shape(&t, &crate::grammar::expr::bot(), None).is_err());
    }

    #[test]
    fn inj_index_out_of_range() {
        let (_, a, ..) = setup();
        let g = alt(chr(a), eps());
        let t = ParseTree::inj(5, ParseTree::Unit);
        assert!(matches!(
            check_shape(&t, &g, None),
            Err(ValidateError::IndexOutOfRange { index: 5, arity: 2 })
        ));
    }

    #[test]
    fn size_counts_constructors() {
        let t = ParseTree::pair(ParseTree::Unit, ParseTree::inj(0, ParseTree::Unit));
        assert_eq!(t.size(), 4);
    }

    /// Runs `f` on a thread with a 256 KiB stack: far too small for any
    /// traversal that recurses once per level of a 10⁶-deep tree.
    fn on_small_stack(f: impl FnOnce() + Send + 'static) {
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(f)
            .unwrap()
            .join()
            .expect("no stack overflow");
    }

    const DEEP: usize = 1_000_000;

    #[test]
    fn million_deep_trees_build_size_flatten_and_drop_iteratively() {
        on_small_stack(|| {
            let (_, a, b, _) = setup();
            // Left-nested, like a left-recursive list: ((a, b), b), …
            let mut left = ParseTree::Char(a);
            // Right-nested under unary nodes: roll σ0 (a, roll σ0 (a, …)).
            let mut right = ParseTree::Unit;
            for _ in 0..DEEP {
                left = ParseTree::pair(left, ParseTree::Char(b));
                right = ParseTree::roll(ParseTree::inj(
                    0,
                    ParseTree::pair(ParseTree::Char(a), right),
                ));
            }
            assert_eq!(left.size(), 2 * DEEP + 1);
            assert_eq!(right.size(), 4 * DEEP + 1);
            let ly = left.flatten();
            assert_eq!((ly.len(), ly[0], ly[DEEP]), (DEEP + 1, a, b));
            assert_eq!(right.flatten().len(), DEEP);
            drop(left);
            drop(right);
        });
    }

    #[test]
    fn million_deep_logs_round_trip_through_trees() {
        on_small_stack(|| {
            let (_, a, ..) = setup();
            // X ::= ε | 'a' X, right-recursive: a million nested rolls.
            let mut right = ReductionLog::with_capacity(2 * DEEP + 1);
            for _ in 0..DEEP {
                right.shift(a);
            }
            right.reduce(0, 0);
            for _ in 0..DEEP {
                right.reduce(1, 2);
            }
            // X ::= 'a' | X 'a', left-recursive.
            let mut left = ReductionLog::new();
            left.shift(a);
            left.reduce(0, 1);
            for _ in 1..DEEP {
                left.shift(a);
                left.reduce(1, 2);
            }
            for log in [right, left] {
                let tree = log.to_parse_tree();
                assert_eq!(tree.size(), log.size());
                assert_eq!(tree.flatten().len(), log.yield_len());
                assert_eq!(log.yield_len(), DEEP);
                assert_eq!(ReductionLog::from_parse_tree(&tree).as_ref(), Some(&log));
            }
        });
    }

    #[test]
    fn log_counters_match_the_materialized_forest() {
        let (_, a, b, _) = setup();
        let mut log = ReductionLog::new();
        log.shift(a);
        log.reduce(3, 0);
        log.shift(b);
        assert_eq!(log.roots(), 3);
        log.reduce(1, 3);
        log.shift(a);
        assert_eq!(log.roots(), 2);
        let trees = log.to_parse_trees();
        assert_eq!(trees.len(), 2);
        assert_eq!(log.size(), trees.iter().map(ParseTree::size).sum::<usize>());
        assert_eq!(
            log.yield_len(),
            trees.iter().map(|t| t.flatten().len()).sum::<usize>()
        );
        // roll σ1 ('a', (roll σ3 (), 'b'))
        let first = ParseTree::roll(ParseTree::inj(
            1,
            ParseTree::pair(
                ParseTree::Char(a),
                ParseTree::pair(
                    ParseTree::roll(ParseTree::inj(3, ParseTree::Unit)),
                    ParseTree::Char(b),
                ),
            ),
        ));
        assert_eq!(trees[0], first);
    }

    #[test]
    fn non_derivations_do_not_read_back() {
        let (sigma, a, b, _) = setup();
        for t in [
            ParseTree::Unit,
            ParseTree::pair(ParseTree::Char(a), ParseTree::Char(b)),
            ParseTree::roll(ParseTree::Char(a)),
            ParseTree::roll(ParseTree::inj(
                0,
                ParseTree::pair(ParseTree::Char(a), ParseTree::Unit),
            )),
            ParseTree::roll(ParseTree::inj(
                0,
                ParseTree::Top(sigma.parse_str("a").unwrap()),
            )),
        ] {
            assert_eq!(ReductionLog::from_parse_tree(&t), None, "{t}");
        }
    }
}
