//! §3/Fig 9 — ordered-linear type checker throughput, plus
//! interned-vs-baseline groups for the hash-consed core.
//!
//! * `typecheck/lambda_chain` — right-nested tensor chains
//!   `λ x₁ … λ xₙ. (x₁, (x₂, …))` checked against their `⊸` types
//!   (near-linear in the term size).
//! * `type_eq_deep`, `type_eq_wide`, `type_eq_repeated` — structural
//!   type equality on deep nesting, wide `⊕`/`&`, and repeated-subterm
//!   workloads: `baseline` builds types with raw (unshared) `Arc`s so
//!   `lin_type_equal` must descend structurally, `interned` builds the
//!   same types through the hash-consing constructors so the pointer
//!   fast path answers in O(1).
//! * `subst_repeated` — re-running the same index substitution:
//!   `uncached` is the structural recursion, `cached` the id-memoized
//!   interner path.
//! * `check_wide_with` — the checker's conversion checks on a wide `&`
//!   of a shared component type, end to end.

use std::sync::Arc;

use lambek_bench::bench;
use lambek_core::alphabet::Alphabet;
use lambek_core::check::Checker;
use lambek_core::syntax::nonlinear::{NlCtx, NlTerm};
use lambek_core::syntax::terms::LinTerm;
use lambek_core::syntax::types::{
    lin_type_equal, subst_lin_type, subst_lin_type_uncached, LinType, Signature,
};

/// Constructors that deliberately bypass the interner: every node is a
/// fresh allocation, nothing is shared — the pre-hash-consing baseline.
mod raw {
    use super::*;

    pub fn tensor(a: LinType, b: LinType) -> LinType {
        LinType::Tensor(Arc::new(a), Arc::new(b))
    }

    pub fn plus(ts: Vec<LinType>) -> LinType {
        LinType::Plus(ts)
    }

    pub fn with(ts: Vec<LinType>) -> LinType {
        LinType::With(ts)
    }
}

fn chr(name: &str) -> LinType {
    LinType::Char(Alphabet::abc().symbol(name).unwrap())
}

/// `λ x₁ … λ xₙ. (x₁, (x₂, (… xₙ)))` with its type.
fn chain(n: usize, a: &LinType) -> (LinTerm, LinType) {
    let vars: Vec<String> = (0..n).map(|i| format!("x{i}")).collect();
    let mut body = LinTerm::var(&vars[n - 1]);
    let mut ty = a.clone();
    for i in (0..n - 1).rev() {
        body = LinTerm::pair(LinTerm::var(&vars[i]), body);
        ty = LinType::tensor(a.clone(), ty);
    }
    let mut term = body;
    let mut full = ty;
    for v in vars.iter().rev() {
        term = LinTerm::Lam {
            var: v.clone(),
            dom: Arc::new(a.clone()),
            body: Arc::new(term),
        };
    }
    for _ in 0..n {
        full = LinType::lfun(a.clone(), full);
    }
    // Note: the ⊸-chain type nests the tensor codomain innermost.
    (term, full)
}

/// An n-deep tensor chain, built by `mk` (raw or interned).
fn deep(n: usize, mk: &dyn Fn(LinType, LinType) -> LinType) -> LinType {
    let mut t = chr("a");
    for _ in 0..n {
        t = mk(chr("b"), t);
    }
    t
}

/// A width-n `⊕` of distinct small tensors.
fn wide(
    n: usize,
    mk: &dyn Fn(Vec<LinType>) -> LinType,
    mk2: &dyn Fn(LinType, LinType) -> LinType,
) -> LinType {
    mk((0..n)
        .map(|i| {
            let c = ["a", "b", "c"][i % 3];
            mk2(chr(c), mk2(chr("a"), chr(c)))
        })
        .collect())
}

/// A width-k `&` whose every component is the *same* depth-`d` block —
/// the repeated-subterm workload.
fn repeated(
    k: usize,
    d: usize,
    mkw: &dyn Fn(Vec<LinType>) -> LinType,
    mk2: &dyn Fn(LinType, LinType) -> LinType,
) -> LinType {
    mkw((0..k).map(|_| deep(d, mk2)).collect())
}

fn bench_lambda_chain() {
    let sigma = Alphabet::abc();
    let a = LinType::Char(sigma.symbol("a").unwrap());
    let sig = Signature::new();
    let checker = Checker::new(&sig);

    for n in [4usize, 16, 64, 128] {
        let (term, ty) = chain(n, &a);
        bench(&format!("typecheck/lambda_chain/{n}"), || {
            checker.check(&NlCtx::new(), &[], &term, &ty).unwrap()
        });
    }
}

fn bench_type_equality() {
    let raw2: &dyn Fn(LinType, LinType) -> LinType = &raw::tensor;
    let int2: &dyn Fn(LinType, LinType) -> LinType = &LinType::tensor;

    for n in [64usize, 256, 1024] {
        let (r1, r2) = (deep(n, raw2), deep(n, raw2));
        bench(&format!("type_eq_deep/baseline/{n}"), || {
            assert!(lin_type_equal(&r1, &r2))
        });
        let (i1, i2) = (deep(n, int2), deep(n, int2));
        bench(&format!("type_eq_deep/interned/{n}"), || {
            assert!(lin_type_equal(&i1, &i2))
        });
    }

    for n in [64usize, 256, 1024] {
        let (r1, r2) = (wide(n, &raw::plus, raw2), wide(n, &raw::plus, raw2));
        bench(&format!("type_eq_wide/baseline/{n}"), || {
            assert!(lin_type_equal(&r1, &r2))
        });
        let mk = |v: Vec<LinType>| LinType::Plus(v).interned();
        let (i1, i2) = (wide(n, &mk, int2), wide(n, &mk, int2));
        bench(&format!("type_eq_wide/interned/{n}"), || {
            assert!(lin_type_equal(&i1, &i2))
        });
    }

    for k in [16usize, 64, 256] {
        let (r1, r2) = (
            repeated(k, 8, &raw::with, raw2),
            repeated(k, 8, &raw::with, raw2),
        );
        bench(&format!("type_eq_repeated/baseline/{k}"), || {
            assert!(lin_type_equal(&r1, &r2))
        });
        let mk = |v: Vec<LinType>| LinType::With(v).interned();
        let (i1, i2) = (repeated(k, 8, &mk, int2), repeated(k, 8, &mk, int2));
        bench(&format!("type_eq_repeated/interned/{k}"), || {
            assert!(lin_type_equal(&i1, &i2))
        });
    }
}

fn bench_subst() {
    // A type whose index expressions mention `n` under every node, so
    // substitution must touch the whole tree.
    fn indexed(depth: usize) -> LinType {
        if depth == 0 {
            return LinType::Data {
                name: "T".to_owned(),
                args: vec![NlTerm::succ(NlTerm::var("n"))],
            };
        }
        LinType::Tensor(
            Arc::new(indexed(depth - 1)),
            Arc::new(LinType::Data {
                name: "T".to_owned(),
                args: vec![NlTerm::var("n")],
            }),
        )
    }

    for d in [16usize, 64, 256] {
        // Same canonical input for both: `uncached` re-runs the
        // structural recursion every time, `cached` hits the id-keyed
        // memo after the first call (re-interning a canonical type is an
        // O(1) address lookup).
        let ty = indexed(d).interned();
        let four = NlTerm::NatLit(4);
        bench(&format!("subst_repeated/uncached/{d}"), || {
            subst_lin_type_uncached(&ty, "n", &four)
        });
        bench(&format!("subst_repeated/cached/{d}"), || {
            subst_lin_type(&ty, "n", &four)
        });
    }
}

fn bench_check_wide_with() {
    let sig = Signature::new();
    let checker = Checker::new(&sig);
    let raw2: &dyn Fn(LinType, LinType) -> LinType = &raw::tensor;
    let int2: &dyn Fn(LinType, LinType) -> LinType = &LinType::tensor;

    for k in [16usize, 64, 256] {
        // x : T ⊢ ⟨x, …, x⟩ ⇐ &ᵏ T: one conversion check per component.
        let term = LinTerm::Tuple(vec![LinTerm::var("x"); k]);

        // Every component type is built *independently* (no provenance
        // sharing through clones): the baseline deep-compares 64 nodes
        // per component, the interned build dedups them all to one
        // canonical allocation.
        let ctx = vec![("x".to_owned(), deep(64, raw2))];
        let expected = raw::with((0..k).map(|_| deep(64, raw2)).collect());
        bench(&format!("check_wide_with/baseline/{k}"), || {
            checker
                .check(&NlCtx::new(), &ctx, &term, &expected)
                .unwrap()
        });

        let ctx = vec![("x".to_owned(), deep(64, int2))];
        let expected = LinType::With((0..k).map(|_| deep(64, int2)).collect()).interned();
        bench(&format!("check_wide_with/interned/{k}"), || {
            checker
                .check(&NlCtx::new(), &ctx, &term, &expected)
                .unwrap()
        });
    }
}

fn main() {
    bench_lambda_chain();
    bench_type_equality();
    bench_subst();
    bench_check_wide_with();
}
