//! LR vs Earley on the deterministic standards — the speedup the
//! certified LR subsystem buys over the general chart parser.
//!
//! Four comparisons per grammar (Dyck and the Fig. 15 expressions) at
//! input lengths n = 64 / 256 / 1024 symbols:
//!
//! * `lr_recognize` — the dense-table state run, no trees;
//! * `lr_parse` — shift-reduce tree building with the *incremental*
//!   certification (each reduction checked as it happens, O(1) per
//!   step via interned grammar ids);
//! * `lr_parse_full` — the same run finished with the whole-tree
//!   post-hoc re-validation (the pre-incremental contract price);
//! * `earley_recognize` / `earley_parse` — the baseline.
//!
//! Expected shape: LR linear with a small constant; Earley super-linear
//! (≥ 10× behind at n = 1024, typically far more). The trailing group
//! measures what the engine amortizes: LALR table construction from
//! scratch (Dyck, Fig. 15, a grammar_churn-sized expression grammar and
//! a wide 12 × 32 operator ladder) vs a cached `get_or_compile` hit.

use lambek_automata::gen::random_dyck;
use lambek_automata::lookahead::ArithTokens;
use lambek_bench::bench;
use lambek_cfg::dyck::{dyck_cfg, Parens};
use lambek_cfg::earley::{earley_parse, earley_recognize};
use lambek_cfg::expr::exp_cfg;
use lambek_cfg::grammar::Cfg;
use lambek_core::alphabet::GString;
use lambek_engine::{Engine, PipelineSpec};
use lambek_lr::CertifiedLrParser;

/// An expression of exactly `n` symbols (n odd): `n + n + … + n`.
fn chain_expr(t: &ArithTokens, n: usize) -> GString {
    let mut w = GString::singleton(t.num);
    while w.len() + 2 <= n {
        w.push(t.add);
        w.push(t.num);
    }
    w
}

/// A left-associative operator ladder: level `i` has `ops[i]` binary
/// operators (`'#1'`, `'#2'`, … numbered across the text) over `NUM` and
/// parentheses.
fn ladder(ops: &[usize]) -> String {
    let mut t = String::from("token NUM = [0-9]+ ;\nskip WS = [ \\n]+ ;\n");
    let mut k = 0;
    for (i, &n) in ops.iter().enumerate() {
        let alts: Vec<String> = (0..n)
            .map(|_| {
                k += 1;
                format!("E{i} '#{k}' E{}", i + 1)
            })
            .collect();
        t.push_str(&format!("E{i} ::= {} | E{} ;\n", alts.join(" | "), i + 1));
    }
    t.push_str(&format!("E{} ::= NUM | '(' E0 ')' ;\n", ops.len()));
    t
}

/// The token-level grammar a text elaborates to.
fn text_cfg(text: &str) -> Cfg {
    let ast = lambek_frontend::parse_text(text).unwrap();
    lambek_frontend::elaborate(text, &ast).unwrap().cfg
}

fn bench_grammar(group: &str, cfg: &Cfg, inputs: &[(usize, GString)]) {
    let parser = CertifiedLrParser::compile(cfg).expect("deterministic standard");
    for (n, w) in inputs {
        bench(&format!("{group}/lr_recognize/{n}"), || {
            parser.recognizes(w)
        });
        bench(&format!("{group}/lr_parse/{n}"), || {
            parser.parse(w).unwrap()
        });
        bench(&format!("{group}/lr_parse_full/{n}"), || {
            parser.parse_full(w).unwrap()
        });
        bench(&format!("{group}/earley_recognize/{n}"), || {
            earley_recognize(cfg, w)
        });
        bench(&format!("{group}/earley_parse/{n}"), || {
            earley_parse(cfg, w).tree().unwrap()
        });
    }
}

fn main() {
    let p = Parens::new();
    let dyck = dyck_cfg(&p);
    let dyck_inputs: Vec<(usize, GString)> = [64usize, 256, 1024]
        .iter()
        .map(|&n| (n, random_dyck(n / 2, n as u64)))
        .collect();
    bench_grammar("lr_dyck", &dyck, &dyck_inputs);

    let t = ArithTokens::new();
    let expr = exp_cfg(&t);
    let expr_inputs: Vec<(usize, GString)> = [64usize, 256, 1024]
        .iter()
        .map(|&n| (n, chain_expr(&t, n)))
        .collect();
    bench_grammar("lr_expr", &expr, &expr_inputs);

    // Construction vs amortization: building the LALR tables from
    // scratch against a warm engine cache hit for the same spec.
    bench("lr_tables/build_dyck_tables", || {
        CertifiedLrParser::compile(&dyck).unwrap()
    });
    bench("lr_tables/build_expr_tables", || {
        CertifiedLrParser::compile(&expr).unwrap()
    });
    // Text-compiled expression grammars: a grammar_churn-sized one
    // (4 levels of 1–3 operators, 24 states) and a wide ladder of 12
    // levels × 32 operators (387 terminals, 786 states), where a builder
    // holding one item per lookahead terminal goes quadratic.
    let churn = text_cfg(&ladder(&[3, 1, 2, 1]));
    bench("lr_tables/build_churn_expr", || {
        CertifiedLrParser::compile(&churn).unwrap()
    });
    let wide = text_cfg(&ladder(&[32; 12]));
    bench("lr_tables/build_wide_expr", || {
        CertifiedLrParser::compile(&wide).unwrap()
    });
    let engine = Engine::new();
    let spec = PipelineSpec::dyck_cfg();
    engine.get_or_compile(&spec).unwrap();
    bench("lr_tables/engine_cached_hit", || {
        engine.get_or_compile(&spec).unwrap()
    });
}
