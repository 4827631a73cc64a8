//! Wide grammar texts through the one front door, `Engine::compile_text`:
//! the LALR builder's cost grows with states × nonterminals × lookahead
//! words, not with one item per lookahead terminal, and a conflict
//! report lists only the items that take part in each conflict. No
//! timing is asserted; the sizes are what would blow up.

use lambekd::engine::{Engine, FrontendReport};

/// An operator-precedence ladder: `levels` levels of `ops` binary
/// operators each (`'#1'`, `'#2'`, … numbered across the text), over
/// `NUM` and parentheses. `ambiguous` makes each level `Ei ::= Ei op Ei`
/// instead of the left-associative `Ei ::= Ei op Ei+1`.
fn ladder(levels: usize, ops: usize, ambiguous: bool) -> String {
    let mut t = String::from("token NUM = [0-9]+ ;\nskip WS = [ \\n]+ ;\n");
    let mut k = 1;
    for i in 0..levels {
        let right = if ambiguous { i } else { i + 1 };
        let alts: Vec<String> = (0..ops)
            .map(|_| {
                k += 1;
                format!("E{i} '#{}' E{right}", k - 1)
            })
            .collect();
        t.push_str(&format!("E{i} ::= {} | E{} ;\n", alts.join(" | "), i + 1));
    }
    t.push_str(&format!("E{levels} ::= NUM | '(' E0 ')' ;\n"));
    t
}

#[test]
fn an_eight_by_sixteen_ladder_compiles_to_lr() {
    let text = ladder(8, 16, false);
    assert_eq!(text.len(), 1_974);
    let handle = Engine::new().compile_text(&text).unwrap();
    let lr = handle
        .pipeline
        .lexed_backend()
        .and_then(|b| b.cfg_backend().lr())
        .expect("an LALR(1) ladder serves through the LR backend");
    assert_eq!(lr.table().num_states(), 270);
    // 128 operators, NUM, '(' and ')', plus the `$` column.
    assert_eq!(lr.table().num_terminals(), 132);
}

#[test]
fn an_ambiguous_ladder_reports_only_the_items_in_each_conflict() {
    let text = ladder(4, 32, true);
    assert_eq!(text.len(), 1_926);
    let report = match Engine::new().compile_text(&text) {
        Err(FrontendReport::Conflicts(report)) => report,
        other => panic!("expected a conflict report, got {other:?}"),
    };
    let conflicts = &report.report.conflicts;
    assert_eq!(conflicts.len(), 4_096);
    for c in conflicts {
        assert!(
            (2..=4).contains(&c.items.len()),
            "{c}: expected the shifting and reducing items only"
        );
        assert!(c.items.iter().all(|i| i.contains('·')), "{c}");
        assert!(
            c.items
                .iter()
                .any(|i| i.contains(&format!("· {}", c.lookahead))),
            "{c}: no item shifts the lookahead"
        );
    }
    // Every level's rule takes part in some conflict, so each is a site.
    let sites: Vec<&str> = report.sites.iter().map(|s| s.rule.as_str()).collect();
    assert_eq!(sites, ["E0", "E1", "E2", "E3"]);
}
