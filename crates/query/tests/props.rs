//! Property tests: random queries round-trip through Display → parse,
//! and the hypergraph analysis is stable under atom permutation.

use parjoin_query::hypergraph::is_acyclic;
use parjoin_query::{parser, CmpOp, ConjunctiveQuery, QueryBuilder};
use proptest::prelude::*;

/// Strategy: a random connected-ish conjunctive query over ≤6 variables
/// and ≤6 binary atoms, with optional filters.
fn arb_query() -> impl Strategy<Value = ConjunctiveQuery> {
    (
        2usize..=6,                                                         // variables
        proptest::collection::vec((0usize..6, 0usize..6), 1..=6),           // atom var pairs
        proptest::collection::vec((0usize..6, 0usize..4, 0u64..100), 0..3), // filters
    )
        .prop_map(|(nvars, atoms, filters)| {
            let mut b = QueryBuilder::new("Q");
            let vars: Vec<_> = (0..nvars).map(|i| b.var(&format!("v{i}"))).collect();
            let mut used = vec![false; nvars];
            for (i, (a, c)) in atoms.iter().enumerate() {
                let (a, c) = (a % nvars, c % nvars);
                used[a] = true;
                used[c] = true;
                b.atom(&format!("R{i}"), [vars[a], vars[c]]);
            }
            // Ensure every declared variable is used: add a closing atom.
            let unused: Vec<_> = (0..nvars).filter(|&i| !used[i]).map(|i| vars[i]).collect();
            if !unused.is_empty() {
                b.atom("Fix", unused);
            }
            let ops = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
            for (l, op, k) in filters {
                b.filter_vc(vars[l % nvars], ops[op % ops.len()], k);
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn display_parse_roundtrip(q in arb_query()) {
        let text = format!("{q}");
        let parsed = parser::parse(&text)
            .unwrap_or_else(|e| panic!("`{text}` failed to parse: {e}"));
        // Round-trip fixpoint: printing the parse gives the same text.
        prop_assert_eq!(format!("{parsed}"), text);
        prop_assert_eq!(parsed.atoms.len(), q.atoms.len());
        prop_assert_eq!(parsed.filters.len(), q.filters.len());
        prop_assert_eq!(parsed.num_vars(), q.num_vars());
    }

    #[test]
    fn cyclicity_invariant_under_atom_permutation(q in arb_query()) {
        let base = is_acyclic(&q);
        let mut rev = q.clone();
        rev.atoms.reverse();
        prop_assert_eq!(is_acyclic(&rev), base);
    }

    #[test]
    fn join_vars_subset_of_all_vars(q in arb_query()) {
        let all = q.all_vars();
        for v in q.join_vars() {
            prop_assert!(all.contains(&v));
        }
    }
}

/// What hostile query text is made of: every token the grammar knows,
/// plus multi-byte characters of two, three and four bytes (the parser
/// walks bytes, so each one is a chance to slice inside a character).
const PALETTE: [&str; 24] = [
    "Q",
    "R1",
    "x",
    "y_2",
    "_",
    "7",
    "18446744073709551616",
    "(",
    ")",
    ",",
    ":-",
    ".",
    "<",
    "<=",
    ">",
    ">=",
    "!=",
    "=",
    " ",
    "\n",
    "é",
    "→",
    "⋈",
    "𝔘",
];

fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..PALETTE.len(), 0..=24)
        .prop_map(|picks| picks.into_iter().map(|i| PALETTE[i]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Arbitrary UTF-8 is a query or a typed error whose offset points
    /// into the text — never a panic.
    #[test]
    fn parse_survives_arbitrary_text(text in arb_text()) {
        if let Err(e) = parser::parse(&text) {
            prop_assert!(e.at <= text.len(), "offset {} past `{text}`", e.at);
        }
    }

    /// A valid query with one multi-byte character spliced in at every
    /// character offset in turn, and with every prefix of it.
    #[test]
    fn parse_survives_multibyte_splices_and_truncation(
        q in arb_query(),
        pick in 20usize..PALETTE.len(),
    ) {
        let text = format!("{q}");
        for (at, _) in text.char_indices().chain([(text.len(), ' ')]) {
            let spliced = format!("{}{}{}", &text[..at], PALETTE[pick], &text[at..]);
            if let Ok(parsed) = parser::parse(&spliced) {
                prop_assert!(parsed.validate().is_ok(), "`{spliced}` parsed to an invalid query");
            }
            if let Ok(parsed) = parser::parse(&text[..at]) {
                prop_assert!(parsed.validate().is_ok(), "`{}` parsed to an invalid query", &text[..at]);
            }
        }
    }
}
