//! The diagnostic codes the docs name are the codes the analyzer has:
//! DESIGN.md's §9 table lists every [`DiagCode`], and every code-shaped
//! token (`Q`, `P`, `C` or `R` followed by three digits) in README.md
//! and DESIGN.md is a live code.

use parjoin_analyze::DiagCode;

/// Lists the variants once, for both the exhaustive `match` (a new
/// variant fails to compile until it is listed here) and the returned
/// list.
macro_rules! every_code {
    ($($v:ident),* $(,)?) => {{
        fn exhaustive(c: DiagCode) {
            match c {
                $(DiagCode::$v)|* => {}
            }
        }
        let _ = exhaustive;
        vec![$(DiagCode::$v),*]
    }};
}

fn all_codes() -> Vec<DiagCode> {
    every_code![
        QueryMalformed,
        HeadVarUnbound,
        FilterVarUnbound,
        QueryDisconnected,
        CatalogUnknownRelation,
        CatalogArityMismatch,
        JoinOrderNotPermutation,
        JoinOrderCartesianStep,
        FilterNeverApplied,
        TjOrderIncomplete,
        TjOrderDuplicate,
        TjOrderUnknownVar,
        TjOrderDisconnectedPrefix,
        HcConfigOversized,
        HcConfigZeroDim,
        HcConfigUnknownVar,
        HcConfigMissingJoinVar,
        HcConfigUnderutilized,
        BroadcastDominated,
        MemoryPreflight,
        HostParallelismUnknown,
        BatchSizeZero,
        BatchOverBudget,
        SortCacheOverBudget,
        ProbeParallelismDegraded,
        FrameOverLimit,
        PolicyCertified,
        PolicyCounterexample,
        PolicyUnproven,
        PolicyMalformed,
    ]
}

fn doc(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every `[QPCR]ddd` token of `text` that is not part of a longer word
/// or number.
fn code_tokens(text: &str) -> Vec<String> {
    let b = text.as_bytes();
    let word = |i: usize| {
        b.get(i)
            .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_')
    };
    (0..b.len().saturating_sub(3))
        .filter(|&i| {
            matches!(b[i], b'Q' | b'P' | b'C' | b'R')
                && b[i + 1..i + 4].iter().all(u8::is_ascii_digit)
                && (i == 0 || !word(i - 1))
                && !word(i + 4)
        })
        .map(|i| text[i..i + 4].to_string())
        .collect()
}

#[test]
fn codes_are_distinct_and_well_formed() {
    let codes: Vec<&str> = all_codes().into_iter().map(DiagCode::code).collect();
    for c in &codes {
        assert_eq!(code_tokens(c), vec![c.to_string()], "malformed code {c}");
    }
    let mut sorted = codes.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), codes.len(), "duplicate codes: {codes:?}");
}

#[test]
fn design_names_every_code() {
    let design = doc("DESIGN.md");
    let named = code_tokens(&design);
    let missing: Vec<&str> = all_codes()
        .into_iter()
        .map(DiagCode::code)
        .filter(|c| !named.iter().any(|n| n == c))
        .collect();
    assert!(missing.is_empty(), "DESIGN.md never names {missing:?}");
}

#[test]
fn docs_name_only_live_codes() {
    let live: Vec<&str> = all_codes().into_iter().map(DiagCode::code).collect();
    for name in ["README.md", "DESIGN.md"] {
        let dead: Vec<String> = code_tokens(&doc(name))
            .into_iter()
            .filter(|t| !live.contains(&t.as_str()))
            .collect();
        assert!(
            dead.is_empty(),
            "{name} names codes that do not exist: {dead:?}"
        );
    }
}
