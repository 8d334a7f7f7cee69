//! Planner discipline: query paths pick access paths through the
//! cost-based planner, never by hand.
//!
//! Every access-path decision — seq scan vs secondary index vs clustered
//! range — is made by `relstore::planner::choose_path`, and compressed
//! history is read only through the `(segno, id)` bounds that choice
//! carries: `engine.rs` hands them to the table's side storage
//! (`SideStorage`), and `archis::compressed` maps exactly those bounds to
//! blocks (its `index_lookup` fetches a block by number, an identity
//! address like the maintenance paths below). A direct call to a raw path
//! executor (`stream`, `index_range`, `index_range_stream`,
//! `index_lookup`, `cluster_range_stream`) from a query
//! path reintroduces a hand-wired plan: it silently skips segment
//! pruning, ignores the statistics catalog, and drifts from the costs the
//! query's plan reports. This rule flags every such call in the audited
//! query-path files (`engine.rs`, `queries.rs`, `translate.rs`); the
//! planner module and the storage layer itself are exempt, and
//! planner-routed helpers carry a `// lint:allow(reason)` marker.
//!
//! Maintenance paths (the archiver, vacuum, fsck) are deliberately not
//! audited: they address rows by identity, not by predicate, so there is
//! no plan to choose.

use crate::model::SourceFile;
use crate::{Config, Diagnostic};

pub const RULE: &str = "planner-bypass";

/// Raw access-path executors a query path must not call directly.
const RAW_PATHS: &[&str] = &[
    "stream",
    "index_range",
    "index_range_stream",
    "index_lookup",
    "cluster_range_stream",
];

pub fn check(cfg: &Config, files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    for file in files {
        if !cfg.is_planner_query_file(&file.rel_path) {
            continue;
        }
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if file.token_in_test(i) {
                continue;
            }
            let t = &toks[i];
            if t.is_punct('.')
                && toks
                    .get(i + 1)
                    .is_some_and(|m| RAW_PATHS.iter().any(|p| m.is_ident(p)))
                && toks.get(i + 2).is_some_and(|p| p.is_punct('('))
            {
                let line = toks[i + 1].line;
                let method = RAW_PATHS
                    .iter()
                    .find(|p| toks[i + 1].is_ident(p))
                    .unwrap_or(&"?");
                out.push(Diagnostic::new(
                    &file.rel_path,
                    line,
                    RULE,
                    format!(
                        "direct .{method}() call hand-wires the access path: route \
                         the scan through planner::choose_path, which reaches \
                         compressed segments through the SideStorage block bounds"
                    ),
                ));
            }
        }
    }
}
