//! Seeded planner-bypass violations: raw access-path executors called
//! from a query path, hand-wiring the plan past the cost-based planner.
//! Lexed by the lint, not compiled; `//~` markers are the expected set.

pub fn rogue_seq(table: &Table) {
    let _rows = table.stream(); //~ planner-bypass
}

pub fn rogue_index(table: &Table, key: i64) {
    let _rows = table.index_range("by_id", key, key); //~ planner-bypass
    let _hits = table.index_lookup("by_id", key); //~ planner-bypass
}

pub fn rogue_cluster(table: &Table, lo: u64, hi: u64) {
    let _rows = table.cluster_range_stream(lo, hi).collect(); //~ planner-bypass
    let _s = table.cluster_range_stream(lo, hi); //~ planner-bypass
}

pub fn sanctioned(table: &Table, lo: u64, hi: u64) {
    // lint:allow(fixture demo: reached only from scan_table after
    // choose_path already picked the clustered range for this table)
    let _rows = table.cluster_range_stream(lo, hi);
}

pub fn planner_routed(table: &Table) {
    // Calls that *go through* the planner are the sanctioned shape.
    let _plan = planner::choose_path(&profile, &candidates, None);
}

#[cfg(test)]
mod tests {
    pub fn test_only(table: &super::Table) {
        let _rows = table.stream();
    }
}
