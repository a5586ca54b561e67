//! Shared helpers for the criterion benchmark harness (see `benches/`).
//!
//! The benchmarks regenerate the paper's evaluation: the annotation-effort
//! claim (`annotations`), the empirical relative-cost validation
//! (`relative_cost`), the heuristics ablation (`ablation`) and the
//! constraint-pipeline microbenchmarks (`constraint_solver`).  Table 1
//! itself is `birelcost table1`.
