//! # eram-bench
//!
//! Workload generators, the experiment harness, and table printers
//! that regenerate the evaluation section (Section 5) of Hou,
//! Özsoyoğlu & Taneja, SIGMOD 1989.
//!
//! The paper's three result tables are reproduced by the binaries in
//! `src/bin/`:
//!
//! | binary              | paper table | workload |
//! |---------------------|-------------|----------|
//! | `fig5_1_select`     | Figure 5.1  | selection with 0 / 5 000 / 10 000 output tuples, 10 s quota |
//! | `fig5_2_intersect`  | Figure 5.2  | intersection, 2.5 s quota |
//! | `fig5_3_join`       | Figure 5.3  | join with 70 000 output tuples, 2.5 s quota, assumed stage-1 selectivity 0.1 |
//!
//! plus ablations (`abl_strategies`, `abl_adaptive_costs`,
//! `abl_fulfillment`, `abl_estimator_accuracy`, `abl_buffer_cache`,
//! `abl_clustering`, `abl_faults`, `abl_convergence`, `abl_groupby`,
//! `abl_admission`) for the design
//! choices the paper discusses qualitatively.
//!
//! Every binary also emits a machine-readable `BENCH_<suite>.json`
//! ([`bench_json::BenchReport`]): the same `simulated` columns, a pure
//! function of the seeds, so a regenerated file is compared with `cmp`
//! (`scripts/regen_results.sh check` gates the fast sweeps in CI).
//! Host wall time is measured in `benchmark/`, not here.
//!
//! "Each artificial relation instance has 10,000 tuples, with the
//! tuple size of 200 bytes ... 2,000 disk blocks (1K bytes in each
//! disk block) with 5 tuples in each disk block ... Every entry in
//! any table has been obtained from 200 independent experiments."
//! [`workload`] builds exactly those relations; [`harness`] runs the
//! 200 seeded trials per row and aggregates the paper's columns
//! (stages, risk, ovsp, utilization, blocks).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod bench_json;
pub mod harness;
pub mod table;
pub mod workload;

pub use bench_json::{BenchReport, BenchRow, BENCH_SCHEMA_VERSION};
pub use harness::{run_row, RowStats, TrialConfig, TrialResult};
pub use table::{render_table, PaperRow};
pub use workload::{Workload, WorkloadKind};
