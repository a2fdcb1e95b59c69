//! # fompi-fleet — process-based cross-backend bench orchestration
//!
//! Every bench in this repo used to run in-process inside one binary;
//! nothing guarded the story *across process boundaries*: spawn the
//! release binaries the way a user would, sweep rank counts and backends
//! (RMA vs msg-channel vs pgas-style paths) on fixed seeds, and track the
//! merged tail. This crate is that orchestration layer, the WIND-style
//! harness architecture from the paper's measurement lineage:
//!
//! * [`agent`] — the registry: agent name → argv template, expanded per
//!   sweep point, plus the parser for each agent's single-line JSON
//!   metrics output ([`fompi_fabric::metrics`]'s wire form); every parse
//!   error names the offending agent.
//! * [`procstat`] — spawning and *wall-clock* accounting: elapsed time,
//!   CPU seconds and peak RSS per agent from `/proc`, with a kill-switch
//!   timeout so a hung agent fails the sweep instead of wedging CI.
//! * [`merge`] — folding agent snapshots into the fleet summary:
//!   per-configuration p50/p99/p999 plus exact fleet-wide distributions
//!   (histogram merge is associative, so the merged tail is the true
//!   union, not an average of quantiles). The summary is byte-stable, so
//!   CI byte-diffs it: after a deliberate change, rerun the sweep, review
//!   `git diff` and commit.
//! * [`json`] — the dependency-free JSON reader the above are built on.
//!
//! The `fleet` binary in `fompi-bench` wires these together; see
//! EXPERIMENTS.md § "Fleet sweeps".

pub mod agent;
pub mod json;
pub mod merge;
pub mod procstat;

pub use agent::{expand_argv, expand_template, parse_agent_json, AgentMetrics, AgentSpec};
pub use merge::{merge_classes, render_summary, render_table, ConfigResult};
pub use procstat::{run_agent, AgentRun, Usage};
