//! The repo benchmark: four SQL→ML workloads measured end to end and layer
//! by layer, from outside the program, through its public functions.
//! See `README.md` in this directory for what is measured and why.

pub mod batch;
pub mod compare;
pub mod explore;
pub mod gen;
pub mod harness;
pub mod json;
pub mod serve;
pub mod spec;
pub mod stats;
pub mod trace;

use harness::{Outcome, RunArgs};

/// Run one workload once, in this process.
pub fn run_workload(args: &RunArgs) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "naive-batch" => Ok(batch::run(args, sqlml_core::Strategy::Naive)),
        "stream-batch" => Ok(batch::run(args, sqlml_core::Strategy::InSqlStream)),
        "explore-session" => Ok(explore::run(args)),
        "serve-mix" => Ok(serve::run(args)),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {:?}",
            spec::workload_names()
        )),
    }
}
