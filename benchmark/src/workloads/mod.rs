//! The five workloads. Each module builds its worlds and inputs in
//! `prepare` (set-up) and does its measured work in `Prepared::run`.

mod fabric;
mod mpi;
mod two_node;

use crate::child::{ChildArgs, Prepared, Workload};

pub fn prepare(args: &ChildArgs) -> Box<dyn Prepared> {
    match args.workload {
        Workload::PingpongSmall => Box::new(two_node::prepare_pingpong(args)),
        Workload::StreamLarge => Box::new(two_node::prepare_stream(args)),
        Workload::FatTree256Mix => Box::new(fabric::prepare_mix(args)),
        Workload::HangRecovery => Box::new(fabric::prepare_hang(args)),
        Workload::Mpi256 => Box::new(mpi::prepare(args)),
    }
}
