//! One module per paper experiment; every module exposes
//! `run(&Settings)`. DESIGN.md §3 maps figures/tables to these modules.

pub mod ablation;
pub mod advisor;
pub mod breakdown;
pub mod hc_config;
pub mod order_cost;
pub mod random_cells;
pub mod scalability;
pub mod semijoin;
pub mod sensitivity;
pub mod six_configs;
pub mod skew;
pub mod summary;
pub mod tj_order;
pub mod worker_util;
