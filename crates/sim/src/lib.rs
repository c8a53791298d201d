//! # lss-sim — the cleaning-cost simulator of the paper's evaluation
//!
//! Paper §6.1.1: *"we built a simulator to evaluate the various cleaning algorithms. The
//! major difference between the simulator and an actual system is that the former only
//! writes page IDs instead of page contents."*
//!
//! This crate is that simulator. It tracks, for every physical segment, which pages it
//! holds and how many of them are still live, drives the **same policy implementations**
//! as the real store (`lss_core::policy`), and reports the write amplification
//! (`GC page writes / user page writes`) that the paper's figures plot.
//!
//! The defaults mirror the paper: 4 KiB pages, 2 MiB segments (512 pages), cleaning
//! triggered when fewer than 32 segments are free, 64 segments cleaned per cycle
//! (1 for multi-log), and a 16-segment sort buffer. The simulated store size is
//! configurable; the paper notes (and our tests confirm) that it does not affect write
//! amplification, so experiments default to a laptop-friendly size.
//!
//! ```
//! use lss_sim::{SimConfig, run_simulation};
//! use lss_core::policy::PolicyKind;
//! use lss_workload::UniformWorkload;
//!
//! let config = SimConfig::small_for_tests(PolicyKind::Greedy).with_fill_factor(0.5);
//! let mut workload = UniformWorkload::new(config.logical_pages(), 42);
//! let result = run_simulation(&config, &mut workload, 30_000, 10_000);
//! assert!(result.write_amplification < 1.0); // F = 0.5 is an easy regime
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod report;
pub mod simulator;

pub use report::SimResult;
pub use simulator::{run_simulation, SeparationConfig, SimConfig, Simulator};
