//! A behavioural simulator of an Intel-style CPU cache hierarchy with a
//! sliced, NUCA last-level cache.
//!
//! This crate is the hardware substrate for reproducing *"Make the Most out
//! of Last Level Cache in Intel Processors"* (EuroSys '19). The paper's
//! techniques depend on micro-architectural properties that are modelled
//! here explicitly:
//!
//! * **Complex Addressing** ([`hash`]): the undocumented physical-address →
//!   LLC-slice hash, reproduced from the reverse-engineered XOR functions
//!   published by Maurice et al. (RAID '15) and verified by the paper.
//! * **NUCA interconnect** ([`topology`]): a bi-directional ring bus
//!   (Haswell) and a mesh (Skylake) floorplan, so a core's access latency
//!   depends on which slice holds the line (paper Figs. 5 and 16).
//! * **Cache hierarchy** ([`hierarchy`], [`cache`]): private write-back
//!   L1/L2 per core and a shared sliced LLC, inclusive on Haswell and a
//!   non-inclusive victim cache on Skylake (paper §6).
//! * **Uncore monitoring** ([`uncore`]): per-slice CBo/CHA event counters,
//!   the signal used for polling-based slice-mapping discovery (paper §2.1).
//! * **DDIO** ([`hierarchy`]): NIC DMA that allocates into a restricted
//!   way-subset of the LLC (paper §1, §8).
//! * **Physical memory** ([`mem`]): hugepage reservations with a
//!   deterministic physical layout and pagemap-style VA→PA queries.
//!
//! The model is *behavioural*, not cycle-accurate: every memory operation
//! returns the number of core cycles it cost, calibrated against the
//! latencies the paper reports (L1 4, L2 11, LLC ≈ 34 + ring hops, DRAM
//! ≈ 60 ns). Relative effects — which slice is closer, what hits where,
//! what gets evicted — are modelled faithfully; absolute throughput of the
//! host running this simulator is meaningless.
//!
//! # Examples
//!
//! ```
//! use llc_sim::machine::{Machine, MachineConfig};
//!
//! let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3());
//! let page = m.mem_mut().alloc_hugepage_1g().unwrap();
//! let pa = page.pa(0);
//! let slice = m.slice_of(pa);
//! // A cold read misses everywhere and pays the DRAM latency.
//! let cold = m.touch_read(0, pa);
//! // A hot read hits in L1.
//! let hot = m.touch_read(0, pa);
//! assert!(cold > hot);
//! assert!(slice < 8);
//! ```

pub mod addr;
pub mod cache;
pub mod epoch;
pub mod hash;
pub mod hierarchy;
pub mod machine;
pub mod mem;
pub mod prefetch;
pub mod replacement;
pub mod topology;
pub mod tsc;
pub mod uncore;

pub use addr::{PhysAddr, CACHE_LINE};
pub use hierarchy::AccessKind;
pub use machine::{Machine, MachineConfig};
