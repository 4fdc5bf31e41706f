//! Slice-aware memory management — the paper's core contribution.
//!
//! Intel LLCs are sliced and NUCA: a core reaches its nearest slice up to
//! ~20 cycles faster than a far one (paper §2.2). This crate packages the
//! paper's technique for exploiting that:
//!
//! 1. **Discover the mapping** between physical addresses and slices.
//!    Either poll the uncore counters per address ([`mapping`], works on
//!    any CPU with CBo/CHA counters — §2.1 "Polling") or reconstruct the
//!    XOR hash function once and evaluate it for free afterwards
//!    ([`reverse`] — §2.1 "Constructing the hash function", Fig. 4).
//! 2. **Profile access latency** from each core to each slice with the
//!    fill-flush-read methodology of §2.2 ([`latency`], Figs. 5/16), and
//!    derive each core's preferred slice order ([`placement`], Table 4).
//! 3. **Allocate slice-local memory**: [`alloc::SliceAllocator`] carves
//!    non-contiguous 64 B lines that all map to chosen slice(s) out of a
//!    hugepage, the allocation primitive behind Figs. 6-8 and
//!    CacheDirector.
//! 4. **Isolate**: use slices as partitioning units instead of (or on top
//!    of) CAT way masks ([`isolation`], §7, Fig. 17).
//!
//! The [`workload`] module carries the §3 random-access kernels shared by
//! the microbenchmark figures.
//!
//! # Examples
//!
//! ```
//! use llc_sim::machine::{Machine, MachineConfig};
//! use slice_aware::alloc::SliceAllocator;
//!
//! let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3());
//! let page = m.mem_mut().alloc_hugepage_1g().unwrap();
//!
//! // Allocate 64 lines that all live in core 0's closest slice.
//! let target = m.closest_slice(0);
//! let mut alloc = SliceAllocator::new(page, m.slice_oracle());
//! let buf = alloc.alloc_lines(target, 64).unwrap();
//! assert!(buf.lines().all(|pa| m.slice_of(pa) == target));
//! ```

pub mod alloc;
pub mod isolation;
pub mod latency;
pub mod mapping;
pub mod partition;
pub mod placement;
pub mod reverse;
pub mod scatter;
pub mod workload;

pub use alloc::{SliceAllocator, SliceBuffer};
