//! A DPDK-work-alike user-space packet I/O substrate over the simulated
//! machine.
//!
//! CacheDirector (the paper's §4) is implemented as a change to DPDK's
//! buffer management, so the reproduction needs the surrounding DPDK
//! machinery with the same shapes:
//!
//! * **Mempools & mbufs** ([`mempool`], [`mbuf`]): hugepage-backed pools
//!   of fixed-size packet buffers. Each mbuf is a 128 B (two cache line)
//!   metadata struct, a headroom whose default size is 128 B, and a data
//!   room (Fig. 9). The metadata's `udata64` field is where CacheDirector
//!   stashes its per-core headroom table (Fig. 10).
//! * **Rings** ([`ring`]): bounded FIFO queues of buffer handles.
//! * **Steering** ([`steering`]): RSS with the standard Toeplitz hash, and
//!   a FlowDirector exact-match table with queue + mark actions (the
//!   paper's §5.2 runs use FlowDirector for Metron's hardware offload).
//! * **NIC + PMD** ([`nic`]): RX queues of *posted* descriptors that the
//!   NIC consumes by DMA-ing arriving frames through DDIO, and a poll-mode
//!   driver that harvests completions and re-posts buffers. Re-posting is
//!   the hook where a [`nic::HeadroomPolicy`] decides each buffer's
//!   `data_off` — fixed at 128 B in stock DPDK, dynamic per-core in
//!   CacheDirector ("at run time CacheDirector sets the actual headroom
//!   size just before giving the address to the NIC for DMA-ing packets").
//!
//! Everything data-path runs against [`llc_sim::Machine`] so that buffer
//! metadata and packet bytes live in simulated physical memory, occupy
//! cache lines, and cost cycles to touch.
//!
//! # Examples
//!
//! The full RX→TX path:
//!
//! ```
//! use llc_sim::machine::{Machine, MachineConfig};
//! use rte::mbuf::{DEFAULT_DATAROOM, DEFAULT_HEADROOM};
//! use rte::mempool::MbufPool;
//! use rte::nic::{tx_wire, FixedHeadroom, Port, TxDesc};
//! use rte::steering::{Rss, Steering};
//! use trafficgen::FlowTuple;
//!
//! let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3());
//! let mut pool = MbufPool::create(&mut m, 64, DEFAULT_HEADROOM, DEFAULT_DATAROOM).unwrap();
//! let mut port = Port::new(0, Steering::Rss(Rss::new(2)), 32);
//! let mut policy = FixedHeadroom(128);
//! for q in 0..2 {
//!     port.refill(&mut m, &mut pool, q, q, &mut policy, 16);
//! }
//! // A frame arrives, is DMA'd through DDIO, and is polled back out.
//! let flow = FlowTuple::tcp(0x0a000001, 1234, 0xc0a80001, 80);
//! let q = port.deliver(&mut m, &[0u8; 64], &flow, 0.0).unwrap();
//! let mut batch = Vec::new();
//! port.rx_view(q).rx_burst(&mut m, &pool, q, 8, &mut batch);
//! assert_eq!(batch.len(), 1);
//! let tx = [TxDesc::echo(&batch[0])];
//! tx_wire(&mut m, q, &tx);
//! port.tx_commit(&mut pool, &tx);
//! assert_eq!(port.stats().tx_pkts, 1);
//! ```

pub mod fault;
pub mod mbuf;
pub mod mempool;
pub mod nic;
pub mod ring;
pub mod steering;

pub use mempool::MbufPool;
pub use nic::{FixedHeadroom, Port};
pub use steering::{FlowDirector, Rss, Steering};
