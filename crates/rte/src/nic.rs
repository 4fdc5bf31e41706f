//! The NIC model and poll-mode driver (PMD).
//!
//! Receive path, mirroring real descriptor-based NICs (§4.1):
//!
//! 1. The driver **posts** mbufs to an RX queue: it picks the buffer's
//!    `data_off` (the [`HeadroomPolicy`] hook — fixed 128 B in stock
//!    DPDK, slice-aware in CacheDirector), writes the metadata, and hands
//!    the DMA address to the NIC.
//! 2. On packet arrival the NIC **steers** the frame to a queue (RSS or
//!    FlowDirector), consumes a posted descriptor and DMAs the frame into
//!    the buffer through DDIO — which is what places the first 64 B into
//!    an LLC slice. No posted descriptor ⇒ the frame is dropped and
//!    counted (`rx_nodesc`), which is how the NIC-side throughput ceiling
//!    of Table 3 manifests.
//! 3. The application polls completions with [`Port::rx_burst`], fills
//!    metadata (timed), processes, and transmits via [`Port::tx_burst`],
//!    which DMA-reads the frame out and recycles the buffer.

use crate::fault::FrameFault;
use crate::mempool::MbufPool;
use crate::ring::Ring;
use crate::steering::Steering;
use llc_sim::addr::PhysAddr;
use llc_sim::epoch::CoreMem;
use llc_sim::hierarchy::Cycles;
use llc_sim::machine::Machine;
use trafficgen::FlowTuple;

/// Default RX queue depth in descriptors.
pub const DEFAULT_QUEUE_DEPTH: usize = 1024;

/// Frames shorter than an Ethernet header are runts; the MAC drops them
/// before software ever sees them, like a bad FCS.
pub const MIN_MAC_FRAME: usize = 14;

/// Chooses each posted buffer's `data_off`.
///
/// Invoked by the driver just before handing the buffer to the NIC —
/// exactly where CacheDirector intervenes ("at run time CacheDirector
/// sets the actual headroom size just before giving the address to the
/// NIC for DMA-ing packets", §4.2).
pub trait HeadroomPolicy {
    /// `data_off` for `mbuf`, to be received on a queue processed by
    /// `core`. May read mbuf metadata (timed on `core`).
    fn data_off(&mut self, m: &mut Machine, pool: &MbufPool, mbuf: u32, core: usize) -> u16;
}

/// Stock DPDK: every buffer gets the same fixed headroom.
#[derive(Debug, Clone, Copy)]
pub struct FixedHeadroom(pub u16);

impl HeadroomPolicy for FixedHeadroom {
    fn data_off(&mut self, _m: &mut Machine, pool: &MbufPool, _mbuf: u32, _core: usize) -> u16 {
        self.0.min(pool.headroom_cap())
    }
}

/// A descriptor the driver posted to the NIC.
#[derive(Debug, Clone, Copy)]
struct PostedDesc {
    mbuf: u32,
    data_pa: PhysAddr,
}

/// A received-packet completion, as read from the RX descriptor.
#[derive(Debug, Clone, Copy)]
pub struct RxCompletion {
    /// The buffer holding the frame.
    pub mbuf: u32,
    /// Physical address of the frame start (headroom applied).
    pub data_pa: PhysAddr,
    /// Frame length in bytes.
    pub len: u16,
    /// Arrival timestamp in simulated nanoseconds.
    pub arrival_ns: f64,
    /// FlowDirector mark, when a rule attached one.
    pub mark: Option<u32>,
}

/// A frame handed to [`Port::tx_burst`].
#[derive(Debug, Clone, Copy)]
pub struct TxDesc {
    /// Buffer to transmit and recycle.
    pub mbuf: u32,
    /// Frame start.
    pub data_pa: PhysAddr,
    /// Frame length.
    pub len: u16,
}

impl TxDesc {
    /// Transmits a received frame from its own buffer, as it now
    /// stands (a response written in place, or a forwarded packet).
    pub fn echo(comp: &RxCompletion) -> Self {
        Self {
            mbuf: comp.mbuf,
            data_pa: comp.data_pa,
            len: comp.len,
        }
    }
}

/// Why the NIC dropped a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The target queue had no posted descriptors.
    NoDescriptor,
    /// The NIC's packet-rate ceiling was exceeded.
    Overrun,
    /// Hardware CRC check failed (corrupt frame or runt).
    CrcError,
    /// The link was down when the frame arrived.
    LinkDown,
    /// The RX engine was stalled (not draining descriptors).
    RxStall,
    /// The completion (ready) ring was backed up: descriptors were
    /// posted, but the application was not polling completions fast
    /// enough and the frame had nowhere to land.
    ReadyOverrun,
}

impl std::fmt::Display for DropReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Self::NoDescriptor => "no posted descriptor",
            Self::Overrun => "packet-rate overrun",
            Self::CrcError => "bad CRC / runt",
            Self::LinkDown => "link down",
            Self::RxStall => "rx engine stalled",
            Self::ReadyOverrun => "completion ring overrun",
        };
        f.write_str(s)
    }
}

/// Port-level counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct PortStats {
    /// Frames delivered into RX queues.
    pub rx_pkts: u64,
    /// Bytes delivered into RX queues.
    pub rx_bytes: u64,
    /// Frames dropped for lack of posted descriptors.
    pub rx_nodesc: u64,
    /// Frames dropped by the NIC packet-rate ceiling.
    pub rx_overrun: u64,
    /// Frames dropped by the hardware CRC check (corrupt or runt).
    pub rx_crc: u64,
    /// Frames lost while the link was down.
    pub rx_linkdown: u64,
    /// Frames lost while the RX engine was stalled.
    pub rx_stall: u64,
    /// Frames lost because the completion ring was backed up while
    /// descriptors were still posted (application not polling).
    pub rx_ready_overrun: u64,
    /// Frames transmitted.
    pub tx_pkts: u64,
    /// Bytes transmitted.
    pub tx_bytes: u64,
}

impl PortStats {
    /// Every frame the NIC dropped, across all causes.
    pub fn rx_dropped(&self) -> u64 {
        self.rx_nodesc
            + self.rx_overrun
            + self.rx_crc
            + self.rx_linkdown
            + self.rx_stall
            + self.rx_ready_overrun
    }
}

/// One RX queue: posted descriptors and ready completions.
#[derive(Debug)]
struct RxQueue {
    posted: Ring<PostedDesc>,
    ready: Ring<RxCompletion>,
    rx_pkts: u64,
}

/// A NIC port with multi-queue RX steering.
#[derive(Debug)]
pub struct Port {
    id: u16,
    queues: Vec<RxQueue>,
    steering: Steering,
    stats: PortStats,
    /// Minimum spacing between accepted frames (0 = unlimited). Models
    /// the NIC/PCIe packet-rate ceiling the paper attributes its ~76 Gbps
    /// limit to ("the Mellanox NIC's limitation for packets smaller than
    /// 512 B and other architectural limitations such as PCIe and DDIO",
    /// §5.1.2).
    rx_gap_ns: f64,
    next_accept_ns: f64,
}

impl Port {
    /// A port whose steering decides the queue count, with `depth`
    /// descriptors per queue.
    pub fn new(id: u16, steering: Steering, depth: usize) -> Self {
        let queues = (0..steering.queues())
            .map(|_| RxQueue {
                posted: Ring::new(depth),
                ready: Ring::new(depth),
                rx_pkts: 0,
            })
            .collect();
        Self {
            id,
            queues,
            steering,
            stats: PortStats::default(),
            rx_gap_ns: 0.0,
            next_accept_ns: 0.0,
        }
    }

    /// Caps the RX packet rate at `mpps` million packets per second
    /// (the NIC/PCIe ceiling; pass `None` to lift the cap).
    pub fn set_rx_rate_limit(&mut self, mpps: Option<f64>) {
        self.rx_gap_ns = match mpps {
            None => 0.0,
            Some(r) => {
                assert!(r > 0.0, "rate must be positive");
                1e3 / r
            }
        };
    }

    /// Port id.
    pub fn id(&self) -> u16 {
        self.id
    }

    /// Number of RX queues.
    pub fn num_queues(&self) -> usize {
        self.queues.len()
    }

    /// Counters.
    pub fn stats(&self) -> PortStats {
        self.stats
    }

    /// Frames received so far on queue `q`.
    pub fn queue_rx_pkts(&self, q: usize) -> u64 {
        self.queues[q].rx_pkts
    }

    /// Posted descriptors currently available on queue `q`.
    pub fn posted_count(&self, q: usize) -> usize {
        self.queues[q].posted.len()
    }

    /// Completions waiting on queue `q`.
    pub fn ready_count(&self, q: usize) -> usize {
        self.queues[q].ready.len()
    }

    /// Mutable access to the steering table (rule installation).
    pub fn steering_mut(&mut self) -> &mut Steering {
        &mut self.steering
    }

    /// Driver: posts `mbuf` with headroom `data_off` to queue `q`.
    ///
    /// Writes the chosen `data_off` into the mbuf metadata (timed on
    /// `core`) and hands the DMA address to the NIC. Fails when the
    /// posted ring is full.
    pub fn post(
        &mut self,
        m: &mut Machine,
        pool: &MbufPool,
        q: usize,
        core: usize,
        mbuf: u32,
        data_off: u16,
    ) -> Result<Cycles, u32> {
        let meta = pool.meta(mbuf);
        if self.queues[q].posted.is_full() {
            return Err(mbuf);
        }
        let cycles = meta.set_data_off(m, core, data_off);
        let desc = PostedDesc {
            mbuf,
            data_pa: meta.data_pa_for(data_off),
        };
        if self.queues[q].posted.enqueue(desc).is_err() {
            // Unreachable after the is_full check, but degrade by handing
            // the buffer back rather than panicking.
            return Err(mbuf);
        }
        Ok(cycles)
    }

    /// Driver: tops queue `q` back up to `target` posted descriptors,
    /// allocating from `pool` and applying `policy`. Returns `(posted,
    /// cycles)`.
    pub fn refill(
        &mut self,
        m: &mut Machine,
        pool: &mut MbufPool,
        q: usize,
        core: usize,
        policy: &mut dyn HeadroomPolicy,
        target: usize,
    ) -> (usize, Cycles) {
        let mut cycles = 0;
        let mut posted = 0;
        while self.queues[q].posted.len() < target {
            let Some(mbuf) = pool.get() else { break };
            let off = policy.data_off(m, pool, mbuf, core);
            match self.post(m, pool, q, core, mbuf, off) {
                Ok(c) => {
                    cycles += c;
                    posted += 1;
                }
                Err(mb) => {
                    pool.put(mb);
                    break;
                }
            }
        }
        (posted, cycles)
    }

    /// NIC: a frame arrives. Steers, consumes a posted descriptor and
    /// DMA-writes the frame (DDIO). Returns the queue it landed on.
    pub fn deliver(
        &mut self,
        m: &mut Machine,
        frame: &[u8],
        flow: &FlowTuple,
        arrival_ns: f64,
    ) -> Result<usize, DropReason> {
        let (q, mark) = self.route(flow);
        self.deliver_routed(m, frame, q, mark, arrival_ns, FrameFault::clean())
            .map(|()| q)
    }

    /// NIC: steers `flow` to `(queue, mark)` without delivering anything.
    ///
    /// Splitting steering from delivery lets a caller learn the target
    /// queue first (e.g. to draw queue-scoped faults) and then complete
    /// the delivery with [`Port::deliver_routed`]. Mutable because
    /// FlowDirector auto-insertion may install a rule.
    pub fn route(&mut self, flow: &FlowTuple) -> (usize, Option<u32>) {
        self.steering.steer(flow)
    }

    /// Delivery once steering has already picked queue `q` (see
    /// [`Port::route`]): consumes a posted descriptor and DMA-writes the
    /// frame through DDIO. An injected [`FrameFault`] applies in the
    /// order the hardware would: carrier loss first, then the MAC's
    /// packet-rate ceiling, then the (possibly stalled) RX engine, then
    /// the CRC/runt check, then descriptor consumption.
    /// Truncated-but-parseable frames are delivered at their shortened
    /// length; rejecting them is software's job.
    pub fn deliver_routed(
        &mut self,
        m: &mut Machine,
        frame: &[u8],
        q: usize,
        mark: Option<u32>,
        arrival_ns: f64,
        fault: FrameFault,
    ) -> Result<(), DropReason> {
        if fault.link_down {
            self.stats.rx_linkdown += 1;
            return Err(DropReason::LinkDown);
        }
        if self.rx_gap_ns > 0.0 {
            // Leaky bucket: the NIC pipeline absorbs short bursts (a few
            // dozen frames) but sustained input beyond `1/rx_gap_ns` pps
            // overruns it.
            const BURST_FRAMES: f64 = 32.0;
            self.next_accept_ns = self.next_accept_ns.max(arrival_ns);
            if self.next_accept_ns - arrival_ns > BURST_FRAMES * self.rx_gap_ns {
                self.stats.rx_overrun += 1;
                return Err(DropReason::Overrun);
            }
            self.next_accept_ns += self.rx_gap_ns;
        }
        if fault.stall {
            self.stats.rx_stall += 1;
            return Err(DropReason::RxStall);
        }
        // Hardware CRC verification: corrupt frames and runts (too short
        // to carry an Ethernet header) die at the MAC.
        let wire_len = fault
            .truncate_to
            .map_or(frame.len(), |t| t.min(frame.len()));
        if fault.corrupt || wire_len < MIN_MAC_FRAME {
            self.stats.rx_crc += 1;
            return Err(DropReason::CrcError);
        }
        let frame = &frame[..wire_len];
        if self.queues[q].posted.is_empty() {
            self.stats.rx_nodesc += 1;
            return Err(DropReason::NoDescriptor);
        }
        if fault.ready_blocked || self.queues[q].ready.is_full() {
            // Completion ring backed up (application not polling): the
            // frame is lost but the descriptor stays posted.
            self.stats.rx_ready_overrun += 1;
            return Err(DropReason::ReadyOverrun);
        }
        let Some(desc) = self.queues[q].posted.dequeue() else {
            // Unreachable after the is_empty check, but degrade by
            // counting rather than panicking.
            self.stats.rx_nodesc += 1;
            return Err(DropReason::NoDescriptor);
        };
        m.dma_write(desc.data_pa, frame);
        let completion = RxCompletion {
            mbuf: desc.mbuf,
            data_pa: desc.data_pa,
            len: frame.len() as u16,
            arrival_ns,
            mark,
        };
        if self.queues[q].ready.enqueue(completion).is_err() {
            // Unreachable after the is_full check; degrade by re-posting
            // the descriptor and counting the loss.
            let _ = self.queues[q].posted.enqueue(desc);
            self.stats.rx_ready_overrun += 1;
            return Err(DropReason::ReadyOverrun);
        }
        self.queues[q].rx_pkts += 1;
        self.stats.rx_pkts += 1;
        self.stats.rx_bytes += frame.len() as u64;
        Ok(())
    }

    /// PMD: harvests up to `max` completions from queue `q` and fills the
    /// mbuf metadata (timed on `core`), like the RX path of a real driver.
    pub fn rx_burst(
        &mut self,
        m: &mut Machine,
        pool: &MbufPool,
        q: usize,
        core: usize,
        max: usize,
    ) -> (Vec<RxCompletion>, Cycles) {
        let batch = self.queues[q].ready.dequeue_burst(max);
        let cycles = fill_rx_meta(m, pool, self.id, q, core, &batch);
        (batch, cycles)
    }

    /// Splits the port's RX queues into per-queue [`RxView`]s, one per
    /// queue, for worker-side polling during an engine epoch. While the
    /// views are alive the port is fully borrowed; stats and posted rings
    /// stay coordinator-side.
    pub fn rx_views(&mut self) -> Vec<RxView<'_>> {
        let id = self.id;
        self.queues
            .iter_mut()
            .enumerate()
            .map(|(q, rq)| RxView {
                port_id: id,
                queue: q,
                ready: &mut rq.ready,
            })
            .collect()
    }

    /// PMD: transmits frames and recycles their buffers. The NIC DMA-reads
    /// each frame (untimed for the core); per-descriptor doorbell cost is
    /// charged to `core`.
    ///
    /// Equivalent to [`tx_wire`] (the worker-side, timed half) followed by
    /// [`Port::tx_commit`] (the coordinator-side stats + recycle half).
    pub fn tx_burst(
        &mut self,
        m: &mut Machine,
        pool: &mut MbufPool,
        core: usize,
        frames: &[TxDesc],
    ) -> Cycles {
        let cycles = tx_wire(m, core, frames);
        self.tx_commit(pool, frames);
        cycles
    }

    /// The coordinator-side half of a transmit: counts the frames and
    /// recycles their buffers. The timed wire work ([`tx_wire`]) must have
    /// been charged on the transmitting core already.
    pub fn tx_commit(&mut self, pool: &mut MbufPool, frames: &[TxDesc]) {
        for d in frames {
            self.stats.tx_pkts += 1;
            self.stats.tx_bytes += u64::from(d.len);
            pool.put(d.mbuf);
        }
    }
}

/// The worker-side half of a transmit: the per-descriptor doorbell store
/// (timed on `core`) and the NIC's DMA read of each frame. Carries no
/// port state so it can run inside an engine epoch; pair with
/// [`Port::tx_commit`] at the merge.
pub fn tx_wire<M: CoreMem + ?Sized>(m: &mut M, core: usize, frames: &[TxDesc]) -> Cycles {
    let mut cycles = 0;
    for d in frames {
        // Doorbell/descriptor write: one store.
        cycles += m.touch_write(core, d.data_pa);
        m.dma_read(d.data_pa, usize::from(d.len));
    }
    cycles
}

/// Fills RX metadata for a harvested batch (timed on `core`) — the
/// driver-side cost shared by [`Port::rx_burst`] and [`RxView::rx_burst`].
fn fill_rx_meta<M: CoreMem + ?Sized>(
    m: &mut M,
    pool: &MbufPool,
    port_id: u16,
    q: usize,
    core: usize,
    batch: &[RxCompletion],
) -> Cycles {
    let mut cycles = 0;
    for c in batch {
        let meta = pool.meta(c.mbuf);
        cycles += meta.set_data_len(m, core, c.len);
        cycles += meta.set_pkt_len(m, core, u32::from(c.len));
        cycles += meta.set_port(m, core, port_id);
        cycles += meta.set_queue(m, core, q as u16);
    }
    cycles
}

/// A worker-owned view of one RX queue's completion ring, split out of a
/// [`Port`] with [`Port::rx_views`] for the duration of an engine epoch.
///
/// Only the polling half of the driver lives here; posting, refill and
/// delivery stay on the coordinator, so the view is `Send` and disjoint
/// from every other queue's state.
#[derive(Debug)]
pub struct RxView<'a> {
    port_id: u16,
    queue: usize,
    ready: &'a mut Ring<RxCompletion>,
}

impl RxView<'_> {
    /// The queue this view polls.
    pub fn queue(&self) -> usize {
        self.queue
    }

    /// Completions currently waiting.
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// PMD: harvests up to `max` completions into `batch` (cleared
    /// first; the caller reuses it across polls) and fills the mbuf
    /// metadata (timed on `core`) — [`Port::rx_burst`] against the split
    /// view.
    pub fn rx_burst<M: CoreMem + ?Sized>(
        &mut self,
        m: &mut M,
        pool: &MbufPool,
        core: usize,
        max: usize,
        batch: &mut Vec<RxCompletion>,
    ) -> Cycles {
        batch.clear();
        self.ready.dequeue_burst_into(max, batch);
        fill_rx_meta(m, pool, self.port_id, self.queue, core, batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steering::{FlowDirector, Rss};
    use llc_sim::machine::MachineConfig;

    fn setup() -> (Machine, MbufPool, Port) {
        let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(64 << 20));
        let pool = MbufPool::create(&mut m, 256, 128, 2048).unwrap();
        let port = Port::new(0, Steering::Rss(Rss::new(2)), 64);
        (m, pool, port)
    }

    fn flow() -> FlowTuple {
        FlowTuple::tcp(0x0a000001, 1234, 0xc0a80001, 80)
    }

    #[test]
    fn rx_path_roundtrip() {
        let (mut m, mut pool, mut port) = setup();
        let mut policy = FixedHeadroom(128);
        for q in 0..2 {
            port.refill(&mut m, &mut pool, q, 0, &mut policy, 32);
        }
        let frame = vec![0xaau8; 100];
        let q = port.deliver(&mut m, &frame, &flow(), 10.0).unwrap();
        let (batch, _) = port.rx_burst(&mut m, &pool, q, 0, 32);
        assert_eq!(batch.len(), 1);
        let c = batch[0];
        assert_eq!(c.len, 100);
        assert_eq!(c.arrival_ns, 10.0);
        // The frame bytes are in simulated memory at data_pa.
        let mut buf = vec![0u8; 100];
        m.mem().read(c.data_pa, &mut buf);
        assert_eq!(buf, frame);
        // Metadata was filled by the driver.
        assert_eq!(pool.meta(c.mbuf).data_len(&mut m, 0).0, 100);
        assert_eq!(pool.meta(c.mbuf).port(&mut m, 0).0, 0);
    }

    #[test]
    fn ddio_places_frame_in_llc() {
        let (mut m, mut pool, mut port) = setup();
        let mut policy = FixedHeadroom(128);
        port.refill(&mut m, &mut pool, 0, 0, &mut policy, 8);
        port.refill(&mut m, &mut pool, 1, 0, &mut policy, 8);
        let frame = vec![1u8; 64];
        let q = port.deliver(&mut m, &frame, &flow(), 0.0).unwrap();
        let (batch, _) = port.rx_burst(&mut m, &pool, q, 0, 8);
        let c = batch[0];
        let slice = m.slice_of(c.data_pa);
        assert!(m.llc_probe(slice, c.data_pa), "DDIO fills the LLC");
    }

    #[test]
    fn no_descriptor_drops_and_counts() {
        let (mut m, _pool, mut port) = setup();
        let frame = vec![0u8; 64];
        let err = port.deliver(&mut m, &frame, &flow(), 0.0).unwrap_err();
        assert_eq!(err, DropReason::NoDescriptor);
        assert_eq!(port.stats().rx_nodesc, 1);
        assert_eq!(port.stats().rx_pkts, 0);
    }

    #[test]
    fn refill_respects_pool_and_target() {
        let (mut m, mut pool, mut port) = setup();
        let mut policy = FixedHeadroom(128);
        let (n, _) = port.refill(&mut m, &mut pool, 0, 0, &mut policy, 16);
        assert_eq!(n, 16);
        assert_eq!(port.posted_count(0), 16);
        // Second refill to the same target posts nothing.
        let (n, _) = port.refill(&mut m, &mut pool, 0, 0, &mut policy, 16);
        assert_eq!(n, 0);
    }

    #[test]
    fn tx_recycles_buffers() {
        let (mut m, mut pool, mut port) = setup();
        let mut policy = FixedHeadroom(128);
        port.refill(&mut m, &mut pool, 0, 0, &mut policy, 4);
        port.refill(&mut m, &mut pool, 1, 0, &mut policy, 4);
        let before = pool.available();
        let frame = vec![7u8; 200];
        let q = port.deliver(&mut m, &frame, &flow(), 0.0).unwrap();
        let (batch, _) = port.rx_burst(&mut m, &pool, q, 0, 4);
        let c = batch[0];
        port.tx_burst(&mut m, &mut pool, 0, &[TxDesc::echo(&c)]);
        assert_eq!(pool.available(), before + 1);
        let s = port.stats();
        assert_eq!(s.tx_pkts, 1);
        assert_eq!(s.tx_bytes, 200);
    }

    #[test]
    fn fdir_mark_is_delivered() {
        let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(64 << 20));
        let mut pool = MbufPool::create(&mut m, 64, 128, 2048).unwrap();
        let mut fd = FlowDirector::new(2);
        fd.set_rule(
            flow(),
            crate::steering::FdirAction {
                queue: 1,
                mark: Some(777),
            },
        );
        let mut port = Port::new(0, Steering::FlowDirector(fd), 16);
        let mut policy = FixedHeadroom(128);
        port.refill(&mut m, &mut pool, 1, 0, &mut policy, 8);
        let q = port.deliver(&mut m, &[0u8; 64], &flow(), 0.0).unwrap();
        assert_eq!(q, 1);
        let (batch, _) = port.rx_burst(&mut m, &pool, 1, 0, 8);
        assert_eq!(batch[0].mark, Some(777));
    }

    #[test]
    fn queue_exhaustion_limits_throughput() {
        // Keep delivering without polling: after `depth` frames the queue
        // starts dropping — the NIC-side ceiling of Table 3.
        let (mut m, mut pool, mut port) = setup();
        let mut policy = FixedHeadroom(128);
        port.refill(&mut m, &mut pool, 0, 0, &mut policy, 64);
        port.refill(&mut m, &mut pool, 1, 0, &mut policy, 64);
        let mut delivered = 0;
        let mut dropped = 0;
        for i in 0..200u32 {
            let f = FlowTuple::tcp(i, 1, 2, 3);
            match port.deliver(&mut m, &[0u8; 64], &f, 0.0) {
                Ok(_) => delivered += 1,
                Err(_) => dropped += 1,
            }
        }
        assert_eq!(delivered, 128);
        assert_eq!(dropped, 72);
        assert_eq!(port.stats().rx_nodesc, 72);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::steering::{Rss, Steering};
    use llc_sim::machine::MachineConfig;

    fn setup() -> (Machine, MbufPool, Port) {
        let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(64 << 20));
        let pool = MbufPool::create(&mut m, 64, 128, 2048).unwrap();
        let port = Port::new(0, Steering::Rss(Rss::new(1)), 16);
        (m, pool, port)
    }

    fn flow() -> FlowTuple {
        FlowTuple::tcp(0x0a000001, 1234, 0xc0a80001, 80)
    }

    /// Steers `flow()` and delivers `frame` with `fault` applied.
    fn deliver_with(
        port: &mut Port,
        m: &mut Machine,
        frame: &[u8],
        arrival_ns: f64,
        fault: FrameFault,
    ) -> Result<usize, DropReason> {
        let (q, mark) = port.route(&flow());
        port.deliver_routed(m, frame, q, mark, arrival_ns, fault)
            .map(|()| q)
    }

    #[test]
    fn corrupt_frame_dies_at_the_mac() {
        let (mut m, mut pool, mut port) = setup();
        let mut policy = FixedHeadroom(128);
        port.refill(&mut m, &mut pool, 0, 0, &mut policy, 8);
        let fault = FrameFault {
            corrupt: true,
            ..FrameFault::clean()
        };
        let err = deliver_with(&mut port, &mut m, &[0u8; 64], 0.0, fault).unwrap_err();
        assert_eq!(err, DropReason::CrcError);
        assert_eq!(port.stats().rx_crc, 1);
        assert_eq!(port.posted_count(0), 8, "no descriptor consumed");
    }

    #[test]
    fn runt_truncation_counts_as_crc() {
        let (mut m, mut pool, mut port) = setup();
        let mut policy = FixedHeadroom(128);
        port.refill(&mut m, &mut pool, 0, 0, &mut policy, 8);
        let fault = FrameFault {
            truncate_to: Some(MIN_MAC_FRAME - 1),
            ..FrameFault::clean()
        };
        let err = deliver_with(&mut port, &mut m, &[0u8; 64], 0.0, fault).unwrap_err();
        assert_eq!(err, DropReason::CrcError);
        assert_eq!(port.stats().rx_crc, 1);
    }

    #[test]
    fn parseable_truncation_is_delivered_short() {
        let (mut m, mut pool, mut port) = setup();
        let mut policy = FixedHeadroom(128);
        port.refill(&mut m, &mut pool, 0, 0, &mut policy, 8);
        let fault = FrameFault {
            truncate_to: Some(40),
            ..FrameFault::clean()
        };
        let q = deliver_with(&mut port, &mut m, &[0xabu8; 100], 0.0, fault).unwrap();
        let (batch, _) = port.rx_burst(&mut m, &pool, q, 0, 8);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].len, 40, "delivered at the truncated length");
        assert_eq!(port.stats().rx_bytes, 40);
    }

    #[test]
    fn link_down_and_stall_are_counted_separately() {
        let (mut m, mut pool, mut port) = setup();
        let mut policy = FixedHeadroom(128);
        port.refill(&mut m, &mut pool, 0, 0, &mut policy, 8);
        let down = FrameFault {
            link_down: true,
            ..FrameFault::clean()
        };
        let stall = FrameFault {
            stall: true,
            ..FrameFault::clean()
        };
        assert_eq!(
            deliver_with(&mut port, &mut m, &[0u8; 64], 0.0, down),
            Err(DropReason::LinkDown)
        );
        assert_eq!(
            deliver_with(&mut port, &mut m, &[0u8; 64], 1.0, stall),
            Err(DropReason::RxStall)
        );
        let s = port.stats();
        assert_eq!(s.rx_linkdown, 1);
        assert_eq!(s.rx_stall, 1);
        assert_eq!(s.rx_dropped(), 2);
        assert_eq!(s.rx_pkts, 0);
    }

    #[test]
    fn clean_fault_is_transparent() {
        let (mut m, mut pool, mut port) = setup();
        let mut policy = FixedHeadroom(128);
        port.refill(&mut m, &mut pool, 0, 0, &mut policy, 8);
        let q = deliver_with(&mut port, &mut m, &[0u8; 64], 0.0, FrameFault::clean()).unwrap();
        assert_eq!(port.queue_rx_pkts(q), 1);
        assert_eq!(port.stats().rx_dropped(), 0);
    }

    #[test]
    fn ready_ring_backpressure_drops_without_panicking() {
        // Post more descriptors than the ready ring can hold and never
        // poll: deliveries beyond the ring capacity must fail cleanly.
        let (mut m, mut pool, mut port) = setup();
        let mut policy = FixedHeadroom(128);
        port.refill(&mut m, &mut pool, 0, 0, &mut policy, 16);
        let mut ok = 0;
        let mut dropped = 0;
        for i in 0..40 {
            match port.deliver(&mut m, &[0u8; 64], &flow(), i as f64) {
                Ok(_) => ok += 1,
                Err(DropReason::NoDescriptor) => dropped += 1,
                Err(other) => panic!("unexpected drop reason {other:?}"),
            }
        }
        assert_eq!(ok, 16);
        assert_eq!(dropped, 24);
        assert_eq!(port.stats().rx_nodesc, 24);
    }

    #[test]
    fn ready_overrun_when_polling_stops_but_descriptors_remain() {
        // Fill the completion ring, then restock the posted ring without
        // ever polling: the next arrival has a descriptor but nowhere to
        // complete — that is ReadyOverrun, distinct from NoDescriptor.
        let (mut m, mut pool, mut port) = setup();
        let mut policy = FixedHeadroom(128);
        port.refill(&mut m, &mut pool, 0, 0, &mut policy, 16);
        for i in 0..16 {
            port.deliver(&mut m, &[0u8; 64], &flow(), i as f64).unwrap();
        }
        port.refill(&mut m, &mut pool, 0, 0, &mut policy, 16);
        assert_eq!(port.posted_count(0), 16);
        let err = port.deliver(&mut m, &[0u8; 64], &flow(), 20.0).unwrap_err();
        assert_eq!(err, DropReason::ReadyOverrun);
        assert_eq!(port.stats().rx_ready_overrun, 1);
        assert_eq!(port.posted_count(0), 16, "the descriptor stays posted");
    }

    #[test]
    fn injected_ready_block_counts_as_overrun() {
        let (mut m, mut pool, mut port) = setup();
        let mut policy = FixedHeadroom(128);
        port.refill(&mut m, &mut pool, 0, 0, &mut policy, 8);
        let fault = FrameFault {
            ready_blocked: true,
            ..FrameFault::clean()
        };
        let err = deliver_with(&mut port, &mut m, &[0u8; 64], 0.0, fault).unwrap_err();
        assert_eq!(err, DropReason::ReadyOverrun);
        assert_eq!(port.stats().rx_ready_overrun, 1);
        assert_eq!(port.posted_count(0), 8, "no descriptor consumed");
        assert_eq!(port.ready_count(0), 0);
    }

    #[test]
    fn route_then_deliver_routed_matches_deliver() {
        let (mut m, mut pool, mut port) = setup();
        let mut policy = FixedHeadroom(128);
        port.refill(&mut m, &mut pool, 0, 0, &mut policy, 8);
        let (q, mark) = port.route(&flow());
        port.deliver_routed(&mut m, &[0u8; 64], q, mark, 0.0, FrameFault::clean())
            .unwrap();
        let (batch, _) = port.rx_burst(&mut m, &pool, q, 0, 8);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].len, 64);
    }
}

#[cfg(test)]
mod rate_limit_tests {
    use super::*;
    use crate::steering::{Rss, Steering};
    use llc_sim::machine::MachineConfig;

    /// The leaky bucket must admit ~cap/offered of a sustained stream —
    /// not alias to 50 % when the arrival period is just below the gap
    /// (the bug a naive `next_accept = arrival + gap` check had).
    #[test]
    fn rate_limit_converges_to_cap() {
        let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(64 << 20));
        let mut pool = MbufPool::create(&mut m, 4096, 128, 2048).unwrap();
        let mut port = Port::new(0, Steering::Rss(Rss::new(1)), 4096);
        let mut policy = FixedHeadroom(128);
        port.refill(&mut m, &mut pool, 0, 0, &mut policy, 4096);
        // Cap 10 Mpps (gap 100 ns); offer 13 Mpps (period ~76.9 ns).
        port.set_rx_rate_limit(Some(10.0));
        let flow = FlowTuple::tcp(1, 2, 3, 4);
        let mut accepted = 0;
        let n = 4000;
        for i in 0..n {
            let t = i as f64 * 76.923;
            if port.deliver(&mut m, &[0u8; 64], &flow, t).is_ok() {
                accepted += 1;
            }
        }
        let frac = accepted as f64 / n as f64;
        assert!(
            (frac - 10.0 / 13.0).abs() < 0.03,
            "acceptance {frac} should be ~{:.3}",
            10.0 / 13.0
        );
        assert_eq!(port.stats().rx_overrun, n - accepted);
    }

    /// Under the cap, nothing is dropped and bursts are absorbed.
    #[test]
    fn rate_limit_transparent_below_cap() {
        let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(64 << 20));
        let mut pool = MbufPool::create(&mut m, 512, 128, 2048).unwrap();
        let mut port = Port::new(0, Steering::Rss(Rss::new(1)), 512);
        let mut policy = FixedHeadroom(128);
        port.refill(&mut m, &mut pool, 0, 0, &mut policy, 512);
        port.set_rx_rate_limit(Some(10.0));
        let flow = FlowTuple::tcp(1, 2, 3, 4);
        // A burst of 16 back-to-back frames, then spaced arrivals at half
        // the cap.
        for i in 0..16 {
            assert!(port.deliver(&mut m, &[0u8; 64], &flow, i as f64).is_ok());
        }
        for i in 0..100 {
            let t = 10_000.0 + i as f64 * 200.0;
            assert!(port.deliver(&mut m, &[0u8; 64], &flow, t).is_ok());
        }
        assert_eq!(port.stats().rx_overrun, 0);
    }

    /// Lifting the cap restores unlimited acceptance.
    #[test]
    fn rate_limit_can_be_lifted() {
        let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(64 << 20));
        let mut pool = MbufPool::create(&mut m, 256, 128, 2048).unwrap();
        let mut port = Port::new(0, Steering::Rss(Rss::new(1)), 256);
        let mut policy = FixedHeadroom(128);
        port.refill(&mut m, &mut pool, 0, 0, &mut policy, 256);
        port.set_rx_rate_limit(Some(0.001));
        let flow = FlowTuple::tcp(1, 2, 3, 4);
        port.deliver(&mut m, &[0u8; 64], &flow, 0.0).unwrap();
        // Far over the bucket: dropped.
        let mut dropped = 0;
        for i in 1..100 {
            if port.deliver(&mut m, &[0u8; 64], &flow, i as f64).is_err() {
                dropped += 1;
            }
        }
        assert!(dropped > 0);
        port.set_rx_rate_limit(None);
        for i in 0..50 {
            assert!(port
                .deliver(&mut m, &[0u8; 64], &flow, 1e9 + i as f64)
                .is_ok());
        }
    }
}
