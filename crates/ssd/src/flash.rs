//! The flash array simulator: concurrent dies behind serialized channel
//! buses.
//!
//! Each channel has one controller and one NVDDR3 bus (§2.2: "each channel
//! has one independent flash controller... different channels can work
//! independently and concurrently"). Dies on a channel execute array
//! operations (read tR, program tPROG, erase tBERS) in parallel; the bus
//! serializes data transfers at the channel bandwidth (1 GB/s).
//!
//! The simulator is a deterministic discrete-event model over per-resource
//! timelines: each die and each bus tracks when it becomes free, requests
//! are FIFO per resource, and a batch of reads is arbitrated onto each bus
//! in die-completion order (the order a real channel controller would see
//! ready dies). Within a batch, a die's scheduler builds multi-plane
//! senses as an MQSim-style transaction scheduler does: the `r`-th page
//! queued on each of its planes shares its `r`-th sense.

use ecssd_trace::{Span, Stage, Timeline, Tracer};

use crate::fault::{FaultDecision, FaultInjector, FaultPlan};
use crate::stats::{ChannelStats, HealthReport};
use crate::{Bandwidth, PhysPageAddr, SimTime, SsdError, SsdGeometry};

/// NAND operation latencies and channel bus rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashTiming {
    /// Array read latency tR (page sensed into the die's page register), ns.
    pub read_latency_ns: u64,
    /// Array program latency tPROG, ns.
    pub program_latency_ns: u64,
    /// Block erase latency tBERS, ns.
    pub erase_latency_ns: u64,
    /// Channel bus bandwidth (Table 2: NVDDR3, 1 GB/s per channel, §2.2).
    pub channel_bw: Bandwidth,
    /// Command/handshake overhead charged to the bus per transfer, ns.
    pub bus_overhead_ns: u64,
    /// Whether dies execute multi-plane reads: within one batch read, the
    /// `r`-th page queued on each plane of a die shares the die's `r`-th
    /// sense, one tR. Standard on modern NAND and modeled by MQSim;
    /// essential for hiding tR behind the channel bus when several
    /// candidate rows land on one die.
    pub multiplane_reads: bool,
    /// Read-retry probability per page read (fault injection). Marginal
    /// cells occasionally fail the first sense and need a re-read with
    /// shifted reference voltages; the retry charges one extra tR.
    /// Deterministic per (address, retry counter) so runs are reproducible.
    pub read_retry_prob: f64,
}

impl FlashTiming {
    /// Retry-ladder cap: a marginal page is re-sensed at most this many
    /// times (with shifted reference voltages) before the controller gives
    /// up on the ladder. Senses that exhaust the ladder are counted
    /// separately as capped-out ([`FlashSim::capped_senses`]).
    pub const MAX_READ_RETRIES: u64 = 4;

    /// Timing matched to the paper's device model: 1 GB/s channels and die
    /// read latency low enough that 8 dies per channel keep the bus the
    /// binding resource (sustained die throughput 8×4 KB / 25 µs
    /// ≈ 1.3 GB/s > 1 GB/s), with multi-plane reads enabled.
    pub fn paper_default() -> Self {
        FlashTiming {
            read_latency_ns: 25_000,
            program_latency_ns: 300_000,
            erase_latency_ns: 2_000_000,
            channel_bw: Bandwidth::from_gbps(1.0),
            bus_overhead_ns: 100,
            multiplane_reads: true,
            read_retry_prob: 0.0,
        }
    }

    /// Same timing with multi-plane reads disabled (ablation).
    pub fn single_plane() -> Self {
        FlashTiming {
            multiplane_reads: false,
            ..Self::paper_default()
        }
    }

    /// Same timing with read-retry fault injection at probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN or outside `[0.0, 1.0]` (NaN is rejected
    /// explicitly, not by accident of comparison).
    pub fn with_read_retries(mut self, p: f64) -> Self {
        assert!(!p.is_nan(), "retry probability must not be NaN");
        assert!((0.0..=1.0).contains(&p), "invalid retry probability {p}");
        self.read_retry_prob = p;
        self
    }

    /// Bus time for one page of `page_bytes`.
    pub fn page_transfer_ns(&self, page_bytes: usize) -> u64 {
        self.channel_bw.transfer_ns(page_bytes as u64) + self.bus_overhead_ns
    }
}

/// Completion record of a single page read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageReadResult {
    /// The address read.
    pub addr: PhysPageAddr,
    /// When the die finished sensing the page (tR done).
    pub die_done: SimTime,
    /// When the bus transfer started.
    pub transfer_start: SimTime,
    /// When the page data arrived at the channel controller.
    pub done: SimTime,
}

/// A page of a batch read that failed: no data crossed the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailedRead {
    /// The page's position in the batch.
    pub index: usize,
    /// The address that failed.
    pub addr: PhysPageAddr,
    /// When the failure was known at the channel controller: when the die
    /// finished the retry ladder (or, for an unretired dead die, its
    /// command timeout), or the issue time for a retired die.
    pub detected: SimTime,
    /// `true` when the page's die is dead, `false` when the page failed its
    /// full retry ladder uncorrectably.
    pub dead_die: bool,
}

impl FailedRead {
    /// The typed error of the failure ([`SsdError::read_fault`]).
    pub fn error(&self) -> SsdError {
        SsdError::read_fault(self.addr, self.dead_die)
    }
}

/// Completion of a batch read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRead {
    /// When every page was either delivered or known failed.
    pub done: SimTime,
    /// The pages that failed, in batch order. Empty, and unallocated, when
    /// every page arrived.
    pub failures: Vec<FailedRead>,
}

impl BatchRead {
    /// True when every page arrived intact.
    pub fn all_ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// One die sense of a batch read: the die it ran on, when it finished,
/// and the batch positions of the pages it served, ascending. A
/// multi-plane sense serves at most one page per plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchSense<'a> {
    /// The die's channel.
    pub channel: usize,
    /// The die within its channel.
    pub die: usize,
    /// When the sense finished (tR, plus any retries, after it started).
    pub done: SimTime,
    /// Batch positions of the pages the sense served, ascending.
    pub pages: &'a [u32],
}

/// A sense of the current batch: its completion time and die, and where
/// its pages sit in `BatchScratch::members`.
#[derive(Debug, Clone, Copy)]
struct Sense {
    done: SimTime,
    die: u32,
    start: u32,
    len: u32,
}

/// Marks a page that is in no sense (it failed).
const NO_SENSE: u32 = u32::MAX;

/// Reusable per-batch scratch for [`FlashSim::read_batch_checked`]: the
/// die scheduler's sense groups and the bus arbiter's per-die streams.
///
/// With multi-plane reads, the `r`-th healthy page queued on each plane of
/// a die rides that die's `r`-th sense (`die_ranks`), so a page can join a
/// sense opened before later senses of its die. A die runs its senses in
/// the order they open and each takes at least tR, so its senses finish
/// in that order. A counting sort over the batch lays each die's pages out
/// contiguously in `members`, sense by sense in opening order and
/// ascending within a sense, so every die's stream of `(sense done, idx)`
/// comes out sorted without a sort. Bus arbitration in
/// `(channel, die_done, idx)` order is then a k-way merge over the (few)
/// dies of each channel. The tables stay allocated across batches and
/// hold the last batch's senses until the next one begins
/// ([`FlashSim::last_batch_senses`]).
#[derive(Debug, Clone, Default)]
struct BatchScratch {
    /// Per flat die: the multi-plane sense of each rank `r` (the `r`-th
    /// healthy page of every plane), as an index into `senses`.
    die_ranks: Vec<Vec<u32>>,
    /// Per (flat die, plane): the healthy pages queued on the plane so far
    /// this batch, which is the rank of the next.
    plane_queued: Vec<u32>,
    /// Per flat die: where its stream starts in `members`.
    die_start: Vec<u32>,
    /// Per flat die: its sensed pages while the batch is scheduled, then
    /// where its stream ends in `members`.
    die_end: Vec<u32>,
    /// Flat dies with a sense this batch, in first-sense order (for
    /// `O(touched)` clearing).
    touched: Vec<u32>,
    /// The batch's senses, in the order they opened.
    senses: Vec<Sense>,
    /// The sense of each page of the batch, or [`NO_SENSE`].
    page_sense: Vec<u32>,
    /// The batch's sensed pages, die by die, then sense by sense, each
    /// sense ascending.
    members: Vec<u32>,
    /// The completion time of each `members` entry's sense.
    member_done: Vec<SimTime>,
    /// Per-die merge cursors (positions in `members`) for the active
    /// channel.
    cursors: Vec<u32>,
}

impl BatchScratch {
    /// Clears the previous batch and prepares for one of `n` pages over
    /// `dies` flat dies of `planes` planes each, sizing the tables on first
    /// use.
    fn begin(&mut self, dies: usize, planes: usize, n: usize) {
        if self.die_ranks.len() < dies {
            self.die_ranks.resize_with(dies, Vec::new);
            self.plane_queued.resize(dies * planes, 0);
            self.die_start.resize(dies, 0);
            self.die_end.resize(dies, 0);
        }
        for &die in &self.touched {
            let die = die as usize;
            self.die_ranks[die].clear();
            self.plane_queued[die * planes..(die + 1) * planes].fill(0);
            self.die_start[die] = 0;
            self.die_end[die] = 0;
        }
        self.touched.clear();
        self.senses.clear();
        self.page_sense.clear();
        self.page_sense.reserve(n);
    }

    /// Opens a sense on `die` finishing at `done` with the next page of the
    /// batch as its first member; returns its index.
    fn open(&mut self, die: usize, done: SimTime) -> u32 {
        let s = self.senses.len() as u32;
        self.senses.push(Sense {
            done,
            die: die as u32,
            start: 0,
            len: 0,
        });
        if self.die_end[die] == 0 {
            self.touched.push(die as u32);
        }
        self.join(s);
        s
    }

    /// Adds the next page of the batch to sense `s`.
    fn join(&mut self, s: u32) {
        let sense = &mut self.senses[s as usize];
        sense.len += 1;
        self.die_end[sense.die as usize] += 1;
        self.page_sense.push(s);
    }

    /// Lays the sensed pages out in `members`, die by die, and sets each
    /// die's stream bounds.
    fn group(&mut self) {
        let mut next = 0u32;
        for &die in &self.touched {
            let die = die as usize;
            self.die_start[die] = next;
            next += self.die_end[die];
            self.die_end[die] = self.die_start[die];
        }
        for sense in &mut self.senses {
            let end = &mut self.die_end[sense.die as usize];
            sense.start = *end;
            *end += sense.len;
            sense.len = 0;
        }
        self.members.clear();
        self.members.resize(next as usize, 0);
        self.member_done.clear();
        self.member_done.resize(next as usize, SimTime::ZERO);
        for (idx, &s) in self.page_sense.iter().enumerate() {
            if s != NO_SENSE {
                let sense = &mut self.senses[s as usize];
                let at = (sense.start + sense.len) as usize;
                self.members[at] = idx as u32;
                self.member_done[at] = sense.done;
                sense.len += 1;
            }
        }
    }

    /// The pages of sense `s`.
    fn pages(&self, s: u32) -> &[u32] {
        let sense = self.senses[s as usize];
        &self.members[sense.start as usize..(sense.start + sense.len) as usize]
    }
}

/// The flash array state: die and bus timelines plus traffic statistics.
#[derive(Debug, Clone)]
pub struct FlashSim {
    geometry: SsdGeometry,
    timing: FlashTiming,
    /// Per-die array timelines, indexed by flat die id.
    dies: Vec<Timeline>,
    /// Per-channel bus timelines.
    buses: Vec<Timeline>,
    /// Per-channel bytes moved over the bus.
    bus_bytes: Vec<u64>,
    /// Per-channel page transfers.
    bus_transfers: Vec<u64>,
    /// Per-channel injected read retries (legacy knob + storm faults).
    read_retries: Vec<u64>,
    /// Senses that exhausted the full retry ladder without succeeding.
    capped_senses: u64,
    /// Reads that failed uncorrectably (checked API only).
    uecc_events: u64,
    /// Reads that targeted a dead die (checked API only).
    dead_die_reads: u64,
    /// Dead dies observed by the checked read path, in detection order.
    detected_dead: Vec<(usize, usize)>,
    /// Active fault injector (None = ideal device).
    injector: Option<FaultInjector>,
    /// Per-channel effective bus bandwidth when any channel is derated
    /// (None = all channels at nominal bandwidth, zero overhead).
    bw_override: Option<Vec<Bandwidth>>,
    /// Per-channel bus time of one page transfer: `transfer_ns` of a page,
    /// kept current with `bw_override`.
    page_ns: Vec<u64>,
    /// Span trace handle (disabled by default).
    tracer: Tracer,
    /// Reusable batch-read scratch (transient; contents are only
    /// meaningful inside one `read_batch_checked` call).
    scratch: BatchScratch,
}

impl FlashSim {
    /// Creates an idle flash array.
    pub fn new(geometry: SsdGeometry, timing: FlashTiming) -> Self {
        FlashSim {
            dies: vec![Timeline::default(); geometry.total_dies()],
            buses: vec![Timeline::default(); geometry.channels],
            bus_bytes: vec![0; geometry.channels],
            bus_transfers: vec![0; geometry.channels],
            read_retries: vec![0; geometry.channels],
            capped_senses: 0,
            uecc_events: 0,
            dead_die_reads: 0,
            detected_dead: Vec::new(),
            injector: None,
            bw_override: None,
            page_ns: vec![timing.page_transfer_ns(geometry.page_bytes); geometry.channels],
            tracer: Tracer::disabled(),
            scratch: BatchScratch::default(),
            geometry,
            timing,
        }
    }

    /// Installs a trace handle; subsequent operations record
    /// [`Stage::FlashRead`] spans for die senses, [`Stage::FlashBus`] spans
    /// for bus occupancy, and [`Stage::FlashProgram`] spans for array
    /// programs, labeled with channel and die.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Records a die-side busy span.
    fn die_span(&self, stage: Stage, addr: PhysPageAddr, start: SimTime, end: SimTime) {
        self.tracer.record(
            Span::new(stage, start, end)
                .on_channel(addr.channel as u32)
                .on_die(addr.die as u32),
        );
    }

    /// The configured geometry.
    pub fn geometry(&self) -> &SsdGeometry {
        &self.geometry
    }

    /// The configured timing.
    pub fn timing(&self) -> &FlashTiming {
        &self.timing
    }

    fn assert_addr(&self, addr: PhysPageAddr) {
        assert!(
            self.geometry.contains(addr),
            "address {addr:?} outside geometry {:?}",
            self.geometry
        );
    }

    /// Array time to sense `addr`, including injected read retries
    /// (deterministic per address; capped at
    /// [`FlashTiming::MAX_READ_RETRIES`]).
    fn sense_ns(&mut self, addr: PhysPageAddr) -> u64 {
        let mut senses = 1u64;
        if self.timing.read_retry_prob > 0.0 {
            let flat = ((addr.channel as u64) << 48)
                ^ ((addr.die as u64) << 40)
                ^ ((addr.plane as u64) << 36)
                ^ ((addr.block as u64) << 16)
                ^ addr.page as u64;
            let mut capped = true;
            for ctr in 0..FlashTiming::MAX_READ_RETRIES {
                let mut x = flat ^ ctr.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                x ^= x >> 31;
                let u = (x >> 11) as f64 / (1u64 << 53) as f64;
                if u < self.timing.read_retry_prob {
                    senses += 1;
                    self.read_retries[addr.channel] += 1;
                } else {
                    capped = false;
                    break;
                }
            }
            if capped {
                self.capped_senses += 1;
            }
        }
        senses * self.timing.read_latency_ns
    }

    /// Total injected read retries so far (all channels).
    pub fn read_retries(&self) -> u64 {
        self.read_retries.iter().sum()
    }

    /// Senses that exhausted the full retry ladder so far.
    pub fn capped_senses(&self) -> u64 {
        self.capped_senses
    }

    /// Installs a fault plan; subsequent checked reads consult it and
    /// derated channels slow every bus transfer. An inert plan (see
    /// [`FaultPlan::is_inert`]) leaves the simulation byte-identical to a
    /// plan-free run.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        for &(channel, die) in &plan.dead_dies {
            assert!(
                channel < self.geometry.channels && die < self.geometry.dies_per_channel,
                "dead die ({channel}, {die}) outside geometry"
            );
        }
        let derated = plan.channel_derate.iter().any(|&(_, f)| f != 1.0);
        self.bw_override = if derated {
            Some(
                (0..self.geometry.channels)
                    .map(|c| {
                        let f = plan.derate_for(c);
                        if f == 1.0 {
                            self.timing.channel_bw
                        } else {
                            self.timing.channel_bw.derate(f)
                        }
                    })
                    .collect(),
            )
        } else {
            None
        };
        let page_bytes = self.geometry.page_bytes as u64;
        self.page_ns = (0..self.geometry.channels)
            .map(|c| self.transfer_ns(c, page_bytes))
            .collect();
        self.injector = Some(FaultInjector::new(plan));
    }

    /// The active fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.injector.as_ref().map(FaultInjector::plan)
    }

    /// Marks a dead die as retired: subsequent reads to it fail fast
    /// instead of burning the retry-ladder timeout on the die. This is
    /// the feedback hook a failure-aware placement layer calls once it
    /// has observed a die failure. No-op without a fault plan.
    pub fn retire_die(&mut self, channel: usize, die: usize) {
        if let Some(injector) = &mut self.injector {
            injector.retire_die(channel, die);
        }
    }

    /// Dead dies observed by checked reads so far, in detection order.
    pub fn detected_dead_dies(&self) -> &[(usize, usize)] {
        &self.detected_dead
    }

    /// True when `addr` currently carries a latent (persistent) UECC under
    /// the active fault plan. Pure probe — does not advance the address's
    /// attempt epoch — so the scrub patrol can inspect pages without
    /// perturbing the transient fault draws. Always `false` without a plan.
    pub fn latent_fault_at(&self, addr: PhysPageAddr) -> bool {
        self.injector
            .as_ref()
            .is_some_and(|i| i.latent_fault_at(addr))
    }

    /// Marks `addr` as rewritten (the scrubber's repair program): clears
    /// its latent fault under the active plan. Returns `true` when a
    /// latent fault was present and is now repaired; `false` for clean
    /// pages or without a fault plan. Timing is the caller's job — the
    /// scrubber charges the repair program via [`FlashSim::program_page`].
    pub fn repair_page(&mut self, addr: PhysPageAddr) -> bool {
        self.injector.as_mut().is_some_and(|i| i.repair(addr))
    }

    /// Flash-level health counters (the device's contribution to a
    /// [`HealthReport`]; pipeline-level recovery counters are merged in by
    /// the accelerator model).
    pub fn health_report(&self) -> HealthReport {
        let degraded = self
            .fault_plan()
            .map(|p| {
                let mut d: Vec<(usize, f64)> = p
                    .channel_derate
                    .iter()
                    .copied()
                    .filter(|&(_, f)| f != 1.0)
                    .collect();
                d.sort_by_key(|&(c, _)| c);
                d
            })
            .unwrap_or_default();
        HealthReport {
            read_retries: self.read_retries.clone(),
            capped_senses: self.capped_senses,
            uecc_events: self.uecc_events,
            dead_die_reads: self.dead_die_reads,
            dead_dies: self.detected_dead.clone(),
            degraded_channels: degraded,
            ..HealthReport::default()
        }
    }

    /// Effective bus occupancy for `bytes` on `channel` (page transfers
    /// include the per-transfer command overhead).
    fn transfer_ns(&self, channel: usize, bytes: u64) -> u64 {
        let bw = match &self.bw_override {
            Some(per_channel) => per_channel[channel],
            None => self.timing.channel_bw,
        };
        bw.transfer_ns(bytes) + self.timing.bus_overhead_ns
    }

    /// Reads one page: array sense on the die, then a bus transfer.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the geometry.
    pub fn read_page(&mut self, addr: PhysPageAddr, issue: SimTime) -> PageReadResult {
        self.assert_addr(addr);
        let die = addr.flat_die(&self.geometry);
        let sense = self.sense_ns(addr);
        let die_done = self.occupy_die(die, addr, issue, sense);
        self.transfer(addr.channel, die_done, self.geometry.page_bytes as u64)
            .into_read_result(addr, die_done)
    }

    /// Reads a batch of pages issued together (e.g. one tile's candidate
    /// weight rows) — the one batch read. Dies sense in parallel from
    /// `sense_issue`; each channel bus serves its dies in die-completion
    /// order, and no page leaves its die's register before
    /// `transfer_gate`. The gate models command-ahead reads that hide tR
    /// behind earlier tiles' transfers (the sensed page waits until the
    /// channel controller and the staging buffer are ready); pass the
    /// issue time for an ungated read.
    ///
    /// With multi-plane reads, each die's scheduler pairs planes the way
    /// a multi-plane command does: the `r`-th page queued on each plane of
    /// a die rides the die's `r`-th sense, so a die senses as many times
    /// as its busiest plane has pages, and each plane's pages are sensed
    /// in submission order. A die runs its senses in the order their
    /// first page was queued.
    ///
    /// ```
    /// use ecssd_ssd::{FlashSim, FlashTiming, PhysPageAddr, SimTime, SsdGeometry};
    /// let mut flash = FlashSim::new(SsdGeometry::tiny(), FlashTiming::paper_default());
    /// let page = |plane, page| PhysPageAddr { channel: 0, die: 0, plane, block: 0, page };
    /// // Two pages on plane 0 and two on plane 1 of one die: two senses.
    /// let batch = flash.read_batch_checked(
    ///     &[page(0, 0), page(0, 1), page(1, 0), page(1, 1)],
    ///     SimTime::ZERO,
    ///     SimTime::ZERO,
    /// );
    /// assert!(batch.all_ok());
    /// assert_eq!(flash.die_busy_ns()[0], 2 * flash.timing().read_latency_ns);
    /// ```
    ///
    /// The installed [`FaultPlan`] (if any) decides each page's outcome;
    /// injected faults are reported in [`BatchRead::failures`], never
    /// panicked on.
    ///
    /// Fault timing model:
    /// * a **retry storm** charges its extra senses on the die, exactly
    ///   like the legacy `read_retry_prob` knob (and a stormed page senses
    ///   alone: it rides no multi-plane sense and takes no plane rank);
    /// * a **UECC** burns the full retry ladder
    ///   (`1 +` [`FlashTiming::MAX_READ_RETRIES`] senses) on the die and is
    ///   detected when the ladder ends; no data crosses the bus;
    /// * an **unretired dead die** burns the same ladder as a command
    ///   timeout — queued reads to that die serialize behind each other's
    ///   timeouts — while a **retired** die fails fast at issue time.
    ///
    /// An inert plan reads exactly like no plan.
    ///
    /// # Panics
    ///
    /// Panics if any address is outside the geometry.
    pub fn read_batch_checked(
        &mut self,
        addrs: &[PhysPageAddr],
        sense_issue: SimTime,
        transfer_gate: SimTime,
    ) -> BatchRead {
        let issue = sense_issue;
        let mut done = issue.max(transfer_gate);
        let mut failures = Vec::new();
        let ladder = FlashTiming::MAX_READ_RETRIES;
        let planes = self.geometry.planes_per_die;
        // Phase 1: the die scheduler, in submission order. A healthy page
        // joins the sense of its plane rank when that sense is open, else
        // opens the die's next sense; a retried or single-plane page
        // always senses alone.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.begin(self.geometry.total_dies(), planes, addrs.len());
        for (idx, &addr) in addrs.iter().enumerate() {
            self.assert_addr(addr);
            let die = addr.flat_die(&self.geometry);
            let decision = match &mut self.injector {
                Some(injector) => injector.decide(addr, ladder),
                None => FaultDecision::Healthy { extra_retries: 0 },
            };
            let extra = match decision {
                FaultDecision::DeadDie { retired } => {
                    self.dead_die_reads += 1;
                    let key = (addr.channel, addr.die);
                    if !self.detected_dead.contains(&key) {
                        self.detected_dead.push(key);
                    }
                    let detected = if retired {
                        // Retired die: the controller answers with a
                        // status-only failure immediately.
                        issue
                    } else {
                        // Unretired die: the read waits out the full
                        // ladder timeout on the (dead) die's command
                        // queue.
                        self.occupy_die(
                            die,
                            addr,
                            issue,
                            (1 + ladder) * self.timing.read_latency_ns,
                        )
                    };
                    failures.push(FailedRead {
                        index: idx,
                        addr,
                        detected,
                        dead_die: true,
                    });
                    scratch.page_sense.push(NO_SENSE);
                    continue;
                }
                FaultDecision::Uncorrectable => {
                    self.uecc_events += 1;
                    self.capped_senses += 1;
                    self.read_retries[addr.channel] += ladder;
                    let detected = self.occupy_die(
                        die,
                        addr,
                        issue,
                        (1 + ladder) * self.timing.read_latency_ns,
                    );
                    failures.push(FailedRead {
                        index: idx,
                        addr,
                        detected,
                        dead_die: false,
                    });
                    scratch.page_sense.push(NO_SENSE);
                    continue;
                }
                FaultDecision::Healthy { extra_retries } => extra_retries,
            };
            let mut sense = self.sense_ns(addr);
            if extra > 0 {
                sense += extra * self.timing.read_latency_ns;
                self.read_retries[addr.channel] += extra;
            }
            // A retried page re-senses with shifted reference voltages and
            // cannot ride a multi-plane sense.
            let grouped = self.timing.multiplane_reads && sense == self.timing.read_latency_ns;
            if grouped {
                let queued = &mut scratch.plane_queued[die * planes + addr.plane];
                let rank = *queued as usize;
                *queued += 1;
                if let Some(&s) = scratch.die_ranks[die].get(rank) {
                    scratch.join(s);
                    continue;
                }
            }
            let die_done = self.occupy_die(die, addr, issue, sense);
            let s = scratch.open(die, die_done);
            if grouped {
                scratch.die_ranks[die].push(s);
            }
        }
        scratch.group();
        // Phase 2: per-channel bus arbitration in die-completion order
        // (ties broken by submission order for determinism), a k-way
        // merge of the channel's die streams. Failed pages transfer
        // nothing.
        let dies_per_channel = self.geometry.dies_per_channel;
        let page_bytes = self.geometry.page_bytes as u64;
        for channel in 0..self.geometry.channels {
            let dies = channel * dies_per_channel..(channel + 1) * dies_per_channel;
            scratch.cursors.clear();
            scratch
                .cursors
                .extend_from_slice(&scratch.die_start[dies.clone()]);
            let ends = &scratch.die_end[dies];
            loop {
                let mut best: Option<(SimTime, u32, usize)> = None;
                for (d, (&pos, &end)) in scratch.cursors.iter().zip(ends).enumerate() {
                    if pos < end {
                        let head = (
                            scratch.member_done[pos as usize],
                            scratch.members[pos as usize],
                        );
                        if best.is_none_or(|(bd, bi, _)| head < (bd, bi)) {
                            best = Some((head.0, head.1, d));
                        }
                    }
                }
                let Some((die_done, _, d)) = best else {
                    break;
                };
                scratch.cursors[d] += 1;
                let grant = self.transfer(channel, die_done.max(transfer_gate), page_bytes);
                done = done.max(grant.done);
            }
        }
        self.scratch = scratch;
        for failure in &failures {
            done = done.max(failure.detected);
        }
        BatchRead { done, failures }
    }

    /// The die senses of the most recent [`FlashSim::read_batch_checked`],
    /// in the order they opened: which die ran each, when it finished, and
    /// which pages of the batch it served. Failed pages are in none. Tests
    /// check the die scheduler's pairing rule through this view.
    pub fn last_batch_senses(&self) -> impl Iterator<Item = BatchSense<'_>> + '_ {
        let dies_per_channel = self.geometry.dies_per_channel;
        self.scratch
            .senses
            .iter()
            .enumerate()
            .map(move |(s, sense)| BatchSense {
                channel: sense.die as usize / dies_per_channel,
                die: sense.die as usize % dies_per_channel,
                done: sense.done,
                pages: self.scratch.pages(s as u32),
            })
    }

    /// Occupies flat die `die` for `ns` of array time from `issue` (or
    /// when it frees up), recording a [`Stage::FlashRead`] span; returns
    /// when it finishes.
    fn occupy_die(&mut self, die: usize, addr: PhysPageAddr, issue: SimTime, ns: u64) -> SimTime {
        let (start, done) = self.dies[die].occupy(issue, ns);
        self.die_span(Stage::FlashRead, addr, start, done);
        done
    }

    /// Programs one page: bus transfer of the data, then array program.
    /// Returns the time the program operation completes.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the geometry.
    pub fn program_page(&mut self, addr: PhysPageAddr, issue: SimTime) -> SimTime {
        self.assert_addr(addr);
        let grant = self.transfer(addr.channel, issue, self.geometry.page_bytes as u64);
        let die = addr.flat_die(&self.geometry);
        let (prog_start, prog_done) =
            self.dies[die].occupy(grant.done, self.timing.program_latency_ns);
        self.die_span(Stage::FlashProgram, addr, prog_start, prog_done);
        prog_done
    }

    /// Erases a block, occupying its die. Returns the completion time.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the geometry.
    pub fn erase_block(&mut self, addr: PhysPageAddr, issue: SimTime) -> SimTime {
        self.assert_addr(addr);
        let die = addr.flat_die(&self.geometry);
        self.dies[die].occupy(issue, self.timing.erase_latency_ns).1
    }

    /// Occupies a channel bus with a raw transfer of `bytes` (used to model
    /// non-page traffic such as homogeneously-stored INT4 tiles streaming
    /// from flash). Returns the completion time.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn bus_transfer(&mut self, channel: usize, bytes: u64, issue: SimTime) -> SimTime {
        assert!(
            channel < self.geometry.channels,
            "channel {channel} out of range"
        );
        if bytes == 0 {
            return issue;
        }
        self.transfer(channel, issue, bytes).done
    }

    /// Occupies `channel`'s bus with `bytes` once it is free and the data
    /// is `ready`: the one bus path every page read, program and raw
    /// stream takes, recorded as a [`Stage::FlashBus`] span.
    fn transfer(&mut self, channel: usize, ready: SimTime, bytes: u64) -> BusGrant {
        let dur = if bytes == self.geometry.page_bytes as u64 {
            self.page_ns[channel]
        } else {
            self.transfer_ns(channel, bytes)
        };
        let (start, done) = self.buses[channel].occupy(ready, dur);
        self.bus_bytes[channel] += bytes;
        self.bus_transfers[channel] += 1;
        self.tracer
            .record(Span::new(Stage::FlashBus, start, done).on_channel(channel as u32));
        BusGrant { start, done }
    }

    /// Snapshot of per-channel traffic statistics.
    pub fn channel_stats(&self) -> ChannelStats {
        ChannelStats::new(
            self.buses.iter().map(Timeline::busy_ns).collect(),
            self.bus_bytes.clone(),
            self.bus_transfers.clone(),
            self.read_retries.clone(),
        )
    }

    /// Per-die accumulated busy time, ns, indexed by flat die id.
    pub fn die_busy_ns(&self) -> Vec<u64> {
        self.dies.iter().map(Timeline::busy_ns).collect()
    }

    /// Clears traffic statistics (timelines are preserved).
    pub fn reset_stats(&mut self) {
        self.dies.iter_mut().for_each(Timeline::reset_busy);
        self.buses.iter_mut().for_each(Timeline::reset_busy);
        self.bus_bytes.iter_mut().for_each(|v| *v = 0);
        self.bus_transfers.iter_mut().for_each(|v| *v = 0);
        self.read_retries.iter_mut().for_each(|v| *v = 0);
        self.capped_senses = 0;
        self.uecc_events = 0;
        self.dead_die_reads = 0;
    }
}

/// A bus reservation.
#[derive(Debug, Clone, Copy)]
struct BusGrant {
    start: SimTime,
    done: SimTime,
}

impl BusGrant {
    fn into_read_result(self, addr: PhysPageAddr, die_done: SimTime) -> PageReadResult {
        PageReadResult {
            addr,
            die_done,
            transfer_start: self.start,
            done: self.done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(channel: usize, die: usize, page: usize) -> PhysPageAddr {
        PhysPageAddr {
            channel,
            die,
            plane: 0,
            block: 0,
            page,
        }
    }

    fn sim() -> FlashSim {
        FlashSim::new(SsdGeometry::tiny(), FlashTiming::paper_default())
    }

    /// A fault-free batch: every page's read record, in submission order.
    struct Batch {
        reads: Vec<PageReadResult>,
        done: SimTime,
    }

    /// An ungated batch read whose pages must all arrive. Each page's
    /// sense comes from [`FlashSim::last_batch_senses`]; its transfer is
    /// the traced bus span it was granted, a channel granting its pages in
    /// `(die_done, idx)` order.
    fn read(f: &mut FlashSim, addrs: &[PhysPageAddr], issue: SimTime) -> Batch {
        let tracer = Tracer::enabled();
        f.set_tracer(tracer.clone());
        let checked = f.read_batch_checked(addrs, issue, issue);
        f.set_tracer(Tracer::disabled());
        assert!(checked.all_ok(), "unexpected faults {:?}", checked.failures);
        let mut die_done = vec![SimTime::ZERO; addrs.len()];
        for sense in f.last_batch_senses() {
            for &p in sense.pages {
                die_done[p as usize] = sense.done;
            }
        }
        let spans = tracer.spans();
        let mut reads = vec![None; addrs.len()];
        for channel in 0..f.geometry.channels {
            let mut order: Vec<usize> = (0..addrs.len())
                .filter(|&i| addrs[i].channel == channel)
                .collect();
            order.sort_by_key(|&i| (die_done[i], i));
            let bus = spans
                .iter()
                .filter(|s| s.stage == Stage::FlashBus && s.channel == Some(channel as u32));
            for (&i, span) in order.iter().zip(bus) {
                reads[i] = Some(PageReadResult {
                    addr: addrs[i],
                    die_done: die_done[i],
                    transfer_start: span.start,
                    done: span.end,
                });
            }
        }
        Batch {
            reads: reads
                .into_iter()
                .map(|r| r.expect("one bus span per page"))
                .collect(),
            done: checked.done,
        }
    }

    #[test]
    fn single_read_latency_is_sense_plus_transfer() {
        let mut f = sim();
        let t = f.timing;
        let r = f.read_page(addr(0, 0, 0), SimTime::ZERO);
        assert_eq!(r.die_done.as_ns(), t.read_latency_ns);
        assert_eq!(r.transfer_start, r.die_done);
        assert_eq!(r.done.as_ns(), t.read_latency_ns + t.page_transfer_ns(4096));
    }

    #[test]
    fn same_die_same_plane_reads_serialize_on_the_die() {
        let mut f = sim();
        let t = f.timing;
        // Both reads hit plane 0 of die 0: no multi-plane grouping.
        let batch = read(&mut f, &[addr(0, 0, 0), addr(0, 0, 1)], SimTime::ZERO);
        let first = &batch.reads[0];
        let second = &batch.reads[1];
        assert_eq!(second.die_done.as_ns(), 2 * t.read_latency_ns);
        assert!(second.transfer_start >= first.done);
    }

    #[test]
    fn multiplane_reads_share_one_sense() {
        let mut f = sim();
        let t = f.timing;
        let a = PhysPageAddr {
            channel: 0,
            die: 0,
            plane: 0,
            block: 0,
            page: 0,
        };
        let b = PhysPageAddr {
            channel: 0,
            die: 0,
            plane: 1,
            block: 0,
            page: 0,
        };
        let batch = read(&mut f, &[a, b], SimTime::ZERO);
        // Different planes of one die: one tR covers both pages.
        assert_eq!(batch.reads[0].die_done, batch.reads[1].die_done);
        assert_eq!(batch.reads[0].die_done.as_ns(), t.read_latency_ns);
        // A third read to an already-used plane starts a new sense group.
        let c = PhysPageAddr {
            channel: 0,
            die: 0,
            plane: 0,
            block: 0,
            page: 1,
        };
        let batch2 = read(&mut f, &[a, b, c], SimTime::ZERO);
        assert!(batch2.reads[2].die_done > batch2.reads[0].die_done);
    }

    #[test]
    fn each_plane_rank_shares_one_sense() {
        let mut f = sim();
        let t = f.timing;
        let page = |plane, page| PhysPageAddr {
            channel: 0,
            die: 0,
            plane,
            block: 0,
            page,
        };
        // Plane 0's two pages queue ahead of plane 1's: the first page of
        // each plane shares the first sense, the second of each the
        // second, although plane 1's first page is not adjacent to plane
        // 0's.
        let batch = read(
            &mut f,
            &[page(0, 0), page(0, 1), page(1, 0), page(1, 1)],
            SimTime::ZERO,
        );
        let tr = t.read_latency_ns;
        let done: Vec<u64> = batch.reads.iter().map(|r| r.die_done.as_ns()).collect();
        assert_eq!(done, vec![tr, 2 * tr, tr, 2 * tr]);
        assert_eq!(f.die_busy_ns()[0], 2 * tr);
        let senses: Vec<Vec<u32>> = f.last_batch_senses().map(|s| s.pages.to_vec()).collect();
        assert_eq!(senses, vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn single_plane_timing_disables_grouping() {
        let mut f = FlashSim::new(SsdGeometry::tiny(), FlashTiming::single_plane());
        let t = *f.timing();
        let a = PhysPageAddr {
            channel: 0,
            die: 0,
            plane: 0,
            block: 0,
            page: 0,
        };
        let b = PhysPageAddr {
            channel: 0,
            die: 0,
            plane: 1,
            block: 0,
            page: 0,
        };
        let batch = read(&mut f, &[a, b], SimTime::ZERO);
        assert_eq!(batch.reads[1].die_done.as_ns(), 2 * t.read_latency_ns);
    }

    #[test]
    fn different_dies_sense_in_parallel_and_share_the_bus() {
        let mut f = sim();
        let t = f.timing;
        let batch = read(&mut f, &[addr(0, 0, 0), addr(0, 1, 0)], SimTime::ZERO);
        // Both dies finish sensing at tR; transfers serialize on the bus.
        assert_eq!(batch.reads[0].die_done.as_ns(), t.read_latency_ns);
        assert_eq!(batch.reads[1].die_done.as_ns(), t.read_latency_ns);
        let xfer = t.page_transfer_ns(4096);
        assert_eq!(batch.done.as_ns(), t.read_latency_ns + 2 * xfer);
    }

    #[test]
    fn different_channels_are_fully_parallel() {
        let mut f = sim();
        let t = f.timing;
        let batch = read(&mut f, &[addr(0, 0, 0), addr(1, 0, 0)], SimTime::ZERO);
        let expect = t.read_latency_ns + t.page_transfer_ns(4096);
        assert_eq!(batch.reads[0].done.as_ns(), expect);
        assert_eq!(batch.reads[1].done.as_ns(), expect);
    }

    #[test]
    fn bus_is_granted_in_die_completion_order() {
        let mut f = sim();
        // Two reads on die 0 (second finishes at 2*tR) and one on die 1
        // (finishes at tR): the die-1 read must get the bus before the
        // second die-0 read even though it was submitted last.
        let batch = read(
            &mut f,
            &[addr(0, 0, 0), addr(0, 0, 1), addr(0, 1, 0)],
            SimTime::ZERO,
        );
        assert!(batch.reads[2].transfer_start < batch.reads[1].transfer_start);
    }

    #[test]
    fn batch_grant_order_matches_explicit_sort_reference() {
        // Regression pin for the k-way merge in `read_batch_checked`: a
        // channel grants its pages in ascending (die_done, submission
        // index), exact die-completion ties broken by submission index,
        // and its bus never idles while a sensed page waits. The batch is
        // submitted scrambled and includes deliberate ties: dies 0 and 1
        // of channel 0 both sense their first page starting idle, so both
        // finish at exactly tR.
        let mut f = sim();
        let batch = read(
            &mut f,
            &[
                addr(1, 0, 0), // idx 0: other channel, independent bus
                addr(0, 1, 0), // idx 1: ties with idx 2 at die_done = tR
                addr(0, 0, 0), // idx 2: die 0 first read, done at tR
                addr(0, 0, 1), // idx 3: die 0 second read, done at 2*tR
            ],
            SimTime::ZERO,
        );
        assert_eq!(batch.reads[1].die_done, batch.reads[2].die_done);
        let channels = f.geometry.channels;
        for channel in 0..channels {
            // The reference: explicitly sort this channel's reads by
            // (die_done, submission index).
            let mut reference: Vec<usize> = (0..batch.reads.len())
                .filter(|&i| batch.reads[i].addr.channel == channel)
                .collect();
            reference.sort_by_key(|&i| (batch.reads[i].die_done, i));
            // Along the reference order each transfer starts as soon as
            // its page is sensed and the previous transfer is done.
            let mut bus_free = SimTime::ZERO;
            for &i in &reference {
                let r = &batch.reads[i];
                assert_eq!(
                    r.transfer_start,
                    r.die_done.max(bus_free),
                    "channel {channel}: idx {i} was not granted in (die_done, idx) order"
                );
                bus_free = r.done;
            }
        }
    }

    #[test]
    fn channel_stats_accumulate() {
        let mut f = sim();
        let t = f.timing;
        read(
            &mut f,
            &[addr(0, 0, 0), addr(0, 1, 0), addr(1, 0, 0)],
            SimTime::ZERO,
        );
        let stats = f.channel_stats();
        assert_eq!(stats.bytes()[0], 2 * 4096);
        assert_eq!(stats.bytes()[1], 4096);
        assert_eq!(stats.busy_ns()[0], 2 * t.page_transfer_ns(4096));
        assert_eq!(stats.transfers()[2], 0);
        f.reset_stats();
        assert_eq!(f.channel_stats().bytes()[0], 0);
    }

    #[test]
    fn program_transfers_then_programs() {
        let mut f = sim();
        let t = f.timing;
        let done = f.program_page(addr(2, 1, 0), SimTime::ZERO);
        assert_eq!(
            done.as_ns(),
            t.page_transfer_ns(4096) + t.program_latency_ns
        );
    }

    #[test]
    fn erase_occupies_the_die() {
        let mut f = sim();
        let t = f.timing;
        let done = f.erase_block(addr(0, 0, 0), SimTime::ZERO);
        assert_eq!(done.as_ns(), t.erase_latency_ns);
        // A read on the same die waits for the erase.
        let r = f.read_page(addr(0, 0, 0), SimTime::ZERO);
        assert_eq!(r.die_done.as_ns(), t.erase_latency_ns + t.read_latency_ns);
    }

    #[test]
    fn raw_bus_transfer_interferes_with_reads() {
        let mut f = sim();
        let t = f.timing;
        // Stream 64 KB over channel 0's bus, then read a page on it.
        let stream_done = f.bus_transfer(0, 65_536, SimTime::ZERO);
        let r = f.read_page(addr(0, 0, 0), SimTime::ZERO);
        // Sense overlaps the stream, but the page transfer waits for it.
        assert!(r.transfer_start >= stream_done);
        assert_eq!(r.die_done.as_ns(), t.read_latency_ns);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut f = sim();
        let b = read(&mut f, &[], SimTime::from_ns(5));
        assert_eq!(b.done, SimTime::from_ns(5));
        assert!(b.reads.is_empty());
    }

    #[test]
    #[should_panic(expected = "outside geometry")]
    fn out_of_range_address_panics() {
        let mut f = sim();
        f.read_page(addr(9, 0, 0), SimTime::ZERO);
    }

    #[test]
    fn inert_fault_plan_is_byte_identical_to_no_plan() {
        let addrs = [addr(0, 0, 0), addr(0, 1, 0), addr(1, 0, 0), addr(0, 0, 1)];
        let mut plain = sim();
        let baseline = plain.read_batch_checked(&addrs, SimTime::ZERO, SimTime::ZERO);
        let mut faulty = sim();
        faulty.set_fault_plan(FaultPlan::with_seed(7));
        let plain_senses: Vec<_> = plain
            .last_batch_senses()
            .map(|s| (s.done, s.pages.to_vec()))
            .collect();
        let checked = faulty.read_batch_checked(&addrs, SimTime::ZERO, SimTime::ZERO);
        assert!(checked.all_ok());
        assert_eq!(checked, baseline);
        let faulty_senses: Vec<_> = faulty
            .last_batch_senses()
            .map(|s| (s.done, s.pages.to_vec()))
            .collect();
        assert_eq!(faulty_senses, plain_senses);
        assert_eq!(plain.channel_stats(), faulty.channel_stats());
        assert!(faulty.health_report().is_clean());
    }

    #[test]
    fn uecc_burns_full_ladder_and_transfers_nothing() {
        let mut f = sim();
        let t = f.timing;
        f.set_fault_plan(FaultPlan::with_seed(3).with_uecc(1.0));
        let checked = f.read_batch_checked(&[addr(0, 0, 0)], SimTime::ZERO, SimTime::ZERO);
        let [failure] = checked.failures[..] else {
            panic!("expected one failure, got {:?}", checked.failures);
        };
        assert!(!failure.dead_die, "expected UECC, got {failure:?}");
        assert_eq!(
            failure.detected.as_ns(),
            (1 + FlashTiming::MAX_READ_RETRIES) * t.read_latency_ns
        );
        assert_eq!(checked.done, failure.detected);
        assert_eq!(f.channel_stats().bytes()[0], 0);
        let health = f.health_report();
        assert_eq!(health.uecc_events, 1);
        assert_eq!(health.capped_senses, 1);
        assert_eq!(health.read_retries[0], FlashTiming::MAX_READ_RETRIES);
    }

    #[test]
    fn dead_die_times_out_until_retired_then_fails_fast() {
        let mut f = sim();
        let t = f.timing;
        f.set_fault_plan(FaultPlan::with_seed(1).with_dead_die(0, 1));
        let first = f.read_batch_checked(&[addr(0, 1, 0)], SimTime::ZERO, SimTime::ZERO);
        let ladder_ns = (1 + FlashTiming::MAX_READ_RETRIES) * t.read_latency_ns;
        assert!(first.failures[0].dead_die);
        assert_eq!(first.failures[0].detected.as_ns(), ladder_ns);
        assert_eq!(f.detected_dead_dies(), &[(0, 1)]);
        // Retire: the next read fails at issue time instead of timing out.
        f.retire_die(0, 1);
        let issue = SimTime::from_ns(ladder_ns);
        let second = f.read_batch_checked(&[addr(0, 1, 1)], issue, issue);
        assert!(second.failures[0].dead_die);
        assert_eq!(second.failures[0].detected, issue);
        assert_eq!(f.health_report().dead_die_reads, 2);
        // Healthy dies on the same channel still serve reads.
        let third = f.read_batch_checked(&[addr(0, 0, 0)], issue, issue);
        assert!(third.all_ok());
    }

    #[test]
    fn channel_derate_slows_only_that_channel() {
        let mut plain = sim();
        let base0 = plain.read_page(addr(0, 0, 0), SimTime::ZERO);
        let base1 = plain.read_page(addr(1, 0, 0), SimTime::ZERO);
        let mut f = sim();
        f.set_fault_plan(FaultPlan::with_seed(1).with_channel_derate(0, 0.5));
        let slow = f.read_page(addr(0, 0, 0), SimTime::ZERO);
        let normal = f.read_page(addr(1, 0, 0), SimTime::ZERO);
        assert!(slow.done > base0.done, "derated channel must be slower");
        assert_eq!(
            normal.done, base1.done,
            "other channels keep nominal bandwidth"
        );
        assert_eq!(f.health_report().degraded_channels, vec![(0, 0.5)]);
    }

    #[test]
    fn retry_storm_charges_extra_senses() {
        let mut f = sim();
        f.set_fault_plan(FaultPlan::with_seed(11).with_retry_storms(1.0));
        let checked = f.read_batch_checked(&[addr(0, 0, 0)], SimTime::ZERO, SimTime::ZERO);
        assert!(checked.all_ok());
        assert!(
            f.read_retries() >= 1,
            "storm must charge at least one retry"
        );
        assert!(f.read_retries() <= FlashTiming::MAX_READ_RETRIES);
    }

    #[test]
    fn checked_reads_replay_identically_for_same_seed() {
        let addrs: Vec<PhysPageAddr> = (0..16).map(|i| addr(i % 4, (i / 4) % 2, i)).collect();
        let run = |seed: u64| {
            let mut f = sim();
            f.set_fault_plan(
                FaultPlan::with_seed(seed)
                    .with_uecc(0.3)
                    .with_retry_storms(0.3)
                    .with_dead_die(2, 0),
            );
            let checked = f.read_batch_checked(&addrs, SimTime::ZERO, SimTime::ZERO);
            let senses: Vec<_> = f.last_batch_senses().collect();
            (
                format!("{:?} {senses:?}", checked.failures),
                checked.done,
                f.health_report(),
            )
        };
        let (a_reads, a_done, a_health) = run(42);
        let (b_reads, b_done, b_health) = run(42);
        assert_eq!(a_reads, b_reads);
        assert_eq!(a_done, b_done);
        assert_eq!(a_health, b_health);
        let (c_reads, _, _) = run(43);
        assert_ne!(a_reads, c_reads, "different seeds should differ somewhere");
    }
}
