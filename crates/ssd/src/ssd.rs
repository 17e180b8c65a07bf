//! The assembled SSD device: flash array + FTL + DRAM + data buffer + host
//! interface, with the conventional *SSD-mode* command path (§4.1: "in SSD
//! mode, the working principle is very similar to the conventional SSD
//! product").

use crate::{
    AllocationPolicy, Dram, FlashSim, FlashTiming, Ftl, HostInterface, JournalConfig,
    JournalRecord, MetadataJournal, PhysPageAddr, PingPongBuffer, RecoveryReport, ScrubReport,
    SimTime, SsdError, SsdGeometry,
};

/// Full device configuration (Table 2).
#[derive(Debug, Clone)]
pub struct SsdConfig {
    /// Flash array shape.
    pub geometry: SsdGeometry,
    /// Flash timing parameters.
    pub timing: FlashTiming,
    /// LPN → channel policy.
    pub policy: AllocationPolicy,
    /// Overprovisioned fraction of raw capacity.
    pub overprovision: f64,
    /// Device DRAM capacity in bytes.
    pub dram_bytes: u64,
    /// Device DRAM bandwidth in GB/s.
    pub dram_gbps: f64,
    /// Data buffer size in bytes.
    pub buffer_bytes: u64,
    /// Capacity of the DRAM-resident hot candidate-row cache, bytes
    /// (0 disables it; see [`crate::HotRowCache`]).
    pub hot_cache_bytes: u64,
}

impl SsdConfig {
    /// The paper's Table 2 device: 4 TB, 8 channels, 16 GB DRAM at
    /// 12.8 GB/s, 4 MB buffer, PCIe 3.0 ×4.
    pub fn paper_default() -> Self {
        SsdConfig {
            geometry: SsdGeometry::paper_default(),
            timing: FlashTiming::paper_default(),
            policy: AllocationPolicy::Striped,
            overprovision: 0.07,
            dram_bytes: 16 << 30,
            dram_gbps: 12.8,
            buffer_bytes: 4 << 20,
            hot_cache_bytes: 0,
        }
    }

    /// A small configuration for tests.
    pub fn tiny() -> Self {
        SsdConfig {
            geometry: SsdGeometry::tiny(),
            timing: FlashTiming::paper_default(),
            policy: AllocationPolicy::Striped,
            overprovision: 0.25,
            dram_bytes: 64 << 20,
            dram_gbps: 12.8,
            buffer_bytes: 64 << 10,
            hot_cache_bytes: 0,
        }
    }
}

impl Default for SsdConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// An assembled SSD in conventional (SSD-mode) operation.
#[derive(Debug, Clone)]
pub struct SsdDevice {
    flash: FlashSim,
    ftl: Ftl,
    dram: Dram,
    buffer: PingPongBuffer,
    host: HostInterface,
    config: SsdConfig,
    /// Optional FTL metadata journal (crash consistency; off by default).
    journal: Option<MetadataJournal>,
    /// Patrol position of the background scrubber, as an LPN.
    scrub_cursor: u64,
    /// Accumulated scrubber activity.
    scrub_totals: ScrubReport,
}

impl SsdDevice {
    /// Builds the device from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configured DRAM cannot hold the L2P table.
    pub fn new(config: SsdConfig) -> Self {
        let flash = FlashSim::new(config.geometry, config.timing);
        let ftl = Ftl::new(config.geometry, config.policy, config.overprovision);
        let mut dram = Dram::new(
            config.dram_bytes,
            crate::Bandwidth::from_gbps(config.dram_gbps),
        );
        // The L2P table lives in DRAM (§2.2): 4 bytes per logical page.
        if dram.reserve(ftl.logical_pages() * 4).is_err() {
            panic!("L2P table must fit in DRAM");
        }
        SsdDevice {
            flash,
            ftl,
            dram,
            buffer: PingPongBuffer::new(config.buffer_bytes),
            host: HostInterface::pcie3_x4(),
            config,
            journal: None,
            scrub_cursor: 0,
            scrub_totals: ScrubReport::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }

    /// Installs a trace handle into every timed component (flash array,
    /// DRAM interface, host link). All components share the handle's sink.
    pub fn set_tracer(&mut self, tracer: crate::Tracer) {
        self.flash.set_tracer(tracer.clone());
        self.dram.set_tracer(tracer.clone());
        self.host.set_tracer(tracer);
    }

    /// The flash array (for accelerator-mode direct access).
    pub fn flash(&self) -> &FlashSim {
        &self.flash
    }

    /// Mutable flash array.
    pub fn flash_mut(&mut self) -> &mut FlashSim {
        &mut self.flash
    }

    /// The FTL.
    pub fn ftl(&self) -> &Ftl {
        &self.ftl
    }

    /// Mutable FTL.
    pub fn ftl_mut(&mut self) -> &mut Ftl {
        &mut self.ftl
    }

    /// Split borrow for work that reads the FTL while charging DRAM or
    /// flash time (GC accounting, candidate-row reads), which a single
    /// `&mut self` accessor cannot express.
    pub fn split_mut(&mut self) -> (&Ftl, &mut Dram, &mut FlashSim) {
        (&self.ftl, &mut self.dram, &mut self.flash)
    }

    /// The device DRAM.
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Mutable device DRAM.
    pub fn dram_mut(&mut self) -> &mut Dram {
        &mut self.dram
    }

    /// The data buffer.
    pub fn buffer(&self) -> &PingPongBuffer {
        &self.buffer
    }

    /// The host link.
    pub fn host(&self) -> &HostInterface {
        &self.host
    }

    /// Mutable host link.
    pub fn host_mut(&mut self) -> &mut HostInterface {
        &mut self.host
    }

    /// SSD-mode host read of `pages` logical pages starting at `lpn`:
    /// translate, fetch from flash, ship over the host link. Returns the
    /// completion time.
    ///
    /// # Errors
    ///
    /// Propagates translation errors, and the first page (in LPN order)
    /// the installed [`crate::FaultPlan`] failed, as its
    /// [`FailedRead::error`](crate::FailedRead::error).
    pub fn host_read(&mut self, lpn: u64, pages: u64, issue: SimTime) -> Result<SimTime, SsdError> {
        let addrs: Result<Vec<_>, _> = (lpn..lpn + pages).map(|l| self.ftl.translate(l)).collect();
        let batch = self.flash.read_batch_checked(&addrs?, issue, issue);
        if let Some(fault) = batch.failures.first() {
            return Err(fault.error());
        }
        // DRAM staging then host transfer of the whole payload.
        let staged = self
            .dram
            .transfer(pages * self.config.geometry.page_bytes as u64, batch.done);
        Ok(self
            .host
            .transfer(pages * self.config.geometry.page_bytes as u64, staged))
    }

    /// SSD-mode TRIM of `pages` logical pages starting at `lpn`: drops the
    /// mappings so GC can reclaim the space. Completes after a short
    /// command exchange on the host link.
    ///
    /// # Errors
    ///
    /// Propagates FTL errors.
    pub fn host_trim(&mut self, lpn: u64, pages: u64, issue: SimTime) -> Result<SimTime, SsdError> {
        for l in lpn..lpn + pages {
            self.ftl.trim(l)?;
        }
        // TRIM is metadata-only: one command, no data payload.
        Ok(self.host.transfer(64, issue))
    }

    /// SSD-mode host write of `pages` logical pages starting at `lpn`.
    /// Returns the completion time of the last program.
    ///
    /// # Errors
    ///
    /// Propagates allocation errors.
    pub fn host_write(
        &mut self,
        lpn: u64,
        pages: u64,
        issue: SimTime,
    ) -> Result<SimTime, SsdError> {
        let bytes = pages * self.config.geometry.page_bytes as u64;
        let arrived = self.host.transfer(bytes, issue);
        let staged = self.dram.transfer(bytes, arrived);
        let mut done = staged;
        for l in lpn..lpn + pages {
            let addr = self.ftl.write(l)?;
            done = done.max(self.flash.program_page(addr, staged));
        }
        Ok(done)
    }

    // --- Crash consistency: metadata journal, power loss, recovery ---

    /// Enables FTL metadata journaling from the current state. `placements`
    /// (`(row, first_lpn, pages)`) and `epoch` seed the initial checkpoint
    /// so recovery can reconstruct placement versions, not just mappings.
    /// Re-enabling replaces the journal and restarts from a fresh
    /// checkpoint.
    pub fn enable_journal(
        &mut self,
        config: JournalConfig,
        placements: &[(u64, u64, u64)],
        epoch: u64,
    ) {
        self.journal = Some(MetadataJournal::new(config, &self.ftl, placements, epoch));
    }

    /// The metadata journal, if enabled.
    pub fn journal(&self) -> Option<&MetadataJournal> {
        self.journal.as_ref()
    }

    /// Writes `lpn` through the FTL and journals the mutation when a
    /// journal is enabled: a [`JournalRecord::Map`] plus an erase
    /// cross-check if the write triggered GC, flushing at the group-commit
    /// cadence (flush programs are charged on the flash timelines from
    /// `issue`). Returns the new physical address and the completion time
    /// of any journal flush (`issue` when none happened). This is the
    /// write path the accelerator's deploy/update flows must use for the
    /// mutation to be recoverable.
    ///
    /// # Errors
    ///
    /// Propagates [`Ftl::write`] errors; nothing is journaled on failure.
    pub fn write_mapped(
        &mut self,
        lpn: u64,
        issue: SimTime,
    ) -> Result<(PhysPageAddr, SimTime), SsdError> {
        let erased_before = self.ftl.gc_totals().erased_blocks;
        let addr = self.ftl.write(lpn)?;
        let mut done = issue;
        if let Some(j) = self.journal.as_mut() {
            j.append(JournalRecord::Map { lpn });
            let delta = self.ftl.gc_totals().erased_blocks - erased_before;
            if delta > 0 {
                j.append(JournalRecord::Erase {
                    channel: self.ftl.channel_of(lpn),
                    blocks: delta,
                });
            }
            if j.flush_due() {
                done = j.flush(&self.ftl, &mut self.flash, issue);
            }
        }
        Ok((addr, done))
    }

    /// Trims `lpn` through the FTL and journals the unmapping (see
    /// [`SsdDevice::write_mapped`]). Returns the completion time of any
    /// journal flush.
    ///
    /// # Errors
    ///
    /// Propagates [`Ftl::trim`] errors.
    pub fn trim_mapped(&mut self, lpn: u64, issue: SimTime) -> Result<SimTime, SsdError> {
        self.ftl.trim(lpn)?;
        let mut done = issue;
        if let Some(j) = self.journal.as_mut() {
            j.append(JournalRecord::Unmap { lpn });
            if j.flush_due() {
                done = j.flush(&self.ftl, &mut self.flash, issue);
            }
        }
        Ok(done)
    }

    /// Appends a commit group — placement bumps, unmaps the caller already
    /// applied to the FTL, and the sealing epoch commit — and flushes it
    /// durably as one unit. Group atomicity is what makes every durable
    /// prefix consistent: a crash instant inside the group rolls the whole
    /// group back. No-op (returning `issue`) without a journal.
    pub fn journal_commit(&mut self, records: Vec<JournalRecord>, issue: SimTime) -> SimTime {
        let Some(j) = self.journal.as_mut() else {
            return issue;
        };
        for r in records {
            j.append(r);
        }
        j.flush(&self.ftl, &mut self.flash, issue)
    }

    /// Simulates a power cut: all volatile FTL state is lost. With a
    /// journal, the durable log rolls back to the last flush at or before
    /// `survived_appends` total appended records (`None` = crash now,
    /// losing the pending group-commit buffer). The FTL object itself is
    /// left in place but must not be trusted until [`SsdDevice::recover`]
    /// rebuilds it — recovery is what models the DRAM loss.
    pub fn power_cut(&mut self, survived_appends: Option<u64>) {
        if let Some(j) = self.journal.as_mut() {
            j.power_cut(survived_appends);
        }
    }

    /// Journaled recovery: replays the durable log on top of the last
    /// checkpoint, swaps the reconstructed FTL in, and charges the
    /// simulated cost (checkpoint stream + journal page reads) on the
    /// flash timelines from `issue`. With `max_epoch = Some(e)` the replay
    /// stops at the last epoch commit `<= e` (the multi-shard rollback
    /// path). The journal itself stays enabled and keeps its durable log,
    /// so recovery can be re-run to an earlier epoch.
    ///
    /// # Errors
    ///
    /// [`SsdError::JournalDisabled`] without a journal; FTL errors if the
    /// log does not replay (a corrupt journal).
    pub fn recover(
        &mut self,
        max_epoch: Option<u64>,
        issue: SimTime,
    ) -> Result<RecoveryReport, SsdError> {
        let Some(j) = self.journal.as_ref() else {
            return Err(SsdError::JournalDisabled);
        };
        let replayed = j.replay(max_epoch)?;
        let (journal_pages_read, read_done) = j.charge_recovery_reads(&mut self.flash, issue);
        let checkpoint_bytes = j.checkpoint_bytes();
        self.ftl = replayed.ftl;
        Ok(RecoveryReport {
            replayed_records: replayed.counts.records,
            replayed_maps: replayed.counts.maps,
            replayed_unmaps: replayed.counts.unmaps,
            replayed_gc_passes: replayed.counts.gc_passes,
            recovered_epoch: replayed.epoch,
            placements: replayed.placements,
            checkpoint_bytes,
            journal_pages_read,
            recovery_ns: read_done.saturating_since(issue),
            mapping_consistent: replayed.consistent,
        })
    }

    // --- Background scrubbing ---

    /// One background scrub pass: patrol-reads up to `max_pages` mapped
    /// pages from the patrol cursor, and repairs every latent-UECC page it
    /// finds by reading its RAID-5 stripe peers (the channel's other dies)
    /// and programming the reconstructed data back. All traffic is charged
    /// on the shared flash timelines from `issue`, so scrubbing contends
    /// with foreground queries — that interference *is* the scrub
    /// overhead. Returns the pass's counters.
    pub fn scrub_pass(&mut self, max_pages: u64, issue: SimTime) -> ScrubReport {
        let mut report = ScrubReport::default();
        let logical = self.ftl.logical_pages();
        if logical == 0 || max_pages == 0 {
            return report;
        }
        let mut t = issue;
        let dies = self.config.geometry.dies_per_channel;
        for _ in 0..logical {
            if report.patrol_reads >= max_pages {
                break;
            }
            let lpn = self.scrub_cursor;
            self.scrub_cursor = (self.scrub_cursor + 1) % logical;
            if !self.ftl.is_mapped(lpn) {
                continue;
            }
            let Ok(addr) = self.ftl.translate(lpn) else {
                continue;
            };
            let patrol = self.flash.read_page(addr, t);
            t = patrol.done;
            report.patrol_reads += 1;
            if !self.flash.latent_fault_at(addr) {
                continue;
            }
            report.latent_found += 1;
            // RAID-5 reconstruction: read the stripe peers on the
            // channel's other dies, then rewrite the page in place (the
            // repair clears the latent fault — retention loss is fixed by
            // a fresh program).
            for peer in 0..dies {
                if peer == addr.die {
                    continue;
                }
                let peer_addr = PhysPageAddr { die: peer, ..addr };
                t = self.flash.read_page(peer_addr, t).done;
                report.peer_reads += 1;
            }
            t = self.flash.program_page(addr, t);
            if self.flash.repair_page(addr) {
                report.repair_programs += 1;
            }
        }
        report.scrub_ns = t.saturating_since(issue);
        self.scrub_totals.merge(&report);
        report
    }

    /// Accumulated scrubber activity since device creation.
    pub fn scrub_totals(&self) -> ScrubReport {
        self.scrub_totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_round_trip() {
        let mut ssd = SsdDevice::new(SsdConfig::tiny());
        let w = ssd.host_write(0, 8, SimTime::ZERO).unwrap();
        assert!(w > SimTime::ZERO);
        let r = ssd.host_read(0, 8, w).unwrap();
        assert!(r > w);
    }

    #[test]
    fn read_of_unwritten_lpn_fails() {
        let mut ssd = SsdDevice::new(SsdConfig::tiny());
        assert!(matches!(
            ssd.host_read(5, 1, SimTime::ZERO),
            Err(SsdError::Unmapped { lpn: 5 })
        ));
    }

    #[test]
    fn host_read_returns_an_injected_fault_as_a_typed_error() {
        let mut ssd = SsdDevice::new(SsdConfig::tiny());
        let w = ssd.host_write(0, 4, SimTime::ZERO).unwrap();
        ssd.flash_mut()
            .set_fault_plan(crate::FaultPlan::with_seed(1).with_uecc(1.0));
        let first = ssd.ftl().translate(0).unwrap();
        let expected = SsdError::Uncorrectable {
            channel: first.channel,
            die: first.die,
        };
        assert_eq!(ssd.host_read(0, 4, w), Err(expected));
    }

    #[test]
    fn sequential_read_uses_all_channels_under_striping() {
        let mut ssd = SsdDevice::new(SsdConfig::tiny());
        let w = ssd.host_write(0, 16, SimTime::ZERO).unwrap();
        ssd.flash_mut().reset_stats();
        ssd.host_read(0, 16, w).unwrap();
        let stats = ssd.flash().channel_stats();
        assert_eq!(
            stats.imbalance().idle_channels,
            0,
            "striping hits every channel"
        );
    }

    #[test]
    fn l2p_table_is_reserved_in_dram() {
        let ssd = SsdDevice::new(SsdConfig::tiny());
        assert!(ssd.dram().reserved_bytes() >= ssd.ftl().logical_pages() * 4);
    }

    #[test]
    fn trim_frees_mappings_for_gc() {
        let mut ssd = SsdDevice::new(SsdConfig::tiny());
        let w = ssd.host_write(0, 16, SimTime::ZERO).unwrap();
        assert_eq!(ssd.ftl().mapped_pages(), 16);
        let t = ssd.host_trim(0, 8, w).unwrap();
        assert!(t > w);
        assert_eq!(ssd.ftl().mapped_pages(), 8);
        // Trimmed LPNs fail reads; surviving ones still work.
        assert!(ssd.host_read(0, 1, t).is_err());
        assert!(ssd.host_read(8, 8, t).is_ok());
    }

    #[test]
    fn queued_reads_report_latencies() {
        let mut ssd = SsdDevice::new(SsdConfig::tiny());
        let w = ssd.host_write(0, 32, SimTime::ZERO).unwrap();
        // A burst of 16 single-page reads arriving together queues up.
        let completions: Vec<SimTime> = (0..16)
            .map(|i| ssd.host_read(i * 2, 1, w).unwrap())
            .collect();
        let mut latencies: Vec<u64> = completions.iter().map(|d| d.saturating_since(w)).collect();
        latencies.sort_unstable();
        assert_eq!(completions.len(), 16);
        assert!(latencies.iter().sum::<u64>() > 0);
        // Queueing: the p99 latency exceeds the fastest request's latency.
        assert!(
            ecssd_trace::percentile_ns(&latencies, 0.99)
                > ecssd_trace::percentile_ns(&latencies, 0.0)
        );
        // Completions are monotone for an in-order queue over one link.
        assert!(completions.windows(2).all(|p| p[0] <= p[1]));
    }

    #[test]
    fn paper_config_capacity() {
        let c = SsdConfig::paper_default();
        assert_eq!(c.geometry.capacity_bytes(), 4 << 40);
        assert_eq!(c.dram_bytes, 16 << 30);
    }

    #[test]
    fn journaled_device_recovers_its_ftl_after_power_cut() {
        let mut ssd = SsdDevice::new(SsdConfig::tiny());
        ssd.enable_journal(JournalConfig::default(), &[], 0);
        let mut t = SimTime::ZERO;
        for lpn in 0..24 {
            let (_, done) = ssd.write_mapped(lpn, t).unwrap();
            t = done;
        }
        t = ssd.trim_mapped(3, t).unwrap();
        t = ssd.journal_commit(vec![JournalRecord::EpochCommit { epoch: 1, rows: 0 }], t);
        let pre_crash = ssd.ftl().clone();
        ssd.power_cut(None);
        let report = ssd.recover(None, t).unwrap();
        assert!(report.mapping_consistent);
        assert_eq!(report.recovered_epoch, 1);
        assert!(report.replayed_records >= 25);
        assert!(report.recovery_ns > 0);
        assert_eq!(ssd.ftl(), &pre_crash, "sealed state recovers exactly");
        assert_eq!(ssd.ftl().mapped_pages(), 23);
    }

    #[test]
    fn unjournaled_recovery_is_an_error() {
        let mut ssd = SsdDevice::new(SsdConfig::tiny());
        ssd.power_cut(None); // harmless no-op
        assert_eq!(
            ssd.recover(None, SimTime::ZERO),
            Err(SsdError::JournalDisabled)
        );
    }

    #[test]
    fn scrub_pass_repairs_latent_pages_before_queries_hit_them() {
        let mut ssd = SsdDevice::new(SsdConfig::tiny());
        let mut t = SimTime::ZERO;
        for lpn in 0..48 {
            t = ssd.host_write(lpn, 1, t).unwrap();
        }
        ssd.flash_mut()
            .set_fault_plan(crate::FaultPlan::with_seed(9).with_latent_uecc(0.08));
        // Count latent pages over the mapped set, then scrub until clean.
        let latent_before: u64 = (0..48)
            .filter(|&l| {
                let addr = ssd.ftl().translate(l).unwrap();
                ssd.flash().latent_fault_at(addr)
            })
            .count() as u64;
        assert!(
            latent_before > 0,
            "seed must plant at least one latent page"
        );
        let mut repaired = 0;
        for _ in 0..4 {
            let pass = ssd.scrub_pass(48, t);
            repaired += pass.repair_programs;
            assert!(pass.scrub_ns > 0, "patrol must occupy flash time");
        }
        assert_eq!(repaired, latent_before, "every latent page repaired once");
        assert!(ssd.scrub_totals().peer_reads > 0, "RAID-5 peers were read");
        for lpn in 0..48 {
            let addr = ssd.ftl().translate(lpn).unwrap();
            assert!(!ssd.flash().latent_fault_at(addr), "LPN {lpn} still bad");
        }
    }

    #[test]
    fn scrub_pass_without_faults_only_patrols() {
        let mut ssd = SsdDevice::new(SsdConfig::tiny());
        let t = ssd.host_write(0, 16, SimTime::ZERO).unwrap();
        let pass = ssd.scrub_pass(8, t);
        assert_eq!(pass.patrol_reads, 8, "bounded by max_pages");
        assert_eq!(pass.latent_found, 0);
        assert_eq!(pass.repair_programs, 0);
        // The cursor advances: the next pass covers the remaining pages.
        let pass2 = ssd.scrub_pass(8, t);
        assert_eq!(pass2.patrol_reads, 8);
        assert_eq!(ssd.scrub_totals().patrol_reads, 16);
    }
}
