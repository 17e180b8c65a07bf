//! SSD mode: the device as a conventional SSD (§4.1: "in SSD mode, the
//! working principle is very similar to the conventional SSD product").
//!
//! ```text
//! cargo run --example ssd_mode
//! ```
//!
//! Fills part of the device, overwrites a hot working set until garbage
//! collection kicks in, and reports queue latencies, GC activity and wear.

use ecssd::ssd::{SimTime, SsdConfig, SsdDevice, SsdError};
use ecssd::trace::percentile_ns;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut ssd = SsdDevice::new(SsdConfig::tiny());
    let logical_pages = ssd.ftl().logical_pages();
    println!(
        "device: {} channels, {} logical pages of {} B",
        ssd.config().geometry.channels,
        logical_pages,
        ssd.config().geometry.page_bytes
    );

    // 1. Sequential fill of 60% of the logical space.
    let fill = logical_pages * 6 / 10;
    let mut t = SimTime::ZERO;
    for lpn in (0..fill).step_by(16) {
        let pages = 16.min(fill - lpn);
        t = ssd.host_write(lpn, pages, t)?;
    }
    println!("sequential fill of {fill} pages finished at {t}");

    // 2. Hammer a hot working set with overwrites until GC runs.
    let hot: Vec<u64> = (0..64u64).map(|i| i * 3).collect();
    for _round in 0..24 {
        for &lpn in &hot {
            t = ssd.host_write(lpn, 1, t)?;
        }
    }
    let gc = ssd.ftl().gc_totals();
    let wear = ssd.ftl().wear();
    println!(
        "after overwrite churn: GC moved {} pages / erased {} blocks; wear max {} erases (mean {:.2})",
        gc.moved_pages, gc.erased_blocks, wear.max_erases, wear.mean_erases
    );

    // 3. A burst of random single-page reads, all arriving at `t`: they
    // queue on the dies, the channels and the host link.
    let mut latencies = (0..64u64)
        .map(|i| Ok(ssd.host_read((i * 37) % fill, 1, t)?.saturating_since(t)))
        .collect::<Result<Vec<u64>, SsdError>>()?;
    latencies.sort_unstable();
    println!(
        "random-read burst of {} requests: mean latency {:.1} us, p50 {:.1} us, p99 {:.1} us",
        latencies.len(),
        latencies.iter().sum::<u64>() as f64 / latencies.len() as f64 / 1e3,
        percentile_ns(&latencies, 0.5) / 1e3,
        percentile_ns(&latencies, 0.99) / 1e3,
    );

    // 4. Channel utilization of the whole episode.
    let stats = ssd.flash().channel_stats();
    println!(
        "flash traffic: {:.1} MB over {} channels, balance {:.2}",
        stats.bytes().iter().sum::<u64>() as f64 / 1e6,
        stats.channels(),
        stats.imbalance().balance(),
    );
    Ok(())
}
