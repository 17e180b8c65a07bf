//! Interleaving study: how the three storing strategies of §5 shape flash
//! channel load and end-to-end throughput.
//!
//! ```text
//! cargo run --example interleaving_study
//! ```

use ecssd::arch::{EcssdConfig, EcssdMachine, MachineVariant};
use ecssd::layout::InterleavingStrategy;
use ecssd::ssd::ImbalanceReport;
use ecssd::workloads::{Benchmark, SampledWorkload, TraceConfig};

fn main() {
    let bench = Benchmark::by_abbrev("GNMT-E32K").expect("known benchmark");
    let trace = TraceConfig::paper_default();

    // --- Throughput under the three strategies --------------------------
    println!("GNMT-E32K, 10% candidates, batch 16 — storing strategies:\n");
    println!(
        "{:<12} {:>12} {:>10} {:>10}",
        "strategy", "ns/query", "FP util", "balance"
    );
    for strategy in [
        InterleavingStrategy::Sequential,
        InterleavingStrategy::Uniform,
        InterleavingStrategy::Learned(Default::default()),
    ] {
        let variant = MachineVariant {
            interleaving: strategy,
            ..MachineVariant::paper_ecssd()
        };
        let workload = SampledWorkload::new(bench, trace);
        let mut machine =
            EcssdMachine::new(EcssdConfig::paper_default(), variant, Box::new(workload))
                .expect("screener fits DRAM");
        let report = machine.run_window(2, 48).expect("fault-free run");
        println!(
            "{:<12} {:>12.0} {:>9.1}% {:>10.2}",
            strategy.label(),
            report.ns_per_query(),
            report.fp_channel_utilization * 100.0,
            report.fp_imbalance().balance(),
        );
    }

    // --- Per-channel loads of one tile (the Fig. 11 view) ---------------
    println!("\nper-channel candidate accesses of one tile:");
    for (label, variant) in [
        (
            "uniform",
            MachineVariant {
                interleaving: InterleavingStrategy::Uniform,
                training_queries: 0,
                ..MachineVariant::paper_ecssd()
            },
        ),
        ("learned", MachineVariant::paper_ecssd()),
    ] {
        let workload = SampledWorkload::new(bench, trace);
        let mut machine =
            EcssdMachine::new(EcssdConfig::paper_default(), variant, Box::new(workload))
                .expect("screener fits DRAM");
        let loads = machine.tile_channel_loads(0, 1);
        let balance = ImbalanceReport::from_loads(&loads).balance();
        println!("  {label:<8} {loads:?}  balance {balance:.2}");
    }
}
