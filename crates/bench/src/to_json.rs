//! JSON writers for the results `reproduce` (`reproduce_results.json`) and
//! `simulate --json` (one [`RunReport`]) print, and for nothing else.
//!
//! Each struct's writer destructures it without `..`, so a field added to
//! one of these types fails to compile here until it is written. The
//! output keeps the shape these files have always had: a struct is an
//! object with its fields under their Rust names (sorted, as every
//! [`Value::Object`] is), a fieldless enum variant is its name as a
//! string, a newtype is its inner value, a tuple is an array and `None` is
//! `null`.

use ecssd_core::roofline::RooflinePoint;
use ecssd_core::scale::{ScaleOutPlan, ScaleOutRun};
use ecssd_core::{AcceleratorConfig, EcssdConfig, RunReport, TaskKind};
use ecssd_float::{AcceleratorEstimate, AreaPower};
use ecssd_ssd::{
    CacheStats, DieWearReport, FlashTiming, HealthReport, ImbalanceReport, SsdConfig, SsdGeometry,
};
use ecssd_trace::json::Value;
use ecssd_trace::{Bandwidth, SimTime, Stage, StageBreakdown, StageEntry};
use ecssd_workloads::Benchmark;

use crate::experiments::*;

/// A value with a JSON form.
pub trait ToJson {
    /// The value as a JSON tree.
    fn to_json(&self) -> Value;
}

macro_rules! ints {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::Int((*self).into())
            }
        }
    )*};
}
ints!(u32, u64);

impl ToJson for usize {
    fn to_json(&self) -> Value {
        // `usize` is at most 64 bits on every supported target.
        Value::Int(*self as i128)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::Float(*self)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::String(self.clone())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::to_json)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(T::to_json).collect())
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Value {
        Value::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Value {
        Value::Array(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

impl ToJson for SimTime {
    fn to_json(&self) -> Value {
        self.as_ns().to_json()
    }
}

impl ToJson for Bandwidth {
    fn to_json(&self) -> Value {
        self.as_gbps().to_json()
    }
}

/// Fieldless enums: each variant as its name.
macro_rules! unit_enums {
    ($($ty:ident { $($variant:ident),+ $(,)? })*) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Value {
                let name = match self {
                    $($ty::$variant => stringify!($variant),)+
                };
                name.to_json()
            }
        }
    )*};
}

unit_enums! {
    TaskKind { Classification, EmbeddingGather }
    Stage {
        HostLink,
        DramTransfer,
        Int4Screen,
        CandidateSelect,
        FlashRead,
        FlashBus,
        FlashProgram,
        Fp32Mac,
    }
}

/// Structs: each field under its name. The pattern names every field, so
/// a new field must be added here.
macro_rules! objects {
    ($($($seg:ident)::+ { $($field:ident),+ $(,)? })*) => {$(
        impl ToJson for $($seg)::+ {
            fn to_json(&self) -> Value {
                let $($seg)::+ { $($field),+ } = self;
                Value::object([$((stringify!($field), $field.to_json())),+])
            }
        }
    )*};
}

objects! {
    RunReport {
        makespan,
        queries,
        tiles_simulated,
        tiles_total,
        candidate_rows,
        fp_channel_utilization,
        fp_channel_bytes,
        int4_busy_ns,
        fp32_busy_ns,
        dram_busy_ns,
        buffer_stall_ns,
        health,
        cache,
        breakdown,
        task,
    }
    EcssdConfig { ssd, accelerator }
    AcceleratorConfig {
        clock_ghz,
        fp32_lanes,
        int4_lanes,
        int4_weight_buffer,
        fp32_weight_buffer,
        side_buffers,
        batch,
    }
    SsdConfig {
        geometry,
        timing,
        overprovision,
        dram_bytes,
        dram_gbps,
        buffer_bytes,
        hot_cache_bytes,
    }
    SsdGeometry {
        channels,
        dies_per_channel,
        planes_per_die,
        blocks_per_plane,
        pages_per_block,
        page_bytes,
    }
    FlashTiming {
        read_latency_ns,
        program_latency_ns,
        erase_latency_ns,
        channel_bw,
        bus_overhead_ns,
        multiplane_reads,
        read_retry_prob,
    }
    CacheStats {
        hits,
        misses,
        bytes_saved,
        insertions,
        evictions,
        invalidations,
        resident_bytes,
        capacity_bytes,
    }
    DieWearReport { per_die, spread }
    ImbalanceReport { max, mean, idle_channels }
    StageBreakdown { entries, idle_ns, total_ns, dropped_spans }
    StageEntry { stage, spans, busy_ns, attributed_ns }
    RooflinePoint { label, intensity, gflops }
    ScaleOutPlan { categories, devices, per_device }
    ScaleOutRun { plan, per_device_ns, makespan_ns, single_device_ns }
    AcceleratorEstimate { fp32, int4, comparator, scheduler }
    AreaPower { area_um2, power_uw }
    Benchmark { abbrev, model, dataset, categories, hidden }

    common::Window { queries, max_tiles }
    table02_config::Report { config }
    table03_benchmarks::Report { benchmarks }
    table04_area_power::Report { estimate, fits_budget }
    fig01_roofline::Report { points, intensity }
    sec42_alignment_free::Report {
        required_gflops,
        naive_gflops,
        af_gflops,
        lossless_fraction,
        cfp32_vs_fp32_top5,
        top1_match_rate,
        screening_recall5,
        prealign_ms_per_1x1024,
        mac_max_rel_error,
    }
    fig08_breakdown::Report { steps }
    fig08_breakdown::Step {
        name,
        speedup,
        fp_utilization,
        paper_speedup,
        paper_utilization,
    }
    fig09_mac::Report { rows }
    fig09_mac::MacRow {
        circuit,
        area_mm2,
        power_mw,
        area_ratio,
        power_ratio,
        paper_ratios,
    }
    fig10_hetero::Report { points, average_speedup }
    fig10_hetero::RatioPoint { ratio, homogeneous_ns, heterogeneous_ns }
    fig11_access::Report {
        uniform_loads,
        learned_loads,
        uniform_mean_balance,
        learned_mean_balance,
        sampled_tiles,
    }
    fig12_interleaving::Report { rows, learned_over_uniform, learned_over_sequential }
    fig12_interleaving::BenchRow { benchmark, sequential_ns, uniform_ns, learned_ns }
    fig13_end_to_end::Report { columns, average_speedups, genstore_cross_check }
    fig13_end_to_end::BenchColumn { benchmark, ecssd_ns, baseline_ns }
    sec71_scalability::Report { rows, scale_out, executed }
    sec71_scalability::DramRow { dram_gb, max_categories, relative_power }
    sec72_gpu::Report { gpus_needed, single_gpu_power_ratio, multi_gpu_power_ratio }
    sec73_enmc::Report {
        ecssd_gflops_per_dollar,
        enmc_gflops_per_dollar,
        ecssd_gflops_per_watt,
        enmc_gflops_per_watt,
        cost_efficiency_ratio,
        energy_efficiency_ratio,
        area_ratio,
        power_ratio,
    }
    sweep_compensation::Report { points }
    sweep_compensation::WidthPoint { comp_bits, lossless_fraction, lane_area_um2 }
    energy_report::Report { rows }
    energy_report::Row {
        benchmark,
        mean_power_w,
        achieved_gflops,
        gflops_per_watt,
        mj_per_query,
    }
    ablations::Report { axes }
    ablations::Axis { name, points }
    ablations::Point { label, ns_per_query, fp_utilization }
    latency_study::Report { ecssd, baseline }
    latency_study::LoadPoint { load, mean_ms, p99_ms }
    fault_study::Report { window, baseline_ns, sweep, die_study, deterministic }
    fault_study::SweepPoint {
        uecc_rate,
        policy,
        ns_per_query,
        slowdown,
        top1_recall,
        top5_recall,
        candidate_recall,
        uecc_events,
        retried_reads,
        reconstructed_rows,
        skipped_rows,
        unrecovered_rows,
    }
    fault_study::DiePoint {
        interleaving,
        util_fault_free,
        util_dead_die,
        recovery,
        ns_per_query,
        dropped_rows,
    }
}

/// Like the other structs, except that `die_wear` is left out when there
/// is none: only the functional device tracks per-die wear.
impl ToJson for HealthReport {
    fn to_json(&self) -> Value {
        let HealthReport {
            read_retries,
            capped_senses,
            uecc_events,
            dead_die_reads,
            retried_reads,
            reconstructed_rows,
            reconstruction_page_reads,
            skipped_rows,
            unrecovered_rows,
            dead_dies,
            degraded_channels,
            update_programs,
            gc_moved_pages,
            gc_erased_blocks,
            wear_max_erases,
            wear_mean_erases,
            die_wear,
        } = self;
        let mut fields = vec![
            ("read_retries", read_retries.to_json()),
            ("capped_senses", capped_senses.to_json()),
            ("uecc_events", uecc_events.to_json()),
            ("dead_die_reads", dead_die_reads.to_json()),
            ("retried_reads", retried_reads.to_json()),
            ("reconstructed_rows", reconstructed_rows.to_json()),
            (
                "reconstruction_page_reads",
                reconstruction_page_reads.to_json(),
            ),
            ("skipped_rows", skipped_rows.to_json()),
            ("unrecovered_rows", unrecovered_rows.to_json()),
            ("dead_dies", dead_dies.to_json()),
            ("degraded_channels", degraded_channels.to_json()),
            ("update_programs", update_programs.to_json()),
            ("gc_moved_pages", gc_moved_pages.to_json()),
            ("gc_erased_blocks", gc_erased_blocks.to_json()),
            ("wear_max_erases", wear_max_erases.to_json()),
            ("wear_mean_erases", wear_mean_erases.to_json()),
        ];
        if let Some(wear) = die_wear {
            fields.push(("die_wear", wear.to_json()));
        }
        Value::object(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecssd_core::{EcssdMachine, MachineVariant};
    use ecssd_trace::json;
    use ecssd_workloads::{SampledWorkload, TraceConfig};

    /// A `RunReport` written as `simulate --json` writes it reads back with
    /// every field.
    #[test]
    fn run_report_round_trips_through_the_reader() {
        let bench = Benchmark::by_abbrev("XMLCNN-S100M").expect("known benchmark");
        let workload = SampledWorkload::new(bench, TraceConfig::paper_default());
        let mut machine = EcssdMachine::new(
            EcssdConfig::paper_default(),
            MachineVariant::paper_ecssd(),
            Box::new(workload),
        )
        .expect("screener fits DRAM");
        let report = machine.run_window(2, 4).expect("fault-free run");
        let text = report.to_json().to_string_pretty();
        let back = json::parse(&text).expect("the writer's output parses");
        assert_eq!(back, report.to_json());

        let u = |key: &str| back.get(key).and_then(json::Value::as_u64);
        assert_eq!(u("makespan"), Some(report.makespan.as_ns()));
        assert_eq!(u("queries"), Some(2));
        assert_eq!(u("tiles_simulated"), Some(report.tiles_simulated as u64));
        assert_eq!(u("candidate_rows"), Some(report.candidate_rows));
        assert_eq!(
            back.get("fp_channel_utilization")
                .and_then(json::Value::as_f64),
            Some(report.fp_channel_utilization)
        );
        assert_eq!(
            back.get("task").and_then(json::Value::as_str),
            Some("Classification")
        );
        let bytes = back.get("fp_channel_bytes").and_then(json::Value::as_array);
        assert_eq!(
            bytes.map(<[json::Value]>::len),
            Some(report.fp_channel_bytes.len())
        );
        assert_eq!(
            back.get("cache")
                .and_then(|c| c.get("hits"))
                .and_then(json::Value::as_u64),
            Some(report.cache.hits)
        );
        assert!(back.get("health").and_then(|h| h.get("die_wear")).is_none());
        assert!(back.get("breakdown").is_some());
    }
}
