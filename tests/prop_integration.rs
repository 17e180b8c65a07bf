//! Cross-crate property tests.

use ecssd::arch::{DegradationPolicy, EcssdConfig, EcssdMachine, MachineVariant};
use ecssd::layout::{channel_loads, InterleavingStrategy, TileLayout};
use ecssd::ssd::FaultPlan;
use ecssd::workloads::{Benchmark, SampledWorkload, TraceConfig};
use proptest::prelude::*;

/// Builds a paper-default machine over the W268K trace with `policy`,
/// installs `plan` when given, and runs a short window.
fn faulted_window(
    policy: DegradationPolicy,
    plan: Option<FaultPlan>,
) -> (ecssd::arch::RunReport, Vec<(usize, usize, u64)>) {
    let bench = Benchmark::by_abbrev("Transformer-W268K").unwrap();
    let w = SampledWorkload::new(bench, TraceConfig::paper_default());
    let mut m = EcssdMachine::new(
        EcssdConfig::paper_default(),
        MachineVariant::paper_ecssd().with_degradation(policy),
        Box::new(w),
    )
    .unwrap();
    if let Some(plan) = plan {
        m.set_fault_plan(plan);
    }
    let r = m.run_window(2, 8).unwrap();
    (r, m.skipped().to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every interleaving strategy assigns every row to a valid channel and
    /// the learned strategy never produces a worse row-count balance than
    /// sequential storing.
    #[test]
    fn strategies_produce_valid_assignments(
        n in 16usize..600,
        channels in 2usize..16,
        seed in 0u64..1000,
    ) {
        let predicted: Vec<f32> = (0..n)
            .map(|i| (((i as u64).wrapping_mul(seed + 7) % 101) as f32) + 0.5)
            .collect();
        for strategy in [
            InterleavingStrategy::Sequential,
            InterleavingStrategy::Uniform,
            InterleavingStrategy::Learned(Default::default()),
        ] {
            let layout = strategy.assign_tile(0, 4, 0, &predicted, None, channels);
            prop_assert_eq!(layout.len(), n);
            let counts = layout.channel_row_counts();
            prop_assert_eq!(counts.iter().sum::<usize>(), n);
            if let InterleavingStrategy::Learned(_) = strategy {
                // Snake dealing makes counts differ by at most one.
                let max = counts.iter().max().unwrap();
                let min = counts.iter().min().unwrap();
                prop_assert!(max - min <= 1, "counts {:?}", counts);
            }
        }
    }

    /// Channel loads always sum to the candidate count, for any layout.
    #[test]
    fn loads_conserve_candidates(
        assignment in prop::collection::vec(0u8..8, 1..400),
        picks in prop::collection::vec(any::<prop::sample::Index>(), 0..60),
    ) {
        let layout = TileLayout::from_assignment(assignment.clone(), 8);
        let candidates: Vec<usize> = picks.iter().map(|i| i.index(assignment.len())).collect();
        let loads = channel_loads(&layout, &candidates);
        prop_assert_eq!(loads.iter().sum::<u64>(), candidates.len() as u64);
    }

    /// The machine's makespan never decreases when the candidate ratio
    /// grows (more data must move).
    #[test]
    fn more_candidates_never_run_faster(seed in 0u64..50) {
        let bench = Benchmark::by_abbrev("Transformer-W268K").unwrap();
        let mut times = Vec::new();
        for ratio in [0.05, 0.15] {
            let trace = TraceConfig {
                hotness: ecssd::workloads::HotnessModel::paper_default(seed),
                ..TraceConfig::paper_default().with_candidate_ratio(ratio)
            };
            let w = SampledWorkload::new(bench, trace);
            let mut m = EcssdMachine::new(
                EcssdConfig::paper_default(),
                MachineVariant::paper_ecssd(),
                Box::new(w),
            ).unwrap();
            times.push(m.run_window(1, 8).unwrap().ns_per_query());
        }
        prop_assert!(times[1] > times[0] * 0.99, "{:?}", times);
    }

    /// Same `FaultPlan` seed ⇒ byte-identical `HealthReport`, dropped-row
    /// set, and end-to-end timeline, for every degradation policy.
    #[test]
    fn faulted_runs_replay_byte_identically(
        seed in 0u64..1000,
        uecc in 0.0f64..0.01,
        policy_idx in 0usize..3,
    ) {
        let policy = [
            DegradationPolicy::Retry { max: 2 },
            DegradationPolicy::Reconstruct,
            DegradationPolicy::Skip,
        ][policy_idx];
        let plan = FaultPlan::with_seed(seed)
            .with_uecc(uecc)
            .with_retry_storms(uecc);
        let (ra, da) = faulted_window(policy, Some(plan.clone()));
        let (rb, db) = faulted_window(policy, Some(plan));
        prop_assert_eq!(ra.health.clone(), rb.health.clone());
        prop_assert_eq!(da, db);
        prop_assert_eq!(ra.makespan, rb.makespan);
        prop_assert_eq!(ra, rb);
    }

    /// Fault rate 0.0 (or no plan at all) perturbs nothing: the run is
    /// byte-identical to the fault-free baseline.
    #[test]
    fn inert_plans_do_not_perturb_the_simulation(
        seed in 0u64..1000,
        policy_idx in 0usize..4,
    ) {
        let policy = [
            DegradationPolicy::Fail,
            DegradationPolicy::Retry { max: 3 },
            DegradationPolicy::Reconstruct,
            DegradationPolicy::Skip,
        ][policy_idx];
        let (baseline, _) = faulted_window(DegradationPolicy::Fail, None);
        let inert = FaultPlan::with_seed(seed)
            .with_uecc(0.0)
            .with_retry_storms(0.0);
        prop_assert!(inert.is_inert());
        let (r, dropped) = faulted_window(policy, Some(inert));
        prop_assert_eq!(&r, &baseline);
        prop_assert!(r.health.is_clean());
        prop_assert!(dropped.is_empty());
    }
}
