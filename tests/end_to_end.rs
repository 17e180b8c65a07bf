//! Cross-crate integration tests: the Table-1 API, the performance machine
//! and the workloads working together.

use ecssd::arch::{Ecssd, EcssdConfig, EcssdMachine, EcssdMode, MachineVariant};
use ecssd::layout::InterleavingStrategy;
use ecssd::screen::{full_classify, topk_recall, ClassifyPrecision, DenseMatrix, ThresholdPolicy};
use ecssd::ssd::SimTime;
use ecssd::workloads::{Benchmark, ComputedWorkload, SampledWorkload, TraceConfig};

fn planted_weights(l: usize, d: usize, seed: u64) -> DenseMatrix {
    let mut w = DenseMatrix::random(l, d, seed);
    for r in 0..l {
        if r % 7 == 2 {
            for v in w.row_mut(r) {
                *v *= 2.5;
            }
        }
    }
    w
}

#[test]
fn api_round_trip_with_mode_switching() {
    let mut dev = Ecssd::new(EcssdConfig::tiny());
    // SSD mode I/O first.
    let t = dev.device_mut().host_write(0, 8, SimTime::ZERO).unwrap();
    dev.device_mut().host_read(0, 8, t).unwrap();
    // Then accelerator mode inference.
    dev.enable();
    assert_eq!(dev.mode(), EcssdMode::Accelerator);
    let weights = planted_weights(512, 64, 3);
    dev.weight_deploy(&weights).unwrap();
    dev.filter_threshold(ThresholdPolicy::TopRatio(0.1))
        .unwrap();
    let x: Vec<f32> = (0..64).map(|i| (i as f32 * 0.17).cos()).collect();
    dev.input_send(&x).unwrap();
    dev.int4_screen().unwrap();
    dev.cfp32_classify(3).unwrap();
    let results = dev.get_results().unwrap();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].top_k.len(), 3);
    // Results are ranked.
    assert!(results[0].top_k[0].value >= results[0].top_k[1].value);
    // Back to SSD mode, device still serves I/O.
    dev.disable();
    dev.device_mut().host_read(0, 4, SimTime::ZERO).unwrap();
}

#[test]
fn screened_predictions_track_brute_force_on_structured_layers() {
    // Screening recall depends on the JL projection draw: per-seed recall
    // here spans ~0.52–0.85 (mean ~0.70, σ ~0.10), so gating a *single*
    // draw on a tight bound is a coin flip (one seed used to land at
    // 0.675 against a 0.7 gate). Instead — same discipline as the
    // projector's inner-product test — require every projection to be
    // clearly better than chance and bound the recall *averaged over
    // projections* (the quantity the paper's accuracy claims are about)
    // at ~3 standard errors below the observed mean.
    let weights = planted_weights(1024, 128, 5);
    let seeds = 8u64;
    let queries = 8;
    let mut mean_recall = 0.0;
    for seed in 0..seeds {
        let mut dev = Ecssd::new(EcssdConfig::tiny());
        dev.enable();
        dev.weight_deploy_seeded(&weights, 0x5eed ^ seed).unwrap();
        let mut total_recall = 0.0;
        for q in 0..queries {
            let x: Vec<f32> = (0..128)
                .map(|i| ((i as f32) * 0.09 + q as f32 * 0.4).sin())
                .collect();
            dev.input_send(&x).unwrap();
            dev.int4_screen().unwrap();
            dev.cfp32_classify(5).unwrap();
            let pred = &dev.get_results().unwrap()[0];
            let reference = full_classify(&weights, &x, ClassifyPrecision::Fp32).unwrap();
            total_recall += topk_recall(&reference, &pred.top_k, 5).recall();
        }
        let per_seed = total_recall / queries as f64;
        // Chance recall for top-5 of 1024 is ~0.005; every projection must
        // clear a weak per-draw floor even if it is an unlucky one.
        assert!(
            per_seed > 0.4,
            "projection seed {seed}: recall {per_seed} not better than chance"
        );
        mean_recall += per_seed / seeds as f64;
    }
    assert!(mean_recall > 0.6, "mean recall over seeds: {mean_recall}");
}

#[test]
fn computed_and_sampled_workloads_drive_the_same_machine() {
    let bench = Benchmark::by_abbrev("GNMT-E32K").unwrap();
    let trace = TraceConfig::paper_default();
    let sampled = SampledWorkload::new(bench, trace);
    let computed = ComputedWorkload::generate(bench, 2048, trace, 17).unwrap();
    let mut machines = [
        EcssdMachine::new(
            EcssdConfig::paper_default(),
            MachineVariant::paper_ecssd(),
            Box::new(sampled),
        )
        .unwrap(),
        EcssdMachine::new(
            EcssdConfig::paper_default(),
            MachineVariant::paper_ecssd(),
            Box::new(computed),
        )
        .unwrap(),
    ];
    for m in &mut machines {
        let r = m.run_window(2, 4).unwrap();
        assert!(r.makespan.as_ns() > 0);
        assert!(r.candidate_rows > 0);
        assert!(r.fp_channel_utilization > 0.0);
    }
}

#[test]
fn ecssd_beats_every_fig8_intermediate_point() {
    use ecssd::arch::DataPlacement;
    use ecssd::float::MacCircuit;
    let bench = Benchmark::by_abbrev("Transformer-W268K").unwrap();
    let run = |variant: MachineVariant| {
        let w = SampledWorkload::new(bench, TraceConfig::paper_default());
        EcssdMachine::new(EcssdConfig::paper_default(), variant, Box::new(w))
            .unwrap()
            .run_window(2, 24)
            .unwrap()
            .ns_per_query()
    };
    let full = run(MachineVariant::paper_ecssd());
    let without_learned = run(MachineVariant {
        interleaving: InterleavingStrategy::Uniform,
        ..MachineVariant::paper_ecssd()
    });
    let without_hetero = run(MachineVariant {
        placement: DataPlacement::Homogeneous,
        ..MachineVariant::paper_ecssd()
    });
    let without_af = run(MachineVariant {
        mac: MacCircuit::Naive,
        ..MachineVariant::paper_ecssd()
    });
    assert!(full < without_learned, "learned interleaving must help");
    assert!(full < without_hetero, "heterogeneous layout must help");
    assert!(full <= without_af, "alignment-free MAC must not hurt");
}
