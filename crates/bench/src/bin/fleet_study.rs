//! Fleet-scale serving study: the overload knee under open-loop load.
//!
//! A closed-loop driver can never overload the system it measures; this
//! study drives a replicated [`Fleet`] with a seeded open-loop Poisson
//! arrival process ([`OpenLoopArrivals`]) swept across offered load, and
//! checks the three properties the fleet layer exists for:
//!
//! 1. **Low load** — deadline-aware admission is invisible: zero
//!    latency-sensitive SLO violations, (almost) nothing shed.
//! 2. **Overload knee** — admission control sheds the batch class first
//!    and holds latency-sensitive p99 within its SLO, while the
//!    no-admission baseline admits everything and its p99 diverges far
//!    past the target.
//! 3. **Version safety under churn** — a rolling weight deploy with
//!    arrivals interleaved between per-replica commits serves zero
//!    requests from a stale-epoch replica and zero mixed-version engine
//!    batches; a single-replica crash recovers from its journal and
//!    rejoins routing at the fleet epoch.
//!
//! Any violated invariant exits 1; the last line on success is
//! `fleet study passed`. The service time is probed, not hard-coded, so
//! the derived SLO targets track the simulated device model.

use ecssd_core::prelude::*;
use ecssd_core::UpdateBatch;
use ecssd_serve::{AdmissionControl, ClassReport, Fleet, FleetReport, ServeEngine};
use ecssd_ssd::JournalConfig;
use ecssd_workloads::{Arrival, OpenLoopArrivals, RateCurve, ZipfPopularity};

const D: usize = 32;
const L: usize = 600;
const K: usize = 5;
const REPLICAS: usize = 2;
const DISTINCT_QUERIES: usize = 48;
const ZIPF_EXPONENT: f64 = 1.1;
const LS_FRACTION: f64 = 0.5;
const ARRIVALS_PER_POINT: usize = 320;
const SEED: u64 = 0xf1ee7;

fn fail(what: &str) -> ! {
    eprintln!("error: {what}");
    std::process::exit(1);
}

fn query_for(id: u64) -> Vec<f32> {
    (0..D)
        .map(|i| ((i as f32) * 0.17 + id as f32 * 0.61).sin())
        .collect()
}

fn weights() -> DenseMatrix {
    DenseMatrix::random(L, D, 0xec55d)
}

fn request_for(arrival: &Arrival) -> Request {
    let class = if arrival.class_draw < LS_FRACTION {
        QueryClass::LatencySensitive
    } else {
        QueryClass::Batch
    };
    Request::new(query_for(arrival.query_id), K)
        .with_class(class)
        .with_arrival_ns(arrival.at_ns)
}

/// Probes the per-query device service time by timing one full pre-formed
/// batch on a single engine (no fleet queueing involved).
fn probe_service_ns() -> u64 {
    let mut engine = ServeEngine::builder(EcssdConfig::tiny())
        .build()
        .unwrap_or_else(|e| fail(&format!("probe engine: {e}")));
    engine
        .deploy(&weights())
        .unwrap_or_else(|e| fail(&format!("probe deploy: {e}")));
    let batch: Vec<Request> = (0..Fleet::DEFAULT_POLICY.max_batch)
        .map(|i| Request::new(query_for(i as u64), K))
        .collect();
    let n = batch.len() as u64;
    let outcome = engine
        .submit_formed(batch)
        .and_then(|p| p.wait())
        .unwrap_or_else(|e| fail(&format!("probe batch: {e}")));
    (outcome.sim_ns / n).max(1)
}

struct Targets {
    slo: SloTargets,
    capacity_qps: f64,
}

fn run_point(targets: &Targets, load: f64, admission: AdmissionControl) -> FleetReport {
    let mut fleet = Fleet::builder(EcssdConfig::tiny())
        .replicas(REPLICAS)
        .slo(targets.slo)
        .admission(admission)
        // The baseline must be free to build a deep backlog: its failure
        // mode is latency divergence, not queue overflow.
        .queue_limit(100_000)
        .build()
        .unwrap_or_else(|e| fail(&format!("fleet build: {e}")));
    fleet
        .deploy(&weights())
        .unwrap_or_else(|e| fail(&format!("fleet deploy: {e}")));
    let arrivals = OpenLoopArrivals::new(
        SEED,
        RateCurve::Diurnal {
            base_qps: targets.capacity_qps * load,
            amplitude: 0.3,
            period_s: 0.05,
        },
        ZipfPopularity::new(DISTINCT_QUERIES, ZIPF_EXPONENT),
    );
    for arrival in arrivals.take(ARRIVALS_PER_POINT) {
        let _ = fleet
            .offer(request_for(&arrival))
            .unwrap_or_else(|e| fail(&format!("offer: {e}")));
    }
    fleet
        .drain()
        .unwrap_or_else(|e| fail(&format!("drain: {e}")));
    fleet.report()
}

fn shed_total(c: &ClassReport) -> u64 {
    c.shed_queue_full + c.shed_deadline + c.shed_unavailable
}

fn print_point(load: f64, admission: &str, r: &FleetReport) {
    let ls = &r.latency_sensitive;
    let b = &r.batch;
    println!(
        "load={load:.2}x admission={admission} ls_p99_us={:.1} ls_viol={} ls_shed={} \
         batch_p99_us={:.1} batch_viol={} batch_shed={} ls_goodput_qps={:.0} \
         mixed_version_batches={}",
        ls.p99_us,
        ls.slo_violations,
        shed_total(ls),
        b.p99_us,
        b.slo_violations,
        shed_total(b),
        ls.goodput_qps,
        r.mixed_version_batches,
    );
}

/// Phase 1+2: the load sweep and the overload knee.
fn knee_study(targets: &Targets) {
    let deadline_aware = AdmissionControl::default();
    let mut low_report = None;
    let mut over_admission = None;
    let mut over_baseline = None;
    for &load in &[0.3, 0.6, 1.0, 1.5, 2.5] {
        let managed = run_point(targets, load, deadline_aware);
        print_point(load, "deadline", &managed);
        let baseline = run_point(targets, load, AdmissionControl::None);
        print_point(load, "none", &baseline);
        if load == 0.3 {
            low_report = Some(managed.clone());
        }
        if load == 2.5 {
            over_admission = Some(managed);
            over_baseline = Some(baseline);
        }
    }

    // Invariant 1: at low load admission is invisible for the LS class.
    let low = low_report.unwrap_or_else(|| fail("no low-load point"));
    println!(
        "low-load ls_slo_violations={} ls_shed={}",
        low.latency_sensitive.slo_violations,
        shed_total(&low.latency_sensitive)
    );
    if low.latency_sensitive.slo_violations != 0 {
        fail("latency-sensitive SLO violated at low load");
    }

    // Invariant 2: at overload, admission sheds batch first and holds the
    // LS tail within SLO; the baseline's tail diverges past it.
    let over = over_admission.unwrap_or_else(|| fail("no overload point"));
    let base = over_baseline.unwrap_or_else(|| fail("no overload baseline"));
    let ls_shed_frac =
        shed_total(&over.latency_sensitive) as f64 / over.latency_sensitive.arrived.max(1) as f64;
    let batch_shed_frac = shed_total(&over.batch) as f64 / over.batch.arrived.max(1) as f64;
    let slo_us = targets.slo.latency_sensitive_us as f64;
    let within_slo = over.latency_sensitive.p99_us <= slo_us;
    let baseline_diverged = base.latency_sensitive.p99_us > slo_us;
    println!(
        "overload knee: admission_ls_p99_us={:.1} slo_us={slo_us:.0} within_slo={within_slo} \
         baseline_ls_p99_us={:.1} baseline_diverged={baseline_diverged}",
        over.latency_sensitive.p99_us, base.latency_sensitive.p99_us
    );
    println!(
        "shedding order: batch_shed_frac={batch_shed_frac:.3} ls_shed_frac={ls_shed_frac:.3} \
         batch_first={}",
        batch_shed_frac > 0.0 && batch_shed_frac >= ls_shed_frac
    );
    if !within_slo {
        fail("admission failed to hold latency-sensitive p99 within SLO at overload");
    }
    if !baseline_diverged {
        fail("no-admission baseline did not diverge — the sweep is not overloaded");
    }
    if batch_shed_frac <= 0.0 || batch_shed_frac < ls_shed_frac {
        fail("batch class did not shed first under overload");
    }
    if shed_total(&base.latency_sensitive) + shed_total(&base.batch) > 0 {
        fail("baseline shed traffic despite unbounded queue");
    }
}

/// Phase 3a: rolling deploy with interleaved arrivals.
fn rolling_deploy_study(targets: &Targets) {
    let mut fleet = Fleet::builder(EcssdConfig::tiny())
        .replicas(3)
        .slo(SloTargets {
            latency_sensitive_us: targets.slo.latency_sensitive_us * 100,
            batch_us: targets.slo.batch_us * 100,
        })
        .build()
        .unwrap_or_else(|e| fail(&format!("rolling fleet: {e}")));
    fleet
        .deploy(&weights())
        .unwrap_or_else(|e| fail(&format!("rolling deploy: {e}")));
    let mut arrivals = OpenLoopArrivals::new(
        SEED ^ 0x10,
        RateCurve::Constant {
            qps: targets.capacity_qps * 0.5,
        },
        ZipfPopularity::new(DISTINCT_QUERIES, ZIPF_EXPONENT),
    );
    for arrival in arrivals.by_ref().take(60) {
        let _ = fleet
            .offer(request_for(&arrival))
            .unwrap_or_else(|e| fail(&e.to_string()));
    }
    fleet.drain().unwrap_or_else(|e| fail(&e.to_string()));
    let epoch_before = fleet.epoch();

    let update = UpdateBatch::new(D)
        .replace(0, query_for(99))
        .unwrap_or_else(|e| fail(&format!("update batch: {e}")));
    fleet
        .rolling_update_begin(update)
        .unwrap_or_else(|e| fail(&e.to_string()));
    loop {
        let more = fleet
            .rolling_update_step()
            .unwrap_or_else(|e| fail(&format!("rolling step: {e}")));
        for arrival in arrivals.by_ref().take(40) {
            let _ = fleet
                .offer(request_for(&arrival))
                .unwrap_or_else(|e| fail(&e.to_string()));
        }
        fleet.drain().unwrap_or_else(|e| fail(&e.to_string()));
        if !more {
            break;
        }
    }
    let report = fleet.report();
    let lag_max = report
        .per_replica
        .iter()
        .map(|r| r.epoch_lag)
        .max()
        .unwrap_or(0);
    println!(
        "rolling deploy: epoch {}->{} stale_served={} mixed_version_batches={} epoch_lag_max={}",
        epoch_before,
        report.fleet_epoch,
        report.stale_served,
        report.mixed_version_batches,
        lag_max
    );
    if report.fleet_epoch <= epoch_before {
        fail("rolling deploy did not advance the fleet epoch");
    }
    if report.stale_served != 0 {
        fail("requests were served by a stale-epoch replica during the rolling deploy");
    }
    if report.mixed_version_batches != 0 {
        fail("an engine batch mixed weight versions during the rolling deploy");
    }
    if lag_max != 0 {
        fail("a replica ended the rolling deploy behind the fleet epoch");
    }
}

/// Phase 3b: single-replica crash and journaled recovery mid-stream.
fn crash_study(targets: &Targets) {
    let mut fleet = Fleet::builder(EcssdConfig::tiny())
        .replicas(REPLICAS)
        .journal(JournalConfig::default())
        .slo(SloTargets {
            latency_sensitive_us: targets.slo.latency_sensitive_us * 100,
            batch_us: targets.slo.batch_us * 100,
        })
        .build()
        .unwrap_or_else(|e| fail(&format!("crash fleet: {e}")));
    fleet
        .deploy(&weights())
        .unwrap_or_else(|e| fail(&format!("crash deploy: {e}")));
    let mut arrivals = OpenLoopArrivals::new(
        SEED ^ 0x20,
        RateCurve::Constant {
            qps: targets.capacity_qps * 0.5,
        },
        ZipfPopularity::new(DISTINCT_QUERIES, ZIPF_EXPONENT),
    );
    for arrival in arrivals.by_ref().take(80) {
        let _ = fleet
            .offer(request_for(&arrival))
            .unwrap_or_else(|e| fail(&e.to_string()));
    }
    fleet.drain().unwrap_or_else(|e| fail(&e.to_string()));

    let summary = fleet
        .crash_replica(1, None)
        .unwrap_or_else(|e| fail(&format!("crash_replica: {e}")));

    for arrival in arrivals.by_ref().take(80) {
        let _ = fleet
            .offer(request_for(&arrival))
            .unwrap_or_else(|e| fail(&e.to_string()));
    }
    fleet.drain().unwrap_or_else(|e| fail(&e.to_string()));
    let report = fleet.report();
    println!(
        "crash recovery: rows_lost={} recovery_us={} consistent={} post_crash_queries={} \
         epoch_lag={} mixed_version_batches={}",
        summary.rows_lost,
        summary.recovery_ns_max / 1_000,
        summary.shards_consistent,
        report.per_replica[1].queries,
        report.per_replica[1].epoch_lag,
        report.mixed_version_batches
    );
    if summary.rows_lost != 0 || !summary.shards_consistent {
        fail("journaled replica recovery lost durable state");
    }
    if report.per_replica[1].epoch_lag != 0 || report.per_replica[1].queries == 0 {
        fail("recovered replica did not rejoin routing at the fleet epoch");
    }
    if report.mixed_version_batches != 0 {
        fail("an engine batch mixed weight versions across the crash");
    }
}

fn main() {
    let service_ns = probe_service_ns();
    let batch_ns = service_ns * Fleet::DEFAULT_POLICY.max_batch as u64;
    // SLO targets derived from the probed service time, so they track the
    // device model instead of hard-coding microseconds: the LS budget is
    // one batching window plus a few batch times.
    let slo = SloTargets {
        latency_sensitive_us: (Fleet::DEFAULT_POLICY.max_wait_us + 4 * batch_ns / 1_000).max(1),
        batch_us: (Fleet::DEFAULT_POLICY.max_wait_us + 80 * batch_ns / 1_000).max(1),
    };
    // Fleet capacity: every replica serves one query per service time.
    let capacity_qps = REPLICAS as f64 * 1e9 / service_ns as f64;
    println!(
        "fleet capacity probe: service_us={:.1} capacity_qps={capacity_qps:.0} \
         ls_slo_us={} batch_slo_us={}",
        service_ns as f64 / 1_000.0,
        slo.latency_sensitive_us,
        slo.batch_us
    );
    let targets = Targets { slo, capacity_qps };

    knee_study(&targets);
    rolling_deploy_study(&targets);
    crash_study(&targets);
    println!("fleet study passed");
}
