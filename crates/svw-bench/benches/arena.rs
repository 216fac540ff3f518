//! Cell-startup benchmark: fresh `Cpu` construction per cell versus recycling a
//! per-worker `SimArena`.
//!
//! The trace is deliberately short so that per-cell startup (allocating or
//! resetting the predictor tables, caches, queues, ROB ring, and event wheels)
//! is a visible share of each iteration — exactly the cost profile of a dense
//! sweep with many small cells. The two variants must produce identical
//! statistics (asserted each iteration); only their startup strategy differs.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use svw_cpu::{Cpu, LsqOrganization, MachineConfig, ReexecMode, SimArena};
use svw_workloads::WorkloadProfile;

/// Short on purpose: startup cost amortizes away on long traces.
const TRACE_LEN: usize = 2_000;

fn nlq_svw_config() -> MachineConfig {
    MachineConfig::eight_wide(
        "nlq-svw",
        LsqOrganization::Nlq {
            store_exec_bandwidth: 2,
        },
        ReexecMode::Svw(svw_core::SvwConfig::paper_default()),
    )
}

fn cell_startup(c: &mut Criterion) {
    let program = WorkloadProfile::by_name("gcc")
        .expect("workload exists")
        .generate(TRACE_LEN, 1);
    let config = nlq_svw_config();
    let shared = Arc::new(config.clone());
    let reference = Cpu::new(config.clone(), &program).run().cycles;

    let mut group = c.benchmark_group("cell_startup(nlq-svw x 2k)");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Elements(TRACE_LEN as u64));

    // The old per-cell cost: a config clone plus a full pipeline rebuild.
    group.bench_function("fresh", |b| {
        b.iter(|| {
            let cycles = Cpu::new(config.clone(), &program).run().cycles;
            assert_eq!(cycles, reference);
            black_box(cycles)
        })
    });

    // The recycled path: the arena's pipeline is cleared in place, allocations
    // retained, and the config shared by refcount.
    let mut arena = SimArena::new();
    group.bench_function("recycled", |b| {
        b.iter(|| {
            let cycles = Cpu::recycle(&mut arena, &shared, &program).run().cycles;
            assert_eq!(cycles, reference);
            black_box(cycles)
        })
    });
    group.finish();
}

criterion_group!(arena, cell_startup);
criterion_main!(arena);
