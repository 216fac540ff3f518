//! Micro-benchmarks of the SVW hardware structures and of the cell-line codec that
//! every result-cache hit and resumed cell goes through.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use svw_core::{
    Ssbf, SsbfConfig, SsbfProbe, SsbfUpdate, Ssn, SsnClock, SsnWidth, SvwConfig, SvwFilter,
    VulnWindow,
};
use svw_rle::{IntegrationTable, ItConfig, ItEntry, ItSignature, RleKind};
use svw_sim::jsonl::{cell_line, parse_cell_line};
use svw_sim::{CellId, ResultCache};

fn bench_ssbf_organisations(c: &mut Criterion) {
    let mut group = c.benchmark_group("ssbf_update_lookup");
    for (name, cfg) in [
        ("simple_512", SsbfConfig::paper_default()),
        ("simple_128", SsbfConfig::small_128()),
        ("simple_2048", SsbfConfig::large_2048()),
        ("double_bloom", SsbfConfig::double_bloom()),
        ("word_granularity", SsbfConfig::word_granularity()),
        ("infinite", SsbfConfig::infinite()),
    ] {
        group.bench_function(name, |b| {
            let mut ssbf = Ssbf::new(cfg);
            let mut ssn = 0u64;
            b.iter(|| {
                ssn += 1;
                let addr = (ssn * 24) % 65536;
                ssbf.update_store(black_box(addr), 8, Ssn::new(ssn));
                black_box(ssbf.must_reexecute(black_box(addr ^ 0x40), 8, Ssn::new(ssn / 2)))
            });
        });
    }
    group.finish();
}

fn bench_ssn_clock(c: &mut Criterion) {
    c.bench_function("ssn_clock_assign_retire", |b| {
        let mut clock = SsnClock::new(SsnWidth::Infinite);
        b.iter(|| {
            let s = clock.assign_store();
            clock.retire_store(s);
            black_box(clock.retire())
        });
    });
}

fn bench_filter_end_to_end(c: &mut Criterion) {
    c.bench_function("svw_filter_store_load_pair", |b| {
        let mut svw = SvwFilter::new(SvwConfig::paper_default());
        let mut addr = 0u64;
        b.iter(|| {
            addr = (addr + 8) % 32768;
            let window = svw.load_dispatch_window();
            let ssn = svw.assign_store_ssn();
            svw.store_svw_stage(addr, 8, ssn);
            svw.store_retired(ssn);
            black_box(svw.must_reexecute(addr, 8, VulnWindow::at_dispatch(window.boundary())))
        });
    });
}

fn bench_integration_table(c: &mut Criterion) {
    c.bench_function("integration_table_insert_lookup", |b| {
        let mut it = IntegrationTable::new(ItConfig::paper_default());
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let sig = ItSignature {
                base_preg: (i % 4096) as u32,
                offset: ((i * 8) % 256) as i64,
                width: svw_isa::MemWidth::W8,
            };
            it.insert(ItEntry {
                signature: sig,
                value: i,
                ssn: Ssn::new(i),
                producer_seq: i,
                kind: RleKind::LoadReuse,
                from_squashed: false,
            });
            black_box(it.lookup(&sig))
        });
    });
}

/// The batched SSBF hot-path APIs versus their scalar equivalents, over the
/// commit-width batches the re-execution stage actually issues.
fn bench_ssbf_batched(c: &mut Criterion) {
    // Commit-width batches, as the re-execution stage issues them.
    const BATCH: usize = 8;
    const OPS: usize = 4096;
    let updates: Vec<SsbfUpdate> = (0..OPS as u64)
        .map(|i| ((i * 24) % 65536, 8, Ssn::new(i + 1)))
        .collect();
    let probes: Vec<SsbfProbe> = (0..OPS as u64)
        .map(|i| (((i * 24) ^ 0x40) % 65536, 8))
        .collect();

    let mut group = c.benchmark_group("ssbf_batched");
    for (name, cfg) in [
        ("simple_512", SsbfConfig::paper_default()),
        ("double_bloom", SsbfConfig::double_bloom()),
        ("word_granularity", SsbfConfig::word_granularity()),
    ] {
        group.bench_function(format!("{name}/scalar"), |b| {
            let mut ssbf = Ssbf::new(cfg);
            b.iter(|| {
                let mut conservative = 0u64;
                for (upd, prb) in updates.chunks(BATCH).zip(probes.chunks(BATCH)) {
                    for &(addr, bytes, ssn) in upd {
                        ssbf.update_store(addr, bytes, ssn);
                    }
                    for &(addr, bytes) in prb {
                        conservative += ssbf.must_reexecute(addr, bytes, Ssn::new(4)) as u64;
                    }
                }
                black_box(conservative)
            })
        });
        group.bench_function(format!("{name}/batched"), |b| {
            let mut ssbf = Ssbf::new(cfg);
            let mut conflicts = Vec::with_capacity(BATCH);
            b.iter(|| {
                let mut conservative = 0u64;
                for (upd, prb) in updates.chunks(BATCH).zip(probes.chunks(BATCH)) {
                    ssbf.update_batch(upd);
                    ssbf.probe_batch(prb, &mut conflicts);
                    conservative += conflicts.iter().filter(|&&c| c > Ssn::new(4)).count() as u64;
                }
                black_box(conservative)
            })
        });
    }
    group.finish();
}

/// One finished cell as the result cache stores it: a simulated fig5 cell.
fn sample_cell() -> (CellId, svw_cpu::CpuStats) {
    let profile = svw_workloads::WorkloadProfile::by_name("gcc").expect("workload exists");
    let config = svw_sim::presets::fig5_nlq_configs()
        .pop()
        .expect("fig5 has configs");
    let program = profile.generate(2_000, 1);
    let stats = svw_cpu::Cpu::new(config.clone(), &program).run();
    let id = CellId {
        matrix: "fig5".into(),
        workload: profile.name.clone(),
        config: config.name.clone(),
        seed: 1,
        trace_len: 2_000,
        fingerprint: profile.fingerprint(),
        model_version: 1,
        spec_fingerprint: 0x0123_4567_89ab_cdef,
    };
    (id, stats)
}

fn bench_cell_codec(c: &mut Criterion) {
    let (id, stats) = sample_cell();
    let result = Ok(stats);
    let line = cell_line(&id, &result);
    let mut group = c.benchmark_group("cell_line");
    group.bench_function("encode", |b| {
        b.iter(|| black_box(cell_line(black_box(&id), &result)))
    });
    group.bench_function("decode", |b| {
        b.iter(|| black_box(parse_cell_line(black_box(&line))))
    });
    group.bench_function("cache_key", |b| {
        b.iter(|| black_box(ResultCache::cache_key(black_box(&id))))
    });
    group.finish();
}

criterion_group!(
    structures,
    bench_cell_codec,
    bench_ssbf_organisations,
    bench_ssbf_batched,
    bench_ssn_clock,
    bench_filter_end_to_end,
    bench_integration_table
);
criterion_main!(structures);
