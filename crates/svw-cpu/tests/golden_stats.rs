//! Golden cycle-exactness pins for the timing model.
//!
//! Every cell below runs a trace (5k instructions, or 20k for the targeted
//! atomic-SSBF cells) through one machine configuration and pins an FNV-1a digest of the cell's *full* [`CpuStats`] (its `Debug` rendering:
//! cycles, every counter, and the nested predictor, hierarchy and SVW statistics).
//! Scheduler optimisations — wakeup-driven issue, idle-cycle skipping — must leave
//! every digest unchanged: a moved cycle count is a model bug, not a new model
//! version. A deliberate model change must bump `LATEST_MODEL_VERSION` and re-pin.
//!
//! The matrix covers each load/store organisation (conventional LQ, NLQ, SSQ), each
//! re-execution mode (none, full, perfect, SVW with and without the forwarding
//! update, SVW with atomic SSBF updates), redundant load elimination, and a
//! narrow-SSN configuration that pays wrap-around drains, at model versions 1 and 2.
//!
//! On a mismatch the failure message lists every actual digest in the table's own
//! syntax, so an intentional re-pin is a copy-paste.

use svw_core::{SsnWidth, SvwConfig};
use svw_cpu::{Cpu, CpuStats, LsqOrganization, MachineConfig, ReexecMode};
use svw_rle::ItConfig;
use svw_workloads::WorkloadProfile;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn digest(stats: &CpuStats) -> u64 {
    fnv1a(format!("{stats:?}").as_bytes())
}

const SSQ: LsqOrganization = LsqOrganization::Ssq {
    fsq_entries: 16,
    fwd_buffer_entries: 8,
    store_exec_bandwidth: 2,
};
const NLQ: LsqOrganization = LsqOrganization::Nlq {
    store_exec_bandwidth: 2,
};
const CONV: LsqOrganization = LsqOrganization::Conventional {
    extra_load_latency: 0,
    store_exec_bandwidth: 1,
};

/// The configurations pinned on every 5k-instruction trace, in table order.
fn configs() -> Vec<MachineConfig> {
    let atomic = SvwConfig {
        speculative_ssbf_updates: false,
        ..SvwConfig::paper_no_forward_update()
    };
    let narrow = SvwConfig {
        ssn_width: SsnWidth::Bits(8),
        ..SvwConfig::paper_default()
    };
    vec![
        MachineConfig::eight_wide("conv", CONV, ReexecMode::None),
        MachineConfig::eight_wide("nlq-full", NLQ, ReexecMode::Full),
        MachineConfig::eight_wide(
            "nlq-svw+upd",
            NLQ,
            ReexecMode::Svw(SvwConfig::paper_default()),
        ),
        MachineConfig::eight_wide(
            "nlq-svw-upd",
            NLQ,
            ReexecMode::Svw(SvwConfig::paper_no_forward_update()),
        ),
        MachineConfig::eight_wide("nlq-svw-narrow", NLQ, ReexecMode::Svw(narrow)),
        MachineConfig::eight_wide("ssq-full", SSQ, ReexecMode::Full),
        MachineConfig::eight_wide("ssq-perfect", SSQ, ReexecMode::Perfect),
        MachineConfig::eight_wide(
            "ssq-svw+upd",
            SSQ,
            ReexecMode::Svw(SvwConfig::paper_default()),
        ),
        MachineConfig::eight_wide("ssq-svw-atomic", SSQ, ReexecMode::Svw(atomic)),
        MachineConfig::four_wide("rle-full", CONV, ReexecMode::Full)
            .with_rle(ItConfig::paper_default()),
        MachineConfig::four_wide("rle-svw", CONV, ReexecMode::Svw(SvwConfig::paper_default()))
            .with_rle(ItConfig::paper_default()),
        // One issue slot per integer, load and store class: ready ops routinely wait
        // on class bandwidth, the path where the select loop leaves them ready.
        MachineConfig {
            issue_int: 1,
            issue_load: 1,
            issue_store: 1,
            ..MachineConfig::eight_wide("nlq-svw-narrow-issue", NLQ, ReexecMode::Svw(narrow))
        },
    ]
}

/// `(config, model version, digest)` for every cell of one workload.
type Pins = &'static [(&'static str, u32, u64)];

fn check(workload: &str, trace_len: usize, seed: u64, configs: &[MachineConfig], pins: Pins) {
    let program = WorkloadProfile::by_name(workload)
        .expect("pinned workload exists")
        .generate(trace_len, seed);
    let mut actual = Vec::new();
    for version in [1u32, 2] {
        for cfg in configs.iter().cloned() {
            let name = cfg.name.clone();
            let stats = Cpu::new(cfg.with_model_version(version), &program).run();
            assert_eq!(stats.committed, program.len() as u64, "{workload}/{name}");
            if name == "nlq-svw-narrow" {
                assert!(
                    stats.wrap_drains > 0,
                    "{workload}: the narrow SSN must wrap"
                );
            }
            actual.push((name, version, digest(&stats)));
        }
    }
    let expected: Vec<(String, u32, u64)> = pins
        .iter()
        .map(|&(n, v, d)| (n.to_string(), v, d))
        .collect();
    if actual != expected {
        let table: String = actual
            .iter()
            .map(|(n, v, d)| format!("        (\"{n}\", {v}, {d:#018x}),\n"))
            .collect();
        panic!("{workload}: CpuStats digests moved; actual pins:\n{table}");
    }
}

const MCF: Pins = &[
    ("conv", 1, 0x4b18a9ab2acae2e6),
    ("nlq-full", 1, 0x857e3db462f58103),
    ("nlq-svw+upd", 1, 0x1dc2d2162022bd5b),
    ("nlq-svw-upd", 1, 0x38214125d1bd68b7),
    ("nlq-svw-narrow", 1, 0x0fd4dc173844b686),
    ("ssq-full", 1, 0x9aca28c63045c6d6),
    ("ssq-perfect", 1, 0x8a00c2b985688279),
    ("ssq-svw+upd", 1, 0xbe4829bf13cf407e),
    ("ssq-svw-atomic", 1, 0x8b6f13adad256112),
    ("rle-full", 1, 0x02fa7e86db6483b9),
    ("rle-svw", 1, 0x3f0627ceb06be7b2),
    ("nlq-svw-narrow-issue", 1, 0xcbcdcf17a2b502a9),
    ("conv", 2, 0x4b18a9ab2acae2e6),
    ("nlq-full", 2, 0x857e3db462f58103),
    ("nlq-svw+upd", 2, 0x1dc2d2162022bd5b),
    ("nlq-svw-upd", 2, 0x38214125d1bd68b7),
    ("nlq-svw-narrow", 2, 0x0fd4dc173844b686),
    ("ssq-full", 2, 0x9aca28c63045c6d6),
    ("ssq-perfect", 2, 0x8a00c2b985688279),
    ("ssq-svw+upd", 2, 0xbe4829bf13cf407e),
    ("ssq-svw-atomic", 2, 0x8b6f13adad256112),
    ("rle-full", 2, 0x02fa7e86db6483b9),
    ("rle-svw", 2, 0x3f0627ceb06be7b2),
    ("nlq-svw-narrow-issue", 2, 0xcbcdcf17a2b502a9),
];

const GCC: Pins = &[
    ("conv", 1, 0xc25203aac0db289d),
    ("nlq-full", 1, 0x974397c8bc08d3b8),
    ("nlq-svw+upd", 1, 0x4323ed1aa35efa23),
    ("nlq-svw-upd", 1, 0x533b0ebb110352b7),
    ("nlq-svw-narrow", 1, 0x2ab7e5ce69584c28),
    ("ssq-full", 1, 0x44f475fee37e1666),
    ("ssq-perfect", 1, 0xda221e9b409f8b67),
    ("ssq-svw+upd", 1, 0xd42b70a1672ff897),
    ("ssq-svw-atomic", 1, 0xc1f8288c73c09724),
    ("rle-full", 1, 0xc8a0711d9089cf2b),
    ("rle-svw", 1, 0x91153b275cc84844),
    ("nlq-svw-narrow-issue", 1, 0x6ca0e4939d801fc5),
    ("conv", 2, 0xc25203aac0db289d),
    ("nlq-full", 2, 0x974397c8bc08d3b8),
    ("nlq-svw+upd", 2, 0x4323ed1aa35efa23),
    ("nlq-svw-upd", 2, 0x533b0ebb110352b7),
    ("nlq-svw-narrow", 2, 0x2ab7e5ce69584c28),
    ("ssq-full", 2, 0x44f475fee37e1666),
    ("ssq-perfect", 2, 0xda221e9b409f8b67),
    ("ssq-svw+upd", 2, 0xd42b70a1672ff897),
    ("ssq-svw-atomic", 2, 0xc1f8288c73c09724),
    ("rle-full", 2, 0xc8a0711d9089cf2b),
    ("rle-svw", 2, 0x91153b275cc84844),
    ("nlq-svw-narrow-issue", 2, 0x6ca0e4939d801fc5),
];

const EON_C: Pins = &[
    ("conv", 1, 0x48e19f239ad91550),
    ("nlq-full", 1, 0xfe0c1543bbd0e8ac),
    ("nlq-svw+upd", 1, 0x690c78c2068466c0),
    ("nlq-svw-upd", 1, 0x2cc1939a94f32715),
    ("nlq-svw-narrow", 1, 0xa9b1d12b67da7c98),
    ("ssq-full", 1, 0x18e4bbea5deb53c1),
    ("ssq-perfect", 1, 0x16ac0e66a091fa37),
    ("ssq-svw+upd", 1, 0xfc9f20467e727dde),
    ("ssq-svw-atomic", 1, 0x6e5ab0e01d072687),
    ("rle-full", 1, 0xeb43fb47b58d312e),
    ("rle-svw", 1, 0x1b81017d1ac784fd),
    ("nlq-svw-narrow-issue", 1, 0x0e518788cd5e7330),
    ("conv", 2, 0x48e19f239ad91550),
    ("nlq-full", 2, 0xfe0c1543bbd0e8ac),
    ("nlq-svw+upd", 2, 0x690c78c2068466c0),
    ("nlq-svw-upd", 2, 0x2cc1939a94f32715),
    ("nlq-svw-narrow", 2, 0xa9b1d12b67da7c98),
    ("ssq-full", 2, 0x18e4bbea5deb53c1),
    ("ssq-perfect", 2, 0x16ac0e66a091fa37),
    ("ssq-svw+upd", 2, 0xfc9f20467e727dde),
    ("ssq-svw-atomic", 2, 0x6e5ab0e01d072687),
    ("rle-full", 2, 0xeb43fb47b58d312e),
    ("rle-svw", 2, 0x1b81017d1ac784fd),
    ("nlq-svw-narrow-issue", 2, 0x0e518788cd5e7330),
];

const ADV_ALIAS: Pins = &[
    ("conv", 1, 0xc5f6e5b732e5e1af),
    ("nlq-full", 1, 0x3339b2138a9fe25a),
    ("nlq-svw+upd", 1, 0x669c3af844ec9a85),
    ("nlq-svw-upd", 1, 0xd9110d29db8a68c1),
    ("nlq-svw-narrow", 1, 0x8881fc77d6c8f733),
    ("ssq-full", 1, 0x4551b57b399ff12b),
    ("ssq-perfect", 1, 0xd3f81658bf91320e),
    ("ssq-svw+upd", 1, 0x682ed430f82b1a28),
    ("ssq-svw-atomic", 1, 0x824d7339b7ac5ac2),
    ("rle-full", 1, 0x2f9b0a1e79413fe0),
    ("rle-svw", 1, 0x61710b2853630e36),
    ("nlq-svw-narrow-issue", 1, 0xa013ad972367f5fc),
    ("conv", 2, 0xc5f6e5b732e5e1af),
    ("nlq-full", 2, 0x3339b2138a9fe25a),
    ("nlq-svw+upd", 2, 0x669c3af844ec9a85),
    ("nlq-svw-upd", 2, 0xd9110d29db8a68c1),
    ("nlq-svw-narrow", 2, 0x8881fc77d6c8f733),
    ("ssq-full", 2, 0x4551b57b399ff12b),
    ("ssq-perfect", 2, 0xd3f81658bf91320e),
    ("ssq-svw+upd", 2, 0x682ed430f82b1a28),
    ("ssq-svw-atomic", 2, 0x824d7339b7ac5ac2),
    ("rle-full", 2, 0x2f9b0a1e79413fe0),
    ("rle-svw", 2, 0x61710b2853630e36),
    ("nlq-svw-narrow-issue", 2, 0xa013ad972367f5fc),
];

#[test]
fn golden_mcf() {
    check("mcf", 5_000, 1, &configs(), MCF);
}

#[test]
fn golden_gcc() {
    check("gcc", 5_000, 1, &configs(), GCC);
}

#[test]
fn golden_eon_c() {
    check("eon.c", 5_000, 1, &configs(), EON_C);
}

#[test]
fn golden_adv_alias() {
    check("adv.alias", 5_000, 1, &configs(), ADV_ALIAS);
}

/// Atomic SSBF updates make a completed store at the re-execution head wait while
/// older re-executions are in flight, and only then: this cell reaches the state
/// where the store may proceed while every other stage is blocked, so idle-cycle
/// skipping must step that cycle rather than jump to the next event.
#[test]
fn golden_vortex_atomic_ssbf() {
    let atomic = SvwConfig {
        speculative_ssbf_updates: false,
        ..SvwConfig::paper_default()
    };
    let configs = [
        MachineConfig::eight_wide("nlq-atomic", NLQ, ReexecMode::Svw(atomic)),
        MachineConfig::eight_wide("ssq-atomic", SSQ, ReexecMode::Svw(atomic)),
    ];
    check("vortex", 20_000, 2, &configs, VORTEX_ATOMIC);
}

const VORTEX_ATOMIC: Pins = &[
    ("nlq-atomic", 1, 0xc9c8e6c7a55e0c10),
    ("ssq-atomic", 1, 0x435ca66b6445b3d9),
    ("nlq-atomic", 2, 0xc9c8e6c7a55e0c10),
    ("ssq-atomic", 2, 0x435ca66b6445b3d9),
];
