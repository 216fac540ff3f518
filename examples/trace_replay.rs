//! Trace capture and replay: capture a workload to a `.svwt` file, replay it both
//! materialized and streaming, and show that the timing model cannot tell any of the
//! three apart.
//!
//! Run with: `cargo run --release --example trace_replay`

use svw::core::SvwConfig;
use svw::cpu::{Cpu, LsqOrganization, MachineConfig, ReexecMode};
use svw::trace::TraceReader;
use svw::workloads::WorkloadProfile;

fn config() -> MachineConfig {
    MachineConfig::eight_wide(
        "nlq-svw",
        LsqOrganization::Nlq {
            store_exec_bandwidth: 2,
        },
        ReexecMode::Svw(SvwConfig::paper_default()),
    )
}

fn main() {
    let profile = WorkloadProfile::by_name("gcc").expect("gcc profile exists");
    let (trace_len, seed) = (100_000, 1);

    // Capture: generate once, serialize to the compact binary format.
    let program = profile.generate(trace_len, seed);
    let bytes = svw::trace::write_program_to_vec(&program, trace_len, seed, profile.fingerprint());
    println!(
        "captured {}: {} instructions -> {} bytes ({:.1} B/inst)",
        program.name(),
        program.len(),
        bytes.len(),
        bytes.len() as f64 / program.len() as f64,
    );

    // Replay three ways: direct, materialized from bytes, streaming from bytes.
    let direct = Cpu::new(config(), &program).run();
    let materialized_program = svw::trace::read_program_from_slice(&bytes).expect("valid trace");
    let materialized = Cpu::new(config(), &materialized_program).run();
    let reader = TraceReader::new(bytes.as_slice()).expect("valid trace");
    let streamed = Cpu::from_stream(config(), Box::new(reader)).run();

    println!(
        "direct       IPC {:.4}, {:.2}% loads re-executed",
        direct.ipc(),
        direct.reexec_rate()
    );
    println!(
        "materialized IPC {:.4}, {:.2}% loads re-executed",
        materialized.ipc(),
        materialized.reexec_rate()
    );
    println!(
        "streaming    IPC {:.4}, {:.2}% loads re-executed",
        streamed.ipc(),
        streamed.reexec_rate()
    );
    assert_eq!(format!("{direct:?}"), format!("{materialized:?}"));
    assert_eq!(format!("{direct:?}"), format!("{streamed:?}"));
    println!("all three replays produced identical statistics");
}
