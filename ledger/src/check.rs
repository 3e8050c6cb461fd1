//! The output check.  Every program a workload receives is judged against
//! the spec that was actually submitted (the seeded variant), by two
//! references that do not share the compiler's encoders: the device rules
//! of `ph_hw::check_program`, and the packet-level comparison of the spec
//! interpreter `ph_ir::simulate` with the device model
//! `ph_hw::run_program` in `ph_core::fuzz::check_e2e`.  Checks run outside
//! every timed region.

use crate::gen::Device;
use ph_hw::TcamProgram;
use ph_ir::ParserSpec;
use std::time::Instant;

/// Packets compared per checked program.
pub const PACKETS_PER_CHECK: usize = 256;

/// What one check found.
pub struct Checked {
    /// Packets the e2e oracle compared.
    pub packets: u64,
    /// Seconds the e2e oracle took.
    pub fuzz_secs: f64,
    /// The first problem, if the program is wrong.
    pub wrong: Option<String>,
}

/// Checks `program` against `spec` on `device`.
pub fn check_output(
    spec: &ParserSpec,
    program: &TcamProgram,
    device: Device,
    seed: u64,
) -> Checked {
    let tracer = ph_obs::current();
    if program.device != device.profile() {
        return Checked {
            packets: 0,
            fuzz_secs: 0.0,
            wrong: Some(format!(
                "program targets {}, not {}",
                program.device.name,
                device.name()
            )),
        };
    }
    // A program whose field references do not fit the spec can make the
    // device model panic; that is a wrong output, not a benchmark crash.
    let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let violations = {
            let _s = tracer.span("ledger.hw.check");
            ph_hw::check_program(program, &spec.fields)
        };
        let _s = tracer.span("ledger.core.fuzz");
        let t0 = Instant::now();
        let e2e = ph_core::fuzz::check_e2e(spec, program, seed, PACKETS_PER_CHECK);
        (violations, e2e, t0.elapsed().as_secs_f64())
    }));
    let (packets, fuzz_secs, wrong) = match verdict {
        Ok((violations, Ok(stats), secs)) => (
            stats.packets,
            secs,
            violations.first().map(|v| format!("device rule: {v}")),
        ),
        Ok((_, Err(d), secs)) => (0, secs, Some(format!("divergence: {d}"))),
        Err(_) => (
            0,
            0.0,
            Some("the device model panicked on the program".into()),
        ),
    };
    Checked {
        packets,
        fuzz_secs,
        wrong,
    }
}
