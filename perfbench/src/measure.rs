//! Metric definitions, sample statistics, and the result line.

use std::fmt::Write as _;

/// One reported metric: name, unit, and which direction is better.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Metrics a user of the simulator sees, measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("wall_s", "s", "lower"),
    m("sim_minst_per_s", "Minst/s", "higher"),
    m("cells_per_s", "1/s", "higher"),
    m("peak_rss_mb", "MB", "lower"),
    m("cells_ok_frac", "frac", "higher"),
];

/// Per-layer metrics of the traced replay, one prefix per crate (`bench.` is the
/// harness itself).
pub const PER_LAYER: &[MetricDef] = &[
    m("svw-workloads.generate_s", "s", "lower"),
    m("svw-workloads.traces", "count", "lower"),
    m("svw-cpu.setup_s", "s", "lower"),
    m("svw-cpu.run_s", "s", "lower"),
    m("svw-cpu.run_s.ipc_lt1", "s", "lower"),
    m("svw-cpu.run_s.ipc_ge1", "s", "lower"),
    m("svw-cpu.cell_p50_ms", "ms", "lower"),
    m("svw-cpu.cell_tail_ms", "ms", "lower"),
    m("svw-cpu.host_ns_per_cycle", "ns", "lower"),
    m("svw-cpu.host_ns_per_inst", "ns", "lower"),
    m("svw-cpu.cycles", "count", "lower"),
    m("svw-cpu.committed", "count", "higher"),
    m(
        "svw-cpu.commit_stalled_on_reexec_per_kinst",
        "1/kinst",
        "lower",
    ),
    m(
        "svw-cpu.reexec_port_conflicts_per_kinst",
        "1/kinst",
        "lower",
    ),
    m("svw-core.marked_per_kinst", "1/kinst", "lower"),
    m("svw-core.filter_rate", "frac", "higher"),
    m("svw-core.reexec_per_kinst", "1/kinst", "lower"),
    m("svw-core.reexec_mismatch_rate", "frac", "lower"),
    m("svw-core.ssbf_updates_per_kinst", "1/kinst", "lower"),
    m("svw-core.wrap_drains", "count", "lower"),
    m("svw-lsq.fwd_buffer_hit_rate", "frac", "higher"),
    m("svw-lsq.reexec_flushes_per_kinst", "1/kinst", "lower"),
    m("svw-lsq.ordering_flushes_per_kinst", "1/kinst", "lower"),
    m("svw-lsq.store_set_squashes_per_kinst", "1/kinst", "lower"),
    m("svw-mem.l1d_miss_rate", "frac", "lower"),
    m("svw-mem.l2_miss_rate", "frac", "lower"),
    m("svw-mem.memory_accesses_per_kinst", "1/kinst", "lower"),
    m("svw-predictors.mispredict_rate", "frac", "lower"),
    m("svw-oracle.check_s", "s", "lower"),
    m("svw-oracle.share", "frac", "lower"),
    m("svw-oracle.divergences", "count", "lower"),
    m("svw-sim.plan_s", "s", "lower"),
    m("svw-sim.execute_s", "s", "lower"),
    m("svw-sim.parallel_efficiency", "frac", "higher"),
    m("svw-sim.cache_lookup_us", "us", "lower"),
    m("svw-sim.cache_store_us", "us", "lower"),
    m("svw-sim.cache_hit_frac", "frac", "higher"),
    m("svw-sim.warm_render_s", "s", "lower"),
    m("svw-sim.cells", "count", "higher"),
    m("svw-sim.cells_failed", "count", "lower"),
    m("bench.replay_s", "s", "lower"),
    m("bench.trace_overhead_s", "s", "lower"),
    m("bench.trace_overhead_frac", "frac", "lower"),
    m("bench.self_time_coverage", "frac", "higher"),
];

/// Whether `name` fits the result format: starts with a letter or digit, at most 64
/// characters of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` fits the result format: 1 to 16 letters, digits, `_`, `/`, `%`,
/// `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Events per thousand committed instructions, or 0 when nothing committed.
pub fn per_kinst(events: u64, committed: u64) -> f64 {
    ratio(1000.0 * events as f64, committed as f64)
}

/// Median of `samples` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest integer percentile `p` (1–99) whose nearest-rank value still has at
/// least ten samples above its rank, as `(p, value, samples_beyond)`. `None` when
/// there are too few samples for any percentile to qualify (fewer than 11).
pub fn tail_percentile(samples: &[f64]) -> Option<(u32, f64, usize)> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    (1..=99u32).rev().find_map(|p| {
        // Nearest rank: the smallest rank r with r/n >= p/100, i.e. ceil(p·n/100).
        let rank = (p as usize * n).div_ceil(100);
        (rank >= 1 && n - rank >= 10).then(|| (p, s[rank - 1], n - rank))
    })
}

/// `tail_percentile` rendered for humans: `p87=1.234 (10 beyond, n=80)`, or a
/// statement that there are too few samples.
pub fn describe_tail(samples: &[f64]) -> String {
    match tail_percentile(samples) {
        Some((p, v, beyond)) => format!("p{p}={v:.6} ({beyond} beyond, n={})", samples.len()),
        None => format!(
            "no tail percentile (needs >=11 samples, n={})",
            samples.len()
        ),
    }
}

/// The benchmark's last output line: `{"correct", "attempted", "failed", "metrics"}`.
///
/// # Panics
///
/// Panics if a metric is missing, non-finite, or has an invalid name or unit — a
/// bug in this program, never a property of the measured code.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &[(&str, f64)],
) -> String {
    let mut metrics = String::new();
    for (i, def) in defs.iter().enumerate() {
        assert!(
            valid_name(def.name) && valid_unit(def.unit),
            "bad metric {def:?}"
        );
        let value = values
            .iter()
            .find(|(n, _)| *n == def.name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("metric {} was not measured", def.name));
        assert!(
            value.is_finite(),
            "metric {} is not finite: {value}",
            def.name
        );
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints the shortest representation that round-trips: every digit
        // measured, and always a valid JSON number for finite values.
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            def.name, def.unit
        );
    }
    format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_and_units_fit_the_charset() {
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(def.name), "{}", def.name);
            assert!(valid_unit(def.unit), "{}", def.unit);
            assert!(matches!(def.better, "lower" | "higher"), "{}", def.name);
        }
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names must be unique");
        for bad in ["", "_x", ".x", "-x", "a b", "a/b", "ä", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} must be rejected");
        }
        for bad in ["", "a b", "{}", &"s".repeat(17)] {
            assert!(!valid_unit(bad), "{bad:?} must be rejected");
        }
        assert!(valid_unit("1/kinst") && valid_unit("%") && valid_unit("Minst/s"));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // Fewer than 11 samples: no percentile has ten samples above it.
        assert_eq!(tail_percentile(&[1.0; 10]), None);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let (p, v, beyond) = tail_percentile(&eleven).expect("11 samples qualify");
        assert_eq!((beyond, v), (10, 1.0));
        assert_eq!(p, 9, "p9 is the highest percentile whose rank is 1 of 11");
        // 80 samples: p87 has rank 70 (10 beyond); p88 would have rank 71.
        let eighty: Vec<f64> = (1..=80).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&eighty), Some((87, 70.0, 10)));
        // 1000 samples: p99 has rank 990, exactly ten beyond.
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&many), Some((99, 990.0, 10)));
        assert!(describe_tail(&eighty).contains("p87=70.000000 (10 beyond, n=80)"));
        assert!(describe_tail(&[1.0]).contains("n=1"));
    }

    #[test]
    fn rates_with_zero_denominators_are_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(per_kinst(7, 0), 0.0);
        assert_eq!(per_kinst(0, 0), 0.0);
        assert_eq!(per_kinst(3, 1500), 2.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let defs = [m("a_s", "s", "lower"), m("b", "count", "higher")];
        let line = result_line(true, 3, 0, &defs, &[("b", 2.0), ("a_s", 0.125)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 0.125, \"unit\": \"s\"}, \"b\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn result_line_refuses_a_missing_metric() {
        result_line(true, 1, 0, &[m("a", "s", "lower")], &[]);
    }

    /// `BENCHMARK.json` at the repository root must list exactly these metrics.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let section = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|rest| rest[..rest.find('"').expect("quoted name")].to_string())
                .collect()
        };
        let names =
            |defs: &[MetricDef]| defs.iter().map(|d| d.name.to_string()).collect::<Vec<_>>();
        assert_eq!(section("end_to_end"), names(END_TO_END));
        assert_eq!(section("per_layer"), names(PER_LAYER));
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                def.name, def.unit, def.better
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
