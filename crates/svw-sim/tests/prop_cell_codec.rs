//! Robustness and exactness of the cell-line codec and the result-cache entry
//! envelope.
//!
//! Every input — round-tripped cells whose names hold quotes, backslashes, control
//! characters and non-ASCII text, arbitrary strings, every truncation of a real
//! line and single-byte changes of it — goes through the borrowed flat-object
//! scanner, `parse_cell_line` and a result-cache lookup, and each must answer
//! exactly what the [`reference`] codec answers, without panicking. Committed
//! fixtures written by an earlier binary pin the on-disk formats: the JSONL line
//! layout, the `.svwr` checksum and the content address.

use std::fs;
use std::path::{Path, PathBuf};

use proptest::prelude::*;
use proptest::TestRng;
use svw_cpu::CpuStats;
use svw_sim::jsonl::{cell_line, parse_cell_line};
use svw_sim::{json, CacheMode, CellId, JsonlSink, ResultCache};

/// A line and a cache entry written by the binary before the codec rewrite.
const FIXTURE_LINE: &str = include_str!("fixtures/cell.jsonl");
const FIXTURE_ENTRY: &str = include_str!("fixtures/b232d4a96271bc88.svwr");
const FIXTURE_KEY: u64 = 0xb232_d4a9_6271_bc88;

fn fresh_temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("svw-prop-codec-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// The scanner's fields as owned pairs, in the reference parser's shape.
fn scan(s: &str) -> Option<Vec<(String, reference::Scalar)>> {
    let mut out = Vec::new();
    json::parse_flat_object(s, |k, v| {
        let v = match v {
            json::Scalar::Str(s) => reference::Scalar::Str(s.into_owned()),
            json::Scalar::Num(raw) => reference::Scalar::Num(raw.to_string()),
            json::Scalar::Bool(b) => reference::Scalar::Bool(b),
            json::Scalar::Null => reference::Scalar::Null,
        };
        out.push((k.into_owned(), v));
        Some(())
    })?;
    Some(out)
}

/// `Debug` text of a parsed line: `CpuStats` has no `PartialEq`, and its `Debug`
/// prints every counter.
fn shown(parsed: &Option<(CellId, Result<CpuStats, String>)>) -> String {
    format!("{parsed:?}")
}

/// Checks the scanner and `parse_cell_line` against the reference on `s`.
fn same_as_reference(s: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(scan(s), reference::parse_flat_object(s));
    prop_assert_eq!(
        shown(&parse_cell_line(s)),
        shown(&reference::parse_cell_line(s))
    );
    Ok(())
}

/// Characters that stress escaping and the scanner: JSON syntax, escapes, ASCII
/// and Unicode whitespace, control characters and multi-byte text.
const PALETTE: &[char] = &[
    '{', '}', '[', ']', '"', ':', ',', '\\', '/', '-', '+', '.', 'e', 'E', '0', '1', '9', 't', 'r',
    'u', 'f', 'a', 'l', 's', 'n', 'b', 'x', ' ', '\t', '\n', '\r', '\u{0}', '\u{1}', '\u{1f}',
    '\u{7f}', '\u{a0}', '\u{2028}', 'é', '€', '😀',
];

/// Strings drawn from [`PALETTE`].
struct Text(usize);

impl Strategy for Text {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let len = rng.below(self.0 as u64 + 1) as usize;
        (0..len)
            .map(|_| PALETTE[rng.below(PALETTE.len() as u64) as usize])
            .collect()
    }
}

/// Counter values at the edges of what the stream must carry losslessly.
fn counter(rng: &mut TestRng) -> u64 {
    match rng.below(5) {
        0 => 0,
        1 => (1 << 53) + 1,
        2 => u64::MAX,
        3 => rng.below(10_000),
        _ => rng.next_u64(),
    }
}

/// Whole cells: identities with hostile names and stats at the counter edges;
/// one in eight failed, with a hostile error text.
struct Cells;

impl Strategy for Cells {
    type Value = (CellId, Result<CpuStats, String>);

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let text = Text(12);
        let id = CellId {
            matrix: text.generate(rng),
            workload: text.generate(rng),
            config: text.generate(rng),
            seed: counter(rng),
            trace_len: counter(rng),
            fingerprint: counter(rng),
            model_version: match rng.below(3) {
                0 => u32::MAX,
                _ => rng.below(3) as u32,
            },
            spec_fingerprint: counter(rng),
        };
        let result = if rng.below(8) == 0 {
            Err(text.generate(rng))
        } else {
            let mut stats = CpuStats::default();
            for f in reference::STAT_FIELDS {
                reference::stat_set(&mut stats, f, counter(rng));
            }
            Ok(stats)
        };
        (id, result)
    }
}

/// Flat objects assembled from cell-line keys, foreign keys and values of every
/// kind, with stray whitespace — mostly well-formed, unlike [`Text`].
struct Objects;

impl Strategy for Objects {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        const KEYS: &[&str] = &[
            "\"matrix\"",
            "\"workload\"",
            "\"config\"",
            "\"seed\"",
            "\"schema\"",
            "\"status\"",
            "\"error\"",
            "\"cycles\"",
            "\"ipc\"",
            "\"m\\u0061trix\"",
            "\"\"",
        ];
        const VALUES: &[&str] = &[
            "0",
            "2",
            "-1",
            "1.5e3",
            "18446744073709551616",
            "1e",
            "\"ok\"",
            "\"failed\"",
            "\"\\u00e9\\n\"",
            "\"\\ud800\"",
            "\"\\b\"",
            "true",
            "false",
            "null",
            "nul",
            "[1]",
            "{}",
        ];
        let ws = |rng: &mut TestRng| [" ", "", "", "\t", "\n"][rng.below(5) as usize];
        let mut s = String::from(ws(rng));
        s.push('{');
        let n = rng.below(6);
        for i in 0..n {
            if i > 0 {
                s.push(',');
            }
            s.push_str(ws(rng));
            s.push_str(KEYS[rng.below(KEYS.len() as u64) as usize]);
            s.push_str(ws(rng));
            s.push(':');
            s.push_str(VALUES[rng.below(VALUES.len() as u64) as usize]);
            s.push_str(ws(rng));
        }
        s.push('}');
        s.push_str(ws(rng));
        s
    }
}

/// Every UTF-8-valid text obtained from `line` by replacing one byte with one of a
/// few structural or bit-flipped values.
fn single_byte_changes(line: &str) -> impl Iterator<Item = String> + '_ {
    (0..line.len()).flat_map(move |i| {
        let b = line.as_bytes()[i];
        [b ^ 0x01, b ^ 0x20, b'"', b'\\', b',', b'}', b'0', b' ']
            .into_iter()
            .filter(move |&to| to != b)
            .filter_map(move |to| {
                let mut bytes = line.as_bytes().to_vec();
                bytes[i] = to;
                String::from_utf8(bytes).ok()
            })
    })
}

/// Every prefix of `s` that ends on a character boundary.
fn truncations(s: &str) -> impl Iterator<Item = &str> {
    (0..s.len())
        .filter(|&n| s.is_char_boundary(n))
        .map(|n| &s[..n])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn cells_round_trip_byte_identically(cell in Cells) {
        let (id, result) = cell;
        let line = cell_line(&id, &result);
        prop_assert_eq!(&line, &reference::cell_line(&id, &result));
        let parsed = parse_cell_line(&line);
        prop_assert_eq!(shown(&parsed), shown(&Some((id, result))));
        same_as_reference(&line)?;
    }

    #[test]
    fn arbitrary_text_parses_as_the_reference_does(s in Text(48)) {
        same_as_reference(&s)?;
    }

    #[test]
    fn assembled_objects_parse_as_the_reference_does(s in Objects) {
        same_as_reference(&s)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn damaged_cell_lines_parse_as_the_reference_does(cell in Cells) {
        let line = cell_line(&cell.0, &cell.1);
        for cut in truncations(&line) {
            same_as_reference(cut)?;
        }
        for changed in single_byte_changes(&line).step_by(5) {
            same_as_reference(&changed)?;
        }
    }
}

#[test]
fn damaged_fixture_lines_parse_as_the_reference_does() {
    let line = FIXTURE_LINE.trim_end();
    for input in truncations(line)
        .map(String::from)
        .chain(single_byte_changes(line))
    {
        if let Err(e) = same_as_reference(&input) {
            panic!("{e:?} on {input:?}");
        }
    }
}

#[test]
fn duplicated_keys_resolve_as_the_reference_resolves_them() {
    let line = FIXTURE_LINE.trim_end();
    let failed = cell_line(
        &parse_cell_line(line).unwrap().0,
        &Err("boom \"x\"".to_string()),
    );
    for base in [line, failed.as_str()] {
        let body = &base[1..base.len() - 1];
        for (key, _) in reference::parse_flat_object(base).unwrap() {
            for value in ["7", "\"ok\"", "\"failed\"", "null"] {
                let dup = format!("{}:{value}", json::string(&key));
                for input in [format!("{{{dup},{body}}}"), format!("{{{body},{dup}}}")] {
                    if let Err(e) = same_as_reference(&input) {
                        panic!("{e:?} on {input:?}");
                    }
                }
            }
        }
    }
}

/// Serves `content` as the entry of `id` from a fresh cache rooted at `root`,
/// returning the lookup and whether `verify` kept the entry.
fn serve(root: &Path, id: &CellId, content: &str) -> (Option<CpuStats>, bool) {
    let key = ResultCache::cache_key(id);
    let path = root
        .join(format!("{:02x}", key >> 56))
        .join(format!("{key:016x}.svwr"));
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    fs::write(&path, content).unwrap();
    let cache = ResultCache::open(root, CacheMode::ReadOnly).unwrap();
    let hit = cache.lookup(id);
    let kept = cache.verify().unwrap().valid == 1;
    let _ = fs::remove_file(&path);
    (hit, kept)
}

/// What `verify` must decide for an entry of `id` holding `content`: the envelope
/// intact, a successful cell, filed at that cell's address.
fn reference_keeps(id: &CellId, content: &str) -> bool {
    reference::validate_entry(content)
        .and_then(reference::parse_cell_line)
        .is_some_and(|(stored, r)| {
            r.is_ok() && ResultCache::cache_key(&stored) == ResultCache::cache_key(id)
        })
}

#[test]
fn damaged_fixture_entries_are_served_as_the_reference_serves_them() {
    let root = fresh_temp_dir("entries");
    let (id, _) = parse_cell_line(FIXTURE_LINE).expect("fixture line parses");
    let mut checked = 0;
    for content in truncations(FIXTURE_ENTRY)
        .map(String::from)
        .chain(single_byte_changes(FIXTURE_ENTRY).step_by(3))
    {
        let (hit, kept) = serve(&root, &id, &content);
        let expected = reference::read_entry(&content, &id);
        assert_eq!(format!("{hit:?}"), format!("{expected:?}"), "{content:?}");
        assert_eq!(kept, reference_keeps(&id, &content), "{content:?}");
        checked += 1;
    }
    assert!(checked > 2_000, "{checked} entries checked");
    let _ = fs::remove_dir_all(&root);
}

// ------------------------------------------------------------ pinned formats

#[test]
fn the_fixture_line_is_restored_and_re_encoded_byte_identically() {
    let line = FIXTURE_LINE.trim_end();
    let (id, result) = parse_cell_line(line).expect("fixture line parses");
    let stats = result.expect("fixture cell succeeded");
    assert_eq!(
        shown(&Some((id.clone(), Ok(stats.clone())))),
        shown(&reference::parse_cell_line(line))
    );
    assert!(stats.svw.marked_loads > 0 && stats.hierarchy.l2.reads > 0);
    assert_eq!(
        cell_line(&id, &Ok(stats.clone())),
        line,
        "line layout moved"
    );

    let dir = fresh_temp_dir("sink");
    let path = dir.join("results.jsonl");
    fs::write(&path, FIXTURE_LINE).unwrap();
    let sink = JsonlSink::open(&path).unwrap();
    assert_eq!((sink.restored_count(), sink.skipped_lines()), (1, 0));
    assert_eq!(
        format!("{:?}", sink.lookup(&id)),
        format!("{:?}", Some(stats))
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn the_fixture_entry_is_served_from_its_address_and_rewritten_identically() {
    let (id, result) = parse_cell_line(FIXTURE_LINE).expect("fixture line parses");
    let stats = result.expect("fixture cell succeeded");
    assert_eq!(
        ResultCache::cache_key(&id),
        FIXTURE_KEY,
        "content address moved"
    );
    let payload = FIXTURE_ENTRY.lines().nth(1).unwrap();
    assert_eq!(
        payload,
        FIXTURE_LINE.trim_end(),
        "entry and line hold one cell"
    );

    let root = fresh_temp_dir("fixture");
    let (hit, kept) = serve(&root, &id, FIXTURE_ENTRY);
    assert!(kept, "verify keeps the fixture entry");
    assert_eq!(format!("{hit:?}"), format!("{:?}", Some(stats.clone())));

    // Storing the same cell writes the same bytes to the same path.
    let cache = ResultCache::open(&root, CacheMode::ReadWrite).unwrap();
    cache.store(&id, &stats).unwrap();
    let written = fs::read_to_string(root.join("b2").join("b232d4a96271bc88.svwr")).unwrap();
    assert_eq!(written, FIXTURE_ENTRY, "entry checksum or layout moved");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn the_content_address_of_a_fixed_cell_is_pinned() {
    let id = CellId {
        matrix: "summary/SSQ".into(),
        workload: "perl.d".into(),
        config: "+SVW+UPD \"q\"\\ é\u{1}".into(),
        seed: (1 << 53) + 1,
        trace_len: 60_000,
        fingerprint: u64::MAX,
        model_version: 2,
        spec_fingerprint: 0x0123_4567_89ab_cdef,
    };
    assert_eq!(ResultCache::cache_key(&id), 0x49aa_2bf8_cc07_e7d2);
}

/// The flat-object parser, cell-line codec and entry envelope as they were before
/// the borrowed scanner and the field table: the behaviour the current code must
/// reproduce exactly.
#[allow(dead_code)]
mod reference {
    use std::fmt::Write as _;

    use svw_cpu::CpuStats;
    use svw_sim::CellId;

    const ENTRY_MAGIC: &str = "svwr1";

    pub fn fnv1a(bytes: &[u8]) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash
    }

    /// What a lookup of `id` served from an entry file holding `content`.
    pub fn read_entry(content: &str, id: &CellId) -> Option<CpuStats> {
        match parse_cell_line(validate_entry(content)?) {
            Some((stored_id, Ok(stats))) if stored_id == *id => Some(stats),
            _ => None,
        }
    }

    /// Escapes `s` into a JSON string literal (including the surrounding quotes).
    pub fn string(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// Formats a float as a JSON number (`null` for NaN/infinity, which JSON cannot
    /// represent).
    pub fn number(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    }

    /// Formats an unsigned integer as an exact JSON number. Use this for 64-bit counters
    /// and seeds — routing them through [`number`] (an `f64`) silently rounds values at
    /// or above 2^53.
    pub fn uint(v: u64) -> String {
        v.to_string()
    }

    /// Joins `(key, serialized value)` pairs into a JSON object.
    pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
        let mut out = String::from("{");
        for (i, (key, value)) in fields.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&string(key));
            out.push(':');
            out.push_str(&value);
        }
        out.push('}');
        out
    }

    /// A scalar value parsed back out of a flat JSON object.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Scalar {
        /// A JSON string (unescaped).
        Str(String),
        /// A JSON number, kept as its raw token so integer consumers can parse it
        /// losslessly (`f64` would round above 2^53).
        Num(String),
        /// `true` or `false`.
        Bool(bool),
        /// `null`.
        Null,
    }

    impl Scalar {
        /// The value as a string, if it is one.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Scalar::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The value parsed as an unsigned integer, if it is a number.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Scalar::Num(raw) => raw.parse().ok(),
                _ => None,
            }
        }

        /// The value parsed as a float, if it is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Scalar::Num(raw) => raw.parse().ok(),
                _ => None,
            }
        }
    }

    /// Parses a *flat* JSON object — string/number/bool/null values only, no nesting —
    /// into `(key, value)` pairs, preserving order. This is exactly the shape the JSONL
    /// results stream emits, so the resume path can read its own output back without an
    /// external JSON dependency. Returns `None` on any malformed input (including nested
    /// containers).
    pub fn parse_flat_object(s: &str) -> Option<Vec<(String, Scalar)>> {
        let mut chars = s.trim().chars().peekable();
        if chars.next()? != '{' {
            return None;
        }
        let mut out = Vec::new();
        skip_ws(&mut chars);
        if chars.peek() == Some(&'}') {
            chars.next();
            return trailing_ok(&mut chars).then_some(out);
        }
        loop {
            skip_ws(&mut chars);
            let key = parse_string(&mut chars)?;
            skip_ws(&mut chars);
            if chars.next()? != ':' {
                return None;
            }
            skip_ws(&mut chars);
            let value = match chars.peek()? {
                '"' => Scalar::Str(parse_string(&mut chars)?),
                't' | 'f' | 'n' => {
                    let word: String =
                        std::iter::from_fn(|| chars.next_if(|c| c.is_ascii_alphabetic())).collect();
                    match word.as_str() {
                        "true" => Scalar::Bool(true),
                        "false" => Scalar::Bool(false),
                        "null" => Scalar::Null,
                        _ => return None,
                    }
                }
                '-' | '0'..='9' => {
                    let raw: String = std::iter::from_fn(|| {
                        chars.next_if(|c| {
                            c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')
                        })
                    })
                    .collect();
                    raw.parse::<f64>().ok()?;
                    Scalar::Num(raw)
                }
                _ => return None, // nested containers and anything else are rejected
            };
            out.push((key, value));
            skip_ws(&mut chars);
            match chars.next()? {
                ',' => continue,
                '}' => break,
                _ => return None,
            }
        }
        trailing_ok(&mut chars).then_some(out)
    }

    pub fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
        while chars.next_if(|c| c.is_ascii_whitespace()).is_some() {}
    }

    pub fn trailing_ok(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> bool {
        skip_ws(chars);
        chars.next().is_none()
    }

    pub fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<String> {
        if chars.next()? != '"' {
            return None;
        }
        let mut out = String::new();
        loop {
            match chars.next()? {
                '"' => return Some(out),
                '\\' => match chars.next()? {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'u' => {
                        let hex: String = (0..4).map_while(|_| chars.next()).collect();
                        let code = u32::from_str_radix(&hex, 16).ok()?;
                        out.push(char::from_u32(code)?);
                    }
                    _ => return None,
                },
                c => out.push(c),
            }
        }
    }

    /// The scalar `CpuStats` counters that round-trip through the JSONL stream, in
    /// emission order. [`stat_get`] and [`stat_set`] must cover exactly these names (a
    /// unit test enforces the round-trip).
    pub const STAT_FIELDS: &[&str] = &[
        "cycles",
        "committed",
        "loads_retired",
        "stores_retired",
        "loads_marked",
        "loads_filtered",
        "loads_reexecuted",
        "reexecuted_fsq_loads",
        "reexecuted_reuse_loads",
        "reexecuted_bypass_loads",
        "loads_eliminated",
        "eliminations_reuse",
        "eliminations_bypass",
        "eliminations_squash",
        "reexec_flushes",
        "ordering_flushes",
        "wrap_drains",
        "branch_mispredictions",
        "commit_stalled_on_reexec",
        "reexec_port_conflicts",
        "fwd_buffer_lookups",
        "fwd_buffer_hits",
        "store_set_squashes",
        // Nested substrate statistics, flattened so restored cells are lossless.
        "bp_predictions",
        "bp_mispredictions",
        "l1i_reads",
        "l1i_writes",
        "l1i_read_misses",
        "l1i_write_misses",
        "l1i_dirty_evictions",
        "l1d_reads",
        "l1d_writes",
        "l1d_read_misses",
        "l1d_write_misses",
        "l1d_dirty_evictions",
        "l2_reads",
        "l2_writes",
        "l2_read_misses",
        "l2_write_misses",
        "l2_dirty_evictions",
        "mem_accesses",
        "svw_marked_loads",
        "svw_filtered_loads",
        "svw_reexecuted_loads",
        "svw_reexec_mismatches",
        "svw_wrap_drains",
        "svw_ssbf_store_updates",
        "svw_ssbf_invalidation_updates",
    ];

    pub fn stat_get(s: &CpuStats, field: &str) -> u64 {
        match field {
            "cycles" => s.cycles,
            "committed" => s.committed,
            "loads_retired" => s.loads_retired,
            "stores_retired" => s.stores_retired,
            "loads_marked" => s.loads_marked,
            "loads_filtered" => s.loads_filtered,
            "loads_reexecuted" => s.loads_reexecuted,
            "reexecuted_fsq_loads" => s.reexecuted_fsq_loads,
            "reexecuted_reuse_loads" => s.reexecuted_reuse_loads,
            "reexecuted_bypass_loads" => s.reexecuted_bypass_loads,
            "loads_eliminated" => s.loads_eliminated,
            "eliminations_reuse" => s.eliminations_reuse,
            "eliminations_bypass" => s.eliminations_bypass,
            "eliminations_squash" => s.eliminations_squash,
            "reexec_flushes" => s.reexec_flushes,
            "ordering_flushes" => s.ordering_flushes,
            "wrap_drains" => s.wrap_drains,
            "branch_mispredictions" => s.branch_mispredictions,
            "commit_stalled_on_reexec" => s.commit_stalled_on_reexec,
            "reexec_port_conflicts" => s.reexec_port_conflicts,
            "fwd_buffer_lookups" => s.fwd_buffer_lookups,
            "fwd_buffer_hits" => s.fwd_buffer_hits,
            "store_set_squashes" => s.store_set_squashes,
            "bp_predictions" => s.branch_predictor.predictions,
            "bp_mispredictions" => s.branch_predictor.mispredictions,
            "l1i_reads" => s.hierarchy.l1i.reads,
            "l1i_writes" => s.hierarchy.l1i.writes,
            "l1i_read_misses" => s.hierarchy.l1i.read_misses,
            "l1i_write_misses" => s.hierarchy.l1i.write_misses,
            "l1i_dirty_evictions" => s.hierarchy.l1i.dirty_evictions,
            "l1d_reads" => s.hierarchy.l1d.reads,
            "l1d_writes" => s.hierarchy.l1d.writes,
            "l1d_read_misses" => s.hierarchy.l1d.read_misses,
            "l1d_write_misses" => s.hierarchy.l1d.write_misses,
            "l1d_dirty_evictions" => s.hierarchy.l1d.dirty_evictions,
            "l2_reads" => s.hierarchy.l2.reads,
            "l2_writes" => s.hierarchy.l2.writes,
            "l2_read_misses" => s.hierarchy.l2.read_misses,
            "l2_write_misses" => s.hierarchy.l2.write_misses,
            "l2_dirty_evictions" => s.hierarchy.l2.dirty_evictions,
            "mem_accesses" => s.hierarchy.memory_accesses,
            "svw_marked_loads" => s.svw.marked_loads,
            "svw_filtered_loads" => s.svw.filtered_loads,
            "svw_reexecuted_loads" => s.svw.reexecuted_loads,
            "svw_reexec_mismatches" => s.svw.reexec_mismatches,
            "svw_wrap_drains" => s.svw.wrap_drains,
            "svw_ssbf_store_updates" => s.svw.ssbf_store_updates,
            "svw_ssbf_invalidation_updates" => s.svw.ssbf_invalidation_updates,
            _ => unreachable!("unknown stat field {field}"),
        }
    }

    pub fn stat_set(s: &mut CpuStats, field: &str, v: u64) {
        match field {
            "cycles" => s.cycles = v,
            "committed" => s.committed = v,
            "loads_retired" => s.loads_retired = v,
            "stores_retired" => s.stores_retired = v,
            "loads_marked" => s.loads_marked = v,
            "loads_filtered" => s.loads_filtered = v,
            "loads_reexecuted" => s.loads_reexecuted = v,
            "reexecuted_fsq_loads" => s.reexecuted_fsq_loads = v,
            "reexecuted_reuse_loads" => s.reexecuted_reuse_loads = v,
            "reexecuted_bypass_loads" => s.reexecuted_bypass_loads = v,
            "loads_eliminated" => s.loads_eliminated = v,
            "eliminations_reuse" => s.eliminations_reuse = v,
            "eliminations_bypass" => s.eliminations_bypass = v,
            "eliminations_squash" => s.eliminations_squash = v,
            "reexec_flushes" => s.reexec_flushes = v,
            "ordering_flushes" => s.ordering_flushes = v,
            "wrap_drains" => s.wrap_drains = v,
            "branch_mispredictions" => s.branch_mispredictions = v,
            "commit_stalled_on_reexec" => s.commit_stalled_on_reexec = v,
            "reexec_port_conflicts" => s.reexec_port_conflicts = v,
            "fwd_buffer_lookups" => s.fwd_buffer_lookups = v,
            "fwd_buffer_hits" => s.fwd_buffer_hits = v,
            "store_set_squashes" => s.store_set_squashes = v,
            "bp_predictions" => s.branch_predictor.predictions = v,
            "bp_mispredictions" => s.branch_predictor.mispredictions = v,
            "l1i_reads" => s.hierarchy.l1i.reads = v,
            "l1i_writes" => s.hierarchy.l1i.writes = v,
            "l1i_read_misses" => s.hierarchy.l1i.read_misses = v,
            "l1i_write_misses" => s.hierarchy.l1i.write_misses = v,
            "l1i_dirty_evictions" => s.hierarchy.l1i.dirty_evictions = v,
            "l1d_reads" => s.hierarchy.l1d.reads = v,
            "l1d_writes" => s.hierarchy.l1d.writes = v,
            "l1d_read_misses" => s.hierarchy.l1d.read_misses = v,
            "l1d_write_misses" => s.hierarchy.l1d.write_misses = v,
            "l1d_dirty_evictions" => s.hierarchy.l1d.dirty_evictions = v,
            "l2_reads" => s.hierarchy.l2.reads = v,
            "l2_writes" => s.hierarchy.l2.writes = v,
            "l2_read_misses" => s.hierarchy.l2.read_misses = v,
            "l2_write_misses" => s.hierarchy.l2.write_misses = v,
            "l2_dirty_evictions" => s.hierarchy.l2.dirty_evictions = v,
            "mem_accesses" => s.hierarchy.memory_accesses = v,
            "svw_marked_loads" => s.svw.marked_loads = v,
            "svw_filtered_loads" => s.svw.filtered_loads = v,
            "svw_reexecuted_loads" => s.svw.reexecuted_loads = v,
            "svw_reexec_mismatches" => s.svw.reexec_mismatches = v,
            "svw_wrap_drains" => s.svw.wrap_drains = v,
            "svw_ssbf_store_updates" => s.svw.ssbf_store_updates = v,
            "svw_ssbf_invalidation_updates" => s.svw.ssbf_invalidation_updates = v,
            _ => unreachable!("unknown stat field {field}"),
        }
    }

    /// Serializes one finished cell as a single JSONL line (no trailing newline).
    pub fn cell_line(id: &CellId, result: &Result<CpuStats, String>) -> String {
        let mut fields: Vec<(&str, String)> = vec![
            ("matrix", string(&id.matrix)),
            ("workload", string(&id.workload)),
            ("config", string(&id.config)),
            ("seed", uint(id.seed)),
            ("trace_len", uint(id.trace_len)),
            ("fingerprint", uint(id.fingerprint)),
            ("schema", uint(svw_sim::RESULT_SCHEMA_VERSION)),
            ("model_version", uint(u64::from(id.model_version))),
            ("spec_fingerprint", uint(id.spec_fingerprint)),
        ];
        match result {
            Ok(stats) => {
                fields.push(("status", string("ok")));
                for f in STAT_FIELDS {
                    fields.push((f, uint(stat_get(stats, f))));
                }
                // Derived metrics for human and downstream consumers (not read back).
                fields.push(("ipc", number(stats.ipc())));
                fields.push(("reexec_rate", number(stats.reexec_rate())));
                fields.push(("filter_rate", number(stats.filter_rate())));
            }
            Err(msg) => {
                fields.push(("status", string("failed")));
                fields.push(("error", string(msg)));
            }
        }
        object(fields)
    }

    /// Parses one JSONL line back into its cell identity and result. Lines with
    /// `status: "failed"` yield `Err(error)`; malformed lines yield `None`.
    pub fn parse_cell_line(line: &str) -> Option<(CellId, Result<CpuStats, String>)> {
        let fields = parse_flat_object(line)?;
        let lookup = |k: &str| fields.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        // Lines written under a different result schema (e.g. by an older binary
        // that predates the lineage fields) fail to parse and are re-simulated.
        if lookup("schema")?.as_u64()? != svw_sim::RESULT_SCHEMA_VERSION {
            return None;
        }
        let id = CellId {
            matrix: lookup("matrix")?.as_str()?.to_string(),
            workload: lookup("workload")?.as_str()?.to_string(),
            config: lookup("config")?.as_str()?.to_string(),
            seed: lookup("seed")?.as_u64()?,
            trace_len: lookup("trace_len")?.as_u64()?,
            fingerprint: lookup("fingerprint")?.as_u64()?,
            model_version: u32::try_from(lookup("model_version")?.as_u64()?).ok()?,
            spec_fingerprint: lookup("spec_fingerprint")?.as_u64()?,
        };
        match lookup("status")?.as_str()? {
            "ok" => {
                let mut stats = CpuStats::default();
                for f in STAT_FIELDS {
                    stat_set(&mut stats, f, lookup(f)?.as_u64()?);
                }
                Some((id, Ok(stats)))
            }
            "failed" => {
                let msg = lookup("error")
                    .and_then(Scalar::as_str)
                    .unwrap_or("unknown failure")
                    .to_string();
                Some((id, Err(msg)))
            }
            _ => None,
        }
    }

    /// Structural validation shared by lookup and verify: returns the payload line
    /// when the envelope (magic, checksum, framing) is intact.
    pub fn validate_entry(content: &str) -> Option<&str> {
        let (header, rest) = content.split_once('\n')?;
        let payload = rest.strip_suffix('\n')?;
        if payload.contains('\n') {
            return None;
        }
        let (magic, checksum) = header.split_once(' ')?;
        if magic != ENTRY_MAGIC {
            return None;
        }
        let checksum = u64::from_str_radix(checksum, 16).ok()?;
        if checksum != fnv1a(payload.as_bytes()) {
            return None;
        }
        Some(payload)
    }
}
