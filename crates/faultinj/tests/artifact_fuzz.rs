//! Deterministic fuzz-style robustness test for the artifact parsers and
//! the merge.
//!
//! Truncated, byte-flipped, and out-of-range-number variants of real
//! shard-artifact, incident-sidecar, and epoch-summary lines go through
//! `parse_artifact`, `parse_incident_artifact`, `EpochSummary::parse`,
//! `merge_artifacts`, and `collect_incidents`. Every case must come back
//! as `Ok` or a typed error: a panic fails the test, and an allocation
//! sized by a hostile number would abort the whole binary.
//!
//! Single-test binary: shard execution reads deltas out of the
//! process-global metrics registry, so a concurrent campaign in this
//! process would pollute them.

use diverseav::AgentMode;
use diverseav_fabric::Profile;
use diverseav_faultinj::{
    collect_incidents, execute_shard, incident_sidecar_path, merge_artifacts, parse_artifact,
    parse_incident_artifact, Campaign, CampaignScale, EpochSummary, FaultModelKind, ShardConfig,
    ShardError, ShardSpec,
};
use diverseav_simworld::{ScenarioKind, SensorConfig};
use std::collections::BTreeMap;
use std::fs;

/// A short CPU-permanent campaign: most injected runs crash, so the
/// sidecars carry real incident payloads.
fn shard_cfg(index: usize, count: usize) -> ShardConfig {
    ShardConfig {
        campaign: Campaign {
            scenario: ScenarioKind::LongRoute(0),
            target: Profile::Cpu,
            kind: FaultModelKind::Permanent,
            mode: AgentMode::RoundRobin,
        },
        scale: CampaignScale {
            n_transient: 2,
            permanent_repeats: 1,
            golden_runs: 2,
            long_route_duration: 2.0,
            training_runs: 1,
        },
        sensor: SensorConfig::default(),
        spec: ShardSpec { index, count },
        batch_size: 4,
        guided: None,
    }
}

/// (artifact text, sidecar text) of every shard of a `count`-shard cut.
fn shard_texts(count: usize) -> Vec<(String, String)> {
    (0..count)
        .map(|index| {
            let path = std::env::temp_dir().join(format!(
                "diverseav-artifact-fuzz-{}-{index}of{count}.jsonl",
                std::process::id()
            ));
            let _ = fs::remove_file(&path);
            let status = execute_shard(&shard_cfg(index, count), &path).expect("shard executes");
            assert!(status.complete);
            let sidecar = incident_sidecar_path(&path);
            let texts = (
                fs::read_to_string(&path).expect("artifact readable"),
                fs::read_to_string(&sidecar).expect("sidecar readable"),
            );
            let _ = fs::remove_file(&path);
            let _ = fs::remove_file(&sidecar);
            texts
        })
        .collect()
}

/// Parse, merge, and collect incidents; any typed error ends the chain.
fn pipeline(shards: &[(String, String)]) -> Result<usize, ShardError> {
    let mut arts = Vec::new();
    let mut sidecars = Vec::new();
    for (art, inc) in shards {
        arts.push(parse_artifact(art)?);
        sidecars.push(parse_incident_artifact(inc)?);
    }
    let mut incidents = 0;
    for m in merge_artifacts(&arts)? {
        incidents += collect_incidents(&m, &sidecars)?.len();
    }
    Ok(incidents)
}

/// xorshift64*: a fixed, seed-reproducible stream of mutation choices.
struct Stream(u64);

impl Stream {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n.max(1) as u64) as usize
    }
}

/// Numbers no artifact writer produces: past 2^53, past u32 / u64,
/// negative, fractional, infinite.
const HOSTILE_NUMBERS: [&str; 8] = [
    "1e20",
    "-1",
    "4294967300",
    "1099511627776",
    "9007199254740993",
    "18446744073709551616",
    "1.5",
    "1e400",
];
/// The same, for u64 values carried as decimal strings.
const HOSTILE_DECIMALS: [&str; 3] = ["18446744073709551615", "99999999999999999999", "-1"];
/// Bytes that change JSON structure when flipped in.
const PALETTE: &[u8] = b"{}[]\":,0123456789-+.eE ntfx\\";

/// Byte spans of every plain number and every all-digit string body in
/// a JSON line, with whether the span is a string body.
fn number_spans(line: &str) -> Vec<(usize, usize, bool)> {
    let b = line.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'"' => {
                let start = i + 1;
                let mut j = start;
                while j < b.len() && b[j] != b'"' {
                    j += if b[j] == b'\\' { 2 } else { 1 };
                }
                let end = j.min(b.len());
                if end > start && b[start..end].iter().all(u8::is_ascii_digit) {
                    spans.push((start, end, true));
                }
                i = end + 1;
            }
            b'-' | b'0'..=b'9' => {
                let start = i;
                while i < b.len() && matches!(b[i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
                {
                    i += 1;
                }
                spans.push((start, i, false));
            }
            _ => i += 1,
        }
    }
    spans
}

/// Truncated, byte-flipped, and out-of-range-number variants of `line`.
fn variants(line: &str, stream: &mut Stream) -> Vec<String> {
    let mut out = Vec::new();
    let cuts = (0..line.len().min(48)).chain((0..24).map(|_| stream.below(line.len())));
    out.extend(cuts.filter_map(|cut| line.get(..cut)).map(str::to_string));
    for _ in 0..32 {
        let mut bytes = line.as_bytes().to_vec();
        let at = stream.below(bytes.len());
        bytes[at] = PALETTE[stream.below(PALETTE.len())];
        out.push(String::from_utf8_lossy(&bytes).into_owned());
    }
    for (start, end, quoted) in number_spans(line) {
        let hostile: &[&str] = if quoted { &HOSTILE_DECIMALS } else { &HOSTILE_NUMBERS };
        for n in hostile {
            out.push(format!("{}{n}{}", &line[..start], &line[end..]));
        }
    }
    out
}

/// Replace line `at` of `text` with `line`.
fn with_line(text: &str, at: usize, line: &str) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    lines[at] = line;
    lines.join("\n") + "\n"
}

/// Replace the first `"key": <number>` in line `at` of `text`.
fn with_member(text: &str, at: usize, key: &str, value: &str) -> String {
    let line = text.lines().nth(at).expect("line exists");
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag).expect("member present") + tag.len();
    let end = start + line[start..].find([',', '}']).expect("member ends");
    with_line(text, at, &format!("{}{value}{}", &line[..start], &line[end..]))
}

/// Index of the first line of `text` whose type is `ty`.
fn line_of(text: &str, ty: &str) -> usize {
    let tag = format!("\"type\": \"{ty}\"");
    text.lines().position(|l| l.contains(&tag)).expect("line type present")
}

#[test]
fn corrupt_artifacts_yield_typed_errors_never_panics() {
    let single = shard_texts(1);
    let incidents = pipeline(&single).expect("clean 1-shard set merges");
    assert!(incidents > 0, "the CPU-permanent campaign must flush incident payloads");
    let pair = shard_texts(2);
    assert_eq!(pipeline(&pair).expect("clean 2-shard set merges"), incidents);
    let (art, inc) = &single[0];

    // A sidecar index past 2^53 once parsed to usize::MAX and overflowed
    // the seed-law check in `collect_incidents`.
    let at = line_of(inc, "incident");
    let bad = with_member(inc, at, "index", "1e20");
    let sidecar = parse_incident_artifact(&bad).expect("sidecar tails parse leniently");
    let merged =
        merge_artifacts(&[parse_artifact(art).expect("artifact parses")]).expect("artifact merges");
    let err = collect_incidents(&merged[0], &[sidecar]).expect_err("hostile index refused");
    assert!(matches!(err, ShardError::Mismatch(_)), "{err}");

    // A manifest claiming 2^40 guided epochs once sized a per-epoch
    // coverage table by it and aborted the process.
    let injected = art.lines().filter(|l| l.contains("\"kind\": \"injected\"")).count();
    let guided = format!(
        "{{\"epochs\": 1099511627776, \"epoch\": 0, \"budget\": {injected}, \
         \"epoch_start\": 0, \"epoch_runs\": {injected}, \"prior_digest\": \"0000000000000000\"}}"
    );
    let bad = art.replacen("\"guided\": null", &format!("\"guided\": {guided}"), 1);
    let parsed = parse_artifact(&bad).expect("guided manifest parses");
    assert!(merge_artifacts(&[parsed]).is_err(), "absurd epoch count refused, not allocated");

    // Declared run counts never size a buffer either.
    let bad = with_member(art, 0, "golden_runs", "1000000000000000");
    let parsed = parse_artifact(&bad).expect("manifest parses");
    let err = merge_artifacts(&[parsed]).expect_err("undelivered golden runs refused");
    assert!(err.to_string().contains("coverage gap"), "{err}");

    // Integer members are range-checked, not truncated: 4294967300 as a
    // u32 would have read back as schema version 4.
    let bad = with_member(art, 0, "schema_version", "4294967300");
    assert!(matches!(parse_artifact(&bad), Err(ShardError::Parse(_))));
    let bad = with_member(inc, 0, "shard_schema_version", "4294967300");
    assert!(matches!(parse_incident_artifact(&bad), Err(ShardError::Parse(_))));

    // The sweep: a sample of every line type, every variant, through the
    // whole pipeline. Outcomes are only counted; not panicking is the
    // property.
    let mut stream = Stream(0x5EED_F022);
    let mut outcomes: BTreeMap<&str, usize> = BTreeMap::new();
    let mut tally = |r: Result<usize, ShardError>| {
        let key = match r {
            Ok(_) => "ok",
            Err(ShardError::Parse(_)) => "parse",
            Err(ShardError::Mismatch(_)) => "mismatch",
            Err(ShardError::Io(_)) => "io",
        };
        *outcomes.entry(key).or_default() += 1;
    };
    let (art1, inc1) = &pair[1];
    let art_lines =
        [0, line_of(art1, "shard_run"), line_of(art1, "shard_batch"), line_of(art1, "shard_done")];
    for at in art_lines {
        let line = art1.lines().nth(at).expect("line exists").to_string();
        for v in variants(&line, &mut stream) {
            let mut shards = pair.clone();
            shards[1].0 = with_line(art1, at, &v);
            tally(pipeline(&shards));
        }
    }
    for at in [0, line_of(inc1, "incident"), line_of(inc1, "incidents_done")] {
        let line = inc1.lines().nth(at).expect("line exists").to_string();
        for v in variants(&line, &mut stream) {
            let mut shards = pair.clone();
            shards[1].1 = with_line(inc1, at, &v);
            tally(pipeline(&shards));
        }
    }
    let counts: BTreeMap<u64, (u64, u64)> =
        [(0x7100, (5, 1)), (0x7101, (3, 0)), (0x7110, (4, 2))].into_iter().collect();
    let summary = EpochSummary::from_counts(1, &counts).render();
    for v in variants(&summary, &mut stream) {
        tally(EpochSummary::parse(&v).map(|s| s.tallies.len()).map_err(ShardError::Parse));
    }
    assert!(outcomes.get("parse").is_some_and(|&n| n > 0), "{outcomes:?}");
    assert!(outcomes.get("mismatch").is_some_and(|&n| n > 0), "{outcomes:?}");
    assert!(outcomes.get("ok").is_some_and(|&n| n > 0), "{outcomes:?}");
}
