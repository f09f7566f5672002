//! The metric catalogue: every name the benchmark prints, its unit,
//! and which way is better. `BENCHMARK.json` at the repository root
//! must list exactly these (a self-test checks it).

/// `(name, unit, better)` of every end-to-end metric, printed by the
/// untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("rss_mb", "MiB", "lower"),
    ("ok_ratio", "ratio", "higher"),
    ("login_p50_us", "us", "lower"),
    ("identify_p50_us", "us", "lower"),
    ("identify_rps", "1/s", "higher"),
    ("write_p50_us", "us", "lower"),
];

/// The tail percentiles of the untraced pass. Their run-to-run spread on
/// a shared two-thread host is wider than any bound an end-to-end metric
/// may have, so they are reported (in the untraced run's table and
/// report, and as per-layer metrics of the traced run) but not gated.
pub const TAILS: &[&str] = &["login_p99_us", "identify_p99_us", "write_p99_us"];

/// Layers, named after the repository's modules (plus `loadgen`, the
/// benchmark's own generator), in attribution order.
pub const LAYERS: &[&str] = &[
    "loadgen",
    "net",
    "wire",
    "scheduler",
    "concurrent",
    "index",
    "store",
    "device",
    "fuzzy",
    "dsa",
    "bigint",
];

/// The end-to-end metrics whose traced-minus-untraced difference is
/// reported as tracing overhead (the ones measured during a pass;
/// set-up and memory are not traced).
pub const OVERHEAD_OF: &[&str] = &[
    "ok_ratio",
    "login_p50_us",
    "identify_p50_us",
    "identify_rps",
    "write_p50_us",
    "login_p99_us",
    "identify_p99_us",
    "write_p99_us",
];

/// `(name, unit, better)` of every per-layer metric other than the
/// generated `attr.*` and `overhead.*` families, printed by the traced
/// run (`--trace 1`).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("login_p99_us", "us", "lower"),
    ("identify_p99_us", "us", "lower"),
    ("write_p99_us", "us", "lower"),
    ("loadgen.lag_p99_us", "us", "lower"),
    ("error_rate", "ratio", "lower"),
    ("net.identify_self_us", "us", "lower"),
    ("net.finish_self_us", "us", "lower"),
    ("net.write_self_us", "us", "lower"),
    ("net.requests", "count", "higher"),
    ("net.responses_err", "count", "lower"),
    ("net.shed", "count", "lower"),
    ("wire.encode_us", "us", "lower"),
    ("wire.decode_us", "us", "lower"),
    ("scheduler.wait_us", "us", "lower"),
    ("scheduler.deadline_flush_ratio", "ratio", "lower"),
    ("scheduler.batch_mean", "count", "higher"),
    ("scheduler.queue_depth_p99", "count", "lower"),
    ("scheduler.shed_ratio", "ratio", "lower"),
    ("concurrent.identify_batch_us_per_probe", "us", "lower"),
    ("concurrent.finish_us", "us", "lower"),
    ("concurrent.finish_self_us", "us", "lower"),
    ("concurrent.enroll_us", "us", "lower"),
    ("concurrent.enroll_unique_us", "us", "lower"),
    ("concurrent.revoke_us", "us", "lower"),
    ("concurrent.lookups", "count", "higher"),
    ("index.miss_scan_us", "us", "lower"),
    ("index.hit_scan_us", "us", "lower"),
    ("index.batch_scan_us_per_probe", "us", "lower"),
    ("index.churn_miss_scan_us", "us", "lower"),
    ("index.match_ratio", "ratio", "higher"),
    ("store.append_us", "us", "lower"),
    ("store.journal_bytes_per_write", "B", "lower"),
    ("store.replay_us_per_record", "us", "lower"),
    ("store.checkpoint_s", "s", "lower"),
    ("store.recover_s", "s", "lower"),
    ("device.probe_sketch_us", "us", "lower"),
    ("device.respond_us", "us", "lower"),
    ("fuzzy.reproduce_us", "us", "lower"),
    ("dsa.verify_us", "us", "lower"),
    ("dsa.sign_us", "us", "lower"),
    ("dsa.keypair_from_seed_us", "us", "lower"),
    ("bigint.mod_pow_1024_us", "us", "lower"),
];

/// The full per-layer catalogue, `attr.*` and `overhead.*` included.
pub fn per_layer_all() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> = PER_LAYER
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u, b))
        .collect();
    for layer in LAYERS {
        out.push((format!("attr.{layer}.count"), "count", "higher"));
        out.push((format!("attr.{layer}.self_us"), "us", "lower"));
        out.push((format!("attr.{layer}.share"), "ratio", "lower"));
    }
    out.push(("attr.path_p50_us".into(), "us", "lower"));
    out.push(("attr.coverage".into(), "ratio", "higher"));
    for m in OVERHEAD_OF {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _, _)| n == m)
            .map(|&(_, u, _)| u)
            .expect("overhead of a known metric");
        out.push((format!("overhead.{m}"), unit, "lower"));
    }
    out
}

/// Unit of a catalogued metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|&(n, u, _)| (n.to_string(), u))
        .chain(per_layer_all().into_iter().map(|(n, u, _)| (n, u)))
        .find(|(n, _)| n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("uncatalogued metric {name}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::check::parse;
    use crate::json::Json;

    fn field<'a>(obj: &'a Json, key: &str) -> &'a Json {
        let Json::Obj(pairs) = obj else {
            panic!("not an object")
        };
        &pairs
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("no {key}"))
            .1
    }

    fn list(obj: &Json, key: &str) -> Vec<(String, String, String)> {
        let Json::Arr(items) = field(obj, key) else {
            panic!("{key} is not a list")
        };
        items
            .iter()
            .map(|m| {
                let s = |k: &str| match field(m, k) {
                    Json::Str(s) => s.clone(),
                    other => panic!("{k} is {other:?}"),
                };
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(list(&doc, "end_to_end"), e2e);
        let layers: Vec<_> = per_layer_all()
            .into_iter()
            .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
            .collect();
        assert_eq!(list(&doc, "per_layer"), layers);
        let Json::Arr(workloads) = field(&doc, "workloads") else {
            panic!("workloads is not a list")
        };
        let names: Vec<_> = workloads
            .iter()
            .map(|w| match field(w, "name") {
                Json::Str(s) => s.clone(),
                _ => panic!("bad workload name"),
            })
            .collect();
        assert_eq!(names, ["login", "churn"]);
        for n in &names {
            assert!(crate::workload::spec(n).is_some(), "{n} has no spec");
        }
    }

    #[test]
    fn names_are_unique_and_within_limits() {
        let mut all: Vec<String> = END_TO_END.iter().map(|(n, _, _)| n.to_string()).collect();
        all.extend(per_layer_all().into_iter().map(|(n, _, _)| n));
        assert!(all.len() <= 16 + 128);
        assert!(per_layer_all().len() <= 128);
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
        for n in &all {
            assert!(
                n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric(),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'),
                "{n}"
            );
        }
    }
}
