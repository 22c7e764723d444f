//! Keeps the `pipeline.*` and `faults.*` metric documentation honest.
//!
//! docs/PIPELINE.md and docs/OBSERVABILITY.md each carry a counter table;
//! both must name **exactly** the keys in
//! `ipds_analysis::PIPELINE_COUNTERS`, and a full-featured build
//! (optimizer + verifier + refiner + linter) must emit exactly that key
//! set — no documented-but-dead counters, no shipped-but-undocumented
//! ones. docs/FAULTS.md gets the same treatment against
//! `ipds_sim::faults::{FAULT_COUNTERS, FAULT_HISTOGRAMS}` and a live
//! fault campaign, docs/OBSERVABILITY.md's campaign table against
//! `ipds_sim::{CAMPAIGN_COUNTERS, CAMPAIGN_HISTOGRAMS}` and a live attack
//! campaign, and docs/SERVICE.md against the service crate's
//! `SERVICE_COUNTERS` / `SERVICE_HISTOGRAMS` / `FLEET_COUNTERS` and a
//! live synthetic fleet.

use std::collections::BTreeSet;

use ipds::analysis::pipeline::{build_source, BuildOptions};
use ipds::analysis::PIPELINE_COUNTERS;
use ipds::runtime::CHECKER_COUNTERS;
use ipds::service::{FLEET_COUNTERS, SERVICE_COUNTERS, SERVICE_HISTOGRAMS};
use ipds::sim::{CAMPAIGN_COUNTERS, CAMPAIGN_HISTOGRAMS, FAULT_COUNTERS, FAULT_HISTOGRAMS};
use ipds::telemetry::Histogram;
use ipds::workloads;

/// Extracts every `<prefix><snake_case>` token from a documentation file.
/// The prefix must start a word, so `bench_campaign.json` is not a
/// `campaign.` key.
fn doc_keys(path: &str, prefix: &str) -> BTreeSet<String> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path} must be readable from the workspace root: {e}"));
    let mut found = BTreeSet::new();
    for (i, _) in text.match_indices(prefix) {
        let glued = text[..i]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        if glued {
            continue;
        }
        let rest = &text[i + prefix.len()..];
        let key: String = rest
            .chars()
            .take_while(|c| c.is_ascii_lowercase() || *c == '_')
            .collect();
        if !key.is_empty() {
            found.insert(format!("{prefix}{key}"));
        }
    }
    found
}

/// Extracts every `pipeline.<snake_case>` token from a documentation file.
fn doc_counters(path: &str) -> BTreeSet<String> {
    doc_keys(path, "pipeline.")
}

#[test]
fn docs_agree_with_the_canonical_counter_list() {
    let canonical: BTreeSet<String> = PIPELINE_COUNTERS.iter().map(|s| s.to_string()).collect();
    for path in ["docs/PIPELINE.md", "docs/OBSERVABILITY.md"] {
        let documented = doc_counters(path);
        assert_eq!(
            documented, canonical,
            "{path} must document exactly the PIPELINE_COUNTERS keys"
        );
    }
}

#[test]
fn full_featured_build_emits_exactly_the_documented_keys() {
    // Compile from source so the front-end passes (and their `tokens` /
    // `functions` counters) run too. A nonzero `promote` budget opens the
    // ssa → mem2reg → deconstruct-ssa window, whose counters are
    // conditional like the refiner's and linter's, and `prune_feasibility`
    // turns on the prune-cfg pass so its three counters are emitted.
    let w = &workloads::all()[0];
    let build = build_source(
        w.source,
        BuildOptions {
            optimize: true,
            verify: true,
            refine: true,
            lint: true,
            promote: 50,
            prune_feasibility: true,
            ..BuildOptions::default()
        },
    )
    .expect("full-featured build must succeed");
    let emitted: BTreeSet<String> = build
        .metrics
        .counters()
        .map(|(name, _)| name.to_string())
        .collect();
    let canonical: BTreeSet<String> = PIPELINE_COUNTERS.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        emitted, canonical,
        "a full-featured build must emit exactly the documented counters"
    );
}

#[test]
fn faults_doc_agrees_with_the_canonical_key_list() {
    let canonical: BTreeSet<String> = FAULT_COUNTERS
        .iter()
        .chain(FAULT_HISTOGRAMS)
        .map(|s| s.to_string())
        .collect();
    let documented = doc_keys("docs/FAULTS.md", "faults.");
    assert_eq!(
        documented, canonical,
        "docs/FAULTS.md must document exactly FAULT_COUNTERS and FAULT_HISTOGRAMS"
    );
}

#[test]
fn fault_campaigns_emit_exactly_the_documented_keys() {
    // On every workload: exactly the documented keys, and a registry that
    // agrees with the typed tallies folded beside it.
    let canonical: BTreeSet<String> = FAULT_COUNTERS.iter().map(|s| s.to_string()).collect();
    for w in workloads::all() {
        let p = ipds::Protected::from_program(w.program(), &ipds::Config::default());
        let inputs = w.inputs(7);
        let r = p.fault_spec().inputs(&inputs).flips(4).seed(7).run();
        let metrics = &r.metrics;
        let counters: BTreeSet<String> = metrics.counters().map(|(k, _)| k.to_string()).collect();
        assert_eq!(
            counters, canonical,
            "{}: a fault campaign must emit exactly FAULT_COUNTERS",
            w.name
        );
        for key in FAULT_HISTOGRAMS {
            assert!(
                metrics.histogram(key).is_some(),
                "{}: a fault campaign must emit the `{key}` histogram",
                w.name
            );
        }
        for (key, typed) in [
            ("faults.injected", r.injected),
            ("faults.image", r.image),
            ("faults.checker", r.checker),
            ("faults.memory", r.memory),
            ("faults.detected", r.detected),
            ("faults.masked", r.masked),
            ("faults.crashed", r.crashed),
            ("faults.image_undetected", r.image_undetected),
        ] {
            assert_eq!(metrics.counter(key), u64::from(typed), "{}: {key}", w.name);
        }
        let mut latency = Histogram::default();
        for &l in &r.latencies {
            latency.observe(l);
        }
        assert_eq!(
            metrics.histogram("faults.detect_latency_branches"),
            Some(&latency),
            "{}: the latency histogram must be the typed latencies observed",
            w.name
        );
    }
}

#[test]
fn service_doc_agrees_with_the_canonical_key_lists() {
    let service: BTreeSet<String> = SERVICE_COUNTERS
        .iter()
        .chain(SERVICE_HISTOGRAMS)
        .map(|s| s.to_string())
        .collect();
    assert_eq!(
        doc_keys("docs/SERVICE.md", "service."),
        service,
        "docs/SERVICE.md must document exactly SERVICE_COUNTERS and SERVICE_HISTOGRAMS"
    );
    let fleet: BTreeSet<String> = FLEET_COUNTERS.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        doc_keys("docs/SERVICE.md", "fleet."),
        fleet,
        "docs/SERVICE.md must document exactly the FLEET_COUNTERS keys"
    );
}

#[test]
fn fleet_runs_emit_exactly_the_documented_keys() {
    // A small two-workload fleet exercises every counter class: verified
    // and rejected images, accepted and refused sessions, ingestion,
    // incidents and correlation verdicts.
    let wl: Vec<_> = workloads::all().into_iter().take(2).collect();
    let report = ipds::ServiceSpec::new()
        .workloads(wl)
        .sessions(8)
        .batch(64)
        .window(4)
        .run();
    let emitted: BTreeSet<String> = report
        .metrics
        .counters()
        .map(|(k, _)| k.to_string())
        .collect();
    let canonical: BTreeSet<String> = SERVICE_COUNTERS
        .iter()
        .chain(FLEET_COUNTERS)
        .map(|s| s.to_string())
        .collect();
    assert_eq!(
        emitted, canonical,
        "a fleet run must emit exactly the documented service and fleet counters"
    );
    for key in SERVICE_HISTOGRAMS {
        assert!(
            report.metrics.histogram(key).is_some(),
            "a fleet run must emit the `{key}` histogram"
        );
    }
}

#[test]
fn perf_doc_agrees_with_the_checker_counter_list() {
    assert_eq!(
        doc_keys("docs/PERF.md", "pool."),
        BTreeSet::new(),
        "the worker pool emits no metrics, so docs/PERF.md must document no pool.* key"
    );
    let checker: BTreeSet<String> = CHECKER_COUNTERS.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        doc_keys("docs/PERF.md", "checker."),
        checker,
        "docs/PERF.md must document exactly the CHECKER_COUNTERS keys"
    );
}

#[test]
fn observability_doc_agrees_with_the_canonical_campaign_key_list() {
    let canonical: BTreeSet<String> = CAMPAIGN_COUNTERS
        .iter()
        .chain(CAMPAIGN_HISTOGRAMS)
        .map(|s| s.to_string())
        .collect();
    assert_eq!(
        doc_keys("docs/OBSERVABILITY.md", "campaign."),
        canonical,
        "docs/OBSERVABILITY.md must document exactly CAMPAIGN_COUNTERS and CAMPAIGN_HISTOGRAMS"
    );
}

#[test]
fn attack_campaigns_emit_exactly_the_campaign_and_checker_counters() {
    // On every workload and at two thread counts: exactly the documented
    // keys, and a registry that agrees with the typed figures folded
    // beside it.
    let canonical: BTreeSet<&str> = CAMPAIGN_COUNTERS
        .iter()
        .chain(CHECKER_COUNTERS)
        .copied()
        .collect();
    for w in workloads::all() {
        let p = ipds::Protected::from_program(w.program(), &ipds::Config::default());
        let inputs = w.inputs(7);
        for threads in [1, 4] {
            let r = p
                .campaign_spec()
                .inputs(&inputs)
                .attacks(8)
                .seed(7)
                .threads(threads)
                .run();
            let metrics = &r.metrics;
            let emitted: BTreeSet<&str> = metrics.counters().map(|(k, _)| k).collect();
            assert_eq!(
                emitted, canonical,
                "{}: a {threads}-thread campaign must emit exactly the campaign and checker keys",
                w.name
            );
            for (key, _) in metrics.histograms() {
                assert!(
                    CAMPAIGN_HISTOGRAMS.contains(&key),
                    "{}: undocumented campaign histogram `{key}`",
                    w.name
                );
            }
            assert!(metrics.histogram("campaign.attack_steps").is_some());
            assert_eq!(metrics.counter("campaign.attacks"), 8);
            for (key, typed) in [
                ("campaign.attacks", r.attacks),
                ("campaign.attacks_cf_changed", r.cf_changed),
                ("campaign.attacks_detected", r.detected),
            ] {
                assert_eq!(metrics.counter(key), u64::from(typed), "{}: {key}", w.name);
            }
        }
    }
}
