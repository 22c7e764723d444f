//! A Figure-7-style attack campaign against one of the synthetic server
//! workloads: N independent seeded tamperings, reporting how many changed
//! control flow and how many the IPDS caught.
//!
//! ```sh
//! cargo run --release --example server_campaign -- httpd 200
//! ```

use ipds::{Config, Protected};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("httpd");
    let attacks: u32 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(100);

    let workload = ipds_workloads::by_name(name).ok_or_else(|| {
        format!(
            "unknown workload `{name}`; try one of: {}",
            ipds_workloads::all()
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
                .join(", ")
        )
    })?;

    let protected = Protected::from_program(workload.program(), &Config::default());
    let inputs = workload.inputs(2006);

    println!(
        "{name}: {} functions, {} branches ({} checked), attack model {:?}",
        protected.analysis.functions.len(),
        protected.analysis.branch_count(),
        protected.analysis.checked_count(),
        workload.vuln,
    );

    // The campaign spec builder: every knob is defaultable, and the result
    // and its metrics are bit-identical for any thread count.
    let result = protected
        .campaign_spec()
        .inputs(&inputs)
        .attacks(attacks)
        .seed(0xA77AC4)
        .model(workload.vuln)
        .threads(ipds_sim::default_threads())
        .run();
    let metrics = &result.metrics;
    println!("\n{attacks} independent attacks:");
    println!(
        "  changed control flow : {:>4}  ({:.1}%)",
        result.cf_changed,
        100.0 * result.cf_changed_rate()
    );
    println!(
        "  detected by IPDS     : {:>4}  ({:.1}%)",
        result.detected,
        100.0 * result.detected_rate()
    );
    println!(
        "  detected | cf-changed:        ({:.1}%)",
        100.0 * result.detected_given_cf()
    );
    if result.detected > 0 {
        println!(
            "  mean detection lag   : {:.1} branches after the paths diverged",
            result.mean_lag_branches
        );
    }
    println!(
        "\ntelemetry: {} branches checked across all attack runs, {} alarms",
        metrics.counter("checker.verified"),
        metrics.counter("checker.alarms")
    );
    if let Some(steps) = metrics.histogram("campaign.attack_steps") {
        println!(
            "  attack length: mean {:.0} steps (min {}, max {})",
            steps.mean(),
            steps.min,
            steps.max
        );
    }
    println!("\n(the paper's averages: 49.4% changed control flow, 29.3% detected)");
    Ok(())
}
