//! Quickstart: compile a MiniC program, run it under IPDS protection, and
//! watch a memory-tampering attack get caught.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use ipds::{Input, Protected};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A toy session: `role` is read once and consulted twice. The two
    // checks are correlated — they must agree unless `role` is legally
    // rewritten in between (it is not).
    let protected = Protected::compile(
        r#"
        fn main() -> int {
            int role; int payload;
            role = read_int();
            if (role == 1) { print_int(100); }   // admin banner
            payload = read_int();                 // attacker-visible input
            print_int(payload);
            if (role == 1) { print_int(999); }   // privileged operation
            else { print_int(0); }
            return 0;
        }
        "#,
    )?;

    // The compiler found the correlations:
    let main_tables = &protected.analysis.functions[0];
    println!(
        "compiled: {} branches, {} checked, {} BAT entries, tables {}+{}+{} bits",
        main_tables.branches.len(),
        main_tables.checked_count(),
        main_tables.bat_entry_count(),
        main_tables.sizes.bsv_bits,
        main_tables.sizes.bcv_bits,
        main_tables.sizes.bat_bits,
    );

    // Clean run as a regular user: no alarm, no privilege.
    let clean = protected.run(&[Input::Int(0), Input::Int(7)]);
    println!(
        "clean run: output={:?} alarms={}",
        clean.output,
        clean.alarms.len()
    );
    assert!(!clean.detected());

    // Attack: flip `role` to admin after the first check committed. The
    // session builder validates the variable name up front (a typo is an
    // `ipds::Error`, not a panic); the report carries the checker's stats.
    let attacked = protected
        .session()
        .inputs(&[Input::Int(0), Input::Int(7)])
        .tamper(8, "role", 1)
        .run()?;
    println!(
        "attacked run: output={:?} alarms={} ({} branches seen, {} checked)",
        attacked.output,
        attacked.alarms.len(),
        attacked.stats.branches,
        attacked.stats.verified,
    );
    for a in &attacked.alarms {
        println!(
            "  ALARM at pc {:#x}: expected {}, branch went {}",
            a.pc,
            a.expected,
            if a.actual { "taken" } else { "not-taken" }
        );
    }
    assert!(attacked.detected(), "the tampered path is infeasible");
    println!("the infeasible path was detected — zero false positives, by construction");
    Ok(())
}
