//! The compiler→binary→runtime hand-off: the serialized table image must
//! drive the checker identically to the in-memory analysis.

use ipds::{Config, Protected};
use ipds_analysis::TableImage;
use ipds_runtime::IpdsChecker;
use ipds_sim::{ExecLimits, Interp, IpdsObserver};

#[test]
fn loaded_image_checks_identically_on_every_workload() {
    for w in ipds_workloads::all() {
        let protected = Protected::from_program(w.program(), &Config::default());
        let image = TableImage::build(&protected.analysis);
        let loaded = image.load().expect("image loads");
        let inputs = w.inputs(4);

        let run = |analysis: &ipds_analysis::ProgramAnalysis| {
            let mut obs = IpdsObserver::new(IpdsChecker::new(analysis));
            obs.checker.on_call(protected.program.main().unwrap().id);
            let mut interp = Interp::new(&protected.program, inputs.clone(), ExecLimits::default());
            interp.run(&mut obs);
            (obs.checker.alarms().to_vec(), *obs.checker.stats())
        };

        let (alarms_a, stats_a) = run(&protected.analysis);
        let (alarms_b, stats_b) = run(&loaded);
        assert_eq!(alarms_a, alarms_b, "{}", w.name);
        assert_eq!(stats_a, stats_b, "{}", w.name);
        assert!(alarms_a.is_empty(), "{}: clean run must stay clean", w.name);
    }
}

#[test]
fn loaded_image_detects_the_same_attack() {
    let src = "fn main() -> int { int user; user = read_int(); \
               if (user == 1) { print_int(1); } \
               print_int(read_int()); \
               if (user == 1) { print_int(2); } else { print_int(3); } \
               return 0; }";
    let protected = Protected::compile(src).unwrap();
    let loaded = TableImage::build(&protected.analysis).load().unwrap();
    let reloaded = Protected {
        program: protected.program.clone(),
        analysis: loaded,
    };
    let inputs = [ipds::Input::Int(0), ipds::Input::Int(9)];
    let a = protected
        .session()
        .inputs(&inputs)
        .tamper(8, "user", 1)
        .run()
        .unwrap();
    let b = reloaded
        .session()
        .inputs(&inputs)
        .tamper(8, "user", 1)
        .run()
        .unwrap();
    assert!(a.detected() && b.detected());
    assert_eq!(a.alarms, b.alarms);
}

#[test]
fn image_sizes_are_modest() {
    // The attachable blob should be on the order of the table bits it
    // carries, not megabytes: overhead stays bounded.
    for w in ipds_workloads::all() {
        let protected = Protected::from_program(w.program(), &Config::default());
        let image = TableImage::build(&protected.analysis);
        let table_bits: usize = protected
            .analysis
            .functions
            .iter()
            .map(|f| f.sizes.total())
            .sum();
        let image_bits = image.len() * 8;
        assert!(
            image_bits < table_bits * 4 + 4096,
            "{}: image {} bits vs tables {} bits",
            w.name,
            image_bits,
            table_bits
        );
    }
}

#[test]
fn generated_program_with_an_oversized_bat_row_builds_clean() {
    use ipds_workloads::generator::{generate_program, GenConfig};
    let cfg = GenConfig {
        num_vars: 8,
        max_stmts: 10,
        max_depth: 4,
        loop_bound: 4,
    };
    let build = Protected::build()
        .verify_tables(true)
        .refine_correlations(true)
        .prune_feasibility(true)
        .lint_tables(true)
        .compile(&generate_program(5, cfg))
        .expect("full-option build verifies");
    assert_eq!(build.lint.expect("linted").error_count(), 0);
    // `main` carries a row longer than one packed row's 8-bit entry count.
    let functions = &build.protected.analysis.functions;
    let longest = functions.iter().flat_map(|f| f.bat.values().map(Vec::len));
    assert!(longest.max() > Some(255));
}
