//! Random terminating MiniC programs for property testing.
//!
//! The zero-false-positive guarantee must hold for *any* program, not just
//! the hand-written suite, so the property tests generate random programs
//! here and assert that clean executions never alarm. Generated programs
//!
//! * always terminate (loops use dedicated, monotonically increasing
//!   counters that no other statement assigns),
//! * never fault (all memory accesses are through named scalars, in-bounds
//!   array indices, or `&var` pointers), and
//! * are branch-rich with shared variables so correlations actually form.

use ipds_sim::rng::StdRng;

/// Tuning for the program generator.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Scalar variables available to statements.
    pub num_vars: u32,
    /// Statements per block (upper bound).
    pub max_stmts: u32,
    /// Maximum nesting depth of `if`/`while`.
    pub max_depth: u32,
    /// Loop bound for generated `while` loops.
    pub loop_bound: u32,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            num_vars: 5,
            max_stmts: 6,
            max_depth: 3,
            loop_bound: 4,
        }
    }
}

struct Gen {
    rng: StdRng,
    cfg: GenConfig,
    out: String,
    counters: u32,
    indent: usize,
}

impl Gen {
    fn line(&mut self, s: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(s);
        self.out.push('\n');
    }

    fn var(&mut self) -> String {
        format!("v{}", self.rng.gen_range(0..self.cfg.num_vars))
    }

    fn expr(&mut self) -> String {
        match self.rng.gen_range(0..6) {
            0 => format!("{}", self.rng.gen_range(-20..20)),
            1 => self.var(),
            2 => format!("{} + {}", self.var(), self.rng.gen_range(1..5)),
            3 => format!("{} - {}", self.var(), self.rng.gen_range(1..5)),
            4 => "read_int()".to_string(),
            _ => {
                let a = self.var();
                let b = self.var();
                format!("calc({a}, {b})")
            }
        }
    }

    fn cond(&mut self) -> String {
        let v = self.var();
        let op = ["<", "<=", ">", ">=", "==", "!="][self.rng.gen_range(0..6usize)];
        let c = self.rng.gen_range(-10..10);
        match self.rng.gen_range(0..4) {
            // Fig. 3.c-style arithmetic in the condition.
            0 => format!("{v} - 1 {op} {c}"),
            _ => format!("{v} {op} {c}"),
        }
    }

    fn stmt(&mut self, depth: u32) {
        match self.rng.gen_range(0..10) {
            0..=3 => {
                let v = self.var();
                let e = self.expr();
                self.line(&format!("{v} = {e};"));
            }
            4 => {
                let v = self.var();
                self.line(&format!("print_int({v});"));
            }
            5 => {
                let v = self.var();
                self.line(&format!("poke(&{v}, read_int());"));
            }
            6..=8 if depth < self.cfg.max_depth => {
                let c = self.cond();
                self.line(&format!("if ({c}) {{"));
                self.indent += 1;
                self.block(depth + 1);
                self.indent -= 1;
                if self.rng.gen_bool(0.5) {
                    self.line("} else {");
                    self.indent += 1;
                    self.block(depth + 1);
                    self.indent -= 1;
                }
                self.line("}");
            }
            9 if depth < self.cfg.max_depth && self.counters < max_counters(&self.cfg) => {
                // Bounded loop with a dedicated counter that nothing else
                // writes.
                let k = self.counters;
                self.counters += 1;
                let c = self.cond();
                let bound = self.cfg.loop_bound;
                self.line(&format!("c{k} = 0;"));
                self.line(&format!("while (c{k} < {bound} && ({c})) {{"));
                self.indent += 1;
                self.line(&format!("c{k} = c{k} + 1;"));
                self.block(depth + 1);
                self.indent -= 1;
                self.line("}");
            }
            _ => {
                let v = self.var();
                self.line(&format!("{v} = {v} + 1;"));
            }
        }
    }

    fn block(&mut self, depth: u32) {
        let n = self.rng.gen_range(1..=self.cfg.max_stmts);
        for _ in 0..n {
            self.stmt(depth);
        }
    }
}

/// Counts how many loop counters a config can possibly emit (used to
/// pre-declare them).
fn max_counters(cfg: &GenConfig) -> u32 {
    // Generous upper bound: one per statement slot in the whole tree.
    let mut total = 1u32;
    for _ in 0..cfg.max_depth {
        total = total.saturating_mul(cfg.max_stmts + 1);
    }
    total.min(256)
}

/// Generates a self-contained MiniC program from a seed.
///
/// The result always parses, always terminates and never faults on any
/// input stream (see module docs); programs differ in shape with the seed.
pub fn generate_program(seed: u64, cfg: GenConfig) -> String {
    let mut g = Gen {
        rng: StdRng::seed_from_u64(seed),
        cfg,
        out: String::new(),
        counters: 0,
        indent: 0,
    };
    g.line("// auto-generated property-test program");
    g.line("int g0;");
    g.line("int g1 = 3;");
    g.line("fn poke(int *p, int v) { *p = v; }");
    g.line("fn calc(int a, int b) -> int {");
    g.indent = 1;
    g.line("if (a < b) { return b - a; }");
    g.line("if (a == b) { return a; }");
    g.line("return a - b;");
    g.indent = 0;
    g.line("}");
    g.line("fn main() -> int {");
    g.indent = 1;
    let pre_counters = max_counters(&g.cfg);
    for i in 0..g.cfg.num_vars {
        g.line(&format!("int v{i};"));
    }
    for k in 0..pre_counters {
        g.line(&format!("int c{k};"));
    }
    for i in 0..g.cfg.num_vars {
        let init = if g.rng.gen_bool(0.5) {
            "read_int()".to_string()
        } else {
            format!("{}", g.rng.gen_range(-10..10))
        };
        g.line(&format!("v{i} = {init};"));
    }
    g.block(0);
    // Mix globals in, touching the same variables again.
    g.line("g0 = v0;");
    g.line("if (g0 < 5) { print_int(g0); }");
    g.line("if (g0 < 5) { print_int(1); } else { print_int(2); }");
    g.line("return v0;");
    g.indent = 0;
    g.line("}");
    assert!(
        g.counters <= pre_counters,
        "generator used more counters than declared"
    );
    g.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipds_sim::{ExecLimits, ExecStatus, Input, Interp, NullObserver};

    /// `(config, seed)` pairs: the default shape, plus one deep and wide
    /// enough to exhaust the pre-declared loop counters.
    fn cases() -> impl Iterator<Item = (GenConfig, u64)> {
        let deep = GenConfig {
            num_vars: 8,
            max_stmts: 14,
            max_depth: 5,
            loop_bound: 4,
        };
        [GenConfig::default(), deep]
            .into_iter()
            .flat_map(|cfg| (0..40).map(move |seed| (cfg, seed)))
    }

    #[test]
    fn generated_programs_parse() {
        for (cfg, seed) in cases() {
            let src = generate_program(seed, cfg);
            let p = ipds_ir::parse(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
            assert!(p.branch_count() >= 2, "seed {seed} too simple");
        }
    }

    #[test]
    fn generated_programs_terminate_cleanly() {
        for (cfg, seed) in cases() {
            let src = generate_program(seed, cfg);
            let p = ipds_ir::parse(&src).unwrap();
            let inputs: Vec<Input> = (0..64)
                .map(|i| Input::Int((seed as i64 * 7 + i) % 23 - 11))
                .collect();
            let mut interp = Interp::new(
                &p,
                inputs,
                ExecLimits {
                    max_steps: 2_000_000,
                    max_depth: 64,
                },
            );
            let status = interp.run(&mut NullObserver);
            assert!(
                matches!(status, ExecStatus::Exited(_)),
                "seed {seed} ended with {status:?}\n{src}"
            );
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let a = generate_program(9, GenConfig::default());
        let b = generate_program(9, GenConfig::default());
        assert_eq!(a, b);
        let c = generate_program(10, GenConfig::default());
        assert_ne!(a, c);
    }
}
