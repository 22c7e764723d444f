//! Alias/summary edge cases: escape through data structures, memcpy
//! pointer propagation, read-only classification, and conservatism under
//! unknown flows.

use ipds_dataflow::{AccessClass, AliasAnalysis, CallEffect, Facts, MemVar, Summaries};
use ipds_ir::{Address, Inst, Program, VarId};

fn setup(src: &str) -> (Program, AliasAnalysis, Summaries) {
    let p = ipds_ir::parse(src).unwrap();
    let Facts { alias, summaries } = Facts::compute(&p);
    (p, alias, summaries)
}

fn local(p: &Program, fname: &str, vname: &str) -> MemVar {
    let f = p.function_by_name(fname).unwrap();
    let idx = f.vars.iter().position(|v| v.name == vname).unwrap();
    MemVar::local(f.id, VarId::local(idx as u32))
}

fn ptr_store_classes(p: &Program, a: &AliasAnalysis, fname: &str) -> Vec<AccessClass> {
    let f = p.function_by_name(fname).unwrap();
    let mut out = Vec::new();
    for (_, b) in f.iter_blocks() {
        for inst in &b.insts {
            if let Inst::Store {
                addr: addr @ Address::Ptr { .. },
                ..
            } = inst
            {
                out.push(a.classify(p, f.id, addr));
            }
        }
    }
    out
}

#[test]
fn pointer_stored_in_array_escapes_conservatively() {
    // &x goes into an array cell; a pointer loaded back out must may-point
    // to x.
    let (p, a, _) = setup(
        "fn main() -> int { int x; int slots[4]; int *q; \
         slots[0] = &x; q = slots[0]; *q = 5; return x; }",
    );
    let x = local(&p, "main", "x");
    let classes = ptr_store_classes(&p, &a, "main");
    assert!(!classes.is_empty());
    assert!(
        classes.iter().all(|c| c.may_touch(x)),
        "pointer through the array must reach x: {classes:?}"
    );
}

#[test]
fn memcpy_moves_pointers_between_objects() {
    let (p, a, _) = setup(
        "fn main() -> int { int x; int src[2]; int dst[2]; int *q; \
         src[0] = &x; memcpy(dst, src, 2); q = dst[0]; *q = 3; return x; }",
    );
    let x = local(&p, "main", "x");
    let classes = ptr_store_classes(&p, &a, "main");
    assert!(
        classes.iter().all(|c| c.may_touch(x)),
        "memcpy must propagate points-to: {classes:?}"
    );
}

#[test]
fn summaries_expand_transitive_pointer_chains() {
    // outer passes its pointer through to inner; the summary of outer must
    // reach main's local.
    let (p, _, s) = setup(
        "fn inner(int *p) { *p = 1; } \
         fn outer(int *p) { inner(p); } \
         fn main() -> int { int x; outer(&x); return x; }",
    );
    let outer = p.function_by_name("outer").unwrap();
    let x = local(&p, "main", "x");
    assert!(s.of(outer.id).may_write(x), "{:?}", s.of(outer.id));
    assert!(!matches!(s.of(outer.id), CallEffect::Any));
}

#[test]
fn readonly_literals_do_not_poison_writes() {
    // strcmp against a literal reads the read-only pool but writes nothing;
    // the function stays pure.
    let (p, _, s) = setup(
        "fn check(int *buf) -> int { return strcmp(buf, \"admin\"); } \
         fn main() -> int { int b[8]; strcpy(b, \"admin\"); return check(b); }",
    );
    let check = p.function_by_name("check").unwrap();
    assert!(s.of(check.id).is_nothing(), "{:?}", s.of(check.id));
}

#[test]
fn two_pointer_param_callers_merge_contexts() {
    // Context-insensitive points-to: set() called with &a and &b means its
    // store may touch both — conservative but never wrong.
    let (p, a, _) = setup(
        "fn set(int *p) { *p = 9; } \
         fn main() -> int { int a; int b; set(&a); set(&b); return a + b; }",
    );
    let va = local(&p, "main", "a");
    let vb = local(&p, "main", "b");
    let classes = ptr_store_classes(&p, &a, "set");
    assert_eq!(classes.len(), 1);
    assert!(
        classes[0].may_touch(va) && classes[0].may_touch(vb),
        "{classes:?}"
    );
}

#[test]
fn arithmetic_on_pointers_keeps_targets() {
    let (p, a, _) = setup(
        "fn main() -> int { int buf[8]; int *q; q = buf; q = q + 3; *q = 1; return buf[3]; }",
    );
    let buf = local(&p, "main", "buf");
    let classes = ptr_store_classes(&p, &a, "main");
    assert!(classes.iter().all(|c| c.may_touch(buf)), "{classes:?}");
    assert!(
        classes.iter().all(|c| !matches!(c, AccessClass::Any)),
        "in-bounds pointer arithmetic must not widen to Any: {classes:?}"
    );
}

#[test]
fn integer_laundered_pointer_is_any() {
    // A pointer forged from arithmetic on an input is unresolvable.
    let (p, a, _) = setup("fn main() -> int { int *q; q = read_int() * 8; *q = 1; return 0; }");
    let classes = ptr_store_classes(&p, &a, "main");
    assert!(
        classes.iter().all(|c| matches!(c, AccessClass::Any)),
        "{classes:?}"
    );
}

#[test]
fn effects_of_exit_and_prints_are_empty() {
    let (p, a, s) =
        setup("fn main() -> int { print_int(1); print_str(\"x\"); exit(0); return 0; }");
    let main = p.main().unwrap();
    for (_, b) in main.iter_blocks() {
        for inst in &b.insts {
            if matches!(inst, Inst::Call { .. }) {
                let eff = s.may_write(&p, &a, main.id, inst);
                assert!(eff.is_nothing(), "{inst:?} -> {eff:?}");
            }
        }
    }
}
