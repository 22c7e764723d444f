//! Criterion bench over the Fig. 7 attack-campaign machinery: how fast one
//! seeded campaign (golden run + N attacks with full checking) executes per
//! workload. The printed figure itself comes from `exp_all fig7`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_campaigns(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_campaign");
    group.sample_size(10);
    for w in ipds_workloads::all() {
        let protected = ipds_bench::protect(&w);
        let inputs = w.inputs(1);
        group.bench_with_input(BenchmarkId::from_parameter(w.name), &w, |b, w| {
            b.iter(|| {
                protected
                    .campaign_spec()
                    .inputs(&inputs)
                    .attacks(10)
                    .seed(7)
                    .model(w.vuln)
                    .run()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_campaigns);
criterion_main!(benches);
