//! Criterion: microarchitectural simulator performance — cache access
//! rate and full colocation runs under both disciplines.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use snic_uarch::cache::{Cache, CacheConfig, Partition};
use snic_uarch::config::MachineConfig;
use snic_uarch::engine::run_colocated_warm;
use snic_uarch::stream::{EventSource, SyntheticStream};

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_access");
    group.throughput(Throughput::Elements(100_000));
    for (name, partition) in [
        ("shared", Partition::Shared),
        ("static4", Partition::StaticWays { tenants: 4 }),
    ] {
        group.bench_function(name, |b| {
            let mut cache = Cache::new(
                CacheConfig {
                    size: 4 << 20,
                    ways: 16,
                    line: 64,
                },
                partition.clone(),
            );
            let mut addr = 0u64;
            b.iter(|| {
                let mut hits = 0u64;
                for i in 0..100_000u64 {
                    addr = addr.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
                    if cache.access((i % 4) as u32, addr % (8 << 20)) {
                        hits += 1;
                    }
                }
                hits
            });
        });
    }
    group.finish();
}

fn bench_engine(c: &mut Criterion) {
    let streams = || -> Vec<EventSource> {
        (0..4)
            .map(|i| SyntheticStream::new(2 << 20, 6, 4, 50_000, 100 + i).into())
            .collect()
    };
    let mut group = c.benchmark_group("colocated_run_4nf_50k");
    group.bench_function("commodity", |b| {
        b.iter(|| run_colocated_warm(&MachineConfig::commodity(4, 4 << 20), streams(), &[]))
    });
    group.bench_function("snic", |b| {
        b.iter(|| run_colocated_warm(&MachineConfig::snic(4, 4 << 20), streams(), &[]))
    });
    group.finish();
}

criterion_group!(benches, bench_cache, bench_engine);
criterion_main!(benches);
