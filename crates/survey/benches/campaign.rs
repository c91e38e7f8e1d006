//! Campaign-throughput benches: hosts surveyed per second through the
//! full pipeline, and the population generator alone.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use reorder_survey::{run_campaign, CampaignConfig, PopulationModel, TechniqueChoice};

fn bench_campaign(c: &mut Criterion) {
    let hosts = 32usize;
    let mut g = c.benchmark_group("campaign");
    g.sample_size(10);
    g.throughput(Throughput::Elements(hosts as u64));

    for workers in [1usize, 2, 4] {
        g.bench_function(BenchmarkId::new("auto_32_hosts_workers", workers), |b| {
            b.iter(|| {
                let cfg = CampaignConfig {
                    hosts,
                    workers,
                    seed: 0xBE,
                    samples: 8,
                    technique: TechniqueChoice::Auto,
                    baseline: false,
                    ..CampaignConfig::default()
                };
                black_box(run_campaign(&cfg, None::<&mut Vec<u8>>).unwrap())
            })
        });
    }

    // The full pipeline — amenability + measurement + transfer
    // baseline — on one worker.
    g.bench_function("full_pipeline_32_hosts", |b| {
        b.iter(|| {
            let cfg = CampaignConfig {
                hosts,
                workers: 1,
                seed: 0xBE,
                samples: 8,
                technique: TechniqueChoice::Auto,
                baseline: true,
                ..CampaignConfig::default()
            };
            black_box(run_campaign(&cfg, None::<&mut Vec<u8>>).unwrap())
        })
    });
    g.bench_function("amenability_only_32_hosts", |b| {
        b.iter(|| {
            let cfg = CampaignConfig {
                hosts,
                workers: 1,
                seed: 0xBE,
                amenability_only: true,
                ..CampaignConfig::default()
            };
            black_box(run_campaign(&cfg, None::<&mut Vec<u8>>).unwrap())
        })
    });
    g.finish();

    // The headline scale point the perf trajectory tracks (see
    // `exp_scale` / BENCH_campaign.json): the full default campaign —
    // auto protocol, 15 samples, transfer baseline — at 1000 hosts.
    let mut g = c.benchmark_group("scale");
    g.sample_size(10);
    g.throughput(Throughput::Elements(1000));
    g.bench_function("auto_1000_hosts_full", |b| {
        b.iter(|| {
            let cfg = CampaignConfig {
                hosts: 1000,
                workers: 1,
                seed: 1,
                ..CampaignConfig::default()
            };
            black_box(run_campaign(&cfg, None::<&mut Vec<u8>>).unwrap())
        })
    });
    g.finish();

    let mut g = c.benchmark_group("population");
    let n = 10_000u64;
    g.throughput(Throughput::Elements(n));
    g.bench_function("generate_10k_specs", |b| {
        let model = PopulationModel::default();
        b.iter(|| {
            for i in 0..n {
                black_box(model.host(i, 7));
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench_campaign);
criterion_main!(benches);
