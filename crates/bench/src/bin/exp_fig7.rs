//! E4 — Figure 7: reordering probability vs. inter-packet spacing.
//!
//! "Minimum-sized back-to-back packets are reordered more than 10
//! percent of the time, which quickly drops off to less than 2 percent
//! after 50 microseconds of delay is added and approaches zero after
//! 250 microseconds. [...] 1000 samples were taken at each point using
//! 1 usec increments between points for all spacings below 200 usecs,
//! and 20 usec increments thereafter."
//!
//! The path is a 2-way per-packet-striped link with Poisson cross
//! traffic (the physical mechanism §IV-C identifies); the instrument is
//! the Dual Connection Test with its gap parameter. The stripe's
//! backlog comes from the O(1) stationary workload sampler; the exact
//! burst-history `Replay` model is kept only as the test oracle, and
//! the striping equivalence tests bound the decay curve's distance
//! from it, so each point costs one draw per probe.

use reorder_bench::{parallel_map, pct, rule, run_technique, Scale};
use reorder_core::metrics::GapProfile;
use reorder_core::sample::TestConfig;
use reorder_core::scenario;
use reorder_core::TestKind;
use reorder_netsim::pipes::CrossTraffic;
use std::time::Duration;

fn measure_point(gap_us: u64, samples: usize, seed: u64) -> (u64, usize, usize) {
    let mut sc = scenario::striped_path(CrossTraffic::backbone(), seed);
    let cfg = TestConfig {
        samples,
        gap: Duration::from_micros(gap_us),
        pace: Duration::from_millis(2),
        reply_timeout: Duration::from_millis(900),
        ..TestConfig::default()
    };
    let run = run_technique(TestKind::DualConnection, &mut sc, cfg)
        .expect("striped path host is amenable");
    (gap_us, run.fwd_reordered(), run.fwd_determinate())
}

fn main() {
    let scale = Scale::from_env();
    let samples = scale.pick(1000, 300, 50);
    let fine_step = scale.pick(1u64, 5, 25);
    let coarse_step = 20u64;

    let mut gaps: Vec<u64> = (0..200).step_by(fine_step as usize).collect();
    let mut g = 200;
    while g <= 400 {
        gaps.push(g);
        g += coarse_step;
    }

    println!("E4: reordering probability vs inter-packet spacing (Fig. 7, §IV-C)");
    println!(
        "    dual connection test over a 2-way striped 1 Gbit/s path (sim v2, \
         stationary cross traffic), {} samples/point, {} points",
        samples,
        gaps.len()
    );
    rule(72);

    let jobs: Vec<(u64, usize, u64)> = gaps.iter().map(|&g| (g, samples, 0xF16_700 + g)).collect();
    let results = parallel_map(jobs, |(g, n, seed)| measure_point(g, n, seed));

    let mut profile = GapProfile::default();
    println!(
        "{:>8} {:>10} {:>10} {:>9}",
        "gap(us)", "reordered", "samples", "rate"
    );
    rule(72);
    for &(gap_us, reordered, total) in &results {
        let est = reorder_core::metrics::ReorderEstimate::new(reordered, total);
        profile.push(Duration::from_micros(gap_us), est);
        // Print a readable subset: every 10 us in the fine range, all
        // coarse points.
        if gap_us % 10 == 0 {
            println!(
                "{:>8} {:>10} {:>10} {:>9}",
                gap_us,
                reordered,
                total,
                pct(est.rate())
            );
        }
    }
    rule(72);

    let at0 = profile.interpolate(Duration::ZERO);
    let at50 = profile.interpolate(Duration::from_micros(50));
    let at250 = profile.interpolate(Duration::from_micros(250));
    println!("rate at   0 us: {}   (paper: >10%)", pct(at0));
    println!("rate at  50 us: {}   (paper: <2%)", pct(at50));
    println!("rate at 250 us: {}   (paper: ~0%)", pct(at250));

    // The §IV-C punchline: the profile predicts how packet size changes
    // exposure. 1500-byte data packets sent back-to-back have leading
    // edges a full serialization time apart.
    let small = profile.predict_for_size(40, 1_000_000_000);
    let big = profile.predict_for_size(1500, 1_000_000_000);
    println!();
    println!(
        "predicted exchange probability, back-to-back 40B probes:  {}",
        pct(small)
    );
    println!(
        "predicted exchange probability, back-to-back 1500B data:  {}  (why the transfer test under-reports)",
        pct(big)
    );

    assert!(at0 > at50 && at50 >= at250, "profile must decay");
}
