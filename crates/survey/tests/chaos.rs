//! Chaos campaign acceptance: a seeded 1000-host campaign with a 20%
//! hostile mix (all five fault classes represented) must complete,
//! classify every hostile host in the failure taxonomy, reproduce
//! byte-identical output across reruns and worker counts, and stay
//! inside a bounded wall clock — no tarpit or blackhole host may burn
//! more than its per-host budget.

use reorder_core::jsonx::Object;
use reorder_core::scenario::FaultClass;
use reorder_survey::{run_campaign, CampaignConfig, PopulationModel};
use std::collections::BTreeSet;

const HOSTS: usize = 1000;
const SEED: u64 = 42;
const CHAOS_PPM: u32 = 200_000; // 20%

fn chaos_cfg(workers: usize) -> CampaignConfig {
    CampaignConfig {
        hosts: HOSTS,
        workers,
        seed: SEED,
        samples: 4,
        model: PopulationModel {
            chaos_ppm: CHAOS_PPM,
            ..Default::default()
        },
        ..CampaignConfig::default()
    }
}

/// The hostile ids and their fault classes, recomputed from the
/// population model (a pure function of `(model, id, seed)`).
fn hostile_hosts() -> Vec<(u64, FaultClass)> {
    let model = PopulationModel {
        chaos_ppm: CHAOS_PPM,
        ..Default::default()
    };
    (0..HOSTS as u64)
        .filter_map(|id| model.host(id, SEED).fault.map(|f| (id, f)))
        .collect()
}

#[test]
fn chaos_campaign_classifies_every_hostile_host_within_budget() {
    let hostile = hostile_hosts();
    let frac = hostile.len() as f64 / HOSTS as f64;
    assert!(
        (0.15..=0.25).contains(&frac),
        "20% mix drew {} hostile hosts",
        hostile.len()
    );
    let classes: BTreeSet<&'static str> = hostile.iter().map(|(_, f)| f.label()).collect();
    assert_eq!(
        classes.len(),
        5,
        "all five fault classes must be represented: {classes:?}"
    );

    let started = std::time::Instant::now();
    let mut jsonl = Vec::new();
    let out = run_campaign(&chaos_cfg(4), Some(&mut jsonl)).expect("chaos campaign completes");
    let wall = started.elapsed();
    // The wall-clock bound the budget buys: ~200 hostile hosts at 30s
    // tarpit delay would cost hours of simulated probing without the
    // per-host deadline; with it the whole campaign stays comfortably
    // inside interactive time even in debug builds.
    assert!(
        wall.as_secs() < 120,
        "chaos campaign must stay bounded, took {wall:?}"
    );

    let text = String::from_utf8(jsonl.clone()).expect("utf8 jsonl");
    assert_eq!(text.lines().count(), HOSTS);
    let outcomes: Vec<(u64, String)> = text
        .lines()
        .map(|l| {
            let line = Object::parse(l).unwrap_or_else(|e| panic!("{e}: {l}"));
            (
                line.int("id").unwrap(),
                line.str("outcome").unwrap().to_string(),
            )
        })
        .collect();
    for (id, fault) in &hostile {
        let (_, outcome) = &outcomes[*id as usize];
        assert_ne!(
            outcome,
            "complete",
            "hostile host {id} ({}) must be classified, not reported complete",
            fault.label()
        );
    }

    // The taxonomy accounts for exactly the non-complete hosts — which
    // include every hostile host (and any cooperative host that failed
    // a round on its own).
    let non_complete = outcomes.iter().filter(|(_, o)| o != "complete").count() as u64;
    let s = &out.summary;
    assert_eq!(s.failed + s.degraded, non_complete);
    assert!(s.failed + s.degraded >= hostile.len() as u64);
    let taxonomy_hosts: u64 = s.failure_taxonomy.values().map(|f| f.hosts).sum();
    assert_eq!(taxonomy_hosts, s.failed + s.degraded);
    let rendered = s.render();
    assert!(rendered.contains("failure taxonomy"), "{rendered}");

    // Byte-identical across a rerun and across worker counts.
    let mut again = Vec::new();
    let out1 = run_campaign(&chaos_cfg(1), Some(&mut again)).expect("1-worker rerun");
    assert_eq!(jsonl, again, "chaos JSONL must not depend on workers");
    assert_eq!(out1.summary.render(), rendered);
}

#[test]
fn tarpit_and_blackhole_hosts_cost_at_most_their_budget() {
    // A tarpit host's 30s-per-reply delay dwarfs the cooperative
    // hosts' round trips; the per-host deadline is what keeps its
    // simulated cost — and hence its event count — in the same
    // ballpark instead of orders of magnitude beyond. Events are the
    // honest proxy for simulated work: every timer and delivery the
    // host's pathological path would burn shows up there.
    let hostile = hostile_hosts();
    let cfg = chaos_cfg(2);
    let mut jsonl = Vec::new();
    let out = run_campaign(&cfg, Some(&mut jsonl)).expect("chaos campaign");
    let per_host_budget = cfg.budget.deadline;
    assert!(per_host_budget.as_secs() > 0);
    // Campaign-wide event total with ~200 hostile hosts stays within a
    // small multiple of the all-cooperative campaign's: the budget cut
    // the pathological tails. (An unbudgeted tarpit at 30s/reply
    // multiplies the event bill, not adds to it.)
    let clean = run_campaign(
        &CampaignConfig {
            model: PopulationModel::default(),
            ..cfg.clone()
        },
        None::<&mut Vec<u8>>,
    )
    .expect("clean campaign");
    assert!(
        out.events < clean.events * 3,
        "hostile population events ({}) must stay within 3x the clean campaign's ({}) — \
         a blowout means budgets stopped bounding tarpit/blackhole hosts",
        out.events,
        clean.events
    );
    assert!(!hostile.is_empty());
}
