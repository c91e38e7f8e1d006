//! Failure-injection integration tests: the techniques against the
//! hosts and middleboxes that defeat them — exactly the practical
//! hazards §III catalogs. A measurement tool is defined as much by what
//! it refuses to report as by what it reports.

use reorder_bench::run_technique as execute;
use reorder_core::sample::TestConfig;
use reorder_core::scenario;
use reorder_core::techniques::{IpidVerdict, TestKind};
use reorder_core::{technique, ProbeError, Session};
use reorder_tcpstack::{HostPersonality, IpidScheme};

/// Random-IPID and zero-IPID hosts must be refused by the dual test —
/// never silently mismeasured.
#[test]
fn dual_test_refuses_every_bad_ipid_scheme() {
    for (p, expect) in [
        (HostPersonality::openbsd3(), IpidVerdict::NonMonotonic),
        (HostPersonality::linux24(), IpidVerdict::ConstantZero),
        (HostPersonality::hardened(), IpidVerdict::NonMonotonic),
    ] {
        let name = p.name;
        let mut sc = scenario::validation_rig_with(0.0, 0.0, p, 11_000);
        let verdict = {
            let mut session = Session::new(&mut sc.prober, sc.target, 80);
            technique(TestKind::DualConnection, TestConfig::samples(5))
                .probe_amenability(&mut session)
                .expect("amenability probe")
        };
        assert_eq!(verdict, expect, "{name}");
        // And execute() must hard-refuse.
        let mut sc = scenario::validation_rig_with(0.0, 0.0, HostPersonality::openbsd3(), 11_001);
        match execute(TestKind::DualConnection, &mut sc, TestConfig::samples(5)) {
            Err(ProbeError::HostUnsuitable(_)) => {}
            other => panic!("expected refusal, got {other:?}"),
        }
    }
}

/// Behind a per-flow load balancer the dual test usually splits across
/// backends and must detect it; the SYN test must keep working and
/// measure the true rate.
#[test]
fn load_balancer_defeats_dual_but_not_syn() {
    let mut dual_rejections = 0;
    for seed in 0..8u64 {
        let mut sc =
            scenario::load_balanced(0.3, 0.0, 4, HostPersonality::freebsd4(), 12_000 + seed);
        let mut session = Session::new(&mut sc.prober, sc.target, 80);
        if matches!(
            technique(TestKind::DualConnection, TestConfig::samples(5))
                .probe_amenability(&mut session),
            Ok(IpidVerdict::NonMonotonic)
        ) {
            dual_rejections += 1;
        }
    }
    assert!(
        dual_rejections >= 5,
        "dual test should reject most LB trials ({dual_rejections}/8)"
    );

    let mut sc = scenario::load_balanced(0.3, 0.0, 4, HostPersonality::freebsd4(), 12_100);
    let run = execute(TestKind::Syn, &mut sc, TestConfig::samples(100)).expect("syn through LB");
    let rate = run.fwd_estimate().rate();
    assert!(
        (0.15..=0.45).contains(&rate),
        "SYN test rate {rate} should track the true 30%"
    );
}

/// A pathological per-packet balancer breaks the SYN test's same-flow
/// assumption: the two SYNs reach different backends and both answer
/// with SYN/ACKs. The test must not crash and mostly yields samples
/// it cannot classify cleanly — and the measured rate becomes garbage,
/// which is exactly why per-packet balancing is called pathological.
#[test]
fn per_packet_balancer_survived() {
    use reorder_netsim::pipes::{BalanceMode, LoadBalancer, DOWN, UP};
    use reorder_netsim::{LinkParams, Port, Simulator};
    use reorder_tcpstack::{TcpHost, TcpHostConfig};

    let mut sim = Simulator::new(13_000);
    let (me, queue) = sim.add_mailbox();
    let fwd = sim.add_node(Box::new(reorder_netsim::pipes::Forwarder::new()));
    let lb = sim.add_node(Box::new(LoadBalancer::new(BalanceMode::PerPacket, 2)));
    sim.connect(me, Port(0), fwd, UP, LinkParams::lan());
    sim.connect(fwd, DOWN, lb, Port(0), LinkParams::lan());
    for b in 0..2 {
        let host = TcpHost::new(
            TcpHostConfig::web_server(scenario::TARGET_ADDR, HostPersonality::freebsd4()),
            13_001 + b,
        );
        let node = sim.add_node(Box::new(host));
        sim.connect(lb, Port(1 + b as usize), node, Port(0), LinkParams::lan());
    }
    let mut prober = reorder_core::Prober::new(sim, me, queue, scenario::PROBE_ADDR);
    // Must complete without panicking; classification quality is
    // undefined by design.
    let mut session = Session::new(&mut prober, scenario::TARGET_ADDR, 80);
    let run = technique(TestKind::Syn, TestConfig::samples(20))
        .execute(&mut session)
        .expect("syn over per-packet LB");
    assert_eq!(run.samples.len(), 20);
}

/// Heavy loss: all techniques must terminate, discard correctly, and
/// never report negative-confidence garbage.
#[test]
fn heavy_loss_terminates_all_techniques() {
    let cfg = TestConfig::samples(15);
    let mut sc = scenario::lossy_rig(0.3, 0.3, 14_000);
    match execute(TestKind::SingleConnectionReversed, &mut sc, cfg) {
        Ok(run) => {
            assert!(run.fwd_determinate() <= run.samples.len());
        }
        Err(e) => {
            // Acceptable: handshake or resync may exhaust retries.
            assert!(
                matches!(e, ProbeError::Timeout { .. }),
                "unexpected error {e:?}"
            );
        }
    }
    let mut sc = scenario::lossy_rig(0.3, 0.3, 14_001);
    match execute(TestKind::DualConnection, &mut sc, cfg) {
        Ok(run) => {
            // Discards happen; every determinate verdict is still sound.
            assert!(run.fwd_determinate() <= run.samples.len());
        }
        Err(e) => assert!(matches!(e, ProbeError::Timeout { .. })),
    }
    let mut sc = scenario::lossy_rig(0.3, 0.3, 14_002);
    let run = execute(TestKind::Syn, &mut sc, cfg).expect("syn survives loss by discarding");
    assert_eq!(run.samples.len(), 15);
}

/// Hosts that filter ICMP and silence closed ports (hardened) still
/// support the single connection test; sites with one-packet objects
/// defeat the transfer test.
#[test]
fn hardened_and_tiny_object_hosts() {
    let mut sc = scenario::validation_rig_with(0.15, 0.0, HostPersonality::hardened(), 15_000);
    let run = execute(
        TestKind::SingleConnectionReversed,
        &mut sc,
        TestConfig::samples(60),
    )
    .expect("single against hardened host");
    let rate = run.fwd_estimate().rate();
    assert!((0.05..0.3).contains(&rate), "rate {rate}");

    let spec = scenario::HostSpec {
        object_size: 128, // fits one clamped segment
        ..scenario::HostSpec::clean("redirector", HostPersonality::freebsd4())
    };
    let mut sc = scenario::internet_host(&spec, 15_001);
    match execute(TestKind::DataTransfer, &mut sc, TestConfig::default()) {
        Err(ProbeError::HostUnsuitable(_)) => {}
        other => panic!("expected HostUnsuitable, got {other:?}"),
    }
}

/// A closed port answers RST; probing it must fail fast with
/// ConnectionReset, not hang.
#[test]
fn closed_port_fails_fast() {
    let mut sc = scenario::validation_rig(0.0, 0.0, 16_000);
    let before = sc.prober.now();
    let err = {
        let mut session = Session::new(&mut sc.prober, sc.target, 7777);
        technique(TestKind::SingleConnection, TestConfig::samples(5))
            .execute(&mut session)
            .unwrap_err()
    };
    assert_eq!(err, ProbeError::ConnectionReset);
    let elapsed = sc.prober.now() - before;
    assert!(
        elapsed < std::time::Duration::from_secs(2),
        "should fail fast, took {elapsed:?}"
    );
}

/// Sanity: the population generator emits every hostile personality so
/// the survey experiments actually exercise these paths.
#[test]
fn population_contains_hostile_hosts() {
    let specs = scenario::population(15, 35, 0xF165);
    assert!(specs
        .iter()
        .any(|s| s.personality.ipid == IpidScheme::ConstantZero));
    assert!(specs
        .iter()
        .any(|s| s.personality.ipid == IpidScheme::Random));
    assert!(specs.iter().any(|s| s.backends > 1));
    assert!(specs.iter().any(|s| s.object_size < 512));
}
