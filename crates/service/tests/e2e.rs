//! End-to-end test of the full service stack: real TCP sockets, the real
//! JSON-lines protocol, and the real experiment registry.
//!
//! The acceptance scenario from the service's design: 8 concurrent
//! `roofctl`-equivalent clients issue a mix of duplicate and distinct
//! requests; every response succeeds, duplicates are computed exactly
//! once (asserted via the server's stats counters), and every response
//! body is byte-identical to the corresponding serial `repro` artifact
//! tree. A follow-up control connection exercises the degraded-on-fault
//! path, error recovery on one connection, and purge. The accept-loop
//! tests pin that a fresh connection is served without waiting and that
//! both shutdown paths wake the blocked `accept`.

use experiments::platforms::Fidelity;
use experiments::registry::Experiment;
use experiments::snapshot::{diff_trees, read_tree};
use experiments::sweep::run_one;
use roofline_service::client::{Client, ClientError};
use roofline_service::engine::{Engine, EngineConfig};
use roofline_service::server::Server;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("roofd-e2e-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Computes the serial reference tree for a request the way `repro -e
/// <id> -o <dir>` would, normalized by the same snapshot rules the
/// service applies.
fn serial_reference(e: Experiment, platform: &str) -> BTreeMap<String, String> {
    let dir = temp_dir(&format!("ref-{}", e.id()));
    run_one(e, platform, Fidelity::Quick, &dir).expect("reference run");
    let tree = read_tree(&dir).expect("reference tree");
    let _ = fs::remove_dir_all(&dir);
    tree
}

/// Runs `server.serve()` on its own thread; the receiver yields its
/// result, so a test can bound how long the loop takes to return.
fn spawn_serve(server: Server) -> Receiver<io::Result<()>> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(server.serve());
    });
    rx
}

#[test]
fn eight_concurrent_clients_coalesce_hit_and_match_serial_repro() {
    let cache_dir = temp_dir("cache");
    let cfg = EngineConfig {
        cache_dir: Some(cache_dir.clone()),
        workers: 4,
        ..EngineConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Engine::new(cfg)).expect("bind");
    let addr = server.local_addr().expect("addr");
    // 8 concurrent clients + 1 control connection afterwards.
    let server = std::thread::spawn(move || server.serve_n(9));

    // 3 distinct experiments across 8 clients; 5 requests are duplicates.
    let mix = [
        Experiment::E1,
        Experiment::E1,
        Experiment::E1,
        Experiment::E2,
        Experiment::E2,
        Experiment::E5,
        Experiment::E5,
        Experiment::E1,
    ];
    let clients: Vec<_> = mix
        .iter()
        .map(|&e| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                (e, client.run(e, "snb", Fidelity::Quick).expect("run"))
            })
        })
        .collect();
    let replies: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();

    for (e, reply) in &replies {
        assert_eq!(reply.status, "pass", "{} failed: {:?}", e.id(), reply.detail);
        assert!(!reply.artifacts.is_empty(), "{} returned no artifacts", e.id());
        assert!(reply.budget_ms > 0);
    }

    // Every response body is byte-identical to the serial repro tree for
    // its experiment — computed, coalesced, and cached responses alike.
    for e in [Experiment::E1, Experiment::E2, Experiment::E5] {
        let reference = serial_reference(e, "snb");
        for (re, reply) in replies.iter().filter(|(re, _)| *re == e) {
            let diffs = diff_trees("serial repro", &reference, "service", &reply.artifacts);
            assert!(
                diffs.is_empty(),
                "{} response differs from serial repro:\n{}",
                re.id(),
                diffs.join("\n")
            );
        }
    }

    let mut control = Client::connect(addr).expect("control connect");
    let stats: BTreeMap<String, u64> = control.stats().expect("stats").into_iter().collect();
    // Duplicates computed exactly once: 3 distinct tuples → 3 misses; the
    // 5 duplicates were answered by coalescing or the cache, never by a
    // second computation.
    assert_eq!(stats["misses"], 3, "stats: {stats:?}");
    assert_eq!(stats["completed"], 8);
    assert_eq!(stats["coalesced"] + stats["mem_hits"] + stats["disk_hits"], 5);
    assert_eq!(stats["in_flight"], 0);
    assert_eq!(stats["busy"], 0);
    assert_eq!(stats["entries"], 3);

    // A faulted platform spec degrades gracefully: the run completes with
    // the integrity report attached, on the same connection.
    let faulted = control
        .run(Experiment::E5, "snb+drift=0.12,seed=7", Fidelity::Quick)
        .expect("faulted run");
    assert_eq!(faulted.status, "degraded");
    assert!(
        faulted.integrity.iter().any(|v| v.contains("VIOLATION")),
        "integrity report missing: {:?}",
        faulted.integrity
    );

    // An invalid platform is an error envelope, not a dropped connection:
    // the same client keeps working afterwards.
    match control.run(Experiment::E1, "vax11", Fidelity::Quick) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "invalid-platform"),
        other => panic!("expected invalid-platform error, got {other:?}"),
    }
    control.ping().expect("connection must survive the error");

    // Purge drops both tiers (3 pass entries + the degraded one).
    let (mem, disk) = control.purge().expect("purge");
    assert_eq!(mem, 4);
    assert_eq!(disk, 4);
    // After the purge the same request is a miss again.
    let after = control
        .run(Experiment::E1, "snb", Fidelity::Quick)
        .expect("post-purge run");
    assert!(!after.cache_hit);
    assert_eq!(after.source, "computed");

    drop(control);
    server.join().unwrap().expect("server");
    let _ = fs::remove_dir_all(&cache_dir);
}

#[test]
fn second_request_is_served_from_cache_across_connections() {
    let cache_dir = temp_dir("cache-hit");
    let cfg = EngineConfig {
        cache_dir: Some(cache_dir.clone()),
        ..EngineConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Engine::new(cfg)).expect("bind");
    let addr = server.local_addr().expect("addr");
    let server = std::thread::spawn(move || server.serve_n(2));

    let first = {
        let mut client = Client::connect(addr).expect("connect");
        client.run(Experiment::E2, "snb", Fidelity::Quick).expect("run")
    };
    assert!(!first.cache_hit);
    assert_eq!(first.source, "computed");

    let second = {
        let mut client = Client::connect(addr).expect("connect");
        client.run(Experiment::E2, "snb", Fidelity::Quick).expect("run")
    };
    assert!(second.cache_hit, "second request must hit the cache");
    assert_eq!(second.source, "mem");
    assert_eq!(
        diff_trees("first", &first.artifacts, "second", &second.artifacts),
        Vec::<String>::new()
    );

    server.join().unwrap().expect("server");
    let _ = fs::remove_dir_all(&cache_dir);
}

#[test]
fn sequential_fresh_connections_to_an_idle_node_are_served_at_once() {
    let server = Server::bind("127.0.0.1:0", Engine::new(EngineConfig::default())).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.shutdown_handle();
    let served = spawn_serve(server);

    // Each round trip opens a fresh connection to an idle accept loop, as
    // a one-request client does. 20 of them take a few milliseconds; a
    // loop that polled `accept` would add its poll interval to each.
    let started = Instant::now();
    for _ in 0..20 {
        let mut client =
            Client::connect_with(addr, Some(Duration::from_secs(5))).expect("connect");
        client.ping().expect("pong");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(250),
        "20 fresh-connection pings took {elapsed:?}"
    );

    handle.trigger();
    served
        .recv_timeout(Duration::from_secs(5))
        .expect("serve returns")
        .expect("serve ok");
}

#[test]
fn trigger_wakes_an_idle_server_bound_to_the_unspecified_address() {
    let server = Server::bind("0.0.0.0:0", Engine::new(EngineConfig::default())).expect("bind");
    let port = server.local_addr().expect("addr").port();
    let handle = server.shutdown_handle();
    let served = spawn_serve(server);
    // One round trip proves the loop is running and back in `accept`.
    Client::connect(("127.0.0.1", port))
        .expect("connect")
        .ping()
        .expect("pong");

    // The wake-up connection must go to loopback: `0.0.0.0` is not a
    // destination.
    handle.trigger();
    served
        .recv_timeout(Duration::from_secs(2))
        .expect("serve returns within 2 s of trigger")
        .expect("serve ok");
}

#[test]
fn shutdown_command_returns_with_another_idle_connection_open() {
    let server = Server::bind("127.0.0.1:0", Engine::new(EngineConfig::default())).expect("bind");
    let addr = server.local_addr().expect("addr");
    let served = spawn_serve(server);

    let mut idle = Client::connect(addr).expect("idle connect");
    idle.ping().expect("pong");
    Client::connect(addr)
        .expect("control connect")
        .shutdown()
        .expect("shutdown ack");
    served
        .recv_timeout(Duration::from_secs(5))
        .expect("serve returns while the idle connection is open")
        .expect("serve ok");

    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "a shut-down server must not accept"
    );
    drop(idle);
}
