//! Chaos sweep over the full protocol: disconnect the wire at **every
//! socket op** in each direction while a budgeted server forces the
//! two-phase lazy-refinement path (ApproxKnn → FetchObjects), and assert
//! the invariants the fault-tolerant RPC layer promises:
//!
//! * a query with retries enabled returns the **byte-identical** answer of
//!   an undisturbed run, or a typed error — never a hang, never a wrong
//!   answer;
//! * an interrupted bulk insert is **exactly-once** after
//!   [`EncryptedClient::insert_bulk_resume`] — no lost and no duplicated
//!   entries, whichever frame the cut tore;
//! * crypto aborts (key mismatch → `Seal`, tampered phase-2 answers →
//!   `FetchMismatch`) are **terminal**: the transport never retries them.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simcloud_core::protocol::{Request, Response};
use simcloud_core::{
    client_for, ClientConfig, ClientError, CloudServer, EncryptedClient, SecretKey, ServerConfig,
};
use simcloud_metric::{ObjectId, PivotSelection, Vector, L2};
use simcloud_mindex::{MIndexConfig, RoutingStrategy};
use simcloud_storage::MemoryStore;
use simcloud_transport::{
    serve_tcp, serve_tcp_shared_with, Direction, FaultAction, FaultRule, FaultScript, RetryPolicy,
    ServeOptions, SharedRequestHandler, TcpClientConfig, TcpTransport, Transport,
};

const PIVOTS: usize = 4;
const N: usize = 30;

fn index_config() -> MIndexConfig {
    MIndexConfig {
        num_pivots: PIVOTS,
        max_level: 2,
        bucket_capacity: 8,
        strategy: RoutingStrategy::Distances,
    }
}

fn dataset(seed: u64) -> (SecretKey, Vec<(ObjectId, Vector)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let vectors: Vec<Vector> = (0..N)
        .map(|_| Vector::new((0..3).map(|_| rng.gen_range(-4.0f32..4.0)).collect()))
        .collect();
    let (key, _) = SecretKey::generate(&vectors, PIVOTS, &L2, PivotSelection::Random, seed ^ 0xaa);
    let objects = vectors
        .iter()
        .enumerate()
        .map(|(i, v)| (ObjectId(i as u64), v.clone()))
        .collect();
    (key, objects)
}

/// A loaded, byte-budget-0 server: every candidate payload must come back
/// through an explicit phase-2 [`Request::FetchObjects`], so each query is
/// a genuine multi-frame conversation for the sweep to tear.
fn loaded_server(key: &SecretKey, objects: &[(ObjectId, Vector)]) -> Arc<CloudServer<MemoryStore>> {
    let server = Arc::new(
        CloudServer::with_config(
            index_config(),
            ServerConfig::budgeted(0),
            MemoryStore::new(),
        )
        .unwrap(),
    );
    let mut owner = client_for(
        key.clone(),
        L2,
        Arc::clone(&server),
        ClientConfig::distances(),
    )
    .with_rng_seed(1);
    owner.insert_bulk(objects).unwrap();
    server
}

/// Server options that free torn-frame workers quickly, so the sweep's
/// dozens of cut connections never pile up or slow shutdown.
fn quick_serve_options() -> ServeOptions {
    ServeOptions {
        read_timeout: Some(Duration::from_millis(200)),
        drain_timeout: Duration::from_secs(2),
        ..ServeOptions::default()
    }
}

/// Client config with generous retries and a hard per-request deadline:
/// the no-hang guarantee under test.
fn chaos_client_config() -> TcpClientConfig {
    TcpClientConfig {
        read_timeout: Some(Duration::from_millis(500)),
        request_deadline: Some(Duration::from_secs(10)),
        retry: RetryPolicy {
            max_attempts: 6,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(20),
            jitter_seed: 0xc0de,
        },
        ..TcpClientConfig::default()
    }
}

fn faulty_client(
    key: &SecretKey,
    addr: std::net::SocketAddr,
    script: Arc<FaultScript>,
) -> EncryptedClient<L2, TcpTransport> {
    let transport = TcpTransport::connect_faulty(addr, chaos_client_config(), script).unwrap();
    EncryptedClient::new(key.clone(), L2, transport, ClientConfig::distances())
}

/// Tentpole sweep: cut the connection at every socket op of a two-phase
/// k-NN query, in both directions. With retries enabled the answer must be
/// byte-identical to the undisturbed run, within the deadline, every time.
#[test]
fn knn_answers_survive_a_cut_at_every_frame() {
    let (key, objects) = dataset(11);
    let server = loaded_server(&key, &objects);
    let handle = serve_tcp_shared_with(Arc::clone(&server), quick_serve_options()).unwrap();
    let q = &objects[3].1;

    // Baseline run through a quiet script: the expected answer plus the op
    // count of the whole conversation, which bounds the sweep.
    let quiet = FaultScript::quiet();
    let mut baseline = faulty_client(&key, handle.addr(), Arc::clone(&quiet));
    let (expected, costs) = baseline.knn_approx(q, 5, 12).unwrap();
    assert!(
        costs.fetch_requests >= 1,
        "budget-0 server must force phase-2 fetches, got {} fetch requests",
        costs.fetch_requests
    );
    drop(baseline);

    for dir in [Direction::Send, Direction::Recv] {
        let ops = quiet.ops(dir);
        assert!(ops >= 2, "baseline must have counted {dir:?} ops");
        for at in 0..ops {
            let script = FaultScript::new(vec![FaultRule::once(dir, at, FaultAction::Cut)]);
            let mut client = faulty_client(&key, handle.addr(), Arc::clone(&script));
            let start = Instant::now();
            let (got, _) = client.knn_approx(q, 5, 12).unwrap_or_else(|e| {
                panic!("cut at {dir:?} op {at}: query failed after retries: {e}")
            });
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "cut at {dir:?} op {at} must stay inside the deadline"
            );
            assert_eq!(got, expected, "cut at {dir:?} op {at} changed the answer");
            assert_eq!(script.injected(), 1, "the cut at {dir:?} op {at} must fire");
        }
    }
    handle.shutdown();
}

/// Same sweep, precise range query: the other full two-phase conversation.
#[test]
fn range_answers_survive_cuts() {
    let (key, objects) = dataset(13);
    let server = loaded_server(&key, &objects);
    let handle = serve_tcp_shared_with(Arc::clone(&server), quick_serve_options()).unwrap();
    let q = &objects[7].1;

    let quiet = FaultScript::quiet();
    let mut baseline = faulty_client(&key, handle.addr(), Arc::clone(&quiet));
    let (expected, _) = baseline.range(q, 3.0).unwrap();
    assert!(!expected.is_empty(), "pick a radius with matches");
    drop(baseline);

    for dir in [Direction::Send, Direction::Recv] {
        for at in 0..quiet.ops(dir) {
            let script = FaultScript::new(vec![FaultRule::once(dir, at, FaultAction::Cut)]);
            let mut client = faulty_client(&key, handle.addr(), Arc::clone(&script));
            let (got, _) = client.range(q, 3.0).unwrap_or_else(|e| {
                panic!("cut at {dir:?} op {at}: range failed after retries: {e}")
            });
            assert_eq!(got, expected, "cut at {dir:?} op {at} changed the answer");
        }
    }
    handle.shutdown();
}

/// A transient stall longer than the read timeout: the retry hides it; a
/// short one passes through with zero retries.
#[test]
fn delays_are_retried_only_when_they_breach_the_read_timeout() {
    let (key, objects) = dataset(17);
    let server = loaded_server(&key, &objects);
    let handle = serve_tcp_shared_with(Arc::clone(&server), quick_serve_options()).unwrap();
    let q = &objects[0].1;

    let mut baseline = faulty_client(&key, handle.addr(), FaultScript::quiet());
    let (expected, _) = baseline.knn_approx(q, 4, 10).unwrap();
    drop(baseline);

    // 800 ms stall on the first response read, against a 500 ms read
    // timeout: attempt 1 times out, attempt 2 succeeds.
    let long = FaultScript::new(vec![FaultRule::once(
        Direction::Recv,
        0,
        FaultAction::Delay(Duration::from_millis(800)),
    )]);
    let mut client = faulty_client(&key, handle.addr(), Arc::clone(&long));
    let (got, _) = client.knn_approx(q, 4, 10).unwrap();
    assert_eq!(got, expected);
    assert!(client.transport().stats().retries >= 1, "stall must retry");
    drop(client);

    // 50 ms stall: tolerated, no retry.
    let short = FaultScript::new(vec![FaultRule::once(
        Direction::Recv,
        0,
        FaultAction::Delay(Duration::from_millis(50)),
    )]);
    let mut client = faulty_client(&key, handle.addr(), short);
    let (got, _) = client.knn_approx(q, 4, 10).unwrap();
    assert_eq!(got, expected);
    assert_eq!(client.transport().stats().retries, 0);
    drop(client);
    handle.shutdown();
}

/// Exactly-once ingest: cut the wire at each op of the insert exchange.
/// The failure must surface as the resumable [`ClientError::InsertInterrupted`]
/// (never a silent retry — the transport refuses to replay inserts), and
/// [`EncryptedClient::insert_bulk_resume`] must land the server on exactly
/// `N` entries: none lost, none duplicated.
#[test]
fn interrupted_inserts_are_exactly_once_after_resume() {
    let (key, objects) = dataset(19);
    for dir in [Direction::Send, Direction::Recv] {
        for at in 0..2u64 {
            // Fresh empty server per cut point: the sweep measures ingest.
            let server = Arc::new(
                CloudServer::with_config(
                    index_config(),
                    ServerConfig::budgeted(0),
                    MemoryStore::new(),
                )
                .unwrap(),
            );
            let handle = serve_tcp_shared_with(Arc::clone(&server), quick_serve_options()).unwrap();
            let script = FaultScript::new(vec![FaultRule::once(dir, at, FaultAction::Cut)]);
            let mut client = faulty_client(&key, handle.addr(), Arc::clone(&script));

            match client.insert_bulk(&objects) {
                Ok(_) => {
                    // The cut landed outside the insert exchange (e.g. a
                    // later op index than the exchange used) — fine.
                }
                Err(ClientError::InsertInterrupted { acked, .. }) => {
                    assert_eq!(acked, 0, "single-frame bulk never acks a prefix");
                    assert_eq!(
                        client.transport().stats().retries,
                        0,
                        "inserts must never be blindly retried (cut at {dir:?} op {at})"
                    );
                    // Resume until clean; every probe is idempotent.
                    let mut resumed = None;
                    for _ in 0..4 {
                        match client.insert_bulk_resume(&objects) {
                            Ok(r) => {
                                resumed = Some(r);
                                break;
                            }
                            Err(ClientError::InsertInterrupted { .. }) => continue,
                            Err(e) => panic!("resume failed (cut at {dir:?} op {at}): {e}"),
                        }
                    }
                    let (stored_prefix, _) =
                        resumed.unwrap_or_else(|| panic!("resume never converged at {dir:?} {at}"));
                    assert!(stored_prefix <= objects.len());
                }
                Err(e) => panic!("expected InsertInterrupted at {dir:?} op {at}, got {e}"),
            }

            assert_eq!(
                server.index().len(),
                objects.len() as u64,
                "cut at {dir:?} op {at}: entries lost or duplicated"
            );
            // Every id answers a fetch — nothing double-inserted under a
            // different routing, nothing missing.
            let mut check = faulty_client(&key, handle.addr(), FaultScript::quiet());
            let (neighbors, _) = check.knn_approx(&objects[0].1, 3, 8).unwrap();
            assert_eq!(neighbors[0].0, objects[0].0);
            drop(check);
            drop(client);
            handle.shutdown();
        }
    }
}

/// A transport whose first insert is cut after sending but reaches the
/// server late: it lands just before the next insert, i.e. after the
/// resume's probes and before its resend — the race a real cut leaves
/// open while the server still works on the torn exchange.
struct LateLandingTransport {
    server: Arc<CloudServer<MemoryStore>>,
    held: Option<Vec<u8>>,
    cut_once: bool,
}

impl Transport for LateLandingTransport {
    fn round_trip(
        &mut self,
        request: &[u8],
    ) -> Result<Vec<u8>, simcloud_transport::TransportError> {
        if matches!(Request::decode(request), Ok(Request::Insert(_))) {
            if !self.cut_once {
                self.cut_once = true;
                self.held = Some(request.to_vec());
                return Err(simcloud_transport::TransportError::Disconnected);
            }
            if let Some(late) = self.held.take() {
                self.server.handle_shared(&late);
            }
        }
        Ok(self.server.handle_shared(request))
    }

    fn stats(&self) -> simcloud_transport::TransportStats {
        simcloud_transport::TransportStats::default()
    }
}

/// The interrupted attempt landing between the probe and the resend must
/// not fail the resume: the resend's duplicate-id collision sends it back
/// to probing, and the server ends on exactly `N` entries.
#[test]
fn resume_survives_the_interrupted_insert_landing_late() {
    let (key, objects) = dataset(31);
    let server = Arc::new(CloudServer::new(index_config(), MemoryStore::new()).unwrap());
    let transport = LateLandingTransport {
        server: Arc::clone(&server),
        held: None,
        cut_once: false,
    };
    let mut client = EncryptedClient::new(key, L2, transport, ClientConfig::distances());
    match client.insert_bulk(&objects) {
        Err(ClientError::InsertInterrupted { acked: 0, .. }) => {}
        other => panic!("expected InsertInterrupted, got {other:?}"),
    }
    assert_eq!(
        server.index().len(),
        0,
        "the cut attempt is still in flight"
    );
    let (stored_prefix, _) = client.insert_bulk_resume(&objects).unwrap();
    assert_eq!(
        stored_prefix,
        objects.len(),
        "the late attempt stored it all"
    );
    assert_eq!(server.index().len(), objects.len() as u64);
    let (neighbors, _) = client.knn_approx(&objects[0].1, 3, 8).unwrap();
    assert_eq!(neighbors[0].0, objects[0].0);
}

/// A key mismatch makes every candidate fail authentication. That is a
/// crypto abort, not a network fault: the client must surface `Seal`
/// without the transport ever retrying.
#[test]
fn seal_aborts_are_never_retried() {
    let (key, objects) = dataset(23);
    let server = loaded_server(&key, &objects);
    let handle = serve_tcp_shared_with(Arc::clone(&server), quick_serve_options()).unwrap();

    // A *different* key over the same vectors: routing stays well-formed
    // (same pivot count), but every unseal fails its MAC.
    let vectors: Vec<Vector> = objects.iter().map(|(_, v)| v.clone()).collect();
    let (wrong_key, _) = SecretKey::generate(&vectors, PIVOTS, &L2, PivotSelection::Random, 999);
    let mut intruder = faulty_client(&wrong_key, handle.addr(), FaultScript::quiet());
    match intruder.knn_approx(&objects[0].1, 3, 8) {
        Err(ClientError::Seal(_)) => {}
        other => panic!("expected Seal abort, got {other:?}"),
    }
    assert_eq!(
        intruder.transport().stats().retries,
        0,
        "a crypto abort must never be retried"
    );
    drop(intruder);
    handle.shutdown();
}

/// A server that reorders phase-2 fetch answers is indistinguishable from
/// an attack: the client aborts with `FetchMismatch`, terminally — the
/// transport saw only well-formed frames, so it has nothing to retry.
#[test]
fn tampered_fetch_answers_abort_without_retry() {
    let (key, objects) = dataset(29);
    let server = loaded_server(&key, &objects);

    // Wrap the real server in a tampering handler: any FetchObjects answer
    // with at least two payloads comes back with the first two swapped.
    let inner = Arc::clone(&server);
    let tamper = move |req: &[u8]| -> Vec<u8> {
        let resp_bytes = inner.handle_shared(req);
        if let Ok(Request::FetchObjects { .. }) = Request::decode(req) {
            if let Ok(Response::Objects(mut objs)) = Response::decode(&resp_bytes) {
                if objs.len() >= 2 {
                    objs.swap(0, 1);
                    return Response::Objects(objs).encode();
                }
            }
        }
        resp_bytes
    };
    let handle = serve_tcp(tamper).unwrap();

    let mut client = faulty_client(&key, handle.addr(), FaultScript::quiet());
    match client.knn_approx(&objects[0].1, 5, 12) {
        Err(ClientError::FetchMismatch(_)) => {}
        other => panic!("expected FetchMismatch abort, got {other:?}"),
    }
    assert_eq!(
        client.transport().stats().retries,
        0,
        "a tampering server must not trigger transport retries"
    );
    drop(client);
    handle.shutdown();
}
