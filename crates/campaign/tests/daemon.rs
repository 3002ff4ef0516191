//! End-to-end daemon tests: a real socket, real frames, real campaigns.
//!
//! The TCP test drives the full client surface — ping, submit, status
//! polling, list, stats, checkpoint, shutdown — against an ephemeral
//! port; the Unix-socket test re-runs the happy path over the other
//! transport. Both recover a key over the wire and check it against a
//! one-shot in-process reference run.

use relock_attack::{AttackConfig, Decryptor};
use relock_campaign::{CampaignHub, Client, Request, ServerConfig, ServerHandle};
use relock_locking::{CountingOracle, LockSpec, LockedModel};
use relock_nn::{build_mlp, MlpSpec};
use relock_tensor::rng::Prng;
use relock_trace::json::Value;
use std::time::{Duration, Instant};

fn tiny_model(seed: u64) -> LockedModel {
    let mut rng = Prng::seed_from_u64(seed);
    build_mlp(
        &MlpSpec {
            input: 5,
            hidden: vec![7],
            classes: 3,
        },
        LockSpec::evenly(4),
        &mut rng,
    )
    .expect("tiny model builds")
}

fn reference_key_bits(model: &LockedModel, seed: u64) -> String {
    let oracle = CountingOracle::new(model);
    Decryptor::new(AttackConfig::fast())
        .run(model.white_box(), &oracle, &mut Prng::seed_from_u64(seed))
        .expect("reference attack succeeds")
        .key
        .bits()
        .iter()
        .map(|&b| if b { '1' } else { '0' })
        .collect()
}

fn save_model(model: &LockedModel, path: &std::path::Path) {
    let mut file = std::fs::File::create(path).expect("create model file");
    model.save(&mut file).expect("serialize model");
}

/// Polls `status` until the campaign is terminal.
fn wait_done(client: &mut Client, id: u64, timeout: Duration) -> Value {
    let deadline = Instant::now() + timeout;
    loop {
        let response = client
            .call_ok(&Request::Status { id })
            .expect("status succeeds");
        let campaign = response.get("campaign").expect("status carries campaign");
        let state = campaign
            .get("state")
            .and_then(Value::as_str)
            .expect("campaign carries state");
        if matches!(state, "completed" | "failed" | "cancelled") {
            return campaign.clone();
        }
        assert!(
            Instant::now() < deadline,
            "campaign {id} still {state} after {timeout:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn tcp_daemon_runs_a_campaign_end_to_end() {
    let dir = std::env::temp_dir().join(format!("relock-daemon-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("victim-tcp.rlk");
    let model = tiny_model(4100);
    save_model(&model, &model_path);
    let expected = reference_key_bits(&model, 71);

    let hub = CampaignHub::new(2, Some(1 << 20));
    let server = ServerHandle::spawn(hub, "tcp:127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.addr().to_string();

    let mut client = Client::connect(&addr).expect("connect");
    client.call_ok(&Request::Ping).expect("ping");

    let submitted = client
        .call_ok(&Request::Submit {
            model_path: model_path.display().to_string(),
            tenant: "alice".into(),
            seed: 71,
            weight: 2,
            budget: None,
            threads: 1,
            fast: true,
            monolithic: false,
            variant: "sign".into(),
            checkpoint: None,
        })
        .expect("submit");
    let id = submitted
        .get("id")
        .and_then(Value::as_u64)
        .expect("submit returns id");

    let campaign = wait_done(&mut client, id, Duration::from_secs(60));
    assert_eq!(
        campaign.get("state").and_then(Value::as_str),
        Some("completed")
    );
    assert_eq!(
        campaign.get("key").and_then(Value::as_str),
        Some(expected.as_str()),
        "wire-recovered key differs from the in-process reference"
    );
    assert_eq!(
        campaign.get("validated").and_then(Value::as_bool),
        Some(true)
    );
    assert!(campaign.get("queries").and_then(Value::as_u64).unwrap() > 0);

    // The finished campaign left its last RLCP frame behind…
    let checkpoint = client
        .call_ok(&Request::Checkpoint { id })
        .expect("checkpoint");
    assert!(checkpoint
        .get("checkpoint")
        .and_then(Value::as_str)
        .is_some());

    // …appears in list…
    let list = client.call_ok(&Request::List).expect("list");
    let campaigns = list.get("campaigns").and_then(Value::as_arr).unwrap();
    assert_eq!(campaigns.len(), 1);
    assert_eq!(campaigns[0].get("id").and_then(Value::as_u64), Some(id));

    // …and populated the process-global cache.
    let stats = client.call_ok(&Request::Stats).expect("stats");
    let rows = stats
        .get("cache")
        .and_then(|c| c.get("rows"))
        .and_then(Value::as_u64)
        .unwrap();
    assert!(rows > 0, "a completed campaign left no cached rows");

    // Lifecycle ops on a finished campaign are invalid, not fatal.
    let err = client.call_ok(&Request::Pause { id }).unwrap_err();
    assert!(err.starts_with("invalid_state"), "got {err}");
    let err = client.call_ok(&Request::Status { id: 999 }).unwrap_err();
    assert!(err.starts_with("unknown_campaign"), "got {err}");

    client.call_ok(&Request::Shutdown).expect("shutdown");
    server.join();
    std::fs::remove_file(&model_path).ok();
}

#[test]
fn unix_socket_daemon_speaks_the_same_protocol() {
    let dir = std::env::temp_dir().join(format!("relock-daemon-uds-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("relock.sock");
    let model_path = dir.join("victim-uds.rlk");
    let model = tiny_model(4200);
    save_model(&model, &model_path);
    let expected = reference_key_bits(&model, 72);

    let hub = CampaignHub::new(1, None);
    let server = ServerHandle::spawn(hub, &socket.display().to_string()).expect("bind unix socket");

    let mut client = Client::connect(server.addr()).expect("connect over uds");
    let submitted = client
        .call_ok(&Request::Submit {
            model_path: model_path.display().to_string(),
            tenant: "bob".into(),
            seed: 72,
            weight: 1,
            budget: None,
            threads: 1,
            fast: true,
            monolithic: false,
            variant: "sign".into(),
            checkpoint: None,
        })
        .expect("submit over uds");
    let id = submitted.get("id").and_then(Value::as_u64).unwrap();

    let campaign = wait_done(&mut client, id, Duration::from_secs(60));
    assert_eq!(
        campaign.get("state").and_then(Value::as_str),
        Some("completed")
    );
    assert_eq!(
        campaign.get("key").and_then(Value::as_str),
        Some(expected.as_str())
    );

    client.call_ok(&Request::Shutdown).expect("shutdown");
    server.join();
    assert!(!socket.exists(), "socket file cleaned up on exit");
    std::fs::remove_file(&model_path).ok();
}

#[test]
fn idle_connection_is_dropped_at_the_read_deadline() {
    let hub = CampaignHub::new(1, None);
    let server = ServerHandle::spawn_with(
        hub,
        "tcp:127.0.0.1:0",
        ServerConfig {
            read_deadline: Some(Duration::from_millis(100)),
        },
    )
    .unwrap();
    let hostport = server.addr().strip_prefix("tcp:").unwrap().to_string();

    // A client that connects and never speaks: the daemon must drop it
    // (read returns EOF on our side) instead of pinning the connection
    // thread forever.
    use std::io::Read;
    let mut idle = std::net::TcpStream::connect(&hostport).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 1];
    let n = idle.read(&mut buf).expect("daemon closes, not resets");
    assert_eq!(n, 0, "expected EOF from the dropped idle connection");

    // A live client on the same daemon is unaffected as long as it keeps
    // talking within the deadline.
    let mut client = Client::connect(server.addr()).unwrap();
    client.call_ok(&Request::Ping).expect("ping");
    client.call_ok(&Request::Shutdown).unwrap();
    server.join();
}

#[test]
fn full_hub_rejects_submissions_with_the_overloaded_code() {
    let dir = std::env::temp_dir().join(format!("relock-daemon-cap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("victim-cap.rlk");
    let model = tiny_model(4300);
    save_model(&model, &model_path);

    // Cap of zero: every submission is over cap — the wire answer must be
    // the typed `overloaded` error, not a hung or crashed daemon.
    let hub = CampaignHub::with_admission_cap(1, None, Some(0));
    let server = ServerHandle::spawn(hub, "tcp:127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let err = client
        .call_ok(&Request::Submit {
            model_path: model_path.display().to_string(),
            tenant: "mallory".into(),
            seed: 5,
            weight: 1,
            budget: None,
            threads: 1,
            fast: true,
            monolithic: false,
            variant: "sign".into(),
            checkpoint: None,
        })
        .unwrap_err();
    assert!(err.starts_with("overloaded"), "got {err}");
    // The daemon stays healthy after rejecting.
    client
        .call_ok(&Request::Ping)
        .expect("ping after rejection");
    client.call_ok(&Request::Shutdown).unwrap();
    server.join();
    std::fs::remove_file(&model_path).ok();
}

#[test]
fn submit_with_a_bad_model_path_is_a_request_error() {
    let hub = CampaignHub::new(1, None);
    let server = ServerHandle::spawn(hub, "tcp:127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let err = client
        .call_ok(&Request::Submit {
            model_path: "/nonexistent/victim.rlk".into(),
            tenant: "eve".into(),
            seed: 1,
            weight: 1,
            budget: None,
            threads: 1,
            fast: true,
            monolithic: false,
            variant: "sign".into(),
            checkpoint: None,
        })
        .unwrap_err();
    assert!(err.starts_with("bad_request"), "got {err}");
    client.call_ok(&Request::Shutdown).unwrap();
    server.join();
}

#[test]
fn submit_of_a_model_with_an_out_of_range_key_slot_is_a_request_error() {
    // The tiny victim's four key slots are 0..=3; slot 3's `Some` tag and
    // index occur once in the file. Point it past the slot count.
    let mut bytes = Vec::new();
    tiny_model(4500).save(&mut bytes).expect("serialize model");
    let needle: Vec<u8> = std::iter::once(1u8).chain(3u64.to_le_bytes()).collect();
    let at: Vec<usize> = bytes
        .windows(needle.len())
        .enumerate()
        .filter(|(_, w)| *w == needle.as_slice())
        .map(|(i, _)| i + 1)
        .collect();
    assert_eq!(at.len(), 1, "slot 3 is encoded exactly once");
    bytes[at[0]..at[0] + 8].copy_from_slice(&99u64.to_le_bytes());
    let dir = std::env::temp_dir().join(format!("relock-daemon-slot-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("victim-bad-slot.rlk");
    std::fs::write(&model_path, &bytes).unwrap();

    let hub = CampaignHub::new(1, None);
    let server = ServerHandle::spawn(hub, "tcp:127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let err = client
        .call_ok(&Request::Submit {
            model_path: model_path.display().to_string(),
            tenant: "mallory".into(),
            seed: 1,
            weight: 1,
            budget: None,
            threads: 1,
            fast: true,
            monolithic: false,
            variant: "sign".into(),
            checkpoint: None,
        })
        .unwrap_err();
    assert!(err.starts_with("bad_request"), "got {err}");
    assert!(err.contains("key slot k99 out of range"), "got {err}");
    client.call_ok(&Request::Shutdown).unwrap();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trigger_variant_round_trips_and_unknown_variants_are_rejected() {
    let dir = std::env::temp_dir().join(format!("relock-daemon-var-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("victim-sar.rlk");
    let model = {
        let mut rng = Prng::seed_from_u64(4400);
        build_mlp(
            &MlpSpec {
                input: 6,
                hidden: vec![8],
                classes: 3,
            },
            LockSpec::sar(4),
            &mut rng,
        )
        .expect("trigger model builds")
    };
    save_model(&model, &model_path);

    let hub = CampaignHub::new(1, None);
    let server = ServerHandle::spawn(hub, "tcp:127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // An unknown variant spelling is a typed request error, not a panic
    // or a dropped connection.
    let err = client
        .call_ok(&Request::Submit {
            model_path: model_path.display().to_string(),
            tenant: "trent".into(),
            seed: 73,
            weight: 1,
            budget: None,
            threads: 1,
            fast: true,
            monolithic: false,
            variant: "quantum".into(),
            checkpoint: None,
        })
        .unwrap_err();
    assert!(err.starts_with("bad_request"), "got {err}");
    client
        .call_ok(&Request::Ping)
        .expect("daemon healthy after rejection");

    // The sar spelling rides the wire into the hub's dispatch: the
    // campaign runs the sampling segment — completed, query-consuming,
    // but never validated (there is no per-layer validation to run).
    let submitted = client
        .call_ok(&Request::Submit {
            model_path: model_path.display().to_string(),
            tenant: "trent".into(),
            seed: 73,
            weight: 1,
            budget: None,
            threads: 1,
            fast: true,
            monolithic: false,
            variant: "sar".into(),
            checkpoint: None,
        })
        .expect("submit sar campaign");
    let id = submitted.get("id").and_then(Value::as_u64).unwrap();
    let campaign = wait_done(&mut client, id, Duration::from_secs(60));
    assert_eq!(
        campaign.get("state").and_then(Value::as_str),
        Some("completed")
    );
    assert_eq!(
        campaign.get("validated").and_then(Value::as_bool),
        Some(false),
        "sampling segments are never validated"
    );
    assert!(campaign.get("key").and_then(Value::as_str).is_some());
    assert!(campaign.get("queries").and_then(Value::as_u64).unwrap() > 0);

    client.call_ok(&Request::Shutdown).unwrap();
    server.join();
    std::fs::remove_file(&model_path).ok();
}
