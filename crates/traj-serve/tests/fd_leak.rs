//! A long-lived server must give back what a connection held once the
//! connection is gone. Alone in its test binary: the open-descriptor
//! count is process-wide, so no other test may run beside it.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use traj_query::{DbOptions, Query, QueryExecutor, TrajDb};
use traj_serve::{Client, ServeOptions, Server};
use trajectory::gen::{generate, DatasetSpec, Scale};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count()
}

/// 300 connect → one request → close cycles against one server: every
/// cycle is answered, and afterwards the process holds no more
/// descriptors than a small constant above where it started (the
/// server used to keep one duplicate fd per connection ever accepted,
/// until shutdown).
#[test]
fn closed_connections_give_their_descriptor_back() {
    let db = generate(&DatasetSpec::tdrive(Scale::Smoke).with_trajectories(8), 3);
    let query = Query::Range(db.bounding_cube());
    let expected = TrajDb::from_db(&db, DbOptions::new()).execute_one(&query);
    let served = TrajDb::from_db(&db, DbOptions::new());
    let server = Server::start(served, "127.0.0.1:0", ServeOptions::batched()).expect("start");
    let addr = server.local_addr();

    let before = open_fds();
    let cycles = 300;
    for cycle in 0..cycles {
        let mut client = Client::connect(addr).expect("connect");
        let got = client.execute(&query).expect("request");
        assert_eq!(got, expected, "cycle {cycle} answered wrongly");
    }
    assert_eq!(server.stats().requests, cycles);

    // Handlers notice the closed sockets on their own threads; give
    // them a moment, then the count must be back.
    let slack = 8;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let now = open_fds();
        if now <= before + slack {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{} descriptors still held after {cycles} closed connections",
            now - before
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}
