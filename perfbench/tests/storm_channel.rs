//! The benchmark's lossy channel keeps the storm worker-invariant.

use std::net::{IpAddr, Ipv4Addr};

use tectonic::core::masque_load::{run_engine, DatagramChannel, StormConfig};
use tectonic::net::SimTime;
use tectonic::relay::{Deployment, DeploymentConfig};
use tectonic_perfbench::storm::{replay, LossyChannel};

#[test]
fn channel_is_a_pure_function_of_its_inputs() {
    let a = LossyChannel::new(3, 8);
    let b = LossyChannel::new(3, 8);
    let src = IpAddr::V4(Ipv4Addr::new(198, 51, 100, 7));
    let mut lost = 0;
    let mut damaged = 0;
    // Drive the two channels in opposite orders: each call's fate depends
    // only on its own arguments.
    let calls: Vec<(usize, u64, Vec<u8>)> = (0..4000u64)
        .map(|i| ((i % 8) as usize, i * 7, i.to_be_bytes().repeat(3)))
        .collect();
    let forward: Vec<_> = calls
        .iter()
        .map(|(shard, t, wire)| a.transfer(*shard, src, SimTime(*t), wire))
        .collect();
    let mut backward: Vec<_> = calls
        .iter()
        .rev()
        .map(|(shard, t, wire)| b.transfer(*shard, src, SimTime(*t), wire))
        .collect();
    backward.reverse();
    assert_eq!(forward, backward);
    for (out, (_, _, wire)) in forward.iter().zip(&calls) {
        match out {
            None => lost += 1,
            Some(bytes) if bytes != wire => damaged += 1,
            Some(_) => {}
        }
    }
    assert_eq!(a.totals(), (4000, lost, damaged));
    assert!(lost > 0 && damaged > 0, "lost {lost}, damaged {damaged}");
}

#[test]
fn storm_report_is_identical_at_one_and_nproc_workers() {
    let deployment = Deployment::build(11, DeploymentConfig::scaled(512));
    let cfg = StormConfig::sized(600, 3, 11);
    let nproc = std::thread::available_parallelism()
        .map_or(2, |n| n.get())
        .max(2);
    let w1_channel = LossyChannel::new(5, cfg.shards);
    let w1 = run_engine(&deployment, &cfg, &w1_channel, 1);
    let wn_channel = LossyChannel::new(5, cfg.shards);
    let wn = run_engine(&deployment, &cfg, &wn_channel, nproc);
    assert_eq!(
        serde_json::to_string(&w1).unwrap(),
        serde_json::to_string(&wn).unwrap()
    );
    assert_eq!(w1_channel.totals(), wn_channel.totals());
    assert!(w1.session_drops > 0, "the channel damaged no datagram");
    let (replayed, _) = replay(&deployment, &cfg, &LossyChannel::new(5, cfg.shards), false);
    assert!(
        replayed.matches(&wn),
        "serial replay differs from the engine"
    );
}
