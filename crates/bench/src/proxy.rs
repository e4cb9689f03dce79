//! A fault-injecting TCP proxy for soak-testing the reliable beacon
//! path against a *real* `qtag-collectd` daemon.
//!
//! The proxy sits between `BeaconSender`'s `TcpTransport` and the
//! collector and misbehaves on the client→collector direction, per
//! forwarded chunk and deterministically per seed:
//!
//! * **silent drop** — the chunk vanishes; downstream framing is now
//!   mid-frame garbage until the decoder resynchronises, so following
//!   frames may be swallowed too (all unacked, all retried);
//! * **partial write + reset** — a prefix of the chunk is forwarded,
//!   then both directions are torn down (the classic page-unload /
//!   radio-drop shape);
//! * **stall** — the chunk is held for a configurable pause before
//!   forwarding, long enough to fire the sender's ack timeout and
//!   force a duplicate delivery;
//! * **reset** — the connection dies immediately, taking any
//!   buffered acks with it.
//!
//! The collector→client (ack) direction is forwarded verbatim; acks
//! die only when their connection does, which is exactly how TCP
//! loses them in production.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Fault profile of the proxy (all probabilities rolled per
/// client→collector chunk).
#[derive(Debug, Clone)]
pub struct FaultProxyConfig {
    /// Where the real collector listens.
    pub upstream: SocketAddr,
    /// Master seed; connection `i` misbehaves per `seed + i`.
    pub seed: u64,
    /// Probability a chunk is silently dropped.
    pub drop_rate: f64,
    /// Probability a chunk is cut short and the connection reset.
    pub partial_rate: f64,
    /// Probability the connection is reset before the chunk moves.
    pub reset_rate: f64,
    /// Probability a chunk is stalled by `stall` before forwarding.
    pub stall_rate: f64,
    /// Length of an injected stall.
    pub stall: Duration,
    /// Hard-kill crash point: after this many client→collector chunks
    /// have been forwarded (across all connections), the proxy tears
    /// every connection down and stops accepting — the network-side
    /// shape of the collector host dying mid-stream. `None` never
    /// crashes. Durability soaks pair this with `Collector::crash`
    /// (`qtag-collectd`) and WAL recovery.
    pub crash_after: Option<u64>,
}

impl FaultProxyConfig {
    /// A proxy that only forwards — for differential baselines.
    pub fn transparent(upstream: SocketAddr) -> Self {
        FaultProxyConfig {
            upstream,
            seed: 0,
            drop_rate: 0.0,
            partial_rate: 0.0,
            reset_rate: 0.0,
            stall_rate: 0.0,
            stall: Duration::from_millis(0),
            crash_after: None,
        }
    }

    /// The retry-soak profile used by CI: every fault class active.
    pub fn soak(upstream: SocketAddr, seed: u64) -> Self {
        FaultProxyConfig {
            upstream,
            seed,
            drop_rate: 0.08,
            partial_rate: 0.03,
            reset_rate: 0.03,
            stall_rate: 0.05,
            stall: Duration::from_millis(80),
            crash_after: None,
        }
    }
}

/// What the proxy did, across all connections.
#[derive(Debug, Default)]
pub struct ProxyStats {
    /// Connections accepted from clients.
    pub connections: AtomicU64,
    /// Chunks silently dropped.
    pub dropped_chunks: AtomicU64,
    /// Partial-write-then-reset events.
    pub partial_writes: AtomicU64,
    /// Immediate resets.
    pub resets: AtomicU64,
    /// Injected stalls.
    pub stalls: AtomicU64,
    /// Bytes actually forwarded to the collector.
    pub bytes_up: AtomicU64,
    /// Ack bytes forwarded back to clients.
    pub bytes_down: AtomicU64,
    /// Chunks fully forwarded to the collector (the crash-point
    /// countdown input).
    pub forwarded_chunks: AtomicU64,
    /// Crash points fired (0 or 1 per proxy lifetime).
    pub crashes: AtomicU64,
}

/// A running fault proxy. Stop it with [`FaultProxy::shutdown`].
pub struct FaultProxy {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    stats: Arc<ProxyStats>,
}

impl FaultProxy {
    /// Binds an ephemeral localhost port and starts proxying to
    /// `cfg.upstream`.
    pub fn start(cfg: FaultProxyConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ProxyStats::default());
        let acceptor = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            std::thread::spawn(move || accept_loop(listener, cfg, stop, stats))
        };
        Ok(FaultProxy {
            local_addr,
            stop,
            acceptor: Some(acceptor),
            stats,
        })
    }

    /// The address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live fault counters.
    pub fn stats(&self) -> &Arc<ProxyStats> {
        &self.stats
    }

    /// Whether the configured crash point has fired.
    pub fn has_crashed(&self) -> bool {
        self.stats.crashes.load(Ordering::Relaxed) > 0
    }

    /// Stops accepting and joins every forwarding thread.
    pub fn shutdown(mut self) {
        self.stop_now();
    }

    fn stop_now(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.stop_now();
    }
}

fn accept_loop(
    listener: TcpListener,
    cfg: FaultProxyConfig,
    stop: Arc<AtomicBool>,
    stats: Arc<ProxyStats>,
) {
    let mut conn_index = 0u64;
    let mut handles: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((client, _)) => {
                conn_index += 1;
                stats.connections.fetch_add(1, Ordering::Relaxed); // ordering: stat, read after join
                let cfg = cfg.clone();
                let stop = Arc::clone(&stop);
                let stats = Arc::clone(&stats);
                let seed = cfg.seed.wrapping_add(conn_index);
                handles.push(std::thread::spawn(move || {
                    serve_pair(client, cfg, seed, stop, stats)
                }));
                handles.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    drop(listener);
    for h in handles {
        let _ = h.join();
    }
}

/// Forwards one proxied connection until either side closes, a fault
/// kills it, or the proxy stops.
fn serve_pair(
    client: TcpStream,
    cfg: FaultProxyConfig,
    seed: u64,
    stop: Arc<AtomicBool>,
    stats: Arc<ProxyStats>,
) {
    let Ok(upstream) = TcpStream::connect_timeout(&cfg.upstream, Duration::from_secs(2)) else {
        let _ = client.shutdown(Shutdown::Both);
        return;
    };
    let _ = client.set_read_timeout(Some(Duration::from_millis(5)));
    let _ = upstream.set_read_timeout(Some(Duration::from_millis(5)));
    let _ = upstream.set_nodelay(true);
    let _ = client.set_nodelay(true);

    // Ack direction: verbatim, in its own thread so stalls on the
    // upstream direction never delay acks already in flight.
    let down = {
        let mut upstream = upstream.try_clone().expect("clone upstream");
        let mut client = client.try_clone().expect("clone client");
        let stop = Arc::clone(&stop);
        let stats = Arc::clone(&stats);
        std::thread::spawn(move || {
            let mut buf = [0u8; 4096];
            loop {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                match upstream.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => {
                        if client.write_all(&buf[..n]).is_err() {
                            break;
                        }
                        // ordering: monotone stat; exact reads only
                        // after the forwarding threads are joined.
                        stats.bytes_down.fetch_add(n as u64, Ordering::Relaxed);
                    }
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut => {}
                    Err(_) => break,
                }
            }
            let _ = client.shutdown(Shutdown::Both);
        })
    };

    // Beacon direction: chunk by chunk through the fault model.
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut client_r = client.try_clone().expect("clone client");
    let mut upstream_w = upstream.try_clone().expect("clone upstream");
    let mut buf = [0u8; 2048];
    loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        match client_r.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                if cfg.reset_rate > 0.0 && rng.gen_bool(cfg.reset_rate) {
                    stats.resets.fetch_add(1, Ordering::Relaxed); // ordering: stat, read after join
                    break;
                }
                if cfg.drop_rate > 0.0 && rng.gen_bool(cfg.drop_rate) {
                    stats.dropped_chunks.fetch_add(1, Ordering::Relaxed); // ordering: stat, read after join
                    continue;
                }
                if cfg.partial_rate > 0.0 && rng.gen_bool(cfg.partial_rate) && n > 1 {
                    let cut = rng.gen_range(1..n);
                    let _ = upstream_w.write_all(&buf[..cut]);
                    stats.partial_writes.fetch_add(1, Ordering::Relaxed); // ordering: stat, read after join
                    stats.bytes_up.fetch_add(cut as u64, Ordering::Relaxed); // ordering: stat, read after join
                    break;
                }
                if cfg.stall_rate > 0.0 && rng.gen_bool(cfg.stall_rate) {
                    stats.stalls.fetch_add(1, Ordering::Relaxed); // ordering: stat, read after join
                    std::thread::sleep(cfg.stall);
                }
                if upstream_w.write_all(&buf[..n]).is_err() {
                    break;
                }
                stats.bytes_up.fetch_add(n as u64, Ordering::Relaxed); // ordering: stat, read after join
                                                                       // ordering: stat + crash countdown; the +1 makes the
                                                                       // fetch_add prior value this chunk's 1-based index, so
                                                                       // exactly one thread observes the crash point.
                let fwd = stats.forwarded_chunks.fetch_add(1, Ordering::Relaxed) + 1;
                if let Some(at) = cfg.crash_after {
                    if fwd >= at {
                        if fwd == at {
                            stats.crashes.fetch_add(1, Ordering::Relaxed); // ordering: stat, read after join
                        }
                        // The whole proxy dies: acceptor stops, every
                        // forwarding thread exits, both socket
                        // directions are reset below.
                        stop.store(true, Ordering::Relaxed);
                        break;
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => break,
        }
    }
    // Tear both directions down; the down-thread exits on its next
    // read/write error.
    let _ = client.shutdown(Shutdown::Both);
    let _ = upstream.shutdown(Shutdown::Both);
    let _ = down.join();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plain echo server standing in for the collector.
    fn echo_server() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = std::thread::spawn(move || {
            if let Ok((mut s, _)) = listener.accept() {
                let mut buf = [0u8; 1024];
                while let Ok(n) = s.read(&mut buf) {
                    if n == 0 || s.write_all(&buf[..n]).is_err() {
                        break;
                    }
                }
            }
        });
        (addr, h)
    }

    #[test]
    fn transparent_proxy_round_trips_bytes() {
        let (upstream, server) = echo_server();
        let proxy = FaultProxy::start(FaultProxyConfig::transparent(upstream)).unwrap();
        let mut sock = TcpStream::connect(proxy.local_addr()).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        sock.write_all(b"qtag-beacons").unwrap();
        let mut back = [0u8; 12];
        sock.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"qtag-beacons");
        drop(sock);
        let stats = Arc::clone(proxy.stats());
        proxy.shutdown(); // joins every forwarding thread: counts final
        assert_eq!(stats.bytes_up.load(Ordering::Relaxed), 12);
        assert_eq!(stats.bytes_down.load(Ordering::Relaxed), 12);
        let _ = server.join();
    }

    #[test]
    fn faulty_proxy_actually_injects_faults() {
        let (upstream, server) = echo_server();
        let mut cfg = FaultProxyConfig::soak(upstream, 0xFA17);
        cfg.drop_rate = 0.5; // make the smoke quick and certain
        cfg.stall_rate = 0.0;
        let proxy = FaultProxy::start(cfg).unwrap();
        let mut sock = TcpStream::connect(proxy.local_addr()).unwrap();
        // Write many small chunks; with 50 % drop at a fixed seed some
        // must vanish. Pause between writes so chunks stay distinct.
        for _ in 0..40 {
            if sock.write_all(&[0u8; 64]).is_err() {
                break; // an injected reset is also a valid outcome
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let stats = proxy.stats();
        while std::time::Instant::now() < deadline
            && stats.dropped_chunks.load(Ordering::Relaxed) == 0
            && stats.resets.load(Ordering::Relaxed) == 0
            && stats.partial_writes.load(Ordering::Relaxed) == 0
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        let injected = stats.dropped_chunks.load(Ordering::Relaxed)
            + stats.resets.load(Ordering::Relaxed)
            + stats.partial_writes.load(Ordering::Relaxed);
        assert!(injected > 0, "no faults injected: {stats:?}");
        drop(sock);
        proxy.shutdown();
        let _ = server.join();
    }
}
