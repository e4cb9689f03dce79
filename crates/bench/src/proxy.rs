//! A fault-injecting TCP proxy for soak-testing the reliable beacon
//! path against a *real* `qtag-collectd` daemon.
//!
//! Between `BeaconSender`'s `TcpTransport` and the collector, each
//! client→collector chunk meets a [`Fate`] rolled from the config's
//! [`FaultPlan`], per seed and connection: a reset kills the connection
//! (and the acks buffered on it); a loss drops the chunk, leaving
//! downstream framing mid-frame until the decoder resyncs; a corrupt
//! chunk is cut short and the connection reset (the page-unload shape;
//! a one-byte chunk forwards nothing); a stall holds the chunk long
//! enough to fire the sender's ack timeout. Acks are forwarded
//! verbatim and die only with their connection, as TCP loses them, so
//! a plan with ack loss is refused.

use qtag_server::{Fate, FaultDice, FaultPlan, FaultStats};
use rand::Rng;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What the proxy does to the client→collector direction.
#[derive(Debug, Clone)]
pub struct FaultProxyConfig {
    /// Where the real collector listens.
    pub upstream: SocketAddr,
    /// Master seed; connection `i` rolls its faults from `seed + i`.
    pub seed: u64,
    /// The fate of each client→collector chunk.
    pub plan: FaultPlan,
    /// Hard-kill crash point: after this many forwarded chunks (all
    /// connections), every connection is torn down and accepting stops,
    /// as when the collector host dies. `None` never crashes.
    pub crash_after: Option<u64>,
}

impl FaultProxyConfig {
    /// The retry-soak profile used by CI: every fault class a byte
    /// stream can carry.
    pub fn soak(upstream: SocketAddr, seed: u64) -> Self {
        FaultProxyConfig {
            upstream,
            seed,
            plan: FaultPlan {
                reset_rate: 0.03,
                loss_rate: 0.08,
                corrupt_rate: 0.03,
                stall_rate: 0.05,
                stall: Duration::from_millis(80),
                ack_loss_rate: 0.0,
            },
            crash_after: None,
        }
    }
}

/// What the proxy's sockets did, across all connections. The faults it
/// injected are counted apart, in [`FaultProxy::faults`].
#[derive(Debug, Default)]
pub struct ProxyStats {
    /// Connections accepted from clients.
    pub connections: AtomicU64,
    /// Bytes actually forwarded to the collector.
    pub bytes_up: AtomicU64,
    /// Ack bytes forwarded back to clients.
    pub bytes_down: AtomicU64,
    /// Chunks fully forwarded to the collector (the crash countdown).
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
    faults: Arc<FaultStats>,
}

impl FaultProxy {
    /// Binds an ephemeral localhost port and starts proxying to
    /// `cfg.upstream`. Panics on ack loss: acks cross the proxy verbatim.
    pub fn start(cfg: FaultProxyConfig) -> std::io::Result<Self> {
        assert!(
            cfg.plan.ack_loss_rate == 0.0,
            "FaultProxy cannot carry ack loss"
        );
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ProxyStats::default());
        let faults = Arc::new(FaultStats::default());
        let acceptor = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            let faults = Arc::clone(&faults);
            std::thread::spawn(move || accept_loop(listener, cfg, stop, stats, faults))
        };
        Ok(FaultProxy {
            local_addr,
            stop,
            acceptor: Some(acceptor),
            stats,
            faults,
        })
    }

    /// The address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live socket counters.
    pub fn stats(&self) -> &Arc<ProxyStats> {
        &self.stats
    }

    /// Live fault counters: one fate per client→collector chunk read.
    pub fn faults(&self) -> &Arc<FaultStats> {
        &self.faults
    }

    /// Whether the configured crash point has fired.
    pub fn has_crashed(&self) -> bool {
        self.stats.crashes.load(Ordering::Relaxed) > 0
    }

    /// Stops accepting and joins every forwarding thread.
    pub fn shutdown(self) {}
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    cfg: FaultProxyConfig,
    stop: Arc<AtomicBool>,
    stats: Arc<ProxyStats>,
    faults: Arc<FaultStats>,
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
                let dice = FaultDice::new(
                    cfg.plan,
                    cfg.seed.wrapping_add(conn_index),
                    Arc::clone(&faults),
                );
                handles.push(std::thread::spawn(move || {
                    serve_pair(client, cfg, dice, stop, stats)
                }));
                handles.retain(|h| !h.is_finished());
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
    mut client: TcpStream,
    cfg: FaultProxyConfig,
    mut dice: FaultDice,
    stop: Arc<AtomicBool>,
    stats: Arc<ProxyStats>,
) {
    let Ok(mut upstream) = TcpStream::connect_timeout(&cfg.upstream, Duration::from_secs(2)) else {
        let _ = client.shutdown(Shutdown::Both);
        return;
    };
    let _ = client.set_read_timeout(Some(Duration::from_millis(5)));
    let _ = upstream.set_nodelay(true);
    let _ = client.set_nodelay(true);

    // Ack direction: verbatim, in its own thread so stalls on the
    // upstream direction never delay acks already in flight. Its read
    // blocks until the teardown below shuts the sockets down.
    let down = {
        let mut upstream = upstream.try_clone().expect("clone upstream");
        let mut client = client.try_clone().expect("clone client");
        let stats = Arc::clone(&stats);
        std::thread::spawn(move || {
            let mut buf = [0u8; 4096];
            while let Ok(n @ 1..) = upstream.read(&mut buf) {
                if client.write_all(&buf[..n]).is_err() {
                    break;
                }
                // ordering: monotone stat, read after the join below.
                stats.bytes_down.fetch_add(n as u64, Ordering::Relaxed);
            }
            let _ = client.shutdown(Shutdown::Both);
        })
    };

    // Beacon direction: chunk by chunk, each meeting its fate.
    let mut buf = [0u8; 2048];
    while !stop.load(Ordering::Relaxed) {
        match client.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                match dice.fate() {
                    Fate::Reset => break,
                    Fate::Lost => continue,
                    Fate::Corrupt => {
                        // A partial write, then the connection dies.
                        if n > 1 {
                            let cut = dice.rng().gen_range(1..n);
                            let _ = upstream.write_all(&buf[..cut]);
                            // ordering: stat, read after join
                            stats.bytes_up.fetch_add(cut as u64, Ordering::Relaxed);
                        }
                        break;
                    }
                    Fate::Stall => std::thread::sleep(cfg.plan.stall),
                    Fate::Deliver => {}
                }
                if upstream.write_all(&buf[..n]).is_err() {
                    break;
                }
                // ordering: stat, read after join
                stats.bytes_up.fetch_add(n as u64, Ordering::Relaxed);
                // ordering: stat + crash countdown; the +1 makes the
                // fetch_add prior value this chunk's 1-based index, so
                // exactly one thread observes the crash point.
                let fwd = stats.forwarded_chunks.fetch_add(1, Ordering::Relaxed) + 1;
                if cfg.crash_after.is_some_and(|at| fwd >= at) {
                    if cfg.crash_after == Some(fwd) {
                        // ordering: stat, read after join
                        stats.crashes.fetch_add(1, Ordering::Relaxed);
                    }
                    // The whole proxy dies: the acceptor and every
                    // forwarding thread exit.
                    stop.store(true, Ordering::Relaxed);
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => break,
        }
    }
    // Tear both directions down, which ends the ack thread's read.
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
        let transparent = FaultProxyConfig {
            plan: FaultPlan::NONE,
            ..FaultProxyConfig::soak(upstream, 0)
        };
        let proxy = FaultProxy::start(transparent).unwrap();
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
    #[should_panic(expected = "FaultProxy cannot carry ack loss")]
    fn the_proxy_refuses_ack_loss() {
        let mut cfg = FaultProxyConfig::soak("127.0.0.1:9".parse().unwrap(), 0);
        cfg.plan.ack_loss_rate = 0.1;
        let _ = FaultProxy::start(cfg);
    }

    #[test]
    fn faulty_proxy_actually_injects_faults() {
        let (upstream, server) = echo_server();
        let mut cfg = FaultProxyConfig::soak(upstream, 0xFA17);
        cfg.plan.loss_rate = 0.5; // make the smoke quick and certain
        cfg.plan.stall_rate = 0.0;
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
        let injected = || {
            let f = proxy.faults().snapshot();
            f.lost + f.resets + f.corrupted
        };
        while std::time::Instant::now() < deadline && injected() == 0 {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(injected() > 0, "no faults injected: {:?}", proxy.faults());
        drop(sock);
        proxy.shutdown();
        let _ = server.join();
    }
}
