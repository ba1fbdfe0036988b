//! Closed-loop clients against `stencil_server::Server`: each client
//! thread keeps one job outstanding, blocks in `wait`, checks the output
//! bits, and sends the next.

use std::sync::Barrier;
use std::time::Instant;

use stencil_server::{CacheOutcome, CacheStats, JobSpec, Server, ServerConfig};

use stencil_core::AnyGrid;

use crate::grids::{copy_grid, state_hash};
use crate::jobs::{JobRef, JobSet};
use crate::trace::Tracer;

/// Tenant of client `c`: client 0 is the weight-3 interactive tenant,
/// everyone else shares the weight-1 batch tenant.
fn tenant(client: usize) -> &'static str {
    if client == 0 {
        "interactive"
    } else {
        "batch"
    }
}

/// The server configuration of `serve_mix`: 16 cached plans (8 hot keys
/// fit, the cold stream churns the rest), default queue.
pub fn start_server() -> Server {
    let server = Server::new(ServerConfig::default().cache_capacity(16));
    server.set_weight("interactive", 3);
    server.set_weight("batch", 1);
    server
}

/// What one client saw of one job.
#[derive(Clone, Copy, Debug)]
pub struct JobRecord {
    /// `submit` call → `wait` returned.
    pub latency_s: f64,
    /// The `submit` call alone.
    pub submit_s: f64,
    /// The sweep as the server's own `RunTrace` reports it.
    pub sweep_s: f64,
    pub updates: u64,
    pub cold: bool,
    pub hit: bool,
    /// `submit` refused the job (`SubmitError`, e.g. `QueueFull`).
    pub refused: bool,
    /// Accepted, completed, and bit-identical to the oracle.
    pub ok: bool,
    pub out_hash: u64,
}

/// Input grids a client gets back from finished hot-key jobs, one per
/// key, refilled in place for that key's next job: 90% of jobs then
/// cost the client a memcpy instead of an allocation, which keeps the
/// client's own churn out of the server's timings and peak RSS.
pub type Spares = Vec<Option<AnyGrid>>;

/// Send `job` and wait for it. The input grid is made ready before the
/// clock starts; the output is hashed after it stops.
pub fn one_job(
    server: &Server,
    set: &JobSet,
    client: usize,
    job: JobRef,
    op: u64,
    spares: &mut Spares,
    tr: &mut Tracer,
) -> JobRecord {
    let key = set.key(job);
    let spare = match job {
        JobRef::Hot(k) => spares[k].take(),
        JobRef::Cold(_) => None,
    };
    let input = match spare {
        Some(mut g) => {
            copy_grid(&mut g, &key.grid);
            g
        }
        None => key.grid.clone(),
    };
    let spec = JobSpec::new(tenant(client), key.spec.clone(), input, key.steps);
    let mut rec = JobRecord {
        latency_s: 0.0,
        submit_s: 0.0,
        sweep_s: 0.0,
        updates: key.updates(),
        cold: matches!(job, JobRef::Cold(_)),
        hit: false,
        refused: false,
        ok: false,
        out_hash: 0,
    };
    let t0 = Instant::now();
    let out = tr.span("op", Some(op), |tr| {
        let handle = tr.span("server.submit", Some(op), |_| server.submit(spec));
        rec.submit_s = t0.elapsed().as_secs_f64();
        let handle = match handle {
            Ok(h) => h,
            Err(e) => {
                eprintln!("serve: job {op} of client {client} refused: {e}");
                rec.refused = true;
                return None;
            }
        };
        tr.span("server.wait", Some(op), |tr| match handle.wait() {
            Ok(out) => {
                tr.reported_child("server.sweep", Some(op), out.trace.seconds);
                Some(out)
            }
            Err(e) => {
                eprintln!("serve: job {op} of client {client} failed: {e}");
                None
            }
        })
    });
    rec.latency_s = t0.elapsed().as_secs_f64();
    if let Some(out) = out {
        rec.sweep_s = out.trace.seconds;
        rec.hit = out.trace.cache == CacheOutcome::Hit;
        rec.out_hash = state_hash(&out.grid);
        rec.ok = rec.out_hash == key.oracle;
        if !rec.ok {
            eprintln!(
                "serve: job {op} ({} {:?}) differs from its oracle",
                key.spec, key.shape
            );
        }
        if let JobRef::Hot(k) = job {
            spares[k] = Some(out.grid);
        }
    }
    rec
}

pub struct ServeRun {
    /// Per client, in send order.
    pub records: Vec<Vec<JobRecord>>,
    pub tracers: Vec<Tracer>,
    /// First send → last reply, across clients.
    pub wall_s: f64,
    pub cache_before: CacheStats,
    pub cache_after: CacheStats,
}

/// Run `per_client` jobs on each of `clients` closed-loop client
/// threads. Tracing (if `trace`) covers the second half of each
/// client's jobs, so the first half gives the untraced op times of the
/// same run.
pub fn drive(
    server: &Server,
    set: &JobSet,
    clients: usize,
    per_client: usize,
    trace: bool,
    epoch: Instant,
) -> ServeRun {
    let cache_before = server.cache_stats();
    let start = Barrier::new(clients + 1);
    let mut t0 = Instant::now();
    let results = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let start = &start;
                sc.spawn(move || {
                    let seq = set.sequence(c, per_client);
                    let mut tr = Tracer::new(false, epoch);
                    let mut spares: Spares = vec![None; set.hot.len()];
                    let mut recs = Vec::with_capacity(seq.len());
                    start.wait();
                    for (i, job) in seq.into_iter().enumerate() {
                        if trace && i == per_client / 2 {
                            tr.set_enabled(true);
                        }
                        let op = (i * clients + c) as u64;
                        recs.push(one_job(server, set, c, job, op, &mut spares, &mut tr));
                    }
                    (recs, tr)
                })
            })
            .collect();
        start.wait();
        t0 = Instant::now();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let (records, tracers) = results.into_iter().unzip();
    ServeRun {
        records,
        tracers,
        wall_s,
        cache_before,
        cache_after: server.cache_stats(),
    }
}

/// Send every hot key once so the timed phase starts with a warm cache;
/// returns how many warm-up outputs were wrong.
pub fn warm_up(server: &Server, set: &JobSet, tr: &mut Tracer) -> usize {
    let mut spares: Spares = vec![None; set.hot.len()];
    (0..set.hot.len())
        .filter(|&k| !one_job(server, set, 0, JobRef::Hot(k), k as u64, &mut spares, tr).ok)
        .count()
}
