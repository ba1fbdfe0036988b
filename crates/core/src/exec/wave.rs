//! Wavefront tile scheduler: dependency-counted execution of temporally
//! tiled work without per-stage barriers.
//!
//! The tiled drivers — tessellation ([`super::tess`], which also runs
//! 2D/3D split tiling) and the 1D DLT column split ([`super::split`]) —
//! cut space-time into tiles whose legal orders form a DAG: a tile touching
//! cells at time `t+1` may run only after the tiles that produced its
//! inputs at time `t`. The original drivers over-approximated that DAG
//! with global stage barriers (all triangles, *barrier*, all inverted
//! tiles, *barrier*, next chunk). This module keeps the exact same tiles
//! but schedules them by their true data dependences: each node carries an
//! atomic count of unfinished predecessors, a worker that retires a node
//! decrements its successors and pushes any that hit zero onto its own
//! ready queue, and the workers drain the queues (stealing from each other
//! when their own runs dry) until every node has run — no barrier
//! anywhere, so a fast thread advances into the next stage or time chunk
//! while a slow one finishes the previous.
//!
//! # Ready queues
//!
//! Each worker owns a small mutex-protected deque. A worker pushes nodes
//! it unlocks onto the **back** of its own deque and pops its own work
//! from the back (LIFO — the node it just unlocked is the one whose
//! inputs are hottest in its cache). When its own deque is empty it
//! scans the other workers' deques and steals from the **front** (FIFO —
//! the oldest, coldest work, farthest from what the victim is about to
//! pop). Roots are seeded round-robin across workers in push order, so
//! the initial stage-0 tiles spread across the pool without contention
//! on a single shared stack.
//!
//! # Graph construction
//!
//! Drivers push nodes in **monotone (chunk, stage) order**, so the index
//! order is already a topological order and the sequential path (`threads
//! == 1`) is literally `for node in nodes { exec(node) }` — the tiled
//! sequential oracle the parallel schedule is tested bit-identical
//! against. Each node carries one or more **footprint boxes**: closed-open
//! integer intervals per dimension covering every cell the node may read
//! or write (its union of per-step tile ranges, extended by the stencil
//! radius). An edge `i → j` is added iff `i < j`, the nodes overlap in
//! every dimension of some box pair, and either
//!
//! * same chunk with `stage(i) < stage(j)` — intra-chunk stage ordering
//!   (tiles of the *same* stage are mutually independent by tessellation
//!   correctness, so no edge), or
//! * `chunk(j) == chunk(i) + 1` — chunk handoff. Chunks tessellate
//!   space-time exactly, so a dependence spanning more than one chunk is
//!   always transitively covered by a chain of adjacent-chunk edges.
//!
//! The box test is conservative (boxes over-approximate true reads), which
//! can only add edges, never drop one — extra edges cost a little
//! parallelism, never correctness.
//!
//! # Determinism
//!
//! Every schedule the graph admits produces bit-identical grids: nodes
//! with no path between them have disjoint writes (exact tessellation
//! coverage), and no two nodes write the same halo cell — under a
//! refreshed boundary one edge-group node per chunk does every halo
//! refresh, and consecutive groups overlap, so they are ordered (see
//! [`super::halo`]). The worker loop's pop order is therefore a
//! performance detail, not a correctness one.
//!
//! # Memory ordering
//!
//! A retiring worker's grid writes happen-before its `fetch_sub(AcqRel)`
//! on each successor's counter; the final decrementer's RMW reads the
//! whole release sequence, and the per-worker deque mutexes hand the node
//! to its executor (locally popped or stolen) with acquire/release — so a
//! node always observes every predecessor's writes.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;

use rayon::prelude::*;

/// One footprint box: closed-open `(lo, hi)` per dimension. Unused
/// trailing dimensions use `(0, 1)` so they always overlap.
pub(crate) type FootBox = [(i64, i64); 3];

/// Footprint box for a 1D range (dims 1 and 2 always overlap).
#[inline]
pub(crate) fn box1(lo: i64, hi: i64) -> FootBox {
    [(lo, hi), (0, 1), (0, 1)]
}

struct Node<P> {
    chunk: u32,
    stage: u8,
    boxes: Vec<FootBox>,
    payload: P,
}

/// A wavefront schedule under construction: tiles pushed in monotone
/// (chunk, stage) order, then executed by [`Wave::run`].
pub(crate) struct Wave<P> {
    nodes: Vec<Node<P>>,
}

fn boxes_overlap(a: &[FootBox], b: &[FootBox]) -> bool {
    a.iter().any(|ba| {
        b.iter()
            .any(|bb| (0..3).all(|d| ba[d].0 < bb[d].1 && bb[d].0 < ba[d].1))
    })
}

impl<P: Sync> Wave<P> {
    pub(crate) fn new() -> Self {
        Wave { nodes: Vec::new() }
    }

    /// Append a node. Callers must push in non-decreasing (chunk, stage)
    /// order so that index order is a topological order of the graph.
    pub(crate) fn push(&mut self, chunk: usize, stage: u8, boxes: Vec<FootBox>, payload: P) {
        if let Some(last) = self.nodes.last() {
            debug_assert!(
                (last.chunk, last.stage) <= (chunk as u32, stage),
                "nodes must arrive in monotone (chunk, stage) order"
            );
        }
        self.nodes.push(Node {
            chunk: chunk as u32,
            stage,
            boxes,
            payload,
        });
    }

    /// Successor lists and predecessor counts under the dependence rule in
    /// the module docs.
    fn edges(&self) -> (Vec<Vec<u32>>, Vec<u32>) {
        let n = self.nodes.len();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![0u32; n];
        // Nodes arrive chunk-ordered: only the previous and current chunk
        // can hold predecessors (older chunks are covered transitively),
        // so each node scans back no further than its previous chunk's
        // first index.
        let mut prev_chunk_start = 0usize;
        let mut chunk_start = 0usize;
        for j in 0..n {
            let nj = &self.nodes[j];
            if j > 0 && self.nodes[j - 1].chunk != nj.chunk {
                prev_chunk_start = chunk_start;
                chunk_start = j;
            }
            for i in prev_chunk_start..j {
                let ni = &self.nodes[i];
                let ordered =
                    (ni.chunk == nj.chunk && ni.stage < nj.stage) || ni.chunk + 1 == nj.chunk;
                if ordered && boxes_overlap(&ni.boxes, &nj.boxes) {
                    succs[i].push(j as u32);
                    preds[j] += 1;
                }
            }
        }
        (succs, preds)
    }

    /// Execute every node. `threads == 1` runs the nodes in push order on
    /// the calling thread — the sequential tiled schedule. Otherwise the
    /// dependence graph is built and drained by `threads` workers on
    /// `pool` via per-node atomic predecessor counters and per-worker
    /// LIFO/steal-FIFO ready queues; see the module docs for why any
    /// admitted order is bit-identical to the sequential one.
    ///
    /// `exec` receives the worker index (`0..threads`; always 0 on the
    /// sequential path) so executors can keep per-worker scratch without
    /// thread-local lookups.
    pub(crate) fn run(
        &self,
        pool: &rayon::ThreadPool,
        threads: usize,
        exec: impl Fn(usize, &P) + Sync,
    ) {
        let total = self.nodes.len();
        if threads <= 1 || total <= 1 {
            for node in &self.nodes {
                exec(0, &node.payload);
            }
            return;
        }
        let (succs, preds) = self.edges();
        let remaining: Vec<AtomicU32> = preds.iter().map(|&c| AtomicU32::new(c)).collect();
        let queues: Vec<Mutex<VecDeque<u32>>> =
            (0..threads).map(|_| Mutex::new(VecDeque::new())).collect();
        // Seed roots round-robin in push (= stage) order: worker w starts
        // on the w-th root, so the initial wave spreads without everyone
        // hammering one queue.
        for (at, i) in (0..total as u32)
            .filter(|&i| preds[i as usize] == 0)
            .enumerate()
        {
            queues[at % threads]
                .lock()
                .expect("wavefront ready queue")
                .push_back(i);
        }
        let done = AtomicUsize::new(0);
        pool.install(|| {
            (0..threads)
                .collect::<Vec<_>>()
                .into_par_iter()
                .for_each(|w| loop {
                    // Own queue first, newest node (LIFO: hottest inputs).
                    let mut next = queues[w].lock().expect("wavefront ready queue").pop_back();
                    if next.is_none() {
                        // Steal the oldest (FIFO) node from another worker,
                        // scanning from our right neighbor.
                        for v in (1..threads).map(|d| (w + d) % threads) {
                            next = queues[v].lock().expect("wavefront ready queue").pop_front();
                            if next.is_some() {
                                break;
                            }
                        }
                    }
                    match next {
                        Some(i) => {
                            exec(w, &self.nodes[i as usize].payload);
                            done.fetch_add(1, Ordering::Release);
                            for &s in &succs[i as usize] {
                                if remaining[s as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                                    queues[w]
                                        .lock()
                                        .expect("wavefront ready queue")
                                        .push_back(s);
                                }
                            }
                        }
                        None => {
                            if done.load(Ordering::Acquire) >= total {
                                break;
                            }
                            std::hint::spin_loop();
                            std::thread::yield_now();
                        }
                    }
                });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Record execution order and assert every edge was respected.
    fn check_schedule(threads: usize) {
        // Three chunks of a 1D tiling: stage-0 tiles [k*10, k*10+10) and
        // stage-1 tiles straddling the boundaries, radius 1.
        let mut wave = Wave::new();
        let mut id = 0u32;
        for chunk in 0..3usize {
            for k in 0..4i64 {
                wave.push(chunk, 0, vec![box1(k * 10 - 1, k * 10 + 11)], id);
                id += 1;
            }
            for b in 1..4i64 {
                wave.push(chunk, 1, vec![box1(b * 10 - 6, b * 10 + 6)], id);
                id += 1;
            }
        }
        let total = wave.nodes.len();
        let (succs, preds) = wave.edges();
        // Stage-1 tiles depend on their two flanking stage-0 tiles.
        assert_eq!(preds[4], 2, "chunk-0 inverted tile waits on both triangles");
        // Chunk-1 roots don't exist: everything past chunk 0 has preds.
        assert!(preds[7..].iter().all(|&p| p > 0));

        let order = Mutex::new(Vec::new());
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        wave.run(&pool, threads, |w, &p| {
            assert!(w < threads.max(1), "worker index {w} out of range");
            order.lock().unwrap().push(p);
        });
        let order = order.into_inner().unwrap();
        assert_eq!(order.len(), total, "every node runs exactly once");
        let pos: std::collections::HashMap<u32, usize> =
            order.iter().enumerate().map(|(at, &p)| (p, at)).collect();
        assert_eq!(pos.len(), total, "no node ran twice");
        for (i, ss) in succs.iter().enumerate() {
            for &j in ss {
                assert!(
                    pos[&(i as u32)] < pos[&j],
                    "edge {i} -> {j} violated by schedule {order:?}"
                );
            }
        }
        if threads <= 1 {
            assert_eq!(order, (0..total as u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn sequential_runs_in_push_order() {
        check_schedule(1);
    }

    #[test]
    fn parallel_respects_every_edge() {
        for threads in [2, 3, 7] {
            for _ in 0..8 {
                check_schedule(threads);
            }
        }
    }

    #[test]
    fn disjoint_same_stage_tiles_share_no_edge() {
        let mut wave = Wave::new();
        wave.push(0, 0, vec![box1(0, 12)], 0u32);
        wave.push(0, 0, vec![box1(9, 22)], 1u32);
        wave.push(0, 1, vec![box1(50, 60)], 2u32);
        let (succs, preds) = wave.edges();
        assert!(succs.iter().all(|s| s.is_empty()), "{succs:?}");
        assert_eq!(preds, vec![0, 0, 0]);
    }

    #[test]
    fn multi_box_nodes_link_through_any_box() {
        let mut wave = Wave::new();
        wave.push(0, 0, vec![box1(0, 4), box1(90, 100)], 0u32);
        wave.push(1, 0, vec![box1(92, 95)], 1u32);
        let (succs, preds) = wave.edges();
        assert_eq!(succs[0], vec![1]);
        assert_eq!(preds[1], 1);
    }
}
