//! Integration: answers framed once, into reused buffers, and the resident
//! walker that holds the in-links alone. (a) A `Cohort` frame written
//! straight from a cached `CohortBlock` is byte for byte the frame of the
//! nested cohort it expands to, on hand-built edges (escaped counts, empty
//! steps, steps either side of the encoder's 256-record block) and on
//! random cohorts; a session frames every request kind, batches holding a
//! cohort included, as `Envelope::response` over its `execute` answer.
//! (b) `CloudWalker::from_in_links` answers every request kind bit for bit
//! like a `from_index` walker on the same graph and diagonal, refuses a
//! config past the forward stage's arm point with a typed error, and
//! accounts only the in-link bytes.

use pasco::graph::{generators, CsrGraph, NodeId};
use pasco::mc::walks::{CohortBlock, StepDistributions};
use pasco::simrank::api::envelope::{frame_cohort, Envelope};
use pasco::simrank::api::wire::WireCodec;
use pasco::simrank::{
    queries, CloudWalker, ExecMode, KernelEngine, QueryError, QueryRequest, QueryResponse,
    QueryService, QuerySession, SimRankConfig, SimRankEngine, SimRankError,
};
use proptest::prelude::*;
use proptest::TestRng;
use std::sync::Arc;

/// The frame a `Cohort` answer had before it was framed from the block.
fn expanded_frame(id: u64, block: &CohortBlock) -> Vec<u8> {
    let resp = QueryResponse::Cohort(StepDistributions::from(block));
    Envelope::response(id, &resp).to_bytes()
}

/// Frames `d` from its block and from its nested form, each into a reused
/// buffer holding a longer stale frame, and checks both against the
/// expanded frame.
fn assert_block_frame(d: &StepDistributions, what: &str) {
    let block = CohortBlock::try_from(d).unwrap();
    let want = expanded_frame(7, &block);
    let mut frame = vec![0xa5; want.len() + 100];
    frame_cohort(&mut frame, 7, &block);
    assert_eq!(frame, want, "{what}: from the block");
    frame_cohort(&mut frame, 7, d);
    assert_eq!(frame, want, "{what}: from the nested cohort");
}

/// A cohort of `R′ = walkers` from `source` with the given steps past 0.
fn cohort(source: NodeId, walkers: u32, steps: Vec<Vec<(NodeId, u64)>>) -> StepDistributions {
    let mut counts = vec![vec![(source, u64::from(walkers))]];
    counts.extend(steps);
    StepDistributions { source, walkers, counts }
}

fn run(len: u32, count: u64) -> Vec<(NodeId, u64)> {
    (0..len).map(|k| (3 * k + 1, count + u64::from(k % 7))).collect()
}

#[test]
fn block_frames_equal_the_expanded_frames_on_every_edge() {
    assert_block_frame(&cohort(4, 1, vec![]), "one-entry cohort");
    assert_block_frame(&cohort(4, 10_000, vec![]), "step 0's escaped R'");
    assert_block_frame(&cohort(4, 10_000, vec![vec![], vec![]]), "empty steps");
    let hub = vec![(2, 1), (9, 255), (10, 254), (11, 9_000), (40, 256)];
    assert_block_frame(&cohort(9, 10_000, vec![hub, vec![]]), "hub counts past step 0");
    for len in [255, 256, 257] {
        let steps = vec![run(len, 1), run(len, 250), vec![], run(len, 2)];
        assert_block_frame(&cohort(1, 10_000, steps), &format!("steps of {len} entries"));
    }
    // A block from the walk kernel itself: a hub source on a real graph.
    let g = generators::barabasi_albert(2_000, 4, 9);
    let cfg = SimRankConfig::default_paper();
    let hub = g.nodes().max_by_key(|&v| g.in_degree(v)).unwrap();
    let block = queries::query_block_on(&g, &cfg, hub);
    assert_block_frame(&StepDistributions::from(&block), "a kernel-written hub cohort");
}

/// A random cohort: up to 5 steps of up to 600 ascending ids, counts
/// mostly small with escapes mixed in.
fn gen_cohort(rng: &mut TestRng) -> StepDistributions {
    let walkers = (rng.next_u64() % 20_000) as u32 + 1;
    let steps = (0..rng.next_u64() % 6)
        .map(|_| {
            let len = rng.next_u64() % 600;
            let mut id = 0;
            (0..len)
                .map(|_| {
                    id += 1 + (rng.next_u64() % 50) as NodeId;
                    let count = match rng.next_u64() % 10 {
                        0 => 255 + rng.next_u64() % 20_000,
                        _ => 1 + rng.next_u64() % 254,
                    };
                    (id, count)
                })
                .collect()
        })
        .collect();
    cohort((rng.next_u64() >> 40) as NodeId, walkers, steps)
}

struct AnyCohort;
impl Strategy for AnyCohort {
    type Value = StepDistributions;
    fn generate(&self, rng: &mut TestRng) -> StepDistributions {
        gen_cohort(rng)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random cohorts frame from their blocks to the expanded bytes.
    #[test]
    fn block_frames_equal_the_expanded_frames_on_random_cohorts(d in AnyCohort) {
        assert_block_frame(&d, "random cohort");
    }
}

/// A BA graph, its diagonal at the fast config, and a `from_index` walker.
fn resident() -> (CsrGraph, SimRankConfig, Arc<CloudWalker>) {
    let g = generators::barabasi_albert(300, 4, 21);
    let cfg = SimRankConfig::fast().with_seed(4);
    let built = CloudWalker::build(Arc::new(g.clone()), cfg, ExecMode::Local).unwrap();
    let cw = CloudWalker::from_index(Arc::new(g.clone()), cfg, built.diagonal().clone()).unwrap();
    (g, cfg, Arc::new(cw))
}

/// Every request kind, batches holding a cohort, and typed failures.
fn every_request() -> Vec<QueryRequest> {
    let members = vec![
        QueryRequest::SinglePair { i: 3, j: 41 },
        QueryRequest::SingleSource { i: 7 },
        QueryRequest::SingleSourceTopK { i: 11, k: 6 },
        QueryRequest::PairsMatrix { rows: vec![1, 5, 3], cols: vec![2, 9, 17] },
        QueryRequest::Cohort { v: 23 },
        QueryRequest::Cohort { v: 0 },
    ];
    let mut all = members.clone();
    all.push(QueryRequest::Batch(members));
    all.push(QueryRequest::Batch(vec![QueryRequest::Cohort { v: 5 }]));
    all.push(QueryRequest::Cohort { v: 300 });
    all.push(QueryRequest::Batch(vec![
        QueryRequest::Cohort { v: 9 },
        QueryRequest::Cohort { v: 301 },
    ]));
    all
}

/// What a front door sent before answers were framed from the cache:
/// `Envelope::response` (or `error`) over `execute`'s answer.
fn executed_frame(svc: &dyn QueryService, id: u64, req: QueryRequest) -> Vec<u8> {
    match svc.execute(req) {
        Ok(resp) => Envelope::response(id, &resp).to_bytes(),
        Err(err) => Envelope::error(id, &err).to_bytes(),
    }
}

#[test]
fn a_session_frames_every_request_as_execute_answers_it() {
    let (_, _, cw) = resident();
    let session = QuerySession::new(Arc::clone(&cw), 64);
    let mut frame = Vec::new();
    for (id, req) in (1..).zip(every_request()) {
        // Cold for the first cohort of `v`, then warm: both frame alike.
        for _ in 0..2 {
            session.frame(id, req.clone(), &mut frame);
            assert_eq!(frame, executed_frame(&session, id, req.clone()), "{req:?}");
            assert_eq!(frame, executed_frame(cw.as_ref(), id, req.clone()), "{req:?}");
        }
    }
    // The cached cohort's frame, from its block.
    let cohort = cw.try_query_cohort(23).unwrap();
    session.frame(9, QueryRequest::Cohort { v: 23 }, &mut frame);
    let want = Envelope::response(9, &QueryResponse::Cohort(cohort)).to_bytes();
    assert_eq!(frame, want);
}

#[test]
fn the_in_links_walker_answers_every_kind_like_the_from_index_walker() {
    let (g, cfg, full) = resident();
    let bytes = g.clone().into_in_links().memory_bytes();
    let links =
        CloudWalker::from_in_links(g.into_in_links(), cfg, full.diagonal().clone()).unwrap();
    let links = Arc::new(links);
    assert_eq!(links.mode_name(), "local");
    assert_eq!(links.node_count(), full.node_count());
    assert!(links.graph().is_none() && links.reverse_chain_index().is_none());
    assert!(links.store().is_none());
    assert!(full.reverse_chain_index().is_some(), "from_index keeps its sampling index");

    let (want, got) =
        (QuerySession::new(Arc::clone(&full), 64), QuerySession::new(links.clone(), 64));
    let mut frame = Vec::new();
    for (id, req) in (1..).zip(every_request()) {
        let answer = |svc: &dyn QueryService| svc.execute(req.clone()).map(|r| r.to_bytes());
        assert_eq!(answer(&got), answer(&want), "session: {req:?}");
        assert_eq!(answer(links.as_ref()), answer(full.as_ref()), "walker: {req:?}");
        got.frame(id, req.clone(), &mut frame);
        assert_eq!(frame, executed_frame(&want, id, req.clone()), "frame: {req:?}");
    }
    assert_eq!(links.all_pairs_topk(3).unwrap(), full.all_pairs_topk(3).unwrap());

    // Memory: the in-links and nothing else.
    let fp = links.memory_footprint();
    assert_eq!(fp.per_worker_bytes, bytes);
    assert!(!fp.partitioned && links.shard_footprints().is_none());
    assert!(fp.per_worker_bytes < full.memory_footprint().per_worker_bytes);
    assert!(links.save_store(std::env::temp_dir().join("pasco_framed_links"), 2).is_err());
}

#[test]
fn the_in_links_alone_refuse_a_config_past_the_arm_point_typed() {
    let (g, cfg, full) = resident();
    let mut walks = cfg;
    walks.r_forward = 1;
    let (n, m) = (u64::from(g.node_count()), g.edge_count());
    assert!(queries::sweeps_pay(n, m, cfg.t, cfg.r_forward));
    assert!(!queries::sweeps_pay(n, m, walks.t, walks.r_forward), "r_forward 1 walks");
    let diag = full.diagonal().clone();
    match CloudWalker::from_in_links(g.clone().into_in_links(), walks, diag.clone()) {
        Err(SimRankError::Query(QueryError::Unsupported { .. })) => {}
        other => panic!("expected a typed Unsupported, got {:?}", other.map(|_| ())),
    }
    let short = pasco::simrank::DiagonalIndex::new(vec![0.5; 3]);
    assert!(matches!(
        CloudWalker::from_in_links(g.clone().into_in_links(), cfg, short),
        Err(SimRankError::BadIndex(_))
    ));
    // The engine over the in-links, asked to walk: typed, not a panic.
    let engine = KernelEngine::new(Arc::new(g.into_in_links()));
    let unsupported = |e| matches!(e, QueryError::Unsupported { .. });
    assert!(engine.single_source(diag.as_slice(), &walks, 3).is_err_and(unsupported));
    assert!(engine.single_source_topk(diag.as_slice(), &walks, 3, 5).is_err_and(unsupported));
    assert_eq!(
        engine.single_source(diag.as_slice(), &cfg, 3).unwrap(),
        queries::single_source_push(&**full.graph().unwrap(), diag.as_slice(), &cfg, 3)
    );
}
