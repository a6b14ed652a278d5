//! A store written before sections were resolved at open still opens and
//! answers identically.
//!
//! `fixtures/parent_store/` holds the three shards `write_store` produced
//! at the commit before PR 20 for `barabasi_albert(40, 2, 7)` split three
//! ways (chunks of 14, 14 and 12 nodes). The writer has not changed since,
//! so regenerating the store and comparing bytes proves the fixture is
//! what that commit wrote; opening the committed bytes proves the reader
//! still takes them.

use pasco_graph::adjacency::{ForwardSampler, WalkAdjacency};
use pasco_graph::generators;
use pasco_graph::partition::Partitioner;
use pasco_graph::partitioned::PartitionedView;
use pasco_store::{shard_file_name, write_store, MappedShard, MappedStore};
use std::path::Path;

#[test]
fn a_store_written_by_the_parent_commit_opens_and_answers_identically() {
    let g = generators::barabasi_albert(40, 2, 7);
    let diag: Vec<f64> = (0..40).map(|v| 0.5 + f64::from(v) / 128.0).collect();
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parent_store");

    let fresh = std::env::temp_dir().join("pasco_store_parent_fixture");
    let _ = std::fs::remove_dir_all(&fresh);
    std::fs::create_dir_all(&fresh).unwrap();
    write_store(&fresh, &g, &diag, 3).unwrap();
    for part in 0..3 {
        let name = shard_file_name(part);
        assert_eq!(
            std::fs::read(fixture.join(&name)).unwrap(),
            std::fs::read(fresh.join(&name)).unwrap(),
            "{name}: the format moved — the committed bytes are no longer what the writer emits"
        );
    }

    let store: MappedStore = MappedStore::open(&fixture).unwrap();
    store.verify().unwrap();
    assert_eq!((store.node_count(), store.parts()), (40, 3));
    assert_eq!(store.compose_diag(), diag);
    let view: PartitionedView = PartitionedView::of_graph(&g, Partitioner::range(40, 3));
    for v in 0..40 + 17 {
        let shard: &MappedShard = store.shard_of(v);
        assert_eq!(WalkAdjacency::in_neighbors(&store, v), view.in_neighbors(v), "in {v}");
        assert_eq!(shard.out_neighbors(v), view.out_neighbors(v), "out {v}");
        assert_eq!(
            ForwardSampler::outflow(&store, v).to_bits(),
            view.outflow(v).to_bits(),
            "W {v}"
        );
        for r in [0.0, 0.37, 0.999] {
            assert_eq!(
                ForwardSampler::sample_out(&store, v, r),
                view.sample_out(v, r),
                "sample {v} {r}"
            );
        }
    }
}
