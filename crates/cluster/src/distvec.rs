//! `DistVec` — the RDD analogue: a dataset partitioned across workers.
//!
//! Its two operators — [`DistVec::map_partitions`] and
//! [`DistVec::shuffle`], all the RDD engine needs — execute as cluster
//! stages (one task per partition) and are recorded in the metrics log.
//! [`DistVec::shuffle`] performs a real map-side serialisation into
//! per-destination byte buffers followed by a reduce-side decode, so
//! RDD-mode algorithms pay a genuine serialise/transfer/deserialise cost
//! exactly where Spark would.

use crate::cluster::Cluster;
use crate::codec::Codec;
use crate::metrics::{simulate_network, ShuffleMetrics};

/// A dataset split into partitions, each living on one simulated worker.
#[derive(Clone, Debug)]
pub struct DistVec<T> {
    parts: Vec<Vec<T>>,
}

impl<T: Send> DistVec<T> {
    /// Wraps existing partitions.
    pub fn from_partitions(parts: Vec<Vec<T>>) -> Self {
        assert!(!parts.is_empty(), "need at least one partition");
        Self { parts }
    }

    /// Splits `items` into `parts` contiguous, evenly sized partitions.
    pub fn parallelize(items: Vec<T>, parts: usize) -> Self {
        assert!(parts > 0, "need at least one partition");
        let total = items.len();
        let chunk = total.div_ceil(parts).max(1);
        let mut out: Vec<Vec<T>> = Vec::with_capacity(parts);
        let mut iter = items.into_iter();
        for _ in 0..parts {
            let part: Vec<T> = iter.by_ref().take(chunk).collect();
            out.push(part);
        }
        debug_assert_eq!(out.iter().map(Vec::len).sum::<usize>(), total);
        Self { parts: out }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.parts.len()
    }

    /// Total number of records.
    pub fn len(&self) -> usize {
        self.parts.iter().map(Vec::len).sum()
    }

    /// True when every partition is empty.
    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(Vec::is_empty)
    }

    /// Borrows partition `i`.
    pub fn partition(&self, i: usize) -> &[T] {
        &self.parts[i]
    }

    /// Consumes the dataset, yielding its raw partitions (for custom stages
    /// that need to thread partition data through `Cluster::run_stage`).
    pub fn into_partitions(self) -> Vec<Vec<T>> {
        self.parts
    }

    /// Whole-partition transformation; `f` receives the partition index and
    /// the owned partition.
    pub fn map_partitions<U, F>(self, cluster: &Cluster, label: &str, f: F) -> DistVec<U>
    where
        U: Send,
        F: Fn(usize, Vec<T>) -> Vec<U> + Sync,
    {
        let parts = cluster.run_stage(label, self.parts, f);
        DistVec { parts }
    }

    /// Concatenates all partitions on the driver.
    pub fn collect(self) -> Vec<T> {
        self.parts.into_iter().flatten().collect()
    }

    /// Repartitions by destination: `dest(&record)` names the partition
    /// (`0..dest_parts`) each record must move to. Map-side tasks encode
    /// records into per-destination byte buffers; reduce-side tasks decode.
    /// Bytes, records and message counts land in the metrics log under
    /// `label`, together with the virtual cluster's estimated network time.
    pub fn shuffle<F>(
        self,
        cluster: &Cluster,
        label: &str,
        dest_parts: usize,
        dest: F,
    ) -> DistVec<T>
    where
        T: Codec,
        F: Fn(&T) -> usize + Sync,
    {
        assert!(dest_parts > 0, "need at least one destination partition");
        // Map side: size each destination's buffer, then encode into it.
        let encoded: Vec<Vec<(usize, Vec<u8>)>> =
            cluster.run_stage(&format!("{label}/write"), self.parts, |_, part| {
                let mut sizes = vec![(0usize, 0usize); dest_parts];
                for record in &part {
                    let d = dest(record);
                    debug_assert!(d < dest_parts, "destination {d} out of range");
                    sizes[d].0 += 1;
                    sizes[d].1 += record.encoded_len();
                }
                let mut bufs: Vec<(usize, Vec<u8>)> =
                    sizes.into_iter().map(|(n, len)| (n, Vec::with_capacity(len))).collect();
                for record in part {
                    record.encode(&mut bufs[dest(&record)].1);
                }
                bufs
            });

        // "Network": account for every non-empty src→dst message.
        let mut bytes = 0u64;
        let mut messages = 0u64;
        for src in &encoded {
            for (_, buf) in src {
                if !buf.is_empty() {
                    bytes += buf.len() as u64;
                    messages += 1;
                }
            }
        }

        // Transpose: destination d receives one counted buffer per source.
        let mut inboxes: Vec<Vec<(usize, Vec<u8>)>> = (0..dest_parts).map(|_| Vec::new()).collect();
        for src_bufs in encoded {
            for (d, msg) in src_bufs.into_iter().enumerate() {
                if !msg.1.is_empty() {
                    inboxes[d].push(msg);
                }
            }
        }

        // Reduce side: decode into a partition sized from the inbox.
        let parts: Vec<Vec<T>> = cluster.run_stage(&format!("{label}/read"), inboxes, |_, msgs| {
            let mut out = Vec::with_capacity(msgs.iter().map(|(n, _)| n).sum());
            for (_, buf) in msgs {
                let mut slice = buf.as_slice();
                while !slice.is_empty() {
                    out.push(T::decode(&mut slice));
                }
            }
            out
        });

        let records = parts.iter().map(Vec::len).sum::<usize>() as u64;
        cluster.log_shuffle(ShuffleMetrics {
            label: label.to_string(),
            bytes,
            records,
            messages,
            est_network: simulate_network(bytes, messages, cluster.config()),
        });
        DistVec { parts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::local(4))
    }

    #[test]
    fn parallelize_splits_evenly() {
        let dv = DistVec::parallelize((0..10u32).collect(), 3);
        assert_eq!(dv.num_partitions(), 3);
        assert_eq!(dv.len(), 10);
        assert_eq!(dv.partition(0).len(), 4);
        assert_eq!(dv.partition(2).len(), 2);
    }

    #[test]
    fn parallelize_more_parts_than_items() {
        let dv = DistVec::parallelize(vec![1u32, 2], 5);
        assert_eq!(dv.num_partitions(), 5);
        assert_eq!(dv.len(), 2);
    }

    #[test]
    fn shuffle_is_a_permutation_and_routes_correctly() {
        let c = cluster();
        let dv = DistVec::parallelize((0..1000u32).collect(), 4);
        let shuffled = dv.shuffle(&c, "by-mod", 5, |&x| (x % 5) as usize);
        assert_eq!(shuffled.num_partitions(), 5);
        assert_eq!(shuffled.len(), 1000);
        for p in 0..5 {
            assert!(shuffled.partition(p).iter().all(|&x| x % 5 == p as u32));
            assert_eq!(shuffled.partition(p).len(), 200);
        }
        // No loss, no duplication.
        let mut all = shuffled.collect();
        all.sort_unstable();
        assert_eq!(all, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_records_metrics() {
        let c = cluster();
        let dv = DistVec::parallelize((0..100u32).collect(), 2);
        let _ = dv.shuffle(&c, "meter", 2, |&x| (x % 2) as usize);
        let m = c.metrics();
        assert_eq!(m.shuffles.len(), 1);
        assert_eq!(m.shuffles[0].records, 100);
        assert_eq!(m.shuffles[0].bytes, 400); // 100 × u32
        assert!(m.shuffles[0].messages <= 4);
        // write + read stages recorded too
        assert_eq!(m.stages.len(), 2);
    }

    #[test]
    fn shuffle_tuples_roundtrip_values() {
        let c = cluster();
        let items: Vec<(u32, f64)> = (0..50).map(|i| (i, i as f64 * 0.5)).collect();
        let dv = DistVec::parallelize(items.clone(), 3);
        let mut back = dv.shuffle(&c, "t", 4, |&(k, _)| (k % 4) as usize).collect();
        back.sort_by_key(|&(k, _)| k);
        assert_eq!(back, items);
    }

    #[test]
    fn empty_partitions_shuffle_cleanly() {
        let c = cluster();
        let dv: DistVec<u32> = DistVec::from_partitions(vec![vec![], vec![], vec![]]);
        let out = dv.shuffle(&c, "empty", 2, |&x| x as usize % 2);
        assert_eq!(out.len(), 0);
        assert_eq!(out.num_partitions(), 2);
    }
}
