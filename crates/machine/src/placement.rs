//! Data placement: home nodes and declustering.
//!
//! The paper's §4.1: a file `fileID` lives at home node
//! `fileID mod NumNodes`; with degree of declustering `DD` it is split
//! into `DD` partitions placed on the consecutive nodes
//! `home, home+1, …, home+DD−1 (mod NumNodes)`.

use bds_workload::FileId;
use std::fmt;

/// Identifier of a data-processing node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// The machine's data placement.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    num_nodes: u32,
    dd: u32,
}

impl Placement {
    /// A placement over `num_nodes` nodes with uniform declustering
    /// degree `dd`.
    ///
    /// # Panics
    /// Panics unless `1 ≤ dd ≤ num_nodes`.
    pub fn new(num_nodes: u32, dd: u32) -> Self {
        assert!(num_nodes > 0, "need at least one node");
        assert!(
            (1..=num_nodes).contains(&dd),
            "DD must be in 1..={num_nodes}, got {dd}"
        );
        Placement { num_nodes, dd }
    }

    /// Number of data-processing nodes.
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Degree of declustering.
    pub fn dd(&self) -> u32 {
        self.dd
    }

    /// The home node of a file: `fileID mod NumNodes`.
    pub fn home(&self, file: FileId) -> NodeId {
        NodeId(file.0 % self.num_nodes)
    }

    /// The nodes holding the file's partitions, starting at the home
    /// node: `home, home+1, …, home+DD−1 (mod NumNodes)`.
    pub fn nodes(&self, file: FileId) -> Vec<NodeId> {
        let home = self.home(file).0;
        (0..self.dd)
            .map(|i| NodeId((home + i) % self.num_nodes))
            .collect()
    }

    /// Objects scanned per cohort for a step of total cost `objects`:
    /// the scan is split evenly over the `DD` partitions.
    pub fn cohort_objects(&self, objects: f64) -> f64 {
        objects / self.dd as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FileId {
        FileId(i)
    }

    #[test]
    fn home_is_mod_num_nodes() {
        let p = Placement::new(8, 1);
        assert_eq!(p.home(f(0)), NodeId(0));
        assert_eq!(p.home(f(7)), NodeId(7));
        assert_eq!(p.home(f(8)), NodeId(0));
        assert_eq!(p.home(f(19)), NodeId(3));
    }

    #[test]
    fn dd1_uses_home_only() {
        let p = Placement::new(8, 1);
        assert_eq!(p.nodes(f(5)), vec![NodeId(5)]);
    }

    #[test]
    fn dd4_wraps_around() {
        let p = Placement::new(8, 4);
        assert_eq!(
            p.nodes(f(6)),
            vec![NodeId(6), NodeId(7), NodeId(0), NodeId(1)]
        );
    }

    #[test]
    fn dd8_covers_all_nodes() {
        let p = Placement::new(8, 8);
        let mut nodes = p.nodes(f(3));
        nodes.sort();
        assert_eq!(nodes, (0..8).map(NodeId).collect::<Vec<_>>());
    }

    #[test]
    fn cohort_objects_split_evenly() {
        let p = Placement::new(8, 4);
        assert!((p.cohort_objects(5.0) - 1.25).abs() < 1e-12);
        let p1 = Placement::new(8, 1);
        assert_eq!(p1.cohort_objects(5.0), 5.0);
    }

    #[test]
    fn load_is_balanced_across_homes() {
        // Files 0..16 over 8 nodes: each node is home to exactly 2 files.
        let p = Placement::new(8, 1);
        let mut counts = [0u32; 8];
        for i in 0..16 {
            counts[p.home(f(i)).0 as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 2));
    }

    #[test]
    #[should_panic(expected = "DD must be in")]
    fn dd_larger_than_nodes_panics() {
        Placement::new(8, 9);
    }

    #[test]
    #[should_panic(expected = "DD must be in")]
    fn dd_zero_panics() {
        Placement::new(8, 0);
    }
}
