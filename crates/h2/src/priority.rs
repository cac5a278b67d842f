//! RFC 7540 §5.3 stream priority tree.
//!
//! The paper's §6.1 argues that coalescing "opens resource scheduling
//! opportunities … coalesced resources are always received in the
//! ordering intended to optimize the critical path", because one
//! connection gives the server a single scheduler, whereas parallel
//! connections compete at the bottleneck and arrive in network-jitter
//! order. This module provides that single scheduler: a dependency
//! tree with weights, yielding the bandwidth-allocation order a
//! server should transmit responses in.

use crate::frame::PrioritySpec;
use crate::stream::StreamId;
use std::collections::HashMap;

#[derive(Debug, Clone)]
struct Node {
    parent: StreamId,
    weight: u16, // 1..=256
    children: Vec<StreamId>,
}

/// A priority tree rooted at stream 0.
#[derive(Debug, Clone)]
pub struct PriorityTree {
    nodes: HashMap<StreamId, Node>,
}

impl Default for PriorityTree {
    fn default() -> Self {
        Self::new()
    }
}

impl PriorityTree {
    /// A tree containing only the root (stream 0).
    pub fn new() -> Self {
        let mut nodes = HashMap::new();
        nodes.insert(
            StreamId::CONNECTION,
            Node {
                parent: StreamId::CONNECTION,
                weight: 16,
                children: Vec::new(),
            },
        );
        PriorityTree { nodes }
    }

    /// Number of streams in the tree (excluding the root).
    pub fn len(&self) -> usize {
        self.nodes.len() - 1
    }

    /// True when only the root exists.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert a stream with default priority (child of root, weight
    /// 16 — RFC 7540 §5.3.5).
    pub fn insert(&mut self, stream: StreamId) {
        self.apply(
            stream,
            PrioritySpec {
                exclusive: false,
                depends_on: StreamId::CONNECTION,
                weight: 15,
            },
        );
    }

    /// Apply a PRIORITY frame (or HEADERS priority fields) for
    /// `stream`. Unknown dependency targets are created with default
    /// priority, per §5.3.1. A dependency on itself is a protocol
    /// error upstream; here it is normalized to the root to stay
    /// total.
    pub fn apply(&mut self, stream: StreamId, spec: PrioritySpec) {
        let mut depends_on = spec.depends_on;
        if depends_on == stream {
            depends_on = StreamId::CONNECTION;
        }
        if !self.nodes.contains_key(&depends_on) {
            self.insert(depends_on);
        }
        // Re-parenting under one's own descendant: move that
        // descendant up to our old parent first (§5.3.3).
        if self.is_descendant(depends_on, stream) {
            let old_parent = self.nodes[&stream].parent;
            self.detach(depends_on);
            self.nodes
                .get_mut(&depends_on)
                .expect("dependency target inserted above")
                .parent = old_parent;
            self.nodes
                .get_mut(&old_parent)
                .expect("old parent still in tree after detach")
                .children
                .push(depends_on);
        }
        self.detach(stream);
        let weight = spec.weight as u16 + 1;
        if spec.exclusive {
            // Adopt all of the new parent's children.
            let children = std::mem::take(
                &mut self
                    .nodes
                    .get_mut(&depends_on)
                    .expect("dependency target inserted above")
                    .children,
            );
            let node = self.nodes.entry(stream).or_insert(Node {
                parent: depends_on,
                weight,
                children: Vec::new(),
            });
            node.parent = depends_on;
            node.weight = weight;
            let mut adopted = children;
            for c in &adopted {
                self.nodes
                    .get_mut(c)
                    .expect("adopted child is a tree node")
                    .parent = stream;
            }
            self.nodes
                .get_mut(&stream)
                .expect("stream node inserted above")
                .children
                .append(&mut adopted);
        } else {
            let node = self.nodes.entry(stream).or_insert(Node {
                parent: depends_on,
                weight,
                children: Vec::new(),
            });
            node.parent = depends_on;
            node.weight = weight;
        }
        self.nodes
            .get_mut(&depends_on)
            .expect("dependency target inserted above")
            .children
            .push(stream);
    }

    /// Remove a closed stream; its children are re-parented to its
    /// parent (§5.3.4, weights left as-is in this simplified model).
    pub fn remove(&mut self, stream: StreamId) {
        if stream.is_connection() {
            return;
        }
        let Some(node) = self.nodes.remove(&stream) else {
            return;
        };
        let parent = node.parent;
        if let Some(p) = self.nodes.get_mut(&parent) {
            p.children.retain(|&c| c != stream);
        }
        for c in node.children {
            if let Some(cn) = self.nodes.get_mut(&c) {
                cn.parent = parent;
            }
            if let Some(p) = self.nodes.get_mut(&parent) {
                p.children.push(c);
            }
        }
    }

    /// The transmission order a single-connection server should use:
    /// depth-first from the root, siblings ordered by descending
    /// weight (ties by stream id for determinism).
    pub fn transmission_order(&self) -> Vec<StreamId> {
        let mut out = Vec::with_capacity(self.len());
        let mut stack = vec![StreamId::CONNECTION];
        while let Some(s) = stack.pop() {
            if !s.is_connection() {
                out.push(s);
            }
            let mut children = self.nodes[&s].children.clone();
            // Reverse-sorted so the highest-weight child pops first.
            children.sort_by(|a, b| {
                self.nodes[a]
                    .weight
                    .cmp(&self.nodes[b].weight)
                    .then(b.cmp(a))
            });
            stack.extend(children);
        }
        out
    }

    fn detach(&mut self, stream: StreamId) {
        if let Some(node) = self.nodes.get(&stream) {
            let parent = node.parent;
            if let Some(p) = self.nodes.get_mut(&parent) {
                p.children.retain(|&c| c != stream);
            }
        }
    }

    fn is_descendant(&self, candidate: StreamId, ancestor: StreamId) -> bool {
        let mut cursor = candidate;
        while let Some(node) = self.nodes.get(&cursor) {
            if node.parent == ancestor {
                return true;
            }
            if node.parent == cursor {
                return false; // root
            }
            cursor = node.parent;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(depends_on: u32, weight: u8, exclusive: bool) -> PrioritySpec {
        PrioritySpec {
            exclusive,
            depends_on: StreamId(depends_on),
            weight,
        }
    }

    #[test]
    fn default_insert_is_root_child() {
        let mut t = PriorityTree::new();
        t.insert(StreamId(1));
        t.insert(StreamId(3));
        assert_eq!(t.len(), 2);
        assert_eq!(t.transmission_order(), vec![StreamId(1), StreamId(3)]);
    }

    #[test]
    fn weights_order_siblings() {
        let mut t = PriorityTree::new();
        t.apply(StreamId(1), spec(0, 10, false));
        t.apply(StreamId(3), spec(0, 200, false));
        t.apply(StreamId(5), spec(0, 100, false));
        assert_eq!(
            t.transmission_order(),
            vec![StreamId(3), StreamId(5), StreamId(1)]
        );
    }

    #[test]
    fn dependencies_serialize_parents_first() {
        // css (1) ← font (3): the font depends on the css.
        let mut t = PriorityTree::new();
        t.apply(StreamId(1), spec(0, 100, false));
        t.apply(StreamId(3), spec(1, 100, false));
        t.apply(StreamId(5), spec(0, 10, false));
        let order = t.transmission_order();
        let pos = |s: u32| order.iter().position(|&x| x == StreamId(s)).unwrap();
        assert!(pos(1) < pos(3), "parent before child");
        assert!(pos(1) < pos(5), "heavier subtree first");
    }

    #[test]
    fn exclusive_adopts_children() {
        let mut t = PriorityTree::new();
        t.apply(StreamId(1), spec(0, 100, false));
        t.apply(StreamId(3), spec(0, 100, false));
        // Stream 5 inserts exclusively at the root: 1 and 3 become its
        // children.
        t.apply(StreamId(5), spec(0, 200, true));
        let order = t.transmission_order();
        assert_eq!(order[0], StreamId(5));
        assert_eq!(t.nodes[&StreamId::CONNECTION].children, [StreamId(5)]);
    }

    #[test]
    fn remove_reparents_children() {
        let mut t = PriorityTree::new();
        t.apply(StreamId(1), spec(0, 100, false));
        t.apply(StreamId(3), spec(1, 100, false));
        t.remove(StreamId(1));
        assert_eq!(t.transmission_order(), vec![StreamId(3)]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn unknown_dependency_target_created() {
        let mut t = PriorityTree::new();
        t.apply(StreamId(3), spec(99, 50, false));
        let order = t.transmission_order();
        assert!(order.contains(&StreamId(99)));
        assert!(order.contains(&StreamId(3)));
    }

    #[test]
    fn self_dependency_normalized() {
        let mut t = PriorityTree::new();
        t.apply(StreamId(7), spec(7, 10, false));
        assert_eq!(t.transmission_order(), vec![StreamId(7)]);
    }

    #[test]
    fn reparent_under_descendant_moves_descendant_up() {
        // 1 ← 3; then 1 re-parents under 3 (§5.3.3's tricky case).
        let mut t = PriorityTree::new();
        t.apply(StreamId(1), spec(0, 100, false));
        t.apply(StreamId(3), spec(1, 100, false));
        t.apply(StreamId(1), spec(3, 100, false));
        let order = t.transmission_order();
        let pos = |s: u32| order.iter().position(|&x| x == StreamId(s)).unwrap();
        assert!(pos(3) < pos(1), "3 is now 1's parent");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn remove_root_is_noop() {
        let mut t = PriorityTree::new();
        t.insert(StreamId(1));
        t.remove(StreamId::CONNECTION);
        assert_eq!(t.len(), 1);
    }
}
