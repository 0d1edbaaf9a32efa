//! H001 bad fixture: a second lazy-greedy loop with its own heap.

use std::collections::BinaryHeap;

pub fn smallest_first(values: &[u32]) -> Vec<u32> {
    let mut heap: BinaryHeap<std::cmp::Reverse<u32>> =
        values.iter().map(|&v| std::cmp::Reverse(v)).collect();
    let mut out = Vec::new();
    while let Some(std::cmp::Reverse(v)) = heap.pop() {
        out.push(v);
    }
    out
}
