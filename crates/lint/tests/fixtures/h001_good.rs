//! H001 good fixture: the pick loop runs on the heap of `lazy.rs`.

pub fn pick_all(values: &[f64]) -> Vec<usize> {
    let mut heap = crate::lazy::LazyHeap::new(values.iter().copied().enumerate());
    let mut out = Vec::new();
    while let Some(p) = heap.pick(|p| values[p]) {
        out.push(p);
    }
    out
}
