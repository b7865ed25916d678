// Fixture: allocation in a whole-file hot path (linted as kernel.rs).
// Expected: 8× hot-alloc — Vec::new, Vec::with_capacity, vec!, .collect(),
// format!, .clone(), .to_string(), .to_owned().
pub fn place(tasks: &[u64]) -> Vec<u64> {
    let mut timeline: Vec<u64> = Vec::new();
    let mut order: Vec<usize> = Vec::with_capacity(tasks.len());
    let seed = vec![0u64; 4];
    let doubled: Vec<u64> = tasks.iter().map(|t| t * 2).collect();
    let label = format!("{} tasks", tasks.len());
    let copy = doubled.clone();
    let count = tasks.len().to_string();
    let name = "place".to_owned();
    order.push(0);
    timeline.extend_from_slice(&seed);
    timeline.extend_from_slice(&copy);
    let _ = (label, count, name, order);
    timeline
}
