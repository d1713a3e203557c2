//! Shared helpers for workload construction: data initializers and
//! context-stream utilities.

use peak_ir::{MemId, MemoryImage, Value};
use rand::rngs::StdRng;
use rand::Rng;

/// Fill a float region with uniform values in `range`.
pub fn fill_f64(mem: &mut MemoryImage, m: MemId, rng: &mut StdRng, range: std::ops::Range<f64>) {
    let len = mem.buf(m).len();
    for i in 0..len {
        mem.store(m, i as i64, Value::F64(rng.gen_range(range.clone())));
    }
}

/// Fill an integer region with "text-like" data: runs of repeated symbols
/// with geometric run lengths, so suffix comparisons share long prefixes
/// (the BZIP2/GZIP workload shape).
pub fn fill_runs(mem: &mut MemoryImage, m: MemId, rng: &mut StdRng, alphabet: i64) {
    let len = mem.buf(m).len();
    let mut i = 0usize;
    while i < len {
        let sym = rng.gen_range(0..alphabet);
        let run = 1 + (rng.gen_range(0.0f64..1.0).powi(3) * 24.0) as usize;
        for _ in 0..run.min(len - i) {
            mem.store(m, i as i64, Value::I64(sym));
            i += 1;
        }
    }
}

/// Fill an integer region with a random permutation of `0..len` (index
/// arrays for gather/scatter workloads).
pub fn fill_permutation(mem: &mut MemoryImage, m: MemId, rng: &mut StdRng) {
    let len = mem.buf(m).len();
    let mut perm: Vec<i64> = (0..len as i64).collect();
    // Fisher–Yates.
    for i in (1..len).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    for (i, v) in perm.into_iter().enumerate() {
        mem.store(m, i as i64, Value::I64(v));
    }
}

/// A cyclic context stream: invocation `inv` gets `tuples[inv % k]`,
/// with per-context weights so some contexts dominate (like radb4's
/// uneven context mix in Table 1).
#[derive(Debug, Clone)]
pub struct ContextCycle {
    expanded: Vec<Vec<Value>>,
}

impl ContextCycle {
    /// Build from (tuple, weight) pairs; a weight-w tuple appears w times
    /// per cycle.
    pub fn new(weighted: &[(&[Value], usize)]) -> Self {
        let mut expanded = Vec::new();
        for (tuple, w) in weighted {
            for _ in 0..*w {
                expanded.push(tuple.to_vec());
            }
        }
        assert!(!expanded.is_empty());
        ContextCycle { expanded }
    }

    /// Arguments for invocation `inv`.
    pub fn get(&self, inv: usize) -> Vec<Value> {
        self.expanded[inv % self.expanded.len()].clone()
    }

    /// Number of slots per cycle.
    pub fn cycle_len(&self) -> usize {
        self.expanded.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peak_ir::{Program, Type};
    use rand::SeedableRng;

    fn image_with(elem: Type, len: usize) -> (Program, MemId, MemoryImage) {
        let mut p = Program::new();
        let m = p.add_mem("m", elem, len);
        let img = MemoryImage::new(&p);
        (p, m, img)
    }

    #[test]
    fn runs_have_repeats() {
        let (_p, m, mut img) = image_with(Type::I64, 4096);
        let mut rng = StdRng::seed_from_u64(3);
        fill_runs(&mut img, m, &mut rng, 16);
        let mut repeats = 0;
        for i in 1..4096 {
            if img.load(m, i) == img.load(m, i - 1) {
                repeats += 1;
            }
        }
        assert!(repeats > 1000, "text-like data has long runs: {repeats}");
    }

    #[test]
    fn permutation_is_bijective() {
        let (_p, m, mut img) = image_with(Type::I64, 256);
        let mut rng = StdRng::seed_from_u64(5);
        fill_permutation(&mut img, m, &mut rng);
        let mut seen = vec![false; 256];
        for i in 0..256 {
            let v = img.load(m, i).as_i64() as usize;
            assert!(!seen[v]);
            seen[v] = true;
        }
    }

    #[test]
    fn context_cycle_weights() {
        let a = [Value::I64(1)];
        let b = [Value::I64(2)];
        let c = ContextCycle::new(&[(&a, 3), (&b, 1)]);
        assert_eq!(c.cycle_len(), 4);
        let ones = (0..100).filter(|&i| c.get(i)[0] == Value::I64(1)).count();
        assert_eq!(ones, 75);
    }
}
