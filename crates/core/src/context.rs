//! Context keys for context-based rating.
//!
//! A *context* is the tuple of values of all context variables at a TS
//! invocation (paper §2.2). Keys are read exactly where the paper's
//! instrumented prologue would read them: parameters from the argument
//! list, global scalars from memory. Run-time constants discovered by the
//! profile run are removed from the key.

use peak_ir::{ContextSource, MemoryImage, Value};
use std::collections::HashMap;

/// A context key: one `u64` fingerprint per (remaining) context variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContextKey(pub Vec<u64>);

/// Read the key for an invocation.
pub fn key_for(sources: &[ContextSource], args: &[Value], mem: &MemoryImage) -> ContextKey {
    ContextKey(
        sources
            .iter()
            .map(|s| match s {
                ContextSource::Param(i) => args[*i].context_key(),
                ContextSource::GlobalScalar { mem: m, index } => {
                    mem.load(*m, *index).context_key()
                }
            })
            .collect(),
    )
}

/// Profile-driven context-variable reduction (paper §2.2: "We eliminate
/// unnecessary context variables, if they are run-time constants").
///
/// Given keys observed during the profile run, returns the indices of
/// sources whose value varied — the others are dropped from future keys.
#[derive(Debug, Clone)]
pub struct ContextProfile {
    observed: Vec<ContextKey>,
    num_sources: usize,
}

impl ContextProfile {
    /// Start a profile over `num_sources` context variables.
    pub fn new(num_sources: usize) -> Self {
        ContextProfile { observed: Vec::new(), num_sources }
    }

    /// Record one invocation's key.
    pub fn record(&mut self, key: ContextKey) {
        debug_assert_eq!(key.0.len(), self.num_sources);
        self.observed.push(key);
    }

    /// Indices of sources that are *not* run-time constants.
    pub fn varying_sources(&self) -> Vec<usize> {
        (0..self.num_sources)
            .filter(|&i| {
                let mut vals = self.observed.iter().map(|k| k.0[i]);
                match vals.next() {
                    None => true, // no data: keep conservatively
                    Some(first) => vals.any(|v| v != first),
                }
            })
            .collect()
    }

    /// Invocation counts per context, keys reduced to the `varying`
    /// sources, most frequent first (CBR rates the "most important
    /// context" in the offline scenario, paper §2.2).
    pub fn context_histogram(&self, varying: &[usize]) -> Vec<(ContextKey, usize)> {
        let mut hist: HashMap<ContextKey, usize> = HashMap::new();
        for k in &self.observed {
            *hist.entry(reduce_key(k, varying)).or_insert(0) += 1;
        }
        let mut out: Vec<(ContextKey, usize)> = hist.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }
}

/// Reduce a key to the varying sources selected by the profile.
pub fn reduce_key(key: &ContextKey, varying: &[usize]) -> ContextKey {
    ContextKey(varying.iter().map(|&i| key.0[i]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use peak_ir::{MemId, Program, Type};

    #[test]
    fn key_reads_params_and_globals() {
        let mut prog = Program::new();
        let g = prog.add_mem("g", Type::I64, 4);
        let mut mem = MemoryImage::new(&prog);
        mem.store(g, 2, Value::I64(77));
        let sources = [
            ContextSource::Param(1),
            ContextSource::GlobalScalar { mem: MemId(0), index: 2 },
        ];
        let args = [Value::I64(5), Value::I64(9)];
        let key = key_for(&sources, &args, &mem);
        assert_eq!(key, ContextKey(vec![9, 77]));
    }

    #[test]
    fn runtime_constants_detected() {
        let mut p = ContextProfile::new(2);
        for i in 0..10 {
            p.record(ContextKey(vec![42, i % 3]));
        }
        assert_eq!(p.varying_sources(), vec![1], "source 0 is a run-time constant");
        assert_eq!(p.context_histogram(&[1]).len(), 3);
    }

    #[test]
    fn histogram_ordered_by_frequency() {
        let mut p = ContextProfile::new(1);
        for _ in 0..7 {
            p.record(ContextKey(vec![1]));
        }
        for _ in 0..3 {
            p.record(ContextKey(vec![2]));
        }
        let h = p.context_histogram(&[0]);
        assert_eq!(h[0], (ContextKey(vec![1]), 7));
        assert_eq!(h[1], (ContextKey(vec![2]), 3));
    }

    #[test]
    fn reduce_key_drops_constants() {
        let key = ContextKey(vec![10, 20, 30]);
        assert_eq!(reduce_key(&key, &[0, 2]), ContextKey(vec![10, 30]));
        assert_eq!(reduce_key(&key, &[]), ContextKey(vec![]));
    }
}
