//! Test-only port of the arena scans the prefix cache once ran on every
//! query: the reclaimable recount and the `evictable_leaves` + `pick`
//! victim selection. The property suites race the cache's pinned-charge
//! counter and ranked eviction index against them after every op.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use skywalker_replica::{EvictCandidate, EvictRank, KvEvictor, PrefixCache};
use skywalker_sim::DetRng;

/// An old-style victim choice: the index into the candidates, or `None`.
pub type Pick = fn(&[EvictCandidate]) -> Option<usize>;

/// `LruEvictor`'s old pick: least recently used, first in arena order.
pub fn pick_lru(candidates: &[EvictCandidate]) -> Option<usize> {
    candidates
        .iter()
        .enumerate()
        .min_by_key(|(_, c)| c.last_used)
        .map(|(i, _)| i)
}

/// `PrefixAwareEvictor`'s old pick: fewest hits, then deepest, then LRU.
pub fn pick_prefix_aware(candidates: &[EvictCandidate]) -> Option<usize> {
    candidates
        .iter()
        .enumerate()
        .min_by_key(|(_, c)| (c.hits, Reverse(c.depth), c.last_used))
        .map(|(i, _)| i)
}

/// `NoEvict`'s old pick: always refuse.
pub fn pick_none(_candidates: &[EvictCandidate]) -> Option<usize> {
    None
}

/// The `docs/replica.md` recipe's old pick: largest charge, first in
/// arena order.
pub fn pick_largest(candidates: &[EvictCandidate]) -> Option<usize> {
    candidates
        .iter()
        .enumerate()
        .max_by_key(|(i, c)| (c.charge, Reverse(*i)))
        .map(|(i, _)| i)
}

/// The `docs/replica.md` recipe evictor: frees the most per eviction.
#[derive(Debug, Clone, Copy)]
pub struct LargestFirst;

impl KvEvictor for LargestFirst {
    fn rank(&self, c: &EvictCandidate) -> Option<EvictRank> {
        Some(EvictRank(u64::MAX - c.charge, 0, 0))
    }

    fn label(&self) -> String {
        "largest".to_string()
    }
}

fn charge(c: &PrefixCache, tokens: u32) -> u64 {
    let b = u64::from(c.config().block_tokens.max(1));
    u64::from(tokens).div_ceil(b) * b
}

/// The old `reclaimable_tokens`: every unpinned GPU node's charge.
pub fn reclaimable(c: &PrefixCache) -> u64 {
    c.nodes()
        .filter(|n| n.refs == 0 && !n.host)
        .map(|n| charge(c, n.tokens))
        .sum()
}

/// The old `pinned_tokens`: every pinned node's charge.
pub fn pinned(c: &PrefixCache) -> u64 {
    c.nodes()
        .filter(|n| n.refs > 0)
        .map(|n| charge(c, n.tokens))
        .sum()
}

/// The old `evictable_leaves`: unpinned childless GPU leaves in arena
/// order, each with its depth found by walking to the root.
pub fn evictable_leaves(c: &PrefixCache) -> (Vec<usize>, Vec<EvictCandidate>) {
    let parent: BTreeMap<usize, usize> = c.nodes().map(|n| (n.id, n.parent)).collect();
    let mut ids = Vec::new();
    let mut out = Vec::new();
    for n in c
        .nodes()
        .filter(|n| n.refs == 0 && n.children == 0 && !n.host)
    {
        let mut depth = 0u32;
        let mut at = n.id;
        while at != 0 {
            depth += 1;
            at = parent[&at];
        }
        ids.push(n.id);
        out.push(EvictCandidate {
            last_used: n.last_used,
            hits: n.hits,
            tokens: n.tokens,
            charge: charge(c, n.tokens),
            depth,
        });
    }
    (ids, out)
}

/// A prompt that keeps a random-length prefix of one of `stems`, then
/// diverges: partial matches into long shared segments force splits
/// above already-cached leaves, so depth re-ranking gets exercised.
pub fn stem_prompt(rng: &mut DetRng, stems: &[Vec<u32>]) -> Vec<u32> {
    let stem = &stems[rng.below(stems.len() as u64) as usize];
    let keep = rng.below(stem.len() as u64 + 1) as usize;
    let mut t = stem[..keep].to_vec();
    t.extend((0..rng.below(6)).map(|_| 100 + rng.below(4) as u32));
    t
}

/// A few long random stems for [`stem_prompt`].
pub fn stems(rng: &mut DetRng) -> Vec<Vec<u32>> {
    (0..3)
        .map(|_| (0..24).map(|_| rng.below(10) as u32).collect())
        .collect()
}

/// Asserts the counter and the ranked index agree with the old scans:
/// reclaimable and pinned charges match the recounts, the next victim
/// is the one the old `pick` chose, and the whole index is the scan's
/// candidates in `evictor`'s rank order.
pub fn race(c: &PrefixCache, evictor: &dyn KvEvictor, pick: Pick, ctx: &str) {
    assert_eq!(c.reclaimable_tokens(), reclaimable(c), "{ctx}: reclaimable");
    assert_eq!(c.pinned_tokens(), pinned(c), "{ctx}: pinned");
    let (ids, candidates) = evictable_leaves(c);
    let next = c.eviction_order().next();
    assert_eq!(
        next,
        pick(&candidates).map(|k| ids[k]),
        "{ctx}: next victim"
    );
    let mut ranked: Vec<(EvictRank, usize)> = ids
        .iter()
        .zip(&candidates)
        .filter_map(|(&id, cand)| evictor.rank(cand).map(|r| (r, id)))
        .collect();
    ranked.sort_unstable();
    let want: Vec<usize> = ranked.into_iter().map(|(_, id)| id).collect();
    let got: Vec<usize> = c.eviction_order().collect();
    assert_eq!(got, want, "{ctx}: eviction order");
}
