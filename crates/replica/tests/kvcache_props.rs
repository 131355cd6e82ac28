//! Seeded property suite for the radix-tree KV cache — the invariant
//! harness behind the open `KvEvictor` axis.
//!
//! Thousands of random `acquire` / `extend` / `release` / `complete` /
//! evict (`clear_unpinned`) sequences run against small caches under
//! every built-in evictor, calling `check_invariants()` after *every*
//! operation and asserting two accounting laws on top:
//!
//! 1. `used_tokens == pinned_tokens + reclaimable_tokens` — live lease
//!    paths plus cached-but-unpinned state exactly partition the charge
//!    against capacity (no token is double-counted or leaked);
//! 2. eviction never reclaims pinned state — every live lease's full
//!    acquired-plus-extended token sequence stays resident, whatever
//!    the evictor does;
//! 3. the incremental bookkeeping agrees with the arena scans it
//!    replaced (`scans`): the pinned-charge counter with the recount,
//!    and the ranked eviction index with the old `evictable_leaves` +
//!    `pick` victim choice, for every built-in evictor and the
//!    `LargestFirst` recipe of `docs/replica.md`.
//!
//! Seeded-random rather than proptest-driven: the workspace builds
//! offline with no external crates.

mod scans;

use scans::{LargestFirst, Pick};
use skywalker_replica::{
    KvConfig, KvEvictor, Lease, LruEvictor, NoEvict, PrefixAwareEvictor, PrefixCache,
};
use skywalker_sim::DetRng;

/// Every evictor under test, with the old `pick` it must reproduce.
fn evictors() -> [(&'static str, Box<dyn KvEvictor>, Pick); 4] {
    [
        ("lru", Box::new(LruEvictor), scans::pick_lru),
        (
            "prefix-aware",
            Box::new(PrefixAwareEvictor),
            scans::pick_prefix_aware,
        ),
        ("noevict", Box::new(NoEvict), scans::pick_none),
        ("largest", Box::new(LargestFirst), scans::pick_largest),
    ]
}

/// One live lease plus the token sequence it provably pins.
struct LiveLease {
    lease: Lease,
    tokens: Vec<u32>,
}

#[derive(Debug)]
enum Op {
    Acquire,
    Extend,
    Release,
    Complete,
    Evict,
}

fn random_tokens(rng: &mut DetRng, alphabet: u64, max_len: u64) -> Vec<u32> {
    let len = rng.below(max_len);
    (0..len).map(|_| rng.below(alphabet) as u32).collect()
}

fn check(
    c: &PrefixCache,
    live: &[LiveLease],
    race: (&dyn KvEvictor, Pick),
    case: u64,
    op_no: usize,
) {
    c.check_invariants();
    scans::race(c, race.0, race.1, &format!("case {case} op {op_no}"));
    assert_eq!(
        c.pinned_tokens() + c.reclaimable_tokens(),
        c.used_tokens(),
        "case {case} op {op_no}: pinned + reclaimable must equal used"
    );
    for (li, l) in live.iter().enumerate() {
        assert_eq!(
            c.matched_tokens(&l.tokens),
            l.tokens.len() as u64,
            "case {case} op {op_no}: lease {li}'s pinned sequence was evicted"
        );
    }
}

/// One seeded op sequence; `split_heavy` draws prompts from a few long
/// stems ([`scans::stem_prompt`]) instead of uniformly at random.
fn run_case(case: u64, evictor: Box<dyn KvEvictor>, pick: Pick, tag: &str, split_heavy: bool) {
    let mut rng = DetRng::for_component(case, &format!("kvcache-props/{tag}"));
    let cap = rng.range(8, 192);
    let stems = split_heavy.then(|| scans::stems(&mut rng));
    let reference = evictor.clone();
    let race = (reference.as_ref(), pick);
    let mut c = PrefixCache::with_evictor(KvConfig::tiny(cap), evictor);
    let mut live: Vec<LiveLease> = Vec::new();
    let n_ops = rng.range(10, 60);
    for op_no in 0..n_ops as usize {
        let op = match rng.below(8) {
            0..=2 => Op::Acquire,
            3 => Op::Extend,
            4 => Op::Release,
            5 | 6 => Op::Complete,
            _ => Op::Evict,
        };
        match op {
            Op::Acquire => {
                let toks = match &stems {
                    Some(stems) => scans::stem_prompt(&mut rng, stems),
                    None => random_tokens(&mut rng, 10, 24),
                };
                if let Ok((lease, cached)) = c.acquire(&toks) {
                    assert!(
                        cached <= toks.len() as u64,
                        "case {case} op {op_no}: hit exceeds prompt"
                    );
                    assert_eq!(lease.tokens(), toks.len() as u64);
                    live.push(LiveLease {
                        lease,
                        tokens: toks,
                    });
                }
            }
            Op::Extend => {
                if live.is_empty() {
                    continue;
                }
                let i = rng.below(live.len() as u64) as usize;
                let l = live.remove(i);
                let gen_toks = random_tokens(&mut rng, 10, 8);
                let before = l.lease.tokens();
                let lease = c.extend(l.lease, &gen_toks);
                let mut tokens = l.tokens;
                if lease.tokens() > before {
                    // Extension stuck: the lease now pins prompt + output.
                    assert_eq!(lease.tokens(), before + gen_toks.len() as u64);
                    tokens.extend(&gen_toks);
                }
                live.push(LiveLease { lease, tokens });
            }
            Op::Release => {
                if live.is_empty() {
                    continue;
                }
                let i = rng.below(live.len() as u64) as usize;
                c.release(live.remove(i).lease);
            }
            Op::Complete => {
                if live.is_empty() {
                    continue;
                }
                let i = rng.below(live.len() as u64) as usize;
                let gen_toks = random_tokens(&mut rng, 10, 8);
                c.complete(live.remove(i).lease, &gen_toks);
            }
            Op::Evict => c.clear_unpinned(),
        }
        check(&c, &live, race, case, op_no);
    }
    // Wind down: everything released, the whole cache reclaimable.
    for l in live.drain(..) {
        c.release(l.lease);
    }
    check(&c, &live, race, case, usize::MAX);
    assert_eq!(
        c.reclaimable_tokens(),
        c.used_tokens(),
        "case {case}: released cache fully reclaimable"
    );
}

/// ≥ 1000 seeded op-sequences: 350 per built-in evictor (and the
/// `LargestFirst` recipe).
#[test]
fn invariants_hold_for_every_evictor_over_1000_sequences() {
    for case in 0..350u64 {
        for (tag, evictor, pick) in evictors() {
            run_case(case, evictor, pick, tag, false);
        }
    }
}

/// Split-heavy sequences: prompts diverge mid-segment from a few long
/// stems, so splits land above cached leaves and push them deeper. The
/// ranked index must follow (`PrefixAwareEvictor` ranks by depth).
#[test]
fn ranked_index_matches_old_scans_on_split_heavy_sequences() {
    for case in 0..350u64 {
        for (tag, evictor, pick) in evictors() {
            run_case(case, evictor, pick, &format!("stems/{tag}"), true);
        }
    }
}

/// The evictor only reorders reclamation: whatever it picks, totals
/// balance — evicted + resident charge is monotone-consistent and the
/// cache never exceeds capacity (asserted inside `check_invariants`).
#[test]
fn eviction_totals_balance_across_evictors() {
    for case in 0..50u64 {
        let mut rng = DetRng::for_component(case, "kvcache-props/balance");
        let prompts: Vec<Vec<u32>> = (0..20)
            .map(|_| {
                let mut t = random_tokens(&mut rng, 6, 16);
                if t.is_empty() {
                    t.push(0);
                }
                t
            })
            .collect();
        for evictor in [
            Box::new(LruEvictor) as Box<dyn KvEvictor>,
            Box::new(PrefixAwareEvictor),
        ] {
            let mut c = PrefixCache::with_evictor(KvConfig::tiny(24), evictor);
            let mut charged_peak = 0u64;
            for p in &prompts {
                if let Ok((l, _)) = c.acquire(p) {
                    c.release(l);
                }
                charged_peak = charged_peak.max(c.used_tokens());
                c.check_invariants();
            }
            assert!(charged_peak <= 24, "case {case}: capacity respected");
            // Everything ever evicted was once resident: the cumulative
            // eviction counter can only be explained by past inserts.
            assert!(
                c.evicted_tokens().is_multiple_of(4),
                "block-rounded evictions"
            );
        }
    }
}
