//! Seeded property suite for the two-tier ([`TieredEvictor`]) prefix
//! cache — the invariant harness behind GPU→host demotion.
//!
//! Over 1000 random `acquire` / `extend` / `release` / `complete` /
//! evict (`clear_unpinned`) sequences run against small tiered caches,
//! calling `check_invariants()` after *every* operation and asserting
//! the tier laws on top:
//!
//! 1. `gpu_used + host_used == total_resident` — the two tiers exactly
//!    partition residency (no token counted twice or dropped between
//!    tiers on a demote/promote);
//! 2. demotion never touches a pinned sequence — every live lease's
//!    full acquired-plus-extended token run stays *GPU*-resident,
//!    whatever the inner policy demotes;
//! 3. promote-on-hit restores GPU residency — the instant an acquire
//!    succeeds, its whole sequence is on the GPU, even the part that
//!    was host-resident a moment earlier;
//! 4. `host_budget = 0` is byte-identical to the unwrapped inner
//!    evictor ([`NoEvict`] and [`LruEvictor`] both): same accept/reject
//!    decisions, same counters, same residency, op for op;
//! 5. the pinned-charge counter and the ranked eviction index agree
//!    with the arena scans they replaced (`scans`), with host tiers
//!    live: demoted leaves leave the index, promoted ones rejoin it.
//!
//! Seeded-random rather than proptest-driven: the workspace builds
//! offline with no external crates.

mod scans;

use scans::{LargestFirst, Pick};
use skywalker_replica::{
    KvConfig, KvEvictor, Lease, LruEvictor, NoEvict, PrefixAwareEvictor, PrefixCache, TieredEvictor,
};
use skywalker_sim::DetRng;

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

fn pick_op(rng: &mut DetRng) -> Op {
    match rng.below(8) {
        0..=2 => Op::Acquire,
        3 => Op::Extend,
        4 => Op::Release,
        5 | 6 => Op::Complete,
        _ => Op::Evict,
    }
}

fn random_tokens(rng: &mut DetRng, alphabet: u64, max_len: u64) -> Vec<u32> {
    let len = rng.below(max_len);
    (0..len).map(|_| rng.below(alphabet) as u32).collect()
}

/// The tier laws checked after every operation.
fn check_tiers(c: &PrefixCache, live: &[LiveLease], case: u64, op_no: usize) {
    c.check_invariants();
    assert_eq!(
        c.gpu_used_tokens() + c.host_used_tokens(),
        c.total_resident_tokens(),
        "case {case} op {op_no}: tiers must partition total residency"
    );
    assert_eq!(
        c.gpu_used_tokens(),
        c.used_tokens(),
        "case {case} op {op_no}: the GPU tier is the capacity charge"
    );
    assert!(
        c.host_used_tokens() <= c.host_budget(),
        "case {case} op {op_no}: host tier over budget"
    );
    for (li, l) in live.iter().enumerate() {
        // The pinned sequence survives demotion *and* stays on the GPU:
        // a demoted node would show up in the host half of the split.
        let (gpu, host) = c.matched_tokens_tiered(&l.tokens);
        assert_eq!(
            gpu,
            l.tokens.len() as u64,
            "case {case} op {op_no}: lease {li}'s pinned sequence left the GPU"
        );
        assert_eq!(
            host, 0,
            "case {case} op {op_no}: lease {li} matched through the host tier while pinned"
        );
    }
    // The tiered split is a partition of the plain match.
    for l in live {
        let (gpu, host) = c.matched_tokens_tiered(&l.tokens);
        assert_eq!(gpu + host, c.matched_tokens(&l.tokens));
    }
}

/// One seeded op sequence against a tiered cache whose inner policy
/// picked like `pick` before the ranked index. `split_heavy` draws
/// prompts from a few long stems and always opens a host tier.
fn run_tiered_case(
    case: u64,
    inner: Box<dyn KvEvictor>,
    pick: Pick,
    tag: &str,
    fresh_must_fit: bool,
    split_heavy: bool,
) {
    let mut rng = DetRng::for_component(case, &format!("tiered-kv-props/{tag}"));
    let cap = rng.range(32, 192);
    let host_budget = rng.range(u64::from(split_heavy), 3) * cap / 2;
    let stems = split_heavy.then(|| scans::stems(&mut rng));
    let evictor = TieredEvictor::new(inner, host_budget);
    let mut c = PrefixCache::with_evictor(KvConfig::tiny(cap), Box::new(evictor.clone()));
    let mut live: Vec<LiveLease> = Vec::new();
    let mut demoted_before = 0u64;
    let mut promoted_before = 0u64;
    let n_ops = rng.range(10, 60);
    for op_no in 0..n_ops as usize {
        match pick_op(&mut rng) {
            Op::Acquire => {
                let toks = match &stems {
                    Some(stems) => scans::stem_prompt(&mut rng, stems),
                    None => random_tokens(&mut rng, 10, 24),
                };
                if let Ok((lease, cached)) = c.acquire(&toks) {
                    assert!(cached <= toks.len() as u64);
                    // Promote-on-hit: an acquire that succeeds leaves
                    // its entire sequence GPU-resident immediately.
                    let (gpu, host) = c.matched_tokens_tiered(&toks);
                    assert_eq!(gpu, toks.len() as u64, "case {case} op {op_no}");
                    assert_eq!(host, 0, "case {case} op {op_no}: acquired via host tier");
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
        // Cumulative tier-motion counters only grow.
        assert!(
            c.demoted_tokens() >= demoted_before,
            "case {case} op {op_no}"
        );
        assert!(
            c.promoted_tokens() >= promoted_before,
            "case {case} op {op_no}"
        );
        demoted_before = c.demoted_tokens();
        promoted_before = c.promoted_tokens();
        check_tiers(&c, &live, case, op_no);
        scans::race(&c, &evictor, pick, &format!("case {case} op {op_no}"));
    }
    // Wind down: with every lease released, a modest fresh prompt must
    // always be admittable under an evicting inner policy —
    // host-resident leaves may block their GPU parents from the
    // evictable fringe, but never permanently (regression: a fringe of
    // host leaves once wedged `acquire` with the whole cache
    // reclaimable). `NoEvict` is exempt: refusing to free anything is
    // its contract, tiered or not.
    for l in live.drain(..) {
        c.release(l.lease);
    }
    check_tiers(&c, &live, case, usize::MAX);
    if fresh_must_fit {
        let fresh: Vec<u32> = (0..cap / 4).map(|k| 1_000 + k as u32).collect();
        c.acquire(&fresh).unwrap_or_else(|e| {
            panic!("case {case}: fresh acquire wedged on a released cache: {e:?}")
        });
    }
}

/// ≥ 1000 seeded op-sequences against live host tiers: 350 per inner
/// policy under [`TieredEvictor`].
#[test]
fn tier_invariants_hold_over_1000_sequences() {
    for case in 0..350u64 {
        run_tiered_case(
            case,
            Box::new(LruEvictor),
            scans::pick_lru,
            "lru",
            true,
            false,
        );
        run_tiered_case(
            case,
            Box::new(PrefixAwareEvictor),
            scans::pick_prefix_aware,
            "prefix-aware",
            true,
            false,
        );
        run_tiered_case(
            case,
            Box::new(NoEvict),
            scans::pick_none,
            "noevict",
            false,
            false,
        );
    }
}

/// Split-heavy sequences over a non-zero host budget: demotions,
/// promotions and depth-shifting splits interleave, and the ranked
/// index must track the old scan through all of them.
#[test]
fn ranked_index_matches_old_scans_with_live_host_tier() {
    for case in 0..350u64 {
        run_tiered_case(
            case,
            Box::new(LruEvictor),
            scans::pick_lru,
            "stems/lru",
            true,
            true,
        );
        run_tiered_case(
            case,
            Box::new(LargestFirst),
            scans::pick_largest,
            "stems/largest",
            true,
            true,
        );
    }
}

/// Deterministic end-to-end demote → host-hit → promote cycle, pinned
/// down to the exact counter values.
#[test]
fn promote_on_hit_restores_gpu_residency() {
    // cap 8, block 4: two resident 4-token segments max.
    let mut c = PrefixCache::with_evictor(
        KvConfig::tiny(8),
        Box::new(TieredEvictor::new(Box::new(LruEvictor), 64)),
    );
    let a = [1, 2, 3, 4];
    let b = [5, 6, 7, 8];
    let d = [9, 10, 11, 12];
    let (la, _) = c.acquire(&a).unwrap();
    c.release(la);
    let (lb, _) = c.acquire(&b).unwrap();
    c.release(lb);
    // Third segment forces a demotion of the LRU victim: `a`.
    let (ld, _) = c.acquire(&d).unwrap();
    c.release(ld);
    assert_eq!(c.matched_tokens_tiered(&a), (0, 4), "a demoted to host");
    assert_eq!(c.matched_tokens(&a), 4, "a host hit still counts");
    assert_eq!(c.demoted_tokens(), 4);
    assert_eq!(c.promoted_tokens(), 0);
    // Re-acquiring `a` promotes it back to the GPU.
    let (la, cached) = c.acquire(&a).unwrap();
    assert_eq!(cached, 4, "the host hit skipped prefill");
    assert_eq!(c.matched_tokens_tiered(&a), (4, 0), "a promoted to GPU");
    assert_eq!(c.promoted_tokens(), 4);
    c.release(la);
    c.check_invariants();
}

/// Applies one op to both caches of a mirrored pair and asserts every
/// observable agrees, byte for byte.
fn mirror_step(
    rng: &mut DetRng,
    plain: &mut PrefixCache,
    tiered: &mut PrefixCache,
    live: &mut Vec<(LiveLease, LiveLease)>,
    case: u64,
    op_no: usize,
) {
    match pick_op(rng) {
        Op::Acquire => {
            let toks = random_tokens(rng, 10, 24);
            let rp = plain.acquire(&toks);
            let rt = tiered.acquire(&toks);
            match (rp, rt) {
                (Ok((lp, cp)), Ok((lt, ct))) => {
                    assert_eq!(cp, ct, "case {case} op {op_no}: hit counts diverge");
                    assert_eq!(lp.tokens(), lt.tokens());
                    live.push((
                        LiveLease {
                            lease: lp,
                            tokens: toks.clone(),
                        },
                        LiveLease {
                            lease: lt,
                            tokens: toks,
                        },
                    ));
                }
                (Err(_), Err(_)) => {}
                (p, t) => panic!(
                    "case {case} op {op_no}: accept/reject diverged: plain {:?} tiered {:?}",
                    p.is_ok(),
                    t.is_ok()
                ),
            }
        }
        Op::Extend => {
            if live.is_empty() {
                return;
            }
            let i = rng.below(live.len() as u64) as usize;
            let (lp, lt) = live.remove(i);
            let gen_toks = random_tokens(rng, 10, 8);
            let np = plain.extend(lp.lease, &gen_toks);
            let nt = tiered.extend(lt.lease, &gen_toks);
            assert_eq!(
                np.tokens(),
                nt.tokens(),
                "case {case} op {op_no}: extend outcomes diverge"
            );
            live.push((
                LiveLease {
                    lease: np,
                    tokens: lp.tokens,
                },
                LiveLease {
                    lease: nt,
                    tokens: lt.tokens,
                },
            ));
        }
        Op::Release => {
            if live.is_empty() {
                return;
            }
            let i = rng.below(live.len() as u64) as usize;
            let (lp, lt) = live.remove(i);
            plain.release(lp.lease);
            tiered.release(lt.lease);
        }
        Op::Complete => {
            if live.is_empty() {
                return;
            }
            let i = rng.below(live.len() as u64) as usize;
            let (lp, lt) = live.remove(i);
            let gen_toks = random_tokens(rng, 10, 8);
            plain.complete(lp.lease, &gen_toks);
            tiered.complete(lt.lease, &gen_toks);
        }
        Op::Evict => {
            plain.clear_unpinned();
            tiered.clear_unpinned();
        }
    }
    plain.check_invariants();
    tiered.check_invariants();
    assert_eq!(
        plain.used_tokens(),
        tiered.used_tokens(),
        "case {case} op {op_no}"
    );
    assert_eq!(
        plain.reclaimable_tokens(),
        tiered.reclaimable_tokens(),
        "case {case} op {op_no}"
    );
    assert_eq!(
        plain.pinned_tokens(),
        tiered.pinned_tokens(),
        "case {case} op {op_no}"
    );
    assert_eq!(
        plain.evicted_tokens(),
        tiered.evicted_tokens(),
        "case {case} op {op_no}"
    );
    assert_eq!(tiered.host_used_tokens(), 0, "case {case} op {op_no}");
    assert_eq!(tiered.demoted_tokens(), 0, "case {case} op {op_no}");
    assert_eq!(tiered.promoted_tokens(), 0, "case {case} op {op_no}");
    let probe = random_tokens(rng, 10, 24);
    assert_eq!(
        plain.matched_tokens(&probe),
        tiered.matched_tokens(&probe),
        "case {case} op {op_no}: probe match diverges"
    );
    let (gpu, host) = tiered.matched_tokens_tiered(&probe);
    assert_eq!(
        host, 0,
        "case {case} op {op_no}: host match with a zero budget"
    );
    assert_eq!(gpu, tiered.matched_tokens(&probe));
}

/// `TieredEvictor` with `host_budget = 0` is byte-identical to the
/// unwrapped inner evictor — for both [`NoEvict`] and [`LruEvictor`] —
/// over mirrored random op sequences.
#[test]
fn host_budget_zero_is_byte_identical_to_unwrapped() {
    type MakeEvictor = fn() -> Box<dyn KvEvictor>;
    let inners: [(&str, MakeEvictor); 2] = [
        ("noevict", || Box::new(NoEvict)),
        ("lru", || Box::new(LruEvictor)),
    ];
    for (tag, make) in inners {
        for case in 0..150u64 {
            let mut rng = DetRng::for_component(case, &format!("tiered-kv-props/mirror/{tag}"));
            let cap = rng.range(8, 192);
            let mut plain = PrefixCache::with_evictor(KvConfig::tiny(cap), make());
            let mut tiered = PrefixCache::with_evictor(
                KvConfig::tiny(cap),
                Box::new(TieredEvictor::new(make(), 0)),
            );
            let mut live: Vec<(LiveLease, LiveLease)> = Vec::new();
            let n_ops = rng.range(10, 60);
            for op_no in 0..n_ops as usize {
                mirror_step(&mut rng, &mut plain, &mut tiered, &mut live, case, op_no);
            }
            for (lp, lt) in live.drain(..) {
                plain.release(lp.lease);
                tiered.release(lt.lease);
            }
            assert_eq!(plain.used_tokens(), tiered.used_tokens());
            assert_eq!(plain.reclaimable_tokens(), tiered.reclaimable_tokens());
        }
    }
}
