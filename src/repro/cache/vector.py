"""Compiled batch-replay kernel, the fast engine's first tier.

The fast engine's throughput comes from replaying the whole trace in one
native call instead of interpreting four cache probes plus the predictor
protocol per reference in Python.  This module holds the C source of
that kernel (embedded as a string so the package ships no build step
and keeps zero hard dependencies), compiles it on first use with
whatever C compiler the host provides (``cc``/``gcc``/``clang``), caches
the shared object on disk keyed by a hash of the source, and loads it
through :mod:`ctypes`.

The kernel is a bit-exact port of the fast engine's replay protocol
(``TraceDrivenSimulator._fast_loop``).  Like that loop, one C loop,
``lane_run``, replays every prefetching lane: the demand access through
the main and baseline hierarchies, the feedback for prefetched blocks,
the predictor's ``on_access``, and its commands through the simulator's
request queue (one command issued at once, more pushed and issued in
order, the oldest dropped beyond the queue size).  A lane *kind*
(:data:`KERNELS`) is a set of hooks over that loop mirroring the
:class:`~repro.core.interface.Prefetcher` interface — ``access``
(``on_access``, which lists the access's commands), ``used`` /
``unused`` (``on_prefetch_used`` / ``on_prefetch_evicted_unused``) and
``installed`` (``on_prefetch_installed``); a missing hook is the base
class's no-op:

* ``dbcp`` — ``DBCPPrefetcher`` and its ``HistoryTable``, whose
  block-keyed entries the kernel keeps in the ways of the main L1 (a
  trace hash and a previous block per way, valid under a flag bit), as
  the paper keeps the history beside the L1D tags: the dict's key set is
  exactly the resident blocks, so no lookup is needed.  That takes a
  history block size equal to the L1's (any other replays interpreted).
  The order-preserving (LRU) correlation table reproduces dict
  semantics exactly: a doubly-linked node pool in insertion order under
  a linear-probing hash index with backward-shift deletion.
* ``ltcords`` — ``LTCordsPrefetcher``: the same per-way history,
  ``SequenceStorage`` frames (fixed direct-mapped frames or
  ``unlimited_frames``), the head-lookahead window, the FIFO
  set-associative ``SignatureCache``, sliding-window streaming with the
  ``fetch_delay_accesses`` pending queue, and confidence feedback to
  both the signature cache and storage.
* ``ghb`` — ``GHBPrefetcher`` (an ``access`` hook only): the slot ring
  with serial validity, the PC index table as the same LRU node pool,
  the per-PC chain walk and a line-for-line port of
  ``_delta_correlate``.
* ``stride`` — ``StridePrefetcher`` (an ``access`` hook only): the
  insertion-ordered reference prediction table.
* ``null`` — no hooks: the no-prefetcher co-run lane, which steps both
  hierarchies because other cores' prefetches reach its shared L2.
* ``baseline`` — the one kind with its own loop, for single-core runs
  without a prefetcher: one simulated L1/L2 pair (the caller mirrors the
  counters onto both hierarchies, which are identical when nothing is
  ever prefetched).

Every replay is resumable: ``repro_open`` builds a kind's state over a
lane's whole trace columns, ``repro_run`` replays the next chunk
``[start, stop)`` of them, and ``repro_close`` dumps the counters and
frees the state.  A single-core replay is one chunk; a multicore co-run
interleaves one lane per core in schedule order.  A lane's L2s are its
own, or a co-run's shared L2s (``repro_shared_open``): one shared cache
with the block→core ownership map and the cross-core eviction counters
of :class:`repro.cache.hierarchy.SharedL2`, dumped once by
``repro_shared_close``.

GHB and stride predictions are computed addresses, so a prediction
reaching 2^54 ends the lane (rc 2) and the interpreted tier replays the
trace — the whole co-run, for a co-run lane — instead.

Every predictor structure is allocated as the replay fills it (or
bounded by the lane's trace length), so the kernel's heap grows with
the references replayed, never with the configured storage capacity.
Closing a lane fills a flat ``int64`` output array with the loop
counters, the predictor statistics and a full per-cache ``CacheStats``
mirror; :mod:`repro.sim.vector_replay` settles those into the
simulator's Python-side objects, so results and statistics are
indistinguishable from an interpreted run.  Given a non-NULL ``col``, a
lane also writes one outcome byte per access (the main hierarchy's
service level, the baseline-miss bit and the memory-sourced prefetch
fills), which the timing model and the pairwise multiprogram runs
consume.

One more entry, ``repro_timing``, is stateless: it walks a timing run's
``icount`` column, outcome column and fill spill through a line-for-line
port of :class:`repro.timing.model.OutOfOrderTimingModel` (front end,
ROB scan, MSHR limit, serialised misses, bus occupancy, one bus charge
per prefetch fill, the signature traffic, the final drain) and returns
the :class:`~repro.timing.model.TimingBreakdown` counters.  Latencies
and transfer cycles arrive as doubles computed in Python.  The kernel
is compiled with ``-ffp-contract=off`` so that no multiply-add is fused
and every double matches CPython's bit for bit.

Availability is best-effort by design: no compiler, a failed compile, a
read-only filesystem, or ``REPRO_NO_VECTOR_KERNEL=1`` all make
:func:`load_kernel` return ``None`` (with :func:`unavailable_reason`
saying why), and the fast engine replays on its interpreted loops.
``REPRO_KERNEL_SANITIZE=1`` builds the kernel with AddressSanitizer and
UBSan under its own cache file name (load ``libasan`` first with
``LD_PRELOAD``).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import Optional

#: Number of int64 slots in a kernel's output array.
OUT_SLOTS = 96

KERNEL_SOURCE = r"""
#include <setjmp.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define F_DIRTY 1u
#define F_PREFETCHED 2u
#define F_REFERENCED 4u
#define F_HIST 8u /* the way holds a last-touch history entry (see History) */

#define HASH_MULT 0x9E3779B1ULL
#define HASH_INC 0x7F4A7C15ULL

/* Addresses at or above this bound are replayed by the interpreted tier. */
#define MAX_ADDRESS (1LL << 54)
/* OUTCOME_FILL_SPILL: the most fills an outcome byte holds. */
#define FILL_SPILL 15

/* Every allocation failure unwinds to the entry point that armed the
 * state's jmp_buf (repro_open or repro_run), which marks the state dead
 * with rc 1; repro_close frees whatever it holds. */
static void *xalloc(jmp_buf *fail, void *old, size_t size) {
    void *p = realloc(old, size ? size : 1);
    if (!p) longjmp(*fail, 1);
    return p;
}

static void *xzalloc(jmp_buf *fail, size_t size) {
    void *p = calloc(size ? size : 1, 1);
    if (!p) longjmp(*fail, 1);
    return p;
}

/* Grow an array of `elem`-byte items to hold at least `need` of them. */
static void *grow(jmp_buf *fail, void *p, int64_t *cap, int64_t need, size_t elem) {
    if (need <= *cap) return p;
    int64_t c = *cap ? *cap : 16;
    while (c < need) c *= 2;
    p = xalloc(fail, p, (size_t)c * elem);
    *cap = c;
    return p;
}

static int64_t min64(int64_t a, int64_t b) { return a < b ? a : b; }

static int addresses_in_range(int64_t n, const int64_t *addr) {
    for (int64_t i = 0; i < n; i++)
        if ((uint64_t)addr[i] >= (uint64_t)MAX_ADDRESS) return 0;
    return 1;
}

/* ---------------------------------------------------------------- caches */

typedef struct {
    int64_t *tags;   /* -1 = invalid */
    int64_t *blocks;
    int64_t *stamps; /* last-touch serial == complete LRU state */
    uint8_t *flags;
    int32_t *counts;
    /* A history lane's main L1 only (else NULL): each way's last-touch
     * history, valid under F_HIST; see History. */
    uint64_t *htrace;
    int64_t *hprev;
    int64_t slot;     /* the way the last access or prefetch install used */
    uint8_t vflags;   /* the last victim's flags, trace hash and previous block */
    uint64_t vtrace;
    int64_t vprev;
    int64_t serial;
    int64_t set_mask;
    int64_t block_mask;
    int offset_bits;
    int tag_shift;
    int assoc;
    /* CacheStats mirror, same order as repro.cache.cache.CacheStats */
    int64_t accesses, hits, misses, evictions, prefetch_insertions,
        prefetch_hits, prefetch_unused_evictions, writebacks,
        prefetch_caused_evictions;
} Cache;

/* cfg[0..3]: num_sets, assoc, offset_bits, index_bits */
static void cache_init(jmp_buf *fail, Cache *c, const int64_t *cfg,
                       int64_t block_mask) {
    int64_t num_sets = cfg[0], assoc = cfg[1];
    size_t ways = (size_t)(num_sets * assoc);
    c->tags = (int64_t *)xalloc(fail, NULL, ways * sizeof(int64_t));
    for (size_t i = 0; i < ways; i++) c->tags[i] = -1;
    c->blocks = (int64_t *)xzalloc(fail, ways * sizeof(int64_t));
    c->stamps = (int64_t *)xzalloc(fail, ways * sizeof(int64_t));
    c->flags = (uint8_t *)xzalloc(fail, ways);
    c->counts = (int32_t *)xzalloc(fail, (size_t)num_sets * sizeof(int32_t));
    c->set_mask = num_sets - 1;
    c->block_mask = block_mask;
    c->offset_bits = (int)cfg[2];
    c->tag_shift = (int)(cfg[2] + cfg[3]);
    c->assoc = (int)assoc;
}

static void cache_free(Cache *c) {
    free(c->tags);
    free(c->blocks);
    free(c->stamps);
    free(c->flags);
    free(c->counts);
    free(c->htrace);
    free(c->hprev);
}

static int64_t lru_way(const Cache *c, int64_t base) {
    /* First-minimum scan == stamps.index(min(stamps)); stamps are
     * distinct serials, so there are never ties to break. */
    const int64_t *stamps = c->stamps + base;
    int64_t best = stamps[0];
    int way = 0;
    for (int w = 1; w < c->assoc; w++) {
        if (stamps[w] < best) {
            best = stamps[w];
            way = w;
        }
    }
    return way;
}

/* Account the eviction of `way`; report the victim, keeping its history. */
static void cache_evict(Cache *c, int64_t slot, int64_t *evicted,
                        int *has_evicted, int *ev_unused) {
    uint8_t state = c->flags[slot];
    if (c->htrace) {
        c->vflags = state;
        c->vtrace = c->htrace[slot];
        c->vprev = c->hprev[slot];
    }
    c->evictions++;
    if (state & F_DIRTY) c->writebacks++;
    if ((state & F_PREFETCHED) && !(state & F_REFERENCED)) {
        c->prefetch_unused_evictions++;
        *ev_unused = 1;
    }
    *evicted = c->blocks[slot];
    *has_evicted = 1;
}

/* access_fast: returns 1 (hit), 2 (hit consuming an unused prefetch) or
 * 0 (miss; the block is allocated).  On a miss that evicted a block,
 * *has_evicted = 1 and *evicted / *ev_unused describe the victim. */
static int cache_access(Cache *c, int64_t address, int is_write,
                        int64_t *evicted, int *has_evicted, int *ev_unused) {
    int64_t serial = ++c->serial;
    c->accesses++;
    int64_t set_index = (address >> c->offset_bits) & c->set_mask;
    int64_t tag = address >> c->tag_shift;
    int assoc = c->assoc;
    int64_t base = set_index * assoc;
    int64_t *tags = c->tags + base;
    int way = -1;
    for (int w = 0; w < assoc; w++) {
        if (tags[w] == tag) {
            way = w;
            break;
        }
    }
    if (way >= 0) {
        c->hits++;
        uint8_t state = c->flags[base + way];
        c->flags[base + way] =
            is_write ? (state | F_REFERENCED | F_DIRTY) : (state | F_REFERENCED);
        c->stamps[base + way] = serial;
        c->slot = base + way;
        if ((state & F_PREFETCHED) && !(state & F_REFERENCED)) {
            c->prefetch_hits++;
            return 2;
        }
        return 1;
    }
    c->misses++;
    *has_evicted = 0;
    *ev_unused = 0;
    if (c->counts[set_index] == assoc) {
        way = (int)lru_way(c, base);
        cache_evict(c, base + way, evicted, has_evicted, ev_unused);
    } else {
        way = 0;
        while (tags[way] != -1) way++;
        c->counts[set_index]++;
    }
    tags[way] = tag;
    c->blocks[base + way] = address & c->block_mask;
    c->flags[base + way] = is_write ? (F_REFERENCED | F_DIRTY) : F_REFERENCED;
    c->stamps[base + way] = serial;
    c->slot = base + way;
    return 0;
}

/* _insert_prefetch_absent: the caller has verified the block is not
 * resident.  With has_victim, victim_address is displaced iff it maps to
 * the same set and is resident; otherwise the LRU way goes (full sets
 * only). */
static void cache_insert_prefetch(Cache *c, int64_t set_index, int64_t tag,
                                  int64_t address, int has_victim,
                                  int64_t victim_address, int64_t *evicted,
                                  int *has_evicted, int *ev_unused) {
    int64_t serial = ++c->serial;
    c->prefetch_insertions++;
    int assoc = c->assoc;
    int64_t base = set_index * assoc;
    int64_t *tags = c->tags + base;
    int way = -1;
    *has_evicted = 0;
    *ev_unused = 0;
    if (c->counts[set_index] == assoc) {
        if (has_victim &&
            ((victim_address >> c->offset_bits) & c->set_mask) == set_index) {
            int64_t vtag = victim_address >> c->tag_shift;
            for (int w = 0; w < assoc; w++) {
                if (tags[w] == vtag) {
                    way = w;
                    break;
                }
            }
        }
        if (way < 0) way = (int)lru_way(c, base);
        c->prefetch_caused_evictions++;
        cache_evict(c, base + way, evicted, has_evicted, ev_unused);
    } else {
        way = 0;
        while (tags[way] != -1) way++;
        c->counts[set_index]++;
    }
    tags[way] = tag;
    c->blocks[base + way] = address & c->block_mask;
    c->flags[base + way] = F_PREFETCHED;
    c->stamps[base + way] = serial;
    c->slot = base + way;
}

static void cache_dump_stats(const Cache *c, int64_t *out) {
    out[0] = c->accesses;
    out[1] = c->hits;
    out[2] = c->misses;
    out[3] = c->evictions;
    out[4] = c->prefetch_insertions;
    out[5] = c->prefetch_hits;
    out[6] = c->prefetch_unused_evictions;
    out[7] = c->writebacks;
    out[8] = c->prefetch_caused_evictions;
    out[9] = c->serial;
}

/* ------------------------------------------------- open-addressed map
 * int64 key -> (uint64 v0, int64 v1, int64 v2).  Linear probing with
 * backward-shift deletion (no tombstones), so lookup chains never
 * degrade over the run; the table doubles at half load. */

typedef struct {
    int64_t *keys;
    uint64_t *v0;
    int64_t *v1;
    int64_t *v2;
    uint8_t *used;
    uint64_t mask;
    int64_t count;
    jmp_buf *fail;
} Map;

static uint64_t mix64(uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

static void map_free(Map *m) {
    free(m->keys);
    free(m->v0);
    free(m->v1);
    free(m->v2);
    free(m->used);
}

static int map_arrays(Map *m, uint64_t cap) {
    m->keys = (int64_t *)malloc(cap * sizeof(int64_t));
    m->v0 = (uint64_t *)malloc(cap * sizeof(uint64_t));
    m->v1 = (int64_t *)malloc(cap * sizeof(int64_t));
    m->v2 = (int64_t *)malloc(cap * sizeof(int64_t));
    m->used = (uint8_t *)calloc(cap, 1);
    m->mask = cap - 1;
    return !(m->keys && m->v0 && m->v1 && m->v2 && m->used);
}

static void map_init(Map *m, jmp_buf *fail) {
    m->fail = fail;
    m->count = 0;
    if (map_arrays(m, 64)) longjmp(*fail, 1);
}

static void map_grow(Map *m) {
    Map old = *m;
    if (map_arrays(m, (old.mask + 1) * 2)) {
        map_free(m);
        *m = old;
        longjmp(*m->fail, 1);
    }
    for (uint64_t i = 0; i <= old.mask; i++) {
        if (!old.used[i]) continue;
        uint64_t j = mix64((uint64_t)old.keys[i]) & m->mask;
        while (m->used[j]) j = (j + 1) & m->mask;
        m->used[j] = 1;
        m->keys[j] = old.keys[i];
        m->v0[j] = old.v0[i];
        m->v1[j] = old.v1[i];
        m->v2[j] = old.v2[i];
    }
    map_free(&old);
}

static int64_t map_find(const Map *m, int64_t key) {
    uint64_t i = mix64((uint64_t)key) & m->mask;
    while (m->used[i]) {
        if (m->keys[i] == key) return (int64_t)i;
        i = (i + 1) & m->mask;
    }
    return -1;
}

/* The slot of `key`, inserted zeroed if absent; valid until the next insert. */
static int64_t map_get_or_insert(Map *m, int64_t key, int *inserted) {
    int64_t found = map_find(m, key);
    if (found >= 0) {
        *inserted = 0;
        return found;
    }
    if ((uint64_t)(m->count + 1) * 2 > m->mask + 1) map_grow(m);
    uint64_t i = mix64((uint64_t)key) & m->mask;
    while (m->used[i]) i = (i + 1) & m->mask;
    m->used[i] = 1;
    m->keys[i] = key;
    m->v0[i] = 0;
    m->v1[i] = 0;
    m->v2[i] = 0;
    m->count++;
    *inserted = 1;
    return (int64_t)i;
}

static void map_set(Map *m, int64_t key, uint64_t v0, int64_t v1, int64_t v2) {
    int inserted;
    int64_t i = map_get_or_insert(m, key, &inserted);
    m->v0[i] = v0;
    m->v1[i] = v1;
    m->v2[i] = v2;
}

static void map_del(Map *m, uint64_t i) {
    uint64_t mask = m->mask;
    uint64_t j = i;
    for (;;) {
        j = (j + 1) & mask;
        if (!m->used[j]) break;
        uint64_t k = mix64((uint64_t)m->keys[j]) & mask;
        if (((j - k) & mask) >= ((j - i) & mask)) {
            m->keys[i] = m->keys[j];
            m->v0[i] = m->v0[j];
            m->v1[i] = m->v1[j];
            m->v2[i] = m->v2[j];
            i = j;
        }
    }
    m->used[i] = 0;
    m->count--;
}

/* ------------------------------------------------------ history table
 * HistoryTable with the closed-form fold (32-63 bit keys): block ->
 * (pc_trace_hash, previous_block), held in the ways of the lane's main
 * L1 (htrace, hprev, F_HIST) as the paper keeps it beside the L1D tags.
 * The table's key set is exactly the resident blocks: an entry is made
 * on a demand access or for an eviction's replacement, and every L1
 * eviction (demand or prefetch install) removes the victim's, so a way
 * without F_HIST is a block the dict does not hold.  This needs the
 * history block size to equal the L1's (vector_replay gates on it). */

typedef struct {
    Cache *l1;
    int key_bits;
    uint64_t key_mask;
    int64_t evictions, cold;
} History;

static uint64_t hist_key(const History *t, uint64_t trace_hash,
                         int64_t previous, int64_t block) {
    uint64_t raw = (trace_hash ^ (uint64_t)previous) * HASH_MULT + HASH_INC;
    raw = (raw ^ (uint64_t)block) * HASH_MULT + HASH_INC;
    return (raw & t->key_mask) ^ (raw >> t->key_bits);
}

/* observe_access: fold the pc into the trace of the demand access's
 * block (the L1's last access); the candidate key. */
static uint64_t hist_access(History *t, int64_t pc, int64_t block) {
    Cache *l1 = t->l1;
    int64_t s = l1->slot;
    if (!(l1->flags[s] & F_HIST)) {
        l1->flags[s] |= F_HIST;
        l1->htrace[s] = 0;
        l1->hprev[s] = 0;
    }
    uint64_t trace_hash = (l1->htrace[s] ^ (uint64_t)pc) * HASH_MULT + HASH_INC;
    l1->htrace[s] = trace_hash;
    return hist_key(t, trace_hash, l1->hprev[s], block);
}

/* observe_eviction of the L1's last victim, `evicted_block`, by its last
 * access or install (the replacement): the signature key. */
static uint64_t hist_evict(History *t, int64_t evicted_block) {
    Cache *l1 = t->l1;
    t->evictions++;
    uint64_t trace_hash = 0;
    int64_t previous = 0;
    if (l1->vflags & F_HIST) {
        trace_hash = l1->vtrace;
        previous = l1->vprev;
    } else {
        t->cold++;
    }
    int64_t s = l1->slot;
    l1->flags[s] |= F_HIST;
    l1->htrace[s] = 0;
    l1->hprev[s] = evicted_block;
    return hist_key(t, trace_hash, previous, evicted_block);
}

/* cfg[0..1]: key_bits, key_mask; l1 gains its per-way history. */
static void hist_init(jmp_buf *fail, History *t, const int64_t *cfg, Cache *l1) {
    size_t ways = (size_t)((l1->set_mask + 1) * l1->assoc);
    l1->htrace = (uint64_t *)xalloc(fail, NULL, ways * sizeof(uint64_t));
    l1->hprev = (int64_t *)xalloc(fail, NULL, ways * sizeof(int64_t));
    t->l1 = l1;
    t->key_bits = (int)cfg[0];
    t->key_mask = (uint64_t)cfg[1];
}

/* ------------------------------------------------------- shared L2
 * repro.cache.hierarchy.SharedL2: one L2 cache shared by the lanes of a
 * co-run, the block -> core map of who allocated each block last, and
 * the cross-core eviction counters. */

typedef struct {
    Cache cache;
    Map owners; /* block -> core (v1); fail points at the running lane's */
    int64_t cross;
    int64_t *prefetch_cross; /* by the prefetching core */
    int64_t ncores;
} SharedL2;

/* SharedL2.allocated: `core` allocated address's block, displacing the
 * block `evicted` when has_evicted. */
static void shared_allocated(SharedL2 *s, int64_t core, int64_t address,
                             int has_evicted, int64_t evicted, int by_prefetch) {
    if (has_evicted) {
        int64_t slot = map_find(&s->owners, evicted);
        if (slot >= 0) {
            int64_t owner = s->owners.v1[slot];
            map_del(&s->owners, (uint64_t)slot);
            if (owner != core) {
                s->cross++;
                if (by_prefetch) s->prefetch_cross[core]++;
            }
        }
    }
    map_set(&s->owners, address & s->cache.block_mask, 0, core, 0);
}

/* ---------------------------------------------- the two hierarchies
 * The main hierarchy the predictor prefetches into and the shadow
 * baseline that defines the opportunity, plus the simulator's
 * prefetched-block tracking: block -> (tag key, tag word, packed
 * (tag offset << 2) | source).  Each side's L2 is its own cache, or a
 * co-run's SharedL2 cache. */

typedef struct {
    Cache main_l1, base_l1, own_l2[2];
    Cache *main_l2, *base_l2;
    SharedL2 *shared; /* the shared main L2 recording ownership, or NULL */
    int64_t core;
    Map prefetched;
    int64_t block_mask;
    int64_t base_misses, correct, early, base_l2_hits, base_l2_misses,
        main_l1_hits, main_l2_hits, main_l2_misses;
    int64_t prefetches_used, prefetches_evicted_unused, incorrect_mem;
    int64_t prefetches_issued, prefetches_from_l2, prefetches_from_memory;
    int64_t queue_size, dropped; /* the request queue (see lane_issue) */
    int8_t *col; /* per-access outcome bytes (see hier_init), or NULL */
    int64_t fills; /* memory-sourced fills after the current access */
    int64_t *spill, nspill; /* exact counts of saturated fills, or NULL */
} Hier;

/* What repro_open hands a kind's init. */
typedef struct {
    const int64_t *cfg;
    int8_t *col;
    int64_t *spill;
    SharedL2 *shared_main, *shared_base;
    int64_t core;
} OpenArgs;

/* cfg: 0 l1_num_sets, 1 l1_assoc, 2 l1_offset_bits, 3 l1_index_bits,
 *      4 l2_num_sets, 5 l2_assoc, 6 l2_offset_bits, 7 l2_index_bits,
 *      8 hier_block_mask, 9 request_queue_size
 * col: NULL, or one outcome byte per access: the main level (0 L1, 1 L2,
 *      2 memory) | 4 on a baseline L1 miss | 8 per memory-sourced fill,
 *      up to FILL_SPILL fills; a count that saturates is also appended
 *      to spill (NULL when no access can fill that many).
 * shared_main / shared_base: the co-run's shared L2s, or NULL for the
 *      lane's own; core: the lane's core in the ownership map. */
static void hier_init(jmp_buf *fail, Hier *h, const OpenArgs *a) {
    const int64_t *cfg = a->cfg;
    h->col = a->col;
    h->spill = a->spill;
    cache_init(fail, &h->main_l1, cfg, cfg[8]);
    cache_init(fail, &h->base_l1, cfg, cfg[8]);
    h->shared = a->shared_main;
    h->core = a->core;
    h->main_l2 = a->shared_main ? &a->shared_main->cache : &h->own_l2[0];
    h->base_l2 = a->shared_base ? &a->shared_base->cache : &h->own_l2[1];
    if (!a->shared_main) cache_init(fail, &h->own_l2[0], cfg + 4, cfg[8]);
    if (!a->shared_base) cache_init(fail, &h->own_l2[1], cfg + 4, cfg[8]);
    map_init(&h->prefetched, fail);
    h->block_mask = cfg[8];
    h->queue_size = cfg[9];
}

static void hier_free(Hier *h) {
    cache_free(&h->main_l1);
    cache_free(&h->base_l1);
    cache_free(&h->own_l2[0]);
    cache_free(&h->own_l2[1]);
    map_free(&h->prefetched);
}

/* One demand reference through both hierarchies, classified against the
 * prediction opportunity; returns the main L1's access code.  A main L2
 * miss allocates into a shared L2 as the lane's core. */
static int hier_demand(Hier *h, int64_t address, int wr, int64_t *evicted,
                       int *has_evicted, int *ev_unused) {
    int64_t dump, l2_evicted = 0;
    int dummy_h, dummy_u, l2_has = 0;
    int outcome = 0;
    h->fills = 0;
    int code = cache_access(&h->main_l1, address, wr, evicted, has_evicted,
                            ev_unused);
    if (code) {
        h->main_l1_hits++;
    } else if (cache_access(h->main_l2, address, 0, &l2_evicted, &l2_has, &dummy_u)) {
        h->main_l2_hits++;
        outcome = 1;
    } else {
        h->main_l2_misses++;
        outcome = 2;
        if (h->shared) shared_allocated(h->shared, h->core, address, l2_has, l2_evicted, 0);
    }
    if (cache_access(&h->base_l1, address, wr, &dump, &dummy_h, &dummy_u)) {
        if (!code) h->early++;
    } else {
        h->base_misses++;
        outcome |= 4;
        if (code) h->correct++;
        if (cache_access(h->base_l2, address, 0, &dump, &dummy_h, &dummy_u))
            h->base_l2_hits++;
        else
            h->base_l2_misses++;
    }
    if (h->col) *h->col++ = (int8_t)outcome;
    return code;
}

/* prefetch_into_l1_fast: 0 if already L1-resident, else the source
 * (1 = L2, 2 = memory) with the installed block's victim reported. */
static int hier_prefetch(Hier *h, int64_t address, int has_victim, int64_t victim,
                         int64_t *evicted, int *has_evicted, int *ev_unused) {
    Cache *l1 = &h->main_l1;
    int64_t l2_evicted = 0;
    int l2_has = 0, dummy_u;
    h->prefetches_issued++;
    int64_t set = (address >> l1->offset_bits) & l1->set_mask;
    int64_t tag = address >> l1->tag_shift;
    int64_t base = set * l1->assoc;
    for (int w = 0; w < l1->assoc; w++)
        if (l1->tags[base + w] == tag) return 0;
    int source;
    if (cache_access(h->main_l2, address, 0, &l2_evicted, &l2_has, &dummy_u)) {
        h->prefetches_from_l2++;
        source = 1;
    } else {
        h->prefetches_from_memory++;
        source = 2;
        if (h->shared) shared_allocated(h->shared, h->core, address, l2_has, l2_evicted, 1);
        /* one more memory fill after this access */
        if (h->col && h->fills++ < FILL_SPILL) h->col[-1] += 8;
    }
    cache_insert_prefetch(l1, set, tag, address, has_victim, victim, evicted,
                          has_evicted, ev_unused);
    return source;
}

/* A prefetch's tag, handed back to the predictor when the block is used
 * or evicted unused: a key, a word and an offset (tag_offset). */
typedef struct {
    uint64_t key;
    int64_t word, offset;
} Tag;

/* Pop the tracked prefetch of `block`: its source (1 = L2, 2 = memory)
 * and tag, or 0 when the block is not tracked. */
static int hier_pop(Hier *h, int64_t block, Tag *tag) {
    int64_t slot = map_find(&h->prefetched, block);
    if (slot < 0) return 0;
    tag->key = h->prefetched.v0[slot];
    tag->word = h->prefetched.v1[slot];
    tag->offset = h->prefetched.v2[slot] >> 2;
    int source = (int)(h->prefetched.v2[slot] & 3);
    map_del(&h->prefetched, (uint64_t)slot);
    return source;
}

static void hier_track(Hier *h, int64_t block, const Tag *tag, int source) {
    map_set(&h->prefetched, block, tag->key, tag->word, (tag->offset << 2) | source);
}

/* out: 0-7 loop counters, 9-15 prefetch accounting (see vector_replay),
 * 22 request-queue drops, 23 spilled fill counts, 24/34/44/54 per-cache
 * stats blocks; a shared L2's block stays zero (repro_shared_close dumps
 * it once for every lane). */
static void hier_dump(const Hier *h, int64_t *out) {
    out[0] = h->base_misses;
    out[1] = h->correct;
    out[2] = h->early;
    out[3] = h->base_l2_hits;
    out[4] = h->base_l2_misses;
    out[5] = h->main_l1_hits;
    out[6] = h->main_l2_hits;
    out[7] = h->main_l2_misses;
    out[9] = h->prefetches_used;
    out[10] = h->prefetches_evicted_unused;
    out[11] = h->prefetches_evicted_unused; /* incorrect prefetches */
    out[12] = h->incorrect_mem;
    out[13] = h->prefetches_issued;
    out[14] = h->prefetches_from_l2;
    out[15] = h->prefetches_from_memory;
    out[22] = h->dropped;
    out[23] = h->nspill;
    cache_dump_stats(&h->main_l1, out + 24);
    if (h->main_l2 == &h->own_l2[0]) cache_dump_stats(h->main_l2, out + 34);
    cache_dump_stats(&h->base_l1, out + 44);
    if (h->base_l2 == &h->own_l2[1]) cache_dump_stats(h->base_l2, out + 54);
}

/* --------------------------------------------------------- lane states
 * One resumable replay: repro_open builds a kind's state over the
 * lane's whole columns, repro_run replays accesses [start, stop) of
 * them (chunks follow each other in order), and repro_close dumps the
 * counters and frees the state. */

typedef struct Lane Lane;

/* The demand access as the predictor's on_access sees it (AccessOutcome):
 * the main L1's access code (0 miss, 1 hit, 2 hit on an unused prefetch)
 * and, on a miss, the block it evicted. */
typedef struct {
    int64_t pc, address, block, evicted;
    int code, has_evicted;
} Access;

/* A PrefetchCommand: the address, the victim the predictor names (if
 * has_victim) and the tag the simulator tracks the prefetch by. */
typedef struct {
    int64_t address, victim;
    int has_victim;
    Tag tag;
} Cmd;

/* A kind: its state's size, set-up, loop, counters and the Prefetcher
 * hooks lane_run drives.  A NULL hook is the base class's no-op. */
typedef struct {
    size_t size;
    void (*init)(Lane *, const OpenArgs *);
    int (*run)(Lane *, int64_t start, int64_t stop); /* 0, or 2 out of range */
    /* on_access: appends the access's commands; 0, or 2 out of range */
    int (*access)(Lane *, const Access *);
    void (*used)(Lane *, int64_t block, const Tag *);   /* on_prefetch_used */
    void (*unused)(Lane *, int64_t block, const Tag *); /* on_prefetch_evicted_unused */
    /* on_prefetch_installed: `block` displaced `evicted` if has_evicted */
    void (*installed)(Lane *, int64_t block, int has_evicted, int64_t evicted);
    void (*dump)(Lane *, int64_t *out);
    void (*release)(Lane *); /* frees what init allocated beyond the Lane, or NULL */
} Kind;

struct Lane {
    jmp_buf fail;
    const Kind *kind;
    int dead; /* 0, or the rc that ended the replay */
    int64_t n, pos;
    const int64_t *pc, *addr;
    const int8_t *is_write;
    Hier h;
    Cmd *cmds; /* the current access's commands */
    int64_t ncmds, cmds_cap;
    int64_t issued; /* every command returned: predictions_issued */
};

/* Open kernel states (lanes and shared L2s), for leak checks. */
static int64_t live_states;

int64_t repro_live_states(void) {
    return __atomic_load_n(&live_states, __ATOMIC_SEQ_CST);
}

static void live_add(int64_t delta) {
    __atomic_add_fetch(&live_states, delta, __ATOMIC_SEQ_CST);
}

/* Append a command to the current access's list. */
static void lane_push(Lane *s, int64_t address, int has_victim, int64_t victim,
                      Tag tag) {
    s->cmds = (Cmd *)grow(&s->fail, s->cmds, &s->cmds_cap, s->ncmds + 1, sizeof(Cmd));
    s->cmds[s->ncmds++] = (Cmd){address, victim, has_victim, tag};
    s->issued++;
}

/* _notify_unused_eviction: a tracked prefetch left the L1 unused. */
static void lane_unused(Lane *s, int64_t block) {
    Hier *h = &s->h;
    Tag tag;
    int source = hier_pop(h, block, &tag);
    if (!source) return;
    h->prefetches_evicted_unused++;
    if (source == 2) h->incorrect_mem++;
    if (s->kind->unused) s->kind->unused(s, block, &tag);
}

/* The simulator's request queue, drained after every access: one command
 * is issued at once; k > 1 are pushed (the oldest dropped beyond the
 * queue size, which is at least 1) and then issued in order. */
static void lane_issue(Lane *s) {
    const Kind *k = s->kind;
    Hier *h = &s->h;
    int64_t first = s->ncmds > h->queue_size ? s->ncmds - h->queue_size : 0;
    h->dropped += first;
    for (int64_t j = first; j < s->ncmds; j++) {
        const Cmd *c = &s->cmds[j];
        int64_t evicted = 0;
        int has_evicted, ev_unused;
        int source = hier_prefetch(h, c->address, c->has_victim, c->victim, &evicted,
                                   &has_evicted, &ev_unused);
        if (!source) continue;
        int64_t block = c->address & h->block_mask;
        if (ev_unused) lane_unused(s, evicted);
        hier_track(h, block, &c->tag, source);
        if (k->installed) k->installed(s, block, has_evicted, evicted);
    }
    if (h->spill && h->fills >= FILL_SPILL) h->spill[h->nspill++] = h->fills;
}

/* TraceDrivenSimulator._fast_loop for every prefetching kind: the demand
 * access, the feedback for prefetched blocks, on_access, then its
 * commands through the request queue. */
static int lane_run(Lane *s, int64_t start, int64_t stop) {
    const Kind *k = s->kind;
    Hier *h = &s->h;
    for (int64_t i = start; i < stop; i++) {
        Access a;
        int ev_unused = 0;
        a.address = s->addr[i];
        a.evicted = 0;
        a.has_evicted = 0;
        a.code = hier_demand(h, a.address, s->is_write[i], &a.evicted, &a.has_evicted,
                             &ev_unused);
        a.block = a.address & h->block_mask;
        if (a.code == 2) {
            Tag tag;
            if (hier_pop(h, a.block, &tag)) {
                h->prefetches_used++;
                if (k->used) k->used(s, a.block, &tag);
            }
        } else if (!a.code && ev_unused) {
            lane_unused(s, a.evicted);
        }
        if (!k->access) continue;
        a.pc = s->pc[i];
        s->ncmds = 0;
        if (k->access(s, &a)) return 2;
        if (s->ncmds) lane_issue(s);
    }
    return 0;
}

/* out: hier_dump's slots plus 8 predictions_issued. */
static void lane_dump(Lane *s, int64_t *out) {
    hier_dump(&s->h, out);
    out[8] = s->issued;
}

/* The no-prefetcher co-run lane: a Hier and no hooks. */
static void hier_only_init(Lane *s, const OpenArgs *a) { hier_init(&s->fail, &s->h, a); }

/* -------------------------------------------------- LRU-ordered table
 * The DBCP correlation table: uint64 signature key -> packed
 * (predicted << 8) | confidence, with python-dict insertion order as
 * LRU order.  A hash index maps keys to nodes of a doubly-linked pool
 * (head = oldest, tail = most recent).  The index doubles at half load
 * and the pool doubles when full, up to `limit` nodes (the most the
 * table ever holds at once), so both follow the live count. */

typedef struct {
    uint64_t *hkeys;
    int32_t *hnode;
    uint8_t *hused;
    uint64_t hmask;
    uint64_t *nkey;
    int64_t *npacked;
    int32_t *nprev;
    int32_t *nnext;
    int32_t head, tail, free_head;
    int64_t count, cap, limit;
    jmp_buf *fail;
} Lru;

static uint64_t next_pow2(uint64_t x) {
    uint64_t p = 1;
    while (p < x) p <<= 1;
    return p;
}

/* An index of `hcap` slots (a power of two), refilled from the nodes. */
static void lru_index(Lru *t, uint64_t hcap) {
    t->hkeys = (uint64_t *)xalloc(t->fail, t->hkeys, hcap * sizeof(uint64_t));
    t->hnode = (int32_t *)xalloc(t->fail, t->hnode, hcap * sizeof(int32_t));
    t->hused = (uint8_t *)xalloc(t->fail, t->hused, hcap);
    memset(t->hused, 0, hcap);
    t->hmask = hcap - 1;
    for (int32_t node = t->head; node >= 0; node = t->nnext[node]) {
        uint64_t i = mix64(t->nkey[node]) & t->hmask;
        while (t->hused[i]) i = (i + 1) & t->hmask;
        t->hused[i] = 1;
        t->hkeys[i] = t->nkey[node];
        t->hnode[i] = node;
    }
}

/* Grow the node pool to `cap` nodes, the new ones free. */
static void lru_pool(Lru *t, int64_t cap) {
    size_t n = (size_t)cap;
    t->nkey = (uint64_t *)xalloc(t->fail, t->nkey, n * sizeof(uint64_t));
    t->npacked = (int64_t *)xalloc(t->fail, t->npacked, n * sizeof(int64_t));
    t->nprev = (int32_t *)xalloc(t->fail, t->nprev, n * sizeof(int32_t));
    t->nnext = (int32_t *)xalloc(t->fail, t->nnext, n * sizeof(int32_t));
    for (int64_t i = t->cap; i < cap; i++) t->nnext[i] = (int32_t)(i + 1);
    t->nnext[cap - 1] = t->free_head;
    t->free_head = (int32_t)t->cap;
    t->cap = cap;
}

/* An empty table of `cap` nodes (at least one) that grows to at most `limit`. */
static void lru_init(jmp_buf *fail, Lru *t, int64_t cap, int64_t limit) {
    t->fail = fail;
    t->head = -1;
    t->tail = -1;
    t->free_head = -1;
    t->limit = limit;
    lru_pool(t, cap);
    lru_index(t, next_pow2((uint64_t)(2 * cap)));
}

static void lru_free(Lru *t) {
    free(t->hkeys);
    free(t->hnode);
    free(t->hused);
    free(t->nkey);
    free(t->npacked);
    free(t->nprev);
    free(t->nnext);
}

static int64_t lru_hfind(const Lru *t, uint64_t key) {
    uint64_t i = mix64(key) & t->hmask;
    while (t->hused[i]) {
        if (t->hkeys[i] == key) return (int64_t)i;
        i = (i + 1) & t->hmask;
    }
    return -1;
}

static void lru_hdel(Lru *t, uint64_t i) {
    uint64_t mask = t->hmask;
    uint64_t j = i;
    for (;;) {
        j = (j + 1) & mask;
        if (!t->hused[j]) break;
        uint64_t k = mix64(t->hkeys[j]) & mask;
        if (((j - k) & mask) >= ((j - i) & mask)) {
            t->hkeys[i] = t->hkeys[j];
            t->hnode[i] = t->hnode[j];
            i = j;
        }
    }
    t->hused[i] = 0;
}

static void lru_unlink(Lru *t, int32_t node) {
    int32_t p = t->nprev[node];
    int32_t nx = t->nnext[node];
    if (p >= 0) t->nnext[p] = nx; else t->head = nx;
    if (nx >= 0) t->nprev[nx] = p; else t->tail = p;
}

static void lru_append(Lru *t, int32_t node) {
    t->nprev[node] = t->tail;
    t->nnext[node] = -1;
    if (t->tail >= 0) t->nnext[t->tail] = node; else t->head = node;
    t->tail = node;
}

/* table.pop(key) + table[key] = ... == move to the MRU end */
static void lru_touch(Lru *t, int32_t node) {
    if (t->tail == node) return;
    lru_unlink(t, node);
    lru_append(t, node);
}

/* del table[next(iter(table))] */
static void lru_evict_oldest(Lru *t) {
    int32_t node = t->head;
    int64_t slot = lru_hfind(t, t->nkey[node]);
    lru_hdel(t, (uint64_t)slot);
    lru_unlink(t, node);
    t->nnext[node] = t->free_head;
    t->free_head = node;
    t->count--;
}

static void lru_insert(Lru *t, uint64_t key, int64_t packed) {
    if (t->free_head < 0) lru_pool(t, t->cap * 2 < t->limit ? t->cap * 2 : t->limit);
    if ((uint64_t)(t->count + 1) * 2 > t->hmask + 1) lru_index(t, (t->hmask + 1) * 2);
    int32_t node = t->free_head;
    t->free_head = t->nnext[node];
    t->nkey[node] = key;
    t->npacked[node] = packed;
    lru_append(t, node);
    uint64_t i = mix64(key) & t->hmask;
    while (t->hused[i]) i = (i + 1) & t->hmask;
    t->hused[i] = 1;
    t->hkeys[i] = key;
    t->hnode[i] = node;
    t->count++;
}

/* ------------------------------------------------------- DBCP replay */

typedef struct {
    Lane lane;
    History hist;
    Map outstanding; /* predicted block -> signature key */
    Lru table;
    int64_t conf_threshold, init_conf, max_conf, table_entries;
    int64_t table_hits, low_conf, signatures_recorded, table_evictions;
} Dbcp;

/* DBCPPrefetcher._record */
static void dbcp_record(Dbcp *d, uint64_t key, int64_t predicted) {
    Lru *t = &d->table;
    int64_t slot = lru_hfind(t, key);
    if (slot >= 0) {
        int32_t node = t->hnode[slot];
        t->npacked[node] = (predicted << 8) | (t->npacked[node] & 255);
        lru_touch(t, node);
        return;
    }
    if (d->table_entries >= 0 && t->count >= d->table_entries) {
        lru_evict_oldest(t);
        d->table_evictions++;
    }
    lru_insert(t, key, (predicted << 8) | d->init_conf);
    d->signatures_recorded++;
}

static void dbcp_evict_record(Dbcp *d, int64_t evicted, int64_t replacement) {
    dbcp_record(d, hist_evict(&d->hist, evicted), replacement);
}

/* _update_confidence: outstanding.pop(block) wins over the stored tag;
 * table.get (NO LRU refresh) then clamp into [0, max_confidence]. */
static void dbcp_feedback(Lane *s, int64_t block_address, const Tag *tag, int64_t delta) {
    Dbcp *d = (Dbcp *)s;
    uint64_t key = tag->key;
    int64_t oslot = map_find(&d->outstanding, block_address);
    if (oslot >= 0) {
        key = d->outstanding.v0[oslot];
        map_del(&d->outstanding, (uint64_t)oslot);
    }
    int64_t slot = lru_hfind(&d->table, key);
    if (slot < 0) return;
    int32_t node = d->table.hnode[slot];
    int64_t packed = d->table.npacked[node];
    int64_t conf = (packed & 255) + delta;
    if (conf < 0) conf = 0;
    if (conf > d->max_conf) conf = d->max_conf;
    d->table.npacked[node] = (packed & ~(int64_t)255) | conf;
}

/* cfg: 0-9 hierarchy (see hier_init), 10 key_bits, 11 key_mask,
 *      12 confidence_threshold, 13 initial_confidence, 14 max_confidence,
 *      15 table_entries (-1 = unlimited) */
static void dbcp_init(Lane *s, const OpenArgs *a) {
    Dbcp *d = (Dbcp *)s;
    const int64_t *cfg = a->cfg;
    hier_init(&s->fail, &s->h, a);
    hist_init(&s->fail, &d->hist, cfg + 10, &s->h.main_l1);
    map_init(&d->outstanding, &s->fail);
    d->conf_threshold = cfg[12];
    d->init_conf = cfg[13];
    d->max_conf = cfg[14];
    d->table_entries = cfg[15];
    /* At most 2n correlation-table inserts in total. */
    int64_t limit = 2 * s->n + 16;
    if (d->table_entries >= 0 && d->table_entries < limit) limit = d->table_entries;
    lru_init(&s->fail, &d->table, min64(limit, 64), limit);
}

/* DBCPPrefetcher.on_access: the eviction's signature, then one command
 * when the candidate signature's entry is confident. */
static int dbcp_access(Lane *s, const Access *a) {
    Dbcp *d = (Dbcp *)s;
    if (a->has_evicted) dbcp_evict_record(d, a->evicted, a->block);
    uint64_t key = hist_access(&d->hist, a->pc, a->block);
    int64_t tslot = lru_hfind(&d->table, key);
    if (tslot < 0) return 0;
    int32_t node = d->table.hnode[tslot];
    lru_touch(&d->table, node); /* a table hit refreshes the LRU position */
    d->table_hits++;
    int64_t packed = d->table.npacked[node];
    if ((packed & 255) < d->conf_threshold) {
        d->low_conf++;
        return 0;
    }
    int64_t predicted = packed >> 8;
    map_set(&d->outstanding, predicted, key, 0, 0);
    lane_push(s, predicted, 1, a->block, (Tag){key, 0, 0});
    return 0;
}

static void dbcp_used(Lane *s, int64_t block, const Tag *tag) { dbcp_feedback(s, block, tag, 1); }
static void dbcp_unused(Lane *s, int64_t block, const Tag *tag) { dbcp_feedback(s, block, tag, -1); }

static void dbcp_installed(Lane *s, int64_t block, int has_evicted, int64_t evicted) {
    if (has_evicted) dbcp_evict_record((Dbcp *)s, evicted, block);
}

/* out: 0-15 as lane_dump plus 16 table_hits, 17 low_conf,
 *      18 signatures_recorded, 19 table_evictions, 20 history evictions,
 *      21 history cold evictions.
 * spill goes unused: DBCP fills at most one block per access. */
static void dbcp_dump(Lane *s, int64_t *out) {
    Dbcp *d = (Dbcp *)s;
    lane_dump(s, out);
    out[16] = d->table_hits;
    out[17] = d->low_conf;
    out[18] = d->signatures_recorded;
    out[19] = d->table_evictions;
    out[20] = d->hist.evictions;
    out[21] = d->hist.cold;
}

static void dbcp_release(Lane *s) {
    Dbcp *d = (Dbcp *)s;
    map_free(&d->outstanding);
    lru_free(&d->table);
}

/* --------------------------------------------------- LT-cords replay */

typedef struct {
    int64_t key, predicted, confidence;
} Sig;

/* One frame of sequence storage; its fragment is sigs[start, start+len). */
typedef struct {
    int64_t head, start, len, window;
} Frame;

typedef struct {
    int64_t tag, predicted, confidence, frame, offset;
} SigWay;

typedef struct {
    int64_t ready_at, key, predicted, confidence, frame, offset;
} Pending;

typedef struct {
    Lane lane;
    History hist;
    Map outstanding;  /* predicted block -> (key, frame, offset) */
    Map frame_slots;  /* frame index -> slot in frames */
    Map heads;        /* head key -> frame index */
    Map sc_sets;      /* signature-cache set index -> slot in set_* */
    Sig *sigs;
    int64_t nsigs, sigs_cap;
    Frame *frames;
    int64_t nframes, frames_cap;
    SigWay *ways;     /* sc_assoc ways per allocated set */
    int64_t ways_cap;
    int64_t *set_fill, *set_next; /* filled ways; next FIFO victim */
    int64_t nsets, set_fill_cap, set_next_cap;
    Pending *pending; /* FIFO ring of streamed, not yet visible entries */
    int64_t pend_head, pend_len, pend_cap;
    int64_t *recent;  /* deque(maxlen=head_lookahead) of recorded keys */
    int64_t recent_max, recent_cap, recent_start, recent_len;
    int64_t recording; /* slot of the frame being recorded, -1 = none */
    int64_t next_unlimited;
    int64_t now;       /* _access_counter */
    int64_t threshold, init_conf, max_conf, window, delay;
    int64_t num_frames, unlimited, fragment, sig_bytes;
    int64_t sc_set_mask, sc_index_bits, sc_assoc;
    int64_t created, head_matches, low_conf, streamed, conf_inc, conf_dec;
    int64_t recorded, frames_allocated, frames_overwritten, fetched,
        bytes_written, bytes_read, conf_updates;
    int64_t sc_lookups, sc_hits, sc_inserts, sc_replacements;
} Ltc;

static int64_t ltc_frame(const Ltc *L, int64_t index) {
    int64_t s = map_find(&L->frame_slots, index);
    return s < 0 ? -1 : L->frame_slots.v1[s];
}

/* SequenceStorage._allocate_frame */
static int64_t ltc_allocate_frame(Ltc *L, int64_t head) {
    int64_t index = L->unlimited ? L->next_unlimited++
                                 : (int64_t)((uint64_t)head % (uint64_t)L->num_frames);
    int inserted;
    int64_t s = map_get_or_insert(&L->frame_slots, index, &inserted);
    int64_t slot;
    if (inserted) {
        L->frames = (Frame *)grow(&L->lane.fail, L->frames, &L->frames_cap,
                                  L->nframes + 1, sizeof(Frame));
        slot = L->nframes++;
        L->frame_slots.v1[s] = slot;
    } else {
        slot = L->frame_slots.v1[s];
        L->frames_overwritten++;
        int64_t hs = map_find(&L->heads, L->frames[slot].head);
        if (hs >= 0) map_del(&L->heads, (uint64_t)hs);
    }
    Frame *f = &L->frames[slot];
    f->head = head;
    f->start = L->nsigs;
    f->len = 0;
    f->window = 0;
    map_set(&L->heads, head, 0, index, 0);
    L->frames_allocated++;
    return slot;
}

/* SequenceStorage.record_signature */
static void ltc_record(Ltc *L, int64_t key, int64_t predicted) {
    if (L->recording < 0 || L->frames[L->recording].len >= L->fragment) {
        int64_t head = L->recent_len ? L->recent[L->recent_start] : key;
        L->recording = ltc_allocate_frame(L, head);
    }
    L->sigs = (Sig *)grow(&L->lane.fail, L->sigs, &L->sigs_cap, L->nsigs + 1, sizeof(Sig));
    Sig *sig = &L->sigs[L->nsigs++];
    sig->key = key;
    sig->predicted = predicted;
    sig->confidence = L->init_conf;
    L->frames[L->recording].len++;
    L->recorded++;
    L->bytes_written += L->sig_bytes;
    if (L->recent_len < L->recent_max) {
        L->recent = (int64_t *)grow(&L->lane.fail, L->recent, &L->recent_cap,
                                    L->recent_len + 1, sizeof(int64_t));
        L->recent[L->recent_len++] = key;
    } else {
        L->recent[L->recent_start] = key;
        L->recent_start = (L->recent_start + 1) % L->recent_max;
    }
}

/* The signature-cache set of `key`, or -1 when it was never filled. */
static int64_t sc_set(Ltc *L, uint64_t key, int create) {
    int64_t index = (int64_t)(key & (uint64_t)L->sc_set_mask);
    if (!create) {
        int64_t s = map_find(&L->sc_sets, index);
        return s < 0 ? -1 : L->sc_sets.v1[s];
    }
    int inserted;
    int64_t s = map_get_or_insert(&L->sc_sets, index, &inserted);
    if (inserted) {
        int64_t set = L->nsets;
        L->ways = (SigWay *)grow(&L->lane.fail, L->ways, &L->ways_cap,
                                 (set + 1) * L->sc_assoc, sizeof(SigWay));
        L->set_fill = (int64_t *)grow(&L->lane.fail, L->set_fill, &L->set_fill_cap,
                                      set + 1, sizeof(int64_t));
        L->set_next = (int64_t *)grow(&L->lane.fail, L->set_next, &L->set_next_cap,
                                      set + 1, sizeof(int64_t));
        L->set_fill[set] = 0;
        L->set_next[set] = 0;
        L->sc_sets.v1[s] = set;
        L->nsets++;
    }
    return L->sc_sets.v1[s];
}

/* SignatureCache.peek; the way stays valid until the next insert. */
static SigWay *sc_find(Ltc *L, uint64_t key) {
    int64_t set = sc_set(L, key, 0);
    if (set < 0) return NULL;
    int64_t tag = (int64_t)(key >> L->sc_index_bits);
    SigWay *w = L->ways + set * L->sc_assoc;
    for (int64_t k = 0; k < L->set_fill[set]; k++)
        if (w[k].tag == tag) return &w[k];
    return NULL;
}

/* SignatureCache.insert: update in place, else fill the lowest free way,
 * else replace in FIFO (fill) order. */
static void sc_insert(Ltc *L, int64_t key, int64_t predicted, int64_t confidence,
                      int64_t frame, int64_t offset) {
    L->sc_inserts++;
    int64_t set = sc_set(L, (uint64_t)key, 1);
    int64_t tag = (int64_t)((uint64_t)key >> L->sc_index_bits);
    SigWay *w = L->ways + set * L->sc_assoc;
    int64_t fill = L->set_fill[set], way;
    for (way = 0; way < fill; way++)
        if (w[way].tag == tag) break;
    if (way == fill) {
        if (fill < L->sc_assoc) {
            L->set_fill[set] = fill + 1;
        } else {
            way = L->set_next[set];
            L->set_next[set] = (way + 1) % L->sc_assoc;
            L->sc_replacements++;
        }
        w[way].tag = tag;
    }
    w[way].predicted = predicted;
    w[way].confidence = confidence;
    w[way].frame = frame;
    w[way].offset = offset;
}

/* _install_values: visible now, or after fetch_delay_accesses. */
static void ltc_install(Ltc *L, const Sig *sig, int64_t frame, int64_t offset) {
    L->streamed++;
    if (!L->delay) {
        sc_insert(L, sig->key, sig->predicted, sig->confidence, frame, offset);
        return;
    }
    if (L->pend_len == L->pend_cap) {
        int64_t cap = L->pend_cap ? 2 * L->pend_cap : 64;
        Pending *ring = (Pending *)xalloc(&L->lane.fail, NULL, (size_t)cap * sizeof(Pending));
        for (int64_t i = 0; i < L->pend_len; i++)
            ring[i] = L->pending[(L->pend_head + i) % L->pend_cap];
        free(L->pending);
        L->pending = ring;
        L->pend_head = 0;
        L->pend_cap = cap;
    }
    Pending *p = &L->pending[(L->pend_head + L->pend_len) % L->pend_cap];
    p->ready_at = L->now + L->delay;
    p->key = sig->key;
    p->predicted = sig->predicted;
    p->confidence = sig->confidence;
    p->frame = frame;
    p->offset = offset;
    L->pend_len++;
}

/* _drain_pending: entries queue in ready order, so the ready ones are a
 * prefix of the ring. */
static void ltc_drain(Ltc *L) {
    while (L->pend_len && L->pending[L->pend_head].ready_at <= L->now) {
        Pending p = L->pending[L->pend_head];
        L->pend_head = (L->pend_head + 1) % L->pend_cap;
        L->pend_len--;
        sc_insert(L, p.key, p.predicted, p.confidence, p.frame, p.offset);
    }
}

/* _stream_from: read_window + install + advance_window */
static void ltc_stream(Ltc *L, int64_t index, int64_t start, int64_t count) {
    if (count <= 0) return;
    int64_t slot = ltc_frame(L, index);
    if (slot < 0) return;
    Frame f = L->frames[slot];
    if (start >= f.len) return;
    int64_t m = f.len - start < count ? f.len - start : count;
    L->fetched += m;
    L->bytes_read += m * L->sig_bytes;
    for (int64_t i = 0; i < m; i++)
        ltc_install(L, &L->sigs[f.start + start + i], index, start + i);
    if (start + m > L->frames[slot].window) L->frames[slot].window = start + m;
}

/* _advance_sequence */
static void ltc_advance(Ltc *L, int64_t frame, int64_t offset) {
    int64_t slot = ltc_frame(L, frame);
    int64_t window_end = slot < 0 ? 0 : L->frames[slot].window;
    int64_t desired_end = offset + 1 + L->window;
    if (desired_end > window_end)
        ltc_stream(L, frame, window_end, desired_end - window_end);
}

static int64_t ltc_clamp(const Ltc *L, int64_t confidence) {
    if (confidence < 0) return 0;
    return confidence > L->max_conf ? L->max_conf : confidence;
}

/* _update_confidence: the outstanding entry wins over the command tag. */
static void ltc_feedback(Lane *s, int64_t block, const Tag *tag, int64_t delta) {
    Ltc *L = (Ltc *)s;
    uint64_t key = tag->key;
    int64_t frame = tag->word, offset = tag->offset;
    int64_t os = map_find(&L->outstanding, block);
    if (os >= 0) {
        key = L->outstanding.v0[os];
        frame = L->outstanding.v1[os];
        offset = L->outstanding.v2[os];
        map_del(&L->outstanding, (uint64_t)os);
    }
    int has_new = 0;
    int64_t new_conf = 0;
    SigWay *resident = sc_find(L, key);
    if (resident) {
        resident->confidence = ltc_clamp(L, resident->confidence + delta);
        new_conf = resident->confidence;
        has_new = 1;
    }
    int64_t slot = ltc_frame(L, frame);
    if (slot >= 0 && offset < L->frames[slot].len) {
        Sig *stored = &L->sigs[L->frames[slot].start + offset];
        if (!has_new) new_conf = ltc_clamp(L, stored->confidence + delta);
        stored->confidence = new_conf;
        L->conf_updates++;
        L->bytes_written += 1;
    }
    if (delta > 0)
        L->conf_inc++;
    else
        L->conf_dec++;
}

/* observe_eviction + record: a new last-touch signature, in eviction order. */
static void ltc_evict_record(Ltc *L, int64_t evicted, int64_t replacement) {
    ltc_record(L, (int64_t)hist_evict(&L->hist, evicted), replacement);
    L->created++;
}

/* cfg: 0-9 hierarchy (see hier_init), 10 key_bits, 11 key_mask,
 *      12 confidence_threshold, 13 initial_confidence, 14 max_confidence,
 *      15 stream_window, 16 fetch_delay_accesses, 17 num_frames,
 *      18 unlimited_frames, 19 fragment_size, 20 max(1, head_lookahead),
 *      21 stored bytes per signature, 22 signature-cache sets, 23 its
 *      index bits, 24 its associativity */
static void ltc_init(Lane *s, const OpenArgs *a) {
    Ltc *L = (Ltc *)s;
    const int64_t *cfg = a->cfg;
    hier_init(&s->fail, &s->h, a);
    hist_init(&s->fail, &L->hist, cfg + 10, &s->h.main_l1);
    map_init(&L->outstanding, &s->fail);
    map_init(&L->frame_slots, &s->fail);
    map_init(&L->heads, &s->fail);
    map_init(&L->sc_sets, &s->fail);
    L->threshold = cfg[12];
    L->init_conf = cfg[13];
    L->max_conf = cfg[14];
    L->window = cfg[15];
    L->delay = cfg[16];
    L->num_frames = cfg[17];
    L->unlimited = cfg[18];
    L->fragment = cfg[19];
    L->recent_max = cfg[20];
    L->sig_bytes = cfg[21];
    L->sc_set_mask = cfg[22] - 1;
    L->sc_index_bits = cfg[23];
    L->sc_assoc = cfg[24];
    L->recording = -1;
}

/* LTCordsPrefetcher.on_access: drain the pending stream, record the
 * eviction's signature, then predict from the signature cache and
 * stream on a head match. */
static int ltc_access(Lane *s, const Access *a) {
    Ltc *L = (Ltc *)s;
    L->now++;
    if (L->pend_len) ltc_drain(L);
    if (a->has_evicted) ltc_evict_record(L, a->evicted, a->block);
    uint64_t key = hist_access(&L->hist, a->pc, a->block);
    L->sc_lookups++;
    SigWay *entry = sc_find(L, key);
    if (entry) {
        L->sc_hits++;
        int64_t frame = entry->frame, offset = entry->offset;
        if (entry->confidence >= L->threshold) {
            map_set(&L->outstanding, entry->predicted, key, frame, offset);
            lane_push(s, entry->predicted, 1, a->block, (Tag){key, frame, offset});
        } else {
            L->low_conf++;
        }
        ltc_advance(L, frame, offset);
    }
    int64_t hs = map_find(&L->heads, (int64_t)key);
    if (hs >= 0) {
        int64_t index = L->heads.v1[hs];
        int64_t slot = ltc_frame(L, index);
        if (slot >= 0 && L->frames[slot].head == (int64_t)key) {
            L->head_matches++;
            ltc_stream(L, index, 0, L->window);
        }
    }
    return 0;
}

static void ltc_used(Lane *s, int64_t block, const Tag *tag) { ltc_feedback(s, block, tag, 1); }
static void ltc_unused(Lane *s, int64_t block, const Tag *tag) { ltc_feedback(s, block, tag, -1); }

static void ltc_installed(Lane *s, int64_t block, int has_evicted, int64_t evicted) {
    if (has_evicted) ltc_evict_record((Ltc *)s, evicted, block);
}

/* out: 0-15 as lane_dump plus 20/21 history evictions/cold, 64-70
 *      LTCordsStats, 71-77 SequenceStorageStats, 78-81
 *      SignatureCacheStats (lookups, hits, inserts, replacements).
 * spill goes unused: LT-cords fills at most one block per access. */
static void ltc_dump(Lane *s, int64_t *out) {
    Ltc *L = (Ltc *)s;
    lane_dump(s, out);
    out[20] = L->hist.evictions;
    out[21] = L->hist.cold;
    int64_t *lt = out + 64;
    lt[0] = L->created;
    lt[1] = L->head_matches;
    lt[2] = s->issued; /* signature-cache predictions */
    lt[3] = L->low_conf;
    lt[4] = L->streamed;
    lt[5] = L->conf_inc;
    lt[6] = L->conf_dec;
    lt[7] = L->recorded;
    lt[8] = L->frames_allocated;
    lt[9] = L->frames_overwritten;
    lt[10] = L->fetched;
    lt[11] = L->bytes_written;
    lt[12] = L->bytes_read;
    lt[13] = L->conf_updates;
    lt[14] = L->sc_lookups;
    lt[15] = L->sc_hits;
    lt[16] = L->sc_inserts;
    lt[17] = L->sc_replacements;
}

static void ltc_release(Lane *s) {
    Ltc *L = (Ltc *)s;
    map_free(&L->outstanding);
    map_free(&L->frame_slots);
    map_free(&L->heads);
    map_free(&L->sc_sets);
    free(L->sigs);
    free(L->frames);
    free(L->ways);
    free(L->set_fill);
    free(L->set_next);
    free(L->pending);
    free(L->recent);
}

/* ---------------------------------------- GHB PC/DC and stride replay
 * Both predictors answer a demand access with up to `degree` commands
 * carrying no victim and the PC as tag; their only feedback is the base
 * Prefetcher's use and unused-eviction counts, so they have no other
 * hooks. */

/* Append the command for an aligned target, unless it is the demand
 * block or already listed. */
static void push_target(Lane *s, int64_t aligned, const Access *a) {
    if (aligned == a->block) return;
    for (int64_t j = 0; j < s->ncmds; j++)
        if (s->cmds[j].address == aligned) return;
    lane_push(s, aligned, 0, 0, (Tag){(uint64_t)a->pc, 0, 0});
}

typedef struct {
    Lane lane;
    Lru index; /* pc -> newest serial, in LRU order */
    int64_t *address, *pc, *link, *stored; /* the ring's slots */
    int64_t *hist, *deltas;
    int64_t entries, index_entries, degree, depth, block_mask, serial;
    int64_t inserted, correlations, stride_fallbacks, too_short;
} Ghb;

/* _delta_correlate over hist[0, len) (most recent first), adding the
 * aligned targets; 2 when a prediction reaches MAX_ADDRESS. */
static int ghb_predict(Ghb *G, int64_t len, const Access *a) {
    if (len < 3) {
        G->too_short++;
        return 0;
    }
    /* The oldest-first delta stream. */
    int64_t nd = len - 1, *d = G->deltas;
    for (int64_t i = 0; i < nd; i++) d[i] = G->hist[len - 2 - i] - G->hist[len - 1 - i];
    int64_t from = -1, count = G->degree;
    for (int64_t i = nd - 3; i > 0; i--) {
        if (d[i - 1] == d[nd - 2] && d[i] == d[nd - 1]) {
            from = i + 1;
            count = min64(count, nd - from);
            G->correlations++;
            break;
        }
    }
    if (from < 0) {
        /* Repeat a stable last delta, else predict nothing. */
        if (d[nd - 1] == 0 || d[nd - 1] != d[nd - 2]) return 0;
        G->stride_fallbacks++;
    }
    int64_t current = G->hist[0];
    for (int64_t j = 0; j < count; j++) {
        int64_t delta = from < 0 ? d[nd - 1] : d[from + j];
        if (delta >= MAX_ADDRESS - current) return 2;
        current += delta;
        if (current < 0) break;
        push_target(&G->lane, current & G->block_mask, a);
    }
    return 0;
}

/* cfg: 0-9 hierarchy (see hier_init), 10 ghb_block_mask,
 *      11 index_table_entries, 12 ghb_entries, 13 degree,
 *      14 history_depth */
static void ghb_init(Lane *s, const OpenArgs *a) {
    Ghb *G = (Ghb *)s;
    const int64_t *cfg = a->cfg;
    hier_init(&s->fail, &s->h, a);
    G->block_mask = cfg[10];
    G->index_entries = cfg[11];
    G->entries = cfg[12];
    G->degree = cfg[13];
    G->depth = cfg[14];
    /* At most n misses: the ring, the index table and a chain never hold more. */
    int64_t ring = min64(G->entries, s->n) + 1;
    G->address = (int64_t *)xzalloc(&s->fail, (size_t)ring * sizeof(int64_t));
    G->pc = (int64_t *)xzalloc(&s->fail, (size_t)ring * sizeof(int64_t));
    G->link = (int64_t *)xzalloc(&s->fail, (size_t)ring * sizeof(int64_t));
    G->stored = (int64_t *)xzalloc(&s->fail, (size_t)ring * sizeof(int64_t));
    int64_t chain = min64(G->depth, ring);
    G->hist = (int64_t *)xalloc(&s->fail, NULL, (size_t)chain * sizeof(int64_t));
    G->deltas = (int64_t *)xalloc(&s->fail, NULL, (size_t)chain * sizeof(int64_t));
    int64_t pool = min64(G->index_entries, s->n) + 1;
    lru_init(&s->fail, &G->index, pool, pool);
}

/* GHBPrefetcher.on_access: a miss enters the ring and its PC's chain
 * predicts. */
static int ghb_access(Lane *s, const Access *a) {
    Ghb *G = (Ghb *)s;
    if (a->code) return 0;
    int64_t block = a->block, p = a->pc;

    /* _insert_miss: the index table maps the PC to its newest serial. */
    int64_t serial = ++G->serial, previous = 0;
    Lru *it = &G->index;
    int64_t found = lru_hfind(it, (uint64_t)p);
    if (found >= 0) {
        int32_t node = it->hnode[found];
        previous = it->npacked[node];
        it->npacked[node] = serial;
        lru_touch(it, node);
    } else {
        if (it->count >= G->index_entries) lru_evict_oldest(it);
        lru_insert(it, (uint64_t)p, serial);
    }
    int64_t top = (serial - 1) % G->entries, slot = top;
    G->address[slot] = block;
    G->pc[slot] = p;
    G->link[slot] = previous;
    G->stored[slot] = serial;
    G->inserted++;

    /* _pc_history: serials at or below the floor were overwritten.  A
     * chain serial lies in (floor, serial), within one lap below top. */
    int64_t len = 1, current = previous, floor = serial - G->entries;
    G->hist[0] = block;
    while (current > floor && current > 0 && len < G->depth) {
        slot = top - (serial - current);
        if (slot < 0) slot += G->entries;
        if (G->stored[slot] != current || G->pc[slot] != p) break;
        G->hist[len++] = G->address[slot];
        current = G->link[slot];
    }
    return ghb_predict(G, len, a);
}

/* out: 0-15, 22, 23 as lane_dump plus 16-19 GHBStats (misses_inserted,
 *      delta_correlations, stride_fallbacks, chains_too_short). */
static void ghb_dump(Lane *s, int64_t *out) {
    Ghb *G = (Ghb *)s;
    lane_dump(s, out);
    out[16] = G->inserted;
    out[17] = G->correlations;
    out[18] = G->stride_fallbacks;
    out[19] = G->too_short;
}

static void ghb_release(Lane *s) {
    Ghb *G = (Ghb *)s;
    lru_free(&G->index);
    free(G->address);
    free(G->pc);
    free(G->link);
    free(G->stored);
    free(G->hist);
    free(G->deltas);
}

typedef struct {
    Lane lane;
    Lru table; /* pc -> last address, in LRU order */
    int64_t *stride, *conf; /* by table node */
    int64_t entries, degree, threshold, block_mask;
} Stride;

/* cfg: 0-9 hierarchy (see hier_init), 10 stride_block_mask,
 *      11 table_entries, 12 degree, 13 train_threshold */
static void stride_init(Lane *s, const OpenArgs *a) {
    Stride *S = (Stride *)s;
    const int64_t *cfg = a->cfg;
    hier_init(&s->fail, &s->h, a);
    S->block_mask = cfg[10];
    S->entries = cfg[11];
    S->degree = cfg[12];
    S->threshold = cfg[13];
    /* Sized to its bound, the pool never grows: stride and conf stay per node. */
    int64_t pool = min64(S->entries, s->n) + 1;
    lru_init(&s->fail, &S->table, pool, pool);
    S->stride = (int64_t *)xalloc(&s->fail, NULL, (size_t)pool * sizeof(int64_t));
    S->conf = (int64_t *)xalloc(&s->fail, NULL, (size_t)pool * sizeof(int64_t));
}

/* StridePrefetcher.on_access: the RPT trains on every access (every
 * probe refreshes its LRU position); a trained miss predicts. */
static int stride_access(Lane *s, const Access *a) {
    Stride *S = (Stride *)s;
    Lru *t = &S->table;
    int64_t address = a->address;
    int64_t found = lru_hfind(t, (uint64_t)a->pc);
    if (found < 0) {
        if (t->count >= S->entries) lru_evict_oldest(t);
        lru_insert(t, (uint64_t)a->pc, address);
        S->stride[t->tail] = 0;
        S->conf[t->tail] = 0;
        return 0;
    }
    int32_t node = t->hnode[found];
    lru_touch(t, node);
    int64_t stride = address - t->npacked[node];
    if (stride == S->stride[node] && stride != 0) {
        if (S->conf[node] < 3) S->conf[node]++;
    } else {
        S->conf[node] = 0;
        S->stride[node] = stride;
    }
    t->npacked[node] = address;
    if (a->code || S->conf[node] < S->threshold) return 0;

    int64_t target = address;
    for (int64_t k = 0; k < S->degree; k++) {
        if (stride >= MAX_ADDRESS - target) return 2;
        target += stride;
        if (target < 0) break;
        push_target(s, target & S->block_mask, a);
    }
    return 0;
}

static void stride_release(Lane *s) {
    Stride *S = (Stride *)s;
    lru_free(&S->table);
    free(S->stride);
    free(S->conf);
}

/* ------------------------------------------------ no-prefetcher replay
 * With the NullPrefetcher the main and baseline hierarchies receive
 * identical streams, so one simulated L1/L2 pair stands for both; the
 * caller mirrors the counters.  pc and spill go unused.
 * cfg: slots 0-8 as hier_init.  out: 0 l1_hits, 1 l2_hits, 2 l2_misses,
 * per-cache stats at 24 (L1) and 34 (L2).  col: as hier_init (every L1
 * miss is a baseline miss).  The pair is the Hier's main L1 and own L2.
 * A co-run lane cannot mirror (other cores' prefetches reach its shared
 * main L2): its "null" kind runs lane_run without hooks and dumps as
 * lane_dump. */
static void baseline_init(Lane *s, const OpenArgs *a) {
    Hier *h = &s->h;
    cache_init(&s->fail, &h->main_l1, a->cfg, a->cfg[8]);
    cache_init(&s->fail, &h->own_l2[0], a->cfg + 4, a->cfg[8]);
    h->col = a->col;
}

static int baseline_run(Lane *s, int64_t start, int64_t stop) {
    Hier *h = &s->h;
    const int64_t *addr = s->addr;
    int64_t dump;
    int dummy_h, dummy_u;
    for (int64_t i = start; i < stop; i++) {
        int64_t address = addr[i];
        int outcome = 0;
        if (cache_access(&h->main_l1, address, s->is_write[i], &dump, &dummy_h, &dummy_u)) {
            h->main_l1_hits++;
        } else if (cache_access(&h->own_l2[0], address, 0, &dump, &dummy_h, &dummy_u)) {
            h->main_l2_hits++;
            outcome = 1 | 4;
        } else {
            h->main_l2_misses++;
            outcome = 2 | 4;
        }
        if (h->col) h->col[i] = (int8_t)outcome;
    }
    return 0;
}

static void baseline_dump(Lane *s, int64_t *out) {
    Hier *h = &s->h;
    out[0] = h->main_l1_hits;
    out[1] = h->main_l2_hits;
    out[2] = h->main_l2_misses;
    cache_dump_stats(&h->main_l1, out + 24);
    cache_dump_stats(&h->own_l2[0], out + 34);
}

/* ------------------------------------------------------- entry points */

/* By the kind number repro_open takes: repro.cache.vector.KERNELS.
 * size, init, run, access, used, unused, installed, dump, release */
static const Kind KINDS[] = {
    {sizeof(Lane), baseline_init, baseline_run, NULL, NULL, NULL, NULL, baseline_dump, NULL},
    {sizeof(Dbcp), dbcp_init, lane_run, dbcp_access, dbcp_used, dbcp_unused, dbcp_installed,
     dbcp_dump, dbcp_release},
    {sizeof(Ltc), ltc_init, lane_run, ltc_access, ltc_used, ltc_unused, ltc_installed, ltc_dump,
     ltc_release},
    {sizeof(Ghb), ghb_init, lane_run, ghb_access, NULL, NULL, NULL, ghb_dump, ghb_release},
    {sizeof(Stride), stride_init, lane_run, stride_access, NULL, NULL, NULL, lane_dump,
     stride_release},
    {sizeof(Lane), hier_only_init, lane_run, NULL, NULL, NULL, NULL, lane_dump, NULL},
};

/* A kind's state over n accesses (cfg, col and spill as the kind's
 * comments say); NULL when even the state cannot be allocated.  A state
 * whose addresses leave the kernel range or whose set-up ran out of
 * memory is dead from the start: repro_run reports its rc. */
void *repro_open(int64_t kind, int64_t n, const int64_t *pc, const int64_t *addr,
                 const int8_t *is_write, const int64_t *cfg, int8_t *col,
                 int64_t *spill, void *shared_main, void *shared_base,
                 int64_t core) {
    const Kind *k = &KINDS[kind];
    Lane *s = (Lane *)calloc(1, k->size);
    if (!s) return NULL;
    live_add(1);
    s->kind = k;
    s->n = n;
    s->pc = pc;
    s->addr = addr;
    s->is_write = is_write;
    OpenArgs a = {cfg, col, spill, (SharedL2 *)shared_main, (SharedL2 *)shared_base, core};
    if (!addresses_in_range(n, addr))
        s->dead = 2;
    else if (setjmp(s->fail) == 0)
        k->init(s, &a);
    else
        s->dead = 1;
    return s;
}

/* Replay accesses [start, stop): 0, 1 (out of memory), 2 (an address or
 * prediction outside the kernel range) or 3 (not the next chunk).  Each
 * call re-arms the state's jmp_buf; after rc 1 or 2 the state is dead
 * and every later call returns that rc. */
int repro_run(void *state, int64_t start, int64_t stop) {
    Lane *s = (Lane *)state;
    if (s->dead) return s->dead;
    if (start != s->pos || stop < start || stop > s->n) return 3;
    if (s->h.shared) s->h.shared->owners.fail = &s->fail;
    if (setjmp(s->fail)) {
        s->dead = 1;
        return 1;
    }
    int rc = s->kind->run(s, start, stop);
    s->pos = stop;
    s->dead = rc;
    return rc;
}

/* Dump the counters into out (NULL: discard them; a dead state dumps
 * nothing) and free the state. */
void repro_close(void *state, int64_t *out) {
    Lane *s = (Lane *)state;
    if (out) {
        memset(out, 0, 96 * sizeof(int64_t));
        if (!s->dead) s->kind->dump(s, out);
    }
    hier_free(&s->h);
    free(s->cmds);
    if (s->kind->release) s->kind->release(s);
    free(s);
    live_add(-1);
}

static void shared_free(SharedL2 *s) {
    cache_free(&s->cache);
    map_free(&s->owners);
    free(s->prefetch_cross);
    free(s);
}

static int shared_init(SharedL2 *s, const int64_t *cfg, int64_t ncores) {
    jmp_buf fail;
    if (setjmp(fail)) return 1;
    cache_init(&fail, &s->cache, cfg + 4, cfg[8]);
    map_init(&s->owners, &fail);
    s->owners.fail = NULL; /* each repro_run points it at the lane's */
    s->prefetch_cross = (int64_t *)xzalloc(&fail, (size_t)ncores * sizeof(int64_t));
    s->ncores = ncores;
    return 0;
}

/* One shared L2 (cfg: slots 0-8 as hier_init) for ncores lanes; NULL
 * when out of memory. */
void *repro_shared_open(const int64_t *cfg, int64_t ncores) {
    SharedL2 *s = (SharedL2 *)calloc(1, sizeof(SharedL2));
    if (!s) return NULL;
    if (shared_init(s, cfg, ncores)) {
        shared_free(s);
        return NULL;
    }
    live_add(1);
    return s;
}

/* The number of blocks in the ownership map. */
int64_t repro_shared_owners(void *shared) {
    return ((SharedL2 *)shared)->owners.count;
}

/* Dump and free: out 0-9 the cache's stats block, 10 cross-core
 * evictions, 11.. the per-core prefetch cross-core evictions; keys and
 * cores (NULL, or repro_shared_owners entries each) the ownership map.
 * out NULL discards everything. */
void repro_shared_close(void *shared, int64_t *out, int64_t *keys, int64_t *cores) {
    SharedL2 *s = (SharedL2 *)shared;
    if (out) {
        cache_dump_stats(&s->cache, out);
        out[10] = s->cross;
        for (int64_t c = 0; c < s->ncores; c++) out[11 + c] = s->prefetch_cross[c];
        int64_t j = 0;
        for (uint64_t i = 0; keys && i <= s->owners.mask; i++) {
            if (!s->owners.used[i]) continue;
            keys[j] = s->owners.keys[i];
            cores[j++] = s->owners.v1[i];
        }
    }
    shared_free(s);
    live_add(-1);
}

/* ------------------------------------------------------ timing model walk
 * repro.timing.model.OutOfOrderTimingModel driven as
 * repro.sim.timing.settle_timing drives it: observe(icount[i], level of
 * col[i]), then one add_bus_traffic of a block per prefetch fill of the
 * access, the signature traffic once at the end, then finalize.  Every
 * double operation is the model's, in its order (compiled without FMA
 * contraction), so the breakdown matches CPython bit for bit.  The
 * outstanding-miss deque is a ring of effective_mlp slots (fewer when
 * the column is shorter): a miss is appended only after the MSHR limit
 * retired the oldest of a full one.
 * p: 0 core_ipc, 1 L2 hit latency, 2 memory block latency, 3 the demand
 * block's bus cycles, 4 one prefetch fill's bus cycles, 5 the signature
 * traffic's bus cycles (0.0 for an add_bus_traffic the model skips:
 * adding +0.0 to the non-negative bus sums is exact).  q: 0 rob_entries,
 * 1 effective_mlp, 2 serialize misses, 3 perfect L1.
 * iout: instructions, memory_references, l1_hits, l2_hits,
 * memory_accesses.  fout: total_cycles, bus_busy_cycles,
 * rob_stall_cycles, mshr_stall_cycles.
 * rc: 0, 1 out of memory, 2 an int64 overflow (the caller walks in
 * Python), 3 ncol != n, 4 the spill list ran out, 5 spill entries left
 * over, 6 an outcome byte with level code 3. */
typedef struct {
    int64_t icount;
    double complete;
} Miss;

/* The ring slot after k. */
static inline int64_t ring_next(int64_t k, int64_t cap) {
    return ++k == cap ? 0 : k;
}

/* _retire_completed: drop the oldest misses complete by `before`. */
static inline void retire_completed(const Miss *ring, int64_t cap, int64_t *head, int64_t *count,
                                    double before) {
    while (*count && ring[*head].complete <= before) {
        *head = ring_next(*head, cap);
        --*count;
    }
}

int repro_timing(int64_t n, const int64_t *icount, int64_t ncol, const int8_t *col,
                 int64_t nspill, const int64_t *spill, const double *p, const int64_t *q,
                 int64_t *iout, double *fout) {
    if (ncol != n) return 3;
    const double core_ipc = p[0], l2_latency = p[1], memory_latency = p[2];
    const double block_cycles = p[3], fill_cycles = p[4];
    const int64_t rob = q[0], mlp = q[1];
    const int serialize = q[2] != 0, perfect = q[3] != 0;
    const int64_t cap = mlp < n ? mlp : (n ? n : 1);
    Miss *ring = (Miss *)malloc((size_t)cap * sizeof(Miss));
    if (!ring) return 1;
    int64_t head = 0, count = 0, used = 0, last_icount = 0;
    int64_t instructions = 0, refs = 0, l1_hits = 0, l2_hits = 0, memory = 0;
    double dispatch_cycle = 0.0, last_miss_complete = 0.0, bus_free = 0.0;
    double bus_busy = 0.0, rob_stall = 0.0, mshr_stall = 0.0;
    int rc = 0;
    for (int64_t i = 0; i < n; i++) {
        /* observe */
        int64_t ic = icount[i], delta = 0;
        if (ic > last_icount && __builtin_sub_overflow(ic, last_icount, &delta)) { rc = 2; break; }
        last_icount = ic;
        if (__builtin_add_overflow(instructions, delta, &instructions)) { rc = 2; break; }
        refs++;
        double dispatch = dispatch_cycle + (double)delta / core_ipc;

        int64_t limit;
        double rob_limit = 0.0;
        if (!__builtin_sub_overflow(ic, rob, &limit)) {
            for (int64_t k = 0, slot = head; k < count; k++, slot = ring_next(slot, cap)) {
                const Miss *m = &ring[slot];
                if (m->icount <= limit && m->complete > rob_limit) rob_limit = m->complete;
            }
        }
        if (rob_limit > dispatch) {
            rob_stall += rob_limit - dispatch;
            dispatch = rob_limit;
        }
        retire_completed(ring, cap, &head, &count, dispatch);

        int outcome = col[i], level = outcome & 3;
        if (level == 3) { rc = 6; break; }
        if (perfect) level = 0;
        if (level == 0) {
            l1_hits++;
            dispatch_cycle = dispatch;
        } else {
            double mshr_limit = count < mlp ? 0.0 : ring[head].complete;
            if (mshr_limit > dispatch) {
                mshr_stall += mshr_limit - dispatch;
                dispatch = mshr_limit;
                retire_completed(ring, cap, &head, &count, dispatch);
            }
            double start = dispatch, complete;
            if (serialize && last_miss_complete > start) start = last_miss_complete;
            if (level == 1) {
                l2_hits++;
                complete = start + l2_latency;
            } else {
                memory++;
                if (bus_free > start) start = bus_free;
                bus_free = start + block_cycles;
                bus_busy += block_cycles;
                complete = start + memory_latency;
            }
            /* Unreachable with ordered doubles; a NaN could keep the ring full. */
            if (count == cap) { rc = 2; break; }
            ring[head + count < cap ? head + count : head + count - cap] = (Miss){ic, complete};
            count++;
            last_miss_complete = complete;
            dispatch_cycle = dispatch;
        }

        /* the access's prefetch fills, one bus charge each */
        int64_t fills = outcome >> 3;
        if (fills == FILL_SPILL) {
            if (used == nspill) { rc = 4; break; }
            fills = spill[used++];
        }
        for (int64_t k = 0; k < fills; k++) {
            bus_free += fill_cycles;
            bus_busy += fill_cycles;
        }
    }
    if (!rc && used != nspill) rc = 5;
    if (!rc) {
        bus_free += p[5];
        bus_busy += p[5];
        /* finalize */
        double final_cycle = dispatch_cycle;
        if (count) {
            double latest = ring[head].complete;
            for (int64_t k = 1, slot = ring_next(head, cap); k < count; k++, slot = ring_next(slot, cap))
                if (ring[slot].complete > latest) latest = ring[slot].complete;
            if (latest > final_cycle) final_cycle = latest;
        }
        if (last_miss_complete > final_cycle) final_cycle = last_miss_complete;
        iout[0] = instructions ? instructions : refs;
        iout[1] = refs;
        iout[2] = l1_hits;
        iout[3] = l2_hits;
        iout[4] = memory;
        fout[0] = 1.0 > final_cycle ? 1.0 : final_cycle;
        fout[1] = bus_busy;
        fout[2] = rob_stall;
        fout[3] = mshr_stall;
    }
    free(ring);
    return rc;
}
"""


#: The lane kinds, numbered as ``repro_open`` takes them.  A kind is the
#: ``kernel-<kind>`` tier, except ``null``: the no-prefetcher co-run
#: lane, on the ``kernel-baseline`` tier.
KERNELS = ("baseline", "dbcp", "ltcords", "ghb", "stride", "null")


class VectorKernel:
    """ctypes handle over the compiled kernel's entry points.

    A lane is ``open(kind, n, pc, addr, is_write, cfg, col, spill,
    shared_main, shared_base, core)`` → handle, ``run(handle, start,
    stop)`` → rc per chunk, then ``close(handle, out)``; a co-run's
    shared L2s are ``shared_open(cfg, ncores)`` → handle,
    ``shared_owners(handle)`` and ``shared_close(handle, out, keys,
    cores)``.  ``live_states()`` counts the open handles of both.
    ``timing(n, icount, ncol, col, nspill, spill, p, q, iout, fout)`` → rc
    is the stateless timing-model walk.
    """

    def __init__(self, library: ctypes.CDLL) -> None:
        self.library = library
        i64p = ctypes.POINTER(ctypes.c_int64)
        i8p = ctypes.POINTER(ctypes.c_int8)
        f64p = ctypes.POINTER(ctypes.c_double)
        handle, i64 = ctypes.c_void_p, ctypes.c_int64
        signatures = {
            "open": ([i64, i64, i64p, i64p, i8p, i64p, i8p, i64p, handle, handle, i64], handle),
            "run": ([handle, i64, i64], ctypes.c_int),
            "close": ([handle, i64p], None),
            "shared_open": ([i64p, i64], handle),
            "shared_owners": ([handle], i64),
            "shared_close": ([handle, i64p, i64p, i64p], None),
            "live_states": ([], i64),
            "timing": ([i64, i64p, i64, i8p, i64, i64p, f64p, i64p, i64p, f64p], ctypes.c_int),
        }
        for name, (argtypes, restype) in signatures.items():
            entry = getattr(library, f"repro_{name}")
            entry.argtypes = argtypes
            entry.restype = restype
            setattr(self, name, entry)


def kernel_cache_dir() -> str:
    """Directory holding compiled kernel shared objects."""
    env = os.environ.get("REPRO_KERNEL_CACHE")
    if env:
        return env
    home = os.path.expanduser("~")
    if home and home != "~":
        return os.path.join(home, ".cache", "repro", "kernels")
    return os.path.join(tempfile.gettempdir(), "repro-kernels")


def _find_compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


#: The kernel's compiler flags.  -O1: the kernel is as fast as at -O2
#: and compiles in about two thirds of the time, which every cold set-up
#: pays.  -ffp-contract=off: no ``a*b+c`` may become a fused multiply-add
#: (GCC's default on aarch64), so the timing walk rounds every double
#: operation as CPython does.
COMPILE_FLAGS = ("-O1", "-ffp-contract=off", "-shared", "-fPIC")

#: Extra compiler flags under ``REPRO_KERNEL_SANITIZE=1``.  The process
#: must then load ``libasan`` first (``LD_PRELOAD``).
SANITIZE_FLAGS = (
    "-fsanitize=address,undefined", "-fno-sanitize-recover=all", "-fno-omit-frame-pointer", "-g",
)


def _sanitize() -> bool:
    return bool(os.environ.get("REPRO_KERNEL_SANITIZE"))


def _compile_kernel(so_path: str) -> bool:
    """Compile the embedded source to ``so_path``; ``False`` on any failure."""
    compiler = _find_compiler()
    if compiler is None:
        return False
    directory = os.path.dirname(so_path)
    try:
        os.makedirs(directory, exist_ok=True)
        fd, c_path = tempfile.mkstemp(suffix=".c", dir=directory)
        with os.fdopen(fd, "w") as handle:
            handle.write(KERNEL_SOURCE)
        tmp_so = c_path[:-2] + ".so"
        try:
            proc = subprocess.run(
                [compiler, *COMPILE_FLAGS, *(SANITIZE_FLAGS if _sanitize() else ()),
                 "-o", tmp_so, c_path],
                capture_output=True,
                timeout=120,
            )
            if proc.returncode != 0:
                return False
            # Atomic publish: concurrent compiles race benignly.
            os.replace(tmp_so, so_path)
            return True
        finally:
            for leftover in (c_path, tmp_so):
                try:
                    os.unlink(leftover)
                except OSError:
                    pass
    except (OSError, subprocess.SubprocessError):
        return False


_KERNEL: Optional[VectorKernel] = None
#: Why :func:`load_kernel` returned ``None`` (``"kill-switch"`` or
#: ``"no-compiler"``), remembered for the process; ``None`` until a failure.
_KERNEL_FAILED: Optional[str] = None


def load_kernel() -> Optional[VectorKernel]:
    """The compiled kernel, building it on first use; ``None`` if unavailable.

    Failures (no compiler, failed compile, unloadable object, or the
    ``REPRO_NO_VECTOR_KERNEL`` kill-switch) are remembered for the
    process, so the fallback decision is paid once.
    """
    global _KERNEL, _KERNEL_FAILED
    if _KERNEL is not None:
        return _KERNEL
    if _KERNEL_FAILED:
        return None
    if os.environ.get("REPRO_NO_VECTOR_KERNEL"):
        _KERNEL_FAILED = "kill-switch"
        return None
    digest = hashlib.sha256(
        " ".join((KERNEL_SOURCE, *COMPILE_FLAGS)).encode("utf-8")
    ).hexdigest()[:16]
    suffix = "_sanitized" if _sanitize() else ""
    so_path = os.path.join(kernel_cache_dir(), f"repro_vector_{digest}{suffix}.so")
    if not os.path.exists(so_path) and not _compile_kernel(so_path):
        _KERNEL_FAILED = "no-compiler"
        return None
    try:
        library = ctypes.CDLL(so_path)
        _KERNEL = VectorKernel(library)
    except OSError:
        _KERNEL_FAILED = "no-compiler"
        return None
    return _KERNEL


def unavailable_reason() -> Optional[str]:
    """Why :func:`load_kernel` returned ``None``, or ``None`` if it did not."""
    return _KERNEL_FAILED
