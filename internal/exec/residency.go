package exec

import (
	"fmt"
	"sort"
	"sync"

	"pimdnn/internal/host"
	"pimdnn/internal/metrics"
)

// Weight residency — the scatter-once, serve-many fix.
//
// The serving loop runs the image-per-DPU mapping, which broadcast the
// full weight matrix on every forward pass even though the weights never
// change between requests. The WeightCache turns that broadcast into
// MRAM-resident state: a runner reserves an arena range per (model,
// layer), delivers the payload once, and subsequent dispatches skip the
// transfer entirely for every DPU whose copy is still current. The only
// resident payload is a Broadcast (Engine.broadcastResident); no
// per-shard stream writes the arena, re-dispatch included.
//
// Correctness under faults hinges on the per-DPU generation tokens. A
// delivery (full broadcast or per-DPU catch-up) stamps the DPU with the
// entry's generation; anything that can leave a DPU holding different
// bytes — a broadcast that missed it, an eviction that reassigned the
// arena range, or a content change caught by the hash guard — clears or
// outdates the stamp, so the next dispatch re-delivers before the DPU
// computes. This is the same stale-model hazard the eBNN deploy
// broadcast guards against, generalized to per-DPU granularity.
//
// Capacity is modeled: the cache owns one MRAM arena symbol of a fixed
// byte budget on every DPU, and reserving space for a new entry evicts
// whole least-recently-used models (never the one being reserved for)
// until the range fits. Evicted entries lose their arena range and all
// their generation stamps; re-use re-reserves and re-delivers.

// ArenaSymbol is the MRAM symbol backing a WeightCache's arena.
const ArenaSymbol = "exec_w_arena"

// WeightCache arbitrates a modeled MRAM weight budget across models on
// one DPU system. Safe for use by multiple runners sharing the System
// (guarded by one mutex); the per-dispatch hot path is a handful of
// token compares.
type WeightCache struct {
	mu   sync.Mutex
	sys  *host.System
	ref  host.SymbolRef
	base int64 // arena base: absolute MRAM offset on every DPU
	cap  int64
	nd   int

	clock  uint64 // LRU tick
	genSeq uint64 // global generation counter (never reused)
	models map[string]*ResidentModel
	free   []arenaSpan // sorted, coalesced free ranges

	met *cacheMetrics
}

// arenaSpan is one free arena range [off, off+size).
type arenaSpan struct{ off, size int64 }

// cacheMetrics is the cache's instrument set; nil when the System has
// no registry (all updates gated on one nil check).
type cacheMetrics struct {
	delivered    *metrics.Counter // weight bytes actually transferred
	hits         *metrics.Counter // dispatches that skipped delivery entirely
	misses       *metrics.Counter // dispatches that delivered (full or partial)
	redeliveries *metrics.Counter // per-DPU catch-up transfers
	evictions    *metrics.Counter // models evicted for space
	resident     *metrics.Gauge   // bytes currently reserved
}

// NewWeightCache allocates the weight arena (capacity bytes on every
// DPU) and returns the manager. capacity bounds the total per-DPU bytes
// of arena-backed resident entries; it must be positive and 8-byte
// aligned to keep every entry's base DMA-alignable.
func NewWeightCache(sys *host.System, capacity int64) (*WeightCache, error) {
	if capacity < 8 {
		return nil, fmt.Errorf("exec: weight cache capacity %d too small", capacity)
	}
	if capacity%8 != 0 {
		return nil, fmt.Errorf("exec: weight cache capacity %d not 8-byte aligned", capacity)
	}
	if err := sys.AllocMRAM(ArenaSymbol, capacity); err != nil {
		return nil, fmt.Errorf("exec: weight cache: %w", err)
	}
	ref, err := sys.Resolve(ArenaSymbol)
	if err != nil {
		return nil, fmt.Errorf("exec: weight cache: %w", err)
	}
	sym, _ := sys.DPU(0).Symbol(ArenaSymbol)
	c := &WeightCache{
		sys:    sys,
		ref:    ref,
		base:   sym.Offset,
		cap:    capacity,
		nd:     sys.NumDPUs(),
		models: make(map[string]*ResidentModel),
		free:   []arenaSpan{{0, capacity}},
	}
	if reg := sys.MetricsRegistry(); reg != nil {
		c.met = &cacheMetrics{
			delivered:    reg.Counter("pim_wcache_delivered_bytes_total"),
			hits:         reg.Counter("pim_wcache_hits_total"),
			misses:       reg.Counter("pim_wcache_misses_total"),
			redeliveries: reg.Counter("pim_wcache_redeliveries_total"),
			evictions:    reg.Counter("pim_wcache_evictions_total"),
			resident:     reg.Gauge("pim_wcache_resident_bytes"),
		}
	}
	return c, nil
}

// Capacity returns the modeled per-DPU arena budget in bytes.
func (c *WeightCache) Capacity() int64 { return c.cap }

// ResidentBytes returns the per-DPU arena bytes currently reserved.
func (c *WeightCache) ResidentBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, m := range c.models {
		n += m.bytes
	}
	return n
}

// Models returns the resident model names, least recently used first —
// the eviction order. For tests and introspection.
func (c *WeightCache) Models() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.models))
	for name := range c.models {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		return c.models[names[i]].lastUse < c.models[names[j]].lastUse
	})
	return names
}

// Model returns (creating if needed) the named model's resident set.
func (c *WeightCache) Model(name string) *ResidentModel {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.models[name]
	if m == nil {
		m = &ResidentModel{c: c, name: name, entries: make(map[int]*ResidentEntry)}
		c.models[name] = m
	}
	c.clock++
	m.lastUse = c.clock
	return m
}

// ResidentModel is one model's resident weight set: a group of entries
// that ages and is evicted as a unit.
type ResidentModel struct {
	c       *WeightCache
	name    string
	entries map[int]*ResidentEntry
	bytes   int64
	lastUse uint64
}

// Name returns the model name.
func (m *ResidentModel) Name() string { return m.name }

// touch advances the model's LRU stamp. Caller holds c.mu.
func (m *ResidentModel) touch() {
	m.c.clock++
	m.lastUse = m.c.clock
}

// Entry returns the model's resident entry for one layer key, reserving
// size bytes of per-DPU arena space on first use (evicting
// least-recently-used other models as needed). hash guards the content:
// a changed hash (retrained or hot-swapped weights under the same key)
// outdates every per-DPU stamp so the next dispatch re-delivers. The
// second return is false when size cannot fit even with every other
// model evicted — the caller falls back to the re-broadcast path.
func (m *ResidentModel) Entry(key int, size int64, hash uint64) (*ResidentEntry, bool) {
	c := m.c
	c.mu.Lock()
	defer c.mu.Unlock()
	m.touch()
	size = (size + 7) &^ 7
	if e := m.entries[key]; e != nil {
		if e.size == size {
			if e.hash != hash {
				e.hash = hash
				c.genSeq++
				e.gen = c.genSeq
			}
			return e, true
		}
		// Size changed: drop the old reservation and reallocate below.
		m.dropEntry(e)
	}
	if size > c.cap {
		return nil, false
	}
	off, ok := c.reserve(m, size)
	if !ok {
		return nil, false
	}
	c.genSeq++
	e := &ResidentEntry{
		c: c, m: m, key: key,
		ref: c.ref, off: off, abs: c.base + off,
		size: size, hash: hash,
		gen: c.genSeq,
		per: make([]uint64, c.nd),
	}
	m.entries[key] = e
	m.bytes += size
	if c.met != nil {
		c.met.resident.Set(c.residentLocked())
	}
	return e, true
}

// residentLocked sums reserved bytes. Caller holds c.mu.
func (c *WeightCache) residentLocked() int64 {
	var n int64
	for _, m := range c.models {
		n += m.bytes
	}
	return n
}

// reserve finds size bytes of arena, evicting LRU models other than
// keep until a first-fit range appears. Caller holds c.mu.
func (c *WeightCache) reserve(keep *ResidentModel, size int64) (int64, bool) {
	for {
		for i := range c.free {
			if c.free[i].size >= size {
				off := c.free[i].off
				c.free[i].off += size
				c.free[i].size -= size
				if c.free[i].size == 0 {
					c.free = append(c.free[:i], c.free[i+1:]...)
				}
				return off, true
			}
		}
		if !c.evictLRU(keep) {
			return 0, false
		}
	}
}

// evictLRU evicts the least-recently-used model other than keep.
// Caller holds c.mu.
func (c *WeightCache) evictLRU(keep *ResidentModel) bool {
	var victim *ResidentModel
	for _, m := range c.models {
		if m == keep || len(m.entries) == 0 {
			continue
		}
		if victim == nil || m.lastUse < victim.lastUse {
			victim = m
		}
	}
	if victim == nil {
		return false
	}
	for _, e := range victim.entries {
		victim.dropEntry(e)
	}
	if c.met != nil {
		c.met.evictions.Add(1)
		c.met.resident.Set(c.residentLocked())
	}
	return true
}

// dropEntry releases one entry: its arena range returns to the free
// list and its generation dies (any later entry at the same range gets
// a fresh generation, so stale stamps can never validate). Caller
// holds c.mu.
func (m *ResidentModel) dropEntry(e *ResidentEntry) {
	delete(m.entries, e.key)
	m.bytes -= e.size
	e.gen = 0 // stamps can never match again
	m.c.release(arenaSpan{e.off, e.size})
}

// release returns a span to the free list, keeping it sorted and
// coalesced. Caller holds c.mu.
func (c *WeightCache) release(s arenaSpan) {
	i := sort.Search(len(c.free), func(i int) bool { return c.free[i].off >= s.off })
	c.free = append(c.free, arenaSpan{})
	copy(c.free[i+1:], c.free[i:])
	c.free[i] = s
	// Coalesce with the right neighbor, then the left.
	if i+1 < len(c.free) && c.free[i].off+c.free[i].size == c.free[i+1].off {
		c.free[i].size += c.free[i+1].size
		c.free = append(c.free[:i+1], c.free[i+2:]...)
	}
	if i > 0 && c.free[i-1].off+c.free[i-1].size == c.free[i].off {
		c.free[i-1].size += c.free[i].size
		c.free = append(c.free[:i], c.free[i+1:]...)
	}
}

// ResidentEntry is one layer's resident weight payload: an arena range
// plus the per-DPU delivery stamps.
type ResidentEntry struct {
	c   *WeightCache
	m   *ResidentModel
	key int

	ref  host.SymbolRef
	off  int64 // offset within ref
	abs  int64 // absolute MRAM address (kernel parameter)
	size int64
	hash uint64

	gen uint64   // current content generation; 0 = dropped/evicted
	per []uint64 // per-DPU delivered generation
}

// Ref returns the symbol the payload lives in.
func (e *ResidentEntry) Ref() host.SymbolRef { return e.ref }

// Off returns the payload's offset within Ref.
func (e *ResidentEntry) Off() int64 { return e.off }

// Abs returns the payload's absolute MRAM address — what a kernel
// parameter block carries so the DPU program reads weights in place.
func (e *ResidentEntry) Abs() int64 { return e.abs }

// Size returns the reserved per-DPU byte footprint.
func (e *ResidentEntry) Size() int64 { return e.size }

// Live reports whether the entry still holds its reservation (false
// after eviction; the caller should re-request it from its model).
func (e *ResidentEntry) Live() bool {
	e.c.mu.Lock()
	defer e.c.mu.Unlock()
	return e.gen != 0
}

// Current reports whether DPU d holds the entry's current content.
func (e *ResidentEntry) Current(d int) bool {
	g := e.gen
	return g != 0 && e.per[d] == g
}

// markDelivered stamps DPU d with the current generation.
func (e *ResidentEntry) markDelivered(d int) { e.per[d] = e.gen }

// InvalidateDPU clears DPU d's stamp: the entry's range on that DPU may
// not hold the current content — a broadcast that faulted on d — so the
// next dispatch re-delivers before d computes with this entry again.
func (e *ResidentEntry) InvalidateDPU(d int) { e.per[d] = 0 }

// Touch advances the owning model's LRU stamp; dispatch paths call it
// once per use so eviction order tracks real traffic.
func (e *ResidentEntry) Touch() {
	e.c.mu.Lock()
	e.m.touch()
	e.c.mu.Unlock()
}

// noteHit/noteMiss/noteDelivered feed the cache instruments (nil-safe).
func (e *ResidentEntry) noteHit() {
	if e.c.met != nil {
		e.c.met.hits.Add(1)
	}
}

func (e *ResidentEntry) noteMiss() {
	if e.c.met != nil {
		e.c.met.misses.Add(1)
	}
}

func (e *ResidentEntry) noteDelivered(bytes int, catchup bool) {
	if e.c.met != nil {
		e.c.met.delivered.Add(uint64(bytes))
		if catchup {
			e.c.met.redeliveries.Add(1)
		}
	}
}
