package exec

// White-box WeightCache tests: arena reservation, LRU eviction order,
// free-list coalescing, and the generation-stamp protocol. The one
// end-to-end delivery path (broadcastResident) is exercised through the
// gemm batch tests and cmd/upmem-serve.

import (
	"testing"

	"pimdnn/internal/dpu"
	"pimdnn/internal/host"
	"pimdnn/internal/metrics"
)

func newCacheSys(t *testing.T, nd int) *host.System {
	t.Helper()
	sys, err := host.NewSystem(nd, host.DefaultConfig(dpu.O3))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys
}

func TestWeightCacheValidation(t *testing.T) {
	for _, capBytes := range []int64{0, -8, 4, 12} {
		sys := newCacheSys(t, 1)
		if _, err := NewWeightCache(sys, capBytes); err == nil {
			t.Errorf("NewWeightCache(capacity=%d) accepted", capBytes)
		}
	}
	sys := newCacheSys(t, 1)
	c, err := NewWeightCache(sys, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if c.Capacity() != 4096 {
		t.Errorf("Capacity() = %d, want 4096", c.Capacity())
	}
	if got := c.ResidentBytes(); got != 0 {
		t.Errorf("fresh cache ResidentBytes() = %d, want 0", got)
	}
}

// TestWeightCacheLRUEviction pins the eviction order: with the arena
// full, reserving for a new model evicts the least-recently-used other
// model — not the most recent, and never the reserving model itself.
func TestWeightCacheLRUEviction(t *testing.T) {
	sys := newCacheSys(t, 2)
	reg := metrics.NewRegistry()
	sys.EnableMetrics(reg)
	c, err := NewWeightCache(sys, 64)
	if err != nil {
		t.Fatal(err)
	}
	eb, ok := c.Model("b").Entry(0, 32, 0xb)
	if !ok {
		t.Fatal("model b entry rejected")
	}
	ea, ok := c.Model("a").Entry(0, 32, 0xa)
	if !ok {
		t.Fatal("model a entry rejected")
	}
	// b is oldest; touching a (already newest) must not change that.
	c.Model("a")
	if got := c.Models(); len(got) != 2 || got[0] != "b" || got[1] != "a" {
		t.Fatalf("Models() = %v, want [b a]", got)
	}
	// The arena is full: c's reservation must evict exactly b.
	ec, ok := c.Model("c").Entry(0, 32, 0xc)
	if !ok {
		t.Fatal("model c entry rejected despite evictable b")
	}
	if eb.Live() {
		t.Error("LRU model b still live after eviction")
	}
	if !ea.Live() || !ec.Live() {
		t.Error("a or c lost its reservation; only b should be evicted")
	}
	if got := c.ResidentBytes(); got != 64 {
		t.Errorf("ResidentBytes() = %d, want 64", got)
	}
	if got := reg.Counter("pim_wcache_evictions_total").Value(); got != 1 {
		t.Errorf("evictions counter = %d, want 1", got)
	}
	// A dead entry's stamps can never validate again.
	if eb.Current(0) || eb.Current(1) {
		t.Error("evicted entry reports a current DPU")
	}
}

// TestWeightCacheEvictCoalesce: a reservation larger than any single
// evicted range must keep evicting until the coalesced free list fits
// it — three 16-byte victims merge into one 48-byte span.
func TestWeightCacheEvictCoalesce(t *testing.T) {
	sys := newCacheSys(t, 1)
	c, err := NewWeightCache(sys, 48)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if _, ok := c.Model(name).Entry(0, 16, 0); !ok {
			t.Fatalf("model %s entry rejected", name)
		}
	}
	ed, ok := c.Model("d").Entry(0, 48, 0xd)
	if !ok {
		t.Fatal("48-byte entry rejected after evicting three 16-byte models")
	}
	if ed.Off() != 0 || ed.Size() != 48 {
		t.Errorf("entry at off=%d size=%d, want the full coalesced arena [0,48)", ed.Off(), ed.Size())
	}
	if got := c.ResidentBytes(); got != 48 {
		t.Errorf("ResidentBytes() = %d, want 48", got)
	}
}

func TestWeightCacheTooLarge(t *testing.T) {
	sys := newCacheSys(t, 1)
	c, err := NewWeightCache(sys, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Model("m").Entry(0, 40, 0); ok {
		t.Error("entry larger than the arena accepted")
	}
	// A model never evicts itself: with 24 of 32 bytes held by m,
	// a second 16-byte entry cannot fit and must be refused.
	if _, ok := c.Model("m").Entry(1, 24, 0); !ok {
		t.Fatal("24-byte entry rejected in empty arena")
	}
	if _, ok := c.Model("m").Entry(2, 16, 0); ok {
		t.Error("reservation succeeded by evicting its own model")
	}
}

// TestWeightCacheGenerations pins the stamp protocol: delivery stamps
// one DPU, invalidation clears it, a content-hash change bumps
// the generation so every stamp goes stale at once.
func TestWeightCacheGenerations(t *testing.T) {
	sys := newCacheSys(t, 4)
	c, err := NewWeightCache(sys, 64)
	if err != nil {
		t.Fatal(err)
	}
	m := c.Model("m")
	e, ok := m.Entry(0, 16, 0x1111)
	if !ok {
		t.Fatal("entry rejected")
	}
	if e.Current(2) {
		t.Error("undelivered entry current")
	}
	e.markDelivered(2)
	if !e.Current(2) || e.Current(1) {
		t.Error("stamp did not isolate to DPU 2")
	}
	e.InvalidateDPU(2)
	if e.Current(2) {
		t.Error("InvalidateDPU left the stamp current")
	}

	// Same key, same size, new hash: same entry, all stamps stale.
	e.markDelivered(0)
	e2, ok := m.Entry(0, 16, 0x2222)
	if !ok || e2 != e {
		t.Fatalf("re-keyed entry = %p ok=%v, want same entry %p", e2, ok, e)
	}
	if e.Current(0) {
		t.Error("hash change left a stale stamp current")
	}

	// Size change reallocates: the old entry dies, a fresh one replaces it.
	e.markDelivered(1)
	e3, ok := m.Entry(0, 32, 0x3333)
	if !ok {
		t.Fatal("resized entry rejected")
	}
	if e3 == e {
		t.Error("size change reused the old reservation")
	}
	if e.Live() {
		t.Error("old entry still live after size-change realloc")
	}
	if got := c.ResidentBytes(); got != 32 {
		t.Errorf("ResidentBytes() = %d, want 32 after realloc", got)
	}
}
