package dpu

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The copy-on-write MRAM against the plainest model there is: one []byte
// per DPU. Broadcasts, per-DPU writes and reads are interleaved at random;
// after every step every DPU's whole MRAM must equal its model, which is
// also what shows that a private write on one DPU reaches no other.

const (
	diffDPUs = 5
	// Four whole pages and a partial fifth, so the last page table entry
	// is shorter than a page.
	diffMRAM = 4*MRAMPageSize + 8<<10
)

func serialFor(n int, fn func(lo, hi int)) { fn(0, n) }

// splitFor runs fn over two halves on two goroutines: the fallback's
// range function must be safe on disjoint ranges at once.
func splitFor(n int, fn func(lo, hi int)) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fn(0, n/2)
	}()
	fn(n/2, n)
	wg.Wait()
}

type mramModel struct {
	t     *testing.T
	dpus  []*DPU
	bytes [][]byte
	bc    MRAMBroadcast
	errs  []error // a broadcast's; check shows a failed target as stale
	buf   []byte
}

func newMRAMModel(t *testing.T) *mramModel {
	t.Helper()
	cfg := DefaultConfig(O0)
	cfg.MRAMSize = diffMRAM
	m := &mramModel{t: t, buf: make([]byte, diffMRAM), errs: make([]error, diffDPUs)}
	for i := 0; i < diffDPUs; i++ {
		m.dpus = append(m.dpus, MustNew(cfg))
		m.bytes = append(m.bytes, make([]byte, diffMRAM))
	}
	return m
}

// check compares every DPU's MRAM with its model, and every page's
// reference count with the number of page tables that point at it.
func (m *mramModel) check(step int, what string) {
	m.t.Helper()
	holders := map[*mramPage]int32{}
	for i, d := range m.dpus {
		if _, err := d.Do(&Request{Gather: Xfer{Kind: SymbolMRAM, Off: 0, Buf: m.buf}}); err != nil {
			m.t.Fatal(err)
		}
		if !bytes.Equal(m.buf, m.bytes[i]) {
			at := 0
			for m.buf[at] == m.bytes[i][at] {
				at++
			}
			m.t.Fatalf("step %d (%s): DPU %d differs from the model at byte %d (page %d)", step, what, i, at, at/MRAMPageSize)
		}
		for _, p := range d.mramPages {
			if p != nil {
				holders[p]++
			}
		}
	}
	for p, n := range holders {
		if got := p.refs.Load(); got != n {
			m.t.Fatalf("step %d (%s): a page held by %d DPUs counts %d references", step, what, n, got)
		}
	}
}

// span draws an 8-byte-aligned range of one of the shapes the broadcast
// rules tell apart.
func span(rng *rand.Rand) (off int64, n int) {
	pages := diffMRAM / MRAMPageSize
	switch rng.Intn(5) {
	case 0: // inside one page
		n = 8 * (1 + rng.Intn(512))
		off = int64(rng.Intn(pages))*MRAMPageSize + int64(8*rng.Intn((MRAMPageSize-n)/8+1))
	case 1: // across a page boundary
		n = 16 * (1 + rng.Intn(256))
		off = int64(1+rng.Intn(pages-1))*MRAMPageSize - int64(n/2)
	case 2: // whole pages
		first := rng.Intn(pages)
		off, n = int64(first)*MRAMPageSize, (1+rng.Intn(pages-first))*MRAMPageSize
	case 3: // whole pages with a ragged head and tail
		first := rng.Intn(pages - 2)
		off = int64(first)*MRAMPageSize + int64(8*(1+rng.Intn(1024)))
		n = MRAMPageSize + 8*rng.Intn(2048)
	default: // anything
		off = int64(8 * rng.Intn(diffMRAM/8))
		n = 8 * (1 + rng.Intn(int(diffMRAM-off)/8))
	}
	return off, n
}

func TestMRAMCopyOnWriteDifferential(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newMRAMModel(t)
		payload := make([]byte, diffMRAM)
		for step := 0; step < 400; step++ {
			off, n := span(rng)
			data := payload[:n]
			rng.Read(data)
			var what string
			switch op := rng.Intn(10); {
			case op < 4:
				what = "broadcast"
				var targets []*DPU
				var into [][]byte
				all := rng.Intn(3) > 0
				for i, d := range m.dpus {
					if all || rng.Intn(2) == 0 {
						targets, into = append(targets, d), append(into, m.bytes[i])
					}
				}
				par := serialFor
				if rng.Intn(2) == 0 {
					par = splitFor
				}
				m.bc.Write(targets, off, data, par, m.errs)
				for _, b := range into {
					copy(b[off:], data)
				}
			case op < 6:
				what = "scatter"
				i := rng.Intn(diffDPUs)
				if _, err := m.dpus[i].Do(&Request{Scatter: Xfer{Kind: SymbolMRAM, Off: off, Buf: data}}); err != nil {
					t.Fatal(err)
				}
				copy(m.bytes[i][off:], data)
			case op < 7:
				what = "gather"
				i := rng.Intn(diffDPUs)
				if _, err := m.dpus[i].Do(&Request{Gather: Xfer{Kind: SymbolMRAM, Off: off, Buf: data}}); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(data, m.bytes[i][off:off+int64(n)]) {
					t.Fatalf("seed %d step %d: DPU %d read [%d, %d) differs from the model", seed, step, i, off, off+int64(n))
				}
			default:
				// A row walk: a read at a random stride, or a write of the
				// payload's rows back to back.
				what = "MRAMRowRuns"
				i := rng.Intn(diffDPUs)
				rowBytes := 8 * (1 + rng.Intn(96))
				stride := int64(rowBytes + 8*rng.Intn(64))
				rows := 1 + rng.Intn(int((diffMRAM-off-int64(rowBytes))/stride)+1)
				write := op > 7
				walk := func(off, stride int64, rowBytes, rows int, fn func(int, int, []byte, int)) error {
					_, err := m.dpus[i].Launch(1, func(tk *Tasklet) error { tk.MRAMRowRuns(off, stride, rowBytes, rows, fn); return nil })
					return err
				}
				if write {
					what, rowBytes = "row scatter", min(n, rowBytes)
					stride, rows = int64(rowBytes), n/rowBytes
					walk = func(off, _ int64, rowBytes, rows int, fn func(int, int, []byte, int)) error {
						_, err := m.dpus[i].Do(&Request{Scatter: Xfer{Kind: SymbolMRAM, Off: off, Rows: rows, RowBytes: rowBytes, Visit: fn}})
						return err
					}
				}
				next := 0
				err := walk(off, stride, rowBytes, rows, func(first, count int, block []byte, blockStride int) {
					if first != next {
						t.Fatalf("seed %d step %d: run starts at row %d, want %d", seed, step, first, next)
					}
					next += count
					for r := 0; r < count; r++ {
						at, row := off+int64(first+r)*stride, block[r*blockStride:r*blockStride+rowBytes]
						if write {
							copy(row, data[(first+r)*rowBytes:])
						} else if !bytes.Equal(row, m.bytes[i][at:at+int64(rowBytes)]) {
							t.Fatalf("seed %d step %d: DPU %d row %d (at %d, page offset %d) differs from the model",
								seed, step, i, first+r, at, at%MRAMPageSize)
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if next != rows {
					t.Fatalf("seed %d step %d: runs covered %d of %d rows", seed, step, next, rows)
				}
				if write {
					copy(m.bytes[i][off:], data[:rows*rowBytes])
				}
			}
			m.check(step, what)
		}
	}
}

// The three broadcast rules and the private write, one at a time, seen
// through the page tables.
func TestMRAMBroadcastPageSharing(t *testing.T) {
	m := newMRAMModel(t)
	page := func(i int) *mramPage { return m.dpus[i].mramPages[1] }
	shared := func(dpus ...int) *mramPage {
		t.Helper()
		p := page(dpus[0])
		for _, i := range dpus {
			if page(i) != p {
				t.Fatalf("DPU %d holds a different page than DPU %d", i, dpus[0])
			}
		}
		if p == nil || int(p.refs.Load()) != len(dpus) {
			t.Fatalf("shared page %v, want one held by exactly %d DPUs", p, len(dpus))
		}
		return p
	}
	noFallback := func(int, func(lo, hi int)) { t.Fatal("broadcast took the per-DPU path") }
	write := func(targets []*DPU, off int64, n int, par func(int, func(lo, hi int))) {
		t.Helper()
		data := make([]byte, n)
		rand.New(rand.NewSource(off + int64(n))).Read(data)
		m.bc.Write(targets, off, data, par, m.errs)
		for i, d := range m.dpus {
			for _, x := range targets {
				if x == d {
					copy(m.bytes[i][off:], data)
				}
			}
		}
		m.check(0, "broadcast")
	}

	// Untouched everywhere, part of a page: one fresh page for all.
	write(m.dpus, MRAMPageSize+64, 128, noFallback)
	first := shared(0, 1, 2, 3, 4)
	// Every holder is a target: written where it is.
	write(m.dpus, MRAMPageSize+512, 1024, noFallback)
	if shared(0, 1, 2, 3, 4) != first {
		t.Error("a broadcast to all holders of a shared page replaced it")
	}
	// A private write takes one DPU off the page and leaves the rest on it.
	if _, err := m.dpus[2].Do(&Request{Scatter: Xfer{Kind: SymbolMRAM, Off: MRAMPageSize + 8, Buf: []byte{1, 2, 3, 4, 5, 6, 7, 8}}}); err != nil {
		t.Fatal(err)
	}
	copy(m.bytes[2][MRAMPageSize+8:], []byte{1, 2, 3, 4, 5, 6, 7, 8})
	m.check(0, "private write")
	if shared(0, 1, 3, 4) != first || page(2) == first || page(2).refs.Load() != 1 {
		t.Error("a private write did not take exactly its own DPU off the shared page")
	}
	// Part of a page, targets on different pages: the per-DPU path, which
	// still leaves the private DPU's other bytes alone.
	fellBack := false
	write(m.dpus, MRAMPageSize+2048, 64, func(n int, fn func(lo, hi int)) { fellBack = true; fn(0, n) })
	if !fellBack {
		t.Error("a sub-page broadcast over differing pages did not take the per-DPU path")
	}
	// A subset of a page's holders, part of the page: the subset moves to
	// one new page that carries the old bytes, the others keep the old one.
	write(m.dpus, 2*MRAMPageSize, MRAMPageSize, noFallback)
	page = func(i int) *mramPage { return m.dpus[i].mramPages[2] }
	old := shared(0, 1, 2, 3, 4)
	write(m.dpus[1:4], 2*MRAMPageSize+8, 8, noFallback)
	if shared(1, 2, 3) == old || shared(0, 4) != old {
		t.Error("a sub-page broadcast to some holders of a shared page did not split it in two")
	}
	// The whole page, whatever the targets held: one fresh page for all,
	// and the pages let go are reused.
	write(m.dpus, 2*MRAMPageSize, MRAMPageSize, noFallback)
	shared(0, 1, 2, 3, 4)
}

// DPUs sharing a page take their private copies at the same moment while
// another reads it: the race detector's view of the reference count.
func TestMRAMSharedPageConcurrentPrivateWrites(t *testing.T) {
	m := newMRAMModel(t)
	data := make([]byte, 2*MRAMPageSize)
	rand.New(rand.NewSource(7)).Read(data)
	for round := 0; round < 20; round++ {
		m.bc.Write(m.dpus, 0, data, serialFor, m.errs)
		for _, b := range m.bytes {
			copy(b, data)
		}
		var wg sync.WaitGroup
		for i, d := range m.dpus {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if i == 0 {
					got := make([]byte, len(data))
					if _, err := d.Do(&Request{Gather: Xfer{Kind: SymbolMRAM, Off: 0, Buf: got}}); err != nil || !bytes.Equal(got, data) {
						t.Errorf("reader saw another DPU's private write (err %v)", err)
					}
					return
				}
				own := bytes.Repeat([]byte{byte(i)}, 64)
				off := int64(MRAMPageSize - 32) // both pages
				if _, err := d.Do(&Request{Scatter: Xfer{Kind: SymbolMRAM, Off: off, Buf: own}}); err != nil {
					t.Error(err)
				}
				copy(m.bytes[i][off:], own)
			}()
		}
		wg.Wait()
		m.check(round, "concurrent private writes")
	}
}

// A launch is atomic to the host: a kernel writes two MRAM ranges and
// hands off between them, and a host read issued from another goroutine
// meanwhile sees both writes or neither, never the first alone.
func TestLaunchAtomicToHost(t *testing.T) {
	d := newTestDPU(t, O0)
	started, read := make(chan struct{}), make(chan []byte)
	go func() {
		<-started
		got := make([]byte, 16)
		if _, err := d.Do(&Request{Gather: Xfer{Kind: SymbolMRAM, Off: 0, Buf: got}}); err != nil {
			t.Error(err)
		}
		read <- got
	}()
	ones := bytes.Repeat([]byte{1}, 16)
	if _, err := d.Launch(1, func(tk *Tasklet) error {
		tk.WriteMRAM(0, ones[:8])
		close(started)
		// No event shows the read blocked: the pause only gives a read the
		// launch does not hold off time to slip in, never a false failure.
		time.Sleep(20 * time.Millisecond)
		tk.WriteMRAM(8, ones[8:])
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := <-read; !bytes.Equal(got, ones) && !bytes.Equal(got, make([]byte, 16)) {
		t.Errorf("a host read during the launch saw % x: half of the launch's writes", got)
	}

	// A request's gather follows its launch under the same hold: a host
	// write the kernel lets loose, waiting at the lock before the launch
	// ends, lands after the gather. Under -race a window between the two
	// shows within the loop.
	y, z := bytes.Repeat([]byte{0x4b}, 8), bytes.Repeat([]byte{0x5a}, 8)
	for iter := 0; iter < 1000; iter++ {
		signal, wrote, got := make(chan struct{}, 1), make(chan error), make([]byte, 8)
		var ready atomic.Bool
		go func() {
			<-signal
			ready.Store(true)
			_, err := d.Do(&Request{Scatter: Xfer{Kind: SymbolMRAM, Off: 16, Buf: z}})
			wrote <- err
		}()
		if _, err := d.Do(&Request{Tasklets: 1, Stats: new(Stats), Kernel: func(tk *Tasklet) error {
			tk.WriteMRAM(16, y)
			signal <- struct{}{}
			for !ready.Load() {
				runtime.Gosched()
			}
			return nil
		}, Gather: Xfer{Kind: SymbolMRAM, Off: 16, Buf: got}}); err != nil {
			t.Fatal(err)
		}
		if err := <-wrote; err != nil || !bytes.Equal(got, y) {
			t.Fatalf("iteration %d: the gather read % x, not the kernel's % x (writer: %v)", iter, got, y, err)
		}
	}
}

func TestAllocMRAMPageAlignment(t *testing.T) {
	d := newTestDPU(t, O0)
	alloc := func(name string, size int64) Symbol {
		t.Helper()
		s, err := d.Alloc(Symbol{Name: name, Kind: SymbolMRAM, Size: size})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// Small symbols pack as they always did.
	a, b := alloc("a", 100), alloc("b", 64)
	if a.Offset != 0 || b.Offset != 104 {
		t.Errorf("small symbols at %d and %d, want 0 and 104", a.Offset, b.Offset)
	}
	// A symbol of a page or more starts on a page and owns its last one.
	big := alloc("big", MRAMPageSize+8)
	if big.Offset != MRAMPageSize || big.Size != MRAMPageSize+8 {
		t.Errorf("page-sized symbol = %+v, want offset %d and its own size", big, MRAMPageSize)
	}
	if c := alloc("c", 8); c.Offset != 3*MRAMPageSize {
		t.Errorf("symbol after a padded one at %d, want %d", c.Offset, 3*MRAMPageSize)
	}
	if exact := alloc("exact", MRAMPageSize); exact.Offset != 4*MRAMPageSize {
		t.Errorf("one-page symbol at %d, want %d", exact.Offset, 4*MRAMPageSize)
	}
	if e := alloc("e", 8); e.Offset != 5*MRAMPageSize {
		t.Errorf("symbol after a one-page one at %d, want %d", e.Offset, 5*MRAMPageSize)
	}
}

// What filled MRAM exactly before page alignment still does: when the
// padding does not fit, a large symbol packs like a small one.
func TestAllocMRAMExactFill(t *testing.T) {
	d := newTestDPU(t, O0)
	if _, err := d.Alloc(Symbol{Name: "head", Kind: SymbolMRAM, Size: 24}); err != nil {
		t.Fatal(err)
	}
	rest, err := d.Alloc(Symbol{Name: "rest", Kind: SymbolMRAM, Size: DefaultMRAMSize - 24})
	if err != nil {
		t.Fatalf("a sequence that exactly fills MRAM failed: %v", err)
	}
	if rest.Offset != 24 {
		t.Errorf("packed fallback at %d, want 24", rest.Offset)
	}
	if _, err := d.Alloc(Symbol{Name: "over", Kind: SymbolMRAM, Size: 8}); err == nil {
		t.Error("allocation past a full MRAM accepted")
	}
	src := bytes.Repeat([]byte{0xa5}, 16)
	got := make([]byte, 16)
	if _, err := d.Do(&Request{Scatter: Xfer{Kind: SymbolMRAM, Off: DefaultMRAMSize - 16, Buf: src},
		Gather: Xfer{Kind: SymbolMRAM, Off: DefaultMRAMSize - 16, Buf: got}}); err != nil || !bytes.Equal(got, src) {
		t.Errorf("last bytes of a full MRAM read %v (err %v)", got, err)
	}
}
