package exec_test

import (
	"fmt"
	"sync"
	"testing"

	"pimdnn/internal/exec"
	"pimdnn/internal/host"
)

// TestMultiRankPipelinedStress drives an engine over a multi-rank
// system while another goroutine performs synchronous transfers on its
// own symbol — the one kind of sharing a System allows beside its
// dispatching engine. The engine's waves run on the host's wave runner
// and the synchronous transfers on its other runner, each with its own
// per-DPU and per-rank scratch, so run under -race (make ci does) this
// is the data-race gate for that split. Results must
// stay bit-identical on every iteration regardless of interleaving.
func TestMultiRankPipelinedStress(t *testing.T) {
	const (
		nd     = 32
		rounds = 50
	)
	vals := make([]uint32, 3*nd) // 3 waves per round
	for i := range vals {
		vals[i] = uint32(2000 + 13*i)
	}
	w := newToySet(t, nd, vals, toyOpts{topo: host.Topology{DPUsPerRank: 4}})
	if err := w.sys.AllocMRAM("stress_buf", 64); err != nil {
		t.Fatal(err)
	}
	stressBuf, err := w.sys.Resolve("stress_buf")
	if err != nil {
		t.Fatal(err)
	}
	eng := exec.New(w.sys, exec.Config{})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		bufs := make([][]byte, nd)
		dst := make([][]byte, nd)
		for i := range bufs {
			bufs[i] = make([]byte, 64)
			dst[i] = make([]byte, 64)
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := w.sys.PushXferRef(stressBuf, 0, bufs); err != nil {
				t.Errorf("concurrent PushXfer: %v", err)
				return
			}
			if err := w.sys.GatherXferRefInto(stressBuf, 0, 64, dst); err != nil {
				t.Errorf("concurrent GatherXferInto: %v", err)
				return
			}
		}
	}()

	for round := 0; round < rounds; round++ {
		var st exec.Stats
		if err := eng.Run(w, &st); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		w.verify(t, fmt.Sprintf("round %d", round))
	}
	close(stop)
	wg.Wait()
}
