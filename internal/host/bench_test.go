package host

import (
	"testing"

	"pimdnn/internal/dpu"
)

// BenchmarkBroadcast measures a 2 KB broadcast to 8 DPUs.
func BenchmarkBroadcast(b *testing.B) {
	s, err := NewSystem(8, DefaultConfig(dpu.O3))
	if err != nil {
		b.Fatal(err)
	}
	if err := s.AllocMRAM("buf", 2048); err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 2048)
	ref := resolve(b, s, "buf")
	b.SetBytes(2048 * 8)
	for i := 0; i < b.N; i++ {
		if err := s.CopyToSymbolRef(ref, 0, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPushXfer measures per-DPU scatter of 2 KB buffers.
func BenchmarkPushXfer(b *testing.B) {
	s, err := NewSystem(8, DefaultConfig(dpu.O3))
	if err != nil {
		b.Fatal(err)
	}
	if err := s.AllocMRAM("buf", 2048); err != nil {
		b.Fatal(err)
	}
	bufs := make([][]byte, 8)
	for i := range bufs {
		bufs[i] = make([]byte, 2048)
	}
	ref := resolve(b, s, "buf")
	b.SetBytes(2048 * 8)
	for i := 0; i < b.N; i++ {
		if err := s.PushXferRef(ref, 0, bufs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelLaunch measures an 8-DPU synchronous launch.
func BenchmarkParallelLaunch(b *testing.B) {
	s, err := NewSystem(8, DefaultConfig(dpu.O3))
	if err != nil {
		b.Fatal(err)
	}
	k := func(t *dpu.Tasklet) error {
		t.Charge(dpu.OpAddInt, 100)
		return nil
	}
	for i := 0; i < b.N; i++ {
		if _, err := s.Launch(11, k); err != nil {
			b.Fatal(err)
		}
	}
}
