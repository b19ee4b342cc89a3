package dpu

import (
	"sync"
	"sync/atomic"
)

// MRAMPageSize is the granularity of lazy MRAM allocation. 64 MB per DPU
// across thousands of simulated DPUs cannot be allocated eagerly; pages
// materialize on first touch. A broadcast shares whole pages, so a
// payload broadcast while its neighbours are written per DPU wants a
// symbol of its own pages (Alloc).
const MRAMPageSize = 64 << 10

// mramPage is one page of simulated MRAM, held by refs page tables: one
// for a page private to its DPU, more for a page a broadcast stored once
// for all of its targets. A page with more than one holder is never
// written; a holder about to write it takes a private copy first
// (mramWrite). refs is set when the page is installed and only falls
// afterwards — a holder lets go under its own lock (a kernel's writes
// run under its launch's hold of it) — so a holder that reads 1 is, and
// stays, the only one.
type mramPage struct {
	refs atomic.Int32
	data []byte
}

// pagePool recycles pages their last holder let go of. Pooled pages keep
// their old bytes.
var pagePool sync.Pool

// newPage returns a page with one holder, its bytes zero if asked for
// and unspecified otherwise.
func newPage(zeroed bool) *mramPage {
	p, _ := pagePool.Get().(*mramPage)
	if p == nil {
		p = &mramPage{data: make([]byte, MRAMPageSize)}
	} else if zeroed {
		clear(p.data)
	}
	p.refs.Store(1)
	return p
}

// release drops one holder's reference to p, which may be nil.
func (p *mramPage) release() {
	if p != nil && p.refs.Add(-1) == 0 {
		pagePool.Put(p)
	}
}

// pageSpan splits an access of n bytes at off at its first page boundary:
// the page it starts in, the offset in that page, and how many of the n
// bytes lie in it.
func pageSpan(off int64, n int) (page int64, po, count int) {
	page, po = off/MRAMPageSize, int(off%MRAMPageSize)
	return page, po, min(n, MRAMPageSize-po)
}

// mramWrite/mramRead operate on the lazily-paged MRAM. Callers hold d.mu:
// a host request takes it, a kernel runs under its request's hold.

// mramWrite is the per-DPU write, one ownPage per page it touches.
func (d *DPU) mramWrite(off int64, data []byte) {
	for len(data) > 0 {
		page, po, n := pageSpan(off, len(data))
		copy(d.ownPage(page, po, n).data[po:], data[:n])
		data = data[n:]
		off += int64(n)
	}
}

// ownPage returns page, about to have its bytes [po, po+n) overwritten,
// as this DPU's own: an untouched page materializes, a page shared with
// other DPUs goes private (the bytes the write does not cover copied
// over). The bytes [po, po+n) are unspecified.
func (d *DPU) ownPage(page int64, po, n int) *mramPage {
	p := d.mramPages[page]
	if p == nil || p.refs.Load() > 1 {
		q := newPage(p == nil && n < MRAMPageSize)
		if p != nil {
			copy(q.data[:po], p.data)
			copy(q.data[po+n:], p.data[po+n:])
			p.release()
		}
		d.mramPages[page] = q
		p = q
	}
	return p
}

func (d *DPU) mramRead(off int64, dst []byte) {
	for len(dst) > 0 {
		page, po, n := pageSpan(off, len(dst))
		if p := d.mramPages[page]; p != nil {
			copy(dst[:n], p.data[po:])
		} else {
			// Untouched MRAM reads as zero.
			clear(dst[:n])
		}
		dst = dst[n:]
		off += int64(n)
	}
}

// MRAMBroadcast writes the same bytes to the MRAM of many DPUs, storing
// each page once where it can. It carries the per-call state of the
// per-DPU fallback so that a broadcast allocates nothing; the zero value
// is ready, and one value serves one Write at a time.
type MRAMBroadcast struct {
	targets []*DPU
	off     int64
	data    []byte
	perDPU  func(lo, hi int)
}

// Write stores data at off in the MRAM of every DPU of targets that
// passes its transfer fault draw and the DMA checks — what a one-DPU
// scatter request (Do) on each would leave, telemetry included — and
// sets errs[i] to target i's failure or nil. targets must be distinct
// and in an order every concurrent caller shares (the host passes index
// order): Write holds all their locks. Per page, over the targets that
// passed, it
//
//   - overwrites in place when every target already holds one shared page
//     and nobody else does (all of its holders are locked here);
//   - installs one fresh shared page when the write covers the whole page,
//     or every target holds the same page or none, the bytes outside the
//     write carried over; the pages it replaces are let go;
//   - otherwise writes each DPU's own page (mramWrite) through parallel,
//     which runs fn over disjoint ranges covering [0, n) and returns when
//     all have finished (host.System.ParallelFor).
func (b *MRAMBroadcast) Write(targets []*DPU, off int64, data []byte, parallel func(n int, fn func(lo, hi int)), errs []error) {
	for _, d := range targets {
		d.mu.Lock()
	}
	live := b.targets[:0]
	for i, d := range targets {
		if errs[i] = d.fault((*FaultInjector).transfer); errs[i] == nil {
			errs[i] = d.checkDMAArgs(off, len(data))
		}
		if errs[i] == nil {
			live = append(live, d)
		}
	}
	for rest := data; len(rest) > 0 && len(live) > 0; {
		page, po, n := pageSpan(off, len(rest))
		cur := live[0].mramPages[page]
		same := true
		for _, d := range live[1:] {
			if d.mramPages[page] != cur {
				same = false
				break
			}
		}
		switch {
		case same && cur != nil && int(cur.refs.Load()) == len(live):
			copy(cur.data[po:], rest[:n])
		case same || n == MRAMPageSize:
			q := newPage(cur == nil && n < MRAMPageSize)
			if same && cur != nil {
				copy(q.data[:po], cur.data)
				copy(q.data[po+n:], cur.data[po+n:])
			}
			copy(q.data[po:], rest[:n])
			q.refs.Store(int32(len(live)))
			for _, d := range live {
				d.mramPages[page].release()
				d.mramPages[page] = q
			}
		default:
			if b.perDPU == nil {
				b.perDPU = b.writeRange
			}
			b.targets, b.off, b.data = live, off, rest[:n]
			parallel(len(live), b.perDPU)
			b.data = nil
		}
		rest = rest[n:]
		off += int64(n)
	}
	for _, d := range live {
		if d.met != nil {
			d.met.MRAMBytes.Add(uint64(len(data)))
			d.met.MRAMAccesses.Inc()
		}
	}
	for _, d := range targets {
		d.mu.Unlock()
	}
	b.targets = live[:0] // the next call reuses the backing
}

// writeRange is the fallback's range function. The targets are locked by
// Write, which waits for it.
func (b *MRAMBroadcast) writeRange(lo, hi int) {
	for _, d := range b.targets[lo:hi] {
		d.mramWrite(b.off, b.data)
	}
}
