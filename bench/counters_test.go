package main

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"pimdnn/internal/metrics"
)

// Two scrapes of a live registry handler, as upmem-serve mounts it:
// labelled series of one name add up, the delta is the growth between
// the scrapes, gauges and histograms are not counted, and a name the
// page does not have reads 0.
func TestScrapeAndCounterDelta(t *testing.T) {
	reg := metrics.NewRegistry()
	to := reg.LabeledCounter("pim_host_xfer_bytes_total", "dir", "to_dpu")
	from := reg.LabeledCounter("pim_host_xfer_bytes_total", "dir", "from_dpu")
	cycles := reg.Counter("pim_exec_cycles_total")
	reg.Gauge("pim_serve_inflight").Set(2)
	reg.Histogram("pim_exec_cycles_total_hist", []uint64{10}).Observe(7)
	srv := httptest.NewServer(metrics.Handler(reg))
	defer srv.Close()

	to.Add(4096)
	from.Add(1024)
	cycles.Add(1000)
	before, err := scrapeMetrics(srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	to.Add(4096)
	from.Add(2048)
	cycles.Add(6000)
	after, err := scrapeMetrics(srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if got := counterSum(before, "pim_host_xfer_bytes_total"); got != 5120 {
		t.Errorf("sum over both directions = %v, want 5120", got)
	}
	for name, want := range map[string]float64{
		"pim_host_xfer_bytes_total": 6144,
		"pim_exec_cycles_total":     6000,
		"pim_serve_inflight":        0,
		"pim_absent_total":          0,
	} {
		if got := counterDelta(before, after, name); got != want {
			t.Errorf("delta %s = %v, want %v", name, got, want)
		}
	}
}

func TestScrapeRejectsBadPages(t *testing.T) {
	notFound := httptest.NewServer(http.NotFoundHandler())
	defer notFound.Close()
	if _, err := scrapeMetrics(notFound.Client(), notFound.URL); err == nil {
		t.Error("a 404 /metrics page scraped without error")
	}
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("pim_exec_cycles_total 12\n"))
	}))
	defer garbage.Close()
	if _, err := scrapeMetrics(garbage.Client(), garbage.URL); err == nil {
		t.Error("a non-JSON /metrics page scraped without error")
	}
}
