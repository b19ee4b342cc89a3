package main

import (
	"fmt"
	"net/http"

	"pimdnn/internal/metrics"
)

// scrapeMetrics reads a registry snapshot from a /metrics endpoint in the
// JSON form upmem-top polls, decoded by the registry's own reader.
func scrapeMetrics(c *http.Client, base string) (metrics.Snapshot, error) {
	var snap metrics.Snapshot
	resp, err := c.Get(base + "/metrics?format=json")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return snap, metrics.ReadJSON(resp.Body, &snap)
}

// counterSum adds every series of one counter name, whatever its label.
func counterSum(s metrics.Snapshot, name string) float64 {
	var total uint64
	for _, c := range s.Counters {
		if c.Name == name {
			total += c.Value
		}
	}
	return float64(total)
}

// counterDelta is what a counter grew by between two scrapes.
func counterDelta(before, after metrics.Snapshot, name string) float64 {
	return counterSum(after, name) - counterSum(before, name)
}
