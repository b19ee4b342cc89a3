//go:build !amd64

package ebnn

// classify is classifyPacked off amd64.
func (r *Runner) classify(lo, hi int) { r.classifyPacked(lo, hi) }
