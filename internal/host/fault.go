// Structured partial-failure reporting for the host runtime.
//
// Every operation (broadcast, scatter, gather, launch, fused wave, and
// the same on one DPU) follows one best-effort contract: it attempts all
// participating DPUs, charges simulated time for exactly what ran, and —
// when at least one DPU failed — returns a *FaultReport naming each
// failed DPU and its error; a one-DPU request's report has one entry.
// Argument-validation errors (bad index, out-of-bounds access,
// mismatched buffer counts) are ordinary errors, never FaultReports:
// nothing ran, nothing is charged.
package host

import (
	"errors"
	"fmt"
	"strings"

	"pimdnn/internal/dpu"
)

// DPUFault is one DPU's failure within a best-effort operation.
type DPUFault struct {
	// DPU is the failed DPU's index in the System.
	DPU int
	// Err is the underlying device error.
	Err error
}

// FaultReport describes the partial failure of a best-effort operation:
// which DPUs failed and why. DPUs not listed completed normally and
// their effects (memory writes, charged cycles) are valid. It satisfies
// errors.As, and Unwrap exposes the per-DPU errors so
// errors.Is(err, dpu.ErrDPUDead) and friends see through it.
type FaultReport struct {
	// Op names the failed operation (copy_to, copy_to_dpu, push_xfer,
	// scatter_rows, gather, gather_rows, launch, wave).
	Op string
	// Attempted is the number of DPUs the operation attempted.
	Attempted int
	// Faults lists the failed DPUs in ascending index order.
	Faults []DPUFault
}

// maxReportedFaults caps how many per-DPU errors Error() spells out; a
// rank-wide failure should not render thousands of lines.
const maxReportedFaults = 4

// Error renders the report with up to maxReportedFaults per-DPU errors.
func (r *FaultReport) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "host: %s failed on %d/%d DPUs", r.Op, len(r.Faults), r.Attempted)
	for i, f := range r.Faults {
		if i == maxReportedFaults {
			fmt.Fprintf(&b, "; (and %d more)", len(r.Faults)-maxReportedFaults)
			break
		}
		fmt.Fprintf(&b, "; DPU %d: %v", f.DPU, f.Err)
	}
	return b.String()
}

// Unwrap exposes the per-DPU errors to errors.Is/errors.As.
func (r *FaultReport) Unwrap() []error {
	errs := make([]error, len(r.Faults))
	for i, f := range r.Faults {
		errs[i] = f.Err
	}
	return errs
}

// FailedDPUs returns the failed DPU indices in ascending order.
func (r *FaultReport) FailedDPUs() []int {
	out := make([]int, len(r.Faults))
	for i, f := range r.Faults {
		out[i] = f.DPU
	}
	return out
}

// ErrFor returns the error recorded for DPU i, or nil if it succeeded.
func (r *FaultReport) ErrFor(i int) error {
	for _, f := range r.Faults {
		if f.DPU == i {
			return f.Err
		}
	}
	return nil
}

// AsFaultReport extracts a FaultReport from err. The second return is
// false for nil errors and for total failures (validation errors) that
// carry no per-DPU structure.
func AsFaultReport(err error) (*FaultReport, bool) {
	var r *FaultReport
	if errors.As(err, &r) {
		return r, true
	}
	return nil, false
}

// faultsFrom converts the per-DPU errors of a request whose first DPU is
// start into a *FaultReport, or nil when every entry is nil. The error
// values are copied out of errs, so callers may reuse the slice
// immediately.
func faultsFrom(op string, start int, errs []error) error {
	nFail := 0
	for _, e := range errs {
		if e != nil {
			nFail++
		}
	}
	if nFail == 0 {
		return nil
	}
	r := &FaultReport{Op: op, Attempted: len(errs), Faults: make([]DPUFault, 0, nFail)}
	for i, e := range errs {
		if e != nil {
			r.Faults = append(r.Faults, DPUFault{DPU: start + i, Err: e})
		}
	}
	return r
}

// InjectFaults arms every DPU with a deterministic injector derived
// from the plan (see dpu.FaultPlan). Arming a zero plan still installs
// injectors, but they inject nothing and leave every simulated quantity
// bit-identical to an unarmed system.
func (s *System) InjectFaults(plan dpu.FaultPlan) {
	for i, d := range s.dpus {
		d.InjectFaults(plan.NewInjector(i))
	}
}

// DeadDPUs returns the indices of DPUs an injected fault has
// permanently killed. Empty on an unarmed (or fault-free) system.
func (s *System) DeadDPUs() []int {
	var dead []int
	for i, d := range s.dpus {
		if d.Dead() {
			dead = append(dead, i)
		}
	}
	return dead
}
