package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRejectsNonPositiveCounts: an image or training count below one is
// an error before any data is generated, not a makeslice panic.
func TestRejectsNonPositiveCounts(t *testing.T) {
	for _, args := range [][]string{
		{"-images", "-1"}, {"-images", "0"}, {"-train", "-1"}, {"-train", "0"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil || !strings.Contains(err.Error(), "must be positive") {
			t.Errorf("ebnn-infer %v: err = %v, want a must-be-positive error", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("ebnn-infer %v wrote before rejecting:\n%s", args, out.String())
		}
	}
}

// TestRunWritesReport: a small run writes the Fig 4.3/4.4 and batch
// sections to the writer it is given.
func TestRunWritesReport(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-dpus", "1", "-images", "16", "-train", "40"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"== Fig 4.3", "== Fig 4.4", "== batch inference: 16 images, 1 DPUs"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
