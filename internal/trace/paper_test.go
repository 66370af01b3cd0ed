package trace_test

import (
	"bytes"
	"reflect"
	"testing"

	"cachewrite/internal/trace"
	"cachewrite/internal/workload"
)

// TestDecodePaperTracesMatchReference decodes each of the six paper
// traces both with ReadBinary and with the byte-at-a-time reference
// decoder, and requires the same trace event for event.
func TestDecodePaperTracesMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("real workloads in -short mode")
	}
	ts, err := workload.GenerateAllCached("", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range ts {
		t.Run(tr.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := trace.WriteBinary(&buf, tr); err != nil {
				t.Fatal(err)
			}
			got, err := trace.ReadBinary(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			want, err := trace.ReferenceReadBinary(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, tr) {
				t.Fatalf("%s: decoded trace differs from the reference or the original", tr.Name)
			}
		})
	}
}
